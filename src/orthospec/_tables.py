"""The two artifact formats: every table and document the package writes.

A CSV table is one header row and then one row per record, in the csv
module's default dialect: comma separated, lines ended by CRLF.  Every
cell is a Python int or float written as its repr, which reads back to the
same bits, and every header name is a plain identifier.  No cell needs
quoting, so rows are joined directly, byte for byte as csv.writer writes
them.  A JSON document has an indent of 2, sorted keys and a trailing
newline.
"""

from __future__ import annotations

import json

import numpy as np

_ROWS_PER_WRITE = 4096  # rows formatted per write call


def write_csv(path, header, columns) -> None:
    """Write equal-length columns (arrays or sequences of numbers) under header."""
    cols = [np.asarray(c) for c in columns]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\r\n")
        # slices keep the Python-object copies of the columns bounded
        for i in range(0, len(cols[0]), _ROWS_PER_WRITE):
            rows = zip(*(c[i:i + _ROWS_PER_WRITE].tolist() for c in cols))
            fh.write("".join(",".join(map(repr, row)) + "\r\n" for row in rows))


def write_json(path, obj) -> None:
    """Write obj as JSON with an indent of 2, sorted keys and a final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")
