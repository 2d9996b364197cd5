"""The two artifact formats: every table and document the package writes.

A CSV table is one header row and then one row per record, in the csv
module's default dialect: comma separated, lines ended by CRLF.  Every
cell is a Python int or float written as its repr, which reads back to the
same bits, and every header name is a plain identifier.  No cell needs
quoting, so rows are joined directly, byte for byte as csv.writer writes
them.  A JSON document has an indent of 2, sorted keys and a trailing
newline.

Complex values are written as two real ones: a complex column named x is
the two columns x_re and x_im, and a complex value, or a sequence or array
of complex values, under the JSON key x is the two keys x_re and x_im.  A
column is complex by its dtype, so an empty complex column keeps both
names.  A dataclass is written as the dict of its fields, and numpy
scalars and arrays as Python numbers and lists.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np

_ROWS_PER_WRITE = 4096  # rows formatted per write call


def write_csv(path, header, columns) -> None:
    """Write equal-length columns (arrays or sequences of numbers) under header."""
    names, cols = [], []
    for name, c in zip(header, map(np.asarray, columns)):
        split = np.iscomplexobj(c)  # c.real and c.imag are views, not copies
        names += [f"{name}_re", f"{name}_im"] if split else [name]
        cols += [c.real, c.imag] if split else [c]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(names) + "\r\n")
        # slices keep the Python-object copies of the columns bounded
        for i in range(0, len(cols[0]), _ROWS_PER_WRITE):
            cells = [map(repr, c[i:i + _ROWS_PER_WRITE].tolist()) for c in cols]
            fh.write("\r\n".join(map(",".join, zip(*cells))) + "\r\n")


def _is_complex(value) -> bool:
    if isinstance(value, (list, tuple)):
        return bool(value) and all(map(_is_complex, value))
    return np.iscomplexobj(value)


def _plain(obj):
    """obj as JSON data: dataclasses as dicts, complex values split, numpy as Python."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        obj = dataclasses.asdict(obj)
    if isinstance(obj, dict):
        out = {}
        for key, value in obj.items():
            if _is_complex(value):
                z = np.asarray(value, dtype=complex)
                out[f"{key}_re"], out[f"{key}_im"] = z.real.tolist(), z.imag.tolist()
            else:
                out[key] = _plain(value)
        return out
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    return obj


def write_json(path, obj) -> None:
    """Write obj as JSON with an indent of 2, sorted keys and a final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_plain(obj), fh, indent=2, sort_keys=True)
        fh.write("\n")
