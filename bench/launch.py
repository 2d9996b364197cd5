"""Run one orthospec subcommand as ``cli.main(argv)`` in a fresh interpreter.

Usage::

    python3 bench/launch.py SRC_DIR RECORD_JSON TRACE -- SUBCOMMAND [ARGS...]

``SRC_DIR`` is put first on ``sys.path`` (the ``orthospec`` console script
need not be installed).  The launcher notes the monotonic clock when its own
code starts, after ``import orthospec.cli``, and around ``cli.main``, and
writes those stamps, the exit code and (with ``TRACE`` = 1) the recorded
spans to ``RECORD_JSON``.  The monotonic clock is system-wide on Linux, so
the parent can subtract its own launch stamp.  The exit code is the
subcommand's.
"""

import json
import sys
import time


def main() -> int:
    t_start = time.monotonic()
    if len(sys.argv) < 5 or sys.argv[4] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    src, record_path, trace = sys.argv[1], sys.argv[2], sys.argv[3] == "1"
    argv = sys.argv[5:]
    sys.path.insert(0, src)

    from orthospec import cli

    t_imported = time.monotonic()
    tracer = None
    if trace:
        import spans

        tracer = spans.Tracer()
        tracer.install()
    t_main = time.monotonic()
    try:
        code = cli.main(argv)
    finally:
        t_end = time.monotonic()
        record = {
            "t_start": t_start,
            "t_imported": t_imported,
            "t_main": t_main,
            "t_end": t_end,
        }
        if tracer is not None:
            record["spans"] = tracer.spans
        with open(record_path, "w", encoding="utf-8") as fh:
            json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
