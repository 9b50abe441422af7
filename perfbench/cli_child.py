"""Traced CLI entry point: time the import of lqgkit.cli, then run its main.

Usage: python cli_child.py SPANS.npz <lqgkit arguments...>

Writes the spans of the run and the import time to SPANS.npz and exits with
lqgkit.cli.main's return code.  The untraced cli_cold ops run
`python -m lqgkit.cli` instead.
"""
import sys
import time

_t0 = time.perf_counter()
import lqgkit.cli  # noqa: E402  (the import is what is timed)

IMPORT_S = time.perf_counter() - _t0

import numpy as np  # noqa: E402

from tracer import Tracer  # noqa: E402


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.op = 0
    tracer.install()
    try:
        code = lqgkit.cli.main(argv)
    finally:
        tracer.uninstall()
        np.savez(spans_path, import_s=IMPORT_S, **tracer.columns())
    return code


if __name__ == "__main__":
    sys.exit(main())
