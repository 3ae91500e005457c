"""Run one seqcontest CLI command with the benchmark's span wrappers.

    python3 bench/launch.py SPANS.npz solve --seq 1,2

The wrappers are installed and ``seqcontest.cli.main(argv)`` runs inside a
root span ``cli.main``. The spans are written to SPANS.npz at exit, and the
exit code is the command's.
"""

import os
import sys

import seqcontest.cli

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from spans import SpanRecorder, Tracer  # noqa: E402


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    rec = SpanRecorder()
    with Tracer(rec):
        idx = rec.open("cli.main")
        try:
            code = seqcontest.cli.main(argv)
        finally:
            rec.close(idx)
            rec.save(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
