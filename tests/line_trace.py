"""Run the tier-1 tests in this process under a line tracer, and fail on any
line of the package that never ran, outside a short allowlist.

    PYTHONPATH=src python tests/line_trace.py [pytest arguments]

It needs nothing beyond the standard library: the tracer is ``sys.settrace``
(and ``threading.settrace``). A line of a package module is executable when
its compiled code maps an instruction to it (``co_lines``), and it ran when
the interpreter reported a call or line event on it. A code object stops
being traced once every one of its lines has run, so hot loops cost little
after their first passes. Tests that start a fresh interpreter (the CLI and
demo subprocesses) are not traced, so a line that only they run counts as
never run.

An allowlist entry names a module and the text of one line, so it holds when
lines move; an entry whose line ran, or that no line of the module holds any
more, fails the run too, so that the list stays short and true.
"""

from __future__ import annotations

import os
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "seqcontest")

# (module file, stripped line text) -> why no test runs it in process
ALLOWED = {
    ("__init__.py", 'return importlib.import_module(f".{name}", __name__)'):
        "a submodule named as an attribute before its import; every test imports"
        " the submodules it uses, which binds them first",
    ("cli.py", 'row += " " * 18'):
        "a summary table of logs with different player counts; run_session plays"
        " three-player treatments only, and no analyze test reads a log of another",
    ("cli.py", "sys.exit(main())"):
        "runs only as python -m seqcontest.cli, which tests start as a subprocess",
    ("simulate.py", "import numpy as np"):
        "under TYPE_CHECKING, for the annotations alone",
}


def _code_objects(code):
    yield code
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            yield from _code_objects(const)


def _lines(code) -> set[int]:
    """The lines ``code`` itself maps an instruction to."""
    return {line for _, _, line in code.co_lines() if line is not None}


def executable_lines(path: str) -> set[int]:
    with open(path, encoding="utf-8") as fh:
        module = compile(fh.read(), path, "exec")
    return set().union(*map(_lines, _code_objects(module)))


def trace_tests(files: set[str], pytest_args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest with ``pytest_args`` under the tracer; its exit code and
    the lines of each of ``files`` that ran."""
    import pytest  # before tracing starts: pytest's own import is not traced

    ran = {path: set() for path in files}
    pending = {}  # code object -> its lines not yet run (empty outside the package)

    def tracer(frame, event, arg):
        code = frame.f_code
        todo = pending.get(code)
        if todo is None:
            todo = pending[code] = _lines(code) if code.co_filename in files else set()
        if not todo:
            return None
        lines = ran[code.co_filename]

        def line_tracer(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
                todo.discard(frame.f_lineno)
            return line_tracer if todo else None

        return line_tracer(frame, "line", arg)

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(status), ran


def main(argv: list[str]) -> int:
    files = {
        os.path.join(PACKAGE, name) for name in os.listdir(PACKAGE) if name.endswith(".py")
    }
    args = argv or ["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors"]
    status, ran = trace_tests(files, [*args, "--rootdir", ROOT, os.path.join(ROOT, "tests")])
    never, allowed = [], set()
    for path in sorted(files):
        name = os.path.basename(path)
        with open(path, encoding="utf-8") as fh:
            text = fh.read().splitlines()
        for line in sorted(executable_lines(path) - ran[path]):
            key = (name, text[line - 1].strip())
            if key in ALLOWED:
                allowed.add(key)
            else:
                never.append(f"{name}:{line}: {text[line - 1].strip()}")
    stale = sorted(f"{name}: {line}" for name, line in ALLOWED.keys() - allowed)
    for name, line in sorted(allowed):
        print(f"allowed never-run line {name}: {line}")
    if never:
        print(f"{len(never)} package line(s) never ran:", *never, sep="\n  ")
    if stale:
        print("allowlist entries whose line ran or is gone:", *stale, sep="\n  ")
    if status != 0:
        print(f"the tests failed (pytest exit status {status})")
    return 1 if never or stale or status != 0 else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
