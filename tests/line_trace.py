"""List the functions of the charzero package that run no statement.

    PYTHONPATH=src python tests/line_trace.py --pytest -q
    PYTHONPATH=src python tests/line_trace.py --cli jobs.txt
    PYTHONPATH=src python tests/line_trace.py --cli jobs.txt --pytest -q

`--cli FILE` runs each non-blank line of FILE that does not start with "#"
as one argv of `charzero.cli.main`, with stdout discarded; `--pytest` runs
pytest in this process with the arguments after it.  Both may be given, and
the list is then of the functions that neither run reached.

A `sys.settrace` hook, installed before the package is imported, records
the code object of every frame the package enters; a frame entered runs its
first statement, and no line events are traced.  The functions are the
named function code objects compiled from the package's modules:
functions, methods and properties, nested ones included, but not lambdas,
comprehensions, class bodies or module bodies.  One line per function that
never ran goes to stdout, as "module:line qualname".  Stdlib only; pytest
does not collect this file.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import inspect
import os
import shlex
import sys
from pathlib import Path

PACKAGE = Path(importlib.util.find_spec("charzero").origin).resolve().parent


def _functions(code):
    """The named function code objects nested in `code`, depth first."""
    for const in code.co_consts:
        if hasattr(const, "co_code"):
            if const.co_flags & inspect.CO_OPTIMIZED and not const.co_name.startswith("<"):
                yield const
            yield from _functions(const)


def package_functions() -> dict[tuple[str, int, str], str]:
    """(file, first line, qualified name) of every package function, each
    mapped to its "module:line qualname" label."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        module = compile(path.read_text(), str(path), "exec")
        for code in _functions(module):
            key = (str(path), code.co_firstlineno, code.co_qualname)
            out[key] = f"{path.name}:{code.co_firstlineno} {code.co_qualname}"
    return out


class Recorder:
    """The package code objects whose frames were entered while installed."""

    def __init__(self):
        self.entered: set[tuple[str, int, str]] = set()
        self._files: dict[str, str | None] = {}

    def _package_file(self, filename: str) -> str | None:
        if filename not in self._files:
            path = Path(filename).resolve()
            self._files[filename] = str(path) if path.parent == PACKAGE else None
        return self._files[filename]

    def __call__(self, frame, event, arg):
        code = frame.f_code
        path = self._package_file(code.co_filename)
        if path is not None:
            self.entered.add((path, code.co_firstlineno, code.co_qualname))
        return None

    @contextlib.contextmanager
    def installed(self):
        sys.settrace(self)
        try:
            yield
        finally:
            sys.settrace(None)


def run_cli_file(path: str) -> None:
    """Each argv line of `path` through `cli.main`, stdout discarded; the
    exit code of each goes to stderr."""
    from charzero import cli

    lines = Path(path).read_text().splitlines()
    with open(os.devnull, "w") as sink:
        for line in lines:
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            with contextlib.redirect_stdout(sink):
                try:
                    code = cli.main(shlex.split(line))
                except SystemExit as e:  # argparse refusals
                    code = e.code
            print(f"exit {code}: {line}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--cli", action="append", default=[], metavar="FILE",
                        help="a file of CLI argv lines (repeatable)")
    parser.add_argument("--pytest", nargs=argparse.REMAINDER, metavar="ARGS",
                        help="run pytest with the remaining arguments")
    args = parser.parse_args(argv)
    if not args.cli and args.pytest is None:
        parser.error("give --cli FILE, --pytest [ARGS...] or both")
    recorder = Recorder()
    with recorder.installed():
        for path in args.cli:
            run_cli_file(path)
        if args.pytest is not None:
            import pytest

            code = pytest.main(args.pytest)
            print(f"pytest exited {int(code)}", file=sys.stderr)
    functions = package_functions()
    never = [label for key, label in sorted(functions.items()) if key not in recorder.entered]
    for label in never:
        print(label)
    print(f"{len(never)} of {len(functions)} functions ran no statement", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
