import ast
import pathlib

import charzero


def _package_trees():
    for path in sorted(pathlib.Path(charzero.__file__).parent.glob("*.py")):
        yield path.name, ast.parse(path.read_text(), filename=str(path))


def test_package_has_no_assert_statements():
    """Result checks must raise: `assert` disappears under `python -O`."""
    found = []
    for name, tree in _package_trees():
        found += [f"{name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, found


def test_internal_checks_raise_exactness_error():
    """A tripped internal check raises `ExactnessError`, which the CLI maps
    to exit 1, not a bare RuntimeError.  The one exception is the search
    bound of `dixon_prime`, a limit of the search rather than a check."""
    allowed, found = set(), set()
    for name, tree in _package_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and f"{name}:{node.name}" == "dixon.py:dixon_prime":
                allowed.update((name, line) for line in range(node.lineno, node.end_lineno + 1))
            if isinstance(node, ast.Raise):
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id == "RuntimeError":
                    found.add((name, node.lineno))
    assert allowed and found <= allowed, sorted(found - allowed)
