import ast
import pathlib

import charzero


def test_package_has_no_assert_statements():
    """Result checks must raise: `assert` disappears under `python -O`."""
    found = []
    for path in sorted(pathlib.Path(charzero.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, found
