"""Every function, class and method of the package is used.  A private name
that nothing in the package refers to, outside its own definition, is dead
code left behind by a refactor; so is a public name that nothing in the
package, its tests or its benchmark refers to."""

import ast
import pathlib

import charzero

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _parse(paths) -> dict[str, ast.Module]:
    return {str(path): ast.parse(path.read_text(), filename=str(path)) for path in sorted(paths)}


PACKAGE = _parse(pathlib.Path(charzero.__file__).parent.glob("*.py"))


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _public(name: str) -> bool:
    return not name.startswith("_")


def _definitions(tree: ast.Module, wanted):
    """The module-level functions and classes and the methods of
    module-level classes whose names are `wanted`."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and wanted(node.name):
            yield node
        if isinstance(node, ast.ClassDef):
            yield from (item for item in node.body
                        if isinstance(item, ast.FunctionDef) and wanted(item.name))


def _references(tree: ast.Module):
    """(name, line) of every name read and every attribute taken."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno


def _unreferenced(referrers: dict[str, ast.Module], wanted) -> list[str]:
    """The `wanted` definitions of the package that no module of `referrers`
    refers to outside the definition itself."""
    references: dict[str, list[tuple[str, int]]] = {}
    for module, tree in referrers.items():
        for name, line in _references(tree):
            references.setdefault(name, []).append((module, line))
    unused = []
    for module, tree in PACKAGE.items():
        for node in _definitions(tree, wanted):
            own = range(node.lineno, node.end_lineno + 1)
            if all(where == module and line in own
                   for where, line in references.get(node.name, [])):
                unused.append(f"{module}:{node.lineno} {node.name}")
    return unused


def test_every_private_definition_is_referenced():
    unused = _unreferenced(PACKAGE, _private)
    assert not unused, unused


def test_every_public_definition_is_referenced():
    referrers = {**PACKAGE, **_parse((ROOT / "tests").glob("*.py")),
                 **_parse((ROOT / "perfbench").glob("*.py"))}
    unused = _unreferenced(referrers, _public)
    assert not unused, unused
