"""Every private function, class and method of the package is used: a
private name that nothing in the package refers to, outside its own
definition, is dead code left behind by a refactor."""

import ast
import pathlib

import charzero


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _definitions(tree: ast.Module):
    """The private module-level functions and classes and the private
    methods of module-level classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and _private(node.name):
            yield node
        if isinstance(node, ast.ClassDef):
            yield from (item for item in node.body
                        if isinstance(item, ast.FunctionDef) and _private(item.name))


def _references(tree: ast.Module):
    """(name, line) of every name read and every attribute taken."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno


def test_every_private_definition_is_referenced():
    trees = {path.name: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(pathlib.Path(charzero.__file__).parent.glob("*.py"))}
    references: dict[str, list[tuple[str, int]]] = {}
    for module, tree in trees.items():
        for name, line in _references(tree):
            references.setdefault(name, []).append((module, line))
    unused = []
    for module, tree in trees.items():
        for node in _definitions(tree):
            own = range(node.lineno, node.end_lineno + 1)
            if all(where == module and line in own
                   for where, line in references.get(node.name, [])):
                unused.append(f"{module}:{node.lineno} {node.name}")
    assert not unused, unused
