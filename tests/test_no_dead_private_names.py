"""Every module-level private name in src/hopcheck is used somewhere in src/."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "hopcheck"


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _definitions(tree: ast.Module):
    """(name, node) for module-level private functions, classes and constants."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        yield from ((name, node) for name in names if _is_private(name))


def _uses(tree: ast.Module):
    """(name, node) for every place a name is mentioned."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node
        elif isinstance(node, ast.Attribute):
            yield node.attr, node
        elif isinstance(node, ast.alias):
            yield node.name, node


def test_no_unreferenced_private_module_names():
    trees = {path.name: ast.parse(path.read_text("utf-8")) for path in sorted(SRC.glob("*.py"))}
    uses: dict[str, list[int]] = {}
    for tree in trees.values():
        for name, node in _uses(tree):
            uses.setdefault(name, []).append(id(node))
    dead = []
    for module, tree in trees.items():
        for name, definition in _definitions(tree):
            own = {id(n) for n in ast.walk(definition)}
            if all(u in own for u in uses.get(name, [])):
                dead.append(f"{module}:{definition.lineno} {name}")
    assert not dead, f"private names never used in src/: {dead}"
