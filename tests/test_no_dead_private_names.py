"""Every module-level name in src/hopcheck has a user outside its own
definition: a private name somewhere in src/, a public one in src/ or
bench/. Code that only tests call lives under tests/."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "hopcheck"
BENCH = ROOT / "bench"


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _definitions(tree: ast.Module, private: bool):
    """(name, node) for module-level private (or public) functions, classes
    and constants."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        yield from ((name, node) for name in names if _is_private(name) == private)


def _uses(tree: ast.Module):
    """(name, node) for every place a name is mentioned."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node
        elif isinstance(node, ast.Attribute):
            yield node.attr, node
        elif isinstance(node, ast.alias):
            yield node.name, node


def _parse(directory: Path) -> dict[str, ast.Module]:
    return {path.name: ast.parse(path.read_text("utf-8")) for path in sorted(directory.glob("*.py"))}


def _unreferenced(src: dict[str, ast.Module], private: bool, users: list[ast.Module]) -> list[str]:
    """Definitions in `src` whose name no node of `users` mentions outside
    the definition itself."""
    uses: dict[str, list[int]] = {}
    for tree in users:
        for name, node in _uses(tree):
            uses.setdefault(name, []).append(id(node))
    dead = []
    for module, tree in src.items():
        for name, definition in _definitions(tree, private):
            own = {id(n) for n in ast.walk(definition)}
            if all(u in own for u in uses.get(name, [])):
                dead.append(f"{module}:{definition.lineno} {name}")
    return dead


def test_no_unreferenced_private_module_names():
    src = _parse(SRC)
    dead = _unreferenced(src, True, list(src.values()))
    assert not dead, f"private names never used in src/: {dead}"


def test_no_public_module_names_only_tests_use():
    src = _parse(SRC)
    dead = _unreferenced(src, False, [*src.values(), *_parse(BENCH).values()])
    assert not dead, f"public names never used in src/ or bench/: {dead}"
