"""Only llm_client builds and sends requests: every other module in
src/hopcheck reaches a backend through llm_client.ask."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "hopcheck"
_REQUEST_BUILDERS = {"build_request", "load_prompt"}


def _bypasses(tree: ast.Module):
    """(line, what) for each mention of a request builder and each `.complete(` call."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id in _REQUEST_BUILDERS:
            yield node.lineno, node.id
        elif isinstance(node, ast.Attribute) and node.attr in _REQUEST_BUILDERS:
            yield node.lineno, node.attr
        elif isinstance(node, ast.alias) and node.name in _REQUEST_BUILDERS:
            yield node.lineno, node.name
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "complete"
        ):
            yield node.lineno, ".complete("


def test_only_llm_client_builds_and_sends_requests():
    found = [
        f"{path.name}:{line} {what}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "llm_client.py"
        for line, what in _bypasses(ast.parse(path.read_text("utf-8")))
    ]
    assert not found, f"backend calls that bypass llm_client.ask: {found}"
