"""Only kg_graph states the key rules: the relation key (words joined by
"_" read as words joined by spaces) and the set of keys that name no
entity. Every other module in src/hopcheck calls kg_graph for them."""

import ast
from pathlib import Path

from hopcheck.kg_graph import NON_ENTITY_KEYS

SRC = Path(__file__).resolve().parent.parent / "src" / "hopcheck"
_PRONOUNS = NON_ENTITY_KEYS - {""}


def _key_rules(tree: ast.Module):
    """(line, what) for each `.replace("_", " ")` call and each definition of
    a non-entity key set: a binding named like one, or a string, set, list
    or tuple literal that lists at least half of its pronouns."""
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "replace"
            and [getattr(a, "value", None) for a in node.args] == ["_", " "]
        ):
            yield node.lineno, '.replace("_", " ")'
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store) and (
            node.id == "NON_ENTITY_KEYS" or "PRONOUN" in node.id.upper()
        ):
            yield node.lineno, f"{node.id} ="
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if 2 * len(_PRONOUNS.intersection(node.value.split())) >= len(_PRONOUNS):
                yield node.lineno, "pronoun list"
        elif isinstance(node, (ast.Set, ast.List, ast.Tuple)):
            words = {e.value for e in node.elts if isinstance(e, ast.Constant)}
            if 2 * len(_PRONOUNS & words) >= len(_PRONOUNS):
                yield node.lineno, "pronoun set"


def _found() -> dict[str, list[str]]:
    found: dict[str, list[str]] = {}
    for path in sorted(SRC.glob("*.py")):
        for line, what in _key_rules(ast.parse(path.read_text("utf-8"))):
            found.setdefault(path.name, []).append(f"{line} {what}")
    return found


def test_only_kg_graph_states_the_key_rules():
    found = _found()
    assert sorted(w.split(" ", 1)[1] for w in found.pop("kg_graph.py", [])) == [
        '.replace("_", " ")',
        "NON_ENTITY_KEYS =",
        "pronoun list",
    ]
    assert not found, f"key rules stated outside kg_graph: {found}"
