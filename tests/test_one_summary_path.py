"""Each corpus summary has one path: only cli computes the noise
statistics (NoiseStats.from_labels) and the score table (score_table)
of the artifacts it writes."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "hopcheck"
_SUMMARIES = {"from_labels", "score_table"}


def _summary_calls(tree: ast.Module):
    """(line, name) for each call of a summary function, by name or attribute."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name in _SUMMARIES:
            yield node.lineno, name


def test_only_cli_computes_corpus_summaries():
    found = [
        f"{path.name}:{line} {name}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "cli.py"
        for line, name in _summary_calls(ast.parse(path.read_text("utf-8")))
    ]
    assert not found, f"corpus summaries computed outside cli: {found}"
