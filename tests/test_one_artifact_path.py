"""Only data_model writes files or parses them: every other module in
src/hopcheck writes its artifacts through data_model.write_jsonl or
data_model.write_json, and reads JSON files through data_model.read_json
or data_model.read_jsonl."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "hopcheck"
_WRITE_METHODS = {"write_text", "write_bytes"}


def _is_write_mode(node: ast.expr) -> bool:
    return (
        isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and set(node.value) <= set("rwaxbt+")
        and bool(set(node.value) & set("wax"))
    )


def _writes(tree: ast.Module):
    """(line, what) for each file-writing call: `open` in a w/a/x mode,
    `.write_text`, `.write_bytes` and `json.dump`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "json":
            for alias in node.names:
                if alias.name == "dump":
                    yield node.lineno, "from json import dump"
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        modes = list(node.args) + [k.value for k in node.keywords if k.arg == "mode"]
        if name == "open" and any(_is_write_mode(m) for m in modes):
            yield node.lineno, "open for writing"
        elif isinstance(func, ast.Attribute) and name in _WRITE_METHODS:
            yield node.lineno, f".{name}("
        elif (
            isinstance(func, ast.Attribute)
            and name == "dump"
            and isinstance(func.value, ast.Name)
            and func.value.id == "json"
        ):
            yield node.lineno, "json.dump("


def test_only_data_model_writes_files():
    found = [
        f"{path.name}:{line} {what}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "data_model.py"
        for line, what in _writes(ast.parse(path.read_text("utf-8")))
    ]
    assert not found, f"file writes that bypass data_model.write_jsonl/write_json: {found}"


def _json_file_reads(tree: ast.Module):
    """Lines that call `json.load` or import it by name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "json":
            if any(alias.name == "load" for alias in node.names):
                yield node.lineno
        elif (
            isinstance(node, ast.Attribute)
            and node.attr == "load"
            and isinstance(node.value, ast.Name)
            and node.value.id == "json"
        ):
            yield node.lineno


def test_only_data_model_calls_json_load():
    found = [
        f"{path.name}:{line}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "data_model.py"
        for line in _json_file_reads(ast.parse(path.read_text("utf-8")))
    ]
    assert not found, f"json.load outside data_model.read_json: {found}"


def test_json_load_guard_sees_each_form():
    source = "import json\njson.load(fh)\nfrom json import load\nf = json.load\njson.loads(s)\n"
    assert sorted(_json_file_reads(ast.parse(source))) == [2, 3, 4]


def test_guard_sees_each_kind_of_write():
    source = (
        "import json\n"
        "open(p, 'w')\n"
        "open(p, mode='a', encoding='utf-8')\n"
        "path.open('x')\n"
        "path.write_text(s)\n"
        "path.write_bytes(b)\n"
        "json.dump(obj, fh)\n"
        "open(p)\n"
        "open(p, 'rb')\n"
        "json.dumps(obj)\n"
    )
    assert [line for line, _ in _writes(ast.parse(source))] == [2, 3, 4, 5, 6, 7]
