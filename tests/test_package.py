import ast
from pathlib import Path

import vidembed

SRC = Path(vidembed.__file__).resolve().parent


def test_all_names_resolve():
    assert len(set(vidembed.__all__)) == len(vidembed.__all__)
    namespace = {}
    exec("from vidembed import *", namespace)  # AttributeError on a stale name
    assert set(vidembed.__all__) <= namespace.keys()


def _json_decodes(tree):
    """(enclosing function, line) of each json.load/json.loads call in a
    module, and of each `from json import ...`."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.ImportFrom) and node.module == "json":
            found.append((where, node.lineno))
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("load", "loads")
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "json"
        ):
            found.append((where, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, None)
    return found


def test_json_is_decoded_only_in_decode_json():
    """Every JSON input (manifest, sidecar, VEMH header, HTTP body) goes
    through data.decode_json, so all get the same UTF-8 and error rules."""
    calls = {
        path.name: _json_decodes(ast.parse(path.read_text(encoding="utf-8")))
        for path in sorted(SRC.glob("*.py"))
    }
    assert {name: found for name, found in calls.items() if found} == {
        "data.py": [("decode_json", calls["data.py"][0][1])]
    }
