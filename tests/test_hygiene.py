"""Source checks that the test suite enforces in place of a linter."""

import ast
from pathlib import Path

import artinfix

SOURCE = Path(artinfix.__file__).resolve().parent


def test_no_assert_statements_in_library():
    # python -O strips assert statements, so invariants must raise explicitly
    hits = []
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Assert):
                hits.append(f"{path.name}:{node.lineno}")
    assert not hits, hits


def _mutable_container(node) -> bool:
    if isinstance(node, (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("dict", "list", "set")
    )


def test_no_module_level_mutable_containers():
    # module-level caches are shared by every caller and cleared wholesale;
    # per-graph state belongs on the graph's oracle context
    hits = []
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.Assign):
                targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                targets = [node.target.id]
            else:
                continue
            if targets != ["__all__"] and node.value is not None and _mutable_container(node.value):
                hits.append(f"{path.name}:{node.lineno}")
    assert not hits, hits
