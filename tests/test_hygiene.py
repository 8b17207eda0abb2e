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
