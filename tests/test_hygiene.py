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


def _definitions(tree):
    """Module-level functions and classes, and the methods of those classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef):
                    yield f"{node.name}.{sub.name}", sub.name


def test_every_library_function_is_referenced():
    # a definition that nothing in the library, the tests or the demos names is
    # dead API; names are matched, not resolved, so a shared method name
    # anywhere counts as a reference
    root = Path(__file__).resolve().parents[1]
    referenced = set()
    for folder in ("src", "tests", "demos"):
        for path in sorted((root / folder).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name):
                    referenced.add(node.id)
                elif isinstance(node, ast.Attribute):
                    referenced.add(node.attr)
                elif isinstance(node, ast.alias):
                    referenced.add(node.name.rsplit(".", 1)[-1])
    exempt = {"_Parser.error"}  # argparse calls its own error hook
    unreferenced = [
        f"{path.name}:{qualname}"
        for path in sorted(SOURCE.glob("*.py"))
        for qualname, name in _definitions(ast.parse(path.read_text(encoding="utf-8")))
        if not (name.startswith("__") and name.endswith("__"))
        and qualname not in exempt
        and name not in referenced
    ]
    assert not unreferenced, unreferenced


def _decorator_name(node) -> str:
    if isinstance(node, ast.Call):
        node = node.func
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", "")


def test_function_caches_live_in_garside():
    # the Garside engine owns the process-wide caches (one engine per m, its
    # balls and spellings); per-graph memos belong on the oracle context
    hits = []
    for path in sorted(SOURCE.glob("*.py")):
        if path.name == "garside.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for deco in node.decorator_list:
                    if _decorator_name(deco) in ("lru_cache", "cache"):
                        hits.append(f"{path.name}:{node.lineno}")
    assert not hits, hits


def test_words_imports_nothing_from_the_package():
    # words is the bottom layer; imports for type checking only are allowed
    tree = ast.parse((SOURCE / "words.py").read_text(encoding="utf-8"))
    typing_only = {
        id(sub)
        for node in ast.walk(tree)
        if isinstance(node, ast.If) and getattr(node.test, "id", None) == "TYPE_CHECKING"
        for sub in ast.walk(node)
    }
    hits = []
    for node in ast.walk(tree):
        if id(node) in typing_only:
            continue
        if isinstance(node, ast.ImportFrom):
            modules = [("." * node.level) + (node.module or "")]
        elif isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        else:
            continue
        hits += [f"words.py:{node.lineno} {name}" for name in modules
                 if name.startswith(".") or name.split(".")[0] == "artinfix"]
    assert not hits, hits


def test_dihedral_reads_balls_only_in_the_brute_force_oracles():
    # roots and centralisers are read off the tree forms; a ball scan or a
    # brute fixed-element search belongs to the acceptance oracles alone
    tree = ast.parse((SOURCE / "dihedral.py").read_text(encoding="utf-8"))
    hits = []
    for func in tree.body:
        if not isinstance(func, ast.FunctionDef) or func.name in ("brute_fixed", "subgroup_ball"):
            continue
        for node in ast.walk(func):
            if isinstance(node, ast.Call) and (
                (isinstance(node.func, ast.Attribute) and node.func.attr == "ball")
                or (isinstance(node.func, ast.Name) and node.func.id == "brute_fixed")
            ):
                hits.append(f"dihedral.py:{node.lineno} in {func.name}")
    assert not hits, hits
