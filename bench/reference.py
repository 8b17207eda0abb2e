"""Reference answers for the benchmark, written by hand.

Nothing here is computed by the code under test.  The expected classes and
generators come from the paper's model cases and from acceptance criteria 2
to 5, 7 and 9 (see the README's summary of the acceptance suite); the
coset-complex expectations follow from the coset equation: the base-coset
vertex ``1|S`` is fixed by ``conj_g . sigma . iota^e`` exactly when
``sigma(S) = S`` and ``g`` lies in the standard parabolic ``A_S``.  For a
freely reduced ``g`` of length at most two in a large-type group that means
``support(g) <= S``: such a word is geodesic (every relator has length at
least six) and standard parabolics are convex.

Randomly generated classify items have no reference; they are checked for
soundness only (see ``soundness_problems``).  That is a consistency check,
not a reference.
"""

from __future__ import annotations

from itertools import combinations

TRIANGLE = (("a", "b", 3), ("a", "c", 3), ("b", "c", 3))
MIXED334 = (("a", "b", 4), ("a", "c", 3), ("b", "c", 3))
PATH = (("a", "b", 3), ("b", "c", 3))


def complete_all3(n: int):
    names = [chr(ord("a") + i) for i in range(n)]
    return tuple((u, v, 3) for u, v in combinations(names, 2))


GRAPHS = {
    "triangle": TRIANGLE,
    "mixed334": MIXED334,
    "path": PATH,
    "K3": complete_all3(3),
    "K4": complete_all3(4),
    "K5": complete_all3(5),
}

# The fixed-subgroup shapes the paper's classification allows.
PAPER_TAGS = frozenset(
    {"TRIVIAL", "Z", "Z2", "FREE", "Z_CROSS_F", "DIHEDRAL_A4", "ARTIN", "ARTIN_FREE_PRODUCT"}
)


def rank_bound(n: int) -> int:
    """The paper's uniform bound on the rank of a fixed subgroup."""
    return n * n - 2 * n + 2


def word(text: str) -> tuple:
    """'a b- c' -> (('a', 1), ('b', -1), ('c', 1)); the bench's own tiny parser."""
    return tuple((tok.rstrip("-"), -1 if tok.endswith("-") else 1) for tok in text.split())


EXOTIC = {"tag": "DIHEDRAL_A4", "generators": {word("b"), word("a b c")}}

# (item name, graph name, automorphism, expected report fields)
CLASSIFY_CATALOGUE = [
    # criterion 4: conj_a on the complete all-3 graph realises the rank bound
    ("crit4-K3", "K3", "conj a", {"tag": "Z_CROSS_F", "free_rank": 4, "rank": 5}),
    ("crit4-K4", "K4", "conj a", {"tag": "Z_CROSS_F", "free_rank": 9, "rank": 10}),
    ("crit4-K5", "K5", "conj a", {"tag": "Z_CROSS_F", "free_rank": 16, "rank": 17}),
    # criterion 7: every exotic twist gives the dihedral subgroup on {b, abc}
    ("crit7-q1", "triangle", "conj a b c a b c", EXOTIC),
    ("crit7-q1-rot", "triangle", "conj a b c a b c a b ; graph a>c b>a c>b", EXOTIC),
    ("crit7-q1-rot2", "triangle", "conj a b c a b c c- b- ; graph a>b b>c c>a", EXOTIC),
    ("crit7-q2", "triangle", "conj a b c a b c a b c a b c", EXOTIC),
    ("crit7-q2-rot", "triangle",
     "conj a b c a b c a b c a b c a b ; graph a>c b>a c>b", EXOTIC),
    ("crit7-q2-rot2", "triangle",
     "conj a b c a b c a b c a b c c- b- ; graph a>b b>c c>a", EXOTIC),
    # criterion 9 base cases: the model cases of the paper on the triangle
    ("crit9-swap", "triangle", "graph a>b b>a",
     {"tag": "ARTIN_FREE_PRODUCT", "subgraph": ("c",), "free_rank": 1,
      "generators": {word("c"), word("a b a")}}),
    ("crit9-rotation", "triangle", "graph a>b b>c c>a", {"tag": "TRIVIAL", "rank": 0}),
    ("crit9-conj-a", "triangle", "conj a", {"tag": "Z_CROSS_F", "free_rank": 4, "rank": 5}),
    ("crit9-conj-a-inv", "triangle", "conj a ; invert", {"tag": "Z", "rank": 1}),
    ("crit9-exotic", "triangle", "conj a b c a b c", EXOTIC),
    ("crit9-exotic-rot", "triangle", "conj a b c a b c a b ; graph a>c b>a c>b", EXOTIC),
    # criterion 8's obstruction: with the inversion a hyperbolic case is Z in height 0
    ("crit9-exotic-inv", "triangle", "conj a b c a b c ; invert",
     {"tag": "Z", "rank": 1, "height_zero": True}),
    # path a-b-c: the swapped ends are no edge, so no Garside generator
    ("path-swap", "path", "graph a>c c>a", {"tag": "Z", "generators": {word("b")}}),
    ("path-swap-inv", "path", "graph a>c c>a ; invert", {"tag": "TRIVIAL", "rank": 0}),
]

# Conjugating a criterion-9 base case by a seeded h must keep its class.
CRIT9_BASES = [item for item in CLASSIFY_CATALOGUE if item[0].startswith("crit9-")]


def report_problems(report, expected: dict) -> list[str]:
    """Differences between a FixReport and the hand-written expectation."""
    problems = []
    cls = report.fix_class
    if cls.tag != expected["tag"]:
        problems.append(f"tag {cls.tag} != {expected['tag']}")
    if "free_rank" in expected and cls.free_rank != expected["free_rank"]:
        problems.append(f"free rank {cls.free_rank} != {expected['free_rank']}")
    if "subgraph" in expected and tuple(cls.subgraph) != expected["subgraph"]:
        problems.append(f"subgraph {cls.subgraph} != {expected['subgraph']}")
    if "rank" in expected and len(report.generators) != expected["rank"]:
        problems.append(f"rank {len(report.generators)} != {expected['rank']}")
    if "generators" in expected and set(report.generators) != expected["generators"]:
        problems.append("generators differ")
    if expected.get("height_zero"):
        if any(sum(s for _, s in w) != 0 for w in report.generators):
            problems.append("a generator has nonzero height")
    return problems


def soundness_problems(report, passed: bool, n_vertices: int) -> list[str]:
    """Consistency checks for items without a reference answer."""
    problems = []
    if not passed:
        problems.append("verify_report failed")
    if any(c.status == "NOT_EQUAL" for c in report.certificates):
        problems.append("a certificate is NOT_EQUAL")
    if report.fix_class.tag not in PAPER_TAGS:
        problems.append(f"tag {report.fix_class.tag} is not in the paper's list")
    if len(report.generators) > rank_bound(max(n_vertices, 2)):
        problems.append("rank above n^2 - 2n + 2")
    return problems


# ---------------------------------------------------------------------------
# Coset complex.

FUNDAMENTAL_DOMAIN = frozenset({"1|0", "1|a", "1|b", "1|c", "1|ab", "1|ac", "1|bc"})

# (automorphism, graph permutation, conjugator letters)
COSET_AUTS = [
    ("graph a>b b>a", {"a": "b", "b": "a"}, ""),
    ("conj a", {}, "a"),
    ("graph a>b b>c c>a", {"a": "b", "b": "c", "c": "a"}, ""),
    ("conj a b ; invert", {}, "a b"),
    ("invert", {}, ""),
    ("", {}, ""),
    ("conj a ; invert", {}, "a"),
]


def fd_fixed_labels(perm: dict, conj: str) -> frozenset:
    """Fundamental-domain vertices fixed by conj_g sigma iota^e, |g| <= 2."""
    support = {tok.rstrip("-") for tok in conj.split()}
    out = set()
    for label in FUNDAMENTAL_DOMAIN:
        S = set() if label.endswith("|0") else set(label[2:])
        if {perm.get(s, s) for s in S} == S and support <= S:
            out.add(label)
    return frozenset(out)


# ---------------------------------------------------------------------------
# Command line: (name, argv, expected JSON fields).

TRI_TEXT = "edge a b 3; edge a c 3; edge b c 3"
PATH_TEXT = "edge a b 3; edge b c 3"
K4_TEXT = "; ".join(f"edge {u} {v} 3" for u, v, _ in complete_all3(4))
GARSIDE_CLOSED_M4 = {"a- b- a b", "a b a- b-", "b a b- a-", "b- a- b a"}
DELTA_M3 = {"a b a", "b a b", "a- b- a-", "b- a- b-"}

CLI_COMMANDS = [
    ("validate", ["validate", "--graph-text", TRI_TEXT],
     {"vertices": ["a", "b", "c"], "n_edges": 3}),
    ("classify-swap", ["classify", "--graph-text", TRI_TEXT, "--aut", "graph a>b b>a"],
     {"tag": "ARTIN_FREE_PRODUCT", "subgraph": ["c"], "free_rank": 1,
      "generators": {"c", "a b a"}}),
    ("classify-conj-a", ["classify", "--graph-text", TRI_TEXT, "--aut", "conj a"],
     {"tag": "Z_CROSS_F", "free_rank": 4, "rank": 5}),
    ("classify-exotic", ["classify", "--graph-text", TRI_TEXT, "--aut", "conj a b c a b c"],
     {"tag": "DIHEDRAL_A4", "generators": {"b", "a b c"}}),
    ("classify-dihedral-vertex",
     ["classify", "--graph-text", TRI_TEXT, "--aut", "conj a b ; invert"],
     {"tag": "Z", "rank": 1}),
    ("classify-k4-swap", ["classify", "--graph-text", K4_TEXT, "--aut", "graph c>d d>c"],
     {"tag": "ARTIN_FREE_PRODUCT", "subgraph": ["a", "b"], "free_rank": 1,
      "generators": {"a", "b", "c d c"}}),
    ("classify-path", ["classify", "--graph-text", PATH_TEXT, "--aut", "graph a>c c>a"],
     {"tag": "Z", "generators": {"b"}}),
    ("verify-exotic", ["verify", "--graph-text", TRI_TEXT, "--aut", "conj a b c a b c"],
     {"tag": "DIHEDRAL_A4", "verified": True}),
    ("dihedral-fix-m4", ["dihedral", "fix", "--m", "4", "--aut", "graph a>b b>a ; invert"],
     {"tag": "Z", "generator_in": GARSIDE_CLOSED_M4}),
    ("dihedral-fix-m3", ["dihedral", "fix", "--m", "3", "--aut", "conj a b a"],
     {"tag": "Z", "generator_in": DELTA_M3}),
    ("deligne-ball", ["deligne", "ball", "--graph-text", TRI_TEXT, "--radius", "1"],
     {"n_vertices": 7}),
    ("deligne-fixed-swap",
     ["deligne", "fixed", "--graph-text", TRI_TEXT, "--radius", "1", "--aut", "graph a>b b>a"],
     {"fixed": {"1|0", "1|ab", "1|c"}, "lower_bound_only": False}),
    ("deligne-fixed-rotation",
     ["deligne", "fixed", "--graph-text", TRI_TEXT, "--radius", "1",
      "--aut", "graph a>b b>c c>a"],
     {"fixed": {"1|0"}, "lower_bound_only": False}),
    ("oracle-braid", ["oracle", "eq", "--graph-text", TRI_TEXT, "a b a", "b a b"],
     {"status": "EQUAL"}),
]

# Braid relations of the triangle, each side spelled out, for seeded oracle items.
TRIANGLE_RELATIONS = [("a b a", "b a b"), ("a c a", "c a c"), ("b c b", "c b c")]


def cli_problems(payload: dict, expected: dict) -> list[str]:
    problems = []
    for key, want in expected.items():
        if key == "n_edges":
            got = len(payload["edges"])
        elif key == "n_vertices":
            got = len(payload["vertices"])
        elif key == "rank":
            got = len(payload["generators"])
        elif key == "generators":
            got = set(payload["generators"])
        elif key == "fixed":
            got = set(payload["fixed"])
        elif key == "generator_in":
            gens = payload["generators"]
            if len(gens) != 1 or gens[0] not in want:
                problems.append(f"generators {gens} not in {sorted(want)}")
            continue
        else:
            got = payload.get(key)
        if got != want:
            problems.append(f"{key}: {got!r} != {want!r}")
    return problems
