"""The benchmark's four workloads.

Each workload is a stream of operations, issued one at a time by a single
client (a closed loop).  An operation is a call (or, for ``cli-cold``, a
fresh process) whose result is checked against a reference from
``reference.py``.  A stream has two parts:

- ``timed``: a fixed list of operations in a fixed order, the same for every
  seed.  It is always run whole, and only it is timed.  The package's memo
  makes an operation's cost depend on what ran before it, so with seeded
  draws or a seeded order the timings spread by 20-85% across seeds; a fixed
  list leaves only the machine's noise.
- ``tail``: endless cycles of the same composition whose random inputs and
  order come from the seed.  They run after the timed list until the run's
  time is up, and are checked and counted but not timed.

- ``classify-sweep``: ``classify(aut, search_len=3)`` then ``verify_report``
  over the named catalogue, conjugates of the criterion-9 cases, and random
  ``conj g ; sigma ; [invert]`` on the triangle and on ``mixed334``.  The
  main user path; drives the classifier, the oracle's search,
  ``canonical_form`` and the Garside engine.
- ``coset-complex``: a radius-2 ball on the triangle, then ``fixed_vertices``,
  ``compatibility_probe`` and ``displacement_field`` on it.  The only
  workload that exercises ``deligne`` and ``member_of_parabolic`` heavily.
- ``dihedral-exact``: two-generator engines only (``dihedral_fix`` against
  ``brute_fixed``/``subgroup_ball``, and ``tree_fixed_set``).  Never reaches
  the oracle's search, so it is the bypass workload for oracle and deligne
  changes.
- ``cli-cold``: CLI commands, each in a fresh interpreter, so caches are cold
  and import and argument handling count.
"""

from __future__ import annotations

import itertools
import json
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator

import reference as ref

BENCH_DIR = Path(__file__).resolve().parent

CLASSIFY_SEARCH_LEN = 3
# Ball of the coset-complex workload.  Local bound 2 keeps one
# displacement_field call near a second while still taking the resolve
# fallback (the ball is DEGRADED); local bound 3 takes about 15 s per call.
BALL_RADIUS = 2
BALL_LOCAL_BOUND = 2
PROBE_SAMPLES = 200
# Brute-force length of dihedral-exact and tree radius; criterion 1 uses 8 and
# criterion 3 uses 6, which make single operations of 0.5-7 s.
DIHEDRAL_LENGTH = 6
TREE_RADIUS = 5
CLI_TIMEOUT_S = 60


@dataclass
class Op:
    kind: str
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], tuple[bool, bool, str]]  # -> (ok, exact, detail)


@dataclass
class Stream:
    timed: list[Op]  # fixed work, always run whole; the only timed operations
    tail: Iterator[Op]  # seeded operations, checked but untimed, until the time is up


@dataclass
class Context:
    root: Path  # checkout root; the package is imported from root/src
    trace_dir: Path | None = None  # set when the run is traced
    env: dict | None = None  # environment of child processes
    child_raws: list | None = None  # per-layer raw numbers from traced children


def random_word(rng: random.Random, letters, length: int) -> str:
    """A freely reduced word of exactly the given length, in DSL spelling."""
    out: list[tuple[str, int]] = []
    while len(out) < length:
        name, sign = rng.choice(letters)
        if out and out[-1] == (name, -sign):
            continue
        out.append((name, sign))
    return " ".join(n + ("-" if s < 0 else "") for n, s in out)


def _letters(vertices):
    return [(v, s) for v in vertices for s in (1, -1)]


def _graphs():
    from artinfix import presentation

    return {name: presentation.validate_graph(list(edges)) for name, edges in ref.GRAPHS.items()}


# Seed of the random inputs and the order of every timed list.
FIXED_SEED = 2407


def _cycle_stream(cycle, timed_cycles: int, seed: int) -> Stream:
    """A stream of cycles, cycle(rng) -> list of operations.

    The timed list is ``timed_cycles`` cycles drawn from ``FIXED_SEED``; the
    tail is endless cycles drawn from the run's seed.
    """
    fixed_rng = random.Random(FIXED_SEED)
    timed = [op for _ in range(timed_cycles) for op in cycle(fixed_rng)]
    rng = random.Random(seed)
    tail = (op for _ in itertools.count() for op in cycle(rng))
    return Stream(timed, tail)


def _interleave(rng: random.Random, fixed: list, rand: list) -> list:
    """Shuffle both lists and spread the fixed items evenly through the random ones."""
    rng.shuffle(fixed)
    rng.shuffle(rand)
    out, total = [], len(fixed) + len(rand)
    fi = ri = 0
    for k in range(total):
        if fi < len(fixed) and (ri >= len(rand) or fi * total <= k * len(fixed)):
            out.append(fixed[fi])
            fi += 1
        else:
            out.append(rand[ri])
            ri += 1
    return out


# ---------------------------------------------------------------------------
# classify-sweep

SIGMAS = {
    "triangle": ["", "graph a>b b>a", "graph a>b b>c c>a"],
    "mixed334": ["", "graph a>b b>a"],
}
RANDOM_LENGTHS = (1, 2, 3, 4, 5)


def _strata_items(rng, graphs):
    from artinfix import classifier

    items = []
    for gname, sigmas in SIGMAS.items():
        g = graphs[gname]
        for sigma in sigmas:
            for inversion in (False, True):
                for length in RANDOM_LENGTHS:
                    dsl = f"conj {random_word(rng, _letters(g.vertices), length)}"
                    dsl += f" ; {sigma}" if sigma else ""
                    dsl += " ; invert" if inversion else ""
                    items.append((f"{gname}: {dsl}", g, classifier.normalize_aut(g, dsl), None))
    return items


def _conjugated_bases(rng, graphs):
    """Criterion 9: conjugating a base case by a letter h keeps its class."""
    from artinfix import classifier, words

    items = []
    for name, gname, dsl, expected in ref.CRIT9_BASES:
        g = graphs[gname]
        h = random_word(rng, _letters(g.vertices), 1)
        conj = words.inner(g, words.parse_word(h))
        gamma = conj.compose(classifier.normalize_aut(g, dsl)).compose(conj.inverse())
        keep = {k: v for k, v in expected.items() if k in ("tag", "free_rank", "subgraph", "rank")}
        items.append((f"{name}^({h})", g, gamma, keep))
    return items


def _classify_op(label, graph, aut, expected):
    from artinfix import classifier

    def run():
        rep = classifier.classify(aut, search_len=CLASSIFY_SEARCH_LEN)
        passed, _ = classifier.verify_report(aut, rep)
        return rep, passed

    def check(out):
        rep, passed = out
        problems = ref.soundness_problems(rep, passed, len(graph.vertices))
        if expected is not None:
            problems += ref.report_problems(rep, expected)
        exact = rep.confidence == "PROVEN" and not any("UNKNOWN" in n for n in rep.notes)
        return not problems, exact, "; ".join(problems)

    return Op("classify", label, run, check)


def classify_sweep(ctx: Context, seed: int) -> Stream:
    """Timed: the catalogue, then one sweep of conjugates and strata."""
    from artinfix import classifier

    graphs = _graphs()

    def cycle(rng):
        items = _interleave(rng, _conjugated_bases(rng, graphs), _strata_items(rng, graphs))
        return [_classify_op(*item) for item in items]

    stream = _cycle_stream(cycle, 1, seed)
    stream.timed[:0] = [
        _classify_op(name, graphs[gname], classifier.normalize_aut(graphs[gname], dsl), expected)
        for name, gname, dsl, expected in ref.CLASSIFY_CATALOGUE
    ]
    return stream


# ---------------------------------------------------------------------------
# coset-complex

TRIANGLE_SIGMAS = [
    ({}, ""),
    ({"a": "b", "b": "a"}, "graph a>b b>a"),
    ({"a": "c", "c": "a"}, "graph a>c c>a"),
    ({"b": "c", "c": "b"}, "graph b>c c>b"),
    ({"a": "b", "b": "c", "c": "a"}, "graph a>b b>c c>a"),
    ({"a": "c", "b": "a", "c": "b"}, "graph a>c b>a c>b"),
]


def coset_complex(ctx: Context, seed: int) -> Stream:
    from artinfix import classifier, deligne

    tri = _graphs()["triangle"]
    held: dict = {}

    def ball_op():
        def run():
            held["ball"] = deligne.build_ball(tri, BALL_RADIUS, local_bound=BALL_LOCAL_BOUND)
            return held["ball"]

        def check(ball):
            labels = {v.label() for v in ball.vertices}
            ok = ref.FUNDAMENTAL_DOMAIN <= labels
            return ok, not ball.degraded, "" if ok else "fundamental domain missing"

        return Op("build_ball", f"radius {BALL_RADIUS} local {BALL_LOCAL_BOUND}", run, check)

    def fixed_op(dsl, perm, conj):
        aut = classifier.normalize_aut(tri, dsl)
        expected = ref.fd_fixed_labels(perm, conj)

        def run():
            return deligne.fixed_vertices(aut, held["ball"])

        def check(out):
            fixed, lower = out
            ball = held["ball"]
            got = {ball.vertices[i].label() for i in fixed} & ref.FUNDAMENTAL_DOMAIN
            # a LOWER_BOUND result may miss vertices, never add them
            ok = got <= expected if lower else got == expected
            detail = "" if ok else f"fundamental domain {sorted(got)} != {sorted(expected)}"
            return ok, not lower, detail

        return Op("fixed_vertices", dsl or "identity", run, check)

    def probe_op(probe_seed):
        def run():
            return deligne.compatibility_probe(held["ball"], samples=PROBE_SAMPLES, seed=probe_seed)

        def check(out):
            passes, failures, unresolved = out
            return failures == 0, unresolved == 0, f"{failures} failures" if failures else ""

        return Op("compatibility_probe", f"seed {probe_seed}", run, check)

    def displacement_op(x):
        g = ((x, 1),)

        def run():
            return deligne.displacement_field(g, held["ball"])

        def check(field):
            _, tree = deligne.standard_tree_ball(held["ball"], (), x)
            zero = {v for v, d in field.items() if d == 0}
            ok = zero == set(tree)
            return ok, True, "" if ok else "zero-displacement set != standard tree"

        return Op("displacement_field", x, run, check)

    def cycle(rng):
        fixed = [fixed_op(*item) for item in ref.COSET_AUTS]
        rand = []
        for _ in range(2):
            perm, sigma = rng.choice(TRIANGLE_SIGMAS)
            conj = random_word(rng, _letters("abc"), rng.randint(1, 2))
            dsl = " ; ".join(p for p in (f"conj {conj}", sigma, rng.choice(["", "invert"])) if p)
            rand.append(fixed_op(dsl, perm, conj))
        rand.append(probe_op(rng.randrange(1 << 30)))
        rand.append(displacement_op(rng.choice("abc")))
        return [ball_op()] + _interleave(rng, fixed, rand)

    return _cycle_stream(cycle, TIMED_CYCLES["coset-complex"], seed)


# ---------------------------------------------------------------------------
# dihedral-exact


def _dihedral_catalogue(m: int, delta: str):
    return [
        "graph a>b b>a", "invert", "graph a>b b>a ; invert", "conj a", f"conj {delta}",
        "conj a b", "conj a b ; invert", "conj a ; graph a>b b>a",
        "conj a ; graph a>b b>a ; invert",
    ]


def _delta(m: int) -> str:
    return " ".join("ab"[i % 2] for i in range(m))


def axis_generator(n: int, k: int):
    """Criterion 3's closed form for the axis of the alpha-gamma automorphism."""
    from artinfix import hnn

    if n % 2 == 1 and k % 2 == 0:
        toks = [("x", k // 2), ("t", 1), ("x", (n - 1) // 2), ("t", 1), ("x", (-k - n - 1) // 2)]
    elif n % 2 == 1:
        toks = [("x", (k + n) // 2), ("t", 1), ("x", (n - 1) // 2), ("t", 1), ("x", (-k - 1) // 2)]
    elif k % 2 == 0:
        toks = [("x", k // 2), ("t", 1), ("x", n // 2), ("t", -1), ("x", (-k - n) // 2)]
    else:
        toks = [("x", (k + 1) // 2), ("t", -1), ("x", n // 2), ("t", 1), ("x", (-k - n - 1) // 2)]
    return hnn.bs_from_tokens(n, toks)


def axis_vertices(n: int, k: int, radius: int, partners) -> set:
    """Vertices of the ball on the axis line through the base and its partners."""
    from artinfix import hnn

    _, dist = hnn.tree_ball(n, radius)
    s = axis_generator(n, k)
    expected = set()
    for j in range(-(radius + 2), radius + 3):
        sj = hnn.bs_pow(n, s, j)
        for u in [hnn.BS_IDENTITY] + [hnn.vertex_rep(n, p) for p in partners]:
            key = hnn.vertex_key(n, hnn.bs_mul(n, sj, u))
            if key in dist:
                expected.add(key)
    return expected


TREE_CASES = ((3, 0), (3, 1), (2, 0), (2, 1))


def _tree_dsl(k: int) -> str:
    conj = " ".join(["a b"] * k)
    return (f"conj {conj} ; " if conj else "") + "graph a>b b>a ; invert"


def dihedral_exact(ctx: Context, seed: int) -> Stream:
    from artinfix import dihedral, hnn, words

    # The tree references are computed once, before any operation is timed.
    # The axis passes through the base vertex and its fixed neighbours.
    tree_refs = {}
    for n, k in TREE_CASES:
        aut = words.parse_automorphism(dihedral.edge_graph(2 * n), _tree_dsl(k))
        tree = dihedral.outer_class(2 * n, aut).tree(n)
        base = hnn.vertex_key(n, hnn.BS_IDENTITY)
        partners = [p for p in hnn.vertex_neighbors(n, base) if tree.vertex_image(p) == p]
        tree_refs[n, k] = (aut, axis_vertices(n, k, TREE_RADIUS, partners), base)

    def fix_op(m, dsl):
        aut = words.parse_automorphism(dihedral.edge_graph(m), dsl)

        def run():
            rep = dihedral.dihedral_fix(m, aut)
            brute = {dihedral.nf_key(m, w) for w in dihedral.brute_fixed(m, aut, DIHEDRAL_LENGTH)}
            whole = rep.fix_class.tag == "ARTIN"
            generated = dihedral.subgroup_ball(m, rep.generators, DIHEDRAL_LENGTH, whole_group=whole)
            return rep, brute, generated

        def check(out):
            rep, brute, generated = out
            ok = brute == generated
            detail = "" if ok else f"brute {len(brute)} != generated {len(generated)}"
            return ok, rep.confidence == "PROVEN", detail

        return Op("dihedral_fix", f"m={m}: {dsl}", run, check)

    def tree_op(n, k):
        aut, expected, base = tree_refs[n, k]

        def run():
            return dihedral.tree_fixed_set(n, aut, radius=TREE_RADIUS)

        def check(fs):
            ok = set(fs.vertices) == expected and base in fs.vertices and not fs.midpoints
            return ok, True, "" if ok else "fixed tree != axis formula"

        return Op("tree_fixed_set", f"n={n} k={k}", run, check)

    def cycle(rng):
        fixed = [fix_op(m, dsl) for m in (3, 4, 5, 6) for dsl in _dihedral_catalogue(m, _delta(m))]
        fixed += [tree_op(n, k) for n, k in TREE_CASES]
        rand = []
        for m in (3, 4, 5, 6):
            parts = [f"conj {random_word(rng, _letters('ab'), rng.randint(1, 3))}"]
            parts += ["graph a>b b>a"] if rng.random() < 0.5 else []
            parts += ["invert"] if rng.random() < 0.5 else []
            rand.append(fix_op(m, " ; ".join(parts)))
        return _interleave(rng, fixed, rand)

    return _cycle_stream(cycle, TIMED_CYCLES["dihedral-exact"], seed)


# ---------------------------------------------------------------------------
# cli-cold


def _cli_op(ctx: Context, name: str, argv: list, expected: dict, index: int):
    argv = argv + ["--format", "json"]
    if ctx.trace_dir is None:
        cmd = [sys.executable, "-m", "artinfix.cli", *argv]
    else:
        spans = ctx.trace_dir / "cli-cold" / f"op{index}"
        cmd = [sys.executable, str(BENCH_DIR / "cli_driver.py"), "--spans", str(spans), *argv]

    def run():
        return subprocess.run(
            cmd, capture_output=True, text=True, env=ctx.env, cwd=ctx.root,
            timeout=CLI_TIMEOUT_S,
        )

    def check(proc):
        out = proc.stdout
        if ctx.trace_dir is not None:
            out, _, raw_line = out.rstrip("\n").rpartition("\n")
            ctx.child_raws.append(json.loads(raw_line))
        if proc.returncode not in (0, 2):
            return False, False, f"exit {proc.returncode}: {proc.stderr.strip()[-200:]}"
        payload = json.loads(out)
        problems = ref.cli_problems(payload, expected)
        exact = (
            proc.returncode == 0
            and payload.get("confidence", "PROVEN") == "PROVEN"
            and not payload.get("lower_bound_only", False)
            and payload.get("status") != "UNKNOWN"
        )
        return not problems, exact, "; ".join(problems)

    return Op("cli", name, run, check)


def cli_cold(ctx: Context, seed: int) -> Stream:
    index = itertools.count()

    def cycle(rng):
        items = list(ref.CLI_COMMANDS)
        # seeded oracle items: one braid relation applied inside a random word
        # (EQUAL), and the same word against a longer one (NOT_EQUAL, by height)
        left, right = rng.choice(ref.TRIANGLE_RELATIONS)
        x = random_word(rng, _letters("abc"), rng.randint(1, 3))
        y = random_word(rng, _letters("abc"), rng.randint(1, 3))
        u, v = f"{x} {left} {y}", f"{x} {right} {y}"
        items.append(("oracle-relation", ["oracle", "eq", "--graph-text", ref.TRI_TEXT,
                                          "--budget", "2000", u, v], {"status": "EQUAL"}))
        items.append(("oracle-height", ["oracle", "eq", "--graph-text", ref.TRI_TEXT,
                                        u, f"{u} {rng.choice('abc')}"], {"status": "NOT_EQUAL"}))
        rng.shuffle(items)
        return [_cli_op(ctx, name, argv, expected, next(index)) for name, argv, expected in items]

    return _cycle_stream(cycle, TIMED_CYCLES["cli-cold"], seed)


# Cycles in the timed list of the cycle-built workloads.  Each timed list
# takes 19-23 s on a 2-CPU machine (Python 3.11), just inside the 25 s of a
# run: more timed work gave steadier figures, and the seeded tail fills the
# rest of the run.
TIMED_CYCLES = {"coset-complex": 40, "dihedral-exact": 2, "cli-cold": 6}

# name -> (stream factory, operations in a traced run).  A traced run takes a
# prefix of the timed list, so its counts are the same for every seed.
WORKLOADS = {
    "classify-sweep": (classify_sweep, 40),
    "coset-complex": (coset_complex, 24),
    "dihedral-exact": (dihedral_exact, 44),
    "cli-cold": (cli_cold, 16),
}
