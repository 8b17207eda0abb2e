import random

import pytest

from artinfix.oracle import (
    canonical_form,
    is_fixed,
    member_of_parabolic,
    replay,
    word_equal,
)
from artinfix.words import (
    free_reduce,
    inner,
    inv,
    mul,
    parse_automorphism,
    parse_word,
)


def test_braid_relation_equal(edge3):
    verdict = word_equal(edge3, parse_word("a b a"), parse_word("b a b"))
    assert verdict.is_equal
    assert replay(edge3, verdict, parse_word("a b a"), parse_word("b a b"))


def test_dihedral_certificate_does_not_replay_off_its_pair():
    # a tampered pair of endpoints: the a-b certificate for "a b a = b a b"
    # says nothing about a c a and c a c, which differ since a-c has m = 4
    from artinfix.presentation import validate_graph

    graph = validate_graph([("a", "b", 3), ("a", "c", 4), ("b", "c", 3)])
    u, v = parse_word("a c a"), parse_word("c a c")
    verdict = word_equal(graph, parse_word("a b a"), parse_word("b a b"))
    assert verdict.method == "dihedral-nf"
    assert replay(graph, verdict, parse_word("a b a"), parse_word("b a b"))
    assert word_equal(graph, u, v).is_not_equal
    assert not replay(graph, verdict, u, v)
    assert not replay(graph, verdict, parse_word("a b a"), v)


def test_forged_certificates_do_not_replay():
    # on the path a-b-c: a normal-form certificate naming the non-edge a-c,
    # and a rewrite certificate with no trace, are refused without raising
    from artinfix.oracle import EqualityVerdict
    from artinfix.presentation import validate_graph

    graph = validate_graph([("a", "b", 3), ("b", "c", 3)])
    u, v = parse_word("a c a"), parse_word("c a c")
    nf = EqualityVerdict("EQUAL", "dihedral-nf", (("a", "c"), (0, ())))
    assert not replay(graph, nf, u, v)
    assert not replay(graph, EqualityVerdict("EQUAL", "rewrite", ()), u, v)


def test_even_edge_abelianization_separates(edge4):
    verdict = word_equal(edge4, parse_word("a"), parse_word("b"))
    assert verdict.is_not_equal
    assert verdict.method == "abelianization"


def test_zero_budget_still_exact_on_dihedral(edge3):
    # heights and class vectors agree, but the normal form backend decides
    verdict = word_equal(edge3, parse_word("a"), parse_word("b"), budget=0)
    assert verdict.is_not_equal
    assert verdict.method == "dihedral-nf"


def test_is_fixed_examples(edge3, edge4):
    sig = parse_automorphism(edge3, "graph a>b b>a")
    assert is_fixed(sig, parse_word("a b a")).is_equal
    iota = parse_automorphism(edge3, "invert")
    v = is_fixed(iota, parse_word("a"))
    assert v.is_not_equal and v.method == "height"
    si = parse_automorphism(edge4, "graph a>b b>a ; invert")
    assert is_fixed(si, parse_word("a b a- b-")).is_equal


def test_exotic_center_commutes(triangle):
    z = parse_word("a b c a b c")
    for wtxt in ("b", "a b c"):
        w = parse_word(wtxt)
        verdict = word_equal(triangle, mul(z, w, inv(z)), w)
        assert verdict.is_equal
        assert replay(triangle, verdict, mul(z, w, inv(z)), w)


def test_rewrite_trace_replays(triangle):
    u = parse_word("c a b a c-")
    v = parse_word("c b a b c-")
    verdict = word_equal(triangle, u, v)
    assert verdict.is_equal
    assert replay(triangle, verdict, u, v)
    # a tampered endpoint must not replay
    assert not replay(triangle, verdict, u, parse_word("c b a b c- a"))


def test_unknown_is_a_value(triangle):
    # (abc)^2 commutes with b and abc but not with a: the Coxeter images differ
    u = mul(parse_word("a b c a b c"), parse_word("a"), inv(parse_word("a b c a b c")))
    verdict = word_equal(triangle, u, parse_word("a"), budget=1)
    assert verdict.status == "NOT_EQUAL" and verdict.method == "coxeter"
    # squares die in the Coxeter group, so a question inside ker(A -> W)
    # that the search cannot settle stays an honest UNKNOWN, no guess
    u, v = parse_word("a^2 b^2 c^2"), parse_word("c^2 b^2 a^2")
    verdict = word_equal(triangle, u, v, budget=50)
    assert verdict.status == "UNKNOWN" and verdict.expansions


def test_symmetry_and_reflexivity(triangle):
    rng = random.Random(11)
    letters = [(v, s) for v in triangle.vertices for s in (1, -1)]
    for _ in range(40):
        u = free_reduce(rng.choices(letters, k=5))
        v = free_reduce(rng.choices(letters, k=5))
        assert word_equal(triangle, u, u).is_equal
        a = word_equal(triangle, u, v, budget=300)
        b = word_equal(triangle, v, u, budget=300)
        assert a.status == b.status


def test_budget_monotone_refinement(triangle):
    # growing the budget may only refine UNKNOWN, never flip a definite answer
    rng = random.Random(13)
    letters = [(v, s) for v in triangle.vertices for s in (1, -1)]
    for _ in range(30):
        u = free_reduce(rng.choices(letters, k=6))
        v = free_reduce(rng.choices(letters, k=6))
        low = word_equal(triangle, u, v, budget=0)
        high = word_equal(triangle, u, v, budget=500)
        if not low.is_unknown:
            assert low.status == high.status


def test_equal_implies_invariants(triangle):
    from artinfix.words import abelianization_vector, height

    rng = random.Random(17)
    letters = [(v, s) for v in triangle.vertices for s in (1, -1)]
    for _ in range(60):
        u = free_reduce(rng.choices(letters, k=6))
        conj = free_reduce(rng.choices(letters, k=3))
        v = mul(conj, u, inv(conj))  # not equal to u in general
        rel = parse_word("a b a")
        w = mul(u, rel, inv(parse_word("b a b")))  # equal to u
        verdict = word_equal(triangle, u, w, budget=400)
        if verdict.is_equal:
            assert height(u) == height(w)
            assert abelianization_vector(triangle, u) == abelianization_vector(
                triangle, w
            )


def test_isogredience_covariance_of_is_fixed(triangle):
    # conjugated automorphisms fix conjugated words
    rng = random.Random(19)
    sig = parse_automorphism(triangle, "graph a>b b>a")
    fixed_words = [parse_word("c"), parse_word("a b a")]
    letters = [(v, s) for v in triangle.vertices for s in (1, -1)]
    for _ in range(10):
        h = free_reduce(rng.choices(letters, k=2))
        conj = inner(triangle, h)
        gamma = conj.compose(sig).compose(conj.inverse())
        for w in fixed_words:
            assert is_fixed(gamma, mul(h, w, inv(h))).is_equal


def test_membership(triangle):
    res = member_of_parabolic(triangle, parse_word("a b a b- a-"), {"a", "b"})
    assert res.status == "MEMBER"
    assert set(n for n, _ in res.rewritten) <= {"a", "b"}
    res = member_of_parabolic(triangle, parse_word("c"), {"a", "b"}, budget=50)
    assert res.status == "NOT_MEMBER"  # the reflection of c is not in W_ab
    assert res.certificate[0] == "coxeter"


def test_coxeter_image_checks_itself(monkeypatch):
    # a root of the wrong order breaks the braid relations mod p; the image
    # must refuse to be built with a coded error instead of giving verdicts
    from artinfix import oracle
    from artinfix.presentation import validate_graph
    from artinfix.words import GraphError

    graph = validate_graph([("a", "b", 3), ("a", "c", 4), ("b", "c", 5)])
    monkeypatch.setattr(oracle, "lcm", lambda *labels: 1)
    with pytest.raises(GraphError) as err:
        word_equal(graph, parse_word("a b c"), parse_word("a c b"))
    assert err.value.code == "COXETER_IMAGE"


def test_membership_abelianization_refutation(mixed334):
    # c alone generates its own class only when no odd path identifies it;
    # in the 3-3-4 triangle everything is identified, so build a sharper case
    from artinfix.presentation import validate_graph

    g = validate_graph([("a", "b", 4)])  # two odd components
    res = member_of_parabolic(g, parse_word("b"), {"a"})
    assert res.status == "NOT_MEMBER"


def test_canonical_form_sound(triangle):
    rng = random.Random(23)
    letters = [(v, s) for v in triangle.vertices for s in (1, -1)]
    for _ in range(50):
        w = free_reduce(rng.choices(letters, k=8))
        cw = canonical_form(triangle, w)
        assert word_equal(triangle, w, cw, budget=0).status != "NOT_EQUAL"
        assert canonical_form(triangle, cw) == cw


def test_free_fragment_between_non_adjacent_generators():
    from artinfix.presentation import validate_graph

    path = validate_graph([("a", "b", 3), ("b", "c", 3)])
    verdict = word_equal(path, parse_word("a c"), parse_word("c a"))
    assert verdict.is_not_equal
    assert verdict.method == "free"


# ---------------------------------------------------------------------------
# canonical_form against the memo-free reference loop.


def _reference_syllables(graph, word):
    """Greedy maximal runs fitting inside one finite-coefficient pair."""
    from artinfix.presentation import INFINITY

    runs = []
    current, names = [], set()
    for letter in word:
        name = letter[0]
        if name in names or not current:
            current.append(letter)
            names.add(name)
            continue
        if len(names) == 1:
            other = next(iter(names))
            if graph.coefficient(other, name) is not INFINITY:
                current.append(letter)
                names.add(name)
                continue
        runs.append((frozenset(names), current))
        current, names = [letter], {name}
    if current:
        runs.append((frozenset(names), current))
    return runs


def reference_canonical_form(graph, word):
    """Respell every maximal two-generator run, for at most six passes."""
    from artinfix.garside import engine

    word = free_reduce(word)
    for _ in range(6):
        out = []
        for names, run in _reference_syllables(graph, word):
            if len(names) == 2:
                pair = tuple(sorted(names))
                eng = engine(int(graph.coefficient(*pair)))
                spelled = eng.spell(eng.from_letters((pair.index(n), sg) for n, sg in run))
                out.extend((pair[i], sg) for i, sg in spelled)
            else:
                out.extend(run)
        new = free_reduce(out)
        if new == word or len(new) > len(word):
            break
        word = new
    return word


def _reduced_words(graph, length):
    letters = [(v, s) for v in graph.vertices for s in (1, -1)]
    layer = [()]
    for _ in range(length):
        yield from layer
        layer = [
            w + (x,) for w in layer for x in letters
            if not w or w[-1] != (x[0], -x[1])
        ]
    yield from layer


def test_canonical_form_matches_reference(triangle, mixed334, edge4):
    from artinfix.presentation import validate_graph

    path = validate_graph([("a", "b", 3), ("b", "c", 3)])  # a-c is infinite
    for graph in (triangle, mixed334, edge4, path):
        for w in _reduced_words(graph, 6):
            assert canonical_form(graph, w) == reference_canonical_form(graph, w), w


def test_canonical_form_is_pure_after_the_pass_cap():
    # canonical_form(w) stops at the six-pass cap; its output x is not a fixed
    # point, so the answer for x must not depend on w having been seen first
    from artinfix.presentation import validate_graph

    w = parse_word("b c- a b c a b c a b c a b c^2 b-")
    x = parse_word("b c- b- a b c a b c a b c a b^2 c")
    edges = [("a", "b", 3), ("a", "c", 3), ("b", "c", 3)]
    for order in ((w, x), (x, w)):
        graph = validate_graph(edges)
        for word in order:
            assert canonical_form(graph, word) == reference_canonical_form(graph, word)
    assert reference_canonical_form(graph, w) == x
    assert reference_canonical_form(graph, x) != x


def _oracle_queries(graph):
    rng = random.Random(29)
    letters = [(v, s) for v in graph.vertices for s in (1, -1)]
    z = parse_word("a b c a b c")
    queries = [
        ("eq", parse_word("c a b a c-"), parse_word("c b a b c-"), 100_000),
        ("eq", mul(z, parse_word("b"), inv(z)), parse_word("b"), 100_000),
        ("eq", mul(z, parse_word("a"), inv(z)), parse_word("a"), 1),
        ("mem", parse_word("a b a b- a-"), {"a", "b"}, 100_000),
        ("mem", parse_word("c"), {"a", "b"}, 50),
    ]
    for _ in range(12):
        u = free_reduce(rng.choices(letters, k=6))
        conj = free_reduce(rng.choices(letters, k=2))
        rel = mul(parse_word("a b a"), inv(parse_word("b a b")))
        queries.append(("eq", u, mul(u, rel), 300))
        queries.append(("eq", mul(conj, u, inv(conj)), u, 200))
        queries.append(("mem", mul(conj, u, inv(conj)), {"a", "c"}, 40))
    return queries


def _answers(graph, queries):
    out = []
    for kind, first, second, budget in queries:
        if kind == "eq":
            out.append(word_equal(graph, first, second, budget))
        else:
            out.append(member_of_parabolic(graph, first, second, budget))
    return out


def test_verdicts_do_not_depend_on_warm_memos():
    from artinfix.presentation import validate_graph

    edges = [("a", "b", 3), ("a", "c", 3), ("b", "c", 3)]
    fresh = validate_graph(edges)
    queries = _oracle_queries(fresh)
    expected = _answers(fresh, queries)
    assert {v.status for v in expected} >= {"EQUAL", "UNKNOWN", "MEMBER"}
    assert any(v.expansions for v in expected)
    warm = validate_graph(edges)
    _answers(warm, queries[::-1])
    for w in _reduced_words(warm, 4):
        canonical_form(warm, w)
    assert _answers(warm, queries) == expected


# ---------------------------------------------------------------------------
# Rewrite-search successors against the whole-word reference loop.

SEARCH_GRAPHS = {
    "triangle": [("a", "b", 3), ("a", "c", 3), ("b", "c", 3)],
    "mixed334": [("a", "b", 4), ("a", "c", 3), ("b", "c", 3)],
    "path": [("a", "b", 3), ("b", "c", 3)],
}


def reference_successors(graph, state, max_len):
    """Every relator move from state in search order, each spliced word
    canonicalised whole; repeats and the state itself included."""
    from artinfix.oracle import _context

    patterns = _context(graph).patterns
    out = []
    n = len(state)
    for i in range(n):
        for u, v in patterns.get(state[i], ()):
            end = i + len(u)
            if end > n or n - len(u) + len(v) > max_len + 4:
                continue
            if state[i:end] != u:
                continue
            candidate = canonical_form(graph, state[:i] + v + state[end:])
            if len(candidate) <= max_len:
                out.append((candidate, (i, u, v)))
    return tuple(out)


def _first_occurrences(moves, state):
    out = {}
    for word, move in moves:
        if word != state:
            out.setdefault(word, move)
    return tuple(out.items())


@pytest.mark.parametrize("name", sorted(SEARCH_GRAPHS))
def test_successor_sets_match_reference(name):
    from artinfix.oracle import _context, _successors
    from artinfix.presentation import validate_graph

    graph = validate_graph(SEARCH_GRAPHS[name])
    ref_graph = validate_graph(SEARCH_GRAPHS[name])
    ctx = _context(graph)
    starts = {canonical_form(ref_graph, w) for w in _reduced_words(ref_graph, 5)}
    states = set(starts)
    for state in starts:
        if len(state) <= 4:  # and every state a search from it reaches in one move
            max_len = len(state) + 2 * _context(ref_graph).max_m
            states.update(w for w, _ in reference_successors(ref_graph, state, max_len))
    for state in sorted(states):
        for max_len in (len(state) + 2, len(state) + 6):
            want = _first_occurrences(reference_successors(ref_graph, state, max_len), state)
            assert _successors(ctx, state, max_len) == want, (state, max_len)


def _windowed_form(graph, state, word):
    """_settle of the reduced word through the window of the settled state,
    with the shared prefix and suffix found by comparison; memos cleared."""
    from artinfix.oracle import _context, _settle

    ctx = _context(graph)
    starts = []
    assert ctx.syllable_pass(state, marks=starts)[0] is state
    a = 0
    while a < min(len(state), len(word)) and state[a] == word[a]:
        a += 1
    t = 0
    while t < min(len(state), len(word)) - a and state[-1 - t] == word[-1 - t]:
        t += 1
    ctx.canonical.clear()
    return _settle(ctx, word, (state, starts, frozenset(starts)), a, t)


def _settled(graph, word):
    from artinfix.oracle import _context

    return free_reduce(word) == word and _context(graph).syllable_pass(word)[0] is word


@pytest.mark.parametrize("name", sorted(SEARCH_GRAPHS))
def test_windowed_neighbour_forms_match_whole_word(name):
    from artinfix.oracle import _context
    from artinfix.presentation import validate_graph

    graph = validate_graph(SEARCH_GRAPHS[name])
    patterns = _context(graph).patterns
    rng = random.Random(31)
    letters = [(v, s) for v in graph.vertices for s in (1, -1)]
    states = {canonical_form(graph, w) for w in _reduced_words(graph, 3)}
    states |= {canonical_form(graph, rng.choices(letters, k=14)) for _ in range(60)}
    checked = 0
    for state in sorted(states):
        if not _settled(graph, state):
            continue
        for i in range(len(state)):
            for u, v in patterns.get(state[i], ()):
                if state[i : i + len(u)] == u:
                    word = free_reduce(state[:i] + v + state[i + len(u) :])
                    got = _windowed_form(graph, state, word)
                    assert got == reference_canonical_form(graph, word), (state, i, u, v)
                    checked += 1
    assert checked > 1000


def test_windowed_form_keeps_the_pass_cap():
    # the pair of test_canonical_form_is_pure_after_the_pass_cap, reached as
    # splices of every settled word that deletes one segment of it
    from artinfix.oracle import _context
    from artinfix.presentation import validate_graph

    w = parse_word("b c- a b c a b c a b c a b c^2 b-")
    x = parse_word("b c- b- a b c a b c a b c a b^2 c")
    graph = validate_graph(SEARCH_GRAPHS["triangle"])
    windows = 0
    for word in (w, x):
        want = reference_canonical_form(graph, word)
        for a in range(len(word)):
            for b in range(a + 1, len(word) + 1):
                state = word[:a] + word[b:]
                if _settled(graph, state):
                    assert _windowed_form(graph, state, word) == want, (a, b)
                    # x is not a fixed point, so the cap leaves it unrecorded
                    assert word != w or x not in _context(graph).canonical
                    windows += 1
    assert windows > 20


def _search_queries(graph, rng):
    letters = [(v, s) for v in graph.vertices for s in (1, -1)]
    edges = graph.edge_list
    queries = []
    for _ in range(40):
        u = free_reduce(rng.choices(letters, k=rng.randint(3, 6)))
        conj = free_reduce(rng.choices(letters, k=2))
        s, t, m = rng.choice(edges)
        side = tuple(((s, t)[i % 2], 1) for i in range(m))
        other = tuple(((t, s)[i % 2], 1) for i in range(m))
        cut = rng.randint(0, len(u))
        rel = free_reduce(u[:cut] + side + inv(other) + u[cut:])
        queries.append(("eq", u, rel, 60))
        queries.append(("eq", mul(conj, u, inv(conj)), u, 15))
        queries.append(("mem", mul(conj, u, inv(conj)), {s, t}, 15))
    return queries


def test_search_verdicts_match_reference_successors(monkeypatch):
    from artinfix import oracle
    from artinfix.presentation import validate_graph

    rng = random.Random(37)
    counted = 0
    for name, edges in sorted(SEARCH_GRAPHS.items()):
        graph, ref_graph = validate_graph(edges), validate_graph(edges)
        queries = _search_queries(graph, rng)
        got = _answers(graph, queries)
        with monkeypatch.context() as patch:
            patch.setattr(
                oracle, "_successors",
                lambda ctx, state, max_len: reference_successors(ref_graph, state, max_len),
            )
            want = _answers(ref_graph, queries)
        assert got == want
        for (kind, first, second, _), verdict in zip(queries, got):
            if kind == "eq" and verdict.is_equal:
                assert replay(graph, verdict, first, second)
        counted += len(queries)
        assert any(v.expansions for v in got)
    assert counted >= 200
