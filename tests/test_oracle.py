import random

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
    # deep equality question with no budget: honest UNKNOWN, no guess
    u = mul(parse_word("a b c a b c"), parse_word("a"), inv(parse_word("a b c a b c")))
    verdict = word_equal(triangle, u, parse_word("a"), budget=1)
    assert verdict.status in ("UNKNOWN", "EQUAL")


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
    assert res.status == "UNKNOWN"  # honestly undecided at this budget


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
    from artinfix.oracle import _dihedral_canonical

    word = free_reduce(word)
    for _ in range(6):
        out = []
        for names, run in _reference_syllables(graph, word):
            if len(names) == 2:
                pair = tuple(sorted(names))
                m = int(graph.coefficient(*pair))
                spelled = _dihedral_canonical(m, tuple((pair.index(n), sg) for n, sg in run))
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
