"""Property tests of the exact two-generator backends, of automorphism algebra
and of the oracle's separating invariants on random large-type graphs.

Hypothesis runs derandomised with a bounded number of examples, so every run
checks the same cases.
"""

from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from artinfix import amalgam as am
from artinfix import hnn
from artinfix.dihedral import (
    brute_fixed,
    delta_word,
    dihedral_centralizer,
    dihedral_fix,
    edge_graph,
    nf_key,
    subgroup_ball,
)
from artinfix.oracle import _context, member_of_parabolic, word_equal
from artinfix.presentation import build_graph, graph_automorphisms, validate_graph
from artinfix.words import ArtinAutomorphism, free_reduce, inv, mul, power

MS = (3, 4, 5, 6, 7, 8, 10)
GRAPHS = {
    "triangle": validate_graph([("a", "b", 3), ("a", "c", 3), ("b", "c", 3)]),
    "mixed334": validate_graph([("a", "b", 4), ("a", "c", 3), ("b", "c", 3)]),
}


def bounded(max_examples):
    return settings(max_examples=max_examples, derandomize=True, database=None, deadline=None)


def words(names=("a", "b"), max_size=8):
    letter = st.tuples(st.sampled_from(names), st.sampled_from((1, -1)))
    return st.lists(letter, max_size=max_size).map(tuple)


def _tree_form(m, word):
    """The Britton form (even m) or the amalgam form (odd m), both canonical."""
    if m % 2 == 0:
        return hnn.bs_from_artin(m // 2, word, ("a", "b"))
    return am.am_from_artin(m, word, ("a", "b"))


@st.composite
def word_pairs(draw):
    """(m, u, v): v is u with a relator or a cancelling pair spliced in, or unrelated."""
    m = draw(st.sampled_from(MS))
    u = draw(words())
    how = draw(st.sampled_from(("relator", "cancel", "other")))
    if how == "other":
        return m, u, draw(words())
    if how == "relator":
        # the braid relation: (a b a ...) (b a b ...)^-1, m letters on each side
        insert = mul(delta_word(m), inv(delta_word(m, ("b", "a"))))
    else:
        x = draw(st.sampled_from(("a", "b")))
        insert = ((x, 1), (x, -1))
    cut = draw(st.integers(0, len(u)))
    return m, u, u[:cut] + insert + u[cut:]


@bounded(150)
@given(word_pairs())
def test_garside_equality_matches_tree_forms_and_oracle(case):
    m, u, v = case
    equal = nf_key(m, u) == nf_key(m, v)
    event(f"equal: {equal}")
    assert equal == (_tree_form(m, u) == _tree_form(m, v))
    verdict = word_equal(edge_graph(m), u, v)
    assert not verdict.is_unknown and verdict.is_equal == equal


@st.composite
def elements(draw):
    """(m, g): g a conjugate of a central, an elliptic or a random element."""
    m = draw(st.sampled_from(MS))
    core = draw(st.sampled_from(("delta", "ab", "random")))
    if core == "random":
        w = draw(words(max_size=6))
    else:
        # Delta is central for even m and elliptic for odd m, Delta^2 always central
        w = power(delta_word(m) if core == "delta" else (("a", 1), ("b", 1)), draw(st.integers(1, 2)))
    h = draw(words(max_size=3))
    g = free_reduce(h + w + inv(h))
    assume(g)
    return m, g


@bounded(20)
@given(elements())
def test_centralizer_generators_commute(case):
    m, g = case
    kind, gens, _, _ = dihedral_centralizer(m, g)
    event(kind)
    for z in gens:
        assert nf_key(m, mul(z, g)) == nf_key(m, mul(g, z))


@st.composite
def edge_automorphisms(draw):
    """(m, conj_g . sigma^d . iota^e) on one edge, |g| <= 4."""
    m = draw(st.sampled_from(MS))
    graph = edge_graph(m)
    perm = draw(st.sampled_from(graph_automorphisms(graph)))
    return m, ArtinAutomorphism(graph, free_reduce(draw(words(max_size=4))), perm, draw(st.booleans()))


@bounded(60)
@given(edge_automorphisms())
def test_dihedral_fix_is_exact_against_brute_force(case):
    m, aut = case
    rep = dihedral_fix(m, aut)
    event(rep.fix_class.tag)
    assert rep.exact
    brute = {nf_key(m, w) for w in brute_fixed(m, aut, 7)}
    whole = rep.fix_class.tag == "ARTIN"
    assert subgroup_ball(m, rep.generators, 7, whole_group=whole) == brute


@st.composite
def automorphisms(draw, graph):
    conj = free_reduce(draw(words(graph.vertices, max_size=4)))
    perm = draw(st.sampled_from(graph_automorphisms(graph)))
    return ArtinAutomorphism(graph, conj, perm, draw(st.booleans()))


@st.composite
def algebra_cases(draw):
    graph = GRAPHS[draw(st.sampled_from(sorted(GRAPHS)))]
    f, g = draw(automorphisms(graph)), draw(automorphisms(graph))
    return f, g, free_reduce(draw(words(graph.vertices))), draw(st.integers(-3, 3))


@bounded(80)
@given(algebra_cases())
def test_compose_inverse_iterate_match_direct_application(case):
    f, g, w, k = case
    assert f.compose(g)(w) == f(g(w))
    assert f.inverse()(f(w)) == w
    assert f(f.inverse()(w)) == w
    step, image = (f if k >= 0 else f.inverse()), w
    for _ in range(abs(k)):
        image = step(image)
    assert f.iterate(k)(w) == image


@st.composite
def large_type_graphs(draw):
    """Three to five vertices, each pair an edge with m in 3..10 or no edge."""
    names = ("a", "b", "c", "d", "e")[: draw(st.integers(3, 5))]
    edges = []
    for i, s in enumerate(names):
        for t in names[i + 1 :]:
            m = draw(st.sampled_from((3, 4, 5, 6, 7, 8, 9, 10, None)))
            if m is not None:
                edges.append((s, t, m))
    return build_graph(edges, extra_vertices=names)


@st.composite
def spliced(draw, graph, word):
    """word with conjugated braid relators or cancelling pairs spliced in,
    one after the other (a later splice may land inside an earlier one)."""
    for _ in range(draw(st.integers(1, 4))):
        how = draw(st.sampled_from(("relator", "cancel") if graph.edge_list else ("cancel",)))
        if how == "relator":
            s, t, m = draw(st.sampled_from(graph.edge_list))
            insert = mul(delta_word(m, (s, t)), inv(delta_word(m, (t, s))))
        else:
            x = draw(st.sampled_from(graph.vertices))
            insert = ((x, 1), (x, -1))
        g = draw(words(graph.vertices, max_size=5))
        cut = draw(st.integers(0, len(word)))
        word = word[:cut] + g + insert + inv(g) + word[cut:]
    return free_reduce(word)


@st.composite
def equal_pairs(draw, graph):
    """(u, v): two spellings of one element of A(graph).  u = x Delta_st y and
    v swaps in Delta_ts, a move the syllables of canonical_form need not line
    up with; then v gets relators or cancelling pairs spliced in."""
    x, y = draw(words(graph.vertices)), draw(words(graph.vertices))
    u = v = x + y
    if graph.edge_list:
        s, t, m = draw(st.sampled_from(graph.edge_list))
        u, v = x + delta_word(m, (s, t)) + y, x + delta_word(m, (t, s)) + y
    return free_reduce(u), draw(spliced(graph, v))


@st.composite
def respelled_words(draw):
    graph = draw(large_type_graphs())
    return (graph, *draw(equal_pairs(graph)))


@bounded(150)
@given(respelled_words())
def test_equal_words_are_never_separated(case):
    # NOT_EQUAL comes only from invariants (height, abelianization, the
    # Coxeter image), and none may separate two spellings of one element
    graph, u, v = case
    assert _context(graph).image(u) == _context(graph).image(v)
    verdict = word_equal(graph, u, v, budget=0)
    event(verdict.method)
    assert not verdict.is_not_equal, verdict


@st.composite
def parabolic_words(draw):
    """(graph, gens, w): w is a word h over gens with u v^-1 = 1 spliced in,
    for an equal pair (u, v); gens is an edge, or one vertex when the graph
    has none."""
    graph = draw(large_type_graphs())
    if graph.edge_list:
        gens = draw(st.sampled_from(graph.edge_list))[:2]
    else:
        gens = (draw(st.sampled_from(graph.vertices)),)
    h = draw(words(gens))
    u, v = draw(equal_pairs(graph))
    cut = draw(st.integers(0, len(h)))
    return graph, set(gens), free_reduce(h[:cut] + u + inv(v) + h[cut:])


@bounded(150)
@given(parabolic_words())
def test_parabolic_words_are_never_refuted(case):
    graph, gens, w = case
    # canonical_form settles most of these first, so check the image too
    assert _context(graph).image(w) in _context(graph).orbit(frozenset(gens))
    res = member_of_parabolic(graph, w, gens, budget=0)
    event(res.status)
    assert res.status != "NOT_MEMBER", res
