"""Property tests of the exact two-generator backends and of automorphism algebra.

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
from artinfix.oracle import word_equal
from artinfix.presentation import graph_automorphisms, validate_graph
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
