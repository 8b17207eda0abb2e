import random

import pytest

from artinfix import hnn
from artinfix.dihedral import (
    brute_fixed,
    convert,
    delta_word,
    dihedral_centralizer,
    dihedral_fix,
    edge_graph,
    garside_nf,
    is_finite_order,
    nf_key,
    outer_class,
    subgroup_ball,
    tree_fixed_set,
    tree_translation,
    words_equal,
)
from artinfix.presentation import GraphError
from artinfix.words import format_word, free_reduce, inv, mul, parse_automorphism, parse_word, power


def AUT(m, dsl):
    return parse_automorphism(edge_graph(m), dsl)


def test_garside_nf_interface():
    nf1 = garside_nf(3, parse_word("a b a"))
    nf2 = garside_nf(3, parse_word("b a b"))
    assert nf1.key == nf2.key
    assert nf1.power == 1 and nf1.factors == ()
    assert words_equal(4, mul(delta_word(4), parse_word("a")), mul(parse_word("a"), delta_word(4)))


def test_convert_examples():
    # artin -> hnn letters: ab maps to x, and back a = x t^-1
    assert convert(4, parse_word("a b"), "artin_to_bs") == parse_word("x")
    assert convert(4, parse_word("x t-"), "bs_to_artin") == parse_word("a")
    # odd torus knot form: ab maps to y
    assert convert(5, parse_word("a b"), "artin_to_torus") == parse_word("y")
    with pytest.raises(GraphError) as err:
        convert(5, parse_word("a"), "artin_to_bs")
    assert err.value.code == "PARITY_MISMATCH"


def test_convert_roundtrip_random():
    rng = random.Random(9)
    letters = [(x, s) for x in "ab" for s in (1, -1)]
    for m, there, back in ((4, "artin_to_bs", "bs_to_artin"), (5, "artin_to_torus", "torus_to_artin")):
        for _ in range(40):
            w = tuple(rng.choices(letters, k=6))
            round_trip = convert(m, convert(m, w, there), back)
            assert words_equal(m, w, round_trip)


def test_outer_classes():
    m = 4
    iota = outer_class(m, AUT(m, "invert"))
    assert iota.tag == "AB" and iota.inner == hnn.bs_from_tokens(2, [("t", 1)])
    sig = outer_class(m, AUT(m, "graph a>b b>a"))
    assert sig.tag == "BG" and sig.inner == hnn.bs_from_tokens(2, [("t", 1)])
    si = outer_class(m, AUT(m, "graph a>b b>a ; invert"))
    assert si.tag == "AG" and si.inner == hnn.BS_IDENTITY
    inner_only = outer_class(m, AUT(m, "conj a b"))
    assert inner_only.tag == "ID" and inner_only.inner == (1, ())


def test_is_finite_order():
    assert is_finite_order(4, AUT(4, "graph a>b b>a"))  # involution
    assert is_finite_order(4, AUT(4, "conj a b"))  # conj by x, power is central
    assert not is_finite_order(4, AUT(4, "conj b"))  # conj by t translates
    assert not is_finite_order(4, AUT(4, "conj a b ; invert"))
    assert is_finite_order(3, AUT(3, "graph a>b b>a ; invert"))
    assert not is_finite_order(3, AUT(3, "conj a"))


def test_centralizer_cases_even():
    # central: whole group
    tag, gens, exact, _ = dihedral_centralizer(4, parse_word("a b a b"))
    assert tag == "CENTRAL" and exact
    # elliptic: the vertex stabiliser <ab>
    tag, gens, exact, _ = dihedral_centralizer(4, parse_word("a b"))
    assert tag == "ELLIPTIC_Z" and exact
    assert words_equal(4, gens[0], parse_word("a b"))
    # hyperbolic: <t> x <x^n>
    tag, gens, exact, _ = dihedral_centralizer(4, parse_word("b"))
    assert tag == "HYPERBOLIC_Z2" and exact
    assert words_equal(4, gens[0], parse_word("b")) or words_equal(
        4, gens[0], parse_word("b-")
    )
    assert words_equal(4, gens[1], delta_word(4))


def _central(m, w):
    return all(nf_key(m, mul(w, x)) == nf_key(m, mul(x, w)) for x in (parse_word("a"), parse_word("b")))


@pytest.mark.parametrize(
    "m, root, k", [(3, "a^5 b^-5", 2), (4, "a^4 b^-4", 2), (5, "a^3 b- a- b^-3", 3), (6, "b^5 a-", 2)]
)
def test_centralizer_axis_is_a_root(m, root, k):
    # w = r^k with r longer than any small ball reaches: the axis generator is
    # a root of w, so w axis^(-+l) is central for l = l(w)/l(axis), a multiple of k
    w = power(parse_word(root), k)
    tag, (axis, _), exact, _ = dihedral_centralizer(m, w)
    assert tag == "HYPERBOLIC_Z2" and exact
    ell, rest = divmod(tree_translation(m, w), tree_translation(m, axis))
    assert rest == 0 and ell % k == 0
    assert _central(m, mul(w, power(axis, -ell))) or _central(m, mul(w, power(axis, ell)))


def test_centralizer_axis_divides_random_hyperbolic_elements():
    rng = random.Random(16)
    letters = [(x, s) for x in "ab" for s in (1, -1)]
    for m in (3, 4, 5, 6, 7, 8, 10):
        for _ in range(12):
            w = free_reduce(tuple(rng.choices(letters, k=rng.randint(1, 9))))
            if not w or tree_translation(m, w) == 0:
                continue
            _, (axis, _), _, _ = dihedral_centralizer(m, w)
            ell, rest = divmod(tree_translation(m, w), tree_translation(m, axis))
            assert rest == 0
            assert _central(m, mul(w, power(axis, -ell))) or _central(m, mul(w, power(axis, ell)))


def test_centralizer_cases_odd():
    tag, gens, exact, _ = dihedral_centralizer(3, mul(delta_word(3), delta_word(3)))
    assert tag == "CENTRAL"
    tag, gens, exact, _ = dihedral_centralizer(3, parse_word("a b"))
    assert tag == "ELLIPTIC_Z" and words_equal(3, gens[0], parse_word("a b"))
    tag, gens, exact, _ = dihedral_centralizer(3, parse_word("a"))
    assert tag == "HYPERBOLIC_Z2" and exact


def test_fix_even_closed_forms():
    # the graph swap fixes exactly the Garside element's powers
    rep = dihedral_fix(4, AUT(4, "graph a>b b>a"))
    assert rep.fix_class.tag == "Z" and rep.exact
    assert nf_key(4, rep.generators[0]) in (
        nf_key(4, delta_word(4)),
        nf_key(4, inv(delta_word(4))),
    )
    # swap-and-invert: the commutator-shaped generator, n even
    rep = dihedral_fix(4, AUT(4, "graph a>b b>a ; invert"))
    expected = mul(parse_word("a b"), inv(parse_word("b a")))
    assert rep.fix_class.tag == "Z" and rep.exact
    assert nf_key(4, rep.generators[0]) in (
        nf_key(4, expected),
        nf_key(4, inv(expected)),
    )
    # n odd variant
    rep = dihedral_fix(6, AUT(6, "graph a>b b>a ; invert"))
    expected = mul(parse_word("b"), parse_word("a b"), inv(parse_word("b a")), parse_word("a-"))
    assert nf_key(6, rep.generators[0]) in (
        nf_key(6, expected),
        nf_key(6, inv(expected)),
    )


def test_fix_odd_closed_forms():
    rep = dihedral_fix(5, AUT(5, f"conj {format_word(delta_word(5))}"))
    assert rep.fix_class.tag == "Z" and rep.exact
    assert nf_key(5, rep.generators[0]) in (
        nf_key(5, delta_word(5)),
        nf_key(5, inv(delta_word(5))),
    )
    rep = dihedral_fix(3, AUT(3, "invert"))
    assert rep.fix_class.tag == "TRIVIAL" and rep.generators == ()
    rep = dihedral_fix(3, AUT(3, "graph a>b b>a ; invert"))
    assert rep.fix_class.tag == "TRIVIAL"


def test_fix_inner_infinite_order():
    rep = dihedral_fix(4, AUT(4, "conj a b ; invert"))
    assert rep.fix_class.tag == "Z"
    z0 = mul(parse_word("a b"), parse_word("a- b-"))  # g iota(g), letterwise inversion
    key = nf_key(4, rep.generators[0])
    assert key in (nf_key(4, z0), nf_key(4, inv(z0)))
    assert rep.exact


def test_fix_identity_like():
    rep = dihedral_fix(4, AUT(4, f"conj {format_word(delta_word(4))}"))
    assert rep.fix_class.tag == "ARTIN"  # Delta is central for even m
    assert len(rep.generators) == 2


def test_all_reports_certified():
    for m in (3, 4, 5, 6):
        for dsl in (
            "graph a>b b>a",
            "invert",
            "conj a",
            "conj a ; graph a>b b>a ; invert",
            "conj a b ; graph a>b b>a ; invert",
        ):
            rep = dihedral_fix(m, AUT(m, dsl))
            assert rep.confidence == "PROVEN"
            for cert in rep.certificates:
                assert cert.status == "EQUAL"


def test_sandwich_generators_commute_with_twisted_product():
    # every generator commutes with g psi(g) when the class is infinite order
    for m, dsl in ((4, "conj a b ; invert"), (6, "conj a ; graph a>b b>a ; invert")):
        aut = AUT(m, dsl)
        rep = dihedral_fix(m, aut)
        z0 = mul(aut.conj, aut.graph_part(aut.conj))
        for w in rep.generators:
            assert words_equal(m, mul(w, z0), mul(z0, w))


def test_tree_fixed_sets():
    # identity fixes the whole ball
    fs = tree_fixed_set(2, AUT(4, ""), radius=2)
    order, _ = hnn.tree_ball(2, 2)
    assert set(fs.vertices) == set(order)
    # the swap fixes only a midpoint
    fs = tree_fixed_set(2, AUT(4, "graph a>b b>a"), radius=3)
    assert not fs.vertices and len(fs.midpoints) == 1
    # swap-and-invert fixes an axis, no midpoints
    fs = tree_fixed_set(2, AUT(4, "graph a>b b>a ; invert"), radius=4)
    assert fs.vertices and not fs.midpoints


def test_tree_compatibility_inner_acts_like_element():
    # conj_g moves the base vertex the same way g does
    n = 2
    for g_txt in ("a", "b", "a b", "b a-"):
        aut = AUT(4, f"conj {g_txt}")
        cls = outer_class(4, aut)
        tree = cls.tree(n)
        g = hnn.bs_from_artin(n, parse_word(g_txt), ("a", "b"))
        base = hnn.vertex_key(n, hnn.BS_IDENTITY)
        assert tree.vertex_image(base) == hnn.vertex_key(n, g)


def test_orientation_classes():
    n = 2
    base_edge = hnn.BS_IDENTITY
    for dsl, reverses in (
        ("conj a b", False),
        ("graph a>b b>a ; invert", False),
        ("invert", True),
        ("graph a>b b>a", True),
    ):
        cls = outer_class(4, AUT(4, dsl))
        assert cls.tree(n).reverses == reverses


def test_brute_fixed_examples():
    # the inversion fixes nothing in an odd dihedral
    assert brute_fixed(3, AUT(3, "invert"), 6) == [()]
    # the identity fixes the whole ball
    ball = brute_fixed(3, AUT(3, ""), 3)
    from artinfix.garside import engine

    assert len(ball) == len(engine(3).ball(3))
    # swap-and-invert at m=4: exactly the ball of the commutator subgroup
    aut = AUT(4, "graph a>b b>a ; invert")
    fixed = brute_fixed(4, aut, 6)
    rep = dihedral_fix(4, aut)
    expected = subgroup_ball(4, rep.generators, 6)
    assert {nf_key(4, w) for w in fixed} == expected


def test_alpha_gamma_axis_odd_residual_power():
    # n = 3 and k odd: the axis generator sits on the finite-order AG branch
    aut = AUT(6, "conj a b ; graph a>b b>a ; invert")
    rep = dihedral_fix(6, aut)
    assert rep.fix_class.tag == "Z" and rep.confidence == "PROVEN"
    fixed = {nf_key(6, w) for w in brute_fixed(6, aut, 6)}
    assert fixed == subgroup_ball(6, rep.generators, 6)


def test_translation_lengths():
    assert tree_translation(4, parse_word("b")) == 1
    assert tree_translation(4, parse_word("a b")) == 0
    assert tree_translation(3, parse_word("a")) == 2
    assert tree_translation(3, parse_word("a b")) == 0


def test_noninducible_automorphism_documentation():
    """Outside the tree-compatible subgroup, fixed subgroups can degenerate.

    The map a -> (ab)^-n a, b -> b (ab)^n on the coefficient-2n group is an
    automorphism whose fixed subgroup is the kernel of a -> -1, b -> 1, which
    is not finitely generated.  This machinery never classifies it; here we
    only confirm that sample kernel elements are indeed fixed.
    """
    n = 2
    m = 2 * n
    ab = parse_word("a b")
    images = {
        ("a", 1): mul(power(inv(ab), n), parse_word("a")),
        ("b", 1): mul(parse_word("b"), power(ab, n)),
    }
    images[("a", -1)] = inv(images[("a", 1)])
    images[("b", -1)] = inv(images[("b", 1)])

    def gamma(word):
        out = ()
        for letter in word:
            out = mul(out, images[letter])
        return out

    def skew_height(word):
        return sum(-s if name == "a" else s for name, s in word)

    samples = [
        parse_word("a b"),
        parse_word("b a"),
        parse_word("a b a b"),
        mul(parse_word("a b"), inv(parse_word("b a"))),
        parse_word("a a b b"),
    ]
    for w in samples:
        assert skew_height(w) == 0
        assert words_equal(m, gamma(w), w)
    # and a non-kernel element moves
    assert not words_equal(m, gamma(parse_word("a")), parse_word("a"))


def test_normal_form_matches_oracle_on_word_pairs():
    """Garside equality and the word oracle agree on sampled short pairs."""
    from artinfix.oracle import word_equal

    rng = random.Random(51)
    for m in (3, 4, 5, 6):
        graph = edge_graph(m)
        letters = [(x, s) for x in "ab" for s in (1, -1)]
        words = [
            tuple(rng.choices(letters, k=rng.randint(0, 6))) for _ in range(40)
        ]
        for i in range(0, len(words), 3):
            for j in range(0, len(words), 5):
                u, v = words[i], words[j]
                verdict = word_equal(graph, u, v)
                assert not verdict.is_unknown
                assert verdict.is_equal == (nf_key(m, u) == nf_key(m, v))


def _scanned_tree_fixed_set(n, aut, radius):
    """Fixed vertices and inverted midpoints by scanning the whole radius ball."""
    tree = outer_class(2 * n, aut).tree(n)
    order, _ = hnn.tree_ball(n, radius)
    fixed = {key for key in order if tree.vertex_image(key) == key}
    midpoints = set()
    for key in order:
        rep = hnn.vertex_rep(n, key)
        for i in range(n):
            g = hnn.bs_mul(n, rep, hnn.bs_from_tokens(n, [("x", i)]))
            ekey = hnn.edge_key(n, g)
            if tree.edge_image(g) != ekey:
                continue
            top = hnn.vertex_key(n, hnn.bs_mul(n, g, hnn.bs_from_tokens(n, [("t", 1)])))
            bottom = hnn.vertex_key(n, g)
            if tree.vertex_image(bottom) == top and tree.vertex_image(top) == bottom:
                midpoints.add(ekey)
    return fixed, midpoints


def test_grown_tree_fixed_set_matches_ball_scan():
    from artinfix.words import free_reduce

    rng = random.Random(23)
    kinds = {"whole": 0, "axis": 0, "midpoint": 0, "empty": 0}
    for n in (2, 3, 4):
        m = 2 * n
        delta = format_word(delta_word(m))
        dsls = [
            "", f"conj {delta}", "graph a>b b>a", "invert", "graph a>b b>a ; invert",
            "conj a", "conj a b", "conj a b ; invert", "conj a ; graph a>b b>a",
            "conj a ; graph a>b b>a ; invert", "conj a b- a b",
        ]
        letters = [(x, s) for x in "ab" for s in (1, -1)]
        for _ in range(12):
            w = format_word(free_reduce(rng.choices(letters, k=rng.randint(1, 5))))
            parts = [f"conj {w}"] if w else []
            parts += ["graph a>b b>a"] if rng.random() < 0.5 else []
            parts += ["invert"] if rng.random() < 0.5 else []
            dsls.append(" ; ".join(parts))
        # hyperbolic with even displacement d = 10: no midpoint can be inverted
        dsls += ["conj b^10"] if n == 3 else []
        for dsl in dsls:
            aut = AUT(m, dsl)
            # the reference scan of a radius-5 ball takes 0.5 s a case for
            # n = 3 and 3-5 s for n = 4, so those radii see fewer cases
            wide = n == 2 or (n == 3 and dsl in ("", "graph a>b b>a", "conj a b- a b", "conj b^10"))
            for radius in (0, 1, 3) + ((5,) if wide else ()):
                fs = tree_fixed_set(n, aut, radius)
                assert (set(fs.vertices), set(fs.midpoints)) == _scanned_tree_fixed_set(
                    n, aut, radius
                ), (n, dsl, radius)
                if radius == 3:
                    order, _ = hnn.tree_ball(n, radius)
                    kind = (
                        "whole" if len(fs.vertices) == len(order)
                        else "axis" if fs.vertices
                        else "midpoint" if fs.midpoints
                        else "empty"
                    )
                    kinds[kind] += 1
    # identity and central conjugation, midpoint-only and hyperbolic cases all occur
    assert all(kinds.values()), kinds


def test_folded_brute_fixed_matches_per_word_images():
    from artinfix.garside import engine

    def reference(m, aut, length):
        eng = engine(m)
        out = []
        for elt, word_idx in eng.ball(length).items():
            word = tuple(("ab"[i], s) for i, s in word_idx)
            image = aut(word)
            if eng.from_letters([("ab".index(x), s) for x, s in image]) == elt:
                out.append((len(word_idx), word_idx, word))
        return [w for _, _, w in sorted(out)]

    for m in (3, 4, 5, 6):
        delta = format_word(delta_word(m))
        for dsl in ("", "invert", f"conj {delta}", "conj a b ; invert",
                    "conj a ; graph a>b b>a ; invert", "conj b- a b a ; graph a>b b>a"):
            aut = AUT(m, dsl)
            assert brute_fixed(m, aut, 6) == reference(m, aut, 6), (m, dsl)


def test_commuting_pair_subgroup_ball_matches_double_power_loop():
    from artinfix.garside import engine

    for m, gens in (
        (4, ("a b", "a b a b")),
        (4, ("b", "a b a b")),
        (5, ("a b a b a b a b a b", "a b")),
        (6, ("a b a b a b", "b a b- a-")),
    ):
        eng = engine(m)
        words = tuple(parse_word(g) for g in gens)
        keys = [nf_key(m, w) for w in words]
        assert eng.mul(keys[0], keys[1]) == eng.mul(keys[1], keys[0])
        ball = eng.ball(6)
        expected = {
            key
            for i in range(-24, 25)
            for j in range(-24, 25)
            if (key := eng.mul(eng.pow(keys[0], i), eng.pow(keys[1], j))) in ball
        }
        assert subgroup_ball(m, words, 6) == expected, (m, gens)


def test_off_edge_letter_is_a_coded_error():
    c = parse_word("c")
    calls = (
        lambda: convert(4, c, "artin_to_bs"),
        lambda: convert(5, c, "artin_to_torus"),
        lambda: dihedral_centralizer(4, c),
        lambda: tree_translation(5, c),
    )
    for call in calls:
        with pytest.raises(GraphError) as info:
            call()
        assert info.value.code == "UNKNOWN_GENERATOR"
