import random

from artinfix import amalgam as am
from artinfix import hnn
from artinfix.words import free_reduce, parse_word


def _rand_tokens(rng, length):
    out = []
    for _ in range(length):
        if rng.random() < 0.5:
            out.append(("x", rng.randint(-3, 3)))
        else:
            out.append(("t", rng.choice((1, -1))))
    return out


def test_britton_relation():
    assert hnn.bs_from_tokens(2, [("t", 1), ("x", 2), ("t", -1)]) == (2, ())
    # exponent not divisible by n stays pinch free
    assert hnn.bs_from_tokens(2, [("t", 1), ("x", 1), ("t", -1)]) == (
        0,
        ((1, 1), (-1, 0)),
    )


def test_britton_pushes_central_left():
    # x^3 t x t x^-3 = t x t after the centre commutes across both letters
    elt = hnn.bs_from_tokens(3, [("x", 3), ("t", 1), ("x", 1), ("t", 1), ("x", -3)])
    assert elt == (0, ((1, 1), (1, 0)))


def test_bs_group_axioms():
    rng = random.Random(4)
    for n in (2, 3):
        for _ in range(80):
            a = hnn.bs_from_tokens(n, _rand_tokens(rng, 6))
            b = hnn.bs_from_tokens(n, _rand_tokens(rng, 6))
            assert hnn.bs_mul(n, a, hnn.bs_inv(n, a)) == hnn.BS_IDENTITY
            assert hnn.bs_mul(n, hnn.bs_mul(n, a, b), hnn.bs_inv(n, b)) == a


def test_artin_conversions_even():
    names = ("a", "b")
    # x = ab and t = b; a = x t^-1
    assert hnn.bs_from_artin(2, parse_word("a b"), names) == (1, ())
    assert hnn.bs_from_artin(2, parse_word("b"), names) == (0, ((1, 0),))
    assert hnn.bs_from_artin(2, parse_word("a"), names) == hnn.bs_from_tokens(
        2, [("x", 1), ("t", -1)]
    )
    rng = random.Random(5)
    letters = [(x, s) for x in "ab" for s in (1, -1)]
    for _ in range(80):
        w = free_reduce(rng.choices(letters, k=8))
        elt = hnn.bs_from_artin(2, w, names)
        back = hnn.bs_to_artin(2, elt, names)
        assert hnn.bs_from_artin(2, back, names) == elt


def test_ellipticity_and_translation():
    # x fixes the base vertex, t translates by 1, central powers act trivially
    assert hnn.bs_is_elliptic(2, (1, ()))
    assert hnn.bs_is_central(2, (2, ()))
    t = hnn.bs_from_tokens(2, [("t", 1)])
    assert not hnn.bs_is_elliptic(2, t)
    assert hnn.bs_translation_length(2, t) == 1
    a = hnn.bs_from_artin(2, parse_word("a"), ("a", "b"))
    assert hnn.bs_translation_length(2, a) == 1
    # t x^2 acts like t up to the centre
    assert hnn.bs_translation_length(2, hnn.bs_from_tokens(2, [("t", 1), ("x", 2)])) == 1


def test_elliptic_data_extracts_conjugator():
    rng = random.Random(6)
    for n in (2, 3):
        for _ in range(40):
            h = hnn.bs_from_tokens(n, _rand_tokens(rng, 4))
            j = rng.randint(-4, 4)
            w = hnn.bs_mul(n, h, (j, ()), hnn.bs_inv(n, h))
            data = hnn.bs_elliptic_data(n, w)
            assert data is not None
            conj, e = data
            assert hnn.bs_mul(n, conj, (e, ()), hnn.bs_inv(n, conj)) == w


def test_vertex_keys_identify_cosets():
    n = 2
    t = [("t", 1)]
    # t x^n <x> = x^n t <x> = t <x>
    k1 = hnn.vertex_key(n, hnn.bs_from_tokens(n, t + [("x", 2)]))
    k2 = hnn.vertex_key(n, hnn.bs_from_tokens(n, [("x", 2)] + t))
    k3 = hnn.vertex_key(n, hnn.bs_from_tokens(n, t))
    assert k1 == k2 == k3
    # x t <x> is a different vertex
    assert hnn.vertex_key(n, hnn.bs_from_tokens(n, [("x", 1)] + t)) != k3


def test_tree_ball_regular():
    order, dist = hnn.tree_ball(2, 2)
    # 2n-regular: 1 + 4 + 4*3
    assert len(order) == 1 + 4 + 12
    assert max(dist.values()) == 2


def test_amalgam_normal_form():
    m = 3
    assert am.am_from_artin(m, parse_word("a b a b a b"), ("a", "b")) == (1, ())
    assert am.am_from_artin(m, parse_word("a b a"), ("a", "b")) == (0, (("x", 1),))


def test_amalgam_axioms_and_roundtrip():
    rng = random.Random(7)
    for m in (3, 5):
        letters = [(x, s) for x in "ab" for s in (1, -1)]
        for _ in range(80):
            w = free_reduce(rng.choices(letters, k=8))
            e = am.am_from_artin(m, w, ("a", "b"))
            back = am.am_to_artin(m, e, ("a", "b"))
            assert am.am_from_artin(m, back, ("a", "b")) == e
            assert am.am_mul(m, e, am.am_inv(m, e)) == am.AM_IDENTITY


def test_amalgam_geometry():
    m = 3
    a = am.am_from_artin(m, parse_word("a"), ("a", "b"))
    ab = am.am_from_artin(m, parse_word("a b"), ("a", "b"))
    delta = am.am_from_artin(m, parse_word("a b a"), ("a", "b"))
    assert not am.am_is_elliptic(m, a)
    assert am.am_translation_length(m, a) == 2
    assert am.am_is_elliptic(m, ab)
    assert am.am_elliptic_data(m, ab)[1] == "y"
    assert am.am_elliptic_data(m, delta)[1] == "x"


def test_amalgam_conjugator_extraction():
    rng = random.Random(8)
    m = 5
    for _ in range(40):
        toks = [(rng.choice("xy"), rng.randint(-3, 3)) for _ in range(4)]
        h = am.am_from_tokens(m, toks)
        core = am.am_from_tokens(m, [("y", rng.randint(1, m - 1))])
        w = am.am_mul(m, h, core, am.am_inv(m, h))
        data = am.am_elliptic_data(m, w)
        assert data is not None
        conj, kind, found = data
        assert kind == "y"
        assert am.am_mul(m, conj, found, am.am_inv(m, conj)) == w


def test_vertex_and_edge_keys_randomized():
    # keys agree exactly when the coset difference lies in the local group
    rng = random.Random(9)
    for n in (2, 3):
        for _ in range(120):
            g1 = hnn.bs_from_tokens(n, _rand_tokens(rng, 5))
            g2 = hnn.bs_from_tokens(n, _rand_tokens(rng, 5))
            diff = hnn.bs_mul(n, hnn.bs_inv(n, g1), g2)
            same_vertex = not diff[1]
            assert (hnn.vertex_key(n, g1) == hnn.vertex_key(n, g2)) == same_vertex
            same_edge = not diff[1] and diff[0] % n == 0
            assert (hnn.edge_key(n, g1) == hnn.edge_key(n, g2)) == same_edge


def test_vertex_rep_is_in_its_coset():
    rng = random.Random(10)
    for n in (2, 3):
        for _ in range(60):
            g = hnn.bs_from_tokens(n, _rand_tokens(rng, 6))
            key = hnn.vertex_key(n, g)
            rep = hnn.vertex_rep(n, key)
            diff = hnn.bs_mul(n, hnn.bs_inv(n, g), rep)
            assert not diff[1]  # rep differs from g by an <x>-power


def _bs_pow_reference(n, element, k):
    """Powers by repeated bs_mul, each step re-tokenising the accumulator."""
    if k < 0:
        element, k = hnn.bs_inv(n, element), -k
    out = hnn.BS_IDENTITY
    for _ in range(k):
        out = hnn.bs_mul(n, out, element)
    return out


def _apply_reference(aut, element):
    """BSAut.apply by repeated bs_mul of the raised generator images."""
    out = hnn.BS_IDENTITY
    for kind, val in hnn.bs_tokens(element):
        img = aut.x_img if kind == "x" else aut.t_img
        out = hnn.bs_mul(aut.n, out, _bs_pow_reference(aut.n, img, val))
    return out


def test_linear_fold_matches_repeated_multiplication():
    rng = random.Random(12)
    for n in (2, 3, 4):
        for _ in range(50):
            a = hnn.bs_from_tokens(n, _rand_tokens(rng, 8))
            for k in (-4, -1, 0, 1, 2, 5):
                assert hnn.bs_pow(n, a, k) == _bs_pow_reference(n, a, k)
            w = hnn.bs_from_tokens(n, _rand_tokens(rng, 4))
            auts = [
                hnn.bs_inner_psi(n, w, tag) for tag in ("ID", "AB", "BG", "AG")
            ] + [hnn.BSAut(n, w, hnn.bs_from_tokens(n, _rand_tokens(rng, 3)))]
            for aut in auts:
                assert aut.apply(a) == _apply_reference(aut, a)
            assert auts[0].apply(hnn.BS_IDENTITY) == hnn.BS_IDENTITY
