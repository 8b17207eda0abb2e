import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from artinfix.garside import IDENTITY, DihedralEngine, _alt, engine
from artinfix.presentation import GraphError


def _rand_letters(rng, length):
    return [(rng.randint(0, 1), rng.choice((1, -1))) for _ in range(length)]


def _inverse(letters):
    return [(x, -s) for x, s in reversed(letters)]


class ReferenceEngine(DihedralEngine):
    """The engine with products by whole rescans: every pass walks the factor
    list from index 0 until no adjacent pair merges, and Deltas bubble to the
    front one swap at a time.  Slow, but each step is a local rewrite."""

    def right_complement(self, s):
        start, length = s
        return (_alt(start, length), self.m - length)

    def tau_simple(self, s, e=1):
        """Conjugation by D^e: identity for even m, generator swap for odd."""
        if self.m % 2 == 0 or e % 2 == 0:
            return s
        return (1 - s[0], s[1])

    def _normalize_factors(self, factors):
        fs = [f for f in factors if f[1] > 0]
        changed = True
        while changed:
            changed = False
            i = 0
            while i < len(fs) - 1:
                u, v = fs[i], fs[i + 1]
                if u[1] == self.m:  # Delta passes left of nothing; skip
                    i += 1
                    continue
                if v[1] == self.m:  # move Delta leftwards past u
                    fs[i], fs[i + 1] = v, self.tau_simple(u)
                    changed = True
                    i = max(i - 1, 0)
                    continue
                rc = self.right_complement(u)
                if rc[0] == v[0]:
                    d = min(rc[1], v[1])
                    fs[i] = (u[0], u[1] + d)
                    if v[1] - d == 0:
                        del fs[i + 1]
                    else:
                        fs[i + 1] = (_alt(v[0], d), v[1] - d)
                    changed = True
                    i = max(i - 1, 0)
                else:
                    i += 1
        p = 0
        while fs and fs[0][1] == self.m:
            fs.pop(0)
            p += 1
        return (p, tuple(fs))

    def from_letters(self, letters):
        power = 0
        factors = []
        for letter, sign in letters:
            if sign > 0:
                factors.append((letter, 1))
            else:
                # letter^-1 = D^-1 . (left complement of the letter), and the
                # D^-1 commutes leftwards past the factors built so far.
                power -= 1
                factors = [self.tau_simple(f) for f in factors]
                factors.append(self.left_complement((letter, 1)))
        p, fs = self._normalize_factors(factors)
        return (power + p, fs)

    def mul(self, a, b):
        pa, fa = a
        pb, fb = b
        twisted = [self.tau_simple(f, pb) for f in fa]
        p, fs = self._normalize_factors(twisted + list(fb))
        return (pa + pb + p, fs)

    def inv(self, a):
        p, fs = a
        out = IDENTITY
        for f in reversed(fs):
            out = self.mul(out, (-1, (self.left_complement(f),)))
        return self.mul(out, (-p, ()))

    def _first_simple(self, a):
        p, fs = a
        if p > 0:
            return (0, self.m)
        if fs:
            return fs[0]
        return None

    def _gcd_simple(self, u, v):
        if u[1] == self.m:
            return v
        if v[1] == self.m:
            return u
        if u[0] != v[0]:
            return None
        return (u[0], min(u[1], v[1]))

    def left_fraction(self, a):
        """Cancel the greatest common simple of A = D^-p and B one at a time."""
        p, fs = a
        if p >= 0:
            return IDENTITY, a
        num = (-p, ())
        den = (0, fs)
        while True:
            fa, fb = self._first_simple(num), self._first_simple(den)
            if fa is None or fb is None:
                break
            d = self._gcd_simple(fa, fb)
            if d is None:
                break
            dinv = self.inv((0, (d,)))
            num = self.mul(dinv, num)
            den = self.mul(dinv, den)
        return num, den

    def spell(self, a):
        """Both fractions spelled for every element, the shorter kept."""
        left = self.spell_left(a)
        rev = self.from_letters((x, s) for x, s in reversed(left))
        right = [(x, s) for x, s in reversed(self.spell_left(rev))]
        if len(right) < len(left):
            return right
        return left


def test_braid_relation_m3():
    eng = engine(3)
    assert eng.from_letters([(0, 1), (1, 1), (0, 1)]) == eng.from_letters(
        [(1, 1), (0, 1), (1, 1)]
    )


def test_delta_central_even():
    eng = engine(4)
    delta = eng.from_letters([(0, 1), (1, 1)] * 2)
    rng = random.Random(0)
    for _ in range(50):
        w = eng.from_letters(_rand_letters(rng, 6))
        assert eng.mul(delta, w) == eng.mul(w, delta)


def test_delta_squared_central_odd():
    eng = engine(5)
    delta = eng.from_letters([(0, 1), (1, 1), (0, 1), (1, 1), (0, 1)])
    centre = eng.mul(delta, delta)
    rng = random.Random(1)
    seen_noncentral = False
    for _ in range(50):
        w = eng.from_letters(_rand_letters(rng, 6))
        assert eng.mul(centre, w) == eng.mul(w, centre)
        if eng.mul(delta, w) != eng.mul(w, delta):
            seen_noncentral = True
    assert seen_noncentral  # Delta itself is not central for odd m


def test_group_axioms_randomized():
    rng = random.Random(2)
    for m in (3, 4, 5, 6):
        eng = engine(m)
        for _ in range(60):
            a = eng.from_letters(_rand_letters(rng, 6))
            b = eng.from_letters(_rand_letters(rng, 6))
            c = eng.from_letters(_rand_letters(rng, 6))
            assert eng.mul(eng.mul(a, b), c) == eng.mul(a, eng.mul(b, c))
            assert eng.mul(a, eng.inv(a)) == IDENTITY


def test_spelling_roundtrip():
    rng = random.Random(3)
    for m in (3, 4, 5, 6, 8, 10):
        eng = engine(m)
        for _ in range(150):
            elt = eng.from_letters(_rand_letters(rng, rng.randint(0, 10)))
            assert eng.from_letters(eng.spell(elt)) == elt


def test_normal_form_is_complete_on_small_ball():
    # every pair of short words: same element iff same normal form; the ball
    # construction dedupes by normal form, so counting plus spot equalities
    # cross-validate completeness
    for m in (3, 4):
        eng = engine(m)
        ball = eng.ball(4)
        words = list(ball.values())
        keys = list(ball)
        for i in range(0, len(keys), 7):
            for j in range(0, len(keys), 11):
                same = keys[i] == keys[j]
                assert same == (
                    eng.mul(keys[i], eng.inv(keys[j])) == IDENTITY
                )
        assert len(set(keys)) == len(words)


def test_ball_layers_are_geodesic():
    for m in (3, 5):
        eng = engine(m)
        b3, b4 = eng.ball(3), eng.ball(4)
        assert set(b3) <= set(b4)
        for elt, word in b4.items():
            assert len(word) <= 4
            if elt in b3:
                assert len(b3[elt]) <= 3


def test_power_and_inverse():
    eng = engine(4)
    x = eng.from_letters([(0, 1), (1, 1)])
    assert eng.pow(x, 3) == eng.mul(eng.mul(x, x), x)
    assert eng.pow(x, -2) == eng.inv(eng.mul(x, x))


def test_positive_letters_rejects_negative_power():
    eng = engine(3)
    with pytest.raises(ValueError):
        eng.positive_letters(eng.from_letters([(0, -1)]))


# ---------------------------------------------------------------------------
# The junction step against the reference rescans.

MS = (3, 4, 5, 6, 7, 8, 10)
letter_words = st.lists(st.tuples(st.integers(0, 1), st.sampled_from((1, -1))), max_size=12)


@st.composite
def operands(draw):
    """(m, u, v): two words whose product meets the junction in a chosen way.

    - cancel: v starts with the inverse of a suffix of u;
    - cascade: v starts with the positive element that completes each of the
      last j factors of u's normal form to Delta, so j Deltas pop in a row;
    - delta: Delta^k, often odd, leads u or v (odd m twists the other side);
    - free: unrelated words.  Any of u, v may be empty.
    """
    m = draw(st.sampled_from(MS))
    ref = ReferenceEngine(m)
    u, v = draw(letter_words), draw(letter_words)
    how = draw(st.sampled_from(("cancel", "cascade", "delta", "free")))
    if how == "cancel":
        v = _inverse(u[draw(st.integers(0, len(u))) :]) + v
    elif how == "cascade":
        _, fs = ref.from_letters(u)
        j = draw(st.integers(0, len(fs)))
        # Delta^j . (f_{r-j+1} ... f_r)^-1 is positive
        filler = ref.mul((j, ()), ref.inv((0, fs[len(fs) - j :])))
        v = [(x, 1) for x in ref.positive_letters(filler)] + v
    elif how == "delta":
        k = draw(st.integers(-3, 3))
        delta = [(_alt(0, i), 1) for i in range(m)] * abs(k)
        lead = delta if k > 0 else _inverse(delta)
        if draw(st.booleans()):
            u = lead + u
        else:
            v = lead + v
    return m, u, v


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(operands())
def test_junction_products_match_reference(case):
    m, u, v = case
    eng, ref = engine(m), ReferenceEngine(m)
    a, b = eng.from_letters(u), eng.from_letters(v)
    assert a == ref.from_letters(u)
    assert b == ref.from_letters(v)
    assert eng.from_letters(u + v) == ref.mul(a, b)
    assert eng.mul(a, b) == ref.mul(a, b)
    assert eng.mul(b, a) == ref.mul(b, a)
    assert eng.inv(a) == ref.inv(a)
    assert eng.spell(a) == ref.spell(a)
    assert eng.spell(eng.mul(a, b)) == ref.spell(ref.mul(a, b))


@pytest.mark.parametrize("m", [5, 6])
def test_deep_words_stay_linear(m):
    # 20,000 letters: the rescanning reference needs minutes for one of these
    rng = random.Random(m)
    w = _rand_letters(rng, 20000)
    eng = engine(m)
    elt = eng.from_letters(w)
    assert eng.from_letters(w + _inverse(w)) == IDENTITY
    folded = IDENTITY
    for i in range(0, len(w), 100):
        folded = eng.mul(folded, eng.from_letters(w[i : i + 100]))
    assert folded == elt
    assert eng.mul(elt, eng.inv(elt)) == IDENTITY


@pytest.mark.parametrize("m", MS)
def test_left_fraction_closed_form_matches_reference(m):
    # Delta^-k f_1 ... f_r with k below, equal to and above r, so that both
    # A = D^(k-r) . (...) and a leftover B occur
    rng = random.Random(100 + m)
    eng, ref = engine(m), ReferenceEngine(m)
    for _ in range(150):
        _, fs = eng.from_letters([(x, 1) for x, _ in _rand_letters(rng, rng.randint(0, 30))])
        elt = (-rng.randint(0, len(fs) + 3), fs)
        assert eng.left_fraction(elt) == ref.left_fraction(elt)
        assert eng.spell(elt) == ref.spell(elt)
        num, den = eng.left_fraction(elt)
        assert eng.mul(eng.inv(num), den) == elt


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(
    st.sampled_from(MS),
    letter_words,
    st.sampled_from((("a", "b"), ("t", "s"))),
    st.integers(0, 12),
    st.sampled_from((1, -1)),
)
def test_named_words_match_engine_letters(m, letters, names, at, sign):
    # names[i] is engine letter i; a letter off the pair is a coded error
    eng = engine(m)
    word = tuple((names[x], s) for x, s in letters)
    spelled = tuple(eng.spell(eng.from_letters(letters)))
    assert eng.letters(word, names) == tuple(letters)
    assert eng.element(word, names) == eng.from_letters(letters)
    assert eng.spelling(word, names) == tuple((names[x], s) for x, s in spelled)
    assert eng.named(spelled, names) == eng.spelling(word, names)
    off = word[:at] + (("c", sign),) + word[at:]
    for convert in (eng.letters, eng.element, eng.spelling):
        with pytest.raises(GraphError) as err:
            convert(off, names)
        assert err.value.code == "UNKNOWN_GENERATOR"
