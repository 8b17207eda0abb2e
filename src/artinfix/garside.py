"""
garside: exact normal forms in dihedral Artin groups.

The group with two generators 0, 1 and the relation equating the two
alternating length-m products is a Garside group whose Garside element D is
the alternating product and whose proper simple elements are the alternating
words of length 1..m-1.  A simple is stored as (start, length); an element is
stored as (power, factors) meaning D^power . f_1 ... f_r with the factor
sequence left weighted.  Two words represent the same group element exactly
when their normal forms coincide, which makes this the complete equality
backend for two-generator subgroups.

Besides the normal form, the engine computes the canonical mixed spelling of
an element (the shorter of its coprime left fraction A^-1 B and right
fraction B A^-1, both spelled letter by letter) and enumerates balls of
bounded spelling length.  Conjugation by D acts trivially for even m and
swaps the generators for odd m.
"""

from __future__ import annotations

from functools import lru_cache

Simple = tuple[int, int]  # (start letter 0/1, length 1..m)
Element = tuple[int, tuple[Simple, ...]]  # (power of Delta, proper factors)

IDENTITY: Element = (0, ())


def _alt(start: int, i: int) -> int:
    return start if i % 2 == 0 else 1 - start


class DihedralEngine:
    """Normal-form arithmetic for a fixed coefficient m >= 3."""

    def __init__(self, m: int):
        if m < 3:
            raise ValueError("large type requires m >= 3")
        self.m = m
        self.delta: Simple = (0, m)  # either spelling; start 0 is canonical

    # -- simples ------------------------------------------------------------
    def simple_letters(self, s: Simple) -> tuple[int, ...]:
        start, length = s
        return tuple(_alt(start, i) for i in range(length))

    def right_complement(self, s: Simple) -> Simple:
        start, length = s
        return (_alt(start, length), self.m - length)

    def left_complement(self, s: Simple) -> Simple:
        start, length = s
        first = start if (self.m - length) % 2 == 0 else 1 - start
        return (first, self.m - length)

    def tau_simple(self, s: Simple, e: int = 1) -> Simple:
        """Conjugation by D^e: identity for even m, generator swap for odd."""
        if self.m % 2 == 0 or e % 2 == 0:
            return s
        return (1 - s[0], s[1])

    # -- normalization -------------------------------------------------------
    def _normalize_factors(self, factors: list[Simple]) -> Element:
        """Left-greedy normalization; D's bubble to the front, then pop out."""
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

    def from_letters(self, letters) -> Element:
        """Normal form of a word given as (letter index, sign) pairs."""
        power = 0
        factors: list[Simple] = []
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

    # -- arithmetic -----------------------------------------------------------
    def mul(self, a: Element, b: Element) -> Element:
        pa, fa = a
        pb, fb = b
        twisted = [self.tau_simple(f, pb) for f in fa]
        p, fs = self._normalize_factors(twisted + list(fb))
        return (pa + pb + p, fs)

    def inv(self, a: Element) -> Element:
        p, fs = a
        out = IDENTITY
        for f in reversed(fs):
            out = self.mul(out, (-1, (self.left_complement(f),)))
        return self.mul(out, (-p, ()))

    def pow(self, a: Element, k: int) -> Element:
        if k < 0:
            a, k = self.inv(a), -k
        out = IDENTITY
        for _ in range(k):
            out = self.mul(out, a)
        return out

    # -- fractions and spellings ----------------------------------------------
    def _first_simple(self, a: Element) -> Simple | None:
        p, fs = a
        if p > 0:
            return (0, self.m)
        if fs:
            return fs[0]
        return None

    def _gcd_simple(self, u: Simple, v: Simple) -> Simple | None:
        if u[1] == self.m:
            return v
        if v[1] == self.m:
            return u
        if u[0] != v[0]:
            return None
        return (u[0], min(u[1], v[1]))

    def left_fraction(self, a: Element) -> tuple[Element, Element]:
        """Coprime positive pair (A, B) with a = A^-1 B."""
        p, fs = a
        if p >= 0:
            return IDENTITY, a
        num = (-p, ())  # A = D^-p, to be cancelled against B = factors
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

    def positive_letters(self, a: Element) -> tuple[int, ...]:
        """Letter spelling of a positive element (power >= 0)."""
        p, fs = a
        if p < 0:
            raise ValueError("positive_letters needs a positive element")
        letters: list[int] = []
        for _ in range(p):
            letters.extend(self.simple_letters((0, self.m)))
        for f in fs:
            letters.extend(self.simple_letters(f))
        return tuple(letters)

    def spell_left(self, a: Element):
        """Letters of the left fraction A^-1 B."""
        num, den = self.left_fraction(a)
        out = [(x, -1) for x in reversed(self.positive_letters(num))]
        out.extend((x, 1) for x in self.positive_letters(den))
        return out

    def spell(self, a: Element):
        """Canonical spelling: the shorter of the left and right fractions."""
        left = self.spell_left(a)
        rev = self.from_letters((x, s) for x, s in reversed(left))
        right_of_rev = self.spell_left(rev)
        right = [(x, s) for x, s in reversed(right_of_rev)]
        if len(right) < len(left):
            return right
        return left

    # -- balls -----------------------------------------------------------------
    def ball(self, radius: int) -> dict[Element, tuple]:
        """Elements of geodesic length <= radius, mapped to a geodesic word.

        The returned dict is cached and shared; treat it as read only.
        """
        return _ball_dict(self.m, radius)


@lru_cache(maxsize=None)
def engine(m: int) -> DihedralEngine:
    return DihedralEngine(m)


@lru_cache(maxsize=None)
def _ball_dict(m: int, radius: int) -> dict:
    """The radius ball in sorted element order, each element mapped to a geodesic word.

    The ball grows one letter at a time and keeps the first word found for
    each element, so every stored word extends, by its last letter, the
    stored word of an element one letter shorter; brute_fixed's fold of
    images along the stored words relies on this.
    """
    eng = engine(m)
    found: dict[Element, tuple] = {IDENTITY: ()}
    frontier: list[tuple[Element, tuple]] = [(IDENTITY, ())]
    for _ in range(radius):
        next_frontier = []
        for elt, word in frontier:
            last = word[-1] if word else None
            for letter in (0, 1):
                for sign in (1, -1):
                    if last == (letter, -sign):
                        continue  # free reduction would shorten
                    new_word = word + ((letter, sign),)
                    new_elt = eng.mul(elt, eng.from_letters([(letter, sign)]))
                    if new_elt not in found:
                        found[new_elt] = new_word
                        next_frontier.append((new_elt, new_word))
        frontier = next_frontier
    return dict(sorted(found.items()))
