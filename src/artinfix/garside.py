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

Products are computed at the junction.  Proper simples u, v make a left
weighted pair exactly when v starts with the letter u ends with: otherwise v
starts with the letter that follows u in the alternating word, and u.v has a
longer simple prefix.  So appending a proper simple (x, k) to a left weighted
sequence ending in u does one of three things.  If x is u's last letter it
concatenates.  Otherwise u absorbs letters of (x, k): if fewer than m - |u|
are offered, u grows and stays proper, and its left neighbour's condition is
unchanged because u keeps its first letter; else u completes to D, which
moves to the front by conjugating the factors before it (conjugation by D
maps left weighted sequences to left weighted ones), and the rest of (x, k)
meets the new last factor.  Every step either ends or removes a factor, and
each leaves a left weighted sequence, which by uniqueness is the normal form.

Besides the normal form, the engine computes the canonical mixed spelling of
an element (the shorter of its coprime left fraction A^-1 B and right
fraction B A^-1, both spelled letter by letter) and enumerates balls of
bounded spelling length.  Conjugation by D acts trivially for even m and
swaps the generators for odd m.

The engine is the one boundary between named words and engine letters.  For
a word over a named pair (names[i] is letter i) it gives the letters, the
normal form (element) and the canonical spelling in those names, and a letter
off the pair is the coded UNKNOWN_GENERATOR; named spells engine letters,
such as a ball's words, in names.  The caches behind them live here: one
engine per m, its balls, and the spelling of each engine-letter word, which
recurs across every pair with the same m.
"""

from __future__ import annotations

from functools import lru_cache

from .words import GraphError, Word

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

    # -- simples ------------------------------------------------------------
    def simple_letters(self, s: Simple) -> tuple[int, ...]:
        start, length = s
        return tuple(_alt(start, i) for i in range(length))

    def left_complement(self, s: Simple) -> Simple:
        start, length = s
        first = start if (self.m - length) % 2 == 0 else 1 - start
        return (first, self.m - length)

    # -- products from the junction ------------------------------------------
    def _push(self, fs: list[Simple], c: int, x: int, k: int) -> tuple[int, int, bool]:
        """Append the proper simple (x, k) to the left weighted factors fs, in place.

        fs holds its factors in tau^c coordinates: the factor meant is the
        stored one conjugated by D^c.  A Delta completed at the junction pops
        off the end and moves to the front, which flips c for odd m; what is
        left of (x, k) meets the new last factor.  Returns (Deltas popped, new
        c, open), where open says (x, k) went wholly into Deltas, so that the
        next simple meets a new last factor.  Costs O(1 + Deltas popped).
        """
        m = self.m
        pops = 0
        while fs:
            s, length = fs[-1]
            if c:
                s = 1 - s
            if x == (s if length & 1 else 1 - s):  # x is u's last letter: concatenate
                break
            room = m - length
            if k < room:
                fs[-1] = (fs[-1][0], length + k)
                return pops, c, False
            fs.pop()
            pops += 1
            c ^= m & 1
            k -= room
            if not k:
                return pops, c, True
            if room & 1:
                x = 1 - x
        fs.append((1 - x, k) if c else (x, k))
        return pops, c, False

    @staticmethod
    def _untwist(fs: list[Simple], c: int) -> tuple[Simple, ...]:
        """The factors meant by fs, which holds them in tau^c coordinates."""
        if c:
            return tuple([(1 - s, length) for s, length in fs])
        return tuple(fs)

    def from_letters(self, letters) -> Element:
        """Normal form of a word given as (letter index, sign) pairs, in linear time.

        Each letter is one junction step: x^-1 = D^-1 . (left complement of x),
        and the D^-1 passes the factors built so far by flipping their tau^c
        coordinates, so every letter costs O(1) amortised.
        """
        odd = self.m & 1
        complement = [self.left_complement((x, 1)) for x in (0, 1)]
        push = self._push
        fs: list[Simple] = []
        power = c = 0
        for letter, sign in letters:
            if sign > 0:
                pops, c, _ = push(fs, c, letter, 1)
            else:
                power -= 1
                pops, c, _ = push(fs, c ^ odd, *complement[letter])
            power += pops
        return (power, self._untwist(fs, c))

    # -- arithmetic -----------------------------------------------------------
    def mul(self, a: Element, b: Element) -> Element:
        """The product a.b in O(len a + len b) time.

        D^pa . A . D^pb . B = D^(pa+pb) . tau^pb(A) . B.  The factors of B are
        appended to tau^pb(A) at the junction until one of them does not merge
        whole into Deltas; the rest of B starts with that factor's last letter
        and concatenates unchanged.  A is twisted at most once, at the end.
        """
        pa, fa = a
        pb, fb = b
        c = pb & self.m & 1
        fs = list(fa)
        pops = 0
        rest: tuple[Simple, ...] = ()
        for i, (x, k) in enumerate(fb):
            popped, c, open_ = self._push(fs, c, x, k)
            pops += popped
            if not open_:
                rest = fb[i + 1 :]
                break
        return (pa + pb + pops, self._untwist(fs, c) + rest)

    def inv(self, a: Element) -> Element:
        """The inverse in one pass over the factors.

        For a = D^p f_1 ... f_r with L_i the left complement of f_i,
        a^-1 = D^-(p+r) . tau^(p+r-1)(L_r) ... tau^p(L_1).  That sequence is
        already left weighted: f_i f_(i+1) is, so L_i starts with the letter
        that ends tau(L_(i+1)).
        """
        p, fs = a
        odd = self.m & 1
        out = []
        for i in range(len(fs) - 1, -1, -1):
            s, length = self.left_complement(fs[i])
            out.append((1 - s, length) if (p + i) & odd else (s, length))
        return (-p - len(fs), tuple(out))

    def pow(self, a: Element, k: int) -> Element:
        if k < 0:
            a, k = self.inv(a), -k
        out = IDENTITY
        for _ in range(k):
            out = self.mul(out, a)
        return out

    # -- fractions and spellings ----------------------------------------------
    def left_fraction(self, a: Element) -> tuple[Element, Element]:
        """Coprime positive pair (A, B) with a = A^-1 B, in one pass.

        For a = D^-k f_1 ... f_r with k > 0, let j = min(k, r) and L_i be the
        left complement of f_i, so that f_i^-1 = D^-1 L_i.  Each D^-1 of a
        cancels one leading factor: B = f_(j+1) ... f_r, and
        A = (f_1 ... f_j)^-1 D^k = D^(k-j) . tau^(k-j+1)(L_j) ... tau^k(L_1),
        tau being conjugation by D.  That sequence is left weighted for the
        reason given in inv.  When B is not 1, j = k, and A starts with
        tau(L_k), the right complement of f_k, which starts with the letter
        f_k does not end with; B starts with f_(k+1), which starts with the
        letter f_k ends with, f_k f_(k+1) being left weighted.  So A and B
        are coprime.  O(k + r) time.
        """
        p, fs = a
        if p >= 0:
            return IDENTITY, a
        j = min(-p, len(fs))
        odd = self.m & 1
        num = []
        for i in range(j - 1, -1, -1):
            s, length = self.left_complement(fs[i])
            num.append((1 - s, length) if (i - p) & odd else (s, length))
        return (-p - j, tuple(num)), (0, fs[j:])

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
        """Canonical spelling: the shorter of the left and right fractions.

        A positive element's two fractions are both positive spellings of the
        same length, and the left one is kept on a tie.
        """
        left = self.spell_left(a)
        if a[0] >= 0:
            return left
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

    # -- named words -------------------------------------------------------------
    @staticmethod
    def letters(word: Word, names: tuple[str, str]) -> tuple:
        """The word over the pair names as engine letters: names[i] is letter i."""
        a, b = names
        lookup = {(a, 1): (0, 1), (a, -1): (0, -1), (b, 1): (1, 1), (b, -1): (1, -1)}
        try:
            return tuple([lookup[letter] for letter in word])
        except KeyError as exc:
            raise GraphError("UNKNOWN_GENERATOR", f"{exc.args[0][0]!r} not on the edge") from exc

    @staticmethod
    def named(letters, names: tuple[str, str]) -> Word:
        """Engine letters spelled in names: letter i is names[i]."""
        return tuple([(names[i], s) for i, s in letters])

    def element(self, word: Word, names: tuple[str, str]) -> Element:
        """Normal form of a word over the pair names."""
        return self.from_letters(self.letters(word, names))

    def spelling(self, word: Word, names: tuple[str, str]) -> Word:
        """Canonical spelling, in names, of a word over the pair names."""
        return self.named(_spelling(self.m, self.letters(word, names)), names)


@lru_cache(maxsize=None)
def engine(m: int) -> DihedralEngine:
    return DihedralEngine(m)


@lru_cache(maxsize=1 << 18)
def _spelling(m: int, letters: tuple) -> tuple:
    """Canonical spelling of an engine-letter word."""
    eng = engine(m)
    return tuple(eng.spell(eng.from_letters(letters)))


@lru_cache(maxsize=None)
def _ball_dict(m: int, radius: int) -> dict:
    """The radius ball in sorted element order, each element mapped to a geodesic word.

    The ball grows one letter at a time and keeps the first word found for
    each element, so every stored word extends, by its last letter, the
    stored word of an element one letter shorter; brute_fixed's fold of
    images along the stored words relies on this.
    """
    eng = engine(m)
    letter_elts = {(x, e): eng.from_letters([(x, e)]) for x in (0, 1) for e in (1, -1)}
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
                    new_elt = eng.mul(elt, letter_elts[letter, sign])
                    if new_elt not in found:
                        found[new_elt] = new_word
                        next_frontier.append((new_elt, new_word))
        frontier = next_frontier
    return dict(sorted(found.items()))
