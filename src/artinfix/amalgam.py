"""
amalgam: normal forms in the torus-knot groups <x, y | x^2 = y^m>, m odd.

Odd dihedral Artin groups with coefficient m = 2n+1 are isomorphic to these
amalgams of two infinite cyclic groups over the centre z = x^2 = y^m
(x = b(ab)^n, y = ab).  The canonical form is

    z^c . s_1 s_2 ... s_k,

where the syllables alternate between the factor transversals {x} and
{y, y^2, ..., y^(m-1)}.  This is the amalgamated-product normal form with
fixed coset representatives, so elements are equal exactly when their forms
agree.  The Bass-Serre tree of the splitting is bipartite on cosets of <x>
and <y>; an element is elliptic exactly when its cyclically reduced core has
at most one syllable, and translation lengths are syllable counts.
"""

from __future__ import annotations

from .words import GraphError, Word, free_reduce, inv

Syl = tuple[str, int]  # ("x", 1) or ("y", e) with 1 <= e <= m-1
AmElement = tuple[int, tuple[Syl, ...]]  # (power of the centre, syllables)

AM_IDENTITY: AmElement = (0, ())


def _base(m: int, kind: str) -> int:
    return 2 if kind == "x" else m


def _push(m: int, c: int, syls: list[Syl], kind: str, exp: int) -> int:
    """Append a factor-letter power, keeping the normal form; returns c."""
    if syls and syls[-1][0] == kind:
        _, prev = syls.pop()
        exp += prev
    q, r = divmod(exp, _base(m, kind))
    c += q
    if r:
        syls.append((kind, r))
    return c


def am_from_tokens(m: int, tokens) -> AmElement:
    c, syls = 0, []
    for kind, exp in tokens:
        c = _push(m, c, syls, kind, exp)
    return (c, tuple(syls))


def am_mul(m: int, *elements: AmElement) -> AmElement:
    c, syls = 0, []
    for ec, esyls in elements:
        c += ec
        for kind, exp in esyls:
            c = _push(m, c, syls, kind, exp)
    return (c, tuple(syls))


def am_inv(m: int, element: AmElement) -> AmElement:
    c, syls = element
    out_c, out_syls = -c, []
    for kind, exp in reversed(syls):
        out_c = _push(m, out_c, out_syls, kind, -exp)
    return (out_c, tuple(out_syls))


# ---------------------------------------------------------------------------
# Conversions on a named edge (u, v) ~ (a, b), coefficient m = 2n+1.


def am_from_artin(m: int, word: Word, names: tuple[str, str]) -> AmElement:
    n = (m - 1) // 2
    a, b = names
    tokens = []
    for name, sign in word:
        if name == a:
            # a = y^(n+1) x^-1
            tokens.extend(
                [("y", n + 1), ("x", -1)] if sign > 0 else [("x", 1), ("y", -(n + 1))]
            )
        elif name == b:
            # b = x y^-n
            tokens.extend([("x", 1), ("y", -n)] if sign > 0 else [("y", n), ("x", -1)])
        else:
            raise GraphError("UNKNOWN_GENERATOR", f"letter {name} not on edge {names}")
    return am_from_tokens(m, tokens)


def am_to_artin(m: int, element: AmElement, names: tuple[str, str]) -> Word:
    n = (m - 1) // 2
    a, b = names
    ab = [(a, 1), (b, 1)]
    x_word = [(b, 1)] + ab * n  # x = b (ab)^n
    letters: list = []
    c, syls = element
    centre = ab * m  # z = y^m = (ab)^m
    if c > 0:
        letters.extend(centre * c)
    elif c < 0:
        letters.extend(inv(centre) * (-c))
    for kind, exp in syls:
        base = x_word if kind == "x" else ab
        if exp > 0:
            letters.extend(base * exp)
        else:
            letters.extend(inv(base) * (-exp))
    return free_reduce(letters)


# ---------------------------------------------------------------------------
# Tree geometry.


def am_cyclic_reduce(m: int, element: AmElement) -> tuple[AmElement, AmElement]:
    """(conjugator u, core w) with element = u w u^-1, w seam-reduced."""
    conj = AM_IDENTITY
    core = element
    while True:
        c, syls = core
        if len(syls) <= 1:
            return conj, core
        if syls[0][0] != syls[-1][0]:
            return conj, core
        last = (0, (syls[-1],))
        # w = s1 ... sk with s1, sk in the same factor: conjugate by sk
        conj = am_mul(m, conj, am_inv(m, last))
        core = am_mul(m, last, core, am_inv(m, last))


def am_is_elliptic(m: int, element: AmElement) -> bool:
    _, core = am_cyclic_reduce(m, element)
    return len(core[1]) <= 1


def am_is_central(m: int, element: AmElement) -> bool:
    return not element[1]


def am_translation_length(m: int, element: AmElement) -> int:
    _, core = am_cyclic_reduce(m, element)
    return 0 if len(core[1]) <= 1 else len(core[1])


def am_elliptic_data(m: int, element: AmElement):
    """(conjugator h, factor kind, core) when elliptic, else None.

    The core is z^c, z^c x, or z^c y^e; its vertex is h v_<x> or h v_<y>
    (central cores fix everything and are tagged "z").
    """
    conj, core = am_cyclic_reduce(m, element)
    if len(core[1]) > 1:
        return None
    kind = core[1][0][0] if core[1] else "z"
    return conj, kind, core
