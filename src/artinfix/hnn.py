"""
hnn: Britton normal forms and the Bass-Serre tree for <x, t | t x^n t^-1 = x^n>.

Even dihedral Artin groups are isomorphic to these groups (x = ab, t = b for
coefficient 2n), and all exact computations for them route through the
canonical pinch-free form

    x^e0 . t^d1 x^r1 . ... . t^dk x^rk,   0 <= r_i < n,

with no subword t^d x^(multiple of n) t^-d.  The central x^n pushes freely to
the front, so the residues r_i together with e0 determine the element
uniquely.  Vertices of the Bass-Serre tree are the cosets g<x>, edges the
cosets g<x^n>, with the edge g<x^n> oriented from g<x> to gt<x>; both carry
canonical keys derived from the normal form.  Automorphisms act on the tree
through their effect on stabilisers, so conjugation acts as left
multiplication and the outer classes permute vertices explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass

from .words import GraphError, Word, free_reduce

Syllable = tuple[int, int]  # (sign of t, x-exponent residue)
BSElement = tuple[int, tuple[Syllable, ...]]  # (leading x-exponent, syllables)

BS_IDENTITY: BSElement = (0, ())

Token = tuple[str, int]  # ("x", k) or ("t", +-1)


def _push_tokens(n: int, e0: int, syls: list[Syllable], tokens) -> tuple[int, list]:
    for kind, val in tokens:
        if kind == "x":
            if not syls:
                e0 += val
            else:
                d, r = syls[-1]
                total = r + val
                r2 = total % n
                e0 += total - r2  # central multiples of n commute to the front
                syls[-1] = (d, r2)
        else:
            if syls and syls[-1][0] == -val and syls[-1][1] == 0:
                syls.pop()  # pinch: t^-d x^0 t^d cancels
            else:
                syls.append((val, 0))
    return e0, syls


def bs_from_tokens(n: int, tokens) -> BSElement:
    e0, syls = _push_tokens(n, 0, [], tokens)
    return (e0, tuple(syls))


def bs_tokens(element: BSElement):
    e0, syls = element
    out: list[Token] = [("x", e0)] if e0 else []
    for d, r in syls:
        out.append(("t", d))
        if r:
            out.append(("x", r))
    return out


def _inv_tokens(tokens):
    return [(k, -v) for k, v in reversed(tokens)]


def bs_mul(n: int, *elements: BSElement) -> BSElement:
    e0, syls = 0, []
    for elt in elements:
        e0, syls = _push_tokens(n, e0, syls, bs_tokens(elt))
    return (e0, tuple(syls))


def bs_inv(n: int, element: BSElement) -> BSElement:
    return bs_from_tokens(n, _inv_tokens(bs_tokens(element)))


def _push_power(n: int, e0: int, syls: list[Syllable], tokens, k: int) -> tuple[int, list]:
    """Push the tokens k times, or their inverses -k times, into the accumulator."""
    if k < 0:
        tokens, k = _inv_tokens(tokens), -k
    for _ in range(k):
        e0, syls = _push_tokens(n, e0, syls, tokens)
    return e0, syls


def bs_pow(n: int, element: BSElement, k: int) -> BSElement:
    e0, syls = _push_power(n, 0, [], bs_tokens(element), k)
    return (e0, tuple(syls))


# ---------------------------------------------------------------------------
# Conversions to and from Artin letters on a named edge (u, v) ~ (a, b).


def bs_from_artin(n: int, word: Word, names: tuple[str, str]) -> BSElement:
    a, b = names
    tokens: list[Token] = []
    for name, sign in word:
        if name == a:
            tokens.extend([("x", 1), ("t", -1)] if sign > 0 else [("t", 1), ("x", -1)])
        elif name == b:
            tokens.append(("t", sign))
        else:
            raise GraphError("UNKNOWN_GENERATOR", f"letter {name} not on edge {names}")
    return bs_from_tokens(n, tokens)


def bs_to_artin(n: int, element: BSElement, names: tuple[str, str]) -> Word:
    a, b = names
    letters = []
    for kind, val in bs_tokens(element):
        if kind == "x":
            step = [(a, 1), (b, 1)] if val > 0 else [(b, -1), (a, -1)]
            letters.extend(step * abs(val))
        else:
            letters.append((b, 1 if val > 0 else -1))
    return free_reduce(letters)


# ---------------------------------------------------------------------------
# Geometry: ellipticity, translation length, cyclic reduction.


def bs_cyclic_reduce(n: int, element: BSElement) -> tuple[BSElement, BSElement]:
    """Return (conjugator u, core w) with element = u w u^-1 and w seam-reduced.

    The central part x^(multiple of n) acts trivially on the tree and stays in
    the core; only the residue of the leading exponent is folded around the
    seam, after which seam pinches strictly shorten the syllable list.
    """
    conj = BS_IDENTITY
    core = element
    while True:
        e0, syls = core
        if not syls:
            return conj, core
        if e0 % n:
            r0 = e0 % n
            conj = bs_mul(n, conj, (r0, ()))
            core = bs_mul(n, (-r0, ()), core, (r0, ()))
            continue
        d1, _ = syls[0]
        dk, rk = syls[-1]
        if len(syls) >= 2 and d1 == -dk and rk % n == 0:
            step = (0, (syls[0],))  # t^d1 x^r1
            conj = bs_mul(n, conj, step)
            core = bs_mul(n, bs_inv(n, step), core, step)
            continue
        return conj, core


def bs_is_elliptic(n: int, element: BSElement) -> bool:
    _, core = bs_cyclic_reduce(n, element)
    return not core[1]


def bs_is_central(n: int, element: BSElement) -> bool:
    e0, syls = element
    return not syls and e0 % n == 0


def bs_translation_length(n: int, element: BSElement) -> int:
    _, core = bs_cyclic_reduce(n, element)
    return len(core[1])


def bs_elliptic_data(n: int, element: BSElement):
    """(conjugator h, exponent j) with element = h x^j h^-1, or None."""
    conj, core = bs_cyclic_reduce(n, element)
    if core[1]:
        return None
    return conj, core[0]


# ---------------------------------------------------------------------------
# Automorphisms in Bass-Serre coordinates.


@dataclass(frozen=True)
class BSAut:
    """Automorphism given by generator images, with its action."""

    n: int
    x_img: BSElement
    t_img: BSElement

    def apply(self, element: BSElement) -> BSElement:
        """The image, folded token by token into one normal-form accumulator."""
        images = {"x": bs_tokens(self.x_img), "t": bs_tokens(self.t_img)}
        e0, syls = 0, []
        for kind, val in bs_tokens(element):
            e0, syls = _push_power(self.n, e0, syls, images[kind], val)
        return (e0, tuple(syls))


def bs_psi(n: int, tag: str) -> BSAut:
    """The representatives of the four inducible outer classes.

    x inverter (AB-type composite), orientation reverser components:
    ID: x -> x, t -> t          AB: x -> x^-1, t -> t^-1
    BG: x -> x, t -> t^-1 x     AG: x -> x^-1, t -> t x^-1
    """
    x = (1, ())
    xinv = (-1, ())
    t = bs_from_tokens(n, [("t", 1)])
    if tag == "ID":
        return BSAut(n, x, t)
    if tag == "AB":
        return BSAut(n, xinv, bs_from_tokens(n, [("t", -1)]))
    if tag == "BG":
        return BSAut(n, x, bs_from_tokens(n, [("t", -1), ("x", 1)]))
    if tag == "AG":
        return BSAut(n, xinv, bs_from_tokens(n, [("t", 1), ("x", -1)]))
    raise ValueError(f"unknown class tag {tag}")


def bs_inner_psi(n: int, w: BSElement, tag: str) -> BSAut:
    """conj_w composed with the class representative."""
    psi = bs_psi(n, tag)
    winv = bs_inv(n, w)
    return BSAut(
        n,
        bs_mul(n, w, psi.x_img, winv),
        bs_mul(n, w, psi.t_img, winv),
    )


# ---------------------------------------------------------------------------
# The tree.

VertexKey = tuple
EdgeKey = tuple


def vertex_key(n: int, g: BSElement) -> VertexKey:
    """Canonical key of the coset g<x>."""
    e0, syls = g
    if not syls:
        return ("v", 0, ())
    return ("v", e0 % n, syls[:-1] + ((syls[-1][0],),))


def vertex_rep(n: int, key: VertexKey) -> BSElement:
    _, e0, syls = key
    if not syls:
        return BS_IDENTITY
    return (e0, syls[:-1] + ((syls[-1][0], 0),))


def edge_key(n: int, g: BSElement) -> EdgeKey:
    """Canonical key of the coset g<x^n>; endpoints g<x> and gt<x>."""
    e0, syls = g
    if not syls:
        return ("e", e0 % n, ())
    return ("e", e0 % n, syls)


@dataclass(frozen=True)
class TreeAut:
    """Action of conj_w . psi on the tree, with psi fixing <x> setwise.

    The image of the vertex g<x> is w psi(g) <x>, which differs from
    conjugating the representative whenever w is not in the base vertex
    group.  Orientation-reversing classes (those involving the t inverter)
    send the edge between g<x> and gt<x> to the one between w psi(g) t^-1 <x>
    and w psi(g) <x>, hence the trailing correction on edge cosets.
    """

    n: int
    w: BSElement
    psi: BSAut
    reverses: bool = False

    def vertex_image(self, key: VertexKey) -> VertexKey:
        rep = vertex_rep(self.n, key)
        return vertex_key(self.n, bs_mul(self.n, self.w, self.psi.apply(rep)))

    def edge_image(self, g: BSElement) -> EdgeKey:
        image = bs_mul(self.n, self.w, self.psi.apply(g))
        if self.reverses:
            image = bs_mul(self.n, image, bs_from_tokens(self.n, [("t", -1)]))
        return edge_key(self.n, image)


def vertex_neighbors(n: int, key: VertexKey):
    """The 2n neighbours rep . x^i t^{+-1} <x> in a deterministic order."""
    rep = vertex_rep(n, key)
    out = []
    for d in (1, -1):
        for i in range(n):
            g = bs_mul(n, rep, bs_from_tokens(n, [("x", i), ("t", d)]))
            out.append(vertex_key(n, g))
    return out


def tree_ball(n: int, radius: int):
    """Vertex keys within the given combinatorial radius of <x>."""
    base = vertex_key(n, BS_IDENTITY)
    dist = {base: 0}
    order = [base]
    frontier = [base]
    for depth in range(1, radius + 1):
        nxt = []
        for key in frontier:
            for nb in vertex_neighbors(n, key):
                if nb not in dist:
                    dist[nb] = depth
                    order.append(nb)
                    nxt.append(nb)
        frontier = nxt
    return order, dist
