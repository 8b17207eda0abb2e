"""
dihedral: complete fixed-subgroup machinery for two-generator Artin groups.

Everything here is exact.  Equality routes through the Garside normal form;
tree geometry routes through the Britton form of <x, t | t x^n t^-1 = x^n>
for even coefficients and through the amalgam form of <x, y | x^2 = y^m> for
odd ones.  The classification of an automorphism conj_g . sigma^d . iota^e
goes by its outer class in tree coordinates:

  even m = 2n:  sigma = conj_t . BG,  iota = conj_t . AB,  sigma iota = AG,
  odd  m:       sigma is inner (conjugation by the Garside element),

and dispatches as follows.  Finite order is equivalent to the squared inner
part acting elliptically.

  inner (ID, or odd m without iota): Fix(conj_w) = C(w), from the one
      centraliser: the whole group for central w, Z for elliptic w (the
      conjugated vertex stabiliser), Z^2 for hyperbolic w (its root together
      with the centre);
  inversion (AB, or odd m with iota): {1} at finite order, else Z, the
      height-zero part of C(z0) for the twisted product z0 = g . sigma iota(g);
  BG: at finite order Z, the conjugated stabiliser of a fixed vertex, or the
      centre when only an inverted edge midpoint is fixed; else Z^2, the
      centraliser of the squared inner part, on which it acts trivially;
  AG: at finite order Z, the axis generator picked by the residual power
      at a fixed vertex; else as for AB.

Roots are read off the cyclically reduced tree form, with no search.  Modulo
the centre <z> the group is Z/n * Z (m = 2n) or Z/2 * Z/m (m odd), where a
hyperbolic w has a cyclic centraliser, generated by the root r whose tree
word is the shortest period of the syllables of w's core.  A commutator has
height 0 and a nontrivial central element does not, so C(w) is the whole
preimage <r, z>.  An inversion case squares to conj_z0, fixes z0 and negates
height; it sends z to z^-1 and r to r times a power of z, and so fixes exactly
the height-zero part of C(z0) = <r, z>: the cyclic group on
r^(h(z)/d) z^(-h(r)/d), d = gcd(h(r), h(z)).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from . import amalgam as am
from . import hnn
from .garside import IDENTITY, engine
from .presentation import DefiningGraph, GraphError, validate_graph
from .report import FixClass, FixReport, certified_report, normalize_class
from .words import (
    DEFAULT_NAMES,
    ArtinAutomorphism,
    Word,
    delta_word,
    free_reduce,
    height,
    inv,
    mul,
    power,
)

def edge_graph(m: int, names: tuple[str, str] = DEFAULT_NAMES) -> DefiningGraph:
    return validate_graph([(names[0], names[1], m)])


def center_word(m: int, names: tuple[str, str] = DEFAULT_NAMES) -> Word:
    """Generator of the centre: the Garside element for even m, its square else."""
    d = delta_word(m, names)
    return d if m % 2 == 0 else mul(d, d)


# ---------------------------------------------------------------------------
# Garside normal form as the public equality interface.


@dataclass(frozen=True)
class GarsideNF:
    m: int
    power: int
    factors: tuple
    spelling: Word

    @property
    def key(self):
        return (self.power, self.factors)


def garside_nf(m: int, word: Word, names: tuple[str, str] = DEFAULT_NAMES) -> GarsideNF:
    eng = engine(m)
    power, factors = elt = eng.element(word, names)
    return GarsideNF(m, power, factors, eng.named(eng.spell(elt), names))


def nf_key(m: int, word: Word, names: tuple[str, str] = DEFAULT_NAMES):
    return engine(m).element(word, names)


def words_equal(m: int, u: Word, v: Word, names: tuple[str, str] = DEFAULT_NAMES) -> bool:
    return nf_key(m, u, names) == nf_key(m, v, names)


# ---------------------------------------------------------------------------
# Presentation conversions.


def convert(m: int, word: Word, direction: str, names: tuple[str, str] = DEFAULT_NAMES) -> Word:
    """Convert between the Artin presentation and the tree presentation.

    Directions "artin_to_bs"/"bs_to_artin" require even m and use letters
    x, t; "artin_to_torus"/"torus_to_artin" require odd m and use x, y.
    """
    if direction not in ("artin_to_bs", "bs_to_artin", "artin_to_torus", "torus_to_artin"):
        raise GraphError("PARSE", f"unknown direction {direction}")
    even = direction in ("artin_to_bs", "bs_to_artin")
    if (m % 2 == 0) != even:
        raise GraphError(
            "PARITY_MISMATCH", "the HNN form needs even m" if even else "the amalgam form needs odd m"
        )
    n = m // 2
    if direction.startswith("artin_to"):
        if even:
            tokens = hnn.bs_tokens(hnn.bs_from_artin(n, word, names))
        else:
            c, syls = am.am_from_artin(m, word, names)
            tokens = [("y", c * m), *syls]
        out = []
        for kind, val in tokens:
            out.extend([(kind, 1 if val > 0 else -1)] * abs(val))
        return free_reduce(out)
    letters = ("x", "t") if even else ("x", "y")
    for name, _ in word:
        if name not in letters:
            raise GraphError("UNKNOWN_GENERATOR", f"{name} not in {', '.join(letters)}")
    if even:
        return hnn.bs_to_artin(n, hnn.bs_from_tokens(n, word), names)
    return am.am_to_artin(m, am.am_from_tokens(m, word), names)


# ---------------------------------------------------------------------------
# Outer classes in tree coordinates.


@dataclass(frozen=True)
class BSAutClass:
    tag: str  # "ID" | "AB" | "BG" | "AG"
    inner: hnn.BSElement  # w with the automorphism equal to conj_w . tag

    def tree(self, n: int) -> hnn.TreeAut:
        return hnn.TreeAut(
            n, self.inner, hnn.bs_psi(n, self.tag), self.tag in ("AB", "BG")
        )


def _split_aut(aut: ArtinAutomorphism):
    """(g, sigma nontrivial?, inversion) for an edge automorphism."""
    sigma = not aut.perm.is_identity
    return aut.conj, sigma, aut.inversion


def outer_class(m: int, aut: ArtinAutomorphism, names: tuple[str, str] = DEFAULT_NAMES) -> BSAutClass:
    """Tree coordinates of an inducible automorphism of an even dihedral."""
    if m % 2:
        raise GraphError("PARITY_MISMATCH", "outer classes live on the even tree")
    n = m // 2
    g, sigma, inversion = _split_aut(aut)
    w = hnn.bs_from_artin(n, g, names)
    t = hnn.bs_from_tokens(n, [("t", 1)])
    if sigma and inversion:
        return BSAutClass("AG", w)
    if sigma:
        return BSAutClass("BG", hnn.bs_mul(n, w, t))
    if inversion:
        return BSAutClass("AB", hnn.bs_mul(n, w, t))
    return BSAutClass("ID", w)


def _squared_inner(n: int, cls: BSAutClass) -> hnn.BSElement:
    """The element h with (conj_w psi)^2 = conj_h."""
    psi = hnn.bs_psi(n, cls.tag)
    h = hnn.bs_mul(n, cls.inner, psi.apply(cls.inner))
    if cls.tag == "BG":
        h = hnn.bs_mul(n, h, (-1, ()))  # (BG)^2 = conj_{x^-1}
    return h


def is_finite_order(m: int, aut: ArtinAutomorphism, names: tuple[str, str] = DEFAULT_NAMES) -> bool:
    """Finite order in the automorphism group; equivalently fixes a tree point."""
    if m % 2 == 0:
        n = m // 2
        cls = outer_class(m, aut, names)
        if cls.tag == "ID":
            return hnn.bs_is_elliptic(n, cls.inner)
        return hnn.bs_is_elliptic(n, _squared_inner(n, cls))
    g, sigma, inversion = _split_aut(aut)
    w = mul(g, delta_word(m, names)) if sigma else g
    we = am.am_from_artin(m, w, names)
    if not inversion:
        return am.am_is_elliptic(m, we)
    iota_w = tuple((nm, -sg) for nm, sg in w)
    return am.am_is_elliptic(m, am.am_mul(m, we, am.am_from_artin(m, iota_w, names)))


# ---------------------------------------------------------------------------
# The tree and fixed sets on it (even case).


@dataclass(frozen=True)
class TreeFixedSet:
    n: int
    radius: int
    vertices: frozenset
    midpoints: frozenset  # edge keys of inverted edges

    def sorted_vertices(self):
        return tuple(sorted(self.vertices))


def _edges_up(n: int, key):
    """(edge coset g, edge key, top vertex) for the n edges whose bottom vertex is key.

    The edge g<x^n>, g = rep . x^i, runs from g<x> = key to gt<x>.
    """
    rep = hnn.vertex_rep(n, key)
    t = hnn.bs_from_tokens(n, [("t", 1)])
    for i in range(n):
        g = hnn.bs_mul(n, rep, hnn.bs_from_tokens(n, [("x", i)]))
        yield g, hnn.edge_key(n, g), hnn.vertex_key(n, hnn.bs_mul(n, g, t))


def tree_fixed_set(
    n: int, aut: ArtinAutomorphism, radius: int, names: tuple[str, str] = DEFAULT_NAMES
) -> TreeFixedSet:
    """Fixed vertices and inverted-edge midpoints within the radius ball.

    The fixed set of a tree automorphism is convex, and so is its trace on
    the ball, which is grown from one fixed vertex through fixed neighbours.
    The fixed point nearest the base vertex sits at half the base's
    displacement d, so the search for that vertex stops at radius
    min(radius, (d + 1) // 2).  An automorphism that fixes a vertex inverts
    no edge, so midpoints are looked for only when none is fixed, among the
    edges of that same near ball; as everywhere here, an edge counts when its
    bottom vertex (the coset g<x> of the edge coset g<x^n>) lies in the ball.
    Without a fixed vertex an edge is inverted only when d is odd: the
    midpoint p of an inverted edge is fixed and sits half an edge off the
    vertices, so d = 2 d(base, p) is odd.  For even d the pass is skipped.
    """
    tree = outer_class(2 * n, aut, names).tree(n)
    start, images, d = _fixed_vertex_search(n, tree, radius)
    if start is None:
        midpoints = set()
        for key, image in images.items() if d % 2 else ():  # even d: no edge is inverted
            for g, ekey, top in _edges_up(n, key):
                if image == top and tree.vertex_image(top) == key and tree.edge_image(g) == ekey:
                    midpoints.add(ekey)
        return TreeFixedSet(n, radius, frozenset(), frozenset(midpoints))
    fixed = {start}
    seen = {start}
    frontier = [start]
    while frontier:
        key = frontier.pop()
        for nb in hnn.vertex_neighbors(n, key):
            if nb in seen or len(nb[2]) > radius:
                continue
            seen.add(nb)
            if tree.vertex_image(nb) == nb:
                fixed.add(nb)
                frontier.append(nb)
    return TreeFixedSet(n, radius, frozenset(fixed), frozenset())


def tree_dot(fs: TreeFixedSet) -> str:
    n = fs.n
    order, _ = hnn.tree_ball(n, fs.radius)
    idx = {key: i for i, key in enumerate(order)}
    lines = ["digraph tree {"]
    for key in order:
        style = ' style=filled fillcolor="gold"' if key in fs.vertices else ""
        lines.append(f'  v{idx[key]} [label="{key[1]},{key[2]}"{style}];')
    for key in order:  # each edge is listed once, from its bottom vertex
        for _, ekey, top in _edges_up(n, key):
            if top in idx:
                mid = ' color="red"' if ekey in fs.midpoints else ""
                lines.append(f"  v{idx[key]} -> v{idx[top]} [{mid.strip()}];")
    lines.append("}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Brute-force fixed sets and subgroup balls (the acceptance oracles).


def brute_fixed(
    m: int, aut: ArtinAutomorphism, length: int, names: tuple[str, str] = DEFAULT_NAMES
) -> list[Word]:
    """Every element of the geodesic ball whose image equals itself, exactly.

    Images are folded along the ball's own geodesic words: the stored word of
    every ball element extends the stored word of its parent element by one
    letter, so walking the ball by word length gives image(p . l) as
    image(p) . image(l), with the four letter images normalised once.
    """
    eng = engine(m)
    letter_image = {
        (i, s): eng.element(aut(eng.named(((i, s),), names)), names)
        for i in (0, 1)
        for s in (1, -1)
    }
    images = {(): IDENTITY}
    out = []
    for elt, word_idx in sorted(eng.ball(length).items(), key=lambda item: len(item[1])):
        if word_idx:
            images[word_idx] = eng.mul(images[word_idx[:-1]], letter_image[word_idx[-1]])
        if images[word_idx] == elt:
            out.append((len(word_idx), word_idx, eng.named(word_idx, names)))
    out.sort()
    return [w for _, _, w in out]


def _powers(eng, g, cap: int) -> list:
    """g^i for |i| <= cap, each power one multiplication from the previous."""
    out = [IDENTITY]
    for step in (g, eng.inv(g)):
        acc = IDENTITY
        for _ in range(cap):
            acc = eng.mul(acc, step)
            out.append(acc)
    return out


def subgroup_ball(
    m: int,
    generators: tuple[Word, ...],
    length: int,
    names: tuple[str, str] = DEFAULT_NAMES,
    whole_group: bool = False,
) -> set:
    """Normal-form keys of subgroup elements inside the geodesic ball.

    Cyclic and bi-cyclic subgroups are enumerated by powers; the whole group
    is the ball itself; anything else closes under generator multiplication
    inside a slightly slackened ball.
    """
    eng = engine(m)
    ball = eng.ball(length)
    power_cap = 24
    if whole_group:
        return set(ball)
    gens = [eng.element(w, names) for w in generators if free_reduce(w)]
    if not gens:
        return {(0, ())}
    if len(gens) == 1:
        out = set()
        for sign in (1, -1):
            misses = 0
            acc = (0, ())
            step = gens[0] if sign > 0 else eng.inv(gens[0])
            for _ in range(power_cap):
                if acc in ball:
                    out.add(acc)
                    misses = 0
                else:
                    misses += 1
                    if misses >= 3:
                        break
                acc = eng.mul(acc, step)
        out.add((0, ()))
        return {k for k in out if k in ball}
    if len(gens) == 2 and eng.mul(gens[0], gens[1]) == eng.mul(gens[1], gens[0]):
        first, second = (_powers(eng, g, power_cap) for g in gens)
        return {key for u in first for v in second if (key := eng.mul(u, v)) in ball}
    # generic: closure under generator multiplication inside a slack ball
    slack_ball = eng.ball(length + 2)
    frontier = [(0, ())]
    seen = {(0, ())}
    steps = [g for g in gens] + [eng.inv(g) for g in gens]
    while frontier:
        elt = frontier.pop()
        for step in steps:
            nxt = eng.mul(elt, step)
            if nxt in slack_ball and nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return {k for k in seen if k in ball}


# ---------------------------------------------------------------------------
# Tree translation lengths of Artin words.


def tree_translation(m: int, word: Word, names: tuple[str, str] = DEFAULT_NAMES) -> int:
    if m % 2 == 0:
        return hnn.bs_translation_length(m // 2, hnn.bs_from_artin(m // 2, word, names))
    return am.am_translation_length(m, am.am_from_artin(m, word, names))


def _period(syls) -> int:
    """The least p dividing len(syls) with syls the p-periodic repetition of syls[:p]."""
    k = len(syls)
    return next(p for p in range(1, k + 1) if k % p == 0 and syls[p:] == syls[:-p])


def _root(m: int, w: Word, names):
    """(root, translation) of a hyperbolic w, with C(w) = <root, centre>.

    w = conj . core . conj^-1 with the core cyclically reduced, so the core's
    axis runs through the base vertex (even m) or the base edge (odd m).  An
    element commuting with the core modulo the centre translates along that
    axis, so its tree word is a period of the core's syllables; the shortest
    period, conjugated back, is the root.  C(w) is the whole preimage of that
    cyclic group, as a commutator has height 0 and no nontrivial central
    element does.
    """
    if m % 2 == 0:
        n = m // 2
        conj, (_, syls) = hnn.bs_cyclic_reduce(n, hnn.bs_from_artin(n, w, names))
        p = _period(syls)
        root = hnn.bs_mul(n, conj, (0, syls[:p]), hnn.bs_inv(n, conj))
        return hnn.bs_to_artin(n, root, names), p
    conj, (_, syls) = am.am_cyclic_reduce(m, am.am_from_artin(m, w, names))
    p = _period(syls)
    root = am.am_mul(m, conj, (0, syls[:p]), am.am_inv(m, conj))
    return am.am_to_artin(m, root, names), p


def _shortest(spellings) -> Word:
    """The shortest spelling; ties go by letters, a positive letter before its inverse."""
    return min(spellings, key=lambda sp: (len(sp), tuple((x, s < 0) for x, s in sp)))


def _axis(m: int, w: Word, names, respelled: bool):
    """(axis generator, translation): a short r^(+-1) z^j beside the centre z in C(w) = Z^2.

    The candidates are r^(+-1) z^j for j near the power that cancels their
    height, and w^(+-1) when w is primitive (translates by the root's own
    length).  A generator that will be respelled is picked by its canonical
    spelling; otherwise a candidate's reduced word counts as a spelling too.
    """
    r, p = _root(m, w, names)
    z = center_word(m, names)
    candidates = [w, inv(w)] if tree_translation(m, w, names) == p else []
    for base in (r, inv(r)):
        j0 = -round(height(base) / height(z))
        candidates += [mul(base, power(z, j)) for j in range(j0 - 2, j0 + 3)]
    spellings = [engine(m).spelling(c, names) for c in candidates]
    if not respelled:
        spellings += [free_reduce(c) for c in candidates]
    return _shortest(spellings), p


def _centralizer(m: int, g: Word, names, respelled: bool):
    """C(g) by the action of g on the tree: (kind, generators, witness, translation).

    kind is CENTRAL (the whole group), ELLIPTIC_Z (the stabiliser of the
    fixed vertex, conjugated by the witness h) or HYPERBOLIC_Z2 (the root of
    g times a central power, and the centre, with the root's translation;
    respelled as in _axis).  Witness and translation are () and None where
    they do not apply.
    """
    whole = (((names[0], 1),), ((names[1], 1),))
    ab = ((names[0], 1), (names[1], 1))
    core = None
    if m % 2 == 0:
        n = m // 2
        e = hnn.bs_from_artin(n, g, names)
        if hnn.bs_is_central(n, e):
            return "CENTRAL", whole, (), None
        data = hnn.bs_elliptic_data(n, e)
        if data is not None:
            h = hnn.bs_to_artin(n, data[0], names)
            core = ab
    else:
        e = am.am_from_artin(m, g, names)
        if am.am_is_central(m, e):
            return "CENTRAL", whole, (), None
        data = am.am_elliptic_data(m, e)
        if data is not None and data[1] != "z":
            h = am.am_to_artin(m, data[0], names)
            core = delta_word(m, names) if data[1] == "x" else ab
    if core is not None:
        return "ELLIPTIC_Z", (free_reduce(mul(h, core, inv(h))),), h, None
    axis, ell = _axis(m, g, names, respelled)
    return "HYPERBOLIC_Z2", (axis, center_word(m, names)), (), ell


def centralizer_class(kind: str, names) -> FixClass:
    """The fixed-subgroup class of a centraliser kind from _centralizer."""
    if kind == "CENTRAL":
        return normalize_class("ARTIN", 0, names, has_edges=True)
    return normalize_class("Z" if kind == "ELLIPTIC_Z" else "Z2")


def dihedral_centralizer(m: int, g: Word, names: tuple[str, str] = DEFAULT_NAMES):
    """Centralizer of a nontrivial element: (tag, generators, exact, note)."""
    g = free_reduce(g)
    if not g:
        raise GraphError("TRIVIAL_ELEMENT", "the identity has the whole group")
    kind, gens, _, ell = _centralizer(m, g, names, respelled=False)
    note = {"CENTRAL": "central element", "ELLIPTIC_Z": "vertex stabiliser"}.get(
        kind, f"axis translation {ell}"
    )
    return kind, gens, True, note


# ---------------------------------------------------------------------------
# The twisted root.


def _twisted_root(m: int, aut: ArtinAutomorphism, names, notes=()):
    """Fix of an infinite-order AB, AG or odd inversion: Z, the height-zero part of C(z0).

    The automorphism squares to conj_z0 for z0 = g . sigma iota(g), so Fix
    lies in C(z0) = <r, z>, r the root of z0.  It fixes z0, so it sends r to
    r z^j, and negates height, so it fixes exactly the height-zero elements,
    generated by r^(h(z)/d) z^(-h(r)/d) with d = gcd(h(r), h(z)).
    """
    g = aut.conj
    r, p = _root(m, mul(g, aut.graph_part(g)), names)
    z = center_word(m, names)
    hr, hz = height(r), height(z)
    d = gcd(hr, hz)
    gen = mul(power(r, hz // d), power(z, -hr // d))
    note = f"height-zero part of the twisted product's centraliser, root translation {p}"
    spellings = [engine(m).spelling(w, names) for w in (gen, inv(gen))]
    return normalize_class("Z"), (_shortest(spellings),), (), notes + (note,)


# ---------------------------------------------------------------------------
# The fixed-subgroup classification.


def _alpha_gamma_axis(n: int, k: int) -> hnn.BSElement:
    """The fixed axis generator of conj_{x^k} . AG, by parity of n and k."""
    if n % 2 == 1 and k % 2 == 0:
        tokens = [("x", k // 2), ("t", 1), ("x", (n - 1) // 2), ("t", 1), ("x", (-k - n - 1) // 2)]
    elif n % 2 == 1:
        tokens = [("x", (k - n) // 2), ("t", 1), ("x", (n - 1) // 2), ("t", 1), ("x", (-k - 1) // 2)]
    elif k % 2 == 0:
        tokens = [("x", k // 2), ("t", 1), ("x", n // 2), ("t", -1), ("x", (-k - n) // 2)]
    else:
        tokens = [("x", (k + 1) // 2), ("t", -1), ("x", n // 2), ("t", 1), ("x", (-k - n - 1) // 2)]
    return hnn.bs_from_tokens(n, tokens)


def _fixed_vertex_search(n: int, tree: hnn.TreeAut, radius: int | None = None):
    """The fixed vertex nearest the base vertex, if any, and the ball searched.

    The closest fixed point to the base vertex sits at half its displacement,
    and the fixed set is convex, so searching that radius is conclusive; a
    given radius caps the search further.  Returns (key or None, the image of
    each vertex tried, in ball order, the base's displacement); with no fixed
    vertex every vertex of the searched ball was tried.
    """
    base = hnn.vertex_key(n, hnn.BS_IDENTITY)
    d = len(tree.vertex_image(base)[2])
    reach = (d + 1) // 2 if radius is None else min(radius, (d + 1) // 2)
    order, _ = hnn.tree_ball(n, reach)
    images = {}
    for key in order:
        images[key] = image = tree.vertex_image(key)
        if image == key:
            return key, images, d
    return None, images, d


def _fix_inner(m: int, w: Word, names, central_note: str):
    """Fix(conj_w) = C(w), with w central, elliptic or hyperbolic."""
    kind, gens, witness, ell = _centralizer(m, w, names, respelled=True)
    notes = {"CENTRAL": (central_note,), "ELLIPTIC_Z": ()}.get(
        kind, (f"axis element of translation length {ell}",)
    )
    return centralizer_class(kind, names), gens, witness, notes


def _fix_even(m: int, aut: ArtinAutomorphism, names):
    n = m // 2
    cls = outer_class(m, aut, names)
    if cls.tag == "ID":
        return _fix_inner(m, aut.conj, names, "inner by a central element: the identity automorphism")

    finite = is_finite_order(m, aut, names)
    if cls.tag in ("AB", "AG") and not finite:
        return _twisted_root(m, aut, names)
    if cls.tag == "AB":
        return normalize_class("TRIVIAL"), (), (), ()
    delta = delta_word(m, names)
    if not finite:  # BG: the automorphism acts trivially on C(h0), so Fix = C(h0)
        h0_artin = hnn.bs_to_artin(n, _squared_inner(n, cls), names)
        axis, ell = _axis(m, h0_artin, names, respelled=True)
        return (
            normalize_class("Z2"),
            (axis, delta),
            (),
            (f"centraliser of the squared inner part, axis translation {ell}",),
        )

    # finite BG or AG: read Fix off the fixed vertex nearest the base
    key, _, _ = _fixed_vertex_search(n, cls.tree(n))
    if key is None:
        if cls.tag == "AG":
            raise GraphError(
                "NO_FIXED_VERTEX", "orientation-preserving finite order fixes a vertex"
            )
        return (
            normalize_class("Z"),
            (delta,),
            (),
            ("only an inverted edge midpoint is fixed",),
        )
    rep = hnn.vertex_rep(n, key)
    h = hnn.bs_to_artin(n, rep, names)
    if cls.tag == "BG":
        gen = free_reduce(mul(h, ((names[0], 1), (names[1], 1)), inv(h)))
        return normalize_class("Z"), (gen,), h, ()
    u = hnn.bs_mul(n, hnn.bs_inv(n, rep), cls.inner, hnn.bs_psi(n, "AG").apply(rep))
    if u[1]:
        raise GraphError(
            "BASE_VERTEX_MOVED", "the reduced automorphism must fix the base vertex"
        )
    k = u[0]
    s = _alpha_gamma_axis(n, k)
    gen = free_reduce(mul(h, hnn.bs_to_artin(n, s, names), inv(h)))
    return (
        normalize_class("Z"),
        (gen,),
        h,
        (f"axis generator for residual power k={k}, n={n}",),
    )


def _fix_odd(m: int, aut: ArtinAutomorphism, names):
    g, sigma, inversion = _split_aut(aut)
    notes = ("odd coefficient: the graph swap is inner by the Garside element",) if sigma else ()
    if inversion:
        if is_finite_order(m, aut, names):
            return normalize_class("TRIVIAL"), (), (), notes
        return _twisted_root(m, aut, names, notes)
    w = mul(g, delta_word(m, names)) if sigma else g
    fix_class, gens, witness, inner_notes = _fix_inner(m, w, names, "inner by a central element")
    return fix_class, gens, witness, notes + inner_notes


def dihedral_fix(
    m: int, aut: ArtinAutomorphism, names: tuple[str, str] = DEFAULT_NAMES
) -> FixReport:
    """Isomorphism type and generators of the fixed subgroup, with certificates.

    The case analysis (_fix_even, _fix_odd) returns (class, generators,
    witness, notes), and its generators span Fix itself; the report carries
    them in Garside spelling.
    """
    fix = _fix_odd if m % 2 else _fix_even
    fix_class, gens, witness, notes = fix(m, aut, names)
    spelled = tuple(engine(m).spelling(w, names) for w in gens)
    return certified_report(aut, fix_class, spelled, True, witness, notes)
