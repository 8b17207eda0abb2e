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
      conjugated vertex stabiliser), Z^2 for hyperbolic w (a minimal axis
      element together with the centre);
  inversion (AB, or odd m with iota): {1} at finite order, else Z generated
      by a root of the twisted product g . sigma iota(g);
  BG: at finite order Z, the conjugated stabiliser of a fixed vertex, or the
      centre when only an inverted edge midpoint is fixed; else Z^2, the
      centraliser of the squared inner part;
  AG: at finite order Z, the axis generator picked by the residual power
      at a fixed vertex; else the root of the twisted product, as for AB.
"""

from __future__ import annotations

from dataclasses import dataclass

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
)

_ROOT_SEARCH = 8  # length of the brute fixed-element scan behind a cyclic root


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


def _t_exponent(m: int, word: Word, names) -> int:
    """Exponent sum of t in the HNN letters; defined for even m."""
    n = m // 2
    total = 0
    for kind, val in hnn.bs_tokens(hnn.bs_from_artin(n, word, names)):
        if kind == "t":
            total += val
    return total


def _axis_minimal(m: int, w: Word, names):
    """Minimal-translation element commuting with a hyperbolic w, by a radius-7 ball scan.

    Returns (word, translation, provably_minimal).  Minimality is certain when
    the translation is 1 (even tree) or 2 (odd, bipartite tree), or when a
    parity invariant rules out a smaller root; otherwise the flag is False.
    """
    eng = engine(m)
    wkey = eng.element(w, names)
    best = None
    for key, word_idx in eng.ball(7).items():
        if key == (0, ()) or eng.mul(key, wkey) != eng.mul(wkey, key):
            continue
        cand = eng.named(word_idx, names)
        ell = tree_translation(m, cand, names)
        if ell == 0:
            continue
        # prefer short, positively signed representatives
        style = tuple((i, 0 if s > 0 else 1) for i, s in word_idx)
        entry = (ell, len(word_idx), style, cand)
        if best is None or entry < best:
            best = entry
    if best is None:
        ell_w = tree_translation(m, w, names)
        return w, ell_w, False
    ell, _, _, cand = best
    if m % 2 == 1:
        proven = ell == 2
    else:
        proven = ell == 1 or (
            ell == 2 and (height(cand) % 2 == 1 or _t_exponent(m, cand, names) % 2 == 1)
        )
    return cand, ell, proven


def _centralizer(m: int, g: Word, names):
    """C(g) by the action of g on the tree: (kind, generators, exact, witness, translation).

    kind is CENTRAL (the whole group), ELLIPTIC_Z (the stabiliser of the
    fixed vertex, conjugated by the witness h) or HYPERBOLIC_Z2 (a minimal
    axis element and the centre, with the axis translation; exact when that
    element is provably minimal).  Witness and translation are () and None
    where they do not apply.
    """
    whole = (((names[0], 1),), ((names[1], 1),))
    ab = ((names[0], 1), (names[1], 1))
    core = None
    if m % 2 == 0:
        n = m // 2
        e = hnn.bs_from_artin(n, g, names)
        if hnn.bs_is_central(n, e):
            return "CENTRAL", whole, True, (), None
        data = hnn.bs_elliptic_data(n, e)
        if data is not None:
            h = hnn.bs_to_artin(n, data[0], names)
            core = ab
    else:
        e = am.am_from_artin(m, g, names)
        if am.am_is_central(m, e):
            return "CENTRAL", whole, True, (), None
        data = am.am_elliptic_data(m, e)
        if data is not None and data[1] != "z":
            h = am.am_to_artin(m, data[0], names)
            core = delta_word(m, names) if data[1] == "x" else ab
    if core is not None:
        return "ELLIPTIC_Z", (free_reduce(mul(h, core, inv(h))),), True, h, None
    axis, ell, proven = _axis_minimal(m, g, names)
    return "HYPERBOLIC_Z2", (axis, center_word(m, names)), proven, (), ell


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
    kind, gens, exact, _, ell = _centralizer(m, g, names)
    note = {"CENTRAL": "central element", "ELLIPTIC_Z": "vertex stabiliser"}.get(
        kind, f"axis translation {ell}"
    )
    return kind, gens, exact, note


# ---------------------------------------------------------------------------
# Roots of cyclic fixed subgroups.


def _refine_cyclic(m: int, aut: ArtinAutomorphism, z0: Word, names):
    """Smallest fixed element generating every ball-fixed element, plus z0.

    Returns (generator, exact, note).  Exactness uses the tree parity
    obstructions where they apply; otherwise the generator is only known to
    span the fixed elements seen in the search ball.
    """
    eng = engine(m)
    fixed = brute_fixed(m, aut, _ROOT_SEARCH, names)
    fixed = [w for w in fixed if w]
    z0 = free_reduce(z0)
    candidates = fixed + ([z0] if z0 not in fixed else [])
    targets = {eng.element(w, names) for w in candidates}
    for r in candidates:
        if targets <= set(_powers(eng, eng.element(r, names), 64)):
            ell = tree_translation(m, r, names)
            if m % 2 == 1:
                exact = ell == 2
                note = "bipartite tree forbids a proper root" if exact else ""
            else:
                exact = ell == 2 and aut.inversion
                note = (
                    "a proper root would translate by 1 and have odd height"
                    if exact
                    else ""
                )
            if not exact:
                note = f"no proper root within the length-{_ROOT_SEARCH} ball"
            return r, exact, note
    return z0, False, "fixed elements in the ball are not all powers of one element"


def _twisted_root(m: int, aut: ArtinAutomorphism, names, notes=()):
    """Fix of an infinite-order AB, AG or odd inversion: Z, by a root of g . sigma iota(g)."""
    g = aut.conj
    gen, exact, note = _refine_cyclic(m, aut, mul(g, aut.graph_part(g)), names)
    return normalize_class("Z"), (gen,), exact, (), notes + (note,)


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
    kind, gens, exact, witness, ell = _centralizer(m, w, names)
    notes = {"CENTRAL": (central_note,), "ELLIPTIC_Z": ()}.get(
        kind, (f"axis element of translation length {ell}",)
    )
    return centralizer_class(kind, names), gens, exact, witness, notes


def _fix_even(m: int, aut: ArtinAutomorphism, names):
    n = m // 2
    cls = outer_class(m, aut, names)
    if cls.tag == "ID":
        return _fix_inner(m, aut.conj, names, "inner by a central element: the identity automorphism")

    finite = is_finite_order(m, aut, names)
    if cls.tag in ("AB", "AG") and not finite:
        return _twisted_root(m, aut, names)
    if cls.tag == "AB":
        return normalize_class("TRIVIAL"), (), True, (), ()
    delta = delta_word(m, names)
    if not finite:  # BG
        h0_artin = hnn.bs_to_artin(n, _squared_inner(n, cls), names)
        axis, ell, proven = _axis_minimal(m, h0_artin, names)
        return (
            normalize_class("Z2"),
            (axis, delta),
            proven,
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
            True,
            (),
            ("only an inverted edge midpoint is fixed",),
        )
    rep = hnn.vertex_rep(n, key)
    h = hnn.bs_to_artin(n, rep, names)
    if cls.tag == "BG":
        gen = free_reduce(mul(h, ((names[0], 1), (names[1], 1)), inv(h)))
        return normalize_class("Z"), (gen,), True, h, ()
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
        True,
        h,
        (f"axis generator for residual power k={k}, n={n}",),
    )


def _fix_odd(m: int, aut: ArtinAutomorphism, names):
    g, sigma, inversion = _split_aut(aut)
    notes = ("odd coefficient: the graph swap is inner by the Garside element",) if sigma else ()
    if inversion:
        if is_finite_order(m, aut, names):
            return normalize_class("TRIVIAL"), (), True, (), notes
        return _twisted_root(m, aut, names, notes)
    w = mul(g, delta_word(m, names)) if sigma else g
    fix_class, gens, exact, witness, inner_notes = _fix_inner(m, w, names, "inner by a central element")
    return fix_class, gens, exact, witness, notes + inner_notes


def dihedral_fix(
    m: int, aut: ArtinAutomorphism, names: tuple[str, str] = DEFAULT_NAMES
) -> FixReport:
    """Isomorphism type and generators of the fixed subgroup, with certificates.

    The case analysis (_fix_even, _fix_odd) returns (class, generators, exact,
    witness, notes); the report carries the generators in Garside spelling.
    """
    fix = _fix_odd if m % 2 else _fix_even
    fix_class, gens, exact, witness, notes = fix(m, aut, names)
    spelled = tuple(engine(m).spelling(w, names) for w in gens)
    return certified_report(aut, fix_class, spelled, exact, witness, notes)
