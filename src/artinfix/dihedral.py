"""
dihedral: complete fixed-subgroup machinery for two-generator Artin groups.

Everything here is exact.  Equality routes through the Garside normal form;
tree geometry routes through the Britton form of <x, t | t x^n t^-1 = x^n>
for even coefficients and through the amalgam form of <x, y | x^2 = y^m> for
odd ones.  The classification of an automorphism conj_g . sigma^d . iota^e
goes by its outer class in tree coordinates:

  even m = 2n:  sigma = conj_t . BG,  iota = conj_t . AB,  sigma iota = AG,
  odd  m:       sigma is inner (conjugation by the Garside element),

after which finite order is equivalent to the squared inner part acting
elliptically, and each case has a closed-form fixed subgroup: the whole
group, {1}, Z generated by a vertex generator or a twisted product, or Z^2
given by a minimal axis element together with the centre.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import amalgam as am
from . import hnn
from .garside import IDENTITY, engine
from .presentation import DefiningGraph, GraphError, validate_graph
from .report import FixReport, certified_report, normalize_class
from .words import (
    ArtinAutomorphism,
    Word,
    free_reduce,
    height,
    inv,
    mul,
)

DEFAULT_NAMES = ("a", "b")


def edge_graph(m: int, names: tuple[str, str] = DEFAULT_NAMES) -> DefiningGraph:
    return validate_graph([(names[0], names[1], m)])


def delta_word(m: int, names: tuple[str, str] = DEFAULT_NAMES) -> Word:
    """The Garside element: the alternating product of m letters."""
    return tuple((names[i % 2], 1) for i in range(m))


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


def _to_indices(word: Word, names) -> list[tuple[int, int]]:
    lookup = {names[0]: 0, names[1]: 1}
    try:
        return [(lookup[n], s) for n, s in word]
    except KeyError as exc:
        raise GraphError("UNKNOWN_GENERATOR", f"{exc} not on the edge") from exc


def garside_nf(m: int, word: Word, names: tuple[str, str] = DEFAULT_NAMES) -> GarsideNF:
    eng = engine(m)
    elt = eng.from_letters(_to_indices(word, names))
    spelling = tuple((names[i], s) for i, s in eng.spell(elt))
    return GarsideNF(m, elt[0], elt[1], spelling)


def nf_key(m: int, word: Word, names: tuple[str, str] = DEFAULT_NAMES):
    eng = engine(m)
    return eng.from_letters(_to_indices(word, names))


def words_equal(m: int, u: Word, v: Word, names: tuple[str, str] = DEFAULT_NAMES) -> bool:
    return nf_key(m, u, names) == nf_key(m, v, names)


# ---------------------------------------------------------------------------
# Presentation conversions.


def convert(m: int, word: Word, direction: str, names: tuple[str, str] = DEFAULT_NAMES) -> Word:
    """Convert between the Artin presentation and the tree presentation.

    Directions "artin_to_bs"/"bs_to_artin" require even m and use letters
    x, t; "artin_to_torus"/"torus_to_artin" require odd m and use x, y.
    """
    if direction in ("artin_to_bs", "bs_to_artin"):
        if m % 2:
            raise GraphError("PARITY_MISMATCH", "the HNN form needs even m")
        n = m // 2
        if direction == "artin_to_bs":
            elt = hnn.bs_from_artin(n, word, names)
            out = []
            for kind, val in hnn.bs_tokens(elt):
                out.extend([(kind, 1 if val > 0 else -1)] * abs(val))
            return free_reduce(out)
        tokens = []
        for name, sign in word:
            if name not in ("x", "t"):
                raise GraphError("UNKNOWN_GENERATOR", f"{name} not in x, t")
            tokens.append((name, sign))
        return hnn.bs_to_artin(n, hnn.bs_from_tokens(n, tokens), names)
    if direction in ("artin_to_torus", "torus_to_artin"):
        if m % 2 == 0:
            raise GraphError("PARITY_MISMATCH", "the amalgam form needs odd m")
        if direction == "artin_to_torus":
            elt = am.am_from_artin(m, word, names)
            c, syls = elt
            out = [("y", 1 if c > 0 else -1)] * (abs(c) * m)
            for kind, e in syls:
                out.extend([(kind, 1 if e > 0 else -1)] * abs(e))
            return free_reduce(out)
        tokens = []
        for name, sign in word:
            if name not in ("x", "y"):
                raise GraphError("UNKNOWN_GENERATOR", f"{name} not in x, y")
            tokens.append((name, sign))
        return am.am_to_artin(m, am.am_from_tokens(m, tokens), names)
    raise GraphError("PARSE", f"unknown direction {direction}")


# ---------------------------------------------------------------------------
# Outer classes in tree coordinates.


@dataclass(frozen=True)
class BSAutClass:
    tag: str  # "ID" | "AB" | "BG" | "AG"
    inner: hnn.BSElement  # w with the automorphism equal to conj_w . tag

    def aut(self, n: int) -> hnn.BSAut:
        return hnn.bs_inner_psi(n, self.inner, self.tag)

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
    """
    tree = outer_class(2 * n, aut, names).tree(n)
    start, near = _fixed_vertex_search(n, tree, radius)
    midpoints = set()
    if start is None:
        for key in near:
            image = tree.vertex_image(key)
            rep = hnn.vertex_rep(n, key)
            for i in range(n):
                g = hnn.bs_mul(n, rep, hnn.bs_from_tokens(n, [("x", i)]))
                top = hnn.vertex_key(n, hnn.bs_mul(n, g, hnn.bs_from_tokens(n, [("t", 1)])))
                ekey = hnn.edge_key(n, g)
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
    seen = set()
    for key in order:
        rep = hnn.vertex_rep(n, key)
        for i in range(n):
            g = hnn.bs_mul(n, rep, hnn.bs_from_tokens(n, [("x", i)]))
            ekey = hnn.edge_key(n, g)
            if ekey in seen:
                continue
            seen.add(ekey)
            top = hnn.vertex_key(n, hnn.bs_mul(n, g, hnn.bs_from_tokens(n, [("t", 1)])))
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
        (i, s): eng.from_letters(_to_indices(aut(((names[i], s),)), names))
        for i in (0, 1)
        for s in (1, -1)
    }
    images = {(): IDENTITY}
    out = []
    for elt, word_idx in sorted(eng.ball(length).items(), key=lambda item: len(item[1])):
        if word_idx:
            images[word_idx] = eng.mul(images[word_idx[:-1]], letter_image[word_idx[-1]])
        if images[word_idx] == elt:
            out.append((len(word_idx), word_idx, tuple((names[i], s) for i, s in word_idx)))
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
    gens = [eng.from_letters(_to_indices(w, names)) for w in generators if free_reduce(w)]
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
    wkey = eng.from_letters(_to_indices(w, names))
    best = None
    for key, word_idx in eng.ball(7).items():
        if key == (0, ()) or eng.mul(key, wkey) != eng.mul(wkey, key):
            continue
        cand = tuple((names[i], s) for i, s in word_idx)
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


def dihedral_centralizer(m: int, g: Word, names: tuple[str, str] = DEFAULT_NAMES):
    """Centralizer of a nontrivial element: (tag, generators, exact, note)."""
    g = free_reduce(g)
    if not g:
        raise GraphError("TRIVIAL_ELEMENT", "the identity has the whole group")
    delta = delta_word(m, names)
    zc = center_word(m, names)
    if m % 2 == 0:
        n = m // 2
        e = hnn.bs_from_artin(n, g, names)
        if hnn.bs_is_central(n, e):
            return "CENTRAL", (((names[0], 1),), ((names[1], 1),)), True, "central element"
        data = hnn.bs_elliptic_data(n, e)
        if data is not None:
            conj, _ = data
            h = hnn.bs_to_artin(n, conj, names)
            gen = mul(h, ((names[0], 1), (names[1], 1)), inv(h))
            return "ELLIPTIC_Z", (free_reduce(gen),), True, "vertex stabiliser"
        axis, ell, proven = _axis_minimal(m, g, names)
        return "HYPERBOLIC_Z2", (axis, delta), proven, f"axis translation {ell}"
    e = am.am_from_artin(m, g, names)
    if am.am_is_central(m, e):
        return "CENTRAL", (((names[0], 1),), ((names[1], 1),)), True, "central element"
    data = am.am_elliptic_data(m, e)
    if data is not None and data[1] != "z":
        conj, kind, _ = data
        h = am.am_to_artin(m, conj, names)
        core = delta if kind == "x" else ((names[0], 1), (names[1], 1))
        gen = mul(h, core, inv(h))
        return "ELLIPTIC_Z", (free_reduce(gen),), True, "vertex stabiliser"
    axis, ell, proven = _axis_minimal(m, g, names)
    return "HYPERBOLIC_Z2", (axis, zc), proven, f"axis translation {ell}"


# ---------------------------------------------------------------------------
# Roots of cyclic fixed subgroups.


def _refine_cyclic(m: int, aut: ArtinAutomorphism, z0: Word, names, search: int = 8):
    """Smallest fixed element generating every ball-fixed element, plus z0.

    Returns (generator, exact, note).  Exactness uses the tree parity
    obstructions where they apply; otherwise the generator is only known to
    span the fixed elements seen in the search ball.
    """
    eng = engine(m)
    fixed = brute_fixed(m, aut, search, names)
    fixed = [w for w in fixed if w]
    z0 = free_reduce(z0)
    candidates = fixed + ([z0] if z0 not in fixed else [])
    targets = {eng.from_letters(_to_indices(w, names)) for w in candidates}

    def gen_ok(r: Word) -> bool:
        rkey = eng.from_letters(_to_indices(r, names))
        seen = {(0, ())}
        for sign in (1, -1):
            acc = (0, ())
            step = rkey if sign > 0 else eng.inv(rkey)
            for _ in range(64):
                acc = eng.mul(acc, step)
                seen.add(acc)
        return targets <= seen

    for r in candidates:
        if gen_ok(r):
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
                note = f"no proper root within the length-{search} ball"
            return r, exact, note
    return z0, False, "fixed elements in the ball are not all powers of one element"


# ---------------------------------------------------------------------------
# The fixed-subgroup classification.


def _spell(m: int, names, words) -> tuple[Word, ...]:
    """Garside spellings of the words, the form in which reports carry them."""
    eng = engine(m)
    return tuple(
        tuple((names[i], s) for i, s in eng.spell(eng.from_letters(_to_indices(w, names))))
        for w in words
    )


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
    given radius caps the search further.  Returns (key or None, ball order).
    """
    base = hnn.vertex_key(n, hnn.BS_IDENTITY)
    reach = (len(tree.vertex_image(base)[2]) + 1) // 2
    if radius is not None:
        reach = min(radius, reach)
    order, _ = hnn.tree_ball(n, reach)
    for key in order:
        if tree.vertex_image(key) == key:
            return key, order
    return None, order


def _fix_even(m: int, aut: ArtinAutomorphism, names):
    n = m // 2
    cls = outer_class(m, aut, names)
    delta = delta_word(m, names)
    g = aut.conj

    if cls.tag == "ID":
        w = cls.inner
        if hnn.bs_is_central(n, w):
            return (
                normalize_class("ARTIN", 0, names, has_edges=True),
                (((names[0], 1),), ((names[1], 1),)),
                True,
                (),
                ("inner by a central element: the identity automorphism",),
            )
        data = hnn.bs_elliptic_data(n, w)
        if data is not None:
            conj, _ = data
            h = hnn.bs_to_artin(n, conj, names)
            gen = free_reduce(mul(h, ((names[0], 1), (names[1], 1)), inv(h)))
            return normalize_class("Z"), (gen,), True, h, ()
        axis, ell, proven = _axis_minimal(m, g, names)
        return (
            normalize_class("Z2"),
            (axis, delta),
            proven,
            (),
            (f"axis element of translation length {ell}",),
        )

    finite = is_finite_order(m, aut, names)

    if cls.tag == "AB":
        if finite:
            return normalize_class("TRIVIAL"), (), True, (), ()
        z0 = mul(g, aut.graph_part(g))
        gen, exact, note = _refine_cyclic(m, aut, z0, names)
        return normalize_class("Z"), (gen,), exact, (), (note,)

    if cls.tag == "BG":
        if finite:
            key, _ = _fixed_vertex_search(n, cls.tree(n))
            if key is not None:
                h = hnn.bs_to_artin(n, hnn.vertex_rep(n, key), names)
                gen = free_reduce(mul(h, ((names[0], 1), (names[1], 1)), inv(h)))
                return normalize_class("Z"), (gen,), True, h, ()
            return (
                normalize_class("Z"),
                (delta,),
                True,
                (),
                ("only an inverted edge midpoint is fixed",),
            )
        h0 = _squared_inner(n, cls)
        h0_artin = hnn.bs_to_artin(n, h0, names)
        axis, ell, proven = _axis_minimal(m, h0_artin, names)
        return (
            normalize_class("Z2"),
            (axis, delta),
            proven,
            (),
            (f"centraliser of the squared inner part, axis translation {ell}",),
        )

    # AG
    if finite:
        key, _ = _fixed_vertex_search(n, cls.tree(n))
        if key is None:
            raise GraphError(
                "NO_FIXED_VERTEX", "orientation-preserving finite order fixes a vertex"
            )
        rep = hnn.vertex_rep(n, key)
        u = hnn.bs_mul(n, hnn.bs_inv(n, rep), cls.inner, hnn.bs_psi(n, "AG").apply(rep))
        if u[1]:
            raise GraphError(
                "BASE_VERTEX_MOVED", "the reduced automorphism must fix the base vertex"
            )
        k = u[0]
        s = _alpha_gamma_axis(n, k)
        h = hnn.bs_to_artin(n, rep, names)
        gen = free_reduce(mul(h, hnn.bs_to_artin(n, s, names), inv(h)))
        return (
            normalize_class("Z"),
            (gen,),
            True,
            h,
            (f"axis generator for residual power k={k}, n={n}",),
        )
    z0 = mul(g, aut.graph_part(g))
    gen, exact, note = _refine_cyclic(m, aut, z0, names)
    return normalize_class("Z"), (gen,), exact, (), (note,)


def _fix_odd(m: int, aut: ArtinAutomorphism, names):
    delta = delta_word(m, names)
    zc = center_word(m, names)
    g, sigma, inversion = _split_aut(aut)
    w = mul(g, delta) if sigma else g
    notes = ("odd coefficient: the graph swap is inner by the Garside element",) if sigma else ()

    if not inversion:
        e = am.am_from_artin(m, w, names)
        if am.am_is_central(m, e):
            return (
                normalize_class("ARTIN", 0, names, has_edges=True),
                (((names[0], 1),), ((names[1], 1),)),
                True,
                (),
                notes + ("inner by a central element",),
            )
        data = am.am_elliptic_data(m, e)
        if data is not None and data[1] != "z":
            conj, kind, _ = data
            h = am.am_to_artin(m, conj, names)
            core = delta if kind == "x" else ((names[0], 1), (names[1], 1))
            gen = free_reduce(mul(h, core, inv(h)))
            return normalize_class("Z"), (gen,), True, h, notes
        axis, ell, proven = _axis_minimal(m, w, names)
        return (
            normalize_class("Z2"),
            (axis, zc),
            proven,
            (),
            notes + (f"axis element of translation length {ell}",),
        )

    iota_w = tuple((nm, -sg) for nm, sg in w)
    h0 = am.am_mul(m, am.am_from_artin(m, w, names), am.am_from_artin(m, iota_w, names))
    if am.am_is_elliptic(m, h0):
        return normalize_class("TRIVIAL"), (), True, (), notes
    z0 = mul(g, aut.graph_part(g))
    gen, exact, note = _refine_cyclic(m, aut, z0, names)
    return normalize_class("Z"), (gen,), exact, (), notes + (note,)


def dihedral_fix(
    m: int, aut: ArtinAutomorphism, names: tuple[str, str] = DEFAULT_NAMES
) -> FixReport:
    """Isomorphism type and generators of the fixed subgroup, with certificates.

    The case analysis (_fix_even, _fix_odd) returns (class, generators, exact,
    witness, notes); the report carries the generators in Garside spelling.
    """
    fix = _fix_odd if m % 2 else _fix_even
    fix_class, gens, exact, witness, notes = fix(m, aut, names)
    return certified_report(aut, fix_class, _spell(m, names, gens), exact, witness, notes)
