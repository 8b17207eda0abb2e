"""
classifier: the end-to-end fixed-subgroup pipeline for rank >= 3.

Normalize the automorphism to conj_g sigma iota^e, reduce by twisted
conjugation to one of the model cases, decide elliptic against hyperbolic,
and dispatch:

  elliptic    ~ sigma            Artin group over the fixed subgraph, free
                                 producted with one Z per transposed pair
              ~ sigma iota       free, one generator per even transposed pair
              ~ conj_{a^k} sigma Z x free, basis read off the odd component
                                 graph (loops and conjugated centre powers)
              ~ conj_a sigma iota free, loops of the odd component graph with
                                 alternating labels
              ~ dihedral vertex  delegate to the two-generator machinery

  hyperbolic  inversion present  Z spanned by the twisted product
              twisted product conjugate to a power of the hexagonal centre
              of a 3-3-3 triangle, with the matching twist data
                                 the dihedral group <x,y | xyxy = yxyx>
              twisted product commuting with such a centre, with the
              membership conditions
                                 Z^2 (the full centraliser)
              axis inside a standard tree
                                 Z^2
              otherwise          Z

Ellipticity is a semi-decision: ELLIPTIC requires an explicit witness (a
fixed vertex found by bounded twisted-conjugacy search), HYPERBOLIC requires
type evidence for the twisted product, anything else is UNKNOWN.  Every
generator in a report carries a fixedness certificate from the oracle, and
isogredience witnesses conjugate whole reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .dihedral import (
    center_word,
    centralizer_class,
    delta_word,
    dihedral_centralizer,
    dihedral_fix,
)
from .garside import engine
from .oracle import canonical_form, is_fixed, member_of_parabolic, word_equal
from .presentation import (
    DefiningGraph,
    GraphError,
    gamma_a_odd,
    pi1_basis,
    sigma_data,
    spanning_paths,
)
from .report import FixReport, certified_report, normalize_class
from .words import (
    ArtinAutomorphism,
    Word,
    format_word,
    free_reduce,
    height,
    inner,
    inv,
    mul,
    parse_automorphism,
    power,
    support,
)


def rank_bound(n: int) -> int:
    """Uniform bound on the rank of a fixed subgroup, n the number of vertices."""
    if n < 2:
        raise GraphError("RANK", "the bound needs at least two generators")
    return n * n - 2 * n + 2


def normalize_aut(graph: DefiningGraph, spec) -> ArtinAutomorphism:
    if isinstance(spec, ArtinAutomorphism):
        return spec
    return parse_automorphism(graph, spec)


def twisted_z(aut: ArtinAutomorphism) -> Word:
    """g psi(g) ... psi^(n-1)(g) for psi of order n; conjugating it is gamma^n."""
    n = aut.psi_order()
    out: Word = ()
    g = aut.conj
    piece = g
    for _ in range(n):
        out = mul(out, piece)
        piece = aut.graph_part(piece)
    return out


# ---------------------------------------------------------------------------
# Bounded searches.


def _candidate_words(graph: DefiningGraph, max_len: int):
    """All freely reduced words up to max_len, shortest first, deterministic."""
    letters = [(v, s) for v in graph.vertices for s in (1, -1)]
    frontier: list[Word] = [()]
    yield ()
    for _ in range(max_len):
        nxt = []
        for w in frontier:
            for letter in letters:
                if w and w[-1] == (letter[0], -letter[1]):
                    continue
                nw = w + (letter,)
                nxt.append(nw)
                yield nw
        frontier = nxt


@dataclass(frozen=True)
class Reduction:
    case: str  # "BASE_PSI" | "GENERATOR_POWER" | "DIHEDRAL_VERTEX"
    witness: Word  # h with conj_{h^-1} gamma conj_h in model form
    generator: str | None = None
    exponent: int = 0
    edge: tuple[str, str] | None = None
    local_word: Word = ()


def reduce_isogredience(
    aut: ArtinAutomorphism,
    search_len: int = 4,
) -> Reduction | None:
    """Find the model case of an elliptic automorphism by bounded search.

    The three cases correspond to the lowest type of fixed vertex: a base
    vertex gives g = h psi(h)^-1, a generator vertex gives g = h a^k
    psi(h)^-1 with k forced to 1 when the inversion is present, and an edge
    vertex leaves a dihedral restriction.  Cases are tried in that order.
    """
    graph = aut.graph
    g = free_reduce(aut.conj)
    psi = ArtinAutomorphism(graph, (), aut.perm, aut.inversion)
    hg = height(g)

    # case 1: fixed base vertex
    for h in _candidate_words(graph, search_len):
        if not aut.inversion and hg != 0:
            break  # heights obstruct every candidate at once
        if aut.inversion and hg != 2 * height(h):
            continue
        if word_equal(graph, g, mul(h, inv(psi(h))), 0, slack=2).is_equal:
            return Reduction("BASE_PSI", h)

    # case 2: fixed generator vertex
    hit = _conjugate_into_cyclic(psi, g, search_len, 0)
    if hit is not None:
        h, a, k = hit
        if aut.inversion:
            h = mul(h, power(((a, 1),), (k - 1) // 2))
            k = 1
        return Reduction("GENERATOR_POWER", h, generator=a, exponent=k)

    # case 3: single fixed edge vertex
    hit = _conjugate_into_dihedral(psi, g, search_len, 80)
    if hit is not None:
        h, edge, local = hit
        return Reduction("DIHEDRAL_VERTEX", h, edge=edge, local_word=local)
    return None


def _conjugate_into_cyclic(psi: ArtinAutomorphism, z: Word, search_len: int, budget: int):
    """(h, a, k) with h^-1 z psi(h) = a^k for a generator a that psi fixes, or None.

    Only the trivial witness gets ``budget`` oracle expansions; longer
    witnesses are decided by the canonical form alone.  With the inversion
    in psi only odd k can be conjugated to k = 1, so even k is skipped.
    """
    graph = psi.graph
    fixed_gens = [a for a in graph.vertices if psi.perm(a) == a]
    for h in _candidate_words(graph, search_len):
        u = mul(inv(h), z, psi(h))
        k = height(u)
        if k == 0 or (psi.inversion and k % 2 == 0):
            continue
        eq_budget = budget if not h else 0
        for a in fixed_gens:
            if word_equal(graph, u, power(((a, 1),), k), eq_budget, slack=2).is_equal:
                return h, a, k
    return None


def _conjugate_into_dihedral(psi: ArtinAutomorphism, z: Word, search_len: int, budget: int):
    """(h, (s, t), word) with h^-1 z psi(h) in a psi-stable finite-edge parabolic, or None.

    The budget goes to the trivial witness only, as in _conjugate_into_cyclic.
    """
    graph = psi.graph
    pairs = [
        (s, t)
        for s, t, _ in graph.edge_list
        if {psi.perm(s), psi.perm(t)} == {s, t}
    ]
    for h in _candidate_words(graph, search_len):
        u = mul(inv(h), z, psi(h))
        mem_budget = budget if not h else 0
        for s, t in pairs:
            res = member_of_parabolic(graph, u, {s, t}, mem_budget, slack=4)
            if res.status == "MEMBER":
                return h, (s, t), res.rewritten
    return None


def ellipticity(aut: ArtinAutomorphism, search_len: int = 4):
    """("ELLIPTIC", reduction) or ("HYPERBOLIC", evidence) or ("UNKNOWN", None).

    ELLIPTIC is certified by the reduction witness.  HYPERBOLIC is evidence
    based: the twisted product must span at least three generators with no
    conjugation into a cyclic or dihedral parabolic found by words of length
    below search_len; this is sound for the classes handled downstream.
    """
    reduction = reduce_isogredience(aut, search_len)
    if reduction is not None:
        return "ELLIPTIC", reduction
    z = twisted_z(aut)
    if not z:
        return "UNKNOWN", None  # finite order but no witness found
    zc = canonical_form(aut.graph, z)
    if len(support(zc)) >= 3:
        plain = inner(aut.graph, ())
        if _conjugate_into_cyclic(plain, z, search_len - 1, 60) is None and \
           _conjugate_into_dihedral(plain, z, search_len - 1, 60) is None:
            evidence = {
                "support": sorted(support(zc)),
                "no_parabolic_conjugation_within": search_len - 1,
            }
            return "HYPERBOLIC", evidence
    return "UNKNOWN", None


def _conj_all(h: Word, words) -> tuple[Word, ...]:
    return tuple(free_reduce(mul(h, w, inv(h))) for w in words)


# ---------------------------------------------------------------------------
# Elliptic classification.


def _basis_power_case(graph, sigma_aut, a):
    """Generators of the free factor for the conj_{a^k} sigma case."""
    comp = gamma_a_odd(graph, sigma_aut, a, style="power")
    paths = spanning_paths(comp)
    gens: list[Word] = []
    for node in comp.edge_nodes():
        s, t = node[1], node[2]
        m = int(graph.coefficient(s, t))
        zst = center_word(m, (s, t))
        p = paths[node]
        gens.append(free_reduce(mul(p, zst, inv(p))))
    loops = pi1_basis(comp)
    return gens, loops


def classify_elliptic(
    aut: ArtinAutomorphism,
    reduction: Reduction | None = None,
    search_len: int = 4,
) -> FixReport:
    graph = aut.graph
    if reduction is None:
        reduction = reduce_isogredience(aut, search_len)
    if reduction is None:
        raise GraphError("NOT_ELLIPTIC", "no fixed vertex found within the search bound")
    h = reduction.witness
    data = sigma_data(graph, aut.perm)

    if reduction.case == "BASE_PSI":
        if not aut.inversion:
            if aut.perm.is_identity:
                # the identity automorphism: everything is fixed
                return certified_report(
                    aut,
                    normalize_class("ARTIN", 0, graph.vertices, has_edges=bool(graph.edge_list)),
                    tuple(((v, 1),) for v in graph.vertices),
                    True,
                    notes=("identity automorphism",),
                )
            gens = [((s, 1),) for s in data.fixed_vertices]
            gens += [delta_word(int(graph.coefficient(s, t)), (s, t)) for s, t in data.transposed_pairs]
            sub = data.fixed_subgraph
            fix_class = normalize_class(
                "ARTIN_FREE_PRODUCT",
                len(data.transposed_pairs),
                sub.vertices,
                has_edges=bool(sub.edge_list),
            )
            return certified_report(
                aut, fix_class, _conj_all(h, gens), True, witness=h,
                notes=("fixed subgraph plus one Garside generator per transposed pair",),
            )
        # sigma iota: one generator per even transposed pair
        gens = []
        for s, t in data.transposed_pairs:
            m = int(graph.coefficient(s, t))
            if m % 2 == 1:
                continue
            n = m // 2
            st, ts = ((s, 1), (t, 1)), ((t, 1), (s, 1))
            if n % 2 == 0:
                w = mul(power(st, n // 2), power(inv(ts), n // 2))
            else:
                w = mul(
                    ((t, 1),),
                    power(st, (n - 1) // 2),
                    power(inv(ts), (n - 1) // 2),
                    ((s, -1),),
                )
            gens.append(w)
        fix_class = normalize_class("FREE", len(gens))
        return certified_report(
            aut, fix_class, _conj_all(h, gens), True, witness=h,
            notes=("one generator per even transposed pair",),
        )

    if reduction.case == "GENERATOR_POWER":
        a = reduction.generator
        sigma_only = ArtinAutomorphism(graph, (), aut.perm, False)
        if not aut.inversion:
            centre_gens, loops = _basis_power_case(graph, aut.perm, a)
            gens = [((a, 1),)] + centre_gens + loops
            fix_class = normalize_class("Z_CROSS_F", len(centre_gens) + len(loops))
            return certified_report(
                aut, fix_class, _conj_all(h, gens), True, witness=h,
                notes=(
                    "cyclic factor on the fixed generator; free factor from the odd component graph",
                ),
            )
        comp = gamma_a_odd(graph, aut.perm, a, style="inversion")
        loops = pi1_basis(comp)
        fix_class = normalize_class("FREE", len(loops))
        return certified_report(
            aut, fix_class, _conj_all(h, loops), True, witness=h,
            notes=("loops of the odd component graph with alternating labels",),
        )

    # DIHEDRAL_VERTEX: restrict to the two-generator parabolic
    s, t = reduction.edge
    m = int(graph.coefficient(s, t))
    edge = graph.induced((s, t))
    perm = edge.automorphism(tuple(map(aut.perm, edge.vertices)))
    restricted = ArtinAutomorphism(edge, reduction.local_word, perm, aut.inversion)
    sub_report = dihedral_fix(m, restricted, names=tuple(sorted((s, t))))
    gens = _conj_all(h, sub_report.generators)
    return certified_report(
        aut,
        sub_report.fix_class,
        gens,
        sub_report.exact,
        witness=h,
        notes=("restricted to the dihedral vertex group on " + s + t,)
        + sub_report.notes,
    )


# ---------------------------------------------------------------------------
# Exotic dihedral subgroups and hyperbolic classification.


def _all3_triangles(graph: DefiningGraph):
    for tri in combinations(graph.vertices, 3):
        if all(graph.coefficient(u, v) == 3 for u, v in combinations(tri, 2)):
            yield tri


def _hex_centre(tri) -> Word:
    a, b, c = tri
    return tuple((x, 1) for x in (a, b, c, a, b, c))


def _exotic_conjugation(graph, z, search_len):
    """(h, triangle, k) with z = h (abcabc)^k h^-1, or None; k is from height."""
    hz = height(z)
    if hz % 6 != 0:
        return None
    for tri in _all3_triangles(graph):
        zc = _hex_centre(tri)
        k = hz // 6
        if k == 0:
            continue
        for h in _candidate_words(graph, search_len):
            eq_budget = 400 if not h else 0
            if word_equal(graph, z, mul(h, power(zc, k), inv(h)), eq_budget, slack=4).is_equal:
                return h, tri, k
    return None


def _exotic_elements(graph, tri, length: int):
    """Elements of the exotic dihedral subgroup on a 3-3-3 triangle.

    They are enumerated through the abstract <s, t | stst = tsts> in the
    generators s = b^-1, t = babc, then expanded into standard letters.
    """
    a, b, c = tri
    s_word = ((b, -1),)
    t_word = ((b, 1), (a, 1), (b, 1), (c, 1))
    eng = engine(4)
    out = []
    for key, word_idx in eng.ball(length).items():
        word: Word = ()
        for i, sg in word_idx:
            piece = s_word if i == 0 else t_word
            word = mul(word, piece if sg > 0 else inv(piece))
        out.append(word)
    return out


def _sigma_pattern(aut, tri):
    a, b, c = tri
    images = (aut.perm(a), aut.perm(b), aut.perm(c))
    if images == (a, b, c):
        return "id"
    if images == (c, a, b):
        return "cab"  # a->c, b->a, c->b
    if images == (b, c, a):
        return "bca"  # a->b, b->c, c->a
    return None


def classify_hyperbolic(aut: ArtinAutomorphism, search_len: int = 3) -> FixReport:
    graph = aut.graph
    z = twisted_z(aut)

    if aut.inversion:
        return certified_report(
            aut,
            normalize_class("Z"),
            (z,),
            False,
            notes=("inversion present: every fixed element has height zero",),
        )

    # exotic dihedral pattern: the conjugated inner part must be exactly a
    # power of the hexagonal centre times the twist correction
    patterned = [tri for tri in _all3_triangles(graph) if _sigma_pattern(aut, tri) is not None]
    for tri in patterned:
        pattern = _sigma_pattern(aut, tri)
        a, b, c = tri
        zc = _hex_centre(tri)
        correction = {
            "id": (),
            "cab": ((a, 1), (b, 1)),
            "bca": ((c, -1), (b, -1)),
        }[pattern]
        for h in _candidate_words(graph, search_len):
            g_prime = free_reduce(mul(inv(h), aut.conj, aut.graph_part(h)))
            hq = height(g_prime) - height(correction)
            if hq % 6 != 0 or hq == 0:
                continue
            q = hq // 6
            target = mul(power(zc, q), correction)
            eq_budget = 600 if not h else 60
            if word_equal(graph, g_prime, target, eq_budget, slack=4).is_equal:
                gens = _conj_all(h, (((b, 1),), ((a, 1), (b, 1), (c, 1))))
                return certified_report(
                    aut,
                    normalize_class("DIHEDRAL_A4"),
                    gens,
                    True,
                    witness=h,
                    notes=(f"exotic dihedral over the triangle {a}{b}{c}",),
                )

    # transverse plane case: the twisted product commutes with a conjugated
    # hexagonal centre and the twist data lies in the exotic subgroup
    hit = _transverse_centre(graph, z, patterned, search_len, 120, 2)
    if hit is not None:
        h, tri, conj_zc = hit
        a, _, c = tri
        correction = {
            "id": (),
            "cab": ((a, -1),),
            "bca": ((c, 1),),
        }[_sigma_pattern(aut, tri)]
        g_prime = free_reduce(mul(inv(h), aut.conj, aut.graph_part(h)))
        probe = mul(g_prime, correction)
        ok = any(
            word_equal(graph, probe, cand, 60, slack=2).is_equal
            for cand in _exotic_elements(graph, tri, 6)
        )
        if ok:
            return certified_report(
                aut,
                normalize_class("Z2"),
                (z, free_reduce(conj_zc)),
                False,
                witness=h,
                notes=("fixed subgroup is the full centraliser of the twisted product",),
            )
        return certified_report(
            aut,
            normalize_class("Z"),
            (z,),
            False,
            notes=("twisted product commutes with an exotic centre; twist data does not match",),
        )

    # axis inside a standard tree: z commutes with a conjugated generator
    hit = _commuting_generator(graph, z, max(search_len - 1, 1))
    if hit is not None:
        h, a = hit
        gens = (z, free_reduce(mul(h, ((a, 1),), inv(h))))
        return certified_report(
            aut,
            normalize_class("Z2"),
            gens,
            False,
            witness=h,
            notes=("axis contained in a standard tree",),
        )
    return certified_report(
        aut,
        normalize_class("Z"),
        (z,),
        False,
        notes=("no commuting parabolic data found within the search bound",),
    )


def _transverse_centre(graph, z, triangles, search_len, budget, slack):
    """(h, triangle, h abcabc h^-1) for the first conjugated hexagonal centre
    that commutes with z, or None.  Triangles are tried in the given order,
    each with the words h up to length max(search_len - 1, 1); only h = 1
    gets the oracle budget."""
    for tri in triangles:
        zc = _hex_centre(tri)
        for h in _candidate_words(graph, max(search_len - 1, 1)):
            conj_zc = mul(h, zc, inv(h))
            eq_budget = budget if not h else 0
            if word_equal(graph, mul(z, conj_zc), mul(conj_zc, z), eq_budget, slack=slack).is_equal:
                return h, tri, conj_zc
    return None


def _commuting_generator(graph, z, search_len):
    for h in _candidate_words(graph, search_len):
        eq_budget = 40 if not h else 0
        for a in graph.vertices:
            w = mul(h, ((a, 1),), inv(h))
            if word_equal(graph, mul(z, w), mul(w, z), eq_budget, slack=2).is_equal:
                return h, a
    return None


# ---------------------------------------------------------------------------
# Centralizers of inner automorphisms (large type, rank >= 3).


@dataclass(frozen=True)
class CentralizerCase:
    tag: str  # TYPE1_TREE | TYPE2_VERTEX | HYP_AXIS_IN_TREE | HYP_PLAIN | HYP_EXOTIC | HYP_TRANSVERSE
    generators: tuple[Word, ...]
    exact: bool
    witness: Word
    note: str = ""
    subtag: str = ""  # dihedral vertex case: CENTRAL | ELLIPTIC_Z | HYPERBOLIC_Z2
    edge: tuple = ()


def centralizer_case(graph: DefiningGraph, g: Word, search_len: int = 3) -> CentralizerCase:
    """Case analysis of C(g) following the shape of the fixed-set geometry."""
    g = free_reduce(g)
    if not g:
        raise GraphError("TRIVIAL_ELEMENT", "the identity centralizes everything")

    exotic = _exotic_conjugation(graph, g, search_len)
    if exotic is not None:
        h, tri, _ = exotic
        a, b, c = tri
        gens = _conj_all(h, (((b, 1),), ((a, 1), (b, 1), (c, 1))))
        return CentralizerCase(
            "HYP_EXOTIC", gens, True, h,
            f"exotic dihedral centraliser over the triangle {a}{b}{c}",
        )

    plain = inner(graph, ())
    hit = _conjugate_into_cyclic(plain, g, search_len, 60)
    if hit is not None:
        h, a, _ = hit
        centre_gens, loops = _basis_power_case(graph, plain.perm, a)
        gens = _conj_all(h, [((a, 1),)] + centre_gens + loops)
        return CentralizerCase(
            "TYPE1_TREE", gens, True, h, "product of the generator with a free group"
        )

    hit = _conjugate_into_dihedral(plain, g, search_len, 80)
    if hit is not None:
        h, (s, t), local = hit
        m = int(graph.coefficient(s, t))
        tag, gens, exact, note = dihedral_centralizer(m, local, names=tuple(sorted((s, t))))
        return CentralizerCase(
            "TYPE2_VERTEX", _conj_all(h, gens), exact, h,
            f"dihedral vertex case: {note}", subtag=tag, edge=tuple(sorted((s, t))),
        )

    hit = _transverse_centre(graph, g, _all3_triangles(graph), search_len, 200, 4)
    if hit is not None:
        h, _, conj_zc = hit
        return CentralizerCase(
            "HYP_TRANSVERSE", (g, free_reduce(conj_zc)), False, h, "commutes with an exotic centre"
        )

    hit = _commuting_generator(graph, g, search_len)
    if hit is not None:
        h, a = hit
        return CentralizerCase(
            "HYP_AXIS_IN_TREE",
            (g, free_reduce(mul(h, ((a, 1),), inv(h)))),
            False,
            h,
            "axis in a standard tree",
        )
    return CentralizerCase("HYP_PLAIN", (g,), False, (), "no commuting data found")


# ---------------------------------------------------------------------------
# Top level.


def dihedral_edge(graph) -> int | None:
    """The coefficient of a one-edge graph, which classify hands to dihedral_fix
    (reading no search length); None for every other graph."""
    if len(graph.vertices) == 2 and graph.edge_list:
        return graph.edge_list[0][2]
    return None


def classify(aut: ArtinAutomorphism, search_len: int = 4) -> FixReport:
    """Full pipeline: ellipticity decision, case dispatch, certified report."""
    graph = aut.graph
    m = dihedral_edge(graph)
    if m is not None:
        return dihedral_fix(m, aut, names=graph.vertices)
    if aut.perm.is_identity and not aut.inversion:
        g = free_reduce(aut.conj)
        if not g:
            return classify_elliptic(aut, Reduction("BASE_PSI", ()))
        case = centralizer_case(graph, g, max(search_len - 1, 2))
        if case.tag == "TYPE1_TREE":
            fix_class = normalize_class("Z_CROSS_F", len(case.generators) - 1)
        elif case.tag == "TYPE2_VERTEX":
            fix_class = centralizer_class(case.subtag, case.edge)
        else:
            fix_class = normalize_class(
                {
                    "HYP_EXOTIC": "DIHEDRAL_A4",
                    "HYP_TRANSVERSE": "Z2",
                    "HYP_AXIS_IN_TREE": "Z2",
                    "HYP_PLAIN": "Z",
                }[case.tag]
            )
        notes = (f"centralizer case {case.tag}: {case.note}",)
        if case.tag in ("HYP_TRANSVERSE", "HYP_AXIS_IN_TREE", "HYP_PLAIN"):
            notes += ("case analysis is search-bounded; certificates are exact",)
        return certified_report(
            aut, fix_class, case.generators, case.exact, witness=case.witness,
            notes=notes,
        )
    state, data = ellipticity(aut, search_len)
    if state == "ELLIPTIC":
        return classify_elliptic(aut, data, search_len)
    if state == "HYPERBOLIC":
        return classify_hyperbolic(aut, max(search_len - 1, 2))
    return certified_report(
        aut,
        normalize_class("Z"),
        (twisted_z(aut),),
        False,
        notes=("UNKNOWN ellipticity: only the twisted product is certified",),
    )


# ---------------------------------------------------------------------------
# Verification.


def verify_report(aut: ArtinAutomorphism, report: FixReport, budget: int = 20_000):
    """Re-check a report: fixedness, the rank bound, and tag relations.

    Returns (passed, checks) where checks is a list of (name, ok, detail).
    """
    graph = aut.graph
    checks = []
    for w in report.generators:
        verdict = is_fixed(aut, w, budget)
        checks.append((f"fixed {format_word(w)}", verdict.is_equal, verdict.method))
    bound = rank_bound(max(len(graph.vertices), 2))
    checks.append(
        (f"rank {len(report.generators)} <= {bound}", len(report.generators) <= bound, "")
    )
    tag = report.fix_class.tag
    if tag == "Z2" and len(report.generators) == 2:
        u, v = report.generators
        verdict = word_equal(graph, mul(u, v), mul(v, u), budget)
        checks.append(("generators commute", verdict.is_equal, verdict.method))
    if tag == "DIHEDRAL_A4" and len(report.generators) == 2:
        g1, g2 = report.generators
        s, t = inv(g1), mul(g1, g2)
        lhs = mul(s, t, s, t)
        rhs = mul(t, s, t, s)
        verdict = word_equal(graph, lhs, rhs, budget)
        checks.append(("dihedral relation stst = tsts", verdict.is_equal, verdict.method))
    if tag in ("ARTIN", "ARTIN_FREE_PRODUCT"):
        sub = report.fix_class.subgraph
        wit = report.witness
        base = {s: free_reduce(mul(wit, ((s, 1),), inv(wit))) for s in sub}
        for s, t in combinations(sub, 2):
            m = graph.coefficient(s, t)
            if m == float("inf"):
                continue
            m = int(m)
            u, v = base[s], base[t]
            lhs = mul(*[(u, v)[i % 2] for i in range(m)])
            rhs = mul(*[(v, u)[i % 2] for i in range(m)])
            verdict = word_equal(graph, lhs, rhs, budget)
            checks.append((f"braid relation {s}{t}", verdict.is_equal, verdict.method))
    passed = all(ok for _, ok, _ in checks)
    return passed, checks
