"""
deligne: finite combinatorial balls of the coset complex, with the
automorphism action and exact fixed-vertex computation.

Vertices are cosets g A_S for S empty, a single generator, or a
finite-coefficient pair; edges realize coset inclusions, and a triangle sits
over every chain g A_empty < g A_s < g A_st.  The complex is locally
infinite, so a ball is materialized by bounding both the combinatorial
radius and the geodesic length of the local-group elements used to step to
neighbours (default twice the edge coefficient, which covers the squared
Garside elements every argument here needs).

Coset equality is decided through canonical representatives (trailing local
letters stripped, dihedral syllables canonicalized); representatives that
stay distinct are compared by the budgeted oracle, and any UNKNOWN outcome
marks the ball DEGRADED rather than silently merging or splitting vertices.

The automorphism action sends g v_S to sigma(iota^e(g)) v_{sigma(S)} and
conjugation acts by left multiplication; a vertex g v_S is fixed by
conj_h . psi exactly when sigma(S) = S and g^-1 h psi(g) lies in A_S, which
is how fixed_vertices decides membership, again with UNKNOWNs surfaced as a
LOWER_BOUND flag instead of being guessed.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field

from .garside import IDENTITY, engine
from .oracle import _context, canonical_form, member_of_parabolic, word_equal
from .presentation import DefiningGraph, GraphError, graph_automorphisms
from .words import (
    ArtinAutomorphism,
    Word,
    format_word,
    free_reduce,
    height,
    inner,
    inv,
    mul,
)


@dataclass(frozen=True)
class DeligneVertex:
    rep: Word
    S: tuple[str, ...]  # sorted; () for the base orbit

    @property
    def vertex_type(self) -> int:
        return len(self.S)

    def label(self) -> str:
        head = format_word(self.rep)
        sub = "".join(self.S) if self.S else "0"
        return f"{head}|{sub}"


@dataclass(frozen=True)
class SimplexShape:
    m: int
    angles: tuple[float, float, float]  # at base, generator, edge vertices
    sides: tuple[float, float, float]  # base-gen, gen-edge, base-edge


def simplex_shape(m: int) -> SimplexShape:
    """Euclidean data of the triangle over one coefficient-m edge.

    Right angle at the generator vertex, angle pi/(2m) at the edge vertex,
    unit side from the base to the generator vertex; the remaining sides come
    from the law of sines.
    """
    if not (isinstance(m, int) and m >= 3):
        raise GraphError("COEFFICIENT_BELOW_3", f"coefficient {m}")
    at_edge = math.pi / (2 * m)
    at_gen = math.pi / 2
    at_base = math.pi - at_edge - at_gen
    base_gen = 1.0
    base_edge = math.sin(at_gen) / math.sin(at_edge)
    gen_edge = math.sin(at_base) / math.sin(at_edge)
    return SimplexShape(m, (at_base, at_gen, at_edge), (base_gen, gen_edge, base_edge))


def _strip_local(graph: DefiningGraph, word: Word, S: tuple[str, ...]) -> Word:
    """Canonical coset representative for w A_S.

    Greedy descent: drop trailing A_S letters, then keep right-multiplying by
    single local letters while the canonical form strictly improves in the
    (length, word) order.  Deterministic, and sound since every move stays in
    the coset.
    """
    word = canonical_form(graph, word)
    if not S:
        return word
    allowed = set(S)
    steps = tuple((s, sign) for s in S for sign in (1, -1))
    for _ in range(24):
        k = len(word)
        while k and word[k - 1][0] in allowed:
            k -= 1
        if k < len(word):
            word = canonical_form(graph, word[:k])
            continue
        best = None
        for letter in steps:
            cand = canonical_form(graph, word + (letter,))
            if (len(cand), cand) < (len(word), word) and (
                best is None or (len(cand), cand) < (len(best), best)
            ):
                best = cand
        if best is None:
            return word
        word = best
    return word


def _vertex_key(graph: DefiningGraph, word: Word, S: tuple[str, ...]):
    return (S, _strip_local(graph, word, S))


def _coset_contains(graph: DefiningGraph, S: tuple[str, ...], u: Word, budget: int) -> str:
    """Whether u lies in A_S, that is g A_S = g u A_S: "EQUAL", "NOT_EQUAL" or "UNKNOWN".

    A base coset compares u with 1 and a generator coset with the power of the
    generator that height forces; an edge coset asks parabolic membership,
    whose NOT_MEMBER is a sound abelianization or Coxeter-image obstruction.
    """
    if len(S) == 2:
        status = member_of_parabolic(graph, u, set(S), budget).status
        return {"MEMBER": "EQUAL", "NOT_MEMBER": "NOT_EQUAL"}.get(status, "UNKNOWN")
    target = ()
    if S:
        k = height(u)
        target = tuple((S[0], 1 if k > 0 else -1) for _ in range(abs(k)))
    return word_equal(graph, u, target, budget).status


def _adjacency(edges) -> dict[int, set[int]]:
    adj: dict[int, set[int]] = {}
    for e in edges:
        a, b = tuple(e)
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    return adj


@dataclass
class DeligneBall:
    graph: DefiningGraph
    radius: int
    local_bound: int | None
    vertices: list[DeligneVertex] = field(default_factory=list)
    index: dict = field(default_factory=dict)  # key -> vid
    dist: dict = field(default_factory=dict)  # vid -> radius layer
    edges: set = field(default_factory=set)  # frozenset pairs of vids
    degraded: bool = False

    def type_vertices(self, k: int):
        return [i for i, v in enumerate(self.vertices) if v.vertex_type == k]

    def triangles(self):
        """Chains base < generator < edge realized inside the ball."""
        adj = _adjacency(self.edges)
        out = []
        for v0 in self.type_vertices(0):
            for v1 in adj.get(v0, ()):
                if self.vertices[v1].vertex_type != 1:
                    continue
                for v2 in adj.get(v1, ()):
                    if self.vertices[v2].vertex_type == 2 and v2 in adj.get(v0, set()):
                        out.append((v0, v1, v2))
        return sorted(out)

    # -- resolution ---------------------------------------------------------
    def resolve(self, word: Word, S, budget: int = 2000) -> int | None:
        """Vertex id of the coset described by (word, S), if in the ball."""
        S = tuple(sorted(S))
        key = _vertex_key(self.graph, word, S)
        if key in self.index:
            return self.index[key]
        target = key[1]
        for vid, vtx in enumerate(self.vertices):
            if vtx.S != S:
                continue
            if _coset_contains(self.graph, S, mul(inv(vtx.rep), target), budget) == "EQUAL":
                return vid
        return None

    def to_json(self, displacements=None) -> dict:
        data = {
            "radius": self.radius,
            "local_bound": self.local_bound,
            "degraded": self.degraded,
            "vertices": [
                {
                    "id": i,
                    "rep": format_word(v.rep),
                    "S": list(v.S),
                    "type": v.vertex_type,
                    "dist": self.dist[i],
                }
                for i, v in enumerate(self.vertices)
            ],
            "edges": sorted(sorted(e) for e in self.edges),
            "triangles": self.triangles(),
        }
        if displacements is not None:
            data["displacement"] = {str(k): v for k, v in sorted(displacements.items())}
        return data

    def dumps(self, **kw) -> str:
        return json.dumps(self.to_json(**kw), sort_keys=True, indent=2)

    def essential_dot(self, highlight=()) -> str:
        """The subgraph of edges between type 1 and type 2 vertices."""
        lines = ["graph essential {"]
        highlight = set(highlight)
        for i, v in enumerate(self.vertices):
            if v.vertex_type == 0:
                continue
            style = ' style=filled fillcolor="gold"' if i in highlight else ""
            lines.append(f'  v{i} [label="{v.label()}"{style}];')
        for e in sorted(sorted(p) for p in self.edges):
            a, b = e
            if self.vertices[a].vertex_type and self.vertices[b].vertex_type:
                lines.append(f"  v{a} -- v{b};")
        lines.append("}")
        return "\n".join(lines)


def build_ball(
    graph: DefiningGraph,
    radius: int,
    local_bound: int | None = None,
) -> DeligneBall:
    """Breadth-first construction of the bounded ball around the base coset.

    Coset deduplication is representative-first: canonical stripped
    representatives collide by hash, and base-orbit candidates that share all
    cheap invariants (height, abelianization, Coxeter image) with an existing
    vertex get a budget-0 oracle check.  An UNKNOWN there creates a fresh
    vertex and marks the ball DEGRADED.
    """
    ball = DeligneBall(graph, radius, local_bound)
    buckets: dict = {}  # (S, invariants) -> [vid, ...], base orbit only
    ctx = _context(graph)

    def local_len(m: int) -> int:
        return local_bound if local_bound is not None else 2 * m

    def add_vertex(word: Word, S, depth: int) -> int:
        S = tuple(sorted(S))
        key = _vertex_key(graph, word, S)
        hit = ball.index.get(key)
        if hit is not None:
            return hit
        rep = key[1]
        bucket_key = None
        if not S:
            bucket_key = ((), height(rep), ctx.abelianization(rep), ctx.image(rep))
            for vid in buckets.get(bucket_key, ()):
                status = _coset_contains(graph, (), mul(inv(ball.vertices[vid].rep), rep), 0)
                if status == "EQUAL":
                    ball.index[key] = vid
                    return vid
                if status == "UNKNOWN":
                    ball.degraded = True
        vid = len(ball.vertices)
        ball.vertices.append(DeligneVertex(rep, S))
        ball.index[key] = vid
        ball.dist[vid] = depth
        if bucket_key is not None:
            buckets.setdefault(bucket_key, []).append(vid)
        return vid

    base = add_vertex((), (), 0)
    frontier = [base]
    for depth in range(1, radius + 1):
        layer: set[int] = set()

        def connect(word, S, cur) -> None:
            vid = add_vertex(word, S, depth)
            if vid == cur:
                return
            if ball.dist[vid] == depth:
                layer.add(vid)
            ball.edges.add(frozenset((cur, vid)))

        for cur in frontier:
            vtx = ball.vertices[cur]
            w, S = vtx.rep, vtx.S
            if len(S) == 0:
                gen_vids = {}
                for s in graph.vertices:
                    gen_vids[s] = add_vertex(w, (s,), depth)
                    connect(w, (s,), cur)
                for s, t, m in graph.edge_list:
                    pair_vid = add_vertex(w, (s, t), depth)
                    connect(w, (s, t), cur)
                    # sibling inclusions w<s> < wA_st complete the triangles
                    ball.edges.add(frozenset((gen_vids[s], pair_vid)))
                    ball.edges.add(frozenset((gen_vids[t], pair_vid)))
            elif len(S) == 1:
                s = S[0]
                coeffs = [
                    int(graph.coefficient(s, t))
                    for t in graph.vertices
                    if t != s and graph.has_edge(s, t)
                ]
                bound = max((local_len(m) for m in coeffs), default=4)
                for k in range(1, bound + 1):
                    for sign in (1, -1):
                        step = tuple((s, sign) for _ in range(k))
                        connect(mul(w, step), (), cur)
                for t in graph.vertices:
                    if t != s and graph.has_edge(s, t):
                        connect(w, (s, t), cur)
            else:
                s, t = S
                eng = engine(int(graph.coefficient(s, t)))
                # the nontrivial elements of the dihedral on S, up to the local bound
                for k, local in eng.ball(local_len(eng.m)).items():
                    if k == IDENTITY:
                        continue
                    wh = mul(w, eng.named(local, S))
                    connect(wh, (), cur)
                    connect(wh, (s,), cur)
                    connect(wh, (t,), cur)
                connect(w, (), cur)
                connect(w, (s,), cur)
                connect(w, (t,), cur)
        frontier = sorted(layer)
    return ball


# ---------------------------------------------------------------------------
# The automorphism action and fixed sets.


def aut_action(aut: ArtinAutomorphism, vertex: DeligneVertex) -> DeligneVertex:
    """conj_h sigma iota^e sends g v_S to h sigma(iota^e(g)) v_{sigma(S)}."""
    image_rep = mul(aut.conj, aut.graph_part(vertex.rep))
    image_S = tuple(sorted(aut.perm(s) for s in vertex.S))
    return DeligneVertex(free_reduce(image_rep), image_S)


def fixed_vertices(
    aut: ArtinAutomorphism, ball: DeligneBall, budget: int = 400
) -> tuple[list[int], bool]:
    """Vertex ids satisfying the coset equation; flag True means LOWER_BOUND.

    g v_S is fixed iff sigma(S) = S and g^-1 h psi(g) lies in A_S.  The fast
    path compares canonical coset keys of the vertex and its image; the
    budgeted oracle settles mismatches, and UNKNOWN verdicts exclude the
    vertex while raising the flag.
    """
    graph = ball.graph
    lower_bound_only = False
    out = []
    for vid, vtx in enumerate(ball.vertices):
        if tuple(sorted(aut.perm(s) for s in vtx.S)) != vtx.S:
            continue
        image_rep = mul(aut.conj, aut.graph_part(vtx.rep))
        image_key = _vertex_key(graph, image_rep, vtx.S)
        if ball.index.get(image_key) == vid:
            out.append(vid)
            continue
        status = _coset_contains(graph, vtx.S, mul(inv(vtx.rep), image_rep), budget)
        if status == "EQUAL":
            out.append(vid)
        elif status == "UNKNOWN":
            lower_bound_only = True
    return out, lower_bound_only


def standard_tree_ball(
    graph_or_ball, h: Word, a: str, radius: int | None = None, **kw
) -> tuple[DeligneBall, list[int]]:
    """Fixed vertices of conjugation by h a h^-1 within a ball.

    Accepts either a graph (a ball is built at the given radius) or an
    existing ball.  The result lies in the essential part: no base-orbit
    vertex can be fixed, which the coset equation certifies via height.
    """
    if isinstance(graph_or_ball, DeligneBall):
        ball = graph_or_ball
    else:
        ball = build_ball(graph_or_ball, radius, **kw)
    aut = inner(ball.graph, mul(h, ((a, 1),), inv(h)))
    fixed, _ = fixed_vertices(aut, ball)
    return ball, fixed


def displacement_field(g: Word, ball: DeligneBall, budget: int = 2000):
    """Combinatorial displacement d(v, g v) per vertex, within the ball.

    Vertices whose image cannot be resolved inside the ball are reported as
    None (OUT_OF_BALL); distances are graph distances in the ball, an upper
    bound for the true combinatorial metric.
    """
    adj = _adjacency(ball.edges)

    def bfs_distance(src: int, dst: int) -> int | None:
        if src == dst:
            return 0
        seen = {src}
        frontier = [src]
        d = 0
        while frontier:
            d += 1
            nxt = []
            for v in frontier:
                for w in adj.get(v, ()):
                    if w == dst:
                        return d
                    if w not in seen:
                        seen.add(w)
                        nxt.append(w)
            frontier = nxt
        return None

    field_out: dict[int, int | None] = {}
    for vid, vtx in enumerate(ball.vertices):
        image = ball.resolve(mul(g, vtx.rep), vtx.S, budget)
        field_out[vid] = None if image is None else bfs_distance(vid, image)
    return field_out


def minset_slice(field_map: dict) -> list[int]:
    finite = {v: d for v, d in field_map.items() if d is not None}
    if not finite:
        return []
    best = min(finite.values())
    return sorted(v for v, d in finite.items() if d == best)


# ---------------------------------------------------------------------------
# Compatibility probe.


def compatibility_probe(
    ball: DeligneBall,
    samples: int = 1000,
    seed: int = 0,
    budget: int = 500,
):
    """Randomized check of psi . (g x) = psi(g) (psi . x) on ball vertices.

    Returns (passes, failures, unresolved); equality of image cosets is
    checked representative-first, then by the oracle.
    """
    graph = ball.graph
    rng = random.Random(seed)
    perms = graph_automorphisms(graph)
    type0 = [ball.vertices[i].rep for i in ball.type_vertices(0)]
    passes = failures = unresolved = 0
    for _ in range(samples):
        conj = rng.choice(type0) if type0 else ()
        aut = ArtinAutomorphism(graph, conj, rng.choice(perms), rng.choice((False, True)))
        g = rng.choice(type0) if type0 else ()
        vtx = ball.vertices[rng.randrange(len(ball.vertices))]
        lhs = aut_action(aut, DeligneVertex(free_reduce(mul(g, vtx.rep)), vtx.S))
        image_of_g = aut(g)
        rhs_vtx = aut_action(aut, vtx)
        rhs = DeligneVertex(free_reduce(mul(image_of_g, rhs_vtx.rep)), rhs_vtx.S)
        if lhs.S != rhs.S:
            failures += 1
            continue
        if lhs.rep == rhs.rep:
            passes += 1
            continue
        status = _coset_contains(graph, lhs.S, mul(inv(lhs.rep), rhs.rep), budget)
        if status == "EQUAL":
            passes += 1
        elif status == "NOT_EQUAL":
            failures += 1
        else:
            unresolved += 1
    return passes, failures, unresolved
