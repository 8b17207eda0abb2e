"""
presentation: defining graphs of large-type Artin groups and their symmetries.

A defining graph is a finite simplicial graph whose vertices name the standard
generators and whose edges carry integer coefficients m >= 3 (large type).  A
missing edge is read as coefficient infinity.  The total order on vertices is
lexicographic on their names; it pins down every edge-labelling convention used
downstream (spanning trees, loop words, Garside-element spellings).

Besides validation and label-preserving automorphism enumeration, this module
builds the derived graphs from which free bases of fixed subgroups are read
off: the data of a graph automorphism (fixed vertices, transposed pairs), and
the barycentric "odd component" graph, cut along even-coefficient edge
vertices, with its two directed edge-labelling conventions.

It sits on words, the bottom layer, and re-exports its GraphError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations

from .words import GraphError, delta_word, free_reduce, inv

INFINITY = math.inf


@dataclass(frozen=True)
class DefiningGraph:
    """Labelled simplicial graph; vertices in lexicographic order."""

    vertices: tuple[str, ...]
    edge_list: tuple[tuple[str, str, int], ...]  # (u, v, m) with u < v, m >= 3
    _coeff: dict[tuple[str, str], int] = field(
        default=None, repr=False, compare=False, hash=False
    )
    # the word oracle's per-graph tables and memos, built on first use
    _context: object = field(
        default=None, init=False, repr=False, compare=False, hash=False
    )

    def __post_init__(self):
        object.__setattr__(
            self, "_coeff", {(u, v): m for u, v, m in self.edge_list}
        )

    def coefficient(self, u: str, v: str) -> float:
        if u == v:
            raise GraphError("LOOP_EDGE", f"coefficient of {u} with itself")
        key = (u, v) if u < v else (v, u)
        return self._coeff.get(key, INFINITY)

    def has_edge(self, u: str, v: str) -> bool:
        return self.coefficient(u, v) is not INFINITY

    def induced(self, vertex_set) -> "DefiningGraph":
        vs = tuple(sorted(v for v in self.vertices if v in set(vertex_set)))
        es = tuple(
            (u, v, m) for u, v, m in self.edge_list if u in vs and v in vs
        )
        return DefiningGraph(vs, es)

    def automorphism(self, images=None) -> "GraphAutomorphism":
        """The automorphism sending vertices[i] to images[i]; the identity by default."""
        return GraphAutomorphism(self, self.vertices if images is None else images)

    def dot(self, name: str = "G") -> str:
        lines = [f"graph {name} {{"]
        for v in self.vertices:
            lines.append(f'  "{v}";')
        for u, v, m in self.edge_list:
            lines.append(f'  "{u}" -- "{v}" [label="{m}"];')
        lines.append("}")
        return "\n".join(lines)


def build_graph(edges, extra_vertices=()) -> DefiningGraph:
    """Validate an edge list ((u, v, m), ...) into a DefiningGraph."""
    seen: dict[tuple[str, str], int] = {}
    names = set(extra_vertices)
    for u, v, m in edges:
        if u == v:
            raise GraphError("LOOP_EDGE", f"edge {u}--{v}")
        if not isinstance(m, int) or m < 3:
            raise GraphError(
                "COEFFICIENT_BELOW_3", f"edge {u}--{v} has coefficient {m}"
            )
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise GraphError("DUPLICATE_EDGE", f"edge {u}--{v} repeated")
        seen[key] = m
        names.update(key)
    vertices = tuple(sorted(names))
    edge_list = tuple((u, v, seen[(u, v)]) for u, v in sorted(seen))
    return DefiningGraph(vertices, edge_list)


def parse_graph(text: str) -> DefiningGraph:
    """Parse the line-oriented graph format.

    Directives: ``vertex <name>`` and ``edge <u> <v> <m>``; ``#`` comments.
    """
    vertices: list[str] = []
    edges: list[tuple[str, str, int]] = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "vertex" and len(parts) == 2:
            vertices.append(parts[1])
        elif parts[0] == "edge" and len(parts) == 4:
            try:
                m = int(parts[3])
            except ValueError:
                raise GraphError(
                    "COEFFICIENT_BELOW_3", f"non-integer coefficient {parts[3]!r}"
                )
            edges.append((parts[1], parts[2], m))
        else:
            raise GraphError("PARSE", f"unrecognised directive {line!r}")
    return build_graph(edges, extra_vertices=vertices)


def validate_graph(spec) -> DefiningGraph:
    """Accept a text description or an edge list and validate it."""
    if isinstance(spec, DefiningGraph):
        return spec
    if isinstance(spec, str):
        return parse_graph(spec)
    return build_graph(spec)


@dataclass(frozen=True)
class GraphAutomorphism:
    """Label-preserving permutation of the vertices, stored as an image tuple."""

    graph: DefiningGraph
    images: tuple[str, ...]  # images[i] = image of graph.vertices[i]

    def __post_init__(self):
        g = self.graph
        if sorted(self.images) != list(g.vertices):
            raise GraphError("NOT_AN_AUTOMORPHISM", "images are not a permutation")
        for u, v, m in g.edge_list:
            if g.coefficient(self(u), self(v)) != m:
                raise GraphError(
                    "NOT_AN_AUTOMORPHISM", f"coefficient of {u}--{v} not preserved"
                )

    def __call__(self, vertex: str) -> str:
        return self.images[self.graph.vertices.index(vertex)]

    @property
    def is_identity(self) -> bool:
        return self.images == self.graph.vertices

    def compose(self, other: "GraphAutomorphism") -> "GraphAutomorphism":
        """self after other: (self*other)(v) = self(other(v))."""
        return GraphAutomorphism(
            self.graph, tuple(self(other(v)) for v in self.graph.vertices)
        )

    def inverse(self) -> "GraphAutomorphism":
        images = [None] * len(self.images)
        for v, w in zip(self.graph.vertices, self.images):
            images[self.graph.vertices.index(w)] = v
        return GraphAutomorphism(self.graph, tuple(images))

    def order(self) -> int:
        k, sigma = 1, self
        while not sigma.is_identity:
            sigma = sigma.compose(self)
            k += 1
        return k


def graph_automorphisms(g: DefiningGraph) -> list[GraphAutomorphism]:
    """All coefficient-preserving automorphisms, identity first, sorted."""
    n = len(g.vertices)
    # Invariant per vertex: multiset of incident coefficients, refined during
    # backtracking by full edge checks.
    profile = {
        v: tuple(sorted(g.coefficient(v, w) for w in g.vertices if w != v))
        for v in g.vertices
    }
    results: list[tuple[str, ...]] = []
    images: list[str] = []
    used: set[str] = set()

    def extend(i: int):
        if i == n:
            results.append(tuple(images))
            return
        v = g.vertices[i]
        for w in g.vertices:
            if w in used or profile[v] != profile[w]:
                continue
            ok = all(
                g.coefficient(v, g.vertices[j]) == g.coefficient(w, images[j])
                for j in range(i)
            )
            if not ok:
                continue
            images.append(w)
            used.add(w)
            extend(i + 1)
            images.pop()
            used.remove(w)

    extend(0)
    results.sort()
    auts = [GraphAutomorphism(g, imgs) for imgs in results]
    if not auts[0].is_identity:
        raise GraphError("AUTOMORPHISM_ORDER", "the identity must sort first")
    return auts


@dataclass(frozen=True)
class SigmaData:
    """Fixed vertices and transposed adjacent pairs of a graph automorphism."""

    fixed_vertices: tuple[str, ...]
    transposed_pairs: tuple[tuple[str, str], ...]  # sorted pairs, finite edges
    fixed_subgraph: DefiningGraph


def sigma_data(g: DefiningGraph, sigma: GraphAutomorphism) -> SigmaData:
    if sigma.graph is not g and sigma.graph != g:
        raise GraphError("NOT_AN_AUTOMORPHISM", "automorphism of a different graph")
    fixed = tuple(v for v in g.vertices if sigma(v) == v)
    pairs = []
    for u, v in combinations(g.vertices, 2):
        if sigma(u) == v and sigma(v) == u and g.has_edge(u, v):
            pairs.append((u, v))
    return SigmaData(fixed, tuple(sorted(pairs)), g.induced(fixed))


def sigma_quotient_graph(g: DefiningGraph, sigma: GraphAutomorphism):
    """Fixed subgraph plus an isolated vertex for every transposed pair.

    Returns (DefiningGraph on the fixed vertices, tuple of pair names); the
    free product structure of the fixed subgroup of ``sigma`` is read off as
    the Artin group of the subgraph free-producted with one Z per pair.
    """
    data = sigma_data(g, sigma)
    pair_names = tuple(f"{u}{v}" for u, v in data.transposed_pairs)
    return data.fixed_subgraph, pair_names


# ---------------------------------------------------------------------------
# Barycentric odd-component graphs.

GenNode = tuple  # ("g", s)
EdgeNode = tuple  # ("e", s, t) or ("e", s, t, side) for cut even edges


@dataclass(frozen=True)
class OddComponentGraph:
    """Connected component of the cut barycentric subdivision containing a.

    Nodes are ("g", s) for generator vertices and ("e", s, t[, side]) for edge
    vertices (s < t); the even edge vertices are cut, leaving one pendant copy
    per incident fixed generator.  ``labels`` carries the word labelling each
    edge in its generator-to-edge direction; traversing the other way reads
    the inverse word.
    """

    graph: DefiningGraph
    basepoint: GenNode
    nodes: tuple
    edges: tuple  # ((gen_node, edge_node), ...)
    labels: dict = field(compare=False, hash=False)
    style: str = "power"

    def degree(self, node) -> int:
        return sum(1 for e in self.edges if node in e)

    def betti(self) -> int:
        return len(self.edges) - len(self.nodes) + 1

    def edge_nodes(self):
        return tuple(n for n in self.nodes if n[0] == "e")

    def dot(self, name: str = "odd") -> str:
        def fmt(node):
            return "_".join(str(p) for p in node)

        lines = [f"graph {name} {{"]
        for node in self.nodes:
            shape = "circle" if node[0] == "g" else "square"
            lines.append(f'  "{fmt(node)}" [shape={shape}];')
        for gn, en in self.edges:
            label = "".join(
                s + ("" if sg > 0 else "-") for s, sg in self.labels[(gn, en)]
            )
            lines.append(f'  "{fmt(gn)}" -- "{fmt(en)}" [label="{label}"];')
        lines.append("}")
        return "\n".join(lines)


def _inversion_label(s: str, t: str, m: int) -> tuple:
    """Alternating half-inverted word for the inversion-basis convention.

    For m = 2n+1: b_1^-1 .. b_n^-1 b_{n+1} .. b_{2n} with b_i = t for odd i,
    b_i = s for even i.
    """
    n = (m - 1) // 2
    letters = []
    for i in range(1, 2 * n + 1):
        b = t if i % 2 == 1 else s
        letters.append((b, -1 if i <= n else 1))
    return tuple(letters)


def gamma_a_odd(
    g: DefiningGraph, sigma: GraphAutomorphism, a: str, style: str = "power"
) -> OddComponentGraph:
    """Component of the cut barycentric subdivision containing v^a.

    Only edges with both ends fixed by ``sigma`` survive; even-coefficient
    edge vertices are cut into pendant copies.  ``style`` picks the labelling:
    "power" labels [v^s, v^{st}] with the Garside element when s < t and m is
    odd, "inversion" uses the alternating half-inverted word there.  All other
    edges carry the empty word.
    """
    if a not in g.vertices:
        raise GraphError("UNKNOWN_GENERATOR", f"{a} not a vertex")
    if sigma(a) != a:
        raise GraphError("VERTEX_NOT_FIXED", f"{a} is moved by the automorphism")
    fixed = {v for v in g.vertices if sigma(v) == v}
    adj: dict = {}
    labels: dict = {}

    def add_edge(gn, en, label):
        adj.setdefault(gn, []).append(en)
        adj.setdefault(en, []).append(gn)
        labels[(gn, en)] = label

    for u, v, m in g.edge_list:
        if u not in fixed or v not in fixed:
            continue
        if m % 2 == 1:
            en = ("e", u, v)
            add_edge(("g", u), en, delta_word(m, (u, v)) if style == "power" else _inversion_label(u, v, m))
            add_edge(("g", v), en, ())
        else:
            # cut: one pendant copy per side
            add_edge(("g", u), ("e", u, v, u), ())
            add_edge(("g", v), ("e", u, v, v), ())

    base = ("g", a)
    component = {base}
    frontier = [base]
    while frontier:
        node = frontier.pop()
        for nb in sorted(adj.get(node, [])):
            if nb not in component:
                component.add(nb)
                frontier.append(nb)
    nodes = tuple(sorted(component))
    edges = tuple(
        sorted(
            (gn, en)
            for (gn, en) in labels
            if gn in component and en in component
        )
    )
    labels = {e: labels[e] for e in edges}
    return OddComponentGraph(g, base, nodes, edges, labels, style)


def _spanning_data(graph: OddComponentGraph):
    adj: dict = {}
    for gn, en in graph.edges:
        adj.setdefault(gn, []).append(en)
        adj.setdefault(en, []).append(gn)

    def word_along(frm, to):
        if (frm, to) in graph.labels:
            return graph.labels[(frm, to)]
        return inv(graph.labels[(to, frm)])

    parent: dict = {graph.basepoint: None}
    order = [graph.basepoint]
    queue = [graph.basepoint]
    tree_edges = set()
    while queue:
        node = queue.pop(0)
        for nb in sorted(adj.get(node, [])):
            if nb not in parent:
                parent[nb] = node
                key = (node, nb) if (node, nb) in graph.labels else (nb, node)
                tree_edges.add(key)
                order.append(nb)
                queue.append(nb)

    def path_word(node):
        # word read from basepoint down to node along the tree
        chain = []
        while parent[node] is not None:
            chain.append((parent[node], node))
            node = parent[node]
        out = []
        for frm, to in reversed(chain):
            out.extend(word_along(frm, to))
        return tuple(out)

    return order, tree_edges, path_word, word_along


def spanning_paths(graph: OddComponentGraph) -> dict:
    """Word labelling the tree path from the basepoint to each node."""
    order, _, path_word, _ = _spanning_data(graph)
    return {node: free_reduce(path_word(node)) for node in order}


def pi1_basis(graph: OddComponentGraph) -> list[tuple]:
    """Loop words spanning a free basis of the fundamental group.

    Spanning tree by breadth-first search from the basepoint in node order;
    each non-tree edge contributes the word read along base -> chord -> base,
    inverting labels traversed against their direction.
    """
    order, tree_edges, path_word, word_along = _spanning_data(graph)
    loops = []
    for gn, en in graph.edges:
        if (gn, en) in tree_edges:
            continue
        # orient the chord from the node discovered first
        frm, to = (gn, en) if order.index(gn) <= order.index(en) else (en, gn)
        word = (
            path_word(frm)
            + word_along(frm, to)
            + inv(path_word(to))
        )
        loops.append(free_reduce(word))
    return loops
