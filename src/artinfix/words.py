"""
words: group elements as freely reduced words, and normalized automorphisms.

A word is a tuple of letters (generator name, sign); the empty tuple is the
identity.  Every operation returns freely reduced words, so concatenation is
the group multiplication.

This is the bottom layer and imports nothing from the package: every other
module takes free_reduce, inv, delta_word and the coded GraphError from here,
and automorphisms are built through their graph (DefiningGraph.automorphism).

Automorphisms of the Artin group built from inner automorphisms, graph
automorphisms and the global inversion are kept in the normal form
conj * graph * inversion: the triple (g, sigma, epsilon) acts by
w |-> g . sigma(iota^epsilon(w)) . g^-1.  Composition renormalizes with the
rule psi . conj_g = conj_{psi(g)} . psi.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .presentation import DefiningGraph, GraphAutomorphism

Letter = tuple[str, int]
Word = tuple[Letter, ...]

EMPTY: Word = ()
DEFAULT_NAMES = ("a", "b")


class GraphError(ValueError):
    """Domain error with a stable machine-readable code."""

    def __init__(self, code: str, message: str):
        super().__init__(f"{code}: {message}")
        self.code = code


def free_reduce(letters) -> Word:
    out: list[Letter] = []
    for name, sign in letters:
        if out and out[-1][0] == name and out[-1][1] == -sign:
            out.pop()
        else:
            out.append((name, sign))
    return tuple(out)


def mul(*words: Word) -> Word:
    out: list[Letter] = []
    for w in words:
        for name, sign in w:
            if out and out[-1][0] == name and out[-1][1] == -sign:
                out.pop()
            else:
                out.append((name, sign))
    return tuple(out)


def inv(word: Word) -> Word:
    return tuple((name, -sign) for name, sign in reversed(word))


def power(word: Word, k: int) -> Word:
    if k < 0:
        word, k = inv(word), -k
    out: Word = EMPTY
    for _ in range(k):
        out = mul(out, word)
    return out


def delta_word(m: int, names: tuple[str, str] = DEFAULT_NAMES) -> Word:
    """The Garside element of the dihedral on names: m letters alternating from names[0]."""
    return tuple((names[i % 2], 1) for i in range(m))


def height(word: Word) -> int:
    """Exponent sum; the homomorphism sending every generator to 1."""
    return sum(sign for _, sign in word)


def support(word: Word) -> frozenset[str]:
    return frozenset(name for name, _ in word)


_TOKEN = re.compile(r"^([A-Za-z_]\w*?)(-|\^-?\d+)?$")


def parse_word(text: str) -> Word:
    """Parse whitespace-separated letters: ``a``, ``a-``, ``a^3``, ``a^-2``.

    The bare token ``1`` is the identity, matching format_word's output.
    """
    letters: list[Letter] = []
    for token in text.split():
        if token == "1":
            continue
        m = _TOKEN.match(token)
        if not m:
            raise GraphError("PARSE", f"bad letter {token!r}")
        name, suffix = m.group(1), m.group(2)
        if suffix is None:
            letters.append((name, 1))
        elif suffix == "-":
            letters.append((name, -1))
        else:
            k = int(suffix[1:])
            letters.extend([(name, 1 if k > 0 else -1)] * abs(k))
    return free_reduce(letters)


def format_word(word: Word) -> str:
    if not word:
        return "1"
    parts = []
    i = 0
    while i < len(word):
        name, sign = word[i]
        j = i
        while j < len(word) and word[j] == (name, sign):
            j += 1
        count = j - i
        if count == 1:
            parts.append(name if sign > 0 else f"{name}-")
        else:
            parts.append(f"{name}^{count if sign > 0 else -count}")
        i = j
    return " ".join(parts)


@dataclass(frozen=True)
class ArtinAutomorphism:
    """Normalized triple conj * graph * inversion."""

    graph: DefiningGraph
    conj: Word
    perm: GraphAutomorphism
    inversion: bool

    def __post_init__(self):
        for name, _ in self.conj:
            if name not in self.graph.vertices:
                raise GraphError("UNKNOWN_GENERATOR", f"{name} not a vertex")

    # -- action ------------------------------------------------------------
    def graph_part(self, word: Word) -> Word:
        """Apply only sigma * iota^epsilon (no conjugation)."""
        out = []
        for name, sign in word:
            if name not in self.graph.vertices:
                raise GraphError("UNKNOWN_GENERATOR", f"{name} not a vertex")
            out.append((self.perm(name), -sign if self.inversion else sign))
        return free_reduce(out)

    def __call__(self, word: Word) -> Word:
        return mul(self.conj, self.graph_part(word), inv(self.conj))

    # -- group structure ----------------------------------------------------
    def compose(self, other: "ArtinAutomorphism") -> "ArtinAutomorphism":
        """self after other, renormalized to a triple."""
        if self.graph != other.graph:
            raise GraphError("GRAPH_MISMATCH", "automorphisms of different graphs")
        conj = mul(self.conj, self.graph_part(other.conj))
        return ArtinAutomorphism(
            self.graph,
            conj,
            self.perm.compose(other.perm),
            self.inversion ^ other.inversion,
        )

    def inverse(self) -> "ArtinAutomorphism":
        perm_inv = self.perm.inverse()
        back = ArtinAutomorphism(self.graph, EMPTY, perm_inv, self.inversion)
        return ArtinAutomorphism(
            self.graph, back.graph_part(inv(self.conj)), perm_inv, self.inversion
        )

    def iterate(self, k: int) -> "ArtinAutomorphism":
        out = identity_aut(self.graph)
        step = self if k >= 0 else self.inverse()
        for _ in range(abs(k)):
            out = out.compose(step)
        return out

    @property
    def is_identity_triple(self) -> bool:
        return not self.conj and self.perm.is_identity and not self.inversion

    def psi_order(self) -> int:
        """Order of the conjugation-free part sigma * iota^epsilon."""
        order = self.perm.order()
        if self.inversion and order % 2 == 1:
            order *= 2
        return order

    def describe(self) -> str:
        parts = []
        if self.conj:
            parts.append(f"conj {format_word(self.conj)}")
        if not self.perm.is_identity:
            images = " ".join(
                f"{v}>{self.perm(v)}"
                for v in self.graph.vertices
                if self.perm(v) != v
            )
            parts.append(f"graph {images}")
        if self.inversion:
            parts.append("invert")
        return " ; ".join(parts) if parts else "identity"


def identity_aut(graph: DefiningGraph) -> ArtinAutomorphism:
    return ArtinAutomorphism(graph, EMPTY, graph.automorphism(), False)


def inner(graph: DefiningGraph, word: Word) -> ArtinAutomorphism:
    return ArtinAutomorphism(graph, word, graph.automorphism(), False)


def global_inversion(graph: DefiningGraph) -> ArtinAutomorphism:
    return ArtinAutomorphism(graph, EMPTY, graph.automorphism(), True)


def parse_automorphism(graph: DefiningGraph, text: str) -> ArtinAutomorphism:
    """Parse the clause DSL ``conj <word> ; graph a>b b>a ; invert``.

    Clauses may appear in any subset; the result is the normalized triple
    applying conj, then the graph permutation, then the inversion bit in the
    conj * graph * inversion sense.
    """
    conj: Word = EMPTY
    mapping: dict[str, str] = {}
    inversion = False
    for clause in text.split(";"):
        clause = clause.strip()
        if not clause:
            continue
        head, _, rest = clause.partition(" ")
        if head == "conj":
            conj = parse_word(rest)
        elif head == "graph":
            for pair in rest.split():
                src, _, dst = pair.partition(">")
                if not src or not dst:
                    raise GraphError("PARSE", f"bad graph clause {pair!r}")
                mapping[src] = dst
        elif head == "invert" and not rest:
            inversion = True
        else:
            raise GraphError("PARSE", f"unrecognised clause {clause!r}")
    images = tuple(mapping.get(v, v) for v in graph.vertices)
    return ArtinAutomorphism(graph, conj, graph.automorphism(images), inversion)


# ---------------------------------------------------------------------------
# Abelianization relative to odd components.


def odd_components(graph: DefiningGraph) -> tuple[tuple[str, ...], ...]:
    """Partition of the generators by connectivity through odd-label edges.

    Generators joined by an odd-coefficient edge become identified in the
    abelianization, so exponent sums are only well defined per component.
    """
    parent = {v: v for v in graph.vertices}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for u, v, m in graph.edge_list:
        if m % 2 == 1:
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[max(ru, rv)] = min(ru, rv)
    groups: dict[str, list[str]] = {}
    for v in graph.vertices:
        groups.setdefault(find(v), []).append(v)
    return tuple(tuple(sorted(groups[r])) for r in sorted(groups))


def abelianization_vector(graph: DefiningGraph, word: Word) -> tuple[int, ...]:
    """Exponent sums per odd component, in component order."""
    comps = odd_components(graph)
    index = {v: i for i, comp in enumerate(comps) for v in comp}
    vec = [0] * len(comps)
    for name, sign in word:
        vec[index[name]] += sign
    return tuple(vec)
