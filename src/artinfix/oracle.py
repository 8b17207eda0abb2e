"""
oracle: the budgeted word-equality decision procedure and its certificates.

Verdicts are three-valued.  EQUAL is only returned with a replayable
certificate: either the two words coincide after free reduction, or they lie
in a common two-generator fragment where the Garside normal form is a
complete invariant, or a chain of single relator rewrites connecting them was
found.  NOT_EQUAL is only returned with a separating invariant: height,
abelianization class vector, freeness of an infinite-coefficient fragment, or
distinct dihedral normal forms.  Anything else is UNKNOWN, never silently
coerced to a definite answer.

The rewrite search works on canonicalized words: maximal two-generator
syllables are replaced by their canonical dihedral spelling after every step,
which collapses the in-fragment part of the search space and leaves the
relator moves to do only cross-fragment work.  The search is bidirectional,
breadth first, deterministic, and counts expanded nodes against the budget.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache

from .garside import engine
from .presentation import DefiningGraph, INFINITY
from .words import Word, abelianization_vector, free_reduce, height, odd_components, support

DEFAULT_BUDGET = 100_000


@dataclass(frozen=True)
class EqualityVerdict:
    status: str  # "EQUAL" | "NOT_EQUAL" | "UNKNOWN"
    method: str
    certificate: tuple = ()
    expansions: int = 0

    def __bool__(self) -> bool:
        return self.status == "EQUAL"

    @property
    def is_equal(self) -> bool:
        return self.status == "EQUAL"

    @property
    def is_not_equal(self) -> bool:
        return self.status == "NOT_EQUAL"

    @property
    def is_unknown(self) -> bool:
        return self.status == "UNKNOWN"


def _equal(method: str, certificate=(), expansions: int = 0) -> EqualityVerdict:
    return EqualityVerdict("EQUAL", method, tuple(certificate), expansions)


def _not_equal(method: str, certificate=()) -> EqualityVerdict:
    return EqualityVerdict("NOT_EQUAL", method, tuple(certificate))


def _unknown(expansions: int) -> EqualityVerdict:
    return EqualityVerdict("UNKNOWN", "budget", (), expansions)


# ---------------------------------------------------------------------------
# Relator rewrite patterns.


@lru_cache(maxsize=None)
def _patterns(graph: DefiningGraph):
    """All (u -> v) rewrites derived from rotations of the braid relators.

    For each finite edge the relator is pos(s,t,m) . pos(t,s,m)^-1; every
    rotation and every split of a rotation into u . v^-1 contributes the move
    u -> v.  Patterns are indexed by their first letter.
    """
    moves: set[tuple[Word, Word]] = set()
    for s, t, m in graph.finite_edges():
        pos_st = tuple(((s, t)[i % 2], 1) for i in range(m))
        pos_ts = tuple(((t, s)[i % 2], 1) for i in range(m))
        relator = pos_st + tuple((n, -sg) for n, sg in reversed(pos_ts))
        size = len(relator)
        for i in range(size):
            rot = relator[i:] + relator[:i]
            for k in range(1, size):
                u = rot[:k]
                v = tuple((n, -sg) for n, sg in reversed(rot[k:]))
                if u != v:
                    moves.add((u, v))
    index: dict[tuple, list[tuple[Word, Word]]] = {}
    for u, v in sorted(moves):
        index.setdefault(u[0], []).append((u, v))
    return index


# ---------------------------------------------------------------------------
# Syllable canonical form.


@lru_cache(maxsize=None)
def _letter_map(pair: tuple[str, str]):
    return {pair[0]: 0, pair[1]: 1}


def _syllables(graph: DefiningGraph, word: Word):
    """Greedy maximal runs fitting inside one finite-coefficient pair."""
    runs: list[tuple[frozenset, list]] = []
    current: list = []
    names: set[str] = set()
    for letter in word:
        name = letter[0]
        if name in names or not current:
            current.append(letter)
            names.add(name)
            continue
        if len(names) == 1:
            other = next(iter(names))
            if graph.coefficient(other, name) is not INFINITY:
                current.append(letter)
                names.add(name)
                continue
        runs.append((frozenset(names), current))
        current, names = [letter], {name}
    if current:
        runs.append((frozenset(names), current))
    return runs


@lru_cache(maxsize=1 << 18)
def _dihedral_canonical(m: int, idx_word: tuple) -> tuple:
    eng = engine(m)
    return tuple(eng.spell(eng.from_letters(idx_word)))


_CANONICAL_MEMO: dict = {}


def canonical_form(graph: DefiningGraph, word: Word) -> Word:
    """Rewrite every maximal dihedral syllable to its canonical spelling.

    Sound: each replacement is an equality in the two-generator subgroup.
    Iterates to a fixed point (replacements can merge adjacent syllables);
    passes never increase length, and a length-preserving pass is accepted
    only once to guarantee termination.
    """
    word = free_reduce(word)
    memo_key = (graph, word)
    hit = _CANONICAL_MEMO.get(memo_key)
    if hit is not None:
        return hit
    original = word
    for _ in range(6):
        out: list = []
        for names, run in _syllables(graph, word):
            if len(names) == 2:
                pair = tuple(sorted(names))
                m = int(graph.coefficient(*pair))
                lm = _letter_map(pair)
                spelled = _dihedral_canonical(m, tuple((lm[n], sg) for n, sg in run))
                out.extend((pair[i], sg) for i, sg in spelled)
            else:
                out.extend(run)
        new = free_reduce(out)
        if new == word or len(new) > len(word):
            break
        word = new
    if len(_CANONICAL_MEMO) > (1 << 19):
        _CANONICAL_MEMO.clear()
    _CANONICAL_MEMO[memo_key] = word
    _CANONICAL_MEMO[(graph, word)] = word
    return word


# ---------------------------------------------------------------------------
# Exact fragments.


def _dihedral_compare(graph: DefiningGraph, u: Word, v: Word, names):
    pair = tuple(sorted(names))
    if len(pair) == 1:
        pair = (pair[0], pair[0])
    m = graph.coefficient(*pair) if pair[0] != pair[1] else INFINITY
    if pair[0] != pair[1] and m is not INFINITY:
        eng = engine(int(m))
        lm = _letter_map(pair)
        nu = eng.from_letters((lm[n], sg) for n, sg in u)
        nv = eng.from_letters((lm[n], sg) for n, sg in v)
        if nu == nv:
            return _equal("dihedral-nf", (pair, nu))
        return _not_equal("dihedral-nf", (pair, nu, nv))
    # free fragment: one generator, or two generators with no relation
    if u == v:
        return _equal("identical")
    return _not_equal("free", (u, v))


# ---------------------------------------------------------------------------
# Bidirectional rewrite search.


def _successors(graph: DefiningGraph, state: Word, patterns, max_len: int):
    n = len(state)
    for i in range(n):
        bucket = patterns.get(state[i])
        if not bucket:
            continue
        for u, v in bucket:
            end = i + len(u)
            if end > n or n - len(u) + len(v) > max_len + 4:
                continue
            if state[i:end] != u:
                continue
            candidate = canonical_form(
                graph, state[:i] + v + state[end:]
            )
            if len(candidate) <= max_len:
                yield candidate, (i, u, v)


def _search(graph: DefiningGraph, u: Word, v: Word, budget: int, slack: int):
    """Bidirectional BFS between canonical forms; returns verdict parts."""
    patterns = _patterns(graph)
    if not patterns:
        return None, 0  # free group: free reduction already decided
    max_m = max(m for _, _, m in graph.finite_edges())
    max_len = max(len(u), len(v)) + (slack if slack is not None else 2 * max_m)

    seen_u: dict[Word, tuple] = {u: None}
    seen_v: dict[Word, tuple] = {v: None}
    queue_u: deque[Word] = deque([u])
    queue_v: deque[Word] = deque([v])
    expansions = 0

    def path(state: Word, seen: dict) -> list:
        chain = []
        while seen[state] is not None:
            prev, move = seen[state]
            chain.append((prev, move, state))
            state = prev
        chain.reverse()
        return chain

    while (queue_u or queue_v) and expansions < budget:
        queue, seen, other = (
            (queue_u, seen_u, seen_v)
            if queue_u and (not queue_v or len(queue_u) <= len(queue_v))
            else (queue_v, seen_v, seen_u)
        )
        state = queue.popleft()
        expansions += 1
        for nxt, move in _successors(graph, state, patterns, max_len):
            if nxt in seen:
                continue
            seen[nxt] = (state, move)
            if nxt in other:
                forward = path(nxt, seen_u) if nxt in seen_u else []
                backward = path(nxt, seen_v) if nxt in seen_v else []
                return (forward, backward), expansions
            queue.append(nxt)
    return None, expansions


# ---------------------------------------------------------------------------
# Public operations.


def word_equal(
    graph: DefiningGraph,
    u: Word,
    v: Word,
    budget: int = DEFAULT_BUDGET,
    slack: int | None = None,
) -> EqualityVerdict:
    u, v = free_reduce(u), free_reduce(v)
    if u == v:
        return _equal("identical")
    hu, hv = height(u), height(v)
    if hu != hv:
        return _not_equal("height", (hu, hv))
    au, av = abelianization_vector(graph, u), abelianization_vector(graph, v)
    if au != av:
        return _not_equal("abelianization", (au, av))
    names = support(u) | support(v)
    if len(names) <= 2:
        return _dihedral_compare(graph, u, v, names)
    cu, cv = canonical_form(graph, u), canonical_form(graph, v)
    if cu == cv:
        return _equal("canonical", (cu,))
    hit, spent = _search(graph, cu, cv, budget, slack)
    if hit is not None:
        forward, backward = hit
        return _equal("rewrite", (cu, forward, backward, cv), spent)
    return _unknown(spent)


def is_fixed(aut, word: Word, budget: int = DEFAULT_BUDGET) -> EqualityVerdict:
    """Certificate that the automorphism fixes the word."""
    return word_equal(aut.graph, aut(word), free_reduce(word), budget)


@dataclass
class MembershipResult:
    status: str  # "MEMBER" | "NOT_MEMBER" | "UNKNOWN"
    rewritten: Word | None = None
    certificate: tuple = ()
    expansions: int = 0

    def __bool__(self) -> bool:
        return self.status == "MEMBER"


def member_of_parabolic(
    graph: DefiningGraph,
    word: Word,
    gens: frozenset[str] | set[str],
    budget: int = DEFAULT_BUDGET,
    slack: int | None = None,
) -> MembershipResult:
    """Budgeted test whether the word lies in the standard parabolic on gens.

    MEMBER comes with a rewriting of the word in the subgroup's generators;
    NOT_MEMBER only from the abelianization obstruction.  The search shares
    the canonical-form machinery of word_equal.
    """
    gens = frozenset(gens)
    word = canonical_form(graph, free_reduce(word))
    if support(word) <= gens:
        return MembershipResult("MEMBER", word)
    comps = odd_components(graph)
    vec = abelianization_vector(graph, word)
    for i, comp in enumerate(comps):
        if vec[i] != 0 and not (set(comp) & gens):
            return MembershipResult(
                "NOT_MEMBER", None, ("abelianization", i, vec[i])
            )
    patterns = _patterns(graph)
    max_m = max((m for _, _, m in graph.finite_edges()), default=3)
    max_len = len(word) + (slack if slack is not None else 2 * max_m)
    seen: dict[Word, tuple] = {word: None}
    queue: deque[Word] = deque([word])
    expansions = 0
    while queue and expansions < budget:
        state = queue.popleft()
        expansions += 1
        for nxt, move in _successors(graph, state, patterns, max_len):
            if nxt in seen:
                continue
            seen[nxt] = (state, move)
            if support(nxt) <= gens:
                return MembershipResult("MEMBER", nxt, (), expansions)
            queue.append(nxt)
    return MembershipResult("UNKNOWN", None, (), expansions)


# ---------------------------------------------------------------------------
# Trace replay.


def replay(graph: DefiningGraph, verdict: EqualityVerdict, u: Word, v: Word) -> bool:
    """Check an EQUAL verdict's certificate against its claimed endpoints."""
    if not verdict.is_equal:
        return False
    u, v = free_reduce(u), free_reduce(v)
    if verdict.method == "identical":
        return u == v
    if verdict.method == "dihedral-nf":
        pair = verdict.certificate[0]
        m = int(graph.coefficient(*pair))
        eng = engine(m)
        lm = _letter_map(pair)
        nu = eng.from_letters((lm[n], sg) for n, sg in u)
        nv = eng.from_letters((lm[n], sg) for n, sg in v)
        return nu == nv == verdict.certificate[1]
    if verdict.method == "canonical":
        return canonical_form(graph, u) == canonical_form(graph, v)
    if verdict.method == "rewrite":
        cu, forward, backward, cv = verdict.certificate
        if canonical_form(graph, u) != cu or canonical_form(graph, v) != cv:
            return False

        def replay_chain(start, chain):
            state = start
            for prev, (i, pu, pv), nxt in chain:
                if prev != state or state[i : i + len(pu)] != pu:
                    return None
                if word_equal(graph, pu, pv, budget=0).status == "NOT_EQUAL":
                    return None
                state = canonical_form(graph, state[:i] + pv + state[i + len(pu) :])
                if state != nxt:
                    return None
            return state

        end_f = replay_chain(cu, forward)
        end_b = replay_chain(cv, backward)
        return end_f is not None and end_b is not None and end_f == end_b
    return False
