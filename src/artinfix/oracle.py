"""
oracle: the budgeted word-equality decision procedure and its certificates.

Verdicts are three-valued.  EQUAL is only returned with a replayable
certificate: either the two words coincide after free reduction, or they lie
in a common two-generator fragment where the Garside normal form is a
complete invariant, or a chain of single relator rewrites connecting them was
found.  NOT_EQUAL is only returned with a separating invariant: height,
abelianization class vector, freeness of an infinite-coefficient fragment,
distinct dihedral normal forms, or distinct images in the Coxeter group W
(the quotient s^2 = 1, through its Tits representation reduced mod a prime).
NOT_MEMBER likewise comes from the abelianization, or from a Coxeter image
outside the finite parabolic W_X.  The Coxeter image is checked before the
rewrite search, so what stays UNKNOWN lies in the kernel of A -> W or is an
equality the search cannot reach.  Anything else is UNKNOWN, never silently
coerced to a definite answer.

The rewrite search works on canonicalized words: maximal two-generator
syllables are replaced by their canonical dihedral spelling after every step,
which collapses the in-fragment part of the search space and leaves the
relator moves to do only cross-fragment work.  The search is bidirectional,
breadth first, deterministic, and counts expanded nodes against the budget.
A state's successors are a set: each distinct neighbour other than the state
itself, with the first move that reaches it.  A neighbour's canonical form is
computed from the splice.  The state and the replacement are freely reduced,
so the spliced word cancels only at its two junctions; and when the state is
settled (a syllable pass leaves it unchanged), its runs before the splice and
its runs from a run start in the untouched suffix are canonical already, so
each pass rescans only the window between them.

Everything the oracle derives from a defining graph lives in one per-graph
context, built on first use and held by the graph instance itself (a private
field outside its equality, hash and repr): the ordered table of finite
pairs, the relator rewrite patterns, the odd-component index behind the
abelianization invariant, the Coxeter image with the probe orbits of the
finite parabolics, and three memos -- syllable spellings, canonical forms and
rewrite successors.  Each of those three is cleared once it passes 2^19
entries.  Memos hold only values of pure functions of their keys, so a
verdict never depends on what the process computed before.  Two-generator
words reach the Garside engine by name (garside.DihedralEngine.element and
spelling), which owns the letter encoding and the spellings shared by every
pair with the same coefficient.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from math import lcm
from operator import mul

from .garside import engine
from .presentation import DefiningGraph, INFINITY
from .words import GraphError, Word, delta_word, free_reduce, height, inv, odd_components, support

DEFAULT_BUDGET = 100_000

# Passes of the syllable rewrite per canonical_form call, and memo size cap.
_MAX_PASSES = 6
_MEMO_LIMIT = 1 << 19


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
# The per-graph context.


def _patterns(edges: tuple[tuple[str, str, int], ...]):
    """All (u -> v) rewrites derived from rotations of the braid relators.

    For each finite edge the relator is pos(s,t,m) . pos(t,s,m)^-1; every
    rotation and every split of a rotation into u . v^-1 contributes the move
    u -> v.  Patterns are indexed by their first letter.
    """
    moves: set[tuple[Word, Word]] = set()
    for s, t, m in edges:
        relator = delta_word(m, (s, t)) + inv(delta_word(m, (t, s)))
        size = len(relator)
        for i in range(size):
            rot = relator[i:] + relator[:i]
            for k in range(1, size):
                u, v = rot[:k], inv(rot[k:])
                if u != v:
                    moves.add((u, v))
    index: dict[tuple, list[tuple[Word, Word]]] = {}
    for u, v in sorted(moves):
        index.setdefault(u[0], []).append((u, v))
    return index


def _is_prime(n: int) -> bool:
    """Strong probable prime to the first thirteen prime bases: proven prime
    below 3.3e24.  The Coxeter image's self-check, not this test, is what its
    soundness rests on."""
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41):
        if n == a:
            return True
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return n > 1


def _prime_factors(n: int) -> set[int]:
    out, d = set(), 2
    while d * d <= n:
        while n % d == 0:
            out.add(d)
            n //= d
        d += 1
    return out | {n} - {1}


def _coxeter_image(vertices: tuple[str, ...], edges: tuple[tuple[str, str, int], ...]):
    """(p, rows, index): the Tits representation of the Coxeter group W, reduced mod p.

    Let L be the lcm of the finite labels.  p is the least prime above 2^31 with
    p = 1 (mod 2L), and w an element of exact order 2L in F_p.  The Tits
    representation (Humphreys, Reflection Groups and Coxeter Groups, 5.3-5.4)
    lets s act on the basis (e_t) as the reflection x -> x + (c . x) e_s, with
    c_s = -2, c_t = 2cos(pi/m_st) on an edge and 2 off one.  Its entries lie
    in Z[zeta] for a primitive 2L-th root of unity zeta, as 2cos(pi/m) =
    zeta^(L/m) + zeta^-(L/m).  The ring map Z[zeta] -> F_p, zeta -> w, is well
    defined: w is a root of the cyclotomic polynomial of order 2L, the minimal
    polynomial of zeta.  So the reduced matrices still satisfy every braid
    relation and square to 1, and s -> sigma_s is a homomorphism
    A -> W -> GL(V, F_p) that forgets the sign of each letter.

    rows[index[s]] replaces coordinate i = index[s] when s acts:
    x_i -> -x_i + sum of c_t x_t over t != s.  The image
    checks itself on every basis vector instead of trusting the argument:
    each sigma_s squares to 1, and both sides of each edge's braid relation
    act alike.
    """
    order = 2 * lcm(1, *(m for _, _, m in edges))
    p = ((1 << 31) // order + 1) * order + 1
    while not _is_prime(p):
        p += order
    primes = set().union({2}, *(_prime_factors(m) for _, _, m in edges))
    g = 2  # w = g^((p-1)/2L) has exact order 2L unless g^((p-1)/q) = 1 for a prime q | 2L
    while any(pow(g, (p - 1) // q, p) == 1 for q in primes):
        g += 1
    root = pow(g, (p - 1) // order, p)
    index = {v: i for i, v in enumerate(vertices)}
    rows = [[2] * len(vertices) for _ in vertices]
    for i, row in enumerate(rows):
        row[i] = p - 1
    for s, t, m in edges:
        k = order // (2 * m)
        rows[index[s]][index[t]] = rows[index[t]][index[s]] = (
            pow(root, k, p) + pow(root, -k, p)
        ) % p
    rows = tuple(map(tuple, rows))
    for basis in ((0,) * i + (1,) + (0,) * (len(rows) - 1 - i) for i in range(len(rows))):
        for s in vertices:
            if _act(p, rows, index, ((s, 1), (s, 1)), basis) != basis:
                raise GraphError("COXETER_IMAGE", f"sigma_{s} does not square to 1 mod {p}")
        for s, t, m in edges:
            if _act(p, rows, index, delta_word(m, (s, t)), basis) != _act(
                p, rows, index, delta_word(m, (t, s)), basis
            ):
                raise GraphError("COXETER_IMAGE", f"braid relation {s}{t} fails mod {p}")
    return p, rows, index


def _act(p: int, rows, index: dict, word: Word, x) -> tuple[int, ...]:
    """pi(word) . x mod p: the letters act right to left, each as its
    reflection, whatever its sign."""
    x = list(x)
    for name, _ in reversed(word):
        i = index[name]
        x[i] = sum(map(mul, rows[i], x)) % p
    return tuple(x)


def _cancels(x, y) -> bool:
    return x[0] == y[0] and x[1] == -y[1]


def _remember(memo: dict, key, value) -> None:
    if len(memo) > _MEMO_LIMIT:
        memo.clear()
    memo[key] = value


class _OracleContext:
    """What the oracle derives from one graph, and the memos it fills."""

    def __init__(self, graph: DefiningGraph):
        self.vertices = graph.vertices
        self.edges = graph.edge_list
        # (x, y) -> (sorted pair, m) for both orders of every finite edge
        self.pairs: dict[tuple[str, str], tuple[tuple[str, str], int]] = {}
        for s, t, m in self.edges:
            self.pairs[(s, t)] = self.pairs[(t, s)] = ((s, t), m)
        self.max_m = max((m for _, _, m in self.edges), default=3)
        self.components = odd_components(graph)
        self.component_of = {
            v: i for i, comp in enumerate(self.components) for v in comp
        }
        self.spellings: dict[Word, Word] = {}  # two-name run -> canonical spelling
        self.canonical: dict[Word, Word] = {}  # reduced word -> canonical_form
        self.successors: dict[tuple[Word, int], tuple] = {}  # (state, max_len) -> moves
        self.orbits: dict[frozenset, frozenset] = {}  # finite parabolic -> orbit of the probe

    @cached_property
    def patterns(self):
        """The relator rewrites, built when a rewrite search first needs them:
        for m = 10 they take milliseconds, and two-generator questions never
        search."""
        return _patterns(self.edges)

    @cached_property
    def coxeter(self):
        """(p, rows, index, probe): the self-checked Coxeter image of
        _coxeter_image, built when a question first reaches it (two-generator
        words never do), and a fixed probe vector with no structure the
        reflections could respect."""
        p, rows, index = _coxeter_image(self.vertices, self.edges)
        return p, rows, index, tuple(pow(7, 1 + 11 * i, p) for i in range(len(rows)))

    def image(self, word: Word, start: tuple[int, ...] | None = None) -> tuple[int, ...]:
        """pi(word) . start mod p, start defaulting to the probe."""
        p, rows, index, probe = self.coxeter
        return _act(p, rows, index, word, probe if start is None else start)

    def orbit(self, gens: frozenset) -> frozenset:
        """The orbit of the probe under the standard parabolic W_gens, which
        must be finite; memoised per generating set."""
        hit = self.orbits.get(gens)
        if hit is None:
            todo = [self.image(())]
            hit = set(todo)
            while todo:
                y = todo.pop()
                for s in gens:
                    z = self.image(((s, 1),), y)
                    if z not in hit:
                        hit.add(z)
                        todo.append(z)
            hit = self.orbits[gens] = frozenset(hit)
        return hit

    def abelianization(self, word: Word) -> tuple[int, ...]:
        """Exponent sums per odd component, as words.abelianization_vector."""
        vec = [0] * len(self.components)
        for name, sign in word:
            vec[self.component_of[name]] += sign
        return tuple(vec)

    def syllable_pass(
        self,
        word: Word,
        begin: int = 0,
        resume: int = 0,
        shift: int = 0,
        starts: frozenset = frozenset(),
        marks: list | None = None,
    ) -> tuple[Word, int, int]:
        """Respell every greedy maximal two-generator run of word[begin:].

        A run starts at a letter, absorbs its repeats, and, when the next
        name forms a finite pair with it, every following letter of that
        pair.  Each block emitted (a spelling, or repeats of one letter) is
        freely reduced, and cancels against the output only where it meets
        it, so the result is freely reduced when the word is.  word[:begin]
        is kept as it stands, and so is the rest of the word from the first
        run start i >= resume with i - shift in starts: the caller knows
        those runs to be canonical.  marks, when given, collects the run
        starts.

        Returns (new, low, kept): new is the word itself when no run changed;
        new[:low] == word[:low], and the last kept letters of new are the
        word's.
        """
        n = len(word)
        out = list(word[:begin])
        low, kept = n, 0
        pairs, spellings = self.pairs, self.spellings
        i = begin
        while i < n:
            stop = i >= resume and i - shift in starts
            if stop:
                block, j = word[i:], n
            else:
                if marks is not None:
                    marks.append(i)
                x = word[i][0]
                j = i + 1
                while j < n and word[j][0] == x:
                    j += 1
                link = pairs.get((x, word[j][0])) if j < n else None
                if link is None:
                    block = word[i:j]
                else:
                    pair, m = link
                    j += 1
                    while j < n and word[j][0] in pair:
                        j += 1
                    run = word[i:j]
                    block = spellings.get(run)
                    if block is None:
                        block = engine(m).spelling(run, pair)
                        _remember(spellings, run, block)
                    if block != run:
                        low = min(low, len(out))
            cut = 0
            while cut < len(block) and out and _cancels(out[-1], block[cut]):
                out.pop()
                cut += 1
            if cut:
                low = min(low, len(out))
            out.extend(block[cut:])
            if stop:
                kept = n - i - cut
                break
            i = j
        if low == n:
            return word, n, n
        return tuple(out), low, kept


def _context(graph: DefiningGraph) -> _OracleContext:
    ctx = graph._context
    if ctx is None:
        ctx = _OracleContext(graph)
        object.__setattr__(graph, "_context", ctx)
    return ctx


# ---------------------------------------------------------------------------
# Syllable canonical form.


def canonical_form(graph: DefiningGraph, word: Word) -> Word:
    """Rewrite every maximal dihedral syllable to its canonical spelling.

    Sound: each replacement is an equality in the two-generator subgroup.
    Passes repeat (a replacement can merge adjacent syllables) until one
    changes nothing, or would make the word longer, in which case the word
    before it is kept; at most six passes run.  The result is a pure
    function of the graph and the freely reduced word: it is recorded as its
    own canonical form only when a pass confirmed that, never when the
    six-pass cap stopped the loop.
    """
    return _settle(_context(graph), free_reduce(word))


def _settle(ctx: _OracleContext, word: Word, runs=None, a: int = 0, t: int = 0) -> Word:
    """canonical_form of a freely reduced word.

    runs = (state, starts, start_set) names a settled state and its run
    starts (a sorted list and a set); the word shares its first a and its
    last t letters with that state.  A greedy run is fixed by its first
    letter and the letters up to the one after it, so the state's runs that
    end before a - 1 are runs of the word, and so are the state's runs from
    any run start in the shared suffix that the scan reaches; the state
    being settled, all of them are canonical.  A pass then rescans from the
    state run holding position a - 1 up to the first such run start, and a
    and t shrink to what the pass left untouched.
    """
    memo = ctx.canonical
    hit = memo.get(word)
    if hit is not None:
        return hit
    original, settled = word, False
    for _ in range(_MAX_PASSES):
        if runs is None:
            new = ctx.syllable_pass(word)[0]
        else:
            state, starts, start_set = runs
            n = len(word)
            begin = starts[bisect_right(starts, a - 1) - 1] if a else 0
            new, low, t = ctx.syllable_pass(word, begin, n - t, n - len(state), start_set)
            a = min(a, low)
        if new == word or len(new) > len(word):
            settled = True
            break
        word = new
    _remember(memo, original, word)
    if settled:
        memo[word] = word
    return word


# ---------------------------------------------------------------------------
# Exact fragments.


def _dihedral_compare(graph: DefiningGraph, u: Word, v: Word, names):
    pair = tuple(sorted(names))
    m = graph.coefficient(*pair) if len(pair) == 2 else INFINITY
    if m is not INFINITY:
        eng = engine(int(m))
        nu, nv = eng.element(u, pair), eng.element(v, pair)
        if nu == nv:
            return _equal("dihedral-nf", (pair, nu))
        return _not_equal("dihedral-nf", (pair, nu, nv))
    # free fragment: one generator, or two generators with no relation
    if u == v:
        return _equal("identical")
    return _not_equal("free", (u, v))


# ---------------------------------------------------------------------------
# Bidirectional rewrite search.


def _successors(ctx: _OracleContext, state: Word, max_len: int) -> tuple:
    """The distinct canonical words one relator move from state, other than
    state itself, each paired with the first move reaching it; memoised.

    Each neighbour is the canonical form of the splice state[:i] + v +
    state[end:], freely reduced at its two junctions, and, when the state is
    settled, settled pass by pass only in the window around the splice.
    """
    key = (state, max_len)
    hit = ctx.successors.get(key)
    if hit is not None:
        return hit
    patterns = ctx.patterns
    n = len(state)
    starts: list[int] = []
    if ctx.syllable_pass(state, marks=starts)[0] is state:
        runs = (state, starts, frozenset(starts))
    else:
        runs = None
    out: dict[Word, tuple] = {}
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
            a, b, lo, hi = i, end, 0, len(v)
            while a and lo < hi and _cancels(state[a - 1], v[lo]):
                a, lo = a - 1, lo + 1
            while b < n and lo < hi and _cancels(v[hi - 1], state[b]):
                b, hi = b + 1, hi - 1
            if lo == hi:
                while a and b < n and _cancels(state[a - 1], state[b]):
                    a, b = a - 1, b + 1
            spliced = state[:a] + v[lo:hi] + state[b:]
            candidate = _settle(ctx, spliced, runs, a, n - b)
            if len(candidate) <= max_len and candidate != state and candidate not in out:
                out[candidate] = (i, u, v)
    hit = tuple(out.items())
    _remember(ctx.successors, key, hit)
    return hit


def _search(graph: DefiningGraph, u: Word, v: Word, budget: int, slack: int):
    """Bidirectional BFS between canonical forms; returns verdict parts."""
    ctx = _context(graph)
    if not ctx.patterns:
        return None, 0  # free group: free reduction already decided
    max_len = max(len(u), len(v)) + (slack if slack is not None else 2 * ctx.max_m)

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
        for nxt, move in _successors(ctx, state, max_len):
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
    ctx = _context(graph)
    au, av = ctx.abelianization(u), ctx.abelianization(v)
    if au != av:
        return _not_equal("abelianization", (au, av))
    names = support(u) | support(v)
    if len(names) <= 2:
        return _dihedral_compare(graph, u, v, names)
    iu, iv = ctx.image(u), ctx.image(v)
    if iu != iv:
        return _not_equal("coxeter", (ctx.coxeter[0], iu, iv))
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

    MEMBER comes with a rewriting of the word in the subgroup's generators.
    NOT_MEMBER comes from the abelianization obstruction or, when W_gens is
    finite (at most two generators, adjacent if two), from a Coxeter image
    outside the probe's W_gens-orbit.  The search shares the canonical-form
    machinery of word_equal.
    """
    gens = frozenset(gens)
    word = canonical_form(graph, free_reduce(word))
    if support(word) <= gens:
        return MembershipResult("MEMBER", word)
    ctx = _context(graph)
    vec = ctx.abelianization(word)
    for i, comp in enumerate(ctx.components):
        if vec[i] != 0 and not (set(comp) & gens):
            return MembershipResult(
                "NOT_MEMBER", None, ("abelianization", i, vec[i])
            )
    if len(gens) < 2 or len(gens) == 2 and graph.has_edge(*gens):
        image = ctx.image(word)
        if image not in ctx.orbit(gens):
            return MembershipResult("NOT_MEMBER", None, ("coxeter", ctx.coxeter[0], image))
    max_len = len(word) + (slack if slack is not None else 2 * ctx.max_m)
    seen: dict[Word, tuple] = {word: None}
    queue: deque[Word] = deque([word])
    expansions = 0
    while queue and expansions < budget:
        state = queue.popleft()
        expansions += 1
        for nxt, move in _successors(ctx, state, max_len):
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
        if not graph.has_edge(*pair) or not support(u) | support(v) <= set(pair):
            return False
        eng = engine(int(graph.coefficient(*pair)))
        return eng.element(u, pair) == eng.element(v, pair) == verdict.certificate[1]
    if verdict.method == "canonical":
        return canonical_form(graph, u) == canonical_form(graph, v)
    if verdict.method == "rewrite" and len(verdict.certificate) == 4:
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
