"""Bipartite combinatorics on [d] ⊔ [n].

Graphs, matchings, optimal matchings under exact min-plus weights, matching
multifields and their coherence, support-set predicates and sampling,
transversal matroids, and the first-Betti-number dimension formula.  One
matching engine (``optimal_matchings``) answers which column sets can be
matched and how well: the Stiefel map, multifields, coherence and
transversal matroids; it refuses up front a table of more than
``MATCHING_BUDGET`` column sets.  Coherence is one ``geom.argmin_witness``
question, refused up front past ``COHERENCE_BUDGET`` supported matchings.
One Hungarian solve (``assignment``) gives a min-cost assignment of every
row and the greatest optimal dual; d of them answer the Hall-type surplus
condition behind the support-set test, the dragon condition and the
rejection sampler ``random_support_set``.  One union-find gives every
component count.
"""

from __future__ import annotations

import functools
import itertools
import math

from .core import INF, DomainError, TropMatrix, subset_from_key
from .geom import argmin_witness


class BipartiteGraph:
    """A bipartite graph with left vertices [d] and right vertices [n]."""

    __slots__ = ("d", "n", "edges")

    def __init__(self, d, n, edges):
        edges = frozenset((int(i), int(j)) for i, j in edges)
        for i, j in edges:
            if not (1 <= i <= d and 1 <= j <= n):
                raise DomainError("BAD_EDGE", f"edge ({i},{j}) outside [{d}]x[{n}]")
        self.d = d
        self.n = n
        self.edges = edges

    @classmethod
    def from_support(cls, A: TropMatrix):
        return cls(A.d, A.n, A.support())

    def J(self, i):
        """Right neighbors of left vertex i."""
        return frozenset(j for a, j in self.edges if a == i)

    def I(self, j):
        """Left neighbors of right vertex j."""
        return frozenset(a for a, b in self.edges if b == j)

    def sorted_edges(self):
        return tuple(sorted(self.edges))

    def __eq__(self, other):
        return (
            isinstance(other, BipartiteGraph)
            and (self.d, self.n, self.edges) == (other.d, other.n, other.edges)
        )

    def __hash__(self):
        return hash((self.d, self.n, self.edges))

    def __repr__(self):
        return "BipartiteGraph(%d, %d, %s)" % (self.d, self.n, sorted(self.edges))


class Matching:
    """A matching covering every left vertex: edges {(1,j_1),...,(d,j_d)}."""

    __slots__ = ("cols",)

    def __init__(self, cols):
        cols = tuple(int(c) for c in cols)
        if len(set(cols)) != len(cols):
            raise DomainError("BAD_MATCHING", "repeated right endpoint")
        self.cols = cols

    @property
    def edges(self):
        return frozenset((i + 1, j) for i, j in enumerate(self.cols))

    @property
    def columns(self):
        return frozenset(self.cols)

    def key(self):
        return tuple(sorted(self.edges))

    def __eq__(self, other):
        return isinstance(other, Matching) and self.cols == other.cols

    def __hash__(self):
        return hash(self.cols)

    def __repr__(self):
        return "Matching(%s)" % (self.cols,)


class MatchingMultifield:
    """A choice of a nonempty set of matchings for each column d-subset."""

    __slots__ = ("d", "n", "choices")

    def __init__(self, d, n, choices):
        self.d = d
        self.n = n
        self.choices = {}
        for J in itertools.combinations(range(1, n + 1), d):
            key = frozenset(J)
            ms = frozenset(choices.get(key, ()))
            if not ms:
                raise DomainError("EMPTY_CHOICE", f"no matching chosen on {sorted(J)}")
            for m in ms:
                if m.columns != key:
                    raise DomainError(
                        "BAD_CHOICE", f"matching {m} does not cover {sorted(J)}"
                    )
            self.choices[key] = ms

    def __getitem__(self, J):
        return self.choices[frozenset(J)]

    def support(self):
        """Union of the edges of all chosen matchings."""
        out = set()
        for ms in self.choices.values():
            for m in ms:
                out |= m.edges
        return frozenset(out)

    def __eq__(self, other):
        return (
            isinstance(other, MatchingMultifield)
            and (self.d, self.n) == (other.d, other.n)
            and self.choices == other.choices
        )

    def __repr__(self):
        return "MatchingMultifield(d=%d, n=%d)" % (self.d, self.n)


class Matroid:
    """A matroid on [n] given by its explicit (possibly empty) basis list."""

    __slots__ = ("n", "rank_value", "bases")

    def __init__(self, n, rank, bases):
        self.n = n
        self.rank_value = rank
        self.bases = frozenset(frozenset(b) for b in bases)
        ground = frozenset(range(1, n + 1))
        for b in self.bases:
            if len(b) != rank or not b <= ground:
                raise DomainError("BAD_BASIS", f"{sorted(b)} is not a {rank}-subset of [{n}]")

    def is_empty(self):
        return not self.bases

    def loops(self):
        """Elements lying in no basis."""
        used = frozenset().union(*self.bases)
        return frozenset(range(1, self.n + 1)) - used

    def canonical(self):
        return tuple(sorted(tuple(sorted(b)) for b in self.bases))

    def __eq__(self, other):
        return isinstance(other, Matroid) and (self.n, self.bases) == (other.n, other.bases)

    def __hash__(self):
        return hash((self.n, self.bases))

    def __repr__(self):
        return "Matroid(n=%d, rank=%d, %d bases)" % (self.n, self.rank_value, len(self.bases))


# ---------------------------------------------------------------------------
# The matching engine: optimal matchings and multifields
# ---------------------------------------------------------------------------

MATCHING_BUDGET = 10 ** 5  # column sets the matching engine may hold


def optimal_matchings(rows, cols, limit=None):
    """The matching engine on the d = len(rows) rows of a weight matrix.

    Returns (best, argmins).  ``best[S]`` is the least weight of a matching
    of rows 1..|S| onto each frozenset S ⊆ ``cols`` with |S| ≤ d that the
    finite entries can match, built one row at a time and shared by every
    d-set: Σ_{k<d} C(n, k)·(n − k) steps, n = |cols|.  ``argmins(S)`` lists
    the optimal matchings onto a key S of ``best`` as column tuples in row
    order, at most ``limit`` of them, by backtracking memoised per S.
    DomainError BUDGET_EXCEEDED, before any work, when the Σ_{k≤d} C(n, k)
    column sets of the table exceed ``MATCHING_BUDGET``."""
    states = sum(math.comb(len(cols), k) for k in range(len(rows) + 1))
    if states > MATCHING_BUDGET:
        raise DomainError(
            "BUDGET_EXCEEDED",
            f"{len(rows)} rows on {len(cols)} columns give {states} column sets, budget {MATCHING_BUDGET}",
        )
    best = {frozenset(): 0}
    layer = best.copy()
    for row in rows:
        grown = {}
        for S, w in layer.items():
            for j in cols:
                a = row[j - 1]
                if a is not INF and j not in S:
                    T, v = S | {j}, w + a
                    if T not in grown or v < grown[T]:
                        grown[T] = v
        best.update(grown)
        layer = grown
    return best, functools.partial(_argmins, rows, best, {frozenset(): [()]}, limit)


def _argmins(rows, best, memo, limit, S):
    """``argmins(S)`` of the engine; not a recursive closure, so the table
    is freed with its last view rather than by the cycle collector."""
    if S not in memo:
        row, out = rows[len(S) - 1], []
        for j in S:
            a, T = row[j - 1], S - {j}
            if a is not INF and T in best and best[T] + a == best[S]:
                out += [m + (j,) for m in _argmins(rows, best, memo, limit, T)]
        memo[S] = out[:limit]
    return memo[S]


def _zero_inf_rows(d, n, edges):
    """The 0/∞ matrix of an edge set: every supported matching weighs 0."""
    return [[0 if (i, j) in edges else INF for j in range(1, n + 1)] for i in range(1, d + 1)]


def matching_multifield(A: TropMatrix) -> MatchingMultifield:
    """Λ(A): the optimal matchings on every column d-subset;
    NO_MATCHING_IN_SUPPORT when d > n, which leaves no d-subset."""
    if A.d > A.n:
        raise DomainError("NO_MATCHING_IN_SUPPORT", "support contains no matching")
    best, argmins = optimal_matchings(A.entries, range(1, A.n + 1))
    choices = {}
    for J in itertools.combinations(range(1, A.n + 1), A.d):
        J = frozenset(J)
        if J not in best:
            raise DomainError("NO_MATCHING_ON_SUBSET", f"support admits no matching on {sorted(J)}")
        choices[J] = frozenset(Matching(cols) for cols in argmins(J))
    return MatchingMultifield(A.d, A.n, choices)


def assignment(cost):
    """A min-cost assignment of each row of ``cost`` to its own column, by
    the Hungarian method (Kuhn 1955; Munkres 1957) in exact ints: ``cost``
    is d rows of n ints, None for a missing edge (0-based).  Each row joins
    by a shortest augmenting path over the reduced costs c_ij − u_i − v_j,
    O(d²n) in all.  Returns (u, v, match) with (u, v) the greatest optimal
    dual in v: u_i + v_j <= c_ij on every edge, with equality on the edges
    (i, match[i]), v <= 0, and v_j = 0 on the columns no row takes, so
    Σu + Σv is the least cost.  Optimal duals form a lattice (Shapley–Shubik
    1971) and are those with v_j <= 0 and v_j − v_m <= c_ij − c_im, m =
    match[i], so v is raised to its greatest value by a Bellman–Ford
    fixpoint from v = 0 (Demange–Gale–Sotomayor 1986): an optimal matching
    leaves no negative cycle, and a shortest path passes at most d matched
    columns, so it ends after at most d + 1 sweeps.
    NO_MATCHING_IN_SUPPORT when no matching covers every row."""
    d, n = len(cost), len(cost[0])
    u, v, match, owner = [0] * d, [0] * n, [None] * d, [None] * n
    for r in range(d):
        slack, via, used, i = [None] * n, [None] * n, [False] * n, r
        while True:  # grow the tree of r and the owners of the used columns
            ui, j1 = u[i], None
            for j, c in enumerate(cost[i]):
                if not used[j]:
                    if c is not None and (slack[j] is None or c - ui - v[j] < slack[j]):
                        slack[j], via[j] = c - ui - v[j], i
                    if slack[j] is not None and (j1 is None or slack[j] < slack[j1]):
                        j1 = j
            if j1 is None:
                raise DomainError("NO_MATCHING_IN_SUPPORT", "support contains no matching")
            delta = slack[j1]
            u[r] += delta
            for j in range(n):
                if used[j]:
                    u[owner[j]] += delta
                    v[j] -= delta
                elif slack[j] is not None:
                    slack[j] -= delta
            used[j1], i = True, owner[j1]
            if i is None:
                break
        while j1 is not None:  # augment: each row of the path takes the column it reached
            i = via[j1]
            owner[j1], match[i], j1 = i, j1, match[i]
    v, changed = [0] * n, True
    while changed:  # v_j <= v_m + c_ij − c_im: shortest paths from v = 0
        changed = False
        for row, m in zip(cost, match):
            base = v[m] - row[m]
            for j, c in enumerate(row):
                if c is not None and base + c < v[j]:
                    v[j], changed = base + c, True
    return [row[m] - v[m] for row, m in zip(cost, match)], v, match


COHERENCE_BUDGET = 2 * 10 ** 3  # supported matchings (one LP row each) the coherence LP may hold


def is_coherent(multifield: MatchingMultifield):
    """A witness matrix A with matching_multifield(A) = Λ, or None.

    One unknown weight per support edge and one ``argmin_witness`` group
    per J: the chosen matchings on J are exactly the lightest of the
    supported matchings on J, each an incidence vector over the support
    with height 0.  The supported matchings on J are the optimal ones of the
    support's 0/∞ matrix, on which each of them weighs 0.  DomainError
    BUDGET_EXCEEDED, before the LP, when they are more than
    ``COHERENCE_BUDGET``; a list cut at one past it is alone over it.
    """
    support = sorted(multifield.support())
    index = {e: k for k, e in enumerate(support)}
    rows = _zero_inf_rows(multifield.d, multifield.n, index)
    supported = optimal_matchings(rows, range(1, multifield.n + 1), limit=COHERENCE_BUDGET + 1)[1]
    total = sum(len(supported(J)) for J in multifield.choices)
    if total > COHERENCE_BUDGET:
        raise DomainError("BUDGET_EXCEEDED", f"at least {total} supported matchings, budget {COHERENCE_BUDGET}")
    pair = lambda m: (tuple(int(m.cols[i - 1] == j) for i, j in support), 0)
    groups = []
    for J in sorted(multifield.choices, key=lambda s: tuple(sorted(s))):
        chosen = sorted(multifield[J], key=lambda m: m.key())
        others = [m for m in map(Matching, sorted(supported(J))) if m not in multifield[J]]
        groups.append(([pair(m) for m in chosen], [pair(m) for m in others]))
    witness = argmin_witness(len(support), groups)
    if witness is None:
        return None

    entries = [[INF] * multifield.n for _ in range(multifield.d)]
    for (i, j), k in index.items():
        entries[i - 1][j - 1] = witness[k]
    # gauge: subtract row minima for a reproducible witness
    for row in entries:
        m = min(v for v in row if v is not INF)
        row[:] = [v if v is INF else v - m for v in row]
    A = TropMatrix(entries)
    if matching_multifield(A) != multifield:  # pragma: no cover - sanity
        raise AssertionError("coherence witness failed to reproduce the multifield")
    return A


# ---------------------------------------------------------------------------
# Hall-type surplus conditions: support sets and the dragon condition
# ---------------------------------------------------------------------------

def _hall_condition(G: BipartiteGraph, k):
    """|J_I| >= |I| + k for every nonempty I ⊆ [d], by Hall's theorem.
    Give row i k + 1 copies: Hall's condition on the row sets holding them
    is this one on the sets I ∋ i, so it holds exactly when, for each row
    i, some matching of the other rows leaves k + 1 columns of J_i free.
    One ``assignment`` per row, at cost 1 on J_i and 0 on the other edges,
    finds the fewest columns of J_i such a matching takes: d calls,
    O(d³n).  A k < 0 (only when d > n) first joins −k new columns to every
    row."""
    pad = frozenset(range(G.n + 1, G.n + 1 - k))
    k, J = max(k, 0), [G.J(i) | pad for i in range(1, G.d + 1)]
    cols = range(1, G.n + len(pad) + 1)
    for i, Ji in enumerate(J):
        if len(Ji) < k + 1:
            return False
        if G.d > 1:  # else no other rows, and they take no column of J_i
            try:
                u, v, _ = assignment([[int(j in Ji) if j in Jr else None for j in cols] for Jr in J[:i] + J[i + 1:]])
            except DomainError:  # NO_MATCHING_IN_SUPPORT: Hall fails on the other rows
                return False
            if len(Ji) - sum(u) - sum(v) < k + 1:
                return False
    return True


def hall_surplus_check(G: BipartiteGraph) -> bool:
    """|J_I| >= n - d + |I| for every nonempty I ⊆ [d]."""
    return _hall_condition(G, G.n - G.d)


def dragon_condition(G: BipartiteGraph) -> bool:
    """The dragon marriage condition: |J_I| >= |I| + 1 for every nonempty
    I ⊆ [d] (row-wise)."""
    return _hall_condition(G, 1)


def is_support_set(G: BipartiteGraph) -> bool:
    """Surplus Hall condition plus |J_i| = n - d + 1 for every row."""
    if not hall_surplus_check(G):
        return False
    return all(len(G.J(i)) == G.n - G.d + 1 for i in range(1, G.d + 1))


SUPPORT_SET_DRAWS = 10 ** 4  # draws random_support_set may make


def random_support_set(rng, d, n, budget=SUPPORT_SET_DRAWS):
    """A support set on [d] ⊔ [n], 1 <= d <= n, uniform among them, by
    rejection: each draw gives every row n − d + 1 columns uniformly and is
    kept when it meets the surplus Hall condition.  A support set is one
    tuple of row choices, so a kept draw is uniform over support sets.  A
    draw whose rows miss a column fails the condition at I = [d], and is
    dropped before the d assignment problems.  At d = n a draw is one
    uniform permutation, a perfect matching: a support set.  DomainError
    BUDGET_EXCEEDED when ``budget`` draws keep none."""
    for _ in range(budget):
        if d == n:
            return BipartiteGraph(d, n, enumerate(rng.sample(range(1, n + 1), n), 1))
        rows = [rng.sample(range(1, n + 1), n - d + 1) for _ in range(d)]
        if len(set().union(*rows)) == n:
            G = BipartiteGraph(d, n, [(i, j) for i, cols in enumerate(rows, 1) for j in cols])
            if hall_surplus_check(G):
                return G
    raise DomainError("BUDGET_EXCEEDED", f"{budget} draws on [{d}] ⊔ [{n}] found no support set, budget {budget}")


# ---------------------------------------------------------------------------
# Transversal matroids
# ---------------------------------------------------------------------------

def transversal_matroid(G: BipartiteGraph) -> Matroid:
    """Bases are the column d-subsets fully matchable to [d] inside G: the
    d-sets that the matching engine reaches on G's 0/∞ matrix."""
    best = optimal_matchings(_zero_inf_rows(G.d, G.n, G.edges), range(1, G.n + 1))[0]
    return Matroid(G.n, G.d, [S for S in best if len(S) == G.d])


# ---------------------------------------------------------------------------
# The Betti-number dimension formula
# ---------------------------------------------------------------------------

def support_face_dimension(G: BipartiteGraph) -> int:
    """First Betti number h_1 = E − V + C over the non-isolated vertices."""
    index = {v: k for k, v in enumerate({("L", i) for i, _ in G.edges} | {("R", j) for _, j in G.edges})}
    edges = [(index["L", i], index["R", j]) for i, j in G.edges]
    return len(edges) - len(index) + components(len(index), edges)


def components(k, groups):
    """The number of components of the graph on 0, ..., k − 1 that joins the
    members of each group (a list-based union-find)."""
    root = list(range(k))

    def find(i):
        while root[i] != i:
            i = root[i]
        return i

    for g in groups:
        for i in g[1:]:
            root[find(i)] = find(g[0])
    return sum(1 for i in range(k) if root[i] == i)


# ---------------------------------------------------------------------------
# JSON interchange
# ---------------------------------------------------------------------------

def graph_from_json(obj) -> BipartiteGraph:
    if not isinstance(obj, dict) or not {"d", "n", "edges"} <= set(obj):
        raise DomainError("BAD_GRAPH_JSON", "expected {'d','n','edges'}")
    d, n = obj["d"], obj["n"]
    if not (type(d) is int and type(n) is int and d >= 0 and n >= 0):
        raise DomainError("BAD_GRAPH_JSON", "d and n must be nonnegative integers")
    return BipartiteGraph(d, n, _index_pairs(obj["edges"], "BAD_GRAPH_JSON"))


def _index_pairs(pairs, code):
    """``pairs`` if it is a JSON list of [i, j] pairs of integers (not
    booleans); DomainError ``code`` for any other shape."""
    if not isinstance(pairs, list) or not all(
        isinstance(p, list) and len(p) == 2 and all(type(v) is int for v in p) for p in pairs
    ):
        raise DomainError(code, "expected a list of [i, j] integer pairs")
    return pairs


def multifield_to_json(mf: MatchingMultifield):
    out = {}
    for J, ms in mf.choices.items():
        key = ",".join(str(j) for j in sorted(J))
        out[key] = sorted([list(e) for e in m.key()] for m in ms)
    return {"d": mf.d, "n": mf.n, "choices": out}


def multifield_from_json(obj) -> MatchingMultifield:
    if not isinstance(obj, dict) or not {"d", "n", "choices"} <= set(obj):
        raise DomainError("BAD_MULTIFIELD_JSON", "expected {'d','n','choices'}")
    d, n = obj["d"], obj["n"]
    if not (type(d) is int and type(n) is int and 0 <= d <= n and isinstance(obj["choices"], dict)):
        raise DomainError("BAD_MULTIFIELD_JSON", "need integers 0 <= d <= n and a choices object")
    choices = {}
    try:
        for key, matchings in obj["choices"].items():
            J = subset_from_key(key, d, n, "BAD_MULTIFIELD_JSON")
            ms = set()
            for edge_list in matchings:
                pairs = sorted(_index_pairs(edge_list, "BAD_MULTIFIELD_JSON"))
                if [i for i, _ in pairs] != list(range(1, d + 1)):
                    raise DomainError("BAD_MULTIFIELD_JSON", f"an edge list must name each row of [{d}] once")
                ms.add(Matching(j for _, j in pairs))
            choices[J] = frozenset(ms)
    except (TypeError, ValueError, OverflowError):
        raise DomainError("BAD_MULTIFIELD_JSON", "choices must map 'j1,...,jd' to lists of edge lists") from None
    if len(choices) != len(obj["choices"]):
        raise DomainError("BAD_MULTIFIELD_JSON", "two keys name one subset")
    return MatchingMultifield(d, n, choices)
