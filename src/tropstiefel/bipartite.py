"""Bipartite combinatorics on [d] ⊔ [n].

Graphs, optimal matchings under min-plus weights in ints, matching
multifields and their coherence, support-set predicates and sampling,
transversal matroids, and the first-Betti-number dimension formula.  A
graph is its edge set: the graph functions take (d, n, edges), distinct
1-based (i, j) in [d] × [n], and trust them; ``graph_from_json``, where a
graph enters from outside, alone checks them (BAD_EDGE).  A matching is
the tuple (j_1, ..., j_d) of its columns in row order, a matching
multifield the dict from each d-subset of [n] (a frozenset, in
``core.subsets`` order) to the frozenset of its chosen matchings, and a
transversal matroid the frozenset of its bases.  One matching engine
(``optimal_matchings``), on int weights with None at ∞ (a matrix's ``ints``,
or the 0/None rows of an edge set), answers which column sets can be matched
and how well, in one table keyed by column bitmasks (``column_key``): the
Stiefel map, multifields, coherence and transversal matroids; it refuses up
front a table of more than ``MATCHING_BUDGET`` column sets.  Coherence is
one ``simplex.argmin_witness`` question, Gordan's alternative on the
supported matchings' incidence vectors, whose "no" comes with a checked
certificate, refused up front past ``COHERENCE_BUDGET`` supported matchings.
One Hungarian solve (``assignment``) gives a min-cost assignment of every
row and the greatest optimal dual; d of them (one at surplus 0) answer
the Hall-type surplus condition behind the support-set test, the dragon
condition and the rejection sampler ``random_support_set``.  One
union-find gives every component count.
"""

from __future__ import annotations

import functools
import math

from .core import DomainError, TropMatrix, subset_from_key, subset_key, subsets


# ---------------------------------------------------------------------------
# The matching engine: optimal matchings and multifields
# ---------------------------------------------------------------------------

MATCHING_BUDGET = 10 ** 5  # column sets the matching engine may hold


def column_key(J):
    """The matching engine's table key of a column set J: bit j for column j."""
    key = 0
    for j in J:
        key |= 1 << j
    return key


def optimal_matchings(rows, cols, limit=None):
    """The matching engine on the d = len(rows) rows of an int weight
    matrix, None at ∞.  Returns (best, argmins): ``best[column_key(S)]`` is
    the least weight of a matching of rows 1..|S| onto each S ⊆ ``cols``,
    |S| ≤ d, that the finite entries can match, built one row at a time
    over bitmasks (bit j for column j) and shared by every d-set:
    Σ_{k<d} C(n, k)·(n − k) steps, n = |cols|.  ``argmins(key)`` lists the
    optimal matchings onto a key of ``best`` as column tuples in row order,
    at most ``limit`` of them, by backtracking memoised per key (``S ^ bit``).
    DomainError BUDGET_EXCEEDED, before any work, when the Σ_{k≤d} C(n, k)
    column sets of the table exceed ``MATCHING_BUDGET``."""
    states = sum(math.comb(len(cols), k) for k in range(len(rows) + 1))
    if states > MATCHING_BUDGET:
        raise DomainError("BUDGET_EXCEEDED", f"{len(rows)} rows on {len(cols)} columns give {states} column sets, budget {MATCHING_BUDGET}")
    best, layer = {0: 0}, {0: 0}
    for row in rows:
        grown, steps = {}, [(1 << j, a) for j in cols if (a := row[j - 1]) is not None]
        for S, w in layer.items():
            for bit, a in steps:
                if not S & bit:
                    T, v = S | bit, w + a
                    if T not in grown or v < grown[T]:
                        grown[T] = v
        best.update(grown)
        layer = grown
    return best, functools.partial(_argmins, rows, best, {0: [()]}, limit)


def _argmins(rows, best, memo, limit, S):
    """``argmins(S)`` of the engine; not a recursive closure, so the table
    is freed with its last view rather than by the cycle collector."""
    if S not in memo:
        row, out = rows[S.bit_count() - 1], []
        for j in _columns(S):
            a, T = row[j - 1], S ^ 1 << j
            if a is not None and T in best and best[T] + a == best[S]:
                out += [m + (j,) for m in _argmins(rows, best, memo, limit, T)]
        memo[S] = out[:limit]
    return memo[S]


def _columns(S):
    """The columns of a table key S, as a list in increasing order."""
    out = []
    while S:
        out.append((S & -S).bit_length() - 1)
        S &= S - 1
    return out


def _zero_inf_rows(d, n, edges):
    """The 0/∞ matrix of an edge set as int rows, None at ∞: every
    supported matching weighs 0."""
    rows = [[None] * n for _ in range(d)]
    for i, j in edges:
        rows[i - 1][j - 1] = 0
    return rows


def matching_multifield(A: TropMatrix) -> dict:
    """Λ(A): the optimal matchings on every column d-subset, in ``subsets``
    order; NO_MATCHING_IN_SUPPORT when d > n, which leaves no d-subset."""
    if A.d > A.n:
        raise DomainError("NO_MATCHING_IN_SUPPORT", "support contains no matching")
    best, argmins = optimal_matchings(A.ints, range(1, A.n + 1))
    choices = {}
    for J in subsets(A.n, A.d):
        if (S := column_key(J)) not in best:
            raise DomainError("NO_MATCHING_ON_SUBSET", f"support admits no matching on {sorted(J)}")
        choices[J] = frozenset(argmins(S))
    return choices


def assignment(cost):
    """A min-cost assignment of each row of ``cost`` to its own column, by
    the Hungarian method (Kuhn 1955; Munkres 1957) in exact ints: ``cost``
    is d rows of n ints, None for a missing edge (0-based).  Each row joins
    by a shortest augmenting path over the reduced costs c_ij − u_i − v_j,
    O(d²n) in all.  Returns (u, v, match) with (u, v) the greatest optimal
    dual in v: u_i + v_j <= c_ij on every edge, with equality on the edges
    (i, match[i]), v <= 0, and v_j = 0 on the columns no row takes, so
    Σu + Σv is the least cost.  Optimal duals form a lattice (Shapley–Shubik
    1971; Demange–Gale–Sotomayor 1986), and after rows 0..r join, v is the
    greatest for those rows.  Lemma: a feasible (u, v), v <= 0, tight on an
    optimal matching m, is greatest exactly when every column with v_j < 0
    is reached from one with v = 0 by steps from a column m(i) to its row i,
    then along a tight edge (i, j'): each step keeps w_j' − v_j' <=
    w_m(i) − v_m(i) for any optimal w, and unreached columns could rise, u
    falling on their rows.  Row r lowers v only on the columns Dijkstra
    settles before the free column j1, where v = 0, and raises u only on its
    tree, whose edges turn tight, so after the augmentation j1 reaches the
    tree.  A row whose u rose has tight edges only into settled columns, so
    a path that reached an unsettled column keeps, past its last tree row,
    its edges, its matching and v.
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
    return u, v, match


COHERENCE_BUDGET = 2 * 10 ** 3  # supported matchings the coherence LP may hold: a tableau column each, two for a tie


def is_coherent(multifield):
    """A witness matrix A with matching_multifield(A) = Λ, or None.

    Λ is a multifield as ``matching_multifield`` and ``multifield_from_json``
    give it, whose d and n are read off its keys: d = |J|, and n is the
    largest column of any key, since every d-subset of [n] is one.  One
    unknown weight per edge of a chosen matching and one ``argmin_witness``
    group per J: the chosen matchings on J are exactly the lightest of the
    supported matchings on J, each the incidence vector of its edges over
    the support.  The supported matchings on J are the optimal ones of the
    support's 0/∞ matrix, on which each of them weighs 0.  DomainError
    BUDGET_EXCEEDED, before the LP, when they are more than
    ``COHERENCE_BUDGET``; a list cut at one past it is alone over it.  A
    None has passed the check of ``argmin_witness``'s Gordan certificate.
    Rank 0 is refused first, BAD_SHAPE: no witness matrix has 0 rows.
    """
    d = len(next(iter(multifield)))
    if d == 0:
        raise DomainError("BAD_SHAPE", "rank 0: no witness matrix has 0 rows")
    # imported here, so that only coherent compiles the simplex
    from .simplex import argmin_witness
    n = max(map(max, multifield))
    support = sorted({e for ms in multifield.values() for m in ms for e in enumerate(m, 1)})
    index = {e: k for k, e in enumerate(support)}
    rows = _zero_inf_rows(d, n, index)
    supported = optimal_matchings(rows, range(1, n + 1), limit=COHERENCE_BUDGET + 1)[1]
    total = sum(len(supported(column_key(J))) for J in multifield)
    if total > COHERENCE_BUDGET:
        raise DomainError("BUDGET_EXCEEDED", f"at least {total} supported matchings, budget {COHERENCE_BUDGET}")
    incidence = lambda m: tuple(int(m[i - 1] == j) for i, j in support)
    groups = []
    for J, ms in multifield.items():
        others = [m for m in sorted(supported(column_key(J))) if m not in ms]
        groups.append(([incidence(m) for m in sorted(ms)], [incidence(m) for m in others]))
    witness = argmin_witness(len(support), groups)
    if witness is None:
        return None

    entries = [[None] * n for _ in range(d)]
    for (i, j), k in index.items():
        entries[i - 1][j - 1] = witness[k]
    # gauge: subtract row minima for a reproducible witness
    for row in entries:
        m = min(v for v in row if v is not None)
        row[:] = [v if v is None else v - m for v in row]
    A = TropMatrix(entries)
    if matching_multifield(A) != multifield:  # pragma: no cover - sanity
        raise AssertionError("coherence witness failed to reproduce the multifield")
    return A


# ---------------------------------------------------------------------------
# Hall-type surplus conditions: support sets and the dragon condition
# ---------------------------------------------------------------------------

def neighbourhoods(d, edges):
    """The right neighbourhoods J_1, ..., J_d of an edge set on [d] ⊔ [n],
    a list of sets, J_i at i − 1: one pass over the edges, O(E + d)."""
    J = [set() for _ in range(d)]
    for i, j in edges:
        J[i - 1].add(j)
    return J


def _hall_condition(d, n, edges, k):
    """|J_I| >= |I| + k for every nonempty I ⊆ [d], by Hall's theorem.
    Give row i k + 1 copies: Hall's condition on the row sets holding them
    is this one on the sets I ∋ i, so it holds exactly when, for each row
    i, some matching of the other rows leaves k + 1 columns of J_i free.
    One ``assignment`` per row, at cost 1 on J_i and 0 on the other edges,
    finds the fewest columns of J_i such a matching takes: d calls,
    O(d³n).  At k = 0 the test of each row holds exactly when some matching
    covers every row, so one row's test answers for all: one call.  A
    k < 0 (only when d > n) first joins −k new columns to every row."""
    pad = frozenset(range(n + 1, n + 1 - k))
    k, J = max(k, 0), [Ji | pad for Ji in neighbourhoods(d, edges)]
    cols = range(1, n + len(pad) + 1)
    for i, Ji in enumerate(J if k else J[:1]):
        if len(Ji) < k + 1:
            return False
        if d > 1:  # else no other rows, and they take no column of J_i
            try:
                u, v, _ = assignment([[int(j in Ji) if j in Jr else None for j in cols] for Jr in J[:i] + J[i + 1:]])
            except DomainError:  # NO_MATCHING_IN_SUPPORT: Hall fails on the other rows
                return False
            if len(Ji) - sum(u) - sum(v) < k + 1:
                return False
    return True


def hall_surplus_check(d, n, edges) -> bool:
    """|J_I| >= n - d + |I| for every nonempty I ⊆ [d]."""
    return _hall_condition(d, n, edges, n - d)


def dragon_condition(d, n, edges) -> bool:
    """The dragon marriage condition: |J_I| >= |I| + 1 for every nonempty
    I ⊆ [d] (row-wise)."""
    return _hall_condition(d, n, edges, 1)


def is_support_set(d, n, edges) -> bool:
    """|J_i| = n - d + 1 for every row, then the surplus Hall condition.
    The degrees come first, counted in one pass and read up to the first
    wrong row: they refuse d > n + 1, whose surplus test would pad every
    row with d − n columns."""
    degree = {}
    for i, _ in edges:
        degree[i] = degree.get(i, 0) + 1
    return all(degree.get(i, 0) == n - d + 1 for i in range(1, d + 1)) and hall_surplus_check(d, n, edges)


SUPPORT_SET_DRAWS = 10 ** 4  # draws random_support_set may make


def random_support_set(rng, d, n, budget=SUPPORT_SET_DRAWS):
    """The edges of a support set on [d] ⊔ [n], 1 <= d <= n, uniform among
    them, by rejection: each draw gives every row n − d + 1 columns
    uniformly and is kept when it meets the surplus Hall condition.  A
    support set is one tuple of row choices, so a kept draw is uniform over
    support sets.  A draw whose rows miss a column fails the condition at
    I = [d], and is dropped before the d assignment problems.  At d = n a
    draw is one uniform permutation, a perfect matching: a support set.
    DomainError BUDGET_EXCEEDED when ``budget`` draws keep none."""
    for _ in range(budget):
        if d == n:
            return frozenset(enumerate(rng.sample(range(1, n + 1), n), 1))
        rows = [rng.sample(range(1, n + 1), n - d + 1) for _ in range(d)]
        if len(set().union(*rows)) == n:
            edges = frozenset((i, j) for i, cols in enumerate(rows, 1) for j in cols)
            if hall_surplus_check(d, n, edges):
                return edges
    raise DomainError("BUDGET_EXCEEDED", f"{budget} draws on [{d}] ⊔ [{n}] found no support set, budget {budget}")


# ---------------------------------------------------------------------------
# Transversal matroids
# ---------------------------------------------------------------------------

def basis_keys(d, n, edges) -> list:
    """The ``column_key`` of each basis of the transversal matroid of an edge
    set on [d] ⊔ [n]: of each d-set the matching engine reaches on its 0/∞
    matrix."""
    best = optimal_matchings(_zero_inf_rows(d, n, edges), range(1, n + 1))[0]
    return [S for S in best if S.bit_count() == d]


def transversal_matroid(d, n, edges) -> frozenset:
    """The frozenset of bases, the column d-subsets fully matchable to [d]
    inside an edge set on [d] ⊔ [n]: ``basis_keys`` as column sets."""
    return frozenset(map(frozenset, map(_columns, basis_keys(d, n, edges))))


# ---------------------------------------------------------------------------
# The Betti-number dimension formula
# ---------------------------------------------------------------------------

def support_face_dimension(edges) -> int:
    """First Betti number h_1 = E − V + C over the non-isolated vertices."""
    index = {v: k for k, v in enumerate({("L", i) for i, _ in edges} | {("R", j) for _, j in edges})}
    pairs = [(index["L", i], index["R", j]) for i, j in edges]
    return len(pairs) - len(index) + components(len(index), pairs)


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

def graph_from_json(obj):
    """The one check of a graph from outside: its shape (BAD_GRAPH_JSON),
    then every edge in [d] × [n] (BAD_EDGE).  Returns (d, n, edges), the
    edges a frozenset of 1-based (i, j)."""
    if not isinstance(obj, dict) or not {"d", "n", "edges"} <= set(obj):
        raise DomainError("BAD_GRAPH_JSON", "expected {'d','n','edges'}")
    d, n = obj["d"], obj["n"]
    if not (type(d) is int and type(n) is int and d >= 0 and n >= 0):
        raise DomainError("BAD_GRAPH_JSON", "d and n must be nonnegative integers")
    edges = frozenset(map(tuple, _index_pairs(obj["edges"], "BAD_GRAPH_JSON")))
    for i, j in edges:
        if not (1 <= i <= d and 1 <= j <= n):
            raise DomainError("BAD_EDGE", f"edge ({i},{j}) outside [{d}]x[{n}]")
    return d, n, edges


def _index_pairs(pairs, code):
    """``pairs`` if it is a JSON list of [i, j] pairs of integers (not
    booleans); DomainError ``code`` for any other shape."""
    if not isinstance(pairs, list) or not all(isinstance(p, list) and len(p) == 2 and all(type(v) is int for v in p) for p in pairs):
        raise DomainError(code, "expected a list of [i, j] integer pairs")
    return pairs


def multifield_to_json(mf):
    """d and n are read off the keys, as in ``is_coherent`` (n = 0 at rank 0)."""
    out = {subset_key(J): sorted([[i, j] for i, j in enumerate(m, 1)] for m in ms) for J, ms in mf.items()}
    return {"d": len(next(iter(mf))), "n": max((j for J in mf for j in J), default=0), "choices": out}


def multifield_from_json(obj) -> dict:
    """The one check of a multifield from outside: every key and edge list
    parses, then, J by J in ``subsets`` order, J has a matching
    (EMPTY_CHOICE) and each covers J (BAD_CHOICE)."""
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
                m = tuple(j for _, j in pairs)
                if len(set(m)) != d:
                    raise DomainError("BAD_MATCHING", "repeated right endpoint")
                ms.add(m)
            choices[J] = frozenset(ms)
    except (TypeError, ValueError, OverflowError):
        raise DomainError("BAD_MULTIFIELD_JSON", "choices must map 'j1,...,jd' to lists of edge lists") from None
    if len(choices) != len(obj["choices"]):
        raise DomainError("BAD_MULTIFIELD_JSON", "two keys name one subset")
    mf = {}
    for J in subsets(n, d):  # a missing J ends the walk within len(choices) + 1 subsets
        mf[J] = choices.get(J)
        if not mf[J]:
            raise DomainError("EMPTY_CHOICE", f"no matching chosen on {sorted(J)}")
        if any(frozenset(m) != J for m in mf[J]):
            raise DomainError("BAD_CHOICE", f"a matching does not cover {sorted(J)}")
    return mf
