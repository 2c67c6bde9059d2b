"""Paper-level reference routes: second answers, as the paper defines
them, to questions the library answers by one route.  The tests compare
the two.  The library keeps only what the CLI and the benchmark reach
(``test_every_library_name_is_reached``), so these routes live here:

* the bounded part of L(A) as the images of the cells of K(A)
  (``bounded_complex``, ``bounded_point_in_complex``) and as the points
  whose selected matroid is interior, with no loop and no coloop
  (``bounded_membership``, ``is_interior_cell``), against
  ``linspace.in_bounded_part``, and the caterpillar test of d = 2;
* the decomposition cone of a certificate (``decomposition_cone``),
  x ⊙ A (``vec_mat_mul``, over ⊕ = ``trop_sum``), the row cover of B(A)
  (``in_B``) and the column-wise dragon condition
  (``colwise_dragon_condition``) against ``linspace.decompose``, and the
  columns some optimal assignment uses, by alternating paths
  (``optimal_columns``), against its membership answer;
* the greatest optimal dual of an assignment by a Bellman–Ford fixpoint
  (``greatest_dual``) against the one ``bipartite.assignment``'s Hungarian
  loop ends at;
* tc(x) of a point (``covector_of_point``) against the search of
  ``arrangement.enumerate_covectors``, and TC(A) by trying every nonempty
  subset of the rows R_j that can attain each column's minimum and keeping
  the feasible ones (``covectors_by_row_subsets``, on the refusing
  ``attain_or_refuse``), against the library's search over unions of tie
  classes, which has no infeasible child;
* π(A) as the stable union of the rows (``stable_union``, ``row_vector``)
  against ``plucker.stiefel_map``, with duality and stable intersection;
* the Hall-type surplus scan over all 2^d − 1 row sets (``_hall_surplus``,
  refused past ``HALL_BUDGET``) against ``bipartite.hall_surplus_check``
  and ``bipartite.dragon_condition``, which ask d assignment problems;
* the list of every support set (``enumerate_support_sets``), for the
  support-set censuses and against the draws of
  ``bipartite.random_support_set``;
* transversal rank by deficiency and the matroid polytope inequalities
  against ``bipartite.transversal_matroid``, and the maximum matching by
  augmenting paths (``_max_matching_size``) against both and against
  ``decompose``'s refusal of a support with no matching;
* the matroid references: the uniform matroid U(d, n)
  (``uniform_matroid``), against which ``bipartite.transversal_matroid``
  is compared where the library asks ``bipartite.hall_surplus_check``,
  and the underlying matroid of a Plücker vector (``underlying_matroid``),
  uniform exactly when no coordinate is ∞;
* the optimal matchings on one column set (``min_matchings``) against the
  other views of ``bipartite.optimal_matchings``;
* the residual of y (``residuation``), by which
  ``bounded_point_in_complex`` gauges y;
* the primal route of ``simplex.argmin_witness``: a two-phase simplex with
  a shift column, a surplus and an artificial column per row
  (``lp_solve``, its objective rows installed by ``_set_objective``),
  which maximizes ε over the strict rows relaxed to a·x >= b + ε
  (``strict_feasible``, on the rows of ``argmin_rows``: (vector, height)
  pairs), against the library's homogeneous LP, which answers heights
  through a lift;
* cells of D(A) by that primal route (``cell_exists``) and the equality
  of two subdivisions against ``arrangement.facets_of_D``;
* methods that no library code calls, as functions on the object they
  belonged to: projective equality (``proj_eq``, ``plucker_proj_eq``),
  shifts, the support of a vector, rows and transposes, connectivity of
  graphs, and the restriction, polytrope membership, dimension and minimal
  form of a ``DifferenceBounds``;
* functions on a matroid, the frozenset of its bases: its loops and
  coloops, its connectivity, and the shape check of a basis list
  (``BAD_BASIS``) in ``cell_exists``;
* the cocircuit of a (d−1)-set (``cocircuit``), with its refusals of a
  set of another size (``BAD_SUBSET``) and of an all-∞ vector
  (``ALL_INF``), against the rows ``plucker.recover_matrix`` reads off p.
"""

import itertools
import math
from fractions import Fraction

from tropstiefel.core import INF, DomainError, TropMatrix, TropVector, common_denom, quotient, require_column_supports, scalar, scalar_str, subsets
from tropstiefel.geom import DifferenceBounds
from tropstiefel.simplex import ONE, ZERO, _pivot
from tropstiefel.bipartite import assignment, column_key, components, hall_surplus_check, optimal_matchings
from tropstiefel.plucker import PluckerVector
from tropstiefel.arrangement import covector_edges, enumerate_covectors, facets_of_D
from tropstiefel.linspace import _require_uniform, bounded_skeleton, in_K, select_matroid


# ---------------------------------------------------------------------------
# Vectors: ⊕ and x ⊙ A, the residual, the row-support check and the vector
# codec
# ---------------------------------------------------------------------------

def common_ints(A: TropMatrix, y: TropVector):
    """(unit, a, z): the integer forms of A and of a finite y brought to
    their common denominator unit; a[i][j] is None where A is ∞."""
    unit, fa, fy = common_denom(A.denom, y.denom)
    return unit, [[None if c is None else c * fa for c in row] for row in A.ints], [w * fy for w in y.ints]


def trop_sum(values):
    """⊕ over an iterable: the minimum of its finite terms, ∞ if none."""
    return min((v for v in values if v is not INF), default=INF)


def vec_mat_mul(x: TropVector, A: TropMatrix) -> TropVector:
    """Tropical right multiplication: (x ⊙ A)_j = min_i (x_i + a_ij)."""
    if len(x) != A.d:
        raise DomainError("LENGTH_MISMATCH", "vector length must equal row count")
    out = []
    for j in range(A.n):
        terms = zip(x.entries, (row[j] for row in A.entries))
        out.append(trop_sum(a + b for a, b in terms if a is not INF and b is not INF))
    return TropVector(out)


def proj_normalize(x: TropVector) -> TropVector:
    """Subtract the value at the first finite coordinate (canonical form)."""
    for v in x.entries:
        if v is not INF:
            return TropVector(tuple(w - v if w is not INF else INF for w in x.entries))
    raise DomainError("ALL_INF", "cannot normalize the all-infinity vector")


def require_row_supports(A: TropMatrix):
    for i in range(1, A.d + 1):
        if not row_support(A, i):
            raise DomainError("EMPTY_ROW", f"row {i} has empty support")


def residuation(y: TropVector, A: TropMatrix) -> TropVector:
    """The residual x with x_i = max_{j in J_i} (y_j - a_ij).

    If y lies in the image of ⊙A this is its unique preimage meeting every
    row; in general vec_mat_mul(residuation(y, A), A) >= y componentwise.
    """
    if len(y) != A.n:
        raise DomainError("LENGTH_MISMATCH", "vector length must equal column count")
    if not y.is_finite():
        raise DomainError("INF_ENTRY", "residuation requires a finite vector")
    require_row_supports(A)
    out = []
    for i in range(1, A.d + 1):
        out.append(max(y.entry(j) - A.entry(i, j) for j in row_support(A, i)))
    return TropVector(out)


def vector_to_json(x: TropVector) -> dict:
    return {"entries": [scalar_str(v) for v in x.entries]}


# ---------------------------------------------------------------------------
# Bipartite graphs: the uniform matroid, one optimal assignment, transversal
# rank, spanning trees
# ---------------------------------------------------------------------------

def uniform_matroid(d, n):
    return frozenset(map(frozenset, itertools.combinations(range(1, n + 1), d)))


def min_matchings(A: TropMatrix, J):
    """Optimal-assignment value and all optimal matchings on column set J.

    Returns (value, argmins); value is INF and argmins empty when the
    support of A admits no matching on J.  The engine runs on J alone, on
    A's ints."""
    J = frozenset(J)
    if len(J) != A.d or not J <= frozenset(range(1, A.n + 1)):
        raise DomainError("BAD_SUBSET", "J must be a d-subset of [n]")
    best, argmins = optimal_matchings(A.ints, sorted(J))
    if (S := column_key(J)) not in best:
        return INF, frozenset()
    return quotient(best[S], A.denom), frozenset(argmins(S))


def optimal_columns(cost):
    """The 0-based columns that some min-cost assignment of ``cost`` uses.
    By complementary slackness the optimal assignments are those on tight
    edges (u_i + v_j = c_ij) that take every column with v_j < 0, so a free
    column lies in one exactly when a tight edge joins it to a row that may
    leave its column c: when v_c = 0, or when a tight edge joins c to
    another such row.  Swapping along that path costs nothing."""
    u, v, match = assignment(cost)
    owner = {j: i for i, j in enumerate(match)}
    free = [i for i, j in enumerate(match) if v[j] == 0]
    seen, out = set(free), set(match)
    for i in free:  # grows as it is read
        for j, c in enumerate(cost[i]):
            if c is not None and c == u[i] + v[j]:
                out.add(j)
                k = owner.get(j)
                if k is not None and k not in seen:
                    seen.add(k)
                    free.append(k)
    return out


def greatest_dual(cost, match):
    """The greatest optimal dual (u, v) of ``cost`` for an optimal
    assignment ``match`` (0-based), by a Bellman–Ford fixpoint from v = 0
    (Demange–Gale–Sotomayor 1986).  Optimal duals form a lattice
    (Shapley–Shubik 1971) and are those with v_j <= 0 and
    v_j − v_m <= c_ij − c_im, m = match[i], u_i = c_im − v_m: an optimal
    matching leaves no negative cycle, and a shortest path passes at most d
    matched columns, so it ends after at most d + 1 sweeps."""
    v, changed = [0] * len(cost[0]), True
    while changed:  # v_j <= v_m + c_ij − c_im: shortest paths from v = 0
        changed = False
        for row, m in zip(cost, match):
            base = v[m] - row[m]
            for j, c in enumerate(row):
                if c is not None and base + c < v[j]:
                    v[j], changed = base + c, True
    return [row[m] - v[m] for row, m in zip(cost, match)], v


def support_graph(A: TropMatrix):
    """The support of A as a graph (d, n, edges)."""
    return A.d, A.n, A.support()


def J_of(G, I):
    """Joint right neighborhood of a set of left vertices of G = (d, n, edges)."""
    return frozenset(j for a, j in G[2] if a in I)


HALL_BUDGET = 10 ** 5  # nonempty vertex subsets a Hall-type scan may visit


def _nonempty_subsets(ground):
    """The nonempty subsets of the sequence ``ground``, as tuples by size;
    DomainError BUDGET_EXCEEDED, before the first, when their
    2^|ground| − 1 exceed ``HALL_BUDGET``."""
    count = 2 ** len(ground) - 1
    if count > HALL_BUDGET:
        raise DomainError("BUDGET_EXCEEDED", f"{len(ground)} vertices give {count} subsets, budget {HALL_BUDGET}")
    for r in range(1, len(ground) + 1):
        yield from itertools.combinations(ground, r)


def _hall_surplus(ground, neighbours, k):
    """|neighbours(S)| >= |S| + k for every nonempty S ⊆ ground."""
    for S in _nonempty_subsets(ground):
        if len(neighbours(S)) < len(S) + k:
            return False
    return True


def colwise_dragon_condition(G, J) -> bool:
    """|I_{J'}| >= |J'| + 1 for every nonempty J' ⊆ J (column-wise), under
    ``HALL_BUDGET``."""
    return _hall_surplus(sorted(set(J)), lambda S: I_of(G, S), 1)


def _max_matching_size(G, cols):
    """Maximum matching between [d] and ``cols`` inside G (augmenting paths)."""
    cols = frozenset(cols)
    owner = {}

    def augment(i, seen):
        for j in sorted(J_of(G, {i}) & cols):
            if j in seen:
                continue
            seen.add(j)
            if j not in owner or augment(owner[j], seen):
                owner[j] = i
                return True
        return False

    return sum(1 for i in range(1, G[0] + 1) if augment(i, set()))


def transversal_rank(G, S) -> int:
    """min over I ⊆ [d] of |S ∩ J_I| + d − |I| (the deficiency formula)."""
    S, d = frozenset(S), G[0]
    best = d  # I = ∅
    for I in _nonempty_subsets(range(1, d + 1)):
        v = len(S & J_of(G, I)) + d - len(I)
        if v < best:
            best = v
    return best


def enumerate_support_sets(d, n, budget=10 ** 6):
    """All support sets on [d] ⊔ [n], lexicographically ordered by edge list."""
    row_choices = list(itertools.combinations(range(1, n + 1), n - d + 1))
    if len(row_choices) ** d > budget:
        raise DomainError("BUDGET_EXCEEDED", "support-set enumeration too large")
    out = []
    for rows in itertools.product(row_choices, repeat=d):
        edges = frozenset((i + 1, j) for i, cols in enumerate(rows) for j in cols)
        if hall_surplus_check(d, n, edges):
            out.append((d, n, edges))
    return out


TREE_BUDGET = 10 ** 5  # edge subsets the spanning-tree search may visit


def spanning_tree_no_left_leaves(G):
    """A spanning tree of G whose left vertices all have degree >= 2.

    Exists whenever d < n, G is connected and every edge lies in a matching;
    found here by bounded exhaustive search over edge subsets.
    """
    d, n, E = G
    if not d < n:
        raise DomainError("BAD_SHAPE", "requires d < n")
    if not graph_is_connected(G):
        raise DomainError("NOT_CONNECTED", "graph must be connected")
    for i, j in sorted(E):
        # the other rows match into the other columns
        rest = (d, n, [(a, b) for a, b in E if a != i and b != j])
        if _max_matching_size(rest, range(1, n + 1)) < d - 1:
            raise DomainError("EDGE_NOT_MATCHABLE", f"edge {(i, j)} lies in no matching")
    edges = sorted(E)
    need = d + n - 1
    if math.comb(len(edges), need) > TREE_BUDGET:
        raise DomainError("BUDGET_EXCEEDED", "spanning-tree search too large")
    for subset in itertools.combinations(edges, need):
        T = (d, n, frozenset(subset))
        if not graph_is_connected(T):
            continue
        if all(len(J_of(T, {i})) >= 2 for i in range(1, d + 1)):
            return T
    raise DomainError("NO_SUCH_TREE", "no spanning tree without left leaves")


def graph_to_json(G):
    d, n, edges = G
    return {"d": d, "n": n, "edges": [list(e) for e in sorted(edges)]}


# ---------------------------------------------------------------------------
# Plücker vectors: the underlying matroid, cocircuits, duality, stable
# union and intersection, rank 1 and 0
# ---------------------------------------------------------------------------

def underlying_matroid(p: PluckerVector) -> frozenset:
    return frozenset(J for J, w in p.ints.items() if w is not None)


def cocircuit(p: PluckerVector, S) -> TropVector:
    """c_j = p_{S∪j} off S and ∞ on S; a minimal-support vector of L(p)."""
    S = frozenset(S)
    if len(S) != p.d - 1 or not S <= frozenset(range(1, p.n + 1)):
        raise DomainError("BAD_SUBSET", "S must be a (d-1)-subset of [n]")
    entries = [INF if j in S else p[S | {j}] for j in range(1, p.n + 1)]
    if all(v is INF for v in entries):
        raise DomainError("ALL_INF", "every extension of S is infinite")
    return TropVector(entries)


def dual(p: PluckerVector) -> PluckerVector:
    """p*_S = p_{[n]∖S}, a vector of rank n − d."""
    ground = frozenset(range(1, p.n + 1))
    values = {S: p[ground - S] for S in subsets(p.n, p.n - p.d)}
    return PluckerVector(p.n, p.n - p.d, values)


def stable_intersection(p: PluckerVector, q: PluckerVector) -> PluckerVector:
    """r_T = min over R ∩ S = T, R ∪ S = [n] of p_R + q_S, of rank
    d + e − n: the dual of the stable union of the duals."""
    return dual(stable_union(dual(p), dual(q)))


def stable_union(p: PluckerVector, q: PluckerVector) -> PluckerVector:
    """r_T = min over R ⊔ S = T of p_R + q_S, of rank d + e."""
    if p.n != q.n or p.d + q.d > p.n:
        raise DomainError("RANK_CONDITION", "requires d + e <= n on a common [n]")
    n = p.n
    rank = p.d + q.d
    values = {}
    for Tset in subsets(n, rank):
        terms = []
        for R in itertools.combinations(sorted(Tset), p.d):
            Rset = frozenset(R)
            if p[Rset] is not INF and q[Tset - Rset] is not INF:
                terms.append(p[Rset] + q[Tset - Rset])
        values[Tset] = trop_sum(terms)
    return PluckerVector(n, rank, values)


def row_vector(x: TropVector) -> PluckerVector:
    """A point of the torus as a rank-1 Plücker vector."""
    return PluckerVector(len(x), 1, {frozenset({j}): x.entry(j) for j in range(1, len(x) + 1)})


def rank_zero(n) -> PluckerVector:
    return PluckerVector(n, 0, {frozenset(): 0})


# ---------------------------------------------------------------------------
# Arrangements: covectors of points, transpose covectors, closed cells
# ---------------------------------------------------------------------------

def covector_of_point(A: TropMatrix, x: TropVector):
    """tc(x) = (I_1, ..., I_n): per column, the finite-entry rows attaining
    min_i (x_i + a_ij)."""
    require_column_supports(A)
    if len(x) != A.d or not x.is_finite():
        raise DomainError("BAD_POINT", "the point must be finite, one coordinate per row")
    covector = []
    for j in range(1, A.n + 1):
        best = trop_sum(x.entry(i) + A.entry(i, j) for i in range(1, A.d + 1) if A.entry(i, j) is not INF)
        covector.append(tuple(i for i in range(1, A.d + 1) if A.entry(i, j) is not INF and x.entry(i) + A.entry(i, j) == best))
    return tuple(covector)


def covector_graph(A: TropMatrix, covector):
    """The covector (I_1, ..., I_n) as a bipartite graph (d, n, edges)."""
    return (A.d, A.n, covector_edges(covector))


def in_B(A: TropMatrix, covector) -> bool:
    """Every row of [d] lies in some I_j of the covector."""
    return set().union(*covector) == set(range(1, A.d + 1))


def transpose_covector(A: TropMatrix, y: TropVector):
    """Per row, the columns attaining min_j (a_ij + y_j): tc(y) in the
    arrangement of Aᵀ, its edges flipped."""
    require_row_supports(A)
    return (A.d, A.n, frozenset((i, j) for j, i in covector_edges(covector_of_point(transpose(A), y))))


def _closed_cell(dbm: DifferenceBounds, a, tau, base):
    """Impose on ``dbm`` the closed cell of the covector edge set tau, row i
    being node base + i: per column j with rows I and i0 = min I,
    x_i + a_ij = x_i0 + a_i0j for i ∈ I and x_k + a_kj >= x_i0 + a_i0j for
    every finite row k.  Returns False when the cell is empty.  BAD_COVECTOR,
    before any bound is imposed, for an edge not of integers in [d]×[n] or
    off the support, or for an uncovered column."""
    by_col = [set() for _ in a[0]]
    for i, j in tau:
        if not (type(i) is int and type(j) is int and 1 <= i <= len(a) and 1 <= j <= len(by_col)) or a[i - 1][j - 1] is None:
            raise DomainError("BAD_COVECTOR", f"edge {(i, j)} is not in the support")
        by_col[j - 1].add(i - 1)
    if not all(by_col):
        raise DomainError("BAD_COVECTOR", f"column {by_col.index(set()) + 1} uncovered")
    for j, I in enumerate(by_col):
        i0 = min(I)
        u0, a0 = base + 1 + i0, a[i0][j]
        for k, row in enumerate(a):
            if row[j] is None or k == i0:
                continue
            if not dbm.add(base + 1 + k, u0, row[j] - a0) or (k in I and not dbm.add(u0, base + 1 + k, a0 - row[j])):
                return False
    return True


def attain_or_refuse(dbm, a, j, I):
    """``arrangement._attain`` with a refusal: impose on ``dbm`` the bounds
    saying that exactly the rows I of column j attain min_k (x_k + a_kj),
    row k being node k (0-based, I sorted).  Returns False at the first
    bound ``dbm.add`` refuses."""
    i0 = I[0]
    a0 = a[i0][j]
    for k, row in enumerate(a):
        c = row[j]
        if c is None or k == i0:
            continue
        if k in I:
            if not (dbm.add(i0, k, a0 - c) and dbm.add(k, i0, c - a0)):
                return False
        elif not dbm.add(k, i0, c - a0, True):
            return False
    return True


def covectors_by_row_subsets(A: TropMatrix):
    """TC(A) as (covector, dimension, point) triples sorted by covector
    edges, by a depth-first search that imposes each nonempty subset of
    R_j, the rows ``admits`` lets attain column j's minimum in the open
    cell, on a copy and keeps it when no bound is refused; a cell's
    dimension and point are read off its closed matrix (``polytrope_dim``,
    ``DifferenceBounds.point``)."""
    require_column_supports(A)
    d, n, a = A.d, A.n, A.ints
    cols = [sorted(i - 1 for i in A.col_support(j)) for j in range(1, n + 1)]
    cells = []

    def search(j, dbm, chosen):
        if j == n:
            cells.append((tuple(tuple(i + 1 for i in I) for I in chosen), polytrope_dim(dbm), dbm.point()))
            return
        rows = [i for i in cols[j] if all(dbm.admits(k, i, a[k][j] - a[i][j]) for k in cols[j])]
        for r in range(1, len(rows) + 1):
            for I in itertools.combinations(rows, r):
                child = dbm.copy()
                if attain_or_refuse(child, a, j, I):
                    search(j + 1, child, chosen + [I])

    search(0, DifferenceBounds(d, A.denom), [])
    return sorted(cells, key=lambda c: sorted(covector_edges(c[0])))


def is_trop_singular(B: TropMatrix) -> bool:
    """Minimum of the tropical permutation expansion is ∞ or attained twice:
    the matching engine finds no optimal matching or a second one."""
    if B.d != B.n:
        raise DomainError("BAD_SHAPE", "tropical singularity requires a square matrix")
    full = column_key(range(1, B.n + 1))
    best, argmins = optimal_matchings(B.ints, range(1, B.n + 1), limit=2)
    return full not in best or len(argmins(full)) == 2


# ---------------------------------------------------------------------------
# Subdivisions: matroid polytopes, subdivision equality, cell existence
# ---------------------------------------------------------------------------

def transversal_polytope_ineqs(G):
    """H-representation of the transversal matroid polytope of G as rows
    (eqs, ineqs), a·x = b and a·x >= b: Σ x_j = d, 0 <= x_j <= 1, and
    Σ_{j∈J_I} x_j >= |I| for every I."""
    d, n, _ = G
    eqs = [((ONE,) * n, Fraction(d))]
    ineqs = []
    for j in range(n):
        lo = [ZERO] * n
        lo[j] = ONE
        ineqs.append((tuple(lo), ZERO))
        hi = [ZERO] * n
        hi[j] = -ONE
        ineqs.append((tuple(hi), -ONE))
    for I in _nonempty_subsets(range(1, d + 1)):
        co = [ZERO] * n
        for j in J_of(G, I):
            co[j - 1] = ONE
        ineqs.append((tuple(co), Fraction(len(I))))
    return eqs, ineqs


def subdivisions_equal(A: TropMatrix, B: TropMatrix) -> bool:
    if (A.d, A.n) != (B.d, B.n):
        return False
    return facets_of_D(A) == facets_of_D(B)


def cell_exists(p: PluckerVector, bases) -> bool:
    """Is there a y selecting exactly this basis set as its argmin?  The
    rows of one ``argmin_witness`` group, solved by the primal
    ``strict_feasible``: the bases against the other finite J, each the
    pair (−1_J, p_J), so that height + vector·y = p_J − Σ_{j∈J} y_j."""
    bases = frozenset(map(frozenset, bases))
    for b in bases:
        if len(b) != p.d or not b <= frozenset(range(1, p.n + 1)):
            raise DomainError("BAD_BASIS", f"{sorted(b)} is not a {p.d}-subset of [{p.n}]")
    if not bases or any(p[b] is INF for b in bases):
        return False
    pair = lambda J: (tuple(-1 if j in J else 0 for j in range(1, p.n + 1)), p[J])
    others = [pair(J) for J, v in p.values.items() if v is not INF and J not in bases]
    eqs, gts = argmin_rows([([pair(b) for b in bases], others)])
    return strict_feasible(p.n, eqs=eqs, gts=gts) is not None


# ---------------------------------------------------------------------------
# The primal route of ``simplex.argmin_witness``: a two-phase simplex
# ---------------------------------------------------------------------------

def argmin_rows(groups):
    """The system of ``simplex.argmin_witness`` on ``groups``, as the rows
    (eqs, gts) of ``strict_feasible``: each pair taken against its group's
    first chosen pair, an equality per further chosen pair and a strict
    inequality per other."""
    eqs, gts = [], []
    for ((v0, h0), *tied), others in groups:
        rel = lambda v: tuple(x - y for x, y in zip(v, v0))
        eqs += [(rel(v), h0 - h) for v, h in tied]
        gts += [(rel(v), h0 - h) for v, h in others]
    return eqs, gts


def _set_objective(tab, basis, c):
    """Install the reduced-cost row for maximizing c·x given the basis."""
    ncols = len(tab[0])
    obj = [(-c[j] if j < len(c) else ZERO) for j in range(ncols)]
    m = len(tab) - 1
    for i in range(m):
        cb = c[basis[i]] if basis[i] < len(c) else ZERO
        if cb:
            row = tab[i]
            for j in range(ncols):
                obj[j] += cb * row[j]
    tab[-1] = obj


def _run_primal(tab, basis, nvars):
    """Pivot by Bland's rule to 'optimal', or to 'unbounded' at an entering
    column with no positive entry: the loop of ``simplex._run_simplex``,
    kept apart so that this route runs none of the library's own loop."""
    m, rhs = len(tab) - 1, len(tab[0]) - 1
    while True:
        col = next((j for j in range(nvars) if tab[-1][j] < 0), None)
        if col is None:
            return "optimal"
        rows = [i for i in range(m) if tab[i][col] > 0]
        if not rows:
            return "unbounded"
        _pivot(tab, basis, min(rows, key=lambda i: (tab[i][rhs] / tab[i][col], basis[i])), col)


def lp_solve(dim, eqs, ges, objective):
    """Maximize objective·x subject to eqs and ges over free variables.

    Returns (status, point, value) with status in
    {'optimal', 'unbounded', 'infeasible'}; point/value are None unless
    optimal.
    """
    ges = list(ges)
    nreal = dim + 1 + len(ges)  # x = u - t·1 with u, t >= 0, one surplus var per >=

    def lift(a):  # a·x as a·u - (Σa)·t
        a = [Fraction(v) for v in a]
        return a + [-sum(a, ZERO)]

    rows = [(lift(a) + [ZERO] * len(ges), Fraction(b)) for a, b in eqs]
    rows += [(lift(a) + [-ONE if k == idx else ZERO for k in range(len(ges))], Fraction(b)) for idx, (a, b) in enumerate(ges)]

    m = len(rows)

    # Phase 1 tableau with one artificial variable per row.
    tab = []
    for i, (a, b) in enumerate(rows):
        if b < 0:
            a = [-v for v in a]
            b = -b
        art = [ZERO] * m
        art[i] = ONE
        tab.append(a + art + [b])
    basis = [nreal + i for i in range(m)]
    tab.append([ZERO] * (nreal + m + 1))
    c1 = [ZERO] * nreal + [-ONE] * m
    _set_objective(tab, basis, c1)
    _run_primal(tab, basis, nreal + m)
    if tab[-1][-1] < 0:
        return "infeasible", None, None

    # Drive remaining artificials out of the basis, then drop their columns.
    drop_rows = []
    for i in range(m):
        if basis[i] >= nreal:
            col = next((j for j in range(nreal) if tab[i][j] != 0), None)
            if col is None:
                drop_rows.append(i)
            else:
                _pivot(tab, basis, i, col)
    for i in sorted(drop_rows, reverse=True):
        del tab[i]
        del basis[i]
    tab = [row[:nreal] + [row[-1]] for row in tab]

    c2 = lift(objective) + [ZERO] * len(ges)
    _set_objective(tab, basis, c2)
    status = _run_primal(tab, basis, nreal)
    if status == "unbounded":
        return "unbounded", None, None
    vals = [ZERO] * nreal
    for i, b in enumerate(basis):
        vals[b] = tab[i][-1]
    point = tuple(vals[k] - vals[dim] for k in range(dim))
    return "optimal", point, tab[-1][-1]


def strict_feasible(dim, eqs=(), ges=(), gts=()):
    """An exact x meeting the rows (a, b), each a of length ``dim`` and b
    rational: a·x = b for ``eqs``, a·x >= b for ``ges`` and a·x > b for
    ``gts``; None when there is none.  The simplex maximizes ε with the
    strict rows relaxed to a·x >= b + ε."""
    status, point, value = lp_solve(
        dim + 1,
        [(tuple(a) + (ZERO,), b) for a, b in eqs],
        [(tuple(a) + (ZERO,), b) for a, b in ges]
        + [(tuple(a) + (-ONE,), b) for a, b in gts]
        + [((ZERO,) * dim + (-ONE,), -ONE)],  # ε <= 1
        [ZERO] * dim + [ONE],
    )
    if status == "infeasible" or (status == "optimal" and value <= 0):
        return None
    x = point[:dim]
    dot = lambda a: sum(c * v for c, v in zip(a, x))
    if not (all(dot(a) == b for a, b in eqs) and all(dot(a) >= b for a, b in ges)
            and all(dot(a) > b for a, b in gts)):  # pragma: no cover - sanity
        raise AssertionError("simplex point fails the system it solves")
    return x


# ---------------------------------------------------------------------------
# Linear spaces: decomposition cones and the bounded complex
# ---------------------------------------------------------------------------

def decomposition_cone(A: TropMatrix, tau, J):
    """(F ⊙ A) + R_{>=0}{e_j : j ∈ J} as a closed ``DifferenceBounds`` of
    weak bounds on an origin, node 0, and y_1, ..., y_n, nodes 1..n; None
    when it is empty.

    F is the cell with covector edge set tau.  The graph of the tropical
    map over the closed cell is a difference system on the nodes y_1..y_n,
    x_1..x_d: the cell's bounds on x and y_j − x_i >= a_ij for each edge of
    tau, an equality for j ∉ J.  Its projection is the restriction of the
    closed matrix to the y nodes and an origin, which nothing bounds.
    BAD_SUBSET unless J ⊆ [n], and BAD_COVECTOR for an edge of tau outside
    [d]×[n] or off the support, both before any bound is imposed.
    """
    d, n = A.d, A.n
    Jset = frozenset(J)
    if not Jset <= frozenset(range(1, n + 1)):
        raise DomainError("BAD_SUBSET", "J must be a subset of [n]")
    unit, a = A.denom, A.ints
    dbm = DifferenceBounds(1 + n + d, unit)  # node 0 the origin, y_j node j, x_i node n + i
    feasible = _closed_cell(dbm, a, tau, n) and all(
        dbm.add(j, n + i, -a[i - 1][j - 1])
        and (j in Jset or dbm.add(n + i, j, a[i - 1][j - 1]))
        for i, j in sorted(tau)
    )
    return restrict(dbm, range(n + 1)) if feasible else None


def bounded_complex(A: TropMatrix):
    """The cells of K(A) with the exact image polytropes of ⊙A in R^n.

    The image of a cell F is its decomposition cone with J = ∅, gauge-fixed
    consistently with the arrangement cells (the image of x_1 = 0 is
    y_j1 = a_1j1 for the least column j1 of row 1 in F), a tie of y_j1 to
    the origin."""
    _require_uniform(A)
    a = A.ints
    out = []
    for F in enumerate_covectors(A):
        if not in_K(A, F):
            continue
        j1 = min(j for j, I in enumerate(F, 1) if 1 in I)
        image = decomposition_cone(A, covector_edges(F), ())
        c = a[0][j1 - 1]  # a_1j1 in the cone's unit
        # nothing bounds y_j1 against the origin yet, so neither bound is refused
        image.add(0, j1, c)
        image.add(j1, 0, -c)
        out.append((F, image))
    return out


def bounded_point_in_complex(A: TropMatrix, y: TropVector) -> bool:
    """Does y, suitably gauge-shifted, land in some bounded image cell?"""
    x = residuation(y, A)
    shifted = shift(y, -x.entry(1))
    return any(polytrope_contains(image, shifted.entries) for _, image in bounded_complex(A))


def is_interior_cell(M, n) -> bool:
    """Loop-free and coloop-free on [n]: the cell misses the hypersimplex
    boundary."""
    if not M:
        raise DomainError("EMPTY_MATROID", "interiority is undefined for no bases")
    return not loops(M, n) and not coloops(M)


def bounded_membership(p: PluckerVector, y: TropVector) -> bool:
    """Is y in the bounded part of L(p), that is, in L(p) with a coloop-free
    selected matroid?  Needs a uniform underlying matroid: no ∞ coordinate."""
    if any(v is INF for v in p.values.values()):
        raise DomainError("NOT_UNIFORM", "underlying matroid must be uniform")
    return is_interior_cell(select_matroid(p, y), p.n)


def caterpillar_check(A: TropMatrix) -> bool:
    """For d = 2: is the bounded part of L(A) a point or a path?"""
    if A.d != 2:
        raise DomainError("BAD_SHAPE", "caterpillar check requires d = 2")
    vertices, segments = bounded_skeleton(A)
    if not vertices:
        # n = d: the bounded part is empty, vacuously a caterpillar
        return not segments
    index = {v: k for k, v in enumerate(vertices)}
    ends = [[index[v] for v in e] for _, e in segments]
    if any(len(e) != 2 for e in ends) or len(ends) != len(vertices) - 1:
        return False
    if any(sum(k in e for e in ends) > 2 for k in range(len(vertices))):
        return False
    # |V| − 1 edges and degrees <= 2: a path exactly when connected
    return components(len(vertices), ends) == 1


# ---------------------------------------------------------------------------
# Methods no library code calls, as functions whose bodies stand as they did
# in their classes (the first parameter keeps the name ``self``), and
# ``core.proj_eq``, which only ``PluckerVector.proj_eq`` called
# ---------------------------------------------------------------------------

def shift(self, c):
    c = scalar(c)
    return TropVector(tuple(v + c for v in self.entries))


def vector_support(self):
    """1-based indices of finite entries."""
    return frozenset(j + 1 for j, v in enumerate(self.ints) if v is not None)


def proj_eq(x: TropVector, y: TropVector) -> bool:
    """Projective equality: same support, entries differ by one constant."""
    if len(x) != len(y) or vector_support(x) != vector_support(y):
        return False
    diff = None
    for a, b in zip(x.entries, y.entries):
        if a is INF:
            continue
        d = a - b
        if diff is None:
            diff = d
        elif d != diff:
            return False
    return True


def row_support(self, i):
    """J_i: columns with finite entry in row i."""
    return frozenset(j + 1 for j, v in enumerate(self.entries[i - 1]) if v is not INF)


def matrix_row(self, i) -> TropVector:
    return TropVector(self.entries[i - 1])


def transpose(self) -> "TropMatrix":
    return TropMatrix(tuple(zip(*self.entries)))


def I_of(G, Js):
    return frozenset(a for a, j in G[2] if j in Js)


def graph_is_connected(G):
    """Connected over all d + n vertices (isolated vertices disconnect)."""
    d, n, edges = G
    return components(d + n, [(i - 1, d + j - 1) for i, j in edges]) <= 1


def is_tree(G):
    d, n, edges = G
    nonisolated = {("L", i) for i, _ in edges} | {("R", j) for _, j in edges}
    return graph_is_connected(G) and len(edges) == d + n - 1 and len(
        nonisolated
    ) == d + n


def loops(M, n):
    """Elements of [n] lying in no basis of the basis set M."""
    return frozenset(range(1, n + 1)) - frozenset().union(*M)


def coloops(M):
    """Elements lying in every basis of the basis set M."""
    return frozenset.intersection(*M) if M else frozenset()


def matroid_is_connected(M, n):
    """The fundamental graph of one basis B of the basis set M on [n] is
    connected (Krogdahl): e ∈ B and f ∉ B are joined when B − e + f is a
    basis."""
    if not M:
        return False
    B = next(iter(M))
    pairs = [(e - 1, f - 1) for e in B for f in range(1, n + 1) if f not in B and (B - {e}) | {f} in M]
    return components(n, pairs) <= 1


def plucker_proj_eq(self, other) -> bool:
    """``core.proj_eq`` on the coordinates of both, in one order."""
    return (self.n, self.d) == (other.n, other.d) and proj_eq(
        TropVector(self.values.values()), TropVector(other.values[J] for J in self.values)
    )


def restrict(self, nodes):
    """The closed matrix on ``nodes`` alone, in that order: the
    projection onto them.  It keeps this matrix's scale, which stays
    exact for the shorter cycles of fewer nodes.  Only the tests and
    their references (``tests/reference.py``) call it."""
    out = DifferenceBounds(len(nodes), self.unit, [[self.bound[u][v] for v in nodes] for u in nodes])
    out.scale = self.scale
    return out


def polytrope_contains(self, z):
    """Does x = (0, *z) meet every bound?"""
    x = (0, *z)
    den = self.scale * self.unit
    return all(
        b is None or (x[v] - x[u]) * den <= b
        for u, row in enumerate(self.bound) for v, b in enumerate(row)
    )


def polytrope_dim(self):
    """The affine dimension of a closed matrix, node 0 an origin pinned at
    0.  Only the zero cycles of a closed matrix are implicit equalities, so
    each class of tied nodes is one free parameter, and the origin's class
    is pinned."""
    m = self.bound
    tied = lambda s, t: m[s][t] is not None and m[t][s] is not None and m[s][t] + m[t][s] == 0
    return sum(not any(tied(s, t) for s in range(t)) for t in range(self.size)) - 1


def minimal_form(self):
    """The rows over x_1, ..., x_{size−1}, with x_0 = 0: equalities
    a·x = b and inequalities a·x >= b.

    Nodes whose bounds sum to zero both ways are tied: each such class
    gives one chain of equalities, and between the class representatives
    only the bounds that no third representative implies are kept (the
    minimal form of Larsen et al., RTSS 1997).
    """
    m = self.bound
    den = self.scale * self.unit
    k = self.size

    def implied(s, r, t):  # the bound on x_t − x_s through r
        return None if m[s][r] is None or m[r][t] is None else m[s][r] + m[r][t]

    def row(s, t):  # the coefficients of x_t − x_s, without x_0
        co = [0] * k
        co[t] += 1
        co[s] -= 1
        return tuple(co[1:])

    rep = list(range(k))
    last = {}
    eqs = []
    for t in range(k):
        s = next((s for s in range(t) if implied(s, t, s) == 0), t)  # a zero cycle s → t → s
        rep[t] = rep[s]
        if s != t:
            eqs.append((row(last[rep[t]], t), Fraction(m[last[rep[t]]][t], den)))
        last[rep[t]] = t
    reps = [s for s in range(k) if rep[s] == s]
    ineqs = []
    for s in reps:
        for t in reps:
            w = m[s][t]
            if s == t or w is None:
                continue
            if any(r != s and r != t and implied(s, r, t) == w for r in reps):
                continue
            ineqs.append((row(t, s), Fraction(-w, den)))  # x_s − x_t >= −w
    return eqs, ineqs
