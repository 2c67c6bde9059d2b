"""Stiefel tropical linear spaces L(A).

Each p_J of π(A) is an optimal-assignment value, so one
``bipartite.assignment`` on the costs a_ij − y_j, in ints at the common
denominator of A and y, answers membership of y in L(A) from its greatest
optimal dual: ``in_L``, with ∞ coordinates, and ``decompose``, which reads
the certificate (F, x, J, slack) off that dual, with no search: L(A) is the
union of the cells (F ⊙ A) + R_{>=0}{e_j : j ∈ J} with F a covector covering
every row and J meeting the column-wise dragon condition.  The bounded part
of L(A), for a uniform underlying matroid (``_require_uniform``), is the
image x ⊙ A of the cells of K(A), the covectors whose graph (d, n, edges)
meets the dragon condition (``in_K``; only ``bipartite.graph_from_json``
checks edges): ``in_bounded_part`` asks ``decompose`` for a certificate with
J = ∅ and its covector in K(A), and ``bounded_skeleton`` keeps the covectors
of TC(A) in K(A) with their dimensions, with no image built.  Membership by
circuit minima (``plucker.contains``, imported here, on the circuits kept on
p) and by the selected matroid M_y of ``select_matroid``
(``contains_via_matroid``) stays for the benchmark.
"""

from __future__ import annotations

from .core import DomainError, TropMatrix, TropVector, common_denom, quotient, require_column_supports, scalar_str
from .bipartite import assignment, dragon_condition, hall_surplus_check
from .plucker import PluckerVector, contains
from .arrangement import CELL_BUDGET, covector_edges, enumerate_covectors, skeleton


def select_matroid(p: PluckerVector, y: TropVector) -> frozenset:
    """The matroid M_y selected by y: argmin of p_J − Σ_{j∈J} y_j, in ints,
    y padded to be read 1-based."""
    if len(y) != p.n or not y.is_finite():
        raise DomainError("BAD_POINT", "y must be finite of length n")
    _, fp, fy = common_denom(p.denom, y.denom)
    best, bases, z = None, [], (0,) + y.ints
    for J, v in p.ints.items():
        if v is None:
            continue
        total = 0
        for j in J:
            total += z[j]
        val = v * fp - fy * total
        if best is None or val < best:
            best = val
            bases = [J]
        elif val == best:
            bases.append(J)
    return frozenset(bases)


def contains_via_matroid(p: PluckerVector, y: TropVector) -> bool:
    """Membership via the selected matroid: M_y must be loopless, its
    bases covering [n]."""
    return len(frozenset().union(*select_matroid(p, y))) == p.n


def _greatest_dual(A: TropMatrix, y: TropVector):
    """(unit, u, v, tight): ``bipartite.assignment`` on the costs
    a_ij − y_j in units of 1/unit, the common denominator of A and y, with
    (u, v) its greatest optimal dual and tight its tight edges
    u_i + v_j = a_ij − y_j, as 0-based (i, j).  An ∞ coordinate y_j costs
    a_ij − M on column j, where M = 1 + 2·d·(max|a| + max|y finite|)
    outweighs the difference of any two assignments on the finite costs: an
    optimal assignment takes as many ∞ columns as the support allows, and
    then the least cost.
    NO_MATCHING_IN_SUPPORT when no matching covers every row."""
    unit, fa, fy = common_denom(A.denom, y.denom)
    z = [None if w is None else w * fy for w in y.ints]
    if None in z:
        top = max((abs(c) for row in A.ints for c in row if c is not None), default=0)
        bonus = 1 + 2 * A.d * (fa * top + max((abs(w) for w in z if w is not None), default=0))
        z = [bonus if w is None else w for w in z]
    cost = [[None if c is None else c * fa - z[j] for j, c in enumerate(row)] for row in A.ints]
    u, v, _ = assignment(cost)
    tight = [(i, j) for i, row in enumerate(cost) for j, c in enumerate(row) if c is not None and c == u[i] + v[j]]
    return unit, u, v, tight


def in_L(A: TropMatrix, y: TropVector) -> bool:
    """y ∈ L(A), with ∞ coordinates allowed: every finite coordinate's
    column has a tight edge at the greatest optimal dual of ``_greatest_dual``,
    so some optimal assignment uses it.  NO_MATCHING_IN_SUPPORT when no
    matching covers every row, then LENGTH_MISMATCH unless y has length n."""
    if len(y) != A.n:
        assignment(A.ints)  # NO_MATCHING_IN_SUPPORT comes first
        raise DomainError("LENGTH_MISMATCH", "y must have length n")
    *_, tight = _greatest_dual(A, y)
    covered = {j for _, j in tight}
    return all(j in covered for j, w in enumerate(y.ints) if w is not None)


def _require_uniform(A: TropMatrix):
    """NO_MATCHING_IN_SUPPORT when no matching covers every row (as when
    d > n), then NOT_UNIFORM unless the underlying matroid is uniform: every
    column d-set matchable in the support of A, as when A is finite, or by
    Hall |J_I| >= n − d + |I| for every nonempty row set I (``hall_surplus_check``)."""
    if A.d > A.n or (any(None in row for row in A.ints) and not hall_surplus_check(A.d, A.n, A.support())):
        assignment(A.ints)  # NO_MATCHING_IN_SUPPORT comes first
        raise DomainError("NOT_UNIFORM", "underlying matroid must be uniform")


def in_bounded_part(A: TropMatrix, y: TropVector) -> bool:
    """y in the bounded part of L(A), the image x ⊙ A of the cells of K(A):
    ``decompose`` certifies y with J = ∅, no slack, so y = x ⊙ A, and its
    covector tc(x) meets the dragon condition (``in_K``, as in
    ``bounded_skeleton``).  A point x' of a K(A) cell with x' ⊙ A = y is
    the least point x̄ of the fiber of y, since the rows where x̄ < x' would
    attain no column's minimum at x'; so (−x', 0) is an optimal dual, the
    greatest has J = ∅, and J = ∅ makes its x the least point x̄ = x'.
    The errors of ``_require_uniform`` (the underlying matroid must be
    uniform), then BAD_POINT for a y not finite of length n."""
    _require_uniform(A)
    cert = decompose(A, y)
    if cert is None:
        return False
    covector, _, J, _ = cert
    return not J and in_K(A, covector)


def decompose(A: TropMatrix, y: TropVector):
    """The certificate (F, x, J, slack) of the greatest optimal dual for
    y ∈ L(A), or None when y is not in the linear space: F a covector of
    TC(A) covering every row, as sorted 1-based row tuples, J a frozenset
    meeting the column-wise dragon condition, and y = x ⊙ A + slack with the
    slack positive exactly on J; x and slack are tuples of exact scalars.

    Each p_J is an optimal-assignment value, so one ``assignment`` on the
    costs a_ij − y_j answers: with (u, v) its greatest optimal dual, take
    x = −u, F the tight edges u_i + v_j = a_ij − y_j, J = {j : v_j < 0}
    and slack −v.  Dual feasibility makes x_i + a_ij >= y_j + v_j with
    equality on F, so F is the covector of x wherever each column has a
    tight edge, and x ⊙ A + slack = y.  By the lemma of ``assignment``
    every row is reached from a column with v = 0, so the columns with a
    tight edge are exactly those some optimal assignment uses: y ∈ L(A)
    exactly when every column has one.  A set S ⊆ J with
    |N_F(S)| = |S| would let v rise on S, so J meets the column-wise dragon
    condition exactly at the greatest dual, the only optimal dual whose
    certificate does.  O(d²n).

    BAD_POINT for a y not finite of length n, then EMPTY_COLUMN for an
    all-∞ column, then NO_MATCHING_IN_SUPPORT when no matching covers every
    row.
    """
    if len(y) != A.n or not y.is_finite():
        raise DomainError("BAD_POINT", "y must be finite of length n")
    try:
        unit, u, v, tight = _greatest_dual(A, y)
    except DomainError:  # NO_MATCHING_IN_SUPPORT, after an empty column
        require_column_supports(A)
        raise
    F = [[] for _ in range(A.n)]
    for i, j in tight:  # row by row, so each I_j is sorted
        F[j].append(i + 1)
    if not all(F):  # a loop of M_y (no optimal assignment uses some column), or an empty column
        require_column_supports(A)
        return None
    x, slack = (tuple([-w for w in s] if unit == 1 else [quotient(-w, unit) for w in s]) for s in (u, v))
    return tuple(map(tuple, F)), x, frozenset(j + 1 for j, w in enumerate(v) if w < 0), slack


def in_K(A: TropMatrix, covector) -> bool:
    """The dragon marriage condition |J_I| >= |I| + 1 for nonempty I ⊆ [d]."""
    return dragon_condition(A.d, A.n, covector_edges(covector))


def bounded_skeleton(A: TropMatrix, budget=CELL_BUDGET):
    """The vertices (0-cells) of the bounded complex, and each of its
    segments (1-cells) with its ends, as in ``arrangement.skeleton``: from
    the cells of TC(A) in K(A), after ``_require_uniform``.
    ``enumerate_covectors`` refuses past ``budget`` cells of TC(A)."""
    _require_uniform(A)
    return skeleton({tau: dim for tau, dim in enumerate_covectors(A, budget).items() if in_K(A, tau)})


def certificate_to_json(cert):
    covector, x, J, slack = cert
    return {"covector": covector, "x": list(map(scalar_str, x)), "J": sorted(J), "slack": list(map(scalar_str, slack))}
