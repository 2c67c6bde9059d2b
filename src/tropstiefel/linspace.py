"""Stiefel tropical linear spaces L(A).

Each p_J of π(A) is an optimal-assignment value, so one
``bipartite.assignment`` on the costs a_ij − y_j, in ints at the common
denominator of A and y, answers every question on y and L(A) from its
greatest optimal dual: membership (``in_L``, with ∞ coordinates),
membership in the bounded part, which needs a uniform underlying matroid
(``in_bounded_part``), and a certificate of membership (``decompose``):
L(A) is the union of the cells (F ⊙ A) + R_{>=0}{e_j : j ∈ J} with F a
covector covering every row and J meeting the column-wise dragon condition,
and ``decompose`` reads such a pair (F, J) and its point x off that dual,
with no search.  Membership by circuit minima (``plucker.contains``,
imported here, on the circuits kept on p) and by the selected matroid M_y
of ``select_matroid`` (``contains_via_matroid``) stays for the benchmark.
Both bounded questions first ask ``_require_uniform``, d more assignments,
that every column d-set be matchable.  The vertices and segments of the
bounded part need only the cells of TC(A) in K(A) and their dimensions, so
``bounded_skeleton`` builds no image of a cell.
"""

from __future__ import annotations

from .core import INF, DomainError, TropMatrix, TropVector, common_denom, quotient, require_column_supports, scalar_str
from .bipartite import BipartiteGraph, assignment, hall_surplus_check
from .plucker import PluckerVector, contains
from .arrangement import CELL_BUDGET, enumerate_covectors, in_K, skeleton


def select_matroid(p: PluckerVector, y: TropVector) -> frozenset:
    """The matroid M_y selected by y: argmin of p_J − Σ_{j∈J} y_j, in ints,
    y padded to be read 1-based."""
    if len(y) != p.n or not y.is_finite():
        raise DomainError("BAD_POINT", "y must be finite of length n")
    _, fp, fy = common_denom(p.denom, y.denom)
    best, bases, z = None, [], ((0,) + y.ints).__getitem__
    for J, v in p.ints.items():
        if v is None:
            continue
        val = v * fp - fy * sum(map(z, J))
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


class DecompositionCertificate:
    """A witness y ∈ (F ⊙ A) + R_{>=0}{e_j : j ∈ J} with positive J-slack."""

    __slots__ = ("covector", "x", "J", "slack")

    def __init__(self, covector, x: TropVector, J, slack: TropVector):
        self.covector = covector
        self.x = x
        self.J = frozenset(J)
        self.slack = slack

    def __repr__(self):
        return "DecompositionCertificate(J=%s, x=%r)" % (sorted(self.J), self.x)


def _greatest_dual(A: TropMatrix, y: TropVector):
    """(unit, u, v, match, tight): ``bipartite.assignment`` on the costs
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
    u, v, match = assignment(cost)
    tight = [(i, j) for i, row in enumerate(cost) for j, c in enumerate(row) if c is not None and c == u[i] + v[j]]
    return unit, u, v, match, tight


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
    return all(j in covered for j, w in enumerate(y.entries) if w is not INF)


def _require_uniform(A: TropMatrix):
    """NO_MATCHING_IN_SUPPORT when no matching covers every row (as when
    d > n), then NOT_UNIFORM unless the underlying matroid is uniform: every
    column d-set matchable in the support of A, |J_I| >= n − d + |I| for
    every nonempty row set I by Hall's theorem (``hall_surplus_check``)."""
    if A.d > A.n or not hall_surplus_check(BipartiteGraph.from_support(A)):
        assignment(A.ints)  # NO_MATCHING_IN_SUPPORT comes first
        raise DomainError("NOT_UNIFORM", "underlying matroid must be uniform")


def in_bounded_part(A: TropMatrix, y: TropVector) -> bool:
    """y in the bounded part of L(A): y ∈ L(A) with a selected matroid M_y
    free of coloops.  At the greatest optimal dual the optimal assignments
    are the matchings on tight edges that take every column with v_j < 0,
    so a column is a loop of M_y when it has no tight edge, and a column
    some row takes is a coloop when v_j < 0 or when its row has no tight
    alternating path to a column no row takes, along which the rows could
    leave it.  The errors of ``_require_uniform`` (the underlying matroid
    must be uniform), then BAD_POINT for a y not finite of length n."""
    _require_uniform(A)
    if len(y) != A.n or not y.is_finite():
        raise DomainError("BAD_POINT", "y must be finite of length n")
    _, _, v, match, tight = _greatest_dual(A, y)
    freed, leaves = [j for j in range(A.n) if j not in match], set()
    for c in freed:  # grows as it is read: the columns the rows can leave free
        for i, j in tight:
            if j == c and i not in leaves:
                leaves.add(i)
                freed.append(match[i])
    return len({j for _, j in tight}) == A.n and all(v[j] == 0 and i in leaves for i, j in enumerate(match))


def decompose(A: TropMatrix, y: TropVector):
    """The certificate of the greatest optimal dual for y ∈ L(A), or None
    when y is not in the linear space: F a covector of TC(A) covering every
    row, J meeting the column-wise dragon condition, and
    y ∈ (F ⊙ A) + R_{>=0}{e_j : j ∈ J} with zero slack off J.

    Each p_J is an optimal-assignment value, so one ``assignment`` on the
    costs a_ij − y_j answers: with (u, v) its greatest optimal dual, take
    x = −u, F the tight edges u_i + v_j = a_ij − y_j, J = {j : v_j < 0}
    and slack −v.  Dual feasibility makes x_i + a_ij >= y_j + v_j with
    equality on F, so F is the covector of x wherever each column has a
    tight edge, and x ⊙ A + slack = y.  At the greatest dual every row is
    reached from a column with v = 0 by a tight alternating path, so the
    columns with a tight edge are exactly those some optimal assignment
    uses: y ∈ L(A) exactly when every column has one.  A set S ⊆ J with
    |N_F(S)| = |S| would let v rise on S, so J meets the column-wise dragon
    condition exactly at the greatest dual, the only optimal dual whose
    certificate does.  O(d²n).

    BAD_POINT for a y not finite of length n, then EMPTY_COLUMN for an
    all-∞ column, then NO_MATCHING_IN_SUPPORT when no matching covers every
    row.
    """
    if len(y) != A.n or not y.is_finite():
        raise DomainError("BAD_POINT", "y must be finite of length n")
    require_column_supports(A)
    unit, u, v, _, tight = _greatest_dual(A, y)
    F = [[] for _ in range(A.n)]
    for i, j in tight:  # row by row, so each I_j is sorted
        F[j].append(i + 1)
    if not all(F):
        return None  # a loop of M_y: no optimal assignment uses some column
    x = TropVector([quotient(-w, unit) for w in u])
    slack = TropVector([quotient(-w, unit) for w in v])
    return DecompositionCertificate(tuple(map(tuple, F)), x, [j + 1 for j, w in enumerate(v) if w < 0], slack)


def _bounded_cells(A: TropMatrix, budget=CELL_BUDGET):
    """The cells of TC(A) that lie in K(A), after ``_require_uniform``;
    ``enumerate_covectors`` refuses past ``budget`` cells of TC(A)."""
    _require_uniform(A)
    return [cell for cell in enumerate_covectors(A, budget) if in_K(A, cell.covector)]


def bounded_skeleton(A: TropMatrix, budget=CELL_BUDGET):
    """The vertices (0-cells) of the bounded complex, and each of its
    segments (1-cells) with its ends, as in ``arrangement.skeleton``."""
    return skeleton(_bounded_cells(A, budget))


def certificate_to_json(cert: DecompositionCertificate):
    return {
        "covector": cert.covector,
        "x": [scalar_str(v) for v in cert.x.entries],
        "J": sorted(cert.J),
        "slack": [scalar_str(v) for v in cert.slack.entries],
    }
