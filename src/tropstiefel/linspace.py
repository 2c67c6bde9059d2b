"""Stiefel tropical linear spaces L(A).

Membership by circuit minima (``plucker.contains``, imported here), by
selected matroids, and by an explicit covector decomposition with
certificates; boundedness by a coloop-free selected matroid when no
coordinate is ∞; and the vertices and segments of the bounded part of a
support that passes the Hall scan ``bipartite.hall_surplus_check``.

Each p_J is an optimal-assignment value, so one ``bipartite.assignment`` on
the costs a_ij − y_j answers y ∈ L(A) and certifies it: L(A) is the union of
the cells (F ⊙ A) + R_{>=0}{e_j : j ∈ J} with F a covector covering every
row and J meeting the column-wise dragon condition, and ``decompose`` reads
such a pair (F, J) and its point x off the greatest optimal dual of that
assignment, with no search.  The vertices and segments of the bounded part
need only the cells of TC(A) in K(A) and their dimensions, so
``bounded_skeleton`` builds no image of a cell.
"""

from __future__ import annotations

from fractions import Fraction

from .core import INF, DomainError, TropMatrix, TropVector, require_column_supports
from .bipartite import BipartiteGraph, assignment, hall_surplus_check
from .plucker import PluckerVector, contains
from .arrangement import Covector, _integer_scaled, covector_to_json, enumerate_covectors, in_K, skeleton
from .subdivision import is_interior_cell, select_matroid


def contains_via_matroid(p: PluckerVector, y: TropVector) -> bool:
    """Membership via the selected matroid: M_y must be loopless."""
    return not select_matroid(p, y).loops()


class DecompositionCertificate:
    """A witness y ∈ (F ⊙ A) + R_{>=0}{e_j : j ∈ J} with positive J-slack."""

    __slots__ = ("covector", "x", "J", "slack")

    def __init__(self, covector: Covector, x: TropVector, J, slack: TropVector):
        self.covector = covector
        self.x = x
        self.J = frozenset(J)
        self.slack = slack

    def __repr__(self):
        return "DecompositionCertificate(J=%s, x=%r)" % (sorted(self.J), self.x)


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
    unit, a, z = _integer_scaled(A, y.entries)
    cost = [[None if c is None else c - z[j] for j, c in enumerate(row)] for row in a]
    u, v, _ = assignment(cost)
    edges = [(i + 1, j + 1) for i, row in enumerate(cost) for j, c in enumerate(row) if c is not None and c == u[i] + v[j]]
    if len({j for _, j in edges}) < A.n:
        return None  # a loop of M_y: no optimal assignment uses some column
    x = TropVector([Fraction(-w, unit) for w in u])
    slack = TropVector([Fraction(-w, unit) for w in v])
    return DecompositionCertificate(Covector(BipartiteGraph(A.d, A.n, edges)), x, [j + 1 for j, w in enumerate(v) if w < 0], slack)


def bounded_membership(p: PluckerVector, y: TropVector) -> bool:
    """Is y in the bounded part of L(p), that is, in L(p) with a coloop-free
    selected matroid?  Needs a uniform underlying matroid: no ∞ coordinate."""
    if any(v is INF for v in p.values.values()):
        raise DomainError("NOT_UNIFORM", "underlying matroid must be uniform")
    return is_interior_cell(select_matroid(p, y))


def _bounded_cells(A: TropMatrix):
    """The cells of TC(A) that lie in K(A); NO_SUPPORT_SET unless the
    support of A contains a support set: every column d-set is matchable,
    which by Hall's theorem is |J_I| >= n − d + |I| for every nonempty row
    set I (no d-set exists when d > n)."""
    if A.d <= A.n and not hall_surplus_check(BipartiteGraph.from_support(A)):
        raise DomainError("NO_SUPPORT_SET", "support must contain a support set")
    return [cell for cell in enumerate_covectors(A) if in_K(cell.covector)]


def bounded_skeleton(A: TropMatrix):
    """The vertices (0-cells) of the bounded complex, and each of its
    segments (1-cells) with its ends, as in ``arrangement.skeleton``."""
    return skeleton(_bounded_cells(A))


def certificate_to_json(cert: DecompositionCertificate):
    from .core import scalar_str

    return {
        "covector": covector_to_json(cert.covector),
        "x": [scalar_str(v) for v in cert.x.entries],
        "J": sorted(cert.J),
        "slack": [scalar_str(v) for v in cert.slack.entries],
    }
