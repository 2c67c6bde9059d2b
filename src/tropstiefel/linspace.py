"""Stiefel tropical linear spaces L(A).

Membership by circuit minima (``plucker.contains``, imported here), by
selected matroids, and by an explicit covector decomposition with
certificates; boundedness by a coloop-free selected matroid when no
coordinate is ∞; and the vertices and segments of the bounded part of a
support that passes the Hall scan ``bipartite.hall_surplus_check``.

Each p_J is an optimal-assignment value, so y ∈ L(A) exactly when every
column lies in some min-cost assignment of the costs a_ij − y_j
(``bipartite.optimal_columns``); ``decompose`` asks this before it searches.
A covector decomposition y ∈ (F ⊙ A) + R_{>=0}{e_j : j ∈ J} is a
difference system over x and y, so it runs on the closed integer
difference-bound matrix of ``geom.DifferenceBounds``: the certificate search,
column by column and directed by y, builds only the (cell, J) pairs that y
allows, bounds x from below by the residual floors of y before any column is
chosen, asks its closed matrix whether it ``admits`` single bounds before
each copy to drop the rows y rules out, the choices of rows one bound of
the column rule refuses, the prefixes whose later columns cannot all fit in
J and those that cannot beat the least leaf in hand, and reads its witness
from the potentials of the least leaf.  The vertices and segments of the
bounded part need only the cells of TC(A) in K(A) and their dimensions, so
``bounded_skeleton`` builds no image of a cell.
"""

from __future__ import annotations

import functools
import itertools

from .core import INF, DomainError, TropMatrix, TropVector, vec_mat_mul
from .geom import DifferenceBounds
from .bipartite import BipartiteGraph, colwise_dragon_condition, hall_surplus_check, optimal_columns
from .plucker import PluckerVector, contains
from .arrangement import CELL_BUDGET, Covector, _attain, _column_rows, _integer_scaled, covector_to_json, enumerate_covectors, in_B, in_K, skeleton
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
    """The least certificate (F, J) for y ∈ L(A), by covector key and then
    sorted J, or None when y is not in the linear space: F a covector of
    TC(A) covering every row, J meeting the column-wise dragon condition,
    and y ∈ (F ⊙ A) + R_{>=0}{e_j : j ∈ J} with zero slack off J.

    None before any search when a column lies in no min-cost assignment of
    the costs a_ij − y_j, a loop of M_y; NO_MATCHING_IN_SUPPORT when none
    covers every row.

    A depth-first search over the columns, directed by y, picks I_j and
    whether j ∈ J (while |J| < d − 1) on two closed difference-bound
    matrices over the integer-scaled entries of A and y: the open cell of
    (I_1, ..., I_j) on x, as in ``enumerate_covectors``, and, tried first,
    the closed system on an origin and x: the closed cell, x_i0 + a_i0j <= y_j
    for the least row i0 of I_j, = y_j off J and < y_j on J.  So only the
    pairs (F, J) that y allows reach a leaf, and x comes from the potentials.

    Residual floors: off J, x_i + a_ik >= y_k for every finite row i, and
    at most r = d − 1 − |J| of the columns k >= j still join J, so x_i is
    at least the (r + 1)-th largest y_k − a_ik over them (the principal
    solution of min-plus residuation when r = 0).  The closed system takes
    these bounds at the root and whenever j joins J; off J, column j
    implies them.  Every leaf below meets them, so its matrix is unchanged.

    Before any copy, each node asks its closed matrix whether it
    ``admits`` single bounds, which later columns only tighten.  Row
    filter: I_j ranges over the rows i that admit x_i + a_ij <= y_j, j stays
    off J only if every row admits x_i + a_ij >= y_j, and I_j is skipped
    when ``_attain(system.admits, ...)`` or, on the open cell,
    ``_attain(cell.admits, ...)`` refuses one of its bounds.
    Look-ahead: a column k >= j with some row refusing x_i + a_ik >= y_k,
    or no row admitting x_i + a_ik = y_k, must go into J, so a node with
    more such columns than the d − 1 − |J| left is dropped; a node refines
    its parent's rows and stops counting once the room is gone.  Order
    bound: every leaf covers every row, so on rows 1..d − 1 a smaller key
    has the larger row-major edge bits (in row d a shorter row sorts
    first, so row d is left out).  A prefix whose bits, with every bit the
    look-ahead still admits in later columns, fall below the least leaf's
    is dropped, and I_j is tried in descending bit order, so once one I_j
    falls short the rest do too.  All of these read necessary conditions
    or drop only leaves that sort after one in hand, so the least leaf and
    its matrix are the same.

    BUDGET_EXCEEDED up front as ``enumerate_covectors`` refuses, or, for a
    y in L(A) only, past ``CELL_BUDGET`` covectors (I_1, ..., I_j) reached
    at one depth j: cells of TC(A[:, :j]), which has no more cells than
    TC(A), whose closed system with its floors passes the look-ahead for
    some J, and, once a leaf is in hand, whose bits can still reach it.
    """
    if len(y) != A.n or not y.is_finite():
        raise DomainError("BAD_POINT", "y must be finite of length n")
    cols = _column_rows(A, CELL_BUDGET)
    d, n = A.d, A.n
    unit, a, z = _integer_scaled(A, y.entries)
    if len(optimal_columns([[None if c is None else c - z[j] for j, c in enumerate(row)] for row in a])) < n:
        return None  # a loop of M_y: no optimal assignment uses some column
    reached, best, top = [set() for _ in range(n)], None, -1  # top: the bits of the least leaf so far
    root = DifferenceBounds(d + 1, unit)
    # floor[j][r]: x_i >= the (r + 1)-th largest y_k − a_ik over the columns k >= j, as bounds to add
    residual = [[sorted((z[k] - row[k] for k in range(j, n) if row[k] is not None), reverse=True) for row in a] for j in range(n + 1)]
    floor = [[[(i + 1, 0, -v[r]) for i, v in enumerate(res) if len(v) > r] for r in range(d)] for res in residual]
    bit = [[1 << ((d - 2 - i) * n + n - 1 - k) if i < d - 1 else 0 for i in range(d)] for k in range(n)]  # edge (i, k), row-major, rows 1..d − 1

    def plan(system, fits, room):
        """The parent's ``fits`` of the columns it has not placed, refined on
        ``system``: per column k, the rows still admitting x_i + a_ik <= y_k,
        whether every row still admits x_i + a_ik >= y_k (each bound alone,
        by ``system.admits``) and the bits of those rows, with their sum;
        None once more columns must join J than the ``room`` left."""
        admits = system.admits
        out, forced = [], 0
        for k, (rows, above, _) in zip(range(n - len(fits), n), fits):
            rows = tuple(i for i in rows if admits(0, i + 1, z[k] - a[i][k]))
            above = above and all(admits(i + 1, 0, a[i][k] - z[k]) for i in cols[k])
            forced += not (rows and above)
            if forced > room:
                return None
            out.append((rows, above, sum(map(bit[k].__getitem__, rows))))
        return out, sum(fit[2] for fit in out)

    @functools.cache  # every nonempty I ⊆ rows with its bits in column j, bits descending; the empty set comes last
    def subsets(j, rows):
        return [(tuple(itertools.compress(rows, f)), sum(itertools.compress(map(bit[j].__getitem__, rows), f)))
                for f in itertools.product((1, 0), repeat=len(rows))][:-1]

    def search(j, cell, system, chosen, bits, J, fits, ahead):
        nonlocal best, top
        if j == n:
            F = Covector(BipartiteGraph(d, n, [(i + 1, k + 1) for k, I in enumerate(chosen) for i in I]))
            if (best is None or (F.key(), J) < best[0]) and in_B(F) and colwise_dragon_condition(F.graph, J):
                best, top = ((F.key(), J), F, system), bits
            return
        rows, above, here = fits[0]
        later = bits + ahead - here  # the most bits any leaf below reaches, less I_j's
        for I, I_bits in subsets(j, rows):
            if later + I_bits < top:  # so is every later I
                break
            if not _attain(system.admits, a, j, I, 1, False):
                continue
            i0, c = I[0], z[j] - a[I[0]][j]
            closed = system.copy()
            if not (_attain(closed.add, a, j, I, 1, False) and closed.add(0, i0 + 1, c)):
                continue
            # the off-J branch, tried when every row admits >= y_j, tightens closed itself
            on_J = None if len(J) == d - 1 else closed.copy() if above else closed
            branches = [(closed, J)] if above and closed.add(i0 + 1, 0, -c) else []  # y_j = x_i0 + a_i0j
            if on_J is not None and on_J.add(0, i0 + 1, c, strict=True):  # y_j > x_i0 + a_i0j
                branches.append((on_J, J + (j + 1,)))
            branches = [
                (s, J_, fit) for s, J_ in branches
                if (J_ == J or all(s.add(*b) for b in floor[j + 1][d - 1 - len(J_)]))  # off J, column j implies them
                and (fit := plan(s, fits[1:], d - 1 - len(J_))) is not None
            ]
            if not branches or not _attain(cell.admits, a, j, I, 0, True):
                continue
            child = cell.copy()
            if _attain(child.add, a, j, I, 0, True):
                reached[j].add(chosen + (I,))
                if len(reached[j]) > CELL_BUDGET:
                    raise DomainError("BUDGET_EXCEEDED", f"more than {CELL_BUDGET} cells")
                for s, J_, fit in branches:
                    search(j + 1, child, s, chosen + (I,), bits + I_bits, J_, *fit)

    if all(root.add(*b) for b in floor[0][d - 1]) and (fits := plan(root, [(rows, True, 0) for rows in cols], d - 1)) is not None:
        search(0, DifferenceBounds(d, unit), root, (), 0, (), *fits)
    if best is None:
        return None
    (_, J), F, closed = best
    xv = TropVector(closed.point()[1:])
    image = vec_mat_mul(xv, A)
    slack = TropVector([y.entry(j) - image.entry(j) for j in range(1, n + 1)])
    return DecompositionCertificate(F, xv, J, slack)


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
