"""Tropical hyperplane arrangements of a matrix A.

The full covector complex TC(A), the 0- and 1-cells of a part of it with
the ends of each 1-cell (``skeleton``), and the facets of the matroid
subdivision D(A), the containment-maximal transversal matroids of the cells
(``facets_of_D``).

The arrangement lives in the torus of x-coordinates, and every cell of TC(A)
is a polytrope: the points whose covector is tau satisfy, per column j,
equalities tying the rows of I_j and strict inequalities saying that the
other rows of supp(j) lose.  TC(A) is found by a depth-first search over
the columns on the closed difference-bound matrix (``geom.DifferenceBounds``,
in units of 1/``A.denom`` on ``A.ints``) of the open cell C of a prefix
(I_1, ..., I_j).  Row i is in R_j, the rows that attain column j's minimum
somewhere in C, when ``admits`` takes each bound x_i + a_ij <= x_k + a_kj
alone: those bounds all end at node i, which a simple cycle enters once, so
together they close no negative cycle.  The search carries one label per
row, naming its component of the rows the I's so far tie; the tie classes
of R_j are its rows grouped by label, and each nonempty union of them is a
child I_j, imposed on a copy by ``_attain``.  Every child is a cell prefix:

* Every bound of C is a difference bound, weak or strict, so C is open in
  the affine space H of its tie equalities, and closed under coordinatewise
  min and under adding multiples of 1.  So a cell's dimension is its number
  of components less one.
* Tied rows of R_j differ by a constant on C, so they attain together.
* One class K: take a point of C where K attains, and add ε·1_U for the
  component U of each other class that ties there.  1_U is a direction of
  H and C is open in H, so for small ε the point stays in C, and exactly K
  attains.
* A union S of classes: shift each such point so that column j's minimum
  is 0, and take their coordinatewise min.  It lies in C, and exactly S
  attains there.

A covector is its type (I_1, ..., I_n), a tuple of sorted 1-based row
tuples, and TC(A) is a dict from covector to dimension.  ``covector_edges``
gives the edges (i, j), i ∈ I_j, by which covectors are sorted and compared.
The search keeps no point: ``cell_point`` rebuilds a cell's closed matrix,
``_attain`` one column at a time, and reads a relative-interior point,
gauge-fixed by x_1 = 0, off its potentials.
"""

from __future__ import annotations

import itertools

from .core import DomainError, TropMatrix, require_column_supports
from .geom import DifferenceBounds


# ---------------------------------------------------------------------------
# Cells and the covector complex
# ---------------------------------------------------------------------------

def _attain(dbm, a, j, I):
    """Impose on ``dbm`` the bounds saying that exactly the rows I of
    column j attain min_k (x_k + a_kj), row k being node k (0-based, I
    sorted): x_i + a_ij = x_i0 + a_i0j for i ∈ I with i0 = I[0], and
    x_k + a_kj > x_i0 + a_i0j for the other finite rows k."""
    i0, a0 = I[0], a[I[0]][j]
    for k, row in enumerate(a):
        c = row[j]
        if c is None or k == i0:
            continue
        if k in I:
            dbm.add(i0, k, a0 - c)
        dbm.add(k, i0, c - a0, k not in I)


def covector_edges(covector) -> frozenset:
    """The 1-based edges (i, j), i ∈ I_j, of a covector (I_1, ..., I_n)."""
    return frozenset((i, j) for j, I in enumerate(covector, 1) for i in I)


CELL_BUDGET = 5000  # cells of TC(A) enumerated by default


def _column_rows(A: TropMatrix, budget):
    """The sorted 0-based finite rows of each column; BUDGET_EXCEEDED when
    one column alone forces more than ``budget`` cells of TC(A), which
    refines that column's 2^|supp j| − 1 faces."""
    require_column_supports(A)
    cols = [sorted(i - 1 for i in A.col_support(j)) for j in range(1, A.n + 1)]
    widest = max(len(rows) for rows in cols)
    if 2 ** widest - 1 > budget:
        raise DomainError("BUDGET_EXCEEDED", f"a column with {widest} finite entries gives {2 ** widest - 1} cells, budget {budget}")
    return cols


def enumerate_covectors(A: TropMatrix, budget=CELL_BUDGET) -> dict:
    """TC(A), exactly: each covector mapped to its dimension, in the order of
    sorted covector edges; DomainError BUDGET_EXCEEDED beyond ``budget``
    cells, up front by ``_column_rows``."""
    d, n, a, cells = A.d, A.n, A.ints, {}
    cols = _column_rows(A, budget)

    # label[i] is a row of row i's component; a union of classes merges theirs
    def search(j, dbm, chosen, label):
        if j == n:
            cells[chosen] = len(set(label)) - 1
            if len(cells) > budget:
                raise DomainError("BUDGET_EXCEEDED", f"more than {budget} cells")
            return
        classes = {}
        for i in cols[j]:
            if all(dbm.admits(k, i, a[k][j] - a[i][j]) for k in cols[j]):
                classes.setdefault(label[i], []).append(i)
        for r in range(1, len(classes) + 1):
            for picked in itertools.combinations(classes, r):
                I = sorted(i for L in picked for i in classes[L])
                child = dbm.copy()
                _attain(child, a, j, I)
                search(j + 1, child, chosen + (tuple(i + 1 for i in I),), label if r == 1 else [I[0] if L in picked else L for L in label])

    search(0, DifferenceBounds(d, A.denom), (), list(range(d)))
    return {tau: cells[tau] for tau in sorted(cells, key=lambda tau: sorted(covector_edges(tau)))}


def cell_point(A: TropMatrix, covector):
    """An exact relative-interior point, with x_1 = 0, of the cell of TC(A)
    with this covector: the search's closed matrix at the cell, rebuilt by
    ``_attain`` one column at a time, read off by its potentials."""
    dbm = DifferenceBounds(A.d, A.denom)
    for j, I in enumerate(covector):
        _attain(dbm, A.ints, j, [i - 1 for i in I])
    return dbm.point()


def skeleton(cells):
    """The 0-cells of a dict {covector: dim}, and each 1-cell paired with the
    0-cells whose covector strictly contains its own: the ends of a segment or ray."""
    edges = {tau: covector_edges(tau) for tau, dim in cells.items() if dim <= 1}
    vertices = [tau for tau, dim in cells.items() if dim == 0]
    return vertices, [(tau, [v for v in vertices if edges[v] > edges[tau]]) for tau, dim in cells.items() if dim == 1]


def facets_of_D(A: TropMatrix) -> frozenset:
    """The facet matroids of D(A): the containment-maximal transversal
    matroids over all covectors of TC(A).

    Maximality is taken over basis sets, not covector edge sets: distinct
    maximal covectors can induce nested matroids once their cells are
    intersected with the hypersimplex.
    """
    # imported here, so that covectors and render never compile bipartite
    from .bipartite import basis_keys, transversal_matroid
    matroids = {}  # each matroid's basis keys, compared as ints, to the edges of its first covector
    for edges in map(covector_edges, enumerate_covectors(A)):
        if M := frozenset(basis_keys(A.d, A.n, edges)):
            matroids.setdefault(M, edges)
    if not matroids:
        raise DomainError("NO_MATCHING_IN_SUPPORT", "support contains no matching")
    kept = (edges for M, edges in matroids.items() if not any(M < N for N in matroids))
    return frozenset(transversal_matroid(A.d, A.n, edges) for edges in kept)


# ---------------------------------------------------------------------------
# JSON interchange
# ---------------------------------------------------------------------------

def complex_to_json(cells):
    return [{"covector": tau, "dim": dim} for tau, dim in cells.items()]


def facets_to_json(facets) -> list:
    return sorted(sorted(sorted(b) for b in M) for M in facets)
