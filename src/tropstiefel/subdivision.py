"""Regular transversal matroid subdivisions D(A).

Selected matroids M_y, facet enumeration via containment-maximal covectors,
the transversal matroid polytope inequalities (as plain rows), interiority
tests, subdivision equality, and cell existence as one
``geom.argmin_witness`` question.
"""

from __future__ import annotations

from fractions import Fraction

from .core import INF, DomainError, TropMatrix, TropVector
from .geom import ONE, ZERO, argmin_witness
from .bipartite import BipartiteGraph, Matroid, _nonempty_subsets, transversal_matroid
from .plucker import PluckerVector
from .arrangement import enumerate_covectors


def select_matroid(p: PluckerVector, y: TropVector) -> Matroid:
    """The matroid M_y selected by y: argmin of p_J − Σ_{j∈J} y_j."""
    if len(y) != p.n or not y.is_finite():
        raise DomainError("BAD_POINT", "y must be finite of length n")
    best = None
    bases = []
    for J, v in p.values.items():
        if v is INF:
            continue
        val = v - sum(y.entry(j) for j in J)
        if best is None or val < best:
            best = val
            bases = [J]
        elif val == best:
            bases.append(J)
    return Matroid(p.n, p.d, bases)


def facets_of_D(A: TropMatrix) -> frozenset:
    """The facet matroids of D(A): the containment-maximal transversal
    matroids over all covectors of TC(A).

    Maximality is taken over basis sets, not covector edge sets: distinct
    maximal covectors can induce nested matroids once their cells are
    intersected with the hypersimplex.
    """
    matroids = set()
    for c in enumerate_covectors(A):
        M = transversal_matroid(c.covector.graph)
        if not M.is_empty():
            matroids.add(M)
    if not matroids:
        raise DomainError("NO_MATCHING_IN_SUPPORT", "support contains no matching")
    facets = {
        M
        for M in matroids
        if not any(set(M.bases) < set(N.bases) for N in matroids)
    }
    return frozenset(facets)


def transversal_polytope_ineqs(G: BipartiteGraph):
    """H-representation of the transversal matroid polytope of G as rows
    (eqs, ineqs), a·x = b and a·x >= b: Σ x_j = d, 0 <= x_j <= 1, and
    Σ_{j∈J_I} x_j >= |I| for every I."""
    n, d = G.n, G.d
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
        for j in G.J_of(I):
            co[j - 1] = ONE
        ineqs.append((tuple(co), Fraction(len(I))))
    return eqs, ineqs


def is_interior_cell(M: Matroid) -> bool:
    """Loop-free and coloop-free: the cell misses the hypersimplex boundary."""
    if M.is_empty():
        raise DomainError("EMPTY_MATROID", "interiority is undefined for no bases")
    return not M.loops() and not M.coloops()


def subdivisions_equal(A: TropMatrix, B: TropMatrix) -> bool:
    if (A.d, A.n) != (B.d, B.n):
        return False
    key = lambda facets: frozenset(M.canonical() for M in facets)
    return key(facets_of_D(A)) == key(facets_of_D(B))


def cell_exists(p: PluckerVector, bases) -> bool:
    """Is there a y selecting exactly this basis set as its argmin?  One
    ``argmin_witness`` group: the bases against the other finite J, each
    the pair (−1_J, p_J), so that height + vector·y = p_J − Σ_{j∈J} y_j."""
    bases = Matroid(p.n, p.d, bases).bases  # BAD_BASIS for a basis that is no d-subset of [n]
    if not bases or any(p[b] is INF for b in bases):
        return False
    pair = lambda J: (tuple(-1 if j in J else 0 for j in range(1, p.n + 1)), p[J])
    others = [pair(J) for J, v in p.values.items() if v is not INF and J not in bases]
    return argmin_witness(p.n, [([pair(b) for b in bases], others)]) is not None


def facets_to_json(facets) -> list:
    return sorted([list(b) for b in M.canonical()] for M in facets)
