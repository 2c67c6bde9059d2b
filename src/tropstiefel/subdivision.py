"""Regular transversal matroid subdivisions D(A).

Selected matroids M_y, facet enumeration via containment-maximal
covectors, and the interiority test of a cell.
"""

from __future__ import annotations

from .core import INF, DomainError, TropMatrix, TropVector
from .bipartite import Matroid, transversal_matroid
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


def is_interior_cell(M: Matroid) -> bool:
    """Loop-free and coloop-free: the cell misses the hypersimplex boundary."""
    if M.is_empty():
        raise DomainError("EMPTY_MATROID", "interiority is undefined for no bases")
    return not M.loops() and not M.coloops()


def facets_to_json(facets) -> list:
    return sorted([list(b) for b in M.canonical()] for M in facets)
