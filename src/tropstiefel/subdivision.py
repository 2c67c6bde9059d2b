"""Regular transversal matroid subdivisions D(A).

Selected matroids M_y and facet enumeration via containment-maximal
covectors.  A matroid is the frozenset of its bases, each a frozenset.
"""

from __future__ import annotations

from .core import DomainError, TropMatrix, TropVector, common_denom
from .bipartite import BipartiteGraph, transversal_matroid
from .plucker import PluckerVector
from .arrangement import covector_edges, enumerate_covectors


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


def facets_of_D(A: TropMatrix) -> frozenset:
    """The facet matroids of D(A): the containment-maximal transversal
    matroids over all covectors of TC(A).

    Maximality is taken over basis sets, not covector edge sets: distinct
    maximal covectors can induce nested matroids once their cells are
    intersected with the hypersimplex.
    """
    matroids = set()
    for c in enumerate_covectors(A):
        M = transversal_matroid(BipartiteGraph(A.d, A.n, covector_edges(c.covector)))
        if M:
            matroids.add(M)
    if not matroids:
        raise DomainError("NO_MATCHING_IN_SUPPORT", "support contains no matching")
    return frozenset(M for M in matroids if not any(M < N for N in matroids))


def facets_to_json(facets) -> list:
    return sorted(sorted(sorted(b) for b in M) for M in facets)
