import itertools
import random
from fractions import Fraction

import pytest

from polyhedra import Polyhedron
from reference import cell_exists, is_interior_cell, subdivisions_equal, transversal_polytope_ineqs, uniform_matroid
from tropstiefel.bipartite import BipartiteGraph, transversal_matroid
from tropstiefel.core import DomainError, INF, TropMatrix, TropVector
from tropstiefel.plucker import stiefel_map
from tropstiefel.subdivision import (
    facets_of_D,
    facets_to_json,
    select_matroid,
)

FIG = TropMatrix([[0, 3, 0, "inf", "inf"], ["inf", 0, 0, 2, "inf"], ["inf", "inf", 0, 0, 0]])
STAIR = TropMatrix([[0, 0, "inf", "inf"], ["inf", 0, 0, "inf"], ["inf", "inf", 0, 0]])
TWO_ROW = TropMatrix([[0, 0, 0, 0], [0, 0, 1, 1]])


def A_of_t(t):
    return TropMatrix(
        [
            ["inf", 0, 0, 0, "inf", "inf"],
            [0, "inf", 0, "inf", 0, "inf"],
            [t, 0, "inf", "inf", "inf", 0],
            [0, 1, 2, "inf", "inf", "inf"],
        ]
    )


def bases_of(M):
    return frozenset(tuple(sorted(b)) for b in M)


def test_select_matroid_examples():
    p = stiefel_map(TWO_ROW)
    M = select_matroid(p, TropVector([0, 0, 0, 0]))
    assert bases_of(M) == {(1, 2), (1, 3), (1, 4), (2, 3), (2, 4)}
    M2 = select_matroid(p, TropVector([0, 0, 1, 1]))
    assert bases_of(M2) == {(1, 3), (1, 4), (2, 3), (2, 4), (3, 4)}


def test_select_matroid_zero_plucker():
    p = stiefel_map(TropMatrix([[0, 0, 0, 0], [0, 0, 0, 0]]))
    rng = random.Random(12)
    for _ in range(20):
        y = TropVector([rng.randint(-3, 3) for _ in range(4)])
        M = select_matroid(p, y)
        best = max(
            sum(y.entry(j) for j in J) for J in itertools.combinations(range(1, 5), 2)
        )
        expected = {
            J
            for J in itertools.combinations(range(1, 5), 2)
            if sum(y.entry(j) for j in J) == best
        }
        assert bases_of(M) == expected


def test_facets_examples():
    facets = facets_of_D(TWO_ROW)
    assert {bases_of(M) for M in facets} == {
        frozenset({(1, 2), (1, 3), (1, 4), (2, 3), (2, 4)}),
        frozenset({(1, 3), (1, 4), (2, 3), (2, 4), (3, 4)}),
    }
    assert facets_of_D(STAIR) == frozenset([uniform_matroid(3, 4)])
    assert facets_of_D(TropMatrix([[0, 0, 0], [0, 0, 0]])) == frozenset(
        [uniform_matroid(2, 3)]
    )


def test_transversal_polytope_empty_when_hall_fails():
    G = BipartiteGraph(2, 3, [(1, 1), (2, 1)])
    P = Polyhedron(3, *transversal_polytope_ineqs(G))
    assert P.is_empty()


def test_transversal_polytope_01_points():
    G = BipartiteGraph(2, 4, [(1, 1), (1, 2)] + [(2, j) for j in range(1, 5)])
    P = Polyhedron(4, *transversal_polytope_ineqs(G))
    M = transversal_matroid(G)
    pts = {
        J
        for J in itertools.combinations(range(1, 5), 2)
        if P.contains(tuple(1 if j in J else 0 for j in range(1, 5)))
    }
    assert pts == {tuple(sorted(b)) for b in M}


def test_transversal_polytope_hypersimplex():
    P = Polyhedron(5, *transversal_polytope_ineqs(BipartiteGraph.from_support(FIG)))
    verts = P.vertices()
    expected = sorted(
        tuple(Fraction(1) if j in J else Fraction(0) for j in range(1, 6))
        for J in itertools.combinations(range(1, 6), 3)
    )
    assert verts == expected


def test_is_interior_cell():
    assert is_interior_cell(uniform_matroid(2, 4), 4)
    coloop = frozenset(map(frozenset, [(1, 2), (1, 3), (1, 4)]))
    assert not is_interior_cell(coloop, 4)
    for M in facets_of_D(TWO_ROW):
        assert is_interior_cell(M, 4)
    with pytest.raises(DomainError) as exc:
        is_interior_cell(frozenset(), 3)
    assert exc.value.code == "EMPTY_MATROID"


def test_subdivisions_equal():
    shifted = TropMatrix(
        [[v + c if v is not INF else INF for v, c in zip(row, [2, -1, 0, 3])]
         for row in TWO_ROW.entries]
    )
    assert subdivisions_equal(TWO_ROW, shifted)
    assert subdivisions_equal(A_of_t(Fraction(1, 2)), A_of_t(Fraction(-1, 2)))
    assert not subdivisions_equal(TWO_ROW, TropMatrix([[0, 0, 0, 0], [0, 0, 0, 0]]))


def test_cell_exists():
    p = stiefel_map(TWO_ROW)
    # the wall between the two facets
    assert cell_exists(p, [(1, 3), (1, 4), (2, 3), (2, 4)])
    # each facet itself
    assert cell_exists(p, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4)])
    # not a cell of this subdivision
    assert not cell_exists(p, [(1, 2), (3, 4)])


def test_facets_json():
    out = facets_to_json(facets_of_D(TWO_ROW))
    assert out == sorted(out)
    assert len(out) == 2


def test_cell_exists_rejects_bases_outside_the_d_subsets():
    p = stiefel_map(TropMatrix([[0, 1, 2, 3], [1, 0, 2, 0]]))
    for bases in ([{1}], [{1, 2}, {1, 2, 3}], [{1, 5}]):
        with pytest.raises(DomainError) as exc:
            cell_exists(p, bases)
        assert exc.value.code == "BAD_BASIS"
