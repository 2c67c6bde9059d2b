import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from polyhedra import Polyhedron
from reference import cell_exists, col_support, entries, is_interior_cell, subdivisions_equal, support_graph, transversal_polytope_ineqs, uniform_matroid
from tropstiefel.arrangement import covector_edges, enumerate_covectors, facets_of_D, facets_to_json
from tropstiefel.bipartite import components, is_coherent, matching_multifield, transversal_matroid
from tropstiefel.core import DomainError, INF, TropMatrix, TropVector
from tropstiefel.linspace import select_matroid
from tropstiefel.plucker import stiefel_map

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
            sum(entries(y)[j - 1] for j in J) for J in itertools.combinations(range(1, 5), 2)
        )
        expected = {
            J
            for J in itertools.combinations(range(1, 5), 2)
            if sum(entries(y)[j - 1] for j in J) == best
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
    G = (2, 3, [(1, 1), (2, 1)])
    P = Polyhedron(3, *transversal_polytope_ineqs(G))
    assert P.is_empty()


def test_transversal_polytope_01_points():
    G = (2, 4, [(1, 1), (1, 2)] + [(2, j) for j in range(1, 5)])
    P = Polyhedron(4, *transversal_polytope_ineqs(G))
    M = transversal_matroid(*G)
    pts = {
        J
        for J in itertools.combinations(range(1, 5), 2)
        if P.contains(tuple(1 if j in J else 0 for j in range(1, 5)))
    }
    assert pts == {tuple(sorted(b)) for b in M}


def test_transversal_polytope_hypersimplex():
    P = Polyhedron(5, *transversal_polytope_ineqs(support_graph(FIG)))
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
         for row in entries(TWO_ROW)]
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


def least_cell_matrices(seed, count):
    """Matrices up to 4 × 7 with entries k or k/2 and ∞ at 0, 10 or 25%,
    every column finite somewhere.  A quarter have block supports: the rows
    and the columns split in two, ∞ between the parts, so that the rows
    fall apart and TC(A) has no 0-cell."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        block = rng.random() < 0.25
        d = rng.randint(2 if block else 1, 4)
        n = rng.randint(2 if block else 1, 7)
        p_inf = rng.choice([0, 0.1, 0.25])
        row_part = [rng.random() < 0.5 for _ in range(d)] if block else [False] * d
        col_part = [rng.random() < 0.5 for _ in range(n)] if block else [False] * n
        entries = [
            [
                "inf" if row_part[i] != col_part[j] or rng.random() < p_inf
                else Fraction(rng.randint(-9, 9), rng.choice([1, 2]))
                for j in range(n)
            ]
            for i in range(d)
        ]
        A = TropMatrix(entries)
        if all(col_support(A, j) for j in range(1, n + 1)):
            out.append(A)
    return out


def test_least_dimensional_cells_carry_the_facets():
    """The cells of TC(A) share one lineality space: each component of the
    rows, two rows linked when they share a finite column, shifts on its
    own.  So (a) the least cell dimension is that number of components less
    one; (b) every covector's edges lie inside those of some covector of
    least dimension; (c) the facets of D(A) are the containment-maximal
    transversal matroids of the least-dimensional cells, which
    ``facets_of_D`` could read alone."""
    above_zero = 0
    for A in least_cell_matrices(52, 300):
        tc = enumerate_covectors(A)
        least = min(tc.values())
        assert least == components(A.d, [sorted(i - 1 for i in col_support(A, j)) for j in range(1, A.n + 1)]) - 1, A
        above_zero += least > 0
        low = [covector_edges(tau) for tau, dim in tc.items() if dim == least]
        assert all(any(covector_edges(tau) <= E for E in low) for tau in tc), A
        matroids = {M for E in low if (M := transversal_matroid(A.d, A.n, E))}
        maximal = frozenset(M for M in matroids if not any(M < N for N in matroids))
        try:
            assert facets_of_D(A) == maximal, A
        except DomainError as e:
            assert e.code == "NO_MATCHING_IN_SUPPORT" and not maximal, A
    assert above_zero >= 40, above_zero


def test_facets_of_D_are_read_off_the_multifield():
    """D(A) is a function of Λ(A): ``facets_of_D`` of the witness that
    ``is_coherent`` builds from Λ(A) equals ``facets_of_D(A)``, or both
    refuse with one code.  500 seeded matrices, d 1–3, n from d to 6,
    entries k or k/2 for k in −3..3 (so ties are common), ∞ at 0, 10 or
    25%; a matrix with a d-subset that its support cannot match has no
    Λ(A) and is counted apart."""
    def facets_or_code(A):
        try:
            return facets_of_D(A)
        except DomainError as exc:
            return exc.code

    rng = random.Random(53)
    seen = Counter()
    for _ in range(500):
        d = rng.randint(1, 3)
        n, p_inf = rng.randint(d, 6), rng.choice((0, 0.1, 0.25))
        A = TropMatrix([[INF if rng.random() < p_inf else Fraction(rng.randint(-3, 3), rng.choice((1, 2))) for _ in range(n)] for _ in range(d)])
        try:
            mf = matching_multifield(A)
        except DomainError as exc:
            assert exc.code == "NO_MATCHING_ON_SUBSET"
            seen["no multifield"] += 1
            continue
        assert facets_or_code(is_coherent(mf)) == facets_or_code(A), entries(A)
        seen["agreed"] += 1
    assert seen["agreed"] >= 350 and seen["no multifield"], seen
