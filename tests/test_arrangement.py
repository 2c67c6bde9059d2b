import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from polyhedra import Polyhedron
from reference import (
    attain_or_refuse,
    covector_of_point,
    covectors_by_row_subsets,
    in_B,
    is_trop_singular,
    row_support,
    shift,
    transpose,
    transpose_covector,
    trop_sum,
)
from tropstiefel import arrangement
from tropstiefel.arrangement import (
    cell_point,
    complex_to_json,
    covector_edges,
    enumerate_covectors,
)
from tropstiefel.bipartite import matching_multifield
from tropstiefel.core import DomainError, INF, TropMatrix, TropVector
from tropstiefel.geom import DifferenceBounds
from tropstiefel.linspace import in_K

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


def test_covector_of_point_examples():
    c = covector_of_point(FIG, TropVector([0, 0, 0]))
    assert c == ((1,), (2,), (1, 2, 3), (3,), (3,))
    c2 = covector_of_point(STAIR, TropVector([0, 0, 0]))
    assert c2 == ((1,), (1, 2), (2, 3), (3,))
    z = TropMatrix([[0, 0], [0, 0]])
    assert covector_edges(covector_of_point(z, TropVector([5, 5]))) == frozenset(
        [(1, 1), (1, 2), (2, 1), (2, 2)]
    )


def row_argmins(A, y):
    """The reference route: per row, the columns attaining min_j (a_ij + y_j)."""
    edges = []
    for i in range(1, A.d + 1):
        best = trop_sum(A.entry(i, j) + y.entry(j) for j in range(1, A.n + 1) if A.entry(i, j) is not INF)
        edges += [(i, j) for j in range(1, A.n + 1) if A.entry(i, j) is not INF and A.entry(i, j) + y.entry(j) == best]
    return (A.d, A.n, frozenset(edges))


HALVES = st.sampled_from([Fraction(k, 2) for k in range(-4, 5)])


@st.composite
def matrices_and_points(draw):
    """A matrix with d <= 4, n <= 7 and entries in halves and ∞, and a point
    of R^n in halves."""
    d = draw(st.integers(1, 4))
    n = draw(st.integers(1, 7))
    entries = st.one_of(st.just(INF), HALVES)
    A = TropMatrix(draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=d, max_size=d)))
    return A, TropVector(draw(st.lists(HALVES, min_size=n, max_size=n)))


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(matrices_and_points())
def test_transpose_covector_against_row_argmins(case):
    A, y = case
    if not all(row_support(A, i) for i in range(1, A.d + 1)):
        with pytest.raises(DomainError) as exc:
            transpose_covector(A, y)
        assert exc.value.code == "EMPTY_ROW"
    else:
        assert transpose_covector(A, y) == row_argmins(A, y)


def test_transpose_covector_examples():
    G = transpose_covector(STAIR, TropVector([0, 0, 0, 0]))
    assert G[2] == STAIR.support()
    G2 = transpose_covector(TWO_ROW, TropVector([0, 0, 0, 0]))
    assert G2[2] == frozenset([(1, 1), (1, 2), (1, 3), (1, 4), (2, 1), (2, 2)])
    y = TropVector([1, -2, 0, 3])
    assert transpose_covector(TWO_ROW, y)[2] == transpose_covector(
        TWO_ROW, shift(y, Fraction(7, 3))
    )[2]


def test_enumerate_covectors_two_row():
    tc = enumerate_covectors(TWO_ROW)
    expected = {
        ((1,), (1,), (1,), (1,)): 1,
        ((2,), (2,), (2,), (2,)): 1,
        ((1, 2), (1, 2), (1,), (1,)): 0,
        ((2,), (2,), (1, 2), (1, 2)): 0,
        ((2,), (2,), (1,), (1,)): 1,
    }
    assert tc == expected


def test_enumerate_covectors_single_row():
    tc = enumerate_covectors(TropMatrix([[0, 0, 0]]))
    assert tc == {((1,), (1,), (1,)): 0}  # one row: the point x_1 = 0


def test_example_t_dependence():
    half = Fraction(1, 2)
    tc_pos = enumerate_covectors(A_of_t(half))
    tc_neg = enumerate_covectors(A_of_t(-half))
    pos_only = ((2,), (3,), (1,), (1,), (2,), (3,))
    neg_only = ((3,), (1,), (2,), (1,), (2,), (3,))
    assert pos_only in tc_pos and pos_only not in tc_neg
    assert neg_only in tc_neg and neg_only not in tc_pos


def test_covering_and_disjointness():
    rng = random.Random(41)
    for A in (FIG, STAIR, TWO_ROW):
        tc = enumerate_covectors(A)
        hits = dict.fromkeys(tc, 0)
        for _ in range(200):
            x = TropVector(
                [0] + [Fraction(rng.randint(-40, 40), rng.randint(1, 7)) for _ in range(A.d - 1)]
            )
            c = covector_of_point(A, x)
            assert c in hits
            hits[c] += 1
        # every witness lies in its own cell and in no other
        for tau in tc:
            assert covector_of_point(A, TropVector(cell_point(A, tau))) == tau


def test_order_reversal():
    for A in (STAIR, TWO_ROW):
        tc = enumerate_covectors(A)
        for c1 in tc:
            for c2 in tc:
                if covector_edges(c1) > covector_edges(c2):
                    # bigger covector = smaller face, contained in the closure
                    x = TropVector(cell_point(A, c1))
                    assert covector_edges(covector_of_point(A, x)) >= covector_edges(c2)
                    assert tc[c1] < tc[c2]


def random_matrices(seed, count):
    """Matrices up to 4 x 6 with integer, fractional and ∞ entries."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        d = rng.randint(1, 4)
        n = rng.randint(d, 6)
        p_inf = rng.choice([0, 0.15, 0.3])
        A = TropMatrix(
            [
                [
                    "inf" if rng.random() < p_inf
                    else Fraction(rng.randint(-6, 6), rng.choice([1, 1, 2, 3]))
                    for _ in range(n)
                ]
                for _ in range(d)
            ]
        )
        if all(A.col_support(j) for j in range(1, n + 1)):
            out.append(A)
    return out


def test_cell_witnesses_and_euler_characteristic():
    for A in random_matrices(11, 60):
        tc = enumerate_covectors(A)
        for tau in tc:
            x = cell_point(A, tau)
            assert x[0] == 0
            assert covector_of_point(A, TropVector(x)) == tau
        # the relatively open cells partition R^(d-1)
        assert sum((-1) ** dim for dim in tc.values()) == (-1) ** (A.d - 1)


def _cell_constraints(A: TropMatrix, tau):
    """Equalities tying the tau rows of each column, and the weak 'other
    rows lose' inequalities (as (coeffs, rhs, edge) triples)."""
    d = A.d
    eqs = []
    others = []
    by_col = {}
    for i, j in tau:
        by_col.setdefault(j, []).append(i)
    for j in range(1, A.n + 1):
        rows_in = sorted(by_col.get(j, ()))
        if not rows_in:
            raise DomainError("BAD_COVECTOR", f"column {j} uncovered")
        i0 = rows_in[0]
        a0 = A.entry(i0, j)
        for i in rows_in[1:]:
            co = [Fraction(0)] * d
            co[i0 - 1] += 1
            co[i - 1] -= 1
            eqs.append((tuple(co), A.entry(i, j) - a0))
        for i in sorted(A.col_support(j)):
            if i in rows_in:
                continue
            co = [Fraction(0)] * d
            co[i - 1] += 1
            co[i0 - 1] -= 1
            others.append((tuple(co), a0 - A.entry(i, j), (i, j)))
    return eqs, others


def test_cell_dimension_matches_closed_cell_polyhedron():
    for A in random_matrices(12, 15):
        gauge = ((1,) + (0,) * (A.d - 1), 0)
        for tau, dim in enumerate_covectors(A).items():
            eqs, others = _cell_constraints(A, covector_edges(tau))
            P = Polyhedron(A.d, eqs=[gauge] + eqs, ineqs=[(c, b) for c, b, _ in others])
            assert dim == P.affine_dimension()


def multifield_of_cells(d, cells):
    """Λ(A) read off TC(A): on each column d-set J, the matchings of [d]
    onto J inside the covector graph of some cell, each listed by a product
    over the rows' neighbourhoods {j : i ∈ I_j}.  A J that no cell matches
    is missing."""
    seen = {}
    for tau in cells:
        neighbourhoods = [[j for j, I in enumerate(tau, 1) if i in I] for i in range(1, d + 1)]
        for cols in itertools.product(*neighbourhoods):
            if len(set(cols)) == d:
                seen.setdefault(frozenset(cols), set()).add(cols)
    return {J: frozenset(ms) for J, ms in seen.items()}


def multifield_or_refusal(A):
    try:
        return matching_multifield(A)
    except DomainError as exc:
        assert exc.code == "NO_MATCHING_ON_SUBSET"
        return exc.code


def test_multifield_from_covectors():
    """A matching is optimal on J exactly when it lies in the covector graph
    of some cell of TC(A), so the matching engine and the covector search,
    which share no code, read the same Λ(A).  So the type of TC(A) fixes
    Λ(A): moving one entry by ±1/4 without changing the ``covectors``
    output leaves the multifield as it is, checked on about a quarter of
    the matrices.  Seeded matrices with d 2–4, n up to 7, about 10% ∞ and
    some halves, entries in −9..9, 0..3 or 0..1; a matrix with an all-∞
    column has no TC(A) and is skipped."""
    rng = random.Random(6)
    seen = Counter()
    for _ in range(2500):
        d = rng.randint(2, 4)
        n, (lo, hi), den = rng.randint(d, 7), rng.choice(((-9, 9), (0, 3), (0, 1))), rng.choice((1, 1, 1, 2))
        A = TropMatrix([[INF if rng.random() < 0.1 else Fraction(rng.randint(lo, hi), den) for _ in range(n)] for _ in range(d)])
        try:
            cells = enumerate_covectors(A)
        except DomainError as exc:
            assert exc.code == "EMPTY_COLUMN"
            seen["skipped"] += 1
            continue
        read, mf = multifield_of_cells(d, cells), multifield_or_refusal(A)
        if mf == "NO_MATCHING_ON_SUBSET":
            assert any(frozenset(J) not in read for J in itertools.combinations(range(1, n + 1), d))
        else:
            assert read == mf
        seen[mf == "NO_MATCHING_ON_SUBSET"] += 1
        if rng.random() < 0.75:
            continue
        i, j = rng.choice(sorted(A.support()))
        entries = [list(row) for row in A.entries]
        entries[i - 1][j - 1] += rng.choice((1, -1)) * Fraction(1, 4)
        B = TropMatrix(entries)
        if enumerate_covectors(B) == cells:
            assert multifield_or_refusal(B) == mf
            seen["same type"] += 1
    assert seen[False] >= 2000 and seen[True] and seen["same type"] >= 200


def test_transpose_duality():
    rng = random.Random(8)
    for _ in range(10):
        d, n = rng.randint(2, 3), rng.randint(2, 4)
        A = TropMatrix([[rng.randint(0, 2) for _ in range(n)] for _ in range(d)])
        tc = enumerate_covectors(A)
        tct = enumerate_covectors(transpose(A))
        def two_sided(complex_, dd, nn):
            out = set()
            for tau in complex_:
                edges = covector_edges(tau)
                if {i for i, _ in edges} == set(range(1, dd + 1)) and {j for _, j in edges} == set(range(1, nn + 1)):
                    out.add(edges)
            return out
        left = two_sided(tc, d, n)
        right = {
            frozenset((i, j) for j, i in edges) for edges in two_sided(tct, n, d)
        }
        assert left == right


def test_in_B_and_in_K():
    tc = enumerate_covectors(STAIR)
    vertex = ((1,), (1, 2), (2, 3), (3,))
    assert vertex in tc
    assert in_B(STAIR, vertex) and in_K(STAIR, vertex)
    tc2 = enumerate_covectors(TWO_ROW)
    ray = ((1,), (1,), (1,), (1,))
    middle = ((2,), (2,), (1,), (1,))
    assert ray in tc2 and middle in tc2
    assert not in_B(TWO_ROW, ray) and not in_K(TWO_ROW, ray)
    assert in_B(TWO_ROW, middle) and in_K(TWO_ROW, middle)


def test_is_trop_singular():
    assert is_trop_singular(TropMatrix([[0, 0], [0, 0]]))
    assert not is_trop_singular(TropMatrix([[0, 1], [1, 0]]))
    A0 = A_of_t(0)
    minor = TropMatrix([row[:3] for row in A0.entries[:3]])
    assert is_trop_singular(minor)
    assert is_trop_singular(TropMatrix([["inf", "inf"], [0, 0]]))
    with pytest.raises(DomainError):
        is_trop_singular(TWO_ROW)
    # 9! permutations tie on the zero matrix; the identity alone is optimal
    # when the off-diagonal entries are 1
    assert is_trop_singular(TropMatrix([[0] * 9] * 9))
    assert not is_trop_singular(TropMatrix([[int(i != j) for j in range(9)] for i in range(9)]))
    # against a brute-force count of the optimal permutations, with ties and
    # ∞ entries common
    rng = random.Random(71)
    values = [INF, 0, 1, 2, Fraction(1, 2)]
    for _ in range(400):
        d = rng.randint(1, 5)
        rows = [[rng.choice(values) for _ in range(d)] for _ in range(d)]
        entries = [[rows[i][j] for i, j in enumerate(perm)] for perm in itertools.permutations(range(d))]
        finite = [sum(es, Fraction(0)) for es in entries if INF not in es]
        expected = not finite or finite.count(min(finite)) >= 2
        assert is_trop_singular(TropMatrix(rows)) == expected


def test_budget_and_column_check(monkeypatch):
    cells = len(enumerate_covectors(FIG))
    assert len(enumerate_covectors(FIG, budget=cells)) == cells
    for k in range(cells):
        with pytest.raises(DomainError) as exc:
            enumerate_covectors(FIG, budget=k)
        assert exc.value.code == "BUDGET_EXCEEDED"
    # a dense 13 x 13 matrix has a column with 2^13 - 1 faces: refused
    # before any search starts
    monkeypatch.setattr("tropstiefel.arrangement.DifferenceBounds", None)
    dense = TropMatrix([[(i * j) % 5 for j in range(13)] for i in range(13)])
    with pytest.raises(DomainError) as exc:
        enumerate_covectors(dense, budget=2 ** 13 - 2)
    assert exc.value.code == "BUDGET_EXCEEDED"
    with pytest.raises(DomainError):
        covector_of_point(TropMatrix([[0, "inf"], [0, "inf"]]), TropVector([0, 0]))


def test_complex_json():
    tc = enumerate_covectors(TWO_ROW)
    obj = complex_to_json(tc)
    assert len(obj) == 5
    assert all(set(entry) == {"covector", "dim"} for entry in obj)


def test_attaining_rows_are_exactly_the_feasible_row_sets():
    """The rows R_j that the search tries, those i for which ``admits``
    takes each bound x_i + a_ij <= x_k + a_kj alone, are exactly the union
    of the row sets I that the refusing ``attain_or_refuse`` imposes on a
    copy, found by brute force over every subset.  Seeded random closed
    matrices on 2–5 rows with weak and strict bounds and ∞ entries."""
    rng = random.Random(13)
    sizes = []
    for _ in range(400):
        d = rng.randint(2, 5)
        dbm = DifferenceBounds(d)
        for _ in range(rng.randint(0, 2 * d)):
            u, v = rng.sample(range(d), 2)
            dbm.add(u, v, rng.randint(-4, 4), rng.random() < 0.5)
        a = [[None if rng.random() < 0.25 else rng.randint(-3, 3)] for _ in range(d)]
        rows = [i for i in range(d) if a[i][0] is not None]
        if not rows:
            continue
        before = [row[:] for row in dbm.bound]
        R = {i for i in rows if all(dbm.admits(k, i, a[k][0] - a[i][0]) for k in rows)}
        assert dbm.bound == before
        feasible = set()
        for r in range(1, len(rows) + 1):
            for I in itertools.combinations(rows, r):
                if attain_or_refuse(dbm.copy(), a, 0, I):
                    feasible |= set(I)
        assert R == feasible and R, (dbm.bound, a)
        sizes.append((len(R), len(rows)))
    # R_j is sometimes a proper subset of the finite rows, sometimes all of them
    assert any(r < k for r, k in sizes) and any(1 < r == k for r, k in sizes)


def test_enumerate_covectors_copy_count(monkeypatch):
    """The work of the search, without a clock: ``DifferenceBounds.copy``
    calls over 20 dense 3×6 matrices.  The search copies a matrix only for
    the unions of tie classes of the rows R_j that can attain each column's
    minimum in the open cell (5030 copies; every subset of R_j: 5234; every
    row set of each column: 23352), so losing that rule shows."""
    calls = 0
    real = DifferenceBounds.copy

    def counting(self):
        nonlocal calls
        calls += 1
        return real(self)

    monkeypatch.setattr(DifferenceBounds, "copy", counting)
    rng = random.Random(17)
    cells = sum(len(enumerate_covectors(TropMatrix([[rng.randint(-9, 9) for _ in range(6)] for _ in range(3)]))) for _ in range(20))
    assert cells > 0 and calls <= 5374, (cells, calls)


def tied_matrices(seed, count):
    """Matrices up to 5 × 7 with ∞ and entries in halves and thirds or in
    {0, 1}, where each row after the first is, with probability 0.4, a copy
    of an earlier one; every column has a finite entry."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        d, n = rng.randint(1, 5), rng.randint(1, 7)
        p_inf = rng.choice([0, 0.2, 0.4])
        entry = (lambda: rng.randint(0, 1)) if rng.random() < 0.3 else (lambda: Fraction(rng.randint(-6, 6), rng.choice([1, 2, 3])))
        rows = []
        for _ in range(d):
            if rows and rng.random() < 0.4:
                rows.append(list(rng.choice(rows)))
            else:
                rows.append(["inf" if rng.random() < p_inf else entry() for _ in range(n)])
        A = TropMatrix(rows)
        if all(A.col_support(j) for j in range(1, n + 1)):
            out.append(A)
    return out


def test_search_over_tie_classes_matches_the_row_subset_search(monkeypatch):
    """Every union of tie classes of R_j is a cell prefix (the proof is in
    ``arrangement``'s docstring), so the search refuses no bound, calls
    ``_attain`` at most n times per cell, and gives the covectors,
    dimensions and points of the reference that tries every subset of R_j
    and keeps the feasible ones, on seeded matrices with ∞, fractions,
    {0, 1} entries and copied rows.  The reference refuses bounds on these
    inputs, so they hold row subsets that the library never tries."""
    refused = Counter()
    attains = 0
    real_add, real_attain = DifferenceBounds.add, arrangement._attain

    def add(self, u, v, c, strict=False):
        ok = real_add(self, u, v, c, strict)
        refused[side] += not ok
        return ok

    def attain(*args):
        nonlocal attains
        attains += 1
        return real_attain(*args)

    monkeypatch.setattr(DifferenceBounds, "add", add)
    monkeypatch.setattr(arrangement, "_attain", attain)
    for A in tied_matrices(31, 200):
        attains = 0
        side = "library"
        cells = enumerate_covectors(A)
        assert attains <= A.n * len(cells), (A, attains, len(cells))
        library = [(tau, dim, cell_point(A, tau)) for tau, dim in cells.items()]
        side = "reference"
        assert library == covectors_by_row_subsets(A), A
    assert refused["library"] == 0 and refused["reference"] > 0, refused
