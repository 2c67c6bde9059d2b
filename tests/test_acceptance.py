"""End-to-end acceptance suite: golden examples plus randomized
cross-validation of independent computation routes, each under an explicit
time budget (exact arithmetic throughout, no tolerances)."""

import itertools
import json
import random
import time
from collections import Counter
from fractions import Fraction
from functools import reduce

from polyhedra import Polyhedron
from reference import (
    J_of,
    bounded_complex,
    bounded_membership,
    caterpillar_check,
    cell_exists,
    coloops,
    colwise_dragon_condition,
    common_ints,
    covector_graph,
    covector_of_point,
    decomposition_cone,
    enumerate_support_sets,
    is_trop_singular,
    is_tree,
    loops,
    lp_solve,
    matrix_row,
    matroid_is_connected,
    minimal_form,
    optimal_columns,
    plucker_proj_eq,
    polytrope_contains,
    polytrope_dim,
    residuation,
    row_vector,
    stable_union,
    subdivisions_equal,
    support_graph,
    transversal_polytope_ineqs,
    vec_mat_mul,
    vector_support,
    vector_to_json,
)
from tropstiefel.arrangement import covector_edges, enumerate_covectors, facets_of_D
from tropstiefel.bipartite import (
    is_support_set,
    matching_multifield,
    multifield_to_json,
    transversal_matroid,
)
from tropstiefel.cli import main
from tropstiefel.core import INF, DomainError, TropMatrix, TropVector, common_denom, matrix_to_json, require_column_supports
from tropstiefel.geom import DifferenceBounds
from tropstiefel.linspace import (
    contains,
    contains_via_matroid,
    decompose,
    in_bounded_part,
    in_K,
    in_L,
    select_matroid,
)
from tropstiefel.plucker import (
    PluckerVector,
    check_plucker,
    recover_matrix,
    stiefel_map,
)

STAIR = TropMatrix([[0, 0, "inf", "inf"], ["inf", 0, 0, "inf"], ["inf", "inf", 0, 0]])


def A_of_t(t):
    return TropMatrix(
        [
            ["inf", 0, 0, 0, "inf", "inf"],
            [0, "inf", 0, "inf", 0, "inf"],
            [t, 0, "inf", "inf", "inf", 0],
            [0, 1, 2, "inf", "inf", "inf"],
        ]
    )


def random_matrix(rng, d, n, lo=-2, hi=3, inf_prob=0):
    while True:
        entries = [
            [
                "inf" if inf_prob and rng.random() < inf_prob else rng.randint(lo, hi)
                for _ in range(n)
            ]
            for _ in range(d)
        ]
        A = TropMatrix(entries)
        if any(not A.col_support(j) for j in range(1, n + 1)):
            continue
        try:
            stiefel_map(A)
        except Exception:
            continue
        return A


def norm(entries):
    return tuple(v - entries[0] for v in entries)


class Budget:
    def __init__(self, seconds):
        self.seconds = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, *exc):
        if exc[0] is None:
            elapsed = time.monotonic() - self.start
            assert elapsed < self.seconds, f"budget exceeded: {elapsed:.1f}s"


# -- 1 ----------------------------------------------------------------------

def test_standard_plane_golden():
    with Budget(1):
        p = stiefel_map(STAIR)
        assert p.d == 3 and p.n == 4
        assert all(v == 0 for v in p.values.values())

        cells = bounded_complex(STAIR)
        assert len(cells) == 1
        image = cells[0][1]
        poly = Polyhedron(4, *minimal_form(image))
        assert poly.affine_dimension() == 0 == polytrope_dim(image)
        assert norm(poly.vertices()[0]) == (0, 0, 0, 0) == norm(image.point()[1:])

        _, _, J, _ = decompose(STAIR, TropVector([0, 1, 1, 0]))
        assert J == frozenset({2, 3})
        assert decompose(STAIR, TropVector([-1, 0, 0, 0])) is None


# -- 2 ----------------------------------------------------------------------

def test_parametric_family_golden():
    with Budget(10):
        half = Fraction(1, 2)
        tc_pos = enumerate_covectors(A_of_t(half))
        tc_neg = enumerate_covectors(A_of_t(-half))
        pos_only = ((2,), (3,), (1,), (1,), (2,), (3,))
        neg_only = ((3,), (1,), (2,), (1,), (2,), (3,))
        assert pos_only in tc_pos and pos_only not in tc_neg
        assert neg_only in tc_neg and neg_only not in tc_pos

        mfs = [matching_multifield(A_of_t(t)) for t in (-half, 0, half)]
        assert mfs[0] == mfs[1] == mfs[2]

        A0 = A_of_t(0)
        minor = TropMatrix([row[:3] for row in A0.entries[:3]])
        assert is_trop_singular(minor)


# -- 3 ----------------------------------------------------------------------

def _rows_12(pairs_eq, pairs_ge):
    eqs, ineqs = [], []
    for i, j in pairs_eq:
        co = [Fraction(0)] * 12
        co[i - 1] += 1
        co[j - 1] -= 1
        eqs.append((tuple(co), Fraction(0)))
    for i, j in pairs_ge:  # y_i >= y_j
        co = [Fraction(0)] * 12
        co[i - 1] += 1
        co[j - 1] -= 1
        ineqs.append((tuple(co), Fraction(0)))
    return eqs, ineqs


def poly_subset(P, Q):
    """Exact containment test via linear programming over P."""
    if P.is_empty():
        return True
    for a, b in Q.eqs:
        for sign in (1, -1):
            obj = tuple(sign * v for v in a)
            status, _, value = lp_solve(P.dim, P.eqs, P.ineqs, obj)
            if status != "optimal" or value != sign * b:
                return False
    for a, b in Q.ineqs:
        obj = tuple(-v for v in a)
        status, _, value = lp_solve(P.dim, P.eqs, P.ineqs, obj)
        if status != "optimal" or value > -b:
            return False
    return True


def in_relint(P, z):
    if not P.contains(z):
        return False
    imp = P.implicit_equalities()
    for k, (a, b) in enumerate(P.ineqs):
        if k in imp:
            continue
        if sum(c * v for c, v in zip(a, z)) <= b:
            return False
    return True


def test_nonfacial_intersection_golden():
    with Budget(10):
        from reference import decomposition_cone

        d, n = 11, 12
        sigma = frozenset(
            [(i, i) for i in range(1, 12)] + [(i, i + 1) for i in range(1, 12)]
        )
        A = TropMatrix(
            [
                [0 if (i, j) in sigma else "inf" for j in range(1, n + 1)]
                for i in range(1, d + 1)
            ]
        )
        tau1 = sigma - {(4, 5), (6, 6), (8, 9), (10, 10)}
        tau2 = sigma - {(2, 2), (4, 5), (6, 6), (10, 10)}
        J1, J2 = frozenset({3, 4, 11}), frozenset({7, 8, 11})
        assert colwise_dragon_condition((d, n, tau1), J1)
        assert colwise_dragon_condition((d, n, tau2), J2)

        cone1 = decomposition_cone(A, tau1, J1)
        cone2 = decomposition_cone(A, tau2, J2)
        assert polytrope_dim(cone1) == polytrope_dim(cone2) == 8
        C1, C2 = Polyhedron(12, *minimal_form(cone1)), Polyhedron(12, *minimal_form(cone2))
        assert C1.affine_dimension() == 8
        assert C2.affine_dimension() == 8

        # independently hand-coded H-representations of both terms
        E1 = Polyhedron(12, *_rows_12(
            [(1, 2), (5, 6), (7, 8), (9, 10)],
            [(3, 1), (4, 1), (1, 5), (7, 6), (7, 9), (11, 12), (12, 9)],
        ))
        E2 = Polyhedron(12, *_rows_12(
            [(1, 2), (3, 4), (9, 10), (5, 6)],
            [(3, 2), (3, 5), (7, 9), (8, 9), (12, 9), (9, 5), (11, 12)],
        ))
        assert poly_subset(C1, E1) and poly_subset(E1, C1)
        assert poly_subset(C2, E2) and poly_subset(E2, C2)

        inter = C1.intersect(C2)
        assert inter.affine_dimension() == 7
        E12 = Polyhedron(12, *_rows_12(
            [(3, 4), (1, 2), (5, 6), (7, 8), (9, 10)],
            [(3, 1), (1, 5), (7, 9), (9, 6), (11, 12), (12, 9)],
        ))
        assert poly_subset(inter, E12) and poly_subset(E12, inter)

        z = inter.relative_interior_point()
        assert in_relint(C1, z) and in_relint(C2, z)
        assert polytrope_contains(cone1, z) and polytrope_contains(cone2, z)


# -- 4 ----------------------------------------------------------------------

def test_support_census_dimension():
    with Budget(30):
        for d, n in ((2, 4), (2, 5), (3, 4), (3, 5)):
            supports = enumerate_support_sets(d, n)
            assert supports, (d, n)
            for G in supports:
                from tropstiefel.bipartite import support_face_dimension

                assert support_face_dimension(G[2]) == (d - 1) * (n - d - 1)
                if n == d + 1:
                    assert is_tree(G)
                    assert all(len(J_of(G, {i})) == 2 for i in range(1, d + 1))


# -- 5 ----------------------------------------------------------------------

def contains_via_assignment(A, y):
    """The fourth membership route: y ∈ L(A) exactly when every column lies
    in some min-cost assignment of the costs a_ij − y_j."""
    _, a, z = common_ints(A, y)
    return len(optimal_columns([[None if c is None else c - z[j] for j, c in enumerate(row)] for row in a])) == A.n


def test_membership_triple_equivalence():
    with Budget(120):
        rng = random.Random(501)
        total = 0
        while total < 2000:
            d = rng.randint(1, 3)
            n = rng.randint(d, 6)
            A = random_matrix(rng, d, n, inf_prob=0.1 if rng.random() < 0.4 else 0)
            p = stiefel_map(A)
            for _ in range(10):
                if rng.random() < 0.5:
                    x = TropVector([rng.randint(-3, 3) for _ in range(d)])
                    y = vec_mat_mul(x, A)
                else:
                    y = TropVector(
                        [Fraction(rng.randint(-8, 8), rng.randint(1, 2)) for _ in range(n)]
                    )
                a = contains(p, y)
                b = contains_via_matroid(p, y)
                c = decompose(A, y) is not None
                e = contains_via_assignment(A, y)
                f = in_L(A, y)
                assert a == b == c == e == f, (A.entries, y.entries, a, b, c, e, f)
                total += 1


def members_by_matchings(A, y):
    """Membership by brute force over the row-to-column matchings of A's
    support: every finite coordinate's column lies in some matching that
    takes as many ∞ columns of y as any matching does and, among those,
    least Σ (a_ij − y_j) over its finite columns.  Small d and n only."""
    finite = {j for j, w in enumerate(y.entries) if w is not INF}
    best, used = None, set()
    for cols in itertools.permutations(range(A.n), A.d):
        if any(A.entries[i][j] is INF for i, j in enumerate(cols)):
            continue
        key = (-sum(j not in finite for j in cols),
               sum(A.entries[i][j] for i, j in enumerate(cols)) - sum(y.entries[j] for j in cols if j in finite))
        if best is None or key < best:
            best, used = key, set(cols)
        elif key == best:
            used |= set(cols)
    return finite <= used


def test_kept_circuits_answer_every_denominator():
    """One p kept across queries whose denominators change from query to
    query: A in halves and thirds with ∞ entries, y in units of 1, 1/2,
    1/3 and 1/4 in turn (so p's kept ints are scaled by 1 and by 2), some
    with ∞ coordinates.  Circuits agree with ``in_L`` on every query, with
    the assignment route on finite y and with brute force over matchings
    on every y; the list is built once and kept."""
    rng = random.Random(3117)
    entries = [0, 1, -2, "1/2", "-3/2", "1/3", "-2/3", "5/3", "inf"]
    seen, scaled, with_inf = Counter(), 0, 0
    for _ in range(60):
        d = rng.randint(2, 3)
        n = rng.randint(d + 1, 5)
        A = TropMatrix([[rng.choice(entries) for _ in range(n)] for _ in range(d)])
        try:
            require_column_supports(A)
            p = stiefel_map(A)
        except DomainError:
            continue
        kept = None
        for k in range(12):
            q = (1, 2, 3, 4)[k % 4]
            if k % 3 == 0:
                y = vec_mat_mul(TropVector([Fraction(rng.randint(-6, 6), q) for _ in range(d)]), A).entries
            else:
                y = [Fraction(rng.randint(-12, 12), q) for _ in range(n)]
            if k % 2:
                y = [INF if rng.random() < 0.3 else v for v in y]
            Y = TropVector(y)
            if not vector_support(Y):
                continue
            got = contains(p, Y)
            assert got == in_L(A, Y) == members_by_matchings(A, Y), (A.entries, Y.entries)
            if Y.is_finite():
                assert got == contains_via_assignment(A, Y), (A.entries, Y.entries)
            kept = kept or p.circuits
            assert kept is not None and p.circuits is kept
            seen[got] += 1
            scaled += common_denom(p.denom, Y.denom)[1] != 1
            with_inf += not Y.is_finite()
    assert min(seen.values()) >= 100 and scaled >= 100 and with_inf >= 100, (seen, scaled, with_inf)


def test_membership_equivalence_ranks_4_and_5():
    """Circuits, selected matroids, ``decompose``, optimal assignments and
    ``in_L`` at d = 4 and 5, on image points and random halves with 0, 15 or 30% ∞
    entries; every certificate lies in its decomposition cone."""
    with Budget(30):
        rng = random.Random(901)
        members = queries = 0
        while queries < 150:
            d = rng.choice((4, 5))
            n = rng.randint(d, 7)
            A = random_matrix(rng, d, n, inf_prob=rng.choice((0, 0.15, 0.3)))
            p = stiefel_map(A)
            for _ in range(10):
                if rng.random() < 0.5:
                    y = vec_mat_mul(TropVector([rng.randint(-3, 3) for _ in range(d)]), A)
                else:
                    y = TropVector([Fraction(rng.randint(-8, 8), rng.randint(1, 2)) for _ in range(n)])
                cert = decompose(A, y)
                a, b, c, e = contains(p, y), contains_via_matroid(p, y), cert is not None, contains_via_assignment(A, y)
                f = in_L(A, y)
                assert a == b == c == e == f, (A.entries, y.entries, a, b, c, e, f)
                if cert is not None:
                    covector, _, J, _ = cert
                    assert polytrope_contains(decomposition_cone(A, covector_edges(covector), J), y.entries)
                members += c
                queries += 1
        assert 0 < members < queries


# -- 6 ----------------------------------------------------------------------

def test_image_invariants():
    with Budget(30):
        rng = random.Random(601)
        for _ in range(200):
            d = rng.randint(1, 3)
            n = rng.randint(d, 6)
            A = random_matrix(rng, d, n, inf_prob=0.1 if rng.random() < 0.3 else 0)
            p = stiefel_map(A)
            assert check_plucker(p)
            rows = [row_vector(matrix_row(A, i)) for i in range(1, d + 1)]
            assert plucker_proj_eq(reduce(stable_union, rows), p)


# -- 7 ----------------------------------------------------------------------

def test_matrix_recovery():
    with Budget(30):
        rng = random.Random(701)
        pools = {
            (d, n): enumerate_support_sets(d, n)
            for d, n in ((2, 4), (2, 5), (3, 4), (3, 5))
        }
        for _ in range(100):
            d, n = rng.choice(sorted(pools))
            G = rng.choice(pools[(d, n)])
            A = TropMatrix(
                [
                    [rng.randint(-4, 4) if (i, j) in G[2] else "inf" for j in range(1, n + 1)]
                    for i in range(1, d + 1)
                ]
            )
            B = recover_matrix(stiefel_map(A), *G)
            assert B.support() == A.support()
            for i in range(1, d + 1):
                diffs = {
                    A.entry(i, j) - B.entry(i, j) for j in sorted(J_of(G, {i}))
                }
                assert len(diffs) == 1, (A.entries, B.entries, i)


# -- 8 ----------------------------------------------------------------------

def test_facet_cross_validation():
    with Budget(120):
        rng = random.Random(801)
        for _ in range(200):
            d = rng.randint(1, 3)
            n = rng.randint(d, 6)
            A = random_matrix(rng, d, n, lo=0, hi=3)
            p = stiefel_map(A)
            cache = {}
            seen = set()
            for k in range(2000):
                if k % 4 == 0:
                    y = TropVector([rng.randint(-4, 4) for _ in range(n)])
                    key = ("y",) + tuple(v - y.entry(1) for v in y.entries)
                else:
                    x = [rng.randint(-4, 4) for _ in range(d)]
                    key = ("x",) + tuple(v - x[0] for v in x)
                    y = None
                if key not in cache:
                    if y is None:
                        y = vec_mat_mul(TropVector(x), A)
                    cache[key] = select_matroid(p, y)
                seen.add(cache[key])
            maximal = {M for M in seen if not any(M < N for N in seen)}
            assert maximal == set(facets_of_D(A)), A.entries


# -- 9 ----------------------------------------------------------------------

def test_subdivision_multifield_bijection():
    with Budget(60):
        rng = random.Random(901)
        pools = {
            (d, n): enumerate_support_sets(d, n)
            for d, n in ((2, 4), (2, 5), (3, 4), (3, 5))
        }

        def fill(G, d, n):
            return TropMatrix(
                [
                    [rng.randint(-3, 3) if (i, j) in G[2] else "inf" for j in range(1, n + 1)]
                    for i in range(1, d + 1)
                ]
            )

        for _ in range(50):
            d, n = rng.choice(sorted(pools))
            G = rng.choice(pools[(d, n)])
            A = fill(G, d, n)
            if rng.random() < 0.5:
                # a tropically-equivalent rescaling: same multifield
                r = [rng.randint(-2, 2) for _ in range(d)]
                c = [rng.randint(-2, 2) for _ in range(n)]
                B = TropMatrix(
                    [
                        [
                            A.entry(i, j) + r[i - 1] + c[j - 1]
                            if A.entry(i, j) is not INF
                            else "inf"
                            for j in range(1, n + 1)
                        ]
                        for i in range(1, d + 1)
                    ]
                )
            else:
                B = fill(G, d, n)
            same_mf = matching_multifield(A) == matching_multifield(B)
            assert subdivisions_equal(A, B) == same_mf, (A.entries, B.entries)


# -- 10 ---------------------------------------------------------------------

def test_polytope_exactness():
    with Budget(60):
        rng = random.Random(1001)
        for _ in range(200):
            d = rng.randint(1, 4)
            n = rng.randint(d, 7)
            edges = [
                (i, j)
                for i in range(1, d + 1)
                for j in range(1, n + 1)
                if rng.random() < 0.55
            ]
            G = (d, n, edges)
            P = Polyhedron(n, *transversal_polytope_ineqs(G))
            M = transversal_matroid(*G)
            expected = {tuple(sorted(b)) for b in M}
            got = {
                J
                for J in itertools.combinations(range(1, n + 1), d)
                if P.contains(tuple(1 if j in J else 0 for j in range(1, n + 1)))
            }
            assert got == expected, (d, n, sorted(edges))


# -- 11 ---------------------------------------------------------------------

def snowflake_plucker():
    """Three cherries {1,2}, {3,4}, {5,6}: pairs inside a cherry get -2,
    pairs across cherries get -4."""
    cherry = {1: 1, 2: 1, 3: 2, 4: 2, 5: 3, 6: 3}
    values = {}
    for J in itertools.combinations(range(1, 7), 2):
        i, j = J
        values[frozenset(J)] = Fraction(-2 if cherry[i] == cherry[j] else -4)
    return PluckerVector(6, 2, values)


def test_caterpillar_and_snowflake():
    with Budget(60):
        rng = random.Random(1101)
        for _ in range(200):
            n = rng.randint(2, 7)
            A = TropMatrix([[rng.randint(0, 4) for _ in range(n)] for _ in range(2)])
            assert caterpillar_check(A)

        p = snowflake_plucker()
        assert check_plucker(p)

        # census of selected matroids over a small exact grid
        seen = set()
        for y in itertools.product(range(4), repeat=6):
            seen.add(select_matroid(p, TropVector(y)))
        facets = {M for M in seen if not any(M < N for N in seen)}
        interior = {
            M for M in facets if not loops(M, 6) and not coloops(M)
        }
        # the bounded tree has four internal vertices
        assert len(interior) == 4
        for M in interior:
            assert matroid_is_connected(M, 6)
        # bounded edges: interior codimension-one walls between vertices
        verts = sorted(interior, key=lambda M: sorted(map(sorted, M)))
        degree = {i: 0 for i in range(len(verts))}
        for a, b in itertools.combinations(range(len(verts)), 2):
            W = verts[a] & verts[b]
            if not W:
                continue
            if loops(W, 6) or coloops(W):
                continue
            if cell_exists(p, list(W)):
                degree[a] += 1
                degree[b] += 1
        # a vertex with three bounded neighbors: the tree is not a path
        assert max(degree.values()) == 3
        assert sorted(degree.values()) == [1, 1, 1, 3]


# -- 12 ---------------------------------------------------------------------

def test_decompose_dense_queries():
    """decompose directed by y on a dense 4×8 (1043 cells): image
    points and random y, each answer agreeing with circuit membership."""
    with Budget(5):
        rng = random.Random(1201)
        A = TropMatrix([[rng.randint(-50, 50) for _ in range(8)] for _ in range(4)])
        p = stiefel_map(A)
        found = 0
        for q in range(20):
            if q % 2 == 0:
                y = vec_mat_mul(TropVector([rng.randint(-20, 20) for _ in range(4)]), A)
            else:
                y = TropVector([Fraction(rng.randint(-100, 100), rng.randint(1, 2)) for _ in range(8)])
            cert = decompose(A, y)
            assert (cert is not None) == contains(p, y)
            found += cert is not None
        assert found >= 10


# -- 13 ---------------------------------------------------------------------

def test_decompose_dense_image_point_ends():
    """An image point of a dense 6×9 (``random.Random(1)``, entries
    −50..50), where the search once walked prefixes whose later columns
    could not all fit in J and refused only after 11–15 s: it must end,
    with a certificate checked by its decomposition cone or with
    BUDGET_EXCEEDED, well inside the budget."""
    with Budget(5):
        rng = random.Random(1)
        A = TropMatrix([[rng.randint(-50, 50) for _ in range(9)] for _ in range(6)])
        y = vec_mat_mul(TropVector([rng.randint(-20, 20) for _ in range(6)]), A)
        try:
            covector, _, J, _ = decompose(A, y)
        except DomainError as exc:
            assert exc.code == "BUDGET_EXCEEDED"
        else:
            assert polytrope_contains(decomposition_cone(A, covector_edges(covector), J), y.entries)


# -- 14 ---------------------------------------------------------------------

def test_decompose_answers_a_wide_non_member_before_searching(tmp_path, capsys):
    """A dense 12×14 (``random.Random(201)``, entries −50..50, then y in
    −60..60) with y outside L(A): one assignment problem answers None
    before the search, which alone refuses it with BUDGET_EXCEEDED only
    after about 30 s; the CLI prints ``{"in_L": false}`` and exits 0."""
    with Budget(5):
        rng = random.Random(201)
        A = TropMatrix([[rng.randint(-50, 50) for _ in range(14)] for _ in range(12)])
        y = TropVector([rng.randint(-60, 60) for _ in range(14)])
        assert decompose(A, y) is None
        path = tmp_path / "in.json"
        path.write_text(json.dumps({"matrix": matrix_to_json(A), "vector": vector_to_json(y)}))
        assert main(["decompose", "--input", str(path)]) == 0
        assert json.loads(capsys.readouterr().out) == {"in_L": False}


# -- 15 ---------------------------------------------------------------------

def test_decompose_answers_dense_and_diagonal_image_points(tmp_path, capsys):
    """Image points on which a search over covector prefixes grows
    exponentially, each answered by one assignment.  The dense 7×10
    (``random.Random(3)``) and 8×10 (``random.Random(4)``), entries
    −50..50 and x in −20..20, answer with certificates in their
    decomposition cones, and the CLI answers the 8×10 with exit 0.  The
    diagonal 17×17 (``random.Random(3)``, diagonal −5..5 drawn first, then
    x in −3..3) is too large for the cone, so its certificate is checked by
    the covector of x, the column-wise dragon condition and
    x ⊙ A + slack = y."""
    with Budget(5):
        for seed, d in ((3, 7), (4, 8)):
            rng = random.Random(seed)
            A = TropMatrix([[rng.randint(-50, 50) for _ in range(10)] for _ in range(d)])
            y = vec_mat_mul(TropVector([rng.randint(-20, 20) for _ in range(d)]), A)
            covector, _, J, _ = decompose(A, y)
            assert polytrope_contains(decomposition_cone(A, covector_edges(covector), J), y.entries)
        path = tmp_path / "in.json"
        path.write_text(json.dumps({"matrix": matrix_to_json(A), "vector": vector_to_json(y)}))
        assert main(["decompose", "--input", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["in_L"] is True

        rng = random.Random(3)
        diagonal = [rng.randint(-5, 5) for _ in range(17)]
        A = TropMatrix([[diagonal[i] if i == j else INF for j in range(17)] for i in range(17)])
        y = vec_mat_mul(TropVector([rng.randint(-3, 3) for _ in range(17)]), A)
        covector, x, J, slack = decompose(A, y)
        assert J == frozenset()
        assert covector_of_point(A, TropVector(x)) == covector and colwise_dragon_condition(covector_graph(A, covector), J)
        assert vec_mat_mul(TropVector(x), A) == y and slack == (0,) * 17


# -- 16 ---------------------------------------------------------------------

def answer(route):
    """What ``route()`` returns, or the code of the DomainError it raises."""
    try:
        return route()
    except DomainError as exc:
        return exc.code


def seeded_query(rng, A):
    """A y for A: half the time an image point x ⊙ A with slack on about
    30% of its finite coordinates, else random halves."""
    if rng.random() < 0.5:
        image = vec_mat_mul(TropVector([rng.randint(-3, 3) for _ in range(A.d)]), A).entries
        return [v + Fraction(rng.randint(1, 4), 2) if v is not INF and rng.random() < 0.3 else v for v in image]
    return [Fraction(rng.randint(-8, 8), rng.randint(1, 2)) for _ in range(A.n)]


def test_in_L_against_circuits():
    """``in_L`` against circuit membership on 3000 seeded queries, d <= 5 and
    n <= 8, with 0, 15 or 30% ∞ entries in A, ∞ coordinates in about 30%
    of the y, and a y one coordinate short in about 2%: the same answers,
    and the same error codes in the same order."""
    with Budget(30):
        rng = random.Random(1601)
        seen, with_inf = Counter(), Counter()
        for _ in range(3000):
            d = rng.randint(1, 5)
            n = rng.randint(d, 8)
            p = rng.choice((0, 0.15, 0.3))
            A = TropMatrix([[INF if rng.random() < p else Fraction(rng.randint(-8, 8), rng.randint(1, 2)) for _ in range(n)] for _ in range(d)])
            y = seeded_query(rng, A)
            if rng.random() < 0.3:
                y = [INF if rng.random() < 0.3 else v for v in y]
            if rng.random() < 0.02:
                y = y[:-1] or [0, 0]
            y = TropVector(y)
            got = answer(lambda: in_L(A, y))
            assert got == answer(lambda: contains(stiefel_map(A), y)), (A.entries, y.entries)
            seen[got] += 1
            with_inf[got] += INF in y.entries
        assert with_inf[True] >= 100 and with_inf[False] >= 100
        assert seen["LENGTH_MISMATCH"] and seen["NO_MATCHING_IN_SUPPORT"]


def test_in_bounded_part_against_selected_matroids():
    """``in_bounded_part`` against the selected-matroid route
    ``bounded_membership(stiefel_map(A), y)`` on 3600 seeded queries: three
    in four on dense image points with slack on some coordinates, the rest
    on matrices with 15 or 30% ∞ entries, y with ∞ coordinates or one short.
    The same answers, at least 300 of them true, and the same error codes
    in the same order."""
    with Budget(30):
        rng = random.Random(1602)
        seen = Counter()
        for _ in range(3600):
            d = rng.randint(1, 5)
            if rng.random() < 0.75:
                n = rng.randint(d, min(8, d + 3))
                A = TropMatrix([[rng.randint(-6, 6) for _ in range(n)] for _ in range(d)])
                y = vec_mat_mul(TropVector([rng.randint(-3, 3) for _ in range(d)]), A).entries
                y = [v + Fraction(rng.randint(1, 4), 2) if rng.random() < 0.15 else v for v in y]
            else:
                n = rng.randint(max(1, d - 1), 8)
                p = rng.choice((0.15, 0.3))
                A = TropMatrix([[INF if rng.random() < p else Fraction(rng.randint(-8, 8), rng.randint(1, 2)) for _ in range(n)] for _ in range(d)])
                y = seeded_query(rng, A)
                if rng.random() < 0.2:
                    y = [INF if rng.random() < 0.3 else v for v in y]
                if rng.random() < 0.05:
                    y = y[:-1] or [0, 0]
            y = TropVector(y)
            got = answer(lambda: in_bounded_part(A, y))
            assert got == answer(lambda: bounded_membership(stiefel_map(A), y)), (A.entries, y.entries)
            seen[got] += 1
        assert seen[True] >= 300 and seen[False] >= 300
        assert all(seen[code] for code in ("NO_MATCHING_IN_SUPPORT", "NOT_UNIFORM", "BAD_POINT"))


def test_member_and_bounded_answer_a_dense_8x24(tmp_path, capsys):
    """An image point of a dense 8×24 (``random.Random(6)``, entries
    −50..50, x in −20..20), whose C(24, 8) minors the matching engine
    refuses: ``member`` and ``bounded`` answer it from one assignment
    problem, with exit 0 and no BUDGET_EXCEEDED.  ⊙A is injective on B(A),
    so y is in the bounded part exactly when the covector of its residual,
    a point of B(A), meets the dragon condition."""
    with Budget(5):
        rng = random.Random(6)
        A = TropMatrix([[rng.randint(-50, 50) for _ in range(24)] for _ in range(8)])
        y = vec_mat_mul(TropVector([rng.randint(-20, 20) for _ in range(8)]), A)
        path = tmp_path / "in.json"
        path.write_text(json.dumps({"matrix": matrix_to_json(A), "vector": vector_to_json(y)}))
        assert main(["member", "--input", str(path)]) == 0
        assert json.loads(capsys.readouterr().out) == {"in_L": True}
        assert main(["bounded", "--input", str(path)]) == 0
        expected = in_K(A, covector_of_point(A, residuation(y, A)))
        assert json.loads(capsys.readouterr().out) == {"in_bounded_part": expected}
        assert answer(lambda: stiefel_map(A)) == "BUDGET_EXCEEDED"


def test_bounded_and_support_set_answer_past_a_subset_scan(tmp_path, capsys):
    """The surplus Hall condition behind ``bounded`` and ``support-set`` is
    d assignment problems, not a scan of the 2^d − 1 row sets: ``bounded``
    on an image point of a dense 16×40 (``random.Random(6)``, entries
    −50..50, x in −20..20) and ``support-set`` on the complete 17×18 graph
    answer with exit 0, where a scan would visit 65535 and 131071 row
    sets."""
    rng = random.Random(6)
    A = TropMatrix([[rng.randint(-50, 50) for _ in range(40)] for _ in range(16)])
    y = vec_mat_mul(TropVector([rng.randint(-20, 20) for _ in range(16)]), A)
    point = tmp_path / "point.json"
    point.write_text(json.dumps({"matrix": matrix_to_json(A), "vector": vector_to_json(y)}))
    graph = tmp_path / "graph.json"
    graph.write_text(json.dumps({"d": 17, "n": 18, "edges": [[i, j] for i in range(1, 18) for j in range(1, 19)]}))
    with Budget(2):
        assert main(["bounded", "--input", str(point)]) == 0
        bounded = json.loads(capsys.readouterr().out)
        assert main(["support-set", "--input", str(graph)]) == 0
        assert json.loads(capsys.readouterr().out) == {"h1": 17 * 18 - 35 + 1, "is_support_set": False}
    assert bounded == {"in_bounded_part": in_K(A, covector_of_point(A, residuation(y, A)))}


def test_support_set_with_more_rows_than_n_plus_one_answers_in_bounded_time(tmp_path, capsys):
    """A support set has |J_i| = n − d + 1 >= 1 edges on every row, so a
    graph with d > n + 1 fails on its row degrees, asked before the surplus
    Hall condition, which pads every row with d − n new columns and solves
    d assignment problems: {d: 5000, n: 0} ran past 60 s that way, and
    {d: 100000, n: 0} ran out of memory."""
    with Budget(2):
        for d in (5000, 100000):
            graph = tmp_path / f"graph{d}.json"
            graph.write_text(json.dumps({"d": d, "n": 0, "edges": []}))
            assert main(["support-set", "--input", str(graph)]) == 0
            assert json.loads(capsys.readouterr().out) == {"h1": 0, "is_support_set": False}


def test_support_set_on_huge_edgeless_graphs_answers_in_bounded_time(tmp_path, capsys):
    """h1 counts E − V + C over the edges' endpoints alone, so its cost
    follows E, not d + n: counting over all d + n vertices would build a
    10^9-entry union-find for {d: 0, n: 10^9}."""
    with Budget(2):
        for d, n, answer in ((0, 10 ** 9, True), (10 ** 8, 0, False)):
            graph = tmp_path / f"graph{d}x{n}.json"
            graph.write_text(json.dumps({"d": d, "n": n, "edges": []}))
            assert main(["support-set", "--input", str(graph)]) == 0
            assert json.loads(capsys.readouterr().out) == {"h1": 0, "is_support_set": answer}


def test_support_set_on_a_square_permutation_graph_answers_in_bounded_time(tmp_path, capsys):
    """A square graph has n − d = 0, where the surplus Hall condition is
    Hall's own: a matching covers every row, one assignment problem.  On a
    600×600 permutation graph, asking it once per row took 24 s."""
    rng = random.Random(8)
    perm = list(range(1, 601))
    rng.shuffle(perm)
    graph = tmp_path / "graph.json"
    graph.write_text(json.dumps({"d": 600, "n": 600, "edges": [[i, j] for i, j in enumerate(perm, 1)]}))
    with Budget(2):
        assert main(["support-set", "--input", str(graph)]) == 0
    assert json.loads(capsys.readouterr().out) == {"h1": 0, "is_support_set": True}


def test_covectors_and_facets_refuse_a_dense_12x13_in_bounded_time(tmp_path, capsys):
    """A dense 12×13 (``random.Random(7)``, entries −50..50) has more than
    5000 cells of TC(A), and each column has 4095 row sets; the search
    tries only the rows that can attain each column's minimum, so CLI
    ``covectors`` and ``facets`` refuse it with BUDGET_EXCEEDED in
    seconds, where trying every row set at every node took about 30 s."""
    rng = random.Random(7)
    A = TropMatrix([[rng.randint(-50, 50) for _ in range(13)] for _ in range(12)])
    path = tmp_path / "in.json"
    path.write_text(json.dumps(matrix_to_json(A)))
    with Budget(5):
        for command in ("covectors", "facets"):
            assert main([command, "--input", str(path)]) == 1
            assert json.loads(capsys.readouterr().out) == {"error": "BUDGET_EXCEEDED"}


def test_covectors_of_twelve_identical_rows_in_bounded_time(monkeypatch):
    """Twelve identical rows of width 3 (``random.Random(1)``, entries
    −50..50) tie in every column: TC(A) is the 2^12 − 1 faces of the first
    column.  The search tries unions of tie classes, so each cell costs one
    copy of the matrix per column, 12285 in all; trying every subset of the
    attaining rows made 1058785 copies and took 4–6 s."""
    copies = 0
    real = DifferenceBounds.copy

    def counting(self):
        nonlocal copies
        copies += 1
        return real(self)

    monkeypatch.setattr(DifferenceBounds, "copy", counting)
    rng = random.Random(1)
    row = [rng.randint(-50, 50) for _ in range(3)]
    with Budget(3):
        cells = enumerate_covectors(TropMatrix([row] * 12))
    assert len(cells) == 4095 and copies == 12285
    assert all(dim == 12 - len(tau[0]) for tau, dim in cells.items())


def test_gen_support_set_answers_in_bounded_time(capsys):
    """``gen --mode support-set`` draws one support set by rejection
    instead of listing them all: (4, 6) took 15 s as a list, and (4, 7) was
    refused.  A d = n shape keeps d!/d^d of its draws and ends at the draw
    cap; a shape whose single Hall check is too large, and a dense request
    of 10^9 entries, are refused before any draw."""
    with Budget(2):
        for d, n in ((4, 6), (4, 7), (8, 16), (10, 20)):
            assert main(["gen", str(d), str(n), "--mode", "support-set", "--seed", "1"]) == 0
            A = TropMatrix(json.loads(capsys.readouterr().out)["entries"])
            assert is_support_set(*support_graph(A)), (d, n)
    with Budget(5):
        for argv in (["gen", "30", "30", "--mode", "support-set"], ["gen", "200", "400", "--mode", "support-set"],
                     ["gen", "1", "1000000000"]):
            code = main(argv)
            out = json.loads(capsys.readouterr().out)
            assert code == 0 or (code == 1 and out == {"error": "BUDGET_EXCEEDED"}), argv


def test_coherent_answers_a_dense_4x8_in_bounded_time(tmp_path, capsys):
    """``coherent`` on the multifield of a 4×8 with entries 0–9
    (``random.Random(3)``: 23 support edges, 442 supported matchings) is
    one transposed LP of 24 rows and 23 pivots; the reference's primal
    simplex, on a 374 × 762 tableau with 2380 pivots, took 44–51 s."""
    rng = random.Random(3)
    mf = matching_multifield(TropMatrix([[rng.randint(0, 9) for _ in range(8)] for _ in range(4)]))
    path = tmp_path / "multifield.json"
    path.write_text(json.dumps(multifield_to_json(mf)))
    with Budget(5):
        code = main(["coherent", "--input", str(path)])
    out = json.loads(capsys.readouterr().out)
    assert code == 0 and out["coherent"] is True
    assert matching_multifield(TropMatrix(out["witness"]["entries"])) == mf
