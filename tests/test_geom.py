import itertools
import random
from fractions import Fraction

import polyhedra
from polyhedra import Polyhedron, matrix_rank, satisfied_by, solve_affine
from reference import minimal_form, polytrope_contains, restrict
from tropstiefel.geom import (
    DifferenceBounds,
    argmin_witness,
    lp_solve,
    strict_feasible,
)

F = Fraction


def test_lp_basic():
    # maximize x + y s.t. x <= 2, y <= 3, x,y >= 0
    status, pt, val = lp_solve(
        2,
        eqs=[],
        ges=[((-1, 0), -2), ((0, -1), -3), ((1, 0), 0), ((0, 1), 0)],
        objective=(1, 1),
    )
    assert status == "optimal" and val == 5 and pt == (F(2), F(3))


def test_lp_infeasible_and_unbounded():
    status, _, _ = lp_solve(1, eqs=[], ges=[((1,), 1), ((-1,), 0)], objective=(1,))
    assert status == "infeasible"
    status, _, _ = lp_solve(1, eqs=[], ges=[((1,), 0)], objective=(1,))
    assert status == "unbounded"
    # no rows at all: the same answers, and no point on an unbounded objective
    assert lp_solve(1, [], [], (1,)) == ("unbounded", None, None)
    assert lp_solve(2, [], [], (0, -1)) == ("unbounded", None, None)
    assert lp_solve(2, [], [], (0, 0)) == ("optimal", (0, 0), 0)


def test_lp_equalities_and_rationals():
    # maximize x - y on the segment x + y = 1, 0 <= x <= 1/3
    status, pt, val = lp_solve(
        2,
        eqs=[((1, 1), 1)],
        ges=[((1, 0), 0), ((-1, 0), F(-1, 3))],
        objective=(1, -1),
    )
    assert status == "optimal" and pt == (F(1, 3), F(2, 3)) and val == F(-1, 3)


def test_strict_feasible_interval():
    x = strict_feasible(1, gts=[((1,), 0), ((-1,), -1)])
    assert x is not None and 0 < x[0] < 1


def test_strict_feasible_empty():
    assert strict_feasible(1, gts=[((1,), 0), ((-1,), 0)]) is None


def test_strict_feasible_non_difference():
    # x + y > 1, x + y < 1 is infeasible; x + y > 1 with x + 2y < 0 is fine.
    assert strict_feasible(2, gts=[((1, 1), 1), ((-1, -1), -1)]) is None
    x = strict_feasible(2, gts=[((1, 1), 1), ((-1, -2), 0)])
    assert x[0] + x[1] > 1 and x[0] + 2 * x[1] < 0


def test_argmin_witness_collinear():
    # of three collinear points, the middle one alone is never the argmin of
    # a linear function: its rows w1 + w2 < 0 < w1 + w2 are not differences
    line = [((0, 0), 0), ((1, 1), 0), ((2, 2), 0)]
    assert argmin_witness(2, [([line[1]], [line[0], line[2]])]) is None
    # with the last point lifted to height 1, the first two tie below it
    lifted = line[:2] + [((2, 2), 1)]
    w = argmin_witness(2, [(lifted[:2], lifted[2:])])
    value = lambda v, h: h + sum(c * x for c, x in zip(v, w))
    assert value(*lifted[0]) == value(*lifted[1]) < value(*lifted[2])


def test_difference_bounds_strict_chain():
    # 0 = x_0 < x_1 < ... < x_{V-1} < 1: a cycle of V strict edges summing to 0
    for size in range(2, 8):
        dbm = DifferenceBounds(size)
        for k in range(size - 1):
            assert dbm.add(k + 1, k, 0, strict=True)  # x_k - x_{k+1} < 0
        assert dbm.add(0, size - 1, 1, strict=True)  # x_{V-1} - x_0 < 1
        x = dbm.point()
        assert x[0] == 0 and all(x[k] < x[k + 1] for k in range(size - 1)) and x[-1] < 1
        # x_{V-1} >= 1 contradicts the chain, and a refused bound changes nothing
        assert not dbm.add(size - 1, 0, -1)
        assert dbm.point() == x
        # x_{V-1} <= 0 contradicts it through the strict chain alone
        assert not dbm.add(0, size - 1, 0)


def test_strict_feasible_brute_force_agreement():
    """Completeness at desk scale against a rational grid search, for the
    simplex and for the test reference's difference route in front of it."""
    rng = random.Random(2024)
    grid = [F(num, 4) for num in range(-8, 9)]
    for _ in range(60):
        ges, gts = [], []
        for _k in range(4):
            a = tuple(rng.randint(-2, 2) for _ in range(3))
            b = rng.randint(-2, 2)
            (gts if rng.random() < 0.5 else ges).append((a, b))
        brute = any(
            satisfied_by(p, ges=ges, gts=gts) for p in itertools.product(grid, repeat=3)
        )
        for solve in (strict_feasible, polyhedra.strict_feasible):
            found = solve(3, ges=ges, gts=gts)
            if found is not None:
                assert satisfied_by(found, ges=ges, gts=gts)
            if brute:
                # grid witness implies the solver must also find one
                assert found is not None


def test_rank_and_solve():
    assert matrix_rank([(1, 2), (2, 4)]) == 1
    assert matrix_rank([(1, 0), (0, 1)]) == 2
    point, null = solve_affine([((1, 1), 3)], 2)
    assert point[0] + point[1] == 3 and len(null) == 1
    assert solve_affine([((1, 0), 1), ((1, 0), 2)], 2) is None


def test_affine_dimension():
    # {x >= 0, x <= 0} in dim 2 is the y-axis: dimension 1
    P = Polyhedron(2, ineqs=[((1, 0), 0), ((-1, 0), 0)])
    assert P.affine_dimension() == 1
    empty = Polyhedron(1, ineqs=[((1,), 1), ((-1,), 0)])
    assert empty.affine_dimension() == -1
    full = Polyhedron(3)
    assert full.affine_dimension() == 3


def test_relative_interior_point():
    P = Polyhedron(2, ineqs=[((1, 0), 0), ((-1, 0), 0), ((0, 1), 0)])
    x = P.relative_interior_point()
    assert x[0] == 0 and x[1] > 0


def test_vertices_square():
    sq = Polyhedron(2, ineqs=[((1, 0), 0), ((-1, 0), -1), ((0, 1), 0), ((0, -1), -1)])
    assert sq.vertices() == [
        (F(0), F(0)),
        (F(0), F(1)),
        (F(1), F(0)),
        (F(1), F(1)),
    ]


def test_minimal_form_of_a_restriction():
    # x_3 = x_1 + 2 ties nodes 1 and 3; node 6 is projected out, and the
    # origin, node 0, is bounded against no node
    dbm = DifferenceBounds(7, unit=2)
    for u, v, c in [(1, 3, 2), (3, 1, -2), (6, 1, 3), (1, 6, 1), (6, 2, 1),
                    (2, 4, 0), (4, 6, 2), (2, 5, 1), (5, 3, 0), (4, 5, 3)]:
        assert dbm.add(u, v, c)  # x_v − x_u <= c
    kept = [1, 2, 3, 4, 5]
    eqs, ineqs = minimal_form(restrict(dbm, [0] + kept))
    full = [
        (tuple((k == t) - (k == s) for k in range(5)), Fraction(-dbm.bound[kept[t]][kept[s]], 2 * dbm.scale))
        for s in range(5) for t in range(5)
        if s != t and dbm.bound[kept[t]][kept[s]] is not None
    ]  # x_t − x_s >= −(the bound on x_s − x_t), every pair of the restriction
    P, Q = Polyhedron(5, eqs, ineqs), Polyhedron(5, ineqs=full)
    assert len(eqs) == 1 and len(eqs) + len(ineqs) < len(full)
    grid = [F(v, 2) for v in range(-2, 3)]
    inside = 0
    for z1, z2, z4, z5 in itertools.product(grid, repeat=4):
        for z3 in (z1 + 1, z1 + F(3, 2)):  # on and off the tie x_3 = x_1 + 2 (halved)
            z = (z1, z2, z3, z4, z5)
            assert P.contains(z) == Q.contains(z)
            inside += Q.contains(z)
    assert inside > 0
    # no kept inequality is the sum of two others
    for (a, b), (a1, b1), (a2, b2) in itertools.permutations(ineqs, 3):
        assert tuple(x + y for x, y in zip(a1, a2)) != a or b1 + b2 != b


def test_polytrope_lookups_against_its_rows():
    # z_2 = z_1 + 1, 0 <= z_1 <= 1/2, z_3 >= z_2, constants in halves
    P = DifferenceBounds(4, unit=2)  # node 0 is the origin, fixed at 0
    for u, v, c in [(1, 2, 2), (2, 1, -2), (1, 0, 0), (0, 1, 1), (3, 2, 0)]:
        assert P.add(u, v, c)  # z_v − z_u <= c / 2
    assert P.dim() == 2 == Polyhedron(3, *minimal_form(P)).affine_dimension()
    assert polytrope_contains(P, P.point()[1:]) and Polyhedron(3, *minimal_form(P)).contains(P.point()[1:])
    grid = [F(v, 2) for v in range(-1, 5)]
    for z in itertools.product(grid, repeat=3):
        assert polytrope_contains(P, z) == Polyhedron(3, *minimal_form(P)).contains(z) == (
            0 <= z[0] <= F(1, 2) and z[1] == z[0] + 1 and z[2] >= z[1]
        )
    # tying z_3 to the origin pins one more class
    assert P.add(0, 3, 4) and P.add(3, 0, -4)
    assert P.dim() == 1 == Polyhedron(3, *minimal_form(P)).affine_dimension()
    assert polytrope_contains(P, (0, 1, 2)) and not polytrope_contains(P, (0, 1, F(5, 2)))


def test_admits_is_add_without_the_closure():
    """``admits(u, v, c, s)`` answers as ``add`` on a copy would, on seeded
    random closed matrices of 2–5 nodes with weak and strict bounds, and
    leaves the matrix as it is."""
    rng = random.Random(11)
    seen = set()
    for _ in range(300):
        size = rng.randint(2, 5)
        dbm = DifferenceBounds(size, unit=rng.choice((1, 2, 3)))
        for _ in range(rng.randint(0, 2 * size)):
            u, v = rng.sample(range(size), 2)
            dbm.add(u, v, rng.randint(-4, 4), rng.random() < 0.5)
        before = [row[:] for row in dbm.bound]
        for _ in range(10):
            u, v = rng.randrange(size), rng.randrange(size)
            c, strict = rng.randint(-6, 6), rng.random() < 0.5
            verdict = dbm.admits(u, v, c, strict)
            assert verdict == dbm.copy().add(u, v, c, strict), (dbm.bound, u, v, c, strict)
            seen.add((verdict, strict))
        assert dbm.bound == before
    assert len(seen) == 4
