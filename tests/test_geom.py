import itertools
import random
from fractions import Fraction

from tropstiefel.geom import (
    INFEASIBLE,
    DifferenceBounds,
    LinearConstraintSystem,
    Polyhedron,
    eliminate_vars,
    lp_solve,
    matrix_rank,
    solve_affine,
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
    sys = LinearConstraintSystem(1, gts=[((1,), 0), ((-1,), -1)])
    x = strict_feasible(sys)
    assert x is not INFEASIBLE and 0 < x[0] < 1


def test_strict_feasible_empty():
    sys = LinearConstraintSystem(1, gts=[((1,), 0), ((-1,), 0)])
    assert strict_feasible(sys) is INFEASIBLE


def test_strict_feasible_non_difference():
    # x + y > 1, x + y < 1 is infeasible; x + y > 1 with x + 2y < 0 is fine.
    sys = LinearConstraintSystem(2, gts=[((1, 1), 1), ((-1, -1), -1)])
    assert strict_feasible(sys) is INFEASIBLE
    sys = LinearConstraintSystem(2, gts=[((1, 1), 1), ((-1, -2), 0)])
    x = strict_feasible(sys)
    assert x[0] + x[1] > 1 and x[0] + 2 * x[1] < 0


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
    """Completeness at desk scale against a rational grid search."""
    rng = random.Random(2024)
    grid = [F(num, 4) for num in range(-8, 9)]
    for _ in range(60):
        ges, gts = [], []
        for _k in range(4):
            a = tuple(rng.randint(-2, 2) for _ in range(3))
            b = rng.randint(-2, 2)
            (gts if rng.random() < 0.5 else ges).append((a, b))
        sys = LinearConstraintSystem(3, ges=ges, gts=gts)
        found = strict_feasible(sys)
        brute = any(
            sys.satisfied_by(p) for p in itertools.product(grid, repeat=3)
        )
        if found is not INFEASIBLE:
            assert sys.satisfied_by(found)
        if brute:
            # grid witness implies the solver must also find one
            assert found is not INFEASIBLE


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


def test_eliminate_vars_projection():
    # Project the square 0 <= x,y <= 1 onto y after rotating: z = x + y
    eqs = [((1, 1, -1), 0)]  # z = x + y
    ineqs = [((1, 0, 0), 0), ((-1, 0, 0), -1), ((0, 1, 0), 0), ((0, -1, 0), -1)]
    out = eliminate_vars(3, eqs, ineqs, drop=[0, 1])
    assert out is not None
    P = Polyhedron(1, *out)
    assert P.contains((F(0),)) and P.contains((F(2),)) and P.contains((F(1),))
    assert not P.contains((F(-1, 2),)) and not P.contains((F(5, 2),))
