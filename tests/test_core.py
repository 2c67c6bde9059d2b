import sys
from fractions import Fraction

import pytest

from reference import proj_normalize, residuation, vec_mat_mul, vector_to_json
from tropstiefel.core import (
    INF,
    DomainError,
    TropMatrix,
    TropVector,
    matrix_from_json,
    matrix_to_json,
    proj_eq,
    scalar,
    scalar_str,
    subset_from_key,
    vector_from_json,
)

# Rows (0,0,inf,inf), (inf,0,0,inf), (inf,inf,0,0): the running 3x4 example.
STAIR = TropMatrix([[0, 0, "inf", "inf"], ["inf", 0, 0, "inf"], ["inf", "inf", 0, 0]])


def test_scalar_parsing():
    assert scalar("3/4") == Fraction(3, 4)
    assert scalar(-2) == Fraction(-2)
    assert scalar("inf") is INF
    assert scalar_str(Fraction(-1, 3)) == "-1/3"
    assert scalar_str(INF) == "inf"
    with pytest.raises(DomainError):
        scalar(0.5)
    # a reduced part past Python's int/str digit limit is BUDGET_EXCEEDED, not a ValueError
    with pytest.raises(DomainError) as exc:
        scalar_str(Fraction(1, 10 ** sys.get_int_max_str_digits()))
    assert exc.value.code == "BUDGET_EXCEEDED"
    assert str(sys.get_int_max_str_digits()) in str(exc.value)


def test_infinity_semantics():
    assert INF + Fraction(5) is INF
    assert Fraction(5) + INF is INF
    assert min(Fraction(2), INF) == Fraction(2)
    assert INF > Fraction(10 ** 9)
    assert not (INF < INF)
    assert INF <= INF and not (INF <= Fraction(0)) and INF >= Fraction(3)
    with pytest.raises(DomainError) as exc:
        -INF
    assert exc.value.code == "NEGATE_INF"


def test_supports():
    assert STAIR.support() == frozenset(
        [(1, 1), (1, 2), (2, 2), (2, 3), (3, 3), (3, 4)]
    )
    assert STAIR.row_support(2) == frozenset([2, 3])
    assert STAIR.col_support(3) == frozenset([2, 3])
    assert TropVector([INF, 1, INF]).support() == frozenset([2])


def test_vec_mat_mul_examples():
    assert vec_mat_mul(TropVector([0, 0, 0]), STAIR) == TropVector([0, 0, 0, 0])
    assert vec_mat_mul(TropVector([1, 0, 0]), STAIR) == TropVector([1, 0, 0, 0])
    A = TropMatrix([[0, 0, 0, 0], [0, 0, 1, 1]])
    # For 0 <= x1 - x2 <= 1 the product is (x2, x2, x1, x1).
    for x1, x2 in [(Fraction(1, 2), 0), (1, 0), (0, 0), (Fraction(7, 3), Fraction(2))]:
        x = TropVector([x1, x2])
        assert vec_mat_mul(x, A) == TropVector([x2, x2, x1, x1])


def test_vec_mat_mul_empty_column_gives_inf():
    A = TropMatrix([[0, "inf"], [0, "inf"]])
    assert vec_mat_mul(TropVector([0, 0]), A) == TropVector([0, INF])


def test_residuation_examples():
    assert residuation(TropVector([0, 0, 0, 0]), STAIR) == TropVector([0, 0, 0])
    assert residuation(TropVector([1, 0, 0, 0]), STAIR) == TropVector([1, 0, 0])
    y = TropVector([0, 1, 1, 0])
    x = residuation(y, STAIR)
    assert x == TropVector([1, 1, 1])
    # The roundtrip failing certifies y is not in the image of the map.
    assert vec_mat_mul(x, STAIR) == TropVector([1, 1, 1, 1])
    assert vec_mat_mul(x, STAIR) != y


def test_residuation_dominates():
    import random

    rng = random.Random(7)
    for _ in range(50):
        A = TropMatrix(
            [[rng.randint(-3, 3) for _ in range(4)] for _ in range(3)]
        )
        y = TropVector([rng.randint(-3, 3) for _ in range(4)])
        z = vec_mat_mul(residuation(y, A), A)
        assert all(a >= b for a, b in zip(z.entries, y.entries))
        # idempotence on the image
        w = vec_mat_mul(residuation(z, A), A)
        assert w == z


def test_projective_equivariance():
    x = TropVector([1, 0, 2])
    c = Fraction(5, 2)
    assert vec_mat_mul(x.shift(c), STAIR) == vec_mat_mul(x, STAIR).shift(c)


def test_proj_eq_and_normalize():
    assert proj_eq(TropVector([1, 2, INF]), TropVector([0, 1, INF]))
    assert not proj_eq(TropVector([1, 2, INF]), TropVector([0, 1, 0]))
    assert not proj_eq(TropVector([1, 2, 3]), TropVector([0, 1, 3]))
    assert proj_normalize(TropVector([INF, 3, 4])) == TropVector([INF, 0, 1])


def test_errors():
    with pytest.raises(DomainError):
        vec_mat_mul(TropVector([0, 0]), STAIR)
    with pytest.raises(DomainError):
        residuation(TropVector([0, 0, 0, 0]), TropMatrix([["inf", "inf", "inf", "inf"]]))


def test_json_roundtrip():
    obj = matrix_to_json(STAIR)
    assert obj["d"] == 3 and obj["n"] == 4
    assert matrix_from_json(obj) == STAIR
    y = TropVector([Fraction(1, 2), INF, -3])
    assert vector_from_json(vector_to_json(y)) == y


def test_subset_keys():
    assert subset_from_key("3,1", 2, 3, "X") == frozenset({1, 3})
    assert subset_from_key("01", 1, 2, "X") == frozenset({1})
    assert subset_from_key("", 0, 2, "X") == frozenset()
    # not d distinct indices of [n] in ASCII digits joined by commas
    for key, d in [("0_2", 1), (" 1 ", 1), ("+2", 1), ("3", 1), ("0", 1), ("1,1", 2), ("1", 2),
                   ("1,2", 1), ("", 1), ("1,", 1), ("1,,2", 2), ("\u0661", 1), ("\u00b9", 1), ("1", 0),
                   ("9" * 5000, 1)]:
        with pytest.raises(DomainError) as exc:
            subset_from_key(key, d, 2, "X")
        assert exc.value.code == "X"
