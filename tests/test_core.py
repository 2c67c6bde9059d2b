import copy
import itertools
import math
import pickle
import random
import sys
from collections import Counter
from fractions import Fraction

import pytest

from reference import proj_eq, proj_normalize, residuation, row_support, shift, vec_mat_mul, vector_support, vector_to_json
from tropstiefel.core import (
    INF,
    DomainError,
    TropMatrix,
    TropVector,
    common_denom,
    matrix_from_json,
    matrix_to_json,
    quotient,
    scalar,
    scalar_str,
    subset_from_key,
    trop_vanishes,
    vector_from_json,
)
from tropstiefel.arrangement import cell_point, enumerate_covectors
from tropstiefel.bipartite import is_coherent, matching_multifield
from tropstiefel.linspace import decompose
from tropstiefel.plucker import PluckerVector, recover_matrix, stiefel_map

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
    # a float is no scalar, so none is printed as "1.5"
    with pytest.raises(TypeError):
        scalar_str(1.5)
    with pytest.raises(TypeError):
        scalar_str(3 / 1)


def test_whole_scalars_are_ints():
    """A finite scalar is an int when whole, else a reduced Fraction with
    denominator > 1, whichever way it is written or formed."""
    for x in (3, "3", "6/2", " -4 ", Fraction(8, 4), "0/5", "-0"):
        assert type(scalar(x)) is int and scalar(x) == Fraction(x)
    for x in ("3/2", Fraction(-2, 6), "4/6"):
        assert type(scalar(x)) is Fraction and scalar(x).denominator > 1
    assert (quotient(6, 3), quotient(-6, 4), quotient(0, 7), quotient(-7, 7)) == (2, Fraction(-3, 2), 0, -1)
    assert [type(quotient(k, 6)) for k in (-12, -3, 6, 7)] == [int, Fraction, int, Fraction]
    # output, hashes, equality and order agree between 3 and Fraction(3)
    assert scalar_str(scalar("6/2")) == scalar_str(Fraction(3)) == "3"
    assert hash(scalar("6/2")) == hash(Fraction(3)) and scalar(3) < Fraction(7, 2) < scalar(4)


def test_whole_strings_read_by_int_as_by_fraction():
    """``scalar`` reads a string by ``int`` first and by ``Fraction`` only
    when ``int`` refuses it.  On each string below, that accepts the same
    strings, with the same value, as ``Fraction`` alone, and an exponent
    form stays refused by both: signs, outer whitespace, ``_`` separators,
    non-ASCII digits, leading zeros, "1/2", "3.", ".5" and strings past the
    int/str digit limit."""
    limit = sys.get_int_max_str_digits()
    cases = [
        "0", "-0", "+7", "-12", " 12 ", "\t-3\n", "\u00a05\u2003", "+ 5", "--5", "+-5",
        "1_000", "-1_0", "1__0", "_1", "1_", "1_000/2", "1/2_0",
        "\u0663", "\u06f1\u06f2", "-\u0967\u0966", "\u0663/\u0664", "\uff11",
        "007", "-007", "00", "0/3", "08/4",
        "1/2", " 3/6 ", "-4/2", "1/0", "1 / 2", "/2", "1/", "1/-2",
        "3.", ".5", "-.5", "3.0", "0.25", "1_0.5", ".", "-",
        "1" * limit, "-" + "1" * limit, "1" * (limit + 1), "1" * (limit + 1) + "/1", "1/" + "1" * (limit + 1),
        "1e3", "1E3", "2.5e-1", "-1e0", "1e", "inf1",
        "", " ", "x", "1 2", "0x10", "0b1", "0o7", "1j", "nan",
    ]
    for text in cases:
        try:
            value = Fraction(text)
        except (ValueError, ZeroDivisionError):
            value = None
        if "e" in text.lower():
            value = None  # an exponent asks Fraction for 10^k, so it is refused
        try:
            got = scalar(text)
        except DomainError as exc:
            assert exc.code == "BAD_SCALAR" and value is None, text[:20]
            continue
        assert value is not None and got == value, text[:20]
        assert type(got) is (int if value.denominator == 1 else Fraction), text[:20]


def test_int_subclasses_are_plain_ints():
    class Count(int):
        pass

    for x in (Count(5), Count(-3), Count(0)):
        assert type(scalar(x)) is int and scalar(x) == x
    with pytest.raises(DomainError):
        scalar(True)


def _check_integer_form(values, denom, ints):
    """denom is the LCM of the finite values' denominators, and each int is
    its value times denom exactly, None exactly at ∞."""
    assert type(denom) is int and denom == math.lcm(*(Fraction(v).denominator for v in values if v is not INF))
    assert len(ints) == len(values)
    for v, c in zip(values, ints):
        assert (c is None) == (v is INF)
        assert c is None or (type(c) is int and c == v * denom)


def test_integer_form_on_construction():
    """``TropMatrix``, ``TropVector`` and ``PluckerVector`` take their
    integer form on construction: 300 seeded inputs with ∞, halves, thirds,
    "4/2" and copied rows, and ``common_denom`` on each matrix and vector."""
    rng = random.Random(2901)
    pool = ["inf", 0, 1, -2, 3, "4/2", Fraction(6, 3), "1/2", "-3/2", "1/3", "-2/3", "5/3", "-5/6"]
    denoms = Counter()
    for _ in range(300):
        d = rng.randint(1, 3)
        n = rng.randint(d, 5)
        whole = rng.random() < 0.2  # no denominator but 1
        draw = lambda start=0: rng.choice(pool[start:7] if whole else pool[start:])
        rows = []
        for _ in range(d):
            rows.append(list(rng.choice(rows)) if rows and rng.random() < 0.3 else [draw() for _ in range(n)])
        A = TropMatrix(rows)
        assert len(A.ints) == d and all(len(row) == n for row in A.ints)
        _check_integer_form([v for row in A.entries for v in row], A.denom, [c for row in A.ints for c in row])
        Y = TropVector([draw() for _ in range(n)])
        _check_integer_form(Y.entries, Y.denom, Y.ints)
        values = {frozenset(J): draw() for J in itertools.combinations(range(1, n + 1), d)}
        values[frozenset(range(1, d + 1))] = draw(1)  # not identically ∞
        p = PluckerVector(n, d, values)
        assert list(p.ints) == list(p.values)
        _check_integer_form(list(p.values.values()), p.denom, list(p.ints.values()))
        m, fa, fy = common_denom(A.denom, Y.denom)
        assert m == math.lcm(A.denom, Y.denom) == A.denom * fa == Y.denom * fy
        denoms.update((A.denom, Y.denom, p.denom))
    assert all(denoms[k] for k in (1, 2, 3, 6)), denoms


def test_infinity_sentinel():
    # ∞ is None in every form: INF names it where a value is parsed or
    # printed, it keeps its identity through copies, and it has no
    # arithmetic, order or negation
    assert INF is None
    assert scalar("inf") is INF and scalar(INF) is INF and scalar(None) is None
    assert scalar_str(INF) == "inf"
    assert TropVector([1, None]) == TropVector([1, "inf"])
    assert copy.deepcopy(INF) is INF and pickle.loads(pickle.dumps(INF)) is INF
    assert copy.deepcopy(TropVector([1, "inf"])).entries[1] is INF
    for op in (lambda: INF + 1, lambda: 1 + INF, lambda: INF < 0, lambda: 0 < INF, lambda: -INF):
        with pytest.raises(TypeError):
            op()


def test_trop_vanishes():
    for values, vanishes in (([], True), ([3], False), ([1, 1], True), ([1, 1, 2], True), ([2, 1, 2], False)):
        assert trop_vanishes(values) == trop_vanishes(iter(values)) == vanishes, values


def test_supports():
    assert STAIR.support() == frozenset(
        [(1, 1), (1, 2), (2, 2), (2, 3), (3, 3), (3, 4)]
    )
    assert row_support(STAIR, 2) == frozenset([2, 3])
    assert STAIR.col_support(3) == frozenset([2, 3])
    assert vector_support(TropVector([INF, 1, INF])) == frozenset([2])


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
    assert vec_mat_mul(shift(x, c), STAIR) == shift(vec_mat_mul(x, STAIR), c)


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


def _canonical(v):
    """The scalar invariant: ∞, an int when whole, else a Fraction with
    denominator > 1 (Fractions are always reduced)."""
    return v is INF or type(v) is int or (type(v) is Fraction and v.denominator > 1)


def test_library_scalars_keep_the_invariant():
    """Every finite scalar the library returns is an int when whole and a
    Fraction with denominator > 1 otherwise: on 300 seeded matrices with ∞,
    halves, thirds, whole values written as fractions and copied rows, the
    entries of TropMatrix and TropVector, π(A), the x and slack tuples of
    ``decompose``, the cell points of TC(A), ``recover_matrix`` and the
    witness of ``is_coherent``."""
    rng = random.Random(26)
    pool = ["inf", 0, 1, -2, 3, "1/2", "-3/2", "7/2", "1/3", "-2/3", "5/3", "6/3", Fraction(4, 2)]
    values, answered = [], Counter()

    def route(name, call, read):
        try:
            out = call()
        except DomainError:
            return None
        if out is not None:
            values.extend((name, v) for v in read(out))
            answered[name] += 1
        return out

    for _ in range(300):
        d = rng.randint(1, 3)
        n = rng.randint(d, 5)
        rows = []
        for _ in range(d):
            rows.append(list(rng.choice(rows)) if rows and rng.random() < 0.3 else [rng.choice(pool) for _ in range(n)])
        A = TropMatrix(rows)
        values.extend(("TropMatrix", v) for row in A.entries for v in row)
        x = [rng.choice([0, 1, Fraction(1, 2), Fraction(-1, 3), Fraction(9, 3)]) for _ in range(d)]
        image = [min((x[i] + A.entries[i][j] for i in range(d) if A.entries[i][j] is not INF), default=INF) for j in range(n)]
        for y in (image, [rng.choice(pool[1:]) for _ in range(n)]):
            Y = TropVector(y)
            values.extend(("TropVector", v) for v in Y.entries)
            route("decompose", lambda: decompose(A, Y), lambda cert: cert[1] + cert[3])
        route("stiefel_map", lambda: stiefel_map(A), lambda p: p.values.values())
        route("enumerate_covectors", lambda: enumerate_covectors(A), lambda cells: [v for tau in cells for v in cell_point(A, tau)])
        # A kept on the staircase support set, where π is finite unless A has ∞ there
        G = (d, n, [(i, j) for i in range(1, d + 1) for j in range(i, i + n - d + 1)])
        stair = TropMatrix([[v if (i + 1, j + 1) in G[2] else INF for j, v in enumerate(row)] for i, row in enumerate(A.entries)])
        route("recover_matrix", lambda: recover_matrix(stiefel_map(stair), *G), lambda B: [v for row in B.entries for v in row])
        if d * n <= 8:
            route("is_coherent", lambda: is_coherent(matching_multifield(A)), lambda B: [v for row in B.entries for v in row])
    bad = [(name, v) for name, v in values if not _canonical(v)]
    assert not bad, bad[:10]
    assert {type(v) for _, v in values} == {int, Fraction, type(INF)}
    assert min(answered.values()) >= 50 and len(answered) == 5, answered
