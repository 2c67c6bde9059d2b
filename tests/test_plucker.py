import itertools
import math
import random
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import assume, given, settings, strategies as st

from reference import (
    J_of,
    cocircuit,
    dual,
    enumerate_support_sets,
    matrix_row,
    plucker_proj_eq,
    plucker_vector,
    proj_eq,
    rank_zero,
    row_vector,
    stable_intersection,
    stable_union,
    support_graph,
    trop_sum,
    underlying_matroid,
    uniform_matroid,
    values,
)
from tropstiefel.core import INF, DomainError, TropMatrix, TropVector, trop_vanishes
from tropstiefel.plucker import (
    PLUCKER_BUDGET,
    check_plucker,
    contains,
    plucker_from_json,
    plucker_to_json,
    recover_matrix,
    stiefel_map,
)

STAIR = TropMatrix([[0, 0, "inf", "inf"], ["inf", 0, 0, "inf"], ["inf", "inf", 0, 0]])
TWO_ROW = TropMatrix([[0, 0, 0, 0], [0, 0, 1, 1]])
APRIME = TropMatrix([[0, "inf", 0, 0], ["inf", 0, 1, 1]])


def zero_plucker(d, n):
    return plucker_vector(
        n, d, {frozenset(J): 0 for J in itertools.combinations(range(1, n + 1), d)}
    )


def random_matrix(rng, d, n, inf_prob=0.0):
    return TropMatrix(
        [
            [INF if rng.random() < inf_prob else rng.randint(-4, 4) for _ in range(n)]
            for _ in range(d)
        ]
    )


def test_stiefel_map_examples():
    p = stiefel_map(STAIR)
    assert all(v == 0 for v in values(p).values())
    q = stiefel_map(TWO_ROW)
    qv = values(q)
    assert qv[frozenset({3, 4})] == 1
    assert all(qv[frozenset(J)] == 0 for J in itertools.combinations(range(1, 5), 2) if set(J) != {3, 4})
    r = values(stiefel_map(APRIME))
    expected = {(1, 2): 0, (1, 3): 1, (1, 4): 1, (2, 3): 0, (2, 4): 0, (3, 4): 1}
    for J, v in expected.items():
        assert r[frozenset(J)] == v


def test_stiefel_map_requires_matching():
    with pytest.raises(DomainError):
        stiefel_map(TropMatrix([[0, "inf"], [0, "inf"]]))


def test_stiefel_map_hands_over_the_reduced_integer_form():
    """``stiefel_map`` hands p the engine's ints, reduced, without a
    check.  On 2000 seeded matrices, d 1-4 and n <= 7, ∞ at 0, 10 or 25%,
    entries k or k/2, p equals ``plucker_from_json(plucker_to_json(p))``,
    the vector the one outside check reads from p's printed values: the
    same values in ``subsets`` order, the same ``denom`` and ``ints``, each
    value an int or a Fraction with denominator > 1.  A third of the
    matrices are whole but for one large half entry, which an optimal
    matching avoids where it can: p is then often whole, with denom 1
    rather than A's 2."""
    rng = random.Random(5401)
    checked = whole_of_half = 0
    while checked < 2000:
        d = rng.randint(1, 4)
        n = rng.randint(d, 7)
        p_inf = rng.choice([0, 0.1, 0.25])
        one_half = rng.random() < 1 / 3
        rows = [
            [INF if rng.random() < p_inf else Fraction(rng.randint(-8, 8), 1 if one_half else rng.choice([1, 2])) for _ in range(n)]
            for _ in range(d)
        ]
        if one_half:
            rows[rng.randrange(d)][rng.randrange(n)] = Fraction(rng.randint(40, 60) + 1, 2)
        A = TropMatrix(rows)
        try:
            p = stiefel_map(A)
        except DomainError as exc:
            assert exc.code == "NO_MATCHING_IN_SUPPORT"
            continue
        q = plucker_from_json(plucker_to_json(p))
        assert list(values(p).items()) == list(values(q).items()), rows
        assert (p.n, p.d, p.denom, p.ints, p.circuits) == (q.n, q.d, q.denom, q.ints, None), rows
        assert all(v is None or type(v) is int or (type(v) is Fraction and v.denominator > 1) for v in values(p).values())
        checked += 1
        whole_of_half += A.denom == 2 and p.denom == 1
    assert whole_of_half >= 200, whole_of_half


def test_check_plucker():
    assert check_plucker(zero_plucker(2, 4))
    bad = plucker_vector(
        4,
        2,
        {
            frozenset({1, 2}): -1,
            frozenset({3, 4}): -1,
            frozenset({1, 3}): 0,
            frozenset({1, 4}): 0,
            frozenset({2, 3}): 0,
            frozenset({2, 4}): 0,
        },
    )
    assert not check_plucker(bad)
    # rank 3 on [6] with support {123, 456}: every three-term relation
    # vanishes, but the support is not the basis set of a matroid
    split = plucker_vector(6, 3, {
        frozenset(J): 0 if set(J) in ({1, 2, 3}, {4, 5, 6}) else INF
        for J in itertools.combinations(range(1, 7), 3)
    })
    assert not check_plucker(split)


def test_check_plucker_budget(monkeypatch):
    # a dense 6x12 Stiefel image (C(12, 5)·C(12, 7)·7 terms) fits the budget,
    # and rank 8 on [16] does not: refused before any circuit is listed
    assert math.comb(12, 5) * math.comb(12, 7) * 7 <= PLUCKER_BUDGET
    # rank 2 on [4]: 4 cocircuits against 4 circuits of 3 terms
    monkeypatch.setattr("tropstiefel.plucker.PLUCKER_BUDGET", 48)
    assert check_plucker(zero_plucker(2, 4))

    def no_circuits(p):
        raise AssertionError("circuits listed past the budget")

    monkeypatch.setattr("tropstiefel.plucker._circuits", no_circuits)
    monkeypatch.setattr("tropstiefel.plucker.PLUCKER_BUDGET", 47)
    with pytest.raises(DomainError):
        check_plucker(zero_plucker(2, 4))
    monkeypatch.undo()
    refused = zero_plucker(8, 16)
    with pytest.raises(DomainError) as exc:
        check_plucker(refused)
    terms = math.comb(16, 7) * math.comb(16, 9) * 9
    assert exc.value.code == "BUDGET_EXCEEDED" and str(terms) in str(exc.value) and str(PLUCKER_BUDGET) in str(exc.value)
    assert refused.circuits is None  # a refused p keeps no list


def test_contains_budget(monkeypatch):
    # the 3x5 membership inputs take C(5, 4)·4 = 20 circuit terms and a
    # 6x12 member query C(12, 7)·7 = 5544; rank 2 on [4] takes C(4, 3)·3 = 12
    assert math.comb(5, 4) * 4 == 20 and math.comb(12, 7) * 7 == 5544 <= PLUCKER_BUDGET
    y = TropVector([0, 0, 0, 0])
    monkeypatch.setattr("tropstiefel.plucker.PLUCKER_BUDGET", 12)
    assert contains(zero_plucker(2, 4), y)

    def no_circuits(p):
        raise AssertionError("circuits listed past the budget")

    monkeypatch.setattr("tropstiefel.plucker._circuits", no_circuits)
    monkeypatch.setattr("tropstiefel.plucker.PLUCKER_BUDGET", 11)
    with pytest.raises(DomainError) as exc:
        contains(zero_plucker(2, 4), y)
    assert exc.value.code == "BUDGET_EXCEEDED" and str(exc.value) == "rank 2 on [4] gives 12 circuit terms, budget 11"
    monkeypatch.undo()
    monkeypatch.setattr("tropstiefel.plucker.PLUCKER_BUDGET", 11)
    refused = zero_plucker(2, 4)
    with pytest.raises(DomainError):
        contains(refused, y)
    assert refused.circuits is None  # a refused p keeps no list


def test_kept_circuits_leave_check_plucker_unchanged():
    """``check_plucker`` answers the same on a fresh p, after membership
    queries have listed p's circuits (at a scaled denominator too), and on
    a fresh copy of p, on Plücker and non-Plücker vectors alike."""
    rng = random.Random(3118)
    answers = set()
    for _ in range(40):
        d = rng.randint(2, 3)
        n = rng.randint(d + 1, 5)
        if rng.random() < 0.5:
            p = stiefel_map(random_matrix(rng, d, n, inf_prob=0.2))
        else:
            vals = [rng.choice([INF, 0, 1, Fraction(1, 2), Fraction(-2, 3)]) for _ in range(math.comb(n, d))]
            if all(v is INF for v in vals):
                continue
            p = plucker_vector(n, d, dict(zip(map(frozenset, itertools.combinations(range(1, n + 1), d)), vals)))
        before = check_plucker(p)
        assert p.circuits is not None
        for q in (1, 3, 4):
            contains(p, TropVector([Fraction(rng.randint(-6, 6), q) for _ in range(n)]))
        assert check_plucker(p) == before == check_plucker(plucker_vector(p.n, p.d, values(p)))
        answers.add(before)
    assert answers == {True, False}


def all_pairs_plucker(p):
    """The reference route: for every (d−1)-set S and (d+1)-set T the
    minimum of p_{S∪i} + p_{T−i} over i ∈ T∖S is ∞ or attained twice, on
    p's ints with the ∞ terms left out."""
    ground = range(1, p.n + 1)
    for S in itertools.combinations(ground, p.d - 1):
        Sset = frozenset(S)
        for T in itertools.combinations(ground, p.d + 1):
            Tset = frozenset(T)
            terms = [(p.ints[Sset | {i}], p.ints[Tset - {i}]) for i in Tset - Sset]
            if not trop_vanishes(a + b for a, b in terms if a is not None and b is not None):
                return False
    return True


def least_coordinate_form(p):
    """The reference projective form: subtract the value at the
    lexicographically least finite coordinate."""
    pv = values(p)
    base = pv[frozenset(min(sorted(J) for J, v in pv.items() if v is not INF))]
    return {J: v if v is INF else v - base for J, v in pv.items()}


VALUES = st.sampled_from([INF, INF] + [Fraction(k, 2) for k in range(-6, 7)])


@st.composite
def perturbed_images(draw):
    """π(A) for A with 2 <= d <= 4 (rank 1 has no relation that can fail),
    n <= 7 and entries in halves and ∞, with 0–2 coordinates replaced by a
    half or ∞."""
    d = draw(st.integers(2, 4))
    n = draw(st.integers(d, 7))
    A = TropMatrix(draw(st.lists(st.lists(VALUES, min_size=n, max_size=n), min_size=d, max_size=d)))
    try:
        coords = values(stiefel_map(A))
    except DomainError:
        assume(False)
    for J in draw(st.lists(st.sampled_from(sorted(coords, key=sorted)), max_size=2)):
        coords[J] = draw(VALUES)
    assume(any(v is not INF for v in coords.values()))
    return plucker_vector(n, d, coords)


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(perturbed_images())
def test_check_plucker_against_all_pairs(p):
    assert check_plucker(p) == all_pairs_plucker(p)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(perturbed_images(), st.sampled_from([Fraction(k, 2) for k in range(-4, 5)]), st.data())
def test_proj_eq_against_least_coordinate(p, c, data):
    """p against p + c with at most two coordinates replaced."""
    coords = {J: v if v is INF else v + c for J, v in values(p).items()}
    for J in data.draw(st.lists(st.sampled_from(sorted(coords, key=sorted)), max_size=2)):
        coords[J] = data.draw(VALUES)
    assume(any(v is not INF for v in coords.values()))
    q = plucker_vector(p.n, p.d, coords)
    expected = least_coordinate_form(p) == least_coordinate_form(q)
    assert plucker_proj_eq(p, q) == plucker_proj_eq(q, p) == expected


def test_proj_eq_and_check_plucker_edge_cases():
    assert check_plucker(rank_zero(3)) and plucker_proj_eq(rank_zero(3), rank_zero(3))
    assert not plucker_proj_eq(rank_zero(3), rank_zero(4))
    assert not plucker_proj_eq(zero_plucker(1, 3), zero_plucker(2, 3))
    # supports of one size in different places
    p = plucker_vector(3, 2, {frozenset({1, 2}): 0, frozenset({1, 3}): 0, frozenset({2, 3}): INF})
    q = plucker_vector(3, 2, {frozenset({1, 2}): 0, frozenset({1, 3}): INF, frozenset({2, 3}): 0})
    assert not plucker_proj_eq(p, q) and not plucker_proj_eq(q, p)


def test_stiefel_image_in_grassmannian():
    rng = random.Random(5)
    for _ in range(60):
        d = rng.randint(1, 3)
        n = rng.randint(d, 6)
        A = random_matrix(rng, d, n, inf_prob=0.2)
        try:
            p = stiefel_map(A)
        except DomainError:
            continue
        assert check_plucker(p)


def test_dual():
    assert values(dual(zero_plucker(2, 4))) == values(zero_plucker(2, 4))
    p = stiefel_map(APRIME)
    ps = dual(p)
    assert values(ps)[frozenset({3, 4})] == values(p)[frozenset({1, 2})]
    assert values(ps)[frozenset({2, 4})] == values(p)[frozenset({1, 3})]
    assert values(dual(ps)) == values(p)


def test_stable_intersection():
    r = stable_intersection(zero_plucker(2, 3), zero_plucker(2, 3))
    assert r.d == 1 and all(v == 0 for v in values(r).values())
    rng = random.Random(17)
    for _ in range(40):
        n = rng.randint(2, 5)
        d = rng.randint(1, n)
        e = rng.randint(n - d, n)
        try:
            p = stiefel_map(random_matrix(rng, d, n))
            q = stiefel_map(random_matrix(rng, e, n))
        except DomainError:
            continue
        r = stable_intersection(p, q)
        assert check_plucker(r)


def direct_stable_intersection(p, q):
    """The reference: r_T = min over R ∩ S = T of p_R + q_S, summed directly."""
    if p.n != q.n or p.d + q.d < p.n:
        raise DomainError("RANK_CONDITION", "requires d + e >= n on a common [n]")
    n = p.n
    rank = p.d + q.d - n
    ground = frozenset(range(1, n + 1))
    pv, qv, coords = values(p), values(q), {}
    for T in itertools.combinations(range(1, n + 1), rank):
        Tset = frozenset(T)
        rest = sorted(ground - Tset)
        terms = []
        for extra in itertools.combinations(rest, p.d - rank):
            R = Tset | frozenset(extra)
            S = Tset | (ground - R)
            if pv[R] is not INF and qv[S] is not INF:
                terms.append(pv[R] + qv[S])
        coords[Tset] = trop_sum(terms)
    return plucker_vector(n, rank, coords)


def test_stable_intersection_is_dual_of_stable_union():
    # against the direct sum on seeded pairs with ∞: the same values, or the
    # same error code (RANK_CONDITION, ALL_INF)
    rng = random.Random(31)
    codes = set()
    for _ in range(600):
        n = rng.randint(1, 5)
        ps = []
        for d in (rng.randint(0, n), rng.randint(0, n)):
            coords = {frozenset(J): rng.choice([INF, INF, 0, 1, Fraction(1, 2)])
                      for J in itertools.combinations(range(1, n + 1), d)}
            coords[min(coords, key=sorted)] = 0
            ps.append(plucker_vector(n, d, coords))
        outcomes = []
        for intersect in (stable_intersection, direct_stable_intersection):
            try:
                outcomes.append(values(intersect(*ps)))
            except DomainError as exc:
                outcomes.append(exc.code)
        assert outcomes[0] == outcomes[1]
        codes.add(outcomes[0] if isinstance(outcomes[0], str) else "values")
    assert codes == {"values", "RANK_CONDITION", "ALL_INF"}


def test_stable_intersection_associative():
    rng = random.Random(23)
    count = 0
    while count < 20:
        n = rng.randint(3, 5)
        ranks = [rng.randint(1, n) for _ in range(3)]
        if ranks[0] + ranks[1] < n or ranks[0] + ranks[1] - n + ranks[2] < n:
            continue
        ps = [stiefel_map(random_matrix(rng, r, n)) for r in ranks]
        left = stable_intersection(stable_intersection(ps[0], ps[1]), ps[2])
        right = stable_intersection(ps[0], stable_intersection(ps[1], ps[2]))
        assert values(left) == values(right)
        count += 1


def test_stable_union_factorization():
    for A in (STAIR, TWO_ROW, APRIME):
        rows = [row_vector(matrix_row(A, i)) for i in range(1, A.d + 1)]
        folded = reduce(stable_union, rows)
        assert plucker_proj_eq(folded, stiefel_map(A))


def test_stable_union_rank_zero_identity():
    p = stiefel_map(APRIME)
    assert values(stable_union(p, rank_zero(4))) == values(p)
    assert values(stable_union(rank_zero(4), p)) == values(p)


def test_underlying_matroid():
    assert underlying_matroid(zero_plucker(2, 4)) == uniform_matroid(2, 4)
    assert underlying_matroid(stiefel_map(APRIME)) == uniform_matroid(2, 4)
    single = plucker_vector(
        3, 2, {frozenset({1, 2}): 0, frozenset({1, 3}): INF, frozenset({2, 3}): INF}
    )
    assert underlying_matroid(single) == frozenset([frozenset({1, 2})])


def test_cocircuit():
    c = cocircuit(zero_plucker(3, 4), {1, 2})
    assert c == TropVector([INF, INF, 0, 0])
    p = stiefel_map(APRIME)
    assert cocircuit(p, {2}) == TropVector([0, INF, 0, 0])
    assert cocircuit(p, {1}) == TropVector([INF, 0, 1, 1])
    single = plucker_vector(3, 2, {frozenset({1, 2}): INF, frozenset({1, 3}): INF, frozenset({2, 3}): 0})
    with pytest.raises(DomainError) as exc:
        cocircuit(single, {1})
    assert exc.value.code == "ALL_INF"


def test_cocircuit_projective_invariance():
    p = stiefel_map(APRIME)
    shifted = plucker_vector(
        4, 2, {J: v + Fraction(3) for J, v in values(p).items()}
    )
    for S in itertools.combinations(range(1, 5), 1):
        a = cocircuit(p, S)
        b = cocircuit(shifted, S)
        assert proj_eq(a, b)


def test_recover_matrix_examples():
    sigma = support_graph(APRIME)
    assert recover_matrix(stiefel_map(APRIME), *sigma) == APRIME
    p0 = zero_plucker(2, 3)
    sig = (2, 3, [(1, 1), (1, 3), (2, 2), (2, 3)])
    assert recover_matrix(p0, *sig) == TropMatrix([[0, "inf", 0], ["inf", 0, 0]])


def test_recover_matrix_row_constants():
    rng = random.Random(9)
    sets = enumerate_support_sets(2, 4)
    for _ in range(25):
        G = rng.choice(sets)
        entries = [
            [rng.randint(-3, 3) if (i, j) in G[2] else INF for j in range(1, 5)]
            for i in range(1, 3)
        ]
        A = TropMatrix(entries)
        B = recover_matrix(stiefel_map(A), *G)
        for i in range(1, 3):
            assert proj_eq(matrix_row(A, i), matrix_row(B, i))
            # row i is the cocircuit of the (d−1)-set [n] ∖ J_i
            assert matrix_row(B, i) == cocircuit(stiefel_map(A), set(range(1, 5)) - J_of(G, {i}))


def test_json_roundtrip():
    p = stiefel_map(APRIME)
    assert plucker_from_json(plucker_to_json(p)) == p


def test_cocircuit_rejects_subsets_outside_the_ground_set():
    p = stiefel_map(TropMatrix([[0, 1, 2, 3], [1, 0, 2, 0]]))
    for S in ({9}, {0}, {1, 2}):
        with pytest.raises(DomainError) as exc:
            cocircuit(p, S)
        assert exc.value.code == "BAD_SUBSET"
