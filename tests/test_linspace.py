import itertools
import json
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from polyhedra import Polyhedron
from reference import (
    _closed_cell,
    _max_matching_size,
    bounded_complex,
    bounded_membership,
    bounded_point_in_complex,
    caterpillar_check,
    col_support,
    coloops,
    colwise_dragon_condition,
    common_ints,
    covector_graph,
    covector_of_point,
    decomposition_cone,
    entries,
    in_B,
    is_interior_cell,
    loops,
    minimal_form,
    polytrope_contains,
    polytrope_dim,
    support_graph,
    uniform_matroid,
    vec_mat_mul,
    vector_support,
)
from tropstiefel.arrangement import cell_point, covector_edges, enumerate_covectors
from tropstiefel.bipartite import hall_surplus_check, transversal_matroid
from tropstiefel.core import (
    DomainError,
    INF,
    TropMatrix,
    TropVector,
    common_denom,
    require_column_supports,
)
from tropstiefel.linspace import (
    bounded_skeleton,
    certificate_to_json,
    contains,
    contains_via_matroid,
    decompose,
    in_bounded_part,
    in_K,
    in_L,
    select_matroid,
)
from tropstiefel.geom import DifferenceBounds
from tropstiefel.plucker import stiefel_map

FIG = TropMatrix([[0, 3, 0, "inf", "inf"], ["inf", 0, 0, 2, "inf"], ["inf", "inf", 0, 0, 0]])
STAIR = TropMatrix([[0, 0, "inf", "inf"], ["inf", 0, 0, "inf"], ["inf", "inf", 0, 0]])
TWO_ROW = TropMatrix([[0, 0, 0, 0], [0, 0, 1, 1]])

P_ZERO = stiefel_map(STAIR)  # all zeroes on Gr(3,4)
P_TWO = stiefel_map(TWO_ROW)


def test_contains_examples():
    assert contains(P_ZERO, TropVector([1, 0, 0, 0]))
    assert not contains(P_ZERO, TropVector([-1, 0, 0, 0]))
    assert contains(P_TWO, TropVector([0, 0, 1, 1]))
    # Infinity coordinates are allowed
    assert contains(P_ZERO, TropVector(["inf", 0, 0, 0]))


def test_contains_via_matroid_examples():
    assert contains_via_matroid(P_ZERO, TropVector([0, 0, 0, 0]))
    assert not contains_via_matroid(P_TWO, TropVector([0, 0, -1, -1]))
    rng = random.Random(17)
    for _ in range(100):
        d = rng.randint(1, 3)
        n = rng.randint(d, 5)
        A = TropMatrix([[rng.randint(-2, 2) for _ in range(n)] for _ in range(d)])
        p = stiefel_map(A)
        y = TropVector([Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(n)])
        assert contains(p, y) == contains_via_matroid(p, y)


def test_decompose_image_point():
    cert = decompose(STAIR, TropVector([1, 0, 0, 0]))
    assert cert is not None
    _, x, J, slack = cert
    assert J == frozenset()
    assert x == (1, 0, 0)
    assert slack == (0, 0, 0, 0)


def test_decompose_with_slack():
    y = TropVector([0, 1, 1, 0])
    cert = decompose(STAIR, y)
    assert cert is not None
    covector, x, J, slack = cert
    assert covector == ((1,), (1, 2), (2, 3), (3,))
    assert x == (0, 0, 0)
    assert J == frozenset({2, 3})
    assert slack == (0, 1, 1, 0)
    # certificate invariants
    assert colwise_dragon_condition(covector_graph(STAIR, covector), J)
    image = vec_mat_mul(TropVector(x), STAIR)
    assert all(
        a + s == b for a, s, b in zip(entries(image), slack, entries(y))
    )
    assert all(slack[j - 1] > 0 for j in J)
    assert all(slack[j - 1] == 0 for j in range(1, 5) if j not in J)


def test_decompose_not_in_L():
    assert decompose(STAIR, TropVector([-1, 0, 0, 0])) is None


def test_decompose_matches_contains():
    rng = random.Random(23)
    for _ in range(60):
        d = rng.randint(1, 3)
        n = rng.randint(d, 5)
        A = TropMatrix([[rng.randint(-1, 2) for _ in range(n)] for _ in range(d)])
        y = TropVector([rng.randint(-3, 3) for _ in range(n)])
        cert = decompose(A, y)
        assert (cert is not None) == contains(stiefel_map(A), y)
        if cert is not None:
            _, x, _, slack = cert
            image = vec_mat_mul(TropVector(x), A)
            assert all(
                a + s == b
                for a, s, b in zip(entries(image), slack, entries(y))
            )


def test_decompose_certificates_against_cones_and_circuits():
    """Each certificate (F, x, J) is checked by an independent route: y lies
    in the decomposition cone of (F, J), x ⊙ A + slack = y, and x lies in
    the closed cell of F; and no certificate means no circuit membership."""
    rng = random.Random(53)
    frac = lambda den: Fraction(rng.randint(-4 * den, 4 * den), rng.randint(1, den))
    found = missed = 0
    while found + missed < 120:
        d = rng.randint(1, 4)
        n = rng.randint(d, 6)
        A = TropMatrix([[INF if rng.random() < 0.2 else frac(3) for _ in range(n)] for _ in range(d)])
        try:
            p = stiefel_map(A)
            require_column_supports(A)
        except DomainError:
            continue
        for _ in range(3):
            if rng.random() < 0.5:
                image = vec_mat_mul(TropVector([frac(5) for _ in range(d)]), A)
                y = TropVector([v + (frac(3) ** 2 if rng.random() < 0.3 else 0) for v in entries(image)])
            else:
                y = TropVector([frac(5) for _ in range(n)])
            cert = decompose(A, y)
            if cert is None:
                missed += 1
                assert not contains(p, y)
                continue
            found += 1
            covector, x, J, slack = cert
            cone = decomposition_cone(A, covector_edges(covector), J)
            assert Polyhedron(n, *minimal_form(cone)).contains(entries(y)) and polytrope_contains(cone, entries(y))
            image = vec_mat_mul(TropVector(x), A)
            assert all(a + s == b for a, s, b in zip(entries(image), slack, entries(y)))
            assert covector_edges(covector_of_point(A, TropVector(x))) >= covector_edges(covector)
    assert found > 40 and missed > 20


def all_cells_systems(A, y, tc, keep):
    """The retired loop of ``decompose`` over all of TC(A): each cell F of
    tc in covector order and, per cell, each J with |J| <= d − 1 in tuple
    order that ``keep(F, J)`` accepts, yielded with the closed system of
    (F, J) on the origin and x when it is feasible: the closed cell,
    x_i0 + a_i0j <= y_j, and = y_j off J, < y_j on J."""
    unit, a, z = common_ints(A, y)
    subsets = sorted(J for r in range(A.d) for J in itertools.combinations(range(1, A.n + 1), r))
    for F in tc:
        reps = [min(I) for I in F]
        cell_dbm = DifferenceBounds(A.d + 1, unit)
        if not (_closed_cell(cell_dbm, a, covector_edges(F), 0) and all(cell_dbm.add(0, i0, z[j] - a[i0 - 1][j]) for j, i0 in enumerate(reps))):
            continue
        for J in subsets:
            if not keep(F, J):
                continue
            dbm = cell_dbm.copy()
            if all(
                dbm.add(0, i0, z[j] - a[i0 - 1][j], strict=True) if j + 1 in J else dbm.add(i0, 0, a[i0 - 1][j] - z[j])
                for j, i0 in enumerate(reps)
            ):
                yield F, J, dbm


def decompose_all_cells(A, y):
    """The retired ``decompose``: TC(A) enumerated in full, then the first
    feasible pair (F, J) with F in B(A) and J meeting the column-wise dragon
    condition, with its errors in the same order."""
    if len(y) != A.n or not y.is_finite():
        raise DomainError("BAD_POINT", "y must be finite of length n")
    tc = enumerate_covectors(A)
    if _max_matching_size(support_graph(A), range(1, A.n + 1)) < A.d:
        raise DomainError("NO_MATCHING_IN_SUPPORT", "support contains no matching")
    covering = [F for F in tc if in_B(A, F)]  # asked once per cell, not once per J
    graphs = {F: covector_graph(A, F) for F in covering}  # built once per cell, not once per J
    for F, J, dbm in all_cells_systems(A, y, covering, lambda F, J: colwise_dragon_condition(graphs[F], J)):
        x = dbm.point()[1:]
        image = vec_mat_mul(TropVector(x), A)
        return F, x, frozenset(J), tuple(b - a for a, b in zip(entries(image), entries(y)))
    return None


def decompose_outcome(route, A, y):
    """The certificate as JSON text, "null", or the error code."""
    try:
        cert = route(A, y)
    except DomainError as exc:
        return exc.code
    return json.dumps(None if cert is None else certificate_to_json(cert), sort_keys=True)


def check_certificate(A, y, cert):
    """A certificate checked on its own: y lies in the decomposition cone
    of (F, J), F is the covector of x and covers every row, J meets the
    column-wise dragon condition, and x ⊙ A + slack = y with the slack
    positive exactly on J."""
    n = A.n
    covector, x, J, slack = cert
    assert polytrope_contains(decomposition_cone(A, covector_edges(covector), J), entries(y))
    assert covector_of_point(A, TropVector(x)) == covector and in_B(A, covector)
    assert colwise_dragon_condition(covector_graph(A, covector), J)
    image = vec_mat_mul(TropVector(x), A)
    assert all(a + s == b for a, s, b in zip(entries(image), slack, entries(y)))
    assert all((slack[j - 1] > 0) == (j in J) for j in range(1, n + 1))


def test_decompose_against_the_all_cells_route():
    """``decompose`` gives, byte for byte, the None or error code of the
    loop over all of TC(A), and a certificate exactly where that loop finds
    one, checked on its own (``check_certificate``), on seeded queries with
    d <= 4, n <= 6, ∞ entries, halves, image points (some with slack) and
    random y."""
    rng = random.Random(67)
    half = lambda: Fraction(rng.randint(-4, 4), rng.choice((1, 2)))
    seen = Counter()
    for _ in range(1000):
        d = 4 if rng.random() < 0.07 else rng.randint(1, 3)  # d = 4 takes most of the time
        n = rng.randint(d, 6)
        inf = rng.choice((0, 0.15, 0.3))
        A = TropMatrix([[INF if rng.random() < inf else half() for _ in range(n)] for _ in range(d)])
        if rng.random() < 0.5:
            image = vec_mat_mul(TropVector([half() for _ in range(d)]), A)
            raise_by = [abs(half()) if rng.random() < 0.3 else 0 for _ in entries(image)]
            y = TropVector([v if v is INF else v + r for v, r in zip(entries(image), raise_by)])
        else:
            y = TropVector([half() for _ in range(n)])
        out, expected = decompose_outcome(decompose, A, y), decompose_outcome(decompose_all_cells, A, y)
        if out.startswith("{"):
            assert expected.startswith("{"), (entries(A), entries(y))
            check_certificate(A, y, decompose(A, y))
        else:
            assert out == expected, (entries(A), entries(y))
        seen[out[:2]] += 1
    # certificates, None and errors all occur often
    assert seen['{"'] > 250 and seen["nu"] > 250 and sum(seen.values()) - seen['{"'] - seen["nu"] > 50


def test_decompose_against_the_all_cells_route_where_j_fills():
    """Where the look-ahead on the room left in J prunes: d = 4–5, n = 7–8,
    compared with the all-cells route as JSON text.  Most queries are image
    points x ⊙ A with slack on a set J of 0 to d − 1 columns, A drawn so
    that x attains each column of J at two rows adjacent on a path through
    all rows (so J meets the column-wise dragon condition) and each other
    column at one row, with ∞ or larger entries elsewhere; the rest are
    random y on random A."""
    rng = random.Random(71)
    half = lambda: Fraction(rng.randint(-4, 4), rng.choice((1, 2)))
    seen = Counter()
    for _ in range(32):
        d, n = rng.randint(4, 5), rng.randint(7, 8)
        if rng.random() < 0.8:
            x, path, J = [half() for _ in range(d)], rng.sample(range(d), d), rng.sample(range(n), rng.randint(0, d - 1))
            ties = [set(path[J.index(j):J.index(j) + 2]) if j in J else {rng.randrange(d)} for j in range(n)]
            c = [half() for _ in range(n)]
            A = TropMatrix([[c[j] - x[i] if i in ties[j] else INF if rng.random() < 0.6 else c[j] - x[i] + rng.randint(1, 3) for j in range(n)] for i in range(d)])
            y = TropVector([c[j] + (rng.randint(1, 4) if j in J else 0) for j in range(n)])
        else:
            A = TropMatrix([[INF if rng.random() < 0.4 else half() for _ in range(n)] for _ in range(d)])
            y = TropVector([half() for _ in range(n)])
        out = decompose_outcome(decompose, A, y)
        assert out == decompose_outcome(decompose_all_cells, A, y), (entries(A), entries(y))
        seen[len(json.loads(out)["J"]) if out.startswith("{") else out] += 1
    # certificates whose J fills or nearly fills its room of d − 1, and refusals
    assert seen[3] + seen[4] >= 8 and seen["null"] >= 6, seen


def test_decompose_last_row_sorts_shorter_first():
    """At x = (5, 1) the closed cells of two covectors hold y, apart only in
    the last row: the one with edge (2, 5) has more edges, yet its key
    sorts after the one without it, which is its prefix, so the least
    certificate by key (the all-cells route's) lacks it.  The greatest
    optimal dual gives the covector of x itself, with the edge."""
    A = TropMatrix([[-2, 4, 1, -4, 2], [6, 5, Fraction(5, 2), 2, 6]])
    y = TropVector([3, 6, Fraction(7, 2), 1, 7])
    cert = decompose(A, y)
    assert certificate_to_json(cert) == {"covector": ((1,), (2,), (2,), (1,), (1, 2)), "x": ["5", "1"], "J": [], "slack": ["0"] * 5}
    assert json.loads(decompose_outcome(decompose_all_cells, A, y))["covector"] == [[1], [2], [2], [1], [1]]
    check_certificate(A, y, cert)


def test_decompose_copy_count(monkeypatch):
    """The work of ``decompose``, without a clock: ``DifferenceBounds.copy``
    calls over seeded 3×5 queries, 40 image points and 80 random y in
    halves.  One assignment problem answers each and copies no matrix."""
    calls = Counter()
    real = DifferenceBounds.copy

    def counting(self):
        calls[kind] += 1
        return real(self)

    monkeypatch.setattr(DifferenceBounds, "copy", counting)
    rng = random.Random(89)
    half = lambda: Fraction(rng.randint(-6, 6), rng.choice((1, 2)))
    found = 0
    for _ in range(40):
        A = TropMatrix([[rng.randint(-2, 3) for _ in range(5)] for _ in range(3)])
        for kind in ("image", "random", "random"):
            y = vec_mat_mul(TropVector([half() for _ in range(3)]), A) if kind == "image" else TropVector([half() for _ in range(5)])
            found += decompose(A, y) is not None
    assert found == 42 and calls["image"] == 0 and calls["random"] == 0, calls


def test_decompose_answers_a_wide_column_without_the_column_rule(monkeypatch):
    """A column with 13 finite entries forces 8191 > 5000 cells of TC(A),
    yet the 13×13 zero matrix answers y = 0 with J = ∅ and x = 0 without
    stating the column rule of any cell."""
    import tropstiefel.arrangement as arrangement

    def no_search(*args):
        raise AssertionError("stated the column rule of a cell")

    monkeypatch.setattr(arrangement, "_attain", no_search)
    _, x, J, slack = decompose(TropMatrix([[0] * 13] * 13), TropVector([0] * 13))
    assert J == frozenset() and x == (0,) * 13 and slack == (0,) * 13


def test_decompose_answers_past_the_cell_budget():
    """A dense 5×8 has more than 5000 cells, so the all-cells route refused
    it; the search reaches far fewer covectors and certifies an image point,
    checked by its decomposition cone and by circuit membership."""
    rng = random.Random(0)
    A = TropMatrix([[rng.randint(-50, 50) for _ in range(8)] for _ in range(5)])
    with pytest.raises(DomainError) as exc:
        enumerate_covectors(A)
    assert exc.value.code == "BUDGET_EXCEEDED"
    y = vec_mat_mul(TropVector([rng.randint(-20, 20) for _ in range(5)]), A)
    covector, _, J, _ = decompose(A, y)
    assert polytrope_contains(decomposition_cone(A, covector_edges(covector), J), entries(y))
    assert contains(stiefel_map(A), y)


def test_caterpillar_and_tree_build_tc_once(monkeypatch):
    import reference
    import tropstiefel.linspace as linspace
    from tropstiefel.svg import _svg_tree

    calls, cones = [], []
    real, real_cone = linspace.enumerate_covectors, reference.decomposition_cone

    def counting(A, *args, **kwargs):
        calls.append(A)
        return real(A, *args, **kwargs)

    def counting_cone(A, *args, **kwargs):
        cones.append(A)
        return real_cone(A, *args, **kwargs)

    monkeypatch.setattr(linspace, "enumerate_covectors", counting)
    monkeypatch.setattr(reference, "decomposition_cone", counting_cone)
    for A in (TWO_ROW, TropMatrix([[0, 1, 3, 0, 2], [2, 0, 1, 4, 0]])):
        calls.clear()
        assert caterpillar_check(A)
        assert calls == [A]
        calls.clear()
        _svg_tree(A)
        assert calls == [A]
        # the skeleton reads cell dimensions only: no image cones
        assert cones == []


def test_bounded_skeleton_skips_the_matching_engine(monkeypatch):
    """The support-set test of the bounded tree is a Hall scan over the
    rows, not a table of matchable column sets, and a finite A such as
    this dense 2×8 needs neither: with d <= n it is uniform at once."""
    import tropstiefel.bipartite as bipartite
    import tropstiefel.linspace as linspace
    import tropstiefel.plucker as plucker

    rng = random.Random(41)
    A = TropMatrix([[rng.randint(-9, 9) for _ in range(8)] for _ in range(2)])
    expected = bounded_skeleton(A)

    def refuse(*args, **kwargs):
        raise AssertionError("the bounded tree called the matching engine or the Hall scan")

    monkeypatch.setattr(bipartite, "optimal_matchings", refuse)
    monkeypatch.setattr(plucker, "optimal_matchings", refuse)
    monkeypatch.setattr(linspace, "hall_surplus_check", refuse)
    assert bounded_skeleton(A) == expected
    assert expected[0]


def test_image_points_lie_in_L():
    rng = random.Random(29)
    for A in (STAIR, TWO_ROW, FIG):
        p = stiefel_map(A)
        for _ in range(20):
            x = TropVector([rng.randint(-4, 4) for _ in range(A.d)])
            assert contains(p, vec_mat_mul(x, A))


def test_routes_agree_at_the_common_denominator():
    """A in thirds and y in halves meet at the common denominator 6: on
    seeded 1 <= d <= 3, n <= 5 inputs with ∞ entries, circuits, selected
    matroids, ``decompose`` and ``in_L`` give one answer, and every
    certificate has x ⊙ A + slack = y exactly.  With ∞ coordinates in y,
    ``in_L``, on its bonus path, agrees with circuit membership."""
    rng = random.Random(2906)
    thirds = [0, 1, -2, "1/3", "-2/3", "5/3", "-4/3", "inf"]
    seen, at_six, with_inf = Counter(), 0, Counter()
    while min(seen[True], seen[False], with_inf[True], with_inf[False]) < 40 or at_six < 200:
        d = rng.randint(1, 3)
        n = rng.randint(d, 5)
        A = TropMatrix([[rng.choice(thirds) for _ in range(n)] for _ in range(d)])
        try:
            require_column_supports(A)
            p = stiefel_map(A)
        except DomainError:
            continue
        x = TropVector([Fraction(rng.randint(-4, 4), 2) for _ in range(d)])
        image = entries(vec_mat_mul(x, A))
        halves = [Fraction(rng.randint(-8, 8), 2) for _ in range(n)]
        for y in (image, [v + Fraction(rng.randint(0, 2), 2) for v in image], halves):
            Y = TropVector(y)
            if not Y.is_finite():
                continue
            at_six += common_denom(A.denom, Y.denom)[0] == 6
            cert = decompose(A, Y)
            answers = {contains(p, Y), contains_via_matroid(p, Y), in_L(A, Y), cert is not None}
            assert len(answers) == 1, (entries(A), y)
            seen[cert is not None] += 1
            if cert is not None:
                _, x, _, slack = cert
                assert [a + s for a, s in zip(entries(vec_mat_mul(TropVector(x), A)), slack)] == list(entries(Y))
        Y = TropVector([INF if rng.random() < 0.4 else v for v in rng.choice((image, halves))])
        if len(vector_support(Y)) < n:
            got = in_L(A, Y)
            assert got == contains(p, Y), (entries(A), entries(Y))
            with_inf[got] += 1
    # the bonus M of an ∞ coordinate is counted in sixths here, as the costs are
    A, Y = TropMatrix([["-2/3", 3]]), TropVector(["1/2", "inf"])
    assert not in_L(A, Y) and not contains(stiefel_map(A), Y)


def test_bounded_membership_examples():
    assert bounded_membership(P_TWO, TropVector([0, 0, 0, 0]))
    assert not bounded_membership(P_TWO, TropVector([2, 0, 0, 0]))
    # the standard plane's bounded part is the single projective point 0
    assert bounded_membership(P_ZERO, TropVector([3, 3, 3, 3]))
    for y in ([1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, -1]):
        assert not bounded_membership(P_ZERO, TropVector(y))
    rank_def = stiefel_map(TropMatrix([[0, 0, "inf"], [0, 0, "inf"]]))
    with pytest.raises(DomainError):
        bounded_membership(rank_def, TropVector([0, 0, 0]))


def test_in_L_examples_and_error_order():
    assert in_L(STAIR, TropVector([1, 0, 0, 0]))
    assert not in_L(STAIR, TropVector([-1, 0, 0, 0]))
    assert in_L(TWO_ROW, TropVector([0, 0, 1, 1]))
    # an ∞ coordinate leaves the others to the contraction: the columns
    # some assignment taking as many ∞ columns as it can uses
    assert in_L(STAIR, TropVector(["inf", 0, 0, 0]))
    assert in_L(STAIR, TropVector(["inf", 0, 5, 0])) and not in_L(STAIR, TropVector(["inf", "inf", 0, 1]))
    assert in_L(STAIR, TropVector(["inf"] * 4))
    # a finite coordinate on an all-∞ column is outside L(A)
    A = TropMatrix([[0, "inf", 0], [1, "inf", 0]])
    assert not in_L(A, TropVector([0, 0, 0])) and in_L(A, TropVector([0, "inf", 0]))
    # no matching comes before the length of y
    for A, y in ((TropMatrix([[0, "inf"], [0, "inf"]]), [0]), (TropMatrix([[0], [0]]), [0, 0])):
        with pytest.raises(DomainError) as exc:
            in_L(A, TropVector(y))
        assert exc.value.code == "NO_MATCHING_IN_SUPPORT"
    with pytest.raises(DomainError) as exc:
        in_L(STAIR, TropVector([0, 0, 0]))
    assert exc.value.code == "LENGTH_MISMATCH"


def test_in_bounded_part_examples_and_error_order():
    assert in_bounded_part(TWO_ROW, TropVector([0, 0, 0, 0]))
    assert not in_bounded_part(TWO_ROW, TropVector([2, 0, 0, 0]))
    # the standard plane's bounded part is the single projective point 0
    assert in_bounded_part(STAIR, TropVector([3, 3, 3, 3]))
    for y in ([1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, -1]):
        assert not in_bounded_part(STAIR, TropVector(y))
    # d = n: the one basis is all coloops
    assert not in_bounded_part(TropMatrix([[0, 1], [1, 0]]), TropVector([0, 0]))
    # no matching (d > n among them), then a non-uniform matroid, then the point
    cases = [
        (TropMatrix([[0], [0]]), ["inf"], "NO_MATCHING_IN_SUPPORT"),
        (TropMatrix([[0, "inf"], [0, "inf"]]), ["inf"], "NO_MATCHING_IN_SUPPORT"),
        (TropMatrix([[0, 0, "inf"], [0, 0, "inf"]]), ["inf"], "NOT_UNIFORM"),
        (TWO_ROW, [0, 0, 0, "inf"], "BAD_POINT"),
        (TWO_ROW, [0, 0, 0], "BAD_POINT"),
    ]
    for A, y, code in cases:
        with pytest.raises(DomainError) as exc:
            in_bounded_part(A, TropVector(y))
        assert exc.value.code == code


def norm(entries):
    return tuple(v - entries[0] for v in entries)


def test_bounded_complex_two_row():
    cells = bounded_complex(TWO_ROW)
    assert len(cells) == 3
    polys = [Polyhedron(4, *minimal_form(image)) for _, image in cells]
    assert [P.affine_dimension() for P in polys] == [polytrope_dim(image) for _, image in cells]
    points = [poly for poly in polys if poly.affine_dimension() == 0]
    segments = [poly for poly in polys if poly.affine_dimension() == 1]
    assert len(points) == 2 and len(segments) == 1
    verts = {norm(P.vertices()[0]) for P in points}
    assert verts == {(0, 0, 0, 0), (0, 0, 1, 1)}
    seg = segments[0]
    assert {norm(v) for v in seg.vertices()} == verts
    assert seg.contains((Fraction(-1, 2), Fraction(-1, 2), 0, 0))


def test_bounded_complex_stair():
    cells = bounded_complex(STAIR)
    assert len(cells) == 1
    image = cells[0][1]
    poly = Polyhedron(4, *minimal_form(image))
    assert poly.affine_dimension() == 0 == polytrope_dim(image)
    assert norm(poly.vertices()[0]) == (0, 0, 0, 0) == norm(image.point()[1:])


def test_bounded_complex_matches_interior_census():
    cells = bounded_complex(FIG)
    matroids = [transversal_matroid(*covector_graph(FIG, cov)) for cov, _ in cells]
    # distinct interior transversal matroids, one per bounded cell
    assert len(set(matroids)) == len(matroids)
    assert all(is_interior_cell(M, FIG.n) for M in matroids)
    p = stiefel_map(FIG)
    rng = random.Random(31)
    census = set()
    for _ in range(300):
        y = TropVector([Fraction(rng.randint(-20, 20), rng.randint(1, 5)) for _ in range(5)])
        M = select_matroid(p, y)
        if not loops(M, 5) and not coloops(M):
            census.add(M)
    assert census <= set(matroids)


def test_image_cells_against_their_cells():
    """⊙A is injective on cells of B(A), so each image cell of the bounded
    complex has the dimension of its cell of TC(A) and holds the image of
    that cell's witness."""
    rng = random.Random(59)
    checked = 0
    for _ in range(150):
        d = rng.randint(1, 3)
        n = rng.randint(d, 6)
        A = TropMatrix([
            ["inf" if rng.random() < 0.2 else Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(n)]
            for _ in range(d)
        ])
        try:
            cells = bounded_complex(A)
        except DomainError as exc:
            # no matching covers every row, else a column d-set has none
            G = support_graph(A)
            assert exc.code == ("NO_MATCHING_IN_SUPPORT" if _max_matching_size(G, range(1, n + 1)) < d else "NOT_UNIFORM")
            assert transversal_matroid(*G) != uniform_matroid(d, n)
            continue
        tc = enumerate_covectors(A)
        for covector, image in cells:
            poly = Polyhedron(n, *minimal_form(image))
            y = entries(vec_mat_mul(TropVector(cell_point(A, covector)), A))
            assert poly.affine_dimension() == tc[covector] == polytrope_dim(image)
            assert poly.contains(y) and polytrope_contains(image, y)
            checked += 1
    assert checked > 200


def test_bounded_point_in_complex():
    """The images of the cells of K(A) (``bounded_point_in_complex``)
    against the selected matroids on TWO_ROW and against
    ``in_bounded_part`` on seeded uniform matrices, at y = x ⊙ A with and
    without slack on some coordinates; the image of every K(A) cell's
    ``cell_point`` lies in the bounded part."""
    rng = random.Random(37)
    for _ in range(60):
        y = TropVector([Fraction(rng.randint(-10, 10), rng.randint(1, 3)) for _ in range(4)])
        assert bounded_point_in_complex(TWO_ROW, y) == bounded_membership(P_TWO, y) == in_bounded_part(TWO_ROW, y)
    rng, seen = random.Random(42), Counter()
    while sum(seen.values()) < 240:
        d = rng.randint(2, 4)
        n = rng.randint(d + 1, 6)
        A = TropMatrix([[INF if rng.random() < 0.1 else Fraction(rng.randint(-12, 12), 2) for _ in range(n)] for _ in range(d)])
        if not hall_surplus_check(*support_graph(A)):
            continue  # not uniform
        for tau in enumerate_covectors(A):
            if in_K(A, tau):
                assert in_bounded_part(A, vec_mat_mul(TropVector(cell_point(A, tau)), A))
        for k in range(4):
            y = entries(vec_mat_mul(TropVector([Fraction(rng.randint(-4, 4), 2) for _ in range(d)]), A))
            Y = TropVector([v + Fraction(rng.randint(1, 4), 2) if k % 2 and rng.random() < 0.3 else v for v in y])
            got = in_bounded_part(A, Y)
            assert got == bounded_point_in_complex(A, Y), (entries(A), y)
            seen[got] += 1
    assert seen[True] >= 30, seen


def test_decomposition_cone():
    vertex = frozenset([(1, 1), (1, 2), (2, 2), (2, 3), (3, 3), (3, 4)])
    cone = decomposition_cone(STAIR, vertex, {2, 3})
    for inside in (lambda z: polytrope_contains(cone, z), Polyhedron(4, *minimal_form(cone)).contains):
        assert inside((0, 1, 1, 0))
        assert inside((0, 0, 0, 0))  # closure includes zero slack
        assert not inside((-1, 0, 0, 0))
    cone0 = decomposition_cone(STAIR, vertex, frozenset())
    P0 = Polyhedron(4, *minimal_form(cone0))
    # the image of the vertex cell is the projective point 0
    assert polytrope_dim(cone0) == P0.affine_dimension() == 1
    for inside in (lambda z: polytrope_contains(cone0, z), P0.contains):
        assert inside((2, 2, 2, 2))
        assert not inside((0, 1, 1, 0))


def test_caterpillar_examples():
    assert caterpillar_check(TWO_ROW)
    assert caterpillar_check(TropMatrix([[0, 0, 0, 0], [0, 0, 0, 0]]))
    rng = random.Random(43)
    for _ in range(25):
        n = rng.randint(2, 6)
        A = TropMatrix([[rng.randint(0, 4) for _ in range(n)] for _ in range(2)])
        assert caterpillar_check(A)
    with pytest.raises(DomainError):
        caterpillar_check(STAIR)


def test_injectivity_on_B_cells():
    from tropstiefel.arrangement import enumerate_covectors

    for A in (STAIR, TWO_ROW):
        tc = enumerate_covectors(A)
        images = {}
        for tau in tc:
            if not in_B(A, tau):
                continue
            y = vec_mat_mul(TropVector(cell_point(A, tau)), A)
            assert y not in images.values()
            images[tau] = y


def test_certificate_json():
    cert = decompose(STAIR, TropVector([0, 1, 1, 0]))
    obj = certificate_to_json(cert)
    assert obj["J"] == [2, 3]
    assert obj["x"] == ["0", "0", "0"]
    assert obj["slack"] == ["0", "1", "1", "0"]


ENTRIES = st.sampled_from([INF, INF] + [Fraction(k, 2) for k in range(-6, 7)])


@st.composite
def cones(draw):
    """A matrix with d <= 3, n <= 6, entries in halves and ∞, a cell of
    TC(A) as its (covector, dimension) and a column set J passing the
    column-wise dragon condition."""
    d = draw(st.integers(1, 3))
    n = draw(st.integers(d, 6))
    A = TropMatrix(draw(st.lists(st.lists(ENTRIES, min_size=n, max_size=n), min_size=d, max_size=d)))
    assume(all(col_support(A, j) for j in range(1, n + 1)))
    cell = draw(st.sampled_from(list(enumerate_covectors(A).items())))
    subsets = [J for r in range(n + 1) for J in itertools.combinations(range(1, n + 1), r)
               if colwise_dragon_condition(covector_graph(A, cell[0]), J)]
    return A, cell, frozenset(draw(st.sampled_from(subsets)))


def nearby(y):
    """y, and y moved by ±1/2 in each coordinate and along (1, ..., 1)."""
    half = Fraction(1, 2)
    out = [y]
    for s in (half, -half):
        out += [y[:j] + (y[j] + s,) + y[j + 1:] for j in range(len(y))]
        out.append(tuple(v + s for v in y))
    return out


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(cones())
def test_polytrope_against_the_reference_polyhedron(case):
    """A cone's tie-class dimension and bound lookups against a general
    H-polyhedron on its rows; an image cell's against its cell of TC(A) and
    against the J = ∅ cone's rows with the gauge y_j1 = a_1j1 as an explicit
    row."""
    A, (tau, dim), J = case
    n = A.n
    y = entries(vec_mat_mul(TropVector(cell_point(A, tau)), A))  # in every cone of the cell: zero slack
    cone = decomposition_cone(A, covector_edges(tau), J)
    P = Polyhedron(n, *minimal_form(cone))
    assert polytrope_dim(cone) == P.affine_dimension()
    assert polytrope_contains(cone, y) and P.contains(cone.point()[1:])
    for z in nearby(y):
        assert polytrope_contains(cone, z) == P.contains(z)
    if not in_K(A, tau) or transversal_matroid(*support_graph(A)) != uniform_matroid(A.d, n):
        return
    image = dict(bounded_complex(A))[tau]
    j1 = min(j for j, I in enumerate(tau, 1) if 1 in I)
    gauge = Polyhedron(n, eqs=[(tuple(int(j == j1) for j in range(1, n + 1)), entries(A)[0][j1 - 1])])
    Q = Polyhedron(n, *minimal_form(decomposition_cone(A, covector_edges(tau), ()))).intersect(gauge)
    assert polytrope_dim(image) == dim == Q.affine_dimension() == Polyhedron(n, *minimal_form(image)).affine_dimension()
    for z in nearby(y):
        assert polytrope_contains(image, z) == Q.contains(z)


def test_decomposition_cone_checks_tau_and_J():
    A = TropMatrix([[0, 1], [1, 0]])
    # row 0 and row 3 do not exist, nor do columns 0 and 5; indices that
    # are not integers (a string, a boolean, a float) are refused as well
    for tau, J, code in [
        ([(0, 1), (2, 2)], (), "BAD_COVECTOR"),
        ([("1", 1), (2, 2)], (), "BAD_COVECTOR"),
        ([(True, 1), (2, 2)], (), "BAD_COVECTOR"),
        ([(1, 1.0), (2, 2)], (), "BAD_COVECTOR"),
        ([(3, 1), (2, 2)], (), "BAD_COVECTOR"),
        ([(1, 1), (2, 0), (2, 2)], (), "BAD_COVECTOR"),
        ([(1, 1), (2, 2)], {0}, "BAD_SUBSET"),
        ([(1, 1), (2, 2)], {5}, "BAD_SUBSET"),
    ]:
        with pytest.raises(DomainError) as exc:
            decomposition_cone(A, tau, J)
        assert exc.value.code == code
    # x_2 + 1 <= x_1 and x_1 + 1 <= x_2: the closed cell is empty
    assert decomposition_cone(A, [(2, 1), (1, 2)], ()) is None
    assert polytrope_dim(decomposition_cone(A, [(1, 1), (2, 2)], {1})) == 2
