import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from reference import (
    HALL_BUDGET,
    J_of,
    _hall_surplus,
    _max_matching_size,
    _nonempty_subsets,
    argmin_rows,
    coloops,
    colwise_dragon_condition,
    common_ints,
    entries,
    enumerate_support_sets,
    graph_to_json,
    greatest_dual,
    is_tree,
    loops,
    matroid_is_connected,
    min_matchings,
    optimal_columns,
    spanning_tree_no_left_leaves,
    transversal_polytope_ineqs,
    transversal_rank,
    strict_feasible,
    support_graph,
    uniform_matroid,
    values,
    vec_mat_mul,
)
from tropstiefel import simplex
from tropstiefel.bipartite import (
    COHERENCE_BUDGET,
    MATCHING_BUDGET,
    assignment,
    dragon_condition,
    graph_from_json,
    hall_surplus_check,
    is_coherent,
    is_support_set,
    matching_multifield,
    multifield_from_json,
    multifield_to_json,
    optimal_matchings,
    random_support_set,
    support_face_dimension,
    transversal_matroid,
)
from tropstiefel.core import INF, DomainError, TropMatrix, TropVector, subsets
from tropstiefel.linspace import decompose, select_matroid
from tropstiefel.plucker import contains, stiefel_map

FIG = TropMatrix([[0, 3, 0, "inf", "inf"], ["inf", 0, 0, 2, "inf"], ["inf", "inf", 0, 0, 0]])
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


def test_min_matchings_examples():
    value, argmins = min_matchings(FIG, {1, 2, 3})
    assert value == 0
    assert argmins == frozenset([(1, 2, 3)])
    for J in itertools.combinations(range(1, 5), 3):
        assert min_matchings(STAIR, J)[0] == 0
    value, argmins = min_matchings(A_of_t(Fraction(1, 2)), {1, 2, 3, 4})
    assert value == 0 and argmins == frozenset([(4, 3, 2, 1)])


def test_min_matchings_no_matching():
    A = TropMatrix([[0, "inf"], [0, "inf"]])
    value, argmins = min_matchings(A, {1, 2})
    assert value is INF and argmins == frozenset()
    # J is a d-subset of [n]: column 0 does not wrap around to column n
    for J in ({1}, {0, 1}, {1, 3}):
        with pytest.raises(DomainError):
            min_matchings(A, J)


def test_matching_multifield_zero_matrix():
    Z = TropMatrix([[0, 0, 0], [0, 0, 0]])
    mf = matching_multifield(Z)
    for J in itertools.combinations(range(1, 4), 2):
        assert len(mf[frozenset(J)]) == 2  # both matchings on each pair


def test_matching_multifield_t_independence():
    assert matching_multifield(A_of_t(Fraction(1, 2))) == matching_multifield(
        A_of_t(Fraction(-1, 2))
    )


def test_matching_multifield_figure_example():
    mf = matching_multifield(FIG)
    assert mf[frozenset({1, 2, 3})] == frozenset([(1, 2, 3)])


def test_matching_engine_against_references():
    # values and argmins against the permutation expansion on each d-set,
    # and bases against the augmenting-path matcher, with ties and ∞ common:
    # in halves, then in sixths, where the engine's ints are scaled by 6
    denoms = Counter()
    for seed, pool in ((97, [INF, 0, 1, Fraction(1, 2)]), (98, [INF, 0, 1, Fraction(1, 2), Fraction(1, 3), Fraction(5, 6)])):
        rng = random.Random(seed)
        for _ in range(320):
            d = rng.randint(1, 4)
            n = rng.randint(d, 7)
            A = TropMatrix([[rng.choice(pool) for _ in range(n)] for _ in range(d)])
            denoms[A.denom] += 1
            _check_engine(A)
    assert denoms[2] and denoms[3] and denoms[6] >= 100, denoms


def _check_engine(A):
    G = support_graph(A)
    least, argmins, bases, a = {}, {}, [], entries(A)
    for J in map(frozenset, itertools.combinations(range(1, A.n + 1), A.d)):
        weights = {
            cols: sum((a[i][j - 1] for i, j in enumerate(cols)), Fraction(0))
            for cols in itertools.permutations(sorted(J))
            if all(a[i][j - 1] is not INF for i, j in enumerate(cols))
        }
        least[J] = min(weights.values(), default=INF)
        argmins[J] = frozenset(cols for cols, w in weights.items() if w == least[J])
        assert min_matchings(A, J) == (least[J], argmins[J])
        if _max_matching_size(G, J) == A.d:
            bases.append(J)
    assert transversal_matroid(*G) == frozenset(bases)
    if all(v is INF for v in least.values()):
        with pytest.raises(DomainError):
            stiefel_map(A)
    else:
        assert values(stiefel_map(A)) == least
    if INF in least.values():
        with pytest.raises(DomainError):
            matching_multifield(A)
    else:
        assert matching_multifield(A) == argmins


def test_is_coherent_roundtrip():
    rng = random.Random(83)
    matrices = [FIG, STAIR, A_of_t(Fraction(1, 2))]
    while len(matrices) < 60:
        d = rng.randint(1, 3)
        n = rng.randint(d, 6)
        A = TropMatrix([[rng.choice([INF, 0, 1, 2, Fraction(1, 2)]) for _ in range(n)] for _ in range(d)])
        try:
            matching_multifield(A)
        except DomainError:
            continue
        matrices.append(A)
    dropped = 0
    for A in matrices:
        mf = matching_multifield(A)
        witness = is_coherent(mf)
        assert witness is not None
        assert matching_multifield(witness) == mf
        # one matching dropped from a choice with several: incoherent, or a
        # witness that reproduces the smaller multifield
        tied = [J for J in sorted(mf, key=sorted) if len(mf[J]) > 1]
        if tied:
            choices = dict(mf)
            choices[tied[0]] = frozenset(sorted(mf[tied[0]])[1:])
            variant = choices
            witness = is_coherent(variant)
            assert witness is None or matching_multifield(witness) == variant
            dropped += 1
    assert dropped >= 10


def test_matching_engine_budget():
    # the size check comes before the table: Σ_{k≤d} C(n, k) column sets,
    # named in the error with the budget
    assert 4096 <= MATCHING_BUDGET < 131072
    assert len(optimal_matchings([[0] * 12] * 12, range(1, 13))[0]) == 4096
    for d, n in ((17, 17), (14, 40), (6, 24)):
        states = sum(math.comb(n, k) for k in range(d + 1))
        with pytest.raises(DomainError) as exc:
            optimal_matchings([[0] * n] * d, range(1, n + 1))
        assert exc.value.code == "BUDGET_EXCEEDED"
        assert str(states) in str(exc.value) and str(MATCHING_BUDGET) in str(exc.value)


def test_is_coherent_zero_matrix():
    mf = matching_multifield(TropMatrix([[0, 0, 0], [0, 0, 0]]))
    assert is_coherent(mf) is not None


# cyclic strict preferences on {1,2}, {2,3}, {1,3} sum to 0 < 0
CYCLIC = {
    frozenset({1, 2}): {(1, 2)},
    frozenset({2, 3}): {(2, 3)},
    frozenset({1, 3}): {(3, 1)},
    frozenset({1, 4}): {(1, 4)},
    frozenset({2, 4}): {(2, 4)},
    frozenset({3, 4}): {(3, 4)},
}


def test_incoherent_cyclic_matching_field():
    assert is_coherent(CYCLIC) is None


def test_a_wrong_certificate_raises(monkeypatch):
    """A "no" comes only with a certificate that passes its check: with one
    basic ν entry of the final tableau raised by 1, ``is_coherent`` raises
    instead of answering None."""
    run = simplex._run_simplex

    def tampered(tab, basis, nvars):
        run(tab, basis, nvars)
        # no tied matchings, so every real column before μ, the last, is a ν
        i = next(i for i, c in enumerate(basis) if c < nvars - 1 and tab[i][-1] > 0)
        tab[i][-1] += 1

    monkeypatch.setattr(simplex, "_run_simplex", tampered)
    with pytest.raises(AssertionError, match="certificate"):
        is_coherent(CYCLIC)


def coherence_sample(rng, count):
    """``count`` seeded multifields, d 2–3 and n <= 6, about 10% ∞, entries
    0..1, 0..3 or 0..9: each Λ(A), and after it Λ(A) with one chosen
    matching dropped from the first J that has several."""
    out = []
    while len(out) < count:
        d = rng.randint(2, 3)
        n, top = rng.randint(d, 6), rng.choice((1, 3, 9))
        A = TropMatrix([[INF if rng.random() < 0.1 else rng.randint(0, top) for _ in range(n)] for _ in range(d)])
        try:
            mf = matching_multifield(A)
        except DomainError:
            continue
        out.append(mf)
        tied = [J for J in sorted(mf, key=sorted) if len(mf[J]) > 1]
        if tied:
            ms = sorted(mf[tied[0]])
            del ms[rng.randrange(len(ms))]
            out.append({**mf, tied[0]: frozenset(ms)})
    return out[:count]


def compare_coherence_routes(monkeypatch, multifields):
    """Run ``is_coherent`` on each multifield and ask the primal route of
    ``reference.strict_feasible`` the same system, at height 0 for every
    vector; returns the Counter of (transposed answer, primal answer)."""
    calls, original = [], simplex.argmin_witness

    def spy(dim, groups):
        calls.append((dim, groups, original(dim, groups)))
        return calls[-1][2]

    monkeypatch.setattr(simplex, "argmin_witness", spy)
    seen = Counter()
    for mf in multifields:
        witness = is_coherent(mf)
        dim, groups, point = calls.pop()
        eqs, gts = argmin_rows([([(v, 0) for v in chosen], [(v, 0) for v in others]) for chosen, others in groups])
        primal = strict_feasible(dim, eqs=eqs, gts=gts)
        assert (point is None) == (witness is None)
        seen[point is not None, primal is not None] += 1
    return seen


def test_coherence_agrees_with_the_primal_route(monkeypatch):
    """The transposed LP of ``argmin_witness`` and the two-phase primal
    simplex give the same yes/no on seeded multifields, with and without a
    dropped matching; every "no" has passed the certificate check."""
    seen = compare_coherence_routes(monkeypatch, coherence_sample(random.Random(41), 300))
    assert set(seen) == {(True, True), (False, False)}
    assert seen[False, False] >= 10


def test_coherence_budget(monkeypatch):
    # a multifield supported on every edge of a 4x8 (70 column sets of 24
    # supported matchings: 1680 LP rows) fits the budget, and one of a 5x8
    # (56 of 120: 6720 rows) does not
    assert 1680 <= COHERENCE_BUDGET < 6720

    def no_lp(dim, groups):
        raise AssertionError("the LP ran past the budget")

    # the 6 column pairs of this 2x4 have 2 supported matchings each: 12 rows
    mf = matching_multifield(TropMatrix([[0, 0, 0, 0], [0, 0, 1, 1]]))
    monkeypatch.setattr("tropstiefel.bipartite.COHERENCE_BUDGET", 12)
    assert is_coherent(mf) is not None
    monkeypatch.setattr("tropstiefel.simplex.argmin_witness", no_lp)
    monkeypatch.setattr("tropstiefel.bipartite.COHERENCE_BUDGET", 11)
    with pytest.raises(DomainError) as exc:
        is_coherent(mf)
    assert exc.value.code == "BUDGET_EXCEEDED" and "12 supported" in str(exc.value) and "budget 11" in str(exc.value)
    # the zero 3x4: 6 supported matchings on each of 4 column triples, each
    # list cut at 5
    dense = matching_multifield(TropMatrix([[0] * 4 for _ in range(3)]))
    monkeypatch.setattr("tropstiefel.bipartite.COHERENCE_BUDGET", 4)
    with pytest.raises(DomainError) as exc:
        is_coherent(dense)
    assert exc.value.code == "BUDGET_EXCEEDED" and "at least 20 supported" in str(exc.value)


def test_hall_surplus_check():
    assert hall_surplus_check(*support_graph(FIG))
    assert hall_surplus_check(2, 4, [(i, j) for i in (1, 2) for j in range(1, 5)])
    G = (2, 3, [(1, 1), (2, 1), (1, 2), (2, 2)])
    assert not hall_surplus_check(*G)


def test_is_support_set():
    assert is_support_set(*support_graph(FIG))
    assert is_support_set(2, 3, [(1, 1), (2, 2), (1, 3), (2, 3)])
    full = (2, 3, [(i, j) for i in (1, 2) for j in (1, 2, 3)])
    assert not is_support_set(*full)


def test_enumerate_support_sets_small():
    out = enumerate_support_sets(2, 3)
    assert len(out) == 6
    for G in out:
        assert is_support_set(*G)
        assert is_tree(G)
        assert len(J_of(G, {1})) == 2 and len(J_of(G, {2})) == 2
    assert len(enumerate_support_sets(1, 4)) == 1
    assert enumerate_support_sets(1, 4)[0] == (1, 4, frozenset((1, j) for j in range(1, 5)))
    for d, n in ((2, 3), (2, 5), (3, 5), (3, 6)):  # lexicographic by edge list, with no sort
        keys = [tuple(sorted(E)) for _, _, E in enumerate_support_sets(d, n)]
        assert keys == sorted(keys), (d, n)


def test_random_support_set_is_uniform():
    """Each support set is one tuple of row choices, so a kept draw is
    uniform over the 600 support sets of (3, 5): Pearson's χ² of 12000
    seeded draws against the reference enumeration lies between the
    0.001 and 0.999 quantiles of χ² with 599 degrees of freedom
    (Wilson–Hilferty)."""
    supports = {tuple(sorted(E)) for _, _, E in enumerate_support_sets(3, 5)}
    assert len(supports) == 600
    rng, draws = random.Random(305), 12000
    counts = dict.fromkeys(supports, 0)
    for _ in range(draws):
        counts[tuple(sorted(random_support_set(rng, 3, 5)))] += 1  # a KeyError is a draw outside the list
    expected = draws / len(supports)
    chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
    k = len(supports) - 1
    low, high = (k * (1 - 2 / (9 * k) + z * math.sqrt(2 / (9 * k))) ** 3 for z in (-3.09, 3.09))
    assert low < chi2 < high, chi2


def test_random_support_set_draws_permutations_uniformly_at_d_equal_n():
    """At d = n the support sets are the 24 perfect matchings of (4, 4):
    Pearson's χ² of 4800 seeded draws lies below 49.73, the 0.999 quantile
    of χ² with 23 degrees of freedom, and every permutation is drawn."""
    rng, draws = random.Random(2904), 4800
    counts = Counter(tuple(j for _, j in sorted(random_support_set(rng, 4, 4))) for _ in range(draws))
    assert sorted(counts) == sorted(itertools.permutations(range(1, 5)))
    expected = draws / 24
    assert sum((c - expected) ** 2 / expected for c in counts.values()) < 49.73, counts


def test_random_support_set_draws_support_sets_and_refuses_past_its_cap():
    rng = random.Random(17)
    for d, n in ((1, 1), (1, 5), (2, 2), (3, 3), (2, 6), (4, 6), (4, 7), (5, 10), (8, 16), (12, 13)):
        for _ in range(5):
            G = (d, n, random_support_set(rng, d, n))
            assert is_support_set(*G), G
    # (12, 13) keeps about 1.6% of its draws, and seed 0's first fails
    with pytest.raises(DomainError) as exc:
        random_support_set(random.Random(0), 12, 13, 1)
    assert exc.value.code == "BUDGET_EXCEEDED" and str(exc.value) == "1 draws on [12] ⊔ [13] found no support set, budget 1"
    # d = n draws one permutation, kept at once: 30 x 30 answers within a one-draw cap
    assert is_support_set(30, 30, random_support_set(random.Random(0), 30, 30, 1))
    with pytest.raises(DomainError) as exc:
        random_support_set(random.Random(0), 2, 3, 0)
    assert exc.value.code == "BUDGET_EXCEEDED"


def test_transversal_matroid_examples():
    assert transversal_matroid(*support_graph(FIG)) == uniform_matroid(3, 5)
    G = (2, 4, [(1, 1), (1, 2)] + [(2, j) for j in range(1, 5)])
    M = transversal_matroid(*G)
    assert M == frozenset(map(frozenset, ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4))))
    empty = transversal_matroid(2, 2, [(1, 1), (2, 1)])
    assert empty == frozenset()


def test_matroid_loops_coloops_connected():
    M = uniform_matroid(2, 4)
    assert not loops(M, 4) and not coloops(M) and matroid_is_connected(M, 4)
    M2 = transversal_matroid(
        2, 4, [(1, 1), (2, 2), (2, 3), (2, 4)]
    )  # bases 12,13,14: 1 is a coloop
    assert coloops(M2) == frozenset({1})
    assert not matroid_is_connected(M2, 4)
    empty = frozenset()
    assert loops(empty, 3) == frozenset({1, 2, 3}) and coloops(empty) == frozenset()


def test_transversal_rank():
    G = (2, 4, [(1, 1), (1, 2)] + [(2, j) for j in range(1, 5)])
    assert transversal_rank(G, {3, 4}) == 1
    assert transversal_rank(G, set()) == 0
    assert transversal_rank(support_graph(FIG), {1, 2, 3}) == 3


def _check_greatest_dual(cost, u, v, match):
    """(u, v, match) of ``assignment``: a matching of every row on its
    edges, with (u, v) feasible, tight on it, 0 off it and ≤ 0 in v, equal
    to the Bellman–Ford fixpoint ``greatest_dual``, and with every column
    with v_j < 0 reached from a column with v = 0 by the path of the
    lemma: from a column m(i) to its row i, then along a tight edge."""
    n = len(cost[0])
    assert sorted(set(match)) == sorted(match) and all(cost[i][j] is not None for i, j in enumerate(match))
    assert all(c is None or c - u[i] - v[j] >= 0 for i, row in enumerate(cost) for j, c in enumerate(row))
    assert all(cost[i][j] == u[i] + v[j] for i, j in enumerate(match))
    assert all(v[j] == 0 for j in range(n) if j not in match) and max(v) <= 0
    assert (u, v) == greatest_dual(cost, match), cost
    owner = {j: i for i, j in enumerate(match)}
    reached = [j for j in range(n) if v[j] == 0]
    seen = set(reached)
    for j in reached:  # grows as it is read
        if j in owner:
            i = owner[j]
            for k, c in enumerate(cost[i]):
                if c is not None and c == u[i] + v[k] and k not in seen:
                    seen.add(k)
                    reached.append(k)
    assert len(seen) == n, cost


def test_assignment_potentials_and_optimal_columns():
    """Seeded queries, d ≤ 5 and n ≤ 8, in halves with 0, 15 or 30% ∞
    entries, on image points with and without slack and on random y: the
    potentials of ``assignment`` on the costs a_ij − y_j are feasible, tight
    on the matching, 0 off it and sum to the least p_J − Σ_{j∈J} y_j, and
    ``optimal_columns`` are the columns of M_y that are not loops, so they
    are all of [n] exactly when circuits put y in L(A).  The potentials are
    the greatest optimal dual: they equal the Bellman–Ford fixpoint
    ``greatest_dual``, every column with v_j < 0 is reached from one with
    v = 0 (the lemma in ``assignment``), its tight edges cover every column
    exactly when y ∈ L(A), and the columns with v_j < 0 meet the
    column-wise dragon condition on them.  A second seeded pass asks the
    same of raw int costs, d ≤ 6 and n ≤ 9, in 0..1 or −9..9, with up to
    40% None and some rows repeated, so that ties abound."""
    rng = random.Random(2003)
    half = lambda k: Fraction(rng.randint(-k, k), rng.choice((1, 2)))
    queries = members = 0
    while queries < 3000:
        d = rng.randint(1, 5)
        n = rng.randint(d, 8)
        inf_prob = rng.choice((0, 0.15, 0.3))
        A = TropMatrix([[INF if rng.random() < inf_prob else half(6) for _ in range(n)] for _ in range(d)])
        try:
            p = stiefel_map(A)
        except DomainError:  # no matching covers every row
            continue
        for _ in range(5):
            if rng.random() < 0.5:
                y = vec_mat_mul(TropVector([rng.randint(-3, 3) for _ in range(d)]), A)
                raise_by = [rng.randint(1, 3) if rng.random() < 0.3 else 0 for _ in entries(y)]
                y = TropVector([v if v is INF else v + r for v, r in zip(entries(y), raise_by)])
            else:
                y = TropVector([half(8) for _ in range(n)])
            if not y.is_finite():
                continue
            unit, a, z = common_ints(A, y)
            cost = [[None if c is None else c - z[j] for j, c in enumerate(row)] for row in a]
            u, v, match = assignment(cost)
            _check_greatest_dual(cost, u, v, match)
            least = min(value - sum(entries(y)[j - 1] for j in J) for J, value in values(p).items() if value is not INF)
            assert sum(u) + sum(v) == unit * least
            columns = optimal_columns(cost)
            assert {j + 1 for j in columns} == set(range(1, n + 1)) - loops(select_matroid(p, y), n)
            assert (len(columns) == n) == contains(p, y), (entries(A), entries(y))
            tight = (d, n, [(i + 1, j + 1) for i, row in enumerate(cost) for j, c in enumerate(row) if c == u[i] + v[j]])
            assert (len({j for _, j in tight[2]}) == n) == contains(p, y), (entries(A), entries(y))
            assert colwise_dragon_condition(tight, [j + 1 for j in range(n) if v[j] < 0]), (entries(A), entries(y))
            members += len(columns) == n
            queries += 1
    assert 500 < members < 2500, members
    solved = 0
    while solved < 3000:
        d = rng.randint(1, 6)
        n = rng.randint(d, 9)
        lo, hi = rng.choice(((0, 1), (-9, 9)))
        none_prob = rng.choice((0, 0.2, 0.4))
        cost = []
        for _ in range(d):
            if cost and rng.random() < 0.2:
                cost.append(list(rng.choice(cost)))
            else:
                cost.append([None if rng.random() < none_prob else rng.randint(lo, hi) for _ in range(n)])
        try:
            u, v, match = assignment(cost)
        except DomainError as exc:
            assert exc.code == "NO_MATCHING_IN_SUPPORT"
            continue
        _check_greatest_dual(cost, u, v, match)
        solved += 1


def test_assignment_refuses_a_support_without_matching():
    """A row that reaches no free column ends the solve with
    NO_MATCHING_IN_SUPPORT, which ``decompose`` raises after BAD_POINT and
    the column checks, as before it had the assignment.  Where two
    assignments tie, the potentials make both tight."""
    for cost in ([[0, 1], [None, None]], [[0], [2]], [[0, None, None], [1, None, None], [None, 0, 5]]):
        with pytest.raises(DomainError) as exc:
            assignment(cost)
        assert exc.value.code == "NO_MATCHING_IN_SUPPORT"
    assert assignment([[3, 1, None], [2, 0, 7]]) == ([3, 2], [0, -2, 0], [1, 0])  # both assignments cost 3
    for entries, y, code in (
        ([[0, 0], ["inf", "inf"]], [0, 0], "NO_MATCHING_IN_SUPPORT"),
        ([[0], [0]], [0], "NO_MATCHING_IN_SUPPORT"),
        ([[0, "inf"], [0, "inf"]], [0, 0], "EMPTY_COLUMN"),
        ([[0, 0], ["inf", "inf"]], [0, "inf"], "BAD_POINT"),
    ):
        with pytest.raises(DomainError) as exc:
            decompose(TropMatrix(entries), TropVector(y))
        assert exc.value.code == code


def test_transversal_rank_matches_max_matching():
    rng = random.Random(11)
    for _ in range(500):
        d = rng.randint(1, 4)
        n = rng.randint(d, 7)
        edges = [
            (i, j)
            for i in range(1, d + 1)
            for j in range(1, n + 1)
            if rng.random() < 0.5
        ]
        G = (d, n, edges)
        S = frozenset(j for j in range(1, n + 1) if rng.random() < 0.5)
        assert transversal_rank(G, S) == _max_matching_size(G, S)


def test_dragon_condition():
    assert dragon_condition(2, 4, [(2, 1), (2, 2), (1, 3), (1, 4)])
    assert not dragon_condition(2, 4, [(1, 1), (1, 2), (1, 3), (1, 4)])
    vertex = (3, 4, [(1, 1), (1, 2), (2, 2), (2, 3), (3, 3), (3, 4)])
    assert dragon_condition(*vertex)


def test_colwise_dragon_condition():
    vertex = (3, 4, [(1, 1), (1, 2), (2, 2), (2, 3), (3, 3), (3, 4)])
    assert colwise_dragon_condition(vertex, {2, 3})
    assert not colwise_dragon_condition(vertex, {1})
    assert colwise_dragon_condition(vertex, set())


def column_scan(G, J, k):
    """The reference Hall-type scan: |I_{J'}| >= |J'| + k for each of the
    2^|J| − 1 nonempty J' ⊆ J, one bit mask at a time."""
    J = sorted(set(J))
    for mask in range(1, 2 ** len(J)):
        Jp = {j for b, j in enumerate(J) if mask >> b & 1}
        if len({i for i, j in G[2] if j in Jp}) < len(Jp) + k:
            return False
    return True


@st.composite
def graphs_and_columns(draw):
    """A graph with d <= 6 rows and n <= 8 columns, the support of a matrix
    with a random ∞ pattern, and a column set J."""
    d = draw(st.integers(0, 6))
    n = draw(st.integers(0, 8))
    entry_is_finite = st.sampled_from([True, True, True, False])
    finite = draw(st.lists(st.lists(entry_is_finite, min_size=n, max_size=n), min_size=d, max_size=d))
    edges = [(i + 1, j + 1) for i, row in enumerate(finite) for j, f in enumerate(row) if f]
    in_J = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return (d, n, edges), {j + 1 for j, b in enumerate(in_J) if b}


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(graphs_and_columns())
def test_hall_scans_against_column_scan(case):
    """The column-wise dragon condition on J directly; the row-wise one and
    the support-set surplus, which the library answers by assignment
    problems, as column scans of the transposed graph and as the reference
    scan over row sets (k = n − d < 0 when d > n)."""
    G, J = case
    d, n, edges = G
    T = (n, d, [(j, i) for i, j in edges])
    rows = range(1, d + 1)
    assert colwise_dragon_condition(G, J) == column_scan(G, J, 1)
    assert dragon_condition(*G) == column_scan(T, rows, 1) == _hall_surplus(rows, lambda I: J_of(G, I), 1)
    assert hall_surplus_check(*G) == column_scan(T, rows, n - d) == _hall_surplus(rows, lambda I: J_of(G, I), n - d)


def test_spanning_tree_no_left_leaves():
    T0 = (2, 3, frozenset([(1, 1), (1, 2), (2, 2), (2, 3)]))
    assert spanning_tree_no_left_leaves(T0) == T0
    full = (2, 3, [(i, j) for i in (1, 2) for j in (1, 2, 3)])
    T = spanning_tree_no_left_leaves(full)
    assert is_tree(T) and len(J_of(T, {1})) >= 2 and len(J_of(T, {2})) >= 2
    T2 = spanning_tree_no_left_leaves(support_graph(FIG))
    assert is_tree(T2) and all(len(J_of(T2, {i})) >= 2 for i in (1, 2, 3))


def test_spanning_tree_preconditions():
    with pytest.raises(DomainError):
        spanning_tree_no_left_leaves((2, 2, [(1, 1), (1, 2), (2, 1), (2, 2)]))


def test_support_face_dimension():
    assert support_face_dimension(FIG.support()) == 2
    pointed = [(1, 1), (2, 2), (1, 3), (2, 3), (1, 4), (2, 4)]
    assert support_face_dimension(pointed) == 1
    tree = [(1, 1), (1, 2), (2, 2), (2, 3)]
    assert support_face_dimension(tree) == 0
    # isolated vertices count once in V and once in C: the graphs on which
    # all vertices and the non-isolated ones could give different values;
    # h1 reads the edges alone, so every edgeless graph is one case
    assert support_face_dimension([]) == 0
    square = [(1, 1), (1, 2), (2, 1), (2, 2)]  # in 4 x 5: rows 3, 4 and columns 3–5 isolated
    assert support_face_dimension(square) == 1
    inner = [(2, 2), (2, 3), (3, 2), (3, 3), (3, 4), (4, 4), (4, 3)]  # in 4 x 5: row 1, columns 1 and 5 isolated
    assert support_face_dimension(inner) == 2


def test_support_sets_give_uniform_matroid_and_multifields():
    rng = random.Random(3)
    for G in enumerate_support_sets(2, 4):
        assert transversal_matroid(*G) == uniform_matroid(2, 4)
        entries = [
            [rng.randint(0, 4) if (i, j) in G[2] else INF for j in range(1, 5)]
            for i in range(1, 3)
        ]
        matching_multifield(TropMatrix(entries))  # must not raise


def test_hall_surplus_scan_is_a_uniform_transversal_matroid():
    """Hall's theorem: every column d-set of G is matchable exactly when
    |J_I| >= n − d + |I| for every nonempty row set I; no d-set exists when
    d > n, so the transversal matroid is then the empty U(d, n)."""
    rng = random.Random(18)
    seen = set()
    for _ in range(600):
        d, n = rng.randint(1, 5), rng.randint(1, 8)
        density = rng.choice((0.3, 0.6, 0.85, 1.0))
        empty = set(rng.sample(range(1, n + 1), rng.randint(0, n // 3)))  # columns with no edge
        edges = [(i, j) for i in range(1, d + 1) for j in range(1, n + 1) if j not in empty and rng.random() < density]
        G = (d, n, edges)
        uniform = d > n or hall_surplus_check(*G)
        assert (transversal_matroid(*G) == uniform_matroid(d, n)) == uniform, (d, n, sorted(edges))
        seen.add((d > n, uniform))
    assert seen == {(True, True), (False, True), (False, False)}


def test_json_roundtrips():
    G = support_graph(FIG)
    assert graph_from_json(graph_to_json(G)) == G
    mf = matching_multifield(STAIR)
    assert multifield_from_json(multifield_to_json(mf)) == mf
    # seeded multifields with ties and ∞, their JSON keys shuffled: the
    # reader gives the same dict, keyed in ``subsets`` order
    rng, seen = random.Random(54), 0
    while seen < 200:
        d = rng.randint(1, 3)
        n = rng.randint(d, 6)
        A = TropMatrix([[rng.choice([INF, 0, 0, 1, 2, Fraction(1, 2)]) for _ in range(n)] for _ in range(d)])
        try:
            mf = matching_multifield(A)
        except DomainError:
            continue
        doc = multifield_to_json(mf)
        keys = list(doc["choices"])
        rng.shuffle(keys)
        back = multifield_from_json({**doc, "choices": {key: doc["choices"][key] for key in keys}})
        assert back == mf and list(back) == list(mf) == list(subsets(n, d)), entries(A)
        seen += 1


def test_hall_scans_budget():
    # the reference scans fit 2^16 − 1 row or column subsets in their budget
    # and not 2^17 − 1, and refuse before the first subset; the library's
    # checks, d assignment problems, answer on the complete 17x18 graph
    assert (2 ** 16 - 1) <= HALL_BUDGET < 2 ** 17 - 1
    assert next(_nonempty_subsets(range(1, 17))) == (1,)
    G = (17, 18, [(i, j) for i in range(1, 18) for j in range(1, 19)])
    assert hall_surplus_check(*G) and dragon_condition(*G)
    for scan in (
        lambda G: transversal_rank(G, {1}),
        transversal_polytope_ineqs,
        lambda G: colwise_dragon_condition(G, range(1, 18)),
    ):
        with pytest.raises(DomainError) as exc:
            scan(G)
        assert exc.value.code == "BUDGET_EXCEEDED" and "budget 100000" in str(exc.value)


def separable(M, n):
    """The reference connectivity check: some separation [n] = S ⊔ T with
    rank(S) + rank(T) = rank([n])."""
    rank = lambda S: max(len(b & S) for b in M)
    ground = frozenset(range(1, n + 1))
    return any(
        rank(frozenset(S)) + rank(ground - frozenset(S)) == rank(ground)
        for r in range(1, n // 2 + 1) for S in itertools.combinations(sorted(ground), r)
    )


def test_is_connected_against_separations():
    """Transversal matroids of random graphs and the selected matroids of
    random Stiefel images at random points."""
    rng = random.Random(2585)
    matroids = []
    for _ in range(150):
        d = rng.randint(1, 3)
        n = rng.randint(d, 6)
        G = (d, n, [(i, j) for i in range(1, d + 1) for j in range(1, n + 1) if rng.random() < 0.6])
        matroids.append((transversal_matroid(*G), n))
        A = TropMatrix([["inf" if rng.random() < 0.2 else rng.randint(0, 4) for _ in range(n)] for _ in range(d)])
        try:
            p = stiefel_map(A)
        except DomainError:
            continue
        matroids.append((select_matroid(p, TropVector([rng.randint(-3, 3) for _ in range(n)])), n))
    connected = 0
    for M, n in matroids:
        expected = bool(M) and not separable(M, n)
        assert matroid_is_connected(M, n) == expected
        connected += expected
    assert connected > 50 and len(matroids) - connected > 50
