"""Seeded inputs, operations and independent output checks for each workload.

Inputs are plain integer matrices (``None`` stands for ∞) drawn from a
``random.Random`` seeded by the workload name and the run's seed.  The CLI
workloads hand the program JSON text only; the library workload builds the
package's own objects from the same plain lists.  Every check recomputes the
expected answer by a route that shares no code with the package: brute force
over permutations for tropical minors, direct minima for covectors and the
min-plus image.
"""

from __future__ import annotations

import itertools
import json
import math
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable


class VerifyError(Exception):
    """An output that disagrees with the benchmark's own computation."""


@dataclass
class Op:
    """One operation: a CLI command (``argv`` and ``stdin``) or a library call.

    ``check`` receives the command's standard output, or the call's return
    value, and raises ``VerifyError`` when it is wrong.
    """

    kind: str
    check: Callable[[object], None]
    argv: list | None = None
    stdin: str = ""
    call: Callable[[], object] | None = None


def ensure(cond, message):
    if not cond:
        raise VerifyError(message)


# ---------------------------------------------------------------------------
# Plain min-plus helpers (the benchmark's independent route)
# ---------------------------------------------------------------------------

def scalar_text(v):
    return "inf" if v is None else str(v)


def parse_scalar(text):
    return None if text == "inf" else Fraction(text)


def matrix_json(E):
    return {"d": len(E), "n": len(E[0]), "entries": [[scalar_text(v) for v in row] for row in E]}


def assignments(E, cols):
    """(value, matching) for every perfect matching of the rows into ``cols``;
    a matching is the frozenset of its 1-based (row, column) edges."""
    for perm in itertools.permutations(cols):
        total = 0
        for i, j in enumerate(perm):
            a = E[i][j - 1]
            if a is None:
                break
            total += a
        else:
            yield total, frozenset((i + 1, j) for i, j in enumerate(perm))


def min_assignment(E, cols):
    """The tropical minor on ``cols`` (``None`` for ∞) and its argmin matchings."""
    best, argmin = None, set()
    for value, matching in assignments(E, cols):
        if best is None or value < best:
            best, argmin = value, {matching}
        elif value == best:
            argmin.add(matching)
    return best, frozenset(argmin)


def stiefel_brute(E):
    d, n = len(E), len(E[0])
    return {J: min_assignment(E, J)[0] for J in itertools.combinations(range(1, n + 1), d)}


def multifield_brute(E):
    d, n = len(E), len(E[0])
    return {J: min_assignment(E, J)[1] for J in itertools.combinations(range(1, n + 1), d)}


def image(E, x):
    """x ⊙ E: per column the minimum of x_i + e_ij over finite entries."""
    return [
        min(x[i] + E[i][j] for i in range(len(E)) if E[i][j] is not None)
        for j in range(len(E[0]))
    ]


def covector_of_point(E, x):
    """Per column, the sorted 1-based rows attaining min_i (x_i + e_ij)."""
    y = image(E, x)
    return tuple(
        tuple(i + 1 for i in range(len(E)) if E[i][j] is not None and x[i] + E[i][j] == y[j])
        for j in range(len(E[0]))
    )


def selected_bases(p, y):
    """Bases of the matroid selected by y: the argmin of p_J - Σ_{j∈J} y_j."""
    vals = {J: v - sum(y[j - 1] for j in J) for J, v in p.items() if v is not None}
    best = min(vals.values())
    return {J for J, v in vals.items() if v == best}


def has_matching(E):
    d, n = len(E), len(E[0])
    return any(
        next(assignments(E, J), None) is not None
        for J in itertools.combinations(range(1, n + 1), d)
    )


def random_matrix(rng, d, n, lo, hi, n_inf=0):
    """A d×n integer matrix with ``n_inf`` ∞ entries (n_inf < n, d ≥ 2 when
    n_inf > 0) in distinct columns, spread over the rows in turn, and with a
    perfect matching of the rows in its support.  Keeping the ∞ entries in
    distinct columns fixes the number of column choice functions, so the
    cost of an instance depends little on where its ∞ entries fall."""
    while True:
        E = [[rng.randint(lo, hi) for _ in range(n)] for _ in range(d)]
        rows = rng.sample(range(d), d)
        for k, j in enumerate(rng.sample(range(n), n_inf)):
            E[rows[k % d]][j] = None
        if has_matching(E):
            return E


def staircase_matrix(rng, d, n, lo, hi, extra=0.0):
    """Row i is finite on columns i..i+n-d (a support set), plus each other
    entry with probability ``extra``."""
    return [
        [
            rng.randint(lo, hi) if i <= j <= i + n - d or rng.random() < extra else None
            for j in range(n)
        ]
        for i in range(d)
    ]


def subset_key(J):
    return ",".join(str(j) for j in J)


# ---------------------------------------------------------------------------
# geometry: covector complexes, subdivisions and SVG through the CLI
# ---------------------------------------------------------------------------

GEOMETRY_CYCLE = (
    # (command, d, n, ∞ entries).  Costs fall into three groups: the light
    # bounded 2x8 op (about 0.4 s per cold process), seven middle ops
    # (0.7-1.4 s) and one heavy dense 3x6 op (2-3 s), which alternates
    # between covectors and facets from cycle to cycle (GEOMETRY_HEAVY).
    # The middle group holds three quarters of the ops, so the median and
    # the tail order statistic of a run both fall well inside it rather
    # than on a group boundary, where they would jump from seed to seed.
    # The 3x6 and 3x7 matrices carry 4 and 5 ∞ entries (22-24%), which
    # keeps them in the middle group.
    ("bounded", 2, 8, 0),
    ("covectors", 3, 5, 0),
    ("facets", 3, 5, 2),
    ("covectors", 3, 6, 4),
    ("facets", 3, 6, 4),
    ("render", 3, 6, 4),
    ("covectors", 3, 7, 5),
    ("facets", 3, 7, 5),
)
GEOMETRY_HEAVY = (("covectors", 3, 6, 0), ("facets", 3, 6, 0))
GEOMETRY_SMOKE = (
    ("covectors", 2, 4, 0),
    ("facets", 3, 4, 1),
    ("render", 2, 4, 0),
    ("bounded", 2, 4, 0),
)
GEOMETRY_ARGV = {
    "covectors": ["covectors"],
    "facets": ["facets"],
    "render": ["render"],
    "bounded": ["bounded", "--format", "svg"],
}
GEOMETRY_RANGE = (-50, 50)


def sample_points(rng, E, count):
    """Gauge-fixed points (x_1 = 0): half of them uniform with some
    half-integers, half placed on a tie of two rows in a random column, so
    that lower-dimensional cells are hit too."""
    d, n = len(E), len(E[0])
    points = []
    for k in range(count):
        x = [Fraction(0)] + [Fraction(rng.randint(-220, 220), 2) for _ in range(d - 1)]
        if k % 2:
            j = rng.randrange(n)
            rows = [i for i in range(d) if E[i][j] is not None]
            if len(rows) >= 2:
                a, b = rng.sample(rows, 2)
                if b == 0:
                    a, b = b, a
                x[b] = x[a] + E[a][j] - E[b][j]
        points.append(x)
    return points


def check_covectors(E, points):
    def check(out):
        cells = json.loads(out)
        emitted = {tuple(tuple(I) for I in c["covector"]) for c in cells}
        ensure(len(emitted) == len(cells), "duplicate covectors")
        ensure(all(0 <= c["dim"] < len(E) for c in cells), "cell dimension out of range")
        for x in points:
            cov = covector_of_point(E, x)
            ensure(cov in emitted, f"covector {cov} of a sampled point is missing")
    return check


def check_facets(E, ys):
    p = stiefel_brute(E)

    def check(out):
        facets = [{tuple(b) for b in F} for F in json.loads(out)]
        ensure(facets, "no facets")
        for y in ys:
            bases = selected_bases(p, y)
            ensure(any(bases <= F for F in facets), f"selected matroid of {y} lies in no facet")
    return check


def check_svg(out):
    try:
        root = ET.fromstring(out)
    except ET.ParseError as exc:
        raise VerifyError(f"SVG does not parse: {exc}") from None
    ensure(root.tag.endswith("svg"), "root element is not <svg>")


def geometry_op(rng, cmd, d, n, n_inf):
    lo, hi = GEOMETRY_RANGE
    E = random_matrix(rng, d, n, lo, hi, n_inf)
    if cmd == "covectors":
        check = check_covectors(E, sample_points(rng, E, 24))
    elif cmd == "facets":
        ys = [[rng.randint(2 * lo, 2 * hi) for _ in range(n)] for _ in range(8)]
        xs = [[rng.randint(lo, hi) for _ in range(d)] for _ in range(8)]
        check = check_facets(E, ys + [image(E, x) for x in xs])
    else:
        check = check_svg
    kind = f"{cmd} {d}x{n}" + (" inf" if n_inf else " dense")
    return Op(kind, check, argv=GEOMETRY_ARGV[cmd], stdin=json.dumps(matrix_json(E)))


def geometry_cycles(rng, smoke=False):
    for k in itertools.count():
        specs = GEOMETRY_SMOKE if smoke else GEOMETRY_CYCLE + (GEOMETRY_HEAVY[k % 2],)
        yield [geometry_op(rng, *spec) for spec in specs]


# ---------------------------------------------------------------------------
# membership: library queries y ∈ L(A) by three routes
# ---------------------------------------------------------------------------

# Matrices are 3×5, within the acceptance suite's membership draws: the
# first query of a matrix builds TC(A) (0.5-1 s), the rest run the decompose
# search (50-100 ms each).  A 3×5 matrix costs a third of a 3×6 one, so a
# run covers about twenty matrices and the matrix-to-matrix spread of the
# cost averages out.  Shapes with d < 3 answer in under a millisecond,
# which measures call overhead and would put the median between the modes
# of different shapes.
MEMBERSHIP_SHAPE = (3, 5)
MEMBERSHIP_SMOKE_SHAPE = (2, 4)
MATRICES_PER_CYCLE = 5
QUERIES_PER_MATRIX = 10
IMAGE_EVERY = 4  # every fourth query is an image point x⊙A, the rest random


def membership_matrix(rng, d, n, with_inf):
    """Entries in [-2, 3] as in the acceptance suite's draws; a matrix with
    ∞ entries has one.  More of them make TC(A) much cheaper, which would
    split the first queries into two cost groups."""
    return random_matrix(rng, d, n, -2, 3, 1 if with_inf else 0)


def check_membership(E, y, is_image):
    def check(result):
        a, b, cert = result
        ensure(a == b == (cert is not None), f"routes disagree: circuits={a} matroid={b} decompose={cert is not None}")
        ensure(a or not is_image, "an image point x⊙A was rejected")
        if cert is None:
            return
        from tropstiefel.linspace import certificate_to_json

        c = certificate_to_json(cert)
        x = [Fraction(v) for v in c["x"]]
        slack = [Fraction(v) for v in c["slack"]]
        J = set(c["J"])
        img = image(E, x)
        for j in range(len(y)):
            ensure(y[j] == img[j] + slack[j], f"y != x⊙A + slack at column {j + 1}")
            ensure(slack[j] > 0 if j + 1 in J else slack[j] == 0, f"slack sign wrong at column {j + 1}")
        tc = covector_of_point(E, x)
        for j, I in enumerate(c["covector"]):
            ensure(set(I) <= set(tc[j]), "certificate point is not in its covector's cell")
    return check


def membership_queries(rng, d, n, with_inf, queries):
    """``queries`` ops on one fresh matrix; the first also computes π(A)."""
    from tropstiefel.core import TropMatrix, TropVector
    from tropstiefel.linspace import contains, contains_via_matroid, decompose
    from tropstiefel.plucker import stiefel_map

    E = membership_matrix(rng, d, n, with_inf)
    A = TropMatrix([[scalar_text(v) for v in row] for row in E])
    held = {}
    ops = []
    for q in range(queries):
        is_image = q % IMAGE_EVERY == 0
        if is_image:
            y = image(E, [Fraction(rng.randint(-3, 3)) for _ in range(d)])
        else:
            y = [Fraction(rng.randint(-8, 8), rng.randint(1, 2)) for _ in range(n)]
        Y = TropVector([str(v) for v in y])

        def call(Y=Y):
            if "p" not in held:
                held["p"] = stiefel_map(A)
            p = held["p"]
            return contains(p, Y), contains_via_matroid(p, Y), decompose(A, Y)

        ops.append(Op(f"member {d}x{n}", check_membership(E, y, is_image), call=call))
    return ops


def membership_cycles(rng, smoke=False):
    """Cycles of five fresh matrices, two of them with ∞ entries."""
    d, n = MEMBERSHIP_SMOKE_SHAPE if smoke else MEMBERSHIP_SHAPE
    queries = 4 if smoke else QUERIES_PER_MATRIX
    while True:
        yield [
            op
            for k in range(MATRICES_PER_CYCLE)
            for op in membership_queries(rng, d, n, k in (1, 3), queries)
        ]


# ---------------------------------------------------------------------------
# minors: Stiefel map, multifields, Plücker relations, coherence via the CLI
# ---------------------------------------------------------------------------

MINORS_CYCLE = (
    # (command, d, n, support); "stair" is a staircase support set, with a
    # few extra finite entries for the 6×12 matrices.  Sorted by cost, the
    # kinds run from coherent (0.2 s per cold process) to plucker-check 5x10
    # (1.2 s); plucker-check 4x10 comes twice so that the median of a run
    # falls inside its group (0.6 s), not between two groups.
    ("plucker-check", 4, 10, "dense"),
    ("stiefel", 6, 12, "dense"),
    ("coherent", 2, 8, "dense"),
    ("multifield", 6, 12, "stair"),
    ("plucker-check", 4, 10, "dense"),
    ("member", 6, 12, "dense"),
    ("coherent", 3, 6, "stair"),
    ("stiefel", 6, 12, "stair"),
    ("plucker-check", 5, 10, "stair"),
    ("multifield", 6, 12, "dense"),
    ("member", 6, 12, "stair"),
)
MINORS_SMOKE = (
    ("stiefel", 3, 6, "dense"),
    ("multifield", 3, 6, "stair"),
    ("plucker-check", 2, 5, "dense"),
    ("member", 3, 6, "stair"),
    ("coherent", 2, 4, "dense"),
)
MINORS_RANGE = (0, 20)
SAMPLED_MINORS = 12


def check_stiefel(E, rng):
    d, n = len(E), len(E[0])
    sample = rng.sample(list(itertools.combinations(range(1, n + 1), d)), min(SAMPLED_MINORS, math.comb(n, d)))

    def check(out):
        values = json.loads(out)["values"]
        ensure(len(values) == math.comb(n, d), "wrong number of Plücker coordinates")
        for J in sample:
            want = min_assignment(E, J)[0]
            ensure(parse_scalar(values[subset_key(J)]) == want, f"p_{J} differs from brute force")
    return check


def parse_matchings(edge_lists):
    return frozenset(frozenset(tuple(e) for e in m) for m in edge_lists)


def check_multifield(E, rng):
    d, n = len(E), len(E[0])
    sample = rng.sample(list(itertools.combinations(range(1, n + 1), d)), min(SAMPLED_MINORS, math.comb(n, d)))

    def check(out):
        choices = json.loads(out)["choices"]
        ensure(len(choices) == math.comb(n, d), "wrong number of column subsets")
        for J in sample:
            want = min_assignment(E, J)[1]
            ensure(parse_matchings(choices[subset_key(J)]) == want, f"optimal matchings on {J} differ")
    return check


def check_answer(key, want):
    def check(out):
        got = json.loads(out).get(key)
        ensure(got is want, f"{key} is {got}, expected {want}")
    return check


def check_coherent(mf):
    def check(out):
        obj = json.loads(out)
        ensure(obj.get("coherent") is True, "multifield of a matrix reported incoherent")
        W = [[parse_scalar(v) for v in row] for row in obj["witness"]["entries"]]
        ensure(multifield_brute(W) == mf, "witness does not reproduce the multifield")
    return check


def minors_op(rng, cmd, d, n, support):
    lo, hi = MINORS_RANGE
    if support == "dense":
        E = random_matrix(rng, d, n, lo, hi)
    else:
        E = staircase_matrix(rng, d, n, lo, hi, extra=0.1 if cmd != "coherent" else 0.0)
    kind = f"{cmd} {d}x{n} {support}"
    if cmd == "stiefel":
        return Op(kind, check_stiefel(E, rng), argv=["stiefel"], stdin=json.dumps(matrix_json(E)))
    if cmd == "multifield":
        return Op(kind, check_multifield(E, rng), argv=["multifield"], stdin=json.dumps(matrix_json(E)))
    if cmd == "member":
        # dense: an image point, so y ∈ L(A).  stair: an image point with
        # one coordinate sunk far below the rest, so some circuit's
        # minimum is attained once and y ∉ L(A) (all minors are finite
        # because the support contains a support set).
        y = image(E, [rng.randint(lo, hi) for _ in range(d)])
        inside = support == "dense"
        if not inside:
            y[rng.randrange(n)] -= 1000
        obj = {"matrix": matrix_json(E), "vector": {"entries": [str(v) for v in y]}}
        return Op(kind, check_answer("in_L", inside), argv=["member"], stdin=json.dumps(obj))
    if cmd == "plucker-check":
        p = stiefel_brute(E)
        obj = {"d": d, "n": n, "values": {subset_key(J): scalar_text(v) for J, v in p.items()}}
        return Op(kind, check_answer("is_plucker", True), argv=["plucker-check"], stdin=json.dumps(obj))
    mf = multifield_brute(E)
    choices = {
        subset_key(J): sorted(sorted(list(e) for e in m) for m in ms)
        for J, ms in mf.items()
    }
    obj = {"d": d, "n": n, "choices": choices}
    return Op(kind, check_coherent(mf), argv=["coherent"], stdin=json.dumps(obj))


def minors_cycles(rng, smoke=False):
    specs = MINORS_SMOKE if smoke else MINORS_CYCLE
    while True:
        yield [minors_op(rng, *spec) for spec in specs]


# Each workload yields cycles: lists of ops with a fixed mix.  BENCHMARK.json
# lists geometry and membership; minors runs on request only, because a third
# workload would halve the run length the benchmark's time limit allows, and
# shorter runs spread too much on a shared machine.
WORKLOADS = {
    "geometry": geometry_cycles,
    "membership": membership_cycles,
    "minors": minors_cycles,
}
# Op time of one cycle on the machine the benchmark was sized on (2 cores,
# Python 3.11).  A run of S seconds does round(S / CYCLE_SECONDS) cycles, at
# least one, so every run does the same work and has the same number of ops
# whatever the speed of the machine or of the code under test.
CYCLE_SECONDS = {"geometry": 9.0, "membership": 7.0, "minors": 7.0}
CLI_WORKLOADS = ("geometry", "minors")
