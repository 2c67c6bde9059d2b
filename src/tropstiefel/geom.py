"""Exact rational linear algebra and small-scale polyhedral computation.

Feasibility of systems mixing equalities, weak and strict inequalities;
relative-interior points; affine dimension; vertices.  Two engines sit
underneath:

* ``DifferenceBounds``, a closed integer difference-bound matrix, for
  systems whose every constraint has the form x_i - x_j >= b, x_i >= b or
  -x_i >= b: covector cells, covector decompositions and their cones.
  Rational constants are scaled to integers by the LCM of their
  denominators, and strict bounds are exact through one ε = 1/(V+1) fixed
  by the number of nodes V.  The projection of a closed matrix onto some of
  its nodes is its restriction to them, emitted in minimal form;
* a two-phase exact simplex with Bland's rule over Fractions for the
  systems that are not differences (coherence witnesses, cell existence in
  the hypersimplex subdivision).  There each strict constraint a·x > b is
  relaxed to a·x >= b + ε and ε is maximized; the system is strictly
  feasible iff the optimum has ε > 0.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


class _Infeasible:
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "Infeasible"

    def __bool__(self):
        return False


INFEASIBLE = _Infeasible()


def _vec(coeffs, dim):
    v = [ZERO] * dim
    for k, c in enumerate(coeffs):
        v[k] = Fraction(c)
    return tuple(v)


class LinearConstraintSystem:
    """Equalities a·x = b, weak inequalities a·x >= b, strict a·x > b."""

    __slots__ = ("dim", "eqs", "ges", "gts")

    def __init__(self, dim, eqs=(), ges=(), gts=()):
        self.dim = dim
        self.eqs = tuple((_vec(a, dim), Fraction(b)) for a, b in eqs)
        self.ges = tuple((_vec(a, dim), Fraction(b)) for a, b in ges)
        self.gts = tuple((_vec(a, dim), Fraction(b)) for a, b in gts)

    def satisfied_by(self, x):
        dot = lambda a: sum(c * v for c, v in zip(a, x))
        return (
            all(dot(a) == b for a, b in self.eqs)
            and all(dot(a) >= b for a, b in self.ges)
            and all(dot(a) > b for a, b in self.gts)
        )


# ---------------------------------------------------------------------------
# Exact Gaussian elimination helpers
# ---------------------------------------------------------------------------

def row_reduce(rows):
    """Reduced row echelon form.  Returns (nonzero rows, pivot column list)."""
    mat = [list(map(Fraction, r)) for r in rows]
    pivots = []
    r = 0
    ncols = len(mat[0]) if mat else 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        pivots.append(c)
        _pivot(mat, pivots, r, c)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots


def matrix_rank(rows):
    if not rows:
        return 0
    return len(row_reduce(rows)[0])


def solve_affine(eqs, dim):
    """Solve a·x = b exactly.

    Returns None if inconsistent, else (particular point, nullspace basis).
    """
    if not eqs:
        return tuple([ZERO] * dim), [tuple(ONE if i == j else ZERO for j in range(dim)) for i in range(dim)]
    aug = [list(a) + [b] for a, b in eqs]
    red, pivots = row_reduce(aug)
    if dim in pivots:
        return None
    point = [ZERO] * dim
    for row, c in zip(red, pivots):
        point[c] = row[dim]
    free = [c for c in range(dim) if c not in pivots]
    basis = []
    for f in free:
        v = [ZERO] * dim
        v[f] = ONE
        for row, c in zip(red, pivots):
            v[c] = -row[f]
        basis.append(tuple(v))
    return tuple(point), basis


# ---------------------------------------------------------------------------
# Exact two-phase simplex (maximization), Bland's rule
# ---------------------------------------------------------------------------

def _pivot(tab, basis, r, c):
    """One Gauss–Jordan step: scale row r to 1 at column c, clear column c
    from every other row, and record c as the basic column of row r."""
    inv = ONE / tab[r][c]
    tab[r] = [v * inv for v in tab[r]]
    prow = tab[r]
    for i in range(len(tab)):
        if i != r and tab[i][c] != 0:
            f = tab[i][c]
            tab[i] = [v - f * w for v, w in zip(tab[i], prow)]
    basis[r] = c


def _set_objective(tab, basis, c):
    """Install the reduced-cost row for maximizing c·x given the basis."""
    ncols = len(tab[0])
    obj = [(-c[j] if j < len(c) else ZERO) for j in range(ncols)]
    m = len(tab) - 1
    for i in range(m):
        cb = c[basis[i]] if basis[i] < len(c) else ZERO
        if cb:
            row = tab[i]
            for j in range(ncols):
                obj[j] += cb * row[j]
    tab[-1] = obj


def _run_simplex(tab, basis, nvars):
    """Iterate to optimality.  Returns 'optimal' or 'unbounded'."""
    m = len(tab) - 1
    rhs = len(tab[0]) - 1
    while True:
        obj = tab[-1]
        col = next((j for j in range(nvars) if obj[j] < 0), None)
        if col is None:
            return "optimal"
        best = None
        for i in range(m):
            a = tab[i][col]
            if a > 0:
                ratio = tab[i][rhs] / a
                if best is None or ratio < best[0] or (ratio == best[0] and basis[i] < basis[best[1]]):
                    best = (ratio, i)
        if best is None:
            return "unbounded"
        _pivot(tab, basis, best[1], col)


def lp_solve(dim, eqs, ges, objective):
    """Maximize objective·x subject to eqs and ges over free variables.

    Returns (status, point, value) with status in
    {'optimal', 'unbounded', 'infeasible'}; point/value are None unless
    optimal.
    """
    ges = list(ges)
    nreal = 2 * dim + len(ges)  # x_k = u_k - v_k, one surplus var per >=

    rows = []
    for a, b in eqs:
        rows.append(([Fraction(v) for v in a] + [-Fraction(v) for v in a] + [ZERO] * len(ges), Fraction(b)))
    for idx, (a, b) in enumerate(ges):
        s = [ZERO] * len(ges)
        s[idx] = -ONE
        rows.append(([Fraction(v) for v in a] + [-Fraction(v) for v in a] + s, Fraction(b)))

    m = len(rows)
    if m == 0:
        return "optimal" if all(v == 0 for v in objective) else "unbounded", tuple([ZERO] * dim), ZERO

    # Phase 1 tableau with one artificial variable per row.
    tab = []
    for i, (a, b) in enumerate(rows):
        if b < 0:
            a = [-v for v in a]
            b = -b
        art = [ZERO] * m
        art[i] = ONE
        tab.append(a + art + [b])
    basis = [nreal + i for i in range(m)]
    tab.append([ZERO] * (nreal + m + 1))
    c1 = [ZERO] * nreal + [-ONE] * m
    _set_objective(tab, basis, c1)
    _run_simplex(tab, basis, nreal + m)
    if tab[-1][-1] < 0:
        return "infeasible", None, None

    # Drive remaining artificials out of the basis, then drop their columns.
    drop_rows = []
    for i in range(m):
        if basis[i] >= nreal:
            col = next((j for j in range(nreal) if tab[i][j] != 0), None)
            if col is None:
                drop_rows.append(i)
            else:
                _pivot(tab, basis, i, col)
    for i in sorted(drop_rows, reverse=True):
        del tab[i]
        del basis[i]
    tab = [row[:nreal] + [row[-1]] for row in tab]

    c2 = [Fraction(v) for v in objective] + [-Fraction(v) for v in objective] + [ZERO] * len(ges)
    _set_objective(tab, basis, c2)
    status = _run_simplex(tab, basis, nreal)
    if status == "unbounded":
        return "unbounded", None, None
    vals = [ZERO] * nreal
    for i, b in enumerate(basis):
        vals[b] = tab[i][-1]
    point = tuple(vals[k] - vals[dim + k] for k in range(dim))
    return "optimal", point, tab[-1][-1]


# ---------------------------------------------------------------------------
# Difference constraints: one closed integer difference-bound matrix
# ---------------------------------------------------------------------------

class DifferenceBounds:
    """A closed system of bounds x_v − x_u ≤ c or x_v − x_u < c on the nodes
    0, ..., size − 1, with integer constants c.

    A bound is stored as the single integer K·c, or K·c − 1 when strict,
    with K = size + 1: the constant read as c − ε for ε = 1/K.  A simple
    cycle has at most ``size`` edges, so for integer sum C and s strict edges
    K·C − s < 0 exactly when C < 0, or C = 0 and s > 0: exactly when the
    strict system has a contradiction.  So this ε always works, and the
    shortest-path potentials of the stored integers are an exact witness.
    ``bound[u][v]`` is the tightest implied bound (None when there is none);
    adding a bound keeps the matrix closed in O(size²).
    """

    __slots__ = ("size", "scale", "bound")

    def __init__(self, size, bound=None):
        self.size = size
        self.scale = size + 1
        self.bound = bound or [[0 if u == v else None for v in range(size)] for u in range(size)]

    def copy(self):
        return DifferenceBounds(self.size, [row[:] for row in self.bound])

    def add(self, u, v, c, strict=False):
        """Impose x_v − x_u ≤ c (< c when strict).  Returns False, leaving
        the matrix unchanged, when that contradicts the bounds so far."""
        w = self.scale * c - strict
        m = self.bound
        if m[u][v] is not None and m[u][v] <= w:
            return True
        if m[v][u] is not None and m[v][u] + w < 0:
            return False
        # Row v and column u stay as they are: the new edge closes no
        # negative cycle, so every path may route through u -> v once.
        via = [(j, b) for j, b in enumerate(m[v]) if b is not None]
        for row in m:
            if row[u] is None:
                continue
            head = row[u] + w
            for j, b in via:
                if row[j] is None or head + b < row[j]:
                    row[j] = head + b
        return True

    def point(self, unit=1):
        """An exact x with x_0 = 0 meeting every bound, strict ones strictly,
        when each constant c stands for c / unit."""
        m = self.bound
        # distances from a virtual source joined to every node at length 0
        p = [min(row[v] for row in m if row[v] is not None) for v in range(self.size)]
        den = self.scale * unit
        return tuple(Fraction(pv - p[0], den) for pv in p)

    def minimal_form(self, nodes, unit=1):
        """The projection onto ``nodes``, for a matrix of weak bounds only,
        as rows over those nodes in order: equalities a·z = b and
        inequalities a·z >= b, each constant c standing for c / unit.

        The projection of a closed matrix is its restriction to the kept
        nodes.  Nodes whose bounds sum to zero both ways are tied: each such
        class gives one chain of equalities, and between the class
        representatives only the bounds that no third representative
        implies are kept (the minimal form of Larsen et al., RTSS 1997).
        """
        m = self.bound
        den = self.scale * unit
        nodes = list(nodes)
        k = len(nodes)

        def b(s, t):  # the bound on z_t − z_s
            return m[nodes[s]][nodes[t]]

        def implied(s, r, t):  # the bound on z_t − z_s through r
            return None if b(s, r) is None or b(r, t) is None else b(s, r) + b(r, t)

        def row(s, t):  # the coefficients of z_t − z_s
            co = [0] * k
            co[t] += 1
            co[s] -= 1
            return tuple(co)

        rep = list(range(k))
        last = {}
        eqs = []
        for t in range(k):
            s = next((s for s in range(t) if implied(s, t, s) == 0), t)  # a zero cycle s → t → s
            rep[t] = rep[s]
            if s != t:
                eqs.append((row(last[rep[t]], t), Fraction(b(last[rep[t]], t), den)))
            last[rep[t]] = t
        reps = [s for s in range(k) if rep[s] == s]
        ineqs = []
        for s in reps:
            for t in reps:
                w = b(s, t)
                if s == t or w is None:
                    continue
                if any(r != s and r != t and implied(s, r, t) == w for r in reps):
                    continue
                ineqs.append((row(t, s), Fraction(-w, den)))  # z_s − z_t >= −w
        return eqs, ineqs


def _difference_bounds(sys: LinearConstraintSystem):
    """The system as bounds (u, v, b, strict): x_v − x_u ≤ b, or < b.

    Node 0 is an origin fixed at 0; variable k is node k + 1.  Returns None
    if some constraint is not of difference form.
    """

    def nodes(a):
        # (u, v) with a·x = x_v − x_u, the origin standing in for a missing term
        u = v = 0
        for k, c in enumerate(a, start=1):
            if c == 0:
                continue
            if c == 1 and not v:
                v = k
            elif c == -1 and not u:
                u = k
            else:
                return None
        return u, v

    ties, weak, strict = ([(nodes(a), b) for a, b in rows] for rows in (sys.eqs, sys.ges, sys.gts))
    if any(uv is None for uv, _ in ties + weak + strict):
        return None
    # a·x >= b is x_u − x_v <= −b, and a·x <= b is x_v − x_u <= b
    return (
        [(v, u, -b, False) for (u, v), b in ties + weak]
        + [(v, u, -b, True) for (u, v), b in strict]
        + [(u, v, b, False) for (u, v), b in ties]
    )


def strict_feasible(sys: LinearConstraintSystem):
    """An exact point satisfying the system (strict constraints strictly),
    or INFEASIBLE."""
    bounds = _difference_bounds(sys)
    if bounds is not None:
        unit = math.lcm(*(b.denominator for _, _, b, _ in bounds))
        dbm = DifferenceBounds(sys.dim + 1)
        for u, v, b, strict in bounds:
            if not dbm.add(u, v, b.numerator * (unit // b.denominator), strict):
                return INFEASIBLE
        return dbm.point(unit)[1:]

    # General path: maximize ε with strict constraints relaxed to >= b + ε.
    dim = sys.dim + 1
    eqs = [(a + (ZERO,), b) for a, b in sys.eqs]
    ges = [(a + (ZERO,), b) for a, b in sys.ges]
    for a, b in sys.gts:
        ges.append((a + (-ONE,), b))
    ges.append((tuple([ZERO] * sys.dim) + (-ONE,), -ONE))  # ε <= 1
    obj = [ZERO] * sys.dim + [ONE]
    status, point, value = lp_solve(dim, eqs, ges, obj)
    if status == "infeasible" or (status == "optimal" and value <= 0):
        return INFEASIBLE
    x = point[: sys.dim]
    assert sys.satisfied_by(x)
    return x


# ---------------------------------------------------------------------------
# Polyhedra
# ---------------------------------------------------------------------------

class Polyhedron:
    """H-representation: equalities a·x = b and weak inequalities a·x >= b."""

    __slots__ = ("dim", "eqs", "ineqs", "_point", "_implicit", "_relint", "_dim")

    def __init__(self, dim, eqs=(), ineqs=()):
        self.dim = dim
        self.eqs = tuple((_vec(a, dim), Fraction(b)) for a, b in eqs)
        self.ineqs = tuple((_vec(a, dim), Fraction(b)) for a, b in ineqs)
        self._point = None
        self._implicit = None
        self._relint = None
        self._dim = None

    def system(self, tight=(), strict=()):
        tight = set(tight)
        strict = set(strict)
        eqs = list(self.eqs) + [self.ineqs[i] for i in tight]
        ges = [c for i, c in enumerate(self.ineqs) if i not in tight and i not in strict]
        gts = [self.ineqs[i] for i in strict]
        return LinearConstraintSystem(self.dim, eqs=eqs, ges=ges, gts=gts)

    def feasible_point(self):
        if self._point is None:
            self._point = strict_feasible(self.system())
        return self._point

    def is_empty(self):
        return self.feasible_point() is INFEASIBLE

    def contains(self, x):
        return self.system().satisfied_by(x)

    def implicit_equalities(self):
        """Indices of inequalities tight on all of the polyhedron."""
        if self._implicit is None:
            if self.is_empty():
                self._implicit = frozenset(range(len(self.ineqs)))
            else:
                out = set()
                for i in range(len(self.ineqs)):
                    if strict_feasible(self.system(strict=(i,))) is INFEASIBLE:
                        out.add(i)
                self._implicit = frozenset(out)
        return self._implicit

    def relative_interior_point(self):
        if self._relint is None:
            if self.is_empty():
                self._relint = INFEASIBLE
            else:
                imp = self.implicit_equalities()
                loose = [i for i in range(len(self.ineqs)) if i not in imp]
                self._relint = strict_feasible(self.system(tight=imp, strict=loose))
                assert self._relint is not INFEASIBLE
        return self._relint

    def affine_dimension(self):
        if self._dim is None:
            if self.is_empty():
                self._dim = -1
            else:
                rows = [a for a, _ in self.eqs]
                rows += [self.ineqs[i][0] for i in self.implicit_equalities()]
                self._dim = self.dim - matrix_rank(rows)
        return self._dim

    def intersect(self, other):
        assert self.dim == other.dim
        return Polyhedron(self.dim, self.eqs + other.eqs, self.ineqs + other.ineqs)

    def vertices(self):
        """All vertices (0-dimensional faces), by basic-solution enumeration.

        Intended for bounded desk-scale polyhedra.
        """
        base = [a for a, _ in self.eqs]
        need = self.dim - matrix_rank(base) if base else self.dim
        seen = set()
        out = []
        for combo in itertools.combinations(range(len(self.ineqs)), need):
            eqs = list(self.eqs) + [self.ineqs[i] for i in combo]
            if matrix_rank([a for a, _ in eqs]) != self.dim:
                continue
            sol = solve_affine(eqs, self.dim)
            if sol is None:
                continue
            point, null = sol
            if null:
                continue
            if point not in seen and self.contains(point):
                seen.add(point)
                out.append(point)
        return sorted(out)
