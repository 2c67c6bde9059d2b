"""Exact feasibility of linear systems: the difference-constraint engine
and the simplex, each with its own questions.

Systems mix equalities, weak and strict inequalities.  Two engines:

* ``DifferenceBounds``, a closed integer difference-bound matrix, answers
  cells, cones and decompositions: systems whose every constraint has the
  form x_i - x_j >= b, x_i >= b or -x_i >= b, built by their callers bound
  by bound.  Rational constants are scaled to integers by the LCM of their
  denominators, and strict bounds are exact through one ε = 1/(V+1) fixed
  by the number of nodes V.  With node 0 an origin pinned at 0, a closed
  matrix of weak bounds is a polytrope: it answers its dimension and a
  witness point by lookups;
* a two-phase exact simplex with Bland's rule over Fractions answers
  ``argmin_witness``, a linear height under which chosen points are exactly
  the argmins: the one question that is not a difference system.  Its one
  library caller is the coherence of a matching multifield (a cone of the
  secondary fan of the product of maximal minors).  ``strict_feasible``
  relaxes each strict row a·x > b to a·x >= b + ε and maximizes ε; the
  system is strictly feasible iff the optimum has ε > 0.  Free variables
  are x = u − t·1 with u, t >= 0: one shift column t serves every
  coordinate.
"""

from __future__ import annotations

from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


# ---------------------------------------------------------------------------
# Exact two-phase simplex (maximization), Bland's rule
# ---------------------------------------------------------------------------

def _pivot(tab, basis, r, c):
    """One Gauss–Jordan step: scale row r to 1 at column c, clear column c
    from every other row, and record c as the basic column of row r."""
    inv = ONE / tab[r][c]
    tab[r] = [v * inv for v in tab[r]]
    nonzero = [(j, w) for j, w in enumerate(tab[r]) if w]
    for i, row in enumerate(tab):
        f = row[c]
        if i != r and f:
            for j, w in nonzero:  # a zero of the pivot row leaves the column as it is
                row[j] -= f * w
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
    nreal = dim + 1 + len(ges)  # x = u - t·1 with u, t >= 0, one surplus var per >=

    def lift(a):  # a·x as a·u - (Σa)·t
        a = [Fraction(v) for v in a]
        return a + [-sum(a, ZERO)]

    rows = [(lift(a) + [ZERO] * len(ges), Fraction(b)) for a, b in eqs]
    rows += [(lift(a) + [-ONE if k == idx else ZERO for k in range(len(ges))], Fraction(b)) for idx, (a, b) in enumerate(ges)]

    m = len(rows)

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

    c2 = lift(objective) + [ZERO] * len(ges)
    _set_objective(tab, basis, c2)
    status = _run_simplex(tab, basis, nreal)
    if status == "unbounded":
        return "unbounded", None, None
    vals = [ZERO] * nreal
    for i, b in enumerate(basis):
        vals[b] = tab[i][-1]
    point = tuple(vals[k] - vals[dim] for k in range(dim))
    return "optimal", point, tab[-1][-1]


# ---------------------------------------------------------------------------
# Difference constraints: one closed integer difference-bound matrix
# ---------------------------------------------------------------------------

class DifferenceBounds:
    """A closed system of bounds x_v − x_u ≤ c or x_v − x_u < c on the nodes
    0, ..., size − 1, with integer constants c standing for c / ``unit``.

    A bound is stored as the single integer K·c, or K·c − 1 when strict,
    with K = ``scale`` = size + 1: the constant read as c − ε for ε = 1/K.
    A simple cycle has at most ``size`` edges, so for integer sum C and s
    strict edges K·C − s < 0 exactly when C < 0, or C = 0 and s > 0: exactly
    when the strict system has a contradiction.  So this ε always works, as
    does any larger K (a copy keeps its matrix's K and unit),
    and the shortest-path potentials of the stored integers are an exact
    witness.  ``bound[u][v]`` is the tightest implied bound (None when there
    is none); adding a bound keeps the matrix closed in O(size²), and
    ``admits`` tells by one lookup whether ``add`` would accept it.  In
    the library this class alone reads the stored encoding.  Node 0 is an
    origin pinned at 0; ``dim`` reads a matrix of weak bounds: a polytrope.
    """

    __slots__ = ("size", "scale", "unit", "bound")

    def __init__(self, size, unit=1, bound=None):
        self.size = size
        self.scale = size + 1
        self.unit = unit
        self.bound = bound or [[0 if u == v else None for v in range(size)] for u in range(size)]

    def _with(self, bound):
        out = DifferenceBounds(len(bound), self.unit, bound)
        out.scale = self.scale
        return out

    def copy(self):
        return self._with([row[:] for row in self.bound])

    def admits(self, u, v, c, strict=False):
        """Would ``add(u, v, c, strict)`` accept x_v − x_u ≤ c (< c when
        strict)?  One lookup: only the bound the other way can refuse it."""
        b = self.bound[v][u]
        return b is None or b + self.scale * c - strict >= 0

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

    def point(self):
        """An exact x with x_0 = 0 meeting every bound, strict ones strictly."""
        m = self.bound
        # distances from a virtual source joined to every node at length 0
        p = [min(row[v] for row in m if row[v] is not None) for v in range(self.size)]
        den = self.scale * self.unit
        return tuple(Fraction(pv - p[0], den) for pv in p)

    def dim(self):
        """The affine dimension.  Only the zero cycles of a closed matrix are
        implicit equalities, so each class of tied nodes is one free
        parameter, and the origin's class is pinned."""
        m = self.bound
        tied = lambda s, t: m[s][t] is not None and m[t][s] is not None and m[s][t] + m[t][s] == 0
        return sum(not any(tied(s, t) for s in range(t)) for t in range(self.size)) - 1


def strict_feasible(dim, eqs=(), ges=(), gts=()):
    """An exact x meeting the rows (a, b), each a of length ``dim`` and b
    rational: a·x = b for ``eqs``, a·x >= b for ``ges`` and a·x > b for
    ``gts``; None when there is none.  The simplex maximizes ε with the
    strict rows relaxed to a·x >= b + ε."""
    status, point, value = lp_solve(
        dim + 1,
        [(tuple(a) + (ZERO,), b) for a, b in eqs],
        [(tuple(a) + (ZERO,), b) for a, b in ges]
        + [(tuple(a) + (-ONE,), b) for a, b in gts]
        + [((ZERO,) * dim + (-ONE,), -ONE)],  # ε <= 1
        [ZERO] * dim + [ONE],
    )
    if status == "infeasible" or (status == "optimal" and value <= 0):
        return None
    x = point[:dim]
    dot = lambda a: sum(c * v for c, v in zip(a, x))
    if not (all(dot(a) == b for a, b in eqs) and all(dot(a) >= b for a, b in ges)
            and all(dot(a) > b for a, b in gts)):  # pragma: no cover - sanity
        raise AssertionError("simplex point fails the system it solves")
    return x


def argmin_witness(dim, groups):
    """A point w at which, in every group (chosen, others) of lists of
    (vector, height) pairs, each chosen pair attains the minimum of
    height + vector·w and each other pair exceeds it; None when there is
    no such w.  The rows are taken against the group's first chosen pair:
    an equality per further chosen pair, a strict inequality per other."""
    eqs, gts = [], []
    for ((v0, h0), *tied), others in groups:
        rel = lambda v: tuple(x - y for x, y in zip(v, v0))
        eqs += [(rel(v), h0 - h) for v, h in tied]
        gts += [(rel(v), h0 - h) for v, h in others]
    return strict_feasible(dim, eqs=eqs, gts=gts)
