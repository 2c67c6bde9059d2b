"""Exact feasibility of linear systems: the difference-constraint engine
and the simplex, each with its own questions.

Systems mix equalities, weak and strict inequalities.  Two engines:

* ``DifferenceBounds``, a closed integer difference-bound matrix, answers
  the cells of the covector complex TC(A) (``arrangement``): systems whose
  every constraint has the form x_i - x_j >= b, built bound by bound.
  Rational constants are scaled to integers by the LCM of their
  denominators, and strict bounds are exact through one ε = 1/(V+1) fixed
  by the number of nodes V.  A closed matrix answers a witness by lookups;
* an exact simplex with Bland's rule over Fractions answers
  ``argmin_witness``, a linear function under which chosen points are
  exactly the argmins: the one question that is not a difference system.
  Its one library caller is the coherence of a matching multifield (a cone
  of the secondary fan of the product of maximal minors).  By Gordan's
  alternative (1873), Ew = 0, Gw > 0 has a solution iff no λ and ν >= 0
  with Σν > 0 have λE = νG.  The simplex solves

      maximize Σν  subject to  λE − νG = 0,  Σν + μ = 1,
      λ free (as λ⁺ − λ⁻),  ν, μ >= 0,

  one row per coordinate of w and one more, from the feasible basis μ = 1:
  the rows of w have right-hand side 0, so one pivot per row takes its
  artificial column out, and no phase 1 is needed.  Σν <= 1 bounds the
  objective, so the simplex ends at an optimum, 0 or 1.  At 0, w is read
  off the reduced costs of the artificial columns, a solution of the dual
  LP with Ew = 0 and Gw >= 1.  At 1, the optimal (λ, ν) proves that there
  is no w, and it is checked by exact products before the answer is given.
"""

from __future__ import annotations

from fractions import Fraction

from .core import quotient

ZERO = Fraction(0)
ONE = Fraction(1)


# ---------------------------------------------------------------------------
# Exact simplex (maximization), Bland's rule
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


def argmin_witness(dim, groups):
    """A point w at which, in every group (chosen, others) of lists of
    vectors, each chosen vector attains the minimum of vector·w and each
    other vector exceeds it; None when there is no such w.  The rows are
    taken against the group's first chosen vector: an equality a·w = 0 per
    further chosen vector (the rows E), a strict inequality g·w > 0 per
    other (the rows G).  The simplex solves the LP of the module docstring;
    a point it reads off is checked against every row, and a certificate
    (λ, ν) must pass λE = νG, ν >= 0 and Σν > 0 before None is returned: a
    w would give 0 = λEw = νGw > 0."""
    eqs, gts = [], []
    for (v0, *tied), others in groups:
        rel = lambda v: tuple(x - y for x, y in zip(v, v0))
        eqs += [rel(v) for v in tied]
        gts += [rel(v) for v in others]
    # the columns λ⁺, λ⁻, ν and μ as (entries on the rows of w, entry on the
    # row Σν + μ = 1), then an artificial column per row of w
    neg = lambda a: tuple(-c for c in a)
    cols = [(a, 0) for a in eqs] + [(neg(a), 0) for a in eqs] + [(neg(g), 1) for g in gts] + [((0,) * dim, 1)]
    e, real = len(eqs), len(cols)
    # entries as given; the right-hand sides are Fractions, so each ratio is
    # exact.  The last row is the objective Σν, in canonical form at the
    # basis μ = 1, where every real column but μ is nonbasic
    tab = [[a[k] for a, _ in cols] + [ONE if j == k else ZERO for j in range(dim)] + [ZERO] for k in range(dim)]
    tab += [[s for _, s in cols] + [ZERO] * dim + [ONE],
            [-ONE if 2 * e <= j < real - 1 else ZERO for j in range(real + dim)] + [ZERO]]
    basis = [real + k for k in range(dim)] + [real - 1]
    for k in range(dim):  # right-hand side 0: a pivot anywhere in the row keeps the basis feasible
        c = next((j for j in range(real) if tab[k][j]), None)
        if c is not None:  # else no row mentions w_k, and its artificial stays at 0
            _pivot(tab, basis, k, c)
    _run_simplex(tab, basis, real)  # "optimal": Σν <= 1 bounds the objective
    dot = lambda a, y: sum(c * v for c, v in zip(a, y))
    if not tab[-1][-1]:  # the optimum Σν is 0: only ν = 0 balances
        w = tuple(-y for y in tab[-1][real:-1])
        if not (all(dot(a, w) == 0 for a in eqs) and all(dot(g, w) > 0 for g in gts)):  # pragma: no cover - sanity
            raise AssertionError("simplex point fails the system it solves")
        return w
    y = [ZERO] * (real + dim)
    for i, c in enumerate(basis):
        y[c] = tab[i][-1]
    lam, nu = [p - q for p, q in zip(y[:e], y[e:2 * e])], y[2 * e:real - 1]
    balanced = all(dot(lam, [a[k] for a in eqs]) == dot(nu, [g[k] for g in gts]) for k in range(dim))
    if not (balanced and all(v >= 0 for v in nu) and sum(nu) > 0):
        raise AssertionError("simplex certificate fails the system it refutes")
    return None


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
    ``admits`` tells by one lookup whether ``add`` would accept a weak
    bound.  In the library this class alone reads the stored encoding.
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

    def admits(self, u, v, c):
        """Would ``add(u, v, c)`` accept x_v − x_u ≤ c?  One lookup: only
        the bound the other way can refuse it."""
        b = self.bound[v][u]
        return b is None or b + self.scale * c >= 0

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
        return tuple(quotient(pv - p[0], den) for pv in p)
