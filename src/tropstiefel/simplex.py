"""The exact simplex over Fractions, and the one question it answers.

``argmin_witness`` finds a linear function under which chosen points are
exactly the argmins: the one question of the library that is not a
difference system (those run on ``geom.DifferenceBounds``).  Its one
library caller is the coherence of a matching multifield (a cone of the
secondary fan of the product of maximal minors), so only ``coherent``
loads this module.  By Gordan's alternative (1873), Ew = 0, Gw > 0 has a
solution iff no λ and ν >= 0 with Σν > 0 have λE = νG.  The simplex, with
Bland's rule, solves

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
    """Pivot to optimality.  The objective must be bounded, as Σν <= 1
    bounds that of ``argmin_witness``, so an entering column always has a
    positive entry to pivot on."""
    m = len(tab) - 1
    rhs = len(tab[0]) - 1
    while True:
        obj = tab[-1]
        col = next((j for j in range(nvars) if obj[j] < 0), None)
        if col is None:
            return
        best = None
        for i in range(m):
            a = tab[i][col]
            if a > 0:
                ratio = tab[i][rhs] / a
                if best is None or ratio < best[0] or (ratio == best[0] and basis[i] < basis[best[1]]):
                    best = (ratio, i)
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
    _run_simplex(tab, basis, real)
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
