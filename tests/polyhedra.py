"""A general H-polyhedron in exact arithmetic: the independent reference
against which the tests check polytropes, cell dimensions and transversal
matroid polytopes.

Equalities a·x = b and weak inequalities a·x >= b.  Emptiness and implicit
equalities go through ``strict_feasible`` (one call per inequality): a
system of differences runs on ``geom.DifferenceBounds``, which keeps the
cell-dimension references fast, and any other on the primal simplex of
``reference.strict_feasible``.  Affine dimension goes through a Gaussian rank,
vertices through basic-solution enumeration.  Meant for desk-scale inputs
only.
"""

import itertools
import math
from fractions import Fraction

import reference
from tropstiefel.geom import DifferenceBounds
from tropstiefel.simplex import _pivot

ZERO = Fraction(0)
ONE = Fraction(1)
_UNSET = object()  # a cached answer not yet computed (None is "no point")


def _vec(coeffs, dim):
    v = [ZERO] * dim
    for k, c in enumerate(coeffs):
        v[k] = Fraction(c)
    return tuple(v)


def _difference_bounds(eqs, ges, gts):
    """The rows as bounds (u, v, b, strict): x_v − x_u ≤ b, or < b.

    Node 0 is an origin fixed at 0; variable k is node k + 1.  Returns None
    if some row is not of difference form.
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

    ties, weak, strict = ([(nodes(a), b) for a, b in rows] for rows in (eqs, ges, gts))
    if any(uv is None for uv, _ in ties + weak + strict):
        return None
    # a·x >= b is x_u − x_v <= −b, and a·x <= b is x_v − x_u <= b
    return (
        [(v, u, -b, False) for (u, v), b in ties + weak]
        + [(v, u, -b, True) for (u, v), b in strict]
        + [(u, v, b, False) for (u, v), b in ties]
    )


def strict_feasible(dim, eqs=(), ges=(), gts=()):
    """``reference.strict_feasible``, with a system of differences answered
    by ``DifferenceBounds`` instead of the simplex."""
    bounds = _difference_bounds(eqs, ges, gts)
    if bounds is None:
        return reference.strict_feasible(dim, eqs, ges, gts)
    unit = math.lcm(*(b.denominator for _, _, b, _ in bounds))
    dbm = DifferenceBounds(dim + 1, unit)
    for u, v, b, strict in bounds:
        if not dbm.add(u, v, b.numerator * (unit // b.denominator), strict):
            return None
    return dbm.point()[1:]


def satisfied_by(x, eqs=(), ges=(), gts=()):
    """Does x meet a·x = b for ``eqs``, a·x >= b for ``ges`` and a·x > b
    for ``gts``?"""
    dot = lambda a: sum(c * v for c, v in zip(a, x))
    return (
        all(dot(a) == b for a, b in eqs)
        and all(dot(a) >= b for a, b in ges)
        and all(dot(a) > b for a, b in gts)
    )


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


class Polyhedron:
    """H-representation: equalities a·x = b and weak inequalities a·x >= b."""

    __slots__ = ("dim", "eqs", "ineqs", "_point", "_implicit", "_relint", "_dim")

    def __init__(self, dim, eqs=(), ineqs=()):
        self.dim = dim
        self.eqs = tuple((_vec(a, dim), Fraction(b)) for a, b in eqs)
        self.ineqs = tuple((_vec(a, dim), Fraction(b)) for a, b in ineqs)
        self._point = _UNSET
        self._implicit = None
        self._relint = _UNSET
        self._dim = None

    def system(self, tight=(), strict=()):
        tight = set(tight)
        strict = set(strict)
        eqs = list(self.eqs) + [self.ineqs[i] for i in tight]
        ges = [c for i, c in enumerate(self.ineqs) if i not in tight and i not in strict]
        gts = [self.ineqs[i] for i in strict]
        return {"eqs": eqs, "ges": ges, "gts": gts}

    def feasible_point(self):
        if self._point is _UNSET:
            self._point = strict_feasible(self.dim, **self.system())
        return self._point

    def is_empty(self):
        return self.feasible_point() is None

    def contains(self, x):
        return satisfied_by(x, **self.system())

    def implicit_equalities(self):
        """Indices of inequalities tight on all of the polyhedron."""
        if self._implicit is None:
            if self.is_empty():
                self._implicit = frozenset(range(len(self.ineqs)))
            else:
                out = set()
                for i in range(len(self.ineqs)):
                    if strict_feasible(self.dim, **self.system(strict=(i,))) is None:
                        out.add(i)
                self._implicit = frozenset(out)
        return self._implicit

    def relative_interior_point(self):
        if self._relint is _UNSET:
            if self.is_empty():
                self._relint = None
            else:
                imp = self.implicit_equalities()
                loose = [i for i in range(len(self.ineqs)) if i not in imp]
                self._relint = strict_feasible(self.dim, **self.system(tight=imp, strict=loose))
                assert self._relint is not None
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
