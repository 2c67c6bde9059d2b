"""Exact feasibility of difference systems: one closed integer
difference-bound matrix.

``DifferenceBounds`` answers the cells of the covector complex TC(A)
(``arrangement``): systems whose every constraint has the form
x_i - x_j >= b, built bound by bound.  Rational constants are scaled to
integers by the LCM of their denominators, and strict bounds are exact
through one ε = 1/(V+1) fixed by the number of nodes V.  A closed matrix
answers a witness by lookups.  The one question that is not a difference
system, ``argmin_witness``, runs on the exact simplex in ``simplex``.
"""

from __future__ import annotations

from .core import quotient


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
    does any larger K, and the shortest-path potentials of the stored
    integers are an exact witness.  ``bound[u][v]`` is the tightest implied
    bound (None when there is none); adding a bound keeps the matrix closed
    in O(size²), and ``admits`` tells by one lookup whether ``add`` would
    accept a weak bound.  In the library this class alone reads the stored
    encoding.
    """

    __slots__ = ("size", "scale", "unit", "bound")

    def __init__(self, size, unit=1, bound=None):
        self.size, self.scale, self.unit = size, size + 1, unit
        self.bound = bound or [[0 if u == v else None for v in range(size)] for u in range(size)]

    def copy(self):
        return DifferenceBounds(self.size, self.unit, [row[:] for row in self.bound])

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
