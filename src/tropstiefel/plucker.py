"""Tropical Plücker vectors: maps on the d-subsets of [n], listed by
``core.subsets`` and keyed in JSON by ``core.subset_key``.

The Stiefel map (tropical maximal minors, from the matching engine, whose
ints p takes reduced by their gcd with A's denominator), the circuits of
p, listed on first use and kept on p, behind membership in
L(p) and the Plücker check (every cocircuit lies in L(p)), both refused up
front past ``PLUCKER_BUDGET`` relation terms, and matrix recovery from a
support set, given as its (d, n, edges) and checked as one, whose rows
``recover_matrix`` reads off p; it needs a uniform underlying matroid: no
∞ coordinate.
"""

from __future__ import annotations

import math

from .core import DomainError, TropMatrix, TropVector, common_denom, integer_form, quotient, scalar, scalar_str, subset_from_key, subset_key, subsets, trop_vanishes
from .bipartite import column_key, is_support_set, neighbourhoods, optimal_matchings


class PluckerVector:
    """A map from d-subsets of [n] to scalars, not identically infinite,
    checked by the constructor; ``stiefel_map`` builds its own unchecked."""

    __slots__ = ("n", "d", "values", "denom", "ints", "circuits")

    def __init__(self, n, d, values):
        self.n, self.d, self.circuits = n, d, None
        vals = {}
        for J in subsets(n, d):
            if J not in values:
                raise DomainError("MISSING_COORDINATE", f"no value for {sorted(J)}")
            vals[J] = scalar(values[J])
        self.values = vals
        if all(v is None for v in vals.values()):
            raise DomainError("ALL_INF", "Plücker vectors may not be identically ∞")
        self.denom, ints = integer_form(vals.values())
        self.ints = dict(zip(vals, ints))

    def __getitem__(self, J):
        return self.values[frozenset(J)]

    def __eq__(self, other):
        return isinstance(other, PluckerVector) and (self.n, self.d, self.values) == (other.n, other.d, other.values)

    def __repr__(self):
        return "PluckerVector(n=%d, d=%d)" % (self.n, self.d)


def stiefel_map(A: TropMatrix) -> PluckerVector:
    """π(A): the optimal-assignment value on every column d-subset, from
    the matching engine on A's ints, ∞ where no matching exists.  p takes
    its integer form unchecked: p_J = w_J / A.denom for the engine's w_J,
    so with g = gcd(A.denom, every finite w_J), p.denom = A.denom / g, the
    LCM of p's own denominators, and p.ints are the w_J / g."""
    best = optimal_matchings(A.ints, range(1, A.n + 1))[0]
    ints = {J: best.get(column_key(J)) for J in subsets(A.n, A.d)}
    if not (finite := [w for w in ints.values() if w is not None]):
        raise DomainError("NO_MATCHING_IN_SUPPORT", "support contains no matching")
    p, g = PluckerVector.__new__(PluckerVector), math.gcd(A.denom, *finite)
    p.n, p.d, p.denom, p.circuits = A.n, A.d, A.denom // g, None
    p.ints = ints if g == 1 else {J: None if w is None else w // g for J, w in ints.items()}
    p.values = p.ints if p.denom == 1 else {J: None if w is None else quotient(w, p.denom) for J, w in p.ints.items()}
    return p


def _circuits(p: PluckerVector):
    """The circuits of p, listed on the first call and kept on p: for every
    (d+1)-set T the pairs (j − 1, p_{T−j}) over the j ∈ T with p_{T−j}
    finite, in p's ints.  An ∞ term is never a circuit's one minimum, so
    it is left out."""
    if p.circuits is None:
        ints = p.ints
        p.circuits = tuple(
            tuple((j - 1, c) for j in T if (c := ints[T - {j}]) is not None)
            for T in subsets(p.n, p.d + 1)
        )
    return p.circuits


def _in_span(circuits, y, f):
    """Every circuit minimum of 0-based int coordinates y, None at ∞, is ∞
    or attained at least twice, with the circuits' terms times f in y's
    unit."""
    for C in circuits:
        if not trop_vanishes([v * f + y[k] for k, v in C if y[k] is not None]):
            return False
    return True


PLUCKER_BUDGET = 10 ** 7  # relation terms the Plücker check or one membership test may test


def contains(p: PluckerVector, y: TropVector) -> bool:
    """Circuit membership of y in L(p), on p's kept circuits; DomainError
    BUDGET_EXCEEDED, before any circuit is listed or read, when the
    C(n, d+1)·(d+1) terms exceed ``PLUCKER_BUDGET``."""
    if len(y) != p.n:
        raise DomainError("LENGTH_MISMATCH", "y must have length n")
    terms = math.comb(p.n, p.d + 1) * (p.d + 1)
    if terms > PLUCKER_BUDGET:
        raise DomainError("BUDGET_EXCEEDED", f"rank {p.d} on [{p.n}] gives {terms} circuit terms, budget {PLUCKER_BUDGET}")
    _, fp, fy = common_denom(p.denom, y.denom)
    z = y.ints if fy == 1 else [None if w is None else w * fy for w in y.ints]
    return _in_span(_circuits(p), z, fp)


def check_plucker(p: PluckerVector) -> bool:
    """The Plücker relations: every cocircuit of p (∞ on a (d−1)-set S,
    p_{S∪j} elsewhere) lies in L(p), on p's kept circuits.  The circuit of
    a (d+1)-set T at the cocircuit of S is the relation of S and T: the
    minimum of p_{S∪j} + p_{T−j} over j ∈ T∖S is ∞ or attained twice.
    DomainError BUDGET_EXCEEDED, before any circuit is listed or read, when
    the C(n, d−1)·C(n, d+1)·(d+1) terms exceed ``PLUCKER_BUDGET``."""
    if p.d == 0:
        return True  # no relations in rank 0
    terms = math.comb(p.n, p.d - 1) * math.comb(p.n, p.d + 1) * (p.d + 1)
    if terms > PLUCKER_BUDGET:
        raise DomainError("BUDGET_EXCEEDED", f"rank {p.d} on [{p.n}] gives {terms} relation terms, budget {PLUCKER_BUDGET}")
    circuits, ints, ground = _circuits(p), p.ints, range(1, p.n + 1)
    return all(_in_span(circuits, [None if j in S else ints[S | {j}] for j in ground], 1) for S in subsets(p.n, p.d - 1))


def recover_matrix(p: PluckerVector, d, n, edges) -> TropMatrix:
    """Rebuild a matrix from π(A) and a support set (d, n, edges), its rows
    read off p; the edges are trusted, as ``graph_from_json`` checked them.

    Row i is p_{([n]∖J_i) ∪ j} at j ∈ J_i and ∞ off J_i, the cocircuit of
    the (d−1)-set [n] ∖ J_i; when p = stiefel_map(A) for A supported on the
    support set, the result equals A up to one constant per row.
    NOT_SUPPORT_SET for a support not a support set on p's [d] ⊔ [n], then
    NOT_UNIFORM when a coordinate is ∞: the underlying matroid is not uniform,
    then NOT_STIEFEL_ON_SUPPORT when the result's image is not p up to one
    constant, so that no matrix supported on the support set maps to p.
    """
    if (d, n) != (p.d, p.n) or not is_support_set(d, n, edges):
        raise DomainError("NOT_SUPPORT_SET", "the support must be a support set on p's [d] ⊔ [n]")
    if None in p.ints.values():
        raise DomainError("NOT_UNIFORM", "underlying matroid must be uniform")
    ground = frozenset(range(1, n + 1))
    B = TropMatrix([
        [p[(ground - Ji) | {j}] if j in Ji else None for j in range(1, n + 1)]
        for Ji in neighbourhoods(d, edges)
    ])
    q = stiefel_map(B)  # finite: a support set matches every column d-set
    if len({q.values[J] - v for J, v in p.values.items()}) != 1:
        raise DomainError("NOT_STIEFEL_ON_SUPPORT", "no matrix on this support set maps to p")
    return B


# ---------------------------------------------------------------------------
# JSON interchange
# ---------------------------------------------------------------------------

def plucker_to_json(p: PluckerVector):
    values = {subset_key(J): scalar_str(v) for J, v in p.values.items()}
    return {"d": p.d, "n": p.n, "values": values}


def plucker_from_json(obj) -> PluckerVector:
    if not isinstance(obj, dict) or not {"d", "n", "values"} <= set(obj):
        raise DomainError("BAD_PLUCKER_JSON", "expected {'d','n','values'}")
    d, n = obj["d"], obj["n"]
    if not (type(d) is int and type(n) is int and 0 <= d <= n and isinstance(obj["values"], dict)):
        raise DomainError("BAD_PLUCKER_JSON", "need integers 0 <= d <= n and a values object")
    values = {}
    for key, v in obj["values"].items():
        J = subset_from_key(key, d, n, "BAD_PLUCKER_JSON")
        if v is None:
            raise DomainError("BAD_SCALAR", 'null is not a scalar; ∞ is "inf"')
        values[J] = scalar(v)
    if len(values) != len(obj["values"]):
        raise DomainError("BAD_PLUCKER_JSON", "two keys name one subset")
    return PluckerVector(n, d, values)
