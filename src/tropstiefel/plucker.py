"""Tropical Plücker vectors.

The Stiefel map (tropical maximal minors, from the matching engine), the
circuits of p, listed on first use and kept on p, behind membership in
L(p) and the Plücker check (every cocircuit lies in L(p)), both refused up
front past ``PLUCKER_BUDGET`` relation terms, cocircuits and matrix
recovery from a support set, which needs a uniform underlying matroid: no
∞ coordinate.
"""

from __future__ import annotations

import itertools
import math

from .core import INF, DomainError, TropMatrix, TropVector, common_denom, integer_form, scalar, scalar_str, subset_from_key, trop_vanishes
from .bipartite import BipartiteGraph, is_support_set, optimal_matchings


def _subsets(n, d):
    return itertools.combinations(range(1, n + 1), d)


class PluckerVector:
    """A map from d-subsets of [n] to scalars, not identically infinite."""

    __slots__ = ("n", "d", "values", "denom", "ints", "circuits")

    def __init__(self, n, d, values):
        self.n = n
        self.d = d
        vals = {}
        for J in _subsets(n, d):
            key = frozenset(J)
            if key not in values:
                raise DomainError("MISSING_COORDINATE", f"no value for {list(J)}")
            vals[key] = scalar(values[key])
        self.values = vals
        if all(v is INF for v in vals.values()):
            raise DomainError("ALL_INF", "Plücker vectors may not be identically ∞")
        self.denom, ints = integer_form(vals.values())
        self.ints = dict(zip(vals, ints))
        self.circuits = None

    def __getitem__(self, J):
        return self.values[frozenset(J)]

    def support(self):
        return frozenset(J for J, v in self.values.items() if v is not INF)

    def __eq__(self, other):
        return (
            isinstance(other, PluckerVector)
            and (self.n, self.d) == (other.n, other.d)
            and self.values == other.values
        )

    def __repr__(self):
        return "PluckerVector(n=%d, d=%d)" % (self.n, self.d)


def stiefel_map(A: TropMatrix) -> PluckerVector:
    """π(A): the optimal-assignment value on every column d-subset."""
    best = optimal_matchings(A.entries, range(1, A.n + 1))[0]
    values = {J: best.get(J, INF) for J in map(frozenset, _subsets(A.n, A.d))}
    if all(v is INF for v in values.values()):
        raise DomainError("NO_MATCHING_IN_SUPPORT", "support contains no matching")
    return PluckerVector(A.n, A.d, values)


def _circuits(p: PluckerVector):
    """The circuits of p, listed on the first call and kept on p: for every
    (d+1)-set T the pairs (j − 1, p_{T−j}) over the j ∈ T with p_{T−j}
    finite, in p's ints.  An ∞ term is never a circuit's one minimum, so
    it is left out."""
    if p.circuits is None:
        ints = p.ints
        p.circuits = tuple(
            tuple((j - 1, c) for j in T if (c := ints[T - {j}]) is not None)
            for T in map(frozenset, _subsets(p.n, p.d + 1))
        )
    return p.circuits


def _in_span(circuits, y, f):
    """Every circuit minimum of 0-based int coordinates y, None at ∞, is ∞
    or attained at least twice, with the circuits' terms times f in y's
    unit."""
    return all(trop_vanishes([v * f + y[k] for k, v in C if y[k] is not None]) for C in circuits)


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
    return all(
        _in_span(circuits, [None if j in S else ints[S | {j}] for j in ground], 1)
        for S in map(frozenset, _subsets(p.n, p.d - 1))
    )


def cocircuit(p: PluckerVector, S) -> TropVector:
    """c_j = p_{S∪j} off S and ∞ on S; a minimal-support vector of L(p)."""
    S = frozenset(S)
    if len(S) != p.d - 1 or not S <= frozenset(range(1, p.n + 1)):
        raise DomainError("BAD_SUBSET", "S must be a (d-1)-subset of [n]")
    entries = [INF if j in S else p[S | {j}] for j in range(1, p.n + 1)]
    if all(v is INF for v in entries):
        raise DomainError("ALL_INF", "every extension of S is infinite")
    return TropVector(entries)


def recover_matrix(p: PluckerVector, support: BipartiteGraph) -> TropMatrix:
    """Rebuild a matrix from π(A) and a support set: rows are cocircuits.

    Row i is cocircuit(p, [n] ∖ J_i); when p = stiefel_map(A) for A supported
    on the support set, the result equals A up to one constant per row.
    NOT_SUPPORT_SET for a support not a support set on p's [d] ⊔ [n], then
    NOT_UNIFORM when a coordinate is ∞: the underlying matroid is not uniform.
    """
    if (support.d, support.n) != (p.d, p.n) or not is_support_set(support):
        raise DomainError("NOT_SUPPORT_SET", "second argument must be a support set")
    if any(v is INF for v in p.values.values()):
        raise DomainError("NOT_UNIFORM", "underlying matroid must be uniform")
    ground = frozenset(range(1, p.n + 1))
    return TropMatrix([cocircuit(p, ground - support.J(i)).entries for i in range(1, support.d + 1)])


# ---------------------------------------------------------------------------
# JSON interchange
# ---------------------------------------------------------------------------

def plucker_to_json(p: PluckerVector):
    values = {
        ",".join(str(j) for j in sorted(J)): scalar_str(v)
        for J, v in p.values.items()
    }
    return {"d": p.d, "n": p.n, "values": values}


def plucker_from_json(obj) -> PluckerVector:
    if not isinstance(obj, dict) or not {"d", "n", "values"} <= set(obj):
        raise DomainError("BAD_PLUCKER_JSON", "expected {'d','n','values'}")
    d, n = obj["d"], obj["n"]
    if not (type(d) is int and type(n) is int and 0 <= d <= n and isinstance(obj["values"], dict)):
        raise DomainError("BAD_PLUCKER_JSON", "need integers 0 <= d <= n and a values object")
    values = {subset_from_key(key, d, n, "BAD_PLUCKER_JSON"): scalar(v) for key, v in obj["values"].items()}
    if len(values) != len(obj["values"]):
        raise DomainError("BAD_PLUCKER_JSON", "two keys name one subset")
    return PluckerVector(n, d, values)
