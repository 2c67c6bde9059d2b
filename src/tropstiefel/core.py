"""Exact min-plus (tropical) arithmetic: scalars, vectors, matrices.

The semiring carrier is Q ∪ {∞} with ⊕ = min and ⊙ = +.  A finite value is
an ``int`` when it is whole and otherwise a reduced `fractions.Fraction` with
denominator > 1, so integer inputs never enter `Fraction` arithmetic;
``scalar`` keeps this on input and ``quotient`` on the quotients the library
forms itself.  Everything is immutable and exact -- no floats anywhere: ``/``
between two ints would give one, so the library divides only through
``quotient`` or with a `Fraction` on the left, and ``scalar_str`` refuses a
float.  ``TropVector``, ``TropMatrix`` and ``plucker.PluckerVector`` keep
only their integer form, taken by ``integer_form`` in the first two
constructors and in ``plucker_from_json``: ``denom``, the LCM of the finite
entries' denominators, and ``ints``, the entries times it.  Every engine
reads ``ints``; ``scalars`` gives the values back where they are printed.
∞ is ``None`` in every form; ``INF`` names it where a value is parsed or
printed, and it has no arithmetic and no order.  ``trop_vanishes`` is the
one test of "the minimum is attained twice" on the finite terms.

Row and column indices are 1-based throughout the public API, matching the
usual conventions for [d] x [n] bipartite objects; the ``ints`` tuples are
0-based.  The d-subsets of [n] are listed by ``subsets`` and keyed in JSON by
``subset_key``, read back by ``subset_from_key``.  The JSON codec reads and
writes matrices, and reads vectors.
"""

from __future__ import annotations

import itertools
import json
import math
import sys

Fraction = None  # fractions.Fraction, once ``fraction`` has bound it


class DomainError(Exception):
    """A violated mathematical precondition, with a machine-readable code."""

    def __init__(self, code: str, message: str = ""):
        super().__init__(message or code)
        self.code = code


INF = None


def fraction():
    """`fractions.Fraction`, imported on the first call: ``fractions``
    imports ``decimal``, a few ms of a cold command whose values are whole."""
    global Fraction
    if Fraction is None:
        from fractions import Fraction
    return Fraction


def scalar(x):
    """Coerce ``x`` (int, Fraction, 'p/q' string, 'inf', None) to a scalar:
    None at ∞, an int when the value is whole, else a reduced Fraction.  A
    string is read by ``int`` first, and by ``Fraction`` when ``int``
    refuses it; on every string ``int`` takes, ``Fraction`` gives the same
    value."""
    if x is INF or type(x) is int:
        return x
    if isinstance(x, str) and "e" not in x.lower():  # an exponent asks Fraction for 10^k
        if x.strip().lower() == "inf":
            return INF
        try:
            return int(x)
        except ValueError:  # not whole, or no number at all: Fraction decides
            try:
                x = fraction()(x)
            except (ValueError, ZeroDivisionError):
                raise DomainError("BAD_SCALAR", f"cannot interpret {x!r} as a scalar") from None
    if isinstance(x, bool):
        raise DomainError("BAD_SCALAR", "booleans are not scalars")
    if isinstance(x, int):
        return int(x)
    if isinstance(x, float):
        raise DomainError("BAD_SCALAR", "floating point is not allowed")
    if isinstance(x, fraction()):
        return x.numerator if x.denominator == 1 else x
    raise DomainError("BAD_SCALAR", f"cannot interpret {x!r} as a scalar")


def quotient(num, den):
    """The scalar num / den of ints, den > 0: an int when den divides num,
    else a reduced Fraction."""
    q, r = divmod(num, den)
    return fraction()(num, den) if r else q


def integer_form(values):
    """(denom, ints): the LCM of the finite ``values``' denominators and
    each value times it, an int, or None at ∞."""
    denom = math.lcm(*{v.denominator for v in values if v is not None})
    if denom == 1:
        return 1, tuple(values)
    return denom, tuple([None if v is None else v.numerator * (denom // v.denominator) for v in values])


def scalars(denom, ints):
    """The scalars of an integer form: ``quotient(w, denom)`` at each
    finite w, and None at ∞."""
    return [None if w is None else quotient(w, denom) for w in ints]


def common_denom(p, q):
    """(m, m/p, m/q) for the LCM m of denominators p and q."""
    m = p if p == q else math.lcm(p, q)
    return m, m // p, m // q


def scalar_str(v) -> str:
    """Serialize a scalar as 'inf' or a reduced 'p/q' / integer string;
    DomainError BUDGET_EXCEEDED past Python's int/str digit limit.  A float
    is no scalar: TypeError, so an inexact value is never printed."""
    if isinstance(v, float):
        raise TypeError(f"a float is not an exact scalar: {v!r}")
    try:
        return "inf" if v is INF else str(v)
    except ValueError:
        bits = max(abs(v.numerator), v.denominator).bit_length()  # digits ≈ bits · log10(2)
        raise DomainError("BUDGET_EXCEEDED", f"a scalar of about {bits * 30103 // 100000 + 1} digits, "
                          f"limit {sys.get_int_max_str_digits()}") from None


def trop_vanishes(values) -> bool:
    """Tropical vanishing of the finite terms ``values``, ints: there are
    none, so the minimum is ∞, or their minimum is attained at least twice.
    This is the condition of circuit membership and of the Plücker
    relations; an ∞ term is never the one minimum, so the caller leaves it
    out."""
    values = list(values)
    return not values or values.count(min(values)) >= 2


def subsets(n, d):
    """An iterator over the d-subsets of [n] as frozensets, in
    lexicographic order."""
    return map(frozenset, itertools.combinations(range(1, n + 1), d))


class TropVector:
    """An exact vector over the min-plus semiring, kept as its integer form."""

    __slots__ = ("denom", "ints")

    def __init__(self, entries):
        values = [scalar(e) for e in entries]
        if not values:
            raise DomainError("EMPTY_VECTOR", "vectors must have length >= 1")
        self.denom, self.ints = integer_form(values)

    def __len__(self):
        return len(self.ints)

    def is_finite(self):
        return None not in self.ints

    def __eq__(self, other):
        return isinstance(other, TropVector) and (self.denom, self.ints) == (other.denom, other.ints)

    def __repr__(self):
        return "TropVector(%s)" % ", ".join(map(scalar_str, scalars(self.denom, self.ints)))


class TropMatrix:
    """An exact d x n matrix over the min-plus semiring, kept as its
    integer form, one tuple of ``ints`` per row.

    This raw constructor accepts arbitrary entries (including all-∞ rows or
    columns); operations that require nonempty row/column supports validate
    at the call site.
    """

    __slots__ = ("d", "n", "denom", "ints")

    def __init__(self, entries):
        rows = [[scalar(e) for e in row] for row in entries]
        if not rows or not rows[0]:
            raise DomainError("BAD_SHAPE", "matrices must be at least 1x1")
        if any(len(r) != len(rows[0]) for r in rows):
            raise DomainError("BAD_SHAPE", "ragged rows")
        self.d = len(rows)
        self.n = len(rows[0])
        self.denom, ints = integer_form([v for row in rows for v in row])
        self.ints = tuple(ints[k:k + self.n] for k in range(0, len(ints), self.n))

    def support(self):
        """All (i,j), 1-based, with finite entry."""
        return frozenset((i + 1, j + 1) for i, row in enumerate(self.ints) for j, v in enumerate(row) if v is not None)

    def __eq__(self, other):
        return isinstance(other, TropMatrix) and (self.denom, self.ints) == (other.denom, other.ints)

    def __repr__(self):
        return "TropMatrix(%d x %d)" % (self.d, self.n)


def require_column_supports(A: TropMatrix):
    """Reject matrices with an all-∞ column (arrangement / linear-space uses)."""
    for j, col in enumerate(zip(*A.ints), 1):
        if col.count(None) == A.d:
            raise DomainError("EMPTY_COLUMN", f"column {j} has empty support")


# ---------------------------------------------------------------------------
# JSON interchange
# ---------------------------------------------------------------------------

def matrix_to_json(A: TropMatrix) -> dict:
    return {
        "d": A.d,
        "n": A.n,
        "entries": [[scalar_str(v) for v in scalars(A.denom, row)] for row in A.ints],
    }


def matrix_from_json(obj) -> TropMatrix:
    if not isinstance(obj, dict) or not isinstance(obj.get("entries"), list):
        raise DomainError("BAD_MATRIX_JSON", "expected {'d','n','entries'}")
    if not all(isinstance(row, list) for row in obj["entries"]):
        raise DomainError("BAD_MATRIX_JSON", "entries must be a list of rows")
    if any(None in row for row in obj["entries"]):
        raise DomainError("BAD_SCALAR", 'null is not a scalar; ∞ is "inf"')
    A = TropMatrix(obj["entries"])
    for key, size in (("d", A.d), ("n", A.n)):
        if key in obj and not (type(obj[key]) is int and obj[key] == size):
            raise DomainError("BAD_MATRIX_JSON", f"declared {key} is not the integer {size} of the entries")
    return A


def vector_from_json(obj) -> TropVector:
    if not isinstance(obj, dict) or not isinstance(obj.get("entries"), list):
        raise DomainError("BAD_VECTOR_JSON", "expected {'entries': [...]}")
    if None in obj["entries"]:
        raise DomainError("BAD_SCALAR", 'null is not a scalar; ∞ is "inf"')
    return TropVector(obj["entries"])


def subset_key(J) -> str:
    """The JSON key "j1,...,jd" of a subset J: its indices in increasing
    order, joined by commas ("" for the empty set)."""
    return ",".join(map(str, sorted(J)))


def subset_from_key(key, d, n, code):
    """The d-subset of [n] written as the JSON key "j1,...,jd": exactly d
    distinct indices in [n], in ASCII decimal digits, joined by commas ("" for
    d = 0).  DomainError ``code`` for any other key."""
    parts = key.split(",") if key else []
    digits = [t for t in parts if t.isascii() and t.isdigit()]
    try:
        J = frozenset(map(int, digits))
    except ValueError:  # more digits than int() converts
        J = frozenset()
    if len(parts) != d or len(J) != d or not all(1 <= j <= n for j in J):
        raise DomainError(code, f"bad subset key {key!r}")
    return J


def dumps(obj) -> str:
    """Deterministic JSON emission used by the CLI."""
    return json.dumps(obj, sort_keys=True, separators=(", ", ": "))
