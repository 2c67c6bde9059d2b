"""Exact min-plus (tropical) arithmetic: scalars, vectors, matrices.

The semiring carrier is Q ∪ {∞} with ⊕ = min and ⊙ = +.  A finite value is
an ``int`` when it is whole and otherwise a reduced `fractions.Fraction` with
denominator > 1, so integer inputs never enter `Fraction` arithmetic;
``scalar`` keeps this on input and ``quotient`` on the quotients the library
forms itself.  The absorbing element is the module singleton ``INF``.
``trop_vanishes`` is the one test of "the minimum is ∞ or attained twice".
Everything is immutable and exact -- no floats anywhere: ``/`` between two
ints would give one, so the library divides only through ``quotient`` or
with a `Fraction` on the left, and ``scalar_str`` refuses a float.
``TropVector``, ``TropMatrix`` and ``plucker.PluckerVector`` take their
integer form on construction (``integer_form``): ``denom``, the LCM of the
finite entries' denominators, and ``ints``, the entries times it (None at ∞).

Row and column indices are 1-based throughout the public API, matching the
usual conventions for [d] x [n] bipartite objects.  Vector entries are
addressed 1-based via ``entry``; the underlying tuples are 0-based.  The
JSON codec reads and writes matrices, and reads vectors.
"""

from __future__ import annotations

import json
import math
import sys
from fractions import Fraction


class DomainError(Exception):
    """A violated mathematical precondition, with a machine-readable code."""

    def __init__(self, code: str, message: str = ""):
        super().__init__(message or code)
        self.code = code


class _Infinity:
    """The tropical additive identity +∞ (absorbing for ⊙, identity for ⊕)."""

    _instance = None
    __slots__ = ()

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "inf"

    # ∞ is strictly greater than every rational.
    def __lt__(self, other):
        return False

    def __le__(self, other):
        return other is self

    def __gt__(self, other):
        return other is not self

    def __ge__(self, other):
        return True

    def __add__(self, other):
        return self

    def __radd__(self, other):
        return self

    def __neg__(self):
        raise DomainError("NEGATE_INF", "cannot negate infinity")


INF = _Infinity()


def scalar(x):
    """Coerce ``x`` (int, Fraction, 'p/q' string, 'inf', INF) to a scalar:
    INF, an int when the value is whole, else a reduced Fraction."""
    if x is INF or type(x) is int:
        return x
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    if isinstance(x, bool):
        raise DomainError("BAD_SCALAR", "booleans are not scalars")
    if isinstance(x, int):
        return int(x)
    if isinstance(x, str) and "e" not in x.lower():  # an exponent asks Fraction for 10^k
        if x.strip().lower() == "inf":
            return INF
        try:
            return scalar(Fraction(x))
        except (ValueError, ZeroDivisionError):
            raise DomainError("BAD_SCALAR", f"cannot interpret {x!r} as a scalar") from None
    if isinstance(x, float):
        raise DomainError("BAD_SCALAR", "floating point is not allowed")
    raise DomainError("BAD_SCALAR", f"cannot interpret {x!r} as a scalar")


def quotient(num, den):
    """The scalar num / den of ints, den > 0: an int when den divides num,
    else a reduced Fraction."""
    q, r = divmod(num, den)
    return Fraction(num, den) if r else q


def integer_form(values):
    """(denom, ints): the LCM of the finite ``values``' denominators and
    each value times it, an int, or None at ∞."""
    denom = math.lcm(*{v.denominator for v in values if v is not INF})
    if denom == 1:
        return 1, tuple([None if v is INF else v for v in values])
    return denom, tuple([None if v is INF else v.numerator * (denom // v.denominator) for v in values])


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
    """Tropical vanishing: the minimum of ``values`` is ∞ (as it is for no
    values) or is attained at least twice.  This is the condition of
    circuit membership and of the Plücker relations."""
    values = list(values)
    best = min(values, default=INF)
    return best is INF or values.count(best) >= 2


class TropVector:
    """An exact vector over the min-plus semiring."""

    __slots__ = ("entries", "denom", "ints")

    def __init__(self, entries):
        self.entries = tuple(scalar(e) for e in entries)
        if not self.entries:
            raise DomainError("EMPTY_VECTOR", "vectors must have length >= 1")
        self.denom, self.ints = integer_form(self.entries)

    def __len__(self):
        return len(self.entries)

    def entry(self, j):
        """1-based coordinate access."""
        return self.entries[j - 1]

    def support(self):
        """1-based indices of finite entries."""
        return frozenset(j + 1 for j, v in enumerate(self.entries) if v is not INF)

    def is_finite(self):
        return None not in self.ints

    def __eq__(self, other):
        return isinstance(other, TropVector) and self.entries == other.entries

    def __repr__(self):
        return "TropVector(%s)" % (", ".join(scalar_str(v) for v in self.entries))


class TropMatrix:
    """An exact d x n matrix over the min-plus semiring.

    This raw constructor accepts arbitrary entries (including all-∞ rows or
    columns); operations that require nonempty row/column supports validate
    at the call site.
    """

    __slots__ = ("d", "n", "entries", "denom", "ints")

    def __init__(self, entries):
        rows = tuple(tuple(scalar(e) for e in row) for row in entries)
        if not rows or not rows[0]:
            raise DomainError("BAD_SHAPE", "matrices must be at least 1x1")
        if any(len(r) != len(rows[0]) for r in rows):
            raise DomainError("BAD_SHAPE", "ragged rows")
        self.entries = rows
        self.d = len(rows)
        self.n = len(rows[0])
        self.denom, ints = integer_form([v for row in rows for v in row])
        self.ints = tuple(ints[k:k + self.n] for k in range(0, len(ints), self.n))

    def entry(self, i, j):
        """1-based entry access."""
        return self.entries[i - 1][j - 1]

    def support(self):
        """All (i,j), 1-based, with finite entry."""
        return frozenset(
            (i + 1, j + 1)
            for i, row in enumerate(self.entries)
            for j, v in enumerate(row)
            if v is not INF
        )

    def col_support(self, j):
        """I_j: rows with finite entry in column j."""
        return frozenset(i for i in range(1, self.d + 1) if self.entry(i, j) is not INF)

    def __eq__(self, other):
        return isinstance(other, TropMatrix) and self.entries == other.entries

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
        "entries": [[scalar_str(v) for v in row] for row in A.entries],
    }


def matrix_from_json(obj) -> TropMatrix:
    if not isinstance(obj, dict) or not isinstance(obj.get("entries"), list):
        raise DomainError("BAD_MATRIX_JSON", "expected {'d','n','entries'}")
    if not all(isinstance(row, list) for row in obj["entries"]):
        raise DomainError("BAD_MATRIX_JSON", "entries must be a list of rows")
    A = TropMatrix(obj["entries"])
    for key, size in (("d", A.d), ("n", A.n)):
        if key in obj and not (type(obj[key]) is int and obj[key] == size):
            raise DomainError("BAD_MATRIX_JSON", f"declared {key} is not the integer {size} of the entries")
    return A


def vector_from_json(obj) -> TropVector:
    if not isinstance(obj, dict) or not isinstance(obj.get("entries"), list):
        raise DomainError("BAD_VECTOR_JSON", "expected {'entries': [...]}")
    return TropVector(obj["entries"])


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
