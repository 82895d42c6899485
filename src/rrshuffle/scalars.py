"""Scalar backends: exact rationals or binary64 floats.

Every probability in this library is either an exact rational
(``fractions.Fraction``, or ``int`` for 0/1) or a binary64 ``float``.
Which backend is in use follows the inputs: feed a ``Fraction``
parameter in and every derived quantity stays exact, with no rounding
anywhere; feed a ``float`` in and the computation runs in binary64.
Float results are compared with an absolute tolerance of ``FLOAT_TOL``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence, Union

Scalar = Union[Fraction, float, int]

#: Absolute tolerance for comparing float-mode results.
FLOAT_TOL = 1e-9


def is_exact(value: Scalar) -> bool:
    """True if ``value`` carries no rounding (a rational or an int)."""
    return isinstance(value, (Fraction, int)) and not isinstance(value, bool)


def all_exact(values: Iterable[Scalar]) -> bool:
    return all(is_exact(v) for v in values)


def integer_rows(rows: Sequence[Sequence[Scalar]]):
    """Rows of rationals as integer rows over their least common
    denominator: (integer rows, den), entry e becoming e * den."""
    den = math.lcm(*{e.denominator for row in rows for e in row})
    return [tuple(e.numerator * (den // e.denominator) for e in row) for row in rows], den


def close(a: Scalar, b: Scalar, tol: float = FLOAT_TOL) -> bool:
    """Equality test: exact when both sides are exact, within ``tol`` otherwise."""
    if is_exact(a) and is_exact(b):
        return a == b
    return abs(a - b) <= tol


def require_probability(p: Scalar, lower: Scalar, name: str = "p") -> None:
    """Reject ``p`` outside [lower, 1].

    Exact operands are checked exactly.  Floats get ``FLOAT_TOL`` slack
    at the lower bound only, since bounds like 1/3 are not representable
    in binary64 and converted inputs can land one ulp below.
    """
    if is_exact(p):
        ok = lower <= p <= 1
    else:
        ok = float(lower) - FLOAT_TOL <= p <= 1
    if not ok:
        raise ValueError("%s must lie in [%s, 1] (got %r)" % (name, lower, p))


def parse_scalar(text: str, exact: bool) -> Scalar:
    """Parse a probability from CLI text.

    Accepts decimals ("0.75") and ratios ("3/4").  In exact mode the
    decimal is read as the exact rational it denotes.  A zero
    denominator raises ``ValueError``.
    """
    try:
        if exact:
            return Fraction(text)
        if "/" in text:
            return float(Fraction(text))
        return float(text)
    except ZeroDivisionError:
        raise ValueError("zero denominator in %r" % (text,)) from None
