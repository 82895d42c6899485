"""Scalar backends: exact rationals or binary64 floats.

Every probability in this library is either an exact rational
(``fractions.Fraction``, or ``int`` for 0/1) or a binary64 ``float``.
Which backend is in use follows the inputs: feed a ``Fraction``
parameter in and every derived quantity stays exact, with no rounding
anywhere; feed a ``float`` in and the computation runs in binary64.
Float results are compared with an absolute tolerance of ``FLOAT_TOL``.
An exact value is one integer quotient: its inputs are read as integer
pairs by ``as_integer_ratio()`` (which ``int``, ``Fraction`` and
``float`` all have), one integer numerator and one integer denominator
are built from them, and the two are divided once, into one
``Fraction`` or, in float mode, one correctly rounded binary64, with no
chain of ``Fraction`` operations in between.

The input rules live here too, one function each: :func:`require_mechanism`
for n, k and p, :func:`require_distribution` for a probability vector (a
channel row, a prior, the outer probabilities of a canonical form), and
:func:`exp_epsilon` for a privacy parameter epsilon.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

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


def require_mechanism(n: Optional[int] = None, k: Optional[int] = None,
                      p: Optional[Scalar] = None) -> None:
    """Reject n < 1 records, then k < 2 letters, then p outside [1/k, 1]
    (p needs k), with a ``ValueError``; an argument left None is not
    checked.  An exact p = s/d is checked as d <= k s <= k d, in
    integers.  A float p gets ``FLOAT_TOL`` slack at 1/k only: bounds
    like 1/3 are not binary64, and converted inputs can land one ulp
    below."""
    if n is not None and n < 1:
        raise ValueError("n must be at least 1")
    if k is not None and k < 2:
        raise ValueError("k must be at least 2")
    if p is None:
        return
    if is_exact(p):
        s, d = p.as_integer_ratio()  # d > 0: 1/k <= s/d <= 1 in integers
        ok = d <= k * s <= k * d
    else:
        ok = 1 / k - FLOAT_TOL <= p <= 1
    if not ok:
        raise ValueError("p must lie in [%s, 1] (got %s)" % (Fraction(1, k), p))


def require_distribution(what: str, values: Sequence[Scalar],
                         den: Optional[int]) -> None:
    """Reject a negative entry, then a total other than 1, with a
    ``ValueError`` naming ``what``.  Exact entries (integers over ``den``,
    or rationals with ``den`` 1) must sum to ``den``; with ``den`` None
    (binary64) the sum must be finite and within ``FLOAT_TOL`` of 1."""
    if values and min(values) < 0:
        raise ValueError("negative entry in %s" % what)
    total = sum(values)
    if den is None and not math.isfinite(total):
        raise ValueError("%s sums to %r, not a finite number" % (what, total))
    if (total != den) if den is not None else (abs(total - 1) > FLOAT_TOL):
        raise ValueError("%s sums to %s, not 1"
                         % (what, total if den is None else Fraction(total, den)))


def exp_epsilon(epsilon: float) -> float:
    """e^epsilon in binary64 for a privacy parameter epsilon, which must be
    finite and non-negative, and small enough that e^epsilon does not
    overflow binary64 (epsilon below about 709.78).  Raises ``ValueError``."""
    if not math.isfinite(epsilon):
        raise ValueError("epsilon must be finite (got %r)" % (epsilon,))
    if epsilon < 0:
        raise ValueError("epsilon must be non-negative")
    try:
        return math.exp(epsilon)
    except OverflowError:
        raise ValueError(
            "epsilon %r is too large: e^epsilon overflows" % (epsilon,)
        ) from None


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
