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
chain of ``Fraction`` operations in between.  A table of exact entries
(a channel's rows, a prior, a gain function) is converted once, where
it enters, to integers over one denominator (:func:`integer_rows`); a
channel's float rows are stored as binary64 (:func:`stored_rows`).  So
the mode of a table is read from how it is stored.

The input rules live here too, one function each: :func:`require_mechanism`
for n, k and p, :func:`require_distribution` for a probability vector (a
channel row, a prior, the outer probabilities of a canonical form), and
:func:`exp_epsilon` for a privacy parameter epsilon, and the one printer
of a scalar, :func:`format_scalar`.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from operator import attrgetter, countOf, floordiv, mul
from typing import Iterable, Optional, Sequence, Union

Scalar = Union[Fraction, float, int]

#: Absolute tolerance for comparing float-mode results.
FLOAT_TOL = 1e-9


def is_exact(value: Scalar) -> bool:
    """True if ``value`` carries no rounding (a rational or an int)."""
    return isinstance(value, (int, Fraction)) and not isinstance(value, bool)


def all_exact(values: Iterable[Scalar]) -> bool:
    return all(map(is_exact, values))


_numerator, _denominator = attrgetter("numerator"), attrgetter("denominator")


def integer_rows(rows: Sequence[Sequence[Scalar]]):
    """Rows of rationals (``Fraction`` or ``int``) as integer rows over
    their least common denominator, ``(num, den)``: entry e becomes
    e * den, and ``num`` is a tuple of tuples."""
    den = math.lcm(*set(map(_denominator, itertools.chain.from_iterable(rows))))
    return tuple(tuple(map(mul, map(_numerator, row),
                           map(floordiv, itertools.repeat(den), map(_denominator, row))))
                 for row in rows), den


def stored_rows(rows: Iterable[Iterable[Scalar]]):
    """Rows of probabilities in their stored form, ``(num, den)``.

    When every entry is a rational: :func:`integer_rows`.  Otherwise
    binary64 rows with ``den`` None: each entry rounded once to a
    ``float`` (-0.0 stored as 0.0), and a row of nonzero floats, found
    in two C-level passes, kept as the same object.  ``num`` is a tuple
    of tuples either way.
    """
    rows = [tuple(row) for row in rows]
    if all(map(all_exact, rows)):
        return integer_rows(rows)
    return tuple(row if countOf(map(type, row), float) == len(row) and all(row)
                 else tuple(map(_binary64_entry, row))
                 for row in rows), None


def _binary64_entry(e) -> float:
    """``e`` rounded once to binary64: adding 0.0 refuses non-numbers and
    turns -0.0 into 0.0, ``float`` drops float subclasses."""
    return float(e + 0.0)


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


def format_scalar(value: Scalar, exact: bool) -> str:
    """The text of a value in CLI output and CSV dumps: an exact value
    printed with ``exact`` is its reduced fraction ("3/4", or "1" for an
    integer); anything else is the repr of its correctly rounded binary64
    value."""
    if exact and is_exact(value):
        return str(value)
    return repr(float(value))
