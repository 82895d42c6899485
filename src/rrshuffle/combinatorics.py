"""Exact and log-space combinatorial primitives.

Counting functions return arbitrary-precision integers, so results such
as binomial(199, 99) are exact.  A log-space companion is provided for
sweeps where the exact integers would be wastefully large; its per-term
absolute error is bounded by ~1e-11 (a handful of lgamma evaluations).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .scalars import Scalar, is_exact, require_probability


def binomial(n: int, i: int) -> int:
    """C(n, i), exact; 0 whenever i falls outside [0, n]."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if i < 0 or i > n:
        return 0
    return math.comb(n, i)


def multinomial(n: int, parts: Sequence[int]) -> int:
    """Exact multinomial coefficient n! / (parts[0]! * parts[1]! * ...).

    The parts must be non-negative and sum to n.
    """
    if any(p < 0 for p in parts):
        raise ValueError("parts must be non-negative")
    if sum(parts) != n:
        raise ValueError("parts must sum to n")
    result = 1
    acc = 0
    for p in parts:
        acc += p
        result *= math.comb(acc, p)
    return result


def log_multinomial(n: int, parts: Sequence[int]) -> float:
    """Natural log of the multinomial coefficient, via lgamma.

    Absolute error stays below ~1e-11 per call, small enough that sums
    of ~1e5 exponentiated terms keep 1e-9 absolute accuracy.
    """
    if any(p < 0 for p in parts):
        raise ValueError("parts must be non-negative")
    if sum(parts) != n:
        raise ValueError("parts must sum to n")
    return math.lgamma(n + 1) - sum(math.lgamma(p + 1) for p in parts)


@dataclass(frozen=True)
class IntegerPartition:
    """A partition of an integer into non-increasing positive parts."""

    parts: tuple[int, ...]

    def __post_init__(self):
        if any(p <= 0 for p in self.parts):
            raise ValueError("parts must be positive")
        if any(a < b for a, b in zip(self.parts, self.parts[1:])):
            raise ValueError("parts must be non-increasing")

    @property
    def total(self) -> int:
        return sum(self.parts)

    @property
    def length(self) -> int:
        """Number of (positive) parts."""
        return len(self.parts)

    @property
    def max_part(self) -> int:
        return self.parts[0] if self.parts else 0

    @property
    def multiplicities(self) -> tuple[tuple[int, int], ...]:
        """(part value, count) pairs, in decreasing part order."""
        out: list[tuple[int, int]] = []
        for p in self.parts:
            if out and out[-1][0] == p:
                out[-1] = (p, out[-1][1] + 1)
            else:
                out.append((p, 1))
        return tuple(out)


def partitions(n: int, max_parts: int) -> Iterator[IntegerPartition]:
    """All partitions of n into at most ``max_parts`` positive parts.

    Yields each partition exactly once, in decreasing lexicographic
    order of the parts tuple, e.g. (6, 3) gives [6], [5,1], [4,2],
    [4,1,1], [3,3], [3,2,1], [2,2,2].  n = 0 yields the single empty
    partition.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if max_parts < 1:
        raise ValueError("max_parts must be at least 1")

    def rec(remaining: int, bound: int, prefix: list[int]) -> Iterator[IntegerPartition]:
        if remaining == 0:
            yield IntegerPartition(tuple(prefix))
            return
        if len(prefix) == max_parts:
            return
        slots_left = max_parts - len(prefix)
        for part in range(min(bound, remaining), 0, -1):
            if part * slots_left < remaining:
                break
            prefix.append(part)
            yield from rec(remaining - part, part, prefix)
            prefix.pop()

    yield from rec(n, n, [])


def krr_histogram_transition(
    n_a_in: int, n_b_in: int, n_a_out: int, n_b_out: int, p: Scalar
) -> Scalar:
    """Probability that per-record binary randomized response turns an
    input with histogram (n_a_in, n_b_in) into an output with histogram
    (n_a_out, n_b_out).

    Each record independently keeps its value with probability p.  The
    sum runs over the feasible counts of a-records that stayed an 'a';
    fixing that count fixes how many b-records stayed a 'b', and the
    binomials count the ways to choose which records flipped.  Exact
    when p is rational.
    """
    for count in (n_a_in, n_b_in, n_a_out, n_b_out):
        if count < 0:
            raise ValueError("histogram counts must be non-negative")
    n = n_a_in + n_b_in
    if n_a_out + n_b_out != n:
        raise ValueError(
            "count-sum mismatch: input histogram sums to %d, output to %d"
            % (n, n_a_out + n_b_out)
        )
    require_probability(p, Fraction(1, 2))

    pbar = 1 - p
    total: Scalar = 0
    lo = max(n_a_in - n_b_out, 0)
    hi = min(n_a_in, n_a_out)
    for m_a in range(lo, hi + 1):
        m_b = n_b_in - n_a_out + m_a
        matches = m_a + m_b
        total += (
            binomial(n_a_in, m_a)
            * binomial(n_b_in, m_b)
            * p**matches
            * pbar ** (n - matches)
        )
    return total


def epsilon_to_p(epsilon: float, k: int) -> float:
    """Truthful-report probability of k-ary randomized response at a
    given privacy parameter: p = e^eps / (k - 1 + e^eps).  Raises
    ``ValueError`` when e^eps overflows binary64."""
    if epsilon < 0:
        raise ValueError("epsilon must be non-negative")
    if k < 2:
        raise ValueError("k must be at least 2")
    try:
        e = math.exp(epsilon)
    except OverflowError:
        raise ValueError(
            "epsilon %r is too large: e^epsilon overflows" % (epsilon,)
        ) from None
    return e / (k - 1 + e)


def p_to_epsilon(p: Scalar, k: int) -> float:
    """Inverse of :func:`epsilon_to_p`: eps = ln(p (k-1) / (1 - p))."""
    if k < 2:
        raise ValueError("k must be at least 2")
    if p >= 1:
        raise ValueError("epsilon is infinite at p = 1")
    lower = Fraction(1, k) if is_exact(p) else 1 / k - 1e-9
    if p < lower:
        raise ValueError("p below uniform response 1/k has no epsilon")
    if is_exact(p):
        ratio = Fraction(p) * (k - 1) / (1 - Fraction(p))
        return math.log(ratio)
    return math.log(p * (k - 1) / (1 - p))
