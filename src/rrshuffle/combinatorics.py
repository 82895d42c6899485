"""Exact combinatorial primitives and the k-RR per-record weights.

Counting functions return arbitrary-precision integers, so results such
as binomial(199, 99) are exact.  :func:`partition_terms` yields what the
histogram sums need for each partition shape, its coefficient and
largest part, from one recursion that carries the coefficient with no
validated multinomial per term; its reference, the literal enumeration
of the partitions, is :func:`~rrshuffle.reference.partitions`.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterator

from .reference import (  # kept by name for the tracer in bench/spans.py
    krr_histogram_transition,
    log_multinomial,
    multinomial,
    partitions,
)
from .scalars import Scalar, exp_epsilon, is_exact, require_mechanism


def binomial(n: int, i: int) -> int:
    """C(n, i), exact; 0 whenever i falls outside [0, n]."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if i < 0 or i > n:
        return 0
    return math.comb(n, i)


def enumerate_histograms(n: int, k: int) -> list[tuple[int, ...]]:
    """All length-k count vectors summing to n (the compositions of n into
    k non-negative parts), in lexicographic order: stars and bars, the
    parts being the gaps between k - 1 bars placed among n + k - 1 slots."""
    slots = n + k - 1
    return [tuple(b - a - 1 for a, b in zip((-1,) + bars, bars + (slots,)))
            for bars in itertools.combinations(range(slots), k - 1)]


def partition_terms(n: int, k: int) -> Iterator[tuple[int, int]]:
    """(coefficient, largest part) for each partition of n into at most
    k parts, in the order of :func:`~rrshuffle.reference.partitions`.

    The coefficient multinomial(n; parts) * multinomial(k; multiplicities,
    k - length) counts the maps of n labelled records into k labelled
    values whose histogram has that shape, so the coefficients sum to
    k^n.  One recursion over the parts builds it as it goes: a part taken
    from the r records left, with ``slots`` of the k values still free,
    multiplies it by C(r, part) * slots, and a part equal to the one
    before divides it by the new length of that run.  Each prefix's value
    is multinomial(n; parts, r) * multinomial(k; multiplicities, slots),
    an integer, so every step is exact.  The largest part's C(n, top)
    comes from the one before, C(n, top - 1) = C(n, top) top / (n - top + 1),
    and at k = 2 the rest is the second and last part, so the terms are
    C(n, t) + C(n, n - t) for t > n/2 and C(n, n/2) in the middle.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if k < 1:
        raise ValueError("k must be at least 1")

    def rec(r: int, bound: int, used: int, run: int, coef: int) -> Iterator[int]:
        # ``used`` parts taken, the last equal to ``bound`` and ``run`` long
        slots = k - used
        for part in range(min(bound, r), 0, -1):
            if part * slots < r:
                break
            step = coef * math.comb(r, part) * slots
            if part == bound:
                run_now = run + 1
                step //= run_now
            else:
                run_now = 1
            rest = r - part
            if rest == 0:
                yield step
            elif slots == 2:  # the rest is the last part: no generator for it
                yield step // (run_now + 1) if rest == part else step
            else:
                yield from rec(rest, part, used + 1, run_now, step)

    if n == 0:
        yield 1, 0
        return
    choose = 1  # C(n, top)
    for top in range(n, 0, -1):
        if top * k < n:
            break
        coef = choose * k
        rest = n - top
        if rest == 0:
            yield coef, top
        elif k == 2:  # the rest is the last part
            yield (coef // 2 if rest == top else coef), top
        else:
            for step in rec(rest, top, 1, 1, coef):
                yield step, top
        choose = choose * top // (rest + 1)


def record_weights(k: int, p: Scalar):
    """(keep, move, base): the probability that one record's k-ary
    randomized response keeps its value, and that it reports one given
    other value, over the per-record denominator ``base``.

    For a rational p = a/b, keep = a (k-1) and move = b-a are integers
    over base = b (k-1).  For a float p they are p and (1-p)/(k-1) in
    binary64, and ``base`` is None.
    """
    if is_exact(p):
        a, b = p.as_integer_ratio()
        return a * (k - 1), b - a, b * (k - 1)
    return p, (1 - p) / (k - 1), None


def match_weights(n: int, k: int, p: Scalar):
    """Probability that per-record k-ary randomized response maps a
    dataset to one given dataset agreeing with it in m positions, for
    m = 0..n: keep**m move**(n-m) with the weights of
    :func:`record_weights`, over the denominator base**n (None for a
    float p).  An exact keep, move and base are first divided by their
    gcd, so the weights and the denominator share no factor: a prime
    of base divides at most one of keep**n and move**n."""
    keep, move, base = record_weights(k, p)
    if base is not None:
        g = math.gcd(keep, move, base)
        keep, move, base = keep // g, move // g, base // g
    weights = [keep**m * move ** (n - m) for m in range(n + 1)]
    return weights, None if base is None else base**n


def epsilon_to_p(epsilon: float, k: int, exact: bool = False) -> Scalar:
    """Truthful-report probability of k-ary randomized response at a
    given privacy parameter: p = e^eps / (k - 1 + e^eps).

    The rational E / (k - 1 + E), E = s/d being the value binary64
    e^eps denotes, is one integer quotient s / ((k - 1) d + s), so
    eps = 0 gives exactly 1/k; with ``exact`` unset it is rounded once to
    binary64.  Raises ``ValueError`` for an epsilon
    :func:`~rrshuffle.scalars.exp_epsilon` refuses and for k < 2."""
    s, d = exp_epsilon(epsilon).as_integer_ratio()
    require_mechanism(k=k)
    den = (k - 1) * d + s
    return Fraction(s, den) if exact else s / den


def p_to_epsilon(p: Scalar, k: int) -> float:
    """Inverse of :func:`epsilon_to_p`: eps = ln(p (k-1) / (1 - p)) for
    1/k <= p < 1; for an exact p = s/d the ratio is one integer quotient,
    s (k-1) / (d - s), rounded once.  k and p are checked by
    :func:`~rrshuffle.scalars.require_mechanism`, and p = 1 (an infinite
    epsilon) is refused as well, each with a ``ValueError``.  A float p
    the rule accepts within its tolerance below 1/k means 1/k: its
    epsilon is 0, not a negative rounding residue."""
    require_mechanism(k=k, p=p)
    if p == 1:
        raise ValueError("epsilon is infinite at p = 1")
    if is_exact(p):
        s, d = p.as_integer_ratio()
        return math.log(s * (k - 1) / (d - s))
    return max(0.0, math.log(p * (k - 1) / (1 - p)))
