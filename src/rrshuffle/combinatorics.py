"""Exact combinatorial primitives and k-RR histogram transitions.

Counting functions return arbitrary-precision integers, so results such
as binomial(199, 99) are exact.  :func:`partition_terms` yields what the
histogram sums need for each partition shape, its coefficient and
largest part, from one recursion that carries the coefficient with no
validated multinomial per term; :func:`partitions` yields the shapes
themselves as plain tuples, the literal enumeration it is tested against.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator, Sequence

from .scalars import Scalar, exp_epsilon, is_exact, require_mechanism


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
    """Natural log of the multinomial coefficient, via lgamma."""
    if any(p < 0 for p in parts):
        raise ValueError("parts must be non-negative")
    if sum(parts) != n:
        raise ValueError("parts must sum to n")
    return math.lgamma(n + 1) - sum(math.lgamma(p + 1) for p in parts)


def enumerate_histograms(n: int, k: int) -> list[tuple[int, ...]]:
    """All length-k count vectors summing to n (the compositions of n into
    k non-negative parts), in lexicographic order."""
    out: list[tuple[int, ...]] = []

    def rec(prefix: list[int], remaining: int):
        if len(prefix) == k - 1:
            out.append(tuple(prefix) + (remaining,))
            return
        for c in range(remaining + 1):
            prefix.append(c)
            rec(prefix, remaining - c)
            prefix.pop()

    rec([], n)
    return out


def partitions(n: int, max_parts: int) -> Iterator[tuple[int, ...]]:
    """All partitions of n into at most ``max_parts`` positive parts.

    Yields each partition exactly once as a non-increasing tuple of its
    parts, in decreasing lexicographic order, e.g. (6, 3) gives (6,),
    (5, 1), (4, 2), (4, 1, 1), (3, 3), (3, 2, 1), (2, 2, 2).  n = 0 yields
    the single empty partition.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if max_parts < 1:
        raise ValueError("max_parts must be at least 1")

    def rec(remaining: int, bound: int, prefix: list[int]) -> Iterator[tuple[int, ...]]:
        if remaining == 0:
            yield tuple(prefix)
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


def partition_terms(n: int, k: int) -> Iterator[tuple[int, int]]:
    """(coefficient, largest part) for each partition of n into at most
    k parts, in the order of :func:`partitions`.

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


def _splits(total: int, room: Sequence[int]) -> Iterator[tuple[tuple[int, ...], int]]:
    """Each way to split ``total`` into len(room) >= 2 non-negative parts
    with part j at most room[j], with its multinomial coefficient."""
    spare = sum(room[1:])
    for first in range(max(0, total - spare), min(total, room[0]) + 1):
        ways = math.comb(total, first)
        if len(room) == 2:
            yield (first, total - first), ways
        else:
            for rest, more in _splits(total - first, room[1:]):
                yield (first,) + rest, ways * more


def transfer_tables(z_in: Sequence[int], z_out: Sequence[int]) -> Iterator[tuple[int, int]]:
    """(ways, kept) for each k x k table T of non-negative counts with row
    sums ``z_in`` and column sums ``z_out`` (k >= 2, both summing to n).

    T[i][j] counts the records of value i reported as value j.  ``ways``
    = prod_i multinomial(z_in[i]; T[i]) is the number of record-level
    reports the table stands for, and ``kept`` = trace(T) the number of
    records that kept their value.  Tables come row by row, each row in
    increasing lexicographic order; the last row is what the column
    sums leave over.
    """
    k = len(z_in)

    def rows(i: int, room: tuple[int, ...]) -> Iterator[tuple[int, int]]:
        if i == k - 1:
            ways, left = 1, z_in[i]
            for c in room:
                ways *= math.comb(left, c)
                left -= c
            yield ways, room[i]
            return
        for row, ways in _splits(z_in[i], room):
            rest = tuple(c - t for c, t in zip(room, row))
            for more, kept in rows(i + 1, rest):
                yield ways * more, kept + row[i]

    return rows(0, tuple(z_out))


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


def transition_sum(z_in: Sequence[int], z_out: Sequence[int], weights: Sequence[Scalar]):
    """Sum of ways * weights[kept] over the transfer tables from ``z_in``
    to ``z_out``: with the weights of :func:`match_weights`, the k-RR
    histogram transition probability over their denominator."""
    return sum(ways * weights[kept] for ways, kept in transfer_tables(z_in, z_out))


def krr_histogram_transition(z_in: Sequence[int], z_out: Sequence[int], p: Scalar) -> Scalar:
    """Probability that per-record k-ary randomized response turns an
    input with histogram ``z_in`` into an output with histogram ``z_out``
    (two length-k count vectors).

    Each record independently keeps its value with probability p and
    moves to each other value with probability (1-p)/(k-1), so a
    transfer table with ``kept`` records kept stands for ``ways``
    reports of probability ``match_weights(n, k, p)[kept]`` each.  A
    ``Fraction`` when p is rational, binary64 otherwise.
    """
    k = len(z_in)
    require_mechanism(k=k, p=p)
    if len(z_out) != k:
        raise ValueError("histograms must have the same length")
    if min(z_in) < 0 or min(z_out) < 0:
        raise ValueError("histogram counts must be non-negative")
    n = sum(z_in)
    if sum(z_out) != n:
        raise ValueError(
            "count-sum mismatch: input histogram sums to %d, output to %d"
            % (n, sum(z_out))
        )
    weights, den = match_weights(n, k, p)
    total = transition_sum(z_in, z_out, weights)
    return total if den is None else Fraction(total, den)


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
    epsilon) is refused as well, each with a ``ValueError``."""
    require_mechanism(k=k, p=p)
    if p == 1:
        raise ValueError("epsilon is infinite at p = 1")
    if is_exact(p):
        s, d = p.as_integer_ratio()
        return math.log(s * (k - 1) / (d - s))
    return math.log(p * (k - 1) / (1 - p))
