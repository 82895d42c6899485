"""Reference evaluators: literal sums that exist only to check fast code.

Multinomials, partitions and compositions, the k-RR histogram transition
over transfer tables and over datasets, the all-but-one transition sum,
and the literal channel stages (k-RR, shuffling, and noise then
shuffling) as integer rows.  This module imports only the standard
library and :mod:`rrshuffle.scalars`, so no fast evaluator, builder or
``cascade`` can leak into a reference; the fast modules import from it
only the names the benchmark under ``bench/`` reads through them, and
the check suites the references they run (a Tier-1 test walks both).
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from typing import Iterator, Sequence

from .scalars import Scalar, is_exact, require_mechanism

#: Hard bound on k**n for the oracle's enumerations.
ORACLE_CAP = 3**6


# ---------------------------------------------------------------------------
# Counting
# ---------------------------------------------------------------------------


def _check_parts(n: int, parts: Sequence[int]) -> None:
    if any(p < 0 for p in parts):
        raise ValueError("parts must be non-negative")
    if sum(parts) != n:
        raise ValueError("parts must sum to n")


def multinomial(n: int, parts: Sequence[int]) -> int:
    """Exact multinomial coefficient n! / (parts[0]! * parts[1]! * ...);
    the parts must be non-negative and sum to n."""
    _check_parts(n, parts)
    result = 1
    acc = 0
    for p in parts:
        acc += p
        result *= math.comb(acc, p)
    return result


def log_multinomial(n: int, parts: Sequence[int]) -> float:
    """Natural log of the multinomial coefficient, via lgamma."""
    _check_parts(n, parts)
    return math.lgamma(n + 1) - sum(math.lgamma(p + 1) for p in parts)


def partitions(n: int, max_parts: int) -> Iterator[tuple[int, ...]]:
    """All partitions of n into at most ``max_parts`` positive parts.

    Yields each partition exactly once as a non-increasing tuple of its
    parts, in decreasing lexicographic order, e.g. (6, 3) gives (6,),
    (5, 1), (4, 2), (4, 1, 1), (3, 3), (3, 2, 1), (2, 2, 2).  n = 0 yields
    the single empty partition.  The literal enumeration
    :func:`~rrshuffle.combinatorics.partition_terms` is tested against.
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


def compositions(n: int, k: int) -> Iterator[tuple[int, ...]]:
    """Every length-k count vector summing to n (k >= 1), in lexicographic
    order: from (0, ..., 0, n), the next moves one from the last nonzero
    count to the count before it and the rest of that count to the end."""
    counts = [0] * (k - 1) + [n]
    while True:
        yield tuple(counts)
        last = max((j for j, c in enumerate(counts) if c), default=0)
        if last == 0:
            return
        rest, counts[last] = counts[last] - 1, 0
        counts[last - 1] += 1
        counts[-1] = rest


def max_load_counts(n: int, k: int) -> list[int]:
    """Entry m: the maps of n labelled records into k labelled bins whose
    fullest bin holds m records, composition by composition; the sum of
    ``v_post_shuffle_general(method="composition")`` weights it by m."""
    counts = [0] * (n + 1)
    for comp in compositions(n, k):
        counts[max(comp)] += multinomial(n, comp)
    return counts


# ---------------------------------------------------------------------------
# The k-RR histogram transition
# ---------------------------------------------------------------------------


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


def _report_weights(n: int, k: int, p: Scalar):
    """(weights, den): weights[a] is p^a ((1-p)/(k-1))^(n-a), one report
    of n records of which a keep their value, as (s(k-1))^a (d-s)^(n-a)
    over den = (d(k-1))^n for p = s/d, or in binary64 over None."""
    if is_exact(p):
        s, d = p.as_integer_ratio()
        keep, move, den = s * (k - 1), d - s, (d * (k - 1)) ** n
    else:
        keep, move, den = p, (1 - p) / (k - 1), None
    return [keep**a * move ** (n - a) for a in range(n + 1)], den


def transition_sum(z_in: Sequence[int], z_out: Sequence[int], weights: Sequence[Scalar]):
    """Sum of ways * weights[kept] over the transfer tables from ``z_in``
    to ``z_out``: with per-report weights, the k-RR histogram transition
    probability over their denominator."""
    return sum(ways * weights[kept] for ways, kept in transfer_tables(z_in, z_out))


def krr_histogram_transition(z_in: Sequence[int], z_out: Sequence[int], p: Scalar) -> Scalar:
    """Probability that per-record k-ary randomized response turns an
    input with histogram ``z_in`` into an output with histogram ``z_out``
    (two length-k count vectors), summed over transfer tables.

    Each record independently keeps its value with probability p and
    moves to each other value with probability (1-p)/(k-1), so a
    transfer table with ``kept`` records kept stands for ``ways``
    reports of probability p^kept ((1-p)/(k-1))^(n-kept) each.  A
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
    weights, den = _report_weights(n, k, p)
    total = transition_sum(z_in, z_out, weights)
    return total if den is None else Fraction(total, den)


def oracle_histogram_transition(
    x: tuple[int, ...], z: tuple[int, ...], p: Scalar
) -> Fraction:
    """Probability that per-record noise maps dataset ``x`` into the set
    of datasets with histogram ``z``: the k-RR entries of :func:`literal_krr`
    summed over every dataset of that histogram.  k = len(z), p and the
    counts are checked as :func:`krr_histogram_transition` checks them;
    rational p only, k**n at most :data:`ORACLE_CAP`."""
    n = len(x)
    k = len(z)
    require_mechanism(k=k, p=p)
    if min(z) < 0:
        raise ValueError("histogram counts must be non-negative")
    if sum(z) != n:
        raise ValueError("histogram must sum to the dataset length")
    if any(v < 0 or v >= k for v in x):
        raise ValueError("dataset value out of range")
    if not is_exact(p):
        raise ValueError("oracle is rational-only; pass p as a Fraction")
    if k**n > ORACLE_CAP:
        raise ValueError(
            "oracle is desk-scale only: k**n = %d exceeds %d" % (k**n, ORACLE_CAP)
        )
    weights, den = _report_weights(n, k, p)
    return Fraction(sum(weights[sum(map(operator.eq, x, w))] for w in datasets(n, k)
                        if histogram(w, k) == z), den)


def abo_transition_sum(scenario) -> Fraction:
    """The all-but-one adversary's posterior vulnerability by its
    definition, the reference for
    :func:`~rrshuffle.vulnerability.abo_posterior`: half the sum, over
    the n + 1 output histograms, of the larger of the two candidate
    datasets' k-RR transition sums.  ``scenario`` has the fields of an
    ``AboScenario`` (n, p, known_a).  Exact; a float p is read as the
    rational it denotes."""
    n = scenario.n
    known_b = n - 1 - scenario.known_a
    if_a = (scenario.known_a + 1, known_b)  # target holds 'a'
    if_b = (scenario.known_a, known_b + 1)  # target holds 'b'
    weights, den = _report_weights(n, 2, Fraction(scenario.p))
    total = 0
    for a_out in range(n + 1):
        z_out = (a_out, n - a_out)
        total += max(transition_sum(if_a, z_out, weights),
                     transition_sum(if_b, z_out, weights))
    return Fraction(total, 2 * den)


# ---------------------------------------------------------------------------
# Literal channel stages: integer rows over one denominator
# ---------------------------------------------------------------------------


def datasets(n: int, k: int) -> list[tuple[int, ...]]:
    """Every dataset of n records over k values, the first record the
    most significant digit."""
    return list(itertools.product(range(k), repeat=n))


def histogram(x: Sequence[int], k: int) -> tuple[int, ...]:
    """The count of each of the k values in ``x``."""
    return tuple(map(x.count, range(k)))


def literal_krr(n: int, k: int, p: Scalar):
    """(rows, den) of per-record k-RR over datasets at a rational p: entry
    (x, y) is p^a ((1-p)/(k-1))^(n-a), a the records on which x and y
    agree, in the integers of :func:`_report_weights`."""
    weights, den = _report_weights(n, k, p)
    xs = datasets(n, k)
    return [[weights[sum(map(operator.eq, x, y))] for y in xs] for x in xs], den


def literal_shuffled(stage, n: int, k: int, reduced: bool = False):
    """(rows, den) of a literal stage ``(rows, den)`` over datasets, then
    shuffling: row x summed over each histogram class z is entry (x, z)
    with ``reduced`` (classes in lexicographic order); otherwise entry
    (x, y) is that sum at z = h(y) over #h(y), scaled by lcm(#h)."""
    rows, den = stage
    hists = [histogram(x, k) for x in datasets(n, k)]
    classes = sorted(set(hists))
    column = list(map({z: c for c, z in enumerate(classes)}.__getitem__, hists))
    sums = []
    for row in rows:
        acc = [0] * len(classes)
        for e, c in itertools.compress(zip(row, column), row):
            acc[c] += e
        sums.append(acc)
    if reduced:
        return sums, den
    size = list(map(column.count, range(len(classes))))
    lcm = math.lcm(*size)
    scale = [lcm // c for c in size]
    scaled = [list(map(operator.mul, row, scale)) for row in sums]
    return [list(map(row.__getitem__, column)) for row in scaled], den * lcm


def literal_shuffle(n: int, k: int, reduced: bool = False):
    """(rows, den) of shuffling: the identity stage then shuffled, so row
    x is 1/#h(x) on each dataset with the histogram h(x) of x, over the
    lcm of the class sizes #h, or with ``reduced`` 1 in the column of h(x)."""
    xs = datasets(n, k)
    return literal_shuffled(([[int(x == y) for y in xs] for x in xs], 1), n, k, reduced)
