"""Brute-force ground truth by literal application of the definitions.

Everything here enumerates the full dataset space and works in exact
rationals only.  It deliberately shares no code with the formula module:
the channel builders are reused, but the vulnerability sums are written
out literally, so the closed forms can be validated against an
independent computation.  Single-threaded, desk-scale by design.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Sequence

from .channels import (
    CapExceededError,
    Channel,
    build_krr,
    build_shuffle_full,
    cascade,
    histogram_of,
)
from .scalars import Scalar, is_exact

#: Hard bound on k**n for oracle runs.
ORACLE_CAP = 3**6


def _check_oracle_size(n: int, k: int):
    if k**n > ORACLE_CAP:
        raise CapExceededError(
            "oracle is desk-scale only: k**n = %d exceeds %d" % (k**n, ORACLE_CAP)
        )


def oracle_posterior(
    n: int, k: int, pipeline: Sequence[str], p: Scalar = None
) -> Fraction:
    """Posterior single-target vulnerability of a mechanism pipeline,
    computed by full enumeration.

    Builds the full channel for each stage ('krr' or 'shuffle'),
    cascades them in the given order, and evaluates
    sum_y max_w sum_{x: x0 = w} pi_x C[x, y] directly under the uniform
    prior: the rows with x0 = w are one contiguous block, whose column
    sums are taken in one pass.  Exact rationals only.
    """
    if not pipeline:
        raise ValueError("pipeline must name at least one mechanism")
    _check_oracle_size(n, k)
    if any(kind == "krr" for kind in pipeline):
        if p is None:
            raise ValueError("pipeline contains 'krr' but no p was given")
        if not is_exact(p):
            raise ValueError("oracle is rational-only; pass p as a Fraction")

    channel: Channel = None
    for kind in pipeline:
        if kind == "krr":
            stage = build_krr(n, k, Fraction(p))
        elif kind == "shuffle":
            stage = build_shuffle_full(n, k)
        else:
            raise ValueError("unknown pipeline stage %r" % (kind,))
        channel = stage if channel is None else cascade(channel, stage)

    # The entries are channel.num over channel.den.  Rows follow
    # enumerate_datasets, where the target's value is the most
    # significant digit, so the datasets with x0 = w are the w-th block
    # of k**(n - 1) rows: sum each block's columns, take the largest
    # block sum in each column, and divide once, by den and by the k**n
    # of the uniform prior.
    size = k ** (n - 1)
    blocks = [map(sum, zip(*channel.num[w * size:(w + 1) * size])) for w in range(k)]
    total = sum(map(max, *blocks))
    return Fraction(total, channel.den * k**n)


def oracle_histogram_transition(
    x: tuple[int, ...], z: tuple[int, ...], p: Scalar
) -> Fraction:
    """Probability that per-record noise maps dataset ``x`` into the set
    of datasets with histogram ``z``, by direct enumeration."""
    n = len(x)
    k = len(z)
    if sum(z) != n:
        raise ValueError("histogram must sum to the dataset length")
    if any(v < 0 or v >= k for v in x):
        raise ValueError("dataset value out of range")
    if not is_exact(p):
        raise ValueError("oracle is rational-only; pass p as a Fraction")
    _check_oracle_size(n, k)
    p = Fraction(p)
    off = (1 - p) / (k - 1)
    total = Fraction(0)
    for w in itertools.product(range(k), repeat=n):
        if histogram_of(w, k) != z:
            continue
        prob = Fraction(1)
        for a, b in zip(x, w):
            prob *= p if a == b else off
        total += prob
    return total
