"""Brute-force ground truth by literal application of the definitions.

:func:`oracle_posterior` enumerates the full dataset space in exact
rationals and writes the vulnerability sum out literally.  Its stages
come from the fast builders, so it is certified through the literal
stages of :mod:`rrshuffle.reference`, which Tier-1 checks those builders
against entry for entry.  Single-threaded, desk-scale by design.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from operator import add, mul
from typing import Sequence

from .channels import CapExceededError, build_krr, build_shuffle_full
from .reference import ORACLE_CAP  # the hard bound on k**n for oracle runs
from .reference import oracle_histogram_transition  # kept by name for bench/make_refs.py
from .scalars import Scalar, is_exact


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

    Builds the full channel C_1, ..., C_s of each stage ('krr' or
    'shuffle') and evaluates sum_y max_w sum_{x: x0 = w} pi_x C[x, y]
    for the pipeline C = C_1 ... C_s under the uniform prior, target
    block first.  Datasets are enumerated with the target's value as the
    most significant digit, so the rows with x0 = w are the w-th block
    of k**(n - 1) rows, and sum_{x: x0 = w} C[x, .] is that block's row
    sum in C_1 taken through C_2, ..., C_s one stage at a time, vector
    times matrix (:func:`_times`).  The k**n x k**n product of the
    stages is never built.  Exact rationals only: the sums run on
    the stages' integer numerators and are divided once, by the product
    of their denominators and the k**n of the uniform prior.
    """
    if not pipeline:
        raise ValueError("pipeline must name at least one mechanism")
    _check_oracle_size(n, k)
    if any(kind == "krr" for kind in pipeline):
        if p is None:
            raise ValueError("pipeline contains 'krr' but no p was given")
        if not is_exact(p):
            raise ValueError("oracle is rational-only; pass p as a Fraction")

    stages = []
    for kind in pipeline:
        if kind == "krr":
            stages.append(build_krr(n, k, Fraction(p)))
        elif kind == "shuffle":
            stages.append(build_shuffle_full(n, k))
        else:
            raise ValueError("unknown pipeline stage %r" % (kind,))

    size = k ** (n - 1)
    first = stages[0].num
    blocks = [list(map(sum, zip(*first[w * size:(w + 1) * size]))) for w in range(k)]
    den = stages[0].den * k**n
    for stage in stages[1:]:
        blocks = _times(blocks, stage.num)
        den *= stage.den
    return Fraction(sum(map(max, *blocks)), den)


def _times(vectors: list[list[int]], rows) -> list[list[int]]:
    """Each integer vector v of ``vectors`` times the matrix ``rows``,
    sum_i v[i] rows[i], in C-level passes over whole rows.

    Indices whose rows are one object (one shuffle class) have their
    weights added first.  Row objects whose weights agree in every vector
    are then summed first, column by column, and scaled once per vector:
    after a shuffle the block vectors are constant on each histogram
    class, so a dense noise stage is summed class by class.

    It stays a second kernel beside ``channels._matmul``, the product
    behind ``cascade``, because each loses on the other's work: the block
    vectors through ``_matmul`` were slower than the full cascade they
    would replace, and ``cascade`` through this grouping was 1.3-2.1x
    slower at (n, k) = (4, 3) and (5, 3) in every stage order but
    shuffle then noise.
    """
    members: dict[int, tuple] = {}
    for weights, row in zip(zip(*vectors), rows):  # row i's weight in each vector
        members.setdefault(id(row), (row, []))[1].append(weights)
    groups: dict[tuple[int, ...], list] = {}
    for row, weights in members.values():
        key = weights[0] if len(weights) == 1 else tuple(map(sum, zip(*weights)))
        if any(key):
            groups.setdefault(key, []).append(row)
    totals = [(key, group[0] if len(group) == 1 else list(map(sum, zip(*group))))
              for key, group in groups.items()]
    products = []
    for w in range(len(vectors)):
        acc = [0] * len(rows[0])
        for key, total in totals:
            if key[w]:
                acc = list(map(add, acc, map(mul, itertools.repeat(key[w]), total)))
        products.append(acc)
    return products
