"""Brute-force ground truth by literal application of the definitions.

:func:`oracle_posterior` enumerates the full dataset space in exact
rationals and writes the vulnerability sum out literally.  Its stages
come from the fast builders, so it is certified through the literal
stages of :mod:`rrshuffle.reference`, which Tier-1 checks those builders
against entry for entry.  Single-threaded, desk-scale by design.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .channels import CapExceededError, _matmul, build_krr, build_shuffle_full
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
    sum in C_1 taken through C_2, ..., C_s one stage at a time: the k
    block rows times each stage, by the kernel behind ``cascade``
    (``channels._matmul``).  The k**n x k**n product of the stages is
    never built.  Exact rationals only: the sums run on the stages'
    integer numerators and are divided once, by the product of their
    denominators and the k**n of the uniform prior.
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
    blocks = [tuple(map(sum, zip(*first[w * size:(w + 1) * size]))) for w in range(k)]
    den = stages[0].den * k**n
    for stage in stages[1:]:
        blocks = _matmul(blocks, stage.num, len(stage.col_labels), 0)
        den *= stage.den
    return Fraction(sum(map(max, *blocks)), den)

