import itertools
from fractions import Fraction

import pytest

import rrshuffle.oracle
from rrshuffle.channels import CapExceededError, enumerate_histograms
from rrshuffle.closed_forms import v_post_ns_general
from rrshuffle.oracle import ORACLE_CAP, oracle_posterior
from rrshuffle.reference import (
    datasets,
    krr_histogram_transition,
    literal_krr,
    literal_shuffle,
    oracle_histogram_transition,
)


def test_oracle_shuffle_n3():
    assert oracle_posterior(3, 2, ["shuffle"]) == Fraction(3, 4)


def test_oracle_noise_then_shuffle_n3():
    assert oracle_posterior(3, 2, ["krr", "shuffle"], Fraction(3, 4)) == Fraction(5, 8)


def test_oracle_noise_alone():
    assert oracle_posterior(2, 2, ["krr"], Fraction(9, 10)) == Fraction(9, 10)


def test_oracle_pipeline_order_irrelevant():
    for n, k in [(2, 2), (3, 2), (4, 2), (2, 3), (3, 3)]:
        for p in (Fraction(1, 2), Fraction(3, 4), Fraction(1)):
            if p < Fraction(1, k):
                continue
            assert oracle_posterior(n, k, ["krr", "shuffle"], p) == oracle_posterior(
                n, k, ["shuffle", "krr"], p
            )


def literal_oracle_posterior(n, k, pipeline, p=None):
    """sum_y max_w sum_{x: x0 = w} C[x, y] / k**n, column by column and
    entry by entry, for the product C of the literal stages of
    rrshuffle.reference taken in a plain loop: the reference for the block
    sums of the oracle, which shares no builder and no product with it."""
    stages = {"krr": lambda: literal_krr(n, k, p), "shuffle": lambda: literal_shuffle(n, k)}
    rows, den = None, 1
    for kind in pipeline:
        stage, stage_den = stages[kind]()
        den *= stage_den
        if rows is None:
            rows = stage
            continue
        product = []
        for row in rows:
            acc = [0] * len(stage[0])
            for i, weight in enumerate(row):
                if weight:
                    for j, entry in enumerate(stage[i]):
                        acc[j] += weight * entry
            product.append(acc)
        rows = product
    X = datasets(n, k)
    total = 0
    for column in zip(*rows):
        total += max(sum(c for c, x in zip(column, X) if x[0] == w) for w in range(k))
    return Fraction(total, den * k**n)


# k**n <= 81; each stage order puts the rows in its own order of blocks
@pytest.mark.parametrize("n,k", [(n, k) for k in (2, 3, 4, 5, 9) for n in range(1, 7)
                                 if k**n <= 81])
def test_oracle_block_sums_equal_the_literal_column_loop(n, k):
    assert oracle_posterior(n, k, ["shuffle"]) == literal_oracle_posterior(n, k, ["shuffle"])
    for p in (Fraction(1, k), Fraction(3, 5), Fraction(1)):
        for pipeline in (["krr"], ["krr", "shuffle"], ["shuffle", "krr"]):
            assert oracle_posterior(n, k, pipeline, p) == (
                literal_oracle_posterior(n, k, pipeline, p))


@pytest.mark.parametrize("pipeline", [["krr", "shuffle"], ["shuffle", "krr"],
                                      ["krr", "shuffle", "krr"]])
def test_oracle_takes_only_the_k_target_blocks_through_each_stage(monkeypatch, pipeline):
    # block first: every product is k block rows times a stage, never
    # the k**n x k**n product of the stages
    n, k = 4, 3
    kernel = rrshuffle.oracle._matmul
    heights = []

    def spy(A, B, ncols, zero):
        heights.append(len(A))
        return kernel(A, B, ncols, zero)

    monkeypatch.setattr(rrshuffle.oracle, "_matmul", spy)
    got = oracle_posterior(n, k, pipeline, Fraction(3, 5))
    assert heights == [k] * (len(pipeline) - 1)
    assert got == literal_oracle_posterior(n, k, pipeline, Fraction(3, 5))


@pytest.mark.parametrize("p", [Fraction(3, 5), Fraction(9, 10)])
def test_oracle_reaches_six_records_at_k3_in_either_stage_order(p):
    # at the size cap, 729 x 729 stages
    assert 3**6 == ORACLE_CAP
    want = v_post_ns_general(6, 3, p, exact=True)
    for pipeline in (["krr", "shuffle"], ["shuffle", "krr"]):
        assert oracle_posterior(6, 3, pipeline, p) == want


def test_oracle_rejects_excess_size():
    assert 3**7 > ORACLE_CAP
    with pytest.raises(CapExceededError, match="desk-scale"):
        oracle_posterior(7, 3, ["shuffle"])


def test_oracle_requires_rational_p():
    with pytest.raises(ValueError, match="rational-only"):
        oracle_posterior(2, 2, ["krr"], 0.9)
    with pytest.raises(ValueError, match="no p"):
        oracle_posterior(2, 2, ["krr"])
    with pytest.raises(ValueError, match="unknown pipeline stage"):
        oracle_posterior(2, 2, ["laplace"], Fraction(1, 2))


def test_oracle_histogram_transition_examples():
    p = Fraction(3, 4)
    # three datasets share the (2, 1) histogram; summing their noise
    # probabilities from aab gives 33/64
    assert oracle_histogram_transition((0, 0, 1), (2, 1), p) == Fraction(33, 64)
    assert oracle_histogram_transition((0, 0, 1), (2, 1), Fraction(1)) == 1
    total = sum(
        oracle_histogram_transition((0, 0, 1), (a, 3 - a), p) for a in range(4)
    )
    assert total == 1


def test_oracle_histogram_transition_general_k():
    p = Fraction(1, 2)
    x = (0, 1, 2)
    total = Fraction(0)
    for z in itertools.product(range(4), repeat=3):
        if sum(z) != 3:
            continue
        total += oracle_histogram_transition(x, z, p)
    assert total == 1


def test_oracle_histogram_transition_validation():
    with pytest.raises(ValueError, match="sum"):
        oracle_histogram_transition((0, 1), (1, 2), Fraction(3, 4))
    with pytest.raises(ValueError, match="rational-only"):
        oracle_histogram_transition((0, 1), (1, 1), 0.75)


@pytest.mark.parametrize("k, max_n", [(3, 4), (4, 3)])
def test_general_k_histogram_transition_matches_oracle(k, max_n):
    for p in (Fraction(1, k), Fraction(3, 5), Fraction(1)):
        for n in range(1, max_n + 1):
            hists = enumerate_histograms(n, k)
            for z_in in hists:
                x = tuple(v for v, count in enumerate(z_in) for _ in range(count))
                for z_out in hists:
                    assert krr_histogram_transition(z_in, z_out, p) == (
                        oracle_histogram_transition(x, z_out, p)
                    )


def test_general_k_histogram_transition_forms_and_modes():
    exact = krr_histogram_transition((2, 1, 1), (1, 1, 2), Fraction(3, 5))
    approx = krr_histogram_transition((2, 1, 1), (1, 1, 2), 0.6)
    assert isinstance(exact, Fraction)
    assert abs(approx - exact) <= 1e-12
    with pytest.raises(ValueError, match="count-sum mismatch"):
        krr_histogram_transition((2, 1, 1), (1, 1, 1), Fraction(3, 5))
    with pytest.raises(ValueError, match="same length"):
        krr_histogram_transition((2, 1, 1), (3, 1), Fraction(3, 5))
    with pytest.raises(ValueError, match="must lie in"):
        krr_histogram_transition((2, 1, 1), (1, 1, 2), Fraction(1, 4))
