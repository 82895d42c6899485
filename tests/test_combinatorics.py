import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rrshuffle.combinatorics import (
    binomial,
    enumerate_histograms,
    epsilon_to_p,
    p_to_epsilon,
    partition_terms,
)
from rrshuffle.reference import multinomial, partitions

# ---------------------------------------------------------------------------
# Independent oracles
# ---------------------------------------------------------------------------


def pascal_triangle(n_max):
    """Binomials by the addition recurrence, no factorials involved."""
    rows = [[1]]
    for n in range(1, n_max + 1):
        prev = rows[-1]
        rows.append(
            [1] + [prev[i - 1] + prev[i] for i in range(1, n)] + [1]
        )
    return rows


# ---------------------------------------------------------------------------
# binomial
# ---------------------------------------------------------------------------


def test_binomial_matches_pascal_recurrence():
    rows = pascal_triangle(64)
    for n in range(65):
        for i in range(n + 1):
            assert binomial(n, i) == rows[n][i]


def test_binomial_examples():
    assert binomial(3, 1) == 3
    assert binomial(5, 7) == 0
    assert binomial(3, -1) == 0


def test_binomial_large_value_exact():
    rows = pascal_triangle(199)
    big = binomial(199, 99)
    assert big == rows[199][99]
    assert float(Fraction(big, 2**200)) == pytest.approx(0.0282, abs=5e-5)


def test_binomial_rejects_negative_n():
    with pytest.raises(ValueError):
        binomial(-1, 0)


@given(st.integers(min_value=0, max_value=64))
def test_binomial_symmetry(n):
    for i in range(n + 1):
        assert binomial(n, i) == binomial(n, n - i)


# ---------------------------------------------------------------------------
# histograms
# ---------------------------------------------------------------------------


def test_enumerate_histograms_is_every_count_vector_in_lexicographic_order():
    for n in range(7):
        for k in range(1, 6):
            literal = [h for h in itertools.product(range(n + 1), repeat=k) if sum(h) == n]
            assert enumerate_histograms(n, k) == literal, (n, k)


# ---------------------------------------------------------------------------
# partition terms
# ---------------------------------------------------------------------------


def test_partition_terms_are_the_two_multinomials_in_partition_order():
    for n in range(1, 25):
        for k in range(1, 12):
            expected = [
                (
                    multinomial(n, parts)
                    * multinomial(k, [len(list(run)) for _, run in itertools.groupby(parts)]
                                  + [k - len(parts)]),
                    parts[0],
                )
                for parts in partitions(n, k)
            ]
            assert list(partition_terms(n, k)) == expected, (n, k)


def test_partition_terms_at_k_2_are_the_paired_binomials():
    # the binary direct sum: C(n, t) + C(n, n - t) for t > n/2, C(n, n/2)
    # in the middle, largest part first
    for n in list(range(1, 301)) + [1000, 3000]:
        expected = [
            (math.comb(n, t) + (math.comb(n, n - t) if 2 * t > n else 0), t)
            for t in range(n, (n - 1) // 2, -1)
        ]
        assert list(partition_terms(n, 2)) == expected, n


def test_partition_terms_count_every_map_once():
    for n in range(0, 25):
        for k in range(1, 12):
            assert sum(coef for coef, _ in partition_terms(n, k)) == k**n


def test_partition_terms_edges_and_validation():
    assert list(partition_terms(0, 3)) == [(1, 0)]
    assert list(partition_terms(5, 1)) == [(1, 5)]
    with pytest.raises(ValueError):
        list(partition_terms(-1, 3))
    with pytest.raises(ValueError):
        list(partition_terms(3, 0))


# ---------------------------------------------------------------------------
# epsilon <-> p
# ---------------------------------------------------------------------------


def test_epsilon_to_p_examples():
    assert epsilon_to_p(0.0, 2) == 0.5
    assert p_to_epsilon(0.75, 2) == pytest.approx(math.log(3))


def test_exact_epsilon_to_p_reads_binary64_e_to_the_epsilon():
    for k in (2, 3, 5, 6):
        assert epsilon_to_p(0.0, k, exact=True) == Fraction(1, k)
        e = Fraction(math.exp(1.0))
        p = epsilon_to_p(1.0, k, exact=True)
        assert isinstance(p, Fraction)
        assert p == e / (k - 1 + e)
        assert float(p) == pytest.approx(epsilon_to_p(1.0, k), rel=1e-15)


@pytest.mark.parametrize("k", range(2, 11))
def test_float_epsilon_to_p_is_the_exact_p_rounded_once(k):
    for epsilon in (0.0, 0.5, 1.0, 2.0):
        assert epsilon_to_p(epsilon, k) == float(epsilon_to_p(epsilon, k, exact=True))


def test_p_to_epsilon_singularities():
    with pytest.raises(ValueError, match="infinite"):
        p_to_epsilon(1.0, 2)
    with pytest.raises(ValueError, match="p must lie in"):
        p_to_epsilon(0.2, 3)
    with pytest.raises(ValueError):
        epsilon_to_p(-0.5, 2)


@pytest.mark.parametrize("p", [math.nan, 1.5, Fraction(3, 2), math.inf])
def test_p_to_epsilon_refuses_nan_and_p_above_one(p):
    # NaN once gave nan, and p > 1 reported an infinite epsilon at p = 1
    with pytest.raises(ValueError, match="p must lie in"):
        p_to_epsilon(p, 3)


@given(st.floats(min_value=0.0, max_value=10.0), st.integers(min_value=2, max_value=10))
@settings(max_examples=200)
def test_epsilon_p_round_trip(epsilon, k):
    p = epsilon_to_p(epsilon, k)
    assert 1 / k - 1e-12 <= p <= 1
    if p < 1:
        assert p_to_epsilon(p, k) == pytest.approx(epsilon, abs=1e-9)
