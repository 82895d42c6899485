import itertools
import math
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rrshuffle.combinatorics import (
    binomial,
    epsilon_to_p,
    krr_histogram_transition,
    log_multinomial,
    multinomial,
    p_to_epsilon,
    partition_terms,
    partitions,
    transfer_tables,
)

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


@lru_cache(maxsize=None)
def count_partitions_atmost(n, k):
    """Partitions of n into at most k parts, by the standard recurrence."""
    if n == 0:
        return 1
    if k == 0 or n < 0:
        return 0
    return count_partitions_atmost(n - k, k) + count_partitions_atmost(n, k - 1)


def brute_histogram_transition(n_a_in, n_b_in, n_a_out, n_b_out, p):
    """Sum per-record noise probabilities over every output dataset with
    the requested histogram; exhaustive, independent of the formula."""
    n = n_a_in + n_b_in
    x = (0,) * n_a_in + (1,) * n_b_in
    total = Fraction(0)
    for w in itertools.product((0, 1), repeat=n):
        if w.count(0) != n_a_out:
            continue
        prob = Fraction(1)
        for a, b in zip(x, w):
            prob *= p if a == b else 1 - p
        total += prob
    return total


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
# multinomial
# ---------------------------------------------------------------------------


def test_multinomial_examples():
    assert multinomial(3, [2, 1]) == 3
    assert multinomial(6, [2, 3, 1]) == 60
    assert multinomial(4, [4, 0, 0]) == 1


def test_multinomial_matches_factorials():
    for parts in itertools.product(range(5), repeat=3):
        n = sum(parts)
        expected = math.factorial(n)
        for p in parts:
            expected //= math.factorial(p)
        assert multinomial(n, list(parts)) == expected


def test_multinomial_sum_mismatch():
    with pytest.raises(ValueError, match="sum to n"):
        multinomial(5, [2, 2])
    with pytest.raises(ValueError):
        multinomial(2, [3, -1])


def test_multinomials_over_compositions_total_k_to_n():
    for k in (2, 3, 4):
        for n in range(0, 8):
            total = sum(
                multinomial(n, comp)
                for comp in itertools.product(range(n + 1), repeat=k)
                if sum(comp) == n
            )
            assert total == k**n


def test_log_multinomial_accuracy():
    for parts in [(3, 3), (10, 5, 5), (500, 300, 200)]:
        n = sum(parts)
        exact = math.log(multinomial(n, parts))
        assert abs(log_multinomial(n, parts) - exact) < 1e-9


# ---------------------------------------------------------------------------
# partitions
# ---------------------------------------------------------------------------


def test_partitions_6_into_3():
    got = list(partitions(6, 3))
    assert got == [
        (6,), (5, 1), (4, 2), (4, 1, 1), (3, 3), (3, 2, 1), (2, 2, 2),
    ]


def test_partitions_empty_case():
    assert list(partitions(0, 3)) == [()]


def test_partitions_20_into_6_contains_88_1111():
    match = [p for p in partitions(20, 6) if p == (8, 8, 1, 1, 1, 1)]
    assert len(match) == 1


def test_partitions_count_matches_recurrence():
    for n in range(0, 31):
        for k in range(1, 9):
            assert sum(1 for _ in partitions(n, k)) == count_partitions_atmost(n, k)


def test_partitions_order_and_invariants():
    for n, k in [(9, 4), (12, 3), (7, 7)]:
        seen = list(partitions(n, k))
        assert seen == sorted(seen, reverse=True)
        assert len(set(seen)) == len(seen)
        for parts in seen:
            assert sum(parts) == n
            assert len(parts) <= k
            assert list(parts) == sorted(parts, reverse=True)


def test_partitions_validation():
    with pytest.raises(ValueError):
        list(partitions(-1, 3))
    with pytest.raises(ValueError):
        list(partitions(3, 0))


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
# histogram transition probability
# ---------------------------------------------------------------------------


def test_binary_transfer_tables_match_literal_enumeration():
    # every 2x2 table of counts in lexicographic order of its entries,
    # filed under its row and column sums
    for n in range(13):
        tables = {}
        for t in itertools.product(range(n + 1), repeat=4):
            if sum(t) == n:
                z_in, z_out = (t[0] + t[1], t[2] + t[3]), (t[0] + t[2], t[1] + t[3])
                ways = multinomial(z_in[0], t[:2]) * multinomial(z_in[1], t[2:])
                tables.setdefault((z_in, z_out), []).append((ways, t[0] + t[3]))
        assert len(tables) == (n + 1) ** 2
        for (z_in, z_out), want in tables.items():
            assert list(transfer_tables(z_in, z_out)) == want


def test_histogram_transition_symbolic_entries():
    p = Fraction(3, 4)
    assert krr_histogram_transition((3, 0), (3, 0), p) == p**3
    assert krr_histogram_transition((2, 1), (3, 0), p) == p**2 * (1 - p)
    assert krr_histogram_transition((2, 1), (2, 1), p) == Fraction(33, 64)
    assert float(Fraction(33, 64)) == 0.515625


def test_histogram_transition_count_mismatch():
    with pytest.raises(ValueError, match="count-sum mismatch"):
        krr_histogram_transition((2, 1), (2, 2), Fraction(3, 4))


def test_histogram_transition_rejects_out_of_range_p():
    with pytest.raises(ValueError):
        krr_histogram_transition((1, 1), (1, 1), Fraction(1, 4))


@pytest.mark.parametrize("p", [Fraction(1, 2), Fraction(3, 5), Fraction(3, 4), Fraction(1)])
def test_histogram_transition_rows_normalize(p):
    for n in range(1, 9):
        for a_in in range(n + 1):
            total = sum(
                krr_histogram_transition((a_in, n - a_in), (a_out, n - a_out), p)
                for a_out in range(n + 1)
            )
            assert total == 1


@pytest.mark.parametrize("p", [Fraction(1, 2), Fraction(3, 5), Fraction(3, 4), Fraction(1)])
def test_histogram_transition_matches_enumeration(p):
    for n in range(1, 7):
        for a_in in range(n + 1):
            for a_out in range(n + 1):
                assert krr_histogram_transition(
                    (a_in, n - a_in), (a_out, n - a_out), p
                ) == brute_histogram_transition(a_in, n - a_in, a_out, n - a_out, p)


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
