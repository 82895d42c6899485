import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rrshuffle import checks, closed_forms
from rrshuffle.closed_forms import (
    MECHANISMS,
    _count_mass,
    binary_vulnerability,
    count_mode_probability,
    linear_relation,
    partition_score,
    posterior_for,
    scaled_max_load,
    scaled_max_load_via_multinomials,
    v_approx_ns,
    v_approx_shuffle,
    v_post_krr,
    v_post_ns_binary_fast,
    v_post_ns_binary_sum,
    v_post_ns_general,
    v_post_shuffle_binary_fast,
    v_post_shuffle_binary_sum,
    v_post_shuffle_general,
)
from rrshuffle.combinatorics import epsilon_to_p, p_to_epsilon, record_weights
from rrshuffle.oracle import oracle_posterior
from rrshuffle.reference import max_load_counts
from rrshuffle.scalars import FLOAT_TOL, is_exact, require_mechanism

P_GRID = [Fraction(1, 2), Fraction(3, 5), Fraction(3, 4), Fraction(9, 10), Fraction(1)]

rational_p = st.integers(min_value=0, max_value=100).map(
    lambda t: Fraction(1, 2) + Fraction(t, 200)
)


# ---------------------------------------------------------------------------
# noise alone
# ---------------------------------------------------------------------------


def test_v_post_krr_is_p():
    assert v_post_krr(0.9, 2) == 0.9
    assert v_post_krr(Fraction(1), 5) == 1
    assert v_post_krr(Fraction(1, 3), 3) == Fraction(1, 3)
    with pytest.raises(ValueError):
        v_post_krr(Fraction(1, 4), 3)


@pytest.mark.parametrize("k", [0, 1])
def test_alphabets_below_two_letters_raise_value_error(k):
    # k is checked before p, so 1/k is never formed
    calls = [
        lambda: v_post_ns_general(5, k, 0.5),
        lambda: v_post_ns_general(5, k, 1, method="partition"),
        lambda: v_post_krr(0.5, k),
        lambda: v_approx_ns(5, k, 0.5),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="^k must be at least 2$"):
            call()


def test_mechanism_rule_checks_n_then_k_then_p():
    with pytest.raises(ValueError, match="^n must be at least 1$"):
        require_mechanism(0, 0, 5)
    with pytest.raises(ValueError, match="^k must be at least 2$"):
        require_mechanism(1, 0, 5)
    with pytest.raises(ValueError, match=r"^p must lie in \[1/3, 1\] \(got 5\)$"):
        require_mechanism(1, 3, 5)
    require_mechanism(1, 3, Fraction(1, 3))
    require_mechanism(1, 3, 1 / 3 - FLOAT_TOL / 2)  # float slack at 1/k only
    with pytest.raises(ValueError, match="p must lie in"):
        require_mechanism(1, 3, 1 + 1e-15)


def accepts(k, p):
    try:
        require_mechanism(k=k, p=p)
    except ValueError:
        return False
    return True


@given(st.integers(2, 50), st.integers(1, 10**15), st.data())
@settings(max_examples=300, deadline=None)
def test_an_exact_p_is_accepted_exactly_on_the_rational_interval(k, d, data):
    p = Fraction(data.draw(st.integers(-2 * d, 2 * d)), d)
    assert accepts(k, p) == (Fraction(1, k) <= p <= 1)


@pytest.mark.parametrize("k", [2, 3, 7, 49, 50])
def test_the_exact_p_rule_at_its_edges(k):
    tiny = Fraction(1, 10**30)
    for p in (Fraction(1, k), Fraction(1), 1, Fraction(1, k) + tiny, 1 - tiny):
        assert accepts(k, p), p
    for p in (Fraction(-1, k), -1, 0, 2, Fraction(1, k) - tiny, 1 + tiny,
              Fraction(10**30 + 1, 10**30)):
        assert not accepts(k, p), p
    with pytest.raises(ValueError, match=r"\(got -1/%d\)$" % k):
        require_mechanism(k=k, p=Fraction(-1, k))


@given(st.integers(2, 50), st.floats(min_value=-0.5, max_value=1.5))
@settings(max_examples=300, deadline=None)
def test_the_float_p_rule_keeps_its_slack_at_one_over_k(k, p):
    assert accepts(k, p) == (float(Fraction(1, k)) - FLOAT_TOL <= p <= 1)


@pytest.mark.parametrize("k", [2, 3, 7, 50])
def test_the_float_p_rule_at_its_edges(k):
    lowest = 1 / k - FLOAT_TOL
    assert accepts(k, lowest) and accepts(k, 1.0)
    assert not accepts(k, math.nextafter(lowest, 0))
    assert not accepts(k, math.nextafter(1.0, 2))
    with pytest.raises(ValueError, match=r"\(got 1.5\)$"):
        require_mechanism(k=k, p=1.5)


# ---------------------------------------------------------------------------
# binary closed forms
# ---------------------------------------------------------------------------


def test_binary_shuffle_values():
    assert v_post_shuffle_binary_sum(1) == 1
    assert v_post_shuffle_binary_sum(2) == Fraction(3, 4)
    assert v_post_shuffle_binary_sum(3) == Fraction(3, 4)
    assert v_post_shuffle_binary_fast(1) == 1
    assert v_post_shuffle_binary_fast(4) == Fraction(11, 16)
    assert float(v_post_shuffle_binary_fast(4)) == 0.6875


def test_binary_shuffle_n200_anchor():
    value = float(v_post_shuffle_binary_fast(200))
    assert value == pytest.approx(0.5282, abs=5e-4)


def test_binary_fast_equals_sum_exactly():
    for n in range(1, 65):
        assert v_post_shuffle_binary_fast(n) == v_post_shuffle_binary_sum(n)
        for p in P_GRID:
            assert v_post_ns_binary_fast(n, p) == v_post_ns_binary_sum(n, p)


@given(st.integers(min_value=1, max_value=64), rational_p)
@settings(max_examples=60)
def test_binary_fast_equals_sum_property(n, p):
    assert v_post_ns_binary_fast(n, p) == v_post_ns_binary_sum(n, p)


def test_binary_ns_values():
    assert v_post_ns_binary_sum(2, Fraction(9, 10)) == Fraction(7, 10)
    assert v_post_ns_binary_sum(3, Fraction(3, 4)) == Fraction(5, 8)
    assert v_post_ns_binary_fast(5, Fraction(1, 2)) == Fraction(1, 2)


def test_binary_ns_n200_anchors():
    assert float(v_post_ns_binary_fast(200, Fraction(9, 10))) == pytest.approx(0.5225, abs=5e-4)
    assert float(v_post_ns_binary_fast(200, Fraction(3, 5))) == pytest.approx(0.5056, abs=5e-4)


def test_binary_float_mode():
    exact = v_post_ns_binary_fast(30, Fraction(4, 5))
    assert v_post_ns_binary_fast(30, 0.8) == pytest.approx(float(exact), abs=1e-12)
    assert v_post_ns_binary_sum(30, 0.8) == pytest.approx(float(exact), abs=1e-12)


def test_float_reference_sums_are_the_exact_sums_rounded_once():
    # A float p is read as the rational it denotes; the float result is
    # that exact value rounded once.
    for n, p in ((1, 0.8), (30, 0.8), (201, 0.55), (1000, 0.9)):
        assert v_post_ns_binary_sum(n, p) == float(v_post_ns_binary_sum(n, Fraction(p)))
    for n, k, p in ((12, 3, 0.7), (9, 5, 0.45)):
        exact = v_post_ns_general(n, k, Fraction(p), method="partition", exact=True)
        floating = v_post_ns_general(n, k, p, method="partition", exact=False)
        assert isinstance(floating, float) and floating == float(exact)


def test_binary_sum_float_at_n_10000_matches_fast_form():
    n, p = 10_000, 0.75
    floating = v_post_ns_binary_sum(n, p)
    assert isinstance(floating, float)
    assert abs(floating - v_post_ns_binary_fast(n, p)) <= FLOAT_TOL


def test_float_fast_form_is_the_single_binomial_expression():
    # 0.5 + |p - 0.5| M with M the exact mode rounded once is, bit for
    # bit, 0.5 + float(C(n-1, floor((n-1)/2)) / 2^n) (2p - 1) for p >= 1/2
    for n in range(1, 401):
        weight = float(Fraction(math.comb(n - 1, (n - 1) // 2), 2**n))
        for p in (0.5, 0.546875, 0.6, 0.75, 0.8, 0.9, 0.999, 1.0):
            assert v_post_ns_binary_fast(n, p) == 0.5 + weight * (2 * p - 1)


def test_float_fast_form_just_below_one_half():
    # the validators accept a float p up to FLOAT_TOL below 1/2; the
    # adversary then guesses against the report, and V stays above 1/2
    p = 0.5 - FLOAT_TOL / 2
    for n in (1, 2, 7, 200):
        value = v_post_ns_binary_fast(n, p)
        assert 0.5 < value <= 0.5 + FLOAT_TOL
        mirror = v_post_ns_binary_fast(n, Fraction(1) - Fraction(p))
        assert value == pytest.approx(float(mirror), abs=1e-15)


def _count_law(a, b, p):
    """Point probabilities of Bin(a, p) + Bin(b, 1 - p), by literal
    convolution of Bernoulli laws."""
    law = [Fraction(1)]
    for q in [p] * a + [1 - p] * b:
        law = [x * (1 - q) + y * q for x, y in zip(law + [0], [0] + law)]
    return law


def test_count_mode_probability_is_the_largest_point_probability():
    for a in range(9):
        for b in range(9):
            for p in (Fraction(1, 2), Fraction(3, 5), Fraction(35, 64), Fraction(9, 10),
                      Fraction(1), 0.8):
                law = _count_law(a, b, Fraction(p))
                assert count_mode_probability(a, b, p) == max(law)


def test_monotone_pairwise_decrease():
    for p in (Fraction(3, 5), Fraction(3, 4), Fraction(9, 10), Fraction(1)):
        values = [v_post_ns_binary_fast(n, p) for n in range(1, 65)]
        # consecutive (even, odd) dataset sizes tie; each pair strictly
        # improves on the one before when p > 1/2
        for n in range(2, 64, 2):
            assert values[n - 1] == values[n]
        for a, b in zip(values, values[1:]):
            assert b <= a
        assert values[1] < values[0]


# ---------------------------------------------------------------------------
# general-k forms
# ---------------------------------------------------------------------------


def test_general_shuffle_matches_binary():
    for n in (1, 2, 3, 6, 10):
        assert v_post_shuffle_general(n, 2, exact=True) == v_post_shuffle_binary_sum(n)


def test_bounded_load_equals_partition_and_composition():
    cases = [(n, k) for k in range(2, 8) for n in range(1, 16)]
    cases += [(n, 10) for n in range(1, 5)]  # k > n
    for n, k in cases:
        recursion = v_post_shuffle_general(n, k, exact=True)
        assert recursion == v_post_shuffle_general(n, k, method="partition", exact=True)
        assert recursion == v_post_shuffle_general(
            n, k, method="composition", exact=True
        )


def test_bounded_load_equals_partition_sum_at_larger_sizes():
    for n, k in [(100, 5), (40, 8), (30, 10)]:
        assert v_post_shuffle_general(n, k, exact=True) == v_post_shuffle_general(
            n, k, method="partition", exact=True
        )


# (70, 10**6): C(k, u) exceeds the float range for u >= 68.  The relative
# error is 2e-12 at most, except where k >> n: -7.9e-12 at (150, 5000).
# Tighten that bound when the float path is mended for k >> n (ROADMAP,
# the float V_S defects).
@pytest.mark.parametrize(
    "n,k",
    [(12, 3), (20, 4), (40, 5), (1000, 3), (1501, 3), (3000, 3), (300, 3), (125, 4), (120, 5),
     (80, 6), (100, 10), (40, 40), (70, 10**6), (100, 100), (100, 1000), (150, 5000)],
)
def test_bounded_load_float_close_to_exact(n, k):
    exact = v_post_shuffle_general(n, k, exact=True)
    assert isinstance(exact, Fraction)
    floating = v_post_shuffle_general(n, k, exact=False)
    assert isinstance(floating, float)
    assert abs(Fraction(floating) - exact) <= 1e-12
    assert abs(Fraction(floating) / exact - 1) <= (2e-11 if (n, k) == (150, 5000) else 2e-12)


# The float recursion's bits, pinned: a rework of the kernel must give every
# written entry the same operations in the same order.  The float path sums
# with math.fsum and takes exp, log and lgamma, never the builtin float sum
# (compensated from Python 3.12 on), so the pins should hold on every version.
@pytest.mark.parametrize(
    "n,k,bits",
    [(1000, 3, "0x1.6533884344b08p-2"), (300, 3, "0x1.725ef25065934p-2"),
     (250, 3, "0x1.7528b74c5b9a8p-2"), (100, 4, "0x1.35950772e6ea4p-2"),
     (125, 4, "0x1.2fd8b83c24ca4p-2"), (65, 4, "0x1.42b326628e660p-2"),
     (120, 5, "0x1.fcf4df6656facp-3"), (80, 6, "0x1.cfc5b5beffb08p-3"),
     (30, 6, "0x1.106ceda2185e6p-2"), (5, 3, "0x1.1c71c71c71c72p-1"),
     (20, 100, "0x1.93b816836be90p-4"), (150, 5000, "0x1.a2c18faefbcacp-7")],
)
def test_bounded_load_float_bits_are_pinned(n, k, bits):
    assert float.hex(v_post_shuffle_general(n, k, exact=False)) == bits


@given(st.integers(min_value=1, max_value=300), st.integers(min_value=2, max_value=10))
@settings(max_examples=10, deadline=None)
def test_bounded_load_float_close_to_exact_property(n, k):
    exact = v_post_shuffle_general(n, k, exact=True)
    assert abs(Fraction(v_post_shuffle_general(n, k, exact=False)) - exact) <= 1e-12


@given(st.integers(min_value=1, max_value=300), st.integers(min_value=2, max_value=10),
       st.integers(min_value=0, max_value=1000))
@settings(max_examples=10, deadline=None)
def test_linear_relation_float_close_to_exact_property(n, k, step):
    # the float relation carries the recursion's 1e-12 through factors at
    # most 1; the float p is the exact one rounded once
    p = Fraction(1, k) + (1 - Fraction(1, k)) * Fraction(step, 1000)
    exact = v_post_ns_general(n, k, p, exact=True)
    floating = v_post_ns_general(n, k, float(p), exact=False)
    assert isinstance(floating, float)
    assert abs(Fraction(floating) - exact) <= 1e-12


@given(st.integers(min_value=1, max_value=3000), st.floats(min_value=0.5, max_value=1.0))
@settings(max_examples=50, deadline=None)
def test_binary_mode_form_float_close_to_exact_property(n, p):
    # 1/2 + |p - 1/2| M with the exact mode M rounded once: a few ulp of 1
    exact = v_post_ns_binary_fast(n, Fraction(p))
    floating = v_post_ns_binary_fast(n, p)
    assert isinstance(floating, float)
    assert abs(Fraction(floating) - exact) <= 1e-15


def _literal_tails(n, k):
    """k^n minus the maps whose largest bin holds at most m records, for
    m = 0..n-1, counted composition by composition."""
    bounded = list(itertools.accumulate(max_load_counts(n, k)))
    return [k**n - bounded[m] for m in range(n)]


def test_max_load_tails_are_the_literal_counts():
    # every m on both sides of floor(n/2), where the recursion hands over
    # to the one-overloaded-bin sum, for odd and even n, with no recursion
    # at all (n <= 3) and with rows of min(k, n) bins, where only entry n
    # is written; the last three have k > n
    cases = [(n, k) for k in range(2, 8) for n in range(1, 15)] + [(4, 10), (5, 7), (6, 9)]
    for n, k in cases:
        assert closed_forms._max_load_tails(n, k, True) == _literal_tails(n, k)


def test_upper_float_tails_are_the_exact_tails_rounded_once():
    larger = [(125, 4), (301, 3), (1000, 3), (400, 4)]
    for n, k in [(n, k) for k in range(2, 6) for n in range(1, 13)] + larger:
        exact = closed_forms._max_load_tails(n, k, True)
        floating = closed_forms._max_load_tails(n, k, False)
        assert len(floating) == n
        for m in range(max(n // 2, 1), n):
            assert floating[m] == float(Fraction(exact[m], k**n))


def test_partition_method_float_mode():
    exact = v_post_shuffle_general(9, 4, method="partition", exact=True)
    floating = v_post_shuffle_general(9, 4, method="partition", exact=False)
    assert isinstance(floating, float)
    assert floating == float(exact)


def test_unknown_shuffle_method_rejected():
    with pytest.raises(ValueError, match="method"):
        v_post_shuffle_general(4, 3, method="histogram")


def test_ns_general_relation_equals_partition():
    for k in (2, 3, 4):
        for n in range(1, 11):
            for p in P_GRID:
                if p < Fraction(1, k):
                    continue
                relation = v_post_ns_general(n, k, p, exact=True)
                direct = v_post_ns_general(n, k, p, method="partition", exact=True)
                assert relation == direct


def test_ns_general_float_partition_sum_is_the_exact_value_rounded_once():
    floating = v_post_ns_general(300, 3, 0.6, method="partition")
    assert isinstance(floating, float)
    assert floating == float(v_post_ns_general(300, 3, Fraction(0.6), exact=True))


def test_ns_general_both_paths_match_oracle():
    from rrshuffle.oracle import oracle_posterior

    n, k, p = 4, 3, Fraction(4, 5)
    truth = oracle_posterior(n, k, ["krr", "shuffle"], p)
    assert v_post_ns_general(n, k, p, exact=True) == truth
    assert v_post_ns_general(n, k, p, method="partition", exact=True) == truth


def test_ns_general_linear_relation_explicit():
    n, k, p = 7, 3, Fraction(4, 5)
    v_s = v_post_shuffle_general(n, k, exact=True)
    expected = v_s * Fraction(k * p - 1, k - 1) + Fraction(1 - p, k - 1)
    assert v_post_ns_general(n, k, p, exact=True) == expected


def test_ns_general_degenerate_cases():
    for n in (1, 4, 9):
        for k in (2, 3, 5):
            assert v_post_ns_general(n, k, Fraction(1), exact=True) == v_post_shuffle_general(n, k, exact=True)
            assert v_post_ns_general(n, k, Fraction(1, k), exact=True) == Fraction(1, k)


def test_bounds_hold_everywhere():
    for k in (2, 3, 4):
        for n in (1, 3, 8, 15):
            v_s = v_post_shuffle_general(n, k, exact=True)
            assert Fraction(1, k) <= v_s <= 1
            for p in (Fraction(3, 4), Fraction(9, 10)):
                if p < Fraction(1, k):
                    continue
                v_ns = v_post_ns_general(n, k, p, exact=True)
                assert Fraction(1, k) <= v_ns <= 1
                assert v_ns <= p


# ---------------------------------------------------------------------------
# scaled maximum load
# ---------------------------------------------------------------------------


def test_max_load_small_values():
    for k in (2, 3, 5, 8):
        assert scaled_max_load(1, k) == k
    assert scaled_max_load(3, 2) == 18  # 2^3 * 3 * (3/4)
    for n in (1, 2, 5, 40):
        assert scaled_max_load(n, 1) == n  # one bin holds every ball


def test_max_load_validation():
    for n, k in ((0, 3), (-1, 2), (3, 0)):
        with pytest.raises(ValueError):
            scaled_max_load(n, k)


def test_max_load_forms_agree():
    cases = [(n, k) for k in range(2, 6) for n in range(1, 13)]
    for n, k in cases + [(50, 3), (60, 2), (30, 5)]:
        assert scaled_max_load(n, k) == scaled_max_load_via_multinomials(n, k)


@pytest.mark.parametrize("n, k", [(200, 3), (120, 4), (80, 6), (60, 8), (40, 10), (20, 9)])
def test_max_load_recursion_equals_partition_sum_over_many_bin_sizes(n, k):
    # the exact factors are carried through about n/2 bin sizes, and up to
    # ten bins at the points general-k's benchmark runs
    assert scaled_max_load(n, k) == scaled_max_load_via_multinomials(n, k)


def test_max_load_6_3_uses_seven_partitions():
    from rrshuffle.combinatorics import partition_terms

    assert sum(1 for _ in partition_terms(6, 3)) == 7
    # the largest bin summed over the 3^6 maps, counted map by map
    literal = sum(max(map(x.count, range(3))) for x in itertools.product(range(3), repeat=6))
    assert scaled_max_load(6, 3) == literal == 2358


def test_max_load_suite_has_one_line_per_point():
    for max_n in (1, 4, 12):
        results = checks.suite_max_load(max_n)
        assert len(results) == 1 + 4 * max_n
        assert all(r.passed for r in results)


def test_max_load_suite_fails_every_point_when_the_reference_differs(monkeypatch):
    reference = closed_forms.scaled_max_load_via_multinomials
    monkeypatch.setattr(closed_forms, "scaled_max_load_via_multinomials",
                        lambda n, k: reference(n, k) + 1)
    results = checks.suite_max_load(6)
    assert results[0].passed  # the partition count does not read the reference
    assert len(results) > 1 and not any(r.passed for r in results[1:])


def test_oracle_suite_checks_the_binary_fast_form_and_one_direct_sum():
    # at k = 2 the direct sum is the partition sum, checked once per point
    names = [r.name for r in checks.suite_oracle(3)]
    assert not any("binary sum" in name for name in names)
    for n in (1, 2, 3):
        assert "shuffle partition sum matches oracle (n=%d, k=2)" % n in names
        assert "shuffle binary fast form matches oracle (n=%d, k=2)" % n in names
    assert len(names) == 141


def test_run_suite_defaults_to_the_suites_own_max_n():
    assert checks.run_suite("brown") == checks.suite_max_load()
    assert checks.run_suite("fastform") == checks.suite_fastform()
    assert checks.run_suite("fastform", 3) == checks.suite_fastform(3)


# ---------------------------------------------------------------------------
# asymptotic approximations
# ---------------------------------------------------------------------------


def test_approx_shuffle_formula():
    got = v_approx_shuffle(10**4, 4)
    assert got.value == pytest.approx(0.25 + math.sqrt(math.log(4) / (4 * 10**4)))
    assert got.value == pytest.approx(0.25589, abs=1e-5)
    assert got.in_regime


def test_approx_regime_flag():
    assert not v_approx_shuffle(3, 10).in_regime
    assert v_approx_shuffle(100, 10).in_regime


def test_approx_ns_zero_deviation_at_uniform_noise():
    for n in (10, 1000):
        got = v_approx_ns(n, 2, Fraction(1, 2))
        assert got.value == 0.5


def test_approx_ns_tracks_scaled_deviation():
    n, k, p = 64, 4, 0.8
    base = v_approx_shuffle(n, k).value - 1 / k
    assert v_approx_ns(n, k, p).value == pytest.approx(1 / k + base * (k * p - 1) / (k - 1))


# ---------------------------------------------------------------------------
# mechanism dispatch
# ---------------------------------------------------------------------------


def test_posterior_for_validates_the_mechanism():
    with pytest.raises(ValueError, match="needs p"):
        posterior_for("krr", 2, 2)
    with pytest.raises(ValueError, match="p must lie"):
        posterior_for("krr", 2, 2, Fraction(1, 4))
    with pytest.raises(ValueError, match="unknown mechanism"):
        posterior_for("mixnet", 2, 2, Fraction(3, 4))
    assert posterior_for("shuffle", 2, 2) == Fraction(3, 4)  # p optional here


def test_posterior_for_routes_consistently():
    closed = posterior_for("krr-shuffle", 6, 2, Fraction(3, 4), "closed")
    direct = posterior_for("krr-shuffle", 6, 2, Fraction(3, 4), "sum")
    assert closed == direct == v_post_ns_binary_fast(6, Fraction(3, 4))
    assert (posterior_for("krr-shuffle", 5, 3, Fraction(3, 4), "closed")
            == posterior_for("krr-shuffle", 5, 3, Fraction(3, 4), "sum"))
    assert posterior_for("krr", 9, 2, Fraction(9, 10)) == Fraction(9, 10)
    with pytest.raises(ValueError):
        posterior_for("krr", 2, 2, Fraction(3, 4), "approx")


@pytest.mark.parametrize("kind", ["krr", "shuffle", "krr-shuffle"])
def test_posterior_for_rejects_an_unknown_method(kind):
    p = None if kind == "shuffle" else Fraction(3, 4)
    with pytest.raises(ValueError,
                       match="method must be 'closed', 'sum', 'oracle' or 'approx'"):
        posterior_for(kind, 5, 3, p, "bogus")


def test_posterior_sweep_checks_every_input_before_any_value(monkeypatch):
    def no_values(*args, **kwargs):
        raise AssertionError("a value was computed before the inputs were checked")

    monkeypatch.setattr(closed_forms, "v_post_shuffle_general", no_values)
    kinds, ps = ("krr-shuffle", "shuffle"), (Fraction(1, 2), Fraction(3, 5))
    for ns, k, bad_ps, message in (
        (range(0, 3), 1, (Fraction(1, 5),), "n must be at least 1"),
        (range(1, 3), 1, (Fraction(1, 5),), "k must be at least 2"),
        (range(1, 3), 3, (Fraction(1, 5), 2), r"p must lie in \[1/3, 1\] \(got 1/5\)"),
        (range(1, 3), 3, (2, Fraction(1, 5)), r"\(got 2\)"),
    ):
        with pytest.raises(ValueError, match=message):
            next(closed_forms.posterior_sweep(kinds, ns, k, ps + bad_ps))
    with pytest.raises(ValueError, match="method must be"):
        next(closed_forms.posterior_sweep(kinds, range(1, 3), 3, ps, "bogus"))
    with pytest.raises(ValueError, match="needs p"):
        next(closed_forms.posterior_sweep(kinds, range(1, 3), 3))


@pytest.mark.parametrize("kind", MECHANISMS)
@pytest.mark.parametrize("k, n", [(2, 1), (2, 5), (3, 4)])
def test_posterior_for_oracle_is_the_oracle(kind, k, n):
    # the oracle's stages are the kind split at '-'; a float p is read as
    # the rational it denotes, and the value is a Fraction in either mode
    for p in (None,) if kind == "shuffle" else (Fraction(3, 5), 0.6):
        q = None if p is None else Fraction(p)
        want = oracle_posterior(n, k, kind.split("-"), q)
        assert want == posterior_for(kind, n, k, q, "sum", exact=True)
        for exact in (None, True, False):
            got = posterior_for(kind, n, k, p, "oracle", exact)
            assert isinstance(got, Fraction)
            assert got == want


def test_posterior_for_shuffle_sum_is_the_partition_sum(monkeypatch):
    want = {
        (n, k): v_post_shuffle_general(n, k, method="composition", exact=True)
        for n, k in ((9, 2), (7, 3), (6, 4), (5, 5))
    }

    def no_compositions(n, k):
        raise AssertionError("the composition sum is not the sum method")

    monkeypatch.setattr(closed_forms, "max_load_counts", no_compositions)
    for (n, k), value in want.items():
        assert posterior_for("shuffle", n, k, method="sum", exact=True) == value
        assert posterior_for("shuffle", n, k, method="sum", exact=False) == float(value)


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("method", ["closed", "sum"])
def test_posterior_for_scalar_mode_is_one_rule_for_every_k(k, method):
    # exact mode reads a float p as the rational it denotes and returns a
    # Fraction; float mode returns a float even for a Fraction p
    n, p = 7, 0.6
    got = posterior_for("krr-shuffle", n, k, p, method, exact=True)
    assert isinstance(got, Fraction)
    if k == 2 and method == "closed":
        assert got == v_post_ns_binary_fast(n, Fraction(p))
    else:
        assert got == v_post_ns_general(n, k, Fraction(p), method="partition", exact=True)
    floating = posterior_for("krr-shuffle", n, k, Fraction(3, 5), method, exact=False)
    assert isinstance(floating, float)
    assert floating == pytest.approx(
        float(posterior_for("krr-shuffle", n, k, Fraction(3, 5), method, exact=True)),
        abs=1e-15)
    shuffled = posterior_for("shuffle", n, k, method=method, exact=False)
    assert isinstance(shuffled, float)
    assert shuffled == float(posterior_for("shuffle", n, k, method=method, exact=True))


@pytest.mark.parametrize("method", ["closed", "sum"])
def test_posterior_for_noise_alone_follows_the_scalar_mode_rule(method):
    # noise alone once returned p as given, a float p in exact mode included
    exact = posterior_for("krr", 5, 2, 0.6, method, exact=True)
    assert isinstance(exact, Fraction) and exact == Fraction(0.6)
    big = posterior_for("krr", 100, 2, Fraction(3, 5), method)
    assert isinstance(big, float) and big == 0.6
    assert type(big) is type(posterior_for("krr-shuffle", 100, 2, Fraction(3, 5), method))
    small = posterior_for("krr", 5, 3, Fraction(3, 5), method)
    assert isinstance(small, Fraction) and small == Fraction(3, 5)
    floating = posterior_for("krr", 5, 3, Fraction(3, 5), method, exact=False)
    assert isinstance(floating, float) and floating == 0.6


def test_posterior_for_auto_mode_switches_to_float():
    big = posterior_for("shuffle", 200, 2)
    assert isinstance(big, float)
    small = posterior_for("shuffle", 20, 2)
    assert isinstance(small, Fraction)


# ---------------------------------------------------------------------------
# one integer quotient per value, against the Fraction chains it replaced
# ---------------------------------------------------------------------------


def chain_binary_vulnerability(p, mode):
    if is_exact(p):
        return Fraction(1, 2) + abs(Fraction(p) - Fraction(1, 2)) * mode
    return 0.5 + abs(p - 0.5) * float(mode)


def chain_partition_score(top_mass, total, n, k, p, exact):
    q = Fraction(p)
    rest_mass = n * total - top_mass
    value = (q * top_mass + (1 - q) * Fraction(rest_mass, k - 1)) / (total * n)
    return value if exact else float(value)


def chain_linear_relation(v_s, k, p, exact):
    if exact:
        p = Fraction(p)
        return v_s * Fraction(k * p - 1, k - 1) + Fraction(1 - p, k - 1)
    v_s = float(v_s)
    return v_s * (k * p - 1) / (k - 1) + (1 - p) / (k - 1)


def chain_p_to_epsilon(p, k):
    if is_exact(p):
        return math.log(Fraction(p) * (k - 1) / (1 - Fraction(p)))
    return max(0.0, math.log(p * (k - 1) / (1 - p)))


def chain_count_mode_probability(a, b, p):
    q = Fraction(p)
    s, d = q.numerator, q.denominator
    mean = a * s + b * (d - s)
    tops = {mean // d, -(-mean // d)}
    return Fraction(max(_count_mass(a, b, s, d - s, z) for z in tops), d ** (a + b))


def chain_epsilon_to_p(epsilon, k, exact):
    e = Fraction(math.exp(epsilon))
    p = e / (k - 1 + e)
    return p if exact else float(p)


def chain_record_weights(k, p):
    if is_exact(p):
        p = Fraction(p)
        a, b = p.numerator, p.denominator
        return a * (k - 1), b - a, b * (k - 1)
    return p, (1 - p) / (k - 1), None


def assert_same(got, want):
    """Equal and of one type, a float to the bit, a tuple entry by entry."""
    assert type(got) is type(want), (got, want)
    if isinstance(want, tuple):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert_same(g, w)
    elif isinstance(want, float):
        assert got.hex() == want.hex()
    else:
        assert got == want


def rationals(low, high=Fraction(1)):
    """Rationals in [low, high] with denominators up to 10^12."""
    return st.integers(1, 10**12).flatmap(lambda d: st.integers(
        -(-low.numerator * d // low.denominator), high.numerator * d // high.denominator
    ).map(lambda s: Fraction(s, d)))


def probabilities(k):
    """An exact, an int or a float p that the mechanism rule accepts."""
    return st.one_of(
        rationals(Fraction(1, k)),
        st.just(1),
        st.floats(min_value=1 / k - FLOAT_TOL, max_value=1.0),
    )


@given(st.integers(2, 10).flatmap(lambda k: st.tuples(st.just(k), probabilities(k))),
       st.booleans(), st.data())
@settings(max_examples=400, deadline=None)
def test_each_value_is_the_fraction_chain_it_replaced(kp, exact, data):
    k, p = kp
    mode = data.draw(rationals(Fraction(1, 10**6)))
    assert_same(binary_vulnerability(p, mode), chain_binary_vulnerability(p, mode))

    n = data.draw(st.integers(1, 200))
    total = k**n
    top_mass = data.draw(st.integers(-(-n * total // k), n * total))
    assert_same(partition_score(top_mass, n, k, p, exact),
                chain_partition_score(top_mass, total, n, k, p, exact))

    v_s = data.draw(rationals(Fraction(1, k)))
    v_s = v_s if exact else float(v_s)
    assert_same(linear_relation(v_s, k, p, exact), chain_linear_relation(v_s, k, p, exact))

    if p != 1:
        assert_same(p_to_epsilon(p, k), chain_p_to_epsilon(p, k))
    a, b = data.draw(st.integers(0, 25)), data.draw(st.integers(0, 25))
    assert_same(count_mode_probability(a, b, p), chain_count_mode_probability(a, b, p))
    assert_same(record_weights(k, p), chain_record_weights(k, p))
    epsilon = data.draw(st.floats(min_value=0, max_value=50))
    assert_same(epsilon_to_p(epsilon, k, exact), chain_epsilon_to_p(epsilon, k, exact))
