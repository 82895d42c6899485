"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a PASS line once its assertions hold (visible with
``pytest -v -s`` or in captured output).  Wall-clock limits are asserted
where the criterion states one.
"""

import time
from fractions import Fraction

import pytest

from rrshuffle import checks
from rrshuffle.channels import (
    build_krr,
    build_last_record_reporter,
    build_parity_masked_reporter,
    verify_dp_adjacent,
)
from rrshuffle.closed_forms import (
    v_approx_shuffle,
    v_post_ns_binary_fast,
    v_post_shuffle_general,
)
from rrshuffle.vulnerability import (
    AboScenario,
    Prior,
    abo_posterior,
    posterior_vulnerability,
    prior_vulnerability,
    single_target_gain,
)


def assert_suite_clean(results):
    failures = ["%s (%s)" % (r.name, r.detail) for r in results if not r.passed]
    assert not failures, "failed checks: %s" % "; ".join(failures)


def test_criterion_01_binary_ns_anchors_n200():
    anchors = [(0.9, 0.5225), (0.6, 0.5056), (1.0, 0.5282)]
    for p, expected in anchors:
        start = time.perf_counter()
        value = v_post_ns_binary_fast(200, p)
        elapsed = time.perf_counter() - start
        assert value == pytest.approx(expected, abs=5e-4), "p=%s" % p
        assert elapsed < 0.010, "took %.4fs for p=%s" % (elapsed, p)
    print("PASS criterion 1: binary noise+shuffle anchors at n=200 "
          "(0.5225 / 0.5056 / 0.5282, each under 10 ms)")


def test_criterion_02_binary_example_exact():
    assert v_post_ns_binary_fast(2, Fraction(9, 10)) == Fraction(7, 10)
    print("PASS criterion 2: n=2, p=9/10 gives exactly 7/10")


def test_criterion_03_general_k_shuffle_anchors():
    assert v_post_shuffle_general(100, 3) == pytest.approx(0.3826, abs=5e-4)
    start = time.perf_counter()
    value = v_post_shuffle_general(1000, 3)
    elapsed = time.perf_counter() - start
    assert value == pytest.approx(0.3488, abs=5e-4)
    assert elapsed < 30.0, "n=1000 took %.2fs" % elapsed
    print("PASS criterion 3: k=3 anchors 0.3826 (n=100) and 0.3488 "
          "(n=1000, %.2fs < 30s)" % elapsed)


def test_criterion_04_abo_anchors():
    start = time.perf_counter()
    all_b = abo_posterior(AboScenario(201, 0.8, 0))
    balanced = abo_posterior(AboScenario(201, 0.8, 100))
    elapsed = time.perf_counter() - start
    assert all_b == pytest.approx(0.52111, abs=1e-4)
    assert balanced == pytest.approx(0.52116, abs=1e-4)
    assert abo_posterior(AboScenario(201, Fraction(1), 0)) == 1
    assert elapsed < 1.0, "anchors took %.2fs" % elapsed
    print("PASS criterion 4: all-but-one anchors at n=201 "
          "(0.52111 / 0.52116, p=1 gives 1, %.3fs < 1s)" % elapsed)


def test_criterion_05_oracle_equivalence():
    start = time.perf_counter()
    results = checks.suite_oracle(8)
    elapsed = time.perf_counter() - start
    assert_suite_clean(results)
    assert elapsed < 300.0, "oracle grid took %.1fs" % elapsed
    print("PASS criterion 5: every closed form agrees exactly with the "
          "brute-force oracle over the full grid (%d checks, %.1fs < 5min)"
          % (len(results), elapsed))


def test_criterion_06_equivalence_lattice():
    results = checks.suite_equivalence(5) + checks.suite_commute(5)
    assert_suite_clean(results)
    print("PASS criterion 6: equivalence lattice holds for n<=5, k in {2,3} "
          "(%d checks incl. exact reduced commutativity and the ill-typed "
          "cascade rejection)" % len(results))


def test_criterion_07_max_load_and_partition_identities():
    results = checks.suite_max_load(12)
    assert_suite_clean(results)
    print("PASS criterion 7: bounded-load recursion and partition sum give the "
          "same max-load integer for n<=12, k<=5; partition_terms(6,3) yields 7")


def test_criterion_08_data_processing_inequality():
    results = checks.suite_dpi(4)
    assert_suite_clean(results)
    print("PASS criterion 8: shuffling noisy output never increases "
          "vulnerability on 50 random prior/gain pairs (n=4, k in {2,3})")


def test_criterion_09_prior_baselines():
    for k in range(2, 7):
        n = 2
        gain = single_target_gain(n, k)
        prior = Prior.uniform(gain.secret_labels)
        assert prior_vulnerability(prior, gain) == Fraction(1, k)
        p = Fraction(3, 4)
        assert posterior_vulnerability(prior, gain, build_krr(n, k, p)) == p
    print("PASS criterion 9: prior vulnerability is exactly 1/k (k=2..6) and "
          "noise alone posts exactly p")


def test_criterion_10_asymptotic_sanity():
    for k in (4, 5):
        diffs = []
        for n in (25, 50, 100, 200):
            exact = v_post_shuffle_general(n, k)
            diffs.append(abs(v_approx_shuffle(n, k).value - exact))
        assert all(a >= b for a, b in zip(diffs, diffs[1:])), (k, diffs)
        assert diffs[-1] < 0.01, (k, diffs)
    print("PASS criterion 10: f=1 approximation error is non-increasing over "
          "n in {25,50,100,200} and below 0.01 at n=200 (k in {4,5})")


def test_criterion_11_intro_mechanisms():
    for eps in (0.5, 1.0, 2.0):
        for n in (2, 3, 4):
            plain = build_last_record_reporter(n, eps)
            masked = build_parity_masked_reporter(n, eps)
            for chan in (plain, masked):
                assert verify_dp_adjacent(chan, n, 2, eps)
                assert not verify_dp_adjacent(chan, n, 2, eps - 0.01)
            gain = single_target_gain(n, 2, target=n - 1)
            prior = Prior.uniform(gain.secret_labels)
            baseline = prior_vulnerability(prior, gain)
            assert posterior_vulnerability(prior, gain, masked) == baseline
            assert posterior_vulnerability(prior, gain, plain) > baseline
    print("PASS criterion 11: both introductory mechanisms are exactly "
          "eps-DP, and only the parity-masked one hides the last record")
