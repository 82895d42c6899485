"""Named invariant suites behind the ``check`` CLI command.

Each suite exercises one family of properties on a small grid and
reports a pass/fail line per property instance.  All comparisons run in
exact rationals.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from . import closed_forms as cf
from .channels import (
    CascadeTypeError,
    build_krr,
    build_krr_reduced,
    build_shuffle_full,
    build_shuffle_reduced,
    cascade,
    equivalent,
)
from .combinatorics import match_weights, partition_terms, transition_sum
from .oracle import ORACLE_CAP, oracle_posterior
from .vulnerability import (
    AboScenario,
    GainFunction,
    Prior,
    abo_posterior,
    posterior_vulnerability,
    single_target_gain,
)

P_GRID = (Fraction(1, 2), Fraction(3, 4), Fraction(1))
P_GRID_ORACLE = (
    Fraction(1, 2),
    Fraction(3, 5),
    Fraction(3, 4),
    Fraction(9, 10),
    Fraction(1),
)

#: Random prior/gain pairs the ``dpi`` suite draws per alphabet, and its seed.
DPI_PAIRS = 50
DPI_SEED = 23517


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def suite_equivalence(max_n: int = 5) -> list[CheckResult]:
    """Leakage equivalences between full and reduced channels."""
    results = []
    for k in (2, 3):
        for n in range(1, max_n + 1):
            s = build_shuffle_full(n, k)
            sr = build_shuffle_reduced(n, k)
            results.append(CheckResult(
                "shuffle equivalent to reduced shuffle (n=%d, k=%d)" % (n, k),
                equivalent(s, sr),
            ))
            for p in P_GRID:
                if p < Fraction(1, k):
                    continue
                noise = build_krr(n, k, p)
                ns = cascade(noise, s)
                nsr = cascade(noise, sr)
                results.append(CheckResult(
                    "noise+shuffle equivalent to noise+reduced shuffle "
                    "(n=%d, k=%d, p=%s)" % (n, k, p),
                    equivalent(ns, nsr),
                ))
                sn = cascade(s, noise)
                srnr = cascade(sr, build_krr_reduced(n, k, p))
                results.append(CheckResult(
                    "shuffle+noise equivalent to reduced shuffle+reduced noise "
                    "(n=%d, k=%d, p=%s)" % (n, k, p),
                    equivalent(sn, srnr),
                ))
    return results


def suite_commute(max_n: int = 5) -> list[CheckResult]:
    """Order-independence of noise and shuffling."""
    results = []
    for k in (2, 3):
        for n in range(1, max_n + 1):
            s = build_shuffle_full(n, k)
            sr = build_shuffle_reduced(n, k)
            for p in P_GRID:
                if p < Fraction(1, k):
                    continue
                noise = build_krr(n, k, p)
                results.append(CheckResult(
                    "noise+shuffle equivalent to shuffle+noise (n=%d, k=%d, p=%s)"
                    % (n, k, p),
                    equivalent(cascade(noise, s), cascade(s, noise)),
                ))
                nsr = cascade(noise, sr)
                srnr = cascade(sr, build_krr_reduced(n, k, p))
                results.append(CheckResult(
                    "noise+reduced shuffle equals reduced shuffle+reduced noise "
                    "entrywise (n=%d, k=%d, p=%s)" % (n, k, p),
                    nsr == srnr,
                ))
    # The reverse reduced order is ill-typed: histograms cannot feed the
    # dataset-indexed noise channel.
    try:
        cascade(build_shuffle_reduced(2, 2), build_krr(2, 2, Fraction(3, 4)))
        results.append(CheckResult("reduced shuffle into full noise is rejected", False,
                                   "cascade unexpectedly succeeded"))
    except CascadeTypeError:
        results.append(CheckResult("reduced shuffle into full noise is rejected", True))
    return results


def _oracle_grid(max_n: int):
    for k, n_cap in ((2, 8), (3, 5), (4, 4)):
        for n in range(1, min(max_n, n_cap) + 1):
            if k**n <= ORACLE_CAP:
                yield n, k


def abo_transition_sum(scenario: AboScenario) -> Fraction:
    """The all-but-one adversary's posterior vulnerability by its
    definition, the reference for :func:`abo_posterior`: half the sum,
    over the n + 1 output histograms, of the larger of the two candidate
    datasets' k-RR transition sums.  Exact; a float p is read as the
    rational it denotes."""
    n = scenario.n
    known_b = n - 1 - scenario.known_a
    if_a = (scenario.known_a + 1, known_b)  # target holds 'a'
    if_b = (scenario.known_a, known_b + 1)  # target holds 'b'
    weights, den = match_weights(n, 2, Fraction(scenario.p))
    total = 0
    for a_out in range(n + 1):
        z_out = (a_out, n - a_out)
        total += max(transition_sum(if_a, z_out, weights),
                     transition_sum(if_b, z_out, weights))
    return Fraction(total, 2 * den)


def suite_oracle(max_n: int = 8) -> list[CheckResult]:
    """Exact agreement of every closed form with brute force."""
    results = []
    for n, k in _oracle_grid(max_n):
        truth_s = oracle_posterior(n, k, ["shuffle"])
        forms = {
            "bounded-load recursion": cf.v_post_shuffle_general(n, k, exact=True),
            "partition sum": cf.v_post_shuffle_general(
                n, k, method="partition", exact=True
            ),
        }
        if k == 2:
            forms["binary fast form"] = cf.v_post_shuffle_binary_fast(n)
        for label, value in forms.items():
            results.append(CheckResult(
                "shuffle %s matches oracle (n=%d, k=%d)" % (label, n, k),
                value == truth_s,
                "%s != %s" % (value, truth_s),
            ))
        for p in P_GRID_ORACLE:
            if p < Fraction(1, k):
                continue
            truth_ns = oracle_posterior(n, k, ["krr", "shuffle"], p)
            forms = {
                "linear relation": cf.v_post_ns_general(n, k, p, exact=True),
                "partition sum": cf.v_post_ns_general(
                    n, k, p, method="partition", exact=True
                ),
            }
            if k == 2:
                forms["binary fast form"] = cf.v_post_ns_binary_fast(n, p)
            for label, value in forms.items():
                results.append(CheckResult(
                    "noise+shuffle %s matches oracle (n=%d, k=%d, p=%s)"
                    % (label, n, k, p),
                    value == truth_ns,
                    "%s != %s" % (value, truth_ns),
                ))
            if k == 2:
                scenarios = [AboScenario(n, p, a) for a in range(n)]
                bad = [s.known_a for s in scenarios
                       if abo_posterior(s) != abo_transition_sum(s)]
                results.append(CheckResult(
                    "abo closed form matches transition sum for every known_a "
                    "(n=%d, p=%s)" % (n, p),
                    not bad,
                    "known_a in %s" % bad,
                ))
    return results


def suite_max_load(max_n: int = 30) -> list[CheckResult]:
    """The scaled maximum load by its two evaluators, the bounded-load
    recursion (:func:`~rrshuffle.closed_forms.scaled_max_load`) and its
    reference, the partition sum, for k = 2..5 and n = 1..max_n."""
    results = []
    count = sum(1 for _ in partition_terms(6, 3))
    results.append(CheckResult("partition_terms(6, 3) yields exactly 7 partitions",
                               count == 7, "got %d" % count))
    for k in range(2, 6):
        for n in range(1, max_n + 1):
            recursion = cf.scaled_max_load(n, k)
            partition = cf.scaled_max_load_via_multinomials(n, k)
            results.append(CheckResult(
                "bounded-load and partition-sum max-load integers agree (n=%d, k=%d)"
                % (n, k),
                recursion == partition,
                "%d != %d" % (recursion, partition),
            ))
    return results


def suite_fastform(max_n: int = 64) -> list[CheckResult]:
    """Single-binomial forms equal the direct sums, exactly."""
    results = []
    shuffle_ok = all(
        cf.v_post_shuffle_binary_fast(n) == cf.v_post_shuffle_binary_sum(n)
        for n in range(1, max_n + 1)
    )
    results.append(CheckResult(
        "binary shuffle fast form equals sum for n <= %d" % max_n, shuffle_ok
    ))
    for p in P_GRID_ORACLE:
        ok = all(
            cf.v_post_ns_binary_fast(n, p) == cf.v_post_ns_binary_sum(n, p)
            for n in range(1, max_n + 1)
        )
        results.append(CheckResult(
            "binary noise+shuffle fast form equals sum for n <= %d (p=%s)"
            % (max_n, p),
            ok,
        ))
    return results


def random_prior_gain(rng: random.Random, labels: tuple[str, ...], k: int):
    """A random rational prior and gain function over the given secrets."""
    weights = [rng.randint(0, 9) for _ in labels]
    if sum(weights) == 0:
        weights[rng.randrange(len(weights))] = 1
    total = sum(weights)
    prior = Prior(labels, tuple(Fraction(w, total) for w in weights))
    n_actions = rng.randint(2, k + 1)
    gains = tuple(
        tuple(Fraction(rng.randint(0, 4), 4) for _ in labels)
        for _ in range(n_actions)
    )
    gain = GainFunction(tuple("w%d" % i for i in range(n_actions)), labels, gains)
    return prior, gain


def suite_dpi(max_n: int = 4) -> list[CheckResult]:
    """Shuffling the noisy output can never increase vulnerability."""
    results = []
    n = min(max_n, 4)
    rng = random.Random(DPI_SEED)
    for k in (2, 3):
        noise_by_p = {
            p: build_krr(n, k, p) for p in (Fraction(3, 5), Fraction(9, 10))
        }
        shuffled = build_shuffle_full(n, k)
        ns_by_p = {p: cascade(noise, shuffled) for p, noise in noise_by_p.items()}
        labels = noise_by_p[Fraction(3, 5)].row_labels
        worst = None
        ok = True
        for _ in range(DPI_PAIRS):
            prior, gain = random_prior_gain(rng, labels, k)
            for p, noise in noise_by_p.items():
                v_noise = posterior_vulnerability(prior, gain, noise)
                v_ns = posterior_vulnerability(prior, gain, ns_by_p[p])
                if v_ns > v_noise:
                    ok = False
                    worst = "V_NS=%s > V_N=%s at p=%s" % (v_ns, v_noise, p)
        results.append(CheckResult(
            "post-shuffle vulnerability never exceeds noise-only "
            "(n=%d, k=%d, %d random prior/gain pairs)" % (n, k, DPI_PAIRS),
            ok,
            worst or "",
        ))
        # Spot check with the canonical single-target adversary too.
        uniform = Prior.uniform(labels)
        target = single_target_gain(n, k)
        for p, noise in noise_by_p.items():
            v_noise = posterior_vulnerability(uniform, target, noise)
            v_ns = posterior_vulnerability(uniform, target, ns_by_p[p])
            results.append(CheckResult(
                "single-target post-shuffle bound (n=%d, k=%d, p=%s)" % (n, k, p),
                v_ns <= v_noise,
            ))
    return results


SUITES = {
    "equivalence": suite_equivalence,
    "commute": suite_commute,
    "oracle": suite_oracle,
    "brown": suite_max_load,
    "fastform": suite_fastform,
    "dpi": suite_dpi,
}


def run_suite(name: str, max_n: int = None) -> list[CheckResult]:
    """Run one suite, up to ``max_n`` or to the suite's own default."""
    if name not in SUITES:
        raise ValueError(
            "unknown suite %r (choose from %s)" % (name, ", ".join(sorted(SUITES)))
        )
    suite = SUITES[name]
    return suite() if max_n is None else suite(max_n)
