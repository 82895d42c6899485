import itertools
import math
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rrshuffle
from rrshuffle.channels import (
    CanonicalChannel,
    CapExceededError,
    CascadeTypeError,
    Channel,
    build_krr,
    build_krr_reduced,
    build_krr_shuffle,
    build_last_record_reporter,
    build_parity_masked_reporter,
    build_shuffle_full,
    build_shuffle_reduced,
    canonicalize,
    cascade,
    dataset_label,
    dataset_labels,
    enumerate_datasets,
    enumerate_histograms,
    equivalent,
    histogram_of,
    identity_channel,
    verify_dp_adjacent,
    verify_ldp,
)
from rrshuffle.combinatorics import epsilon_to_p, match_weights, record_weights
from rrshuffle.reference import krr_histogram_transition, literal_krr, literal_shuffled
from rrshuffle.scalars import FLOAT_TOL
from rrshuffle.vulnerability import (
    GainFunction,
    Prior,
    canonical_posterior_vulnerability,
    posterior_vulnerability,
    single_target_gain,
)

P = Fraction(3, 4)
PBAR = 1 - P


def assert_rows_stochastic(channel):
    for row in channel.rows:
        assert sum(row) == 1 or abs(sum(row) - 1) <= 1e-9
        assert all(e >= 0 for e in row)


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------


def test_krr_entries_n3_k2():
    chan = build_krr(3, 2, P)
    assert chan.entry("aaa", "aab") == P**2 * PBAR
    assert chan.entry("aaa", "aaa") == P**3
    assert chan.entry("aab", "bba") == PBAR**3
    assert_rows_stochastic(chan)


def test_krr_no_noise_is_identity():
    chan = build_krr(2, 2, Fraction(1))
    assert chan.rows == identity_channel(chan.row_labels).rows


def test_krr_single_user_k3():
    chan = build_krr(1, 3, 0.5)
    assert chan.entry("a", "b") == pytest.approx(0.25)
    assert chan.entry("a", "a") == pytest.approx(0.5)


def test_krr_cap():
    with pytest.raises(CapExceededError, match="cap"):
        build_krr(30, 2, P, cap=2**10)


@pytest.mark.parametrize("n, k, p", [
    (3, 3, Fraction(3, 5)), (4, 2, Fraction(3, 4)), (2, 4, Fraction(1, 4)),
    (3, 3, Fraction(35, 64)), (2, 3, Fraction(1)), (1, 5, Fraction(7, 10)),
])
def test_match_weights_share_no_factor_with_their_denominator(n, k, p):
    # keep, move and base = 6, 2 and 10 at k = 3, p = 3/5 share a 2
    weights, den = match_weights(n, k, p)
    assert math.gcd(den, *weights) == 1
    keep, move, base = record_weights(k, p)
    unreduced = [keep**m * move ** (n - m) for m in range(n + 1)]
    assert [Fraction(w, den) for w in weights] == [Fraction(w, base**n) for w in unreduced]
    rows, literal_den = literal_krr(n, k, p)
    chan = build_krr(n, k, p)
    assert chan.den == den
    assert chan == Channel(chan.row_labels, chan.col_labels,
                           [[Fraction(e, literal_den) for e in row] for row in rows])


def test_shuffle_full_rows():
    chan = build_shuffle_full(3, 2)
    for col in ("aab", "aba", "baa"):
        assert chan.entry("aab", col) == Fraction(1, 3)
    assert chan.entry("aab", "abb") == 0
    assert chan.entry("aaa", "aaa") == 1
    assert_rows_stochastic(chan)


def test_shuffle_full_n2():
    chan = build_shuffle_full(2, 2)
    assert chan.entry("ab", "ab") == Fraction(1, 2)
    assert chan.entry("ab", "ba") == Fraction(1, 2)


def test_shuffle_reduced_shape_and_rows():
    for n, k in [(3, 2), (4, 3), (2, 4)]:
        chan = build_shuffle_reduced(n, k)
        assert len(chan.col_labels) == math.comb(n + k - 1, k - 1)
        assert_rows_stochastic(chan)
        for x, row in zip(enumerate_datasets(n, k), chan.rows):
            assert sum(1 for e in row if e) == 1
    chan = build_shuffle_reduced(3, 2)
    assert chan.entry("aab", "a2:b1") == 1


def test_shuffle_reduced_n1_is_identity_up_to_labels():
    chan = build_shuffle_reduced(1, 2)
    assert chan.entry("a", "a1:b0") == 1
    assert chan.entry("b", "a0:b1") == 1
    assert chan.entry("a", "a0:b1") == 0


def test_krr_reduced_binary_entries():
    chan = build_krr_reduced(3, 2, P)
    # row sums force the merged diagonal entry; the shuffle-averaged
    # definition gives p^3 + 2 p pbar^2 there
    assert chan.entry("a2:b1", "a2:b1") == P**3 + 2 * P * PBAR**2
    assert chan.entry("a3:b0", "a0:b3") == PBAR**3 == Fraction(1, 64)
    assert chan.entry("a3:b0", "a2:b1") == 3 * P**2 * PBAR
    assert_rows_stochastic(chan)


def test_krr_reduced_identity_at_p1():
    for k in (2, 3):
        chan = build_krr_reduced(3, k, Fraction(1))
        assert chan.rows == identity_channel(chan.row_labels).rows


def test_krr_reduced_matches_hand_aggregation():
    chan2 = build_krr_reduced(3, 2, P)
    full = build_krr(3, 2, P)
    reduced_shuffle = build_shuffle_reduced(3, 2)
    # aggregate the full channel by hand: average rows per input class,
    # sum columns per output class
    hists = [histogram_of(x, 2) for x in enumerate_datasets(3, 2)]
    hist_list = enumerate_histograms(3, 2)
    for zi, z1 in enumerate(hist_list):
        rows = [full.rows[i] for i, h in enumerate(hists) if h == z1]
        for zj, z2 in enumerate(hist_list):
            total = sum(
                row[j] for row in rows for j, h in enumerate(hists) if h == z2
            )
            assert chan2.rows[zi][zj] == Fraction(total, len(rows))


def test_krr_reduced_general_k_row_stochastic():
    chan = build_krr_reduced(2, 3, Fraction(2, 3))
    assert_rows_stochastic(chan)
    assert len(chan.row_labels) == math.comb(2 + 3 - 1, 3 - 1)


# ---------------------------------------------------------------------------
# cascade
# ---------------------------------------------------------------------------


def test_cascade_noise_then_reduced_shuffle():
    ns_reduced = cascade(build_krr(3, 2, P), build_shuffle_reduced(3, 2))
    assert ns_reduced.entry("aab", "a2:b1") == P**3 + 2 * P * PBAR**2
    assert ns_reduced.entry("aab", "a2:b1") == Fraction(33, 64)
    assert ns_reduced.entry("aaa", "a2:b1") == 3 * P**2 * PBAR
    assert_rows_stochastic(ns_reduced)


def test_cascade_identity_is_neutral():
    chan = build_krr(2, 2, P)
    assert cascade(identity_channel(chan.row_labels), chan).rows == chan.rows
    assert cascade(chan, identity_channel(chan.col_labels)).rows == chan.rows


def test_cascade_commutes_entrywise_full_n3():
    noise = build_krr(3, 2, P)
    shuffle = build_shuffle_full(3, 2)
    assert cascade(noise, shuffle).rows == cascade(shuffle, noise).rows


def test_cascade_label_mismatch_is_typed_error():
    reduced_shuffle = build_shuffle_reduced(3, 2)
    noise = build_krr(3, 2, P)
    with pytest.raises(CascadeTypeError, match="inner dimensions/labels differ"):
        cascade(reduced_shuffle, noise)


def test_cascade_float_mode():
    noise = build_krr(2, 2, 0.75)
    shuffle = build_shuffle_full(2, 2)
    ns = cascade(noise, shuffle)
    assert_rows_stochastic(ns)
    assert ns.entry("ab", "ab") == pytest.approx(float(cascade(
        build_krr(2, 2, P), build_shuffle_full(2, 2)).entry("ab", "ab")))


def test_reduced_commutativity_exact_matrix_equality():
    for n in (1, 2, 3, 4):
        for p in (Fraction(1, 2), Fraction(3, 4), Fraction(1)):
            left = cascade(build_krr(n, 2, p), build_shuffle_reduced(n, 2))
            right = cascade(
                build_shuffle_reduced(n, 2), build_krr_reduced(n, 2, p)
            )
            assert left.rows == right.rows


# ---------------------------------------------------------------------------
# canonical form and equivalence
# ---------------------------------------------------------------------------


def test_canonical_merges_identical_columns():
    chan = Channel(
        ("x0", "x1"),
        ("y0", "y1", "y2"),
        ((Fraction(1, 4), Fraction(1, 4), Fraction(1, 2)),
         (Fraction(1, 4), Fraction(1, 4), Fraction(1, 2))),
    )
    canon = canonicalize(chan)
    # y0 and y1 are identical, y2 is proportional to both: all merge
    assert len(canon.columns) == 1
    outer, posterior = canon.columns[0]
    assert outer == 1
    assert posterior == (Fraction(1, 2), Fraction(1, 2))


def test_canonical_drops_zero_columns():
    chan = Channel(
        ("x0", "x1"),
        ("y0", "y1", "dead"),
        ((Fraction(1, 2), Fraction(1, 2), 0),
         (Fraction(1, 4), Fraction(3, 4), 0)),
    )
    assert len(canonicalize(chan).columns) == 2


def test_shuffle_equivalent_to_reduced():
    for n in range(1, 6):
        s = build_shuffle_full(n, 2)
        sr = build_shuffle_reduced(n, 2)
        assert canonicalize(s).columns == canonicalize(sr).columns
        assert equivalent(s, sr)


def test_noise_shuffle_equivalences_n3():
    noise = build_krr(3, 2, P)
    s = build_shuffle_full(3, 2)
    sr = build_shuffle_reduced(3, 2)
    ns, sn, nsr = cascade(noise, s), cascade(s, noise), cascade(noise, sr)
    assert equivalent(ns, sn)
    assert equivalent(ns, nsr)
    assert equivalent(sn, cascade(sr, build_krr_reduced(3, 2, P)))


def test_noise_not_equivalent_to_shuffle():
    noise = build_krr(2, 2, Fraction(9, 10))
    shuffle = build_shuffle_full(2, 2)
    assert not equivalent(noise, shuffle)


def test_equivalent_requires_same_secrets():
    with pytest.raises(ValueError, match="secret labels"):
        equivalent(build_krr(2, 2, P), build_krr(2, 3, Fraction(2, 3)))


def test_equivalence_lattice_rational_grid():
    for k in (2, 3):
        for n in range(1, 5):
            s = build_shuffle_full(n, k)
            sr = build_shuffle_reduced(n, k)
            assert equivalent(s, sr)
            for p in (Fraction(1, 2), Fraction(2, 3), Fraction(3, 4), Fraction(1)):
                if p < Fraction(1, k):
                    continue
                noise = build_krr(n, k, p)
                nr = build_krr_reduced(n, k, p)
                ns, sn = cascade(noise, s), cascade(s, noise)
                nsr, srnr = cascade(noise, sr), cascade(sr, nr)
                assert equivalent(ns, sn)
                assert equivalent(ns, nsr)
                assert equivalent(sn, srnr)
                assert nsr.rows == srnr.rows


def test_equivalence_lattice_n5_spot_check():
    p = Fraction(2, 3)
    for k in (2, 3):
        s = build_shuffle_full(5, k)
        sr = build_shuffle_reduced(5, k)
        noise = build_krr(5, k, p)
        ns, sn = cascade(noise, s), cascade(s, noise)
        nsr = cascade(noise, sr)
        srnr = cascade(sr, build_krr_reduced(5, k, p))
        assert equivalent(ns, sn)
        assert equivalent(ns, nsr)
        assert equivalent(sn, srnr)
        assert nsr.rows == srnr.rows


@pytest.mark.parametrize("k, n", [(k, n) for k in (2, 3) for n in range(1, 5)])
def test_exact_equivalence_is_canonical_form_equality(k, n):
    s, sr = build_shuffle_full(n, k), build_shuffle_reduced(n, k)
    chans = {"shuffle": s}
    for p in (Fraction(1, k), Fraction(3, 5)):
        noise = build_krr(n, k, p)
        chans.update({("krr", p): noise, ("ns", p): cascade(noise, s),
                      ("nsr", p): cascade(noise, sr), ("sn", p): cascade(s, noise),
                      ("srnr", p): cascade(sr, build_krr_reduced(n, k, p))})
    canon = {name: canonicalize(chan) for name, chan in chans.items()}
    outcomes = set()
    for (x, a), (y, b) in itertools.product(chans.items(), repeat=2):
        same = canon[x] == canon[y]
        assert equivalent(a, b) == same
        outcomes.add((x == y, same))
    assert (False, True) in outcomes
    assert (False, False) in outcomes


def test_exact_equivalence_compares_masses_over_denominators():
    def chan(*rows):
        return Channel(("x0", "x1"), tuple("y%d" % j for j in range(len(rows[0]))),
                       [tuple(map(Fraction, row)) for row in rows])

    two = chan(("3/4", "1/4"), ("1/4", "3/4"))
    split = chan(("3/8", "3/8", "1/4"), ("1/8", "1/8", "3/4"))
    padded = chan(("3/4", "0", "1/4"), ("1/4", "0", "3/4"))
    # the same three posteriors, (3/4, 1/4), (1/4, 3/4) and (1/2, 1/2),
    # with outer probabilities 1/4, 1/4, 1/2 and 2/5, 2/5, 1/5
    heavy = chan(("3/8", "1/8", "1/2"), ("1/8", "3/8", "1/2"))
    light = chan(("3/5", "1/5", "1/5"), ("1/5", "3/5", "1/5"))
    assert two.den != split.den
    assert (sorted(q for _, q in canonicalize(heavy).columns)
            == sorted(q for _, q in canonicalize(light).columns))
    for a, b, want in ((two, split, True), (two, padded, True), (padded, split, True),
                       (heavy, light, False), (two, heavy, False)):
        assert equivalent(a, b) == equivalent(b, a) == want
        assert (canonicalize(a) == canonicalize(b)) == want


def test_float_equivalence_tolerance_path():
    s = build_shuffle_full(3, 2)
    noise_f = build_krr(3, 2, 0.75)
    ns_f = cascade(noise_f, s)
    sn_f = cascade(s, noise_f)
    assert equivalent(ns_f, sn_f)
    assert not equivalent(noise_f, s)


# ---------------------------------------------------------------------------
# DP ratio checks
# ---------------------------------------------------------------------------


def test_verify_ldp_krr_tight():
    eps = 1.2
    k = 3
    p = math.exp(eps) / (k - 1 + math.exp(eps))
    chan = build_krr(1, k, p)
    assert verify_ldp(chan, eps)
    assert not verify_ldp(chan, eps - 0.01)


def test_verify_ldp_identity_and_uniform():
    assert not verify_ldp(build_krr(1, 2, Fraction(1)), 50.0)
    assert verify_ldp(build_krr(1, 2, Fraction(1, 2)), 0.0)


@pytest.mark.parametrize("epsilon", [math.nan, math.inf, -0.5, 710.0, 1000.0])
def test_dp_checks_refuse_an_epsilon_without_a_finite_e_to_the_epsilon(epsilon):
    # NaN and inf once passed every channel, a negative epsilon was taken,
    # and epsilon >= ~710 raised OverflowError
    chan = build_krr(1, 2, Fraction(9, 10))
    with pytest.raises(ValueError, match="epsilon"):
        verify_ldp(chan, epsilon)
    with pytest.raises(ValueError, match="epsilon"):
        verify_dp_adjacent(chan, 1, 2, epsilon)


def test_verify_dp_adjacent_krr():
    eps = 1.0
    p = math.exp(eps) / (1 + math.exp(eps))
    chan = build_krr(3, 2, p)
    # per-record noise on n records is still eps-DP per adjacent change
    assert verify_dp_adjacent(chan, 3, 2, eps)
    assert not verify_dp_adjacent(chan, 3, 2, eps - 0.01)


def test_verify_dp_adjacent_requires_dataset_rows():
    with pytest.raises(ValueError, match="dataset enumeration"):
        verify_dp_adjacent(build_shuffle_reduced(2, 2), 2, 3, 1.0)


# ---------------------------------------------------------------------------
# the two introductory mechanisms
# ---------------------------------------------------------------------------


def test_last_record_reporter_rows():
    eps = 1.0
    chan = build_last_record_reporter(2, eps)
    q = Fraction(math.exp(eps)) / (1 + Fraction(math.exp(eps)))
    assert chan.entry("aa", "0") == q
    assert chan.entry("ab", "1") == q
    assert chan.entry("ba", "0") == q
    assert_rows_stochastic(chan)


def test_parity_masked_reporter_flips_on_odd_parity():
    eps = 1.0
    chan = build_parity_masked_reporter(3, eps)
    q = Fraction(math.exp(eps)) / (1 + Fraction(math.exp(eps)))
    assert chan.entry("aaa", "0") == q       # parity 0, last 0: truthful
    assert chan.entry("aba", "0") == 1 - q   # parity 1: inverted
    assert chan.entry("abb", "1") == 1 - q


def test_parity_masked_reporter_degenerates_at_n1():
    eps = 0.7
    a = build_last_record_reporter(1, eps)
    b = build_parity_masked_reporter(1, eps)
    assert a.rows == b.rows


@pytest.mark.parametrize("eps", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_both_intro_mechanisms_exactly_eps_dp(eps, n):
    for build in (build_last_record_reporter, build_parity_masked_reporter):
        chan = build(n, eps)
        assert verify_dp_adjacent(chan, n, 2, eps)
        assert not verify_dp_adjacent(chan, n, 2, eps - 0.01)


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------


def test_csv_exact_fractions():
    ns_reduced = cascade(build_krr(3, 2, P), build_shuffle_reduced(3, 2))
    text = ns_reduced.to_csv(exact=True)
    lines = text.splitlines()
    assert lines[0] == "secret,a0:b3,a1:b2,a2:b1,a3:b0"
    aab = next(line for line in lines if line.startswith("aab,"))
    assert "33/64" in aab.split(",")


def test_csv_float_mode():
    chan = build_shuffle_reduced(1, 2)
    assert chan.to_csv() == "secret,a0:b1,a1:b0\na,0.0,1.0\nb,1.0,0.0\n"


def test_csv_deterministic():
    chan = build_krr_reduced(4, 2, Fraction(9, 10))
    assert chan.to_csv(exact=True) == chan.to_csv(exact=True)


def test_csv_pinned_ns_channel():
    ns = cascade(build_krr(2, 2, Fraction(2, 3)), build_shuffle_full(2, 2))
    assert ns.to_csv(exact=True) == (
        "secret,aa,ab,ba,bb\n"
        "aa,4/9,2/9,2/9,1/9\n"
        "ab,2/9,5/18,5/18,2/9\n"
        "ba,2/9,5/18,5/18,2/9\n"
        "bb,1/9,2/9,2/9,4/9\n"
    )
    assert ns.to_csv() == (
        "secret,aa,ab,ba,bb\n"
        "aa,0.4444444444444444,0.2222222222222222,0.2222222222222222,"
        "0.1111111111111111\n"
        "ab,0.2222222222222222,0.2777777777777778,0.2777777777777778,"
        "0.2222222222222222\n"
        "ba,0.2222222222222222,0.2777777777777778,0.2777777777777778,"
        "0.2222222222222222\n"
        "bb,0.1111111111111111,0.2222222222222222,0.2222222222222222,"
        "0.4444444444444444\n"
    )


def reference_csv(chan, exact=False):
    """The CSV dump formatted entry by entry: the reference for
    ``Channel.to_csv``, which formats each distinct value once."""
    den = chan.den
    if den is None:
        fmt = repr
    else:

        def fmt(v):
            if not exact:
                return repr(v / den)
            g = math.gcd(v, den)
            return "%d" % (v // g) if g == den else "%d/%d" % (v // g, den // g)

    lines = ["secret," + ",".join(chan.col_labels)]
    for label, row in zip(chan.row_labels, chan.num):
        lines.append(label + "," + ",".join(map(fmt, row)))
    return "\n".join(lines) + "\n"


def builder_channels(n, k, p):
    """Every channel the CLI dumps, built at (n, k) with noise p, and the
    cascades the check suites build."""
    krr, shuffle = build_krr(n, k, p), build_shuffle_full(n, k)
    return [krr, build_krr_reduced(n, k, p), shuffle, build_shuffle_reduced(n, k),
            build_krr_shuffle(n, k, p), build_krr_shuffle(n, k, p, reduced=True),
            cascade(krr, shuffle), cascade(shuffle, krr),
            cascade(krr, build_shuffle_reduced(n, k))]


BUILDER_GRID = [(1, 2), (3, 2), (5, 2), (1, 3), (2, 3), (4, 3), (2, 4)]


@pytest.mark.parametrize("n,k", BUILDER_GRID + [(5, 3), (4, 4)])
def test_krr_shuffle_equals_its_cascades(n, k):
    # noise then shuffle, shuffle then noise and noise then the reduced
    # shuffle, each the product of two dataset-indexed channels
    shuffle, reduced_shuffle = build_shuffle_full(n, k), build_shuffle_reduced(n, k)
    classes = len(enumerate_histograms(n, k))
    for p in (Fraction(1, k), Fraction(35, 64), Fraction(1)):
        noise = build_krr(n, k, p)
        full, reduced = build_krr_shuffle(n, k, p), build_krr_shuffle(n, k, p, reduced=True)
        for got, want in ((full, cascade(noise, shuffle)), (full, cascade(shuffle, noise)),
                          (reduced, cascade(noise, reduced_shuffle))):
            assert got == want
            assert got.to_csv(exact=True) == want.to_csv(exact=True)
            assert len({id(row) for row in got.num}) == classes  # one row per histogram
        for got, want in ((build_krr_shuffle(n, k, float(p)), full),
                          (build_krr_shuffle(n, k, float(p), reduced=True), reduced)):
            assert (got.row_labels, got.col_labels) == (want.row_labels, want.col_labels)
            for frow, erow in zip(got.num, want.rows):
                assert all(isinstance(f, float) and abs(f - e) <= FLOAT_TOL
                           for f, e in zip(frow, erow))


def test_krr_shuffle_checks_its_parameters_and_the_cap():
    for reduced in (False, True):
        with pytest.raises(CapExceededError, match="exceeds the full-channel size cap 8"):
            build_krr_shuffle(4, 2, P, cap=8, reduced=reduced)
        build_krr_shuffle(3, 2, P, cap=8, reduced=reduced)
        with pytest.raises(ValueError, match="p must lie in"):
            build_krr_shuffle(3, 2, Fraction(1, 3), reduced=reduced)


@pytest.mark.parametrize("n,k", BUILDER_GRID)
def test_csv_equals_entrywise_reference(n, k):
    for p in (Fraction(1, k), Fraction(35, 64), Fraction(1)):
        for chan in builder_channels(n, k, p):
            assert chan.is_exact()
            for exact in (True, False):
                assert chan.to_csv(exact=exact) == reference_csv(chan, exact)
        for chan in builder_channels(n, k, float(p)):
            if chan.is_exact():  # the shuffle channels take no p
                continue
            for exact in (True, False):
                assert chan.to_csv(exact=exact) == reference_csv(chan, exact)
    for eps in (0.5, 2.0):
        for chan in (build_last_record_reporter(n + 1, eps, exact=False),
                     build_parity_masked_reporter(n + 1, eps, exact=False)):
            assert chan.to_csv() == reference_csv(chan)


@pytest.mark.parametrize("n,k", BUILDER_GRID + [(1, 27)])
def test_unchecked_channels_pass_validation(n, k):
    # builders and cascade store their rows unchecked: each result must
    # pass the validation that Channel(...) runs
    chans = [identity_channel(build_shuffle_reduced(n, k).col_labels)]
    if k > 26:  # "v0:v1" dataset and "v03:v10" histogram labels
        chans += [build_shuffle_reduced(2, k), build_krr_reduced(2, k, Fraction(1, 2))]
    for p in (Fraction(1, k), Fraction(35, 64), Fraction(1)):
        for q in (p, float(p)):
            chans += builder_channels(n, k, q)
            chans.append(cascade(build_shuffle_reduced(n, k), build_krr_reduced(n, k, q)))
    for eps in (0.0, 0.5, 700.0):
        for exact in (True, False):
            chans += [build_last_record_reporter(n, eps, exact),
                      build_parity_masked_reporter(n, eps, exact)]
    for chan in chans:
        chan.__post_init__()


def test_channels_are_validated_only_where_rows_come_from_outside(monkeypatch):
    checked = []
    monkeypatch.setattr(Channel, "__post_init__", lambda self: checked.append(self.shape))
    noise, shuffle = build_krr(2, 3, P), build_shuffle_reduced(2, 3)
    for chan in (cascade(noise, shuffle), build_shuffle_full(2, 3),
                 build_krr_reduced(2, 3, 0.6), build_last_record_reporter(2, 1.0),
                 build_parity_masked_reporter(2, 1.0, exact=False),
                 pickle.loads(pickle.dumps(noise))):
        assert chan.shape
    assert checked == []
    Channel(("x",), ("y", "z"), ((Fraction(1, 2), Fraction(1, 2)),))
    Channel(("x",), ("y", "z"), ((0.5, 0.5),))
    identity_channel(("x", "y", "z"))
    assert checked == [(1, 2), (1, 2), (3, 3)]


def test_identity_channel_rejects_duplicate_labels():
    with pytest.raises(ValueError, match="duplicate row labels"):
        identity_channel(("x", "y", "x"))


@pytest.mark.parametrize("epsilon", [math.inf, -math.inf, math.nan, 800.0, -3.0])
def test_reporters_reject_epsilon_as_epsilon_to_p_does(epsilon):
    with pytest.raises(ValueError) as want:
        epsilon_to_p(epsilon, 2)
    for build in (build_last_record_reporter, build_parity_masked_reporter):
        for exact in (True, False):
            with pytest.raises(ValueError) as got:
                build(2, epsilon, exact)
            assert str(got.value) == str(want.value)


def test_csv_float_negative_zero_prints_as_zero():
    # -0.0 is stored as 0.0, so both zeros print as 0.0
    chan = Channel(("a", "b"), ("x", "y"), ((-0.0, 1.0), (0.0, 1.0)))
    assert chan.to_csv() == "secret,x,y\na,0.0,1.0\nb,0.0,1.0\n"
    chan = Channel(("a", "b"), ("x", "y", "z"), ((0.0, 1.0, -0.0), (-0.0, 0.5, 0.5)))
    assert chan.to_csv() == reference_csv(chan) == (
        "secret,x,y,z\na,0.0,1.0,0.0\nb,0.0,0.5,0.5\n")


def test_csv_float_channel_with_fractions_prints_binary64():
    # a Fraction in a float channel is stored as binary64, so it prints as one
    chan = Channel(("a", "b"), ("x", "y"), ((Fraction(1, 2), 0.5), (Fraction(1, 2), 0.5)))
    assert not chan.is_exact()
    assert chan.to_csv(exact=True) == "secret,x,y\na,0.5,0.5\nb,0.5,0.5\n"
    assert chan.to_csv() == "secret,x,y\na,0.5,0.5\nb,0.5,0.5\n"


def all_binary64(values) -> bool:
    """Every value is a float, none of them -0.0."""
    return all(type(e) is float and math.copysign(1.0, e) == 1.0 for e in values)


def test_float_channel_stores_binary64_only():
    third = Fraction(1, 3)
    chan = Channel(("x", "y"), ("a", "b"), ((Fraction(1, 2), 0.5), (Fraction(1, 2), 0.5)))
    assert chan.num == ((0.5, 0.5), (0.5, 0.5))
    assert all(all_binary64(row) for row in chan.num)
    columns = canonicalize(chan).columns
    assert columns == ((1.0, (0.5, 0.5)),)
    assert all(all_binary64((outer, *posterior)) for outer, posterior in columns)
    mixed = Channel(("x", "y"), ("a", "b", "c"), ((third, 2 * third, -0.0), (0, True, 0.0)))
    assert mixed.num == ((float(third), float(2 * third), 0.0), (0.0, 1.0, 0.0))
    assert all(all_binary64(row) for row in mixed.num)
    row = (0.25, 0.75)
    assert Channel(("x", "y"), ("a", "b"), (row, [0.5, 0.5])).num[0] is row
    with pytest.raises(TypeError):
        Channel(("x",), ("a", "b"), (("0.5", 0.5),))


@pytest.mark.parametrize("n,k", [(1, 2), (3, 2), (5, 2), (1, 3), (2, 3), (4, 3), (3, 4)])
def test_builder_float_channels_hold_only_binary64(n, k):
    # the builders' float rows are stored as they are, unchecked
    for p in (1 / k, 35 / 64, 0.6, 1.0):
        if p < 1 / k:
            continue
        krr = build_krr(n, k, p)
        chans = [krr, build_krr_reduced(n, k, p),
                 build_krr_shuffle(n, k, p), build_krr_shuffle(n, k, p, reduced=True),
                 cascade(krr, build_shuffle_full(n, k)), cascade(build_shuffle_full(n, k), krr),
                 cascade(krr, build_shuffle_reduced(n, k)),
                 cascade(build_shuffle_reduced(n, k), build_krr_reduced(n, k, p))]
        for chan in chans:
            assert not chan.is_exact()
            assert all(all_binary64(row) for row in chan.num)
    for eps in (0.0, 0.5, 2.0, 700.0):
        for chan in (build_last_record_reporter(n, eps, exact=False),
                     build_parity_masked_reporter(n, eps, exact=False)):
            assert all(all_binary64(row) for row in chan.num)


def test_pickle_round_trip_keeps_kind_and_shared_rows():
    for chan in (build_shuffle_full(3, 2), build_krr(2, 3, 0.6)):
        copy = pickle.loads(pickle.dumps(chan))
        assert copy == chan and copy.is_exact() == chan.is_exact()
        assert len({id(row) for row in copy.num}) == len({id(row) for row in chan.num})


# ---------------------------------------------------------------------------
# exact representation: integer numerators over one reduced denominator
# ---------------------------------------------------------------------------


@st.composite
def rational_rows(draw, nrows, ncols):
    """Rows of Fractions; drawn from a small pool so that equal rows occur."""
    weights = st.lists(st.integers(0, 5), min_size=ncols, max_size=ncols).filter(any)
    pool = [draw(weights) for _ in range(draw(st.integers(1, nrows)))]
    rows = []
    for _ in range(nrows):
        w = draw(st.sampled_from(pool))
        rows.append(tuple(Fraction(v, sum(w)) for v in w))
    return tuple(rows)


@st.composite
def cascadable_pair(draw):
    m, inner, r = (draw(st.integers(1, 5)) for _ in range(3))
    xs = tuple("x%d" % i for i in range(m))
    ys = tuple("y%d" % i for i in range(inner))
    zs = tuple("z%d" % i for i in range(r))
    return (Channel(xs, ys, draw(rational_rows(m, inner))),
            Channel(ys, zs, draw(rational_rows(inner, r))))


@given(cascadable_pair())
@settings(max_examples=200, deadline=None)
def test_exact_cascade_equals_fraction_matrix_product(pair):
    first, second = pair
    literal = tuple(
        tuple(
            sum((a * brow[j] for a, brow in zip(arow, second.rows)), Fraction(0))
            for j in range(len(second.col_labels))
        )
        for arow in first.rows
    )
    product = cascade(first, second)
    assert product.is_exact()
    assert product.rows == literal
    assert product == Channel(first.row_labels, second.col_labels, literal)
    assert math.gcd(product.den, *(v for row in product.num for v in row)) == 1


def reference_float_cascade(first, second):
    """The float product in the order ``cascade`` sums it, spelled out:
    each factor as binary64 (an exact entry correctly rounded), equal
    rows of ``second`` grouped in first-appearance order, a group's
    weight the builtin ``sum`` of its members' entries of the row of
    ``first`` in row order, and each entry adding weight x entry group
    by group from 0.0, zero weights skipped."""

    def binary64(chan):
        return chan.num if chan.den is None else [[v / chan.den for v in row]
                                                  for row in chan.num]

    groups = {}
    for i, brow in enumerate(binary64(second)):
        groups.setdefault(tuple(brow), []).append(i)
    product = []
    for arow in binary64(first):
        acc = [0.0] * len(second.col_labels)
        for brow, members in groups.items():
            weight = sum(arow[i] for i in members)  # this interpreter's float sum
            if weight:
                for j, v in enumerate(brow):
                    acc[j] += weight * v
        product.append(acc)
    return product


def assert_float_cascade_bits(first, second):
    product = cascade(first, second)
    assert not product.is_exact()
    assert [list(map(float.hex, row)) for row in product.num] == [
        list(map(float.hex, row)) for row in reference_float_cascade(first, second)]


@pytest.mark.parametrize("n,k", BUILDER_GRID)
def test_float_cascade_bits_equal_reference_on_builders(n, k):
    for p in (1 / k, 35 / 64, 1.0):
        krr, shuffle = build_krr(n, k, p), build_shuffle_full(n, k)
        for first, second in ((krr, shuffle), (shuffle, krr), (krr, krr),
                              (krr, build_shuffle_reduced(n, k)),
                              (build_shuffle_reduced(n, k), build_krr_reduced(n, k, p))):
            assert_float_cascade_bits(first, second)


@given(cascadable_pair())
@settings(max_examples=200, deadline=None)
def test_float_cascade_bits_equal_reference(pair):
    exact_first, exact_second = pair
    first, second = (Channel(c.row_labels, c.col_labels, [list(map(float, row)) for row in c.rows])
                     for c in pair)
    for a, b in ((first, second), (first, exact_second), (exact_first, second)):
        assert_float_cascade_bits(a, b)


@pytest.mark.parametrize("n,k", BUILDER_GRID + [(1, 26), (3, 26), (1, 27), (2, 27)])
def test_dataset_labels_label_each_dataset(n, k):
    assert dataset_labels(n, k) == tuple(dataset_label(x, k) for x in enumerate_datasets(n, k))


def test_equal_values_by_different_routes_are_equal_with_equal_hashes():
    for n, k, p in [(3, 2, P), (3, 3, Fraction(1, 2)), (2, 4, Fraction(2, 5))]:
        noise = build_krr(n, k, p)
        sr = build_shuffle_reduced(n, k)
        left = cascade(noise, sr)
        right = cascade(sr, build_krr_reduced(n, k, p))
        assert left == right
        assert hash(left) == hash(right)
        assert len({left, right}) == 1
    chan = build_krr(2, 3, Fraction(1, 2))
    rebuilt = Channel(list(chan.row_labels), list(chan.col_labels), chan.rows)
    assert rebuilt == chan and hash(rebuilt) == hash(chan)
    assert chan != build_krr(2, 3, Fraction(2, 3))


def test_exactness_is_stored_not_scanned():
    exact = build_shuffle_reduced(2, 2)
    assert exact.is_exact() and exact.den == 1
    assert exact.rows[0] == (0, 0, 1)
    assert isinstance(cascade(build_krr(2, 2, P), exact).rows[0][0], Fraction)
    floating = build_krr(2, 2, 0.75)
    assert not floating.is_exact() and floating.den is None
    # Equal values in the two modes are still different channels.
    labels = ("x", "y")
    one = Channel(labels, labels, ((1, 0), (0, 1)))
    assert one != Channel(labels, labels, ((1.0, 0.0), (0.0, 1.0)))
    with pytest.raises(AttributeError):
        one.den = 2


def test_exact_channel_validation():
    with pytest.raises(ValueError, match="sums to 1/2"):
        Channel(("x",), ("y", "z"), ((Fraction(1, 4), Fraction(1, 4)),))
    with pytest.raises(ValueError, match="negative"):
        Channel(("x",), ("y", "z"), ((Fraction(3, 2), Fraction(-1, 2)),))
    with pytest.raises(ValueError, match="wrong width"):
        Channel(("x",), ("y", "z"), ((1,),))


# One probability-vector rule: a channel row, a prior and the outer
# probabilities of a canonical form, each built from the same vector.
VECTOR_OWNERS = {
    "row 'x'": lambda v: Channel(("x",), ("a", "b"), [v]),
    "prior": lambda v: Prior(("a", "b"), v),
    "outer distribution": lambda v: CanonicalChannel(("x",), tuple((o, (1,)) for o in v)),
}


@pytest.mark.parametrize("what", sorted(VECTOR_OWNERS))
@pytest.mark.parametrize("vector, message", [
    ((1.5, -0.5), "negative entry in {}"),
    ((Fraction(3, 2), Fraction(-1, 2)), "negative entry in {}"),
    ((math.nan, 1.0), "{} sums to nan, not a finite number"),
    ((0.5, math.inf), "{} sums to inf, not a finite number"),
    ((0.4, 0.5), "{} sums to 0.9, not 1"),
    ((Fraction(2, 5), Fraction(1, 2)), "{} sums to 9/10, not 1"),
])
def test_channel_rows_priors_and_canonical_forms_share_one_rule(what, vector, message):
    with pytest.raises(ValueError) as info:
        VECTOR_OWNERS[what](vector)
    assert str(info.value) == message.format(what)
    VECTOR_OWNERS[what]((0.5, 0.5 + FLOAT_TOL / 2))
    VECTOR_OWNERS[what]((Fraction(2, 5), Fraction(3, 5)))


@pytest.mark.parametrize("rows", [
    ((math.nan, 1.0),),
    ((1.0, math.nan),),
    ((0.5, 0.5), (math.inf, 1.0)),
    ((0.5, 0.5), (math.nan, -1.0)),
])
def test_float_channel_rejects_non_finite_entries(rows):
    labels = ("a", "b")[:len(rows)]
    bad = labels[-1]
    with pytest.raises(ValueError, match="row %r sums to (nan|inf), not a finite" % bad):
        Channel(labels, ("x", "y"), rows)


@pytest.mark.parametrize("n, k", [(1, 3), (2, 3), (3, 3), (2, 4)])
def test_krr_reduced_general_k_matches_full_aggregation(n, k):
    # every dataset of a histogram sends the same mass to each histogram
    p = Fraction(3, 5)
    reduced = build_krr_reduced(n, k, p)
    sums, den = literal_shuffled(literal_krr(n, k, p), n, k, reduced=True)
    hist_list = enumerate_histograms(n, k)
    for x, row in zip(enumerate_datasets(n, k), sums):
        z1 = histogram_of(x, k)
        want = reduced.rows[hist_list.index(z1)]
        assert tuple(Fraction(e, den) for e in row) == want
        assert tuple(krr_histogram_transition(z1, z2, p) for z2 in hist_list) == want


@pytest.mark.parametrize("n, k, ps", [
    (6, 3, None), (4, 4, None), (3, 5, None), (10, 2, None),
    (12, 3, (Fraction(35, 64), Fraction(3, 5))), (6, 4, (Fraction(35, 64), Fraction(3, 5))),
])
def test_krr_reduced_equals_transfer_table_reference(n, k, ps):
    # ps None: p = 1/k, 3/5 and 1
    hists = enumerate_histograms(n, k)
    for p in ps or (Fraction(1, k), Fraction(3, 5), Fraction(1)):
        chan = build_krr_reduced(n, k, p)
        assert chan.rows == tuple(
            tuple(krr_histogram_transition(z1, z2, p) for z2 in hists) for z1 in hists)
    exact = build_krr_reduced(n, k, Fraction(3, 5))
    approx = build_krr_reduced(n, k, 0.6)
    assert not approx.is_exact()
    for erow, frow in zip(exact.rows, approx.rows):
        assert all(isinstance(f, float) and abs(e - f) <= FLOAT_TOL
                   for e, f in zip(erow, frow))


def test_krr_reduced_float_mode_general_k():
    exact = build_krr_reduced(3, 3, Fraction(3, 5))
    approx = build_krr_reduced(3, 3, 0.6)
    assert not approx.is_exact()
    for erow, frow in zip(exact.rows, approx.rows):
        assert all(abs(e - f) <= 1e-12 for e, f in zip(erow, frow))


def reference_float_krr_reduced(n, k, p):
    """The float rows of the reduced noise channel, spelled out: row z is
    the row of z - e_v, v the first value z holds, times the weights of
    one record of value v, summed over the previous histograms in order."""
    keep, move = p, (1 - p) / (k - 1)
    hists, rows = [(0,) * k], [(1.0,)]
    for m in range(1, n + 1):
        level = enumerate_histograms(m, k)
        previous = dict(zip(hists, rows))
        new = []
        for z in level:
            v = next(v for v, c in enumerate(z) if c)
            acc = [0.0] * len(level)
            for h, c in zip(hists, previous[z[:v] + (z[v] - 1,) + z[v + 1:]]):
                if c:
                    for u in range(k):
                        j = level.index(h[:u] + (h[u] + 1,) + h[u + 1:])
                        acc[j] += c * (keep if u == v else move)
            new.append(tuple(acc))
        hists, rows = level, new
    return rows


@pytest.mark.parametrize("n, k", [(1, 2), (5, 2), (4, 3), (3, 4), (6, 3)])
def test_krr_reduced_float_bits_equal_reference(n, k):
    for p in (1 / k, 35 / 64, 0.6, 1.0):
        got = build_krr_reduced(n, k, p).num
        want = reference_float_krr_reduced(n, k, p)
        assert [list(map(float.hex, row)) for row in got] == \
            [list(map(float.hex, row)) for row in want]


# ---------------------------------------------------------------------------
# float channels run the exact channels' code: checked against it
# ---------------------------------------------------------------------------


def as_float(chan):
    return Channel(chan.row_labels, chan.col_labels,
                   [[float(e) for e in row] for row in chan.rows])


def split_column(chan, j):
    """The channel with column j split into two proportional halves."""
    rows = [row[:j] + (row[j] / 2, row[j] / 2) + row[j + 1:] for row in chan.rows]
    labels = chan.col_labels[:j] + ("half0", "half1") + chan.col_labels[j + 1:]
    return Channel(chan.row_labels, labels, rows)


@st.composite
def float_vs_exact_case(draw):
    first, second = draw(cascadable_pair())
    m = len(first.row_labels)
    other = Channel(first.row_labels, ("w0", "w1", "w2"), draw(rational_rows(m, 3)))
    gains = tuple(tuple(draw(st.integers(0, 3)) for _ in range(m))
                  for _ in range(draw(st.integers(1, 3))))
    return first, second, other, gains, draw(st.integers(0, len(first.col_labels) - 1))


@given(float_vs_exact_case())
@settings(max_examples=150, deadline=None)
def test_float_channels_agree_with_exact_within_tolerance(case):
    first, second, other, gains, j = case
    gain = GainFunction(tuple("g%d" % i for i in range(len(gains))),
                        first.row_labels, gains)
    product = cascade(first, second)
    float_product = cascade(as_float(first), as_float(second))
    assert not float_product.is_exact()
    for erow, frow in zip(product.rows, float_product.rows):
        assert all(isinstance(f, float) and abs(e - f) <= FLOAT_TOL
                   for e, f in zip(erow, frow))
    for chan in (first, product, other):
        uniform = Prior.uniform(chan.row_labels)
        want = posterior_vulnerability(uniform, gain, chan)
        floating = as_float(chan)
        got = posterior_vulnerability(Prior.uniform(chan.row_labels, exact=False),
                                      gain, floating)
        assert isinstance(got, float) and abs(got - want) <= FLOAT_TOL
        canonical = canonical_posterior_vulnerability(canonicalize(floating), gain)
        assert abs(canonical - want) <= FLOAT_TOL
    for a, b in ((first, split_column(first, j)), (first, other), (first, product)):
        assert equivalent(as_float(a), as_float(b)) == equivalent(a, b)
    assert equivalent(as_float(first), as_float(split_column(first, j)))


def test_float_canonical_form_keeps_small_entries_apart():
    # Two float 2 x 200000 channels whose entries all lie below 3e-5: one
    # with posteriors (3/4, 1/4) and (1/4, 3/4), V = 3/4; one with both
    # rows uniform, V = 1/2.
    half = 100_000
    hi, lo = 0.75 / half, 0.25 / half
    leaky = Channel(("a", "b"), ["y%d" % j for j in range(2 * half)],
                    ([hi] * half + [lo] * half, [lo] * half + [hi] * half))
    blind = Channel(("a", "b"), leaky.col_labels, ([0.5 / half] * (2 * half),) * 2)
    gain = single_target_gain(1, 2)
    uniform = Prior.uniform(("a", "b"), exact=False)
    assert not equivalent(leaky, blind)
    for chan, want, classes in ((leaky, 0.75, 2), (blind, 0.5, 1)):
        canon = canonicalize(chan)
        assert len(canon.columns) == classes
        direct = posterior_vulnerability(uniform, gain, chan)
        assert abs(direct - want) <= FLOAT_TOL
        assert abs(canonical_posterior_vulnerability(canon, gain) - direct) <= FLOAT_TOL


@pytest.mark.parametrize("p", [Fraction(33, 64), Fraction(35, 64),
                               Fraction(37, 64), Fraction(39, 64)])
def test_float_noise_shuffle_equivalent_to_reduced_k3_n3(p):
    # Two classes share the outer probability 1/9 here, so their order
    # in the canonical forms depends on rounding.
    noise = build_krr(3, 3, float(p))
    ns = cascade(noise, build_shuffle_full(3, 3))
    nsr = cascade(noise, build_shuffle_reduced(3, 3))
    assert equivalent(ns, nsr)
    assert equivalent(nsr, ns)


def reference_float_canonical(chan):
    """The float canonical form column by column: each column's sum, its
    posterior entry by entry, equal posteriors merged in a dict, then the
    lexicographic ``FLOAT_TOL`` merge."""
    merged = {}
    for col in zip(*chan.num):
        total = sum(col)
        if total:
            key = tuple(e / total for e in col)
            merged[key] = merged.get(key, 0.0) + total
    classes = []
    for key in sorted(merged):
        near = itertools.takewhile(lambda c: c[0][0] >= key[0] - FLOAT_TOL,
                                   reversed(classes))
        match = next((c for c in near
                      if all(abs(a - b) <= FLOAT_TOL for a, b in zip(c[0], key))), None)
        if match is None:
            classes.append([key, merged[key]])
        else:
            match[1] += merged[key]
    nrows = len(chan.row_labels)
    return CanonicalChannel(chan.row_labels,
                            tuple(sorted((mass / nrows, key) for key, mass in classes)))


@st.composite
def float_channel_columns(draw):
    """A float channel whose columns repeat, scale or nudge a few drawn
    columns, with zero columns among them; rows are scaled to sum to 1."""
    m = draw(st.integers(1, 4))
    entry = st.floats(0.0, 1.0)
    base = draw(st.lists(st.tuples(*[entry] * m), min_size=1, max_size=4))
    columns = [tuple(draw(st.floats(0.5, 1.0)) for _ in range(m))]
    for _ in range(draw(st.integers(1, 8))):
        col = draw(st.sampled_from(base))
        kind = draw(st.sampled_from(["same", "scaled", "nudged", "zero"]))
        if kind == "scaled":
            factor = draw(st.sampled_from([0.5, 3.0, 0.1, 7.0]))
            col = tuple(e * factor for e in col)
        elif kind == "nudged":
            col = tuple(e * (1 + draw(st.floats(-1e-10, 1e-10))) for e in col)
        elif kind == "zero":
            col = (0.0,) * m
        columns.append(col)
    order = draw(st.permutations(range(len(columns))))
    rows = [[columns[j][i] for j in order] for i in range(m)]
    rows = [[e / sum(row) for e in row] for row in rows]
    return Channel(tuple("x%d" % i for i in range(m)),
                   tuple("y%d" % j for j in range(len(columns))), rows)


@given(float_channel_columns())
@example(Channel(("a", "b"), ("y0", "y1", "y2", "y3"),
                 ((0.25, 0.25 + 2.5e-12, 0.0, 0.5 - 2.5e-12), (0.25, 0.25, 0.0, 0.5))))
@example(Channel(("a",), ("y0", "y1", "y2"), ((0.5, 0.0, 0.5),)))
@settings(max_examples=300, deadline=None)
def test_float_canonical_form_equals_column_by_column_reference(chan):
    assert not chan.is_exact()
    assert canonicalize(chan) == reference_float_canonical(chan)


def test_import_leaves_numpy_out():
    src = str(Path(rrshuffle.__file__).resolve().parents[1])
    code = "import sys, rrshuffle; sys.exit('numpy' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
