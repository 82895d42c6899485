import contextlib
import io
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rrshuffle import cli, closed_forms
from rrshuffle.cli import main
from rrshuffle.closed_forms import posterior_for
from rrshuffle.scalars import FLOAT_TOL, format_scalar, parse_scalar


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def record(out):
    return dict(line.split(": ", 1) for line in out.strip().splitlines())


# ---------------------------------------------------------------------------
# vuln
# ---------------------------------------------------------------------------


def test_vuln_ns_anchor(capsys):
    code, out, _ = run(capsys, "vuln", "--mech", "krr-shuffle",
                       "--n", "200", "--k", "2", "--p", "0.9")
    assert code == 0
    fields = record(out)
    assert float(fields["posterior_v"]) == pytest.approx(0.5225, abs=5e-4)
    assert fields["mechanism"] == "krr-shuffle"


def test_vuln_shuffle_single_record(capsys):
    code, out, _ = run(capsys, "vuln", "--mech", "shuffle", "--n", "1", "--k", "2")
    assert code == 0
    assert float(record(out)["posterior_v"]) == 1.0


@pytest.mark.parametrize("flags", [("--p", "0.3"), ("--k", "3", "--p", "0.5"),
                                   ("--p", "3/4", "--exact"), ("--epsilon", "1")])
def test_vuln_shuffle_rejects_p_and_epsilon(capsys, flags):
    # the shuffle's value does not depend on p, so a p is a usage error
    code, out, err = run(capsys, "vuln", "--mech", "shuffle", "--n", "5", *flags)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "'shuffle'" in err


def test_vuln_oracle_exact(capsys):
    code, out, _ = run(capsys, "vuln", "--mech", "krr-shuffle", "--n", "3",
                       "--k", "2", "--p", "0.75", "--method", "oracle", "--exact")
    assert code == 0
    fields = record(out)
    assert fields["posterior_v"] == "5/8"
    assert fields["prior_v"] == "1/2"
    assert fields["mult_leakage"] == "5/4"
    assert fields["add_leakage"] == "1/8"


def test_vuln_epsilon_input(capsys):
    code, out, _ = run(capsys, "vuln", "--mech", "krr", "--n", "5", "--k", "2",
                       "--epsilon", "1.0986122886681098")
    assert code == 0
    assert float(record(out)["posterior_v"]) == pytest.approx(0.75, abs=1e-9)


@pytest.mark.parametrize("epsilon", ["0", "0.5", "1"])
@pytest.mark.parametrize("k", ["2", "3", "5"])
@pytest.mark.parametrize("exact", [(), ("--exact",)])
def test_vuln_prints_the_epsilon_it_was_given(capsys, epsilon, k, exact):
    # epsilon read back from p printed -1.1102230246251565e-16 for 0 at k = 3
    code, out, err = run(capsys, "vuln", "--mech", "krr-shuffle", "--k", k, "--n", "4",
                         "--epsilon", epsilon, *exact)
    assert (code, err) == (0, "")
    assert record(out)["epsilon"] == repr(float(epsilon))


@pytest.mark.parametrize("k", [2, 3, 5])
@pytest.mark.parametrize("flags", [("--epsilon", "0"), ("--p", "1/{k}")])
def test_float_oracle_accepts_p_at_one_over_k(capsys, k, flags):
    # binary64 1/3 lies just below 1/3; the oracle got that rational and refused it
    flags = [flag.format(k=k) for flag in flags]
    values = {}
    for method in ("oracle", "closed"):
        code, out, err = run(capsys, "vuln", "--mech", "krr-shuffle", "--k", str(k),
                             "--n", "4", *flags, "--method", method)
        assert (code, err) == (0, "")
        values[method] = float(record(out)["posterior_v"])
    assert abs(values["oracle"] - values["closed"]) <= FLOAT_TOL


@pytest.mark.parametrize("k, n", [(2, 5), (3, 4)])
@pytest.mark.parametrize("mech", [("shuffle",), ("krr-shuffle", "--p", "3/5"),
                                  ("krr", "--p", "3/5")])
def test_closed_sum_and_oracle_print_one_value(capsys, k, n, mech):
    lines = set()
    for method in ("closed", "sum", "oracle"):
        code, out, err = run(capsys, "vuln", "--mech", *mech, "--k", str(k), "--n", str(n),
                             "--exact", "--method", method)
        assert (code, err) == (0, "")
        lines.add(record(out)["posterior_v"])
    assert len(lines) == 1


@pytest.mark.parametrize("k, n, mech", [
    (2, 3000, ("shuffle",)),  # against the binary mode form
    (2, 3000, ("krr-shuffle", "--p", "4/5")),
    (5, 200, ("krr-shuffle", "--p", "3/5")),  # against the recursion
    (3, 1001, ("shuffle",)),  # against the recursion and the one-bin tails
    (4, 200, ("shuffle",)),
])
def test_partition_sum_prints_the_closed_exact_value(capsys, k, n, mech):
    lines = set()
    for method in ("closed", "sum"):
        code, out, err = run(capsys, "vuln", "--mech", *mech, "--k", str(k), "--n", str(n),
                             "--exact", "--method", method)
        assert (code, err) == (0, "")
        lines.add(record(out)["posterior_v"])
    assert len(lines) == 1


def test_vuln_requires_p(capsys):
    code, _, err = run(capsys, "vuln", "--mech", "krr", "--n", "2")
    assert code == 1
    assert "--p or --epsilon" in err


def test_vuln_rejects_both_p_and_epsilon(capsys):
    code, _, err = run(capsys, "vuln", "--mech", "krr", "--n", "2",
                       "--p", "0.9", "--epsilon", "1.0")
    assert code == 1


def test_vuln_rejects_bad_p(capsys):
    code, _, err = run(capsys, "vuln", "--mech", "krr", "--n", "2", "--k", "4",
                       "--p", "0.1")
    assert code == 1
    assert "must lie in" in err


@pytest.mark.parametrize("p, exact, shown", [
    ("0.33333333333", True, "33333333333/100000000000"),
    ("1/5", True, "1/5"),
    ("0.3", False, "0.3"),
    ("2", False, "2.0"),
])
def test_an_out_of_range_p_is_printed_as_given(capsys, p, exact, shown):
    # an exact p as a fraction, a float p by its repr
    code, out, err = run(capsys, "vuln", "--mech", "krr-shuffle", "--k", "3", "--n", "5",
                         "--p", p, *(["--exact"] if exact else []))
    assert (code, out) == (1, "")
    assert err == "error: p must lie in [1/3, 1] (got %s)\n" % shown


def test_vuln_rejects_zero_denominator_p(capsys):
    code, out, err = run(capsys, "vuln", "--mech", "krr-shuffle", "--n", "5",
                         "--k", "3", "--p", "1/0")
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "Traceback" not in err


def test_vuln_rejects_overflowing_epsilon(capsys):
    code, out, err = run(capsys, "vuln", "--mech", "krr-shuffle", "--n", "5",
                         "--k", "3", "--epsilon", "1000")
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "Traceback" not in err


def test_vuln_oracle_bound_exit_code(capsys):
    code, _, err = run(capsys, "vuln", "--mech", "shuffle", "--n", "12",
                       "--k", "2", "--method", "oracle")
    assert code == 2
    assert "desk-scale" in err


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def test_sweep_csv_shape_and_order(capsys):
    code, out, _ = run(capsys, "sweep", "--mech", "krr-shuffle", "--mech", "krr",
                       "--n-start", "1", "--n-end", "3", "--k", "2",
                       "--p", "0.9", "--p", "0.6")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "mechanism,n,k,p,method,posterior_v"
    assert len(lines) == 1 + 2 * 3 * 2
    # sorted by (mechanism, n, p)
    keys = [tuple(line.split(",")[:4]) for line in lines[1:]]
    assert keys == sorted(keys)
    first = lines[1].split(",")
    assert first[0] == "krr" and first[1] == "1" and first[3] == "0.6"


def test_sweep_shuffle_has_blank_p(capsys):
    code, out, _ = run(capsys, "sweep", "--mech", "shuffle",
                       "--n-start", "2", "--n-end", "4", "--n-step", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3
    assert lines[1].split(",")[3] == ""
    assert float(lines[1].split(",")[5]) == 0.75


def test_sweep_reversed_range_is_usage_error(capsys):
    code, out, err = run(capsys, "sweep", "--mech", "shuffle",
                         "--n-start", "5", "--n-end", "4")
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "--n-start" in err


def test_consecutive_sweeps_print_only_their_own_rows(capsys):
    # the parser is built once per process; repeated flags must not
    # carry over from one call to the next
    code, out, _ = run(capsys, "sweep", "--mech", "krr", "--mech", "krr-shuffle",
                       "--n-start", "2", "--n-end", "2", "--p", "0.9", "--p", "0.6")
    assert code == 0
    first = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert {(row[0], row[3]) for row in first} == {
        ("krr", "0.9"), ("krr", "0.6"), ("krr-shuffle", "0.9"), ("krr-shuffle", "0.6")}
    code, out, _ = run(capsys, "sweep", "--mech", "krr",
                       "--n-start", "2", "--n-end", "2", "--p", "0.7", "--p", "0.8")
    assert code == 0
    second = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert [(row[0], row[3]) for row in second] == [("krr", "0.7"), ("krr", "0.8")]


def test_sweep_deterministic_output(capsys, tmp_path):
    args = ["sweep", "--mech", "krr-shuffle", "--n-start", "1", "--n-end", "6",
            "--p", "0.75", "--exact"]
    path_a, path_b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(path_a)]) == 0
    assert main(args + ["--out", str(path_b)]) == 0
    assert path_a.read_bytes() == path_b.read_bytes()


@pytest.mark.parametrize("exact", [[], ["--exact"]])
@pytest.mark.parametrize("command", [
    ["sweep", "--mech", "krr", "--mech", "krr-shuffle", "--n-start", "1", "--n-end", "2"],
    ["abo", "--n", "3", "--sweep-known"],
])
def test_sweeps_use_each_distinct_p_once(capsys, command, exact):
    # a repeated p, or one p written two ways, gives the rows of one p
    _, single, _ = run(capsys, *command, *exact, "--p", "0.6")
    for repeated in (["--p", "0.6", "--p", "0.6"], ["--p", "0.6", "--p", "3/5"]):
        code, out, _ = run(capsys, *command, *exact, *repeated)
        assert code == 0
        assert out == single
    code, out, _ = run(capsys, *command, *exact, "--p", "3/5", "--p", "0.9", "--p", "0.6")
    assert code == 0
    assert len(out.splitlines()) == 2 * len(single.splitlines()) - 1


def test_sweep_k3_anchor(capsys):
    code, out, _ = run(capsys, "sweep", "--mech", "shuffle",
                       "--n-start", "100", "--n-end", "100", "--k", "3")
    assert code == 0
    value = float(out.strip().splitlines()[1].split(",")[5])
    assert value == pytest.approx(0.3826, abs=5e-4)


def test_sweep_approx_method(capsys):
    code, out, _ = run(capsys, "sweep", "--mech", "shuffle",
                       "--n-start", "100", "--n-end", "100", "--k", "4",
                       "--method", "approx")
    assert code == 0
    assert float(out.strip().splitlines()[1].split(",")[5]) > 0.25


def test_sweep_approx_names_the_n_outside_its_regime(capsys):
    # n >= k ln k fails only at n = 1 for k = 2; the estimate there exceeds 1
    code, out, err = run(capsys, "sweep", "--mech", "shuffle", "--k", "2",
                         "--n-start", "1", "--n-end", "3", "--method", "approx")
    assert code == 0
    assert float(out.splitlines()[1].split(",")[5]) > 1
    assert err == "warning: --method approx is outside its regime n >= k ln k at n = 1\n"
    code, _, err = run(capsys, "sweep", "--mech", "shuffle", "--k", "10",
                       "--n-start", "1", "--n-end", "40", "--method", "approx")
    assert code == 0
    assert err.count("\n") == 1 and err.endswith("at n = 1, 2, ..., 23\n")
    code, _, err = run(capsys, "vuln", "--mech", "krr-shuffle", "--k", "3", "--n", "3",
                       "--p", "0.6", "--method", "approx")
    assert code == 0 and err.endswith("at n = 3\n")
    code, _, err = run(capsys, "sweep", "--mech", "shuffle", "--k", "2",
                       "--n-start", "2", "--n-end", "3", "--method", "approx")
    assert code == 0 and err == ""


@pytest.mark.parametrize("flags", [("--p", "0.1"), ("--p", "0.6"), ("--epsilon", "1"),
                                   ("--p", "3/4", "--exact")])
def test_sweep_of_shuffle_alone_rejects_p_and_epsilon(capsys, flags):
    # the shuffle's value does not depend on p, so a p is a usage error
    code, out, err = run(capsys, "sweep", "--mech", "shuffle", "--k", "3",
                         "--n-start", "1", "--n-end", "3", *flags)
    assert code == 1
    assert out == ""
    assert err == "error: --p and --epsilon do not apply to mechanism 'shuffle'\n"


@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize("method", ["closed", "sum", "approx"])
@pytest.mark.parametrize("k", [2, 3, 5])
def test_sweep_rows_equal_posterior_for_at_each_point(capsys, k, method, exact):
    # n crosses 64, where a float sweep's shuffle value turns from exact to
    # binary64; at k > 2 and n = 60, 65 and 70 a closed or partition-sum row of
    # shuffling, alone or after noise at p = 3/5, is what the vuln command prints
    mechs = ["shuffle", "krr-shuffle"] + (["krr"] if method != "approx" else [])
    exact_flag = ["--exact"] if exact else []
    argv = ["sweep", "--k", str(k), "--n-start", "60", "--n-end", "70",
            "--method", method, "--p", "0.6", "--p", "3/4", "--p", "0.9"]
    for mech in mechs:
        argv += ["--mech", mech]
    code, out, _ = run(capsys, *argv, *exact_flag)
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert len(rows) == 11 * (1 + 3 * (len(mechs) - 1))
    for mech, n, _, p_text, _, value in rows:
        p = parse_scalar(p_text, exact) if p_text else None
        expected = posterior_for(mech, int(n), k, p, method, exact or None)
        assert value == format_scalar(expected, exact), (mech, n, p)
        if (k > 2 and method != "approx" and mech != "krr" and p_text in ("", "0.6")
                and int(n) % 5 == 0):
            flags = ["--p", "3/5"] if p_text else []
            code, out, _ = run(capsys, "vuln", "--mech", mech, "--k", str(k), "--n", n,
                               *flags, "--method", method, *exact_flag)
            assert code == 0
            assert record(out)["posterior_v"] == value, (mech, n)


@pytest.mark.parametrize("p", ["33/64", "3/5", "1"])
def test_binary_exact_sweep_closed_equals_sum_up_to_n_200(capsys, p):
    # the single-binomial mode form against the partition sum, row for row
    rows = {}
    for method in ("closed", "sum"):
        code, out, _ = run(capsys, "sweep", "--k", "2", "--n-start", "1", "--n-end", "200",
                           "--mech", "shuffle", "--mech", "krr-shuffle", "--p", p,
                           "--method", method, "--exact")
        assert code == 0
        rows[method] = [line.replace(",%s," % method, ",-,")
                        for line in out.splitlines()[1:]]
    assert len(rows["closed"]) == 400
    assert rows["closed"] == rows["sum"]


@pytest.mark.parametrize("method, k, exact, counted", [
    ("closed", 3, False, "v_post_shuffle_general"),
    ("closed", 3, True, "v_post_shuffle_general"),
    ("closed", 2, False, "count_mode_probability"),
    ("sum", 3, False, "partition_terms"),
    ("sum", 2, True, "partition_terms"),
])
def test_sweep_computes_each_p_free_part_once_per_n_and_mode(capsys, monkeypatch,
                                                             method, k, exact, counted):
    calls = []
    real = getattr(closed_forms, counted)

    def counting(*args, **kwargs):
        n = args[0] + 1 if counted == "count_mode_probability" else args[0]
        calls.append((n, kwargs.get("exact")))
        return real(*args, **kwargs)

    monkeypatch.setattr(closed_forms, counted, counting)
    ns = range(60, 71, 2)
    code, _, _ = run(capsys, "sweep", "--mech", "krr-shuffle", "--mech", "shuffle",
                     "--k", str(k), "--n-start", "60", "--n-end", "70", "--n-step", "2",
                     "--method", method, "--p", "0.6", "--p", "3/4", "--p", "0.9",
                     *(["--exact"] if exact else []))
    assert code == 0
    if counted == "v_post_shuffle_general":
        # shuffling alone is exact at n <= 64 even in a float sweep, noise
        # then shuffle is not, and one V_S is never rounded into the other
        expected = {(n, mode) for n in ns for mode in (exact, exact or n <= 64)}
    else:
        expected = {(n, None) for n in ns}
    assert sorted(calls) == sorted(expected)


# ---------------------------------------------------------------------------
# abo
# ---------------------------------------------------------------------------


def test_abo_single_value(capsys):
    code, out, _ = run(capsys, "abo", "--n", "201", "--p", "0.8", "--known-a", "0")
    assert code == 0
    assert float(record(out)["abo_posterior_v"]) == pytest.approx(0.52111, abs=1e-4)


def test_abo_pure_shuffle(capsys):
    code, out, _ = run(capsys, "abo", "--n", "201", "--p", "1.0",
                       "--known-a", "50", "--exact")
    assert code == 0
    assert record(out)["abo_posterior_v"] == "1"


def test_abo_single_unknown_record(capsys):
    code, out, _ = run(capsys, "abo", "--n", "1", "--p", "0.8", "--known-a", "0")
    assert code == 0
    assert float(record(out)["abo_posterior_v"]) == pytest.approx(0.8)


def test_abo_sweep_csv(capsys):
    code, out, _ = run(capsys, "abo", "--n", "11", "--p", "0.8", "--p", "0.9",
                       "--sweep-known")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "known_a_fraction,p,abo_posterior_v"
    assert len(lines) == 1 + 2 * 11
    assert lines[1].split(",")[0] == "0.0"
    assert lines[11].split(",")[0] == "1.0"


def test_abo_float_n1200_agrees_with_exact(capsys):
    argv = ("abo", "--n", "1200", "--known-a", "600", "--p")
    code, out, err = run(capsys, *argv, "0.8")
    assert code == 0 and err == ""
    floating = float(record(out)["abo_posterior_v"])
    code, out, _ = run(capsys, *argv, "4/5", "--exact")
    assert code == 0
    assert abs(floating - Fraction(record(out)["abo_posterior_v"])) <= FLOAT_TOL


def test_overflow_exits_2_with_exact_hint(capsys, monkeypatch):
    def overflow(scenario):
        raise OverflowError("int too large to convert to float")

    monkeypatch.setattr(cli, "abo_posterior", overflow)
    code, out, err = run(capsys, "abo", "--n", "5", "--known-a", "2", "--p", "0.8")
    assert code == 2
    assert out == ""
    assert err.startswith("error: binary64 overflow") and "--exact" in err


# ---------------------------------------------------------------------------
# channel
# ---------------------------------------------------------------------------


def test_channel_ns_reduced_exact(capsys):
    code, out, _ = run(capsys, "channel", "--kind", "ns-reduced", "--n", "3",
                       "--k", "2", "--p", "0.75", "--exact")
    assert code == 0
    lines = out.strip().splitlines()
    header = lines[0].split(",")
    col = header.index("a2:b1")
    row = next(l for l in lines if l.startswith("aab,")).split(",")
    assert row[col] == "33/64"


def test_channel_shuffle_reduced_identity(capsys):
    code, out, _ = run(capsys, "channel", "--kind", "shuffle-reduced",
                       "--n", "1", "--k", "2", "--exact")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[1] == "a,0,1"
    assert lines[2] == "b,1,0"


def test_channel_krr_rows_stochastic(capsys):
    code, out, _ = run(capsys, "channel", "--kind", "krr", "--n", "2", "--k", "3",
                       "--p", "0.5", "--exact")
    assert code == 0
    for line in out.strip().splitlines()[1:]:
        total = sum(Fraction(cell) for cell in line.split(",")[1:])
        assert total == 1


def test_channel_full_cascades_agree(capsys):
    code_ns, out_ns, _ = run(capsys, "channel", "--kind", "ns", "--n", "2",
                             "--k", "2", "--p", "0.75", "--exact")
    code_sn, out_sn, _ = run(capsys, "channel", "--kind", "sn", "--n", "2",
                             "--k", "2", "--p", "0.75", "--exact")
    assert code_ns == code_sn == 0
    assert out_ns == out_sn


KINDS = ["krr", "krr-reduced", "shuffle", "shuffle-reduced", "ns", "sn", "ns-reduced"]


# The sizes of the benchmark's channel dumps.
DUMP_SIZES = [(2, n) for n in range(1, 6)] + [(3, n) for n in range(1, 5)]


@pytest.mark.parametrize("kind", KINDS)
def test_float_channel_dump_is_the_exact_dump_within_1e_9(capsys, kind):
    # noise and shuffling composed are built from the reduced noise
    # channel, not as a product: every dump size is checked for them
    flags = [] if kind.startswith("shuffle") else ["--p", "35/64"]
    sizes = DUMP_SIZES if kind in ("ns", "sn", "ns-reduced") else [(3, 4)]
    for k, n in sizes:
        dumps = []
        for exact in ([], ["--exact"]):
            code, out, err = run(capsys, "channel", "--kind", kind, "--k", str(k),
                                 "--n", str(n), *flags, *exact)
            assert (code, err) == (0, "")
            dumps.append([line.split(",") for line in out.splitlines()])
        floating, exact = dumps
        assert floating[0] == exact[0]
        assert [row[0] for row in floating] == [row[0] for row in exact]
        for frow, erow in zip(floating[1:], exact[1:]):
            assert len(frow) == len(erow)
            assert all(abs(Fraction(f) - Fraction(e)) <= 1e-9
                       for f, e in zip(frow[1:], erow[1:]))


def test_channel_requires_p(capsys):
    code, _, err = run(capsys, "channel", "--kind", "krr", "--n", "2")
    assert code == 1
    assert err == "error: --p or --epsilon is required for kind 'krr'\n"


@pytest.mark.parametrize("argv, what", [
    (["vuln", "--mech", "krr-shuffle", "--n", "3"], "mechanism 'krr-shuffle'"),
    (["sweep", "--mech", "shuffle", "--mech", "krr", "--n-start", "1", "--n-end", "2"],
     "mechanism 'krr'"),
    (["sweep", "--mech", "krr-shuffle", "--n-start", "1", "--n-end", "2"],
     "mechanism 'krr-shuffle'"),
    (["abo", "--n", "5", "--known-a", "2"], "abo"),
    (["abo", "--n", "5", "--sweep-known"], "abo"),
])
def test_every_command_names_what_needs_p(capsys, argv, what):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == "error: --p or --epsilon is required for %s\n" % what


@pytest.mark.parametrize("kind", ["shuffle", "shuffle-reduced"])
@pytest.mark.parametrize("flags", [("--p", "0.6"), ("--epsilon", "1")])
def test_channel_shuffle_rejects_p_and_epsilon(capsys, kind, flags):
    # the shuffle channel does not depend on p, so a p is a usage error
    code, out, err = run(capsys, "channel", "--kind", kind, "--n", "2", *flags)
    assert code == 1
    assert out == ""
    assert err == "error: --p and --epsilon do not apply to kind %r\n" % kind


@pytest.mark.parametrize("kind, flags", [("krr", ("--p", "0.9")), ("shuffle", ()),
                                         ("krr-reduced", ("--p", "0.9"))])
@pytest.mark.parametrize("cap", ["0", "-5"])
def test_channel_cap_below_one_is_usage_error(capsys, kind, flags, cap):
    code, out, err = run(capsys, "channel", "--kind", kind, "--n", "2", *flags,
                         "--cap", cap)
    assert (code, out) == (1, "")
    assert err == "error: --cap must be at least 1\n"


@pytest.mark.parametrize("kind", ["krr", "ns", "sn", "ns-reduced"])
def test_channel_cap_exit_code(capsys, kind):
    code, _, err = run(capsys, "channel", "--kind", kind, "--n", "25", "--k", "2",
                       "--p", "0.9", "--cap", "1024")
    assert code == 2
    assert err == ("error: k**n = 33554432 exceeds the full-channel size cap 1024; "
                   "raise the cap (--cap) to build this channel\n")


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


# Each suite's grid runs once in Tier-1: the acceptance criteria run the
# oracle, equivalence, commute and dpi grids at their defaults, so those
# go through the CLI at a small max-n only
@pytest.mark.parametrize("suite, max_n", [
    ("oracle", "1"), ("equivalence", "1"), ("commute", "3"), ("dpi", "1"),
    ("fastform", "400"),  # the single-binomial forms against the sums up to n = 400
    ("brown", None),  # its own default, n <= 30
])
def test_check_suite_passes(capsys, suite, max_n):
    code, out, err = run(capsys, "check", "--suite", suite,
                         *(() if max_n is None else ("--max-n", max_n)))
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert all(line.startswith("PASS ") for line in lines[:-1])
    assert lines[-1] == "%d checks, 0 failed" % (len(lines) - 1)
    if suite == "commute":
        assert "PASS reduced shuffle into full noise is rejected" in lines


@pytest.mark.parametrize("suite, max_n", [("oracle", "0"), ("fastform", "-5"),
                                          ("dpi", "0")])
def test_check_max_n_below_one_is_usage_error(capsys, suite, max_n):
    code, out, err = run(capsys, "check", "--suite", suite, "--max-n", max_n)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "--max-n" in err


def test_check_unknown_suite_usage_error(capsys):
    code, _, err = run(capsys, "check", "--suite", "nonsense")
    assert code == 1


@pytest.mark.parametrize("epsilon", ["inf", "nan", "1e999"])
def test_vuln_rejects_non_finite_epsilon(capsys, epsilon):
    code, out, err = run(capsys, "vuln", "--mech", "krr-shuffle", "--n", "5",
                         "--k", "3", "--epsilon", epsilon)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "epsilon" in err and "Traceback" not in err


@pytest.mark.parametrize("k", [3, 5, 6])
def test_exact_epsilon_zero_is_uniform_noise(capsys, k):
    code, out, err = run(capsys, "vuln", "--mech", "krr-shuffle", "--k", str(k),
                         "--n", "4", "--epsilon", "0", "--exact")
    assert (code, err) == (0, "")
    fields = record(out)
    assert fields["p"] == fields["posterior_v"] == str(Fraction(1, k))
    assert fields["add_leakage"] == "0"
    code, out, err = run(capsys, "sweep", "--mech", "krr-shuffle", "--k", str(k),
                         "--n-start", "2", "--n-end", "4", "--epsilon", "0", "--exact")
    assert (code, err) == (0, "")
    assert [row.split(",")[-1] for row in out.strip().splitlines()[1:]] == [
        str(Fraction(1, k))
    ] * 3


def test_float_epsilon_p_is_rounded_once(capsys):
    # k - 1 + e^eps rounded before the division gave 0.3521874283517515
    code, out, err = run(capsys, "sweep", "--mech", "krr", "--k", "6",
                         "--n-start", "1", "--n-end", "1", "--epsilon", "1")
    assert (code, err) == (0, "")
    assert out.splitlines()[1].split(",")[3] == "0.35218742835175143"


def test_exact_epsilon_reads_binary64_e_to_the_epsilon(capsys):
    e = Fraction(math.exp(1.0))
    for k in (2, 3, 5):
        code, out, _ = run(capsys, "vuln", "--mech", "krr", "--k", str(k), "--n", "3",
                           "--epsilon", "1", "--exact")
        assert code == 0
        assert Fraction(record(out)["p"]) == e / (k - 1 + e)


@pytest.mark.parametrize("argv", [
    ["vuln", "--mech", "krr-shuffle", "--n", "5"],
    ["channel", "--kind", "krr", "--n", "2"],
    ["abo", "--n", "5", "--known-a", "2"],
])
@pytest.mark.parametrize("flags", [("--p", "0.6", "--p", "0.9"),
                                   ("--epsilon", "1", "--epsilon", "2")])
def test_single_p_commands_refuse_a_second_value(capsys, argv, flags):
    code, out, err = run(capsys, *argv, *flags)
    assert (code, out) == (1, "")
    assert err == "error: a single p is required unless sweeping\n"


@pytest.mark.parametrize("argv", [
    ["vuln", "--mech", "krr-shuffle", "--n", "3", "--p", "0.5"],
    ["sweep", "--mech", "shuffle", "--n-start", "2", "--n-end", "3"],
    ["abo", "--n", "5", "--known-a", "2", "--p", "0.8"],
    ["channel", "--kind", "krr", "--n", "2", "--p", "0.75"],
])
def test_unwritable_out_is_an_error_not_a_traceback(capsys, tmp_path, argv):
    for target in (tmp_path / "missing" / "x.csv", tmp_path):
        code, out, err = run(capsys, *argv, "--out", str(target))
        assert code == 1
        assert out == ""
        assert err.startswith("error: cannot write %s: " % target)
        assert "Traceback" not in err


def test_check_takes_neither_exact_nor_cap(capsys):
    for flag in (["--exact"], ["--cap", "1024"]):
        code, _, err = run(capsys, "check", "--suite", "fastform", "--max-n", "2", *flag)
        assert code == 1
        assert "unrecognized arguments" in err


# ---------------------------------------------------------------------------
# no argv produces a traceback
# ---------------------------------------------------------------------------

# Each flag's values: (well-formed, hostile).
SIZES = (["1", "2", "3"], ["-2", "0", "x", "1.5", "inf"])
FLAG_VALUES = {
    "--n": SIZES,
    "--k": SIZES,
    "--n-start": SIZES,
    "--n-end": SIZES,
    "--known-a": (["0", "1"], ["-1", "5", "x"]),
    "--max-n": (["1", "2"], ["-1", "0"]),
    "--n-step": (["1", "2"], ["-1", "0", "99999999999999999999"]),
    "--cap": (["1024"], ["-1", "0", "8", "99999999999999999999"]),
    "--p": (["0.75", "3/4", "1", "0.6"],
            ["0.5", "0", "-0.5", "2", "1/0", "inf", "nan", "1e308", "1e-308", "x"]),
    "--epsilon": (["0", "1", "2.5"], ["-1", "inf", "nan", "1000", "1e308", "1e999", "x"]),
    "--mech": (["krr", "shuffle", "krr-shuffle"], ["laplace"]),
    "--method": (["closed", "sum", "oracle", "approx"], ["magic"]),
    "--kind": (KINDS, ["rr"]),
    "--suite": (["equivalence", "commute", "oracle", "brown", "fastform", "dpi"],
                ["nonsense"]),
}
SWITCHES = ["--exact", "--sweep-known"]
REQUIRED = {
    "vuln": ["--mech", "--n"],
    "sweep": ["--mech", "--n-start", "--n-end"],
    "abo": ["--n"],
    "channel": ["--kind", "--n"],
    "check": ["--suite", "--max-n"],
}
OPTIONAL = {
    "vuln": ["--k", "--method", "--p", "--epsilon", "--exact"],
    "sweep": ["--mech", "--n-step", "--k", "--method", "--p", "--epsilon", "--exact"],
    "abo": ["--known-a", "--sweep-known", "--p", "--epsilon", "--exact"],
    "channel": ["--k", "--p", "--epsilon", "--cap", "--exact"],
    "check": [],
}


@st.composite
def argvs(draw):
    """Mostly well-formed commands, a quarter of the values hostile, now
    and then a missing required flag, a stray flag or an unknown command."""
    command = draw(st.sampled_from(sorted(REQUIRED)))
    flags = [f for f in REQUIRED[command] if draw(st.integers(0, 9))]
    if OPTIONAL[command]:
        flags += draw(st.lists(st.sampled_from(OPTIONAL[command]), max_size=4,
                               unique=True))
    if not draw(st.integers(0, 9)):
        flags.append(draw(st.sampled_from(sorted(FLAG_VALUES) + SWITCHES)))
    argv = [command if draw(st.integers(0, 19)) else "nope"]
    for flag in flags:
        argv.append(flag)
        if flag in FLAG_VALUES:
            good, bad = FLAG_VALUES[flag]
            argv.append(draw(st.sampled_from(good if draw(st.integers(0, 3)) else bad)))
    if command == "check" and "--max-n" not in flags:
        argv += ["--max-n", "1"]  # a suite's default max-n takes up to 0.34 s
    return argv


@given(argvs())
@settings(max_examples=300, deadline=None)
def test_no_argv_raises(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3)
    if code:
        assert err.getvalue().startswith("error:")


def test_the_cli_runs_as_a_process(capsys):
    argv = ["vuln", "--mech", "krr-shuffle", "--k", "3", "--n", "5", "--p", "3/5"]
    _, want, _ = run(capsys, *argv)
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    for args, code in ((argv, 0), (["vuln", "--mech", "krr", "--n", "x"], 1)):
        done = subprocess.run([sys.executable, "-m", "rrshuffle.cli", *args], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == code, done.stderr
        if code:
            assert done.stdout == ""
            assert done.stderr.startswith("error:") and done.stderr.count("\n") == 1
        else:
            assert (done.stdout, done.stderr) == (want, "")
