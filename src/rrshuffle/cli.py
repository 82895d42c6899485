"""Command-line interface.

Subcommands: ``vuln`` (one posterior-vulnerability record, from
``posterior_for``) and ``sweep`` (CSV over a parameter grid, from
``posterior_sweep``, which computes each part that does not depend on p
once per n);
``abo`` (strong-adversary vulnerability), ``channel`` (CSV dump of a
channel matrix), ``check`` (invariant suites).  Exit codes: 0 success,
1 usage error, 2 computation bound exceeded, 3 check-suite failure.
"""

from __future__ import annotations

import argparse
import functools
import sys
from fractions import Fraction

from . import checks, closed_forms as cf
from .channels import (
    CapExceededError,
    DEFAULT_CAP,
    build_krr,
    build_krr_reduced,
    build_shuffle_full,
    build_shuffle_reduced,
    cascade,
)
from .combinatorics import epsilon_to_p, p_to_epsilon
from .scalars import Scalar, is_exact, parse_scalar
from .vulnerability import AboScenario, abo_posterior


class UsageError(Exception):
    pass


class Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _common_flags(sub: argparse.ArgumentParser, exact: bool = True):
    if exact:
        sub.add_argument("--exact", action="store_true",
                         help="exact rational arithmetic (fractions in output); "
                              "binary64 otherwise")
    sub.add_argument("--out", help="write output to this path instead of stdout")


def _p_flags(sub: argparse.ArgumentParser):
    group = sub.add_mutually_exclusive_group()
    group.add_argument("--p", action="append",
                       help="truthful-report probability (repeatable when sweeping)")
    group.add_argument("--epsilon", action="append", type=float,
                       help="privacy parameter, converted to p (repeatable when sweeping)")


@functools.cache
def build_parser() -> Parser:
    """The command-line parser, built once per process."""
    parser = Parser(prog="rrshuffle",
                    description="Leakage analysis of randomized response and shuffling")
    subs = parser.add_subparsers(dest="command", required=True)

    vuln = subs.add_parser("vuln", help="one vulnerability record")
    vuln.add_argument("--mech", required=True, choices=cf.MECHANISMS)
    vuln.add_argument("--n", type=int, required=True)
    vuln.add_argument("--k", type=int, default=2)
    vuln.add_argument("--method", default="closed", choices=cf.METHODS)
    _p_flags(vuln)
    _common_flags(vuln)
    vuln.set_defaults(func=cmd_vuln)

    sweep = subs.add_parser("sweep", help="CSV of posterior vulnerability over a grid")
    sweep.add_argument("--mech", action="append", required=True,
                       choices=cf.MECHANISMS)
    sweep.add_argument("--n-start", type=int, required=True)
    sweep.add_argument("--n-end", type=int, required=True)
    sweep.add_argument("--n-step", type=int, default=1)
    sweep.add_argument("--k", type=int, default=2)
    sweep.add_argument("--method", default="closed", choices=cf.METHODS)
    _p_flags(sweep)
    _common_flags(sweep)
    sweep.set_defaults(func=cmd_sweep)

    abo = subs.add_parser("abo", help="all-but-one adversary vulnerability")
    abo.add_argument("--n", type=int, required=True)
    known = abo.add_mutually_exclusive_group(required=True)
    known.add_argument("--known-a", type=int,
                       help="count of 'a' among the n-1 known records")
    known.add_argument("--sweep-known", action="store_true",
                       help="CSV sweeping the known composition from 0%% to 100%%")
    _p_flags(abo)
    _common_flags(abo)
    abo.set_defaults(func=cmd_abo)

    channel = subs.add_parser("channel", help="CSV dump of a channel matrix")
    channel.add_argument("--kind", required=True, choices=[
        "krr", "krr-reduced", "shuffle", "shuffle-reduced", "ns", "sn", "ns-reduced",
    ])
    channel.add_argument("--n", type=int, required=True)
    channel.add_argument("--k", type=int, default=2)
    _p_flags(channel)
    channel.add_argument("--cap", type=int, default=DEFAULT_CAP,
                         help="bound on k**n for full-channel construction")
    _common_flags(channel)
    channel.set_defaults(func=cmd_channel)

    check = subs.add_parser("check", help="run an invariant suite")
    check.add_argument("--suite", required=True, choices=sorted(checks.SUITES))
    check.add_argument("--max-n", type=int, default=None)
    _common_flags(check, exact=False)
    check.set_defaults(func=cmd_check)

    return parser


def _resolve_p(args, k: int, single: bool = False) -> list:
    """The values of --p or --epsilon as probabilities, in order; with
    ``single``, a second value is a usage error."""
    if args.p:
        ps = [parse_scalar(text, args.exact) for text in args.p]
    else:
        ps = [epsilon_to_p(e, k, args.exact) for e in args.epsilon or ()]
    if single and len(ps) > 1:
        raise UsageError("a single p is required unless sweeping")
    return ps


def _fmt(value: Scalar, exact: bool) -> str:
    if exact and is_exact(value):
        return str(value)
    return repr(float(value))


def _write(text: str, path):
    if not path:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w") as handle:
            handle.write(text)
    except OSError as exc:
        raise UsageError("cannot write %s: %s" % (path, exc.strerror or exc)) from None


def cmd_vuln(args) -> int:
    if args.mech == "shuffle" and (args.p is not None or args.epsilon is not None):
        raise UsageError("--p and --epsilon do not apply to mechanism 'shuffle'")
    ps = _resolve_p(args, args.k, single=True)
    p = ps[0] if ps else None
    if args.mech != "shuffle" and p is None:
        raise UsageError("--p or --epsilon is required for mechanism %r" % args.mech)
    posterior = cf.posterior_for(args.mech, args.n, args.k, p, args.method,
                                 args.exact or None)
    prior = Fraction(1, args.k) if args.exact else 1.0 / args.k
    if args.exact and is_exact(posterior):
        mult, add = posterior * args.k, posterior - prior
    else:
        mult, add = float(posterior) * args.k, float(posterior) - 1.0 / args.k
    if p is None:
        p_text = eps_text = "-"
    else:
        p_text = _fmt(p, args.exact)
        eps_text = repr(args.epsilon[0]) if args.epsilon else (
            "inf" if p == 1 else repr(p_to_epsilon(p, args.k)))
    lines = [
        "mechanism: %s" % args.mech,
        "n: %d" % args.n,
        "k: %d" % args.k,
        "p: %s" % p_text,
        "epsilon: %s" % eps_text,
        "method: %s" % args.method,
        "prior_v: %s" % _fmt(prior, args.exact),
        "posterior_v: %s" % _fmt(posterior, args.exact),
        "mult_leakage: %s" % _fmt(mult, args.exact),
        "add_leakage: %s" % _fmt(add, args.exact),
    ]
    _write("\n".join(lines) + "\n", args.out)
    if args.method == "approx":
        _warn_outside_regime([args.n], args.k)
    return 0


def cmd_sweep(args) -> int:
    if args.n_step < 1:
        raise UsageError("--n-step must be positive")
    if args.n_start > args.n_end:
        raise UsageError("--n-start must not exceed --n-end")
    mechs = sorted(set(args.mech))
    if mechs == ["shuffle"] and (args.p is not None or args.epsilon is not None):
        raise UsageError("--p and --epsilon do not apply to mechanism 'shuffle'")
    p_list = sorted(set(_resolve_p(args, args.k)))  # each distinct p once
    if mechs != ["shuffle"] and not p_list:
        raise UsageError("--p or --epsilon is required unless only shuffling is swept")
    ns = range(args.n_start, args.n_end + 1, args.n_step)
    lines = ["mechanism,n,k,p,method,posterior_v"]
    lines += [
        "%s,%d,%d,%s,%s,%s" % (mech, n, args.k, "" if p is None else repr(float(p)),
                               args.method, _fmt(v, args.exact))
        for mech, n, p, v in cf.posterior_sweep(mechs, ns, args.k, p_list, args.method,
                                                args.exact or None)
    ]
    _write("\n".join(lines) + "\n", args.out)
    if args.method == "approx":
        _warn_outside_regime(ns, args.k)
    return 0


def _warn_outside_regime(ns, k: int):
    """One stderr line naming the n below k ln k, where the asymptotic
    estimate is outside its regime (and may even exceed 1)."""
    outside = [n for n in ns if not cf.v_approx_shuffle(n, k).in_regime]
    if len(outside) > 4:
        outside[2:-1] = ["..."]
    if outside:
        print("warning: --method approx is outside its regime n >= k ln k at n = %s"
              % ", ".join(map(str, outside)), file=sys.stderr)


def cmd_abo(args) -> int:
    p_list = _resolve_p(args, 2, single=args.known_a is not None)
    if not p_list:
        raise UsageError("--p or --epsilon is required")
    if args.known_a is not None:
        scenario = AboScenario(args.n, p_list[0], args.known_a)
        value = abo_posterior(scenario)
        lines = [
            "n: %d" % args.n,
            "p: %s" % _fmt(p_list[0], args.exact),
            "known_a: %d" % args.known_a,
            "abo_posterior_v: %s" % _fmt(value, args.exact),
        ]
        _write("\n".join(lines) + "\n", args.out)
        return 0
    if args.n < 2:
        raise UsageError("--sweep-known needs n >= 2")
    lines = ["known_a_fraction,p,abo_posterior_v"]
    for p in sorted(set(p_list)):  # each distinct p once
        for known_a in range(args.n):
            value = abo_posterior(AboScenario(args.n, p, known_a))
            lines.append("%s,%s,%s" % (
                repr(known_a / (args.n - 1)), repr(float(p)), _fmt(value, args.exact),
            ))
    _write("\n".join(lines) + "\n", args.out)
    return 0


def cmd_channel(args) -> int:
    if args.cap < 1:
        raise UsageError("--cap must be at least 1")
    kind = args.kind
    ps = _resolve_p(args, args.k, single=True)
    p = ps[0] if ps else None
    if kind.startswith("shuffle"):
        if p is not None:
            raise UsageError("--p and --epsilon do not apply to kind %r" % kind)
    elif p is None:
        raise UsageError("--p or --epsilon is required for kind %r" % kind)
    n, k, cap = args.n, args.k, args.cap
    if kind == "krr":
        chan = build_krr(n, k, p, cap)
    elif kind == "krr-reduced":
        chan = build_krr_reduced(n, k, p)
    elif kind == "shuffle":
        chan = build_shuffle_full(n, k, cap)
    elif kind == "shuffle-reduced":
        chan = build_shuffle_reduced(n, k, cap)
    elif kind == "ns":
        chan = cascade(build_krr(n, k, p, cap), build_shuffle_full(n, k, cap))
    elif kind == "sn":
        chan = cascade(build_shuffle_full(n, k, cap), build_krr(n, k, p, cap))
    else:  # ns-reduced
        chan = cascade(build_krr(n, k, p, cap), build_shuffle_reduced(n, k, cap))
    _write(chan.to_csv(exact=args.exact), args.out)
    return 0


def cmd_check(args) -> int:
    if args.max_n is not None and args.max_n < 1:
        raise UsageError("--max-n must be at least 1")
    results = checks.run_suite(args.suite, args.max_n)
    lines = []
    for r in results:
        if r.passed:
            lines.append("PASS %s" % r.name)
        else:
            lines.append("FAIL %s%s" % (r.name, " (%s)" % r.detail if r.detail else ""))
    failed = sum(1 for r in results if not r.passed)
    lines.append("%d checks, %d failed" % (len(results), failed))
    _write("\n".join(lines) + "\n", args.out)
    return 3 if failed else 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except CapExceededError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except OverflowError as exc:
        print("error: binary64 overflow (%s); rerun with --exact" % exc, file=sys.stderr)
        return 2
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
