"""The three benchmark workloads as seeded task lists.

A workload is a menu of task slots.  Each slot fixes what the task
runs (subcommand, mechanism, method, n, k, scalar mode); the seed only
draws the slot's ``p`` (and the all-but-one adversary's known
composition) from small grids and shuffles the task order.  Every value
a seed can draw has a pinned reference in ``refs.json``, written by
``make_refs.py`` from :func:`every_task`.

All ``p`` grid values are dyadic, so the decimal text a float task
passes on the command line is the same number as the rational an exact
task passes, and both modes share one reference.  They also share one
denominator and have near-equal p(1 - p) numerators (1023, 1015, 999,
975 over 64**2), so exact products of p and 1 - p grow at the same
rate whichever value is drawn, and the cost of a run does not depend
on the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Callable, Optional

WORKLOADS = ("general-k", "channel-algebra", "binary-abo")

P_GRID = tuple(Fraction(num, 64) for num in (33, 35, 37, 39))
# Known 'a' records of the all-but-one adversary, as a share of the n - 1
# known records.  Kept near one half: the cost of abo_posterior grows
# with known_a * (n - known_a), so a wide grid would make the run length
# depend on the seed.
KNOWN_A_SHARES = (Fraction(9, 20), Fraction(1, 2), Fraction(11, 20))
WIDE_COLUMNS = 200_000


@dataclass(frozen=True)
class Task:
    """One closed-loop request: a CLI argv, or a library call in ``lib``."""

    argv: tuple = ()
    lib: tuple = ()
    mode: str = "float"  # "exact" or "float": which solve metric it adds to
    expect: tuple = ()  # what check.py compares the output with
    refs: tuple = ()  # reference keys the check reads
    defect: str = ""  # known defect that makes the task fail at the seed
    tiny: bool = False  # cheap enough for the self-test

    @property
    def label(self) -> str:
        return " ".join(self.argv) if self.argv else " ".join(map(str, self.lib))


@dataclass(frozen=True)
class Slot:
    make: Callable[[Optional[Fraction], Optional[Fraction]], Task]
    ps: tuple = (None,)
    shares: tuple = (None,)


# ---------------------------------------------------------------------------
# Reference keys
# ---------------------------------------------------------------------------


def value_key(mech: str, k: int, n: int, p) -> str:
    """Key of a single-target posterior vulnerability."""
    if mech == "shuffle":
        return "S/%d/%d" % (k, n)
    if mech == "krr":
        return "KRR/%d/%d/%s" % (k, n, p)
    return "NS/%d/%d/%s" % (k, n, p)


def abo_key(n: int, p, known_a: int) -> str:
    return "ABO/%d/%s/%d" % (n, p, known_a)


def known_a_of(n: int, share: Fraction) -> int:
    return round(share * (n - 1))


# ---------------------------------------------------------------------------
# Task builders
# ---------------------------------------------------------------------------


def _p_argv(p, exact: bool) -> list:
    if p is None:
        return []
    return ["--p", str(p) if exact else repr(float(p))]


def vuln(mech, k, n, p=None, method="closed", exact=False, tiny=False) -> Task:
    argv = ["vuln", "--mech", mech, "--k", str(k), "--n", str(n), "--method", method]
    argv += _p_argv(p, exact) + (["--exact"] if exact else [])
    key = value_key(mech, k, n, p)
    return Task(argv=tuple(argv), mode="exact" if exact else "float",
                expect=("vuln", key, k), refs=(key,), tiny=tiny)


def sweep(k, ns, p, method="closed", exact=False, mechs=("shuffle", "krr-shuffle"),
          tiny=False) -> Task:
    start, end, step = ns.start, ns.stop - 1, ns.step
    argv = ["sweep", "--k", str(k), "--n-start", str(start), "--n-end", str(end),
            "--n-step", str(step), "--method", method]
    for mech in mechs:
        argv += ["--mech", mech]
    argv += _p_argv(p, exact) + (["--exact"] if exact else [])
    refs = tuple(
        value_key(mech, k, n, None if mech == "shuffle" else p)
        for mech in sorted(mechs) for n in ns
    )
    return Task(argv=tuple(argv), mode="exact" if exact else "float",
                expect=("sweep",), refs=refs, tiny=tiny)


def check(suite, max_n, tiny=False) -> Task:
    return Task(argv=("check", "--suite", suite, "--max-n", str(max_n)),
                mode="exact", expect=("check",), tiny=tiny)


def usage(*argv, defect="") -> Task:
    """Malformed input: must exit 1 with a message, never a traceback."""
    return Task(argv=tuple(argv), mode="float", expect=("usage",), defect=defect,
                tiny=not defect)


def abo_known(n, p, share, exact=False, defect="", tiny=False) -> Task:
    a = known_a_of(n, share)
    argv = ("abo", "--n", str(n), "--known-a", str(a)) + tuple(_p_argv(p, exact))
    argv += ("--exact",) if exact else ()
    key = abo_key(n, p, a)
    return Task(argv=argv, mode="exact" if exact else "float",
                expect=("abo", key), refs=(key,), defect=defect, tiny=tiny)


def abo_sweep(n, p, exact=False, tiny=False) -> Task:
    argv = ("abo", "--n", str(n), "--sweep-known") + tuple(_p_argv(p, exact))
    argv += ("--exact",) if exact else ()
    refs = tuple(abo_key(n, p, a) for a in range(n))
    return Task(argv=argv, mode="exact" if exact else "float",
                expect=("abo-sweep", n), refs=refs, tiny=tiny)


def channel(kind, k, n, p, exact=False, tiny=False) -> Task:
    argv = ("channel", "--kind", kind, "--k", str(k), "--n", str(n))
    argv += tuple(_p_argv(p, exact)) + (("--exact",) if exact else ())
    if exact:
        key = "CSV/%s/%d/%d/%s" % (kind, k, n, p)
        expect = ("csv", key)
    else:
        key = "R/%d/%d/%s" % (k, n, p)
        expect = ("csv-float", key, kind, k, n)
    return Task(argv=argv, mode="exact" if exact else "float",
                expect=expect, refs=(key,), tiny=tiny)


def canonical_v(k, n, p, tiny=False) -> Task:
    """Float noise-then-shuffle channel: canonical V and direct V."""
    key = value_key("krr-shuffle", k, n, p)
    return Task(lib=("canonical-v", k, n, p), mode="float",
                expect=("lib-value", key), refs=(key,), tiny=tiny)


def equivalent(k, n, p, pair, tiny=False, defect="") -> Task:
    """Float leakage equivalence of two channels built from (n, k, p).

    ``ns~nsr``: noise then full shuffle against noise then reduced
    shuffle, equivalent for every n.  ``krr~ns``: noise alone against
    noise then shuffle, never equivalent for n >= 2 and p > 1/k.
    """
    key = "EQ/%s/%d/%d/%s" % (pair, k, n, p)
    return Task(lib=("equivalent", pair, k, n, p), mode="float",
                expect=("lib-bool", key), refs=(key,), tiny=tiny, defect=defect)


def wide(name, defect="") -> Task:
    """Float canonical form of a 2 x WIDE_COLUMNS channel built in set-up."""
    return Task(lib=("wide", name), mode="float", expect=("wide", name),
                defect=defect)


# ---------------------------------------------------------------------------
# Menus
# ---------------------------------------------------------------------------

# Known defects (ROADMAP item 4).  These tasks fail at the seed and are
# left out of the measured workloads; ``--known-defects`` adds them.
DEFECT_ABO_OVERFLOW = "float abo_posterior overflows for n >= ~1100"
DEFECT_CLI_TRACEBACK = "CLI leaks a traceback on malformed input"
DEFECT_CANON_FLOAT = ("float canonicalize tests proportionality with an absolute "
                      "tolerance on unnormalized columns")


def _general_k() -> list:
    """Partition path only: no channel is built."""
    slots = []
    P = P_GRID
    exact_ns = {3: (16, 32, 48, 64), 4: (16, 32, 48, 64), 5: (12, 24, 36, 48),
                6: (10, 20, 30, 40), 7: (10, 20, 30), 8: (10, 20, 30, 40), 9: (10, 20),
                10: (10, 20, 30)}
    for k, ns in exact_ns.items():
        for n in ns:
            tiny = n <= 16
            slots.append(Slot(lambda p, s, k=k, n=n, t=tiny:
                              vuln("shuffle", k, n, exact=True, tiny=t)))
            slots.append(Slot(lambda p, s, k=k, n=n, t=tiny:
                              vuln("krr-shuffle", k, n, p, exact=True, tiny=t), P))
    slots.append(Slot(lambda p, s: vuln("shuffle", 8, 60, exact=True)))
    slots.append(Slot(lambda p, s: vuln("shuffle", 10, 40, exact=True)))
    # Second copies of the 0.1 to 0.3 s tasks, so that p90 falls among
    # many tasks of similar cost rather than in a gap between two.
    for k, n in ((8, 40), (10, 30)):
        slots.append(Slot(lambda p, s, k=k, n=n: vuln("shuffle", k, n, exact=True)))
        slots.append(Slot(lambda p, s, k=k, n=n:
                          vuln("krr-shuffle", k, n, p, exact=True), P))
        slots.append(Slot(lambda p, s, k=k, n=n: vuln("krr-shuffle", k, n, p), P))
    for k, n in ((3, 300), (4, 100)):
        slots.append(Slot(lambda p, s, k=k, n=n: vuln("shuffle", k, n)))
    # The direct sums kept as references: compositions for shuffling,
    # the partition score sum for noise then shuffle.
    for k, n in ((3, 20), (3, 40), (4, 20), (5, 15)):
        slots.append(Slot(lambda p, s, k=k, n=n:
                          vuln("shuffle", k, n, method="sum", exact=True)))
    for k, n in ((3, 40), (4, 30), (6, 20), (8, 16)):
        slots.append(Slot(lambda p, s, k=k, n=n:
                          vuln("krr-shuffle", k, n, p, method="sum", exact=True), P))
    # Float: n above the exact/float switch at 64 for pure shuffling (which
    # computes exactly at n <= 64 even without --exact); any n with a
    # float p for noise then shuffle.
    for k, n in ((3, 100), (3, 300), (3, 1000), (4, 100), (5, 120), (6, 80)):
        slots.append(Slot(lambda p, s, k=k, n=n: vuln("shuffle", k, n)))
    for k, n in ((3, 50), (3, 300), (4, 64), (5, 40), (6, 30), (6, 65), (7, 10), (7, 25),
                 (8, 20), (8, 40), (9, 10), (9, 15), (10, 20), (10, 30)):
        slots.append(Slot(lambda p, s, k=k, n=n, t=n <= 20:
                          vuln("krr-shuffle", k, n, p, tiny=t), P))
    for k, n in ((3, 200), (4, 80), (5, 50)):
        slots.append(Slot(lambda p, s, k=k, n=n:
                          vuln("krr-shuffle", k, n, p, method="sum"), P))
    slots.append(Slot(lambda p, s: vuln("shuffle", 3, 100, method="sum")))
    for k, ns in ((3, range(2, 63, 12)), (4, range(2, 63, 12)), (5, range(2, 63, 12)),
                  (6, range(2, 43, 10))):
        slots.append(Slot(lambda p, s, k=k, ns=ns: sweep(k, ns, p, exact=True), P))
    slots.append(Slot(lambda p, s: sweep(3, range(70, 251, 60), p), P))
    slots.append(Slot(lambda p, s: sweep(4, range(65, 126, 30), p), P))
    slots.append(Slot(lambda p, s: sweep(8, range(5, 31, 5), p, mechs=("krr-shuffle",)), P))
    for max_n in (8, 9, 10, 11, 12):
        slots.append(Slot(lambda p, s, m=max_n: check("brown", m, tiny=m == 8)))
    return slots


def _channel_algebra() -> list:
    """Builders, validation, cascade, canonicalize and the oracle."""
    slots = []
    P = P_GRID
    for suite, max_n in (("equivalence", 4), ("commute", 4), ("dpi", 3), ("oracle", 3)):
        slots.append(Slot(lambda p, s, su=suite, m=max_n: check(su, m)))
    slots.append(Slot(lambda p, s: check("oracle", 2, tiny=True)))
    # Brute-force oracle (exact only: it refuses float p).
    for k, n_max in ((2, 5), (3, 4)):
        for n in range(1, n_max + 1):
            for mech in ("shuffle", "krr", "krr-shuffle"):
                slots.append(Slot(lambda p, s, k=k, n=n, m=mech:
                                  vuln(m, k, n, None if m == "shuffle" else p,
                                       method="oracle", exact=True, tiny=n <= 2),
                                  (None,) if mech == "shuffle" else P))
    slots.append(Slot(lambda p, s: vuln("krr-shuffle", 3, 5, p, method="oracle",
                                        exact=True), P))
    # Channel dumps in both modes.
    for (k, n), kind, exact in product(((2, 1), (2, 2), (2, 3), (2, 4), (2, 5),
                                        (3, 1), (3, 2), (3, 3), (3, 4)),
                                       ("ns", "sn", "krr-reduced"), (True, False)):
        slots.append(Slot(lambda p, s, k=k, n=n, kind=kind, e=exact:
                          channel(kind, k, n, p, exact=e, tiny=n <= 2), P))
    # Float library calls: canonical forms, equivalence and wide channels.
    for k, n in ((2, 2), (2, 3), (2, 4), (3, 2), (3, 3)):
        slots.append(Slot(lambda p, s, k=k, n=n: canonical_v(k, n, p, tiny=n <= 2), P))
        slots.append(Slot(lambda p, s, k=k, n=n:
                          equivalent(k, n, p, "krr~ns", tiny=n <= 2), P))
        if (k, n) != (3, 3):
            slots.append(Slot(lambda p, s, k=k, n=n:
                              equivalent(k, n, p, "ns~nsr", tiny=n <= 2), P))
    # At (3, 3) the float test wrongly says "not equivalent" for these p.
    slots.append(Slot(lambda p, s: equivalent(3, 3, p, "ns~nsr", defect=DEFECT_CANON_FLOAT),
                      tuple(Fraction(num, 64) for num in (33, 35, 39))))
    slots.append(Slot(lambda p, s: wide("independent")))
    slots.append(Slot(lambda p, s: wide("independent-pair")))
    slots.append(Slot(lambda p, s: wide("two-thirds", defect=DEFECT_CANON_FLOAT)))
    return slots


def _binary_abo() -> list:
    """krr_histogram_transition, abo_posterior, binary sums and the CLI."""
    slots = []
    P, A = P_GRID, KNOWN_A_SHARES
    for n in (61, 81, 101, 121, 151, 181, 201):
        slots.append(Slot(lambda p, s, n=n: abo_known(n, p, s, exact=True), P, A))
    for n in (61, 101, 151, 201, 251, 301, 401):
        slots.append(Slot(lambda p, s, n=n: abo_known(n, p, s, tiny=n == 61), P, A))
    for _ in range(3):
        slots.append(Slot(lambda p, s: abo_known(1200, p, s, defect=DEFECT_ABO_OVERFLOW),
                          P, A))
    slots.append(Slot(lambda p, s: abo_sweep(21, p, exact=True, tiny=True), P))
    slots.append(Slot(lambda p, s: abo_sweep(41, p, exact=True), P))
    slots.append(Slot(lambda p, s: abo_sweep(61, p), P))
    slots.append(Slot(lambda p, s: abo_sweep(101, p), P))
    # k = 2 sweeps over n = 1..200.  The float closed sweep runs twice so
    # that every run compares a repeated sweep byte for byte.
    for method, exact in (("closed", True), ("closed", False), ("closed", False),
                          ("sum", True), ("sum", False)):
        slots.append(Slot(lambda p, s, m=method, e=exact:
                          sweep(2, range(1, 201), p, method=m, exact=e), P))
    for n in (1000, 2000, 3000):
        slots.append(Slot(lambda p, s, n=n: vuln("krr-shuffle", 2, n, p, method="sum"), P))
    slots.append(Slot(lambda p, s: vuln("shuffle", 2, 1000, method="sum")))
    slots.append(Slot(lambda p, s: check("fastform", 64)))
    # About a hundred tiny calls, where parsing and formatting dominate.
    for n in range(1, 26):
        slots.append(Slot(lambda p, s, n=n: vuln("krr-shuffle", 2, n, p, tiny=n <= 3), P))
        slots.append(Slot(lambda p, s, n=n:
                          vuln("krr-shuffle", 2, n, p, exact=True, tiny=n <= 3), P))
        slots.append(Slot(lambda p, s, n=n: vuln("krr-shuffle", 2, n, p, method="sum"), P))
        slots.append(Slot(lambda p, s, n=n: vuln("shuffle", 2, n, exact=True)))
    slots.append(Slot(lambda p, s: usage("vuln", "--mech", "krr-shuffle", "--n", "5",
                                         "--p", "0.3")))
    slots.append(Slot(lambda p, s: usage("vuln", "--mech", "krr-shuffle", "--n", "5")))
    slots.append(Slot(lambda p, s: usage("sweep", "--mech", "shuffle", "--n-start", "1",
                                         "--n-end", "5", "--n-step", "0")))
    slots.append(Slot(lambda p, s: usage("abo", "--n", "5", "--known-a", "9",
                                         "--p", "0.75")))
    slots.append(Slot(lambda p, s: usage("vuln", "--mech", "krr-shuffle", "--n", "7",
                                         "--epsilon", "1000",
                                         defect=DEFECT_CLI_TRACEBACK)))
    slots.append(Slot(lambda p, s: usage("vuln", "--mech", "krr-shuffle", "--n", "7",
                                         "--p", "1/0", defect=DEFECT_CLI_TRACEBACK)))
    return slots


MENUS = {"general-k": _general_k, "channel-algebra": _channel_algebra,
         "binary-abo": _binary_abo}


def tasks(workload: str, seed: int, tiny: bool = False,
          known_defects: bool = False) -> list:
    """The seeded task list: one draw per slot, in shuffled order."""
    rng = random.Random("%s/%d" % (workload, seed))
    out = []
    for slot in MENUS[workload]():
        task = slot.make(rng.choice(slot.ps), rng.choice(slot.shares))
        if task.defect and not known_defects:
            continue
        if tiny and not (task.tiny or (known_defects and task.defect)):
            continue
        out.append(task)
    rng.shuffle(out)
    return out


def every_task(workload: str) -> list:
    """Every task any seed can draw, known-defect tasks included."""
    return [
        slot.make(p, share)
        for slot in MENUS[workload]()
        for p, share in product(slot.ps, slot.shares)
    ]


def wide_channels(seed: int) -> dict:
    """Row pairs of the wide float channels, drawn from the seed.

    ``independent`` and ``independent-pair`` have two equal rows, so
    their output says nothing about the secret: V = 1/2, and the two are
    leakage-equivalent.  ``two-thirds`` spreads 1/3 of each row's mass
    identically over the first third of the columns, then puts 1/2 of
    row a's mass and 1/6 of row b's on the second third and the reverse
    on the last: V = (1/3 + 1/2 + 1/2) / 2 = 2/3.
    """
    rng = random.Random("wide/%d" % seed)

    def weights(m, mass):
        w = [rng.random() + 0.5 for _ in range(m)]
        total = sum(w) / mass
        return [x / total for x in w]

    third = WIDE_COLUMNS // 3
    shared = weights(WIDE_COLUMNS - 2 * third, 1 / 3)
    up, down = weights(third, 1), weights(third, 1)
    hi = shared + [x / 2 for x in up] + [x / 6 for x in down]
    lo = shared + [x / 6 for x in up] + [x / 2 for x in down]
    same = weights(WIDE_COLUMNS, 1)
    other = weights(WIDE_COLUMNS, 1)
    return {
        "independent": (same, same),
        "independent-pair": (other, other),
        "two-thirds": (hi, lo),
    }
