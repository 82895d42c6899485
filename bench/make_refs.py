"""Write ``refs.json``: a pinned reference for every task any seed can draw.

    python3 bench/make_refs.py

Each value comes from the program's exact path and is cross-checked once
against a route that shares no evaluator with it:

- the brute-force oracle wherever k**n <= 729;
- shuffling, general k: the composition sum, or a count of bounded bin
  loads (below) where compositions are too many;
- noise then shuffle, general k: the direct partition score sum;
- k = 2: the binary summation forms;
- the all-but-one adversary: an integer polynomial product (below),
  which is also the reference itself past n = 201, where the exact
  library path takes minutes per value;
- channel dumps: every exact CSV entry against the histogram-level
  noise channel, whose entries are checked against the oracle.

Takes a few minutes on one core.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
from fractions import Fraction

import workloads
from check import REFS_PATH, histogram_counts, sha256
from run import import_program, run_task

_, M = import_program()
cf, ch, orc, vul = M["closed_forms"], M["channels"], M["oracle"], M["vulnerability"]

ORACLE_CAP = 729
COMPOSITIONS_CAP = 2_000_000
PARTITIONS_CAP = 150_000


class Mismatch(Exception):
    pass


def agree(what, a, b):
    if a != b:
        raise Mismatch("%s: %s != %s" % (what, a, b))


def bounded_load_count(n: int, k: int, s: int) -> int:
    """Ways to drop n labeled balls into k labeled bins, no bin above s."""
    ways = [1] + [0] * n
    for _ in range(k):
        ways = [sum(math.comb(m, j) * ways[m - j] for j in range(min(s, m) + 1))
                for m in range(n + 1)]
    return ways[n]


def shuffle_by_loads(n: int, k: int) -> Fraction:
    """V_S = E[max load] / n, with E[max] = sum_s P(max > s)."""
    total = k**n
    scaled = sum(total - bounded_load_count(n, k, s) for s in range(n))
    return Fraction(scaled, total * n)


def partition_count(n: int, k: int) -> int:
    """Partitions of n into at most k parts."""
    table = [1] + [0] * n
    for part in range(1, k + 1):
        for m in range(part, n + 1):
            table[m] += table[m - part]
    return table[n]


def abo_by_polynomials(n: int, p: Fraction, known_a: int) -> Fraction:
    """Half the sum over output counts of the larger of the two candidate
    datasets' probabilities, as integers over den**n: the output a-count
    is Binomial(a_in, p) + Binomial(b_in, 1 - p)."""
    num, den = p.numerator, p.denominator

    def power(a, b, m):  # coefficients of (a x + b)**m
        return [math.comb(m, j) * a**j * b ** (m - j) for j in range(m + 1)]

    def output_counts(a_in, b_in):
        left, right = power(num, den - num, a_in), power(den - num, num, b_in)
        out = [0] * (n + 1)
        for i, x in enumerate(left):
            for j, y in enumerate(right):
                out[i + j] += x * y
        return out

    if_a = output_counts(known_a + 1, n - 1 - known_a)
    if_b = output_counts(known_a, n - known_a)
    return Fraction(sum(max(x, y) for x, y in zip(if_a, if_b)), 2 * den**n)


# ---------------------------------------------------------------------------
# Values
# ---------------------------------------------------------------------------


def oracle(n, k, pipeline, p=None):
    return orc.oracle_posterior(n, k, pipeline, p) if k**n <= ORACLE_CAP else None


def shuffle_value(k, n):
    if k == 2:
        value = cf.v_post_shuffle_binary_fast(n)
        agree("binary shuffle sum n=%d" % n, cf.v_post_shuffle_binary_sum(n), value)
    else:
        value = cf.v_post_shuffle_general(n, k, exact=True)
        if math.comb(n + k - 1, k - 1) <= COMPOSITIONS_CAP:
            other = cf.v_post_shuffle_general(n, k, method="composition", exact=True)
        else:
            other = shuffle_by_loads(n, k)
        agree("shuffle k=%d n=%d" % (k, n), other, value)
    truth = oracle(n, k, ["shuffle"])
    if truth is not None:
        agree("shuffle oracle k=%d n=%d" % (k, n), truth, value)
    return value


def ns_value(k, n, p, v_shuffle):
    if k == 2:
        value = cf.v_post_ns_binary_fast(n, p)
        agree("binary ns sum n=%d p=%s" % (n, p), cf.v_post_ns_binary_sum(n, p), value)
    else:
        value = cf.v_post_ns_general(n, k, p, exact=True)
        if partition_count(n, k) <= PARTITIONS_CAP:
            other = cf.v_post_ns_general(n, k, p, method="partition", exact=True)
        else:  # the linear relation applied to the cross-checked V_S
            other = v_shuffle * Fraction(k * p - 1, k - 1) + Fraction(1 - p, k - 1)
        agree("ns k=%d n=%d p=%s" % (k, n, p), other, value)
    truth = oracle(n, k, ["krr", "shuffle"], p)
    if truth is not None:
        agree("ns oracle k=%d n=%d p=%s" % (k, n, p), truth, value)
    return value


@functools.lru_cache(maxsize=None)
def reduced_noise(k, n, p):
    """The exact histogram-level noise channel, checked against the oracle."""
    hists = ch.enumerate_histograms(n, k)
    rows = ch.build_krr_reduced(n, k, p).rows
    for i, z1 in enumerate(hists):
        x = tuple(v for v, c in enumerate(z1) for _ in range(c))
        for j, z2 in enumerate(hists):
            agree("R k=%d n=%d p=%s" % (k, n, p),
                  orc.oracle_histogram_transition(x, z2, p), rows[i][j])
    return hists, rows


def channel_digest(task, hists, rows, k, n):
    _, rc, out, _, exc = run_task(task, "refs", M, {})
    if exc is not None or rc != 0:
        raise Mismatch("%s failed: %r" % (task.label, exc or rc))
    kind = task.argv[2]
    index = {h: i for i, h in enumerate(hists)}
    sizes = [math.factorial(n) // math.prod(math.factorial(c) for c in h) for h in hists]
    lines = out.splitlines()
    cols = [index[histogram_counts(c, k)] for c in lines[0].split(",")[1:]]
    for line in lines[1:]:
        label, *entries = line.split(",")
        i = index[histogram_counts(label, k)]
        for j, text in zip(cols, entries):
            want = rows[i][j] if kind == "krr-reduced" else rows[i][j] / sizes[j]
            agree("%s entry" % task.label, Fraction(text), want)
    return sha256(out)


def equivalence(pair, k, n, p):
    noise = ch.build_krr(n, k, p)
    ns = ch.cascade(noise, ch.build_shuffle_full(n, k))
    if pair == "ns~nsr":
        result = ch.equivalent(ns, ch.cascade(noise, ch.build_shuffle_reduced(n, k)))
        agree("noise then shuffle equals its reduced form", result, True)
    else:
        result = ch.equivalent(noise, ns)
        agree("noise alone leaks more than noise then shuffle (V %s vs %s)"
              % (p, cf.v_post_ns_general(n, k, p, exact=True)), result, False)
    return result


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def wanted():
    """Reference key -> (task, whether an exact task reads it)."""
    keys = {}
    for workload in workloads.WORKLOADS:
        for task in workloads.every_task(workload):
            for key in task.refs:
                _, exact_before = keys.get(key, (None, False))
                keys[key] = (task, exact_before or task.mode == "exact")
    return keys


def main() -> int:
    started = time.perf_counter()
    keys = wanted()
    refs = {}
    shuffle_cache = {}

    def shuffle(k, n):
        if (k, n) not in shuffle_cache:
            shuffle_cache[k, n] = shuffle_value(k, n)
        return shuffle_cache[k, n]

    def store(key, value, exact):
        entry = {"f": repr(float(value))}
        if exact:
            entry["x"] = str(value)
        refs[key] = entry

    for key, (task, exact) in sorted(keys.items()):
        kind, *rest = key.split("/")
        if kind == "S":
            k, n = map(int, rest)
            store(key, shuffle(k, n), exact)
        elif kind == "NS":
            k, n, p = int(rest[0]), int(rest[1]), Fraction("/".join(rest[2:]))
            store(key, ns_value(k, n, p, shuffle(k, n) if k > 2 else None), exact)
        elif kind == "KRR":
            k, n, p = int(rest[0]), int(rest[1]), Fraction("/".join(rest[2:]))
            truth = oracle(n, k, ["krr"], p)
            if truth is not None:
                agree(key, truth, p)
            store(key, p, exact)
        elif kind == "ABO":
            n, p, known_a = int(rest[0]), Fraction("/".join(rest[1:3])), int(rest[3])
            value = abo_by_polynomials(n, p, known_a)
            if n <= 41 or (exact and n <= 201):
                agree(key, vul.abo_posterior(vul.AboScenario(n, p, known_a)), value)
            store(key, value, exact)
        elif kind == "R":
            k, n, p = int(rest[0]), int(rest[1]), Fraction("/".join(rest[2:]))
            hists, rows = reduced_noise(k, n, p)
            refs[key] = {"hists": hists, "x": [[str(e) for e in row] for row in rows]}
        elif kind == "CSV":
            k, n, p = int(rest[1]), int(rest[2]), Fraction("/".join(rest[3:]))
            hists, rows = reduced_noise(k, n, p)
            refs[key] = {"sha256": channel_digest(task, hists, rows, k, n)}
        elif kind == "EQ":
            pair, k, n, p = rest[0], int(rest[1]), int(rest[2]), Fraction("/".join(rest[3:]))
            refs[key] = {"bool": equivalence(pair, k, n, p)}
        else:
            raise Mismatch("unknown reference kind %r" % key)
        print("%8.1fs %s" % (time.perf_counter() - started, key), file=sys.stderr)
    with open(REFS_PATH, "w") as handle:
        json.dump(refs, handle, indent=0, sort_keys=True)
        handle.write("\n")
    print("%d references written to %s" % (len(refs), REFS_PATH.name))
    return 0


if __name__ == "__main__":
    sys.exit(main())
