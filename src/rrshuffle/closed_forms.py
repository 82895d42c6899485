"""Posterior-vulnerability formulas: exact, fast, and asymptotic.

Everything here targets the single-target adversary with a uniform prior
over datasets, whose score depends only on the histogram's shape.  So
the direct sum is one sum over partition shapes for every alphabet size
(the partition method of :func:`v_post_ns_general`, over
:func:`~rrshuffle.combinatorics.partition_terms`), the one reference the
fast forms are checked against.
The binary fast form is closed and cheap at any n: its single-binomial
form, 1/2 + |p - 1/2| times the largest point probability of the other
records' noisy count, also gives the all-but-one adversary's
vulnerability.
For general k the shuffle vulnerability is the expected maximum bin load,
evaluated in polynomial time by one bounded-load recursion over bin
sizes below n/2 (exact integers for moderate n, Poisson-weighted
binary64 for large sweeps) and, above, one binomial sum.  The
composition sum stays only as a test of the partition sum.
:func:`posterior_for`, the one route from a mechanism to its number,
runs every method in :data:`METHODS`, the brute-force oracle included,
as the one-point case of :func:`posterior_sweep`, which computes what
does not depend on p once per n of a grid.

Each exact value here is one integer quotient: p, a mode or V_S is read
as integers by ``as_integer_ratio()``, the formula is evaluated on
integers, and one ``Fraction`` is built at the end (a float-mode value
of :func:`partition_score` is the same quotient, rounded once).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator, Literal, NamedTuple, Optional, Sequence

from .combinatorics import partition_terms
from .oracle import oracle_posterior
from .reference import max_load_counts  # the composition method, run by bench/make_refs.py
from .scalars import Scalar, is_exact, require_mechanism

#: Largest n for which the general-k evaluators default to exact rationals.
EXACT_N_DEFAULT = 64


# ---------------------------------------------------------------------------
# Per-record noise alone
# ---------------------------------------------------------------------------


def v_post_krr(p: Scalar, k: int) -> Scalar:
    """Noise alone leaves the target's report as the best guess: V = p,
    independent of the dataset size."""
    require_mechanism(k=k, p=p)
    return p


# ---------------------------------------------------------------------------
# Binary alphabet
# ---------------------------------------------------------------------------


def v_post_shuffle_binary_sum(n: int) -> Fraction:
    """Shuffle alone, binary, by direct summation over histograms:
    noise then shuffle at p = 1.  Not exported by the package; kept by
    name for the ``fastform`` suite and ``bench/make_refs.py``."""
    return v_post_ns_binary_sum(n, 1)


def v_post_shuffle_binary_fast(n: int) -> Fraction:
    """Shuffle alone, binary, single-binomial form:
    noise then shuffle at p = 1.  Not exported by the package; kept by
    name for the check suites and ``bench/make_refs.py``."""
    return v_post_ns_binary_fast(n, 1)


def v_post_ns_binary_sum(n: int, p: Scalar) -> Scalar:
    """Noise then shuffle, binary, by direct summation:
    (1/2^n) sum_i C(n,i) (max(i,n-i) p + min(i,n-i) (1-p)) / n.

    The partition sum of :func:`v_post_ns_general` at k = 2, whose
    terms pair C(n, i) with C(n, n - i); exact for an exact p, the
    exact value rounded once for a float p."""
    return v_post_ns_general(n, 2, p, method="partition", exact=is_exact(p))


def v_post_ns_binary_fast(n: int, p: Scalar) -> Scalar:
    """Noise then shuffle, binary, single-binomial form:
    1/2 + |p - 1/2| C(n-1, floor((n-1)/2)) / 2^(n-1).

    The other n - 1 records are uniform, so each reports 'a' with
    probability 1/2 whatever p is, and their 'a'-count is Bin(n - 1, 1/2).
    """
    require_mechanism(n, 2, p)
    return binary_vulnerability(p, count_mode_probability(n - 1, 0, Fraction(1, 2)))


def binary_vulnerability(p: Scalar, mode: Fraction) -> Scalar:
    """1/2 + |p - 1/2| mode: the posterior single-target vulnerability
    of binary noise then shuffle, the target's value uniform and
    ``mode`` the largest point probability of the law B of the other
    records' noisy 'a'-count.

    The target's two values give output laws p B(z-1) + (1-p) B(z) and
    (1-p) B(z-1) + p B(z), which differ by (2p - 1)(B(z-1) - B(z)); B
    is unimodal, so these sum in absolute value to 2 |2p - 1| max B.
    For an exact p = s/d and mode = M/D that is one quotient,
    (d D + |2s - d| M) / (2 d D).  For a float p the exact mode is
    rounded once.
    """
    if is_exact(p):
        s, d = p.as_integer_ratio()
        m, m_den = mode.as_integer_ratio()
        return Fraction(d * m_den + abs(2 * s - d) * m, 2 * d * m_den)
    return 0.5 + abs(p - 0.5) * float(mode)


def count_mode_probability(a: int, b: int, p: Scalar) -> Fraction:
    """Largest point probability of the sum of a Bin(a, p) count and an
    independent Bin(b, 1 - p) count, exact.

    A sum of independent Bernoullis peaks at the floor or the ceiling
    of its mean a p + b (1 - p) (Darroch 1964), so only those two points
    are evaluated.  A float p is read as the rational s/d it denotes,
    and each point probability is one integer sum over d^(a+b).
    """
    s, d = p.as_integer_ratio()
    mean = a * s + b * (d - s)  # the mean times d
    tops = {mean // d, -(-mean // d)}
    return Fraction(max(_count_mass(a, b, s, d - s, z) for z in tops), d ** (a + b))


def _count_mass(a: int, b: int, s: int, t: int, z: int) -> int:
    """(s + t)^(a+b) P(Bin(a, s/(s+t)) + Bin(b, t/(s+t)) = z), an
    integer (s > 0): the sum over the j 'a'-reports among the first a of
    C(a, j) C(b, z-j) s^(b-z+2j) t^(a+z-2j).

    Term j - 1 is term j times j (b-z+j) t^2 / ((a-j+1)(z-j+1) s^2), so
    the sum is nested Horner-style from the top term down, its
    denominators carried in one product: two short multiplications per
    term and one division at the end.
    """
    lo, hi = max(0, z - b), min(a, z)
    x, y = s * s, t * t
    acc = tail = scale = 1
    for j in range(hi, lo, -1):
        tail *= j * (b - z + j) * y
        step = (a - j + 1) * (z - j + 1)
        acc = tail + step * x * acc
        scale *= step
    top = math.comb(a, hi) * math.comb(b, z - hi)
    return top * acc // scale * s ** (b - z + 2 * lo) * t ** (a + z - 2 * hi)


# ---------------------------------------------------------------------------
# General alphabet
# ---------------------------------------------------------------------------


def _pick_exact(n: int, exact: Optional[bool], p: Scalar = Fraction(1)) -> bool:
    if exact is not None:
        return exact
    return n <= EXACT_N_DEFAULT and is_exact(p)


def _max_load_tails(n: int, k: int, exact: bool) -> list[Scalar]:
    """k^n - A_m (exact integers) or 1 - A_m / k^n (floats) for
    m = 0, ..., n - 1, where A_m counts the maps of n labelled records into
    k labelled bins that put no more than m records in any bin.

    The lower tails come from one pass over bin sizes v = m + 1 for
    v = 1, ..., floor(n/2) - 1.  Row u of the table holds, for each
    r <= n, W[u][r]: the ways to put r labelled records into an ordered row
    of u non-empty bins, none above the current size bound.  Admitting
    bins of size v adds, for each count c of them among the u bins,
    W[u - c][r - cv] * r! / ((r - cv)! v!^c) * C(u, c); rows are updated in
    place with u descending, so each update reads rows still bounded by
    v - 1.  Then A_m = sum_u C(k, u) W[u][n].  The exact factors by c,
    (cv)! / v!^c and entry n's n! / ((n - cv)! v!^c), are carried from
    v - 1 to v by one falling factorial of length c and one exact division
    by v^c each, not rebuilt from binomials at every step; the C(r, cv) of
    a written slice take one binomial, then an exact recurrence in r.  The
    float powers of a size's Poisson weight are taken once per size, each
    by ``**``.

    Only the entries that can still reach n records are written: entry n,
    and the r with n - r in [v + 1, (min(k, n) - u)(floor(n/2) - 1)], what
    at most min(k, n) - u bins of the later sizes can add.  The sources of
    such an entry are live one step earlier, so each written entry gets
    every operation of the full table, in the same order, and every tail
    is the full table's, bit for bit.  Row min(k, n) is entry n alone; at
    k = 3 about n^2/48 entries are written, 5 % of the full table.

    The float mode runs the same recursion on Poisson(n/k) weights
    (Poissonization): row u holds P(u Poisson bins, each non-empty and
    within the bound, sum to r), so every entry is a probability and
    nothing overflows, and A_m / k^n = sum_u C(k, u) e^{-(k-u) n/k}
    w[u][n] / P(Po(n) = n).  Every term is non-negative, so the recursion
    cancels nothing; rounding cancels only in the final 1 - A_m / k^n.

    From m = floor(n/2) on, 2(m + 1) > n, so at most one bin can hold more
    than m records, and k^n - A_m = k sum_{j>m} C(n, j) (k - 1)^(n-j), the
    first Bonferroni term and no more (:func:`_one_bin_tails`).  Both
    modes take these tails as exact integers; a float tail is the integer
    over k^n, rounded once.
    """
    u_max = min(k, n)
    top = n // 2 - 1  # the largest bin size the recursion admits
    if exact:
        rows: list[list] = [[0] * (n + 1) for _ in range(u_max + 1)]
        rows[0][0] = 1
        full = k**n
        choose_k = [math.comb(k, u) for u in range(u_max + 1)]
    else:
        rows = [[0.0] * (n + 1) for _ in range(u_max + 1)]
        rows[0][0] = 1.0
        lam = n / k
        log_lam = math.log(lam)
        log_norm = -n + n * math.log(n) - math.lgamma(n + 1)  # ln P(Po(n) = n)
        full = 1.0
        choose_k = [  # in log space: C(k, u) can exceed the float range
            math.exp(math.log(math.comb(k, u)) - (k - u) * lam - log_norm)
            for u in range(u_max + 1)
        ]
    tails = [full]  # m = 0: every map has a non-empty bin
    choose = [[math.comb(u, c) for c in range(u + 1)] for u in range(u_max + 1)]
    # by the count c of size-v bins: (cv)! / v!^c and n! / ((n - cv)! v!^c)
    ways, ways_n = [1] * (u_max + 1), [1] * (u_max + 1)  # at v = 0
    for v in range(1, top + 1):
        c_max = min(u_max, n // v)
        if exact:
            for c in range(1, c_max + 1):  # from v - 1 to v
                den = v**c
                ways[c] = ways[c] * math.perm(c * v, c) // den
                ways_n[c] = ways_n[c] * math.perm(n - c * (v - 1), c) // den
        else:
            weight = math.exp(-lam + v * log_lam - math.lgamma(v + 1))
            powers = [weight**c for c in range(c_max + 1)]  # **, not products: same bits
        below, reach = v - 1, n - v - 1  # a source's bin bound; the last live r < n
        for u in range(u_max, 0, -1):
            row, choose_u = rows[u], choose[u]
            floor = n - (u_max - u) * top  # the lowest live entry below n
            for c in range(1, (u if u < c_max else c_max) + 1):
                lo, cv = u - c, c * v  # lo: the source row's non-empty bins
                n_cv = n - cv
                hi = lo * below  # the source's last non-zero entry, up to n - cv
                if hi > n_cv:
                    hi = n_cv
                # the sources of live targets: a range [a, b), and n - cv
                a, b = floor - cv, reach - cv
                if a < lo:
                    a = lo
                if b > hi:
                    b = hi
                b += 1
                at_n = hi == n_cv and lo <= hi
                if a >= b and not at_n:
                    continue
                if exact:
                    coef = choose_u[c] * ways[c]
                else:
                    coef = choose_u[c] * powers[c]
                    if coef == 0.0:
                        break  # underflow: so are the higher powers
                src = rows[lo]
                if a < b:
                    start, stop = a + cv, b + cv
                    if exact:
                        # r! / ((r - cv)! v!^c) = C(r, cv) (cv)! / v!^c, the
                        # second factor in coef; f = C(r, cv), carried by
                        # C(r + 1, cv) = C(r, cv) (r + 1) / (r + 1 - cv)
                        f = math.comb(start, cv)
                        for r in range(start, stop):
                            row[r] += src[r - cv] * f * coef
                            f = f * (r + 1) // (r + 1 - cv)
                    else:
                        for r in range(start, stop):
                            row[r] += coef * src[r - cv]
                if at_n:
                    if exact:
                        row[n] += src[hi] * choose_u[c] * ways_n[c]
                    else:
                        row[n] += coef * src[hi]
        bounded = [choose_k[u] * rows[u][n] for u in range(1, u_max + 1)]
        tails.append(full - sum(bounded) if exact else 1.0 - math.fsum(bounded))
    upper = _one_bin_tails(n, k, max(n // 2, 1))
    if not exact:
        scale = k**n
        upper = [t / scale for t in upper]
    return tails + upper


def _one_bin_tails(n: int, k: int, m0: int) -> list[int]:
    """k^n - A_m for m = m0, ..., n - 1 with 2(m0 + 1) > n: the maps that
    put more than m records in some bin, which is then the only such bin,
    k sum_{j>m} C(n, j) (k - 1)^(n-j).

    One pass from j = n down, the terms by
    C(n, j - 1) (k - 1)^(n-j+1) = C(n, j) (k - 1)^(n-j) j (k - 1) / (n - j + 1),
    which divides exactly.
    """
    tails = []
    term = total = 1  # j = n
    for j in range(n, m0, -1):
        tails.append(k * total)  # m = j - 1
        term = term * j * (k - 1) // (n - j + 1)
        total += term
    tails.reverse()
    return tails


def v_post_shuffle_general(
    n: int,
    k: int,
    method: Literal["bounded-load", "partition", "composition"] = "bounded-load",
    exact: Optional[bool] = None,
) -> Scalar:
    """Shuffle alone for any alphabet size.

    The underlying sum runs over all histograms, weighting each by its
    multinomial count and scoring the adversary's best guess max_j n_j / n,
    so k^n n V is the summed maximum bin load of the k^n maps of records
    to values.  The default evaluates that as
    sum_{m<n} (k^n - A_m), A_m counting the maps with no bin above m
    (:func:`_max_load_tails`): one bounded-load recursion over bin sizes
    below floor(n/2), exact integers or Poisson-weighted binary64, gives
    the tails for m < floor(n/2).  It writes only the entries that can
    still reach n records, about n^2/48 multiply-adds at k = 3 (5 % of
    the full table's, 47 % at k = 10), at most about
    n^2 min(k, n) (1 + ln k).  Above, only one bin can exceed m, so
    k^n - A_m = k sum_{j>m} C(n, j) (k - 1)^(n-j), one exact binomial
    sum in both modes.  The partition method, the reference,
    groups histograms by their partition shape, one term per partition
    (~n^(k-1) of them), its coefficient built by the one recursion of
    :func:`~rrshuffle.combinatorics.partition_terms`; the composition
    method evaluates the ungrouped sum of
    :func:`~rrshuffle.reference.max_load_counts` and is kept to check it.
    Exact by default up to n = 64, binary64 above.
    """
    require_mechanism(n, k)
    use_exact = _pick_exact(n, exact)

    if method == "bounded-load":
        tails = _max_load_tails(n, k, use_exact)
        if use_exact:
            return Fraction(sum(tails), k**n * n)
        return math.fsum(tails) / n
    if method == "composition":
        total = sum(m * count for m, count in enumerate(max_load_counts(n, k)))
    elif method == "partition":
        total = scaled_max_load_via_multinomials(n, k)
    else:
        raise ValueError(
            "method must be 'bounded-load', 'partition' or 'composition'"
        )
    result = Fraction(total, k**n * n)
    return result if use_exact else float(result)


def v_post_ns_general(
    n: int,
    k: int,
    p: Scalar,
    method: Literal["relation", "partition"] = "relation",
    exact: Optional[bool] = None,
) -> Scalar:
    """Noise then shuffle for any alphabet size.

    The default rewrites the sum as a linear function of the pure-shuffle
    value: V = V_S (kp - 1)/(k - 1) + (1 - p)/(k - 1).  In float mode
    both factors lie in [0, 1], so the result keeps the float V_S's
    distance to the exact value (tested within 1e-12 for n <= 300 and
    k <= 10) up to a few roundings.  The partition method evaluates the
    direct sum, whose per-histogram score is
    (n* p + (n - n*)(1-p)/(k-1)) / n, over partition shapes: the one
    direct-sum reference for every k, k = 2 included
    (:func:`v_post_ns_binary_sum`), and at p = 1 for shuffling alone.
    """
    require_mechanism(n, k, p)
    use_exact = _pick_exact(n, exact, p)

    if method == "relation":
        return linear_relation(v_post_shuffle_general(n, k, exact=use_exact), k, p,
                               use_exact)
    if method != "partition":
        raise ValueError("method must be 'relation' or 'partition'")
    return partition_score(partition_masses(n, k), n, k, p, use_exact)


def linear_relation(v_s: Scalar, k: int, p: Scalar, exact: bool) -> Scalar:
    """Noise then shuffle from the shuffle value V_S:
    V_S (kp - 1)/(k - 1) + (1 - p)/(k - 1), exact or in binary64.

    Exact, with V_S = a/b and p = s/d, it is one quotient,
    (a (ks - d) + b (d - s)) / (b d (k - 1))."""
    if exact:
        a, b = v_s.as_integer_ratio()
        s, d = p.as_integer_ratio()
        return Fraction(a * (k * s - d) + b * (d - s), b * d * (k - 1))
    v_s = float(v_s)
    return v_s * (k * p - 1) / (k - 1) + (1 - p) / (k - 1)


def partition_masses(n: int, k: int) -> int:
    """The integer of the partition sum, which does not depend on p:
    sum count top over the (count, top) pairs of
    :func:`~rrshuffle.combinatorics.partition_terms`, top the largest
    bin.  The counts themselves sum to k^n, the maps of n records to
    k values."""
    return sum(count * top for count, top in partition_terms(n, k))


def partition_score(top_mass: int, n: int, k: int, p: Scalar,
                    exact: bool) -> Scalar:
    """The partition sum from its :func:`partition_masses` integer:
    sum count (top p + (n - top)(1 - p)/(k - 1)) / (n k^n).  With
    p read as the rational s/d it denotes, that is one integer quotient,
    (s top_mass (k - 1) + (d - s) rest_mass) / (d (k - 1) k^n n),
    divided once: into a ``Fraction``, or, for a float result, rounded
    once to binary64."""
    total = k**n
    s, d = p.as_integer_ratio()
    rest_mass = n * total - top_mass  # sum count (n - top)
    num = s * top_mass * (k - 1) + (d - s) * rest_mass
    den = d * (k - 1) * total * n
    return Fraction(num, den) if exact else num / den


# ---------------------------------------------------------------------------
# The scaled maximum-load integer
# ---------------------------------------------------------------------------


def scaled_max_load(n: int, k: int) -> int:
    """k^n times the expected maximum bin load when n balls land
    uniformly in k labeled bins; an exact integer.

    The sum over m < n of k^n - A_m, A_m counting the maps with no bin
    above m: the integer the default exact path of
    :func:`v_post_shuffle_general` divides by k^n n, from the bounded-load
    recursion and one-bin tails of :func:`_max_load_tails`.  k = 1 gives n.
    """
    require_mechanism(n)
    if k < 1:
        raise ValueError("k must be at least 1")
    return sum(_max_load_tails(n, k, True))


def scaled_max_load_via_multinomials(n: int, k: int) -> int:
    """Same integer as :func:`scaled_max_load`, by the partition sum, its
    reference: the integer of :func:`partition_masses`, the pair of
    multinomial coefficients of the vulnerability sum,
    multinomial(n; parts) * multinomial(k; multiplicities, k - length)
    times the largest part, summed over the partitions of n into at most
    k parts.  The coefficients come from
    :func:`~rrshuffle.combinatorics.partition_terms`, one recursion that
    builds each as it goes, so no partition object or multinomial call is
    made per term.  Not exported by the package; kept by name for the
    ``brown`` suite and the benchmark's tracer (``bench/spans.py``)."""
    require_mechanism(n)
    if k < 1:
        raise ValueError("k must be at least 1")
    return partition_masses(n, k)


# ---------------------------------------------------------------------------
# Asymptotic approximations
# ---------------------------------------------------------------------------


class ApproxValue(NamedTuple):
    """An asymptotic estimate plus whether n is in the regime n >= k ln k."""

    value: float
    in_regime: bool


def v_approx_shuffle(n: int, k: int) -> ApproxValue:
    """Maximum-load approximation of the shuffle vulnerability:
    1/k + sqrt(ln k / (k n)).

    The asymptotic bound's hidden constant is taken as 1, a good
    empirical fit that carries no guarantee.  Outside the regime
    n >= k ln k the value is still returned, flagged.
    """
    require_mechanism(n, k)
    value = 1.0 / k + math.sqrt(math.log(k) / (k * n))
    return ApproxValue(value, n >= k * math.log(k))


def v_approx_ns(n: int, k: int, p: Scalar) -> ApproxValue:
    """Noise-then-shuffle approximation: the shuffle deviation from 1/k
    scaled by (kp - 1)/(k - 1)."""
    require_mechanism(n, k, p)
    base = v_approx_shuffle(n, k)
    deviation = base.value - 1.0 / k
    return ApproxValue(1.0 / k + deviation * (k * float(p) - 1) / (k - 1), base.in_regime)


# ---------------------------------------------------------------------------
# One entry point: a mechanism to its posterior vulnerability
# ---------------------------------------------------------------------------

#: The mechanisms: per-record noise, shuffling, or noise then shuffling.
MECHANISMS = ("krr", "krr-shuffle", "shuffle")

#: The evaluators :func:`posterior_for` offers, in the CLI's order.
METHODS = ("closed", "sum", "oracle", "approx")


def posterior_for(
    kind: str,
    n: int,
    k: int,
    p: Optional[Scalar] = None,
    method: Literal["closed", "sum", "oracle", "approx"] = "closed",
    exact: Optional[bool] = None,
) -> Scalar:
    """Posterior single-target vulnerability of a mechanism in
    :data:`MECHANISMS` over n records and k letters, p required unless
    shuffling alone, which is noise then shuffle at p = 1; n, k and p
    are checked here, once.

    method 'closed' uses the fast forms (the single-binomial mode form
    for k = 2, the bounded-load recursion and the linear relation for
    k > 2); 'sum' the direct sum over partition shapes for every k;
    'oracle' the brute force of :func:`~rrshuffle.oracle.oracle_posterior`
    over the stages ``kind`` split at '-', at the rational p denotes
    raised to 1/k if below it, a ``Fraction`` in either mode; 'approx' the
    asymptotic estimate.

    One scalar-mode rule: ``exact`` if given, else exact for n <= 64
    and an exact p.  In exact mode a float p is read as the rational it
    denotes and the result is a ``Fraction``; otherwise it is a float.
    The one-point case of :func:`posterior_sweep`.
    """
    ps = () if kind == "shuffle" or p is None else (p,)
    ((*_, value),) = posterior_sweep((kind,), (n,), k, ps, method, exact)
    return value


def posterior_sweep(
    kinds: Sequence[str],
    ns: Sequence[int],
    k: int,
    ps: Sequence[Scalar] = (),
    method: Literal["closed", "sum", "oracle", "approx"] = "closed",
    exact: Optional[bool] = None,
) -> Iterator[tuple[str, int, Optional[Scalar], Scalar]]:
    """:func:`posterior_for` over a grid: (kind, n, p, value) for each
    kind in ``kinds``, each n in ``ns`` and each p in ``ps`` (p None for
    shuffling alone), in that order.

    Each input is checked once, before any value: the kinds, then the
    smallest n, then k, then each p in order, then the method (and that
    it has a form for each kind).  For
    'closed' and 'sum' a value takes two stages.  The first does not
    depend on p and runs once per n for the whole grid: the binary mode
    of :func:`count_mode_probability` for k = 2 and the integer of
    :func:`partition_masses`, both exact in either mode, and for k > 2
    V_S from :func:`v_post_shuffle_general`, once per n and scalar mode
    (a float grid computes shuffling alone exactly for n <= 64 but noise
    then shuffle in binary64, and the float V_S is not the exact one
    rounded).  The second is the arithmetic in p, one integer quotient
    per value: :func:`binary_vulnerability`, :func:`linear_relation` or
    :func:`partition_score`.  Each p is read as the rational it denotes
    once for the whole grid.  'oracle' and 'approx' run per point, the
    oracle at that rational raised to 1/k if below it.
    """
    for kind in kinds:
        if kind not in MECHANISMS:
            raise ValueError("unknown mechanism kind %r" % (kind,))
        if kind != "shuffle" and not ps:
            raise ValueError("mechanism %r needs p" % (kind,))
    require_mechanism(min(ns, default=None), k)
    for p in ps:
        require_mechanism(k=k, p=p)
    if method not in METHODS:
        raise ValueError("method must be 'closed', 'sum', 'oracle' or 'approx'")
    if method == "approx" and "krr" in kinds:
        raise ValueError("no asymptotic form for noise alone; V = p exactly")
    # each p with the rational it denotes, converted once for the grid
    points = [(p, Fraction(p)) for p in ps]
    alone = [(None, Fraction(1))]  # shuffling alone: noise then shuffle at p = 1
    parts: dict = {}  # first-stage values by n, and by scalar mode for V_S
    for kind in kinds:
        for n in ns:
            for p, rational in alone if kind == "shuffle" else points:
                q = 1 if p is None else p
                if method == "oracle":
                    # a float p passes with FLOAT_TOL slack at 1/k, but its
                    # rational may lie just below 1/k, where the oracle refuses it
                    value = oracle_posterior(n, k, kind.split("-"),
                                             max(rational, Fraction(1, k)))
                elif method == "approx":
                    approx = v_approx_shuffle(n, k) if p is None else v_approx_ns(n, k, p)
                    value = approx.value
                else:
                    use_exact = _pick_exact(n, exact, q)
                    if use_exact:
                        q = rational
                    if kind == "krr":
                        value = q if use_exact else float(q)
                    else:
                        key = (n, use_exact) if method == "closed" and k > 2 else n
                        if key not in parts:
                            parts[key] = _p_free_part(n, k, method, use_exact)
                        value = _with_p(kind, n, k, q, method, use_exact, parts[key])
                yield kind, n, p, value


def _p_free_part(n: int, k: int, method: str, exact: bool):
    """The first stage of :func:`posterior_sweep`: what a 'closed' or
    'sum' value of shuffling, alone or after noise, takes from n and k
    alone: for 'sum' the integer of :func:`partition_masses`, for
    'closed' the binary mode at k = 2 and V_S above."""
    if method == "sum":
        return partition_masses(n, k)
    if k == 2:
        return count_mode_probability(n - 1, 0, Fraction(1, 2))
    return v_post_shuffle_general(n, k, exact=exact)


def _with_p(kind: str, n: int, k: int, p: Scalar, method: str, exact: bool,
            part) -> Scalar:
    """The second stage of :func:`posterior_sweep`: the value at p from
    the first stage's ``part``."""
    if method == "sum":
        return partition_score(part, n, k, p, exact)
    if k == 2:
        value = binary_vulnerability(p, part)
        return value if exact else float(value)
    return part if kind == "shuffle" else linear_relation(part, k, p, exact)
