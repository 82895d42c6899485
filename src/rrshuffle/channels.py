"""Channels for per-record randomization and shuffling, and their algebra.

A channel is a row-stochastic matrix from secrets to observables, with
explicit row/column labels.  Secrets here are datasets (tuples of n
attribute values from a k-letter alphabet, position 0 being the target
individual) and observables are either datasets or histograms.

Representation.  A channel holds its rows in ``num``: integer
numerators over one shared denominator ``den`` for an exact channel,
kept reduced (the gcd of ``den`` and every numerator is 1, so ``==`` and
``hash`` compare values), or binary64 entries with ``den`` None for a
float channel.  Both kinds run the same algebra below (cascade,
canonical form, posterior sums); only two things depend on the kind: a
row must sum to ``den`` exactly, or to 1 within ``FLOAT_TOL``; and a
result is divided once by its denominator, or read as binary64.
``Channel(row_labels, col_labels, rows)`` accepts either kind of rows:
rows whose entries are all rationals (``Fraction`` or ``int``) make an
exact channel; any other entry makes a float channel, which stores
binary64 only: every entry is a ``float``, and -0.0 is stored as 0.0.
The float paths below can therefore assume one type.  ``rows`` reads
probabilities in both cases; for an exact channel it builds the
``Fraction`` matrix on first use, so hot paths read ``num`` and ``den``
instead: the reduced noise channel is built as integer products of
per-record reports, and two exact channels are compared for leakage
equivalence on their primitive integer columns, with no ``Fraction``
per entry.

Validation.  Labels and rows are checked once, where they come from
outside: ``Channel(...)`` and :func:`identity_channel`, each row by
:func:`~rrshuffle.scalars.require_distribution`, the probability-vector
rule priors and canonical forms share.  The builders check their
parameters with the input rules of :mod:`rrshuffle.scalars` (n, k and
p, or epsilon) and store the rows they build unchecked;
:func:`cascade` stores the product of two validated channels, and
unpickling a channel's stored form, unchecked too.

Channels are immutable after construction; builders, cascade and the
comparison operations are pure, so values can be shared freely across
threads.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import floordiv, ge, mul, sub, truediv

from .combinatorics import enumerate_histograms, match_weights, record_weights
from .scalars import (
    FLOAT_TOL,
    Scalar,
    all_exact,
    exp_epsilon,
    format_scalar,
    require_distribution,
    require_mechanism,
    stored_rows,
)

#: Default bound on k**n for full (dataset-indexed) channel construction.
DEFAULT_CAP = 2**20


class CapExceededError(ValueError):
    """A construction would enumerate more datasets than the size cap allows."""


class CascadeTypeError(ValueError):
    """Two channels cannot be cascaded: inner dimensions/labels differ."""


# ---------------------------------------------------------------------------
# Alphabets, datasets, histograms and their labels
# ---------------------------------------------------------------------------

_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def value_name(value: int, k: int) -> str:
    """Printable name of attribute value ``value`` in a k-letter alphabet."""
    if not 0 <= value < k:
        raise ValueError("value out of range")
    if k <= len(_LETTERS):
        return _LETTERS[value]
    return "v%d" % value


def dataset_label(x: tuple[int, ...], k: int) -> str:
    """Label of one dataset: its letters, or ``v%d`` names joined by
    ``:`` above 26 values; :func:`dataset_labels` labels them all."""
    if k <= len(_LETTERS):
        return "".join(_LETTERS[v] for v in x)
    return ":".join("v%d" % v for v in x)


def dataset_labels(n: int, k: int) -> tuple[str, ...]:
    """The labels of every dataset of n records, in the order of
    :func:`enumerate_datasets`: one pass over the product of the value
    names, each joined as :func:`dataset_label` joins it."""
    sep = "" if k <= len(_LETTERS) else ":"
    names = [value_name(v, k) for v in range(k)]
    return tuple(map(sep.join, itertools.product(names, repeat=n)))


def histogram_label(counts: tuple[int, ...], k: int) -> str:
    """Label like ``a2:b1`` giving the count of each attribute value."""
    return ":".join("%s%d" % (value_name(j, k), c) for j, c in enumerate(counts))


def enumerate_datasets(n: int, k: int) -> list[tuple[int, ...]]:
    """All datasets of n records, base-k big-endian: the target's value
    (position 0) is the most significant digit."""
    return list(itertools.product(range(k), repeat=n))


def histogram_of(x: tuple[int, ...], k: int) -> tuple[int, ...]:
    counts = [0] * k
    for v in x:
        counts[v] += 1
    return tuple(counts)


def _check_cap(n: int, k: int, cap: int):
    if k**n > cap:
        raise CapExceededError(
            "k**n = %d exceeds the full-channel size cap %d; "
            "raise the cap (--cap) to build this channel" % (k**n, cap)
        )


# ---------------------------------------------------------------------------
# The channel type
# ---------------------------------------------------------------------------


class Channel:
    """Row-stochastic labeled matrix of conditional probabilities.

    Exact: integer rows ``num`` over the shared denominator ``den``.
    Float: binary64 rows ``num``, with ``den`` None.
    """

    __slots__ = ("row_labels", "col_labels", "num", "den", "_rows")

    def __new__(cls, row_labels, col_labels, rows):
        """Channel from rows of probabilities: exact when every entry is
        a ``Fraction`` or an ``int``, binary64 otherwise, stored by
        :func:`~rrshuffle.scalars.stored_rows` (integers over their least
        common denominator, or binary64 with -0.0 stored as 0.0 and a row
        of nonzero floats kept as the same object).  The labels and rows
        are then validated (:meth:`__post_init__`).
        """
        self = cls._stored(row_labels, col_labels, *stored_rows(rows))
        self.__post_init__()
        return self

    @classmethod
    def _stored(cls, row_labels, col_labels, num, den) -> "Channel":
        """Channel from its stored form: integer rows over ``den``,
        reduced here, or binary64 rows with ``den`` None, taken as they
        are.  Rows that are one object stay one object, and are read once.

        Nothing is validated: the callers pass rows built from checked
        parameters (the builders), labels and rows taken from validated
        channels (:func:`cascade`), or a pickled channel.
        """
        if den is not None:
            g, seen = den, set()
            for row in num:
                if id(row) not in seen:
                    seen.add(id(row))
                    g = math.gcd(g, *row)
                    if g == 1:
                        break
            if g > 1:
                den //= g
                reduced: dict[int, tuple[int, ...]] = {}
                for row in num:
                    if id(row) not in reduced:
                        reduced[id(row)] = tuple(map(floordiv, row, itertools.repeat(g)))
                num = [reduced[id(row)] for row in num]
        self = object.__new__(cls)
        for name, value in (("row_labels", tuple(row_labels)),
                            ("col_labels", tuple(col_labels)),
                            ("num", tuple(num)), ("den", den), ("_rows", None)):
            object.__setattr__(self, name, value)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("Channel is immutable")

    def __delattr__(self, name):
        raise AttributeError("Channel is immutable")

    def __reduce__(self):
        return (Channel._stored, (self.row_labels, self.col_labels, self.num, self.den))

    def __post_init__(self):
        """Reject duplicate labels and rows that are not probability rows;
        run only where labels or rows come from outside."""
        if len(set(self.row_labels)) != len(self.row_labels):
            raise ValueError("duplicate row labels")
        if len(set(self.col_labels)) != len(self.col_labels):
            raise ValueError("duplicate column labels")
        if len(self.num) != len(self.row_labels):
            raise ValueError("row count does not match row labels")
        den, ncols = self.den, len(self.col_labels)
        if den is not None and den < 1:
            raise ValueError("denominator must be positive")
        for label, row in zip(self.row_labels, self.num):
            if len(row) != ncols:
                raise ValueError("row %r has wrong width" % label)
            require_distribution("row %r" % (label,), row, den)

    @property
    def rows(self) -> tuple[tuple[Scalar, ...], ...]:
        """The entries as probabilities (``Fraction`` for an exact channel)."""
        if self.den is None:
            return self.num
        if self._rows is None:
            den = self.den
            built: dict[int, tuple[Fraction, ...]] = {}
            for row in self.num:
                if id(row) not in built:
                    built[id(row)] = tuple(Fraction(v, den) for v in row)
            object.__setattr__(self, "_rows", tuple(built[id(row)] for row in self.num))
        return self._rows

    def _key(self):
        return (self.row_labels, self.col_labels, self.den, self.num)

    def __eq__(self, other):
        if not isinstance(other, Channel):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return "Channel(row_labels=%r, col_labels=%r, rows=%r)" % (
            self.row_labels, self.col_labels, self.rows)

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.row_labels), len(self.col_labels))

    def entry(self, row_label: str, col_label: str) -> Scalar:
        i = self.row_labels.index(row_label)
        j = self.col_labels.index(col_label)
        v = self.num[i][j]
        return v if self.den is None else Fraction(v, self.den)

    def is_exact(self) -> bool:
        return self.den is not None

    def to_csv(self, exact: bool = False) -> str:
        """CSV dump: header of column labels, one row per secret.

        Each entry is printed by :func:`~rrshuffle.scalars.format_scalar`:
        the repr of its binary64 value, or its reduced fraction when an
        exact channel is printed with ``exact``; a float channel prints
        its decimals either way.  Rows are grouped by object first, so a
        shared row is hashed once, then by value; each distinct row is
        joined once, from the texts of its entries, and only the values in
        those rows are formatted, each once.  Labels are alphanumeric/colon
        so no quoting is needed; lines end with LF.
        """
        den = self.den
        ids = list(map(id, self.num))
        distinct: dict[tuple, int] = {}
        by_id = {i: distinct.setdefault(row, len(distinct))
                 for i, row in dict(zip(ids, self.num)).items()}
        which = list(map(by_id.__getitem__, ids))
        memo = {v: format_scalar(v if den is None else Fraction(v, den), exact)
                for v in set().union(*distinct)}
        texts = [",".join(map(memo.__getitem__, row)) for row in distinct]
        lines = ["secret," + ",".join(self.col_labels)]
        lines += [label + "," + texts[i] for label, i in zip(self.row_labels, which)]
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------


def _match_counts(n: int, k: int) -> list[tuple[int, ...]]:
    """Row x, column y: the number of positions where datasets x and y
    agree, in the order of :func:`enumerate_datasets`."""
    rows = [(0,)]
    for _ in range(n):
        bumped = [tuple(c + 1 for c in r) for r in rows]
        rows = [
            r * v + b + r * (k - 1 - v)
            for v in range(k)
            for r, b in zip(rows, bumped)
        ]
    return rows


def build_krr(n: int, k: int, p: Scalar, cap: int = DEFAULT_CAP) -> Channel:
    """Per-record randomized response over whole datasets (k**n x k**n).

    Each record independently keeps its value with probability p and
    switches to any specific other value with probability (1-p)/(k-1),
    so the entry at (x, y) is p**matches * ((1-p)/(k-1))**mismatches.
    """
    require_mechanism(n, k, p)
    _check_cap(n, k, cap)
    labels = dataset_labels(n, k)
    weights, den = match_weights(n, k, p)
    rows = [tuple(map(weights.__getitem__, counts)) for counts in _match_counts(n, k)]
    return Channel._stored(labels, labels, rows, den)


def _histograms(n: int, k: int) -> list[tuple[int, ...]]:
    """The histogram of each dataset, in the order of :func:`enumerate_datasets`."""
    return [histogram_of(x, k) for x in enumerate_datasets(n, k)]


def build_shuffle_full(n: int, k: int, cap: int = DEFAULT_CAP) -> Channel:
    """Uniform permutation of the records (k**n x k**n).

    Every output dataset with the input's histogram is equally likely:
    entry (x, y) is 1/#h(x) when h(y) = h(x) and 0 otherwise.
    """
    require_mechanism(n, k)
    _check_cap(n, k, cap)
    hists = _histograms(n, k)
    labels = dataset_labels(n, k)
    members: dict[tuple[int, ...], list[int]] = {}
    for j, h in enumerate(hists):
        members.setdefault(h, []).append(j)
    den = math.lcm(*(len(js) for js in members.values()))
    shared = {}  # one row object per histogram class
    for h, js in members.items():
        row = [0] * len(hists)
        for j in js:
            row[j] = den // len(js)
        shared[h] = tuple(row)
    return Channel._stored(labels, labels, [shared[h] for h in hists], den)


def build_shuffle_reduced(n: int, k: int, cap: int = DEFAULT_CAP) -> Channel:
    """Deterministic dataset-to-histogram channel (k**n x #histograms)."""
    require_mechanism(n, k)
    _check_cap(n, k, cap)
    hist_list = enumerate_histograms(n, k)
    shared = {}  # one row object per histogram class
    for j, h in enumerate(hist_list):
        row = [0] * len(hist_list)
        row[j] = 1
        shared[h] = tuple(row)
    return Channel._stored(
        dataset_labels(n, k),
        tuple(histogram_label(h, k) for h in hist_list),
        [shared[h] for h in _histograms(n, k)],
        1,
    )


def build_krr_reduced(n: int, k: int, p: Scalar) -> Channel:
    """Randomized response lifted to histograms (#histograms x #histograms).

    The entry at (z1, z2) is the probability that per-record noise maps a
    dataset with histogram z1 to some dataset with histogram z2.  Records
    report independently, so row z1 holds the coefficients of the product
    over the values v of (keep x_v + move sum_{j != v} x_j)^z1[v], with
    the per-record weights of
    :func:`~rrshuffle.combinatorics.record_weights`.  The row of z1 is
    the row of z1 - e_v times one such factor, so rows are built one
    record count at a time, keeping only the previous count's rows.  It
    never touches the k**n datasets.  Its references, in
    :mod:`rrshuffle.reference`, are the transfer-table sum
    ``krr_histogram_transition`` and the literal noise then shuffle stage.
    """
    require_mechanism(n, k, p)
    hists, rows, den, _ = _reduced_noise(n, k, p)
    labels = tuple(histogram_label(h, k) for h in hists)
    return Channel._stored(labels, labels, rows, den)


def _reduced_noise(n: int, k: int, p: Scalar, by_dataset: bool = False):
    """(histograms, rows, den, classes) of :func:`build_krr_reduced`: the
    histograms of n records in the order of :func:`enumerate_histograms`,
    the integer rows over ``den`` (not reduced) or binary64 rows with
    ``den`` None, and with ``by_dataset`` the position of each dataset's
    histogram, in the order of :func:`enumerate_datasets` (else None:
    there are k**n of them, and :func:`build_krr_reduced` has no cap).
    Dataset (x, v) has the histogram of x plus e_v, so the positions are
    carried from one record count to the next with the rows.
    """
    keep, move, base = record_weights(k, p)
    zero = 0.0 if base is None else 0
    # factors[v]: the report weights of one record of value v
    factors = [[keep if u == v else move for u in range(k)] for v in range(k)]
    hists, rows, classes = [(0,) * k], [(1,)], [0]
    for m in range(1, n + 1):
        level = enumerate_histograms(m, k)
        index = {h: j for j, h in enumerate(level)}
        # targets[i][v]: the position at this count of hists[i] + e_v
        targets = [[index[h[:v] + (h[v] + 1,) + h[v + 1:]] for v in range(k)]
                   for h in hists]
        # source[j]: the row of z - e_v and the factor of v, for z = level[j]
        # and the first value v that z holds: hists ascend, so the first
        # previous histogram to reach z is z - e_v for that v
        source = [None] * len(level)
        for row, to in zip(rows, targets):
            for j, factor in zip(to, factors):
                if source[j] is None:
                    source[j] = row, factor
        new = []
        for row, factor in source:
            acc = [zero] * len(level)
            for c, to in zip(row, targets):
                if c:
                    for j, f in zip(to, factor):
                        acc[j] += c * f
            new.append(tuple(acc))
        if by_dataset:
            classes = [j for c in classes for j in targets[c]]
        hists, rows = level, new
    return hists, rows, None if base is None else base**n, classes if by_dataset else None


def build_krr_shuffle(n: int, k: int, p: Scalar, cap: int = DEFAULT_CAP,
                      reduced: bool = False) -> Channel:
    """Per-record randomized response, then shuffling (k**n x k**n), or
    with ``reduced`` the histogram of the noisy dataset
    (k**n x #histograms).

    The composition sees a dataset only through its histogram, and k-RR
    commutes with shuffling, so this is also shuffling then noise.  Its
    entry (x, y) is R[h(x), h(y)] / #h(y), where R is the reduced noise
    channel of :func:`build_krr_reduced`, built once, and #h(y) the
    number of datasets with histogram h(y); reduced, it is R[h(x), z].
    Every dataset of one histogram shares one row object.  Exact rows
    are R's integers times lcm(#h) / #h(y) over R's denominator times
    lcm(#h); float rows are R's binary64 entries divided by #h(y).
    Its reference, full or reduced, is the literal k-RR stage summed over
    each histogram class, ``literal_shuffled(literal_krr(n, k, p), n, k)``
    of :mod:`rrshuffle.reference`.
    """
    require_mechanism(n, k, p)
    _check_cap(n, k, cap)
    hists, noise, den, classes = _reduced_noise(n, k, p, by_dataset=True)
    labels = dataset_labels(n, k)
    if reduced:
        return Channel._stored(labels, (histogram_label(h, k) for h in hists),
                               list(map(noise.__getitem__, classes)), den)
    # #h = n! / (h_0! ... h_{k-1}!) datasets have histogram h
    counts = [math.factorial(n) // math.prod(map(math.factorial, h)) for h in hists]
    if den is None:
        scaled = [list(map(truediv, row, counts)) for row in noise]
    else:
        lcm = math.lcm(*counts)
        den *= lcm
        scale = [lcm // c for c in counts]
        scaled = [list(map(mul, row, scale)) for row in noise]
    shared = [tuple(map(entries.__getitem__, classes)) for entries in scaled]
    return Channel._stored(labels, labels, list(map(shared.__getitem__, classes)), den)


# ---------------------------------------------------------------------------
# Cascade (sequential composition = matrix product)
# ---------------------------------------------------------------------------


def cascade(first: Channel, second: Channel) -> Channel:
    """Sequential composition: ``second`` post-processes ``first``.

    Ordinary matrix multiplication; requires the output labels of
    ``first`` to be exactly the input labels of ``second``.  Exact
    channels multiply their integer rows over the denominator
    ``first.den * second.den``; otherwise the same product runs in
    binary64, an exact factor read as correctly rounded floats.
    """
    if first.col_labels != second.row_labels:
        raise CascadeTypeError(
            "inner dimensions/labels differ: first outputs %d labels "
            "(%s, ...), second inputs %d labels (%s, ...)"
            % (
                len(first.col_labels),
                first.col_labels[0] if first.col_labels else "",
                len(second.row_labels),
                second.row_labels[0] if second.row_labels else "",
            )
        )
    ncols = len(second.col_labels)
    if first.is_exact() and second.is_exact():
        rows, den = _matmul(first.num, second.num, ncols, 0), first.den * second.den
    else:
        rows, den = _matmul(_binary64(first), _binary64(second), ncols, 0.0), None
    return Channel._stored(first.row_labels, second.col_labels, rows, den)


def _matmul(A, B, ncols: int, zero) -> list[tuple]:
    """Sparse product A B, its entries starting from ``zero``.

    Each distinct row of B keeps only its nonzero entries.  When the rows
    of B are all distinct (a noise factor), a row of A is its own list of
    weights: only its nonzero entries are visited (``itertools.compress``),
    each scaling its row of B.  When B has equal rows (all rows of one
    shuffle class), they are grouped in first-appearance order, and the
    entries of a row of A over each group are added by ``sum`` first; a
    zero weight is skipped.  Both ways give each entry the same sum of
    the same products in the same order.  Equal rows of A give one
    shared product row.  It stays apart from ``oracle._times``, which
    takes k vectors through a matrix by grouping rows on their weights
    in all k: run that way, every cascade but shuffle then noise was
    slower (its docstring has the measurements).
    """
    groups: dict[tuple, list[int]] = {}
    for i, brow in enumerate(B):
        groups.setdefault(brow, []).append(i)
    plan = [
        (members, list(itertools.compress(enumerate(brow), brow)))
        for brow, members in groups.items()
    ]
    distinct = len(plan) == len(B)
    nonzeros = [nonzero for _, nonzero in plan]
    products: dict[tuple, tuple] = {}
    out = []
    for arow in A:
        product = products.get(arow)
        if product is None:
            acc = [zero] * ncols
            if distinct:
                for w, nonzero in itertools.compress(zip(arow, nonzeros), arow):
                    for j, v in nonzero:
                        acc[j] += w * v
            else:
                for members, nonzero in plan:
                    w = sum(map(arow.__getitem__, members))
                    if w:
                        for j, v in nonzero:
                            acc[j] += w * v
            product = products[arow] = tuple(acc)
        out.append(product)
    return out


def _binary64(channel: Channel):
    """Rows as binary64; an exact entry becomes its correctly rounded float.

    Each row object is converted once, in one C-level pass, so rows that
    are one object (one shuffle class) stay one object.
    """
    if channel.den is None:
        return channel.num
    den = itertools.repeat(channel.den)
    converted: dict[int, tuple[float, ...]] = {}
    for row in channel.num:
        if id(row) not in converted:
            converted[id(row)] = tuple(map(truediv, row, den))
    return [converted[id(row)] for row in channel.num]


def identity_channel(labels: tuple[str, ...]) -> Channel:
    """The noiseless channel over ``labels``, validated by ``Channel(...)``."""
    m = len(labels)
    return Channel(labels, labels, [[int(i == j) for j in range(m)] for i in range(m)])


# ---------------------------------------------------------------------------
# Canonical form and leakage equivalence
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CanonicalChannel:
    """Leakage-relevant core of a channel under the uniform prior.

    Holds the sorted (outer probability, posterior column) pairs with
    proportional columns merged and zero columns dropped.  Two channels
    over the same secrets leak identically for every prior and gain
    function exactly when their canonical forms coincide.
    """

    row_labels: tuple[str, ...]
    columns: tuple[tuple[Scalar, tuple[Scalar, ...]], ...]

    def __post_init__(self):
        outer = [outer for outer, _ in self.columns]
        if outer:  # empty only for a channel with no rows
            require_distribution("outer distribution", outer, 1 if all_exact(outer) else None)


def canonicalize(channel: Channel) -> CanonicalChannel:
    """Group the nonzero columns by their normalized posterior, sum each
    class's mass into its outer probability, and sort.

    Exact columns fall in one class when their primitive integer vectors
    (the column over its gcd) are equal, and the ``Fraction`` posteriors
    and outer probabilities are built from those classes
    (:func:`_exact_classes`); float columns fall in one class when their
    posteriors, column / column sum, agree entrywise within
    ``FLOAT_TOL``.
    """
    nrows = len(channel.row_labels)
    if channel.den is None:
        classes = [(mass / nrows, posterior)
                   for posterior, mass in _float_classes(channel.num)]
    else:
        scale = channel.den * nrows
        classes = []
        for key, mass in _exact_classes(channel.num).items():
            total = sum(key)
            classes.append((Fraction(mass, scale), tuple(Fraction(v, total) for v in key)))
    return CanonicalChannel(channel.row_labels, tuple(sorted(classes)))


def _exact_classes(num) -> dict[tuple[int, ...], int]:
    """{primitive integer column: summed integer mass} over the nonzero
    columns of the integer rows ``num``: each column divided by its gcd,
    the sums of the columns with equal primitive vectors added."""
    merged: dict[tuple[int, ...], int] = {}
    for col in zip(*num):
        g = math.gcd(*col)
        if g:
            key = col if g == 1 else tuple(v // g for v in col)
            merged[key] = merged.get(key, 0) + sum(col)
    return merged


def _within_tol(xs, ys) -> bool:
    """|x - y| <= FLOAT_TOL for every pair of entries, in C-level passes."""
    return all(map(ge, itertools.repeat(FLOAT_TOL), map(abs, map(sub, xs, ys))))


def _float_classes(num) -> list[list]:
    """[posterior, summed mass] for each class of float posteriors.

    The per-column work runs in C-level passes over the rows ``num``:
    ``sum`` over each column gives its total, and zipping one lazy
    ``map(truediv, row, totals)`` per row gives each column's posterior
    key, a zero total read as 1 (the column is skipped).  Equal keys are
    merged by hashing, each nonzero column's total added to its key's
    mass in column order.  The distinct keys are then taken in
    lexicographic order, each joining the latest earlier class whose
    posterior is within ``FLOAT_TOL`` entrywise; only classes whose first
    entry is within ``FLOAT_TOL`` of its own are candidates.
    """
    totals = list(map(sum, zip(*num)))
    safe = [total or 1.0 for total in totals]
    keys = zip(*[map(truediv, row, safe) for row in num])
    merged: dict[tuple[float, ...], float] = {}
    for key, total in zip(keys, totals):
        if total:
            merged[key] = merged.get(key, 0.0) + total
    classes: list[list] = []
    for key in sorted(merged):
        near = itertools.takewhile(lambda c: c[0][0] >= key[0] - FLOAT_TOL,
                                   reversed(classes))
        match = next((c for c in near if _within_tol(c[0], key)), None)
        if match is None:
            classes.append([key, merged[key]])
        else:
            match[1] += merged[key]
    return classes


def equivalent(a: Channel, b: Channel) -> bool:
    """Leakage equivalence: the classes of the two canonical forms match
    one to one, outer probability and posterior entrywise.

    Two exact channels are compared on the integers they store: the same
    primitive integer columns, each with mass_a * den_b == mass_b * den_a.
    When either side is float, entries are compared within ``FLOAT_TOL``.
    The channels must share their secret (row) labels.
    """
    if a.row_labels != b.row_labels:
        raise ValueError("channels have different secret labels")
    if a.is_exact() and b.is_exact():
        ours, theirs = _exact_classes(a.num), _exact_classes(b.num)
        return ours.keys() == theirs.keys() and all(
            mass * b.den == theirs[key] * a.den for key, mass in ours.items())
    columns, rest = canonicalize(a).columns, list(canonicalize(b).columns)
    if len(columns) != len(rest):
        return False
    for outer, posterior in columns:
        match = next((i for i, (o, q) in enumerate(rest)
                      if abs(outer - o) <= FLOAT_TOL and _within_tol(posterior, q)), None)
        if match is None:
            return False
        del rest[match]
    return True


# ---------------------------------------------------------------------------
# Differential-privacy ratio checks
# ---------------------------------------------------------------------------


def verify_ldp(channel: Channel, epsilon: float) -> bool:
    """Check the local-DP ratio bound on a single-user channel.

    True iff within every column the largest entry is at most e^epsilon
    (within ``FLOAT_TOL``) times the smallest nonzero entry, and no
    column mixes zero with nonzero entries (which would force an
    infinite ratio).  An epsilon ``exp_epsilon`` refuses raises ``ValueError``.
    """
    bound = exp_epsilon(epsilon) + FLOAT_TOL
    for col in zip(*channel.rows):
        nonzero = [e for e in col if e > 0]
        if not nonzero:
            continue
        if len(nonzero) != len(col):
            return False
        if max(nonzero) > bound * min(nonzero):
            return False
    return True


def verify_dp_adjacent(channel: Channel, n: int, k: int, epsilon: float) -> bool:
    """Check the DP ratio bound over adjacent datasets.

    The channel's rows must be the standard dataset enumeration for
    (n, k).  True iff for every pair of datasets differing in exactly
    one record and every output, the probability ratio is at most
    e^epsilon (within ``FLOAT_TOL``); ``exp_epsilon`` checks epsilon.
    """
    bound = exp_epsilon(epsilon) + FLOAT_TOL
    if channel.row_labels != dataset_labels(n, k):
        raise ValueError("channel rows are not the dataset enumeration for (n, k)")
    X = enumerate_datasets(n, k)
    index = {x: i for i, x in enumerate(X)}
    for x in X:
        rx = channel.rows[index[x]]
        for pos in range(n):
            for v in range(x[pos] + 1, k):
                y = x[:pos] + (v,) + x[pos + 1 :]
                ry = channel.rows[index[y]]
                for a, b in zip(rx, ry):
                    if (a > 0) != (b > 0):
                        return False
                    if a and b and (a > bound * b or b > bound * a):
                        return False
    return True


# ---------------------------------------------------------------------------
# The two introductory mechanisms over a binary alphabet
# ---------------------------------------------------------------------------


def _reporter(n: int, epsilon: float, exact: bool, bit) -> Channel:
    """2**n x 2 channel over outputs {0, 1} that reports ``bit(x)`` of
    dataset x with probability e^eps/(1+e^eps) and its complement with
    1/(1+e^eps): integer weights over e^eps's numerator plus denominator
    when ``exact`` (e^eps read as the rational its binary64 value
    denotes), else the two float probabilities."""
    require_mechanism(n, 2)
    e = exp_epsilon(epsilon)
    if exact:
        truth, lie = e.as_integer_ratio()
        den = truth + lie
    else:
        truth = e / (1 + e)
        lie, den = 1 - truth, None
    rows = [(lie, truth) if bit(x) else (truth, lie) for x in enumerate_datasets(n, 2)]
    return Channel._stored(dataset_labels(n, 2), ("0", "1"), rows, den)


def build_last_record_reporter(n: int, epsilon: float, exact: bool = True) -> Channel:
    """Binary mechanism that reports the last record's bit, or its
    complement, with probabilities e^eps/(1+e^eps) and 1/(1+e^eps).

    A 2**n x 2 channel over outputs {0, 1}.
    """
    return _reporter(n, epsilon, exact, lambda x: x[-1])


def build_parity_masked_reporter(n: int, epsilon: float, exact: bool = True) -> Channel:
    """Variant that inverts the report probabilities whenever the binary
    sum (parity) of the other records is 1, so it reports the parity of
    all n records.

    Equally private as :func:`build_last_record_reporter` against an
    adversary who already knows every other record, yet its output is
    independent of the last record under a uniform prior.  With n = 1
    the parity of the empty record set is 0 and the two mechanisms
    coincide.
    """
    return _reporter(n, epsilon, exact, lambda x: sum(x) % 2)
