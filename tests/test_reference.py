"""The reference layer: literal stages against the builders,
multinomials, partitions and histogram transitions, its input rules,
and the import order of the package's modules."""

import ast
import itertools
import math
import re
import sys
from fractions import Fraction
from functools import lru_cache
from operator import mul
from pathlib import Path

import pytest

import rrshuffle
from rrshuffle.channels import (
    build_krr,
    build_krr_reduced,
    build_krr_shuffle,
    build_shuffle_full,
    build_shuffle_reduced,
)
from rrshuffle.combinatorics import enumerate_histograms
from rrshuffle.reference import (
    compositions,
    datasets,
    histogram,
    krr_histogram_transition,
    literal_krr,
    literal_shuffle,
    literal_shuffled,
    log_multinomial,
    multinomial,
    oracle_histogram_transition,
    partitions,
    transfer_tables,
)

# ---------------------------------------------------------------------------
# literal stages
# ---------------------------------------------------------------------------

#: Every (n, k) with k**n <= 243 and k <= 15: n = 1 stops at the k of n = 2,
#: since one record's k x k stages at k = 16..243 would add some 45 s.
STAGE_GRID = [(n, k) for k in range(2, 16) for n in range(1, 8) if k**n <= 243]


def assert_entries(channel, stage):
    """The channel's integers over its denominator equal the literal
    stage's, entry for entry: its denominator divides the stage's, so
    each entry is compared scaled to the stage's denominator."""
    rows, den = stage
    assert all(sum(row) == den for row in rows)
    scale, rest = divmod(den, channel.den)
    assert rest == 0
    assert [list(map(mul, row, itertools.repeat(scale))) for row in channel.num] == rows


@pytest.mark.parametrize("n, k", STAGE_GRID)
def test_literal_stages_equal_the_builders_entry_for_entry(n, k):
    assert_entries(build_shuffle_full(n, k), literal_shuffle(n, k))
    assert_entries(build_shuffle_reduced(n, k), literal_shuffle(n, k, reduced=True))
    hists = [histogram(x, k) for x in datasets(n, k)]
    first = [hists.index(z) for z in compositions(n, k)]  # one dataset per histogram
    for p in sorted({Fraction(1, k), max(Fraction(3, 5), Fraction(1, k)), Fraction(1)}):
        noise = literal_krr(n, k, p)
        assert_entries(build_krr(n, k, p), noise)
        assert_entries(build_krr_shuffle(n, k, p), literal_shuffled(noise, n, k))
        sums, den = literal_shuffled(noise, n, k, reduced=True)
        assert_entries(build_krr_shuffle(n, k, p, reduced=True), (sums, den))
        assert_entries(build_krr_reduced(n, k, p), ([sums[i] for i in first], den))


def test_compositions_are_every_count_vector_in_lexicographic_order():
    for n in range(7):
        for k in range(1, 6):
            literal = [h for h in itertools.product(range(n + 1), repeat=k) if sum(h) == n]
            assert list(compositions(n, k)) == literal, (n, k)


# ---------------------------------------------------------------------------
# multinomials and partitions
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def count_partitions_atmost(n, k):
    """Partitions of n into at most k parts, by the standard recurrence."""
    if n == 0:
        return 1
    if k == 0 or n < 0:
        return 0
    return count_partitions_atmost(n - k, k) + count_partitions_atmost(n, k - 1)


def test_multinomial_examples():
    assert multinomial(3, [2, 1]) == 3
    assert multinomial(6, [2, 3, 1]) == 60
    assert multinomial(4, [4, 0, 0]) == 1


def test_multinomial_matches_factorials():
    for parts in itertools.product(range(5), repeat=3):
        n = sum(parts)
        expected = math.factorial(n)
        for p in parts:
            expected //= math.factorial(p)
        assert multinomial(n, list(parts)) == expected


def test_multinomial_sum_mismatch():
    with pytest.raises(ValueError, match="sum to n"):
        multinomial(5, [2, 2])
    with pytest.raises(ValueError):
        multinomial(2, [3, -1])


def test_multinomials_over_compositions_total_k_to_n():
    for k in (2, 3, 4):
        for n in range(0, 8):
            total = sum(
                multinomial(n, comp)
                for comp in itertools.product(range(n + 1), repeat=k)
                if sum(comp) == n
            )
            assert total == k**n


def test_log_multinomial_accuracy():
    for parts in [(3, 3), (10, 5, 5), (500, 300, 200)]:
        n = sum(parts)
        exact = math.log(multinomial(n, parts))
        assert abs(log_multinomial(n, parts) - exact) < 1e-9


def test_partitions_6_into_3():
    got = list(partitions(6, 3))
    assert got == [
        (6,), (5, 1), (4, 2), (4, 1, 1), (3, 3), (3, 2, 1), (2, 2, 2),
    ]


def test_partitions_empty_case():
    assert list(partitions(0, 3)) == [()]


def test_partitions_20_into_6_contains_88_1111():
    match = [p for p in partitions(20, 6) if p == (8, 8, 1, 1, 1, 1)]
    assert len(match) == 1


def test_partitions_count_matches_recurrence():
    for n in range(0, 31):
        for k in range(1, 9):
            assert sum(1 for _ in partitions(n, k)) == count_partitions_atmost(n, k)


def test_partitions_order_and_invariants():
    for n, k in [(9, 4), (12, 3), (7, 7)]:
        seen = list(partitions(n, k))
        assert seen == sorted(seen, reverse=True)
        assert len(set(seen)) == len(seen)
        for parts in seen:
            assert sum(parts) == n
            assert len(parts) <= k
            assert list(parts) == sorted(parts, reverse=True)


def test_partitions_validation():
    with pytest.raises(ValueError):
        list(partitions(-1, 3))
    with pytest.raises(ValueError):
        list(partitions(3, 0))


# ---------------------------------------------------------------------------
# histogram transitions
# ---------------------------------------------------------------------------


def test_binary_transfer_tables_match_literal_enumeration():
    # every 2x2 table of counts in lexicographic order of its entries,
    # filed under its row and column sums
    for n in range(13):
        tables = {}
        for t in itertools.product(range(n + 1), repeat=4):
            if sum(t) == n:
                z_in, z_out = (t[0] + t[1], t[2] + t[3]), (t[0] + t[2], t[1] + t[3])
                ways = multinomial(z_in[0], t[:2]) * multinomial(z_in[1], t[2:])
                tables.setdefault((z_in, z_out), []).append((ways, t[0] + t[3]))
        assert len(tables) == (n + 1) ** 2
        for (z_in, z_out), want in tables.items():
            assert list(transfer_tables(z_in, z_out)) == want


def test_histogram_transition_symbolic_entries():
    p = Fraction(3, 4)
    assert krr_histogram_transition((3, 0), (3, 0), p) == p**3
    assert krr_histogram_transition((2, 1), (3, 0), p) == p**2 * (1 - p)
    assert krr_histogram_transition((2, 1), (2, 1), p) == Fraction(33, 64)
    assert float(Fraction(33, 64)) == 0.515625


@pytest.mark.parametrize("p", [Fraction(1, 2), Fraction(3, 5), Fraction(3, 4), Fraction(1)])
def test_histogram_transition_rows_normalize(p):
    for n in range(1, 9):
        for a_in in range(n + 1):
            total = sum(
                krr_histogram_transition((a_in, n - a_in), (a_out, n - a_out), p)
                for a_out in range(n + 1)
            )
            assert total == 1


@pytest.mark.parametrize("k, max_n, ps", [
    (2, 8, (Fraction(1, 2), Fraction(3, 5), Fraction(3, 4), Fraction(1))),
    (3, 4, (Fraction(1, 3), Fraction(3, 5), Fraction(1))),
    (4, 3, (Fraction(1, 4), Fraction(3, 5), Fraction(1))),
])
def test_histogram_transition_matches_enumeration(k, max_n, ps):
    # the transfer-table sum against the sum over every output dataset,
    # from one dataset per input histogram
    for p in ps:
        for n in range(1, max_n + 1):
            hists = enumerate_histograms(n, k)
            for z_in in hists:
                x = tuple(v for v, count in enumerate(z_in) for _ in range(count))
                for z_out in hists:
                    assert krr_histogram_transition(z_in, z_out, p) == (
                        oracle_histogram_transition(x, z_out, p)
                    )


def test_general_k_histogram_transition_forms_and_modes():
    exact = krr_histogram_transition((2, 1, 1), (1, 1, 2), Fraction(3, 5))
    approx = krr_histogram_transition((2, 1, 1), (1, 1, 2), 0.6)
    assert isinstance(exact, Fraction)
    assert abs(approx - exact) <= 1e-12
    with pytest.raises(ValueError, match="count-sum mismatch"):
        krr_histogram_transition((2, 1, 1), (1, 1, 1), Fraction(3, 5))
    with pytest.raises(ValueError, match="count-sum mismatch"):
        krr_histogram_transition((2, 1), (2, 2), Fraction(3, 4))
    with pytest.raises(ValueError, match="same length"):
        krr_histogram_transition((2, 1, 1), (3, 1), Fraction(3, 5))
    with pytest.raises(ValueError, match="must lie in"):
        krr_histogram_transition((2, 1, 1), (1, 1, 2), Fraction(1, 4))
    with pytest.raises(ValueError, match="must lie in"):
        krr_histogram_transition((1, 1), (1, 1), Fraction(1, 4))


def test_oracle_histogram_transition_examples():
    p = Fraction(3, 4)
    # three datasets share the (2, 1) histogram; summing their noise
    # probabilities from aab gives 33/64
    assert oracle_histogram_transition((0, 0, 1), (2, 1), p) == Fraction(33, 64)
    assert oracle_histogram_transition((0, 0, 1), (2, 1), Fraction(1)) == 1
    total = sum(
        oracle_histogram_transition((0, 0, 1), (a, 3 - a), p) for a in range(4)
    )
    assert total == 1


def test_oracle_histogram_transition_general_k():
    p = Fraction(1, 2)
    x = (0, 1, 2)
    total = Fraction(0)
    for z in itertools.product(range(4), repeat=3):
        if sum(z) != 3:
            continue
        total += oracle_histogram_transition(x, z, p)
    assert total == 1


def test_oracle_histogram_transition_validation():
    with pytest.raises(ValueError, match="sum"):
        oracle_histogram_transition((0, 1), (1, 2), Fraction(3, 4))
    with pytest.raises(ValueError, match="rational-only"):
        oracle_histogram_transition((0, 1), (1, 1), 0.75)


# ---------------------------------------------------------------------------
# input rules
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("x, z, p", [
    ((0, 1), (3, -1), Fraction(3, 4)),  # a negative count, once read as 0
    ((0, 1), (1, 1), Fraction(1, 10)),  # p below 1/k, once 41/50
    ((0, 1), (1, 1), Fraction(3, 2)),  # p above 1, once 5/2
    ((0, 0), (2,), Fraction(1, 2)),  # one letter, once ZeroDivisionError
])
def test_oracle_histogram_transition_refuses_what_the_transfer_table_sum_refuses(x, z, p):
    with pytest.raises(ValueError) as refused:
        krr_histogram_transition(tuple(map(x.count, range(len(z)))), z, p)
    with pytest.raises(ValueError, match=re.escape(str(refused.value))):
        oracle_histogram_transition(x, z, p)


# ---------------------------------------------------------------------------
# module layering
# ---------------------------------------------------------------------------

PACKAGE = Path(rrshuffle.__file__).resolve().parent
#: The package's modules, each importing only from modules before it.
ORDER = ("scalars", "reference", "combinatorics", "channels", "oracle", "closed_forms",
         "vulnerability", "checks", "cli")
#: What a module may import from ``reference``: the names the benchmark
#: under bench/ reads through it, and the references the check suites run.
FROM_REFERENCE = {
    "combinatorics": {"krr_histogram_transition", "log_multinomial", "multinomial",
                      "partitions"},
    "oracle": {"ORACLE_CAP", "oracle_histogram_transition"},
    "closed_forms": {"max_load_counts"},
    "checks": {"abo_transition_sum"},
}


def _imports(tree):
    """(inside, name, names) for each import in ``tree``: whether it is of
    this package, the package module it names (``__init__`` for the
    package itself) or else the top-level name, and the names read from
    it, None for the whole module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found = [(alias.name, None) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level and not node.module:
            found = [("rrshuffle." + alias.name, None) for alias in node.names]  # from . import
        elif isinstance(node, ast.ImportFrom):
            found = [(("rrshuffle." if node.level else "") + node.module,
                      [alias.name for alias in node.names])]
        else:
            continue
        for name, names in found:
            top, _, rest = name.partition(".")
            if top == "rrshuffle":
                yield True, rest.split(".")[0] or "__init__", names
            else:
                yield False, top, names


def layering_faults(package: Path) -> list[str]:
    """Each import of the package's modules (``__init__`` aside) that
    points up :data:`ORDER`, names an undeclared module, reads a name of
    ``reference`` outside :data:`FROM_REFERENCE`, or, in ``reference``,
    reaches outside the standard library."""
    faults = []
    for path in sorted(package.glob("*.py")):
        module = path.stem
        if module == "__init__":
            continue
        if module not in ORDER:
            faults.append("%s is not in the declared order" % module)
            continue
        for inside, name, names in _imports(ast.parse(path.read_text())):
            if not inside:
                if module == "reference" and name not in sys.stdlib_module_names:
                    faults.append("reference imports %s" % name)
            elif name not in ORDER or ORDER.index(name) >= ORDER.index(module):
                faults.append("%s imports %s" % (module, name))
            elif name == "reference":
                faults += ["%s imports %s from reference" % (module, read)
                           for read in names or ["the module"]
                           if read not in FROM_REFERENCE.get(module, ())]
    return faults


def test_every_module_imports_only_from_modules_below_it():
    assert layering_faults(PACKAGE) == []


@pytest.mark.parametrize("module, line, fault", [
    ("reference", "from .channels import cascade", "reference imports channels"),
    ("reference", "import numpy", "reference imports numpy"),
    ("scalars", "from . import cli", "scalars imports cli"),
    ("channels", "from .reference import literal_krr",
     "channels imports literal_krr from reference"),
    ("oracle", "from . import reference", "oracle imports the module from reference"),
    ("closed_forms", "from .reference import multinomial",
     "closed_forms imports multinomial from reference"),
])
def test_a_planted_import_is_a_layering_fault(tmp_path, module, line, fault):
    for path in PACKAGE.glob("*.py"):
        text = path.read_text()
        if path.stem == module:
            text += "\n%s\n" % line
        (tmp_path / path.name).write_text(text)
    assert layering_faults(tmp_path) == [fault]


# ---------------------------------------------------------------------------
# reads of a channel's probability view
# ---------------------------------------------------------------------------

#: Where the package may read an attribute named ``rows``: a channel holds
#: its entries once, in ``num`` over ``den``, and only its ``repr`` reads
#: the probabilities that ``Channel.rows`` builds from them.
READS_ROWS = {("channels", "Channel.rows"), ("channels", "Channel.__repr__")}


def _rows_reads(node, scope=()):
    """The qualified name of the function or class around each read of an
    attribute named ``rows`` under ``node``, "" at module level."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _rows_reads(child, scope + (child.name,))
            continue
        if (isinstance(child, ast.Attribute) and child.attr == "rows"
                and isinstance(child.ctx, ast.Load)):
            yield ".".join(scope)
        yield from _rows_reads(child, scope)


def rows_faults(package: Path) -> list[str]:
    """Each read of an attribute named ``rows`` in the package's modules
    outside :data:`READS_ROWS`."""
    return ["%s reads .rows in %s" % (path.stem, where or "the module body")
            for path in sorted(package.glob("*.py"))
            for where in _rows_reads(ast.parse(path.read_text()))
            if (path.stem, where) not in READS_ROWS]


def test_only_a_channels_repr_reads_its_rows():
    assert rows_faults(PACKAGE) == []


@pytest.mark.parametrize("module, text, fault", [
    ("channels", "def _planted(channel):\n    return channel.rows",
     "channels reads .rows in _planted"),
    ("checks", "class Planted:\n    def run(self, chan):\n        return len(chan.rows)",
     "checks reads .rows in Planted.run"),
    ("cli", "class Channel:\n    def __repr__(self):\n        return repr(self.rows)",
     "cli reads .rows in Channel.__repr__"),
    ("vulnerability", "WIDTH = len(Channel.rows)",
     "vulnerability reads .rows in the module body"),
], ids=["function", "method", "another-Channel", "module-body"])
def test_a_planted_rows_read_is_a_fault(tmp_path, module, text, fault):
    for path in PACKAGE.glob("*.py"):
        source = path.read_text()
        if path.stem == module:
            source += "\n\n%s\n" % text
        (tmp_path / path.name).write_text(source)
    assert rows_faults(tmp_path) == [fault]
