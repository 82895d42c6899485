"""The reference layer: literal stages against the builders, its input
rules, and the import order of the package's modules."""

import ast
import itertools
import re
import sys
from fractions import Fraction
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
from rrshuffle.reference import (
    compositions,
    datasets,
    histogram,
    krr_histogram_transition,
    literal_krr,
    literal_shuffle,
    literal_shuffled,
    oracle_histogram_transition,
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
