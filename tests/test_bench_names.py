"""The names the benchmark under ``bench/`` reads from the package.

The benchmark loads the package by module and reads functions by name,
so a rename breaks it only when its traced run starts.  These tests read
``bench/`` without changing it and fail on such a rename instead.
"""

import importlib
import importlib.util
import re
from pathlib import Path

from rrshuffle import closed_forms

BENCH = Path(__file__).resolve().parents[1] / "bench"
#: The modules ``bench/run.py`` imports, by the names its tracer uses.
MODULES = ("scalars", "combinatorics", "channels", "closed_forms", "vulnerability",
           "oracle", "checks", "cli")
#: The aliases ``bench/*.py`` give the modules whose attributes it reads.
ALIASES = {"cf": "closed_forms", "ch": "channels", "orc": "oracle", "vul": "vulnerability"}


def test_the_tracer_finds_every_function_it_wraps():
    spec = importlib.util.spec_from_file_location("bench_spans", BENCH / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    modules = {name: importlib.import_module("rrshuffle." + name) for name in MODULES}
    wrapped = list(spans.targets(spans.Tracer(), modules))  # patches nothing
    assert wrapped
    for owner, attr, wrapper in wrapped:
        assert wrapper.__wrapped__ is getattr(owner, attr), attr


def test_every_module_attribute_the_benchmark_reads_exists():
    pattern = re.compile(r"\b(%s)\.([A-Za-z_]\w*)" % "|".join(ALIASES))
    read = {match for path in sorted(BENCH.glob("*.py"))
            for match in pattern.findall(path.read_text())}
    assert read
    missing = sorted("%s.%s" % (alias, name) for alias, name in read
                     if not hasattr(importlib.import_module("rrshuffle." + ALIASES[alias]),
                                    name))
    assert not missing
    # bench/make_refs.py checks the partition sum against the composition sum
    assert closed_forms.v_post_shuffle_general(5, 3, method="composition", exact=True) \
        == closed_forms.v_post_shuffle_general(5, 3, method="partition", exact=True)
