"""Where a traced run spent its solve time, layer by layer.

    python3 bench/run.py --workload binary-abo --seed 1 --seconds 25 --trace 1
    python3 bench/report.py .bench_out/binary-abo-seed1-trace1.json

Prints each module's share of the traced solve time (self times, so the
shares add up to one), the groups the benchmark notes make claims
about, and how the median traced task splits between ``cli.main`` and
the layers below it.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict

GROUPS = {
    "partition path": ("combinatorics.partitions", "combinatorics.multinomial",
                       "combinatorics.log_multinomial",
                       "closed_forms.v_post_shuffle_general", "closed_forms.v_post_ns_general"),
    "channels + posterior_vulnerability + oracle_posterior": (
        "channels.", "vulnerability.posterior_vulnerability", "oracle.oracle_posterior"),
    "krr_histogram_transition + abo_posterior": (
        "combinatorics.krr_histogram_transition", "vulnerability.abo_posterior"),
}


def self_times(spans):
    """Self seconds per (task, span name)."""
    children = defaultdict(float)
    for ident, _, _, _, parent, _, _, busy in spans:
        if parent is not None:
            children[parent] += busy
    out = defaultdict(float)
    for ident, name, _, _, _, task, _, busy in spans:
        out[task, name] += busy - (children[ident] if ident is not None else 0.0)
    return out


def main(path) -> int:
    with open(path) as handle:
        record = json.load(handle)
    per_task = self_times(record["spans"])
    by_name = defaultdict(float)
    by_task = defaultdict(float)
    for (task, name), seconds in per_task.items():
        by_name[name] += seconds
        by_task[task] += seconds
    total = sum(by_name.values())
    print("traced solve time %.3f s over %d tasks" % (total, len(by_task)))
    modules = defaultdict(float)
    for name, seconds in by_name.items():
        modules[name.split(".")[0]] += seconds
    for module, seconds in sorted(modules.items(), key=lambda kv: -kv[1]):
        print("  %-16s %6.1f%%" % (module, 100 * seconds / total))
    for group, prefixes in GROUPS.items():
        seconds = sum(s for name, s in by_name.items() if name.startswith(prefixes))
        print("  %-55s %6.1f%%" % (group, 100 * seconds / total))
    median = statistics.median_low(by_task.values())
    task = next(t for t, seconds in by_task.items() if seconds == median)
    cli = per_task.get((task, "cli.main"), 0.0)
    print("median traced task %s: %.2f ms, cli.main self %.0f%%"
          % (task, 1000 * median, 100 * cli / median))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
