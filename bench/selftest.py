"""Self-tests of the benchmark itself (about a minute):

    python3 bench/selftest.py

1. Every workload completes at a tiny size with no failed task, traced
   and untraced.
2. In the traced pass, per-span self times sum to the traced solve time:
   no time is lost between spans.
3. Corrupting one pinned reference makes the run report a failure.
4. With ``--known-defects``, the only failing tasks are the known-defect
   tasks, so the error rate equals their share.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from fractions import Fraction

import workloads
from check import load_refs
from run import run


def self_time_total(spans) -> float:
    children = defaultdict(float)
    for _, _, _, _, parent, _, _, busy in spans:
        if parent is not None:
            children[parent] += busy
    return sum(busy - (children[ident] if ident is not None else 0.0)
               for ident, _, _, _, _, _, _, busy in spans)


def main() -> int:
    problems = []

    def expect(ok, what):
        print("%s %s" % ("ok  " if ok else "FAIL", what))
        if not ok:
            problems.append(what)

    for workload in workloads.WORKLOADS:
        result, record = run(workload, seed=1, seconds=0, trace=1, tiny=True)
        expect(result["failed"] == 0 and result["attempted"] > 0,
               "%s completes at a tiny size (%d tasks, failures: %s)"
               % (workload, result["attempted"], record["failures"]))
        traced = [p for p in record["passes"] if p["traced"]]
        checks = (
            ("span", self_time_total(record["spans"]),
             sum(p["exact_wall"] + p["float_wall"] for p in traced)),
            ("metric", sum(v for name, v in record["values"].items()
                           if name.endswith(".self_s")),
             sum(p["exact"] + p["float"] for p in traced)),
        )
        for label, total, traced_solve in checks:
            expect(abs(total - traced_solve) <= 1e-6 * max(1.0, traced_solve),
                   "%s: %s self times sum to the traced solve time (%.9f vs %.9f s)"
                   % (workload, label, total, traced_solve))

        refs = load_refs()
        tasks = workloads.tasks(workload, 1, tiny=True)
        key = next(key for task in tasks for key in task.refs)
        if "f" in refs[key]:
            refs[key] = dict(refs[key], f=repr(float(refs[key]["f"]) + 1e-6))
            if "x" in refs[key]:
                refs[key]["x"] = str(Fraction(refs[key]["x"]) + Fraction(1, 10**6))
        else:
            refs[key] = {name: "corrupt" for name in refs[key]}
        result, _ = run(workload, seed=1, seconds=0, trace=0, tiny=True, refs=refs,
                        setup_s=[(1.0, 1.0)])
        expect(result["failed"] > 0,
               "%s: corrupting %s gives error rate %d/%d > 0"
               % (workload, key, result["failed"], result["attempted"]))

        result, record = run(workload, seed=1, seconds=0, trace=0, tiny=True,
                             known_defects=True, setup_s=[(1.0, 1.0)])
        defects = [t for t in workloads.tasks(workload, 1, tiny=True, known_defects=True)
                   if t.defect]
        failed = sorted(label for label, _ in record["failures"])
        expect(failed == sorted(t.label for t in defects),
               "%s: error rate %d/%d is exactly the known-defect tasks"
               % (workload, result["failed"], result["attempted"]))
    print("%d problem(s)" % len(problems))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
