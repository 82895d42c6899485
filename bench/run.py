"""rrshuffle benchmark: one closed-loop client running a seeded workload.

Usage, from the root of a checkout:

    python3 bench/run.py --workload general-k --seed 1 --seconds 36 --trace 0

Each task is an in-process call to ``rrshuffle.cli.main(argv)`` with
stdout captured, or a direct library call where the CLI has no entry
point; the next task starts when the previous one returns.  The task
list (one "pass") repeats while the next pass should end within
``--seconds``; a run makes at least one pass (two with ``--trace 1``).
Times are scaled to a reference machine speed (``speed.py``).  Every
output is checked against the pinned references.  The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from check import Checker, load_refs
from spans import Tracer
from speed import REFERENCE_S, Speed, pin_to_current_cpu

clock = time.perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
MODULES = ("scalars", "combinatorics", "channels", "closed_forms", "vulnerability",
           "oracle", "checks", "cli")
SETUP_SAMPLES = 7
HASH_SEED = "0"

END_TO_END = {
    "setup_s": "s", "solve_exact_s": "s", "solve_float_s": "s",
    "task_p50_ms": "ms", "task_p90_ms": "ms", "peak_rss_mb": "MB",
}

PER_LAYER = {
    "combinatorics.partitions.calls": "count",
    "combinatorics.partitions.yielded": "count",
    "combinatorics.partitions.self_s": "s",
    "combinatorics.multinomial.calls": "count",
    "combinatorics.multinomial.self_s": "s",
    "combinatorics.log_multinomial.calls": "count",
    "combinatorics.log_multinomial.self_s": "s",
    "combinatorics.krr_histogram_transition.calls": "count",
    "combinatorics.krr_histogram_transition.exact.self_s": "s",
    "combinatorics.krr_histogram_transition.float.self_s": "s",
    "closed_forms.v_post_shuffle_general.calls": "count",
    "closed_forms.v_post_shuffle_general.exact.self_s": "s",
    "closed_forms.v_post_shuffle_general.float.self_s": "s",
    "closed_forms.v_post_ns_general.exact.self_s": "s",
    "closed_forms.v_post_ns_general.float.self_s": "s",
    "closed_forms.v_post_ns_binary_sum.exact.self_s": "s",
    "closed_forms.v_post_ns_binary_sum.float.self_s": "s",
    "closed_forms.v_post_ns_binary_fast.self_s": "s",
    "closed_forms.scaled_max_load.self_s": "s",
    "closed_forms.scaled_max_load_via_multinomials.self_s": "s",
    "closed_forms.posterior_for.self_s": "s",
    "channels.Channel.calls": "count",
    "channels.Channel.entries": "count",
    "channels.Channel.self_s": "s",
    "channels.Channel.is_exact.calls": "count",
    "channels.Channel.is_exact.self_s": "s",
    "channels.build_krr.exact.self_s": "s",
    "channels.build_krr.float.self_s": "s",
    "channels.build_shuffle_full.self_s": "s",
    "channels.build_shuffle_reduced.self_s": "s",
    "channels.build_krr_reduced.exact.self_s": "s",
    "channels.build_krr_reduced.float.self_s": "s",
    "channels.cascade.calls": "count",
    "channels.cascade.madds": "count",
    "channels.cascade.exact.self_s": "s",
    "channels.cascade.float.self_s": "s",
    "channels.canonicalize.columns_in": "count",
    "channels.canonicalize.columns_out": "count",
    "channels.canonicalize.exact.self_s": "s",
    "channels.canonicalize.float.self_s": "s",
    "channels.equivalent.self_s": "s",
    "vulnerability.posterior_vulnerability.calls": "count",
    "vulnerability.posterior_vulnerability.self_s": "s",
    "vulnerability.single_target_gain.self_s": "s",
    "vulnerability.abo_posterior.calls": "count",
    "vulnerability.abo_posterior.exact.self_s": "s",
    "vulnerability.abo_posterior.float.self_s": "s",
    "oracle.oracle_posterior.calls": "count",
    "oracle.oracle_posterior.self_s": "s",
    "checks.run_suite.self_s": "s",
    "checks.results": "count",
    "checks.failed": "count",
    "cli.main.calls": "count",
    "cli.main.self_s": "s",
    "cli.output_bytes": "B",
    "trace.overhead": "ratio",
}


class BenchError(Exception):
    """The benchmark cannot run here (no program, missing reference)."""


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------


def import_program():
    """Import rrshuffle from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "rrshuffle" / "__init__.py").is_file():
        raise BenchError("no rrshuffle sources under %s" % SRC)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import importlib

    package = importlib.import_module("rrshuffle")
    if Path(package.__file__).resolve().parent != SRC / "rrshuffle":
        raise BenchError("imported rrshuffle from %s" % package.__file__)
    modules = {name: importlib.import_module("rrshuffle." + name) for name in MODULES}
    return package, modules


def wide_data(seed: int) -> dict:
    rows = workloads.wide_channels(seed)
    data = {name: (tuple(a), tuple(b)) for name, (a, b) in rows.items()}
    data["labels"] = tuple("y%d" % j for j in range(workloads.WIDE_COLUMNS))
    return data


def setup(workload: str, seed: int, tiny=False, known_defects=False, refs=None):
    """Everything before the first task: import, references, task list."""
    package, modules = import_program()
    refs = load_refs() if refs is None else refs
    tasks = workloads.tasks(workload, seed, tiny=tiny, known_defects=known_defects)
    checker = Checker(refs, modules["scalars"].FLOAT_TOL)
    missing = sorted({key for task in tasks for key in checker.missing(task)})
    if missing:
        raise BenchError("no pinned reference for %s (rerun make_refs.py)"
                         % ", ".join(missing[:5]))
    needs_wide = any(task.lib[:1] == ("wide",) for task in tasks)
    data = wide_data(seed) if needs_wide else {}
    return package, modules, tasks, checker, data


def measure_setup(workload: str, seed: int) -> list:
    """Whole set-ups in fresh processes, from process start: (wall
    seconds, reference seconds) each."""
    samples = []
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
            "--workload", workload, "--seed", str(seed)]
    speed = Speed()
    for _ in range(SETUP_SAMPLES):
        start = clock()
        subprocess.run(argv, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        wall = clock() - start
        samples.append((wall, speed.scale(wall)))
    return samples


# ---------------------------------------------------------------------------
# Tasks
# ---------------------------------------------------------------------------


def wide_channel(modules, data, name):
    a, b = data[name]
    return modules["channels"].Channel(("a", "b"), data["labels"], (a, b))


def call_library(spec, modules, data):
    """The library calls behind the tasks that have no CLI entry point."""
    ch, vul = modules["channels"], modules["vulnerability"]
    kind = spec[0]
    if kind == "canonical-v":
        _, k, n, p = spec
        chan = ch.cascade(ch.build_krr(n, k, float(p)), ch.build_shuffle_full(n, k))
        gain = vul.single_target_gain(n, k)
        prior = vul.Prior.uniform(chan.row_labels, exact=False)
        return (vul.canonical_posterior_vulnerability(ch.canonicalize(chan), gain),
                vul.posterior_vulnerability(prior, gain, chan))
    if kind == "equivalent":
        _, pair, k, n, p = spec
        noise = ch.build_krr(n, k, float(p))
        ns = ch.cascade(noise, ch.build_shuffle_full(n, k))
        if pair == "ns~nsr":
            return ch.equivalent(ns, ch.cascade(noise, ch.build_shuffle_reduced(n, k)))
        return ch.equivalent(noise, ns)
    name = spec[1]  # wide
    if name == "independent-pair":
        return ch.equivalent(wide_channel(modules, data, "independent"),
                             wide_channel(modules, data, name))
    chan = wide_channel(modules, data, name)
    gain = vul.single_target_gain(1, 2)
    prior = vul.Prior.uniform(chan.row_labels, exact=False)
    return (vul.canonical_posterior_vulnerability(ch.canonicalize(chan), gain),
            vul.posterior_vulnerability(prior, gain, chan))


def run_task(task, task_id, modules, data, tracer=None):
    """Run one task; returns (wall seconds, exit code, stdout, value, exception)."""
    out, err = io.StringIO(), io.StringIO()
    rc = value = exc = None
    cli = modules["cli"]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = clock()
        root = tracer.open_task(task_id, start) if tracer else None
        try:
            if task.argv:
                rc = cli.main(list(task.argv))
            else:
                value = call_library(task.lib, modules, data)
        except Exception as caught:  # any exception fails the task
            exc = caught
        end = clock()
        if tracer:
            tracer.close_task(root, end)
    return end - start, rc, out.getvalue(), value, exc


# ---------------------------------------------------------------------------
# The run
# ---------------------------------------------------------------------------


def percentile(sorted_values, q):
    """Nearest-rank percentile."""
    index = max(0, min(len(sorted_values) - 1, -(-q * len(sorted_values) // 100) - 1))
    return sorted_values[int(index)]


def machine_facts(seed: int, nproc: int) -> dict:
    cpu = "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    numpy = subprocess.run([sys.executable, "-c", "import numpy"], cwd=ROOT,
                           stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return {
        "nproc": nproc,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "seed": seed,
        "numpy_imports": numpy.returncode == 0,
    }


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def run(workload, seed, seconds, trace, tiny=False, known_defects=False, setup_s=None,
        refs=None):
    """Run the workload; returns (result dict, run record)."""
    package, modules, tasks, checker, data = setup(workload, seed, tiny, known_defects, refs)
    tracer = Tracer() if trace else None
    # (pass, traced, task index, mode, reference seconds, error, wall seconds)
    records = []
    passes = []  # per pass: traced, then reference and wall seconds by mode
    speed = Speed()
    started = clock()
    while True:
        traced = bool(trace) and len(passes) % 2 == 1
        if traced:
            tracer.install(package, modules)
        sums = {"traced": traced, "exact": 0.0, "float": 0.0,
                "exact_wall": 0.0, "float_wall": 0.0}
        for index, task in enumerate(tasks):
            tid = "%d/%d" % (len(passes), index)
            wall, rc, out, value, exc = run_task(
                task, tid, modules, data, tracer if traced else None)
            seconds_taken = speed.scale(wall)
            if traced:
                tracer.pending["cli.output_bytes"] += len(out.encode())
                tracer.flush(seconds_taken / wall)
            sums[task.mode] += seconds_taken
            sums[task.mode + "_wall"] += wall
            if exc is not None:
                error = "raised %s: %s" % (type(exc).__name__, exc)
            else:
                try:
                    error = checker(task, rc, out, value)
                except (KeyError, ValueError, IndexError) as bad:
                    error = "unreadable output (%s: %s)" % (type(bad).__name__, bad)
            records.append((len(passes), traced, index, task.mode, seconds_taken, error, wall))
        if traced:
            tracer.uninstall()
        passes.append(sums)
        # Whole passes only, while the next one should end within --seconds.
        elapsed = clock() - started
        if elapsed * (len(passes) + 1) / len(passes) > seconds and (
                not trace or len(passes) >= 2):
            break

    failed = sum(1 for r in records if r[5])
    result = {"correct": failed == 0, "attempted": len(records), "failed": failed}
    plain = [p for p in passes if not p["traced"]]
    if trace:
        n_traced = len(passes) - len(plain)
        metrics = {name: tracer.values.get(name, 0.0) / n_traced for name in PER_LAYER}
        traced_solve = statistics.median(p["exact"] + p["float"] for p in passes if p["traced"])
        metrics["trace.overhead"] = traced_solve / statistics.median(
            p["exact"] + p["float"] for p in plain)
        units = PER_LAYER
    else:
        # A failed task counts as over any latency limit.
        latencies = sorted(float("inf") if r[5] else r[4] * 1000 for r in records)
        metrics = {
            "setup_s": statistics.median(s for _, s in setup_s) if setup_s else 0.0,
            "solve_exact_s": statistics.fmean(p["exact"] for p in plain),
            "solve_float_s": statistics.fmean(p["float"] for p in plain),
            "task_p50_ms": percentile(latencies, 50),
            "task_p90_ms": percentile(latencies, 90),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
    result["metrics"] = {name: {"value": metrics[name], "unit": units[name]}
                         for name in units}
    record = {
        "workload": workload,
        "tasks": [t.label for t in tasks],
        "latency_samples": len(records),
        "passes": passes,
        "setup_samples_s": setup_s,
        "reference_probe_s": REFERENCE_S,
        "results": records,
        "failures": [(tasks[r[2]].label, r[5]) for r in records if r[5]],
        "spans": tracer.spans if trace else [],
        "values": dict(tracer.values) if trace else {},
    }
    return result, record


def main() -> int:
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # String hashing decides dict and set layouts, which move the 2 ms
        # CLI calls by about 12 %; fix it so runs differ only by the seed.
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable, *sys.argv])
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--known-defects", action="store_true",
                        help="add the tasks that fail at the seed (see NOTES.md)")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    try:
        if args.setup_only:
            setup(args.workload, args.seed, known_defects=args.known_defects)
            return 0
        import_program()  # fail before timing anything if the sources are absent
        nproc = len(os.sched_getaffinity(0))
        pin_to_current_cpu()
        setup_s = None if args.trace else measure_setup(args.workload, args.seed)
        result, record = run(args.workload, args.seed, args.seconds, args.trace,
                             known_defects=args.known_defects, setup_s=setup_s)
    except (BenchError, subprocess.CalledProcessError) as exc:
        print("bench: %s" % exc, file=sys.stderr)
        return 2
    facts = machine_facts(args.seed, nproc)
    record["machine"] = facts
    OUT_DIR.mkdir(exist_ok=True)
    name = "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)
    with open(OUT_DIR / name, "w") as handle:
        json.dump(record, handle)
    for label, error in record["failures"][:20]:
        print("FAILED %s: %s" % (label, error))
    print(json.dumps({"machine": facts, "latency_samples": record["latency_samples"],
                      "passes": len(record["passes"])}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
