"""Per-layer tracing, installed from outside the program.

The public functions of each ``rrshuffle`` module are wrapped by
patching every module namespace that holds them (``closed_forms.partitions``,
``oracle.cascade``, the package itself, ...), and ``Channel``'s methods on
the class.  Each call becomes a span (name, start, end, parent, task id);
self time is the span minus its children.  Functions called hundreds of
thousands of times per task (multinomials, histogram transitions, each
``next()`` of ``partitions``) are folded into one record per parent span,
holding their call count and summed busy time, so memory stays bounded.
Spans hold raw wall times; the per-layer totals in ``values`` are scaled
to the reference speed task by task (see ``speed.py``).

``scalars`` is not wrapped: its functions run once per matrix entry, so
wrapping them would measure the wrapper.
"""

from __future__ import annotations

import time
from collections import defaultdict

clock = time.perf_counter

ROOT = "bench.task"
BOOKKEEPING = "trace.bookkeeping"


class Frame:
    __slots__ = ("id", "name", "start", "child", "folded")

    def __init__(self, ident, name, start):
        self.id = ident
        self.name = name
        self.start = start
        self.child = 0.0
        self.folded = {}


class Tracer:
    """Spans and counts of one traced run, kept in memory."""

    def __init__(self):
        # (id, name, start, end, parent id, task id, calls, busy seconds)
        self.spans = []
        self.values = defaultdict(float)  # per-layer totals of finished tasks
        self.pending = defaultdict(float)  # the running task's, in wall seconds
        self.stack = []
        self.task = None
        self._next_id = 0
        self._patches = []

    # -- spans -------------------------------------------------------------

    def open(self, name, start):
        frame = Frame(self._next_id, name, start)
        self._next_id += 1
        self.stack.append(frame)
        return frame

    def close(self, frame, end, metric):
        self.stack.pop()
        busy = end - frame.start
        self.pending[metric + ".self_s"] += busy - frame.child
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent.child += busy
        self.spans.append((frame.id, frame.name, frame.start, end,
                           parent.id if parent else None, self.task, 1, busy))
        for name, (calls, folded_busy, first, last) in frame.folded.items():
            self.spans.append((None, name, first, last, frame.id, self.task,
                               calls, folded_busy))

    def leaf(self, name, metric, start, end):
        """A call with no traced children, folded into its parent span."""
        busy = end - start
        self.pending[metric + ".self_s"] += busy
        parent = self.stack[-1]
        parent.child += busy
        record = parent.folded.get(name)
        if record is None:
            parent.folded[name] = [1, busy, start, end]
        else:
            record[0] += 1
            record[1] += busy
            record[3] = end

    def open_task(self, task_id, start):
        self.task = task_id
        return self.open(ROOT, start)

    def close_task(self, frame, end):
        self.close(frame, end, ROOT)

    def flush(self, scale):
        """Add the finished task's values, its times multiplied by ``scale``."""
        for name, value in self.pending.items():
            self.values[name] += value * scale if name.endswith("self_s") else value
        self.pending.clear()

    # -- patching ----------------------------------------------------------

    def install(self, package, modules):
        """Wrap every function in :func:`targets` wherever it is bound."""
        for owner, attr, wrapper in targets(self, modules):
            original = getattr(owner, attr)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)
                continue
            for module in (package, *modules.values()):
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, name, wrapper)

    def _patch(self, owner, name, wrapper):
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def uninstall(self):
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)


# ---------------------------------------------------------------------------
# Wrappers
# ---------------------------------------------------------------------------


def _span(tracer, original, metric, mode=None, count=None):
    values = tracer.pending

    def wrapper(*args, **kwargs):
        frame = tracer.open(metric, clock())
        result = done = None
        try:
            result = original(*args, **kwargs)
            done = True
            return result
        finally:
            end = clock()
            name = metric
            if mode is not None:
                name += ".exact" if done and mode(args, kwargs, result) else ".float"
            values[metric + ".calls"] += 1
            tracer.close(frame, end, name)
            if count is not None and done:
                count(values, args, result)
                tracer.leaf(BOOKKEEPING, BOOKKEEPING, end, clock())

    wrapper.__wrapped__ = original
    return wrapper


def _leaf(tracer, original, metric, mode=None):
    """A hot function: timed per call, folded into its caller's span."""
    values = tracer.pending

    def wrapper(*args, **kwargs):
        start = clock()
        try:
            return original(*args, **kwargs)
        finally:
            end = clock()
            name = metric
            if mode is not None:
                name += ".exact" if mode(args, kwargs, None) else ".float"
            values[metric + ".calls"] += 1
            tracer.leaf(metric, name, start, end)

    wrapper.__wrapped__ = original
    return wrapper


def _generator(tracer, original, metric):
    """Time each ``next()`` as the generator's own work."""
    values = tracer.pending

    def wrapper(*args, **kwargs):
        values[metric + ".calls"] += 1
        inner = original(*args, **kwargs)
        while True:
            start = clock()
            try:
                item = next(inner)
            except StopIteration:
                tracer.leaf(metric, metric, start, clock())
                return
            tracer.leaf(metric, metric, start, clock())
            values[metric + ".yielded"] += 1
            yield item

    wrapper.__wrapped__ = original
    return wrapper


def targets(tracer, m):
    """(owner, attribute, wrapper) for every traced function."""
    is_exact = m["scalars"].is_exact
    comb, cf, ch = m["combinatorics"], m["closed_forms"], m["channels"]
    vul, orc, chk, cli = m["vulnerability"], m["oracle"], m["checks"], m["cli"]

    def by_result(args, kwargs, result):
        return is_exact(result)

    def by_p(position):
        def mode(args, kwargs, result):
            return is_exact(args[position] if len(args) > position else kwargs["p"])
        return mode

    def channel_entries(values, args, result):
        self = args[0]
        values["channels.Channel.entries"] += len(self.rows) * len(self.col_labels)

    def cascade_madds(values, args, result):
        first, second = args[0], args[1]
        nonzero = [sum(1 for e in row if e) for row in second.rows]
        values["channels.cascade.madds"] += sum(
            nonzero[i] for row in first.rows for i, a in enumerate(row) if a
        )

    def canonical_columns(values, args, result):
        values["channels.canonicalize.columns_in"] += len(args[0].col_labels)
        values["channels.canonicalize.columns_out"] += len(result.columns)

    def suite_results(values, args, result):
        values["checks.results"] += len(result)
        values["checks.failed"] += sum(1 for r in result if not r.passed)

    def exact_cascade(args, kwargs, result):
        return not isinstance(result.rows[0][0], float)

    def exact_canonical(args, kwargs, result):
        return not isinstance(result.columns[0][0], float)

    def exact_abo(args, kwargs, result):
        return is_exact(args[0].p)

    leaves = [
        (comb, "krr_histogram_transition", by_p(4)),
        (comb, "multinomial", None),
        (comb, "log_multinomial", None),
    ]
    spans = [
        (cf, "v_post_shuffle_general", by_result, None),
        (cf, "v_post_ns_general", by_result, None),
        (cf, "v_post_ns_binary_sum", by_result, None),
        (cf, "v_post_ns_binary_fast", None, None),
        (cf, "scaled_max_load", None, None),
        (cf, "scaled_max_load_via_multinomials", None, None),
        (cf, "posterior_for", None, None),
        (ch, "build_krr", by_p(2), None),
        (ch, "build_shuffle_full", None, None),
        (ch, "build_shuffle_reduced", None, None),
        (ch, "build_krr_reduced", by_p(2), None),
        (ch, "cascade", exact_cascade, cascade_madds),
        (ch, "canonicalize", exact_canonical, canonical_columns),
        (ch, "equivalent", None, None),
        (vul, "posterior_vulnerability", None, None),
        (vul, "single_target_gain", None, None),
        (vul, "abo_posterior", exact_abo, None),
        (orc, "oracle_posterior", None, None),
        (chk, "run_suite", None, suite_results),
        (cli, "main", None, None),
    ]

    def metric(module, attr):
        return "%s.%s" % (module.__name__.rsplit(".", 1)[1], attr)

    for module, attr, mode in leaves:
        yield module, attr, _leaf(tracer, getattr(module, attr), metric(module, attr), mode)
    for module, attr, mode, count in spans:
        yield module, attr, _span(tracer, getattr(module, attr), metric(module, attr),
                                  mode, count)
    yield comb, "partitions", _generator(tracer, comb.partitions, "combinatorics.partitions")
    channel = ch.Channel
    yield channel, "__post_init__", _span(
        tracer, channel.__post_init__, "channels.Channel", None, channel_entries)
    yield channel, "is_exact", _span(tracer, channel.is_exact, "channels.Channel.is_exact")
