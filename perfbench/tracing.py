"""Span tracing for the benchmark's traced run.

Each layer is timed from outside: a wrapper around a public attnalloc
function records one span (name, start, end, parent) per call plus a few
counts taken from the call's arguments or result. Wrappers replace every
attnalloc module attribute bound to the wrapped function, so a caller that
imported the name (``from .world import sparsify``) and a caller that looks
it up on the module both hit the span. ``uninstall`` puts the originals back.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import importlib
import os
import sys
import time


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _records_out(counts, args, kwargs, result):
    counts["world.sparsify.records_out"] += len(result)


def _world_bytes(index, name):
    def count(counts, args, kwargs, result):
        counts["world.io.bytes"] += os.path.getsize(_arg(args, kwargs, index, name))
    return count


def _rows_saved(counts, args, kwargs, result):
    counts["records.io.rows"] += len(_arg(args, kwargs, 0, "records"))


def _rows_loaded(counts, args, kwargs, result):
    counts["records.io.rows"] += len(result)


def _fit(counts, args, kwargs, result):
    records = _arg(args, kwargs, 0, "records")
    config = _arg(args, kwargs, 1, "config")
    counts["mf.fit.sgd_updates"] += len(records) * config.epochs
    counts["mf.fit.final_epoch_sq_err_sum"] += result.training_curve[-1]


def _pairs(counts, args, kwargs, result):
    counts["mf.predict.pairs"] += result.size


def _weighted(counts, args, kwargs, result):
    problem = _arg(args, kwargs, 0, "problem")
    counts["allocate.weighted.objects"] += result.capacities.size
    counts["allocate.weighted.floor_clamped"] += int((result.capacities == problem.floor).sum())


# (module, function, span name, count hook)
FUNCTIONS = (
    ("attnalloc.world", "generate_world", "world.generate", None),
    ("attnalloc.world", "sparsify", "world.sparsify", _records_out),
    ("attnalloc.world", "raw_attention_values", "world.attention", None),
    ("attnalloc.world", "ground_truth_levels", "world.ground_truth", None),
    ("attnalloc.world", "save_world", "world.io", _world_bytes(1, "path")),
    ("attnalloc.world", "load_world", "world.io", _world_bytes(0, "path")),
    ("attnalloc.records", "save_records", "records.io", _rows_saved),
    ("attnalloc.records", "load_records", "records.io", _rows_loaded),
    ("attnalloc.mf", "fit_mf", "mf.fit", _fit),
    ("attnalloc.mf", "predict_scene", "mf.predict", _pairs),
    ("attnalloc.mf", "evaluate", "mf.evaluate", None),
    ("attnalloc.mf", "holdout_mask", "mf.holdout", None),
    ("attnalloc.mf", "fit_baseline", "mf.baseline", None),
    ("attnalloc.mf", "save_model", "mf.io", None),
    ("attnalloc.mf", "load_model", "mf.io", None),
    ("attnalloc.allocate", "allocate_weighted", "allocate.weighted", _weighted),
    ("attnalloc.allocate", "allocate_uniform", "allocate.uniform", None),
    # the package attribute attnalloc.qoe is the function, so the module is
    # looked up by its full name
    ("attnalloc.qoe", "qoe", "qoe", None),
)

# ExperimentRunner members; properties are wrapped through their getter
RUNNER_MEMBERS = (
    "world", "records", "model", "truth_raw", "scene_objects",
    "user_report", "all_reports", "sweep",
)


class Tracer:
    """In-memory span recorder. Spans are appended in start order as
    ``[name, start, end, parent_index]``; counts accumulate by name."""

    def __init__(self):
        self.spans = []
        self.counts = collections.Counter()
        self.active = False
        self._stack = []
        self._restore = []

    def wrap(self, name, fn, count=None):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index][1:3] = start, end
            counts[name + ".calls"] += 1
            if count is not None:
                count(counts, args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def root(self, name):
        """A top-level span (one set-up or one unit) with tracing switched on."""
        index = len(self.spans)
        self.spans.append([name, 0.0, 0.0, -1])
        self._stack.append(index)
        self.active = True
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self.active = False
            self._stack.pop()
            self.spans[index][1:3] = start, end

    def install(self):
        modules = [m for key, m in list(sys.modules.items())
                   if key == "attnalloc" or key.startswith("attnalloc.")]
        for module_name, attr, span_name, count in FUNCTIONS:
            original = getattr(importlib.import_module(module_name), attr)
            wrapper = self.wrap(span_name, original, count)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, value))
                        setattr(module, key, wrapper)
        runner = importlib.import_module("attnalloc.experiment").ExperimentRunner
        for member in RUNNER_MEMBERS:
            original = vars(runner)[member]
            name = "experiment." + member
            if isinstance(original, property):
                wrapper = property(self.wrap(name, original.fget))
            else:
                wrapper = self.wrap(name, original)
            self._restore.append((runner, member, original))
            setattr(runner, member, wrapper)

    def uninstall(self):
        while self._restore:
            owner, key, value = self._restore.pop()
            setattr(owner, key, value)


def self_times(spans):
    """Each span's duration minus the part of it that its children cover."""
    covered = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - c for (_, start, end, _), c in zip(spans, covered)]


def _totals(spans, selves):
    busy = collections.Counter()
    own = collections.Counter()
    for (name, start, end, _), self_s in zip(spans, selves):
        busy[name] += end - start
        own[name] += self_s
    return busy, own


def _ratio(num, den, scale=1.0):
    return num / den * scale if den else 0.0


def layer_metrics(tracer):
    """The per-layer metrics over every span recorded, set-up included.
    A layer the workload never calls reads 0."""
    busy, own = _totals(tracer.spans, self_times(tracer.spans))
    c = tracer.counts
    experiment_self = sum(v for k, v in own.items()
                          if k.startswith("experiment.") and k != "experiment.scene_objects")
    s, count = "s", "count"
    return {
        "world.generate.busy_s": (busy["world.generate"], s),
        "world.sparsify.busy_s": (busy["world.sparsify"], s),
        "world.sparsify.records_out": (c["world.sparsify.records_out"], count),
        "world.attention.busy_s": (busy["world.attention"], s),
        "world.attention.calls": (c["world.attention.calls"], count),
        "world.ground_truth.busy_s": (busy["world.ground_truth"], s),
        "world.io.busy_s": (busy["world.io"], s),
        "world.io.bytes": (c["world.io.bytes"], "bytes"),
        "records.io.busy_s": (busy["records.io"], s),
        "records.io.rows": (c["records.io.rows"], count),
        "mf.fit.busy_s": (busy["mf.fit"], s),
        "mf.fit.sgd_updates": (c["mf.fit.sgd_updates"], count),
        "mf.fit.updates_per_s": (_ratio(c["mf.fit.sgd_updates"], busy["mf.fit"]), "1/s"),
        "mf.fit.final_epoch_sq_err": (
            _ratio(c["mf.fit.final_epoch_sq_err_sum"], c["mf.fit.calls"]), "level2"),
        "mf.predict.busy_s": (busy["mf.predict"], s),
        "mf.predict.pairs": (c["mf.predict.pairs"], count),
        "mf.predict.us_per_pair": (_ratio(busy["mf.predict"], c["mf.predict.pairs"], 1e6), "us"),
        "mf.evaluate.busy_s": (busy["mf.evaluate"], s),
        "mf.io.busy_s": (busy["mf.io"], s),
        "allocate.weighted.busy_s": (busy["allocate.weighted"], s),
        "allocate.weighted.calls": (c["allocate.weighted.calls"], count),
        "allocate.weighted.objects": (c["allocate.weighted.objects"], count),
        "allocate.weighted.us_per_object": (
            _ratio(busy["allocate.weighted"], c["allocate.weighted.objects"], 1e6), "us"),
        "allocate.weighted.floor_clamped_frac": (
            _ratio(c["allocate.weighted.floor_clamped"], c["allocate.weighted.objects"]),
            "fraction"),
        "allocate.uniform.busy_s": (busy["allocate.uniform"], s),
        "qoe.busy_s": (busy["qoe"], s),
        "qoe.calls": (c["qoe.calls"], count),
        "experiment.self_s": (experiment_self, s),
        "experiment.scene_objects.busy_s": (busy["experiment.scene_objects"], s),
    }


def _root_ranges(spans, name):
    """(root index, end index) of each top-level span called ``name``; a
    root's descendants are the spans recorded after it, up to the next root."""
    roots = [i for i, span in enumerate(spans) if span[3] == -1]
    ends = roots[1:] + [len(spans)]
    return [(r, e) for r, e in zip(roots, ends) if spans[r][0] == name]


def self_time_shares(spans, root_name):
    """Share of the self time under the root spans called ``root_name``, by
    span name. The roots' own self time (benchmark glue) counts as ``bench``."""
    selves = self_times(spans)
    own = collections.Counter()
    for root, end in _root_ranges(spans, root_name):
        own["bench"] += selves[root]
        for i in range(root + 1, end):
            own[spans[i][0]] += selves[i]
    total = sum(own.values())
    return {name: v / total for name, v in own.most_common()} if total else {}


def spans_well_nested(spans, root_name):
    """Self-check on the span bookkeeping under each root span called
    ``root_name``: every span ends after it starts and lies inside its
    parent's interval, no span has an ancestor of its own name (which would
    count the time of one call twice in that layer's busy time), and the
    direct children of a span do not overlap. The top-level layer spans of
    a unit therefore add up to no more than the unit's wall time."""
    children = collections.defaultdict(list)
    for root, end in _root_ranges(spans, root_name):
        for i in range(root + 1, end):
            name, start, stop, parent = spans[i]
            if not root <= parent < i:
                return False
            _, p_start, p_stop, _ = spans[parent]
            if not p_start <= start <= stop <= p_stop:
                return False
            ancestor = parent
            while ancestor != root:
                if spans[ancestor][0] == name:
                    return False
                ancestor = spans[ancestor][3]
            children[parent].append((start, stop))
    for intervals in children.values():
        intervals.sort()
        if any(b_start < a_stop for (_, a_stop), (b_start, _) in zip(intervals, intervals[1:])):
            return False
    return True
