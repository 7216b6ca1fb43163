"""Measurement, self-checks and reporting for one benchmark run.

Imported by run.py once the thread caps are set and ``src/`` is on the path.
"""

from __future__ import annotations

import contextlib
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

import hostspeed
import tracing
import workloads

# set up at least this many times and for at least this long; setup_s is
# the median, and a cheap set-up (an import of ~0.15 s) needs many repeats
# for its median to hold still on a noisy host
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 6.0

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import attnalloc; "
    "print(time.perf_counter() - t)"
)


def measure_import() -> float:
    """Import time of the package in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout)


def run_unit(workload, state, unit, workdir, tracer=None):
    """Time one unit, then check its output outside the timed section.
    Returns the unit's start and end on the perf_counter clock and its
    outcome."""
    start = time.perf_counter()
    try:
        with tracer.root("unit") if tracer else contextlib.nullcontext():
            out = workload.run(state, unit, workdir)
    except Exception:
        traceback.print_exc()
        return start, time.perf_counter(), workloads.FAILED
    end = time.perf_counter()
    try:
        return start, end, workload.check(state, unit, out)
    except Exception:
        traceback.print_exc()
        return start, end, workloads.FAILED


def timed_run(workload, seed, seconds, workdir):
    """Every time is taken in seconds at the host's nominal speed (see
    hostspeed.py); the raw wall-clock figures go into the printed notes."""
    speed = hostspeed.HostSpeed()
    speed.start()
    try:
        setups = []
        while len(setups) < SETUP_MIN_REPEATS or sum(s[3] - s[1] for s in setups) < SETUP_MIN_SECONDS:
            # no probe while the child runs: it may share the probe's core
            speed.stop()
            t0 = time.perf_counter()
            import_s = measure_import()
            speed.start()
            t1 = time.perf_counter()
            state = workload.setup(seed)
            setups.append((import_s, t0, t1, time.perf_counter()))

        inputs = workload.inputs(state)
        results = []
        start = time.perf_counter()
        while len(results) < workload.fixed_units or time.perf_counter() - start < seconds:
            key, unit = next(inputs)
            results.append((key, *run_unit(workload, state, unit, workdir)))
    finally:
        speed.stop()
    improvement, rmse = workload.quality(state, [o for *_, o in results[:workload.fixed_units]])

    # the import is mostly file loading and dynamic linking, which the probe
    # does not track, so it stays in wall-clock seconds
    setup_s = [imp + speed.nominal(t1, t2) for imp, _, t1, t2 in setups]
    raw_setup_s = [imp + t2 - t1 for imp, _, t1, t2 in setups]
    by_key, raw_by_key = {}, {}
    for key, t0, t1, outcome in results:
        if outcome.ok:
            by_key.setdefault(key, []).append(speed.nominal(t0, t1) * 1e3)
            raw_by_key.setdefault(key, []).append((t1 - t0) * 1e3)
    # a repeated unit counts with its mean time, which moves smoothly with
    # whatever host-speed drift the probe leaves uncorrected
    lat_ms = [statistics.fmean(v) for v in by_key.values()] or [0.0]
    raw_ms = [statistics.fmean(v) for v in raw_by_key.values()] or [0.0]
    ok = sum(map(len, by_key.values()))
    n = f"n={len(by_key)} units, each the mean of {ok / max(1, len(by_key)):.1f} runs"

    def raw(value, unit):
        return f"; raw wall clock {value:.4g} {unit}"

    # a seed-unit run has a handful of units, so its p99 is the slowest one
    p99_note = n if len(by_key) >= 100 else n + "; in effect the slowest unit"
    metrics = {
        "setup_s": (statistics.median(setup_s), "s", f"median of {len(setups)} set-ups"
                    + (f" ({', '.join(f'{v:.4g}' for v in setup_s)})" if len(setups) <= 5 else "")
                    + raw(statistics.median(raw_setup_s), "s")),
        "throughput_per_s": (1e3 * len(by_key) / sum(lat_ms) if by_key else 0.0, "1/s",
                             f"{len(by_key)} units in {sum(lat_ms) / 1e3:.3f} s timed"
                             + raw(1e3 * len(by_key) / sum(raw_ms) if by_key else 0.0, "1/s")),
        "latency_ms_p50": (statistics.median(lat_ms), "ms",
                           n + raw(statistics.median(raw_ms), "ms")),
        "latency_ms_p99": (float(np.percentile(lat_ms, 99)), "ms",
                           p99_note + raw(float(np.percentile(raw_ms, 99)), "ms")),
        "success_frac": (ok / len(results), "fraction",
                         f"{len(results) - ok} of {len(results)} failed"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", ""),
        "mean_improvement_pct": (improvement, "%", "deterministic for the seed"),
        "holdout_rmse": (rmse, "level", "deterministic for the seed"),
    }
    probes = speed.durations
    print(f"host speed: {len(probes)} probes, mean {statistics.fmean(probes) * 1e3:.3f} ms, "
          f"median {statistics.median(probes) * 1e3:.3f} ms "
          f"(nominal {hostspeed.NOMINAL_PROBE_S * 1e3:g} ms)")
    failed = len(results) - ok
    return failed == 0, len(results), failed, metrics


def traced_run(workload, seed, workdir):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.root("setup"):
            state = workload.setup(seed)
    finally:
        tracer.uninstall()
    units = [u for (_, u), _ in zip(workload.inputs(state), range(workload.fixed_units))]
    plain = [run_unit(workload, state, u, workdir) for u in units]
    tracer.install()
    try:
        traced = [run_unit(workload, state, u, workdir, tracer) for u in units]
    finally:
        tracer.uninstall()

    expected = dict(workload.setup_counts(state))
    for *_, outcome in plain:
        for key, value in outcome.counts.items():
            expected[key] += value
    checks = {
        "digests_match": [o.digest for *_, o in plain] == [o.digest for *_, o in traced],
        "counts_match": all(tracer.counts[k] == expected[k] for k in workloads.COUNT_KEYS),
        "spans_well_nested": (tracing.spans_well_nested(tracer.spans, "setup")
                              and tracing.spans_well_nested(tracer.spans, "unit")),
    }
    for name, passed in checks.items():
        print(f"self-check {name}: {'ok' if passed else 'FAILED'}")
    for root in ("setup", "unit"):
        shares = tracing.self_time_shares(tracer.spans, root)
        print(f"self-time share under {root}: "
              + ", ".join(f"{k} {v:.1%}" for k, v in shares.items()))

    traced_p50, plain_p50 = (statistics.median(end - start for start, end, _ in r)
                             for r in (traced, plain))
    metrics = {k: (v, unit, "") for k, (v, unit) in tracing.layer_metrics(tracer).items()}
    metrics["trace.overhead_ratio_p50"] = (
        traced_p50 / plain_p50, "ratio",
        f"traced / untraced p50 over {len(units)} units; "
        f"traced minus untraced {(traced_p50 - plain_p50) * 1e3:+.3f} ms")
    outcomes = [o for *_, o in plain + traced]
    failed = sum(not o.ok for o in outcomes)
    return failed == 0 and all(checks.values()), len(outcomes), failed, metrics


def git_state():
    if not (ROOT / ".git").exists():
        return None, None
    try:
        def git(*args):
            return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                                  text=True, timeout=30, check=True).stdout.strip()
        return git("rev-parse", "HEAD"), bool(git("status", "--porcelain", "--untracked-files=no"))
    except (OSError, subprocess.SubprocessError):
        return None, None


def environment(load_start):
    sha, dirty = git_state()
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "git_sha": sha, "git_dirty": dirty,
        "python": platform.python_version(), "numpy": np.__version__, "scipy": scipy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": load_start, "loadavg_end": os.getloadavg(),
        "thread_cap": {k: v for k, v in os.environ.items() if k.endswith("_THREADS")},
    }


def main(args, load_start) -> int:
    workload = workloads.WORKLOADS[args.workload]()
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    with tempfile.TemporaryDirectory(prefix=".work-", dir=HERE) as tmp:
        if args.trace:
            correct, attempted, failed, metrics = traced_run(workload, args.seed, Path(tmp))
        else:
            correct, attempted, failed, metrics = timed_run(
                workload, args.seed, args.seconds, Path(tmp))
    print("env " + json.dumps(environment(load_start)))
    for name, (value, unit, note) in metrics.items():
        print(f"{name:40s} {value:>16.6g} {unit:8s} {note}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }, allow_nan=False))
    return 0
