"""The benchmark's self-checks, run briefly on each workload: a package change
that breaks what ``perfbench/`` calls (``.records``, ``sorted_list()``,
``predictor()``, ``len()``) fails here rather than only in a benchmark run.
The tracer counts ``world.sparsify.records_out``, ``mf.predict.pairs`` and
``allocate.weighted.objects`` from the results of calls that reach
``attnalloc.world.sparsify``, ``attnalloc.mf.predict_scene`` and
``attnalloc.allocate.allocate_weighted`` through a module attribute; the
in-process tests below check that the runner and the CLI still do."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import attnalloc
from attnalloc import ExperimentConfig, ExperimentRunner, load_records
from attnalloc.cli import EXIT_OK, cli_main
from conftest import SMALL_WORLD

RUN = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


@pytest.mark.parametrize("workload", ["pipeline", "dataset-noisy", "serve"])
def test_benchmark_self_checks_pass(workload):
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "0", "--seconds", "1",
         "--trace", "1"],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1])["correct"] is True, done.stdout


def _count_results(monkeypatch, original, size) -> list:
    """Bind a counting wrapper of the attnalloc function ``original`` to
    every attnalloc module attribute that holds it, as the tracer does;
    returns the list that gets ``size(result)`` for each call."""
    sizes = []

    def counted(*args, **kwargs):
        result = original(*args, **kwargs)
        sizes.append(size(result))
        return result

    for name, module in list(sys.modules.items()):
        if name == "attnalloc" or name.startswith("attnalloc."):
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, counted)
    return sizes


def test_runner_records_reach_sparsify_through_the_module(monkeypatch):
    lengths = _count_results(monkeypatch, attnalloc.world.sparsify, len)
    records = ExperimentRunner(ExperimentConfig(world=SMALL_WORLD)).records
    assert lengths and sum(lengths) == len(records)


@pytest.mark.parametrize("user", [[], ["--user", "3"]], ids=["all users", "one user"])
def test_cli_sparsify_reaches_sparsify_through_the_module(monkeypatch, tmp_path, capsys, user):
    lengths = _count_results(monkeypatch, attnalloc.world.sparsify, len)
    out = tmp_path / "records.csv"
    assert cli_main(["sparsify", "--out", str(out), *user]) == EXIT_OK
    capsys.readouterr()
    assert lengths and sum(lengths) == len(load_records(out))


def test_reports_and_sweep_reach_predict_and_allocate_through_the_module(monkeypatch):
    # the tracer counts mf.predict.pairs and allocate.weighted.objects from
    # these calls, and the benchmark's check expects one prediction and two
    # weighted allocations per report and sweep point
    pairs = _count_results(monkeypatch, attnalloc.mf.predict_scene, lambda result: result.size)
    objects = _count_results(monkeypatch, attnalloc.allocate.allocate_weighted,
                             lambda result: result.capacities.size)
    runner = ExperimentRunner(ExperimentConfig(world=SMALL_WORLD))
    reports = runner.all_reports()
    sweep = runner.sweep()
    sizes = sum(r.n_objects for r in reports) \
        + len(sweep.points) * len(runner.scene_objects(sweep.user_id))
    assert len(pairs) == len(reports) + len(sweep.points) and sum(pairs) == sizes
    assert len(objects) == 2 * len(pairs) and sum(objects) == 2 * sizes
