"""The benchmark's self-checks, run briefly on each workload: a package change
that breaks what ``perfbench/`` calls (``.records``, ``sorted_list()``,
``predictor()``, ``len()``) fails here rather than only in a benchmark run.
The tracer counts ``world.sparsify.records_out`` from the results of calls
that reach ``attnalloc.world.sparsify`` through a module attribute; the
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


def _count_sparsify_results(monkeypatch) -> list:
    """Bind a counting wrapper of ``attnalloc.world.sparsify`` to every
    attnalloc module attribute that holds it, as the tracer does; returns
    the list that gets each call's result length."""
    original = attnalloc.world.sparsify
    lengths = []

    def counted(*args, **kwargs):
        result = original(*args, **kwargs)
        lengths.append(len(result))
        return result

    for name, module in list(sys.modules.items()):
        if name == "attnalloc" or name.startswith("attnalloc."):
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, counted)
    return lengths


def test_runner_records_reach_sparsify_through_the_module(monkeypatch):
    lengths = _count_sparsify_results(monkeypatch)
    records = ExperimentRunner(ExperimentConfig(world=SMALL_WORLD)).records
    assert lengths and sum(lengths) == len(records)


@pytest.mark.parametrize("user", [[], ["--user", "3"]], ids=["all users", "one user"])
def test_cli_sparsify_reaches_sparsify_through_the_module(monkeypatch, tmp_path, capsys, user):
    lengths = _count_sparsify_results(monkeypatch)
    out = tmp_path / "records.csv"
    assert cli_main(["sparsify", "--out", str(out), *user]) == EXIT_OK
    capsys.readouterr()
    assert lengths and sum(lengths) == len(load_records(out))
