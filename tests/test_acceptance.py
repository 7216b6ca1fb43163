"""Acceptance suite: one test per release criterion.

Each test prints a single PASS/FAIL line (visible with `pytest -s`, and in the
captured output of any failing test) before asserting, so the acceptance
status of every criterion is readable from one run.
"""

import dataclasses
import json
import pathlib

import numpy as np
import pytest
from scipy import stats

from attnalloc import (
    AllocationProblem,
    ExperimentConfig,
    ExperimentRunner,
    WorldConfig,
    allocate_uniform,
    allocate_weighted,
    fit_baseline,
    generate_world,
    ground_truth_levels,
)
from attnalloc.allocate import objective_value
from attnalloc.experiment import aggregate, report_summary_json, reports_to_csv
from attnalloc.mf import evaluate, holdout_mask, save_model
from attnalloc.records import save_records
from attnalloc.world import _draw_images, save_world
from oracles import attention_from_gaze, brute_force_allocate

ENVELOPE_PATH = pathlib.Path(__file__).resolve().parent.parent / "calibration" / "envelope.json"


def report(number, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number} ({name}): {status} [{detail}]")
    return ok


def test_criterion_1_worked_example():
    value = attention_from_gaze((100, 300, 200), (20, 30, 40))
    ok = report(1, "worked-example fidelity", value == 0.15, f"value={value!r}")
    assert ok


def test_criterion_2_allocator_oracle_equivalence():
    rng = np.random.default_rng(2024)
    worst_gap = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 4))
        weights = rng.uniform(0.1, 5.0, size=n)
        slack = rng.uniform(0.5, 10.0)
        problem = AllocationProblem(weights, n * 15.0 + slack, 15.0)
        exact = allocate_weighted(problem)
        oracle = brute_force_allocate(problem, 0.01)
        gap = float(np.max(np.abs(exact.capacities - oracle.capacities)))
        worst_gap = max(worst_gap, gap)
        assert objective_value(problem.weights, exact.capacities) >= objective_value(
            problem.weights, oracle.capacities) - 1e-9
    ok = report(2, "allocator oracle equivalence", worst_gap <= 0.02,
                f"max per-coordinate gap {worst_gap:.4f} K over 200 problems")
    assert ok


def test_criterion_3_kkt_invariants():
    rng = np.random.default_rng(3)
    checked = 0
    for _ in range(10_000):
        n = int(rng.integers(1, 65))
        weights = rng.uniform(0.0, 5.0, size=n)
        if rng.random() < 0.2:
            weights[rng.integers(n)] = 0.0
        floor = float(rng.uniform(1.5, 20.0))
        budget = n * floor * (1.0 + float(rng.uniform(0.0, 3.0)))
        problem = AllocationProblem(weights, budget, floor)
        result = allocate_weighted(problem)
        c = result.capacities

        assert abs(c.sum() - budget) <= 1e-9 * max(1.0, budget)
        assert c.min() >= floor - 1e-12
        order = np.argsort(weights, kind="stable")
        assert (np.diff(c[order]) >= -1e-9).all()
        for k in (1e-3, 1.0, 1e3):
            scaled = allocate_weighted(AllocationProblem(weights * k, budget, floor))
            assert np.array_equal(scaled.capacities, c)
        uniform = allocate_uniform(n, budget, floor)
        assert objective_value(weights, c) >= objective_value(
            weights, uniform.capacities) - 1e-9
        checked += 1
    ok = report(3, "KKT invariants", checked == 10_000,
                f"{checked} random problems, N up to 64")
    assert ok


@pytest.fixture(scope="module")
def multi_seed_runners(runner_cache):
    return [runner_cache(seed) for seed in range(10)]


def test_criterion_4_prediction_lift(multi_seed_runners):
    wins = 0
    for runner in multi_seed_runners:
        seed = runner.config.master_seed
        truth = ground_truth_levels(runner.world)
        mask = holdout_mask(runner.records, runner.world.num_users,
                            runner.world.num_objects, seed=seed)
        mf_rmse = evaluate(runner.model.predictor(), truth, mask).rmse
        base_rmse = evaluate(fit_baseline(runner.records).predictor(), truth, mask).rmse
        wins += mf_rmse < base_rmse
    ok = report(4, "prediction lift", wins >= 9,
                f"factor model beat the mean baseline in {wins}/10 seeds")
    assert ok


def test_criterion_5_end_to_end_improvement(multi_seed_runners, runner_cache):
    default_reports = runner_cache(7).all_reports()
    agg = aggregate(default_reports)
    positive = sum(r.improvement_pct > 0 for r in default_reports)
    ordered = all(
        r.qoe_oracle >= r.qoe_aware - 1e-9 and r.qoe_aware >= 0
        for r in default_reports
    )

    seed_means = [
        aggregate(runner.all_reports()).mean_improvement_pct
        for runner in multi_seed_runners
    ]
    overall = float(np.mean(seed_means))
    envelope = json.loads(ENVELOPE_PATH.read_text())["envelope"]

    ok = report(
        5, "end-to-end improvement",
        agg.mean_improvement_pct > 0 and positive >= 24 and ordered
        and envelope[0] <= overall <= envelope[1],
        f"default mean {agg.mean_improvement_pct:.2f}%, {positive}/30 positive, "
        f"10-seed mean {overall:.2f}% vs envelope {envelope}",
    )
    assert ok


def test_criterion_6_capacity_sweep_trend():
    sweep = ExperimentRunner(ExperimentConfig()).sweep()
    factors = np.array([f for f, _ in sweep.points])
    improvements = np.array([i for _, i in sweep.points])
    slope = float(np.polyfit(factors, improvements, 1)[0])
    first, last = improvements[0], improvements[-1]
    ok = report(6, "capacity-sweep trend", slope < 0 and first > last,
                f"LS slope {slope:+.4f}, improvement 16K={first:.2f}% vs 40K={last:.2f}%")
    assert ok


def test_criterion_7_determinism_round_trip(tmp_path):
    config = ExperimentConfig(
        world=WorldConfig(num_users=6, num_objects=32, num_images=100,
                          max_objects_per_image=8),
        sweep_user=1,
    )
    config = dataclasses.replace(
        config, fit=dataclasses.replace(config.fit, epochs=30)
    )

    def produce(tag):
        from attnalloc.experiment import aggregate as agg_fn
        runner = ExperimentRunner(config)
        base = tmp_path / tag
        base.mkdir()
        save_world(runner.world, base / "world.json")
        save_records(runner.records, base / "records.csv")
        save_model(runner.model, base / "model.json")
        reports = runner.all_reports()
        reports_to_csv(reports, base / "reports.csv")
        report_summary_json(config, reports, agg_fn(reports), base / "summary.json")
        return base

    a, b = produce("a"), produce("b")
    identical = all(
        (a / name).read_bytes() == (b / name).read_bytes()
        for name in ("world.json", "records.csv", "model.json",
                     "reports.csv", "summary.json")
    )

    from attnalloc import load_records, load_world
    from attnalloc.mf import load_model
    from attnalloc.world import world_to_dict
    from oracles import model_to_dict
    round_trips = True
    loaded_world = load_world(a / "world.json")
    save_world(loaded_world, a / "world2.json")
    round_trips &= (a / "world2.json").read_bytes() == (a / "world.json").read_bytes()
    loaded_records = load_records(a / "records.csv")
    save_records(loaded_records, a / "records2.csv")
    round_trips &= (a / "records2.csv").read_bytes() == (a / "records.csv").read_bytes()
    loaded_model = load_model(a / "model.json")
    save_model(loaded_model, a / "model2.json")
    round_trips &= (a / "model2.json").read_bytes() == (a / "model.json").read_bytes()

    ok = report(7, "determinism and round-trip", identical and round_trips,
                f"bit-identical files {identical}, round-trips {round_trips}")
    assert ok


def test_criterion_8_sparsification_statistics():
    config = WorldConfig(num_users=2, num_objects=24, num_images=100,
                         max_objects_per_image=8)
    world = generate_world(config, seed=0)
    ran1_counts = {2: 0, 3: 0, 4: 0}
    fractions = []
    for seed in range(1000):
        ran1, _, groups, retained = _draw_images(world, 0, seed)
        ran1_counts[ran1] += 1
        selected_total = sum(len(world.group_image_ids(g)) for g in groups)
        fractions.append(len(retained) / selected_total)

    counts = [ran1_counts[k] for k in (2, 3, 4)]
    p_value = stats.chisquare(counts).pvalue
    mean_fraction = float(np.mean(fractions))
    ok = report(
        8, "sparsification statistics",
        p_value > 0.01 and 0.49 <= mean_fraction <= 0.51,
        f"ran1 counts {counts} (chi-square p={p_value:.3f}), "
        f"mean retained fraction {mean_fraction:.4f}",
    )
    assert ok
