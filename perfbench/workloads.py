"""The benchmark's three workloads.

A workload has a set-up, an endless stream of ``(key, unit input)`` pairs
drawn from the workload seed, the unit itself (the timed calls into
attnalloc) and an untimed check of the unit's output. Units that share a key
are the same input repeated; the benchmark takes each key's mean time.
``fixed_units`` is the number of units every run completes: the quality
metrics and the traced run use exactly these, so they depend on the seed
alone and never on the machine's speed.

Every call into attnalloc goes through a module attribute, looked up at call
time, so that the traced run's wrappers see it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import itertools
import math
from types import SimpleNamespace

import numpy as np

allocate = importlib.import_module("attnalloc.allocate")
experiment = importlib.import_module("attnalloc.experiment")
mf = importlib.import_module("attnalloc.mf")
# the package attribute attnalloc.qoe is the function, not the module
qoe_mod = importlib.import_module("attnalloc.qoe")
records_mod = importlib.import_module("attnalloc.records")
world = importlib.import_module("attnalloc.world")

# counts the traced run must reproduce exactly from its own wrappers
COUNT_KEYS = (
    "world.sparsify.records_out",
    "mf.fit.sgd_updates",
    "mf.predict.pairs",
    "allocate.weighted.objects",
)

REL_TOL = 1e-9
DATASET_GAZE_NOISE = 0.1
SERVE_REQUESTS = 1000      # one pass over the request list
SERVE_BLOCK = 50           # each block of 50 requests holds one large scene
SERVE_LARGE_N = 5000
_SERVE_STREAM = 901


@dataclasses.dataclass(frozen=True)
class Outcome:
    ok: bool
    digest: str = ""
    counts: dict = dataclasses.field(default_factory=dict)
    improvement_pct: float = math.nan
    holdout_rmse: float = math.nan


FAILED = Outcome(ok=False)


@dataclasses.dataclass(frozen=True)
class Request:
    user: int
    objects: list
    weights_true: np.ndarray
    budget: float
    floor: float


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.tobytes() if isinstance(part, np.ndarray) else repr(part).encode())
    return h.hexdigest()[:16]


def _counts(records_out=0, sgd_updates=0, pairs=0):
    return dict(zip(COUNT_KEYS, (records_out, sgd_updates, pairs, 2 * pairs)))


def _allocate_and_score(weights_pred, weights_true, budget, floor, link):
    """Uniform, aware (predicted weights) and oracle (true weights)
    allocations, each scored by QoE under the true weights."""
    allocations = (
        allocate.allocate_uniform(len(weights_pred), budget, floor),
        allocate.allocate_weighted(allocate.AllocationProblem(weights_pred, budget, floor)),
        allocate.allocate_weighted(allocate.AllocationProblem(weights_true, budget, floor)),
    )
    scores = tuple(
        qoe_mod.qoe(qoe_mod.QoETerms(weights_true, a.capacities, link)) for a in allocations
    )
    return allocations, scores


def _improvement(scores) -> float:
    uniform, aware, _ = scores
    return (aware - uniform) / uniform * 100.0


def _allocations_ok(weights_pred, allocations, scores, budget, floor) -> bool:
    """Budget conserved, floors met, oracle >= aware under the true weights,
    and aware >= uniform under the predicted weights."""
    for a in allocations:
        caps = a.capacities
        if abs(caps.sum() - budget) > REL_TOL * budget or caps.min() < floor:
            return False
    _, aware, oracle = scores
    if oracle < aware - REL_TOL * abs(aware):
        return False
    uniform_obj, aware_obj = (
        allocate.objective_value(weights_pred, a.capacities) for a in allocations[:2]
    )
    return aware_obj >= uniform_obj - REL_TOL * abs(uniform_obj)


class _SeedUnits:
    """A workload whose unit is one master seed; unit i of a run uses master
    seed 1000 * seed + i, so no unit repeats."""

    # the quality metrics are means over these seeds; fewer let the world
    # drawn for each seed swing them by more than a third of their bound
    fixed_units = 3

    def setup_counts(self, state):
        return _counts()

    def inputs(self, state):
        return ((i, state.seed * 1000 + i) for i in itertools.count())

    def quality(self, state, outcomes):
        return _mean_quality(outcomes)


class Pipeline(_SeedUnits):
    """One master seed of `attnalloc experiment` plus sweep, calibration-style
    aggregate and holdout evaluation, staging world, records and model
    through their files as the CLI does."""

    name = "pipeline"

    def setup(self, seed):
        return SimpleNamespace(seed=seed, config=experiment.ExperimentConfig())

    def run(self, state, master_seed, workdir):
        runner = experiment.ExperimentRunner(
            dataclasses.replace(state.config, master_seed=master_seed)
        )
        paths = workdir / "world.json", workdir / "records.csv", workdir / "model.json"
        world.save_world(runner.world, paths[0])
        loaded_world = world.load_world(paths[0])
        records_mod.save_records(runner.records, paths[1])
        loaded_records = records_mod.load_records(paths[1])
        mf.save_model(runner.model, paths[2])
        loaded_model = mf.load_model(paths[2])
        reports = runner.all_reports()
        sweep = runner.sweep()
        truth = world.ground_truth_levels(loaded_world)
        mask = mf.holdout_mask(loaded_records, loaded_world.num_users, loaded_world.num_objects)
        mf_rmse = mf.evaluate(loaded_model.predictor(), truth, mask).rmse
        base_rmse = mf.evaluate(mf.fit_baseline(loaded_records).predictor(), truth, mask).rmse
        return SimpleNamespace(runner=runner, reports=reports, sweep=sweep,
                               mf_rmse=mf_rmse, base_rmse=base_rmse)

    def _recompute(self, runner, user, factor):
        objects = runner.scene_objects(user)
        truth = runner.truth_raw(user)
        weights_pred = mf.predict_scene(runner.model, user, objects)
        budget = len(objects) * factor
        floor = runner.config.floor_k
        allocations, scores = _allocate_and_score(
            weights_pred, np.array([truth[o] for o in objects]), budget, floor,
            runner.config.link_params(),
        )
        return _allocations_ok(weights_pred, allocations, scores, budget, floor), scores

    def check(self, state, master_seed, out):
        """Re-solves every report's allocations (deterministic, so the
        scores must match the reported ones exactly) and checks them."""
        runner, cfg = out.runner, out.runner.config
        ok = math.isfinite(out.mf_rmse)
        pairs = 0
        for r in out.reports:
            good, scores = self._recompute(runner, r.user_id, cfg.budget_per_object_k)
            ok &= good and scores == (r.qoe_uniform, r.qoe_aware, r.qoe_oracle)
            pairs += r.n_objects
        for factor, improvement in out.sweep.points:
            good, scores = self._recompute(runner, out.sweep.user_id, factor)
            ok &= good and _improvement(scores) == improvement
            pairs += len(runner.scene_objects(out.sweep.user_id))
        model = runner.model
        return Outcome(
            ok=ok,
            digest=_digest(out.reports, out.sweep.points, out.mf_rmse, out.base_rmse,
                           model.user_factors, model.object_factors),
            counts=_counts(len(runner.records), len(runner.records) * cfg.fit.epochs, pairs),
            improvement_pct=experiment.aggregate(out.reports).mean_improvement_pct,
            holdout_rmse=out.mf_rmse,
        )


class DatasetNoisy(_SeedUnits):
    """One seed of dataset building at gaze noise 0.1: CLI `generate`, then
    `sparsify --world`, then the dense ground-truth CSV that `eval` reads."""

    name = "dataset-noisy"

    def setup(self, seed):
        config = dataclasses.replace(world.WorldConfig(), gaze_noise=DATASET_GAZE_NOISE)
        return SimpleNamespace(seed=seed, config=config, experiment=experiment.ExperimentConfig())

    def run(self, state, master_seed, workdir):
        paths = workdir / "world.json", workdir / "records.csv", workdir / "truth.csv"
        generated = world.generate_world(state.config, master_seed)
        world.save_world(generated, paths[0])
        loaded = world.load_world(paths[0])
        merged = frozenset()
        for user in range(loaded.num_users):
            merged |= world.sparsify(loaded, user, master_seed).records
        records = records_mod.SparseAttentionRecords(merged)
        records_mod.save_records(records, paths[1])
        loaded_records = records_mod.load_records(paths[1])
        truth = world.ground_truth_levels(loaded)
        dense = records_mod.SparseAttentionRecords(frozenset(
            (u, o, int(level)) for (u, o), level in np.ndenumerate(truth.levels)
        ))
        records_mod.save_records(dense, paths[2])
        loaded_dense = records_mod.load_records(paths[2])
        return SimpleNamespace(generated=generated, loaded=loaded, records=records,
                               loaded_records=loaded_records, truth=truth,
                               dense=dense, loaded_dense=loaded_dense)

    def check(self, state, master_seed, out):
        """Exact round trips, equal-frequency level rows, and an untimed
        quality probe: the mean-imputation baseline fitted on the records,
        scored on the holdout pairs and used to allocate each user's whole
        catalog against the true levels."""
        levels = out.truth.levels
        ok = (
            world.world_to_dict(out.generated) == world.world_to_dict(out.loaded)
            and out.records.records == out.loaded_records.records
            and out.dense.records == out.loaded_dense.records
        )
        for row in levels:
            per_level = np.bincount(row, minlength=6)[1:]
            ok &= bool(per_level.max() - per_level.min() <= 1)

        num_users, num_objects = levels.shape
        baseline = mf.fit_baseline(out.loaded_records)
        mask = mf.holdout_mask(out.loaded_records, num_users, num_objects)
        rmse = mf.evaluate(baseline.predictor(), out.truth, mask).rmse
        cfg = state.experiment
        budget = num_objects * cfg.budget_per_object_k
        improvements = []
        for user in range(num_users):
            pred = np.array([baseline.predict(user, o) for o in range(num_objects)])
            allocations, scores = _allocate_and_score(
                pred, levels[user].astype(np.float64), budget, cfg.floor_k, cfg.link_params()
            )
            ok &= _allocations_ok(pred, allocations, scores, budget, cfg.floor_k)
            improvements.append(_improvement(scores))
        return Outcome(
            ok=ok,
            digest=_digest(out.records.sorted_list(), levels, out.generated.interest),
            counts=_counts(records_out=len(out.records)),
            improvement_pct=float(np.mean(improvements)),
            holdout_rmse=rmse,
        )


class Serve:
    """Allocation requests against the default experiment's world and model,
    built in set-up; the seed draws the request stream. Each block of 50
    requests holds 49 desk-scale scenes from ExperimentRunner.scene_objects
    and one scene of 5,000 object instances drawn with replacement from the
    catalog, so p50 is a desk-scale request and p99 a large one."""

    name = "serve"
    fixed_units = SERVE_REQUESTS

    def setup(self, seed):
        cfg = experiment.ExperimentConfig()
        runner = experiment.ExperimentRunner(cfg)
        model = runner.model
        num_users, num_objects = runner.world.num_users, runner.world.num_objects
        scenes = [runner.scene_objects(u) for u in range(num_users)]
        truth = [runner.truth_raw(u) for u in range(num_users)]
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(_SERVE_STREAM,)))
        requests = []
        for _ in range(SERVE_REQUESTS // SERVE_BLOCK):
            large_at = int(rng.integers(SERVE_BLOCK))
            for i in range(SERVE_BLOCK):
                user = int(rng.integers(num_users))
                factor = float(rng.choice(cfg.sweep_factors))
                if i == large_at:
                    objects = rng.integers(num_objects, size=SERVE_LARGE_N).tolist()
                else:
                    objects = scenes[user]
                requests.append(Request(
                    user=user, objects=objects,
                    weights_true=np.array([truth[user][o] for o in objects]),
                    budget=len(objects) * factor, floor=cfg.floor_k,
                ))
        return SimpleNamespace(runner=runner, model=model, link=cfg.link_params(),
                               requests=requests)

    def setup_counts(self, state):
        n = len(state.runner.records)
        return _counts(records_out=n, sgd_updates=n * state.runner.config.fit.epochs)

    def inputs(self, state):
        # the list is replayed, so each request is timed once per pass
        return itertools.cycle(enumerate(state.requests))

    def run(self, state, request, workdir):
        pred = mf.predict_scene(state.model, request.user, request.objects)
        allocations, scores = _allocate_and_score(
            pred, request.weights_true, request.budget, request.floor, state.link
        )
        return pred, allocations, scores

    def check(self, state, request, out):
        pred, allocations, scores = out
        return Outcome(
            ok=_allocations_ok(pred, allocations, scores, request.budget, request.floor),
            digest=_digest(pred, *(a.capacities for a in allocations), scores),
            counts=_counts(pairs=len(request.objects)),
            improvement_pct=_improvement(scores),
        )

    def quality(self, state, outcomes):
        """Mean improvement over one pass of the request list; holdout RMSE
        of the served model."""
        runner = state.runner
        truth = world.ground_truth_levels(runner.world)
        mask = mf.holdout_mask(runner.records, runner.world.num_users, runner.world.num_objects)
        rmse = mf.evaluate(state.model.predictor(), truth, mask).rmse
        return _mean_quality(outcomes)[0], rmse


def _mean_quality(outcomes):
    good = [o for o in outcomes if o.ok]
    if not good:
        return 0.0, 0.0
    return (float(np.mean([o.improvement_pct for o in good])),
            float(np.mean([o.holdout_rmse for o in good])))


WORKLOADS = {w.name: w for w in (Pipeline, DatasetNoisy, Serve)}
