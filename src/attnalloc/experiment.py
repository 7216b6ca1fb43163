"""End-to-end harness: world -> sparse records -> factor model -> allocation
-> QoE scoring against ground-truth attention.

The aware scheme allocates by predicted attention, the oracle by true
attention; all three schemes (plus uniform) are scored with the user's true
raw attention values, so allocation quality is judged against the ground
truth rather than the model's own beliefs. Everything is a pure function of
(config, master seed): per-user draws come from named substreams.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, asdict

import numpy as np

from .allocate import AllocationProblem, allocate_uniform, allocate_weighted
from .mf import FitConfig, fit_mf, predict_scene
from .qoe import ChannelConfig, LinkParams, QoETerms, link_from_channel, qoe
from .world import (WorldConfig, _attention_matrix, _check_fields, _check_user,
                    generate_world, sparsify_users, write_json)

REPORT_FORMAT_VERSION = "attnalloc-report/1"

_SCENE_STREAM = 103


@dataclass(frozen=True)
class ExperimentConfig:
    world: WorldConfig = field(default_factory=WorldConfig)
    fit: FitConfig = field(default_factory=FitConfig)
    channel: ChannelConfig = field(default_factory=ChannelConfig)
    link: LinkParams | None = None  # direct override of the channel model
    master_seed: int = 7
    # just above the 1 K that keeps every log term positive; a floor that
    # binds would leave little capacity to move when the budget is scarce
    floor_k: float = 2.0
    budget_per_object_k: float = 20.0
    sweep_factors: tuple[float, ...] = tuple(range(16, 41, 2))
    sweep_user: int = 2
    scene_retain_lo: int = 30
    scene_retain_hi: int = 70

    def __post_init__(self):
        _check_fields(self)
        if self.budget_per_object_k <= self.floor_k:
            raise ValueError("budget_per_object_k must exceed floor_k")
        if not self.sweep_factors:
            raise ValueError("sweep_factors must be non-empty")
        if any(f <= self.floor_k for f in self.sweep_factors):
            raise ValueError("every sweep budget factor must exceed floor_k")
        if not (1 <= self.scene_retain_lo <= self.scene_retain_hi <= 100):
            raise ValueError("scene retain percentages must satisfy 1 <= lo <= hi <= 100")

    def link_params(self) -> LinkParams:
        return self.link if self.link is not None else link_from_channel(self.channel)


@dataclass(frozen=True)
class UserReport:
    user_id: int
    n_objects: int
    qoe_uniform: float
    qoe_aware: float
    qoe_oracle: float
    improvement_pct: float

    def __post_init__(self):
        if self.n_objects < 1:
            raise ValueError("a report needs at least one scene object")
        if self.qoe_oracle < self.qoe_aware - 1e-9 * max(1.0, abs(self.qoe_aware)):
            raise ValueError("oracle QoE cannot trail the aware QoE")


@dataclass(frozen=True)
class Aggregate:
    max_improvement_pct: float
    min_improvement_pct: float
    mean_improvement_pct: float


@dataclass(frozen=True)
class SweepReport:
    user_id: int
    points: tuple  # ((budget_factor_k, improvement_pct), ...)

    def __post_init__(self):
        factors = [f for f, _ in self.points]
        if factors != sorted(set(factors)):
            raise ValueError("sweep budget factors must be strictly increasing")


class ExperimentRunner:
    """Caches the expensive pipeline stages (world, records, fitted model) so
    per-user reports and sweeps reuse them."""

    def __init__(self, config: ExperimentConfig):
        self.config = config
        self._world = None
        self._records = None
        self._model = None
        self._truth = None
        self._scenes = {}

    @property
    def world(self):
        if self._world is None:
            self._world = generate_world(self.config.world, self.config.master_seed)
        return self._world

    @property
    def records(self):
        if self._records is None:
            self._records = sparsify_users(
                self.world, range(self.world.num_users), self.config.master_seed
            )
        return self._records

    @property
    def model(self):
        if self._model is None:
            self._model = fit_mf(
                self.records, self.config.fit,
                num_users=self.world.num_users, num_objects=self.world.num_objects,
            )
        return self._model

    def truth_raw(self, user: int) -> np.ndarray:
        """The user's true attention values over all images, indexed by
        object id."""
        _check_user(self.world, user)
        if self._truth is None:
            self._truth = _attention_matrix(self.world)
            self._truth.setflags(write=False)
        return self._truth[user]

    def scene_objects(self, user: int) -> list:
        """The evaluated scene: objects of a random retained subset of one
        randomly selected service group (seeded per user)."""
        if user not in self._scenes:
            cfg = self.config
            rng = np.random.default_rng(
                np.random.SeedSequence(entropy=cfg.master_seed, spawn_key=(_SCENE_STREAM, user))
            )
            group = int(rng.integers(self.world.num_groups))
            pct = int(rng.integers(cfg.scene_retain_lo, cfg.scene_retain_hi + 1))
            ids = self.world.group_image_ids(group)
            keep = max(1, round(pct * len(ids) / 100))
            chosen = np.sort(rng.choice(len(ids), size=keep, replace=False))
            _, objects, _ = self.world.occurrences(ids[chosen])
            self._scenes[user] = np.unique(objects).tolist()
        return self._scenes[user]

    def user_report(self, user: int, budget_factor_k: float | None = None) -> UserReport:
        cfg = self.config
        factor = cfg.budget_per_object_k if budget_factor_k is None else budget_factor_k
        objects = self.scene_objects(user)
        n = len(objects)
        budget = n * factor
        floor = cfg.floor_k

        weights_true = self.truth_raw(user)[objects]
        weights_pred = predict_scene(self.model, user, objects)

        alloc_uniform = allocate_uniform(n, budget, floor)
        alloc_aware = allocate_weighted(AllocationProblem(weights_pred, budget, floor))
        alloc_oracle = allocate_weighted(AllocationProblem(weights_true, budget, floor))

        link = cfg.link_params()
        score = lambda alloc: qoe(QoETerms(weights_true, alloc.capacities, link))
        qoe_uniform = score(alloc_uniform)
        qoe_aware = score(alloc_aware)
        qoe_oracle = score(alloc_oracle)

        return UserReport(
            user_id=user,
            n_objects=n,
            qoe_uniform=qoe_uniform,
            qoe_aware=qoe_aware,
            qoe_oracle=qoe_oracle,
            improvement_pct=(qoe_aware - qoe_uniform) / qoe_uniform * 100.0,
        )

    def all_reports(self) -> list:
        return [self.user_report(u) for u in range(self.world.num_users)]

    def sweep(self, user: int | None = None) -> SweepReport:
        user = self.config.sweep_user if user is None else user
        points = tuple(
            (float(factor), self.user_report(user, factor).improvement_pct)
            for factor in self.config.sweep_factors
        )
        return SweepReport(user_id=user, points=points)


def aggregate(reports) -> Aggregate:
    imps = [r.improvement_pct for r in reports]
    return Aggregate(
        max_improvement_pct=max(imps),
        min_improvement_pct=min(imps),
        mean_improvement_pct=float(np.mean(imps)),
    )


def run_all(config: ExperimentConfig):
    """All per-user reports (sorted by user id) plus aggregate statistics."""
    reports = ExperimentRunner(config).all_reports()
    return reports, aggregate(reports)


def run_sweep(config: ExperimentConfig, user: int | None = None) -> SweepReport:
    return ExperimentRunner(config).sweep(user)


def reports_to_csv(reports, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            ("user_id", "n_objects", "qoe_uniform", "qoe_aware", "qoe_oracle", "improvement_pct")
        )
        for r in sorted(reports, key=lambda r: r.user_id):
            writer.writerow((
                r.user_id, r.n_objects, repr(r.qoe_uniform), repr(r.qoe_aware),
                repr(r.qoe_oracle), repr(r.improvement_pct),
            ))


def sweep_to_csv(report: SweepReport, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("budget_factor_k", "mean_improvement_pct"))
        for factor, improvement in report.points:
            writer.writerow((repr(factor), repr(improvement)))


def report_summary_json(config: ExperimentConfig, reports, agg: Aggregate, path) -> None:
    doc = {
        "version": REPORT_FORMAT_VERSION,
        "seed": config.master_seed,
        "config": asdict(config),
        "reports": [asdict(r) for r in sorted(reports, key=lambda r: r.user_id)],
        "aggregate": asdict(agg),
    }
    write_json(doc, path)
