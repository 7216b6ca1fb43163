"""End-to-end harness: world -> sparse records -> factor model -> allocation
-> QoE scoring against ground-truth attention.

The aware scheme allocates by predicted attention, the oracle by true
attention; all three schemes (plus uniform) are scored with the user's true
raw attention values, so allocation quality is judged against the ground
truth rather than the model's own beliefs. Everything is a pure function of
(config, master seed): per-user draws come from named substreams.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, asdict
from itertools import chain

import numpy as np

from .allocate import AllocationProblem, allocate_uniform, allocate_weighted
from .mf import FitConfig, fit_mf, predict_scene
from .qoe import ChannelConfig, ChannelError, LinkParams, QoETerms, link_from_channel, qoe
from .schema import check_fields, check_seed, write_json, write_text
from .world import WorldConfig, attention_matrix, check_user, generate_world, sparsify

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
        check_fields(self)
        check_seed(self.master_seed)
        if self.budget_per_object_k <= self.floor_k:
            raise ValueError("budget_per_object_k must exceed floor_k")
        if not self.sweep_factors:
            raise ValueError("sweep_factors must be non-empty")
        if any(b <= a for a, b in zip(self.sweep_factors, self.sweep_factors[1:])):
            raise ValueError(f"sweep_factors must be strictly increasing, got {self.sweep_factors}")
        if self.sweep_user < 0:
            raise ValueError(f"sweep_user must be >= 0, got {self.sweep_user}")
        if any(f <= self.floor_k for f in self.sweep_factors):
            raise ValueError("every sweep budget factor must exceed floor_k")
        if not (1 <= self.scene_retain_lo <= self.scene_retain_hi <= 100):
            raise ValueError("scene retain percentages must satisfy 1 <= lo <= hi <= 100")
        # a scene's budget is its size times a factor, and a scene holds at
        # most num_objects objects
        n = self.world.num_objects
        for name, factor in (("budget_per_object_k", self.budget_per_object_k),
                             ("sweep factor", self.sweep_factors[-1])):
            if not math.isfinite(factor * n):
                raise ValueError(f"{name} {factor!r} times world.num_objects {n} "
                                 "is not finite")
        # built once, here, so that a channel that gives no link fails when
        # the config is read; an attribute, not a field, so asdict and the
        # config file leave it out
        link = self.link if self.link is not None else link_from_channel(self.channel)
        # attention weights are at most 1, so no QoE exceeds the link factor
        # times n times the log of the largest budget (one of 1 K or less
        # fails when it is allocated)
        budget = n * max(self.budget_per_object_k, self.sweep_factors[-1])
        if budget > 1 and not math.isfinite(link.factor * (n * math.log(budget))):
            raise ChannelError(
                f"the link factor downlink_rate * (1 - uplink_ber), {link.factor!r}, times "
                f"world.num_objects {n} times the log of the largest budget {budget!r} is not "
                "finite, so a QoE would overflow")
        # and no log term is below log(floor_k), so a subnormal product
        # would leave every QoE a few ulps
        if self.floor_k > 1 and link.factor * math.log(self.floor_k) < sys.float_info.min:
            raise ChannelError(
                f"the link factor downlink_rate * (1 - uplink_ber), {link.factor!r}, times the "
                f"log of floor_k {self.floor_k!r} is below the smallest normal float "
                f"{sys.float_info.min!r}, so a QoE would lose its precision")
        object.__setattr__(self, "_link", link)

    def link_params(self) -> LinkParams:
        return self._link


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
        self._scenes = None  # every user's scene: (indptr, object ids), drawn at once

    @property
    def world(self):
        if self._world is None:
            self._world = generate_world(self.config.world, self.config.master_seed)
        return self._world

    @property
    def records(self):
        if self._records is None:
            self._records = sparsify(
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
        check_user(self.world, user)
        if self._truth is None:
            self._truth = attention_matrix(self.world)
            self._truth.setflags(write=False)
        return self._truth[user]

    def scene_objects(self, user: int) -> list:
        """The evaluated scene: objects of a random retained subset of one
        randomly selected service group (seeded per user), ascending; drawn for all at once."""
        check_user(self.world, user)  # before the row read, where True reads user 1's scene
        if self._scenes is None:
            self._scenes = self._draw_scenes()
        indptr, flat = self._scenes
        return flat[indptr[user]:indptr[user + 1]]

    def _draw_scenes(self) -> tuple:
        """Every user's scene as CSR lists ``(indptr, object ids)``: each drawn
        from its own substream, all found in one pass over their images' occurrences."""
        world, cfg = self.world, self.config
        images = []
        for user in range(world.num_users):
            rng = np.random.default_rng(
                np.random.SeedSequence(entropy=cfg.master_seed, spawn_key=(_SCENE_STREAM, user))
            )
            group = int(rng.integers(world.num_groups))
            pct = int(rng.integers(cfg.scene_retain_lo, cfg.scene_retain_hi + 1))
            ids = world.group_image_ids(group)
            keep = max(1, round(pct * len(ids) / 100))
            images.append(ids[np.sort(rng.choice(len(ids), size=keep, replace=False))])
        ids = np.concatenate(images)
        _, objects, _ = world.occurrences(ids)
        # row u of the users x objects presence matrix holds user u's scene
        rows = np.repeat(np.repeat(np.arange(world.num_users), [i.size for i in images]),
                         world.indptr[ids + 1] - world.indptr[ids])
        present = np.zeros((world.num_users, world.num_objects), dtype=bool)
        present[rows, objects] = True
        indptr = np.concatenate(([0], np.cumsum(present.sum(1)))).tolist()
        return indptr, np.nonzero(present)[1].tolist()

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


def reports_to_csv(reports, path) -> None:
    rows = [(r.user_id, r.n_objects, r.qoe_uniform, r.qoe_aware, r.qoe_oracle, r.improvement_pct)
            for r in sorted(reports, key=lambda r: r.user_id)]
    write_text("user_id,n_objects,qoe_uniform,qoe_aware,qoe_oracle,improvement_pct\n"
               + ("%d,%d,%r,%r,%r,%r\n" * len(rows)) % tuple(chain.from_iterable(rows)), path)


def sweep_to_csv(report: SweepReport, path) -> None:
    write_text("budget_factor_k,mean_improvement_pct\n" + ("%r,%r\n" * len(report.points))
               % tuple(chain.from_iterable(report.points)), path)


def report_summary_json(config: ExperimentConfig, reports, agg: Aggregate, path) -> None:
    doc = {
        "version": REPORT_FORMAT_VERSION,
        "seed": config.master_seed,
        "config": asdict(config),
        "reports": [asdict(r) for r in sorted(reports, key=lambda r: r.user_id)],
        "aggregate": asdict(agg),
    }
    write_json(doc, path)
