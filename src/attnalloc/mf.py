"""Latent-factor prediction of attention levels from sparse records.

Bias-augmented matrix factorization trained by SGD on observed (user, object,
level) triples with L2 shrinkage, plus mean-imputation baselines and holdout
metrics. Predicted levels are inner products in a shared semantic space,
clamped to the 1..5 level range at prediction time.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .records import SparseAttentionRecords
from .world import _is_number, _require, write_json

MODEL_FORMAT_VERSION = "attn-mf/1"

LEVEL_CLAMP = (1.0, 5.0)


class FitError(ValueError):
    """Model fitting is impossible (e.g. no records)."""


class EvaluationError(ValueError):
    """Metrics requested over an empty holdout mask."""


@dataclass(frozen=True)
class FitConfig:
    f: int = 6
    learning_rate: float = 0.01
    regularization: float = 0.05
    epochs: int = 200
    init_scale: float = 1.0
    seed: int = 0

    def validate(self):
        for name in ("learning_rate", "regularization", "init_scale"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise FitError(f"{name} must be finite, got {value!r}")
        if self.f < 1:
            raise FitError("latent dimension f must be >= 1")
        if self.learning_rate <= 0:
            raise FitError("learning_rate must be positive")
        if self.regularization < 0:
            raise FitError("regularization must be non-negative")
        if self.epochs < 1:
            raise FitError("epochs must be >= 1")
        if self.init_scale <= 0:
            raise FitError("init_scale must be positive")


@dataclass(frozen=True)
class FactorModel:
    user_factors: np.ndarray   # num_users x f
    object_factors: np.ndarray  # num_objects x f
    user_bias: np.ndarray
    object_bias: np.ndarray
    mu: float
    training_curve: tuple = ()  # epoch-averaged squared error, informational

    def __post_init__(self):
        for name in ("user_factors", "object_factors", "user_bias", "object_bias"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            if not np.isfinite(arr).all():
                raise ValueError(f"{name} contains non-finite entries")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        for factors, bias in (("user_factors", "user_bias"), ("object_factors", "object_bias")):
            shape = getattr(self, factors).shape
            if len(shape) != 2:
                raise ValueError(f"{factors} must be a 2-D matrix, got shape {shape}")
            if getattr(self, bias).shape != shape[:1]:
                raise ValueError(f"{bias} has shape {getattr(self, bias).shape} "
                                 f"for {shape[0]} rows of {factors}")
        if self.user_factors.shape[1] != self.object_factors.shape[1]:
            raise ValueError("user and object factors disagree on latent dimension")
        if not math.isfinite(self.mu):
            raise ValueError(f"mu must be finite, got {self.mu!r}")

    @property
    def f(self) -> int:
        return self.user_factors.shape[1]

    @property
    def num_users(self) -> int:
        return self.user_factors.shape[0]

    @property
    def num_objects(self) -> int:
        return self.object_factors.shape[0]

    def predictor(self):
        return lambda u, o: predict(self, u, o)


def fit_mf(records: SparseAttentionRecords, config: FitConfig,
           num_users: int | None = None, num_objects: int | None = None) -> FactorModel:
    """Fit the factor model by seeded SGD over the observed triples.

    Records are sorted by (user, object) and then visited in a seeded random
    order each epoch, so the result is a pure function of (records, config).

    The loop runs on Python floats in lists, because numpy's per-call
    overhead on f-element rows cost more than the arithmetic. The dot product
    is an explicit sequential sum, so the result does not depend on the
    host's BLAS kernel (nor on the Python version's float ``sum``).
    Raises ``FitError`` as soon as an epoch's squared error is non-finite.
    """
    config.validate()
    if len(records) == 0:
        raise FitError("cannot fit on empty records")

    rows = [(u, o, float(level)) for u, o, level in records.sorted_list()]
    max_user = max(r[0] for r in rows)
    max_object = max(r[1] for r in rows)
    nu = num_users if num_users is not None else max_user + 1
    no = num_objects if num_objects is not None else max_object + 1
    if max_user >= nu or max_object >= no:
        raise FitError("record ids exceed the requested model dimensions")

    rng = np.random.default_rng(config.seed)
    f = config.f
    U = (rng.uniform(-0.05, 0.05, size=(nu, f)) * config.init_scale).tolist()
    V = (rng.uniform(-0.05, 0.05, size=(no, f)) * config.init_scale).tolist()
    bu = [0.0] * nu
    bo = [0.0] * no
    mu = float(np.mean([r[2] for r in rows]))

    lr = config.learning_rate
    # multiplicative shrinkage, floored at full shrink so huge regularization
    # stays numerically stable instead of diverging
    decay = max(0.0, 1.0 - lr * config.regularization)

    ks = range(f)
    curve = []
    n = len(rows)
    for epoch in range(config.epochs):
        sq = 0.0
        for i in rng.permutation(n).tolist():
            u, o, level = rows[i]
            uf = U[u]
            vf = V[o]
            dot = 0.0
            for k in ks:
                dot += uf[k] * vf[k]
            err = level - (mu + bu[u] + bo[o] + dot)
            sq += err * err
            step = lr * err
            for k in ks:
                a = uf[k]
                b = vf[k]
                uf[k] = a * decay + step * b
                vf[k] = b * decay + step * a
            bu[u] = bu[u] * decay + step
            bo[o] = bo[o] * decay + step
        if not math.isfinite(sq):
            raise FitError(
                f"SGD diverged in epoch {epoch + 1} of {config.epochs}: squared error "
                f"is {sq}; learning_rate {lr} is too large"
            )
        curve.append(sq / n)

    return FactorModel(
        user_factors=np.array(U), object_factors=np.array(V),
        user_bias=np.array(bu), object_bias=np.array(bo),
        mu=mu, training_curve=tuple(curve),
    )


def raw_score(model: FactorModel, user: int, object_id: int) -> float:
    if not (0 <= user < model.num_users) or not (0 <= object_id < model.num_objects):
        raise IndexError(f"pair ({user}, {object_id}) outside model dimensions")
    return float(
        model.mu + model.user_bias[user] + model.object_bias[object_id]
        + model.user_factors[user] @ model.object_factors[object_id]
    )


def predict(model: FactorModel, user: int, object_id: int) -> float:
    lo, hi = LEVEL_CLAMP
    return float(min(max(raw_score(model, user, object_id), lo), hi))


def predict_scene(model: FactorModel, user: int, objects) -> np.ndarray:
    """Clamped predictions for a scene's objects, in input order."""
    objects = list(objects)
    if not objects:
        raise ValueError("scene object list must be non-empty")
    return np.array([predict(model, user, o) for o in objects])


@dataclass(frozen=True)
class BaselineModel:
    """Global/user/object mean imputation with additive blending."""

    mu: float
    user_means: dict = field(default_factory=dict)
    object_means: dict = field(default_factory=dict)

    def predict(self, user: int, object_id: int) -> float:
        score = self.mu
        if user in self.user_means:
            score += self.user_means[user] - self.mu
        if object_id in self.object_means:
            score += self.object_means[object_id] - self.mu
        lo, hi = LEVEL_CLAMP
        return float(min(max(score, lo), hi))

    def predictor(self):
        return self.predict


def fit_baseline(records: SparseAttentionRecords) -> BaselineModel:
    if len(records) == 0:
        raise FitError("cannot fit on empty records")
    user_acc: dict = {}
    object_acc: dict = {}
    total = 0.0
    for user, object_id, level in records:
        user_acc.setdefault(user, []).append(level)
        object_acc.setdefault(object_id, []).append(level)
        total += level
    mu = total / len(records)
    return BaselineModel(
        mu=mu,
        user_means={u: float(np.mean(v)) for u, v in user_acc.items()},
        object_means={o: float(np.mean(v)) for o, v in object_acc.items()},
    )


@dataclass(frozen=True)
class Metrics:
    rmse: float
    mae: float
    count: int


def evaluate(predict_fn, truth, mask) -> Metrics:
    """RMSE/MAE of a predictor against ground-truth levels over held-out pairs."""
    pairs = sorted(mask)
    if not pairs:
        raise EvaluationError("holdout mask is empty")
    errors = np.array([predict_fn(u, o) - truth.levels[u, o] for u, o in pairs])
    return Metrics(
        rmse=float(np.sqrt(np.mean(errors ** 2))),
        mae=float(np.mean(np.abs(errors))),
        count=len(pairs),
    )


def holdout_mask(records: SparseAttentionRecords, num_users: int, num_objects: int,
                 fraction: float = 0.25, seed: int = 0) -> set:
    """Sample unobserved (user, object) pairs, stratified per user."""
    observed = records.pairs()
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(77,)))
    mask = set()
    for user in range(num_users):
        candidates = [o for o in range(num_objects) if (user, o) not in observed]
        if not candidates:
            continue
        k = max(1, round(fraction * len(candidates)))
        chosen = rng.choice(len(candidates), size=min(k, len(candidates)), replace=False)
        mask.update((user, candidates[int(i)]) for i in chosen)
    return mask


def model_to_dict(model: FactorModel) -> dict:
    return {
        "version": MODEL_FORMAT_VERSION,
        "num_users": model.num_users,
        "num_objects": model.num_objects,
        "f": model.f,
        "mu": model.mu,
        "user_bias": list(model.user_bias),
        "object_bias": list(model.object_bias),
        "user_factors": [list(row) for row in model.user_factors],
        "object_factors": [list(row) for row in model.object_factors],
    }


def model_from_dict(doc: dict) -> FactorModel:
    """Build the model from an ``attn-mf/1`` document, naming a missing key.
    ``mu`` must be a JSON number, checked by exact type (a bool or a string is
    not one); ``FactorModel`` checks the shapes and that ``mu`` is finite.
    ``num_users``, ``num_objects`` and ``f`` must be ``int``s that equal the
    factor shapes."""
    if not isinstance(doc, dict):
        raise ValueError(f"model file must hold a JSON object, not a {type(doc).__name__}")
    if doc.get("version") != MODEL_FORMAT_VERSION:
        raise ValueError(f"unsupported model file version {doc.get('version')!r}")
    arrays = {
        name: np.array(_require(doc, name, "model file"), dtype=np.float64)
        for name in ("user_factors", "object_factors", "user_bias", "object_bias")
    }
    mu = _require(doc, "mu", "model file")
    if not _is_number(mu):
        raise ValueError(f"model file: 'mu' must be a number, got {mu!r}")
    model = FactorModel(mu=float(mu), **arrays)
    for key in ("num_users", "num_objects", "f"):
        value = _require(doc, key, "model file")
        if type(value) is not int or value != getattr(model, key):
            raise ValueError(f"model file: {key!r} is {value!r}, but the factors give "
                             f"{getattr(model, key)}")
    return model


def save_model(model: FactorModel, path) -> None:
    write_json(model_to_dict(model), path)


def load_model(path) -> FactorModel:
    with open(path) as fh:
        return model_from_dict(json.load(fh))
