"""Latent-factor prediction of attention levels from sparse records.

Bias-augmented matrix factorization fitted to the observed (user, object,
level) triples by alternating least squares with λ·n-weighted ridge
(ALS-WR), plus mean-imputation baselines and holdout metrics. Predicted
levels are inner products in a shared semantic space, clamped to the 1..5
level range at prediction time.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .records import SparseAttentionRecords
from .world import (_all_numbers, _check_fields, _first_non_number_row, _is_number,
                    _json_layout, _require, _write_text)

MODEL_FORMAT_VERSION = "attn-mf/1"
# the model file's arrays, in file order
_MODEL_ARRAYS = ("user_bias", "object_bias", "user_factors", "object_factors")

LEVEL_CLAMP = (1.0, 5.0)


class FitError(ValueError):
    """Model fitting is impossible (e.g. no records)."""


class EvaluationError(ValueError):
    """Metrics requested over an empty holdout mask."""


@dataclass(frozen=True)
class FitConfig:
    """``epochs`` counts ALS sweeps (users, then objects); ``regularization``
    is the ALS-WR ridge weight per record."""

    f: int = 6
    regularization: float = 0.1
    epochs: int = 15
    init_scale: float = 1.0
    seed: int = 0

    def __post_init__(self):
        _check_fields(self, FitError)
        if self.f < 1:
            raise FitError("latent dimension f must be >= 1")
        if self.regularization <= 0:
            # with no ridge, a user or object with fewer than f + 1 records
            # has a singular normal matrix
            raise FitError(f"regularization must be positive, got {self.regularization!r}")
        if self.epochs < 1:
            raise FitError("epochs must be >= 1")
        if self.init_scale <= 0:
            raise FitError("init_scale must be positive")
        if self.seed < 0:
            raise FitError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class FactorModel:
    user_factors: np.ndarray   # num_users x f
    object_factors: np.ndarray  # num_objects x f
    user_bias: np.ndarray
    object_bias: np.ndarray
    mu: float
    training_curve: tuple = ()  # objective per record after each sweep, informational

    def __post_init__(self):
        for name in ("user_factors", "object_factors", "user_bias", "object_bias"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            if not np.isfinite(arr).all():
                raise ValueError(f"{name} contains non-finite entries")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        for factors, bias in (("user_factors", "user_bias"), ("object_factors", "object_bias")):
            shape = getattr(self, factors).shape
            if len(shape) != 2 or not shape[0]:  # so that every model saved loads back
                raise ValueError(f"{factors} must be a 2-D matrix with at least one row, "
                                 f"got shape {shape}")
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


def _solve_side(observed, target, other_factors, other_bias, lam):
    """One ALS half-sweep: every row's ``[factors, bias]`` from one batched
    ``np.linalg.solve`` of (f+1) x (f+1) ridge systems, the other side fixed.

    ``observed`` (rows x the other side's ids) is 1.0 at each record and
    0.0 elsewhere; ``target`` is the record's level minus ``mu``, else 0.0.
    Row i minimizes ``sum((t - [q, 1] @ x) ** 2) + lam * n_i * |x| ** 2``
    over its n_i records, with ``t = target - other_bias`` and ``q`` the
    other side's factors. All rows' Gram matrices are one product of the
    mask with each id's flattened ``[q, 1] [q, 1]^T``, and ``n_i`` at
    ``[f, f]`` is an exact count. A row with no records gets zeros (the
    ridge is ``lam * max(n_i, 1)``), and a system that is singular in
    floating point (a subnormal ``lam``) gives NaN rows for the caller's
    finiteness check. Returns ``(factors, bias)``.
    """
    f = other_factors.shape[1]
    d = f + 1
    q = np.column_stack((other_factors, np.ones(len(other_factors))))
    gram = (observed @ (q[:, :, None] * q[:, None, :]).reshape(-1, d * d)).reshape(-1, d, d)
    rhs = (target - observed * other_bias) @ q
    diagonal = np.arange(d)
    gram[:, diagonal, diagonal] += lam * np.maximum(gram[:, f, f], 1)[:, None]
    try:
        x = np.linalg.solve(gram, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        x = np.full_like(rhs, np.nan)
    return x[:, :f], x[:, f]


def _objective(observed, target, U, bu, V, bo, lam) -> float:
    """The ALS-WR objective over ``_solve_side``'s users x objects arrays:
    squared error of ``target`` (levels minus ``mu``) at the records, plus
    ``lam`` times each id's ``|[p, b]|**2`` weighted by its record count."""
    err = observed * (target - bu[:, None] - bo - U @ V.T)
    ridge = observed.sum(1) @ (np.square(U).sum(1) + np.square(bu)) \
        + observed.sum(0) @ (np.square(V).sum(1) + np.square(bo))
    return float(np.square(err).sum() + lam * ridge)


def observed_mask(records: SparseAttentionRecords, num_users: int, num_objects: int) -> np.ndarray:
    """The records' pairs as a users x objects bool matrix; FitError names one outside."""
    outside = (records.users >= num_users) | (records.objects >= num_objects)
    if outside.any():
        i = int(np.argmax(outside))
        raise FitError(f"record pair ({records.users[i]}, {records.objects[i]}) lies outside "
                       f"the model's {num_users} users x {num_objects} objects")
    observed = np.zeros((num_users, num_objects), dtype=bool)
    observed[records.users, records.objects] = True
    return observed


def fit_mf(records: SparseAttentionRecords, config: FitConfig,
           num_users: int, num_objects: int) -> FactorModel:
    """Fit the factor model by alternating least squares with λ·n-weighted
    ridge (ALS-WR, Zhou et al. 2008).

    The records become two dense ``num_users`` x ``num_objects`` arrays,
    the observed mask and the centred levels, built once per fit; memory is
    O(users x objects), the order of the world's interest matrix. Each of
    ``config.epochs`` sweeps solves every user's ``[p_u, b_u]`` with the
    objects fixed, then every object's ``[q_o, b_o]``, each side's normal
    equations as one masked matrix product (``_solve_side``) and one batched
    ``np.linalg.solve``. Each half-sweep exactly minimizes the objective
    over its block, so the objective never rises. The object factors start
    from the seeded draw (the user draw is kept so that the seed gives the
    same object draw, and the first half-sweep replaces it); the model has
    ``num_users`` x ``num_objects`` rows, and ids with no records end at
    zero. The result is a pure function of the arguments on one host, but
    the products and solves go through BLAS and LAPACK, so it is not
    bit-portable across BLAS builds. ``training_curve`` holds the objective
    per record after each sweep. Raises ``FitError`` on empty records, a
    record outside the requested dimensions (naming the pair) or a solve
    that is not finite.
    """
    if len(records) == 0:
        raise FitError("cannot fit on empty records")
    observed = observed_mask(records, num_users, num_objects).astype(np.float64)

    users, objects, levels = records.users, records.objects, records.levels
    nu, no = num_users, num_objects

    rng = np.random.default_rng(config.seed)
    f = config.f
    U = rng.uniform(-0.05, 0.05, size=(nu, f)) * config.init_scale
    V = rng.uniform(-0.05, 0.05, size=(no, f)) * config.init_scale
    bo = np.zeros(no)
    mu = float(levels.mean())
    target = np.zeros((nu, no))
    target[users, objects] = levels - mu
    lam = config.regularization

    curve = []
    for sweep in range(1, config.epochs + 1):
        with np.errstate(over="ignore", invalid="ignore"):  # checked by name below
            U, bu = _solve_side(observed, target, V, bo, lam)
            V, bo = _solve_side(observed.T, target.T, U, bu, lam)
        if not all(np.isfinite(a).all() for a in (U, bu, V, bo)):
            raise FitError(f"ALS solve is not finite in sweep {sweep} of {config.epochs}: "
                           f"regularization {lam} is too small or init_scale "
                           f"{config.init_scale} too large")
        curve.append(_objective(observed, target, U, bu, V, bo, lam) / len(levels))

    return FactorModel(
        user_factors=U, object_factors=V, user_bias=bu, object_bias=bo,
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
    return BaselineModel(
        mu=float(records.levels.sum()) / len(records),
        user_means=_means(records.users, records.levels),
        object_means=_means(records.objects, records.levels),
    )


def _means(ids, levels) -> dict:
    """The mean level of each id present, keyed by id."""
    present, inverse, counts = np.unique(ids, return_inverse=True, return_counts=True)
    sums = np.bincount(inverse, weights=levels)
    return dict(zip(present.tolist(), (sums / counts).tolist()))


@dataclass(frozen=True)
class Metrics:
    rmse: float
    mae: float
    count: int


def evaluate(predict_fn, truth, mask) -> Metrics:
    """RMSE/MAE of a predictor against ground-truth levels over held-out
    pairs, given as ``holdout_mask``'s ``(users, objects)`` int arrays."""
    users, objects = mask
    if not len(users):
        raise EvaluationError("holdout mask is empty")
    predictions = [predict_fn(u, o) for u, o in zip(users.tolist(), objects.tolist())]
    errors = np.array(predictions) - truth.levels[users, objects]
    return Metrics(
        rmse=float(np.sqrt(np.mean(errors ** 2))),
        mae=float(np.mean(np.abs(errors))),
        count=len(users),
    )


def holdout_mask(records: SparseAttentionRecords, num_users: int, num_objects: int,
                 fraction: float = 0.25, seed: int = 0) -> tuple:
    """Sample unobserved pairs, stratified per user, skipping records outside the
    dimensions; returns ``(users, objects)`` int arrays in ascending pair order."""
    observed = np.zeros((num_users, num_objects), dtype=bool)
    inside = (records.users < num_users) & (records.objects < num_objects)
    observed[records.users[inside], records.objects[inside]] = True
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(77,)))
    held = np.zeros_like(observed)
    for user in range(num_users):
        candidates = np.flatnonzero(~observed[user])
        if not candidates.size:
            continue
        k = max(1, round(fraction * len(candidates)))
        chosen = rng.choice(len(candidates), size=min(k, len(candidates)), replace=False)
        held[user, candidates[chosen]] = True
    return np.nonzero(held)


def model_to_dict(model: FactorModel) -> dict:
    return {**_model_header(model),
            **{name: getattr(model, name).tolist() for name in _MODEL_ARRAYS}}


def _model_header(model: FactorModel) -> dict:
    return {
        "version": MODEL_FORMAT_VERSION,
        "num_users": model.num_users,
        "num_objects": model.num_objects,
        "f": model.f,
        "mu": model.mu,
    }


def model_from_dict(doc: dict) -> FactorModel:
    """Build the model from an ``attn-mf/1`` document, naming a missing key.
    ``mu`` and the entries of the four arrays must be JSON numbers, checked
    by exact type (a bool or a string is not one); an array is a list of
    numbers or a list of rows that are lists of numbers, and a faulty one is
    named with its first faulty row. ``FactorModel`` checks the shapes and
    finiteness. ``num_users``, ``num_objects`` and ``f`` must be ``int``s that
    equal the factor shapes."""
    if not isinstance(doc, dict):
        raise ValueError(f"model file must hold a JSON object, not a {type(doc).__name__}")
    if doc.get("version") != MODEL_FORMAT_VERSION:
        raise ValueError(f"unsupported model file version {doc.get('version')!r}")
    arrays = {name: _number_array(doc, name) for name in _MODEL_ARRAYS}
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


def _number_array(doc: dict, name: str) -> np.ndarray:
    """The model file's array ``name``, a list of numbers or of lists of
    numbers, as float64."""
    value = _require(doc, name, "model file", list)
    if value and type(value[0]) is list:
        row = _first_non_number_row(value)
        if row is not None:
            raise ValueError(f"model file: {name!r} row {row} is not a list of numbers")
    elif not _all_numbers(value):
        row = next(i for i, entry in enumerate(value) if not _is_number(entry))
        raise ValueError(f"model file: {name!r} row {row} is {value[row]!r}, not a number")
    return np.array(value, dtype=np.float64)


def save_model(model: FactorModel, path) -> None:
    """Write ``write_json(model_to_dict(model), path)``'s bytes from the
    arrays with one ``%``-template, as ``world.save_world`` does; the header
    goes through ``json.dumps``."""
    head = json.dumps(_model_header(model), indent=1)
    arrays = [getattr(model, name) for name in _MODEL_ARRAYS]
    layout = "".join(f',\n "{name}": ' + _json_layout(array.shape, 1)
                     for name, array in zip(_MODEL_ARRAYS, arrays))
    values = tuple(chain.from_iterable(array.ravel().tolist() for array in arrays))
    # head ends with the closing "\n}" of its object
    _write_text(head[:-2] + layout % values + "\n}\n", path)


def load_model(path) -> FactorModel:
    with open(path, encoding="utf-8") as fh:
        return model_from_dict(json.load(fh))
