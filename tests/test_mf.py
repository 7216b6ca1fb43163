"""Latent-factor model fitting, prediction, baselines, and metrics."""

import dataclasses
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from attnalloc import (
    ExperimentConfig,
    ExperimentRunner,
    FactorModel,
    FitConfig,
    SparseAttentionRecords,
    WorldConfig,
    evaluate,
    fit_baseline,
    fit_mf,
    predict_scene,
)
from attnalloc.mf import (
    EvaluationError,
    FitError,
    _objective,
    _solve_side,
    holdout_mask,
    load_model,
    model_from_dict,
    observed_mask,
    save_model,
    LEVEL_CLAMP,
)
from attnalloc.schema import number_array
from attnalloc.world import GroundTruthLevels
from oracles import (FrozensetRecords, bincount_solve_side, dict_fit_baseline, model_to_dict,
                     raw_score, record_pairs, set_holdout_mask)


# constant_records' users x objects, the model's dimensions in fits on them
CONSTANT_DIMS = {"num_users": 4, "num_objects": 6}


def constant_records(level=3, users=4, objects=6):
    return SparseAttentionRecords(
        frozenset((u, o, level) for u in range(users) for o in range(objects))
    )


def zero_model(mu=3.0, users=2, objects=2, f=2):
    return FactorModel(
        user_factors=np.zeros((users, f)),
        object_factors=np.zeros((objects, f)),
        user_bias=np.zeros(users),
        object_bias=np.zeros(objects),
        mu=mu,
    )


def test_constant_records_fit():
    model = fit_mf(constant_records(), dataclasses.replace(FitConfig(), epochs=50), **CONSTANT_DIMS)
    for u in range(4):
        for o in range(6):
            assert abs(predict_scene(model, u, [o])[0] - 3.0) < 0.1


def test_fit_deterministic():
    # constant levels would fit to all-zero factors whatever the seed
    records = _random_records(seed=1)
    a = fit_mf(records, FitConfig(epochs=10), **RANDOM_DIMS)
    b = fit_mf(records, FitConfig(epochs=10), **RANDOM_DIMS)
    assert np.array_equal(a.user_factors, b.user_factors)
    assert np.array_equal(a.object_factors, b.object_factors)
    assert a.training_curve == b.training_curve
    c = fit_mf(records, FitConfig(epochs=10, seed=1), **RANDOM_DIMS)
    assert not np.array_equal(a.user_factors, c.user_factors)


def test_fit_rejects_empty_and_bad_config():
    with pytest.raises(FitError):
        fit_mf(SparseAttentionRecords(), FitConfig(), **CONSTANT_DIMS)
    with pytest.raises(FitError):
        fit_mf(constant_records(), FitConfig(epochs=0), **CONSTANT_DIMS)
    for lam in (0.0, -1.0):
        with pytest.raises(FitError, match="regularization must be positive"):
            fit_mf(constant_records(), FitConfig(regularization=lam), **CONSTANT_DIMS)
    with pytest.raises(FitError, match="seed must be a non-negative integer, got -1"):
        fit_mf(constant_records(), FitConfig(seed=-1), **CONSTANT_DIMS)
    with pytest.raises(FitError, match=r"record pair \(0, 2\) lies outside the model's "
                                       r"2 users x 2 objects"):
        fit_mf(constant_records(), FitConfig(), num_users=2, num_objects=2)


def test_training_loss_trend():
    rng = np.random.default_rng(0)
    records = SparseAttentionRecords(frozenset(
        (u, o, int(rng.integers(1, 6))) for u in range(10) for o in range(12)
    ))
    model = fit_mf(records, FitConfig(epochs=60), num_users=10, num_objects=12)
    curve = model.training_curve
    assert len(curve) == 60
    assert curve[-1] < curve[0]
    # each sweep is two exact block minimizations
    assert all(b <= a * (1 + 1e-12) for a, b in zip(curve, curve[1:]))


def test_rank_one_structure_learned():
    user_strength = np.linspace(1.0, 2.0, 8)
    object_strength = np.linspace(0.5, 2.4, 10)
    levels = np.clip(np.round(np.outer(user_strength, object_strength)), 1, 5)
    rng = np.random.default_rng(1)
    triples = [
        (u, o, int(levels[u, o]))
        for u in range(8) for o in range(10) if rng.random() < 0.6
    ]
    records = SparseAttentionRecords(frozenset(triples))
    held_out = [(u, o, int(levels[u, o])) for u in range(8) for o in range(10)
                if (u, o) not in {(a, b) for a, b, _ in triples}]
    assert held_out

    model = fit_mf(records, FitConfig(f=2), num_users=8, num_objects=10)
    mu = np.mean([l for _, _, l in triples])
    err_mf = [(predict_scene(model, u, [o])[0] - l) ** 2 for u, o, l in held_out]
    err_mu = [(mu - l) ** 2 for _, _, l in held_out]
    assert np.sqrt(np.mean(err_mf)) < np.sqrt(np.mean(err_mu))


def test_predict_clamps():
    model = zero_model(mu=7.2)
    assert predict_scene(model, 0, [0])[0] == 5.0
    model = zero_model(mu=-0.4)
    assert predict_scene(model, 0, [0])[0] == 1.0
    assert raw_score(model, 0, 0) == pytest.approx(-0.4)
    assert raw_score(zero_model(mu=3.0), 1, 1) == 3.0


def test_predict_index_errors():
    model = zero_model()
    with pytest.raises(IndexError):
        predict_scene(model, 2, [0])[0]
    with pytest.raises(IndexError):
        predict_scene(model, 0, [-1])[0]


def test_predictor_index_errors():
    predict_pairs = zero_model().predictor()
    assert predict_pairs(np.array([1, 0]), np.array([0, 1])).tolist() == [3.0, 3.0]
    assert predict_pairs([], []).shape == (0,)
    # the first faulty pair is named, and a negative id is never wrapped
    for users, objects, pair in (([0, 2, -1], [0, 0, 0], r"\(2, 0\)"),
                                 ([1, 0], [0, -1], r"\(0, -1\)"),
                                 ([-1], [1], r"\(-1, 1\)")):
        with pytest.raises(IndexError, match=f"pair {pair} outside model dimensions"):
            predict_pairs(np.array(users), np.array(objects))
    with pytest.raises(IndexError, match="user id 0.0 is not an integer"):
        predict_pairs(np.array([0.0]), np.array([1]))
    with pytest.raises(IndexError, match="user id True is not an integer"):
        predict_pairs(np.array([True, False]), np.array([0, 1]))  # not a mask
    # a uint64 id above the int64 maximum wrapped to -1, the last user
    with pytest.raises(IndexError, match=f"object id {2**64 - 1} is outside the range of int64"):
        predict_pairs(np.array([0]), np.array([2**64 - 1], dtype=np.uint64))
    with pytest.raises(ValueError, match="equal length"):
        predict_pairs(np.array([0, 1]), np.array([0]))
    for users, objects, what in ((np.array([[0, 1]]), np.array([[0, 1]]), "user id"),
                                 ([0], np.array(1), "object id"), (0, 1, "user id")):
        with pytest.raises(ValueError, match=f"{what} values must form a 1-D vector"):
            predict_pairs(users, objects)
    # a bool in a list is named, not cast to user 1 as np.asarray([0, True]) is
    baseline = fit_baseline(SparseAttentionRecords([(0, 0, 3)]))
    for model in (zero_model(), baseline):
        for users, objects in (([0, True], [1, 0]), ([True, 2], [0, 1])):
            with pytest.raises(IndexError, match="user id True is not an integer"):
                model.predictor()(users, objects)
    # the scalar path names a bool or float id too, where numpy read a bool
    # user as a mask and raised an unnamed TypeError
    model = zero_model()
    for call, message in (
            (lambda: predict_scene(model, True, [0, 1]), "user id True"),
            (lambda: predict_scene(model, np.float64(0.0), [0]), r"user id np\.float64\(0\.0\)"),
            (lambda: predict_scene(model, 1.0, [0])[0], "user id 1.0"),
            (lambda: predict_scene(model, 0, [1, 0, True]), "object id True"),
            (lambda: predict_scene(model, 0, np.array([0.5])), r"object id np\.float64\(0\.5\)"),
            (lambda: predict_scene(model, 0, [1.0])[0], "object id 1.0"),
            (lambda: predict_scene(model, 0, [np.bool_(False)])[0], "object id np.False_")):
        with pytest.raises(IndexError, match=f"^{message} is not an integer$"):
            call()
    # a scalar scene is named, where list() raised an unnamed TypeError
    for scene in (3, np.array(1), None):
        with pytest.raises(ValueError, match=re.escape(
                f"object id values must form a 1-D vector, got shape () for {scene!r}")):
            predict_scene(model, 0, scene)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.integers(1, 6), st.integers(1, 8), st.floats(-30, 30),
       st.floats(0.1, 10), st.integers(0, 2**32 - 1), st.integers(0, 40))
def test_predictor_matches_per_pair_predict(users, objects, f, mu, scale, seed, pairs):
    # factors up to +-10 push many scores past the clamp; ids run one beyond
    # each side of the model, so some draws hold a faulty pair
    rng = np.random.default_rng(seed)
    model = FactorModel(user_factors=rng.uniform(-scale, scale, (users, f)),
                        object_factors=rng.uniform(-scale, scale, (objects, f)),
                        user_bias=rng.uniform(-scale, scale, users),
                        object_bias=rng.uniform(-scale, scale, objects), mu=mu)
    u, o = rng.integers(-1, users + 1, pairs), rng.integers(-1, objects + 1, pairs)
    bad = (u < 0) | (u >= users) | (o < 0) | (o >= objects)
    if bad.any():
        i = int(np.argmax(bad))
        with pytest.raises(IndexError, match=rf"pair \({u[i]}, {o[i]}\) outside"):
            model.predictor()(u, o)
    else:
        expected = [predict_scene(model, a, [b])[0] for a, b in zip(u.tolist(), o.tolist())]
        assert model.predictor()(u, o).tolist() == expected


def test_predictor_matches_per_pair_predict_on_twenty_worlds():
    # every pair of the fitted models of master seeds 0-9 at gaze noise 0
    # and 0.1, bit for bit
    for noise in (0.0, 0.1):
        for seed in range(10):
            model = ExperimentRunner(ExperimentConfig(
                world=WorldConfig(gaze_noise=noise), master_seed=seed)).model
            users, objects = (ids.ravel() for ids in np.indices((model.num_users,
                                                                 model.num_objects)))
            expected = [predict_scene(model, u, [o])[0]
                        for u, o in zip(users.tolist(), objects.tolist())]
            assert model.predictor()(users, objects).tolist() == expected


def _per_pair_scene(model, user, objects) -> np.ndarray:
    lo, hi = LEVEL_CLAMP
    return np.array([min(max(raw_score(model, user, o), lo), hi) for o in objects])


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.integers(2, 60), st.integers(1, 8), st.floats(-4, 10),
       st.floats(0.1, 3), st.integers(0, 2**32 - 1), st.integers(1, 3000),
       st.sampled_from(["int", "numpy int", "array"]), st.integers(0, 2))
def test_predict_scene_matches_per_pair_reference(users, objects, f, mu, scale, seed, n,
                                                  ids, faults):
    # objects 0 and 1 score far above 5 and below 1, and a scene of two or
    # more objects holds both, so it clamps at both ends; ``faults`` puts
    # up to two out-of-range ids in, the user's included
    rng = np.random.default_rng(seed)
    object_bias = rng.uniform(-scale, scale, objects)
    object_bias[:2] = 100.0, -100.0
    model = FactorModel(user_factors=rng.uniform(-scale, scale, (users, f)),
                        object_factors=rng.uniform(-scale, scale, (objects, f)),
                        user_bias=rng.uniform(-scale, scale, users),
                        object_bias=object_bias, mu=mu)
    user = int(rng.integers(users))
    scene = rng.integers(objects, size=n)  # with repeats
    if n >= 2:
        scene[rng.choice(n, 2, replace=False)] = 0, 1
    for _ in range(faults):
        if rng.random() < 0.25:
            user = int(rng.choice([-1, users, users + 7]))
        else:
            scene[rng.integers(n)] = rng.choice([-1, objects, objects + 7])
    if ids == "int":
        scene = scene.tolist()
    elif ids == "numpy int":
        user, scene = np.intp(user), list(scene)
    bad = [o for o in scene if not (0 <= user < users and 0 <= o < objects)]
    if bad:
        with pytest.raises(IndexError) as reference:
            _per_pair_scene(model, user, scene)
        assert str(reference.value) == f"pair ({user}, {bad[0]}) outside model dimensions"
        with pytest.raises(IndexError, match=re.escape(str(reference.value))):
            predict_scene(model, user, scene)
        return
    expected = _per_pair_scene(model, user, scene)
    out = predict_scene(model, user, scene)
    assert out.dtype == np.float64 and out.shape == (n,)
    assert np.array_equal(out.view(np.int64), expected.view(np.int64))
    if n >= 2:
        assert {1.0, 5.0} <= set(out.tolist())


def test_predict_scene_order_and_duplicates():
    model = zero_model(mu=3.0)
    out = predict_scene(model, 0, [1, 0, 1])
    assert np.array_equal(out, [3.0, 3.0, 3.0])
    with pytest.raises(ValueError):
        predict_scene(model, 0, [])


def test_huge_regularization_shrinks_factors():
    records = constant_records(level=5)
    model = fit_mf(records, FitConfig(regularization=1e6, epochs=20), **CONSTANT_DIMS)
    assert np.isfinite(model.user_factors).all()
    assert np.linalg.norm(model.user_factors) < 1e-3
    assert np.linalg.norm(model.object_factors) < 1e-3


def test_label_shift_equivariance():
    rng = np.random.default_rng(3)
    base = [(u, o, int(rng.integers(1, 4))) for u in range(6) for o in range(8)]
    shifted = [(u, o, l + 2) for u, o, l in base]
    config = FitConfig(epochs=100)
    a = fit_mf(SparseAttentionRecords(frozenset(base)), config, num_users=6, num_objects=8)
    b = fit_mf(SparseAttentionRecords(frozenset(shifted)), config, num_users=6, num_objects=8)
    for u in range(6):
        for o in range(8):
            assert abs((raw_score(b, u, o) - raw_score(a, u, o)) - 2.0) < 0.05


def test_baseline_rules():
    model = fit_baseline(SparseAttentionRecords(frozenset({(0, 0, 4)})))
    assert model.mu == 4.0
    assert model.predict(5, 7) == 4.0

    model = fit_baseline(SparseAttentionRecords(frozenset({(0, 0, 1), (0, 1, 5)})))
    assert model.user_shift.tolist() == [0.0]  # user 0's mean 3.0 equals mu
    assert model.object_shift.tolist() == [-2.0, 2.0]
    assert model.predict(0, 9) == 3.0
    with pytest.raises(FitError):
        fit_baseline(SparseAttentionRecords())


def test_baseline_additive_blend():
    records = SparseAttentionRecords(frozenset({(0, 0, 5), (1, 1, 1)}))
    model = fit_baseline(records)
    assert model.mu == 3.0
    # user 0 dev +2, object 1 dev -2 -> 3 + 2 - 2
    assert model.predict(0, 1) == 3.0


def test_evaluate_metrics():
    truth = GroundTruthLevels(np.full((2, 2), 5))
    threes = lambda u, o: np.full(len(u), 3.0)
    metrics = evaluate(threes, truth, (np.array([0, 1]), np.array([0, 1])))
    assert metrics.rmse == pytest.approx(2.0)
    assert metrics.mae == pytest.approx(2.0)
    assert metrics.count == 2

    calls = []
    perfect = evaluate(lambda u, o: calls.append((u.tolist(), o.tolist())) or np.full(2, 5.0),
                       truth, (np.array([0, 1]), np.array([1, 0])))
    assert perfect.rmse == 0.0 and perfect.mae == 0.0
    assert calls == [([0, 1], [1, 0])]  # once, with the mask's arrays

    with pytest.raises(EvaluationError, match="holdout mask is empty"):
        evaluate(threes, truth, np.nonzero(np.zeros((2, 2), dtype=bool)))
    # one prediction per pair, not a scalar broadcast over them
    with pytest.raises(ValueError, match=r"gave shape \(\) for 2 held-out pairs"):
        evaluate(lambda u, o: 3.0, truth, (np.array([0, 1]), np.array([0, 1])))


def _pairs(mask) -> list:
    """A holdout mask's (user, object) pairs, in the order of its arrays."""
    return list(zip(*(ids.tolist() for ids in mask)))


def test_holdout_mask_excludes_observed():
    records = constant_records(users=3, objects=10)
    users, objects = mask = holdout_mask(records, num_users=3, num_objects=20, fraction=0.5,
                                         seed=0)
    assert users.dtype.kind == objects.dtype.kind == "i" and users.shape == objects.shape
    pairs = _pairs(mask)
    assert pairs and all(a < b for a, b in zip(pairs, pairs[1:]))  # strictly increasing
    assert not (set(pairs) & record_pairs(records))
    again = holdout_mask(records, num_users=3, num_objects=20, fraction=0.5, seed=0)
    assert _pairs(again) == pairs
    # True drew as seed 1 and None from fresh entropy; 1.5 and -1 raised
    # numpy's errors, which did not name the seed
    for seed in (True, None, 1.5, -1, "0"):
        with pytest.raises(ValueError, match=re.escape(
                f"seed must be a non-negative integer, got {seed!r}")):
            holdout_mask(records, num_users=3, num_objects=20, fraction=0.5, seed=seed)
    assert _pairs(holdout_mask(records, 3, 20, 0.5, seed=np.uint8(0))) == pairs


@pytest.mark.parametrize("fraction, accepted", [
    (math.nan, False), (-1.0, False), (0.0, False), (2.0, False), (True, False),
    (0.25, True), (1.0, True)])
def test_holdout_fraction_is_a_real_in_the_unit_interval(default_runner, fraction, accepted):
    # NaN raised an unnamed "cannot convert float NaN to integer", -1.0 and
    # 0.0 held out one pair per user, and 2.0 and True every unobserved pair
    records, world = default_runner.records, default_runner.world
    dims = world.num_users, world.num_objects
    if accepted:
        assert set(_pairs(holdout_mask(records, *dims, fraction))) \
            == set_holdout_mask(FrozensetRecords(records.records), *dims, fraction)
    else:
        with pytest.raises(ValueError, match=re.escape(
                f"fraction must be a real number in (0, 1], got {fraction!r}")):
            holdout_mask(records, *dims, fraction)


def test_observed_mask_marks_the_record_pairs():
    records = SparseAttentionRecords([(0, 1, 3), (2, 0, 5)])
    assert observed_mask(records, 3, 2).tolist() == [[False, True], [False, False],
                                                     [True, False]]


# the three readers of observed_mask's one rule for the records and dimensions
_OBSERVED_PAIRS_CALLS = pytest.mark.parametrize(
    "call", [observed_mask, holdout_mask,
             lambda records, *dims: fit_mf(records, FitConfig(), *dims)],
    ids=["observed_mask", "holdout_mask", "fit_mf"])


@_OBSERVED_PAIRS_CALLS
@pytest.mark.parametrize("dims, name", [
    ((-1, 5), "num_users"), ((2.0, 5), "num_users"), ((True, 3), "num_users"),
    ((2, -1), "num_objects"), ((2, np.float64(3.0)), "num_objects")])
def test_dimensions_are_non_negative_integers(call, dims, name):
    # numpy raised its own errors, naming neither argument
    records = SparseAttentionRecords([(0, 0, 3)])
    value = dims[name == "num_objects"]
    with pytest.raises(ValueError, match=re.escape(
            f"{name} must be a non-negative integer, got {value!r}")):
        call(records, *dims)
    assert observed_mask(records, np.int64(1), np.uint8(1)).tolist() == [[True]]


@_OBSERVED_PAIRS_CALLS
@pytest.mark.parametrize("dims, pair", [((2, 5), (2, 0)), ((3, 1), (0, 1))])
def test_records_outside_the_dimensions_raise_one_fit_error(call, dims, pair):
    # holdout_mask skipped such a record, where the fit and eval raised
    records = SparseAttentionRecords([(2, 0, 5), (0, 0, 3), (0, 1, 4)])
    with pytest.raises(FitError, match=re.escape(
            f"record pair {pair} lies outside the model's {dims[0]} users x "
            f"{dims[1]} objects")):
        call(records, *dims)


@given(
    st.lists(st.tuples(st.integers(0, 12), st.integers(0, 30), st.integers(1, 5)),
             min_size=1, unique_by=lambda rec: rec[:2]),
    st.integers(1, 10), st.integers(1, 25), st.floats(0.05, 0.95), st.integers(0, 3),
)
def test_baseline_and_holdout_match_dict_and_set_oracles(rows, num_users, num_objects,
                                                         fraction, seed):
    records = SparseAttentionRecords(rows)
    oracle = FrozensetRecords(frozenset(rows))
    _assert_baseline_matches(fit_baseline(records), dict_fit_baseline(oracle), 13, 31)
    # a record outside num_users x num_objects raises, naming the first in
    # pair order; the oracle skips it, so the records inside are compared
    outside = sorted((u, o) for u, o, _ in rows if u >= num_users or o >= num_objects)
    if outside:
        with pytest.raises(FitError, match=re.escape(f"record pair {outside[0]} lies outside")):
            holdout_mask(records, num_users, num_objects, fraction, seed)
    inside = SparseAttentionRecords([r for r in rows if r[0] < num_users and r[1] < num_objects])
    assert set(_pairs(holdout_mask(inside, num_users, num_objects, fraction, seed))) \
        == set_holdout_mask(oracle, num_users, num_objects, fraction, seed)


def _assert_baseline_matches(model, oracle, num_users, num_objects):
    """The array baseline's gather and its scalar ``predict`` equal the dict
    oracle's per-pair prediction, bit for bit, on every pair of ids from -2
    to two beyond the given dimensions (absent, negative and beyond-table
    ids included)."""
    users, objects = (ids.ravel() for ids in np.meshgrid(np.arange(-2, num_users + 2),
                                                         np.arange(-2, num_objects + 2)))
    expected = [oracle.predict(u, o) for u, o in zip(users.tolist(), objects.tolist())]
    assert model.predictor()(users, objects).tolist() == expected
    assert [model.predict(u, o) for u, o in zip(users.tolist(), objects.tolist())] == expected


def test_baseline_and_holdout_match_oracles_on_default_records(default_runner):
    records, world = default_runner.records, default_runner.world
    oracle = FrozensetRecords(records.records)
    _assert_baseline_matches(fit_baseline(records), dict_fit_baseline(oracle),
                             world.num_users, world.num_objects)
    assert set(_pairs(holdout_mask(records, world.num_users, world.num_objects))) \
        == set_holdout_mask(oracle, world.num_users, world.num_objects)


def test_model_roundtrip(tmp_path):
    model = fit_mf(constant_records(), FitConfig(epochs=5), **CONSTANT_DIMS)
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded = load_model(path)
    assert model_to_dict(loaded) == model_to_dict(model)
    save_model(loaded, tmp_path / "model2.json")
    assert (tmp_path / "model2.json").read_bytes() == path.read_bytes()


def test_model_version_check(tmp_path):
    model = fit_mf(constant_records(), FitConfig(epochs=1), **CONSTANT_DIMS)
    path = tmp_path / "model.json"
    save_model(model, path)
    path.write_text(path.read_text().replace("attn-mf/1", "attn-mf/9"))
    with pytest.raises(ValueError, match="version"):
        load_model(path)


def _reference_fit_mf(records, config, num_users, num_objects):
    """ALS-WR one id at a time, the slow oracle for fit_mf: each user's, then
    each object's ``[factors, bias]`` is the ``lstsq`` solution of its records'
    design stacked on ``sqrt(lam * max(n, 1)) * I``. Returns the four factor
    arrays, ``mu`` and the objective per record after each sweep."""
    triples = np.array(records.sorted_list())
    users, objects, levels = triples.T
    nu, no = num_users, num_objects
    rng = np.random.default_rng(config.seed)
    f, lam = config.f, config.regularization
    U = rng.uniform(-0.05, 0.05, size=(nu, f)) * config.init_scale
    V = rng.uniform(-0.05, 0.05, size=(no, f)) * config.init_scale
    bu, bo = np.zeros(nu), np.zeros(no)
    mu = levels.mean()

    def solve(rows, others, other_factors, other_bias):
        design = np.column_stack([other_factors[others[rows]], np.ones(len(rows))])
        target = levels[rows] - mu - other_bias[others[rows]]
        ridge = np.sqrt(lam * max(len(rows), 1)) * np.eye(f + 1)
        x = np.linalg.lstsq(np.vstack([design, ridge]),
                            np.concatenate([target, np.zeros(f + 1)]), rcond=None)[0]
        return x[:f], x[f]

    curve = []
    for _ in range(config.epochs):
        for u in range(nu):
            U[u], bu[u] = solve(np.flatnonzero(users == u), objects, V, bo)
        for o in range(no):
            V[o], bo[o] = solve(np.flatnonzero(objects == o), users, U, bu)
        curve.append(_reference_objective(triples, mu, U, bu, V, bo, lam) / len(triples))
    return (U, V, bu, bo), mu, curve


def _reference_objective(triples, mu, U, bu, V, bo, lam):
    """Squared error plus lam * (|p_u|^2 + b_u^2 + |q_o|^2 + b_o^2), per record."""
    total = 0.0
    for u, o, level in triples:
        err = level - (mu + bu[u] + bo[o] + U[u] @ V[o])
        total += err ** 2 + lam * (U[u] @ U[u] + bu[u] ** 2 + V[o] @ V[o] + bo[o] ** 2)
    return total


# _random_records' users x objects; at density 0.6 the seeds used here draw
# a record for the last user and the last object
RANDOM_DIMS = {"num_users": 10, "num_objects": 12}


def _random_records(seed, users=10, objects=12, density=0.6):
    rng = np.random.default_rng(seed)
    return SparseAttentionRecords(frozenset(
        (u, o, int(rng.integers(1, 6)))
        for u in range(users) for o in range(objects) if rng.random() < density
    ))


def _assert_fits_agree(records, config, **dims):
    fast = fit_mf(records, config, **dims)
    arrays, mu, curve = _reference_fit_mf(records, config, **dims)
    for name, want in zip(("user_factors", "object_factors", "user_bias", "object_bias"),
                          arrays):
        got = getattr(fast, name)
        assert got.shape == want.shape, name
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-10, err_msg=name)
    np.testing.assert_allclose(fast.training_curve, curve, rtol=1e-10, atol=0)
    assert fast.mu == mu


@pytest.mark.parametrize("config", [
    FitConfig(f=1, epochs=15),
    FitConfig(f=6, epochs=15),
    FitConfig(regularization=1e6, epochs=10),
    FitConfig(init_scale=3.0, epochs=15, seed=5),
], ids=["f1", "f6", "heavy-regularization", "init-scale-3"])
def test_fit_matches_reference_loop(config):
    _assert_fits_agree(_random_records(seed=2), config, **RANDOM_DIMS)


def test_fit_matches_reference_with_padded_dimensions():
    # ids 0..9 x 0..11 observed; the model is larger on both axes, and the
    # ids without records are solved to zero
    _assert_fits_agree(_random_records(seed=4), FitConfig(epochs=15),
                       num_users=13, num_objects=17)
    model = fit_mf(_random_records(seed=4), FitConfig(), num_users=13, num_objects=17)
    assert not model.user_factors[10:].any() and not model.object_bias[12:].any()


def test_fit_matches_reference_on_default_records(default_runner):
    world = default_runner.world
    _assert_fits_agree(default_runner.records, default_runner.config.fit,
                       num_users=world.num_users, num_objects=world.num_objects)


_record_maps = st.dictionaries(
    st.tuples(st.integers(0, 5), st.integers(0, 7)), st.integers(1, 5),
    min_size=1, max_size=20,
)


@given(levels=_record_maps, f=st.integers(1, 4),
       lam=st.sampled_from([0.01, 0.05, 0.3, 2.0]), seed=st.integers(0, 3))
@settings(max_examples=40, deadline=None)
def test_fit_matches_reference_on_sparse_records(levels, f, lam, seed):
    # up to 20 records over 6 x 8 ids, so many users and objects have 0 or 1
    records = SparseAttentionRecords(frozenset((u, o, l) for (u, o), l in levels.items()))
    _assert_fits_agree(records, FitConfig(f=f, regularization=lam, epochs=4, seed=seed),
                       num_users=6, num_objects=8)


def _dense(triples, num_users, num_objects):
    """fit_mf's observed mask and centred-level target for sorted triples."""
    users, objects, levels = triples.T
    observed = np.zeros((num_users, num_objects))
    observed[users, objects] = 1.0
    target = np.zeros((num_users, num_objects))
    target[users, objects] = levels - levels.mean()
    return observed, target


def _random_sides(seed, f, init_scale, num_users, num_objects):
    rng = np.random.default_rng(seed)
    U = rng.uniform(-0.05, 0.05, size=(num_users, f)) * init_scale
    V = rng.uniform(-0.05, 0.05, size=(num_objects, f)) * init_scale
    return U, rng.normal(size=num_users), V, rng.normal(size=num_objects)


@given(levels=_record_maps, f=st.integers(1, 4),
       lam=st.floats(1e-3, 10.0), init_scale=st.floats(0.1, 10.0),
       pad_users=st.integers(0, 3), pad_objects=st.integers(0, 3), seed=st.integers(0, 3))
@settings(max_examples=80, deadline=None)
def test_dense_half_sweep_matches_bincount_oracle(levels, f, lam, init_scale,
                                                  pad_users, pad_objects, seed):
    # up to 20 records over 6 x 8 ids, padded with ids that have no records.
    # The two sums round differently, and a solve scales that by its
    # condition number (about 1e5 at init_scale 100 and lam 1e-3, so 1e-11
    # apart there), so init_scale stops at 10 and each id's [factors, bias]
    # is compared with its largest entry; an id without records is exactly 0
    nu, no = 6 + pad_users, 8 + pad_objects
    triples = np.array(sorted((u, o, l) for (u, o), l in levels.items()))
    users, objects = triples[:, 0], triples[:, 1]
    observed, target = _dense(triples, nu, no)
    U, bu, V, bo = _random_sides(seed, f, init_scale, nu, no)
    sides = [
        (_solve_side(observed, target, V, bo, lam),
         bincount_solve_side(users, nu, objects, V, bo, target[users, objects], lam)),
        (_solve_side(observed.T, target.T, U, bu, lam),
         bincount_solve_side(objects, no, users, U, bu, target[users, objects], lam)),
    ]
    for got, want in sides:
        got, want = np.column_stack(got), np.column_stack(want)
        scale = np.abs(want).max(1, keepdims=True)
        assert (np.abs(got - want) <= 1e-12 * scale).all(), (got, want)


@given(levels=_record_maps, f=st.integers(1, 4), lam=st.floats(1e-3, 10.0),
       init_scale=st.floats(0.1, 100.0), seed=st.integers(0, 3))
@settings(max_examples=60, deadline=None)
def test_dense_objective_matches_reference(levels, f, lam, init_scale, seed):
    triples = np.array(sorted((u, o, l) for (u, o), l in levels.items()))
    observed, target = _dense(triples, 7, 9)
    U, bu, V, bo = _random_sides(seed, f, init_scale, 7, 9)
    want = _reference_objective(triples, triples[:, 2].mean(), U, bu, V, bo, lam)
    assert _objective(observed, target, U, bu, V, bo, lam) == pytest.approx(want, rel=1e-12)


@given(levels=_record_maps, f=st.integers(1, 4),
       lam=st.floats(1e-3, 10.0), init_scale=st.floats(0.1, 100.0),
       seed=st.integers(0, 3))
@settings(max_examples=60, deadline=None)
def test_objective_never_rises_between_half_sweeps(levels, f, lam, init_scale, seed):
    triples = np.array(sorted((u, o, l) for (u, o), l in levels.items()))
    observed, target = _dense(triples, 6, 8)
    U, bu, V, bo = _random_sides(seed, f, init_scale, 6, 8)
    values = [_objective(observed, target, U, bu, V, bo, lam)]
    for _ in range(4):
        U, bu = _solve_side(observed, target, V, bo, lam)
        values.append(_objective(observed, target, U, bu, V, bo, lam))
        V, bo = _solve_side(observed.T, target.T, U, bu, lam)
        values.append(_objective(observed, target, U, bu, V, bo, lam))
    assert all(b <= a * (1 + 1e-12) + 1e-12 for a, b in zip(values, values[1:])), values


# the message wording; tests/test_config.py checks every field of every config
@pytest.mark.parametrize("name", ["regularization", "init_scale"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_fit_config_rejects_non_finite(name, value):
    with pytest.raises(FitError, match=f"^{name} must be finite, got {value!r}$"):
        FitConfig(**{name: value})


@pytest.mark.parametrize("name", ["f", "epochs", "seed"])
@pytest.mark.parametrize("value", [2.5, 2.0, True, "2", None])
def test_fit_config_rejects_non_integer_counts(name, value):
    with pytest.raises(FitError, match=f"^{name} must be an integer, got {value!r}$"):
        FitConfig(**{name: value})


def _assert_fit_fails_in_first_sweep(config, message):
    records = SparseAttentionRecords(frozenset({(0, 0, 5), (0, 1, 1), (1, 0, 2)}))
    with pytest.raises(FitError, match="not finite in sweep 1 of 15") as err:
        fit_mf(records, config, num_users=2, num_objects=2)
    assert message in str(err.value)


def test_divergent_fit_fails_fast():
    # initial factors of 5e306 overflow the object rows of the first user solve
    _assert_fit_fails_in_first_sweep(
        FitConfig(init_scale=1e308), "regularization 0.1 is too small or init_scale 1e+308")


def test_singular_solve_fails_fast():
    # a ridge of 1e-300 leaves user 1's one-record system singular
    _assert_fit_fails_in_first_sweep(
        FitConfig(regularization=1e-300), "regularization 1e-300 is too small or init_scale 1.0")


def test_model_rejects_inconsistent_shapes():
    base = zero_model(users=2, objects=3)
    with pytest.raises(ValueError, match="user_factors must be a 2-D matrix"):
        dataclasses.replace(base, user_factors=np.zeros(2))
    with pytest.raises(ValueError, match=r"user_bias has shape \(5,\) for 2 rows"):
        dataclasses.replace(base, user_bias=np.zeros(5))
    with pytest.raises(ValueError, match=r"object_bias has shape \(2,\) for 3 rows"):
        dataclasses.replace(base, object_bias=np.zeros(2))
    for mu in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="mu must be finite"):
            dataclasses.replace(base, mu=mu)


@pytest.mark.parametrize("key", ["num_users", "num_objects", "f"])
def test_model_dimensions_must_match_factors(key):
    doc = model_to_dict(zero_model(users=2, objects=3, f=4))
    assert model_from_dict(doc).num_objects == 3
    for value in (7, 99, 2.0, True, "3", None):
        with pytest.raises(ValueError, match=f"'{key}' is {value!r}, but the factors give"):
            model_from_dict({**doc, key: value})
    with pytest.raises(ValueError, match=f"model file has no '{key}'"):
        model_from_dict({k: v for k, v in doc.items() if k != key})


def _assert_saved_as_write_json(model, path):
    """``save_model`` writes the bytes of ``write_json`` on ``model_to_dict``'s
    document, the writer it replaced."""
    save_model(model, path)
    assert path.read_bytes() == (json.dumps(model_to_dict(model), indent=1) + "\n").encode()


def test_save_model_matches_write_json_on_default_model(tmp_path, default_runner):
    _assert_saved_as_write_json(default_runner.model, tmp_path / "model.json")


# finite floats, the edges of float64 and its repr among them
_model_values = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                          st.sampled_from([1e-05, -0.0, 0.0, 1e300, 5e-324, -1e16, 0.1, 3.0]))


@st.composite
def _models(draw):
    users, objects, f = draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.integers(0, 3))

    def array(*shape):
        size = int(np.prod(shape))
        return np.array(draw(st.lists(_model_values, min_size=size, max_size=size)),
                        dtype=np.float64).reshape(shape)

    return FactorModel(array(users, f), array(objects, f), array(users), array(objects),
                       mu=draw(st.one_of(_model_values, st.integers(-5, 5))))


@given(_models())
@settings(max_examples=200, deadline=None)
def test_save_model_matches_write_json(tmp_path_factory, model):
    path = tmp_path_factory.mktemp("models") / "model.json"
    _assert_saved_as_write_json(model, path)
    assert model_to_dict(load_model(path)) == model_to_dict(model)


@pytest.mark.parametrize("users, objects, name", [(0, 2, "user_factors"),
                                                   (2, 0, "object_factors")])
def test_model_rejects_factors_without_rows(users, objects, name):
    # such a model would save "[]", which loads as a 1-D array
    with pytest.raises(ValueError, match=rf"{name} must be a 2-D matrix with at least one row, "
                                         r"got shape \(0, 2\)"):
        zero_model(users=users, objects=objects)


@pytest.mark.parametrize("value", [True, "0.25", None, 10**400, [0.5]],
                         ids=["bool", "string", "null", "int beyond float64", "list"])
@pytest.mark.parametrize("name, row, place", [
    ("user_bias", 1, lambda doc, value: doc["user_bias"].__setitem__(1, value)),
    ("object_bias", 2, lambda doc, value: doc["object_bias"].__setitem__(2, value)),
    ("user_factors", 1, lambda doc, value: doc["user_factors"][1].__setitem__(3, value)),
    ("object_factors", 2, lambda doc, value: doc["object_factors"][2].__setitem__(0, value)),
], ids=["user_bias", "object_bias", "user_factors", "object_factors"])
def test_model_entries_must_be_numbers(name, row, place, value):
    # true loaded as 1.0 and "0.25" as 0.25
    doc = model_to_dict(zero_model(users=2, objects=3, f=4))
    place(doc, value)
    kind = "not a number" if name.endswith("bias") else "is not a list of numbers"
    with pytest.raises(ValueError, match=rf"model file: '{name}' row {row} .*{kind}"):
        model_from_dict(doc)


def test_model_factor_rows_must_be_as_long_as_row_0():
    # numpy raised its unnamed "inhomogeneous shape" error
    with pytest.raises(ValueError, match=re.escape("factors row 1 has 1 entries, not 2")):
        number_array([[1.0, 2.0], [3.0]], "factors")
    doc = model_to_dict(zero_model(users=3, objects=3, f=2))
    doc["user_factors"][2].append(0.0)
    with pytest.raises(ValueError, match=re.escape(
            "model file: 'user_factors' row 2 has 3 entries, not 2")):
        model_from_dict(doc)
    doc["user_factors"][1] = []  # the first row of another length is named
    with pytest.raises(ValueError, match=re.escape(
            "model file: 'user_factors' row 1 has 0 entries, not 2")):
        model_from_dict(doc)
    doc["user_factors"][2][0] = True  # a row that is not numbers keeps its message
    with pytest.raises(ValueError, match=re.escape(
            "model file: 'user_factors' row 2 is not a list of numbers")):
        model_from_dict(doc)


def test_model_rows_must_be_lists():
    doc = model_to_dict(zero_model(users=3, objects=3, f=2))
    doc["object_factors"][1] = 0.5
    with pytest.raises(ValueError, match="'object_factors' row 1 is not a list of numbers"):
        model_from_dict(doc)
    with pytest.raises(ValueError, match="'user_bias' must be a list"):
        model_from_dict({**doc, "user_bias": 0.5})
    # ints within float64 are numbers
    doc = model_to_dict(zero_model(users=2, objects=2, f=1))
    doc["user_bias"][0] = 2
    doc["user_factors"][1][0] = -3
    loaded = model_from_dict(doc)
    assert loaded.user_bias[0] == 2.0 and loaded.user_factors[1, 0] == -3.0
