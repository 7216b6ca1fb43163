"""Latent-factor model fitting, prediction, baselines, and metrics."""

import dataclasses

import numpy as np
import pytest

from attnalloc import (
    BaselineModel,
    FactorModel,
    FitConfig,
    SparseAttentionRecords,
    evaluate,
    fit_baseline,
    fit_mf,
    predict,
    predict_scene,
)
from attnalloc.mf import (
    EvaluationError,
    FitError,
    holdout_mask,
    load_model,
    model_from_dict,
    model_to_dict,
    raw_score,
    save_model,
)
from attnalloc.world import GroundTruthLevels


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
    config = dataclasses.replace(FitConfig(), regularization=0.0, epochs=50)
    model = fit_mf(constant_records(), config)
    for u in range(4):
        for o in range(6):
            assert abs(predict(model, u, o) - 3.0) < 0.1


def test_fit_deterministic():
    records = constant_records(level=4)
    a = fit_mf(records, FitConfig(epochs=10))
    b = fit_mf(records, FitConfig(epochs=10))
    assert np.array_equal(a.user_factors, b.user_factors)
    assert np.array_equal(a.object_factors, b.object_factors)
    assert a.training_curve == b.training_curve
    c = fit_mf(records, FitConfig(epochs=10, seed=1))
    assert not np.array_equal(a.user_factors, c.user_factors)


def test_fit_rejects_empty_and_bad_config():
    with pytest.raises(FitError):
        fit_mf(SparseAttentionRecords(), FitConfig())
    with pytest.raises(FitError):
        fit_mf(constant_records(), FitConfig(epochs=0))
    with pytest.raises(FitError):
        fit_mf(constant_records(), FitConfig(learning_rate=-1.0))
    with pytest.raises(FitError):
        fit_mf(constant_records(), FitConfig(), num_users=2, num_objects=2)


def test_training_loss_trend():
    rng = np.random.default_rng(0)
    records = SparseAttentionRecords(frozenset(
        (u, o, int(rng.integers(1, 6))) for u in range(10) for o in range(12)
    ))
    model = fit_mf(records, FitConfig(epochs=60))
    curve = model.training_curve
    assert curve[-1] < curve[0]
    # epoch-averaged loss is non-increasing up to SGD noise
    assert curve[-1] <= min(curve) * 1.05


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

    model = fit_mf(records, FitConfig(f=2))
    mu = np.mean([l for _, _, l in triples])
    err_mf = [(predict(model, u, o) - l) ** 2 for u, o, l in held_out]
    err_mu = [(mu - l) ** 2 for _, _, l in held_out]
    assert np.sqrt(np.mean(err_mf)) < np.sqrt(np.mean(err_mu))


def test_predict_clamps():
    model = zero_model(mu=7.2)
    assert predict(model, 0, 0) == 5.0
    model = zero_model(mu=-0.4)
    assert predict(model, 0, 0) == 1.0
    assert raw_score(model, 0, 0) == pytest.approx(-0.4)
    assert raw_score(zero_model(mu=3.0), 1, 1) == 3.0


def test_predict_index_errors():
    model = zero_model()
    with pytest.raises(IndexError):
        predict(model, 2, 0)
    with pytest.raises(IndexError):
        predict(model, 0, -1)


def test_predict_scene_order_and_duplicates():
    model = zero_model(mu=3.0)
    out = predict_scene(model, 0, [1, 0, 1])
    assert np.array_equal(out, [3.0, 3.0, 3.0])
    with pytest.raises(ValueError):
        predict_scene(model, 0, [])


def test_huge_regularization_shrinks_factors():
    records = constant_records(level=5)
    model = fit_mf(records, FitConfig(regularization=1e6, epochs=20))
    assert np.isfinite(model.user_factors).all()
    assert np.linalg.norm(model.user_factors) < 1e-3
    assert np.linalg.norm(model.object_factors) < 1e-3


def test_label_shift_equivariance():
    rng = np.random.default_rng(3)
    base = [(u, o, int(rng.integers(1, 4))) for u in range(6) for o in range(8)]
    shifted = [(u, o, l + 2) for u, o, l in base]
    config = FitConfig(epochs=100)
    a = fit_mf(SparseAttentionRecords(frozenset(base)), config)
    b = fit_mf(SparseAttentionRecords(frozenset(shifted)), config)
    for u in range(6):
        for o in range(8):
            assert abs((raw_score(b, u, o) - raw_score(a, u, o)) - 2.0) < 0.05


def test_baseline_rules():
    model = fit_baseline(SparseAttentionRecords(frozenset({(0, 0, 4)})))
    assert model.mu == 4.0
    assert model.predict(5, 7) == 4.0

    model = fit_baseline(SparseAttentionRecords(frozenset({(0, 0, 1), (0, 1, 5)})))
    assert model.user_means[0] == 3.0
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
    metrics = evaluate(lambda u, o: 3.0, truth, {(0, 0), (1, 1)})
    assert metrics.rmse == pytest.approx(2.0)
    assert metrics.mae == pytest.approx(2.0)
    assert metrics.count == 2

    perfect = evaluate(lambda u, o: 5.0, truth, {(0, 1)})
    assert perfect.rmse == 0.0 and perfect.mae == 0.0

    with pytest.raises(EvaluationError):
        evaluate(lambda u, o: 3.0, truth, set())


def test_holdout_mask_excludes_observed():
    records = constant_records(users=3, objects=10)
    mask = holdout_mask(records, num_users=3, num_objects=20, fraction=0.5, seed=0)
    assert mask
    assert not (mask & records.pairs())
    assert mask == holdout_mask(records, num_users=3, num_objects=20, fraction=0.5, seed=0)


def test_model_roundtrip(tmp_path):
    model = fit_mf(constant_records(), FitConfig(epochs=5))
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded = load_model(path)
    assert model_to_dict(loaded) == model_to_dict(model)
    save_model(loaded, tmp_path / "model2.json")
    assert (tmp_path / "model2.json").read_bytes() == path.read_bytes()


def test_model_version_check(tmp_path):
    model = fit_mf(constant_records(), FitConfig(epochs=1))
    path = tmp_path / "model.json"
    save_model(model, path)
    path.write_text(path.read_text().replace("attn-mf/1", "attn-mf/9"))
    with pytest.raises(ValueError, match="version"):
        load_model(path)


def _reference_fit_mf(records, config, num_users=None, num_objects=None):
    """The original numpy-vector SGD loop, kept as the slow oracle for fit_mf."""
    config.validate()
    if len(records) == 0:
        raise FitError("cannot fit on empty records")

    triples = records.sorted_list()
    users = np.array([t[0] for t in triples])
    objects = np.array([t[1] for t in triples])
    levels = np.array([t[2] for t in triples], dtype=np.float64)
    nu = num_users if num_users is not None else int(users.max()) + 1
    no = num_objects if num_objects is not None else int(objects.max()) + 1
    if users.max() >= nu or objects.max() >= no:
        raise FitError("record ids exceed the requested model dimensions")

    rng = np.random.default_rng(config.seed)
    f = config.f
    U = rng.uniform(-0.05, 0.05, size=(nu, f)) * config.init_scale
    V = rng.uniform(-0.05, 0.05, size=(no, f)) * config.init_scale
    bu = np.zeros(nu)
    bo = np.zeros(no)
    mu = float(levels.mean())

    lr = config.learning_rate
    # multiplicative shrinkage, floored at full shrink so huge regularization
    # stays numerically stable instead of diverging
    decay = max(0.0, 1.0 - lr * config.regularization)

    curve = []
    n = len(triples)
    for _ in range(config.epochs):
        order = rng.permutation(n)
        sq = 0.0
        for i in order:
            u, o = users[i], objects[i]
            uf = U[u]
            vf = V[o]
            err = levels[i] - (mu + bu[u] + bo[o] + uf @ vf)
            sq += err * err
            new_u = uf * decay + lr * err * vf
            new_v = vf * decay + lr * err * uf
            U[u] = new_u
            V[o] = new_v
            bu[u] = bu[u] * decay + lr * err
            bo[o] = bo[o] * decay + lr * err
        curve.append(sq / n)

    return FactorModel(
        user_factors=U, object_factors=V, user_bias=bu, object_bias=bo,
        mu=mu, training_curve=tuple(curve),
    )


def _random_records(seed, users=10, objects=12, density=0.6):
    rng = np.random.default_rng(seed)
    return SparseAttentionRecords(frozenset(
        (u, o, int(rng.integers(1, 6)))
        for u in range(users) for o in range(objects) if rng.random() < density
    ))


def _assert_fits_agree(records, config, **dims):
    fast = fit_mf(records, config, **dims)
    ref = _reference_fit_mf(records, config, **dims)
    for name in ("user_factors", "object_factors", "user_bias", "object_bias"):
        got, want = getattr(fast, name), getattr(ref, name)
        assert got.shape == want.shape, name
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12, err_msg=name)
    np.testing.assert_allclose(fast.training_curve, ref.training_curve, rtol=1e-12, atol=0)
    assert fast.mu == ref.mu


@pytest.mark.parametrize("config", [
    FitConfig(f=1, epochs=30),
    FitConfig(f=6, epochs=30),
    FitConfig(regularization=1e6, epochs=10),
    FitConfig(init_scale=3.0, epochs=30, seed=5),
], ids=["f1", "f6", "decay-floored", "init-scale-3"])
def test_fit_matches_reference_loop(config):
    _assert_fits_agree(_random_records(seed=2), config)


def test_fit_matches_reference_with_padded_dimensions():
    # ids 0..9 x 0..11 observed; the model is larger on both axes, and the
    # unobserved rows keep their initial draws
    _assert_fits_agree(_random_records(seed=4), FitConfig(epochs=20),
                       num_users=13, num_objects=17)


def test_fit_matches_reference_on_default_records(default_runner):
    config = dataclasses.replace(default_runner.config.fit, epochs=20)
    world = default_runner.world
    _assert_fits_agree(default_runner.records, config,
                       num_users=world.num_users, num_objects=world.num_objects)


@pytest.mark.parametrize("name", ["learning_rate", "regularization", "init_scale"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_fit_config_rejects_non_finite(name, value):
    config = dataclasses.replace(FitConfig(), **{name: value})
    with pytest.raises(FitError, match=name):
        config.validate()
    with pytest.raises(FitError, match=name):
        fit_mf(constant_records(), config)


def test_divergent_fit_fails_fast():
    records = SparseAttentionRecords(frozenset({(0, 0, 5), (0, 1, 1), (1, 0, 2)}))
    with pytest.raises(FitError, match="learning_rate") as err:
        fit_mf(records, FitConfig(learning_rate=5.0))
    assert "epoch" in str(err.value)


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
