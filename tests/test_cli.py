"""Command-line interface: subcommands, outputs, and exit codes."""

import argparse
import configparser
import dataclasses
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import attnalloc
from attnalloc.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, _build_parser, cli_main
from oracles import record_pairs, world_from_pixels

SMALL_CONFIG = """\
[experiment]
sweep_factors = 16.0, 20.0
sweep_user = 1

[world]
num_users = 4
num_objects = 24
num_images = 60
num_groups = 3
max_objects_per_image = 8

[fit]
epochs = 20
"""


@pytest.fixture()
def config_file(tmp_path):
    path = tmp_path / "small.cfg"
    path.write_text(SMALL_CONFIG)
    return str(path)


def run(capsys, *argv):
    code = cli_main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_no_command_is_usage_error(capsys):
    code, _, err = run(capsys, )
    assert code == EXIT_USAGE
    assert "usage" in err


def test_unknown_flag(capsys):
    code, _, err = run(capsys, "generate", "--bogus")
    assert code == EXIT_USAGE
    assert "error" in err


def test_print_config(capsys):
    code, out, _ = run(capsys, "--print-config")
    assert code == EXIT_OK
    assert "[experiment]" in out and "[world]" in out and "master_seed" in out


# the default configuration as --print-config writes it, byte for byte
# (uplink_sinr ends in "= " because None prints as an empty value)
PRINTED_CONFIG = """\
[experiment]
master_seed = 7
floor_k = 2.0
budget_per_object_k = 20.0
sweep_factors = 16.0, 18.0, 20.0, 22.0, 24.0, 26.0, 28.0, 30.0, 32.0, 34.0, 36.0, 38.0, 40.0
sweep_user = 2
scene_retain_lo = 30
scene_retain_hi = 70

[world]
num_users = 30
num_objects = 96
num_images = 1000
num_groups = 5
latent_rank = 6
interest_noise = 0.1
interest_exponent = 16.0
interest_floor = 0.1
hot_fraction = 0.15
gaze_noise = 0.0
group_bias = 3.0
object_popularity_exponent = 2.5
min_objects_per_image = 3
max_objects_per_image = 12
min_pixels_per_object = 200
max_pixels_per_object = 5000
max_image_pixels = 230400

[fit]
f = 6
regularization = 0.1
epochs = 15
init_scale = 1.0
seed = 0

[channel]
bandwidth = 10000000.0
tx_power = 1.0
distance = 10.0
path_loss_exponent = 2.0
interference_power = 1.2589254117941673
noise_psd = 3.98e-21
tx_antennas = 6
rx_antennas = 7
uplink_sinr = {}

"""


def test_print_config_pinned(capsys):
    code, out, _ = run(capsys, "--print-config")
    assert code == EXIT_OK
    assert out == PRINTED_CONFIG.format("")


def test_generate_deterministic(tmp_path, capsys, config_file):
    w1 = tmp_path / "w1.json"
    w2 = tmp_path / "w2.json"
    assert run(capsys, "generate", "--config", config_file, "--seed", "7",
               "--out", str(w1))[0] == EXIT_OK
    assert run(capsys, "generate", "--config", config_file, "--seed", "7",
               "--out", str(w2))[0] == EXIT_OK
    assert w1.read_bytes() == w2.read_bytes()


def test_sparsify_and_fit_and_eval(tmp_path, capsys, config_file):
    world = tmp_path / "world.json"
    records = tmp_path / "records.csv"
    model = tmp_path / "model.json"
    truth = tmp_path / "truth.csv"
    metrics = tmp_path / "metrics.json"

    assert run(capsys, "generate", "--config", config_file, "--out", str(world))[0] == EXIT_OK
    code, out, _ = run(capsys, "sparsify", "--config", config_file,
                       "--world", str(world), "--out", str(records))
    assert code == EXIT_OK
    assert "records" in out
    assert records.read_text().startswith("user_id,object_id,level\n")

    assert run(capsys, "fit", "--config", config_file, "--records", str(records),
               "--world", str(world), "--out", str(model))[0] == EXIT_OK
    assert json.loads(model.read_text())["version"] == "attn-mf/1"

    code, out, _ = run(capsys, "eval", "--model", str(model), "--world", str(world),
                       "--records", str(records), "--out", str(metrics))
    assert code == EXIT_OK
    doc = json.loads(metrics.read_text())
    assert doc["rmse"] >= 0 and doc["count"] > 0

    # the metrics equal those of the former `eval --truth`, which densified a
    # ground-truth CSV dumped from the same world
    from attnalloc import (GroundTruthLevels, SparseAttentionRecords, evaluate,
                           ground_truth_levels, load_records, load_world, save_records)
    from attnalloc.mf import load_model
    levels = ground_truth_levels(load_world(world)).levels
    save_records(SparseAttentionRecords(frozenset(
        (u, o, int(level)) for (u, o), level in np.ndenumerate(levels))), truth)
    dense = np.zeros_like(levels)
    seen = set()
    for user, obj, level in load_records(truth):
        dense[user, obj] = level
        seen.add((user, obj))
    held_out = np.array(sorted(seen - record_pairs(load_records(records))))
    expected = evaluate(load_model(model).predictor(), GroundTruthLevels(dense),
                        (held_out[:, 0], held_out[:, 1]))
    assert doc == {"rmse": expected.rmse, "mae": expected.mae, "count": expected.count}

    # a record outside the world fails by name instead of being ignored
    shape = levels.shape
    rejected = tmp_path / "rejected.json"
    for user, obj in ((shape[0], 0), (0, shape[1])):
        with records.open("a") as fh:
            fh.write(f"{user},{obj},3\n")
        code, _, err = run(capsys, "eval", "--model", str(model), "--world", str(world),
                           "--records", str(records), "--out", str(rejected))
        assert code == EXIT_DATA
        assert f"record pair ({user}, {obj}) lies outside the model's {shape[0]} users" in err
        assert not rejected.exists()


def test_sparsify_single_user(tmp_path, capsys, config_file):
    records = tmp_path / "u2.csv"
    code, _, _ = run(capsys, "sparsify", "--config", config_file,
                     "--user", "2", "--out", str(records))
    assert code == EXIT_OK
    users = {line.split(",")[0] for line in records.read_text().splitlines()[1:]}
    assert users == {"2"}

    code, _, err = run(capsys, "sparsify", "--config", config_file, "--user", "99")
    assert code == EXIT_DATA
    assert "user" in err


def test_allocate_known_answer(tmp_path, capsys):
    out = tmp_path / "alloc.csv"
    code, stdout, _ = run(capsys, "allocate", "--weights", "4,1",
                          "--budget", "40", "--floor", "15", "--out", str(out))
    assert code == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[1] == "0,4.0,25.0"
    assert lines[2] == "1,1.0,15.0"
    assert json.loads(stdout[: stdout.rindex("}") + 1])["budget_relative_error"] <= 1e-9


def test_allocate_errors(capsys):
    assert run(capsys, "allocate", "--weights", "x,1", "--budget", "40")[0] == EXIT_USAGE
    assert run(capsys, "allocate", "--weights", "", "--budget", "40")[0] == EXIT_USAGE
    code, _, err = run(capsys, "allocate", "--weights", "1,1,1", "--budget", "30")
    assert code == EXIT_DATA
    assert "deficit" in err


def test_experiment_and_sweep(tmp_path, capsys, config_file):
    prefix = tmp_path / "exp"
    code, out, _ = run(capsys, "experiment", "--config", config_file,
                       "--out", str(prefix))
    assert code == EXIT_OK
    assert "mean improvement" in out
    doc = json.loads((tmp_path / "exp.json").read_text())
    assert len(doc["reports"]) == 4

    sweep = tmp_path / "sweep.csv"
    code, _, _ = run(capsys, "sweep", "--config", config_file, "--out", str(sweep))
    assert code == EXIT_OK
    lines = sweep.read_text().splitlines()
    assert lines[0] == "budget_factor_k,mean_improvement_pct"
    assert len(lines) == 3


@pytest.mark.parametrize("user", ["-1", "4"])
def test_sweep_rejects_user_outside_world_before_any_draw(tmp_path, capsys, config_file, user):
    # --user -1 used to reach the scene's seed sequence and fail with numpy's
    # "expected non-negative integer", which did not name the user
    out = tmp_path / "sweep.csv"
    code, _, err = run(capsys, "sweep", "--config", config_file, "--user", user,
                       "--out", str(out))
    assert code == EXIT_DATA
    assert f"user {user} outside 0..3" in err
    assert not out.exists()


def test_negative_sweep_user_rejected_when_config_is_built(tmp_path, capsys):
    with pytest.raises(ValueError, match="sweep_user must be >= 0, got -1"):
        attnalloc.ExperimentConfig(sweep_user=-1)
    path = tmp_path / "bad.cfg"
    path.write_text("[experiment]\nsweep_user = -1\n")
    code, _, err = run(capsys, "sweep", "--config", str(path))
    assert code == EXIT_DATA
    assert "invalid [experiment] section: sweep_user must be >= 0, got -1" in err


def test_negative_master_seed_rejected_when_config_is_built(tmp_path, capsys, monkeypatch):
    # with no generate_world, only a check when the config is built names the seed
    monkeypatch.setattr(attnalloc.experiment, "generate_world", None)
    with pytest.raises(ValueError, match="seed must be a non-negative integer, got -1"):
        attnalloc.ExperimentConfig(master_seed=-1)
    out = tmp_path / "experiment"
    code, _, err = run(capsys, "experiment", "--seed", "-1", "--out", str(out))
    assert code == EXIT_DATA
    assert "seed must be a non-negative integer, got -1" in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command, detail, expected", [
    ("experiment", ("Unable to allocate 22.4 GiB for an array",),
     "error: experiment ran out of memory: Unable to allocate 22.4 GiB for an array\n"),
    ("sweep", (), "error: sweep ran out of memory\n"),
])
def test_memory_error_exits_2_naming_the_command(tmp_path, capsys, monkeypatch, command, detail,
                                                 expected):
    # [fit] f = 100000000 asks for arrays that cannot be allocated; the error
    # is injected here rather than provoked
    def fit_out_of_memory(*args, **kwargs):
        raise MemoryError(*detail)

    monkeypatch.setattr(attnalloc.experiment, "fit_mf", fit_out_of_memory)
    path = tmp_path / "huge.cfg"
    path.write_text("[fit]\nf = 100000000\n")
    code, out, err = run(capsys, command, "--config", str(path), "--out", str(tmp_path / "out"))
    assert (code, out, err) == (EXIT_DATA, "", expected)
    assert not list(tmp_path.glob("out*"))


@pytest.mark.parametrize("command", ["experiment", "sweep"])
def test_arithmetic_overflow_exits_2_naming_the_command(tmp_path, capsys, monkeypatch, command):
    # no config reaches an overflow now that the link and the budgets are
    # checked when the config is read (see the next test), so one is raised
    # where the reports are scored; the backstop still names the command
    def overflow(terms):
        raise OverflowError(34, "Numerical result out of range")

    monkeypatch.setattr("attnalloc.experiment.qoe", overflow)
    code, out, err = run(capsys, command, "--out", str(tmp_path / "out"))
    assert (code, out) == (EXIT_DATA, "")
    assert err.startswith(f"error: {command} failed on arithmetic: OverflowError: ")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not list(tmp_path.glob("out*"))


@pytest.mark.parametrize("text, message", [
    ("[channel]\ndistance = 1e-200\n",
     "invalid [channel] section: the SINR's received power, tx_power * distance ** "
     "-path_loss_exponent * min(tx_antennas, rx_antennas), overflows: "
     "(34, 'Numerical result out of range')"),
    ("[channel]\ndistance = 1e300\n", "invalid [channel] section: the downlink rate, "
     "bandwidth * log2(1 + SINR), is 0.0 for SINR 0.0; it must be positive and finite"),
    ("[channel]\ntx_power = 1e308\ndistance = 0.001\n",
     "invalid [channel] section: the downlink rate, bandwidth * log2(1 + SINR), is inf"),
    ("[channel]\nuplink_sinr = -1\n", "invalid [channel] section: uplink_sinr must be >= 0"),
    ("[experiment]\nbudget_per_object_k = 1e308\n", "invalid [experiment] section: "
     "budget_per_object_k 1e+308 times world.num_objects 96 is not finite"),
    ("[experiment]\nsweep_factors = 20, 1e308\n", "invalid [experiment] section: "
     "sweep factor 1e+308 times world.num_objects 96 is not finite"),
    # every QoE was inf: experiment wrote inf and nan rows, then failed on its JSON
    ("[link]\ndownlink_rate = 1e307\nuplink_ber = 0\n", "invalid [link] section: the link "
     "factor downlink_rate * (1 - uplink_ber), 1e+307, times world.num_objects 96 times the "
     "log of the largest budget 3840 is not finite, so a QoE would overflow"),
    ("[channel]\nbandwidth = 1e305\ntx_power = 1e306\nnoise_psd = 1e-320\n",
     "invalid [channel] section: the link factor downlink_rate * (1 - uplink_ber), "),
    # every QoE was a few subnormal ulps: experiment exited 0 with improvements
    # that were ratios of small integers
    ("[link]\ndownlink_rate = 5e-324\nuplink_ber = 0\n", "invalid [link] section: the link "
     "factor downlink_rate * (1 - uplink_ber), 5e-324, times the log of floor_k 2.0 is below "
     "the smallest normal float 2.2250738585072014e-308, so a QoE would lose its precision"),
    ("[channel]\nbandwidth = 1e-310\n",
     "invalid [channel] section: the link factor downlink_rate * (1 - uplink_ber), "),
])
@pytest.mark.parametrize("command", ["generate", "experiment", "sweep"])
def test_link_and_budget_faults_exit_when_the_config_is_read(tmp_path, capsys, command, text,
                                                             message):
    # each used to exit after the fit: through the arithmetic backstop, or
    # with a message that named neither the section nor the key
    path = tmp_path / "bad.cfg"
    path.write_text(text)
    code, out, err = run(capsys, command, "--config", str(path), "--out", str(tmp_path / "out"))
    assert (code, out) == (EXIT_DATA, "")
    assert err.startswith(f"error: {path}: {message}") and err.count("\n") == 1
    assert not list(tmp_path.glob("out*"))


def test_missing_config_file(capsys):
    code, _, err = run(capsys, "experiment", "--config", "missing.toml")
    assert code == EXIT_DATA
    assert "missing.toml" in err


def test_bad_config_file(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("[world]\nnum_users = many\n")
    code, _, err = run(capsys, "experiment", "--config", str(path))
    assert code == EXIT_DATA
    assert "num_users" in err


@pytest.mark.parametrize("world, message", [
    # the fourth object fits in no image; generate used to loop forever
    ("num_users = 1\nnum_objects = 4\nnum_images = 1\nnum_groups = 1\n"
     "min_objects_per_image = 3\nmax_objects_per_image = 3\n"
     "min_pixels_per_object = 5000\nmax_pixels_per_object = 5000\nmax_image_pixels = 15000\n",
     "occurs in no image, and its 5000 pixels fit in no image under max_image_pixels 15000"),
    # popularity underflows to 0 for all but 6 of the 96 objects
    ("object_popularity_exponent = 400.0\n",
     "object_popularity_exponent 400.0 leaves 6 objects with positive weight"),
], ids=["no-room", "zero-weights"])
def test_generate_impossible_world_exits_2(tmp_path, capsys, world, message):
    path = tmp_path / "world.cfg"
    path.write_text("[world]\n" + world)
    out = tmp_path / "world.json"
    code, _, err = run(capsys, "generate", "--config", str(path), "--out", str(out))
    assert code == EXIT_DATA
    assert message in err
    assert not out.exists()


def test_fit_missing_records(tmp_path, capsys, config_file):
    world, _ = _tiny_world(tmp_path, capsys, config_file)
    assert run(capsys, "fit", "--records", "nope.csv", "--world", str(world))[0] == EXIT_DATA


def _write_tiny_records(path):
    path.write_text("user_id,object_id,level\n0,0,5\n0,1,1\n1,0,2\n")


@pytest.mark.parametrize("line, name", [
    ("regularization = 0", "regularization must be positive"),
    # the SGD step size is no longer a field: a stale config that sets it
    # fails by name as an unknown key instead of being ignored
    ("learning_rate = nan", "learning_rate"),
    ("regularization = nan", "regularization"),
    ("init_scale = inf", "init_scale"),
])
def test_fit_rejects_non_finite_config(tmp_path, capsys, config_file, line, name):
    records = tmp_path / "records.csv"
    _write_tiny_records(records)
    world, _ = _tiny_world(tmp_path, capsys, config_file)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"[fit]\n{line}\n")
    code, _, err = run(capsys, "fit", "--config", str(cfg), "--records", str(records),
                       "--world", str(world), "--out", str(tmp_path / "model.json"))
    assert code == EXIT_DATA
    assert name in err
    assert not (tmp_path / "model.json").exists()


def test_fit_divergence_exits_2(tmp_path, capsys, config_file):
    records = tmp_path / "records.csv"
    _write_tiny_records(records)
    world, _ = _tiny_world(tmp_path, capsys, config_file)
    cfg = tmp_path / "huge.cfg"
    cfg.write_text("[fit]\ninit_scale = 1e308\n")
    code, _, err = run(capsys, "fit", "--config", str(cfg), "--records", str(records),
                       "--world", str(world), "--out", str(tmp_path / "model.json"))
    assert code == EXIT_DATA
    assert "not finite in sweep 1 of 15: regularization 0.1 is too small or " \
        "init_scale 1e+308 too large" in err
    assert not (tmp_path / "model.json").exists()


def _tiny_world(tmp_path, capsys, config_file):
    world = tmp_path / "world.json"
    assert run(capsys, "generate", "--config", config_file, "--out", str(world))[0] == EXIT_OK
    return world, json.loads(world.read_text())


def test_fit_world_sets_model_dimensions(tmp_path, capsys, config_file):
    # the world's users x objects, not the 2 x 2 of the records' largest ids
    records = tmp_path / "records.csv"
    records.write_text("user_id,object_id,level\n0,0,3\n1,1,2\n")
    world, doc = _tiny_world(tmp_path, capsys, config_file)
    model = tmp_path / "model.json"
    code, _, err = run(capsys, "fit", "--records", str(records), "--world", str(world),
                       "--out", str(model))
    assert code == EXIT_OK, err
    fitted = json.loads(model.read_text())
    assert (fitted["num_users"], fitted["num_objects"]) == (len(doc["interest"]),
                                                            len(doc["catalog"]))
    assert fitted["num_users"] > 2 and fitted["num_objects"] > 2


def test_fit_world_rejects_records_outside_it(tmp_path, capsys, config_file):
    world, doc = _tiny_world(tmp_path, capsys, config_file)
    users, objects = len(doc["interest"]), len(doc["catalog"])
    records = tmp_path / "records.csv"
    model = tmp_path / "model.json"
    # the first id just outside the world, and one that, when the model was
    # sized from the largest id, died allocating 42.6 PiB (exit 1)
    for user in (users, 10**15):
        records.write_text(f"user_id,object_id,level\n0,0,3\n{user},1,2\n")
        code, _, err = run(capsys, "fit", "--records", str(records), "--world", str(world),
                           "--out", str(model))
        assert code == EXIT_DATA
        assert (f"record pair ({user}, 1) lies outside the model's "
                f"{users} users x {objects} objects") in err
        assert not model.exists()
    # the world is what sizes the model, so fit needs it
    code, _, err = run(capsys, "fit", "--records", str(records), "--out", str(model))
    assert code == EXIT_USAGE and "--world" in err
    assert not model.exists()


@pytest.mark.parametrize("command", ["experiment", "sweep"])
@pytest.mark.parametrize("factors, shown", [("20, 16", "(20.0, 16.0)"),
                                            ("16, 16", "(16.0, 16.0)")])
def test_sweep_factors_out_of_order_exit_2(tmp_path, capsys, command, factors, shown):
    # experiment used to exit 0 with the factors in its JSON; sweep ran every
    # report before failing without naming the key
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"[experiment]\nsweep_factors = {factors}\n")
    code, _, err = run(capsys, command, "--config", str(cfg), "--out", str(tmp_path / "x"))
    assert code == EXIT_DATA
    assert err == (f"error: {cfg}: invalid [experiment] section: "
                   f"sweep_factors must be strictly increasing, got {shown}\n")
    assert list(tmp_path.iterdir()) == [cfg]


@pytest.mark.parametrize("section, line, message", [
    # each used to fail with a message about a derived quantity, or not at all
    ("world", "group_bias = nan", "group_bias must be finite, got nan"),
    ("world", "group_bias = inf", "group_bias must be finite, got inf"),
    ("world", "object_popularity_exponent = nan",
     "object_popularity_exponent must be finite, got nan"),
    ("world", "interest_exponent = nan", "interest_exponent must be finite, got nan"),
    ("channel", "distance = nan", "distance must be finite, got nan"),
    ("link", "downlink_rate = nan\nuplink_ber = 0", "downlink_rate must be finite, got nan"),
    ("experiment", "sweep_factors = 16, nan", "sweep_factors must be finite"),
], ids=["group_bias-nan", "group_bias-inf", "object_popularity_exponent-nan",
        "interest_exponent-nan", "distance-nan", "downlink_rate-nan", "sweep_factors-nan"])
def test_non_finite_config_value_named(tmp_path, capsys, section, line, message):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"[{section}]\n{line}\n")
    out = tmp_path / "world.json"
    code, _, err = run(capsys, "generate", "--config", str(cfg), "--out", str(out))
    assert code == EXIT_DATA
    assert message in err
    assert not out.exists()


@pytest.mark.parametrize("budget, floor, name", [
    ("nan", "15", "budget"), ("inf", "15", "budget"),
    ("40", "nan", "floor"), ("40", "inf", "floor"),
])
def test_allocate_non_finite_budget_or_floor(tmp_path, capsys, budget, floor, name):
    out = tmp_path / "alloc.csv"
    code, stdout, err = run(capsys, "allocate", "--weights", "1,2", "--budget", budget,
                            "--floor", floor, "--out", str(out))
    assert code == EXIT_DATA
    assert f"{name} must be finite" in err
    assert stdout == "" and not out.exists()


def _save_world(path, pixels, num_users=2):
    """Save a manual world with the given images x objects pixel matrix."""
    from attnalloc import save_world

    pixels = np.asarray(pixels)
    save_world(world_from_pixels(pixels, group_of=[0] * len(pixels),
                                 labels=tuple(f"o{i}" for i in range(pixels.shape[1])),
                                 interest=np.full((num_users, pixels.shape[1]), 0.5), seed=0),
               path)


def _save_zero_model(path):
    """Save a 2 x 2 model that predicts 3 for every pair."""
    from attnalloc import FactorModel
    from attnalloc.mf import save_model

    save_model(FactorModel(np.zeros((2, 1)), np.zeros((2, 1)), np.zeros(2), np.zeros(2),
                           mu=3.0), path)


def test_eval_truth_wider_than_model(tmp_path, capsys):
    # a 2 x 3 world against a 2 x 2 model, and the reverse
    model, world = tmp_path / "model.json", tmp_path / "world.json"
    _save_zero_model(model)
    _save_world(world, [[10, 20, 30]])
    code, _, err = run(capsys, "eval", "--model", str(model), "--world", str(world))
    assert code == EXIT_DATA
    assert "world has 2 users x 3 objects, but the model has 2 users x 2 objects" in err
    _save_world(world, [[10]], num_users=3)
    code, _, err = run(capsys, "eval", "--model", str(model), "--world", str(world))
    assert code == EXIT_DATA
    assert "world has 3 users x 1 objects, but the model has 2 users x 2 objects" in err


def test_eval_rejects_world_with_absent_object(tmp_path, capsys):
    # object 1 occurs in no image, so the world gives it no ground-truth level
    model, world = tmp_path / "model.json", tmp_path / "world.json"
    _save_zero_model(model)
    _save_world(world, [[10, 0], [5, 0]])
    code, out, err = run(capsys, "eval", "--model", str(model), "--world", str(world))
    assert code == EXIT_DATA
    assert "object 1 ('o1') occurs in no image" in err
    assert out == ""


@pytest.mark.parametrize("weights, budget, floor", [
    ("1e308,1e308", "100", "15"),  # each weight times its log overflows
    ("1.5e308,1.5e308", "5.4366", "1.5"),  # each term is finite, their sum is not
])
def test_allocate_objective_overflow_exits_2(tmp_path, capsys, weights, budget, floor):
    # used to print a RuntimeWarning and "objective": Infinity, which is not JSON
    out = tmp_path / "alloc.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, stdout, err = run(capsys, "allocate", "--weights", weights, "--budget", budget,
                                "--floor", floor, "--out", str(out))
    assert code == EXIT_DATA
    assert stdout == ""
    assert err.startswith("error: the objective overflows float64") and err.count("\n") == 1
    assert "divide every weight by one factor" in err
    assert not out.exists()


def test_allocate_extreme_weight_ratio(tmp_path, capsys):
    # the ratio 1e-600 used to overflow the canonical rounding into NaN
    out = tmp_path / "alloc.csv"
    code, _, _ = run(capsys, "allocate", "--weights", "1e300,1e-300",
                     "--budget", "100", "--floor", "15", "--out", str(out))
    assert code == EXIT_OK
    assert out.read_text().splitlines()[1:] == ["0,1e+300,85.0", "1,1e-300,15.0"]


@pytest.mark.parametrize("rows", [
    "-1,0,5\n0,0,1\n1,1,3\n",  # used to train id -1 into the last user row
    "-1,0,5\n",  # used to die with an IndexError traceback
    "0,-1,5\n0,0,1\n1,1,3\n",
])
def test_fit_rejects_negative_ids(tmp_path, capsys, config_file, rows):
    records = tmp_path / "records.csv"
    records.write_text("user_id,object_id,level\n" + rows)
    world, _ = _tiny_world(tmp_path, capsys, config_file)
    code, _, err = run(capsys, "fit", "--records", str(records), "--world", str(world),
                       "--out", str(tmp_path / "model.json"))
    assert code == EXIT_DATA
    assert "line 2" in err and "negative" in err
    assert not (tmp_path / "model.json").exists()


@pytest.mark.parametrize("field", ["99999999999999999999", "-99999999999999999999"])
def test_fit_names_line_of_id_beyond_int64(tmp_path, capsys, config_file, field):
    records = tmp_path / "records.csv"
    records.write_text(f"user_id,object_id,level\n0,0,3\n\n1,{field},2\n")
    world, _ = _tiny_world(tmp_path, capsys, config_file)
    code, _, err = run(capsys, "fit", "--records", str(records), "--world", str(world),
                       "--out", str(tmp_path / "model.json"))
    assert code == EXIT_DATA
    assert "line 4: field outside the 64-bit integer range" in err
    assert not (tmp_path / "model.json").exists()


def test_fit_names_line_of_overlong_field(tmp_path, capsys, config_file):
    # a field beyond csv's field size limit died with an _csv.Error traceback
    records = tmp_path / "records.csv"
    records.write_text("user_id,object_id,level\n0,0,3\n\n1," + "1" * 131_073 + ",2\n")
    world, _ = _tiny_world(tmp_path, capsys, config_file)
    code, _, err = run(capsys, "fit", "--records", str(records), "--world", str(world),
                       "--out", str(tmp_path / "model.json"))
    assert code == EXIT_DATA
    assert "line 4: field larger than field limit (131072)" in err and "Traceback" not in err
    assert not (tmp_path / "model.json").exists()


def _break_image_3(doc, case):
    image = doc["images"][3]
    if case == "object id -1":
        image["composition"][0][0] = -1
    elif case == "object id past the catalog":
        image["composition"][0][0] = len(doc["catalog"])
    elif case == "duplicate image id":
        image["id"] = 2
    elif case == "negative group":
        image["group"] = -1
    elif case == "repeated object":
        image["composition"].append([image["composition"][0][0], 50])
    elif case == "pixel count 0":
        image["composition"][0][1] = 0
    elif case == "empty composition":
        image["composition"] = []
    elif case == "id out of order":
        doc["images"][3], doc["images"][4] = doc["images"][4], doc["images"][3]


@pytest.mark.parametrize("case", [
    "object id -1", "object id past the catalog", "duplicate image id", "negative group",
    "repeated object", "pixel count 0", "empty composition", "id out of order",
])
def test_sparsify_rejects_malformed_world(tmp_path, capsys, config_file, case):
    world = tmp_path / "world.json"
    assert run(capsys, "generate", "--config", config_file, "--out", str(world))[0] == EXIT_OK
    doc = json.loads(world.read_text())
    _break_image_3(doc, case)
    world.write_text(json.dumps(doc))
    records = tmp_path / "records.csv"
    code, _, err = run(capsys, "sparsify", "--world", str(world), "--out", str(records))
    assert code == EXIT_DATA
    assert "image 3" in err
    assert not records.exists()


def _sparsify_world_doc(tmp_path, capsys, config_file, edit):
    """Generate the small world, apply ``edit`` to its document, then run
    ``sparsify --world`` on it; returns (exit code, stderr, records path)."""
    world = tmp_path / "world.json"
    assert run(capsys, "generate", "--config", config_file, "--out", str(world))[0] == EXIT_OK
    doc = json.loads(world.read_text())
    edit(doc)
    world.write_text(json.dumps(doc))
    records = tmp_path / "records.csv"
    code, _, err = run(capsys, "sparsify", "--world", str(world), "--out", str(records))
    return code, err, records


@pytest.mark.parametrize("key", ["catalog", "images", "interest", "num_users", "seed",
                                 "gaze_noise"])
def test_sparsify_rejects_world_missing_key(tmp_path, capsys, config_file, key):
    # a missing key used to die with a KeyError traceback (exit 1)
    code, err, records = _sparsify_world_doc(tmp_path, capsys, config_file,
                                             lambda doc: doc.pop(key))
    assert code == EXIT_DATA
    assert f"world file has no '{key}'" in err
    assert not records.exists()


@pytest.mark.parametrize("key", ["id", "group", "composition"])
def test_sparsify_rejects_image_missing_key(tmp_path, capsys, config_file, key):
    code, err, records = _sparsify_world_doc(tmp_path, capsys, config_file,
                                             lambda doc: doc["images"][3].pop(key))
    assert code == EXIT_DATA
    assert f"image 3 has no '{key}'" in err
    assert not records.exists()


def _set_non_integer(doc, case):
    image = doc["images"][3]
    entry = image["composition"][0]
    if case == "fractional object id":
        entry[0] += 0.7  # used to load as the truncated id and exit 0
    elif case == "fractional pixel count":
        entry[1] += 0.5
    elif case == "bool object id":
        entry[0] = True
    elif case == "string pixel count":
        entry[1] = str(entry[1])
    elif case == "fractional group":
        image["group"] += 0.5
    elif case == "string image id":
        image["id"] = "3"


@pytest.mark.parametrize("case", [
    "fractional object id", "fractional pixel count", "bool object id", "string pixel count",
    "fractional group", "string image id",
])
def test_sparsify_rejects_non_integer_world_entries(tmp_path, capsys, config_file, case):
    code, err, records = _sparsify_world_doc(tmp_path, capsys, config_file,
                                             lambda doc: _set_non_integer(doc, case))
    assert code == EXIT_DATA
    assert "image 3" in err
    assert not records.exists()


def test_sparsify_rejects_group_gaps(tmp_path, capsys, config_file):
    # groups 0, 2, 4 used to load as five groups, two of them empty
    def regroup(doc):
        for image in doc["images"]:
            image["group"] *= 2

    code, err, records = _sparsify_world_doc(tmp_path, capsys, config_file, regroup)
    assert code == EXIT_DATA
    assert "group 1 has no images" in err
    assert not records.exists()


@pytest.mark.parametrize("gaze_noise", [0.0, 0.1])
@pytest.mark.parametrize("seed", [-1, 2.5, True])
def test_sparsify_rejects_bad_world_seed(tmp_path, capsys, config_file, seed, gaze_noise):
    code, err, records = _sparsify_world_doc(
        tmp_path, capsys, config_file, lambda doc: doc.update(seed=seed, gaze_noise=gaze_noise)
    )
    assert code == EXIT_DATA
    assert "seed must be a non-negative integer" in err
    assert not records.exists()


def test_sparsify_rejects_negative_seed_with_a_world(tmp_path, capsys, config_file):
    # with --world, --seed reaches sparsify alone; numpy's "expected
    # non-negative integer" did not name it
    world, records = tmp_path / "world.json", tmp_path / "records.csv"
    assert run(capsys, "generate", "--config", config_file, "--out", str(world))[0] == EXIT_OK
    code, _, err = run(capsys, "sparsify", "--config", config_file, "--world", str(world),
                       "--seed", "-1", "--out", str(records))
    assert code == EXIT_DATA
    assert "seed must be a non-negative integer, got -1" in err
    assert not records.exists()


@pytest.mark.parametrize("gaze_noise", [False, True])
def test_sparsify_rejects_bool_world_gaze_noise(tmp_path, capsys, config_file, gaze_noise):
    code, err, records = _sparsify_world_doc(
        tmp_path, capsys, config_file, lambda doc: doc.update(gaze_noise=gaze_noise)
    )
    assert code == EXIT_DATA
    assert f"gaze_noise must lie in [0, 1), got {gaze_noise}" in err
    assert not records.exists()


@pytest.mark.parametrize("layout", ["save_world", "json"])
@pytest.mark.parametrize("num_users", [True, 1.0])
def test_sparsify_rejects_non_int_world_num_users(tmp_path, capsys, num_users, layout):
    # each used to load a one-user world silently, on both world readers
    world, records = tmp_path / "world.json", tmp_path / "records.csv"
    _save_world(world, [[10, 20]], num_users=1)
    text = world.read_text().replace('"num_users": 1,', f'"num_users": {json.dumps(num_users)},')
    world.write_text(text if layout == "save_world" else json.dumps(json.loads(text)))
    code, _, err = run(capsys, "sparsify", "--world", str(world), "--out", str(records))
    assert code == EXIT_DATA
    assert f"interest matrix has shape (1, 2) for {num_users!r} users" in err
    assert not records.exists()


def test_sparsify_accepts_multi_word_world_seed(tmp_path, capsys, config_file):
    code, err, records = _sparsify_world_doc(
        tmp_path, capsys, config_file, lambda doc: doc.update(seed=2**40, gaze_noise=0.1)
    )
    assert code == EXIT_OK, err
    assert records.exists()


def test_calibrate_writes_envelope(tmp_path, capsys, config_file):
    from attnalloc import config as config_mod
    from attnalloc.experiment import run_all

    out = tmp_path / "envelope.json"
    code, stdout, _ = run(capsys, "calibrate", "--config", config_file, "--out", str(out))
    assert code == EXIT_OK
    assert f"wrote {out}" in stdout
    doc = json.loads(out.read_text())
    assert list(doc) == ["seeds", "mean_improvement_pct", "observed_range", "envelope"]
    assert doc["seeds"] == list(range(10))
    cfg = config_mod.load_config(config_file)
    means = [run_all(dataclasses.replace(cfg, master_seed=s))[1].mean_improvement_pct
             for s in range(10)]
    assert doc["mean_improvement_pct"] == {str(s): m for s, m in enumerate(means)}
    lo, hi = min(means), max(means)
    assert doc["observed_range"] == [lo, hi]
    assert doc["envelope"] == [round(lo - 1.5, 1), round(hi + 2.5, 1)]


@pytest.mark.parametrize("flag", ["--seed", "--seeds"])
def test_calibrate_has_no_seed_option(capsys, flag):
    assert run(capsys, "calibrate", flag, "3")[0] == EXIT_USAGE


def test_directory_paths_exit_2(tmp_path, capsys, config_file):
    folder = tmp_path / "folder"
    folder.mkdir()
    for argv in (
        ("sparsify", "--config", config_file, "--world", str(folder),
         "--out", str(tmp_path / "records.csv")),
        ("fit", "--records", str(folder), "--world", str(folder),
         "--out", str(tmp_path / "model.json")),
        ("generate", "--config", config_file, "--out", str(folder)),
    ):
        code, _, err = run(capsys, *argv)
        assert code == EXIT_DATA, argv
        assert str(folder) in err and "Traceback" not in err


def _eval_model_doc(tmp_path, capsys, edit):
    """Save a 2 x 2 model, apply ``edit`` to its document (which may return a
    replacement), then run ``eval --model`` on it against a 2 x 2 world;
    returns (exit code, stderr)."""
    from attnalloc import FactorModel
    from oracles import model_to_dict

    doc = model_to_dict(FactorModel(np.zeros((2, 1)), np.zeros((2, 1)), np.zeros(2),
                                    np.zeros(2), mu=3.0))
    doc = edit(doc) or doc
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc))
    world = tmp_path / "world.json"
    _save_world(world, [[10, 20]])
    code, _, err = run(capsys, "eval", "--model", str(model), "--world", str(world))
    return code, err


@pytest.mark.parametrize("key", ["user_factors", "object_factors", "user_bias",
                                 "object_bias", "mu", "num_users", "num_objects", "f"])
def test_eval_rejects_model_missing_key(tmp_path, capsys, key):
    # a missing key used to die with a KeyError traceback (exit 1)
    code, err = _eval_model_doc(tmp_path, capsys,
                                lambda doc: {k: v for k, v in doc.items() if k != key})
    assert code == EXIT_DATA
    assert f"model file has no '{key}'" in err


@pytest.mark.parametrize("edit, message", [
    # each used to die with a traceback: IndexError, IndexError, AttributeError
    (lambda doc: doc.update(user_bias=[0.0] * 5),
     "user_bias has shape (5,) for 2 rows of user_factors"),
    (lambda doc: doc.update(user_factors=[0.0, 0.0]), "user_factors must be a 2-D matrix"),
    (lambda doc: doc.update(object_factors=[0.0, 0.0]), "object_factors must be a 2-D matrix"),
    (lambda doc: [doc], "model file must hold a JSON object, not a list"),
    # "3" used to be converted silently, NaN to load and exit 0
    (lambda doc: doc.update(mu="3"), "'mu' must be a number, got '3'"),
    (lambda doc: doc.update(mu=True), "'mu' must be a number, got True"),
    (lambda doc: doc.update(mu=float("nan")), "mu must be finite, got nan"),
    (lambda doc: doc.update(mu=10**400), "'mu' must be a number"),  # was OverflowError
], ids=["5-entry user_bias", "1-D user_factors", "1-D object_factors", "JSON list",
        "string mu", "bool mu", "NaN mu", "mu beyond float64"])
def test_eval_rejects_malformed_model(tmp_path, capsys, edit, message):
    code, err = _eval_model_doc(tmp_path, capsys, edit)
    assert code == EXIT_DATA
    assert message in err


@pytest.mark.parametrize("edit, message", [
    # each used to load: true as 1.0, "0.25" as 0.25
    (lambda doc: doc["user_bias"].__setitem__(1, True), "'user_bias' row 1 is True, not a number"),
    (lambda doc: doc["object_bias"].__setitem__(0, "0.25"),
     "'object_bias' row 0 is '0.25', not a number"),
    (lambda doc: doc["user_factors"][1].__setitem__(0, True),
     "'user_factors' row 1 is not a list of numbers"),
    (lambda doc: doc["object_factors"][0].__setitem__(0, "0.25"),
     "'object_factors' row 0 is not a list of numbers"),
], ids=["bool bias", "string bias", "bool factor", "string factor"])
def test_eval_rejects_non_number_model_entries(tmp_path, capsys, edit, message):
    code, err = _eval_model_doc(tmp_path, capsys, edit)
    assert code == EXIT_DATA
    assert f"model file: {message}" in err


@pytest.mark.parametrize("key, value, actual", [
    # each used to be ignored: eval exited 0 with metrics of the 2 x 2 x 1 model
    ("num_users", 7, 2), ("num_objects", 2.0, 2), ("f", 99, 1), ("f", True, 1),
])
def test_eval_rejects_model_dimension_mismatch(tmp_path, capsys, key, value, actual):
    code, err = _eval_model_doc(tmp_path, capsys, lambda doc: doc.update({key: value}))
    assert code == EXIT_DATA
    assert f"model file: '{key}' is {value!r}, but the factors give {actual}" in err


@pytest.mark.parametrize("command", [
    ("allocate", "--weights", "4,1", "--budget", "40"),
    ("eval", "--model", "model.json", "--world", "world.json"),
], ids=["allocate", "eval"])
@pytest.mark.parametrize("option", [("--config", "/nonexistent.ini"), ("--seed", "3")],
                         ids=["config", "seed"])
def test_unread_options_are_usage_errors(tmp_path, capsys, command, option):
    # allocate and eval read no experiment config; both options used to be ignored
    out = tmp_path / "out"
    code, _, err = run(capsys, *command, *option, "--out", str(out))
    assert code == EXIT_USAGE
    assert f"unrecognized arguments: {' '.join(option)}" in err
    assert not out.exists()


# every option string of every subcommand, help aside; a new option should be
# a reviewed change to this table
CLI_OPTIONS = {
    "attnalloc": ["--print-config"],
    "generate": ["--out", "--config", "--seed"],
    "sparsify": ["--out", "--config", "--seed", "--world", "--user"],
    "fit": ["--out", "--config", "--seed", "--records", "--world"],
    "eval": ["--out", "--model", "--world", "--records"],
    "allocate": ["--out", "--weights", "--budget", "--floor"],
    "experiment": ["--out", "--config", "--seed"],
    "sweep": ["--out", "--config", "--seed", "--user"],
    "calibrate": ["--out", "--config"],
}


def test_cli_options_pinned():
    parser = _build_parser()

    def options(p):
        return [s for a in p._actions if not isinstance(a, argparse._HelpAction)
                for s in a.option_strings]

    (subcommands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    table = {"attnalloc": options(parser)}
    table.update((name, options(p)) for name, p in subcommands.choices.items())
    assert table == CLI_OPTIONS
    assert sum(map(len, table.values())) == 31


@pytest.mark.parametrize("value, message", [
    # null and NaN used to load and fail later as "attention value nan"
    (None, "interest row 2 is not a list of numbers"),
    ("0.5", "interest row 2 is not a list of numbers"),
    (float("nan"), "interest of user 2 in object 5 is nan"),
    (1.5, "interest of user 2 in object 5 is 1.5"),
    (10**400, "interest row 2 is not a list of numbers"),  # was OverflowError
], ids=["null", "string", "NaN", "above 1", "int beyond float64"])
def test_sparsify_rejects_bad_world_interest(tmp_path, capsys, config_file, value, message):
    def edit(doc):
        doc["interest"][2][5] = value

    code, err, records = _sparsify_world_doc(tmp_path, capsys, config_file, edit)
    assert code == EXIT_DATA
    assert message in err
    assert not records.exists()


@pytest.mark.parametrize("catalog, message", [
    (lambda n: [[i] for i in range(n)], "catalog label 0 is [0], not a string"),
    (lambda n: list(range(n)), "catalog label 0 is 0, not a string"),
    (lambda n: ["a"] + [f"o{i}" for i in range(1, n - 1)] + ["a"],
     "catalog label 'a' is not unique"),
], ids=["lists", "ints", "repeated"])
def test_sparsify_rejects_bad_catalog(tmp_path, capsys, config_file, catalog, message):
    # a catalog of lists used to die with "unhashable type" (exit 1), and one
    # of ints loaded silently
    code, err, records = _sparsify_world_doc(
        tmp_path, capsys, config_file,
        lambda doc: doc.update(catalog=catalog(len(doc["catalog"]))),
    )
    assert code == EXIT_DATA
    assert message in err
    assert not records.exists()


def test_utf8_world_read_under_c_locale(tmp_path, capsys, config_file):
    # files are read as UTF-8 whatever the locale; under a C locale a world
    # whose label is not ASCII failed with "'ascii' codec can't decode"
    world = tmp_path / "world.json"
    assert run(capsys, "generate", "--config", config_file, "--out", str(world))[0] == EXIT_OK
    doc = json.loads(world.read_text(encoding="utf-8"))
    doc["catalog"][0] = "chaise_\u00e9"
    world.write_bytes(json.dumps(doc, ensure_ascii=False).encode("utf-8"))
    expected = tmp_path / "expected.csv"
    assert run(capsys, "sparsify", "--world", str(world), "--out", str(expected))[0] == EXIT_OK
    src = str(Path(attnalloc.__file__).parents[1])
    env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    records = tmp_path / "records.csv"
    done = subprocess.run(
        [sys.executable, "-m", "attnalloc.cli", "sparsify", "--world", str(world),
         "--out", str(records)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == EXIT_OK, done.stderr
    assert records.read_bytes() == expected.read_bytes()


def test_eval_names_images_key_when_world_lists_none(tmp_path, capsys):
    model, world = tmp_path / "model.json", tmp_path / "world.json"
    _save_zero_model(model)
    _save_world(world, [[10, 20]])
    doc = json.loads(world.read_text())
    doc["images"] = []
    world.write_text(json.dumps(doc))
    code, out, err = run(capsys, "eval", "--model", str(model), "--world", str(world))
    assert code == EXIT_DATA and out == ""
    assert err == "error: world file: 'images' must list at least one image\n"


# fault: the exit code it gives
_RECORDS_FILE_FAULTS = {"missing path": EXIT_DATA, "directory": EXIT_DATA,
                        "invalid utf-8 byte": EXIT_DATA, "nul byte": EXIT_DATA,
                        "last row cut short": EXIT_DATA, "crlf": EXIT_OK}


def _faulty_records(records: Path, fault: str) -> Path:
    """A path with ``fault``, made from the good records file ``records``."""
    if fault == "missing path":
        return records.with_name("absent.csv")
    if fault == "directory":
        return records.parent
    data = records.read_bytes()
    records.write_bytes({
        "invalid utf-8 byte": data[:-3] + b"\xff\n",
        "nul byte": data[:-3] + b"\x00\n",
        "last row cut short": data[:-4],
        "crlf": data.replace(b"\n", b"\r\n"),
    }[fault])
    return records


@pytest.mark.parametrize("fault", _RECORDS_FILE_FAULTS)
@pytest.mark.parametrize("command", ["fit", "eval"])
def test_records_file_faults_exit_by_name(tmp_path, capsys, config_file, command, fault):
    world = tmp_path / "world.json"
    records, model = tmp_path / "records.csv", tmp_path / "model.json"
    assert run(capsys, "generate", "--config", config_file, "--out", str(world))[0] == EXIT_OK
    assert run(capsys, "sparsify", "--config", config_file, "--world", str(world),
               "--out", str(records))[0] == EXIT_OK
    assert run(capsys, "fit", "--config", config_file, "--records", str(records),
               "--world", str(world), "--out", str(model))[0] == EXIT_OK
    path = _faulty_records(records, fault)
    out = tmp_path / "out.json"
    argv = {"fit": ("fit", "--config", config_file, "--world", str(world)),
            "eval": ("eval", "--model", str(model), "--world", str(world))}[command]
    code, _, err = run(capsys, *argv, "--records", str(path), "--out", str(out))
    assert code == _RECORDS_FILE_FAULTS[fault], err
    assert "Traceback" not in err
    if code == EXIT_DATA:
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()
    else:
        assert err == "" and out.exists()


@pytest.fixture(scope="module")
def good_files(tmp_path_factory):
    """A config, world, records and model file, each made by the CLI."""
    folder = tmp_path_factory.mktemp("good")
    paths = {name: str(folder / name) for name in ("config", "world", "records", "model")}
    Path(paths["config"]).write_text(SMALL_CONFIG)
    for argv in (("generate", "--out", paths["world"]),
                 ("sparsify", "--world", paths["world"], "--out", paths["records"]),
                 ("fit", "--records", paths["records"], "--world", paths["world"],
                  "--out", paths["model"])):
        assert cli_main([*argv, "--config", paths["config"]]) == EXIT_OK
    return paths


# each file reader, with a command that reads it and the other files it needs
_READERS = {"config": ("generate",), "world": ("sparsify", "--config", "config"),
            "records": ("fit", "--config", "config", "--world", "world"),
            "model": ("eval", "--world", "world")}


def _reader_argv(reader, path, good_files, out):
    command, *rest = _READERS[reader]
    return [command, *(good_files.get(arg, arg) for arg in rest),
            f"--{reader}", str(path), "--out", str(out)]


@pytest.mark.parametrize("reader, fault", [
    *((reader, "invalid utf-8 byte") for reader in _READERS),
    *((reader, fault) for reader in ("world", "model") for fault in ("truncated", "deep nesting")),
    ("config", "no section header"), ("config", "unparsable line"),
    ("config", "duplicate section"), ("config", "duplicate key"), ("config", "unknown section"),
    ("records", "world file"), ("records", "level out of range"),
])
def test_read_faults_name_the_file(tmp_path, capsys, good_files, reader, fault):
    # a bad byte gave only the decoder's text, a JSON fault did not say which
    # file, and deep nesting ended in a RecursionError traceback (exit 1); a
    # config fault named no file (and configparser's took three lines), nor
    # did a records fault
    good = Path(good_files[reader]).read_bytes()
    lines = good.split(b"\n")
    lines[2] = b"\xff" + lines[2]
    data = {"invalid utf-8 byte": b"\n".join(lines), "deep nesting": b"[" * 100_000,
            "truncated": good[:40], "no section header": b"not an ini file\n",
            "unparsable line": b"[fit]\nepochs 3\n",
            "duplicate section": b"[fit]\nepochs = 3\n[fit]\n",
            "duplicate key": b"[fit]\nepochs = 3\nepochs = 4\n",
            "unknown section": good + b"\n[render]\nscale = 2\n",
            "world file": Path(good_files["world"]).read_bytes(),
            "level out of range": good.replace(b"\n", b"\n0,0,9\n", 1)}[fault]
    path, out = tmp_path / f"bad.{reader}", tmp_path / "out"
    path.write_bytes(data)
    code, stdout, err = run(capsys, *_reader_argv(reader, path, good_files, out))
    offset = len(lines[0]) + len(lines[1]) + 2
    expected = {"invalid utf-8 byte": "line 3 is not UTF-8 ('utf-8' codec can't decode byte "
                                      f"0xff in position {offset}: invalid start byte)",
                "deep nesting": "nested too deeply to parse",
                "truncated": "Expecting",
                "no section header":
                    "malformed config file: line 1: file contains no section headers\n",
                "unparsable line":
                    "malformed config file: line 2: expected [section] or key = value\n",
                "duplicate section": "malformed config file: line 3: duplicate section [fit]\n",
                "duplicate key":
                    "malformed config file: line 3: duplicate key 'epochs' in [fit]\n",
                "unknown section": "unknown section [render]\n",
                "world file": "line 1: expected header 'user_id,object_id,level', got ['{']\n",
                "level out of range": "line 2: level 9 out of range 1..5 in record (0, 0, 9)\n",
                }[fault]
    assert (code, stdout) == (EXIT_DATA, "")
    assert err.startswith(f"error: {path}: {expected}") and err.count("\n") == 1
    assert not list(tmp_path.glob("out*"))


# the input files each command reads, and the function that MemoryError is
# injected into
_COMMAND_FILES = {"generate": ("config",), "sparsify": ("config", "world"),
                  "fit": ("config", "records", "world"), "eval": ("model", "world", "records"),
                  "experiment": ("config",), "sweep": ("config",), "allocate": ()}
_OUT_OF_MEMORY = {"generate": ("world", "generate_world"), "sparsify": ("world", "sparsify"),
                  "fit": ("mf", "fit_mf"), "eval": ("mf", "evaluate"),
                  "experiment": ("experiment", "fit_mf"), "sweep": ("experiment", "fit_mf"),
                  "allocate": ("allocate", "allocate_weighted")}
# faults that exit 2 wherever they are, in any input file and in a config
# file only; a cut or a NUL byte may leave a file that still loads
_FILE_FAULTS_EXIT_2 = ("missing path", "directory", "invalid utf-8 byte", "deep nesting",
                       "wrong file")
_CONFIG_FAULTS_EXIT_2 = ("percent value", "DEFAULT section")
_WRONG_FILE = {"config": "model", "world": "records", "model": "records", "records": "world"}


# the [channel] and [experiment] floats that a drawn config sets
_CONFIG_FLOATS = (*(("channel", key) for key in ("bandwidth", "tx_power", "distance",
                                                 "path_loss_exponent", "interference_power",
                                                 "noise_psd", "uplink_sinr")),
                  *(("experiment", key) for key in ("floor_k", "budget_per_object_k",
                                                    "sweep_factors")))
# a positive float whose binary exponent is uniform over float64's range,
# subnormals included (a log-uniform magnitude), and one of either sign
_magnitude = st.builds(lambda mantissa, exponent: mantissa * 2.0 ** exponent,
                       st.floats(1, 2, exclude_max=True), st.integers(-1074, 1023))
_any_float = st.builds(lambda sign, magnitude: sign * magnitude, st.sampled_from([1.0, -1.0]),
                       _magnitude)


def _drawn_config(folder, overrides) -> str:
    """The path of SMALL_CONFIG with the drawn ``{(section, key): value}``
    floats set; ``sweep_factors`` gets the value and twice it."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(SMALL_CONFIG)
    for (section, key), value in overrides.items():
        if not parser.has_section(section):
            parser.add_section(section)
        values = (value, value * 2) if key == "sweep_factors" else (value,)
        parser[section][key] = ", ".join(map(repr, values))
    path = folder / "drawn.cfg"
    with open(path, "w") as fh:
        parser.write(fh)
    return str(path)


def _faulty_file(folder, good_files, name, fault, at):
    """The path of a ``name`` file with ``fault``, made from the good one;
    ``at`` places a cut or an inserted byte."""
    path = folder / f"faulty.{name}"
    data = Path(good_files[name]).read_bytes()
    at %= len(data) + 1
    if fault == "missing path":
        return folder / "absent"
    if fault == "directory":
        return folder
    if fault == "wrong file":
        return good_files[_WRONG_FILE[name]]
    path.write_bytes({
        "truncated": data[:at],
        "invalid utf-8 byte": data[:at] + b"\xff" + data[at:],
        "nul byte": data[:at] + b"\x00" + data[at:],
        "deep nesting": b"[" * 100_000,
        "percent value": b"[experiment]\nmaster_seed = 5%\n",
        "DEFAULT section": b"[DEFAULT]\nf = 3\n",
    }[fault])
    return path


@given(st.data())
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_cli_faults_exit_by_name(tmp_path_factory, capsys, good_files, data):
    # any command, on good files, with one faulty input file or out of memory
    # in its main step, or a config that sets [channel] and [experiment]
    # floats drawn over the whole float64 range: exit 0, 1 or 2, no
    # traceback, and exit 2 prints one "error:" line
    command = data.draw(st.sampled_from(sorted(_COMMAND_FILES)))
    files = _COMMAND_FILES[command]
    # half the runs of a command that reads a config draw its floats, and
    # have no other fault: every [channel] float as a positive magnitude,
    # so that most draws get past the sign checks to the link, and any
    # [experiment] float of either sign
    overrides = data.draw(st.fixed_dictionaries(
        {key: _magnitude for key in _CONFIG_FLOATS if key[0] == "channel"},
        optional={key: _any_float for key in _CONFIG_FLOATS if key[0] == "experiment"})) \
        if "config" in files and data.draw(st.booleans()) else {}
    target = data.draw(st.sampled_from(files)) if files and not overrides else None
    faults_exit_2 = _FILE_FAULTS_EXIT_2 + (_CONFIG_FAULTS_EXIT_2 if target == "config" else ())
    faults = ["truncated", "nul byte", *faults_exit_2]
    fault = data.draw(st.sampled_from([None, *faults])) if target else None
    out_of_memory = not overrides and data.draw(st.booleans())
    folder = tmp_path_factory.mktemp("cli")
    paths = dict(good_files)
    if overrides:
        paths["config"] = _drawn_config(folder, overrides)
    if fault:
        paths[target] = str(_faulty_file(folder, good_files, target, fault,
                                         data.draw(st.integers(0, 10**6))))
    argv = [command, "--out", str(folder / "out")]
    argv += [arg for name in files for arg in (f"--{name}", paths[name])]
    if command == "allocate":
        argv += ["--weights", "4,1,2", "--budget", "60"]
    with pytest.MonkeyPatch.context() as patch:
        if out_of_memory:
            def fail(*args, **kwargs):
                raise MemoryError()
            module, name = _OUT_OF_MEMORY[command]
            patch.setattr(f"attnalloc.{module}.{name}", fail)
        code = cli_main(argv)
    err = capsys.readouterr().err
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_DATA)
    assert "Traceback" not in err
    if code == EXIT_DATA:
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert err.startswith("error: ") and len(errors) == 1
    if fault in faults_exit_2 or out_of_memory:
        assert code == EXIT_DATA, err
    if fault in ("missing path", "directory", "invalid utf-8 byte"):
        assert str(paths[target]) in err
    if fault is None and not out_of_memory:
        # drawn floats may be rejected, by name, but never end in a traceback
        assert (code, err) == (EXIT_OK, "") or (code == EXIT_DATA and overrides)
