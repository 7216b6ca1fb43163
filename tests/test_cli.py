"""Command-line interface: subcommands, outputs, and exit codes."""

import argparse
import configparser
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import attnalloc
from attnalloc.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, _build_parser, cli_main
from conftest import SMALL_CONFIG
from oracles import record_pairs, world_from_pixels
from test_faults import FILES, former_tests

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


def test_fit_missing_records(capsys, good_files):
    assert run(capsys, "fit", "--records", "nope.csv", "--world", good_files["world"])[0] \
        == EXIT_DATA


def _write_tiny_records(path):
    path.write_text("user_id,object_id,level\n0,0,5\n0,1,1\n1,0,2\n")


def test_fit_divergence_exits_2(tmp_path, capsys, good_files):
    records = tmp_path / "records.csv"
    _write_tiny_records(records)
    world = good_files["world"]
    cfg = tmp_path / "huge.cfg"
    cfg.write_text("[fit]\ninit_scale = 1e308\n")
    code, _, err = run(capsys, "fit", "--config", str(cfg), "--records", str(records),
                       "--world", str(world), "--out", str(tmp_path / "model.json"))
    assert code == EXIT_DATA
    assert "not finite in sweep 1 of 15: regularization 0.1 is too small or " \
        "init_scale 1e+308 too large" in err
    assert not (tmp_path / "model.json").exists()


def test_fit_world_sets_model_dimensions(tmp_path, capsys, good_files):
    # the world's users x objects, not the 2 x 2 of the records' largest ids
    records = tmp_path / "records.csv"
    records.write_text("user_id,object_id,level\n0,0,3\n1,1,2\n")
    world = good_files["world"]
    doc = json.loads(Path(world).read_text())
    model = tmp_path / "model.json"
    code, _, err = run(capsys, "fit", "--records", str(records), "--world", str(world),
                       "--out", str(model))
    assert code == EXIT_OK, err
    fitted = json.loads(model.read_text())
    assert (fitted["num_users"], fitted["num_objects"]) == (len(doc["interest"]),
                                                            len(doc["catalog"]))
    assert fitted["num_users"] > 2 and fitted["num_objects"] > 2


def test_fit_world_rejects_records_outside_it(tmp_path, capsys, good_files):
    world = good_files["world"]
    doc = json.loads(Path(world).read_text())
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


def test_allocate_extreme_weight_ratio(tmp_path, capsys):
    # the ratio 1e-600 used to overflow the canonical rounding into NaN
    out = tmp_path / "alloc.csv"
    code, _, _ = run(capsys, "allocate", "--weights", "1e300,1e-300",
                     "--budget", "100", "--floor", "15", "--out", str(out))
    assert code == EXIT_OK
    assert out.read_text().splitlines()[1:] == ["0,1e+300,85.0", "1,1e-300,15.0"]


def test_sparsify_accepts_multi_word_world_seed(tmp_path, capsys, good_files):
    doc = json.loads(Path(good_files["world"]).read_text())
    doc.update(seed=2**40, gaze_noise=0.1)
    world, records = tmp_path / "world.json", tmp_path / "records.csv"
    world.write_text(json.dumps(doc))
    code, _, err = run(capsys, "sparsify", "--world", str(world), "--out", str(records))
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


def test_utf8_world_read_under_c_locale(tmp_path, capsys, good_files):
    # files are read as UTF-8 whatever the locale; under a C locale a world
    # whose label is not ASCII failed with "'ascii' codec can't decode"
    world = tmp_path / "world.json"
    doc = json.loads(Path(good_files["world"]).read_text(encoding="utf-8"))
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
def test_records_file_faults_exit_by_name(tmp_path, capsys, good_files, command, fault):
    records = tmp_path / "records.csv"
    records.write_bytes(Path(good_files["records"]).read_bytes())
    path = _faulty_records(records, fault)
    out = tmp_path / "out.json"
    argv = {"fit": ("fit", "--config", good_files["config"], "--world", good_files["world"]),
            "eval": ("eval", "--model", good_files["model"], "--world", good_files["world"])
            }[command]
    code, _, err = run(capsys, *argv, "--records", str(path), "--out", str(out))
    assert code == _RECORDS_FILE_FAULTS[fault], err
    assert "Traceback" not in err
    if code == EXIT_DATA:
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()
    else:
        assert err == "" and out.exists()


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
    # traceback, and exit 2 prints one "error:" line; a faulty file that its
    # loader rejects exits 2 naming its path
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
    if fault:
        try:
            FILES[target][0].load(paths[target])
        except (OSError, ValueError):
            assert code == EXIT_DATA and str(paths[target]) in err, err
    if fault is None and not out_of_memory:
        # drawn floats may be rejected, by name, but never end in a traceback
        assert (code, err) == (EXIT_OK, "") or (code == EXIT_DATA and overrides)


# the former fault tests of this module, which run rows of the catalogue
globals().update(former_tests("test_cli"))
