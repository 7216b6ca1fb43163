"""Config dataclasses' field checks, and sectioned key-value config files:
parsing, validation, and dump round-trip."""

import dataclasses
import re
import typing

import numpy as np
import pytest

from attnalloc.config import ConfigFileError, dump_config, load_config, parse_config
from attnalloc.experiment import ExperimentConfig
from attnalloc.mf import FitConfig, FitError
from attnalloc.qoe import ChannelConfig, LinkParams
from attnalloc.world import ConfigurationError, WorldConfig

# a valid instance of each config, with every optional field set
BASES = (WorldConfig(), FitConfig(), ChannelConfig(uplink_sinr=2.0), LinkParams(8.0, 0.0),
         ExperimentConfig())
ERRORS = {WorldConfig: ConfigurationError, FitConfig: FitError}
NAN, INF = float("nan"), float("inf")
# values that a field of each annotated type rejects; any other type is a
# config class, which rejects a string
REJECTED = {
    int: (2.5, 2.0, True, "2", None),
    float: (NAN, INF, True, "x"),
    float | None: (NAN, INF, True, "x"),
    tuple[float, ...]: ("abc", (16.0, NAN), (True,), [16.0]),
}


@pytest.mark.parametrize("base, name", [
    pytest.param(base, field.name, id=f"{type(base).__name__}.{field.name}")
    for base in BASES for field in dataclasses.fields(base)])
def test_config_field_checks_its_type(base, name):
    kind, valid = typing.get_type_hints(type(base))[name], getattr(base, name)
    for value in REJECTED.get(kind, ("x",)):
        with pytest.raises(ERRORS.get(type(base), ValueError), match=f"^{name} must be"):
            dataclasses.replace(base, **{name: value})
    # numpy scalars pass, and so does an int in a float field
    if kind is int:
        accepted = [np.int64(valid)]
    elif kind in (float, float | None):
        accepted = [np.float64(valid)] + ([int(valid)] if float(valid).is_integer() else [])
    else:
        accepted = []
    for value in accepted:
        assert dataclasses.replace(base, **{name: value}) == base


def test_empty_config_is_defaults():
    assert parse_config("") == ExperimentConfig()


def test_world_and_fit_overrides():
    config = parse_config(
        "[world]\nnum_users = 12\ninterest_noise = 0.2\n"
        "[fit]\nepochs = 17\n"
        "[experiment]\nmaster_seed = 3\nsweep_user = 9\n"
    )
    assert config.world.num_users == 12
    assert config.world.interest_noise == 0.2
    assert config.fit.epochs == 17
    assert config.master_seed == 3
    assert config.sweep_user == 9
    # the ALS fit reads no learning rate
    with pytest.raises(ConfigFileError, match="unknown key 'learning_rate' in \\[fit\\]"):
        parse_config("[fit]\nlearning_rate = 0.01\n")


def test_sweep_factors_list():
    config = parse_config("[experiment]\nsweep_factors = 16, 20 24\n")
    assert config.sweep_factors == (16.0, 20.0, 24.0)
    with pytest.raises(ConfigFileError):
        parse_config("[experiment]\nsweep_factors = sixteen\n")
    with pytest.raises(ConfigFileError):
        parse_config("[experiment]\nsweep_factors =\n")


@pytest.mark.parametrize("text, shown", [("20, 16", "(20.0, 16.0)"), ("16, 16", "(16.0, 16.0)")])
def test_sweep_factors_out_of_order_named(text, shown):
    # used to parse, failing only when a sweep had run every report
    message = ("invalid [experiment] section: sweep_factors must be strictly increasing, "
               f"got {shown}")
    with pytest.raises(ConfigFileError, match=f"^{re.escape(message)}$"):
        parse_config(f"[experiment]\nsweep_factors = {text}\n")


def test_link_section():
    config = parse_config("[link]\ndownlink_rate = 5.5\nuplink_ber = 0.125\n")
    assert config.link.downlink_rate == 5.5
    assert config.link.uplink_ber == 0.125
    with pytest.raises(ConfigFileError):
        parse_config("[link]\nrate = 1\n")
    with pytest.raises(ConfigFileError, match="downlink_rate must be positive"):
        parse_config("[link]\ndownlink_rate = -2\nuplink_ber = 0\n")
    # a partial section names what it lacks; uplink_ber used to default to 0
    with pytest.raises(ConfigFileError, match=r"\[link\] must set uplink_ber$"):
        parse_config("[link]\ndownlink_rate = 5.5\n")
    with pytest.raises(ConfigFileError, match=r"\[link\] must set downlink_rate$"):
        parse_config("[link]\nuplink_ber = 0.125\n")
    with pytest.raises(ConfigFileError, match="must set downlink_rate and uplink_ber"):
        parse_config("[link]\n")


def test_unknown_sections_and_keys_rejected():
    with pytest.raises(ConfigFileError, match="section"):
        parse_config("[nonsense]\nx = 1\n")
    with pytest.raises(ConfigFileError, match="unknown key"):
        parse_config("[world]\nnum_planets = 3\n")
    with pytest.raises(ConfigFileError, match="unknown key"):
        parse_config("[experiment]\nbudget = 7\n")


@pytest.mark.parametrize("text", ["[DEFAULT]\nf = 3\n", "[DEFAULT]\n",
                                  "[fit]\nf = 3\n[DEFAULT]\nepochs = 2\n"],
                         ids=["alone", "empty", "after-fit"])
def test_default_section_is_unknown(text):
    # [DEFAULT] was ignored, or its keys leaked into every section
    with pytest.raises(ConfigFileError, match=r"^unknown section \[DEFAULT\]$"):
        parse_config(text)


@pytest.mark.parametrize("line, shown", [("[experiment]\nmaster_seed = 5%", "master_seed = '5%'"),
                                         ("[fit]\nf = %(x)s", "f = '%(x)s'")],
                         ids=["bare-percent", "named-reference"])
def test_percent_is_not_interpolated(line, shown):
    # %-interpolation raised configparser's own errors, uncaught
    with pytest.raises(ConfigFileError, match=f"^cannot parse {re.escape(shown)}$"):
        parse_config(line + "\n")


def test_bad_values_rejected():
    with pytest.raises(ConfigFileError):
        parse_config("[world]\nnum_users = many\n")
    with pytest.raises(ConfigFileError,
                       match="^malformed config file: line 1: file contains no section headers$"):
        parse_config("not an ini file")
    with pytest.raises(ConfigFileError, match=r"invalid \[experiment\] section: budget_per"):
        parse_config("[experiment]\nfloor_k = 15\nbudget_per_object_k = 5\n")
    # each used to parse, failing only when a command generated the world or
    # fitted the model, or to fail naming no section
    with pytest.raises(ConfigFileError, match=r"invalid \[world\] section: num_users must be >= 1"):
        parse_config("[world]\nnum_users = 0\n")
    with pytest.raises(ConfigFileError, match=r"invalid \[fit\] section: epochs must be >= 1"):
        parse_config("[fit]\nepochs = 0\n")
    with pytest.raises(ConfigFileError, match=r"invalid \[channel\] section: antenna counts"):
        parse_config("[channel]\ntx_antennas = 0\n")


def test_optional_uplink_sinr():
    config = parse_config("[channel]\nuplink_sinr = 2.5\n")
    assert config.channel.uplink_sinr == 2.5
    config = parse_config("[channel]\nuplink_sinr = none\n")
    assert config.channel.uplink_sinr is None


def test_dump_parse_roundtrip():
    original = ExperimentConfig()
    assert parse_config(dump_config(original)) == original


def test_dump_parse_roundtrip_with_link():
    original = ExperimentConfig(link=LinkParams(downlink_rate=5.5, uplink_ber=0.125))
    text = dump_config(original)
    assert "[link]\ndownlink_rate = 5.5\nuplink_ber = 0.125\n" in text
    assert parse_config(text) == original


def test_dump_parse_roundtrip_with_numpy_scalars():
    # np.int64(3) used to dump as "master_seed = np.int64(3)", which
    # parse_config rejected
    original = dataclasses.replace(
        ExperimentConfig(), master_seed=np.int64(3), floor_k=np.float64(2.5),
        budget_per_object_k=np.float32(20.5), sweep_user=np.int32(4),
        sweep_factors=(np.float64(16.0), 18),
        world=dataclasses.replace(WorldConfig(), num_users=np.int64(12),
                                  gaze_noise=np.float64(0.1)),
        fit=dataclasses.replace(FitConfig(), regularization=np.float64(0.2), epochs=np.uint8(9)),
        channel=dataclasses.replace(ChannelConfig(), tx_antennas=np.int16(4)),
        link=LinkParams(downlink_rate=np.float64(5.5), uplink_ber=np.float32(0.125)),
    )
    text = dump_config(original)
    assert "np." not in text
    assert "master_seed = 3\n" in text and "budget_per_object_k = 20.5\n" in text
    assert "num_users = 12\n" in text and "epochs = 9\n" in text
    assert parse_config(text) == original


def test_load_config_file(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("[experiment]\nmaster_seed = 99\n")
    assert load_config(path).master_seed == 99
