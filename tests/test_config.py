"""Config dataclasses' field checks, and sectioned key-value config files:
parsing, validation, and dump round-trip."""

import dataclasses
import math
import typing

import numpy as np
import pytest

from attnalloc.config import dump_config, load_config, parse_config
from attnalloc.experiment import ExperimentConfig
from attnalloc.mf import FitConfig, FitError
from attnalloc.qoe import ChannelConfig, LinkParams
from attnalloc.world import ConfigurationError, WorldConfig
from test_faults import former_tests

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


def _step(value, kind, direction):
    """The next value of ``kind`` after ``value`` towards ``direction``."""
    return value + direction if kind is int else math.nextafter(value, direction * INF)


@pytest.mark.parametrize("base, name, interval", [
    pytest.param(base, field.name, text, id=f"{type(base).__name__}.{field.name}")
    for base in BASES for field in dataclasses.fields(base)
    for text in getattr(typing.get_type_hints(type(base), include_extras=True)[field.name],
                        "__metadata__", ())])
def test_config_field_checks_its_declared_interval(base, name, interval):
    # a value just outside a bound fails with the one message form; a value
    # on a closed bound, or just inside an open one, passes the range rule
    kind = int if typing.get_type_hints(type(base))[name] is int else float
    low, high = interval[1:-1].split(", ")
    what = (f"lie in {interval}" if high != "inf" else f"be >= {low}" if interval[0] == "["
            else "be positive" if low == "0" else f"be > {low}")
    bounds = [(kind(low), -1, interval[0] == "[")]
    if high != "inf":
        bounds.append((kind(high), 1, interval[-1] == "]"))
    for bound, outward, closed in bounds:
        outside, inside = (_step(bound, kind, outward), bound) if closed \
            else (bound, _step(bound, kind, -outward))
        with pytest.raises(ERRORS.get(type(base), ValueError)) as raised:
            dataclasses.replace(base, **{name: outside})
        assert (type(raised.value), str(raised.value)) == (
            ERRORS.get(type(base), ValueError), f"{name} must {what}, got {outside!r}")
        try:  # a rule across fields may still reject it
            dataclasses.replace(base, **{name: inside})
        except ValueError as err:
            assert not str(err).startswith(f"{name} must"), err


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


def test_sweep_factors_list():
    config = parse_config("[experiment]\nsweep_factors = 16, 20 24\n")
    assert config.sweep_factors == (16.0, 20.0, 24.0)


def test_link_section():
    # a partial section, which named nothing (uplink_ber defaulted to 0), is a
    # row of the catalogue
    config = parse_config("[link]\ndownlink_rate = 5.5\nuplink_ber = 0.125\n")
    assert config.link.downlink_rate == 5.5
    assert config.link.uplink_ber == 0.125


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


# the former fault tests of this module, which run rows of the catalogue
globals().update(former_tests("test_config"))
