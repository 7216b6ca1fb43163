"""Flat sectioned key-value configuration files for the experiment harness.

Sections [experiment], [world], [fit], [channel] mirror the corresponding
dataclasses field-for-field; an optional [link] section, which must set every
``LinkParams`` field, overrides the channel model. Unknown sections or keys
are errors.
"""

from __future__ import annotations

import configparser
import dataclasses
import io

from .experiment import ExperimentConfig
from .qoe import LinkParams


class ConfigFileError(ValueError):
    pass


# ExperimentConfig fields that are whole sections; [link] overrides the channel
_SECTIONS = ("world", "fit", "channel")

_EXPERIMENT_KEYS = tuple(
    f.name for f in dataclasses.fields(ExperimentConfig)
    if f.name not in _SECTIONS and f.name != "link"
)


def _cast_like(template, name, text):
    current = getattr(template, name)
    text = text.strip()
    try:
        if isinstance(current, int):
            return int(text)
        if isinstance(current, float):
            return float(text)
        if current is None:  # optional floats (e.g. uplink_sinr)
            return None if text.lower() in ("", "none") else float(text)
    except ValueError:
        raise ConfigFileError(f"cannot parse {name} = {text!r}") from None
    raise ConfigFileError(f"unsupported config field {name}")


def _section_values(parser, section, template) -> dict:
    """The section's keys, each cast like the same field of ``template``."""
    known = {f.name for f in dataclasses.fields(template)}
    values = {}
    for key, value in parser.items(section):
        if key not in known:
            raise ConfigFileError(f"unknown key {key!r} in [{section}]")
        values[key] = _cast_like(template, key, value)
    return values


def _parse_sweep_factors(text):
    try:
        factors = tuple(float(tok) for tok in text.replace(",", " ").split())
    except ValueError:
        raise ConfigFileError(f"cannot parse sweep_factors = {text!r}") from None
    if not factors:
        raise ConfigFileError("sweep_factors must list at least one budget factor")
    return factors


def parse_config(text: str) -> ExperimentConfig:
    parser = configparser.ConfigParser()
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigFileError(f"malformed config file: {exc}") from None

    allowed = {"experiment", *_SECTIONS, "link"}
    for section in parser.sections():
        if section not in allowed:
            raise ConfigFileError(f"unknown section [{section}]")

    defaults = ExperimentConfig()
    sections = {}
    for name in _SECTIONS:
        template = getattr(defaults, name)
        values = _section_values(parser, name, template) if parser.has_section(name) else {}
        sections[name] = dataclasses.replace(template, **values)

    link = None
    if parser.has_section("link"):
        # LinkParams has no defaults; the default channel's link types the keys
        values = _section_values(parser, "link", defaults.link_params())
        missing = [f.name for f in dataclasses.fields(LinkParams) if f.name not in values]
        if missing:
            raise ConfigFileError(f"[link] must set {' and '.join(missing)}")
        try:
            link = LinkParams(**values)
        except ValueError as exc:
            raise ConfigFileError(f"invalid [link] section: {exc}") from None

    updates = {}
    if parser.has_section("experiment"):
        for key, value in parser.items("experiment"):
            if key not in _EXPERIMENT_KEYS:
                raise ConfigFileError(f"unknown key {key!r} in [experiment]")
            if key == "sweep_factors":
                updates[key] = _parse_sweep_factors(value)
            else:
                updates[key] = _cast_like(defaults, key, value)

    config = dataclasses.replace(defaults, link=link, **sections, **updates)
    config.validate()
    return config


def load_config(path) -> ExperimentConfig:
    with open(path, encoding="utf-8") as fh:
        return parse_config(fh.read())


def dump_config(config: ExperimentConfig) -> str:
    parser = configparser.ConfigParser()
    parser["experiment"] = {
        key: ", ".join(repr(float(f)) for f in config.sweep_factors)
        if key == "sweep_factors" else repr(getattr(config, key))
        for key in _EXPERIMENT_KEYS
    }
    for section in (*_SECTIONS, "link"):
        obj = getattr(config, section)
        if obj is not None:
            parser[section] = {
                f.name: "" if getattr(obj, f.name) is None else repr(getattr(obj, f.name))
                for f in dataclasses.fields(obj)
            }
    out = io.StringIO()
    parser.write(out)
    return out.getvalue()
