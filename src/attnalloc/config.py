"""Flat sectioned key-value configuration files for the experiment harness.

[experiment] holds ``ExperimentConfig``'s own fields; each of its fields
that holds a config dataclass is a section of the same name, [world], [fit],
[channel] and [link], field-for-field. [link] overrides the channel model;
it has no defaults, so it must set every field. Values are cast by the
fields' annotated types. Unknown sections or keys are errors, and a value
that a section's config rejects names the section.
"""

from __future__ import annotations

import configparser
import contextlib
import dataclasses
import io
import typing

import numpy as np

from .experiment import ExperimentConfig
from .qoe import ChannelError
from .schema import decode_text, field_types, naming, read_bytes


class ConfigFileError(ValueError):
    pass


_TYPES = field_types(ExperimentConfig)
# the fields that hold a config dataclass (``X`` or ``X | None``) are sections
_SECTIONS = {name: cls for name, kind in _TYPES.items()
             for cls in (kind, *typing.get_args(kind)) if dataclasses.is_dataclass(cls)}
_EXPERIMENT_TYPES = {name: kind for name, kind in _TYPES.items() if name not in _SECTIONS}

# "none" or an empty value leaves an optional float (e.g. uplink_sinr) unset
_PARSERS = {
    int: int,
    float: float,
    float | None: lambda text: None if text.lower() in ("", "none") else float(text),
    tuple[float, ...]: lambda text: tuple(map(float, text.replace(",", " ").split())),
}


def _cast(kind, name, text):
    text = text.strip()
    try:
        return _PARSERS[kind](text)
    except ValueError:
        raise ConfigFileError(f"cannot parse {name} = {text!r}") from None


def _section_values(parser, section, types) -> dict:
    """The section's keys, each cast by its type in ``types``."""
    values = {}
    for key, text in parser.items(section):
        if key not in types:
            raise ConfigFileError(f"unknown key {key!r} in [{section}]")
        values[key] = _cast(types[key], key, text)
    return values


@contextlib.contextmanager
def _naming(section, link_section="channel"):
    """Raise a config's ValueError as a ConfigFileError naming ``section``, or
    a ChannelError naming ``link_section``, the section that sets the link
    ``ExperimentConfig`` checks ([channel] or [link])."""
    try:
        yield
    except ChannelError as exc:
        raise ConfigFileError(f"invalid [{link_section}] section: {exc}") from None
    except ValueError as exc:
        raise ConfigFileError(f"invalid [{section}] section: {exc}") from None


def _parser() -> configparser.ConfigParser:
    # no %-interpolation; no header can name "", so [DEFAULT] is an unknown section
    return configparser.ConfigParser(interpolation=None, default_section="")


def _one_line(exc: configparser.Error) -> str:
    """configparser's fault, which may span three lines, as one line that
    names the line of the file."""
    if isinstance(exc, configparser.MissingSectionHeaderError):
        return f"line {exc.lineno}: file contains no section headers"
    if isinstance(exc, configparser.ParsingError):
        return f"line {exc.errors[0][0]}: expected [section] or key = value"
    if isinstance(exc, configparser.DuplicateOptionError):
        return f"line {exc.lineno}: duplicate key {exc.option!r} in [{exc.section}]"
    if isinstance(exc, configparser.DuplicateSectionError):
        return f"line {exc.lineno}: duplicate section [{exc.section}]"
    return str(exc)


def parse_config(text: str) -> ExperimentConfig:
    parser = _parser()
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigFileError(f"malformed config file: {_one_line(exc)}") from None

    for section in parser.sections():
        if section != "experiment" and section not in _SECTIONS:
            raise ConfigFileError(f"unknown section [{section}]")

    defaults = ExperimentConfig()
    updates = {}
    for name, cls in _SECTIONS.items():
        if not parser.has_section(name):
            continue
        types = field_types(cls)
        values = _section_values(parser, name, types)
        current = getattr(defaults, name)
        missing = [key for key in types if key not in values]
        if current is None and missing:
            raise ConfigFileError(f"[{name}] must set {' and '.join(missing)}")
        with _naming(name):
            updates[name] = (cls(**values) if current is None
                             else dataclasses.replace(current, **values))
    if parser.has_section("experiment"):
        updates.update(_section_values(parser, "experiment", _EXPERIMENT_TYPES))
    with _naming("experiment", "link" if "link" in updates else "channel"):
        return dataclasses.replace(defaults, **updates)


def load_config(path) -> ExperimentConfig:
    """The config in the file at ``path``; every fault names the file (``naming``)."""
    with naming(path):
        return parse_config(decode_text(read_bytes(path)))


def _format(value) -> str:
    """A field's value as ``parse_config`` reads it back; a numpy scalar is
    written as the Python number it holds."""
    if isinstance(value, tuple):
        return ", ".join(repr(float(f)) for f in value)
    if isinstance(value, np.generic):
        value = value.item()
    return "" if value is None else repr(value)


def dump_config(config: ExperimentConfig) -> str:
    parser = _parser()
    parser["experiment"] = {key: _format(getattr(config, key)) for key in _EXPERIMENT_TYPES}
    for name, cls in _SECTIONS.items():
        section = getattr(config, name)
        if section is not None:
            parser[name] = {key: _format(getattr(section, key)) for key in field_types(cls)}
    out = io.StringIO()
    parser.write(out)
    return out.getvalue()
