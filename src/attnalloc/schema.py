"""The rules of the package's files and values: UTF-8 text, the indent-1
JSON layout and exact-type JSON numbers, the integer rule of every id, and
config fields checked by their annotations. Every file goes through
``read_text`` (which names it on a fault) or ``write_text``."""

from __future__ import annotations

import functools
import json
import typing
from dataclasses import fields
from itertools import chain

import numpy as np

MAX_FLOAT = float(np.finfo(np.float64).max)


def require(mapping, key: str, where: str, kind=object):
    """``mapping[key]``, or a ValueError naming ``where`` and the key when it
    is missing or not a ``kind``."""
    if not isinstance(mapping, dict) or key not in mapping:
        raise ValueError(f"{where} has no {key!r}")
    if not isinstance(mapping[key], kind):
        raise ValueError(f"{where}: {key!r} must be a {kind.__name__}")
    return mapping[key]


def is_number(value) -> bool:
    """Whether a loaded JSON value is a number that a float64 holds: any
    ``float`` (the callers reject NaN and infinities by name) or an ``int``
    within range; a bool is neither."""
    return type(value) is float or (type(value) is int and -MAX_FLOAT <= value <= MAX_FLOAT)


def all_numbers(values: list) -> bool:
    """Whether every entry of ``values`` is a number by ``is_number``,
    checked by type in bulk."""
    types = set(map(type, values))
    return types <= {float} or (types <= {float, int} and all(map(is_number, values)))


def first_non_number_row(rows: list):
    """The position of the first entry of ``rows`` that is not a list of
    numbers (by ``is_number``), or None when all are."""
    if set(map(type, rows)) <= {list} and all_numbers(list(chain.from_iterable(rows))):
        return None
    return next(i for i, row in enumerate(rows)
                if type(row) is not list or not all(map(is_number, row)))


def integer_type(kind: type) -> bool:
    """Whether values of the type ``kind`` are integers: Python's or numpy's,
    never a bool. It takes a type, so a bulk check calls it once per type in
    ``set(map(type, values))``."""
    return issubclass(kind, (int, np.integer)) and kind is not bool


def integer_ids(ids, what: str, error=ValueError) -> np.ndarray:
    """``ids`` as an ``intp`` array. An array of an integer dtype passes on
    its dtype; anything else is read entry by entry, and the first entry that
    is not an integer (by ``integer_type``; a float or bool is never cast)
    raises ``error`` naming it as a ``what``."""
    if isinstance(ids, np.ndarray) and ids.dtype.kind in "iu":
        return ids.astype(np.intp, copy=False)
    ids = ids.tolist() if isinstance(ids, np.ndarray) else list(ids)
    if not all(map(integer_type, set(map(type, ids)))):
        bad = next(entry for entry in ids if not integer_type(type(entry)))
        raise error(f"{what} {bad!r} is not an integer")
    return np.array(ids, dtype=np.intp)


@functools.cache
def field_rule(kind):
    """``(accepts, what)`` for values of the resolved annotation ``kind``:
    an ``int`` takes an integer (by ``integer_type``) and a ``float`` a finite
    real (an integer too), neither a bool; ``tuple[float, ...]`` takes a tuple of
    such reals, ``X | None`` None too and a class its instances."""
    if kind is int:
        return (lambda v: integer_type(type(v))), "an integer"
    if kind is float:  # the bounds exclude NaN and infinities; a numpy scalar is compared
        # as the Python number it holds, since a float32 overflows casting them
        return (lambda v: isinstance(v, (int, float, np.integer, np.floating))
                and not isinstance(v, bool)
                and -MAX_FLOAT <= (v.item() if isinstance(v, np.generic) else v) <= MAX_FLOAT
                ), "finite"
    args = typing.get_args(kind)
    if typing.get_origin(kind) is tuple:
        item, what = field_rule(args[0])
        return (lambda v: isinstance(v, tuple) and all(map(item, v))), f"{what} numbers in a tuple"
    if type(None) in args:
        inner, what = field_rule(next(a for a in args if a is not type(None)))
        return (lambda v: v is None or inner(v)), f"{what} or None"
    return (lambda v: isinstance(v, kind)), f"a {kind.__name__}"


@functools.cache
def field_types(cls) -> dict:
    """Each field of the dataclass ``cls`` by name, to its resolved annotation."""
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in fields(cls)}


def check_fields(config, error=ValueError) -> None:
    """Raise ``error`` naming the first field of the dataclass ``config``
    that its annotated type does not take (see ``field_rule``), before a
    range rule or a derived quantity fails on it."""
    for name, kind in field_types(type(config)).items():
        accepts, what = field_rule(kind)
        value = getattr(config, name)
        if not accepts(value):
            raise error(f"{name} must be {what}, got {value!r}")


def json_text(doc: dict, members: str = "") -> str:
    """The package's JSON text of the non-empty object ``doc``: indent 1 and a final
    newline, with ``members`` (more members' text, led by a comma) before the closing
    brace. NaN and the infinities, which JSON has no number for, raise a ValueError."""
    return json.dumps(doc, indent=1, allow_nan=False)[:-2] + members + "\n}\n"


def write_json(doc: dict, path) -> None:
    """Write ``json_text(doc)`` to the file at ``path``."""
    write_text(json_text(doc), path)


def write_text(text: str, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


@functools.lru_cache(maxsize=16)
def json_layout(shape: tuple, depth: int, entry: str = "%r") -> str:
    """``json.dumps(indent=1)``'s text for a nested list of the given shape
    whose brackets open at nesting ``depth`` (1 for a value of the top-level
    object), with the ``%``-conversion ``entry`` in place of each number:
    ``%d`` for an ``int``, and ``%r``, which is ``float.__repr__`` and so
    json's own encoding, for a finite ``float``."""
    if not shape:
        return entry
    if not shape[0]:
        return "[]"
    pad = "\n" + " " * (depth + 1)
    item = json_layout(shape[1:], depth + 1, entry)
    return "[" + pad + ("," + pad).join([item] * shape[0]) + "\n" + " " * depth + "]"


def read_text(path, newline=None) -> str:
    """The text of the UTF-8 file at ``path``, line ends as ``open`` reads them
    with ``newline`` None or ""; a ValueError names the file and line of a bad byte."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as err:
        line = data.count(b"\n", 0, err.start) + 1
        raise ValueError(f"{path}: line {line} is not UTF-8 ({err})") from None
    if newline is None and "\r" in text:  # a two-character replace scans slowly
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def parse_json(text: str, path):
    """The JSON document ``text``, read from the file at ``path``; a syntax
    fault or too deep a nesting names the file."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as err:
        raise ValueError(f"{path}: {err}") from None
    except RecursionError:
        raise ValueError(f"{path}: nested too deeply to parse") from None
