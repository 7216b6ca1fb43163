"""The rules of the package's files and values: UTF-8 text, the indent-1
JSON layout, decimal runs read in bulk from a file's bytes (``digit_runs``,
``run_values``), exact-type JSON numbers and their arrays (``number_array``),
the integer rule of every id, the real rule of every weight and capacity
vector, and config fields checked by their annotations. Every file goes
through ``read_bytes`` or ``write_text``, and ``naming`` puts its path
before a fault of its contents."""

from __future__ import annotations

import contextlib
import functools
import json
import typing
from dataclasses import fields
from itertools import chain

import numpy as np

_MAX_FLOAT = float(np.finfo(np.float64).max)


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
    return type(value) is float or (type(value) is int and -_MAX_FLOAT <= value <= _MAX_FLOAT)


def number_array(values: list, where: str) -> np.ndarray:
    """The JSON list ``values`` as float64: a list of numbers (by
    ``is_number``), or, when its first entry is a list, a list of rows that
    are lists of numbers, all as long as row 0. The entries' types are
    checked in bulk; a ValueError names ``where`` and the first faulty row,
    a row of another length only when every row is a list of numbers."""
    rows = bool(values) and type(values[0]) is list
    entries = list(chain.from_iterable(values)) \
        if rows and set(map(type, values)) <= {list} else values
    types = set(map(type, entries))
    if types <= {float} or (types <= {float, int} and all(map(is_number, entries))):
        try:
            return np.array(values, dtype=np.float64)
        except ValueError:  # rows of unequal lengths
            width = len(values[0])
            row = next(i for i, entry in enumerate(values) if len(entry) != width)
            raise ValueError(f"{where} row {row} has {len(values[row])} entries, "
                             f"not {width}") from None
    fits = (lambda row: type(row) is list and all(map(is_number, row))) if rows else is_number
    row = next(i for i, entry in enumerate(values) if not fits(entry))
    raise ValueError(f"{where} row {row} is not a list of numbers" if rows
                     else f"{where} row {row} is {values[row]!r}, not a number")


def integer_type(kind: type) -> bool:
    """Whether values of the type ``kind`` are integers: Python's or numpy's,
    never a bool. It takes a type, so a bulk check calls it once per type in
    ``set(map(type, values))``."""
    return issubclass(kind, (int, np.integer)) and kind is not bool


def check_count(value, name: str, error=ValueError) -> None:
    """Raise ``error`` naming ``name`` unless ``value`` is a non-negative
    integer (by ``integer_type``): the rule of every seed and dimension."""
    if not integer_type(type(value)) or value < 0:
        raise error(f"{name} must be a non-negative integer, got {value!r}")


def real_type(kind: type) -> bool:
    """Whether values of the type ``kind`` are real numbers: integers or
    floats, Python's or numpy's; never a bool, a str or a complex.
    Type-level, as ``integer_type`` is."""
    return issubclass(kind, (int, float, np.integer, np.floating)) and kind is not bool


def _vector(values, what: str, kinds: str, entry_type, noun: str, dtype, error) -> np.ndarray:
    """``values`` as a 1-D ``dtype`` array. An array whose dtype kind is in
    ``kinds`` passes on its dtype, unless it is unsigned and ``dtype``
    cannot hold all of its values; anything else is read entry by entry, and
    the first entry whose type fails ``entry_type`` raises ``error`` naming
    it as a ``what`` that is not ``noun``, as does the first that ``dtype``
    cannot hold. A scalar or an array that is not 1-D raises a ValueError naming
    its shape, and a whole str, bytes or bytearray one naming its type."""
    if isinstance(values, (str, bytes, bytearray)):  # list() would read its characters
        raise ValueError(f"{what} values must form a 1-D vector, got {type(values).__name__} "
                         f"{values!r}")
    if isinstance(values, np.ndarray):
        if values.ndim != 1:
            raise ValueError(f"{what} values must form a 1-D vector, got shape {values.shape}")
        kind = values.dtype.kind
        if kind in kinds and (kind != "u" or np.can_cast(values.dtype, dtype)):
            return values.astype(dtype, copy=False)
        entries = values.tolist()
    else:
        try:
            entries = list(values)
        except TypeError:  # not iterable, so a scalar
            raise ValueError(f"{what} values must form a 1-D vector, got shape () "
                             f"for {values!r}") from None
    if not all(map(entry_type, set(map(type, entries)))):
        bad = next(entry for entry in entries if not entry_type(type(entry)))
        raise error(f"{what} {bad!r} is not {noun}")
    try:
        return np.array(entries, dtype=dtype)
    except OverflowError:  # an integer beyond the dtype's range
        bad = next(entry for entry in entries if not _entry_fits(entry, dtype))
        shown = repr(bad) if len(repr(bad)) <= 32 else f"of {len(str(abs(int(bad))))} digits"
        raise error(f"{what} {shown} is outside the range of {np.dtype(dtype).name}") from None


def _entry_fits(entry, dtype) -> bool:
    # a list, since a 0-d array wraps a numpy integer instead of raising
    try:
        np.array([entry], dtype=dtype)
    except OverflowError:
        return False
    return True


def integer_ids(ids, what: str, error=ValueError) -> np.ndarray:
    """``ids`` as a 1-D ``intp`` array. An array of an integer dtype passes
    on its dtype; anything else is read entry by entry, and the first entry
    that is not an integer (by ``integer_type``; a float or bool is never
    cast) raises ``error`` naming it as a ``what``. A scalar, a 0-d array
    or an array of more dimensions raises a ValueError naming its shape, and
    a whole str, bytes or bytearray one naming its type."""
    return _vector(ids, what, "iu", integer_type, "an integer", np.intp, error)


def real_vector(values, what: str) -> np.ndarray:
    """``values`` as a 1-D ``float64`` array, by the rules of ``integer_ids``:
    an array of an integer or float dtype passes on its dtype, and any other
    input is read entry by entry, so that a str, bool or complex entry raises
    a ValueError naming it as a ``what`` instead of being cast. The caller
    checks the values' range, NaN and the infinities included."""
    return _vector(values, what, "iuf", real_type, "a real number", np.float64, ValueError)


def _finite_real(value) -> bool:
    # a numpy scalar is compared as the Python number it holds, since a
    # float32 overflows casting the bounds; a float skips the type tests
    if type(value) is float:
        return -_MAX_FLOAT <= value <= _MAX_FLOAT
    return real_type(type(value)) and -_MAX_FLOAT <= (
        value.item() if isinstance(value, np.generic) else value) <= _MAX_FLOAT


@functools.cache
def field_rule(kind):
    """``(accepts, what)`` for values of the resolved annotation ``kind``:
    an ``int`` takes an integer (by ``integer_type``) and a ``float`` a finite
    real (by ``real_type``, so an integer too), neither a bool;
    ``tuple[float, ...]`` takes a tuple of such reals, ``X | None`` None too
    and a class its instances."""
    if kind is int:
        return (lambda v: integer_type(type(v))), "an integer"
    if kind is float:  # the bounds exclude NaN and infinities
        return _finite_real, "finite"
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
    return json_members(doc) + members + "\n}\n"


def json_members(doc: dict) -> str:
    """``json_text(doc)`` up to its last member: the text that more members,
    then ``"\n}\n"``, complete."""
    return json.dumps(doc, indent=1, allow_nan=False)[:-2]


def write_json(doc: dict, path) -> None:
    """Write ``json_text(doc)`` to the file at ``path``."""
    write_text(json_text(doc), path)


def write_text(text, path) -> None:
    """Write ``text`` to the file at ``path`` as UTF-8 with ``\n`` line ends:
    a str, or an iterable of them, each written as it is made."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines([text] if isinstance(text, str) else text)


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


def read_bytes(path) -> bytes:
    """The bytes of the file at ``path``."""
    with open(path, "rb") as fh:
        return fh.read()


@contextlib.contextmanager
def naming(path):
    """Re-raise a ValueError of the block as its class with ``path`` before
    its message: the one place that names a file in a fault."""
    try:
        yield
    except ValueError as err:
        raise type(err)(f"{path}: {err}") from None


def decode_text(data: bytes, newline=None) -> str:
    """``data``, a file's bytes, as UTF-8 text, line ends as ``open`` reads them
    with ``newline`` None or ""; a ValueError names the line of a bad byte."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as err:
        line = data.count(b"\n", 0, err.start) + 1
        raise ValueError(f"line {line} is not UTF-8 ({err})") from None
    if newline is None and "\r" in text:  # a two-character replace scans slowly
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def digit_runs(chars: np.ndarray):
    """``(digit, first, sizes)`` of the bytes ``chars``, a uint8 array whose
    first and last bytes are no ASCII digits: the mask of its ASCII digits
    (``[0-9]`` alone, not another script's, which ``int`` would read), and
    where each run of digits starts and how many it holds."""
    digit = (chars - ord("0")) < 10  # uint8 arithmetic wraps every other byte past 9
    first = np.flatnonzero(digit[1:] > digit[:-1]) + 1
    after = np.flatnonzero(digit[:-1] > digit[1:]) + 1
    return digit, first, after - first


def run_values(chars: np.ndarray, first: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """The int64 values of the decimal runs of ``digit_runs``, each of at
    most 18 digits, so none overflows: Horner's rule reads the ``k``-th
    digit of every run at once."""
    values, last = np.zeros(first.size, dtype=np.int64), first + sizes - 1
    for k in range(sizes.max(initial=0)):
        # a run of k digits or fewer keeps its value, and reads inside itself
        digits = chars[np.minimum(first + k, last)] - ord("0")
        values = np.where(sizes > k, values * 10 + digits, values)
    return values


def parse_json(data: bytes):
    """The JSON document in the file bytes ``data`` (``decode_text``); a syntax
    fault and too deep a nesting raise a plain ValueError, which ``naming`` rebuilds."""
    try:
        return json.loads(decode_text(data))
    except json.JSONDecodeError as err:
        raise ValueError(str(err)) from None
    except RecursionError:
        raise ValueError("nested too deeply to parse") from None
