"""Sparse user-object-attention records and their CSV interchange format.

A record is a (user_id, object_id, level) triple with level in 1..5 and at
most one record per (user, object) pair. The same CSV schema is used both for
sparse observation records and for dense ground-truth dumps, so the loader
accepts either.
"""

from __future__ import annotations

import csv
import io
import re
from itertools import chain
from typing import NoReturn

import numpy as np

CSV_HEADER = ("user_id", "object_id", "level")
_HEADER_LINE = ",".join(CSV_HEADER) + "\n"
# a line of the body that is not three plain decimal fields of 1 to 18
# digits, so each fits in int64; [0-9], since \d also matches other
# scripts' digits, which int() reads and numpy does not
_NON_CANONICAL_LINE = re.compile(r"^(?![0-9]{1,18},[0-9]{1,18},[0-9]{1,18}$).", re.M | re.S)

MIN_LEVEL = 1
MAX_LEVEL = 5


class RecordsParseError(ValueError):
    """Malformed records CSV; message names the offending line number."""


class InvalidRecordError(ValueError):
    """A record that is not three integers, or has a negative id, a level
    outside 1..5 or the pair of an earlier record; ``index`` is its position
    in the input."""

    def __init__(self, index: int, cause: str):
        super().__init__(cause)
        self.index = index


def _table(records) -> np.ndarray:
    """The n x 3 int64 table of ``records``: an array of an integer dtype
    that int64 holds passes on its dtype and shape, anything else record by
    record on exact types (a bool, float or str is never cast). A faulty
    record raises InvalidRecordError, naming the first in input order."""
    if isinstance(records, np.ndarray):
        if records.dtype.kind in "iu" and np.can_cast(records.dtype, np.int64) \
                and records.ndim == 2 and records.shape[1] == 3:
            return records.astype(np.int64, copy=False)
        records = records.tolist()
    rows = list(records)
    try:
        flat = list(chain.from_iterable(rows))
        if set(map(len, rows)) <= {3} and all(map(_is_int_type, set(map(type, flat)))):
            return np.fromiter(flat, np.int64, len(flat)).reshape(len(rows), 3)
    except (TypeError, OverflowError):  # a record that is no sequence; a field beyond int64
        pass
    _raise_record_fault(rows)


def _is_int_type(kind: type) -> bool:
    return issubclass(kind, (int, np.integer)) and kind is not bool


def _raise_record_fault(rows: list) -> NoReturn:
    """Raise the InvalidRecordError of the first record that is not three
    integers within int64, or of an earlier record that ``_sorted_valid``
    rejects."""
    for i, record in enumerate(rows):
        try:
            fields = tuple(record)
        except TypeError:  # not a sequence: one field
            fields = (record,)
        bad = [f for f in fields if not _is_int_type(type(f)) or not -2**63 <= f < 2**63]
        if len(fields) == 3 and not bad:
            continue
        _sorted_valid(np.array(rows[:i], dtype=np.int64).reshape(i, 3))
        if len(fields) != 3:
            cause = f"expected 3 fields, got {len(fields)},"
        elif _is_int_type(type(bad[0])):
            cause = f"field {bad[0]} outside the 64-bit integer range"
        else:
            cause = f"non-integer field {bad[0]!r}"
        raise InvalidRecordError(i, f"{cause} in record {fields}")
    raise AssertionError("a bulk record check failed, but every record is three integers")


def _sorted_valid(table: np.ndarray) -> np.ndarray:
    """The n x 3 ``table`` sorted by (user, object), or InvalidRecordError
    naming its first faulty record in input order. The sort is stable, so a
    repeated pair is the later of two adjacent rows."""
    users, objects, levels = table.T
    order = np.lexsort((objects, users))
    repeated = np.zeros(len(table), dtype=bool)
    repeated[order[1:]] = (np.diff(users[order]) == 0) & (np.diff(objects[order]) == 0)
    negative = (users < 0) | (objects < 0)
    out_of_range = (levels < MIN_LEVEL) | (levels > MAX_LEVEL)
    faulty = np.flatnonzero(negative | out_of_range | repeated)
    if faulty.size:
        i = int(faulty[0])
        record = tuple(table[i].tolist())
        cause = ("negative user or object id" if negative[i] else
                 f"level {record[2]} out of range 1..5" if out_of_range[i] else
                 f"duplicate pair {record[:2]}")
        raise InvalidRecordError(i, f"{cause} in record {record}")
    return table[order]


class SparseAttentionRecords:
    """A set of (user_id, object_id, level) observations, held as one
    read-only int64 table of shape n x 3 sorted by (user, object);
    ``users``, ``objects`` and ``levels`` are views of its columns. A faulty
    record raises InvalidRecordError, naming the first in input order."""

    def __init__(self, records=()):
        self.table = _sorted_valid(_table(records))
        self.table.setflags(write=False)
        self.users, self.objects, self.levels = self.table.T

    def __len__(self):
        return len(self.table)

    def __iter__(self):
        return map(tuple, self.table.tolist())

    def __eq__(self, other):
        return isinstance(other, SparseAttentionRecords) and np.array_equal(self.table, other.table)

    def sorted_list(self) -> list:
        return list(self)

    @property
    def records(self) -> frozenset:
        return frozenset(self)


def save_records(records: SparseAttentionRecords, path) -> None:
    """Write records as CSV (header ``user_id,object_id,level``, LF endings),
    the bytes ``csv.writer`` writes for these integer rows, from one
    ``%``-template over the whole table."""
    text = ("%d,%d,%d\n" * len(records)) % tuple(records.table.ravel().tolist())
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(_HEADER_LINE + text)


def load_records(path) -> SparseAttentionRecords:
    """Load a records CSV, or a dense ground-truth dump (same schema); a
    faulty row raises RecordsParseError naming its line. Text that is
    exactly what ``save_records`` writes is parsed in one pass; any other
    text goes through ``csv.reader``, with the same result for every text
    both accept."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        text = fh.read()
    table, lines = _canonical_table(text) or _csv_table(text)
    try:
        return SparseAttentionRecords(table)
    except InvalidRecordError as err:
        raise RecordsParseError(f"line {lines[err.index]}: {err}") from None


def _canonical_table(text: str):
    """``(table, lines)`` of ``text`` when it is the header line and then
    lines of three plain decimal fields, each line ending in LF; None for
    any other text. The grammar check is one search for a line that breaks
    it, which keeps no backtracking state per row; one ``np.fromstring``
    then parses every field."""
    body = text[len(_HEADER_LINE):]
    if not text.startswith(_HEADER_LINE) or body and not body.endswith("\n") \
            or _NON_CANONICAL_LINE.search(body):
        return None
    n = body.count("\n")
    values = np.fromstring(body[:-1].replace("\n", ","), dtype=np.int64, sep=",")
    return (values.reshape(n, 3), range(2, n + 2)) if values.size == 3 * n else None


def _csv_table(text: str):
    """``(table, lines)`` of the rows ``csv.reader`` reads from ``text``:
    line ``n`` is the ``n``-th row it returns, and blank rows are skipped.
    The rows are checked in bulk; only when a check fails is the first
    faulty row looked up."""
    reader = csv.reader(io.StringIO(text, newline=""))
    header, rows = None, []
    try:
        header = next(reader, None)
        if header is None or tuple(h.strip() for h in header) != CSV_HEADER:
            raise RecordsParseError(
                f"line 1: expected header {','.join(CSV_HEADER)!r}, got {header!r}"
            )
        rows.extend(reader)  # keeps the rows read before a csv.Error
    except csv.Error as err:  # e.g. a field longer than csv.field_size_limit()
        line = 1 if header is None else len(rows) + 2
        raise RecordsParseError(f"line {line}: {err}") from None
    lengths = set(map(len, rows))
    if 0 in lengths:
        lines = [n for n, row in enumerate(rows, start=2) if row]
        rows = list(filter(None, rows))
    else:
        lines = range(2, len(rows) + 2)
    if lengths - {0, 3}:
        _raise_row_fault(rows, lines)
    try:
        values = list(map(int, chain.from_iterable(rows)))
    except ValueError:
        _raise_row_fault(rows, lines)
    try:
        return np.array(values, dtype=np.int64).reshape(len(rows), 3), lines
    except OverflowError:
        i = next(k for k, v in enumerate(values) if not -2**63 <= v < 2**63) // 3
        raise RecordsParseError(f"line {lines[i]}: field outside the 64-bit integer range "
                                f"in {values[3 * i:3 * i + 3]}") from None


def _raise_row_fault(rows, lines) -> NoReturn:
    """Raise the RecordsParseError of the first row that has not three
    integer fields."""
    for lineno, row in zip(lines, rows):
        if len(row) != 3:
            raise RecordsParseError(f"line {lineno}: expected 3 fields, got {len(row)}")
        try:
            list(map(int, row))
        except ValueError:
            raise RecordsParseError(f"line {lineno}: non-integer field in {row!r}") from None
    raise AssertionError("a bulk row check failed, but every row is well formed")
