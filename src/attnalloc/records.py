"""Sparse user-object-attention records and their CSV interchange format.

A record is a (user_id, object_id, level) triple with level in 1..5 and at
most one record per (user, object) pair. The same CSV schema is used both for
sparse observation records and for dense ground-truth dumps, so the loader
accepts either.
"""

from __future__ import annotations

import csv
import io
from itertools import chain
from typing import NoReturn

import numpy as np

from .schema import decode_text, digit_runs, integer_type, read_bytes, run_values, write_text

CSV_HEADER = ("user_id", "object_id", "level")
_HEADER_LINE = ",".join(CSV_HEADER) + "\n"

MIN_LEVEL = 1
MAX_LEVEL = 5


class RecordsParseError(ValueError):
    """Malformed records CSV; ``load_records`` names the file and the
    offending line number."""


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
        if set(map(len, rows)) <= {3} and all(map(integer_type, set(map(type, flat)))):
            return np.fromiter(flat, np.int64, len(flat)).reshape(len(rows), 3)
    except (TypeError, OverflowError):  # a record that is no sequence; a field beyond int64
        pass
    _raise_record_fault(rows)


def _raise_record_fault(rows: list) -> NoReturn:
    """Raise the InvalidRecordError of the first record that is not three
    integers within int64, or of an earlier record that ``_sorted_valid``
    rejects."""
    for i, record in enumerate(rows):
        try:
            fields = tuple(record)
        except TypeError:  # not a sequence: one field
            fields = (record,)
        bad = [f for f in fields if not integer_type(type(f)) or not -2**63 <= f < 2**63]
        if len(fields) == 3 and not bad:
            continue
        _sorted_valid(np.array(rows[:i], dtype=np.int64).reshape(i, 3))
        if len(fields) != 3:
            cause = f"expected 3 fields, got {len(fields)},"
        elif integer_type(type(bad[0])):
            cause = f"field {bad[0]} outside the 64-bit integer range"
        else:
            cause = f"non-integer field {bad[0]!r}"
        raise InvalidRecordError(i, f"{cause} in record {fields}")
    raise AssertionError("a bulk record check failed, but every record is three integers")


def _sorted_valid(table: np.ndarray) -> np.ndarray:
    """A copy of the n x 3 ``table`` sorted by (user, object), or
    InvalidRecordError naming its first faulty record in input order. One
    linear pass tells whether the pairs already strictly ascend, as in every
    table that ``sparsify`` builds and every file that ``save_records``
    writes; such a table holds no repeated pair and is only copied. Any
    other is sorted, stably, so a repeated pair is the later of two adjacent
    rows."""
    users, objects, levels = table.T
    negative = (users < 0) | (objects < 0)
    out_of_range = (levels < MIN_LEVEL) | (levels > MAX_LEVEL)
    faulty = negative | out_of_range
    rising = (users[1:] > users[:-1]) | (users[1:] == users[:-1]) & (objects[1:] > objects[:-1])
    order = None if rising.all() else np.lexsort((objects, users))
    if order is not None:
        faulty[order[1:]] |= (np.diff(users[order]) == 0) & (np.diff(objects[order]) == 0)
    if faulty.any():
        i = int(np.flatnonzero(faulty)[0])
        record = tuple(table[i].tolist())
        cause = ("negative user or object id" if negative[i] else
                 f"level {record[2]} out of range 1..5" if out_of_range[i] else
                 f"duplicate pair {record[:2]}")
        raise InvalidRecordError(i, f"{cause} in record {record}")
    return table.copy() if order is None else table[order]


class SparseAttentionRecords:
    """A set of (user_id, object_id, level) observations, held as one
    read-only int64 table of shape n x 3 sorted by (user, object);
    ``users``, ``objects`` and ``levels`` are views of its columns. The
    table is the constructor's own copy: records whose pairs already
    strictly ascend are checked in linear passes and copied, any others
    sorted (``_sorted_valid``). A faulty record raises InvalidRecordError,
    naming the first in input order. Iteration yields ``(user, object,
    level)`` tuples of Python ints, zipped from the three columns' lists."""

    def __init__(self, records=()):
        self.table = _sorted_valid(_table(records))
        self.table.setflags(write=False)
        self.users, self.objects, self.levels = self.table.T

    def __len__(self):
        return len(self.table)

    def __iter__(self):
        return zip(self.users.tolist(), self.objects.tolist(), self.levels.tolist())

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
    write_text(_HEADER_LINE + text, path)


def load_records(path) -> SparseAttentionRecords:
    """Load a records CSV, or a dense ground-truth dump (same schema); a
    faulty row raises RecordsParseError naming the file and the row's line.
    A file that is exactly what ``save_records`` writes is parsed from its
    bytes in bulk (``_canonical_table``), with no text decoded; any other
    file is decoded (``decode_text``, which names the line of a byte that is
    not UTF-8) and goes through ``csv.reader`` row by row, with the same
    result for every text both accept."""
    data = read_bytes(path)
    try:
        table, lines = _canonical_table(data) or _csv_table(decode_text(data, path, newline=""))
        return SparseAttentionRecords(table)
    except InvalidRecordError as err:
        raise RecordsParseError(f"{path}: line {lines[err.index]}: {err}") from None
    except RecordsParseError as err:
        raise RecordsParseError(f"{path}: {err}") from None


def _canonical_table(data: bytes):
    """``(table, lines)`` of the file bytes ``data`` when they are the header
    line and then lines of three plain decimal fields of 1 to 18 ASCII
    digits (so each fits in int64), each line ending in LF; None for any
    other bytes. One pass finds the runs of digits in the bytes from the
    header's LF on (``schema.digit_runs``): there must be three runs per
    line, and the other bytes must be exactly that LF and then two commas
    and an LF per line, so each byte between two runs is one separator and
    each line holds three runs. Horner's rule then reads every run at once
    (``schema.run_values``)."""
    if not data.startswith(_HEADER_LINE.encode()) or not data.endswith(b"\n"):
        return None
    chars = np.frombuffer(data, np.uint8, offset=len(_HEADER_LINE) - 1)
    digit, first, sizes = digit_runs(chars)
    n = first.size // 3
    if first.size != 3 * n or sizes.max(initial=0) > 18 \
            or chars[~digit].tobytes() != b"\n" + b",,\n" * n:
        return None
    return run_values(chars, first, sizes).reshape(n, 3), range(2, n + 2)


def _csv_table(text: str):
    """``(table, lines)`` of the rows ``csv.reader`` reads from ``text``,
    each checked as it is read: line ``n`` is the ``n``-th row it returns,
    and blank rows are skipped."""
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
    values, lines = [], []
    for lineno, row in enumerate(rows, start=2):
        if not row:
            continue
        if len(row) != 3:
            raise RecordsParseError(f"line {lineno}: expected 3 fields, got {len(row)}")
        try:
            values.extend(map(int, row))
        except ValueError:
            raise RecordsParseError(f"line {lineno}: non-integer field in {row!r}") from None
        lines.append(lineno)
    try:
        return np.array(values, dtype=np.int64).reshape(len(lines), 3), lines
    except OverflowError:
        i = next(k for k, v in enumerate(values) if not -2**63 <= v < 2**63) // 3
        raise RecordsParseError(f"line {lines[i]}: field outside the 64-bit integer range "
                                f"in {values[3 * i:3 * i + 3]}") from None
