"""Sparse user-object-attention records and their CSV interchange format.

A record is a (user_id, object_id, level) triple with level in 1..5 and at
most one record per (user, object) pair. The same CSV schema is used both for
sparse observation records and for dense ground-truth dumps, so the loader
accepts either.
"""

from __future__ import annotations

import csv
from itertools import chain
from typing import NoReturn

import numpy as np

CSV_HEADER = ("user_id", "object_id", "level")

MIN_LEVEL = 1
MAX_LEVEL = 5


class RecordsParseError(ValueError):
    """Malformed records CSV; message names the offending line number."""


class InvalidRecordError(ValueError):
    """A record with a negative id, a level outside 1..5 or the pair of an
    earlier record; ``index`` is its position in the input."""

    def __init__(self, index: int, cause: str):
        super().__init__(cause)
        self.index = index


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
        table = np.asarray(records if isinstance(records, np.ndarray) else list(records),
                           dtype=np.int64)
        self.table = _sorted_valid(table.reshape(len(table), 3))
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
        fh.write(",".join(CSV_HEADER) + "\n" + text)


def load_records(path) -> SparseAttentionRecords:
    """Load a records CSV, or a dense ground-truth dump (same schema); a
    faulty row raises RecordsParseError naming its line. Line ``n`` is the
    ``n``-th row ``csv.reader`` returns, and blank rows are skipped. The rows
    are checked in bulk; only when a check fails is the first faulty row
    looked up."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
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
        table = np.array(values, dtype=np.int64).reshape(len(rows), 3)
    except OverflowError:
        i = next(k for k, v in enumerate(values) if not -2**63 <= v < 2**63) // 3
        raise RecordsParseError(f"line {lines[i]}: field outside the 64-bit integer range "
                                f"in {values[3 * i:3 * i + 3]}") from None
    try:
        return SparseAttentionRecords(table)
    except InvalidRecordError as err:
        raise RecordsParseError(f"line {lines[err.index]}: {err}") from None


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
