"""Sparse user-object-attention records and their CSV interchange format.

A record is a (user_id, object_id, level) triple with level in 1..5 and at
most one record per (user, object) pair. The same CSV schema is used both for
sparse observation records and for dense ground-truth dumps, so the loader
accepts either.
"""

from __future__ import annotations

import csv

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
    the bytes ``csv.writer`` writes for these integer rows."""
    rows = ["%d,%d,%d\n" % record for record in records]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(CSV_HEADER) + "\n" + "".join(rows))


def load_records(path) -> SparseAttentionRecords:
    """Load a records CSV, or a dense ground-truth dump (same schema); a
    faulty row raises RecordsParseError naming its line."""
    rows, lines = [], []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(h.strip() for h in header) != CSV_HEADER:
            raise RecordsParseError(
                f"line 1: expected header {','.join(CSV_HEADER)!r}, got {header!r}"
            )
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 3:
                raise RecordsParseError(f"line {lineno}: expected 3 fields, got {len(row)}")
            try:
                rows.append(list(map(int, row)))
            except ValueError:
                raise RecordsParseError(f"line {lineno}: non-integer field in {row!r}") from None
            lines.append(lineno)
    try:
        return SparseAttentionRecords(np.array(rows, dtype=np.int64))
    except OverflowError:
        i = next(i for i, row in enumerate(rows) if not -2**63 <= min(row) <= max(row) < 2**63)
        raise RecordsParseError(f"line {lines[i]}: field outside the 64-bit integer range "
                                f"in {rows[i]}") from None
    except InvalidRecordError as err:
        raise RecordsParseError(f"line {lines[err.index]}: {err}") from None
