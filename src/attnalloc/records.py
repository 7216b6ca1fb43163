"""Sparse user-object-attention records and their CSV interchange format.

A record is a (user_id, object_id, level) triple with level in 1..5 and at
most one record per (user, object) pair. The same CSV schema is used both for
sparse observation records and for dense ground-truth dumps, so the loader
accepts either.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

CSV_HEADER = ("user_id", "object_id", "level")

MIN_LEVEL = 1
MAX_LEVEL = 5


class RecordsParseError(ValueError):
    """Malformed records CSV; message names the offending line number."""


@dataclass(frozen=True)
class SparseAttentionRecords:
    """A set of (user_id, object_id, level) observations."""

    records: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        object.__setattr__(self, "records", frozenset(self.records))
        seen = set()
        for rec in self.records:
            user, obj, level = rec
            if user < 0 or obj < 0:
                raise ValueError(f"negative user or object id in record {rec}")
            if not (MIN_LEVEL <= level <= MAX_LEVEL):
                raise ValueError(f"level {level} out of range for record {rec}")
            if (user, obj) in seen:
                raise ValueError(f"duplicate record for pair ({user}, {obj})")
            seen.add((user, obj))

    def __len__(self):
        return len(self.records)

    def __iter__(self):
        return iter(self.sorted_list())

    def sorted_list(self) -> list:
        return sorted(self.records)

    def pairs(self) -> set:
        return {(u, o) for u, o, _ in self.records}


def save_records(records: SparseAttentionRecords, path) -> None:
    """Write records as CSV (header ``user_id,object_id,level``, LF endings),
    the bytes ``csv.writer`` writes for these integer rows."""
    rows = ["%d,%d,%d\n" % record for record in records.sorted_list()]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(CSV_HEADER) + "\n" + "".join(rows))


def load_records(path) -> SparseAttentionRecords:
    """Load a records CSV; also reads dense ground-truth dumps (same schema)."""
    triples = set()
    seen_pairs = set()
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
                user, obj, level = (int(v) for v in row)
            except ValueError:
                raise RecordsParseError(f"line {lineno}: non-integer field in {row!r}") from None
            if user < 0 or obj < 0:
                raise RecordsParseError(f"line {lineno}: negative user or object id in {row!r}")
            if not (MIN_LEVEL <= level <= MAX_LEVEL):
                raise RecordsParseError(f"line {lineno}: level {level} out of range 1..5")
            if (user, obj) in seen_pairs:
                raise RecordsParseError(f"line {lineno}: duplicate pair ({user}, {obj})")
            seen_pairs.add((user, obj))
            triples.add((user, obj, level))
    return SparseAttentionRecords(frozenset(triples))
