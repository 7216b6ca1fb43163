"""Record container invariants and the CSV interchange format."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from attnalloc import SparseAttentionRecords, load_records, save_records
from attnalloc.records import RecordsParseError
from oracles import csv_writer_records_text

record_sets = st.sets(
    st.tuples(st.integers(0, 9), st.integers(0, 30), st.integers(1, 5))
).map(
    # keep at most one level per (user, object) pair
    lambda s: frozenset({(u, o): (u, o, l) for u, o, l in sorted(s)}.values())
)


def test_rejects_out_of_range_level():
    with pytest.raises(ValueError, match="level"):
        SparseAttentionRecords(frozenset({(0, 1, 6)}))
    with pytest.raises(ValueError, match="level"):
        SparseAttentionRecords(frozenset({(0, 1, 0)}))


def test_rejects_duplicate_pair():
    with pytest.raises(ValueError, match="duplicate"):
        SparseAttentionRecords(frozenset({(0, 1, 2), (0, 1, 3)}))


def test_accessors():
    records = SparseAttentionRecords(frozenset({(1, 0, 5), (0, 0, 2), (0, 3, 1)}))
    assert len(records) == 3
    assert records.sorted_list() == [(0, 0, 2), (0, 3, 1), (1, 0, 5)]
    assert records.pairs() == {(1, 0), (0, 0), (0, 3)}


def test_merge_conflicting_levels_rejected():
    a = SparseAttentionRecords(frozenset({(0, 0, 1)}))
    b = SparseAttentionRecords(frozenset({(0, 0, 2)}))
    with pytest.raises(ValueError):
        SparseAttentionRecords(a.records | b.records)


@given(record_sets)
def test_roundtrip(tmp_path_factory, records):
    path = tmp_path_factory.mktemp("records") / "r.csv"
    original = SparseAttentionRecords(records)
    save_records(original, path)
    assert load_records(path) == original


@given(record_sets)
def test_save_matches_csv_writer(tmp_path_factory, records):
    path = tmp_path_factory.mktemp("records") / "r.csv"
    original = SparseAttentionRecords(records)
    save_records(original, path)
    assert path.read_bytes() == csv_writer_records_text(original).encode("ascii")


def test_csv_shape(tmp_path):
    path = tmp_path / "r.csv"
    save_records(SparseAttentionRecords(frozenset({(3, 12, 5), (0, 1, 1)})), path)
    content = path.read_bytes()
    assert content == b"user_id,object_id,level\n0,1,1\n3,12,5\n"


def test_empty_file_with_header(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("user_id,object_id,level\n")
    assert len(load_records(path)) == 0


@pytest.mark.parametrize(
    "body,fragment",
    [
        ("3,12,6\n", "level 6"),
        ("3,12,0\n", "level 0"),
        ("a,2,3\n", "non-integer"),
        ("1,2\n", "3 fields"),
        ("1,2,3\n1,2,4\n", "duplicate"),
    ],
)
def test_malformed_rows_name_line(tmp_path, body, fragment):
    path = tmp_path / "bad.csv"
    path.write_text("user_id,object_id,level\n" + body)
    with pytest.raises(RecordsParseError, match="line 2|line 3") as err:
        load_records(path)
    assert fragment in str(err.value)


def test_missing_header(tmp_path):
    path = tmp_path / "no_header.csv"
    path.write_text("0,1,2\n")
    with pytest.raises(RecordsParseError, match="line 1"):
        load_records(path)


def test_rejects_negative_ids():
    for record in ((-1, 0, 3), (0, -1, 3)):
        with pytest.raises(ValueError, match="negative"):
            SparseAttentionRecords(frozenset({record}))


def test_load_rejects_negative_ids(tmp_path):
    path = tmp_path / "r.csv"
    path.write_text("user_id,object_id,level\n0,0,1\n1,-2,3\n")
    with pytest.raises(RecordsParseError, match="line 3: negative"):
        load_records(path)
