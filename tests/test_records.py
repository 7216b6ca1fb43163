"""Record container invariants and the CSV interchange format."""

import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from attnalloc import SparseAttentionRecords, load_records, save_records
from attnalloc.records import RecordsParseError
from oracles import (FrozensetRecords, csv_writer_records_text, frozenset_load_records,
                     record_pairs)

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
    assert record_pairs(records) == {(1, 0), (0, 0), (0, 3)}


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


# (user, object, level) rows in input order, at most one per pair
record_lists = st.lists(
    st.tuples(st.integers(0, 9), st.integers(0, 30), st.integers(1, 5)),
    unique_by=lambda rec: rec[:2],
)


@given(record_lists)
def test_save_matches_csv_writer(tmp_path_factory, rows):
    # the frozenset records the table replaced, written by the csv.writer loop
    path = tmp_path_factory.mktemp("records") / "r.csv"
    records = SparseAttentionRecords(rows)
    oracle = FrozensetRecords(frozenset(rows))
    assert records.sorted_list() == oracle.sorted_list()
    assert records.records == oracle.records
    assert record_pairs(records) == oracle.pairs()
    save_records(records, path)
    assert path.read_bytes() == csv_writer_records_text(oracle).encode("ascii")


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
        ("99999999999999999999,2,3\n", "outside the 64-bit integer range"),
        ("1,-99999999999999999999,3\n", "outside the 64-bit integer range"),
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


@st.composite
def faulty_csv(draw):
    """A records CSV with one to three faulty rows (a negative id, level 0 or
    6, or a repeat of another row's pair) and blank lines, in any position."""
    rows = [list(rec) for rec in draw(record_lists.filter(bool))]
    for _ in range(draw(st.integers(1, 3))):
        user, obj, level = draw(st.sampled_from(rows))
        fault = draw(st.sampled_from(["user", "object", "level", "pair"]))
        if fault == "user":
            user = -draw(st.integers(1, 3))
        elif fault == "object":
            obj = -draw(st.integers(1, 3))
        elif fault == "level":
            level = draw(st.sampled_from([0, 6]))
        rows.insert(draw(st.integers(0, len(rows))), [user, obj, level])
    for _ in range(draw(st.integers(0, 2))):
        rows.insert(draw(st.integers(0, len(rows))), [])
    return "user_id,object_id,level\n" + "".join(",".join(map(str, row)) + "\n" for row in rows)


def _line_and_cause(err) -> str:
    return re.match(r"line \d+: (negative|level \d+|duplicate pair \(\d+, \d+\))",
                    str(err)).group(0)


@given(faulty_csv())
def test_loader_names_the_frozenset_oracles_line_and_cause(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("records") / "bad.csv"
    path.write_text(text)
    with pytest.raises(RecordsParseError) as err:
        load_records(path)
    with pytest.raises(RecordsParseError) as oracle_err:
        frozenset_load_records(path)
    assert _line_and_cause(err.value) == _line_and_cause(oracle_err.value)


def test_constructor_names_first_faulty_record_in_input_order():
    with pytest.raises(ValueError, match=r"level 9 out of range 1\.\.5 in record \(0, 2, 9\)"):
        SparseAttentionRecords([(0, 1, 3), (0, 2, 9), (-1, 0, 3), (0, 1, 4)])
    with pytest.raises(ValueError, match=r"duplicate pair \(0, 1\) in record \(0, 1, 4\)"):
        SparseAttentionRecords([(0, 1, 3), (2, 2, 2), (0, 1, 4), (0, 2, 9)])
