"""Record container invariants and the CSV interchange format."""

import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from attnalloc import (SparseAttentionRecords, WorldConfig, generate_world, ground_truth_levels,
                       load_records, save_records)
from attnalloc.world import sparsify
from attnalloc.records import CSV_HEADER, InvalidRecordError, RecordsParseError, _canonical_table
from oracles import (FrozensetRecords, csv_writer_text, frozenset_load_records,
                     lexsort_sorted_valid, record_pairs, row_loop_load_records)
from test_faults import former_tests

record_sets = st.sets(
    st.tuples(st.integers(0, 9), st.integers(0, 30), st.integers(1, 5))
).map(
    # keep at most one level per (user, object) pair
    lambda s: frozenset({(u, o): (u, o, l) for u, o, l in sorted(s)}.values())
)


def test_accessors():
    records = SparseAttentionRecords(frozenset({(1, 0, 5), (0, 0, 2), (0, 3, 1)}))
    assert len(records) == 3
    assert records.sorted_list() == [(0, 0, 2), (0, 3, 1), (1, 0, 5)]
    assert record_pairs(records) == {(1, 0), (0, 0), (0, 3)}


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


@given(st.one_of(record_lists, record_lists.map(sorted)))  # in any order, and ascending
def test_save_matches_csv_writer(tmp_path_factory, rows):
    # the frozenset records the table replaced, written by the csv.writer loop
    path = tmp_path_factory.mktemp("records") / "r.csv"
    records = SparseAttentionRecords(rows)
    oracle = FrozensetRecords(frozenset(rows))
    assert records.sorted_list() == oracle.sorted_list()
    assert records.records == oracle.records
    assert record_pairs(records) == oracle.pairs()
    save_records(records, path)
    assert path.read_bytes() == csv_writer_text(CSV_HEADER, oracle.sorted_list()).encode("ascii")


def test_csv_shape(tmp_path):
    path = tmp_path / "r.csv"
    save_records(SparseAttentionRecords(frozenset({(3, 12, 5), (0, 1, 1)})), path)
    content = path.read_bytes()
    assert content == b"user_id,object_id,level\n0,1,1\n3,12,5\n"


def test_empty_file_with_header(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("user_id,object_id,level\n")
    assert len(load_records(path)) == 0


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


def _unnamed(err, path) -> str:
    """The message of a ``load_records`` fault after the file name it starts with."""
    assert str(err).startswith(f"{path}: "), err
    return str(err)[len(f"{path}: "):]


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
    assert _line_and_cause(_unnamed(err.value, path)) == _line_and_cause(oracle_err.value)


@st.composite
def int_tables(draw):
    """An n x 3 int64 table of one of five kinds: records whose pairs
    strictly ascend; such records with one adjacent repeat of a pair, one
    negative id or one level outside 1..5; or such records shuffled."""
    rows = [list(record) for record in sorted(draw(record_sets))]
    kind = draw(st.sampled_from(["ordered", "repeat", "negative id", "level", "shuffled"]))
    if rows and kind != "ordered":
        i = draw(st.integers(0, len(rows) - 1))
        if kind == "repeat":
            rows.insert(i + 1, [*rows[i][:2], draw(st.integers(1, 5))])
        elif kind == "negative id":
            rows[i][draw(st.integers(0, 1))] = -draw(st.integers(1, 3))
        elif kind == "level":
            rows[i][2] = draw(st.sampled_from([-1, 0, 6, 2**62]))
        else:
            rows = draw(st.permutations(rows))
    return np.array(rows, dtype=np.int64).reshape(-1, 3)


def _table_or_fault(check, table):
    """The table that ``check`` returns for ``table``, or its fault's record
    index and message."""
    try:
        return check(table).tolist()
    except InvalidRecordError as err:
        return err.index, str(err)


def _constructor_table(table):
    records = SparseAttentionRecords(table)
    assert not np.shares_memory(records.table, table)  # the constructor's own copy
    return records.table


@given(int_tables())
def test_record_check_matches_the_lexsort_oracle(table):
    # ordered tables skip the sort; every kind must give the sorting
    # oracle's table, or its fault with the same index and message
    assert _table_or_fault(_constructor_table, table) \
        == _table_or_fault(lexsort_sorted_valid, table)


def test_constructor_names_first_faulty_record_in_input_order():
    with pytest.raises(ValueError, match=r"level 9 out of range 1\.\.5 in record \(0, 2, 9\)"):
        SparseAttentionRecords([(0, 1, 3), (0, 2, 9), (-1, 0, 3), (0, 1, 4)])
    with pytest.raises(ValueError, match=r"duplicate pair \(0, 1\) in record \(0, 1, 4\)"):
        SparseAttentionRecords([(0, 1, 3), (2, 2, 2), (0, 1, 4), (0, 2, 9)])


# a CSV field: an integer written plainly, with a sign or spaces, quoted, or
# beyond int64, or a field that is no integer at all
_fields = st.one_of(
    st.integers(0, 9).map(str),
    st.integers(1, 5).map(str),
    st.sampled_from([" 3", "+3", "3 ", '"3"', '"+2"', "-1", "7", "0", "6",
                     "9223372036854775807", "9223372036854775808", "-9223372036854775809",
                     "99999999999999999999", "a", "1.5", "", '" "', '"1,2"']),
)


@st.composite
def rough_csv(draw):
    """A records CSV whose rows mostly have three integer fields, mixed with
    blank lines, short and long rows, non-integers, quoted fields and fields
    beyond int64."""
    lines = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["row"] * 6 + ["blank", "short", "long"]))
        if kind == "blank":
            lines.append("")
            continue
        width = {"row": 3, "short": draw(st.integers(1, 2)), "long": 4}[kind]
        lines.append(",".join(draw(st.lists(_fields, min_size=width, max_size=width))))
    return "user_id,object_id,level\n" + "".join(line + "\n" for line in lines)


def _load_outcome(load, path):
    """The sorted records that ``load`` reads from ``path``, or its fault's
    type and message; ``load_records`` names the file first, and the row
    oracle, which reads the rows alone, does not."""
    try:
        return load(path).sorted_list()
    except Exception as err:  # the exception is the outcome compared
        return type(err), _unnamed(err, path) if load is load_records else str(err)


@given(rough_csv())
@settings(max_examples=400, deadline=None)
def test_loader_matches_row_loop_oracle(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("records") / "r.csv"
    path.write_text(text)
    assert _load_outcome(load_records, path) == _load_outcome(row_loop_load_records, path)


_HEADER = b"user_id,object_id,level\n"


@pytest.mark.parametrize("data, canonical", [
    (_HEADER + b"0,1,2\n\n\n1,1,3\n", False),  # blank lines
    (_HEADER + b'"0","1","2"\n1," 1",+3\n', False),  # quoted fields, a space and a sign
    (_HEADER + b"0,1,2\na,1,2\n1,2\n", False),  # a short row after a bad integer
    (_HEADER + b"1,2\n0,a,2\n", False),  # a bad integer after a short row
    (_HEADER + b"0,1,2\n\n1,9223372036854775808,3\n", False),  # beyond int64, blank line
    (_HEADER + b"0,1,2\n-9223372036854775809,1,3\n", False),
    (_HEADER + b"0,1,2\n\n0,1,3\n", False),  # a repeated pair after a blank line
    (_HEADER + b"0,1,7\n1,1,1,1\n", False),  # a bad level before a long row
    (_HEADER, True),
    (_HEADER + b"007,0,3\n1,00,05\n", True),
    (_HEADER + b"999999999999999999,0,3\n", True),
    (_HEADER + b"1000000000000000000,0,3\n", False),  # 19 digits, within int64
    (_HEADER + b"0,1,2\n1,1,3", False),
    (_HEADER.replace(b"\n", b"\r\n") + b"0,1,2\r\n1,1,3\r\n", False),
    (_HEADER + b"0,1,2\n\n", False),
    (_HEADER + b"0,+1,2\n-0,1,3\n", False),
    (_HEADER + b"0,-1,2\n", False),
    (_HEADER + "0,\u0661,2\n".encode(), False),
    (_HEADER + b"0,1,2\n\xff,1,2\n", False),
], ids=["blank lines", "quoted", "short after bad int", "bad int after short",
        "int64 overflow", "int64 underflow", "repeat", "bad level then long row",
        "header only", "leading zeros", "18 digits", "19 digits", "no final lf", "crlf",
        "trailing blank line", "plus and minus signs", "negative id", "arabic-indic digit",
        "not utf-8"])
def test_loader_matches_row_loop_oracle_on_examples(tmp_path, data, canonical):
    # the bulk parse reads exactly the canonical bytes; the rest goes to csv.reader
    path = tmp_path / "r.csv"
    path.write_bytes(data)
    assert (_canonical_table(data) is not None) == canonical
    expected = _load_outcome(row_loop_load_records, path)
    if isinstance(expected, tuple) and expected[0] is UnicodeDecodeError:  # names no line
        line = data.count(b"\n", 0, data.index(b"\xff")) + 1
        expected = ValueError, f"line {line} is not UTF-8 ({expected[1]})"
    assert _load_outcome(load_records, path) == expected


@pytest.mark.parametrize("rows", [[], [(u, o, (u + o) % 5 + 1) for u in range(30)
                                       for o in range(96)]], ids=["empty", "dense"])
def test_save_matches_csv_writer_on_empty_and_dense_tables(tmp_path, rows):
    path = tmp_path / "r.csv"
    records = SparseAttentionRecords(rows)
    save_records(records, path)
    assert path.read_bytes() == csv_writer_text(
        CSV_HEADER, FrozensetRecords(frozenset(rows)).sorted_list()).encode()
    assert load_records(path) == records


@pytest.mark.parametrize("records, message", [
    ([(0, 0, 2.5)], "non-integer field 2.5 in record (0, 0, 2.5)"),
    ([(0, 0.9, 3)], "non-integer field 0.9 in record (0, 0.9, 3)"),
    ([(0, 0, True)], "non-integer field True in record (0, 0, True)"),
    ([(0, 0, "3")], "non-integer field '3' in record (0, 0, '3')"),
    (np.array([[0., 0., 3.7]]), "non-integer field 0.0 in record (0.0, 0.0, 3.7)"),
    ([(0, 0)], "expected 3 fields, got 2, in record (0, 0)"),
    ([(0, 0, 1, 2)], "expected 3 fields, got 4, in record (0, 0, 1, 2)"),
    ([(0, 0, 2**63)], "field 9223372036854775808 outside the 64-bit integer range"),
    (np.array([[0, 0, 2**64 - 1]], dtype=np.uint64), "field 18446744073709551615 outside"),
], ids=["float level", "float object", "bool level", "str level", "float array",
        "2-tuple", "4-tuple", "beyond int64", "uint64 beyond int64"])
def test_constructor_rejects_record_that_is_not_three_integers(records, message):
    # each used to be cast (level 2, object 0, level 1, level 3, level 3) or
    # to fail in numpy's reshape without naming the record
    with pytest.raises(InvalidRecordError) as err:
        SparseAttentionRecords(records)
    assert str(err.value).startswith(message)
    assert err.value.index == 0


def test_constructor_names_first_faulty_record_of_any_kind_in_input_order():
    with pytest.raises(InvalidRecordError, match=r"^level 9 out of range") as err:
        SparseAttentionRecords([(0, 1, 3), (0, 2, 9), (0, 3, 2.0)])
    assert err.value.index == 1
    with pytest.raises(InvalidRecordError, match=r"^duplicate pair \(0, 1\)") as err:
        SparseAttentionRecords([(0, 1, 3), (0, 1, 4), (0, 3, True), (0, 4, 9)])
    assert err.value.index == 1
    with pytest.raises(InvalidRecordError, match=r"^non-integer field 2\.0") as err:
        SparseAttentionRecords([(0, 1, 3), (0, 3, 2.0), (0, 2, 9), (0, 1, 4)])
    assert err.value.index == 1


@pytest.mark.parametrize("records", [
    [(np.int64(1), 2, 3), (0, np.int32(5), np.uint8(1))],
    np.array([[1, 2, 3], [0, 5, 1]], dtype=np.int8),
    np.array([[1, 2, 3], [0, 5, 1]], dtype=np.uint32),
    np.array([[1, 2, 3], [0, 5, 1]], dtype=np.int64),
], ids=["python and numpy ints", "int8 array", "uint32 array", "int64 array"])
def test_constructor_takes_integers_of_any_integer_type(records):
    records = SparseAttentionRecords(records)
    assert records.sorted_list() == [(0, 5, 1), (1, 2, 3)]
    # a numpy int compares equal to an int, so the types are checked apart
    for rows in (list(records), records.sorted_list(), records.records):
        assert {type(row) for row in rows} == {tuple}
        assert {type(field) for row in rows for field in row} == {int}


@pytest.mark.parametrize("records", [(), [], np.zeros((0, 3)), np.zeros(0, dtype=np.int64)],
                         ids=["tuple", "list", "float array", "1-d int array"])
def test_empty_table_is_valid(records):
    assert len(SparseAttentionRecords(records)) == 0


def _saved_tables():
    """Tables that ``save_records`` writes: the records and the 30 x 96
    dense dump of the default world at master seeds 0-9 and gaze noise 0
    and 0.1, an empty table and 18-digit ids."""
    for gaze_noise in 0.0, 0.1:
        config = dataclasses.replace(WorldConfig(), gaze_noise=gaze_noise)
        for seed in range(10):
            world = generate_world(config, seed)
            yield f"seed {seed}, noise {gaze_noise}", sparsify(world, range(world.num_users), seed)
            levels = ground_truth_levels(world).levels
            users, objects = np.indices(levels.shape).reshape(2, -1)
            yield f"dense, seed {seed}, noise {gaze_noise}", SparseAttentionRecords(
                np.column_stack((users, objects, levels.ravel())))
    yield "empty", SparseAttentionRecords()
    big = 10**18 - 1
    yield "18 digits", SparseAttentionRecords([(big, big, 5), (0, big, 1), (big - 7, 0, 3)])


@pytest.fixture()
def no_csv_reader(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("csv.reader was called")
    monkeypatch.setattr("attnalloc.records.csv.reader", refuse)


def test_saved_records_load_without_csv_reader(tmp_path, no_csv_reader):
    # a saved file that fell through to csv.reader would load about twice
    # as slowly
    tables = dict(_saved_tables())
    assert len(tables) == 42 and len(tables["dense, seed 0, noise 0.0"]) == 30 * 96
    for name, records in tables.items():
        path = tmp_path / f"{name}.csv"
        save_records(records, path)
        assert load_records(path) == records, name


@pytest.mark.parametrize("body, message", [
    ("0,0,1\n0,1,6\n", "line 3: level 6 out of range 1..5 in record (0, 1, 6)"),
    ("0,1,2\n0,0,1\n0,1,3\n", "line 4: duplicate pair (0, 1) in record (0, 1, 3)"),
    ("0,0,0\n", "line 2: level 0 out of range 1..5 in record (0, 0, 0)"),
])
def test_bulk_path_names_line(tmp_path, no_csv_reader, body, message):
    path = tmp_path / "r.csv"
    path.write_bytes(("user_id,object_id,level\n" + body).encode())
    with pytest.raises(RecordsParseError) as err:
        load_records(path)
    assert str(err.value) == f"{path}: {message}"


_ARABIC_INDIC = str.maketrans("0123456789", "\u0660\u0661\u0662\u0663\u0664"
                                            "\u0665\u0666\u0667\u0668\u0669")
_FULLWIDTH = str.maketrans("0123456789", "\uff10\uff11\uff12\uff13\uff14"
                                         "\uff15\uff16\uff17\uff18\uff19")
_levels = st.sampled_from([1, 2, 3, 4, 5] * 4 + [0, 6])
_FIELD_EDITS = {
    "leading zeros": lambda field: "00" + field,
    "arabic-indic": lambda field: field.translate(_ARABIC_INDIC),
    "fullwidth": lambda field: field.translate(_FULLWIDTH),
    "negative": lambda field: "-" + field,
    "18 digits": lambda field: "9" * 18,
    "19 digits": lambda field: "1" + "0" * 18,
    "19 digits beyond int64": lambda field: "9" * 19,
}
_TEXT_EDITS = ["header with spaces", "crlf", "lone cr", "blank line", "no final newline"]


@st.composite
def near_canonical_csv(draw):
    """Text that ``save_records`` could write (any order, repeated pairs,
    levels 0 and 6 included), then up to two field edits (leading zeros,
    Arabic-Indic or fullwidth digits, a negative id, 18 or 19 digits) and
    up to two text edits (a header with spaces, CRLF line ends, a lone CR,
    one blank line, no final newline)."""
    rows = [list(map(str, row)) for row in draw(st.lists(
        st.tuples(st.integers(0, 12), st.integers(0, 40), _levels), max_size=8))]
    for edit in draw(st.lists(st.sampled_from(sorted(_FIELD_EDITS)), max_size=2)) if rows else ():
        row, column = draw(st.sampled_from(rows)), draw(st.integers(0, 2))
        row[column] = _FIELD_EDITS[edit](row[column])
    lines = list(map(",".join, rows))
    edits = draw(st.lists(st.sampled_from(_TEXT_EDITS), max_size=2, unique=True))
    if "blank line" in edits:
        lines.insert(draw(st.integers(0, len(lines))), "")
    header = "user_id, object_id ,level" if "header with spaces" in edits else ",".join(CSV_HEADER)
    text = "".join(line + "\n" for line in [header, *lines])
    if "crlf" in edits:
        text = text.replace("\n", "\r\n")
    if "lone cr" in edits:
        at = draw(st.sampled_from([i for i, c in enumerate(text) if c == "\n"]))
        text = text[:at] + "\r" + text[at + 1:]
    return text[:-1] if "no final newline" in edits else text


@given(near_canonical_csv())
@settings(max_examples=400, deadline=None)
def test_loader_matches_row_loop_oracle_on_near_canonical_text(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("records") / "r.csv"
    path.write_bytes(text.encode("utf-8"))
    assert _load_outcome(load_records, path) == _load_outcome(row_loop_load_records, path)


# the former fault tests of this module, which run rows of the catalogue
globals().update(former_tests("test_records"))
