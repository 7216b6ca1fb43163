"""The fault catalogue: one table per input surface, and one check per kind
of row.

The surfaces are the world, model, records and config files, and the
library's arguments. A row is an edit of a known-good input, the error class
it must raise and its full message. A file row runs through the library
loader, which must raise ``<path>: <message>``, and through the CLI command
that reads the file, which must exit 2 with empty stdout, the one line
``error: <path>: <message>`` on stderr and no output file. A file row that
names a command holds a fault that loading cannot see: the loader must read
the file, and that command, whose later stage finds the fault, must exit as
above. An argument row
runs through its library call, and through the CLI where a flag carries the
argument (exit 2, empty stdout, ``error: <message>``, nothing written).
Edits are applied without catching anything, and every unedited input must
succeed, so no row passes without its fault. A new fault is one row.

Each row runs once: under the id of the test it replaced, where other test
modules keep that id (``former_tests``), else under ``test_fault`` here."""

import dataclasses
import functools
import json
import math
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from attnalloc import (AllocationProblem, FitConfig, GroundTruthLevels, QoETerms,
                       SparseAttentionRecords, SweepReport, UserReport, World, WorldConfig,
                       allocate_uniform, allocate_weighted, evaluate, fit_baseline, fit_mf,
                       generate_world, ground_truth_levels, load_records, load_world,
                       predict_scene, quantize_levels, sparsify)
from attnalloc.allocate import InfeasibleError, allocation_summary
from attnalloc.cli import EXIT_DATA, EXIT_OK, cli_main
from attnalloc.config import ConfigFileError, load_config
from attnalloc.experiment import ExperimentConfig, ExperimentRunner
from attnalloc.mf import EvaluationError, FitError, holdout_mask, load_model, observed_mask
from attnalloc.qoe import ChannelConfig, ChannelError, LinkParams, qoe
from attnalloc.records import InvalidRecordError, RecordsParseError
from attnalloc.schema import number_array
from attnalloc.world import ConfigurationError, raw_attention_values, world_to_dict
from oracles import world_from_pixels


class Row(NamedTuple):
    id: str
    # a function that changes the base in place (and returns None) or returns a new
    # input, or the new input itself; for an argument row, the arguments that replace
    # the base's
    edit: object
    error: type
    message: str
    # an argument row's CLI flags, where flags carry its arguments; a file row's
    # command that finds a fault the loader cannot see (its error is then None)
    cli: object = None


class Bytes(NamedTuple):
    """An edit of a file's bytes rather than of its document or text."""
    edit: object


# two users, two objects, two images in two groups
_MANUAL_WORLD = world_from_pixels([[10, 20], [5, 0]], group_of=[0, 1], labels=("a", "b"),
                                  interest=[[0.5, 0.5], [0.25, 0.75]], seed=0)


def _image_3(change):
    """An edit of a world document: ``change(image, entry)`` on image 3 and
    its first composition entry."""
    return lambda doc: change(doc["images"][3], doc["images"][3]["composition"][0])


def _swap_images_3_and_4(doc):
    doc["images"][3], doc["images"][4] = doc["images"][4], doc["images"][3]


def _double_groups(doc):
    for image in doc["images"]:
        image["group"] *= 2


def _bad_byte_in_line_3(data: bytes) -> bytes:
    lines = data.split(b"\n")
    lines[2] = b"\xff" + lines[2]
    return b"\n".join(lines)


_NOT_UTF8 = ("line 3 is not UTF-8 ('utf-8' codec can't decode byte 0xff in position {}: "
             "invalid start byte)")


def _compact(change):
    """An edit that applies ``change`` to a document, then writes it as
    compact JSON rather than in the package's indent-1 layout."""
    return lambda doc: json.dumps(change(doc) or doc)


_NOT_NUMBERS_ROW = "world file: interest row 2 is not a list of numbers"
# the small world of SMALL_CONFIG: 4 users, 24 objects, 60 images in 3 groups
WORLD_ROWS = [
    Row("object id -1", _image_3(lambda image, entry: entry.__setitem__(0, -1)), ValueError,
        "image 3: object id -1 outside 0..23"),
    Row("object id past the catalog", _image_3(lambda image, entry: entry.__setitem__(0, 24)),
        ValueError, "image 3: object id 24 outside 0..23"),
    Row("duplicate image id", _image_3(lambda image, entry: image.update(id=2)), ValueError,
        "image 3 has id 2; ids must run 0, 1, 2, ..."),
    Row("negative group", _image_3(lambda image, entry: image.update(group=-1)), ValueError,
        "image 3 has group -1, not an integer in 0..59"),
    Row("repeated object", _image_3(lambda image, entry: image["composition"].append(
        [entry[0], 50])), ValueError, "image 3 repeats object 4"),
    Row("pixel count 0", _image_3(lambda image, entry: entry.__setitem__(1, 0)), ValueError,
        "image 3: object 4 has 0 pixels, not 1..2**31-1"),
    Row("empty composition", _image_3(lambda image, entry: image.update(composition=[])),
        ValueError, "image 3 has no objects"),
    Row("id out of order", _swap_images_3_and_4, ValueError,
        "image 3 has id 4; ids must run 0, 1, 2, ..."),
    Row("fractional object id", _image_3(lambda image, entry: entry.__setitem__(0, 4.7)),
        ValueError, "image 3: composition entry [4.7, 1246] is not two integers"),
    Row("fractional pixel count", _image_3(lambda image, entry: entry.__setitem__(1, 1246.5)),
        ValueError, "image 3: composition entry [4, 1246.5] is not two integers"),
    Row("bool object id", _image_3(lambda image, entry: entry.__setitem__(0, True)), ValueError,
        "image 3: composition entry [True, 1246] is not two integers"),
    Row("string pixel count", _image_3(lambda image, entry: entry.__setitem__(1, "1246")),
        ValueError, "image 3: composition entry [4, '1246'] is not two integers"),
    Row("fractional group", _image_3(lambda image, entry: image.update(group=0.5)), ValueError,
        "image 3 has group 0.5, not an integer in 0..59"),
    Row("string image id", _image_3(lambda image, entry: image.update(id="3")), ValueError,
        "image 3 has id '3'; ids must run 0, 1, 2, ..."),
    *(Row(f"no {key}", lambda doc, key=key: doc.__delitem__(key), ValueError,
          f"world file has no {key!r}")
      for key in ("catalog", "images", "interest", "num_users", "seed", "gaze_noise")),
    *(Row(f"image without {key}", lambda doc, key=key: doc["images"][3].__delitem__(key),
          ValueError, f"image 3 has no {key!r}") for key in ("id", "group", "composition")),
    Row("group gaps", _double_groups, ValueError,
        "group ids must cover 0..4; group 1 has no images"),
    *(Row(f"seed {seed!r}, gaze noise {noise}",
          lambda doc, seed=seed, noise=noise: doc.update(seed=seed, gaze_noise=noise),
          ValueError, f"seed must be a non-negative integer, got {seed!r}")
      for seed in (-1, 2.5, True) for noise in (0.0, 0.1)),
    *(Row(f"gaze_noise {noise}", lambda doc, noise=noise: doc.update(gaze_noise=noise),
          ValueError, f"gaze_noise must lie in [0, 1), got {noise}") for noise in (False, True)),
    *(Row(f"num_users {value!r}{layout}", edit(lambda doc, value=value: doc.update(
        num_users=value)), ValueError, f"interest matrix has shape (4, 24) for {value!r} users")
      for value in (True, 1.0) for layout, edit in (("", lambda change: change),
                                                   (", compact", _compact))),
    *(Row(f"interest {name}", lambda doc, value=value: doc["interest"][2].__setitem__(5, value),
          ValueError, message) for name, value, message in (
        ("null", None, _NOT_NUMBERS_ROW), ("string", "0.5", _NOT_NUMBERS_ROW),
        ("NaN", math.nan, "interest of user 2 in object 5 is nan, not a finite number in (0, 1]"),
        ("above 1", 1.5, "interest of user 2 in object 5 is 1.5, not a finite number in (0, 1]"),
        ("int beyond float64", 10**400, _NOT_NUMBERS_ROW))),
    Row("ragged interest row", lambda doc: doc["interest"][2].__delitem__(-1), ValueError,
        "world file: interest row 2 has 23 entries, not 24"),
    Row("catalog of lists", lambda doc: doc.update(catalog=[[i] for i in range(24)]),
        ValueError, "catalog label 0 is [0], not a string"),
    Row("catalog of ints", lambda doc: doc.update(catalog=list(range(24))), ValueError,
        "catalog label 0 is 0, not a string"),
    Row("repeated label", lambda doc: doc["catalog"].__setitem__(23, doc["catalog"][0]),
        ValueError, "catalog label 'object_000' is not unique"),
    Row("images empty", lambda doc: doc.update(images=[]), ValueError,
        "world file: 'images' must list at least one image"),
    Row("version 999", lambda doc: doc.update(version="uoal-sim/999"), ValueError,
        "unsupported world file version 'uoal-sim/999'"),
    Row("invalid utf-8 byte", Bytes(_bad_byte_in_line_3), ValueError,
        _NOT_UTF8.format(28)),
    Row("truncated", Bytes(lambda data: data[:40]), ValueError,
        "Expecting property name enclosed in double quotes: line 4 column 1 (char 40)"),
    Row("deep nesting", b"[" * 100_000, ValueError, "nested too deeply to parse"),
]

_MODEL_KEYS = ("user_factors", "object_factors", "user_bias", "object_bias", "mu",
               "num_users", "num_objects", "f")
# the row of each array of the model document that a value is put into
_MODEL_ROWS = {"user_bias": 1, "object_bias": 2, "user_factors": 1, "object_factors": 2}
_NOT_NUMBERS = {"bool": True, "string": "0.25", "null": None, "int beyond float64": 10**400,
                "list": [0.5]}


def _put(name: str, value):
    """An edit that puts ``value`` into row ``_MODEL_ROWS[name]`` of a model
    array: as the row's entry for a bias, as its first entry for factors."""
    def edit(doc):
        row = doc[name] if name.endswith("bias") else doc[name][_MODEL_ROWS[name]]
        row[_MODEL_ROWS[name] if name.endswith("bias") else 0] = value
    return edit


def _ragged_then(change):
    """An edit that makes user_factors row 2 one entry longer, then applies
    ``change`` to the model document."""
    def edit(doc):
        doc["user_factors"][2].append(0.0)
        change(doc)
    return edit


# the model fitted on the small world's records: 4 users, 24 objects, f = 6
MODEL_ROWS = [
    *(Row(f"no {key}", lambda doc, key=key: doc.__delitem__(key), ValueError,
          f"model file has no {key!r}") for key in _MODEL_KEYS),
    Row("5-entry user_bias", lambda doc: doc.update(user_bias=[0.0] * 5), ValueError,
        "user_bias has shape (5,) for 4 rows of user_factors"),
    Row("1-D user_factors", lambda doc: doc.update(user_factors=[0.0, 0.0]), ValueError,
        "user_factors must be a 2-D matrix with at least one row, got shape (2,)"),
    Row("1-D object_factors", lambda doc: doc.update(object_factors=[0.0, 0.0]), ValueError,
        "object_factors must be a 2-D matrix with at least one row, got shape (2,)"),
    Row("JSON list", lambda doc: [doc], ValueError,
        "model file must hold a JSON object, not a list"),
    Row("string mu", lambda doc: doc.update(mu="3"), ValueError,
        "model file: 'mu' must be a number, got '3'"),
    Row("bool mu", lambda doc: doc.update(mu=True), ValueError,
        "model file: 'mu' must be a number, got True"),
    Row("NaN mu", lambda doc: doc.update(mu=math.nan), ValueError, "mu must be finite, got nan"),
    Row("mu beyond float64", lambda doc: doc.update(mu=10**400), ValueError,
        f"model file: 'mu' must be a number, got {10**400}"),
    Row("ragged user_factors", _ragged_then(lambda doc: None), ValueError,
        "model file: 'user_factors' row 2 has 7 entries, not 6"),
    Row("ragged user_factors, row 1 empty",
        _ragged_then(lambda doc: doc["user_factors"].__setitem__(1, [])), ValueError,
        "model file: 'user_factors' row 1 has 0 entries, not 6"),
    Row("ragged user_factors, a bool in row 2",
        _ragged_then(lambda doc: doc["user_factors"][2].__setitem__(0, True)), ValueError,
        "model file: 'user_factors' row 2 is not a list of numbers"),
    *(Row(f"{kind} in {name}", _put(name, value), ValueError,
          f"model file: {name!r} row {row} is {value!r}, not a number" if name.endswith("bias")
          else f"model file: {name!r} row {row} is not a list of numbers")
      for name, row in _MODEL_ROWS.items() for kind, value in _NOT_NUMBERS.items()),
    Row("object_factors row a number", lambda doc: doc["object_factors"].__setitem__(1, 0.5),
        ValueError, "model file: 'object_factors' row 1 is not a list of numbers"),
    Row("user_bias a number", lambda doc: doc.update(user_bias=0.5), ValueError,
        "model file: 'user_bias' must be a list"),
    *(Row(f"{key} {value!r}", lambda doc, key=key, value=value: doc.update({key: value}),
          ValueError, f"model file: {key!r} is {value!r}, but the factors give {size}")
      for key, size in (("num_users", 4), ("num_objects", 24), ("f", 6))
      for value in (7, 99, 2.0, True, "3", None)),
    Row("version 9", lambda doc: doc.update(version="attn-mf/9"), ValueError,
        "unsupported model file version 'attn-mf/9'"),
    Row("invalid utf-8 byte", Bytes(_bad_byte_in_line_3), ValueError,
        _NOT_UTF8.format(27)),
    Row("truncated", Bytes(lambda data: data[:40]), ValueError,
        "Expecting value: line 3 column 14 (char 40)"),
    Row("deep nesting", b"[" * 100_000, ValueError, "nested too deeply to parse"),
]

_HEADER = "user_id,object_id,level\n"
_FIT = ("fit", "--config", "config", "--world", "world")
# the small world's records, as sparsify writes them
RECORDS_ROWS = [
    *(Row(f"rows {body!r}", _HEADER + body, RecordsParseError, message) for body, message in (
        ("-1,0,5\n0,0,1\n1,1,3\n", "line 2: negative user or object id in record (-1, 0, 5)"),
        ("-1,0,5\n", "line 2: negative user or object id in record (-1, 0, 5)"),
        ("0,-1,5\n0,0,1\n1,1,3\n", "line 2: negative user or object id in record (0, -1, 5)"),
        ("0,0,1\n1,-2,3\n", "line 3: negative user or object id in record (1, -2, 3)"),
        ("3,12,6\n", "line 2: level 6 out of range 1..5 in record (3, 12, 6)"),
        ("3,12,0\n", "line 2: level 0 out of range 1..5 in record (3, 12, 0)"),
        ("a,2,3\n", "line 2: non-integer field in ['a', '2', '3']"),
        ("1,2\n", "line 2: expected 3 fields, got 2"),
        ("1,2,3\n1,2,4\n", "line 3: duplicate pair (1, 2) in record (1, 2, 4)"),
        ("99999999999999999999,2,3\n",
         "line 2: field outside the 64-bit integer range in [99999999999999999999, 2, 3]"),
        ("1,-99999999999999999999,3\n",
         "line 2: field outside the 64-bit integer range in [1, -99999999999999999999, 3]"),
        ("0,0,3\n\n1,99999999999999999999,2\n",
         "line 4: field outside the 64-bit integer range in [1, 99999999999999999999, 2]"),
        ("0,0,3\n\n1,-99999999999999999999,2\n",
         "line 4: field outside the 64-bit integer range in [1, -99999999999999999999, 2]"))),
    Row("overlong field", _HEADER + "0,0,3\n\n1," + "1" * 131_073 + ",2\n", RecordsParseError,
        "line 4: field larger than field limit (131072)"),
    Row("overlong header field", "user_id," + "x" * 200_000 + "\n", RecordsParseError,
        "line 1: field larger than field limit (131072)"),
    Row("no header", "0,1,2\n", RecordsParseError,
        "line 1: expected header 'user_id,object_id,level', got ['0', '1', '2']"),
    Row("invalid utf-8 byte", Bytes(_bad_byte_in_line_3), ValueError,
        _NOT_UTF8.format(30)),
    Row("world file", json.dumps(world_to_dict(_MANUAL_WORLD), indent=1), RecordsParseError,
        "line 1: expected header 'user_id,object_id,level', got ['{']"),
    Row("level out of range", lambda text: text.replace("\n", "\n0,0,9\n", 1),
        RecordsParseError, "line 2: level 9 out of range 1..5 in record (0, 0, 9)"),
    # faults of files that load, found by the fit or the evaluation
    Row("header only", _HEADER, None, "cannot fit on empty records", cli=_FIT),
    *(Row(f"record outside the world, {command[0]}", lambda text: text + "4,1,3\n", None,
          "record pair (4, 1) lies outside the model's 4 users x 24 objects", cli=command)
      for command in (_FIT, ("eval", "--model", "model", "--world", "world"))),
]

CONFIG_ROWS = [
    *(Row(text.strip().replace("\n", " "), text, ConfigFileError, message)
      for text, message in (
        ("[world]\nnum_users = many\n", "cannot parse num_users = 'many'"),
        ("[world]\nobject_popularity_exponent = 400.0\n",
         "invalid [world] section: object_popularity_exponent 400.0 leaves 6 objects with "
         "positive weight, fewer than max_objects_per_image 12"),
        ("[fit]\nregularization = 0\n",
         "invalid [fit] section: regularization must be positive, got 0.0"),
        ("[fit]\nlearning_rate = nan\n", "unknown key 'learning_rate' in [fit]"),
        ("[fit]\nregularization = nan\n",
         "invalid [fit] section: regularization must be finite, got nan"),
        ("[fit]\ninit_scale = inf\n", "invalid [fit] section: init_scale must be finite, got inf"),
        ("[experiment]\nsweep_factors = 20, 16\n",
         "invalid [experiment] section: sweep_factors must be strictly increasing, got "
         "(20.0, 16.0)"),
        ("[experiment]\nsweep_factors = 16, 16\n",
         "invalid [experiment] section: sweep_factors must be strictly increasing, got "
         "(16.0, 16.0)"),
        ("[experiment]\nsweep_user = -1\n",
         "invalid [experiment] section: sweep_user must be >= 0, got -1"),
        ("[world]\ngroup_bias = nan\n",
         "invalid [world] section: group_bias must be finite, got nan"),
        ("[world]\ngroup_bias = inf\n",
         "invalid [world] section: group_bias must be finite, got inf"),
        ("[world]\nobject_popularity_exponent = nan\n",
         "invalid [world] section: object_popularity_exponent must be finite, got nan"),
        ("[world]\ninterest_exponent = nan\n",
         "invalid [world] section: interest_exponent must be finite, got nan"),
        ("[channel]\ndistance = nan\n",
         "invalid [channel] section: distance must be finite, got nan"),
        ("[link]\ndownlink_rate = nan\nuplink_ber = 0\n",
         "invalid [link] section: downlink_rate must be finite, got nan"),
        ("[experiment]\nsweep_factors = 16, nan\n",
         "invalid [experiment] section: sweep_factors must be finite numbers in a tuple, "
         "got (16.0, nan)"),
        ("[experiment]\nsweep_factors = sixteen\n", "cannot parse sweep_factors = 'sixteen'"),
        ("[experiment]\nsweep_factors =\n",
         "invalid [experiment] section: sweep_factors must be non-empty"),
        ("[link]\nrate = 1\n", "unknown key 'rate' in [link]"),
        ("[link]\ndownlink_rate = -2\nuplink_ber = 0\n",
         "invalid [link] section: downlink_rate must be positive"),
        ("[link]\ndownlink_rate = 5.5\n", "[link] must set uplink_ber"),
        ("[link]\nuplink_ber = 0.125\n", "[link] must set downlink_rate"),
        ("[link]\n", "[link] must set downlink_rate and uplink_ber"),
        ("[nonsense]\nx = 1\n", "unknown section [nonsense]"),
        ("[world]\nnum_planets = 3\n", "unknown key 'num_planets' in [world]"),
        ("[experiment]\nbudget = 7\n", "unknown key 'budget' in [experiment]"),
        ("[DEFAULT]\nf = 3\n", "unknown section [DEFAULT]"),
        ("[DEFAULT]\n", "unknown section [DEFAULT]"),
        ("[fit]\nf = 3\n[DEFAULT]\nepochs = 2\n", "unknown section [DEFAULT]"),
        ("[experiment]\nmaster_seed = 5%\n", "cannot parse master_seed = '5%'"),
        ("[fit]\nf = %(x)s\n", "cannot parse f = '%(x)s'"),
        ("not an ini file", "malformed config file: line 1: file contains no section headers"),
        ("[experiment]\nfloor_k = 15\nbudget_per_object_k = 5\n",
         "invalid [experiment] section: budget_per_object_k must exceed floor_k"),
        ("[world]\nnum_users = 0\n", "invalid [world] section: num_users must be >= 1, got 0"),
        ("[fit]\nepochs = 0\n", "invalid [fit] section: epochs must be >= 1"),
        ("[channel]\ntx_antennas = 0\n", "invalid [channel] section: antenna counts must be >= 1"),
        ("[fit]\nepochs 3\n", "malformed config file: line 2: expected [section] or key = value"),
        ("[fit]\nepochs = 3\n[fit]\n", "malformed config file: line 3: duplicate section [fit]"),
        ("[fit]\nepochs = 3\nepochs = 4\n",
         "malformed config file: line 3: duplicate key 'epochs' in [fit]"),
        ("[fit]\nlearning_rate = 0.01\n", "unknown key 'learning_rate' in [fit]"))),
    Row("unknown section after the good text", lambda text: text + "\n[render]\nscale = 2\n",
        ConfigFileError, "unknown section [render]"),
    Row("invalid utf-8 byte", Bytes(_bad_byte_in_line_3), ValueError,
        _NOT_UTF8.format(40)),
]


class FileSurface(NamedTuple):
    load: object  # the library loader
    command: tuple  # the CLI command that reads the file, with the good files it needs


FILES = {
    "world": (FileSurface(load_world, ("sparsify", "--config", "config")), WORLD_ROWS),
    "model": (FileSurface(load_model, ("eval", "--world", "world")), MODEL_ROWS),
    "records": (FileSurface(load_records, _FIT), RECORDS_ROWS),
    "config": (FileSurface(load_config, ("generate",)), CONFIG_ROWS),
}


def _edited(name: str, edit, files) -> bytes:
    """The bytes of good file ``name`` after ``edit``: a ``Bytes`` edit takes
    the bytes, any other function the document of a JSON file or the text
    of another, and an edit that is not a function is the new input. A dict
    or list is written in the package's indent-1 layout."""
    data = Path(files[name]).read_bytes()
    if isinstance(edit, Bytes):
        edit = edit.edit(data)
    elif callable(edit):
        base = json.loads(data) if name in ("world", "model") else data.decode()
        value = edit(base)
        edit = base if value is None else value
    if isinstance(edit, (dict, list)):
        edit = json.dumps(edit, indent=1) + "\n"
    return edit.encode() if isinstance(edit, str) else edit


def run_cli(capsys, argv) -> tuple:
    code = cli_main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _file_argv(name: str, path, files, out, command=None) -> list:
    """The CLI command (by default the one of file ``name``) that reads file
    ``name`` from ``path``, with the good files it needs and ``--out``."""
    command, *rest = command or FILES[name][0].command
    return [command, *(files.get(arg, arg) for arg in rest), f"--{name}", str(path),
            "--out", str(out)]


def check_file_row(name, row, files, folder, capsys):
    path, out = folder / f"bad.{name}", folder / "out"
    path.write_bytes(_edited(name, row.edit, files))
    if row.cli:  # a fault that loading cannot see
        FILES[name][0].load(path)
    else:
        with pytest.raises(row.error) as raised:
            FILES[name][0].load(path)
        assert (type(raised.value), str(raised.value)) == (row.error, f"{path}: {row.message}")
    assert run_cli(capsys, _file_argv(name, path, files, out, row.cli)) \
        == (EXIT_DATA, "", f"error: {path}: {row.message}\n")
    assert not list(folder.glob("out*"))


@functools.cache
def _good(name: str, path: str):
    """The good file ``name`` at ``path``, loaded once."""
    return FILES[name][0].load(path)


def _loaded(name):
    return lambda files: _good(name, files[name])


_world, _model, _records, _config = map(_loaded, ("world", "model", "records", "config"))


def _allocate(files, weights, budget, floor):
    problem = AllocationProblem(weights, budget, floor)
    return allocation_summary(problem, allocate_weighted(problem))


_THREE_RECORDS = SparseAttentionRecords([(2, 0, 5), (0, 0, 3), (0, 1, 4)])


class Call(NamedTuple):
    run: object  # run(files, **arguments)
    base: dict  # good arguments
    cli: tuple = None  # the command whose flags carry the arguments, and its good flags


def _build(cls, **base):
    return Call(lambda files, **fields: cls(**fields), base)


def _replace(loaded):
    return Call(lambda files, **fields: dataclasses.replace(loaded(files), **fields), {})


CALLS = {
    "allocate": Call(_allocate, dict(weights=[4.0, 1.0], budget=40.0, floor=15.0),
                     ("allocate", {"--weights": "4,1", "--budget": "40", "--floor": "15"})),
    "allocate_uniform": Call(lambda files, **args: allocate_uniform(**args),
                             dict(n_objects=2, budget=40.0, floor=15.0)),
    "qoe": Call(lambda files, weights, capacities: qoe(QoETerms(weights, capacities,
                                                                LinkParams(1.0, 0.0))),
                dict(weights=[1.0, 2.0], capacities=[2.0, 3.0])),
    "predict_scene": Call(lambda files, user, objects: predict_scene(_model(files), user,
                                                                     objects),
                          dict(user=0, objects=[0, 1])),
    "predictor": Call(lambda files, users, objects: _model(files).predictor()(users, objects),
                      dict(users=[0, 1], objects=[0, 1])),
    "sparsify": Call(lambda files, users, seed, world=None: sparsify(
        _world(files) if world is None else world, users, seed),
                     dict(users=0, seed=0),
                     ("sparsify", {"--config": "config", "--world": "world", "--user": "0",
                                   "--seed": "0"})),
    "raw_attention_values": Call(lambda files, user, image_ids: raw_attention_values(
        _world(files), user, image_ids), dict(user=0, image_ids=[0, 1])),
    "sweep": Call(lambda files, user: ExperimentRunner(_config(files)).sweep(user),
                  dict(user=1), ("sweep", {"--config": "config", "--user": "1"})),
    "holdout_mask": Call(lambda files, records=None, **args: holdout_mask(
        _records(files) if records is None else records, **args),
        dict(num_users=4, num_objects=24, fraction=0.25, seed=0)),
    "generate_world": Call(lambda files, config, seed: generate_world(config, seed),
                           dict(config=WorldConfig(num_users=1, num_objects=4, num_images=4,
                                                   num_groups=1, max_objects_per_image=4),
                                seed=0)),
    "SparseAttentionRecords": Call(lambda files, records: SparseAttentionRecords(records),
                                   dict(records=[(0, 0, 3)])),
    "World": _replace(lambda files: _MANUAL_WORLD),
    "World fields": Call(lambda files, **fields: World(**fields), dict(
        indptr=[0, 1], objects=[0], counts=[3], group_of=[0], labels=("a",), interest=[[0.5]],
        seed=0)),
    "ground_truth_levels": Call(lambda files, world: ground_truth_levels(world),
                                dict(world=_MANUAL_WORLD)),
    "quantize_levels": Call(lambda files, values: quantize_levels(values),
                            dict(values=[0.2, 0.1])),
    "observed_mask": Call(lambda files, records, num_users, num_objects: observed_mask(
        records, num_users, num_objects), dict(records=_THREE_RECORDS, num_users=np.int64(3),
                                               num_objects=np.uint8(5))),
    "fit_mf": Call(lambda files, records, num_users, num_objects: fit_mf(
        records, FitConfig(epochs=1), num_users, num_objects),
        dict(records=_THREE_RECORDS, num_users=3, num_objects=5)),
    "fit_baseline": Call(lambda files, records: fit_baseline(records),
                         dict(records=_THREE_RECORDS)),
    "evaluate": Call(lambda files, predict, mask: evaluate(
        predict, GroundTruthLevels(np.full((2, 2), 5)), mask),
        dict(predict=lambda users, objects: np.full(len(users), 3.0),
             mask=(np.array([0, 1]), np.array([0, 1])))),
    "truth_raw": Call(lambda files, user: ExperimentRunner(_config(files)).truth_raw(user),
                      dict(user=0)),
    "scene_objects": Call(lambda files, user: ExperimentRunner(_config(files)).scene_objects(
        user), dict(user=0)),
    "UserReport": _build(UserReport, user_id=0, n_objects=3, qoe_uniform=1.0, qoe_aware=2.0,
                         qoe_oracle=2.0, improvement_pct=100.0),
    "SweepReport": _build(SweepReport, user_id=0, points=((16.0, 1.0), (18.0, 2.0))),
    "number_array": Call(lambda files, values: number_array(values, "factors"),
                         dict(values=[[1.0, 2.0], [3.0, 4.0]])),
    "FactorModel": _replace(_model),
    **{cls.__name__: _build(cls) for cls in (WorldConfig, FitConfig, ExperimentConfig,
                                             ChannelConfig)},
    "LinkParams": _build(LinkParams, downlink_rate=4.0, uplink_ber=0.25),
}

_NAN, _INF = math.nan, math.inf
_OVERFLOW = ("the objective overflows float64; the capacities depend only on the weight ratios, "
             "so divide every weight by one factor for the same allocation")
# the arguments that AllocationProblem reads as budgets and floors, and that
# allocate_uniform reads too
_BUDGET_AND_FLOOR_ROWS = [
    Row("budget nan", dict(budget=_NAN), ValueError,
        "budget must be finite, got nan", {"--budget": "nan"}),
    Row("budget inf", dict(budget=_INF), ValueError,
        "budget must be finite, got inf", {"--budget": "inf"}),
    Row("floor nan", dict(floor=_NAN), ValueError,
        "floor must be finite, got nan", {"--floor": "nan"}),
    Row("floor inf", dict(floor=_INF), ValueError,
        "floor must be finite, got inf", {"--floor": "inf"}),
    Row("budget '40'", dict(budget="40"), ValueError, "budget must be finite, got '40'"),
    Row("floor '15'", dict(floor="15"), ValueError, "floor must be finite, got '15'"),
    Row("budget True", dict(budget=True), ValueError, "budget must be finite, got True"),
    Row("floor None", dict(floor=None), ValueError, "floor must be finite, got None"),
    Row("floor (15+0j)", dict(floor=15 + 0j), ValueError, "floor must be finite, got (15+0j)"),
]

# the dimension rules of the three calls that build observed pairs
_DIMENSION_ROWS = {name: [
    *(Row(f"dimensions {dims!r}", dict(num_users=dims[0], num_objects=dims[1]), ValueError,
          f"{which} must be a non-negative integer, got {dims[which == 'num_objects']!r}")
      for dims, which in (((-1, 5), "num_users"), ((2.0, 5), "num_users"),
                          ((True, 3), "num_users"), ((2, -1), "num_objects"),
                          ((2, np.float64(3.0)), "num_objects"))),
    *(Row(f"records outside {dims!r}", dict(records=_THREE_RECORDS, num_users=dims[0],
                                            num_objects=dims[1]), FitError,
          f"record pair {pair} lies outside the model's {dims[0]} users x {dims[1]} objects")
      for dims, pair in (((2, 5), (2, 0)), ((3, 1), (0, 1))))]
   for name in ("observed_mask", "holdout_mask", "fit_mf")}

ARGUMENT_ROWS = {
    "allocate": [
        *_BUDGET_AND_FLOOR_ROWS,
        Row("weights of strs", dict(weights=np.array(["1", "3"])), ValueError,
            "weight '1' is not a real number"),
        Row("weights of bools", dict(weights=[True, False, True]), ValueError,
            "weight True is not a real number"),
        Row("bool weight array", dict(weights=np.array([True, False])), ValueError,
            "weight True is not a real number"),
        Row("a str weight", dict(weights=[1.0, "2"]), ValueError,
            "weight '2' is not a real number"),
        Row("complex weights", dict(weights=np.array([1 + 0j, 2 + 0j])), ValueError,
            "weight (1+0j) is not a real number"),
        Row("bytes weights", dict(weights=b"\x01\x02"), ValueError,
            "weight values must form a 1-D vector, got bytes b'\\x01\\x02'"),
        Row("weight beyond float64", dict(weights=[10**400, 1]), ValueError,
            "weight of 401 digits is outside the range of float64"),
        Row("2-D weights", dict(weights=np.ones((2, 2))), ValueError,
            "weight values must form a 1-D vector, got shape (2, 2)"),
        Row("0-d weights", dict(weights=np.array(4.0)), ValueError,
            "weight values must form a 1-D vector, got shape ()"),
        Row("scalar weights", dict(weights=4.0), ValueError,
            "weight values must form a 1-D vector, got shape () for 4.0"),
        Row("no weights", dict(weights=[]), ValueError, "weights must be a non-empty 1-D vector"),
        *(Row(f"weights {weights}{kind}", dict(weights=make(weights)), ValueError,
              "weights must be finite and non-negative", cli)
          for weights in ([1.0, _NAN], [1.0, _INF], [1.0, -0.5], [_NAN, _NAN])
          for kind, make, cli in (("", list, {"--weights": ",".join(map(str, weights))}),
                                  (" as an array", np.array, None))),
        Row("floor 1", dict(weights=np.ones(2), budget=10.0, floor=1.0), ValueError,
            "floor must exceed 1 K so log terms stay positive",
            {"--weights": "1,1", "--budget": "10", "--floor": "1"}),
        Row("deficit", dict(weights=np.ones(4), budget=50.0), InfeasibleError,
            "budget 50.0 K cannot cover 4 floors of 15.0 K (deficit 10 K)",
            {"--weights": "1,1,1,1", "--budget": "50"}),
        Row("deficit of three", dict(weights=[1.0, 1.0, 1.0], budget=30.0), InfeasibleError,
            "budget 30.0 K cannot cover 3 floors of 15.0 K (deficit 15 K)",
            {"--weights": "1,1,1", "--budget": "30"}),
        Row("each term of the objective overflows",
            dict(weights=[1e308, 1e308], budget=100.0), ValueError, _OVERFLOW,
            {"--weights": "1e308,1e308", "--budget": "100"}),
        Row("the sum of the objective overflows",
            dict(weights=[1.5e308, 1.5e308], budget=5.4366, floor=1.5), ValueError, _OVERFLOW,
            {"--weights": "1.5e308,1.5e308", "--budget": "5.4366", "--floor": "1.5"}),
    ],
    "allocate_uniform": [
        *(row._replace(cli=None) for row in _BUDGET_AND_FLOOR_ROWS),
        *(Row(f"n_objects {n!r}", dict(n_objects=n), ValueError,
              f"n_objects must be an integer, got {n!r}")
          for n in (2.5, 2.0, True, "3", None, np.float64(3))),
        Row("deficit", dict(n_objects=4, budget=50.0), InfeasibleError,
            "budget 50.0 K cannot cover 4 floors of 15.0 K (deficit 10 K)"),
    ],
    "qoe": [
        Row("capacity of 1 K", dict(weights=[1.0], capacities=[1.0]), ValueError,
            "every capacity must exceed 1 K for a positive log term"),
        Row("unequal lengths", dict(capacities=[5.0]), ValueError,
            "weights and capacities must be equal-length 1-D vectors"),
        Row("zero weight", dict(weights=[0.0], capacities=[5.0]), ValueError,
            "attention weights must be positive"),
        Row("NaN weight", dict(weights=[_NAN, 2.0]), ValueError,
            "attention weights must be positive"),
        Row("NaN capacity", dict(capacities=[_NAN, 3.0]), ValueError,
            "every capacity must exceed 1 K for a positive log term"),
        Row("infinite capacity", dict(capacities=[_INF, 3.0]), ValueError,
            "the QoE is inf: an infinite weight or capacity, or a sum that overflows float64"),
        Row("infinite weight", dict(weights=[_INF, 2.0]), ValueError,
            "the QoE is inf: an infinite weight or capacity, or a sum that overflows float64"),
        Row("weights of strs", dict(weights=np.array(["1", "2"])), ValueError,
            "attention weight '1' is not a real number"),
        Row("a bool weight", dict(weights=[1.0, True]), ValueError,
            "attention weight True is not a real number"),
        Row("capacities of strs", dict(capacities=np.array(["2", "3"])), ValueError,
            "capacity '2' is not a real number"),
        Row("bool capacities", dict(capacities=np.array([True, True])), ValueError,
            "capacity True is not a real number"),
        Row("2-D weights and capacities", dict(weights=np.ones((1, 2)),
                                              capacities=np.ones((1, 2))), ValueError,
                                                  "attention weight values must form a 1-D "
                                                  "vector, got shape (1, 2)"),
        Row("capacity beyond float64", dict(weights=[1, 2], capacities=[10**400, 3]),
            ValueError, "capacity of 401 digits is outside the range of float64"),
        Row("weight beyond float64", dict(weights=[2 * 10**308, 1]), ValueError,
            "attention weight of 309 digits is outside the range of float64"),
        Row("bytes weights and capacities", dict(weights=b"\x01\x02", capacities=b"\x03\x04"),
            ValueError, "attention weight values must form a 1-D vector, got bytes b'\\x01\\x02'"),
    ],
    "predict_scene": [
        Row("user 4", dict(user=4, objects=[0]), IndexError,
            "pair (4, 0) outside model dimensions"),
        Row("object -1", dict(objects=[-1]), IndexError, "pair (0, -1) outside model dimensions"),
        Row("object 24 after good ones", dict(objects=[0, 1, 24, -1]), IndexError,
            "pair (0, 24) outside model dimensions"),
        Row("bool user", dict(user=True), IndexError, "user id True is not an integer"),
        Row("numpy float user", dict(user=np.float64(0.0)), IndexError,
            "user id np.float64(0.0) is not an integer"),
        Row("float user", dict(user=1.0), IndexError, "user id 1.0 is not an integer"),
        Row("bool object", dict(objects=[1, 0, True]), IndexError,
            "object id True is not an integer"),
        Row("float object array", dict(objects=np.array([0.5])), IndexError,
            "object id 0.5 is not an integer"),
        Row("float object", dict(objects=[1.0]), IndexError, "object id 1.0 is not an integer"),
        Row("numpy bool object", dict(objects=[np.bool_(False)]), IndexError,
            "object id np.False_ is not an integer"),
        Row("scalar scene", dict(objects=3), ValueError,
            "object id values must form a 1-D vector, got shape () for 3"),
        Row("0-d scene", dict(objects=np.array(1)), ValueError,
            "object id values must form a 1-D vector, got shape ()"),
        Row("None scene", dict(objects=None), ValueError,
            "object id values must form a 1-D vector, got shape () for None"),
        Row("2-D scene", dict(objects=np.array([[0, 1]])), ValueError,
            "object id values must form a 1-D vector, got shape (1, 2)"),
        Row("bytes scene", dict(objects=b"\x01\x02"), ValueError,
            "object id values must form a 1-D vector, got bytes b'\\x01\\x02'"),
        Row("str scene", dict(objects="01"), ValueError,
            "object id values must form a 1-D vector, got str '01'"),
        Row("empty scene", dict(objects=[]), ValueError, "scene object list must be non-empty"),
    ],
    "predictor": [
        Row("user 4 after a good pair", dict(users=[0, 4, -1], objects=[0, 0, 0]), IndexError,
            "pair (4, 0) outside model dimensions"),
        Row("object -1", dict(users=[1, 0], objects=[0, -1]), IndexError,
            "pair (0, -1) outside model dimensions"),
        Row("user -1", dict(users=[-1], objects=[1]), IndexError,
            "pair (-1, 1) outside model dimensions"),
        Row("float user", dict(users=np.array([0.0]), objects=np.array([1])), IndexError,
            "user id 0.0 is not an integer"),
        Row("bool users", dict(users=np.array([True, False])), IndexError,
            "user id True is not an integer"),
        Row("uint64 object beyond int64", dict(users=np.array([0]), objects=np.array(
            [2**64 - 1], dtype=np.uint64)), IndexError,
                "object id 18446744073709551615 is outside the range of int64"),
        Row("unequal lengths", dict(objects=np.array([0])), ValueError,
            "users and objects must be 1-D arrays of equal length, got shapes (2,) and (1,)"),
        Row("2-D ids", dict(users=np.array([[0, 1]]), objects=np.array([[0, 1]])), ValueError,
            "user id values must form a 1-D vector, got shape (1, 2)"),
        Row("0-d objects", dict(users=[0], objects=np.array(1)), ValueError,
            "object id values must form a 1-D vector, got shape ()"),
        Row("scalar ids", dict(users=0, objects=1), ValueError,
            "user id values must form a 1-D vector, got shape () for 0"),
        Row("a bool user in a list", dict(users=[0, True], objects=[1, 0]), IndexError,
            "user id True is not an integer"),
        Row("a bool user first", dict(users=[True, 2], objects=[0, 1]), IndexError,
            "user id True is not an integer"),
        Row("bytes objects", dict(users=np.array([0]), objects=b"\x01"), ValueError,
            "object id values must form a 1-D vector, got bytes b'\\x01'"),
    ],
    "sparsify": [
        Row("one group", dict(world=dataclasses.replace(_MANUAL_WORLD, group_of=[0, 0])),
            ValueError, "sparsify requires a world with at least 2 groups"),
        *(Row(f"seed {seed!r}, users {users!r}", dict(users=users, seed=seed), ValueError,
              f"seed must be a non-negative integer, got {seed!r}")
          for seed in (True, None, 1.5, -1, "3") for users in ([0], [], range(2))),
        Row("seed -1", dict(seed=-1), ValueError,
            "seed must be a non-negative integer, got -1", {"--seed": "-1"}),
        Row("user 99", dict(users=99), ValueError, "user 99 outside 0..3", {"--user": "99"}),
        Row("user -1", dict(users=-1), ValueError, "user -1 outside 0..3", {"--user": "-1"}),
        Row("user 4", dict(users=4), ValueError, "user 4 outside 0..3", {"--user": "4"}),
        *(Row(f"user {user!r}{where}", dict(users=make(user)), ValueError,
              f"user id {user!r} is not an integer")
          for user in (True, 1.5, 1.0, np.float64(2), "1", None)
          for where, make in (("", lambda user: user), (" in a list", lambda user: [0, user]))),
    ],
    "raw_attention_values": [
        *(Row(f"user {user!r}", dict(user=user), ValueError, f"user id {user!r} is not an integer")
          for user in (True, 1.5, 1.0, np.float64(2), "1", None)),
        Row("user -1", dict(user=-1), ValueError, "user -1 outside 0..3"),
        Row("user 4", dict(user=4), ValueError, "user 4 outside 0..3"),
        *(Row(f"image ids {name}", dict(image_ids=ids), ValueError,
              f"image id {bad} is not an integer") for name, ids, bad in (
            ("[1.7]", [1.7], "1.7"), ("[True]", [True], "True"),
            ("[0, 2, False]", [0, 2, False], "False"), ("float array", np.array([1.0, 2.0]), "1.0"),
            ("bool array", np.array([True]), "True"),
            ("object array", np.array([0, 2.5], dtype=object), "2.5"), ("[None]", [None], "None"))),
        *(Row(f"image ids {name}", dict(image_ids=ids), ValueError,
              f"image id {bad} is outside the range of int64") for name, ids, bad in (
            ("[10**30]", [10**30], str(10**30)), ("[0, -10**400]", [0, -10**400], "of 401 digits"),
            ("uint64 array", np.array([0, 2**64 - 1], dtype=np.uint64), str(2**64 - 1)),
            ("[np.uint64(2**63)]", [np.uint64(2**63)], repr(np.uint64(2**63))))),
        *(Row(f"image ids {name}", dict(image_ids=ids), ValueError,
              f"image id values must form a 1-D vector, got shape {shape}")
          for name, ids, shape in (
              ("0-d array", np.array(2), "()"), ("3", 3, "() for 3"),
              ("0-d float array", np.array(2.0), "()"), ("2-D array", np.array([[0, 1]]), "(1, 2)"),
              ("empty 2-D array", np.zeros((2, 0), dtype=int), "(2, 0)"))),
    ],
    "sweep": [
        Row("user -1", dict(user=-1), ValueError, "user -1 outside 0..3", {"--user": "-1"}),
        Row("user 4", dict(user=4), ValueError, "user 4 outside 0..3", {"--user": "4"}),
    ],
    "holdout_mask": [
        *(Row(f"seed {seed!r}", dict(seed=seed), ValueError,
              f"seed must be a non-negative integer, got {seed!r}")
          for seed in (True, None, 1.5, -1, "0")),
        *(Row(f"fraction {fraction!r}", dict(fraction=fraction), ValueError,
              f"fraction must be a real number in (0, 1], got {fraction!r}")
          for fraction in (_NAN, -1.0, 0.0, 2.0, True)),
        *_DIMENSION_ROWS["holdout_mask"],
    ],
    "generate_world": [
        Row("an object with no room", dict(config=WorldConfig(
            num_users=1, num_objects=4, num_images=1, num_groups=1, min_objects_per_image=3,
            max_objects_per_image=3, min_pixels_per_object=5000, max_pixels_per_object=5000,
            max_image_pixels=15000)), ConfigurationError,
            "object 2 occurs in no image, and its 5000 pixels fit in no image under "
            "max_image_pixels 15000"),
        Row("seed -1", dict(seed=-1), ValueError, "seed must be a non-negative integer, got -1"),
    ],
    "SparseAttentionRecords": [
        Row("conflicting levels", dict(records=frozenset({(0, 0, 1)}) | frozenset({(0, 0, 2)})),
            InvalidRecordError, "duplicate pair (0, 0) in record (0, 0, 2)"),
        Row("level 6", dict(records=frozenset({(0, 1, 6)})), InvalidRecordError,
            "level 6 out of range 1..5 in record (0, 1, 6)"),
        Row("level 0", dict(records=frozenset({(0, 1, 0)})), InvalidRecordError,
            "level 0 out of range 1..5 in record (0, 1, 0)"),
        Row("duplicate pair", dict(records=[(0, 1, 2), (0, 1, 3)]), InvalidRecordError,
            "duplicate pair (0, 1) in record (0, 1, 3)"),
        Row("negative user", dict(records=[(-1, 0, 3)]), InvalidRecordError,
            "negative user or object id in record (-1, 0, 3)"),
        Row("negative object", dict(records=[(0, -1, 3)]), InvalidRecordError,
            "negative user or object id in record (0, -1, 3)"),
    ],
    "World": [
        *(Row(f"seed {seed!r}", dict(seed=seed), ValueError,
              f"seed must be a non-negative integer, got {seed!r}")
          for seed in (-1, 1.5, True, "3")),
        Row("gaze_noise -0.1", dict(gaze_noise=-0.1), ValueError,
            "gaze_noise must lie in [0, 1), got -0.1"),
        Row("gaze_noise 1.0", dict(gaze_noise=1.0), ValueError,
            "gaze_noise must lie in [0, 1), got 1.0"),
        Row("gaze_noise nan", dict(gaze_noise=_NAN), ValueError,
            "gaze_noise must lie in [0, 1), got nan"),
        Row("gaze_noise None", dict(gaze_noise=None), ValueError,
            "gaze_noise must lie in [0, 1), got None"),
        Row("gaze_noise '0.1'", dict(gaze_noise="0.1"), ValueError,
            "gaze_noise must lie in [0, 1), got '0.1'"),
        Row("gaze_noise False", dict(gaze_noise=False), ValueError,
            "gaze_noise must lie in [0, 1), got False"),
        Row("gaze_noise True", dict(gaze_noise=True), ValueError,
            "gaze_noise must lie in [0, 1), got True"),
        Row("gaze_noise Fraction(1, 10)", dict(gaze_noise=Fraction(1, 10)), ValueError,
            "gaze_noise must lie in [0, 1), got Fraction(1, 10)"),
        Row("group gap", dict(group_of=[0, 2]), ValueError,
            "group ids must cover 0..2; group 1 has no images"),
        Row("no group 0", dict(group_of=[1, 2]), ValueError,
            "group ids must cover 0..2; group 0 has no images"),
        Row("labels of lists", dict(labels=(["a"], ["b"])), ValueError,
            "catalog label 0 is ['a'], not a string"),
        Row("labels of ints", dict(labels=(0, 1)), ValueError,
            "catalog label 0 is 0, not a string"),
        Row("an int label", dict(labels=("a", 2)), ValueError,
            "catalog label 1 is 2, not a string"),
        Row("repeated label", dict(labels=("a", "a")), ValueError,
            "catalog label 'a' is not unique"),
        Row("no labels", dict(labels=()), ValueError, "the catalog must list at least one label"),
        *(Row(f"interest {value!r}", dict(interest=[[0.5, 0.5], [value, 0.5]]), ValueError,
              f"interest of user 1 in object 0 is {shown}, not a finite number in (0, 1]")
          for value, shown in ((_NAN, "nan"), (None, "nan"), (_INF, "inf"), (0.0, "0.0"),
                               (1.5, "1.5"))),
        Row("no users", dict(interest=np.empty((0, 2))), ValueError,
            "a world must have at least one user"),
        Row("no users, as a list", dict(interest=[]), ValueError,
            "a world must have at least one user"),
    ],
    "World fields": [
        Row("indptr [0.0, 1.0]", dict(indptr=[0.0, 1.0]), ValueError,
            "indptr, objects, counts and group_of must hold integers"),
        Row("objects [0.5]", dict(objects=[0.5]), ValueError,
            "indptr, objects, counts and group_of must hold integers"),
        Row("counts [3.0]", dict(counts=[3.0]), ValueError,
            "indptr, objects, counts and group_of must hold integers"),
        Row("group_of [True]", dict(group_of=[True]), ValueError,
            "indptr, objects, counts and group_of must hold integers"),
    ],
    "ground_truth_levels": [
        Row("an object in no image", dict(world=world_from_pixels(
            [[100, 200, 0], [50, 0, 0]], group_of=[0, 1], labels=("a", "b", "c"),
            interest=np.full((2, 3), 0.5), seed=0)), ValueError,
            "object 2 ('c') occurs in no image, so it has no ground-truth level"),
    ],
    "quantize_levels": [
        Row("value 1.5", dict(values=[1.5]), ValueError, "attention value 1.5 outside [0, 1]"),
        Row("value -0.1", dict(values=[0.2, -0.1]), ValueError,
            "attention value -0.1 outside [0, 1]"),
        Row("value nan", dict(values=[_NAN]), ValueError, "attention value nan outside [0, 1]"),
        Row("two rows", dict(values=[[0.2, 0.1], [0.3, 0.4]]), ValueError,
            "quantize_levels takes one row of values, got shape (2, 2)"),
    ],
    "observed_mask": _DIMENSION_ROWS["observed_mask"],
    "fit_mf": [*_DIMENSION_ROWS["fit_mf"],
               Row("no records", dict(records=SparseAttentionRecords()), FitError,
                   "cannot fit on empty records")],
    "fit_baseline": [
        Row("no records", dict(records=SparseAttentionRecords()), FitError,
            "cannot fit on empty records"),
    ],
    "evaluate": [
        Row("empty mask", dict(mask=np.nonzero(np.zeros((2, 2), dtype=bool))), EvaluationError,
            "holdout mask is empty"),
        Row("scalar prediction", dict(predict=lambda users, objects: 3.0), ValueError,
            "the predictor gave shape () for 2 held-out pairs"),
    ],
    "truth_raw": [
        Row("user -1", dict(user=-1), ValueError, "user -1 outside 0..3"),
        Row("user 4", dict(user=4), ValueError, "user 4 outside 0..3"),
    ],
    "scene_objects": [
        Row("user -1", dict(user=-1), ValueError, "user -1 outside 0..3"),
        Row("user 4", dict(user=4), ValueError, "user 4 outside 0..3"),
        Row("user True", dict(user=True), ValueError, "user id True is not an integer"),
        Row("user 1.0", dict(user=1.0), ValueError, "user id 1.0 is not an integer"),
    ],
    "UserReport": [
        Row("no objects", dict(n_objects=0, qoe_aware=1.0, qoe_oracle=1.0, improvement_pct=0.0),
            ValueError, "a report needs at least one scene object"),
        Row("oracle below aware", dict(qoe_oracle=1.0), ValueError,
            "oracle QoE cannot trail the aware QoE"),
    ],
    "SweepReport": [
        Row("factors out of order", dict(points=((20.0, 1.0), (16.0, 2.0))), ValueError,
            "sweep budget factors must be strictly increasing"),
    ],
    "number_array": [
        Row("a short row", dict(values=[[1.0, 2.0], [3.0]]), ValueError,
            "factors row 1 has 1 entries, not 2"),
    ],
    "FactorModel": [
        Row("no user rows", dict(user_factors=np.zeros((0, 6)), user_bias=np.zeros(0)),
            ValueError,
            "user_factors must be a 2-D matrix with at least one row, got shape (0, 6)"),
        Row("no object rows", dict(object_factors=np.zeros((0, 6)), object_bias=np.zeros(0)),
            ValueError,
            "object_factors must be a 2-D matrix with at least one row, got shape (0, 6)"),
        Row("1-D user_factors", dict(user_factors=np.zeros(4)), ValueError,
            "user_factors must be a 2-D matrix with at least one row, got shape (4,)"),
        Row("5 user biases", dict(user_bias=np.zeros(5)), ValueError,
            "user_bias has shape (5,) for 4 rows of user_factors"),
        Row("2 object biases", dict(object_bias=np.zeros(2)), ValueError,
            "object_bias has shape (2,) for 24 rows of object_factors"),
        Row("NaN mu", dict(mu=_NAN), ValueError, "mu must be finite, got nan"),
        Row("infinite mu", dict(mu=_INF), ValueError, "mu must be finite, got inf"),
    ],
    "FitConfig": [
        *(Row(f"{name} {value!r}", {name: value}, FitError, f"{name} must be an integer, got "
              f"{value!r}") for name in ("f", "epochs", "seed")
          for value in (2.5, 2.0, True, "2", None)),
        *(Row(f"{name} {value!r}", {name: value}, FitError, f"{name} must be finite, got "
              f"{value!r}") for name in ("regularization", "init_scale") for value in (_NAN, _INF)),
        Row("epochs 0", dict(epochs=0), FitError, "epochs must be >= 1"),
        *(Row(f"regularization {lam!r}", dict(regularization=lam), FitError,
              f"regularization must be positive, got {lam!r}") for lam in (0.0, -1.0)),
        Row("seed -1", dict(seed=-1), FitError, "seed must be a non-negative integer, got -1"),
    ],
    "WorldConfig": [
        Row("num_users 0", dict(num_users=0), ConfigurationError, "num_users must be >= 1, got 0"),
        Row("interest_noise 1.5", dict(interest_noise=1.5), ConfigurationError,
            "interest_noise must be in [0, 1)"),
        Row("hot_fraction 0", dict(hot_fraction=0.0), ConfigurationError,
            "hot_fraction must be in (0, 1]"),
        Row("7 groups of 3 images", dict(num_groups=7, num_images=3), ConfigurationError,
            "num_groups cannot exceed num_images"),
        Row("object_popularity_exponent 400", dict(object_popularity_exponent=400.0),
            ConfigurationError, "object_popularity_exponent 400.0 leaves 6 objects with "
            "positive weight, fewer than max_objects_per_image 12"),
    ],
    "ExperimentConfig": [
        Row("budget below the floor", dict(floor_k=15.0, budget_per_object_k=10.0), ValueError,
            "budget_per_object_k must exceed floor_k"),
        Row("no sweep factors", dict(sweep_factors=()), ValueError,
            "sweep_factors must be non-empty"),
        Row("sweep factor below the floor", dict(floor_k=15.0, sweep_factors=(14.0,)),
            ValueError, "every sweep budget factor must exceed floor_k"),
        Row("scene_retain_lo 0", dict(scene_retain_lo=0), ValueError,
            "scene retain percentages must satisfy 1 <= lo <= hi <= 100"),
        Row("budget 1e308", dict(budget_per_object_k=1e308), ValueError,
            "budget_per_object_k 1e+308 times world.num_objects 96 is not finite"),
        Row("sweep factor 1e307", dict(sweep_factors=(20.0, 1e307)), ValueError,
            "sweep factor 1e+307 times world.num_objects 96 is not finite"),
        Row("distance 1e-200", dict(channel=ChannelConfig(distance=1e-200)), ChannelError,
            "the SINR's received power, tx_power * distance ** -path_loss_exponent * "
            "min(tx_antennas, rx_antennas), overflows: (34, 'Numerical result out of range')"),
        Row("distance 1e300", dict(channel=ChannelConfig(distance=1e300)), ChannelError,
            "the downlink rate, bandwidth * log2(1 + SINR), is 0.0 for SINR 0.0; it must be "
            "positive and finite"),
        Row("tx_power 1e308", dict(channel=ChannelConfig(tx_power=1e308, distance=0.001)),
            ChannelError,
"the downlink rate, bandwidth * log2(1 + SINR), is inf for SINR inf; it must be positive and "
"finite"),
        Row("noise_psd 1e300", dict(channel=ChannelConfig(noise_psd=1e300, bandwidth=1e300)),
            ChannelError,
"the downlink rate, bandwidth * log2(1 + SINR), is 0.0 for SINR 0.0; it must be positive and "
"finite"),
        Row("sweep_user -1", dict(sweep_user=-1), ValueError, "sweep_user must be >= 0, got -1"),
        Row("master_seed -1", dict(master_seed=-1), ValueError,
            "seed must be a non-negative integer, got -1"),
    ],
    "ChannelConfig": [
        Row("bandwidth 0", dict(bandwidth=0.0), ValueError, "bandwidth must be positive"),
        Row("path_loss_exponent 0.5", dict(path_loss_exponent=0.5), ValueError,
            "path_loss_exponent must be >= 1"),
        Row("tx_antennas 0", dict(tx_antennas=0), ValueError, "antenna counts must be >= 1"),
    ],
    "LinkParams": [
        Row("downlink_rate 0", dict(downlink_rate=0.0, uplink_ber=0.1), ValueError,
            "downlink_rate must be positive"),
        Row("uplink_ber 1", dict(downlink_rate=1.0, uplink_ber=1.0), ValueError,
            "uplink_ber must lie in [0, 1)"),
    ],
}


def _flag_argv(call: Call, flags: dict, files, out) -> list:
    """The CLI command whose flags carry ``call``'s arguments, its good flags
    replaced by ``flags`` (a good file by its path), and ``--out``."""
    command, good = call.cli
    argv = [command, "--out", str(out)]
    for flag, value in {**good, **flags}.items():
        argv += [flag, files.get(value, value)]
    return argv


def check_argument_row(name, row, files, folder, capsys):
    call = CALLS[name]
    with pytest.raises(row.error) as raised:
        call.run(files, **{**call.base, **row.edit})
    assert (type(raised.value), str(raised.value)) == (row.error, row.message)
    if row.cli:
        assert run_cli(capsys, _flag_argv(call, row.cli, files, folder / "out")) \
            == (EXIT_DATA, "", f"error: {row.message}\n")
        assert not list(folder.glob("out*"))


# every row by its key, "<surface>: <row id>"; an argument row's surface is its call
ROWS = {f"{name}: {row.id}": (check_file_row, name, row)
        for name, (_, rows) in FILES.items() for row in rows}
ROWS.update({f"{name}: {row.id}": (check_argument_row, name, row)
             for name, rows in ARGUMENT_ROWS.items() for row in rows})
assert len(ROWS) == sum(len(rows) for _, rows in FILES.values()) \
    + sum(map(len, ARGUMENT_ROWS.values())), "two rows of one surface share an id"


def check_rows(keys, files, folder, capsys):
    """Run the rows of ``keys``, each in its own folder under ``folder``."""
    for number, key in enumerate(keys):
        check, name, row = ROWS[key]
        row_folder = folder / str(number)
        row_folder.mkdir()
        check(name, row, files, row_folder, capsys)


@pytest.mark.parametrize("name", sorted(FILES))
def test_good_file_loads_and_runs(good_files, tmp_path, capsys, name):
    FILES[name][0].load(good_files[name])
    argv = _file_argv(name, good_files[name], good_files, tmp_path / "out")
    assert run_cli(capsys, argv)[0] == EXIT_OK


@pytest.mark.parametrize("name", sorted(CALLS))
def test_good_arguments_run(good_files, tmp_path, capsys, name):
    call = CALLS[name]
    call.run(good_files, **call.base)
    if call.cli:
        assert run_cli(capsys, _flag_argv(call, {}, good_files, tmp_path / "out"))[0] == EXIT_OK


def _one(*keys) -> dict:
    """The cases of a former test without parameters: its row keys."""
    return {"": list(keys)}


def _same(surface: str, *ids) -> dict:
    """The cases of a former test whose parameter ids are row ids of ``surface``."""
    return {case: [f"{surface}: {case}"] for case in ids}


def _records_rows(*bodies) -> dict:
    """The cases of a former test whose parameter ids are records bodies."""
    return {body: [f"records: rows {body!r}"] for body in bodies}


# the tests that other modules held for rows now here, under the names and
# parameter ids they keep: module -> test name -> {parameter id, or "" for a
# test without parameters: the keys of its rows}
FORMER = {
    "test_cli": {
        "test_sweep_rejects_user_outside_world_before_any_draw": {
            "-1": ["sweep: user -1"], "4": ["sweep: user 4"]},
        "test_negative_sweep_user_rejected_when_config_is_built": _one(
            "config: [experiment] sweep_user = -1", "ExperimentConfig: sweep_user -1"),
        "test_bad_config_file": _one("config: [world] num_users = many"),
        "test_fit_rejects_non_finite_config": {
            f"{line}-{name}": [f"config: [fit] {line}"] for line, name in (
                ("regularization = 0", "regularization must be positive"),
                ("learning_rate = nan", "learning_rate"),
                ("regularization = nan", "regularization"), ("init_scale = inf", "init_scale"))},
        "test_sweep_factors_out_of_order_exit_2": {
            f"{factors}-{shown}-{command}": [f"config: [experiment] sweep_factors = {factors}"]
            for factors, shown in (("20, 16", "(20.0, 16.0)"), ("16, 16", "(16.0, 16.0)"))
            for command in ("experiment", "sweep")},
        "test_non_finite_config_value_named": {
            case: [f"config: {line}"] for case, line in (
                ("group_bias-nan", "[world] group_bias = nan"),
                ("group_bias-inf", "[world] group_bias = inf"),
                ("object_popularity_exponent-nan", "[world] object_popularity_exponent = nan"),
                ("interest_exponent-nan", "[world] interest_exponent = nan"),
                ("distance-nan", "[channel] distance = nan"),
                ("downlink_rate-nan", "[link] downlink_rate = nan uplink_ber = 0"),
                ("sweep_factors-nan", "[experiment] sweep_factors = 16, nan"))},
        "test_allocate_non_finite_budget_or_floor": {
            "nan-15-budget": ["allocate: budget nan"], "inf-15-budget": ["allocate: budget inf"],
            "40-nan-floor": ["allocate: floor nan"], "40-inf-floor": ["allocate: floor inf"]},
        "test_allocate_objective_overflow_exits_2": {
            "1e308,1e308-100-15": ["allocate: each term of the objective overflows"],
            "1.5e308,1.5e308-5.4366-1.5": ["allocate: the sum of the objective overflows"]},
        "test_fit_rejects_negative_ids": _records_rows(
            "-1,0,5\n0,0,1\n1,1,3\n", "-1,0,5\n", "0,-1,5\n0,0,1\n1,1,3\n"),
        "test_fit_names_line_of_id_beyond_int64": {
            field: [f"records: rows {body!r}"] for field in ("99999999999999999999",
                                                             "-99999999999999999999")
            for body in [f"0,0,3\n\n1,{field},2\n"]},
        "test_fit_names_line_of_overlong_field": _one("records: overlong field"),
        "test_sparsify_rejects_malformed_world": _same(
            "world", "object id -1", "object id past the catalog", "duplicate image id",
            "negative group", "repeated object", "pixel count 0", "empty composition",
            "id out of order"),
        "test_sparsify_rejects_world_missing_key": {
            key: [f"world: no {key}"]
            for key in ("catalog", "images", "interest", "num_users", "seed", "gaze_noise")},
        "test_sparsify_rejects_image_missing_key": {
            key: [f"world: image without {key}"] for key in ("id", "group", "composition")},
        "test_sparsify_rejects_non_integer_world_entries": _same(
            "world", "fractional object id", "fractional pixel count", "bool object id",
            "string pixel count", "fractional group", "string image id"),
        "test_sparsify_rejects_group_gaps": _one("world: group gaps"),
        "test_sparsify_rejects_bad_world_seed": {
            f"{seed}-{noise}": [f"world: seed {seed}, gaze noise {noise}"]
            for seed in ("-1", "2.5", "True") for noise in ("0.0", "0.1")},
        "test_sparsify_rejects_negative_seed_with_a_world": _one("sparsify: seed -1"),
        "test_sparsify_rejects_bool_world_gaze_noise": {
            noise: [f"world: gaze_noise {noise}"] for noise in ("False", "True")},
        "test_sparsify_rejects_non_int_world_num_users": {
            f"{value}-{layout}": [f"world: num_users {value}{suffix}"] for value in ("True", "1.0")
            for layout, suffix in (("save_world", ""), ("json", ", compact"))},
        "test_eval_rejects_model_missing_key": {key: [f"model: no {key}"] for key in _MODEL_KEYS},
        "test_eval_rejects_malformed_model": _same(
            "model", "5-entry user_bias", "1-D user_factors", "1-D object_factors", "JSON list",
            "string mu", "bool mu", "NaN mu", "mu beyond float64", "ragged user_factors"),
        "test_eval_rejects_non_number_model_entries": {
            "bool bias": ["model: bool in user_bias"],
            "string bias": ["model: string in object_bias"],
            "bool factor": ["model: bool in user_factors"],
            "string factor": ["model: string in object_factors"]},
        "test_eval_rejects_model_dimension_mismatch": {
            "num_users-7-2": ["model: num_users 7"],
            "num_objects-2.0-2": ["model: num_objects 2.0"],
            "f-99-1": ["model: f 99"], "f-True-1": ["model: f True"]},
        "test_sparsify_rejects_bad_world_interest": {
            name: [f"world: interest {name}"]
            for name in ("null", "string", "NaN", "above 1", "int beyond float64")},
        "test_sparsify_names_a_ragged_interest_row": _one("world: ragged interest row"),
        "test_sparsify_rejects_bad_catalog": {
            "lists": ["world: catalog of lists"], "ints": ["world: catalog of ints"],
            "repeated": ["world: repeated label"]},
        "test_eval_names_images_key_when_world_lists_none": _one("world: images empty"),
        "test_read_faults_name_the_file": {
            **{f"{name}-invalid utf-8 byte": [f"{name}: invalid utf-8 byte"]
               for name in ("config", "world", "records", "model")},
            **{f"{name}-{fault}": [f"{name}: {fault}"] for name in ("world", "model")
               for fault in ("truncated", "deep nesting")},
            "config-no section header": ["config: not an ini file"],
            "config-unparsable line": ["config: [fit] epochs 3"],
            "config-duplicate section": ["config: [fit] epochs = 3 [fit]"],
            "config-duplicate key": ["config: [fit] epochs = 3 epochs = 4"],
            "config-unknown section": ["config: unknown section after the good text"],
            "records-world file": ["records: world file"],
            "records-level out of range": ["records: level out of range"]},
    },
    "test_world": {
        "test_invalid_config_rejected": _one(
            "WorldConfig: num_users 0", "WorldConfig: interest_noise 1.5",
            "WorldConfig: hot_fraction 0", "WorldConfig: 7 groups of 3 images"),
        "test_missing_object_without_room_raises": _one("generate_world: an object with no room"),
        "test_too_few_positive_weights_rejected": _one(
            "WorldConfig: object_popularity_exponent 400"),
        "test_ground_truth_rejects_absent_object": _one(
            "ground_truth_levels: an object in no image"),
        "test_sparsify_requires_two_groups": _one("sparsify: one group"),
        "test_world_version_check": _one("world: version 999"),
        "test_world_rejects_zero_users": _one("World: no users", "World: no users, as a list"),
        "test_world_rejects_gaze_noise_outside_unit_interval": _one(*(
            f"World: gaze_noise {noise}" for noise in (
                "-0.1", "1.0", "nan", "None", "'0.1'", "False", "True", "Fraction(1, 10)"))),
        "test_raw_attention_image_ids_must_form_one_vector": _one(*(
            f"raw_attention_values: image ids {name}"
            for name in ("0-d array", "3", "0-d float array", "2-D array", "empty 2-D array"))),
        "test_world_rejects_interest_outside_unit_interval": {
            value: [f"World: interest {value}"] for value in ("nan", "None", "inf", "0.0", "1.5")},
        "test_world_rejects_bad_labels": {
            "lists": ["World: labels of lists"], "ints": ["World: labels of ints"],
            "int among strings": ["World: an int label"], "repeated": ["World: repeated label"],
            "empty": ["World: no labels"]},
        "test_world_rejects_non_integer_layout": {
            f"{field}-value{i}": [f"World fields: {field} {value}"] for i, (field, value) in
            enumerate((("indptr", "[0.0, 1.0]"), ("objects", "[0.5]"), ("counts", "[3.0]"),
                       ("group_of", "[True]")))},
    },
    "test_mf": {
        "test_fit_rejects_empty_and_bad_config": _one(
            "fit_mf: no records", "FitConfig: epochs 0", "FitConfig: regularization 0.0",
            "FitConfig: regularization -1.0", "FitConfig: seed -1",
            "fit_mf: records outside (2, 5)"),
        "test_predict_index_errors": _one("predict_scene: user 4", "predict_scene: object -1"),
        "test_dimensions_are_non_negative_integers": {
            f"dims{i}-{row.message.split()[0]}-{call}": [f"{call}: {row.id}"]
            for call in ("observed_mask", "holdout_mask", "fit_mf")
            for i, row in enumerate(_DIMENSION_ROWS[call][:5])},
        "test_records_outside_the_dimensions_raise_one_fit_error": {
            f"dims{i}-pair{i}-{call}": [f"{call}: {row.id}"]
            for call in ("observed_mask", "holdout_mask", "fit_mf")
            for i, row in enumerate(_DIMENSION_ROWS[call][5:])},
        "test_model_version_check": _one("model: version 9"),
        "test_fit_config_rejects_non_finite": {
            f"{value}-{name}": [f"FitConfig: {name} {value}"] for value in ("nan", "inf")
            for name in ("regularization", "init_scale")},
        "test_fit_config_rejects_non_integer_counts": {
            f"{value}-{name}": [f"FitConfig: {name} {value!r}"]
            for value in (2.5, 2.0, True, "2", None) for name in ("f", "epochs", "seed")},
        "test_model_rejects_inconsistent_shapes": _one(
            "FactorModel: 1-D user_factors", "FactorModel: 5 user biases",
            "FactorModel: 2 object biases", "FactorModel: NaN mu", "FactorModel: infinite mu"),
        "test_model_dimensions_must_match_factors": {
            key: [*(f"model: {key} {value!r}" for value in (7, 99, 2.0, True, "3", None)),
                  f"model: no {key}"] for key in ("num_users", "num_objects", "f")},
        "test_model_rejects_factors_without_rows": {
            "0-2-user_factors": ["FactorModel: no user rows"],
            "2-0-object_factors": ["FactorModel: no object rows"]},
        "test_model_entries_must_be_numbers": {
            f"{name}-{kind}": [f"model: {kind} in {name}"]
            for name in _MODEL_ROWS for kind in _NOT_NUMBERS},
        "test_model_factor_rows_must_be_as_long_as_row_0": _one(
            "number_array: a short row", "model: ragged user_factors",
            "model: ragged user_factors, row 1 empty",
            "model: ragged user_factors, a bool in row 2"),
    },
    "test_records": {
        "test_rejects_out_of_range_level": _one(
            "SparseAttentionRecords: level 6", "SparseAttentionRecords: level 0"),
        "test_rejects_duplicate_pair": _one("SparseAttentionRecords: duplicate pair"),
        "test_merge_conflicting_levels_rejected": _one(
            "SparseAttentionRecords: conflicting levels"),
        "test_malformed_rows_name_line": {
            f"{body}-{fragment}": [f"records: rows {body!r}"] for body, fragment in (
                ("3,12,6\n", "level 6"), ("3,12,0\n", "level 0"), ("a,2,3\n", "non-integer"),
                ("1,2\n", "3 fields"), ("1,2,3\n1,2,4\n", "duplicate"),
                ("99999999999999999999,2,3\n", "outside the 64-bit integer range"),
                ("1,-99999999999999999999,3\n", "outside the 64-bit integer range"))},
        "test_missing_header": _one("records: no header"),
        "test_rejects_negative_ids": _one(
            "SparseAttentionRecords: negative user", "SparseAttentionRecords: negative object"),
        "test_load_rejects_negative_ids": _one("records: rows '0,0,1\\n1,-2,3\\n'"),
        "test_load_names_line_of_overlong_field": _one(
            "records: overlong field", "records: overlong header field"),
    },
    "test_config": {
        "test_sweep_factors_out_of_order_named": {
            f"{factors}-{shown}": [f"config: [experiment] sweep_factors = {factors}"]
            for factors, shown in (("20, 16", "(20.0, 16.0)"), ("16, 16", "(16.0, 16.0)"))},
        "test_unknown_sections_and_keys_rejected": _one(
            "config: [nonsense] x = 1", "config: [world] num_planets = 3",
            "config: [experiment] budget = 7"),
        "test_default_section_is_unknown": {
            "alone": ["config: [DEFAULT] f = 3"], "empty": ["config: [DEFAULT]"],
            "after-fit": ["config: [fit] f = 3 [DEFAULT] epochs = 2"]},
        "test_percent_is_not_interpolated": {
            "bare-percent": ["config: [experiment] master_seed = 5%"],
            "named-reference": ["config: [fit] f = %(x)s"]},
        "test_bad_values_rejected": _one(
            "config: [world] num_users = many", "config: not an ini file",
            "config: [experiment] floor_k = 15 budget_per_object_k = 5",
            "config: [world] num_users = 0", "config: [fit] epochs = 0",
            "config: [channel] tx_antennas = 0"),
    },
    "test_allocate": {
        "test_infeasible_budget_names_deficit": _one(
            "allocate: deficit", "allocate_uniform: deficit"),
        "test_floor_must_exceed_one": _one("allocate: floor 1"),
        "test_non_finite_budget_or_floor_rejected": {
            former: [f"allocate: {row}", f"allocate_uniform: {row}"] for former, row in (
                ("nan-15.0-budget", "budget nan"), ("inf-15.0-budget", "budget inf"),
                ("40.0-nan-floor", "floor nan"), ("40.0-inf-floor", "floor inf"),
                ("40-15.0-budget", "budget '40'"), ("40.0-15-floor", "floor '15'"),
                ("True-15.0-budget", "budget True"), ("40.0-None-floor", "floor None"),
                ("40.0-(15+0j)-floor", "floor (15+0j)"))},
        "test_str_bool_or_complex_weights_are_not_cast": {
            "weights0-'1'": ["allocate: weights of strs"],
            "weights1-True": ["allocate: weights of bools"],
            "weights2-True": ["allocate: bool weight array"],
            "weights3-'2'": ["allocate: a str weight"],
            r"weights4-\(1\+0j\)": ["allocate: complex weights"]},
        "test_weights_beyond_float64_are_named": _one("allocate: weight beyond float64"),
        "test_weights_must_form_one_vector": _one(
            "allocate: 2-D weights", "allocate: 0-d weights", "allocate: scalar weights",
            "allocate: no weights"),
        "test_weights_must_be_finite_and_non_negative": {
            f"weights{i}": [f"allocate: weights {weights}",
                            f"allocate: weights {weights} as an array"]
            for i, weights in enumerate(("[1.0, nan]", "[1.0, inf]", "[1.0, -0.5]", "[nan, nan]"))},
        "test_uniform_object_count_must_be_an_integer": {
            shown: [f"allocate_uniform: n_objects {n!r}"] for n, shown in (
                (2.5, "2.5"), (2.0, "2.0"), (True, "True"), ("3", "3"), (None, "None"),
                (np.float64(3), "3.0"))},
    },
    "test_qoe": {
        "test_qoe_rejects_small_capacity": _one("qoe: capacity of 1 K"),
        "test_qoe_rejects_bad_shapes": _one("qoe: unequal lengths", "qoe: zero weight"),
        "test_channel_validation": _one(
            "ChannelConfig: bandwidth 0", "ChannelConfig: path_loss_exponent 0.5",
            "ChannelConfig: tx_antennas 0"),
        "test_qoe_is_never_nan_or_infinite": {
            f"weights{i}-capacities{i}-{match}": [f"qoe: {row}"] for i, (match, row) in enumerate((
                ("attention weights must be positive", "NaN weight"),
                ("must exceed 1 K", "NaN capacity"), ("the QoE is inf", "infinite capacity"),
                ("the QoE is inf", "infinite weight")))},
        "test_qoe_terms_are_not_cast": {
            f"weights{i}-capacities{i}-{match}": [f"qoe: {row}"] for i, (match, row) in enumerate((
                ("attention weight '1' is not a real number", "weights of strs"),
                ("attention weight True is not a real number", "a bool weight"),
                ("capacity '2' is not a real number", "capacities of strs"),
                ("capacity True is not a real number", "bool capacities"),
                (r"must form a 1-D vector, got shape \(1, 2\)", "2-D weights and capacities"),
                ("capacity of 401 digits is outside the range of float64",
                 "capacity beyond float64"),
                ("attention weight of 309 digits is outside the range", "weight beyond float64")))},
    },
    "test_experiment": {
        "test_config_validation": _one(
            "ExperimentConfig: budget below the floor", "ExperimentConfig: no sweep factors",
            "ExperimentConfig: sweep factor below the floor",
            "ExperimentConfig: scene_retain_lo 0"),
        "test_user_report_invariants": _one(
            "UserReport: no objects", "UserReport: oracle below aware"),
        "test_sweep_report_requires_increasing_factors": _one(
            "SweepReport: factors out of order"),
        "test_config_rejects_a_budget_or_link_that_overflows": {
            f"fields{i}-{match}": [f"ExperimentConfig: {row}"] for i, (match, row) in enumerate((
                (r"budget_per_object_k 1e\+308 times world.num_objects 96 is not finite",
                 "budget 1e308"),
                (r"sweep factor 1e\+307 times world.num_objects 96 is not finite",
                 "sweep factor 1e307"),
                ("SINR's received power.* overflows", "distance 1e-200"),
                (r"downlink rate.* is 0\.0 for SINR 0\.0", "distance 1e300"),
                ("downlink rate.* is inf", "tx_power 1e308"),
                ("downlink rate.* is 0.0", "noise_psd 1e300")))},
    },
}


def former_tests(module: str) -> dict:
    """The tests of ``module`` whose cases are rows here, under their former
    names and parameter ids, each running its rows."""
    tests = {}
    for name, cases in FORMER[module].items():
        if set(cases) == {""}:
            def test(good_files, tmp_path, capsys, keys=cases[""]):
                check_rows(keys, good_files, tmp_path, capsys)
        else:
            @pytest.mark.parametrize("case", list(cases))
            def test(good_files, tmp_path, capsys, case, cases=cases):
                check_rows(cases[case], good_files, tmp_path, capsys)
        test.__name__ = name
        tests[name] = test
    return tests


_CLAIMED = {key for tests in FORMER.values() for cases in tests.values()
            for keys in cases.values() for key in keys}
assert _CLAIMED <= ROWS.keys(), sorted(_CLAIMED - ROWS.keys())


@pytest.mark.parametrize("key", [key for key in ROWS if key not in _CLAIMED])
def test_fault(good_files, tmp_path, capsys, key):
    check_rows([key], good_files, tmp_path, capsys)
