"""World generation, attention values, quantization, and sparsification."""

import dataclasses
import json
import re
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2_contingency

from attnalloc import (
    World,
    WorldConfig,
    generate_world,
    ground_truth_levels,
    load_world,
    quantize_levels,
    save_world,
    sparsify,
)
from attnalloc import world as world_module
from attnalloc.world import (
    ConfigurationError,
    _GAZE_STREAM,
    _draw_images,
    _gaze_factors,
    _generate_images,
    _generate_interest,
    _key_block_rows,
    _rank_levels,
    _saved_world,
    _world,
    attention_matrix,
    raw_attention_values,
    world_from_dict,
    world_to_dict,
)
from attnalloc.records import InvalidRecordError, SparseAttentionRecords
from attnalloc.schema import naming, parse_json, read_bytes
from conftest import SMALL_WORLD
from oracles import (attention_from_gaze, dense_generate_images, dense_generate_world,
                     dense_pixels, dict_sparsify, loop_sparsify, loop_world_from_dict,
                     matrix_generate_images, quantize_pairs, row_quantize_levels,
                     successive_sampling_images, world_from_pixels)
from test_faults import former_tests


def _raw_dict(world, user, image_ids) -> dict:
    """``raw_attention_values`` as an {object: value} dict."""
    objects, values = raw_attention_values(world, user, image_ids)
    return dict(zip(objects.tolist(), values.tolist()))


def _reference_gaze_factors(world: World, user: int) -> dict:
    """The gaze-noise rule read off the dense matrix, not the occurrence
    layout: pair (image, object) gets the user's generator's draw at the
    pair's rank among the row-major nonzeros of ``dense_pixels(world)``. The
    differential oracle for the gather (exact equality)."""
    images, objects = np.nonzero(dense_pixels(world))  # row-major order
    g = world.gaze_noise
    draws = np.random.default_rng((world.seed, _GAZE_STREAM, user)).uniform(
        -g, g, size=images.size)
    return dict(zip(zip(images.tolist(), objects.tolist()), (1.0 + draws).tolist()))


def make_manual_world(interest_rows, compositions, gaze_noise=0.0, groups=None):
    """World with explicit interest values and image compositions."""
    interest = np.array(interest_rows, dtype=np.float64)
    n_obj = interest.shape[1]
    pixels = np.zeros((len(compositions), n_obj), dtype=np.int32)
    for image_id, comp in enumerate(compositions):
        for object_id, px in comp:
            pixels[image_id, object_id] = px
    return world_from_pixels(
        pixels, group_of=groups or [0] * len(compositions),
        labels=tuple(f"o{i}" for i in range(n_obj)), interest=interest,
        seed=0, gaze_noise=gaze_noise,
    )


def test_default_world_shape(default_world):
    assert default_world.num_users == 30
    assert default_world.num_objects == 96
    assert default_world.num_images == 1000
    assert default_world.num_groups == 5
    for g in range(5):
        ids = default_world.group_image_ids(g)
        assert len(ids) == 200 and not ids.flags.writeable
        assert ids.tolist() == np.flatnonzero(default_world.group_of == g).tolist()
    for g in (-1, 5):  # no group
        assert default_world.group_image_ids(g).size == 0
    assert default_world.group_image_ids(np.int64(1)).tolist() \
        == default_world.group_image_ids(1).tolist()
    # True read group 1's images, and 1.0 raised an unnamed TypeError
    for g in (True, 1.0, np.float64(1.0)):
        with pytest.raises(ValueError, match=re.escape(f"group id {g!r} is not an integer")):
            default_world.group_image_ids(g)


def test_every_object_appears(default_world):
    pixels = dense_pixels(default_world)
    assert (pixels.sum(axis=1) <= 360 * 640).all()
    assert set(np.flatnonzero(pixels.any(axis=0))) == set(range(96))


def test_interest_in_unit_interval(default_world):
    assert (default_world.interest > 0).all()
    assert (default_world.interest <= 1).all()


def test_generation_deterministic():
    a = generate_world(SMALL_WORLD, seed=3)
    b = generate_world(SMALL_WORLD, seed=3)
    assert world_to_dict(a) == world_to_dict(b)
    c = generate_world(SMALL_WORLD, seed=4)
    assert world_to_dict(a) != world_to_dict(c)


def test_minimal_world():
    config = WorldConfig(
        num_users=1, num_objects=1, num_images=1, num_groups=1,
        min_objects_per_image=1, max_objects_per_image=1,
    )
    world = generate_world(config, seed=0)
    assert world.interest.shape == (1, 1)
    assert 0 < world.interest[0, 0] <= 1


# 1,000 images per group: every (group, object) inclusion count expects >= 5
SAMPLER_CONFIG = WorldConfig(num_users=1, num_objects=12, num_images=3000, num_groups=3,
                             min_objects_per_image=2, max_objects_per_image=6)


def _stream_after_interest(config, seed):
    """The generator of ``generate_world(config, seed)`` as it stands when the
    images are drawn, past the interest draws."""
    rng = np.random.default_rng(seed)
    _generate_interest(config, rng)
    return rng


def _inclusion_counts(pixels, group_of, num_groups):
    """Per (group, object): how many of the group's images show the object."""
    return np.stack([(pixels[group_of == g] > 0).sum(axis=0) for g in range(num_groups)])


@pytest.mark.parametrize("seed", [1, 2])
def test_image_draw_matches_successive_sampling_oracle(seed):
    # the same popularity shuffle, then a different stream: the objects of an
    # image come from the same distribution as per-image choice(p=...,
    # replace=False), so the inclusion counts are homogeneous
    config = SAMPLER_CONFIG
    world = generate_world(config, seed)
    oracle_pixels, oracle_groups = successive_sampling_images(
        config, _stream_after_interest(config, seed))
    assert oracle_pixels.any(axis=0).all()  # nothing left for the placement
    table = np.stack([
        _inclusion_counts(dense_pixels(world), world.group_of, config.num_groups).ravel(),
        _inclusion_counts(oracle_pixels, oracle_groups, config.num_groups).ravel(),
    ])
    result = chi2_contingency(table)
    assert result.expected_freq.min() >= 5
    assert result.pvalue > 0.001


@st.composite
def _world_configs(draw):
    num_objects = draw(st.integers(1, 10))
    num_groups = draw(st.integers(1, 4))
    hi = draw(st.integers(1, num_objects))
    max_px = draw(st.integers(1, 60))
    return WorldConfig(
        num_users=1, num_objects=num_objects, num_groups=num_groups,
        num_images=draw(st.integers(num_groups, 25)),
        min_objects_per_image=draw(st.integers(1, hi)), max_objects_per_image=hi,
        min_pixels_per_object=draw(st.integers(1, max_px)), max_pixels_per_object=max_px,
        max_image_pixels=hi * max_px + draw(st.integers(0, 3 * max_px)),
        object_popularity_exponent=draw(st.floats(0.0, 4.0)),
        group_bias=draw(st.floats(1.0, 5.0)),
    )


@given(_world_configs(), st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_generated_world_properties(config, seed):
    (rows, objects, counts), _ = _generate_images(config, _stream_after_interest(config, seed))
    drawn = np.zeros((config.num_images, config.num_objects), dtype=np.int64)
    drawn[rows, objects] = counts
    assert np.count_nonzero(drawn) == objects.size  # no image draws an object twice
    per_image = np.count_nonzero(drawn, axis=1)
    assert ((per_image >= config.min_objects_per_image)
            & (per_image <= config.max_objects_per_image)).all()
    missing = np.flatnonzero(~drawn.any(axis=0))
    try:
        world = generate_world(config, seed)
    except ConfigurationError as exc:  # a tight budget can leave no room
        named = re.match(r"object (\d+) occurs in no image", str(exc))
        assert named and int(named[1]) in missing
        return
    pixels = dense_pixels(world)
    placed = pixels != drawn
    # the placement adds each missing object once and changes nothing else
    assert not drawn[placed].any()
    assert sorted(np.nonzero(placed)[1].tolist()) == missing.tolist()
    counts = pixels[pixels > 0]
    assert ((counts >= config.min_pixels_per_object)
            & (counts <= config.max_pixels_per_object)).all()
    assert (pixels.sum(axis=1) <= config.max_image_pixels).all()
    assert pixels.any(axis=0).all()
    again = generate_world(config, seed)
    assert world_to_dict(again) == world_to_dict(world)


# WorldConfig accepts it, yet the fourth object fits in no image of 3 x 5000 pixels
NO_ROOM = WorldConfig(num_users=1, num_objects=4, num_images=1, num_groups=1,
                      min_objects_per_image=3, max_objects_per_image=3,
                      min_pixels_per_object=5000, max_pixels_per_object=5000,
                      max_image_pixels=15000)


def test_zero_weight_objects_never_drawn():
    # 6 positive weights suffice for at most 6 objects per image; the other
    # 90 objects only occur where the placement puts them, without a warning
    config = WorldConfig(num_images=200, object_popularity_exponent=400.0,
                         max_objects_per_image=6)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        (_, drawn, _), _ = _generate_images(config, _stream_after_interest(config, 0))
        world = generate_world(config, 0)
    assert np.unique(drawn).size <= 6
    assert dense_pixels(world).any(axis=0).all()


def test_attention_from_gaze_worked_example():
    assert attention_from_gaze((100, 300, 200), (20, 30, 40)) == 0.15


def test_attention_from_gaze_validation():
    with pytest.raises(ValueError):
        attention_from_gaze((), ())
    with pytest.raises(ValueError):
        attention_from_gaze((100, 200), (10,))
    with pytest.raises(ValueError):
        attention_from_gaze((0,), (1,))
    assert attention_from_gaze((100,), (150,)) == 1.0


def test_constant_interest_recovered_exactly():
    world = make_manual_world(
        [[0.35, 0.2]],
        [(((0, 100), (1, 50))), ((0, 321),), ((0, 7), (1, 9))],
    )
    for subset in ([0], [1], [0, 1, 2], [2, 0]):
        assert _raw_dict(world, 0, subset)[0] == pytest.approx(0.35, abs=1e-12)


def test_full_attention_single_image():
    world = make_manual_world([[1.0]], [((0, 400),)])
    assert _raw_dict(world, 0, [0]) == {0: 1.0}


def test_absent_object_raises():
    world = make_manual_world([[0.5, 0.5]], [((0, 10),), ((1, 10),)])
    objects, values = raw_attention_values(world, 0, [0])
    assert objects.tolist() == [0] and values.shape == (1,)
    objects, values = raw_attention_values(world, 0, [])
    assert objects.size == values.size == 0


def test_gaze_noise_bounded_and_deterministic():
    world = make_manual_world([[0.5]], [((0, 1000),)], gaze_noise=0.2)
    v1 = _raw_dict(world, 0, [0])[0]
    v2 = _raw_dict(world, 0, [0])[0]
    assert v1 == v2
    assert 0.4 <= v1 <= 0.6
    assert v1 != 0.5


def test_quantize_one_per_quintile():
    assert quantize_levels([0.1, 0.2, 0.3, 0.4, 0.5]).tolist() == [1, 2, 3, 4, 5]


def test_quantize_constant_maps_to_three():
    assert quantize_levels([0.4, 0.4, 0.4]).tolist() == [3, 3, 3]


def test_quantize_equal_pairs():
    values = [0.1, 0.1, 0.2, 0.2, 0.3, 0.3, 0.4, 0.4, 0.5, 0.5]
    assert quantize_levels(values).tolist() == [1, 1, 2, 2, 3, 3, 4, 4, 5, 5]


def test_quantize_ties_break_by_object_id():
    # values of objects 0..4; objects 0 and 1 tie at 0.5
    levels = quantize_levels([0.5, 0.5, 0.1, 0.9, 0.2]).tolist()
    assert levels[2] == 1 and levels[4] == 2 and levels[3] == 5
    assert levels[0] == 3 and levels[1] == 4


def test_quantize_rejects_out_of_range():
    # values outside [0, 1], and two rows, which used to be ranked as one, are
    # rows of the catalogue; an empty row is valid
    levels = quantize_levels([])
    assert levels.size == 0 and levels.dtype == np.int64


@given(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=50, unique=True),
       st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_quantize_permutation_equivariant(values, rnd):
    # distinct values: relabelling the objects relabels their levels
    order = list(range(len(values)))
    rnd.shuffle(order)
    base = quantize_levels(values)
    assert quantize_levels(np.array(values)[order]).tolist() == base[order].tolist()


@given(st.lists(st.floats(0.001, 0.999), min_size=2, max_size=50, unique=True))
@settings(max_examples=60, deadline=None)
def test_quantize_monotone_invariant(values):
    squared = [v * v for v in values]  # strictly monotone on (0, 1)
    assert quantize_levels(values).tolist() == quantize_levels(squared).tolist()


@given(st.one_of(
    # few distinct values, so ties, repeats and constant rows are common
    st.lists(st.sampled_from([0.0, 0.1, 0.25, 0.5, 0.9999999999999999, 1.0]), max_size=40),
    st.lists(st.floats(0.0, 1.0), max_size=4),  # n < 5
    st.lists(st.floats(0.0, 1.0), max_size=40),
))
@settings(max_examples=300, deadline=None)
def test_quantize_matches_pair_oracle(values):
    levels = quantize_levels(values)
    assert levels.dtype == np.int64
    assert levels.tolist() == [level for _, level in quantize_pairs(enumerate(values))]


@st.composite
def _padded_rows(draw):
    """``(width, rows)``: each row's values at a drawn set of columns out of
    ``width``, ascending, each row's values from its own pool (one value, so
    the row is constant; a few values, so they tie; or any in [0, 1])."""
    width = draw(st.integers(1, 64))
    rows = []
    for _ in range(draw(st.integers(1, 5))):
        columns = sorted(draw(st.sets(st.integers(0, width - 1), min_size=1)))
        pool = draw(st.sampled_from([(0.5,), (0.0, 0.25, 1.0), None]))
        value = st.sampled_from(pool) if pool else st.floats(0.0, 1.0)
        rows.append((columns, draw(st.lists(value, min_size=len(columns),
                                            max_size=len(columns)))))
    return width, rows


@given(_padded_rows())
@settings(max_examples=300, deadline=None)
def test_rank_levels_match_row_oracle(drawn):
    # one row-wise sort over rows with +inf holes gives each row's levels
    # from a stable argsort of that row alone
    width, rows = drawn
    padded = np.full((len(rows), width), np.inf)
    for r, (columns, values) in enumerate(rows):
        padded[r, columns] = values
    levels = _rank_levels(padded, np.array([len(columns) for columns, _ in rows]))
    for r, (columns, values) in enumerate(rows):
        assert levels[r, columns].tolist() == row_quantize_levels(values).tolist()
        assert quantize_levels(values).tolist() == row_quantize_levels(values).tolist()


def test_rank_levels_cases():
    inf = np.inf
    padded = np.array([[0.5, inf, 0.5, 0.5],  # constant row with a hole
                       [inf, 0.3, inf, inf],  # one value
                       [0.2, 0.1, 0.2, 0.1],  # ties rank by column
                       [0.9, 0.0, inf, 1.0]])
    levels = _rank_levels(padded, np.array([3, 1, 4, 3]))
    present = padded != inf
    assert levels[present].tolist() == [3, 3, 3, 3, 3, 1, 4, 2, 2, 1, 4]


def test_ground_truth_levels_dense(default_world):
    truth = ground_truth_levels(default_world)
    assert truth.levels.shape == (30, 96)
    assert truth.levels.min() >= 1 and truth.levels.max() <= 5


def test_ground_truth_minimal_constant():
    world = make_manual_world([[0.7]], [((0, 10),)])
    assert ground_truth_levels(world).levels[0, 0] == 3


def test_ground_truth_preserves_rank_order():
    # interest strictly increasing in object id, one image containing all
    interest = [np.linspace(0.05, 0.95, 10)]
    world = make_manual_world(interest, [tuple((o, 100) for o in range(10))])
    levels = ground_truth_levels(world).levels[0]
    assert (np.diff(levels) >= 0).all()
    assert levels[0] == 1 and levels[-1] == 5


def test_sparsify_draw_ranges(small_world):
    for seed in range(5):
        ran1, ran2, groups, retained = _draw_images(small_world, 0, seed)
        assert ran1 in (2, 3)  # capped by the 3-group small world
        assert 30 <= ran2 <= 70
        assert len(groups) == ran1
        present = set(np.flatnonzero(dense_pixels(small_world)[retained].any(axis=0)))
        assert {o for _, o, _ in sparsify(small_world, 0, seed)} <= present


def test_sparsify_deterministic(small_world):
    assert sparsify(small_world, 1, 42) == sparsify(small_world, 1, 42)
    assert sparsify(small_world, 1, 42) != sparsify(small_world, 1, 43)


def test_sparsify_is_sparse(default_world):
    counts = [len(sparsify(default_world, u, 7)) for u in range(5)]
    assert all(c < 96 for c in counts)
    assert all(c > 10 for c in counts)


def test_sparsify_matches_full_raw_values_on_shared_subset(small_world):
    # raw attention over identical retained subsets is identical whether
    # reached via sparsify or directly
    retained = _draw_images(small_world, 2, 9)[3]
    direct = raw_attention_values(small_world, 2, retained)
    again = raw_attention_values(small_world, 2, retained.tolist())
    for a, b in zip(direct, again):
        assert np.array_equal(a, b)


def test_world_roundtrip(tmp_path, small_world):
    path = tmp_path / "world.json"
    save_world(small_world, path)
    loaded = load_world(path)
    assert world_to_dict(loaded) == world_to_dict(small_world)
    save_world(loaded, tmp_path / "world2.json")
    assert (tmp_path / "world2.json").read_bytes() == path.read_bytes()


def _assert_saved_as_json_dump(world, path):
    """``save_world`` writes the bytes of ``json.dump(indent=1)`` on
    ``world_to_dict``'s document, the writer it replaced, and ``load_world``
    reads them on its fast path."""
    _assert_read_on_the_fast_path(world, path)
    assert path.read_bytes() == (json.dumps(world_to_dict(world), indent=1) + "\n").encode()


def _assert_read_on_the_fast_path(world, path):
    """``load_world``'s fast path reads the file that ``save_world`` writes
    for ``world`` back to ``world``, without the JSON path."""
    save_world(world, path)
    saved = _saved_world(path.read_bytes())
    assert saved is not None and world_to_dict(_world(*saved)) == world_to_dict(world)


@pytest.mark.parametrize("gaze_noise", [0.0, 0.1])
@pytest.mark.parametrize("seed", [0, 1, 7, 9])
def test_save_world_matches_json_dump(tmp_path, seed, gaze_noise):
    world = generate_world(dataclasses.replace(WorldConfig(), gaze_noise=gaze_noise), seed)
    _assert_saved_as_json_dump(world, tmp_path / "world.json")


@given(_world_configs(), st.integers(1, 3), st.sampled_from([0.0, 0.1]),
       st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_save_world_matches_json_dump_on_small_worlds(tmp_path_factory, config, num_users,
                                                       gaze_noise, seed):
    config = dataclasses.replace(config, num_users=num_users, gaze_noise=gaze_noise)
    try:
        world = generate_world(config, seed)
    except ConfigurationError:  # a tight budget can leave no room
        return
    _assert_saved_as_json_dump(world, tmp_path_factory.mktemp("worlds") / "world.json")


def test_load_world_names_images_key_when_it_lists_none():
    # used to raise World's message about group_of and indptr; the loader's
    # message is the catalogue's row "world: images empty"
    doc = world_to_dict(make_manual_world([[0.5]], [((0, 10),)]))
    doc["images"] = []
    with pytest.raises(ValueError, match=r"^world file: 'images' must list at least one image$"):
        loop_world_from_dict(doc)


# escapes and non-ASCII labels, an int gaze_noise, int interest entries,
# compositions out of order, the largest pixel count and a seed above 2**53
HAND_WRITTEN_WORLD = r"""{
 "version": "uoal-sim/1",
 "seed": 9007199254740993,
 "num_users": 2,
 "gaze_noise": 0,
 "catalog": ["say \"hi\"", "back\\slash", "two\nlines", "\u0001ctl", "chaise_é", "雪"],
 "images": [
  {"id": 0, "group": 1, "composition": [[5, 2147483647], [0, 12], [3, 7]]},
  {"id": 1, "group": 0, "composition": [[4, 1], [1, 300], [2, 40]]},
  {"id": 2, "group": 1, "composition": [[2, 9], [5, 5]]}
 ],
 "interest": [[1, 0.5, 1e-05, 0.25, 1, 0.1], [0.3, 1, 1, 0.7, 0.9999999999999999, 1]]
}
"""


def test_save_world_matches_json_dump_on_hand_written_file(tmp_path):
    source = tmp_path / "hand.json"
    source.write_text(HAND_WRITTEN_WORLD, encoding="utf-8")
    world = load_world(source)
    assert world.labels == ('say "hi"', "back\\slash", "two\nlines", "\x01ctl", "chaise_é", "雪")
    assert type(world.gaze_noise) is int and world.seed == 2**53 + 1
    assert dense_pixels(world)[0, 5] == 2**31 - 1
    path = tmp_path / "world.json"
    _assert_saved_as_json_dump(world, path)
    text = path.read_text(encoding="ascii")
    assert '\n "gaze_noise": 0,\n' in text and '\n "seed": 9007199254740993,\n' in text
    assert world_to_dict(load_world(path)) == world_to_dict(world)


def test_numpy_scalar_seed_and_gaze_noise_save_and_reload(tmp_path):
    # an np.int64 seed passed the check, and save_world then raised TypeError
    world = dataclasses.replace(generate_world(SMALL_WORLD, np.int64(3)),
                                gaze_noise=np.float32(0.1))
    assert type(world.seed) is int and type(world.gaze_noise) is float
    path = tmp_path / "world.json"
    _assert_saved_as_json_dump(world, path)
    loaded = load_world(path)
    assert (loaded.seed, loaded.gaze_noise) == (3, float(np.float32(0.1)))
    assert world_to_dict(loaded) == world_to_dict(world)


@pytest.mark.parametrize("seed", [np.int64(3), np.uint64(2**64 - 1), np.int32(0)])
def test_saved_numpy_seed_reads_back_as_same_integer(tmp_path, seed):
    world = dataclasses.replace(make_manual_world([[0.5]], [((0, 10),)]), seed=seed)
    path = tmp_path / "world.json"
    save_world(world, path)
    saved = json.loads(path.read_text(encoding="utf-8"))["seed"]
    assert type(saved) is int and saved == int(seed)
    assert load_world(path).seed == int(seed)


def test_interest_plateau_shape():
    config = dataclasses.replace(
        WorldConfig(), interest_noise=0.0, num_users=6,
    )
    world = generate_world(config, seed=5)
    hot = (world.interest > 0.9).sum(axis=1)
    cold = (world.interest < 0.2).sum(axis=1)
    # each user has a saturated hot set near the configured fraction and a
    # large near-floor cold baseline
    assert (hot >= 8).all() and (hot <= 22).all()
    assert (cold >= 48).all()


def _traced_peak(call) -> tuple:
    """``call()``'s result and the peak bytes that it held in Python and
    numpy allocations, by ``tracemalloc``."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_world_stage_memory_stays_below_its_whole_arrays(tmp_path):
    # 20,000 images x 96 objects: the whole key matrix is 15.4 MB and the file
    # 6.0 MB. Drawing every key at once, formatting the file as one string and
    # parsing it from one decoded text peaked at 33.6, 28.1 and 38.5 MB
    config = WorldConfig(num_images=20_000)
    path = tmp_path / "world.json"
    world, generated = _traced_peak(lambda: generate_world(config, 0))
    assert generated < config.num_images * config.num_objects * 8
    _, saved = _traced_peak(lambda: save_world(world, path))
    assert saved < path.stat().st_size
    loaded, peak = _traced_peak(lambda: load_world(path))
    assert peak < 2 * path.stat().st_size
    assert _saved_world(path.read_bytes()) is not None  # the fast path read it
    assert world_to_dict(loaded) == world_to_dict(world)


def _reference_raw_attention_values(images, world, user, image_ids, factors):
    """The per-image dict loop that the pixel matrix replaced, reading each
    image's composition from ``world_to_dict(world)["images"]`` and its gaze
    factors from ``_reference_gaze_factors(world, user)``: the differential
    oracle for raw_attention_values (exact equality, not a tolerance)."""
    gaze_sum = {}
    pixel_sum = {}
    for image_id in image_ids:
        for object_id, px in images[image_id]["composition"]:
            mass = world.interest[user, object_id] * px * factors[image_id, object_id]
            gaze_sum[object_id] = gaze_sum.get(object_id, 0.0) + mass
            pixel_sum[object_id] = pixel_sum.get(object_id, 0.0) + px
    return {
        o: attention_from_gaze([pixel_sum[o]], [gaze_sum[o]]) for o in gaze_sum
    }


def _assert_matches_reference(world, master_seed, users):
    images = world_to_dict(world)["images"]
    n = len(images)
    every = list(range(n))
    # unsorted, with a repeated image id (counted twice by both paths)
    shuffled = np.random.default_rng(master_seed).permutation(n)[: n // 3].tolist()
    shuffled.append(shuffled[0])
    for user in users:
        retained = _draw_images(world, user, master_seed)[3].tolist()
        factors = _reference_gaze_factors(world, user)
        for ids in (every, retained, shuffled):
            assert _raw_dict(world, user, ids) == \
                _reference_raw_attention_values(images, world, user, ids, factors)


@pytest.mark.parametrize("seed", range(10))
def test_raw_attention_matches_reference_loop(seed):
    _assert_matches_reference(generate_world(WorldConfig(), seed), seed, range(30))


@pytest.mark.parametrize("seed", range(2))
def test_raw_attention_matches_reference_loop_with_gaze_noise(seed):
    config = dataclasses.replace(WorldConfig(), gaze_noise=0.1)
    _assert_matches_reference(generate_world(config, seed), seed, range(30))


@pytest.mark.parametrize("gaze_noise", [0.0, 0.1])
@pytest.mark.parametrize("config, seed", [
    (WorldConfig(), 0), (WorldConfig(), 1), (WorldConfig(), 2), (SMALL_WORLD, 5),
], ids=["seed0", "seed1", "seed2", "small-seed5"])
def test_attention_arrays_match_dict_path(config, seed, gaze_noise):
    # exact equality: the matrix rows, the levels and the records are the
    # bits of the dict-and-list path
    world = generate_world(dataclasses.replace(config, gaze_noise=gaze_noise), seed)
    every = range(world.num_images)
    matrix = attention_matrix(world)
    for user in range(world.num_users):
        objects, values = raw_attention_values(world, user, every)
        assert objects.tolist() == list(range(world.num_objects))
        assert np.array_equal(matrix[user], values)
    expected = [[level for _, level in quantize_pairs(sorted(_raw_dict(world, u, every).items()))]
                for u in range(world.num_users)]
    assert ground_truth_levels(world).levels.tolist() == expected
    # the oracle's gaze factors are the whole stream, not a prefix
    images = world_to_dict(world)["images"]
    for user in range(world.num_users):
        factors = _reference_gaze_factors(world, user)
        oracle = dict_sparsify(world, user, seed, lambda w, u, ids: _reference_raw_attention_values(
            images, w, u, ids, factors))
        assert sparsify(world, user, seed) == oracle


@pytest.mark.parametrize("seed", [0, 2**32, 2**64 + 3])
def test_gaze_draw_is_prefix_of_longer_draw(seed):
    # raw_attention_values draws the factors only up to the last occurrence
    # it reads, which gives the same factors only while this holds
    for g in (0.1, 0.5):
        full = np.random.default_rng((seed, _GAZE_STREAM, 3)).uniform(-g, g, size=1000)
        for m in (0, 1, 2, 7, 999):
            prefix = np.random.default_rng((seed, _GAZE_STREAM, 3)).uniform(-g, g, size=m)
            assert np.array_equal(prefix, full[:m])
    world = dataclasses.replace(generate_world(SMALL_WORLD, 1), gaze_noise=0.1, seed=seed)
    n = world.objects.size
    for m in (1, n // 2, n):
        assert np.array_equal(_gaze_factors(world, 0, m), _gaze_factors(world, 0, n)[:m])


def test_parent_order_world_file_loads_to_same_matrix(default_world):
    # world files used to list each composition in draw order; any order
    # loads to the same matrix, levels and records
    doc = world_to_dict(default_world)
    rng = np.random.default_rng(0)
    for image in doc["images"]:
        comp = image["composition"]
        image["composition"] = [comp[i] for i in rng.permutation(len(comp))]
    loaded = world_from_dict(doc)
    assert np.array_equal(dense_pixels(loaded), dense_pixels(default_world))
    assert np.array_equal(loaded.group_of, default_world.group_of)
    assert np.array_equal(ground_truth_levels(loaded).levels,
                          ground_truth_levels(default_world).levels)
    for user in range(loaded.num_users):
        assert sparsify(loaded, user, 7) == sparsify(default_world, user, 7)
    assert world_to_dict(loaded) == world_to_dict(default_world)


@pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64 + 3])
def test_gaze_factor_fixed_per_pair_across_calls(seed):
    # a one-image call reveals each (image, object) factor; any subset, order
    # or repeat of the images combines those same factors
    interest = [0.5, 0.25]
    world = make_manual_world(
        [interest], [((0, 100), (1, 30)), ((0, 7),), ((1, 50), (0, 400)), ((0, 9),)],
        gaze_noise=0.2,
    )
    world = dataclasses.replace(world, seed=seed)
    compositions = world_to_dict(world)["images"]
    factor = {(i, o): value / interest[o]
              for i in range(world.num_images)
              for o, value in _raw_dict(world, 0, [i]).items()}
    assert len(factor) == world.objects.size == len(set(factor.values()))
    assert all(0.8 <= f <= 1.2 for f in factor.values())
    for ids in ([0, 1, 2, 3], [3, 1], [2, 0, 2], [1, 1, 3, 0, 1]):
        mass, pixels = {}, {}
        for i in ids:
            for o, px in compositions[i]["composition"]:
                mass[o] = mass.get(o, 0.0) + interest[o] * px * factor[i, o]
                pixels[o] = pixels.get(o, 0) + px
        expected = {o: mass[o] / pixels[o] for o in mass}
        assert _raw_dict(world, 0, ids) == pytest.approx(expected, rel=1e-12)


def test_world_rejects_bad_seed():
    # the seed faults of World, generate_world and sparsify (where True drew
    # as seed 1 and None from fresh entropy) are rows of the catalogue; seeds
    # of several entropy words and numpy integers stay valid
    base = make_manual_world([[0.5]], [((0, 10),)], gaze_noise=0.1)
    assert _raw_dict(dataclasses.replace(base, seed=2**40), 0, [0])[0] != 0.5
    world = make_manual_world([[0.2], [0.5]], [((0, 10),), ((0, 5),)], groups=[0, 1])
    assert sparsify(world, [0], np.int64(3)).records == sparsify(world, [0], 3).records


def test_world_rejects_group_gaps():
    # a gap is a row of the catalogue; groups in any order are valid
    compositions = [((0, 10),)] * 4
    assert make_manual_world([[0.5]], compositions, groups=[2, 0, 1, 0]).num_groups == 3


def test_world_rejects_images_with_negative_counts_or_no_objects():
    def world(pixels):
        return world_from_pixels(pixels, group_of=[0] * len(pixels), labels=("a", "b"),
                                 interest=[[0.5, 0.5]], seed=0)

    # the non-positive count is named first, although image 1 has no objects
    with pytest.raises(ValueError, match=r"image 2 has a pixel count outside 1\.\.2\*\*31-1"):
        world([[10, 0], [0, 0], [5, -1], [-3, 0]])
    with pytest.raises(ValueError, match="image 1 has no objects"):
        world([[10, 0], [0, 0], [0, 0]])
    layout = world([[10, 0], [0, 7], [3, 4]])
    assert layout.indptr.tolist() == [0, 1, 2, 4]
    assert layout.objects.tolist() == [0, 1, 0, 1]
    assert layout.counts.tolist() == [10, 7, 3, 4]


@pytest.mark.parametrize("gaze_noise", [0.0, 0.1])
def test_raw_attention_rejects_user_outside_world(gaze_noise):
    world = make_manual_world([[0.2], [0.5], [0.8]], [((0, 10),)], gaze_noise=gaze_noise)
    for user in (-1, 3):
        with pytest.raises(ValueError, match=rf"user {user} outside 0\.\.2"):
            raw_attention_values(world, user, [0])
        with pytest.raises(ValueError, match=rf"user {user} outside 0\.\.2"):
            sparsify(world, user, 0)


def test_user_ids_must_be_integers():
    # a bool or a float, which used to reach numpy's indexing or the seed
    # sequence, is a row of the catalogue; numpy integers are valid
    world = make_manual_world([[0.2], [0.5], [0.8]], [((0, 10),), ((0, 5),)], groups=[0, 1])
    for user in (np.int64(2), np.uint8(1)):
        assert np.array_equal(raw_attention_values(world, user, [0])[1],
                              raw_attention_values(world, int(user), [0])[1])
        assert sparsify(world, user, 0).records == sparsify(world, int(user), 0).records


def test_raw_attention_rejects_non_integer_image_ids():
    # a float, a bool, and an integer beyond int64 (an unnamed OverflowError,
    # or a uint64 array whose 2**64 - 1 wrapped to image -1) are rows of the
    # catalogue; every integer form is valid
    world = make_manual_world([[0.5, 0.4]], [((0, 10),), ((1, 20),), ((0, 5),)])
    want = raw_attention_values(world, 0, [0, 1])
    for ids in ([0, 1], range(2), np.array([0, 1], dtype=np.uint8), [np.int64(0), 1],
                np.array([0, 1], dtype=np.uint64)):
        got = raw_attention_values(world, 0, ids)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
    for ids in ([], np.array([])):
        objects, values = raw_attention_values(world, 0, ids)
        assert objects.size == values.size == 0


def test_sparsify_merges_per_user_draws(small_world):
    merged = sparsify(small_world, range(small_world.num_users), 5)
    expected = frozenset().union(
        *(sparsify(small_world, u, 5).records for u in range(small_world.num_users))
    )
    assert merged.records == expected
    assert sparsify(small_world, [2], 5) == sparsify(small_world, 2, 5)
    assert sparsify(small_world, [], 5) == SparseAttentionRecords()


@st.composite
def _sparsifiable_worlds(draw):
    """A valid world of ``_csr_worlds``' images in 2 to 4 groups, with 1 to
    4 users whose interest often repeats a few values, so attention values
    tie; gaze noise 0 or 0.1."""
    fields = draw(_csr_worlds().filter(lambda fields: len(fields["group_of"]) >= 2))
    n = len(fields["group_of"])
    groups = draw(st.integers(2, min(n, 4)))
    fields["group_of"] = draw(st.permutations([i % groups for i in range(n)]))
    row = st.lists(st.one_of(st.sampled_from([0.25, 0.5, 1.0]), st.floats(1e-3, 1.0)),
                   min_size=len(fields["labels"]), max_size=len(fields["labels"]))
    fields["interest"] = draw(st.lists(row, min_size=1, max_size=4))
    fields["seed"] = draw(st.integers(0, 2**40))
    return World(**fields)


@given(_sparsifiable_worlds(), st.data())
@settings(max_examples=200, deadline=None)
def test_sparsify_matches_per_user_loop(world, data):
    seed = data.draw(st.integers(0, 1000))
    user = st.integers(0, world.num_users - 1)
    users = data.draw(st.one_of(user, user.map(np.int64), st.lists(user, min_size=1, max_size=6),
                                st.lists(user, min_size=1, max_size=6).map(np.array)))
    try:
        expected = loop_sparsify(world, users, seed)
    except InvalidRecordError as exc:  # a repeated user repeats its pairs
        with pytest.raises(InvalidRecordError) as raised:
            sparsify(world, users, seed)
        assert (str(raised.value), raised.value.index) == (str(exc), exc.index)
        return
    assert sparsify(world, users, seed) == expected


def _dense_compositions(pixels):
    """Each image's (object, pixels) pairs read straight off the matrix."""
    return [[[o, px] for o, px in enumerate(row) if px] for row in np.asarray(pixels).tolist()]


@st.composite
def _small_worlds(draw):
    num_images = draw(st.integers(1, 8))
    num_objects = draw(st.integers(1, 6))
    pixels = np.array(draw(st.lists(
        st.lists(st.one_of(st.just(0), st.integers(1, 5000)),
                 min_size=num_objects, max_size=num_objects),
        min_size=num_images, max_size=num_images,
    )), dtype=np.int32)
    for row in pixels:  # every image shows at least one object
        if not row.any():
            row[draw(st.integers(0, num_objects - 1))] = draw(st.integers(1, 5000))
    interest = draw(st.lists(
        st.lists(st.floats(1e-3, 1.0), min_size=num_objects, max_size=num_objects),
        min_size=1, max_size=3,
    ))
    return world_from_pixels(
        pixels, group_of=[0] * num_images,
        labels=tuple(f"o{i}" for i in range(num_objects)), interest=interest,
        seed=draw(st.integers(0, 2**32 - 1)), gaze_noise=draw(st.sampled_from([0.0, 0.1])),
    )


@given(st.data(), _small_worlds())
@settings(max_examples=300, deadline=None)
def test_raw_attention_matches_reference_on_small_worlds(data, world):
    # unsorted image lists with repeats; the oracle reads the compositions off
    # the dense matrix, not off the occurrence layout
    images = [{"composition": comp} for comp in _dense_compositions(dense_pixels(world))]
    ids = data.draw(st.lists(st.integers(0, world.num_images - 1), min_size=1, max_size=24))
    user = data.draw(st.integers(0, world.num_users - 1))
    assert _raw_dict(world, user, ids) == _reference_raw_attention_values(
        images, world, user, ids, _reference_gaze_factors(world, user))


def _loaded_parent_order_world():
    doc = world_to_dict(generate_world(WorldConfig(), 3))
    rng = np.random.default_rng(3)
    for image in doc["images"]:
        image["composition"] = [image["composition"][i]
                                for i in rng.permutation(len(image["composition"]))]
    return world_from_dict(doc)


@pytest.mark.parametrize("make", [
    lambda: generate_world(WorldConfig(), 0),
    lambda: generate_world(SMALL_WORLD, 11),
    _loaded_parent_order_world,
    lambda: make_manual_world([[0.5, 0.2, 0.9]], [((2, 40), (0, 10)), ((1, 7),), ((0, 3),)]),
], ids=["generated", "generated-small", "loaded-parent-order", "manual"])
def test_occurrence_layout_matches_pixels(make):
    world = make()
    pixels = dense_pixels(world)
    dense = _dense_compositions(pixels)
    bounds = world.indptr.tolist()
    assert bounds[0] == 0 and bounds[-1] == np.count_nonzero(pixels)
    for i, comp in enumerate(dense):
        a, b = bounds[i], bounds[i + 1]
        assert [[o, px] for o, px in zip(world.objects[a:b].tolist(),
                                         world.counts[a:b].tolist())] == comp
    assert [image["composition"] for image in world_to_dict(world)["images"]] == dense
    for arr in (world.indptr, world.objects, world.counts):
        assert not arr.flags.writeable
    assert world.counts.dtype == np.int32
    # a gather reads the images in the given order, repeats included
    ids = np.random.default_rng(0).integers(0, world.num_images, 2 * world.num_images + 3)
    at, objects, px = world.occurrences(ids)
    rows, expected_objects = np.nonzero(pixels[ids])
    # each occurrence's position is its pair's rank among the row-major nonzeros
    rank = np.cumsum(pixels != 0).reshape(pixels.shape) - 1
    assert at.tolist() == rank[ids[rows], expected_objects].tolist()
    assert objects.tolist() == expected_objects.tolist()
    assert px.tolist() == pixels[ids][rows, expected_objects].tolist()


# faults of one field of a world document: those of test_cli.py's
# _break_image_3 and _set_non_integer, integers beyond int64, a bool group,
# missing keys, malformed entries and interest rows
_DOCUMENT_FAULTS = {
    "object id -1": lambda image, entry: entry.__setitem__(0, -1),
    "object id past the catalog": lambda image, entry: entry.__setitem__(0, 10**6),
    "duplicate image id": lambda image, entry: image.update(id=max(image["id"] - 1, 1)),
    "negative group": lambda image, entry: image.update(group=-1),
    "repeated object": lambda image, entry: image["composition"].append([entry[0], 50]),
    "pixel count 0": lambda image, entry: entry.__setitem__(1, 0),
    "empty composition": lambda image, entry: image.update(composition=[]),
    "fractional object id": lambda image, entry: entry.__setitem__(0, entry[0] + 0.7),
    "fractional pixel count": lambda image, entry: entry.__setitem__(1, entry[1] + 0.5),
    "bool object id": lambda image, entry: entry.__setitem__(0, True),
    "string pixel count": lambda image, entry: entry.__setitem__(1, str(entry[1])),
    "fractional group": lambda image, entry: image.update(group=image["group"] + 0.5),
    "string image id": lambda image, entry: image.update(id=str(image["id"])),
    "object id 10**30": lambda image, entry: entry.__setitem__(0, 10**30),
    "pixel count 10**30": lambda image, entry: entry.__setitem__(1, 10**30),
    "bool group": lambda image, entry: image.update(group=True),
    "group past the images": lambda image, entry: image.update(group=10**3),
    "no id": lambda image, entry: image.pop("id"),
    "no composition": lambda image, entry: image.pop("composition"),
    "entry of three": lambda image, entry: entry.append(1),
    "entry not a list": lambda image, entry: image["composition"].insert(0, 7),
}


def _break_document(doc, fault, position, k):
    """Apply one fault to image ``position`` (entry ``k`` of its composition)
    or to the interest rows."""
    images, rows = doc["images"], doc["interest"]
    if fault == "id out of order":
        other = position + 1 if position + 1 < len(images) else position - 1
        if other >= 0:
            images[position], images[other] = images[other], images[position]
    elif fault == "image not a dict":
        images[position] = [images[position]]
    elif fault == "interest row not a list":
        rows[position % len(rows)] = 0.5
    elif fault == "interest row ragged":
        rows[position % len(rows)].append(0.5)
    elif fault.startswith("interest "):
        row = rows[position % len(rows)]
        value = {"interest string": "0.5", "interest bool": True, "interest null": None,
                 "interest beyond float64": 10**400, "interest int": 1}[fault]
        row[k % len(row)] = value
    else:
        image = images[position]
        _DOCUMENT_FAULTS[fault](image, image["composition"][k % len(image["composition"])])


def _load_outcome(load, doc):
    try:
        return world_to_dict(load(doc))
    except Exception as err:  # the exception is the outcome compared
        return type(err), str(err)


@given(st.data(), _small_worlds())
@settings(max_examples=400, deadline=None)
def test_world_from_dict_matches_per_entry_oracle(data, world):
    # zero to two faults in any image; both loaders must name the same first
    # fault in document order with the same exception, or build equal worlds
    doc = world_to_dict(world)
    faults = [*_DOCUMENT_FAULTS, "id out of order", "image not a dict", "interest string",
              "interest bool", "interest null", "interest beyond float64", "interest int",
              "interest row not a list", "interest row ragged"]
    for _ in range(data.draw(st.integers(0, 2))):
        position = data.draw(st.integers(0, len(doc["images"]) - 1))
        try:
            _break_document(doc, data.draw(st.sampled_from(faults)), position,
                            data.draw(st.integers(0, 20)))
        # an earlier fault removed the target, or made an entry an int
        except (AttributeError, KeyError, TypeError, IndexError, ZeroDivisionError):
            pass
    assert _load_outcome(world_from_dict, doc) == _load_outcome(loop_world_from_dict, doc)


@pytest.mark.parametrize("fault", [*_DOCUMENT_FAULTS, "id out of order", "image not a dict"])
def test_world_from_dict_names_each_fault_as_oracle(tmp_path, default_world, fault):
    # each fault alone in image 3 of the default world; written in
    # save_world's layout, load_world names it as the JSON path does, also
    # where its fast path leaves the check to World
    doc = world_to_dict(default_world)
    _break_document(doc, fault, 3, 0)
    outcome = _load_outcome(world_from_dict, doc)
    assert outcome == _load_outcome(loop_world_from_dict, doc)
    assert outcome[0] is ValueError and "image 3" in outcome[1]
    path = tmp_path / "world.json"
    path.write_text(json.dumps(doc, indent=1) + "\n")
    assert _load_outcome(load_world, path) == _load_outcome(_json_load_world, path)


def _edit_match(pattern, replacement, where=lambda text: (0, len(text))):
    """A text edit that rewrites the ``k``-th match of ``pattern`` between
    the bounds that ``where(text)`` gives, if there is one."""
    def edit(text, k):
        start, end = where(text)
        matches = list(re.compile(pattern).finditer(text, start, end))
        if not matches:
            return text
        m = matches[k % len(matches)]
        new = replacement(m) if callable(replacement) else m.expand(replacement)
        return text[:m.start()] + new + text[m.end():]
    return edit


def _images_block(text):
    start = text.find('\n "images": [')
    end = text.find("\n ],\n", start)
    return (start, end) if 0 <= start < end else (0, 0)


def _edit_number(replace):
    """A text edit that rewrites the ``k``-th integer of the images block."""
    return _edit_match(r"[0-9]+", lambda m: replace(m[0]), _images_block)


# edits of a saved world's text, ``edit(text, k)``: each gives text that
# json.loads reads differently from the layout save_world writes, rejects,
# or reads the same with other bytes
_TEXT_EDITS = {
    "leading zero": _edit_number(lambda s: "0" + s),
    "minus sign": _edit_number(lambda s: "-" + s),
    "19 digits past int64": _edit_number(lambda s: "9223372036854775808"),
    "19 digits": _edit_number(lambda s: "1" + s.zfill(18)),
    "20 digits": _edit_number(lambda s: "1" + s.zfill(19)),
    "11 digits": _edit_number(lambda s: "1" + s.zfill(10)),
    "fraction": _edit_number(lambda s: s + ".0"),
    "exponent": _edit_number(lambda s: "1e3"),
    "space before a number": _edit_number(lambda s: " " + s),
    "space after a number": _edit_number(lambda s: s + " "),
    "no number": _edit_number(lambda s: ""),
    "bool": _edit_number(lambda s: "true"),
    "non-ASCII digit": _edit_number(lambda s: s + "\u0663"),
    "non-ASCII letter": _edit_number(lambda s: "\u00e9" + s),
    "object id moved into a key": _edit_match(r'"composition": \[\n    \[\n     ([0-9]+),',
                                              r'"compo\1sition": [\n    [\n     ,'),
    "image id moved into its key": _edit_match(r'"id": ([0-9]+),', r'"i\1d": ,'),
    "image of an id alone": _edit_match(r'"group": [0-9]+,\n   "composition": \[[^}]*?\n   \]',
                                        r'"group": ,\n   "composition": [\n    \n   ]'),
    "renamed key": _edit_match(r'"group"', '"grp"'),
    "number after the last image": _edit_match(r"\}\n \],\n", "} 5\n ],\n"),
    "numbers around the images": _edit_match(r'("images": \[\n  )([\s\S]*?\})(\n \],\n)',
                                             r"\g<1>5 \2 5\3"),
    "CRLF line ends": lambda text, k: text.replace("\n", "\r\n"),
    "non-ASCII label": _edit_match(r'"o([0-9]+)"', '"o\\1\u00e9"'),
    "images key before the block": _edit_match(r'\n "catalog"', '\n "images": [],\n "catalog"'),
    "images key after the block": lambda text, k: text[:-3] + ',\n "images": 7' + text[-3:],
    "interest key before the block": _edit_match(r'\n "catalog"',
                                                 '\n "interest": 7,\n "catalog"'),
    "interest key after the block": lambda text, k: text[:-3] + ',\n "interest": [[1]]'
                                                    + text[-3:],
    "no members before the block": _edit_match(r'\{[\s\S]*?(?=,\n "images")', "{"),
    "no members after the block": _edit_match(r'(?<=\n \],\n)[\s\S]*\Z', "}\n"),
    # a member list that json.loads rejects but splits into two that it reads
    "members before the block moved after it": _edit_match(
        r'\A\{([\s\S]*?)(,\n "images"[\s\S]*)\n\}\n\Z', r"{\2,\1\n}\n"),
    "members after the block moved before it": _edit_match(
        r'(,\n "images"[\s\S]*?\n \],\n)([\s\S]*)\n\}\n\Z', r",\n\2\1}\n"),
    # texts whose members around the block, read as one text with an empty
    # list in the block's place, hide a later or an outer "images", or form a list
    "empty images key after the block": _edit_match(r'\n \],\n "interest"',
                                                    '\n ],\n "images": [],\n "interest"'),
    "document in a list": lambda text, k: "[" + text + "]",
    "block inside a member after an empty images key": lambda text, k: text.replace(
        ',\n "images": [\n', ',\n "images": [],\n "x": {"y": 1,\n "images": [\n', 1).replace(
        '\n ],\n "interest"', '\n ],\n "z": 2},\n "interest"', 1),
}


def _json_load_world(path):
    """``load_world`` without its fast path: the one that names faults."""
    with naming(path):
        return world_from_dict(parse_json(read_bytes(path)))


def _manual_world_text():
    # two users, three images in two groups, pixel counts of 1 to 4 digits
    return json.dumps(world_to_dict(make_manual_world(
        [[0.5, 1.0, 0.25, 0.75], [1.0, 0.125, 0.5, 1.0]],
        [((0, 10), (2, 4000)), ((1, 7),), ((0, 300), (1, 25), (3, 1))], groups=[0, 1, 1])),
        indent=1) + "\n"


@pytest.mark.parametrize("edit", sorted(_TEXT_EDITS))
def test_load_world_matches_json_path_on_each_text_edit(tmp_path, edit):
    path = tmp_path / "world.json"
    text = _manual_world_text()
    for k in range(16):  # each integer of the block
        path.write_bytes(_TEXT_EDITS[edit](text, k).encode("utf-8"))
        assert _load_outcome(load_world, path) == _load_outcome(_json_load_world, path)


@pytest.mark.parametrize("chunk_bytes", [1, 150])
def test_load_world_matches_json_path_on_text_edits_across_chunks(tmp_path, monkeypatch,
                                                                   chunk_bytes):
    # each image, or each pair of images, is a chunk of its own, so the edits
    # meet the ends of chunks
    monkeypatch.setattr(world_module, "_CHUNK_BYTES", chunk_bytes)
    path = tmp_path / "world.json"
    text = _manual_world_text()
    for edit in _TEXT_EDITS.values():
        for k in range(16):
            path.write_bytes(edit(text, k).encode("utf-8"))
            assert _load_outcome(load_world, path) == _load_outcome(_json_load_world, path)


@pytest.mark.parametrize("chunk_bytes", [1, 5000])
def test_load_world_reads_saved_worlds_in_small_chunks_on_the_fast_path(tmp_path, monkeypatch,
                                                                         chunk_bytes):
    monkeypatch.setattr(world_module, "_CHUNK_BYTES", chunk_bytes)
    for seed in range(3):
        _assert_read_on_the_fast_path(generate_world(WorldConfig(), seed), tmp_path / "world.json")


@given(st.data(), _small_worlds())
@settings(max_examples=25, deadline=None)
def test_load_world_matches_json_path_on_edited_texts(tmp_path_factory, data, world):
    # in half the runs a document fault or a reversed composition, rendered
    # in save_world's layout; then each text edit, alone or with a second one
    doc = world_to_dict(world)
    if data.draw(st.booleans()):
        fault = data.draw(st.sampled_from(["reversed composition", "id out of order",
                                           *_DOCUMENT_FAULTS]))
        position = data.draw(st.integers(0, len(doc["images"]) - 1))
        if fault == "reversed composition":
            doc["images"][position]["composition"].reverse()
        else:
            _break_document(doc, fault, position, data.draw(st.integers(0, 20)))
    text = json.dumps(doc, indent=1) + "\n"
    path = tmp_path_factory.mktemp("edited") / "world.json"
    for edit in _TEXT_EDITS.values():
        edited = edit(text, data.draw(st.integers(0, 100)))
        if data.draw(st.booleans()):
            second = _TEXT_EDITS[data.draw(st.sampled_from(sorted(_TEXT_EDITS)))]
            edited = second(edited, data.draw(st.integers(0, 100)))
        path.write_bytes(edited.encode("utf-8"))
        assert _load_outcome(load_world, path) == _load_outcome(_json_load_world, path)


@pytest.mark.parametrize("gaze_noise", [0.0, 0.1])
def test_load_world_reads_saved_default_worlds_on_the_fast_path(tmp_path, gaze_noise):
    for seed in range(10):
        world = generate_world(dataclasses.replace(WorldConfig(), gaze_noise=gaze_noise), seed)
        _assert_read_on_the_fast_path(world, tmp_path / "world.json")


def _generation_outcome(generate, config, seed):
    try:
        return world_to_dict(generate(config, seed))
    except ConfigurationError as err:  # the exception is the outcome compared
        return str(err)


@given(_world_configs(), st.integers(1, 3), st.sampled_from([0.0, 0.1]),
       st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_generate_world_matches_dense_oracle(config, num_users, gaze_noise, seed):
    # the occurrence layout is built without the pixel matrix, yet the worlds
    # (or the placement's error) are those of the matrix draw
    config = dataclasses.replace(config, num_users=num_users, gaze_noise=gaze_noise)
    assert _generation_outcome(generate_world, config, seed) \
        == _generation_outcome(dense_generate_world, config, seed)


@pytest.mark.parametrize("config, seed", [
    (NO_ROOM, 0),
    (WorldConfig(num_images=200, object_popularity_exponent=400.0, max_objects_per_image=6), 0),
    (WorldConfig(num_users=2, num_objects=40, num_images=12, num_groups=3,
                 max_objects_per_image=4), 3),
], ids=["no-room", "steep-popularity", "few-images"])
def test_generate_world_matches_dense_oracle_where_placement_runs(config, seed):
    drawn, _ = dense_generate_images(config, _stream_after_interest(config, seed))
    assert not drawn.any(axis=0).all()  # some object is left for the placement
    assert _generation_outcome(generate_world, config, seed) \
        == _generation_outcome(dense_generate_world, config, seed)


@st.composite
def _block_configs(draw):
    """Worlds whose images end one short of, at or one past a block of key
    rows, or past two, over a narrow, the default and a wide catalog."""
    num_objects = draw(st.sampled_from([24, 96, 960]))
    rows = _key_block_rows(num_objects)
    return WorldConfig(num_users=draw(st.integers(1, 3)), num_objects=num_objects,
                       num_images=draw(st.sampled_from([rows - 1, rows, rows + 1, 2 * rows + 1])),
                       num_groups=draw(st.integers(1, 5)),
                       gaze_noise=draw(st.sampled_from([0.0, 0.1])))


@given(st.one_of(_block_configs(), _world_configs()), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_block_key_draws_match_one_matrix_oracle(config, seed):
    # the keys drawn a block of rows at a time give the images of one matrix,
    # leave the generator where it leaves it, and so give the same world
    drawn, expected = (_stream_after_interest(config, seed) for _ in range(2))
    (occurrences, group_of), (oracle, oracle_groups) = (
        _generate_images(config, drawn), matrix_generate_images(config, expected))
    for array, oracle_array in zip((*occurrences, group_of), (*oracle, oracle_groups)):
        assert np.array_equal(array, oracle_array)
    assert drawn.bit_generator.state == expected.bit_generator.state
    try:
        world = generate_world(config, seed)
    except ConfigurationError:  # a tight budget can leave no room
        return
    with mock.patch("attnalloc.world._generate_images", matrix_generate_images):
        oracle_world = generate_world(config, seed)
    for name in ("indptr", "objects", "counts", "group_of", "interest"):
        assert np.array_equal(getattr(world, name), getattr(oracle_world, name))


@st.composite
def _csr_worlds(draw):
    """A valid world's fields, the images as (indptr, objects, counts) lists."""
    num_objects = draw(st.integers(1, 6))
    compositions = draw(st.lists(
        st.lists(st.integers(0, num_objects - 1), min_size=1, unique=True).map(sorted),
        min_size=1, max_size=6))
    objects = [o for comp in compositions for o in comp]
    return dict(
        indptr=np.cumsum([0] + [len(comp) for comp in compositions]).tolist(),
        objects=objects,
        counts=draw(st.lists(st.integers(1, 2**31 - 1), min_size=len(objects),
                             max_size=len(objects))),
        group_of=[0] * len(compositions), labels=tuple(f"o{i}" for i in range(num_objects)),
        interest=[[0.5] * num_objects], seed=0, gaze_noise=draw(st.sampled_from([0.0, 0.1])))


_INDPTR = "has indptr offsets that do not rise from 0 to"
_ORDER = "does not list its objects in strictly ascending id"
_EMPTY = "has no objects"
# each fault that World must name, to the start of its message
_CSR_FAULTS = {
    "first offset": _INDPTR, "decreasing offset": _INDPTR, "last offset": _INDPTR,
    "object id": "has an object id outside", "order": _ORDER, "repeat": _ORDER,
    "count": r"has a pixel count outside 1\.\.2\*\*31-1", "empty": _EMPTY,
}


def _inject_csr_fault(data, fields):
    """Break one image of a valid world's fields in place; returns the image
    and the start of the message that names it."""
    indptr, objects, counts = fields["indptr"], fields["objects"], fields["counts"]
    n = len(indptr) - 1
    image = data.draw(st.integers(0, n - 1))
    start, end = indptr[image], indptr[image + 1]
    k = data.draw(st.integers(start, end - 1))  # an occurrence of the image
    kind = data.draw(st.sampled_from(sorted(_CSR_FAULTS)))
    if kind == "first offset":
        indptr[0] = data.draw(st.sampled_from([-1, 1]))
        image = 0
    elif kind == "decreasing offset":
        indptr[image + 1] = start - data.draw(st.integers(1, 3))
    elif kind == "last offset":
        indptr[-1] += data.draw(st.sampled_from([-1, 1]))
        image = n - 1
    elif kind == "object id":
        objects[k] = data.draw(st.sampled_from([-1, len(fields["labels"]), 10**6]))
    elif kind in ("order", "repeat"):
        if end - start < 2:  # one object is always in order; empty the image instead
            return _empty_image(fields, image)
        j = data.draw(st.integers(start, end - 2))
        if kind == "repeat":
            objects[j + 1] = objects[j]
        else:
            objects[j], objects[j + 1] = objects[j + 1], objects[j]
    elif kind == "count":
        counts[k] = data.draw(st.sampled_from([0, -1, 2**31, 2**40]))
    else:
        return _empty_image(fields, image)
    return image, _CSR_FAULTS[kind]


def _empty_image(fields, image):
    """Drop the objects of one image of a valid world's fields, in place."""
    indptr = fields["indptr"]
    start, end = indptr[image], indptr[image + 1]
    del fields["objects"][start:end], fields["counts"][start:end]
    indptr[image + 1:] = [i - (end - start) for i in indptr[image + 1:]]
    return image, _EMPTY


@given(st.data(), _csr_worlds())
@settings(max_examples=400, deadline=None)
def test_world_names_first_faulty_image_of_each_csr_fault(data, fields):
    world = World(**fields)  # valid: it round-trips through the document
    again = world_from_dict(world_to_dict(world))
    assert world_to_dict(again) == world_to_dict(world)
    for name in ("indptr", "objects", "counts"):
        assert np.array_equal(getattr(again, name), getattr(world, name))
    image, message = _inject_csr_fault(data, fields)
    with pytest.raises(ValueError, match=rf"^image {image} {message}"):
        World(**fields)


# the former fault tests of this module, which run rows of the catalogue
globals().update(former_tests("test_world"))
