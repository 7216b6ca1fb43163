"""Synthetic user-object-attention world.

Generates a catalog of objects, grouped scene images held row by row as
sparse occurrences (CSR: row offsets, object ids, pixel counts), and a
latent per-user interest matrix; computes ground-truth attention values
(gaze mass on an object divided by the pixels it occupies) and produces sparse
observation records by sampling service groups and image subsets.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import chain
from typing import Annotated

import numpy as np

from .records import MAX_LEVEL, MIN_LEVEL, SparseAttentionRecords
from .schema import (check_count, check_fields, digit_runs, field_rule, integer_ids,
                     integer_type, json_layout, json_members, naming, number_array, parse_json,
                     read_bytes, require, run_values, write_text)

WORLD_FORMAT_VERSION = "uoal-sim/1"

# stream tags so gaze noise / sparsify / scene draws never share a substream
_GAZE_STREAM = 101
_SPARSIFY_STREAM = 102

_MAX_PIXEL_COUNT = int(np.iinfo(np.int32).max)  # World.counts is int32


class ConfigurationError(ValueError):
    """Invalid world generation parameters."""


@dataclass(frozen=True)
class WorldConfig:
    """Knobs for synthetic world generation.

    ``latent_rank`` is the rank of the latent product behind the interest
    matrix. ``hot_fraction`` is the per-user share of objects whose interest
    saturates near 1; ``interest_exponent`` controls how sharply interest
    falls off below that plateau (higher = steeper cliff down to the flat
    ``interest_floor`` baseline). ``interest_noise`` is the half-width of the
    multiplicative noise applied after squashing.
    """

    num_users: Annotated[int, "[1, inf)"] = 30
    num_objects: Annotated[int, "[1, inf)"] = 96
    num_images: Annotated[int, "[1, inf)"] = 1000
    num_groups: Annotated[int, "[1, inf)"] = 5
    latent_rank: Annotated[int, "[1, inf)"] = 6
    interest_noise: Annotated[float, "[0, 1)"] = 0.1
    interest_exponent: Annotated[float, "(0, inf)"] = 16.0
    interest_floor: Annotated[float, "[0, 1)"] = 0.1
    hot_fraction: Annotated[float, "(0, 1]"] = 0.15
    gaze_noise: Annotated[float, "[0, 1)"] = 0.0
    group_bias: Annotated[float, "[1, inf)"] = 3.0
    object_popularity_exponent: Annotated[float, "[0, inf)"] = 2.5
    min_objects_per_image: Annotated[int, "[1, inf)"] = 3
    max_objects_per_image: Annotated[int, "[1, inf)"] = 12
    min_pixels_per_object: Annotated[int, "[1, inf)"] = 200
    max_pixels_per_object: Annotated[int, "[1, inf)"] = 5000
    max_image_pixels: Annotated[int, "[1, inf)"] = 360 * 640

    def __post_init__(self):
        check_fields(self, ConfigurationError)
        if self.num_groups > self.num_images:
            raise ConfigurationError("num_groups cannot exceed num_images")
        if self.min_objects_per_image > self.max_objects_per_image:
            raise ConfigurationError("invalid objects-per-image range")
        if self.max_objects_per_image > self.num_objects:
            raise ConfigurationError("max_objects_per_image exceeds num_objects")
        positive = np.count_nonzero(_popularity(self))
        if positive < self.max_objects_per_image:
            raise ConfigurationError(
                f"object_popularity_exponent {self.object_popularity_exponent} leaves "
                f"{positive} objects with positive weight, fewer than "
                f"max_objects_per_image {self.max_objects_per_image}"
            )
        if self.min_pixels_per_object > self.max_pixels_per_object:
            raise ConfigurationError("invalid pixels-per-object range")
        if self.max_objects_per_image * self.max_pixels_per_object > self.max_image_pixels:
            raise ConfigurationError("pixel budget can be exceeded; shrink per-object pixels")


@dataclass(frozen=True)
class GroundTruthLevels:
    """Dense num_users x num_objects matrix of attention levels 1..5."""

    levels: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.levels, dtype=np.int64)
        if arr.ndim != 2 or not ((arr >= MIN_LEVEL) & (arr <= MAX_LEVEL)).all():
            raise ValueError("levels must be a 2-D matrix with entries in "
                             f"{MIN_LEVEL}..{MAX_LEVEL}")
        arr.setflags(write=False)
        object.__setattr__(self, "levels", arr)


@dataclass(frozen=True)
class World:
    """The users x objects x images cube as arrays. The images are held row
    by row as occurrences (CSR): image ``i``'s objects are
    ``objects[indptr[i]:indptr[i + 1]]`` in strictly ascending id, with their
    pixel counts in ``counts``. The checks run on whole arrays and name the
    first faulty image."""

    indptr: np.ndarray  # num_images + 1 row offsets into objects and counts
    objects: np.ndarray  # object ids, ascending within each image
    counts: np.ndarray  # int32 pixel counts in 1..2**31-1
    group_of: np.ndarray  # num_images service group ids
    labels: tuple  # the catalog, one string per object
    interest: np.ndarray  # num_users x num_objects, entries in (0, 1]
    seed: int
    gaze_noise: float = 0.0

    def __post_init__(self):
        check_count(self.seed, "seed")
        is_real, _ = field_rule(float)
        if not is_real(self.gaze_noise) or not 0.0 <= self.gaze_noise < 1.0:
            raise ValueError(f"gaze_noise must lie in [0, 1), got {self.gaze_noise!r}")
        # numpy scalars become Python numbers, which the world file can hold
        object.__setattr__(self, "seed", int(self.seed))
        if isinstance(self.gaze_noise, np.generic):
            object.__setattr__(self, "gaze_noise", float(self.gaze_noise))
        labels = self.labels
        if not labels:
            raise ValueError("the catalog must list at least one label")
        for position, label in enumerate(labels):
            if not isinstance(label, str):
                raise ValueError(f"catalog label {position} is {label!r}, not a string")
        if len(set(labels)) != len(labels):
            repeated = next(label for i, label in enumerate(labels) if label in labels[:i])
            raise ValueError(f"catalog label {repeated!r} is not unique")
        arrays = [np.asarray(a) for a in (self.indptr, self.objects, self.counts, self.group_of)]
        if any(a.size and a.dtype.kind not in "iu" for a in arrays):  # a float is not cast
            raise ValueError("indptr, objects, counts and group_of must hold integers")
        indptr, objects, counts, group_of = (a.astype(np.int64, copy=False) for a in arrays)
        n = group_of.size
        if not n or group_of.ndim != 1 or indptr.shape != (n + 1,) or objects.ndim != 1 \
                or counts.shape != objects.shape:
            raise ValueError("group_of must list at least one image, indptr one offset more "
                             "than the images, and counts one entry per object id")
        _reject_images(np.flatnonzero(group_of < 0), "has a negative group")
        groups = np.unique(group_of)
        if groups[-1] != groups.size - 1:
            missing = np.flatnonzero(groups != np.arange(groups.size))[0]
            raise ValueError(f"group ids must cover 0..{groups[-1]}; group {missing} has no images")
        lengths = np.diff(indptr)
        faulty = lengths < 0
        faulty[0] |= indptr[0] != 0
        faulty[-1] |= indptr[-1] != objects.size
        _reject_images(np.flatnonzero(faulty), f"has indptr offsets that do not rise from 0 "
                                               f"to {objects.size}, the number of occurrences")
        rows = np.repeat(np.arange(n), lengths)
        _reject_images(rows[(objects < 0) | (objects >= len(labels))],
                       f"has an object id outside 0..{len(labels) - 1}")
        _reject_images(rows[1:][(rows[1:] == rows[:-1]) & (objects[1:] <= objects[:-1])],
                       "does not list its objects in strictly ascending id")
        _reject_images(rows[(counts < 1) | (counts > _MAX_PIXEL_COUNT)],
                       "has a pixel count outside 1..2**31-1")
        _reject_images(np.flatnonzero(lengths == 0), "has no objects")
        interest = np.asarray(self.interest, dtype=np.float64)
        if interest.shape[:1] == (0,):
            raise ValueError("a world must have at least one user")
        if interest.ndim != 2 or interest.shape[1] != len(labels):
            raise ValueError("interest matrix shape does not match users x objects")
        # NaN fails both comparisons, so it is caught here too
        bad = np.argwhere(~((interest > 0) & (interest <= 1)))
        if bad.size:
            user, obj = bad[0].tolist()
            raise ValueError(f"interest of user {user} in object {obj} is "
                             f"{interest[user, obj].item()!r}, not a finite number in (0, 1]")
        for name, arr in (("indptr", indptr), ("objects", objects),
                          ("counts", counts.astype(np.int32, copy=False)),
                          ("group_of", group_of), ("interest", interest)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def num_users(self) -> int:
        return self.interest.shape[0]

    @property
    def num_objects(self) -> int:
        return len(self.labels)

    @property
    def num_images(self) -> int:
        return self.group_of.size

    @property
    def num_groups(self) -> int:
        return len(self._group_images)  # the group ids cover 0..max

    def group_image_ids(self, group_id: int) -> np.ndarray:
        """The group's image ids, ascending (read-only); none for an id that
        is no group. An id that is not an integer (by ``integer_type``; a
        float or bool is never cast) raises ``ValueError`` naming it."""
        if not integer_type(type(group_id)):
            raise ValueError(f"group id {group_id!r} is not an integer")
        if not 0 <= group_id < len(self._group_images):
            return np.empty(0, dtype=np.intp)
        return self._group_images[group_id]

    @functools.cached_property
    def _group_images(self) -> tuple:
        """Every group's image ids, split once from one stable sort, so a
        draw per user reads them instead of scanning every image."""
        by_group = np.argsort(self.group_of, kind="stable")
        groups = np.split(by_group, np.cumsum(np.bincount(self.group_of))[:-1])
        for ids in groups:
            ids.setflags(write=False)
        return tuple(groups)

    def occurrences(self, image_ids: np.ndarray):
        """The occurrences of the images ``image_ids`` (an int array of valid
        ids) in the given order, repeats included, each image's in ascending
        object id: (positions in the CSR layout, object ids, pixel counts)."""
        starts = self.indptr[image_ids]
        lengths = self.indptr[image_ids + 1] - starts
        # output position k of image j reads occurrence starts[j] + k - first[j]
        first = np.cumsum(lengths) - lengths
        at = np.arange(lengths.sum()) + np.repeat(starts - first, lengths)
        return at, self.objects[at], self.counts[at]


def _reject_images(images, problem: str) -> None:
    """Raise a ValueError naming the first of ``images``, ascending image ids."""
    if images.size:
        raise ValueError(f"image {images[0]} {problem}")


def generate_world(config: WorldConfig, seed: int) -> World:
    """Build a deterministic synthetic world from a seed."""
    check_count(seed, "seed")
    rng = np.random.default_rng(seed)
    interest = _generate_interest(config, rng)
    occurrences, group_of = _generate_images(config, rng)
    return World(*_place_missing_objects(config, rng, *occurrences), group_of=group_of,
                 labels=tuple(f"object_{i:03d}" for i in range(config.num_objects)),
                 interest=interest, seed=seed, gaze_noise=config.gaze_noise)


def _generate_interest(config: WorldConfig, rng) -> np.ndarray:
    users = rng.uniform(size=(config.num_users, config.latent_rank))
    objects = rng.uniform(size=(config.num_objects, config.latent_rank))
    raw = users @ objects.T
    # per-user squash: normalizing by an upper quantile and clipping makes the
    # hottest objects saturate near 1 while the power drives everything below
    # the quantile toward the additive floor, so each user has a hot plateau
    # over a flat cold baseline instead of vanishing ratios
    scale = np.quantile(raw, 1.0 - config.hot_fraction, axis=1, keepdims=True)
    shaped = np.clip(raw / scale, 0.0, 1.0) ** config.interest_exponent
    squashed = config.interest_floor + (1.0 - config.interest_floor) * shaped
    if config.interest_noise > 0:
        squashed = squashed * rng.uniform(
            1.0 - config.interest_noise, 1.0 + config.interest_noise, size=squashed.shape
        )
    return np.clip(squashed, 1e-9, 1.0)


def _popularity(config: WorldConfig) -> np.ndarray:
    """Heavy-tailed object popularity (rare objects make the records sparse),
    before shuffling. A steep exponent underflows the tail to 0."""
    return (1.0 + np.arange(config.num_objects)) ** (-config.object_popularity_exponent)


def _run_ids(n: int, parts: int) -> np.ndarray:
    """For each of ``n`` items, which of ``parts`` consecutive near-equal runs
    (``np.array_split``'s) holds it."""
    return np.repeat(np.arange(parts), [len(run) for run in np.array_split(np.arange(n), parts)])


# about this many exponential keys are drawn and sorted at a time
_KEY_BLOCK = 1 << 15


def _key_block_rows(num_objects: int) -> int:
    """The image rows of one block of keys: at least one, whatever the catalog."""
    return max(1, _KEY_BLOCK // num_objects)


def _generate_images(config: WorldConfig, rng):
    """The images' occurrences before missing objects are placed, as
    ``(image, object, pixel count)`` arrays in key order, and their group
    ids. An image's ``k`` objects have the ``k`` smallest keys ``E / w``,
    ``E`` standard exponential and ``w`` the group's weight: successive
    weighted sampling without replacement (Efraimidis and Spirakis, 2006).
    Keys are compared as logarithms, so no tiny weight overflows its key;
    a 0 weight gets +inf. The keys are drawn in blocks of image rows, so
    memory stays bounded whatever the world's size; the draws are those of
    one images x objects matrix, since the generator fills a draw in order,
    and each row's stable ``argsort`` reads that row alone."""
    n_img, n_obj = config.num_images, config.num_objects
    # shuffled so popularity is not correlated with the group blocks
    popularity = rng.permutation(_popularity(config))
    log_weight = np.log(popularity, out=np.full(n_obj, -np.inf), where=popularity > 0)
    # each group over-represents a disjoint block of objects
    in_block = _run_ids(n_obj, config.num_groups) == np.arange(config.num_groups)[:, None]
    group_log_weight = log_weight + math.log(config.group_bias) * in_block
    group_of = _run_ids(n_img, config.num_groups)

    hi = config.max_objects_per_image
    k = rng.integers(config.min_objects_per_image, hi + 1, size=n_img)
    smallest = np.empty((n_img, hi), dtype=np.intp)
    rows = _key_block_rows(n_obj)
    for start in range(0, n_img, rows):
        block = slice(start, start + rows)
        keys = rng.standard_exponential((smallest[block].shape[0], n_obj))
        np.log(keys, out=keys)
        keys -= group_log_weight[group_of[block]]
        smallest[block] = np.argsort(keys, axis=1)[:, :hi]
    objects = smallest[np.arange(hi) < k[:, None]]
    counts = rng.integers(config.min_pixels_per_object, config.max_pixels_per_object + 1,
                          size=objects.size)
    return (np.repeat(np.arange(n_img), k), objects, counts), group_of


def _place_missing_objects(config: WorldConfig, rng, rows, objects, counts):
    """Put every object that occurs in no image into one image: draw its pixel
    count, then pick uniformly among the images with room for it. Returns
    ``(indptr, objects, counts)``, each image's objects in ascending id."""
    # float64 sums of the counts are exact below 2**53
    load = np.bincount(rows, weights=counts, minlength=config.num_images).astype(np.int64)
    placed = []
    for missing in np.flatnonzero(np.bincount(objects, minlength=config.num_objects) == 0):
        px = int(rng.integers(config.min_pixels_per_object, config.max_pixels_per_object + 1))
        room = np.flatnonzero(load + px <= config.max_image_pixels)
        if not room.size:
            raise ConfigurationError(
                f"object {missing} occurs in no image, and its {px} pixels fit in no image "
                f"under max_image_pixels {config.max_image_pixels}"
            )
        image = room[rng.integers(room.size)]
        placed.append((image, missing, px))
        load[image] += px
    if placed:  # else the drawn arrays are kept, not copied
        added = np.array(placed, dtype=np.int64).T
        rows, objects, counts = map(np.concatenate, zip((rows, objects, counts), added))
    order = np.argsort(rows * config.num_objects + objects, kind="stable")
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=config.num_images))))
    return indptr, objects[order], counts[order]


def _gaze_factors(world: World, user: int, count: int) -> np.ndarray:
    """Gaze-noise factors of the first ``count`` occurrences in the CSR order:
    ``1 + U(-g, g)`` from the user's own generator, one draw per occurrence.
    An (image, object) pair keeps its factor in every call, whatever images a
    call reads: PCG64 spends one 64-bit word per double, so a shorter draw is
    a prefix of a longer one."""
    g = world.gaze_noise
    rng = np.random.default_rng((world.seed, _GAZE_STREAM, user))
    factors = rng.uniform(-g, g, size=count)
    factors += 1.0
    return factors


def check_user(world: World, user: int) -> None:
    """Raise ``ValueError`` naming ``user`` unless it is an integer (numpy's
    too, not a bool) in ``0..num_users - 1``."""
    if not integer_type(type(user)):
        raise ValueError(f"user id {user!r} is not an integer")
    if not 0 <= user < world.num_users:
        raise ValueError(f"user {user} outside 0..{world.num_users - 1}")


def _gaze_mass(world: World, user: int, objects, px, at=None) -> np.ndarray:
    """Per-object sums of gaze mass, interest * pixels * (1 + noise), over the
    given occurrences: ``at`` holds their positions in the CSR layout, and
    None stands for every occurrence in order. bincount's weighted loop adds
    them one after another, so each sum is sequential in the given order (a
    pairwise sum, matmul or reduceat would change the last bit of some
    values)."""
    mass = world.interest[user][objects] * px
    if world.gaze_noise > 0 and at is None:
        mass *= _gaze_factors(world, user, objects.size)
    elif world.gaze_noise > 0:
        mass *= _gaze_factors(world, user, int(at.max()) + 1)[at]
    return np.bincount(objects, weights=mass, minlength=world.num_objects)


def raw_attention_values(world: World, user: int, image_ids):
    """Attention value for every object occurring in the given images, as
    ``(objects, values)`` arrays in ascending object id.

    Value = (sum of gaze mass over occurrences) / (sum of pixels over
    occurrences), capped at 1. The noise of an occurrence is the user's draw
    at its CSR position, so an image listed twice counts twice with the same
    noise.
    """
    check_user(world, user)
    ids = integer_ids(image_ids, "image id")
    if not ids.size:
        return np.empty(0, dtype=np.intp), np.empty(0)
    if ids.min() < 0 or ids.max() >= world.num_images:
        bad = ids[(ids < 0) | (ids >= world.num_images)][0]
        raise ValueError(f"image id {bad} outside 0..{world.num_images - 1}")
    at, objects, px = world.occurrences(ids)
    gaze = _gaze_mass(world, user, objects, px, at)
    # float64 pixel sums are exact below 2**53
    pixel_sum = np.bincount(objects, weights=px, minlength=world.num_objects)
    present = np.flatnonzero(pixel_sum)
    return present, np.minimum(gaze[present] / pixel_sum[present], 1.0)


def attention_matrix(world: World) -> np.ndarray:
    """Every user's attention values over all images, users x objects: row
    ``u`` holds ``raw_attention_values(world, u, range(world.num_images))``'s
    values bit for bit. All images in order are the world's occurrences as
    they lie, so they are read in place, and each user's gaze-noise draw is
    used as drawn, with no gather. An object that occurs in no image
    raises."""
    objects, px = world.objects, world.counts
    pixel_sum = np.bincount(objects, weights=px, minlength=world.num_objects)
    absent = np.flatnonzero(pixel_sum == 0)
    if absent.size:
        o = absent[0]
        raise ValueError(f"object {o} ({world.labels[o]!r}) occurs in no image, "
                         "so it has no ground-truth level")
    gaze = np.stack([_gaze_mass(world, user, objects, px) for user in range(world.num_users)])
    return np.minimum(gaze / pixel_sum, 1.0)


def _check_unit_interval(values: np.ndarray) -> None:
    outside = ~((values >= 0.0) & (values <= 1.0))  # NaN too
    if outside.any():
        raise ValueError(f"attention value {values[outside][0]} outside [0, 1]")


def _rank_levels(values: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Quintile levels of every row of ``values`` (rows x width) in one
    stable row-wise sort. Row ``r`` holds ``sizes[r]`` >= 1 values, in
    ascending object id, and ``+inf`` in its other entries (holes), which
    sort after every value. A value of rank ``k`` in its row gets ``k * 5 //
    sizes[r] + 1``, ties rank by column, and a row whose values are all
    equal gets level 3. The levels of holes are left unspecified."""
    rows, width = values.shape
    starts = np.arange(0, rows * width, width)
    # the flat positions of each row's entries in rank order, holes last
    ranked = (np.argsort(values, axis=1, kind="stable") + starts[:, None]).ravel()
    flat = values.ravel()
    by_rank = np.arange(width) * (MAX_LEVEL - MIN_LEVEL + 1) // sizes[:, None] + MIN_LEVEL
    constant = flat[ranked[starts]] == flat[ranked[starts + sizes - 1]]  # lowest == highest
    by_rank[constant] = (MIN_LEVEL + MAX_LEVEL) // 2
    levels = np.empty(rows * width, dtype=np.int64)
    levels[ranked] = by_rank.ravel()
    return levels.reshape(rows, width)


def quantize_levels(values) -> np.ndarray:
    """Equal-frequency quintile levels 1..5 of one row (a 1-D array) of
    attention values given in ascending object id: the value of rank ``r``
    among ``n`` gets level ``r * 5 // n + 1``. Ties rank by ascending object
    id (the sort is stable); a constant row maps to level 3."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1:
        raise ValueError(f"quantize_levels takes one row of values, got shape {values.shape}")
    _check_unit_interval(values)
    if not values.size:
        return np.empty(0, dtype=np.int64)
    return _rank_levels(values.reshape(1, -1), np.array([values.size]))[0]


def ground_truth_levels(world: World) -> GroundTruthLevels:
    """Per-user quintile levels of attention values computed over all images,
    every row ranked in one sort. Every object must occur in some image, or
    it would have no level."""
    values = attention_matrix(world)
    _check_unit_interval(values)
    return GroundTruthLevels(_rank_levels(values, np.full(len(values), values.shape[1])))


def _draw_images(world: World, user: int, seed: int):
    """One user's draw: ``(ran1, ran2, groups, retained image ids)``.

    Draws ran1 in {2,3,4} service groups and retains ran2% (integer percent in
    [30, 70]) of each selected group's images. Independent substream per
    (seed, user); an empty retained subset (only possible for degenerate
    worlds) retries on the next substream."""
    for attempt in range(100):
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=seed, spawn_key=(_SPARSIFY_STREAM, user, attempt))
        )
        ran1 = min(int(rng.integers(2, 5)), world.num_groups)
        ran2 = int(rng.integers(30, 71))
        groups = sorted(int(g) for g in rng.choice(world.num_groups, size=ran1, replace=False))
        retained = []
        for g in groups:
            ids = world.group_image_ids(g)
            keep = round(ran2 * len(ids) / 100)
            if keep > 0:
                retained.append(ids[np.sort(rng.choice(len(ids), size=keep, replace=False))])
        if retained:
            return ran1, ran2, groups, np.concatenate(retained)
    raise RuntimeError("could not draw a non-empty retained image subset")


def sparsify(world: World, users, seed: int) -> SparseAttentionRecords:
    """Sparse records of one sparsify draw per user: ``users`` is one user id
    or a sequence of them, whose records are merged (a repeated user raises
    ``InvalidRecordError``, as its pairs repeat).

    Each user draws its retained images from its own substream and gets the
    attention values of the objects present in them (``raw_attention_values``).
    Then every value is checked to lie in [0, 1], all users' values are
    ranked into quintile levels in one row-wise sort (``quantize_levels``
    per user, bit for bit), and the merged table is checked once.
    """
    check_count(seed, "seed")
    users = list(users) if np.iterable(users) else [users]
    if not users:
        return SparseAttentionRecords()
    for user in users:
        check_user(world, user)
    if world.num_groups < 2:
        raise ValueError("sparsify requires a world with at least 2 groups")
    drawn = [raw_attention_values(world, user, _draw_images(world, user, seed)[3])
             for user in users]
    # each user's row holds its values at their object ids, +inf elsewhere
    sizes = np.array([objects.size for objects, _ in drawn])
    objects = np.concatenate([objects for objects, _ in drawn])
    values = np.concatenate([values for _, values in drawn])
    _check_unit_interval(values)
    rows = np.repeat(np.arange(len(drawn)), sizes)
    padded = np.full((len(drawn), world.num_objects), np.inf)
    padded[rows, objects] = values
    levels = _rank_levels(padded, sizes)[rows, objects]
    return SparseAttentionRecords(np.column_stack((np.repeat(users, sizes), objects, levels)))


def _header(world: World) -> dict:
    """The members of the world document before its images."""
    return {"version": WORLD_FORMAT_VERSION, "seed": world.seed, "num_users": world.num_users,
            "gaze_noise": world.gaze_noise, "catalog": list(world.labels)}


def world_to_dict(world: World) -> dict:
    """The ``uoal-sim/1`` document; each composition lists its objects in
    ascending id."""
    entries = [[o, px] for o, px in zip(world.objects.tolist(), world.counts.tolist())]
    bounds = world.indptr.tolist()
    return {
        **_header(world),
        "images": [
            {"id": i, "group": g, "composition": entries[bounds[i]:bounds[i + 1]]}
            for i, g in enumerate(world.group_of.tolist())
        ],
        "interest": world.interest.tolist(),
    }


def world_from_dict(doc: dict) -> World:
    """Build the world from a ``uoal-sim/1`` document (compositions in any
    order), rejecting missing keys, non-integer ids, groups and pixel counts,
    interest entries that are not numbers, and an image that repeats an
    object. The type checks are exact: a JSON integer
    loads as ``int`` and any other number as ``float``; a bool is neither.
    The images are read in one pass that checks each entry as it reads it,
    so the first faulty entry in document order is named."""
    version = doc.get("version") if isinstance(doc, dict) else None
    if version != WORLD_FORMAT_VERSION:
        raise ValueError(f"unsupported world file version {version!r}")
    labels = tuple(require(doc, "catalog", "world file", list))
    images = require(doc, "images", "world file", list)
    if not images:
        raise ValueError("world file: 'images' must list at least one image")
    n, num_objects = len(images), len(labels)
    group_of, lengths, objects, counts = [], [], [], []
    for position, image in enumerate(images):
        where = f"image {position}"
        image_id = require(image, "id", where)
        if type(image_id) is not int or image_id != position:
            raise ValueError(f"{where} has id {image_id!r}; ids must run 0, 1, 2, ...")
        group = require(image, "group", where)
        if type(group) is not int or not 0 <= group < n:
            raise ValueError(f"{where} has group {group!r}, not an integer in 0..{n - 1}")
        composition = require(image, "composition", where, list)
        seen = set()
        for entry in composition:
            if type(entry) is not list or len(entry) != 2 \
                    or type(entry[0]) is not int or type(entry[1]) is not int:
                raise ValueError(f"{where}: composition entry {entry!r} is not two integers")
            o, px = entry
            if not 0 <= o < num_objects:
                raise ValueError(f"{where}: object id {o} outside 0..{num_objects - 1}")
            if o in seen:
                raise ValueError(f"{where} repeats object {o}")
            if not 1 <= px <= _MAX_PIXEL_COUNT:
                raise ValueError(f"{where}: object {o} has {px} pixels, not 1..2**31-1")
            seen.add(o)
            objects.append(o)
            counts.append(px)
        group_of.append(group)
        lengths.append(len(composition))
    return _world(doc, labels, *(np.array(a, dtype=np.int64)
                                 for a in (group_of, lengths, objects, counts)))


def _world(doc: dict, labels: tuple, *images) -> World:
    """The world of a document whose catalog is ``labels`` and whose images
    are ``images``, the arrays that ``_sorted_images`` takes: its interest
    rows, ``int`` user count, seed and gaze noise. Both world file readers
    share it."""
    rows = require(doc, "interest", "world file", list)
    if rows and type(rows[0]) is not list:  # not a matrix, which number_array would read
        raise ValueError("world file: interest row 0 is not a list of numbers")
    interest = number_array(rows, "world file: interest")
    num_users = require(doc, "num_users", "world file")
    if type(num_users) is not int or interest.shape[:1] != (num_users,):
        raise ValueError(f"interest matrix has shape {interest.shape} for {num_users!r} users")
    return World(*_sorted_images(*images, len(labels)), labels=labels, interest=interest,
                 seed=require(doc, "seed", "world file"),
                 gaze_noise=require(doc, "gaze_noise", "world file"))


def _sorted_images(group_of, lengths, objects, counts, num_objects: int):
    """``(indptr, objects, counts, group_of)`` of images given as integer
    arrays in document order (``lengths`` entries each), each image's
    entries in a stable sort by object id; ``World`` checks the result. An
    object id outside the catalog can sort into another image, but
    ``World`` rejects it wherever it lands."""
    keys = np.repeat(np.arange(group_of.size), lengths) * num_objects + objects
    order = np.argsort(keys, kind="stable")
    return np.concatenate(([0], np.cumsum(lengths))), objects[order], counts[order], group_of


@functools.lru_cache(maxsize=128)
def _image_layout(num_entries: int) -> str:
    """The text of one image of ``num_entries`` objects in ``world.json``,
    with ``%d`` for its id, its group and its entries' integers."""
    return ('{\n   "id": %d,\n   "group": %d,\n   "composition": '
            + json_layout((num_entries, 2), 3, "%d") + "\n  }")


# the text around save_world's images block: its first image follows the
# first marker, the second ends the list, and the third lies between two images
_IMAGES_OPEN = ',\n "images": [\n  '
_IMAGES_CLOSE = "\n ],\n"
_IMAGES_JOIN = ",\n  "
# the images formatted, or the bytes parsed, at a time
_IMAGES_PER_CHUNK = 1024
_CHUNK_BYTES = 1 << 17


def save_world(world: World, path) -> None:
    """Write ``write_json(world_to_dict(world), path)``'s bytes from the
    arrays with ``%``-templates: with an indent, ``json.dump`` runs its
    pure-Python encoder, which is several times slower. The header goes
    through ``json_members`` (label escapes, an int ``gaze_noise`` stay json's
    own); every image has at least one entry, the world at least one user,
    and its interest values are finite. The header and the interest are
    formatted before the file is opened; the images follow them there a
    chunk at a time, so memory stays bounded whatever their number."""
    head = json_members(_header(world)) + _IMAGES_OPEN
    tail = (_IMAGES_CLOSE + ' "interest": ' + json_layout(world.interest.shape, 1)
            % tuple(world.interest.ravel().tolist()) + "\n}\n")
    chunks = (_images_text(world, start, min(start + _IMAGES_PER_CHUNK, world.num_images))
              for start in range(0, world.num_images, _IMAGES_PER_CHUNK))
    write_text(chain([head], chunks, [tail]), path)


def _images_text(world: World, start: int, stop: int) -> str:
    """The text of images ``start..stop - 1`` in the images block, led by
    the join unless ``start`` is the first image, from one ``%``-template."""
    indptr = world.indptr[start:stop + 1]
    n, m, lengths = stop - start, indptr[-1] - indptr[0], np.diff(indptr)
    # image i's integers, [id, group, object, count, ...], start at 2 * (i + its offset)
    ints = np.empty(2 * (n + m), dtype=np.int64)
    starts = 2 * (np.arange(n) + indptr[:-1] - indptr[0])
    ints[starts], ints[starts + 1] = np.arange(start, stop), world.group_of[start:stop]
    at = 2 * (np.repeat(np.arange(1, n + 1), lengths) + np.arange(m))
    occurrences = slice(indptr[0], indptr[-1])
    ints[at], ints[at + 1] = world.objects[occurrences], world.counts[occurrences]
    layout = _IMAGES_JOIN * bool(start) + _IMAGES_JOIN.join(map(_image_layout, lengths.tolist()))
    return layout % tuple(ints.tolist())


def load_world(path) -> World:
    """The world in the file at ``path``. A file whose images block has
    exactly the layout that ``save_world`` writes is read from its bytes
    without building a JSON tree for the block (``_saved_world``), and the
    bytes are freed before the world is built; any other text, and a file
    that fails any of that path's checks, goes through ``world_from_dict``
    within ``naming``, so that its fault names the path."""
    try:
        saved = _saved_world(read_bytes(path))
        world = _world(*saved) if saved else None
    except ValueError:  # the json path names the fault
        world = None
    with naming(path):
        return world if world is not None else world_from_dict(parse_json(read_bytes(path)))


def _saved_world(data: bytes):
    """``_world``'s arguments for the file bytes ``data`` when its images
    block is exactly what ``save_world`` writes (``_saved_images``), else
    None. The block starts at the first open marker and ends at the last
    close marker, found from the back, since only the interest follows it.
    The members before and after the block are parsed as JSON objects of
    their own; when both hold a member, the text is a JSON object whose
    members are theirs plus the block, a repeated key keeping its last
    value as ``json.loads`` does. (One parse, with a stand-in value where
    the block was, could not tell that value from another "images" member.)
    Only the image ids are checked here; ``World`` rejects a group, object
    id or pixel count out of range and a repeated object, and its
    ``ValueError`` sends ``load_world`` to the JSON path, which names the
    fault."""
    start = data.find(_IMAGES_OPEN.encode())
    end = data.rfind(_IMAGES_CLOSE.encode(), start + 1)
    if start < 0 or end < 0:
        return None
    images = _saved_images(data, start + len(_IMAGES_OPEN), end)
    if images is None:
        return None
    # a member that is not UTF-8 or not JSON raises a ValueError
    head = parse_json(data[:start] + b"}")
    tail = parse_json(b"{" + data[end + len(_IMAGES_CLOSE):])
    if not head or not tail or "images" in tail:  # a later "images" replaces the block
        return None
    doc = {**head, **tail}
    labels = doc.get("catalog")
    if doc.get("version") != WORLD_FORMAT_VERSION or type(labels) is not list:
        return None
    ids, *images = images
    if not np.array_equal(ids, np.arange(ids.size)):
        return None
    return doc, tuple(labels), *images


def _saved_images(data: bytes, start: int, end: int):
    """``(ids, groups, lengths, objects, counts)`` as integer arrays when
    ``data[start:end]`` is ``save_world``'s images block, else None. The
    block is parsed in chunks of whole images (``_saved_chunk``), read
    through views of ``data``: a chunk ends at the first join of two images
    past ``_CHUNK_BYTES``, where an image's closing brace meets the next
    one's opening brace. No image holds that text, so the chunks of a block
    pass exactly when the whole block does. Each array is joined from its
    chunks' parts and then freed of them, one array at a time."""
    columns, between = [[] for _ in range(5)], b"}" + _IMAGES_JOIN.encode() + b"{"
    while start < end:
        stop = data.find(between, min(start + _CHUNK_BYTES, end), end) + 1
        stop = stop if stop else end
        arrays = _saved_chunk(np.frombuffer(data, np.uint8, stop - start, start))
        if arrays is None:
            return None
        for column, array in zip(columns, arrays):
            column.append(array)
        start = stop + len(_IMAGES_JOIN)
    if not columns[0]:
        return None
    return [np.concatenate(columns.pop(0)) for _ in range(5)]


def _saved_chunk(chars: np.ndarray):
    """``(ids, groups, lengths, objects, counts)`` as integer arrays when the
    bytes ``chars`` are ``save_world``'s text of some images: each image
    ``_image_layout(k) % (id, group, object, count, ...)``, joined by
    ``_IMAGES_JOIN``, with every integer a plain decimal of at most 10
    digits; None for any other text.

    Structure first, then the numbers in bulk (Langdale and Lemire,
    "Parsing Gigabytes of JSON per Second", 2019). Every run of digits must
    follow a space and precede a comma or a line end; the runs must be two
    per image and two per entry; and deleting the digits must leave the
    skeleton, the join of the images' layouts with their ``%d``s emptied. In
    the skeleton a space meets a comma or a line end only where a ``%d``
    was, and no two runs lie at one place, so each ``%d`` holds exactly one
    run (``schema.digit_runs``). The runs are then parsed as one array
    (``schema.run_values``), with no leading zero, and kept as int32 until
    every chunk is read."""
    if not (chars.size and chars[0] == ord("{") and chars[-1] == ord("}")):  # non-digits
        return None
    digit, first, sizes = digit_runs(chars)
    after = first + sizes
    if not (first.size and (chars[first - 1] == ord(" ")).all()
            and ((chars[after] == ord(",")) | (chars[after] == ord("\n"))).all()):
        return None
    # an image's runs are its id and group, each after ": ", then two per entry
    image_starts = np.flatnonzero(chars[first - 2] == ord(":"))[::2]
    lengths = np.diff(image_starts, append=first.size) // 2 - 1
    if 2 * (image_starts.size + lengths.sum()) != first.size \
            or chars[~digit].tobytes() != _IMAGES_JOIN.encode().join(
                map(_image_skeleton, lengths.tolist())):
        return None
    if sizes.max() > 10 or ((chars[first] == ord("0")) & (sizes > 1)).any():
        return None  # 10 digits hold 2**31-1
    values = run_values(chars, first, sizes)
    if values.max() > _MAX_PIXEL_COUNT:  # a later check fails such an id, group or count
        return None
    values = values.astype(np.int32)
    entry = np.ones(first.size, dtype=bool)
    entry[image_starts] = entry[image_starts + 1] = False
    pairs = np.flatnonzero(entry)  # separate arrays, which free apart
    return (values[image_starts], values[image_starts + 1], lengths,
            values[pairs[::2]], values[pairs[1::2]])


@functools.lru_cache(maxsize=128)
def _image_skeleton(num_entries: int) -> bytes:
    """``_image_layout(num_entries)`` with its ``%d``s emptied."""
    return _image_layout(num_entries).replace("%d", "").encode("ascii")
