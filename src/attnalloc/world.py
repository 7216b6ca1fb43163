"""Synthetic user-object-attention world.

Generates a catalog of objects, grouped scene images held row by row as
sparse occurrences (CSR: row offsets, object ids, pixel counts), and a
latent per-user interest matrix; computes ground-truth attention values
(gaze mass on an object divided by the pixels it occupies) and produces sparse
observation records by sampling service groups and image subsets.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
import typing
from dataclasses import dataclass, fields
from itertools import chain

import numpy as np

from .records import SparseAttentionRecords

WORLD_FORMAT_VERSION = "uoal-sim/1"

# stream tags so gaze noise / sparsify / scene draws never share a substream
_GAZE_STREAM = 101
_SPARSIFY_STREAM = 102

_MAX_PIXEL_COUNT = int(np.iinfo(np.int32).max)  # World.counts is int32
_MAX_FLOAT = float(np.finfo(np.float64).max)


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

    num_users: int = 30
    num_objects: int = 96
    num_images: int = 1000
    num_groups: int = 5
    latent_rank: int = 6
    interest_noise: float = 0.1
    interest_exponent: float = 16.0
    interest_floor: float = 0.1
    hot_fraction: float = 0.15
    gaze_noise: float = 0.0
    group_bias: float = 3.0
    object_popularity_exponent: float = 2.5
    min_objects_per_image: int = 3
    max_objects_per_image: int = 12
    min_pixels_per_object: int = 200
    max_pixels_per_object: int = 5000
    max_image_pixels: int = 360 * 640

    def __post_init__(self):
        _check_fields(self, ConfigurationError)
        for name, kind in _field_types(WorldConfig).items():
            if kind is int and getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.num_groups > self.num_images:
            raise ConfigurationError("num_groups cannot exceed num_images")
        if not (0.0 <= self.interest_noise < 1.0):
            raise ConfigurationError("interest_noise must be in [0, 1)")
        if not (0.0 <= self.gaze_noise < 1.0):
            raise ConfigurationError("gaze_noise must be in [0, 1)")
        if self.interest_exponent <= 0:
            raise ConfigurationError("interest_exponent must be positive")
        if not (0.0 <= self.interest_floor < 1.0):
            raise ConfigurationError("interest_floor must be in [0, 1)")
        if not (0.0 < self.hot_fraction <= 1.0):
            raise ConfigurationError("hot_fraction must be in (0, 1]")
        if self.group_bias < 1.0:
            raise ConfigurationError("group_bias must be >= 1")
        if self.object_popularity_exponent < 0:
            raise ConfigurationError("object_popularity_exponent must be >= 0")
        if not (1 <= self.min_objects_per_image <= self.max_objects_per_image):
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
        if not (1 <= self.min_pixels_per_object <= self.max_pixels_per_object):
            raise ConfigurationError("invalid pixels-per-object range")
        if self.max_objects_per_image * self.max_pixels_per_object > self.max_image_pixels:
            raise ConfigurationError("pixel budget can be exceeded; shrink per-object pixels")


@dataclass(frozen=True)
class GroundTruthLevels:
    """Dense num_users x num_objects matrix of attention levels 1..5."""

    levels: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.levels, dtype=np.int64)
        if arr.ndim != 2 or not ((arr >= 1) & (arr <= 5)).all():
            raise ValueError("levels must be a 2-D matrix with entries in 1..5")
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
        _check_seed(self.seed)
        if isinstance(self.gaze_noise, bool) or not isinstance(self.gaze_noise, numbers.Real) \
                or not 0.0 <= self.gaze_noise < 1.0:
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
        return int(self.group_of.max()) + 1

    def group_image_ids(self, group_id: int) -> np.ndarray:
        return np.flatnonzero(self.group_of == group_id)

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


def _check_seed(seed) -> None:
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")


def _reject_images(images, problem: str) -> None:
    """Raise a ValueError naming the first of ``images``, ascending image ids."""
    if images.size:
        raise ValueError(f"image {images[0]} {problem}")


def generate_world(config: WorldConfig, seed: int) -> World:
    """Build a deterministic synthetic world from a seed."""
    _check_seed(seed)
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


def _generate_images(config: WorldConfig, rng):
    """The images' occurrences before missing objects are placed, as
    ``(image, object, pixel count)`` arrays in key order, and their group
    ids. An image's ``k`` objects have the ``k`` smallest keys ``E / w``,
    ``E`` standard exponential and ``w`` the group's weight: successive
    weighted sampling without replacement (Efraimidis and Spirakis, 2006).
    Keys are compared as logarithms, so no tiny weight overflows its key;
    a 0 weight gets +inf."""
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
    keys = np.log(rng.standard_exponential((n_img, n_obj))) - group_log_weight[group_of]
    objects = np.argsort(keys, axis=1)[:, :hi][np.arange(hi) < k[:, None]]
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
    added = np.array(placed, dtype=np.int64).reshape(-1, 3).T
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
    return 1.0 + rng.uniform(-g, g, size=count)


def attention_from_gaze(pixel_counts, gaze_masses) -> float:
    """Attention value from observed occurrences of one object: the ratio of
    total gaze mass to total pixels occupied, capped at 1."""
    pixels = [float(px) for px in pixel_counts]
    masses = [float(m) for m in gaze_masses]
    if len(pixels) != len(masses) or not pixels:
        raise ValueError("need equally many pixel counts and gaze masses, at least one")
    if any(px <= 0 for px in pixels):
        raise ValueError("pixel counts must be positive")
    if any(m < 0 for m in masses):
        raise ValueError("gaze masses must be non-negative")
    return min(sum(masses) / sum(pixels), 1.0)


def _check_user(world: World, user: int) -> None:
    if not 0 <= user < world.num_users:
        raise ValueError(f"user {user} outside 0..{world.num_users - 1}")


def _gaze_mass(world: World, user: int, at, objects, px) -> np.ndarray:
    """Per-object sums of gaze mass, interest * pixels * (1 + noise), over the
    given occurrences. bincount's weighted loop adds them one after another,
    so each sum is sequential in the given order (a pairwise sum, matmul or
    reduceat would change the last bit of some values)."""
    mass = world.interest[user][objects] * px
    if world.gaze_noise > 0:
        mass *= _gaze_factors(world, user, int(at.max()) + 1)[at]
    return np.bincount(objects, weights=mass, minlength=world.num_objects)


def raw_attention_values(world: World, user: int, image_ids):
    """Attention value for every object occurring in the given images, as
    ``(objects, values)`` arrays in ascending object id.

    Value = (sum of gaze mass over occurrences) / (sum of pixels over
    occurrences), capped at 1 as in ``attention_from_gaze``. The noise of an
    occurrence is the user's draw at its CSR position, so an image listed
    twice counts twice with the same noise.
    """
    _check_user(world, user)
    ids = _image_id_array(image_ids)
    if not ids.size:
        return np.empty(0, dtype=np.intp), np.empty(0)
    if ids.min() < 0 or ids.max() >= world.num_images:
        raise KeyError(f"image ids must lie in 0..{world.num_images - 1}")
    at, objects, px = world.occurrences(ids)
    gaze = _gaze_mass(world, user, at, objects, px)
    # float64 pixel sums are exact below 2**53
    pixel_sum = np.bincount(objects, weights=px, minlength=world.num_objects)
    present = np.flatnonzero(pixel_sum)
    return present, np.minimum(gaze[present] / pixel_sum[present], 1.0)


def _image_id_array(image_ids) -> np.ndarray:
    """Image ids as an ``intp`` array; a float or bool id raises
    ``ValueError`` by name instead of being cast to an image."""
    if isinstance(image_ids, np.ndarray) and image_ids.dtype.kind in "iu":
        return image_ids.astype(np.intp, copy=False)
    ids = image_ids.tolist() if isinstance(image_ids, np.ndarray) else list(image_ids)
    bad = [i for i in ids if isinstance(i, bool) or not isinstance(i, (int, np.integer))]
    if bad:
        raise ValueError(f"image id {bad[0]!r} is not an integer")
    return np.array(ids, dtype=np.intp)


def _attention_matrix(world: World) -> np.ndarray:
    """Every user's attention values over all images, users x objects: row
    ``u`` holds ``raw_attention_values(world, u, range(world.num_images))``'s
    values bit for bit. An object that occurs in no image raises."""
    at, objects, px = world.occurrences(np.arange(world.num_images))
    pixel_sum = np.bincount(objects, weights=px, minlength=world.num_objects)
    absent = np.flatnonzero(pixel_sum == 0)
    if absent.size:
        o = absent[0]
        raise ValueError(f"object {o} ({world.labels[o]!r}) occurs in no image, "
                         "so it has no ground-truth level")
    gaze = np.stack([_gaze_mass(world, user, at, objects, px)
                     for user in range(world.num_users)])
    return np.minimum(gaze / pixel_sum, 1.0)


def quantize_levels(values) -> np.ndarray:
    """Equal-frequency quintile levels 1..5 of attention values given in
    ascending object id: the value of rank ``r`` among ``n`` gets level
    ``r * 5 // n + 1``. Ties rank by ascending object id (the sort is
    stable); a constant row maps to level 3."""
    values = np.asarray(values, dtype=np.float64)
    outside = ~((values >= 0.0) & (values <= 1.0))  # NaN too
    if outside.any():
        raise ValueError(f"attention value {values[outside][0]} outside [0, 1]")
    n = values.size
    if not n or (values == values[0]).all():
        return np.full(n, 3, dtype=np.int64)
    levels = np.empty(n, dtype=np.int64)
    levels[np.argsort(values, kind="stable")] = np.arange(n) * 5 // n + 1
    return levels


def ground_truth_levels(world: World) -> GroundTruthLevels:
    """Per-user quintile levels of attention values computed over all images.
    Every object must occur in some image, or it would have no level."""
    return GroundTruthLevels(np.stack([quantize_levels(row) for row in _attention_matrix(world)]))


@dataclass(frozen=True)
class SparsifyInfo:
    """Diagnostics of one sparsification draw (for statistics tests)."""

    ran1: int
    ran2: int
    selected_groups: tuple
    retained_images: tuple


def sparsify_with_info(world: World, user: int, seed: int):
    """Sparse records for one user plus the draw diagnostics.

    Draws ran1 in {2,3,4} service groups and retains ran2% (integer percent in
    [30, 70]) of each selected group's images, then computes and quantizes
    attention values for the objects present. Independent substream per
    (seed, user); an empty retained subset (only possible for degenerate
    worlds) retries on the next substream.
    """
    _check_user(world, user)
    if world.num_groups < 2:
        raise ValueError("sparsify requires a world with at least 2 groups")
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
        if not retained:
            continue
        retained = np.concatenate(retained)
        objects, values = raw_attention_values(world, user, retained)
        records = SparseAttentionRecords(
            np.column_stack((np.full(objects.size, user), objects, quantize_levels(values))))
        return records, SparsifyInfo(ran1, ran2, tuple(groups), tuple(retained.tolist()))
    raise RuntimeError("could not draw a non-empty retained image subset")


def sparsify(world: World, user: int, seed: int) -> SparseAttentionRecords:
    return sparsify_with_info(world, user, seed)[0]


def sparsify_users(world: World, users, seed: int) -> SparseAttentionRecords:
    """The merged records of one sparsify draw per listed user."""
    return SparseAttentionRecords(
        np.concatenate([sparsify(world, user, seed).table for user in users])
    )


def world_to_dict(world: World) -> dict:
    """The ``uoal-sim/1`` document; each composition lists its objects in
    ascending id."""
    entries = [[o, px] for o, px in zip(world.objects.tolist(), world.counts.tolist())]
    bounds = world.indptr.tolist()
    return {
        "version": WORLD_FORMAT_VERSION,
        "seed": world.seed,
        "num_users": world.num_users,
        "gaze_noise": world.gaze_noise,
        "catalog": list(world.labels),
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
    Everything is checked in bulk; only when a check fails is the first
    faulty entry in document order looked up, to name it."""
    version = doc.get("version") if isinstance(doc, dict) else None
    if version != WORLD_FORMAT_VERSION:
        raise ValueError(f"unsupported world file version {version!r}")
    labels = tuple(_require(doc, "catalog", "world file", list))
    images = _require(doc, "images", "world file", list)
    if not images:
        raise ValueError("world file: 'images' must list at least one image")
    arrays = _image_arrays(images, len(labels)) or _raise_image_fault(images, len(labels))
    rows = _require(doc, "interest", "world file", list)
    user = _first_non_number_row(rows)
    if user is not None:
        raise ValueError(f"world file: interest row {user} is not a list of numbers")
    interest = np.array(rows, dtype=np.float64)
    num_users = _require(doc, "num_users", "world file")
    if interest.shape[:1] != (num_users,):
        raise ValueError(f"interest matrix has shape {interest.shape} for {num_users!r} users")
    return World(*arrays, labels=labels, interest=interest,
                 seed=_require(doc, "seed", "world file"),
                 gaze_noise=_require(doc, "gaze_noise", "world file"))


def _image_arrays(images: list, num_objects: int):
    """``(indptr, objects, counts, group_of)`` of a document's ``images``,
    each image's entries in ascending object id, or None when one of the
    checks that ``_raise_image_fault`` makes entry by entry fails. An image
    without objects is left to ``World``."""
    n = len(images)
    if not set(map(type, images)) <= {dict}:
        return None
    try:
        ids = [image["id"] for image in images]
        groups = [image["group"] for image in images]
        compositions = [image["composition"] for image in images]
    except KeyError:
        return None
    if not (set(map(type, ids)) <= {int} and ids == list(range(n))
            and set(map(type, groups)) <= {int} and set(map(type, compositions)) <= {list}):
        return None
    entries = list(chain.from_iterable(compositions))
    if not (set(map(type, entries)) <= {list} and set(map(len, entries)) <= {2}):
        return None
    values = groups + list(chain.from_iterable(entries))
    if not set(map(type, values)) <= {int}:
        return None
    try:
        values = np.array(values, dtype=np.int64)
    except OverflowError:
        return None
    group_of, objects, counts = values[:n], values[n::2], values[n + 1::2]
    lengths = list(map(len, compositions))
    keys = np.repeat(np.arange(n), lengths) * num_objects + objects
    order = np.argsort(keys, kind="stable")
    # with every object id in range, a repeated one is two equal keys side by side
    if not (((group_of >= 0) & (group_of < n)).all()
            and ((objects >= 0) & (objects < num_objects)).all()
            and ((counts >= 1) & (counts <= _MAX_PIXEL_COUNT)).all()
            and np.diff(keys[order]).all()):
        return None
    return np.concatenate(([0], np.cumsum(lengths))), objects[order], counts[order], group_of


def _raise_image_fault(images: list, num_objects: int) -> typing.NoReturn:
    """Raise the ValueError that names the first faulty image entry of a
    document, in document order."""
    for position, image in enumerate(images):
        where = f"image {position}"
        image_id = _require(image, "id", where)
        if type(image_id) is not int or image_id != position:
            raise ValueError(f"{where} has id {image_id!r}; ids must run 0, 1, 2, ...")
        group = _require(image, "group", where)
        if type(group) is not int or not 0 <= group < len(images):
            raise ValueError(f"{where} has group {group!r}, not an integer in 0..{len(images) - 1}")
        seen = set()
        for entry in _require(image, "composition", where, list):
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
    raise AssertionError("a bulk image check failed, but no image entry is faulty")


def _require(mapping, key: str, where: str, kind=object):
    """``mapping[key]``, or a ValueError naming ``where`` and the key when it
    is missing or not a ``kind``."""
    if not isinstance(mapping, dict) or key not in mapping:
        raise ValueError(f"{where} has no {key!r}")
    if not isinstance(mapping[key], kind):
        raise ValueError(f"{where}: {key!r} must be a {kind.__name__}")
    return mapping[key]


def _is_number(value) -> bool:
    """Whether a loaded JSON value is a number that a float64 holds: any
    ``float`` (the callers reject NaN and infinities by name) or an ``int``
    within range; a bool is neither."""
    return type(value) is float or (type(value) is int and -_MAX_FLOAT <= value <= _MAX_FLOAT)


def _all_numbers(values: list) -> bool:
    """Whether every entry of ``values`` is a number by ``_is_number``,
    checked by type in bulk."""
    types = set(map(type, values))
    return types <= {float} or (types <= {float, int} and all(map(_is_number, values)))


def _first_non_number_row(rows: list):
    """The position of the first entry of ``rows`` that is not a list of
    numbers (by ``_is_number``), or None when all are."""
    if set(map(type, rows)) <= {list} and _all_numbers(list(chain.from_iterable(rows))):
        return None
    return next(i for i, row in enumerate(rows)
                if type(row) is not list or not all(map(_is_number, row)))


@functools.cache
def _field_rule(kind):
    """``(accepts, what)`` for values of the resolved annotation ``kind``:
    an ``int`` takes an integer (numpy's too) and a ``float`` a finite real
    (an integer too), neither a bool; ``tuple[float, ...]`` takes a tuple of
    such reals, ``X | None`` None too and a class its instances."""
    if kind is int:
        return (lambda v: isinstance(v, (int, np.integer))
                and not isinstance(v, bool)), "an integer"
    if kind is float:  # the bounds exclude NaN and infinities; a numpy scalar is compared
        # as the Python number it holds, since a float32 overflows casting them
        return (lambda v: isinstance(v, (int, float, np.integer, np.floating))
                and not isinstance(v, bool)
                and -_MAX_FLOAT <= (v.item() if isinstance(v, np.generic) else v) <= _MAX_FLOAT
                ), "finite"
    args = typing.get_args(kind)
    if typing.get_origin(kind) is tuple:
        item, what = _field_rule(args[0])
        return (lambda v: isinstance(v, tuple) and all(map(item, v))), f"{what} numbers in a tuple"
    if type(None) in args:
        inner, what = _field_rule(next(a for a in args if a is not type(None)))
        return (lambda v: v is None or inner(v)), f"{what} or None"
    return (lambda v: isinstance(v, kind)), f"a {kind.__name__}"


@functools.cache
def _field_types(cls) -> dict:
    """Each field of the dataclass ``cls`` by name, to its resolved annotation."""
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in fields(cls)}


def _check_fields(config, error=ValueError) -> None:
    """Raise ``error`` naming the first field of the dataclass ``config``
    that its annotated type does not take (see ``_field_rule``), before a
    range rule or a derived quantity fails on it."""
    for name, kind in _field_types(type(config)).items():
        accepts, what = _field_rule(kind)
        value = getattr(config, name)
        if not accepts(value):
            raise error(f"{name} must be {what}, got {value!r}")


def write_json(doc, path) -> None:
    """The package's JSON output format: indent 1, UTF-8, LF line ends and a
    final newline. ``save_world`` and ``mf.save_model`` write the same bytes
    for their documents from the arrays."""
    _write_text(json.dumps(doc, indent=1) + "\n", path)


def _write_text(text: str, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


@functools.lru_cache(maxsize=16)
def _json_layout(shape: tuple, depth: int, entry: str = "%r") -> str:
    """``json.dumps(indent=1)``'s text for a nested list of the given shape
    whose brackets open at nesting ``depth`` (1 for a value of the top-level
    object), with the ``%``-conversion ``entry`` in place of each number:
    ``%d`` for an ``int``, and ``%r``, which is ``float.__repr__`` and so
    json's own encoding, for a finite ``float``."""
    if not shape:
        return entry
    if not shape[0]:
        return "[]"
    pad = "\n" + " " * (depth + 1)
    item = _json_layout(shape[1:], depth + 1, entry)
    return "[" + pad + ("," + pad).join([item] * shape[0]) + "\n" + " " * depth + "]"


@functools.lru_cache(maxsize=128)
def _image_layout(num_entries: int) -> str:
    """The text of one image of ``num_entries`` objects in ``world.json``,
    with ``%d`` for its id, its group and its entries' integers."""
    return ('{\n   "id": %d,\n   "group": %d,\n   "composition": '
            + _json_layout((num_entries, 2), 3, "%d") + "\n  }")


def save_world(world: World, path) -> None:
    """Write ``write_json(world_to_dict(world), path)``'s bytes from the
    arrays with one ``%``-template: with an indent, ``json.dump`` runs its
    pure-Python encoder, which is several times slower. The header goes
    through ``json.dumps`` (label escapes, an int ``gaze_noise`` stay json's
    own); every image has at least one entry, the world at least one user,
    and its interest values are finite."""
    head = json.dumps({
        "version": WORLD_FORMAT_VERSION,
        "seed": world.seed,
        "num_users": world.num_users,
        "gaze_noise": world.gaze_noise,
        "catalog": list(world.labels),
    }, indent=1)
    n, indptr, lengths = world.num_images, world.indptr, np.diff(world.indptr)
    # image i's integers, [i, group, object, count, ...], start at 2 * (i + indptr[i])
    ints = np.empty(2 * (n + indptr[-1]), dtype=np.int64)
    starts = 2 * (np.arange(n) + indptr[:-1])
    ints[starts], ints[starts + 1] = np.arange(n), world.group_of
    at = 2 * (np.repeat(np.arange(1, n + 1), lengths) + np.arange(indptr[-1]))
    ints[at], ints[at + 1] = world.objects, world.counts
    layout = ("[\n  " + ",\n  ".join(map(_image_layout, lengths.tolist()))
              + '\n ],\n "interest": ' + _json_layout(world.interest.shape, 1))
    # head ends with the closing "\n}" of its object
    body = layout % tuple(ints.tolist() + world.interest.ravel().tolist())
    _write_text(head[:-2] + ',\n "images": ' + body + "\n}\n", path)


def load_world(path) -> World:
    with open(path, encoding="utf-8") as fh:
        return world_from_dict(json.load(fh))
