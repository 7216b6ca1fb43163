"""Test oracles kept out of the package: an exhaustive grid search over the
budget simplex, which the exact allocator is checked against, the per-image
successive sampler, which the vectorized image draw is checked against, the
dense images x objects pixel matrix that the world once held and the draw
that filled it, the ``csv.writer`` loop that ``save_records`` is checked
against, the frozenset records with their per-row loader, the row loop and
the per-entry world loader that the bulk-checked readers replaced, dict-loop
baseline, set-based holdout and pair set that the sorted records table
replaced, and the list-of-pairs quantizer and dict-path sparsify that the
attention arrays replaced, and the per-record ``bincount`` ALS half-sweep
that the dense masked product replaced."""

import csv
import io
import math
from dataclasses import dataclass, field

import numpy as np

from attnalloc.allocate import AllocationProblem, AllocationResult, objective_value
from attnalloc.mf import BaselineModel
from attnalloc.records import CSV_HEADER, MAX_LEVEL, MIN_LEVEL, InvalidRecordError
from attnalloc.records import RecordsParseError, SparseAttentionRecords
from attnalloc.world import (_MAX_PIXEL_COUNT, _SPARSIFY_STREAM, WORLD_FORMAT_VERSION,
                             ConfigurationError, World, _generate_interest, _is_number,
                             _popularity, _require, _run_ids)


class SearchSpaceError(ValueError):
    """Brute-force grid would exceed the allowed number of combinations."""


def brute_force_allocate(problem: AllocationProblem, grid_step: float) -> AllocationResult:
    """Exhaustive grid search over the budget simplex; test oracle only."""
    n = problem.n
    if n > 4:
        raise SearchSpaceError("brute force supports at most 4 objects")
    if grid_step <= 0:
        raise ValueError("grid_step must be positive")
    slack = problem.budget - n * problem.floor
    m = int(math.floor(slack / grid_step + 1e-9))
    combos = math.comb(m + n - 1, n - 1) if n > 1 else 1
    if combos > 10 ** 6:
        raise SearchSpaceError(f"{combos} grid combinations exceed the 1e6 limit")

    w = problem.weights
    floor = problem.floor
    if n == 1:
        best = np.array([problem.budget])
    else:
        ks = np.arange(m + 1)
        if n == 2:
            grids = [ks]
        elif n == 3:
            k1, k2 = np.meshgrid(ks, ks, indexing="ij")
            keep = (k1 + k2) <= m
            grids = [k1[keep], k2[keep]]
        else:
            k1, k2, k3 = np.meshgrid(ks, ks, ks, indexing="ij")
            keep = (k1 + k2 + k3) <= m
            grids = [k1[keep], k2[keep], k3[keep]]
        used = sum(grids) * grid_step
        last = problem.budget - floor * (n - 1) - used
        cols = [floor + g * grid_step for g in grids] + [last]
        obj = sum(
            np.where(wi > 0, wi * np.log(np.maximum(col, 1e-300)), 0.0)
            for wi, col in zip(w, cols)
        )
        idx = int(np.argmax(obj))
        best = np.array([float(np.atleast_1d(col)[idx]) for col in cols])

    return AllocationResult(
        capacities=best,
        lagrange_multiplier=None,
        objective=objective_value(w, best),
    )


def successive_sampling_images(config, rng):
    """The per-image loop that ``world._generate_images`` replaced: each
    image's objects are one ``rng.choice(p=..., replace=False)`` over its
    group's normalized weights. Reads the same leading popularity shuffle from
    ``rng``, then returns (pixels, group_of) before the missing objects are
    placed; test oracle only."""
    n_obj = config.num_objects
    popularity = rng.permutation(_popularity(config))
    blocks = np.array_split(np.arange(n_obj), config.num_groups)
    group_probs = []
    for g in range(config.num_groups):
        w = popularity.copy()
        w[blocks[g]] *= config.group_bias
        group_probs.append(w / w.sum())

    group_of = np.concatenate(
        [np.full(len(chunk), g) for g, chunk in
         enumerate(np.array_split(np.arange(config.num_images), config.num_groups))]
    )

    pixels = np.zeros((config.num_images, n_obj), dtype=np.int32)
    for image_id, g in enumerate(group_of):
        k = int(rng.integers(config.min_objects_per_image, config.max_objects_per_image + 1))
        oids = rng.choice(n_obj, size=k, replace=False, p=group_probs[g])
        pixels[image_id, oids] = rng.integers(
            config.min_pixels_per_object, config.max_pixels_per_object + 1, size=k
        )
    return pixels, group_of


def dense_pixels(world) -> np.ndarray:
    """The world's images as an images x objects int32 matrix: entry
    ``[i, o]`` is object ``o``'s pixel count in image ``i``, 0 when it is
    absent; test oracle only."""
    pixels = np.zeros((world.num_images, world.num_objects), dtype=np.int32)
    rows = np.repeat(np.arange(world.num_images), np.diff(world.indptr))
    pixels[rows, world.objects] = world.counts
    return pixels


def world_from_pixels(pixels, **fields) -> World:
    """The World whose images are the nonzeros of an images x objects pixel
    matrix, read row by row as ``World`` once read its ``pixels`` field;
    ``fields`` are its other fields. Test oracle only."""
    pixels = np.asarray(pixels)
    rows, objects = np.nonzero(pixels)
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=len(pixels)))))
    return World(indptr=indptr, objects=objects, counts=pixels[rows, objects], **fields)


def dense_generate_images(config, rng):
    """The images drawn into a pixel matrix, as ``world._generate_images``
    did before the world held its occurrences only: the same draws, with each
    count written at its (image, object) entry. Returns (pixels, group_of)
    before missing objects are placed; test oracle only."""
    n_img, n_obj = config.num_images, config.num_objects
    popularity = rng.permutation(_popularity(config))
    log_weight = np.log(popularity, out=np.full(n_obj, -np.inf), where=popularity > 0)
    in_block = _run_ids(n_obj, config.num_groups) == np.arange(config.num_groups)[:, None]
    group_log_weight = log_weight + math.log(config.group_bias) * in_block
    group_of = _run_ids(n_img, config.num_groups)

    hi = config.max_objects_per_image
    k = rng.integers(config.min_objects_per_image, hi + 1, size=n_img)
    keys = np.log(rng.standard_exponential((n_img, n_obj))) - group_log_weight[group_of]
    smallest = np.argsort(keys, axis=1)[:, :hi]
    taken = np.arange(hi) < k[:, None]
    pixels = np.zeros((n_img, n_obj), dtype=np.int32)
    pixels[np.nonzero(taken)[0], smallest[taken]] = rng.integers(
        config.min_pixels_per_object, config.max_pixels_per_object + 1, size=int(k.sum())
    )
    return pixels, group_of


def dense_place_missing_objects(config, rng, pixels: np.ndarray) -> None:
    """Put every object that occurs in no image of the matrix into one image,
    in place, with the same draws as ``world._place_missing_objects``; test
    oracle only."""
    load = pixels.sum(axis=1, dtype=np.int64)
    for missing in np.flatnonzero(~pixels.any(axis=0)):
        px = int(rng.integers(config.min_pixels_per_object, config.max_pixels_per_object + 1))
        room = np.flatnonzero(load + px <= config.max_image_pixels)
        if not room.size:
            raise ConfigurationError(
                f"object {missing} occurs in no image, and its {px} pixels fit in no image "
                f"under max_image_pixels {config.max_image_pixels}"
            )
        image = room[rng.integers(room.size)]
        pixels[image, missing] = px
        load[image] += px


def dense_generate_world(config, seed: int) -> World:
    """``generate_world`` through the pixel matrix: the dense draw and
    placement, then ``world_from_pixels``; test oracle only."""
    rng = np.random.default_rng(seed)
    interest = _generate_interest(config, rng)
    pixels, group_of = dense_generate_images(config, rng)
    dense_place_missing_objects(config, rng, pixels)
    return world_from_pixels(
        pixels, group_of=group_of, interest=interest, seed=seed, gaze_noise=config.gaze_noise,
        labels=tuple(f"object_{i:03d}" for i in range(config.num_objects)))


def csv_writer_records_text(records) -> str:
    """The records CSV as the ``csv.writer`` loop that ``save_records``
    replaced writes it; test oracle only."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for user, obj, level in records.sorted_list():
        writer.writerow((user, obj, level))
    return out.getvalue()


@dataclass(frozen=True)
class FrozensetRecords:
    """The records as a frozenset of (user, object, level) tuples, checked
    one record at a time; test oracle only."""

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


def record_pairs(records) -> set:
    """The (user, object) pairs of ``records`` as a set, which ``eval`` once
    took from the set of every pair in the world; test oracle only."""
    return set(zip(records.users.tolist(), records.objects.tolist()))


def frozenset_load_records(path) -> FrozensetRecords:
    """The per-row loader: every check runs on each row as it is read, so
    the first faulty row in file order is named; test oracle only."""
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
    return FrozensetRecords(frozenset(triples))


def row_loop_load_records(path) -> SparseAttentionRecords:
    """The row loop that ``records.load_records``' bulk checks replaced:
    the field count and the integers of each row are checked as it is read,
    then the table; test oracle only."""
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


def dict_fit_baseline(records) -> BaselineModel:
    """Per-id means collected in dict lists; test oracle only."""
    user_acc: dict = {}
    object_acc: dict = {}
    total = 0.0
    for user, object_id, level in records:
        user_acc.setdefault(user, []).append(level)
        object_acc.setdefault(object_id, []).append(level)
        total += level
    return BaselineModel(
        mu=total / len(records),
        user_means={u: float(np.mean(v)) for u, v in user_acc.items()},
        object_means={o: float(np.mean(v)) for o, v in object_acc.items()},
    )


def set_holdout_mask(records, num_users: int, num_objects: int,
                     fraction: float = 0.25, seed: int = 0) -> set:
    """The holdout draw with each user's candidates found by testing every
    pair against the observed set; test oracle only."""
    observed = records.pairs()
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(77,)))
    mask = set()
    for user in range(num_users):
        candidates = [o for o in range(num_objects) if (user, o) not in observed]
        if not candidates:
            continue
        k = max(1, round(fraction * len(candidates)))
        chosen = rng.choice(len(candidates), size=min(k, len(candidates)), replace=False)
        mask.update((user, candidates[int(i)]) for i in chosen)
    return mask


def quantize_pairs(raw) -> list:
    """Equal-frequency quintile binning of (object_id, value) pairs, sorted
    in Python: ties break by ascending object_id, a constant list maps to
    level 3, and the (object_id, level) pairs come back in the input order;
    test oracle only."""
    items = list(raw)
    if not items:
        return []
    for _, value in items:
        if not (0.0 <= value <= 1.0):
            raise ValueError(f"attention value {value} outside [0, 1]")
    first = items[0][1]
    if all(v == first for _, v in items):
        return [(o, 3) for o, _ in items]
    n = len(items)
    order = sorted(range(n), key=lambda i: (items[i][1], items[i][0]))
    level_of_position = {}
    for rank, i in enumerate(order):
        level_of_position[i] = rank * 5 // n + 1
    return [(items[i][0], level_of_position[i]) for i in range(n)]


def dict_sparsify(world, user: int, seed: int, raw_values) -> SparseAttentionRecords:
    """One user's sparsify draw on lists and dicts: the same generator calls
    as ``sparsify_with_info``, the retained ids as a list, their
    ``{object: value}`` from ``raw_values(world, user, ids)``, and
    ``quantize_pairs``; test oracle only."""
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
                chosen = rng.choice(len(ids), size=keep, replace=False)
                retained.extend(ids[np.sort(chosen)].tolist())
        if retained:
            pairs = quantize_pairs(sorted(raw_values(world, user, retained).items()))
            return SparseAttentionRecords([(user, o, level) for o, level in pairs])
    raise RuntimeError("could not draw a non-empty retained image subset")


def bincount_solve_side(ids, size, others, other_factors, other_bias, target, lam):
    """The ALS half-sweep over the records themselves: record r pairs
    ``ids[r]`` (0..size-1) with ``others[r]`` and holds ``target[r]``, the
    level minus ``mu``. Each id's normal equations are the sums of
    ``z z^T`` over its records, ``z = [q, 1, t]`` with ``t = target -
    other_bias``, from one in-order ``np.bincount`` per entry, ridged by
    ``lam * max(n, 1)`` and solved in one batch; returns ``(factors,
    bias)``. Test oracle only."""
    f = other_factors.shape[1]
    d = f + 1
    z = np.empty((d + 1, len(ids)))
    z[:f] = other_factors[others].T
    z[f] = 1.0
    z[d] = target - other_bias[others]
    sums = np.empty((size, d + 1, d + 1))
    for j, k in zip(*np.triu_indices(d + 1)):
        sums[:, j, k] = sums[:, k, j] = np.bincount(ids, weights=z[j] * z[k], minlength=size)
    gram, rhs = sums[:, :d, :d], sums[:, :d, d]
    diagonal = np.arange(d)
    gram[:, diagonal, diagonal] += lam * np.maximum(sums[:, f, f], 1)[:, None]
    x = np.linalg.solve(gram, rhs[..., None])[..., 0]
    return x[:, :f], x[:, f]


def loop_world_from_dict(doc: dict) -> World:
    """The per-entry loader that ``world.world_from_dict``'s bulk checks
    replaced: every check runs on each image entry as it is read, so the
    first faulty entry in document order is named; test oracle only."""
    version = doc.get("version") if isinstance(doc, dict) else None
    if version != WORLD_FORMAT_VERSION:
        raise ValueError(f"unsupported world file version {version!r}")
    labels = tuple(_require(doc, "catalog", "world file", list))
    images = _require(doc, "images", "world file", list)
    if not images:
        raise ValueError("world file: 'images' must list at least one image")
    pixels = np.zeros((len(images), len(labels)), dtype=np.int32)
    group_of = np.zeros(len(images), dtype=np.int64)
    for position, image in enumerate(images):
        where = f"image {position}"
        image_id = _require(image, "id", where)
        if type(image_id) is not int or image_id != position:
            raise ValueError(f"{where} has id {image_id!r}; ids must run 0, 1, 2, ...")
        group = _require(image, "group", where)
        if type(group) is not int or not 0 <= group < len(images):
            raise ValueError(f"{where} has group {group!r}, not an integer in 0..{len(images) - 1}")
        group_of[position] = group
        for entry in _require(image, "composition", where, list):
            if type(entry) is not list or len(entry) != 2 \
                    or type(entry[0]) is not int or type(entry[1]) is not int:
                raise ValueError(f"{where}: composition entry {entry!r} is not two integers")
            o, px = entry
            if not 0 <= o < len(labels):
                raise ValueError(f"{where}: object id {o} outside 0..{len(labels) - 1}")
            if pixels[position, o]:
                raise ValueError(f"{where} repeats object {o}")
            if not 1 <= px <= _MAX_PIXEL_COUNT:
                raise ValueError(f"{where}: object {o} has {px} pixels, not 1..2**31-1")
            pixels[position, o] = px
    rows = _require(doc, "interest", "world file", list)
    for user, row in enumerate(rows):
        if type(row) is not list or not all(map(_is_number, row)):
            raise ValueError(f"world file: interest row {user} is not a list of numbers")
    interest = np.array(rows, dtype=np.float64)
    num_users = _require(doc, "num_users", "world file")
    if interest.shape[:1] != (num_users,):
        raise ValueError(f"interest matrix has shape {interest.shape} for {num_users!r} users")
    return world_from_pixels(
        pixels,
        group_of=group_of,
        labels=labels,
        interest=interest,
        seed=_require(doc, "seed", "world file"),
        gaze_noise=_require(doc, "gaze_noise", "world file"),
    )
