"""Test oracles kept out of the package: an exhaustive grid search over the
budget simplex, which the exact allocator is checked against, its canonical
weight ratios as first written, the per-image
successive sampler, which the vectorized image draw is checked against, the
one-matrix key draw that the block draw is checked against, the dense
images x objects pixel matrix that the world once held and the draw that
filled it, the ``csv.writer`` loop that the CSV writers are checked
against, the frozenset records with their per-row loader, the row loop over
the open file and the per-entry world loader into a pixel matrix that the
general readers are checked against, the
dict-loop baseline (one pair per call, as the array baseline's gather
replaced it), set-based holdout and pair set that the sorted records table
replaced, and the list-of-pairs quantizer and dict-path sparsify that the
attention arrays replaced, the per-record ``bincount`` ALS half-sweep that
the dense masked product replaced, the one-row quantizer and per-user
sparsify loop that the row-wise ranking pass replaced, the per-user scene
draw that the one-pass scene build replaced, the model document as plain
lists, the per-pair score that ``predict_scene`` is checked against, and
the paper's attention value of one object's occurrences as a list formula
(the per-image reference loop that ``raw_attention_values`` is checked
against caps its values with it)."""

import csv
import io
import math
from dataclasses import dataclass, field

import numpy as np

from attnalloc.allocate import AllocationProblem, AllocationResult
from attnalloc.experiment import _SCENE_STREAM
from attnalloc.mf import MODEL_FORMAT_VERSION
from attnalloc.records import CSV_HEADER, MAX_LEVEL, MIN_LEVEL, InvalidRecordError
from attnalloc.records import RecordsParseError, SparseAttentionRecords
from attnalloc.schema import is_number, require
from attnalloc.world import (_MAX_PIXEL_COUNT, _SPARSIFY_STREAM, WORLD_FORMAT_VERSION,
                             ConfigurationError, World, _generate_interest, _popularity,
                             _run_ids, raw_attention_values)


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

    return AllocationResult(capacities=best, lagrange_multiplier=None)


def canonical_ratios(weights) -> np.ndarray:
    """The allocator's canonical weight ratios as first written, with its
    constants spelled out: each weight, at least 1e-9, over the largest such,
    rounded by ``np.round`` to 9 significant digits at a decimal exponent of
    at least -300."""
    w = np.maximum(np.asarray(weights, dtype=np.float64), 1e-9)
    r = w / w.max()
    scale = 10.0 ** (9 - 1 - np.maximum(np.floor(np.log10(r)), -300))
    return np.round(r * scale) / scale


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


def matrix_generate_images(config, rng):
    """``world._generate_images`` as it was before it drew its keys in
    blocks of image rows: one images x objects matrix of keys, each row
    sorted whole. The same ``(image, object, pixel count)`` arrays and group
    ids, from the same draws; test oracle only."""
    n_img, n_obj = config.num_images, config.num_objects
    popularity = rng.permutation(_popularity(config))
    log_weight = np.log(popularity, out=np.full(n_obj, -np.inf), where=popularity > 0)
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


def dense_generate_images(config, rng):
    """The images drawn into a pixel matrix, as ``world._generate_images``
    did before the world held its occurrences only: the one-matrix draw
    (``matrix_generate_images``), with each count written at its (image,
    object) entry. Returns (pixels, group_of) before missing objects are
    placed; test oracle only."""
    (rows, objects, counts), group_of = matrix_generate_images(config, rng)
    pixels = np.zeros((config.num_images, config.num_objects), dtype=np.int32)
    pixels[rows, objects] = counts
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


def csv_writer_text(header, rows) -> str:
    """The CSV text of ``header`` and ``rows`` as the ``csv.writer`` loops
    that ``save_records``, ``save_allocation``, ``reports_to_csv`` and
    ``sweep_to_csv`` replaced write it; test oracle only."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
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
    """The row loop over the open file that ``records.load_records`` is
    checked against: the field count and the integers of each row are
    checked as it is read, then the table; test oracle only."""
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


@dataclass(frozen=True)
class DictBaseline:
    """The mean-imputation baseline on dicts keyed by id, one pair per
    ``predict`` call; test oracle only."""

    mu: float
    user_means: dict
    object_means: dict

    def predict(self, user: int, object_id: int) -> float:
        score = self.mu
        if user in self.user_means:
            score += self.user_means[user] - self.mu
        if object_id in self.object_means:
            score += self.object_means[object_id] - self.mu
        return float(min(max(score, MIN_LEVEL), MAX_LEVEL))


def dict_fit_baseline(records) -> DictBaseline:
    """Per-id means collected in dict lists; test oracle only."""
    user_acc: dict = {}
    object_acc: dict = {}
    total = 0.0
    for user, object_id, level in records:
        user_acc.setdefault(user, []).append(level)
        object_acc.setdefault(object_id, []).append(level)
        total += level
    return DictBaseline(
        mu=total / len(records),
        user_means={u: float(np.mean(v)) for u, v in user_acc.items()},
        object_means={o: float(np.mean(v)) for o, v in object_acc.items()},
    )


def loop_scene_objects(config, world, user: int) -> list:
    """One user's evaluated scene drawn on its own: the same generator calls
    as ``ExperimentRunner.scene_objects``, then ``np.unique`` of the retained
    images' objects; test oracle only."""
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=config.master_seed, spawn_key=(_SCENE_STREAM, user))
    )
    group = int(rng.integers(world.num_groups))
    pct = int(rng.integers(config.scene_retain_lo, config.scene_retain_hi + 1))
    ids = np.flatnonzero(world.group_of == group)
    keep = max(1, round(pct * len(ids) / 100))
    chosen = ids[np.sort(rng.choice(len(ids), size=keep, replace=False))]
    return np.unique(np.concatenate([world.objects[world.indptr[i]:world.indptr[i + 1]]
                                     for i in chosen])).tolist()


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


def row_quantize_levels(values) -> np.ndarray:
    """One user's levels from a stable ``argsort`` of that row alone: ``r *
    5 // n + 1`` for rank ``r`` among ``n``, level 3 for a constant row, and
    the same ``[0, 1]`` check; test oracle only."""
    values = np.asarray(values, dtype=np.float64)
    outside = ~((values >= 0.0) & (values <= 1.0))
    if outside.any():
        raise ValueError(f"attention value {values[outside][0]} outside [0, 1]")
    n = values.size
    if not n or (values == values[0]).all():
        return np.full(n, (MIN_LEVEL + MAX_LEVEL) // 2, dtype=np.int64)
    levels = np.empty(n, dtype=np.int64)
    levels[np.argsort(values, kind="stable")] = np.arange(n) * 5 // n + MIN_LEVEL
    return levels


def loop_sparsify(world, users, seed: int) -> SparseAttentionRecords:
    """The per-user sparsify loop: for each listed user (or the one user
    id), its draw, ``raw_attention_values`` on the retained ids and
    ``row_quantize_levels`` give one table; the tables are merged into one
    ``SparseAttentionRecords``; test oracle only."""
    tables = []
    for user in [users] if isinstance(users, (int, np.integer)) else users:
        objects, values = raw_attention_values(world, user, _retained_images(world, user, seed))
        tables.append(np.column_stack((np.full(objects.size, user), objects,
                                       row_quantize_levels(values))))
    return SparseAttentionRecords(np.concatenate(tables))


def _retained_images(world, user: int, seed: int) -> list:
    """One user's retained image ids, drawn with the same generator calls
    as ``world._draw_images``, as a list."""
    for attempt in range(100):
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=seed, spawn_key=(_SPARSIFY_STREAM, user, attempt))
        )
        ran1 = min(int(rng.integers(2, 5)), world.num_groups)
        ran2 = int(rng.integers(30, 71))
        groups = sorted(int(g) for g in rng.choice(world.num_groups, size=ran1, replace=False))
        retained = []
        for g in groups:
            ids = np.flatnonzero(world.group_of == g)
            keep = round(ran2 * len(ids) / 100)
            if keep > 0:
                chosen = rng.choice(len(ids), size=keep, replace=False)
                retained.extend(ids[np.sort(chosen)].tolist())
        if retained:
            return retained
    raise RuntimeError("could not draw a non-empty retained image subset")


def dict_sparsify(world, user: int, seed: int, raw_values) -> SparseAttentionRecords:
    """One user's sparsify draw on lists and dicts: the retained ids of
    ``_retained_images``, their ``{object: value}`` from ``raw_values(world,
    user, ids)``, and ``quantize_pairs``; test oracle only."""
    retained = _retained_images(world, user, seed)
    pairs = quantize_pairs(sorted(raw_values(world, user, retained).items()))
    return SparseAttentionRecords([(user, o, level) for o, level in pairs])


def model_to_dict(model) -> dict:
    """A factor model's ``attn-mf/1`` document as plain lists, in the key
    order ``save_model`` writes; test oracle only."""
    return {"version": MODEL_FORMAT_VERSION, "num_users": model.num_users,
            "num_objects": model.num_objects, "f": model.f, "mu": model.mu,
            "user_bias": model.user_bias.tolist(), "object_bias": model.object_bias.tolist(),
            "user_factors": model.user_factors.tolist(),
            "object_factors": model.object_factors.tolist()}


def raw_score(model, user: int, object_id: int) -> float:
    """The unclamped score of one pair, ``((mu + b_u) + b_o) + p_u @ q_o``
    with every term read per pair, as ``predict`` once computed it; an
    out-of-range pair raises ``IndexError`` naming it. Clamped to [1, 5],
    it is the per-pair reference of ``predict_scene``; test oracle only."""
    if not (0 <= user < model.num_users) or not (0 <= object_id < model.num_objects):
        raise IndexError(f"pair ({user}, {object_id}) outside model dimensions")
    return float(
        model.mu + model.user_bias[user] + model.object_bias[object_id]
        + model.user_factors[user] @ model.object_factors[object_id]
    )


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
    """The per-entry loader into a dense pixel matrix that
    ``world.world_from_dict`` is checked against: every check runs on each
    image entry as it is read, so the first faulty entry in document order
    is named; test oracle only."""
    version = doc.get("version") if isinstance(doc, dict) else None
    if version != WORLD_FORMAT_VERSION:
        raise ValueError(f"unsupported world file version {version!r}")
    labels = tuple(require(doc, "catalog", "world file", list))
    images = require(doc, "images", "world file", list)
    if not images:
        raise ValueError("world file: 'images' must list at least one image")
    pixels = np.zeros((len(images), len(labels)), dtype=np.int32)
    group_of = np.zeros(len(images), dtype=np.int64)
    for position, image in enumerate(images):
        where = f"image {position}"
        image_id = require(image, "id", where)
        if type(image_id) is not int or image_id != position:
            raise ValueError(f"{where} has id {image_id!r}; ids must run 0, 1, 2, ...")
        group = require(image, "group", where)
        if type(group) is not int or not 0 <= group < len(images):
            raise ValueError(f"{where} has group {group!r}, not an integer in 0..{len(images) - 1}")
        group_of[position] = group
        for entry in require(image, "composition", where, list):
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
    rows = require(doc, "interest", "world file", list)
    for user, row in enumerate(rows):
        if type(row) is not list or not all(map(is_number, row)):
            raise ValueError(f"world file: interest row {user} is not a list of numbers")
    for user, row in enumerate(rows):
        if len(row) != len(rows[0]):
            raise ValueError(f"world file: interest row {user} has {len(row)} entries, "
                             f"not {len(rows[0])}")
    interest = np.array(rows, dtype=np.float64)
    num_users = require(doc, "num_users", "world file")
    if type(num_users) is not int or interest.shape[:1] != (num_users,):
        raise ValueError(f"interest matrix has shape {interest.shape} for {num_users!r} users")
    return world_from_pixels(
        pixels,
        group_of=group_of,
        labels=labels,
        interest=interest,
        seed=require(doc, "seed", "world file"),
        gaze_noise=require(doc, "gaze_noise", "world file"),
    )
