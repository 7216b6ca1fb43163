"""Test oracles kept out of the package: an exhaustive grid search over the
budget simplex, which the exact allocator is checked against, the per-image
successive sampler, which the vectorized image draw is checked against, and
the ``csv.writer`` loop that ``save_records`` is checked against."""

import csv
import io
import math

import numpy as np

from attnalloc.allocate import AllocationProblem, AllocationResult, objective_value
from attnalloc.records import CSV_HEADER
from attnalloc.world import _popularity


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


def csv_writer_records_text(records) -> str:
    """The records CSV as the ``csv.writer`` loop that ``save_records``
    replaced writes it; test oracle only."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for user, obj, level in records.sorted_list():
        writer.writerow((user, obj, level))
    return out.getvalue()
