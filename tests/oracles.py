"""Test oracles kept out of the package: an exhaustive grid search over the
budget simplex, which the exact allocator is checked against."""

import math

import numpy as np

from attnalloc.allocate import AllocationProblem, AllocationResult, objective_value


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
