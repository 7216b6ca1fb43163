"""Rendering-capacity allocation: weighted log-utility water-filling with
per-object floors, the uniform baseline, and a brute-force grid oracle.

maximize   sum_n w_n * ln(c_n)
subject to sum_n c_n = C_total,  c_n >= c_min

solved exactly by active-set clamping: unclamped objects get c = w / lambda
with lambda chosen to exhaust the budget left after the clamped floors;
anything that falls below the floor is clamped and the step repeats (at most
N rounds). The allocation depends on the weights only through their ratios,
so it is invariant to positive rescaling of the weight vector.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

WEIGHT_EPS = 1e-9

# weight ratios are canonicalized to this many significant digits so that
# positive rescaling of the weight vector maps to bit-identical allocations
_RATIO_DIGITS = 9


class InfeasibleError(ValueError):
    """Budget cannot cover the per-object floors; message names the deficit."""


class SearchSpaceError(ValueError):
    """Brute-force grid would exceed the allowed number of combinations."""


def _check_feasible(n: int, budget: float, floor: float) -> None:
    """Reject non-finite inputs, a floor of 1 K or less, and budgets below n floors."""
    for name, value in (("budget", budget), ("floor", floor)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
    if floor <= 1.0:
        raise ValueError("floor must exceed 1 K so log terms stay positive")
    deficit = n * floor - budget
    if deficit > 1e-9 * max(1.0, budget):
        raise InfeasibleError(
            f"budget {budget} K cannot cover {n} floors of "
            f"{floor} K (deficit {deficit:.6g} K)"
        )


@dataclass(frozen=True)
class AllocationProblem:
    weights: np.ndarray
    budget: float   # C_total, K units
    floor: float    # c_min, K units

    def __post_init__(self):
        weights = np.asarray(self.weights, dtype=np.float64)
        if weights.ndim != 1 or weights.size < 1:
            raise ValueError("weights must be a non-empty 1-D vector")
        if (weights < 0).any() or not np.isfinite(weights).all():
            raise ValueError("weights must be finite and non-negative")
        object.__setattr__(self, "weights", weights)
        _check_feasible(self.n, self.budget, self.floor)

    @property
    def n(self) -> int:
        return self.weights.size


@dataclass(frozen=True)
class AllocationResult:
    capacities: np.ndarray
    lagrange_multiplier: float | None
    objective: float | None

    def __post_init__(self):
        capacities = np.asarray(self.capacities, dtype=np.float64)
        if not np.isfinite(capacities).all():
            raise ValueError("capacities must be finite")
        capacities.setflags(write=False)
        object.__setattr__(self, "capacities", capacities)


def objective_value(weights, capacities) -> float:
    """Weighted log utility; zero-weight terms contribute exactly zero."""
    w = np.asarray(weights, dtype=np.float64)
    c = np.asarray(capacities, dtype=np.float64)
    terms = np.where(w > 0, w * np.log(np.where(w > 0, c, 1.0)), 0.0)
    return float(terms.sum())


def _canonical_ratios(weights: np.ndarray) -> np.ndarray:
    w = np.maximum(weights, WEIGHT_EPS)
    r = w / w.max()
    # capped so the scale stays finite: a ratio below 1e-300 rounds to a few
    # digits or to 0, and its object sits at the floor either way
    scale = 10.0 ** (_RATIO_DIGITS - 1 - np.maximum(np.floor(np.log10(r)), -300))
    return np.round(r * scale) / scale


def allocate_weighted(problem: AllocationProblem) -> AllocationResult:
    """Exact KKT maximizer of the floored weighted log utility."""
    n = problem.n
    floor = problem.floor
    budget = problem.budget
    r = _canonical_ratios(problem.weights)

    capacities = np.full(n, floor)
    unclamped = np.full(n, budget - n * floor > 0)
    if unclamped.any():
        for _ in range(n):
            m_clamped = n - int(unclamped.sum())
            available = budget - m_clamped * floor
            lam = r[unclamped].sum() / available
            capacities[unclamped] = r[unclamped] / lam
            below = unclamped & (capacities < floor)
            if not below.any():
                break
            unclamped &= ~below
            capacities[below] = floor
            if not unclamped.any():
                break

    if unclamped.any():
        lam_orig = problem.weights[unclamped].sum() / (
            budget - (n - int(unclamped.sum())) * floor
        )
    else:
        lam_orig = None
    return AllocationResult(
        capacities=capacities,
        lagrange_multiplier=lam_orig,
        objective=objective_value(problem.weights, capacities),
    )


def allocate_uniform(n_objects: int, budget: float, floor: float) -> AllocationResult:
    """Every object gets budget / n (feasibility guarantees this meets the floor)."""
    if n_objects < 1:
        raise ValueError("n_objects must be >= 1")
    _check_feasible(n_objects, budget, floor)
    share = budget / n_objects
    return AllocationResult(
        capacities=np.full(n_objects, share),
        lagrange_multiplier=None,
        objective=None,
    )


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


def save_allocation(weights, result: AllocationResult, path) -> None:
    """CSV with one row per object: object_id, weight, capacity_k."""
    w = np.asarray(weights, dtype=np.float64)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("object_id", "weight", "capacity_k"))
        for i, (wi, ci) in enumerate(zip(w, result.capacities)):
            writer.writerow((i, repr(float(wi)), repr(float(ci))))


def allocation_summary(problem: AllocationProblem, result: AllocationResult) -> dict:
    allocated = float(result.capacities.sum())
    return {
        "objective": result.objective,
        "lagrange_multiplier": result.lagrange_multiplier,
        "budget_total_k": problem.budget,
        "budget_allocated_k": allocated,
        "budget_relative_error": abs(allocated - problem.budget) / max(1.0, problem.budget),
        "floor_k": problem.floor,
        "min_capacity_k": float(result.capacities.min()),
    }
