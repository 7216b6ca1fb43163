"""Rendering-capacity allocation: weighted log-utility water-filling with
per-object floors, and the uniform baseline.

maximize   sum_n w_n * ln(c_n)
subject to sum_n c_n = C_total,  c_n >= c_min

solved in closed form over the sorted weights: free objects get c = w / lambda
with lambda chosen to exhaust the budget left after the floors, and the free
set is the largest-weight prefix whose last member still clears the floor
(Palomar & Fonollosa, IEEE TSP 2005). The allocation depends on the weights
only through their ratios, so it is invariant to positive rescaling of the
weight vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .schema import field_rule, integer_type, real_vector, write_text

WEIGHT_EPS = 1e-9

# weight ratios are canonicalized to this many significant digits so that
# positive rescaling of the weight vector maps to bit-identical allocations
_RATIO_DIGITS = 9


class InfeasibleError(ValueError):
    """Budget cannot cover the per-object floors; message names the deficit."""


_finite, _FINITE = field_rule(float)


def _check_feasible(n: int, budget: float, floor: float) -> None:
    """Reject a budget or floor that is not a finite real (schema's float
    rule, so never a str or bool), a floor of 1 K or less, and budgets below
    n floors."""
    for name, value in (("budget", budget), ("floor", floor)):
        if not _finite(value):
            raise ValueError(f"{name} must be {_FINITE}, got {value!r}")
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
    """The weights are real numbers by ``schema.real_vector`` (a str or bool
    weight raises), finite and non-negative; their canonical ratios, which
    are all that the allocation reads of them but the multiplier, are taken
    once, here, by the same pass that checks them."""

    weights: np.ndarray
    budget: float   # C_total, K units
    floor: float    # c_min, K units
    ratios: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        weights = real_vector(self.weights, "weight")
        if not weights.size:
            raise ValueError("weights must be a non-empty 1-D vector")
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "ratios", _canonical_ratios(weights))
        _check_feasible(self.n, self.budget, self.floor)

    @property
    def n(self) -> int:
        return self.weights.size


@dataclass(frozen=True)
class AllocationResult:
    """Read-only capacities and, for a weighted allocation with a free object,
    the multiplier lambda in the original weight units. The package's solvers
    build the capacities from a checked ``AllocationProblem`` or
    ``_check_feasible``, so they are finite and are not checked again."""

    capacities: np.ndarray
    lagrange_multiplier: float | None

    def __post_init__(self):
        capacities = np.asarray(self.capacities, dtype=np.float64)
        capacities.setflags(write=False)
        object.__setattr__(self, "capacities", capacities)


def objective_value(weights, capacities) -> float:
    """Weighted log utility; zero-weight terms contribute exactly zero."""
    w = np.asarray(weights, dtype=np.float64)
    c = np.asarray(capacities, dtype=np.float64)
    terms = np.where(w > 0, w * np.log(np.where(w > 0, c, 1.0)), 0.0)
    return float(terms.sum())


def _canonical_ratios(weights: np.ndarray) -> np.ndarray:
    """Each weight (at least ``WEIGHT_EPS``) over the largest, rounded to
    ``_RATIO_DIGITS`` significant digits; a ValueError unless every weight
    is finite and non-negative, which NaN fails by both comparisons."""
    top = weights.max()
    if not (weights.min() >= 0 and top < np.inf):
        raise ValueError("weights must be finite and non-negative")
    r = np.maximum(weights, WEIGHT_EPS) / max(top, WEIGHT_EPS)
    # capped so the scale stays finite: a ratio below 1e-300 rounds to a few
    # digits or to 0, and its object sits at the floor either way
    scale = 10.0 ** (_RATIO_DIGITS - 1.0 - np.maximum(np.floor(np.log10(r)), -300.0))
    return np.rint(r * scale) / scale


def _multiplier(free_weights: np.ndarray, available: float):
    """lambda in the weights' units: the free weights' sum over the capacity
    left after the floors. lambda is below every free weight, since each free
    capacity exceeds 1 K, so only the sum can overflow; it is then taken at
    2**-64 scale, which is exact for every weight large enough to count."""
    with np.errstate(over="ignore"):
        total = free_weights.sum()
    if math.isinf(total):
        return (free_weights * 2.0 ** -64).sum() / available * 2.0 ** 64
    return total / available


def allocate_weighted(problem: AllocationProblem) -> AllocationResult:
    """Exact KKT maximizer of the floored weighted log utility."""
    n = problem.n
    floor = problem.floor
    budget = problem.budget
    r = problem.ratios

    capacities = np.full(n, floor, dtype=np.float64)  # an integer floor takes no int dtype
    lam_orig = None
    if budget - n * floor > 0:
        # lambda of each largest-ratio prefix, with every other object at the
        # floor; a ratio that fails to clear the floor fails for every longer
        # prefix, and tied ratios pass or fail together
        desc = np.sort(r)[::-1]
        lam = desc.cumsum() / (budget - floor * np.arange(n - 1, -1, -1))
        clears = (desc / lam >= floor).nonzero()[0]
        if clears.size:
            free = r >= desc[clears[-1]]
            free_r = r[free]
            available = budget - (n - free_r.size) * floor
            capacities[free] = free_r / (free_r.sum() / available)
            lam_orig = _multiplier(problem.weights[free], available)
    return AllocationResult(capacities=capacities, lagrange_multiplier=lam_orig)


def allocate_uniform(n_objects: int, budget: float, floor: float) -> AllocationResult:
    """Every object gets budget / n (feasibility guarantees this meets the floor)."""
    if not integer_type(type(n_objects)):
        raise ValueError(f"n_objects must be an integer, got {n_objects!r}")
    if n_objects < 1:
        raise ValueError("n_objects must be >= 1")
    _check_feasible(n_objects, budget, floor)
    share = budget / n_objects
    return AllocationResult(capacities=np.full(n_objects, share), lagrange_multiplier=None)


def save_allocation(weights, result: AllocationResult, path) -> None:
    """CSV rows object_id, weight, capacity_k, from one ``%``-template."""
    rows = list(zip(range(len(result.capacities)),
                    np.asarray(weights, dtype=np.float64).tolist(), result.capacities.tolist()))
    text = ("%d,%r,%r\n" * len(rows)) % tuple(chain.from_iterable(rows))
    write_text("object_id,weight,capacity_k\n" + text, path)


def allocation_summary(problem: AllocationProblem, result: AllocationResult) -> dict:
    """The ``allocate`` command's summary, the objective's one reader; raises if it overflows."""
    with np.errstate(over="ignore"):
        objective = objective_value(problem.weights, result.capacities)
    if not math.isfinite(objective):
        raise ValueError("the objective overflows float64; the capacities depend only on the weight"
                         " ratios, so divide every weight by one factor for the same allocation")
    allocated = float(result.capacities.sum())
    return {
        "objective": objective,
        "lagrange_multiplier": result.lagrange_multiplier,
        "budget_total_k": problem.budget,
        "budget_allocated_k": allocated,
        "budget_relative_error": abs(allocated - problem.budget) / max(1.0, problem.budget),
        "floor_k": problem.floor,
        "min_capacity_k": float(result.capacities.min()),
    }
