"""Water-filling allocator: exact cases, KKT invariants, the grid oracle,
and a differential test against the active-set loop it replaced."""


import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from attnalloc import (
    AllocationProblem,
    allocate_uniform,
    allocate_weighted,
)
from attnalloc.allocate import (
    AllocationResult,
    _canonical_ratios,
    allocation_summary,
    objective_value,
    save_allocation,
)
from oracles import SearchSpaceError, brute_force_allocate, canonical_ratios, csv_writer_text
from test_faults import former_tests



def _reference_allocate_weighted(problem: AllocationProblem) -> AllocationResult:
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
    return AllocationResult(capacities=capacities, lagrange_multiplier=lam_orig)


def test_equal_weights_split_evenly():
    result = allocate_weighted(AllocationProblem(np.ones(3), 60.0, 15.0))
    assert np.allclose(result.capacities, [20.0, 20.0, 20.0])


def test_floor_clamp_two_objects():
    # unconstrained split (32, 8) violates the 15 K floor; the light object
    # clamps and the heavy one takes the remainder
    result = allocate_weighted(AllocationProblem(np.array([4.0, 1.0]), 40.0, 15.0))
    assert np.allclose(result.capacities, [25.0, 15.0])


def test_symmetric_default_budget():
    n = 56
    result = allocate_weighted(AllocationProblem(np.full(n, 2.5), n * 20.0, 15.0))
    assert np.allclose(result.capacities, np.full(n, 20.0))


def test_uniform_baseline():
    result = allocate_uniform(3, 60.0, 15.0)
    assert np.allclose(result.capacities, [20.0, 20.0, 20.0])
    assert result.lagrange_multiplier is None
    assert allocate_uniform(1, 37.5, 15.0).capacities[0] == 37.5


@pytest.mark.parametrize("floor", [2, np.int64(2)], ids=["int", "np.int64"])
def test_integer_floor_gives_the_float_floors_bits(floor):
    # np.full took an integer floor's dtype, so the free capacities were
    # truncated: [52, 29, 11, 5], which sums to 97
    weights = [0.9, 0.5, 0.2, 0.1]
    expected = allocate_weighted(AllocationProblem(weights, 100, 2.0))
    result = allocate_weighted(AllocationProblem(weights, 100, floor))
    assert result.capacities.dtype == np.float64 and result.capacities.sum() == 100.0
    assert result.capacities.tobytes() == expected.capacities.tobytes()
    assert result.lagrange_multiplier == expected.lagrange_multiplier


def test_zero_weight_gets_exactly_floor():
    result = allocate_weighted(AllocationProblem(np.array([3.0, 0.0]), 60.0, 15.0))
    assert result.capacities[1] == 15.0
    assert result.capacities[0] == pytest.approx(45.0)


def test_budget_exhausted_at_tight_feasibility():
    result = allocate_weighted(AllocationProblem(np.array([5.0, 1.0]), 30.0, 15.0))
    assert np.allclose(result.capacities, [15.0, 15.0])
    assert result.lagrange_multiplier is None


def test_large_budget_limit_proportional():
    w = np.array([1.0, 2.0, 5.0])
    result = allocate_weighted(AllocationProblem(w, 1e6, 15.0))
    assert np.allclose(result.capacities / 1e6, w / w.sum(), atol=1e-3)


def test_brute_force_matches_known_answer():
    result = brute_force_allocate(AllocationProblem(np.array([4.0, 1.0]), 40.0, 15.0), 0.01)
    assert np.allclose(result.capacities, [25.0, 15.0], atol=1e-9)


def test_brute_force_single_object():
    result = brute_force_allocate(AllocationProblem(np.array([2.0]), 33.0, 15.0), 0.01)
    assert result.capacities[0] == 33.0


def test_brute_force_rejects_large_searches():
    with pytest.raises(SearchSpaceError):
        brute_force_allocate(AllocationProblem(np.ones(5), 100.0, 15.0), 0.01)
    with pytest.raises(SearchSpaceError):
        brute_force_allocate(AllocationProblem(np.ones(3), 1e5, 15.0), 0.01)


def test_objective_value_ignores_zero_weights():
    assert objective_value([0.0, 2.0], [15.0, np.e ** 2]) == pytest.approx(4.0)
    assert objective_value([0.0], [123.0]) == 0.0


@given(
    weights=st.lists(st.floats(0.05, 10.0), min_size=1, max_size=24),
    slack=st.floats(0.0, 500.0),
    floor=st.floats(2.0, 30.0),
)
@settings(max_examples=200, deadline=None)
def test_solver_invariants(weights, slack, floor):
    w = np.array(weights)
    n = w.size
    problem = AllocationProblem(w, n * floor + slack, floor)
    result = allocate_weighted(problem)
    c = result.capacities

    assert abs(c.sum() - problem.budget) <= 1e-9 * max(1.0, problem.budget)
    assert c.min() >= floor - 1e-12

    order = np.argsort(w, kind="stable")
    assert (np.diff(c[order]) >= -1e-9).all()

    uniform = allocate_uniform(n, problem.budget, floor)
    assert objective_value(w, c) >= objective_value(w, uniform.capacities) - 1e-9


@given(
    weights=st.lists(st.floats(0.05, 10.0), min_size=2, max_size=16),
    scale=st.sampled_from([1e-3, 1e3, 7.25]),
)
@settings(max_examples=100, deadline=None)
def test_scale_invariance_exact(weights, scale):
    w = np.array(weights)
    budget = w.size * 22.0
    base = allocate_weighted(AllocationProblem(w, budget, 15.0))
    scaled = allocate_weighted(AllocationProblem(w * scale, budget, 15.0))
    assert np.array_equal(base.capacities, scaled.capacities)


@st.composite
def _extreme_problems(draw):
    """Feasible (weights, budget, floor) at the edges of float64: zero
    weights, weights from 1e-300 to 1e308, up to 5,000 objects, floors just
    above 1 K and budgets from the floors' total (less the feasibility
    tolerance) up to 1e308 K."""
    if draw(st.booleans()):
        w = np.array(draw(st.lists(
            st.one_of(st.just(0.0), st.just(1e-300), st.just(1e308), st.floats(1e-300, 1e308)),
            min_size=1, max_size=16)))
    else:
        n = draw(st.integers(17, 5000))
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        # + 0.0 turns -0.0 into 0.0: sorted() keeps [0.0, -0.0] in that order,
        # and uniform() rejects it as high < low
        lo, hi = sorted(x + 0.0 for x in draw(st.lists(st.floats(-300.0, 308.0),
                                                       min_size=2, max_size=2)))
        w = 10.0 ** rng.uniform(lo, hi, size=n)
        w[rng.random(n) < draw(st.sampled_from([0.0, 0.5, 1.0]))] = 0.0
    n = w.size
    floor = draw(st.one_of(st.just(float(np.nextafter(1.0, 2.0))),
                           st.floats(1.0, 1e6, exclude_min=True)))
    budget = draw(st.one_of(st.just(n * floor), st.just(n * floor * (1.0 - 1e-10)),
                            st.floats(n * floor, 1e308)))
    return w, budget, floor


@given(_extreme_problems())
@settings(max_examples=300, deadline=None)
def test_capacities_finite_read_only_and_feasible(case):
    # the evidence for AllocationResult not re-checking finiteness: both
    # solvers' capacities are finite for every input AllocationProblem and
    # _check_feasible accept
    w, budget, floor = case
    n = w.size
    for result in (allocate_weighted(AllocationProblem(w, budget, floor)),
                   allocate_uniform(n, budget, floor)):
        c = result.capacities
        assert c.dtype == np.float64 and c.shape == (n,)
        assert np.isfinite(c).all()
        assert not c.flags.writeable
        assert abs(c.sum() - budget) <= 1e-9 * budget
        assert c.min() >= floor * (1.0 - 1e-12) - 1e-9 * budget / n
        assert result.lagrange_multiplier is None or np.isfinite(result.lagrange_multiplier)


def test_multiplier_of_weights_whose_sum_overflows():
    # the free weights' sum overflowed: lambda was inf, with a RuntimeWarning
    w = np.array([1e308, 1e308, 0.5e308])
    result = allocate_weighted(AllocationProblem(w, 10.0, 1.25))
    assert np.allclose(result.capacities, [4.0, 4.0, 2.0])
    assert result.lagrange_multiplier == pytest.approx(2.5e307, rel=1e-15)


def test_summary_and_csv(tmp_path):
    problem = AllocationProblem(np.array([4.0, 1.0]), 40.0, 15.0)
    result = allocate_weighted(problem)
    summary = allocation_summary(problem, result)
    assert summary["budget_relative_error"] <= 1e-9
    assert summary["min_capacity_k"] >= 15.0

    path = tmp_path / "alloc.csv"
    save_allocation(problem.weights, result, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "object_id,weight,capacity_k"
    assert len(lines) == 3
    assert lines[1].startswith("0,4.0,25.0")


@given(st.lists(st.one_of(st.just(0.0), st.floats(5e-324, 1e308)), min_size=1, max_size=50),
       st.data())
@settings(max_examples=200, deadline=None)
def test_allocation_csv_matches_csv_writer(tmp_path_factory, weights, data):
    capacities = data.draw(st.lists(st.floats(5e-324, 1e308), min_size=len(weights),
                                    max_size=len(weights)))
    result = AllocationResult(np.array(capacities), None)
    path = tmp_path_factory.mktemp("allocations") / "alloc.csv"
    save_allocation(weights, result, path)
    w = np.asarray(weights, dtype=np.float64)
    rows = [(i, repr(float(wi)), repr(float(ci)))
            for i, (wi, ci) in enumerate(zip(w, result.capacities))]
    expected = csv_writer_text(("object_id", "weight", "capacity_k"), rows)
    assert path.read_bytes() == expected.encode()


# differential problems: weights drawn from a numpy stream so N can reach 1e4;
# a spread of s decades puts weight ratios anywhere in 1e-s..1e+s
_DIFF_SETTINGS = settings(max_examples=300, deadline=None)


def _diff_weights(n, seed, spread, zero_frac, ties):
    rng = np.random.default_rng(seed)
    if ties:
        w = rng.integers(1, 4, size=n).astype(np.float64)
    else:
        w = 10.0 ** rng.uniform(-spread / 2, spread / 2, size=n)
    w[rng.random(n) < zero_frac] = 0.0
    return w


_diff_problem_args = dict(
    n=st.one_of(st.integers(1, 64), st.integers(65, 10_000), st.just(10_000)),
    seed=st.integers(0, 2 ** 32 - 1),
    spread=st.sampled_from([0.0, 2.0, 30.0, 300.0, 600.0]),
    zero_frac=st.sampled_from([0.0, 0.2, 1.0]),
    ties=st.booleans(),
    floor=st.floats(1.5, 30.0),
)


@given(
    **_diff_problem_args,
    slack=st.one_of(st.just(0.0), st.just(1e-9), st.floats(1e-6, 1e3)),
)
@_DIFF_SETTINGS
def test_matches_reference_loop(n, seed, spread, zero_frac, ties, floor, slack):
    w = _diff_weights(n, seed, spread, zero_frac, ties)
    problem = AllocationProblem(w, n * floor * (1.0 + slack), floor)
    new = allocate_weighted(problem)
    ref = _reference_allocate_weighted(problem)
    assert np.array_equal(new.capacities, ref.capacities)
    assert objective_value(problem.weights, new.capacities) == objective_value(
        problem.weights, ref.capacities)
    assert new.lagrange_multiplier == ref.lagrange_multiplier


@given(**_diff_problem_args, position=st.floats(0.0, 1.0))
@_DIFF_SETTINGS
def test_matches_reference_loop_on_floor_boundaries(
    n, seed, spread, zero_frac, ties, floor, position
):
    # the budget at which the k-th largest ratio's share lands exactly on the
    # floor; the two solvers may then disagree on that object by rounding
    w = _diff_weights(n, seed, spread, zero_frac, ties)
    desc = np.sort(_canonical_ratios(w))[::-1]
    # a boundary on a ratio below 1e-250 would need a budget beyond 1e250 K
    usable = int(np.count_nonzero(desc >= 1e-250))
    k = 1 + int(position * (usable - 1))
    budget = floor * (n - k) + floor * desc[:k].sum() / desc[k - 1]
    problem = AllocationProblem(w, budget, floor)
    new = allocate_weighted(problem)
    ref = _reference_allocate_weighted(problem)
    np.testing.assert_allclose(new.capacities, ref.capacities, rtol=1e-12, atol=0)
    assert objective_value(problem.weights, new.capacities) == pytest.approx(
        objective_value(problem.weights, ref.capacities), rel=1e-12, abs=0)


def test_integer_like_inputs_still_solve():
    # integer weights and budgets, numpy scalars and an int64 count are reals
    # and an integer by schema's rules, and solve as their float values do
    want = allocate_weighted(AllocationProblem(np.array([4.0, 1.0]), 40.0, 15.0)).capacities
    for weights in ([4, 1], np.array([4, 1], dtype=np.uint8), [np.float32(4), np.int64(1)]):
        problem = AllocationProblem(weights, np.float64(40), 15)
        assert problem.weights.dtype == np.float64
        assert np.array_equal(allocate_weighted(problem).capacities, want)
    assert np.array_equal(allocate_uniform(np.int64(3), 60, 15.0).capacities, [20.0] * 3)


@st.composite
def _ratio_weights(draw):
    """Weights spread over up to 608 decades (1e-300 to 1e308), with zeros and
    ties: beside the 1e-9 weight floor, ratios below 1e-300 reach the cap on
    the decimal exponent."""
    n = draw(st.integers(1, 400))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    lo, hi = sorted(x + 0.0 for x in draw(st.lists(st.floats(-300.0, 308.0),
                                                   min_size=2, max_size=2)))
    w = 10.0 ** rng.uniform(lo, hi, size=n)
    if draw(st.booleans()):
        w = rng.choice(w[:draw(st.integers(1, 3))], size=n)
    w[rng.random(n) < draw(st.sampled_from([0.0, 0.3, 1.0]))] = 0.0
    return w


@given(_ratio_weights())
@example(np.array([1e308, 1e-300, 0.0, 1.0]))      # ratios 1e-317 and 1e-308: the cap
@example(np.array([2.5, 2.5, 1.0]))
@example(np.array([1024.0, 105.0]))  # 105 / 1024 * 1e9 = 102539062.5, rounded to even
@example(np.zeros(3))
@example(np.array([1.0, 1.0 + 2 ** -52, 0.123456789012345]))
@settings(max_examples=300, deadline=None)
def test_canonical_ratios_match_the_reference(weights):
    # the reference-loop tests share _canonical_ratios with the solver, so
    # this is the test that sees an edit to it
    got = _canonical_ratios(weights)
    assert got.dtype == np.float64
    assert got.tobytes() == canonical_ratios(weights).tobytes()


# the former fault tests of this module, which run rows of the catalogue
globals().update(former_tests("test_allocate"))
