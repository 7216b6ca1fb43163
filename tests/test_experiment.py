"""End-to-end harness: reports, aggregates, sweeps, and report files."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from attnalloc import (
    ChannelConfig,
    ExperimentConfig,
    ExperimentRunner,
    LinkParams,
    SweepReport,
    UserReport,
    link_from_channel,
)
from attnalloc.experiment import (
    Aggregate,
    aggregate,
    report_summary_json,
    reports_to_csv,
    sweep_to_csv,
)
from attnalloc.world import raw_attention_values
from conftest import SMALL_WORLD
from oracles import csv_writer_text, loop_scene_objects
from test_faults import former_tests


def test_link_override():
    link = LinkParams(2.0, 0.25)
    config = dataclasses.replace(ExperimentConfig(), link=link)
    assert config.link_params() == link
    assert ExperimentConfig().link_params().downlink_rate > 0


@pytest.mark.parametrize("floor", [2, np.int64(2)], ids=["int", "np.int64"])
def test_integer_floor_k_reports_the_float_floors_bits(default_runner, floor):
    # an integer floor_k truncated the aware and oracle capacities: user 0
    # read 7.41% against 8.12% at floor_k 2.0 (master seed 7)
    assert default_runner.config.floor_k == 2.0
    runner = ExperimentRunner(dataclasses.replace(default_runner.config, floor_k=floor))
    for user in (0, 3):
        assert runner.user_report(user) == default_runner.user_report(user)


def test_user_report_structure(default_runner):
    report = default_runner.user_report(0)
    assert report.n_objects >= 1
    assert report.qoe_oracle >= report.qoe_aware >= 0
    assert report.qoe_oracle >= report.qoe_uniform
    recomputed = (report.qoe_aware - report.qoe_uniform) / report.qoe_uniform * 100.0
    assert report.improvement_pct == pytest.approx(recomputed, abs=1e-9)


def test_oracle_upper_bounds_all_users(default_runner):
    for report in default_runner.all_reports():
        assert report.qoe_oracle >= report.qoe_aware - 1e-9
        assert report.qoe_oracle >= report.qoe_uniform - 1e-9


def test_reports_deterministic(default_runner):
    config = default_runner.config
    again = ExperimentRunner(config).user_report(4)
    assert again == default_runner.user_report(4)


def test_scene_objects_stable_and_grouped(default_runner):
    scene = default_runner.scene_objects(1)
    assert scene == sorted(set(scene))
    assert 1 <= len(scene) <= default_runner.world.num_objects
    assert scene == default_runner.scene_objects(1)


def test_scene_objects_check_the_user_first(default_runner):
    # a runner whose scenes are drawn checks the user before it reads a row
    # too, where True and 1.0 would read user 1's scene
    drawn = ExperimentRunner(default_runner.config)
    drawn.all_reports()
    for runner in (ExperimentRunner(default_runner.config), drawn):
        for user, message in ((-1, "user -1 outside"), (30, "user 30 outside"),
                              (True, "user id True is not an integer"),
                              (1.0, "user id 1.0 is not an integer")):
            with pytest.raises(ValueError, match=message):
                runner.scene_objects(user)
        assert runner.scene_objects(np.int64(1)) == default_runner.scene_objects(1)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(2, 5), st.integers(1, 100),
       st.integers(0, 99))
def test_scenes_match_per_user_draws(seed, users, groups, lo, span):
    # the first scene_objects call, from all_reports or alone, builds every
    # scene in one pass; each equals the user's draw on its own
    config = ExperimentConfig(
        world=dataclasses.replace(SMALL_WORLD, num_users=users, num_groups=groups),
        master_seed=seed, scene_retain_lo=lo, scene_retain_hi=min(lo + span, 100))
    runner = ExperimentRunner(config)
    reports = runner.all_reports()
    for user in range(users):
        expected = loop_scene_objects(config, runner.world, user)
        assert runner.scene_objects(user) == expected
        assert reports[user].n_objects == len(expected)
        assert ExperimentRunner(config).scene_objects(user) == expected


def test_default_scenes_match_per_user_draws(default_runner):
    world = default_runner.world
    default_runner.all_reports()
    for user in range(world.num_users):
        assert default_runner.scene_objects(user) \
            == loop_scene_objects(default_runner.config, world, user)


def test_link_is_built_once_and_overrides_the_channel():
    config = ExperimentConfig()
    assert config.link_params() is config.link_params()
    assert config.link_params() == link_from_channel(config.channel)
    # the channel is not used, so it is not checked
    link = LinkParams(2.0, 0.25)
    assert ExperimentConfig(link=link, channel=ChannelConfig(distance=1e-200)).link_params() \
        is link


def test_truth_raw_is_all_image_attention(default_runner):
    world = default_runner.world
    for user in (0, world.num_users - 1):
        objects, values = raw_attention_values(world, user, range(world.num_images))
        assert objects.tolist() == list(range(world.num_objects))
        assert np.array_equal(default_runner.truth_raw(user), values)


def test_aggregate_identity():
    reports = [
        UserReport(0, 2, 1.0, 1.1, 1.2, 10.0),
        UserReport(1, 2, 1.0, 1.2, 1.3, 20.0),
    ]
    agg = aggregate(reports)
    assert agg == Aggregate(20.0, 10.0, 15.0)


def test_sweep_matches_single_runs(default_runner):
    config = dataclasses.replace(
        default_runner.config, sweep_factors=(18.0, 24.0), sweep_user=5
    )
    report = ExperimentRunner(config).sweep()
    assert report.user_id == 5
    runner = ExperimentRunner(config)
    for factor, improvement in report.points:
        assert improvement == pytest.approx(
            runner.user_report(5, factor).improvement_pct, abs=1e-9
        )


def test_sweep_near_floor_budget(default_runner):
    config = dataclasses.replace(default_runner.config, floor_k=15.0, sweep_factors=(15.1,))
    point = ExperimentRunner(config).sweep(3).points[0]
    # 0.1 K above a 15 K floor leaves almost no slack: aware and uniform
    # nearly coincide
    assert abs(point[1]) < 1.0


def test_report_csv_format(tmp_path, default_runner):
    reports = [default_runner.user_report(u) for u in (1, 0)]
    path = tmp_path / "reports.csv"
    reports_to_csv(reports, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "user_id,n_objects,qoe_uniform,qoe_aware,qoe_oracle,improvement_pct"
    assert len(lines) == 3
    assert lines[1].startswith("0,") and lines[2].startswith("1,")


def test_sweep_csv_format(tmp_path):
    path = tmp_path / "sweep.csv"
    sweep_to_csv(SweepReport(2, ((16.0, 3.5), (18.0, 3.0))), path)
    lines = path.read_text().splitlines()
    assert lines[0] == "budget_factor_k,mean_improvement_pct"
    assert lines[1] == "16.0,3.5"


# positive QoE values from the smallest subnormal up, and improvements of
# either sign, -0.0 among them
_qoe_values = st.floats(5e-324, 1e308)
_improvements = st.floats(-1e308, 1e308)


@st.composite
def _reports(draw):
    users = draw(st.lists(st.integers(0, 10**6), unique=True, max_size=20))
    reports = []
    for user in users:
        aware, oracle = sorted(draw(st.lists(_qoe_values, min_size=2, max_size=2)))
        reports.append(UserReport(user, draw(st.integers(1, 10**6)), draw(_qoe_values),
                                  aware, oracle, draw(_improvements)))
    return reports


@given(_reports())
@settings(max_examples=200, deadline=None)
def test_reports_csv_matches_csv_writer(tmp_path_factory, reports):
    path = tmp_path_factory.mktemp("reports") / "reports.csv"
    reports_to_csv(reports, path)
    rows = [(r.user_id, r.n_objects, repr(r.qoe_uniform), repr(r.qoe_aware),
             repr(r.qoe_oracle), repr(r.improvement_pct))
            for r in sorted(reports, key=lambda r: r.user_id)]
    header = ("user_id", "n_objects", "qoe_uniform", "qoe_aware", "qoe_oracle",
              "improvement_pct")
    assert path.read_bytes() == csv_writer_text(header, rows).encode()


@given(st.lists(_qoe_values, unique=True, max_size=20).map(sorted), st.data())
@settings(max_examples=200, deadline=None)
def test_sweep_csv_matches_csv_writer(tmp_path_factory, factors, data):
    improvements = data.draw(st.lists(_improvements, min_size=len(factors),
                                      max_size=len(factors)))
    report = SweepReport(3, tuple(zip(factors, improvements)))
    path = tmp_path_factory.mktemp("sweeps") / "sweep.csv"
    sweep_to_csv(report, path)
    rows = [(repr(factor), repr(improvement)) for factor, improvement in report.points]
    expected = csv_writer_text(("budget_factor_k", "mean_improvement_pct"), rows)
    assert path.read_bytes() == expected.encode()


def test_summary_json(tmp_path, default_runner):
    reports = default_runner.all_reports()
    agg = aggregate(reports)
    path = tmp_path / "summary.json"
    report_summary_json(default_runner.config, reports, agg, path)
    doc = json.loads(path.read_text())
    assert doc["version"] == "attnalloc-report/1"
    assert doc["seed"] == 7
    assert len(doc["reports"]) == 30
    assert doc["aggregate"]["mean_improvement_pct"] == pytest.approx(
        agg.mean_improvement_pct
    )
    assert doc["config"]["world"]["num_objects"] == 96


def test_summary_json_rejects_non_finite_numbers(tmp_path, default_runner):
    # JSON has no number for NaN or an infinity; the file is not written
    path = tmp_path / "summary.json"
    agg = Aggregate(float("inf"), 1.0, float("nan"))
    with pytest.raises(ValueError, match="not JSON compliant"):
        report_summary_json(default_runner.config, [], agg, path)
    assert not path.exists()


def test_improvement_independent_of_link_scale(default_runner):
    # the link factor scales QoE but cancels in the improvement percentage
    config = dataclasses.replace(
        default_runner.config, link=LinkParams(123.0, 0.25)
    )
    runner = ExperimentRunner(config)
    base = default_runner.user_report(6)
    scaled = runner.user_report(6)
    assert scaled.improvement_pct == pytest.approx(base.improvement_pct, abs=1e-9)
    assert scaled.qoe_uniform != pytest.approx(base.qoe_uniform)


# the former fault tests of this module, which run rows of the catalogue
globals().update(former_tests("test_experiment"))
