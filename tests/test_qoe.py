"""Weber-Fechner QoE terms and the channel-to-link convention."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from attnalloc import (
    ChannelConfig,
    LinkParams,
    QoETerms,
    link_from_channel,
)
from attnalloc.qoe import dbw_to_watts, q_function, qoe
from test_faults import former_tests

IDENTITY_LINK = LinkParams(downlink_rate=1.0, uplink_ber=0.0)


def test_link_validation():
    # a rate of 0 and a bit error rate of 1 are rows of the catalogue
    assert LinkParams(4.0, 0.25).factor == 3.0


def test_qoe_single_term():
    terms = QoETerms(np.array([1.0]), np.array([math.e]), IDENTITY_LINK)
    assert qoe(terms) == pytest.approx(1.0)


def test_qoe_two_terms():
    c = math.e ** 2
    terms = QoETerms(np.array([2.0, 3.0]), np.array([c, c]), IDENTITY_LINK)
    assert qoe(terms) == pytest.approx(10.0)


def test_qoe_linear_in_link_factor():
    w = np.array([0.2, 0.7])
    c = np.array([15.0, 25.0])
    base = qoe(QoETerms(w, c, LinkParams(8.0, 0.0)))
    halved = qoe(QoETerms(w, c, LinkParams(8.0, 0.5)))
    assert halved == pytest.approx(base / 2)


@given(
    pairs=st.lists(
        st.tuples(st.floats(0.01, 1.0), st.floats(1.5, 100.0)),
        min_size=2, max_size=20,
    ),
    seed=st.integers(0, 10_000),
)
@settings(max_examples=80, deadline=None)
def test_qoe_permutation_invariant(pairs, seed):
    w = np.array([p[0] for p in pairs])
    c = np.array([p[1] for p in pairs])
    perm = np.random.default_rng(seed).permutation(len(pairs))
    link = LinkParams(3.0, 0.1)
    assert qoe(QoETerms(w[perm], c[perm], link)) == pytest.approx(
        qoe(QoETerms(w, c, link))
    )


def test_qoe_monotone_in_capacity():
    w = np.array([0.5, 0.5])
    lo = qoe(QoETerms(w, np.array([10.0, 10.0]), IDENTITY_LINK))
    hi = qoe(QoETerms(w, np.array([10.0, 11.0]), IDENTITY_LINK))
    assert hi > lo


def test_dbw_conversion():
    assert dbw_to_watts(0.0) == 1.0
    assert dbw_to_watts(10.0) == pytest.approx(10.0)
    assert dbw_to_watts(1.0) == pytest.approx(1.2589, abs=1e-4)


def test_q_function():
    assert q_function(0.0) == pytest.approx(0.5)
    assert q_function(10.0) < 1e-20
    assert q_function(-10.0) == pytest.approx(1.0)


def test_sinr_components():
    cfg = ChannelConfig(
        bandwidth=1.0, tx_power=1.0, distance=10.0, path_loss_exponent=2.0,
        interference_power=1.0, noise_psd=1e-12, tx_antennas=1, rx_antennas=1,
    )
    # received power factor 10^-2 before antenna gain
    assert cfg.sinr() == pytest.approx(0.01, rel=1e-6)


def test_rate_from_sinr():
    cfg = ChannelConfig(
        bandwidth=1.0, tx_power=3.0, distance=1.0, path_loss_exponent=1.0,
        interference_power=1.0, noise_psd=1e-15, tx_antennas=1, rx_antennas=1,
    )
    # SINR = 3 -> rate = log2(4) = 2
    link = link_from_channel(cfg)
    assert link.downlink_rate == pytest.approx(2.0, rel=1e-6)


def test_default_channel_produces_valid_link():
    link = link_from_channel(ChannelConfig())
    assert link.downlink_rate > 0
    assert 0.0 < link.uplink_ber < 1.0


def test_uplink_sinr_override():
    low = link_from_channel(ChannelConfig(uplink_sinr=0.01))
    high = link_from_channel(ChannelConfig(uplink_sinr=100.0))
    assert low.uplink_ber > high.uplink_ber


NAN, INF = float("nan"), float("inf")


def test_qoe_names_a_sum_that_overflows():
    # each term is finite, their sum is not; numpy's own overflow warning is
    # silenced so that the ValueError is what the test sees
    terms = QoETerms(np.array([1e308, 1e308]), np.array([math.e, math.e]), IDENTITY_LINK)
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="overflows float64"):
        qoe(terms)


# the former fault tests of this module, which run rows of the catalogue
globals().update(former_tests("test_qoe"))
