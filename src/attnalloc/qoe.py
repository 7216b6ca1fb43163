"""Weber-Fechner QoE of a rendering-capacity allocation.

QoE is a sum over scene objects of a connection coefficient (attention times
downlink rate times one minus the uplink bit-error probability) multiplied by
the natural log of the object's rendered resolution in K units (1 K =
960x480). Capacities must exceed 1 K so every log term is positive.

The channel-to-link mapping is a deliberately simple convention (SISO-style
SINR with a min-antenna gain factor and a Gaussian-tail BER); the allocation
itself is provably invariant to the resulting per-user scale factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Annotated

import numpy as np

from .schema import check_fields, real_vector


@dataclass(frozen=True)
class LinkParams:
    downlink_rate: Annotated[float, "(0, inf)"]  # bits/second
    uplink_ber: Annotated[float, "[0, 1)"]  # probability

    def __post_init__(self):
        check_fields(self)

    @property
    def factor(self) -> float:
        return self.downlink_rate * (1.0 - self.uplink_ber)


def dbw_to_watts(dbw: float) -> float:
    return 10.0 ** (dbw / 10.0)


@dataclass(frozen=True)
class ChannelConfig:
    """Simple downlink channel; defaults mirror a 6x7-antenna MIMO setup
    with 1 dBW total co-channel interference, 10 m range, and path loss
    exponent 2."""

    bandwidth: Annotated[float, "(0, inf)"] = 10e6  # Hz
    tx_power: Annotated[float, "(0, inf)"] = 1.0  # W
    distance: Annotated[float, "(0, inf)"] = 10.0  # m
    path_loss_exponent: Annotated[float, "[1, inf)"] = 2.0
    interference_power: Annotated[float, "(0, inf)"] = dbw_to_watts(1.0)  # W, total over paths
    noise_psd: Annotated[float, "(0, inf)"] = 3.98e-21  # W/Hz, thermal at ~ -174 dBm/Hz
    tx_antennas: Annotated[int, "[1, inf)"] = 6
    rx_antennas: Annotated[int, "[1, inf)"] = 7
    uplink_sinr: Annotated[float | None, "[0, inf)"] = None  # defaults to the downlink SINR

    def __post_init__(self):
        check_fields(self)

    def sinr(self) -> float:
        received = (
            self.tx_power * self.distance ** (-self.path_loss_exponent)
            * min(self.tx_antennas, self.rx_antennas)
        )
        return received / (self.interference_power + self.noise_psd * self.bandwidth)


def q_function(x: float) -> float:
    """Standard Gaussian tail probability."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))


class ChannelError(ValueError):
    """A channel or link that gives no usable QoE."""


def link_from_channel(cfg: ChannelConfig) -> LinkParams:
    """The channel's link. ``ChannelError`` names a SINR that overflows and a
    downlink rate that is not positive and finite (the SINR underflows to 0,
    or the rate overflows)."""
    try:
        sinr = cfg.sinr()
    except OverflowError as exc:
        raise ChannelError("the SINR's received power, tx_power * distance ** "
                           f"-path_loss_exponent * min(tx_antennas, rx_antennas), "
                           f"overflows: {exc}") from None
    rate = cfg.bandwidth * math.log2(1.0 + sinr)
    if not 0.0 < rate < math.inf:
        raise ChannelError(f"the downlink rate, bandwidth * log2(1 + SINR), is {rate!r} "
                           f"for SINR {sinr!r}; it must be positive and finite")
    uplink_sinr = cfg.uplink_sinr if cfg.uplink_sinr is not None else sinr
    ber = q_function(math.sqrt(2.0 * uplink_sinr))
    return LinkParams(downlink_rate=rate, uplink_ber=ber)


@dataclass(frozen=True)
class QoETerms:
    """Weights and capacities are real numbers by ``schema.real_vector`` (a
    str or bool entry raises). A NaN weight fails the positivity check, since
    a NaN minimum compares false."""

    weights: np.ndarray     # per-object attention values, positive
    capacities: np.ndarray  # per-object rendering capacity, K units, each > 1
    link: LinkParams

    def __post_init__(self):
        weights = real_vector(self.weights, "attention weight")
        capacities = real_vector(self.capacities, "capacity")
        if weights.shape != capacities.shape or not weights.size:
            raise ValueError("weights and capacities must be equal-length 1-D vectors")
        if not weights.min() > 0:
            raise ValueError("attention weights must be positive")
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "capacities", capacities)


def qoe(terms: QoETerms) -> float:
    """Sum over objects of connection coefficient times ln(capacity in K). A
    NaN capacity fails the 1 K check as a NaN weight fails QoETerms'; an
    infinite weight or capacity, or a sum beyond float64, raises a ValueError
    instead of an infinite score."""
    if not terms.capacities.min() > 1.0:
        raise ValueError("every capacity must exceed 1 K for a positive log term")
    score = float(terms.link.factor * (terms.weights * np.log(terms.capacities)).sum())
    if not math.isfinite(score):
        raise ValueError(f"the QoE is {score!r}: an infinite weight or capacity, or a sum that "
                         "overflows float64")
    return score
