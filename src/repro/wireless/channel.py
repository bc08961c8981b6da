"""Lossy short-range wireless channel model.

The paper assumes DSRC-class directional V2V/V2I radios [6, 7] and evaluates
with "a 30% chance of failure" per exchange.  This module models each
*attempt* as a Bernoulli trial; the exchange protocol in
:mod:`repro.wireless.exchange` layers a finite contact window with
ACK-confirmed retries on top, reproducing the paper's "TCP acknowledgment"
assumption that delivery is eventually confirmed while the two parties are
within range.

A distance-based attenuation hook is included for completeness (exchanges at
an intersection happen well inside communication range, so the default model
ignores distance), plus a deterministic :class:`PerfectChannel` used by the
simple road model of Alg. 1 and by unit tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import WirelessError

__all__ = [
    "ChannelModel",
    "PerfectChannel",
    "BernoulliLossChannel",
    "RangeLimitedChannel",
]


class ChannelModel:
    """Interface: decides whether a single transmission attempt succeeds.

    :meth:`attempt_succeeds` draws at most one uniform, from the generator
    it is given, as the attempt is made: both pipelines of the counting
    protocol consume the wireless stream in the one per-event, per-attempt
    order.
    """

    def attempt_succeeds(self, rng: np.random.Generator, distance_m: float = 0.0) -> bool:
        """Whether one transmission attempt at ``distance_m`` gets through."""
        raise NotImplementedError

    @property
    def loss_probability(self) -> float:
        """Nominal per-attempt loss probability at zero distance."""
        raise NotImplementedError


class PerfectChannel(ChannelModel):
    """A channel that never loses a frame (the simple road model)."""

    def attempt_succeeds(self, rng: np.random.Generator, distance_m: float = 0.0) -> bool:
        return True

    @property
    def loss_probability(self) -> float:
        return 0.0

    def __repr__(self) -> str:
        return "PerfectChannel()"


@dataclass
class BernoulliLossChannel(ChannelModel):
    """Independent per-attempt loss with fixed probability.

    ``loss_prob=0.3`` reproduces the paper's evaluation setting.
    """

    loss_prob: float = 0.3

    def __post_init__(self) -> None:
        if not 0.0 <= self.loss_prob < 1.0:
            raise WirelessError(f"loss probability must be in [0, 1), got {self.loss_prob!r}")

    def attempt_succeeds(self, rng: np.random.Generator, distance_m: float = 0.0) -> bool:
        return bool(rng.random() >= self.loss_prob)

    @property
    def loss_probability(self) -> float:
        return self.loss_prob


@dataclass
class RangeLimitedChannel(ChannelModel):
    """Bernoulli loss that degrades with distance and cuts off at a range.

    The success probability is ``(1 - loss_prob) * max(0, 1 - (d / range)^2)``.
    Exchanges at the intersection itself (``d ≈ 0``) behave like the plain
    Bernoulli channel; exchanges attempted near the edge of the communication
    range are increasingly unreliable.  Used by robustness/ablation tests.
    """

    loss_prob: float = 0.3
    range_m: float = 150.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.loss_prob < 1.0:
            raise WirelessError(f"loss probability must be in [0, 1), got {self.loss_prob!r}")
        if self.range_m <= 0:
            raise WirelessError(f"communication range must be positive, got {self.range_m!r}")

    def attempt_succeeds(self, rng: np.random.Generator, distance_m: float = 0.0) -> bool:
        if distance_m >= self.range_m:
            return False
        frac = 1.0 - (distance_m / self.range_m) ** 2
        return bool(rng.random() < (1.0 - self.loss_prob) * frac)

    @property
    def loss_probability(self) -> float:
        return self.loss_prob
