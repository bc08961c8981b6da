"""ACK-confirmed exchange protocol over the lossy channel.

Every piece of protocol information in the paper moves through a short
*contact window*: a vehicle crossing an intersection is within directional
radio range of the checkpoint for a couple of seconds, during which the
scalable V2V transmission control protocol of [6] retries frames until an
acknowledgment is received.  :class:`ExchangeService` reproduces that
behaviour:

* each logical exchange (checkpoint -> vehicle labeling, vehicle ->
  checkpoint delivery, patrol sync, ...) is given ``attempts_per_contact``
  tries, each an independent Bernoulli trial on the configured channel;
* with ``reliable_within_window=True`` (the default, matching the paper's
  assumption that the TCP-style ACK eventually confirms receipt while the
  vehicle is in range) an exchange that would lose every attempt is forced to
  succeed on the last one — but the number of wasted attempts is still
  recorded, so retry statistics remain meaningful;
* with ``reliable_within_window=False`` hard misses occur with probability
  ``loss_prob ** attempts_per_contact``; the counting protocol then relies on
  its compensation rules (Alg. 3 line 3) and the ablation benchmarks quantify
  the residual error.

The service also keeps aggregate statistics used by the metrics module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

import numpy as np

from ..errors import WirelessError
from .channel import BernoulliLossChannel, ChannelModel, PerfectChannel

__all__ = ["ExchangeOutcome", "ExchangeStats", "ExchangeService"]


@dataclass(frozen=True)
class ExchangeOutcome:
    """Result of one logical exchange."""

    success: bool
    attempts: int
    forced: bool = False  # True when reliability-within-window forced success

    def __bool__(self) -> bool:
        return self.success


@dataclass
class ExchangeStats:
    """Aggregate counters over every exchange performed by a service."""

    exchanges: int = 0
    successes: int = 0
    hard_failures: int = 0
    forced_successes: int = 0
    total_attempts: int = 0

    @property
    def failure_rate(self) -> float:
        """Fraction of logical exchanges that failed outright."""
        return self.hard_failures / self.exchanges if self.exchanges else 0.0

    @property
    def mean_attempts(self) -> float:
        """Average number of attempts per logical exchange."""
        return self.total_attempts / self.exchanges if self.exchanges else 0.0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "exchanges": self.exchanges,
            "successes": self.successes,
            "hard_failures": self.hard_failures,
            "forced_successes": self.forced_successes,
            "total_attempts": self.total_attempts,
            "failure_rate": self.failure_rate,
            "mean_attempts": self.mean_attempts,
        }


class ExchangeService:
    """Performs ACK-confirmed exchanges on behalf of checkpoints and vehicles.

    Parameters
    ----------
    channel:
        Per-attempt loss model.  Defaults to the paper's 30% Bernoulli loss.
    rng:
        Random generator used for loss draws.
    attempts_per_contact:
        Number of retries available within one contact window.
    reliable_within_window:
        Whether the ACK protocol is assumed to always succeed within the
        window (the paper's working assumption).
    """

    def __init__(
        self,
        channel: Optional[ChannelModel] = None,
        rng: Optional[np.random.Generator] = None,
        *,
        attempts_per_contact: int = 4,
        reliable_within_window: bool = True,
    ) -> None:
        if attempts_per_contact < 1:
            raise WirelessError("attempts_per_contact must be at least 1")
        self.channel = channel if channel is not None else BernoulliLossChannel(0.3)
        # Deterministic fallback: a service constructed without an explicit
        # stream must still behave reproducibly run to run.
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.attempts_per_contact = int(attempts_per_contact)
        self.reliable_within_window = bool(reliable_within_window)
        self.stats = ExchangeStats()

    @classmethod
    def perfect(cls, rng: Optional[np.random.Generator] = None) -> "ExchangeService":
        """A lossless service (the simple road model of Alg. 1)."""
        return cls(PerfectChannel(), rng, attempts_per_contact=1)

    # ------------------------------------------------------------- exchanges
    def exchange(self, distance_m: float = 0.0) -> ExchangeOutcome:
        """Perform one logical exchange and record its statistics."""
        self.stats.exchanges += 1
        attempts = 0
        for _ in range(self.attempts_per_contact):
            attempts += 1
            if self.channel.attempt_succeeds(self.rng, distance_m):
                self.stats.successes += 1
                self.stats.total_attempts += attempts
                return ExchangeOutcome(success=True, attempts=attempts)
        self.stats.total_attempts += attempts
        if self.reliable_within_window:
            # The ACK protocol of [6] eventually confirms receipt while the
            # vehicle is still in range; account for it as a forced success.
            self.stats.successes += 1
            self.stats.forced_successes += 1
            return ExchangeOutcome(success=True, attempts=attempts, forced=True)
        self.stats.hard_failures += 1
        return ExchangeOutcome(success=False, attempts=attempts)

    def single_attempt(self, distance_m: float = 0.0) -> bool:
        """One raw, un-acknowledged attempt (used by Alg. 3's labeling retry
        accounting, where each *failed* attempt costs a −1 correction)."""
        self.stats.exchanges += 1
        self.stats.total_attempts += 1
        ok = self.channel.attempt_succeeds(self.rng, distance_m)
        if ok:
            self.stats.successes += 1
        else:
            self.stats.hard_failures += 1
        return ok

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"ExchangeService(channel={self.channel!r}, "
            f"attempts_per_contact={self.attempts_per_contact}, "
            f"reliable_within_window={self.reliable_within_window})"
        )

