"""Scenario configuration.

A :class:`ScenarioConfig` bundles everything needed to run one counting
experiment on a given road network: traffic demand, engine behaviour,
wireless model, protocol options, patrol deployment, seed selection and the
simulation horizon.  The experiment runner sweeps these configurations to
regenerate the paper's figures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Mapping, Optional, Sequence

from ..core.patrol import PatrolPlan
from ..core.protocol import ProtocolConfig
from ..errors import ConfigurationError
from ..mobility.demand import DemandConfig
from ..mobility.intersections import IntersectionPolicy
from ..serde import kwargs_from, shallow_asdict
from ..units import minutes_to_seconds

__all__ = ["WirelessConfig", "MobilityConfig", "ScenarioConfig"]


@dataclass(frozen=True)
class WirelessConfig:
    """Wireless substrate settings (paper default: 30 % per-attempt loss)."""

    loss_probability: float = 0.3
    attempts_per_contact: int = 4
    reliable_within_window: bool = True

    def __post_init__(self) -> None:
        if not 0.0 <= self.loss_probability < 1.0:
            raise ConfigurationError("loss_probability must be in [0, 1)")
        if self.attempts_per_contact < 1:
            raise ConfigurationError("attempts_per_contact must be at least 1")

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form (see ``repro.serde`` for the conventions)."""
        return shallow_asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "WirelessConfig":
        """Inverse of :meth:`to_dict`; missing keys use the defaults."""
        return cls(**kwargs_from(cls, data))


@dataclass(frozen=True)
class MobilityConfig:
    """Traffic engine settings.

    ``vectorized`` selects the engine's batch NumPy hot path (default); the
    scalar per-vehicle reference engine (``vectorized=False``) produces a
    bit-for-bit identical event stream and is kept as the equivalence
    baseline exercised by the dual-engine test matrix.  ``compiled``
    (default) runs the compiled inner step kernel, a C library built with
    the system compiler on first use (see :mod:`repro.mobility.kernels`).
    When it cannot load, the engine runs the NumPy path, which is
    bit-for-bit identical and slower, and warns once per process with the
    reason; ``TrafficEngine.kernel_backend`` reports what ran.
    """

    dt_s: float = 0.5
    allow_overtaking: bool = True
    admissions_per_step: int = 4
    crossing_delay_s: float = 0.5
    vectorized: bool = True
    compiled: bool = True

    def __post_init__(self) -> None:
        if not (self.dt_s > 0 and math.isfinite(self.dt_s)):
            raise ConfigurationError(f"dt_s must be positive and finite, got {self.dt_s!r}")
        # The admission fields make the engine's default intersection policy
        # (see Simulation), which checks them.
        IntersectionPolicy(self.admissions_per_step, self.crossing_delay_s)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form (see ``repro.serde`` for the conventions)."""
        return shallow_asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "MobilityConfig":
        """Inverse of :meth:`to_dict`; missing keys use the defaults."""
        return cls(**kwargs_from(cls, data))


@dataclass(frozen=True)
class ScenarioConfig:
    """Full description of one counting experiment.

    Attributes
    ----------
    name:
        Label used in result tables.
    rng_seed:
        Root seed; together with the network it fully determines the run.
    num_seeds / seed_strategy:
        Seed checkpoint selection (paper: 1–10 random seeds).
    demand, mobility, wireless, protocol, patrol:
        Component configurations.
    open_system:
        Whether border gates are active (Alg. 5).  The network must declare
        gates for this to have an effect.
    batched:
        Whether the counting protocol consumes each step's event list through
        the batched pipeline (:meth:`CountingProtocol.process_batch`,
        default) or the scalar per-event reference path
        (:meth:`CountingProtocol.handle_events`).  Both paths are bit-for-bit
        identical — counts, adjustments, stabilization times and exchange
        statistics — which the protocol golden-trace tests pin; the scalar
        path is retained as the equivalence baseline.
    max_duration_s:
        Hard simulation horizon.
    settle_extra_s:
        Extra time simulated after full convergence, so that verification can
        check the counters indeed stay put (and, in the open system, that the
        interaction counters keep tracking the border flow).
    """

    name: str = "scenario"
    rng_seed: int = 0
    num_seeds: int = 1
    seed_strategy: str = "random"
    demand: DemandConfig = field(default_factory=DemandConfig)
    mobility: MobilityConfig = field(default_factory=MobilityConfig)
    wireless: WirelessConfig = field(default_factory=WirelessConfig)
    protocol: ProtocolConfig = field(default_factory=ProtocolConfig)
    patrol: PatrolPlan = field(default_factory=PatrolPlan)
    open_system: bool = False
    batched: bool = True
    max_duration_s: float = minutes_to_seconds(120.0)
    settle_extra_s: float = 0.0

    def __post_init__(self) -> None:
        if self.num_seeds < 1:
            raise ConfigurationError("num_seeds must be at least 1")
        if self.max_duration_s <= 0:
            raise ConfigurationError("max_duration_s must be positive")
        if self.settle_extra_s < 0:
            raise ConfigurationError("settle_extra_s cannot be negative")

    # Serialization --------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form: scalar fields plus one sub-dict per component.

        Together with :meth:`from_dict` this is the full config round-trip
        the experiment API (``repro.experiments``) is built on: every nested
        config — demand (including its profile), mobility, wireless, protocol
        and patrol — serializes through its own ``to_dict``.
        """
        return {
            "name": self.name,
            "rng_seed": self.rng_seed,
            "num_seeds": self.num_seeds,
            "seed_strategy": self.seed_strategy,
            "demand": self.demand.to_dict(),
            "mobility": self.mobility.to_dict(),
            "wireless": self.wireless.to_dict(),
            "protocol": self.protocol.to_dict(),
            "patrol": self.patrol.to_dict(),
            "open_system": self.open_system,
            "batched": self.batched,
            "max_duration_s": self.max_duration_s,
            "settle_extra_s": self.settle_extra_s,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioConfig":
        """Inverse of :meth:`to_dict`; missing keys use the defaults."""
        kwargs = kwargs_from(cls, data)
        nested = {
            "demand": DemandConfig,
            "mobility": MobilityConfig,
            "wireless": WirelessConfig,
            "protocol": ProtocolConfig,
            "patrol": PatrolPlan,
        }
        for key, sub_cls in nested.items():
            if key in data:
                kwargs[key] = sub_cls.from_dict(data[key])
        return cls(**kwargs)

    # Convenience helpers used by the sweep runner -------------------------
    def with_volume(self, volume_fraction: float) -> "ScenarioConfig":
        """A copy of this scenario at a different traffic volume."""
        return replace(self, demand=replace(self.demand, volume_fraction=volume_fraction))

    def with_seeds(self, num_seeds: int) -> "ScenarioConfig":
        """A copy of this scenario with a different number of seed checkpoints."""
        return replace(self, num_seeds=num_seeds)

    def with_rng_seed(self, rng_seed: int) -> "ScenarioConfig":
        """A copy of this scenario with a different root RNG seed."""
        return replace(self, rng_seed=rng_seed)
