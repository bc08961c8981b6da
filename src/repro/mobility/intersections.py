"""Intersection admission control.

The paper distinguishes two road models:

* the **simple model** — "each time, only one vehicle is allowed to enter the
  intersection and to make the turn" (Section III-A), and
* the **extended model** — "multiple vehicles are allowed to pass the
  intersection simultaneously and roundabouts are considered" (Section IV-B).

:class:`IntersectionPolicy` captures the knob: how many vehicles an
intersection admits per time step and how long a vehicle dwells while making
the turn.  Roundabouts are modelled as high-throughput intersections with a
slightly longer dwell (vehicles circulate) — what matters to the counting
protocol is only that several vehicles can be inside the surveillance at
once, which the multi-target camera handles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional

from ..errors import ConfigurationError

__all__ = ["IntersectionPolicy", "simple_policy", "extended_policy", "roundabout_policy"]


@dataclass(frozen=True)
class IntersectionPolicy:
    """How an intersection admits waiting vehicles.

    Attributes
    ----------
    admissions_per_step:
        Maximum number of vehicles allowed to cross in one engine time step.
        ``1`` reproduces the paper's simple model.
    crossing_delay_s:
        Minimum dwell between reaching the stop line and being eligible to
        cross (models the turn itself / a stop sign).
    name:
        Label used in reports.
    """

    admissions_per_step: int = 1
    crossing_delay_s: float = 1.0
    name: str = "simple"

    def __post_init__(self) -> None:
        # Only an int cap (not a bool) and a finite delay: cc's int64 table
        # truncates a fractional cap where the other engines fail on it,
        # and a NaN delay admits no vehicle at all.
        cap, delay = self.admissions_per_step, self.crossing_delay_s
        if isinstance(cap, bool) or not isinstance(cap, int) or cap < 1:
            raise ConfigurationError(f"admissions_per_step must be an int >= 1, got {cap!r}")
        if not (delay >= 0 and math.isfinite(delay)):
            raise ConfigurationError(f"crossing_delay_s must be finite and >= 0, got {delay!r}")


def simple_policy() -> IntersectionPolicy:
    """The paper's simple road model: one vehicle per step."""
    return IntersectionPolicy(admissions_per_step=1, crossing_delay_s=1.0, name="simple")


def extended_policy(admissions_per_step: int = 4) -> IntersectionPolicy:
    """The extended model: several simultaneous crossings per step."""
    return IntersectionPolicy(
        admissions_per_step=admissions_per_step, crossing_delay_s=0.5, name="extended"
    )


def roundabout_policy(admissions_per_step: int = 6) -> IntersectionPolicy:
    """A roundabout: high throughput, slightly longer circulation dwell."""
    return IntersectionPolicy(
        admissions_per_step=admissions_per_step, crossing_delay_s=1.5, name="roundabout"
    )
