"""Vehicle model.

A vehicle is a VANET node: it has built-in equipment with "sufficient power
and capabilities" for directional communication, coarse-grained collaboration
(overtake detection) and a small store of carried protocol state
(checkpoint statuses, labels, counting results) [paper §III-B].

The dataclass separates three concerns:

* *identity & appearance* — ``vid`` (engine-internal, never used by the
  protocol for counting decisions) and the exterior ``signature`` the camera
  sees;
* *kinematic state* — owned and mutated exclusively by the traffic engine;
* *carried protocol state* — the tiny store the counting protocol reads and
  writes through V2I exchanges (one ``counted`` bit, pending labels, pending
  reports, and a patrol status digest for police cars).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..surveillance.attributes import ExteriorSignature
from ..wireless.messages import CounterReport, LabelToken, StatusDigest
from ..roadnet.routing import RoutePlan, Router

__all__ = ["Vehicle", "VEHICLE_LENGTH_M", "MIN_GAP_M"]

#: Nominal vehicle length used by the car-following model (metres).
VEHICLE_LENGTH_M: float = 4.5

#: Minimum bumper-to-bumper gap maintained by the car-following model.
MIN_GAP_M: float = 2.0


@dataclass(slots=True, eq=False)
class Vehicle:
    """One vehicle in the simulation.

    Identity semantics (``eq=False``): two vehicles are the same object or
    different vehicles, never value-equal — which also keeps the engine's
    lane-list removals at C pointer-comparison speed and makes vehicles
    hashable for use in sets.

    Attributes
    ----------
    vid:
        Unique engine identifier (used only for ground truth and tracing).
    signature:
        Exterior characteristics visible to the roadside cameras.
    desired_speed_mps:
        The driver's preferred cruising speed; the engine additionally caps
        speed at each segment's limit.
    router, plan:
        Routing policy and its per-vehicle state.  In a vectorized engine
        whose decision pass runs the router, ``plan`` is, from the
        vehicle's first crossing on, a lazily synced mirror of the
        engine's resident plan, like ``pos_m``.
    is_patrol:
        Police patrol cars are never counted and carry a
        :class:`~repro.wireless.messages.StatusDigest`.
    edge:
        Directed segment ``(tail, head)`` the vehicle currently occupies, or
        ``None`` once it has left the system.
    lane, pos_m, speed_mps:
        Kinematic state along the current segment.
    previous_node:
        The intersection the vehicle most recently crossed, its segment's
        tail (used to avoid immediate U-turns and to attribute inbound
        directions).
    waiting_since_s:
        When the vehicle reached its segment's stop line, or ``None``.

    While a vehicle is inside a vectorized engine, ``edge``, ``lane``,
    ``previous_node``, ``waiting_since_s``, ``pos_m`` and ``speed_mps``
    are a lazily synced mirror of the engine's resident columns: the
    engine refreshes them before any public read (see
    ``TrafficEngine.vehicles``) and materializes a departing vehicle's
    final values.
    counted:
        The one-bit "I have been counted" status the paper lets vehicles
        carry and exchange during V2V collaboration.
    labels:
        Frontier/backwash labels the vehicle is carrying toward the
        checkpoint at the head of its current segment.
    reports:
        Collection reports (Alg. 2 / Alg. 4) being carried toward a
        predecessor checkpoint.
    digest:
        Patrol cars only: the statuses and ferried reports they carry.
    entered_at_s / exited_at_s:
        Lifetime bookkeeping for open systems.
    """

    vid: int
    signature: ExteriorSignature
    desired_speed_mps: float
    router: Optional[Router] = None
    plan: RoutePlan = field(default_factory=RoutePlan)
    is_patrol: bool = False

    # --- kinematic state (engine-owned) ---
    edge: Optional[Tuple[object, object]] = None
    lane: int = 0
    pos_m: float = 0.0
    speed_mps: float = 0.0
    previous_node: Optional[object] = None
    waiting_since_s: Optional[float] = None
    #: Index into the engine's resident structure-of-arrays state (vectorized
    #: engine only; ``-1`` outside it), whose columns the mobility fields
    #: above mirror.
    slot: int = -1

    # --- carried protocol state ---
    counted: bool = False
    labels: List[LabelToken] = field(default_factory=list)
    reports: List[CounterReport] = field(default_factory=list)
    digest: Optional[StatusDigest] = None

    # --- lifetime ---
    entered_at_s: float = 0.0
    exited_at_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.is_patrol and self.digest is None:
            self.digest = StatusDigest()

    # ------------------------------------------------------------------ api
    @property
    def on_edge(self) -> bool:
        """Whether the vehicle currently occupies a road segment."""
        return self.edge is not None

    @property
    def inside(self) -> bool:
        """Whether the vehicle is currently inside the road system."""
        return self.exited_at_s is None

    def labels_for(self, node: object) -> List[LabelToken]:
        """Labels carried by this vehicle that are destined for ``node``."""
        return [lab for lab in self.labels if lab.target == node]

    def drop_labels_for(self, node: object) -> List[LabelToken]:
        """Remove and return the labels destined for ``node``."""
        mine = [lab for lab in self.labels if lab.target == node]
        self.labels = [lab for lab in self.labels if lab.target != node]
        return mine

    def reports_for(self, node: object) -> List[CounterReport]:
        """Collection reports carried by this vehicle destined for ``node``."""
        return [rep for rep in self.reports if rep.destination == node]

    def drop_reports_for(self, node: object) -> List[CounterReport]:
        """Remove and return the reports destined for ``node``."""
        mine = [rep for rep in self.reports if rep.destination == node]
        self.reports = [rep for rep in self.reports if rep.destination != node]
        return mine

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        kind = "patrol" if self.is_patrol else "vehicle"
        return (
            f"<{kind} {self.vid} edge={self.edge} pos={self.pos_m:.1f} "
            f"counted={self.counted} labels={len(self.labels)}>"
        )
