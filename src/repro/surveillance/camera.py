"""Intersection camera with multi-target tracking.

The surveillance at each intersection "can precisely identify each vehicle
passing through or parking around the intersection (or roundabout)"
[paper §IV-B, multi-target extension].  The camera's job in this
reproduction is bookkeeping, not vision: it receives the crossing events the
traffic engine produces, applies the recognizer, and hands *observations* to
the checkpoint.  Its short range of vision — the reason double counting is a
problem at all — is implicit: it only ever sees vehicles at the moment they
enter the intersection, never along the road segment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from .attributes import ExteriorSignature
from .recognition import Recognizer

__all__ = ["Observation", "IntersectionCamera"]


@dataclass(frozen=True)
class Observation:
    """One vehicle seen entering the intersection.

    Attributes
    ----------
    vehicle_id:
        Engine-level identifier.  It is available to the *simulation* for
        ground-truth accounting but the checkpoint never uses it for counting
        decisions (privacy constraint).
    from_node:
        The adjacent intersection the vehicle arrived from, i.e. the inbound
        direction ``u <- from_node``.  ``None`` for vehicles entering the
        open system from outside (interaction inbound).
    to_node:
        The adjacent intersection the vehicle departs toward.  ``None`` for
        vehicles leaving the open system (interaction outbound).
    time_s:
        Simulation time of the crossing.
    is_target:
        Recognizer verdict: does the vehicle belong to the class being
        counted?
    signature:
        The observed exterior signature (for reporting only).
    """

    vehicle_id: int
    from_node: Optional[object]
    to_node: Optional[object]
    time_s: float
    is_target: bool
    signature: ExteriorSignature


class IntersectionCamera:
    """Camera attached to one checkpoint.

    The camera supports simultaneous crossings (multi-target tracking): the
    engine may report any number of vehicles per time step and each becomes
    its own :class:`Observation`.
    """

    def __init__(self, node: object, recognizer: Recognizer) -> None:
        self.node = node
        self.recognizer = recognizer
        self.observed = 0
        self.simultaneous_peak = 0
        self._pending_this_step: int = 0
        self._last_step_time: Optional[float] = None

    def observe_crossing(
        self,
        vehicle_id: int,
        signature: ExteriorSignature,
        from_node: Optional[object],
        to_node: Optional[object],
        time_s: float,
    ) -> Observation:
        """Create the observation for one crossing event."""
        self.note_crossing(time_s)
        return Observation(
            vehicle_id=vehicle_id,
            from_node=from_node,
            to_node=to_node,
            time_s=time_s,
            is_target=self.recognizer.observe(signature),
            signature=signature,
        )

    def note_crossing(self, time_s: float) -> None:
        """Bookkeeping for one crossing at ``time_s``.

        Updates the observation counter and the simultaneous-crossing peak,
        as :meth:`observe_crossing` does, without materializing an
        :class:`Observation` or invoking the recognizer — with a recognizer
        that counts everything, the batched protocol pipeline tallies its
        statistics itself.
        """
        if self._last_step_time == time_s:
            self._pending_this_step += 1
        else:
            self._last_step_time = time_s
            self._pending_this_step = 1
        self.simultaneous_peak = max(self.simultaneous_peak, self._pending_this_step)
        self.observed += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"IntersectionCamera(node={self.node!r}, observed={self.observed})"
