"""Events emitted by the traffic engine.

The counting protocol is *event driven*: it never inspects the engine's
internal state, it only reacts to the four event types below, exactly like
the paper's checkpoints only see vehicles at the moment they enter the
surveillance and only talk to radios.  Keeping this interface narrow is what
lets the protocol run unchanged on any mobility source (a different engine,
or replayed traces).

Events are plain frozen dataclasses carrying the vehicle object (so the
protocol can perform V2I exchanges against the vehicle's carried state) plus
the topological context of the event.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple, Union

from .vehicle import Vehicle

__all__ = [
    "CrossingEvent",
    "OvertakeEvent",
    "EntryEvent",
    "ExitEvent",
    "TrafficEvent",
    "StepBatch",
]


@dataclass(frozen=True)
class CrossingEvent:
    """A vehicle entered intersection ``node`` and continues inside the system.

    ``from_node`` is the tail of the inbound segment (``None`` when the
    vehicle was just injected at this intersection, e.g. initial placement or
    a border entry).  ``to_node`` is the head of the outbound segment chosen
    by the router.
    """

    time_s: float
    vehicle: Vehicle
    node: object
    from_node: Optional[object]
    to_node: object


@dataclass(frozen=True)
class OvertakeEvent:
    """``passer`` overtook ``passee`` on directed segment ``edge``.

    Emitted once per pair and per net order change within a time step.  This
    is the engine-level ground truth of the event the paper detects with the
    collaborative V2V protocol of reference [8]; the protocol layer decides
    what (if anything) to do with it.
    """

    time_s: float
    edge: Tuple[object, object]
    passer: Vehicle
    passee: Vehicle


@dataclass(frozen=True)
class EntryEvent:
    """A vehicle entered the open system from outside through ``gate_node``."""

    time_s: float
    vehicle: Vehicle
    gate_node: object


@dataclass(frozen=True)
class ExitEvent:
    """A vehicle left the open system to the outside through ``gate_node``.

    ``from_node`` is the intersection at the tail of the segment the vehicle
    was travelling on when it reached the gate (``None`` if it exited from
    the gate it entered at without traversing a segment).
    """

    time_s: float
    vehicle: Vehicle
    gate_node: object
    from_node: Optional[object]


TrafficEvent = Union[CrossingEvent, OvertakeEvent, EntryEvent, ExitEvent]


class StepBatch:
    """One engine step's events with plain crossings in structure-of-arrays form.

    The engine's one event form (:meth:`TrafficEngine.step_batch`), which
    :meth:`CountingProtocol.process_batch` consumes: instead of
    materializing one :class:`CrossingEvent` object per intersection
    crossing, the engine appends the crossing's fields to four parallel arrays
    (``cross_vehicle`` / ``cross_node`` / ``cross_from`` / ``cross_to``) and
    records the *index* in the ordered ``items`` stream.  Border exits get
    the same treatment through three exit arrays (``exit_vehicle`` /
    ``exit_gate`` / ``exit_from``); exit ``j`` appears in ``items`` as the
    negative integer ``-1 - j`` so one ``type(item) is int`` test still
    separates the typed structure-of-arrays events from the remaining
    scalar objects.  Only the genuinely irregular leftovers (entries,
    overtakes) stay event objects in ``items``; the protocol replays the
    whole stream in exactly the event-list order either way.

    All events of one step share the same timestamp, so ``time_s`` is stored
    once on the batch.  :meth:`iter_events` materializes the equivalent
    plain event stream for consumers that want objects
    (:meth:`TrafficEngine.step`, the scalar protocol path, tracing).
    """

    __slots__ = (
        "time_s",
        "items",
        "cross_vehicle",
        "cross_node",
        "cross_from",
        "cross_to",
        "exit_vehicle",
        "exit_gate",
        "exit_from",
    )

    def __init__(self, time_s: float) -> None:
        self.time_s = time_s
        #: Ordered stream: ``int`` entries >= 0 index the crossing arrays,
        #: ``int`` entries < 0 encode exit ``-1 - item``, every other entry
        #: is a :data:`TrafficEvent` object.
        self.items: List[object] = []
        self.cross_vehicle: List[Vehicle] = []
        self.cross_node: List[object] = []
        self.cross_from: List[Optional[object]] = []
        self.cross_to: List[object] = []
        self.exit_vehicle: List[Vehicle] = []
        self.exit_gate: List[object] = []
        self.exit_from: List[Optional[object]] = []

    def add_crossing(
        self,
        vehicle: Vehicle,
        node: object,
        from_node: Optional[object],
        to_node: object,
    ) -> int:
        """Append one plain crossing; returns its index for ``items``."""
        i = len(self.cross_vehicle)
        self.cross_vehicle.append(vehicle)
        self.cross_node.append(node)
        self.cross_from.append(from_node)
        self.cross_to.append(to_node)
        return i

    def add_exit(
        self,
        vehicle: Vehicle,
        gate_node: object,
        from_node: Optional[object],
    ) -> int:
        """Append one border exit; returns its encoded ``items`` entry."""
        j = len(self.exit_vehicle)
        self.exit_vehicle.append(vehicle)
        self.exit_gate.append(gate_node)
        self.exit_from.append(from_node)
        return -1 - j

    def crossing_event(self, i: int) -> CrossingEvent:
        """Materialize crossing ``i`` as a :class:`CrossingEvent` object."""
        return CrossingEvent(
            time_s=self.time_s,
            vehicle=self.cross_vehicle[i],
            node=self.cross_node[i],
            from_node=self.cross_from[i],
            to_node=self.cross_to[i],
        )

    def exit_event(self, j: int) -> ExitEvent:
        """Materialize exit ``j`` (the *array* index, not the encoded item)
        as an :class:`ExitEvent` object."""
        return ExitEvent(
            time_s=self.time_s,
            vehicle=self.exit_vehicle[j],
            gate_node=self.exit_gate[j],
            from_node=self.exit_from[j],
        )

    def iter_events(self) -> Iterator[TrafficEvent]:
        """The equivalent scalar event stream, in order."""
        for item in self.items:
            if type(item) is int:
                yield (
                    self.crossing_event(item)
                    if item >= 0
                    else self.exit_event(-1 - item)
                )
            else:
                yield item

    def __len__(self) -> int:
        return len(self.items)
