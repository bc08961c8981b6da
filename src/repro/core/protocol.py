"""The distributed counting protocol — event glue over the checkpoints.

:class:`CountingProtocol` wires the substrates together: it owns one
:class:`~repro.core.checkpoint.Checkpoint` and one
:class:`~repro.surveillance.camera.IntersectionCamera` per intersection, and
reacts to the traffic engine's event stream.

For every :class:`~repro.mobility.events.CrossingEvent` the processing order
mirrors what physically happens as a vehicle rolls through an intersection:

1. **Arrival-side wireless** — the vehicle delivers any label destined for
   this checkpoint (activation / backwash stop, Alg. 1 phases 3–4), any
   collection reports (Alg. 2), and, for patrol cars, the status digest
   (Theorem 3 / Alg. 4).
2. **Camera counting** — phase 5, including the Alg. 3 correction rules
   (see *Adjustment modes* below).
3. **Departure-side wireless** — phase 2 labeling of the first vehicle
   joining each outbound flow, and Alg. 2 report attachment toward the
   predecessor.

Entry / exit events at border gates additionally drive the Alg. 5 interaction
counters.

Two pipelines
-------------
The protocol consumes an engine step's events through one of two
bit-for-bit equivalent entry points: :meth:`CountingProtocol.handle_events`,
the scalar per-event reference loop over event objects, and
:meth:`CountingProtocol.process_batch`, the batched per-step pipeline over
the engine's :class:`~repro.mobility.events.StepBatch` (plain crossings
settled in place by a draw-free tally, the scalar handlers for the rest —
see the method docstring and DESIGN.md "Protocol batch pipeline").  The
scalar path takes the same batch's stream as objects
(``StepBatch.iter_events()``).  Both draw their randomness one scalar draw
at a time, in stream order.  Equivalence — counts, adjustments,
stabilization times, exchange statistics and RNG stream positions — is
pinned by ``tests/fixtures/golden_protocol_traces.json`` and randomized
property tests.

Adjustment modes
----------------
``"exact"`` (default)
    Corrections are derived from the one-bit *counted* status vehicles carry
    (the information the paper already assumes is exchanged during V2V
    collaboration): a vehicle counted although its bit was set contributes
    ``-1``, a vehicle skipped although its bit was clear contributes ``+1``
    (and is marked counted).  Labels additionally accumulate ``+1`` per
    uncounted vehicle they overtake so the correction lands when the label
    arrives, keeping counters settled at stop time.  In FIFO, lossless runs
    these rules never trigger, so the base algorithm is exercised unmodified
    (tests assert this).
``"paper"``
    The literal Alg. 3 rules: unconditional ``-1`` on a failed labeling
    exchange, ``±1`` deltas carried on the label for every overtake involving
    it.  Kept for the ablation study of the corner cases discussed in
    DESIGN.md note 3.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigurationError, ProtocolError
from ..mobility.events import (
    CrossingEvent,
    EntryEvent,
    ExitEvent,
    OvertakeEvent,
    StepBatch,
    TrafficEvent,
)
from ..mobility.vehicle import Vehicle
from ..roadnet.graph import RoadNetwork
from ..surveillance.attributes import ExteriorSignature
from ..surveillance.camera import IntersectionCamera
from ..surveillance.recognition import Recognizer
from ..wireless.exchange import ExchangeService
from ..wireless.messages import LabelToken
from .checkpoint import Checkpoint, DirectionState
from .collection import CollectionManager

__all__ = ["AdjustmentMode", "ProtocolConfig", "ProtocolStats", "CountingProtocol"]


class AdjustmentMode:
    """String constants for the Alg. 3 correction strategy."""

    EXACT = "exact"
    PAPER = "paper"

    ALL = (EXACT, PAPER)


@dataclass(frozen=True)
class ProtocolConfig:
    """Static configuration of the counting protocol.

    Attributes
    ----------
    adjustment_mode:
        ``"exact"`` or ``"paper"`` (see module docstring).
    count_target:
        Exterior-signature query of the vehicle class being counted; ``None``
        counts every vehicle.
    recognition_false_negative / recognition_false_positive:
        Camera noise rates passed to every checkpoint's recognizer.
    collection_enabled:
        Whether Alg. 2 / Alg. 4 run (Fig. 3 / Fig. 5); constitution-only
        experiments disable it.
    """

    adjustment_mode: str = AdjustmentMode.EXACT
    count_target: Optional[ExteriorSignature] = None
    recognition_false_negative: float = 0.0
    recognition_false_positive: float = 0.0
    collection_enabled: bool = True

    def __post_init__(self) -> None:
        if self.adjustment_mode not in AdjustmentMode.ALL:
            raise ConfigurationError(
                f"adjustment_mode must be one of {AdjustmentMode.ALL}, got {self.adjustment_mode!r}"
            )

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form (see ``repro.serde`` for the conventions)."""
        return {
            "adjustment_mode": self.adjustment_mode,
            "count_target": (
                None if self.count_target is None else self.count_target.to_dict()
            ),
            "recognition_false_negative": self.recognition_false_negative,
            "recognition_false_positive": self.recognition_false_positive,
            "collection_enabled": self.collection_enabled,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ProtocolConfig":
        """Inverse of :meth:`to_dict`; missing keys use the defaults."""
        from ..serde import kwargs_from

        kwargs = kwargs_from(cls, data)
        target = data.get("count_target")
        kwargs["count_target"] = (
            None if target is None else ExteriorSignature.from_dict(target)
        )
        return cls(**kwargs)


@dataclass
class ProtocolStats:
    """Aggregate protocol activity counters."""

    crossings_processed: int = 0
    labels_installed: int = 0
    labels_delivered: int = 0
    labeling_failures: int = 0
    corrections_plus: int = 0
    corrections_minus: int = 0
    patrol_syncs: int = 0
    interaction_entries: int = 0
    interaction_exits: int = 0
    early_exit_corrections: int = 0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "crossings_processed": self.crossings_processed,
            "labels_installed": self.labels_installed,
            "labels_delivered": self.labels_delivered,
            "labeling_failures": self.labeling_failures,
            "corrections_plus": self.corrections_plus,
            "corrections_minus": self.corrections_minus,
            "patrol_syncs": self.patrol_syncs,
            "interaction_entries": self.interaction_entries,
            "interaction_exits": self.interaction_exits,
            "early_exit_corrections": self.early_exit_corrections,
        }

    @property
    def total_corrections(self) -> int:
        return self.corrections_plus + self.corrections_minus


class _Progress:
    """Activation and stabilization tallies the checkpoints report into.

    The checkpoints' ``on_first_active``/``on_first_stable`` callbacks are
    this object's methods, not the protocol's: a bound method of the
    protocol would close the cycle protocol -> checkpoint -> protocol, and
    a finished run would then stay alive until a cyclic garbage collection
    instead of being freed by reference counting.
    """

    __slots__ = ("n_active", "n_stable", "activation_rev")

    def __init__(self) -> None:
        self.n_active = 0
        self.n_stable = 0
        #: bumped once per activation, so observers (ConvergenceMonitor)
        #: rescan the counting directions only when a checkpoint activated.
        self.activation_rev = 0

    def note_active(self, _cp: Checkpoint) -> None:
        self.n_active += 1
        self.activation_rev += 1

    def note_stable(self, _cp: Checkpoint) -> None:
        self.n_stable += 1


class CountingProtocol:
    """Fully-distributed vehicle counting over a road network.

    Parameters
    ----------
    net:
        The road network (closed or open).
    seeds:
        Intersections acting as seed/sink checkpoints; counting starts there
        at simulation time 0.
    rng:
        Random generator (only used for recognizer noise).
    exchange:
        Wireless exchange service shared by every checkpoint.
    config:
        Protocol configuration.
    """

    def __init__(
        self,
        net: RoadNetwork,
        seeds: Sequence[object],
        rng: np.random.Generator,
        *,
        exchange: Optional[ExchangeService] = None,
        config: Optional[ProtocolConfig] = None,
    ) -> None:
        if not seeds:
            raise ConfigurationError("at least one seed checkpoint is required")
        for seed in seeds:
            if not net.has_node(seed):
                raise ConfigurationError(f"seed {seed!r} is not an intersection of the network")
        if len(set(seeds)) != len(list(seeds)):
            raise ConfigurationError("seed list contains duplicates")

        self.net = net
        self.seeds = list(seeds)
        self.rng = rng
        self.config = config if config is not None else ProtocolConfig()
        self.exchange = exchange if exchange is not None else ExchangeService.perfect(rng)
        self.stats = ProtocolStats()

        self.checkpoints: Dict[object, Checkpoint] = {}
        self.cameras: Dict[object, IntersectionCamera] = {}
        for node in net.nodes:
            cp = Checkpoint(
                node,
                inbound=net.inbound_neighbors(node),
                outbound=net.outbound_neighbors(node),
                is_border=net.is_border(node),
            )
            self.checkpoints[node] = cp
            recognizer = Recognizer(
                self.config.count_target,
                false_negative_rate=self.config.recognition_false_negative,
                false_positive_rate=self.config.recognition_false_positive,
                rng=rng,
            )
            self.cameras[node] = IntersectionCamera(node, recognizer)

        # Incremental convergence counters.  Activation and stabilization are
        # monotone and each checkpoint reports them exactly once, so
        # all_active()/all_stable() are O(1) comparisons instead of per-step
        # scans over every checkpoint (which dominated city-scale steps).
        self._progress = _Progress()
        for cp in self.checkpoints.values():
            cp.on_first_active = self._progress.note_active
            cp.on_first_stable = self._progress.note_stable

        for seed in self.seeds:
            self.checkpoints[seed].activate_as_seed(0.0, tree_id=seed)

        self.collection = CollectionManager(
            self.checkpoints,
            self.seeds,
            self.exchange,
            enabled=self.config.collection_enabled,
        )

        # Precomputed invariants of the batched pipeline ----------------------
        self._exact = self.config.adjustment_mode == AdjustmentMode.EXACT
        #: wildcard target with noise-free cameras: every observation is a
        #: match and the recognizers never touch their RNG, so the batched
        #: pipeline can tally each observation itself instead of running the
        #: recognizer.  Every camera's recognizer has the same settings.
        self._recognition_trivial = self.cameras[self.seeds[0]].recognizer.counts_everything

    # ------------------------------------------------------------------ main
    def handle_events(self, events: Iterable[TrafficEvent]) -> None:
        """Process one step's events in order (the scalar reference path)."""
        last_time = None
        for event in events:
            if isinstance(event, CrossingEvent):
                self.on_crossing(event)
            elif isinstance(event, OvertakeEvent):
                self.on_overtake(event)
            elif isinstance(event, EntryEvent):
                self.on_entry(event)
            elif isinstance(event, ExitEvent):
                self.on_exit(event)
            else:
                raise ProtocolError(f"unknown traffic event {event!r}")
            last_time = event.time_s
        if last_time is not None:
            self.collection.update(last_time)

    # ----------------------------------------------------- batched pipeline
    def process_batch(self, batch: StepBatch) -> None:
        """Process one step's :class:`~repro.mobility.events.StepBatch`
        through the batched pipeline.

        Plain crossings and exits arrive as *indices* into the batch's
        parallel arrays instead of event objects (no per-crossing
        allocation anywhere between the intersection and the counters), and
        every item is stamped with the batch's one ``time_s``.
        Bit-for-bit equivalent to :meth:`handle_events` over
        ``batch.iter_events()`` — same counts, adjustments, stabilization
        times, exchange and recognition statistics, and the same RNG stream
        positions — but a step pays only for the events it carries:

        * *plain* crossings — no carried labels or reports, no pending
          phase-2 label for the chosen outbound direction, no report ready
          to attach — are settled where they stand.  They change only their
          checkpoint's counters and adjustments and their own vehicle's
          counted bit, so settling each in stream order is exactly the
          scalar order.  With trivial recognition (wildcard target,
          noise-free cameras: the default) this is a draw-free tally —
          camera bookkeeping, recognizer statistics, then the phase-5 count
          and the Alg. 3 corrections — with no :class:`Observation` object;
          with recognition noise it is the scalar :meth:`_count_arrival`;
        * every other event (label handling, collection transport, patrol
          sync, border events, overtakes) runs through the scalar handlers
          verbatim.

        Every draw, wireless or recognition, is a scalar draw made where the
        scalar loop makes it, so the stream order is the same even when the
        exchange service and the recognizers share one generator (the
        constructor's default wiring).
        """
        items = batch.items
        if not items:
            return
        cross_vehicle = batch.cross_vehicle
        cross_node = batch.cross_node
        cross_from = batch.cross_from
        cross_to = batch.cross_to
        step_time = batch.time_s
        checkpoints = self.checkpoints
        cameras = self.cameras
        stats = self.stats
        coll_enabled = self.collection.enabled
        ready_cached = self.collection.ready_to_report_cached
        counting_state = DirectionState.COUNTING
        trivial = self._recognition_trivial
        exact = self._exact
        for event in items:
            if type(event) is int:
                if event >= 0:
                    vehicle: Optional[Vehicle] = cross_vehicle[event]
                    node = cross_node[event]
                    from_node = cross_from[event]
                    to_node = cross_to[event]
                else:
                    vehicle = None
            elif type(event) is CrossingEvent:
                vehicle = event.vehicle
                node = event.node
                from_node = event.from_node
                to_node = event.to_node
            else:
                vehicle = None
            if vehicle is not None:
                cp = checkpoints[node]
                if not (
                    vehicle.is_patrol
                    or vehicle.labels
                    or vehicle.reports
                    or (cp.active and cp.pending_labels.get(to_node, False))
                    or (
                        coll_enabled
                        and to_node == cp.predecessor
                        and ready_cached(node)
                    )
                ):
                    stats.crossings_processed += 1
                    if from_node is None:
                        continue  # an injection: nothing is observed
                    if not trivial:
                        self._count_arrival(cp, vehicle, from_node, step_time)
                        continue
                    camera = cameras[node]
                    camera.note_crossing(step_time)
                    rec_stats = camera.recognizer.stats
                    rec_stats.observations += 1
                    rec_stats.matches += 1
                    if cp.active and cp.direction_state.get(from_node) is counting_state:
                        cp.counters[from_node] += 1
                        if exact and vehicle.counted:
                            # Already counted upstream: cancel the double
                            # count (Alg. 3 line 8 / lossy compensation).
                            cp.adjustments -= 1
                            stats.corrections_minus += 1
                        else:
                            vehicle.counted = True
                    elif exact and cp.active and not vehicle.counted:
                        # Safety net mirroring Alg. 3 line 7 (see
                        # _count_arrival).
                        cp.adjustments += 1
                        stats.corrections_plus += 1
                        vehicle.counted = True
                    continue
                self._crossing_scalar(vehicle, node, from_node, to_node, step_time)
            elif type(event) is int:
                j = -1 - event
                self._exit_scalar(
                    batch.exit_vehicle[j], batch.exit_gate[j], batch.exit_from[j], step_time
                )
            elif type(event) is OvertakeEvent:
                self.on_overtake(event)
            elif type(event) is EntryEvent:
                self.on_entry(event)
            else:
                raise ProtocolError(f"unknown traffic event {event!r}")
        self.collection.update(step_time)

    # ------------------------------------------------------------- crossings
    def on_crossing(self, event: CrossingEvent) -> None:
        """Process one vehicle rolling through an intersection."""
        self._crossing_scalar(
            event.vehicle, event.node, event.from_node, event.to_node, event.time_s
        )

    def _crossing_scalar(
        self,
        vehicle: Vehicle,
        node: object,
        from_node: Optional[object],
        to_node: object,
        time_s: float,
    ) -> None:
        """Scalar crossing handler over bare fields (no event object needed)."""
        cp = self.checkpoints[node]
        self.stats.crossings_processed += 1

        if vehicle.is_patrol:
            self._patrol_sync(cp, vehicle, from_node, time_s)
            return

        # 1. arrival-side wireless -----------------------------------------
        self._deliver_labels(cp, vehicle, time_s)
        self.collection.deliver_from_vehicle(cp, vehicle, time_s)

        # 2. camera counting -------------------------------------------------
        if from_node is not None:
            self._count_arrival(cp, vehicle, from_node, time_s)

        # 3. departure-side wireless ----------------------------------------
        self._label_departure(cp, vehicle, to_node, time_s)
        self.collection.on_departure(cp, to_node, vehicle, time_s)

    def _deliver_labels(self, cp: Checkpoint, vehicle: Vehicle, time_s: float) -> None:
        """Arrival-side: hand carried labels to the checkpoint (phases 3/4)."""
        for label in vehicle.drop_labels_for(cp.node):
            outcome = self.exchange.exchange()
            if not outcome.success:
                # A hard delivery miss: the label is lost, the stop/activation
                # is delayed until another carrier (vehicle or patrol) brings
                # the origin's status.  Counting errors this causes are the
                # subject of the lossy-communication ablation.
                continue
            self.stats.labels_delivered += 1
            cp.receive_label(
                label.origin,
                origin_parent=label.origin_predecessor,
                tree_id=label.tree_id,
                time_s=time_s,
                adjustment=label.adjustment,
            )

    def _count_arrival(
        self, cp: Checkpoint, vehicle: Vehicle, from_node: object, time_s: float
    ) -> None:
        """Phase 5 counting plus the Alg. 3 correction rules."""
        camera = self.cameras[cp.node]
        observation = camera.observe_crossing(
            vehicle.vid, vehicle.signature, from_node, None, time_s
        )
        if not observation.is_target:
            return
        counting = cp.should_count(from_node)
        exact = self.config.adjustment_mode == AdjustmentMode.EXACT

        if counting:
            cp.record_count(from_node)
            if exact:
                if vehicle.counted:
                    # Already counted upstream: the camera count is a double
                    # count, cancel it (Alg. 3 line 8 / lossy compensation).
                    cp.record_correction(-1)
                    self.stats.corrections_minus += 1
                else:
                    vehicle.counted = True
            else:
                vehicle.counted = True
            return

        if exact and cp.active and not vehicle.counted:
            # Safety net mirroring Alg. 3 line 7: an uncounted vehicle slipped
            # past the frontier (stopped or exempt direction); account for it
            # here and mark it so it is not counted again downstream.
            cp.record_correction(+1)
            self.stats.corrections_plus += 1
            vehicle.counted = True

    def _label_departure(
        self, cp: Checkpoint, vehicle: Vehicle, to_node: object, time_s: float
    ) -> None:
        """Phase 2: label the first vehicle joining the outbound traffic."""
        if vehicle.is_patrol or not cp.needs_label(to_node):
            return
        if self.exchange.single_attempt():
            vehicle.labels.append(
                LabelToken(
                    origin=cp.node,
                    segment=(cp.node, to_node),
                    origin_predecessor=cp.predecessor,
                    tree_id=cp.tree_id,
                    issued_at=time_s,
                )
            )
            cp.mark_label_issued(to_node)
            self.stats.labels_installed += 1
        else:
            cp.record_label_failure()
            self.stats.labeling_failures += 1
            if self.config.adjustment_mode == AdjustmentMode.PAPER:
                # Alg. 3 line 3: the departing (counted) vehicle left without
                # the label and will be double counted downstream.
                cp.record_correction(-1)
                self.stats.corrections_minus += 1

    # -------------------------------------------------------------- overtakes
    def on_overtake(self, event: OvertakeEvent) -> None:
        """Alg. 3 lines 5–8: adjust for overtakes involving a labelled vehicle."""
        passer, passee = event.passer, event.passee
        if passer.is_patrol or passee.is_patrol:
            return
        exact = self.config.adjustment_mode == AdjustmentMode.EXACT
        target_node = event.edge[1]

        # The labelled vehicle overtook a (so far) uncounted vehicle: that
        # vehicle will arrive behind the label, after counting stopped, and
        # would be missed (Alg. 3 line 7 → +1 on the label).  Vehicles outside
        # the class being counted are ignored — they are never counted, so
        # overtaking them needs no compensation.
        passer_labels = [lab for lab in passer.labels if lab.target == target_node]
        if passer_labels and not passee.counted and self._is_target(passee):
            passer_labels[0].adjustment += 1
            self.stats.corrections_plus += 1
            if exact:
                # The V2V collaboration lets the labelled vehicle tell the
                # overtaken one that it has been accounted for.
                passee.counted = True

        # A counted vehicle overtook the labelled one: it will reach the next
        # checkpoint before the stop label and be double counted
        # (Alg. 3 line 8 → −1 on the label).  In exact mode the double count
        # is cancelled at arrival from the counted bit instead, which avoids
        # the corner case discussed in DESIGN.md note 3.
        if not exact:
            passee_labels = [lab for lab in passee.labels if lab.target == target_node]
            if passee_labels and passer.counted:
                passee_labels[0].adjustment -= 1
                self.stats.corrections_minus += 1

    # ------------------------------------------------------------ border flow
    def on_entry(self, event: EntryEvent) -> None:
        """Alg. 5: a vehicle entered the open system through a border gate."""
        cp = self.checkpoints[event.gate_node]
        if not cp.is_border:
            raise ProtocolError(f"entry event at non-border intersection {event.gate_node!r}")
        if event.vehicle.is_patrol:
            return
        if not self._is_target(event.vehicle):
            return
        if cp.record_interaction_entry():
            self.stats.interaction_entries += 1
            event.vehicle.counted = True

    def on_exit(self, event: ExitEvent) -> None:
        """Alg. 5: a vehicle left the open system through a border gate."""
        self._exit_scalar(
            event.vehicle, event.gate_node, event.from_node, event.time_s
        )

    def _exit_scalar(
        self,
        vehicle: Vehicle,
        gate_node: object,
        from_node: Optional[object],
        time_s: float,
    ) -> None:
        """Scalar exit handler over bare fields (no event object needed)."""
        cp = self.checkpoints[gate_node]
        if vehicle.is_patrol:
            return

        # The departing vehicle still rolls through the gate intersection:
        # deliver its labels/reports and apply regular inbound counting first.
        self._deliver_labels(cp, vehicle, time_s)
        self.collection.deliver_from_vehicle(cp, vehicle, time_s)
        if from_node is not None:
            self._count_arrival(cp, vehicle, from_node, time_s)

        if not self._is_target(vehicle):
            return
        if cp.record_interaction_exit():
            self.stats.interaction_exits += 1
        elif (
            self.config.adjustment_mode == AdjustmentMode.EXACT
            and not cp.interaction_active
            and vehicle.counted
        ):
            # Corollary 2's escape case: a counted vehicle slips out through a
            # still-inactive border checkpoint.  The paper compensates with the
            # −1 carried by the label it overtook; in exact mode the gate
            # records the departure directly from the vehicle's counted bit.
            cp.record_correction(-1)
            self.stats.early_exit_corrections += 1

    def _is_target(self, vehicle: Vehicle) -> bool:
        """Whether the vehicle belongs to the class being counted.

        Interaction counting at the border uses the same exterior-signature
        query as the cameras, but without recognition noise (the noise study
        only concerns the per-intersection cameras).
        """
        target = self.config.count_target
        if target is None or target.is_wildcard:
            return True
        return target.matches(vehicle.signature)

    # ---------------------------------------------------------------- patrol
    def _patrol_sync(
        self, cp: Checkpoint, patrol: Vehicle, from_node: Optional[object], time_s: float
    ) -> None:
        """Theorem 3 / Alg. 4: bidirectional sync between checkpoint and patrol."""
        digest = patrol.digest
        if digest is None:  # pragma: no cover - defensive
            raise ProtocolError(f"patrol vehicle {patrol.vid} has no status digest")
        self.stats.patrol_syncs += 1

        # Patrol -> checkpoint: the patrol acts as a labelled vehicle for the
        # segment it just traversed, provided the far end was active when the
        # patrol passed it.
        if from_node is not None and from_node in digest.active:
            cp.receive_patrol_status(
                from_node,
                origin_parent=digest.parents.get(from_node),
                tree_id=digest.trees.get(from_node),
                time_s=time_s,
            )
        # Patrol -> checkpoint: one-way child discovery.
        for neighbor in cp.outbound:
            if neighbor in digest.parents:
                cp.note_parent_of(neighbor, digest.parents[neighbor])

        # Checkpoint -> patrol: current status.
        if cp.active:
            digest.note_active(cp.node, time_s, cp.predecessor, cp.tree_id)

        # Collection (Alg. 4): drop ferried reports here, pick up pending ones.
        self.collection.sync_with_patrol(cp, digest, time_s)

    # ----------------------------------------------------------------- state
    def checkpoint(self, node: object) -> Checkpoint:
        """The checkpoint deployed at ``node``."""
        return self.checkpoints[node]

    @property
    def activation_rev(self) -> int:
        """Bumped once per checkpoint activation.

        New counting directions appear only at activation (``_counting``
        otherwise only shrinks), so an observer whose last scan saw this
        revision has seen every counting segment that will ever exist.
        """
        return self._progress.activation_rev

    def all_active(self) -> bool:
        """Whether the frontier wave has reached every checkpoint."""
        return self._progress.n_active == len(self.checkpoints)

    def all_stable(self) -> bool:
        """Whether every checkpoint's local counting has stabilized
        (the closed system's convergence / the open system's complete status)."""
        return self._progress.n_stable == len(self.checkpoints)

    def stabilization_times(self) -> Dict[object, Optional[float]]:
        """Per-checkpoint stabilization time (``None`` when not yet stable)."""
        return {node: cp.stabilized_at for node, cp in self.checkpoints.items()}

    def complete_status_time(self) -> Optional[float]:
        """Time at which the last checkpoint stabilized, or ``None``."""
        times = [cp.stabilized_at for cp in self.checkpoints.values()]
        if any(t is None for t in times):
            return None
        return max(times)  # type: ignore[arg-type]

    def global_count(self) -> int:
        """Omniscient sum of every checkpoint's local contribution.

        This is the quantity the correctness theorems are about; the
        *collected* value visible at the seeds is
        :meth:`CollectionManager.global_view`.
        """
        return sum(cp.local_count() for cp in self.checkpoints.values())

    def total_adjustments(self) -> int:
        """Net ±1 corrections applied across all checkpoints."""
        return sum(cp.adjustments for cp in self.checkpoints.values())

    def counting_in_progress(self) -> List[Tuple[object, object]]:
        """Directed segments whose counting is still running (diagnostics)."""
        pending = []
        for node, cp in self.checkpoints.items():
            for origin in cp.counting_directions():
                pending.append((origin, node))
        return pending
