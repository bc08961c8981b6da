"""The seed reference engine, which the golden traces were recorded from.

:class:`ReferenceEngine` is a :class:`~repro.mobility.engine.TrafficEngine`
stepped by the pre-vectorization seed loops (``_advance_segments``,
``_lane_changes``, ``_detect_overtakes``, ``_process_intersections`` and
``_admit``), kept verbatim: it is the oracle of the production step and the
baseline of ``benchmarks/bench_irregular.py``, so it must not be optimized.
``TrafficEngine(..., vectorized=False)`` builds one.

Everything that does not diverge is shared: spawning, the other queries
and ``step``/``step_batch``.  The overrides are the seed's side of the
rest: no kernel (whatever ``compiled`` says), no resident slot and so no
transition row, no resident route plan and no decision pass (``_cross``
decides each crossing through the vehicle's router, as the seed did, and
the routers in :mod:`repro.roadnet.routing` are the definition both
engines are tested against), and ``_occupancy``, each edge's vids in entry
order, kept by ``_place`` (which draws the lane) and ``_leave_edge``, and
read by the seed loops and ``occupancy()``; the production engine's
``_seq`` order is tested against it.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ..roadnet.graph import DirectedSegment
from .engine import _ARRIVAL_EPS_M, TrafficEngine
from .events import OvertakeEvent, StepBatch, TrafficEvent
from .vehicle import Vehicle

__all__ = ["ReferenceEngine"]


class ReferenceEngine(TrafficEngine):
    """The seed per-vehicle engine; it takes :class:`TrafficEngine`'s
    parameters."""

    vectorized = False

    def __init__(self, *args: Any, compiled: bool = True, **kwargs: Any) -> None:
        # The seed loops run no kernel, so none is loaded.
        super().__init__(*args, compiled=False, **kwargs)
        self.compiled = bool(compiled)
        # Flat per-segment occupancy in entry order, in ``net.segments()``
        # order: the seed loops' iteration and event order.
        self._occupancy: Dict[Tuple[object, object], List[int]] = {
            seg.key: [] for seg in self._segs
        }

    @property
    def kernel_backend(self) -> str:
        return "scalar"

    @property
    def kernel_fallback_reason(self) -> Optional[str]:
        return "vectorized=False selects the scalar reference engine"

    # The Vehicle objects hold the reference's whole state: no vehicle gets
    # a resident slot, so none has a transition row to run.
    def _alloc_slot(self, vehicle: Vehicle) -> int:
        return -1

    def _release_slot(self, vehicle: Vehicle) -> None:
        pass

    def _transit(self, vehicle: Vehicle, src: int, target: int, seq: int) -> None:
        pass

    def occupancy(self, edge: Tuple[object, object]) -> List[Vehicle]:
        return [self._vehicles[vid] for vid in self._occupancy[edge]]

    def _place(
        self, vehicle: Vehicle, tail: object, head: object, *, pos_m: float
    ) -> Tuple[int, int]:
        """:meth:`TrafficEngine._place`, then the occupancy list and the
        lane draw."""
        placed = super()._place(vehicle, tail, head, pos_m=pos_m)
        seg = self._segs[placed[0]]
        self._occupancy[seg.key].append(vehicle.vid)
        # integers(1) is 0 without a draw, so skipping it leaves the
        # stream as it was (a unit test pins that NumPy behaviour).
        vehicle.lane = int(self.rng.integers(seg.lanes)) if seg.lanes > 1 else 0
        return placed

    def _leave_edge(self, vehicle: Vehicle) -> None:
        """Take ``vehicle`` off its segment's occupancy list."""
        self._occupancy[vehicle.edge].remove(vehicle.vid)

    def _step_core(self, batch: StepBatch) -> None:
        self._advance_segments(batch.items)
        self._process_intersections(batch)
        self.time_s += self.dt_s
        self.stats.steps += 1

    # --------------------------------------- segment dynamics (per vehicle)
    def _advance_segments(self, events: List[TrafficEvent]) -> None:
        """Seed reference implementation, kept verbatim.

        Per-vehicle loops with per-step lane rebuilds and sorting — the
        pre-vectorization engine.  It is the baseline the golden-trace tests
        and ``benchmarks/bench_engine_throughput.py`` compare against, so it
        must not be optimized.
        """
        for edge_key, vids in self._occupancy.items():
            if not vids:
                continue
            seg = self.net.segment(*edge_key)
            vehicles = [self._vehicles[v] for v in vids]
            before = {v.vid: (v.pos_m, v.vid) for v in vehicles}

            lanes_occ: List[List[Vehicle]] = [[] for _ in range(seg.lanes)]
            for v in vehicles:
                if v.lane >= seg.lanes:
                    v.lane = seg.lanes - 1
                lanes_occ[v.lane].append(v)
            for lane in lanes_occ:
                lane.sort(key=lambda v: (-v.pos_m, v.vid))

            if self.allow_overtaking and seg.lanes > 1:
                self._lane_changes(seg, lanes_occ)
                lanes_occ = [[] for _ in range(seg.lanes)]
                for v in vehicles:
                    lanes_occ[v.lane].append(v)
                for lane in lanes_occ:
                    lane.sort(key=lambda v: (-v.pos_m, v.vid))

            for lane in lanes_occ:
                leader: Optional[Vehicle] = None
                for v in lane:
                    self.car_following.advance(v, leader, seg.speed_limit_mps, seg.length_m, self.dt_s)
                    if v.pos_m >= seg.length_m - _ARRIVAL_EPS_M and v.waiting_since_s is None:
                        v.waiting_since_s = self.time_s
                    leader = v

            if self.allow_overtaking and seg.lanes > 1 and len(vehicles) > 1:
                self._detect_overtakes(seg, vehicles, before, events)

    def _lane_changes(self, seg: DirectedSegment, lanes_occ: List[List[Vehicle]]) -> None:
        for lane_vehicles in lanes_occ:
            for idx, v in enumerate(lane_vehicles):
                leader = lane_vehicles[idx - 1] if idx > 0 else None
                if leader is None or not self.lane_change.wants_to_change(v, leader):
                    continue
                target = self.lane_change.target_lane(v, seg.lanes, lanes_occ, self.rng)
                if target is not None:
                    v.lane = target

    def _detect_overtakes(
        self,
        seg: DirectedSegment,
        vehicles: List[Vehicle],
        before: Dict[int, Tuple[float, int]],
        events: List[TrafficEvent],
    ) -> None:
        after = {v.vid: (v.pos_m, v.vid) for v in vehicles}
        by_vid = {v.vid: v for v in vehicles}
        vids = list(by_vid.keys())
        for i in range(len(vids)):
            for j in range(i + 1, len(vids)):
                a, b = vids[i], vids[j]
                was_a_ahead = before[a] > before[b]
                now_a_ahead = after[a] > after[b]
                if was_a_ahead == now_a_ahead:
                    continue
                passer, passee = (a, b) if now_a_ahead else (b, a)
                self.stats.overtakes += 1
                events.append(
                    OvertakeEvent(
                        time_s=self.time_s,
                        edge=seg.key,
                        passer=by_vid[passer],
                        passee=by_vid[passee],
                    )
                )

    # -------------------------------------------------- intersection crossing
    def _process_intersections(self, batch: StepBatch) -> None:
        """Seed reference implementation: scan every occupied segment."""
        candidates: Dict[object, List[Tuple[float, int, object]]] = {}
        for edge_key, vids in self._occupancy.items():
            if not vids:
                continue
            seg = self.net.segment(*edge_key)
            node = seg.head
            policy = self.policy_for(node)
            front_per_lane: Dict[int, Vehicle] = {}
            for vid in vids:
                v = self._vehicles[vid]
                if v.waiting_since_s is None:
                    continue
                best = front_per_lane.get(v.lane)
                if best is None or v.pos_m > best.pos_m:
                    front_per_lane[v.lane] = v
            for v in front_per_lane.values():
                if self.time_s - v.waiting_since_s + self.dt_s >= policy.crossing_delay_s:
                    candidates.setdefault(node, []).append((v.waiting_since_s, v.vid, edge_key))
        self._admit(candidates, batch)

    def _admit(
        self,
        candidates: Dict[object, List[Tuple[float, int, object]]],
        batch: StepBatch,
    ) -> None:
        for node, waiting in candidates.items():
            policy = self.policy_for(node)
            # Plain tuple sort: identical order to sorting by (time, vid)
            # because vids are unique, so the edge key is never compared.
            waiting.sort()
            for _, vid, edge_key in waiting[: policy.admissions_per_step]:
                vehicle = self._vehicles.get(vid)
                if vehicle is None or vehicle.edge != edge_key:
                    continue
                self._cross(vehicle, node, batch)

    def _cross(self, vehicle: Vehicle, node: object, batch: StepBatch) -> None:
        """Seed reference implementation: cross ``node`` from the vehicle's
        segment, exiting through an outbound gate or entering the next hop's
        segment at 0 m, with its event in ``batch`` and the bookkeeping."""
        assert vehicle.edge is not None
        tail = vehicle.edge[0]
        self._leave_edge(vehicle)
        vehicle.edge = None
        vehicle.waiting_since_s = None

        gate = self._gates.get(node)
        wants_exit = vehicle.plan.exits_at == node and vehicle.plan.empty
        if gate is not None and gate.outbound and wants_exit and not vehicle.is_patrol:
            vehicle.exited_at_s = self.time_s
            del self._vehicles[vehicle.vid]
            self._departed[vehicle.vid] = vehicle
            self._inside_nonpatrol -= 1
            self.stats.exits += 1
            batch.items.append(batch.add_exit(vehicle, node, tail))
            return

        assert vehicle.router is not None
        next_node = vehicle.router.next_hop(node, vehicle.plan, previous=tail)
        self.stats.crossings += 1
        batch.items.append(batch.add_crossing(vehicle, node, tail, next_node))
        self._place(vehicle, node, next_node, pos_m=0.0)
