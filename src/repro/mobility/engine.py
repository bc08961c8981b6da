"""Time-stepped microscopic traffic engine (the SUMO substitute).

The engine owns every moving object in the simulation and produces the event
stream the counting protocol consumes (:mod:`repro.mobility.events`).  One
call to :meth:`TrafficEngine.step` advances the world by ``dt`` seconds:

1. vehicles move along their segments (car following, lane changes,
   overtake detection),
2. vehicles that reached the end of a segment queue at the intersection;
   the intersection policy admits some of them, each admitted vehicle either
   crosses onto its next segment (``CrossingEvent``) or leaves the open
   system through a gate (``ExitEvent``),
3. externally supplied vehicles (border arrivals, patrol cars) can be
   injected at any time through :meth:`spawn` / :meth:`spawn_initial` /
   :meth:`spawn_patrol`.

Everything is deterministic given the RNG handed in, which is what makes the
experiment sweeps reproducible.

Hot path
--------
The default engine keeps a **resident** structure-of-arrays: every vehicle
owns a slot in persistent capacity-doubling NumPy arrays (position, speed,
free speed, segment length, desired speed, lane-head and multilane flags)
that spawns, exits and lane changes update incrementally — a step gathers
stable array views through cached per-edge slot-index lists and scatters
back with one bulk write, with no per-step ``np.fromiter``/attribute
packing.  The ``Vehicle`` objects' kinematic fields become lazily synced
mirrors (refreshed by any public accessor; see :attr:`TrafficEngine.
vehicles`).  Because each lane advances front to back against its leader's
post-step state, the update is not a single elementwise pass; instead the
step resolves, in order: lane heads and provably unconstrained/stopped
followers in one vectorized pass (sound conservative bounds on the leader's
outcome), then exact vectorized rounds for followers whose leader is already
final, and finally a scalar tail for short chained runs at queue boundaries
— producing results bit-for-bit identical to the per-vehicle engine.  The
lane-change scan is a single vectorized predicate over the gathered
columns; only actual candidates run the scalar target-lane logic, in
reference RNG order.  Overtakes are detected by checking each multilane
segment's cached (position, vid) ranking for inversions instead of
comparing all pairs, and intersections only consider the vehicles actually
waiting at a stop line.  In batched mode :meth:`TrafficEngine.step_batch`
emits plain crossings as index arrays (:class:`~repro.mobility.events.
StepBatch`) consumed directly by the counting protocol — no per-crossing
event objects.  ``vectorized=False`` selects the original seed per-vehicle
loops, kept verbatim as the reference implementation for the golden-trace
equivalence tests and the throughput benchmark baseline.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from typing import Any, Dict, Iterable, Iterator, List, Optional, Set, Tuple, cast

import numpy as np

from ..errors import MobilityError
from ..roadnet.graph import DirectedSegment, RoadNetwork
from ..roadnet.routing import Router
from .car_following import LaneChangeModel, SimplifiedIDM
from .demand import VehicleSpec
from .events import (
    CrossingEvent,
    EntryEvent,
    ExitEvent,
    OvertakeEvent,
    StepBatch,
    TrafficEvent,
)
from .intersections import IntersectionPolicy, simple_policy
from .kernels import StepKernel, fallback_reason, load_step_kernel
from .vehicle import MIN_GAP_M, VEHICLE_LENGTH_M, Vehicle

__all__ = ["EngineStats", "TrafficEngine"]

_ARRIVAL_EPS_M = 0.5

#: Initial capacity of the resident structure-of-arrays state; grown by
#: doubling whenever the active fleet outgrows it.
_INITIAL_CAPACITY = 64


@dataclass
class EngineStats:
    """Aggregate counters describing what the engine has simulated so far."""

    steps: int = 0
    crossings: int = 0
    overtakes: int = 0
    entries: int = 0
    exits: int = 0
    spawned: int = 0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "steps": self.steps,
            "crossings": self.crossings,
            "overtakes": self.overtakes,
            "entries": self.entries,
            "exits": self.exits,
            "spawned": self.spawned,
        }


class TrafficEngine:
    """Microscopic traffic simulation over a :class:`RoadNetwork`.

    Parameters
    ----------
    net:
        The (frozen) road network.
    rng:
        Random generator for placement, lane choice and lane-change noise.
    dt_s:
        Simulation step in seconds.
    policy:
        Default intersection admission policy (the paper's "simple" model by
        default); per-intersection overrides can be set with
        :meth:`set_intersection_policy`.
    allow_overtaking:
        Master switch for lane changes.  ``False`` reproduces the paper's
        simple road model where traffic is strictly FIFO on every segment.
    vectorized:
        Use the batch NumPy hot path (default).  ``False`` selects the
        original per-vehicle reference loops; both modes produce identical
        event streams and state for the same RNG.
    compiled:
        Use the compiled inner step kernel (:mod:`repro.mobility.kernels`,
        default): the whole gather→advance→scatter recurrence runs as one
        native call into a small C library built with the system compiler
        on first use.  When it cannot load, the engine runs its NumPy path,
        bit-for-bit identical and slower, and the first such fallback in a
        process warns with the reason.  :attr:`kernel_backend` says which
        path runs and :attr:`kernel_fallback_reason` why it is not cc.
    """

    def __init__(
        self,
        net: RoadNetwork,
        rng: np.random.Generator,
        *,
        dt_s: float = 0.5,
        policy: Optional[IntersectionPolicy] = None,
        car_following: Optional[SimplifiedIDM] = None,
        lane_change: Optional[LaneChangeModel] = None,
        allow_overtaking: bool = True,
        vectorized: bool = True,
        compiled: bool = True,
    ) -> None:
        if dt_s <= 0:
            raise MobilityError(f"dt_s must be positive, got {dt_s!r}")
        if not net.frozen:
            net.freeze()
        self.net = net
        self.rng = rng
        self.dt_s = float(dt_s)
        self.default_policy = policy if policy is not None else simple_policy()
        self.car_following = car_following if car_following is not None else SimplifiedIDM()
        self.lane_change = lane_change if lane_change is not None else LaneChangeModel()
        self.allow_overtaking = bool(allow_overtaking)
        self.vectorized = bool(vectorized)
        self.compiled = bool(compiled)
        #: which batch tail implementations the vectorized step uses:
        #: "fast" (default) = in-place chained advance (compiled kernel or
        #: single NumPy pass) + occupied-lane-filtered overtake detection +
        #: span-sliced lane-change viability; "legacy" = the pre-batching
        #: tails, kept verbatim as the benchmark baseline
        #: (benchmarks/bench_irregular.py flips this).
        self._tails = "fast"
        self._kernel: Optional[StepKernel] = None
        if self.compiled and self.vectorized:
            cf = self.car_following
            self._kernel = load_step_kernel(
                dt_s=self.dt_s,
                max_accel_mps2=cf.max_accel_mps2,
                max_decel_mps2=cf.max_decel_mps2,
                headway_s=cf.headway_s,
                vehicle_length_m=VEHICLE_LENGTH_M,
                min_gap_m=MIN_GAP_M,
                arrival_eps_m=_ARRIVAL_EPS_M,
            )

        self.time_s: float = 0.0
        self._vehicles: Dict[int, Vehicle] = {}
        self._departed: Dict[int, Vehicle] = {}
        # Flat per-segment occupancy in insertion order (the event-ordering
        # reference), plus — for the vectorized engine — per-lane lists kept
        # sorted front to back.  All per-edge dicts share the
        # ``net.segments()`` iteration order, which fixes the
        # RNG-consumption and event order of the step.
        self._occupancy: Dict[Tuple[object, object], List[int]] = {}
        self._segments: Dict[Tuple[object, object], DirectedSegment] = {}
        self._lanes: Dict[Tuple[object, object], List[List[Vehicle]]] = {}
        # Per-edge (segment, flat occupancy, per-lane lists, multilane?,
        # length, edge key) for one-lookup, attribute-free iteration of the
        # hot step; the lists are shared with the dicts above.  ``_ranked``
        # caches each multilane segment's vehicles in ascending (pos, vid)
        # order — the overtake ranking — which advance leaves intact except
        # on the rare steps that actually flip a pair.
        self._state_by_index: List[Tuple] = []
        #: per-edge overtake ranking (ascending (pos, vid) vehicle lists),
        #: indexed like _state_by_index; None for single-lane edges.
        self._ranked: List[Optional[List[Vehicle]]] = []
        self._edge_order: Dict[Tuple[object, object], int] = {}
        # Sorted indices (into _state_by_index) of edges carrying vehicles,
        # so the hot step never walks the empty part of the network.
        self._occupied: List[int] = []
        # Sorted subset of ``_occupied``: the multilane edges, maintained at
        # the same occupancy transitions — the fast tails consult it instead
        # of re-deriving watch eligibility per edge per step.
        self._occupied_ml: List[int] = []
        # Sparse: edges with vehicles waiting at the stop line, and those
        # vehicles themselves (always their lane's head).
        self._waiting: Dict[Tuple[object, object], List[Vehicle]] = {}
        for i, seg in enumerate(net.segments()):
            flat: List[int] = []
            lanes: List[List[Vehicle]] = [[] for _ in range(seg.lanes)]
            self._occupancy[seg.key] = flat
            self._segments[seg.key] = seg
            self._lanes[seg.key] = lanes
            self._state_by_index.append(
                (seg, flat, lanes, seg.lanes > 1, seg.length_m, seg.key)
            )
            self._ranked.append([] if seg.lanes > 1 else None)
            self._edge_order[seg.key] = i
        #: per-edge multilane flag, indexed like ``_state_by_index`` (the
        #: ``[3]`` tuple entry, hoisted for the occupancy-transition updates).
        self._edge_ml: List[bool] = [st[3] for st in self._state_by_index]

        # Resident structure-of-arrays state (vectorized engine only).  One
        # slot per vehicle currently inside, allocated from a free list and
        # grown by capacity doubling; ``_pos``/``_speed`` are the *source of
        # truth* for kinematics while the engine runs — the mirror fields on
        # the Vehicle objects are refreshed lazily (``_sync_kinematics``)
        # before any public read.  ``_freeflow``/``_seglen``/``_ml`` are
        # per-current-segment invariants rewritten on every placement;
        # ``_desired`` is fixed at spawn.  ``_gather_cache`` holds each
        # edge's gathered slot-index array (lane-major, front to back) and
        # ``_is_head`` its lane-head flags, both rebuilt only for edges whose
        # lane lists actually changed — so a step gathers stable array views
        # instead of re-packing per-vehicle attributes.
        self._capacity = 0
        self._next_slot = 0
        self._free_slots: List[int] = []
        self._slot_vehicle: List[Optional[Vehicle]] = []
        self._pos = np.empty(0, dtype=np.float64)
        self._speed = np.empty(0, dtype=np.float64)
        self._freeflow = np.empty(0, dtype=np.float64)
        self._seglen = np.empty(0, dtype=np.float64)
        self._desired = np.empty(0, dtype=np.float64)
        self._is_head = np.empty(0, dtype=bool)
        self._ml = np.empty(0, dtype=bool)
        #: mirror of ``waiting_since_s is not None`` per slot, so the fast
        #: advance can mask already-waiting vehicles without touching the
        #: Vehicle objects (cleared on every placement, set when a vehicle
        #: reaches a stop line).
        self._wait_flag = np.empty(0, dtype=bool)
        n_edges = len(self._state_by_index)
        self._gather_cache: List[Optional[np.ndarray]] = [None] * n_edges
        #: edges whose gather cache entry was invalidated since the last
        #: fast gather — processed (rebuilt) up front each step so the
        #: gather's per-edge walk is two plain list comprehensions.
        self._gather_dirty: Set[int] = set()
        #: per-edge gathered counts of the NumPy path's current step,
        #: aligned with ``_occupied`` (kept for the lazy watch-span
        #: computation).
        self._gather_counts: List[int] = []
        #: per-edge count of non-empty lanes and cumulative per-lane gather
        #: offsets (length ``lanes + 1``, empty lanes included), refreshed
        #: together with ``_gather_cache`` — the fast tails use them to skip
        #: overtake detection on segments whose vehicles all share one lane
        #: and to slice lane-change viability spans without walking lists.
        self._occ_lanes: List[int] = [0] * n_edges
        self._lane_bounds: List[List[int]] = [[0] for _ in range(n_edges)]
        #: per-edge overtake ranking slots (ascending (pos, vid)), kept
        #: index-parallel to ``_ranked``'s vehicle lists; None = dirty.
        self._ranked_cache: List[Optional[List[int]]] = [None] * n_edges
        #: fast-tail variant of ``_ranked_cache``: per-edge (slot array,
        #: vid array) pairs, so the overtake scan concatenates resident
        #: arrays and resolves positional ties vectorized; None = dirty.
        self._ranked_np: List[Optional[Tuple[np.ndarray, np.ndarray]]] = [None] * n_edges
        # Capacity-sized per-step scratch buffers (reallocated, not
        # preserved, on growth): the gather index vector, the advance
        # arrival/movement masks, the lane-change candidate mask and the
        # NumPy overtake scan's concat targets.  The compiled kernel binds
        # the first four once per capacity change, making each per-step
        # native call a cached-pointer invocation with only the count
        # varying.
        self._idx_buf = np.empty(0, dtype=np.intp)
        self._newly_buf = np.empty(0, dtype=bool)
        self._moved_buf = np.empty(0, dtype=bool)
        self._cand_buf = np.empty(0, dtype=bool)
        self._rank_buf = np.empty(0, dtype=np.intp)
        self._vid_buf = np.empty(0, dtype=np.int64)
        # Edge-count-sized (static) scratch: per-edge inversion flags out
        # of the compiled ranking scan.
        self._flags_buf = np.empty(n_edges, dtype=bool)
        # Pointer tables for the compiled kernel's full-edge sweeps: per-edge
        # address + length of the cached gather slot array and of the
        # cached ranking (slot, vid) arrays, plus the occupied-edge index
        # mirror and the per-edge ranking-scan eligibility byte.  Updated
        # only where the corresponding cache entry changes (a handful of
        # edges per step), so the steady-state gather and overtake scan
        # are each one bound native call with no per-edge Python walk.  The
        # NumPy path keeps the per-edge comprehension paths.
        self._gather_ptr = np.zeros(n_edges, dtype=np.int64)
        self._gather_len = np.zeros(n_edges, dtype=np.int64)
        self._occ_buf = np.zeros(n_edges, dtype=np.int64)
        self._occ_stale = True
        self._rank_ptr_s = np.zeros(n_edges, dtype=np.int64)
        self._rank_ptr_v = np.zeros(n_edges, dtype=np.int64)
        self._rank_len = np.zeros(n_edges, dtype=np.int64)
        self._rank_elig = np.zeros(n_edges, dtype=np.uint8)
        #: per-edge reusable buffers behind the pointer tables, all with
        #: *stable addresses* between reallocations: grow-only gather slot
        #: buffers, fixed-size lane-bounds arrays (cumulative per-lane
        #: gather offsets, ``lanes + 1`` int64 each) and grow-only ranking
        #: (slot, vid) buffers.  Rebuilds overwrite the prefix in place, so
        #: the per-rebuild cost is a bulk copy — no allocation and no
        #: ``.ctypes`` pointer extraction (both measurably dominate the
        #: rebuild otherwise); a table slot is rewritten only when its
        #: buffer actually grows.
        self._gather_bufs: List[Optional[np.ndarray]] = [None] * n_edges
        self._rank_sbufs: List[Optional[np.ndarray]] = [None] * n_edges
        self._rank_vbufs: List[Optional[np.ndarray]] = [None] * n_edges
        self._bounds_np: List[np.ndarray] = [
            np.zeros(st[0].lanes + 1, dtype=np.int64) for st in self._state_by_index
        ]
        self._bounds_ptr = np.array(
            [b.ctypes.data for b in self._bounds_np], dtype=np.int64
        )
        #: edges whose ranking-scan eligibility must be re-derived before
        #: the next pointer-table scan (cache invalidated or occupied-lane
        #: count changed).
        self._rank_dirty: Set[int] = set()
        if self._kernel is not None:
            self._bind_kernel()
        self._kinematics_stale = False
        #: event sink for the current step_batch() call (None => step()
        #: materializes scalar CrossingEvent objects).
        self._sink: Optional[StepBatch] = None

        self._policies: Dict[object, IntersectionPolicy] = {}
        self._next_vid = 0
        self._inside_nonpatrol = 0
        self._inside_patrol = 0
        self._spawned_nonpatrol = 0
        self._spawned_patrol = 0
        self.stats = EngineStats()

    @property
    def kernel_backend(self) -> str:
        """The step path that runs: ``"cc"``, ``"numpy"`` or ``"scalar"``."""
        if self._kernel is not None:
            return self._kernel.backend
        return "numpy" if self.vectorized else "scalar"

    @property
    def kernel_fallback_reason(self) -> Optional[str]:
        """Why the engine does not run the compiled kernel (None when it does)."""
        if self._kernel is not None:
            return None
        if not self.vectorized:
            return "vectorized=False selects the scalar reference engine"
        if not self.compiled:
            return "compiled=False"
        return fallback_reason()

    # ----------------------------------------------------------- configure
    def set_intersection_policy(self, node: object, policy: IntersectionPolicy) -> None:
        """Override the admission policy of one intersection (e.g. a roundabout)."""
        if not self.net.has_node(node):
            raise MobilityError(f"unknown intersection {node!r}")
        self._policies[node] = policy

    def policy_for(self, node: object) -> IntersectionPolicy:
        return self._policies.get(node, self.default_policy)

    # -------------------------------------------------------------- spawning
    def spawn_initial(self, specs: Iterable[VehicleSpec]) -> List[Vehicle]:
        """Place the t = 0 fleet at random positions along their first segments.

        No events are emitted: these vehicles are simply "already on the
        road" when counting starts, exactly the population the protocol must
        count.
        """
        placed = []
        for spec in specs:
            placed.append(self._insert(spec, via_gate=False, initial=True))
        return placed

    def spawn(self, spec: VehicleSpec) -> Tuple[Vehicle, List[TrafficEvent]]:
        """Insert one vehicle immediately (border arrival or scripted vehicle).

        Returns the vehicle and the events generated by the insertion (an
        :class:`EntryEvent` plus a :class:`CrossingEvent` when the vehicle
        comes in through a gate).
        """
        events: List[TrafficEvent] = []
        vehicle = self._insert(spec, via_gate=spec.via_gate, initial=False, events=events)
        return vehicle, events

    def spawn_patrol(self, router: Router, origin: object, *, speed_mps: Optional[float] = None) -> Vehicle:
        """Insert a police patrol car at ``origin`` following ``router``.

        Patrol cars are never counted; they ferry checkpoint statuses and
        collection reports (Theorem 3 / Alg. 4).
        """
        from ..surveillance.attributes import ExteriorSignature

        limits = [
            self.net.segment(origin, nbr).speed_limit_mps
            for nbr in self.net.outbound_neighbors(origin)
        ]
        spec = VehicleSpec(
            signature=ExteriorSignature(color="black", make="dodge", body_type="sedan"),
            desired_speed_mps=speed_mps if speed_mps is not None else max(limits),
            origin=origin,
            router=router,
            is_patrol=True,
        )
        return self._insert(spec, via_gate=False, initial=True)

    # -------------------------------------------------------- slot management
    def _alloc_slot(self, vehicle: Vehicle) -> int:
        """Assign the vehicle a slot in the resident arrays (vectorized)."""
        if self._free_slots:
            slot = self._free_slots.pop()
        else:
            slot = self._next_slot
            self._next_slot += 1
            if slot >= self._capacity:
                self._grow(max(_INITIAL_CAPACITY, 2 * self._capacity))
        self._slot_vehicle[slot] = vehicle
        vehicle.slot = slot
        self._desired[slot] = vehicle.desired_speed_mps
        return slot

    def _release_slot(self, vehicle: Vehicle) -> None:
        slot = vehicle.slot
        self._slot_vehicle[slot] = None
        self._free_slots.append(slot)
        vehicle.slot = -1

    def _grow(self, capacity: int) -> None:
        """Double the resident arrays to ``capacity`` (values preserved)."""
        extra = capacity - self._capacity
        pad = np.zeros(extra, dtype=np.float64)
        self._pos = np.concatenate((self._pos, pad))
        self._speed = np.concatenate((self._speed, pad))
        self._freeflow = np.concatenate((self._freeflow, pad))
        self._seglen = np.concatenate((self._seglen, pad))
        self._desired = np.concatenate((self._desired, pad))
        bpad = np.zeros(extra, dtype=bool)
        self._is_head = np.concatenate((self._is_head, bpad))
        self._ml = np.concatenate((self._ml, bpad))
        self._wait_flag = np.concatenate((self._wait_flag, bpad))
        self._slot_vehicle.extend([None] * extra)
        self._capacity = capacity
        self._idx_buf = np.empty(capacity, dtype=np.intp)
        self._newly_buf = np.empty(capacity, dtype=bool)
        self._moved_buf = np.empty(capacity, dtype=bool)
        self._cand_buf = np.empty(capacity, dtype=bool)
        self._rank_buf = np.empty(capacity, dtype=np.intp)
        self._vid_buf = np.empty(capacity, dtype=np.int64)
        if self._kernel is not None:
            self._bind_kernel()

    def _bind_kernel(self) -> None:
        """(Re-)bind the compiled kernel to the current resident arrays.

        Called whenever any bound array is reallocated (capacity growth);
        afterwards each step's native call passes only the element count.
        """
        kernel = self._kernel
        assert kernel is not None
        lc = self.lane_change
        kernel.bind(
            self._idx_buf,
            self._pos,
            self._speed,
            self._freeflow,
            self._seglen,
            self._is_head,
            self._wait_flag,
            self._newly_buf,
            self._moved_buf,
            self._desired,
            self._ml,
            self._cand_buf,
            lc.blocked_distance_m,
            lc.speed_gain_threshold_mps,
            self._flags_buf,
            occ_buf=self._occ_buf,
            gather_ptr=self._gather_ptr,
            gather_len=self._gather_len,
            rank_elig=self._rank_elig,
            rank_ptr_s=self._rank_ptr_s,
            rank_ptr_v=self._rank_ptr_v,
            rank_len=self._rank_len,
            bounds_ptr=self._bounds_ptr,
            gap_half_m=lc.required_gap_m / 2.0,
        )

    def _sync_kinematics(self) -> None:
        """Refresh the Vehicle mirrors of the resident kinematic arrays.

        Called lazily by the public accessors; the hot step never pays for
        it.  Values are copied bit for bit (plain ``float``), so anything
        reading ``Vehicle.pos_m`` / ``speed_mps`` afterwards sees exactly
        the state the reference engine would have stored.
        """
        if not self._kinematics_stale:
            return
        pos = self._pos
        speed = self._speed
        for v in self._vehicles.values():
            slot = v.slot
            v.pos_m = float(pos[slot])
            v.speed_mps = float(speed[slot])
        self._kinematics_stale = False

    # ------------------------------------------------ sorted-structure keys
    def _lane_sort_key(self, vehicle: Vehicle) -> Tuple[float, int]:
        """Front-to-back ordering within a lane: descending position."""
        return (-self._pos[vehicle.slot], vehicle.vid)

    def _rank_sort_key(self, vehicle: Vehicle) -> Tuple[float, int]:
        """Segment-wide overtake ranking: ascending position."""
        return (self._pos[vehicle.slot], vehicle.vid)

    def _insert(
        self,
        spec: VehicleSpec,
        *,
        via_gate: bool,
        initial: bool,
        events: Optional[List[TrafficEvent]] = None,
    ) -> Vehicle:
        if not self.net.has_node(spec.origin):
            raise MobilityError(f"vehicle origin {spec.origin!r} is not an intersection")
        vid = self._next_vid
        self._next_vid += 1
        vehicle = Vehicle(
            vid=vid,
            signature=spec.signature,
            desired_speed_mps=max(1.0, float(spec.desired_speed_mps)),
            router=spec.router,
            plan=spec.router.plan_from(spec.origin),
            is_patrol=spec.is_patrol,
            entered_at_s=self.time_s,
        )
        self._vehicles[vid] = vehicle
        if self.vectorized:
            self._alloc_slot(vehicle)
        self.stats.spawned += 1
        if spec.is_patrol:
            self._spawned_patrol += 1
            self._inside_patrol += 1
        else:
            self._spawned_nonpatrol += 1
            self._inside_nonpatrol += 1

        if via_gate:
            self.stats.entries += 1
            if events is not None:
                events.append(EntryEvent(time_s=self.time_s, vehicle=vehicle, gate_node=spec.origin))
            # Entering vehicles pass through the gate intersection immediately.
            next_node = spec.router.next_hop(spec.origin, vehicle.plan, previous=None)
            if events is not None:
                events.append(
                    CrossingEvent(
                        time_s=self.time_s,
                        vehicle=vehicle,
                        node=spec.origin,
                        from_node=None,
                        to_node=next_node,
                    )
                )
            self.stats.crossings += 1
            self._place(vehicle, spec.origin, next_node, pos_m=0.0)
        else:
            next_node = spec.router.next_hop(spec.origin, vehicle.plan, previous=None)
            seg = self.net.segment(spec.origin, next_node)
            pos = float(self.rng.uniform(0.0, seg.length_m * 0.9)) if initial else 0.0
            self._place(vehicle, spec.origin, next_node, pos_m=pos)
        return vehicle

    def _place(self, vehicle: Vehicle, tail: object, head: object, *, pos_m: float) -> None:
        seg = self._segments.get((tail, head))
        if seg is None:
            seg = self.net.segment(tail, head)  # raises MobilityError
        key = seg.key
        vehicle.edge = key
        vehicle.lane = int(self.rng.integers(seg.lanes))
        vehicle.pos_m = min(pos_m, seg.length_m)
        free = min(vehicle.desired_speed_mps, seg.speed_limit_mps)
        vehicle.speed_mps = free * 0.5
        vehicle.previous_node = tail
        vehicle.waiting_since_s = None
        flat = self._occupancy[key]
        flat.append(vehicle.vid)
        if self.vectorized:
            order = self._edge_order[key]
            if len(flat) == 1:
                insort(self._occupied, order)
                self._occ_stale = True
                if seg.lanes > 1:
                    insort(self._occupied_ml, order)
            slot = vehicle.slot
            self._pos[slot] = vehicle.pos_m
            self._speed[slot] = vehicle.speed_mps
            self._freeflow[slot] = free
            self._seglen[slot] = seg.length_m
            self._ml[slot] = seg.lanes > 1
            self._wait_flag[slot] = False
            lane_list = self._lanes[key][vehicle.lane]
            idx = bisect_left(
                lane_list, (-vehicle.pos_m, vehicle.vid), key=self._lane_sort_key
            )
            lane_list.insert(idx, vehicle)
            self._gather_cache[order] = None
            self._gather_dirty.add(order)
            ranked = self._ranked[order]
            if ranked is not None:
                insort(ranked, vehicle, key=self._rank_sort_key)
                self._ranked_cache[order] = None
                self._ranked_np[order] = None
                self._rank_elig[order] = 0
                self._rank_dirty.add(order)

    def _remove_from_edge(self, vehicle: Vehicle) -> None:
        edge = vehicle.edge
        flat = self._occupancy[edge]
        flat.remove(vehicle.vid)
        if self.vectorized:
            order = self._edge_order[edge]
            if not flat:
                del self._occupied[bisect_left(self._occupied, order)]
                self._occ_stale = True
                if self._edge_ml[order]:
                    del self._occupied_ml[bisect_left(self._occupied_ml, order)]
            # Materialize the departing vehicle's kinematics so exit events
            # and the departed pool carry its final state even though the
            # resident arrays are the in-run source of truth.
            slot = vehicle.slot
            vehicle.pos_m = float(self._pos[slot])
            vehicle.speed_mps = float(self._speed[slot])
            self._wait_flag[slot] = False
            self._lanes[edge][vehicle.lane].remove(vehicle)
            self._gather_cache[order] = None
            self._gather_dirty.add(order)
            ranked = self._ranked[order]
            if ranked is not None:
                ranked.remove(vehicle)
                self._ranked_cache[order] = None
                self._ranked_np[order] = None
                self._rank_elig[order] = 0
                self._rank_dirty.add(order)
            if vehicle.waiting_since_s is not None:
                queue = self._waiting[edge]
                queue.remove(vehicle)
                if not queue:
                    del self._waiting[edge]

    # --------------------------------------------------------------- queries
    @property
    def vehicles(self) -> Dict[int, Vehicle]:
        """Vehicles currently inside, by vid (kinematics freshly synced).

        The vectorized engine keeps positions and speeds in resident arrays
        during the step loop; this accessor refreshes the Vehicle mirrors
        before handing the mapping out, so external readers always see the
        exact per-vehicle state.  Engine internals use ``_vehicles``
        directly and read the arrays instead.
        """
        self._sync_kinematics()
        return self._vehicles

    def active_vehicles(self, *, include_patrol: bool = True) -> List[Vehicle]:
        """Vehicles currently inside the system (fresh list per call).

        Per-step bookkeeping should prefer :meth:`iter_active` (no list) or
        :meth:`active_count` (O(1)).
        """
        return list(self.iter_active(include_patrol=include_patrol))

    def iter_active(self, *, include_patrol: bool = True) -> Iterator[Vehicle]:
        """Iterate over the vehicles currently inside without building a list."""
        self._sync_kinematics()
        if include_patrol:
            return iter(self._vehicles.values())
        return (v for v in self._vehicles.values() if not v.is_patrol)

    def active_count(self, *, include_patrol: bool = True) -> int:
        """Number of vehicles currently inside (O(1), no list building)."""
        if include_patrol:
            return self._inside_nonpatrol + self._inside_patrol
        return self._inside_nonpatrol

    def inside_count(self) -> int:
        """Ground truth: number of non-patrol vehicles currently inside."""
        return self._inside_nonpatrol

    def departed_vehicles(self) -> List[Vehicle]:
        """Vehicles that have left the open system (fresh list per call)."""
        return list(self._departed.values())

    def iter_departed(self) -> Iterator[Vehicle]:
        """Iterate over departed vehicles without building a list."""
        return iter(self._departed.values())

    def total_spawned(self, *, include_patrol: bool = False) -> int:
        """Number of vehicles ever inserted (excluding patrol by default)."""
        if include_patrol:
            return self._spawned_nonpatrol + self._spawned_patrol
        return self._spawned_nonpatrol

    def occupancy(self, edge: Tuple[object, object]) -> List[Vehicle]:
        """Vehicles currently on ``edge`` (unspecified order)."""
        self._sync_kinematics()
        return [self._vehicles[vid] for vid in self._occupancy[edge]]

    # ------------------------------------------------------------------ step
    def step(self) -> List[TrafficEvent]:
        """Advance the world by one time step and return the events produced."""
        events: List[TrafficEvent] = []
        self._step_core(events)
        return events

    def step_batch(self) -> StepBatch:
        """Advance one time step, emitting events in batch form.

        The fast-path counterpart of :meth:`step` used by the batched
        pipeline: plain intersection crossings are appended to the returned
        :class:`~repro.mobility.events.StepBatch`'s parallel arrays (no
        per-crossing :class:`CrossingEvent` objects); irregular events —
        exits, overtakes — stay scalar objects in the same ordered stream.
        ``batch.iter_events()`` reproduces exactly what :meth:`step` would
        have returned.
        """
        batch = StepBatch(self.time_s)
        self._sink = batch
        try:
            self._step_core(batch.items)
        finally:
            self._sink = None
        return batch

    def _step_core(self, events: List) -> None:
        if self.vectorized:
            if self._tails == "legacy":
                self._advance_segments_batch_legacy(events)
            else:
                self._advance_segments_batch(events)
            self._process_intersections_indexed(events)
        else:
            self._advance_segments(events)
            self._process_intersections(events)
        self.time_s += self.dt_s
        self.stats.steps += 1

    def run(self, duration_s: float) -> List[TrafficEvent]:
        """Run for ``duration_s`` simulated seconds, returning all events."""
        steps = int(round(duration_s / self.dt_s))
        out: List[TrafficEvent] = []
        for _ in range(steps):
            out.extend(self.step())
        return out

    # ------------------------------------------- segment dynamics (batched)
    def _rebuild_gather(self, ei: int) -> np.ndarray:
        """Rebuild one edge's gathered slot array (and lane-head flags).

        Only called for edges whose lane lists changed since their last
        gather (place / removal / lane change); every other edge reuses its
        cached array, so the step's gather concatenates resident index
        arrays rather than re-packing per-vehicle attributes.
        """
        lanes = self._state_by_index[ei][2]
        is_head = self._is_head
        slots: List[int] = []
        occupied_lanes = 0
        bounds = [0]
        for lane_list in lanes:
            if lane_list:
                occupied_lanes += 1
                head = True
                for v in lane_list:
                    is_head[v.slot] = head
                    head = False
                    slots.append(v.slot)
            bounds.append(len(slots))
        k = len(slots)
        buf = self._gather_bufs[ei]
        if buf is None or buf.shape[0] < k:
            buf = np.empty(max(4, k, 0 if buf is None else 2 * buf.shape[0]),
                           dtype=np.intp)
            self._gather_bufs[ei] = buf
            self._gather_ptr[ei] = buf.ctypes.data
        part = buf[:k]
        part[:] = slots
        self._gather_cache[ei] = part
        self._gather_len[ei] = k
        self._bounds_np[ei][:] = bounds
        self._occ_lanes[ei] = occupied_lanes
        self._lane_bounds[ei] = bounds
        if self._kernel is not None and self._edge_ml[ei]:
            # The occupied-lane count gates ranking-scan eligibility;
            # re-derive it before the next pointer-table scan.
            self._rank_dirty.add(ei)
        return part

    def _advance_segments_batch(self, events: List[TrafficEvent]) -> None:
        """Advance every occupied segment — fast tails, compiled kernel.

        Gather and lane changes as in the legacy path (cached per-edge slot
        arrays; vectorized blocked-follower predicate; scalar-RNG-order
        target-lane choice, with viability checked on sliced position spans
        instead of lane-list walks).  The advance itself then takes one of
        two equivalent forms:

        * **compiled kernel** (``MobilityConfig.compiled``, the default, and
          cc loaded; lane changes take the pointer-table pass
          :meth:`_lane_change_batch_table`): a single native call sweeps the
          gather order updating the resident position/speed arrays *in
          place* — each follower naturally reads its leader's
          already-written post-step state, so the whole front-to-back
          recurrence runs in one pass with no classify/rounds machinery,
          returning the arrival and movement masks;
        * **NumPy**: the legacy classify / exact-rounds / scalar-tail
          resolution, with the arrival bookkeeping folded into one
          vectorized pass over the ``_wait_flag`` mirror.

        Both produce bit-identical state and events (golden-trace pinned).
        Overtake detection afterwards skips multilane segments whose
        vehicles currently share a single lane: car following preserves
        strict in-lane (position, vid) order and never creates ties (a
        follower's position ceiling stays strictly below its leader), and
        lane changes never move vehicles longitudinally — so a one-lane
        ranking cannot invert.
        """
        dt = self.dt_s
        cf = self.car_following
        n = self._gather_fast()
        if n == 0:
            return
        idx = self._idx_buf[:n]
        # Any occupied multilane edge means lane changes / overtakes are in
        # play this step; single-vehicle multilane edges cost nothing extra
        # (their lone vehicle is a lane head, so it can never be a
        # candidate, and the overtake scan skips one-lane occupancies).
        watching = self.allow_overtaking and bool(self._occupied_ml)

        pos_a = self._pos
        speed_a = self._speed
        wait_flag = self._wait_flag
        kernel = self._kernel
        if kernel is not None:
            # The kernel path never gathers kinematic columns: the
            # candidate mask comes from the compiled predicate over the
            # resident arrays, and lane-change viability from one bound
            # pointer-table call per candidate.
            if (
                watching
                and kernel.candidates_bound(n)
                and self._lane_change_batch_table(idx, self._cand_buf[:n])
            ):
                # Accepted moves re-ordered some lanes: rebuild their
                # caches and redo the whole gather with one bound table
                # call (values outside the patched edges are rewritten
                # unchanged, so the result is identical to span patching).
                cache = self._gather_cache
                dirty = self._gather_dirty
                for di in dirty:
                    if cache[di] is None:
                        self._rebuild_gather(di)
                dirty.clear()
                kernel.gather_bound(len(self._occupied))
            # One native call: in-place resident-array sweep in gather
            # order (the exact reference recurrence), arrival/movement
            # masks out.  The return value is the newly-arrived count, so
            # the no-arrival common case skips the mask reduction too.
            n_newly = kernel.advance_bound(n)
            newly = self._newly_buf[:n] if n_newly else None
        else:
            pos = pos_a[idx]
            speed = speed_a[idx]
            if watching:
                lc = self.lane_change
                desired = self._desired[idx]
                cand = np.zeros(n, dtype=bool)
                cand[1:] = ((pos[:-1] - pos[1:]) <= lc.blocked_distance_m) & (
                    (desired[1:] - speed[:-1]) > lc.speed_gain_threshold_mps
                )
                cand &= self._ml[idx] & ~self._is_head[idx]
                if cand.any():
                    watch_ei, w_lo, w_hi = self._watch_spans()
                    patched = self._lane_change_batch(
                        idx, cand, pos, watch_ei, w_lo, w_hi
                    )
                    for ei, s, e in patched:
                        part = self._rebuild_gather(ei)
                        idx[s:e] = part
                        pos[s:e] = pos_a[part]
                        speed[s:e] = speed_a[part]
            free = self._freeflow[idx]
            length = self._seglen[idx]
            heads = self._is_head[idx]

            vfree = cf.batch_free_speed(speed, free, dt)
            cand_speed = np.maximum(0.0, vfree)
            cand_raw = pos + cand_speed * dt
            cand_pos = np.minimum(cand_raw, length)

            unconstrained_f, stopped_f = cf.batch_classify(
                pos[1:], vfree[1:], cand_raw[1:], pos[:-1], cand_pos[:-1], dt
            )
            stopped = np.zeros(n, dtype=bool)
            stopped[1:] = stopped_f
            stopped[heads] = False
            resolved = np.empty(n, dtype=bool)
            resolved[0] = False
            resolved[1:] = unconstrained_f | stopped_f
            resolved[heads] = True

            new_pos = np.where(stopped, pos, cand_pos)
            new_speed = np.where(stopped, 0.0, cand_speed)

            residual = np.nonzero(~resolved)[0]
            while residual.size > 24:
                ready = resolved[residual - 1]
                if not ready.any():
                    break
                ridx = residual[ready]
                lidx = ridx - 1
                new_pos[ridx], new_speed[ridx] = cf.batch_follow(
                    pos[ridx], vfree[ridx], new_pos[lidx], new_speed[lidx],
                    length[ridx], dt,
                )
                resolved[ridx] = True
                residual = residual[~ready]

            if residual.size:
                follow = cf.follow_scalar
                for i in residual.tolist():
                    new_pos[i], new_speed[i] = follow(
                        pos[i], vfree[i], new_pos[i - 1], new_speed[i - 1],
                        length[i], dt,
                    )

            # All arrivals in one vectorized pass: ``_wait_flag`` mirrors
            # ``waiting_since_s is not None``, so no per-vehicle probing.
            newly = (new_pos >= length - _ARRIVAL_EPS_M) & ~wait_flag[idx]
            if not newly.any():
                newly = None
            pos_a[idx] = new_pos
            speed_a[idx] = new_speed

        if newly is not None:
            time_s = self.time_s
            waiting = self._waiting
            slot_vehicle = self._slot_vehicle
            for slot in idx[newly].tolist():
                v = slot_vehicle[slot]
                assert v is not None
                v.waiting_since_s = time_s
                wait_flag[slot] = True
                waiting.setdefault(v.edge, []).append(v)

        self._kinematics_stale = True

        if watching:
            self._detect_overtakes_fast(events)

    def _advance_segments_batch_legacy(self, events: List[TrafficEvent]) -> None:
        """Pre-kernel batch advance, kept verbatim as the benchmark baseline.

        This is the classify/rounds/scalar-tail formulation the fast path
        (:meth:`_advance_segments_batch`) replaced; ``_tails = "legacy"``
        selects it so ``benchmarks/bench_irregular.py`` can measure the
        fast tails against their immediate predecessor in the same build.

        Gather: concatenate the per-edge cached slot-index arrays (lane
        lists are maintained in front-to-back order, so a follower's in-lane
        leader is simply the previous gather index) and read the kinematic
        columns straight out of the resident arrays — no per-vehicle
        attribute packing.  Lane changes: the blocked-follower predicate is
        evaluated vectorized over the gathered columns; only actual
        candidates run the scalar target-lane logic (RNG order identical to
        the reference scan).  Advance: compute every vehicle's free-flow
        candidate vectorized, resolve the provably unconstrained and
        provably stopped followers vectorized (see
        :meth:`SimplifiedIDM.batch_classify`), settle remaining followers
        whose leader is final in exact vectorized rounds, and run the scalar
        front-to-back recurrence only for the short chained tail at queue
        boundaries.  Scatter: one bulk write back into the resident arrays
        and flag newly waiting vehicles for the intersection index.
        """
        dt = self.dt_s
        cf = self.car_following
        # Edge index and gather span of every multilane segment eligible for
        # lane changes, whose position ranking must be checked after the
        # advance (three parallel lists — built once per step).
        watch_ei: List[int] = []
        w_lo: List[int] = []
        w_hi: List[int] = []
        idx = self._gather(watch_ei if self.allow_overtaking else None, w_lo, w_hi)
        if idx is None:
            return
        n = idx.shape[0]

        pos_a = self._pos
        speed_a = self._speed
        pos = pos_a[idx]
        speed = speed_a[idx]

        if watch_ei:
            patched = self._lane_change_batch_legacy(idx, pos, speed, watch_ei, w_lo, w_hi)
            if patched:
                # Accepted moves re-ordered some lanes: patch only those
                # segments' gather spans in place (lane changes never move
                # vehicles across segments or along them, so the spans and
                # every other column entry are unchanged).
                for ei, s, e in patched:
                    part = self._rebuild_gather(ei)
                    idx[s:e] = part
                    span = idx[s:e]
                    pos[s:e] = pos_a[span]
                    speed[s:e] = speed_a[span]

        free = self._freeflow[idx]
        length = self._seglen[idx]
        heads = self._is_head[idx]

        vfree = cf.batch_free_speed(speed, free, dt)
        cand_speed = np.maximum(0.0, vfree)
        cand_raw = pos + cand_speed * dt
        cand_pos = np.minimum(cand_raw, length)

        # The vehicle at gather index i-1 is the in-lane leader of every
        # non-head vehicle i, so plain shifted views bound its post-step
        # position: below by its pre-step position, above by its candidate.
        unconstrained_f, stopped_f = cf.batch_classify(
            pos[1:], vfree[1:], cand_raw[1:], pos[:-1], cand_pos[:-1], dt
        )
        stopped = np.zeros(n, dtype=bool)
        stopped[1:] = stopped_f
        stopped[heads] = False
        resolved = np.empty(n, dtype=bool)
        resolved[0] = False
        resolved[1:] = unconstrained_f | stopped_f
        resolved[heads] = True

        new_pos = np.where(stopped, pos, cand_pos)
        new_speed = np.where(stopped, 0.0, cand_speed)

        residual = np.nonzero(~resolved)[0]
        while residual.size > 24:
            # Exact vectorized rounds: residual followers whose leader is
            # already resolved see its final state, so their update is
            # computable in one batch; every pass peels one chain depth and
            # only short chained tails stay scalar.
            ready = resolved[residual - 1]
            if not ready.any():
                break
            ridx = residual[ready]
            lidx = ridx - 1
            new_pos[ridx], new_speed[ridx] = cf.batch_follow(
                pos[ridx], vfree[ridx], new_pos[lidx], new_speed[lidx],
                length[ridx], dt,
            )
            resolved[ridx] = True
            residual = residual[~ready]

        time_s = self.time_s
        waiting = self._waiting
        slot_vehicle = self._slot_vehicle
        if residual.size:
            # The residual set is a handful of queue-boundary vehicles, so
            # scalar NumPy indexing beats materializing whole columns; the
            # in-lane leader i-1 of a residual i is always final by the time
            # i is processed (residual indices stay ascending).
            follow = cf.follow_scalar
            for i in residual.tolist():
                length_i = length[i]
                p, s = follow(
                    pos[i], vfree[i], new_pos[i - 1], new_speed[i - 1],
                    length_i, dt,
                )
                new_pos[i] = p
                new_speed[i] = s
                if p >= length_i - _ARRIVAL_EPS_M:
                    v = slot_vehicle[int(idx[i])]
                    if v.waiting_since_s is None:
                        v.waiting_since_s = time_s
                        waiting.setdefault(v.edge, []).append(v)

        arrived = resolved & (new_pos >= length - _ARRIVAL_EPS_M)
        if arrived.any():
            for slot in idx[arrived].tolist():
                v = slot_vehicle[slot]
                if v.waiting_since_s is None:
                    v.waiting_since_s = time_s
                    waiting.setdefault(v.edge, []).append(v)

        # Scatter: one bulk write into the resident arrays.  Stopped
        # vehicles carry their exact prior bits through np.where, so the
        # blanket write is bitwise identical to skipping them.
        moved = new_pos != pos
        pos_a[idx] = new_pos
        self._speed[idx] = new_speed
        self._kinematics_stale = True

        if watch_ei:
            self._detect_overtakes_batch(
                watch_ei, w_lo, w_hi, moved, int(moved.sum()), events
            )

    def _gather(
        self,
        watch_ei: Optional[List[int]],
        w_lo: List[int],
        w_hi: List[int],
    ) -> Optional[np.ndarray]:
        """Flatten the occupied edges' cached slot lists, in edge order.

        When ``watch_ei`` is a list, the multilane segments eligible for
        lane changes / overtake checks are recorded in the three parallel
        span lists (edge index, gather start, gather end).  One
        ``np.concatenate`` over the resident per-edge arrays scales to
        city-size networks: flattening through a Python list first costs
        O(vehicles) interpreter-level appends per step, which dominated the
        gather at 100k vehicles.
        """
        parts: List[np.ndarray] = []
        cache = self._gather_cache
        rebuild = self._rebuild_gather
        if watch_ei is None:
            for ei in self._occupied:
                part = cache[ei]
                if part is None:
                    part = rebuild(ei)
                parts.append(part)
        else:
            state_by_index = self._state_by_index
            base = 0
            for ei in self._occupied:
                part = cache[ei]
                if part is None:
                    part = rebuild(ei)
                count = part.shape[0]
                if count > 1 and state_by_index[ei][3]:  # multilane
                    watch_ei.append(ei)
                    w_lo.append(base)
                    w_hi.append(base + count)
                parts.append(part)
                base += count
        if not parts:
            return None
        out = np.concatenate(parts)
        if out.shape[0] == 0:
            return None
        return out

    def _gather_fast(self) -> int:
        """Buffer-backed :meth:`_gather`: flatten into ``_idx_buf``.

        Same edge walk, restructured for constant-factor speed: edges whose
        cache was invalidated since the last gather (``_gather_dirty``) are
        rebuilt up front, so the walk itself is two plain list
        comprehensions plus one ``np.concatenate`` into the persistent
        capacity-sized index buffer the compiled kernel is pointer-bound
        to.  No watch-span bookkeeping here — most steps never need it, so
        spans are derived lazily (:meth:`_watch_spans`) from the per-edge
        counts this method records.  Returns the gathered element count
        (0 = nothing occupied).
        """
        cache = self._gather_cache
        dirty = self._gather_dirty
        if dirty:
            rebuild = self._rebuild_gather
            for ei in dirty:
                if cache[ei] is None:
                    rebuild(ei)
            dirty.clear()
        kernel = self._kernel
        if kernel is not None:
            # One bound native call walks the pointer table; the Python
            # side only refreshes the occupied-edge mirror when membership
            # actually changed.
            occupied = self._occupied
            m = len(occupied)
            if self._occ_stale:
                self._occ_buf[:m] = occupied
                self._occ_stale = False
            return kernel.gather_bound(m)
        parts = cast("List[np.ndarray]", [cache[ei] for ei in self._occupied])
        counts = [part.shape[0] for part in parts]
        self._gather_counts = counts
        total = sum(counts)
        if total:
            np.concatenate(parts, out=self._idx_buf[:total])
        return total

    def _watch_spans(self) -> Tuple[List[int], List[int], List[int]]:
        """Gather spans of the watched (multilane, >1 vehicle) segments.

        Derived on demand from the per-edge counts of the current NumPy
        gather — only the steps with actual lane-change candidates pay for
        the span walk.
        """
        watch_ei: List[int] = []
        w_lo: List[int] = []
        w_hi: List[int] = []
        ml = self._edge_ml
        base = 0
        for ei, count in zip(self._occupied, self._gather_counts):
            nxt = base + count
            if count > 1 and ml[ei]:
                watch_ei.append(ei)
                w_lo.append(base)
                w_hi.append(nxt)
            base = nxt
        return watch_ei, w_lo, w_hi

    def _lane_change_batch(
        self,
        idx: np.ndarray,
        cand: np.ndarray,
        pos: np.ndarray,
        watch_ei: List[int],
        w_lo: List[int],
        w_hi: List[int],
    ) -> List[Tuple[int, int, int]]:
        """Fast lane-change pass: span-sliced viability checks.

        Same structure and RNG order as :meth:`_lane_change_batch_legacy`
        (candidates visited in gather order, per-segment pending moves
        applied at the segment boundary), but driven by a precomputed
        gather-aligned candidate mask — the caller's NumPy blocked-follower
        predicate — and each candidate's target-lane viability is evaluated
        on a slice of the segment's position span (``pos``, the gathered
        pre-advance position column; the per-edge ``_lane_bounds`` offsets
        delimit each lane's sub-span) instead of walking the lane lists.
        The viability comparison (``|other - own| < half``) is the same
        float operation sequence as the scalar model, so decisions are
        bit-for-bit the same.
        """
        patched: List[Tuple[int, int, int]] = []
        slot_vehicle = self._slot_vehicle
        state_by_index = self._state_by_index
        lane_bounds = self._lane_bounds
        rng = self.rng
        wi = 0
        ei = watch_ei[0]
        span_start = w_lo[0]
        span_end = w_hi[0]
        st = state_by_index[ei]
        seg = st[0]
        lanes = st[2]
        bounds = lane_bounds[ei]
        span_pos: Optional[np.ndarray] = None
        pending: List[Tuple[Vehicle, int]] = []
        for i in cand.nonzero()[0].tolist():
            if i >= span_end:
                if pending:
                    self._apply_lane_moves(ei, lanes, pending)
                    patched.append((ei, span_start, span_end))
                    pending = []
                while w_hi[wi] <= i:
                    wi += 1
                ei = watch_ei[wi]
                span_start = w_lo[wi]
                span_end = w_hi[wi]
                st = state_by_index[ei]
                seg = st[0]
                lanes = st[2]
                bounds = lane_bounds[ei]
                span_pos = None
            if span_pos is None:
                span_pos = pos[span_start:span_end]
            v = slot_vehicle[int(idx[i])]
            target = self._target_lane_fast(v, seg.lanes, bounds, span_pos, rng)
            if target is not None:
                pending.append((v, target))
        if pending:
            self._apply_lane_moves(ei, lanes, pending)
            patched.append((ei, span_start, span_end))
        return patched

    def _lane_change_batch_table(self, idx: np.ndarray, cand: np.ndarray) -> bool:
        """Pointer-table lane-change pass (compiled kernel).

        Same candidate order, RNG consumption and per-segment move
        batching as :meth:`_lane_change_batch`, with two structural
        differences: segment boundaries come from each candidate vehicle's
        own edge (the gather is edge-block-ordered, so grouping is
        identical and no watch spans are needed), and target-lane
        viability is one bound native call per candidate reading the
        gather and lane-bounds tables (:func:`lane_options_py` is the
        reference; the gap comparison is the scalar model's exact float
        sequence).  Returns whether any segment's lane order changed — the
        caller then redoes the gather through the pointer table instead of
        span patching.
        """
        slot_vehicle = self._slot_vehicle
        state_by_index = self._state_by_index
        edge_order = self._edge_order
        pos_a = self._pos
        lc = self.lane_change
        politeness = lc.politeness
        kernel = self._kernel
        assert kernel is not None
        lane_opts = kernel.lane_opts_bound
        rng = self.rng
        cur = -1
        seg_lanes = 0
        lanes: List[List[Vehicle]] = []
        pending: List[Tuple[Vehicle, int]] = []
        patched = False
        for i in cand.nonzero()[0].tolist():
            v = slot_vehicle[int(idx[i])]
            assert v is not None
            ei = edge_order[v.edge]
            if ei != cur:
                if pending:
                    self._apply_lane_moves(cur, lanes, pending)
                    pending = []
                    patched = True
                cur = ei
                st = state_by_index[ei]
                seg_lanes = st[0].lanes
                lanes = st[2]
            # Inline scalar target-lane choice: politeness veto first (one
            # uniform per candidate, like the reference scan), then the
            # both-neighbour viability bits, then the tie draw only when
            # both neighbours are viable — identical RNG stream.
            if rng.random() < politeness:
                continue
            opts = lane_opts(ei, v.lane, seg_lanes, float(pos_a[v.slot]))
            if opts == 0:
                continue
            if opts == 3:
                target = v.lane + 1 if int(rng.integers(2)) == 0 else v.lane - 1
            elif opts == 1:
                target = v.lane + 1
            else:
                target = v.lane - 1
            pending.append((v, target))
        if pending:
            self._apply_lane_moves(cur, lanes, pending)
            patched = True
        return patched

    def _target_lane_fast(
        self,
        vehicle: Vehicle,
        seg_lanes: int,
        bounds: List[int],
        span_pos: np.ndarray,
        rng: np.random.Generator,
    ) -> Optional[int]:
        """Span-sliced port of :meth:`LaneChangeModel.target_lane`.

        ``span_pos`` holds the segment's gathered (pre-advance) positions,
        lane-major; ``bounds[l] : bounds[l + 1]`` is lane ``l``'s sub-span.
        Viability of an adjacent lane is one vectorized gap test over that
        slice.  RNG draws (politeness first, then the two-candidate
        tie-break) and candidate order are identical to the model's scalar
        scan, which the engine-mode agreement tests pin.
        """
        lc = self.lane_change
        if seg_lanes < 2:
            return None
        if rng.random() < lc.politeness:
            return None
        own = self._pos[vehicle.slot]
        half = lc.required_gap_m / 2.0
        candidates = []
        for delta in (1, -1):
            lane = vehicle.lane + delta
            if 0 <= lane < seg_lanes:
                others = span_pos[bounds[lane] : bounds[lane + 1]]
                if not (np.abs(others - own) < half).any():
                    candidates.append(lane)
        if not candidates:
            return None
        return int(
            candidates[0]
            if len(candidates) == 1
            else candidates[int(rng.integers(len(candidates)))]
        )

    def _lane_change_batch_legacy(
        self,
        idx: np.ndarray,
        pos: np.ndarray,
        speed: np.ndarray,
        watch_ei: List[int],
        w_lo: List[int],
        w_hi: List[int],
    ) -> List[Tuple[int, int, int]]:
        """Vectorized lane-change pass over the gathered columns.

        The blocked-follower predicate of
        :meth:`LaneChangeModel.wants_to_change` is evaluated in one shot —
        a follower's in-lane leader is gather index ``i-1`` — and must stay
        boolean-identical to the scalar model (the engine-mode agreement
        tests fail on divergence).  Candidates then run the scalar
        target-lane choice in gather order, which is exactly the reference
        engine's segment-by-segment, lane-by-lane, front-to-back scan order,
        so the RNG stream is consumed identically.  Decisions within a
        segment read the pre-change lane lists (the reference pass applies
        its moves only after scanning the whole segment), so accepted moves
        are buffered per segment and applied at the segment boundary.
        Returns the ``(edge index, start, end)`` gather spans of the
        segments whose lane order actually changed.
        """
        lc = self.lane_change
        desired = self._desired[idx]
        n = idx.shape[0]
        cand = np.zeros(n, dtype=bool)
        cand[1:] = ((pos[:-1] - pos[1:]) <= lc.blocked_distance_m) & (
            (desired[1:] - speed[:-1]) > lc.speed_gain_threshold_mps
        )
        cand &= self._ml[idx] & ~self._is_head[idx]
        patched: List[Tuple[int, int, int]] = []
        if not cand.any():
            return patched
        slot_vehicle = self._slot_vehicle
        state_by_index = self._state_by_index
        rng = self.rng
        wi = 0
        ei = watch_ei[0]
        span_start = w_lo[0]
        span_end = w_hi[0]
        st = state_by_index[ei]
        seg = st[0]
        lanes = st[2]
        pending: List[Tuple[Vehicle, int]] = []
        for i in cand.nonzero()[0].tolist():
            if i >= span_end:
                if pending:
                    self._apply_lane_moves(ei, lanes, pending)
                    patched.append((ei, span_start, span_end))
                    pending = []
                while w_hi[wi] <= i:
                    wi += 1
                ei = watch_ei[wi]
                span_start = w_lo[wi]
                span_end = w_hi[wi]
                st = state_by_index[ei]
                seg = st[0]
                lanes = st[2]
            v = slot_vehicle[int(idx[i])]
            target = self._target_lane_soa(v, seg.lanes, lanes, rng)
            if target is not None:
                pending.append((v, target))
        if pending:
            self._apply_lane_moves(ei, lanes, pending)
            patched.append((ei, span_start, span_end))
        return patched

    def _target_lane_soa(
        self,
        vehicle: Vehicle,
        seg_lanes: int,
        lanes: List[List[Vehicle]],
        rng: np.random.Generator,
    ) -> Optional[int]:
        """Resident-array port of :meth:`LaneChangeModel.target_lane`.

        Reads positions from the resident arrays instead of the (stale
        during the step) Vehicle mirrors; RNG draws and candidate order are
        identical to the model, which the engine-mode agreement tests pin.
        """
        lc = self.lane_change
        if seg_lanes < 2:
            return None
        if rng.random() < lc.politeness:
            return None
        pos = self._pos
        own = pos[vehicle.slot]
        half = lc.required_gap_m / 2.0
        candidates = []
        for delta in (1, -1):
            lane = vehicle.lane + delta
            if 0 <= lane < seg_lanes:
                for other in lanes[lane]:
                    if abs(pos[other.slot] - own) < half:
                        break
                else:
                    candidates.append(lane)
        if not candidates:
            return None
        return int(
            candidates[0]
            if len(candidates) == 1
            else candidates[int(rng.integers(len(candidates)))]
        )

    def _apply_lane_moves(
        self,
        ei: int,
        lanes: List[List[Vehicle]],
        moves: List[Tuple[Vehicle, int]],
    ) -> None:
        """Apply one segment's accepted lane changes to its sorted lists."""
        pos = self._pos
        for v, target in moves:
            lanes[v.lane].remove(v)
            v.lane = target
            target_list = lanes[target]
            i = bisect_left(
                target_list, (-pos[v.slot], v.vid), key=self._lane_sort_key
            )
            target_list.insert(i, v)
        self._gather_cache[ei] = None
        self._gather_dirty.add(ei)

    def _detect_overtakes_fast(self, events: List[TrafficEvent]) -> None:
        """Post-step overtake scan over resident per-edge ranking arrays.

        Same contract as :meth:`_detect_overtakes_batch` — confirm each
        watched segment's cached ascending (position, vid) ranking, emit
        flipped pairs where it inverted — with three structural savings:
        segments whose vehicles currently share a single lane are skipped
        (``_occ_lanes``; a one-lane ranking cannot invert, see
        :meth:`_advance_segments_batch`), the per-edge rankings are cached
        as (slot, vid) array pairs concatenated into persistent buffers,
        and positional ties resolve their vid comparison vectorized against
        the cached vid arrays instead of per-pair Python lookups — ties are
        routine (queues clamp at the stop line), inversions are not, so the
        common step is a pure array scan with no Python per-tie work.
        The watched set is ``_occupied_ml`` directly (its ordering is the
        gather's edge ordering, so cross-edge event order is unchanged);
        comprehension-driven, with invalidated cache pairs repaired in a
        short second pass (typically one or two edges per step).
        """
        occ = self._occ_lanes
        cache = self._ranked_np
        kernel = self._kernel
        if kernel is not None:
            # Pointer-table scan: repair the dirty eligibility entries
            # (ranking cache invalidated or occupied-lane count changed —
            # a handful of edges per step), then one bound native call
            # sweeps every edge.  ``elig`` encodes exactly the watched set
            # of the packed path: multilane, more than one occupied lane,
            # ranking cache fresh with its table slot current.
            dirty = self._rank_dirty
            if dirty:
                ranked_l = self._ranked
                elig = self._rank_elig
                ptr_s = self._rank_ptr_s
                ptr_v = self._rank_ptr_v
                rlen = self._rank_len
                sbufs = self._rank_sbufs
                vbufs = self._rank_vbufs
                for di in dirty:
                    if occ[di] > 1:
                        pair = cache[di]
                        if pair is None:
                            chain = ranked_l[di]
                            assert chain is not None
                            k = len(chain)
                            sb = sbufs[di]
                            vb = vbufs[di]
                            if sb is None or vb is None or sb.shape[0] < k:
                                cap = max(4, k, 0 if sb is None else 2 * sb.shape[0])
                                sb = np.empty(cap, dtype=np.intp)
                                vb = np.empty(cap, dtype=np.int64)
                                sbufs[di] = sb
                                vbufs[di] = vb
                                ptr_s[di] = sb.ctypes.data
                                ptr_v[di] = vb.ctypes.data
                            sb[:k] = [v.slot for v in chain]
                            vb[:k] = [v.vid for v in chain]
                            rlen[di] = k
                            cache[di] = (sb[:k], vb[:k])
                        elig[di] = 1
                    else:
                        elig[di] = 0
                dirty.clear()
            if not kernel.rank_all_bound():
                return
            ranked_l = self._ranked
            for ei in np.nonzero(self._flags_buf)[0].tolist():
                chain = ranked_l[ei]
                assert chain is not None
                ranked_l[ei] = self._emit_overtakes(ei, chain, events)
            return
        eis = [ei for ei in self._occupied_ml if occ[ei] > 1]
        if not eis:
            return
        raw = [cache[ei] for ei in eis]
        if None in raw:
            ranked = self._ranked
            for j, entry in enumerate(raw):
                if entry is None:
                    chain = ranked[eis[j]]
                    assert chain is not None
                    entry = (
                        np.array([v.slot for v in chain], dtype=np.intp),
                        np.array([v.vid for v in chain], dtype=np.int64),
                    )
                    cache[eis[j]] = entry
                    raw[j] = entry
        pairs = cast("List[Tuple[np.ndarray, np.ndarray]]", raw)
        parts_s = [pair[0] for pair in pairs]
        parts_v = [pair[1] for pair in pairs]
        lens = [part.shape[0] for part in parts_s]
        ranked = self._ranked
        if len(eis) == 1:
            slots_all = parts_s[0]
            vids_all = parts_v[0]
        else:
            total = sum(lens)
            slots_all = self._rank_buf[:total]
            vids_all = self._vid_buf[:total]
            np.concatenate(parts_s, out=slots_all)
            np.concatenate(parts_v, out=vids_all)
        arr = self._pos[slots_all]
        prev = arr[:-1]
        nxt = arr[1:]
        bad = nxt < prev
        # A positional tie is an inversion when the vid order disagrees.
        ties = nxt == prev
        np.logical_and(ties, vids_all[:-1] > vids_all[1:], out=ties)
        np.logical_or(bad, ties, out=bad)
        bounds = np.cumsum(lens)
        bad[bounds[:-1] - 1] = False
        hits = np.nonzero(bad)[0]
        if hits.size == 0:
            return
        for j in np.unique(np.searchsorted(bounds, hits, side="right")).tolist():
            ei = eis[j]
            chain = ranked[ei]
            assert chain is not None
            ranked[ei] = self._emit_overtakes(ei, chain, events)

    def _detect_overtakes_batch(
        self,
        watch_ei: List[int],
        w_lo: List[int],
        w_hi: List[int],
        moved: np.ndarray,
        n_moved: int,
        events: List[TrafficEvent],
    ) -> None:
        """Check every watched segment's cached overtake ranking, post-step.

        ``_ranked`` holds each multilane segment's vehicles in ascending
        (position, vid) order; car following preserves in-lane order and
        lane changes do not move vehicles longitudinally, so the cache stays
        valid across steps and one vectorized monotonicity scan of the
        post-step positions confirms it.  Segments where nothing moved this
        step are filtered out wholesale first; only segments where the scan
        finds an inversion — an actual overtake — enumerate their flipped
        pairs (in the reference engine's insertion-order pair sequence) and
        re-sort their cache.
        """
        if len(watch_ei) > 1 and n_moved * 2 < moved.size:
            # Mostly-jammed network: drop the watched segments where nothing
            # moved at all (their ranking trivially cannot have changed).
            csum = np.concatenate(([0], np.cumsum(moved)))
            any_moved = csum[np.array(w_hi)] > csum[np.array(w_lo)]
            if not any_moved.all():
                watch_ei = [ei for ei, m in zip(watch_ei, any_moved.tolist()) if m]
                if not watch_ei:
                    return
        ranked = self._ranked
        ranked_cache = self._ranked_cache
        flat: List[int] = []
        lens: List[int] = []
        for ei in watch_ei:
            part = ranked_cache[ei]
            if part is None:
                part = [v.slot for v in ranked[ei]]
                ranked_cache[ei] = part
            flat += part
            lens.append(len(part))
        arr = self._pos[np.array(flat, dtype=np.intp)]
        inverted = arr[1:] < arr[:-1]
        bounds = np.cumsum(lens)
        inverted[bounds[:-1] - 1] = False
        flagged = set(np.searchsorted(bounds, np.nonzero(inverted)[0], side="right").tolist())
        ties = arr[1:] == arr[:-1]
        ties[bounds[:-1] - 1] = False
        if ties.any():
            # A positional tie is an inversion when the vid order disagrees.
            offsets = np.concatenate(([0], bounds[:-1]))
            for k in np.nonzero(ties)[0].tolist():
                j = int(np.searchsorted(bounds, k, side="right"))
                local = k - int(offsets[j])
                chain = ranked[watch_ei[j]]
                if chain[local].vid > chain[local + 1].vid:
                    flagged.add(j)
        if not flagged:
            return
        for j in sorted(flagged):
            ei = watch_ei[j]
            ranked[ei] = self._emit_overtakes(ei, ranked[ei], events)

    def _emit_overtakes(
        self,
        ei: int,
        chain_before: List[Vehicle],
        events: List[TrafficEvent],
    ) -> List[Vehicle]:
        """Enumerate the flipped pairs of one segment whose ranking changed.

        ``chain_before`` is the cached pre-step ranking; comparing each
        vehicle's index in it with its index in the freshly sorted post-step
        ranking is equivalent to the reference engine's (position, vid)
        tuple comparisons, because both rankings are strict total orders.
        Pairs are scanned in the flat insertion order the reference engine
        used, so simultaneous events come out in the same sequence.
        """
        seg = self._state_by_index[ei][0]
        chain_after = sorted(chain_before, key=self._rank_sort_key)
        self._ranked_cache[ei] = None
        self._ranked_np[ei] = None
        self._rank_elig[ei] = 0
        self._rank_dirty.add(ei)
        rank_before = {v.vid: r for r, v in enumerate(chain_before)}
        rank_after = {v.vid: r for r, v in enumerate(chain_after)}
        order = [self._vehicles[vid] for vid in self._occupancy[seg.key]]
        n = len(order)
        vids = [v.vid for v in order]
        for i in range(n):
            rb_a = rank_before[vids[i]]
            ra_a = rank_after[vids[i]]
            for j in range(i + 1, n):
                was_a_ahead = rb_a > rank_before[vids[j]]
                now_a_ahead = ra_a > rank_after[vids[j]]
                if was_a_ahead == now_a_ahead:
                    continue
                passer, passee = (order[i], order[j]) if now_a_ahead else (order[j], order[i])
                self.stats.overtakes += 1
                events.append(
                    OvertakeEvent(time_s=self.time_s, edge=seg.key, passer=passer, passee=passee)
                )
        return chain_after

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
    def _process_intersections_indexed(self, events: List[TrafficEvent]) -> None:
        """Admission control scanning only the vehicles actually waiting.

        ``_waiting`` indexes the vehicles at a stop line per segment (each is
        necessarily the head of its lane: followers are held at least a
        vehicle length behind, and a vehicle at the stop line has no leader
        to trigger a lane change), so admission never touches free-flowing
        traffic.
        """
        candidates: Dict[object, List[Tuple[float, int, object]]] = {}
        time_s = self.time_s
        dt = self.dt_s
        waiting = self._waiting
        waiting_edges = (
            # Candidate collection must follow the network's segment order
            # (it fixes which edge first registers each node, and thereby
            # the crossing-event order of the step).
            sorted(waiting, key=self._edge_order.__getitem__)
            if len(waiting) > 1
            else list(waiting)
        )
        segments = self._segments
        overrides = self._policies
        default_delay = self.default_policy.crossing_delay_s
        for edge_key in waiting_edges:
            node = segments[edge_key].head
            if overrides:
                delay = overrides.get(node, self.default_policy).crossing_delay_s
            else:
                delay = default_delay
            for v in waiting[edge_key]:
                since = v.waiting_since_s
                if time_s - since + dt >= delay:
                    candidates.setdefault(node, []).append((since, v.vid, edge_key))
        self._admit(candidates, events)

    def _process_intersections(self, events: List[TrafficEvent]) -> None:
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
        self._admit(candidates, events)

    def _admit(
        self,
        candidates: Dict[object, List[Tuple[float, int, object]]],
        events: List[TrafficEvent],
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
                self._cross(vehicle, node, events)

    def _cross(self, vehicle: Vehicle, node: object, events: List[TrafficEvent]) -> None:
        assert vehicle.edge is not None
        tail = vehicle.edge[0]
        self._remove_from_edge(vehicle)
        vehicle.edge = None
        vehicle.waiting_since_s = None

        gate = self.net.gates.get(node)
        wants_exit = vehicle.plan.exits_at == node and vehicle.plan.empty
        if gate is not None and gate.outbound and wants_exit and not vehicle.is_patrol:
            vehicle.exited_at_s = self.time_s
            del self._vehicles[vehicle.vid]
            if self.vectorized:
                self._release_slot(vehicle)
            self._departed[vehicle.vid] = vehicle
            self._inside_nonpatrol -= 1
            self.stats.exits += 1
            sink = self._sink
            if sink is None:
                events.append(
                    ExitEvent(
                        time_s=self.time_s, vehicle=vehicle, gate_node=node, from_node=tail
                    )
                )
            else:
                # Fast path: typed exit arrays, encoded as a negative index.
                events.append(sink.add_exit(vehicle, node, tail))
            return

        assert vehicle.router is not None
        next_node = vehicle.router.next_hop(node, vehicle.plan, previous=tail)
        self.stats.crossings += 1
        sink = self._sink
        if sink is None:
            events.append(
                CrossingEvent(
                    time_s=self.time_s,
                    vehicle=vehicle,
                    node=node,
                    from_node=tail,
                    to_node=next_node,
                )
            )
        else:
            # Fast path: record the crossing in the step batch's parallel
            # arrays; the int index keeps the event-stream ordering.
            events.append(sink.add_crossing(vehicle, node, tail, next_node))
        self._place(vehicle, node, next_node, pos_m=0.0)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"TrafficEngine(net={self.net.name!r}, t={self.time_s:.1f}s, "
            f"vehicles={len(self._vehicles)}, crossings={self.stats.crossings})"
        )
