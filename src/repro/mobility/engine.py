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
free speed, segment length, desired speed, vid, lane-head and multilane
flags).  Each edge's occupancy is two slot arrays updated in place by one
insert/remove pair: its lanes front to back, which is the gather order,
and on multilane edges its overtake ranking.  A step gathers the occupied
edges' lane arrays and scatters back with one bulk write; nothing is
rebuilt.  The ``Vehicle`` objects' kinematic fields become lazily synced
mirrors (refreshed by any public accessor; see :attr:`TrafficEngine.
vehicles`).  Because each lane advances front to back against its leader's
post-step state, the update is not a single elementwise pass: the compiled
kernel (:mod:`repro.mobility.kernels`, the default) sweeps the gather order
in place in one native call, and the NumPy path it falls back to resolves
lane heads and provably unconstrained/stopped followers in one vectorized
pass, then exact vectorized rounds for followers whose leader is already
final, and finally a scalar tail for short chained runs at queue boundaries
— both bit-for-bit identical to the per-vehicle engine's advance.  The
lane-change scan is a single vectorized predicate over the gathered order;
only actual candidates run the target-lane choice, one pass shared by both
backends (:meth:`TrafficEngine._lane_change_batch`) that consumes the RNG
in reference order.  Overtakes are detected by checking each multilane
segment's (position, vid) ranking for inversions instead of comparing all
pairs, and intersections only consider the vehicles actually waiting at a
stop line.  In batched mode :meth:`TrafficEngine.step_batch` emits plain
crossings as index arrays (:class:`~repro.mobility.events.StepBatch`)
consumed directly by the counting protocol — no per-crossing event objects.
``vectorized=False`` selects the original seed per-vehicle loops, kept
verbatim as the reference implementation for the golden-trace equivalence
tests and the throughput benchmark baseline.  The vectorized engines match
it event for event except at one known positional tie (see
:meth:`TrafficEngine._advance_segments_batch`).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

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
from .kernels import StepKernel, fallback_reason, lane_options_np, load_step_kernel
from .vehicle import MIN_GAP_M, VEHICLE_LENGTH_M, Vehicle

__all__ = ["EngineStats", "TrafficEngine"]

_ARRIVAL_EPS_M = 0.5

#: Initial capacity of the resident structure-of-arrays state; grown by
#: doubling whenever the active fleet outgrows it.
_INITIAL_CAPACITY = 64

#: The empty slot array every edge starts from; never written, because the
#: first insert finds it full and allocates the edge its own buffer.
_NO_SLOTS = np.empty(0, dtype=np.intp)


def _splice_in(
    store: List[np.ndarray], ptrs: np.ndarray, ei: int, k: int, i: int, slot: int
) -> np.ndarray:
    """Insert ``slot`` at index ``i`` of edge ``ei``'s ``k``-slot live prefix.

    ``store[ei]`` is the edge's grow-only buffer; it doubles when full, and
    only then is its pointer-table entry ``ptrs[ei]`` rewritten.  Returns
    the new live-prefix view.
    """
    buf = store[ei]
    if k == buf.shape[0]:
        grown = np.empty(max(4, 2 * k), dtype=np.intp)
        grown[:k] = buf
        store[ei] = buf = grown
        ptrs[ei] = buf.ctypes.data
    if i < k:
        buf[i + 1:k + 1] = buf[i:k]
    buf[i] = slot
    return buf[:k + 1]


def _splice_out(store: List[np.ndarray], ei: int, k: int, i: int) -> np.ndarray:
    """Delete index ``i`` of edge ``ei``'s ``k``-slot live prefix; returns the
    new live-prefix view."""
    buf = store[ei]
    if i < k - 1:
        buf[i:k - 1] = buf[i + 1:k]
    return buf[:k - 1]


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
        event streams and state for the same RNG, except for the overtakes a
        positional tie hides on a segment whose vehicles share one lane
        (see :meth:`_advance_segments_batch`).
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
        # Flat per-segment occupancy in insertion order: the reference
        # engine's event order, and the overtake scan's pair order.  Every
        # per-edge structure is indexed in ``net.segments()`` order, which
        # fixes the RNG-consumption and event order of the step.
        self._occupancy: Dict[Tuple[object, object], List[int]] = {}
        self._segments: Dict[Tuple[object, object], DirectedSegment] = {}
        self._edge_order: Dict[Tuple[object, object], int] = {}
        #: the segment at each edge index
        self._segs: List[DirectedSegment] = list(net.segments())
        for i, seg in enumerate(self._segs):
            self._occupancy[seg.key] = []
            self._segments[seg.key] = seg
            self._edge_order[seg.key] = i
        n_edges = len(self._segs)
        # Sorted indices of the edges carrying vehicles, so the hot step
        # never walks the empty part of the network, and how many of them
        # are multilane (any means lane changes and overtakes are in play).
        self._occupied: List[int] = []
        self._n_ml_occupied = 0
        # Sparse: edges with vehicles waiting at the stop line, and those
        # vehicles themselves (always their lane's head).
        self._waiting: Dict[Tuple[object, object], List[Vehicle]] = {}

        # Resident structure-of-arrays state (vectorized engine only).  One
        # slot per vehicle currently inside, allocated from a free list and
        # grown by capacity doubling; ``_pos``/``_speed`` are the *source of
        # truth* for kinematics while the engine runs — the mirror fields on
        # the Vehicle objects are refreshed lazily (``_sync_kinematics``)
        # before any public read.  ``_freeflow``/``_seglen``/``_ml`` are
        # per-current-segment invariants rewritten on every placement;
        # ``_desired`` and ``_vid`` are fixed at spawn.
        self._capacity = 0
        self._next_slot = 0
        self._free_slots: List[int] = []
        self._slot_vehicle: List[Optional[Vehicle]] = []
        self._pos = np.empty(0, dtype=np.float64)
        self._speed = np.empty(0, dtype=np.float64)
        self._freeflow = np.empty(0, dtype=np.float64)
        self._seglen = np.empty(0, dtype=np.float64)
        self._desired = np.empty(0, dtype=np.float64)
        self._vid = np.empty(0, dtype=np.int64)
        self._is_head = np.empty(0, dtype=bool)
        self._ml = np.empty(0, dtype=bool)
        #: mirror of ``waiting_since_s is not None`` per slot, so the fast
        #: advance can mask already-waiting vehicles without touching the
        #: Vehicle objects (cleared on every placement, set when a vehicle
        #: reaches a stop line).
        self._wait_flag = np.empty(0, dtype=bool)
        # Per-edge occupancy (vectorized engine only) — the state itself,
        # not a cache of it.  ``_lane_slots[e]`` holds the edge's slots
        # lane-major and front to back (descending position, ascending vid
        # on ties), which is the gather order, with ``_bounds_np[e]`` its
        # ``lanes + 1`` cumulative lane offsets; on multilane edges
        # ``_rank_slots[e]`` holds the same slots in ascending (position,
        # vid) order as of the last overtake scan, the overtake ranking
        # (empty on single-lane edges).  Each is a view of the live prefix of
        # a grow-only buffer in ``_lane_store``/``_rank_store`` whose address
        # the pointer tables below hold, updated in place by
        # ``_lane_insert``/``_lane_remove`` and ``_rank_insert``/
        # ``_rank_remove``, which also keep ``_is_head``, ``_occ_lanes``,
        # ``_rank_elig`` and ``_lane_len`` current.
        self._lane_slots: List[np.ndarray] = [_NO_SLOTS] * n_edges
        self._rank_slots: List[np.ndarray] = [_NO_SLOTS] * n_edges
        self._lane_store: List[np.ndarray] = [_NO_SLOTS] * n_edges
        self._rank_store: List[np.ndarray] = [_NO_SLOTS] * n_edges
        self._bounds_np: List[np.ndarray] = [
            np.zeros(seg.lanes + 1, dtype=np.int64) for seg in self._segs
        ]
        #: per-edge count of non-empty lanes
        self._occ_lanes: List[int] = [0] * n_edges
        # Capacity-sized per-step scratch buffers (reallocated, not
        # preserved, on growth): the gather index vector, the advance
        # arrival/movement masks and the lane-change candidate mask.  The
        # compiled kernel binds them once per capacity change, making each
        # per-step native call a cached-pointer invocation with only the
        # count varying.
        self._idx_buf = np.empty(0, dtype=np.intp)
        self._newly_buf = np.empty(0, dtype=bool)
        self._moved_buf = np.empty(0, dtype=bool)
        self._cand_buf = np.empty(0, dtype=bool)
        # Edge-count-sized (static) scratch: per-edge inversion flags out
        # of the compiled ranking scan.
        self._flags_buf = np.empty(n_edges, dtype=bool)
        # Pointer tables for the compiled kernel's full-edge sweeps: per-edge
        # address and length of the lane slot array (the length also bounds
        # the ranking, which holds the same slots), addresses of the lane
        # bounds and of the ranking, the occupied-edge index mirror and the
        # ranking-scan eligibility byte (multilane with more than one
        # occupied lane).  An address changes only when its buffer is
        # reallocated, so the steady-state gather and overtake scan are each
        # one bound native call with no per-edge Python walk.  The NumPy
        # path walks the same per-edge arrays in Python.
        self._lane_ptr = np.zeros(n_edges, dtype=np.int64)
        self._lane_len = np.zeros(n_edges, dtype=np.int64)
        self._rank_ptr = np.zeros(n_edges, dtype=np.int64)
        self._bounds_ptr = np.array(
            [b.ctypes.data for b in self._bounds_np], dtype=np.int64
        )
        self._occ_buf = np.zeros(n_edges, dtype=np.int64)
        self._occ_stale = True
        self._rank_elig = np.zeros(n_edges, dtype=np.uint8)
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
        self._vid[slot] = vehicle.vid
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
        self._vid = np.concatenate((self._vid, np.zeros(extra, dtype=np.int64)))
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
            idx_buf=self._idx_buf,
            pos=self._pos,
            speed=self._speed,
            freeflow=self._freeflow,
            seglen=self._seglen,
            desired=self._desired,
            vid=self._vid,
            heads=self._is_head,
            waitflag=self._wait_flag,
            multilane=self._ml,
            newly_buf=self._newly_buf,
            moved_buf=self._moved_buf,
            cand_buf=self._cand_buf,
            flags_buf=self._flags_buf,
            occ_buf=self._occ_buf,
            lane_ptr=self._lane_ptr,
            lane_len=self._lane_len,
            bounds_ptr=self._bounds_ptr,
            rank_ptr=self._rank_ptr,
            rank_elig=self._rank_elig,
            blocked_m=lc.blocked_distance_m,
            gain_mps=lc.speed_gain_threshold_mps,
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
            ei = self._edge_order[key]
            if len(flat) == 1:
                insort(self._occupied, ei)
                self._occ_stale = True
                if seg.lanes > 1:
                    self._n_ml_occupied += 1
            slot = vehicle.slot
            self._pos[slot] = vehicle.pos_m
            self._speed[slot] = vehicle.speed_mps
            self._freeflow[slot] = free
            self._seglen[slot] = seg.length_m
            self._ml[slot] = seg.lanes > 1
            self._wait_flag[slot] = False
            self._lane_insert(ei, vehicle.lane, slot)
            if seg.lanes > 1:
                self._rank_insert(ei, slot)

    def _remove_from_edge(self, vehicle: Vehicle) -> None:
        edge = vehicle.edge
        flat = self._occupancy[edge]
        flat.remove(vehicle.vid)
        if self.vectorized:
            ei = self._edge_order[edge]
            multilane = self._segs[ei].lanes > 1
            if not flat:
                del self._occupied[bisect_left(self._occupied, ei)]
                self._occ_stale = True
                if multilane:
                    self._n_ml_occupied -= 1
            # Materialize the departing vehicle's kinematics so exit events
            # and the departed pool carry its final state even though the
            # resident arrays are the in-run source of truth.
            slot = vehicle.slot
            vehicle.pos_m = float(self._pos[slot])
            vehicle.speed_mps = float(self._speed[slot])
            self._wait_flag[slot] = False
            self._lane_remove(ei, vehicle.lane, slot)
            if multilane:
                self._rank_remove(ei, slot)
            if vehicle.waiting_since_s is not None:
                queue = self._waiting[edge]
                queue.remove(vehicle)
                if not queue:
                    del self._waiting[edge]

    # ------------------------------------------------ per-edge slot arrays
    def _lane_insert(self, ei: int, lane: int, slot: int) -> None:
        """Insert ``slot`` into ``lane`` of edge ``ei`` at its front-to-back place.

        Lanes stay sorted by (descending position, vid): car following
        never reorders a lane, so the insertion point is unique, and the
        walk starts at the back, where crossings enter.  Keeps the lane
        bounds, the length table, the lane-head flags and the occupied-lane
        count (with the ranking-scan eligibility it gates) current.
        """
        bounds = self._bounds_np[ei]
        lo, hi = bounds[lane:lane + 2].tolist()
        pos = self._pos
        vid = self._vid
        p = pos[slot]
        v = vid[slot]
        slots = self._lane_slots[ei]
        i = hi
        while i > lo:
            s = slots[i - 1]
            if pos[s] > p or (pos[s] == p and vid[s] < v):
                break
            i -= 1
        is_head = self._is_head
        if i > lo:
            is_head[slot] = False
        else:
            if hi > lo:
                is_head[slots[lo]] = False
            else:
                occ = self._occ_lanes[ei] + 1
                self._occ_lanes[ei] = occ
                self._rank_elig[ei] = occ > 1
            is_head[slot] = True
        k = slots.shape[0]
        self._lane_slots[ei] = _splice_in(self._lane_store, self._lane_ptr, ei, k, i, slot)
        for j in range(lane + 1, bounds.shape[0]):
            bounds[j] += 1
        self._lane_len[ei] = k + 1

    def _lane_remove(self, ei: int, lane: int, slot: int) -> None:
        """Remove ``slot`` from ``lane`` of edge ``ei`` (the inverse of
        :meth:`_lane_insert`)."""
        bounds = self._bounds_np[ei]
        lo, hi = bounds[lane:lane + 2].tolist()
        slots = self._lane_slots[ei]
        i = lo + slots[lo:hi].tolist().index(slot)
        k = slots.shape[0]
        slots = _splice_out(self._lane_store, ei, k, i)
        self._lane_slots[ei] = slots
        for j in range(lane + 1, bounds.shape[0]):
            bounds[j] -= 1
        self._lane_len[ei] = k - 1
        if i == lo:
            if hi - lo > 1:
                self._is_head[slots[lo]] = True
            else:
                occ = self._occ_lanes[ei] - 1
                self._occ_lanes[ei] = occ
                self._rank_elig[ei] = occ > 1

    def _rank_insert(self, ei: int, slot: int) -> None:
        """Insert ``slot`` into multilane edge ``ei``'s overtake ranking.

        The insertion point is :func:`bisect.insort`'s on the (position,
        vid) key, probe for probe: a ranking the overtake scan skipped (see
        :meth:`_advance_segments_batch`) may be out of order, and where the
        new slot lands then decides which overtakes a later scan reports.
        """
        pos = self._pos
        vid = self._vid
        ranking = self._rank_slots[ei]
        i = bisect_right(ranking, (pos[slot], vid[slot]), key=lambda s: (pos[s], vid[s]))
        self._rank_slots[ei] = _splice_in(
            self._rank_store, self._rank_ptr, ei, ranking.shape[0], i, slot
        )

    def _rank_remove(self, ei: int, slot: int) -> None:
        """Remove ``slot`` from multilane edge ``ei``'s overtake ranking
        (usually its last entry: departing vehicles are at the stop line)."""
        ranking = self._rank_slots[ei]
        k = ranking.shape[0]
        i = k - 1 if ranking[k - 1] == slot else ranking.tolist().index(slot)
        self._rank_slots[ei] = _splice_out(self._rank_store, ei, k, i)

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
    def _advance_segments_batch(self, events: List[TrafficEvent]) -> None:
        """Advance every occupied segment (the vectorized step).

        Gather the occupied edges' lane slot arrays (:meth:`_gather`; a
        follower's in-lane leader is simply the previous gather index),
        mark the lane-change candidates with the blocked-follower
        predicate, and run the one lane-change pass
        (:meth:`_lane_change_batch`); when it re-orders some lanes the
        gather is redone.  The advance itself then takes one of two
        equivalent forms:

        * **compiled kernel** (``MobilityConfig.compiled``, the default, and
          cc loaded): a single native call sweeps the gather order updating
          the resident position/speed arrays *in place* — each follower
          naturally reads its leader's already-written post-step state, so
          the whole front-to-back recurrence runs in one pass, returning the
          arrival and movement masks;
        * **NumPy**: compute every free-flow candidate vectorized, resolve
          the provably unconstrained and provably stopped followers
          vectorized (:meth:`SimplifiedIDM.batch_classify`), settle
          followers whose leader is final in exact vectorized rounds, run
          the scalar recurrence only for the short chained tail at queue
          boundaries, and fold the arrival bookkeeping into one vectorized
          pass over the ``_wait_flag`` mirror.

        Both produce bit-identical state and events (golden-trace pinned).

        Overtake detection afterwards (:meth:`_detect_overtakes_fast`)
        skips multilane segments whose vehicles currently share a single
        lane, and this is a **known divergence** from the reference engine,
        not an equivalence.  A lane orders a positional tie by ascending
        vid, front to back, so the lower vid is in front; the ranking
        orders it by ascending (position, vid), so the lower vid is behind.
        When a tied leader pulls away, the ranking flips: the reference
        reports an overtake, and a skipped ranking keeps the stale order
        until a later scan of that segment finds it.  Two vehicles spawned
        at one origin in one step onto the same lane show it
        (``TestOneLaneTie`` in ``tests/unit/test_mobility_engine.py``, a
        strict xfail).  Scanning every occupied multilane segment fixes it
        but changes pinned benchmark digests, so it waits for a change
        that may re-pin them.
        """
        dt = self.dt_s
        cf = self.car_following
        n = self._gather()
        if n == 0:
            return
        idx = self._idx_buf[:n]
        # Any occupied multilane edge means lane changes / overtakes are in
        # play this step; single-vehicle multilane edges cost nothing extra
        # (their lone vehicle is a lane head, so it can never be a
        # candidate, and the overtake scan skips one-lane occupancies).
        watching = self.allow_overtaking and self._n_ml_occupied > 0

        pos_a = self._pos
        speed_a = self._speed
        wait_flag = self._wait_flag
        kernel = self._kernel
        if kernel is not None:
            # The kernel path never gathers kinematic columns: the
            # candidate mask comes from the compiled predicate over the
            # resident arrays.
            if (
                watching
                and kernel.candidates_bound(n)
                and self._lane_change_batch(idx, self._cand_buf[:n])
            ):
                # Accepted moves re-ordered some lanes: redo the whole
                # gather (lane changes move no vehicle across or along a
                # segment, so the count and every other edge's span are
                # unchanged).
                self._gather()
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
                if cand.any() and self._lane_change_batch(idx, cand):
                    # Same re-gather as the kernel path; the columns then
                    # follow the new lane order.
                    self._gather()
                    pos = pos_a[idx]
                    speed = speed_a[idx]
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

    def _gather(self) -> int:
        """Flatten the occupied edges' lane slot arrays into ``_idx_buf``.

        One bound native call over the pointer table with cc, otherwise one
        ``np.concatenate`` of the per-edge arrays, in edge order, into the
        persistent capacity-sized index buffer.  Returns the gathered
        element count (0 = nothing occupied).
        """
        occupied = self._occupied
        kernel = self._kernel
        if kernel is not None:
            # The Python side only refreshes the occupied-edge mirror when
            # membership actually changed.
            m = len(occupied)
            if self._occ_stale:
                self._occ_buf[:m] = occupied
                self._occ_stale = False
            return kernel.gather_bound(m)
        lane_slots = self._lane_slots
        parts = [lane_slots[ei] for ei in occupied]
        total = sum([part.shape[0] for part in parts])
        if total:
            np.concatenate(parts, out=self._idx_buf[:total])
        return total

    def _lane_change_batch(self, idx: np.ndarray, cand: np.ndarray) -> bool:
        """The lane-change pass: pick target lanes for the candidates.

        ``cand`` is the gather-aligned mask of the blocked-follower
        predicate (:meth:`LaneChangeModel.wants_to_change`).  Candidates
        are visited in gather order, which is the reference engine's
        segment-by-segment, lane-by-lane, front-to-back scan order, so the
        RNG stream is consumed identically.  Target-lane viability reads
        the candidate's edge's lane slots and lane bounds: one bound native
        call through the pointer tables with cc, or :func:`lane_options_np`
        on the same arrays.  Both give the bits of :func:`lane_options_py`,
        whose gap test is the scalar model's exact float sequence.
        Decisions within a segment read the pre-change lanes (the
        reference applies its moves only after scanning the whole
        segment), so accepted moves are buffered per segment —
        the gather is edge-block ordered, so each candidate's own edge
        delimits the segments — and applied at the segment boundary.
        Returns whether any segment's lane order changed; the caller then
        redoes the gather.
        """
        slot_vehicle = self._slot_vehicle
        segs = self._segs
        edge_order = self._edge_order
        pos_a = self._pos
        politeness = self.lane_change.politeness
        kernel = self._kernel
        lane_opts = (
            kernel.lane_opts_bound if kernel is not None else self._lane_options_np
        )
        rng = self.rng
        cur = -1
        seg_lanes = 0
        pending: List[Tuple[Vehicle, int]] = []
        patched = False
        for i in cand.nonzero()[0].tolist():
            v = slot_vehicle[int(idx[i])]
            assert v is not None
            ei = edge_order[v.edge]
            if ei != cur:
                if pending:
                    self._apply_lane_moves(cur, pending)
                    pending = []
                    patched = True
                cur = ei
                seg_lanes = segs[ei].lanes
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
            self._apply_lane_moves(cur, pending)
            patched = True
        return patched

    def _lane_options_np(self, ei: int, lane: int, nlanes: int, own: float) -> int:
        """NumPy counterpart of the kernel's bound ``lane_opts`` call."""
        return lane_options_np(
            lane,
            nlanes,
            own,
            self.lane_change.required_gap_m / 2.0,
            self._lane_slots[ei],
            self._bounds_np[ei],
            self._pos,
        )

    def _apply_lane_moves(self, ei: int, moves: List[Tuple[Vehicle, int]]) -> None:
        """Apply one segment's accepted lane changes to its lane slots."""
        for v, target in moves:
            self._lane_remove(ei, v.lane, v.slot)
            v.lane = target
            self._lane_insert(ei, target, v.slot)

    def _detect_overtakes_fast(self, events: List[TrafficEvent]) -> None:
        """Post-step overtake scan over the per-edge rankings.

        ``_rank_slots`` holds each multilane segment's slots in ascending
        (position, vid) order as of the last scan; car following preserves
        in-lane order and lane changes do not move vehicles
        longitudinally, so one monotonicity scan of the post-step
        positions confirms it.  Only segments where the scan finds an
        inversion — an actual overtake — enumerate their flipped pairs and
        re-sort their ranking (:meth:`_emit_overtakes`).  The scan covers
        the segments flagged in ``_rank_elig``, those with vehicles in more
        than one lane; skipping the one-lane segments diverges from the
        reference at a positional tie (see :meth:`_advance_segments_batch`).
        Positional ties count as inversions when their vid order disagrees.
        With cc the scan is one bound native call over the ranking pointer
        table; the NumPy path concatenates the eligible rankings in edge
        order (the gather's, so cross-edge event order is unchanged) and
        scans them vectorized.
        """
        kernel = self._kernel
        if kernel is not None:
            if kernel.rank_all_bound():
                for ei in np.flatnonzero(self._flags_buf).tolist():
                    self._emit_overtakes(ei, events)
            return
        eis = np.flatnonzero(self._rank_elig).tolist()
        if not eis:
            return
        rankings = self._rank_slots
        parts = [rankings[ei] for ei in eis]
        slots = np.concatenate(parts)
        arr = self._pos[slots]
        vids = self._vid[slots]
        prev = arr[:-1]
        nxt = arr[1:]
        bad = nxt < prev
        ties = nxt == prev
        np.logical_and(ties, vids[:-1] > vids[1:], out=ties)
        np.logical_or(bad, ties, out=bad)
        bounds = np.cumsum([part.shape[0] for part in parts])
        bad[bounds[:-1] - 1] = False
        hits = np.flatnonzero(bad)
        if hits.size == 0:
            return
        for j in np.unique(np.searchsorted(bounds, hits, side="right")).tolist():
            self._emit_overtakes(eis[j], events)

    def _emit_overtakes(self, ei: int, events: List[TrafficEvent]) -> None:
        """Enumerate the flipped pairs of one segment and re-sort its ranking.

        The ranking still holds the pre-step order; comparing each
        vehicle's index in it with its index in the re-sorted ranking is
        equivalent to the reference engine's (position, vid) tuple
        comparisons, because both rankings are strict total orders.  Pairs
        are scanned in the flat insertion order the reference engine used,
        so simultaneous events come out in the same sequence.
        """
        ranking = self._rank_slots[ei]
        before = self._vid[ranking]
        resort = np.lexsort((before, self._pos[ranking]))
        ranking[:] = ranking[resort]
        rank_before = {vid: r for r, vid in enumerate(before.tolist())}
        rank_after = {vid: r for r, vid in enumerate(before[resort].tolist())}
        seg = self._segs[ei]
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
