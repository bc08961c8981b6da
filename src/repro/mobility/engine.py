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
flags).  Each edge's occupancy is two slot arrays, the live prefixes of
grow-only buffers: its lanes front to back, which is the gather order,
and on multilane edges its overtake ranking.  Entering, leaving and
changing lanes update them in place, inside the step's passes (the
transit pass's rows, the lane pass's moves).  A step gathers every
non-empty edge's lane array, in edge order, and scatters back with one
bulk write; nothing is rebuilt.  The ``Vehicle`` objects' kinematic fields
become lazily synced mirrors (refreshed by any public accessor; see
:attr:`TrafficEngine.vehicles`).

A step is one code path over six operations that the engine binds once: the
gather, the lane-change pass, the advance, the overtake pass, the
admission and the transit pass.  With the compiled kernel
(:mod:`repro.mobility.kernels`, the default) each is one native call;
without it each is a NumPy method of the engine (``_gather_np`` …
``_transit_pass_np``) that reads and writes the same buffers and returns
the same, and that is the native call's oracle.  Because each lane
advances front to back against its leader's post-step state, the advance
is not a single elementwise pass: cc sweeps the gather order in place, and
the NumPy advance resolves lane heads and provably unconstrained/stopped
followers in one vectorized pass, then exact vectorized rounds for
followers whose leader is already final, and finally a scalar tail for
short chained runs at queue boundaries — both bit-for-bit identical to the
per-vehicle engine's advance.  The lane-change pass runs the
blocked-follower predicate over the gathered order, and only actual
candidates run the target-lane choice, consuming the RNG in reference
order.  Overtakes are detected by checking each multilane segment's
(position, vid) ranking for inversions instead of comparing all pairs.
Intersections only consider the vehicles waiting at a stop line, lane
heads all: the admission fixes the step's crossing set, the crossings'
Python decisions run in order (:meth:`TrafficEngine._cross`), and the
transit pass then runs their leaves and entries with their lane draws
(:meth:`TrafficEngine._process_intersections_batch`).  In batched mode
:meth:`TrafficEngine.step_batch` emits plain crossings as index arrays
(:class:`~repro.mobility.events.StepBatch`) consumed directly by the
counting protocol — no per-crossing event objects.
``TrafficEngine(..., vectorized=False)`` builds the original seed
per-vehicle engine instead, a
:class:`~repro.mobility.reference.ReferenceEngine`: the seed loops, kept
verbatim in their own module as the reference implementation for the
golden-trace equivalence tests and the throughput benchmark baseline, so
this module holds the one production step.  The vectorized engines match
it event for event except at one known positional tie (see
:meth:`TrafficEngine._advance_segments_batch`).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

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

#: What :meth:`TrafficEngine._cross` returns for a vehicle that exits: no
#: edge entered, no placement number.
_EXITED = (-1, -1)


def _splice_out(buf: np.ndarray, k: int, i: int) -> None:
    """Delete index ``i`` of the ``k``-slot live prefix of ``buf``."""
    if i < k - 1:
        buf[i:k - 1] = buf[i + 1:k]


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
        Random generator for placement, lane choice and lane-change noise,
        held as the read-only :attr:`rng`: with cc the lane-change and
        transit passes draw from its bit generator in C, bound at
        construction.  The transit pass draws a step's placement lanes
        after every crossing's next hop is decided, so a router must not
        draw from this generator.
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
        Build this engine (default).  ``False`` builds the seed reference
        engine instead, a :class:`~repro.mobility.reference.ReferenceEngine`
        (:meth:`__new__` picks the class, as ``pathlib.Path()`` returns a
        ``PosixPath``), which runs the original per-vehicle loops; both
        produce identical event streams and state for the same RNG, except
        for the overtakes a positional tie hides on a segment whose vehicles
        share one lane (see :meth:`_advance_segments_batch`).
    compiled:
        Use the compiled inner step kernel (:mod:`repro.mobility.kernels`,
        default): the gather, the lane-change pass, the whole advance
        recurrence, the overtake pass, the intersection admission and the
        step's transitions each run as one native call into a small C
        library built with the system compiler on first use.  When it
        cannot load, the same step runs each of these operations as a
        NumPy method, bit-for-bit identical and slower, and the first such
        fallback in a process warns with the reason.
        :attr:`kernel_backend` says which path runs and
        :attr:`kernel_fallback_reason` why it is not cc.
    """

    #: ``False`` on the seed reference engine.
    vectorized = True

    def __new__(cls, *args: Any, vectorized: bool = True, **kwargs: Any) -> TrafficEngine:
        if not vectorized and cls is TrafficEngine:
            from .reference import ReferenceEngine

            return object.__new__(ReferenceEngine)
        return super().__new__(cls)

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
        if not (dt_s > 0 and math.isfinite(dt_s)):
            raise MobilityError(f"dt_s must be positive and finite, got {dt_s!r}")
        if not net.frozen:
            net.freeze()
        self.net = net
        # The network is frozen, so its gates are fixed (``net.gates`` copies).
        self._gates = net.gates
        self._rng = rng
        # cc's lane and transit passes draw from this bit generator, bound
        # once here.
        self._bit_generator = rng.bit_generator
        self.dt_s = float(dt_s)
        self._default_policy = policy if policy is not None else simple_policy()
        self.car_following = car_following if car_following is not None else SimplifiedIDM()
        self.lane_change = lane_change if lane_change is not None else LaneChangeModel()
        self.allow_overtaking = bool(allow_overtaking)
        self.compiled = bool(compiled)
        self._kernel: Optional[StepKernel] = None
        if self.compiled:
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
        # Lane changes and overtakes can happen only on a network with a
        # multilane segment.
        self._multilane_net = any(seg.lanes > 1 for seg in self._segs)
        # Intersection tables for the admission and transit passes: each
        # edge's head node index, length and speed limit, and each node's
        # crossing delay and admissions per step, which
        # set_intersection_policy keeps current; then cc's admission pass's
        # per-node scratch (a mark, -1 between calls, and a two-column
        # buffer).
        self._nodes: List[object] = list(net.nodes)
        self._node_index = {node: i for i, node in enumerate(self._nodes)}
        self._head_node = np.array(
            [self._node_index[seg.head] for seg in self._segs], dtype=np.int64
        )
        self._edge_len = np.array([seg.length_m for seg in self._segs], dtype=np.float64)
        self._edge_limit = np.array(
            [seg.speed_limit_mps for seg in self._segs], dtype=np.float64
        )
        n_nodes = len(self._nodes)
        self._delay = np.full(n_nodes, self._default_policy.crossing_delay_s, dtype=np.float64)
        self._adm = np.full(n_nodes, self._default_policy.admissions_per_step, dtype=np.int64)
        self._node_mark = np.full(n_nodes, -1, dtype=np.int64)
        self._node_buf = np.empty((n_nodes, 2), dtype=np.int64)

        # Resident structure-of-arrays state (vectorized engine only).  One
        # slot per vehicle currently inside, allocated from a free list and
        # grown by capacity doubling; ``_pos``/``_speed`` are the *source of
        # truth* for kinematics while the engine runs — the mirror fields on
        # the Vehicle objects are refreshed lazily (``_sync_kinematics``)
        # before any public read.  ``_freeflow``/``_seglen``/``_ml`` are
        # per-current-segment invariants rewritten on every placement;
        # ``_desired`` and ``_vid`` are fixed at spawn.  ``_seq`` is the
        # placement number of each slot's current edge entry, so an edge's
        # slots sorted by it follow its flat ``_occupancy`` list, which is
        # the pair order of cc's overtake pass.
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
        self._seq = np.empty(0, dtype=np.int64)
        self._placements = 0
        self._is_head = np.empty(0, dtype=bool)
        self._ml = np.empty(0, dtype=bool)
        #: mirror of ``waiting_since_s is not None`` per slot, so the fast
        #: advance can mask already-waiting vehicles without touching the
        #: Vehicle objects (cleared on every placement, set when a vehicle
        #: reaches a stop line), and ``_since``, the mirror of
        #: ``waiting_since_s`` where it is set; the advance writes both, and
        #: the admission reads them from the lane heads.
        self._wait_flag = np.empty(0, dtype=bool)
        self._since = np.empty(0, dtype=np.float64)
        # Per-edge occupancy (vectorized engine only) — the state itself,
        # not a cache of it: each edge's buffers and live length
        # ``_lane_len[e]``.  ``_lane_store[e][:_lane_len[e]]`` holds the
        # edge's slots lane-major and front to back (descending position,
        # ascending vid on ties), which is the gather order, with
        # ``_bounds_np[e]`` its ``lanes + 1`` cumulative lane offsets; on
        # multilane edges ``_rank_store[e][:_lane_len[e]]`` holds them in
        # ascending (position, vid) order as of the last overtake scan, the
        # overtake ranking.  Both buffers are ``_lane_cap[e]`` long, grow
        # together (:meth:`_grow_edge`) and are updated in place by the
        # transit and lane passes (on NumPy, through the splice pair), which
        # keep ``_is_head``, ``_occ_lanes`` (non-empty lanes per edge),
        # ``_rank_elig`` and ``_lane_len`` current.
        self._lane_store: List[np.ndarray] = [_NO_SLOTS] * n_edges
        self._rank_store: List[np.ndarray] = [_NO_SLOTS] * n_edges
        self._bounds_np: List[np.ndarray] = [
            np.zeros(seg.lanes + 1, dtype=np.int64) for seg in self._segs
        ]
        self._nlanes = np.array([seg.lanes for seg in self._segs], dtype=np.int64)
        self._lane_cap = np.zeros(n_edges, dtype=np.int64)
        self._occ_lanes = np.zeros(n_edges, dtype=np.int64)
        # Capacity-sized per-step scratch buffers (reallocated, not
        # preserved, on growth): the gather index vector, the advance
        # arrival mask, the lane moves as (slot, from, to) rows and the
        # transition rows, (slot, source edge, lane, node, target edge,
        # placement number), which Python reaches through ``_rows``, a flat
        # view made on growth; and for cc's passes, the lane-change
        # candidate mask, the sort order of the overtake and admission
        # passes and the admission candidates as (slot, edge, lane) rows.
        # The compiled kernel binds them once per capacity change, so each
        # per-step native call passes only the count.
        self._idx_buf = np.empty(0, dtype=np.intp)
        self._newly_buf = np.empty(0, dtype=bool)
        self._cand_buf = np.empty(0, dtype=bool)
        self._moves_buf = np.empty((0, 3), dtype=np.int64)
        self._order_buf = np.empty(0, dtype=np.int64)
        self._cands_buf = np.empty((0, 3), dtype=np.int64)
        self._rows_buf = np.empty((0, 6), dtype=np.int64)
        # The overtake pairs, (edge, passer slot, passee slot) rows: at
        # least a row per slot, doubled whenever one step's pairs overflow.
        self._pairs_buf = np.empty((0, 3), dtype=np.int64)
        # Pointer tables for the compiled kernel's full-edge sweeps: per-edge
        # address and length of the lane slot array (the length also bounds
        # the ranking, which holds the same slots; a non-zero one marks the
        # edges the gather walks), addresses of the lane bounds and of the
        # ranking, and the ranking-scan eligibility byte (multilane with
        # more than one occupied lane).  An address changes only when its
        # buffer is reallocated, so the steady-state gather and overtake
        # scan are each one bound native call with no per-edge Python walk.
        # The NumPy path walks the same per-edge arrays in Python.
        self._lane_ptr = np.zeros(n_edges, dtype=np.int64)
        self._lane_len = np.zeros(n_edges, dtype=np.int64)
        self._rank_ptr = np.zeros(n_edges, dtype=np.int64)
        self._bounds_ptr = np.array(
            [b.ctypes.data for b in self._bounds_np], dtype=np.int64
        )
        self._rank_elig = np.zeros(n_edges, dtype=np.uint8)
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
        """The step path that runs: ``"cc"``, ``"numpy"`` or, on the
        reference engine, ``"scalar"``."""
        if self._kernel is not None:
            return self._kernel.backend
        return "numpy"

    @property
    def kernel_fallback_reason(self) -> Optional[str]:
        """Why the engine does not run the compiled kernel (None when it does)."""
        if self._kernel is not None:
            return None
        if not self.compiled:
            return "compiled=False"
        return fallback_reason()

    # ----------------------------------------------------------- configure
    @property
    def rng(self) -> np.random.Generator:
        """The generator given at construction.

        Read-only, because cc draws from its bit generator, bound at
        construction: a replaced generator would split cc's stream from
        NumPy's and the reference engine's.
        """
        return self._rng

    @property
    def default_policy(self) -> IntersectionPolicy:
        """The admission policy of every intersection without an override.

        Fixed at construction (cc's admission tables hold it); override
        single intersections with :meth:`set_intersection_policy`.
        """
        return self._default_policy

    def set_intersection_policy(self, node: object, policy: IntersectionPolicy) -> None:
        """Override the admission policy of one intersection (e.g. a roundabout)."""
        if not self.net.has_node(node):
            raise MobilityError(f"unknown intersection {node!r}")
        self._policies[node] = policy
        i = self._node_index[node]
        self._delay[i] = policy.crossing_delay_s
        self._adm[i] = policy.admissions_per_step

    def policy_for(self, node: object) -> IntersectionPolicy:
        return self._policies.get(node, self._default_policy)

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
        ipad = np.zeros(extra, dtype=np.int64)
        self._vid = np.concatenate((self._vid, ipad))
        self._seq = np.concatenate((self._seq, ipad))
        bpad = np.zeros(extra, dtype=bool)
        self._is_head = np.concatenate((self._is_head, bpad))
        self._ml = np.concatenate((self._ml, bpad))
        self._wait_flag = np.concatenate((self._wait_flag, bpad))
        self._since = np.concatenate((self._since, pad))
        self._slot_vehicle.extend([None] * extra)
        self._capacity = capacity
        self._idx_buf = np.empty(capacity, dtype=np.intp)
        self._newly_buf = np.empty(capacity, dtype=bool)
        self._cand_buf = np.empty(capacity, dtype=bool)
        self._moves_buf = np.empty((capacity, 3), dtype=np.int64)
        self._order_buf = np.empty(capacity, dtype=np.int64)
        self._cands_buf = np.empty((capacity, 3), dtype=np.int64)
        self._rows_buf = np.empty((capacity, 6), dtype=np.int64)
        # Python reads and writes the transition rows through a flat int64
        # view, a fraction of the cost of NumPy's scalar indexing.
        self._rows = memoryview(self._rows_buf).cast("B").cast("q")
        if self._pairs_buf.shape[0] < capacity:
            self._pairs_buf = np.empty((capacity, 3), dtype=np.int64)
        self._bind_kernel()

    def _bind_kernel(self) -> None:
        """(Re-)bind the compiled kernel to the current resident arrays,
        and the step's six operations to its entry points.

        Called whenever any bound array is reallocated (capacity growth,
        or a pair buffer that filled up); afterwards each step's native call
        passes only the element count.  Without the kernel the operations
        stay the NumPy methods, which read the arrays through the engine.
        """
        kernel = self._kernel
        if kernel is None:
            return
        lc = self.lane_change
        kernel.bind(
            idx_buf=self._idx_buf,
            pos=self._pos,
            speed=self._speed,
            freeflow=self._freeflow,
            seglen=self._seglen,
            since=self._since,
            desired=self._desired,
            vid=self._vid,
            seq=self._seq,
            heads=self._is_head,
            waitflag=self._wait_flag,
            multilane=self._ml,
            newly_buf=self._newly_buf,
            cand_buf=self._cand_buf,
            moves_buf=self._moves_buf,
            order_buf=self._order_buf,
            pairs_buf=self._pairs_buf,
            cands_buf=self._cands_buf,
            rows_buf=self._rows_buf,
            lane_ptr=self._lane_ptr,
            lane_len=self._lane_len,
            bounds_ptr=self._bounds_ptr,
            rank_ptr=self._rank_ptr,
            rank_elig=self._rank_elig,
            nlanes=self._nlanes,
            lane_cap=self._lane_cap,
            occ_lanes=self._occ_lanes,
            head_node=self._head_node,
            edge_len=self._edge_len,
            edge_limit=self._edge_limit,
            delay=self._delay,
            adm=self._adm,
            node_mark=self._node_mark,
            node_buf=self._node_buf,
            bit_generator=self._bit_generator,
            blocked_m=lc.blocked_distance_m,
            gain_mps=lc.speed_gain_threshold_mps,
            gap_half_m=lc.required_gap_m / 2.0,
            politeness=lc.politeness,
        )
        self._gather = kernel.gather_bound
        self._lane_pass = kernel.lane_pass_bound
        self._advance = kernel.advance_bound
        self._overtake_pass = kernel.overtake_bound
        self._admit_pass = kernel.admit_bound
        self._transit_pass = kernel.transit_bound

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
            pos = 0.0
        else:
            next_node = spec.router.next_hop(spec.origin, vehicle.plan, previous=None)
            seg = self.net.segment(spec.origin, next_node)
            pos = float(self.rng.uniform(0.0, seg.length_m * 0.9)) if initial else 0.0
        ei, seq = self._place(vehicle, spec.origin, next_node, pos_m=pos)
        self._transit(vehicle, -1, ei, seq)
        return vehicle

    def _place(
        self, vehicle: Vehicle, tail: object, head: object, *, pos_m: float
    ) -> Tuple[int, int]:
        """Put ``vehicle`` on segment ``(tail, head)`` at ``pos_m`` (clamped
        to its length), at half its free speed.

        Returns the segment's edge index and the placement's number.  The
        slot arrays and the lane draw are left to the transition row the
        caller runs (:meth:`_run_rows`), which sets ``vehicle.lane``.
        """
        seg = self._segments.get((tail, head))
        if seg is None:
            seg = self.net.segment(tail, head)  # raises MobilityError
        key = seg.key
        vehicle.edge = key
        vehicle.pos_m = min(pos_m, seg.length_m)
        vehicle.speed_mps = min(vehicle.desired_speed_mps, seg.speed_limit_mps) * 0.5
        vehicle.previous_node = tail
        vehicle.waiting_since_s = None
        self._occupancy[key].append(vehicle.vid)
        seq = self._placements
        self._placements = seq + 1
        return self._edge_order[key], seq

    def _leave_edge(self, vehicle: Vehicle) -> None:
        """Take ``vehicle`` off its segment, leaving the slot arrays to the
        transition row the caller runs."""
        self._occupancy[vehicle.edge].remove(vehicle.vid)
        # Materialize the departing vehicle's kinematics so exit events
        # and the departed pool carry its final state even though the
        # resident arrays are the in-run source of truth.
        slot = vehicle.slot
        vehicle.pos_m = self._pos.item(slot)
        vehicle.speed_mps = self._speed.item(slot)

    def _run_rows(self, start: int, stop: int) -> None:
        """Run transition rows ``start`` .. ``stop - 1`` of ``_rows_buf`` in
        the transit pass, growing each target edge it finds full
        (:meth:`_grow_edge`) and resuming at that row.  The pass draws the
        entries' lanes, so the bit generator's lock is held across it."""
        transit = self._transit_pass
        with self._bit_generator.lock:
            while True:
                got = transit(start, stop - start)
                if got >= 0:
                    return
                start = ~got
                self._grow_edge(self._rows[6 * start + 4])

    def _transit(self, vehicle: Vehicle, src: int, target: int, seq: int) -> None:
        """One transition row, run now: ``vehicle`` leaves its lane of edge
        ``src`` (unless -1), then enters edge ``target`` (unless -1) with
        placement number ``seq``, in the lane the pass draws, at 0 m after a
        leave, as a crossing does, and otherwise at its ``pos_m``."""
        slot = vehicle.slot
        self._pos[slot] = vehicle.pos_m
        rows = self._rows
        rows[0], rows[1], rows[2], rows[3], rows[4], rows[5] = (
            slot, src, vehicle.lane, -1, target, seq
        )
        self._run_rows(0, 1)
        vehicle.lane = rows[2]

    # ------------------------------------------------ per-edge slot arrays
    # The NumPy splice pair, which the NumPy transit and lane passes run and
    # which is the oracle of cc's.  The ranking is spliced first, while
    # ``_lane_len`` is still its length.
    def _grow_edge(self, ei: int) -> None:
        """Double edge ``ei``'s lane and (multilane) ranking buffers, for the
        NumPy splice and for cc's transit pass alike, and rewrite their
        pointer-table entries and ``_lane_cap``."""
        cap = int(self._lane_cap[ei])
        grown = max(4, 2 * cap)
        stores = [(self._lane_store, self._lane_ptr)]
        if self._segs[ei].lanes > 1:
            stores.append((self._rank_store, self._rank_ptr))
        for store, ptrs in stores:
            buf = np.empty(grown, dtype=np.intp)
            buf[:cap] = store[ei]
            store[ei] = buf
            ptrs[ei] = buf.ctypes.data
        self._lane_cap[ei] = grown

    def _splice_in(self, store: List[np.ndarray], ei: int, k: int, i: int, slot: int) -> None:
        """Insert ``slot`` at index ``i`` of the ``k``-slot live prefix of
        edge ``ei``'s buffer in ``store``, growing the edge when it is full."""
        if k == self._lane_cap[ei]:
            self._grow_edge(ei)
        buf = store[ei]
        if i < k:
            buf[i + 1:k + 1] = buf[i:k]
        buf[i] = slot

    def _lane_insert(self, ei: int, lane: int, slot: int) -> None:
        """Insert ``slot`` into ``lane`` of edge ``ei`` at its front-to-back place.

        Lanes stay sorted by (descending position, vid): car following
        never reorders a lane, so the insertion point is unique, and the
        walk starts at the back, where crossings enter.  Keeps the lane
        bounds, the length table, the lane-head flags and the occupied-lane
        count (with the ranking-scan eligibility it gates) current.
        """
        bounds = self._bounds_np[ei]
        b = bounds.tolist()
        lo, hi, k = b[lane], b[lane + 1], b[-1]  # b[-1] is _lane_len[ei]
        pos = self._pos
        vid = self._vid
        p = pos[slot]
        v = vid[slot]
        slots = self._lane_store[ei]
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
        self._splice_in(self._lane_store, ei, k, i, slot)
        for j in range(lane + 1, len(b)):
            bounds[j] += 1
        self._lane_len[ei] = k + 1

    def _lane_remove(self, ei: int, lane: int, slot: int) -> None:
        """Remove ``slot`` from ``lane`` of edge ``ei`` (the inverse of
        :meth:`_lane_insert`)."""
        bounds = self._bounds_np[ei]
        b = bounds.tolist()
        lo, hi, k = b[lane], b[lane + 1], b[-1]
        slots = self._lane_store[ei]
        i = lo + slots[lo:hi].tolist().index(slot)
        _splice_out(slots, k, i)
        for j in range(lane + 1, len(b)):
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
        k = int(self._lane_len[ei])
        i = bisect_right(
            self._rank_store[ei], (pos[slot], vid[slot]), 0, k, key=lambda s: (pos[s], vid[s])
        )
        self._splice_in(self._rank_store, ei, k, i, slot)

    def _rank_remove(self, ei: int, slot: int) -> None:
        """Remove ``slot`` from multilane edge ``ei``'s overtake ranking
        (usually its last entry: departing vehicles are at the stop line)."""
        ranking = self._rank_store[ei]
        k = int(self._lane_len[ei])
        i = k - 1 if ranking[k - 1] == slot else ranking[:k].tolist().index(slot)
        _splice_out(ranking, k, i)

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
        self._advance_segments_batch(events)
        self._process_intersections_batch(events)
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

        ``_gather`` flattens every non-empty edge's lanes into ``_idx_buf`` (a
        follower's in-lane leader is the previous gather index), ``_lane_pass``
        moves the blocked followers it picks, drawing from the engine generator
        under its lock, and hands the moves back, and ``_advance`` writes the
        post-step positions and speeds in place and marks the vehicles that
        reached their stop line waiting; only their ``Vehicle`` mirrors are set
        here.

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
        n = self._gather()
        if n == 0:
            return
        # While no multilane edge is occupied, the lane-change and overtake
        # passes find nothing and draw nothing: every vehicle's ``_ml`` byte
        # is clear, so none is a candidate, and no ``_rank_elig`` byte is
        # set.  So a network-wide flag gates them.
        watching = self.allow_overtaking and self._multilane_net
        slot_vehicle = self._slot_vehicle
        if watching:
            # A pass that moved anyone redid the gather; lane changes move
            # no vehicle across or along a segment, so ``n`` still holds.
            with self._bit_generator.lock:
                moved = self._lane_pass(n)
            if moved:
                for slot, _, lane in self._moves_buf[:moved].tolist():
                    mover = slot_vehicle[slot]
                    assert mover is not None
                    mover.lane = lane
        # The return value is the newly-arrived count, so the no-arrival
        # common case skips the mask too.
        time_s = self.time_s
        if self._advance(n, time_s):
            for slot in self._idx_buf[:n][self._newly_buf[:n]].tolist():
                v = slot_vehicle[slot]
                assert v is not None
                v.waiting_since_s = time_s
        self._kinematics_stale = True
        if watching:
            self._detect_overtakes_fast(events)

    def _gather_np(self) -> int:
        """cc's ``gather_all`` in NumPy: every non-empty edge's live lane
        slots, in edge order, into ``_idx_buf`` with one ``np.concatenate``;
        returns their count (0 = nothing occupied)."""
        lens = self._lane_len
        occupied = lens.nonzero()[0]
        counts = lens[occupied].tolist()
        total = sum(counts)
        if total:
            store = self._lane_store
            np.concatenate(
                [store[ei][:k] for ei, k in zip(occupied.tolist(), counts)],
                out=self._idx_buf[:total],
            )
        return total

    def _lane_pass_np(self, n: int) -> int:
        """cc's ``lane_change_pass`` in NumPy, over the gather
        ``_idx_buf[:n]``.

        The candidates are the followers on multilane segments whose in-lane
        leader is close and slow (:meth:`LaneChangeModel.wants_to_change`).
        They are visited in gather order, the reference engine's segment by
        segment, lane by lane, front to back scan, so the RNG stream is
        consumed identically.  Target-lane viability is
        :func:`lane_options_np`, whose bits are :func:`lane_options_py`'s, the
        scalar model's exact float sequence.  Decisions within a segment read
        the pre-change lanes (the reference applies its moves after scanning
        the whole segment), so a segment's moves are applied when the walk
        leaves it.  Writes (slot, from, to) per move to ``_moves_buf``, redoes
        the gather when anything moved, and returns the move count.
        """
        idx = self._idx_buf[:n]
        lc = self.lane_change
        pos = self._pos[idx]
        cand = np.zeros(n, dtype=bool)
        cand[1:] = ((pos[:-1] - pos[1:]) <= lc.blocked_distance_m) & (
            (self._desired[idx][1:] - self._speed[idx][:-1]) > lc.speed_gain_threshold_mps
        )
        cand &= self._ml[idx] & ~self._is_head[idx]
        slot_vehicle = self._slot_vehicle
        edge_order = self._edge_order
        politeness = lc.politeness
        rng = self.rng
        cur = -1
        pending: List[Tuple[Vehicle, int]] = []
        moves: List[Tuple[int, int, int]] = []
        for i in cand.nonzero()[0].tolist():
            v = slot_vehicle[int(idx[i])]
            assert v is not None
            ei = edge_order[v.edge]
            if ei != cur:
                if pending:
                    self._apply_lane_moves(cur, pending)
                    pending = []
                cur = ei
            # Inline scalar target-lane choice: politeness veto first (one
            # uniform per candidate, like the reference scan), then the
            # both-neighbour viability bits, then the tie draw only when
            # both neighbours are viable — identical RNG stream.
            if rng.random() < politeness:
                continue
            opts = self._lane_options_np(ei, v.lane, float(self._pos[v.slot]))
            if opts == 0:
                continue
            if opts == 3:
                target = v.lane + 1 if int(rng.integers(2)) == 0 else v.lane - 1
            elif opts == 1:
                target = v.lane + 1
            else:
                target = v.lane - 1
            pending.append((v, target))
            moves.append((v.slot, v.lane, target))
        if not moves:
            return 0
        self._apply_lane_moves(cur, pending)
        self._moves_buf[:len(moves)] = moves
        self._gather_np()
        return len(moves)

    def _lane_options_np(self, ei: int, lane: int, own: float) -> int:
        """:func:`lane_options_np` on edge ``ei`` (the lane bounds delimit
        the live prefix of the edge's buffer)."""
        return lane_options_np(
            lane,
            self._segs[ei].lanes,
            own,
            self.lane_change.required_gap_m / 2.0,
            self._lane_store[ei],
            self._bounds_np[ei],
            self._pos,
        )

    def _apply_lane_moves(self, ei: int, moves: List[Tuple[Vehicle, int]]) -> None:
        """Apply one segment's accepted lane changes to its lane slots."""
        for v, target in moves:
            self._lane_remove(ei, v.lane, v.slot)
            self._lane_insert(ei, target, v.slot)
            v.lane = target

    def _advance_np(self, n: int, now: float) -> int:
        """cc's ``advance_chain`` in NumPy, over the gather ``_idx_buf[:n]``.

        Every free-flow candidate is computed vectorized, the provably
        unconstrained and stopped followers are resolved vectorized
        (:meth:`SimplifiedIDM.batch_classify`), followers whose leader is final
        settle in exact vectorized rounds, and only the short chained tail at
        queue boundaries runs the scalar recurrence.  Arrivals are marked
        waiting since ``now`` and counted; ``_newly_buf[:n]`` is written only
        when the count is not zero.
        """
        dt = self.dt_s
        cf = self.car_following
        idx = self._idx_buf[:n]
        pos_a = self._pos
        speed_a = self._speed
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

        residual = (~resolved).nonzero()[0]
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

        pos_a[idx] = new_pos
        speed_a[idx] = new_speed
        # All arrivals in one vectorized pass: ``_wait_flag`` mirrors
        # ``waiting_since_s is not None``, so no per-vehicle probing.
        newly = (new_pos >= length - _ARRIVAL_EPS_M) & ~self._wait_flag[idx]
        n_newly = int(np.count_nonzero(newly))
        if n_newly:
            self._newly_buf[:n] = newly
            arrived = idx[newly]
            self._wait_flag[arrived] = True
            self._since[arrived] = now
        return n_newly

    def _detect_overtakes_fast(self, events: List[TrafficEvent]) -> None:
        """Post-step overtake scan over the per-edge rankings.

        ``_rank_store`` holds each multilane segment's slots in ascending
        (position, vid) order as of the last scan; car following preserves
        in-lane order and lane changes do not move vehicles longitudinally, so
        one monotonicity scan of the post-step positions confirms it.  Only
        segments where the scan finds an inversion (a positional tie counts
        when its vid order disagrees) enumerate their flipped pairs and re-sort
        their ranking.  The scan covers the segments flagged in ``_rank_elig``,
        those with vehicles in more than one lane; skipping the one-lane
        segments diverges from the reference at a positional tie (see
        :meth:`_advance_segments_batch`).  The pass (``_overtake_pass``) hands
        back each flipped pair as an (edge, passer slot, passee slot) row, in
        the reference engine's event order; the events are built here.
        """
        while True:
            got = self._overtake_pass()
            n_pairs = got if got >= 0 else ~got
            if n_pairs:
                self.stats.overtakes += n_pairs
                for ei, a, b in self._pairs_buf[:n_pairs].tolist():
                    passer, passee = self._slot_vehicle[a], self._slot_vehicle[b]
                    assert passer is not None and passee is not None
                    events.append(OvertakeEvent(time_s=self.time_s, edge=self._segs[ei].key,
                                                passer=passer, passee=passee))
            if got >= 0:
                return
            # One edge's pairs did not fit: the edges before it are done,
            # so grow the buffer and let the pass carry on.
            self._pairs_buf = np.empty((2 * self._pairs_buf.shape[0], 3), dtype=np.int64)
            self._bind_kernel()

    def _overtake_pass_np(self) -> int:
        """cc's ``overtake_pass`` in NumPy: the eligible rankings, concatenated
        in edge order, are scanned vectorized, and each inverted one's edge
        writes its flipped pairs (:meth:`_flip_pairs_np`).  Returns the pair
        count, or ``~count`` when an edge's pairs do not fit in ``_pairs_buf``,
        the edges before it done and that edge untouched."""
        elig = self._rank_elig.nonzero()[0]
        if not elig.size:
            return 0
        eis = elig.tolist()
        lens = self._lane_len[elig]
        store = self._rank_store
        slots = np.concatenate([store[ei][:k] for ei, k in zip(eis, lens.tolist())])
        arr = self._pos[slots]
        vids = self._vid[slots]
        prev = arr[:-1]
        nxt = arr[1:]
        bad = nxt < prev
        ties = nxt == prev
        np.logical_and(ties, vids[:-1] > vids[1:], out=ties)
        np.logical_or(bad, ties, out=bad)
        bounds = np.cumsum(lens)
        bad[bounds[:-1] - 1] = False
        hits = bad.nonzero()[0]
        if hits.size == 0:
            return 0
        n_pairs = 0
        for j in np.unique(np.searchsorted(bounds, hits, side="right")).tolist():
            got = self._flip_pairs_np(eis[j], n_pairs)
            if got < 0:
                return ~n_pairs
            n_pairs = got
        return n_pairs

    def _flip_pairs_np(self, ei: int, n_pairs: int) -> int:
        """Write edge ``ei``'s flipped pairs to ``_pairs_buf`` from row
        ``n_pairs`` and re-sort its ranking; returns the new row count, or -1,
        having changed nothing, when they do not fit.

        A pair flipped when its two slots' order in the ranking, which still
        holds the pre-step order, disagrees with their order in the re-sorted
        one; both are strict total orders, so that is the reference engine's
        (position, vid) tuple comparison.  Pairs are scanned in the edge's
        ``_occupancy`` order, the reference engine's event order.
        """
        ranking = self._rank_store[ei][:self._lane_len[ei]]
        after = ranking[np.lexsort((self._vid[ranking], self._pos[ranking]))]
        rank_before = {slot: r for r, slot in enumerate(ranking.tolist())}
        rank_after = {slot: r for r, slot in enumerate(after.tolist())}
        order = [self._vehicles[vid].slot for vid in self._occupancy[self._segs[ei].key]]
        flat: List[int] = []
        for i, a in enumerate(order):
            rb_a = rank_before[a]
            ra_a = rank_after[a]
            for b in order[i + 1:]:
                now_a_ahead = ra_a > rank_after[b]
                if (rb_a > rank_before[b]) == now_a_ahead:
                    continue
                flat += (ei, a, b) if now_a_ahead else (ei, b, a)
        end = n_pairs + len(flat) // 3
        if end > self._pairs_buf.shape[0]:
            return -1
        self._pairs_buf.reshape(-1)[3 * n_pairs:3 * end] = flat
        ranking[:] = after
        return end

    # -------------------------------------------------- intersection crossing
    def _process_intersections_batch(self, events: List[TrafficEvent]) -> None:
        """The intersection phase: admission, the crossings' Python decisions,
        then the transit pass.

        The admission (``_admit_pass``) fixes the step's crossing set before
        any crossing runs and writes it as rows, (slot, edge, lane, node), in
        the order the reference engine's ``_process_intersections`` and
        ``_admit`` produce.
        :meth:`_cross` decides each row in order (exit or next hop, the event,
        the bookkeeping) and gives it its target edge and placement number. The
        transit pass (:meth:`_run_rows`) then runs the rows' leaves and
        entries, drawing the entries' lanes from the engine generator in row
        order, and the lanes are read back.  Routers draw from their own
        generator, so drawing the lanes after every decision leaves the engine
        generator's stream as the reference engine's.
        """
        m = self._admit_pass(self.time_s)
        if not m:
            return
        rows = self._rows
        slot_vehicle = self._slot_vehicle
        nodes = self._nodes
        crossing: List[Vehicle] = []
        for r in range(0, 6 * m, 6):
            vehicle = slot_vehicle[rows[r]]
            assert vehicle is not None
            crossing.append(vehicle)
            rows[r + 4], rows[r + 5] = self._cross(vehicle, nodes[rows[r + 3]], events)
        self._run_rows(0, m)
        for r, vehicle in zip(range(2, 6 * m, 6), crossing):
            vehicle.lane = rows[r]

    def _admit_pass_np(self, now: float) -> int:
        """cc's ``admit_pass`` in NumPy: the step's crossing set.

        A vehicle waiting at a stop line is its lane's head (followers are held
        at least a vehicle length behind, and a vehicle at the stop line has
        no leader to trigger a lane change), marked by the advance in
        ``_wait_flag`` and ``_since``.  One whose dwell, ``now - since + dt``, has reached its
        edge's head node's delay is a candidate; candidates are taken in edge
        order, and a node registers at its first.  Node by node, in
        registration order, candidates sort by (since, vid), and the first
        ``_adm[node]`` become rows of ``_rows_buf``: (slot, edge, lane, node).
        Returns the row count.
        """
        waiting = self._wait_flag.nonzero()[0]
        if not waiting.size:
            return 0
        slot_vehicle = self._slot_vehicle
        edge_order = self._edge_order
        heads = []
        for slot in waiting.tolist():
            v = slot_vehicle[slot]
            assert v is not None
            heads.append((edge_order[v.edge], v.lane, slot))
        heads.sort()
        head_node, delay, since, vid = self._head_node, self._delay, self._since, self._vid
        dt = self.dt_s
        candidates: Dict[int, List[Tuple[float, int, int, int, int]]] = {}
        for ei, lane, slot in heads:
            node = head_node.item(ei)
            t = since.item(slot)
            if now - t + dt >= delay.item(node):
                candidates.setdefault(node, []).append((t, vid.item(slot), slot, ei, lane))
        rows = self._rows
        r = 0
        for node, queue in candidates.items():
            queue.sort()
            for _, _, slot, ei, lane in queue[:self._adm.item(node)]:
                rows[r], rows[r + 1], rows[r + 2], rows[r + 3] = slot, ei, lane, node
                r += 6
        return r // 6

    def _transit_pass_np(self, start: int, m: int) -> int:
        """cc's ``transit_pass`` in NumPy, over ``m`` rows of ``_rows_buf``
        from row ``start``.

        Each row's slot leaves its lane of the source edge through the splice
        pair, unless the source is -1 (a spawn); then, unless the target is -1
        (an exit), it enters the target edge with the row's placement number,
        at the position and speed :meth:`_place` gave it, in a lane drawn as
        ``Generator.integers(nlanes)`` (no draw on a one-lane edge), which the
        row's lane column takes.  A full target edge grows in place, so this
        returns ``start + m``.  The caller holds the bit generator's lock,
        which the ``Generator`` method takes again (it is re-entrant).
        """
        rows = self._rows
        segs = self._segs
        rng = self.rng
        for r in range(6 * start, 6 * (start + m), 6):
            slot, src, ei = rows[r], rows[r + 1], rows[r + 4]
            if src >= 0:
                self._wait_flag[slot] = False
                if segs[src].lanes > 1:
                    self._rank_remove(src, slot)
                self._lane_remove(src, rows[r + 2], slot)
            if ei < 0:
                continue
            seg = segs[ei]
            lanes = seg.lanes
            lane = int(rng.integers(lanes)) if lanes > 1 else 0
            rows[r + 2] = lane
            vehicle = self._slot_vehicle[slot]
            assert vehicle is not None
            self._seq[slot] = rows[r + 5]
            self._pos[slot] = vehicle.pos_m
            self._speed[slot] = vehicle.speed_mps
            self._freeflow[slot] = min(vehicle.desired_speed_mps, seg.speed_limit_mps)
            self._seglen[slot] = seg.length_m
            self._ml[slot] = lanes > 1
            self._wait_flag[slot] = False
            if lanes > 1:
                self._rank_insert(ei, slot)
            self._lane_insert(ei, lane, slot)
        return start + m

    # The step's six operations, one code path for both backends: these
    # NumPy methods, unless _bind_kernel sets cc's entry points on the engine
    # (each takes and returns what its entry point does; see StepKernel).
    # As class attributes they put the engine in no reference cycle.
    _gather: Callable[..., int] = _gather_np
    _lane_pass: Callable[..., int] = _lane_pass_np
    _advance: Callable[..., int] = _advance_np
    _overtake_pass: Callable[..., int] = _overtake_pass_np
    _admit_pass: Callable[..., int] = _admit_pass_np
    _transit_pass: Callable[..., int] = _transit_pass_np

    def _cross(
        self, vehicle: Vehicle, node: object, events: List[TrafficEvent]
    ) -> Tuple[int, int]:
        """Cross ``node`` from the vehicle's segment: exit through an
        outbound gate, or enter the next hop's segment at 0 m, with its
        event and bookkeeping.

        Returns the entered segment's edge index and placement number
        (:meth:`_place`), or ``(-1, -1)`` for an exit.  The slot arrays are
        left to the caller's transition row.
        """
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
            return _EXITED

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
        return self._place(vehicle, node, next_node, pos_m=0.0)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"TrafficEngine(net={self.net.name!r}, t={self.time_s:.1f}s, "
            f"vehicles={len(self._vehicles)}, crossings={self.stats.crossings})"
        )
