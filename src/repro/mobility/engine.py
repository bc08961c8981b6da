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
flags, and each slot's edge index and lane).  Each edge's occupancy is
two slot arrays, the live prefixes of grow-only buffers: its lanes front
to back, which is the gather order, and on multilane edges its overtake
ranking.  Entering, leaving and changing lanes update them in place,
inside the step's passes (the transit pass's rows, the lane pass's
moves).  A step gathers every non-empty edge's lane array, in edge order,
and scatters back with one bulk write; nothing is rebuilt.  Each
vehicle's route plan is resident too (a cursor and end into one route
pool, and its exit node), and the ``Vehicle`` objects' mobility fields
(``edge``, ``lane``, ``previous_node``, ``waiting_since_s``, ``pos_m``,
``speed_mps``) and plans become lazily synced mirrors (refreshed by any
public accessor; see :attr:`TrafficEngine.vehicles`): the step writes no
``Vehicle`` field.

A step is one code path over five operations that the engine binds once:
the movement phase (``_move_pass``: the gather, the lane-change pass, the
advance and the overtake pass), the intersection phase (``_cross_pass``:
the admission, the decision pass and the transit pass), and the three
passes that resume a phase after it handed back (``_overtake_pass``,
``_decide_pass`` and ``_transit_pass``).  With the compiled kernel
(:mod:`repro.mobility.kernels`, the default) each is one native call, so a
step is two native calls unless Python must decide a crossing or a buffer
must grow; without it each is a NumPy method of the engine
(``_move_pass_np`` … ``_transit_pass_np``) that reads and writes the same
buffers and returns the same, and that is the native call's oracle; the
fused twins call the pieces' twins (``_gather_np``, ``_lane_pass_np``,
``_advance_np``, ``_overtake_pass_np``, ``_admit_pass_np``, …) in order,
and each piece is the oracle of its C counterpart.  Because each lane
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
heads all: the admission fixes the step's crossing set, the decision pass
decides each crossing in order as the vehicle's router would, from the
resident plans and a route table that caches
:func:`~repro.roadnet.routing.shortest_path`, and
hands the rows it does not decide (exits, patrol cars and other routers,
trips that ran out, plans not yet installed, route-table misses) to
:meth:`TrafficEngine._decide_in_python`, and the transit pass then runs
their leaves and entries with their lane draws
(:meth:`TrafficEngine._process_intersections_batch`).  A step emits its
events as one :class:`~repro.mobility.events.StepBatch`
(:meth:`TrafficEngine.step_batch`), plain crossings and exits as index
arrays and overtakes as (edge, passer, passee) rows that the counting
protocol consumes directly; :meth:`TrafficEngine.step` materializes its
stream as event objects.
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

import contextlib
import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import (
    Any, Callable, ContextManager, Dict, Iterable, Iterator, List, Optional, Tuple, cast,
)

import numpy as np

from ..errors import MobilityError, RoutingError
from ..roadnet import routing
from ..roadnet.graph import DirectedSegment, RoadNetwork
from ..roadnet.routing import (
    FixedTripRouter,
    RandomTurnRouter,
    RandomWaypointRouter,
    RoutePlan,
    Router,
)
from .car_following import LaneChangeModel, SimplifiedIDM
from .demand import VehicleSpec
from .events import CrossingEvent, EntryEvent, StepBatch, TrafficEvent
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

#: A slot's router kind, which says how the decision pass decides its
#: crossings (the C source's ``KIND_*``): in Python, along a
#: :class:`FixedTripRouter` plan, along a :class:`RandomWaypointRouter` plan
#: with its replans, or by a :class:`RandomTurnRouter` draw.
_KIND_OTHER, _KIND_TRIP, _KIND_WAYPOINT, _KIND_TURN = range(4)
_NATIVE_KINDS = {
    FixedTripRouter: _KIND_TRIP,
    RandomWaypointRouter: _KIND_WAYPOINT,
    RandomTurnRouter: _KIND_TURN,
}
#: Why the decision pass handed a row to Python (``WHY_*``): a router it
#: does not run, a plan not yet installed, an exit, a trip whose plan ran
#: out, a route-table miss, or a replan whose every draw failed.
_WHY_ROUTER, _WHY_INSTALL, _WHY_EXIT, _WHY_TRIP, _WHY_MISS, _WHY_NO_ROUTE = range(6)
#: The cells of ``_decide_state`` (``DECIDE_*``): a route-table miss's
#: row, destination and attempt, the decision pass's last hand-back's
#: reason, the next placement number, and the fused intersection call's row
#: count and the pass (``PHASE_*``) that handed its row back: the decision
#: pass, or the transit pass at a full target edge.
_ROW, _DEST, _ATTEMPT, _WHY, _PLACEMENTS, _ROWS, _PHASE = range(7)
_PHASE_DECIDE, _PHASE_TRANSIT = range(2)
#: :meth:`RandomWaypointRouter.plan_from`'s destination draws.
_REPLAN_ATTEMPTS = 16
#: Initial size of the route pool, grown by doubling.
_INITIAL_POOL = 256


def _view(arr: np.ndarray) -> memoryview:
    """A flat int64 view of ``arr``'s buffer."""
    return memoryview(arr.reshape(-1)).cast("B").cast("q")


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
        draw from this generator.  The routers the decision pass runs draw
        from one routing generator of their own, which the first of them
        binds (:meth:`_router_kind`).
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
        default): the movement phase (the gather, the lane-change pass, the
        whole advance recurrence and the overtake pass) and the
        intersection phase (the admission, the crossings' decisions and the
        step's transitions) each run as one native call into a small C
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
        # Every per-edge structure is indexed in ``net.segments()`` order,
        # which fixes the RNG-consumption and event order of the step.
        self._segments: Dict[Tuple[object, object], DirectedSegment] = {}
        self._edge_order: Dict[Tuple[object, object], int] = {}
        #: the segment at each edge index
        self._segs: List[DirectedSegment] = list(net.segments())
        for i, seg in enumerate(self._segs):
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
        # The decision pass's network tables: each edge's key and tail node
        # index, each node's outbound edges in ``outbound_neighbors`` order
        # (``_out_node``/``_out_edge`` from ``_out_start[u]`` to
        # ``_out_start[u + 1]``) and its outbound-gate flag.
        index = self._node_index
        self._edge_keys = [seg.key for seg in self._segs]
        self._edge_tail = np.array([index[seg.tail] for seg in self._segs], dtype=np.int64)
        outs = [net.outbound_neighbors(node) for node in self._nodes]
        self._out_start = np.cumsum([0] + [len(out) for out in outs], dtype=np.int64)
        self._out_node = np.array([index[v] for out in outs for v in out], dtype=np.int64)
        self._out_edge = np.array(
            [self._edge_order[(u, v)] for u, out in zip(self._nodes, outs) for v in out],
            dtype=np.int64,
        )
        self._gate_out = np.array(
            [node in self._gates and self._gates[node].outbound for node in self._nodes],
            dtype=np.uint8,
        )
        # The route state: the (origin, destination) route table, a cache of
        # ``shortest_path`` that holds 0 (unknown), -1 (unreachable) or the
        # route's offset in the pool, where the route is its length and then
        # its nodes after the origin, each stored once; the pool's used
        # length (cell 0 is never a route) and route count; and the decision
        # pass's cells.  The routers' generator is bound by the first router
        # the pass runs (:meth:`_router_kind`).
        self._n_nodes = n_nodes
        self._route_table = np.zeros(n_nodes * n_nodes, dtype=np.int64)
        self._route_pool = np.zeros(_INITIAL_POOL, dtype=np.int64)
        self._pool_len = 1
        self._n_routes = 0
        self._decide_state = np.array([-1, 0, 0, 0, 0, 0, 0], dtype=np.int64)
        self._route_rng: Optional[np.random.Generator] = None
        self._route_lock: ContextManager[Any] = contextlib.nullcontext()
        self._plans_stale = False
        #: Rows decided by the decision pass, and rows Python decided, by
        #: reason; ``route_miss`` counts the route-table entries Python
        #: filled for the pass.  Kept out of :attr:`stats`.
        #: ``install`` counts the hand-backs at which Python installed a
        #: resident plan for the pass, which then decides the row.
        self.decisions: Dict[str, int] = dict.fromkeys(
            ("pass", "exit", "other_router", "trip_replan", "route_miss", "install"), 0
        )

        # Resident structure-of-arrays state (vectorized engine only).  One
        # slot per vehicle currently inside, allocated from a free list and
        # grown by capacity doubling; ``_pos``/``_speed`` and ``_edge``/
        # ``_lane`` (the edge index and lane of each slot's last placement
        # or lane change) are the *source of truth* for the vehicle's place
        # while the engine runs — the mirror fields on the Vehicle objects
        # are refreshed lazily (``_sync_mirrors``) before any public read.
        # ``_freeflow``/``_seglen``/``_ml`` are per-current-segment
        # invariants rewritten on every placement; ``_desired`` and ``_vid``
        # are fixed at spawn.  ``_seq`` is the placement number of each
        # slot's current edge entry, so an edge's slots sorted by it are its
        # vehicles in entry order (:meth:`_entry_order`): the order of
        # :meth:`occupancy` and the pair order of both overtake passes.
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
        self._edge = np.empty(0, dtype=np.int64)
        self._lane = np.empty(0, dtype=np.int64)
        # Each slot's router kind and resident plan, the route pool's cells
        # ``_plan_cur`` to ``_plan_end`` (``_plan_cur`` -1 until the plan is
        # installed, at the vehicle's first crossing), and its exit node (-1
        # for none); ``Vehicle.plan`` mirrors them (:meth:`_sync_plans`).
        self._kind = np.empty(0, dtype=np.uint8)
        self._plan_cur = np.empty(0, dtype=np.int64)
        self._plan_end = np.empty(0, dtype=np.int64)
        self._exit_node = np.empty(0, dtype=np.int64)
        self._is_head = np.empty(0, dtype=bool)
        self._ml = np.empty(0, dtype=bool)
        #: Whether each slot waits at its stop line (cleared on every
        #: placement, set when a vehicle reaches it), and ``_since``, since
        #: when, where it is set: ``waiting_since_s`` is their mirror.  The
        #: advance writes both, and the admission reads them from the lane
        #: heads.
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
        # preserved, on growth): the gather index vector, the lane moves as
        # (slot, from, to) rows and the transition rows, (slot, source
        # edge, lane, node, target edge, placement number), which Python
        # reaches through ``_rows``, a flat view made on growth; and for
        # cc's passes, the lane-change candidate mask, the sort order of the
        # overtake and admission passes and the admission candidates as
        # (slot, edge, lane) rows.  The compiled kernel binds them once per
        # capacity change, so each per-step native call passes only what
        # varies.
        self._idx_buf = np.empty(0, dtype=np.intp)
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
        # The first fleet's capacity, which binds the kernel, and the step's
        # five operations: cc's entry points, bound once (the struct they
        # take is never reallocated), or the NumPy methods below.
        self._grow(_INITIAL_CAPACITY)
        if self._kernel is not None:
            kernel = self._kernel
            self._move_pass = kernel.move_bound
            self._cross_pass = kernel.cross_bound
            self._overtake_pass = kernel.overtake_bound
            self._decide_pass = kernel.decide_bound
            self._transit_pass = kernel.transit_bound
        self._mirrors_stale = False

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
        """Assign the vehicle a slot in the resident arrays (vectorized),
        with its router's kind and its plan left to install."""
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
        self._kind_v[slot] = self._router_kind(vehicle)
        self._cur_v[slot] = -1
        return slot

    def _router_kind(self, vehicle: Vehicle) -> int:
        """The kind of ``vehicle``'s router, :data:`_KIND_OTHER` unless the
        decision pass can run it: a router of exactly one of the three
        native classes, on this engine's network, drawing from the engine's
        one routing generator, which the first such router binds, and not a
        patrol car's (patrol cars never exit, which the pass does not
        test)."""
        router = vehicle.router
        kind = _NATIVE_KINDS.get(type(router), _KIND_OTHER)
        if kind == _KIND_OTHER or vehicle.is_patrol or router.net is not self.net:
            return _KIND_OTHER
        rng = router.rng
        if self._route_rng is None:
            self._route_rng = rng
            self._route_lock = rng.bit_generator.lock
            if self._kernel is not None:
                self._kernel.bind_route_generator(rng.bit_generator)
        elif rng.bit_generator is not self._route_rng.bit_generator:
            return _KIND_OTHER
        return kind

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
        self._edge = np.concatenate((self._edge, ipad))
        self._lane = np.concatenate((self._lane, ipad))
        self._plan_cur = np.concatenate((self._plan_cur, ipad))
        self._plan_end = np.concatenate((self._plan_end, ipad))
        self._exit_node = np.concatenate((self._exit_node, ipad))
        self._kind = np.concatenate((self._kind, np.zeros(extra, dtype=np.uint8)))
        bpad = np.zeros(extra, dtype=bool)
        self._is_head = np.concatenate((self._is_head, bpad))
        self._ml = np.concatenate((self._ml, bpad))
        self._wait_flag = np.concatenate((self._wait_flag, bpad))
        self._since = np.concatenate((self._since, pad))
        self._slot_vehicle.extend([None] * extra)
        self._capacity = capacity
        self._idx_buf = np.empty(capacity, dtype=np.intp)
        self._cand_buf = np.empty(capacity, dtype=bool)
        self._moves_buf = np.empty((capacity, 3), dtype=np.int64)
        self._order_buf = np.empty(capacity, dtype=np.int64)
        self._cands_buf = np.empty((capacity, 3), dtype=np.int64)
        self._rows_buf = np.empty((capacity, 6), dtype=np.int64)
        if self._pairs_buf.shape[0] < capacity:
            self._pairs_buf = np.empty((capacity, 3), dtype=np.int64)
        self._bind_kernel()

    def _bind_kernel(self) -> None:
        """(Re-)bind the compiled kernel to the current resident arrays.

        Called whenever any bound array is reallocated (capacity growth, a
        pair buffer that filled up, a grown or reset route pool); the
        kernel rewrites only the moved arrays' addresses, and each step's
        native calls pass only what varies.  Without the kernel the NumPy
        operations read the arrays through the engine.  Either way
        Python's flat views of the arrays it reads and writes item by item
        are made anew: memoryview indexing costs a fraction of NumPy's
        scalar indexing.
        """
        self._rows = _view(self._rows_buf)
        self._kind_v = memoryview(self._kind)
        self._cur_v = _view(self._plan_cur)
        self._end_v = _view(self._plan_end)
        self._exit_v = _view(self._exit_node)
        self._pool_v = _view(self._route_pool)
        self._table_v = _view(self._route_table)
        self._state = _view(self._decide_state)
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
            edge=self._edge,
            lane=self._lane,
            heads=self._is_head,
            waitflag=self._wait_flag,
            multilane=self._ml,
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
            kind=self._kind,
            plan_cur=self._plan_cur,
            plan_end=self._plan_end,
            exit_node=self._exit_node,
            edge_tail=self._edge_tail,
            out_start=self._out_start,
            out_node=self._out_node,
            out_edge=self._out_edge,
            gate_out=self._gate_out,
            route_table=self._route_table,
            route_pool=self._route_pool,
            decide_state=self._decide_state,
            bit_generator=self._bit_generator,
            route_bit_generator=(
                None if self._route_rng is None else self._route_rng.bit_generator
            ),
            blocked_m=lc.blocked_distance_m,
            gain_mps=lc.speed_gain_threshold_mps,
            gap_half_m=lc.required_gap_m / 2.0,
            politeness=lc.politeness,
        )

    def _sync_mirrors(self) -> None:
        """Refresh the Vehicle mirrors of the resident columns and route
        plans.

        Called lazily by the public accessors; the hot step never pays for
        it.  ``edge`` and ``lane`` are the slot's ``_edge`` (as its key) and
        ``_lane``, ``previous_node`` is that edge's tail (every placement
        sets it to the new edge's tail), ``waiting_since_s`` is ``_since``
        where ``_wait_flag`` is set, and the kinematics are copied bit for
        bit (plain ``float``), so anything reading them or ``plan``
        afterwards sees exactly the state the reference engine would have
        stored.
        """
        if self._plans_stale:
            self._sync_plans()
        if not self._mirrors_stale:
            return
        keys = self._edge_keys
        edge, lane = self._edge.tolist(), self._lane.tolist()
        pos, speed = self._pos.tolist(), self._speed.tolist()
        waiting, since = self._wait_flag.tolist(), self._since.tolist()
        for v in self._vehicles.values():
            slot = v.slot
            key = keys[edge[slot]]
            v.edge = key
            v.lane = lane[slot]
            v.previous_node = key[0]
            v.waiting_since_s = since[slot] if waiting[slot] else None
            v.pos_m = pos[slot]
            v.speed_mps = speed[slot]
        self._mirrors_stale = False

    def _sync_plans(self) -> None:
        """Refresh every resident plan's ``Vehicle.plan``."""
        for v in self._vehicles.values():
            if self._has_resident_plan(v.slot):
                self._sync_plan(v.slot, v.plan)
        self._plans_stale = False

    def _has_resident_plan(self, slot: int) -> bool:
        """Whether slot ``slot`` holds an installed plan: a trip's or a
        random waypoint's, once its vehicle first crossed."""
        return self._kind_v[slot] in (_KIND_TRIP, _KIND_WAYPOINT) and self._cur_v[slot] >= 0

    def _sync_plan(self, slot: int, plan: RoutePlan) -> None:
        """Set ``plan`` from slot ``slot``'s installed resident plan."""
        nodes = self._nodes
        plan.waypoints = [
            nodes[i] for i in self._route_pool[self._cur_v[slot]:self._end_v[slot]].tolist()
        ]
        exit_node = self._exit_v[slot]
        plan.exits_at = nodes[exit_node] if exit_node >= 0 else None

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
        caller runs (:meth:`_transit`), which sets ``vehicle.lane``.
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
        return self._edge_order[key], self._next_placement()

    def _next_placement(self) -> int:
        """Take the next placement number: one sequence, which spawns, the
        decision pass and Python's decisions share."""
        state = self._state
        seq = state[_PLACEMENTS]
        state[_PLACEMENTS] = seq + 1
        return seq

    @property
    def _placements(self) -> int:
        """How many placement numbers have been taken."""
        return self._state[_PLACEMENTS]

    def _run_rows(self, start: int, stop: int) -> None:
        """Run transition rows ``start`` .. ``stop - 1`` of ``_rows_buf`` in
        the transit pass, growing each target edge it finds full
        (:meth:`_grow_edge`) and resuming at that row.  The pass draws the
        entries' lanes, so the caller holds the bit generator's lock."""
        transit = self._transit_pass
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
        leave, as a crossing does, and otherwise at its ``pos_m``; its
        ``lane`` mirror is set."""
        slot = vehicle.slot
        self._pos[slot] = vehicle.pos_m
        rows = self._rows
        rows[0], rows[1], rows[2], rows[3], rows[4], rows[5] = (
            slot, src, self._lane.item(slot), -1, target, seq
        )
        with self._bit_generator.lock:
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
        """Vehicles currently inside, by vid (mobility state freshly synced).

        The vectorized engine keeps each vehicle's edge, lane, position,
        speed, waiting state and plan in resident arrays during the step
        loop; this accessor refreshes the Vehicle mirrors before handing the
        mapping out, so external readers always see the exact per-vehicle
        state.  Engine internals use ``_vehicles`` directly and read the
        arrays instead.
        """
        self._sync_mirrors()
        return self._vehicles

    def active_vehicles(self, *, include_patrol: bool = True) -> List[Vehicle]:
        """Vehicles currently inside the system (fresh list per call).

        Per-step bookkeeping should prefer :meth:`iter_active` (no list) or
        :meth:`active_count` (O(1)).
        """
        return list(self.iter_active(include_patrol=include_patrol))

    def iter_active(self, *, include_patrol: bool = True) -> Iterator[Vehicle]:
        """Iterate over the vehicles currently inside without building a list."""
        self._sync_mirrors()
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
        """Vehicles currently on ``edge``, in the order they entered it."""
        self._sync_mirrors()
        vids = self._vid[self._entry_order(self._edge_order[edge])].tolist()
        return [self._vehicles[vid] for vid in vids]

    def _entry_order(self, ei: int) -> List[int]:
        """Edge ``ei``'s slots in the order their vehicles entered it, which
        is ascending ``_seq`` (placement numbers are never reused)."""
        slots = self._lane_store[ei][:self._lane_len[ei]]
        return slots[np.argsort(self._seq[slots])].tolist()

    # ------------------------------------------------------------------ step
    def step(self) -> List[TrafficEvent]:
        """Advance the world by one time step and return the events produced:
        :meth:`step_batch`'s stream as event objects."""
        return list(self.step_batch().iter_events())

    def step_batch(self) -> StepBatch:
        """Advance one time step and return its events.

        Plain intersection crossings and border exits are appended to the
        returned :class:`~repro.mobility.events.StepBatch`'s parallel arrays
        (no per-crossing :class:`CrossingEvent` objects) and enter its
        ordered stream as indices; overtakes enter it as (edge, passer,
        passee) rows.  ``batch.iter_events()`` materializes the stream.
        """
        batch = StepBatch(self.time_s)
        self._step_core(batch)
        return batch

    def _step_core(self, batch: StepBatch) -> None:
        """The step's two phases, each one native call on cc.  The engine
        generator's lock (the lane and transit passes draw from it) and the
        routing generator's (the decision pass draws from it) are taken once
        for the step; the routers and ``Generator`` methods that Python
        rows call take them again (both are re-entrant)."""
        self._mirrors_stale = True
        with self._bit_generator.lock, self._route_lock:
            self._advance_segments_batch(batch)
            self._process_intersections_batch(batch)
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
    def _advance_segments_batch(self, batch: StepBatch) -> None:
        """The movement phase (the vectorized step's first half).

        ``_move_pass`` gathers every non-empty edge's lanes into
        ``_idx_buf`` (a follower's in-lane leader is the previous gather
        index); while watching, the lane-change pass moves the blocked
        followers it picks, drawing from the engine generator; the advance
        writes the post-step positions and speeds in place and marks the
        vehicles that reached their stop line waiting; and, while watching,
        the overtake pass writes the step's flipped pairs, which become
        ``batch``'s overtake rows (:meth:`_record_overtakes`).  Watching
        means ``allow_overtaking`` on a network with a multilane segment:
        elsewhere no vehicle's ``_ml`` byte and no ``_rank_elig`` byte is
        set, so the two passes would find nothing and draw nothing.  No
        ``Vehicle`` field is written.

        The overtake pass skips multilane segments whose vehicles currently
        share a single lane, and this is a **known divergence** from the
        reference engine, not an equivalence.  A lane orders a positional
        tie by ascending vid, front to back, so the lower vid is in front;
        the ranking orders it by ascending (position, vid), so the lower vid
        is behind.  When a tied leader pulls away, the ranking flips: the
        reference reports an overtake, and a skipped ranking keeps the
        stale order until a later scan of that segment finds it.  Two
        vehicles spawned at one origin in one step onto the same lane show
        it (``TestOneLaneTie`` in ``tests/unit/test_mobility_engine.py``, a
        strict xfail).  Scanning every occupied multilane segment fixes it
        but changes pinned benchmark digests, so it waits for a change that
        may re-pin them.
        """
        got = self._move_pass(self.time_s, self.allow_overtaking and self._multilane_net)
        if got:
            self._record_overtakes(batch, got)

    def _move_pass_np(self, now: float, watching: bool) -> int:
        """cc's ``move_pass`` in NumPy: :meth:`_gather_np`, then, when
        ``watching``, :meth:`_lane_pass_np`, :meth:`_advance_np` and, when
        ``watching``, :meth:`_overtake_pass_np`, whose result it returns (0
        when not watching)."""
        n = self._gather_np()
        if not n:
            return 0
        if watching:
            self._lane_pass_np(n)
        self._advance_np(n, now)
        return self._overtake_pass_np() if watching else 0

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
        edge, lane = self._edge, self._lane
        politeness = lc.politeness
        rng = self.rng
        cur = -1
        pending: List[Tuple[int, int]] = []
        moves: List[Tuple[int, int, int]] = []
        for i in cand.nonzero()[0].tolist():
            slot = idx.item(i)
            ei = edge.item(slot)
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
            at = lane.item(slot)
            opts = self._lane_options_np(ei, at, self._pos.item(slot))
            if opts == 0:
                continue
            if opts == 3:
                target = at + 1 if int(rng.integers(2)) == 0 else at - 1
            elif opts == 1:
                target = at + 1
            else:
                target = at - 1
            pending.append((slot, target))
            moves.append((slot, at, target))
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

    def _apply_lane_moves(self, ei: int, moves: List[Tuple[int, int]]) -> None:
        """Apply one segment's accepted lane changes, (slot, target lane)
        pairs, to its lane slots and the slots' ``_lane``."""
        lane = self._lane
        for slot, target in moves:
            self._lane_remove(ei, lane.item(slot), slot)
            self._lane_insert(ei, target, slot)
            lane[slot] = target

    def _advance_np(self, n: int, now: float) -> int:
        """cc's ``advance_chain`` in NumPy, over the gather ``_idx_buf[:n]``.

        Every free-flow candidate is computed vectorized, the provably
        unconstrained and stopped followers are resolved vectorized
        (:meth:`SimplifiedIDM.batch_classify`), followers whose leader is final
        settle in exact vectorized rounds, and only the short chained tail at
        queue boundaries runs the scalar recurrence.  Arrivals are marked
        waiting since ``now`` and counted.
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
        # All arrivals in one vectorized pass, no per-vehicle probing.
        newly = (new_pos >= length - _ARRIVAL_EPS_M) & ~self._wait_flag[idx]
        n_newly = int(np.count_nonzero(newly))
        if n_newly:
            arrived = idx[newly]
            self._wait_flag[arrived] = True
            self._since[arrived] = now
        return n_newly

    def _record_overtakes(self, batch: StepBatch, got: int) -> None:
        """Add the overtake pass's pairs to ``batch`` as rows, given the
        pass's result ``got``.

        ``_rank_store`` holds each multilane segment's slots in ascending
        (position, vid) order as of the last scan; car following preserves
        in-lane order and lane changes do not move vehicles longitudinally, so
        one monotonicity scan of the post-step positions confirms it.  Only
        segments where the scan finds an inversion (a positional tie counts
        when its vid order disagrees) enumerate their flipped pairs and re-sort
        their ranking.  The scan covers the segments flagged in ``_rank_elig``,
        those with vehicles in more than one lane; skipping the one-lane
        segments diverges from the reference at a positional tie (see
        :meth:`_advance_segments_batch`).  The pass hands back each flipped
        pair as an (edge, passer slot, passee slot) row of ``_pairs_buf``, in
        the reference engine's event order, and ``~count`` when the buffer
        filled up: the buffer is then doubled and ``_overtake_pass`` carries
        on from the edge that did not fit.
        """
        keys = self._edge_keys
        slot_vehicle = cast(List[Vehicle], self._slot_vehicle)
        add_overtake = batch.add_overtake
        while True:
            n_pairs = got if got >= 0 else ~got
            self.stats.overtakes += n_pairs
            for ei, a, b in self._pairs_buf[:n_pairs].tolist():
                add_overtake(keys[ei], slot_vehicle[a], slot_vehicle[b])
            if got >= 0:
                return
            # One edge's pairs did not fit: the edges before it are done,
            # so grow the buffer and let the pass carry on.
            self._pairs_buf = np.empty((2 * self._pairs_buf.shape[0], 3), dtype=np.int64)
            self._bind_kernel()
            got = self._overtake_pass()

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
        entry order (:meth:`_entry_order`), the reference engine's event
        order, as cc's pass does.
        """
        ranking = self._rank_store[ei][:self._lane_len[ei]]
        after = ranking[np.lexsort((self._vid[ranking], self._pos[ranking]))]
        rank_before = {slot: r for r, slot in enumerate(ranking.tolist())}
        rank_after = {slot: r for r, slot in enumerate(after.tolist())}
        order = self._entry_order(ei)
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
    def _process_intersections_batch(self, batch: StepBatch) -> None:
        """The intersection phase: admission, the decision pass, then the
        transit pass, in one call (``_cross_pass``), and the step's crossings
        and exits in one loop.

        The admission fixes the step's crossing set before any crossing runs
        and writes it as rows, (slot, edge, lane, node), in the order the
        reference engine's ``_process_intersections`` and ``_admit``
        produce.  The decision pass gives each row, in order, its target
        edge and placement number, as the vehicle's router would at the
        row's node, drawing from the routing generator; a row it does not
        decide it hands back (:meth:`_finish_crossings`).  The transit pass
        then runs the rows' leaves and entries, drawing the entries' lanes
        from the engine generator in row order.  Routers draw from their own
        generator, so drawing the lanes after every decision leaves the
        engine generator's stream as the reference engine's.  Last, each
        row becomes its event in ``batch``, or its vehicle exits
        (:meth:`_exit`).
        """
        m = self._cross_pass(self.time_s)
        if m < 0:
            m = self._finish_crossings(~m)
        else:
            self.decisions["pass"] += m
        if not m:
            return
        self._plans_stale = True
        rows = self._rows
        slot_vehicle = cast(List[Vehicle], self._slot_vehicle)
        nodes = self._nodes
        keys = self._edge_keys
        items = batch.items
        add_crossing = batch.add_crossing
        crossings = 0
        for r in range(0, 6 * m, 6):
            vehicle = slot_vehicle[rows[r]]
            node = nodes[rows[r + 3]]
            tail = keys[rows[r + 1]][0]
            ei = rows[r + 4]
            if ei < 0:
                self._exit(vehicle, node, tail, batch)
                continue
            items.append(add_crossing(vehicle, node, tail, keys[ei][1]))
            crossings += 1
        self.stats.crossings += crossings

    def _finish_crossings(self, row: int) -> int:
        """Finish the intersection phase that ``_cross_pass`` handed back at
        row ``row``; returns the step's row count.

        At a decision hand-back, :meth:`_decide_in_python` decides the row
        and the decision pass resumes at it or after it, until every row is
        decided; then the transit pass runs every row.  At a full target
        edge the edge grows and the transit pass resumes at the row
        (:meth:`_run_rows`).
        """
        state = self._state
        m = state[_ROWS]
        if state[_PHASE] == _PHASE_DECIDE:
            in_python = 0
            got = ~row
            while got < 0:
                start = ~got
                if not self._decide_in_python(start):
                    in_python += 1
                    start += 1
                got = self._decide_pass(start, m - start)
            self.decisions["pass"] += m - in_python
            self._run_rows(0, m)
        else:
            self.decisions["pass"] += m
            self._grow_edge(self._rows[6 * row + 4])
            self._run_rows(row, m)
        return m

    def _exit(self, vehicle: Vehicle, node: object, tail: object, batch: StepBatch) -> None:
        """Take ``vehicle``, whose transition row has run, out of the open
        system through gate ``node``, arriving from ``tail``, with its exit
        event in ``batch``."""
        # Materialize the departing vehicle's mirrors so exit events and the
        # departed pool carry its final state even though the resident
        # arrays are the in-run source of truth.
        slot = vehicle.slot
        vehicle.pos_m = self._pos.item(slot)
        vehicle.speed_mps = self._speed.item(slot)
        vehicle.lane = self._lane.item(slot)
        vehicle.previous_node = tail
        vehicle.edge = None
        vehicle.waiting_since_s = None
        vehicle.exited_at_s = self.time_s
        del self._vehicles[vehicle.vid]
        self._release_slot(vehicle)
        self._departed[vehicle.vid] = vehicle
        self._inside_nonpatrol -= 1
        self.stats.exits += 1
        batch.items.append(batch.add_exit(vehicle, node, tail))

    def _decide_in_python(self, i: int) -> bool:
        """Decide row ``i``, which the decision pass handed back, and say
        whether the pass must resume at row ``i`` (True) or after it.

        A route-table miss is filled from ``shortest_path`` (or marked
        unreachable) and the pass resumes at the row with the draw it
        stashed; a plan not yet installed is installed (counted under
        ``install``) and the pass resumes too.  A replan whose every draw
        failed raises, as :meth:`RandomWaypointRouter.plan_from` does.  Any other row is
        decided here as the seed engine decides it: an exit through an
        outbound gate, or the router's next hop, with the row's target edge
        and the next placement number; a resident plan is synced to
        ``Vehicle.plan`` before and installed from it after.
        """
        state = self._state
        why = state[_WHY]
        rows = self._rows
        r = 6 * i
        slot, node_i = rows[r], rows[r + 3]
        if why == _WHY_MISS:
            self._resolve_route(node_i, state[_DEST])
            self.decisions["route_miss"] += 1
            return True
        node = self._nodes[node_i]
        if why == _WHY_NO_ROUTE:
            raise RoutingError(f"could not find any destination reachable from {node!r}")
        vehicle = self._slot_vehicle[slot]
        assert vehicle is not None
        tail, head = self._edge_keys[rows[r + 1]]
        plan = vehicle.plan
        if why == _WHY_INSTALL:
            # The plan as made at spawn, at the segment's tail.
            self._install_plan(slot, tail, head, plan)
            self.decisions["install"] += 1
            return True
        resident = self._has_resident_plan(slot)
        if resident:
            self._sync_plan(slot, plan)
        gate = self._gates.get(node)
        if (gate is not None and gate.outbound and plan.exits_at == node and plan.empty
                and not vehicle.is_patrol):
            rows[r + 4] = rows[r + 5] = -1
            self.decisions["exit"] += 1
            return False
        assert vehicle.router is not None
        next_node = vehicle.router.next_hop(node, plan, previous=tail)
        seg = self._segments.get((node, next_node))
        if seg is None:
            seg = self.net.segment(node, next_node)  # raises MobilityError
        rows[r + 4] = self._edge_order[seg.key]
        rows[r + 5] = self._next_placement()
        if resident:
            self._install_plan(slot, node, next_node, plan)
        self.decisions["trip_replan" if why == _WHY_TRIP else "other_router"] += 1
        return False

    def _install_plan(self, slot: int, origin: object, hop: object, plan: RoutePlan) -> None:
        """Make ``plan`` slot ``slot``'s resident plan: the plan its router
        made at ``origin``, its first node ``hop`` taken.

        A native router's plan is made by a replan, so the plan with ``hop``
        before it is the route from ``origin`` to its last node, which the
        route table then points at (it is stored once if the table does not
        know it yet) and the slot's plan points into.
        """
        index = self._node_index
        exits_at = plan.exits_at
        self._exit_v[slot] = -1 if exits_at is None else index[exits_at]
        waypoints = plan.waypoints
        cur = end = 0
        if waypoints:
            key = index[origin] * self._n_nodes + index[waypoints[-1]]
            at = self._table_v[key]
            if at <= 0:
                at = self._store_route([hop, *waypoints])
                self._table_v[key] = at
            cur = at + 2
            end = at + 1 + self._pool_v[at]
        self._cur_v[slot] = cur
        self._end_v[slot] = end

    def _resolve_route(self, origin: int, destination: int) -> None:
        """Fill the route table's (``origin``, ``destination``) entry, a
        miss of the decision pass, from ``shortest_path``: the route,
        or -1 when there is none."""
        nodes = self._nodes
        try:
            # Through the module, as the routers call it, so that wrapping
            # ``routing.shortest_path`` sees these lookups too.
            path = routing.shortest_path(self.net, nodes[origin], nodes[destination])
        except RoutingError:
            at = -1
        else:
            at = self._store_route(path[1:])
        self._table_v[origin * self._n_nodes + destination] = at

    def _store_route(self, route: List[object]) -> int:
        """Append ``route`` (nodes) to the route pool as its length and its
        node indices; returns its offset.

        The table only caches routes, so when it holds
        ``net.route_cache_limit`` of them it starts over: it forgets them
        all and the pool keeps only the live plans (:meth:`_reset_routes`).
        """
        limit = self.net.route_cache_limit
        if limit is not None and self._n_routes >= limit:
            self._reset_routes()
        at = self._pool_len
        end = at + 1 + len(route)
        if end > self._route_pool.shape[0]:
            pool = np.zeros(max(end, 2 * self._route_pool.shape[0]), dtype=np.int64)
            pool[:at] = self._route_pool[:at]
            self._route_pool = pool
            self._bind_kernel()
        index = self._node_index
        self._route_pool[at:end] = [len(route), *[index[node] for node in route]]
        self._pool_len = end
        self._n_routes += 1
        return at

    def _reset_routes(self) -> None:
        """Forget every route: a zeroed table, and a pool holding only each
        installed plan's remaining nodes, copied, with the plans pointed at
        their copies."""
        old = self._route_pool
        live = [
            (v.slot, self._cur_v[v.slot], self._end_v[v.slot])
            for v in self._vehicles.values() if self._has_resident_plan(v.slot)
        ]
        size = 1 + sum(end - cur for _, cur, end in live)
        pool = np.zeros(max(_INITIAL_POOL, 2 * size), dtype=np.int64)
        at = 1
        for slot, cur, end in live:
            pool[at:at + end - cur] = old[cur:end]
            self._cur_v[slot] = at
            at += end - cur
            self._end_v[slot] = at
        self._route_pool = pool
        self._pool_len = at
        self._n_routes = 0
        self._route_table = np.zeros_like(self._route_table)
        self._bind_kernel()

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
        heads = sorted(zip(
            self._edge[waiting].tolist(), self._lane[waiting].tolist(), waiting.tolist()
        ))
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
        row's lane column and the slot's ``_edge``/``_lane`` take: at 0 m
        after a leave, as a crossing does, and otherwise (a spawn) at the
        position its slot holds, at half its free speed.  A full target edge
        grows in place, so this returns ``start + m``.  The caller holds the
        bit generator's lock, which the ``Generator`` method takes again (it
        is re-entrant).
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
            self._edge[slot] = ei
            self._lane[slot] = lane
            free = min(self._desired.item(slot), seg.speed_limit_mps)
            self._seq[slot] = rows[r + 5]
            if src >= 0:
                self._pos[slot] = min(0.0, seg.length_m)
            self._speed[slot] = free * 0.5
            self._freeflow[slot] = free
            self._seglen[slot] = seg.length_m
            self._ml[slot] = lanes > 1
            self._wait_flag[slot] = False
            if lanes > 1:
                self._rank_insert(ei, slot)
            self._lane_insert(ei, lane, slot)
        return start + m

    def _cross_pass_np(self, now: float) -> int:
        """cc's ``cross_pass`` in NumPy: :meth:`_admit_pass_np`, then
        :meth:`_decide_pass_np` and :meth:`_transit_pass_np` over its rows.
        Returns the row count, or ``~row`` at a decision hand-back, with the
        row count and :data:`_PHASE_DECIDE` in ``_decide_state`` (the NumPy
        transit pass grows a full edge in place, so it never hands back)."""
        state = self._state
        m = self._admit_pass_np(now)
        state[_ROWS] = m
        if not m:
            return 0
        state[_PHASE] = _PHASE_DECIDE
        got = self._decide_pass_np(0, m)
        if got < 0:
            return got
        state[_PHASE] = _PHASE_TRANSIT
        self._transit_pass_np(0, m)
        return m

    def _decide_pass_np(self, start: int, m: int) -> int:
        """cc's ``decide_pass`` in NumPy, over ``m`` rows of ``_rows_buf``
        from row ``start``: each row's target edge and placement number, as
        its vehicle's router decides at the row's node, from the resident
        route state (the C source has the contract).  Returns ``start + m``,
        or ``~row`` when Python must decide that row, with the reason, and
        for a route-table miss the stashed draw, in ``_decide_state``.  The
        caller holds the routing generator's lock, which ``Generator``
        methods take again.
        """
        state = self._state
        stash = state[_ROW]
        state[_ROW] = -1
        rows = self._rows
        for i in range(start, start + m):
            e = self._decide_row_np(i, i == stash)
            if e < 0:
                return ~i
            rows[6 * i + 4] = e
            rows[6 * i + 5] = self._next_placement()
        return start + m

    def _decide_row_np(self, i: int, resume: bool) -> int:
        """Row ``i``'s target edge, or -1 with the reason in
        ``_decide_state`` (cc's ``decide_row``)."""
        rows = self._rows
        state = self._state
        slot, node = rows[6 * i], rows[6 * i + 3]
        prev = self._edge_tail.item(rows[6 * i + 1])
        kind = self._kind_v[slot]
        if kind == _KIND_OTHER:
            state[_WHY] = _WHY_ROUTER
            return -1
        if kind == _KIND_TURN:
            e = self._random_turn_np(node, prev)
            if e < 0:
                state[_WHY] = _WHY_ROUTER
            return e
        cur = self._cur_v[slot]
        if cur < 0:
            state[_WHY] = _WHY_INSTALL
            return -1
        pool = self._pool_v
        e = -1
        if cur == self._end_v[slot]:
            if self._exit_v[slot] == node and self._gate_out[node]:
                state[_WHY] = _WHY_EXIT
                return -1
        else:
            e = self._edge_between_np(node, pool[cur])
        if e >= 0:
            self._cur_v[slot] = cur + 1
            return e
        if kind == _KIND_TRIP:
            state[_WHY] = _WHY_TRIP
            return -1
        n_nodes = self._n_nodes
        at = 0
        attempt = state[_ATTEMPT] if resume else 0
        while attempt < _REPLAN_ATTEMPTS:
            if resume:
                dest = state[_DEST]
                resume = False
            else:
                assert self._route_rng is not None
                dest = int(self._route_rng.integers(n_nodes)) if n_nodes > 1 else 0
            if dest != node:
                at = self._table_v[node * n_nodes + dest]
                if at == 0:
                    state[_ROW], state[_DEST], state[_ATTEMPT] = i, dest, attempt
                    state[_WHY] = _WHY_MISS
                    return -1
                if at > 0:
                    break
            attempt += 1
        if attempt == _REPLAN_ATTEMPTS:
            state[_WHY] = _WHY_NO_ROUTE
            return -1
        # The replanned route's first node is a neighbour, popped like a hop.
        self._cur_v[slot] = at + 2
        self._end_v[slot] = at + 1 + pool[at]
        e = self._edge_between_np(node, pool[at + 1])
        return e if e >= 0 else self._random_turn_np(node, prev)

    def _edge_between_np(self, u: int, v: int) -> int:
        """The edge from node ``u`` to node ``v``, or -1 (cc's
        ``edge_between``)."""
        out_node = self._out_node
        for k in range(self._out_start.item(u), self._out_start.item(u + 1)):
            if out_node.item(k) == v:
                return self._out_edge.item(k)
        return -1

    def _random_turn_np(self, u: int, prev: int) -> int:
        """An outbound edge of node ``u`` drawn as
        :meth:`RandomTurnRouter.next_hop` draws it, arrived from ``prev``,
        or -1 when ``u`` has none (cc's ``random_turn``)."""
        lo, hi = self._out_start.item(u), self._out_start.item(u + 1)
        options = list(zip(self._out_node[lo:hi].tolist(), self._out_edge[lo:hi].tolist()))
        pool = [e for v, e in options if v != prev] or [e for _, e in options]
        if len(pool) < 2:
            return pool[0] if pool else -1
        assert self._route_rng is not None
        return pool[int(self._route_rng.integers(len(pool)))]

    # The step's five operations, one code path for both backends: the two
    # fused calls and the three resume entry points, these NumPy methods
    # unless __init__ sets cc's entry points on the engine (each takes and
    # returns what its entry point does; see StepKernel).  As class
    # attributes they put the engine in no reference cycle.
    _move_pass: Callable[..., int] = _move_pass_np
    _cross_pass: Callable[..., int] = _cross_pass_np
    _overtake_pass: Callable[..., int] = _overtake_pass_np
    _decide_pass: Callable[..., int] = _decide_pass_np
    _transit_pass: Callable[..., int] = _transit_pass_np

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"TrafficEngine(net={self.net.name!r}, t={self.time_s:.1f}s, "
            f"vehicles={len(self._vehicles)}, crossings={self.stats.crossings})"
        )
