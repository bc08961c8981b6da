"""The compiled backend for the engine's step.

The vectorized engine resolves most of a step with NumPy, but the
front-to-back recurrence inside each lane (a follower's update reads its
leader's *post-step* state) is inherently sequential, and the classify /
round machinery that works around it still leaves a scalar tail at queue
boundaries.  This module compiles the *whole* gather→advance→scatter inner
step into one native call (``advance_chain``): a single sequential sweep
over the gathered columns, lane heads delimiting the chains — exactly the
reference engine's per-vehicle operation sequence, so the result is
bit-for-bit identical to both the scalar and the NumPy paths (the
golden-trace suites pin this); it also marks each vehicle that reaches
its stop line waiting, since the ``now`` it is passed.  The other entry
points are ``gather_all``, which walks the engine's per-edge pointer
tables; the two passes around the advance, ``lane_change_pass`` (the
blocked-follower predicate, each candidate's target lane and RNG draws,
the moves and the re-gather) and ``overtake_pass`` (the ranking scan, each
inverted ranking's flipped pairs and its re-sort); and the three calls
of the intersection phase, ``admit_pass`` (the step's crossing set),
``decide_pass`` (each crossing's next edge, as its router decides it) and
``transit_pass`` (the crossings' leaves and entries with their lane
draws, and any one spawn's entry).  These seven are the operations of the
engine's one step code path, and each has a NumPy twin, a
``TrafficEngine`` method that reads and writes the same buffers and
returns the same: ``_gather_np``, ``_lane_pass_np``, ``_advance_np``,
``_overtake_pass_np``, ``_admit_pass_np``, ``_decide_pass_np`` and
``_transit_pass_np``.  The twins are the engine's compiler-less path and
each entry point's oracle.
The transitions inside ``transit_pass`` (the static helpers ``occ_enter``
and ``occ_leave``) and ``lane_change_pass`` have the semantics of the
engine's NumPy splice pair (``TrafficEngine._lane_insert`` and friends,
their oracle).

The intersection phase
----------------------
The engine runs Alg. 1's intersection phase as three passes, on cc
three native calls, like the synchronous update of a probabilistic
cellular automaton: the step's crossing set is fixed before any crossing
runs, and the randomness is drawn in a fixed order.  ``admit_pass(now)``
walks each occupied edge's waiting lane heads in edge order and writes
the admitted crossings as rows of ``rows_buf``, (slot, edge, lane, node),
node by node in the order of their first candidate and, within a node, by
(since, vid) up to its admissions per step.  ``decide_pass(start, m)``
then decides rows ``start`` to ``start + m - 1`` in order, as each
vehicle's router would (a plan hop, a random turn, or a random-waypoint
replan whose destinations it draws from the routers' generator and whose
routes it reads from the engine's route table), and fills in each row's
target edge and placement number.  A row it does not decide (an exit, a
router it does not run, a trip whose plan ran out, a route-table miss)
it hands back as ``~row``; the engine decides it in Python
(``TrafficEngine._decide_in_python``, which writes -1 as an exit's
target) and calls again from the next row, or, having filled the missed
route-table entry, from that row, whose replan resumes with the draw it
stashed.  ``transit_pass(start, m)`` then runs rows ``start`` to
``start + m - 1``:
each slot leaves its source edge and, unless it exits, enters its target
at 0 m in a lane drawn from the engine generator, which the row's lane
column takes and the engine reads back.  A spawn is one row with no
source edge (-1), entering at the position its slot holds.  When a
row's target edge is full the pass returns ``~row``, having done nothing
for that row; the engine grows the edge (``TrafficEngine._grow_edge``)
and calls again from that row.

The engine uses it by default (``MobilityConfig.compiled=True``).  The
ladder is **cc → NumPy**, with the seed reference engine
(``vectorized=False``, :mod:`repro.mobility.reference`) below both, which
loads no kernel: **cc** is a small C translation unit compiled with the
system C compiler in a temporary directory and loaded through
:mod:`ctypes`; the directory is removed as soon as the library is loaded
(a loaded shared object stays mapped after its file is gone).  It is
compiled with
``-ffp-contract=off`` and no ``-ffast-math``/``-march``, so every
operation is a plain IEEE-754 double op in source order (no FMA
contraction), and with explicit ternary min/max that return the *first*
operand on ties — mirroring Python's ``min``/``max`` (relevant for
``max(0.0, -0.0)``).

Loading
-------
The build runs lazily, when the first engine asks for the kernel — never
at import.  It resolves once per process: one lock is held across the
whole build, so engines constructed concurrently on other threads wait
for it instead of racing past a half-finished build, and the outcome is
published only once it is final.  When cc does not load, the outcome
records why (no compiler on ``PATH``, the compiler's exit status and the
tail of its stderr, a temp directory that cannot hold the build, or a
load error); :func:`fallback_reason` returns it, and the first engine
that falls back to NumPy warns with it once per process.

The library is loaded with :class:`ctypes.PyDLL`, not ``CDLL``, so every
entry point runs with the GIL held.  A call lasts microseconds and writes
only through its own engine's ``tables`` struct, so releasing the GIL
around it would buy no parallelism; in ``repro-count serve``, where a
second run's worker and the NDJSON streamers woken by every step event
wait for the GIL, each release would hand it over, one thread switch per
call.  That sets a rule for every entry point: it holds the GIL, so it
must never block or call into Python, and it must stay far below the
interpreter's 5 ms switch interval.  The longest call measured is a
``transit_pass`` call at the 25k-vehicle city (4,944 edges): 1.2 and
1.8 ms, for 316 and 519 rows, in two runs of 200 steps whose next
longest took 0.27 ms; a whole transition step, its growth retries and
their Python between the calls included, took up to 2.3 ms (652 rows, 35
retries).  The longest sweep, ``gather_all`` at 8,000 vehicles on the
11,132-edge city, takes 41 µs.  The longest ``decide_pass`` call in 200
steps at the 25k-vehicle city took 65 µs (180 rows; the pass hands a row
back to Python at each route-table miss and plan install, so its calls
are short).
NumPy is not held to that rule: a sort such as ``np.lexsort`` releases
the GIL even on a five-element array, so the Python overtake emission,
which sorts each inverted ranking, can let a waiting thread in mid-step,
where the native pass holds it like every other call.

Drawing from the engine's generator
-----------------------------------
``lane_change_pass`` and ``transit_pass`` draw from the engine's own
generator, and ``decide_pass`` from the routers' (``route_bitgen``, bound
by the engine's first router that the pass runs): the struct holds the
address of each bit generator's
``bitgen_t`` (:func:`bitgen_address` reads it from the bit generator's
``capsule``, NumPy's interface for drawing from C), and the passes call
its function pointers.  ``Generator.random()`` is one ``next_double``
call, and ``Generator.integers(n)`` is NumPy's Lemire step on
``next_uint32``: one call, redrawn while the product's low half falls
below ``(2**32 - n) % n``, which is 0 when ``n`` is a power of two.  So
the lane pass's tie draws and the transit pass's placement lanes (one
draw per entry onto a multilane edge, none onto a one-lane edge) leave
the stream, every event and the generator's state (PCG64's buffered
32-bit half included) bit for bit those of the NumPy path; unit tests
pin the NumPy behaviour through ``BitGenerator.ctypes`` without a
compiler, and the rejection loop through a scripted ``bitgen_t``.  The
engine holds the bit generator's ``lock``, the lock every ``Generator``
method takes, across each pass of either backend (the NumPy twins'
``Generator`` calls take it again: it is re-entrant, which a unit test
pins), and binds the generator once, at construction, so ``engine.rng``
is read-only.  Because the transit pass draws every crossing's lane
after the decisions, a router must not draw from the engine's
generator: its ``next_hop`` draws would move ahead of the lanes.  The
decision pass draws a random turn or a replan's destination as
``Generator.integers(n)`` does (none when ``n`` is 1), in row order, and
the engine holds the routers' generator's lock across it, which the
Python rows' routers take again.

Bitwise-equivalence contract
----------------------------
The C sweeps must reproduce :meth:`SimplifiedIDM.advance` /
:meth:`SimplifiedIDM.follow_scalar` operation for operation:

* head update: ``vfree = clip(free, v - decel*dt, v + accel*dt)``,
  ``new_pos = min(pos + max(0, vfree)*dt, length)``;
* follower update: the exact ``follow_scalar`` sequence against the
  leader's just-written post-step state (the in-place sweep makes the
  gather order supply it naturally);
* scalar products (``accel*dt``) and the headway denominator are computed
  *once* in Python and stored in the kernel's struct, matching NumPy's
  scalar broadcasting.

:func:`advance_chain_py` is the executable specification of the advance,
and :func:`lane_change_candidates_py`, :func:`lane_options_py` and
:func:`rank_scan_all_py` are those of the passes' predicate, lane
viability check and ranking scan: plain Python floats, no NumPy ufuncs,
usable as property-test oracles against the compiled kernel.
:func:`lane_options_np` is the NumPy path's lane viability check, held to
the same oracle as the C one.  The gather has no such specification: its
twin, ``TrafficEngine._gather_np``, is one ``np.concatenate`` of the live
prefixes, and the unit suite checks ``gather_all`` against that
concatenation directly.

Calling convention
------------------
Every C entry point takes one struct first: ``tables`` in C,
:class:`_Tables` here.  It holds the address of every array the kernel
reads or writes (the engine's resident columns, its per-step buffers and
its per-edge pointer tables) and of the generator's ``bitgen_t``, the edge
count, the pair buffer's row count and the eleven model scalars.
:meth:`StepKernel.bind` fills it once per capacity change and binds each
entry point to its address with :func:`functools.partial`, so a call
passes only what varies: a count, a time or a row range (ctypes charges
per argument).  Writes into bound arrays, pointer-table slots included,
need no re-bind.  Buffers grow on demand: ``transit_pass`` returns
``~row`` when a row's target edge is full, and the engine doubles its
buffers (``TrafficEngine._grow_edge``, which rewrites their pointer-table
entries and the edge's ``lane_cap``) and calls again from that row;
``overtake_pass`` returns ``~count`` when an edge's pairs do not fit, and
the engine doubles the pair buffer, re-binds, and calls again for the
rest.
"""

from __future__ import annotations

import ctypes
import functools
import os
import shutil
import subprocess
import tempfile
import threading
import warnings
from dataclasses import dataclass
from typing import Any, Callable, List, NamedTuple, Optional, Tuple

import numpy as np

__all__ = [
    "advance_chain_py",
    "lane_change_candidates_py",
    "rank_scan_all_py",
    "lane_options_py",
    "lane_options_np",
    "available_backends",
    "bitgen_address",
    "fallback_reason",
    "load_step_kernel",
    "StepKernel",
]


def advance_chain_py(
    idx: Any,
    pos: Any,
    speed: Any,
    freeflow: Any,
    seglen: Any,
    heads: Any,
    waitflag: Any,
    since: Any,
    newly: Any,
    now: float,
    dt: float,
    accel_dt: float,
    decel_dt: float,
    denom: float,
    veh_len: float,
    min_gap: float,
    arrival_eps: float,
) -> int:
    """Reference chained advance over gathered columns (pure Python).

    ``idx`` maps gather order to resident-array slots; ``heads`` (slot
    indexed, like every input column) marks the front vehicle of each lane
    chain, so the in-lane leader of a non-head gather index ``i`` is gather
    index ``i-1``.  Updates ``pos``/``speed`` in place (slot-indexed),
    which hands each follower its leader's post-step state for free, and
    fills the *gather-aligned* ``newly`` output mask (arrived and not yet
    flagged waiting), marking each such vehicle waiting: its ``waitflag``
    set and its ``since`` set to ``now``.

    This function is the specification the C sweep is tested against.
    Returns the number of ``newly`` bits set (saving callers a mask
    reduction).  Ternary ``if``/``else`` min/max (first operand on ties)
    mirror Python's builtins — keep them, or the ``max(0.0, -0.0)`` sign bit
    diverges from the scalar engine.
    """
    n = idx.shape[0]
    lead_pos = 0.0
    lead_speed = 0.0
    n_newly = 0
    for i in range(n):
        slot = idx[i]
        p = pos[slot]
        v = speed[slot]
        free = freeflow[slot]
        length = seglen[slot]
        # vfree = clip(free, v - decel*dt, v + accel*dt)
        vfree = free
        lo = v - decel_dt
        hi = v + accel_dt
        if vfree < lo:
            vfree = lo
        if vfree > hi:
            vfree = hi
        if heads[slot]:
            nv = vfree if vfree > 0.0 else 0.0  # max(0.0, vfree)
            np_ = p + nv * dt
            if np_ > length:
                np_ = length
        else:
            gap = lead_pos - p - veh_len
            if gap <= min_gap:
                nv = 0.0
            else:
                usable = gap - min_gap + lead_speed * dt
                safe = usable / denom
                nv = safe if safe < vfree else vfree  # min(vfree, safe)
                if not nv > 0.0:  # max(0.0, nv): first operand on ties
                    nv = 0.0
            np_ = p + nv * dt
            ceiling = lead_pos - veh_len - min_gap * 0.5
            if np_ > ceiling:
                np_ = ceiling if ceiling > p else p  # max(p, ceiling)
                nv = (np_ - p) / dt
            if np_ > length:
                np_ = length
            nv = nv if nv > 0.0 else 0.0  # max(0.0, nv)
        pos[slot] = np_
        speed[slot] = nv
        arrived = (np_ >= length - arrival_eps) and not waitflag[slot]
        newly[i] = arrived
        if arrived:
            waitflag[slot] = 1
            since[slot] = now
            n_newly += 1
        lead_pos = np_
        lead_speed = nv
    return n_newly


def lane_change_candidates_py(
    idx: Any,
    pos: Any,
    speed: Any,
    desired: Any,
    multilane: Any,
    heads: Any,
    cand: Any,
    blocked_m: float,
    gain_mps: float,
) -> int:
    """Reference lane-change candidate predicate (pure Python).

    Gather-aligned port of :meth:`LaneChangeModel.wants_to_change`: a
    vehicle is a candidate when it is a follower (not a lane head) on a
    multilane segment whose in-lane leader (gather index ``i-1``) is both
    close (``gap <= blocked_m``) and slow (``desired - leader_speed >
    gain_mps``).  All inputs are slot-indexed resident columns; ``cand`` is
    the gather-aligned output mask.  The comparisons are the exact float
    operations of the NumPy predicate, so the masks are identical bit for
    bit.
    """
    n = idx.shape[0]
    if n == 0:
        return 0
    n_cand = 0
    cand[0] = False
    for i in range(1, n):
        slot = idx[i]
        if multilane[slot] and not heads[slot]:
            lead = idx[i - 1]
            c = (pos[lead] - pos[slot]) <= blocked_m and (
                desired[slot] - speed[lead]
            ) > gain_mps
            cand[i] = c
            if c:
                n_cand += 1
        else:
            cand[i] = False
    return n_cand


def _deref_i64(addr: int, n: int) -> np.ndarray:
    """View ``n`` int64 values at ``addr`` (pointer-table oracle helper)."""
    if n == 0:
        return np.empty(0, dtype=np.int64)
    ptr = ctypes.cast(int(addr), ctypes.POINTER(ctypes.c_int64))
    return np.ctypeslib.as_array(ptr, shape=(n,))


def lane_options_py(
    e: int,
    lane: int,
    nlanes: int,
    own: float,
    half: float,
    gptrs: Any,
    bptrs: Any,
    pos: Any,
) -> int:
    """Reference both-neighbour lane-change viability (Python + ctypes).

    Bit 0: ``lane + 1`` exists and is gap-clear of ``own``; bit 1: same for
    ``lane - 1``.  ``gptrs[e]`` addresses edge ``e``'s gathered slot array
    and ``bptrs[e]`` its per-lane cumulative bounds.  Same |other - own| <
    half comparison as the scalar model's lane scan.
    """
    bounds = _deref_i64(int(bptrs[e]), int(nlanes) + 1)
    slots = _deref_i64(int(gptrs[e]), int(bounds[nlanes]))
    ret = 0
    for d in (0, 1):
        target = lane - 1 if d else lane + 1
        if target < 0 or target >= nlanes:
            continue
        ok = 1
        for k in range(int(bounds[target]), int(bounds[target + 1])):
            if abs(float(pos[slots[k]]) - own) < half:
                ok = 0
                break
        ret |= ok << d
    return ret


def lane_options_np(
    lane: int,
    nlanes: int,
    own: float,
    half: float,
    slots: np.ndarray,
    bounds: np.ndarray,
    pos: np.ndarray,
) -> int:
    """Both-neighbour lane-change viability in NumPy (no compiler needed).

    The same bits as :func:`lane_options_py`, read from one edge's plain
    arrays instead of through pointer tables: ``slots`` is its gathered
    slot array and ``bounds`` its ``nlanes + 1`` cumulative per-lane
    offsets.  Each neighbour lane is one vectorized ``|other - own| <
    half`` test, the scalar model's float sequence.
    """
    ret = 0
    for d, target in ((0, lane + 1), (1, lane - 1)):
        if 0 <= target < nlanes:
            others = pos[slots[bounds[target]:bounds[target + 1]]]
            if not (np.abs(others - own) < half).any():
                ret |= 1 << d
    return ret


def rank_scan_all_py(
    elig: Any,
    ptrs: Any,
    lens: Any,
    pos: Any,
    vid: Any,
    flags: Any,
) -> int:
    """Reference full-range overtake-ranking scan (Python + ctypes).

    Iterates *every* edge, skipping those not flagged eligible (multilane
    with vehicles in more than one lane — the engine keeps ``elig``
    current), and reads each eligible edge's ascending (position, vid)
    ranking of slots through ``ptrs[e]``; its length is the edge's lane
    slot count ``lens[e]``, and ``vid`` is the slot-indexed vid array.
    ``flags[e]`` is set when any adjacent pair inverted — post-step
    position strictly decreasing, or a positional tie whose vid order
    disagrees — i.e. exactly when the engine must enumerate that edge's
    overtakes; it is written for the whole edge range every call.
    """
    n_edges = elig.shape[0]
    n_flagged = 0
    for e in range(n_edges):
        bad = False
        if elig[e]:
            slots = _deref_i64(int(ptrs[e]), int(lens[e]))
            for k in range(1, slots.shape[0]):
                a = pos[slots[k - 1]]
                b = pos[slots[k]]
                if b < a or (b == a and vid[slots[k - 1]] > vid[slots[k]]):
                    bad = True
                    break
        flags[e] = bad
        if bad:
            n_flagged += 1
    return n_flagged


# --------------------------------------------------------------------- C
# The same sweeps in C.  MAXF/MINF return the FIRST operand on ties, like
# Python's max/min (fmax/fmin would normalize -0.0 away).  Compiled without
# -ffast-math / -march and with -ffp-contract=off: every expression is the
# plain IEEE double op sequence written here.
_C_SOURCE = r"""
#include <stdint.h>
#include <string.h>

#define MAXF(a, b) (((b) > (a)) ? (b) : (a))
#define MINF(a, b) (((b) < (a)) ? (b) : (a))

/* NumPy's bitgen_t (numpy/random/bitgen.h): a bit generator's state and the
 * functions that draw from it, the same ones Generator's methods call. */
typedef struct {
    void *state;
    uint64_t (*next_uint64)(void *st);
    uint32_t (*next_uint32)(void *st);
    double (*next_double)(void *st);
    uint64_t (*next_raw)(void *st);
} bitgen_t;

/* Every entry point takes this struct first; StepKernel.bind fills it (the
 * _Tables class, field for field).  The slot-indexed resident columns come
 * first (since is the time a waiting vehicle reached its stop line), then
 * the per-step buffers (the gather idx, the newly and cand masks aligned with
 * it, the lane pass's moves, the sort order the overtake and admission passes
 * share, the overtake pairs, pair_cap rows, the admission candidates and the
 * transition rows), then the per-edge tables: edge e's lanes are
 * lane_ptr[e][:lane_len[e]] split by the nlanes[e] + 1 bounds at
 * bounds_ptr[e], a multilane edge's ranking is rank_ptr[e][:lane_len[e]], and
 * the edge leads to node head_node[e] and is edge_len[e] m long with limit
 * edge_limit[e].  The per-node tables hold each node's crossing delay and
 * admissions per step, and the admission pass's scratch.  Then the route
 * state the decision pass reads: each slot's router kind, its plan (the
 * route_pool cells plan_cur .. plan_end - 1, plan_cur -1 until installed) and
 * exit node; each edge's tail node; node u's outbound edges, out_edge[k] to
 * out_node[k] for k in out_start[u] .. out_start[u + 1] - 1 in
 * RoadNetwork.outbound_neighbors order, and its outbound-gate flag; the
 * n_nodes by n_nodes route table, whose (origin, destination) entry is 0
 * (unknown), -1 (unreachable) or the offset in route_pool of the route, its
 * length and then its nodes after the origin; and decide_state, the pass's
 * cells (DECIDE_*).  Addresses arrive as int64 values (numpy owns the arrays
 * and keeps them alive); a table entry changes only when its buffer is
 * reallocated.  bitgen is the engine generator's bit generator and
 * route_bitgen the routers'.  The sweeps copy what they use into locals,
 * since their stores may alias the struct. */
typedef struct {
    double *pos, *speed, *freeflow, *seglen, *since;
    const double *desired;
    const int64_t *vid;
    int64_t *seq;
    unsigned char *heads, *multilane, *waitflag;
    int64_t *idx;
    unsigned char *newly, *cand;
    int64_t *moves, *order, *pairs, *cands, *rows;
    const int64_t *lane_ptr, *rank_ptr, *bounds_ptr, *nlanes;
    int64_t *lane_len;
    const int64_t *lane_cap;
    int64_t *occ_lanes;
    unsigned char *rank_elig;
    const int64_t *head_node;
    const double *edge_len, *edge_limit, *delay;
    const int64_t *adm;
    int64_t *node_mark, *node_buf;
    const unsigned char *kind;
    int64_t *plan_cur, *plan_end;
    const int64_t *exit_node, *edge_tail, *out_start, *out_node, *out_edge;
    const unsigned char *gate_out;
    const int64_t *route_table, *route_pool;
    int64_t *decide_state;
    bitgen_t *bitgen, *route_bitgen;
    int64_t n_edges, pair_cap, n_nodes;
    double dt, accel_dt, decel_dt, denom, veh_len, min_gap, arrival_eps;
    double blocked_m, gain_mps, gap_half, politeness;
} tables;

#define EDGE_ARRAY(table, e) ((int64_t *)(intptr_t)(table)[e])
/* A transition row: (slot, source edge, lane, node, target edge, placement
 * number); an admission candidate: (slot, edge, lane). */
#define ROW 6
#define CAND 3

/* The advance over idx[:n] (TrafficEngine._advance_np's twin); a vehicle
 * that reaches its stop line is marked waiting (waitflag, and since = now)
 * and flagged in newly. */
int64_t advance_chain(const tables *t, int64_t n, double now)
{
    const int64_t *idx = t->idx;
    double *pos = t->pos, *speed = t->speed, *since = t->since;
    const double *freeflow = t->freeflow, *seglen = t->seglen;
    const unsigned char *heads = t->heads;
    unsigned char *waitflag = t->waitflag, *newly = t->newly;
    double dt = t->dt, accel_dt = t->accel_dt, decel_dt = t->decel_dt;
    double denom = t->denom, veh_len = t->veh_len, min_gap = t->min_gap;
    double arrival_eps = t->arrival_eps;
    double lead_pos = 0.0, lead_speed = 0.0;
    int64_t n_newly = 0;
    for (int64_t i = 0; i < n; i++) {
        int64_t slot = idx[i];
        double p = pos[slot];
        double v = speed[slot];
        double vfree = freeflow[slot];
        double length = seglen[slot];
        double lo = v - decel_dt, hi = v + accel_dt;
        double nv, np;
        if (vfree < lo) vfree = lo;
        if (vfree > hi) vfree = hi;
        if (heads[slot]) {
            nv = MAXF(0.0, vfree);
            np = p + nv * dt;
            if (np > length) np = length;
        } else {
            double gap = lead_pos - p - veh_len;
            if (gap <= min_gap) {
                nv = 0.0;
            } else {
                double usable = gap - min_gap + lead_speed * dt;
                double safe = usable / denom;
                nv = MAXF(0.0, MINF(vfree, safe));
            }
            np = p + nv * dt;
            double ceiling = lead_pos - veh_len - min_gap * 0.5;
            if (np > ceiling) {
                np = MAXF(p, ceiling);
                nv = (np - p) / dt;
            }
            if (np > length) np = length;
            nv = MAXF(0.0, nv);
        }
        pos[slot] = np;
        speed[slot] = nv;
        newly[i] = (np >= length - arrival_eps) && !waitflag[slot];
        if (newly[i]) {
            waitflag[slot] = 1;
            since[slot] = now;
            n_newly++;
        }
        lead_pos = np;
        lead_speed = nv;
    }
    return n_newly;
}

/* The blocked-follower predicate (LaneChangeModel.wants_to_change) over the
 * gather into the cand mask: a follower on a multilane edge whose in-lane
 * leader, the previous gather index, is close and slow.  Returns the
 * candidate count. */
static int64_t lane_change_candidates(const tables *t, int64_t n)
{
    const int64_t *idx = t->idx;
    const double *pos = t->pos, *speed = t->speed, *desired = t->desired;
    const unsigned char *multilane = t->multilane, *heads = t->heads;
    unsigned char *cand = t->cand;
    double blocked_m = t->blocked_m, gain_mps = t->gain_mps;
    int64_t n_cand = 0;
    if (n == 0) return 0;
    cand[0] = 0;
    for (int64_t i = 1; i < n; i++) {
        int64_t slot = idx[i];
        if (multilane[slot] && !heads[slot]) {
            int64_t lead = idx[i - 1];
            cand[i] = ((pos[lead] - pos[slot]) <= blocked_m)
                   && ((desired[slot] - speed[lead]) > gain_mps);
            n_cand += cand[i];
        } else {
            cand[i] = 0;
        }
    }
    return n_cand;
}

/* Every edge's live lane slots, back to back in edge order, into idx
 * (TrafficEngine._gather_np's twin). */
int64_t gather_all(const tables *t)
{
    const int64_t *ptrs = t->lane_ptr, *lens = t->lane_len;
    int64_t *out = t->idx, n_edges = t->n_edges, total = 0;
    for (int64_t e = 0; e < n_edges; e++) {
        const int64_t *src = (const int64_t *)(intptr_t)ptrs[e];
        int64_t len = lens[e];
        for (int64_t k = 0; k < len; k++) out[total + k] = src[k];
        total += len;
    }
    return total;
}

/* Both-neighbour lane-change viability for one candidate on edge e: bit 0
 * set when lane+1 exists and has no vehicle within gap_half of own, bit 1
 * likewise for lane-1.  The gap comparison is |other - own| < half, the
 * exact float sequence of the scalar model. */
static int64_t lane_options(const tables *t, int64_t e, int64_t lane, double own)
{
    const int64_t *slots = EDGE_ARRAY(t->lane_ptr, e);
    const int64_t *bounds = EDGE_ARRAY(t->bounds_ptr, e);
    const double *pos = t->pos;
    double half = t->gap_half;
    int64_t nlanes = t->nlanes[e], ret = 0;
    for (int64_t d = 0; d < 2; d++) {
        int64_t target = d ? lane - 1 : lane + 1;
        if (target < 0 || target >= nlanes) continue;
        int64_t ok = 1;
        for (int64_t k = bounds[target]; k < bounds[target + 1]; k++) {
            double diff = pos[slots[k]] - own;
            if (diff < 0.0) diff = -diff;
            if (diff < half) { ok = 0; break; }
        }
        ret |= ok << d;
    }
    return ret;
}

/* Whether edge e's ranking has an adjacent pair out of (position, vid)
 * order: post-step position strictly decreasing, or a positional tie whose
 * vid order disagrees. */
static int ranking_inverted(const tables *t, int64_t e)
{
    const int64_t *slots = EDGE_ARRAY(t->rank_ptr, e), *vid = t->vid;
    const double *pos = t->pos;
    int64_t len = t->lane_len[e];
    for (int64_t k = 1; k < len; k++) {
        int64_t s0 = slots[k - 1], s1 = slots[k];
        double a = pos[s0], b = pos[s1];
        if (b < a || (b == a && vid[s0] > vid[s1])) return 1;
    }
    return 0;
}

/* Occupancy transitions: each helper is one TrafficEngine transition with
 * the semantics of its NumPy splice pair (_lane_insert/_lane_remove,
 * _rank_insert/_rank_remove).  A slot taken out must be in the lane named,
 * as the engine guarantees. */

/* Insert slot into its lane front to back (descending position, ascending
 * vid on ties), walking from the lane's back, where crossings enter. */
static void lane_in(const tables *t, int64_t e, int64_t lane, int64_t slot)
{
    int64_t *slots = EDGE_ARRAY(t->lane_ptr, e), *bounds = EDGE_ARRAY(t->bounds_ptr, e);
    int64_t lo = bounds[lane], hi = bounds[lane + 1], k = t->lane_len[e], i = hi;
    const double *pos = t->pos;
    const int64_t *vid = t->vid;
    double p = pos[slot];
    int64_t v = vid[slot];
    for (; i > lo; i--) {
        int64_t s = slots[i - 1];
        if (pos[s] > p || (pos[s] == p && vid[s] < v)) break;
    }
    if (i == lo) {
        if (hi > lo) t->heads[slots[lo]] = 0;
        else t->rank_elig[e] = ++t->occ_lanes[e] > 1;
    }
    t->heads[slot] = i == lo;
    memmove(slots + i + 1, slots + i, (size_t)(k - i) * sizeof(int64_t));
    slots[i] = slot;
    for (int64_t j = lane + 1; j <= t->nlanes[e]; j++) bounds[j]++;
    t->lane_len[e] = k + 1;
}

static void lane_out(const tables *t, int64_t e, int64_t lane, int64_t slot)
{
    int64_t *slots = EDGE_ARRAY(t->lane_ptr, e), *bounds = EDGE_ARRAY(t->bounds_ptr, e);
    int64_t lo = bounds[lane], hi = bounds[lane + 1], k = t->lane_len[e], i = lo;
    while (slots[i] != slot) i++;
    memmove(slots + i, slots + i + 1, (size_t)(k - 1 - i) * sizeof(int64_t));
    for (int64_t j = lane + 1; j <= t->nlanes[e]; j++) bounds[j]--;
    t->lane_len[e] = k - 1;
    if (i == lo) {
        if (hi - lo > 1) t->heads[slots[lo]] = 1;
        else t->rank_elig[e] = --t->occ_lanes[e] > 1;
    }
}

/* Write slot's resident columns and placement number, then insert it into
 * its lane and, on a multilane edge, into the ranking at
 * bisect.bisect_right's index on the (position, vid) key, probe for probe: a
 * ranking the overtake pass skipped may be out of order, and the probes then
 * decide where the slot lands.  The edge's buffers must have room
 * (lane_len < lane_cap). */
static void occ_enter(
    const tables *t, int64_t e, int64_t lane, int64_t slot, int64_t seq,
    double p, double speed, double free, double length)
{
    int64_t k = t->lane_len[e], lo = 0, hi = k, v = t->vid[slot];
    t->pos[slot] = p;
    t->speed[slot] = speed;
    t->freeflow[slot] = free;
    t->seglen[slot] = length;
    t->seq[slot] = seq;
    t->multilane[slot] = t->nlanes[e] > 1;
    t->waitflag[slot] = 0;
    lane_in(t, e, lane, slot);
    if (t->nlanes[e] == 1) return;
    int64_t *rank = EDGE_ARRAY(t->rank_ptr, e);
    while (lo < hi) {
        int64_t mid = (lo + hi) / 2;
        double pm = t->pos[rank[mid]];
        if (p < pm || (p == pm && v < t->vid[rank[mid]])) hi = mid;
        else lo = mid + 1;
    }
    memmove(rank + lo + 1, rank + lo, (size_t)(k - lo) * sizeof(int64_t));
    rank[lo] = slot;
}

static void occ_leave(const tables *t, int64_t e, int64_t lane, int64_t slot)
{
    int64_t k = t->lane_len[e], i = k - 1;
    t->waitflag[slot] = 0;
    lane_out(t, e, lane, slot);
    if (t->nlanes[e] == 1) return;
    int64_t *rank = EDGE_ARRAY(t->rank_ptr, e);
    while (rank[i] != slot) i--;  /* usually the last: leavers lead */
    memmove(rank + i, rank + i + 1, (size_t)(k - 1 - i) * sizeof(int64_t));
}

/* Generator.integers(n) for 1 < n < 2**32, as NumPy draws it
 * (random_bounded_uint64_fill with use_masked false): Lemire's
 * multiply-and-reject on next_uint32, redrawing while the low half of the
 * product is below (2**32 - n) % n. */
static int64_t draw_below(bitgen_t *bg, uint32_t n)
{
    uint64_t m = (uint64_t)bg->next_uint32(bg->state) * n;
    uint32_t leftover = (uint32_t)m;
    if (leftover < n) {
        uint32_t threshold = (UINT32_MAX - (n - 1)) % n;
        while (leftover < threshold) {
            m = (uint64_t)bg->next_uint32(bg->state) * n;
            leftover = (uint32_t)m;
        }
    }
    return (int64_t)(m >> 32);
}

/* Apply count (slot, from, to) moves on edge e, in order. */
static void lane_moves(const tables *t, int64_t e, const int64_t *mv, int64_t count)
{
    for (; count > 0; count--, mv += 3) {
        lane_out(t, e, mv[1], mv[0]);
        lane_in(t, e, mv[2], mv[0]);
    }
}

/* TrafficEngine._lane_pass_np over the gather idx[:n].  Candidates are
 * visited in gather order, the reference's segment by segment, lane by lane,
 * front to back scan; the gather is edge-block ordered, so lane_len walks
 * each candidate to its edge and the edge's bounds to its lane.  Each
 * candidate draws a politeness veto (Generator.random(), one next_double)
 * and, when both neighbour lanes are viable, a tie (Generator.integers(2),
 * one next_uint32: the rejection threshold (2**32 - 2) % 2 is 0).  Decisions
 * read the pre-change lanes, so an edge's moves are applied when the walk
 * leaves it, and the gather is redone when anything moved.  Writes (slot,
 * from, to) per move to moves and returns the move count.  The caller holds
 * the bit generator's lock. */
int64_t lane_change_pass(const tables *t, int64_t n)
{
    if (!lane_change_candidates(t, n)) return 0;
    const int64_t *idx = t->idx, *lane_len = t->lane_len;
    const unsigned char *cand = t->cand;
    const double *pos = t->pos;
    bitgen_t *bg = t->bitgen;
    double politeness = t->politeness;
    int64_t *moves = t->moves;
    int64_t n_moves = 0, applied = 0, e = -1, start = 0, end = 0;
    for (int64_t i = 0; i < n; i++) {
        if (!cand[i]) continue;
        if (i >= end) {
            lane_moves(t, e, moves + 3 * applied, n_moves - applied);
            applied = n_moves;
            do {
                start = end;
                end += lane_len[++e];
            } while (i >= end);
        }
        const int64_t *bounds = EDGE_ARRAY(t->bounds_ptr, e);
        int64_t slot = idx[i], lane = 0;
        while (i - start >= bounds[lane + 1]) lane++;
        if (bg->next_double(bg->state) < politeness) continue;
        int64_t opts = lane_options(t, e, lane, pos[slot]);
        if (opts == 0) continue;
        int64_t up = opts == 3 ? draw_below(bg, 2) == 0 : opts == 1;
        int64_t *mv = moves + 3 * n_moves++;
        mv[0] = slot;
        mv[1] = lane;
        mv[2] = up ? lane + 1 : lane - 1;
    }
    lane_moves(t, e, moves + 3 * applied, n_moves - applied);
    if (n_moves) gather_all(t);
    return n_moves;
}

/* Append edge e's flipped pairs to pairs from row n_pairs, one (edge,
 * passer slot, passee slot) row each, and return the new row count, or -1,
 * having changed nothing the engine reads, when pair_cap rows cannot hold
 * them.  A pair flipped when its two slots' order in the ranking, which
 * still holds the order of the last pass, disagrees with their post-step
 * (position, vid) order.  Pairs come out as the reference engine scans the
 * edge's flat occupancy list: a before b when a was placed first (seq), in
 * the order of a, then of b.  order holds the ranking's indices sorted by
 * seq (an insertion sort: an edge holds few slots). */
static int64_t flip_pairs(const tables *t, int64_t e, int64_t n_pairs)
{
    const int64_t *rank = EDGE_ARRAY(t->rank_ptr, e), *seq = t->seq, *vid = t->vid;
    const double *pos = t->pos;
    int64_t len = t->lane_len[e], cap = t->pair_cap, *order = t->order, *pairs = t->pairs;
    for (int64_t i = 0; i < len; i++) {
        int64_t j = i, s = seq[rank[i]];
        for (; j > 0 && seq[rank[order[j - 1]]] > s; j--) order[j] = order[j - 1];
        order[j] = i;
    }
    for (int64_t i = 0; i < len; i++) {
        int64_t ri = order[i], a = rank[ri], va = vid[a];
        double pa = pos[a];
        for (int64_t j = i + 1; j < len; j++) {
            int64_t rj = order[j], b = rank[rj];
            int64_t now = pa > pos[b] || (pa == pos[b] && va > vid[b]);
            if ((ri > rj) == now) continue;
            if (n_pairs == cap) return -1;
            int64_t *row = pairs + 3 * n_pairs++;
            row[0] = e;
            row[1] = now ? a : b;
            row[2] = now ? b : a;
        }
    }
    return n_pairs;
}

/* Re-sort edge e's ranking by (position, vid): an insertion sort, whose
 * shifts are the edge's flipped pairs. */
static void rank_sort(const tables *t, int64_t e)
{
    int64_t *rank = EDGE_ARRAY(t->rank_ptr, e), len = t->lane_len[e];
    const int64_t *vid = t->vid;
    const double *pos = t->pos;
    for (int64_t i = 1; i < len; i++) {
        int64_t s = rank[i], v = vid[s], j = i;
        double p = pos[s];
        for (; j > 0 && (pos[rank[j - 1]] > p || (pos[rank[j - 1]] == p && vid[rank[j - 1]] > v)); j--)
            rank[j] = rank[j - 1];
        rank[j] = s;
    }
}

/* TrafficEngine._overtake_pass_np: every edge whose rank_elig byte is
 * set (multilane, more than one occupied lane) and whose ranking is
 * inverted writes its flipped pairs, in edge order, and has its ranking
 * re-sorted.  Returns the pair count, or, when an edge's pairs do not fit,
 * ~count: the edges before it are done and their pairs written, and the
 * engine grows the buffer and calls again, which finds those edges sorted
 * and carries on from there. */
int64_t overtake_pass(const tables *t)
{
    const unsigned char *elig = t->rank_elig;
    int64_t n_edges = t->n_edges, n_pairs = 0;
    for (int64_t e = 0; e < n_edges; e++) {
        if (!elig[e] || !ranking_inverted(t, e)) continue;
        int64_t got = flip_pairs(t, e, n_pairs);
        if (got < 0) return ~n_pairs;
        n_pairs = got;
        rank_sort(t, e);
    }
    return n_pairs;
}

/* Whether candidate a waited longer than b: (since, vid) order. */
static int admitted_before(const tables *t, const int64_t *a, const int64_t *b)
{
    double sa = t->since[a[0]], sb = t->since[b[0]];
    return sa < sb || (sa == sb && t->vid[a[0]] < t->vid[b[0]]);
}

/* TrafficEngine._admit_pass_np, the step's admission.  A lane head flagged
 * waiting whose dwell, now - since + dt, has reached the delay of its edge's
 * head node is a candidate; candidates are found in edge order, lane by lane,
 * and a node registers at its first.  Node by node, in registration order,
 * candidates sort by (since, vid) and the first adm[node] become rows of
 * rows: (slot, edge, lane, node), the target and placement number left to the
 * engine.  A counting sort by node puts the candidates' indices in order
 * (node_mark holds each node's registration number, -1 between calls;
 * node_buf holds (node, bucket bound) per registration), and an insertion
 * sort orders each node's few.  Returns the row count. */
int64_t admit_pass(const tables *t, double now)
{
    const int64_t *lane_len = t->lane_len, *nlanes = t->nlanes, *head_node = t->head_node;
    const unsigned char *waitflag = t->waitflag;
    const double *since = t->since, *delay = t->delay;
    int64_t *mark = t->node_mark, *reg = t->node_buf, *cands = t->cands, *order = t->order;
    int64_t n_edges = t->n_edges, n_cands = 0, n_reg = 0, n_rows = 0;
    double dt = t->dt;
    for (int64_t e = 0; e < n_edges; e++) {
        if (!lane_len[e]) continue;
        const int64_t *slots = EDGE_ARRAY(t->lane_ptr, e), *bounds = EDGE_ARRAY(t->bounds_ptr, e);
        int64_t node = head_node[e];
        double d = delay[node];
        for (int64_t lane = 0; lane < nlanes[e]; lane++) {
            if (bounds[lane] == bounds[lane + 1]) continue;
            int64_t s = slots[bounds[lane]];
            if (!waitflag[s] || !(now - since[s] + dt >= d)) continue;
            int64_t r = mark[node];
            if (r < 0) {
                r = mark[node] = n_reg++;
                reg[2 * r] = node;
                reg[2 * r + 1] = 0;
            }
            reg[2 * r + 1]++;
            int64_t *c = cands + CAND * n_cands++;
            c[0] = s;
            c[1] = e;
            c[2] = lane;
        }
    }
    for (int64_t r = 0, at = 0; r < n_reg; r++) {  /* counts to bucket starts */
        int64_t count = reg[2 * r + 1];
        reg[2 * r + 1] = at;
        at += count;
    }
    for (int64_t i = 0; i < n_cands; i++)  /* bucket starts to bucket ends */
        order[reg[2 * mark[head_node[cands[CAND * i + 1]]] + 1]++] = i;
    for (int64_t r = 0, lo = 0; r < n_reg; r++) {
        int64_t node = reg[2 * r], hi = reg[2 * r + 1], keep = hi - lo;
        mark[node] = -1;
        for (int64_t i = lo + 1; i < hi; i++) {
            int64_t c = order[i], j = i;
            for (; j > lo && admitted_before(t, cands + CAND * c, cands + CAND * order[j - 1]); j--)
                order[j] = order[j - 1];
            order[j] = c;
        }
        if (keep > t->adm[node]) keep = t->adm[node];
        for (int64_t i = lo; i < lo + keep; i++) {
            const int64_t *c = cands + CAND * order[i];
            int64_t *row = t->rows + ROW * n_rows++;
            row[0] = c[0];
            row[1] = c[1];
            row[2] = c[2];
            row[3] = node;
        }
        lo = hi;
    }
    return n_rows;
}

/* TrafficEngine._transit_pass_np: run transition rows start .. start + m - 1,
 * in order.  A row's slot leaves its lane of the source edge, unless the
 * source is -1 (a spawn); then, unless the target is -1 (an exit), it enters
 * the target edge with the row's placement number, in a lane drawn as
 * Generator.integers(nlanes) draws it (none on a one-lane edge), which the
 * row's lane column takes: at 0 m, or at pos[slot] for a spawn, at half its
 * free speed, the lesser of its desired speed and the edge's limit.  Returns
 * start + m, or ~i, having done nothing for row i, when row i's target edge
 * is full (lane_len == lane_cap): the engine grows the edge and calls again
 * from row i.  The caller holds the bit generator's lock. */
int64_t transit_pass(const tables *t, int64_t start, int64_t m)
{
    bitgen_t *bg = t->bitgen;
    for (int64_t i = start; i < start + m; i++) {
        int64_t *row = t->rows + ROW * i;
        int64_t slot = row[0], src = row[1], e = row[4];
        if (e >= 0 && t->lane_len[e] == t->lane_cap[e]) return ~i;
        if (src >= 0) occ_leave(t, src, row[2], slot);
        if (e < 0) continue;
        int64_t nlanes = t->nlanes[e];
        double length = t->edge_len[e], free = MINF(t->desired[slot], t->edge_limit[e]);
        row[2] = nlanes > 1 ? draw_below(bg, (uint32_t)nlanes) : 0;
        occ_enter(t, e, row[2], slot, row[5], src >= 0 ? MINF(0.0, length) : t->pos[slot],
                  free * 0.5, free, length);
    }
    return start + m;
}

/* A slot's router kind (TrafficEngine._KIND_*), why decide_pass handed a row
 * to Python (_WHY_*), and the decide_state cells: a route-table miss's row,
 * destination and attempt, the last hand-back's why, and the next placement
 * number, which spawns and Python rows take too. */
enum { KIND_OTHER, KIND_TRIP, KIND_WAYPOINT, KIND_TURN };
enum { WHY_ROUTER, WHY_INSTALL, WHY_EXIT, WHY_TRIP, WHY_MISS, WHY_NO_ROUTE };
enum { DECIDE_ROW, DECIDE_DEST, DECIDE_ATTEMPT, DECIDE_WHY, DECIDE_PLACEMENTS };
/* RandomWaypointRouter.plan_from's destination draws. */
#define REPLAN_ATTEMPTS 16

/* The edge from node u to node v, or -1 (RoadNetwork.has_segment). */
static int64_t edge_between(const tables *t, int64_t u, int64_t v)
{
    for (int64_t k = t->out_start[u]; k < t->out_start[u + 1]; k++)
        if (t->out_node[k] == v) return t->out_edge[k];
    return -1;
}

/* RandomTurnRouter.next_hop at node u, arrived from prev, and the last resort
 * of Router.next_hop: an outbound edge drawn uniformly from those not leading
 * back to prev, or from all of them when none does (Generator.integers(n),
 * which draws nothing when n is 1).  -1 when u has no outbound edge. */
static int64_t random_turn(const tables *t, int64_t u, int64_t prev)
{
    int64_t lo = t->out_start[u], hi = t->out_start[u + 1], n = 0;
    for (int64_t k = lo; k < hi; k++) n += t->out_node[k] != prev;
    if (n == 0) {
        n = hi - lo;
        prev = -1;
    }
    if (n == 0) return -1;
    int64_t pick = n > 1 ? draw_below(t->route_bitgen, (uint32_t)n) : 0;
    for (int64_t k = lo;; k++)
        if (t->out_node[k] != prev && pick-- == 0) return t->out_edge[k];
}

/* Row i's decision (see decide_pass): its target edge, or -1 with the
 * reason in decide_state.  resume: row i is the stashed route-table miss,
 * so its replan resumes at the stashed attempt with the stashed destination. */
static int64_t decide_row(const tables *t, int64_t i, int resume)
{
    const int64_t *row = t->rows + ROW * i, *pool = t->route_pool;
    int64_t *st = t->decide_state, n_nodes = t->n_nodes;
    int64_t slot = row[0], node = row[3], prev = t->edge_tail[row[1]];
    int64_t kind = t->kind[slot], cur = t->plan_cur[slot], e;
    if (kind == KIND_OTHER) {
        st[DECIDE_WHY] = WHY_ROUTER;
        return -1;
    }
    if (kind == KIND_TURN) {
        e = random_turn(t, node, prev);
        if (e < 0) st[DECIDE_WHY] = WHY_ROUTER;  /* a dead end: the router raises */
        return e;
    }
    if (cur < 0) {
        st[DECIDE_WHY] = WHY_INSTALL;
        return -1;
    }
    if (cur == t->plan_end[slot]) {
        if (t->exit_node[slot] == node && t->gate_out[node]) {
            st[DECIDE_WHY] = WHY_EXIT;
            return -1;
        }
        e = -1;
    } else {
        e = edge_between(t, node, pool[cur]);
    }
    if (e >= 0) {
        t->plan_cur[slot] = cur + 1;
        return e;
    }
    if (kind == KIND_TRIP) {
        st[DECIDE_WHY] = WHY_TRIP;
        return -1;
    }
    int64_t at = 0, attempt = resume ? st[DECIDE_ATTEMPT] : 0;
    for (; attempt < REPLAN_ATTEMPTS; attempt++, resume = 0) {
        int64_t dest = resume ? st[DECIDE_DEST]
                     : n_nodes > 1 ? draw_below(t->route_bitgen, (uint32_t)n_nodes) : 0;
        if (dest == node) continue;
        at = t->route_table[node * n_nodes + dest];
        if (at == 0) {
            st[DECIDE_ROW] = i;
            st[DECIDE_DEST] = dest;
            st[DECIDE_ATTEMPT] = attempt;
            st[DECIDE_WHY] = WHY_MISS;
            return -1;
        }
        if (at > 0) break;
    }
    if (attempt == REPLAN_ATTEMPTS) {
        st[DECIDE_WHY] = WHY_NO_ROUTE;
        return -1;
    }
    /* The replanned route's first node is a neighbour, popped like a hop. */
    t->plan_cur[slot] = at + 2;
    t->plan_end[slot] = at + 1 + pool[at];
    e = edge_between(t, node, pool[at + 1]);
    return e >= 0 ? e : random_turn(t, node, prev);
}

/* TrafficEngine._decide_pass_np, the crossings' decisions over rows start ..
 * start + m - 1, in order: what each slot's router decides at the row's node
 * (the router's next_hop, and TrafficEngine._decide_in_python's exit test),
 * from the resident route state.  A FixedTripRouter or RandomWaypointRouter
 * slot hops along its plan; with its plan run out or its next node no
 * neighbour, a waypoint slot replans as RandomWaypointRouter.plan_from does,
 * each destination drawn from route_bitgen and its route looked up in the
 * route table, and a RandomTurnRouter slot draws its turn.  A decided row
 * gets its target edge and the next placement number.  Returns start + m, or
 * ~i, having written nothing for row i and drawn only what its replan drew,
 * when Python must decide row i: a router of another kind, an exit, a trip
 * whose plan ran out, a replan whose every draw failed, or a plan not yet
 * installed; or when a replan's route is not in the table, with the row, the
 * destination and the attempt stashed, so that a call from row i once
 * Python has filled the entry resumes that replan without drawing again.
 * decide_state[DECIDE_WHY] says which.  The caller holds route_bitgen's lock. */
int64_t decide_pass(const tables *t, int64_t start, int64_t m)
{
    int64_t *st = t->decide_state, stash = st[DECIDE_ROW];
    st[DECIDE_ROW] = -1;
    for (int64_t i = start; i < start + m; i++) {
        int64_t e = decide_row(t, i, i == stash);
        if (e < 0) return ~i;
        int64_t *row = t->rows + ROW * i;
        row[4] = e;
        row[5] = st[DECIDE_PLACEMENTS]++;
    }
    return start + m;
}
"""

#: Every C entry point with the argument types after its ``tables`` pointer,
#: in :class:`_CcLibrary` order.
_SYMBOLS = (
    ("advance_chain", [ctypes.c_int64, ctypes.c_double]),
    ("gather_all", []),
    ("lane_change_pass", [ctypes.c_int64]),
    ("overtake_pass", []),
    ("admit_pass", [ctypes.c_double]),
    ("transit_pass", [ctypes.c_int64] * 2),
    ("decide_pass", [ctypes.c_int64] * 2),
)


class _CcLibrary(NamedTuple):
    """The loaded kernel library's entry points (argtypes and restype set)."""

    advance_chain: Any
    gather_all: Any
    lane_change_pass: Any
    overtake_pass: Any
    admit_pass: Any
    transit_pass: Any
    decide_pass: Any


class _Tables(ctypes.Structure):
    """The C ``tables`` struct, field for field: the address of every array
    the kernel reads or writes and of the engine generator's ``bitgen_t``,
    the edge count, the pair buffer's row count and the model scalars."""

    _fields_ = [
        *((name, ctypes.c_void_p) for name in (
            "pos speed freeflow seglen since desired vid seq heads multilane waitflag idx "
            "newly cand moves order pairs cands rows lane_ptr rank_ptr bounds_ptr nlanes "
            "lane_len lane_cap occ_lanes rank_elig head_node edge_len edge_limit delay adm "
            "node_mark node_buf kind plan_cur plan_end exit_node edge_tail out_start "
            "out_node out_edge gate_out route_table route_pool decide_state bitgen "
            "route_bitgen").split()),
        *((name, ctypes.c_int64) for name in ("n_edges", "pair_cap", "n_nodes")),
        *((name, ctypes.c_double) for name in (
            "dt accel_dt decel_dt denom veh_len min_gap arrival_eps blocked_m "
            "gain_mps gap_half politeness").split()),
    ]


#: ``PyCapsule_GetPointer`` with its own prototype (the shared
#: ``ctypes.pythonapi`` attribute is left as other code set it).
_capsule_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
    ("PyCapsule_GetPointer", ctypes.pythonapi))


def bitgen_address(bit_generator: np.random.BitGenerator) -> int:
    """The address of ``bit_generator``'s ``bitgen_t``, read from its
    ``capsule``: the address ``bit_generator.ctypes.bit_generator`` reports,
    without building NumPy's ctypes interface on first access."""
    return int(_capsule_pointer(bit_generator.capsule, b"BitGenerator"))


class StepKernel:
    """The loaded C kernel's entry points, bound to one :class:`_Tables`.

    The engine holds one instance per run (the model parameters never
    change mid-run) and re-:meth:`bind`\\ s it whenever its resident arrays
    are reallocated; :meth:`bind` installs the calls below, which the
    engine then binds as its step's seven operations.
    """

    #: the backend that loaded (cc is the only compiled one)
    backend = "cc"
    #: ``(n, now)``: advance over ``idx_buf[:n]``, marking arrivals waiting
    #: since ``now``; returns the newly-arrived count
    advance_bound: Callable[[int, float], int]
    #: every edge's lane slots into ``idx_buf``; returns the gathered count
    gather_bound: Callable[[], int]
    #: the lane-change pass over ``idx_buf[:n]``; returns the move count,
    #: the moves being the first rows of ``moves_buf``, (slot, from, to)
    lane_pass_bound: Callable[[int], int]
    #: the overtake pass; returns the pair count, the pairs being the first
    #: rows of ``pairs_buf``, (edge, passer slot, passee slot), or ``~count``
    #: when ``pairs_buf`` filled up
    overtake_bound: Callable[[], int]
    #: ``(now)``: the step's admission; returns the row count, the rows being
    #: the first rows of ``rows_buf``, (slot, edge, lane, node, -, -)
    admit_bound: Callable[[float], int]
    #: ``(start, m)``: runs transition rows ``start`` .. ``start + m - 1`` of
    #: ``rows_buf``; returns ``start + m``, or ``~row`` when that row's
    #: target edge is full
    transit_bound: Callable[[int, int], int]
    #: ``(start, m)``: decides transition rows ``start`` .. ``start + m -
    #: 1`` of ``rows_buf``, writing their targets and placement numbers;
    #: returns ``start + m``, or ``~row`` when Python must decide that row
    decide_bound: Callable[[int, int], int]

    def __init__(
        self,
        lib: _CcLibrary,
        params: Tuple[float, float, float, float, float, float, float],
    ) -> None:
        self._lib = lib
        self._params = params

    def bind(
        self,
        *,
        idx_buf: np.ndarray,
        pos: np.ndarray,
        speed: np.ndarray,
        freeflow: np.ndarray,
        seglen: np.ndarray,
        since: np.ndarray,
        desired: np.ndarray,
        vid: np.ndarray,
        seq: np.ndarray,
        heads: np.ndarray,
        waitflag: np.ndarray,
        multilane: np.ndarray,
        newly_buf: np.ndarray,
        cand_buf: np.ndarray,
        moves_buf: np.ndarray,
        order_buf: np.ndarray,
        pairs_buf: np.ndarray,
        cands_buf: np.ndarray,
        rows_buf: np.ndarray,
        lane_ptr: np.ndarray,
        lane_len: np.ndarray,
        bounds_ptr: np.ndarray,
        rank_ptr: np.ndarray,
        rank_elig: np.ndarray,
        nlanes: np.ndarray,
        lane_cap: np.ndarray,
        occ_lanes: np.ndarray,
        head_node: np.ndarray,
        edge_len: np.ndarray,
        edge_limit: np.ndarray,
        delay: np.ndarray,
        adm: np.ndarray,
        node_mark: np.ndarray,
        node_buf: np.ndarray,
        kind: np.ndarray,
        plan_cur: np.ndarray,
        plan_end: np.ndarray,
        exit_node: np.ndarray,
        edge_tail: np.ndarray,
        out_start: np.ndarray,
        out_node: np.ndarray,
        out_edge: np.ndarray,
        gate_out: np.ndarray,
        route_table: np.ndarray,
        route_pool: np.ndarray,
        decide_state: np.ndarray,
        bit_generator: np.random.BitGenerator,
        route_bit_generator: Optional[np.random.BitGenerator],
        blocked_m: float,
        gain_mps: float,
        gap_half_m: float,
        politeness: float,
    ) -> None:
        """Fill the kernel's struct with the engine's arrays and bind every
        entry point to it.

        The slot-indexed columns (``pos`` … ``multilane``) are the resident
        arrays; the gather lives in ``idx_buf[:n]``, the advance and
        candidate masks land in ``newly_buf[:n]`` / ``cand_buf[:n]``, the
        lane pass writes its moves to ``moves_buf`` (three columns, a row
        per slot), the overtake and admission passes sort in ``order_buf``
        (a slot's worth), the overtake pass writes its pairs to
        ``pairs_buf`` (three columns, as many rows as it has), and the
        admission pass collects its candidates in ``cands_buf`` (three
        columns) and writes its rows to ``rows_buf`` (six columns), which
        the transit pass runs; both have a row per slot.  The edge-indexed
        tables hold each edge's lane slot array address and live length,
        its lane-bounds address, its ranking address, its ranking-scan
        eligibility byte, its lane count, its capacity, its occupied-lane
        count, its head node's index, its length and its speed limit; their
        length is the edge count.  The node-indexed tables hold each node's
        crossing delay and admissions per step, ``node_mark`` (all -1) and
        ``node_buf`` (two columns), the admission pass's scratch.  The
        decision pass reads the route state: per slot, ``kind``,
        ``plan_cur``, ``plan_end`` and ``exit_node``; per edge,
        ``edge_tail``; per node, ``out_start`` (one more than the nodes)
        into ``out_node`` and ``out_edge`` (one per edge), and
        ``gate_out``; ``route_table`` (nodes squared) and ``route_pool``;
        and it keeps its cells and the placement counter in
        ``decide_state`` (five cells).  The lane and transit passes draw
        from ``bit_generator`` and the decision pass from
        ``route_bit_generator`` (None until a router is bound), which the
        kernel keeps alive while bound; the caller holds the drawn one's
        ``lock`` across each of their calls.  With the model scalars they make one
        :class:`_Tables`, and every ``*_bound`` attribute is a C entry point
        with the struct's address bound as its first argument, so a call
        passes only what varies.  The caller must re-bind whenever any array
        is *reallocated* (the engine does so on capacity growth); in-place
        writes — including pointer-table slot updates — need no re-bind.
        """
        arrays = (  # in _Tables field order
            pos, speed, freeflow, seglen, since, desired, vid, seq, heads, multilane,
            waitflag, idx_buf, newly_buf, cand_buf, moves_buf, order_buf, pairs_buf,
            cands_buf, rows_buf, lane_ptr, rank_ptr, bounds_ptr, nlanes, lane_len, lane_cap,
            occ_lanes, rank_elig, head_node, edge_len, edge_limit, delay, adm, node_mark,
            node_buf, kind, plan_cur, plan_end, exit_node, edge_tail, out_start, out_node,
            out_edge, gate_out, route_table, route_pool, decide_state,
        )
        self._bit_generators = (bit_generator, route_bit_generator)
        self._tables = tables = _Tables(
            *(arr.ctypes.data for arr in arrays), bitgen_address(bit_generator),
            None if route_bit_generator is None else bitgen_address(route_bit_generator),
            lane_len.shape[0], pairs_buf.shape[0], gate_out.shape[0], *self._params,
            blocked_m, gain_mps, gap_half_m, politeness,
        )
        ref = ctypes.c_void_p(ctypes.addressof(tables))
        lib = self._lib
        self.advance_bound = functools.partial(lib.advance_chain, ref)
        self.gather_bound = functools.partial(lib.gather_all, ref)
        self.lane_pass_bound = functools.partial(lib.lane_change_pass, ref)
        self.overtake_bound = functools.partial(lib.overtake_pass, ref)
        self.admit_bound = functools.partial(lib.admit_pass, ref)
        self.transit_bound = functools.partial(lib.transit_pass, ref)
        self.decide_bound = functools.partial(lib.decide_pass, ref)

    def bind_route_generator(self, bit_generator: np.random.BitGenerator) -> None:
        """Have the bound decision pass draw from ``bit_generator`` (kept
        alive while bound); nothing else is re-bound."""
        self._bit_generators = (self._bit_generators[0], bit_generator)
        self._tables.route_bitgen = bitgen_address(bit_generator)


# ------------------------------------------------------------------ loader
_CC_FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")
_CC_TIMEOUT_S = 120
#: How much of a failed compiler's stderr the recorded reason keeps.
_STDERR_TAIL_CHARS = 400


@dataclass
class _Resolution:
    """One process's final build outcome: the library, or why there is none."""

    lib: Optional[_CcLibrary] = None
    reason: Optional[str] = None
    #: whether a fallback warning has been issued for this outcome
    warned: bool = False


#: Held across the whole build, so concurrent first engines wait for it.
_LOCK = threading.Lock()
#: This process's build outcome: None until the first engine asks, then
#: the final :class:`_Resolution` (published only once complete).
_RESOLVED: Optional[_Resolution] = None


def _fresh_lock_after_fork() -> None:
    # A fork taken while another thread held the lock mid-build would leave
    # the child's copy held forever; the child starts with a free one (and,
    # with nothing published yet, builds for itself).
    global _LOCK
    _LOCK = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_fresh_lock_after_fork)


def _build_cc() -> _Resolution:
    """Compile and load the C kernel, or record why that failed.

    The build directory is removed on every path, the successful one
    included: the library is loaded and its symbols resolved inside it,
    and a loaded shared object stays mapped after its file is gone.
    """
    cc = shutil.which("cc") or shutil.which("gcc")
    if cc is None:
        return _Resolution(reason="no C compiler on PATH (looked for cc and gcc)")
    try:
        workdir = tempfile.TemporaryDirectory(prefix="repro-kernel-")
    except OSError as exc:
        return _Resolution(
            reason=f"cannot create a build directory in the temp dir "
            f"{tempfile.gettempdir()}: {exc}"
        )
    with workdir as tmp:
        src = os.path.join(tmp, "kernel.c")
        lib = os.path.join(tmp, "kernel.so")
        try:
            with open(src, "w", encoding="utf-8") as fh:
                fh.write(_C_SOURCE)
        except OSError as exc:
            return _Resolution(reason=f"cannot write the kernel source to {tmp}: {exc}")
        try:
            proc = subprocess.run(
                [cc, *_CC_FLAGS, src, "-o", lib],
                capture_output=True,
                text=True,
                timeout=_CC_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return _Resolution(reason=f"{cc} did not finish within {_CC_TIMEOUT_S} s")
        except OSError as exc:
            return _Resolution(reason=f"cannot run {cc}: {exc}")
        if proc.returncode != 0:
            tail = proc.stderr.strip()[-_STDERR_TAIL_CHARS:] or "(no stderr)"
            return _Resolution(reason=f"{cc} exited with status {proc.returncode}: {tail}")
        try:
            dll = ctypes.PyDLL(lib)
            syms = []
            for name, argtypes in _SYMBOLS:
                sym = getattr(dll, name)
                sym.restype = ctypes.c_int64
                sym.argtypes = [ctypes.c_void_p, *argtypes]
                syms.append(sym)
        except (OSError, AttributeError) as exc:
            return _Resolution(reason=f"cannot load {lib}: {exc}")
        return _Resolution(lib=_CcLibrary(*syms))


def _resolve() -> _Resolution:
    """This process's build outcome, building it on first use."""
    global _RESOLVED
    resolved = _RESOLVED
    if resolved is None:
        with _LOCK:
            resolved = _RESOLVED
            if resolved is None:
                resolved = _build_cc()
                _RESOLVED = resolved
    return resolved


def available_backends() -> List[str]:
    """The compiled backends that load here: ``["cc"]`` or ``[]``."""
    return [] if _resolve().lib is None else ["cc"]


def fallback_reason() -> Optional[str]:
    """Why the cc kernel did not load in this process (None when it did)."""
    return _resolve().reason


def load_step_kernel(
    *,
    dt_s: float,
    max_accel_mps2: float,
    max_decel_mps2: float,
    headway_s: float,
    vehicle_length_m: float,
    min_gap_m: float,
    arrival_eps_m: float,
) -> Optional[StepKernel]:
    """Load the cc kernel bound to these parameters.

    Returns ``None`` when it does not load; the engine then runs its NumPy
    path, which is bit-identical and slower.  The first such fallback in a
    process warns (:class:`RuntimeWarning`) with :func:`fallback_reason`.
    """
    # The headway denominator, computed once exactly as follow_scalar does.
    denom = max(dt_s + headway_s * 0.25, 1e-9)
    params = (
        float(dt_s),
        float(max_accel_mps2 * dt_s),
        float(max_decel_mps2 * dt_s),
        float(denom),
        float(vehicle_length_m),
        float(min_gap_m),
        float(arrival_eps_m),
    )
    resolved = _resolve()
    if resolved.lib is not None:
        return StepKernel(resolved.lib, params)
    with _LOCK:
        first = not resolved.warned
        resolved.warned = True
    if first:
        warnings.warn(
            f"compiled step kernel unavailable, running the NumPy path: {resolved.reason}",
            RuntimeWarning,
            stacklevel=3,
        )
    return None
