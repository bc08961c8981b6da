"""The compiled backend for the engine's chained car-following step.

The vectorized engine resolves most of a step with NumPy, but the
front-to-back recurrence inside each lane (a follower's update reads its
leader's *post-step* state) is inherently sequential, and the classify /
round machinery that works around it still leaves a scalar tail at queue
boundaries.  This module compiles the *whole* gather→advance→scatter inner
step into one native call (``advance_chain``): a single sequential sweep
over the gathered columns, lane heads delimiting the chains — exactly the
reference engine's per-vehicle operation sequence, so the result is
bit-for-bit identical to both the scalar and the NumPy paths (the
golden-trace suites pin this).  The other entry points are
``lane_change_candidates`` (the ``LaneChangeModel.wants_to_change`` scan
over the same gathered order); ``gather_all``, ``rank_scan_all`` and
``lane_options``, which walk the engine's per-edge pointer tables; and the
occupancy transitions ``occ_enter``, ``occ_leave`` and ``occ_lane_move``,
each one vehicle entering an edge, leaving it or changing lanes, with the
semantics of the engine's NumPy splice pair (``TrafficEngine._lane_insert``
and friends, their oracle).

The engine uses it by default (``MobilityConfig.compiled=True``).  The
ladder is **cc → NumPy**, with ``vectorized=False`` the scalar reference
below both: **cc** is a small C translation unit compiled with the system
C compiler in a temporary directory and loaded through :mod:`ctypes`; the
directory is removed as soon as the library is loaded (a loaded shared
object stays mapped after its file is gone).  It is compiled with
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
interpreter's 5 ms switch interval (the longest sweep measured,
``gather_all`` at 8,000 vehicles on the 11,132-edge city, takes 41 µs).

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

:func:`advance_chain_py` / :func:`lane_change_candidates_py` are the
executable specifications: plain Python floats, no NumPy ufuncs, usable as
property-test oracles against the compiled kernel.  :func:`lane_options_np`
is the NumPy path's lane viability check, held to the same oracle as the C
``lane_options``.

Calling convention
------------------
Every C entry point takes one struct first: ``tables`` in C,
:class:`_Tables` here.  It holds the address of every array the kernel
reads or writes (the engine's resident columns, its per-step buffers and
its per-edge pointer tables), the edge count and the ten model scalars.
:meth:`StepKernel.bind` fills it once per capacity change and binds each
entry point to its address with :func:`functools.partial`, so a call
passes only what varies: a count, or one transition's edge, lanes, slot
and kinematics (ctypes charges per argument).  Writes into bound arrays,
pointer-table slots included, need no re-bind.  Edges grow on demand:
``occ_enter`` returns -1, having written nothing, when the edge's buffers
are full; the engine then doubles them (``TrafficEngine._grow_edge``,
which rewrites their pointer-table entries and the edge's ``lane_cap``)
and calls again.
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
    "gather_all_py",
    "rank_scan_all_py",
    "lane_options_py",
    "lane_options_np",
    "available_backends",
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
    newly: Any,
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
    flagged waiting).

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


def gather_all_py(ptrs: Any, lens: Any, out: Any) -> int:
    """Reference pointer-table gather (Python + ctypes dereference).

    ``ptrs[e]`` / ``lens[e]`` give the address and live length of edge
    ``e``'s lane slot array.  Walks every edge in index order, copies each
    non-empty one's live prefix back to back into ``out`` (an edge of length
    0 is skipped, whatever its address) and returns the total element count
    — exactly what the engine's per-edge ``np.concatenate`` walk produces.
    """
    total = 0
    for e in range(lens.shape[0]):
        ln = int(lens[e])
        out[total:total + ln] = _deref_i64(int(ptrs[e]), ln)
        total += ln
    return total


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

/* Every entry point takes this struct first; StepKernel.bind fills it (the
 * _Tables class, field for field).  The slot-indexed resident columns come
 * first, then the per-step buffers (the gather idx, the newly and cand masks
 * aligned with it, and the edge-indexed overtake flags), then the per-edge
 * tables: edge e's lanes are lane_ptr[e][:lane_len[e]] split by the
 * nlanes[e] + 1 bounds at bounds_ptr[e], and a multilane edge's ranking is
 * rank_ptr[e][:lane_len[e]].  Addresses arrive as int64 values (numpy owns
 * the arrays and keeps them alive); a table entry changes only when its
 * buffer is reallocated.  The sweeps copy what they use into locals, since
 * their stores may alias the struct. */
typedef struct {
    double *pos, *speed, *freeflow, *seglen;
    const double *desired;
    const int64_t *vid;
    unsigned char *heads, *multilane, *waitflag;
    int64_t *idx;
    unsigned char *newly, *cand, *flags;
    const int64_t *lane_ptr, *rank_ptr, *bounds_ptr, *nlanes;
    int64_t *lane_len;
    const int64_t *lane_cap;
    int64_t *occ_lanes;
    unsigned char *rank_elig;
    int64_t n_edges;
    double dt, accel_dt, decel_dt, denom, veh_len, min_gap, arrival_eps;
    double blocked_m, gain_mps, gap_half;
} tables;

#define EDGE_ARRAY(table, e) ((int64_t *)(intptr_t)(table)[e])

int64_t advance_chain(const tables *t, int64_t n)
{
    const int64_t *idx = t->idx;
    double *pos = t->pos, *speed = t->speed;
    const double *freeflow = t->freeflow, *seglen = t->seglen;
    const unsigned char *heads = t->heads, *waitflag = t->waitflag;
    unsigned char *newly = t->newly;
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
        n_newly += newly[i];
        lead_pos = np;
        lead_speed = nv;
    }
    return n_newly;
}

int64_t lane_change_candidates(const tables *t, int64_t n)
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

/* Every edge's live lane slots, back to back in edge order, into idx. */
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
int64_t lane_options(const tables *t, int64_t e, int64_t lane, double own)
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

int64_t rank_scan_all(const tables *t)
{
    const unsigned char *elig = t->rank_elig;
    const int64_t *ptrs = t->rank_ptr, *lens = t->lane_len, *vid = t->vid;
    const double *pos = t->pos;
    unsigned char *flags = t->flags;
    int64_t n_edges = t->n_edges, n_flagged = 0;
    for (int64_t e = 0; e < n_edges; e++) {
        unsigned char bad = 0;
        if (elig[e]) {
            const int64_t *slots = (const int64_t *)(intptr_t)ptrs[e];
            int64_t len = lens[e];
            for (int64_t k = 1; k < len; k++) {
                int64_t s0 = slots[k - 1], s1 = slots[k];
                double a = pos[s0];
                double b = pos[s1];
                if (b < a || (b == a && vid[s0] > vid[s1])) {
                    bad = 1;
                    break;
                }
            }
        }
        flags[e] = bad;
        n_flagged += bad;
    }
    return n_flagged;
}

/* Occupancy transitions: each entry point is one TrafficEngine transition
 * with the semantics of its NumPy splice pair (_lane_insert/_lane_remove,
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

/* Write slot's resident columns, then insert it into its lane and, on a
 * multilane edge, into the ranking at bisect.bisect_right's index on the
 * (position, vid) key, probe for probe: a ranking the overtake scan skipped
 * may be out of order, and the probes then decide where the slot lands.
 * Returns -1, having written nothing, when the edge's buffers are full
 * (lane_len == lane_cap); the engine grows them and calls again. */
int64_t occ_enter(
    const tables *t, int64_t e, int64_t lane, int64_t slot,
    double p, double speed, double free, double length)
{
    int64_t k = t->lane_len[e], lo = 0, hi = k, v = t->vid[slot];
    if (k == t->lane_cap[e]) return -1;
    t->pos[slot] = p;
    t->speed[slot] = speed;
    t->freeflow[slot] = free;
    t->seglen[slot] = length;
    t->multilane[slot] = t->nlanes[e] > 1;
    t->waitflag[slot] = 0;
    lane_in(t, e, lane, slot);
    if (t->nlanes[e] == 1) return 0;
    int64_t *rank = EDGE_ARRAY(t->rank_ptr, e);
    while (lo < hi) {
        int64_t mid = (lo + hi) / 2;
        double pm = t->pos[rank[mid]];
        if (p < pm || (p == pm && v < t->vid[rank[mid]])) hi = mid;
        else lo = mid + 1;
    }
    memmove(rank + lo + 1, rank + lo, (size_t)(k - lo) * sizeof(int64_t));
    rank[lo] = slot;
    return 0;
}

int64_t occ_leave(const tables *t, int64_t e, int64_t lane, int64_t slot)
{
    int64_t k = t->lane_len[e], i = k - 1;
    t->waitflag[slot] = 0;
    lane_out(t, e, lane, slot);
    if (t->nlanes[e] == 1) return 0;
    int64_t *rank = EDGE_ARRAY(t->rank_ptr, e);
    while (rank[i] != slot) i--;  /* usually the last: leavers lead */
    memmove(rank + i, rank + i + 1, (size_t)(k - 1 - i) * sizeof(int64_t));
    return 0;
}

int64_t occ_lane_move(
    const tables *t, int64_t e, int64_t from, int64_t to, int64_t slot)
{
    lane_out(t, e, from, slot);
    lane_in(t, e, to, slot);
    return 0;
}
"""

#: Every C entry point with the argument types after its ``tables`` pointer,
#: in :class:`_CcLibrary` order.
_SYMBOLS = (
    ("advance_chain", [ctypes.c_int64]),
    ("lane_change_candidates", [ctypes.c_int64]),
    ("gather_all", []),
    ("rank_scan_all", []),
    ("lane_options", [ctypes.c_int64, ctypes.c_int64, ctypes.c_double]),
    ("occ_enter", [ctypes.c_int64] * 3 + [ctypes.c_double] * 4),
    ("occ_leave", [ctypes.c_int64] * 3),
    ("occ_lane_move", [ctypes.c_int64] * 4),
)


class _CcLibrary(NamedTuple):
    """The loaded kernel library's entry points (argtypes and restype set)."""

    advance_chain: Any
    lane_change_candidates: Any
    gather_all: Any
    rank_scan_all: Any
    lane_options: Any
    occ_enter: Any
    occ_leave: Any
    occ_lane_move: Any


class _Tables(ctypes.Structure):
    """The C ``tables`` struct, field for field: the address of every array
    the kernel reads or writes, the edge count and the model scalars."""

    _fields_ = [
        *((name, ctypes.c_void_p) for name in (
            "pos speed freeflow seglen desired vid heads multilane waitflag idx newly "
            "cand flags lane_ptr rank_ptr bounds_ptr nlanes lane_len lane_cap "
            "occ_lanes rank_elig").split()),
        ("n_edges", ctypes.c_int64),
        *((name, ctypes.c_double) for name in (
            "dt accel_dt decel_dt denom veh_len min_gap arrival_eps blocked_m "
            "gain_mps gap_half").split()),
    ]


class StepKernel:
    """The loaded C kernel's entry points, bound to one :class:`_Tables`.

    The engine holds one instance per run (the model parameters never
    change mid-run) and re-:meth:`bind`\\ s it whenever its resident arrays
    are reallocated; :meth:`bind` installs the calls below.
    """

    #: the backend that loaded (cc is the only compiled one)
    backend = "cc"
    #: advance over ``idx_buf[:n]``; returns the newly-arrived count
    advance_bound: Callable[[int], int]
    #: lane-change candidate mask into ``cand_buf[:n]``; returns the
    #: candidate count
    candidates_bound: Callable[[int], int]
    #: every edge's lane slots into ``idx_buf``; returns the gathered count
    gather_bound: Callable[[], int]
    #: full-range ranking scan into ``flags_buf``; returns the flagged-edge
    #: count
    rank_all_bound: Callable[[], int]
    #: both-neighbour lane viability ``(e, lane, own) -> bits``
    lane_opts_bound: Callable[[int, int, float], int]
    #: ``(e, lane, slot, pos, speed, free, length)``; -1 if ``e`` is full
    occ_enter_bound: Callable[[int, int, int, float, float, float, float], int]
    #: ``(e, lane, slot)``
    occ_leave_bound: Callable[[int, int, int], int]
    #: ``(e, from, to, slot)``
    occ_lane_move_bound: Callable[[int, int, int, int], int]

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
        desired: np.ndarray,
        vid: np.ndarray,
        heads: np.ndarray,
        waitflag: np.ndarray,
        multilane: np.ndarray,
        newly_buf: np.ndarray,
        cand_buf: np.ndarray,
        flags_buf: np.ndarray,
        lane_ptr: np.ndarray,
        lane_len: np.ndarray,
        bounds_ptr: np.ndarray,
        rank_ptr: np.ndarray,
        rank_elig: np.ndarray,
        nlanes: np.ndarray,
        lane_cap: np.ndarray,
        occ_lanes: np.ndarray,
        blocked_m: float,
        gain_mps: float,
        gap_half_m: float,
    ) -> None:
        """Fill the kernel's struct with the engine's arrays and bind every
        entry point to it.

        The slot-indexed columns (``pos`` … ``multilane``) are the resident
        arrays; the gather lives in ``idx_buf[:n]``, the advance and
        candidate masks land in ``newly_buf[:n]`` / ``cand_buf[:n]``, and
        the ranking scan writes ``flags_buf`` over the whole edge range.
        The edge-indexed tables hold each edge's lane slot array address
        and live length, its lane-bounds address, its ranking address, its
        ranking-scan eligibility byte, its lane count, its capacity and its
        occupied-lane count; their length is the edge count.  With the
        model scalars they make one :class:`_Tables`, and every ``*_bound``
        attribute is a C entry point with the struct's address bound as
        its first argument, so a call passes only what varies.  The caller
        must re-bind whenever any array is *reallocated* (the engine does
        so on capacity growth); in-place writes — including pointer-table
        slot updates — need no re-bind.
        """
        arrays = (  # in _Tables field order
            pos, speed, freeflow, seglen, desired, vid, heads, multilane, waitflag,
            idx_buf, newly_buf, cand_buf, flags_buf, lane_ptr, rank_ptr, bounds_ptr,
            nlanes, lane_len, lane_cap, occ_lanes, rank_elig,
        )
        self._tables = tables = _Tables(
            *(arr.ctypes.data for arr in arrays), lane_len.shape[0], *self._params,
            blocked_m, gain_mps, gap_half_m,
        )
        ref = ctypes.c_void_p(ctypes.addressof(tables))
        lib = self._lib
        self.advance_bound = functools.partial(lib.advance_chain, ref)
        self.candidates_bound = functools.partial(lib.lane_change_candidates, ref)
        self.gather_bound = functools.partial(lib.gather_all, ref)
        self.rank_all_bound = functools.partial(lib.rank_scan_all, ref)
        self.lane_opts_bound = functools.partial(lib.lane_options, ref)
        self.occ_enter_bound = functools.partial(lib.occ_enter, ref)
        self.occ_leave_bound = functools.partial(lib.occ_leave, ref)
        self.occ_lane_move_bound = functools.partial(lib.occ_lane_move, ref)


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
