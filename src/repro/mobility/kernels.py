"""The compiled backend for the engine's chained car-following step.

The vectorized engine resolves most of a step with NumPy, but the
front-to-back recurrence inside each lane (a follower's update reads its
leader's *post-step* state) is inherently sequential, and the classify /
round machinery that works around it still leaves a scalar tail at queue
boundaries.  This module compiles the *whole* gather→advance→scatter inner
step into one native call: a single sequential sweep over the gathered
columns, lane heads delimiting the chains — exactly the reference engine's
per-vehicle operation sequence, so the result is bit-for-bit identical to
both the scalar and the NumPy paths (the golden-trace suites pin this).
A second entry point evaluates the lane-change candidate predicate (the
``LaneChangeModel.wants_to_change`` scan) over the same gathered order.

The engine uses it by default (``MobilityConfig.compiled=True``).  The
ladder is **cc → NumPy**, with ``vectorized=False`` the scalar reference
below both: **cc** is a small C translation unit compiled with the system
C compiler into a process-lifetime temporary directory and loaded through
:mod:`ctypes`.  It is compiled with ``-ffp-contract=off`` and no
``-ffast-math``/``-march``, so every operation is a plain IEEE-754 double
op in source order (no FMA contraction), and with explicit ternary min/max
that return the *first* operand on ties — mirroring Python's
``min``/``max`` (relevant for ``max(0.0, -0.0)``).

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
  *once* in Python and passed in, matching NumPy's scalar broadcasting.

:func:`advance_chain_py` / :func:`lane_change_candidates_py` are the
executable specifications: plain Python floats, no NumPy ufuncs, usable as
property-test oracles against the compiled kernel.  :func:`lane_options_np`
is the NumPy path's lane viability check, held to the same oracle as the C
``lane_options``.

Calling convention
------------------
The engine *binds* its resident arrays, output buffers and per-edge pointer
tables once per capacity change (:meth:`StepKernel.bind`) and then issues
count-only calls (:attr:`StepKernel.advance_bound` and friends): every
pointer and scalar is cached as a ready ``ctypes`` argument, so a per-step
call is a single foreign call.  Writes into bound arrays, pointer-table
slots included, need no re-bind.
"""

from __future__ import annotations

import ctypes
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
    moved: Any,
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
    fills the *gather-aligned* ``newly`` (arrived and not yet flagged
    waiting) and ``moved`` (position changed) output masks.

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
        moved[i] = np_ != p
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


def gather_all_py(
    occ: Any,
    ptrs: Any,
    lens: Any,
    out: Any,
) -> int:
    """Reference pointer-table gather (Python + ctypes dereference).

    ``occ[:m]`` lists the occupied edge indices in gather order; ``ptrs[e]``
    / ``lens[e]`` give the address and length of edge ``e``'s cached slot
    array.  Copies the per-edge arrays back to back into ``out`` and returns
    the total element count — exactly what the engine's per-edge
    ``np.concatenate`` walk produced.
    """
    total = 0
    for j in range(occ.shape[0]):
        e = int(occ[j])
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

#define MAXF(a, b) (((b) > (a)) ? (b) : (a))
#define MINF(a, b) (((b) < (a)) ? (b) : (a))

int64_t advance_chain(
    const int64_t *idx, int64_t n,
    double *pos, double *speed,
    const double *freeflow, const double *seglen,
    const unsigned char *heads,
    const unsigned char *waitflag,
    unsigned char *newly, unsigned char *moved,
    double dt, double accel_dt, double decel_dt, double denom,
    double veh_len, double min_gap, double arrival_eps)
{
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
        moved[i] = (np != p);
        newly[i] = (np >= length - arrival_eps) && !waitflag[slot];
        n_newly += newly[i];
        lead_pos = np;
        lead_speed = nv;
    }
    return n_newly;
}

int64_t lane_change_candidates(
    const int64_t *idx, int64_t n,
    const double *pos, const double *speed, const double *desired,
    const unsigned char *multilane, const unsigned char *heads,
    unsigned char *cand,
    double blocked_m, double gain_mps)
{
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

/* Pointer-table entry points.  The engine keeps, per edge, the address
 * and length of its lane slot array and the address of its ranking (both
 * views of grow-only buffers updated in place; a table slot is rewritten
 * only when its buffer is reallocated); these sweeps then walk every edge
 * natively, so the steady-state step does no per-edge Python work at all.
 * Addresses arrive as int64 values (numpy owns the arrays and keeps them
 * alive). */

int64_t gather_all(
    const int64_t *occ, int64_t m,
    const int64_t *ptrs, const int64_t *lens,
    int64_t *out)
{
    int64_t total = 0;
    for (int64_t j = 0; j < m; j++) {
        int64_t e = occ[j];
        const int64_t *src = (const int64_t *)(intptr_t)ptrs[e];
        int64_t len = lens[e];
        for (int64_t k = 0; k < len; k++) out[total + k] = src[k];
        total += len;
    }
    return total;
}

/* Both-neighbour lane-change viability for one candidate: bit 0 set when
 * lane+1 exists and has no vehicle within ``half`` of ``own``, bit 1
 * likewise for lane-1.  Reads the candidate edge's gathered slots through
 * the gather pointer table and its per-lane sub-spans through the lane
 * bounds table (``lanes + 1`` cumulative offsets per edge).  The gap
 * comparison is |other - own| < half, the exact float sequence of the
 * scalar model. */
int64_t lane_options(
    int64_t e, int64_t lane, int64_t nlanes, double own, double half,
    const int64_t *gptrs, const int64_t *bptrs, const double *pos)
{
    const int64_t *slots = (const int64_t *)(intptr_t)gptrs[e];
    const int64_t *bounds = (const int64_t *)(intptr_t)bptrs[e];
    int64_t ret = 0;
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

int64_t rank_scan_all(
    const unsigned char *elig, int64_t n_edges,
    const int64_t *ptrs, const int64_t *lens,
    const double *pos, const int64_t *vid, unsigned char *flags)
{
    int64_t n_flagged = 0;
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
"""

_ADVANCE_ARGTYPES = [
    ctypes.c_void_p, ctypes.c_int64,
    ctypes.c_void_p, ctypes.c_void_p,
    ctypes.c_void_p, ctypes.c_void_p,
    ctypes.c_void_p, ctypes.c_void_p,
    ctypes.c_void_p, ctypes.c_void_p,
    ctypes.c_double, ctypes.c_double, ctypes.c_double, ctypes.c_double,
    ctypes.c_double, ctypes.c_double, ctypes.c_double,
]

_CAND_ARGTYPES = [
    ctypes.c_void_p, ctypes.c_int64,
    ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p,
    ctypes.c_void_p, ctypes.c_void_p,
    ctypes.c_void_p,
    ctypes.c_double, ctypes.c_double,
]

_GATHER_ALL_ARGTYPES = [
    ctypes.c_void_p, ctypes.c_int64,
    ctypes.c_void_p, ctypes.c_void_p,
    ctypes.c_void_p,
]

_RANK_ALL_ARGTYPES = [
    ctypes.c_void_p, ctypes.c_int64,
    ctypes.c_void_p, ctypes.c_void_p,
    ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p,
]

_LANE_OPTIONS_ARGTYPES = [
    ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,
    ctypes.c_double, ctypes.c_double,
    ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p,
]


#: Every C entry point with its argument types, in :class:`_CcLibrary` order.
_SYMBOLS = (
    ("advance_chain", _ADVANCE_ARGTYPES),
    ("lane_change_candidates", _CAND_ARGTYPES),
    ("gather_all", _GATHER_ALL_ARGTYPES),
    ("rank_scan_all", _RANK_ALL_ARGTYPES),
    ("lane_options", _LANE_OPTIONS_ARGTYPES),
)


class _CcLibrary(NamedTuple):
    """The loaded kernel library's entry points (argtypes and restype set)."""

    advance_chain: Any
    lane_change_candidates: Any
    gather_all: Any
    rank_scan_all: Any
    lane_options: Any


def _ptr(arr: np.ndarray) -> ctypes.c_void_p:
    return ctypes.c_void_p(arr.ctypes.data)


class StepKernel:
    """The loaded C kernel's entry points, parameter-bound.

    The engine holds one instance per run (the model parameters never
    change mid-run) and re-:meth:`bind`\\ s it whenever its resident arrays
    are reallocated; :meth:`bind` installs the count-only calls below.
    """

    #: the backend that loaded (cc is the only compiled one)
    backend = "cc"
    #: advance over ``idx_buf[:n]``; returns the newly-arrived count
    advance_bound: Callable[[int], int]
    #: lane-change candidate mask into ``cand_buf[:n]``; returns the
    #: candidate count
    candidates_bound: Callable[[int], int]
    #: pointer-table gather over the first ``m`` occupied edges into
    #: ``idx_buf``; returns the total gathered count
    gather_bound: Callable[[int], int]
    #: full-range ranking scan into ``flags_buf``; returns the flagged-edge
    #: count
    rank_all_bound: Callable[[], int]
    #: both-neighbour lane viability ``(e, lane, nlanes, own) -> bits``
    lane_opts_bound: Callable[[int, int, int, float], int]

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
        moved_buf: np.ndarray,
        cand_buf: np.ndarray,
        flags_buf: np.ndarray,
        occ_buf: np.ndarray,
        lane_ptr: np.ndarray,
        lane_len: np.ndarray,
        bounds_ptr: np.ndarray,
        rank_ptr: np.ndarray,
        rank_elig: np.ndarray,
        blocked_m: float,
        gain_mps: float,
        gap_half_m: float,
    ) -> None:
        """Cache the engine's arrays for count-only per-step calls.

        The slot-indexed columns (``pos`` … ``multilane``) are the resident
        arrays; the gather lives in ``idx_buf[:n]`` and outputs land in
        ``newly_buf[:n]`` / ``moved_buf[:n]`` / ``cand_buf[:n]``, while the
        ranking scan writes ``flags_buf`` over the whole edge range.  The
        edge-indexed tables are what the full sweeps (:attr:`gather_bound`
        / :attr:`rank_all_bound` / :attr:`lane_opts_bound`) walk: the
        occupied-edge list, each edge's lane slot array address and length,
        its lane-bounds address, its ranking address and its ranking-scan
        eligibility byte.  Every pointer and scalar becomes a ready
        ``ctypes`` argument, so a per-step call is a single FFI invocation
        with only the count varying.  The caller must re-bind whenever any
        array is *reallocated* (the engine does so on capacity growth);
        in-place writes — including pointer-table slot updates — need no
        re-bind.
        """
        lib = self._lib
        p = [ctypes.c_double(x) for x in self._params]
        idx_c = _ptr(idx_buf)
        pos_c = _ptr(pos)
        lptr_c = _ptr(lane_ptr)
        lens_c = _ptr(lane_len)
        adv_sym = lib.advance_chain
        adv_args = (
            pos_c, _ptr(speed), _ptr(freeflow), _ptr(seglen),
            _ptr(heads), _ptr(waitflag), _ptr(newly_buf), _ptr(moved_buf), *p,
        )
        cand_sym = lib.lane_change_candidates
        cand_args = (
            pos_c, _ptr(speed), _ptr(desired), _ptr(multilane), _ptr(heads),
            _ptr(cand_buf), ctypes.c_double(blocked_m), ctypes.c_double(gain_mps),
        )
        gather_sym = lib.gather_all
        gat_args = (lptr_c, lens_c, idx_c)
        occ_c = _ptr(occ_buf)
        rank_all_sym = lib.rank_scan_all
        ra_args = (
            _ptr(rank_elig), ctypes.c_int64(rank_elig.shape[0]),
            _ptr(rank_ptr), lens_c, pos_c, _ptr(vid), _ptr(flags_buf),
        )
        lane_opts_sym = lib.lane_options
        lo_args = (ctypes.c_double(gap_half_m), lptr_c, _ptr(bounds_ptr), pos_c)

        def advance_bound(n: int) -> int:
            return int(adv_sym(idx_c, n, *adv_args))

        def candidates_bound(n: int) -> int:
            return int(cand_sym(idx_c, n, *cand_args))

        def gather_bound(m: int) -> int:
            return int(gather_sym(occ_c, m, *gat_args))

        def rank_all_bound() -> int:
            return int(rank_all_sym(*ra_args))

        def lane_opts_bound(e: int, lane: int, nlanes: int, own: float) -> int:
            return int(lane_opts_sym(e, lane, nlanes, own, *lo_args))

        self.advance_bound = advance_bound
        self.candidates_bound = candidates_bound
        self.gather_bound = gather_bound
        self.rank_all_bound = rank_all_bound
        self.lane_opts_bound = lane_opts_bound


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
    #: keeps the shared object's directory alive as long as the process
    builddir: Optional["tempfile.TemporaryDirectory[str]"] = None
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
    """Compile and load the C kernel, or record why that failed."""
    cc = shutil.which("cc") or shutil.which("gcc")
    if cc is None:
        return _Resolution(reason="no C compiler on PATH (looked for cc and gcc)")
    try:
        builddir = tempfile.TemporaryDirectory(prefix="repro-kernel-")
    except OSError as exc:
        return _Resolution(
            reason=f"cannot create a build directory in the temp dir "
            f"{tempfile.gettempdir()}: {exc}"
        )
    src = os.path.join(builddir.name, "kernel.c")
    lib = os.path.join(builddir.name, "kernel.so")
    try:
        with open(src, "w", encoding="utf-8") as fh:
            fh.write(_C_SOURCE)
    except OSError as exc:
        return _Resolution(reason=f"cannot write the kernel source to {builddir.name}: {exc}")
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
        dll = ctypes.CDLL(lib)
        syms = []
        for name, argtypes in _SYMBOLS:
            sym = getattr(dll, name)
            sym.restype = ctypes.c_int64
            sym.argtypes = argtypes
            syms.append(sym)
    except (OSError, AttributeError) as exc:
        return _Resolution(reason=f"cannot load {lib}: {exc}")
    return _Resolution(lib=_CcLibrary(*syms), builddir=builddir)


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
