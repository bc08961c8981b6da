"""The compiled step kernel vs. its pure-Python oracles, and its loader.

:mod:`repro.mobility.kernels` ships executable specifications
(``advance_chain_py`` and friends) and one compiled backend, cc.  When it
loads here it must reproduce the oracles *bit for bit* on randomized
inputs — positions and speeds compared with ``array_equal`` (which
distinguishes ``-0.0`` from ``0.0`` via the follow-up sign check), never
``allclose``.  The pointer-table sweeps (``gather_all`` / ``rank_scan_all``
/ ``lane_options``) are checked against their ctypes-dereferencing
oracles.  The kernel has one calling convention, the engine's: every entry
point takes one struct (``tables`` in C, ``_Tables`` in Python, whose
layouts ``TestTablesLayout`` holds equal), filled once by
``StepKernel.bind``, so each call passes only what varies.  Every test
binds its own arrays through :func:`_bound`, which zero-fills every array
it is not given and gives the ten model scalars distinct values, so a
swapped scalar changes an oracle comparison.  The engine's compiler-less
lane viability check (``lane_options_np``) is held to the same
``lane_options`` oracle, so it runs on every host.  The occupancy transitions (``occ_enter`` /
``occ_leave`` / ``occ_lane_move``) are held to the engine's NumPy splice
pair instead: a cc engine and a ``compiled=False`` engine go through the
same scripted entries, exits and lane moves, and every table either
writes must be equal after each one.  Every entry point keeps the GIL
(the library is a ``ctypes.PyDLL``): one test reads each symbol's flags,
and another steps cc engines on six threads at a 10 µs switch interval
against the same seeds stepped alone.

When cc does not load, the loader must return ``None`` with a recorded
reason, the engine must run its NumPy path (``kernel_backend == "numpy"``)
and warn once with that reason.  The fallback tests below reset the
loader's per-process cache and break the build on purpose (no compiler on
``PATH``, a temp dir that cannot hold the build, a failing compiler, an
unloadable library), so every host exercises them; the race test builds
the kernel from several threads at once.  No build, failed or not, may
leave its temporary directory behind.
"""

from __future__ import annotations

import ctypes
import multiprocessing
import os
import re
import shutil
import stat
import subprocess
import sys
import tempfile
import threading
import warnings

import numpy as np
import pytest

from repro.mobility import kernels
from repro.mobility.kernels import (
    advance_chain_py,
    available_backends,
    fallback_reason,
    gather_all_py,
    lane_change_candidates_py,
    lane_options_np,
    lane_options_py,
    load_step_kernel,
    rank_scan_all_py,
)

#: Model parameters whose seven derived struct scalars (dt 0.5, accel_dt
#: 1.0, decel_dt 2.25, denom 0.8, 4.5, 2.0, 0.6) differ from each other and
#: from the three in ``LANE_CHANGE``.
PARAMS = dict(
    dt_s=0.5,
    max_accel_mps2=2.0,
    max_decel_mps2=4.5,
    headway_s=1.2,
    vehicle_length_m=4.5,
    min_gap_m=2.0,
    arrival_eps_m=0.6,
)
LANE_CHANGE = dict(blocked_m=12.0, gain_mps=1.25, gap_half_m=3.0)


def _has_compiler():
    return bool(shutil.which("cc") or shutil.which("gcc"))


def _cc_kernel():
    """The cc kernel bound to ``PARAMS``, or skip where it does not load."""
    if not available_backends():
        pytest.skip(f"cc kernel unavailable here: {fallback_reason()}")
    kernel = load_step_kernel(**PARAMS)
    assert kernel is not None and kernel.backend == "cc"
    return kernel


#: Every array :meth:`StepKernel.bind` takes, by dtype: slot-indexed and
#: gather-aligned ones are ``n_slots`` long, edge-indexed ones ``n_edges``.
_SLOT_ARRAYS = dict(
    idx_buf=np.intp, pos=np.float64, speed=np.float64, freeflow=np.float64,
    seglen=np.float64, desired=np.float64, vid=np.int64, heads=np.uint8,
    waitflag=np.uint8, multilane=np.uint8, newly_buf=bool, cand_buf=bool,
)
_EDGE_ARRAYS = dict(
    flags_buf=np.uint8, lane_ptr=np.int64, lane_len=np.int64, bounds_ptr=np.int64,
    rank_ptr=np.int64, rank_elig=np.uint8, nlanes=np.int64, lane_cap=np.int64,
    occ_lanes=np.int64,
)


def _bound(n_slots=1, n_edges=1, *, gap_half_m=LANE_CHANGE["gap_half_m"], **given):
    """The cc kernel bound to the ``given`` arrays, every other one zero-filled.

    Returns the kernel and every bound array by name.  The kernel holds raw
    addresses, so the caller keeps the arrays alive while it calls.  Every
    struct field must come out set, and the model scalars distinct.
    """
    kernel = _cc_kernel()
    arrays = {name: np.zeros(n_slots, dtype) for name, dtype in _SLOT_ARRAYS.items()}
    arrays.update({name: np.zeros(n_edges, dtype) for name, dtype in _EDGE_ARRAYS.items()})
    arrays.update(given)
    kernel.bind(**arrays, **dict(LANE_CHANGE, gap_half_m=gap_half_m))
    fields = kernel._tables._fields_
    assert len(fields) == len(arrays) + 1 + 10
    assert all(getattr(kernel._tables, name) for name, _ in fields)
    scalars = [getattr(kernel._tables, name) for name, kind in fields
               if kind is ctypes.c_double]
    assert len(scalars) == 10 and len(set(scalars)) == 10, scalars
    assert kernel._tables.n_edges == n_edges
    return kernel, arrays


def _chain_inputs(rng, n):
    """Randomized gathered columns for the advance sweep.

    Bit-equality does not require physically plausible chains — both
    implementations must run the identical float sequence on *any* input —
    but the draws roughly resemble engine state (positions within segment
    length, small speeds) so the branches all get exercised, including the
    ceiling clamp and the ``max(0.0, -0.0)`` tie.
    """
    idx = rng.permutation(n).astype(np.intp)
    pos = rng.uniform(0.0, 120.0, n)
    speed = rng.uniform(0.0, 15.0, n)
    freeflow = rng.uniform(5.0, 15.0, n)
    seglen = rng.uniform(60.0, 120.0, n)
    heads = rng.random(n) < 0.3
    waitflag = rng.random(n) < 0.2
    return idx, pos, speed, freeflow, seglen, heads, waitflag


def _advance_args():
    dt = PARAMS["dt_s"]
    denom = max(dt + PARAMS["headway_s"] * 0.25, 1e-9)
    return (
        dt,
        PARAMS["max_accel_mps2"] * dt,
        PARAMS["max_decel_mps2"] * dt,
        denom,
        PARAMS["vehicle_length_m"],
        PARAMS["min_gap_m"],
        PARAMS["arrival_eps_m"],
    )


def _c_struct_fields():
    """The C ``tables`` struct's declarators in order, as ``(name, kind)``
    pairs, the kind being ``pointer``, ``int64_t`` or ``double``."""
    body = re.search(r"typedef struct \{(.*?)\} tables;", kernels._C_SOURCE, re.S).group(1)
    fields = []
    for decl in filter(None, (d.strip() for d in body.split(";"))):
        m = re.fullmatch(r"(?:const\s+)?(unsigned char|int64_t|double)\s+(.+)", decl, re.S)
        assert m, decl
        for declarator in m.group(2).split(","):
            star, name = re.fullmatch(r"\s*(\*?)\s*(\w+)\s*", declarator).groups()
            fields.append((name, "pointer" if star else m.group(1)))
    return fields


class TestTablesLayout:
    """``_Tables`` is the C ``tables`` struct field for field, and every
    entry point takes it first.  A field added on one side only, or two
    same-typed fields swapped on one side, fails here instead of corrupting
    memory.  Runs on every host."""

    def test_python_fields_match_the_c_declarators(self):
        kinds = {ctypes.c_void_p: "pointer", ctypes.c_int64: "int64_t",
                 ctypes.c_double: "double"}
        python = [(name, kinds[ctype]) for name, ctype in kernels._Tables._fields_]
        assert python == _c_struct_fields()

    def test_every_entry_point_takes_the_struct_first(self):
        entry = re.findall(r"^int64_t (\w+)\(\s*([^,)]*)", kernels._C_SOURCE, re.M)
        assert sorted(name for name, _ in entry) == sorted(name for name, _ in kernels._SYMBOLS)
        assert {first for _, first in entry} == {"const tables *t"}


class TestAdvanceChain:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_cc_matches_oracle_bitwise(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 60))
        idx, pos, speed, freeflow, seglen, heads, waitflag = _chain_inputs(rng, n)
        newly_a = np.zeros(n, dtype=bool)
        newly_b = np.zeros(n, dtype=bool)
        pos_a, speed_a = pos.copy(), speed.copy()
        pos_b, speed_b = pos.copy(), speed.copy()
        ref = advance_chain_py(
            idx, pos_a, speed_a, freeflow, seglen,
            heads.astype(np.uint8), waitflag.astype(np.uint8),
            newly_a, *_advance_args(),
        )
        kernel, _ = _bound(
            n, idx_buf=idx, pos=pos_b, speed=speed_b, freeflow=freeflow, seglen=seglen,
            heads=heads.astype(np.uint8), waitflag=waitflag.astype(np.uint8),
            newly_buf=newly_b,
        )
        got = kernel.advance_bound(n)
        assert got == ref
        assert np.array_equal(pos_a, pos_b)
        assert np.array_equal(speed_a, speed_b)
        # -0.0 vs 0.0 would pass array_equal; the sign bits must agree too
        # (the scalar engine's max(0.0, -0.0) contract).
        assert np.array_equal(np.signbit(speed_a), np.signbit(speed_b))
        assert np.array_equal(newly_a, newly_b)

    def test_empty_chain(self):
        kernel, _ = _bound()
        assert kernel.advance_bound(0) == 0


class TestLaneChangeCandidates:
    @pytest.mark.parametrize("seed", [0, 7, 11])
    def test_cc_matches_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 50))
        idx = rng.permutation(n).astype(np.intp)
        pos = rng.uniform(0.0, 100.0, n)
        speed = rng.uniform(0.0, 15.0, n)
        desired = rng.uniform(5.0, 15.0, n)
        multilane = (rng.random(n) < 0.7).astype(np.uint8)
        heads = (rng.random(n) < 0.3).astype(np.uint8)
        cand_a = np.zeros(n, dtype=bool)
        cand_b = np.zeros(n, dtype=bool)
        ref = lane_change_candidates_py(
            idx, pos, speed, desired, multilane, heads, cand_a,
            LANE_CHANGE["blocked_m"], LANE_CHANGE["gain_mps"],
        )
        kernel, _ = _bound(
            n, idx_buf=idx, pos=pos, speed=speed, desired=desired,
            multilane=multilane, heads=heads, cand_buf=cand_b,
        )
        assert kernel.candidates_bound(n) == ref
        assert np.array_equal(cand_a, cand_b)


# ------------------------------------------------------------ pointer tables
def _edge_tables(rng, n_edges, n_slots):
    """Per-edge slot arrays plus their address/length tables.

    Returns the kept-alive array list alongside the tables — the oracle and
    the C sweep both read raw addresses, so the arrays must outlive the
    call exactly as the engine's per-edge slot buffers do.
    """
    keep = []
    ptrs = np.zeros(n_edges, dtype=np.int64)
    lens = np.zeros(n_edges, dtype=np.int64)
    for e in range(n_edges):
        arr = rng.integers(0, n_slots, int(rng.integers(0, 7))).astype(np.int64)
        keep.append(arr)
        ptrs[e] = arr.ctypes.data
        lens[e] = arr.shape[0]
    return keep, ptrs, lens


class TestGatherAll:
    @pytest.mark.parametrize("seed", [0, 5])
    def test_c_matches_oracle(self, seed):
        """Both walk every edge and concatenate the live prefixes in edge
        order, skipping empty edges, allocated (address set, length 0,
        like an edge that has emptied) or not (address 0)."""
        rng = np.random.default_rng(seed)
        n_edges = 10
        keep, ptrs, lens = _edge_tables(rng, n_edges, 30)
        lens = np.minimum(lens, rng.integers(0, 7, n_edges))  # live prefixes
        emptied = rng.permutation(n_edges)[:3]
        lens[emptied] = 0
        ptrs[emptied[0]] = 0
        assert (lens == 0).sum() >= 3 and (ptrs[lens == 0] != 0).any()
        cap = int(lens.sum()) + 1
        out_a = np.zeros(cap, dtype=np.int64)
        out_b = np.zeros(cap, dtype=np.intp)
        ref = gather_all_py(ptrs, lens, out_a)
        kernel, _ = _bound(cap, n_edges, idx_buf=out_b, lane_ptr=ptrs, lane_len=lens)
        got = kernel.gather_bound()
        assert got == ref == int(lens.sum())
        expect = np.concatenate([keep[e][:lens[e]] for e in range(n_edges)])
        assert np.array_equal(out_a[:ref], expect)
        assert np.array_equal(out_b[:got], expect)


def _rank_scan(elig, ptrs, lens, pos, vid):
    """Flags from the oracle and from cc (bound) on the same tables."""
    n_edges = elig.shape[0]
    flags_a = np.zeros(n_edges, dtype=np.uint8)
    flags_b = np.zeros(n_edges, dtype=np.uint8)
    ref = rank_scan_all_py(elig, ptrs, lens, pos, vid, flags_a)
    kernel, _ = _bound(
        pos.shape[0], n_edges, pos=pos, vid=vid, rank_ptr=ptrs, lane_len=lens,
        rank_elig=elig, flags_buf=flags_b,
    )
    assert kernel.rank_all_bound() == ref
    assert np.array_equal(flags_a, flags_b)
    return flags_b


class TestRankScanAll:
    @pytest.mark.parametrize("seed", [2, 13])
    def test_c_matches_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n_edges, n_slots = 14, 40
        pos = rng.uniform(0.0, 50.0, n_slots).round(1)  # rounding makes ties
        vid = rng.integers(0, 10_000, n_slots).astype(np.int64)
        elig = (rng.random(n_edges) < 0.6).astype(np.uint8)
        keep, ptrs, lens = _edge_tables(rng, n_edges, n_slots)
        flags = _rank_scan(elig, ptrs, lens, pos, vid)
        # ineligible edges must never be flagged
        assert not np.any(flags[elig == 0])

    def test_positional_ties_follow_vid_order(self):
        """Sorted rankings full of positional ties pass, and a tie whose
        vid order is reversed is an inversion: the ``b == a`` clause, not
        ``b < a``, decides every flag here."""
        rng = np.random.default_rng(5)
        n_edges, per_edge = 8, 6
        n_slots = n_edges * per_edge
        pos = rng.integers(0, 3, n_slots) * 2.5  # three positions: ties galore
        vid = rng.permutation(n_slots).astype(np.int64)
        keep = []
        for part in np.split(rng.permutation(n_slots), n_edges):
            keep.append(part[np.lexsort((vid[part], pos[part]))].astype(np.int64))
        reversed_edge = 3
        ranking = keep[reversed_edge]
        k = int(np.flatnonzero(pos[ranking[1:]] == pos[ranking[:-1]])[0])
        ranking[[k, k + 1]] = ranking[[k + 1, k]]
        ptrs = np.array([r.ctypes.data for r in keep], dtype=np.int64)
        lens = np.full(n_edges, per_edge, dtype=np.int64)
        elig = np.ones(n_edges, dtype=np.uint8)
        flags = _rank_scan(elig, ptrs, lens, pos, vid)
        expected = np.zeros(n_edges, dtype=np.uint8)
        expected[reversed_edge] = 1
        assert np.array_equal(flags, expected)


def _lane_options(backend, e, lane, own, half, edges, gptrs, bptrs, nlanes, pos):
    """One viability implementation: cc reads edge ``e`` through the pointer
    and lane-count tables, NumPy takes its ``(slots, bounds)`` arrays from
    ``edges`` and its lane count from ``nlanes``."""
    if backend == "cc":
        kernel, _ = _bound(
            pos.shape[0], gptrs.shape[0], pos=pos, lane_ptr=gptrs, bounds_ptr=bptrs,
            nlanes=nlanes, gap_half_m=half,
        )
        return kernel.lane_opts_bound(e, lane, own)
    slots, bounds = edges[e]
    return lane_options_np(lane, int(nlanes[e]), own, half, slots, bounds, pos)


class TestLaneOptions:
    """cc and the NumPy check against the oracle; only cc may skip."""

    @pytest.mark.parametrize("backend", ["cc", "numpy"])
    @pytest.mark.parametrize("seed", [1, 8, 17])
    def test_matches_oracle(self, seed, backend):
        rng = np.random.default_rng(seed)
        n_edges, n_slots = 6, 60
        pos = rng.uniform(0.0, 100.0, n_slots)
        keep = []
        gptrs = np.zeros(n_edges, dtype=np.int64)
        bptrs = np.zeros(n_edges, dtype=np.int64)
        nlanes_by_edge = rng.integers(1, 4, n_edges).astype(np.int64)
        for e in range(n_edges):
            nlanes = int(nlanes_by_edge[e])
            per_lane = [rng.integers(0, n_slots, int(rng.integers(0, 5))).astype(np.int64)
                        for _ in range(nlanes)]
            slots = np.concatenate(per_lane) if per_lane else np.empty(0, np.int64)
            bounds = np.zeros(nlanes + 1, dtype=np.int64)
            np.cumsum([len(p) for p in per_lane], out=bounds[1:])
            keep.append((slots, bounds))
            gptrs[e] = slots.ctypes.data
            bptrs[e] = bounds.ctypes.data
        for _ in range(20):
            e = int(rng.integers(0, n_edges))
            nlanes = int(nlanes_by_edge[e])
            lane = int(rng.integers(0, nlanes))
            own = float(rng.uniform(0.0, 100.0))
            half = float(rng.uniform(1.0, 20.0))
            ref = lane_options_py(e, lane, nlanes, own, half, gptrs, bptrs, pos)
            got = _lane_options(backend, e, lane, own, half, keep, gptrs, bptrs,
                                nlanes_by_edge, pos)
            assert got == ref
            assert 0 <= got <= 3

    @pytest.mark.parametrize("backend", ["cc", "numpy"])
    def test_single_lane_has_no_options(self, backend):
        slots = np.array([0], dtype=np.int64)
        bounds = np.array([0, 1], dtype=np.int64)
        gptrs = np.array([slots.ctypes.data], dtype=np.int64)
        bptrs = np.array([bounds.ctypes.data], dtype=np.int64)
        pos = np.array([5.0])
        edges = [(slots, bounds)]
        nlanes = np.array([1], dtype=np.int64)
        assert _lane_options(backend, 0, 0, 50.0, 4.0, edges, gptrs, bptrs, nlanes, pos) == 0

    @pytest.mark.parametrize("backend", ["cc", "numpy"])
    def test_gap_test_is_strict(self, backend):
        # Two lanes, one vehicle each (46.0 in lane 0, 50.0 in lane 1): a
        # neighbour exactly ``half`` away leaves the lane viable, because
        # the scalar model blocks only on |other - own| < half.
        slots = np.array([0, 1], dtype=np.int64)
        bounds = np.array([0, 1, 2], dtype=np.int64)
        gptrs = np.array([slots.ctypes.data], dtype=np.int64)
        bptrs = np.array([bounds.ctypes.data], dtype=np.int64)
        pos = np.array([46.0, 50.0])
        edges = [(slots, bounds)]
        nlanes = np.array([2], dtype=np.int64)
        for lane, own, bits in ((0, 46.0, 1), (0, 46.5, 0), (1, 50.0, 2), (1, 49.5, 0)):
            assert lane_options_py(0, lane, 2, own, 4.0, gptrs, bptrs, pos) == bits
            assert _lane_options(
                backend, 0, lane, own, 4.0, edges, gptrs, bptrs, nlanes, pos) == bits


# ------------------------------------------------------- occupancy transitions
def _occupancy_tables(eng):
    """Everything an occupancy transition writes, in comparable form: each
    edge's live lane prefix, bounds, length, capacity and ranking, the
    occupied-lane counts and scan eligibility, the head flags of the slots
    on an edge and the resident columns ``occ_enter`` writes."""
    edges = []
    for ei, seg in enumerate(eng._segs):
        k = int(eng._lane_len[ei])
        ranking = eng._rank_store[ei][:k].tolist() if seg.lanes > 1 else None
        edges.append((eng._lane_store[ei][:k].tolist(), eng._bounds_np[ei].tolist(),
                      k, int(eng._lane_cap[ei]), ranking))
    on_edge = sorted(v.slot for v in eng._vehicles.values() if v.edge is not None)
    slots = sorted(v.slot for v in eng._vehicles.values())
    columns = (eng._pos, eng._speed, eng._freeflow, eng._seglen, eng._ml, eng._wait_flag)
    return dict(
        edges=edges,
        occ_lanes=eng._occ_lanes.tolist(),
        rank_elig=eng._rank_elig.tolist(),
        heads=eng._is_head[on_edge].tolist(),
        columns=[col[slots].tobytes() for col in columns],
    )


class _Twins:
    """A cc engine and a ``compiled=False`` engine on twin networks, driven
    through the same scripted transitions — ``_place``,
    ``_remove_from_edge`` and ``_apply_lane_moves`` — and compared after
    every one of them."""

    def __init__(self, lanes=2, seed=0):
        from repro.mobility.engine import TrafficEngine
        from repro.roadnet.builders import grid_network

        _cc_kernel()
        self.engines = [
            TrafficEngine(grid_network(2, 3, lanes=lanes), np.random.default_rng(seed),
                          compiled=compiled)
            for compiled in (True, False)
        ]
        assert [e.kernel_backend for e in self.engines] == ["cc", "numpy"]
        self.rngs = [np.random.default_rng(99) for _ in self.engines]
        self.check()

    @property
    def cc(self):
        return self.engines[0]

    def check(self):
        cc, ref = (_occupancy_tables(e) for e in self.engines)
        assert cc == ref

    def each(self, fn):
        out = [fn(eng) for eng in self.engines]
        self.check()
        return out[0]

    def spawn(self, speed=6.0, origin=(0, 0), destination=(1, 2)):
        """A vehicle entering at 0.0 m on its route's first edge; its vid."""
        from repro.mobility.demand import VehicleSpec
        from repro.roadnet.routing import FixedTripRouter
        from repro.surveillance.attributes import random_signature

        specs = iter([
            VehicleSpec(signature=random_signature(rng), desired_speed_mps=speed,
                        origin=origin, router=FixedTripRouter(eng.net, rng,
                                                              destination=destination))
            for eng, rng in zip(self.engines, self.rngs)
        ])
        return self.each(lambda eng: eng.spawn(next(specs))[0].vid)

    def edge_of(self, vid):
        eng = self.cc
        return eng._edge_order[eng._vehicles[vid].edge]

    def leave(self, vid):
        self.each(lambda eng: eng._remove_from_edge(eng._vehicles[vid]))

    def enter(self, vid, edge, pos):
        self.each(lambda eng: eng._place(eng._vehicles[vid], *edge, pos_m=pos))

    def relocate(self, vid, edge, pos):
        self.leave(vid)
        self.enter(vid, edge, pos)

    def move(self, vid, target):
        self.each(lambda eng: eng._apply_lane_moves(
            self.edge_of(vid), [(eng._vehicles[vid], target)]))

    def lanes(self, ei):
        """Edge ``ei``'s lanes on the cc engine, as vid lists."""
        eng = self.cc
        bounds = eng._bounds_np[ei].tolist()
        slots = eng._lane_store[ei]
        return [eng._vid[slots[lo:hi]].tolist() for lo, hi in zip(bounds, bounds[1:])]

    def ranking(self, ei):
        eng = self.cc
        return eng._vid[eng._rank_store[ei][:eng._lane_len[ei]]].tolist()


#: The first edge of every ``_Twins.spawn`` route from (0, 0) to (1, 2).
_FIRST = ((0, 0), (0, 1))


class TestOccupancyTransitions:
    """cc's ``occ_enter``/``occ_leave``/``occ_lane_move`` against the NumPy
    splice pair, bit for bit, after every transition.  Skipped where cc
    does not load."""

    @pytest.mark.parametrize("lanes", [1, 2, 3])
    def test_simultaneous_entries_tie_at_zero(self, lanes, occupancy_state_check):
        twins = _Twins(lanes)
        vids = [twins.spawn(speed=4.0 + i) for i in range(7)]
        ei = twins.edge_of(vids[0])
        # all seven tie at 0.0 m, so vid orders each lane and the ranking
        assert sorted(v for lane in twins.lanes(ei) for v in lane) == vids
        for lane in twins.lanes(ei):
            assert lane == sorted(lane)
        if lanes > 1:
            assert twins.ranking(ei) == vids
        for eng in twins.engines:
            occupancy_state_check(eng)

    def test_unsorted_ranking_follows_bisect_probes(self):
        # TestOneLaneTie's set-up: engine seed 0 puts both on lane 1, and
        # the faster, lower-vid leader pulls away inside the skipped scan.
        twins = _Twins(2, seed=0)
        lead, back = twins.spawn(speed=6.0), twins.spawn(speed=3.0)
        twins.each(lambda eng: eng.step())
        ei = twins.edge_of(lead)
        assert twins.lanes(ei) == [[], [lead, back]]
        assert twins.ranking(ei) == [lead, back]  # unsorted: lead is ahead
        pos = twins.cc._pos
        p_lead = float(pos[twins.cc._vehicles[lead].slot])
        p_back = float(pos[twins.cc._vehicles[back].slot])
        assert p_lead > p_back
        # bisect_right's first probe is ``back``, so a slot between the two
        # lands last, where a scan for the first larger key would put it first
        mid = twins.spawn(speed=5.0)
        twins.relocate(mid, _FIRST, (p_lead + p_back) / 2)
        assert twins.ranking(ei) == [lead, back, mid]

    def test_leaving_mid_ranking(self, occupancy_state_check):
        twins = _Twins(2)
        vids = [twins.spawn() for _ in range(6)]
        for i, vid in enumerate(vids):
            twins.relocate(vid, _FIRST, 40.0 - 5.0 * i)
        ei = twins.edge_of(vids[0])
        assert twins.ranking(ei) == vids[::-1]
        elsewhere = ((1, 0), (1, 1))
        for vid in (vids[3], vids[5], vids[0]):  # middle, first and last entry
            twins.leave(vid)
            twins.enter(vid, elsewhere, 10.0)
        for eng in twins.engines:
            occupancy_state_check(eng)

    def test_lane_emptied_and_refilled(self):
        twins = _Twins(2)
        vids = [twins.spawn() for _ in range(4)]
        ei = twins.edge_of(vids[0])
        lanes = twins.lanes(ei)
        assert all(lanes), "both lanes must start occupied"
        for vid in lanes[0]:
            twins.move(vid, 1)
        assert twins.cc._occ_lanes[ei] == 1 and twins.cc._rank_elig[ei] == 0
        twins.move(lanes[0][0], 0)
        assert twins.cc._occ_lanes[ei] == 2 and twins.cc._rank_elig[ei] == 1
        for vid in twins.lanes(ei)[1]:
            twins.leave(vid)
        assert twins.cc._occ_lanes[ei] == 1 and twins.cc._rank_elig[ei] == 0
        twins.enter(lanes[1][0], _FIRST, 0.0)
        twins.enter(lanes[1][-1], _FIRST, 0.0)

    def test_full_edge_refuses_entry_then_grows(self):
        twins = _Twins(2)
        vids = [twins.spawn() for _ in range(4)]
        eng = twins.cc
        ei = twins.edge_of(vids[0])
        assert eng._lane_len[ei] == eng._lane_cap[ei] == 4

        def everything():
            arrays = [eng._pos, eng._speed, eng._freeflow, eng._seglen, eng._ml,
                      eng._wait_flag, eng._is_head, eng._lane_ptr, eng._rank_ptr,
                      eng._lane_len, eng._lane_cap, eng._occ_lanes, eng._rank_elig,
                      eng._lane_store[ei], eng._rank_store[ei], eng._bounds_np[ei]]
            return [a.tobytes() for a in arrays]

        before = everything()
        free_slot = eng._capacity - 1
        assert eng._slot_vehicle[free_slot] is None
        assert eng._kernel.occ_enter_bound(ei, 0, free_slot, 1.0, 2.0, 3.0, 50.0) == -1
        assert everything() == before
        twins.spawn()
        assert eng._lane_len[ei] == 5 and eng._lane_cap[ei] == 8

    def test_resident_growth_rebuilds_the_tables(self, occupancy_state_check):
        twins = _Twins(2)
        tables = twins.cc._kernel._tables
        vids = [twins.spawn(origin=origin, destination=(1, 2) if origin != (1, 2) else (0, 0))
                for _ in range(14) for origin in ((0, 0), (0, 1), (0, 2), (1, 0), (1, 2))]
        eng = twins.cc
        assert eng._capacity > 64
        assert eng._kernel._tables is not tables
        assert eng._kernel._tables.pos == eng._pos.ctypes.data
        for vid in vids[::9]:
            twins.relocate(vid, _FIRST, 20.0)
        for eng in twins.engines:
            occupancy_state_check(eng)

    def test_walk_matches_on_keys_tied_in_position_and_vid(self):
        """The C lane walk is the Python walk on any input, even keys tied
        on position *and* vid, which only a direct write can make."""
        twins = _Twins(2, seed=1)
        a, b = twins.spawn(), twins.spawn()
        ei = twins.edge_of(a)
        assert twins.lanes(ei) == [[a], [b]]

        def tie(eng):
            va, vb = eng._vehicles[a], eng._vehicles[b]
            eng._vid[va.slot] = vb.vid

        twins.each(tie)
        twins.move(a, 1)
        twins.move(a, 0)


# ------------------------------------------------------------ fallback
@pytest.fixture
def fresh_loader(monkeypatch):
    """A loader that has not resolved yet in this process; the real
    outcome is restored afterwards."""
    monkeypatch.setattr(kernels, "_RESOLVED", None)
    return monkeypatch


@pytest.fixture
def build_tmp(fresh_loader, tmp_path):
    """A fresh loader whose builds go to an empty temp dir of their own."""
    root = tmp_path / "tmp"
    root.mkdir()
    fresh_loader.setattr(tempfile, "tempdir", str(root))
    return root


def _assert_no_build_left(build_tmp, record):
    """The build removed its directory itself, not a finalizer at exit."""
    assert list(build_tmp.glob("repro-kernel-*")) == []
    assert not [w for w in record if issubclass(w.category, ResourceWarning)]


def _engine(compiled=True):
    from repro.mobility.engine import TrafficEngine
    from repro.roadnet.builders import grid_network

    return TrafficEngine(grid_network(3, 3, lanes=2), np.random.default_rng(3),
                         compiled=compiled)


def _stepped(engine_seed, demand_seed, compiled=True):
    """An engine on its own two-lane 3×3 grid, stepped 200 times from an
    initial fleet: its event stream, final stats and final vehicle states."""
    from repro.mobility.demand import DemandConfig, DemandModel
    from repro.mobility.engine import TrafficEngine
    from repro.roadnet.builders import grid_network

    net = grid_network(3, 3, lanes=2)
    eng = TrafficEngine(net, np.random.default_rng(engine_seed), compiled=compiled)
    dm = DemandModel(net, DemandConfig(volume_fraction=0.7),
                     np.random.default_rng(demand_seed))
    eng.spawn_initial(dm.initial_fleet())
    log = []
    for _ in range(200):
        log.extend(repr(e) for e in eng.step())
    return log, eng.stats, [
        (v.vid, v.edge, v.lane, v.pos_m.hex(), v.speed_mps.hex())
        for v in sorted(eng.vehicles.values(), key=lambda v: v.vid)
    ]


def _script(tmp_path, name, body):
    """An executable shell script standing in for the C compiler."""
    path = tmp_path / name
    path.write_text("#!/bin/sh\n" + body)
    path.chmod(path.stat().st_mode | stat.S_IXUSR)
    return str(path)


class TestFallback:
    def test_no_compiler_on_path(self, fresh_loader):
        fresh_loader.setattr(kernels.shutil, "which", lambda name: None)
        assert available_backends() == []
        with pytest.warns(RuntimeWarning, match="no C compiler on PATH"):
            assert load_step_kernel(**PARAMS) is None
        assert "no C compiler on PATH" in fallback_reason()

    def test_engine_falls_back_to_numpy_and_warns_once_with_reason(self, fresh_loader):
        fresh_loader.setattr(kernels.shutil, "which", lambda name: None)
        with pytest.warns(RuntimeWarning, match="no C compiler on PATH"):
            eng = _engine()
        assert eng.kernel_backend == "numpy"
        assert "no C compiler on PATH" in eng.kernel_fallback_reason
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a second warning would raise
            assert _engine().kernel_backend == "numpy"

    def test_unusable_temp_dir(self, fresh_loader, tmp_path):
        # A path below a regular file can hold no build directory for any
        # user (a read-only directory would not stop root).
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        fresh_loader.setattr(kernels.shutil, "which", lambda name: "/usr/bin/cc")
        fresh_loader.setattr(tempfile, "tempdir", str(blocker / "tmp"))
        with pytest.warns(RuntimeWarning, match="cannot create a build directory"):
            eng = _engine()
        assert eng.kernel_backend == "numpy"
        assert str(blocker / "tmp") in fallback_reason()

    def test_compiler_failure_records_exit_status_and_stderr(
        self, fresh_loader, build_tmp, tmp_path
    ):
        cc = _script(tmp_path, "cc", "echo 'kernel.c:1: fatal error: no stdint.h' >&2\nexit 3\n")
        fresh_loader.setattr(kernels.shutil, "which", lambda name: cc)
        with pytest.warns(RuntimeWarning, match="exited with status 3") as record:
            assert _engine().kernel_backend == "numpy"
        assert "fatal error: no stdint.h" in fallback_reason()
        _assert_no_build_left(build_tmp, record)

    def test_unloadable_library_records_load_error(self, fresh_loader, build_tmp, tmp_path):
        # "Compiles" by writing a non-ELF file to the -o target.
        cc = _script(tmp_path, "cc", 'for last; do :; done\necho garbage > "$last"\n')
        fresh_loader.setattr(kernels.shutil, "which", lambda name: cc)
        with pytest.warns(RuntimeWarning, match="cannot load") as record:
            assert _engine().kernel_backend == "numpy"
        assert available_backends() == []
        assert str(build_tmp) in fallback_reason()
        _assert_no_build_left(build_tmp, record)

    def test_engine_compiled_request_falls_back_transparently(self, fresh_loader):
        """``compiled=True`` on a compiler-less host must run the NumPy path
        and still produce the identical event stream."""
        fresh_loader.setattr(kernels.shutil, "which", lambda name: None)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            requested = _stepped(3, 4, compiled=True)
        assert requested[0], "scenario produced no events — not a real check"
        assert requested == _stepped(3, 4, compiled=False)

    def test_backend_names(self):
        from repro.mobility.engine import TrafficEngine
        from repro.roadnet.builders import grid_network

        scalar = TrafficEngine(grid_network(3, 3), np.random.default_rng(0), vectorized=False)
        assert scalar.kernel_backend == "scalar"
        assert "vectorized=False" in scalar.kernel_fallback_reason
        numpy_engine = _engine(compiled=False)
        assert numpy_engine.kernel_backend == "numpy"
        assert numpy_engine.kernel_fallback_reason == "compiled=False"

    def test_available_backends_reports_this_environment(self):
        # Load-bearing: on any host with a system C compiler the cc kernel
        # must actually build and load, and the default engine must use it.
        if _has_compiler():
            assert available_backends() == ["cc"], fallback_reason()
            assert _engine().kernel_backend == "cc"
            assert fallback_reason() is None
        else:
            assert available_backends() == []


class TestBuildDirectory:
    """A successful build removes its directory before it is published; a
    failed one is covered in ``TestFallback``."""

    def test_successful_build_leaves_nothing_and_the_kernel_runs(self, build_tmp):
        if not _has_compiler():
            pytest.skip("no C compiler on PATH")
        slots = np.array([7, 5, 6], dtype=np.int64)
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            kernel, arrays = _bound(
                3, 2, lane_ptr=np.array([0, slots.ctypes.data], dtype=np.int64),
                lane_len=np.array([0, 3], dtype=np.int64),
            )
            # the library's file is gone; its mapping is not
            assert kernel.gather_bound() == 3
        assert arrays["idx_buf"].tolist() == [7, 5, 6]
        _assert_no_build_left(build_tmp, record)

    def test_dev_mode_reports_no_resource_warning(self):
        import repro

        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        code = (
            "import numpy as np\n"
            "from repro.mobility.engine import TrafficEngine\n"
            "from repro.roadnet.builders import grid_network\n"
            "TrafficEngine(grid_network(3, 3, lanes=2), np.random.default_rng(0))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-X", "dev", "-W", "error::ResourceWarning", "-c", code],
            capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=path),
        )
        assert proc.returncode == 0, proc.stderr
        assert "ResourceWarning" not in proc.stderr, proc.stderr


class TestConcurrentFirstBuild:
    THREADS = 6  # more than the cores of a typical CI runner

    def test_engines_built_during_the_build_all_load_cc(self, fresh_loader):
        """Engines constructed on other threads while the first build runs
        must wait for it, not fall back to NumPy because it is unfinished."""
        if not _has_compiler():
            pytest.skip("no C compiler on PATH")
        from repro.mobility.engine import TrafficEngine
        from repro.roadnet.builders import grid_network

        nets = [grid_network(3, 3, lanes=2) for _ in range(self.THREADS)]
        barrier = threading.Barrier(self.THREADS, timeout=60)
        loaded = [None] * self.THREADS

        def build(i):
            barrier.wait()
            eng = TrafficEngine(nets[i], np.random.default_rng(i), compiled=True)
            loaded[i] = eng.kernel_backend

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)  # no fallback at all
                threads = [threading.Thread(target=build, args=(i,))
                           for i in range(self.THREADS)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert loaded == ["cc"] * self.THREADS

    def test_child_forked_mid_build_resolves_for_itself(self, fresh_loader):
        """A fork taken while another thread holds the build lock (a
        parallel sweep starting beside a first run) must not leave the
        child waiting on a lock nobody will release."""
        if not hasattr(os, "fork"):
            pytest.skip("no fork on this platform")
        fresh_loader.setattr(kernels.shutil, "which", lambda name: None)

        def child():
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                os._exit(0 if kernels.available_backends() == [] else 1)

        ctx = multiprocessing.get_context("fork")
        with kernels._LOCK:  # a build in progress on this thread
            proc = ctx.Process(target=child)
            proc.start()
        proc.join(timeout=60)
        alive = proc.is_alive()
        if alive:
            proc.kill()
            proc.join(timeout=10)
        assert not alive, "forked child deadlocked on the inherited build lock"
        assert proc.exitcode == 0


class TestHoldsTheGil:
    """Every entry point runs with the GIL held (the library is a
    ``ctypes.PyDLL``), and engines stepping on several threads at a short
    switch interval still produce what each produces alone."""

    THREADS = 6  # more than the cores of a typical CI runner

    def test_every_entry_point_keeps_the_gil(self):
        if not available_backends():
            pytest.skip(f"cc kernel unavailable here: {fallback_reason()}")
        lib = kernels._resolve().lib
        released = [name for name in lib._fields
                    if not getattr(lib, name)._flags_ & ctypes._FUNCFLAG_PYTHONAPI]
        assert released == []

    def test_threads_stepping_at_a_short_switch_interval_match_solo_runs(self):
        if not available_backends():
            pytest.skip(f"cc kernel unavailable here: {fallback_reason()}")
        solo = [_stepped(i, 1000 + i) for i in range(self.THREADS)]
        assert all(run[0] for run in solo), "a run produced no events — not a real check"
        assert solo[0] != solo[1], "the seeds do not give distinct runs"
        threaded = [None] * self.THREADS
        barrier = threading.Barrier(self.THREADS, timeout=60)

        def run(i):
            barrier.wait()
            threaded[i] = _stepped(i, 1000 + i)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=run, args=(i,)) for i in range(self.THREADS)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert threaded == solo
