"""The compiled step kernel vs. its pure-Python oracles, and its loader.

:mod:`repro.mobility.kernels` ships executable specifications
(``advance_chain_py`` and friends) and one compiled backend, cc.  When it
loads here it must reproduce the oracles *bit for bit* on randomized
inputs — positions and speeds compared with ``array_equal`` (which
distinguishes ``-0.0`` from ``0.0`` via the follow-up sign check), never
``allclose``.  ``gather_all`` and the C routines inside the two passes
(the lane pass's candidate predicate and lane viability check, the
overtake pass's ranking scan) are checked against their oracles through
the entry points that run them.  The kernel has one calling convention,
the engine's: every entry point takes one struct (``tables`` in C,
``_Tables`` in Python, whose layouts ``TestTablesLayout`` holds equal),
filled once by ``StepKernel.bind``, so each call passes only what varies.
Every test binds its own arrays through :func:`_bound`, which zero-fills
every array it is not given and gives the eleven model scalars distinct
values, so a swapped scalar changes an oracle comparison.  The engine's
compiler-less lane viability check (``lane_options_np``) is held to the
same ``lane_options`` oracle, so it runs on every host.  The lane and
transit passes draw from the engine generator's bit generator in C;
``TestBridge`` pins the NumPy behaviour that makes those draws the
``Generator`` methods' own, the capsule address the kernel binds and the
re-entrant lock the engine holds around both backends' passes, without a
compiler, and ``TestLaneDraw`` the rejection loop through a scripted
``bitgen_t``.  The transit pass (whose static helpers
``occ_enter``/``occ_leave`` do the splices), the admission pass and the
lane and overtake passes are held to their NumPy twins, the engine's
``*_np`` methods, instead: a cc engine and a ``compiled=False`` engine go
through the same scripted entries, exits, lane moves, passes and steps,
each through its own passes, and every table either writes, every event
and the generator's state must be equal after each one.  Every entry
point keeps the GIL (the library is a ``ctypes.PyDLL``): one test reads
each symbol's flags, and another steps cc engines on six threads at a
10 µs switch interval against the same seeds stepped alone.

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

from repro.mobility import engine as engine_module
from repro.mobility import kernels
from repro.mobility.kernels import (
    advance_chain_py,
    available_backends,
    fallback_reason,
    lane_change_candidates_py,
    lane_options_np,
    lane_options_py,
    load_step_kernel,
    rank_scan_all_py,
)
from repro.roadnet.builders import grid_network, line_network, ring_network

#: Model parameters whose seven derived struct scalars (dt 0.5, accel_dt
#: 1.0, decel_dt 2.25, denom 0.8, 4.5, 2.0, 0.6) differ from each other and
#: from the four in ``LANE_CHANGE``.
PARAMS = dict(
    dt_s=0.5,
    max_accel_mps2=2.0,
    max_decel_mps2=4.5,
    headway_s=1.2,
    vehicle_length_m=4.5,
    min_gap_m=2.0,
    arrival_eps_m=0.6,
)
LANE_CHANGE = dict(blocked_m=12.0, gain_mps=1.25, gap_half_m=3.0, politeness=0.35)


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
#: gather-aligned ones are ``n_slots`` long (the row buffers ``n_slots``
#: rows of their width), edge-indexed ones ``n_edges`` and node-indexed
#: ones ``n_nodes`` (``node_buf`` rows of two, ``out_start`` one more,
#: ``route_table`` its square); ``route_pool`` is ``n_slots`` long and
#: ``decide_state`` five cells.
_SLOT_ARRAYS = dict(
    idx_buf=np.intp, pos=np.float64, speed=np.float64, freeflow=np.float64,
    seglen=np.float64, since=np.float64, desired=np.float64, vid=np.int64, seq=np.int64,
    heads=np.uint8, waitflag=np.uint8, multilane=np.uint8, newly_buf=bool, cand_buf=bool,
    order_buf=np.int64, kind=np.uint8, plan_cur=np.int64, plan_end=np.int64,
    exit_node=np.int64, route_pool=np.int64,
)
_ROW_ARRAYS = dict(moves_buf=3, pairs_buf=3, cands_buf=3, rows_buf=6)
_EDGE_ARRAYS = dict(
    lane_ptr=np.int64, lane_len=np.int64, bounds_ptr=np.int64, rank_ptr=np.int64,
    rank_elig=np.uint8, nlanes=np.int64, lane_cap=np.int64, occ_lanes=np.int64,
    head_node=np.int64, edge_len=np.float64, edge_limit=np.float64, edge_tail=np.int64,
    out_node=np.int64, out_edge=np.int64,
)
_NODE_ARRAYS = dict(delay=np.float64, adm=np.int64, gate_out=np.uint8)


def _bound(n_slots=1, n_edges=1, n_nodes=1, *, bit_generator=None,
           route_bit_generator=None, **given):
    """The cc kernel bound to the ``given`` arrays and model scalars (by
    default ``LANE_CHANGE``'s), every other array zero-filled (the
    admission pass's ``node_mark`` -1-filled, as it must be between calls),
    drawing from ``bit_generator`` and ``route_bit_generator`` (by default
    fresh ones).

    Returns the kernel and every bound array by name.  The kernel holds raw
    addresses, so the caller keeps the arrays alive while it calls.  Every
    address and count must come out set, and the default model scalars
    distinct.
    """
    kernel = _cc_kernel()
    scalars = {name: given.pop(name, value) for name, value in LANE_CHANGE.items()}
    arrays = {name: np.zeros(n_slots, dtype) for name, dtype in _SLOT_ARRAYS.items()}
    arrays.update({name: np.zeros((n_slots, w), np.int64) for name, w in _ROW_ARRAYS.items()})
    arrays.update({name: np.zeros(n_edges, dtype) for name, dtype in _EDGE_ARRAYS.items()})
    arrays.update({name: np.zeros(n_nodes, dtype) for name, dtype in _NODE_ARRAYS.items()})
    arrays.update(node_mark=np.full(n_nodes, -1, np.int64),
                  node_buf=np.zeros((n_nodes, 2), np.int64),
                  out_start=np.zeros(n_nodes + 1, np.int64),
                  route_table=np.zeros(n_nodes * n_nodes, np.int64),
                  decide_state=np.zeros(5, np.int64))
    arrays.update(given)
    if bit_generator is None:
        bit_generator = np.random.PCG64(0)
    if route_bit_generator is None:
        route_bit_generator = np.random.PCG64(1)
    kernel.bind(**arrays, bit_generator=bit_generator,
                route_bit_generator=route_bit_generator, **scalars)
    fields = kernel._tables._fields_
    assert len(fields) == len(arrays) + 2 + 3 + 11  # two bitgens, three counts, scalars
    assert all(getattr(kernel._tables, name) for name, kind in fields
               if kind is not ctypes.c_double)
    doubles = [getattr(kernel._tables, name) for name, kind in fields
               if kind is ctypes.c_double]
    assert len(doubles) == 11, doubles
    if scalars == LANE_CHANGE:
        assert all(doubles) and len(set(doubles)) == 11, doubles
    assert kernel._tables.n_edges == n_edges
    assert kernel._tables.n_nodes == arrays["gate_out"].shape[0]
    assert kernel._tables.pair_cap == arrays["pairs_buf"].shape[0]
    assert kernel._tables.bitgen == kernels.bitgen_address(bit_generator)
    assert kernel._tables.route_bitgen == kernels.bitgen_address(route_bit_generator)
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


def _c_struct_fields(name="tables"):
    """The declarators of the C struct typedef'd as ``name``, in order, as
    ``(name, kind)`` pairs, the kind being ``pointer``, ``int64_t`` or
    ``double`` (a function pointer is a ``pointer``)."""
    body = re.search(r"typedef struct \{([^{}]*)\} %s;" % name, kernels._C_SOURCE).group(1)
    body = re.sub(r"\(\*(\w+)\)\([^)]*\)", r"*\1", body)  # ret (*f)(args) -> ret *f
    fields = []
    for decl in filter(None, (d.strip() for d in body.split(";"))):
        m = re.fullmatch(
            r"(?:const\s+)?(unsigned char|u?int\d+_t|double|void|bitgen_t)\s+(.+)", decl, re.S)
        assert m, decl
        for declarator in m.group(2).split(","):
            star, field = re.fullmatch(r"\s*(\*?)\s*(\w+)\s*", declarator).groups()
            fields.append((field, "pointer" if star else m.group(1)))
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


def _state(bits):
    """A bit generator's state in a form ``==`` compares (Philox's holds
    arrays)."""
    def plain(value):
        if isinstance(value, dict):
            return {key: plain(item) for key, item in value.items()}
        return value.tolist() if isinstance(value, np.ndarray) else value
    return plain(bits.state)


def _lemire(next_uint32, bound):
    """``Generator.integers(bound)`` for ``1 <= bound < 2**32`` as NumPy
    draws it: Lemire's multiply-and-reject on 32-bit draws, none at all for
    ``bound == 1``."""
    if bound == 1:
        return 0
    m = next_uint32() * bound
    if m & 0xFFFFFFFF < bound:
        threshold = (0xFFFFFFFF - (bound - 1)) % bound
        while m & 0xFFFFFFFF < threshold:
            m = next_uint32() * bound
    return m >> 32


class TestBridge:
    """The NumPy behaviour the draws of the lane and transit passes rely
    on.  C calls the generator's ``bitgen_t`` function pointers, which
    ``BitGenerator.ctypes`` exposes to Python too, so this runs on every
    host: one of two same-seeded generators draws through ``Generator``,
    the other through the pointers, interleaved, and their states must end
    equal.  Bounds run to 8: a tabular network may have more than 4 lanes,
    and ``Generator.integers`` rejects draws at bounds 3, 5, 6 and 7."""

    @pytest.mark.parametrize("make", [
        lambda seed: np.random.PCG64(seed),
        lambda seed: np.random.Philox(seed + 7),
    ], ids=["pcg64", "philox"])
    def test_pointer_draws_are_the_generator_methods(self, make):
        plans = np.random.default_rng(2024)
        for seed in range(100):
            gen, bits = np.random.Generator(make(seed)), make(seed)
            iface = bits.ctypes
            state = iface.state
            for bound in plans.integers(0, 9, 200).tolist():
                if bound == 0:
                    assert iface.next_double(state) == gen.random()
                else:
                    drawn = _lemire(lambda: iface.next_uint32(state), bound)
                    assert drawn == gen.integers(bound), (seed, bound)
            assert _state(bits) == _state(gen.bit_generator), seed

    def test_the_c_bitgen_t_is_numpys_layout(self):
        """Read through the C ``bitgen_t`` declaration, a bit generator's
        struct holds the addresses its ``ctypes`` interface reports, so C
        calls the very functions the test above pins."""
        fields = _c_struct_fields("bitgen_t")
        assert [kind for _, kind in fields] == ["pointer"] * len(fields)
        layout = type("BitgenT", (ctypes.Structure,),
                      {"_fields_": [(name, ctypes.c_void_p) for name, _ in fields]})
        for bits in (np.random.PCG64(1), np.random.Philox(7)):
            iface = bits.ctypes
            struct = layout.from_address(iface.bit_generator.value)
            assert struct.state == iface.state.value
            for name in ("next_uint64", "next_uint32", "next_double"):
                address = ctypes.cast(getattr(iface, name), ctypes.c_void_p).value
                assert getattr(struct, name) == address, name

    @pytest.mark.parametrize("make", [np.random.PCG64, np.random.Philox], ids=["pcg64", "philox"])
    def test_capsule_gives_the_ctypes_address(self, make):
        """``StepKernel.bind`` reads the ``bitgen_t`` address from the bit
        generator's capsule, which needs no ctypes interface; it is the
        address that interface reports."""
        for seed in range(3):
            bits = make(seed)
            assert kernels.bitgen_address(bits) == bits.ctypes.bit_generator.value

    @pytest.mark.parametrize("make", [np.random.PCG64, np.random.Philox], ids=["pcg64", "philox"])
    def test_generator_methods_draw_under_the_held_lock(self, make):
        """The engine holds its bit generator's ``lock`` across the lane and
        transit passes, and the NumPy passes draw through ``Generator``
        methods, which take that lock again: it must be re-entrant, and
        the draws made under it the ones made without it.  They run in a
        worker thread joined with a timeout, so a lock that is not
        re-entrant fails here instead of hanging the suite."""
        free, held = np.random.Generator(make(3)), np.random.Generator(make(3))
        expect = [(free.random(), int(free.integers(3))) for _ in range(50)]
        got = []

        def draw():
            with held.bit_generator.lock:
                got.extend((held.random(), int(held.integers(3))) for _ in range(50))

        worker = threading.Thread(target=draw, daemon=True)
        worker.start()
        worker.join(timeout=30)
        assert not worker.is_alive(), "a Generator method blocked on the held lock"
        assert got == expect
        assert _state(held.bit_generator) == _state(free.bit_generator)


class TestAdvanceChain:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_cc_matches_oracle_bitwise(self, seed):
        """Positions, speeds, the arrival mask and the waiting marks: an
        arrival's ``waitflag`` is set and its ``since`` is ``now``."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 60))
        idx, pos, speed, freeflow, seglen, heads, waitflag = _chain_inputs(rng, n)
        now = float(rng.uniform(0.0, 500.0))
        newly_a = np.zeros(n, dtype=bool)
        newly_b = np.zeros(n, dtype=bool)
        pos_a, speed_a = pos.copy(), speed.copy()
        pos_b, speed_b = pos.copy(), speed.copy()
        since = rng.uniform(0.0, 100.0, n)
        since_a, since_b = since.copy(), since.copy()
        wait_a, wait_b = waitflag.astype(np.uint8), waitflag.astype(np.uint8)
        ref = advance_chain_py(
            idx, pos_a, speed_a, freeflow, seglen, heads.astype(np.uint8),
            wait_a, since_a, newly_a, now, *_advance_args(),
        )
        kernel, _ = _bound(
            n, idx_buf=idx, pos=pos_b, speed=speed_b, freeflow=freeflow, seglen=seglen,
            heads=heads.astype(np.uint8), waitflag=wait_b, since=since_b,
            newly_buf=newly_b,
        )
        got = kernel.advance_bound(n, now)
        assert got == ref
        assert np.array_equal(pos_a, pos_b)
        assert np.array_equal(speed_a, speed_b)
        # -0.0 vs 0.0 would pass array_equal; the sign bits must agree too
        # (the scalar engine's max(0.0, -0.0) contract).
        assert np.array_equal(np.signbit(speed_a), np.signbit(speed_b))
        assert np.array_equal(newly_a, newly_b)
        assert np.array_equal(wait_a, wait_b) and np.array_equal(since_a, since_b)
        arrived = idx[newly_a]
        assert ref and arrived.size == ref, "no arrivals — not a real check"
        assert not waitflag[arrived].any() and wait_a[arrived].all()
        expect = since.copy()
        expect[arrived] = now
        assert np.array_equal(since_a, expect)
        assert np.array_equal(wait_a.astype(bool), waitflag | np.isin(np.arange(n), arrived))

    def test_empty_chain(self):
        kernel, _ = _bound()
        assert kernel.advance_bound(0, 1.5) == 0


class TestLaneChangeCandidates:
    """The lane pass's blocked-follower predicate against its oracle.  The
    gather is one edge's single lane, so each candidate draws its politeness
    veto and then finds no neighbour lane: the pass moves nothing and draws
    one double per candidate."""

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
        assert ref, "no candidates — not a real check"
        lane = idx.astype(np.int64)
        bounds = np.array([0, n], dtype=np.int64)
        bits, twin = np.random.PCG64(seed), np.random.Generator(np.random.PCG64(seed))
        kernel, _ = _bound(
            n, idx_buf=idx, pos=pos, speed=speed, desired=desired,
            multilane=multilane, heads=heads, cand_buf=cand_b,
            lane_ptr=np.array([lane.ctypes.data]), bounds_ptr=np.array([bounds.ctypes.data]),
            lane_len=np.array([n]), nlanes=np.array([1]), bit_generator=bits,
        )
        assert kernel.lane_pass_bound(n) == 0
        assert np.array_equal(cand_a, cand_b)
        twin.random(ref)
        assert _state(bits) == _state(twin.bit_generator)


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
    def test_c_matches_concatenation(self, seed):
        """cc's gather walks every edge and concatenates the live prefixes
        in edge order, as ``_gather_np``'s ``np.concatenate`` does,
        skipping empty edges, allocated (address set, length 0, like an
        edge that has emptied) or not (address 0)."""
        rng = np.random.default_rng(seed)
        n_edges = 10
        keep, ptrs, lens = _edge_tables(rng, n_edges, 30)
        lens = np.minimum(lens, rng.integers(0, 7, n_edges))  # live prefixes
        emptied = rng.permutation(n_edges)[:3]
        lens[emptied] = 0
        ptrs[emptied[0]] = 0
        assert (lens == 0).sum() >= 3 and (ptrs[lens == 0] != 0).any()
        cap = int(lens.sum()) + 1
        out = np.zeros(cap, dtype=np.intp)
        kernel, _ = _bound(cap, n_edges, idx_buf=out, lane_ptr=ptrs, lane_len=lens)
        got = kernel.gather_bound()
        assert got == int(lens.sum())
        expect = np.concatenate([keep[e][:lens[e]] for e in range(n_edges)])
        assert np.array_equal(out[:got], expect)


def _rank_scan(elig, ptrs, lens, pos, vid):
    """The oracle's flags, checked against the edges cc's overtake pass
    reports pairs on, on the same tables.  The pass must also leave every
    flagged ranking sorted, so a second call reports nothing."""
    n_edges = elig.shape[0]
    flags = np.zeros(n_edges, dtype=np.uint8)
    ref = rank_scan_all_py(elig, ptrs, lens, pos, vid, flags)
    pairs = np.zeros((int((lens * lens).sum()) + 1, 3), dtype=np.int64)
    kernel, _ = _bound(
        pos.shape[0], n_edges, pos=pos, vid=vid, rank_ptr=ptrs, lane_len=lens,
        rank_elig=elig, pairs_buf=pairs,
    )
    got = kernel.overtake_bound()
    assert got >= 0
    reported = np.zeros(n_edges, dtype=np.uint8)
    reported[pairs[:got, 0]] = 1
    assert np.array_equal(reported, flags) and int(reported.sum()) == ref
    for e in np.flatnonzero(flags).tolist():
        ranking = kernels._deref_i64(int(ptrs[e]), int(lens[e]))
        keys = list(zip(pos[ranking].tolist(), vid[ranking].tolist()))
        assert keys == sorted(keys), e
    assert kernel.overtake_bound() == 0
    return flags


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


def _lane_options_cc(e, lane, own, half, edges, nlanes, pos):
    """cc's viability bits for a candidate at ``own`` in ``lane`` of edge
    ``e``, read back from the lane pass.

    The pass runs on one edge with ``edges[e]``'s lanes, plus a slow leader
    and the candidate put at the front of ``lane``, and at politeness 0,
    so the candidate always asks for a lane.  Bits 0 leave it in place; 1
    and 2 move it up or down without a tie draw; 3 moves it as the tie
    draw says.  The generator must have drawn exactly that.
    """
    slots, bounds = edges[e]
    nl = int(nlanes[e])
    lead, cand = pos.shape[0], pos.shape[0] + 1
    front = int(bounds[lane])
    table = np.concatenate([slots[:front], [lead, cand], slots[front:bounds[nl]]])
    table = table.astype(np.int64)
    shifted = bounds.copy()
    shifted[lane + 1:] += 2
    n_slots, n = pos.shape[0] + 2, table.shape[0]
    columns = dict(pos=np.concatenate([pos, [own + 1.0, own]]), speed=np.zeros(n_slots),
                   desired=np.zeros(n_slots), multilane=np.zeros(n_slots, np.uint8))
    columns["desired"][cand] = 100.0
    columns["multilane"][cand] = 1
    bits, twin = np.random.PCG64(e), np.random.Generator(np.random.PCG64(e))
    idx = np.zeros(n_slots, dtype=np.intp)  # the gather: this one edge
    idx[:n] = table
    kernel, arrays = _bound(
        n_slots, 1, idx_buf=idx, **columns, lane_ptr=np.array([table.ctypes.data]),
        bounds_ptr=np.array([shifted.ctypes.data]), lane_len=np.array([n]),
        nlanes=np.array([nl]), gap_half_m=half, politeness=0.0, bit_generator=bits,
    )
    moved = kernel.lane_pass_bound(n)
    twin.random()
    if moved == 0:
        ret = 0
    else:
        assert moved == 1
        slot, frm, to = arrays["moves_buf"][0].tolist()
        assert (slot, frm) == (cand, lane) and to in (lane - 1, lane + 1)
        if _state(bits) == _state(twin.bit_generator):
            ret = 1 if to == lane + 1 else 2
        else:
            assert to == (lane + 1 if twin.integers(2) == 0 else lane - 1)
            ret = 3
    assert _state(bits) == _state(twin.bit_generator)
    return ret


def _lane_options(backend, e, lane, own, half, edges, gptrs, bptrs, nlanes, pos):
    """One viability implementation: cc through the lane pass, NumPy on
    edge ``e``'s ``(slots, bounds)`` arrays from ``edges`` and its lane
    count from ``nlanes`` (``gptrs``/``bptrs`` address the same arrays, for
    the oracle)."""
    if backend == "cc":
        return _lane_options_cc(e, lane, own, half, edges, nlanes, pos)
    slots, bounds = edges[e]
    return lane_options_np(lane, int(nlanes[e]), own, half, slots, bounds, pos)


class TestLaneOptions:
    """cc (inside the lane pass) and the NumPy check against the oracle;
    only cc may skip."""

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
    on an edge, the resident columns an entry writes (and ``_since``, which
    the advance does), every vehicle's lane and the engine generator's
    state."""
    edges = []
    for ei, seg in enumerate(eng._segs):
        k = int(eng._lane_len[ei])
        ranking = eng._rank_store[ei][:k].tolist() if seg.lanes > 1 else None
        edges.append((eng._lane_store[ei][:k].tolist(), eng._bounds_np[ei].tolist(),
                      k, int(eng._lane_cap[ei]), ranking))
    on_edge = sorted(v.slot for v in eng._vehicles.values() if v.edge is not None)
    slots = sorted(v.slot for v in eng._vehicles.values())
    columns = (eng._pos, eng._speed, eng._freeflow, eng._seglen, eng._seq, eng._ml,
               eng._wait_flag, eng._since)
    return dict(
        edges=edges,
        occ_lanes=eng._occ_lanes.tolist(),
        rank_elig=eng._rank_elig.tolist(),
        heads=eng._is_head[on_edge].tolist(),
        columns=[col[slots].tobytes() for col in columns],
        lanes=sorted((v.vid, v.lane) for v in eng._vehicles.values()),
        rng=_state(eng.rng.bit_generator),
    )


class _Twins:
    """A cc engine and a ``compiled=False`` engine on twin networks, driven
    through the same scripted transitions — leaves and entries, lane moves,
    the passes and whole steps — and compared after every one of them.  A
    leave or an entry runs the engine's Python half (an entry's
    ``_place``), then one transition row (``_transit``) through the
    engine's own transit pass, cc's or NumPy's: a leave is a row with no
    target, an entry a row with no source.  A scripted lane move
    (:meth:`move`) is the NumPy splice pair on both engines: cc moves lanes
    only inside its lane pass, which :meth:`step` runs.  With ``compiled=
    (False,)`` the NumPy engine runs alone, on hosts without a compiler
    too."""

    def __init__(self, lanes=2, seed=0, politeness=None, compiled=(True, False)):
        from repro.mobility.car_following import LaneChangeModel
        from repro.mobility.engine import TrafficEngine
        from repro.roadnet.builders import grid_network

        if compiled[0]:
            _cc_kernel()
        model = {} if politeness is None else dict(politeness=politeness)
        self.engines = [
            TrafficEngine(grid_network(2, 3, lanes=lanes), np.random.default_rng(seed),
                          compiled=flag, lane_change=LaneChangeModel(**model))
            for flag in compiled
        ]
        assert [e.kernel_backend for e in self.engines] == [
            "cc" if flag else "numpy" for flag in compiled]
        self.rngs = [np.random.default_rng(99) for _ in self.engines]
        self.check()

    @property
    def cc(self):
        return self.engines[0]

    def check(self):
        first, *others = (_occupancy_tables(e) for e in self.engines)
        assert all(other == first for other in others)

    def each(self, fn, both=False):
        out = [fn(eng) for eng in self.engines]
        self.check()
        return out if both else out[0]

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
        def run(eng):
            vehicle = eng._vehicles[vid]
            src = eng._edge_order[vehicle.edge]
            eng._transit(vehicle, src, -1, -1)
        self.each(run)

    def enter(self, vid, edge, pos):
        def run(eng):
            vehicle = eng._vehicles[vid]
            eng._transit(vehicle, -1, *eng._place(vehicle, *edge, pos_m=pos))
        self.each(run)

    def relocate(self, vid, edge, pos):
        self.leave(vid)
        self.enter(vid, edge, pos)

    def move(self, vid, target):
        self.each(lambda eng: eng._apply_lane_moves(
            self.edge_of(vid), [(eng._vehicles[vid], target)]))

    def put(self, vid, edge, lane, pos):
        """Move vehicle ``vid`` to ``pos`` in ``lane`` of ``edge``."""
        self.relocate(vid, edge, pos)
        if self.cc._vehicles[vid].lane != lane:
            self.move(vid, lane)

    def step(self):
        """One engine step on both; the events, as (kind, edge, vids)."""
        logs = self.each(lambda eng: [_event_key(e) for e in eng.step()], both=True)
        assert all(log == logs[0] for log in logs)
        return logs[0]

    def overtakes(self):
        """One overtake pass on both, outside a step; its events."""
        def run(eng):
            events = []
            eng._detect_overtakes_fast(events)
            return [_event_key(e) for e in events]
        logs = self.each(run, both=True)
        assert all(log == logs[0] for log in logs)
        return logs[0]

    def lanes(self, ei):
        """Edge ``ei``'s lanes on the cc engine, as vid lists."""
        eng = self.cc
        bounds = eng._bounds_np[ei].tolist()
        slots = eng._lane_store[ei]
        return [eng._vid[slots[lo:hi]].tolist() for lo, hi in zip(bounds, bounds[1:])]

    def ranking(self, ei):
        eng = self.cc
        return eng._vid[eng._rank_store[ei][:eng._lane_len[ei]]].tolist()


def _event_key(event):
    """An engine event as its kind, edge or node, and vids, in a form ``==``
    compares across engines."""
    if type(event).__name__ == "OvertakeEvent":
        return ("overtake", event.edge, event.passer.vid, event.passee.vid)
    return (type(event).__name__, event.vehicle.vid, getattr(event, "node", None))


#: The first edge of every ``_Twins.spawn`` route from (0, 0) to (1, 2).
_FIRST = ((0, 0), (0, 1))


class TestOccupancyTransitions:
    """cc's transitions (rows of its transit pass) against the NumPy splice
    pair, bit for bit, after every transition.  Skipped where cc does not
    load."""

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
            arrays = [eng._pos, eng._speed, eng._freeflow, eng._seglen, eng._seq, eng._ml,
                      eng._wait_flag, eng._is_head, eng._lane_ptr, eng._rank_ptr,
                      eng._lane_len, eng._lane_cap, eng._occ_lanes, eng._rank_elig,
                      eng._lane_store[ei], eng._rank_store[ei], eng._bounds_np[ei]]
            return [a.tobytes() for a in arrays]

        before = everything()
        state = _state(eng.rng.bit_generator)
        free_slot = eng._capacity - 1
        assert eng._slot_vehicle[free_slot] is None
        eng._rows_buf[0] = (free_slot, -1, 0, -1, ei, 99)  # a spawn row
        assert eng._kernel.transit_bound(0, 1) == ~0
        assert everything() == before and _state(eng.rng.bit_generator) == state
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
        on position *and* vid, which only a direct write can make: ``a``,
        given ``b``'s vid, re-enters at ``b``'s position until it lands in
        ``b``'s lane."""
        twins = _Twins(2, seed=1)
        a, b = twins.spawn(), twins.spawn()
        ei = twins.edge_of(a)
        assert twins.lanes(ei) == [[a], [b]]

        def tie(eng):
            va, vb = eng._vehicles[a], eng._vehicles[b]
            eng._vid[va.slot] = vb.vid

        twins.each(tie)
        eng = twins.cc
        for _ in range(20):
            twins.relocate(a, _FIRST, 0.0)
            if eng._vehicles[a].lane == 1:
                break
        assert eng._vehicles[a].lane == 1
        slots = [eng._vehicles[vid].slot for vid in (a, b)]
        assert eng._lane_store[ei][:2].tolist() == slots


class TestLanePass:
    """cc's ``lane_change_pass`` against the NumPy pass, through an engine
    step on twin engines.  A slow leader and a fast follower 10 m behind it
    sit on edge 0 in lane 1, where both neighbour lanes are free, and on
    edge 10 in lane 0, where only lane 1 is; a lone vehicle on edge 4 lies
    between them in the gather.  At politeness 1 both followers are
    vetoed; at politeness 0 the first draws its tie and the second moves
    up.  The pass must draw what the ``Generator`` methods would."""

    @pytest.mark.parametrize("politeness", [0.0, 1.0])
    def test_two_candidates_on_two_edges(self, politeness):
        twins = _Twins(3, politeness=politeness)
        scene = []
        for edge, lane in ((((0, 0), (0, 1)), 1), (((1, 0), (1, 1)), 0)):
            leader, follower = twins.spawn(speed=4.0), twins.spawn(speed=12.0)
            twins.put(leader, edge, lane, 30.0)
            twins.put(follower, edge, lane, 20.0)
            scene.append((lane, follower))
        twins.put(twins.spawn(), ((0, 1), (0, 2)), 0, 50.0)
        eng = twins.cc
        assert [twins.edge_of(follower) for _, follower in scene] == [0, 10]
        expect = np.random.Generator(np.random.PCG64())
        expect.bit_generator.state = eng.rng.bit_generator.state
        assert twins.step() == []
        for lane, follower in scene:
            if expect.random() < politeness:
                target = lane
            elif lane == 1:
                target = lane + 1 if expect.integers(2) == 0 else lane - 1
            else:
                target = lane + 1
            assert eng._vehicles[follower].lane == target
        assert _state(eng.rng.bit_generator) == _state(expect.bit_generator)


class TestOvertakePass:
    """cc's ``overtake_pass`` against ``_overtake_pass_np`` on twin
    engines.  Both order an edge's pairs by ``_seq``, so they do not check
    that order independently: ``test_occupancy_order_matches_reference``
    in ``test_mobility_engine.py`` holds ``_seq`` order to the reference
    engine's ``_occupancy`` lists."""

    def test_pairs_come_out_in_placement_order(self):
        """``x`` passes ``z`` and ``y``, which entered before and after it:
        the pairs follow the edge's placement order, z, x, y, which cc and
        NumPy both read from ``_seq``, not the vid order x, y, z."""
        self._pull_ahead(_Twins(3))

    def test_numpy_pairs_come_out_in_placement_order(self):
        """The same on the NumPy engine alone, so that a host without a
        compiler checks its pair order too (the golden traces never reach
        two flipped pairs whose placement and vid orders differ)."""
        self._pull_ahead(_Twins(3, compiled=(False,)))

    @staticmethod
    def _pull_ahead(twins):
        x, y, z = (twins.spawn() for _ in range(3))
        edge = ((1, 0), (1, 1))
        for vid, lane, pos in ((z, 0, 40.0), (x, 1, 20.0), (y, 2, 30.0)):
            twins.put(vid, edge, lane, pos)
        assert twins.overtakes() == []

        def pull_ahead(eng):
            eng._pos[eng._vehicles[x].slot] = 50.0

        twins.each(pull_ahead)
        assert twins.overtakes() == [("overtake", edge, x, z), ("overtake", edge, x, y)]

    def test_pairs_outnumbering_the_buffer_all_come_out(self):
        """Sixteen vehicles on edge 10, lanes 0, 1 and 2 front to back,
        reverse their lane blocks at once: 85 pairs, more than the 64 rows a
        64-slot fleet starts with.  One pair on edge 0 comes first, so the
        pass stops after writing it, and carries on after the buffer
        grows."""
        twins = _Twins(3)
        small, big = ((0, 0), (0, 1)), ((1, 0), (1, 1))
        pair = [twins.spawn() for _ in range(2)]
        for lane, vid in enumerate(pair):
            twins.put(vid, small, lane, 60.0 - 10.0 * lane)
        blocks = [[twins.spawn(origin=(1, 0)) for _ in range(size)] for size in (6, 5, 5)]
        front = 150.0
        for lane, block in enumerate(blocks):
            for vid in block:
                twins.put(vid, big, lane, front)
                front -= 8.0
        assert twins.overtakes() == []
        cc = twins.cc
        rows = cc._pairs_buf.shape[0]
        assert rows == cc._capacity == 64

        def reverse(eng):
            slot = {vid: eng._vehicles[vid].slot for vid in pair + sum(blocks, [])}
            eng._pos[[slot[vid] for vid in pair]] = [50.0, 60.0]
            spots = iter(np.arange(150.0, 0.0, -8.0).tolist())
            for block in blocks[::-1]:
                for vid in block:
                    eng._pos[slot[vid]] = next(spots)

        twins.each(reverse)
        events = twins.overtakes()
        assert events[0] == ("overtake", small, pair[1], pair[0])
        assert len(events) == 1 + 6 * 5 + 6 * 5 + 5 * 5 > rows
        assert cc._pairs_buf.shape[0] > rows
        assert twins.overtakes() == []


def _recorded_admissions(eng):
    """Record the rows each call of the engine's admission pass writes,
    (slot, edge, lane, node) in order, each of which must name its
    vehicle's edge and lane; returns the list it fills, a list of rows per
    call.  Install it after the last spawn: growing the fleet re-binds
    cc's passes over it."""
    calls = []
    admit = eng._admit_pass

    def recorded(now):
        m = admit(now)
        rows = [tuple(row[:4]) for row in eng._rows_buf[:m].tolist()]
        for slot, edge, lane, _ in rows:
            vehicle = eng._slot_vehicle[slot]
            assert (edge, lane) == (eng._edge_order[vehicle.edge], vehicle.lane)
        calls.append(rows)
        return m

    eng._admit_pass = recorded
    return calls


class TestAdmitPass:
    """cc's ``admit_pass`` against ``_admit_pass_np`` on twin engines,
    row for row, and the steps around it.  Three-lane
    approaches into (1, 1) hold four heads at the stop line, more than its
    override's cap of 2, all arriving in one step, so only their vids order
    them, and the vids run against the pass's edge-and-lane scan; (0, 1),
    at the default policy, sees two heads; (0, 2) has an override with a
    longer delay.  A second wave reaches (1, 1) one step later with lower
    vids, so (since, vid) puts it behind the first."""

    POLICIES = {(1, 1): (2, 0.5), (0, 2): (3, 1.5)}

    def test_admission_order_matches_numpy(self):
        from repro.mobility.intersections import IntersectionPolicy

        twins = _Twins(3)
        for eng in twins.engines:
            for node, (adm, delay) in self.POLICIES.items():
                eng.set_intersection_policy(node, IntersectionPolicy(adm, delay))
        eng = twins.cc
        spots = {  # approach edge -> lanes with a head at the stop line
            ((1, 2), (1, 1)): (0, 1, 2), ((0, 1), (1, 1)): (1,),
            ((0, 0), (0, 1)): (0,), ((1, 1), (0, 1)): (2,),
            ((1, 2), (0, 2)): (0, 2),
        }
        first = sorted(((eng._edge_order[edge], lane, edge) for edge, lanes in spots.items()
                        for lane in lanes), reverse=True)  # highest vid scanned first
        second = [((1, 0), (1, 1)), ((0, 1), (1, 1))]
        wave2 = [twins.spawn() for _ in second]
        wave1 = [twins.spawn() for _ in first]
        assert max(wave2) < min(wave1)
        for vid, (_, lane, edge) in zip(wave1, first):
            twins.put(vid, edge, lane, eng._segments[edge].length_m)
        admitted = [_recorded_admissions(e) for e in twins.engines]
        crossed = []
        for step in range(4):
            if step == 1:
                for vid, edge in zip(wave2, second):
                    twins.put(vid, edge, 0, eng._segments[edge].length_m)
            crossed.append([event[1:] for event in twins.step()
                            if event[0] == "CrossingEvent"])
            assert admitted[0][-1] == admitted[1][-1], step
        assert all(admitted[0][:3])
        into = [[vid for vid, node in step if node == (1, 1)] for step in crossed]
        # the first wave's four heads, by vid although scanned the other
        # way, two a step; then the second wave, whose heads came later
        by_scan = [vid for vid, (_, _, edge) in sorted(zip(wave1, first), key=lambda x: x[1][:2])
                   if edge[1] == (1, 1)]
        assert by_scan == sorted(by_scan, reverse=True) and len(by_scan) == 4
        assert into[:3] == [sorted(by_scan)[:2], sorted(by_scan)[2:], sorted(wave2)]
        assert {node for step in crossed for _, node in step} >= {(1, 1), (0, 1), (0, 2)}
        assert (eng._node_mark == -1).all()  # the pass's scratch, reset


def _scripted_batch(twins, script):
    """One batch of transitions on both engines: ``script`` holds (vid,
    leaves, enters) rows, ``enters`` an (edge, pos) pair or None.  Each
    engine runs every row's Python half in order, then all the rows in one
    ``_run_rows`` through its own transit pass, whose returns are recorded
    and returned, cc's first."""

    def run(eng):
        rows, moved, log = [], [], []
        for vid, leaves, enters in script:
            vehicle = eng._vehicles[vid]
            src = eng._edge_order[vehicle.edge] if leaves else -1
            lane = vehicle.lane
            ei, seq = eng._place(vehicle, *enters[0], pos_m=enters[1]) if enters else (-1, -1)
            if src < 0:
                eng._pos[vehicle.slot] = vehicle.pos_m
            rows.append((vehicle.slot, src, lane, -1, ei, seq))
            moved.append(vehicle)
        eng._rows_buf[:len(rows)] = rows
        transit = eng._transit_pass

        def recorded(start, m):
            log.append(transit(start, m))
            return log[-1]

        eng._transit_pass = recorded
        try:
            eng._run_rows(0, len(rows))
        finally:
            eng._transit_pass = transit
        for vehicle, lane in zip(moved, eng._rows_buf[:len(rows), 2].tolist()):
            vehicle.lane = lane
        return log

    return twins.each(run, both=True)


class TestTransitPass:
    """cc's ``transit_pass`` against ``_transit_pass_np`` on twin engines:
    one batch of crossing, exit and spawn rows whose target edge fills up
    mid-batch.  cc refuses a full edge, and the engine grows it and
    resumes; NumPy grows it in place."""

    def test_full_target_mid_batch_grows_and_resumes(self, occupancy_state_check):
        twins = _Twins(3)
        eng = twins.cc
        target, elsewhere = ((1, 0), (1, 1)), ((0, 1), (0, 2))
        vids = [twins.spawn() for _ in range(8)]
        for i, vid in enumerate(vids[:3]):
            twins.relocate(vid, target, 30.0 - 5.0 * i)
        ei = eng._edge_order[target]
        assert (eng._lane_len[ei], eng._lane_cap[ei]) == (3, 4)
        spawned = vids[7]
        twins.leave(spawned)
        script = [
            (vids[3], True, (target, 0.0)),    # fills the target
            (vids[4], True, (target, 0.0)),    # finds it full: ~1, then resumes
            (vids[5], True, None),             # an exit row
            (spawned, False, (elsewhere, 12.5)),  # a spawn row, onto an edge
            (vids[6], True, (target, 0.0)),       # with no buffer yet: ~3
        ]
        assert eng._lane_cap[eng._edge_order[elsewhere]] == 0
        assert _scripted_batch(twins, script) == [[~1, ~3, 5], [5]]
        assert (eng._lane_len[ei], eng._lane_cap[ei]) == (6, 8)
        assert eng._pos[eng._vehicles[spawned].slot] == 12.5
        assert eng._vehicles[spawned].edge == elsewhere
        twins.enter(vids[5], elsewhere, 40.0)  # the exited vehicle, back on the road
        for _ in range(3):
            twins.step()
            for e in twins.engines:
                occupancy_state_check(e)


class _ScriptedBits(ctypes.Structure):
    """A ``bitgen_t`` built from ctypes callbacks, whose ``next_uint32``
    returns scripted values and whose other draws must not be called."""

    _fields_ = [
        ("state", ctypes.c_void_p),
        ("next_uint64", ctypes.CFUNCTYPE(ctypes.c_uint64, ctypes.c_void_p)),
        ("next_uint32", ctypes.CFUNCTYPE(ctypes.c_uint32, ctypes.c_void_p)),
        ("next_double", ctypes.CFUNCTYPE(ctypes.c_double, ctypes.c_void_p)),
        ("next_raw", ctypes.CFUNCTYPE(ctypes.c_uint64, ctypes.c_void_p)),
    ]

    def __init__(self, values):
        self.values, self.drawn, self.misused = list(values), 0, []

        def next_uint32(_state):
            self.drawn += 1
            return self.values[self.drawn - 1]

        def misuse(name):
            def draw(_state):
                self.misused.append(name)
                return 0
            return draw

        kinds = dict(self._fields_)
        super().__init__(None, *(
            kinds[name](next_uint32 if name == "next_uint32" else misuse(name))
            for name in ("next_uint64", "next_uint32", "next_double", "next_raw")
        ))


class TestLaneDraw:
    """The transit pass draws a multilane entry's lane as
    ``Generator.integers(nlanes)`` does, rejection loop included.  A
    scripted ``bitgen_t`` whose first ``next_uint32`` is 0 makes the Lemire
    step reject at the bounds whose threshold is non-zero (3, 5, 6, 7);
    the lane must be :func:`_lemire`'s and the draw count its too."""

    @pytest.mark.parametrize("nlanes", range(2, 9))
    def test_spawn_row_lane_is_lemire(self, nlanes):
        lane_buf, rank_buf = np.zeros(4, np.int64), np.zeros(4, np.int64)
        bounds = np.zeros(nlanes + 1, np.int64)
        values = [0, 0xC0000000, 0x40000000]
        kernel, arrays = _bound(
            1, lane_ptr=np.array([lane_buf.ctypes.data]),
            rank_ptr=np.array([rank_buf.ctypes.data]),
            bounds_ptr=np.array([bounds.ctypes.data]), nlanes=np.array([nlanes]),
            lane_cap=np.array([4]), edge_len=np.array([80.0]), edge_limit=np.array([12.0]),
            desired=np.array([9.0]), pos=np.array([20.0]),
        )
        bits = _ScriptedBits(values)
        kernel._tables.bitgen = ctypes.addressof(bits)
        arrays["rows_buf"][0] = (0, -1, 0, -1, 0, 7)
        assert kernel.transit_bound(0, 1) == 1
        script = iter(values)
        expect = _lemire(lambda: next(script), nlanes)
        lane = int(arrays["rows_buf"][0, 2])
        assert lane == expect and bits.drawn == len(values) - sum(1 for _ in script)
        assert bits.drawn == (2 if nlanes in (3, 5, 6, 7) else 1) and not bits.misused
        assert lane_buf[0] == 0 and bounds.tolist() == [0] * (lane + 1) + [1] * (nlanes - lane)
        assert arrays["pos"][0] == 20.0 and arrays["speed"][0] == 4.5
        assert (arrays["freeflow"][0], arrays["seglen"][0], arrays["seq"][0]) == (9.0, 80.0, 7)


# ------------------------------------------------------------ decision pass
#: The engine's router kinds, and why the pass hands a row back.
OTHER, TRIP, WAYPOINT, TURN = (engine_module._KIND_OTHER, engine_module._KIND_TRIP,
                               engine_module._KIND_WAYPOINT, engine_module._KIND_TURN)
WHY = dict(router=engine_module._WHY_ROUTER, install=engine_module._WHY_INSTALL,
           exit=engine_module._WHY_EXIT, trip=engine_module._WHY_TRIP,
           miss=engine_module._WHY_MISS, no_route=engine_module._WHY_NO_ROUTE)


class _Decisions:
    """A cc engine and a ``compiled=False`` engine on twin networks, each
    with a routing generator of the same seed bound, given scripted route
    state (slot kinds, resident plans, route-table entries) and admitted
    rows, which each engine's own decision pass decides.  After every call
    the rows, the pass's cells, the plans and the routing generator's state
    must be equal.  With ``compiled=(False,)`` the NumPy engine runs alone,
    on hosts without a compiler too."""

    SEED = 7

    def __init__(self, make_net, compiled=(True, False)):
        from types import SimpleNamespace

        from repro.mobility.engine import TrafficEngine
        from repro.roadnet.routing import RandomWaypointRouter

        if compiled[0]:
            _cc_kernel()
        self.engines = [TrafficEngine(make_net(), np.random.default_rng(0), compiled=flag)
                        for flag in compiled]
        assert [e.kernel_backend for e in self.engines] == [
            "cc" if flag else "numpy" for flag in compiled]
        for eng in self.engines:
            router = RandomWaypointRouter(eng.net, np.random.default_rng(self.SEED))
            assert eng._router_kind(SimpleNamespace(router=router, is_patrol=False)) == WAYPOINT
        self.eng = self.engines[0]
        self.net = self.eng.net

    def edge(self, tail, head):
        return self.eng._edge_order[(tail, head)]

    def slot(self, slot, kind, plan=None, exits_at=None):
        """Give slot ``slot`` router kind ``kind`` and, unless ``plan`` is
        None (no plan installed), the resident plan ``plan`` (nodes)."""
        for eng in self.engines:
            eng._kind[slot] = kind
            eng._exit_node[slot] = -1 if exits_at is None else eng._node_index[exits_at]
            cur = end = -1 if plan is None else 0
            if plan:
                cur = eng._store_route(plan) + 1
                end = cur + len(plan)
            eng._plan_cur[slot], eng._plan_end[slot] = cur, end

    def routes(self, origin):
        """Fill every route-table entry from ``origin`` as the engine does."""
        for eng in self.engines:
            o = eng._node_index[origin]
            for d in range(eng._n_nodes):
                if d != o:
                    eng._resolve_route(o, d)

    def rows(self, *rows):
        """Admitted rows, each ``(slot, (tail, node))``: the slot waits on
        segment ``(tail, node)``."""
        for eng in self.engines:
            for i, (slot, (tail, node)) in enumerate(rows):
                eng._rows_buf[i] = (slot, eng._edge_order[(tail, node)], 0,
                                    eng._node_index[node], -1, -1)

    def plan(self, slot):
        """Slot ``slot``'s resident plan, as nodes."""
        eng = self.eng
        cur, end = int(eng._plan_cur[slot]), int(eng._plan_end[slot])
        return [eng._nodes[i] for i in eng._route_pool[cur:end].tolist()]

    def decide(self, start, m):
        """Each engine's decision pass over rows ``start`` ..
        ``start + m - 1``; returns their common result."""
        got, seen = [], []
        for eng in self.engines:
            with eng._route_lock:
                got.append(eng._decide_pass(start, m))
            seen.append((
                eng._rows_buf[:start + m].tolist(), eng._decide_state.tolist(),
                [self.plan(slot) for slot in range(8) if eng._plan_cur[slot] >= 0],
                eng._plan_cur.tolist(), _state(eng._route_rng.bit_generator),
            ))
        assert all(g == got[0] for g in got) and all(s == seen[0] for s in seen)
        return got[0]

    def why(self):
        """Why the last call handed its row back."""
        return int(self.eng._decide_state[engine_module._WHY])

    def replay(self):
        """A generator of the routing generator's seed, for the routers'
        own decisions."""
        return np.random.default_rng(self.SEED)

    def drawn_like(self, rng):
        assert _state(self.eng._route_rng.bit_generator) == _state(rng.bit_generator)


def _backends():
    return [(True, False)] if available_backends() else [(False,)]


class TestDecidePass:
    """cc's ``decide_pass`` against ``_decide_pass_np`` on scripted rows,
    and both against the routers of :mod:`repro.roadnet.routing`, which
    define what a crossing decides: the target edge must be the router's
    next hop, the resident plan its plan, and the routing generator's state
    the state the router leaves.  Where cc does not load, the NumPy twin
    runs alone against the routers."""

    @pytest.fixture(params=_backends(), ids=lambda c: "cc+numpy" if c[0] else "numpy")
    def compiled(self, request):
        return request.param

    def test_plan_hops_take_the_next_node(self, compiled):
        rig = _Decisions(lambda: grid_network(3, 3), compiled)
        rig.slot(0, TRIP, [(1, 2), (2, 2)], exits_at=(2, 2))
        rig.slot(1, WAYPOINT, [(0, 1)])
        rig.rows((0, ((1, 0), (1, 1))), (1, ((1, 0), (0, 0))))
        assert rig.decide(0, 2) == 2
        rows = rig.eng._rows_buf[:2].tolist()
        assert [row[4:] for row in rows] == [[rig.edge((1, 1), (1, 2)), 0],
                                            [rig.edge((0, 0), (0, 1)), 1]]
        assert (rig.plan(0), rig.plan(1)) == ([(2, 2)], [])
        rig.drawn_like(rig.replay())  # nothing drawn

    def test_plan_node_with_no_segment_replans(self, compiled):
        from repro.roadnet.routing import RandomWaypointRouter, RoutePlan

        rig = _Decisions(lambda: grid_network(3, 3), compiled)
        rig.routes((1, 1))
        rig.slot(0, WAYPOINT, [(2, 2), (2, 1)])
        rig.rows((0, ((1, 0), (1, 1))))
        assert rig.decide(0, 1) == 1
        rng = rig.replay()
        plan = RoutePlan(waypoints=[(2, 2), (2, 1)])
        hop = RandomWaypointRouter(rig.net, rng).next_hop((1, 1), plan, previous=(1, 0))
        assert rig.eng._rows_buf[0, 4] == rig.edge((1, 1), hop)
        assert rig.plan(0) == plan.waypoints
        rig.drawn_like(rng)

    @pytest.mark.parametrize("make, arrive, options", [
        (lambda: line_network(3), (1, 2), 1),  # a dead end: only the U-turn
        (lambda: ring_network(5, one_way=True), (0, 1), 1),  # one way on
        (lambda: grid_network(3, 3), ((1, 0), (1, 1)), 3),  # a 3-way turn
    ], ids=["uturn-only", "single-option", "three-way"])
    def test_random_turn_is_the_routers(self, compiled, make, arrive, options):
        from repro.roadnet.routing import RandomTurnRouter, RoutePlan

        rig = _Decisions(make, compiled)
        rig.slot(0, TURN)
        rig.rows((0, arrive))
        assert rig.decide(0, 1) == 1
        rng = rig.replay()
        tail, node = arrive
        hop = RandomTurnRouter(rig.net, rng).next_hop(node, RoutePlan(), previous=tail)
        assert rig.eng._rows_buf[0, 4] == rig.edge(node, hop)
        rig.drawn_like(rng)
        untouched = _state(rig.replay().bit_generator)
        assert (untouched == _state(rng.bit_generator)) == (options == 1)

    def test_route_table_miss_resumes_with_the_stashed_draw(self, compiled):
        from repro.roadnet.routing import RandomTurnRouter, RandomWaypointRouter, RoutePlan

        rig = _Decisions(lambda: grid_network(3, 3), compiled)
        rig.slot(0, TRIP, [(1, 2)])
        rig.slot(1, WAYPOINT, [])
        rig.slot(2, TURN)
        rig.rows((0, ((1, 0), (1, 1))), (1, ((0, 1), (0, 2))), (2, ((2, 1), (1, 1))))
        assert rig.decide(0, 3) == ~1 and rig.why() == WHY["miss"]
        state = rig.eng._decide_state
        assert state[engine_module._ROW] == 1 and 0 <= state[engine_module._ATTEMPT] < 16
        for eng in rig.engines:  # what the engine does with a miss
            assert eng._decide_in_python(1) is True
        assert rig.decide(1, 2) == 3
        rng = rig.replay()
        plan = RoutePlan()
        hop = RandomWaypointRouter(rig.net, rng).next_hop((0, 2), plan, previous=(0, 1))
        turn = RandomTurnRouter(rig.net, rng).next_hop((1, 1), RoutePlan(), previous=(2, 1))
        assert rig.eng._rows_buf[:3, 4].tolist() == [
            rig.edge((1, 1), (1, 2)), rig.edge((0, 2), hop), rig.edge((1, 1), turn)]
        assert rig.eng._rows_buf[:3, 5].tolist() == [0, 1, 2]
        assert rig.plan(1) == plan.waypoints
        rig.drawn_like(rng)

    def test_sixteen_failed_draws_raise_as_plan_from_does(self, compiled, monkeypatch):
        from repro.errors import RoutingError
        from repro.roadnet import routing

        rig = _Decisions(lambda: grid_network(3, 3), compiled)
        for eng in rig.engines:  # nothing reachable from (1, 1)
            o = eng._node_index[(1, 1)]
            eng._route_table[o * eng._n_nodes:(o + 1) * eng._n_nodes] = -1
        rig.slot(0, WAYPOINT, [])
        rig.rows((0, ((1, 0), (1, 1))))
        assert rig.decide(0, 1) == ~0 and rig.why() == WHY["no_route"]
        for eng in rig.engines:
            with pytest.raises(RoutingError,
                               match=r"could not find any destination reachable from \(1, 1\)"):
                eng._decide_in_python(0)

        def unreachable(net, origin, destination):
            raise RoutingError(f"no route from {origin!r} to {destination!r}")

        monkeypatch.setattr(routing, "shortest_path", unreachable)
        rng = rig.replay()
        with pytest.raises(RoutingError, match=r"could not find any destination reachable"):
            routing.RandomWaypointRouter(rig.net, rng).plan_from((1, 1))
        rig.drawn_like(rng)

    def test_exit_install_and_other_routers_go_to_python(self, compiled):
        rig = _Decisions(lambda: grid_network(3, 3, gates_on_border=True), compiled)
        rig.slot(0, TRIP, [], exits_at=(0, 2))
        rig.slot(1, OTHER)
        rig.slot(2, TRIP)  # no plan installed yet
        rig.slot(3, TRIP, [], exits_at=(2, 2))  # a plan that ran out elsewhere
        rig.rows((0, ((0, 1), (0, 2))), (1, ((0, 1), (0, 2))), (2, ((0, 1), (0, 2))),
                 (3, ((0, 1), (0, 2))))
        for row, why in enumerate(("exit", "router", "install", "trip")):
            assert rig.decide(row, 4 - row) == ~row and rig.why() == WHY[why]
        rig.drawn_like(rig.replay())
        assert rig.eng._placements == 0

    def test_a_router_on_another_generator_is_decided_in_python(self, compiled):
        from types import SimpleNamespace

        from repro.roadnet.routing import RandomTurnRouter

        rig = _Decisions(lambda: grid_network(3, 3), compiled)
        for eng in rig.engines:
            same = RandomTurnRouter(eng.net, eng._route_rng)
            other = RandomTurnRouter(eng.net, np.random.default_rng(_Decisions.SEED))
            assert eng._router_kind(SimpleNamespace(router=same, is_patrol=False)) == TURN
            assert eng._router_kind(SimpleNamespace(router=other, is_patrol=False)) == OTHER
            assert eng._router_kind(SimpleNamespace(router=same, is_patrol=True)) == OTHER

    @pytest.mark.parametrize("shape, arrive", [
        ((3, 7), ((0, 0), (0, 1))),  # a replan over 21 nodes
        ((3, 3), ((1, 0), (1, 1))),  # a 3-way turn
    ], ids=["replan-21", "turn-3"])
    def test_rejection_draws_are_lemires(self, shape, arrive):
        rig = _Decisions(lambda: grid_network(*shape), compiled=(True,))
        eng = rig.eng
        tail, node = arrive
        n = eng._n_nodes if shape == (3, 7) else 3
        values = [0, 0xC0000000, 0x40000000]
        script = iter(values)
        pick = _lemire(lambda: next(script), n)
        drawn = len(values) - sum(1 for _ in script)
        if shape == (3, 7):
            assert eng._nodes[pick] != node
            rig.routes(node)
            rig.slot(0, WAYPOINT, [])
            route = rig.plan(0)
        else:
            rig.slot(0, TURN)
        rig.rows((0, arrive))
        bits = _ScriptedBits(values)
        eng._kernel._tables.route_bitgen = ctypes.addressof(bits)
        assert eng._kernel.decide_bound(0, 1) == 1
        assert bits.drawn == drawn == 2 and not bits.misused
        if shape == (3, 7):
            path = rig.net.route_cache()[(node, eng._nodes[pick])]
            assert eng._rows_buf[0, 4] == rig.edge(node, path[1])
            assert rig.plan(0) == list(path[2:])
        else:
            pool = [v for v in rig.net.outbound_neighbors(node) if v != tail]
            assert eng._rows_buf[0, 4] == rig.edge(node, pool[pick])


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

    def test_backend_names(self, monkeypatch):
        from repro.mobility import engine
        from repro.mobility.demand import DemandConfig, DemandModel
        from repro.mobility.reference import ReferenceEngine
        from repro.roadnet.builders import grid_network

        assert not isinstance(_engine(), ReferenceEngine)
        numpy_engine = _engine(compiled=False)
        assert not isinstance(numpy_engine, ReferenceEngine)
        assert numpy_engine.kernel_backend == "numpy"
        assert numpy_engine.kernel_fallback_reason == "compiled=False"

        def load_step_kernel(**params):
            raise AssertionError("the reference engine asked for the kernel")

        # The reference neither loads the kernel, even when asked to, nor
        # gives any vehicle a resident slot.
        monkeypatch.setattr(engine, "load_step_kernel", load_step_kernel)
        net = grid_network(3, 3, lanes=2)
        scalar = engine.TrafficEngine(
            net, np.random.default_rng(0), vectorized=False, compiled=True
        )
        assert isinstance(scalar, ReferenceEngine)
        assert scalar.kernel_backend == "scalar"
        assert "vectorized=False" in scalar.kernel_fallback_reason
        demand = DemandModel(net, DemandConfig(volume_fraction=0.7), np.random.default_rng(1))
        scalar.spawn_initial(demand.initial_fleet())
        for _ in range(50):
            scalar.step()
        assert scalar.stats.crossings > 0
        assert {v.slot for v in scalar.iter_active()} == {-1}

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
        assert sorted(lib._fields) == sorted(name for name, _ in kernels._SYMBOLS)
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
