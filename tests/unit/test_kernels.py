"""The compiled step kernel vs. its pure-Python oracles, and its loader.

:mod:`repro.mobility.kernels` ships executable specifications
(``advance_chain_py`` and friends) and one compiled backend, cc.  When it
loads here it must reproduce the oracles *bit for bit* on randomized
inputs — positions and speeds compared with ``array_equal`` (which
distinguishes ``-0.0`` from ``0.0`` via the follow-up sign check), never
``allclose``.  The pointer-table sweeps (``gather_all`` / ``rank_scan_all``
/ ``lane_options``) are checked against their ctypes-dereferencing
oracles; the bound calling convention is checked against the explicit-arg
one on the same data.  The engine's compiler-less lane viability check
(``lane_options_np``) is held to the same ``lane_options`` oracle, so it
runs on every host.

When cc does not load, the loader must return ``None`` with a recorded
reason, the engine must run its NumPy path (``kernel_backend == "numpy"``)
and warn once with that reason.  The fallback tests below reset the
loader's per-process cache and break the build on purpose (no compiler on
``PATH``, a temp dir that cannot hold the build, a failing compiler, an
unloadable library), so every host exercises them; the race test builds
the kernel from several threads at once.
"""

from __future__ import annotations

import multiprocessing
import os
import shutil
import stat
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

PARAMS = dict(
    dt_s=0.5,
    max_accel_mps2=2.0,
    max_decel_mps2=4.0,
    headway_s=1.2,
    vehicle_length_m=4.5,
    min_gap_m=2.0,
    arrival_eps_m=0.5,
)


def _has_compiler():
    return bool(shutil.which("cc") or shutil.which("gcc"))


def _cc_kernel():
    """The cc kernel bound to ``PARAMS``, or skip where it does not load."""
    if not available_backends():
        pytest.skip(f"cc kernel unavailable here: {fallback_reason()}")
    kernel = load_step_kernel(**PARAMS)
    assert kernel is not None and kernel.backend == "cc"
    return kernel


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


class TestAdvanceChain:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_cc_matches_oracle_bitwise(self, seed):
        kernel = _cc_kernel()
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 60))
        idx, pos, speed, freeflow, seglen, heads, waitflag = _chain_inputs(rng, n)
        newly_a = np.zeros(n, dtype=bool)
        moved_a = np.zeros(n, dtype=bool)
        newly_b = np.zeros(n, dtype=bool)
        moved_b = np.zeros(n, dtype=bool)
        pos_a, speed_a = pos.copy(), speed.copy()
        pos_b, speed_b = pos.copy(), speed.copy()
        ref = advance_chain_py(
            idx, pos_a, speed_a, freeflow, seglen,
            heads.astype(np.uint8), waitflag.astype(np.uint8),
            newly_a, moved_a, *_advance_args(),
        )
        got = kernel.advance(
            idx, pos_b, speed_b, freeflow, seglen,
            heads.astype(np.uint8), waitflag.astype(np.uint8),
            newly_b, moved_b,
        )
        assert got == ref
        assert np.array_equal(pos_a, pos_b)
        assert np.array_equal(speed_a, speed_b)
        # -0.0 vs 0.0 would pass array_equal; the sign bits must agree too
        # (the scalar engine's max(0.0, -0.0) contract).
        assert np.array_equal(np.signbit(speed_a), np.signbit(speed_b))
        assert np.array_equal(newly_a, newly_b)
        assert np.array_equal(moved_a, moved_b)

    def test_empty_chain(self):
        kernel = _cc_kernel()
        empty = np.empty(0, dtype=np.intp)
        z = np.empty(0, dtype=np.uint8)
        f = np.empty(0, dtype=np.float64)
        assert kernel.advance(empty, f, f.copy(), f, f, z, z,
                              np.empty(0, dtype=bool), np.empty(0, dtype=bool)) == 0


class TestLaneChangeCandidates:
    @pytest.mark.parametrize("seed", [0, 7, 11])
    def test_cc_matches_oracle(self, seed):
        kernel = _cc_kernel()
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
            idx, pos, speed, desired, multilane, heads, cand_a, 12.0, 1.0
        )
        got = kernel.candidates(idx, pos, speed, desired, multilane, heads, cand_b, 12.0, 1.0)
        assert got == ref
        assert np.array_equal(cand_a, cand_b)


# ------------------------------------------------------------ pointer tables
def _edge_tables(rng, n_edges, n_slots):
    """Per-edge cached slot arrays plus their address/length tables.

    Returns the kept-alive array list alongside the tables — the oracle and
    the C sweep both read raw addresses, so the arrays must outlive the
    call exactly as the engine's per-edge caches do.
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
        kernel = _cc_kernel()
        rng = np.random.default_rng(seed)
        n_edges = 10
        keep, ptrs, lens = _edge_tables(rng, n_edges, 30)
        occ = rng.permutation(n_edges)[: int(rng.integers(1, n_edges))].astype(np.int64)
        cap = int(lens.sum()) + 1
        out_a = np.zeros(cap, dtype=np.int64)
        out_b = np.zeros(cap, dtype=np.int64)
        ref = gather_all_py(occ, ptrs, lens, out_a)
        got = kernel.gather_all(occ, ptrs, lens, out_b)
        assert got == ref
        assert np.array_equal(out_a[:ref], out_b[:ref])
        # the gather is the back-to-back concatenation in occ order
        expect = np.concatenate([keep[int(e)] for e in occ] or
                                [np.empty(0, dtype=np.int64)])
        assert np.array_equal(out_b[:got], expect)


class TestRankScanAll:
    @pytest.mark.parametrize("seed", [2, 13])
    def test_c_matches_oracle(self, seed):
        kernel = _cc_kernel()
        rng = np.random.default_rng(seed)
        n_edges, n_slots = 14, 40
        pos = rng.uniform(0.0, 50.0, n_slots).round(1)  # rounding makes ties
        keep = []
        ptrs_s = np.zeros(n_edges, dtype=np.int64)
        ptrs_v = np.zeros(n_edges, dtype=np.int64)
        lens = np.zeros(n_edges, dtype=np.int64)
        elig = (rng.random(n_edges) < 0.6).astype(np.uint8)
        for e in range(n_edges):
            k = int(rng.integers(0, 6))
            s = rng.integers(0, n_slots, k).astype(np.int64)
            v = rng.integers(0, 10_000, k).astype(np.int64)
            keep.append((s, v))
            ptrs_s[e], ptrs_v[e], lens[e] = s.ctypes.data, v.ctypes.data, k
        flags_a = np.zeros(n_edges, dtype=np.uint8)
        flags_b = np.zeros(n_edges, dtype=np.uint8)
        ref = rank_scan_all_py(elig, ptrs_s, ptrs_v, lens, pos, flags_a)
        got = kernel.rank_scan_all(elig, ptrs_s, ptrs_v, lens, pos, flags_b)
        assert got == ref
        assert np.array_equal(flags_a, flags_b)
        # ineligible edges must never be flagged
        assert not np.any(flags_b[elig == 0])


def _lane_options(backend, e, lane, nlanes, own, half, edges, gptrs, bptrs, pos):
    """One viability implementation: cc reads edge ``e`` through the pointer
    tables, NumPy takes its ``(slots, bounds)`` arrays from ``edges``."""
    if backend == "cc":
        return _cc_kernel().lane_options(e, lane, nlanes, own, half, gptrs, bptrs, pos)
    slots, bounds = edges[e]
    return lane_options_np(lane, nlanes, own, half, slots, bounds, pos)


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
        nlanes_by_edge = rng.integers(1, 4, n_edges)
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
            got = _lane_options(backend, e, lane, nlanes, own, half, keep, gptrs, bptrs, pos)
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
        assert _lane_options(backend, 0, 0, 1, 50.0, 4.0, edges, gptrs, bptrs, pos) == 0

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
        for lane, own, bits in ((0, 46.0, 1), (0, 46.5, 0), (1, 50.0, 2), (1, 49.5, 0)):
            assert lane_options_py(0, lane, 2, own, 4.0, gptrs, bptrs, pos) == bits
            assert _lane_options(backend, 0, lane, 2, own, 4.0, edges, gptrs, bptrs, pos) == bits


# ------------------------------------------------------- bound convention
def _bind(kernel, idx_buf, pos, speed, freeflow, seglen, heads, waitflag,
          newly_buf, moved_buf, desired, multilane, cand_buf, *,
          occ_buf, gather_ptr, gather_len, n_edges):
    """Bind with all-ineligible ranking tables and empty lane bounds."""
    flags_buf = np.zeros(n_edges, dtype=np.uint8)
    kernel.bind(
        idx_buf, pos, speed, freeflow, seglen, heads, waitflag,
        newly_buf, moved_buf, desired, multilane, cand_buf, 12.0, 1.0,
        flags_buf,
        occ_buf=occ_buf, gather_ptr=gather_ptr, gather_len=gather_len,
        rank_elig=np.zeros(n_edges, dtype=np.uint8),
        rank_ptr_s=gather_ptr.copy(), rank_ptr_v=gather_ptr.copy(),
        rank_len=np.zeros(n_edges, dtype=np.int64),
        bounds_ptr=np.zeros(n_edges, dtype=np.int64),
        gap_half_m=2.0,
    )
    return flags_buf


class TestBoundCalls:
    def test_bound_equals_explicit(self):
        """The once-bound count-only calls must equal the explicit-arg calls
        on identical data (same outputs, same in-place effects)."""
        kernel = _cc_kernel()
        rng = np.random.default_rng(42)
        n = 40
        idx, pos, speed, freeflow, seglen, heads, waitflag = _chain_inputs(rng, n)
        heads = heads.astype(np.uint8)
        waitflag = waitflag.astype(np.uint8)
        desired = rng.uniform(5.0, 15.0, n)
        multilane = (rng.random(n) < 0.7).astype(np.uint8)
        idx_buf = np.zeros(n, dtype=np.intp)
        idx_buf[:] = idx
        newly_buf = np.zeros(n, dtype=bool)
        moved_buf = np.zeros(n, dtype=bool)
        cand_buf = np.zeros(n, dtype=bool)
        pos_bound = pos.copy()
        speed_bound = speed.copy()
        _bind(
            kernel, idx_buf, pos_bound, speed_bound, freeflow, seglen, heads,
            waitflag, newly_buf, moved_buf, desired, multilane, cand_buf,
            occ_buf=np.zeros(1, dtype=np.int64),
            gather_ptr=np.zeros(1, dtype=np.int64),
            gather_len=np.zeros(1, dtype=np.int64),
            n_edges=1,
        )
        n_cand_bound = kernel.candidates_bound(n)
        cand_from_bound = cand_buf[:n].copy()
        n_newly_bound = kernel.advance_bound(n)

        pos_exp = pos.copy()
        speed_exp = speed.copy()
        newly_exp = np.zeros(n, dtype=bool)
        moved_exp = np.zeros(n, dtype=bool)
        cand_exp = np.zeros(n, dtype=bool)
        n_cand = kernel.candidates(
            idx, pos_exp, speed_exp, desired, multilane, heads, cand_exp, 12.0, 1.0
        )
        n_newly = kernel.advance(
            idx, pos_exp, speed_exp, freeflow, seglen, heads, waitflag,
            newly_exp, moved_exp,
        )
        assert (n_cand_bound, n_newly_bound) == (n_cand, n_newly)
        assert np.array_equal(cand_from_bound, cand_exp)
        assert np.array_equal(pos_bound, pos_exp)
        assert np.array_equal(speed_bound, speed_exp)
        assert np.array_equal(newly_buf[:n], newly_exp)

    def test_tables_bound_gather_matches_oracle(self):
        kernel = _cc_kernel()
        rng = np.random.default_rng(7)
        n_edges, n_slots = 8, 30
        keep, ptrs, lens = _edge_tables(rng, n_edges, n_slots)
        occ_buf = np.arange(n_edges, dtype=np.int64)
        cap = int(lens.sum()) + 1
        idx_buf = np.zeros(cap, dtype=np.intp)
        pos = rng.uniform(0.0, 50.0, n_slots)
        zeros = np.zeros(cap, dtype=np.float64)
        zb = np.zeros(cap, dtype=bool)
        zu = np.zeros(cap, dtype=np.uint8)
        flags_buf = _bind(
            kernel, idx_buf, pos, zeros.copy(), zeros, zeros, zu, zu,
            zb.copy(), zb.copy(), zeros, zu, zb.copy(),
            occ_buf=occ_buf, gather_ptr=ptrs, gather_len=lens, n_edges=n_edges,
        )
        m = 5
        out_ref = np.zeros(cap, dtype=np.int64)
        ref = gather_all_py(occ_buf[:m], ptrs, lens, out_ref)
        got = kernel.gather_bound(m)
        assert got == ref
        assert np.array_equal(idx_buf[:got].astype(np.int64), out_ref[:ref])
        # rank_all over all-ineligible edges flags nothing
        assert kernel.rank_all_bound() == 0
        assert not flags_buf.any()


# ------------------------------------------------------------ fallback
@pytest.fixture
def fresh_loader(monkeypatch):
    """A loader that has not resolved yet in this process; the real
    outcome is restored afterwards."""
    monkeypatch.setattr(kernels, "_RESOLVED", None)
    return monkeypatch


def _engine(compiled=True):
    from repro.mobility.engine import TrafficEngine
    from repro.roadnet.builders import grid_network

    return TrafficEngine(grid_network(3, 3, lanes=2), np.random.default_rng(3),
                         compiled=compiled)


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

    def test_compiler_failure_records_exit_status_and_stderr(self, fresh_loader, tmp_path):
        cc = _script(tmp_path, "cc", "echo 'kernel.c:1: fatal error: no stdint.h' >&2\nexit 3\n")
        fresh_loader.setattr(kernels.shutil, "which", lambda name: cc)
        with pytest.warns(RuntimeWarning, match="exited with status 3"):
            assert _engine().kernel_backend == "numpy"
        assert "fatal error: no stdint.h" in fallback_reason()

    def test_unloadable_library_records_load_error(self, fresh_loader, tmp_path):
        # "Compiles" by writing a non-ELF file to the -o target.
        cc = _script(tmp_path, "cc", 'for last; do :; done\necho garbage > "$last"\n')
        fresh_loader.setattr(kernels.shutil, "which", lambda name: cc)
        with pytest.warns(RuntimeWarning, match="cannot load"):
            assert _engine().kernel_backend == "numpy"
        assert available_backends() == []

    def test_engine_compiled_request_falls_back_transparently(self, fresh_loader):
        """``compiled=True`` on a compiler-less host must run the NumPy path
        and still produce the identical event stream."""
        from repro.mobility.demand import DemandConfig, DemandModel
        from repro.mobility.engine import TrafficEngine
        from repro.roadnet.builders import grid_network

        fresh_loader.setattr(kernels.shutil, "which", lambda name: None)

        def run(compiled):
            net = grid_network(3, 3, lanes=2)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                eng = TrafficEngine(net, np.random.default_rng(3), compiled=compiled)
            dm = DemandModel(net, DemandConfig(volume_fraction=0.7),
                             np.random.default_rng(4))
            eng.spawn_initial(dm.initial_fleet())
            log = []
            for _ in range(200):
                log.extend(repr(e) for e in eng.step())
            return log, [
                (v.vid, v.edge, v.lane, v.pos_m.hex(), v.speed_mps.hex())
                for v in sorted(eng.vehicles.values(), key=lambda v: v.vid)
            ]

        assert run(True)[0], "scenario produced no events — not a real check"
        assert run(True) == run(False)

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
