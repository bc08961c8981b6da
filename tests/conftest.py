"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.mobility.demand import DemandConfig
from repro.roadnet.builders import grid_network, line_network, ring_network, triangle_network
from repro.sim.config import MobilityConfig, ScenarioConfig, WirelessConfig


@pytest.fixture
def rng():
    """A deterministic generator for unit tests."""
    return np.random.default_rng(12345)


@pytest.fixture(params=[True, False], ids=["vec-engine", "ref-engine"])
def engine_vectorized(request):
    """Dual-engine matrix: every test using the scenario-config fixtures runs
    under both the vectorized engine hot path and the per-vehicle reference
    engine, so the equivalence baselines are exercised on every CI run (not
    only in the golden-trace tests).  The reference engine runs with the
    scalar protocol pipeline (``batched=False``) so the matrix covers both
    full pipelines end to end: production (vectorized engine + batched
    protocol) and reference (per-vehicle engine + per-event protocol).  All
    combinations are bit-for-bit identical, so assertions need no per-mode
    cases."""
    return request.param


@pytest.fixture
def triangle():
    """The 3-intersection closed system of the paper's Fig. 1."""
    return triangle_network()


@pytest.fixture
def small_grid():
    """A 3x3 bidirectional grid (single lane, FIFO)."""
    return grid_network(3, 3, lanes=1)


@pytest.fixture
def two_lane_grid():
    """A 4x4 grid with two lanes (overtaking possible)."""
    return grid_network(4, 4, lanes=2)


@pytest.fixture
def gated_grid():
    """A 4x4 grid whose perimeter intersections are border gates."""
    return grid_network(4, 4, lanes=2, gates_on_border=True)


@pytest.fixture
def oneway_ring():
    """A directed ring: every segment is one-way."""
    return ring_network(6, one_way=True)


@pytest.fixture
def simple_model_config(engine_vectorized):
    """The paper's simple road model: FIFO, lossless, one admission per step."""
    return ScenarioConfig(
        name="simple-model",
        rng_seed=3,
        num_seeds=1,
        demand=DemandConfig(volume_fraction=0.6),
        wireless=WirelessConfig(loss_probability=0.0, attempts_per_contact=1),
        mobility=MobilityConfig(
            allow_overtaking=False,
            admissions_per_step=1,
            crossing_delay_s=1.0,
            vectorized=engine_vectorized,
        ),
        batched=engine_vectorized,
    )


@pytest.fixture
def extended_model_config(engine_vectorized):
    """The paper's extended model: 30% lossy wireless, overtaking, multi-admission."""
    return ScenarioConfig(
        name="extended-model",
        rng_seed=5,
        num_seeds=1,
        demand=DemandConfig(volume_fraction=0.8),
        wireless=WirelessConfig(loss_probability=0.3),
        mobility=MobilityConfig(
            allow_overtaking=True, admissions_per_step=4, vectorized=engine_vectorized
        ),
        batched=engine_vectorized,
    )


def check_occupancy_state(engine):
    """Recompute a vectorized engine's occupancy state and assert it holds.

    The ground truth is each vehicle's ``edge`` (which vehicles are on each
    edge), ``lane`` and ``slot``, read through ``engine.vehicles`` (whose
    ``edge`` and ``lane`` mirror the slot's ``_edge``/``_lane``, which must
    hold its edge index and lane), and the resident ``_pos``/``_vid``
    arrays; every other per-edge and per-slot structure must follow from
    them.  Each edge's lanes and ranking are the live ``_lane_len`` prefix
    of its buffers, and each slot sits in its lane's span of its edge's.
    Only the ranking's membership is checked: its order is the overtake
    scan's, which the golden traces' overtake events pin.  An
    edge's ``_seq`` values, which order its vehicles by entry for
    ``occupancy()`` and both overtake passes, are distinct placement
    numbers, each below ``_placements``; their order is checked against the
    reference engine's ``_occupancy`` lists by
    ``test_occupancy_order_matches_reference``.  The waiting state:
    ``_wait_flag`` is set exactly on the vehicles whose ``waiting_since_s``
    is set, ``_since`` holds it, and each of them is its lane's head, which
    is all the admission pass reads, on cc and NumPy alike.
    """
    pos, vid, is_head, seq = engine._pos, engine._vid, engine._is_head, engine._seq
    inside = engine.vehicles.values()
    on_edge = {seg.key: [] for seg in engine._segs}
    for v in inside:
        on_edge[v.edge].append(v)
        ei = engine._edge_order[v.edge]
        assert (engine._edge[v.slot], engine._lane[v.slot]) == (ei, v.lane), v.vid
        assert v.previous_node == v.edge[0], v.vid
        lo, hi = engine._bounds_np[ei][v.lane:v.lane + 2].tolist()
        assert v.slot in engine._lane_store[ei][lo:hi].tolist(), v.vid
    for ei, seg in enumerate(engine._segs):
        where = f"edge {ei} {seg.key}"
        vehicles = on_edge[seg.key]
        lanes = [
            sorted((v.slot for v in vehicles if v.lane == lane),
                   key=lambda s: (-pos[s], vid[s]))
            for lane in range(seg.lanes)
        ]
        k, cap = int(engine._lane_len[ei]), int(engine._lane_cap[ei])
        assert k <= cap, where
        lane_buf, rank_buf = engine._lane_store[ei], engine._rank_store[ei]
        assert lane_buf.shape[0] == cap, where
        slots = lane_buf[:k]
        assert slots.tolist() == [s for lane in lanes for s in lane], where
        placed = seq[slots].tolist()
        assert len(set(placed)) == len(placed), where
        assert all(0 <= s < engine._placements for s in placed), where
        bounds = np.cumsum([0] + [len(lane) for lane in lanes])
        assert engine._bounds_np[ei].tolist() == bounds.tolist(), where
        assert engine._bounds_ptr[ei] == engine._bounds_np[ei].ctypes.data, where
        for lane in lanes:
            for i, s in enumerate(lane):
                assert bool(is_head[s]) == (i == 0), f"{where}, slot {s}"
        occ_lanes = sum(1 for lane in lanes if lane)
        assert engine._occ_lanes[ei] == occ_lanes, where
        assert engine._rank_elig[ei] == (seg.lanes > 1 and occ_lanes > 1), where
        if seg.lanes > 1:
            assert rank_buf.shape[0] == cap, where
            assert sorted(rank_buf[:k].tolist()) == sorted(slots.tolist()), where
        else:
            assert rank_buf.shape[0] == 0 and engine._rank_ptr[ei] == 0, where
        if cap:
            assert engine._lane_ptr[ei] == lane_buf.ctypes.data, where
            if seg.lanes > 1:
                assert engine._rank_ptr[ei] == rank_buf.ctypes.data, where
        else:
            assert engine._lane_ptr[ei] == 0 and engine._rank_ptr[ei] == 0, where
    assert int(engine._lane_len.sum()) == len(inside)
    for v in inside:
        assert engine._slot_vehicle[v.slot] is v and vid[v.slot] == v.vid, v.vid
    assert sum(x is not None for x in engine._slot_vehicle) == len(inside)
    waiting = [v for v in inside if v.waiting_since_s is not None]
    flagged = sorted(v.vid for v in inside if engine._wait_flag[v.slot])
    assert flagged == sorted(v.vid for v in waiting)
    for v in waiting:
        assert engine._since[v.slot] == v.waiting_since_s, v.vid
        assert is_head[v.slot], v.vid


@pytest.fixture(scope="session")
def occupancy_state_check():
    """:func:`check_occupancy_state`, for tests (hypothesis ones included)."""
    return check_occupancy_state
