"""Golden-trace equivalence tests for the traffic engine.

The fixtures in ``tests/fixtures/golden_traces.json`` were recorded against
the *pre-vectorization* per-vehicle engine (the seed implementation).  The
vectorized hot path must reproduce the exact same event stream — same events,
same order, same bitwise floating-point payloads — and the same final world
state for fixed RNG seeds.  Any divergence, however small, fails the digest
comparison here before it can silently change the paper's figures.

Two scenarios are pinned:

* ``closed-4x4`` — a closed two-lane 4x4 grid (overtaking on), 400 steps;
* ``open-border`` — a gated 4x4 grid with Poisson border arrivals injected
  every step, 600 steps.

Re-record (only when an *intentional* behaviour change is made) with::

    PYTHONPATH=src python tests/integration/test_golden_traces.py --record
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

import numpy as np
import pytest

FIXTURE_PATH = os.path.join(
    os.path.dirname(__file__), "..", "fixtures", "golden_traces.json"
)
HEAD_EVENTS = 40


# --------------------------------------------------------------- scenarios
def _run_closed(engine_kwargs):
    from repro.mobility.demand import DemandConfig, DemandModel
    from repro.mobility.engine import TrafficEngine
    from repro.roadnet.builders import grid_network

    net = grid_network(4, 4, lanes=2)
    eng = TrafficEngine(net, np.random.default_rng(11), **engine_kwargs)
    dm = DemandModel(net, DemandConfig(volume_fraction=0.8), np.random.default_rng(11))
    eng.spawn_initial(dm.initial_fleet())
    events = eng.run(200.0)
    return eng, events


def _run_open(engine_kwargs):
    from repro.mobility.demand import DemandConfig, DemandModel
    from repro.mobility.engine import TrafficEngine
    from repro.roadnet.builders import grid_network

    net = grid_network(4, 4, lanes=2, gates_on_border=True)
    eng = TrafficEngine(net, np.random.default_rng(7), **engine_kwargs)
    dm = DemandModel(net, DemandConfig(volume_fraction=0.6), np.random.default_rng(7))
    eng.spawn_initial(dm.initial_fleet(open_system=True))
    events = []
    for _ in range(600):
        for spec in dm.border_arrivals(eng.dt_s):
            _vehicle, spawn_events = eng.spawn(spec)
            events.extend(spawn_events)
        events.extend(eng.step())
    return eng, events


SCENARIOS = {"closed-4x4": _run_closed, "open-border": _run_open}


# ------------------------------------------------------------ serialization
def _hex(x):
    return float(x).hex()


def serialize_event(event):
    from repro.mobility.events import (
        CrossingEvent,
        EntryEvent,
        ExitEvent,
        OvertakeEvent,
    )

    if isinstance(event, CrossingEvent):
        return [
            "cross",
            _hex(event.time_s),
            event.vehicle.vid,
            repr(event.node),
            repr(event.from_node),
            repr(event.to_node),
        ]
    if isinstance(event, EntryEvent):
        return ["entry", _hex(event.time_s), event.vehicle.vid, repr(event.gate_node)]
    if isinstance(event, ExitEvent):
        return [
            "exit",
            _hex(event.time_s),
            event.vehicle.vid,
            repr(event.gate_node),
            repr(event.from_node),
        ]
    if isinstance(event, OvertakeEvent):
        return [
            "overtake",
            _hex(event.time_s),
            repr(event.edge),
            event.passer.vid,
            event.passee.vid,
        ]
    return ["other", _hex(event.time_s), type(event).__name__]


def serialize_final_state(eng):
    rows = []
    for vid in sorted(eng.vehicles):
        v = eng.vehicles[vid]
        rows.append(
            [
                vid,
                repr(v.edge),
                int(v.lane),
                _hex(v.pos_m),
                _hex(v.speed_mps),
                None if v.waiting_since_s is None else _hex(v.waiting_since_s),
            ]
        )
    return rows


def _digest(payload) -> str:
    blob = json.dumps(payload, separators=(",", ":"), sort_keys=False)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def trace_summary(eng, events) -> dict:
    stream = [serialize_event(e) for e in events]
    return {
        "n_events": len(stream),
        "head": stream[:HEAD_EVENTS],
        "stream_digest": _digest(stream),
        "final_state_digest": _digest(serialize_final_state(eng)),
        "stats": eng.stats.as_dict(),
        "inside_count": eng.inside_count(),
        "total_spawned": eng.total_spawned(),
        "departed": len(eng.departed_vehicles()),
    }


# ------------------------------------------------------------------- tests
def _load_fixture() -> dict:
    with open(FIXTURE_PATH) as fh:
        return json.load(fh)


#: engine keyword arguments per mode: the default (compiled kernel wherever
#: it loads), the NumPy path it falls back to, and the scalar reference
ENGINE_MODES = {
    "vectorized": {},
    "numpy": {"compiled": False},
    "scalar": {"vectorized": False},
}


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
@pytest.mark.parametrize("mode", sorted(ENGINE_MODES))
def test_trace_matches_pre_refactor_fixture(scenario, mode):
    recorded = _load_fixture()[scenario]
    eng, events = SCENARIOS[scenario](ENGINE_MODES[mode])
    summary = trace_summary(eng, events)
    # Compare the cheap, debuggable parts first so a mismatch names itself.
    assert summary["stats"] == recorded["stats"]
    assert summary["inside_count"] == recorded["inside_count"]
    assert summary["total_spawned"] == recorded["total_spawned"]
    assert summary["departed"] == recorded["departed"]
    assert summary["n_events"] == recorded["n_events"]
    assert summary["head"] == recorded["head"]
    assert summary["stream_digest"] == recorded["stream_digest"]
    assert summary["final_state_digest"] == recorded["final_state_digest"]


def test_vectorized_and_scalar_agree_on_midtown():
    """Both engine modes must agree on a multilane midtown scenario too."""
    from repro.mobility.demand import DemandConfig, DemandModel
    from repro.mobility.engine import TrafficEngine
    from repro.roadnet.manhattan import build_midtown_grid

    def run(vectorized):
        net = build_midtown_grid(scale=0.2)
        eng = TrafficEngine(net, np.random.default_rng(3), vectorized=vectorized)
        dm = DemandModel(net, DemandConfig(volume_fraction=1.0), np.random.default_rng(3))
        eng.spawn_initial(dm.initial_fleet())
        events = eng.run(120.0)
        return trace_summary(eng, events)

    assert run(True) == run(False)


# --------------------------------------------------------------- recording
def record() -> None:
    out = {}
    for name, runner in sorted(SCENARIOS.items()):
        eng, events = runner({})
        out[name] = trace_summary(eng, events)
        print(f"{name}: {out[name]['n_events']} events, stats={out[name]['stats']}")
    os.makedirs(os.path.dirname(FIXTURE_PATH), exist_ok=True)
    with open(FIXTURE_PATH, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {os.path.abspath(FIXTURE_PATH)}")


if __name__ == "__main__":
    if "--record" in sys.argv:
        record()
    else:
        print(__doc__)
