"""Golden-trace equivalence tests for the counting-protocol pipeline.

The fixtures in ``tests/fixtures/golden_protocol_traces.json`` were recorded
against the *scalar* per-event protocol path (``batched=False``, i.e.
``CountingProtocol.handle_events``) before the batched pipeline refactor.
Both pipelines must reproduce them exactly — per-checkpoint counters,
adjustments, stabilization times (bitwise, via float hex), exchange
statistics, collection statistics and the collected global view.  Any
divergence fails the comparison here before it can silently move the paper's
correctness results.

Five scenarios are pinned, covering the protocol regimes that matter:

* ``closed-lossless`` — FIFO traffic, perfect wireless: the base Alg. 1
  mechanism, no corrections, no retries;
* ``closed-lossy`` — 30% per-attempt loss with overtaking: retry draws,
  forced successes and the Alg. 3 correction rules all fire;
* ``open-border`` — gated grid with border arrivals: Alg. 5 interaction
  counting plus entry/exit event handling;
* ``midtown-open`` — the registry's open midtown scenario (patrol cars,
  collection, border flow on the paper's map), run past convergence;
* ``patrol-open`` — the registry's worst-case irregular-event workload:
  open two-lane grid, patrol ferrying, lossy wireless, overtakes — the
  densest mix of irregular events the engine produces.

Re-record (only when an *intentional* behaviour change is made) with::

    PYTHONPATH=src python tests/integration/test_protocol_golden_traces.py --record
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import replace

import pytest

FIXTURE_PATH = os.path.join(
    os.path.dirname(__file__), "..", "fixtures", "golden_protocol_traces.json"
)


# --------------------------------------------------------------- scenarios
def _closed_lossless_config():
    from repro.mobility.demand import DemandConfig
    from repro.sim.config import MobilityConfig, ScenarioConfig, WirelessConfig

    return ScenarioConfig(
        name="golden-closed-lossless",
        rng_seed=17,
        num_seeds=1,
        demand=DemandConfig(volume_fraction=0.7),
        wireless=WirelessConfig(loss_probability=0.0, attempts_per_contact=1),
        mobility=MobilityConfig(
            allow_overtaking=False, admissions_per_step=1, crossing_delay_s=1.0
        ),
    )


def _closed_lossy_config():
    from repro.mobility.demand import DemandConfig
    from repro.sim.config import MobilityConfig, ScenarioConfig, WirelessConfig

    return ScenarioConfig(
        name="golden-closed-lossy",
        rng_seed=29,
        num_seeds=2,
        demand=DemandConfig(volume_fraction=0.8),
        wireless=WirelessConfig(loss_probability=0.3, attempts_per_contact=4),
        mobility=MobilityConfig(allow_overtaking=True, admissions_per_step=4),
    )


def _open_border_config():
    from repro.mobility.demand import DemandConfig
    from repro.sim.config import ScenarioConfig, WirelessConfig

    return ScenarioConfig(
        name="golden-open-border",
        rng_seed=41,
        num_seeds=2,
        open_system=True,
        demand=DemandConfig(volume_fraction=0.6, through_traffic_fraction=0.5),
        wireless=WirelessConfig(loss_probability=0.3, attempts_per_contact=4),
    )


def _grid_factory(**net_kwargs):
    def build():
        from repro.roadnet.builders import grid_network

        return grid_network(4, 4, **net_kwargs)

    return build


def _registry_config(name):
    def factory():
        from repro.scenarios import get_scenario

        return get_scenario(name).config

    return factory


def _registry_network(name):
    def build():
        from repro.scenarios import get_scenario

        return get_scenario(name).build_network()

    return build


def _run(name, *, batched, vectorized=True, compiled=True):
    from repro.sim.simulator import Simulation

    config_factory, net_factory, duration_s = SCENARIOS[name]
    config = config_factory()
    mobility = replace(config.mobility, vectorized=vectorized, compiled=compiled)
    config = replace(config, batched=batched, mobility=mobility)
    sim = Simulation(net_factory(), config)
    sim.run_for(duration_s)
    return sim


SCENARIOS = {
    "closed-lossless": (
        _closed_lossless_config,
        _grid_factory(lanes=1),
        600.0,
    ),
    "closed-lossy": (
        _closed_lossy_config,
        _grid_factory(lanes=2),
        1200.0,
    ),
    "open-border": (
        _open_border_config,
        _grid_factory(lanes=2, gates_on_border=True),
        600.0,
    ),
    # The two registry scenarios the scalar-tail work targets, run past
    # their convergence horizon so the traces pin stabilization times,
    # complete collection and the post-convergence interaction balance.
    "midtown-open": (
        _registry_config("midtown-open"),
        _registry_network("midtown-open"),
        4800.0,
    ),
    "patrol-open": (
        _registry_config("patrol-open"),
        _registry_network("patrol-open"),
        3300.0,
    ),
}


# ------------------------------------------------------------ serialization
def _hex(x):
    return None if x is None else float(x).hex()


def protocol_trace(sim) -> dict:
    """Everything the protocol layer computed, in an exactly comparable form.

    Floats (stabilization/activation times, exchange ratios) are serialized
    as hex so the comparison is bitwise, not approximate.
    """
    per_checkpoint = {}
    for node in sorted(sim.protocol.checkpoints, key=repr):
        cp = sim.protocol.checkpoints[node]
        per_checkpoint[repr(node)] = {
            "counters": {
                repr(k): cp.counters[k] for k in sorted(cp.counters, key=repr)
            },
            "adjustments": cp.adjustments,
            "label_failures": cp.label_failures,
            "labels_issued": cp.labels_issued,
            "active": cp.active,
            "predecessor": repr(cp.predecessor),
            "activated_at": _hex(cp.activated_at),
            "stabilized_at": _hex(cp.stabilized_at),
            "interaction_in": cp.interaction_in,
            "interaction_out": cp.interaction_out,
        }
    exchange_stats = sim.exchange.stats.as_dict()
    exchange_stats["failure_rate"] = _hex(exchange_stats["failure_rate"])
    exchange_stats["mean_attempts"] = _hex(exchange_stats["mean_attempts"])
    collection = sim.protocol.collection
    return {
        "per_checkpoint": per_checkpoint,
        "protocol_stats": sim.protocol.stats.as_dict(),
        "exchange_stats": exchange_stats,
        "collection_stats": collection.stats.as_dict(),
        "seed_completed_at": {
            repr(seed): _hex(t)
            for seed, t in sorted(collection.seed_completed_at.items(), key=repr)
        },
        "global_count": sim.protocol.global_count(),
        "total_adjustments": sim.protocol.total_adjustments(),
        "collected_count": (
            collection.global_view() if collection.all_seeds_done() else None
        ),
        "ground_truth": sim.ground_truth(),
        "recognizer_observations": sum(
            cam.recognizer.stats.observations for cam in sim.protocol.cameras.values()
        ),
        "camera_observed": sum(
            cam.observed for cam in sim.protocol.cameras.values()
        ),
    }


# ------------------------------------------------------------------- tests
def _load_fixture() -> dict:
    with open(FIXTURE_PATH) as fh:
        return json.load(fh)


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
@pytest.mark.parametrize("engine", ["vec-engine", "ref-engine"])
@pytest.mark.parametrize("pipeline", ["batched", "scalar"])
def test_protocol_trace_matches_scalar_fixture(scenario, pipeline, engine):
    """All four engine × protocol-pipeline combinations reproduce the trace
    recorded from the scalar pipeline — the full equivalence matrix.  The
    vectorized legs run the default compiled kernel wherever it loads."""
    recorded = _load_fixture()[scenario]
    sim = _run(
        scenario,
        batched=pipeline == "batched",
        vectorized=engine == "vec-engine",
    )
    trace = protocol_trace(sim)
    # Compare the summary numbers first so a mismatch names itself.
    assert trace["protocol_stats"] == recorded["protocol_stats"]
    assert trace["exchange_stats"] == recorded["exchange_stats"]
    assert trace["collection_stats"] == recorded["collection_stats"]
    assert trace["global_count"] == recorded["global_count"]
    assert trace["total_adjustments"] == recorded["total_adjustments"]
    assert trace == recorded


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_numpy_engine_matches_scalar_fixture(scenario):
    """The NumPy engine path (``compiled=False``) must reproduce the same
    scalar-path fixture bit for bit.  The matrix above runs the compiled
    kernel wherever a C compiler is present, so this leg keeps the NumPy
    path — the fallback on compiler-less hosts — pinned everywhere."""
    recorded = _load_fixture()[scenario]
    sim = _run(scenario, batched=True, compiled=False)
    assert protocol_trace(sim) == recorded


def test_scalar_fixture_scenarios_stabilized():
    """The pinned scenarios must be interesting: counting finished in all
    three, so stabilization times are real values, not placeholders."""
    recorded = _load_fixture()
    for scenario, trace in recorded.items():
        stabilized = [
            cp["stabilized_at"] for cp in trace["per_checkpoint"].values()
        ]
        assert all(t is not None for t in stabilized), scenario
        # Collection completed everywhere; in the closed scenarios the
        # collected view equals the live global count (the open system's
        # global count additionally carries the border interaction balance).
        assert trace["collected_count"] is not None, scenario
        if "open" not in scenario:
            assert trace["collected_count"] == trace["global_count"], scenario
        assert trace["global_count"] == trace["ground_truth"], scenario


# --------------------------------------------------------------- recording
def record() -> None:
    out = {}
    for name in sorted(SCENARIOS):
        sim = _run(name, batched=False)
        out[name] = protocol_trace(sim)
        print(
            f"{name}: count={out[name]['global_count']} "
            f"(truth {out[name]['ground_truth']}), "
            f"adjustments={out[name]['total_adjustments']}, "
            f"exchanges={out[name]['exchange_stats']['exchanges']}"
        )
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
