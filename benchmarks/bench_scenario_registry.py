"""Scenario-registry sweep: correctness and runtime of every named workload.

Runs each scenario of :mod:`repro.scenarios` at its registered configuration
(default engine: vectorized + batched), asserts the count is exact, and
records per-scenario wall-clock and simulated-seconds-per-wall-second to
``BENCH_engine.json`` under the ``"scenarios"`` key, so growing the registry
shows up on the perf trajectory like every other workload.

Each scenario also gets a fixed-step throughput comparison against the
scalar reference stack (per-vehicle engine + per-event protocol), recorded
as ``batched_vs_scalar_speedup`` — the registry covers very different event
mixes (FIFO rings, lossy grids, open borders, patrol ferrying), so the
per-scenario ratio shows where the batched paths pay off and where the
workload is too small to matter, instead of one blended number.
"""

from __future__ import annotations

import time
from dataclasses import replace

from repro.analysis.report import correctness_summary
from repro.scenarios import iter_scenarios
from repro.sim.simulator import Simulation

from benchrecord import record

SPEEDUP_WARMUP_STEPS = 30
SPEEDUP_STEPS = 120


def run_registry():
    rows = []
    for defn in iter_scenarios():
        start = time.perf_counter()
        result = defn.simulation().run()
        wall_s = time.perf_counter() - start
        rows.append((defn.name, result, wall_s))
    return rows


def _steps_per_sec(sim: Simulation, steps: int) -> float:
    for _ in range(SPEEDUP_WARMUP_STEPS):
        sim.step()
    start = time.perf_counter()
    for _ in range(steps):
        sim.step()
    return steps / (time.perf_counter() - start)


def registry_speedups():
    """Fixed-step batched-vs-scalar throughput ratio per scenario."""
    out = {}
    for defn in iter_scenarios():
        rates = {}
        for fast in (True, False):
            config = replace(
                defn.config,
                batched=fast,
                mobility=replace(defn.config.mobility, vectorized=fast),
            )
            sim = Simulation(defn.build_network(), config)
            rates[fast] = _steps_per_sec(sim, SPEEDUP_STEPS)
        out[defn.name] = round(rates[True] / rates[False], 2)
    return out


def test_scenario_registry_battery(benchmark):
    rows = benchmark.pedantic(run_registry, rounds=1, iterations=1)
    speedups = registry_speedups()
    print()
    width = max(len(name) for name, _r, _w in rows)
    for name, result, wall_s in rows:
        rate = result.simulated_s / wall_s if wall_s > 0 else float("inf")
        print(
            f"{name:<{width}} : truth={result.ground_truth:<4d} "
            f"counted={result.protocol_count:<4d} error={result.miscount_error:+d} "
            f"wall={wall_s:6.2f}s ({rate:7.0f} sim-s/s) "
            f"batched {speedups[name]:.2f}x scalar "
            f"{'converged' if result.converged else 'NOT CONVERGED'}"
        )
    print(correctness_summary([r for _n, r, _w in rows]))
    assert all(result.converged for _n, result, _w in rows)
    assert all(result.is_exact for _n, result, _w in rows)

    record(
        "scenarios",
        {
            name: {
                "wall_s": round(wall_s, 3),
                "simulated_s": round(result.simulated_s, 1),
                "exact": result.is_exact,
                "batched_vs_scalar_speedup": speedups[name],
            }
            for name, result, wall_s in rows
        },
    )
