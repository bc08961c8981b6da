"""City-scale throughput: steps/s vs. network size and vehicle count.

The other benchmarks run at midtown size (dozens to hundreds of edges); this
one climbs the :func:`repro.roadnet.synth.synthetic_city` ladder up to a
10k+-edge city carrying 100k+ concurrent vehicles, recording steps/s at each
rung into the ``scale`` section of ``BENCH_engine.json``.  The curve is what
exposed the per-step O(edges)/O(nodes) cliffs fixed alongside it (the
gather-list flattening, the per-step convergence scans, the unbounded route
cache); keeping it recorded from PR to PR is what keeps them fixed.

Run as pytest (full ladder — a few minutes) or directly with ``--quick`` for
the CI smoke rung: a small city stepped under a wall-clock budget, recorded
to ``REPRO_BENCH_PATH`` so it never overwrites the canonical full-size
numbers committed in ``BENCH_engine.json``.
"""

from __future__ import annotations

import os
import sys
import time

import numpy as np

from repro.mobility.demand import DemandConfig, DemandModel
from repro.mobility.engine import TrafficEngine
from repro.roadnet.synth import synthetic_city

from benchrecord import record

#: Wall-clock budget of the --quick smoke rung (seconds).  Generous for
#: shared CI runners; a scaling cliff blows through it anyway — the quick
#: city would need < 2 steps/s to fail, two orders of magnitude below the
#: recorded full-size rate.
QUICK_BUDGET_S = float(os.environ.get("REPRO_BENCH_SCALE_BUDGET_S", "120"))
QUICK_STEPS = 60

#: The full ladder: (districts, district_size, target_vehicles, steps).
#: The last rung is the acceptance point — >= 10k directed edges and
#: >= 100k concurrent vehicles.
LADDER = (
    (1, 18, 5_000, 60),
    (2, 18, 25_000, 40),
    (3, 18, 100_000, 25),
)


def _build(districts: int, district_size: int, vehicles: int) -> TrafficEngine:
    net = synthetic_city(districts, district_size, seed=0)
    engine = TrafficEngine(net, np.random.default_rng(0), vectorized=True)
    demand = DemandModel(
        net,
        # Memoryless random turns isolate the mobility kernel (no Dijkstra
        # in the timed loop), matching bench_engine_throughput's primary.
        DemandConfig.for_fleet_size(net, vehicles, random_turn_fraction=1.0),
        np.random.default_rng(1),
    )
    engine.spawn_initial(demand.initial_fleet())
    return engine


def _measure(districts: int, district_size: int, vehicles: int, steps: int) -> dict:
    engine = _build(districts, district_size, vehicles)
    warmup = max(3, steps // 10)
    for _ in range(warmup):
        engine.step()
    start = time.perf_counter()
    for _ in range(steps):
        engine.step()
    elapsed = time.perf_counter() - start
    return {
        "city": f"{districts}x{districts} districts of {district_size}x{district_size}",
        "edges": engine.net.num_segments,
        "nodes": engine.net.num_nodes,
        "vehicles": engine.active_count(),
        "steps": steps,
        "steps_per_sec": round(steps / elapsed, 2),
        "vehicle_steps_per_sec": round(steps * engine.active_count() / elapsed, 0),
    }


def test_scale_ladder():
    rungs = [_measure(*rung) for rung in LADDER]
    top = rungs[-1]
    assert top["edges"] >= 10_000, top
    assert top["vehicles"] >= 100_000, top
    assert all(r["steps_per_sec"] > 0 for r in rungs)
    path = record(
        "scale",
        {
            "ladder": rungs,
            "top": {
                "edges": top["edges"],
                "vehicles": top["vehicles"],
                "steps_per_sec": top["steps_per_sec"],
            },
        },
    )
    for r in rungs:
        print(
            f"\n{r['city']}: {r['edges']} edges, {r['vehicles']} vehicles -> "
            f"{r['steps_per_sec']} steps/s"
        )
    print(f"recorded to {path}")


def quick() -> int:
    """CI smoke: one small rung under a hard wall-clock budget."""
    start = time.perf_counter()
    rung = _measure(2, 10, 10_000, QUICK_STEPS)
    elapsed = time.perf_counter() - start
    path = record("scale", {"quick": rung, "wall_clock_s": round(elapsed, 2)})
    print(
        f"quick rung: {rung['edges']} edges, {rung['vehicles']} vehicles -> "
        f"{rung['steps_per_sec']} steps/s in {elapsed:.1f}s (budget "
        f"{QUICK_BUDGET_S:.0f}s); recorded to {path}"
    )
    if elapsed > QUICK_BUDGET_S:
        print(
            f"FAIL: scale smoke exceeded its wall-clock budget "
            f"({elapsed:.1f}s > {QUICK_BUDGET_S:.0f}s)",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    if "--quick" in sys.argv:
        sys.exit(quick())
    test_scale_ladder()
