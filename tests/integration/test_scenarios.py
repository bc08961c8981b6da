"""Scenario registry: observation 1 as a property of the whole library.

Every registered scenario must run to an **exact** count under all four
engine x pipeline combinations — vectorized/reference traffic engine crossed
with batched/scalar counting-protocol pipeline — and every combination must
agree bit for bit on the numbers it reports.  This turns the paper's
observation 1 from four hand-picked configurations into an invariant of the
scenario library.
"""

import pytest

from repro.scenarios import get_scenario, iter_scenarios, scenario_names
from repro.scenarios.registry import register

ENGINE_MATRIX = (
    ("vec-engine-batched", True, True),
    ("vec-engine-scalar", True, False),
    ("ref-engine-batched", False, True),
    ("ref-engine-scalar", False, False),
)

EXPECTED_SCENARIOS = {
    "midtown-closed",
    "midtown-open",
    "patrol-open",
    "lossy-grid",
    "one-way-ring",
    "arterial",
    "two-district",
    "rush-hour",
    "bursty-arrivals",
}


class TestRegistryContents:
    def test_expected_scenarios_present(self):
        assert EXPECTED_SCENARIOS <= set(scenario_names())

    def test_lookup_and_error_message(self):
        defn = get_scenario("rush-hour")
        assert defn.name == "rush-hour"
        with pytest.raises(KeyError, match="known scenarios"):
            get_scenario("nope")

    def test_duplicate_registration_rejected(self):
        defn = get_scenario("rush-hour")
        with pytest.raises(ValueError, match="already registered"):
            register(defn)

    def test_factories_build_fresh_networks(self):
        defn = get_scenario("lossy-grid")
        assert defn.build_network() is not defn.build_network()

    def test_factories_and_configs_are_picklable(self):
        """Scenario entries must survive the parallel sweep runner's pickle
        round trip (module-level factories, frozen configs)."""
        import pickle

        for defn in iter_scenarios():
            clone = pickle.loads(pickle.dumps((defn.network_factory, defn.config)))
            assert clone[1] == defn.config


def _comparable(result):
    """Everything a run reports that must match across the matrix."""
    return {
        "protocol_count": result.protocol_count,
        "ground_truth": result.ground_truth,
        "constitution_time_s": result.constitution_time_s,
        "constitution_min_s": result.constitution_min_s,
        "constitution_avg_s": result.constitution_avg_s,
        "collection_time_s": result.collection_time_s,
        "adjustments": result.adjustments,
        "protocol_stats": result.protocol_stats,
        "exchange_stats": result.exchange_stats,
    }


@pytest.mark.parametrize("name", sorted(EXPECTED_SCENARIOS))
def test_every_scenario_counts_exactly_on_the_full_matrix(name):
    """All four engine x pipeline combinations count exactly — and agree on
    every number they report, not merely on exactness."""
    defn = get_scenario(name)
    traces = {}
    for combo, vectorized, batched in ENGINE_MATRIX:
        config = defn.with_engine(vectorized=vectorized, batched=batched)
        result = defn.simulation(config).run()
        assert result.converged, f"{name} [{combo}] did not converge"
        assert result.is_exact, (
            f"{name} [{combo}] miscounted: truth={result.ground_truth} "
            f"counted={result.protocol_count}"
        )
        traces[combo] = _comparable(result)
    reference = traces["vec-engine-batched"]
    for combo, trace in traces.items():
        assert trace == reference, f"{name} [{combo}] diverged from the reference"


@pytest.mark.parametrize("name", ["one-way-ring", "patrol-open"])
def test_finished_simulation_is_freed_by_reference_counting(name):
    """A finished run holds no reference cycle through its protocol, so
    dropping the simulation frees the protocol and the exchange service at
    once, not at the next cyclic garbage collection (the checkpoints'
    convergence callbacks must not be bound methods of the protocol)."""
    import gc
    import weakref

    sim = get_scenario(name).simulation()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        assert sim.run().is_exact
        protocol = weakref.ref(sim.protocol)
        exchange = weakref.ref(sim.exchange)
        del sim
        assert protocol() is None
        assert exchange() is None
    finally:
        if was_enabled:
            gc.enable()
