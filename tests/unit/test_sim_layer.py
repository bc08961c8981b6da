"""Simulation harness units: rng, config, results, metrics, runner."""

import json
import math

import numpy as np
import pytest

from repro.errors import ConfigurationError, ExperimentError
from repro.mobility.demand import DemandConfig
from repro.roadnet.builders import grid_network
from repro.sim.config import MobilityConfig, ScenarioConfig, WirelessConfig
from repro.sim.metrics import AccuracyReport
from repro.sim.results import AggregateStat, RunResult, SweepCell, SweepResult
from repro.sim.rng import RngFactory
from repro.sim.runner import ExperimentRunner, SweepSpec, replication_seed, run_single
from repro.sim.simulator import Simulation


def _grid_factory():
    """Module-level (hence picklable) factory for parallel-sweep tests."""
    return grid_network(3, 3, lanes=1)


class TestRngFactory:
    def test_streams_are_independent_but_reproducible(self):
        f1, f2 = RngFactory(7), RngFactory(7)
        a = f1.generator("engine").random(5)
        b = f2.generator("engine").random(5)
        c = f1.generator("demand").random(5)
        assert np.allclose(a, b)
        assert not np.allclose(a, c)

    def test_unknown_stream_rejected(self):
        with pytest.raises(KeyError):
            RngFactory(0).generator("nope")

    def test_replicate_changes_streams(self):
        base = RngFactory(7)
        rep = base.replicate(1)
        assert not np.allclose(
            base.generator("engine").random(5), rep.generator("engine").random(5)
        )


class TestConfigs:
    def test_wireless_validation(self):
        with pytest.raises(ConfigurationError):
            WirelessConfig(loss_probability=1.0)
        with pytest.raises(ConfigurationError):
            WirelessConfig(attempts_per_contact=0)

    def test_mobility_validation(self):
        with pytest.raises(ConfigurationError):
            MobilityConfig(dt_s=0.0)
        with pytest.raises(ConfigurationError):
            MobilityConfig(admissions_per_step=0)
        # values the engines would read differently: cc's int64 table
        # truncates a fractional cap, NumPy and the reference slice with it
        for bad in ({"admissions_per_step": 2.5}, {"admissions_per_step": True},
                    {"crossing_delay_s": math.nan}, {"crossing_delay_s": math.inf},
                    {"crossing_delay_s": -0.5}, {"dt_s": math.nan}, {"dt_s": math.inf}):
            with pytest.raises(ConfigurationError):
                MobilityConfig(**bad)
        # JSON's NaN loads as a float, so a spec file can carry it
        with pytest.raises(ConfigurationError):
            MobilityConfig.from_dict(json.loads('{"crossing_delay_s": NaN}'))
        assert MobilityConfig(admissions_per_step=2, crossing_delay_s=0).admissions_per_step == 2

    def test_scenario_validation(self):
        with pytest.raises(ConfigurationError):
            ScenarioConfig(num_seeds=0)
        with pytest.raises(ConfigurationError):
            ScenarioConfig(max_duration_s=0.0)
        with pytest.raises(ConfigurationError):
            ScenarioConfig(settle_extra_s=-1.0)

    def test_with_helpers_produce_copies(self):
        base = ScenarioConfig(rng_seed=1)
        v = base.with_volume(0.3)
        s = base.with_seeds(4)
        r = base.with_rng_seed(9)
        assert v.demand.volume_fraction == 0.3 and base.demand.volume_fraction == 1.0
        assert s.num_seeds == 4 and base.num_seeds == 1
        assert r.rng_seed == 9 and base.rng_seed == 1


class TestSimulationFacade:
    def test_open_system_requires_gates(self):
        net = grid_network(3, 3)
        with pytest.raises(ConfigurationError):
            Simulation(net, ScenarioConfig(open_system=True))

    def test_populate_is_idempotent(self, small_grid, simple_model_config):
        sim = Simulation(small_grid, simple_model_config)
        sim.populate()
        first = sim.initial_fleet_size
        sim.populate()
        assert sim.initial_fleet_size == first
        assert sim.engine.inside_count() == first

    def test_explicit_seeds_respected(self, small_grid, simple_model_config):
        sim = Simulation(small_grid, simple_model_config, seeds=[(1, 1)])
        assert sim.seeds == [(1, 1)]
        assert sim.protocol.checkpoint((1, 1)).is_seed

    def test_run_for_advances_clock(self, small_grid, simple_model_config):
        sim = Simulation(small_grid, simple_model_config)
        sim.run_for(30.0)
        assert sim.engine.time_s == pytest.approx(30.0)

    def test_ground_truth_counts_targets_only(self, small_grid):
        from repro.core.protocol import ProtocolConfig
        from repro.surveillance.attributes import WHITE_VAN

        cfg = ScenarioConfig(
            rng_seed=1,
            demand=DemandConfig(volume_fraction=0.5),
            protocol=ProtocolConfig(count_target=WHITE_VAN),
        )
        sim = Simulation(small_grid, cfg)
        sim.populate()
        total = sim.engine.inside_count()
        vans = sim.ground_truth()
        assert 0 <= vans <= total


    def test_spliced_border_arrivals_carry_the_batch_time(self, gated_grid):
        # Simulation.step spawns the border arrivals at the step's start
        # time and splices their events into the engine's batch, so every
        # item process_batch sees carries batch.time_s.
        from repro.mobility.events import CrossingEvent, EntryEvent, ExitEvent, OvertakeEvent

        cfg = ScenarioConfig(
            rng_seed=5,
            open_system=True,
            demand=DemandConfig(volume_fraction=1.0, entry_rate_veh_per_s_at_full=0.4),
        )
        sim = Simulation(gated_grid, cfg)
        process_batch = sim.protocol.process_batch
        kinds = set()

        def checked(batch):
            for event in batch.iter_events():
                kinds.add(type(event))
                assert event.time_s == batch.time_s
            process_batch(batch)

        sim.protocol.process_batch = checked
        for _ in range(120):
            sim.step()
        assert kinds == {CrossingEvent, EntryEvent, ExitEvent, OvertakeEvent}


class TestResults:
    def _result(self, **overrides):
        defaults = dict(
            scenario_name="x",
            rng_seed=0,
            volume_fraction=0.5,
            num_seeds=1,
            open_system=False,
            constitution_time_s=120.0,
            constitution_min_s=30.0,
            constitution_avg_s=60.0,
            collection_time_s=240.0,
            simulated_s=300.0,
            ground_truth=40,
            protocol_count=40,
            collected_count=40,
            adjustments=0,
            inside_at_end=40,
            converged=True,
            collection_converged=True,
        )
        defaults.update(overrides)
        return RunResult(**defaults)

    def test_error_properties(self):
        res = self._result(protocol_count=42)
        assert res.miscount_error == 2
        assert not res.is_exact
        assert res.collection_error == 0

    def test_minute_conversions(self):
        res = self._result()
        assert res.constitution_time_min == pytest.approx(2.0)
        assert res.collection_time_min == pytest.approx(4.0)
        assert self._result(constitution_time_s=None).constitution_time_min is None

    def test_as_dict_round_trip_keys(self):
        d = self._result().as_dict()
        assert d["protocol_count"] == 40 and d["converged"] is True

    def test_aggregate_stat(self):
        stat = AggregateStat.from_values([1.0, 3.0, 5.0])
        assert stat.mean == 3.0 and stat.minimum == 1.0 and stat.maximum == 5.0
        empty = AggregateStat.from_values([])
        assert math.isnan(empty.mean) and empty.count == 0

    def test_sweep_cell_and_series(self):
        runs = tuple(self._result(constitution_time_s=t) for t in (60.0, 120.0))
        cell = SweepCell(volume_fraction=0.5, num_seeds=1, runs=runs)
        assert cell.metric("constitution_time_s").mean == 90.0
        assert cell.all_exact and cell.all_converged
        sweep = SweepResult(name="s", cells=[cell])
        series = sweep.series("constitution_time_s")
        assert series[1] == [(0.5, 90.0)]
        with pytest.raises(KeyError):
            sweep.cell(0.9, 1)

    def test_accuracy_report(self):
        rep = AccuracyReport.from_result(self._result())
        assert rep.exact and rep.miscount == 0
        assert "EXACT" in rep.describe()
        rep2 = AccuracyReport.from_result(self._result(protocol_count=39, converged=False))
        assert "OFF BY -1" in rep2.describe()


class TestReplicationSeed:
    @staticmethod
    def _paper_full_seeds(base_seed=2014, replications=3):
        spec = SweepSpec.paper_full(replications=replications)
        return [
            replication_seed(base_seed, volume, seeds, rep)
            for volume in spec.volumes
            for seeds in spec.seed_counts
            for rep in range(spec.replications)
        ]

    def test_paper_full_seeds_all_distinct(self):
        """Regression: ``hash((volume, seeds)) % 1009`` folded the 10x10x3
        paper grid into 1009 buckets, so distinct (cell, replication) pairs
        could collide; the mix-based derivation must keep all 300 distinct."""
        seeds = self._paper_full_seeds()
        assert len(seeds) == 300
        assert len(set(seeds)) == 300

    def test_derivation_is_deterministic(self):
        assert self._paper_full_seeds() == self._paper_full_seeds()

    def test_known_values_are_platform_stable(self):
        """The derivation goes through the volume's IEEE-754 bit pattern and
        a fixed 64-bit mix — no ``hash`` — so these values must never change
        on any platform or Python version."""
        assert replication_seed(0, 0.5, 1, 0) == 13043317973076582493
        assert replication_seed(2014, 1.0, 10, 2) == 11234569143416778289

    def test_axes_change_the_seed(self):
        base = replication_seed(7, 0.5, 2, 1)
        assert replication_seed(8, 0.5, 2, 1) != base
        assert replication_seed(7, 0.6, 2, 1) != base
        assert replication_seed(7, 0.5, 3, 1) != base
        assert replication_seed(7, 0.5, 2, 2) != base


class TestSummarizeRunConsistency:
    def test_partially_converged_run_reports_no_constitution_stats(self, small_grid):
        """Regression: ``constitution_min_s`` used to be reported from
        partially-converged runs while max/avg required full convergence;
        all three must now agree (None until every checkpoint stabilized)."""
        sim = Simulation(small_grid, ScenarioConfig(rng_seed=1))
        sim.run_for(5.0)
        sim.protocol.stabilization_times = lambda: {"a": 10.0, "b": None}
        result = sim.result()
        assert not result.converged
        assert result.constitution_time_s is None
        assert result.constitution_min_s is None
        assert result.constitution_avg_s is None

    def test_fully_converged_run_reports_all_three(self, small_grid):
        sim = Simulation(small_grid, ScenarioConfig(rng_seed=1))
        sim.run_for(5.0)
        sim.protocol.stabilization_times = lambda: {"a": 10.0, "b": 30.0}
        result = sim.result()
        assert result.converged
        assert result.constitution_time_s == 30.0
        assert result.constitution_min_s == 10.0
        assert result.constitution_avg_s == 20.0


class TestRunner:
    def test_sweep_spec_validation(self):
        with pytest.raises(ExperimentError):
            SweepSpec(volumes=())
        with pytest.raises(ExperimentError):
            SweepSpec(replications=0)
        with pytest.raises(ExperimentError):
            SweepSpec(seed_counts=(0,))

    def test_paper_full_spec_dimensions(self):
        spec = SweepSpec.paper_full()
        assert len(spec.volumes) == 10 and len(spec.seed_counts) == 10

    def test_run_single_and_sweep(self, simple_model_config):
        factory = lambda: grid_network(3, 3, lanes=1)
        result = run_single(factory, simple_model_config)
        assert result.is_exact and result.converged

        runner = ExperimentRunner(factory, simple_model_config, name="unit-sweep")
        sweep = runner.run_sweep(SweepSpec(volumes=(0.5,), seed_counts=(1, 2), replications=1))
        assert len(sweep.cells) == 2
        assert sweep.all_exact
        assert sweep.volumes == [0.5] and sweep.seed_counts == [1, 2]

    def test_parallel_sweep_identical_to_serial(self, simple_model_config):
        spec = SweepSpec(volumes=(0.4, 0.8), seed_counts=(1,), replications=2)
        serial = ExperimentRunner(_grid_factory, simple_model_config).run_sweep(spec)
        parallel = ExperimentRunner(
            _grid_factory, simple_model_config, parallel=True, max_workers=2
        ).run_sweep(spec)
        # Bitwise-identical aggregates: every cell, every run, every stat.
        assert parallel.cells == serial.cells
        assert parallel.name == serial.name

    def test_parallel_sweep_falls_back_on_unpicklable_factory(self, simple_model_config):
        factory = lambda: grid_network(3, 3, lanes=1)  # lambdas cannot pickle
        # max_workers=2 opts past the cpu-count/tiny-grid heuristics so the
        # pickle check is actually reached (and must warn + fall back).
        runner = ExperimentRunner(
            factory, simple_model_config, parallel=True, max_workers=2
        )
        spec = SweepSpec(volumes=(0.5,), seed_counts=(1, 2), replications=1)
        with pytest.warns(UserWarning, match="parallel sweep disabled"):
            sweep = runner.run_sweep(spec)
        assert len(sweep.cells) == 2
        assert sweep.all_exact
