"""Experiment API units: serialization, NetworkSpec, store, observers, CLI.

The integration-level guarantees (replay bit-for-bit across the engine x
pipeline matrix, resume identity) live in
``tests/integration/test_experiment_api.py``; this module covers the pieces.
"""

import json
import os
import pickle

import pytest

from repro.errors import ConfigurationError, ExperimentError, RoadNetworkError
from repro.experiments import (
    EarlyStopObserver,
    ExperimentSpec,
    NetworkSpec,
    Observer,
    ProgressObserver,
    ResultStore,
    builder_names,
    config_hash,
    get_builder,
    replay,
)
from repro.mobility.demand import (
    ConstantProfile,
    DemandConfig,
    MarkovModulatedProfile,
    PiecewiseProfile,
    SinusoidalProfile,
    profile_from_dict,
    profile_type_names,
)
from repro.core.patrol import PatrolPlan
from repro.core.protocol import ProtocolConfig
from repro.sim.config import MobilityConfig, ScenarioConfig, WirelessConfig
from repro.sim.results import RunResult, SweepCell, SweepResult
from repro.sim.runner import ExperimentRunner, SweepSpec
from repro.sim.simulator import Simulation
from repro.scenarios import iter_scenarios
from repro.surveillance.attributes import WHITE_VAN, ExteriorSignature


def _make_result(**overrides):
    defaults = dict(
        scenario_name="x",
        rng_seed=3,
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
        adjustments=2,
        inside_at_end=40,
        converged=True,
        collection_converged=True,
        protocol_stats={"crossings_processed": 812},
        engine_stats={"steps": 600},
        exchange_stats={"exchanges": 99, "failure_rate": 0.25},
    )
    defaults.update(overrides)
    return RunResult(**defaults)


class TestConfigSerialization:
    def test_scenario_config_round_trip_through_json(self):
        cfg = ScenarioConfig(
            name="rt",
            rng_seed=99,
            num_seeds=4,
            demand=DemandConfig(
                volume_fraction=0.7,
                profile=PiecewiseProfile.rush_hour(
                    gate_weights=(((0, 0), 3.0), ("hub", 0.5)),
                ),
            ),
            mobility=MobilityConfig(vectorized=False, admissions_per_step=2),
            wireless=WirelessConfig(loss_probability=0.4, attempts_per_contact=6),
            protocol=ProtocolConfig(count_target=WHITE_VAN),
            patrol=PatrolPlan(num_cars=3, speed_factor=1.2),
            open_system=False,
            batched=False,
            settle_extra_s=30.0,
        )
        data = json.loads(json.dumps(cfg.to_dict()))
        assert ScenarioConfig.from_dict(data) == cfg

    def test_from_dict_tolerates_sparse_files(self):
        cfg = ScenarioConfig.from_dict({"name": "sparse", "rng_seed": 5})
        assert cfg.name == "sparse" and cfg.rng_seed == 5
        assert cfg.demand == DemandConfig()  # defaults fill the rest

    def test_all_profile_variants_round_trip(self):
        profiles = [
            ConstantProfile(),
            PiecewiseProfile(breakpoints=((0.0, 0.5), (60.0, 2.0)), period_s=120.0),
            SinusoidalProfile(period_s=600.0, amplitude=0.9, phase_s=30.0, floor=0.1),
            MarkovModulatedProfile(multipliers=(0.2, 4.0), mean_dwell_s=(100.0, 50.0), chain_seed=9),
        ]
        for profile in profiles:
            data = json.loads(json.dumps(profile.to_dict()))
            clone = profile_from_dict(data)
            assert clone == profile and type(clone) is type(profile)

    def test_profile_gate_weight_nodes_survive(self):
        """Tuple node ids become JSON arrays and must come back as tuples."""
        profile = ConstantProfile(gate_weights=(((0, 0), 3.0), (("w", 1, 2), 1.0)))
        clone = profile_from_dict(json.loads(json.dumps(profile.to_dict())))
        assert clone == profile
        assert clone.gate_weights[0][0] == (0, 0)

    def test_unknown_profile_type_rejected(self):
        with pytest.raises(ConfigurationError, match="known types"):
            profile_from_dict({"type": "nope"})
        assert set(profile_type_names()) >= {
            "constant", "piecewise", "sinusoidal", "markov-modulated",
        }

    def test_signature_round_trip(self):
        assert ExteriorSignature.from_dict(WHITE_VAN.to_dict()) == WHITE_VAN
        wild = ExteriorSignature()
        assert ExteriorSignature.from_dict(wild.to_dict()) == wild

    def test_sweep_spec_round_trip(self):
        spec = SweepSpec.paper_full(replications=3)
        assert SweepSpec.from_dict(json.loads(json.dumps(spec.to_dict()))) == spec


class TestRunResultRoundTrip:
    def test_round_trip_is_lossless(self):
        """Regression: as_dict used to drop adjustments, inside_at_end,
        simulated_s and the stats dicts, so stored records could not rebuild
        the result."""
        result = _make_result()
        clone = RunResult.from_dict(json.loads(json.dumps(result.as_dict())))
        assert clone == result

    def test_round_trip_preserves_nones(self):
        result = _make_result(
            constitution_time_s=None,
            constitution_min_s=None,
            constitution_avg_s=None,
            collection_time_s=None,
            collected_count=None,
            converged=False,
            collection_converged=False,
        )
        clone = RunResult.from_dict(json.loads(json.dumps(result.as_dict())))
        assert clone == result

    def test_as_dict_keeps_derived_error_key(self):
        assert _make_result(protocol_count=42).as_dict()["miscount_error"] == 2


class TestSweepResultCellLookup:
    def _sweep(self):
        cells = [
            SweepCell(volume_fraction=v / 10.0, num_seeds=1, runs=(_make_result(volume_fraction=v / 10.0),))
            for v in range(1, 11)
        ]
        return SweepResult(name="s", cells=cells)

    def test_cell_found_under_float_noise(self):
        """Regression: exact ``==`` missed grid cells when the query float
        came from different arithmetic than the ``v / 10.0`` grid value
        (e.g. ``0.1 + 0.2`` vs ``3 / 10.0``)."""
        sweep = self._sweep()
        assert sweep.cell(0.1 + 0.2, 1).volume_fraction == 3 / 10.0
        assert sweep.cell(0.3, 1).volume_fraction == 3 / 10.0
        assert sweep.cell(1.0000000001, 1).volume_fraction == 1.0

    def test_cell_missing_still_raises(self):
        with pytest.raises(KeyError):
            self._sweep().cell(0.35, 1)
        with pytest.raises(KeyError):
            self._sweep().cell(0.3, 2)

    def test_metric_single_filter_site(self):
        """None values are dropped once, inside AggregateStat.from_values."""
        runs = (
            _make_result(constitution_time_s=60.0),
            _make_result(constitution_time_s=None),
        )
        cell = SweepCell(volume_fraction=0.5, num_seeds=1, runs=runs)
        stat = cell.metric("constitution_time_s")
        assert stat.count == 1 and stat.mean == 60.0


class TestNetworkSpec:
    def test_build_resolves_registry(self):
        net = NetworkSpec("grid", args=(3, 3), kwargs={"lanes": 2}).build()
        assert len(list(net.nodes)) == 9

    def test_spec_is_callable_factory_and_picklable(self):
        spec = NetworkSpec("ring", args=(4,))
        assert spec() is not spec()  # fresh network per call
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec

    def test_round_trip_normalizes_lists(self):
        spec = NetworkSpec("grid", args=[4, 4], kwargs={"lanes": 2})
        data = json.loads(json.dumps(spec.to_dict()))
        assert NetworkSpec.from_dict(data) == spec
        assert spec.args == (4, 4)

    def test_unknown_builder_rejected_at_build_time(self):
        spec = NetworkSpec("no-such-builder")
        with pytest.raises(RoadNetworkError, match="known builders"):
            spec.build()

    def test_registry_contents(self):
        assert {"grid", "ring", "midtown", "arterial", "two-district"} <= set(builder_names())
        assert get_builder("grid") is not None


class TestExperimentSpec:
    def _spec(self, **kwargs):
        return ExperimentSpec(
            network=NetworkSpec("grid", args=(3, 3), kwargs={"lanes": 1}),
            config=ScenarioConfig(
                name="unit-exp", rng_seed=3, demand=DemandConfig(volume_fraction=0.6)
            ),
            **kwargs,
        )

    def test_file_round_trip(self, tmp_path):
        spec = self._spec(sweep=SweepSpec.smoke())
        path = tmp_path / "spec.json"
        spec.save(path)
        assert ExperimentSpec.load(path) == spec

    def test_from_dict_rejects_bad_format(self):
        with pytest.raises(ExperimentError, match="unsupported"):
            ExperimentSpec.from_dict({"format": "bogus/9", "network": {}, "config": {}})
        with pytest.raises(ExperimentError, match="'network' and 'config'"):
            ExperimentSpec.from_dict({"format": "repro-experiment-spec/1"})

    def test_every_registry_scenario_serializes(self, tmp_path):
        """Acceptance: every registry entry becomes a loadable spec file."""
        for defn in iter_scenarios():
            path = tmp_path / f"{defn.name}.json"
            spec = defn.to_spec()
            spec.save(path)
            loaded = ExperimentSpec.load(path)
            assert loaded == spec
            assert loaded.config == defn.config

    def test_run_single_returns_run_result(self):
        result = self._spec().run()
        assert result.is_exact and result.converged

    def test_resume_requires_store(self):
        with pytest.raises(ExperimentError, match="requires a result store"):
            self._spec().run(resume=True)


class TestResultStore:
    def _spec(self, sweep=None):
        return ExperimentSpec(
            network=NetworkSpec("grid", args=(3, 3), kwargs={"lanes": 1}),
            config=ScenarioConfig(
                name="store-exp", rng_seed=3, demand=DemandConfig(volume_fraction=0.6)
            ),
            sweep=sweep,
        )

    def test_manifest_provenance(self, tmp_path):
        from repro._version import __version__

        spec = self._spec()
        store = ResultStore(tmp_path / "s")
        store.initialize(spec)
        manifest = store.manifest()
        assert manifest["config_hash"] == config_hash(spec)
        assert manifest["package_version"] == __version__
        assert manifest["root_seed"] == spec.config.rng_seed
        assert manifest["mode"] == "single"
        assert manifest["created_unix_s"] > 0
        assert ResultStore(tmp_path / "s").spec() == spec

    def test_initialize_rejects_foreign_spec(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        store.initialize(self._spec())
        other = self._spec().with_config(
            self._spec().config.with_rng_seed(999)
        )
        with pytest.raises(ExperimentError, match="different"):
            ResultStore(tmp_path / "s").initialize(other)

    def test_records_last_write_wins_and_torn_line_ignored(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        store.initialize(self._spec())
        store.record_run(_make_result(protocol_count=1), volume=0.5, seeds=1, replication=0)
        store.record_run(_make_result(protocol_count=2), volume=0.5, seeds=1, replication=0)
        with open(store.runs_path, "a", encoding="utf-8") as fh:
            fh.write('{"volume": 0.9, "seeds": 1, "replication"')  # torn write
        fresh = ResultStore(tmp_path / "s")
        records = fresh.records()
        assert len(records) == 1
        assert records[(0.5, 1, 0)]["result"]["protocol_count"] == 2

    def test_load_cell_requires_all_replications(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        store.initialize(self._spec())
        store.record_run(_make_result(), volume=0.5, seeds=1, replication=0)
        assert store.load_cell(0.5, 1, 2) is None
        store.record_run(_make_result(), volume=0.5, seeds=1, replication=1)
        cell = store.load_cell(0.5, 1, 2)
        assert cell is not None and len(cell.runs) == 2

    def test_load_result_reports_missing_cells(self, tmp_path):
        spec = self._spec(sweep=SweepSpec(volumes=(0.5,), seed_counts=(1,), replications=1))
        store = ResultStore(tmp_path / "s")
        store.initialize(spec)
        with pytest.raises(ExperimentError, match="missing cell"):
            store.load_result()

    def test_open_missing_store_fails(self, tmp_path):
        with pytest.raises(ExperimentError, match="no result store"):
            ResultStore(tmp_path / "nope").manifest()


class TestObservers:
    def _sim(self, simple_model_config, small_grid):
        return Simulation(small_grid, simple_model_config)

    def test_run_hooks_fire_in_order(self, small_grid, simple_model_config):
        events = []

        class Recorder(Observer):
            def on_run_start(self, sim):
                events.append("start")

            def on_step(self, sim, step_index):
                if not events or events[-1] != "step":
                    events.append("step")

            def on_converged(self, sim, time_s):
                events.append(("converged", time_s))

            def on_run_end(self, sim, result):
                events.append(("end", result.is_exact))

        result = Simulation(small_grid, simple_model_config).run(observers=[Recorder()])
        assert events[0] == "start"
        assert ("end", True) == events[-1]
        assert any(isinstance(e, tuple) and e[0] == "converged" for e in events)
        assert result.is_exact

    def test_observed_run_identical_to_unobserved(self, small_grid, simple_model_config):
        baseline = Simulation(small_grid, simple_model_config).run()
        with open(os.devnull, "w") as sink:
            observed = Simulation(small_grid, simple_model_config).run(
                observers=[ProgressObserver(stream=sink, every_s=10.0)]
            )
        assert observed == baseline

    def test_early_stop_by_simulated_time(self, small_grid, simple_model_config):
        sim = Simulation(small_grid, simple_model_config)
        sim.run(observers=[EarlyStopObserver(max_simulated_s=5.0)])
        assert sim.engine.time_s <= 6.0  # stopped right after the budget
        assert sim.stopped_early

    def test_completed_run_is_not_marked_stopped(self, small_grid, simple_model_config):
        sim = Simulation(small_grid, simple_model_config)
        sim.run()
        assert not sim.stopped_early

    def test_early_stopped_single_run_not_recorded(self, tmp_path):
        """A truncated result depends on the observer, not the spec: it must
        not be persisted, or resume would return it forever and replay could
        never match."""
        spec = ExperimentSpec(
            network=NetworkSpec("grid", args=(3, 3), kwargs={"lanes": 1}),
            config=ScenarioConfig(
                name="truncated", rng_seed=3, demand=DemandConfig(volume_fraction=0.6)
            ),
        )
        store = ResultStore(tmp_path / "s")
        truncated = spec.run(
            store=store, observers=[EarlyStopObserver(max_simulated_s=5.0)]
        )
        assert not truncated.converged
        assert store.load_single() is None  # nothing was recorded
        # The store still works for a subsequent full run + replay.
        full = spec.run(store=store)
        assert store.load_single() == full
        assert replay(store).matches

    def test_duck_typed_observer_needs_no_base_class(self, small_grid, simple_model_config):
        class Minimal:
            steps = 0

            def on_step(self, sim, step_index):
                self.steps += 1

        obs = Minimal()
        Simulation(small_grid, simple_model_config).run(observers=[obs])
        assert obs.steps > 0

    def test_sweep_cell_hooks_and_early_stop(self, simple_model_config):
        runner = ExperimentRunner(
            NetworkSpec("grid", args=(3, 3), kwargs={"lanes": 1}), simple_model_config
        )
        spec = SweepSpec(volumes=(0.4, 0.8), seed_counts=(1, 2), replications=1)
        done = []

        class CellRecorder(Observer):
            def on_cell_done(self, cell, index, total):
                done.append((index, total))

        full = runner.run_sweep(spec, observers=[CellRecorder()])
        assert len(full.cells) == 4 and done == [(0, 4), (1, 4), (2, 4), (3, 4)]

        stopper = EarlyStopObserver(max_cells=2)
        partial = runner.run_sweep(spec, observers=[stopper])
        assert len(partial.cells) == 2
        assert partial.cells == full.cells[:2]

    def test_skip_cells_are_reported_not_rerun(self, simple_model_config):
        runner = ExperimentRunner(
            NetworkSpec("grid", args=(3, 3), kwargs={"lanes": 1}), simple_model_config
        )
        spec = SweepSpec(volumes=(0.4, 0.8), seed_counts=(1,), replications=1)
        full = runner.run_sweep(spec)
        seen = []

        class CellRecorder(Observer):
            def on_cell_done(self, cell, index, total):
                seen.append(index)

        cached = {(c.volume_fraction, c.num_seeds): c for c in full.cells}
        resumed = runner.run_sweep(
            spec,
            observers=[CellRecorder()],
            skip=lambda v, s: cached.get((v, s)),
        )
        assert resumed.cells == full.cells
        assert seen == [0, 1]


class TestCliExperimentVerbs:
    def _write_spec(self, tmp_path, *, sweep=None, name="cli-spec"):
        spec = ExperimentSpec(
            network=NetworkSpec("grid", args=(3, 3), kwargs={"lanes": 1}),
            config=ScenarioConfig(
                name=name, rng_seed=3, demand=DemandConfig(volume_fraction=0.6)
            ),
            sweep=sweep,
        )
        path = tmp_path / "spec.json"
        spec.save(path)
        return path, spec

    def test_run_config_save_then_replay(self, tmp_path, capsys):
        from repro.cli import main

        path, _spec = self._write_spec(tmp_path)
        store = tmp_path / "store"
        assert main(["run", "--config", str(path), "--save", str(store), "--json"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["protocol_count"] == record["ground_truth"]
        assert (store / "manifest.json").is_file()
        assert main(["replay", str(store)]) == 0
        assert "REPRODUCED" in capsys.readouterr().out

    def test_run_config_rejects_midtown_flags(self, tmp_path, capsys):
        from repro.cli import main

        path, _spec = self._write_spec(tmp_path)
        assert main(["run", "--config", str(path), "--scale", "0.5"]) == 2
        err = capsys.readouterr().err
        assert "--scale" in err and "incompatible" in err

    def test_run_config_and_scenario_mutually_exclusive(self, tmp_path, capsys):
        from repro.cli import main

        path, _spec = self._write_spec(tmp_path)
        assert main(["run", "--config", str(path), "--scenario", "lossy-grid"]) == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_sweep_resume_completes_interrupted_store(self, tmp_path, capsys):
        from repro.cli import main

        sweep = SweepSpec(volumes=(0.4, 0.8), seed_counts=(1,), replications=1)
        path, spec = self._write_spec(tmp_path, sweep=sweep)
        store = tmp_path / "store"
        # Interrupt after the first cell, then resume via the CLI.
        spec.run(store=store, observers=[EarlyStopObserver(max_cells=1)])
        assert ResultStore(store).load_cell(0.8, 1, 1) is None
        assert main(["sweep", "--spec", str(path), "--out", str(store), "--resume"]) == 0
        capsys.readouterr()
        assert ResultStore(store).load_cell(0.8, 1, 1) is not None
        assert main(["replay", str(store)]) == 0
        assert "REPRODUCED" in capsys.readouterr().out

    def test_sweep_requires_sweep_section(self, tmp_path, capsys):
        from repro.cli import main

        path, _spec = self._write_spec(tmp_path)
        assert main(["sweep", "--spec", str(path), "--out", str(tmp_path / "s")]) == 2
        assert "no 'sweep' section" in capsys.readouterr().err

    def test_replay_missing_store_fails_cleanly(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["replay", str(tmp_path / "nope")]) == 2
        assert "no result store" in capsys.readouterr().err

    def test_export_spec_writes_loadable_file(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "lossy.json"
        assert main(["export-spec", "lossy-grid", "--out", str(out)]) == 0
        capsys.readouterr()
        spec = ExperimentSpec.load(out)
        assert spec.config.name == "lossy-grid"
        assert main(["export-spec", "no-such"]) == 2
