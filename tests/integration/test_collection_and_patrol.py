"""Algorithm 2 / 4 integration: collection to the seed(s), patrol support,
deadlock resolution (Theorem 3) and the midtown scenario end-to-end."""

import pytest

from repro.core.patrol import PatrolPlan
from repro.core.protocol import ProtocolConfig
from repro.mobility.demand import DemandConfig
from repro.roadnet.builders import grid_network, ring_network
from repro.roadnet.manhattan import build_midtown_grid
from repro.sim.config import MobilityConfig, ScenarioConfig, WirelessConfig
from repro.sim.simulator import Simulation
from repro.surveillance.attributes import WHITE_VAN


class TestCollection:
    def test_seed_obtains_exact_global_view(self, two_lane_grid, extended_model_config):
        sim = Simulation(two_lane_grid, extended_model_config)
        result = sim.run()
        assert result.collection_converged
        assert result.collected_count == result.ground_truth
        # collection can only finish after the constitution
        assert result.collection_time_s >= result.constitution_time_s

    def test_collection_with_multiple_seeds_partitions_the_count(self, two_lane_grid, extended_model_config):
        sim = Simulation(two_lane_grid, extended_model_config.with_seeds(3))
        result = sim.run()
        assert result.collection_converged
        per_seed = [sim.protocol.collection.subtree_value(seed) for seed in sim.seeds]
        assert sum(per_seed) == result.ground_truth
        # at least one seed owns part of the tree (no seed needs to own all)
        assert all(v >= 0 for v in per_seed)

    def test_collection_disabled_reports_nothing(self, small_grid, simple_model_config):
        config = ScenarioConfig(
            name="no-collection",
            rng_seed=simple_model_config.rng_seed,
            demand=simple_model_config.demand,
            wireless=simple_model_config.wireless,
            mobility=simple_model_config.mobility,
            protocol=ProtocolConfig(collection_enabled=False),
        )
        sim = Simulation(small_grid, config)
        result = sim.run()
        assert result.converged
        assert result.collection_time_s is None
        assert result.collected_count is None
        assert result.protocol_stats["crossings_processed"] > 0

    def test_reports_travel_toward_predecessors_only(self, small_grid, simple_model_config):
        sim = Simulation(small_grid, simple_model_config)
        sim.run()
        manager = sim.protocol.collection
        for node, reports in manager.child_reports.items():
            for child in reports:
                assert sim.protocol.checkpoint(child).predecessor == node


class TestLateArrivalAfterReport:
    """A leaf checkpoint's Alg. 2 report can leave before the exact-mode
    safety net counts a late arrival there, and nothing re-reports it.

    On ``grid_network(3, 3, lanes=1)``, closed, with two seeds and the
    default 30 % loss, two runs count exactly (``protocol_count`` is the
    ground truth, 42 and 43) but collect one short.  For rng seed 6226,
    leaf (0, 2) becomes stable and sends its report, value 1, in the step
    that ends at t = 125.5 s; in the step that ends at t = 127.0 s the
    safety net (``cp.adjustments += 1`` in
    ``CountingProtocol.process_batch``'s plain-crossing tally and in
    ``_count_arrival``, mirroring Alg. 3 line 7) counts a late, uncounted
    arrival there, so its subtree holds 2 while the seed collected 1.  For
    228 the leaf is (1, 0).  The third run is multilane with one seed and a
    lossless channel, ``grid_network(3, 4, lanes=2)`` at rng seed 354: it
    counts 66 and collects 65, and leaf (1, 1) reported 8 and ends holding
    9 (``adjustments`` 1).  cc, NumPy and the reference engine agree.  A
    fix may move pinned benchmark digests, so the defect is pinned here
    until a change that may re-pin them.
    """

    # (rows, cols, lanes, seeds, rng seed, volume, loss), named by seed-volume
    RUNS = [
        pytest.param((3, 3, 1, 2, 6226, 0.875, 0.3), id="6226-0.875"),
        pytest.param((3, 3, 1, 2, 228, 0.890625, 0.3), id="228-0.890625"),
        pytest.param((3, 4, 2, 1, 354, 0.96875, 0.0), id="354-0.96875"),
    ]

    @staticmethod
    def run(rows, cols, lanes, num_seeds, rng_seed, volume, loss):
        config = ScenarioConfig(
            name="late-arrival",
            rng_seed=rng_seed,
            num_seeds=num_seeds,
            demand=DemandConfig(volume_fraction=volume),
            wireless=WirelessConfig(loss_probability=loss),
            max_duration_s=3600.0,
        )
        return Simulation(grid_network(rows, cols, lanes=lanes), config).run()

    @pytest.mark.parametrize("run_args", RUNS)
    def test_the_count_is_exact(self, run_args):
        result = self.run(*run_args)
        assert result.converged and result.is_exact

    @pytest.mark.xfail(
        strict=True,
        reason="known defect: a leaf's Alg. 2 report can precede an exact-mode "
        "adjustment at that leaf, which is never re-reported, so the collected "
        "count is one short; a fix may move pinned benchmark digests",
    )
    @pytest.mark.parametrize("run_args", RUNS)
    def test_collected_count_is_the_ground_truth(self, run_args):
        result = self.run(*run_args)
        assert result.collected_count == result.ground_truth


class TestPatrolSupport:
    def test_one_way_collection_needs_patrol(self):
        """On a fully one-way ring the Alg. 2 hop toward the predecessor does
        not exist, so collection stalls without patrol cars and completes with
        them (Alg. 4)."""
        net = ring_network(8, one_way=True)
        base = dict(
            rng_seed=13,
            demand=DemandConfig(volume_fraction=0.8),
            # Reports must travel the circuitous way around the ring, one tree
            # level per patrol lap, so give the patrols a few laps of headroom.
            max_duration_s=6000.0,
        )
        without = Simulation(net, ScenarioConfig(name="no-patrol", patrol=PatrolPlan(0), **base)).run()
        with_patrol = Simulation(net, ScenarioConfig(name="patrol", patrol=PatrolPlan(2), **base)).run()
        assert not without.collection_converged
        assert with_patrol.collection_converged
        assert with_patrol.collected_count == with_patrol.ground_truth

    def test_patrol_resolves_orphan_deadlock(self):
        """Theorem 3: if traffic deliberately avoids part of the network
        ("odd traffic pattern"), the counting deadlocks; a patrol car driving
        the covering cycle ends every stalled counting."""
        import numpy as np

        from repro.core.patrol import CyclePatrolRouter, build_patrol_cycle
        from repro.core.protocol import CountingProtocol
        from repro.mobility.demand import VehicleSpec
        from repro.mobility.engine import TrafficEngine
        from repro.roadnet.builders import line_network
        from repro.roadnet.routing import Router, RoutePlan
        from repro.surveillance.attributes import random_signature
        from repro.wireless.exchange import ExchangeService

        class ShuttleRouter(Router):
            """Ping-pongs between intersections 0 and 1, never visiting 2."""

            def plan_from(self, node):
                return RoutePlan(waypoints=[1 if node == 0 else 0])

            def next_hop(self, node, plan, previous=None):
                return 1 if node == 0 else 0

        def build(with_patrol: bool):
            net = line_network(3, length_m=150.0)
            rng = np.random.default_rng(17)
            engine = TrafficEngine(net, rng, allow_overtaking=False)
            protocol = CountingProtocol(
                net, [0], rng, exchange=ExchangeService.perfect(rng)
            )
            spec = VehicleSpec(
                signature=random_signature(rng),
                desired_speed_mps=8.0,
                origin=0,
                router=ShuttleRouter(net, rng),
            )
            engine.spawn_initial([spec])
            if with_patrol:
                cycle = build_patrol_cycle(net)
                engine.spawn_patrol(CyclePatrolRouter(net, rng, cycle), cycle[0])
            for _ in range(int(1800.0 / engine.dt_s)):
                protocol.handle_events(engine.step())
            return protocol

        stalled = build(with_patrol=False)
        rescued = build(with_patrol=True)
        assert not stalled.all_stable(), "expected a deadlock when traffic avoids intersection 2"
        assert rescued.all_stable()
        # exactly one (non-patrol) vehicle exists and it is counted exactly once
        assert rescued.global_count() == 1

    def test_patrol_cars_never_counted(self, small_grid, simple_model_config):
        config = ScenarioConfig(
            name="with-patrol",
            rng_seed=simple_model_config.rng_seed,
            demand=simple_model_config.demand,
            wireless=simple_model_config.wireless,
            mobility=simple_model_config.mobility,
            patrol=PatrolPlan(num_cars=2),
        )
        sim = Simulation(small_grid, config)
        result = sim.run()
        assert sim.patrol_count == 2
        assert result.is_exact  # ground truth excludes patrol; count must too
        assert result.protocol_stats["patrol_syncs"] > 0


class TestMidtownScenario:
    def test_closed_midtown_end_to_end(self):
        net = build_midtown_grid(scale=0.22)
        config = ScenarioConfig(
            name="midtown-it",
            rng_seed=2014,
            demand=DemandConfig(volume_fraction=0.8),
            patrol=PatrolPlan(num_cars=2),
            max_duration_s=6 * 3600.0,
        )
        sim = Simulation(net, config)
        result = sim.run()
        assert result.converged and result.collection_converged
        assert result.is_exact
        assert result.collected_count == result.ground_truth
        # timing sanity: constitution in minutes-scale, collection after it
        assert 0.0 < result.constitution_time_s < result.collection_time_s

    def test_white_van_search_on_grid(self):
        net = grid_network(4, 4, lanes=2)
        config = ScenarioConfig(
            name="white-van",
            rng_seed=1337,
            num_seeds=2,
            demand=DemandConfig(volume_fraction=1.0),
            protocol=ProtocolConfig(count_target=WHITE_VAN),
        )
        sim = Simulation(net, config)
        result = sim.run()
        assert result.converged
        assert result.protocol_count == result.ground_truth
        assert result.ground_truth < sim.engine.total_spawned()  # vans are a strict subset


class TestDeterminism:
    def test_identical_configs_identical_results(self, two_lane_grid, extended_model_config):
        r1 = Simulation(two_lane_grid, extended_model_config).run()
        r2 = Simulation(two_lane_grid, extended_model_config).run()
        assert r1.protocol_count == r2.protocol_count
        assert r1.constitution_time_s == r2.constitution_time_s
        assert r1.collection_time_s == r2.collection_time_s
        assert r1.protocol_stats == r2.protocol_stats

    def test_different_rng_seed_changes_traffic(self, two_lane_grid, extended_model_config):
        r1 = Simulation(two_lane_grid, extended_model_config).run()
        r2 = Simulation(two_lane_grid, extended_model_config.with_rng_seed(999)).run()
        assert r1.engine_stats != r2.engine_stats
