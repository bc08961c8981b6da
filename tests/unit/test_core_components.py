"""Collection manager, patrol, seeds, baselines, convergence, snapshot units."""

import numpy as np
import networkx as nx
import pytest

from repro.core.baselines import BaselineResult, NaiveCheckpointCounting, OracleCount
from repro.core.checkpoint import Checkpoint
from repro.core.collection import CollectionManager
from repro.core.convergence import ConvergenceMonitor
from repro.core.patrol import CyclePatrolRouter, PatrolPlan, build_patrol_cycle, cycle_length_m
from repro.core.protocol import CountingProtocol, ProtocolConfig
from repro.core.seeds import central_seed, random_seeds, select_seeds, spread_seeds
from repro.core.snapshot import MessageSystem
from repro.errors import CollectionError, ConfigurationError, PatrolError, ProtocolError
from repro.mobility.vehicle import Vehicle
from repro.roadnet.builders import grid_network, line_network, ring_network, triangle_network
from repro.surveillance.attributes import ExteriorSignature
from repro.wireless.exchange import ExchangeService
from repro.wireless.messages import CounterReport, StatusDigest


# --------------------------------------------------------------------------- collection
class TestCollectionManager:
    def _setup(self):
        """A tiny hand-built spanning tree: seed <- u <- leaf."""
        checkpoints = {
            "seed": Checkpoint("seed", inbound=["u"], outbound=["u"]),
            "u": Checkpoint("u", inbound=["seed", "leaf"], outbound=["seed", "leaf"]),
            "leaf": Checkpoint("leaf", inbound=["u"], outbound=["u"]),
        }
        # Activate through labels (as the protocol does) so that every
        # checkpoint also learns its neighbours' predecessors.
        checkpoints["seed"].activate_as_seed(0.0, tree_id="seed")
        checkpoints["u"].receive_label("seed", origin_parent=None, tree_id="seed", time_s=1.0)
        checkpoints["leaf"].receive_label("u", origin_parent="seed", tree_id="seed", time_s=2.0)
        exchange = ExchangeService.perfect(np.random.default_rng(0))
        manager = CollectionManager(checkpoints, ["seed"], exchange)
        return checkpoints, manager

    def _stabilize(self, checkpoints):
        checkpoints["seed"].receive_label("u", origin_parent="seed", tree_id="seed", time_s=3.0)
        checkpoints["u"].receive_label("leaf", origin_parent="u", tree_id="seed", time_s=4.0)
        # leaf's only inbound is its predecessor -> already stable

    def test_not_ready_before_stability(self):
        checkpoints, manager = self._setup()
        assert not manager.ready_to_report("u")
        assert not manager.collection_complete("seed")

    def test_leaf_reports_then_parent_then_seed(self):
        checkpoints, manager = self._setup()
        self._stabilize(checkpoints)
        checkpoints["leaf"].record_count("u")  # c(leaf) = 1  (some vehicle)
        checkpoints["u"].record_count("leaf")  # c(u) = 1
        checkpoints["seed"].record_count("u")  # c(seed) = 1

        # leaf is stable and childless -> ready
        assert manager.ready_to_report("leaf")
        vehicle = Vehicle(vid=1, signature=ExteriorSignature(), desired_speed_mps=5.0)
        manager.on_departure(checkpoints["leaf"], "u", vehicle, 5.0)
        assert vehicle.reports and vehicle.reports[0].destination == "u"

        # deliver at u
        manager.deliver_from_vehicle(checkpoints["u"], vehicle, 6.0)
        assert manager.has_all_child_reports("u")
        assert manager.subtree_value("u") == 2

        # u reports to the seed
        assert manager.ready_to_report("u")
        vehicle2 = Vehicle(vid=2, signature=ExteriorSignature(), desired_speed_mps=5.0)
        manager.on_departure(checkpoints["u"], "seed", vehicle2, 7.0)
        manager.deliver_from_vehicle(checkpoints["seed"], vehicle2, 8.0)

        assert manager.all_seeds_done()
        assert manager.global_view() == 3
        assert manager.completion_time() == 8.0

    def test_report_not_attached_toward_non_predecessor(self):
        checkpoints, manager = self._setup()
        self._stabilize(checkpoints)
        vehicle = Vehicle(vid=1, signature=ExteriorSignature(), desired_speed_mps=5.0)
        manager.on_departure(checkpoints["leaf"], "not-the-parent", vehicle, 5.0)
        assert not vehicle.reports

    def test_duplicate_reports_are_idempotent(self):
        checkpoints, manager = self._setup()
        self._stabilize(checkpoints)
        rep = CounterReport(reporter="leaf", destination="u", value=4)
        manager.receive_report("u", rep, 5.0)
        manager.receive_report("u", CounterReport(reporter="leaf", destination="u", value=99), 6.0)
        assert manager.child_reports["u"]["leaf"] == 4

    def test_misrouted_report_rejected(self):
        checkpoints, manager = self._setup()
        with pytest.raises(CollectionError):
            manager.receive_report("seed", CounterReport(reporter="x", destination="u", value=1), 1.0)

    def test_patrol_sync_picks_up_and_delivers(self):
        checkpoints, manager = self._setup()
        self._stabilize(checkpoints)
        digest = StatusDigest()
        manager.sync_with_patrol(checkpoints["leaf"], digest, 5.0)
        assert ("leaf", "u") in digest.reports
        manager.sync_with_patrol(checkpoints["u"], digest, 6.0)
        assert manager.has_all_child_reports("u")

    @pytest.mark.parametrize(
        "last", ["stop", "label-parent", "patrol-parent", "child-report"]
    )
    def test_seed_completes_at_first_update_after_last_dependency(self, last):
        """Seed ``s`` completes once its counting from ``b`` stopped, it
        knows ``p(b)`` and its only child ``a`` reported (``a`` is settled
        up front); ``z`` has nothing to wait for.  Whichever dependency
        lands last, ``s`` is recorded at the first update after it and at
        no update before, however often the verdict was memoized."""
        checkpoints = {
            "s": Checkpoint("s", inbound=["a", "b"], outbound=["a", "b"]),
            "z": Checkpoint("z", inbound=[], outbound=[]),
        }
        for seed, seed_cp in checkpoints.items():
            seed_cp.activate_as_seed(0.0, tree_id=seed)
        cp = checkpoints["s"]
        cp.receive_label("a", origin_parent="s", tree_id="s", time_s=0.5)
        manager = CollectionManager(
            checkpoints, ["s", "z"], ExchangeService.perfect(np.random.default_rng(0))
        )
        land = {
            "stop": lambda t: cp.stop_direction("b", t),
            # b's direction is already stopped, so the label only teaches p(b)
            "label-parent": lambda t: cp.receive_label(
                "b", origin_parent="a", tree_id="s", time_s=t
            ),
            "patrol-parent": lambda t: cp.note_parent_of("b", "a"),
            "child-report": lambda t: manager.receive_report(
                "s", CounterReport(reporter="a", destination="s", value=1), t
            ),
        }
        parent = last if last.endswith("parent") else "patrol-parent"
        first = [dep for dep in ("stop", parent, "child-report") if dep != last]

        def agrees():
            return manager.all_seeds_done() == all(
                seed in manager.seed_completed_at for seed in manager.seeds
            )

        t = 1.0
        for dep in first:
            manager.update(t)
            land[dep](t + 0.25)
            manager.update(t + 0.5)
            assert "s" not in manager.seed_completed_at
            assert not manager.all_seeds_done() and agrees()
            t += 1.0
        land[last](t)
        manager.update(t + 0.5)
        # receive_report runs its own update at the report's time
        at = t if last == "child-report" else t + 0.5
        assert manager.seed_completed_at == {"z": 1.0, "s": at}
        assert manager.all_seeds_done() and agrees()

    def test_disabled_manager_is_inert(self):
        checkpoints, _ = self._setup()
        exchange = ExchangeService.perfect(np.random.default_rng(0))
        manager = CollectionManager(checkpoints, ["seed"], exchange, enabled=False)
        vehicle = Vehicle(vid=1, signature=ExteriorSignature(), desired_speed_mps=5.0)
        manager.on_departure(checkpoints["leaf"], "u", vehicle, 5.0)
        assert not vehicle.reports
        assert not manager.all_seeds_done() or manager.completion_time() is None


# --------------------------------------------------------------------------- patrol
class TestPatrol:
    def test_cycle_covers_every_node(self):
        for net in (triangle_network(), grid_network(3, 3), ring_network(6, one_way=True)):
            cycle = build_patrol_cycle(net)
            assert set(cycle) == set(net.nodes)
            # every hop is a real directed segment, including the wrap-around
            for tail, head in zip(cycle, cycle[1:] + cycle[:1]):
                assert net.has_segment(tail, head)

    def test_cycle_length_positive(self):
        net = grid_network(3, 3)
        cycle = build_patrol_cycle(net)
        assert cycle_length_m(net, cycle) > 0

    def test_cycle_router_follows_cycle(self, rng):
        net = ring_network(5, one_way=True)
        cycle = build_patrol_cycle(net)
        router = CyclePatrolRouter(net, rng, cycle)
        node = router.start_node
        visited = [node]
        from repro.roadnet.routing import RoutePlan

        for _ in range(10):
            node = router.next_hop(node, RoutePlan())
            visited.append(node)
        assert set(visited) == set(net.nodes)

    def test_router_offsets_spread_start_nodes(self, rng):
        net = grid_network(3, 3)
        plan = PatrolPlan(num_cars=3)
        routers = plan.routers(net, rng)
        assert len(routers) == 3
        assert len({r.start_node for r in routers}) > 1

    def test_zero_cars_is_allowed(self, rng):
        assert PatrolPlan(num_cars=0).routers(grid_network(3, 3), rng) == []

    def test_negative_cars_rejected(self):
        with pytest.raises(PatrolError):
            PatrolPlan(num_cars=-1)

    def test_unknown_start_rejected(self):
        with pytest.raises(PatrolError):
            build_patrol_cycle(grid_network(3, 3), start="nowhere")

    def test_router_rejects_broken_cycle(self, rng):
        net = grid_network(3, 3)
        with pytest.raises(PatrolError):
            CyclePatrolRouter(net, rng, [(0, 0), (2, 2)])  # not adjacent


# --------------------------------------------------------------------------- seeds
class TestSeedSelection:
    def test_random_seeds_distinct(self, rng):
        net = grid_network(4, 4)
        seeds = random_seeds(net, 5, rng)
        assert len(seeds) == len(set(seeds)) == 5
        assert all(net.has_node(s) for s in seeds)

    def test_spread_seeds_far_apart(self, rng):
        net = grid_network(5, 5)
        seeds = spread_seeds(net, 2, rng)
        (x1, y1), (x2, y2) = net.position(seeds[0]), net.position(seeds[1])
        assert abs(x1 - x2) + abs(y1 - y2) > 400.0

    def test_central_seed_is_middle(self):
        net = grid_network(5, 5)
        assert central_seed(net) == [(2, 2)]

    def test_select_seeds_strategies(self, rng):
        net = grid_network(4, 4)
        assert len(select_seeds(net, 3, rng, strategy="random")) == 3
        assert len(select_seeds(net, 3, rng, strategy="spread")) == 3
        assert len(select_seeds(net, 1, rng, strategy="central")) == 1

    def test_invalid_requests_rejected(self, rng):
        net = grid_network(3, 3)
        with pytest.raises(ConfigurationError):
            select_seeds(net, 0, rng)
        with pytest.raises(ConfigurationError):
            select_seeds(net, 100, rng)
        with pytest.raises(ConfigurationError):
            select_seeds(net, 2, rng, strategy="central")
        with pytest.raises(ConfigurationError):
            select_seeds(net, 2, rng, strategy="bogus")


# --------------------------------------------------------------------------- baselines
class TestBaselines:
    def test_naive_counting_overcounts(self, small_grid, rng):
        from repro.mobility.demand import DemandConfig, DemandModel
        from repro.mobility.engine import TrafficEngine

        eng = TrafficEngine(small_grid, rng)
        dm = DemandModel(small_grid, DemandConfig(volume_fraction=0.8), rng)
        eng.spawn_initial(dm.initial_fleet())
        naive = NaiveCheckpointCounting(small_grid)
        for _ in range(600):
            naive.handle_events(eng.step())
        truth = eng.inside_count()
        result = naive.result(truth)
        assert result.estimate > truth  # double counts
        assert result.overcount_factor > 1.0
        assert result.relative_error > 0.0

    def test_oracle_matches_engine(self, small_grid, rng):
        from repro.mobility.demand import DemandConfig, DemandModel
        from repro.mobility.engine import TrafficEngine

        eng = TrafficEngine(small_grid, rng)
        dm = DemandModel(small_grid, DemandConfig(volume_fraction=0.5), rng)
        eng.spawn_initial(dm.initial_fleet())
        assert OracleCount(eng).count() == eng.inside_count()

    def test_baseline_result_metrics(self):
        res = BaselineResult("x", estimate=150.0, ground_truth=100)
        assert res.absolute_error == 50.0
        assert res.relative_error == pytest.approx(0.5)
        assert res.overcount_factor == pytest.approx(1.5)

    def test_baseline_result_zero_truth(self):
        res = BaselineResult("x", estimate=0.0, ground_truth=0)
        assert res.relative_error == 0.0


# --------------------------------------------------------------------------- convergence
class TestConvergenceMonitor:
    def test_orphan_detection(self):
        net = triangle_network()
        rng = np.random.default_rng(0)
        proto = CountingProtocol(net, [1], rng, exchange=ExchangeService.perfect(rng))
        monitor = ConvergenceMonitor(proto, orphan_timeout_s=10.0)
        monitor.observe(0.0)
        # no traffic at all: after the timeout every counting segment is an orphan
        orphans = monitor.orphans(now_s=60.0)
        assert {o.segment for o in orphans} == {(2, 1), (3, 1)}
        assert all(o.waited_for(60.0) >= 10.0 for o in orphans)

    def test_traffic_resets_orphan_clock(self):
        net = triangle_network()
        rng = np.random.default_rng(0)
        proto = CountingProtocol(net, [1], rng, exchange=ExchangeService.perfect(rng))
        monitor = ConvergenceMonitor(proto, orphan_timeout_s=50.0)
        monitor.observe(0.0)
        monitor.note_traffic(2, 1, 40.0)
        orphans = {o.segment for o in monitor.orphans(now_s=60.0)}
        assert (2, 1) not in orphans and (3, 1) in orphans

    def test_waiting_chains_and_summary(self):
        net = line_network(3)
        rng = np.random.default_rng(0)
        proto = CountingProtocol(net, [0], rng, exchange=ExchangeService.perfect(rng))
        proto.checkpoints[1].activate_from(0, 1.0)
        monitor = ConvergenceMonitor(proto)
        monitor.observe(2.0)
        chains = monitor.waiting_chains(2.0)
        assert 0 in chains and 1 in chains
        summary = monitor.summary(2.0)
        assert summary["segments_still_counting"] > 0
        assert summary["all_stable_at"] is None


# --------------------------------------------------------------------------- snapshot
class TestChandyLamport:
    def test_snapshot_total_conserved_simple(self):
        system = MessageSystem({"p": 10, "q": 5, "r": 0})
        system.send("p", "q", 3)
        system.start_snapshot("p")
        system.send("q", "r", 2)
        system.drain_until_complete()
        result = system.result()
        assert result.total == 15
        assert system.current_total() == 15

    def test_in_flight_messages_recorded(self):
        system = MessageSystem({"a": 4, "b": 0})
        system.send("a", "b", 4)          # transfer in flight
        system.start_snapshot("b")        # b records before receiving it
        system.drain_until_complete()
        result = system.result()
        assert result.total == 4
        assert sum(sum(v) for v in result.channel_states.values()) in (0, 4)

    def test_result_before_completion_rejected(self):
        system = MessageSystem({"a": 1, "b": 1})
        system.start_snapshot("a")
        with pytest.raises(ProtocolError):
            system.result()

    def test_invalid_send_rejected(self):
        system = MessageSystem({"a": 1, "b": 1})
        with pytest.raises(ProtocolError):
            system.send("a", "b", 5)

    def test_empty_system_rejected(self):
        with pytest.raises(ProtocolError):
            MessageSystem({})
