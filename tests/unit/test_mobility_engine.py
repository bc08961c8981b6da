"""Traffic engine behaviour."""

import numpy as np
import pytest

from repro.errors import MobilityError
from repro.mobility.car_following import LaneChangeModel, SimplifiedIDM
from repro.mobility.demand import DemandConfig, DemandModel, VehicleSpec
from repro.mobility.engine import TrafficEngine
from repro.mobility.events import CrossingEvent, EntryEvent, ExitEvent, OvertakeEvent
from repro.mobility.intersections import extended_policy, simple_policy
from repro.mobility.kernels import available_backends, fallback_reason
from repro.mobility.vehicle import Vehicle
from repro.roadnet.builders import grid_network, line_network, ring_network
from repro.roadnet.routing import FixedTripRouter, RandomWaypointRouter
from repro.surveillance.attributes import random_signature


def make_engine(net, seed=0, **kwargs):
    return TrafficEngine(net, np.random.default_rng(seed), **kwargs)


def spec_at(net, rng, origin, speed=8.0, via_gate=False, router=None):
    return VehicleSpec(
        signature=random_signature(rng),
        desired_speed_mps=speed,
        origin=origin,
        router=router or RandomWaypointRouter(net, rng),
        via_gate=via_gate,
    )


class TestSpawning:
    def test_initial_fleet_is_placed_on_edges(self, small_grid, rng):
        eng = make_engine(small_grid)
        dm = DemandModel(small_grid, DemandConfig(volume_fraction=0.5), rng)
        vehicles = eng.spawn_initial(dm.initial_fleet())
        assert len(vehicles) == dm.closed_fleet_size()
        assert all(v.on_edge for v in vehicles)
        assert eng.inside_count() == len(vehicles)

    def test_spawn_via_gate_emits_entry_and_crossing(self, gated_grid, rng):
        eng = make_engine(gated_grid)
        vehicle, events = eng.spawn(spec_at(gated_grid, rng, (0, 0), via_gate=True))
        kinds = [type(e).__name__ for e in events]
        assert kinds == ["EntryEvent", "CrossingEvent"]
        assert vehicle.on_edge

    def test_spawn_at_unknown_node_raises(self, small_grid, rng):
        eng = make_engine(small_grid)
        with pytest.raises(MobilityError):
            eng.spawn(spec_at(small_grid, rng, "nowhere"))

    def test_invalid_dt_rejected(self, small_grid, rng):
        for dt_s in (0.0, float("nan"), float("inf")):
            with pytest.raises(MobilityError):
                TrafficEngine(small_grid, rng, dt_s=dt_s)

    def test_spawn_patrol_not_counted_inside(self, small_grid, rng):
        from repro.core.patrol import CyclePatrolRouter, build_patrol_cycle

        eng = make_engine(small_grid)
        cycle = build_patrol_cycle(small_grid)
        patrol = eng.spawn_patrol(CyclePatrolRouter(small_grid, rng, cycle), cycle[0])
        assert patrol.is_patrol
        assert patrol.digest is not None
        assert eng.inside_count() == 0  # patrol excluded from ground truth


class TestStepping:
    def test_vehicles_eventually_cross(self, small_grid, rng):
        eng = make_engine(small_grid)
        dm = DemandModel(small_grid, DemandConfig(volume_fraction=0.5), rng)
        eng.spawn_initial(dm.initial_fleet())
        events = eng.run(120.0)
        crossings = [e for e in events if isinstance(e, CrossingEvent)]
        assert crossings, "no vehicle crossed an intersection in 2 minutes"
        assert eng.stats.crossings == len(crossings)

    def test_time_advances_by_dt(self, small_grid):
        eng = make_engine(small_grid, dt_s=0.5)
        eng.step()
        eng.step()
        assert eng.time_s == pytest.approx(1.0)

    def test_closed_system_conserves_vehicles(self, small_grid, rng):
        eng = make_engine(small_grid)
        dm = DemandModel(small_grid, DemandConfig(volume_fraction=0.5), rng)
        n = len(eng.spawn_initial(dm.initial_fleet()))
        eng.run(300.0)
        assert eng.inside_count() == n
        assert not eng.departed_vehicles()

    def test_crossing_event_segments_exist(self, small_grid, rng):
        eng = make_engine(small_grid)
        dm = DemandModel(small_grid, DemandConfig(volume_fraction=0.5), rng)
        eng.spawn_initial(dm.initial_fleet())
        for event in eng.run(180.0):
            if isinstance(event, CrossingEvent):
                if event.from_node is not None:
                    assert small_grid.has_segment(event.from_node, event.node)
                assert small_grid.has_segment(event.node, event.to_node)

    def test_positions_stay_within_segments(self, small_grid, rng):
        eng = make_engine(small_grid)
        dm = DemandModel(small_grid, DemandConfig(volume_fraction=1.0), rng)
        eng.spawn_initial(dm.initial_fleet())
        for _ in range(200):
            eng.step()
            for v in eng.vehicles.values():
                assert v.edge is not None
                seg = small_grid.segment(*v.edge)
                assert 0.0 <= v.pos_m <= seg.length_m + 1e-6

    def test_no_overtakes_without_lane_changes(self, small_grid, rng):
        eng = make_engine(small_grid, allow_overtaking=False)
        dm = DemandModel(small_grid, DemandConfig(volume_fraction=1.0), rng)
        eng.spawn_initial(dm.initial_fleet())
        events = eng.run(240.0)
        assert not [e for e in events if isinstance(e, OvertakeEvent)]

    def test_overtakes_happen_on_multilane(self, two_lane_grid, rng):
        eng = make_engine(two_lane_grid, seed=3)
        dm = DemandModel(two_lane_grid, DemandConfig(volume_fraction=1.0), np.random.default_rng(3))
        eng.spawn_initial(dm.initial_fleet())
        events = eng.run(300.0)
        assert [e for e in events if isinstance(e, OvertakeEvent)]


class TestOpenSystem:
    def test_through_traffic_exits(self, gated_grid, rng):
        eng = make_engine(gated_grid)
        router = FixedTripRouter(gated_grid, rng, destination=(3, 3), exit_on_arrival=True)
        vehicle, _ = eng.spawn(spec_at(gated_grid, rng, (0, 0), via_gate=True, router=router))
        events = eng.run(600.0)
        exits = [e for e in events if isinstance(e, ExitEvent)]
        assert len(exits) == 1
        assert exits[0].vehicle.vid == vehicle.vid
        assert exits[0].gate_node == (3, 3)
        assert eng.inside_count() == 0
        assert vehicle.exited_at_s is not None

    def test_exit_only_at_outbound_gate(self, rng):
        # A gate that is inbound-only never lets vehicles out.
        from repro.roadnet.graph import Gate

        net = grid_network(3, 3)
        net = net.open_copy([Gate(node=(2, 2), inbound=True, outbound=False)])
        eng = make_engine(net)
        router = FixedTripRouter(net, rng, destination=(2, 2), exit_on_arrival=True)
        eng.spawn(spec_at(net, rng, (0, 0), via_gate=True, router=router))
        events = eng.run(600.0)
        assert not [e for e in events if isinstance(e, ExitEvent)]
        assert eng.inside_count() == 1


class TestIntersectionPolicies:
    def test_simple_policy_admits_one_per_step(self, rng):
        net = line_network(3, length_m=60.0)
        eng = make_engine(net, policy=simple_policy(), dt_s=1.0)
        dm = DemandModel(net, DemandConfig(volume_fraction=1.5), rng)
        eng.spawn_initial(dm.initial_fleet())
        for _ in range(300):
            events = eng.step()
            per_node = {}
            for e in events:
                if isinstance(e, CrossingEvent):
                    per_node[e.node] = per_node.get(e.node, 0) + 1
            assert all(count <= 1 for count in per_node.values())

    def test_extended_policy_allows_parallel_crossings(self):
        assert extended_policy(4).admissions_per_step == 4

    def test_policy_override_per_intersection(self, small_grid):
        eng = make_engine(small_grid)
        eng.set_intersection_policy((1, 1), extended_policy(6))
        assert eng.policy_for((1, 1)).admissions_per_step == 6
        assert eng.policy_for((0, 0)).admissions_per_step == simple_policy().admissions_per_step

    def test_policy_override_unknown_node(self, small_grid):
        eng = make_engine(small_grid)
        with pytest.raises(MobilityError):
            eng.set_intersection_policy("nope", extended_policy())


class TestCounters:
    def test_counts_stay_consistent_with_populations(self, gated_grid, rng):
        eng = make_engine(gated_grid)
        dm = DemandModel(gated_grid, DemandConfig(volume_fraction=0.6), rng)
        eng.spawn_initial(dm.initial_fleet(open_system=True))
        for spec in dm.border_arrivals(200.0):
            eng.spawn(spec)
        eng.run(300.0)
        inside = [v for v in eng.vehicles.values() if not v.is_patrol]
        assert eng.inside_count() == len(inside)
        assert eng.active_count() == len(eng.vehicles)
        assert eng.active_count(include_patrol=False) == len(inside)
        assert eng.total_spawned() == len(inside) + len(eng.departed_vehicles())

    def test_counts_exclude_patrol(self, small_grid, rng):
        from repro.core.patrol import CyclePatrolRouter, build_patrol_cycle

        eng = make_engine(small_grid)
        cycle = build_patrol_cycle(small_grid)
        eng.spawn_patrol(CyclePatrolRouter(small_grid, rng, cycle), cycle[0])
        assert eng.inside_count() == 0
        assert eng.total_spawned() == 0
        assert eng.total_spawned(include_patrol=True) == 1
        assert eng.active_count() == 1
        assert eng.active_count(include_patrol=False) == 0


class TestResidentSoA:
    """The resident structure-of-arrays core and its batch event stream."""

    @pytest.mark.parametrize("vectorized", [True, False], ids=["vec-engine", "ref-engine"])
    def test_step_batch_events_carry_the_batch_time(self, two_lane_grid, vectorized):
        """Every event of a step, overtakes included, is stamped with
        ``batch.time_s``, the one time process_batch reads per step."""
        eng = TrafficEngine(two_lane_grid, np.random.default_rng(5), vectorized=vectorized)
        dm = DemandModel(
            two_lane_grid, DemandConfig(volume_fraction=1.0), np.random.default_rng(5)
        )
        eng.spawn_initial(dm.initial_fleet())
        kinds = set()
        for step in range(200):
            batch = eng.step_batch()
            assert batch.time_s == pytest.approx(step * eng.dt_s)
            for event in batch.iter_events():
                kinds.add(type(event))
                assert event.time_s == batch.time_s
        assert {CrossingEvent, OvertakeEvent} <= kinds

    def test_step_batch_plain_crossings_are_indices(self, small_grid, rng):
        eng = make_engine(small_grid)
        dm = DemandModel(small_grid, DemandConfig(volume_fraction=1.0), rng)
        eng.spawn_initial(dm.initial_fleet())
        crossings = 0
        for _ in range(200):
            batch = eng.step_batch()
            for item in batch.items:
                if type(item) is int and item >= 0:
                    crossings += 1
                    assert batch.cross_vehicle[item].vid >= 0
                    assert small_grid.has_segment(
                        batch.cross_node[item], batch.cross_to[item]
                    )
        assert crossings > 0
        assert eng.stats.crossings == crossings

    def test_slots_are_recycled_on_exit(self, gated_grid, rng):
        """Exited vehicles free their slots; arrays stay bounded."""
        eng = make_engine(gated_grid)
        for wave in range(12):
            router = FixedTripRouter(gated_grid, rng, destination=(3, 3), exit_on_arrival=True)
            eng.spawn(spec_at(gated_grid, rng, (0, 0), via_gate=True, router=router))
            for _ in range(2000):
                eng.step()
                if not eng.vehicles:
                    break
            assert eng.inside_count() == 0
        assert eng.total_spawned() == 12
        # All 12 waves reused the same slot: only one slot was ever
        # allocated, and it is back on the free list after the last exit.
        assert eng._next_slot == 1
        assert eng._free_slots == [0]

    def test_vehicle_mirrors_synced_on_public_read(self, small_grid, rng):
        """After steps, engine.vehicles exposes fresh kinematics."""
        eng = make_engine(small_grid)
        dm = DemandModel(small_grid, DemandConfig(volume_fraction=1.0), rng)
        eng.spawn_initial(dm.initial_fleet())
        for _ in range(50):
            eng.step()
        for v in eng.vehicles.values():
            assert v.slot >= 0
            assert v.pos_m == float(eng._pos[v.slot])
            assert v.speed_mps == float(eng._speed[v.slot])
        for v in eng.iter_active(include_patrol=False):
            assert not v.is_patrol

    def test_active_vehicles_list_matches_iterator(self, small_grid, rng):
        eng = make_engine(small_grid)
        dm = DemandModel(small_grid, DemandConfig(volume_fraction=0.5), rng)
        eng.spawn_initial(dm.initial_fleet())
        eng.run(30.0)
        assert eng.active_vehicles() == list(eng.iter_active())
        assert len(eng.active_vehicles(include_patrol=False)) == eng.active_count(
            include_patrol=False
        )


class TestDeterminism:
    def test_same_seed_same_trajectories(self, small_grid):
        def run(seed):
            eng = TrafficEngine(small_grid, np.random.default_rng(seed))
            dm = DemandModel(small_grid, DemandConfig(volume_fraction=0.8), np.random.default_rng(seed))
            eng.spawn_initial(dm.initial_fleet())
            events = eng.run(200.0)
            return [
                (e.time_s, e.vehicle.vid, e.node)
                for e in events
                if isinstance(e, CrossingEvent)
            ]

        assert run(11) == run(11)
        assert run(11) != run(12)

    def test_vectorized_matches_reference_engine(self, two_lane_grid):
        def run(vectorized):
            eng = TrafficEngine(
                two_lane_grid, np.random.default_rng(21), vectorized=vectorized
            )
            dm = DemandModel(
                two_lane_grid, DemandConfig(volume_fraction=1.0), np.random.default_rng(21)
            )
            eng.spawn_initial(dm.initial_fleet())
            events = eng.run(150.0)
            return (
                [(type(e).__name__, e.time_s) for e in events],
                sorted((v.vid, v.pos_m, v.speed_mps, v.lane) for v in eng.vehicles.values()),
                eng.stats.as_dict(),
            )

        assert run(True) == run(False)

    def test_rng_cannot_be_replaced(self, small_grid):
        # cc draws from the bit generator bound at construction, so a new
        # generator would split its stream from the NumPy path's.
        eng = make_engine(small_grid)
        with pytest.raises(AttributeError):
            eng.rng = np.random.default_rng(1)


class TestOccupancyOrder:
    """``occupancy(edge)`` lists an edge's vehicles in the order they
    entered it.  The production engines derive that order from their slots'
    placement numbers (``_seq``), which also order both overtake passes'
    pairs; the reference engine keeps it as a list per edge
    (``_occupancy``), appended on entry and removed from on leaving, so it
    is an independent record of the same order."""

    @pytest.mark.parametrize("compiled", [True, False], ids=["cc", "numpy"])
    @pytest.mark.parametrize("seed", [3, 8])
    def test_occupancy_order_matches_reference(self, seed, compiled):
        if compiled and not available_backends():
            pytest.skip(f"cc kernel unavailable here: {fallback_reason()}")
        runs = []
        for kwargs in ({"compiled": compiled}, {"vectorized": False}):
            net = grid_network(4, 4, lanes=2, gates_on_border=True)
            eng = TrafficEngine(net, np.random.default_rng(seed), **kwargs)
            dm = DemandModel(net, DemandConfig(volume_fraction=0.8), np.random.default_rng(seed))
            eng.spawn_initial(dm.initial_fleet(open_system=True))
            runs.append((eng, dm))
        (eng, _), (ref, _) = runs
        assert eng.kernel_backend == ("cc" if compiled else "numpy")
        edges = [seg.key for seg in eng.net.segments()]
        reordered = 0
        for step in range(300):
            for engine, dm in runs:
                for spec in dm.border_arrivals(engine.dt_s, t_s=engine.time_s):
                    engine.spawn(spec)
                engine.step()
            for edge in edges:
                got = [v.vid for v in eng.occupancy(edge)]
                assert got == [v.vid for v in ref.occupancy(edge)], (step, edge)
                reordered += got != sorted(got)
        # Entry order differs from vid order in many of these checks, so
        # they tell the two apart.
        assert reordered > 100


class TestOneLaneTie:
    """Two vehicles spawned at one origin in one step start tied at 0.0 m.

    A lane puts the lower vid in front at a tie, while the overtake ranking
    puts it behind, so when the faster, lower-vid leader pulls away the
    ranking flips and the reference engine reports an overtake.  The
    vectorized engines skip the overtake scan on a multilane segment whose
    vehicles share one lane, and miss it.  Engine seeds 0, 4 and 5 put both
    vehicles on lane 1; seeds 1-3 split them across lanes, and all engines
    agree.  Fixing this (scan every occupied multilane segment) changes
    pinned benchmark digests, so the divergence is pinned here until a
    change that may re-pin them.
    """

    @staticmethod
    def overtakes(seed, **engine_kwargs):
        net = grid_network(2, 3, lanes=2)
        eng = TrafficEngine(net, np.random.default_rng(seed), **engine_kwargs)
        rng = np.random.default_rng(99)
        for speed in (6.0, 3.0):
            router = FixedTripRouter(net, rng, destination=(1, 2))
            eng.spawn(spec_at(net, rng, (0, 0), speed=speed, router=router))
        lanes = sorted(v.lane for v in eng.vehicles.values())
        events = [
            (e.time_s, e.edge, e.passer.vid, e.passee.vid)
            for e in eng.step()
            if isinstance(e, OvertakeEvent)
        ]
        return lanes, events

    @pytest.mark.parametrize("compiled", [True, False], ids=["cc", "numpy"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_split_lanes_agree(self, seed, compiled):
        lanes, reference = self.overtakes(seed, vectorized=False)
        assert lanes == [0, 1]
        assert reference == [(0.0, ((0, 0), (0, 1)), 0, 1)]
        assert self.overtakes(seed, compiled=compiled) == (lanes, reference)

    @pytest.mark.xfail(
        strict=True,
        reason="known defect: the vectorized engines skip the overtake scan on a "
        "multilane segment whose vehicles share one lane, and miss the overtake "
        "a positional tie hides; fixing it changes pinned benchmark digests",
    )
    @pytest.mark.parametrize("compiled", [True, False], ids=["cc", "numpy"])
    @pytest.mark.parametrize("seed", [0, 4, 5])
    def test_shared_lane_matches_reference(self, seed, compiled):
        lanes, reference = self.overtakes(seed, vectorized=False)
        assert lanes == [1, 1]
        assert reference == [(0.0, ((0, 0), (0, 1)), 0, 1)]
        assert self.overtakes(seed, compiled=compiled) == (lanes, reference)

    def test_state_holds_through_the_tie(self, occupancy_state_check):
        net = grid_network(2, 3, lanes=2)
        eng = TrafficEngine(net, np.random.default_rng(0))
        rng = np.random.default_rng(99)
        for speed in (6.0, 3.0):
            router = FixedTripRouter(net, rng, destination=(1, 2))
            eng.spawn(spec_at(net, rng, (0, 0), speed=speed, router=router))
        for _ in range(80):
            occupancy_state_check(eng)
            eng.step()


class TestLaneDraw:
    """A placement draws a lane only on multilane segments.  That leaves every
    stream unchanged because NumPy answers ``integers(1)`` without touching
    the generator; a NumPy release that changes this fails here instead of
    silently shifting every run."""

    def test_integers_of_one_leaves_the_generator_alone(self):
        gen = np.random.default_rng(7)
        fresh = gen.bit_generator.state
        assert gen.integers(1) == 0
        assert gen.bit_generator.state == fresh
        gen.integers(2)  # a bounded draw buffers half of a 64-bit output
        buffered = gen.bit_generator.state
        assert buffered["has_uint32"] == 1
        assert gen.integers(1) == 0
        assert gen.bit_generator.state == buffered

    # Each engine draws its placement lane in a different place: cc and NumPy
    # in their transit passes (cc's is native), the reference in ``_place``.
    @pytest.mark.parametrize(
        "kwargs", [{}, {"compiled": False}, {"vectorized": False}],
        ids=["cc", "numpy", "reference"],
    )
    def test_single_lane_placement_draws_nothing(self, small_grid, rng, kwargs):
        eng = make_engine(small_grid, **kwargs)
        state = eng.rng.bit_generator.state
        eng.spawn(spec_at(small_grid, rng, (0, 0)))
        assert eng.rng.bit_generator.state == state


def _lockstep_fleets(make_net, seed):
    """cc (where it loads), NumPy and the reference engine on twin networks,
    each with its own demand model of one seed, which every router draws
    from: an interior fleet (random waypoints and random turns), trips that
    do not exit at their destination and two patrol cars, then border
    arrivals each step on a gated network.  Returns (engine, demand) pairs."""
    from repro.core.patrol import PatrolPlan

    kinds = [{"compiled": True}] if available_backends() else []
    runs = []
    for kwargs in kinds + [{"compiled": False}, {"vectorized": False}]:
        net = make_net()
        eng = TrafficEngine(net, np.random.default_rng(seed), **kwargs)
        dm = DemandModel(net, DemandConfig(volume_fraction=0.7, random_turn_fraction=0.4,
                                           through_traffic_fraction=0.6),
                         np.random.default_rng(seed + 1))
        eng.spawn_initial(dm.initial_fleet(open_system=bool(net.gates)))
        nodes = net.nodes
        for k in range(6):
            origin, dest = nodes[k % len(nodes)], nodes[(3 * k + 2) % len(nodes)]
            router = FixedTripRouter(net, dm.rng, dest, exit_on_arrival=False)
            eng.spawn(spec_at(net, dm.rng, origin, router=router))
        for router in PatrolPlan(num_cars=2).routers(net, dm.rng):
            eng.spawn_patrol(router, router.start_node)
        runs.append((eng, dm))
    return runs


def _step_lockstep(runs):
    """One step of every engine (border arrivals first), whose crossings
    and exits, (kind, vid, node, from, to) in stream order, and engine and
    demand generators' states must be equal; returns the crossings and
    exits."""
    out = []
    for eng, dm in runs:
        for spec in dm.border_arrivals(eng.dt_s, t_s=eng.time_s):
            eng.spawn(spec)
        out.append([
            (type(e).__name__, e.vehicle.vid, e.node, e.from_node, e.to_node)
            if isinstance(e, CrossingEvent) else
            (type(e).__name__, e.vehicle.vid, e.gate_node, e.from_node, None)
            for e in eng.step_batch().iter_events() if isinstance(e, (CrossingEvent, ExitEvent))
        ])
    first, *others = out
    assert all(other == first for other in others)
    for states in ([dm.rng.bit_generator.state for _, dm in runs],
                   [eng.rng.bit_generator.state for eng, _ in runs]):
        assert all(state == states[0] for state in states)
    return first


class TestCrossingDecisions:
    """The decision pass (cc's, or its NumPy twin) decides each crossing as
    the reference engine's ``_cross`` does through the vehicle's router:
    the same crossings and exits, in the same order, with the routers'
    generator in the same state after every step."""

    @pytest.mark.parametrize("make_net", [
        lambda: grid_network(3, 4, lanes=2, gates_on_border=True),
        lambda: ring_network(6, one_way=True),
    ], ids=["gated-two-lane-grid", "one-way-ring"])
    def test_crossings_match_reference_every_step(self, make_net):
        runs = _lockstep_fleets(make_net, 5)
        assert sum(len(_step_lockstep(runs)) for _ in range(600)) > 100
        for eng, _ in runs[:-1]:
            # every kind of row happened: the pass's, a patrol car's, a
            # trip that ran out (and, on the gated grid, an exit)
            assert eng.decisions["pass"] > 80 and eng.decisions["other_router"] > 0
            assert eng.decisions["trip_replan"] > 0 and eng.decisions["route_miss"] > 0
            assert (eng.decisions["exit"] > 0) == bool(eng.net.gates)
            assert sum(eng.decisions[k] for k in ("pass", "exit", "other_router", "trip_replan")) \
                == eng.stats.crossings + eng.stats.exits - eng.stats.entries

    def test_route_table_starting_over_changes_nothing(self):
        # At net.route_cache_limit routes the table starts over and the
        # pool keeps only the live plans: only speed may change.
        def small_cache():
            net = grid_network(3, 4, lanes=2, gates_on_border=True)
            net.route_cache_limit = 4
            return net

        runs = _lockstep_fleets(small_cache, 5)
        resets = []
        for eng, _ in runs[:-1]:
            reset = eng._reset_routes

            def counted(reset=reset):
                resets.append(reset())

            eng._reset_routes = counted
        for step in range(600):
            _step_lockstep(runs)
            assert all(eng._n_routes <= 4 for eng, _ in runs[:-1]), step
        assert len(resets) > 10

    def test_vehicle_plans_match_reference_when_read(self):
        runs = _lockstep_fleets(lambda: grid_network(3, 4, lanes=2, gates_on_border=True), 9)
        for step in range(120):
            _step_lockstep(runs)
            if step % 20:
                continue
            plans = [
                sorted((vid, v.plan.waypoints, v.plan.exits_at)
                       for vid, v in eng.vehicles.items())
                for eng, _ in runs
            ]
            assert all(plan == plans[-1] for plan in plans), step
            departed = [sorted((v.vid, v.plan.waypoints, v.plan.exits_at)
                               for v in eng.iter_departed()) for eng, _ in runs]
            assert all(d == departed[-1] for d in departed), step

    def test_decision_counts_on_midtown_open(self):
        from repro.scenarios import get_scenario

        sim = get_scenario("midtown-open").simulation()
        sim.run()
        stats = sim.engine.stats
        assert sim.engine.decisions == {
            "pass": 37608, "exit": 365, "other_router": 412, "trip_replan": 0, "route_miss": 335,
        }
        assert stats.crossings + stats.exits - stats.entries == 37608 + 365 + 412
