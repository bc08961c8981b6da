"""Car-following, lane-change, demand, vehicle and trace models."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.mobility.car_following import LaneChangeModel, SimplifiedIDM
from repro.mobility.demand import DemandConfig, DemandModel
from repro.mobility.engine import TrafficEngine
from repro.mobility.intersections import IntersectionPolicy, roundabout_policy
from repro.mobility.trace import TraceRecorder
from repro.mobility.vehicle import MIN_GAP_M, VEHICLE_LENGTH_M, Vehicle
from repro.roadnet.builders import grid_network
from repro.surveillance.attributes import ExteriorSignature
from repro.wireless.messages import CounterReport, LabelToken


def make_vehicle(vid=0, pos=0.0, speed=0.0, desired=10.0, lane=0, **kw):
    return Vehicle(
        vid=vid,
        signature=ExteriorSignature(color="white", make="ford", body_type="van"),
        desired_speed_mps=desired,
        edge=("a", "b"),
        pos_m=pos,
        speed_mps=speed,
        lane=lane,
        **kw,
    )


class TestSimplifiedIDM:
    def test_accelerates_toward_desired_speed(self):
        idm = SimplifiedIDM(max_accel_mps2=2.0)
        v = make_vehicle(speed=0.0, desired=10.0)
        idm.advance(v, None, speed_limit_mps=15.0, segment_length_m=1000.0, dt=1.0)
        assert 0.0 < v.speed_mps <= 2.0

    def test_respects_speed_limit(self):
        idm = SimplifiedIDM()
        v = make_vehicle(speed=10.0, desired=20.0)
        for _ in range(20):
            idm.advance(v, None, speed_limit_mps=8.0, segment_length_m=10_000.0, dt=1.0)
        assert v.speed_mps <= 8.0 + 1e-9

    def test_never_passes_leader(self):
        idm = SimplifiedIDM()
        follower = make_vehicle(vid=1, pos=0.0, speed=15.0, desired=15.0)
        leader = make_vehicle(vid=2, pos=12.0, speed=0.0, desired=0.0)
        for _ in range(30):
            idm.advance(follower, leader, speed_limit_mps=15.0, segment_length_m=1000.0, dt=0.5)
        assert follower.pos_m <= leader.pos_m - VEHICLE_LENGTH_M

    def test_never_exceeds_segment_end(self):
        idm = SimplifiedIDM()
        v = make_vehicle(pos=95.0, speed=15.0, desired=15.0)
        idm.advance(v, None, speed_limit_mps=15.0, segment_length_m=100.0, dt=2.0)
        assert v.pos_m == pytest.approx(100.0)

    def test_stopped_behind_close_leader(self):
        idm = SimplifiedIDM()
        follower = make_vehicle(vid=1, pos=0.0, speed=5.0)
        leader = make_vehicle(vid=2, pos=VEHICLE_LENGTH_M + MIN_GAP_M, speed=0.0)
        assert idm.target_speed(follower, leader, 15.0, 0.5) == 0.0


class TestLaneChange:
    def test_wants_to_change_when_blocked(self):
        model = LaneChangeModel()
        slow_leader = make_vehicle(vid=1, pos=20.0, speed=2.0, desired=2.0)
        fast_follower = make_vehicle(vid=2, pos=0.0, speed=8.0, desired=12.0)
        assert model.wants_to_change(fast_follower, slow_leader)

    def test_no_change_when_leader_far(self):
        model = LaneChangeModel(blocked_distance_m=40.0)
        leader = make_vehicle(vid=1, pos=500.0, speed=2.0)
        follower = make_vehicle(vid=2, pos=0.0, desired=12.0)
        assert not model.wants_to_change(follower, leader)

    def test_target_lane_requires_gap(self, rng):
        model = LaneChangeModel(politeness=0.0)
        v = make_vehicle(vid=1, pos=50.0, lane=0, desired=12.0)
        blocker = make_vehicle(vid=2, pos=50.0, lane=1)
        assert model.target_lane(v, 2, [[v], [blocker]], rng) is None
        assert model.target_lane(v, 2, [[v], []], rng) == 1

    def test_single_lane_never_changes(self, rng):
        model = LaneChangeModel(politeness=0.0)
        v = make_vehicle()
        assert model.target_lane(v, 1, [[v]], rng) is None


class TestVehicleProtocolState:
    def test_label_bookkeeping(self):
        v = make_vehicle()
        lab1 = LabelToken(origin="a", segment=("a", "b"))
        lab2 = LabelToken(origin="c", segment=("c", "d"))
        v.labels = [lab1, lab2]
        assert v.labels_for("b") == [lab1]
        assert v.drop_labels_for("b") == [lab1]
        assert v.labels == [lab2]

    def test_report_bookkeeping(self):
        v = make_vehicle()
        rep = CounterReport(reporter="x", destination="y", value=4)
        v.reports = [rep]
        assert v.reports_for("y") == [rep]
        assert v.drop_reports_for("y") == [rep]
        assert v.reports == []

    def test_patrol_gets_digest_automatically(self):
        v = Vehicle(
            vid=1,
            signature=ExteriorSignature(),
            desired_speed_mps=10.0,
            is_patrol=True,
        )
        assert v.digest is not None
        assert v.inside


class TestDemand:
    def test_fleet_size_scales_with_volume(self, small_grid, rng):
        lo = DemandModel(small_grid, DemandConfig(volume_fraction=0.1), rng).closed_fleet_size()
        hi = DemandModel(small_grid, DemandConfig(volume_fraction=1.0), rng).closed_fleet_size()
        assert hi > lo

    def test_fleet_size_scales_with_network_length(self, rng):
        small = DemandModel(grid_network(3, 3), DemandConfig(), rng).closed_fleet_size()
        large = DemandModel(grid_network(6, 6), DemandConfig(), rng).closed_fleet_size()
        assert large > small

    def test_minimum_fleet_enforced(self, small_grid, rng):
        cfg = DemandConfig(volume_fraction=0.1, full_density_veh_per_km=0.5, min_fleet=4)
        assert DemandModel(small_grid, cfg, rng).closed_fleet_size() == 4

    def test_invalid_configs_rejected(self):
        with pytest.raises(ConfigurationError):
            DemandConfig(volume_fraction=0.0)
        with pytest.raises(ConfigurationError):
            DemandConfig(speed_factor_range=(1.0, 0.5))
        with pytest.raises(ConfigurationError):
            DemandConfig(through_traffic_fraction=2.0)

    def test_initial_fleet_origins_are_nodes(self, small_grid, rng):
        dm = DemandModel(small_grid, DemandConfig(volume_fraction=0.5), rng)
        for spec in dm.initial_fleet():
            assert small_grid.has_node(spec.origin)
            assert spec.desired_speed_mps > 0

    def test_border_arrivals_need_gates(self, small_grid, rng):
        dm = DemandModel(small_grid, DemandConfig(volume_fraction=1.0), rng)
        assert dm.border_arrivals(10.0) == []
        assert dm.entry_rate_veh_per_s() == 0.0

    def test_border_arrivals_rate(self, gated_grid):
        rng = np.random.default_rng(0)
        dm = DemandModel(gated_grid, DemandConfig(volume_fraction=1.0), rng)
        total = sum(len(dm.border_arrivals(1.0)) for _ in range(600))
        expected = dm.entry_rate_veh_per_s() * 600
        assert total == pytest.approx(expected, rel=0.3)

    def test_border_arrivals_enter_at_gates(self, gated_grid):
        rng = np.random.default_rng(1)
        dm = DemandModel(gated_grid, DemandConfig(volume_fraction=1.0), rng)
        specs = []
        for _ in range(200):
            specs.extend(dm.border_arrivals(1.0))
        assert specs
        assert all(spec.via_gate for spec in specs)
        assert all(gated_grid.is_border(spec.origin) for spec in specs)

    def test_through_traffic_with_single_outbound_gate(self):
        """Regression: one inbound-only entry gate plus one outbound gate
        must still produce through traffic (the old gating required *two*
        outbound gates and silently disabled it)."""
        from repro.roadnet.builders import grid_network as make_grid
        from repro.roadnet.graph import Gate
        from repro.roadnet.routing import FixedTripRouter

        net = make_grid(3, 3).open_copy(
            [Gate(node=(0, 0), inbound=True, outbound=False),
             Gate(node=(2, 2), inbound=False, outbound=True)]
        )
        rng = np.random.default_rng(5)
        dm = DemandModel(
            net,
            DemandConfig(volume_fraction=1.0, through_traffic_fraction=1.0),
            rng,
        )
        specs = []
        for _ in range(100):
            specs.extend(dm.border_arrivals(1.0))
        assert specs
        assert all(isinstance(spec.router, FixedTripRouter) for spec in specs)
        assert all(spec.origin == (0, 0) for spec in specs)

    def test_through_traffic_never_targets_the_entry_gate(self):
        """With a single two-way gate there is no *other* outbound gate, so
        arrivals must circulate instead of becoming through traffic."""
        from repro.roadnet.builders import grid_network as make_grid
        from repro.roadnet.graph import Gate
        from repro.roadnet.routing import FixedTripRouter

        net = make_grid(3, 3).open_copy([Gate(node=(0, 0))])
        rng = np.random.default_rng(5)
        dm = DemandModel(
            net,
            DemandConfig(volume_fraction=1.0, through_traffic_fraction=1.0),
            rng,
        )
        specs = []
        for _ in range(100):
            specs.extend(dm.border_arrivals(1.0))
        assert specs
        assert not any(isinstance(spec.router, FixedTripRouter) for spec in specs)


class TestIntersectionPolicyValidation:
    def test_invalid_admissions(self):
        # a fractional cap would be truncated by cc and fail on NumPy
        for cap in (0, 1.5, False, True):
            with pytest.raises(ConfigurationError):
                IntersectionPolicy(admissions_per_step=cap)

    def test_negative_delay(self):
        # a NaN delay would admit nobody
        for delay in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ConfigurationError):
                IntersectionPolicy(crossing_delay_s=delay)

    def test_roundabout_has_high_throughput(self):
        assert roundabout_policy().admissions_per_step >= 4


class TestTraceRecorder:
    def _run_small(self, net, rng, duration=120.0):
        eng = TrafficEngine(net, rng)
        dm = DemandModel(net, DemandConfig(volume_fraction=0.5), rng)
        eng.spawn_initial(dm.initial_fleet())
        rec = TraceRecorder(record_positions_every_s=30.0)
        for _ in range(int(duration / eng.dt_s)):
            rec.consume(eng.step())
            rec.snapshot(eng)
        return eng, rec

    def test_records_crossings_and_positions(self, small_grid, rng):
        eng, rec = self._run_small(small_grid, rng)
        kinds = {r.kind for r in rec.records}
        assert "crossing" in kinds and "position" in kinds
        assert len(rec) == len(rec.records)

    def test_visit_counts_match_engine(self, small_grid, rng):
        eng, rec = self._run_small(small_grid, rng)
        assert sum(rec.visit_counts().values()) == eng.stats.crossings

    def test_csv_export_has_header_and_rows(self, small_grid, rng):
        _eng, rec = self._run_small(small_grid, rng)
        csv = rec.to_csv()
        lines = csv.strip().splitlines()
        assert lines[0].startswith("time_s,kind,vehicle_id")
        assert len(lines) == len(rec.records) + 1

    def test_crossings_of_single_vehicle_ordered(self, small_grid, rng):
        _eng, rec = self._run_small(small_grid, rng, duration=240.0)
        counts = rec.visit_counts()
        vid = max(counts, key=counts.get)
        times = [r.time_s for r in rec.crossings_of(vid)]
        assert times == sorted(times)
        assert len(times) == counts[vid]
