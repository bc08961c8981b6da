"""CountingProtocol unit behaviour driven by hand-crafted events.

These tests drive the protocol directly with synthetic
Crossing/Overtake/Entry/Exit events on the Fig. 1 triangle, checking each
phase in isolation (the integration tests exercise the full engine loop).
"""

import numpy as np
import pytest

from repro.core.protocol import AdjustmentMode, CountingProtocol, ProtocolConfig
from repro.errors import ConfigurationError, ProtocolError
from repro.mobility.events import (
    CrossingEvent,
    EntryEvent,
    ExitEvent,
    OvertakeEvent,
    StepBatch,
)
from repro.mobility.vehicle import Vehicle
from repro.roadnet.builders import grid_network, triangle_network
from repro.roadnet.graph import Gate
from repro.surveillance.attributes import ExteriorSignature, WHITE_VAN
from repro.wireless.exchange import ExchangeService


def make_vehicle(vid, signature=None, counted=False, is_patrol=False):
    return Vehicle(
        vid=vid,
        signature=signature or ExteriorSignature(color="blue", make="ford", body_type="sedan"),
        desired_speed_mps=10.0,
        counted=counted,
        is_patrol=is_patrol,
    )


def make_protocol(net=None, seeds=(1,), **config_kw):
    net = net if net is not None else triangle_network()
    rng = np.random.default_rng(0)
    return CountingProtocol(
        net,
        list(seeds),
        rng,
        exchange=ExchangeService.perfect(rng),
        config=ProtocolConfig(**config_kw),
    )


def crossing(vehicle, node, from_node, to_node, t=1.0):
    return CrossingEvent(time_s=t, vehicle=vehicle, node=node, from_node=from_node, to_node=to_node)


class TestConstruction:
    def test_seed_checkpoints_start_active(self):
        proto = make_protocol()
        assert proto.checkpoint(1).active and proto.checkpoint(1).is_seed
        assert not proto.checkpoint(2).active

    def test_requires_at_least_one_seed(self):
        with pytest.raises(ConfigurationError):
            make_protocol(seeds=())

    def test_unknown_seed_rejected(self):
        with pytest.raises(ConfigurationError):
            make_protocol(seeds=(99,))

    def test_duplicate_seeds_rejected(self):
        with pytest.raises(ConfigurationError):
            make_protocol(seeds=(1, 1))

    def test_invalid_adjustment_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            ProtocolConfig(adjustment_mode="bogus")


class TestPhases:
    def test_seed_counts_unlabeled_vehicle(self):
        proto = make_protocol()
        v = make_vehicle(1)
        proto.handle_events([crossing(v, 1, from_node=2, to_node=3)])
        assert proto.checkpoint(1).counters[2] == 1
        assert v.counted

    def test_first_departure_gets_label(self):
        proto = make_protocol()
        v = make_vehicle(1)
        proto.handle_events([crossing(v, 1, from_node=2, to_node=3)])
        assert len(v.labels) == 1
        assert v.labels[0].origin == 1 and v.labels[0].target == 3
        assert not proto.checkpoint(1).needs_label(3)

    def test_second_departure_not_labeled(self):
        proto = make_protocol()
        v1, v2 = make_vehicle(1), make_vehicle(2)
        proto.handle_events([
            crossing(v1, 1, from_node=2, to_node=3),
            crossing(v2, 1, from_node=2, to_node=3, t=2.0),
        ])
        assert len(v1.labels) == 1 and len(v2.labels) == 0
        assert proto.checkpoint(1).counters[2] == 2

    def test_label_activates_downstream_checkpoint(self):
        proto = make_protocol()
        v = make_vehicle(1)
        proto.handle_events([crossing(v, 1, from_node=2, to_node=3)])
        proto.handle_events([crossing(v, 3, from_node=1, to_node=2, t=30.0)])
        cp3 = proto.checkpoint(3)
        assert cp3.active and cp3.predecessor == 1
        # labelled vehicle itself is not counted at the new checkpoint
        assert cp3.counters[1] == 0
        # the original label was consumed; the newly activated checkpoint 3
        # immediately re-labels the vehicle as it departs toward 2 (phase 2)
        assert not v.labels_for(3)
        assert [lab.origin for lab in v.labels] == [3]

    def test_backwash_label_stops_counting(self):
        proto = make_protocol()
        carrier = make_vehicle(1)
        proto.handle_events([crossing(carrier, 1, from_node=2, to_node=3)])
        proto.handle_events([crossing(carrier, 3, from_node=1, to_node=2, t=30.0)])
        # checkpoint 3 now labels its own outbound flows; send a vehicle 3 -> 1
        backwash = make_vehicle(2, counted=True)
        proto.handle_events([crossing(backwash, 3, from_node=2, to_node=1, t=31.0)])
        assert backwash.labels and backwash.labels[0].origin == 3
        proto.handle_events([crossing(backwash, 1, from_node=3, to_node=2, t=60.0)])
        from repro.core.checkpoint import DirectionState
        assert proto.checkpoint(1).direction_state[3] is DirectionState.STOPPED

    def test_known_parents_learned_from_labels(self):
        proto = make_protocol()
        v = make_vehicle(1)
        proto.handle_events([crossing(v, 1, from_node=2, to_node=3)])
        proto.handle_events([crossing(v, 3, from_node=1, to_node=2, t=30.0)])
        assert proto.checkpoint(3).known_parents[1] is None  # 1 is a seed

    def test_patrol_vehicle_never_counted(self):
        proto = make_protocol()
        patrol = make_vehicle(1, is_patrol=True)
        proto.handle_events([crossing(patrol, 1, from_node=2, to_node=3)])
        assert proto.checkpoint(1).counters[2] == 0
        assert proto.stats.patrol_syncs == 1

    def test_unknown_event_type_rejected(self):
        proto = make_protocol()
        with pytest.raises(ProtocolError):
            proto.handle_events([object()])


class TestAdjustmentModes:
    def test_exact_mode_cancels_double_count(self):
        proto = make_protocol()
        v = make_vehicle(1, counted=True)
        proto.handle_events([crossing(v, 1, from_node=2, to_node=3)])
        cp = proto.checkpoint(1)
        assert cp.counters[2] == 1
        assert cp.adjustments == -1
        assert cp.local_count() == 0

    def test_exact_mode_recovers_missed_vehicle(self):
        proto = make_protocol()
        # stop direction 1<-2 first, then an uncounted vehicle arrives there
        cp = proto.checkpoint(1)
        cp.receive_label(2, origin_parent=None, tree_id=None, time_s=0.5)
        v = make_vehicle(1, counted=False)
        proto.handle_events([crossing(v, 1, from_node=2, to_node=3)])
        assert cp.counters[2] == 0
        assert cp.adjustments == +1
        assert v.counted

    def test_paper_mode_counts_blindly(self):
        proto = make_protocol(adjustment_mode=AdjustmentMode.PAPER)
        v = make_vehicle(1, counted=True)
        proto.handle_events([crossing(v, 1, from_node=2, to_node=3)])
        cp = proto.checkpoint(1)
        assert cp.counters[2] == 1
        assert cp.adjustments == 0  # double count not corrected locally

    def test_overtake_adds_plus_one_to_label_exact(self):
        proto = make_protocol()
        carrier = make_vehicle(1)
        proto.handle_events([crossing(carrier, 1, from_node=2, to_node=3)])
        slow = make_vehicle(2, counted=False)
        proto.handle_events([
            OvertakeEvent(time_s=5.0, edge=(1, 3), passer=carrier, passee=slow)
        ])
        assert carrier.labels[0].adjustment == 1
        assert slow.counted  # marked via V2V collaboration
        # delivering the label applies the +1 at the receiving checkpoint
        proto.handle_events([crossing(carrier, 3, from_node=1, to_node=2, t=30.0)])
        assert proto.checkpoint(3).adjustments == 1

    def test_overtake_of_non_target_vehicle_ignored(self):
        proto = make_protocol(count_target=WHITE_VAN)
        carrier = make_vehicle(1)
        proto.checkpoint(1).mark_label_issued(2)  # silence other pending labels
        proto.handle_events([crossing(carrier, 1, from_node=2, to_node=3)])
        sedan = make_vehicle(2)  # blue sedan: not a white van
        proto.handle_events([
            OvertakeEvent(time_s=5.0, edge=(1, 3), passer=carrier, passee=sedan)
        ])
        assert carrier.labels[0].adjustment == 0
        assert not sedan.counted

    def test_paper_mode_minus_one_when_label_overtaken(self):
        proto = make_protocol(adjustment_mode=AdjustmentMode.PAPER)
        carrier = make_vehicle(1)
        proto.handle_events([crossing(carrier, 1, from_node=2, to_node=3)])
        fast = make_vehicle(2, counted=True)
        proto.handle_events([
            OvertakeEvent(time_s=5.0, edge=(1, 3), passer=fast, passee=carrier)
        ])
        assert carrier.labels[0].adjustment == -1

    def test_exact_mode_ignores_label_overtaken_case(self):
        proto = make_protocol()
        carrier = make_vehicle(1)
        proto.handle_events([crossing(carrier, 1, from_node=2, to_node=3)])
        fast = make_vehicle(2, counted=True)
        proto.handle_events([
            OvertakeEvent(time_s=5.0, edge=(1, 3), passer=fast, passee=carrier)
        ])
        assert carrier.labels[0].adjustment == 0


class TestTargetFiltering:
    def test_only_target_vehicles_counted(self):
        proto = make_protocol(count_target=WHITE_VAN)
        van = make_vehicle(1, signature=ExteriorSignature("white", "ford", "van"))
        sedan = make_vehicle(2)
        proto.handle_events([
            crossing(van, 1, from_node=2, to_node=3),
            crossing(sedan, 1, from_node=2, to_node=3, t=2.0),
        ])
        assert proto.checkpoint(1).counters[2] == 1
        assert van.counted and not sedan.counted

    def test_non_target_vehicle_still_carries_labels(self):
        proto = make_protocol(count_target=WHITE_VAN)
        sedan = make_vehicle(1)
        proto.handle_events([crossing(sedan, 1, from_node=2, to_node=3)])
        assert sedan.labels  # communication is independent of the target class


class TestBorderEvents:
    def _open_protocol(self, seeds=((0, 0),)):
        net = grid_network(3, 3, gates_on_border=True)
        rng = np.random.default_rng(0)
        return net, CountingProtocol(
            net, list(seeds), rng, exchange=ExchangeService.perfect(rng), config=ProtocolConfig()
        )

    def test_entry_counted_when_gate_active(self):
        net, proto = self._open_protocol()
        v = make_vehicle(1)
        proto.handle_events([EntryEvent(time_s=1.0, vehicle=v, gate_node=(0, 0))])
        cp = proto.checkpoint((0, 0))
        assert cp.interaction_in == 1
        assert v.counted

    def test_entry_ignored_when_gate_inactive(self):
        net, proto = self._open_protocol()
        v = make_vehicle(1)
        proto.handle_events([EntryEvent(time_s=1.0, vehicle=v, gate_node=(2, 2))])
        assert proto.checkpoint((2, 2)).interaction_in == 0
        assert not v.counted

    def test_entry_at_interior_node_rejected(self):
        net, proto = self._open_protocol()
        v = make_vehicle(1)
        with pytest.raises(ProtocolError):
            proto.handle_events([EntryEvent(time_s=1.0, vehicle=v, gate_node=(1, 1))])

    def test_exit_decrements_when_gate_active(self):
        net, proto = self._open_protocol()
        v = make_vehicle(1, counted=True)
        proto.handle_events([
            ExitEvent(time_s=2.0, vehicle=v, gate_node=(0, 0), from_node=(0, 1))
        ])
        cp = proto.checkpoint((0, 0))
        # the vehicle is first observed on the inbound direction (double count
        # cancelled by the exact rule), then the interaction exit is recorded
        assert cp.interaction_out == 1
        assert cp.local_count() + cp.interaction_out - cp.interaction_in == cp.non_interaction_count()

    def test_exit_of_counted_vehicle_through_inactive_gate_compensated(self):
        net, proto = self._open_protocol()
        v = make_vehicle(1, counted=True)
        proto.handle_events([
            ExitEvent(time_s=2.0, vehicle=v, gate_node=(2, 2), from_node=(2, 1))
        ])
        cp = proto.checkpoint((2, 2))
        assert cp.interaction_out == 0
        assert cp.adjustments == -1
        assert proto.stats.early_exit_corrections == 1

    def test_exit_of_uncounted_vehicle_through_inactive_gate_ignored(self):
        net, proto = self._open_protocol()
        v = make_vehicle(1, counted=False)
        proto.handle_events([
            ExitEvent(time_s=2.0, vehicle=v, gate_node=(2, 2), from_node=(2, 1))
        ])
        assert proto.checkpoint((2, 2)).adjustments == 0


class TestQueries:
    def test_global_count_sums_checkpoints(self):
        proto = make_protocol()
        v1, v2 = make_vehicle(1), make_vehicle(2)
        proto.handle_events([
            crossing(v1, 1, from_node=2, to_node=3),
            crossing(v2, 1, from_node=3, to_node=2, t=2.0),
        ])
        assert proto.global_count() == 2

    def test_counting_in_progress_lists_segments(self):
        proto = make_protocol()
        pending = proto.counting_in_progress()
        assert (2, 1) in pending and (3, 1) in pending

    def test_all_active_and_stable_flags(self):
        proto = make_protocol()
        assert not proto.all_active()
        assert not proto.all_stable()
        assert proto.complete_status_time() is None


WHITE = ExteriorSignature(color="white")  # about one vehicle in six


class TestBatchedPipelineFallback:
    """process_batch must keep the equivalence guarantee unconditional."""

    @staticmethod
    def _run(batched, *, shared_rng, fn_rate, **config_kw):
        from repro.mobility.demand import DemandConfig, DemandModel
        from repro.mobility.engine import TrafficEngine
        from repro.wireless.channel import BernoulliLossChannel

        net = grid_network(3, 3, lanes=1)
        rng = np.random.default_rng(42)
        exchange = ExchangeService(
            BernoulliLossChannel(0.3),
            rng if shared_rng else np.random.default_rng(43),
        )
        proto = CountingProtocol(
            net,
            [(0, 0)],
            rng,
            exchange=exchange,
            config=ProtocolConfig(recognition_false_negative=fn_rate, **config_kw),
        )
        engine = TrafficEngine(net, np.random.default_rng(7))
        demand = DemandModel(
            net, DemandConfig(volume_fraction=0.7), np.random.default_rng(7)
        )
        engine.spawn_initial(demand.initial_fleet())
        for _ in range(240):
            if batched:
                proto.process_batch(engine.step_batch())
            else:
                proto.handle_events(engine.step())
        return {
            "counters": {
                repr(n): (dict(cp.counters), cp.adjustments, cp.stabilized_at)
                for n, cp in proto.checkpoints.items()
            },
            "stats": proto.stats.as_dict(),
            "exchange": exchange.stats.as_dict(),
            "recognition": [
                proto.cameras[n].recognizer.stats.as_dict()
                for n in sorted(proto.cameras, key=repr)
            ],
        }

    @pytest.mark.parametrize("shared_rng", [True, False])
    def test_batched_equals_scalar_even_with_shared_generator(self, shared_rng):
        # Wiring the exchange service to the *same* generator as the
        # recognizers (what the constructor's default
        # ``ExchangeService.perfect(rng)`` does too; here a lossy channel
        # makes the exchange actually draw) interleaves wireless and
        # recognition draws on one stream.  process_batch makes every draw
        # where the scalar loop makes it, so it needs no fallback.
        scalar = self._run(False, shared_rng=shared_rng, fn_rate=0.1)
        batched = self._run(True, shared_rng=shared_rng, fn_rate=0.1)
        assert batched == scalar

    @pytest.mark.parametrize(
        "fn_rate, config_kw",
        [
            (0.0, {"recognition_false_positive": 0.2}),
            (0.0, {"count_target": WHITE}),
            (0.3, {"count_target": WHITE, "recognition_false_positive": 0.2}),
        ],
        ids=["false-positives", "target", "target-and-noise"],
    )
    def test_batched_equals_scalar_with_shared_generator_under_any_recognition(
        self, fn_rate, config_kw
    ):
        # Non-trivial recognition sends plain crossings through
        # _count_arrival on the batched pipeline too; its draws interleave
        # with the lossy exchange's on the one generator.
        scalar = self._run(False, shared_rng=True, fn_rate=fn_rate, **config_kw)
        batched = self._run(True, shared_rng=True, fn_rate=fn_rate, **config_kw)
        assert batched == scalar
        observations = sum(r["observations"] for r in scalar["recognition"])
        matches = sum(r["matches"] for r in scalar["recognition"])
        assert 0 < matches <= observations
        assert (matches < observations) == ("count_target" in config_kw)


class TestTrivialRecognition:
    """The batched pipeline tallies an observation itself only when the
    cameras' recognizers count everything."""

    @pytest.mark.parametrize(
        "config_kw, trivial",
        [
            ({}, True),
            ({"recognition_false_negative": 0.1}, False),
            ({"recognition_false_positive": 0.1}, False),
            ({"count_target": WHITE_VAN}, False),
        ],
        ids=["wildcard", "false-negatives", "false-positives", "target"],
    )
    def test_read_from_the_cameras_recognizers(self, config_kw, trivial):
        proto = make_protocol(**config_kw)
        assert proto._recognition_trivial is trivial
        assert all(
            cam.recognizer.counts_everything is trivial for cam in proto.cameras.values()
        )


class TestBatchedPipelineDraws:
    """process_batch draws from the wireless stream only for an event that
    runs an exchange."""

    @staticmethod
    def _lossy_protocol():
        from repro.wireless.channel import BernoulliLossChannel

        rng = np.random.default_rng(0)
        return CountingProtocol(
            triangle_network(),
            [1],
            rng,
            exchange=ExchangeService(
                BernoulliLossChannel(0.3), np.random.default_rng(5)
            ),
        )

    def test_empty_and_plain_batches_draw_nothing(self):
        proto = self._lossy_protocol()
        state = proto.exchange.rng.bit_generator.state
        proto.process_batch(StepBatch(1.0))
        # Plain crossings at the two inactive checkpoints, one of them an
        # injection (from_node=None): nothing to deliver, label or attach.
        batch = StepBatch(2.0)
        v1, v2, v3 = make_vehicle(1), make_vehicle(2), make_vehicle(3)
        batch.items.append(batch.add_crossing(v1, 2, 1, 3))
        batch.items.append(batch.add_crossing(v2, 3, 2, 1))
        batch.items.append(batch.add_crossing(v3, 2, None, 1))
        proto.process_batch(batch)
        assert proto.exchange.rng.bit_generator.state == state
        assert proto.exchange.stats.exchanges == 0
        assert proto.stats.crossings_processed == 3
        assert proto.cameras[2].observed == 1
        assert proto.cameras[3].observed == 1
        assert not (v1.counted or v2.counted or v3.counted)

    def test_labelled_departure_runs_one_exchange(self):
        proto = self._lossy_protocol()
        # The seed's first departure toward 3 must be labelled (phase 2).
        batch = StepBatch(1.0)
        batch.items.append(batch.add_crossing(make_vehicle(1), 1, 2, 3))
        proto.process_batch(batch)
        assert proto.exchange.stats.exchanges == 1
        assert proto.stats.labels_installed + proto.stats.labeling_failures == 1
