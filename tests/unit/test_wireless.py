"""Wireless substrate: channels, exchange protocol, messages."""

import numpy as np
import pytest

from repro.errors import WirelessError
from repro.wireless.channel import (
    BernoulliLossChannel,
    ChannelModel,
    PerfectChannel,
    RangeLimitedChannel,
)
from repro.wireless.exchange import ExchangeService
from repro.wireless.messages import CounterReport, LabelToken, StatusDigest


class TestChannels:
    def test_perfect_channel_never_fails(self, rng):
        ch = PerfectChannel()
        assert all(ch.attempt_succeeds(rng) for _ in range(100))
        assert ch.loss_probability == 0.0

    def test_bernoulli_loss_rate(self):
        ch = BernoulliLossChannel(0.3)
        rng = np.random.default_rng(0)
        n = 20_000
        failures = sum(0 if ch.attempt_succeeds(rng) else 1 for _ in range(n))
        assert failures / n == pytest.approx(0.3, abs=0.02)

    def test_bernoulli_invalid_probability(self):
        with pytest.raises(WirelessError):
            BernoulliLossChannel(1.0)
        with pytest.raises(WirelessError):
            BernoulliLossChannel(-0.1)

    def test_range_limited_cuts_off(self, rng):
        ch = RangeLimitedChannel(loss_prob=0.0, range_m=100.0)
        assert not ch.attempt_succeeds(rng, distance_m=150.0)
        assert ch.attempt_succeeds(rng, distance_m=0.0)

    def test_range_limited_degrades_with_distance(self):
        ch = RangeLimitedChannel(loss_prob=0.0, range_m=100.0)
        rng = np.random.default_rng(1)
        near = sum(ch.attempt_succeeds(rng, 10.0) for _ in range(2000))
        far = sum(ch.attempt_succeeds(rng, 90.0) for _ in range(2000))
        assert near > far

    def test_range_limited_validation(self):
        with pytest.raises(WirelessError):
            RangeLimitedChannel(range_m=0.0)


class TestExchangeService:
    def test_perfect_service_always_succeeds(self, rng):
        svc = ExchangeService.perfect(rng)
        out = svc.exchange()
        assert out.success and out.attempts == 1 and not out.forced
        assert bool(out) is True

    def test_reliable_window_forces_success(self):
        rng = np.random.default_rng(2)
        svc = ExchangeService(
            BernoulliLossChannel(0.9), rng, attempts_per_contact=2, reliable_within_window=True
        )
        outcomes = [svc.exchange() for _ in range(200)]
        assert all(o.success for o in outcomes)
        assert any(o.forced for o in outcomes)
        assert svc.stats.hard_failures == 0
        assert svc.stats.forced_successes > 0

    def test_unreliable_window_can_fail(self):
        rng = np.random.default_rng(3)
        svc = ExchangeService(
            BernoulliLossChannel(0.9), rng, attempts_per_contact=1, reliable_within_window=False
        )
        outcomes = [svc.exchange() for _ in range(200)]
        assert any(not o.success for o in outcomes)
        assert svc.stats.failure_rate > 0.5

    def test_retry_statistics(self):
        rng = np.random.default_rng(4)
        svc = ExchangeService(BernoulliLossChannel(0.5), rng, attempts_per_contact=8)
        for _ in range(500):
            svc.exchange()
        assert svc.stats.mean_attempts > 1.0
        assert svc.stats.exchanges == 500

    def test_single_attempt_loss_rate(self):
        rng = np.random.default_rng(5)
        svc = ExchangeService(BernoulliLossChannel(0.3), rng)
        results = [svc.single_attempt() for _ in range(5000)]
        assert np.mean(results) == pytest.approx(0.7, abs=0.03)

    def test_invalid_attempts(self, rng):
        with pytest.raises(WirelessError):
            ExchangeService(PerfectChannel(), rng, attempts_per_contact=0)

    def test_stats_as_dict_keys(self, rng):
        svc = ExchangeService.perfect(rng)
        svc.exchange()
        d = svc.stats.as_dict()
        assert d["exchanges"] == 1 and d["successes"] == 1


class TestContactWindowBoundary:
    """Regression: the contact-window edge cases of the exchange protocol."""

    def test_retries_exhausted_in_range_forces_success(self):
        # A vehicle sitting exactly at the communication range: every raw
        # attempt fails (the range-limited channel drops the frame without
        # even drawing), but the vehicle is still *within the contact
        # window*, so the ACK protocol's reliability guarantee forces the
        # exchange through on the last attempt.
        svc = ExchangeService(
            RangeLimitedChannel(loss_prob=0.3, range_m=50.0),
            np.random.default_rng(0),
            attempts_per_contact=3,
            reliable_within_window=True,
        )
        out = svc.exchange(distance_m=50.0)
        assert out.success and out.forced
        assert out.attempts == 3  # every retry was burned first
        assert svc.stats.forced_successes == 1
        assert svc.stats.successes == 1
        assert svc.stats.hard_failures == 0
        assert svc.stats.total_attempts == 3

    def test_retries_exhausted_without_window_guarantee_fails(self):
        svc = ExchangeService(
            RangeLimitedChannel(loss_prob=0.3, range_m=50.0),
            np.random.default_rng(0),
            attempts_per_contact=3,
            reliable_within_window=False,
        )
        out = svc.exchange(distance_m=50.0)
        assert not out.success and not out.forced
        assert out.attempts == 3
        assert svc.stats.hard_failures == 1
        assert svc.stats.forced_successes == 0

    def test_bernoulli_all_attempts_lost_forces_success(self):
        # Same boundary through the lossy Bernoulli channel: seed 0's first
        # four uniforms are all below 0.99, so every attempt fails and the
        # reliable window converts the exhausted retries into a forced
        # success with full retry statistics.
        svc = ExchangeService(
            BernoulliLossChannel(0.99),
            np.random.default_rng(0),
            attempts_per_contact=4,
            reliable_within_window=True,
        )
        out = svc.exchange()
        assert out.success and out.forced and out.attempts == 4
        assert svc.stats.forced_successes == 1

    def test_range_limited_at_exact_range_limit(self, rng):
        # Attenuation boundary: at exactly range_m the success probability
        # has decayed to zero — no draw is consumed and the attempt fails —
        # while epsilon inside the range a frame still costs one draw.
        ch = RangeLimitedChannel(loss_prob=0.0, range_m=150.0)
        state = rng.bit_generator.state
        assert ch.attempt_succeeds(rng, 150.0) is False
        assert ch.attempt_succeeds(rng, 151.0) is False
        assert rng.bit_generator.state == state  # no uniform consumed
        ch.attempt_succeeds(rng, 149.999)
        one_draw = np.random.default_rng()
        one_draw.bit_generator.state = state
        one_draw.random()
        assert rng.bit_generator.state == one_draw.bit_generator.state

    def test_range_limited_just_inside_range_is_nearly_hopeless(self):
        ch = RangeLimitedChannel(loss_prob=0.0, range_m=100.0)
        rng = np.random.default_rng(1)
        successes = sum(ch.attempt_succeeds(rng, 99.9) for _ in range(2000))
        # success probability at d -> range is (1 - (d/r)^2) -> 0
        assert successes < 25


class TestScalarDrawOrder:
    """A channel draws at most one uniform per attempt, as the attempt is
    made, so every caller of one generator consumes it in call order."""

    @pytest.mark.parametrize(
        "channel, distance, decide",
        [
            (PerfectChannel(), 0.0, None),
            (BernoulliLossChannel(0.3), 0.0, lambda u: u >= 0.3),
            (
                RangeLimitedChannel(0.3, range_m=150.0),
                40.0,
                lambda u: u < 0.7 * (1.0 - (40.0 / 150.0) ** 2),
            ),
            (RangeLimitedChannel(0.3, range_m=150.0), 150.0, None),
        ],
        ids=["perfect", "bernoulli", "range-inside", "range-at-limit"],
    )
    def test_attempt_draws_at_most_one_uniform(self, channel, distance, decide):
        # ``decide`` maps the attempt's one uniform to its outcome; None
        # means the attempt draws nothing (its outcome is fixed).
        rng = np.random.default_rng(77)
        replay = np.random.default_rng(77)
        outcomes = set()
        for _ in range(200):
            if decide is None:
                expected = isinstance(channel, PerfectChannel)
            else:
                expected = decide(replay.random())
            outcome = channel.attempt_succeeds(rng, distance)
            assert outcome is expected
            assert rng.bit_generator.state == replay.bit_generator.state
            outcomes.add(outcome)
        assert len(outcomes) == (1 if decide is None else 2)

    def test_exchange_draws_one_uniform_per_attempt(self):
        svc = ExchangeService(
            BernoulliLossChannel(0.4),
            np.random.default_rng(123),
            attempts_per_contact=4,
            reliable_within_window=False,
        )
        replay = np.random.default_rng(123)
        failures = 0
        for i in range(60):
            if i % 3 == 0:
                assert svc.single_attempt() is bool(replay.random() >= 0.4)
                continue
            attempts, success = 0, False
            while attempts < 4 and not success:
                attempts += 1
                success = bool(replay.random() >= 0.4)
            failures += not success
            out = svc.exchange()
            assert (out.success, out.attempts, out.forced) == (success, attempts, False)
            assert svc.rng.bit_generator.state == replay.bit_generator.state
        assert svc.stats.exchanges == 60
        assert failures > 0  # 40 exchanges at 0.4 ** 4: some lose all four

    def test_minimal_channel_contract_suffices(self):
        # A channel that implements only the interface's two members works
        # with the service exactly like the built-in channel it mimics.
        class CoinChannel(ChannelModel):
            def attempt_succeeds(self, rng, distance_m=0.0):
                return bool(rng.random() >= 0.5)

            @property
            def loss_probability(self):
                return 0.5

        def run(channel):
            svc = ExchangeService(channel, np.random.default_rng(3))
            attempts = [svc.exchange().attempts for _ in range(30)]
            return attempts, svc.stats.as_dict(), svc.rng.random()

        assert run(CoinChannel()) == run(BernoulliLossChannel(0.5))

    def test_services_sharing_a_generator_draw_in_call_order(self):
        # The counting protocol's default wiring hands one generator to
        # several consumers; their draws interleave in call order.
        shared = np.random.default_rng(9)
        near = ExchangeService(BernoulliLossChannel(0.3), shared, attempts_per_contact=1)
        far = ExchangeService(RangeLimitedChannel(0.3, range_m=100.0), shared)
        replay = np.random.default_rng(9)
        for i in range(40):
            if i % 2:
                expected = bool(replay.random() < 0.7 * (1.0 - 0.5**2))
                assert far.single_attempt(50.0) is expected
            else:
                assert near.single_attempt() is bool(replay.random() >= 0.3)
            assert shared.bit_generator.state == replay.bit_generator.state
        assert near.stats.exchanges == far.stats.exchanges == 20


class TestMessages:
    def test_label_target(self):
        lab = LabelToken(origin="u", segment=("u", "v"))
        assert lab.target == "v"
        assert lab.adjustment == 0

    def test_report_relay_increments_hops(self):
        rep = CounterReport(reporter="a", destination="b", value=5)
        relayed = rep.relayed()
        assert relayed.hops == 2 and relayed.value == 5

    def test_digest_note_active_keeps_first_observation(self):
        d = StatusDigest()
        d.note_active("x", 10.0, parent="p", tree_id="t")
        d.note_active("x", 20.0, parent="q", tree_id="s")
        assert d.active["x"] == 10.0
        assert d.parents["x"] == "p"
        assert d.trees["x"] == "t"

    def test_digest_report_ferrying(self):
        d = StatusDigest()
        rep = CounterReport(reporter="a", destination="b", value=3)
        d.add_report(rep)
        assert d.pop_reports_for("c") == ()
        out = d.pop_reports_for("b")
        assert out == (rep,)
        assert d.pop_reports_for("b") == ()  # removed

    def test_digest_merge(self):
        d1, d2 = StatusDigest(), StatusDigest()
        d1.note_active("x", 1.0, None)
        d2.note_active("y", 2.0, "x")
        d2.add_report(CounterReport(reporter="y", destination="x", value=7))
        d1.merge(d2)
        assert set(d1.active) == {"x", "y"}
        assert d1.pop_reports_for("x")[0].value == 7
