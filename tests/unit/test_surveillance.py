"""Surveillance substrate: signatures, recognition, cameras."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.surveillance.attributes import (
    BODY_TYPES,
    COLORS,
    MAKES,
    WHITE_VAN,
    ExteriorSignature,
    random_signature,
)
from repro.surveillance.camera import IntersectionCamera
from repro.surveillance.recognition import Recognizer


class TestSignatures:
    def test_wildcard_matches_everything(self, rng):
        query = ExteriorSignature()
        assert query.is_wildcard
        for _ in range(20):
            assert query.matches(random_signature(rng))

    def test_partial_match(self):
        van = ExteriorSignature(color="white", make="ford", body_type="van")
        assert WHITE_VAN.matches(van)
        assert not WHITE_VAN.matches(ExteriorSignature(color="red", make="ford", body_type="van"))
        assert not WHITE_VAN.matches(ExteriorSignature(color="white", make="ford", body_type="sedan"))

    def test_describe(self):
        assert WHITE_VAN.describe() == "white * van"

    def test_random_signature_fields_valid(self, rng):
        sig = random_signature(rng)
        assert sig.color and sig.make and sig.body_type

    def test_random_signature_distribution_reasonable(self):
        rng = np.random.default_rng(0)
        sigs = [random_signature(rng) for _ in range(3000)]
        white = sum(1 for s in sigs if s.color == "white")
        assert 0.15 < white / len(sigs) < 0.35  # ~24% nominal

    @pytest.mark.parametrize("seed", range(0, 400, 7))
    def test_random_signature_draws_as_generator_choice(self, seed):
        """The precomputed-CDF draws are ``Generator.choice``'s draws: same
        signatures in the same order, and the generator left in the same
        state — every seeded fleet depends on it."""

        def choice(rng, table):
            names = [n for n, _ in table]
            weights = np.asarray([w for _, w in table], dtype=float)
            return str(rng.choice(names, p=weights / weights.sum()))

        ours = np.random.default_rng(seed)
        ref = np.random.default_rng(seed)
        for _ in range(200):
            expected = ExteriorSignature(
                color=choice(ref, COLORS),
                make=str(ref.choice(MAKES)),
                body_type=choice(ref, BODY_TYPES),
            )
            assert random_signature(ours) == expected
        assert ours.bit_generator.state == ref.bit_generator.state


class TestRecognizer:
    def test_perfect_recognizer_counts_everything(self, rng):
        rec = Recognizer(rng=rng)
        assert rec.counts_everything
        assert rec.observe(random_signature(rng))

    def test_target_filtering(self, rng):
        rec = Recognizer(WHITE_VAN, rng=rng)
        assert rec.observe(ExteriorSignature(color="white", make="ford", body_type="van"))
        assert not rec.observe(ExteriorSignature(color="black", make="ford", body_type="van"))

    def test_false_negative_rate(self):
        rng = np.random.default_rng(1)
        rec = Recognizer(false_negative_rate=0.5, rng=rng)
        sig = ExteriorSignature(color="white", make="ford", body_type="van")
        hits = sum(rec.observe(sig) for _ in range(4000))
        assert hits / 4000 == pytest.approx(0.5, abs=0.05)
        assert rec.stats.false_negatives > 0

    def test_false_positive_rate(self):
        rng = np.random.default_rng(2)
        rec = Recognizer(WHITE_VAN, false_positive_rate=0.25, rng=rng)
        sig = ExteriorSignature(color="black", make="bmw", body_type="sedan")
        hits = sum(rec.observe(sig) for _ in range(4000))
        assert hits / 4000 == pytest.approx(0.25, abs=0.05)

    def test_invalid_rates_rejected(self):
        with pytest.raises(ConfigurationError):
            Recognizer(false_negative_rate=1.0)
        with pytest.raises(ConfigurationError):
            Recognizer(false_positive_rate=-0.2)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"false_negative_rate": 0.1},
            {"false_positive_rate": 0.1},
            {"target": WHITE_VAN},
        ],
        ids=["false-negatives", "false-positives", "target"],
    )
    def test_noise_or_a_target_means_not_everything_counts(self, kwargs):
        assert not Recognizer(**kwargs).counts_everything


class TestRecognitionDrawOrder:
    """observe draws one uniform, as the observation is made, exactly when a
    noise rate applies to the signature's true verdict."""

    @staticmethod
    def _signatures(n=64):
        rng = np.random.default_rng(4)
        sigs = [random_signature(rng) for _ in range(n)]
        # Every fourth vehicle is a white van, so both verdicts occur.
        for i in range(0, n, 4):
            sigs[i] = ExteriorSignature(color="white", make=sigs[i].make, body_type="van")
        return sigs

    @pytest.mark.parametrize("fn,fp", [(0.0, 0.0), (0.3, 0.0), (0.0, 0.2), (0.3, 0.2)])
    def test_observe_draws_only_where_noise_applies(self, fn, fp):
        rec = Recognizer(
            WHITE_VAN, false_negative_rate=fn, false_positive_rate=fp,
            rng=np.random.default_rng(11),
        )
        replay = np.random.default_rng(11)
        flips = {True: 0, False: 0}
        for sig in self._signatures():
            truth = WHITE_VAN.matches(sig)
            rate = fn if truth else fp
            flipped = bool(rate) and replay.random() < rate
            flips[truth] += flipped
            assert rec.observe(sig) is (truth != flipped)
            assert rec.rng.bit_generator.state == replay.bit_generator.state
        assert rec.stats.false_negatives == flips[True]
        assert rec.stats.false_positives == flips[False]
        assert rec.stats.observations == 64
        assert (flips[True] > 0) == (fn > 0) and (flips[False] > 0) == (fp > 0)

    def test_recognizers_sharing_a_generator_draw_in_call_order(self):
        # The protocol gives every checkpoint's recognizer one stream; the
        # observations interleave their draws in event order.
        shared = np.random.default_rng(21)
        recs = [Recognizer(false_negative_rate=0.4, rng=shared) for _ in range(3)]
        replay = np.random.default_rng(21)
        sigs = self._signatures(40)
        verdicts = [recs[i % 3].observe(sig) for i, sig in enumerate(sigs)]
        assert verdicts == [bool(replay.random() >= 0.4) for _ in sigs]
        assert shared.bit_generator.state == replay.bit_generator.state
        assert [r.stats.observations for r in recs] == [14, 13, 13]

class TestCamera:
    def test_observation_fields(self, rng):
        cam = IntersectionCamera("x", Recognizer(rng=rng))
        obs = cam.observe_crossing(7, random_signature(rng), "a", "b", 12.5)
        assert obs.vehicle_id == 7
        assert obs.from_node == "a" and obs.to_node == "b"
        assert obs.time_s == 12.5
        assert obs.is_target

    def test_multi_target_peak_tracking(self, rng):
        cam = IntersectionCamera("x", Recognizer(rng=rng))
        for vid in range(3):
            cam.observe_crossing(vid, random_signature(rng), "a", "b", 5.0)
        cam.observe_crossing(9, random_signature(rng), "a", "b", 6.0)
        assert cam.simultaneous_peak == 3
        assert cam.observed == 4

    def test_note_crossings_matches_repeated_observations(self, rng):
        scalar = IntersectionCamera("x", Recognizer(rng=np.random.default_rng(3)))
        batched = IntersectionCamera("x", Recognizer(rng=np.random.default_rng(3)))
        schedule = [(5.0, 3), (6.0, 1), (6.0, 2), (7.5, 4)]
        for time_s, count in schedule:
            for vid in range(count):
                scalar.observe_crossing(vid, random_signature(rng), "a", "b", time_s)
                batched.note_crossing(time_s)
        assert batched.observed == scalar.observed
        assert batched.simultaneous_peak == scalar.simultaneous_peak
        assert batched._pending_this_step == scalar._pending_this_step
        assert batched._last_step_time == scalar._last_step_time

    def test_note_crossing_leaves_the_recognizer_alone(self, rng):
        cam = IntersectionCamera("x", Recognizer(false_negative_rate=0.5, rng=rng))
        state = rng.bit_generator.state
        for time_s in (1.0, 1.0, 2.0):
            cam.note_crossing(time_s)
        assert (cam.observed, cam.simultaneous_peak) == (3, 2)
        assert (cam._pending_this_step, cam._last_step_time) == (1, 2.0)
        assert rng.bit_generator.state == state
        assert cam.recognizer.stats.observations == 0
