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
from repro.surveillance.recognition import Recognizer, observe_many


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


class TestBatchedRecognition:
    """observe_batch / observe_many must equal per-signature scalar calls."""

    @staticmethod
    def _signatures(rng, n=64):
        return [random_signature(rng) for _ in range(n)]

    @pytest.mark.parametrize("fn,fp", [(0.0, 0.0), (0.3, 0.0), (0.0, 0.2), (0.3, 0.2)])
    def test_observe_batch_matches_scalar(self, fn, fp):
        sigs = self._signatures(np.random.default_rng(4))
        scalar = Recognizer(
            WHITE_VAN, false_negative_rate=fn, false_positive_rate=fp,
            rng=np.random.default_rng(11),
        )
        batch = Recognizer(
            WHITE_VAN, false_negative_rate=fn, false_positive_rate=fp,
            rng=np.random.default_rng(11),
        )
        expected = [scalar.observe(s) for s in sigs]
        assert batch.observe_batch(sigs) == expected
        assert batch.stats.as_dict() == scalar.stats.as_dict()
        # identical residual stream: the batch drew exactly the same uniforms
        assert batch.rng.random() == scalar.rng.random()

    def test_observe_many_interleaves_recognizers_in_event_order(self):
        # The protocol feeds one recognizer per checkpoint from a single
        # named RNG stream; the batched pass must draw the interleaved
        # sequence exactly as scalar event-order processing would.
        sigs = self._signatures(np.random.default_rng(6), n=40)

        def build(seed):
            shared = np.random.default_rng(seed)
            recs = [
                Recognizer(false_negative_rate=0.4, rng=shared) for _ in range(3)
            ]
            return [recs[i % 3] for i in range(len(sigs))]

        scalar_recs = build(21)
        expected = [r.observe(s) for r, s in zip(scalar_recs, sigs)]
        batch_recs = build(21)
        assert observe_many(batch_recs, sigs) == expected
        for a, b in zip(scalar_recs[:3], batch_recs[:3]):
            assert a.stats.as_dict() == b.stats.as_dict()

    def test_observe_many_empty(self, rng):
        assert observe_many([], []) == []

    def test_observe_many_heterogeneous_streams_fall_back(self):
        sigs = self._signatures(np.random.default_rng(8), n=10)
        recs = [
            Recognizer(false_negative_rate=0.5, rng=np.random.default_rng(i))
            for i in range(10)
        ]
        reference = [
            Recognizer(false_negative_rate=0.5, rng=np.random.default_rng(i))
            for i in range(10)
        ]
        expected = [r.observe(s) for r, s in zip(reference, sigs)]
        assert observe_many(recs, sigs) == expected


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
            batched.note_crossings(count, time_s)
        assert batched.observed == scalar.observed
        assert batched.simultaneous_peak == scalar.simultaneous_peak
        assert batched._pending_this_step == scalar._pending_this_step
        assert batched._last_step_time == scalar._last_step_time

    def test_note_crossings_ignores_non_positive_counts(self, rng):
        cam = IntersectionCamera("x", Recognizer(rng=rng))
        cam.note_crossings(0, 5.0)
        cam.note_crossings(-2, 5.0)
        assert cam.observed == 0 and cam.simultaneous_peak == 0
