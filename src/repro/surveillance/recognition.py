"""Image-recognition abstraction.

Checkpoints identify vehicles "by exterior characteristics (e.g., color,
brand, or/and type) with a simple image recognition process" [paper §III-C,
refs 2–3].  The recognizer here answers exactly one question per observed
vehicle: *does this vehicle belong to the class being counted?*  It never
reveals identity.

Two noise knobs model the paper's caveat that image recognition "cannot
ensure 100% accuracy":

* ``false_negative_rate`` — probability that a matching vehicle is missed,
* ``false_positive_rate`` — probability that a non-matching vehicle is
  mistaken for a match.

The paper's headline experiments count *all* vehicles (wildcard target) with
perfect recognition; the noisy settings are used by the ablation benchmarks
to show how recognition errors propagate into the final count (they affect
every scheme equally, including the baselines, because they sit below the
synchronization layer).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

import numpy as np

from ..errors import ConfigurationError
from .attributes import ExteriorSignature

__all__ = ["RecognitionStats", "Recognizer"]


@dataclass
class RecognitionStats:
    """Aggregate recognition outcomes (for reporting/ablations)."""

    observations: int = 0
    matches: int = 0
    false_negatives: int = 0
    false_positives: int = 0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "observations": self.observations,
            "matches": self.matches,
            "false_negatives": self.false_negatives,
            "false_positives": self.false_positives,
        }


class Recognizer:
    """Decides whether an observed vehicle matches the counting target.

    Parameters
    ----------
    target:
        The exterior-signature query.  ``None`` or a wildcard signature means
        "count every vehicle" (the paper's default experiments).
    false_negative_rate, false_positive_rate:
        Recognition noise (0 by default = the paper's idealized camera).
    rng:
        Generator used to draw recognition errors.
    """

    def __init__(
        self,
        target: Optional[ExteriorSignature] = None,
        *,
        false_negative_rate: float = 0.0,
        false_positive_rate: float = 0.0,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        for name, value in (
            ("false_negative_rate", false_negative_rate),
            ("false_positive_rate", false_positive_rate),
        ):
            if not 0.0 <= value < 1.0:
                raise ConfigurationError(f"{name} must be in [0, 1), got {value!r}")
        self.target = target if target is not None else ExteriorSignature()
        self.false_negative_rate = float(false_negative_rate)
        self.false_positive_rate = float(false_positive_rate)
        # Deterministic fallback: a recognizer constructed without an
        # explicit stream must still behave reproducibly run to run.
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.stats = RecognitionStats()

    @property
    def counts_everything(self) -> bool:
        """True when the target is a wildcard and recognition is noise-free."""
        return (
            self.target.is_wildcard
            # repro-lint: ignore[D4] -- exact sentinel: 0.0 means "noise disabled"
            and self.false_negative_rate == 0.0
            # repro-lint: ignore[D4] -- exact sentinel: 0.0 means "noise disabled"
            and self.false_positive_rate == 0.0
        )

    def observe(self, signature: ExteriorSignature) -> bool:
        """Whether the camera reports ``signature`` as a counting target."""
        self.stats.observations += 1
        truly_matches = self.target.matches(signature)
        if truly_matches:
            if self.false_negative_rate and self.rng.random() < self.false_negative_rate:
                self.stats.false_negatives += 1
                return False
            self.stats.matches += 1
            return True
        if self.false_positive_rate and self.rng.random() < self.false_positive_rate:
            self.stats.false_positives += 1
            return True
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"Recognizer(target={self.target.describe()!r}, "
            f"fn={self.false_negative_rate}, fp={self.false_positive_rate})"
        )

