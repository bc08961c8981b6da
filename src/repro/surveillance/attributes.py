"""Vehicle exterior attributes.

The paper's privacy constraint (Section II) forbids using any ownership
information such as the VIN; checkpoints may only use *exterior
characteristics* — colour, brand and body type — to decide whether a passing
vehicle belongs to the class being counted (e.g. "white van" in the Beltway
sniper scenario).  These attributes are deliberately **not unique**: many
vehicles share the same signature, which is exactly why per-vehicle identity
cannot be used to de-duplicate counts and why the synchronization protocol is
needed in the first place.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "COLORS",
    "MAKES",
    "BODY_TYPES",
    "ExteriorSignature",
    "random_signature",
    "WHITE_VAN",
]

#: Common vehicle colours, with rough relative frequencies.
COLORS: Tuple[Tuple[str, float], ...] = (
    ("white", 0.24),
    ("black", 0.20),
    ("gray", 0.18),
    ("silver", 0.12),
    ("blue", 0.10),
    ("red", 0.09),
    ("green", 0.04),
    ("yellow", 0.03),
)

#: Vehicle manufacturers ("brand" in the paper), uniform frequencies.
MAKES: Tuple[str, ...] = (
    "toyota", "ford", "honda", "chevrolet", "nissan",
    "bmw", "mercedes", "volkswagen", "hyundai", "dodge",
)

#: Body types, with rough relative frequencies.
BODY_TYPES: Tuple[Tuple[str, float], ...] = (
    ("sedan", 0.42),
    ("suv", 0.28),
    ("van", 0.10),
    ("pickup", 0.10),
    ("taxi", 0.06),
    ("truck", 0.04),
)


@dataclass(frozen=True)
class ExteriorSignature:
    """The (colour, make, body type) triple visible to a roadside camera.

    ``matches`` implements the partial matching used when counting a
    *specified type* of vehicle: ``None`` fields in the query act as
    wildcards, so ``ExteriorSignature("white", None, "van")`` matches every
    white van regardless of make.
    """

    color: Optional[str] = None
    make: Optional[str] = None
    body_type: Optional[str] = None

    def matches(self, other: "ExteriorSignature") -> bool:
        """Whether ``other`` (a concrete vehicle) matches this query."""
        for mine, theirs in (
            (self.color, other.color),
            (self.make, other.make),
            (self.body_type, other.body_type),
        ):
            if mine is not None and mine != theirs:
                return False
        return True

    @property
    def is_wildcard(self) -> bool:
        """True when every field is a wildcard (matches all vehicles)."""
        return self.color is None and self.make is None and self.body_type is None

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form (``None`` fields are wildcards)."""
        return {"color": self.color, "make": self.make, "body_type": self.body_type}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExteriorSignature":
        """Inverse of :meth:`to_dict`; missing keys act as wildcards."""
        return cls(
            color=data.get("color"),
            make=data.get("make"),
            body_type=data.get("body_type"),
        )

    def describe(self) -> str:
        """Human readable description, e.g. ``"white * van"``."""
        return " ".join(x if x is not None else "*" for x in (self.color, self.make, self.body_type))


#: The Beltway-sniper query used by the paper's "Does anyone see that white
#: van?" extension and by ``examples/suspect_vehicle_search.py``.
WHITE_VAN = ExteriorSignature(color="white", body_type="van")


def _cdf(table: Sequence[Tuple[str, float]]) -> Tuple[Tuple[str, ...], np.ndarray]:
    """A weighted table's names and CDF, computed as ``Generator.choice``
    computes it for ``p=weights / weights.sum()`` (normalize, ``cumsum``,
    divide by the last entry), so draws against it are that call's draws."""
    names = tuple(n for n, _ in table)
    weights = np.asarray([w for _, w in table], dtype=float)
    cdf = (weights / weights.sum()).cumsum()
    cdf /= cdf[-1]
    return names, cdf


_COLOR_CDF = _cdf(COLORS)
_BODY_TYPE_CDF = _cdf(BODY_TYPES)


def _weighted_choice(rng: np.random.Generator, names_cdf: Tuple[Tuple[str, ...], np.ndarray]) -> str:
    """``str(rng.choice(names, p=weights))``: the same single uniform draw
    and the same index, without re-deriving the CDF on every call."""
    names, cdf = names_cdf
    return names[int(cdf.searchsorted(rng.random(), side="right"))]


def random_signature(rng: np.random.Generator) -> ExteriorSignature:
    """Draw a concrete vehicle signature from the population distributions.

    Consumes ``rng`` exactly as ``rng.choice`` over the three tables would
    (``rng.integers(len(MAKES))`` is ``rng.choice(MAKES)``'s draw).
    """
    return ExteriorSignature(
        color=_weighted_choice(rng, _COLOR_CDF),
        make=MAKES[int(rng.integers(len(MAKES)))],
        body_type=_weighted_choice(rng, _BODY_TYPE_CDF),
    )
