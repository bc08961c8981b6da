"""Surveillance substrate: exterior signatures, recognition, intersection cameras."""

from .attributes import BODY_TYPES, COLORS, MAKES, WHITE_VAN, ExteriorSignature, random_signature
from .camera import IntersectionCamera, Observation
from .recognition import RecognitionStats, Recognizer

__all__ = [
    "BODY_TYPES",
    "COLORS",
    "MAKES",
    "WHITE_VAN",
    "ExteriorSignature",
    "random_signature",
    "IntersectionCamera",
    "Observation",
    "RecognitionStats",
    "Recognizer",
]
