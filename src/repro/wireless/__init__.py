"""Wireless substrate: lossy channels, messages and the ACK exchange protocol.

The counting protocol never talks to a radio directly; it asks an
:class:`ExchangeService` to perform a logical exchange and reacts to the
outcome, exactly like the paper's checkpoints rely on the transmission
control protocol of reference [6].
"""

from .channel import BernoulliLossChannel, ChannelModel, PerfectChannel, RangeLimitedChannel
from .exchange import ExchangeOutcome, ExchangeService, ExchangeStats
from .messages import CounterReport, LabelToken, StatusDigest

__all__ = [
    "BernoulliLossChannel",
    "ChannelModel",
    "PerfectChannel",
    "RangeLimitedChannel",
    "ExchangeOutcome",
    "ExchangeService",
    "ExchangeStats",
    "CounterReport",
    "LabelToken",
    "StatusDigest",
]
