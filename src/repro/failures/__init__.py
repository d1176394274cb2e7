"""Failure injection: loss, degraded links, partitions, chaos schedules."""

from .detector import (
    ALIVE,
    DEFAULT_SUSPICION_THRESHOLD,
    FailureDetector,
    PeerState,
    SUSPECTED,
)
from .injectors import (
    begin_crash,
    begin_latency_spike,
    begin_message_loss,
    begin_overload,
    begin_partition,
    degraded_link,
    latency_spike,
    message_loss,
    partitioned,
)
from .schedule import FAULT_KINDS, ChaosSchedule, Fault

__all__ = [
    "ALIVE", "ChaosSchedule", "DEFAULT_SUSPICION_THRESHOLD",
    "FAULT_KINDS", "FailureDetector", "Fault", "PeerState", "SUSPECTED",
    "begin_crash", "begin_latency_spike", "begin_message_loss",
    "begin_overload", "begin_partition", "degraded_link", "latency_spike",
    "message_loss", "partitioned",
]
