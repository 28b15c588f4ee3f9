"""In-network communication simulation and fault injection (S11)."""

from .faults import FaultConfig, FaultInjector, RetryPolicy
from .simulator import (
    CommunicationReport,
    DEGRADATION_BUCKETS,
    DegradedReport,
    NetworkSimulator,
    default_server_position,
)

__all__ = [
    "CommunicationReport",
    "DEGRADATION_BUCKETS",
    "DegradedReport",
    "FaultConfig",
    "FaultInjector",
    "NetworkSimulator",
    "RetryPolicy",
    "default_server_position",
]
