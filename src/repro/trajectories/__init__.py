"""Moving-object workloads and crossing events (system S5)."""

from .columns import EventColumns, columnarize
from .events import (
    CrossingEvent,
    all_events,
    distinct_visitors,
    ingest,
    net_change,
    occupancy_count,
    trip_events,
)
from .generator import Trip, plan_trip, plan_trip_along
from .workload import DAY, Workload, WorkloadConfig, generate_workload

__all__ = [
    "CrossingEvent",
    "DAY",
    "EventColumns",
    "Trip",
    "Workload",
    "WorkloadConfig",
    "all_events",
    "columnarize",
    "distinct_visitors",
    "generate_workload",
    "ingest",
    "net_change",
    "occupancy_count",
    "plan_trip",
    "plan_trip_along",
    "trip_events",
]
