"""Simulation substrate: latency model, event loop, network executor."""

from .latency import DEFAULT_LATENCY, LatencyModel
from .engine import EventHandle, EventLoop, RepeatingEventHandle, SimulationError
from .front_layer import FrontLayer
from .executor import (
    ExecutionError,
    JobExecutionResult,
    NetworkExecutor,
    ScheduledJob,
    local_execution_time,
    mean_completion_time,
)
from .network_round import network_round

__all__ = [
    "DEFAULT_LATENCY",
    "EventHandle",
    "EventLoop",
    "ExecutionError",
    "FrontLayer",
    "JobExecutionResult",
    "LatencyModel",
    "NetworkExecutor",
    "RepeatingEventHandle",
    "ScheduledJob",
    "SimulationError",
    "local_execution_time",
    "mean_completion_time",
    "network_round",
]
