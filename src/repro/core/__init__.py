"""Core: configuration, pipeline, ROB, ports, stats."""

from .config import (
    FIG11_ARCHES,
    FIG13_ARCHES,
    CoreConfig,
    SchedulerParams,
    config_for,
)
from .ifop import InFlightOp
from .pipeline import DeadlockError, Pipeline, SimulationDeadlock, simulate
from .ports import PORT_MAPS_BY_WIDTH, PortFile
from .regready import ReadyFile
from .rob import ReorderBuffer
from .sampling import (
    FastForward,
    SampledSimulation,
    simulate_sampled,
    with_sampling,
)
from .stats import DelayBreakdown, SimResult, SimStats

__all__ = [
    "FIG11_ARCHES",
    "FIG13_ARCHES",
    "CoreConfig",
    "SchedulerParams",
    "config_for",
    "InFlightOp",
    "DeadlockError",
    "Pipeline",
    "SimulationDeadlock",
    "simulate",
    "PORT_MAPS_BY_WIDTH",
    "PortFile",
    "ReadyFile",
    "ReorderBuffer",
    "FastForward",
    "SampledSimulation",
    "simulate_sampled",
    "with_sampling",
    "DelayBreakdown",
    "SimResult",
    "SimStats",
]
