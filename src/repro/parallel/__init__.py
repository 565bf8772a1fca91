"""Parallel execution layer: the simulated distributed machine
(per-process ledgers, stage makespans, balance ratios, the two-level
core-count projection) and the real execution backends
(serial/process) that run the per-subdomain work."""

from repro.parallel.costmodel import (
    DEFAULT_STAGE_SCALING,
    StageScaling,
    TwoLevelModel,
    record_model_skew,
)
from repro.parallel.exec import (
    Executor,
    ProcessBackend,
    SerialBackend,
    TaskOutcome,
    backend_names,
    get_backend,
    resolve_backend,
)
from repro.parallel.machine import RECOVER_STAGE, ProcessLedger, SimulatedMachine
from repro.parallel.trace import (
    STAGE_ORDER,
    export_chrome_trace,
    machine_events,
)

__all__ = [
    "ProcessLedger", "SimulatedMachine", "RECOVER_STAGE",
    "StageScaling", "TwoLevelModel", "DEFAULT_STAGE_SCALING",
    "record_model_skew",
    "Executor", "SerialBackend", "ProcessBackend",
    "TaskOutcome", "resolve_backend", "get_backend", "backend_names",
    "export_chrome_trace", "machine_events", "STAGE_ORDER",
]
