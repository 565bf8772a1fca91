"""Simulated distributed machine for PDSLin's inter-process accounting.

mpi4py is unavailable in this environment (see DESIGN.md substitutions),
and the paper's partitioning claims concern *inter-process load
balance*: every per-subdomain stage cost is a deterministic function of
the partition, so the parallel run time of a stage is simply the
maximum of the per-subdomain costs. :class:`SimulatedMachine` executes
subdomain work serially, records per-process wall time and flops, and
reports stage makespans and balance ratios — the quantities plotted in
Fig. 1/3 and reported in Table II.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import TYPE_CHECKING, Dict, List, Optional

import numpy as np

from repro.utils import OpCounter, positive_int

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.resilience.faults import FaultPlan

__all__ = ["ProcessLedger", "SimulatedMachine", "RECOVER_STAGE"]

#: Stage name all recovery work (retries, failover re-execution,
#: deterministic recovery charges) is accounted under.
RECOVER_STAGE = "Recover"


@dataclass
class StageSeconds:
    """Seconds per stage name: the one place stage time accumulates."""

    totals: Dict[str, float] = field(default_factory=dict)

    def add(self, stage: str, seconds: float) -> None:
        if seconds < 0:
            raise ValueError("seconds must be non-negative")
        self.totals[stage] = self.totals.get(stage, 0.0) + seconds

    def get(self, stage: str) -> float:
        return self.totals.get(stage, 0.0)


@dataclass
class ProcessLedger:
    """Per simulated process: stage wall times and flop counts."""

    timer: StageSeconds = field(default_factory=StageSeconds)
    ops: OpCounter = field(default_factory=OpCounter)


@dataclass(slots=True)
class _StageEntry:
    """One entry of ``stage`` on one ledger (see
    :meth:`SimulatedMachine.on_process`)."""

    _plan: Optional["FaultPlan"]
    _ledger: ProcessLedger
    _stage: str
    _ell: int | None
    _t0: float = 0.0

    def __enter__(self) -> ProcessLedger:
        self._t0 = perf_counter()
        if self._plan is not None:
            try:
                self._plan.before(self._stage, self._ell)
            except BaseException as exc:
                # __exit__ does not run when __enter__ raises: the
                # failed entry still costs its wall time
                self.__exit__(type(exc), exc, None)
                raise
        return self._ledger

    def __exit__(self, exc_type, exc, tb) -> None:
        timer = self._ledger.timer
        timer.add(self._stage, perf_counter() - self._t0)
        if exc_type is None and self._plan is not None:
            timer.add(self._stage, self._plan.after(self._stage, self._ell))


class SimulatedMachine:
    """``k`` subdomain processes plus one logical root process.

    Per-stage parallel time = max over processes that participated;
    serial (root) stages add directly.

    An optional :class:`repro.resilience.FaultPlan` arms fault
    injection: entering a stage the plan targets raises an
    :class:`~repro.resilience.InjectedFault` (charged the entry's wall
    time), and straggler specs inflate the stage's simulated cost on
    successful exit. Recovery actions charge simulated time to the
    :data:`RECOVER_STAGE` stage via :meth:`charge_recovery`.
    """

    def __init__(self, k: int, *, fault_plan: Optional["FaultPlan"] = None):
        self.k = positive_int(k, "k")
        self.processes: List[ProcessLedger] = [ProcessLedger() for _ in range(self.k)]
        self.root = ProcessLedger()
        self.fault_plan = fault_plan

    def on_process(self, ell: int, stage: str) -> _StageEntry:
        """Attribute the enclosed work to process ``ell`` under ``stage``."""
        if not (0 <= ell < self.k):
            raise IndexError(f"process {ell} out of range [0, {self.k})")
        return _StageEntry(self.fault_plan, self.processes[ell], stage, ell)

    def on_root(self, stage: str) -> _StageEntry:
        return _StageEntry(self.fault_plan, self.root, stage, None)

    def charge_recovery(self, ell: int | None = None, *,
                        seconds: float, flops: int = 0) -> None:
        """Charge deterministic recovery cost to process ``ell`` (or the
        root when ``None``) under the :data:`RECOVER_STAGE` stage."""
        ledger = self.root if ell is None else self.processes[ell]
        ledger.timer.add(RECOVER_STAGE, seconds)
        if flops:
            ledger.ops.add(RECOVER_STAGE, flops)

    # -- queries ---------------------------------------------------------

    def process_stage_times(self, stage: str) -> np.ndarray:
        return np.asarray([p.timer.get(stage) for p in self.processes])

    def process_stage_flops(self, stage: str) -> np.ndarray:
        return np.asarray([p.ops.get(stage) for p in self.processes],
                          dtype=np.int64)

    def parallel_stage_time(self, stage: str) -> float:
        """Simulated wall time of a parallel stage: max over processes."""
        t = self.process_stage_times(stage)
        return float(t.max()) if t.size else 0.0

    def serial_stage_time(self, stage: str) -> float:
        return self.root.timer.get(stage)

    def stage_names(self) -> list[str]:
        names: set[str] = set(self.root.timer.totals)
        for p in self.processes:
            names.update(p.timer.totals)
        return sorted(names)

    def breakdown(self) -> Dict[str, float]:
        """Simulated time per stage (parallel stages as makespans)."""
        out: Dict[str, float] = {}
        for s in self.stage_names():
            out[s] = self.parallel_stage_time(s) + self.serial_stage_time(s)
        return out

    def makespan(self) -> float:
        """Total simulated time: stages execute in sequence."""
        return float(sum(self.breakdown().values()))

    def balance_ratio(self, stage: str, *, use_flops: bool = False) -> float:
        """Wmax/Wmin over processes that *participated* in a stage (the
        paper's balance metric). Processes with zero recorded work never
        entered the stage and are excluded — a partially-attended stage
        reports the imbalance among its actual workers, not inf. A
        stage nobody entered has ratio 1."""
        w = (self.process_stage_flops(stage).astype(np.float64)
             if use_flops else self.process_stage_times(stage))
        w = w[w > 0]
        if w.size == 0:
            return 1.0
        return float(w.max() / w.min())

    def report(self) -> str:
        rows = [f"{s:<16} {t:.4f}s" for s, t in sorted(self.breakdown().items())]
        rows.append(f"{'TOTAL':<16} {self.makespan():.4f}s")
        return "\n".join(rows)
