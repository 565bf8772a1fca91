"""Chrome-trace export of a simulated run.

Serializes a :class:`SimulatedMachine`'s per-process stage times as a
Trace Event Format JSON (load it at ``chrome://tracing`` or in Perfetto)
so the simulated parallel schedule — stage bars per subdomain process,
serial root stages — can be inspected visually, the way one would
inspect an MPI trace of the real PDSLin.

The machine records only stage *totals* per process, so the timeline
lays stages out sequentially in the canonical pipeline order; within a
stage every process starts together (bulk-synchronous), which is exactly
the model the makespan accounting uses. The events use the shared
:class:`repro.obs.TraceEvent` model, so simulated schedules and real
wall-clock traces (:func:`repro.obs.export.export_chrome_trace`) render
identically.
"""

from __future__ import annotations

from pathlib import Path
from typing import TextIO, Union

from repro.obs.events import TraceEvent, write_chrome_trace
from repro.parallel.machine import SimulatedMachine

__all__ = ["export_chrome_trace", "machine_events", "STAGE_ORDER"]

# canonical pipeline order; unknown stages go to the end alphabetically
STAGE_ORDER = ("Partition", "LU(D)", "Comp(S)", "LU(S)", "Solve")


def _ordered_stages(machine: SimulatedMachine) -> list[str]:
    names = machine.stage_names()
    known = [s for s in STAGE_ORDER if s in names]
    rest = sorted(s for s in names if s not in STAGE_ORDER)
    return known + rest


def machine_events(machine: SimulatedMachine) -> list[TraceEvent]:
    """Lay the machine's stage totals out as shared-model trace events.

    Stages run back to back; within a stage all subdomain processes
    start together (tracks ``proc0..proc{k-1}``) and the root's serial
    share (track ``root``) follows the longest of them.
    """
    events: list[TraceEvent] = []
    t_cursor = 0.0  # microseconds
    for stage in _ordered_stages(machine):
        stage_start = t_cursor
        longest = 0.0
        for ell, seconds in enumerate(machine.process_stage_times(stage)):
            dt = float(seconds) * 1e6
            if dt <= 0:
                continue
            events.append(TraceEvent(
                name=stage, ts_us=stage_start, dur_us=dt,
                track=f"proc{ell}", args={"process": f"subdomain {ell}"}))
            longest = max(longest, dt)
        root_dt = machine.serial_stage_time(stage) * 1e6
        if root_dt > 0:
            events.append(TraceEvent(
                name=stage, ts_us=stage_start + longest, dur_us=root_dt,
                track="root", args={"process": "root"}))
            longest += root_dt
        t_cursor = stage_start + longest
    return events


def export_chrome_trace(machine: SimulatedMachine,
                        path_or_file: Union[str, Path, TextIO]) -> dict:
    """Write the trace JSON; returns the trace dict as well."""
    tracks = ["root"] + [f"proc{ell}" for ell in range(machine.k)]
    return write_chrome_trace(machine_events(machine), path_or_file,
                              process_name="SimulatedMachine",
                              track_order=tracks)
