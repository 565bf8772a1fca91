"""Measurement primitives of the end-to-end benchmark.

Everything here observes the program from outside: a span recorder the
workloads wrap around calls into public entry points, the self-time
arithmetic shared by that recorder and the program's own tracer spans,
sample statistics, the host stamp, and the correctness oracle. The
oracle uses numpy/scipy only, so a bug in ``repro`` cannot vouch for
itself.
"""

from __future__ import annotations

import os
import platform
import statistics
import sys
import time
from dataclasses import dataclass, field

import numpy as np
import scipy
import scipy.sparse.linalg as spla

RESIDUAL_TOL = 1e-8      # ||b - A x|| / ||b||
REFERENCE_TOL = 1e-6     # ||x - x_ref|| / ||x_ref|| against SuperLU


# -- spans --------------------------------------------------------------


@dataclass
class Span:
    """One closed span; the same shape as ``repro.obs.SpanRecord`` as
    far as :func:`self_times` reads it."""

    name: str
    start_s: float
    end_s: float
    depth: int

    @property
    def wall_s(self) -> float:
        return self.end_s - self.start_s


class _Open:
    """One span being timed; ``wall_s`` is set when it closes."""

    __slots__ = ("rec", "name", "start", "wall_s")

    def __init__(self, rec: "SpanRecorder", name: str):
        self.rec, self.name, self.start, self.wall_s = rec, name, 0.0, 0.0

    def __enter__(self) -> "_Open":
        self.rec._depth += 1
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        end = time.perf_counter()
        self.wall_s = end - self.start
        self.rec._depth -= 1
        self.rec.spans.append(Span(self.name, self.start, end,
                                   self.rec._depth))


class SpanRecorder:
    """The benchmark's own nested-span recorder (single thread)."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._depth = 0

    def span(self, name: str) -> _Open:
        return _Open(self, name)

    def walls(self, name: str) -> list[float]:
        """Wall time of every closed span called ``name``, in order."""
        return [s.wall_s for s in self.spans if s.name == name]

    def total(self, name: str) -> float:
        return sum(self.walls(name))


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus the part its direct
    children cover. ``spans`` need ``start_s``/``end_s``/``depth`` and
    must come from one properly nested stack (one thread)."""
    order = sorted(range(len(spans)),
                   key=lambda i: (spans[i].start_s, spans[i].depth))
    out = [s.end_s - s.start_s for s in spans]
    stack: list[int] = []
    for i in order:
        s = spans[i]
        while stack and spans[stack[-1]].depth >= s.depth:
            stack.pop()
        if stack:
            out[stack[-1]] -= s.end_s - s.start_s
        stack.append(i)
    return out


# -- statistics ---------------------------------------------------------


def percentile(values, p: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), p))


def summarize(values) -> dict:
    """Median, quartiles (as ``statistics.quantiles(n=4)`` gives them)
    and sample count of one metric's samples."""
    if len(values) == 1:
        return point(float(values[0]))
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def over_streams(streams: dict, combine=sum) -> dict:
    """Summary of a quantity kept as one stream of samples per matrix:
    each stream's median and quartiles, combined (added up, or
    averaged with ``statistics.fmean``)."""
    parts = [summarize(v) for v in streams.values() if len(v)]
    if not parts:
        return point(0.0, n=0)
    out = {k: combine(p[k] for p in parts) for k in ("median", "q1", "q3")}
    out["n"] = min(p["n"] for p in parts)
    return out


def point(value: float, n: int = 1) -> dict:
    """A metric that is one number (a percentile of ``n`` samples, a
    count, a peak), in the shape :func:`summarize` returns."""
    return {"median": value, "q1": value, "q3": value, "n": n}


# -- host stamp ---------------------------------------------------------


def _blas_vendor() -> str:
    try:
        cfg = np.show_config(mode="dicts")
        blas = cfg["Build Dependencies"]["blas"]
        return f"{blas.get('name', '?')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        return "unknown"


def host_stamp() -> dict:
    try:
        load1 = os.getloadavg()[0]
    except OSError:
        load1 = float("nan")
    return {
        "nproc": os.cpu_count() or 1,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_vendor(),
        "thread_pins": {k: v for k, v in sorted(os.environ.items())
                        if k.endswith("_NUM_THREADS")},
        "loadavg_1m_at_start": load1,
    }


def peak_rss_mb() -> float:
    import resource
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB, macOS bytes
    return rss / (1024.0 * 1024.0) if sys.platform == "darwin" \
        else rss / 1024.0


# -- correctness oracle -------------------------------------------------


@dataclass
class Oracle:
    """Counts operations attempted and failed, outside every timed
    region. An operation fails when it raised, was refused, did not
    converge, or its answer misses a tolerance. Comparisons against a
    SuperLU reference are queued and run by :meth:`run_references`, so
    that the reference factors do not count in the peak memory read
    after the measured pass."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    _queued: list[tuple] = field(default_factory=list)

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(what)

    def check(self, label: str, A, b: np.ndarray, x: np.ndarray,
              converged: bool, *, reference: bool = False) -> bool:
        """One solved column: the solver's own ``converged`` flag, the
        relative residual, and optionally (queued) a reference."""
        self.attempted += 1
        if not converged:
            self.fail(f"{label}: solver reported converged=False")
            return False
        res = float(np.linalg.norm(b - A @ x)) \
            / max(float(np.linalg.norm(b)), 1e-300)
        if not np.isfinite(res) or res > RESIDUAL_TOL:
            self.fail(f"{label}: residual {res:.3e} > {RESIDUAL_TOL:g}")
            return False
        if reference:
            self._queued.append((label, A, b, x))
        return True

    def check_block(self, label: str, A, B: np.ndarray, block) -> None:
        for j, col in enumerate(block):
            self.check(f"{label}[:, {j}]", A, B[:, j], col.x, col.converged)

    def check_identical(self, label: str, x: np.ndarray,
                        x_direct: np.ndarray) -> None:
        """A served answer must be the direct solve's, bit for bit."""
        self.attempted += 1
        if x.tobytes() != x_direct.tobytes():
            self.fail(f"{label}: served answer differs from the direct "
                      f"solve (max |dx| = "
                      f"{float(np.max(np.abs(x - x_direct))):.3e})")

    def run_references(self) -> None:
        """Compare every queued answer with ``scipy``'s SuperLU."""
        factors: dict = {}
        for label, A, b, x in self._queued:
            if id(A) not in factors:
                factors[id(A)] = spla.splu(A.tocsc())
            x_ref = factors[id(A)].solve(b)
            err = float(np.linalg.norm(x - x_ref)) \
                / max(float(np.linalg.norm(x_ref)), 1e-300)
            self.attempted += 1
            if not np.isfinite(err) or err > REFERENCE_TOL:
                self.fail(f"{label}: error vs SuperLU {err:.3e} > "
                          f"{REFERENCE_TOL:g}")
        self._queued.clear()

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
