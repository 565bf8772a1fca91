"""Trace-shape gate: diff fresh metrics against a baseline.

What is compared is what a fixed seed makes deterministic: the stage
set, how often each stage ran (exactly), and every counter — op counts,
padded zeros, iterations, ABFT audits, certificates — within ``ops_tol``
of the baseline *in either direction* (some, like ``cond_est_*``, are
floats whose last digits move across numpy/scipy builds): a counter
that falls — audits silently off, a certificate no longer issued — is
as much a change as one that grows. A stage missing from either side
fails too. Every failure means the pipeline changed shape and the
baseline must be re-recorded deliberately. Counters prefixed ``noise:``
(model skew, throughput, byte counts) are machine noise by construction
and are never gated.

Wall time is not judged here: single runs on a shared machine spike by
an order of magnitude, and every PR's timing (the ABFT share included:
``resilience.abft_s``) is held to the alternating parent/child
comparison of ``benchmarks/e2e/compare.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["GateCheck", "GateReport", "compare_metrics",
           "DEFAULT_OPS_TOL", "NOISE_COUNTER_PREFIX"]

DEFAULT_OPS_TOL = 1.10
#: Counters whose names start with this prefix are measurement noise
#: (real-vs-modeled wall-clock skew, etc.): excluded from gating and
#: from baseline determinism checks.
NOISE_COUNTER_PREFIX = "noise:"


@dataclass(frozen=True)
class GateCheck:
    """One comparison: a stage's call count or one of its counters."""

    stage: str
    metric: str              # "calls" or a counter name
    baseline: float
    current: float
    tolerance: float
    regressed: bool

    @property
    def ratio(self) -> float:
        if self.baseline <= 0:
            return float("inf") if self.current > 0 else 1.0
        return self.current / self.baseline

    def describe(self) -> str:
        line = (f"[{'FAIL' if self.regressed else 'ok':>4}] "
                f"{self.stage}/{self.metric}: "
                f"{self.baseline:g} -> {self.current:g} "
                f"(x{self.ratio:.3f}, tol x{self.tolerance:g} either way)")
        if self.regressed:
            line += " — behaviour changed; re-record the baseline deliberately"
        return line


@dataclass
class GateReport:
    """All checks plus the verdict."""

    checks: list[GateCheck]
    missing_stages: list[str]
    extra_stages: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.missing_stages and not self.extra_stages and \
            not any(c.regressed for c in self.checks)

    @property
    def regressions(self) -> list[GateCheck]:
        return [c for c in self.checks if c.regressed]

    def describe(self) -> str:
        lines = [c.describe() for c in self.checks]
        lines.extend(f"[FAIL] stage {s!r} in baseline but not in current run"
                     " — pipeline lost a stage; re-record the baseline if"
                     " intentional" for s in self.missing_stages)
        lines.extend(f"[FAIL] stage {s!r} in current run but not in baseline"
                     " — pipeline grew a stage; re-record the baseline if"
                     " intentional" for s in self.extra_stages)
        n_shape = len(self.missing_stages) + len(self.extra_stages)
        verdict = "PASS" if self.ok else \
            f"FAIL ({len(self.regressions) + n_shape} regressions)"
        lines.append(f"perf gate: {verdict}")
        return "\n".join(lines)


def _calls(name: str, st: dict, which: str) -> int:
    """Extract a stage's call count, failing with a clear message (not
    a ``KeyError``) when a metrics file is malformed."""
    try:
        return int(st["calls"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(
            f"malformed {which} metrics: stage {name!r} has no usable "
            f"'calls' entry ({exc!r})") from exc


def _check(stage: str, metric: str, base: float, cur: float,
           tol: float) -> GateCheck:
    outside = cur > tol * base + 1e-12 or cur < base / tol - 1e-12
    return GateCheck(stage, metric, base, cur, tol, regressed=outside)


def compare_metrics(current: dict, baseline: dict, *,
                    ops_tol: float = DEFAULT_OPS_TOL) -> GateReport:
    """Gate ``current`` metrics against ``baseline`` (both are
    :func:`repro.obs.export.stage_metrics`-shaped dicts)."""
    if ops_tol < 1:
        raise ValueError("ops_tol is a ratio >= 1")
    checks: list[GateCheck] = []
    missing: list[str] = []
    cur_stages = current.get("stages", {})
    base_stages = baseline.get("stages", {})
    for name, base_st in sorted(base_stages.items()):
        cur_st = cur_stages.get(name)
        if cur_st is None:
            missing.append(name)
            continue
        checks.append(_check(name, "calls", _calls(name, base_st, "baseline"),
                             _calls(name, cur_st, "current"), 1.0))
        base_c = base_st.get("counters", {})
        cur_c = cur_st.get("counters", {})
        for cname in sorted(base_c.keys() | cur_c.keys()):
            if not cname.startswith(NOISE_COUNTER_PREFIX):
                checks.append(_check(name, cname,
                                     float(base_c.get(cname, 0.0)),
                                     float(cur_c.get(cname, 0.0)), ops_tol))
    extra = sorted(set(cur_stages) - set(base_stages))
    return GateReport(checks=checks, missing_stages=missing,
                      extra_stages=extra)
