"""Smoke scenarios: every CI drill behind one runner.

The paper's behavioural contract, and the promises this reproduction
adds to it (bit parity across backends, kill-and-resume, ABFT,
degraded-mode reporting, serving), are each proven by a *scenario*: a
seeded problem, the solves it needs, and a set of named boolean
checks. This module is the only place a scenario is defined::

    python -m repro.smoke <scenario> [--backend B] [--metrics F] [--trace F]

prints the scenario's JSON record, then one ``PASS``/``FAIL`` line per
check, and exits 0 iff every check passed (2 on an unknown scenario).
``--backend`` replaces the scenario's own execution backend
(``serial``, ``process:N``); ``--metrics`` / ``--trace``
write the scenario's tracer as ``metrics.json`` / Chrome-trace JSON.

Scenarios (:data:`SCENARIOS`; :func:`run` calls one by name):

- ``smoke`` / ``multirhs`` — one traced ``solve`` / one batched
  ``solve_block`` of the tiny Table-I matrix; their trace shape is what
  CI gates against ``benchmarks/baselines/<name>.json`` (:data:`GATED`),
  so they run ``serial``, as the baselines were recorded, whatever the
  ambient ``REPRO_BACKEND``;
- ``numerics`` — the robustness stress suite certifies (``berr <=
  1e-12``) with the numerics layer on and visibly fails with it off;
- ``faults`` — the smoke solve under :func:`standard_fault_plan`
  converges, degraded, with every recovery reported and booked;
- ``stragglers`` — a deadline fails a sleeping subdomain over to the
  root, bit-identical to serial;
- ``bitflip`` — a seeded bit flip at every ABFT site is detected and
  repaired under ``abft="detect+recover"`` and silently wrong under
  ``abft="off"``;
- ``restart`` — a child SIGTERMed mid-setup leaves a checkpoint the
  parent resumes byte-identically, refactoring only what was unfinished;
- ``parity`` / ``resume-parity`` — every Table-I matrix solves (resumes
  a truncated checkpoint) on the backend bit-identically to serial;
- ``service`` — mixed traffic through one ``SolverService``: cache hits,
  batching, revalidation, deadline rejections, no orphaned workers.

Scenarios sit *above* the solver: they drive the whole pipeline, so no
library layer imports this module.
"""

from __future__ import annotations

import argparse
import json
import math
import multiprocessing
import os
import signal
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from repro import envcfg
from repro.matrices import (
    generate,
    generate_robust,
    robust_suite_names,
    suite_names,
)
from repro.numerics import backward_errors
from repro.obs import Tracer, export_chrome_trace, stage_metrics, write_metrics
from repro.parallel.exec import ENV_TRANSPORT_CHECKSUM, get_backend
from repro.resilience import FaultPlan, FaultSpec, abft
from repro.resilience.checkpoint import (
    ENV_KILL_AFTER,
    load_checkpoint,
    truncate_checkpoint,
)
from repro.service import ServiceDeadlineError, SolverService
from repro.solver import PDSLin, PDSLinConfig, RuntimeOptions
from repro.solver.partasks import ENV_STRAGGLE_S, ENV_STRAGGLE_SUBDOMAIN

__all__ = ["SmokeRun", "Problem", "SCENARIOS", "GATED", "SEAMS", "run",
           "problem", "chaos_seams", "standard_fault_plan", "main"]

SMOKE_MATRIX = "tdr190k"
SCALE = "tiny"
K = 4
SEED = 0
MULTIRHS_NRHS = 16
CERTIFY_TOL = 1e-12      # required berr with the numerics layer on
UNPROTECTED_BERR = 1e-8  # berr the unprotected pipeline must exceed
COLD_MATRICES = ("tdr455k", "dds.quad", "matrix211")

#: Scenarios whose trace shape CI gates against a committed baseline.
GATED = ("smoke", "multirhs")

#: Every chaos seam: the ``REPRO_CHAOS_*`` variables and the transport
#: checksum switch. :func:`chaos_seams` clears all of them.
SEAMS = tuple(name for name in envcfg.REGISTRY
              if name.startswith("REPRO_CHAOS_")) + (ENV_TRANSPORT_CHECKSUM,)


@dataclass
class SmokeRun:
    """What every scenario returns: named boolean checks, the tracer of
    its main solve(s), and a JSON-able record of what it measured."""

    checks: dict[str, bool]
    tracer: Tracer
    record: dict

    @property
    def ok(self) -> bool:
        """True when there are checks and every one passed."""
        return bool(self.checks) and all(self.checks.values())


@dataclass
class Problem:
    """A seeded system and the solver configuration its drills share."""

    A: object
    M: object
    b: np.ndarray
    config: dict

    def solver(self, backend=None, config: dict | None = None,
               **runtime) -> PDSLin:
        """A fresh solver on this system; ``config`` overrides entries
        of the shared configuration, ``runtime`` goes to
        :class:`RuntimeOptions`."""
        return PDSLin(self.A, PDSLinConfig(**{**self.config, **(config or {})}),
                      M=self.M, runtime=RuntimeOptions(backend=backend,
                                                       **runtime))


def problem(name: str = SMOKE_MATRIX, *, nrhs: int = 0, suite: bool = False,
            **config) -> Problem:
    """The tiny ``name`` system with a seeded right-hand side (an
    ``(n, nrhs)`` block when ``nrhs``).

    ``suite=False`` is the smoke problem: ``A`` alone, hypergraph RHS
    ordering, block size 32. ``suite=True`` is a Table-I system as the
    parity and restart drills solve it: ``A`` with its ``M``, default
    configuration. ``config`` overrides either."""
    gm = generate(name, SCALE)
    A = gm.A.tocsr()
    rng = np.random.default_rng(SEED)
    b = rng.standard_normal((A.shape[0], nrhs) if nrhs else A.shape[0])
    base = dict(k=K, seed=SEED) if suite else dict(
        k=K, seed=SEED, rhs_ordering="hypergraph", block_size=32)
    return Problem(A, gm.M if suite else None, b, {**base, **config})


@contextmanager
def chaos_seams(env: dict | None = None):
    """Arm exactly the chaos seams in ``env``: every other one in
    :data:`SEAMS` is cleared and the one-shot bit-flip state re-armed.
    The caller's environment comes back on exit. Pool workers inherit
    the seams at fork, so build the solver (and its backend) inside."""
    saved = {name: os.environ.get(name) for name in SEAMS}
    for name in SEAMS:
        os.environ.pop(name, None)
    os.environ.update(env or {})
    abft.reset_bitflip_state()
    try:
        yield
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value
        abft.reset_bitflip_state()


def standard_fault_plan(*, k: int = K, seed: int = SEED) -> FaultPlan:
    """The canonical CI fault plan: one permanent ``LU(D)`` fault on one
    subdomain process plus one transient ``LU(S)`` fault on root. The
    victim is drawn from ``seed``, so the same seed always injures the
    same subdomain."""
    process = int(np.random.default_rng(seed).integers(0, k))
    return FaultPlan([
        FaultSpec(stage="LU(D)", process=process, kind="permanent"),
        FaultSpec(stage="LU(S)", process=None, kind="transient"),
    ], seed=seed)


def _outcome(result) -> dict:
    """The JSON-able summary of one solve."""
    return {"converged": bool(result.converged),
            "degraded": bool(result.degraded),
            "iterations": int(result.iterations),
            "residual_norm": float(result.residual_norm),
            "breakdown": result.breakdown(),
            "recovery": result.recovery.to_dict()}


SCENARIOS: dict[str, Callable[..., SmokeRun]] = {}


def scenario(name: str):
    """Register the decorated function as scenario ``name``."""
    def register(fn):
        SCENARIOS[name] = fn
        return fn
    return register


def run(name: str, **kwargs) -> SmokeRun:
    """Run the registered scenario ``name`` (``KeyError`` if unknown)."""
    return SCENARIOS[name](**kwargs)


# -- the traced solves CI gates ----------------------------------------------

def _gated(name: str, p: Problem, tracer: Tracer, converged: bool,
           iterations: int, **meta) -> SmokeRun:
    metrics = stage_metrics(tracer)
    metrics["meta"] = {
        "scenario": name, "matrix": SMOKE_MATRIX, "scale": SCALE, "k": K,
        "seed": SEED, **meta, "rhs_ordering": p.config["rhs_ordering"],
        "n": int(p.A.shape[0]), "nnz": int(p.A.nnz),
        "converged": bool(converged), "iterations": int(iterations)}
    return SmokeRun({"converged": bool(converged)}, tracer, metrics)


@scenario("smoke")
def _smoke(backend="serial") -> SmokeRun:
    """One traced solve of the smoke problem. It checkpoints into a
    throwaway directory so the checkpoint-write path (shard packing,
    digests, the manifest) is part of the gated trace shape; its byte
    counter rides under the ``noise:`` prefix. The record is the run's
    ``metrics.json``."""
    p = problem()
    tracer = Tracer()
    with tempfile.TemporaryDirectory(prefix="repro-smoke-ckpt-") as d:
        res = p.solver(backend, tracer=tracer, checkpoint=d).solve(p.b)
    return _gated("smoke", p, tracer, res.converged, res.iterations)


@scenario("multirhs")
def _multirhs(backend="serial") -> SmokeRun:
    """One setup, one batched ``solve_block`` over
    :data:`MULTIRHS_NRHS` columns: the batched path's stages
    (``solve_block``, ``refine_block``), how often each ran and its
    op counters (the throughput rides as ``noise:rhs_per_s``)."""
    p = problem(nrhs=MULTIRHS_NRHS)
    tracer = Tracer()
    solver = p.solver(backend, tracer=tracer)
    solver.setup()
    res = solver.solve_block(p.b)
    return _gated("multirhs", p, tracer, all(r.converged for r in res),
                  max(r.iterations for r in res), nrhs=MULTIRHS_NRHS)


# -- numerics ----------------------------------------------------------------

@scenario("numerics")
def _numerics(backend=None, check_unprotected: bool = True) -> SmokeRun:
    """Every ``ROBUST_SUITE`` matrix (graded scaling, shifted
    near-singular circuit) must converge *certified* (componentwise
    ``berr <= 1e-12``) with the numerics layer on, with condition and
    refinement counters in the tracer; with the layer off
    (``check_unprotected``) the same systems must visibly fail — no
    convergence, or ``berr > 1e-8`` — so the layer is load-bearing."""
    out = SmokeRun({}, Tracer(), {"results": {}})
    rng = np.random.default_rng(SEED)
    for name in robust_suite_names():
        gm = generate_robust(name, SCALE)
        p = Problem(gm.A, None, gm.A @ rng.standard_normal(gm.n),
                    dict(k=K, seed=SEED))
        res = p.solver(backend, tracer=out.tracer).solve(p.b)
        acc = res.accuracy
        entry = {
            "n": gm.n,
            "converged": bool(res.converged),
            "certified": bool(res.certified),
            "berr": float(acc.berr) if acc else float("nan"),
            "cond_est": float(acc.cond_est) if acc else float("nan"),
            "refine_steps": int(acc.refine_steps) if acc else 0,
        }
        out.checks[f"{name}:certified"] = bool(
            res.converged and res.certified
            and acc is not None and acc.berr <= CERTIFY_TOL)
        if check_unprotected:
            try:
                bare = p.solver(backend, config=dict(numerics=False)
                                ).solve(p.b)
                berr0 = backward_errors(gm.A, bare.x, p.b)[0]
                failed = (not bare.converged) or berr0 > UNPROTECTED_BERR
            except Exception as exc:  # breakdown counts as failure too
                berr0 = float("inf")
                failed = True
                entry["unprotected_error"] = type(exc).__name__
            entry["unprotected_berr"] = float(berr0)
            out.checks[f"{name}:unprotected-fails"] = bool(failed)
        out.record["results"][name] = entry
    counters = out.tracer.counters
    out.checks["cond_counters_present"] = bool(
        counters.get("cond_est_subdomain", 0) > 0
        and counters.get("cond_est_schur", 0) > 0)
    out.checks["refine_counters_present"] = bool(
        "refine_steps" in counters and "refine_certified" in counters)
    return out


# -- resilience --------------------------------------------------------------

@scenario("faults")
def _faults(backend=None) -> SmokeRun:
    """The smoke solve under :func:`standard_fault_plan`: it must still
    converge (``converged``), report recovery (``recovered``), book it
    as a ``Recover`` stage (``recover_stage``), count exactly the
    reported events in the tracer (``counters_match``) and flag the
    permanent fault as degradation (``degraded_flagged``)."""
    p = problem()
    tracer = Tracer()
    res = p.solver(backend, tracer=tracer,
                   fault_plan=standard_fault_plan()).solve(p.b)
    rep = res.recovery
    checks = {
        "converged": bool(res.converged),
        "recovered": bool(rep.events),
        "recover_stage": bool(res.breakdown().get("Recover", 0.0) > 0.0),
        "counters_match": int(tracer.counters.get("recovery_events", 0))
                          == len(rep.events),
        "degraded_flagged": bool(res.degraded),
    }
    return SmokeRun(checks, tracer, _outcome(res))


@scenario("stragglers")
def _stragglers(backend="process:2") -> SmokeRun:
    """The smoke solve on a process pool with subdomain 1 sleeping
    0.6 s. A 0.3 s task deadline must time it out (killing its worker)
    and fail it over to the root, honestly degraded (``deadline_fired``,
    ``deadline_degraded``), converge and match the clean serial solve
    byte for byte (``converged``, ``bit_identical``)."""
    p = problem()
    ref = p.solver("serial").solve(p.b)
    tracer = Tracer()
    # a private pool, forked with the seam armed (a warm shared one
    # would have been forked without it)
    with chaos_seams({ENV_STRAGGLE_SUBDOMAIN: "1", ENV_STRAGGLE_S: "0.6"}), \
            get_backend(backend, fresh=True) as pool:
        res = p.solver(pool, tracer=tracer, task_deadline_s=0.3).solve(p.b)
    actions = {e.action for e in res.recovery.events}
    checks = {
        "converged": bool(res.converged),
        "deadline_fired": tracer.counters.get("deadline_timeouts", 0) >= 1
                          and "deadline-failover" in actions,
        "deadline_degraded": bool(res.degraded),
        "bit_identical": ref.x.tobytes() == res.x.tobytes(),
    }
    return SmokeRun(checks, tracer, {"deadline": _outcome(res)})


@scenario("bitflip")
def _bitflip(backend=None,
             targets: tuple[str, ...] = envcfg.BITFLIP_TARGETS) -> SmokeRun:
    """Seeded exponent-bit flips at every injection site, on ``serial``
    and ``process:2`` (or ``backend`` alone), each against one
    fault-free reference. ``{target}/{backend}/defended``
    (``abft="detect+recover"``): the flip is detected and repaired
    (``sdc-detected``, ``sdc-recovered``, never ``sdc-unrecoverable``),
    the solve converges certified and non-degraded, byte-identical to
    the reference (within certification tolerance for ``krylov``: a
    warm restart is a different, equally certified iterate).
    ``{target}/{backend}/silent`` (``abft="off"``, and the transport
    checksum off for ``transport``): the answer changes while nothing
    is reported. ``condest`` is off: the condition-driven Schur rebuild
    would reassemble ``S`` after the injection and heal the ``schur``
    flip in both legs."""
    backends = ("serial", "process:2") if backend is None else (backend,)
    p = problem(condest=False)

    def leg(mode: str, backend: str, env: dict):
        tracer = Tracer()
        # a private pool per leg, forked with this leg's seams armed
        with chaos_seams(env), get_backend(backend, fresh=True) as pool:
            solver = p.solver(pool, config=dict(abft=mode), tracer=tracer)
            return solver.solve(p.b), tracer

    ref, ref_tracer = leg("detect+recover", "serial", {})
    out = SmokeRun({}, ref_tracer, {})
    for target in targets:
        for backend in backends:
            name = f"{target}/{backend}"
            res, tr = leg("detect+recover", backend, {
                abft.ENV_BITFLIP_TARGET: target, abft.ENV_BITFLIP_SEED: "7",
                abft.ENV_BITFLIP_SUBDOMAIN: "1"})
            actions = [e.action for e in res.recovery.events]
            out.record[f"{name}/defended"] = actions
            out.checks[f"{name}/defended"] = bool(
                res.converged and res.certified and not res.degraded
                and tr.counters.get("sdc_detected", 0) >= 1
                and tr.counters.get("sdc_recovered", 0) >= 1
                and "sdc-detected" in actions
                and "sdc-recovered" in actions
                and "sdc-unrecoverable" not in actions
                and (np.allclose(res.x, ref.x, rtol=1e-8, atol=1e-10)
                     if target == "krylov" else np.array_equal(res.x, ref.x)))

            # seed 2 for transport: the victim array is drawn from the
            # seed, and some draws land on shipped metadata (e.g. the
            # checksum vector itself) that never feeds x
            env = {abft.ENV_BITFLIP_TARGET: target,
                   abft.ENV_BITFLIP_SEED: "2" if target == "transport"
                                          else "8",
                   abft.ENV_BITFLIP_SUBDOMAIN: "1"}
            if target == "transport":
                env[ENV_TRANSPORT_CHECKSUM] = "0"
            res, tr = leg("off", backend, env)
            out.record[f"{name}/silent"] = [e.action
                                            for e in res.recovery.events]
            silent = bool(
                tr.counters.get("sdc_checks", 0) == 0
                and tr.counters.get("sdc_detected", 0) == 0
                and tr.counters.get("sdc_recovered", 0) == 0
                and not any(e.action.startswith("sdc-")
                            for e in res.recovery.events))
            out.checks[f"{name}/silent"] = \
                silent and res.x.tobytes() != ref.x.tobytes()
    return out


# -- checkpoint / restart ----------------------------------------------------

KILL_AFTER = 1
_SRC = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _restart_child(directory: str, backend: str) -> int:
    """The to-be-killed checkpointed solve. Reaching the end means the
    kill seam never fired — reported distinctly."""
    p = problem(suite=True)
    p.solver(backend, checkpoint=directory).solve(p.b)
    print("restart child: solve finished — kill seam did not fire",
          file=sys.stderr)
    return 3


def _same_accuracy(a, b) -> bool:
    """Exact equality of two certified-accuracy blocks, NaN == NaN
    (berr/cond fields may be NaN by design, e.g. with condest off)."""
    da, db = (r.accuracy.to_dict() if r.accuracy is not None else None
              for r in (a, b))
    if da is None or db is None:
        return da is db

    def nan(v):
        return isinstance(v, float) and math.isnan(v)
    return da.keys() == db.keys() and all(
        da[key] == db[key] or (nan(da[key]) and nan(db[key])) for key in da)


@scenario("restart")
def _restart(backend="serial", directory: str | None = None) -> SmokeRun:
    """Kill-and-resume: a child (``python -m repro.smoke restart
    --child DIR``) solves with the checkpoint kill seam armed and
    SIGTERMs itself right after subdomain 1 registers; the armed handler
    flushes pending shards and re-delivers the signal, so it dies *by
    SIGTERM* with a consistent checkpoint, as an external kill would.
    The parent resumes from that directory and checks the result is
    byte-identical to an uninterrupted solve (``x`` and the certified
    accuracy block) while only the unfinished subdomains were
    refactored (tracer span counts)."""
    with tempfile.TemporaryDirectory(prefix="repro-restart-") as tmp:
        directory = directory or tmp
        env = {**os.environ, ENV_KILL_AFTER: str(KILL_AFTER),
               "PYTHONPATH": os.pathsep.join(
                   path for path in (_SRC, os.environ.get("PYTHONPATH"))
                   if path)}
        proc = subprocess.run(
            [sys.executable, "-m", "repro.smoke", "restart",
             "--backend", backend, "--child", directory],
            env=env, timeout=300)
        done = list(load_checkpoint(directory).subdomains_done)
        p = problem(suite=True)
        tracer = Tracer()
        resumed = p.solver(backend, tracer=tracer, checkpoint=directory,
                           resume=directory).solve(p.b)
        reference = p.solver(backend).solve(p.b)
    restored = int(tracer.counters.get("checkpoint_subdomains_restored", 0))
    refactored = tracer.span_count("factor_subdomain")
    checks = {
        "child_died_by_sigterm": proc.returncode == -signal.SIGTERM,
        "subdomains_done_at_kill": bool(done),
        "bit_identical": reference.x.tobytes() == resumed.x.tobytes(),
        "accuracy_identical": _same_accuracy(reference, resumed),
        "only_unfinished_redone": restored == len(done)
                                  and refactored == K - restored,
    }
    return SmokeRun(checks, tracer, {
        "backend": backend, "kill_after": KILL_AFTER,
        "child_exit": proc.returncode, "subdomains_done_at_kill": done,
        "subdomains_restored": restored,
        "subdomains_refactored": refactored,
        "residual_norm": float(resumed.residual_norm)})


def _parity_sweep(backend: str, resume: bool) -> SmokeRun:
    """Every Table-I matrix on ``backend`` against a serial solve: the
    answer bytes and iteration count must match. With ``resume``, the
    backend run is a checkpointed solve truncated to ``K // 2``
    finished subdomains and resumed, which must also restore exactly
    those and refactor only the rest."""
    out = SmokeRun({}, Tracer(), {})
    keep = max(1, K // 2)
    for name in suite_names():
        p = problem(name, suite=True)
        ref = p.solver("serial").solve(p.b)
        restored = out.tracer.counters.get(
            "checkpoint_subdomains_restored", 0)
        refactored = out.tracer.span_count("factor_subdomain")
        if resume:
            with tempfile.TemporaryDirectory(prefix="repro-parity-") as d:
                p.solver(backend, checkpoint=d).solve(p.b)
                truncate_checkpoint(d, keep)
                res = p.solver(backend, tracer=out.tracer, resume=d,
                               checkpoint=d).solve(p.b)
            redone_only = (
                out.tracer.counters.get("checkpoint_subdomains_restored", 0)
                - restored == keep
                and out.tracer.span_count("factor_subdomain")
                - refactored == K - keep)
        else:
            res = p.solver(backend, tracer=out.tracer).solve(p.b)
            redone_only = True
        out.checks[name] = bool(ref.x.tobytes() == res.x.tobytes()
                                and ref.iterations == res.iterations
                                and redone_only)
        out.record[name] = {
            "n": int(p.A.shape[0]),
            "iterations": [ref.iterations, res.iterations],
            "max_abs_diff": float(np.max(np.abs(ref.x - res.x)))
            if ref.x.shape == res.x.shape else float("inf")}
    return out


@scenario("parity")
def _parity(backend="process:4") -> SmokeRun:
    """Backend bit parity over the Table-I suite (see
    :func:`_parity_sweep`)."""
    return _parity_sweep(backend, resume=False)


@scenario("resume-parity")
def _resume_parity(backend="process:2") -> SmokeRun:
    """Checkpoint-resume bit parity over the Table-I suite (see
    :func:`_parity_sweep`)."""
    return _parity_sweep(backend, resume=True)


# -- serving -----------------------------------------------------------------

@scenario("service")
def _service(backend="serial", n_requests: int = 32) -> SmokeRun:
    """Traffic replay through one :class:`SolverService`: hot-matrix
    bursts with cold matrices interleaved, fingerprint-addressed
    requests, an ``update_matrix`` revalidation and unmeetable
    deadlines. Every request converges; sampled cache-hit answers and
    the revalidated session are bit-identical to fresh serial solves
    (parity with serial is the contract); deadline-doomed requests are
    rejected with :class:`ServiceDeadlineError`; and no worker process
    *the service* started survives ``close()``."""
    rng = np.random.default_rng(SEED)
    cfg = PDSLinConfig(k=K, seed=SEED)
    serial = RuntimeOptions(backend="serial")
    hot = generate(SMOKE_MATRIX, SCALE).A
    colds = [generate(name, SCALE).A for name in COLD_MATRICES]
    tracer = Tracer()
    checks: dict[str, bool] = {}
    before = set(multiprocessing.active_children())
    svc = SolverService(config=cfg, backend=backend, tracer=tracer,
                        batch_window_s=0.01)
    try:
        # -- hot bursts with cold matrices interleaved
        futures, parity_pairs = [], []
        for i in range(n_requests):
            cold = i % 8 == 3 and i // 8 < len(colds)
            A = colds[i // 8] if cold else hot
            b = rng.standard_normal(A.shape[0])
            futures.append(svc.submit(A, b))
            if i in (0, 9):           # one cold, one likely-hot probe
                parity_pairs.append((A, b, futures[-1]))
        results = [f.result(timeout=600) for f in futures]
        checks["all_converged"] = all(r.converged for r in results)
        checks["bit_identical"] = all(
            fut.result().x.tobytes()
            == PDSLin(A, cfg, runtime=serial).solve(b).x.tobytes()
            for A, b, fut in parity_pairs)

        # -- fingerprint-addressed hot traffic
        fp = svc.fingerprint(hot, cfg)
        checks["fingerprint_path"] = svc.solve(
            fp, rng.standard_normal(hot.shape[0])).converged

        # -- revalidation: same pattern, scaled values
        hot2 = hot.copy()
        hot2.data = hot2.data * 1.25
        key2 = svc.update_matrix(hot2)
        b2 = rng.standard_normal(hot2.shape[0])
        checks["revalidated_bit_identical"] = (
            svc.solve(key2, b2).x.tobytes()
            == PDSLin(hot2, cfg, runtime=serial).solve(b2).x.tobytes())

        # -- unmeetable deadlines: stall dispatch with a queued batch so
        # the doomed requests provably expire while waiting
        doomed = [svc.submit(key2, rng.standard_normal(hot2.shape[0]),
                             deadline_s=1e-4) for _ in range(3)]
        time.sleep(0.002)
        missed = 0
        for fut in doomed:
            try:
                fut.result(timeout=600)
            except ServiceDeadlineError:
                missed += 1
        checks["deadline_rejections"] = missed >= 1

        report = svc.service_report()
        checks["cache_hits"] = report["cache"]["hits"] > 0
        checks["batching"] = report["requests"]["max_batch_nrhs"] >= 2
        checks["revalidation_counted"] = \
            report["requests"]["revalidations"] == 1
    finally:
        svc.close()
    checks["no_orphan_workers"] = \
        not set(multiprocessing.active_children()) - before
    return SmokeRun(checks, tracer, {"backend": backend, "report": report})


# -- CLI ---------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    """``python -m repro.smoke <scenario>``: run it, print its record
    and one ``PASS``/``FAIL`` line per check; exit 0 iff all passed."""
    ap = argparse.ArgumentParser(
        prog="python -m repro.smoke",
        description="run one smoke scenario; exit 0 iff every check passed")
    ap.add_argument("scenario", choices=sorted(SCENARIOS))
    ap.add_argument("--backend", default=None,
                    help="execution backend (serial, process:N); "
                         "default: the scenario's own")
    ap.add_argument("--metrics", default=None,
                    help="write the scenario tracer's metrics.json here")
    ap.add_argument("--trace", default=None,
                    help="write the scenario tracer's Chrome trace here")
    ap.add_argument("--child", default=None, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child:
        return _restart_child(args.child, args.backend or "serial")

    kwargs = {} if args.backend is None else {"backend": args.backend}
    out = run(args.scenario, **kwargs)
    print(json.dumps(out.record, indent=1, sort_keys=True, default=str))
    for path, write in (
            (args.metrics, lambda f: write_metrics(
                out.tracer, f, meta=out.record.get("meta"))),
            (args.trace, lambda f: export_chrome_trace(out.tracer, f))):
        if path:
            Path(path).parent.mkdir(parents=True, exist_ok=True)
            write(path)
            print(f"wrote {path}")
    for name, passed in out.checks.items():
        print(f"{'PASS' if passed else 'FAIL'} {name}")
    return 0 if out.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
