"""The benchmark's workloads.

Four drive :class:`repro.PDSLin` directly and differ only in their
:class:`Direct` spec; the fifth drives :class:`repro.service.SolverService`
with an open-loop arrival schedule. Every call into the program sits in a
span of the benchmark's own recorder; every answer is checked by the
oracle between timed spans, never inside one.

The partitioner seed stays at the ``PDSLinConfig`` default: across
partition seeds the separator changes by ~5 % and small-scale set-up
time by 10-25 %, wider than any bound this benchmark could then hold.
``--seed`` drives the right-hand sides and the request routing.
"""

from __future__ import annotations

import functools
import os
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field, replace

import numpy as np

import repro
from harness import Oracle, SpanRecorder, percentile
from repro import PDSLin, PDSLinConfig, RuntimeOptions, generate
from repro.obs import Tracer
from repro.parallel.exec import get_backend
from repro.service import ServiceError, SolverService

K = 8
# the paper's baseline configuration, as PDSLinConfig overrides
NGD_CONFIG = (("partitioner", "ngd"), ("rhs_ordering", "hypergraph"))


@dataclass(frozen=True)
class Direct:
    """A workload on ``PDSLin``, in rounds. A round is a cold part (a
    fresh solver, ``setup()`` and a first ``solve(b)`` per matrix) and
    then warm cycles on those solvers (one ``solve_block`` of ``nrhs``
    columns and ``singles`` single-RHS ``solve`` calls per matrix).
    ``--seconds`` is spent on rounds (``timed="cold"``) or on the warm
    cycles of each round (``timed="warm"``); the other count is its
    floor. Warm cycles follow every round, not the last only, so that
    the warm samples are spread over the whole run: this host slows
    down by a fifth for several seconds at a time."""

    matrices: tuple[str, ...]
    scale: str
    with_M: bool            # give RHB the generator's structural factor
    config: tuple = ()      # PDSLinConfig overrides, as dict items
    min_rounds: int = 1
    timed: str = "cold"     # "cold" | "warm"
    min_cycles: int = 2     # per round
    singles: int = 8
    nrhs: int = 16
    process_backend: bool = False     # traced run adds parallel.* layers


@dataclass(frozen=True)
class Served:
    """A workload on ``SolverService`` (defaults for window, cache budget
    and queue limit): cold ``solve(A, b)`` per matrix, an open loop at
    ``rate`` requests/s routed by fingerprint with ``mix``, then bursts
    of ``burst`` simultaneous submits."""

    matrices: tuple[str, ...]
    scale: str
    mix: tuple[float, ...]
    with_M: bool = False    # the service is handed A only
    config: tuple = ()      # PDSLinConfig overrides, as dict items
    rate: float = 40.0
    open_frac: float = 0.6  # share of --seconds the open loop runs
    bursts: int = 5
    burst: int = 192
    identical_on: int = 1   # index of the matrix (the cheapest to set up)
    #                         whose served answers are compared bit for
    #                         bit with an independent direct solver
    identical_samples: int = 32


WORKLOADS = {
    # at medium scale 1.5-5 % of solves stall in refinement for seconds and
    # may rebuild the preconditioner (README, hazards), so the warm part
    # is kept to twelve single-column calls per round, which the medians
    # of 18 samples ignore. Fewer calls would not do: the same solve
    # takes 50-100 ms from one right-hand side to the next, and the
    # median of three block calls spread by 20-30 % between seeds
    "cold_cavity": Direct(("tdr190k",), "medium", with_M=True, min_rounds=3,
                          min_cycles=6, singles=1, nrhs=1),
    "cold_circuit": Direct(("ASIC_680ks", "G3_circuit"), "small",
                           with_M=False, min_rounds=5,
                           process_backend=True),
    "cold_circuit_ngd": Direct(("ASIC_680ks", "G3_circuit"), "small",
                               with_M=False, min_rounds=5,
                               config=NGD_CONFIG),
    "multirhs": Direct(("tdr190k", "matrix211", "G3_circuit"), "small",
                       with_M=True, timed="warm", min_cycles=5, singles=20,
                       nrhs=64),
    "service_hot": Served(("dds.linear", "ASIC_680ks", "G3_circuit"),
                          "small", mix=(0.6, 0.2, 0.2)),
}


def quick(spec):
    """The ``--quick`` variant: tiny matrices, floors of one."""
    if isinstance(spec, Direct):
        return replace(spec, scale="tiny", min_rounds=1, min_cycles=1,
                       singles=4)
    return replace(spec, scale="tiny", bursts=1, burst=48,
                   identical_samples=8)


@dataclass
class Pass:
    """What one pass over a workload measured."""

    # end-to-end quantity -> {stream: samples}. The PDSLin workloads keep
    # one stream per matrix: pooling matrices of different cost makes a
    # bimodal sample whose median sits in the gap between the modes, and
    # summing a round lets one disturbed call spoil the whole sample.
    # "batch_s" holds the walls of batches of ``batch_cols`` columns.
    samples: dict
    batch_cols: int
    wall_s: float           # wall the benchmark measured around the calls
    bench: dict = field(default_factory=dict)   # per-layer values
    plan: tuple[int, int] = (0, 0)   # (rounds, warm cycles of the last
    #                                  round) or (cold rounds, bursts)
    traffic: "Traffic | None" = None  # the open loop, for later checks


@functools.lru_cache(maxsize=None)
def _generate(name: str, scale: str):
    return generate(name, scale)


def _matrices(spec):
    return [_generate(name, spec.scale) for name in spec.matrices]


def _config(spec, **overrides) -> PDSLinConfig:
    return PDSLinConfig(k=K, **{**dict(spec.config), **overrides})


# -- PDSLin workloads ---------------------------------------------------


def run_direct(spec: Direct, rng, oracle: Oracle, *, seconds: float,
               tracer: Tracer | None = None,
               plan: tuple[int, int] | None = None) -> Pass:
    """One pass. With ``plan=(rounds, cycles per round)`` the counts are
    fixed and ``seconds`` is ignored, so a traced pass repeats exactly
    what the untraced pass before it did."""
    mats = _matrices(spec)
    cfg = _config(spec)
    runtime = RuntimeOptions(tracer=tracer)
    rec = SpanRecorder()
    samples = {key: {gm.name: [] for gm in mats} for key in (
        "setup_s", "time_to_solution_s", "latency_ms", "batch_s")}
    min_rounds, min_cycles = plan or (spec.min_rounds, spec.min_cycles)

    def more(done: int, floor: int, phase: str, start: float) -> bool:
        if done < floor:
            return True
        return plan is None and spec.timed == phase \
            and time.perf_counter() - start < seconds

    rounds, cycles, start = 0, 0, time.perf_counter()
    while more(rounds, min_rounds, "cold", start):
        solvers = []
        for gm in mats:
            b = rng.standard_normal(gm.n)
            with rec.span("setup") as sp_setup:
                solver = PDSLin(gm.A, cfg, M=gm.M if spec.with_M else None,
                                runtime=runtime)
                solver.setup()
            with rec.span("first_solve") as sp_first:
                res = solver.solve(b)
            oracle.check(f"{gm.name} cold solve", gm.A, b, res.x,
                         res.converged, reference=True)
            samples["setup_s"][gm.name].append(sp_setup.wall_s)
            samples["time_to_solution_s"][gm.name].append(
                sp_setup.wall_s + sp_first.wall_s)
            solvers.append(solver)
        rounds += 1

        cycles, warm_start = 0, time.perf_counter()
        while more(cycles, min_cycles, "warm", warm_start):
            for gm, solver in zip(mats, solvers):
                B = rng.standard_normal((gm.n, spec.nrhs))
                with rec.span("solve_block") as sp:
                    block = solver.solve_block(B)
                samples["batch_s"][gm.name].append(sp.wall_s)
                oracle.check_block(f"{gm.name} solve_block", gm.A, B, block)
                for _ in range(spec.singles):
                    b = rng.standard_normal(gm.n)
                    with rec.span("solve") as sp:
                        res = solver.solve(b)
                    samples["latency_ms"][gm.name].append(sp.wall_s * 1e3)
                    oracle.check(f"{gm.name} solve", gm.A, b, res.x,
                                 res.converged)
            cycles += 1

    return Pass(samples, spec.nrhs, sum(s.wall_s for s in rec.spans),
                plan=(rounds, cycles))


def partition_layers(spec, oracle: Oracle) -> dict:
    """The partitioning layers from outside: the benchmark's spans
    around direct calls to the public partitioners on the workload's
    matrices, with ``PDSLinConfig``'s defaults, and the quality of the
    partition the workload's own configuration uses."""
    cfg = _config(spec)
    rec = SpanRecorder()
    mats = _matrices(spec)
    quality = []
    for gm in mats:
        with rec.span("rhb"):
            rhb = repro.rhb_partition(
                gm.A, K, M=gm.M if spec.with_M else None, metric=cfg.metric,
                scheme=cfg.scheme, epsilon=cfg.epsilon, seed=cfg.seed,
                n_trials=cfg.partition_trials)
        with rec.span("ngd"):
            ngd = repro.nested_dissection_partition(
                gm.A, K, epsilon=cfg.epsilon, seed=cfg.seed,
                n_trials=cfg.partition_trials)
        for label, part in (("rhb", rhb.col_part), ("ngd", ngd.part)):
            with rec.span("dbbd"):
                dbbd = repro.build_dbbd(gm.A, part, K)
            oracle.attempted += 1
            try:
                dbbd.validate()
            except AssertionError as exc:
                oracle.fail(f"{gm.name} {label} partition: {exc}")
            if label == cfg.partitioner:
                quality.append(dbbd.quality())
    return {"core.rhb_partition_s": rec.total("rhb"),
            "graphs.ngd_partition_s": rec.total("ngd"),
            "core.build_dbbd_s": rec.total("dbbd"),
            "core.separator_frac": sum(q.separator_size for q in quality)
            / sum(gm.n for gm in mats),
            "core.nnzD_imbalance": max(q.nnz_D_ratio for q in quality)}


def process_backend_layers(spec: Direct, serial_setup_s: float,
                           warn) -> dict:
    """Set-up of the workload's matrices on a pre-warmed one-worker
    process pool, minus the traced serial set-up of the same pass. With
    fewer than two cores the pool would only measure the scheduler, so
    nothing is run and both values read 0."""
    if (os.cpu_count() or 1) < 2:
        warn("parallel.proc1_overhead_s skipped: fewer than 2 cores")
        return {}
    cfg = _config(spec)
    tracer = Tracer()
    backend = get_backend("process:1", fresh=True)
    runtime = RuntimeOptions(tracer=tracer, backend=backend)
    try:
        # starts the worker and pays its imports
        PDSLin(_generate(spec.matrices[0], "tiny").A, cfg,
               runtime=runtime).setup()
        warm_spans = len(tracer.spans)
        start = time.perf_counter()
        for gm in _matrices(spec):
            PDSLin(gm.A, cfg, M=gm.M if spec.with_M else None,
                   runtime=runtime).setup()
        wall = time.perf_counter() - start
    finally:
        backend.close()
    tasks = sum(s.attrs.get("tasks", 0) for s in tracer.spans[warm_spans:]
                if s.name == "subdomain_fanout")
    return {"parallel.proc1_overhead_s": wall - serial_setup_s,
            "parallel.tasks": tasks}


# -- SolverService workload ---------------------------------------------


class Stamps:
    """Completion times of a set of requests, written by the futures'
    done-callbacks on the dispatcher thread. ``wait`` returns once every
    callback has run, which a plain ``Future.result()`` does not
    promise: waiters are woken before callbacks are invoked."""

    def __init__(self, count: int):
        self.done = [0.0] * count
        self._left = count
        self._lock = threading.Lock()
        self._all = threading.Event()

    def attach(self, fut: Future, i: int) -> None:
        def stamp(_):
            self.done[i] = time.perf_counter()
            with self._lock:
                self._left -= 1
                if self._left == 0:
                    self._all.set()
        fut.add_done_callback(stamp)

    def wait(self, timeout: float) -> bool:
        return self._all.wait(timeout)


def _submit(svc: SolverService, target, b: np.ndarray) -> Future:
    """Submit one request for a matrix or a fingerprint. A synchronous
    refusal becomes a failed future, so that it is counted like any
    other failed operation."""
    try:
        return svc.submit(target, b)
    except ServiceError as exc:
        fut: Future = Future()
        fut.set_exception(exc)
        return fut


def _collect(futures, oracle: Oracle, label: str, mats, which, rhs, *,
             reference: bool = False):
    """Check every future's answer; a refusal, an exception or a wrong
    answer is a failed operation. Returns the answers (None = failed)."""
    answers = []
    for i, fut in enumerate(futures):
        gm = mats[which[i]]
        what = f"{label} request {i} ({gm.name})"
        try:
            res = fut.result(timeout=120)
        except Exception as exc:  # reported through the oracle
            oracle.attempted += 1
            oracle.fail(f"{what}: {exc!r}")
            answers.append(None)
            continue
        ok = oracle.check(what, gm.A, rhs[i], res.x, res.converged,
                          reference=reference)
        answers.append(res.x if ok else None)
    return answers


def _route(spec: Served, rng, count: int) -> np.ndarray:
    return rng.choice(len(spec.matrices), size=count, p=spec.mix)


@dataclass
class Traffic:
    latency_ms: np.ndarray  # due time -> completion; NaN where failed
    late_ms: np.ndarray     # how late the generator submitted each one
    which: np.ndarray       # matrix index of each request
    rhs: list
    answers: list

    def answered_ms(self) -> list:
        return self.latency_ms[~np.isnan(self.latency_ms)].tolist()


def open_loop(svc, spec: Served, mats, keys, rng, oracle: Oracle, *,
              rate: float, count: int, label: str) -> Traffic:
    """One client thread submits ``count`` requests on a fixed schedule
    regardless of completions (``rate=inf``: all at once, a burst).
    Latency runs from the instant a request was *due*, so a stall
    charges every request it delayed."""
    which = _route(spec, rng, count)
    rhs = [rng.standard_normal(mats[w].n) for w in which]
    stamps = Stamps(count)
    late_ms = np.empty(count)
    futures = []
    due = time.perf_counter() + 0.01 + np.arange(count) / rate
    for i in range(count):
        wait = due[i] - time.perf_counter()
        if wait > 0:
            time.sleep(wait)
        late_ms[i] = (time.perf_counter() - due[i]) * 1e3
        fut = _submit(svc, keys[which[i]], rhs[i])
        stamps.attach(fut, i)
        futures.append(fut)
    stamps.wait(120)
    answers = _collect(futures, oracle, label, mats, which, rhs)
    latency_ms = (np.asarray(stamps.done) - due) * 1e3
    latency_ms[[x is None for x in answers]] = np.nan
    return Traffic(latency_ms, late_ms, which, rhs, answers)


def run_served(spec: Served, rng, oracle: Oracle, *, seconds: float,
               tracer: Tracer | None = None,
               rate80_s: float = 0.0) -> Pass:
    """One pass over a fresh service: a cold ``solve(A, b)`` per matrix
    (the A-only path, set-up and first answer in one call), the open
    loop at ``spec.rate``, optionally ``rate80_s`` seconds at 80
    requests/s, and the bursts."""
    mats = _matrices(spec)
    rec = SpanRecorder()
    bench: dict = {}
    svc = SolverService(config=_config(spec), tracer=tracer)
    try:
        cold = []
        for gm in mats:
            b = rng.standard_normal(gm.n)
            with rec.span("setup"):
                fut = _submit(svc, gm.A, b)
                fut.exception(timeout=600)
            cold.append((gm, b, fut))
        for gm, b, fut in cold:
            _collect([fut], oracle, "cold solve(A, b)", [gm], [0], [b],
                     reference=True)
        keys = [svc.fingerprint(gm.A) for gm in mats]
        before = svc.service_report()

        seg_start = time.perf_counter()
        traffic = open_loop(
            svc, spec, mats, keys, rng, oracle, rate=spec.rate,
            count=max(int(spec.rate * seconds * spec.open_frac), 1),
            label="open loop")
        seg_s = time.perf_counter() - seg_start
        after = svc.service_report()

        if rate80_s > 0:
            lat80 = open_loop(svc, spec, mats, keys, rng, oracle, rate=80.0,
                              count=max(int(80 * rate80_s), 1),
                              label="80 req/s").answered_ms()
            if lat80:
                bench["service.latency_p95_ms_rate80"] = percentile(lat80, 95)

        # a burst's wall: first submit (due time) to last completion
        burst_s = [float(np.nanmax(open_loop(
            svc, spec, mats, keys, rng, oracle, rate=float("inf"),
            count=spec.burst, label=f"burst {n}").latency_ms)) / 1e3
            for n in range(spec.bursts)]
        final = svc.service_report()
    finally:
        svc.close()

    req0, req1 = before["requests"], after["requests"]
    batches = req1["batches"] - req0["batches"]
    cache = final["cache"]
    bench.update({
        "service.mean_batch_nrhs":
            (req1["batched_rhs"] - req0["batched_rhs"]) / max(batches, 1),
        "service.batches": batches,
        "service.busy_frac": (after["throughput"]["solve_wall_s"]
                              - before["throughput"]["solve_wall_s"]) / seg_s,
        "service.cache_hit_frac":
            cache["hits"] / max(cache["hits"] + cache["misses"], 1),
        "service.queue_depth_hwm": final["requests"]["queue_depth_hwm"],
        "service.rejected": sum(req1[k] - req0[k] for k in (
            "rejected_overload", "rejected_unknown", "rejected_closed")),
        "service.generator_late_ms_p95": percentile(traffic.late_ms, 95),
    })
    # a cold solve(A, b) is set-up and first answer in one call: on
    # this workload the two metrics are the same measurement
    setups = rec.walls("setup")
    cold = {gm.name: setups[i::len(mats)] for i, gm in enumerate(mats)}
    samples = {
        "setup_s": cold, "time_to_solution_s": cold,
        "latency_ms": {"requests": traffic.answered_ms()},
        "batch_s": {"bursts": burst_s},
    }
    # the wall that the service tracer's root spans account for: the
    # cold calls, plus the dispatcher's time inside batches after them
    wall = rec.total("setup") + final["throughput"]["solve_wall_s"] \
        - before["throughput"]["solve_wall_s"]
    return Pass(samples, spec.burst, wall, bench, (1, spec.bursts), traffic)


def compare_with_direct(spec: Served, traffic: Traffic, rng,
                        oracle: Oracle) -> float:
    """Sampled served answers for matrix ``spec.identical_on`` must
    equal, bit for bit, those of an independently set-up ``PDSLin``
    configured as the service configures its sessions (``krylov_seed``
    off): caching and batching may never change an answer. Returns what
    the service adds to a request: the p50 latency of the sampled
    requests minus the p50 wall of the direct solves of the same
    right-hand sides, in ms."""
    gm = _matrices(spec)[spec.identical_on]
    name = gm.name
    served = [i for i, x in enumerate(traffic.answers)
              if x is not None and traffic.which[i] == spec.identical_on]
    if not served:
        oracle.attempted += 1
        oracle.fail(f"no served answer for {name} to compare bit for bit")
        return 0.0
    picks = rng.choice(served, replace=False,
                       size=min(spec.identical_samples, len(served)))
    direct = PDSLin(gm.A, _config(spec, krylov_seed=False)).setup()
    rec = SpanRecorder()
    for i in picks:
        with rec.span("solve"):
            res = direct.solve(traffic.rhs[i])
        oracle.check_identical(f"open loop request {i} ({name})",
                               traffic.answers[i], res.x)
    return percentile(traffic.latency_ms[picks], 50) \
        - percentile(rec.walls("solve"), 50) * 1e3
