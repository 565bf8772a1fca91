"""The in-process solver serving layer.

:class:`SolverService` turns the one-shot ``PDSLin(A).solve(b)`` flow
into a long-lived server: concurrent callers :meth:`~SolverService.submit`
right-hand sides (with the full matrix, or just its fingerprint once the
session is hot) and get ``concurrent.futures.Future`` handles back; a
single dispatcher thread coalesces requests that target the same session
inside a small time window and fans each group out as one batched
:meth:`~repro.solver.PDSLin.solve_block` call, so factors ship to
workers once per batch instead of once per request.

Sessions — fully-set-up solvers — live in a byte-accounted LRU
(:mod:`repro.service.cache`) keyed by the checkpoint identity
fingerprint, so repeat traffic skips partitioning and factorization
entirely. Session solvers run with ``krylov_seed`` off: every batched
column is then bit-identical to a fresh scalar ``solve()`` (the
``solve_block`` parity contract), i.e. caching and batching never
change the answer.

Deadlines: a request may carry ``deadline_s``. If it expires while
queued, the request is rejected with a structured
:class:`~repro.service.errors.ServiceDeadlineError`; if it is live at
dispatch, the tightest remaining budget in the batch is mapped onto the
solver's per-task deadline machinery (workers past it are cancelled and
the work redone on the root — the PR-level straggler mitigation), and
requests that still complete late are counted, not dropped.

Worker hygiene: backends passed as spec strings (``"process:4"``) are
created privately (``fresh=True``), owned by the service, and closed in
:meth:`~SolverService.close` — after ``close()`` returns, no worker
process the service started is left running. Backends passed as live
:class:`~repro.parallel.exec.Executor` instances stay caller-owned.

Observability: every request gets a span on the service tracer (spans
are recorded on the dispatcher thread only — the Tracer is
single-stack), counters track cache hits/misses, evicted bytes, queue
depth high-water, deadline misses and per-batch RHS throughput, and
:meth:`~SolverService.service_report` returns the whole picture as one
dict. ``python -m repro.smoke service`` replays a mixed traffic pattern
against all of it.
"""

from __future__ import annotations

import dataclasses
import threading
import time
import warnings
from concurrent.futures import Future
from typing import Optional, Union

import numpy as np
import scipy.sparse as sp

from repro import envcfg
from repro.lu.cache import pattern_fingerprint
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.parallel.exec import Executor, get_backend, resolve_backend
from repro.resilience.checkpoint import config_fingerprint
from repro.service.cache import (
    Session,
    SessionCache,
    make_session,
    session_key,
)
from repro.service.errors import (
    ServiceClosedError,
    ServiceDeadlineError,
    ServiceError,
    ServiceOverloadedError,
    UnknownSessionError,
)
from repro.solver import PDSLin, PDSLinConfig, PDSLinResult, RuntimeOptions
from repro.utils import check_csr, check_finite, check_square

__all__ = ["SolverService", "serve"]


class _Request:
    """One queued right-hand side."""

    __slots__ = ("id", "key", "A", "config", "b", "future", "deadline_s",
                 "expires_at", "submitted_at")

    def __init__(self, id: int, key: str, A: Optional[sp.spmatrix],
                 config: PDSLinConfig, b: np.ndarray,
                 deadline_s: Optional[float], now: float):
        self.id = id
        self.key = key
        self.A = A              # None on fingerprint-addressed requests
        self.config = config
        self.b = b
        self.future: "Future[PDSLinResult]" = Future()
        self.deadline_s = deadline_s
        self.expires_at = None if deadline_s is None else now + deadline_s
        self.submitted_at = now


class SolverService:
    """Long-lived serving front end over cached :class:`PDSLin` sessions.

    Parameters (``None`` consults the ``REPRO_SERVICE_*`` environment
    registry, then the documented default):

    - ``cache_bytes`` — session-cache budget (``REPRO_SERVICE_CACHE_BYTES``,
      default 256 MiB); LRU sessions past it are evicted with their
      SuperLU handles released.
    - ``batch_window_s`` — how long dispatch lingers after the first
      pending request to coalesce same-session traffic
      (``REPRO_SERVICE_BATCH_WINDOW_S``, default 5 ms; finite, >= 0).
    - ``max_pending`` — queue-depth backpressure limit
      (``REPRO_SERVICE_MAX_PENDING``, default 256); submits past it
      raise :class:`ServiceOverloadedError`.
    - ``max_cold_sessions`` — distinct not-yet-cached matrices allowed
      in the queue at once (default 8): one slow-to-set-up burst of new
      matrices cannot starve hot traffic unboundedly.
    - ``backend`` — execution backend for session solvers: a spec
      string (private, service-owned pool) or an
      :class:`~repro.parallel.exec.Executor` (caller-owned). Default
      serial.
    - ``config`` — default :class:`PDSLinConfig` for requests that do
      not carry one.
    - ``tracer`` — service-level :class:`~repro.obs.tracer.Tracer`.

    Use as a context manager, or call :meth:`close` — it drains the
    queue (pending requests get :class:`ServiceClosedError`), releases
    every cached session, and stops any worker pool the service owns.
    """

    def __init__(self, *, config: Optional[PDSLinConfig] = None,
                 cache_bytes: Optional[int] = None,
                 batch_window_s: Optional[float] = None,
                 max_pending: Optional[int] = None,
                 max_cold_sessions: int = 8,
                 backend: Union[Executor, str, None] = None,
                 tracer: Optional[Tracer] = None):
        if cache_bytes is None:
            cache_bytes = envcfg.get("REPRO_SERVICE_CACHE_BYTES")
        if batch_window_s is None:
            batch_window_s = envcfg.get("REPRO_SERVICE_BATCH_WINDOW_S")
        if max_pending is None:
            max_pending = envcfg.get("REPRO_SERVICE_MAX_PENDING")
        if max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        if max_cold_sessions < 1:
            raise ValueError("max_cold_sessions must be >= 1")
        if not 0.0 <= float(batch_window_s) < np.inf:
            raise ValueError("batch_window_s must be finite and >= 0, got "
                             f"{batch_window_s!r}")
        self.batch_window_s = float(batch_window_s)
        self.max_pending = int(max_pending)
        self.max_cold_sessions = int(max_cold_sessions)
        self.default_config = config or PDSLinConfig()
        self.tracer = tracer if tracer is not None else NULL_TRACER

        # backend: spec strings become a private pool the service owns
        # and must close; live Executor instances stay caller-owned
        # (closing one behind the caller's back would break their other
        # solvers — and shared instances are closed at interpreter exit)
        self._owns_backend = isinstance(backend, str)
        if isinstance(backend, str):
            self._backend: Executor = get_backend(backend, fresh=True)
        elif backend is None:
            self._backend = get_backend("serial")
        else:
            # an Executor passes through; anything else is a TypeError
            # here, not a failed future on every request
            self._backend = resolve_backend(backend)

        self.cache = SessionCache(cache_bytes)
        # queue lock (fast, never held across a solve) vs. execution
        # lock (held for whole batches; update_matrix() takes it from
        # client threads to mutate a session the dispatcher might use)
        self._exec_lock = threading.Lock()
        self._lock = threading.Lock()
        self._work = threading.Condition(self._lock)
        self._queue: list[_Request] = []
        # sessions the in-flight batch can establish (key -> n): after
        # the dispatcher pops a carrier off the queue and before its
        # session lands in the cache, fingerprint-addressed submits are
        # admitted (and length-checked) against this, not bounced
        self._building: dict[str, int] = {}
        self._closing = False
        self._closed = False
        self._next_id = 0
        self._started_at = time.monotonic()
        self._stats = {
            "submitted": 0, "served": 0, "failed": 0,
            "rejected_overload": 0, "rejected_unknown": 0,
            "rejected_closed": 0, "deadline_missed": 0,
            "deadline_late": 0, "batches": 0, "batched_rhs": 0,
            "max_batch_nrhs": 0, "queue_depth_hwm": 0,
            "revalidations": 0, "solve_wall_s": 0.0,
        }
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="repro-service-dispatch",
            daemon=True)
        self._dispatcher.start()

    # -- client surface ---------------------------------------------------

    def fingerprint(self, A: sp.spmatrix,
                    config: Optional[PDSLinConfig] = None) -> str:
        """The session key for (A, config) — hand this back to
        :meth:`submit` instead of the matrix once the session is warm
        to skip re-hashing ``A`` on the client side... and to skip
        shipping the matrix at all."""
        return session_key(check_csr(A), config or self.default_config)

    def submit(self, A_or_fingerprint: Union[sp.spmatrix, str],
               b: np.ndarray, *, config: Optional[PDSLinConfig] = None,
               deadline_s: Optional[float] = None
               ) -> "Future[PDSLinResult]":
        """Enqueue one solve; returns a Future resolving to the
        :class:`PDSLinResult` (or raising a :class:`ServiceError` /
        solver error). Thread-safe. Rejections for backpressure,
        unknown fingerprints, or a closed service raise synchronously.
        """
        cfg = config or self.default_config
        if deadline_s is not None and not (0.0 < deadline_s < np.inf):
            raise ValueError("deadline_s must be positive and finite, "
                             f"got {deadline_s!r}")
        b = np.asarray(b, dtype=np.float64)
        if b.ndim != 1:
            raise ValueError("b must be a 1-D right-hand side; batch "
                             "submissions are coalesced by the service")
        check_finite(b, "b")

        if isinstance(A_or_fingerprint, str):
            key, A = A_or_fingerprint, None
        else:
            A = check_csr(A_or_fingerprint)
            check_square(A, "A")
            check_finite(A, "A")
            if b.shape[0] != A.shape[0]:
                raise ValueError(f"b must have length {A.shape[0]}")
            key = session_key(A, cfg)

        now = time.monotonic()
        with self._lock:
            if self._closing:
                self._stats["rejected_closed"] += 1
                raise ServiceClosedError("service is closed")
            if len(self._queue) >= self.max_pending:
                self._stats["rejected_overload"] += 1
                raise ServiceOverloadedError(
                    f"request queue full ({len(self._queue)} pending)",
                    queue_depth=len(self._queue), limit=self.max_pending)
            if A is None:
                n = self._session_n(key)
                if n is None:
                    self._stats["rejected_unknown"] += 1
                    raise UnknownSessionError(
                        f"no cached session for fingerprint {key[:16]}...; "
                        f"resubmit with the full matrix", fingerprint=key)
                # length-check here, not at dispatch: a mismatched b in
                # a coalesced batch must fail its own submit, never the
                # group it would have been stacked with
                if b.shape[0] != n:
                    raise ValueError(
                        f"b must have length {n} to match session "
                        f"{key[:16]}...")
            if A is not None and key not in self.cache:
                cold = {r.key for r in self._queue
                        if r.key not in self.cache}
                if key not in cold and len(cold) >= self.max_cold_sessions:
                    self._stats["rejected_overload"] += 1
                    raise ServiceOverloadedError(
                        f"{len(cold)} cold matrices already pending",
                        queue_depth=len(cold),
                        limit=self.max_cold_sessions)
            req = _Request(self._next_id, key, A, cfg, b, deadline_s, now)
            self._next_id += 1
            self._stats["submitted"] += 1
            self._queue.append(req)
            self._stats["queue_depth_hwm"] = max(
                self._stats["queue_depth_hwm"], len(self._queue))
            self._work.notify_all()
        return req.future

    def solve(self, A_or_fingerprint: Union[sp.spmatrix, str],
              b: np.ndarray, *, config: Optional[PDSLinConfig] = None,
              deadline_s: Optional[float] = None) -> PDSLinResult:
        """Blocking :meth:`submit`."""
        return self.submit(A_or_fingerprint, b, config=config,
                           deadline_s=deadline_s).result()

    def update_matrix(self, A_new: sp.spmatrix, *,
                      config: Optional[PDSLinConfig] = None) -> str:
        """Revalidate a cached session for new matrix *values* on an
        unchanged pattern (time-stepping / Newton traffic): the session
        keeps its partition and symbolic analysis, reruns only the
        numeric phases, and is rekeyed to the new fingerprint. Returns
        the new session key. Falls back to plain cold admission (full
        setup on next submit) when no pattern-matching session is
        cached."""
        cfg = config or self.default_config
        A_new = check_csr(A_new)
        check_square(A_new, "A_new")
        check_finite(A_new, "A_new")
        new_key = session_key(A_new, cfg)
        with self._lock:
            if self._closing:
                raise ServiceClosedError("service is closed")
            if new_key in self.cache:
                return new_key
            session = self.cache.find_pattern(
                pattern_fingerprint(A_new), config_fingerprint(cfg))
        if session is None:
            return new_key
        # serialize with dispatch: the solver must not be mid-batch
        with self._exec_lock:
            with self.tracer.span("service_update", key=new_key[:16]):
                session.solver.update_matrix(A_new)
            with self._lock:
                if session.key in self.cache:
                    self.cache.rekey(session.key, new_key)
                    session.nbytes = _resize(session)
                    self._stats["revalidations"] += 1
                    self.tracer.count("service_revalidations")
        return new_key

    def _session_n(self, key: str) -> Optional[int]:
        """Problem size of the session ``key`` resolves to — cached,
        being set up by the in-flight batch, or carried by a queued
        request — or None if nothing can establish it. Caller holds
        ``_lock``."""
        session = self.cache.peek(key)
        if session is not None:
            return session.n
        n = self._building.get(key)
        if n is not None:
            return n
        for r in self._queue:
            if r.key == key and r.A is not None:
                return int(r.A.shape[0])
        return None

    # -- dispatcher -------------------------------------------------------

    def _dispatch_loop(self) -> None:
        while True:
            with self._lock:
                while not self._queue and not self._closing:
                    self._work.wait()
                if self._closing and not self._queue:
                    return
                # micro-batch window: linger after the first arrival so
                # same-session requests coalesce into one fan-out
                window_end = self._queue[0].submitted_at \
                    + self.batch_window_s
                while not self._closing:
                    remaining = window_end - time.monotonic()
                    if remaining <= 0.0:
                        break
                    self._work.wait(timeout=remaining)
                batch, self._queue = self._queue, []
                for req in batch:
                    if req.A is not None:
                        self._building.setdefault(
                            req.key, int(req.A.shape[0]))
            if self._closing:
                self._reject_batch(batch, ServiceClosedError(
                    "service closed while the request was queued"))
                with self._lock:
                    self._building.clear()
                    if not self._queue:
                        return
                continue
            # group by session, preserving arrival order of groups
            groups: "dict[str, list[_Request]]" = {}
            for req in batch:
                groups.setdefault(req.key, []).append(req)
            for key, reqs in groups.items():
                if self._closing:
                    # close() is waiting: reject instead of solving so
                    # shutdown is bounded by one group, not the batch
                    self._reject_batch(reqs, ServiceClosedError(
                        "service closed while the request was queued"))
                    with self._lock:
                        self._building.pop(key, None)
                    continue
                try:
                    with self._exec_lock:
                        self._serve_group(key, reqs)
                except Exception as exc:
                    # backstop: _serve_group guards its own failure
                    # modes, but an escape here must fail the group's
                    # futures, never kill the dispatcher (every queued
                    # future would then hang forever)
                    self._fail_unfinished(reqs, exc)
                finally:
                    with self._lock:
                        self._building.pop(key, None)

    def _reject_batch(self, reqs: list[_Request],
                      error: ServiceError) -> None:
        rejected = 0
        for req in reqs:
            if req.future.set_running_or_notify_cancel():
                req.future.set_exception(error)
                rejected += 1
        if rejected:
            with self._lock:
                self._stats["rejected_closed"] += rejected

    def _fail_unfinished(self, reqs: list[_Request],
                         exc: BaseException) -> None:
        """Fail every future of ``reqs`` that has not resolved yet —
        the dispatcher's backstop against a group error leaving callers
        hung on futures nobody will ever set."""
        failed = 0
        for req in reqs:
            fut = req.future
            if fut.done():
                continue
            try:
                if not fut.set_running_or_notify_cancel():
                    continue  # cancelled
            except Exception:
                pass  # already running: set_exception below still works
            if not fut.done():
                fut.set_exception(exc)
                failed += 1
        if failed:
            with self._lock:
                self._stats["failed"] += failed
            self.tracer.count("service_failed", failed)

    def _fail_group(self, live: list[_Request], exc: Exception) -> None:
        for req in live:
            req.future.set_exception(exc)
        with self._lock:
            self._stats["failed"] += len(live)
        self.tracer.count("service_failed", len(live))

    def _expire(self, reqs: list[_Request],
                now: float) -> list[_Request]:
        """Reject the (already running) requests whose deadline has
        passed; returns the survivors."""
        live: list[_Request] = []
        for req in reqs:
            if req.expires_at is not None and now > req.expires_at:
                with self._lock:
                    self._stats["deadline_missed"] += 1
                self.tracer.count("service_deadline_missed")
                req.future.set_exception(ServiceDeadlineError(
                    f"deadline {req.deadline_s:.3f}s expired before "
                    f"dispatch", deadline_s=req.deadline_s,
                    waited_s=now - req.submitted_at, request_id=req.id))
            else:
                live.append(req)
        return live

    def _serve_group(self, key: str, reqs: list[_Request]) -> None:
        """Serve all queued requests of one session as a single
        batched solve. Runs on the dispatcher thread only (tracer
        spans are safe here)."""
        started = [req for req in reqs
                   if req.future.set_running_or_notify_cancel()]
        live = self._expire(started, time.monotonic())
        if not live:
            return

        try:
            session, hit = self._session_for(key, live)
        except Exception as exc:  # setup failure rejects the group
            self._fail_group(live, exc)
            return
        for req in live:
            self.tracer.count(
                "service_cache_hit" if hit else "service_cache_miss")

        # cold setup can be long: re-read the clock so deadlines that
        # lapsed during setup are rejected and the budgets below
        # reflect the time actually left, not the pre-setup snapshot
        now = time.monotonic()
        live = self._expire(live, now)
        if not live:
            return

        solver = session.solver
        # tightest live deadline bounds the batch's parallel fan-outs
        # (straggling workers cancelled, work redone on root)
        budgets = [req.expires_at - now for req in live
                   if req.expires_at is not None]
        saved_deadline = solver.task_deadline_s
        t0 = time.monotonic()
        try:
            if budgets:
                solver.task_deadline_s = max(min(budgets), 1e-3)
            # stack inside the guard: anything malformed that slipped
            # past submit-time validation fails this group's futures,
            # not the dispatcher thread
            B = np.stack([req.b for req in live], axis=1)
            with self.tracer.span("service_batch", key=key[:16],
                                  nrhs=len(live), cache_hit=hit):
                block = solver.solve_block(B)
        except Exception as exc:
            self._fail_group(live, exc)
            return
        finally:
            solver.task_deadline_s = saved_deadline
        wall = time.monotonic() - t0

        done = time.monotonic()
        late = 0
        for req, result in zip(live, block):
            if req.expires_at is not None and done > req.expires_at:
                late += 1
                self.tracer.count("service_deadline_late")
            req.future.set_result(result)
        with self._lock:
            session.solves += 1
            session.rhs_served += len(live)
            self._stats["served"] += len(live)
            self._stats["deadline_late"] += late
            self._stats["batches"] += 1
            self._stats["batched_rhs"] += len(live)
            self._stats["max_batch_nrhs"] = max(
                self._stats["max_batch_nrhs"], len(live))
            self._stats["solve_wall_s"] += wall
        if wall > 0.0:
            self.tracer.count("noise:service_rhs_per_s", len(live) / wall)

    def _session_for(self, key: str,
                     reqs: list[_Request]) -> tuple[Session, bool]:
        """Cached session for ``key``, or build one from the first
        request that carried the matrix."""
        with self._lock:
            session = self.cache.get(key)
        if session is not None:
            return session, True
        carrier = next((r for r in reqs if r.A is not None), None)
        if carrier is None:
            raise UnknownSessionError(
                f"session {key[:16]}... is not cached and no live "
                f"request in this batch carries its matrix (the carrier "
                f"was cancelled or failed, or the session was evicted "
                f"while the request was queued); resubmit with the full "
                f"matrix", fingerprint=key)
        # sessions solve with krylov_seed off: batched columns are then
        # bit-identical to fresh scalar solves (the solve_block parity
        # contract) — a cache/batching layer must never change answers.
        # The field is solve-phase-only, so the fingerprint (and any
        # checkpoint identity) is unchanged.
        cfg = carrier.config
        if getattr(cfg, "krylov_seed", False):
            cfg = dataclasses.replace(cfg, krylov_seed=False)
        solver = PDSLin(carrier.A, cfg, runtime=RuntimeOptions(
            backend=self._backend, tracer=self.tracer))
        with self.tracer.span("service_setup", key=key[:16],
                              n=int(carrier.A.shape[0])):
            solver.setup()
        session = make_session(key, solver, carrier.A, carrier.config)
        with self._lock:
            evicted = self.cache.put(session)
        for old in evicted:
            self.tracer.count("service_evicted_bytes", old.nbytes)
            self.tracer.count("service_evictions")
        return session, False

    # -- lifecycle / observability ----------------------------------------

    def service_report(self) -> dict:
        """Snapshot of queue, cache, session and throughput state."""
        with self._lock:
            queue_depth = len(self._queue)
            cache = self.cache.snapshot()
            sessions = [{
                "key": s.key[:16], "nbytes": s.nbytes, "hits": s.hits,
                "solves": s.solves, "rhs_served": s.rhs_served,
            } for s in self.cache]
            stats = dict(self._stats)
        busy = stats.pop("solve_wall_s")
        report = {
            "uptime_s": time.monotonic() - self._started_at,
            "queue_depth": queue_depth,
            "batch_window_s": self.batch_window_s,
            "max_pending": self.max_pending,
            "cache": cache,
            "sessions": sessions,
            "requests": stats,
            "throughput": {
                "solve_wall_s": busy,
                "rhs_per_s": (stats["served"] / busy) if busy > 0 else 0.0,
                "mean_batch_nrhs": (stats["batched_rhs"] / stats["batches"])
                if stats["batches"] else 0.0,
            },
        }
        return report

    def close(self, timeout: Optional[float] = 10.0) -> None:
        """Drain and shut down: pending requests are rejected with
        :class:`ServiceClosedError`, cached sessions are released
        (SuperLU handles freed), and any service-owned worker pool is
        terminated. Idempotent.

        ``timeout`` bounds the wait for an in-flight batch (``None``
        waits indefinitely). If the batch outlives it, teardown is NOT
        forced — releasing factors or killing workers under a live
        solve would corrupt it — a :class:`RuntimeWarning` is emitted,
        :attr:`closed` stays False, and a later ``close()`` retries."""
        with self._lock:
            if self._closed:
                return
            self._closing = True
            self._work.notify_all()
        self._dispatcher.join(timeout=timeout)
        with self._lock:
            leftovers, self._queue = self._queue, []
        self._reject_batch(leftovers, ServiceClosedError(
            "service closed while the request was queued"))
        # serialize teardown with any batch still solving: clearing the
        # cache releases SuperLU handles and closing the backend kills
        # workers — neither may happen under a live solve_block. Once
        # _closing is set the dispatcher rejects instead of serving, so
        # this waits for at most the one in-flight group.
        if not self._exec_lock.acquire(
                timeout=-1 if timeout is None else timeout):
            self.tracer.count("service_close_incomplete")
            warnings.warn(
                f"SolverService.close(): a batch was still solving "
                f"after the {timeout}s grace period; cached sessions "
                f"and workers were left alive — call close() again to "
                f"finish teardown", RuntimeWarning, stacklevel=2)
            return
        try:
            with self._lock:
                freed = self.cache.clear()
            self.tracer.count("service_evicted_bytes", freed)
            if self._owns_backend:
                self._backend.close()
            self._closed = True
        finally:
            self._exec_lock.release()

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "SolverService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _resize(session: Session) -> int:
    from repro.service.cache import session_nbytes
    return session_nbytes(session.solver)


def serve(**kwargs) -> SolverService:
    """Start a :class:`SolverService` (see its docstring for knobs) —
    the top-level entry point re-exported as :func:`repro.serve`."""
    return SolverService(**kwargs)
