"""Pluggable execution backends for the PDSLin pipeline.

The paper's solver is *hierarchically parallel*: the per-subdomain
stages (LU(D), the interface triangular solves and the local Schur
updates of Comp(S)) are embarrassingly parallel across the DBBD
diagonal blocks. :class:`SimulatedMachine` models that parallelism for
the paper's accounting; this module *executes* it. Two backends sit
behind one :class:`Executor` interface and one ``Executor.map``:

- :class:`SerialBackend` — runs every task inline (the default; the
  reference semantics the process backend must reproduce bit-for-bit);
- :class:`ProcessBackend` — ``ProcessPoolExecutor`` with pickled CSR
  block shipping, one address space per worker as in the paper's one
  MPI process per subdomain. Task payloads and results cross process
  boundaries, so task functions must be module-level and their
  arguments picklable.

Determinism contract: ``map`` always returns outcomes in *submission
order* regardless of completion order, so callers can reduce in a fixed
order and obtain bit-identical results on every backend.

Failure contract: a Python exception raised by a task comes back as
``TaskOutcome.error`` (pickled across the process boundary — see
``SolverError.__reduce__``). A worker *process death* (segfault,
``os._exit``, OOM kill) surfaces as a :class:`WorkerCrashError`
outcome, after which the broken pool is disposed so the next ``map``
gets a fresh one. ``KeyboardInterrupt`` during a ``map`` cancels
pending tasks, terminates worker processes and re-raises — no orphans.

Deadlines and stragglers: ``map`` takes an optional per-batch
``deadline_s`` — tasks still outstanding when it expires come back as
``TaskOutcome.timed_out`` with a :class:`TaskDeadlineError`, their
futures cancelled and their workers killed so nothing is orphaned. The
caller redoes timed-out work on the root, so the answer never depends
on which tasks beat the deadline. The serial backend runs each task
to completion as it is submitted, so nothing is ever outstanding.

Selection: ``RuntimeOptions(backend=...)`` takes an :class:`Executor`, a spec
string (``"serial"``, ``"process"``, ``"process:4"``) or
``None`` to consult the ``REPRO_BACKEND`` environment variable (worker
count from ``REPRO_WORKERS``; ``REPRO_MP_START`` overrides the
multiprocessing start method). Environment values are validated up
front: a bad value raises a ``ValueError`` naming the variable instead
of failing deep inside pool construction.
"""

from __future__ import annotations

import atexit
import hashlib
import os
import pickle
import time
from concurrent.futures import (
    Future,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro import envcfg
from repro.resilience.errors import (
    TaskDeadlineError,
    TransportChecksumError,
    WorkerCrashError,
)

__all__ = [
    "TaskOutcome", "Executor", "SerialBackend",
    "ProcessBackend", "resolve_backend", "get_backend",
    "backend_names", "in_worker", "transport_checksum_enabled",
    "ENV_BACKEND", "ENV_WORKERS", "ENV_MP_START", "ENV_IN_WORKER",
    "ENV_TRANSPORT_CHECKSUM",
]

ENV_BACKEND = "REPRO_BACKEND"
ENV_WORKERS = "REPRO_WORKERS"
ENV_MP_START = "REPRO_MP_START"
#: "0" disables the blake2b transport checksum on sealed task results
#: (default on for the process backend). Exists so the chaos drills can
#: demonstrate what *silent* transport corruption does.
ENV_TRANSPORT_CHECKSUM = "REPRO_TRANSPORT_CHECKSUM"
#: Set to "1" in the environment of ProcessBackend workers (and only
#: there): chaos hooks that hard-kill a "worker" must never fire in the
#: parent process, where the serial backend runs tasks.
ENV_IN_WORKER = "_REPRO_IN_WORKER"


def _mark_worker() -> None:
    """Pool initializer: brand this process as a disposable worker."""
    os.environ[ENV_IN_WORKER] = "1"


def in_worker() -> bool:
    """True inside a ProcessBackend worker process."""
    return os.environ.get(ENV_IN_WORKER) == "1"


def transport_checksum_enabled() -> bool:
    """Whether sealed task results carry a verified blake2b digest
    (default yes). ``REPRO_TRANSPORT_CHECKSUM=0`` disables verification;
    any other value than 0/1 raises a ``ValueError`` naming the
    variable (parsed through :mod:`repro.envcfg`)."""
    return envcfg.get(ENV_TRANSPORT_CHECKSUM)


@dataclass
class TaskOutcome:
    """Result slot for one task of a ``map`` call, in submission order.

    Exactly one of ``value``/``error`` is meaningful: ``error`` is the
    exception the task raised (or a :class:`WorkerCrashError` when the
    worker process died before returning, or a
    :class:`TaskDeadlineError` when the batch deadline expired first —
    then ``timed_out`` is also set). ``wall_s`` is the task's own wall
    time as measured where it ran; ``worker`` the executing process id
    (useful to see how tasks spread over the pool).
    ``transport_retries`` counts resubmissions after the result's
    blake2b transport digest failed to verify — a surviving
    :class:`TransportChecksumError` in ``error`` means the retry failed
    too.
    """

    index: int
    value: Any = None
    error: Optional[BaseException] = None
    wall_s: float = 0.0
    worker: Optional[int] = None
    timed_out: bool = False
    transport_retries: int = 0

    @property
    def ok(self) -> bool:
        return self.error is None


def _invoke(fn: Callable, payload: Any) -> Tuple[Any, Optional[BaseException],
                                                 float, int]:
    """Run one task, capturing exceptions as values (uniform across
    backends; also avoids raising through the future machinery)."""
    t0 = time.perf_counter()
    try:
        value, error = fn(payload), None
    except Exception as exc:            # noqa: BLE001 - captured on purpose
        value, error = None, exc
    return value, error, time.perf_counter() - t0, os.getpid()


# -- sealed transport -------------------------------------------------------
#
# The process backend ships results as (pickle blob, blake2b digest)
# pairs sealed where the task ran, verified where the result is used:
# a bit flipped in the bytes between the two — pickle buffers, pipes,
# shared memory — no longer deserializes into silently-wrong numbers
# but into a TransportChecksumError, and the task is resubmitted once.

@dataclass
class _SealedValue:
    """A task result as shipped: its pickle and the digest of the bytes
    the worker actually produced."""

    blob: bytes
    digest: str


def _digest(blob: bytes) -> str:
    return hashlib.blake2b(blob, digest_size=16).hexdigest()


def _seal(value: Any, payload: Any, *, chaos: bool) -> _SealedValue:
    """Seal a result worker-side. With ``chaos``, the transport bit-flip
    seam may swap in a corrupted copy of the payload *after* the digest
    is taken — the model of corruption in flight."""
    blob = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
    digest = _digest(blob)
    if chaos:
        from repro.resilience import abft
        corrupted = abft.maybe_corrupt_transport(
            value, subdomain=getattr(payload, "ell", None))
        if corrupted is not None:
            blob = pickle.dumps(corrupted,
                                protocol=pickle.HIGHEST_PROTOCOL)
    return _SealedValue(blob=blob, digest=digest)


def _invoke_sealed(fn: Callable, payload: Any):
    """`_invoke`, but successful values ship sealed (chaos seam live)."""
    value, error, wall, pid = _invoke(fn, payload)
    if error is None:
        value = _seal(value, payload, chaos=True)
    return value, error, wall, pid


def _invoke_sealed_clean(fn: Callable, payload: Any):
    """Sealed invoke for transport retries: the chaos seam is bypassed
    (a re-ship of the same result would not hit the same random flip),
    the digest is still verified."""
    value, error, wall, pid = _invoke(fn, payload)
    if error is None:
        value = _seal(value, payload, chaos=False)
    return value, error, wall, pid


def _unseal(value: Any, *, verify: bool,
            backend: str) -> Tuple[Any, Optional[BaseException]]:
    """Open a sealed value: verify the digest (unless disabled) and
    unpickle. Pass non-sealed values through untouched."""
    if not isinstance(value, _SealedValue):
        return value, None
    if verify and _digest(value.blob) != value.digest:
        return None, TransportChecksumError(
            "task result failed its blake2b transport digest: the bytes "
            "that arrived are not the bytes the worker hashed",
            backend=backend)
    try:
        return pickle.loads(value.blob), None
    except Exception as exc:  # corrupt blob that also breaks the pickle
        return None, TransportChecksumError(
            f"sealed task result failed to deserialize: {exc}",
            backend=backend)


def _transport_seam_armed() -> bool:
    """True when the ``REPRO_CHAOS_BITFLIP_TARGET=transport`` seam is
    set (regardless of one-shot state)."""
    from repro.resilience import abft
    seam = abft.bitflip_seam()
    return seam is not None and seam.target == "transport"


class Executor:
    """One ``map`` with ordered results; see the module docstring for
    the determinism and failure contracts.

    A backend provides ``_ensure()`` (a pool with the
    ``concurrent.futures`` ``submit``), ``_broken_exc`` (exception types
    meaning "a worker died") and ``_reap()`` (dispose of a pool whose
    tasks were abandoned, killing its workers).
    """

    name = "abstract"
    #: True when tasks run in the caller's process and may share state
    #: with it (closures, live SuperLU handles). Parallel callers must
    #: ship self-contained payloads when this is False.
    inline = False
    _broken_exc: tuple = ()

    def __init__(self, workers: int = 1):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = int(workers)

    def _ensure(self):
        raise NotImplementedError

    def _reap(self) -> None:
        """Dispose of the current pool after a crash/timeout so the
        next ``map`` starts clean and nothing is orphaned."""

    def close(self) -> None:
        """Release pool resources (idempotent)."""

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _seal_tasks(self) -> bool:
        """Whether this ``map`` should ship sealed results. Inline
        backends have no transport, so they seal only when the
        transport chaos seam is armed (the drills must be able to
        exercise detection on every backend)."""
        return _transport_seam_armed()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}(workers={self.workers})"

    def map(self, fn: Callable, payloads: Sequence[Any], *,
            deadline_s: float | None = None) -> List[TaskOutcome]:
        """Submit every task; with a deadline, wait once until it
        expires (measured from batch submission, queueing included) and
        time out together whatever is still outstanding. Outcomes are
        settled in submission order."""
        pool = self._ensure()
        invoke = _invoke_sealed if self._seal_tasks() else _invoke
        futures: List[Future] = []
        out: List[TaskOutcome] = []
        unsubmitted: List[TaskOutcome] = []
        broken = False
        try:
            for p in payloads:
                try:
                    futures.append(pool.submit(invoke, fn, p))
                except self._broken_exc as exc:
                    # a worker died while the fan-out was still being
                    # dispatched (the chaos crash seam can fire that
                    # fast): book the unsubmitted tail as worker
                    # crashes, so callers take the normal failover path
                    # instead of seeing a raw BrokenProcessPool
                    unsubmitted = [TaskOutcome(index=i, error=WorkerCrashError(
                        f"worker process died before task {i} was "
                        f"submitted: {exc}", backend=self.name))
                        for i in range(len(futures), len(payloads))]
                    broken = True
                    break
            late = set() if deadline_s is None else \
                wait(futures, timeout=deadline_s).not_done
            for i, f in enumerate(futures):
                if f in late:
                    f.cancel()
                    out.append(TaskOutcome(
                        index=i, timed_out=True, error=TaskDeadlineError(
                            f"task {i} still outstanding after the "
                            f"{deadline_s}s batch deadline",
                            deadline_s=deadline_s)))
                    continue
                outcome, died = self._settle(f, i)
                out.append(outcome)
                broken = broken or died
        except BaseException:
            for f in futures:
                f.cancel()
            self._reap()
            raise
        if broken or late:
            # abandoned tasks may still be running: dispose of the pool
            # (killing worker processes) so nothing is orphaned
            self._reap()
        return self._retry_transport(fn, payloads, out + unsubmitted)

    def _retry_transport(self, fn: Callable, payloads: Sequence[Any],
                         outcomes: List[TaskOutcome]) -> List[TaskOutcome]:
        """Resubmit (once, chaos seam bypassed) every task whose result
        failed its transport digest. A second failure keeps the
        :class:`TransportChecksumError` for the caller to handle."""
        bad = [o for o in outcomes
               if isinstance(o.error, TransportChecksumError)]
        for o in bad:
            pool = self._ensure()
            f = pool.submit(_invoke_sealed_clean, fn, payloads[o.index])
            retry, died = self._settle(f, o.index)
            retry.transport_retries = o.transport_retries + 1
            outcomes[o.index] = retry
            if died:
                self._reap()
        return outcomes

    def _settle(self, f: Future, index: int) -> Tuple[TaskOutcome, bool]:
        """One future -> one outcome; second element flags pool death.
        Sealed values are digest-verified and unpickled here."""
        try:
            value, error, wall, pid = f.result()
            if error is None:
                value, error = _unseal(
                    value, verify=transport_checksum_enabled(),
                    backend=self.name)
            return TaskOutcome(index=index, value=value, error=error,
                               wall_s=wall, worker=pid), False
        except self._broken_exc as exc:
            return TaskOutcome(index=index, error=WorkerCrashError(
                f"worker process died while running task {index}: {exc}",
                backend=self.name)), True
        except Exception as exc:  # e.g. result unpickling failure
            return TaskOutcome(index=index, error=exc), False


class _InlinePool:
    """The serial backend's pool: ``submit`` runs the call before it
    returns, so a ``KeyboardInterrupt`` propagates at once and a batch
    deadline finds nothing outstanding."""

    @staticmethod
    def submit(fn: Callable, *args) -> Future:
        f: Future = Future()
        try:
            f.set_result(fn(*args))
        except Exception as exc:        # noqa: BLE001 - as a worker would
            f.set_exception(exc)
        return f


class SerialBackend(Executor):
    """Inline execution — the reference semantics.

    ``deadline_s`` is accepted and ignored: inline tasks cannot be
    preempted, and the serial result is by definition the reference
    every mitigated run must match.
    """

    name = "serial"
    inline = True

    def __init__(self, workers: int = 1):
        super().__init__(1)

    def _ensure(self) -> _InlinePool:
        return _InlinePool()


def _default_start_method() -> str:
    """``fork`` where available (cheap, inherits the parent's imported
    modules), the platform default (``spawn``) elsewhere. A
    ``REPRO_MP_START`` override is validated against the platform's
    available start methods."""
    override = envcfg.get(ENV_MP_START)
    import multiprocessing as mp
    if override:
        return override
    return "fork" if "fork" in mp.get_all_start_methods() else \
        mp.get_start_method(allow_none=False)


class ProcessBackend(Executor):
    """Process-pool execution with pickled payload shipping.

    The pool is created lazily on first ``map`` and rebuilt after a
    worker crash or a batch timeout. Task functions must be importable
    module-level callables; payloads and results must pickle.
    """

    name = "process"
    _broken_exc = (BrokenProcessPool,)

    def _seal_tasks(self) -> bool:
        """Process results really cross a transport; seal them whenever
        digest verification is on (the default) — and also when the
        chaos seam is armed with verification off, so the drills can
        show what silent acceptance looks like."""
        return transport_checksum_enabled() or _transport_seam_armed()

    #: Grace given to a worker after SIGTERM before escalating to
    #: SIGKILL (tests shorten it to exercise the escalation quickly).
    _join_grace_s = 5.0

    def __init__(self, workers: int = 2, *, start_method: str | None = None):
        super().__init__(workers)
        self._start_method = start_method or _default_start_method()
        self._pool: Optional[ProcessPoolExecutor] = None

    def _ensure(self) -> ProcessPoolExecutor:
        if self._pool is None:
            import multiprocessing as mp
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers,
                mp_context=mp.get_context(self._start_method),
                initializer=_mark_worker)
        return self._pool

    def _reap(self) -> None:
        """Shut the pool down and terminate its workers (SIGTERM, then
        SIGKILL after ``_join_grace_s``)."""
        pool, self._pool = self._pool, None
        if pool is None:
            return
        procs = list(getattr(pool, "_processes", {}).values())
        manager = getattr(pool, "_executor_manager_thread", None)
        pool.shutdown(wait=False, cancel_futures=True)
        for p in procs:
            if p.is_alive():
                p.terminate()
        for p in procs:
            p.join(timeout=self._join_grace_s)
        # a worker that ignores/blocks SIGTERM (wedged in C code, or a
        # chaos drill masking signals) would otherwise survive and hang
        # interpreter exit on the atexit close of shared backends:
        # escalate to SIGKILL and reap again
        for p in procs:
            if p.is_alive():
                p.kill()
                p.join(timeout=self._join_grace_s)
        # the pool's manager thread joins the same workers; whichever
        # thread loses the waitpid race sees ECHILD and leaves the
        # process looking alive until the winner has stored its exit
        # code. Wait for that thread, so that nothing this pool started
        # is still in multiprocessing.active_children() on return
        if manager is not None:
            manager.join(timeout=self._join_grace_s)

    def close(self) -> None:
        self._reap()


_BACKENDS = {
    "serial": SerialBackend,
    "process": ProcessBackend,
}

#: Shared instances keyed by (name, workers): repeated solver
#: constructions reuse one warm pool instead of forking per solve.
_shared: Dict[Tuple[str, int], Executor] = {}


def backend_names() -> tuple:
    """Names of the registered execution backends, sorted."""
    return tuple(sorted(_BACKENDS))


def _default_workers() -> int:
    value = envcfg.get(ENV_WORKERS)
    if value is not None:
        return value
    return max(1, min(4, os.cpu_count() or 1))


@atexit.register
def _close_shared() -> None:  # pragma: no cover - interpreter teardown
    for b in list(_shared.values()):
        try:
            b.close()
        except Exception:
            pass
    _shared.clear()


def get_backend(name: str, *, workers: int | None = None,
                fresh: bool = False) -> Executor:
    """Backend by spec string (``"process"`` / ``"process:4"``).

    Shared instances are cached per (name, workers) and closed at
    interpreter exit; pass ``fresh=True`` for a private instance the
    caller owns (and must ``close()``).
    """
    base, _, count = name.partition(":")
    if base not in _BACKENDS:
        raise ValueError(f"unknown backend {base!r}; "
                         f"expected one of {backend_names()}")
    if count:
        try:
            workers = int(count)
        except ValueError:
            raise ValueError(f"bad worker count in backend spec "
                             f"{name!r}: {count!r} is not an integer"
                             ) from None
        if workers < 1:
            raise ValueError(f"bad worker count in backend spec "
                             f"{name!r}: must be >= 1")
    if workers is None:
        workers = 1 if base == "serial" else _default_workers()
    if fresh:
        return _BACKENDS[base](workers)
    key = (base, workers)
    if key not in _shared:
        _shared[key] = _BACKENDS[base](workers)
    return _shared[key]


def resolve_backend(spec: "Executor | str | None") -> Executor:
    """The solver-facing resolution ladder: explicit instance > spec
    string > ``REPRO_BACKEND`` environment variable > serial. Any other
    type raises a ``TypeError`` naming ``backend``."""
    if isinstance(spec, Executor):
        return spec
    if not (spec is None or isinstance(spec, str)):
        raise TypeError(f"backend must be an Executor, a spec string or "
                        f"None, not {type(spec).__name__}: {spec!r}")
    if spec is None:
        env = envcfg.get_raw(ENV_BACKEND) or ""
        if env:
            try:
                return get_backend(env)
            except ValueError as exc:
                raise ValueError(f"{ENV_BACKEND}: {exc}") from None
        spec = "serial"
    return get_backend(spec)
