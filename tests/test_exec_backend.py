"""Tests for the pluggable execution backends of repro.parallel.exec:
ordering/failure contracts, spec parsing, crash recovery, orphan
cleanup, and error pickling across the process boundary."""

from __future__ import annotations

import multiprocessing
import os
import pickle
import time

import pytest

from repro.parallel.exec import (
    ENV_BACKEND,
    ENV_WORKERS,
    Executor,
    ProcessBackend,
    SerialBackend,
    TaskOutcome,
    backend_names,
    get_backend,
    in_worker,
    resolve_backend,
)
from repro.resilience.errors import (
    InjectedFault,
    SingularSubdomainError,
    SolverError,
    WorkerCrashError,
)


# module-level so the process backend can pickle them by reference
def _square(x):
    return x * x


def _sleep_then(payload):
    delay, value = payload
    time.sleep(delay)
    return value


def _raise_solver_error(x):
    raise SingularSubdomainError("pivot vanished", column=x, pivot=0.0,
                                 subdomain=x)


def _die(x):
    os._exit(13)


def _die_if_two(x):
    if x == 2:
        os._exit(13)
    return x * 10


def _pid(_):
    return os.getpid()


def _in_worker_flag(_):
    return in_worker()


_RAN = []


def _interrupt_at_zero(x):
    if x == 0:
        raise KeyboardInterrupt
    _RAN.append(x)


BACKENDS = [SerialBackend(), ProcessBackend(workers=2)]


@pytest.fixture(scope="module", autouse=True)
def _close_backends():
    yield
    for b in BACKENDS:
        b.close()


class TestMapContract:
    @pytest.mark.parametrize("backend", BACKENDS, ids=lambda b: b.name)
    def test_results_in_submission_order(self, backend):
        out = backend.map(_square, list(range(8)))
        assert [o.index for o in out] == list(range(8))
        assert [o.value for o in out] == [i * i for i in range(8)]
        assert all(o.ok for o in out)

    def test_order_survives_out_of_order_completion(self):
        backend = ProcessBackend(workers=2)
        try:
            # later tasks finish first; results must still come back in
            # submission order
            payloads = [(0.05, "slow"), (0.0, "fast1"), (0.0, "fast2")]
            out = backend.map(_sleep_then, payloads)
            assert [o.value for o in out] == ["slow", "fast1", "fast2"]
        finally:
            backend.close()

    @pytest.mark.parametrize("backend", BACKENDS, ids=lambda b: b.name)
    def test_task_exception_is_captured_not_raised(self, backend):
        out = backend.map(_raise_solver_error, [7])
        assert not out[0].ok and out[0].value is None
        err = out[0].error
        assert isinstance(err, SingularSubdomainError)
        assert err.column == 7 and err.subdomain == 7

    def test_worker_flag_only_set_in_process_workers(self):
        assert not in_worker()
        assert SerialBackend().map(_in_worker_flag, [0])[0].value is False
        backend = BACKENDS[1]
        assert backend.map(_in_worker_flag, [0])[0].value is True

    def test_serial_interrupt_propagates_before_later_tasks_run(self):
        _RAN.clear()
        with pytest.raises(KeyboardInterrupt):
            SerialBackend().map(_interrupt_at_zero, [0, 1, 2])
        assert _RAN == []

    def test_serial_ignores_the_deadline(self):
        out = SerialBackend().map(_sleep_then, [(0.05, "a"), (0.0, "b")],
                                  deadline_s=0.01)
        assert [o.value for o in out] == ["a", "b"]
        assert not any(o.timed_out for o in out)

    def test_process_backend_uses_other_processes(self):
        backend = BACKENDS[1]
        pids = {o.value for o in backend.map(_pid, range(4))}
        assert os.getpid() not in pids


class TestCrashRecovery:
    def test_crash_surfaces_as_worker_crash_error(self):
        backend = ProcessBackend(workers=2)
        try:
            out = backend.map(_die, [0])
            assert isinstance(out[0].error, WorkerCrashError)
            assert out[0].error.backend == "process"
        finally:
            backend.close()

    def test_pool_rebuilds_after_crash_and_leaves_no_orphans(self):
        backend = ProcessBackend(workers=2)
        try:
            first = {o.value for o in backend.map(_pid, range(4))}
            out = backend.map(_die_if_two, range(4))
            crashed = [o for o in out if not o.ok]
            assert crashed and all(isinstance(o.error, WorkerCrashError)
                                   for o in crashed)
            # old pool was disposed: its workers are gone...
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline and any(
                    _alive(pid) for pid in first):
                time.sleep(0.05)
            assert not any(_alive(pid) for pid in first)
            # ...and the next map transparently gets a fresh pool
            again = backend.map(_square, [3, 4])
            assert [o.value for o in again] == [9, 16]
        finally:
            backend.close()

    def test_close_terminates_workers(self):
        backend = ProcessBackend(workers=2)
        pids = {o.value for o in backend.map(_pid, range(4))}
        backend.close()
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline and any(_alive(p) for p in pids):
            time.sleep(0.05)
        assert not any(_alive(p) for p in pids)

    def test_close_waits_for_the_pool_manager_thread(self):
        # close() and the pool's manager thread both reap the workers,
        # and the loser of a waitpid race leaves a worker looking alive
        # until the winner has stored its exit code (a live entry in
        # multiprocessing.active_children() after 3-8 % of closes in
        # an unlucky process): close() returns after that thread
        before = set(multiprocessing.active_children())
        for _ in range(20):
            backend = ProcessBackend(workers=2)
            assert all(o.ok for o in backend.map(_square, [1, 2, 3]))
            manager = backend._pool._executor_manager_thread
            backend.close()
            assert not manager.is_alive()
            assert set(multiprocessing.active_children()) <= before

    def test_keyboard_interrupt_cancels_and_terminates(self):
        # unit-level check of the BaseException path: pending futures are
        # cancelled and the pool torn down before the interrupt re-raises
        backend = ProcessBackend(workers=2)
        fake = _FakePool()
        backend._pool = fake
        with pytest.raises(KeyboardInterrupt):
            backend.map(_square, [1, 2, 3])
        assert all(f.cancelled for f in fake.futures[1:])
        assert fake.shutdown_called
        assert backend._pool is None  # next map builds a fresh pool


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except (OSError, ProcessLookupError):
        return False
    return True


class _FakeFuture:
    def __init__(self, interrupt: bool):
        self.interrupt = interrupt
        self.cancelled = False

    def result(self):
        if self.interrupt:
            raise KeyboardInterrupt
        return None, None, 0.0, os.getpid()

    def cancel(self):
        self.cancelled = True
        return True


class _FakePool:
    def __init__(self):
        self.futures: list[_FakeFuture] = []
        self.shutdown_called = False

    def submit(self, fn, *args):
        f = _FakeFuture(interrupt=not self.futures)
        self.futures.append(f)
        return f

    def shutdown(self, wait=True, cancel_futures=False):
        self.shutdown_called = True


class TestErrorPickling:
    @pytest.mark.parametrize("err", [
        SolverError("base failure", stage="LU(D)", subdomain=3),
        SingularSubdomainError("zero pivot", column=17, pivot=1e-30,
                               subdomain=2),
        InjectedFault("chaos", kind="permanent", stage="Comp(S)",
                      subdomain=1, recovery_cost_s=0.25),
        WorkerCrashError("worker died", backend="process", subdomain=0),
    ], ids=lambda e: type(e).__name__)
    def test_round_trip_preserves_context(self, err):
        back = pickle.loads(pickle.dumps(err))
        assert type(back) is type(err)
        assert back.args == err.args
        assert back.__dict__ == err.__dict__
        assert str(back) == str(err)

    def test_round_trip_through_process_backend(self):
        out = BACKENDS[1].map(_raise_solver_error, [5])
        err = out[0].error
        assert isinstance(err, SingularSubdomainError)
        assert (err.column, err.pivot, err.stage) == (5, 0.0, "LU(D)")


class TestSelection:
    def test_backend_names(self):
        assert backend_names() == ("process", "serial")

    def test_thread_spec_is_unknown(self, monkeypatch):
        with pytest.raises(ValueError, match=r"unknown backend 'thread'; "
                           r"expected one of \('process', 'serial'\)"):
            get_backend("thread")
        monkeypatch.setenv(ENV_BACKEND, "thread")
        with pytest.raises(ValueError, match=r"REPRO_BACKEND: unknown "
                           r"backend 'thread'; expected one of "
                           r"\('process', 'serial'\)"):
            resolve_backend(None)

    @pytest.mark.parametrize("spec", [123, 2.0, ["serial"], ProcessBackend],
                             ids=["int", "float", "list", "class"])
    def test_non_backend_spec_is_a_type_error(self, spec):
        with pytest.raises(TypeError, match="backend must be an Executor, "
                           "a spec string or None"):
            resolve_backend(spec)

    def test_map_is_written_once(self):
        assert "map" not in vars(SerialBackend)
        assert "map" not in vars(ProcessBackend)

    def test_spec_with_worker_count(self):
        b = get_backend("process:3", fresh=True)
        try:
            assert isinstance(b, ProcessBackend) and b.workers == 3
        finally:
            b.close()

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            get_backend("mpi")

    def test_shared_instances_are_cached(self):
        assert get_backend("process", workers=2) is \
            get_backend("process", workers=2)
        assert get_backend("process", workers=2) is not \
            get_backend("process", workers=3)

    def test_fresh_instance_is_private(self):
        b = get_backend("serial", fresh=True)
        assert b is not get_backend("serial")

    def test_resolve_passes_instances_through(self):
        b = SerialBackend()
        assert resolve_backend(b) is b

    def test_resolve_spec_string(self):
        assert resolve_backend("serial").name == "serial"
        assert resolve_backend("process:2").workers == 2

    def test_resolve_env_default(self, monkeypatch):
        monkeypatch.delenv(ENV_BACKEND, raising=False)
        assert resolve_backend(None).name == "serial"
        monkeypatch.setenv(ENV_BACKEND, "process")
        monkeypatch.setenv(ENV_WORKERS, "2")
        b = resolve_backend(None)
        assert b.name == "process" and b.workers == 2

    def test_workers_must_be_positive(self):
        with pytest.raises(ValueError):
            ProcessBackend(workers=0)

    def test_serial_backend_is_inline_singleton_width(self):
        b = SerialBackend(workers=8)
        assert b.inline and b.workers == 1
        assert isinstance(b, Executor)

    def test_outcome_ok_property(self):
        assert TaskOutcome(index=0, value=1).ok
        assert not TaskOutcome(index=0, error=RuntimeError()).ok
