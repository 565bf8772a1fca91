"""Tests for the serving layer: session cache, micro-batching queue,
structured rejections, deadlines, revalidation, and shutdown hygiene."""

import multiprocessing
import pickle
import time

import numpy as np
import pytest
from tests.conftest import reachable_objects, retained_bytes_per_call

from repro.matrices import generate
from repro.obs.tracer import Tracer
from repro.resilience.errors import SolverError
from repro.service import (
    ServiceClosedError,
    ServiceDeadlineError,
    ServiceError,
    ServiceOverloadedError,
    SessionCache,
    SolverService,
    UnknownSessionError,
    session_key,
)
from repro.service.cache import make_session, session_nbytes
from repro.solver import PDSLin, PDSLinConfig, RuntimeOptions


def _cfg():
    return PDSLinConfig(k=4, seed=0)


@pytest.fixture(scope="module")
def hot():
    return generate("tdr190k", "tiny").A


@pytest.fixture(scope="module")
def cold_pair():
    return (generate("tdr455k", "tiny").A,
            generate("dds.quad", "tiny").A)


@pytest.fixture()
def svc():
    service = SolverService(config=_cfg(), batch_window_s=0.01,
                            tracer=Tracer())
    yield service
    service.close()


def _rhs(A, seed=0):
    return np.random.default_rng(seed).standard_normal(A.shape[0])


class TestSessionCache:
    def _session(self, A, key=None):
        solver = PDSLin(A, _cfg())
        solver.setup()
        return make_session(key or session_key(A, _cfg()), solver, A,
                            _cfg())

    def test_nbytes_accounts_factors(self, hot):
        s = self._session(hot)
        # more than the bare matrix: factors + Schur must be counted
        matrix_bytes = hot.data.nbytes + hot.indices.nbytes \
            + hot.indptr.nbytes
        assert s.nbytes > matrix_bytes

    def test_nbytes_includes_solve_plan(self, hot, cold_pair):
        a = self._session(hot)
        plan = a.solver.solve_plan
        payload = sum(arr.nbytes
                      for M in (plan.C, *plan.E_perm, *plan.F_perm)
                      for arr in (M.data, M.indices, M.indptr))
        assert payload > 0
        a.solver.solve_plan = None
        without = session_nbytes(a.solver)
        a.solver.solve_plan = plan
        assert a.nbytes == session_nbytes(a.solver) == without + payload
        # one byte short of both sessions, plans counted: the older goes
        b = self._session(cold_pair[0])
        cache = SessionCache(a.nbytes + b.nbytes - 1)
        cache.put(a)
        assert [s.key for s in cache.put(b)] == [a.key]
        assert cache.used_bytes == b.nbytes <= cache.budget_bytes

    def test_lru_eviction_respects_budget(self, hot, cold_pair):
        a = self._session(hot)
        cache = SessionCache(int(a.nbytes * 1.5))
        assert cache.put(a) == []
        b = self._session(cold_pair[0])
        evicted = cache.put(b)
        assert [s.key for s in evicted] == [a.key]
        assert cache.used_bytes <= cache.budget_bytes or len(cache) == 1
        assert cache.evicted_bytes == a.nbytes

    def test_eviction_releases_superlu_handles(self, hot, cold_pair):
        a = self._session(hot)
        assert any(s.factors.handle is not None
                   for s in a.solver.subdomains)
        cache = SessionCache(1)  # everything over budget
        cache.put(a)
        b = self._session(cold_pair[0])
        cache.put(b)
        assert all(s.factors.handle is None for s in a.solver.subdomains)

    def test_get_refreshes_recency(self, hot, cold_pair):
        a = self._session(hot)
        b = self._session(cold_pair[0])
        cache = SessionCache(a.nbytes + b.nbytes)
        cache.put(a)
        cache.put(b)
        assert cache.get(a.key) is a      # a is now most recent
        c = self._session(cold_pair[1])
        evicted = cache.put(c)
        assert [s.key for s in evicted] == [b.key]

    def test_zero_budget_still_serves_one(self, hot):
        cache = SessionCache(0)
        a = self._session(hot)
        cache.put(a)
        assert len(cache) == 1            # own insert never evicts itself


class TestSubmitAndBatch:
    def test_cache_hit_bit_identical_to_fresh_solve(self, svc, hot):
        b0, b1 = _rhs(hot, 0), _rhs(hot, 1)
        svc.solve(hot, b0)                            # warm the session
        served = svc.solve(hot, b1)                   # cache hit
        fresh = PDSLin(hot, _cfg()).solve(b1)
        assert served.x.tobytes() == fresh.x.tobytes()
        assert svc.service_report()["cache"]["hits"] >= 1

    def test_burst_coalesces_into_one_batch(self, svc, hot):
        svc.solve(hot, _rhs(hot))                     # warm up
        futs = [svc.submit(hot, _rhs(hot, i)) for i in range(5)]
        for f in futs:
            assert f.result(timeout=300).converged
        assert svc.service_report()["requests"]["max_batch_nrhs"] >= 2

    def test_fingerprint_round_trip(self, svc, hot):
        fp = svc.fingerprint(hot, _cfg())
        svc.solve(hot, _rhs(hot))
        b = _rhs(hot, 7)
        assert svc.solve(fp, b).converged
        assert fp == session_key(hot, _cfg())

    def test_unknown_fingerprint_rejected(self, svc):
        with pytest.raises(UnknownSessionError, match="resubmit"):
            svc.submit("feed:beef", np.ones(4))

    def test_distinct_matrices_get_distinct_sessions(self, svc, hot,
                                                     cold_pair):
        svc.solve(hot, _rhs(hot))
        svc.solve(cold_pair[0], _rhs(cold_pair[0]))
        assert svc.service_report()["cache"]["sessions"] == 2

    def test_input_validation(self, svc, hot):
        with pytest.raises(ValueError, match="1-D"):
            svc.submit(hot, np.ones((4, 2)))
        with pytest.raises(ValueError, match="length"):
            svc.submit(hot, np.ones(3))
        with pytest.raises(ValueError, match="deadline_s"):
            svc.submit(hot, _rhs(hot), deadline_s=0.0)


class TestBackpressureAndDeadlines:
    def test_queue_depth_rejection(self, hot):
        svc = SolverService(config=_cfg(), max_pending=2,
                            batch_window_s=5.0)
        try:
            svc.submit(hot, _rhs(hot, 0))
            svc.submit(hot, _rhs(hot, 1))
            with pytest.raises(ServiceOverloadedError) as exc:
                svc.submit(hot, _rhs(hot, 2))
            assert exc.value.limit == 2
            assert exc.value.queue_depth == 2
        finally:
            svc.close(timeout=1.0)

    def test_cold_matrix_admission_limit(self, hot, cold_pair):
        svc = SolverService(config=_cfg(), max_cold_sessions=1,
                            batch_window_s=5.0)
        try:
            svc.submit(hot, _rhs(hot))
            with pytest.raises(ServiceOverloadedError, match="cold"):
                svc.submit(cold_pair[0], _rhs(cold_pair[0]))
        finally:
            svc.close(timeout=1.0)

    def test_expired_deadline_is_structured_rejection(self, svc, hot):
        fut = svc.submit(hot, _rhs(hot), deadline_s=1e-5)
        with pytest.raises(ServiceDeadlineError) as exc:
            fut.result(timeout=300)
        assert exc.value.deadline_s == 1e-5
        assert exc.value.waited_s > 0
        assert svc.service_report()["requests"]["deadline_missed"] == 1

    def test_generous_deadline_is_served(self, svc, hot):
        assert svc.solve(hot, _rhs(hot), deadline_s=600.0).converged

    def test_service_errors_are_solver_errors_and_pickle(self):
        err = ServiceOverloadedError("full", queue_depth=9, limit=8)
        assert isinstance(err, SolverError)
        clone = pickle.loads(pickle.dumps(err))
        assert isinstance(clone, ServiceOverloadedError)
        assert clone.queue_depth == 9 and clone.limit == 8
        assert isinstance(ServiceDeadlineError("late"), ServiceError)


class TestUpdateMatrix:
    def test_revalidation_rekeys_and_matches_fresh(self, svc, hot):
        svc.solve(hot, _rhs(hot))
        hot2 = hot.copy()
        hot2.data = hot2.data * 1.5
        key2 = svc.update_matrix(hot2)
        assert key2 == session_key(hot2, _cfg())
        b = _rhs(hot2, 5)
        served = svc.solve(key2, b)          # by fingerprint: rekeyed
        fresh = PDSLin(hot2, _cfg()).solve(b)
        assert served.x.tobytes() == fresh.x.tobytes()
        rep = svc.service_report()
        assert rep["requests"]["revalidations"] == 1
        assert rep["cache"]["sessions"] == 1  # rekeyed, not duplicated

    def test_no_pattern_match_falls_back_cold(self, svc, hot):
        key = svc.update_matrix(hot)          # nothing cached yet
        assert key == session_key(hot, _cfg())
        assert svc.service_report()["requests"]["revalidations"] == 0


class TestLifecycle:
    def test_close_rejects_pending_and_new(self, hot):
        svc = SolverService(config=_cfg(), batch_window_s=5.0)
        fut = svc.submit(hot, _rhs(hot))
        svc.close(timeout=1.0)
        with pytest.raises(ServiceClosedError):
            fut.result(timeout=1)
        with pytest.raises(ServiceClosedError):
            svc.submit(hot, _rhs(hot))
        svc.close()                           # idempotent

    def test_close_clears_cache(self, hot):
        svc = SolverService(config=_cfg(), batch_window_s=0.01)
        svc.solve(hot, _rhs(hot))
        svc.close()
        assert svc.cache.snapshot()["sessions"] == 0

    def test_process_backend_no_orphans_after_close(self, hot):
        # an ambient REPRO_BACKEND pool outlives this test by design:
        # only workers started after the service was built count
        before = set(multiprocessing.active_children())
        svc = SolverService(config=_cfg(), backend="process:2",
                            batch_window_s=0.01)
        try:
            b = _rhs(hot)
            served = svc.solve(hot, b)
            fresh = PDSLin(hot, _cfg(), runtime=RuntimeOptions(
                backend="serial")).solve(b)
            assert served.x.tobytes() == fresh.x.tobytes()
        finally:
            svc.close()
        assert set(multiprocessing.active_children()) - before == set()

    def test_caller_owned_backend_not_closed(self, hot):
        from repro.parallel.exec import get_backend
        backend = get_backend("thread:2", fresh=True)
        try:
            svc = SolverService(config=_cfg(), backend=backend,
                                batch_window_s=0.01)
            svc.solve(hot, _rhs(hot))
            svc.close()
            # still usable: the service must not close what it not owns
            assert backend.map(len, [[1, 2]]) is not None
        finally:
            backend.close()


class TestDispatcherHardening:
    """One malformed or unlucky request must never kill the dispatcher
    thread or tear resources out from under a live batch."""

    def test_fingerprint_wrong_length_rejected_at_submit(self, svc, hot):
        svc.solve(hot, _rhs(hot))                     # session cached
        fp = svc.fingerprint(hot)
        with pytest.raises(ValueError, match="length"):
            svc.submit(fp, np.ones(hot.shape[0] - 1))
        # the dispatcher survived: the same session still serves
        assert svc.solve(fp, _rhs(hot, 3)).converged

    def test_fingerprint_validated_against_queued_carrier(self, hot):
        svc = SolverService(config=_cfg(), batch_window_s=5.0)
        try:
            fp = svc.fingerprint(hot)
            svc.submit(hot, _rhs(hot))                # carrier queued
            with pytest.raises(ValueError, match="length"):
                svc.submit(fp, np.ones(hot.shape[0] + 1))
        finally:
            svc.close(timeout=1.0)

    def test_fingerprint_admitted_while_session_in_flight(self, svc,
                                                          hot):
        # simulate the dispatcher mid-setup: the carrier popped off the
        # queue, its session not yet in the cache
        fp = svc.fingerprint(hot)
        with svc._lock:
            svc._building[fp] = int(hot.shape[0])
        with pytest.raises(ValueError, match="length"):
            svc.submit(fp, np.ones(2))
        fut = svc.submit(fp, _rhs(hot))               # admitted
        # no carrier ever establishes the session here, so the request
        # fails with the honest message — and the dispatcher lives on
        with pytest.raises(UnknownSessionError, match="carrier"):
            fut.result(timeout=300)
        assert svc.solve(hot, _rhs(hot)).converged

    def test_dispatcher_survives_serve_group_error(self, svc, hot):
        orig = svc._serve_group

        def boom(key, reqs):
            raise RuntimeError("injected dispatch failure")

        svc._serve_group = boom
        fut = svc.submit(hot, _rhs(hot))
        with pytest.raises(RuntimeError, match="injected"):
            fut.result(timeout=300)
        svc._serve_group = orig
        assert svc.solve(hot, _rhs(hot)).converged
        assert svc.service_report()["requests"]["failed"] == 1

    def test_deadline_expiring_during_setup_is_rejected(self, svc, hot):
        orig = svc._session_for

        def slow(key, reqs):
            out = orig(key, reqs)
            time.sleep(0.5)                           # cold setup drags
            return out

        svc._session_for = slow
        fut = svc.submit(hot, _rhs(hot), deadline_s=0.2)
        with pytest.raises(ServiceDeadlineError):
            fut.result(timeout=300)
        svc._session_for = orig

    def test_close_timeout_leaves_live_solve_untouched(self, hot):
        svc = SolverService(config=_cfg(), batch_window_s=0.01)
        svc.solve(hot, _rhs(hot))                     # session cached
        svc._exec_lock.acquire()                      # batch "solving"
        try:
            with pytest.warns(RuntimeWarning, match="still solving"):
                svc.close(timeout=0.2)
            assert not svc.closed
            # nothing torn down under the live solve
            assert svc.cache.snapshot()["sessions"] == 1
        finally:
            svc._exec_lock.release()
        svc.close()                                   # retry finishes
        assert svc.closed
        assert svc.cache.snapshot()["sessions"] == 0


class TestObservability:
    def test_report_shape(self, svc, hot):
        svc.solve(hot, _rhs(hot))
        rep = svc.service_report()
        assert rep["queue_depth"] == 0
        assert rep["cache"]["sessions"] == 1
        assert rep["requests"]["served"] == 1
        assert rep["throughput"]["rhs_per_s"] > 0
        assert rep["sessions"][0]["rhs_served"] == 1

    def test_tracer_spans_and_counters(self, hot):
        tracer = Tracer()
        svc = SolverService(config=_cfg(), tracer=tracer,
                            batch_window_s=0.01)
        try:
            svc.solve(hot, _rhs(hot, 0))
            svc.solve(hot, _rhs(hot, 1))
        finally:
            svc.close()
        assert tracer.span_count("service_setup") == 1
        assert tracer.span_count("service_batch") == 2
        assert tracer.counters.get("service_cache_hit") == 1
        assert tracer.counters.get("service_cache_miss") == 1

    def test_cached_session_retains_nothing_per_request(self, hot):
        # default configuration (NullTracer): hours of traffic against a
        # cached session must not grow it past what session_nbytes sees
        svc = SolverService(config=_cfg(), batch_window_s=0.0)
        try:
            key = svc.fingerprint(hot)
            b = _rhs(hot)
            for _ in range(20):
                svc.solve(hot, b)
            machine = svc.cache.peek(key).solver.machine
            objects = reachable_objects(machine)
            per_call = retained_bytes_per_call(
                [lambda: svc.solve(key, b)] * 200)
        finally:
            svc.close()
        assert per_call < 200
        assert reachable_objects(machine) == objects

    def test_smoke_runner_serial(self):
        from repro import smoke
        out = smoke.run("service", backend="serial", n_requests=12)
        assert out.ok, out.checks

    def test_smoke_runner_ignores_ambient_process_pool(self, monkeypatch):
        # an ambient REPRO_BACKEND=process must neither leak into the
        # drill's serial reference solves nor count the shared pool's
        # workers as orphans of a serial service
        from repro import smoke
        monkeypatch.setenv("REPRO_BACKEND", "process")
        monkeypatch.setenv("REPRO_WORKERS", "2")
        out = smoke.run("service", backend="serial", n_requests=12)
        assert out.checks == {name: True for name in out.checks}
