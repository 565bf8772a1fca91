"""Tests for the silent-data-corruption defense (repro.resilience.abft).

Covers the checksum primitives (factor and matrix column sums, the
passive per-solve audit), the seeded bit-flip injector and its
environment seams, tolerance behaviour on the ill-conditioned
``ROBUST_SUITE``, the Krylov drift audits, the sealed-transport layer,
and the end-to-end detection -> recovery drills that CI runs via
``python -m repro.smoke bitflip``.
"""

import os

import numpy as np
import pytest
import scipy.sparse as sp
from tests.conftest import grid_laplacian

from repro.lu import factorize
from repro.matrices import generate, generate_robust, robust_suite_names
from repro.obs.tracer import Tracer
from repro.parallel.exec import (
    ENV_TRANSPORT_CHECKSUM,
    ProcessBackend,
    SerialBackend,
    transport_checksum_enabled,
)
from repro.resilience import abft
from repro.solver import PDSLin, PDSLinConfig, RuntimeOptions
from repro.solver.gmres import gmres
from repro.solver.partasks import validate_chaos_env

SEAM_VARS = (abft.ENV_BITFLIP_TARGET, abft.ENV_BITFLIP_COUNT,
             abft.ENV_BITFLIP_SEED, abft.ENV_BITFLIP_SUBDOMAIN,
             ENV_TRANSPORT_CHECKSUM)


@pytest.fixture(autouse=True)
def _clean_seams():
    """Every test starts and ends with the chaos seams unarmed."""
    saved = {name: os.environ.get(name) for name in SEAM_VARS}
    for name in SEAM_VARS:
        os.environ.pop(name, None)
    abft.reset_bitflip_state()
    yield
    for name, value in saved.items():
        if value is None:
            os.environ.pop(name, None)
        else:
            os.environ[name] = value
    abft.reset_bitflip_state()


def _arm(target, *, seed=0, subdomain=None, count=None):
    os.environ[abft.ENV_BITFLIP_TARGET] = target
    os.environ[abft.ENV_BITFLIP_SEED] = str(seed)
    if subdomain is not None:
        os.environ[abft.ENV_BITFLIP_SUBDOMAIN] = str(subdomain)
    if count is not None:
        os.environ[abft.ENV_BITFLIP_COUNT] = str(count)
    abft.reset_bitflip_state()


def _test_matrix(n=60, seed=3):
    rng = np.random.default_rng(seed)
    A = sp.random(n, n, density=0.08, random_state=rng,
                  data_rvs=rng.standard_normal, format="csc")
    A = A + sp.eye(n, format="csc") * float(n)
    return A.tocsc()


# -- mode knob ---------------------------------------------------------------

class TestModeKnob:
    def test_all_modes_accepted(self):
        for mode in abft.ABFT_MODES:
            assert abft.check_abft_mode(mode) == mode

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError, match="abft"):
            abft.check_abft_mode("paranoid")

    def test_mode_predicates(self):
        assert not abft.abft_detect("off")
        assert abft.abft_detect("detect")
        assert abft.abft_detect("detect+recover")
        assert not abft.abft_recover("detect")
        assert abft.abft_recover("detect+recover")

    def test_config_validates_mode(self):
        with pytest.raises(ValueError, match="abft"):
            PDSLinConfig(k=2, abft="bogus")


# -- matrix checksums --------------------------------------------------------

class TestMatrixChecksums:
    def test_roundtrip_clean(self):
        M = _test_matrix().tocsr()
        stored = abft.checksum_matrix(M)
        audit = abft.verify_matrix_checksum(M, stored)
        assert audit.ok and bool(audit)

    def test_data_flip_detected(self):
        M = _test_matrix().tocsr()
        stored = abft.checksum_matrix(M)
        victim = int(np.argmax(np.abs(M.data)))
        M.data[victim:victim + 1].view(np.uint64)[0] ^= np.uint64(1 << 55)
        audit = abft.verify_matrix_checksum(M, stored)
        assert not audit.ok and audit.rel > 1.0
        assert "tolerance" in audit.detail

    def test_stored_vector_flip_detected(self):
        M = _test_matrix().tocsr()
        stored = abft.checksum_matrix(M)
        stored[int(np.argmax(np.abs(stored)))] *= 4.0
        assert not abft.verify_matrix_checksum(M, stored).ok

    def test_canonicalization_does_not_mutate(self):
        # the observer contract: computing a checksum must never sort
        # the caller's matrix in place (that would perturb downstream
        # sparse kernels and break abft=off vs detect bit-parity)
        M = _test_matrix().tocsr()
        M.has_sorted_indices = False
        data_before = M.data.copy()
        idx_before = M.indices.copy()
        abft.checksum_matrix(M)
        assert not M.has_sorted_indices
        assert np.array_equal(M.data, data_before)
        assert np.array_equal(M.indices, idx_before)


# -- factor checksums --------------------------------------------------------

class TestFactorChecksums:
    def _factors(self):
        A = _test_matrix()
        f = factorize(A, diag_pivot_thresh=0.01)
        abft.attach_factor_checksums(f, A)
        return A, f

    def test_clean_factors_verify(self):
        _, f = self._factors()
        audit = abft.verify_factors(f)
        assert audit.ok, audit.detail

    def test_no_checksums_is_vacuously_clean(self):
        A = _test_matrix()
        f = factorize(A, diag_pivot_thresh=0.01)
        assert abft.verify_factors(f).ok

    def test_factor_data_flip_detected(self):
        _, f = self._factors()
        victim = int(np.argmax(np.abs(f.U.data)))
        f.U.data[victim:victim + 1].view(np.uint64)[0] ^= np.uint64(1 << 56)
        audit = abft.verify_factors(f)
        assert not audit.ok and audit.rel > 1.0

    def test_stored_checksum_flip_detected(self):
        _, f = self._factors()
        cs = f.checksums
        cs.colsum_L[int(np.argmax(np.abs(cs.colsum_L)))] += 1.0
        assert not abft.verify_factors(f).ok

    def test_solve_audit_clean_then_corrupt(self):
        A, f = self._factors()
        cs = f.checksums
        b = np.arange(A.shape[0], dtype=np.float64) + 1.0
        x = f.solve(b)
        assert cs.checks >= 1 and cs.violations == 0
        assert np.linalg.norm(A @ x - b) <= 1e-8 * np.linalg.norm(b)
        # a corrupted solution must trip the 1^T A x = 1^T b audit
        bad = x.copy()
        bad[int(np.argmax(np.abs(bad)))] *= 64.0
        cs.audit_solve(f, b, bad)
        assert cs.violations == 1 and cs.worst_rel > 1.0
        cs.reset_counters()
        assert cs.checks == 0 and cs.violations == 0
        assert cs.last_detail == ""

    def test_checksums_survive_pickling(self):
        import pickle
        _, f = self._factors()
        clone = pickle.loads(pickle.dumps(f))
        assert clone.checksums is not None
        assert abft.verify_factors(clone).ok

    def test_empty_factors_attach_and_verify_clean(self):
        # a subdomain the partitioner left empty has 0x0 factors
        empty = sp.csc_matrix((0, 0))
        f = factorize(empty, diag_pivot_thresh=0.0)
        cs = abft.attach_factor_checksums(f, empty)
        assert cs.base_identity_rel == 0.0 and cs.identity_den > 0.0
        audit = abft.verify_factors(f)
        assert audit.ok and audit.rel == 0.0
        assert abft.verify_matrix_checksum(
            empty, abft.checksum_matrix(empty)).ok

    @pytest.mark.parametrize("mode", ["detect", "detect+recover"])
    def test_solver_with_an_empty_subdomain(self, mode):
        # a 3x3 grid cut four ways leaves one subdomain without
        # vertices (the fuzzer's perturbed:matrix211 k=8 finding)
        A = grid_laplacian(3, 3)
        tr = Tracer()
        solver = PDSLin(A, PDSLinConfig(k=4, seed=0, abft=mode),
                        runtime=RuntimeOptions(tracer=tr)).setup()
        assert 0 in [s.interfaces.dim for s in solver.subdomains]
        b = np.arange(9, dtype=np.float64) + 1.0
        res = solver.solve(b)
        assert res.converged and not res.degraded
        assert np.linalg.norm(A @ res.x - b) <= 1e-12 * np.linalg.norm(b)
        assert tr.counters.get("sdc_detected", 0) == 0


# -- bit-flip injector -------------------------------------------------------

class TestFlipInjector:
    def test_flip_bits_hits_largest_magnitude(self):
        arr = np.array([1.0, -8.0, 3.0])
        recs = abft.flip_bits([arr], rng=np.random.default_rng(0))
        assert len(recs) == 1
        ai, idx, bit, old, new = recs[0]
        assert (ai, idx) == (0, 1) and old == -8.0
        assert np.isfinite(new) and new != old
        assert bit in abft._FLIP_BITS

    def test_flip_skips_empty_and_non_float(self):
        assert abft.flip_bits([np.array([], dtype=np.float64),
                               np.array([1, 2], dtype=np.int64), None],
                              rng=np.random.default_rng(0)) == []

    def test_unarmed_seam_is_inert(self):
        arr = np.ones(4)
        assert abft.maybe_bitflip("lu", (arr,)) == 0
        assert np.all(arr == 1.0)

    def test_one_shot_and_rearm(self):
        _arm("lu", seed=5)
        arr = np.arange(1.0, 5.0)
        assert abft.maybe_bitflip("lu", (arr,)) == 1
        assert abft.maybe_bitflip("lu", (np.arange(1.0, 5.0),)) == 0
        abft.reset_bitflip_state()
        assert abft.maybe_bitflip("lu", (np.arange(1.0, 5.0),)) == 1

    def test_subdomain_scoping(self):
        _arm("lu", subdomain=2)
        assert abft.maybe_bitflip("lu", (np.ones(3),), subdomain=1) == 0
        assert abft.maybe_bitflip("lu", (np.ones(3),), subdomain=2) == 1

    def test_wrong_target_does_not_fire(self):
        _arm("schur")
        assert abft.maybe_bitflip("lu", (np.ones(3),)) == 0
        assert not abft.bitflip_armed("lu")
        assert abft.bitflip_armed("schur")

    def test_corrupt_shipped_value_deep_copies(self):
        payload = {"x": np.arange(1.0, 9.0), "meta": "keep"}
        seam = abft.BitflipSeam(target="transport", seed=0)
        clone = abft.corrupt_shipped_value(payload, seam)
        assert clone is not None
        assert np.array_equal(payload["x"], np.arange(1.0, 9.0))
        assert not np.array_equal(clone["x"], payload["x"])
        assert clone["meta"] == "keep"

    def test_corrupt_shipped_value_without_floats(self):
        seam = abft.BitflipSeam(target="transport", seed=0)
        assert abft.corrupt_shipped_value({"n": 3, "s": "x"}, seam) is None


# -- environment validation --------------------------------------------------

class TestEnvValidation:
    def test_bad_target_names_variable(self):
        os.environ[abft.ENV_BITFLIP_TARGET] = "ram"
        with pytest.raises(ValueError, match=abft.ENV_BITFLIP_TARGET):
            abft.validate_bitflip_env()

    @pytest.mark.parametrize("var", [abft.ENV_BITFLIP_COUNT,
                                     abft.ENV_BITFLIP_SEED,
                                     abft.ENV_BITFLIP_SUBDOMAIN])
    def test_non_integer_names_variable(self, var):
        os.environ[abft.ENV_BITFLIP_TARGET] = "lu"
        os.environ[var] = "many"
        with pytest.raises(ValueError, match=var):
            abft.validate_bitflip_env()

    def test_zero_count_rejected(self):
        os.environ[abft.ENV_BITFLIP_TARGET] = "lu"
        os.environ[abft.ENV_BITFLIP_COUNT] = "0"
        with pytest.raises(ValueError, match=abft.ENV_BITFLIP_COUNT):
            abft.validate_bitflip_env()

    def test_chaos_env_validation_covers_bitflip(self):
        os.environ[abft.ENV_BITFLIP_TARGET] = "everything"
        with pytest.raises(ValueError, match=abft.ENV_BITFLIP_TARGET):
            validate_chaos_env()

    def test_transport_checksum_env_validated(self):
        os.environ[ENV_TRANSPORT_CHECKSUM] = "yes"
        with pytest.raises(ValueError, match=ENV_TRANSPORT_CHECKSUM):
            transport_checksum_enabled()
        os.environ[ENV_TRANSPORT_CHECKSUM] = "0"
        assert transport_checksum_enabled() is False
        os.environ.pop(ENV_TRANSPORT_CHECKSUM)
        assert transport_checksum_enabled() is True

    def test_unset_seam_is_none(self):
        assert abft.bitflip_seam() is None
        abft.validate_bitflip_env()  # no-op, must not raise


# -- tolerance calibration on the robust suite -------------------------------

class TestRobustSuiteTolerances:
    """The ill-conditioned matrices must not false-positive at attach,
    verify, or solve-audit time — and flips must still be caught."""

    @pytest.mark.parametrize("name", robust_suite_names())
    def test_no_false_positive_on_factors(self, name):
        A = generate_robust(name, scale="tiny").A.tocsc()
        f = factorize(A, diag_pivot_thresh=0.01)
        cs = abft.attach_factor_checksums(f, A)
        audit = abft.verify_factors(f)
        assert audit.ok, f"{name}: {audit.detail}"
        rng = np.random.default_rng(0)
        b = rng.standard_normal(A.shape[0])
        f.solve(b)
        assert cs.violations == 0, cs.last_detail

    @pytest.mark.parametrize("name", robust_suite_names())
    def test_flip_detected_on_robust_factors(self, name):
        A = generate_robust(name, scale="tiny").A.tocsc()
        f = factorize(A, diag_pivot_thresh=0.01)
        abft.attach_factor_checksums(f, A)
        recs = abft.flip_bits([f.U.data], rng=np.random.default_rng(1))
        assert recs, "injector found nothing to flip"
        assert not abft.verify_factors(f).ok

    @pytest.mark.parametrize("backend", ["serial", "process:2"])
    def test_solve_clean_on_all_backends(self, backend):
        gm = generate_robust("graded.laplace", scale="tiny")
        A = gm.A.tocsr()
        rng = np.random.default_rng(0)
        b = rng.standard_normal(A.shape[0])
        tr = Tracer()
        solver = PDSLin(A, PDSLinConfig(k=2, seed=0, abft="detect"),
                        runtime=RuntimeOptions(tracer=tr, backend=backend))
        try:
            res = solver.solve(b)
        finally:
            if hasattr(solver.backend, "close"):
                solver.backend.close()
        assert res.converged
        assert tr.counters.get("sdc_checks", 0) > 0
        assert tr.counters.get("sdc_detected", 0) == 0
        assert not any(e.action.startswith("sdc-")
                       for e in res.recovery.events)


# -- Krylov drift audits -----------------------------------------------------

class TestKrylovDrift:
    def _system(self, n=80):
        rng = np.random.default_rng(7)
        A = sp.random(n, n, density=0.1, random_state=rng,
                      data_rvs=rng.standard_normal, format="csr")
        A = A + sp.eye(n, format="csr") * float(n)
        b = rng.standard_normal(n)
        return A, b

    def test_gmres_clean_run_audits_without_detection(self):
        A, b = self._system()
        tr = Tracer()
        res = gmres(lambda v: A @ v, b, tol=1e-10, restart=20, tracer=tr)
        assert res.converged
        assert res.drift_checks >= 1 and not res.drift_detected
        assert tr.counters["gmres_drift_checks"] == res.drift_checks
        assert tr.counters["gmres_drift_detected"] == 0



# -- sealed transport --------------------------------------------------------

def _ship_floats(payload):
    """Module-level task (process backends pickle it): returns a float
    array derived from the payload."""
    return np.full(6, float(payload) + 0.5)


class TestSealedTransport:
    def test_process_backend_catches_and_retries(self):
        _arm("transport", seed=0)
        with ProcessBackend(workers=2) as be:
            outcomes = be.map(_ship_floats, [1.0, 2.0, 3.0, 4.0])
        assert all(o.error is None for o in outcomes)
        for i, o in enumerate(outcomes):
            assert np.array_equal(o.value, np.full(6, i + 1.5))
        # one flip per worker process at most; at least one must fire
        assert sum(o.transport_retries for o in outcomes) >= 1

    def test_serial_backend_seals_when_seam_armed(self):
        _arm("transport", seed=0)
        outcomes = SerialBackend().map(_ship_floats, [1.0, 2.0])
        assert all(o.error is None for o in outcomes)
        assert np.array_equal(outcomes[0].value, np.full(6, 1.5))
        assert sum(o.transport_retries for o in outcomes) == 1

    def test_serial_backend_does_not_seal_unarmed(self):
        outcomes = SerialBackend().map(_ship_floats, [1.0])
        assert outcomes[0].transport_retries == 0
        assert np.array_equal(outcomes[0].value, np.full(6, 1.5))

    def test_disabled_checksum_accepts_corruption_silently(self):
        _arm("transport", seed=0)
        os.environ[ENV_TRANSPORT_CHECKSUM] = "0"
        outcomes = SerialBackend().map(_ship_floats, [1.0, 2.0])
        assert all(o.error is None for o in outcomes)
        assert all(o.transport_retries == 0 for o in outcomes)
        got = np.stack([o.value for o in outcomes])
        want = np.stack([np.full(6, 1.5), np.full(6, 2.5)])
        assert not np.array_equal(got, want)  # wrong and nobody noticed


# -- end-to-end drills -------------------------------------------------------

def _smoke_problem():
    gm = generate("tdr190k", scale="tiny")
    A = gm.A.tocsr()
    rng = np.random.default_rng(0)
    b = rng.standard_normal(A.shape[0])
    return A, b


def _drill_cfg(mode):
    # condest=False: the condition-driven Schur rebuild would otherwise
    # reassemble S after the injection point and heal the schur drills
    return PDSLinConfig(k=4, seed=0, rhs_ordering="hypergraph",
                        block_size=32, abft=mode, condest=False)


class TestEndToEndDrills:
    def test_bitflip_smoke_serial_all_targets(self):
        from repro import smoke
        run = smoke.run("bitflip", backend="serial")
        assert run.ok, run.checks

    def test_bitflip_smoke_process_backend(self):
        from repro import smoke
        from repro.parallel.exec import get_backend
        # a shared pool forked before the drill armed its seams must not
        # be the one the drill runs on
        get_backend("process:2").map(abs, [-1])
        run = smoke.run("bitflip", backend="process:2", targets=("lu",))
        assert run.ok, run.checks

    def test_detect_only_reports_without_repair(self):
        A, b = _smoke_problem()
        _arm("lu", seed=9, subdomain=1)
        tr = Tracer()
        # serial: a pooled backend forked before _arm would not see the
        # seam (the process leg is the ``repro.smoke bitflip`` drill's)
        res = PDSLin(A, _drill_cfg("detect"),
                     runtime=RuntimeOptions(tracer=tr,
                                            backend="serial")).solve(b)
        actions = [e.action for e in res.recovery.events]
        assert tr.counters.get("sdc_detected", 0) >= 1
        assert tr.counters.get("sdc_recovered", 0) == 0
        assert "sdc-detected" in actions
        assert "sdc-unrecoverable" in actions
        assert "sdc-recovered" not in actions
        assert res.degraded  # honesty: corruption reported, not repaired

    def test_recovered_solve_matches_fault_free_bits(self):
        A, b = _smoke_problem()
        ref = PDSLin(A, _drill_cfg("detect+recover")).solve(b)
        _arm("schur", seed=7, subdomain=1)
        tr = Tracer()
        res = PDSLin(A, _drill_cfg("detect+recover"),
                     runtime=RuntimeOptions(tracer=tr)).solve(b)
        assert tr.counters.get("sdc_recovered", 0) >= 1
        assert not res.degraded and res.certified
        assert res.x.tobytes() == ref.x.tobytes()

    def test_abft_modes_bit_identical_when_clean(self):
        A, b = _smoke_problem()
        xs = [PDSLin(A, _drill_cfg(mode)).solve(b).x.tobytes()
              for mode in abft.ABFT_MODES]
        assert xs[0] == xs[1] == xs[2]
