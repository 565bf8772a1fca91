"""Checkpoint/restart + deadline tests: shard integrity, identity
fingerprints, resume parity across backends, the SIGTERM snapshot path,
straggler mitigation, and env validation."""

from __future__ import annotations

import io
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from tests.conftest import grid_laplacian

from repro.obs import Tracer
from repro.parallel.exec import (
    ProcessBackend,
    get_backend,
    resolve_backend,
)
from repro.resilience.checkpoint import (
    MANIFEST_NAME,
    CheckpointError,
    CheckpointManager,
    config_fingerprint,
    load_checkpoint,
    matrix_fingerprint,
    pack_sparse,
    truncate_checkpoint,
    unpack_sparse,
)
from repro.solver import PDSLin, PDSLinConfig, RuntimeOptions
from repro.solver.partasks import (
    ENV_CRASH_SUBDOMAIN,
    ENV_STRAGGLE_S,
    ENV_STRAGGLE_SUBDOMAIN,
    validate_chaos_env,
)

REPO_ROOT = Path(__file__).resolve().parents[1]


def _cfg(**kw) -> PDSLinConfig:
    kw.setdefault("k", 4)
    kw.setdefault("block_size", 16)
    kw.setdefault("seed", 0)
    return PDSLinConfig(**kw)


def _rhs(A, seed=0):
    return np.random.default_rng(seed).standard_normal(A.shape[0])


def _bound_manager(tmp_path) -> CheckpointManager:
    m = CheckpointManager(tmp_path)
    m.bind(matrix_fp="a" * 32, config_fp="b" * 32, k=2, seed=0)
    return m


# ---------------------------------------------------------------------------
# shard packing + manager mechanics
# ---------------------------------------------------------------------------

class TestShardFormat:
    def test_sparse_round_trip(self):
        A = grid_laplacian(8, 8).tocsr()
        out = {}
        pack_sparse(out, "A", A)
        buf = io.BytesIO()
        np.savez(buf, **out)
        buf.seek(0)
        B = unpack_sparse(np.load(buf), "A").tocsr()
        assert (A != B).nnz == 0
        assert A.dtype == B.dtype

    def test_fingerprints_sensitive_to_content(self):
        A = grid_laplacian(8, 8)
        B = A.copy()
        B[0, 0] += 1e-12
        assert matrix_fingerprint(A) == matrix_fingerprint(A.copy())
        assert matrix_fingerprint(A) != matrix_fingerprint(B.tocsr())
        assert config_fingerprint(_cfg()) == config_fingerprint(_cfg())
        assert config_fingerprint(_cfg()) != config_fingerprint(
            _cfg(drop_schur=0.123))

    def test_manager_requires_bind(self, tmp_path):
        m = CheckpointManager(tmp_path)
        with pytest.raises(CheckpointError, match="bind"):
            m.register_partition(np.zeros(4, dtype=np.int64))

    def test_registration_is_idempotent(self, tmp_path):
        m = _bound_manager(tmp_path)
        m.register_subdomain(0, {"x": np.arange(3.0)})
        # already on disk: the thunk must never be evaluated
        m.register_subdomain(0, lambda: pytest.fail("thunk evaluated"))
        st = load_checkpoint(tmp_path)
        assert st.subdomains_done == [0]


# ---------------------------------------------------------------------------
# integrity + identity validation
# ---------------------------------------------------------------------------

class TestIntegrity:
    def _write_one(self, tmp_path):
        m = _bound_manager(tmp_path)
        m.register_partition(np.zeros(4, dtype=np.int64))
        m.register_subdomain(0, {"x": np.arange(5.0)})
        m.snapshot()

    def test_corrupt_shard_detected(self, tmp_path):
        self._write_one(tmp_path)
        shard = tmp_path / "sub_0000.npz"
        raw = bytearray(shard.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        shard.write_bytes(bytes(raw))
        st = load_checkpoint(tmp_path)
        with pytest.raises(CheckpointError, match="integrity"):
            st.load_shard("sub_0000")

    def test_missing_shard_detected(self, tmp_path):
        self._write_one(tmp_path)
        st = load_checkpoint(tmp_path)
        with pytest.raises(CheckpointError, match="no shard"):
            st.load_shard("sub_0001")

    def test_truncated_manifest_detected(self, tmp_path):
        self._write_one(tmp_path)
        mpath = tmp_path / MANIFEST_NAME
        mpath.write_text(mpath.read_text()[:40])
        with pytest.raises(CheckpointError, match="truncated or corrupt"):
            load_checkpoint(tmp_path)

    def test_missing_manifest_key_detected(self, tmp_path):
        self._write_one(tmp_path)
        mpath = tmp_path / MANIFEST_NAME
        manifest = json.loads(mpath.read_text())
        del manifest["shards"]
        mpath.write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError, match="missing 'shards'"):
            load_checkpoint(tmp_path)

    def test_version_mismatch_detected(self, tmp_path):
        self._write_one(tmp_path)
        mpath = tmp_path / MANIFEST_NAME
        manifest = json.loads(mpath.read_text())
        manifest["version"] = 99
        mpath.write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(tmp_path)

    def test_identity_mismatches_refused(self, tmp_path):
        self._write_one(tmp_path)
        load_checkpoint(tmp_path, matrix_fp="a" * 32,
                        config_fp="b" * 32, k=2)  # the right identity
        with pytest.raises(CheckpointError, match="different matrix"):
            load_checkpoint(tmp_path, matrix_fp="f" * 32)
        with pytest.raises(CheckpointError, match="different solver config"):
            load_checkpoint(tmp_path, config_fp="f" * 32)
        with pytest.raises(CheckpointError, match="k=3"):
            load_checkpoint(tmp_path, k=3)

    def test_resume_with_wrong_matrix_refused(self, tmp_path, grid16):
        b = _rhs(grid16)
        PDSLin(grid16, _cfg(),
               runtime=RuntimeOptions(checkpoint=tmp_path)).solve(b)
        other = grid_laplacian(16, 16, diag=5.0)
        with pytest.raises(CheckpointError, match="different matrix"):
            PDSLin(other, _cfg(),
                   runtime=RuntimeOptions(resume=tmp_path)).solve(_rhs(other))


# ---------------------------------------------------------------------------
# end-to-end checkpoint + resume parity
# ---------------------------------------------------------------------------

class TestResumeParity:
    def test_checkpointed_solve_writes_full_manifest(self, tmp_path,
                                                     grid16):
        tracer = Tracer()
        rt = RuntimeOptions(tracer=tracer, checkpoint=tmp_path)
        res = PDSLin(grid16, _cfg(), runtime=rt).solve(_rhs(grid16))
        assert res.converged
        st = load_checkpoint(tmp_path)
        assert st.partition_done
        assert st.subdomains_done == [0, 1, 2, 3]
        assert st.schur_done
        assert tracer.counters["checkpoint_shards_written"] == 6
        # checkpointing never changes the answer
        ref = PDSLin(grid16, _cfg()).solve(_rhs(grid16))
        assert res.x.tobytes() == ref.x.tobytes()

    @pytest.mark.parametrize("backend", ["serial", "process:2"])
    def test_truncated_resume_bit_identical(self, tmp_path, grid16,
                                            backend):
        b = _rhs(grid16)
        ref = PDSLin(grid16, _cfg(),
                     runtime=RuntimeOptions(backend="serial")).solve(b)
        PDSLin(grid16, _cfg(),
               runtime=RuntimeOptions(backend=backend,
                                      checkpoint=tmp_path)).solve(b)
        truncate_checkpoint(tmp_path, 2)
        st = load_checkpoint(tmp_path)
        assert st.subdomains_done == [0, 1]
        assert not st.schur_done
        tracer = Tracer()
        rt = RuntimeOptions(backend=backend, resume=tmp_path,
                            checkpoint=tmp_path, tracer=tracer)
        res = PDSLin(grid16, _cfg(), runtime=rt).solve(b)
        assert res.x.tobytes() == ref.x.tobytes()
        assert res.iterations == ref.iterations
        # only the unfinished half was refactored
        assert tracer.counters["checkpoint_subdomains_restored"] == 2
        assert tracer.span_count("factor_subdomain") == 2
        # accuracy certificate survives the restore byte for byte
        assert (res.accuracy is None) == (ref.accuracy is None)
        if res.accuracy is not None:
            assert res.accuracy.to_dict() == ref.accuracy.to_dict()

    def test_full_resume_refactors_nothing(self, tmp_path, grid16):
        b = _rhs(grid16)
        ref = PDSLin(grid16, _cfg(),
                     runtime=RuntimeOptions(checkpoint=tmp_path)).solve(b)
        tracer = Tracer()
        res = PDSLin(grid16, _cfg(),
                     runtime=RuntimeOptions(resume=tmp_path, tracer=tracer,
                                            checkpoint=tmp_path)).solve(b)
        assert res.x.tobytes() == ref.x.tobytes()
        assert tracer.counters["checkpoint_subdomains_restored"] == 4
        assert tracer.counters["checkpoint_schur_restored"] == 1
        assert tracer.counters["checkpoint_partition_restored"] == 1
        assert tracer.span_count("factor_subdomain") == 0

    def test_update_matrix_invalidates_resume_state(self, tmp_path,
                                                    grid16):
        b = _rhs(grid16)
        solver = PDSLin(grid16, _cfg(),
                        runtime=RuntimeOptions(checkpoint=tmp_path))
        solver.solve(b)
        other = grid_laplacian(16, 16, diag=5.0)
        solver.update_matrix(other)
        res = solver.solve(_rhs(other))
        ref = PDSLin(other, _cfg()).solve(_rhs(other))
        assert res.x.tobytes() == ref.x.tobytes()
        # the checkpoint now carries the new matrix's identity
        load_checkpoint(tmp_path, matrix_fp=matrix_fingerprint(other))


# ---------------------------------------------------------------------------
# the SIGTERM snapshot path
# ---------------------------------------------------------------------------

_SIGTERM_SCRIPT = """
import os, signal
import numpy as np
from repro.resilience.checkpoint import CheckpointManager
m = CheckpointManager({directory!r})
m.bind(matrix_fp="a" * 32, config_fp="b" * 32, k=2, seed=0)
m.register_partition(np.zeros(4, dtype=np.int64))
m.arm()
os.kill(os.getpid(), signal.SIGTERM)
raise SystemExit(3)  # unreachable: the re-delivered signal kills us
"""


class TestSigtermSnapshot:
    def test_armed_handler_snapshots_then_dies_by_signal(self, tmp_path):
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        proc = subprocess.run(
            [sys.executable, "-c",
             _SIGTERM_SCRIPT.format(directory=str(tmp_path))],
            env=env, capture_output=True, timeout=120)
        assert proc.returncode == -signal.SIGTERM, proc.stderr.decode()
        # the partition shard is flushed by no subdomain registration:
        # only the signal handler can have put it on disk
        st = load_checkpoint(tmp_path)
        assert st.partition_done
        assert st.subdomains_done == []

    @pytest.mark.slow
    def test_restart_smoke_kill_and_resume(self, tmp_path):
        from repro import smoke
        rec = smoke.run("restart", backend="serial",
                        directory=str(tmp_path / "ckpt"))
        assert rec.ok, rec


# ---------------------------------------------------------------------------
# deadlines
# ---------------------------------------------------------------------------

def _sleep_payload(payload):
    time.sleep(payload)
    return payload


class TestDeadlines:
    def test_deadline_times_out_stragglers_only(self):
        before = set(multiprocessing.active_children())
        backend = ProcessBackend(workers=2)
        try:
            out = backend.map(_sleep_payload, [0.01, 2.0], deadline_s=0.5)
            assert out[0].ok and out[0].value == 0.01
            assert out[1].timed_out and not out[1].ok
            assert out[1].value is None
            # a deadline kills the straggler's worker: nothing this
            # backend started outlives the timed-out map
            assert not set(multiprocessing.active_children()) - before
            # and the backend serves the next map from a fresh pool
            again = backend.map(_sleep_payload, [0.01, 0.02])
            assert [o.value for o in again] == [0.01, 0.02]
        finally:
            backend.close()

    @pytest.mark.slow
    def test_straggler_smoke_drill(self):
        from repro import smoke
        run = smoke.run("stragglers")
        assert run.ok, run.checks


# ---------------------------------------------------------------------------
# env validation + shutdown escalation
# ---------------------------------------------------------------------------

def _ignore_sigterm_and_report_pid(_):
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    return os.getpid()


class TestEnvValidation:
    def test_workers_must_parse(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "abc")
        with pytest.raises(ValueError, match="REPRO_WORKERS"):
            get_backend("process", fresh=True)
        monkeypatch.setenv("REPRO_WORKERS", "0")
        with pytest.raises(ValueError, match="REPRO_WORKERS"):
            get_backend("process", fresh=True)

    def test_mp_start_must_be_available(self, monkeypatch):
        monkeypatch.setenv("REPRO_MP_START", "bogus")
        with pytest.raises(ValueError, match="REPRO_MP_START"):
            ProcessBackend(workers=1)

    def test_backend_env_named_in_error(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "bogus")
        with pytest.raises(ValueError, match="REPRO_BACKEND"):
            resolve_backend(None)

    @pytest.mark.parametrize("var", [ENV_CRASH_SUBDOMAIN,
                                     ENV_STRAGGLE_SUBDOMAIN])
    def test_chaos_subdomain_vars_validated(self, monkeypatch, var):
        monkeypatch.setenv(var, "notanint")
        with pytest.raises(ValueError, match=var):
            validate_chaos_env()
        monkeypatch.setenv(var, "-1")
        with pytest.raises(ValueError, match=var):
            validate_chaos_env()

    def test_chaos_straggle_seconds_validated(self, monkeypatch):
        monkeypatch.setenv(ENV_STRAGGLE_S, "fast")
        with pytest.raises(ValueError, match=ENV_STRAGGLE_S):
            validate_chaos_env()
        monkeypatch.setenv(ENV_STRAGGLE_S, "-1")
        with pytest.raises(ValueError, match=ENV_STRAGGLE_S):
            validate_chaos_env()


class TestShutdownEscalation:
    def test_kill_escalation_reaps_sigterm_immune_worker(self,
                                                         monkeypatch):
        backend = ProcessBackend(workers=1)
        monkeypatch.setattr(backend, "_join_grace_s", 0.25)
        [out] = backend.map(_ignore_sigterm_and_report_pid, [None])
        pid = out.value
        assert pid and pid != os.getpid()
        backend.close()
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)
