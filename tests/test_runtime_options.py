"""Tests for the consolidated runtime-options API surface:
RuntimeOptions (the only carrier of runtime knobs), BlockResult list
compatibility, and the repro.solve / repro.serve entry points."""

import dataclasses
import warnings

import numpy as np
import pytest

import repro
from repro.matrices import generate
from repro.obs.tracer import Tracer
from repro.solver import (
    BlockResult,
    PDSLin,
    PDSLinConfig,
    PDSLinResult,
    RuntimeOptions,
)


@pytest.fixture(scope="module")
def system():
    gm = generate("tdr190k", "tiny")
    rng = np.random.default_rng(0)
    return gm.A, rng.standard_normal(gm.A.shape[0])


def _cfg():
    return PDSLinConfig(k=4, seed=0)


#: Runtime fields deleted for want of a benefit (README migration notes).
REMOVED_RUNTIME_FIELDS = ("retry_policy", "checkpoint_policy", "speculation")


class TestRuntimeOptions:
    def test_runtime_keyword_emits_no_warning(self, system):
        A, b = system
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            solver = PDSLin(A, _cfg(),
                            runtime=RuntimeOptions(tracer=Tracer()))
            assert solver.solve(b).converged

    @pytest.mark.parametrize("name", RuntimeOptions.field_names()
                             + REMOVED_RUNTIME_FIELDS)
    def test_legacy_kwarg_is_a_type_error(self, system, name):
        # the per-knob keyword shims are gone: runtime= is the only way
        # in; the deleted runtime fields are refused everywhere
        A, _ = system
        with pytest.raises(TypeError, match=name):
            PDSLin(A, _cfg(), **{name: None})
        if name in REMOVED_RUNTIME_FIELDS:
            with pytest.raises(TypeError, match=name):
                RuntimeOptions(**{name: None})

    def test_every_legacy_kwarg_is_a_runtime_field(self):
        assert set(RuntimeOptions.field_names()) == {
            "tracer", "backend", "verify", "fault_plan", "checkpoint",
            "resume", "task_deadline_s"}

    def test_runtime_options_are_reusable(self, system):
        A, b = system
        rt = RuntimeOptions(backend="serial")
        r1 = PDSLin(A, _cfg(), runtime=rt).solve(b)
        r2 = PDSLin(A, _cfg(), runtime=rt).solve(b)
        assert r1.x.tobytes() == r2.x.tobytes()

    def test_invalid_deadline_still_rejected(self, system):
        A, _ = system
        for deadline in (-1.0, 0.0, float("nan"), float("inf"),
                         -float("inf")):
            with pytest.raises(ValueError, match="task_deadline_s"):
                PDSLin(A, _cfg(),
                       runtime=RuntimeOptions(task_deadline_s=deadline))


class TestBlockResult:
    @pytest.fixture(scope="class")
    def block(self, system):
        A, _ = system
        rng = np.random.default_rng(1)
        B = rng.standard_normal((A.shape[0], 3))
        solver = PDSLin(A, _cfg())
        return solver.solve_block(B), B

    def test_is_sequence_of_results(self, block):
        blk, B = block
        assert len(blk) == 3
        assert all(isinstance(r, PDSLinResult) for r in blk)
        assert isinstance(blk[0], PDSLinResult)
        assert isinstance(blk[1:], list)

    def test_list_equality_preserved(self, block):
        blk, _ = block
        assert blk == list(blk)
        assert blk == blk
        assert not (blk == ["something else"])

    def test_unpacking_and_comprehensions(self, block):
        blk, _ = block
        first, *rest = blk
        assert isinstance(first, PDSLinResult) and len(rest) == 2
        assert [r.converged for r in blk] == [True, True, True]

    def test_X_matches_columns(self, block):
        blk, B = block
        assert blk.X.shape == B.shape
        for j, r in enumerate(blk):
            assert np.array_equal(blk.X[:, j], r.x)

    def test_aggregates(self, block):
        blk, _ = block
        assert blk.converged and blk.nrhs == 3
        assert blk.residual_norms == [r.residual_norm for r in blk]
        assert blk.degraded == any(r.degraded for r in blk)

    def test_aggregate_accuracy_is_worst_column(self, block):
        blk, _ = block
        accs = [r.accuracy for r in blk]
        assert all(a is not None for a in accs)
        agg = blk.accuracy
        assert agg.berr == max(a.berr for a in accs)
        assert agg.certified == all(a.certified for a in accs)

    def test_empty_block(self, system):
        A, _ = system
        blk = PDSLin(A, _cfg()).solve_block(
            np.empty((A.shape[0], 0)))
        assert len(blk) == 0 and blk == []
        assert blk.X.shape == (A.shape[0], 0)
        assert blk.accuracy is None

    def test_solve_multiple_returns_block_result(self, system):
        A, _ = system
        rng = np.random.default_rng(2)
        B = rng.standard_normal((A.shape[0], 2))
        blk = PDSLin(A, _cfg()).solve_block(B)
        assert isinstance(blk, BlockResult) and len(blk) == 2


class TestTopLevelAPI:
    def test_solve_matches_class_api(self, system):
        A, b = system
        r = repro.solve(A, b, k=4, seed=0)
        ref = PDSLin(A, _cfg()).solve(b)
        assert r.x.tobytes() == ref.x.tobytes()

    def test_solve_block_path(self, system):
        A, _ = system
        rng = np.random.default_rng(3)
        B = rng.standard_normal((A.shape[0], 2))
        blk = repro.solve(A, B, k=4, seed=0)
        assert isinstance(blk, BlockResult) and blk.converged

    def test_option_routing(self, system):
        A, b = system
        # k -> config, backend -> runtime, both loose
        r = repro.solve(A, b, k=4, seed=0, backend="serial")
        assert r.converged

    def test_unknown_option_rejected(self, system):
        A, b = system
        with pytest.raises(TypeError, match="bogus"):
            repro.solve(A, b, bogus=1)

    def test_conflicting_config_rejected(self, system):
        A, b = system
        with pytest.raises(TypeError, match="config="):
            repro.solve(A, b, config=_cfg(), k=8)
        with pytest.raises(TypeError, match="runtime="):
            repro.solve(A, b, runtime=RuntimeOptions(), backend="serial")

    def test_serve_round_trip(self, system):
        A, b = system
        with repro.serve(config=_cfg()) as svc:
            assert svc.solve(A, b).converged
        assert svc.closed

    def test_config_runtime_split_is_exhaustive(self):
        """No field name may ever live in both dataclasses — routing
        by name depends on it."""
        cfg_fields = {f.name for f in dataclasses.fields(PDSLinConfig)}
        overlap = cfg_fields & set(RuntimeOptions.field_names())
        assert not overlap
