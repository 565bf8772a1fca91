"""Tests for the solver extensions: separator trimming and the
experiment CLI."""

import numpy as np
import pytest
import scipy.sparse as sp
from tests.conftest import grid_laplacian

from repro.core import build_dbbd, rhb_partition, trim_separator
from repro.graphs import nested_dissection_partition
from repro.solver import PDSLin, PDSLinConfig


class TestTrimSeparator:
    def test_never_grows_separator(self, grid16):
        r = nested_dissection_partition(grid16, 4, seed=0)
        before = int((r.part == -1).sum())
        out = trim_separator(grid16, r.part, 4)
        after = int((out == -1).sum())
        assert after <= before

    def test_result_still_valid_dbbd(self, grid16):
        r = nested_dissection_partition(grid16, 4, seed=1)
        out = trim_separator(grid16, r.part, 4)
        build_dbbd(grid16, out, 4)  # validates the invariant

    def test_trims_artificial_fat_separator(self):
        # two cliques joined by a path of 3 vertices; mark the whole
        # path as separator although one vertex suffices
        blocks = [np.ones((3, 3)), np.ones((3, 3))]
        A = sp.block_diag(blocks).tolil()
        # path: 2 - 6 - 7 - 8 - 3  (vertices 6,7,8 appended)
        n = 9
        A.resize((n, n))
        for a, b2 in ((2, 6), (6, 7), (7, 8), (8, 3)):
            A[a, b2] = 1.0
            A[b2, a] = 1.0
        A = sp.csr_matrix(A) + sp.eye(n)
        part = np.array([0, 0, 0, 1, 1, 1, -1, -1, -1])
        out = trim_separator(A.tocsr(), part, 2)
        assert int((out == -1).sum()) < 3
        build_dbbd(A.tocsr(), out, 2)

    def test_input_not_modified(self, grid16):
        r = nested_dissection_partition(grid16, 2, seed=0)
        snapshot = r.part.copy()
        trim_separator(grid16, r.part, 2)
        np.testing.assert_array_equal(r.part, snapshot)

    def test_rhb_partition_trimmable(self, grid16):
        r = rhb_partition(grid16, 4, seed=0)
        out = trim_separator(grid16, r.col_part, 4)
        assert int((out == -1).sum()) <= r.separator_size
        build_dbbd(grid16, out, 4)

    def test_pdslin_trim_option(self, rng):
        A = grid_laplacian(12, 12)
        b = rng.standard_normal(A.shape[0])
        res = PDSLin(A, PDSLinConfig(k=2, trim_separator=True,
                                     seed=0)).solve(b)
        assert res.residual_norm < 1e-8

    def test_wrong_length_rejected(self, grid8):
        with pytest.raises(ValueError):
            trim_separator(grid8, np.zeros(3, dtype=int), 2)


class TestCLI:
    def test_table1_runs(self, capsys, tmp_path):
        from repro.experiments.__main__ import main
        rc = main(["table1", "--scale", "tiny", "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "tdr190k" in out
        assert (tmp_path / "table1.txt").exists()

    def test_unknown_experiment_rejected(self):
        from repro.experiments.__main__ import main
        with pytest.raises(SystemExit):
            main(["fig99"])
