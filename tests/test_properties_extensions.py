"""Property-based tests for the extension modules (relaxed
supernodes, separator trimming)."""

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st

from repro.core import build_dbbd, trim_separator
from repro.graphs import nested_dissection_partition
from repro.lu import SupernodalLower, factorize, relaxed_supernodes


@st.composite
def spd_system(draw):
    n = draw(st.integers(5, 30))
    density = draw(st.floats(0.05, 0.3))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    A = sp.random(n, n, density, random_state=rng, format="csr")
    A = (A + A.T + n * sp.eye(n)).tocsc()
    return A, seed


class TestRelaxedSupernodeProperty:
    @given(spd_system(), st.floats(0.0, 0.9))
    @settings(max_examples=40, deadline=None)
    def test_solve_invariant_under_relaxation(self, system, relax):
        A, seed = system
        f = factorize(A, diag_pivot_thresh=0.0)
        sn = relaxed_supernodes(f.L, relax=relax)
        snl = SupernodalLower.from_csc(f.L, unit_diagonal=True, snodes=sn)
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((A.shape[0], 2))
        ref = spla.spsolve_triangular(f.L.tocsr(), X, lower=True,
                                      unit_diagonal=True)
        Y = X.copy()
        snl.solve_inplace(Y)
        np.testing.assert_allclose(Y, ref, atol=1e-9)


@st.composite
def partitioned_matrix(draw):
    nx = draw(st.integers(4, 9))
    ny = draw(st.integers(4, 9))
    k = draw(st.sampled_from([2, 4]))
    seed = draw(st.integers(0, 2**31 - 1))
    from tests.conftest import grid_laplacian
    A = grid_laplacian(nx, ny)
    r = nested_dissection_partition(A, k, seed=seed)
    return A, r.part, k


class TestTrimProperty:
    @given(partitioned_matrix())
    @settings(max_examples=25, deadline=None)
    def test_trim_preserves_invariant_and_shrinks(self, data):
        A, part, k = data
        out = trim_separator(A, part, k)
        assert int((out == -1).sum()) <= int((part == -1).sum())
        build_dbbd(A, out, k)  # must still be a valid DBBD
        # non-separator assignments never change
        moved = (part >= 0) & (out != part)
        assert not moved.any()
