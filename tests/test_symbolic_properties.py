"""Property tests (hypothesis) of the symbolic set-up kernels against
their *definitions* — the golden file (test_symbolic_golden.py) pins
the kernels to the old code's outputs, these pin them to what the
outputs mean, on random sparse patterns the golden cases never saw."""

import numpy as np
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from repro.lu import (
    SupernodalLower,
    detect_supernodes,
    factor_etree,
    reach,
    solution_pattern,
)
from repro.numerics.equilibrate import _row_abs_max
from repro.ordering import (
    children_lists,
    elimination_tree,
    etree_path_closure,
    first_descendants,
    minimum_degree,
    postorder,
    symbolic_cholesky_row_counts,
    tree_level,
)
from repro.utils import check_permutation
from repro.verify.oracles import dense_triangular_solve_oracle

# -- strategies ---------------------------------------------------------------


@st.composite
def lower_factor(draw, max_n=30):
    """Lower-triangular CSC with a full diagonal and an arbitrary strict
    lower pattern (LU-under-pivoting-like: no Cholesky structure, so
    columns do hit rows off their first-parent path), some explicit
    zeros among the stored values."""
    n = draw(st.integers(1, max_n))
    density = draw(st.floats(0.0, 0.5))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    S = sp.tril(sp.random(n, n, density, random_state=rng), -1, format="csc")
    S.data = rng.uniform(-1.0, 1.0, S.nnz)
    S.data[rng.random(S.nnz) < 0.1] = 0.0
    L = (S + sp.diags(rng.uniform(1.0, 2.0, n))).tocsc()
    L.sort_indices()
    return L


@st.composite
def supernodal_factor(draw):
    """A factor with real supernodes: dense diagonal blocks of random
    widths whose columns share one below-block row set."""
    widths = draw(st.lists(st.integers(1, 7), min_size=1, max_size=6))
    n = sum(widths)
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    P = np.eye(n, dtype=bool)
    c0 = 0
    for w in widths:
        c1 = c0 + w
        P[c0:c1, c0:c1] |= np.tril(np.ones((w, w), dtype=bool))
        P[c1:, c0:c1] |= (rng.random(n - c1) < 0.3)[:, None]
        c0 = c1
    L = sp.csc_matrix(np.where(P, rng.uniform(0.5, 1.5, (n, n)), 0.0))
    L.sort_indices()
    return L


@st.composite
def parent_forest(draw, max_n=40):
    """A random forest under a random relabelling (parents need not be
    numbered above their children)."""
    n = draw(st.integers(1, max_n))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    par = np.array([-1 if v == 0 or rng.random() < 0.1
                    else int(rng.integers(0, v)) for v in range(n)])
    relabel = rng.permutation(n)
    out = np.empty(n, dtype=np.int64)
    out[relabel] = np.where(par >= 0, relabel[np.maximum(par, 0)], -1)
    return out


def _ancestors(parent, v):
    """Proper ancestors of ``v``, nearest first."""
    out = []
    v = parent[v]
    while v != -1:
        out.append(int(v))
        v = parent[v]
    return out


def _subtree_sets(parent):
    n = len(parent)
    desc = [{v} for v in range(n)]
    for v in range(n):
        for a in _ancestors(parent, v):
            desc[a].add(v)
    return desc


# -- e-tree of a factor and its fill-path closure -----------------------------

class TestFactorEtree:
    @given(lower_factor())
    @settings(max_examples=80, deadline=None)
    def test_ancestor_guarantee(self, L):
        """Every stored L[i, j], i > j, has i among j's ancestors, and
        the tree is a forest numbered upward."""
        par = factor_etree(L)
        n = L.shape[0]
        assert np.all((par == -1) | (par > np.arange(n)))
        Lc = L.tocoo()
        for i, j in zip(Lc.row.tolist(), Lc.col.tolist()):
            if i > j:
                assert i in _ancestors(par, j)

    @given(lower_factor())
    @settings(max_examples=60, deadline=None)
    def test_is_the_smallest_such_tree(self, L):
        """parent[j] is the least vertex the pattern forces above j:
        the smallest row index reachable below any column of j's
        subtree (Liu's characterisation), so no edge is gratuitous."""
        par = factor_etree(L)
        n = L.shape[0]
        stored = L.copy()            # stored entries, zeros included
        stored.data[:] = 1.0
        Ld = stored.toarray() != 0
        desc = _subtree_sets(par)
        for j in range(n):
            above = [i for d in desc[j] for i in np.flatnonzero(Ld[:, d])
                     if i > j]
            assert par[j] == (min(above) if above else -1)

    @given(lower_factor(), st.integers(0, 2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_closure_is_union_of_root_paths_and_covers_reach(self, L, seed):
        n = L.shape[0]
        B = sp.random(n, 5, 0.3, random_state=seed, format="csc")
        par = factor_etree(L)
        G = solution_pattern(L, B, method="etree").tocsc()
        G.sort_indices()
        assert G.shape == (n, 5) and G.has_canonical_format
        for j in range(5):
            supp = B.indices[B.indptr[j]:B.indptr[j + 1]]
            paths = set()
            for s in supp.tolist():
                paths.add(s)
                paths.update(_ancestors(par, s))
            got = G.indices[G.indptr[j]:G.indptr[j + 1]].tolist()
            assert got == sorted(paths)
            assert set(reach(L, supp).tolist()) <= paths
            np.testing.assert_array_equal(
                etree_path_closure(par, supp), sorted(paths))


# -- e-tree of a symmetric pattern and its traversals -------------------------

class TestTreeKernels:
    @given(st.integers(1, 25), st.floats(0.0, 0.5), st.integers(0, 2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_elimination_tree_is_etree_of_symbolic_cholesky(self, n, density,
                                                            seed):
        """parent[j] = first below-diagonal nonzero of column j of the
        symbolic Cholesky factor, computed here by dense elimination;
        the row counts are that factor's row counts."""
        R = sp.random(n, n, density, random_state=seed, format="csr")
        A = (R + R.T + sp.identity(n)).tocsr()
        F = A.toarray() != 0
        for k in range(n):
            below = np.flatnonzero(F[k + 1:, k]) + k + 1
            F[np.ix_(below, below)] = True
        want = [int(np.flatnonzero(F[j + 1:, j])[0]) + j + 1
                if F[j + 1:, j].any() else -1 for j in range(n)]
        par = elimination_tree(A)
        assert par.tolist() == want
        np.testing.assert_array_equal(
            symbolic_cholesky_row_counts(A, par), np.tril(F).sum(axis=1))

    @given(parent_forest())
    @settings(max_examples=80, deadline=None)
    def test_postorder_subtrees_are_contiguous(self, par):
        n = len(par)
        po = postorder(par)
        check_permutation(po, n)
        pos = np.empty(n, dtype=np.int64)
        pos[po] = np.arange(n)
        desc = _subtree_sets(par)
        kids = children_lists(par)
        for v in range(n):
            where = sorted(int(pos[d]) for d in desc[v])
            # contiguous range ending at the subtree's root
            assert where == list(range(pos[v] - len(where) + 1, pos[v] + 1))
            # children in ascending original index
            assert kids[v] == sorted(c for c in range(n) if par[c] == v)
            assert [pos[c] for c in kids[v]] == sorted(pos[c] for c in kids[v])

    @given(parent_forest())
    @settings(max_examples=60, deadline=None)
    def test_levels_and_first_descendants(self, par):
        desc = _subtree_sets(par)
        assert tree_level(par).tolist() == \
            [len(_ancestors(par, v)) for v in range(len(par))]
        assert first_descendants(par).tolist() == [min(d) for d in desc]

    def test_first_descendants_long_root_first_chain(self):
        """Linear time on the numbering the old repeat-until-stable
        sweep was quadratic on (20 000 sweeps of 20 000 nodes)."""
        n = 20_000
        par = np.r_[-1, np.arange(n - 1)]
        assert first_descendants(par).tolist() == list(range(n))


# -- minimum degree -----------------------------------------------------------

class TestMinimumDegree:
    @given(st.integers(0, 30), st.floats(0.0, 0.6), st.integers(0, 2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_greedy_on_exact_minimum_for_first_pick(self, n, density, seed):
        """A permutation whose first pivot has the true minimum degree,
        lowest index on ties (later picks use the approximate degree)."""
        A = sp.random(n, n, density, random_state=seed, format="csr")
        order = minimum_degree(A)
        check_permutation(order, n)
        if n:
            P = (A + A.T).toarray() != 0
            np.fill_diagonal(P, False)
            assert order[0] == int(np.argmin(P.sum(axis=1)))


# -- supernodes and the dense repack ------------------------------------------

def _follows(L, j):
    """Column j has exactly column j-1's structure minus its first row."""
    prev = L.indices[L.indptr[j - 1]:L.indptr[j]]
    cur = L.indices[L.indptr[j]:L.indptr[j + 1]]
    return prev.size == cur.size + 1 and np.array_equal(prev[1:], cur)


class TestSupernodes:
    @given(st.one_of(supernodal_factor(), lower_factor()),
           st.integers(1, 9))
    @settings(max_examples=100, deadline=None)
    def test_ranges_are_maximal_under_max_size(self, L, max_size):
        n = L.shape[0]
        sn = detect_supernodes(L, max_size=max_size)
        assert sn[0][0] == 0 and sn[-1][1] == n
        for (a, b), nxt in zip(sn, sn[1:] + [None]):
            assert 0 < b - a <= max_size
            assert all(_follows(L, j) for j in range(a + 1, b))
            if nxt is not None:
                assert nxt[0] == b
                # the range stopped for a reason: full, or b breaks it
                assert b - a == max_size or not _follows(L, b)

    @given(st.one_of(supernodal_factor(), lower_factor()), st.booleans(),
           st.sampled_from(["strict", "max3"]),
           st.integers(0, 2**31 - 1))
    @settings(max_examples=100, deadline=None)
    def test_repack_is_the_matrix_and_solves_it(self, L, unit, how, seed):
        n = L.shape[0]
        snl = SupernodalLower.from_csc(
            L, unit_diagonal=unit, max_supernode=3 if how == "max3" else 64)
        # the blocks, scattered back, are exactly L (unit diagonal: 1s)
        dense = np.zeros((n, n))
        for (c0, c1), D, rows, Bm in zip(snl.snodes, snl.diag_blocks,
                                         snl.below_rows, snl.below_blocks):
            assert D.flags.c_contiguous and Bm.flags.c_contiguous
            assert rows.dtype == np.int64
            assert np.all(np.diff(rows) > 0) and np.all(rows >= c1)
            dense[c0:c1, c0:c1] = D
            dense[rows, c0:c1] = Bm
        want = L.toarray()
        if unit:
            np.fill_diagonal(want, 1.0)
        np.testing.assert_array_equal(dense, want)
        assert snl.nnz == L.nnz
        X = np.random.default_rng(seed).standard_normal((n, 3))
        Y = X.copy()
        snl.solve_inplace(Y)
        np.testing.assert_allclose(
            Y, dense_triangular_solve_oracle(want, X), rtol=1e-8, atol=1e-8)


# -- row maxima ---------------------------------------------------------------

class TestRowAbsMax:
    @given(st.integers(0, 20), st.integers(0, 20), st.floats(0.0, 0.6),
           st.integers(0, 2**31 - 1))
    @settings(max_examples=100, deadline=None)
    def test_equals_dense_definition(self, n_rows, n_cols, density, seed):
        rng = np.random.default_rng(seed)
        A = sp.random(n_rows, n_cols, density, random_state=rng,
                      format="csr")
        A.data = rng.standard_normal(A.nnz) * 10.0 ** rng.integers(-8, 8,
                                                                    A.nnz)
        A.data[rng.random(A.nnz) < 0.1] = 0.0     # stored zeros
        got = _row_abs_max(A)
        want = (np.abs(A.toarray()).max(axis=1) if n_cols
                else np.zeros(n_rows))
        np.testing.assert_array_equal(got, want)
        assert got.dtype == np.float64 and got.shape == (n_rows,)
