#!/usr/bin/env python
"""Record golden digests of the symbolic set-up kernels.

The ordering / e-tree / solution-pattern / supernodal-repack kernels
carry an *identical-output* contract: a rewrite for speed must return
the same permutations, parent arrays, ``G`` patterns, supernode ranges,
dense blocks and scalings, bit for bit, because everything downstream
(``S~``, ``x``, every deterministic counter) is a function of them.
This script runs every such kernel on a fixed set of inputs and writes
one blake2b digest per call to ``tests/data/symbolic_golden.json``;
``tests/test_symbolic_golden.py`` recomputes the same calls and
compares.

Regenerate the file only from a commit whose kernels are known good
(the file in the repo was recorded from the commit *before* the
array-native rewrite), never to make a failing test pass::

    PYTHONPATH=src python tools/record_symbolic_golden.py

The ``solve/`` and ``ladder/`` groups extend the same contract from
kernels to solver behaviour (answers; recovery logs under faults), the
``partition/`` groups to the multilevel bisectors (RHB / NGD partition
vectors, the exact-quota column order, and matching / contraction / net
splitting / FM level by level). Each was recorded later, from the
commit before the refactor it guards (``--groups PREFIX --commit SHA``;
see ``recorded_from_groups`` in the file).

Each row is ``[case id, digest of the inputs, digest of the output]``
in pipeline order. Later inputs are built from earlier outputs (a
factor ``L`` depends on the ordering that produced it), and SuperLU /
BLAS values may differ between hosts, so the test only holds an output
to the golden digest when the input digest matches, and tells a changed
kernel (input equal, output not) from a changed host (input differs
under another numpy/scipy/CPU stamp).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
import tempfile
from collections import Counter
from contextlib import contextmanager
from dataclasses import replace
from functools import partial
from pathlib import Path

if __package__ in (None, ""):
    # allow running as a plain script: put src/ on the path
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np
import scipy
import scipy.sparse as sp

import repro.solver.pdslin as pdslin_module
from repro.core.dbbd import build_dbbd
from repro.core.rhb import rhb_partition
from repro.core.rhs_reorder import hypergraph_column_order
from repro.graphs import (
    Graph,
    compute_gains,
    contract,
    fm_refine_bisection,
    heavy_edge_matching,
    nested_dissection_partition,
)
from repro.hypergraph import (
    BisectionSplit,
    Hypergraph,
    contract_hypergraph,
    fm_refine_hypergraph,
    heavy_connectivity_matching,
    split_by_side,
)
from repro.lu import (
    SupernodalLower,
    detect_supernodes,
    factor_etree,
    factorize,
    relaxed_supernodes,
    solution_pattern,
)
from repro.matrices import SUITE, generate
from repro.numerics.equilibrate import _row_abs_max, ruiz_equilibrate
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
from repro.obs.tracer import Tracer
from repro.parallel.exec import get_backend
from repro.resilience import FaultPlan, FaultSpec, SolverError, abft
from repro.smoke import chaos_seams
from repro.solver import PDSLin, PDSLinConfig, RuntimeOptions
from repro.solver.interfaces import extract_interfaces
from repro.solver.partasks import (
    ENV_CRASH_SUBDOMAIN,
    ENV_STRAGGLE_S,
    ENV_STRAGGLE_SUBDOMAIN,
)
from repro.sparse import symmetrized
from repro.sparse.structural import edge_incidence_factor
from repro.utils.multilevel import Level

GOLDEN_PATH = Path(__file__).resolve().parent.parent / \
    "tests" / "data" / "symbolic_golden.json"

SMALL_MATRICES = ("tdr190k", "G3_circuit", "ASIC_680ks")
E2E_MATRICES = ("tdr190k", "matrix211")


# -- digests -----------------------------------------------------------------

def _feed(h, obj) -> None:
    """Canonical byte stream of a kernel input/output. Index arrays are
    widened to int64 (the contract is about values, not index width);
    float data and the memory order of dense blocks are kept, since
    BLAS results downstream depend on both."""
    if sp.issparse(obj):
        h.update(f"sp:{obj.format}:{obj.shape}:{obj.data.dtype}|".encode())
        _feed(h, np.asarray(obj.indptr, dtype=np.int64))
        _feed(h, np.asarray(obj.indices, dtype=np.int64))
        h.update(np.ascontiguousarray(obj.data).tobytes())
    elif isinstance(obj, np.ndarray):
        if obj.dtype.kind in "iu":
            obj = obj.astype(np.int64)
        elif obj.dtype.kind == "b":
            obj = obj.astype(np.uint8)
        order = ("C" if obj.flags.c_contiguous else
                 "F" if obj.flags.f_contiguous else "N")
        h.update(f"nd:{obj.dtype}:{obj.shape}:{order}|".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, SupernodalLower):
        _feed(h, (obj.n, obj.snodes, obj.diag_blocks, obj.below_rows,
                  obj.below_blocks, obj.unit_diagonal, obj.nnz))
    elif isinstance(obj, Hypergraph):
        # the five defining arrays, not the lazily built incidence caches
        _feed(h, (obj.net_ptr, obj.pins, obj.vertex_weights, obj.net_costs,
                  obj.net_ids))
    elif isinstance(obj, Graph):
        _feed(h, (obj.indptr, obj.indices, obj.edge_weights,
                  obj.vertex_weights))
    elif isinstance(obj, Level):
        _feed(h, (obj.coarse, obj.fine_to_coarse))
    elif isinstance(obj, BisectionSplit):
        _feed(h, (obj.children, obj.vertex_ids, obj.cut_net_ids,
                  obj.cut_cost))
    elif isinstance(obj, (list, tuple)):
        h.update(f"seq:{len(obj)}[".encode())
        for item in obj:
            _feed(h, item)
        h.update(b"]")
    elif isinstance(obj, dict):
        _feed(h, sorted(obj.items()))
    elif isinstance(obj, (np.integer, np.floating, np.bool_)):
        _feed(h, obj.item())
    elif obj is None or isinstance(obj, (bool, int, float, str)):
        h.update(f"{type(obj).__name__}:{obj!r}|".encode())
    else:
        raise TypeError(f"cannot digest {type(obj).__name__}")


def digest(*objs) -> str:
    h = hashlib.blake2b(digest_size=8)
    _feed(h, objs)
    return h.hexdigest()


class Rows:
    """Accumulates ``[case id, input digest, output digest]`` rows."""

    def __init__(self, prefix: str):
        self.prefix = prefix
        self.rows: list[list[str]] = []

    def call(self, case: str, fn, *args, **kwargs):
        """Run ``fn`` and record it. A rejected input is recorded by its
        exception type (the checks are part of the contract) and
        returns ``None``."""
        try:
            out = shown = fn(*args, **kwargs)
        except (ValueError, IndexError, TypeError) as exc:
            out, shown = None, f"raises {type(exc).__name__}"
        self.rows.append([f"{self.prefix}/{case}", digest(args, kwargs),
                          digest(shown)])
        return out


# -- kernel bundles ----------------------------------------------------------

def _tree_kernels(rows: Rows, tag: str, parent: np.ndarray) -> None:
    n = len(parent)
    rows.call(f"{tag}:children_lists", children_lists, parent)
    rows.call(f"{tag}:postorder", postorder, parent)
    rows.call(f"{tag}:tree_level", tree_level, parent)
    rows.call(f"{tag}:first_descendants", first_descendants, parent)
    support = np.arange(0, n, 7, dtype=np.int64)
    rows.call(f"{tag}:etree_path_closure", etree_path_closure, parent,
              support)
    stop = np.zeros(n, dtype=bool)
    stop[n // 2:] = True
    rows.call(f"{tag}:etree_path_closure_stop", etree_path_closure, parent,
              support[::-1].copy(), stop=stop)


def _ordering_kernels(rows: Rows, tag: str, A: sp.spmatrix) -> np.ndarray:
    """minimum degree + the e-tree family on ``A``; returns the
    MD + postorder permutation ``order_subdomain`` would build."""
    md = rows.call(f"{tag}:minimum_degree", minimum_degree, A)
    S = symmetrized(A)
    parent = rows.call(f"{tag}:elimination_tree", elimination_tree, S)
    _tree_kernels(rows, tag, parent)
    rows.call(f"{tag}:row_counts", symbolic_cholesky_row_counts, S, parent)
    Dm = A[md][:, md].tocsr()
    parent_md = rows.call(f"{tag}:elimination_tree_md", elimination_tree,
                          symmetrized(Dm))
    po = rows.call(f"{tag}:postorder_md", postorder, parent_md)
    return md[po]


def _factor_kernels(rows: Rows, tag: str, L: sp.spmatrix, B: sp.spmatrix,
                    *, unit_diagonal: bool) -> None:
    rows.call(f"{tag}:factor_etree", factor_etree, L)
    rows.call(f"{tag}:solution_pattern_etree", solution_pattern, L, B,
              method="etree")
    rows.call(f"{tag}:detect_supernodes", detect_supernodes, L)
    rows.call(f"{tag}:detect_supernodes_max5", detect_supernodes, L,
              max_size=5)
    rows.call(f"{tag}:from_csc", SupernodalLower.from_csc, L,
              unit_diagonal=unit_diagonal)
    rows.call(f"{tag}:from_csc_max3", SupernodalLower.from_csc, L,
              unit_diagonal=unit_diagonal, max_supernode=3)
    relaxed = rows.call(f"{tag}:relaxed_supernodes", relaxed_supernodes, L,
                        relax=0.3)
    if relaxed is not None:
        rows.call(f"{tag}:from_csc_relaxed", SupernodalLower.from_csc, L,
                  unit_diagonal=unit_diagonal, snodes=relaxed)


def _scaling_kernels(rows: Rows, tag: str, A: sp.spmatrix) -> None:
    A = sp.csr_matrix(A)
    rows.call(f"{tag}:row_abs_max", _row_abs_max, A)
    rows.call(f"{tag}:col_abs_max", _row_abs_max, A.T.tocsr())
    eq = ruiz_equilibrate(A)
    rows.rows.append([f"{rows.prefix}/{tag}:ruiz_equilibrate", digest(A),
                      digest(eq.row_scale, eq.col_scale, eq.iterations,
                             eq.A_scaled)])


# -- groups ------------------------------------------------------------------

def _coo(n: int, entries, *, m: int | None = None) -> sp.csr_matrix:
    """CSR from (row, col, value) triples; duplicates are *kept* as
    separate stored entries so the kernels' canonicalisation runs."""
    r = np.array([e[0] for e in entries], dtype=np.int64)
    c = np.array([e[1] for e in entries], dtype=np.int64)
    v = np.array([e[2] for e in entries], dtype=np.float64)
    return sp.coo_matrix((v, (r, c)), shape=(n, n if m is None else m)).tocsr()


def _lower_with_diag(pattern: sp.spmatrix, seed: int) -> sp.csc_matrix:
    """Lower-triangular CSC with a full diagonal and seeded values."""
    n = pattern.shape[0]
    L = sp.tril(pattern, -1, format="csr") + sp.eye(n, format="csr")
    L = L.tocsc()
    L.sort_indices()
    L.data = np.random.default_rng(seed).uniform(0.5, 1.5, L.nnz)
    return L


def edge_rows() -> list[list[str]]:
    """Hand-made degenerate patterns, one per awkward case."""
    rows = Rows("edge")
    rng = np.random.default_rng(7)

    # --- symmetric-pattern inputs for ordering / e-tree kernels
    sym_inputs = {
        "n0": sp.csr_matrix((0, 0)),
        "n1": sp.csr_matrix(np.array([[2.0]])),
        "n1_empty": sp.csr_matrix((1, 1)),
        "diagonal": sp.identity(6, format="csr"),
        # rows/cols 1 and 4 empty, no diagonal anywhere
        "empty_rows_cols": _coo(6, [(0, 2, 1.0), (2, 0, 1.0), (3, 5, 2.0),
                                    (5, 3, 2.0), (0, 5, 1.0), (5, 0, 1.0)]),
        # explicit zeros are part of the stored pattern
        "stored_zeros": _coo(5, [(0, 0, 1.0), (1, 1, 1.0), (2, 2, 1.0),
                                 (3, 3, 1.0), (4, 4, 1.0), (0, 3, 0.0),
                                 (3, 0, 0.0), (1, 4, 2.0), (4, 1, 2.0),
                                 (2, 4, 0.0)]),
        "duplicates": _coo(5, [(0, 1, 1.0), (0, 1, 2.0), (1, 0, 3.0),
                               (1, 0, -3.0), (2, 3, 1.0), (3, 2, 1.0),
                               (3, 2, 1.0), (4, 4, 1.0), (4, 0, 1.0),
                               (0, 4, 1.0)]),
        "unsymmetric": _coo(7, [(0, 3, 1.0), (1, 0, 1.0), (2, 6, 1.0),
                                (3, 1, 1.0), (4, 2, 1.0), (5, 4, 1.0),
                                (6, 5, 1.0), (6, 0, 1.0), (2, 2, 1.0)]),
        "strict_upper": sp.triu(sp.random(9, 9, 0.4, random_state=3), 1,
                                format="csr"),
        "dense_block": sp.csr_matrix(np.ones((12, 12))),
        "tridiagonal": sp.diags([np.ones(14), 2 * np.ones(15), np.ones(14)],
                                [-1, 0, 1], format="csr"),
        "arrow": sp.csr_matrix(np.eye(10) + np.eye(10)[[0] * 10]
                               + np.eye(10)[[0] * 10].T),
        # two dense cliques joined by one vertex: many equal-degree ties
        "two_cliques": sp.block_diag([np.ones((6, 6)), np.ones((6, 6))],
                                     format="lil"),
        "random_40": sp.random(40, 40, 0.08, random_state=11, format="csr"),
        "random_sym_60": None,
    }
    tc = sym_inputs["two_cliques"]
    tc[5, 6] = tc[6, 5] = 1.0
    sym_inputs["two_cliques"] = tc.tocsr()
    R = sp.random(60, 60, 0.06, random_state=5, format="csr")
    sym_inputs["random_sym_60"] = (R + R.T + sp.identity(60)).tocsr()
    for tag, A in sym_inputs.items():
        _ordering_kernels(rows, tag, A)
        _scaling_kernels(rows, tag, A)
    rows.call("rect:elimination_tree", elimination_tree,
              sp.csr_matrix((3, 4)))
    rows.call("rect:minimum_degree", minimum_degree, sp.csr_matrix((3, 4)))
    rows.call("rect:row_abs_max", _row_abs_max,
              _coo(4, [(0, 0, -3.0), (0, 2, 2.0), (2, 1, 0.0), (3, 0, 1e-300),
                       (3, 2, -1e-300)], m=3))
    rows.call("nan:row_abs_max", _row_abs_max,
              _coo(3, [(0, 0, 1.0), (0, 1, np.nan), (1, 1, -np.inf),
                       (1, 2, 5.0)]))

    # --- parent arrays fed straight to the tree kernels
    n = 25
    trees = {
        "tree_empty": np.empty(0, dtype=np.int64),
        "tree_single": np.array([-1]),
        "tree_chain_up": np.r_[np.arange(1, n), -1],
        # root-first chain: the quadratic case of the old fd sweep
        "tree_chain_down": np.r_[-1, np.arange(0, n - 1)],
        "tree_star": np.r_[np.full(n - 1, n - 1), -1],
        "tree_star_root_first": np.r_[-1, np.zeros(n - 1, dtype=np.int64)],
        "tree_forest": np.array([2, 2, -1, 5, 5, -1, -1, 9, 9, -1]),
        "tree_shuffled": None,
        "tree_int32": np.array([1, 2, -1], dtype=np.int32),
        "tree_float": np.array([1.0, 2.0, -1.0]),
    }
    # a random tree under a random relabelling (parents not above kids)
    par = np.r_[-1, [int(rng.integers(0, v)) for v in range(1, 30)]]
    relabel = rng.permutation(30)
    shuffled = np.empty(30, dtype=np.int64)
    shuffled[relabel] = np.where(par >= 0, relabel[par], -1)
    trees["tree_shuffled"] = shuffled
    for tag, parent in trees.items():
        _tree_kernels(rows, tag, parent)
    rows.call("tree_cycle:postorder", postorder, np.array([1, 2, 0]))
    rows.call("tree_selfparent:children_lists", children_lists,
              np.array([0, -1]))
    rows.call("tree_selfparent:postorder", postorder, np.array([-1, 1]))
    rows.call("tree_badtype:postorder", postorder, np.array([0.5, -1.0]))
    rows.call("closure_out_of_range", etree_path_closure,
              np.array([1, -1]), np.array([2]))
    rows.call("closure_negative", etree_path_closure,
              np.array([1, -1]), np.array([-1]))
    rows.call("closure_repeated_support", etree_path_closure,
              np.array([1, 2, 3, -1, 3]), np.array([4, 0, 0, 4]))

    # --- lower-triangular factors for the lu kernels
    grid = sp.diags([np.ones(29), np.ones(24), 4 * np.ones(30), np.ones(24),
                     np.ones(29)], [-1, -6, 0, 6, 1], format="csr")
    factors = {
        "L_n0": sp.csc_matrix((0, 0)),
        "L_n1": sp.csc_matrix(np.array([[3.0]])),
        "L_identity": sp.identity(5, format="csc"),
        "L_dense": sp.csc_matrix(np.tril(rng.uniform(0.5, 1.5, (70, 70)))),
        "L_bidiagonal": _lower_with_diag(sp.diags([np.ones(19)], [-1]), 1),
        "L_arrow": _lower_with_diag(sp.csr_matrix(np.eye(12)[[11] * 12].T), 2),
        "L_grid": _lower_with_diag(grid, 3),
        "L_random": _lower_with_diag(
            sp.random(50, 50, 0.1, random_state=13), 4),
        # pivoted-LU-like: a column hits a row off its first-parent path
        "L_off_path": _lower_with_diag(
            _coo(6, [(2, 0, 1.0), (5, 0, 1.0), (3, 2, 1.0), (4, 1, 1.0),
                     (5, 4, 1.0)]), 5),
        # upper entries are ignored by the symbolic kernels and rejected
        # by the repack (a column must lead with its diagonal)
        "L_with_upper": (_lower_with_diag(sp.random(15, 15, 0.2,
                                                    random_state=17), 6)
                         + sp.triu(sp.random(15, 15, 0.1, random_state=19),
                                   1)).tocsc(),
        "L_missing_diag": sp.csc_matrix(np.array([[1.0, 0, 0], [1.0, 0, 0],
                                                  [0, 1.0, 1.0]])),
        "L_stored_zero_diag": None,
        "L_duplicates": None,
    }
    Lz = _lower_with_diag(sp.random(10, 10, 0.3, random_state=23), 8)
    Lz.data[Lz.indptr[4]] = 0.0            # explicit zero on the diagonal
    Lz.data[Lz.indptr[2] + 1:Lz.indptr[3]] = 0.0   # and below it
    factors["L_stored_zero_diag"] = Lz
    Ld = _lower_with_diag(sp.random(8, 8, 0.3, random_state=29), 9).tocoo()
    factors["L_duplicates"] = sp.coo_matrix(
        (np.r_[Ld.data, Ld.data[:5]],
         (np.r_[Ld.row, Ld.row[:5]], np.r_[Ld.col, Ld.col[:5]])),
        shape=Ld.shape).tocsc()
    for tag, L in factors.items():
        nL = L.shape[0]
        B = sp.random(nL, 9, 0.15, random_state=31, format="csr")
        if nL:
            B = (B + _coo(nL, [(nL - 1, 0, 1.0), (0, 8, 1.0)], m=9)).tocsr()
        _factor_kernels(rows, tag, L, B, unit_diagonal=(tag != "L_dense"))
        _factor_kernels(rows, tag + "_nonunit", L, B, unit_diagonal=False)
    L = factors["L_grid"]
    rows.call("B_empty:solution_pattern", solution_pattern, L,
              sp.csr_matrix((30, 0)), method="etree")
    rows.call("B_zero_cols:solution_pattern", solution_pattern, L,
              sp.csr_matrix((30, 4)), method="etree")
    rows.call("B_mismatch:solution_pattern", solution_pattern, L,
              sp.csr_matrix((29, 4)), method="etree")
    rows.call("B_duplicates:solution_pattern", solution_pattern, L,
              _coo(30, [(3, 0, 1.0), (3, 0, 1.0), (0, 1, 0.0), (29, 2, 1.0)],
                   m=3), method="etree")
    for bad in ([(0, 10), (12, 30)], [(0, 10), (10, 10), (10, 30)],
                [(0, 29)], [(1, 30)]):
        rows.call(f"bad_ranges_{bad[0][0]}_{bad[-1][1]}_{len(bad)}",
                  SupernodalLower.from_csc, L, unit_diagonal=True,
                  snodes=bad)
    for ms in (1, 2, 64, 1000):
        rows.call(f"L_dense:detect_supernodes_max{ms}", detect_supernodes,
                  factors["L_dense"], max_size=ms)
    return rows.rows


def _interface_like(n: int, seed: int) -> sp.csr_matrix:
    return sp.random(n, 24, min(1.0, 40.0 / max(n, 1)), random_state=seed,
                     format="csr")


def tiny_rows(name: str) -> list[list[str]]:
    """Every kernel on one suite matrix at tiny scale."""
    rows = Rows(f"tiny/{name}")
    A = generate(name, "tiny").A
    perm = _ordering_kernels(rows, "A", A)
    _scaling_kernels(rows, "A", A)
    f = factorize(A[perm][:, perm].tocsc())
    n = A.shape[0]
    _factor_kernels(rows, "L", f.L, f.permute_rows(_interface_like(n, 1)),
                    unit_diagonal=True)
    UT = f.U.T.tocsc()
    _factor_kernels(rows, "UT", UT, _interface_like(n, 2)[f.perm_c].tocsr(),
                    unit_diagonal=False)
    return rows.rows


def small_rows(name: str) -> list[list[str]]:
    """The blocks of a real ``k=8`` set-up at small scale: each
    subdomain's ``D``, ``L``, ``U^T`` and interface block, then ``S~``
    (the dense-ish minimum-degree case)."""
    rows = Rows(f"small/{name}")
    gm = generate(name, "small")
    solver = PDSLin(gm.A, PDSLinConfig(k=8), M=gm.M)
    solver.setup()
    _scaling_kernels(rows, "A", gm.A)
    for ell, sd in enumerate(solver.subdomains):
        sub, f = sd.interfaces, sd.factors
        md = rows.call(f"D{ell}:minimum_degree", minimum_degree, sub.D)
        parent = rows.call(f"D{ell}:elimination_tree", elimination_tree,
                           symmetrized(sub.D[md][:, md].tocsr()))
        rows.call(f"D{ell}:postorder", postorder, parent)
        Epp = f.permute_rows(sub.E_hat[sd.perm].tocsr())
        _factor_kernels(rows, f"L{ell}", f.L, Epp, unit_diagonal=True)
        UT = f.U.T.tocsc()
        Fc = sub.F_hat[:, sd.perm].tocsr()[:, f.perm_c].tocsr()
        _factor_kernels(rows, f"UT{ell}", UT, Fc.T.tocsr(),
                        unit_diagonal=False)
    rows.call("S:minimum_degree", minimum_degree, solver.S_tilde)
    return rows.rows


def e2e_rows(name: str) -> list[list[str]]:
    """``PDSLin.setup()+solve()``: subdomain perms, ``S~`` and ``x``."""
    gm = generate(name, "tiny")
    b = np.random.default_rng(0).standard_normal(gm.A.shape[0])
    solver = PDSLin(gm.A, PDSLinConfig(k=4), M=gm.M)
    solver.setup()
    res = solver.solve(b)
    tag, din = f"e2e/{name}", digest(gm.A, b)
    return [
        [f"{tag}:perms", din, digest([sd.perm for sd in solver.subdomains])],
        [f"{tag}:S_tilde", din, digest(solver.S_tilde)],
        [f"{tag}:x", din, digest(res.x)],
    ]


def solve_rows(name: str) -> list[list[str]]:
    """``PDSLin.solve(b)`` answers (recorded from the commit before
    ``solve`` became the one-column case of ``solve_block``): numerics
    on/off x Krylov method x ABFT mode, a cold and a warm solve each,
    then after ``update_matrix``, on a checkpoint resume and on
    ``process:2``."""
    gm = generate(name, "tiny")
    A = gm.A.tocsr()
    n = A.shape[0]
    b0 = np.random.default_rng(0).standard_normal(n)
    b1 = np.random.default_rng(1).standard_normal(n)
    tag, din = f"solve/{name}", digest(A, b0, b1)
    rows = []

    def record(case: str, solver: PDSLin, *rhs) -> None:
        for i, b in enumerate(rhs):
            res = solver.solve(b)
            acc = res.accuracy
            rows.append([f"{tag}:{case}:b{i}", din,
                         digest(res.x, res.converged, res.iterations,
                                None if acc is None else acc.refine_steps)])

    for numerics in (True, False):
        for krylov in ("gmres", "bicgstab"):
            for mode in ("off", "detect+recover"):
                cfg = PDSLinConfig(k=4, numerics=numerics, krylov=krylov,
                                   abft=mode)
                record(f"numerics={int(numerics)}:{krylov}:abft={mode}",
                       PDSLin(A, cfg, M=gm.M), b0, b1)

    cfg = PDSLinConfig(k=4)
    solver = PDSLin(A, cfg, M=gm.M).setup()
    A2 = A.copy()
    A2.data = A2.data * np.random.default_rng(2).uniform(0.9, 1.1, A2.nnz)
    record("update_matrix", solver.update_matrix(A2), b0)
    with tempfile.TemporaryDirectory() as ckpt:
        PDSLin(A, cfg, M=gm.M,
               runtime=RuntimeOptions(checkpoint=ckpt)).setup()
        record("resume", PDSLin(A, cfg, M=gm.M,
                                runtime=RuntimeOptions(resume=ckpt)), b0)
    solver = PDSLin(A, cfg, M=gm.M,
                    runtime=RuntimeOptions(backend="process:2"))
    try:
        record("process:2", solver, b0, b1)
    finally:
        solver.backend.close()
    return rows


# -- recovery-ladder scenarios (``ladder/`` groups) --------------------------
#
# What the solver does *after* something went wrong is a contract too:
# which events it records in which order, whether the run ends degraded,
# which spans and counters the repair leaves behind, and the answer.
# Every scenario below runs the tiny ``matrix211`` problem (k=4, ~0.15 s
# a run) under one fault and records four rows: the ordered event log
# ``(stage, action, subdomain, attempt, detail)`` with ``degraded`` and
# ``preconditioner_mode``; the tracer counters (``noise:`` and
# ``speculation_*`` are wall-time dependent and left out); the span-name
# multiset; the answer bytes (or the exception type).
#
# Race-free by construction: a crash drill runs on ONE pool worker (the
# tasks before the victim complete, the victim and everything behind it
# come back as crashes; with two workers it is a race which neighbours
# finish first), the transport flip under a pooled block solve likewise
# (the seam is one-shot *per worker process*), and the straggler sleeps
# far longer than its deadline, which in turn is far longer than the
# other three tasks take on the remaining worker.

LADDER_MATRIX = "matrix211"
_BITFLIP_ENV = {abft.ENV_BITFLIP_SEED: "7", abft.ENV_BITFLIP_SUBDOMAIN: "1"}


class _Ladder:
    """One problem, many faulted runs, four rows per observation."""

    def __init__(self, group: str):
        gm = generate(LADDER_MATRIX, "tiny")
        self.A, self.M = gm.A.tocsr(), gm.M
        n = self.A.shape[0]
        self.b = np.random.default_rng(0).standard_normal(n)
        self.B = np.random.default_rng(1).standard_normal((n, 4))
        self.tag = f"ladder/{group}"
        self.din = digest(self.A, self.b, self.B)
        self.rows: list[list[str]] = []

    @contextmanager
    def solver(self, backend: str, **kw):
        """A traced solver on a private backend (pool workers fork
        inside the armed environment and die with the scenario).
        ``fault_plan`` goes to the runtime, the rest to the config."""
        name, _, workers = backend.partition(":")
        pool = get_backend(name, workers=int(workers or 1), fresh=True)
        runtime = RuntimeOptions(
            tracer=Tracer(), backend=pool,
            fault_plan=kw.pop("fault_plan", None),
            task_deadline_s=kw.pop("task_deadline_s", None))
        try:
            yield PDSLin(self.A, PDSLinConfig(k=4, **kw), M=self.M,
                         runtime=runtime)
        finally:
            pool.close()

    def observe(self, case: str, solver: PDSLin, run) -> bool:
        """Run ``run(solver)`` (returning the answer array) and record
        what the solver looks like afterwards. Returns False when the
        run raised a solver error (recorded by type)."""
        try:
            answer, ok = run(solver), True
        except SolverError as exc:
            answer, ok = f"raises {type(exc).__name__}", False
        rep, tr = solver.recovery, solver.tracer
        events = [(e.stage, e.action, e.subdomain, e.attempt, e.detail)
                  for e in rep.events]
        counters = sorted(
            (k, v) for k, v in tr.counters.items()
            if not k.startswith(("noise:", "speculation_")))
        spans = sorted(Counter(s.name for s in tr.spans).items())
        for part, value in (
                ("events", (events, rep.degraded, rep.preconditioner_mode)),
                ("counters", counters), ("spans", spans), ("x", answer)):
            self.rows.append([f"{self.tag}:{case}:{part}", self.din,
                              digest(value)])
        return ok

    def entry(self, name: str):
        """The three ways into the solve phase."""
        if name == "solve":
            return lambda s: s.solve(self.b).x
        return lambda s: s.solve_block(self.B).X


def ladder_bitflip_rows() -> list[list[str]]:
    """One seeded exponent-bit flip at each injection site x ABFT mode
    x entry point x backend. ``krylov`` x ``block_gmres`` is not here:
    at the commit these rows were recorded from, the seam raised a
    ``TypeError`` on the 2-D iterate block (``tests/test_multirhs.py``
    holds that path since the fix)."""
    lad = _Ladder("bitflip")
    for target in ("lu", "schur", "krylov", "transport"):
        env = {abft.ENV_BITFLIP_TARGET: target, **_BITFLIP_ENV}
        for mode in ("detect", "detect+recover"):
            for entry in ("solve", "block", "block_gmres"):
                if target == "krylov" and entry == "block_gmres":
                    continue
                for backend in ("serial", "process:2"):
                    if target == "transport" and entry != "solve" \
                            and backend != "serial":
                        backend = "process:1"
                    with chaos_seams(env), lad.solver(
                            backend, abft=mode,
                            block_gmres=(entry == "block_gmres")) as s:
                        lad.observe(f"{target}:{mode}:{entry}:{backend}",
                                    s, lad.entry(entry))
    return lad.rows


@contextmanager
def _corrupt_block_iterate(columns):
    """Flip one bit in the given columns of the first block-GMRES
    iterate the solver computes (what the block Krylov audit exists to
    catch; the env seam cannot reach a 2-D iterate at the recorded
    commit)."""
    real = pdslin_module.gmres_block
    pending = list(columns)

    def corrupted(*args, **kwargs):
        blk = real(*args, **kwargs)
        while pending:
            abft.flip_bits([blk.x[:, pending.pop(0)]],
                           rng=np.random.default_rng(5))
        return blk

    pdslin_module.gmres_block = corrupted
    try:
        yield
    finally:
        pdslin_module.gmres_block = real


def ladder_corrupt_rows() -> list[list[str]]:
    """Corruption planted directly, outside the env seams: a ``T~``
    entry flipped between Comp(S) and assembly, a factor entry flipped
    after set-up that only the solve-phase sweep can see, and two
    columns of a block-GMRES iterate."""
    lad = _Ladder("corrupt")
    for mode in ("detect", "detect+recover"):
        for backend in ("serial", "process:2"):
            with chaos_seams({}), lad.solver(backend, abft=mode) as s:
                assemble = s._assemble_and_factor_schur

                def corrupt_then_assemble(s=s, assemble=assemble):
                    abft.flip_bits([s.subdomains[1].T_tilde.data],
                                   rng=np.random.default_rng(5))
                    assemble()
                s._assemble_and_factor_schur = corrupt_then_assemble
                lad.observe(f"T_tilde:{mode}:{backend}", s,
                            lad.entry("solve"))
            for entry in ("solve", "block"):
                with chaos_seams({}), lad.solver(backend, abft=mode) as s:
                    s.setup()
                    sd = s.subdomains[1]
                    abft.flip_bits([sd.factors.U.data],
                                   rng=np.random.default_rng(5))
                    # solve through the corrupted L/U data (the SuperLU
                    # handle keeps its own pristine copy)
                    sd.factors.handle = None
                    sd.handle_thresh = None
                    lad.observe(f"factor:{mode}:{entry}:{backend}", s,
                                lad.entry(entry))
            with chaos_seams({}), _corrupt_block_iterate((2, 0)), \
                    lad.solver(backend, abft=mode, block_gmres=True) as s:
                lad.observe(f"block_iterate:{mode}:{backend}", s,
                            lad.entry("block"))
    return lad.rows


def ladder_fault_rows() -> list[list[str]]:
    """Injected stage faults: every (stage, process) of the pipeline x
    transient / retries-exhausted / permanent, on the inline ladder
    (serial) and the pre-played one (thread:2). ``solve(b)`` then
    ``solve_block(B)`` on the same solver, one observation each."""
    lad = _Ladder("faults")
    sites = (("Partition", None), ("LU(D)", 1), ("Comp(S)", 2),
             ("Comp(S)", None), ("LU(S)", None), ("Solve", 1),
             ("Solve", None))
    kinds = {"transient": dict(kind="transient"),
             "exhausted": dict(kind="transient", trips=99),
             "permanent": dict(kind="permanent")}
    for stage, proc in sites:
        for kname, spec in kinds.items():
            for backend in ("serial", "thread:2"):
                plan = FaultPlan([FaultSpec(stage=stage, process=proc,
                                            **spec)], seed=0)
                where = "root" if proc is None else f"p{proc}"
                case = f"{stage}@{where}:{kname}:{backend}"
                with chaos_seams({}), lad.solver(backend,
                                                fault_plan=plan) as s:
                    if lad.observe(f"{case}:solve", s, lad.entry("solve")):
                        lad.observe(f"{case}:block", s, lad.entry("block"))
    return lad.rows


def ladder_chaos_rows() -> list[list[str]]:
    """Shipped tasks that never come back: a worker hard-exit and a
    straggler past its deadline, in the set-up fan-out and in the
    fan-outs of a block solve."""
    lad = _Ladder("chaos")
    crash = {ENV_CRASH_SUBDOMAIN: "1"}
    straggle = {ENV_STRAGGLE_SUBDOMAIN: "1", ENV_STRAGGLE_S: "30"}

    with chaos_seams(crash), lad.solver("process:1") as s:
        lad.observe("crash:setup", s, lad.entry("solve"))
    with chaos_seams({}), lad.solver("process:1") as s:
        s.setup()
        os.environ.update(crash)
        s.backend.close()           # the next fan-out forks armed workers
        lad.observe("crash:solve_block", s, lad.entry("block"))

    with chaos_seams(straggle), lad.solver("process:2",
                                          task_deadline_s=1.5) as s:
        lad.observe("straggle:setup", s, lad.entry("solve"))
    with chaos_seams({}), lad.solver("process:2", task_deadline_s=0.75,
                                    refine_maxiter=0) as s:
        s.setup()
        os.environ.update(straggle)
        s.backend.close()
        lad.observe("straggle:solve_block", s, lad.entry("block"))
    return lad.rows


# -- partitioning (``partition/`` groups) ------------------------------------
#
# The multilevel bisectors carry the same identical-output contract as
# the symbolic kernels: ``(col_part, row_part, cut_costs)`` of RHB,
# ``(part, separator)`` of NGD and the column order of the ``quota0``
# path decide every block, fill count and iteration count downstream.
# All of it is integer / IEEE-deterministic arithmetic on seeded
# generators (no SuperLU, no BLAS), so these rows hold on every host.
#
# The full matrix x scale x metric x scheme x {M, no M} cross costs
# ~6 min a run, so it is thinned where a cell adds wall time but no code
# path: every metric x scheme at tiny on the matrix's own factor; a
# Latin square of the two (each metric and each scheme once) at small
# and on the edge-incidence factor (``M=None``: two-pin vertices, an
# order of magnitude more of them); one ``k=2`` bisection of the
# edge-incidence hypergraph at small, the largest input in the file.

METRICS = ("con1", "cnet", "soed")
SCHEMES = ("w1", "w2", "w1w2")
LATIN = (("soed", "w1"), ("cnet", "w2"), ("con1", "w1w2"))
FULL_CROSS = tuple((m, s) for m in METRICS for s in SCHEMES)
KERNEL_SMALL = ("G3_circuit",)


def partition_rhb_rows(name: str) -> list[list[str]]:
    """``rhb_partition`` on one suite matrix."""
    rows = Rows(f"partition/rhb/{name}")

    def record(scale, A, M, k, metric, scheme) -> None:
        res = rhb_partition(A, k, M=M, metric=metric, scheme=scheme, seed=0)
        factor = "noM" if M is None else "M"
        rows.rows.append(
            [f"{rows.prefix}/{scale}:{factor}:k{k}:{metric}:{scheme}",
             digest(A, M, k, metric, scheme),
             digest(res.col_part, res.row_part, res.cut_costs)])

    for scale, own, edge_k, edge in (("tiny", FULL_CROSS, 4, LATIN),
                                     ("small", LATIN, 2, LATIN[:1])):
        gm = generate(name, scale)
        for metric, scheme in own:
            record(scale, gm.A, gm.M, 8, metric, scheme)
        if gm.M is not None:
            for metric, scheme in edge:
                record(scale, gm.A, None, edge_k, metric, scheme)
    return rows.rows


def partition_ngd_rows() -> list[list[str]]:
    """``nested_dissection_partition`` on the suite, tiny and small."""
    rows = Rows("partition/ngd")
    for scale in ("tiny", "small"):
        for name in SUITE:
            A = generate(name, scale).A
            res = nested_dissection_partition(A, 8, seed=0)
            rows.rows.append([f"{rows.prefix}/{scale}/{name}:k8",
                              digest(A), digest(res.part,
                                                res.separator_vertices)])
    return rows.rows


def partition_rhs_order_rows() -> list[list[str]]:
    """``hypergraph_column_order`` (the exact-quota bisection path) on
    a subdomain solution pattern ``G``. The pattern is the e-tree
    closure of ``E^`` under the no-fill lower triangle of ``D`` — the
    shape of the real ``G`` without a SuperLU factor, so the input does
    not depend on the host."""
    rows = Rows("partition/rhs_order")
    for name in SUITE:
        gm = generate(name, "tiny")
        A = symmetrized(gm.A)
        res = rhb_partition(A, 4, M=gm.M, seed=0)
        sub = extract_interfaces(build_dbbd(A, res.col_part, 4), 0)
        L = _lower_with_diag(symmetrized(sub.D), 0)
        G = solution_pattern(L, sub.E_hat, method="etree")
        for block, tau in ((8, None), (20, 0.4)):
            out = hypergraph_column_order(G, block, tau=tau, seed=0)
            rows.rows.append([f"{rows.prefix}/{name}:B{block}:tau={tau}",
                              digest(G, block, tau),
                              digest(out.order, out.parts)])
    return rows.rows


def partition_kernel_rows(name: str) -> list[list[str]]:
    """Matching, contraction, net splitting and FM on every level of
    one coarsening of the matrix's column-net hypergraph (two balance
    constraints, soed net costs), then heavy-edge matching, contraction
    and FM on every level of its adjacency graph. Sides are random, so
    FM starts far from a local optimum and, under the tight caps, from
    an infeasible balance."""
    rows = Rows(f"partition/kernels/{name}")
    for scale in ("tiny",) + (("small",) if name in KERNEL_SMALL else ()):
        gm = generate(name, scale)
        A = symmetrized(gm.A)
        M = edge_incidence_factor(A) if gm.M is None else gm.M
        H = Hypergraph.column_net_model(M)
        H = replace(H, net_costs=np.full(H.n_nets, 2, dtype=np.int64),
                    vertex_weights=np.stack(
                        [np.maximum(np.diff(H.vtx_ptr), 1),
                         1 + np.arange(H.n_vertices) % 3], axis=1))
        max_cw = np.maximum(1, H.total_weight() // 16)
        for lvl in range(40):
            tag = f"{scale}:h{lvl}"
            side = np.random.default_rng(lvl).integers(0, 2, H.n_vertices)
            totals = H.total_weight().astype(np.float64)
            rows.call(f"{tag}:fm_c2", fm_refine_hypergraph, H, side,
                      caps=np.vstack([0.55 * totals, 0.55 * totals]))
            rows.call(f"{tag}:fm_c1_tight", fm_refine_hypergraph,
                      replace(H, vertex_weights=H.vertex_weights[:, :1]),
                      side, caps=np.full((2, 1), 0.505 * totals[0]),
                      max_passes=3)
            for metric in METRICS:
                rows.call(f"{tag}:split_{metric}", split_by_side, H, side,
                          metric)
            match = rows.call(f"{tag}:matching", heavy_connectivity_matching,
                              H, lvl, max_weight=max_cw)
            coarse = rows.call(f"{tag}:contract", contract_hypergraph, H,
                               match).coarse
            if coarse.n_vertices <= 48 or \
                    coarse.n_vertices >= 0.95 * H.n_vertices:
                break
            H = coarse

        g = Graph.from_matrix(A)
        total = g.total_vertex_weight
        for lvl in range(40):
            tag = f"{scale}:g{lvl}"
            side = np.random.default_rng(100 + lvl).integers(0, 2,
                                                             g.n_vertices)
            rows.call(f"{tag}:compute_gains", compute_gains, g, side)
            rows.call(f"{tag}:fm_loose", fm_refine_bisection, g, side,
                      max_part_weight=0.55 * total)
            rows.call(f"{tag}:fm_tight", fm_refine_bisection, g, side,
                      max_part_weight=(0.505 * total, 0.505 * total))
            match = rows.call(f"{tag}:matching", heavy_edge_matching, g, lvl,
                              max_weight=max(1, total // 16))
            coarse = rows.call(f"{tag}:contract", contract, g, match).coarse
            if coarse.n_vertices <= 48 or \
                    coarse.n_vertices >= 0.95 * g.n_vertices:
                break
            g = coarse
    return rows.rows


def groups() -> dict:
    """Group name -> zero-argument builder of that group's rows."""
    out = {"edge": edge_rows}
    for name in SUITE:
        out[f"tiny/{name}"] = partial(tiny_rows, name)
    for name in SMALL_MATRICES:
        out[f"small/{name}"] = partial(small_rows, name)
    for name in E2E_MATRICES:
        out[f"e2e/{name}"] = partial(e2e_rows, name)
    for name in E2E_MATRICES:
        out[f"solve/{name}"] = partial(solve_rows, name)
    out["ladder/bitflip"] = ladder_bitflip_rows
    out["ladder/corrupt"] = ladder_corrupt_rows
    out["ladder/faults"] = ladder_fault_rows
    out["ladder/chaos"] = ladder_chaos_rows
    for name in SUITE:
        out[f"partition/rhb/{name}"] = partial(partition_rhb_rows, name)
    out["partition/ngd"] = partition_ngd_rows
    out["partition/rhs_order"] = partition_rhs_order_rows
    for name in SUITE:
        out[f"partition/kernels/{name}"] = partial(partition_kernel_rows,
                                                   name)
    return out


def host_stamp() -> dict:
    """What SuperLU / BLAS values can depend on."""
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "machine": platform.machine()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, default=GOLDEN_PATH)
    ap.add_argument("--commit", default=None,
                    help="commit the kernels were recorded from (stamped "
                         "into the file)")
    ap.add_argument("--groups", default=None, metavar="PREFIX",
                    help="record only the groups whose name starts with "
                         "PREFIX into the existing file; its other rows "
                         "and its recorded_from are kept, and --commit is "
                         "stamped under recorded_from_groups[PREFIX]")
    args = ap.parse_args(argv)
    head = {"schema_version": 1, "recorded_from": args.commit,
            "host": host_stamp()}
    kept = {}
    if args.groups is not None:
        old = json.loads(args.out.read_text())
        if old["host"] != head["host"]:
            raise SystemExit(f"{args.out} was recorded on {old['host']}; "
                             "this host cannot add rows to it")
        kept = old.pop("groups")
        head = old
        head.setdefault("recorded_from_groups", {})[args.groups] = args.commit
    # one row per line, so a re-record diffs row by row
    chunks = []
    for gname, build in groups().items():
        if args.groups is None or gname.startswith(args.groups):
            rows = build()
            print(f"{gname}: {len(rows)} rows")
        else:
            rows = kept[gname]
        body = ",\n".join("  " + json.dumps(row) for row in rows)
        chunks.append(f" {json.dumps(gname)}: [\n{body}\n ]")
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(head, indent=1)[:-2] + ',\n "groups": {\n'
                        + ",\n".join(chunks) + "\n }\n}\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
