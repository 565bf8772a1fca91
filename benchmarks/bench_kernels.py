"""Microbenchmarks of the library's computational kernels.

Unlike the table/figure benches (single-shot experiment regeneration),
these use pytest-benchmark's statistical timing on the individual
substrate kernels, so performance regressions in the partitioner, the
orderings, or the triangular solver show up directly.
"""

import numpy as np
import pytest

from repro.core import rhb_partition
from repro.graphs import nested_dissection_partition
from repro.hypergraph import (
    Hypergraph,
    bisect_hypergraph,
    coarsen_hypergraph,
    contract_hypergraph,
    fm_refine_hypergraph,
    heavy_connectivity_matching,
    split_by_side,
)
from repro.lu import (
    SupernodalLower,
    blocked_triangular_solve,
    factor_etree,
    factorize,
    partition_columns,
    solution_pattern,
)
from repro.matrices import generate
from repro.ordering import (
    elimination_tree,
    minimum_degree,
    postorder,
    reverse_cuthill_mckee,
)
from repro.solver import PDSLin, PDSLinConfig
from repro.sparse import symmetrized


@pytest.fixture(scope="module")
def cavity(scale):
    return generate("tdr190k", "tiny" if scale == "tiny" else "small")


@pytest.fixture(scope="module")
def cavity_setup(cavity):
    """A k=4 set-up of the cavity matrix: real subdomain factors,
    interface blocks and S~ for the symbolic set-up kernels."""
    solver = PDSLin(cavity.A, PDSLinConfig(k=4), M=cavity.M)
    solver.setup()
    return solver


@pytest.fixture(scope="module")
def subdomain_factor(cavity_setup):
    """(L, P E^) of the largest subdomain, in factored row positions."""
    sd = max(cavity_setup.subdomains, key=lambda sd: sd.factors.n)
    Epp = sd.factors.permute_rows(sd.interfaces.E_hat[sd.perm].tocsr())
    return sd.factors.L, Epp


@pytest.fixture(scope="module", params=[4, 8], ids=["k4", "k8"])
def warm_setup(request, cavity, cavity_setup):
    """A set-up solver that has already served one right-hand side."""
    solver = cavity_setup if request.param == 4 else PDSLin(
        cavity.A, PDSLinConfig(k=8), M=cavity.M).setup()
    solver.solve(np.ones(cavity.A.shape[0]))
    return solver


def test_kernel_warm_solve(benchmark, warm_setup):
    """One ``solve(b)`` on a set-up session: subdomain triangular
    solves, GMRES on the Schur system, refinement, audits."""
    b = np.random.default_rng(0).standard_normal(warm_setup.A.shape[0])
    res = benchmark(warm_setup.solve, b)
    assert res.converged


def test_kernel_schur_matvec(benchmark, warm_setup):
    """One application of the exact Schur operator of the solve plan."""
    v = np.random.default_rng(0).standard_normal(
        warm_setup.partition.separator_size)
    benchmark(warm_setup.solve_plan.matvec, v)


def test_kernel_etree(benchmark, cavity):
    A = symmetrized(cavity.A)
    benchmark(elimination_tree, A)


def test_kernel_postorder(benchmark, cavity):
    parent = elimination_tree(symmetrized(cavity.A))
    benchmark(postorder, parent)


def test_kernel_factor_etree(benchmark, subdomain_factor):
    L, _ = subdomain_factor
    benchmark(factor_etree, L)


def test_kernel_solution_pattern_etree(benchmark, subdomain_factor):
    L, Epp = subdomain_factor
    benchmark(solution_pattern, L, Epp, method="etree")


def test_kernel_supernodal_repack(benchmark, subdomain_factor):
    """detect_supernodes + dense-block scatter."""
    L, _ = subdomain_factor
    benchmark(SupernodalLower.from_csc, L, unit_diagonal=True)


def test_kernel_minimum_degree_schur(benchmark, cavity_setup):
    """The dense-ish case: S~ is one clique per separator block, where
    the subdomain matrices are mesh-sparse."""
    benchmark.pedantic(minimum_degree, args=(cavity_setup.S_tilde,),
                       rounds=3, iterations=1)


def test_kernel_minimum_degree(benchmark, cavity):
    benchmark.pedantic(minimum_degree, args=(cavity.A,), rounds=3,
                       iterations=1)


def test_kernel_rcm(benchmark, cavity):
    benchmark.pedantic(reverse_cuthill_mckee, args=(cavity.A,), rounds=3,
                       iterations=1)


def test_kernel_hypergraph_bisection(benchmark, cavity):
    H = Hypergraph.column_net_model(cavity.M)
    benchmark.pedantic(
        lambda: bisect_hypergraph(H, epsilon=0.05, seed=0, n_trials=2),
        rounds=3, iterations=1)


@pytest.fixture(scope="module")
def coarsening(cavity):
    """The cavity's column-net hypergraph, its coarsening, balance caps
    and one random side vector per end of the hierarchy."""
    H = Hypergraph.column_net_model(cavity.M)
    levels = coarsen_hypergraph(H, seed=0)
    caps = np.full((2, 1), 0.55 * H.n_vertices)
    rng = np.random.default_rng(0)
    coarsest = levels[-1].coarse
    return (H, coarsest, caps, rng.integers(0, 2, H.n_vertices),
            rng.integers(0, 2, coarsest.n_vertices))


def test_kernel_fm_finest(benchmark, coarsening):
    """FM from a random side on the finest level (list caches warm, as
    in every trial but the first)."""
    H, _, caps, side, _ = coarsening
    benchmark.pedantic(fm_refine_hypergraph, args=(H, side),
                       kwargs=dict(caps=caps), rounds=3, iterations=1,
                       warmup_rounds=1)


def test_kernel_fm_coarsest(benchmark, coarsening):
    _, coarsest, caps, _, side = coarsening
    benchmark.pedantic(fm_refine_hypergraph, args=(coarsest, side),
                       kwargs=dict(caps=caps), rounds=10, iterations=1,
                       warmup_rounds=1)


def test_kernel_hypergraph_matching(benchmark, coarsening):
    H = coarsening[0]
    benchmark.pedantic(heavy_connectivity_matching, args=(H, 0), rounds=3,
                       iterations=1, warmup_rounds=1)


def test_kernel_hypergraph_contraction(benchmark, coarsening):
    H = coarsening[0]
    match = heavy_connectivity_matching(H, 0)
    benchmark.pedantic(contract_hypergraph, args=(H, match), rounds=3,
                       iterations=1)


def test_kernel_split_by_side(benchmark, coarsening):
    H, _, _, side, _ = coarsening
    benchmark.pedantic(split_by_side, args=(H, side, "soed"), rounds=3,
                       iterations=1)


def test_kernel_rhb_k8(benchmark, cavity):
    benchmark.pedantic(
        lambda: rhb_partition(cavity.A, 8, M=cavity.M, seed=0, n_trials=2),
        rounds=1, iterations=1)


def test_kernel_ngd_k8(benchmark, cavity):
    benchmark.pedantic(
        lambda: nested_dissection_partition(cavity.A, 8, seed=0, n_trials=2),
        rounds=1, iterations=1)


def test_kernel_lu_factorize(benchmark, cavity):
    A = cavity.A.tocsc()
    perm = minimum_degree(cavity.A)
    benchmark.pedantic(
        lambda: factorize(A, col_perm=perm, diag_pivot_thresh=0.0),
        rounds=3, iterations=1)


def test_kernel_blocked_trsolve(benchmark, cavity):
    import scipy.sparse as sp
    A = cavity.A.tocsc()
    f = factorize(A, diag_pivot_thresh=0.0)
    n = A.shape[0]
    E = sp.random(n, 64, 0.02, random_state=0, format="csr")
    Ep = f.permute_rows(E)
    G = solution_pattern(f.L, Ep)
    snl = SupernodalLower.from_csc(f.L, unit_diagonal=True)
    parts = partition_columns(np.arange(64), 16)
    benchmark.pedantic(
        lambda: blocked_triangular_solve(snl, Ep, G, parts),
        rounds=3, iterations=1)
