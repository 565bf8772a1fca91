"""Unit tests for the graph substrate (Graph, coarsening, FM, bisection,
separators, NGD)."""

import numpy as np
import pytest
import scipy.sparse as sp
from tests.conftest import grid_laplacian

from repro.core.dbbd import build_dbbd
from repro.graphs import (
    Graph,
    bisect_graph,
    coarsen,
    compute_gains,
    contract,
    fm_refine_bisection,
    greedy_bfs_bisection,
    heavy_edge_matching,
    maximum_bipartite_matching,
    nested_dissection_partition,
    vertex_separator_from_cut,
)


class TestGraph:
    def test_from_matrix_drops_diagonal(self, grid8):
        g = Graph.from_matrix(grid8)
        for v in range(g.n_vertices):
            assert v not in g.neighbors(v)

    def test_edge_count_grid(self):
        g = Graph.from_matrix(grid_laplacian(4, 4))
        assert g.n_edges == 2 * 4 * 3  # horizontal + vertical edges

    def test_edge_cut_simple(self):
        g = Graph.from_matrix(grid_laplacian(2, 2))
        side = np.array([0, 0, 1, 1])  # cut the two vertical edges
        assert g.edge_cut(side) == 2

    def test_subgraph(self, grid8):
        g = Graph.from_matrix(grid8)
        sub, ids = g.subgraph(np.array([0, 1, 2, 8, 9]))
        assert sub.n_vertices == 5
        # edges preserved among selected vertices: 0-1,1-2,0-8,1-9,8-9
        assert sub.n_edges == 5

    def test_connected_components(self):
        A = sp.block_diag([grid_laplacian(2, 2), grid_laplacian(3, 3)]).tocsr()
        g = Graph.from_matrix(A)
        labels = g.connected_components()
        assert len(set(labels.tolist())) == 2

    def test_vertex_weight_mismatch_rejected(self, grid8):
        with pytest.raises(ValueError):
            Graph.from_matrix(grid8, vertex_weights=np.ones(3, dtype=int))


class TestCoarsening:
    def test_matching_is_symmetric(self, grid16):
        g = Graph.from_matrix(grid16)
        match = heavy_edge_matching(g, seed=0)
        for v in range(g.n_vertices):
            assert match[match[v]] == v

    def test_contract_preserves_total_weight(self, grid16):
        g = Graph.from_matrix(grid16)
        level = contract(g, heavy_edge_matching(g, seed=0))
        assert level.coarse.total_vertex_weight == g.total_vertex_weight

    def test_contract_projection_roundtrip(self, grid16):
        g = Graph.from_matrix(grid16)
        level = contract(g, heavy_edge_matching(g, seed=0))
        coarse_side = np.zeros(level.coarse.n_vertices, dtype=np.int64)
        coarse_side[::2] = 1
        fine = level.project(coarse_side)
        assert fine.size == g.n_vertices

    def test_coarsen_shrinks(self, grid16):
        g = Graph.from_matrix(grid16)
        levels = coarsen(g, min_vertices=32, seed=0)
        assert levels
        assert levels[-1].coarse.n_vertices < g.n_vertices / 2

    def test_cut_preserved_under_projection(self, grid16):
        # edge cut of a projected partition equals the coarse cut
        g = Graph.from_matrix(grid16)
        level = contract(g, heavy_edge_matching(g, seed=1))
        cg = level.coarse
        rng = np.random.default_rng(0)
        side = rng.integers(0, 2, cg.n_vertices)
        assert cg.edge_cut(side) == g.edge_cut(level.project(side))

    def test_max_weight_respected(self, grid16):
        g = Graph.from_matrix(grid16)
        match = heavy_edge_matching(g, seed=0, max_weight=1)
        # no pair may exceed weight 1 => nothing matched
        assert np.all(match == np.arange(g.n_vertices))


class TestFM:
    def test_gains_definition(self):
        g = Graph.from_matrix(grid_laplacian(2, 2))
        side = np.array([0, 1, 0, 1])
        gains = compute_gains(g, side)
        # vertex 0 neighbours: 1 (other side), 2 (same side) -> gain 0
        assert gains[0] == 0

    def test_refinement_improves_random_partition(self, grid16):
        g = Graph.from_matrix(grid16)
        rng = np.random.default_rng(0)
        side = rng.integers(0, 2, g.n_vertices)
        cut0 = g.edge_cut(side)
        refined, cut = fm_refine_bisection(
            g, side, max_part_weight=0.55 * g.total_vertex_weight)
        assert cut < cut0
        assert cut == g.edge_cut(refined)

    def test_balance_respected(self, grid16):
        g = Graph.from_matrix(grid16)
        rng = np.random.default_rng(1)
        side = rng.integers(0, 2, g.n_vertices)
        cap = 0.55 * g.total_vertex_weight
        refined, _ = fm_refine_bisection(g, side, max_part_weight=cap)
        w = np.zeros(2)
        np.add.at(w, refined, g.vertex_weights)
        assert w.max() <= cap

    def test_wrong_side_length_rejected(self, grid8):
        g = Graph.from_matrix(grid8)
        with pytest.raises(ValueError):
            fm_refine_bisection(g, np.zeros(3, dtype=int),
                                max_part_weight=10)


class TestBisection:
    def test_grid_cut_near_optimal(self):
        g = Graph.from_matrix(grid_laplacian(16, 16))
        res = bisect_graph(g, epsilon=0.05, seed=0, n_trials=4)
        assert res.cut <= 24  # optimal is 16
        assert res.imbalance <= 0.05 + 1e-9

    def test_asymmetric_target(self):
        g = Graph.from_matrix(grid_laplacian(12, 12))
        res = bisect_graph(g, epsilon=0.08, target0=1 / 3, seed=0)
        frac = res.part_weights[0] / sum(res.part_weights)
        assert abs(frac - 1 / 3) < 0.1

    def test_greedy_bfs_reaches_target(self, grid16):
        g = Graph.from_matrix(grid16)
        side = greedy_bfs_bisection(g, 0.5, seed=0)
        frac = (side == 0).sum() / g.n_vertices
        assert 0.3 < frac < 0.7

    def test_deterministic_given_seed(self, grid16):
        g = Graph.from_matrix(grid16)
        a = bisect_graph(g, seed=7)
        b = bisect_graph(g, seed=7)
        np.testing.assert_array_equal(a.side, b.side)


class TestBipartiteMatching:
    def test_perfect_matching(self):
        adj = [[0], [1], [2]]
        ml, mr = maximum_bipartite_matching(adj, 3)
        assert np.all(ml >= 0) and np.all(mr >= 0)

    def test_koenig_size(self):
        # path a0-b0-a1: max matching 1
        adj = [[0], [0]]
        ml, _ = maximum_bipartite_matching(adj, 1)
        assert (ml >= 0).sum() == 1

    def test_augmenting_path_needed(self):
        # greedy could match a0-b0 leaving a1 unmatched; augmenting fixes
        adj = [[0, 1], [0]]
        ml, _ = maximum_bipartite_matching(adj, 2)
        assert (ml >= 0).sum() == 2


class TestVertexSeparator:
    def test_separates(self, grid16):
        g = Graph.from_matrix(grid16)
        res = bisect_graph(g, seed=0)
        vs = vertex_separator_from_cut(g, res.side)
        # no edge between side0 and side1
        in0 = np.zeros(g.n_vertices, dtype=bool)
        in0[vs.side0] = True
        in1 = np.zeros(g.n_vertices, dtype=bool)
        in1[vs.side1] = True
        for v in vs.side0:
            assert not np.any(in1[g.neighbors(v)])

    def test_separator_not_larger_than_boundary(self):
        g = Graph.from_matrix(grid_laplacian(16, 16))
        res = bisect_graph(g, seed=0)
        vs = vertex_separator_from_cut(g, res.side)
        assert vs.size <= res.cut  # König: cover <= edges

    def test_empty_cut(self):
        A = sp.block_diag([grid_laplacian(3, 3), grid_laplacian(3, 3)]).tocsr()
        g = Graph.from_matrix(A)
        side = np.array([0] * 9 + [1] * 9)
        vs = vertex_separator_from_cut(g, side)
        assert vs.size == 0

    def test_partition_of_vertices(self, grid16):
        g = Graph.from_matrix(grid16)
        res = bisect_graph(g, seed=3)
        vs = vertex_separator_from_cut(g, res.side)
        all_ids = np.concatenate([vs.separator, vs.side0, vs.side1])
        assert sorted(all_ids.tolist()) == list(range(g.n_vertices))


class TestNGD:
    def test_produces_k_parts(self, grid16):
        r = nested_dissection_partition(grid16, 8, seed=0)
        sizes = r.subdomain_sizes()
        assert sizes.size == 8 and np.all(sizes > 0)

    def test_dbbd_valid(self, grid16):
        r = nested_dissection_partition(grid16, 4, seed=0)
        dbbd = build_dbbd(grid16, r.part, 4)  # validates internally
        assert dbbd.separator_size == r.separator_size

    def test_non_power_of_two(self, grid16):
        r = nested_dissection_partition(grid16, 6, seed=1)
        assert np.all(r.subdomain_sizes() > 0)

    def test_k1_no_separator(self, grid8):
        r = nested_dissection_partition(grid8, 1, seed=0)
        assert r.separator_size == 0
        assert np.all(r.part == 0)

    def test_separator_levels_recorded(self, grid16):
        r = nested_dissection_partition(grid16, 4, seed=0)
        assert len(r.levels) >= 2
        assert sum(l.size for l in r.levels) == r.separator_size

    def test_separator_reasonable_size(self):
        A = grid_laplacian(20, 20)
        r = nested_dissection_partition(A, 8, seed=0)
        assert r.separator_size < 0.25 * A.shape[0]
