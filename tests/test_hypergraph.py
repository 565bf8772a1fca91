"""Unit tests for the hypergraph substrate."""

import numpy as np
import pytest
from tests.conftest import grid_laplacian

from repro.hypergraph import (
    Hypergraph,
    bisect_hypergraph,
    bisection_cut,
    coarsen_hypergraph,
    contract_hypergraph,
    cutsize,
    enforce_exact_quota,
    fm_refine_hypergraph,
    heavy_connectivity_matching,
    hypergraph_gains,
    imbalance,
    initial_net_costs,
    net_connectivities,
    part_weights,
    split_by_side,
)


def small_h() -> Hypergraph:
    """4 vertices, 3 nets: {0,1}, {1,2,3}, {3}."""
    return Hypergraph.from_arrays(
        net_ptr=[0, 2, 5, 6], pins=[0, 1, 1, 2, 3, 3], n_vertices=4)


class TestStructure:
    def test_counts(self):
        H = small_h()
        assert H.n_nets == 3 and H.n_vertices == 4 and H.n_pins == 6

    def test_incidence_transpose(self):
        H = small_h()
        np.testing.assert_array_equal(H.vertex_net_list(1), [0, 1])
        np.testing.assert_array_equal(H.vertex_net_list(3), [1, 2])

    def test_column_net_model(self, grid8):
        H = Hypergraph.column_net_model(grid8)
        assert H.n_vertices == grid8.shape[0]
        assert H.n_nets == grid8.shape[1]
        assert H.n_pins == grid8.nnz

    def test_row_net_model_is_transpose(self, grid8):
        Hc = Hypergraph.column_net_model(grid8)
        Hr = Hypergraph.row_net_model(grid8.T.tocsr())
        assert Hr.n_nets == Hc.n_nets
        assert Hr.n_pins == Hc.n_pins

    def test_incidence_matrix_roundtrip(self):
        H = small_h()
        I = H.to_incidence_matrix()
        assert I.shape == (3, 4)
        assert I.nnz == 6

    def test_validate_duplicate_pins(self):
        H = Hypergraph.from_arrays([0, 2], [1, 1], 3)
        with pytest.raises(ValueError):
            H.validate()

    def test_flat_weights_become_single_constraint(self):
        H = Hypergraph.from_arrays([0, 1], [0], 2,
                                   vertex_weights=np.array([3, 4]))
        assert H.vertex_weights.shape == (2, 1)

    def test_pin_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Hypergraph.from_arrays([0, 1], [5], 2)


class TestMetrics:
    def test_connectivities(self):
        H = small_h()
        part = np.array([0, 0, 1, 1])
        lam = net_connectivities(H, part, 2)
        np.testing.assert_array_equal(lam, [1, 2, 1])

    def test_cut_metrics_consistent(self):
        H = small_h()
        part = np.array([0, 1, 0, 1])
        # net0 {0,1}: cut; net1 {1,2,3}: cut; net2 {3}: not
        assert cutsize(H, part, 2, "con1") == 2
        assert cutsize(H, part, 2, "cnet") == 2
        assert cutsize(H, part, 2, "soed") == 4

    def test_soed_equals_con1_plus_cnet(self, grid8):
        H = Hypergraph.column_net_model(grid8)
        rng = np.random.default_rng(0)
        part = rng.integers(0, 4, H.n_vertices)
        assert cutsize(H, part, 4, "soed") == \
            cutsize(H, part, 4, "con1") + cutsize(H, part, 4, "cnet")

    def test_weighted_nets(self):
        H = Hypergraph.from_arrays([0, 2], [0, 1], 2,
                                   net_costs=np.array([5]))
        part = np.array([0, 1])
        assert cutsize(H, part, 2, "con1") == 5
        assert cutsize(H, part, 2, "soed") == 10

    def test_single_part_zero_cut(self, grid8):
        H = Hypergraph.column_net_model(grid8)
        part = np.zeros(H.n_vertices, dtype=np.int64)
        for m in ("con1", "cnet", "soed"):
            assert cutsize(H, part, 1, m) == 0

    def test_imbalance_eq6(self):
        H = Hypergraph.from_arrays([0], [], 4,
                                   vertex_weights=np.array([1, 1, 1, 3]))
        part = np.array([0, 0, 0, 1])
        # W = (3, 3), Wavg = 3 -> imbalance 0
        assert imbalance(H, part, 2)[0] == pytest.approx(0.0)

    def test_part_weights_multiconstraint(self):
        w = np.array([[1, 10], [2, 20], [3, 30]])
        H = Hypergraph.from_arrays([0], [], 3, vertex_weights=w)
        W = part_weights(H, np.array([0, 1, 1]), 2)
        np.testing.assert_array_equal(W, [[1, 10], [5, 50]])

    def test_invalid_metric_rejected(self):
        H = small_h()
        with pytest.raises(ValueError):
            cutsize(H, np.zeros(4, dtype=int), 1, "bogus")


class TestCoarsening:
    def test_matching_symmetric(self, grid16):
        H = Hypergraph.column_net_model(grid16)
        match = heavy_connectivity_matching(H, seed=0)
        for v in range(H.n_vertices):
            if match[v] >= 0:
                assert match[match[v]] == v

    def test_contract_preserves_weight(self, grid16):
        H = Hypergraph.column_net_model(grid16)
        level = contract_hypergraph(H, heavy_connectivity_matching(H, seed=0))
        np.testing.assert_array_equal(level.coarse.total_weight(),
                                      H.total_weight())

    def test_coarse_cut_equals_fine_cut_under_projection(self, grid16):
        H = Hypergraph.column_net_model(grid16)
        level = contract_hypergraph(H, heavy_connectivity_matching(H, seed=1))
        Hc = level.coarse
        rng = np.random.default_rng(2)
        cside = rng.integers(0, 2, Hc.n_vertices)
        fine = level.project(cside)
        # con1 == cnet in a bisection; costs are preserved through the
        # single-pin-drop + identical-net-merge transformations
        assert cutsize(Hc, cside, 2, "con1") == cutsize(H, fine, 2, "con1")

    def test_coarsen_shrinks(self, grid16):
        H = Hypergraph.column_net_model(grid16)
        levels = coarsen_hypergraph(H, min_vertices=40, seed=0)
        assert levels and levels[-1].coarse.n_vertices < H.n_vertices / 2


class TestFM:
    def test_bisection_cut_reference(self):
        H = small_h()
        side = np.array([0, 1, 0, 1])
        assert bisection_cut(H, side) == 2

    def test_fm_improves_random(self, grid16):
        H = Hypergraph.column_net_model(grid16)
        rng = np.random.default_rng(0)
        side = rng.integers(0, 2, H.n_vertices)
        cut0 = bisection_cut(H, side)
        caps = np.full((2, 1), 0.6 * H.n_vertices)
        refined, cut = fm_refine_hypergraph(H, side, caps=caps)
        assert cut < cut0
        assert cut == bisection_cut(H, refined)

    def test_incremental_cut_matches_recomputed(self, grid8):
        # run FM and double-check its reported cut against from-scratch
        H = Hypergraph.column_net_model(grid8)
        rng = np.random.default_rng(5)
        for _trial in range(3):
            side = rng.integers(0, 2, H.n_vertices)
            caps = np.full((2, 1), 0.7 * H.n_vertices)
            refined, cut = fm_refine_hypergraph(H, side, caps=caps)
            assert cut == bisection_cut(H, refined)

    def test_caps_respected(self, grid16):
        H = Hypergraph.column_net_model(grid16)
        rng = np.random.default_rng(1)
        side = rng.integers(0, 2, H.n_vertices)
        caps = np.full((2, 1), 0.55 * H.n_vertices)
        refined, _ = fm_refine_hypergraph(H, side, caps=caps)
        counts = np.bincount(refined, minlength=2)
        assert counts.max() <= caps[0, 0]

    def test_gains_match_definition(self, grid8):
        H = Hypergraph.column_net_model(grid8)
        rng = np.random.default_rng(3)
        side = rng.integers(0, 2, H.n_vertices)
        sigma = np.zeros((2, H.n_nets), dtype=np.int64)
        for j in range(H.n_nets):
            for p in H.net_pins(j):
                sigma[side[p], j] += 1
        gains = hypergraph_gains(H, side, sigma)
        # brute force: gain = cut(before) - cut(after move)
        base = bisection_cut(H, side)
        for v in range(0, H.n_vertices, 7):
            s2 = side.copy()
            s2[v] = 1 - s2[v]
            assert gains[v] == base - bisection_cut(H, s2)

    def test_bad_caps_shape_rejected(self, grid8):
        H = Hypergraph.column_net_model(grid8)
        with pytest.raises(ValueError):
            fm_refine_hypergraph(H, np.zeros(H.n_vertices, dtype=int),
                                 caps=np.ones(3))


class TestBisect:
    def test_grid_quality(self):
        H = Hypergraph.column_net_model(grid_laplacian(16, 16))
        res = bisect_hypergraph(H, epsilon=0.05, seed=0, n_trials=4)
        assert res.cut <= 40  # straight cut costs ~32 nets

    def test_balance(self, grid16):
        H = Hypergraph.column_net_model(grid16)
        res = bisect_hypergraph(H, epsilon=0.05, seed=0)
        W = res.part_weights[:, 0]
        assert W.max() <= (1.05) * H.n_vertices / 2 + 1

    def test_exact_quota(self, grid16):
        H = Hypergraph.column_net_model(grid16)
        res = bisect_hypergraph(H, seed=0, quota0=100)
        assert int((res.side == 0).sum()) == 100

    def test_enforce_exact_quota_counts(self, grid8):
        H = Hypergraph.column_net_model(grid8)
        side = np.zeros(H.n_vertices, dtype=np.int64)
        out = enforce_exact_quota(H, side, 20)
        assert int((out == 0).sum()) == 20

    def test_multiconstraint_balance(self, grid16):
        H0 = Hypergraph.column_net_model(grid16)
        rng = np.random.default_rng(0)
        w = np.stack([np.ones(H0.n_vertices, dtype=np.int64),
                      rng.integers(1, 5, H0.n_vertices)], axis=1)
        H = Hypergraph.from_arrays(H0.net_ptr, H0.pins, H0.n_vertices,
                                   vertex_weights=w)
        res = bisect_hypergraph(H, epsilon=0.15, seed=0)
        totals = H.total_weight()
        for c in range(2):
            assert res.part_weights[:, c].max() <= 0.65 * totals[c]


class TestNetOps:
    def test_initial_costs(self):
        np.testing.assert_array_equal(initial_net_costs(3, "soed"), [2, 2, 2])
        np.testing.assert_array_equal(initial_net_costs(3, "con1"), [1, 1, 1])

    def test_split_partitions_vertices(self):
        H = small_h()
        side = np.array([0, 0, 1, 1])
        spl = split_by_side(H, side, "con1")
        assert spl.children[0].n_vertices == 2
        assert spl.children[1].n_vertices == 2
        np.testing.assert_array_equal(spl.vertex_ids[0], [0, 1])

    def test_cut_net_splitting_con1(self):
        H = small_h()
        side = np.array([0, 0, 1, 1])
        spl = split_by_side(H, side, "con1")
        # net1 {1,2,3} is cut: fragment {1} on side0, {2,3} on side1
        np.testing.assert_array_equal(spl.cut_net_ids, [1])
        assert spl.children[0].n_nets == 2  # net0 + fragment of net1
        assert spl.children[1].n_nets == 2  # fragment of net1 + net2

    def test_cut_net_discarding_cnet(self):
        H = small_h()
        side = np.array([0, 0, 1, 1])
        spl = split_by_side(H, side, "cnet")
        assert spl.children[0].n_nets == 1
        assert spl.children[1].n_nets == 1

    def test_soed_cost_halving(self):
        H = Hypergraph.from_arrays([0, 3], [0, 1, 2], 3,
                                   net_costs=np.array([2]))
        side = np.array([0, 1, 1])
        spl = split_by_side(H, side, "soed")
        assert spl.cut_cost == 2
        assert spl.children[0].net_costs.tolist() == [1]
        assert spl.children[1].net_costs.tolist() == [1]

    def test_recursive_soed_accumulates_lambda(self):
        # one net with 4 pins split into 4 singleton parts: soed = 4
        H = Hypergraph.from_arrays([0, 4], [0, 1, 2, 3], 4,
                                   net_costs=initial_net_costs(1, "soed"))
        total = 0
        spl = split_by_side(H, np.array([0, 0, 1, 1]), "soed")
        total += spl.cut_cost
        for child in spl.children:
            spl2 = split_by_side(child, np.array([0, 1]), "soed")
            total += spl2.cut_cost
        assert total == 4  # lambda = 4

    def test_recursive_con1_accumulates_lambda_minus_1(self):
        H = Hypergraph.from_arrays([0, 4], [0, 1, 2, 3], 4)
        total = 0
        spl = split_by_side(H, np.array([0, 0, 1, 1]), "con1")
        total += spl.cut_cost
        for child in spl.children:
            spl2 = split_by_side(child, np.array([0, 1]), "con1")
            total += spl2.cut_cost
        assert total == 3  # lambda - 1

    def test_net_ids_traced_through_split(self):
        H = small_h()
        side = np.array([0, 0, 1, 1])
        spl = split_by_side(H, side, "con1")
        assert 1 in spl.children[0].net_ids  # fragment keeps original id


class TestVectorizedKernels:
    """Regressions for the vectorized cut/gain kernels against slow
    per-net reference loops."""

    @staticmethod
    def _random_h(rng, n_vertices=30, n_nets=20):
        nets = [rng.choice(n_vertices, size=int(rng.integers(0, 6)),
                           replace=False) for _ in range(n_nets)]
        net_ptr = np.concatenate(
            ([0], np.cumsum([len(net) for net in nets]))).astype(np.int64)
        pins = (np.concatenate(nets) if net_ptr[-1]
                else np.empty(0, dtype=np.int64))
        costs = rng.integers(1, 50, n_nets)
        return Hypergraph.from_arrays(net_ptr, pins, n_vertices,
                                      net_costs=costs)

    @staticmethod
    def _cut_reference(H, side):
        total = 0
        for j in range(H.n_nets):
            sides = {int(side[p]) for p in H.net_pins(j)}
            if len(sides) == 2:
                total += int(H.net_costs[j])
        return total

    def test_bisection_cut_fuzz_vs_reference(self):
        # empty nets, single-pin nets, and weighted nets all in play
        rng = np.random.default_rng(0)
        for _trial in range(20):
            H = self._random_h(rng)
            side = rng.integers(0, 2, H.n_vertices)
            assert bisection_cut(H, side) == self._cut_reference(H, side)

    def test_bisection_cut_all_one_side(self):
        rng = np.random.default_rng(1)
        H = self._random_h(rng)
        assert bisection_cut(H, np.zeros(H.n_vertices, dtype=int)) == 0
        assert bisection_cut(H, np.ones(H.n_vertices, dtype=int)) == 0

    def test_gains_exact_past_float53(self):
        # net costs beyond 2^53: a float64 accumulator (the old
        # np.bincount(weights=...) path) rounds the +3 away; the int64
        # np.add.at path must stay exact
        big = 2 ** 53
        H = Hypergraph.from_arrays(
            net_ptr=[0, 2, 4], pins=[0, 1, 0, 2], n_vertices=3,
            net_costs=[big, 3])
        side = np.array([0, 1, 1])
        sigma = np.zeros((2, H.n_nets), dtype=np.int64)
        for j in range(H.n_nets):
            for p in H.net_pins(j):
                sigma[side[p], j] += 1
        gains = hypergraph_gains(H, side, sigma)
        assert gains.dtype == np.int64
        # both nets are cut with vertex 0 their sole side-0 pin: moving
        # it uncuts both, for an exactly representable gain of 2^53 + 3
        assert gains[0] == big + 3
        assert float(big) + 3.0 != big + 3  # the float64 rounding trap
        assert gains[1] == big and gains[2] == 3
