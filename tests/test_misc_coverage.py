"""Additional coverage: CLI paths, coarsening edge cases, report
round-trips."""

import numpy as np

from repro.hypergraph import (
    Hypergraph,
    contract_hypergraph,
    heavy_connectivity_matching,
)


class TestCLIMore:
    def test_fig4_cli(self, capsys, tmp_path):
        from repro.experiments.__main__ import main
        rc = main(["fig4", "--scale", "tiny", "--k", "2",
                   "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "fig4.txt").exists()
        assert "ordering" in capsys.readouterr().out

    def test_scaling_cli(self, capsys):
        from repro.experiments.__main__ import main
        rc = main(["scaling", "--scale", "tiny", "--k", "2"])
        assert rc == 0
        assert "two-level" in capsys.readouterr().out

    def test_ablation_cli(self, capsys):
        from repro.experiments.__main__ import main
        rc = main(["ablation", "--scale", "tiny", "--k", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "weight schemes" in out and "FM passes" in out


class TestCoarsenEdgeCases:
    def test_empty_hypergraph_contract(self):
        H = Hypergraph.from_arrays([0], [], 3)
        match = heavy_connectivity_matching(H, seed=0)
        level = contract_hypergraph(H, match)
        assert level.coarse.n_nets == 0
        assert level.coarse.n_vertices <= 3

    def test_single_net_hypergraph(self):
        H = Hypergraph.from_arrays([0, 4], [0, 1, 2, 3], 4)
        match = heavy_connectivity_matching(H, seed=0)
        level = contract_hypergraph(H, match)
        # the lone net either survives (>1 coarse pin) or vanishes
        assert level.coarse.n_nets <= 1

    def test_identical_nets_merge_costs(self):
        # two identical nets must merge with summed cost after contraction
        H = Hypergraph.from_arrays([0, 2, 4], [0, 1, 0, 1], 2,
                                   net_costs=np.array([3, 4]))
        match = np.array([0, 1])  # no matching: identity contraction
        level = contract_hypergraph(H, match)
        assert level.coarse.n_nets == 1
        assert int(level.coarse.net_costs[0]) == 7


class TestGMRESHistory:
    def test_history_monotone_within_cycle(self, spd60, rng):
        from repro.solver import gmres
        b = rng.standard_normal(60)
        res = gmres(lambda v: spd60 @ v, b, tol=1e-12, restart=60)
        # within a single Arnoldi cycle the least-squares residual is
        # non-increasing
        inner = res.residual_norms[1:]
        assert all(a >= b - 1e-12 for a, b in zip(inner, inner[1:]))
