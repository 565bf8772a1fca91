"""Additional cost-model and machine-ledger behaviour tests."""

import pytest

from repro.parallel import (
    DEFAULT_STAGE_SCALING,
    SimulatedMachine,
    StageScaling,
    TwoLevelModel,
)


class TestDefaultScalingTable:
    def test_all_paper_stages_present(self):
        assert set(DEFAULT_STAGE_SCALING) == {"LU(D)", "Comp(S)", "LU(S)",
                                              "Solve"}

    def test_subdomain_stages_flagged(self):
        assert DEFAULT_STAGE_SCALING["LU(D)"].uses_subdomain_cores
        assert DEFAULT_STAGE_SCALING["Comp(S)"].uses_subdomain_cores
        assert not DEFAULT_STAGE_SCALING["LU(S)"].uses_subdomain_cores
        assert not DEFAULT_STAGE_SCALING["Solve"].uses_subdomain_cores

    def test_separator_stages_scale_worse(self):
        # higher serial fraction + lower alpha for the separator stages
        lud = DEFAULT_STAGE_SCALING["LU(D)"]
        solve = DEFAULT_STAGE_SCALING["Solve"]
        assert solve.serial_fraction > lud.serial_fraction
        assert solve.alpha < lud.alpha


class TestCustomScaling:
    def test_override_table(self):
        m = SimulatedMachine(2)
        m.processes[0].timer.add("LU(D)", 4.0)
        custom = {"LU(D)": StageScaling(serial_fraction=0.0, alpha=1.0,
                                        uses_subdomain_cores=True)}
        model = TwoLevelModel(k=2, scaling=custom)
        proj = model.project(m, 8)  # 4 cores per subdomain, ideal scaling
        assert proj["LU(D)"] == pytest.approx(1.0)

    def test_invalid_serial_fraction_rejected(self):
        bad = {"X": StageScaling(serial_fraction=2.0, alpha=1.0,
                                 uses_subdomain_cores=True)}
        with pytest.raises(ValueError):
            TwoLevelModel(k=2, scaling=bad)

    def test_k_validation(self):
        with pytest.raises(ValueError):
            TwoLevelModel(k=0)


class TestLedgerInteraction:
    def test_ops_and_time_independent(self):
        m = SimulatedMachine(2)
        with m.on_process(0, "s") as ledger:
            ledger.ops.add("s", 500)
        assert m.process_stage_flops("s")[0] == 500
        assert m.process_stage_flops("s")[1] == 0
        assert m.parallel_stage_time("s") >= 0.0

    def test_stage_names_union(self):
        m = SimulatedMachine(2)
        m.processes[0].timer.add("a", 1.0)
        m.root.timer.add("b", 1.0)
        assert m.stage_names() == ["a", "b"]
