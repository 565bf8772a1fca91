"""Unit tests for the simulated machine and the two-level cost model."""

import time

import pytest

from repro.parallel import (
    DEFAULT_STAGE_SCALING,
    SimulatedMachine,
    StageScaling,
    TwoLevelModel,
)


class TestSimulatedMachine:
    def test_parallel_stage_is_max(self):
        m = SimulatedMachine(3)
        for ell, dt in enumerate((0.01, 0.03, 0.02)):
            with m.on_process(ell, "work"):
                time.sleep(dt)
        t = m.parallel_stage_time("work")
        times = m.process_stage_times("work")
        assert t == pytest.approx(times.max())
        assert times[1] > times[0]

    def test_serial_stage_adds(self):
        m = SimulatedMachine(2)
        with m.on_root("assemble"):
            time.sleep(0.01)
        assert m.serial_stage_time("assemble") >= 0.009

    def test_breakdown_combines(self):
        m = SimulatedMachine(2)
        with m.on_process(0, "s"):
            time.sleep(0.005)
        with m.on_root("s"):
            time.sleep(0.005)
        br = m.breakdown()
        assert br["s"] >= 0.009

    def test_makespan_sums_stages(self):
        m = SimulatedMachine(1)
        m.processes[0].timer.add("a", 1.0)
        m.processes[0].timer.add("b", 2.0)
        assert m.makespan() == pytest.approx(3.0)

    def test_balance_ratio_times(self):
        m = SimulatedMachine(2)
        m.processes[0].timer.add("s", 1.0)
        m.processes[1].timer.add("s", 4.0)
        assert m.balance_ratio("s") == pytest.approx(4.0)

    def test_balance_ratio_flops(self):
        m = SimulatedMachine(2)
        m.processes[0].ops.add("s", 100)
        m.processes[1].ops.add("s", 300)
        assert m.balance_ratio("s", use_flops=True) == pytest.approx(3.0)

    def test_balance_ratio_over_participating_only(self):
        # a process that never entered the stage is not a worker of the
        # stage: the ratio covers participants only (paper's metric)
        m = SimulatedMachine(2)
        m.processes[0].timer.add("s", 1.0)
        assert m.balance_ratio("s") == pytest.approx(1.0)
        m.processes[1].timer.add("s", 4.0)
        assert m.balance_ratio("s") == pytest.approx(4.0)

    def test_process_out_of_range(self):
        m = SimulatedMachine(2)
        with pytest.raises(IndexError):
            with m.on_process(5, "s"):
                pass

    def test_report_contains_total(self):
        m = SimulatedMachine(1)
        m.processes[0].timer.add("x", 0.5)
        assert "TOTAL" in m.report()

    def test_stage_entries_accumulate_into_one_total(self):
        m = SimulatedMachine(1)
        for _ in range(3):
            with m.on_process(0, "s"):
                time.sleep(0.002)
        with pytest.raises(RuntimeError):
            with m.on_process(0, "s"):  # a failing body is still charged
                time.sleep(0.002)
                raise RuntimeError("body failed")
        ledger = m.processes[0]
        assert ledger.timer.totals == {"s": ledger.timer.get("s")}
        assert ledger.timer.get("s") >= 0.008
        with pytest.raises(ValueError):
            ledger.timer.add("s", -1.0)


class TestStageScaling:
    def test_single_core_is_t1(self):
        s = StageScaling(serial_fraction=0.1, alpha=0.8,
                         uses_subdomain_cores=True)
        assert s.time(10.0, 1) == pytest.approx(10.0)

    def test_monotone_decreasing(self):
        s = StageScaling(serial_fraction=0.1, alpha=0.8,
                         uses_subdomain_cores=True)
        times = [s.time(10.0, p) for p in (1, 2, 4, 8, 64)]
        assert all(a >= b for a, b in zip(times, times[1:]))

    def test_amdahl_floor(self):
        s = StageScaling(serial_fraction=0.25, alpha=1.0,
                         uses_subdomain_cores=False)
        assert s.time(8.0, 10**6) == pytest.approx(2.0, rel=1e-3)

    def test_invalid_cores(self):
        s = DEFAULT_STAGE_SCALING["LU(D)"]
        with pytest.raises(ValueError):
            s.time(1.0, 0)


class TestTwoLevelModel:
    def make_machine(self):
        m = SimulatedMachine(4)
        for ell in range(4):
            m.processes[ell].timer.add("LU(D)", 2.0)
            m.processes[ell].timer.add("Comp(S)", 3.0)
        m.root.timer.add("LU(S)", 1.0)
        m.root.timer.add("Solve", 1.0)
        return m

    def test_projection_shrinks_with_cores(self):
        m = self.make_machine()
        model = TwoLevelModel(k=4)
        t8 = model.total_time(m, 8)
        t128 = model.total_time(m, 128)
        assert t128 < t8

    def test_subdomain_stages_scale_by_p_over_k(self):
        m = self.make_machine()
        model = TwoLevelModel(k=4)
        p4 = model.project(m, 4)    # 1 core per subdomain
        p32 = model.project(m, 32)  # 8 cores per subdomain
        assert p4["LU(D)"] == pytest.approx(2.0)
        assert p32["LU(D)"] < 1.0

    def test_separator_stages_flatten(self):
        m = self.make_machine()
        model = TwoLevelModel(k=4)
        p_lo = model.project(m, 8)
        p_hi = model.project(m, 1024)
        # Solve has a 40% serial fraction: can't go below 0.4 * t1
        assert p_hi["Solve"] >= 0.4 * 1.0 - 1e-9
        assert p_hi["Solve"] <= p_lo["Solve"]

    def test_unknown_stage_passthrough(self):
        m = SimulatedMachine(2)
        m.root.timer.add("Partition", 5.0)
        model = TwoLevelModel(k=2)
        assert model.project(m, 64)["Partition"] == pytest.approx(5.0)

    def test_cores_per_subdomain_floor(self):
        model = TwoLevelModel(k=8)
        assert model.cores_per_subdomain(4) == 1
        assert model.cores_per_subdomain(64) == 8
