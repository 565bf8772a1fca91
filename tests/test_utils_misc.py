"""Unit tests for op counters and RNG plumbing."""

import numpy as np
import pytest

from repro.utils import (
    OpCounter,
    gemm_flops,
    lu_flops_from_counts,
    rng_from,
    spawn,
    trsv_flops,
)


class TestOpCounter:
    def test_add_and_total(self):
        oc = OpCounter()
        oc.add("gemm", 100)
        oc.add("gemm", 50)
        oc.add("trsv", 10)
        assert oc.get("gemm") == 150
        assert oc.total == 160

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            OpCounter().add("x", -1)

    def test_merge(self):
        a, b = OpCounter(), OpCounter()
        a.add("k", 1)
        b.add("k", 2)
        a.merge(b)
        assert a.get("k") == 3

    def test_flop_formulas(self):
        assert gemm_flops(2, 3, 4) == 48
        assert trsv_flops(10, 3) == 60
        assert lu_flops_from_counts([2, 0], [3, 1]) == 2 + 12

    def test_report_sorted_by_size(self):
        oc = OpCounter()
        oc.add("small", 1)
        oc.add("big", 100)
        rep = oc.report()
        assert rep.index("big") < rep.index("small")


class TestPrng:
    def test_rng_from_int_deterministic(self):
        a = rng_from(7).random()
        b = rng_from(7).random()
        assert a == b

    def test_rng_from_generator_passthrough(self):
        g = np.random.default_rng(1)
        assert rng_from(g) is g

    def test_spawn_children_differ(self):
        kids = spawn(0, 3)
        vals = [k.random() for k in kids]
        assert len(set(vals)) == 3

    def test_spawn_deterministic(self):
        v1 = [k.random() for k in spawn(42, 2)]
        v2 = [k.random() for k in spawn(42, 2)]
        assert v1 == v2

    def test_spawn_negative_rejected(self):
        with pytest.raises(ValueError):
            spawn(0, -1)
