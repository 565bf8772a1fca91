"""Tests for the two-level-vs-one-level scaling experiment."""

import pytest

from repro.experiments import format_scaling, run_twolevel_vs_onelevel


class TestScalingExperiment:
    @pytest.fixture(scope="class")
    def points(self):
        return run_twolevel_vs_onelevel("tdr190k", "tiny", cores=(4, 16),
                                        k_two_level=4, seed=0)

    def test_point_count(self, points):
        assert len(points) == 4

    def test_schur_grows_one_level(self, points):
        one = {p.cores: p for p in points if p.mode.startswith("one")}
        assert one[16].schur_size > one[4].schur_size

    def test_two_level_schur_constant(self, points):
        two = {p.cores: p for p in points if p.mode.startswith("two")}
        assert two[4].schur_size == two[16].schur_size

    def test_two_level_scales(self, points):
        two = {p.cores: p for p in points if p.mode.startswith("two")}
        assert two[16].total_time < two[4].total_time

    def test_format(self, points):
        txt = format_scaling(points)
        assert "two-level" in txt and "one-level" in txt
