"""Tests for the experiment CLI."""

import pytest


class TestCLI:
    def test_table1_runs(self, capsys, tmp_path):
        from repro.experiments.__main__ import main
        rc = main(["table1", "--scale", "tiny", "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "tdr190k" in out
        assert (tmp_path / "table1.txt").exists()

    def test_unknown_experiment_rejected(self):
        from repro.experiments.__main__ import main
        with pytest.raises(SystemExit):
            main(["fig99"])
