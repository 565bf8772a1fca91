"""The smoke runner's contract: one PASS/FAIL line per check, exit 0
iff every check passed, 2 on an unknown scenario; and the scenarios CI
runs are exactly the registered ones."""

import json
import os
import re
from pathlib import Path

import pytest

from repro import smoke
from repro.obs import Tracer
from repro.parallel.exec import ENV_TRANSPORT_CHECKSUM
from repro.solver.partasks import ENV_CRASH_SUBDOMAIN

REPO = Path(__file__).resolve().parent.parent


def _check_lines(text: str) -> list[str]:
    return [line for line in text.splitlines()
            if line.startswith(("PASS ", "FAIL "))]


class TestCli:
    def test_passing_scenario_exits_zero(self, tmp_path, capsys):
        metrics, trace = tmp_path / "m" / "metrics.json", tmp_path / "t.json"
        code = smoke.main(["smoke", "--backend", "serial",
                           "--metrics", str(metrics), "--trace", str(trace)])
        lines = _check_lines(capsys.readouterr().out)
        assert code == 0
        assert lines == ["PASS converged"]
        assert json.loads(metrics.read_text())["meta"]["scenario"] == "smoke"
        assert json.loads(trace.read_text())["traceEvents"]

    def test_failed_check_exits_one(self, monkeypatch, capsys):
        def forced():
            return smoke.SmokeRun({"converged": True, "recovered": False},
                                  Tracer(), {"why": "forced"})
        monkeypatch.setitem(smoke.SCENARIOS, "faults", forced)
        code = smoke.main(["faults"])
        lines = _check_lines(capsys.readouterr().out)
        assert code == 1
        assert lines == ["PASS converged", "FAIL recovered"]

    def test_unknown_scenario_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            smoke.main(["no-such-drill"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


def test_ci_runs_exactly_the_registered_scenarios():
    """A renamed or dropped drill fails here before it fails in CI."""
    text = "\n".join(p.read_text() for p in
                     sorted((REPO / ".github" / "workflows").glob("*.yml")))
    in_ci = set(re.findall(r"-m repro\.smoke ([\w-]+)", text))
    assert in_ci, "no workflow runs python -m repro.smoke"
    assert in_ci <= set(smoke.SCENARIOS), in_ci - set(smoke.SCENARIOS)
    assert set(smoke.SCENARIOS) <= in_ci, set(smoke.SCENARIOS) - in_ci


def test_chaos_seams_arm_exactly_and_restore(monkeypatch):
    monkeypatch.setenv(ENV_CRASH_SUBDOMAIN, "2")
    monkeypatch.delenv(ENV_TRANSPORT_CHECKSUM, raising=False)
    with smoke.chaos_seams({ENV_TRANSPORT_CHECKSUM: "0"}):
        armed = {name: os.environ.get(name) for name in smoke.SEAMS}
    assert armed == {name: ("0" if name == ENV_TRANSPORT_CHECKSUM else None)
                     for name in smoke.SEAMS}
    assert os.environ[ENV_CRASH_SUBDOMAIN] == "2"
    assert ENV_TRANSPORT_CHECKSUM not in os.environ
