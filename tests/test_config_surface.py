"""The configuration surface: every option is documented with the row
that justifies it, and every malformed value is refused when the config
is built rather than deep inside ``setup()`` / ``solve()``."""

from __future__ import annotations

import dataclasses
import math
import re
from pathlib import Path

import pytest
from tests.conftest import grid_laplacian

from repro.core import rhb_partition
from repro.solver import PDSLinConfig, RuntimeOptions

EXPERIMENTS = Path(__file__).resolve().parent.parent / "EXPERIMENTS.md"
TABLE_HEADING = "## Options and the row that keeps them"


def _option_table() -> dict[str, str]:
    """``option -> justification`` from the EXPERIMENTS.md table."""
    text = EXPERIMENTS.read_text()
    assert TABLE_HEADING in text, f"EXPERIMENTS.md lacks {TABLE_HEADING!r}"
    section = text.split(TABLE_HEADING, 1)[1].split("\n## ", 1)[0]
    rows = {}
    for line in section.splitlines():
        m = re.match(r"\|\s*`(\w+)`\s*\|\s*(\w+)\s*\|(.*)\|\s*$", line)
        if m:
            rows[m.group(1)] = (m.group(2), m.group(3).strip())
    return rows


def _fields(cls) -> set[str]:
    return {f.name for f in dataclasses.fields(cls)}


class TestEveryOptionHasARow:
    def test_each_field_is_in_the_table(self):
        rows = _option_table()
        missing = {f"PDSLinConfig.{n}" for n in _fields(PDSLinConfig)
                   if n not in rows}
        missing |= {f"RuntimeOptions.{n}" for n in _fields(RuntimeOptions)
                    if n not in rows}
        assert not missing, ("options without a row in EXPERIMENTS.md "
                             f"{TABLE_HEADING!r}: {sorted(missing)}")

    def test_table_names_only_live_options(self):
        rows = _option_table()
        owners = {"PDSLinConfig": _fields(PDSLinConfig),
                  "RuntimeOptions": _fields(RuntimeOptions)}
        stale = sorted(n for n, (owner, _) in rows.items()
                       if n not in owners.get(owner, ()))
        assert not stale, f"rows for options that no longer exist: {stale}"

    def test_each_row_names_its_evidence(self):
        empty = sorted(n for n, (_, why) in _option_table().items()
                       if len(why) < 10)
        assert not empty, f"rows without a justification: {empty}"


def test_option_counts_are_pinned():
    # a ratchet: adding an option means changing this count and adding
    # its EXPERIMENTS.md row on purpose, in the same change
    assert len(_fields(PDSLinConfig)) == 23
    assert len(_fields(RuntimeOptions)) == 7


@pytest.mark.parametrize("field, value", [
    ("metric", "bogus"),
    ("scheme", "bogus"),
    ("epsilon", 2.0),
    ("epsilon", -0.1),
    ("drop_interface", -1.0),
    ("drop_interface", math.nan),
    ("drop_schur", -1.0),
    ("gmres_restart", 0),
    ("gmres_maxiter", 0),
    ("partition_trials", 0),
    ("block_size", 2.5),
    ("gmres_tol", 0.0),
    ("gmres_tol", math.inf),
    ("certify_tol", 0.0),
    ("certify_tol", math.inf),
    ("certify_tol", math.nan),
])
def test_malformed_value_rejected_at_construction(field, value):
    with pytest.raises(ValueError, match=field):
        PDSLinConfig(**{field: value})


def test_boundary_values_accepted():
    cfg = PDSLinConfig(epsilon=0.0, drop_interface=0.0, drop_schur=0.0,
                       partition_trials=1, block_size=1, gmres_restart=1,
                       gmres_maxiter=1)
    assert cfg.epsilon == 0.0 and cfg.partition_trials == 1


def test_rhb_partition_rejects_unknown_metric():
    with pytest.raises(ValueError, match="metric"):
        rhb_partition(grid_laplacian(6, 6), 2, metric="bogus")
