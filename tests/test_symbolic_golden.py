"""The symbolic set-up kernels reproduce the golden digests recorded
from the commit before their array-native rewrite (identical-output
contract: same perms, parent arrays, G patterns, supernode ranges,
dense blocks and scalings, hence the same S~ and x). The ``solve/``
groups hold ``PDSLin.solve(b)`` to the answers of the commit before it
became the one-column case of ``solve_block``; the ``ladder/`` groups
hold what the solver records, counts, traces and answers under a fault
to the commit before the recovery ladders moved behind one driver; the
``partition/`` groups hold RHB / NGD partitions, the exact-quota column
order and each multilevel kernel (matching, contraction, net splitting,
FM) to the commit before the bisectors went array-native. Those are
integer / IEEE-deterministic on seeded generators, so unlike the groups
that pass through SuperLU they are held on every host.

The cases and the digest function live in
``tools/record_symbolic_golden.py``; see there for how (and when not)
to regenerate ``tests/data/symbolic_golden.json``.
"""

import importlib.util
import json
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
GOLDEN = json.loads((REPO / "tests" / "data" / "symbolic_golden.json")
                    .read_text())


def _load_recorder():
    spec = importlib.util.spec_from_file_location(
        "record_symbolic_golden", REPO / "tools" / "record_symbolic_golden.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


recorder = _load_recorder()


def test_golden_file_covers_every_group():
    assert GOLDEN["schema_version"] == 1
    assert GOLDEN["recorded_from"], "golden file must name its commit"
    assert list(GOLDEN["groups"]) == list(recorder.groups())


@pytest.mark.parametrize("group", list(GOLDEN["groups"]))
def test_kernels_reproduce_golden(group):
    same_host = recorder.host_stamp() == GOLDEN["host"]
    if group.startswith(("e2e/", "solve/", "ladder/")) and not same_host:
        pytest.skip("S~ and x pass through SuperLU/BLAS; golden values were "
                    f"recorded on {GOLDEN['host']}")
    golden = GOLDEN["groups"][group]
    rows = recorder.groups()[group]()
    assert [r[0] for r in rows] == [g[0] for g in golden], \
        "case list changed: re-record from a known-good commit"
    changed = []
    for (case, d_in, d_out), (_, g_in, g_out) in zip(rows, golden):
        if d_in != g_in:
            # built from earlier outputs: either an earlier kernel changed
            # (already listed) or this host's SuperLU differs
            if same_host or changed:
                changed.append(f"{case} (input differs)")
                break
            pytest.skip(f"{case}: input differs on this host "
                        f"(golden recorded on {GOLDEN['host']})")
        elif d_out != g_out:
            changed.append(case)
    assert not changed, f"output differs from golden: {changed}"
