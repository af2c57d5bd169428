"""scripts/iterate_drift.py: a tree compared with itself does not drift."""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "iterate_drift.py"


def test_a_tree_against_itself_has_zero_drift():
    result = subprocess.run(
        [sys.executable, str(SCRIPT), str(ROOT), str(ROOT), "--workload", "family-psi",
         "--seed", "4242", "--ops", "1"],
        capture_output=True, text=True, timeout=300, check=True)
    header, row = result.stdout.strip().splitlines()
    assert header.split() == ["workload", "ops", "methods", "max_abs_diff",
                              "changed_verdicts", "changed_stops"]
    assert row.split() == ["family-psi", "1", "6", "0.000e+00", "0", "0"]


def test_compare_counts_each_kind_of_change():
    spec = importlib.util.spec_from_file_location("iterate_drift", SCRIPT)
    drift = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(drift)

    def method(label, iterates, stopped_at, verdict):
        return {"label": label, "iterates": iterates, "stopped_at": stopped_at,
                "verdict": verdict}

    first = [{"methods": [method("a", [[0.0, 1.0], [0.5, 0.5]], 1, True),
                          method("b", [[1.0], [0.0], [0.0]], 2, None)]},
             {"error": "NumericalPropernessError: spread"}]
    second = [{"methods": [method("a", [[0.0, 1.0], [0.5, 0.25]], 1, False),
                           method("b", [[1.0], [1e-3]], 1, None)]},
              {"methods": []}]
    assert drift.compare(first, second) == {
        "methods": 2, "max_abs_diff": 0.25, "changed_verdicts": 2, "changed_stops": 1}
