"""scripts/iterate_drift.py: a tree compared with itself does not drift,
and a tree is run with its own circumproj or not at all."""

import os
import subprocess
import sys
from pathlib import Path

from helpers import load_script

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "iterate_drift.py"


def test_a_tree_against_itself_has_zero_drift():
    """Both artifact formats are read back: family-psi writes json,
    iterate-long csv."""
    result = subprocess.run(
        [sys.executable, str(SCRIPT), str(ROOT), str(ROOT), "--workload", "family-psi",
         "--workload", "iterate-long", "--seed", "4242", "--ops", "1"],
        capture_output=True, text=True, timeout=300, check=True)
    header, *rows = result.stdout.strip().splitlines()
    assert header.split() == ["workload", "ops", "methods", "max_abs_diff", "max_error_diff",
                              "max_constant_diff", "changed_verdicts", "changed_stops",
                              "changed_artifacts"]
    assert [row.split() for row in rows] == [
        [name, "1", methods, "0.000e+00", "0.000e+00", "0.000e+00", "0", "0", "0"]
        for name, methods in (("family-psi", "6"), ("iterate-long", "9"))]


def test_a_tree_without_circumproj_is_refused_not_replaced(tmp_path):
    """With a circumproj importable from elsewhere, as an installed package
    is, a tree path that holds none would run that one instead and read as
    zero drift; the script stops instead and names the tree."""
    tree = tmp_path.resolve() / "no_tree"
    tree.mkdir()
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, str(SCRIPT), str(ROOT), str(tree), "--ops", "1"],
                            capture_output=True, text=True, timeout=300, env=env)
    assert result.returncode != 0
    assert str(tree) in result.stderr
    assert result.stdout.splitlines()[1:] == []


def test_compare_counts_each_kind_of_change():
    drift = load_script("iterate_drift")

    def method(label, iterates, errors, stopped_at, constant, verdict):
        return {"label": label, "iterates": iterates, "errors": errors,
                "stopped_at": stopped_at, "constant": constant, "verdict": verdict}

    first = [{"artifacts": "d0",
              "methods": [method("a", [[0.0, 1.0], [0.5, 0.5]], [1.0, 0.5], 1, 0.5, True),
                          method("b", [[1.0], [0.0], [0.0]], [2.0, 1.0, 1.0], 2, None, None),
                          method("c", [[1.0]], [0.0], 0, 0.25, True)]},
             {"error": "NumericalPropernessError: spread"},
             {"artifacts": "d3", "methods": []}]
    second = [{"artifacts": "d1",
               "methods": [method("a", [[0.0, 1.0], [0.5, 0.25]], [1.0, 0.375], 1, 0.75,
                                  False),
                           method("b", [[1.0], [1e-3]], [2.0, 1.0], 1, None, None),
                           method("c", [[1.0]], [0.0], 0, None, None)]},
              {"artifacts": "d2", "methods": []},
              {"artifacts": "d3", "methods": []}]
    assert drift.compare(first, second) == {
        "methods": 3, "max_abs_diff": 0.25, "max_error_diff": 0.125,
        "max_constant_diff": 0.25, "changed_verdicts": 3, "changed_stops": 1,
        "changed_artifacts": 1}
