"""The robustness judge: every built-in recipe, alone, against each input
that is valid in theory but hard in floating point.

Each cell runs one recipe on one row (``max_iters`` 200, ``stop_tol``
1e-14, start (0.3, 0.9, 0.7) in R^3 unless the row says otherwise). It must
run to the end, and its audit must hold. A cell that does not is a strict
xfail whose reason names the ROADMAP item that mends it, so a cell that
starts to pass fails the module until its mark goes. Scaled starts need no
row: ``tests/test_scale_equivariance.py`` pins every recipe at 2^j.
"""

import numpy as np
import pytest

from circumproj import parse_config, run_experiment

RECIPES = {
    "cim_psi": {"method": "cim", "operator_set": "psi"},
    "cim_psi_sym": {"method": "cim", "operator_set": "psi", "symmetrized": True},
    "cim_psi_sym_prefixed": {"method": "cim", "operator_set": "psi", "symmetrized": True,
                             "prefix": "sym_map_product"},
    "cim_sum": {"method": "cim", "operator_set": "identity_plus_reflectors"},
    "cim_product": {"method": "cim", "operator_set": "identity_plus_prefix_products"},
    "map": {"method": "map"},
    "sym_map": {"method": "sym_map"},
    "accel_map": {"method": "accel_map"},
    "dr": {"method": "dr"},
    "averaged_sum": {"method": "averaged_iter", "builder": "sum"},
    "averaged_product": {"method": "averaged_iter", "builder": "product"},
}

START = [0.3, 0.9, 0.7]
X_Y_PLANE = {"span": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]}
DIAGONAL = {"span": [[1.0, 1.0, 0.0]]}


def _lines_at(theta: float) -> list:
    return [{"span": [[1.0, 0.0, 0.0]]}, {"span": [[np.cos(theta), np.sin(theta), 0.0]]}]


def _in_span_at(j: int) -> list:
    """Two planes through the origin, each anchored at 2^j times a point of
    its span."""
    return [{"anchor": np.ldexp([1.0, 2.0, 2.0], j).tolist(),
             "span": [[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]]},
            {"anchor": np.ldexp([1.0, 1.0, 3.0], j).tolist(),
             "span": [[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]}]


# row -> (subspace literals, start)
ROWS = {
    "duplicated": ([X_Y_PLANE, X_Y_PLANE, DIAGONAL], START),
    "nested": ([{"span": [[1.0, 0.0, 0.0]]}, X_Y_PLANE], START),
    "theta_1e-5": (_lines_at(1e-5), START),
    "theta_1e-8": (_lines_at(1e-8), START),
    "r3_and_a_line": ([{"span": np.eye(3).tolist()}, DIAGONAL], START),
    "origin_and_a_line": ([{"anchor": [0.0, 0.0, 0.0]}, DIAGONAL], START),
    "affine_lines_in_r2": ([{"anchor": [1.0, 1.0], "span": [[1.0, 0.0]]},
                            {"anchor": [1.0, 1.0], "span": [[1.0, 1.0]]}], [0.3, 0.9]),
    "affine_planes_in_r3": ([{"anchor": [1.0, 2.0, 3.0], "span": X_Y_PLANE["span"]},
                             {"anchor": [1.0, 2.0, 3.0],
                              "span": [[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]]}], START),
    # two coordinate planes meeting in the first axis, started on it
    "start_in_m": ([X_Y_PLANE, {"span": [[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]}], [0.3, 0.0, 0.0]),
    "in_span_2^26": (_in_span_at(26), START),
}

ROUNDING = (AssertionError, "item 4: rounding against a zero or tight bound fails the audit")
CHAIN = (RuntimeError, "item 4: 'rate chain violated' aborts the run")
DISJOINT = (ValueError, "item 32: intersect calls the planes disjoint, its tolerance scaling "
                        "with the rounding of (I - P_i) a_i, not with a_i")

# (row, recipe) -> (what the cell raises, the reason)
KNOWN = {
    **{("duplicated", r): ROUNDING for r in ("cim_psi", "cim_psi_sym", "cim_psi_sym_prefixed",
                                              "map", "sym_map", "accel_map")},
    **{("nested", r): ROUNDING for r in ("cim_psi", "cim_psi_sym")},
    **{("theta_1e-8", r): CHAIN for r in ("cim_psi_sym_prefixed", "accel_map")},
    **{("r3_and_a_line", r): ROUNDING for r in RECIPES if r not in ("cim_sum", "cim_product")},
    **{("origin_and_a_line", r): ROUNDING for r in ("cim_psi", "cim_psi_sym", "dr")},
    **{("in_span_2^26", r): DISJOINT for r in RECIPES},
}


def _cell(row: str, recipe: str):
    known = KNOWN.get((row, recipe))
    marks = () if known is None else pytest.mark.xfail(raises=known[0], reason=known[1],
                                                       strict=True)
    return pytest.param(row, recipe, id=f"{row}-{recipe}", marks=marks)


@pytest.mark.parametrize("row, recipe", [_cell(row, recipe) for row in ROWS for recipe in RECIPES])
def test_every_recipe_answers_every_hard_input(row, recipe):
    literals, start = ROWS[row]
    config = parse_config({
        "name": "hard", "ambient_dim": len(start), "max_iters": 200, "stop_tol": 1e-14,
        "x0": {"kind": "explicit", "point": start},
        "instances": {"kind": "explicit", "items": [{"label": row, "subspaces": literals}]},
        "methods": [RECIPES[recipe]],
    })
    (outcome,), = (instance.methods for instance in run_experiment(config).instances)
    assert outcome.report.all_satisfied, f"slack_min {outcome.report.slack_min:.3e}"
