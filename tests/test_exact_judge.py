"""Float runs against the exact runs of the problems their float data define.

The judge needs no rate constant and no float rank decision: ``exact.py``
computes the intersection and the trajectory of the same float instance in
rational arithmetic, and a float run must stay within its rounding of that
trajectory, c k eps e0 at step k.
"""

import numpy as np
import pytest

import exact
from circumproj import MethodConfig, intersect, run_linear, symmetric_map_operator
from helpers import random_family, unit_vector

EPS = float(np.finfo(float).eps)

# The largest |e_k - exact e_k| / (max(k, 1) eps e0) allowed. Measured on
# seeds 0-19 of the case below: at most 23. A step that keeps the operator's
# rounding of the fixed component in its step length reads 4e6 to 6e7 on
# seeds 0-5, and a step length off by 1e-3 reads about 1e11.
DRIFT_UNITS = 64


@pytest.mark.parametrize("seed", range(6))
def test_accel_map_stays_within_rounding_of_its_exact_run(seed):
    """Three 4-dimensional subspaces of R^5, a unit start, 30 steps: the float
    and exact intersections have one dimension, and every float error lies
    within DRIFT_UNITS k eps e0 of the exact one."""
    rng = np.random.default_rng(seed)
    subspaces = random_family(rng, 5, 3, 4, 4)
    x0 = unit_vector(rng, 5)
    fixed = intersect(subspaces).subspace
    problem = exact.Problem(subspaces)
    assert fixed.dim == problem.dim
    trace = run_linear(symmetric_map_operator(subspaces), x0,
                       MethodConfig("accel_map", max_iters=30), fixed)
    exact_errors = exact.errors(problem, exact.run(problem, "accel_map", x0, 30))
    e0 = exact_errors[0]
    for k, (error, exact_error) in enumerate(zip(trace.errors, exact_errors, strict=True)):
        assert abs(error - exact_error) <= DRIFT_UNITS * max(k, 1) * EPS * e0, (
            f"step {k}: float error {error:.6e}, exact {exact_error:.6e}")
