"""Acceptance gate: eleven pinned criteria, one pass line each.

Every criterion prints a single line on success; a failed assert keeps the
line from printing and surfaces the offending case. Tolerances are pinned
in the asserts. Ratio and bound checks skip rows whose theoretical value
sits below the floating point noise floor of a double precision iterate;
those rows cannot be distinguished from rounding error and auditing them
would test the arithmetic unit, not the mathematics.
"""

import filecmp
from pathlib import Path

import numpy as np

from circumproj import (
    AffineSubspace,
    MethodConfig,
    OperatorSet,
    RateConstant,
    accel_constants,
    affine_hull,
    audit_bound,
    build_product_averaged,
    build_psi,
    build_sum_averaged,
    circumcenter,
    circumcenter_map,
    compose,
    fixed_point_set,
    identity,
    intersect,
    make_reflector,
    map_operator,
    operator_rate,
    run_cim,
    run_linear,
    run_map,
    symmetric_map_operator,
    tuple_angle_cos,
)
from circumproj import cli
from helpers import random_family, reflectors_of, unit_vector
from oracles import oracle_circumcenter

REPO_ROOT = Path(__file__).resolve().parent.parent

LINE_X = AffineSubspace.linear([[1.0, 0.0]])
LINE_DIAG = AffineSubspace.linear([[1.0, 1.0]])
LINE_Y = AffineSubspace.linear([[0.0, 1.0]])


def _collinear_points(rng, count=4, ambient=5):
    direction = rng.standard_normal(ambient)
    direction /= np.linalg.norm(direction)
    start = rng.standard_normal(ambient)
    gaps = rng.uniform(0.5, 2.0, size=count - 1)
    positions = np.concatenate([[0.0], np.cumsum(gaps)])
    return start + positions[:, None] * direction


def test_criterion_01_circumcenter_matches_independent_oracle():
    rng = np.random.default_rng(101)
    agreed = 0
    absent = 0
    for case in range(500):
        if case % 5 == 4:
            points = _collinear_points(rng)
        else:
            points = rng.standard_normal((int(rng.integers(1, 6)), 5))
        ours = circumcenter(points)
        reference = oracle_circumcenter(points)
        if reference is None:
            assert ours.center is None, (
                f"case {case}: oracle says absent, solver returned {ours.center}"
            )
            absent += 1
        else:
            assert ours.center is not None, f"case {case}: solver missed a circumcenter"
            gap = np.linalg.norm(ours.center - reference)
            assert gap <= 1e-8 * (1.0 + np.linalg.norm(reference)), (
                f"case {case}: centers differ by {gap}"
            )
            agreed += 1
    assert agreed >= 350 and absent >= 90, f"corpus skew: {agreed} agreed, {absent} absent"
    print(f"criterion 1 PASS: circumcenter oracle equivalence on 500 sets "
          f"({agreed} centers matched, {absent} absences matched)")


def _psi_families(seed, count):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        family = random_family(rng, 10, int(rng.integers(1, 5)), 1, 5)
        x = 3.0 * unit_vector(rng, 10)
        y_seed = rng.standard_normal(10)
        out.append((family, x, y_seed))
    return out


def test_criterion_02_properness_and_double_projection():
    checked = 0
    for family, x, _ in _psi_families(202, 200):
        operator_set = build_psi(reflectors_of(family))
        center = circumcenter_map(operator_set, x)
        images = operator_set.images(x)
        hull = affine_hull(images)
        through = hull.project(operator_set.common_fixed.project(x))
        gap = np.linalg.norm(center - through)
        assert gap <= 1e-8 * (1.0 + np.linalg.norm(x)), (
            f"double projection identity broke by {gap} on a family of "
            f"{len(family)} subspaces"
        )
        checked += 1
    print(f"criterion 2 PASS: properness and the double projection identity "
          f"held on {checked} reflector families")


def test_criterion_03_pythagoras_along_traces():
    rows = 0
    for family, x, y_seed in _psi_families(202, 200):
        operator_set = build_psi(reflectors_of(family))
        trace = run_cim(operator_set, x, MethodConfig(method="cim", max_iters=30))
        anchors = [operator_set.common_fixed.project(np.zeros(10)),
                   operator_set.common_fixed.project(3.0 * y_seed)]
        for k in range(trace.iterates.shape[0] - 1):
            x_k = trace.iterates[k]
            c_k = trace.iterates[k + 1]
            for y in anchors:
                rhs = float(np.dot(x_k - y, x_k - y))
                lhs = float(np.dot(c_k - y, c_k - y) + np.dot(c_k - x_k, c_k - x_k))
                assert abs(lhs - rhs) <= 1e-8 * (1.0 + rhs), (
                    f"Pythagoras split off by {abs(lhs - rhs)} at iterate {k}"
                )
                rows += 1
    print(f"criterion 3 PASS: Pythagorean identity held at {rows} trace rows")


def _filtered_triples(seed, count, low=0.45, high=0.995, attempts=4000):
    rng = np.random.default_rng(seed)
    instances = []
    for _ in range(attempts):
        if len(instances) == count:
            break
        family = random_family(rng, 10, 3, 2, 5)
        x0 = 2.0 * unit_vector(rng, 10)
        inter = intersect(family).subspace
        gamma = tuple_angle_cos(family, inter)
        if not low <= gamma <= high:
            continue
        if np.linalg.norm(x0 - inter.project(x0)) < 0.1:
            continue
        instances.append((family, x0, gamma))
    assert len(instances) == count, f"only {len(instances)} usable instances drawn"
    return instances


def test_criterion_04_map_and_crm_rate_bounds():
    instances = _filtered_triples(404, 100)
    for family, x0, gamma in instances:
        sweeps = run_map(family, x0, MethodConfig(method="map", max_iters=30),
                         intersect(family).subspace)
        report = audit_bound(sweeps, RateConstant("tuple_rate", gamma, {}))
        assert report.all_satisfied, (
            f"MAP exceeded gamma^k, slack {report.slack_min} at gamma {gamma}"
        )
        crm = run_cim(build_psi(reflectors_of(family)), x0,
                      MethodConfig(method="cim", max_iters=30))
        report = audit_bound(crm, RateConstant("tuple_rate", gamma, {}))
        assert report.all_satisfied, (
            f"CRM exceeded gamma^k, slack {report.slack_min} at gamma {gamma}"
        )
        palindrome = family + family[-2::-1]
        sym = run_cim(build_psi(reflectors_of(palindrome)), x0,
                      MethodConfig(method="cim", max_iters=14))
        report = audit_bound(sym, RateConstant("symmetric_tuple_rate", gamma * gamma, {}))
        assert report.all_satisfied, (
            f"symmetric CRM exceeded (gamma^2)^k, slack {report.slack_min}"
        )
    print(f"criterion 4 PASS: MAP, CRM and symmetric CRM bounds held on "
          f"{len(instances)} three-subspace instances")


def test_criterion_05_pinned_45_degree_instance():
    fixed = intersect([LINE_X, LINE_DIAG]).subspace
    assert abs(tuple_angle_cos([LINE_X, LINE_DIAG], fixed) - np.sqrt(0.5)) <= 1e-10
    x0 = np.array([0.3, 0.9])

    crm = run_cim(build_psi(reflectors_of([LINE_X, LINE_DIAG])), x0,
                  MethodConfig(method="cim", max_iters=30))
    floor = 1e-12 * (1.0 + crm.errors[0])
    for k in range(crm.errors.shape[0] - 1):
        if crm.errors[k] <= floor:
            break
        ratio = crm.errors[k + 1] / crm.errors[k]
        assert ratio <= 0.5 + 1e-8, f"CRM step {k} contracted only by {ratio}"

    sweeps = run_map([LINE_X, LINE_DIAG], x0, MethodConfig(method="map", max_iters=30), fixed)
    for k in range(sweeps.errors.shape[0] - 1):
        if sweeps.errors[k] <= floor:
            break
        ratio = sweeps.errors[k + 1] / sweeps.errors[k]
        assert ratio <= 0.5 + 1e-8, f"MAP sweep {k} contracted only by {ratio}"
    print("criterion 5 PASS: pinned 45 degree instance "
          "(Friedrichs sqrt(1/2), per-step ratios at most 1/2)")


def test_criterion_06_three_line_reflector_product_fixes_the_diagonal():
    product = compose(make_reflector(LINE_Y),
                      compose(make_reflector(LINE_DIAG), make_reflector(LINE_X)))
    fixed = fixed_point_set(product)
    assert fixed is not None and fixed.dim == 1
    direction = fixed.basis[0]
    diagonal = np.array([1.0, 1.0]) / np.sqrt(2.0)
    residual = np.linalg.norm(direction - (direction @ diagonal) * diagonal)
    assert residual <= 1e-10, f"fixed line misses the diagonal by {residual}"
    print("criterion 6 PASS: R3 R2 R1 fixes exactly the line through (1, 1)")


def test_criterion_07_projection_sweep_is_reflector_average():
    rng = np.random.default_rng(707)
    family = random_family(rng, 8, 3, 1, 6)
    sweep = map_operator(family)
    psi = build_psi(reflectors_of(family))
    for case in range(100):
        x = 2.0 * rng.standard_normal(8)
        averaged = psi.images(x).mean(axis=0)
        gap = np.linalg.norm(sweep.A @ x - averaged)
        assert gap <= 1e-10 * (1.0 + np.linalg.norm(x)), (
            f"case {case}: expansion identity off by {gap}"
        )
    print("criterion 7 PASS: P3 P2 P1 equals the average of the 8 reflector "
          "products at 100 points")


def test_criterion_08_acceleration_chain_and_bounds():
    rng = np.random.default_rng(808)
    audited = 0
    for case in range(100):
        family = random_family(rng, 6, int(rng.integers(2, 4)), 1, 4)
        x0 = 2.0 * unit_vector(rng, 6)
        op = symmetric_map_operator(family)
        inter = intersect(family).subspace
        consts = accel_constants(op, inter)
        gamma = tuple_angle_cos(family, inter)
        half = consts.cT / (2.0 - consts.cT)
        assert -1e-8 <= consts.eta <= half + 1e-8 <= consts.cT + 2e-8, (
            f"case {case}: chain 0 <= eta <= cT/(2-cT) <= cT broke: {consts}"
        )
        assert consts.cT < 1.0
        assert abs(consts.cT - gamma * gamma) <= 1e-8, (
            f"case {case}: cT {consts.cT} is not the squared tuple angle {gamma ** 2}"
        )
        if not 0.2 <= consts.eta <= 0.9:
            continue
        if np.linalg.norm(x0 - inter.project(x0)) < 0.1:
            continue

        accel = run_linear(op, x0, MethodConfig(method="accel_map", max_iters=12), inter)
        report = audit_bound(accel, RateConstant("acceleration_rate", consts.eta, {}))
        assert report.all_satisfied, (
            f"case {case}: accelerated trace broke eta^k, slack {report.slack_min}"
        )

        palindrome = family + family[-2::-1]
        prefixed = run_cim(build_psi(reflectors_of(palindrome)), x0,
                           MethodConfig(method="cim", max_iters=12, prefix=op))
        report = audit_bound(prefixed, RateConstant("prefixed_rate", consts.eta,
                                                     {"prefactor": consts.cT}))
        assert report.all_satisfied, (
            f"case {case}: prefixed trace broke eta^k cT, slack {report.slack_min}"
        )
        audited += 1
    assert audited >= 15, f"only {audited} instances passed the rate filter"
    print(f"criterion 8 PASS: acceleration chain on 100 operators, "
          f"eta bounds audited on {audited} filtered traces")


def test_criterion_09_averaged_operator_rates():
    rng = np.random.default_rng(909)
    audited_sum = 0
    audited_prod = 0
    for case in range(50):
        family = random_family(rng, 6, int(rng.integers(2, 4)), 1, 4)
        x0 = 2.0 * unit_vector(rng, 6)
        inter = intersect(family).subspace
        if np.linalg.norm(x0 - inter.project(x0)) < 0.1:
            continue
        reflectors = reflectors_of(family)
        eye = identity(6)

        flat = OperatorSet([eye, *reflectors])
        averaged = build_sum_averaged(reflectors)
        rate = operator_rate(averaged, flat.common_fixed)
        if 0.3 <= rate <= 0.9995:
            trace = run_cim(flat, x0, MethodConfig(method="cim", max_iters=20))
            report = audit_bound(trace, RateConstant("sum_averaged_rate", rate, {}))
            assert report.all_satisfied, (
                f"case {case}: CIM over identity plus reflectors broke its rate, "
                f"slack {report.slack_min}"
            )
            audited_sum += 1

        prefixes = [eye]
        running = eye
        for reflector in reflectors:
            running = compose(reflector, running)
            prefixes.append(running)
        nested = OperatorSet(prefixes)
        averaged = build_product_averaged(reflectors)
        rate = operator_rate(averaged, nested.common_fixed)
        if 0.3 <= rate <= 0.9995:
            trace = run_cim(nested, x0, MethodConfig(method="cim", max_iters=20))
            report = audit_bound(trace, RateConstant("product_averaged_rate", rate, {}))
            assert report.all_satisfied, (
                f"case {case}: CIM over prefix products broke its rate, "
                f"slack {report.slack_min}"
            )
            audited_prod += 1
    assert audited_sum >= 15 and audited_prod >= 15, (
        f"filters left too few cases: {audited_sum} sum, {audited_prod} product"
    )
    print(f"criterion 9 PASS: averaged-operator rate bounds held "
          f"({audited_sum} sum recipes, {audited_prod} product recipes)")


def test_criterion_10_equivariance_suite():
    rng = np.random.default_rng(1010)
    for case in range(100):
        points = rng.standard_normal((int(rng.integers(2, 6)), 4))
        base = circumcenter(points)
        if base.center is None:
            continue
        scale = float(rng.uniform(0.5, 3.0)) * (-1.0 if rng.integers(2) else 1.0)
        shift = rng.standard_normal(4)
        moved = circumcenter(scale * points + shift)
        expected = scale * base.center + shift
        assert moved.center is not None
        gap = np.linalg.norm(moved.center - expected)
        assert gap <= 1e-9 * (1.0 + np.linalg.norm(expected)), (
            f"case {case}: equivariance off by {gap}"
        )

    for case in range(100):
        family = random_family(rng, 4, 2, 1, 3)
        z = rng.standard_normal(4)
        x0 = 2.0 * unit_vector(rng, 4)
        base_set = OperatorSet([identity(4), *reflectors_of(family)])
        moved_set = OperatorSet([
            identity(4),
            *(make_reflector(AffineSubspace.from_span(z, s.basis)) for s in family),
        ])
        plain = run_cim(base_set, x0, MethodConfig(method="cim", max_iters=8))
        shifted = run_cim(moved_set, x0 + z, MethodConfig(method="cim", max_iters=8))
        gap = np.max(np.linalg.norm(shifted.iterates - (plain.iterates + z), axis=1))
        assert gap <= 1e-9 * (1.0 + np.linalg.norm(z)), (
            f"case {case}: trace translation covariance off by {gap}"
        )
    print("criterion 10 PASS: circumcenter equivariance and trace translation "
          "covariance on 100 cases each")


def test_criterion_11_cli_demo_determinism(tmp_path):
    config = REPO_ROOT / "configs" / "demo.json"
    assert config.exists(), "the shipped demo config is missing"
    first = tmp_path / "first"
    second = tmp_path / "second"
    assert cli.main(["verify", str(config), "--out", str(first)]) == 0
    assert cli.main(["verify", str(config), "--out", str(second)]) == 0
    names = sorted(p.name for p in first.iterdir())
    assert names == sorted(p.name for p in second.iterdir())
    match, mismatch, errors = filecmp.cmpfiles(first, second, names, shallow=False)
    assert not mismatch and not errors, f"rerun differs: {mismatch or errors}"
    assert "report.json" in match
    print(f"criterion 11 PASS: verify exits 0 and {len(match)} artifacts "
          "rerun byte-identically")
