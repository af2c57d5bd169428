"""Config parsing, experiment harness, and command line behavior."""

import argparse
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

import circumproj
from circumproj import (
    ConfigError,
    cli,
    compute_rates,
    generate_instance,
    intersect,
    load_config,
    parse_config,
    run_experiment,
)

from helpers import DEMO_CONFIG, demo_config

REPO_ROOT = Path(__file__).resolve().parent.parent

METHOD_LABELS = (
    "00_map",
    "01_cim_psi",
    "02_sym_map",
    "03_accel_map",
    "04_dr",
    "05_cim_psi_sym_prefixed",
    "06_averaged_iter_sum",
)


def _write_demo(tmp_path, mutate=None):
    obj = demo_config()
    if mutate is not None:
        mutate(obj)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(obj, indent=1, sort_keys=True) + "\n")
    return path


# parsing and validation


def test_parse_demo_config_roundtrip():
    config = parse_config(demo_config())
    assert config.name == "demo"
    assert config.ambient_dim == 2
    assert config.max_iters == 12
    assert len(config.methods) == 7
    assert config.methods[5].prefix == "sym_map_product"
    assert config.methods[5].symmetrized
    assert [item.label for item in config.explicit_items] == [
        "lines_45deg", "three_lines_plane"]
    assert config.explicit_items[1].product_fixed_line == (1.0, 1.0)
    assert config.x0.kind == "random_unit" and config.x0.seed == 11


def test_parse_config_missing_key_names_the_path():
    obj = demo_config()
    del obj["name"]
    with pytest.raises(ConfigError, match="missing required key 'name'"):
        parse_config(obj)


def test_parse_config_unknown_method_names_the_index():
    obj = demo_config()
    obj["methods"][0] = {"method": "newton"}
    with pytest.raises(ConfigError, match=r"methods\[0\]\.method: unknown tag"):
        parse_config(obj)


def test_parse_config_rejects_duplicate_method_labels():
    obj = demo_config()
    obj["methods"] = [{"method": "map", "label": "same"},
                      {"method": "dr", "label": "same"}]
    with pytest.raises(ConfigError, match="labels must be unique"):
        parse_config(obj)


def test_parse_config_prefix_needs_symmetrized_psi():
    obj = demo_config()
    obj["methods"] = [{"method": "cim", "prefix": "sym_map_product"}]
    with pytest.raises(ConfigError, match="requires method 'cim'"):
        parse_config(obj)


@pytest.mark.parametrize("entry, key", [
    ({"method": "map", "builder": "product"}, "builder"),
    ({"method": "cim", "operator_set": "custom", "operators": [], "symmetrized": True},
     "symmetrized"),
    ({"method": "sym_map", "prefix": "none"}, "prefix"),
    ({"method": "averaged_iter", "operator_set": "custom", "operators": []}, "operator_set"),
    ({"method": "cim", "operators": [{"kind": "identity"}]}, "operators"),
], ids=["map_builder", "custom_symmetrized", "sym_map_prefix", "averaged_iter_custom",
        "psi_operators"])
def test_parse_config_rejects_keys_the_recipe_does_not_read(entry, key):
    obj = demo_config()
    obj["methods"] = [entry]
    with pytest.raises(ConfigError, match=rf"methods\[0\]\.{key}: unknown key"):
        parse_config(obj)


def test_parse_config_rejects_unknown_top_level_key(tmp_path, capsys):
    obj = demo_config()
    obj["max_iter"] = 3
    with pytest.raises(ConfigError, match=r"config\.max_iter: unknown key"):
        parse_config(obj)
    path = tmp_path / "typo.json"
    path.write_text(json.dumps(obj))
    assert cli.main(["verify", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "max_iter: unknown key" in capsys.readouterr().err


def test_parse_config_rejects_unknown_x0_key():
    obj = demo_config()
    obj["x0"]["sead"] = 4
    with pytest.raises(ConfigError, match=r"config\.x0\.sead: unknown key"):
        parse_config(obj)


def test_parse_config_rejects_unknown_instances_key():
    obj = demo_config()
    obj["instances"]["itemz"] = []
    with pytest.raises(ConfigError, match=r"config\.instances\.itemz: unknown key"):
        parse_config(obj)


def test_parse_config_rejects_unknown_item_key():
    obj = demo_config()
    obj["instances"]["items"][1]["fixed_line"] = [1.0, 1.0]
    with pytest.raises(ConfigError,
                       match=r"config\.instances\.items\[1\]\.fixed_line: unknown key"):
        parse_config(obj)


def test_parse_config_rejects_unknown_method_key():
    obj = demo_config()
    obj["methods"] = [{"method": "cim", "operatorset": "identity_plus_reflectors"}]
    with pytest.raises(ConfigError, match=r"methods\[0\]\.operatorset: unknown key"):
        parse_config(obj)


def test_parse_config_random_instances_validation():
    base = {
        "name": "r", "ambient_dim": 4, "seed": 1,
        "instances": {"kind": "random", "count": 3, "num_subspaces": 2,
                      "dim_range": [1, 2], "seed": 5},
        "methods": [{"method": "map"}],
    }
    config = parse_config(base)
    assert config.random_instances.count == 3
    assert config.explicit_items is None

    bad = json.loads(json.dumps(base))
    bad["instances"]["dim_range"] = [3, 9]
    with pytest.raises(ConfigError, match="need 1 <= low <= high <= ambient_dim"):
        parse_config(bad)

    bad = json.loads(json.dumps(base))
    bad["instances"]["dim_range"] = [2]
    with pytest.raises(ConfigError, match=r"expected \[low, high\]"):
        parse_config(bad)


@pytest.mark.parametrize("point", [[9.0], [0.1, 0.2, 0.3, 0.4]], ids=["wrong_dim", "right_dim"])
def test_parse_config_rejects_explicit_x0_with_random_instances(point):
    """Random instances draw their own start points, so an explicit x0
    would be ignored; the random_unit kind stays accepted."""
    obj = {
        "name": "r", "ambient_dim": 4, "x0": {"kind": "explicit", "point": point},
        "instances": {"kind": "random", "count": 1, "num_subspaces": 2,
                      "dim_range": [1, 2], "seed": 5},
        "methods": [{"method": "map"}],
    }
    with pytest.raises(ConfigError, match=r"^config\.x0: random instances draw their own"):
        parse_config(obj)
    obj["x0"] = {"kind": "random_unit", "seed": 3}
    assert parse_config(obj).x0.kind == "random_unit"


def test_parse_config_bad_x0_kind():
    obj = demo_config()
    obj["x0"] = {"kind": "weird"}
    with pytest.raises(ConfigError, match="expected 'explicit' or 'random_unit'"):
        parse_config(obj)


def test_load_config_reports_json_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n "name": "x",,\n}\n')
    with pytest.raises(ConfigError) as excinfo:
        load_config(path)
    message = str(excinfo.value)
    assert "invalid JSON" in message
    assert ":2:" in message, f"expected a line number in {message!r}"


def test_load_config_matches_parse_config(tmp_path):
    path = _write_demo(tmp_path)
    assert load_config(path) == parse_config(demo_config())


# instance generation


def test_generate_instance_deterministic_and_in_range():
    draws = []
    for _ in range(2):
        rng = np.random.default_rng(77)
        subspaces, x0, inter = generate_instance(6, 3, (1, 3), rng)
        draws.append((subspaces, x0, inter))
    first, second = draws
    assert np.array_equal(first[1], second[1])
    for a, b in zip(first[0], second[0]):
        assert np.array_equal(a.basis, b.basis)
    assert all(1 <= s.dim <= 3 for s in first[0])
    assert abs(np.linalg.norm(first[1]) - 1.0) < 1e-12
    assert np.array_equal(first[2].subspace.basis, intersect(first[0]).subspace.basis)


def test_generate_instance_raises_when_degenerate():
    rng = np.random.default_rng(0)
    with pytest.raises(RuntimeError, match="nondegenerate"):
        generate_instance(1, 1, (1, 1), rng)


# experiment harness


def test_run_experiment_demo_all_ok_and_deterministic(tmp_path):
    config = parse_config(demo_config())
    first = run_experiment(config, out_dir=tmp_path / "a")
    second = run_experiment(config, write=False)
    assert first.all_ok, "the shipped demo must satisfy every audited bound"
    assert first.to_json(include_traces=True) == second.to_json(include_traces=True)

    expected = {"report.json"}
    for instance in ("lines_45deg", "three_lines_plane"):
        for label in METHOD_LABELS:
            expected.add(f"{instance}__{label}.trace.csv")
            expected.add(f"{instance}__{label}.rate.csv")
    names = {p.name for p in (tmp_path / "a").iterdir()}
    assert names == expected


def test_run_experiment_json_format_embeds_traces(tmp_path):
    config = parse_config(demo_config())
    run_experiment(config, out_dir=tmp_path / "j", fmt="json")
    names = {p.name for p in (tmp_path / "j").iterdir()}
    assert names == {"report.json"}
    payload = json.loads((tmp_path / "j" / "report.json").read_text())
    trace = payload["instances"][0]["methods"][0]["trace"]
    assert "rows" in trace and "target" in trace
    assert "wall_time" not in trace


def test_run_experiment_rejects_unknown_format():
    with pytest.raises(ValueError, match="unknown format"):
        run_experiment(parse_config(demo_config()), fmt="yaml", write=False)


def test_compute_rates_frozen_demo_values():
    rows = compute_rates(parse_config(demo_config()))
    table = {(r["instance"], r["method"]): r["rate"] for r in rows}
    assert len(table) == 14
    root_half = np.sqrt(0.5)
    expected = {
        ("lines_45deg", "00_map"): ("cyclic_projection_tuple_rate", root_half),
        ("lines_45deg", "01_cim_psi"): ("tuple_rate", root_half),
        ("lines_45deg", "02_sym_map"): ("symmetric_product_rate", 0.5),
        ("lines_45deg", "03_accel_map"): ("acceleration_rate", 1.0 / 3.0),
        ("lines_45deg", "04_dr"): ("douglas_rachford_rate", root_half),
        ("lines_45deg", "05_cim_psi_sym_prefixed"): ("accelerated_prefixed_rate", 1.0 / 3.0),
        ("lines_45deg", "06_averaged_iter_sum"): ("sum_averaged_rate", (1.0 + root_half) / 2.0),
        ("three_lines_plane", "00_map"): ("cyclic_projection_tuple_rate", 0.5),
        ("three_lines_plane", "01_cim_psi"): ("tuple_rate", 0.5),
        ("three_lines_plane", "02_sym_map"): ("symmetric_product_rate", 0.25),
        ("three_lines_plane", "03_accel_map"): ("acceleration_rate", 1.0 / 7.0),
        ("three_lines_plane", "04_dr"): ("douglas_rachford_rate", root_half),
        ("three_lines_plane", "05_cim_psi_sym_prefixed"): ("accelerated_prefixed_rate", 1.0 / 7.0),
        ("three_lines_plane", "06_averaged_iter_sum"): ("sum_averaged_rate", 2.0 / 3.0),
    }
    for key, (constant_name, value) in expected.items():
        rate = table[key]
        assert rate["constant_name"] == constant_name, f"{key}: {rate['constant_name']}"
        assert abs(rate["value"] - value) < 1e-9, f"{key}: {rate['value']} vs {value}"
    prefixed = "05_cim_psi_sym_prefixed"
    assert abs(table[("lines_45deg", prefixed)]["ingredients"]["prefactor"] - 0.5) < 1e-9
    assert abs(table[("three_lines_plane", prefixed)]["ingredients"]["prefactor"] - 0.25) < 1e-9
    assert "prefactor" not in table[("lines_45deg", "00_map")]["ingredients"]
    assert set(table[("lines_45deg", "03_accel_map")]["ingredients"]) == {
        "c1", "c2", "eta", "cT"}


def test_compute_rates_builds_no_circumcentered_family(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the rates of the circumcentered recipes need no family")

    monkeypatch.setattr("circumproj.bench.build_psi", refuse)
    monkeypatch.setattr("circumproj.bench.OperatorSet", refuse)
    obj = demo_config()
    obj["methods"] += [
        {"method": "cim", "operator_set": "identity_plus_reflectors"},
        {"method": "cim", "operator_set": "identity_plus_prefix_products", "symmetrized": True},
    ]
    rows = compute_rates(parse_config(obj))
    assert len(rows) == 18
    assert all(row["rate"] is not None for row in rows)


def test_run_experiment_makes_each_reflector_once(monkeypatch):
    """The demo's five subspaces give five reflectors: the fixed-line check
    of ``three_lines_plane`` composes the ones its methods made."""
    made = []
    original = circumproj.bench.make_reflector
    monkeypatch.setattr("circumproj.bench.make_reflector",
                        lambda subspace: made.append(subspace) or original(subspace))
    report = run_experiment(load_config(DEMO_CONFIG), write=False)
    assert len(made) == 5
    assert [name for name, passed, _ in report.instances[1].extra_checks if passed] == [
        "product_fixed_line"]


RANDOM_ALL_RECIPES = {
    "name": "random_rates", "ambient_dim": 6, "max_iters": 5,
    "instances": {"kind": "random", "count": 2, "num_subspaces": 3,
                  "dim_range": [2, 4], "seed": 31},
    "methods": [
        {"method": "map"}, {"method": "sym_map"}, {"method": "accel_map"}, {"method": "dr"},
        {"method": "averaged_iter", "builder": "sum"},
        {"method": "averaged_iter", "builder": "product"},
        {"method": "cim", "operator_set": "psi"},
        {"method": "cim", "operator_set": "psi", "symmetrized": True,
         "prefix": "sym_map_product"},
        {"method": "cim", "operator_set": "identity_plus_reflectors"},
        {"method": "cim", "operator_set": "identity_plus_prefix_products", "symmetrized": True},
    ],
}


@pytest.mark.parametrize("obj", [demo_config(), RANDOM_ALL_RECIPES], ids=["demo", "random"])
def test_compute_rates_rows_are_the_rates_report_json_records(obj, tmp_path):
    """Each rates row's ``rate`` is the record report.json holds for the
    same label, less the audit's own keys."""
    config = parse_config(obj)
    run_experiment(config, out_dir=tmp_path)
    report = json.loads((tmp_path / "report.json").read_text())
    records = {(instance["label"], method["label"]): method["rate"]
               for instance in report["instances"] for method in instance["methods"]}
    rows = compute_rates(config)
    assert [(row["instance"], row["method"]) for row in rows] == list(records)
    for row in rows:
        rate = records[row["instance"], row["method"]]
        assert row["rate"] == {k: v for k, v in rate.items()
                               if k not in ("slack_min", "all_satisfied", "per_iteration")}


def _load_script(name):
    spec = importlib.util.spec_from_file_location(name, REPO_ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_artifact_digest_of_demo_is_stable(fmt, capsys):
    script = _load_script("artifact_digest")
    demo = REPO_ROOT / "configs" / "demo.json"
    first = script.artifact_digest(demo, fmt)
    assert script.main([str(demo), "--format", fmt]) == 0
    assert capsys.readouterr().out == f"{first}  {demo}\n"
    assert len(first) == 64
    other = "json" if fmt == "csv" else "csv"
    assert script.artifact_digest(demo, other) != first


def test_artifact_digest_of_a_workload_operation_matches_its_config_file(tmp_path, capsys):
    script = _load_script("artifact_digest")
    workload = script.workloads.WORKLOADS["family-psi"]
    config = tmp_path / "op_0000.json"
    config.write_text(json.dumps(script.workloads.op_config(workload, 4242, 0), indent=1) + "\n")
    assert script.main(["--workload", "family-psi", "--ops", "1"]) == 0
    digest = script.artifact_digest(config, workload.fmt)
    assert capsys.readouterr().out == f"{digest}  family-psi seed 4242 op 0\n"
    for argv in ([], [str(config), "--workload", "family-psi"],
                 ["--workload", "family-psi", "--format", "csv"]):
        with pytest.raises(SystemExit):
            script.main(argv)


# command line


def test_cli_offers_two_verbs_and_no_demo():
    parser = cli.build_parser()
    verbs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert sorted(verbs.choices) == ["rates", "verify"]
    for gone in ("demo", "run"):
        with pytest.raises(SystemExit) as excinfo:
            cli.main([gone, str(DEMO_CONFIG)])
        assert excinfo.value.code == 2
    assert not hasattr(circumproj, "demo_config")
    assert "demo_config" not in circumproj.__all__


def test_cli_demo_exits_zero(tmp_path, capsys):
    code = cli.main(["verify", str(DEMO_CONFIG), "--out", str(tmp_path / "d")])
    out = capsys.readouterr().out
    assert code == 0
    assert "all bounds hold: True" in out
    assert (tmp_path / "d" / "report.json").exists()


def test_cli_verify_prints_pass_lines(tmp_path, capsys):
    path = _write_demo(tmp_path)
    code = cli.main(["verify", str(path), "--out", str(tmp_path / "out")])
    out = capsys.readouterr().out
    assert code == 0
    pass_lines = [line for line in out.splitlines() if line.startswith("PASS")]
    assert len(pass_lines) == 15, f"expected 14 audits plus 1 extra check: {out}"
    assert "PASS three_lines_plane/product_fixed_line:" in out
    assert "FAIL" not in out


def _wrong_line_and_custom_family(obj):
    obj["instances"]["items"][1]["product_fixed_line"] = [1.0, 0.0]
    obj["methods"].append({"method": "cim", "operator_set": "custom", "operators": [
        {"kind": "orthogonal", "matrix": [[1.0, 0.0], [0.0, 1.0]]},
        {"kind": "reflector", "subspace": {"span": [[1.0, 1.0]]}}]})


@pytest.mark.parametrize("mutate, expected_code", [(None, 0),
                                                   (_wrong_line_and_custom_family, 1)],
                         ids=["demo", "failing"])
def test_cli_verify_prints_the_verdicts_that_report_json_records(tmp_path, capsys,
                                                                 mutate, expected_code):
    """One line per method and per extra check, each with the status that
    report.json records for that (instance, label): PASS or FAIL from
    ``rate.all_satisfied`` or ``extra_checks[].passed``, SKIP when ``rate``
    is null."""
    path = _write_demo(tmp_path, mutate)
    code = cli.main(["verify", str(path), "--out", str(tmp_path / "out")])
    lines = capsys.readouterr().out.splitlines()
    payload = json.loads((tmp_path / "out" / "report.json").read_text())
    expected = {}
    for instance in payload["instances"]:
        for method in instance["methods"]:
            rate = method["rate"]
            status = "SKIP" if rate is None else ("PASS" if rate["all_satisfied"] else "FAIL")
            expected[instance["label"], method["label"]] = status
        for check in instance["extra_checks"]:
            expected[instance["label"], check["name"]] = "PASS" if check["passed"] else "FAIL"
    printed = {}
    for line in lines[:-1]:
        status, rest = line.split(" ", 1)
        printed[tuple(rest.split(": ", 1)[0].split("/", 1))] = status
    assert len(lines) - 1 == len(printed) == len(expected)
    assert printed == expected
    assert lines[-1] == f"all bounds hold: {payload['all_ok']}"
    assert code == expected_code == (0 if payload["all_ok"] else 1)
    if mutate is not None:
        statuses = sorted(set(printed.values()))
        assert statuses == ["FAIL", "PASS", "SKIP"], statuses


def test_cli_verify_flags_wrong_fixed_line(tmp_path, capsys):
    def mutate(obj):
        obj["instances"]["items"][1]["product_fixed_line"] = [1.0, 0.0]

    path = _write_demo(tmp_path, mutate)
    code = cli.main(["verify", str(path), "--out", str(tmp_path / "out")])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL three_lines_plane/product_fixed_line" in out
    assert "all bounds hold: False" in out


@pytest.mark.parametrize("line", [[1.0], [1.0, 1.0, 1.0], [0.0, 0.0]])
def test_cli_rejects_a_bad_product_fixed_line(tmp_path, capsys, line):
    def mutate(obj):
        obj["instances"]["items"][1]["product_fixed_line"] = line

    path = _write_demo(tmp_path, mutate)
    code = cli.main(["verify", str(path), "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 2
    assert "config error:" in captured.err
    assert "instances.items[1].product_fixed_line:" in captured.err
    assert not (tmp_path / "out").exists()


def _set_stop_tol(obj, value):
    obj["stop_tol"] = value


def _set_top_x0(obj, value):
    obj["x0"] = {"kind": "explicit", "point": [0.5, value]}


def _set_item_x0(obj, value):
    obj["instances"]["items"][0]["x0"] = {"kind": "explicit", "point": [value, 0.5]}


def _set_fixed_line(obj, value):
    obj["instances"]["items"][1]["product_fixed_line"] = [1.0, value]


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")],
                         ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("mutate, key", [
    (_set_stop_tol, ".stop_tol"),
    (_set_top_x0, ".x0.point[1]"),
    (_set_item_x0, ".instances.items[0].x0.point[0]"),
    (_set_fixed_line, ".instances.items[1].product_fixed_line[1]"),
], ids=["stop_tol", "x0", "item_x0", "product_fixed_line"])
def test_cli_rejects_a_non_finite_config_number(tmp_path, capsys, mutate, key, value):
    """json reads NaN and Infinity; a config number must still be finite."""
    path = _write_demo(tmp_path, lambda obj: mutate(obj, value))
    assert ("NaN" if value != value else "Infinity") in path.read_text()
    code = cli.main(["verify", str(path), "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 2
    assert f"config error: {path}{key}: expected a finite number, got {value!r}" in captured.err
    assert not (tmp_path / "out").exists()


def _set_seed(obj, value):
    obj["seed"] = value


def _set_x0_seed(obj, value):
    obj["x0"]["seed"] = value


def _set_instances_seed(obj, value):
    obj["instances"] = {"kind": "random", "count": 1, "num_subspaces": 2,
                        "dim_range": [1, 1], "seed": value}


@pytest.mark.parametrize("mutate, key", [
    (_set_seed, ".seed"),
    (_set_x0_seed, ".x0.seed"),
    (_set_instances_seed, ".instances.seed"),
    (None, "--seed"),
], ids=["seed", "x0_seed", "instances_seed", "option"])
def test_cli_rejects_a_negative_seed(tmp_path, capsys, mutate, key):
    """numpy's generators take nonnegative seeds only, so a negative one is a
    config problem at its key, found before any instance is drawn."""
    path = _write_demo(tmp_path, mutate and (lambda obj: mutate(obj, -1)))
    override = ["--seed", "-1"] if mutate is None else []
    code = cli.main(["verify", str(path), "--out", str(tmp_path / "out"), *override])
    captured = capsys.readouterr()
    assert code == 2
    source = "" if mutate is None else str(path)
    assert f"config error: {source}{key}: must be nonnegative" in captured.err
    assert not (tmp_path / "out").exists()


_BAD_OPERATORS = {
    "not_orthogonal": {"kind": "orthogonal", "matrix": [[2.0, 0.0], [0.0, 1.0]]},
    "wrong_dimension": {"kind": "translation", "offset": [1.0, 0.0, 0.0]},
}


@pytest.mark.parametrize("operator", list(_BAD_OPERATORS.values()), ids=list(_BAD_OPERATORS))
@pytest.mark.parametrize("verb", ["verify", "rates"])
def test_cli_rejects_a_bad_custom_operator(tmp_path, capsys, verb, operator):
    """A custom operator is loaded with the config, before any method runs."""
    def mutate(obj):
        obj["methods"] = [{"method": "map"},
                          {"method": "cim", "operator_set": "custom", "operators": [operator]}]

    path = _write_demo(tmp_path, mutate)
    code = cli.main([verb, str(path), "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith(f"config error: {path}.methods[1].operators[0]: ")
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


def _set_subspace(j, literal):
    def mutate(obj):
        obj["instances"]["items"][0]["subspaces"][j] = literal
    return mutate


def _set_top_x0_point(obj):
    obj["x0"] = {"kind": "explicit", "point": [0.5, 0.5, 0.5]}


def _set_item_x0_point(obj):
    obj["instances"]["items"][1]["x0"] = {"kind": "explicit", "point": [1.0]}


def _one_subspace_item(obj):
    del obj["instances"]["items"][0]["subspaces"][1]


def _one_subspace_random(obj):
    obj["instances"] = {"kind": "random", "count": 1, "num_subspaces": 1,
                        "dim_range": [1, 1], "seed": 3}
    obj["methods"] = [{"method": "map"}, {"method": "dr"}]


@pytest.mark.parametrize("mutate, message", [
    (_set_subspace(0, {"span": [[1.0, 0.0, 0.0]]}),
     ".instances.items[0].subspaces[0]: dimension 3 does not match ambient_dim 2"),
    (_set_subspace(1, {"anchor": {"x": 1.0}}), ".instances.items[0].subspaces[1]: "),
    (_set_top_x0_point, ".x0.point: expected 2 entries, got 3"),
    (_set_item_x0_point, ".instances.items[1].x0.point: expected 2 entries, got 1"),
    (_one_subspace_item, ".methods[4]: method 'dr' needs at least two subspaces, "
                         "an instance has 1"),
    (_one_subspace_random, ".methods[1]: method 'dr' needs at least two subspaces, "
                           "an instance has 1"),
], ids=["subspace_dimension", "subspace_literal", "x0_length", "item_x0_length",
        "dr_item", "dr_random"])
@pytest.mark.parametrize("verb", ["verify", "rates"])
def test_cli_finds_an_instance_error_at_load_and_names_the_file(tmp_path, capsys, verb,
                                                                 mutate, message):
    """Subspace literals, start points and the subspaces ``dr`` needs are
    checked with the config, before any method runs, at a key path that
    starts with the file."""
    path = _write_demo(tmp_path, mutate)
    with pytest.raises(ConfigError) as raised:
        load_config(path)
    assert str(raised.value).startswith(f"{path}{message}")
    code = cli.main([verb, str(path), "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith(f"config error: {path}{message}")
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


def test_custom_operators_keep_their_literals():
    obj = demo_config()
    rotation = {"kind": "orthogonal", "matrix": [[0.0, -1.0], [1.0, 0.0]]}
    obj["methods"] = [{"method": "cim", "operator_set": "custom", "operators": [rotation]}]
    config = parse_config(obj)
    assert config.methods[0].operators == (rotation,)
    assert config == parse_config(obj)


def test_cli_config_error_exits_two(tmp_path, capsys):
    def mutate(obj):
        del obj["methods"]

    path = _write_demo(tmp_path, mutate)
    code = cli.main(["verify", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert "config error:" in captured.err


def test_cli_invalid_json_exits_two(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json\n")
    code = cli.main(["verify", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert "invalid JSON" in captured.err


def test_cli_rates_stdout_and_dump(tmp_path, capsys):
    path = _write_demo(tmp_path)
    dump = tmp_path / "rates.json"
    code = cli.main(["rates", str(path), "--out", str(dump)])
    out = capsys.readouterr().out
    assert code == 0
    assert "lines_45deg/00_map: cyclic_projection_tuple_rate = 0.707106781187" in out
    assert "three_lines_plane/03_accel_map: acceleration_rate = 0.142857142857" in out
    rows = json.loads(dump.read_text())
    assert len(rows) == 14


def test_cli_rates_prints_a_method_without_a_constant_as_verify_does(tmp_path, capsys):
    """A custom family has no constant: its line reads ``no audited bound``,
    the words of verify's SKIP line, and every other line is unchanged."""
    def add_custom(obj):
        obj["methods"].append({"method": "cim", "operator_set": "custom", "label": "custom",
                               "operators": [{"kind": "orthogonal",
                                              "matrix": [[1.0, 0.0], [0.0, 1.0]]}]})

    assert cli.main(["rates", str(_write_demo(tmp_path))]) == 0
    demo_lines = capsys.readouterr().out.splitlines()
    assert cli.main(["rates", str(_write_demo(tmp_path, add_custom))]) == 0
    lines = capsys.readouterr().out.splitlines()
    custom = [line for line in lines if line not in demo_lines]
    assert custom == ["lines_45deg/custom: no audited bound",
                      "three_lines_plane/custom: no audited bound"]
    assert [line for line in lines if line not in custom] == demo_lines


@pytest.mark.parametrize("verb", ["verify", "rates"])
def test_cli_unwritable_out_is_a_runtime_error(tmp_path, capsys, verb):
    """An --out under a regular file cannot be created: exit 1 with an
    error line, not a traceback."""
    path = _write_demo(tmp_path)
    blocker = tmp_path / "blocker"
    blocker.write_text("a regular file\n")
    code = cli.main([verb, str(path), "--out", str(blocker / "out")])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error: ")
    assert blocker.read_text() == "a regular file\n"


def test_cli_seed_override_changes_start(tmp_path, capsys):
    path = _write_demo(tmp_path)
    assert cli.main(["verify", str(path), "--out", str(tmp_path / "a")]) == 0
    assert cli.main(["verify", str(path), "--out", str(tmp_path / "b"),
                     "--seed", "999"]) == 0
    capsys.readouterr()
    base = json.loads((tmp_path / "a" / "report.json").read_text())
    moved = json.loads((tmp_path / "b" / "report.json").read_text())
    assert base["environment"]["seed"] == 20240601
    assert moved["environment"]["seed"] == 999
    assert base["instances"][0]["x0"] != moved["instances"][0]["x0"]


def test_cli_max_iters_override(tmp_path, capsys):
    path = _write_demo(tmp_path)
    assert cli.main(["verify", str(path), "--out", str(tmp_path / "short"),
                     "--max-iters", "3"]) == 0
    capsys.readouterr()
    payload = json.loads((tmp_path / "short" / "report.json").read_text())
    for instance in payload["instances"]:
        for method in instance["methods"]:
            assert method["iterations"] <= 3
    trace = (tmp_path / "short" / "lines_45deg__00_map.trace.csv").read_text()
    assert len(trace.strip().splitlines()) <= 5


def test_cli_format_json_writes_single_artifact(tmp_path, capsys):
    path = _write_demo(tmp_path)
    assert cli.main(["verify", str(path), "--out", str(tmp_path / "jout"),
                     "--format", "json"]) == 0
    capsys.readouterr()
    assert {p.name for p in (tmp_path / "jout").iterdir()} == {"report.json"}
