"""Config parsing, experiment harness, and command line behavior."""

import argparse
import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

import circumproj
from circumproj import (
    ConfigError,
    bench,
    cli,
    compute_rates,
    generate_instance,
    intersect,
    load_config,
    parse_config,
    rates,
    run_experiment,
)

from helpers import (
    DEMO_CONFIG,
    demo_config,
    load_script,
    one_method_report,
    reference_report_obj,
    reference_step_norms,
    reference_verify_lines,
    written_artifacts,
)

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
    assert [item.label for item in config.instances] == ["lines_45deg", "three_lines_plane"]
    assert config.instances[1].product_fixed_line == (1.0, 1.0)
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
    assert config.instances == circumproj.bench.RandomInstances(
        count=3, num_subspaces=2, dim_range=(1, 2), seed=5)

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


_DROP = object()
_ITEMS = ("instances", "items")
_CUSTOM = {"method": "cim", "operator_set": "custom"}
_TRANSLATION = {"kind": "translation", "offset": [1.0, 0.0]}


def _random(**change):
    """One random instance of two lines in R^2, with ``change`` applied."""
    spec = {"kind": "random", "count": 1, "num_subspaces": 2, "dim_range": [1, 1], "seed": 3}
    spec.update(change)
    return {key: value for key, value in spec.items() if value is not _DROP}


def _edited(edits):
    """The demo config with each (key path, value) of ``edits`` set, or
    deleted where the value is ``_DROP``; the empty path replaces the whole."""
    obj = demo_config()
    for path, value in edits:
        if not path:
            obj = value
            continue
        *parents, key = path
        target = obj
        for step in parents:
            target = target[step]
        if value is _DROP:
            del target[key]
        else:
            target[key] = value
    return obj


# id -> (edits of the demo config, the whole ConfigError text), one case per
# check of parse_config, so a check shared between keys keeps each key's text.
_GOLDEN_ERRORS = {
    "root_type": ([((), [])], "config: expected a mapping, got list"),
    "root_unknown_key": ([(("max_iter",), 3)],
                         "config.max_iter: unknown key, expected one of ('name', 'ambient_dim', "
                         "'seed', 'max_iters', 'stop_tol', 'x0', 'instances', 'methods', "
                         "'out_dir')"),
    "name_missing": ([(("name",), _DROP)], "config: missing required key 'name'"),
    "name_type": ([(("name",), 3)], "config.name: expected a nonempty string"),
    "name_empty": ([(("name",), "")], "config.name: expected a nonempty string"),
    "ambient_dim_missing": ([(("ambient_dim",), _DROP)],
                            "config: missing required key 'ambient_dim'"),
    "ambient_dim_type": ([(("ambient_dim",), 2.0)],
                         "config.ambient_dim: expected an integer, got 2.0"),
    "ambient_dim_low": ([(("ambient_dim",), 0)], "config.ambient_dim: must be at least 1"),
    "seed_type": ([(("seed",), "1")], "config.seed: expected an integer, got '1'"),
    "seed_negative": ([(("seed",), -1)], "config.seed: must be nonnegative"),
    "max_iters_type": ([(("max_iters",), True)], "config.max_iters: expected an integer, got True"),
    "max_iters_negative": ([(("max_iters",), -1)], "config.max_iters: must be nonnegative"),
    "stop_tol_type": ([(("stop_tol",), "0")], "config.stop_tol: expected a number, got '0'"),
    "stop_tol_nonfinite": ([(("stop_tol",), math.inf)],
                           "config.stop_tol: expected a finite number, got inf"),
    "stop_tol_negative": ([(("stop_tol",), -1.0)], "config.stop_tol: must be nonnegative"),
    "instances_missing": ([(("instances",), _DROP)], "config: missing required key 'instances'"),
    "instances_type": ([(("instances",), [])], "config.instances: expected a mapping, got list"),
    "instances_unknown_key": ([(("instances", "itemz"), [])],
                              "config.instances.itemz: unknown key, expected one of ('kind', "
                              "'items', 'count', 'num_subspaces', 'dim_range', 'seed')"),
    "instances_kind_missing": ([(("instances", "kind"), _DROP)],
                               "config.instances: missing required key 'kind'"),
    "instances_kind_unknown": ([(("instances", "kind"), "grid")],
                               "config.instances.kind: expected 'explicit' or 'random', "
                               "got 'grid'"),
    "x0_type": ([(("x0",), "random")], "config.x0: expected a mapping, got str"),
    "x0_unknown_key": ([(("x0", "sead"), 4)],
                       "config.x0.sead: unknown key, expected one of ('kind', 'point', 'seed')"),
    "x0_kind_missing": ([(("x0",), {"seed": 4})], "config.x0: missing required key 'kind'"),
    "x0_kind_unknown": ([(("x0", "kind"), "weird")],
                        "config.x0.kind: expected 'explicit' or 'random_unit', got 'weird'"),
    "x0_point_missing": ([(("x0",), {"kind": "explicit"})],
                         "config.x0: missing required key 'point'"),
    "x0_point_type": ([(("x0",), {"kind": "explicit", "point": "0.5 0.5"})],
                      "config.x0.point: expected a list, got str"),
    "x0_point_length": ([(("x0",), {"kind": "explicit", "point": [0.5, 0.5, 0.5]})],
                        "config.x0.point: expected 2 entries, got 3"),
    "x0_point_entry": ([(("x0",), {"kind": "explicit", "point": [0.5, "a"]})],
                       "config.x0.point[1]: expected a number, got 'a'"),
    "x0_point_nonfinite": ([(("x0",), {"kind": "explicit", "point": [0.5, math.nan]})],
                           "config.x0.point[1]: expected a finite number, got nan"),
    "x0_seed_missing": ([(("x0",), {"kind": "random_unit"})],
                        "config.x0: missing required key 'seed'"),
    "x0_seed_type": ([(("x0", "seed"), 1.5)], "config.x0.seed: expected an integer, got 1.5"),
    "x0_seed_negative": ([(("x0", "seed"), -1)], "config.x0.seed: must be nonnegative"),
    "x0_with_random_instances": ([(("instances",), _random()),
                                  (("x0",), {"kind": "explicit", "point": [0.5, 0.5]})],
                                 "config.x0: random instances draw their own start points"),
    "items_missing": ([(_ITEMS, _DROP)], "config.instances: missing required key 'items'"),
    "items_type": ([(_ITEMS, {})], "config.instances.items: expected a list, got dict"),
    "items_empty": ([(_ITEMS, [])], "config.instances.items: must be nonempty"),
    "item_type": ([((*_ITEMS, 0), "lines")],
                  "config.instances.items[0]: expected a mapping, got str"),
    "item_unknown_key": ([((*_ITEMS, 1, "fixed_line"), [1.0, 1.0])],
                         "config.instances.items[1].fixed_line: unknown key, expected one of "
                         "('label', 'subspaces', 'x0', 'product_fixed_line')"),
    "item_label_type": ([((*_ITEMS, 0, "label"), 3)],
                        "config.instances.items[0].label: expected a nonempty string"),
    "item_label_empty": ([((*_ITEMS, 0, "label"), "")],
                         "config.instances.items[0].label: expected a nonempty string"),
    "item_label_file_name": ([((*_ITEMS, 0, "label"), "../escape")],
                             "config.instances.items[0].label: '../escape' may not contain "
                             "'/', '\\' or NUL"),
    "item_subspaces_missing": ([((*_ITEMS, 0, "subspaces"), _DROP)],
                               "config.instances.items[0]: missing required key 'subspaces'"),
    "item_subspaces_type": ([((*_ITEMS, 0, "subspaces"), {})],
                            "config.instances.items[0].subspaces: expected a list, got dict"),
    "item_subspaces_empty": ([((*_ITEMS, 0, "subspaces"), [])],
                             "config.instances.items[0].subspaces: must be nonempty"),
    "item_subspace_literal": ([((*_ITEMS, 0, "subspaces", 1), "line")],
                              "config.instances.items[0].subspaces[1]: expected a mapping, "
                              "got str"),
    "item_subspace_unknown_key": ([((*_ITEMS, 0, "subspaces", 1, "spna"), [[1.0, 1.0]])],
                                  "config.instances.items[0].subspaces[1].spna: unknown key, "
                                  "expected one of ('anchor', 'span')"),
    "item_subspace_no_key": ([((*_ITEMS, 0, "subspaces", 1), {})],
                             "config.instances.items[0].subspaces[1]: needs an 'anchor' or a "
                             "'span' key"),
    "item_subspace_anchor_type": ([((*_ITEMS, 0, "subspaces", 1, "anchor"), {"x": 1.0})],
                                  "config.instances.items[0].subspaces[1].anchor: expected a "
                                  "list, got dict"),
    "item_subspace_anchor_overflow": ([((*_ITEMS, 0, "subspaces", 1, "anchor"),
                                        [10**400, 0.0])],
                                      "config.instances.items[0].subspaces[1].anchor[0]: "
                                      "expected a finite number, got inf"),
    "item_subspace_span_empty": ([((*_ITEMS, 0, "subspaces", 1), {"span": []})],
                                 "config.instances.items[0].subspaces[1].span: must be "
                                 "nonempty"),
    "item_subspace_dimension": ([((*_ITEMS, 0, "subspaces", 0), {"span": [[1.0, 0.0, 0.0]]})],
                                "config.instances.items[0].subspaces[0].span[0]: expected 2 "
                                "entries, got 3"),
    "item_x0_point_length": ([((*_ITEMS, 1, "x0"), {"kind": "explicit", "point": [1.0]})],
                             "config.instances.items[1].x0.point: expected 2 entries, got 1"),
    "item_x0_seed_negative": ([((*_ITEMS, 1, "x0"), {"kind": "random_unit", "seed": -2})],
                              "config.instances.items[1].x0.seed: must be nonnegative"),
    "fixed_line_type": ([((*_ITEMS, 1, "product_fixed_line"), "diagonal")],
                        "config.instances.items[1].product_fixed_line: expected a list, got str"),
    "fixed_line_entry": ([((*_ITEMS, 1, "product_fixed_line"), [1.0, "a"])],
                         "config.instances.items[1].product_fixed_line[1]: expected a number, "
                         "got 'a'"),
    "fixed_line_nonfinite": ([((*_ITEMS, 1, "product_fixed_line"), [1.0, -math.inf])],
                             "config.instances.items[1].product_fixed_line[1]: expected a "
                             "finite number, got -inf"),
    "fixed_line_length": ([((*_ITEMS, 1, "product_fixed_line"), [1.0, 1.0, 1.0])],
                          "config.instances.items[1].product_fixed_line: expected 2 entries, "
                          "got 3"),
    "fixed_line_zero": ([((*_ITEMS, 1, "product_fixed_line"), [0.0, 0.0])],
                        "config.instances.items[1].product_fixed_line: must be a nonzero "
                        "direction"),
    "item_labels_repeat": ([((*_ITEMS, 1, "label"), "lines_45deg")],
                           "config.instances.items: labels must be unique"),
    "random_count_missing": ([(("instances",), _random(count=_DROP))],
                             "config.instances: missing required key 'count'"),
    "random_count_type": ([(("instances",), _random(count="1"))],
                          "config.instances.count: expected an integer, got '1'"),
    "random_count_low": ([(("instances",), _random(count=0))],
                         "config.instances.count: must be positive"),
    "random_num_subspaces_missing": ([(("instances",), _random(num_subspaces=_DROP))],
                                     "config.instances: missing required key 'num_subspaces'"),
    "random_num_subspaces_type": ([(("instances",), _random(num_subspaces=2.0))],
                                  "config.instances.num_subspaces: expected an integer, got 2.0"),
    "random_num_subspaces_low": ([(("instances",), _random(num_subspaces=0))],
                                 "config.instances.num_subspaces: must be positive"),
    "random_dim_range_missing": ([(("instances",), _random(dim_range=_DROP))],
                                 "config.instances: missing required key 'dim_range'"),
    "random_dim_range_type": ([(("instances",), _random(dim_range="1-1"))],
                              "config.instances.dim_range: expected a list, got str"),
    "random_dim_range_length": ([(("instances",), _random(dim_range=[1]))],
                                "config.instances.dim_range: expected [low, high]"),
    "random_dim_range_low_type": ([(("instances",), _random(dim_range=[None, 1]))],
                                  "config.instances.dim_range[0]: expected an integer, got None"),
    "random_dim_range_high_type": ([(("instances",), _random(dim_range=[1, 1.5]))],
                                   "config.instances.dim_range[1]: expected an integer, got 1.5"),
    "random_dim_range_bounds": ([(("instances",), _random(dim_range=[1, 3]))],
                                "config.instances.dim_range: need 1 <= low <= high <= "
                                "ambient_dim"),
    "random_seed_missing": ([(("instances",), _random(seed=_DROP))],
                            "config.instances: missing required key 'seed'"),
    "random_seed_type": ([(("instances",), _random(seed=False))],
                         "config.instances.seed: expected an integer, got False"),
    "random_seed_negative": ([(("instances",), _random(seed=-1))],
                             "config.instances.seed: must be nonnegative"),
    "methods_missing": ([(("methods",), _DROP)], "config: missing required key 'methods'"),
    "methods_type": ([(("methods",), {"method": "map"})],
                     "config.methods: expected a list, got dict"),
    "methods_empty": ([(("methods",), [])], "config.methods: must be nonempty"),
    "method_type": ([(("methods", 0), "map")], "config.methods[0]: expected a mapping, got str"),
    "method_tag_missing": ([(("methods", 0), {})],
                           "config.methods[0]: missing required key 'method'"),
    "method_tag_unknown": ([(("methods", 0), {"method": "newton"})],
                           "config.methods[0].method: unknown tag 'newton', expected one of "
                           "('cim', 'map', 'sym_map', 'accel_map', 'dr', 'averaged_iter')"),
    "method_unknown_key": ([(("methods", 1, "operatorset"), "psi")],
                           "config.methods[1].operatorset: unknown key, expected one of "
                           "('method', 'label', 'max_iters', 'operator_set', 'symmetrized', "
                           "'prefix')"),
    "method_variant_unknown": ([(("methods", 1, "operator_set"), "bogus")],
                               "config.methods[1].operator_set: unknown value 'bogus', expected "
                               "one of ('psi', 'identity_plus_reflectors', "
                               "'identity_plus_prefix_products', 'custom')"),
    "method_prefix_unknown": ([(("methods", 5, "prefix"), "bogus")],
                              "config.methods[5].prefix: unknown value 'bogus', expected one of "
                              "('none', 'sym_map_product')"),
    "method_symmetrized_type": ([(("methods", 5, "symmetrized"), "yes")],
                                "config.methods[5].symmetrized: expected a boolean"),
    "method_prefix_unsymmetrized": ([(("methods", 5, "symmetrized"), False)],
                                    "config.methods[5].prefix: 'sym_map_product' requires "
                                    "method 'cim' with operator_set 'psi' and symmetrized true"),
    "operators_missing": ([(("methods", 1), _CUSTOM)],
                          "config.methods[1]: missing required key 'operators'"),
    "operators_type": ([(("methods", 1), {**_CUSTOM, "operators": {}})],
                       "config.methods[1].operators: expected a list, got dict"),
    "operators_empty": ([(("methods", 1), {**_CUSTOM, "operators": []})],
                        "config.methods[1].operators: must be nonempty"),
    "operator_literal": ([(("methods", 1), {**_CUSTOM, "operators": [
                             {"kind": "orthogonal", "matrix": [[2.0, 0.0], [0.0, 1.0]]}]})],
                         "config.methods[1].operators[0]: linear part is not orthogonal, "
                         "defect 3.000e+00"),
    "operator_dimension": ([(("methods", 1), {**_CUSTOM, "operators": [
                               {"kind": "translation", "offset": [1.0, 0.0, 0.0]}]})],
                           "config.methods[1].operators[0].offset: expected 2 entries, got 3"),
    "operator_unknown_key": ([(("methods", 1), {**_CUSTOM, "operators": [
                                 {"kind": "orthogonal", "matrix": [[1.0, 0.0], [0.0, 1.0]],
                                  "ofset": [1.0, 0.0]}]})],
                             "config.methods[1].operators[0].ofset: unknown key, expected one "
                             "of ('kind', 'matrix', 'offset')"),
    "operator_kind_missing": ([(("methods", 1), {**_CUSTOM, "operators": [
                                  {"offset": [1.0, 0.0]}]})],
                              "config.methods[1].operators[0]: missing required key 'kind'"),
    "operator_kind_unknown": ([(("methods", 1), {**_CUSTOM, "operators": [{"kind": "shear"}]})],
                              "config.methods[1].operators[0].kind: unknown value 'shear', "
                              "expected one of ('reflector', 'translation', 'orthogonal', "
                              "'compose')"),
    "operator_factors_empty": ([(("methods", 1), {**_CUSTOM, "operators": [
                                   {"kind": "compose", "factors": []}]})],
                               "config.methods[1].operators[0].factors: must be nonempty"),
    "operator_factor_literal": ([(("methods", 1), {**_CUSTOM, "operators": [
                                    {"kind": "compose", "factors": [
                                        _TRANSLATION,
                                        {"kind": "orthogonal",
                                         "matrix": [[2.0, 0.0], [0.0, 1.0]]}]}]})],
                                "config.methods[1].operators[0].factors[1]: linear part is not "
                                "orthogonal, defect 3.000e+00"),
    "operator_reflector_subspace": ([(("methods", 1), {**_CUSTOM, "operators": [
                                        {"kind": "reflector",
                                         "subspace": {"span": [[1.0, "a"]]}}]})],
                                    "config.methods[1].operators[0].subspace.span[0][1]: "
                                    "expected a number, got 'a'"),
    "operators_without_common_fixed_point": (
        [(("methods", 1), {**_CUSTOM, "operators": [_TRANSLATION]})],
        "config.methods[1].operators: operators share no common fixed point"),
    "method_label_type": ([(("methods", 1, "label"), 3)],
                          "config.methods[1].label: expected a nonempty string"),
    "method_label_empty": ([(("methods", 1, "label"), "")],
                           "config.methods[1].label: expected a nonempty string"),
    "method_label_file_name": ([(("methods", 1, "label"), "run/1")],
                               "config.methods[1].label: 'run/1' may not contain '/', '\\' "
                               "or NUL"),
    "method_max_iters_type": ([(("methods", 1, "max_iters"), 1.5)],
                              "config.methods[1].max_iters: expected an integer, got 1.5"),
    "method_max_iters_negative": ([(("methods", 1, "max_iters"), -1)],
                                  "config.methods[1].max_iters: must be nonnegative"),
    "method_dr_item": ([((*_ITEMS, 0, "subspaces", 1), _DROP)],
                       "config.methods[4]: method 'dr' needs at least two subspaces, an "
                       "instance has 1"),
    "method_dr_random": ([(("instances",), _random(num_subspaces=1))],
                         "config.methods[4]: method 'dr' needs at least two subspaces, an "
                         "instance has 1"),
    "method_psi_word_limit": ([(("instances",), _random(num_subspaces=8))],
                              "config.methods[5]: operator_set 'psi' over 15 reflectors: 32768 "
                              "words exceed the limit of 8192 words"),
    "method_psi_word_limit_long": ([(("instances",), _random(num_subspaces=10000)),
                                    (("methods", 1, "symmetrized"), True)],
                                   "config.methods[1]: operator_set 'psi' over 19999 reflectors: "
                                   "2^19999 words exceed the limit of 8192 words"),
    "method_labels_repeat": ([(("methods", 4, "label"), "00_map")],
                             "config.methods[4].label: labels must be unique, '00_map' is also "
                             "the label of methods[0]"),
    "file_stems_repeat": ([((*_ITEMS, 0, "label"), "a"), ((*_ITEMS, 1, "label"), "a__b"),
                           (("methods",), [{"method": "map", "label": "c"},
                                           {"method": "dr", "label": "b__c"}])],
                          "config.instances.items[1].label: artifact file stems must be "
                          "unique, 'a__b__c' is also a stem of instances.items[0]"),
    "out_dir_type": ([(("out_dir",), 3)], "config.out_dir: expected a string"),
    "out_dir_empty": ([(("out_dir",), "")], "config.out_dir: must be nonempty"),
}


@pytest.mark.parametrize("edits, message", list(_GOLDEN_ERRORS.values()),
                         ids=list(_GOLDEN_ERRORS))
def test_each_config_check_gives_its_exact_text(edits, message):
    """One malformed config per check of ``parse_config``, and the whole text
    of the error it raises."""
    with pytest.raises(ConfigError) as raised:
        parse_config(_edited(edits))
    assert str(raised.value) == message


def test_load_config_reports_json_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n "name": "x",,\n}\n')
    with pytest.raises(ConfigError) as excinfo:
        load_config(path)
    message = str(excinfo.value)
    assert "invalid JSON" in message
    assert ":2:" in message, f"expected a line number in {message!r}"


def _demo_text() -> str:
    return DEMO_CONFIG.read_text(encoding="utf-8")


def _with_duplicate_key(text: str) -> str:
    """The demo text with ``max_iters`` given three times."""
    return text.replace('{', '{\n "max_iters": 3,\n "max_iters": 4,\n "max_iters": 40,', 1)


@pytest.mark.parametrize("edit, key", [
    (_with_duplicate_key, "max_iters"),
    (lambda text: text.replace('"label": "lines_45deg"', '"label": "a", "label": "b"'), "label"),
], ids=["top_level", "nested"])
def test_load_config_refuses_a_repeated_key(tmp_path, edit, key):
    """A repeated key is an error that names the file and the key, not a
    silent choice of its last value."""
    path = tmp_path / "repeated.json"
    path.write_text(edit(_demo_text()), encoding="utf-8")
    with pytest.raises(ConfigError) as raised:
        load_config(path)
    assert str(raised.value) == f"{path}: duplicate key {key!r}"


@pytest.mark.parametrize("data, offset", [
    (b"\xff" + _demo_text().encode(), 0),
    (_demo_text().encode().replace(b"lines_45deg", b"lines_\xe945deg"),
     _demo_text().encode().index(b"_45deg") + 1),
], ids=["first_byte", "inside_a_string"])
def test_load_config_reads_utf8_and_names_the_first_bad_byte(tmp_path, data, offset):
    path = tmp_path / "latin1.json"
    path.write_bytes(data)
    with pytest.raises(ConfigError) as raised:
        load_config(path)
    assert str(raised.value) == f"{path}: not UTF-8 text at byte {offset}"


def test_load_config_matches_parse_config(tmp_path):
    """A file loads as its object parses: the same fields, subspaces with
    the same anchor and basis bytes, and the same rates."""
    path = _write_demo(tmp_path)
    loaded, parsed = load_config(path), parse_config(demo_config())
    assert dataclasses.replace(loaded, instances=()) == dataclasses.replace(parsed, instances=())
    assert len(loaded.instances) == len(parsed.instances) == 2
    for item, want in zip(loaded.instances, parsed.instances):
        assert dataclasses.replace(item, subspaces=()) == dataclasses.replace(want, subspaces=())
        assert [(s.anchor.tobytes(), s.basis.tobytes()) for s in item.subspaces] == [
            (s.anchor.tobytes(), s.basis.tobytes()) for s in want.subspaces]
    assert compute_rates(loaded) == compute_rates(parsed)


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
    second = run_experiment(config)
    assert first.all_ok, "the shipped demo must satisfy every audited bound"
    assert (json.dumps(reference_report_obj(first, include_traces=True), sort_keys=True)
            == json.dumps(reference_report_obj(second, include_traces=True), sort_keys=True))

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


def test_run_experiment_rejects_unknown_format(tmp_path, monkeypatch):
    """The format is checked before anything runs, also without an out_dir,
    when the run would write nothing."""
    def refuse(config):
        raise AssertionError("an unknown format must be refused before any instance")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr("circumproj.bench._resolve_instances", refuse)
    with pytest.raises(ValueError, match="unknown format"):
        run_experiment(parse_config(demo_config()), fmt="yaml")
    assert list(tmp_path.iterdir()) == []


def test_run_experiment_without_out_dir_writes_nothing(tmp_path, monkeypatch):
    """Only a given out_dir is written; the library names no default."""
    obj = demo_config()
    obj["out_dir"] = "configured_out"
    monkeypatch.chdir(tmp_path)
    for config_obj in (demo_config(), obj):
        for fmt in ("csv", "json"):
            assert run_experiment(parse_config(config_obj), fmt=fmt).all_ok
    assert list(tmp_path.iterdir()) == []


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


def _counting_reflectors(monkeypatch) -> list:
    made = []
    original = circumproj.bench.make_reflector
    monkeypatch.setattr("circumproj.bench.make_reflector",
                        lambda subspace: made.append(subspace) or original(subspace))
    return made


def test_run_experiment_makes_each_reflector_once(monkeypatch):
    """The demo's five subspaces give five reflectors: the fixed-line check
    of ``three_lines_plane`` composes the ones its methods made."""
    made = _counting_reflectors(monkeypatch)
    report = run_experiment(load_config(DEMO_CONFIG))
    assert len(made) == 5
    assert [name for name, passed, _ in report.instances[1].extra_checks if passed] == [
        "product_fixed_line"]


def test_compute_rates_makes_no_reflector_for_a_psi_family(monkeypatch):
    """A psi family's constant reads the subspaces' sweep, not reflectors,
    so only its run makes them."""
    made = _counting_reflectors(monkeypatch)
    obj = demo_config()
    obj["methods"] = [m for m in obj["methods"] if m.get("operator_set") == "psi"]
    assert len(obj["methods"]) == 2
    rows = compute_rates(parse_config(obj))
    assert len(rows) == 4 and all(row["rate"] is not None for row in rows)
    assert made == []


@pytest.mark.parametrize("workload, reflectors", [
    ("family-psi", 5), ("iterate-long", 3), ("resolve-n200", 14)])
def test_a_workload_operation_makes_its_reflectors_as_before(monkeypatch, workload, reflectors):
    """Making the psi reflectors at run time leaves the count of a run:
    m per family operation, and on resolve-n200 the two that dr holds
    plus six per averaged builder, which reads the rest on demand."""
    made = _counting_reflectors(monkeypatch)
    pinned = load_script("pinned")
    for index in range(3):
        _, config, _ = pinned.operation(workload, 4242, index)
        run_experiment(config)
        assert len(made) == reflectors, index
        made.clear()


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


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_artifact_digest_of_demo_is_stable(fmt, capsys):
    script = load_script("artifact_digest")
    demo = REPO_ROOT / "configs" / "demo.json"
    first = script.artifact_digest(demo, fmt)
    assert script.main([str(demo), "--format", fmt]) == 0
    assert capsys.readouterr().out == f"{first}  {demo}\n"
    assert len(first) == 64
    other = "json" if fmt == "csv" else "csv"
    assert script.artifact_digest(demo, other) != first


def test_artifact_digest_of_a_workload_operation_matches_its_config_file(tmp_path, capsys):
    script = load_script("artifact_digest")
    workloads = load_script("pinned").workloads
    workload = workloads.WORKLOADS["family-psi"]
    config = tmp_path / "op_0000.json"
    config.write_text(json.dumps(workloads.op_config(workload, 4242, 0), indent=1) + "\n")
    assert script.main(["--workload", "family-psi", "--ops", "1"]) == 0
    digest = script.artifact_digest(config, workload.fmt)
    assert capsys.readouterr().out == f"{digest}  family-psi seed 4242 op 0\n"
    for argv in ([], [str(config), "--workload", "family-psi"],
                 ["--workload", "family-psi", "--format", "csv"]):
        with pytest.raises(SystemExit):
            script.main(argv)


def test_compare_methods_reads_no_audit_rows_and_prints_the_exact_median(monkeypatch, capsys):
    """The comparison reads each method's record without its rows, and its
    median of an even count of steps keeps the .5 that int() dropped."""
    script = load_script("compare_methods")
    argv = ["--count", "2", "--seed", "2"]
    report = run_experiment(parse_config(script.build_config(script.argparse.Namespace(
        count=2, dim=8, subspaces=3, max_iters=60, seed=2))))
    reach = {}
    for instance in report.instances:
        for outcome in instance.methods:
            walked = [k for k, error in enumerate(outcome.trace.errors) if error <= 1e-10]
            reach.setdefault(outcome.label, []).extend(walked[:1])

    def unreadable(self):
        raise AssertionError("the comparison built the audit rows")

    monkeypatch.setattr(circumproj.RateReport, "per_iteration", property(unreadable))
    assert script.main(argv) == 0
    printed = {line.split()[0]: line.split()[2]
               for line in capsys.readouterr().out.splitlines() if line[:2].isdigit()}
    assert printed == {label: "-" if not steps else repr(float(np.median(steps))).removesuffix(".0")
                       for label, steps in reach.items()}
    assert printed["03_sym_map"] == "10.5"


@pytest.mark.parametrize("argv, message", [
    (["--subspaces", "1"], "compare.methods[5]: method 'dr' needs at least two subspaces, "
                           "an instance has 1"),
    (["--count", "0"], "compare.instances.count: must be positive"),
    (["--subspaces", "8"], "compare.methods[2]: operator_set 'psi' over 15 reflectors: 32768 "
                           "words exceed the limit of 8192 words"),
], ids=["dr_one_subspace", "no_instances", "psi_word_limit"])
def test_compare_methods_reports_a_config_error_and_exits_two(capsys, argv, message):
    """Arguments that make no valid config end as verify's config errors
    do: one line on stderr, nothing on stdout, exit 2."""
    assert load_script("compare_methods").main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"config error: {message}\n"
    assert captured.out == ""


def test_compare_methods_reports_a_failed_run_and_exits_one(capsys):
    """A draw that cannot succeed in R^1 ends as verify's runtime errors
    do: one error line on stderr, no traceback, exit 1."""
    assert load_script("compare_methods").main(["--dim", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.err == ("error: failed to draw a nondegenerate instance in 100 tries; "
                            "the requested dimensions leave no room between start and "
                            "intersection\n")
    assert "Traceback" not in captured.err
    assert captured.out == ""


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


@pytest.mark.parametrize("out_dir, written", [(None, "demo_out"),
                                               ("configured", "configured"),
                                               ("nested/dir", "nested/dir")])
def test_cli_verify_without_out_writes_the_config_out_dir_else_name_out(
        tmp_path, capsys, monkeypatch, out_dir, written):
    """With no --out, verify writes into the config's out_dir when it sets
    one, else into <name>_out, each relative to the working directory and
    not to the config file."""
    mutate = None if out_dir is None else (lambda obj: obj.update(out_dir=out_dir))
    path = _write_demo(tmp_path, mutate)
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    assert cli.main(["verify", str(path)]) == 0
    capsys.readouterr()
    assert (work / written / "report.json").is_file()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "work"]
    assert [p.name for p in work.iterdir()] == [written.split("/")[0]]


@pytest.mark.parametrize("verb", ["verify", "rates"])
def test_cli_refuses_an_empty_out_and_writes_nothing(tmp_path, capsys, monkeypatch, verb):
    """An empty --out names no directory or file: it is a config error, and
    nothing is written into the working directory."""
    path = _write_demo(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert cli.main([verb, str(path), "--out", ""]) == 2
    captured = capsys.readouterr()
    assert captured.err == "config error: --out: must be nonempty\n"
    assert captured.out == ""
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


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


@pytest.mark.parametrize("mutate", [None, _wrong_line_and_custom_family],
                         ids=["demo", "failing"])
def test_cli_verify_prints_the_lines_read_back_from_report_json(tmp_path, capsys, mutate):
    """verify's stdout, byte for byte, is the lines formatted from the
    report.json it wrote, read back from the file."""
    path = _write_demo(tmp_path, mutate)
    cli.main(["verify", str(path), "--out", str(tmp_path / "out")])
    out = capsys.readouterr().out
    payload = json.loads((tmp_path / "out" / "report.json").read_text())
    lines = [*reference_verify_lines(payload), f"all bounds hold: {payload['all_ok']}"]
    assert out == "".join(f"{line}\n" for line in lines)


@pytest.mark.parametrize("mutate", [None, _wrong_line_and_custom_family],
                         ids=["demo", "failing"])
def test_cli_verify_lines_read_no_audit_rows(monkeypatch, mutate):
    """verify's lines read each method's record without its rows: they are
    the same with ``RateReport.per_iteration`` unreadable."""
    obj = demo_config()
    if mutate is not None:
        mutate(obj)
    report = run_experiment(parse_config(obj))
    expected = reference_verify_lines(reference_report_obj(report, include_traces=False))

    def unreadable(self):
        raise AssertionError("verify built the audit rows")

    monkeypatch.setattr(circumproj.RateReport, "per_iteration", property(unreadable))
    assert cli._verify_lines(report) == expected


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_run_computes_each_audit_column_once_and_no_step_norm_after_driving(
        monkeypatch, tmp_path, fmt):
    """Across run_experiment, its artifacts and verify's lines, each audit
    computes its slack and verdict columns once, and the writer takes no
    difference of a trace's iterates: it norms the iterates themselves, for
    x_norm, and formats the step norms the driver recorded."""
    slacked, audited, normed = [], [], []
    slacks, audit_columns = rates._slacks, rates.RateReport.__post_init__

    def counted_slacks(observed, bounds):
        slacked.append(id(bounds))
        return slacks(observed, bounds)

    def counted_audit_columns(audit):
        audited.append(id(audit.bounds))
        audit_columns(audit)

    def no_difference(*args, **kwargs):
        raise AssertionError("a difference of the iterates was formed after the run")

    row_norms = bench._row_norms

    def recorded_row_norms(rows):
        normed.append(rows)
        return row_norms(rows)

    monkeypatch.setattr(rates, "_slacks", counted_slacks)
    monkeypatch.setattr(rates.RateReport, "__post_init__", counted_audit_columns)
    monkeypatch.setattr(np, "diff", no_difference)
    monkeypatch.setattr(bench, "_row_norms", recorded_row_norms)
    report = run_experiment(parse_config(demo_config()), out_dir=tmp_path, fmt=fmt)
    cli._verify_lines(report)
    outcomes = [m for instance in report.instances for m in instance.methods]
    audits = sorted(id(m.report.bounds) for m in outcomes if m.report is not None)
    assert len(audits) > 1
    assert sorted(slacked) == sorted(audited) == audits
    iterates = {id(m.trace.iterates) for m in outcomes}
    assert normed and all(id(rows) in iterates for rows in normed)


def _trace_with_errors(errors) -> circumproj.IterationTrace:
    errors = np.array(errors)
    iterates = errors.reshape(-1, 1)
    return circumproj.IterationTrace("map", iterates, errors, reference_step_norms(iterates),
                                     np.ones(1), np.zeros(1), 1.0)


@pytest.mark.parametrize("errors, reached", [
    ([1e-12, 1.0, 1e-11], 0),
    ([1.0, 0.5, 1e-10, 1e-12], 2),
    ([float("nan"), 1.0, 1e-11], 2),
    ([1.0, 0.5, 2e-10], None),
    ([1.0], None),
], ids=["first_at_0", "exactly_1e-10", "after_nan", "no_hit", "one_row"])
def test_iters_to_1e_10_is_the_first_k_at_or_below_1e_10(errors, reached):
    trace = _trace_with_errors(errors)
    walked = next((k for k, error in enumerate(trace.errors) if error <= 1e-10), None)
    report_json = written_artifacts(one_method_report(trace))["report.json"]
    written = json.loads(report_json)["instances"][0]["methods"][0]["iters_to_1e-10"]
    assert written == walked == reached
    assert type(written) is type(reached)


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


# id -> (a custom family, the key its config error names)
_BAD_FAMILIES = {
    "not_orthogonal": ([{"kind": "orthogonal", "matrix": [[2.0, 0.0], [0.0, 1.0]]}],
                       "operators[0]: "),
    "wrong_dimension": ([{"kind": "translation", "offset": [1.0, 0.0, 0.0]}],
                        "operators[0].offset: expected 2 entries, got 3"),
    "misspelt_offset": ([{"kind": "orthogonal", "matrix": [[1.0, 0.0], [0.0, 1.0]],
                         "ofset": [1.0, 0.0]}], "operators[0].ofset: unknown key"),
    "empty": ([], "operators: must be nonempty"),
    "no_common_fixed_point": ([_TRANSLATION],
                              "operators: operators share no common fixed point"),
}


@pytest.mark.parametrize("operators, key", list(_BAD_FAMILIES.values()), ids=list(_BAD_FAMILIES))
@pytest.mark.parametrize("verb", ["verify", "rates"])
def test_cli_rejects_a_bad_custom_operator(tmp_path, capsys, verb, operators, key):
    """A custom family and each of its operators are loaded with the
    config, before any method runs."""
    def mutate(obj):
        obj["methods"] = [{"method": "map"},
                          {"method": "cim", "operator_set": "custom", "operators": operators}]

    path = _write_demo(tmp_path, mutate)
    code = cli.main([verb, str(path), "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith(f"config error: {path}.methods[1].{key}")
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


def _psi_over_eight_random(obj):
    """The symmetrized psi family of eight subspaces in R^10: 15 reflectors."""
    obj["ambient_dim"] = 10
    del obj["x0"]
    obj["instances"] = {"kind": "random", "count": 1, "num_subspaces": 8,
                        "dim_range": [1, 9], "seed": 3}
    obj["methods"] = [{"method": "cim", "operator_set": "psi", "symmetrized": True}]


@pytest.mark.parametrize("mutate, message", [
    (_set_subspace(0, {"span": [[1.0, 0.0, 0.0]]}),
     ".instances.items[0].subspaces[0].span[0]: expected 2 entries, got 3"),
    (_set_subspace(1, {"anchor": {"x": 1.0}}),
     ".instances.items[0].subspaces[1].anchor: expected a list, got dict"),
    (_set_subspace(1, {"anchor": [0.0, 0.0], "spna": [[1.0, 1.0]]}),
     ".instances.items[0].subspaces[1].spna: unknown key"),
    (_set_top_x0_point, ".x0.point: expected 2 entries, got 3"),
    (_set_item_x0_point, ".instances.items[1].x0.point: expected 2 entries, got 1"),
    (_one_subspace_item, ".methods[4]: method 'dr' needs at least two subspaces, "
                         "an instance has 1"),
    (_one_subspace_random, ".methods[1]: method 'dr' needs at least two subspaces, "
                           "an instance has 1"),
    (_psi_over_eight_random, ".methods[0]: operator_set 'psi' over 15 reflectors: 32768 words "
                             "exceed the limit of 8192 words"),
], ids=["subspace_dimension", "subspace_literal", "subspace_key", "x0_length", "item_x0_length",
        "dr_item", "dr_random", "psi_word_limit"])
@pytest.mark.parametrize("verb", ["verify", "rates"])
def test_cli_finds_an_instance_error_at_load_and_names_the_file(tmp_path, capsys, verb,
                                                                 mutate, message):
    """Subspace literals, start points, the subspaces ``dr`` needs and the
    words of a ``psi`` family are checked with the config, before any
    method runs, at a key path that starts with the file."""
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


def test_a_custom_family_is_loaded_from_its_literals():
    """The config holds the family its literals make: one generator per
    literal, each the isometry the literal spells."""
    obj = demo_config()
    rotation = {"kind": "orthogonal", "matrix": [[0.0, -1.0], [1.0, 0.0]]}
    obj["methods"] = [{"method": "cim", "operator_set": "custom", "operators": [rotation]}]
    family = parse_config(obj).methods[0].family
    assert isinstance(family, circumproj.OperatorSet)
    (generator,) = family.generators
    assert np.array_equal(generator.A, rotation["matrix"])
    assert np.array_equal(generator.b, np.zeros(2))
    assert family.common_fixed.dim == 0


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


@pytest.mark.parametrize("verb", ["verify", "rates"])
@pytest.mark.parametrize("data, message", [
    (_with_duplicate_key(_demo_text()).encode(), "duplicate key 'max_iters'"),
    (b"\xff" + _demo_text().encode(), "not UTF-8 text at byte 0"),
], ids=["duplicate_key", "not_utf8"])
def test_cli_a_repeated_key_or_a_non_utf8_file_exits_two_and_writes_nothing(
        tmp_path, capsys, verb, data, message):
    path = tmp_path / "config.json"
    path.write_bytes(data)
    out = tmp_path / "out"
    code = cli.main([verb, str(path), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == f"config error: {path}: {message}\n"
    assert captured.out == ""
    assert not out.exists()


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

    # an item's own random_unit start draws from the flag's seed as well
    def item_start(obj):
        obj["instances"]["items"][0]["x0"] = {"kind": "random_unit", "seed": 5}

    path = _write_demo(tmp_path, item_start)
    starts = []
    for name, flags in (("c", []), ("d", ["--seed", "7"]), ("e", ["--seed", "8"])):
        assert cli.main(["verify", str(path), "--out", str(tmp_path / name), *flags]) == 0
        payload = json.loads((tmp_path / name / "report.json").read_text())
        starts.append(tuple(payload["instances"][0]["x0"]))
    capsys.readouterr()
    assert len(set(starts)) == 3


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
