"""A config holds the objects it checked: each subspace literal and each
custom family is built once, when the config is loaded, and every run
shares them."""

import json
from pathlib import Path

import pytest

from circumproj import OperatorSet, bench, compute_rates, load_config, parse_config, run_experiment
from circumproj import subspace

from helpers import DEMO_CONFIG, demo_config

CUSTOM = {"method": "cim", "operator_set": "custom", "label": "custom",
          "operators": [{"kind": "orthogonal", "matrix": [[1.0, 0.0], [0.0, 1.0]]},
                        {"kind": "reflector", "subspace": {"span": [[1.0, 1.0]]}}]}


def _demo_with_custom(only_custom: bool = False) -> dict:
    """The demo's two instances with a custom family, beside the demo's
    methods or alone."""
    obj = demo_config()
    obj["methods"] = [CUSTOM] if only_custom else obj["methods"] + [CUSTOM]
    return obj


def _written(tmp_path: Path, obj: dict) -> Path:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(obj))
    return path


def _counting(monkeypatch, module, name: str, calls: list) -> None:
    """Replace ``module.name`` by a callable that notes each call in
    ``calls`` by ``name`` and then makes it."""
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


def test_loading_and_running_the_demo_orthonormalizes_each_span_once(monkeypatch):
    """The demo's five span literals are orthonormalized at load, and the
    run takes the subspaces the config holds."""
    calls = []
    _counting(monkeypatch, subspace, "orthonormal_basis", calls)
    config = load_config(DEMO_CONFIG)
    assert len(calls) == 5
    assert run_experiment(config).all_ok
    assert len(calls) == 5


@pytest.mark.parametrize("run", [run_experiment, compute_rates], ids=["verify", "rates"])
def test_a_custom_family_over_two_instances_is_built_once(tmp_path, monkeypatch, run):
    """One OperatorSet, and one parse of each operator literal, for the
    load and the whole run over both instances."""
    calls = []
    _counting(monkeypatch, bench, "OperatorSet", calls)
    _counting(monkeypatch, bench, "_operator", calls)
    config = load_config(_written(tmp_path, _demo_with_custom(only_custom=True)))
    run(config)
    assert sorted(calls) == ["OperatorSet", "_operator", "_operator"]
    assert isinstance(config.methods[0].family, OperatorSet)


def test_a_run_reads_no_literal_after_the_load(tmp_path, monkeypatch):
    """The config grammar is read at load only: with the literal readers
    refusing every call afterwards, both verbs' runs complete."""
    config = load_config(_written(tmp_path, _demo_with_custom()))

    def refuse(*args, **kwargs):
        raise AssertionError("a literal was read after the config was loaded")

    monkeypatch.setattr("circumproj.bench._subspace", refuse)
    monkeypatch.setattr("circumproj.bench._operator", refuse)
    report = run_experiment(config, out_dir=tmp_path / "out")
    assert [m.label for m in report.instances[0].methods][-1] == "custom"
    assert len(compute_rates(config)) == 2 * len(config.methods)


def _artifact_bytes(out_dir: Path) -> dict:
    return {path.name: path.read_bytes() for path in sorted(out_dir.iterdir())}


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_runs_that_share_a_config_write_the_bytes_of_a_fresh_parse(tmp_path, fmt):
    """Two runs from one parsed config, whose subspaces and custom family
    every instance and run shares, write byte-identical artifacts, and the
    bytes of a run from a fresh parse: no run changes a shared object."""
    obj = _demo_with_custom()
    config = parse_config(obj)
    first = config.instances[0].subspaces[0]
    for name in ("first", "second"):
        run_experiment(config, out_dir=tmp_path / name, fmt=fmt)
    run_experiment(parse_config(obj), out_dir=tmp_path / "fresh", fmt=fmt)
    written = _artifact_bytes(tmp_path / "first")
    assert len(written) == (1 if fmt == "json" else 1 + 2 * 8 + 2 * 7)
    assert _artifact_bytes(tmp_path / "second") == written
    assert _artifact_bytes(tmp_path / "fresh") == written
    assert config.instances[0].subspaces[0] is first
