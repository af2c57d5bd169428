"""The artifact writers: trace CSV bytes, the form of report.json, the
memory of writing it, and the atomic write behind every file the harness
and the CLI write."""

import gc
import json
import os
import tracemalloc

import pytest

from circumproj import bench, cli, compute_rates, parse_config, run_experiment
from circumproj.bench import _write_atomic

from helpers import DEMO_CONFIG, demo_config, reference_trace_csv


def _random_config(max_iters: int) -> dict:
    """One random instance of three 21-dimensional subspaces of R^30."""
    return {
        "name": "random_r30",
        "ambient_dim": 30,
        "seed": 31,
        "max_iters": max_iters,
        "stop_tol": 1e-11,
        "x0": {"kind": "random_unit", "seed": 31},
        "instances": {"kind": "random", "count": 1, "num_subspaces": 3,
                      "dim_range": [21, 21], "seed": 31},
        "methods": [
            {"method": "map"},
            {"method": "cim", "operator_set": "psi"},
            {"method": "cim", "operator_set": "psi", "symmetrized": True},
            {"method": "sym_map"},
            {"method": "accel_map"},
            {"method": "dr"},
        ],
    }


def _traces(config_obj: dict) -> list:
    report = run_experiment(parse_config(config_obj))
    return [m.trace for instance in report.instances for m in instance.methods]


@pytest.mark.parametrize("config_obj", [demo_config(), _random_config(60), _random_config(0)],
                         ids=["demo", "random_r30", "max_iters_0"])
def test_trace_csv_is_the_row_by_row_bytes(config_obj):
    traces = _traces(config_obj)
    assert traces
    for trace in traces:
        assert trace.to_csv() == reference_trace_csv(trace)


def test_max_iters_0_trace_csv_has_one_row():
    for trace in _traces(_random_config(0)):
        assert trace.to_csv().count("\n") == 2


def _three_random_instances() -> dict:
    obj = _random_config(60)
    obj["instances"]["count"] = 3
    return obj


def _fixed_line_instance() -> dict:
    """The demo's three lines alone, whose product_fixed_line check is the
    first instance's extra check."""
    obj = demo_config()
    obj["instances"]["items"] = obj["instances"]["items"][1:]
    return obj


def _custom_family() -> dict:
    """The demo plus a custom family, which has no constant: its rate is null."""
    obj = demo_config()
    obj["methods"].append({"method": "cim", "operator_set": "custom", "label": "custom",
                           "operators": [{"kind": "orthogonal",
                                          "matrix": [[1.0, 0.0], [0.0, 1.0]]},
                                         {"kind": "reflector",
                                          "subspace": {"span": [[1.0, 1.0]]}}]})
    return obj


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_report_json_is_one_compact_line_with_the_indented_schema(tmp_path, fmt):
    """report.json holds the bytes of one json.dumps over the report object,
    although it is written one method record at a time: across
    instances, with extra checks, with a null rate and with one-row traces."""
    configs = {"demo": demo_config(), "random_3": _three_random_instances(),
               "fixed_line": _fixed_line_instance(), "custom": _custom_family(),
               "max_iters_0": _random_config(0)}
    for name, config_obj in configs.items():
        report = run_experiment(parse_config(config_obj), out_dir=tmp_path / name, fmt=fmt)
        text = (tmp_path / name / "report.json").read_text()
        assert text.endswith("\n") and text.count("\n") == 1
        obj = report.to_json_obj(include_traces=(fmt == "json"))
        payload = json.loads(text)
        assert payload == json.loads(json.dumps(obj, sort_keys=True, indent=1))
        assert text == json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
        for instance, written in zip(report.instances, payload["instances"]):
            for outcome, method in zip(instance.methods, written["methods"]):
                assert method["final_error"].hex() == float(outcome.trace.errors[-1]).hex()
    written = {name: json.loads((tmp_path / name / "report.json").read_text())["instances"]
               for name in configs}
    assert len(written["random_3"]) == 3
    assert written["fixed_line"][0]["extra_checks"]
    assert [m["rate"] for i in written["custom"] for m in i["methods"] if m["label"] == "custom"] \
        == [None, None]
    assert {m["iterations"] for m in written["max_iters_0"][0]["methods"]} == {0}


def _nine_methods_500_steps() -> dict:
    """Nine method variants on three 21-dimensional subspaces of R^30, up to
    500 steps each: a report whose rows outweigh everything else."""
    obj = _random_config(500)
    obj["methods"] = [
        {"method": "map"},
        {"method": "cim", "operator_set": "psi"},
        {"method": "cim", "operator_set": "identity_plus_reflectors"},
        {"method": "cim", "operator_set": "identity_plus_prefix_products"},
        {"method": "sym_map"},
        {"method": "accel_map"},
        {"method": "dr"},
        {"method": "averaged_iter", "builder": "sum"},
        {"method": "averaged_iter", "builder": "product"},
    ]
    return obj


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_writing_holds_one_method_record_not_the_whole_report(tmp_path, fmt):
    """The traced heap peak of writing the artifacts stays below twice the
    bytes of report.json. Encoding the whole document at once held about 7
    (json) to 10 (csv) times them in the encoder's fragments, and joining
    the encoded records into one string before writing it about 2.2 times."""
    report = run_experiment(parse_config(_nine_methods_500_steps()))
    assert max(m.trace.stopped_at for m in report.instances[0].methods) == 500
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        bench._write_report(report, tmp_path, fmt)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    size = (tmp_path / "report.json").stat().st_size
    assert peak < 2 * size, f"writing peak {peak} B for a {size} B report.json"


def test_failed_replace_leaves_no_temp_file(tmp_path, monkeypatch):
    target = tmp_path / "report.json"
    target.write_text("old\n")

    def refuse(src, dst):
        raise OSError("replace refused")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="replace refused"):
        _write_atomic(target, ["new\n"])
    assert sorted(p.name for p in tmp_path.iterdir()) == ["report.json"]
    assert target.read_text() == "old\n"
    with pytest.raises(OSError, match="replace refused"):
        run_experiment(parse_config(demo_config()), out_dir=tmp_path / "run")
    assert list((tmp_path / "run").iterdir()) == []


def test_pieces_that_raise_part_way_leave_the_old_file(tmp_path):
    """A pieces iterator that raises after some pieces were written leaves
    no temp file, and the old report.json as it was."""
    target = tmp_path / "report.json"
    target.write_text("old\n")

    def pieces():
        yield '{"name":'
        yield "x" * 100_000
        raise RuntimeError("encoder failed")

    with pytest.raises(RuntimeError, match="encoder failed"):
        _write_atomic(target, pieces())
    assert sorted(p.name for p in tmp_path.iterdir()) == ["report.json"]
    assert target.read_text() == "old\n"


def test_failed_write_leaves_no_temp_file(tmp_path):
    with pytest.raises(UnicodeEncodeError):
        _write_atomic(tmp_path / "bad.json", ["\udc80"])
    assert list(tmp_path.iterdir()) == []


def test_cli_rates_out_is_written_atomically_with_indented_bytes(tmp_path, capsys):
    dump = tmp_path / "dumps" / "rates.json"
    assert cli.main(["rates", str(DEMO_CONFIG), "--out", str(dump)]) == 0
    capsys.readouterr()
    assert sorted(p.name for p in dump.parent.iterdir()) == ["rates.json"]
    rows = compute_rates(parse_config(demo_config()))
    assert dump.read_text() == json.dumps(rows, sort_keys=True, indent=1) + "\n"


def test_cli_rates_out_goes_through_the_atomic_writer(tmp_path, capsys, monkeypatch):
    dump = tmp_path / "dumps" / "rates.json"

    def refuse(src, dst):
        raise OSError("replace refused")

    monkeypatch.setattr(os, "replace", refuse)
    assert cli.main(["rates", str(DEMO_CONFIG), "--out", str(dump)]) == 1
    assert "error: replace refused" in capsys.readouterr().err
    assert list(dump.parent.iterdir()) == []
