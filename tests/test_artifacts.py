"""The artifact writers: trace CSV bytes, the form of report.json, the
memory of writing it, and the atomic write behind every file the harness
and the CLI write."""

import gc
import json
import os
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from circumproj import (
    IterationTrace,
    RateConstant,
    RateReport,
    bench,
    cli,
    compute_rates,
    parse_config,
    run_experiment,
)
from circumproj.bench import _write_atomic

from helpers import (
    DEMO_CONFIG,
    demo_config,
    reference_rate_csv,
    reference_report_json,
    reference_report_obj,
    reference_step_norms,
    reference_trace_csv,
)


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


def _written_traces(config_obj: dict, out_dir: Path) -> list:
    """(trace, its written trace CSV) per method of a run written into ``out_dir``."""
    report = run_experiment(parse_config(config_obj), out_dir=out_dir)
    return [(m.trace, (out_dir / f"{instance.label}__{m.label}.trace.csv").read_text())
            for instance in report.instances for m in instance.methods]


@pytest.mark.parametrize("config_obj", [demo_config(), _random_config(60), _random_config(0)],
                         ids=["demo", "random_r30", "max_iters_0"])
def test_trace_csv_is_the_row_by_row_bytes(tmp_path, config_obj):
    written = _written_traces(config_obj, tmp_path)
    assert written
    for trace, text in written:
        assert text == reference_trace_csv(trace)


def test_max_iters_0_trace_csv_has_one_row(tmp_path):
    for _, text in _written_traces(_random_config(0), tmp_path):
        assert text.count("\n") == 2


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


# The text at which the writer splices a method's row lists into its record.
ROW_LIST_TEXT = '"per_iteration":[] "rows":[]'


def _row_list_text_label() -> dict:
    """The demo with a method label holding the row lists' own text, which
    the JSON string escapes."""
    obj = demo_config()
    obj["methods"][1]["label"] = f"cim {ROW_LIST_TEXT}"
    return obj


# The text of every list the writer splices in, rows and vectors.
SPLICED_LIST_TEXT = ROW_LIST_TEXT + ' "target":[] "x0":[] "x0_original":[]'


def _row_list_text_name() -> dict:
    """The demo with the config name and an instance label holding the
    spliced lists' text: the splice scans the whole encoded document, and
    both come before the first method's lists."""
    obj = demo_config()
    obj["name"] = SPLICED_LIST_TEXT
    obj["instances"]["items"][1]["label"] = f"plane {SPLICED_LIST_TEXT}"
    return obj


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_report_json_is_one_compact_line_with_the_indented_schema(tmp_path, fmt):
    """report.json holds the bytes of one json.dumps over the reference
    report object, although it is written one method record at a time with its rows
    spliced in as text: across instances, with extra checks, with a null
    rate, with one-row traces and with a name and labels that hold the row
    lists' text."""
    configs = {"demo": demo_config(), "random_3": _three_random_instances(),
               "fixed_line": _fixed_line_instance(), "custom": _custom_family(),
               "max_iters_0": _random_config(0), "row_list_label": _row_list_text_label(),
               "row_list_name": _row_list_text_name()}
    for name, config_obj in configs.items():
        report = run_experiment(parse_config(config_obj), out_dir=tmp_path / name, fmt=fmt)
        text = (tmp_path / name / "report.json").read_text()
        assert text.endswith("\n") and text.count("\n") == 1
        obj = reference_report_obj(report, include_traces=(fmt == "json"))
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
    assert f"cim {ROW_LIST_TEXT}" in [m["label"] for m in written["row_list_label"][0]["methods"]]
    assert [i["label"] for i in written["row_list_name"]][1] == f"plane {SPLICED_LIST_TEXT}"


# Floats whose text is hard to get right: signed zeros, subnormals, the
# exponents at which repr switches notation (1e16, 1e-4, 1e-5), extremes
# and the values json spells NaN, Infinity and -Infinity.
SPECIAL_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308,
                  1e16, 9999999999999998.0, 1.0000000000000002e16, 1e-4, 9.999999999999999e-05,
                  1e-5, 9.999999999999999e-06, 0.1, 1.0, 1.7976931348623157e308,
                  float("inf"), float("-inf"), float("nan"))
_floats = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats(width=64))


def _column(count: int):
    return st.lists(_floats, min_size=count, max_size=count).map(np.array)


@st.composite
def _audited_outcomes(draw):
    """A method outcome with drawn iterates, error and bound columns, as
    one report."""
    count = draw(st.integers(1, 8))
    iterates = draw(_column(count)).reshape(count, 1)
    errors, bounds = draw(_column(count)), draw(_column(count))
    with np.errstate(all="ignore"):
        trace = IterationTrace("map", iterates, errors, reference_step_norms(iterates),
                               np.ones(1), np.zeros(1), 1.0)
        audit = RateReport(RateConstant("gamma", 0.5, {}), trace.errors, bounds)
    label = draw(st.sampled_from(["map", f"map {ROW_LIST_TEXT}"]))
    instance = bench.InstanceOutcome("drawn", 1, (0,), 0, np.zeros(1),
                                     (bench.MethodOutcome(label, trace, audit),), ())
    return bench.ExperimentReport("drawn", {}, (instance,))


@given(_audited_outcomes())
def test_row_texts_are_the_reference_rows(report):
    """The CSVs equal the row-by-row reference writers, and report.json the
    json.dumps of its records, rows included, for any float64 columns."""
    outcome = report.instances[0].methods[0]
    stem = f"drawn__{outcome.label}"
    with np.errstate(all="ignore"), tempfile.TemporaryDirectory() as tmp:
        for fmt in ("csv", "json"):
            bench._write_report(report, Path(tmp) / fmt, fmt)
            assert (Path(tmp) / fmt / "report.json").read_text() == reference_report_json(
                report, include_traces=(fmt == "json"))
        csv_dir = Path(tmp) / "csv"
        assert (csv_dir / f"{stem}.trace.csv").read_text() == reference_trace_csv(outcome.trace)
        assert (csv_dir / f"{stem}.rate.csv").read_text() == reference_rate_csv(outcome.report)
        assert [p.name for p in (Path(tmp) / "json").iterdir()] == ["report.json"]


def _artifacts(out_dir: Path) -> dict:
    return {path.name: path.read_text() for path in sorted(out_dir.iterdir())}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("config_obj", [demo_config(), _three_random_instances()],
                         ids=["demo", "random_3"])
def test_writing_builds_no_per_row_dicts(tmp_path, monkeypatch, config_obj, fmt):
    """The writer formats the rows from the columns: with the audit's rows
    unreadable it writes the reference bytes."""
    report = run_experiment(parse_config(config_obj))
    expected = {"report.json": reference_report_json(report, include_traces=(fmt == "json"))}
    for instance in report.instances:
        for outcome in instance.methods:
            stem = f"{instance.label}__{outcome.label}"
            if fmt == "csv":
                expected[f"{stem}.trace.csv"] = reference_trace_csv(outcome.trace)
                if outcome.report is not None:
                    expected[f"{stem}.rate.csv"] = reference_rate_csv(outcome.report)

    def unreadable(*args):
        raise AssertionError("the writer built per-row dicts")

    monkeypatch.setattr(RateReport, "per_iteration", property(unreadable))
    bench._write_report(report, tmp_path, fmt)
    assert _artifacts(tmp_path) == dict(sorted(expected.items()))


def test_a_failed_csv_write_keeps_the_old_report_json(tmp_path, monkeypatch):
    """The CSVs are written while report.json streams; a CSV write that
    fails removes report.json's temp file, so the old report.json stays."""
    (tmp_path / "report.json").write_text("old\n")
    report = run_experiment(parse_config(demo_config()))
    write_atomic = bench._write_atomic

    def refuse_rate_csv(path, pieces):
        if path.name.endswith(".rate.csv"):
            raise OSError("rate csv refused")
        write_atomic(path, pieces)

    monkeypatch.setattr(bench, "_write_atomic", refuse_rate_csv)
    with pytest.raises(OSError, match="rate csv refused"):
        bench._write_report(report, tmp_path, "csv")
    assert (tmp_path / "report.json").read_text() == "old\n"
    assert not list(tmp_path.glob("*.tmp"))


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
