"""scripts/artifact_digest.py --expect: the recorded digests, and when they
can be compared."""

import json
from pathlib import Path

import pytest

from helpers import load_script

ROOT = Path(__file__).resolve().parent.parent
RECORDED = ROOT / "tests" / "golden" / "digests.json"


def test_the_recorded_file_holds_eleven_digests_and_the_whole_environment():
    """The demo in both formats and ops 0-2 of each workload at seed 4242,
    recorded with every key that ``environment`` reads, so none goes
    unchecked. The CI workflow runs the comparison itself."""
    recorded = json.loads(RECORDED.read_text())
    assert sum(len(run["digests"]) for run in recorded["runs"]) == 11
    assert list(recorded["environment"]) == list(load_script("artifact_digest").environment())


def test_a_differing_digest_fails_and_another_environment_is_not_comparable(tmp_path,
                                                                             capsys):
    script = load_script("artifact_digest")
    demo = script.artifact_digest(ROOT / "configs" / "demo.json", "csv")
    runs = [{"config": "configs/demo.json", "format": "csv", "digests": [demo]}]
    path = tmp_path / "digests.json"
    path.write_text(json.dumps({"environment": script.environment(), "runs": runs}))
    assert script.main(["--expect", str(path)]) == 0
    assert capsys.readouterr().out == f"{demo}  configs/demo.json csv  ok\n"
    runs[0]["digests"] = ["0" * 64]
    path.write_text(json.dumps({"environment": script.environment(), "runs": runs}))
    assert script.main(["--expect", str(path)]) == 1
    assert capsys.readouterr().out.endswith(f"DIFFERS from {'0' * 64}\n")
    for key in ("numpy", "blas_core"):
        path.write_text(json.dumps({"environment": {**script.environment(), key: "other"},
                                    "runs": runs}))
        assert script.main(["--expect", str(path)]) == 0
        assert capsys.readouterr().out == (
            f"not comparable: {key} is {script.environment()[key]!r} here, 'other' in {path}\n")


def test_seed_and_ops_are_refused_where_the_runs_come_from_elsewhere(capsys):
    """``--seed`` and ``--ops`` choose workload operations: with ``--expect``
    the runs come from FILE, and a CONFIG run has its own seed, so either
    flag there is a usage error, not a flag silently ignored."""
    script = load_script("artifact_digest")
    demo = str(ROOT / "configs" / "demo.json")
    for argv, message in [(["--expect", str(RECORDED), "--seed", "5"], "--expect takes"),
                          (["--expect", str(RECORDED), "--ops", "1"], "--expect takes"),
                          ([demo, "--seed", "5"], "--seed and --ops apply to --workload"),
                          ([demo, "--ops", "1"], "--seed and --ops apply to --workload")]:
        with pytest.raises(SystemExit) as exited:
            script.main(argv)
        assert exited.value.code == 2
        captured = capsys.readouterr()
        assert message in captured.err and captured.out == ""
