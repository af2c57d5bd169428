"""scripts/pinned.py: the scripts' operation count refuses an empty run."""

from pathlib import Path

import pytest

from helpers import load_script

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("ops", ["0", "-1"])
@pytest.mark.parametrize("script, argv", [
    ("artifact_digest", ["--workload", "family-psi"]),
    ("iterate_drift", [str(ROOT), str(ROOT)]),
    ("op_memory", ["--workload", "family-psi"]),
], ids=["artifact_digest", "iterate_drift", "op_memory"])
def test_an_empty_run_is_a_usage_error(script, argv, ops, capsys):
    """A run over no operation would print no digest, a row of zero drift or
    no measurement and pass; it exits 2 before running anything."""
    with pytest.raises(SystemExit) as exited:
        load_script(script).main([*argv, "--ops", ops])
    assert exited.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument --ops: must be at least 1, got {ops}" in captured.err
