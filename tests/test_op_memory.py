"""scripts/op_memory.py: each operation's line carries its minor page faults."""

import re

from helpers import load_script


def test_an_operation_reports_its_minor_page_faults(capsys):
    assert load_script("op_memory").main(["--workload", "family-psi", "--ops", "1"]) == 0
    out = capsys.readouterr().out
    assert re.search(r"^family-psi seed 4242 op 0: ru_maxrss .* MB after; "
                     r"\d+ minor page faults$", out, re.MULTILINE), out
