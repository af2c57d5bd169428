"""scripts/op_memory.py: each operation's line carries its minor page
faults, and each layer's line the traced heap held at its start, the
traced peak above it and ru_maxrss after it."""

import re

from helpers import load_script


def test_an_operation_reports_its_minor_page_faults(capsys):
    assert load_script("op_memory").main(["--workload", "family-psi", "--ops", "1"]) == 0
    out = capsys.readouterr().out
    assert re.search(r"^family-psi seed 4242 op 0: ru_maxrss .* MB after; "
                     r"\d+ minor page faults$", out, re.MULTILINE), out


def test_each_layer_reports_its_held_heap_and_ru_maxrss(capsys):
    assert load_script("op_memory").main(["--workload", "family-psi", "--ops", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    layer = re.compile(r"^  (\S.*?) +(\d+\.\d{3}) MB held, +(\d+\.\d{3}) MB traced peak "
                       r"above it, ru_maxrss (\d+\.\d) MB after$")
    rows = [layer.match(line) for line in lines[1:-1]]
    assert all(rows), lines
    names = [row.group(1) for row in rows]
    assert names[0] == "resolution" and names[-1] == "writing"
    assert "plan 00_map" in names and "run 05_dr" in names
    rss = [float(row.group(4)) for row in rows]
    assert rss == sorted(rss)
    set_in = re.fullmatch(r"  ru_maxrss set in: (.+)", lines[-1])
    assert set_in and (set_in.group(1) in names or set_in.group(1) in (
        "before the operation", "between layers", "after the last layer")), lines[-1]


def test_the_high_water_layer_is_where_ru_maxrss_reached_its_final_value():
    high_water = load_script("op_memory")._high_water_layer
    layers = [("resolution", 40.0, 41.0), ("plan a", 41.0, 43.0), ("run a", 43.0, 43.0)]
    assert high_water(layers, 40.0, 43.0) == "plan a"
    assert high_water(layers, 43.0, 43.0) == "before the operation"
    assert high_water([("resolution", 40.0, 41.0), ("plan a", 42.0, 42.0)],
                      40.0, 42.0) == "between layers"
