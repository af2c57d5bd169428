"""Instance and method labels name artifact files, so a config whose label
holds a path separator or NUL, or whose labels would give two runs one file
name, is a config error, raised before any method runs or any file is
written."""

import json

import pytest

from circumproj import ConfigError, cli, parse_config

from helpers import demo_config


@pytest.mark.parametrize("label", ["run/1", "..\\escape", "a\0b", "../escape"])
def test_a_method_label_that_is_not_a_file_name_is_a_config_error(label):
    obj = demo_config()
    obj["methods"][1]["label"] = label
    with pytest.raises(ConfigError, match=r"^config\.methods\[1\]\.label: .* may not contain"):
        parse_config(obj)


@pytest.mark.parametrize("label", ["../escape", "a/b", "..\\escape", "nul\0"])
def test_an_instance_label_that_is_not_a_file_name_is_a_config_error(label):
    obj = demo_config()
    obj["instances"]["items"][0]["label"] = label
    with pytest.raises(ConfigError,
                       match=r"^config\.instances\.items\[0\]\.label: .* may not contain"):
        parse_config(obj)


@pytest.mark.parametrize("index", [0, 1])
def test_an_empty_label_is_a_config_error(index):
    """An empty method label would name files ``<instance>__.*``, as an
    empty instance label would name them ``__<label>.*``."""
    obj = demo_config()
    obj["methods"][index]["label"] = ""
    with pytest.raises(ConfigError, match=rf"^config\.methods\[{index}\]\.label: "
                                          "expected a nonempty string"):
        parse_config(obj)
    obj = demo_config()
    obj["instances"]["items"][index]["label"] = ""
    with pytest.raises(ConfigError, match=rf"^config\.instances\.items\[{index}\]\.label: "
                                          "expected a nonempty string"):
        parse_config(obj)


def test_labels_with_dots_and_spaces_still_parse():
    obj = demo_config()
    obj["instances"]["items"][0]["label"] = ".. two lines"
    obj["methods"][0]["label"] = "map.v1 (plain)"
    config = parse_config(obj)
    assert config.instances[0].label == ".. two lines"
    assert config.methods[0].label == "map.v1 (plain)"


@pytest.mark.parametrize("where", ["method", "instance"])
def test_the_cli_exits_two_and_writes_nothing(tmp_path, capsys, where):
    obj = demo_config()
    if where == "method":
        obj["methods"][0]["label"] = "run/1"
    else:
        obj["instances"]["items"][0]["label"] = "../escape"
    work = tmp_path / "work"
    work.mkdir()
    path = work / "config.json"
    path.write_text(json.dumps(obj))
    out = work / "out"
    assert cli.main(["verify", str(path), "--out", str(out)]) == 2
    assert "may not contain" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["config.json", "work"]


def test_a_method_label_that_repeats_a_default_label_is_a_config_error():
    obj = demo_config()
    obj["methods"] = [{"method": "map"}, {"method": "dr", "label": "00_map"}]
    with pytest.raises(ConfigError, match=r"^config\.methods\[1\]\.label: labels must be "
                                          r"unique, '00_map' is also the label of methods\[0\]$"):
        parse_config(obj)


def test_labels_that_join_to_one_file_stem_are_a_config_error():
    obj = demo_config()
    items = obj["instances"]["items"]
    items[0]["label"], items[1]["label"] = "a", "a__b"
    obj["methods"] = [{"method": "map", "label": "c"}, {"method": "dr", "label": "b__c"}]
    with pytest.raises(ConfigError, match=r"^config\.instances\.items\[1\]\.label: artifact "
                                          r"file stems must be unique, 'a__b__c' is also a stem "
                                          r"of instances\.items\[0\]$"):
        parse_config(obj)


@pytest.mark.parametrize("where", ["method", "stem"])
def test_the_cli_exits_two_on_colliding_file_names_and_writes_nothing(tmp_path, capsys, where):
    obj = demo_config()
    if where == "method":
        obj["methods"].append({"method": "dr", "label": "00_map"})
    else:
        items = obj["instances"]["items"]
        items[0]["label"], items[1]["label"] = "a", "a__b"
        obj["methods"] = [{"method": "map", "label": "c"}, {"method": "dr", "label": "b__c"}]
    work = tmp_path / "work"
    work.mkdir()
    path = work / "config.json"
    path.write_text(json.dumps(obj))
    assert cli.main(["verify", str(path), "--out", str(work / "out")]) == 2
    assert "must be unique" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["config.json", "work"]
