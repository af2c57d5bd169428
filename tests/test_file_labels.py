"""Instance and method labels name artifact files, so a config whose label
holds a path separator or NUL is a config error, raised before any method
runs or any file is written."""

import json

import pytest

from circumproj import ConfigError, cli, demo_config, parse_config


@pytest.mark.parametrize("label", ["run/1", "..\\escape", "a\0b", "../escape"])
def test_a_method_label_that_is_not_a_file_name_is_a_config_error(label):
    obj = demo_config()
    obj["methods"][1]["label"] = label
    with pytest.raises(ConfigError, match=r"^methods\[1\]\.label: .* may not contain"):
        parse_config(obj)


@pytest.mark.parametrize("label", ["../escape", "a/b", "..\\escape", "nul\0"])
def test_an_instance_label_that_is_not_a_file_name_is_a_config_error(label):
    obj = demo_config()
    obj["instances"]["items"][0]["label"] = label
    with pytest.raises(ConfigError,
                       match=r"^config\.instances\.items\[0\]\.label: .* may not contain"):
        parse_config(obj)


def test_labels_with_dots_and_spaces_still_parse():
    obj = demo_config()
    obj["instances"]["items"][0]["label"] = ".. two lines"
    obj["methods"][0]["label"] = "map.v1 (plain)"
    config = parse_config(obj)
    assert config.explicit_items[0].label == ".. two lines"
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
    assert cli.main(["run", str(path), "--out", str(out)]) == 2
    assert "may not contain" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["config.json", "work"]
