"""The README's library quick start and command-line examples run as written."""

import pathlib
import re
import shlex

from qtcov import cli, harness
from qtcov.errors import QtcovError

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})


def _printed(cfg):
    """key -> value text of the config as config_to_text prints it."""
    lines = harness.config_to_text(cfg).splitlines()[1:]
    return dict(line.split(" = ", 1) for line in lines)


def _scene_default(key):
    """The value parse_config gives scene key `key` when a config leaves it
    out, or "none" for a key that a scene config must set."""
    lines = [f"{other} = 0.5" for other in ("scene_freqs", "scene_powers") if other != key]
    text = "\n".join([harness.CONFIG_FORMAT, "experiment = custom", *lines]) + "\n"
    try:
        cfg = harness.parse_config(text)
    except QtcovError as err:
        assert f"needs {key}" in str(err)
        return "none"
    return _printed(cfg)[key]


def test_config_key_table_lists_every_key_in_order():
    section = README.read_text().split("### Config files", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \| .* \| (.*) \|$", section, re.M)
    assert [key for key, _ in rows] == list(harness.CONFIG_KEYS)
    # the `custom` default column, with "empty ..." for an empty value
    defaults = _printed(harness.default_config("custom"))
    for key, default in rows:
        expect = _scene_default(key) if key.startswith("scene_") else defaults[key]
        assert re.sub(r"^empty\b.*", "", default.strip("`")) == expect, key


def _command_lines():
    """The commands of the README's command-line block, split into words."""
    section = README.read_text().split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    return [shlex.split(line, comments=True)
            for line in block.replace("\\\n", " ").splitlines() if line.strip()]


def test_command_line_examples_run(tmp_path, monkeypatch):
    # the experiment lines run whole presets, so they are left out
    monkeypatch.chdir(tmp_path)
    commands = [words for words in _command_lines() if words[1] != "experiment"]
    assert [words[:2] for words in commands] == [
        ["qtcov", "ruler"], ["qtcov", "simulate"], ["qtcov", "estimate"], ["qtcov", "doa"]]
    for words in commands:
        assert cli.main(words[1:]) == 0, " ".join(words)
