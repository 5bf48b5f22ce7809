"""The README's library quick start and command-line examples run as written."""

import pathlib
import re
import shlex

from qtcov import cli, harness

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})


def test_config_key_table_lists_every_key_in_order():
    section = README.read_text().split("### Config files", 1)[1].split("\n## ", 1)[0]
    keys = re.findall(r"^\| `(\w+)` \|", section, re.M)
    assert keys == list(harness.CONFIG_KEYS)


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
