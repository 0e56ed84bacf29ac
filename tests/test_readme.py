"""Every `painleve4 ...` command of the README's "Command line" block runs cleanly."""

import shlex
from pathlib import Path

import pytest

from painleve4.cli import main

_README = Path(__file__).resolve().parents[1] / "README.md"


def readme_commands() -> list[str]:
    """The `painleve4` lines of the first sh block under "## Command line", continuations joined."""
    text = _README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = text.split("```sh\n", 1)[1].split("```", 1)[0]
    commands = []
    for line in block.replace("\\\n", " ").splitlines():
        if line.startswith("painleve4 "):
            commands.append(" ".join(line.split()))
    return commands


def test_the_block_holds_every_subcommand():
    assert {cmd.split()[1] for cmd in readme_commands()} == {"integrate", "zeros", "verify", "sweep"}


@pytest.mark.parametrize("command", readme_commands())
def test_readme_command_exits_0(command, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(shlex.split(command)[1:]) == 0
    out, err = capsys.readouterr()
    assert "Traceback" not in out + err
