"""README's examples run as printed: each ``$ hamcolor ...`` line of its round
trip, run through ``cli.main`` in a temporary directory, prints exactly the
lines that follow it, and its ``python`` block runs."""

import re
import shlex
from pathlib import Path

from hamcolor.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def blocks(lang: str) -> list[str]:
    """The fenced blocks of README marked ``lang``, without their fences."""
    return re.findall(rf"^```{lang}\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)


def test_round_trip_prints_as_shown(tmp_path, monkeypatch, capsys):
    (block,) = [b for b in blocks("sh") if "$ hamcolor" in b]
    steps: list[tuple[str, list[str]]] = []
    for line in block.splitlines():
        if line.startswith("$ "):
            steps.append((line[2:], []))
        else:
            steps[-1][1].append(line)
    assert len(steps) == 5
    monkeypatch.chdir(tmp_path)
    for cmd, shown in steps:
        prog, *argv = shlex.split(cmd, comments=True)  # drops a trailing "# ..."
        assert prog == "hamcolor"
        assert main(argv) == 0, cmd
        assert capsys.readouterr().out == "".join(line + "\n" for line in shown), cmd


def test_library_example_runs():
    (block,) = blocks("python")
    exec(compile(block, str(README), "exec"), {})
