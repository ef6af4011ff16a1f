"""README's examples run as written: the Quick start commands and the Library use block."""

import re
import shlex
from pathlib import Path

from drowsy import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _section(title):
    start = README.index(f"\n## {title}\n")
    end = README.find("\n## ", start + 1)
    return README[start:end if end != -1 else None]


def _blocks(text, language):
    return re.findall(rf"```{language}\n(.*?)```", text, re.DOTALL)


def _json_files(text):
    """Each JSON block with the file name written last before it, as `name.json`."""
    files = {}
    for match in re.finditer(r"```json\n(.*?)```", text, re.DOTALL):
        names = re.findall(r"`([\w.-]+\.json)`", text[:match.start()])
        files[names[-1]] = match.group(1)
    return files


def _commands(text):
    """The drowsy command lines of the shell blocks, continuations joined, comments dropped."""
    commands = []
    for block in _blocks(text, "sh"):
        for line in block.replace("\\\n", " ").splitlines():
            line = line.split("#", 1)[0].strip()
            if line.startswith("drowsy "):
                commands.append(line)
    return commands


def test_quick_start_runs(tmp_path, monkeypatch, capsys):
    quick_start = _section("Quick start")
    files = _json_files(quick_start)
    commands = _commands(quick_start)
    assert set(files) == {"session.json", "neutral.json"}
    assert [shlex.split(c)[1] for c in commands] == [
        "synth", "synth", "calibrate", "run", "eval", "compare"
    ]
    monkeypatch.chdir(tmp_path)
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    for command in commands:
        rc = cli.main(shlex.split(command)[1:])
        assert rc == 0, (command, capsys.readouterr().err)


def test_library_use_runs(capsys):
    (block,) = _blocks(_section("Library use"), "python")
    exec(compile(block, "README.md", "exec"), {})
    assert "'eyes_closed': 1" in capsys.readouterr().out

