"""README's examples run as written: every ``wvg`` line of its "Command line"
block exits 0, and its "Library" snippet gives the values its comments state."""

import re
import shlex
from fractions import Fraction
from pathlib import Path

import pytest

from wvg.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _block(section: str, language: str) -> str:
    """The first ``language`` code block under the ``## section`` heading."""
    body = README.split(f"\n## {section}\n", 1)[1]
    return re.search(rf"```{language}\n(.*?)```", body, re.S).group(1)


def _commands() -> list[list[str]]:
    """Each command line of the block, continuations joined, comments dropped."""
    text = _block("Command line", "sh").replace("\\\n", " ")
    return [shlex.split(line, comments=True) for line in text.splitlines() if line.strip()]


COMMANDS = _commands()


def test_every_command_line_is_a_wvg_call():
    assert len(COMMANDS) >= 12 and all(argv[0] == "wvg" for argv in COMMANDS)


@pytest.mark.parametrize("argv", COMMANDS, ids=lambda argv: " ".join(argv[1:]))
def test_command_runs(capsys, argv):
    code = main(argv[1:])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert captured.out


def test_library_snippet_states_its_values():
    snippet = _block("Library", "python")
    namespace = {}
    exec(snippet, namespace)
    stated = {}
    for line in snippet.splitlines():
        code, _, comment = line.partition("#")
        if comment and not code.lstrip().startswith(("from", "import")) and "=" not in code:
            stated[comment.strip()] = eval(code, namespace)
    assert stated == {
        "(1/3, 1/3, 1/3), exact": (Fraction(1, 3),) * 3,
        "Fraction(3, 2): splitting helps here": Fraction(3, 2),
    }
