"""README's examples run as written: the ``Library`` block's commented
values are what the expressions return, and every ``graphicahedron ...``
line of the ``Command line`` block exits 0."""

import re
import shlex
from pathlib import Path

import pytest

from graphicahedron.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def code_block(heading, language):
    """The first ``language`` fenced block under the ``## heading`` section."""
    section = README.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1).splitlines()


def test_library_example_values():
    namespace: dict = {}
    checked = 0
    for line in code_block("Library", "python"):
        code, _, expected = line.partition("  # ")
        if expected:
            assert repr(eval(code, namespace)) == expected.strip(), code
            checked += 1
        else:
            exec(line, namespace)
    assert checked


COMMANDS = [
    shlex.split(line.partition("#")[0])[1:]
    for line in code_block("Command line", "sh")
    if line.startswith("graphicahedron ")
]


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_command_line_example_exits_0(argv):
    assert main(argv) == 0
