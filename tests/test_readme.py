"""The README's examples give the answers it states.

Every ``qgap`` command in a ``sh`` block whose answer follows as ``# -> …``,
on its own line or the next one, runs through ``cli.main``; the Python
snippet under "Library layout" runs as written, and its last line's value is
the one its comment names.
"""

import re
import shlex
from pathlib import Path

from qgap.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def fenced_blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```$", README, flags=re.M | re.S)


def stated_answers():
    """(argv, answer) for each command whose answer the README states."""
    pairs = []
    for block in fenced_blocks("sh"):
        lines = block.splitlines()
        for line, after in zip(lines, lines[1:] + [""]):
            command, _, comment = line.partition("#")
            if not command.startswith("qgap "):
                continue
            answer = comment if comment.startswith(" -> ") else after[1:] if after.startswith("# -> ") else None
            if answer is not None:
                pairs.append((shlex.split(command)[1:], answer[len(" -> "):]))
    return pairs


def test_commands_print_the_stated_answers(capsys):
    pairs = stated_answers()
    assert len(pairs) == 5
    for argv, answer in pairs:
        assert main(argv) == 0, argv
        assert capsys.readouterr().out == answer + "\n", argv


def test_library_snippet_gives_the_stated_value():
    (snippet,) = [b for b in fenced_blocks("python") if "run_epr(" in b]
    *body, last = snippet.rstrip("\n").splitlines()
    expression, _, stated = last.partition("#")
    namespace = {}
    exec("\n".join(body), namespace)
    assert repr(eval(expression, namespace)) == stated.strip() == "True"
