"""README's library tour runs as written and prints what it shows, and its
command list names what the command line declares."""

import contextlib
import io
import re
from pathlib import Path

from mk1.cli import _COMMANDS

README = Path(__file__).resolve().parent.parent / "README.md"


def test_the_library_tour_prints_the_lines_under_its_print():
    tour = README.read_text(encoding="utf-8").split("\n## Library tour\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", tour, re.S).group(1)
    lines = code.splitlines()
    at = next(i for i, line in enumerate(lines) if line.startswith("print("))
    shown = [line.removeprefix("# ") for line in lines[at + 1:]]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert shown and out.getvalue().splitlines() == shown


def test_the_command_list_names_each_command_with_its_arguments():
    """The ``text`` block under "Command line" lists the commands of
    ``cli._COMMANDS`` in its order, each with its flags in order and one
    placeholder per positional, ``...`` marking the one-or-more."""
    section = README.read_text(encoding="utf-8").split("\n## Command line\n", 1)[1]
    block = re.search(r"```text\n(.*?)```", section, re.S).group(1)
    usages = [re.split(r" {2,}", line)[0].split() for line in block.splitlines()]
    assert [words[:2] for words in usages] == [["mk1", name] for name in _COMMANDS]
    for words, (_, _, positionals, flags) in zip(usages, _COMMANDS.values()):
        shown = [w[1:-1] for w in words[2:] if w.startswith("[--")]
        placeholders = [w for w in words[2:] if not w.startswith("[--")]
        assert shown == list(flags)
        assert [w.endswith("...") for w in placeholders] == [
            options.get("nargs") == "+" for options in positionals.values()]
