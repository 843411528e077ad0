"""README's library tour runs as written and prints what it shows."""

import contextlib
import io
import re
from pathlib import Path

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
