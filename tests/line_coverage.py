"""The tier-1 tests under a line-coverage gate, with no dependency but pytest.

Run it from the repository root on Python 3.12 or later, with any pytest
arguments after it:

    PYTHONPATH=src python tests/line_coverage.py -q

A ``sys.monitoring`` LINE callback records each line of ``src/mk1`` the
first time it runs and then switches itself off at that line, so the
tests run at nearly full speed.  The tests run in this process through
``pytest.main``.  Exit status: pytest's, if the tests fail; otherwise 1
if some line of a code object compiled from ``src/mk1`` never ran (each
one is listed), and 0.  The file name does not start with ``test_``, so
pytest does not collect it.
"""

import sys
from pathlib import Path
from types import CodeType

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "mk1"


def code_lines(path: Path) -> set[int]:
    """The lines of every code object compiled from ``path``."""
    todo = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    lines = set()
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # 0: a module's start
        todo += [c for c in code.co_consts if isinstance(c, CodeType)]
    return lines


def main(args: list[str]) -> int:
    if sys.version_info < (3, 12):
        print("line_coverage.py needs sys.monitoring, new in Python 3.12", file=sys.stderr)
        return 1
    files = {str(path): path for path in sorted(SRC.glob("*.py"))}
    ran: set[tuple[str, int]] = set()

    def on_line(code, line):
        if code.co_filename in files:
            ran.add((code.co_filename, line))
        return sys.monitoring.DISABLE

    tool = sys.monitoring.COVERAGE_ID
    sys.monitoring.use_tool_id(tool, "line_coverage")
    sys.monitoring.register_callback(tool, sys.monitoring.events.LINE, on_line)
    sys.monitoring.set_events(tool, sys.monitoring.events.LINE)
    try:
        status = pytest.main(args)
    finally:
        sys.monitoring.set_events(tool, sys.monitoring.events.NO_EVENTS)
        sys.monitoring.free_tool_id(tool)
    if status:
        return int(status)
    missed = [f"{path.relative_to(SRC.parents[1])}:{line}" for name, path in files.items()
              for line in sorted(code_lines(path)) if (name, line) not in ran]
    print("\n".join(["lines of src/mk1 that no test ran:", *missed]) if missed
          else f"every line of src/mk1 ran ({len(ran)} lines)")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
