"""The command line on damaged inputs: every run ends in 0, 1 or 2.

Formula, table and code files, valid to start with, get one byte or one
line changed, and go in process through ``mk1 phi-b`` (with and without
``--check``), ``count-forallsat``, ``dindex``, ``heights`` (with and
without ``--dfa``), ``normalize``, ``compose`` (a table with itself),
``measure`` and ``dfa-mu`` (with and without ``--dump``).  No exception may
escape ``cli.main``, a failure is one ``error`` line on stderr, and what
succeeds agrees with the other commands on the same file: ``normalize``
output reads back to itself, and ``compose`` prints the library's
composition.
"""

import contextlib
import io
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from helpers import prefix_free, tables, words
from mk1.cli import main
from mk1.elements import compose, format_table, parse_table
from mk1.reductions import formula_from_truth_table
from mk1.words import format_word

# bytes a one-byte change writes: formula and table syntax, digits that
# resize a shape, separators, and bytes that are not UTF-8 text
_BYTES = b"01239xy&|!()= mnk-\n#^abc>\t" + bytes([0xC3, 0xFF])
_LINES = [b"", b"k 2", b"k 3", b"k 1", b"k -1", b"k 27", b"a -> b", b"aa -> ^", b"^ -> ^",
          b"b -> a", b"ab", b"m=1 n=1 x1", b"m=0 n=0 1", b"m=2 n=1 x2 & !y1 | x1",
          b"# comment", b"\xff\xfe"]


@st.composite
def formula_files(draw):
    """A DNF of at most three variables, or a small formula by hand."""
    m, n = draw(st.integers(0, 2)), draw(st.integers(0, 1))
    dnf = str(formula_from_truth_table(m, n, draw(st.integers(0, (1 << (1 << (m + n))) - 1))))
    return draw(st.sampled_from([dnf, "m=1 n=1 x1 | y1", "m=2 n=1 (x1 | !x2) & y1"])).encode()


table_files = st.sampled_from((2, 3)).flatmap(tables).map(lambda e: format_table(e).encode())


@st.composite
def code_files(draw):
    """A nonempty prefix code of short words, one per line, some with a comment."""
    k = draw(st.sampled_from((2, 3)))
    code = prefix_free(draw(st.lists(words(k, 4), min_size=1, max_size=8)))
    lines = [format_word(w) + draw(st.sampled_from(("", "  # a word"))) for w in code]
    return "\n".join([f"k {k}", *lines]).encode()


@st.composite
def changed(draw, files):
    """A file with one byte or one line replaced, one line dropped, or as it is."""
    data = draw(files)
    how = draw(st.sampled_from(("none", "byte", "line", "drop")))
    if how == "none":
        return data
    if how == "byte":
        i = draw(st.integers(0, len(data) - 1))
        return data[:i] + bytes([draw(st.sampled_from(_BYTES))]) + data[i + 1:]
    lines = data.split(b"\n")
    i = draw(st.integers(0, len(lines) - 1))
    lines[i:i + 1] = [draw(st.sampled_from(_LINES))] if how == "line" else []
    return b"\n".join(lines)


def _run(*argv) -> tuple[int, str]:
    """Exit code and stdout of ``mk1 argv``; a failure must leave exactly one
    ``error`` line on stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    assert code in (0, 1, 2)
    if code:
        assert err.getvalue().startswith("error") and err.getvalue().count("\n") == 1
    return code, out.getvalue()


def _written(data: bytes, run):
    """What ``run`` returns on the path of a file holding ``data``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.txt"
        path.write_bytes(data)
        return run(str(path))


@settings(max_examples=150, deadline=None)
@given(changed(formula_files()))
def test_formula_commands_end_in_a_named_status(data):
    def run(path):
        checked = _run("phi-b", "--check", path)
        plain = _run("phi-b", path)
        counted = _run("count-forallsat", path)
        assert plain[0] == checked[0]
        if checked[0] == 0:
            assert checked[1].startswith(plain[1])
            assert checked[1].splitlines()[-1] == f"count {counted[1].strip()}"

    _written(data, run)


@settings(max_examples=150, deadline=None)
@given(changed(table_files))
def test_table_commands_end_in_a_named_status(data):
    def run(path):
        for kind in ("M", "plep"):
            _run("dindex", kind, path)
        report = _run("heights", path)
        if report[0] == 0:
            assert _run("heights", "--dfa", path) == report
        normal = _run("normalize", path)
        composed = _run("compose", path, path)
        assert normal[0] == composed[0] == report[0]
        if normal[0] == 0:
            assert _written(normal[1].encode(), lambda again: _run("normalize", again)) == normal
            e = parse_table(data.decode())
            assert composed[1] == format_table(compose(e, e)) + "\n"

    _written(data, run)


@settings(max_examples=150, deadline=None)
@given(changed(code_files()))
def test_code_commands_end_in_a_named_status(data):
    def run(path):
        measured = _run("measure", path)
        plain = _run("dfa-mu", path)
        dumped = _run("dfa-mu", "--dump", path)
        assert plain[0] == dumped[0]
        if plain[0] == 0:  # the empty code has a measure, 0, but no automaton
            assert plain == measured
            assert dumped[1].splitlines()[-1] == f"mu: {measured[1].strip()}"

    _written(data, run)
