"""The command line on damaged inputs: every run ends in 0, 1 or 2.

Formula, table and code files, valid to start with, get one byte or one
line changed, and go in process through ``mk1 phi-b`` (with and without
``--check``), ``count-forallsat`` (with and without ``--via-element``),
``dindex``, ``heights`` (plain, ``--check`` and ``--dfa``), ``normalize``,
``compose`` (a table with itself), ``measure`` (with and without
``--check``) and ``dfa-mu`` (with and without ``--dump``); pairs of them through ``green`` (all six
relations), ``witness-plep`` and ``separate``.  Drawn alphabet sizes,
measure strings (some above 1), words and generator tokens go through
``chain`` (counts below 100), ``with-heights``, ``synth-id`` and
``eval-gen``, and so do tokens starting with '-' in place of a word, a
generator token or a measure.  No exception may escape ``cli.main``; a
failure prints nothing to stdout and one ``error`` line on stderr, after
argparse's usage when argparse refuses a token; and what succeeds agrees
with the library or with the other commands: ``normalize`` and
``eval-gen`` output reads back, ``compose`` prints the library's
composition, both ways of counting agree, ``--check`` prints what the
plain ``heights`` and ``measure`` print, ``separate``'s contexts kill
exactly one side, ``with-heights`` has the asked heights, ``chain`` climbs
strictly between its bounds, and ``synth-id``'s word evaluates to its
partial identity.
"""

import contextlib
import io
import re
import tempfile
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from helpers import prefix_free, tables, words
from mk1.cli import _RELATIONS, main
from mk1.elements import Mk1Element, compose, format_table, parse_table
from mk1.errors import Mk1Error
from mk1.green import dense_chain, heights
from mk1.kary import parse_krational
from mk1.reductions import formula_from_truth_table
from mk1.words import format_word, parse_word, words_of_length

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
def table_pairs(draw):
    """Two table files over one alphabet, either possibly damaged, or now
    and then one file twice."""
    files = tables(draw(st.sampled_from((2, 3)))).map(lambda e: format_table(e).encode())
    f = draw(changed(files))
    return f, f if draw(st.integers(0, 3)) == 0 else draw(changed(files))


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


def _run(*argv, usage=False) -> tuple[int, str]:
    """Exit code and stdout of ``mk1 argv``.  A failure prints nothing to
    stdout and ends stderr in its one ``error`` line, which comes alone
    unless ``usage`` allows argparse's usage lines before it (status 1)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    assert code in (0, 1, 2)
    if code:
        assert out.getvalue() == ""
        *head, last = err.getvalue().splitlines() or [""]
        assert err.getvalue().endswith("\n") and last.startswith("error")
        assert not head or (usage and code == 1 and head[0].startswith("usage: mk1")
                            and not any("error" in line for line in head))
    return code, out.getvalue()


def _written(data: bytes, run, *more: bytes):
    """What ``run`` returns on the paths of files holding ``data`` and ``more``."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = [Path(tmp) / f"input{i}.txt" for i in range(1 + len(more))]
        for path, content in zip(paths, (data, *more)):
            path.write_bytes(content)
        return run(*map(str, paths))


@settings(max_examples=150, deadline=None)
@given(changed(formula_files()))
def test_formula_commands_end_in_a_named_status(data):
    def run(path):
        checked = _run("phi-b", "--check", path)
        plain = _run("phi-b", path)
        counted = _run("count-forallsat", path)
        assert plain[0] == checked[0]
        assert _run("count-forallsat", "--via-element", path) == counted
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
        assert _run("heights", "--check", path) == report
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
        assert _run("measure", "--check", path) == measured
        plain = _run("dfa-mu", path)
        dumped = _run("dfa-mu", "--dump", path)
        assert plain[0] == dumped[0]
        if plain[0] == 0:  # the empty code has a measure, 0, but no automaton
            assert plain == measured
            assert dumped[1].splitlines()[-1] == f"mu: {measured[1].strip()}"

    _written(data, run)


@settings(max_examples=100, deadline=None)
@given(table_pairs())
def test_table_pair_commands_end_in_a_named_status(pair):
    def run(f_path, g_path):
        for relation in _RELATIONS:
            status, out = _run("green", relation, f_path, g_path)
            assert status or out in ("true\n", "false\n")
        status, out = _run("witness-plep", f_path, g_path)
        if status == 0:
            head, b_text, bp_text = out.split("\n\n")
            assert head in ("tlep true", "tlep false")
            linked = compose(parse_table(bp_text), parse_table(b_text))
            assert compose(linked, linked) == linked
        status, out = _run("separate", f_path, g_path)
        if status == 0:
            c1, c2 = (parse_table(text) for text in out.split("\n\n"))
            f, g = (parse_table(data.decode()) for data in pair)
            assert compose(compose(c1, f), c2).is_zero != compose(compose(c1, g), c2).is_zero

    _written(pair[0], run, pair[1])


# alphabet sizes: too small, binary and ternary, the largest with digit
# measures, and one that writes a measure's digits in brackets
_SIZES = (-1, 0, 1, 2, 2, 3, 3, 10, 11)


@st.composite
def measure_texts(draw, k):
    """A base-k measure below 2, or a damaged string."""
    whole = draw(st.sampled_from("0001"))
    digits = draw(st.lists(st.integers(0, max(k, 2) - 1), max_size=5))
    if k > 10:
        text = f"{whole}.[{','.join(map(str, digits))}]" if digits else whole
    else:
        text = f"{whole}.{''.join(map(str, digits))}" if digits else whole
    return draw(st.sampled_from([text] * 8 + ["", "??", ".1", "1.2.3", "-0.1", "0.9", "0.[1]"]))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(_SIZES).flatmap(lambda k: st.tuples(
    st.just(k), measure_texts(k), st.one_of(measure_texts(k), st.sampled_from(("1", "2", "10"))),
    st.integers(0, 99))))
@example((2, "0.1", "10", 5))  # the fifth measure is above 1
@example((2, "0", "10", 4))    # the fourth measure is exactly 1
def test_measure_commands_end_in_a_named_status(args):
    k, lo, hi, count = args
    status, out = _run("chain", str(k), lo, hi, str(count))
    if status == 0:
        chain = [parse_table(text) for text in out.split("\n\n")] if count else []
        assert out == "\n" or len(chain) == count
        bounds = [parse_krational(k, lo)] + [e.domain_code.mu for e in chain] + [parse_krational(k, hi)]
        assert all(a < b for a, b in zip(bounds, bounds[1:]))
    status, out = _run("with-heights", str(k), lo, hi)
    if status == 0:
        report = heights(parse_table(out))
        assert (report.r, report.l) == (parse_krational(k, lo), parse_krational(k, hi))


@settings(max_examples=200, deadline=None)
@given(st.integers(27, 40).flatmap(lambda k: st.tuples(
    st.just(k), *[st.lists(st.integers(0, k - 1), max_size=3)] * 2, st.integers(0, 60))))
@example((30, [], [29], 40))       # 0 to 1 in 900ths: the 27th needs letter 26
@example((27, [19, 10], [19, 11], 30))   # a last digit 26 needs no letter past 'z'
@example((28, [], [27], 0))        # the first measure would need one, but none is printed
def test_chains_past_z_fail_before_printing(args):
    """Over more than 26 letters a chain prints its tables when none needs
    a letter past 'z', and otherwise nothing."""
    k, lo_digits, hi_digits, count = args
    lo, hi = (f"0.[{','.join(map(str, ds))}]" if ds else "0" for ds in (lo_digits, hi_digits))
    status, out = _run("chain", str(k), lo, hi, str(count))
    try:
        chain = dense_chain(k, parse_krational(k, lo), parse_krational(k, hi), count)
    except Mk1Error:
        assert status == 2
        return
    if any(a >= 26 for e in chain for row in e.rows for w in row for a in w):
        assert status == 2
    else:
        assert (status, out) == (0, "\n\n".join(map(format_table, chain)) + "\n")


_TOKENS = ("and", "or", "not", "fork", "proj2", "guard", "E0", "E1", "E3", "tau(0)", "tau(1)",
           "tau(2)", "tau(40)", "frob", "and,not", "", "E" + "9" * 20)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(_SIZES[:7]),  # at most 3 letters: a gate has k**width rows
       st.one_of(st.text("ab", min_size=1, max_size=3), st.text("abcd^ ", max_size=3)),
       st.lists(st.sampled_from(_TOKENS), min_size=1, max_size=4))
def test_generator_commands_end_in_a_named_status(k, word, tokens):
    status, out = _run("synth-id", str(k), word)
    if status == 0:
        target = parse_word(word, k)
        evaluated = _run("eval-gen", str(k), *out.split())
        want = Mk1Element.make(k, [(w, w) for w in words_of_length(k, len(target)) if w != target])
        assert evaluated[0] == 0 and parse_table(evaluated[1]).reduced() == want.reduced()
    status, out = _run("eval-gen", str(k), *tokens)
    if status == 0:
        assert format_table(parse_table(out)) + "\n" == out


# each command with its arguments after k, of which the first ``free`` may
# be dashed: never k or chain's count, where a negative number is a domain error
_DASHABLE = ((2, "synth-id", ("ab",), 1), (3, "eval-gen", ("and", "not"), 2),
             (2, "chain", ("0.01", "0.1", "3"), 2), (3, "with-heights", ("0.1", "0.1"), 2))


@st.composite
def dashed_argv(draw):
    """A command line with one word, generator token or measure replaced by
    a token starting with '-' (but not '--' alone, which ends the options)."""
    k, name, args, free = draw(st.sampled_from(_DASHABLE))
    args = list(args)
    args[draw(st.integers(0, free - 1))] = "-" + draw(st.text("-ax0.1", max_size=3).filter(
        lambda rest: rest != "-"))
    return [name, str(k), *args]


@settings(max_examples=100, deadline=None)
@given(dashed_argv())
@example(["eval-gen", "2", "-x"])
@example(["synth-id", "2", "-a"])
@example(["chain", "2", "-1", "0.1", "3"])
def test_dashed_tokens_are_refused(argv):
    """argparse refuses a token it reads as an option, printing its usage
    before the error line (status 1).  It passes '-' and negative numbers
    on as arguments: the readers refuse those (status 1), and ``eval-gen``
    names them unknown gates (status 2)."""
    dashed = next(a for a in argv[2:] if a.startswith("-"))
    argument = re.fullmatch(r"-|-\d+|-\d*\.\d+", dashed)  # argparse's own rule
    assert _run(*argv, usage=True)[0] == (2 if argument and argv[0] == "eval-gen" else 1)
