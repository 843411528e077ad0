import contextlib
import inspect
import io
import os
import re
import runpy
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import mk1
from helpers import deep_code, deep_rotation, nested_images
from mk1 import dfa, reductions
from mk1.cli import _COMMANDS, main
from mk1.elements import compose, format_table, parse_table
from mk1.green import dense_chain, heights, iter_dense_chain
from mk1.kary import kq, parse_krational
from mk1.words import format_word

PHI1 = "k 2\naa -> a\nab -> aa\nb -> aaa\n"
SWAP = "k 2\na -> b\nb -> a\n"
CODE = "k 2\na\nba\nbb  # a maximal code\n"
FORMULA = "m=1 n=1 x1 | y1"


@pytest.fixture
def files(tmp_path):
    def write(name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)
    return write


def subprocess_env():
    """The environment in which ``python -m mk1.cli`` imports the mk1 that
    this test imported."""
    src = str(Path(mk1.__file__).resolve().parents[1])
    paths = [src, os.environ.get("PYTHONPATH", "")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_normalize(files, capsys):
    code, out, _ = run(capsys, "normalize", files("t.txt", PHI1))
    assert code == 0
    assert out == "k 2\nb -> aaa\naa -> a\nab -> aa\n"
    # idempotent on already-normal tables, byte for byte
    code2, out2, _ = run(capsys, "normalize", files("t2.txt", out))
    assert code2 == 0 and out2 == out


def test_compose(files, capsys):
    code, out, _ = run(capsys, "compose", files("f.txt", PHI1), files("g.txt", SWAP))
    assert code == 0
    assert out == "k 2\na -> aaa\nba -> a\nbb -> aa\n"


def test_measure(files, capsys):
    assert run(capsys, "measure", files("c.txt", CODE)) == (0, "1\n", "")
    assert run(capsys, "measure", files("c2.txt", "k 2\naa\nb\n"))[1] == "0.11\n"


HEIGHTS = (
    "R 0.1\n"
    "L 0.11\n"
    "Lmax 0.01\n"
    "Lave 2^(-8/3) + 2^(-3) + 2^(-7/2)\n"
    "Lmed 2*2^(-3) + 2^(-7/2)\n"
)


def test_heights(files, capsys):
    path = files("t.txt", PHI1)
    assert run(capsys, "heights", path) == (0, HEIGHTS, "")
    assert run(capsys, "heights", "--dfa", path) == (0, HEIGHTS, "")


def test_green(files, capsys):
    f = files("f.txt", PHI1)
    g = files("g.txt", SWAP)
    assert run(capsys, "green", "leqR", f, g) == (0, "true\n", "")
    assert run(capsys, "green", "eqL", f, g)[1] == "false\n"
    assert run(capsys, "green", "eqD-M", f, g)[1] == "true\n"
    code, _, err = run(capsys, "green", "eqD-plep", f, g)
    assert code == 2
    assert err.startswith("error NotPlep:")


def test_green_on_a_deep_table(files, capsys):
    ident = files("id.txt", "k 2\n^ -> ^\n")
    deep = files("deep.txt", format_table(deep_rotation(1500)) + "\n")
    assert run(capsys, "green", "leqR", ident, deep) == (0, "true\n", "")
    assert run(capsys, "green", "eqR", ident, deep) == (0, "true\n", "")


def test_heights_dfa_on_a_deep_table(files, capsys):
    """1501 one-word fibers, 1.1 million letters in all: linear, so fast."""
    table = files("deep.txt", format_table(deep_rotation(1500)) + "\n")
    started = time.perf_counter()
    assert run(capsys, "heights", "--dfa", table) == (
        0, "R 1\nL 1\nLmax 1\nLave 1\nLmed 1\n", "")
    assert time.perf_counter() - started < 6.0


def test_dfa_mu_on_a_deep_code(files, capsys):
    code = files("deep.txt", "k 2\n" + "\n".join(map(format_word, deep_code(1500))) + "\n")
    started = time.perf_counter()
    assert run(capsys, "dfa-mu", code) == (0, "1\n", "")
    assert time.perf_counter() - started < 1.0


def test_dfa_mu_over_a_billion_letters(files, capsys):
    """A trie node's signature holds only the letters it has, not all k."""
    code = files("big.txt", "k 1000000000\n^\n")
    started = time.perf_counter()
    assert run(capsys, "dfa-mu", code) == (0, "1\n", "")
    assert time.perf_counter() - started < 1.0


def _run_capped(argv):
    """``python -m mk1.cli argv`` in a child process whose address space is
    capped at 1 GiB, where a listing of 10^9 letters ends in MemoryError."""
    resource = pytest.importorskip("resource")

    def cap():
        hard = resource.getrlimit(resource.RLIMIT_AS)[1]
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, hard))

    return subprocess.run([sys.executable, "-m", "mk1.cli", *argv], capture_output=True,
                          text=True, timeout=60, env=subprocess_env(), preexec_fn=cap)


@pytest.mark.parametrize("argv", [
    ["heights", "ID"], ["heights", "--dfa", "ID"], ["heights", "--check", "ID"],
    ["dindex", "M", "ID"], ["green", "eqD-M", "ID", "ID"], ["separate", "ID", "ONE"]])
def test_a_walk_with_no_inner_node_answers_over_a_billion_letters(files, argv):
    """The identity's image trie has no inner node, so no walk lists the
    letters: over 10^9 letters the commands print what they print over 2,
    the tables' k header lines aside."""
    outs = []
    for k in (2, 10**9):
        paths = {"ID": files(f"id{k}.txt", f"k {k}\n^ -> ^\n"),
                 "ONE": files(f"one{k}.txt", f"k {k}\n^ -> a\n")}
        started = time.perf_counter()
        done = _run_capped([paths.get(arg, arg) for arg in argv])
        assert time.perf_counter() - started < 10.0
        assert done.returncode == 0 and "Traceback" not in done.stderr
        outs.append([line for line in done.stdout.splitlines() if not line.startswith("k ")])
    assert outs[0] == outs[1]


@pytest.mark.parametrize("argv", [
    ["heights", "INNER"],
    ["with-heights", "1000000000", "0.[999999999]", "0.[999999999]"],
    ["with-heights", "3000000", "0.[2999999]", "0.[2999999]"],
    ["with-heights", "2", "0." + "1" * 20000, "0." + "1" * 20000],
    ["with-heights", "2", "0." + "0" * 7999 + "1", "0." + "1" * 8000]])
def test_listing_more_than_2_20_letters_is_refused(files, argv):
    """A walk that reaches an inner node lists the k letters, and a code of
    a given measure counts its words first: both are refused at once.  So
    are codes of more than 2^25 letters (20,000 ones make about 2·10^8),
    and splitting 2^-8000's one word 7,999 times against 8,000 ones, which
    would add about 9.6·10^7 letters: TooLarge, not a MemoryError."""
    table = files("inner.txt", "k 1000000000\na -> a\nb -> ab\n")
    started = time.perf_counter()
    done = _run_capped([table if arg == "INNER" else arg for arg in argv])
    assert time.perf_counter() - started < 10.0
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.startswith("error TooLarge:") and "Traceback" not in done.stderr


def test_starting_the_cli_loads_no_numeric_tower():
    """Nothing that ``mk1.cli`` imports pulls in ``fractions``, ``decimal``
    or ``numbers``: checked in an interpreter started with -S, so that no
    site module loads them first."""
    code = ("import sys, mk1.cli; "
            "print(sorted({'fractions', 'decimal', 'numbers'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          timeout=60, env=subprocess_env())
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")


PLEP = "k 2\naa -> ab\nab -> bb\nba -> ba\nbb -> aa\n"


# the modules a command loads past cli, errors, kary and words
TABLES = ("congruence", "elements")
COMMAND_LOADS = [
    (["normalize", "PHI1"], TABLES),
    (["compose", "PHI1", "SWAP"], TABLES),
    (["measure", "CODE"], ()),
    (["heights", "PHI1"], (*TABLES, "green")),
    *[(["green", relation, "PHI1", "SWAP"], (*TABLES, "green"))
      for relation in ("leqR", "leqL", "eqR", "eqL", "eqD-M")],
    (["dindex", "M", "PHI1"], (*TABLES, "green")),
    (["chain", "2", "0.01", "0.1", "3"], (*TABLES, "green")),
    (["with-heights", "2", "0.1", "0.11"], (*TABLES, "green")),
    (["separate", "PHI1", "SWAP"], (*TABLES, "green")),
    (["heights", "--dfa", "PHI1"], (*TABLES, "dfa", "green")),
    (["heights", "--check", "PHI1"], (*TABLES, "dfa", "green")),
    (["measure", "--check", "CODE"], (*TABLES, "dfa", "green")),
    (["dfa-mu", "CODE"], (*TABLES, "dfa", "green")),
    (["green", "eqD-plep", "SWAP", "PLEP"], (*TABLES, "plep")),
    (["dindex", "plep", "SWAP"], (*TABLES, "plep")),
    (["witness-plep", "SWAP", "PLEP"], (*TABLES, "plep")),
    (["synth-id", "2", "a"], (*TABLES, "circuits")),
    (["eval-gen", "2", "proj2", "fork"], (*TABLES, "circuits")),
    (["phi-b", "FORMULA"], (*TABLES, "reductions")),
    (["count-forallsat", "FORMULA"], (*TABLES, "reductions"))]


@pytest.mark.parametrize("argv, loaded", COMMAND_LOADS,
                         ids=[" ".join(argv) for argv, _ in COMMAND_LOADS])
def test_each_command_loads_only_the_modules_it_calls(files, argv, loaded):
    """Every command loads ``cli``, ``errors``, ``kary`` and ``words``; past
    them it imports only the modules it calls (``measure`` none, one that
    works on tables ``elements`` and ``congruence``, ``dfa`` the report type
    from ``green``), and none of ``dataclasses``, ``inspect`` and ``typing``.
    Each runs in a new interpreter started with -S."""
    texts = {"PHI1": PHI1, "SWAP": SWAP, "CODE": CODE, "PLEP": PLEP, "FORMULA": FORMULA}
    inputs = {name: files(name, text) for name, text in texts.items()}
    child = ("import io, sys, mk1.cli; sys.stdout = io.StringIO(); "
             "status = mk1.cli.main(sys.argv[1:]); sys.stdout = sys.__stdout__; "
             "print(status, *sorted(m[4:] for m in sys.modules if m.startswith('mk1.'))); "
             "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-S", "-c", child, *[inputs.get(a, a) for a in argv]],
                          capture_output=True, text=True, timeout=60, env=subprocess_env())
    base = ("cli", "errors", "kary", "words")
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.splitlines() == [" ".join(["0", *sorted(base + loaded)]), "[]"]


PACKAGE_NAMES = """
    HeightReport KRational Mk1Element Mk1Error NoValue ParseError PrefixCode
    PrefixCodeCongruence apply code_with_measure collision_measure compose congruence
    d_index_M d_index_plep dense_chain element_with_heights elements eq_D_M eq_D_plep eq_L
    eq_R errors eta_idempotent format_height_report format_krational format_table
    format_word green heights identity_element image_code image_code_restriction
    is_idempotent is_injective is_plep is_tlep kary kq leq_L leq_R mu noncollision_measure
    parse_code parse_krational parse_table parse_word part partial_identity plep
    plep_d_witness plep_element_with_index r2_normal_form section_inverse separating_context
    split_class words zero_element
""".split()


def test_the_package_names_resolve_in_their_modules_on_first_use(monkeypatch):
    """``mk1`` exports these 58 names and the modules ``circuits``, ``dfa``
    and ``reductions``, each the object its own module defines, looked up
    afresh on every use; a bare ``import mk1`` loads none of them."""
    names = sorted(PACKAGE_NAMES + ["circuits", "dfa", "reductions"])
    assert mk1.__all__ == names and set(names) <= set(dir(mk1))
    for name in names:
        value = getattr(mk1, name)
        home = value.__name__ if inspect.ismodule(value) else value.__module__
        assert home.startswith("mk1.") and value is (
            sys.modules[home] if home == f"mk1.{name}" else getattr(sys.modules[home], name))
    namespace = {}
    exec("from mk1 import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == names
    monkeypatch.setattr(mk1.green, "heights", len)
    assert mk1.heights is len
    with pytest.raises(AttributeError, match="'no_such_name'"):
        mk1.no_such_name
    done = subprocess.run(
        [sys.executable, "-S", "-c", "import sys, mk1; print(*sorted(m for m in sys.modules "
         "if m.startswith('mk1')))"], capture_output=True, text=True, timeout=60,
        env=subprocess_env())
    assert (done.returncode, done.stdout, done.stderr) == (0, "mk1\n", "")


def test_green_L_on_nested_images(files, capsys):
    """1,024 nested images: two compositions, where the fiber walk is cubic."""
    table = files("nested.txt", format_table(nested_images(10)) + "\n")
    started = time.perf_counter()
    assert run(capsys, "green", "leqL", table, table) == (0, "true\n", "")
    assert run(capsys, "green", "eqL", table, table) == (0, "true\n", "")
    assert time.perf_counter() - started < 5.0


def test_heights_on_nested_images(files, capsys):
    """1,024 nested images: the walk reads each fiber's lengths off its path,
    where the restriction has 2^28 letters."""
    table = files("nested.txt", format_table(nested_images(10)) + "\n")
    started = time.perf_counter()
    code, out, _ = run(capsys, "heights", table)
    assert time.perf_counter() - started < 5.0
    assert code == 0 and out.startswith("R 1\nL 0.10000000001\nLmax 0.0000000001\nLave ")


def test_heights_dfa_on_nested_images(files, capsys):
    """1,024 nested images through automata: the x-tries and one suffix
    chain per fiber, no fiber word."""
    table = files("nested.txt", format_table(nested_images(10)) + "\n")
    started = time.perf_counter()
    code, out, _ = run(capsys, "heights", "--dfa", table)
    assert time.perf_counter() - started < 20.0
    assert code == 0 and run(capsys, "heights", table)[:2] == (0, out)


def test_dindex_M_answers_past_the_image_code_restriction_cap(files, capsys):
    """2,048 nested images, whose restriction would have 2,098,176 rows: the
    D-index reads both heights off the image trie and builds none of them."""
    table = files("nested.txt", format_table(nested_images(11)) + "\n")
    started = time.perf_counter()
    assert run(capsys, "dindex", "M", table) == (0, "1\n", "")
    assert time.perf_counter() - started < 5.0


def test_dindex(files, capsys):
    assert run(capsys, "dindex", "M", files("f.txt", PHI1)) == (0, "1\n", "")
    assert run(capsys, "dindex", "M", files("z.txt", "k 2\n"))[1] == "zero\n"
    three = "k 3\na -> b\nb -> a\nc -> ba\n"
    assert run(capsys, "dindex", "M", files("t.txt", three))[1] == "2\n"
    code, _, err = run(capsys, "dindex", "plep", files("g.txt", SWAP))
    assert code == 0
    assert run(capsys, "dindex", "plep", files("p.txt", PHI1))[0] == 2


def test_chain(files, capsys):
    code, out, _ = run(capsys, "chain", "2", "0.01", "0.1", "3")
    assert code == 0
    blocks = out.strip().split("\n\n")
    assert len(blocks) == 3
    measures = [parse_table(b).domain_code.mu for b in blocks]
    lo, hi = parse_krational(2, "0.01"), parse_krational(2, "0.1")
    assert all(lo < m < hi for m in measures)
    assert measures == sorted(measures)


def test_chain_prints_the_tables_of_dense_chain(capsys):
    lo, hi = parse_krational(3, "0.01"), parse_krational(3, "0.2")
    for count in range(7):
        want = "\n\n".join(format_table(e) for e in dense_chain(3, lo, hi, count)) + "\n"
        assert run(capsys, "chain", "3", "0.01", "0.2", str(count)) == (0, want, "")


def test_chain_past_1_fails_before_printing(capsys):
    """A chain whose largest measure is above 1 prints nothing; one whose
    largest measure is exactly 1 prints all its tables, the last the
    identity."""
    assert run(capsys, "chain", "2", "0.1", "10", "5") == (
        2, "", "error OutOfRange: measures above 1 have no prefix code\n")
    # 5,000 integer digits, more than int() reads by default, are no different
    assert run(capsys, "chain", "3", "0", "1" * 5000, "1") == (
        2, "", "error OutOfRange: measures above 1 have no prefix code\n")
    code, out, _ = run(capsys, "chain", "2", "0", "10", "4")
    assert code == 0 and out.split("\n\n")[-1] == "k 2\n^ -> ^\n" and out.count("k 2") == 4


def test_chain_streams_its_tables():
    """The first table of a chain of 10^11 idempotents is printed within
    seconds, long before the whole chain could be built."""
    argv = ["chain", "2", "0.1", "0.11", "100000000000"]
    lo, hi = parse_krational(2, argv[2]), parse_krational(2, argv[3])
    first = format_table(next(iter_dense_chain(2, lo, hi, int(argv[4]))))
    out = b""
    with subprocess.Popen(
        [sys.executable, "-m", "mk1.cli", *argv], stdout=subprocess.PIPE, env=subprocess_env(),
    ) as proc:
        deadline = time.monotonic() + 5
        try:
            while b"\n\n" not in out:
                left = deadline - time.monotonic()
                if left <= 0 or not select.select([proc.stdout], [], [], left)[0]:
                    break
                chunk = os.read(proc.stdout.fileno(), 1 << 16)
                if not chunk:
                    break
                out += chunk
        finally:
            proc.kill()
    assert out.decode().split("\n\n")[0] == first


@pytest.mark.parametrize("unbuffered", ["", "1"])
@pytest.mark.parametrize("count, take", [("100000000000", 10), ("3", 0)])
def test_closed_stdout_pipe_is_not_a_failure(tmp_path, count, take, unbuffered):
    """The reader takes 10 bytes of an endless chain, or none of a short
    one, and closes the pipe: the command ends quietly, with exit status 0
    and nothing on stderr.  Buffered output that is still unwritten when
    the command ends would otherwise fail the interpreter's final flush."""
    argv = ["chain", "2", "0.1", "0.11", count]
    with open(tmp_path / "err.txt", "wb") as err, subprocess.Popen(
        [sys.executable, "-m", "mk1.cli", *argv], stdout=subprocess.PIPE, stderr=err,
        env={**subprocess_env(), "PYTHONUNBUFFERED": unbuffered},
    ) as proc:
        try:
            assert len(proc.stdout.read(take)) == take
            proc.stdout.close()
            status = proc.wait(timeout=10)
        finally:
            proc.kill()
    assert status == 0
    assert (tmp_path / "err.txt").read_text() == ""


@contextlib.contextmanager
def closed_stdout(monkeypatch):
    """``sys.stdout`` on a pipe whose flush fails as if its reader had gone;
    gives the pipe's read end.  (Not a fixture: pytest's capture resets
    ``sys.stdout`` between a fixture's setup and the test.)"""
    read_end, write_end = os.pipe()

    class ClosedPipe(io.StringIO):
        def fileno(self):
            return write_end

        def flush(self):
            raise BrokenPipeError

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    try:
        yield read_end
    finally:
        os.close(read_end)
        os.close(write_end)


def test_a_closed_stdout_is_an_error_line(files):
    """Started with descriptor 1 closed, a command would print into
    nothing: it ends before it runs with one error line and status 1."""
    done = subprocess.run([sys.executable, "-m", "mk1.cli", "normalize", files("t.tbl", PHI1)],
                          stderr=subprocess.PIPE, text=True, timeout=60, env=subprocess_env(),
                          preexec_fn=lambda: os.close(1))
    assert (done.returncode, done.stderr) == (1, "error: standard output is closed\n")


def test_sigint_ends_with_status_130_and_no_traceback():
    """SIGINT while an endless chain streams ends the command with the
    shell's status for it, 128 + 2, and nothing on stderr."""
    with subprocess.Popen(
        [sys.executable, "-m", "mk1.cli", "chain", "2", "0.1", "0.11", "100000000000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=subprocess_env(),
        preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL),  # `&` would ignore it
    ) as proc:
        try:
            chunk, out, deadline = b" ", b"", time.monotonic() + 10
            while chunk and b"\n\n" not in out and select.select(
                    [proc.stdout], [], [], max(0, deadline - time.monotonic()))[0]:
                chunk = os.read(proc.stdout.fileno(), 1 << 16)
                out += chunk
            assert b"\n\n" in out  # the first table is out: the command is running
            proc.send_signal(signal.SIGINT)
            _, err = proc.communicate(timeout=10)
        finally:
            proc.kill()
    assert (proc.returncode, err) == (130, b"")  # no KeyboardInterrupt traceback


def test_closed_stdout_pipe_in_process(monkeypatch):
    """The same exit in this process: the final flush fails, and the command
    points its output descriptor at the null device, which closes the
    pipe's write end, and returns 0."""
    with closed_stdout(monkeypatch) as read_end:
        assert main(["chain", "2", "0.1", "0.11", "3"]) == 0
        os.set_blocking(read_end, False)
        assert os.read(read_end, 1) == b""  # no writer is left on the pipe


def _lowest_free_descriptor():
    fd = os.open(os.devnull, os.O_RDONLY)
    os.close(fd)
    return fd


def test_closed_stdout_pipe_leaves_no_descriptor_open(monkeypatch):
    """The descriptor that opened the null device is closed once the null
    device stands in for the pipe, so an exit in process keeps none."""
    with closed_stdout(monkeypatch):
        before = _lowest_free_descriptor()
        assert main(["chain", "2", "0.1", "0.11", "3"]) == 0
        assert _lowest_free_descriptor() == before


def test_module_run_as_a_script_exits_with_the_status_of_main(monkeypatch, capsys):
    """``python -m mk1.cli``, run in this process."""
    monkeypatch.setattr(sys, "argv", ["mk1", "chain", "2", "0.1", "10", "5"])
    monkeypatch.delitem(sys.modules, "mk1.cli")  # runpy warns when the module is already loaded
    with pytest.raises(SystemExit) as stop:
        runpy.run_module("mk1.cli", run_name="__main__")
    assert stop.value.code == 2
    assert capsys.readouterr() == ("", "error OutOfRange: measures above 1 have no prefix code\n")


def test_with_heights(files, capsys):
    code, out, _ = run(capsys, "with-heights", "2", "0.1", "0.11")
    assert code == 0
    rep = heights(parse_table(out))
    assert rep.r == parse_krational(2, "0.1")
    assert rep.l == parse_krational(2, "0.11")
    # digit sums mod k-1 must agree, which only constrains k >= 3
    code, _, err = run(capsys, "with-heights", "3", "0.1", "0.2")
    assert code == 2 and err.startswith("error IndexMismatch:")


def test_synth_and_eval(files, capsys):
    code, out, _ = run(capsys, "synth-id", "2", "a")
    assert code == 0
    assert out == "proj2 guard not E1 fork\n"
    code, out, _ = run(capsys, "eval-gen", "2", *out.split())
    assert code == 0
    assert out == "k 2\nb -> b\n"
    assert run(capsys, "eval-gen", "2", "proj2", "fork")[1] == "k 2\n^ -> ^\n"
    assert run(capsys, "eval-gen", "2", "frob")[0] == 2
    # 2^41 rows would never fit: refused before any is built
    code, out, err = run(capsys, "eval-gen", "2", "tau(40)")
    assert (code, out) == (2, "") and err.startswith("error TooLarge:")


def test_eval_gen_reports_the_first_bad_token(capsys):
    """Every gate is built, left to right, before the program is composed."""
    code, out, err = run(capsys, "eval-gen", "2", "foo", "tau(30)")
    assert (code, out, err) == (2, "", "error UnknownGate: unknown generator 'foo'\n")
    code, out, err = run(capsys, "eval-gen", "2", "tau(30)", "foo")
    assert (code, out) == (2, "")
    assert err == "error TooLarge: a level of 31 letters over 2 letters has more than 2^20 words\n"


def test_gate_tables_are_refused_before_they_are_built(capsys):
    """One rule for every gate: k^width rows, at most 2^20, checked first."""
    started = time.perf_counter()
    code, out, err = run(capsys, "eval-gen", "100000", "and")
    assert time.perf_counter() - started < 1.0
    assert (code, out) == (2, "") and err.startswith("error TooLarge:")
    code, out, err = run(capsys, "eval-gen", "2", "tau(" + "9" * 5000 + ")")
    assert (code, out) == (2, "") and err.startswith("error TooLarge:")


@pytest.mark.parametrize("argv", [
    ["eval-gen", "2", "tau(999999999999999999)"],
    ["count-forallsat", "--via-element", "f.txt"],
    ["phi-b", "f.txt"],
])
def test_levels_past_the_cap_are_refused_before_they_are_listed(files, capsys, argv):
    """A gate's input level, and φ_B's questions for 24 variables, would each
    hold more than 2^20 words: refused at the listing, not out of memory."""
    argv = [files(a, "m=12 n=12 x1 | y1") if a == "f.txt" else a for a in argv]
    started = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - started < 1.0
    assert (code, out) == (2, "") and err.startswith("error TooLarge:") and err.count("\n") == 1


PHI_B = (
    "k 2\n"
    "aaa -> aa\n"
    "aab -> ba\n"
    "aba -> bb\n"
    "abb -> bb\n"
    "baaa -> aa\n"
    "baab -> aa\n"
    "baba -> aa\n"
    "babb -> aa\n"
    "bbaa -> ab\n"
    "bbab -> ab\n"
    "bbba -> ab\n"
    "bbbb -> ab\n"
)


def test_phi_b(files, capsys):
    path = files("f.txt", FORMULA)
    assert run(capsys, "phi-b", path) == (0, PHI_B, "")
    code, out, _ = run(capsys, "phi-b", "--check", path)
    assert code == 0
    assert out == PHI_B + "noncollision 0.0111\npredicted 0.0111\ncount 1\n"
    code, _, err = run(capsys, "phi-b", files("bad.txt", "m=1 n=1 x1 & !x1"))
    assert code == 2 and err.startswith("error NotSurjective:")


def test_heights_and_measure_check_print_what_the_plain_commands_print(files, capsys):
    """On correct input ``--check`` prints the plain command's bytes once;
    the empty code, which has no automaton, still measures 0."""
    for text in (PHI1, SWAP, "k 2\n", "k 3\na -> ^\nb -> ^\nca -> ^\n"):
        table = files("t.txt", text)
        plain = run(capsys, "heights", table)
        assert plain[0] == 0
        for flags in (["--check"], ["--dfa", "--check"], ["--dfa"]):
            assert run(capsys, "heights", *flags, table) == plain
    for text, mu in ((CODE, "1"), ("k 2\na\nba\n", "0.11"), ("k 3\n", "0")):
        code = files("c.txt", text)
        assert run(capsys, "measure", code) == run(capsys, "measure", "--check", code) == (
            0, mu + "\n", "")


def test_heights_and_measure_check_catch_a_wrong_method(files, capsys, monkeypatch):
    """One method answering wrong fails the check with status 2 and one
    error line, before anything is printed."""
    table, code = files("t.txt", PHI1), files("c.txt", CODE)
    swap = parse_table(SWAP)
    monkeypatch.setattr(dfa, "height_report_via_dfa", lambda e: heights(swap))
    for flags in (["--check"], ["--dfa", "--check"]):
        status, out, err = run(capsys, "heights", *flags, table)
        assert (status, out) == (2, "")
        assert err.startswith("error CrossCheckFailed: ") and err.count("\n") == 1
    assert run(capsys, "heights", table)[0] == 0
    monkeypatch.setattr(dfa, "dfa_measure", lambda d: kq(2, 1, 1))
    status, out, err = run(capsys, "measure", "--check", code)
    assert (status, out) == (2, "")
    assert err.startswith("error CrossCheckFailed: ") and err.count("\n") == 1
    assert run(capsys, "measure", code) == (0, "1\n", "")


def test_phi_b_check_catches_a_wrong_count(files, capsys, monkeypatch):
    """A φ_B sending aaa to ba instead of aa: its noncollision measure gives
    count 2, where the formula's ∀-count is 1."""
    wrong = parse_table(PHI_B.replace("aaa -> aa\n", "aaa -> ba\n"))
    monkeypatch.setattr(reductions, "encode_formula", lambda f: wrong)
    code, out, err = run(capsys, "phi-b", "--check", files("f.txt", FORMULA))
    assert code == 2 and out == format_table(wrong) + "\n"
    assert err.startswith("error CrossCheckFailed: ") and err.count("\n") == 1


def test_count_forallsat(files, capsys):
    path = files("f.txt", FORMULA)
    assert run(capsys, "count-forallsat", path) == (0, "1\n", "")
    assert run(capsys, "count-forallsat", "--via-element", path)[1] == "1\n"
    # the measure route repairs non-surjective formulas itself
    bad = files("bad.txt", "m=1 n=1 x1 & !x1")
    assert run(capsys, "count-forallsat", "--via-element", bad) == (0, "0\n", "")


def test_count_forallsat_deep_formula(files, capsys):
    deep = files("deep.txt", "m=0 n=1 " + "!" * 3000 + "y1")
    assert run(capsys, "count-forallsat", deep) == (0, "1\n", "")
    assert run(capsys, "count-forallsat", "--via-element", deep) == (0, "1\n", "")


def test_dfa_mu(files, capsys):
    path = files("c.txt", CODE)
    assert run(capsys, "dfa-mu", path) == (0, "1\n", "")
    code, out, _ = run(capsys, "dfa-mu", "--dump", path)
    assert code == 0
    assert out == (
        "states: 3\nstart: 0\naccept: 1\n"
        "0 --a--> 1\n0 --b--> 2\n2 --a--> 1\n2 --b--> 1\n"
        "mu: 1\n"
    )


def test_witness_plep(files, capsys):
    f = files("f.txt", SWAP)
    g = files("g.txt", "k 2\naa -> ab\nab -> bb\nba -> ba\nbb -> aa\n")
    code, out, _ = run(capsys, "witness-plep", f, g)
    assert code == 0
    head, b_text, bp_text = out.split("\n\n")
    assert head == "tlep true"
    b, bp = parse_table(b_text), parse_table(bp_text)
    left = compose(bp, b)
    assert compose(left, left) == left   # an idempotent linking the two


@pytest.mark.parametrize("text", [
    "k 2\n^ -> " + "a" * 40 + "\n",                 # a total witness over 2^40 words
    "k 2\na -> a\n" + "b" * 40 + " -> " + "b" * 40 + "\n",   # a -> a split 2^39 ways
])
def test_witness_plep_refuses_long_levels_before_building_them(files, capsys, text):
    f = files("f.txt", text)
    started = time.perf_counter()
    code, out, err = run(capsys, "witness-plep", f, f)
    assert time.perf_counter() - started < 1.0
    assert (code, out) == (2, "") and err.startswith("error TooLarge:")


def test_witness_plep_prints_nothing_when_a_table_cannot_be_shown(files, capsys):
    # b shows, but b_prime lists all 27 one-letter words and letter 26 has no name
    f, g = files("f.txt", "k 27\n^ -> ^\n"), files("g.txt", "k 27\n^ -> a\n")
    code, out, err = run(capsys, "witness-plep", f, g)
    assert (code, out) == (2, "") and err.startswith("error OutOfRange:")


def test_separate(files, capsys):
    code, out, _ = run(capsys, "separate", files("f.txt", PHI1), files("g.txt", SWAP))
    assert code == 0
    c1, c2 = (parse_table(t) for t in out.split("\n\n"))
    f, g = parse_table(PHI1), parse_table(SWAP)
    killed_f = compose(compose(c1, f), c2).is_zero
    killed_g = compose(compose(c1, g), c2).is_zero
    assert killed_f != killed_g
    assert run(capsys, "separate", files("h.txt", PHI1), files("i.txt", PHI1))[0] == 2


def test_two_tables_over_different_alphabets_are_a_named_error(files, capsys):
    two, three = files("two.txt", SWAP), files("three.txt", "k 3\na -> b\nb -> a\nc -> c\n")
    for command in (["separate"], ["witness-plep"],
                    *(["green", r] for r in ("leqR", "leqL", "eqR", "eqL", "eqD-M", "eqD-plep"))):
        assert run(capsys, *command, two, three) == (
            2, "", "error AlphabetMismatch: different alphabets\n"), command


def test_bad_input_exits_1(files, capsys):
    assert run(capsys, "normalize", "/nonexistent/path.txt")[0] == 1
    assert run(capsys, "normalize", files("bad.txt", "not a table"))[0] == 1
    assert run(capsys, "measure", files("bad2.txt", "k 2\nzz\n"))[0] == 1
    assert run(capsys, "chain", "2", "??", "0.1", "3")[0] == 1


MALFORMED_FILES = {
    "noncode.txt": "k 2\na\nab\n",    # a is a prefix of ab
    "code1.txt": "k 1\na\n",
    "table1.txt": "k 1\na -> a\n",
}


@pytest.mark.parametrize("argv, status", [
    (["measure", "noncode.txt"], 2),
    (["dfa-mu", "noncode.txt"], 2),
    (["measure", "code1.txt"], 1),
    (["dfa-mu", "--dump", "code1.txt"], 1),
    (["normalize", "table1.txt"], 1),
    (["heights", "--dfa", "table1.txt"], 1),
    (["synth-id", "1", "a"], 2),
    (["eval-gen", "1", "and"], 2),
    (["chain", "1", "0.1", "0.11", "1"], 2),
    (["with-heights", "1", "0", "0"], 2),
    (["chain", "2", "0.1", "0.11", "-1"], 2),
    (["eval-gen", "2", "frob"], 2),
    (["measure", "missing.txt"], 1),
    (["eval-gen", "2", "E0"], 2),
    (["eval-gen", "2", "tau(\u0661)"], 2),
    (["eval-gen", "2", "E\u0662"], 2),
    (["chain", "11", "0.[+1]", "0.[ 2]", "1"], 1),
    (["with-heights", "5", "0.\u0663", "0.1"], 1),
])
def test_malformed_input_is_a_named_error(tmp_path, capsys, argv, status):
    for name, text in MALFORMED_FILES.items():
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / a) if a.endswith(".txt") else a for a in argv]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (status, "")
    assert err.startswith("error")
    assert "Traceback" not in err


@pytest.mark.parametrize("command, data, offset", [
    ("normalize", b"\xff\xfe k 2\n", 0),
    ("measure", b"k 2\na  # caf\xe9\n", 12),
    ("count-forallsat", b"m=1 n=1 x1 | y1 \x80", 16),
], ids=["table", "code", "formula"])
def test_files_that_are_not_utf8_are_a_parse_error(tmp_path, capsys, command, data, offset):
    path = tmp_path / "bad.bin"
    path.write_bytes(data)
    code, out, err = run(capsys, command, str(path))
    assert (code, out) == (1, "")
    assert err == f"error: {path} is not UTF-8 text (byte {offset})\n"


DIGITS = "1" * 5000  # past the 4300 digits int() reads


@pytest.mark.parametrize("command, text", [
    ("normalize", "k \u00b2\na -> b\n"),           # '²' is a digit to isdigit, not to int
    ("measure", "k \u0663\na\n"),                  # '٣' is a digit to int, not ASCII
    ("count-forallsat", "m=1 n=1 x\u0661 | y\u0661"),
    ("measure", f"k {DIGITS}\na\n"),
    ("count-forallsat", f"m=1 n=1 x{DIGITS}"),
    ("count-forallsat", f"m={DIGITS} n=1 x1"),
], ids=["superscript-k", "arabic-k", "arabic-index", "long-k", "long-index", "long-m"])
def test_digit_strings_are_a_parse_error(files, capsys, command, text):
    code, out, err = run(capsys, command, files("in.txt", text))
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_comment_rules(files, capsys):
    """Code files drop '#' to the end of the line; tables drop only whole
    '#' lines, so a trailing one is part of the row."""
    assert run(capsys, "measure", files("c.txt", "k 2 # binary\na  # note\nb\n")) == (0, "1\n", "")
    assert run(capsys, "normalize", files("t.txt", "k 2\na -> a # note\n")) == (
        1, "", "error: letter ' ' invalid for a 2-letter alphabet\n")
    assert run(capsys, "normalize", files("h.txt", "k 2 # binary\n")) == (
        1, "", "error: expected 'k <int>' header, got 'k 2 # binary'\n")


def test_large_alphabet_is_a_named_error(capsys):
    # letters print only up to 'z', so a 30-letter chain cannot be shown
    code, out, err = run(capsys, "chain", "30", "0.[1]", "0.[29]", "3")
    assert (code, out) == (2, "")
    assert err.startswith("error OutOfRange: ")


def test_chain_past_z_fails_before_printing(capsys):
    """In 900ths from 0 to 1, the 27th measure 0.[0,27] needs letter 26, so
    the chain prints none of the 26 tables before it; a chain whose
    tables need no letter past 'z' prints them over 30 letters too."""
    code, out, err = run(capsys, "chain", "30", "0", "1", "40")
    assert (code, out) == (2, "")
    assert err.startswith("error OutOfRange: ")
    want = "\n\n".join(map(format_table, dense_chain(30, parse_krational(30, "0"),
                                                    parse_krational(30, "0.[1]"), 2)))
    assert run(capsys, "chain", "30", "0", "0.[1]", "2") == (0, want + "\n", "")
    assert want == "k 30\naa -> aa\n\nk 30\naa -> aa\nab -> ab"


def test_integer_arguments_are_ascii_decimals(capsys):
    """k and chain's count are read like every other number, as ASCII
    digits, here after at most one '-': argparse refuses anything else
    after its usage line, and a negative count stays a domain error."""
    for argv in (("chain", "٣", "0.1", "0.2", "1"), ("chain", "2", "0.01", "0.1", "١"),
                 ("eval-gen", "1_0", "and"), ("synth-id", " 2", "a"), ("chain", "2", "0.1", "0.11", "-")):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith(f"usage: mk1 {argv[0]} ") and "invalid integer value" in err
    code, _, err = run(capsys, "chain", "2", "0.1", "0.11", "-1")
    assert (code, err) == (2, "error OutOfRange: count must be at least 0, got -1\n")


def test_usage_errors_exit_1(capsys):
    assert run(capsys, "frobnicate")[0] == 1
    assert run(capsys)[0] == 1
    assert run(capsys, "compose", "onlyone")[0] == 1
    assert run(capsys, "--help")[0] == 0


def test_every_command_prints_its_help_and_has_a_load_pin(capsys):
    """``mk1 <command> --help`` exits 0 with a usage line naming the command
    and its flags, for every command of the table, and each command has a
    row in COMMAND_LOADS."""
    for name, (_, _, _, flags) in _COMMANDS.items():
        code, out, err = run(capsys, name, "--help")
        usage = out.split("\n\n")[0]
        assert (code, err) == (0, "") and usage.startswith(f"usage: mk1 {name} [-h]")
        assert all(f"[{flag}]" in usage.split() for flag in flags)
    assert {argv[0] for argv, _ in COMMAND_LOADS} == set(_COMMANDS)


def test_help_is_ascii_and_prints_to_an_ascii_stdout():
    """Every help text is ASCII, so ``--help`` prints where standard output
    cannot encode more, as under a cp1252 or ASCII locale."""
    texts = [t for _, text, _, flags in _COMMANDS.values() for t in (text, *flags.values())]
    assert all(text.isascii() for text in texts)
    done = subprocess.run([sys.executable, "-m", "mk1.cli", "--help"], capture_output=True,
                          text=True, timeout=60, env={**subprocess_env(), "PYTHONIOENCODING": "ascii"})
    assert (done.returncode, done.stderr) == (0, "") and "count-forallsat" in done.stdout


def test_console_script(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text(CODE)
    done = subprocess.run(
        [sys.executable, "-m", "mk1.cli", "measure", str(path)],
        capture_output=True, text=True, env=subprocess_env(),
    )
    assert done.returncode == 0
    assert done.stdout == "1\n"


def test_the_installed_script_runs_main(tmp_path):
    """The ``mk1`` entry of pyproject.toml names a function that exists
    and runs a command, called as the installed script calls it: with no
    arguments, its return value the exit status."""
    pyproject = (Path(__file__).parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    module, function = re.search(r'^mk1 = "([\w.]+):(\w+)"$', pyproject, re.M).groups()
    path = tmp_path / "c.txt"
    path.write_text(CODE)
    script = f"import sys; from {module} import {function}; sys.exit({function}())"
    done = subprocess.run([sys.executable, "-c", script, "measure", str(path)],
                          capture_output=True, text=True, timeout=60, env=subprocess_env())
    assert (done.returncode, done.stdout, done.stderr) == (0, "1\n", "")
