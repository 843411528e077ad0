"""Command-line front end.

Every command reads exact inputs (table files, code files, formula files,
digit strings) and writes exact, byte-deterministic output.  Exit status:
0 on success (also when the reader closes the output pipe early), 1 for
unparseable input or bad usage, 2 for a domain error (reported on stderr as
``error <Reason>: <message>``).
"""

from __future__ import annotations

import argparse
import os
import sys

from . import circuits, dfa, green, plep, reductions
from .congruence import noncollision_measure
from .elements import compose, format_table, parse_table, part
from .errors import CrossCheckFailed, Mk1Error, OutOfRange, ParseError
from .kary import parse_krational
from .words import parse_code, parse_natural, parse_word


def _read(path: str, parse):
    with open(path, encoding="utf-8") as handle:
        try:
            text = handle.read()  # one decode of the whole file: exc.start is a file offset
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path} is not UTF-8 text (byte {exc.start})") from None
    return parse(text)


def integer(text: str) -> int:
    """An ASCII decimal numeral with at most one leading '-', read by
    :func:`~mk1.words.parse_natural`; argparse names it in its refusal."""
    return -parse_natural(text[1:]) if text.startswith("-") else parse_natural(text)


def _cmd_normalize(args):
    print(format_table(_read(args.table, parse_table).reduced()))


def _cmd_compose(args):
    f, g = _read(args.f, parse_table), _read(args.g, parse_table)
    print(format_table(compose(f, g)))


def _checked(check, answer, other, what: str) -> str:
    """answer(), the text to print; with ``check`` also other(), the same
    text by a second method, and CrossCheckFailed before anything is
    printed if the two differ."""
    text = answer()
    if check and other() != text:
        raise CrossCheckFailed(f"{what} disagree")
    return text


def _cmd_measure(args):
    code = _read(args.code, parse_code)  # the empty code has no automaton to check against
    print(_checked(args.check and code.words, lambda: str(code.mu),
                   lambda: str(dfa.dfa_measure(dfa.trie_dfa(code))), "mu and dfa_measure"))


def _cmd_heights(args):
    e = _read(args.table, parse_table)
    reports = (green.heights, dfa.height_report_via_dfa)
    first, second = reversed(reports) if args.dfa else reports
    print(_checked(args.check, lambda: green.format_height_report(first(e)),
                   lambda: green.format_height_report(second(e)),
                   "heights and height_report_via_dfa"))


_RELATIONS = {
    "leqR": green.leq_R,
    "leqL": green.leq_L,
    "eqR": green.eq_R,
    "eqL": green.eq_L,
    "eqD-M": green.eq_D_M,
    "eqD-plep": plep.eq_D_plep,
}


def _cmd_green(args):
    verdict = _RELATIONS[args.relation](_read(args.f, parse_table), _read(args.g, parse_table))
    print("true" if verdict else "false")


def _cmd_dindex(args):
    e = _read(args.table, parse_table)
    if args.kind == "M":
        idx = green.d_index_M(e)
        print("zero" if idx is None else idx)
    else:
        print(plep.d_index_plep(e))


def _least(a: int, m: int, lo: int, hi: int):
    """The least x >= 0 with lo <= a·x mod m <= hi, for 0 <= lo <= hi < m,
    or None.  If no multiple of a lies in [lo, hi], the least x comes from
    the least y with m·y mod a in [-hi mod a, -lo mod a], a problem in
    (m mod a, a): Euclid's steps, unwound at the end."""
    steps = []
    while lo:
        a %= m
        if not a:
            return None
        x = -(-lo // a)
        if a * x <= hi:
            break
        steps.append((a, m, lo))
        a, m, lo, hi = m % a, a, -hi % a, -lo % a
    else:
        x = 0
    for a, m, lo in reversed(steps):
        x = -(-(lo + m * x) // a)
    return x


def _chain_past_z(k: int, lo, hi, count: int) -> bool:
    """Whether a table of the chain would need a letter past 'z', read off
    its measures alone.  They are N_i / k^e for N_i = b + i·a, i = 1..count,
    as :func:`~mk1.green.iter_dense_chain` spaces them, and the code of
    measure 0.d_1 d_2 ... uses the letters below each digit and each digit
    with a nonzero digit after it.  So N_i's table needs letter 26 or later
    iff N_i mod k^(p+1) > 26·k^p at some place p: for each place, one
    search for the least i that puts N_i mod k^(p+1) there."""
    diff, t = hi - lo, 0
    while k ** t <= count:
        t += 1
    e = max(lo.exp, diff.exp + t)
    a, b = diff.num * k ** (e - diff.exp - t), lo.num * k ** (e - lo.exp)
    for p in range(e):
        m, low = k ** (p + 1), 26 * k ** p + 1
        if low >= m:  # the last place over 27 letters: a last digit 26 uses letters to 'z'
            continue
        first = (a + b) % m  # N_1 mod m; N_i mod m moves on by a
        x = 0 if first >= low else _least(a % m, m, low - first, m - 1 - first)
        if x is not None and x < count:
            return True
    return False


def _cmd_chain(args):
    lo = parse_krational(args.k, args.lo)
    hi = parse_krational(args.k, args.hi)
    chain = green.iter_dense_chain(args.k, lo, hi, args.count)
    if args.k > 26 and _chain_past_z(args.k, lo, hi, args.count):
        raise OutOfRange("letter display supports alphabets up to 26 letters")
    tables = (format_table(e) for e in chain)
    print(next(tables, ""))  # an empty chain prints one empty line
    for text in tables:
        print("\n" + text)


def _cmd_with_heights(args):
    h_r = parse_krational(args.k, args.r)
    h_l = parse_krational(args.k, args.l)
    print(format_table(green.element_with_heights(args.k, h_r, h_l)))


def _cmd_synth_id(args):
    word = parse_word(args.word, args.k)
    print(" ".join(circuits.synthesize_partial_identity(args.k, word)))


def _cmd_eval_gen(args):
    tokens = circuits.parse_generator_word(" ".join(args.tokens))
    print(format_table(circuits.eval_generator_word(args.k, tokens)))


def _cmd_phi_b(args):
    f = _read(args.formula, reductions.parse_formula)
    e = reductions.encode_formula(f)
    print(format_table(e))
    if args.check:
        noncoll = noncollision_measure(part(e))
        count = reductions.count_forall_sat(f)
        predicted = reductions.predicted_noncollision(f.m, f.n, count)
        if noncoll != predicted:
            raise CrossCheckFailed(f"noncollision {noncoll}; count {count} predicts {predicted}")
        print(f"noncollision {noncoll}")
        print(f"predicted {predicted}")
        print(f"count {count}")


def _cmd_count_forallsat(args):
    f = _read(args.formula, reductions.parse_formula)
    if args.via_element:
        if not reductions.covers_every_y(f):
            f = reductions.ensure_surjective(f)
        print(reductions.count_via_element(f))
    else:
        print(reductions.count_forall_sat(f))


def _cmd_dfa_mu(args):
    automaton = dfa.trie_dfa(_read(args.code, parse_code))
    if args.dump:
        print(dfa.format_dfa(automaton))
        print(f"mu: {dfa.dfa_measure(automaton)}")
    else:
        print(dfa.dfa_measure(automaton))


def _cmd_witness_plep(args):
    w = plep.plep_d_witness(_read(args.f, parse_table), _read(args.g, parse_table))
    tlep = "true" if w.tlep else "false"
    print(f"tlep {tlep}\n\n{format_table(w.b)}\n\n{format_table(w.b_prime)}")


def _cmd_separate(args):
    c1, c2 = green.separating_context(_read(args.f, parse_table), _read(args.g, parse_table))
    print(f"{format_table(c1)}\n\n{format_table(c2)}")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mk1", description="Exact table-element calculator.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("normalize", help="reduce a table to its normal form")
    p.add_argument("table")
    p.set_defaults(func=_cmd_normalize)

    p = sub.add_parser("compose", help="compose two tables (f after g)")
    p.add_argument("f")
    p.add_argument("g")
    p.set_defaults(func=_cmd_compose)

    p = sub.add_parser("measure", help="measure of a prefix code")
    p.add_argument("code")
    p.add_argument("--check", action="store_true",
                   help="also measure it through its minimal automaton")
    p.set_defaults(func=_cmd_measure)

    p = sub.add_parser("heights", help="R/L height report of a table")
    p.add_argument("table")
    p.add_argument("--dfa", action="store_true",
                   help="compute via minimal automata instead of word lists")
    p.add_argument("--check", action="store_true",
                   help="also compute it the other way, and fail if the two differ")
    p.set_defaults(func=_cmd_heights)

    p = sub.add_parser("green", help="compare two tables in a Green order")
    p.add_argument("relation", choices=sorted(_RELATIONS))
    p.add_argument("f")
    p.add_argument("g")
    p.set_defaults(func=_cmd_green)

    p = sub.add_parser("dindex", help="D-class index of a table")
    p.add_argument("kind", choices=["M", "plep"])
    p.add_argument("table")
    p.set_defaults(func=_cmd_dindex)

    p = sub.add_parser("chain", help="idempotents strictly between two measures")
    p.add_argument("k", type=integer)
    p.add_argument("lo")
    p.add_argument("hi")
    p.add_argument("count", type=integer)
    p.set_defaults(func=_cmd_chain)

    p = sub.add_parser("with-heights", help="an element with prescribed heights")
    p.add_argument("k", type=integer)
    p.add_argument("r")
    p.add_argument("l")
    p.set_defaults(func=_cmd_with_heights)

    p = sub.add_parser("synth-id", help="generator word for a one-hole identity")
    p.add_argument("k", type=integer)
    p.add_argument("word")
    p.set_defaults(func=_cmd_synth_id)

    p = sub.add_parser("eval-gen", help="evaluate a generator word to a table")
    p.add_argument("k", type=integer)
    p.add_argument("tokens", nargs="+")
    p.set_defaults(func=_cmd_eval_gen)

    p = sub.add_parser("phi-b", help="counting element of a boolean formula")
    p.add_argument("formula")
    p.add_argument("--check", action="store_true",
                   help="also report its noncollision measure and the count")
    p.set_defaults(func=_cmd_phi_b)

    p = sub.add_parser("count-forallsat", help="number of y with ∀x B(x,y)")
    p.add_argument("formula")
    p.add_argument("--via-element", action="store_true",
                   help="recover the count from an exact measure instead")
    p.set_defaults(func=_cmd_count_forallsat)

    p = sub.add_parser("dfa-mu", help="code measure via its minimal automaton")
    p.add_argument("code")
    p.add_argument("--dump", action="store_true", help="also print the automaton")
    p.set_defaults(func=_cmd_dfa_mu)

    p = sub.add_parser("witness-plep", help="conjugators linking two plep tables")
    p.add_argument("f")
    p.add_argument("g")
    p.set_defaults(func=_cmd_witness_plep)

    p = sub.add_parser("separate", help="contexts telling two tables apart")
    p.add_argument("f")
    p.add_argument("g")
    p.set_defaults(func=_cmd_separate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as stop:
        return 0 if stop.code == 0 else 1
    try:
        args.func(args)
        sys.stdout.flush()  # a closed pipe fails here, inside the try
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Mk1Error as exc:
        print(f"error {exc.reason}: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # devnull takes what is left for the interpreter's final flush
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
