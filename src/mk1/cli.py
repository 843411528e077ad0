"""Command-line front end: each command parses, calls the library and
prints, with no arithmetic of its own (chain's test for letters past 'z' is
:func:`~mk1.green.chain_uses_letter`).  ``_COMMANDS`` is the one place where
a command's arguments are declared; :func:`build_parser` builds argparse
from it.  Every command reads exact inputs (table files, code files, formula
files, digit strings) and writes exact, byte-deterministic output.  Exit
status: 0 on success (also when the reader closes the output pipe early), 1
for unparseable input, bad usage or a closed standard output, 2 for a domain
error (reported on stderr as ``error <Reason>: <message>``), 130 on SIGINT
(Ctrl-C).  The library is read through ``import mk1`` alone: each name is
an attribute that the package's name table resolves, importing its module
on first use, so each start compiles and runs only the modules on its own
path.  Every command loads ``cli``, ``errors``, ``kary`` and ``words``, and
``measure`` loads nothing more.
"""

from __future__ import annotations

import argparse
import os
import sys

import mk1


def _read(path: str, parse):
    with open(path, encoding="utf-8") as handle:
        try:
            text = handle.read()  # one decode of the whole file: exc.start is a file offset
        except UnicodeDecodeError as exc:
            raise mk1.ParseError(f"{path} is not UTF-8 text (byte {exc.start})") from None
    return parse(text)


def integer(text: str) -> int:
    """An ASCII decimal numeral with at most one leading '-', read by
    :func:`~mk1.words.parse_natural`; argparse names it in its refusal."""
    parse_natural = mk1.words.parse_natural
    return -parse_natural(text[1:]) if text.startswith("-") else parse_natural(text)


def _cmd_normalize(args):
    print(mk1.format_table(_read(args.table, mk1.parse_table).reduced()))


def _cmd_compose(args):
    f, g = _read(args.f, mk1.parse_table), _read(args.g, mk1.parse_table)
    print(mk1.format_table(mk1.compose(f, g)))


def _checked(check, answer, other, what: str) -> str:
    """answer(), the text to print; with ``check`` also other(), the same
    text by a second method, and CrossCheckFailed before anything is
    printed if the two differ."""
    text = answer()
    if check and other() != text:
        raise mk1.errors.CrossCheckFailed(f"{what} disagree")
    return text


def _cmd_measure(args):
    code = _read(args.code, mk1.parse_code)  # the empty code has no automaton to check against
    print(_checked(args.check and code.words, lambda: str(code.mu),
                   lambda: str(mk1.dfa.dfa_measure(mk1.dfa.trie_dfa(code))), "mu and dfa_measure"))


def _cmd_heights(args):
    e = _read(args.table, mk1.parse_table)
    reports = (mk1.heights, lambda e: mk1.dfa.height_report_via_dfa(e))
    first, second = reversed(reports) if args.dfa else reports
    print(_checked(args.check, lambda: mk1.format_height_report(first(e)),
                   lambda: mk1.format_height_report(second(e)),
                   "heights and height_report_via_dfa"))


# each relation's name in the package
_RELATIONS = {"leqR": "leq_R", "leqL": "leq_L", "eqR": "eq_R", "eqL": "eq_L",
              "eqD-M": "eq_D_M", "eqD-plep": "eq_D_plep"}


def _cmd_green(args):
    relation = getattr(mk1, _RELATIONS[args.relation])
    verdict = relation(_read(args.f, mk1.parse_table), _read(args.g, mk1.parse_table))
    print("true" if verdict else "false")


def _cmd_dindex(args):
    idx = getattr(mk1, f"d_index_{args.kind}")(_read(args.table, mk1.parse_table))
    print("zero" if idx is None else idx)  # only M's index of the zero element is None


def _cmd_chain(args):
    lo = mk1.parse_krational(args.k, args.lo)
    hi = mk1.parse_krational(args.k, args.hi)
    chain = mk1.green.iter_dense_chain(args.k, lo, hi, args.count)
    if args.k > 26 and mk1.green.chain_uses_letter(args.k, lo, hi, args.count, 26):
        raise mk1.errors.OutOfRange("letter display supports alphabets up to 26 letters")
    tables = (mk1.format_table(e) for e in chain)
    print(next(tables, ""))  # an empty chain prints one empty line
    for text in tables:
        print("\n" + text)


def _cmd_with_heights(args):
    h_r = mk1.parse_krational(args.k, args.r)
    h_l = mk1.parse_krational(args.k, args.l)
    print(mk1.format_table(mk1.element_with_heights(args.k, h_r, h_l)))


def _cmd_synth_id(args):
    word = mk1.parse_word(args.word, args.k)
    print(" ".join(mk1.circuits.synthesize_partial_identity(args.k, word)))


def _cmd_eval_gen(args):
    tokens = mk1.circuits.parse_generator_word(" ".join(args.tokens))
    print(mk1.format_table(mk1.circuits.eval_generator_word(args.k, tokens)))


def _cmd_phi_b(args):
    reductions = mk1.reductions
    f = _read(args.formula, reductions.parse_formula)
    e = reductions.encode_formula(f)
    print(mk1.format_table(e))
    if args.check:
        noncoll = mk1.noncollision_measure(mk1.part(e))
        count = reductions.count_forall_sat(f)
        predicted = reductions.predicted_noncollision(f.m, f.n, count)
        if noncoll != predicted:
            raise mk1.errors.CrossCheckFailed(
                f"noncollision {noncoll}; count {count} predicts {predicted}")
        print(f"noncollision {noncoll}")
        print(f"predicted {predicted}")
        print(f"count {count}")


def _cmd_count_forallsat(args):
    reductions = mk1.reductions
    f = _read(args.formula, reductions.parse_formula)
    if args.via_element:
        if not reductions.covers_every_y(f):
            f = reductions.ensure_surjective(f)
        print(reductions.count_via_element(f))
    else:
        print(reductions.count_forall_sat(f))


def _cmd_dfa_mu(args):
    dfa = mk1.dfa
    automaton = dfa.trie_dfa(_read(args.code, mk1.parse_code))
    if args.dump:
        print(dfa.format_dfa(automaton))
        print(f"mu: {dfa.dfa_measure(automaton)}")
    else:
        print(dfa.dfa_measure(automaton))


def _cmd_witness_plep(args):
    w = mk1.plep_d_witness(_read(args.f, mk1.parse_table), _read(args.g, mk1.parse_table))
    tlep = "true" if w.tlep else "false"
    print(f"tlep {tlep}\n\n{mk1.format_table(w.b)}\n\n{mk1.format_table(w.b_prime)}")


def _cmd_separate(args):
    c1, c2 = mk1.separating_context(_read(args.f, mk1.parse_table), _read(args.g, mk1.parse_table))
    print(f"{mk1.format_table(c1)}\n\n{mk1.format_table(c2)}")


# name: (function, help, positionals {name: argparse options}, store_true flags {flag: help})
_COMMANDS = {
    "normalize": (_cmd_normalize, "reduce a table to its normal form", {"table": {}}, {}),
    "compose": (_cmd_compose, "compose two tables (f after g)", {"f": {}, "g": {}}, {}),
    "measure": (_cmd_measure, "measure of a prefix code", {"code": {}},
                {"--check": "also measure it through its minimal automaton"}),
    "heights": (_cmd_heights, "R/L height report of a table", {"table": {}},
                {"--dfa": "compute via minimal automata instead of word lists",
                 "--check": "also compute it the other way, and fail if the two differ"}),
    "green": (_cmd_green, "compare two tables in a Green order",
              {"relation": {"choices": sorted(_RELATIONS)}, "f": {}, "g": {}}, {}),
    "dindex": (_cmd_dindex, "D-class index of a table",
               {"kind": {"choices": ["M", "plep"]}, "table": {}}, {}),
    "chain": (_cmd_chain, "idempotents strictly between two measures",
              {"k": {"type": integer}, "lo": {}, "hi": {}, "count": {"type": integer}}, {}),
    "with-heights": (_cmd_with_heights, "an element with prescribed heights",
                     {"k": {"type": integer}, "r": {}, "l": {}}, {}),
    "synth-id": (_cmd_synth_id, "generator word for a one-hole identity",
                 {"k": {"type": integer}, "word": {}}, {}),
    "eval-gen": (_cmd_eval_gen, "evaluate a generator word to a table",
                 {"k": {"type": integer}, "tokens": {"nargs": "+"}}, {}),
    "phi-b": (_cmd_phi_b, "counting element of a boolean formula", {"formula": {}},
              {"--check": "also report its noncollision measure and the count"}),
    "count-forallsat": (_cmd_count_forallsat, "number of y with B(x,y) for all x", {"formula": {}},
                        {"--via-element": "recover the count from an exact measure instead"}),
    "dfa-mu": (_cmd_dfa_mu, "code measure via its minimal automaton", {"code": {}},
               {"--dump": "also print the automaton"}),
    "witness-plep": (_cmd_witness_plep, "conjugators linking two plep tables",
                     {"f": {}, "g": {}}, {}),
    "separate": (_cmd_separate, "contexts telling two tables apart", {"f": {}, "g": {}}, {}),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mk1", description="Exact table-element calculator.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, text, positionals, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=text)
        for dest, options in positionals.items():
            p.add_argument(dest, **options)
        for flag, flag_help in flags.items():
            p.add_argument(flag, action="store_true", help=flag_help)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as stop:
        return 0 if stop.code == 0 else 1
    try:
        if sys.stdout is None:  # started with descriptor 1 closed: print would drop the output
            raise OSError("standard output is closed")
        args.func(args)
        sys.stdout.flush()  # a closed pipe fails here, inside the try
    except mk1.ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except mk1.Mk1Error as exc:
        print(f"error {exc.reason}: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # devnull takes what is left for the interpreter's final flush
        os.dup2(null := os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        os.close(null)
        return 0
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        return 130  # 128 + SIGINT, as a shell reports a command that SIGINT ended
    return 0


if __name__ == "__main__":
    sys.exit(main())
