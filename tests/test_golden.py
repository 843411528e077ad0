"""The golden corpus: exact outputs on seeded inputs, one sha256 per family.

The property tests say what an output must satisfy; this file pins its text.
Each family renders a fixed list of seeded inputs with their outputs (or the
class of the error raised, never its message) as lines of text and hashes
them; ``golden_digests.json`` beside this file holds the expected digests.
A change that means to change an output updates its family's digest, which
the failure message prints, and says in CHANGES.md which family and why.
"""

import contextlib
import hashlib
import io
import json
import random
import tempfile
from pathlib import Path

import pytest

from helpers import (
    random_code,
    random_element,
    random_idempotent,
    random_level_plep,
    random_nonempty_code,
    random_plep_pair,
    random_word,
)
from mk1.circuits import eval_generator_word, synthesize_partial_identity
from mk1.cli import main
from mk1.dfa import format_dfa, height_report_via_dfa, trie_dfa
from mk1.elements import (
    Mk1Element,
    compose,
    format_table,
    identity_element,
    inverse_element,
    part,
    r2_normal_form,
    restrict_to_length,
)
from mk1.errors import Mk1Error, ParseError
from mk1.green import (
    d_index_M,
    dense_chain,
    element_with_heights,
    eq_D_M,
    format_height_report,
    heights,
    leq_L,
    leq_R,
    separating_context,
)
from mk1.kary import kq, parse_krational
from mk1.plep import common_image_refinement, d_index_plep, plep_d_witness
from mk1.reductions import (
    complete_to_length,
    encode_formula,
    ensure_surjective,
    formula_from_truth_table,
)
from mk1.words import format_word

DIGESTS = json.loads(Path(__file__).with_name("golden_digests.json").read_text())

GATES = ["and", "or", "not", "fork", "proj2", "guard", "E1", "E2", "tau(1)", "tau(2)"]


def shown(fn, *args, render=str) -> str:
    """render(fn(*args)), or the class of the error it raised."""
    try:
        return render(fn(*args))
    except (Mk1Error, ParseError) as exc:
        return f"error {type(exc).__name__}"


def tables():
    """make on split tables with some images changed, compose,
    inverse_element and r2_normal_form."""
    rng = random.Random(1)
    for i in range(60):
        k = 2 + i % 2
        f, g = random_element(rng, k), random_element(rng, k)
        longest = max((len(x) for x, _ in f.rows), default=0)
        rows = [(x, y if rng.random() < 0.7 else random_word(rng, k, rng.randrange(3)))
                for x, y in restrict_to_length(f, longest + 1).rows]
        code = random_code(rng, k)
        words = list(code.words)
        rng.shuffle(words)
        yield from (format_table(f), format_table(g), format_table(Mk1Element.make(k, rows)),
                    format_table(compose(f, g)), format_table(compose(g, f)),
                    shown(inverse_element, f),
                    format_table(inverse_element(Mk1Element.make(k, zip(code.words, words)))),
                    str(code), str(r2_normal_form(code)))


def height_reports():
    """Both height reports, from fibers and from minimal automata, and the
    fiber partition."""
    rng = random.Random(2)
    for i in range(60):
        k = 2 + i % 2
        e = random_element(rng, k) if i % 3 else random_idempotent(rng, k)
        yield format_table(e)
        yield format_height_report(heights(e))
        yield format_height_report(height_report_via_dfa(e))
        yield str(part(e))


def green_orders():
    """leq_R, leq_L, eq_D_M, d_index_M and d_index_plep."""
    rng = random.Random(3)
    for i in range(60):
        k = 2 + i % 2
        f, h = random_element(rng, k), random_element(rng, k)
        for g in (random_element(rng, k), compose(f, h), compose(h, f)):
            yield f"{leq_R(f, g)} {leq_R(g, f)} {leq_L(f, g)} {leq_L(g, f)} {eq_D_M(f, g)}"
        yield f"{d_index_M(f)} {d_index_M(h)}"
        p = random_level_plep(rng, k, total=i % 4 == 0)
        yield format_table(p)
        yield shown(d_index_plep, p)
        yield shown(d_index_plep, f)


def witnesses():
    """plep_d_witness, element_with_heights, dense_chain and separating_context."""
    rng = random.Random(4)
    for i in range(40):
        k = 2 + i % 2
        e1, e2 = random_plep_pair(rng, k)
        yield format_table(e1) + "\n" + format_table(e2)
        yield shown(plep_d_witness, e1, e2, render=lambda w: "\n".join(
            [str(w.tlep), format_table(w.b), format_table(w.b_prime), str(w.q1), str(w.q2)]))
        h_r, h_l = (kq(k, rng.randrange(1, k ** 4 + 1), 4) for _ in range(2))
        yield f"{h_r} {h_l}"
        yield shown(element_with_heights, k, h_r, h_l)
        lo, hi = (kq(k, num, 3) for num in sorted(rng.sample(range(k ** 3 + 1), 2)))
        yield f"{lo} {hi}"
        yield shown(dense_chain, k, lo, hi, rng.randrange(5),
                    render=lambda chain: "\n\n".join(map(format_table, chain)))
        f, g = random_element(rng, k), random_element(rng, k)
        yield shown(separating_context, f, g, render=lambda c: f"{c[0]}\n\n{c[1]}")


def circuits():
    """synthesize_partial_identity and eval_generator_word."""
    rng = random.Random(5)
    for i in range(40):
        k = 2 + i % 2
        target = random_word(rng, k, rng.randint(1, 3))
        program = synthesize_partial_identity(k, target)
        yield f"{format_word(target)}: {' '.join(program)}"
        if len(target) <= 2:
            yield format_table(eval_generator_word(k, program))
        tokens = [rng.choice(GATES) for _ in range(rng.randint(1, 6))]
        yield f"{' '.join(tokens)}: {shown(eval_generator_word, k, tokens)}"


def formulas():
    """formula_from_truth_table and encode_formula for every shape with
    m + n <= 8, and formula_from_truth_table for three shapes of each size
    up to 12."""
    rng = random.Random(6)
    for size in range(13):
        for m in range(size + 1) if size <= 8 else (0, size // 2, size):
            f = formula_from_truth_table(m, size - m, rng.getrandbits(1 << size))
            yield str(f)
            if size <= 8:
                yield shown(encode_formula, f)
                yield format_table(encode_formula(ensure_surjective(f)))


def automata():
    """trie_dfa with format_dfa, and parse_krational with str."""
    rng = random.Random(7)
    for i in range(60):
        k = 2 + i % 2
        yield shown(trie_dfa, random_code(rng, k), render=format_dfa)
    for i in range(200):
        k = rng.choice([2, 3, 7, 10, 11, 16])
        top = min(k, 10)
        whole = "".join(str(rng.randrange(top)) for _ in range(rng.randrange(1, 4)))
        digits = [rng.randrange(k + (i % 10 == 0)) for _ in range(rng.randrange(5))]
        frac = ("[" + ",".join(map(str, digits)) + "]" if k > 10 and digits
                else "".join(map(str, digits)))
        text = f"{whole}.{frac}" if frac else whole
        yield f"{k} {text} {shown(parse_krational, k, text)}"


def splitters():
    """restrict_to_length, complete_to_length and common_image_refinement."""
    rng = random.Random(8)
    for i in range(80):
        k = 2 + i % 2
        e = random_element(rng, k)
        longest = max((len(x) for x, _ in e.rows), default=0)
        for m in range(longest - 1, longest + 3):
            yield f"{m}: {shown(restrict_to_length, e, m)}"
        code = random_nonempty_code(rng, k)
        longest = max(map(len, code.words))
        for p in range(longest - 1, longest + 3):
            yield f"{code} {p}: {shown(complete_to_length, code, p)}"
        e1, e2 = random_plep_pair(rng, k)
        yield shown(common_image_refinement, e1, e2, render=lambda r: f"{r[0]}\n{r[1]}")
    yield shown(restrict_to_length, identity_element(2), 40)
    yield shown(complete_to_length, random_nonempty_code(rng, 3), 10 ** 6)


def cli():
    """The exit status and stdout of all 15 subcommands on seeded files."""
    rng = random.Random(9)
    with tempfile.TemporaryDirectory() as tmp:
        def file(name, text):
            path = Path(tmp, name)
            path.write_text(text)
            return str(path)

        for i in range(6):
            k = 2 + i % 2
            f, g = (file(name, format_table(random_element(rng, k))) for name in "fg")
            p, q = (file(name, format_table(e)) for name, e in zip("pq", random_plep_pair(rng, k)))
            code = file("code", "\n".join([f"k {k}", *map(format_word, random_nonempty_code(rng, k))]))
            m, n = rng.randint(0, 3), rng.randint(0, 3)
            f_b = formula_from_truth_table(m, n, rng.getrandbits(1 << (m + n)))
            formula, phi = file("formula", str(f_b)), file("phi", str(ensure_surjective(f_b)))
            lo = kq(k, rng.randrange(k ** 2), 2)
            target = format_word(random_word(rng, k, rng.randint(1, 2)))
            commands = [
                ["normalize", f], ["compose", f, g], ["measure", code],
                ["heights", f], ["heights", "--dfa", g],
                *(["green", relation, f, g]
                  for relation in ("leqR", "leqL", "eqR", "eqL", "eqD-M", "eqD-plep")),
                ["dindex", "M", f], ["dindex", "plep", p],
                ["chain", str(k), str(lo), str(lo + kq(k, 1, 2)), str(rng.randrange(4))],
                ["with-heights", str(k), str(kq(k, rng.randrange(1, 9), 3)), "1"],
                ["synth-id", str(k), target],
                ["eval-gen", str(k), *(rng.choice(GATES) for _ in range(3))],
                ["phi-b", phi], ["phi-b", "--check", phi],
                ["count-forallsat", formula], ["count-forallsat", "--via-element", formula],
                ["dfa-mu", code], ["dfa-mu", "--dump", code],
                ["witness-plep", p, q], ["witness-plep", q, q], ["separate", f, g],
            ]
            for argv in commands:
                out = io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                    status = main(argv)
                yield f"{' '.join(Path(a).name for a in argv)} -> {status}\n{out.getvalue()}"


FAMILIES = {family.__name__: family for family in (
    tables, height_reports, green_orders, witnesses, circuits, formulas, automata,
    splitters, cli)}


def test_every_family_has_one_digest():
    assert sorted(DIGESTS) == sorted(FAMILIES)


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_golden_family(name):
    digest = hashlib.sha256("\n".join(FAMILIES[name]()).encode()).hexdigest()
    assert digest == DIGESTS.get(name), f"golden family {name!r} now hashes to {digest}"
