import random
import sys
import time
from contextlib import contextmanager
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from mk1 import elements, reductions
from mk1.elements import Mk1Element, apply, format_table, part
from mk1.congruence import noncollision_measure
from mk1.errors import (
    ArityMismatch,
    LengthTooSmall,
    NotSurjective,
    OutOfRange,
    ParseError,
    TooLarge,
    TooLong,
)
from mk1.kary import kq, kq_one
from mk1.reductions import (
    BooleanFormula,
    complete_to_length,
    count_forall_sat,
    count_via_element,
    covers_every_y,
    encode_formula,
    ensure_surjective,
    evaluate,
    formula_from_truth_table,
    pad_decode,
    pad_encode,
    parse_formula,
    predicted_noncollision,
    recover_count,
    truth_table,
)
from mk1.words import PrefixCode, words_of_length

from helpers import (
    random_nonempty_code,
    reference_complete_to_length,
    reference_encoding_skeleton,
)


def test_parse_and_precedence():
    f = parse_formula("m=2 n=1 x1 & !x2 | y1")
    assert f.ast == ("or", ("and", ("x", 1), ("not", ("x", 2))), ("y", 1))
    assert str(f) == "m=2 n=1 x1 & !x2 | y1"
    g = parse_formula("m=2 n=1 x1 & !(x2 | y1)")
    assert g.ast == ("and", ("x", 1), ("not", ("or", ("x", 2), ("y", 1))))
    assert parse_formula(str(g)) == g
    assert parse_formula("m=0 n=1 1 & y1").ast == ("and", ("const", 1), ("y", 1))


def test_parse_errors():
    for bad in (
        "x1 & x2",                    # no header
        "m=1 n=1 x1 &",               # dangling operator
        "m=1 n=1 (x1",                # unbalanced
        "m=1 n=1 x1 x1",              # missing operator
        "m=1 n=1 x1 ^ y1",            # stray character
        "m=1 n=1",                    # empty body
        "m=1 n=1 x\u0661 | y\u0661",    # Arabic-Indic digits are not ASCII
        "m=\u0661 n=1 x1",
    ):
        with pytest.raises(ParseError):
            parse_formula(bad)
    with pytest.raises(ArityMismatch):
        parse_formula("m=1 n=1 x2")
    for m, ast in ((1, ("nand", ("x", 1), ("x", 1))), (1, ("not", ("x", 1), ("x", 1))),
                   (-1, ("const", 1)), (0, ("const", 2))):
        with pytest.raises(ArityMismatch):
            BooleanFormula(m, 0, ast)


def test_evaluate():
    f = parse_formula("m=2 n=1 x1 & !x2 | y1")
    assert evaluate(f, (1, 0), (0,)) == 1
    assert evaluate(f, (1, 1), (0,)) == 0
    assert evaluate(f, (0, 0), (1,)) == 1
    with pytest.raises(ArityMismatch):
        evaluate(f, (1,), (0,))


def _eval_naive(ast, x, y):
    op = ast[0]
    if op == "x":
        return x[ast[1] - 1]
    if op == "y":
        return y[ast[1] - 1]
    if op == "const":
        return ast[1]
    if op == "not":
        return 1 - _eval_naive(ast[1], x, y)
    a, b = _eval_naive(ast[1], x, y), _eval_naive(ast[2], x, y)
    return a & b if op == "and" else a | b


def test_compiled_matches_naive():
    rng = random.Random(3)
    for _ in range(50):
        m, n = rng.randint(0, 2), rng.randint(1, 2)
        f = formula_from_truth_table(m, n, rng.getrandbits(1 << (m + n)))
        for y in words_of_length(2, n):
            for x in words_of_length(2, m):
                assert evaluate(f, x, y) == _eval_naive(f.ast, x, y)


@contextmanager
def _recursion_limit(limit):
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old, limit))
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


@st.composite
def formulas(draw):
    """Small random formulas, some wrapped in a spine of 1500 operators,
    deeper than Python's default recursion limit."""
    m, n = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    atoms = [("const", 0), ("const", 1)]
    atoms += [("x", i) for i in range(1, m + 1)] + [("y", j) for j in range(1, n + 1)]
    ast = draw(st.recursive(st.sampled_from(atoms), lambda sub: st.one_of(
        st.tuples(st.just("not"), sub),
        st.tuples(st.sampled_from(["and", "or"]), sub, sub)), max_leaves=8))
    # a seed, not st.randoms(): 1500 steps of draws would overrun hypothesis
    rng = random.Random(draw(st.integers(0, 2**32)))
    for _ in range(draw(st.sampled_from([0, 10, 1500]))):
        op = rng.choice(("not", "and", "or"))
        if op == "not":
            ast = ("not", ast)
        elif rng.random() < 0.5:
            ast = (op, ast, rng.choice(atoms))
        else:
            ast = (op, rng.choice(atoms), ast)
    return BooleanFormula(m, n, ast)


@settings(max_examples=60, deadline=None)
@given(formulas())
def test_truth_table_and_evaluate_match_naive(f):
    table = truth_table(f)
    with _recursion_limit(10_000):
        for i, (y, x) in enumerate(product(words_of_length(2, f.n), words_of_length(2, f.m))):
            want = _eval_naive(f.ast, x, y)
            assert evaluate(f, x, y) == want
            assert (table >> i) & 1 == want


def test_count_forall_sat():
    assert count_forall_sat(parse_formula("m=1 n=1 x1 | y1")) == 1
    assert count_forall_sat(parse_formula("m=1 n=1 1")) == 2
    assert count_forall_sat(parse_formula("m=1 n=1 x1")) == 0
    assert count_forall_sat(parse_formula("m=0 n=2 y1 & y2")) == 1
    with pytest.raises(TooLarge):
        count_forall_sat(BooleanFormula(20, 5, ("const", 1)))


def test_phi_b_is_refused_past_19_variables_before_its_rows_are_built():
    f = BooleanFormula(10, 10, ("or", ("x", 1), ("not", ("x", 1))))
    started = time.perf_counter()
    with pytest.raises(TooLarge, match="a level of 21 letters"):
        encode_formula(f)
    assert time.perf_counter() - started < 1.0


def test_encoding_skeleton_matches_the_nested_loops():
    """One level each for the questions and the spares gives the rows, in
    the order, of the loops over y and then x; a question's domain word is
    one object in both of its rows."""
    for m in range(7):
        for n in range(7):
            questions, spares = reductions.encoding_skeleton.__wrapped__(m, n)
            assert (questions, spares) == reference_encoding_skeleton(m, n)
            assert all(zero[0] is one[0] for zero, one in questions)


def test_truth_table_roundtrip():
    for table in range(16):
        f = formula_from_truth_table(1, 1, table)
        assert truth_table(f) == table
    with pytest.raises(OutOfRange):
        formula_from_truth_table(1, 1, 16)


def test_constant_minterm():
    f = formula_from_truth_table(0, 0, 1)
    assert str(f) == "m=0 n=0 1"
    assert truth_table(f) == 1
    assert str(formula_from_truth_table(0, 0, 0)) == "m=0 n=0 0"


def test_one_size_cap():
    big = BooleanFormula(20, 5, ("const", 1))
    edge = formula_from_truth_table(12, 12, 1)
    assert truth_table(edge) == 1
    for fn in (truth_table, count_forall_sat, covers_every_y, encode_formula):
        for f in (big, ensure_surjective(edge)):
            with pytest.raises(TooLarge):
                fn(f)
    # formula_from_truth_table refuses past 24 variables before its range
    # check builds a 2^(m+n)-bit bound, and at 21 x-variables through the
    # level of x-assignments whose literals it lists
    for m in (25, 64):
        started = time.perf_counter()
        with pytest.raises(TooLarge, match="24 variables"):
            formula_from_truth_table(m, 0, 0)
        assert time.perf_counter() - started < 1.0
    with pytest.raises(TooLarge, match="a level of 21 letters"):
        formula_from_truth_table(21, 0, 0)
    wide = BooleanFormula(20, 20, ("and", ("x", 20), ("not", ("y", 1))))
    assert evaluate(wide, (0,) * 19 + (1,), (0,) * 20) == 1
    assert evaluate(wide, (0,) * 20, (0,) * 20) == 0


# Deep formulas are compared by str and truth table: tuple equality recurses.

def test_deep_dnf():
    table = 2**1024 - 1
    f = formula_from_truth_table(5, 5, table)
    assert truth_table(f) == table
    text = str(f)
    g = parse_formula(text)
    assert str(g) == text
    assert truth_table(g) == table
    assert count_forall_sat(f) == 32 and covers_every_y(f)


def test_sparse_truth_table_in_linear_time():
    table = 1 | 1 << (2**20 - 1)
    started = time.perf_counter()
    f = formula_from_truth_table(10, 10, table)
    elapsed = time.perf_counter() - started
    names = [f"x{j}" for j in range(1, 11)] + [f"y{j}" for j in range(1, 11)]
    low = " & ".join("!" + v for v in names)
    assert str(f) == f"m=10 n=10 {low} | {' & '.join(names)}"
    assert truth_table(f) == truth_table(parse_formula(str(f))) == table
    assert elapsed < 1.0


def _forall_count(m: int, n: int, table: int) -> int:
    block = (1 << (1 << m)) - 1
    return sum(table >> (y << m) & block == block for y in range(1 << n))


def _run_pipeline(cases):
    """The criterion-11 pipeline on each (m, n, table), counts checked."""
    for m, n, table in cases:
        f = formula_from_truth_table(m, n, table)
        want = _forall_count(m, n, table)
        assert count_forall_sat(f) == want
        if not covers_every_y(f):
            f = ensure_surjective(f)
        noncoll = noncollision_measure(part(encode_formula(f)))
        assert recover_count(f.m, n, noncoll) == want


def _pipeline_cases():
    rng = random.Random(5)
    cases = [(2, 2, 0), (2, 2, 0xFFFF), (2, 2, 0b0110_1111_0000_1001), (3, 2, 0xFF00FF00)]
    cases += [(3, 2, rng.getrandbits(32)) for _ in range(3)]
    return cases + [(1, 3, rng.getrandbits(16)) for _ in range(3)]


def _refuse(what):
    def refuse(*args):
        raise AssertionError(what)
    return refuse


def test_pipeline_folds_no_formula(monkeypatch):
    """Formulas built from truth tables carry them through the criterion-11
    pipeline, so it folds no formula."""
    monkeypatch.setattr(reductions, "_fold", _refuse("a formula was folded"))
    _run_pipeline(_pipeline_cases())


def test_pipeline_reduces_no_phi_b(monkeypatch):
    """With m, n >= 1 φ_B's rows are returned as built."""
    monkeypatch.setattr(reductions.Mk1Element, "reduced", _refuse("φ_B was reduced"))
    _run_pipeline(_pipeline_cases())


def test_pipeline_walks_no_trie(monkeypatch):
    """With m, n >= 1 φ_B's images all have length n + 1, so they form a
    prefix code and ``part`` reads the classes off the rows grouped by
    image, with no walk of the image trie."""
    monkeypatch.setattr(elements, "trie_leaves", _refuse("a trie was walked"))
    _run_pipeline(_pipeline_cases())


def test_large_shapes_are_built_per_call():
    """Shapes with m + n > 12 are built anew on each call and kept in
    neither shape cache; smaller ones are kept."""
    caches = (reductions.encoding_skeleton, reductions._minterm_literals)

    def sizes():
        return [cache.cache_info().currsize for cache in caches]

    before = sizes()
    f = formula_from_truth_table(7, 6, (1 << (1 << 13)) - 1)
    e = encode_formula(f)
    assert len(e.rows) == 3 << 13 and sizes() == before
    assert recover_count(7, 6, noncollision_measure(part(e))) == count_forall_sat(f) == 64
    small = (1 << 4096) - 1
    encode_formula(formula_from_truth_table(6, 6, small))
    hits = [cache.cache_info().hits for cache in caches]
    encode_formula(formula_from_truth_table(6, 6, small))
    assert [cache.cache_info().hits for cache in caches] == [h + 1 for h in hits]


def _phi_bs(m, n, tables):
    for table in tables:
        f = formula_from_truth_table(m, n, table)
        yield encode_formula(f if covers_every_y(f) else ensure_surjective(f))


def test_phi_b_is_reduced_as_built():
    """φ_B equals ``Mk1Element.make`` of its rows for every (2, 2) table and
    a seeded sweep of (3, 2) and (1, 3) ones.  Every φ_B of one shape has the
    same domain, so on the (2, 2) tables ``make``'s checks run once per
    shape and the merge pass on every table."""
    shapes = set()
    for e in _phi_bs(2, 2, range(1 << 16)):
        if len(e.rows) not in shapes:
            shapes.add(len(e.rows))
            assert e == Mk1Element.make(2, e.rows)
        assert e.reduced() is e
    assert shapes == {3 * 2**4, 3 * 2**5}  # surjective already, and made so
    rng = random.Random(17)
    for m, n in ((3, 2), (1, 3)):
        for e in _phi_bs(m, n, [rng.getrandbits(1 << (m + n)) for _ in range(300)]):
            assert e == Mk1Element.make(2, e.rows)


def test_phi_b_without_x_or_y_still_merges():
    """With m = 0 sibling questions 0·y answered alike merge; with n = 0
    sibling questions 0·x answered 0 and 1 do."""
    e = encode_formula(formula_from_truth_table(0, 1, 0b11))
    assert format_table(e) == "k 2\na -> b\nbaa -> aa\nbab -> aa\nbba -> ab\nbbb -> ab"
    e = encode_formula(formula_from_truth_table(2, 0, 0b0110))
    assert e.rows[:3] == (((0, 0), ()), ((0, 1, 0), (1,)), ((0, 1, 1), (0,)))


def test_parse_deep():
    f = parse_formula("m=1 n=0 " + "!" * 3000 + "x1")
    assert str(f) == "m=1 n=0 " + "!" * 3000 + "x1"
    assert truth_table(f) == 0b10
    f = parse_formula("m=1 n=0 " + "(" * 3000 + "x1" + ")" * 3000)
    assert f.ast == ("x", 1)
    f = parse_formula("m=1 n=1 " + " | ".join(["x1"] * 4999 + ["y1"]))
    assert str(f) == "m=1 n=1 " + " | ".join(["x1"] * 4999 + ["y1"])
    assert truth_table(f) == 0b1110
    assert str(parse_formula(str(f))) == str(f)


def _parse_reference(tokens):
    """Recursive-descent reading of the formula grammar: the AST, or None."""
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def binary(op, sym, operand):
        nonlocal pos
        node = operand()
        while node is not None and peek() == sym:
            pos += 1
            right = operand()
            node = None if right is None else (op, node, right)
        return node

    def negation():
        nonlocal pos
        t = peek()
        pos += 1
        if t == "!":
            node = negation()
            return None if node is None else ("not", node)
        if t == "(":
            node = binary("or", "|", conjunction)
            if node is None or peek() != ")":
                return None
            pos += 1
            return node
        if t in ("0", "1"):
            return ("const", int(t))
        return (t[0], int(t[1:])) if t and t[0] in "xy" else None

    def conjunction():
        return binary("and", "&", negation)

    node = binary("or", "|", conjunction)
    return node if pos == len(tokens) else None


@settings(max_examples=500, deadline=None)
@given(st.lists(st.sampled_from(["x1", "y1", "0", "(", ")", "!", "&", "|"]), max_size=14))
def test_parse_matches_recursive_reference(tokens):
    want = _parse_reference(tokens)
    if want is None:
        with pytest.raises(ParseError):
            parse_formula("m=1 n=1 " + " ".join(tokens))
    else:
        assert parse_formula("m=1 n=1 " + " ".join(tokens)).ast == want


def test_ensure_surjective():
    f = parse_formula("m=1 n=1 x1 & !x1")
    assert not covers_every_y(f)
    g = ensure_surjective(f)
    assert covers_every_y(g)
    assert g.m == 2
    assert count_forall_sat(g) == count_forall_sat(f) == 0
    rng = random.Random(11)
    for _ in range(40):
        f = formula_from_truth_table(1, 2, rng.getrandbits(8))
        g = ensure_surjective(f)
        assert covers_every_y(g)
        assert count_forall_sat(g) == count_forall_sat(f)


def test_encode_formula_worked():
    f = parse_formula("m=1 n=1 x1 | y1")
    e = encode_formula(f)
    assert e.domain_code.mu == kq_one(2)
    # questions: first letter 0, then y, then x; answer letter then y
    assert apply(e, (0, 0, 0)) == (0, 0)
    assert apply(e, (0, 0, 1)) == (1, 0)
    assert apply(e, (0, 1, 0)) == (1, 1)
    # the spare branch supplies the long way to answer 0
    assert apply(e, (1, 1, 0, 0)) == (0, 1)
    noncoll = noncollision_measure(part(e))
    assert noncoll == kq(2, 7, 4)
    assert predicted_noncollision(1, 1, 1) == kq(2, 7, 4)
    assert recover_count(1, 1, noncoll) == 1
    assert count_via_element(f) == 1


def test_encode_requires_surjectivity():
    f = parse_formula("m=1 n=1 x1 & !x1")
    with pytest.raises(NotSurjective):
        encode_formula(f)
    g = ensure_surjective(f)
    assert count_via_element(g) == 0
    assert noncollision_measure(part(encode_formula(g))) == predicted_noncollision(2, 1, 0)


def test_counts_match_measures_random():
    rng = random.Random(20260819)
    for _ in range(60):
        m, n = rng.randint(0, 2), rng.randint(1, 2)
        f = formula_from_truth_table(m, n, rng.getrandbits(1 << (m + n)))
        if not covers_every_y(f):
            f = ensure_surjective(f)
        assert count_via_element(f) == count_forall_sat(f)


def test_predicted_recover_inverse():
    for n in (1, 2, 3):
        for count in range((1 << n) + 1):
            for m in (1, 2):
                assert recover_count(m, n, predicted_noncollision(m, n, count)) == count
    with pytest.raises(OutOfRange):
        predicted_noncollision(1, 1, 3)


def test_pad_encode():
    assert pad_encode(2, (0, 1), 3) == (0, 1, 1, 1, 0, 0)
    assert pad_encode(2, (), 2) == (0, 0, 0, 0)
    assert pad_encode(3, (2, 0), 2) == (2, 1, 0, 1)
    with pytest.raises(TooLong):
        pad_encode(2, (0, 1, 0), 2)
    with pytest.raises(OutOfRange):
        pad_encode(2, (5,), 3)


def test_pad_decode():
    assert pad_decode(2, (0, 1, 1, 1, 0, 0)) == (0, 1)
    assert pad_decode(2, (0, 0, 0, 0)) == ()
    for bad in (
        (0, 1, 1),                # odd length
        (1, 0, 0, 0),             # marker letter with wrong tag
        (0, 0, 1, 1),             # data after padding started
        (2, 1),                   # letter outside the alphabet
    ):
        with pytest.raises(ParseError):
            pad_decode(2, bad)


def test_pad_roundtrip_random():
    rng = random.Random(4)
    for _ in range(200):
        k = rng.choice((2, 3, 5))
        w = tuple(rng.randrange(k) for _ in range(rng.randint(0, 6)))
        p = rng.randint(len(w), len(w) + 3)
        assert pad_decode(k, pad_encode(k, w, p)) == w


def test_padded_codes_stay_codes():
    rng = random.Random(9)
    for _ in range(50):
        code = random_nonempty_code(rng, 2, max_depth=3)
        p = max(len(w) for w in code.words)
        padded = PrefixCode.make(2, [pad_encode(2, w, p) for w in code.words])
        assert len(padded) == len(code)
        assert {len(w) for w in padded.words} == {2 * p}


def test_complete_to_length():
    code = PrefixCode.make(2, [(0,), (1, 0)])
    done = complete_to_length(code, 2)
    assert done.words == ((0, 0), (0, 1), (1, 0))
    assert done.mu == code.mu
    with pytest.raises(LengthTooSmall):
        complete_to_length(code, 1)
    rng = random.Random(10)
    for _ in range(100):
        k = rng.choice((2, 3))
        code = random_nonempty_code(rng, k, max_depth=3)
        p = max(len(w) for w in code.words) + rng.randint(0, 2)
        done = complete_to_length(code, p)
        assert done.mu == code.mu
        assert len(done) == code.mu.scale_pow(p).as_integer()
    with pytest.raises(LengthTooSmall):  # a negative length, as for the zero element
        complete_to_length(PrefixCode.make(2, []), -1)
    assert complete_to_length(PrefixCode.make(2, []), 0) == PrefixCode.make(2, [])


def test_complete_to_length_matches_the_word_by_word_loop():
    """Splitting the code's identity rows gives the code, and the refusals,
    of listing each word's extensions and sorting them."""
    rng = random.Random(31)
    for _ in range(200):
        k = rng.choice((2, 3))
        code = random_nonempty_code(rng, k)
        longest = max(map(len, code.words))
        for p in range(longest, longest + 3):
            assert complete_to_length(code, p) == reference_complete_to_length(code, p)
        for complete in (complete_to_length, reference_complete_to_length):
            with pytest.raises(LengthTooSmall):
                complete(code, longest - 1)
    for complete in (complete_to_length, reference_complete_to_length):
        with pytest.raises(TooLarge):
            complete(PrefixCode.make(3, [(0,), (1, 1)]), 10 ** 6)


def test_complete_to_length_lists_no_level_of_its_own(monkeypatch):
    def unlisted(k, n):
        raise AssertionError("complete_to_length splits through restrict_to_length")

    monkeypatch.setattr(reductions, "words_of_length", unlisted)
    code = PrefixCode.make(2, [(0,), (1, 0)])
    assert complete_to_length(code, 3).words == tuple(
        w for w in words_of_length(2, 3) if w[:2] != (1, 1))
    assert complete_to_length(code, 2).words == ((0, 0), (0, 1), (1, 0))
