import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from helpers import reference_eval_generator_word, reference_length_bound_check

from mk1 import circuits
from mk1.circuits import (
    eval_generator_word,
    gate_element,
    generator_length,
    length_bound_check,
    parse_generator_word,
    synthesize_partial_identity,
    token_length,
)
from mk1.elements import (
    Mk1Element,
    NoValue,
    apply,
    identity_element,
    partial_identity,
)
from mk1.errors import EmptyTarget, OutOfRange, TooLarge, UnknownGate
from mk1.words import PrefixCode


def out(k, token, w):
    return apply(gate_element(k, token), tuple(w))


def test_boolean_gates_on_first_letters():
    # letter 0 is "true"
    assert out(2, "and", (0, 0)) == (0,)
    assert out(2, "and", (0, 1)) == (1,)
    assert out(2, "and", (1, 0)) == (1,)
    assert out(2, "or", (1, 1)) == (1,)
    assert out(2, "or", (1, 0)) == (0,)
    assert out(2, "not", (0,)) == (1,)
    assert out(2, "not", (1,)) == (0,)
    # non-binary letters behave like "false" and normalize
    assert out(3, "and", (0, 2)) == (1,)
    assert out(3, "or", (2, 0)) == (0,)
    assert out(3, "not", (2,)) == (0,)
    # the tail is untouched
    assert out(2, "and", (0, 0, 1, 1)) == (0, 1, 1)


def test_structural_gates():
    assert out(2, "fork", (1, 0)) == (1, 1, 0)
    assert out(2, "proj2", (1, 0, 1)) == (0, 1)
    assert out(3, "E1", (0,)) == (1,)
    assert out(3, "E1", (2,)) == (0,)
    assert out(3, "E3", (2, 1)) == (1, 1)
    assert out(2, "guard", (0, 1)) is NoValue.UNDEFINED
    assert out(2, "guard", (1, 1)) == (1, 1)
    assert out(2, "tau(1)", (0, 1)) == (1, 0)
    assert out(2, "tau(2)", (0, 1, 0)) == (0, 0, 1)
    assert out(2, "tau(2)", (1,)) is NoValue.NEED_LONGER


def test_unknown_gates():
    for bad in ("nand", "E0", "tau(0)", "tau(x)", "Tau(1)", "", "tau(\u0661)", "E\u0662"):
        with pytest.raises(UnknownGate):
            gate_element(2, bad)
    with pytest.raises(UnknownGate):
        gate_element(2, "E3")   # needs three letters
    with pytest.raises(UnknownGate, match="^probes count from 1, got E0$"):
        gate_element(2, "E0")
    assert apply(gate_element(3, "E3"), (2,)) == (1,)


def test_tau_tables_are_capped_at_2_to_the_20_rows():
    """tau(i) has k^(i+1) rows; past 2^20 it is refused before any is built."""
    for k, token in ((2, "tau(40)"), (2, "tau(20)"), (3, "tau(12)"), (2, "tau(" + "9" * 400 + ")")):
        with pytest.raises(TooLarge):
            gate_element(k, token)


def test_every_gate_table_is_capped_at_2_to_the_20_rows():
    """A gate reading w letters has k^w rows: 2 for and/or/proj2, i+1 for
    tau(i), 1 otherwise; the digit count of an index is checked before int()."""
    for k, token in ((1025, "and"), (1025, "or"), (1025, "proj2"), (2**20 + 1, "not"),
                     (2, "tau(" + "9" * 5000 + ")")):
        with pytest.raises(TooLarge):
            gate_element(k, token)
    with pytest.raises(TooLarge):
        token_length("tau(" + "9" * 5000 + ")")
    with pytest.raises(UnknownGate):   # no alphabet has that many letters
        gate_element(2, "E" + "9" * 5000)


def test_token_lengths():
    assert token_length("and") == 1
    assert token_length("tau(1)") == 2
    assert token_length("tau(7)") == 8
    assert generator_length(["fork", "tau(2)", "or"]) == 5
    assert generator_length([]) == 0


def test_parse_generator_word():
    assert parse_generator_word("proj2 guard, not") == ["proj2", "guard", "not"]
    assert parse_generator_word("") == []


def test_eval_order_is_right_to_left():
    # proj2 after fork is the identity: fork runs first
    assert eval_generator_word(2, ["proj2", "fork"]) == identity_element(2)
    assert eval_generator_word(2, []) == identity_element(2)
    assert eval_generator_word(2, ["not", "not"]) == identity_element(2)
    # for k=3 "not" is not an involution: letter 2 never comes back
    e = eval_generator_word(3, ["not", "not"])
    assert apply(e, (2, 1)) == (1, 1)


def test_synthesize_single_letter():
    word = synthesize_partial_identity(2, (0,))
    assert word == ["proj2", "guard", "not", "E1", "fork"]
    e = eval_generator_word(2, word)
    assert e == Mk1Element.make(2, [((1,), (1,))])


def level(k, m):
    return [tuple(w) for w in product(range(k), repeat=m)]


def hole_identity(k, s):
    words = [w for w in level(k, len(s)) if w != tuple(s)]
    return partial_identity(PrefixCode.make(k, words))


def test_synthesis_exhaustive_binary():
    for m in (1, 2, 3):
        for s in level(2, m):
            word = synthesize_partial_identity(2, s)
            assert eval_generator_word(2, word) == hole_identity(2, s)


def test_synthesis_ternary():
    for s in level(3, 2):
        word = synthesize_partial_identity(3, s)
        assert eval_generator_word(3, word) == hole_identity(3, s)
    s = (2, 0, 1)
    assert eval_generator_word(3, synthesize_partial_identity(3, s)) == hole_identity(3, s)


def test_eval_matches_the_one_gate_per_token_reference():
    targets = [(2, s) for m in range(1, 6) for s in level(2, m)]
    targets += [(3, s) for m in range(1, 4) for s in level(3, m)]
    for k, s in targets:
        word = synthesize_partial_identity(k, s)
        assert eval_generator_word(k, word) == reference_eval_generator_word(k, word)


def test_eval_builds_each_distinct_gate_once(monkeypatch):
    built = []

    def counting_gate(k, token):
        built.append(token)
        return gate_element(k, token)

    monkeypatch.setattr(circuits, "gate_element", counting_gate)
    for k, s in ((2, (0, 1, 1, 0)), (3, (2, 0, 1))):
        built.clear()
        word = synthesize_partial_identity(k, s)
        eval_generator_word(k, word)
        assert sorted(built) == sorted(set(word)) and len(word) > len(built)


def test_the_first_bad_token_raises_before_any_table_is_composed(monkeypatch):
    """Gates are built in token order before the fold from the right: the
    leftmost bad token wins, whichever end of the program it sits at."""
    with pytest.raises(UnknownGate):
        eval_generator_word(2, ["foo", "tau(30)"])
    with pytest.raises(TooLarge):
        eval_generator_word(2, ["tau(30)", "foo"])
    composed = []
    monkeypatch.setattr(circuits, "compose", lambda f, g: composed.append((f, g)))
    with pytest.raises(UnknownGate):
        eval_generator_word(2, ["not", "fork", "foo"])
    assert composed == []


def test_the_right_fold_composes_fewer_rows(monkeypatch):
    """Rows of every partial product of one evaluation: an exact count, so
    it holds on any machine.  Folding from the left composed 8,130 and
    4,879 rows; the suffix products come to 3,635 and 1,132."""
    rows = []
    compose = circuits.compose

    def counting_compose(f, g):
        fg = compose(f, g)
        rows.append(len(fg.rows))
        return fg

    monkeypatch.setattr(circuits, "compose", counting_compose)
    for k, s, most in ((2, (0,) * 7, 4000), (3, (0,) * 4, 1500)):
        rows.clear()
        word = synthesize_partial_identity(k, s)
        assert eval_generator_word(k, word) == hole_identity(k, s)
        assert len(rows) == len(word) and sum(rows) <= most, (k, s, sum(rows))


def _programs(k):
    gates = ["and", "or", "not", "fork", "proj2", "guard"]
    gates += [f"E{c}" for c in range(1, k + 1)] + [f"tau({i})" for i in (1, 2, 3)]
    return st.lists(st.sampled_from(gates), max_size=12)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from((2, 3)).flatmap(lambda k: st.tuples(st.just(k), _programs(k))))
def test_eval_of_any_program_matches_the_left_fold_reference(program):
    """The right fold against the reference's left fold, on programs that
    no synthesis writes; for k = 3 ``not`` is not an involution."""
    k, word = program
    assert eval_generator_word(k, word) == reference_eval_generator_word(k, word)


def test_synthesized_length_growth():
    # bubbling passes dominate: token count is Theta(m^2), and the weighted
    # length (tau(i) costing i+1) is Theta(m^3)
    words = [synthesize_partial_identity(2, (0,) * m) for m in (1, 2, 4, 8)]
    counts = [len(w) for w in words]
    lengths = [generator_length(w) for w in words]
    assert counts == sorted(counts) and lengths == sorted(lengths)
    assert counts[-1] <= 3 * 8 * 8
    assert lengths[-1] <= 8 * 8 * 8


def test_synthesis_rejects_bad_targets():
    with pytest.raises(EmptyTarget):
        synthesize_partial_identity(2, ())
    with pytest.raises(OutOfRange):
        synthesize_partial_identity(2, (0, 2))


def test_length_bound():
    for s in ((0,), (0, 1), (1, 1, 0)):
        assert length_bound_check(2, synthesize_partial_identity(2, s))
    assert length_bound_check(2, ["fork"])
    assert length_bound_check(2, ["and"])
    assert length_bound_check(3, ["tau(2)", "or"])
    assert length_bound_check(2, ["proj2", "guard", "not", "E1", "fork"])
    assert not length_bound_check(2, ["proj2"], factor=0)  # b -> ^ loses a letter


def test_length_bound_matches_the_restriction_reference():
    rng = random.Random(14)
    gates = ["and", "or", "not", "fork", "proj2", "guard", "E1", "E2", "tau(1)", "tau(2)"]
    programs = [(k, synthesize_partial_identity(k, t)) for k in (2, 3) for m in (1, 2)
                for t in product(range(k), repeat=m)]
    programs += [(k, [rng.choice(gates) for _ in range(rng.randint(1, 6))])
                 for k in (2, 3) for _ in range(60)]
    seen = set()
    for k, prog in programs:
        for factor in (0, 1, 2):
            got = length_bound_check(k, prog, factor)
            assert got == reference_length_bound_check(k, prog, factor), (k, prog, factor)
            seen.add(got)
    assert seen == {False, True}
