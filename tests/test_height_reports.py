"""Minimal automata and height reports in time linear in the code.

``trie_dfa`` merges the sorted words bottom-up by signature ids; the
heights sum integer powers of k.  Both height reports read the fiber
lengths and the R-height their own way and sum them through
``HeightReport.from_fibers``: the automaton report counts fiber lengths on
one signature table of run edges per element and measures the image
code's run trie in a table of its own, with no fiber word, ``trie_dfa`` or
``heights``.  These properties check them against the references in
``helpers`` and against each other, on tables whose words share long runs
too; they count the states the report adds, and time and bound in memory
the inputs on which the old prefix-slicing trie, the per-class ``apply``,
the per-fiber automata and the image trie's length counts blew up.
"""

import random
import time
import tracemalloc
from collections import Counter
from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

from helpers import (
    _ratio,
    deep_rotation,
    el,
    elements,
    language,
    nested_images,
    prefix_free,
    random_element,
    reference_format_dfa,
    reference_height_report_via_dfa,
    reference_heights,
    reference_section_inverse,
    reference_trie_dfa,
    words,
)
from mk1 import dfa, green
from mk1.dfa import dfa_measure, format_dfa, height_report_via_dfa, trie_dfa
from mk1.elements import (
    Mk1Element,
    compose,
    format_table,
    identity_element,
    image_code,
    part,
    zero_element,
)
from mk1.green import (
    ExponentSum,
    HeightReport,
    _rep_sum,
    format_height_report,
    heights,
    leq_L,
    section_inverse,
)
from mk1.kary import kq, kq_pow_sum, kq_zero
from mk1.words import PrefixCode, words_of_length


def _code_words(k):
    """Strategies for the words of three shapes of prefix codes over k
    letters: small ones, one deep word, and P·S for small P and S."""
    small = st.lists(words(k, 5), min_size=1, max_size=10).map(prefix_free)
    deep = st.lists(st.integers(0, k - 1), min_size=20, max_size=200).map(lambda w: [tuple(w)])
    # P·S for prefix codes P and S: every p's subtrie is a copy of S's
    shared = st.tuples(small, small).map(lambda ps: [p + s for p in ps[0] for s in ps[1]])
    return small, deep, shared


def _codes(k):
    return st.one_of(st.just([()]), *_code_words(k)).map(lambda ws: PrefixCode.make(k, ws))


def _long_run_tables(k):
    """Strategy: tables over k letters whose domain words share long runs
    (one deep word, P·S, or P·d·S for a deep word d, whose trie parts after
    the run d), each sent to a prefix of one of two stems of up to 12
    letters, so images nest and fibers hang their x's on suffix segments of
    several lengths."""
    small, deep, shared = _code_words(k)
    domains = st.one_of(deep, shared, st.tuples(small, deep, small).map(
        lambda pds: [p + pds[1][0] + s for p in pds[0] for s in pds[2]]))

    @st.composite
    def build(draw):
        domain = draw(domains)
        stems = draw(st.lists(words(k, 12), min_size=1, max_size=2))
        images = sorted({s[:i] for s in stems for i in range(len(s) + 1)})
        return Mk1Element.make(k, [(x, draw(st.sampled_from(images))) for x in domain])

    return build()


def _derived_codes(e):
    """The nonempty codes an element derives: its domain code, its image
    code and the classes of its fiber partition."""
    codes = [e.domain_code, image_code(e)] + [PrefixCode.make(e.k, cls) for cls in part(e).classes]
    return [code for code in codes if code.words]


@settings(max_examples=500, deadline=None)
@given(st.one_of(st.sampled_from((2, 3, 4)).flatmap(_codes).map(lambda code: [code]),
                 elements.map(_derived_codes)))
def test_trie_dfa_matches_the_prefix_trie_reference(codes):
    """Equal to the checked reference automaton, so each automaton is
    deterministic, acyclic and trimmed, with one accepting state."""
    for code in codes:
        assert format_dfa(trie_dfa(code)) == reference_format_dfa(reference_trie_dfa(code))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from((2, 3, 4)).flatmap(_codes))
def test_automaton_measure_and_language(code):
    d = trie_dfa(code)
    assert dfa_measure(d) == code.mu
    assert language(d) == list(code.words)


@settings(max_examples=300, deadline=None)
@given(elements)
@example(zero_element(3))
@example(identity_element(3))
@example(el(2, ("a", "a"), ("b", "^")))   # fibers {a, ba}, {bb}: lengths 3/2, 2
@example(el(3, ("a", "^"), ("ba", "^"), ("bb", "^"), ("c", "^")))   # 3/2
def test_height_report_via_dfa_formats_as_heights(e):
    assert format_height_report(height_report_via_dfa(e)) == format_height_report(heights(e))


@settings(max_examples=300, deadline=None)
@given(elements)
@example(zero_element(2))
@example(zero_element(3))
@example(el(2, ("a", "a"), ("b", "^")))
@example(el(3, ("a", "^"), ("ba", "^"), ("bb", "^"), ("c", "^")))
@example(nested_images(6))
@example(deep_rotation(40))
def test_height_reports_match_their_inline_references(e):
    for got, want in ((heights(e), reference_heights(e)),
                      (height_report_via_dfa(e), reference_height_report_via_dfa(e))):
        assert got == want
        assert format_height_report(got) == format_height_report(want)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from((2, 3)).flatmap(_long_run_tables))
@example(nested_images(7))
@example(deep_rotation(60))
def test_height_report_via_dfa_on_long_runs(e):
    """Run edges with long tails, suffix segments and nested images: the
    automaton report equals its reference and ``heights``."""
    rep = height_report_via_dfa(e)
    assert rep == reference_height_report_via_dfa(e) == heights(e)


def test_the_report_adds_a_state_only_where_words_part(monkeypatch):
    """On ``deep_rotation(n)`` the automaton report adds n - 1 states (3n
    when it added one state per letter).  Each fiber is one row x -> z, a
    run trie whose root keeps its one edge outside the table; the image
    code deep_code(n) parts at 0^i for each i < n, and its root is kept
    outside its table too.  A count, unlike the time budgets below, does
    not move with the machine's speed."""
    added = []
    state = dfa._state

    def counted(sig, ids, sigs):
        before = len(sigs)
        sid = state(sig, ids, sigs)
        added.append(len(sigs) - before)
        return sid

    monkeypatch.setattr(dfa, "_state", counted)
    for n in (50, 200):
        added.clear()
        height_report_via_dfa(deep_rotation(n))
        assert sum(added) == n - 1


def test_height_report_via_dfa_stands_alone(monkeypatch):
    """The automaton report calls neither ``heights`` nor the per-code
    automaton and its measure: it shares only their private parts, the
    trie builder ``_hang`` and the measure pass, so it checks ``heights``
    independently."""
    rng = random.Random(20)
    cases = [zero_element(2), identity_element(3), nested_images(6), deep_rotation(40),
             el(2, ("a", "a"), ("b", "^"))] + [random_element(rng, k) for k in (2, 3) * 40]
    want = [reference_height_report_via_dfa(e) for e in cases]

    def refuse(*args):
        raise AssertionError("the automaton report reached a shared shortcut")

    for module, name in ((green, "heights"), (dfa, "trie_dfa"), (dfa, "dfa_measure")):
        monkeypatch.setattr(module, name, refuse)
    assert [height_report_via_dfa(e) for e in cases] == want


def _fraction_sorted_rep_sum(k, exps):
    """The exponent sum with its terms sorted as Fractions, each spelled as
    its Fraction's (numerator, denominator) only at the end."""
    counts = Counter(exps)
    if all(d == 1 for _, d in counts):
        return kq_pow_sum(k, {n: c for (n, _), c in counts.items()})
    terms = sorted((Fraction(n, d), c) for (n, d), c in counts.items())
    return ExponentSum(k, tuple(((q.numerator, q.denominator), c) for q, c in terms))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from((2, 3, 7)),
       st.lists(st.tuples(st.integers(0, 3000), st.sampled_from((1, 1, 2, 3, 7, 12, 1023, 1024))),
                max_size=40))
def test_exponent_sums_sort_by_exact_integer_keys(k, exps):
    """Pairs go in as drawn, so 4/2 and 2/1 are one exponent once reduced."""
    assert _rep_sum(k, exps) == _fraction_sorted_rep_sum(k, [_ratio(*nd) for nd in exps])


def test_height_report_from_fiber_lengths():
    """Fibers of lengths {1, 2}, {2, 3, 5} and {3} over two letters, each
    given as a shift and its lengths less the shift: the even fiber has
    median 3/2, the odd one median 3."""
    r = kq(2, 3, 2)
    rep = HeightReport.from_fibers(2, r, [(0, [1, 2]), (2, [0, 1, 3]), (3, [0])])
    assert rep.r == r
    assert rep.l == kq(2, 7, 3)                   # 2^-1 + 2^-2 + 2^-3
    assert rep.l_max == kq(2, 13, 5)              # 2^-2 + 2^-5 + 2^-3
    assert rep.l_ave == ExponentSum(2, (((3, 2), 1), ((3, 1), 1), ((10, 3), 1)))
    assert rep.l_med == ExponentSum(2, (((3, 2), 1), ((3, 1), 2)))
    assert format_height_report(rep) == "\n".join([
        "R 0.11", "L 0.111", "Lmax 0.01101",
        "Lave 2^(-3/2) + 2^(-3) + 2^(-10/3)", "Lmed 2^(-3/2) + 2*2^(-3)"])
    # an even fiber with a whole median and average: 3^-3 each
    rep = HeightReport.from_fibers(3, r, [(1, [1, 3])])
    assert rep.l_ave == rep.l_med == kq(3, 1, 3)
    zero = kq_zero(2)
    assert HeightReport.from_fibers(2, zero, []) == HeightReport(zero, zero, zero, zero, zero)


@settings(max_examples=300, deadline=None)
@given(elements)
def test_section_inverse_matches_the_apply_reference(e):
    assert format_table(section_inverse(e)) == format_table(reference_section_inverse(e))


def test_section_inverse_of_a_wide_level_table():
    """2^14 rows w -> reverse(w): one row per fiber, no scan per row."""
    e = Mk1Element.make(2, [(w, w[::-1]) for w in words_of_length(2, 14)])
    started = time.perf_counter()
    sec = section_inverse(e)
    assert time.perf_counter() - started < 2.0
    assert sec.rows == tuple((w, w[::-1]) for w in words_of_length(2, 14))


def test_height_report_on_a_1500_level_table():
    """1501 one-word fibers of total length about 1.1 million letters."""
    h = deep_rotation(1500)
    started = time.perf_counter()
    rep = height_report_via_dfa(h)
    assert time.perf_counter() - started < 6.0
    assert format_height_report(rep) == format_height_report(heights(h)) == "\n".join(
        f"{name} 1" for name in ("R", "L", "Lmax", "Lave", "Lmed"))


def test_height_report_on_1024_nested_images():
    """Fiber i has i + 1 words of up to about 1,030 letters: the x-tries and one
    suffix chain per fiber, where listing the fiber words is cubic."""
    e = nested_images(10)
    started = time.perf_counter()
    rep = height_report_via_dfa(e)
    assert time.perf_counter() - started < 20.0
    assert format_height_report(rep) == format_height_report(heights(e))


def _peak_mb(report, e) -> float:
    """The most memory, in MB, that tracemalloc saw held while ``report(e)`` ran."""
    tracemalloc.start()
    try:
        report(e)
        return tracemalloc.get_traced_memory()[1] / (1 << 20)
    finally:
        tracemalloc.stop()


def test_height_report_memory_budgets():
    """On the 1000-level table, whose domain words have about 500,000
    letters, each report's peak stays within a budget: the automaton report
    keeps no length count on the image code's trie, whose spine alone
    would count about 500,000 lengths, and ``heights`` stays within a
    smaller one."""
    assert _peak_mb(height_report_via_dfa, deep_rotation(1000)) < 4.0
    assert _peak_mb(heights, deep_rotation(1000)) < 2.0


def test_compose_and_leq_L_memory_budgets():
    """On the same table, composing it with itself and ``leq_L`` of it with
    itself each peak at about 0.15 MB.  They peaked at 4.2 MB while the
    reduction kept its parents in one set per depth: the slices x[:-1], a
    copy of every domain word but its last letter.  A budget of 1 MB
    catches any copy of the table's words (some 500,000 letters).

    On 1,024 nested images, ``compose`` peaks at about 4.8 MB, most of it
    the composite's own long images, and ``leq_L`` at about 0.12 MB."""
    assert _peak_mb(lambda e: compose(e, e), deep_rotation(1000)) < 1.0
    assert _peak_mb(lambda e: leq_L(e, e), deep_rotation(1000)) < 1.0
    assert _peak_mb(lambda e: compose(e, e), nested_images(10)) < 8.0
    assert _peak_mb(lambda e: leq_L(e, e), nested_images(10)) < 1.0
