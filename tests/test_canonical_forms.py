"""Reduced tables and R2 normal forms.

Each comes from the one bottom-up merge pass.  These properties check them against
the restarting loops kept in ``helpers``, check that ``make`` gives one
canonical table however the rows are presented, and time the inputs on
which the old loops were quadratic and about cubic.
"""

import time

from hypothesis import example, given, settings, strategies as st

from helpers import (
    deep_code,
    elements,
    elements_over,
    reference_make,
    reference_r2_normal_form,
    reference_reduce_rows,
    words,
)
from mk1.elements import (
    Mk1Element,
    _merge_rows,
    compose,
    image_code,
    image_code_restriction,
    partial_identity,
    r2_normal_form,
    restrict_to_length,
)
from mk1.errors import Mk1Error
from mk1.green import leq_L
from mk1.words import PrefixCode, parse_word, words_of_length


def _deeper(e, extra):
    """e with every domain word split to ``extra`` letters past the longest."""
    return restrict_to_length(e, max((len(x) for x, _ in e.rows), default=0) + extra)


def _table(k, *rows):
    return Mk1Element(k, tuple((parse_word(x, k), parse_word(y, k)) for x, y in rows))


def _row_lists(e, extra):
    """Distinct rows whose domain words form a prefix code: e's, its
    restriction's, e split ``extra`` letters deeper, and that split with
    images that merge more often and less often."""
    split = _deeper(e, extra).rows
    return (e.rows, image_code_restriction(e).rows, split,
            [(x, x) for x, _ in split], [(x, y[:1]) for x, y in split])


@settings(max_examples=300, deadline=None)
@given(elements, st.integers(0, 2))
# a merge that completes its parent's family: aa, ab -> a, then a, b -> ^
@example(_table(2, ("b", "bb"), ("aa", "baa"), ("ab", "bab")), 0)
@example(_table(3, ("a", "ba"), ("b", "bb"), ("ca", "bca"), ("cb", "bcb"), ("cc", "bcc")), 1)
# one subtree merges, its sibling subtree stays split
@example(_table(2, ("aa", "ba"), ("ab", "bb"), ("ba", "ba"), ("bb", "a")), 0)
@example(_table(2, ("aa", "ba"), ("ab", "a"), ("ba", "bba"), ("bb", "bbb")), 0)
@example(_table(2, ("a", "^"), ("b", "^")), 1)  # images ^ never merge
@example(_table(3, ("a", "^"), ("b", "^"), ("c", "^")), 0)
@example(_table(2, ("^", "^")), 0)
@example(_table(3, ("^", "^")), 0)
# empty words where the pass reads last letters: stems ^, and an image ^
# on the row below the last member of a family
@example(_table(3, ("a", "a"), ("b", "b"), ("c", "c")), 0)
@example(_table(2, ("a", "^"), ("b", "b")), 0)
@example(_table(3, ("a", "a"), ("b", "^"), ("c", "c")), 0)
def test_make_reduces_as_the_reference(e, extra):
    """Each row list also goes in twice over with its words as lists:
    repeated identical rows count once, and any word sequences will do."""
    for rows in _row_lists(e, extra):
        want = reference_reduce_rows(e.k, rows)
        assert Mk1Element.make(e.k, rows).rows == want
        assert Mk1Element.make(e.k, [(list(x), list(y)) for x, y in rows] * 2).rows == want


@settings(max_examples=300, deadline=None)
@given(elements, st.integers(0, 2))
@example(_table(2, ("^", "^")), 3)  # a cascade: eight rows merge level by level
@example(_table(3, ("^", "^")), 2)
@example(_table(3, ("a", "ba"), ("b", "bb"), ("ca", "bca"), ("cb", "bcb"), ("cc", "bcc")), 0)
@example(_table(2, ("^", "^")), 0)
@example(_table(2, ("a", "ba"), ("b", "ab")), 0)  # last letters fit, stems differ
def test_merge_pass_matches_the_reference(e, extra):
    """The pass that ``make`` and ``compose`` call on rows they have sorted."""
    for rows in _row_lists(e, extra):
        assert _merge_rows(e.k, sorted(rows)) == reference_reduce_rows(e.k, rows)


def _outcome(make, k, rows):
    """The element ``make`` builds, or the class and message it raises."""
    try:
        return make(k, rows)
    except Mk1Error as exc:
        return type(exc), str(exc)


@st.composite
def faulty_rows(draw):
    """(k, rows): a table's rows for k = 1, 2 or 3 letters in any order,
    with any of a letter out of range, a second image for a domain word, and
    a prefix or an extension of a domain word added."""
    k = draw(st.integers(1, 3))
    word = words(max(k, 2), 3)
    rows = list(draw(elements_over(max(k, 2))).rows)
    if draw(st.booleans()):
        bad = draw(word) + (draw(st.sampled_from((-1, k))),)
        rows.append((bad, draw(word)) if draw(st.booleans()) else (draw(word), bad))
    x = draw(st.sampled_from(rows))[0] if rows and draw(st.booleans()) else draw(word)
    if draw(st.booleans()):
        rows.append((x, draw(word)))  # a second image, or a repeated row
    if draw(st.booleans()):
        z = x[:draw(st.integers(0, len(x)))] if draw(st.booleans()) else x + draw(word)
        rows.append((z, draw(word)))
    return k, draw(st.permutations(rows))


@settings(max_examples=500, deadline=None)
@given(faulty_rows())
# each pair of faults: BaseTooSmall, then OutOfRange, then NotCanonical,
# then DomainNotPrefixCode
@example((1, [((0,), (1,))]))
@example((1, [((0,), ()), ((0,), (0,))]))
@example((1, [((), ()), ((0,), ())]))
@example((2, [((0,), ()), ((0,), (1,)), ((1,), (2,))]))
@example((2, [((0,), ()), ((0, 1), ()), ((1,), (-1,))]))
@example((2, [((0,), ()), ((0, 1), ()), ((1,), ()), ((1,), (0,))]))  # the prefix pair sorts first
@example((3, [((0,), ()), ((0,), (2,)), ((0, 2), (1,))]))
def test_make_matches_the_reference(case):
    """Each row list also goes in as a generator, and twice over with its
    words as lists."""
    k, rows = case
    want = _outcome(reference_make, k, rows)
    for feed in (rows, (row for row in rows), [(list(x), list(y)) for x, y in rows] * 2):
        assert _outcome(Mk1Element.make, k, feed) == want


@settings(max_examples=300, deadline=None)
@given(elements, st.integers(0, 2))
def test_r2_normal_form_matches_the_reference(e, extra):
    for code in (e.domain_code, image_code(e), _deeper(e, extra).domain_code):
        form = r2_normal_form(code)
        assert form == reference_r2_normal_form(code)
        assert form == partial_identity(code).reduced().domain_code


@settings(max_examples=200, deadline=None)
@given(elements, st.data())
def test_make_ignores_row_order_and_splits(e, data):
    rows = data.draw(st.permutations(e.rows))
    assert Mk1Element.make(e.k, rows) == e
    for _ in range(data.draw(st.integers(1, 3))):
        if not rows:
            break
        x, y = rows.pop(data.draw(st.integers(0, len(rows) - 1)))
        rows.extend((x + (a,), y + (a,)) for a in range(e.k))
        assert Mk1Element.make(e.k, rows) == e


triples = st.sampled_from((2, 3)).flatmap(lambda k: st.tuples(*[elements_over(k)] * 3))


@settings(max_examples=200, deadline=None)
@given(triples)
def test_compose_is_associative(fgh):
    f, g, h = fgh
    assert compose(compose(f, g), h) == compose(f, compose(g, h))


def _unmergeable_pairs(d):
    """1.5·2^d rows over two letters.  The rows 0·u·0 and 0·reverse(u)·1 share
    the image 00·u·00, a fiber that never merges; the 2^d one-word fibers of
    the rows 1·w -> 11·reverse(w) merge all the way up to {b}."""
    rows = []
    for u in words_of_length(2, d - 2):
        image = (0, 0) + u + (0, 0)
        rows += [((0,) + u + (0,), image), ((0,) + u[::-1] + (1,), image)]
    rows += [((1,) + w, (1, 1) + w[::-1]) for w in words_of_length(2, d)]
    return Mk1Element.make(2, rows)


def test_leq_L_with_thousands_of_classes_that_never_merge():
    g = _unmergeable_pairs(13)
    assert len(g.rows) == 12_288
    started = time.perf_counter()
    assert leq_L(g, g)
    assert time.perf_counter() - started < 2.0


def test_r2_normal_form_of_a_1600_level_code():
    code = PrefixCode.make(2, deep_code(1600))
    started = time.perf_counter()
    form = r2_normal_form(code)
    assert time.perf_counter() - started < 1.0
    assert form == PrefixCode.make(2, [()])
