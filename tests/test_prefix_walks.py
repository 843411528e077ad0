"""Prefix walks: the trie walk, apply, compose, separating_context and leq_L.

``words.trie_leaves`` is the one trie walk; ``separating_context`` reads
the leaves of the union trie of two domains, and ``compose`` takes the
domain words of f that extend an image as one slice of f's domain in
dictionary order, found by two bisects, instead of trying every word of
the full depth or scanning every domain word per row.  ``apply`` finds its
row by two bisects in the same dictionary-ordered view, which an element
sorts on its first lookup.  These properties check the walk against the
leaves of the completed trie, check the three callers against the scanning
references in ``helpers``, check ``leq_L`` against the section
certificate, and time the inputs on which the scans blow up or a
recursive walk would pass Python's recursion limit.
"""

import random
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import (
    deep_code,
    deep_rotation,
    el,
    elements_over,
    reference_apply,
    reference_compose,
    reference_separating_context,
    reference_trie_leaves,
)
from mk1.circuits import gate_element
from mk1.elements import (
    Mk1Element,
    NoValue,
    apply,
    compose,
    format_table,
    identity_element,
    parse_table,
    partial_identity,
    zero_element,
)
from mk1.errors import NotDistinct, OutOfRange
from mk1.green import eq_L, leq_L, section_inverse, separating_context
from mk1.words import PrefixCode, is_prefix, trie_leaves, words_of_length


def _words(k):
    return st.lists(st.integers(0, k - 1), max_size=5).map(tuple)


@st.composite
def _table(draw, k, near):
    """A partial table whose domain and image words are drawn mostly from
    ``near``, so images are often proper prefixes of domain words."""
    domain = []
    pool = st.one_of(st.sampled_from(near[::-1]), _words(k))   # () last, so rarely all
    for x in sorted(draw(st.lists(pool, min_size=1, max_size=8)), key=len):
        if not any(x[: len(d)] == d for d in domain):
            domain.append(x)
    return Mk1Element.make(k, [(x, draw(st.sampled_from(near))) for x in domain])


def _one_letter_off(e, draw):
    """e with one image letter changed (or one letter given to an empty image)."""
    rows = list(e.rows)
    i = draw(st.integers(0, len(rows) - 1))
    x, y = rows[i]
    j = draw(st.integers(0, len(y)))
    a = draw(st.integers(1, e.k - 1))
    y = y[:j] + ((y[j] + a) % e.k,) + y[j + 1:] if j < len(y) else y + (a,)
    rows[i] = (x, y)
    return Mk1Element.make(e.k, rows)


@st.composite
def pairs(draw):
    k = draw(st.sampled_from((2, 3)))
    stems = draw(st.lists(_words(k), min_size=1, max_size=4))
    near = sorted({s[:i] for s in stems for i in range(len(s) + 1)})
    f = draw(_table(k, near))
    if f.rows and draw(st.booleans()):
        return f, _one_letter_off(f, draw)
    return f, draw(_table(k, near))


@settings(max_examples=400, deadline=None)
@given(pairs())
# g's image a is a proper prefix of f's aa and aba; the end abb dies
@example((el(2, ("aa", "b"), ("aba", "a"), ("b", "ab")), el(2, ("a", "^"), ("b", "a"))))
# three letters: c is a prefix of ca and cc, cb dies; b dies; ab runs through a
@example((el(3, ("a", "c"), ("ca", "b"), ("cc", "^")), el(3, ("a", "c"), ("b", "b"), ("c", "ab"))))
# g's images a and b are domain words of f
@example((el(2, ("a", "b"), ("b", "^")), el(2, ("a", "a"), ("b", "b"))))
def test_compose_matches_the_scanning_reference(fg):
    f, g = fg
    for a, b in _partners(f, g) + [(g, f)]:
        assert format_table(compose(a, b)) == format_table(reference_compose(a, b))


def _partners(f, g):
    """(f, g), and f beside the zero and the identity on either side."""
    ends = (zero_element(f.k), identity_element(f.k))
    return [(f, g)] + [(f, e) for e in ends] + [(e, f) for e in ends]


def _separates(f, g, contexts):
    c1, c2 = contexts
    sf, sg = compose(compose(c1, f), c2), compose(compose(c1, g), c2)
    survivor = sg if sf.is_zero else sf
    return sf.is_zero != sg.is_zero and len(survivor.rows) == 1


def _contexts(sep, f, g):
    try:
        return tuple(map(format_table, sep(f, g)))
    except NotDistinct:
        return "equal"


@settings(max_examples=400, deadline=None)
@given(pairs())
def test_separating_context_matches_the_full_depth_reference(fg):
    f, g = fg
    for a, b in _partners(f, g):
        got = _contexts(separating_context, a, b)
        assert got == _contexts(reference_separating_context, a, b)
        assert got == "equal" or _separates(a, b, separating_context(a, b))


@settings(max_examples=300, deadline=None)
@given(pairs(), st.booleans())
def test_leq_L_matches_the_section_certificate(fg, through_g):
    f, g = fg
    if through_g:
        f = compose(f, g)   # then f <=_L g
    certified = compose(compose(f, section_inverse(g)), g) == f.reduced()
    assert leq_L(f, g) == certified
    assert not through_g or certified
    assert eq_L(f, g) == (leq_L(f, g) and leq_L(g, f))


def test_leq_L_compares_ends_past_the_fiber_words():
    """g sends a·t and b·t alike; f sends aa and ba apart, so f is not
    below g, although each f-fiber meets both a and b."""
    f = Mk1Element.make(2, [((0, 0), (0,)), ((0, 1), (1,)), ((1, 0), (1,)), ((1, 1), (0,))])
    g = Mk1Element.make(2, [((0,), ()), ((1,), ())])
    assert not leq_L(f, g)
    assert leq_L(compose(f, g), g)


@st.composite
def _tagged_words(draw):
    """(k, tags): a few words, ^ and nested words included, each with a tuple."""
    k = draw(st.sampled_from((2, 3)))
    ws = draw(st.lists(st.one_of(st.just(()), _words(k)), max_size=8))
    if ws and draw(st.booleans()):
        ws.append(ws[0] + draw(_words(k)))   # nested below another word
    return k, {w: draw(st.lists(st.integers(0, 9), max_size=2).map(tuple)) for w in ws}


def _brute_leaves(k, tags):
    """The leaves of the trie of the words below the minimal ones, each inner
    node given all k children, with the tags of the words on its path."""
    inner = {w[:i] for w in tags for i in range(len(w))}
    nodes = {w for w in tags if not any(is_prefix(v, w) for v in tags if v != w)}
    nodes |= {p + (a,) for p in inner if any(is_prefix(w, p) for w in tags) for a in range(k)}
    return [(p, sum((tags[w] for w in sorted(tags, key=len) if is_prefix(w, p)), ()))
            for p in sorted(nodes - inner)]


@settings(max_examples=500, deadline=None)
@given(_tagged_words())
@example((2, {}))
@example((2, {(): ("root",)}))
@example((3, {(): (), (1,): (1,), (1, 2, 0): (2,)}))
def test_trie_leaves_match_the_completed_trie(ktags):
    k, tags = ktags
    assert list(trie_leaves(k, tags)) == _brute_leaves(k, tags)


@st.composite
def _walk_tags(draw):
    """(k, tags) for k in {2, 3, 5}: a few words, often with ^ and with a
    chain over 30 letters deep below one of them, some sharing one tag."""
    k = draw(st.sampled_from((2, 3, 5)))
    letters = st.integers(0, k - 1)
    ws = draw(st.lists(st.lists(letters, max_size=6).map(tuple), max_size=10))
    if draw(st.booleans()):
        ws.append(())
    if ws and draw(st.booleans()):
        base = draw(st.sampled_from(ws))
        chain = base + tuple(draw(st.lists(letters, min_size=31, max_size=40)))
        ws += [chain[:i] for i in range(len(base) + 1, len(chain) + 1, draw(st.integers(1, 12)))]
    shared = draw(st.lists(st.integers(0, 9), max_size=2).map(tuple))
    tag = st.one_of(st.just(shared), st.lists(st.integers(0, 9), max_size=2).map(tuple))
    return k, {w: draw(tag) for w in ws}


@settings(max_examples=500, deadline=None)
@given(_walk_tags())
@example((5, {}))
@example((2, {(): (1,)}))
@example((3, {(): (), (0,) * 35: (7,), (0,) * 36 + (2,): (7,), (1,): (7,)}))
def test_trie_leaves_match_the_reference_walk(ktags):
    """The walk gives the same leaves and paths as its stack-only reference,
    with its tags as tuples or as lists."""
    k, tags = ktags
    want = list(reference_trie_leaves(k, tags))
    assert list(trie_leaves(k, tags)) == want
    as_lists = {w: list(tag) for w, tag in tags.items()}
    assert [(p, tuple(path)) for p, path in trie_leaves(k, as_lists)] == want


# -- worst cases: the scanning references take far longer on these -----------

@pytest.mark.parametrize("k", [2, 3])
def test_separating_context_at_depth_40(k):
    """k^40 words of full depth: trying them all would never finish."""
    f = Mk1Element.make(k, [((0,) * 40, (0,))])
    g = Mk1Element.make(k, [((0,) * 40, (1,))])
    started = time.perf_counter()
    contexts = separating_context(f, g)
    assert time.perf_counter() - started < 0.5
    assert _separates(f, g, contexts)


def test_separating_context_past_the_recursion_limit():
    """1,501 rows 1,500 levels deep, and a partial identity on the same code."""
    code = deep_code(1500)
    f, g = deep_rotation(1500), partial_identity(PrefixCode.make(2, code[:-1]))
    for a, b in ((f, g), (g, f), (f, compose(f, f))):
        assert _separates(a, b, separating_context(a, b))


def test_compose_splitting_into_a_wide_level_table():
    """f∘swap expands each row of swap into the 2^13 level words of f under
    its image; scanning f's domain for each split row takes several seconds."""
    rows = tuple((w, w[::-1]) for w in words_of_length(2, 14))
    f = Mk1Element(2, rows)     # reversal does not merge: already reduced
    swap = Mk1Element.make(2, [((0,), (1,)), ((1,), (0,))])
    started = time.perf_counter()
    fs = compose(f, swap)
    assert time.perf_counter() - started < 2.0
    assert fs.rows == tuple(((1 - w[0],) + w[1:], y) for w, y in rows[8192:] + rows[:8192])


def test_compose_of_a_2000_level_table():
    """2001 rows up to 2000 letters deep: one bisect per row, where looking
    up every prefix of every image took about ten seconds."""
    h = deep_rotation(2000)
    started = time.perf_counter()
    hh = compose(h, h)
    assert time.perf_counter() - started < 1.0
    code = deep_code(2000)
    assert hh == Mk1Element.make(2, list(zip(code, code[2:] + code[:2])))


# a partial table with domain words of four lengths
_MIXED = el(3, ("a", "c"), ("ba", "^"), ("bcab", "aa"), ("bcc", "b"))


@st.composite
def _lookups(draw):
    """(e, words): a table over 2 or 3 letters (mixed domain lengths, the
    zero, the identity, or one row from the domain word ^), and words that
    are shorter than, equal to or longer than its domain words, or anywhere."""
    k = draw(st.sampled_from((2, 3)))
    e = draw(st.one_of(elements_over(k), _words(k).map(lambda y: Mk1Element(k, (((), y),)))))
    near = _words(k)
    if e.rows:
        cut = st.tuples(st.sampled_from([x for x, _ in e.rows]), st.integers(0, 5), _words(k))
        near = st.one_of(near, cut.map(lambda c: c[0][:c[1]] + c[2]))
    return e, draw(st.lists(near, min_size=1, max_size=12))


@settings(max_examples=400, deadline=None)
@given(_lookups())
@example((deep_rotation(6), [(), (0,) * 3, (0,) * 6, (0,) * 7, (0, 0, 1, 1)]))
def test_apply_matches_the_scanning_reference(ew):
    """Two bisects in the dictionary-ordered view give what scanning every
    row gives, on the first lookup and on every later one."""
    e, ws = ew
    for w in ws + ws:
        assert apply(e, w) == reference_apply(e, w), (format_table(e), w)


def test_apply_gives_words_need_longer_and_undefined_as_the_scan_does():
    """Every word up to length 5 over _MIXED, where all three kinds of
    answer occur."""
    e = _MIXED
    kinds = set()
    for n in range(6):
        for w in words_of_length(3, n):
            got = apply(e, w)
            assert got == reference_apply(e, w), w
            kinds.add(type(got) if isinstance(got, tuple) else got)
    assert kinds == {tuple, NoValue.NEED_LONGER, NoValue.UNDEFINED}


@pytest.mark.parametrize("w", [(0, 3), (3,), (-1,), (1, 0, 2, 5)])
def test_apply_refuses_a_letter_past_k_as_the_scan_does(w):
    e = el(3, ("a", "c"), ("ba", "^"))
    with pytest.raises(OutOfRange) as got:
        apply(e, w)
    with pytest.raises(OutOfRange) as want:
        reference_apply(e, w)
    assert str(got.value) == str(want.value)


def _built_four_ways(e):
    """e from make (rows reversed), parse_table, the checking constructor
    and the unchecked one, each fresh, with no lookup made yet."""
    return [Mk1Element.make(e.k, e.rows[::-1]), parse_table(format_table(e)),
            Mk1Element(e.k, e.rows), Mk1Element._trusted(e.k, e.rows)]


@pytest.mark.parametrize("e", [zero_element(2), identity_element(3), deep_rotation(5), _MIXED])
def test_apply_answers_alike_however_the_element_was_built(e):
    ws = [w for n in range(7) for w in words_of_length(e.k, n)]
    want = [reference_apply(e, w) for w in ws]
    for built in _built_four_ways(e):
        assert [apply(built, w) for w in ws] == want           # fills the view
        assert built._view is not None
        assert [apply(built, w) for w in ws] == want           # reads it


@pytest.mark.parametrize("e", [zero_element(2), identity_element(3), deep_rotation(5), _MIXED])
def test_every_build_starts_with_an_empty_view(e):
    """The view slot holds None from the start however e was built, so the
    first lookup reads it without raising and catching an error."""
    for built in [*_built_four_ways(e), compose(e, e), Mk1Element._trusted_make(e.k, e.rows)]:
        assert built._view is None


def test_the_view_changes_no_equality_hash_or_repr():
    e = _MIXED
    fresh = _built_four_ways(e)
    looked_up = _built_four_ways(e)
    for f in looked_up:
        apply(f, (1, 2))
        compose(f, e)
    for f, g in zip(fresh, looked_up):
        assert f == g == e and hash(f) == hash(g) == hash(e)
        assert repr(f) == repr(g) == repr(e) == f"Mk1Element(k=3, rows={e.rows!r})"
    assert len({*fresh, *looked_up, e}) == 1


def test_apply_on_the_tau_12_gate_looks_words_up():
    """2,000 random words through the 8,192-row table of tau(12): one sort
    on the first lookup, then two bisects per word, where scanning the rows
    took about 2 s."""
    rng = random.Random(41)
    e = gate_element(2, "tau(12)")
    ws = [tuple(rng.randrange(2) for _ in range(rng.randint(0, 16))) for _ in range(2000)]
    started = time.perf_counter()
    got = [apply(e, w) for w in ws]
    assert time.perf_counter() - started < 0.5
    assert got[:200] == [reference_apply(e, w) for w in ws[:200]]
