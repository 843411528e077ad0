"""Prefix codes: measure, covering, complements, rewriting, measure chains."""

import random
import re
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import (
    covered,
    deep_code,
    prefix_free,
    random_code,
    random_nonempty_code,
    reference_complement_code,
    reference_ideal_ess_leq,
    words,
)
from mk1.congruence import PrefixCodeCongruence, split_class
from mk1.elements import r2_normal_form
from mk1.errors import (
    AlphabetMismatch,
    ChildrenMissing,
    NotInCode,
    NotPrefixCode,
    OutOfRange,
    ParseError,
    TooLarge,
)
from mk1.kary import kq, kq_one, kq_zero, parse_krational
from mk1.words import (
    PrefixCode,
    check_letter_count,
    check_letters,
    code_with_measure,
    format_word,
    ideal_ess_eq,
    ideal_ess_leq,
    is_prefix_code,
    mu,
    parse_code,
    parse_header,
    parse_word,
    replace_r1,
    replace_r2,
    trie_leaves,
    word_key,
    words_of_length,
)


def pc(k, *texts):
    return PrefixCode.make(k, [parse_word(t, k) for t in texts])


def test_word_text():
    assert format_word(()) == "^"
    assert format_word((0, 1, 2)) == "abc"
    assert parse_word("abc", 3) == (0, 1, 2)
    assert parse_word("^", 2) == ()
    with pytest.raises(ParseError):
        parse_word("", 2)
    assert parse_word(" abz ", 26) == (0, 1, 25)
    assert parse_word("a" * 1500, 30) == (0,) * 1500
    for text, k, bad in (("acab", 2, "c"), ("cab", 2, "c"), ("abcd", 3, "d"),
                         ("a b", 2, " "), ("aAb", 2, "A"), ("aé", 2, "é"), ("a^", 2, "^")):
        with pytest.raises(ParseError, match="^" + re.escape(
                f"letter {bad!r} invalid for a {k}-letter alphabet") + "$"):
            parse_word(text, k)


def test_code_text():
    """A "k <int>" header, then one word per line; repeats count once and
    '#' runs to the end of its line."""
    assert parse_code("# binary\nk 2\nba\na  # note\n\nbb\na\n") == pc(2, "a", "ba", "bb")
    assert parse_code("k 3 # ternary\n^\n") == pc(3, "^")
    assert parse_header("k 27") == 27
    for text, message in (("", "empty code file"), ("# k 2\n", "empty code file"),
                          ("k\na", "expected 'k <int>' header, got 'k'"),
                          ("k 2 2\na", "expected 'k <int>' header, got 'k 2 2'"),
                          ("a\nb", "expected 'k <int>' header, got 'a'"),
                          ("k 1\na", "alphabet needs at least two letters"),
                          ("k \u0663\na", "expected 'k <int>' header, got 'k \u0663'"),
                          ("k 2\nc", "letter 'c' invalid for a 2-letter alphabet")):
        with pytest.raises(ParseError, match="^" + re.escape(message) + "$"):
            parse_code(text)
    with pytest.raises(ParseError, match="^missing 'k <int>' header$"):
        parse_header("")
    with pytest.raises(NotPrefixCode):
        parse_code("k 2\na\nab\n")


def test_check_letters():
    check_letters(3, [(), (0, 2), (1,), (2, 2, 0)])
    for words, bad in (([(0, 3)], 3), ([(), (-1,)], -1), ([(2,), (0, 5, -2)], -2)):
        with pytest.raises(OutOfRange, match=f"^letter index {bad} out of range for k=3$"):
            check_letters(3, words)


def test_words_of_length_lists_a_level_of_at_most_2_20_words():
    level = words_of_length(2, 20)
    assert next(level) == (0,) * 20
    assert sum(1 for _ in level) == (1 << 20) - 1
    assert list(words_of_length(3, 2))[:4] == [(0, 0), (0, 1), (0, 2), (1, 0)]
    assert list(words_of_length(2, 0)) == [()]


@pytest.mark.parametrize("k, n", [(2, 21), (1025, 2), (2, 10**18)])
def test_words_of_length_refuses_a_larger_level_at_the_call(k, n):
    """Refused before a word is listed or a pool built: the call raises."""
    started = time.perf_counter()
    with pytest.raises(TooLarge, match=f"a level of {n} letters over {k} letters"):
        words_of_length(k, n)
    assert time.perf_counter() - started < 1.0


def test_prefix_basics():
    assert sorted([(1,), (0, 0), ()], key=word_key) == [(), (1,), (0, 0)]


def test_prefix_code_validation():
    assert is_prefix_code([(0,), (1, 0)])
    assert not is_prefix_code([(0,), (0, 1)])
    assert not is_prefix_code([(0,), (0,)])
    with pytest.raises(ValueError):
        PrefixCode.make(2, [(0,), (0, 1)])
    with pytest.raises(ValueError):
        PrefixCode.make(2, [(0,), (2,)])


def test_measure():
    # mu applies to any finite word set, not only prefix codes
    assert mu(2, [(0,), (0, 0), (0, 0, 0)]) == kq(2, 7, 3)
    assert pc(2, "aa", "b").mu == kq(2, 3, 2)
    assert pc(2).mu == kq_zero(2)
    assert pc(2, "^").mu == kq_one(2)
    assert mu(2, [(0, 0), (0, 0), (1,)]) == kq(2, 3, 2)   # duplicates ignored


def test_maximality():
    """A prefix code is maximal iff its measure is 1."""
    for code in (pc(2, "a", "b"), pc(2, "a", "ba", "bb"), pc(3, "a", "b", "c"), pc(2, "^")):
        assert code.mu == kq_one(code.k)
    for code in (pc(2, "aa", "b"), pc(2), pc(3, "a", "b")):
        assert code.mu != kq_one(code.k)


def test_covered():
    code = pc(2, "aa", "b")
    assert covered((0, 0, 1), code)       # below a code word
    assert covered((1,), code)
    assert not covered((0, 1), code)      # the hole
    assert not covered((), code)
    full = pc(2, "a", "ba", "bb")
    assert covered((), full)
    assert covered((1,), full)            # via the pair {ba, bb}


def test_covered_refuses_letters_outside_the_alphabet():
    """A word below a code word, but with a letter past k, is refused."""
    code = pc(2, "a", "b")
    for w in ((0, 9), (2,), (1, -1)):
        with pytest.raises(OutOfRange):
            covered(w, code)
    assert covered((0, 1), code)


def _ideal_codes(k):
    """Strategy: the empty code, {^}, prefix codes of mixed depths, and such
    codes completed to maximal ones by their complements."""
    mixed = st.lists(words(k, 5), min_size=1, max_size=10).map(prefix_free)
    full = mixed.map(
        lambda ws: ws + list(reference_complement_code(PrefixCode.make(k, ws)).words))
    return st.one_of(st.just([]), st.just([()]), mixed, full).map(
        lambda ws: PrefixCode.make(k, ws))


@st.composite
def _code_pairs(draw):
    """(p1, p2): p1 independent of p2, or p2's sibling families merged, or p2
    with one word split into its children (the ideal is the same)."""
    k = draw(st.sampled_from((2, 3)))
    p2 = draw(_ideal_codes(k))
    choices = [_ideal_codes(k), st.just(r2_normal_form(p2))]
    if p2.words:
        choices.append(st.sampled_from(p2.words).map(lambda w: replace_r1(p2, w)))
    return draw(st.one_of(choices)), p2


@settings(max_examples=600, deadline=None)
@given(_code_pairs())
@example((pc(2), pc(2)))
@example((pc(2, "^"), pc(2)))
@example((pc(2), pc(2, "^")))
@example((pc(2, "^"), pc(2, "a", "ba", "bb")))
@example((pc(3, "a", "b"), pc(3, "aa", "ab", "ac", "ba", "bb")))
@example((pc(2, "aa", "ba"), pc(2, "ab", "b")))
def test_ideal_ess_leq_matches_the_trie_reference(pair):
    p1, p2 = pair
    assert ideal_ess_leq(p1, p2) == reference_ideal_ess_leq(p1, p2)
    assert ideal_ess_leq(p2, p1) == reference_ideal_ess_leq(p2, p1)


def test_complement():
    """The reference complement, which completes codes in the strategies."""
    assert reference_complement_code(pc(2, "aa", "b")) == pc(2, "ab")
    assert reference_complement_code(pc(2)) == pc(2, "^")
    assert reference_complement_code(pc(2, "a", "b")) == pc(2)
    assert reference_complement_code(pc(3, "b")) == pc(3, "a", "c")


def test_trie_walks_past_the_recursion_limit():
    """Covering and essential equality hold no Python frame per trie level."""
    code = deep_code(1500)
    assert covered((), PrefixCode.make(2, code))
    assert ideal_ess_eq(PrefixCode.make(2, code), pc(2, "^"))


def test_complement_is_exact_cover(seed=4242):
    rng = random.Random(seed)
    for _ in range(200):
        k = rng.choice([2, 3])
        code = random_code(rng, k)
        comp = reference_complement_code(code)
        assert code.mu + comp.mu == kq_one(k)
        assert is_prefix_code(code.words + comp.words)


def test_ideal_essential_containment():
    assert ideal_ess_eq(pc(2, "a", "ba", "bb"), pc(2, "a", "b"))
    assert ideal_ess_leq(pc(2, "aa"), pc(2, "a"))
    assert not ideal_ess_leq(pc(2, "a"), pc(2, "aa"))
    assert ideal_ess_eq(pc(2), pc(2))
    assert not ideal_ess_leq(pc(2, "b"), pc(2, "aa", "ab"))


def test_codes_over_different_alphabets_are_refused():
    """{a, b} covers every end over two letters but not over three, so
    containment across alphabets has no answer."""
    two, three = pc(2, "a", "b"), pc(3, "a", "b", "c")
    for p1, p2 in ((two, three), (three, two)):
        for relation in (ideal_ess_leq, ideal_ess_eq):
            with pytest.raises(AlphabetMismatch, match="different alphabets"):
                relation(p1, p2)


def _all_codes(k, depth):
    """Every prefix code over k letters with words of length <= depth."""
    if depth == 0:
        return [((),), ()]
    shallower = _all_codes(k, depth - 1)
    out = [((),)]
    for parts in _product_codes(shallower, k):
        out.append(parts)
    return out


def _product_codes(codes, k):
    def rec(j):
        if j == k:
            yield ()
            return
        for rest in rec(j + 1):
            for c in codes:
                yield tuple((j,) + w for w in c) + rest
    yield from rec(0)


def test_ess_eq_matches_merge_normal_form():
    # Exhaustively over all 677 codes of depth <= 3 on two letters:
    # two ideals are essentially equal iff the codes merge to the same
    # minimal representative.
    codes = [PrefixCode.make(2, ws) for ws in _all_codes(2, 3)]
    assert len(codes) == 677
    forms = [r2_normal_form(c) for c in codes]
    rng = random.Random(7)
    idx = range(len(codes))
    pairs = {(i, j) for i in idx for j in rng.sample(idx, 12)}
    for i, j in pairs:
        assert ideal_ess_eq(codes[i], codes[j]) == (forms[i] == forms[j])


def test_replace_steps():
    code = pc(2, "aa", "b")
    stepped = replace_r1(code, (1,))
    assert stepped == pc(2, "aa", "ba", "bb")
    assert replace_r2(stepped, (1,)) == code
    with pytest.raises(NotInCode):
        replace_r1(code, (0,))
    with pytest.raises(ChildrenMissing):
        replace_r2(code, (1,))


def test_replace_preserves_measure(seed=99):
    rng = random.Random(seed)
    for _ in range(100):
        k = rng.choice([2, 3, 5])
        code = random_nonempty_code(rng, k)
        m = code.mu
        for _ in range(8):
            c = code.words[rng.randrange(len(code.words))]
            code = replace_r1(code, c)
            assert code.mu == m
        form = r2_normal_form(code)
        assert form.mu == m
        assert ideal_ess_eq(form, code)


BIG = (1 << 20) + 1  # an alphabet of more letters than a level may have words
ROOT = PrefixCode(BIG, ((),))


@pytest.mark.parametrize("build", [
    lambda: replace_r1(ROOT, ()),
    lambda: replace_r2(PrefixCode(BIG, ((0,),)), ()),
    lambda: split_class(PrefixCodeCongruence(ROOT, (((),),)), 0),
    lambda: list(trie_leaves(BIG, {(): (), (0,): ()})),
    lambda: code_with_measure(BIG + 1, kq(BIG + 1, BIG, 1)),
], ids=["replace_r1", "replace_r2", "split_class", "trie_leaves", "code_with_measure"])
def test_more_than_2_20_children_are_refused_unlisted(build):
    """A node's children are listed by ``words_of_length``, and a code of
    a given measure counts its words first: past 2^20, TooLarge at once."""
    started = time.perf_counter()
    with pytest.raises(TooLarge):
        build()
    assert time.perf_counter() - started < 1.0


def test_code_with_measure_counts_its_letters_first(monkeypatch):
    """The letters counted before any word is built, 1·d1 + ... + n·dn, are
    the code's letters.  Past 2^25 the code is refused at once: 8,192 ones
    over two letters would make words of 1 to 8,192 letters.  A run of zero
    digits builds no word, so 2^-131072 is one word, built in linear time."""
    counted = []

    def record(n, message):
        counted.append(n)
        return check_letter_count(n, message)

    monkeypatch.setattr("mk1.words.check_letter_count", record)
    rng = random.Random(3)
    for _ in range(200):
        k = rng.randint(2, 5)
        code = code_with_measure(k, kq(k, rng.randint(1, k ** 6 - 1), 6))
        assert counted.pop() == sum(map(len, code))
    started = time.perf_counter()
    with pytest.raises(TooLarge, match="more than 2\\^25 letters"):
        code_with_measure(2, parse_krational(2, "0." + "1" * 8192))
    assert code_with_measure(2, kq(2, 1, 1 << 17)) == PrefixCode(2, ((0,) * (1 << 17),))
    assert time.perf_counter() - started < 1.0


def test_code_with_measure_worked_example():
    h = parse_krational(5, "0.0031042")
    code = code_with_measure(5, h)
    assert code == pc(5, "aaa", "aab", "aac", "aada",
                      "aadbaa", "aadbab", "aadbac", "aadbad",
                      "aadbaea", "aadbaeb")
    assert len(code) == 10          # the digit sum of h
    assert code.mu == h


def test_code_with_measure_edges():
    assert code_with_measure(2, kq_zero(2)) == pc(2)
    assert code_with_measure(2, kq_one(2)) == pc(2, "^")
    assert code_with_measure(3, kq(3, 2, 1)) == pc(3, "a", "b")
    with pytest.raises(OutOfRange):
        code_with_measure(2, kq(2, 3, 1))
    with pytest.raises(OutOfRange):
        code_with_measure(2, kq(3, 1, 1))


def test_code_with_measure_chain(seed=2024):
    rng = random.Random(seed)
    for _ in range(200):
        k = rng.choice([2, 3, 7])
        a = kq(k, rng.randrange(0, k**6 + 1), 6)
        b = kq(k, rng.randrange(0, k**6 + 1), 6)
        pa, pb = code_with_measure(k, a), code_with_measure(k, b)
        assert pa.mu == a and pb.mu == b
        if a == b:
            assert pa == pb
        else:
            lo, hi = (pa, pb) if a < b else (pb, pa)
            assert ideal_ess_leq(lo, hi)
            assert not ideal_ess_leq(hi, lo)
