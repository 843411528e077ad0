import random

import pytest

from mk1.elements import (
    compose,
    identity_element,
    image_code,
    is_idempotent,
    partial_identity,
    restrict_to_length,
    zero_element,
)
from mk1.errors import (
    CrossCheckFailed,
    DivisibleIndex,
    IndexMismatch,
    NotFixedLength,
    NotPlep,
    OutOfRange,
    RepNotInCode,
    TooLarge,
    ZeroElement,
)
from mk1.green import eq_R, heights
from mk1.plep import (
    common_image_refinement,
    d_index_plep,
    eq_D_plep,
    eta_idempotent,
    is_plep,
    is_tlep,
    plep_d_witness,
    plep_element_with_index,
)
from mk1.words import PrefixCode, parse_word, words_of_length

from helpers import el, random_element, random_level_plep
from mk1 import plep


def pc(k, *texts):
    return PrefixCode.make(k, [parse_word(t, k) for t in texts])


SWAP = el(2, ("a", "b"), ("b", "a"))
SHIFT = el(2, ("a", "aa"), ("b", "ba"))   # length diff +1 everywhere
PHI1 = el(2, ("aa", "a"), ("ab", "aa"), ("b", "aaa"))


def test_is_plep():
    assert is_plep(zero_element(2))
    assert is_plep(identity_element(2))
    assert is_plep(SWAP)
    assert is_plep(SHIFT)
    assert is_plep(partial_identity(pc(2, "a", "ba")))
    assert not is_plep(PHI1)
    # representation independent: a split table of a plep element stays plep
    assert is_plep(restrict_to_length(SWAP, 3))


def test_is_tlep():
    assert is_tlep(identity_element(2))
    assert is_tlep(SWAP)
    assert is_tlep(SHIFT)
    assert not is_tlep(zero_element(2))           # zero is plep but not total
    assert not is_tlep(partial_identity(pc(2, "a", "ba")))
    assert not is_tlep(PHI1)


def test_d_index_plep():
    assert d_index_plep(SWAP) == 1
    assert d_index_plep(identity_element(3)) == 1
    assert d_index_plep(partial_identity(pc(2, "aa", "ab", "ba"))) == 3
    # k-free part only: a 6-word level code has the same index as a 3-word one
    six = [parse_word(t, 2) for t in ("aaa", "aab", "aba", "abb", "baa", "bab")]
    assert d_index_plep(partial_identity(PrefixCode.make(2, six))) == 3
    with pytest.raises(ZeroElement):
        d_index_plep(zero_element(2))
    with pytest.raises(NotPlep):
        d_index_plep(PHI1)


def test_eq_D_plep():
    assert eq_D_plep(zero_element(2), zero_element(2))
    assert not eq_D_plep(zero_element(2), SWAP)
    assert eq_D_plep(SWAP, identity_element(2))
    assert not eq_D_plep(SWAP, partial_identity(pc(2, "aa", "ab", "ba")))


def test_eta_idempotent():
    q = pc(2, "aa", "ab", "ba")
    e = eta_idempotent(q, parse_word("aa", 2))
    assert e == el(2, ("a", "a"), ("ba", "ba"), ("bb", "aa"))
    assert is_idempotent(e)
    assert is_tlep(e)
    assert d_index_plep(e) == 3
    # sending the stray word to a different representative
    e2 = eta_idempotent(q, parse_word("ba", 2))
    assert e2 == el(2, ("a", "a"), ("ba", "ba"), ("bb", "ba"))
    with pytest.raises(NotFixedLength):
        eta_idempotent(pc(2, "a", "ba"), parse_word("a", 2))
    with pytest.raises(NotFixedLength):
        eta_idempotent(PrefixCode.make(2, []), ())
    with pytest.raises(RepNotInCode):
        eta_idempotent(q, parse_word("bb", 2))


def test_eta_on_full_level_is_identity():
    full = pc(2, "aa", "ab", "ba", "bb")
    assert eta_idempotent(full, parse_word("bb", 2)) == identity_element(2)


def test_plep_element_with_index():
    e = plep_element_with_index(2, 1)
    assert e == el(2, ("a", "a"), ("b", "a"))
    assert d_index_plep(plep_element_with_index(2, 3)) == 3
    assert d_index_plep(plep_element_with_index(3, 5)) == 5
    for k in (2, 3, 5):
        for i in range(1, 30):
            if i % k == 0:
                with pytest.raises(DivisibleIndex):
                    plep_element_with_index(k, i)
                continue
            e = plep_element_with_index(k, i)
            assert is_tlep(e) and is_idempotent(e)
            assert d_index_plep(e) == i
    with pytest.raises(OutOfRange):
        plep_element_with_index(2, 0)


def test_plep_element_with_index_is_the_eta_idempotent_of_its_level():
    """The element built straight from its level is ``eta_idempotent`` of
    the level's first i words, sending the rest to the first word."""
    for k in (2, 3, 5):
        for i in range(1, 200):
            if i % k:
                n = next(n for n in range(1, 9) if k ** n > i)
                level = list(words_of_length(k, n))
                want = eta_idempotent(PrefixCode.make(k, level[:i]), level[0])
                assert plep_element_with_index(k, i) == want


def test_common_image_refinement():
    r1, r2 = common_image_refinement(SWAP, plep_element_with_index(2, 1))
    q1 = {y for _, y in r1.rows}
    q2 = {y for _, y in r2.rows}
    assert len(q1) == len(q2) == 2
    assert len({len(y) for y in q1}) == 1 and len({len(y) for y in q2}) == 1
    assert r1.reduced() == SWAP
    assert r2.reduced() == plep_element_with_index(2, 1)
    with pytest.raises(IndexMismatch):
        common_image_refinement(SWAP, plep_element_with_index(2, 3))
    with pytest.raises(NotPlep):
        common_image_refinement(PHI1, SWAP)
    with pytest.raises(ZeroElement):
        common_image_refinement(zero_element(2), SWAP)


def test_common_image_refinement_splits_each_side_once(monkeypatch):
    """Each side goes to its level in one split of its rows."""
    calls = []
    e2 = plep_element_with_index(2, 1)
    monkeypatch.setattr(plep, "restrict_to_length",
                        lambda *args: calls.append(args) or restrict_to_length(*args))
    r1, r2 = common_image_refinement(SWAP, e2)
    assert len(calls) == 2
    assert (r1.reduced(), r2.reduced()) == (SWAP, e2)


def _check_witness(e1, e2, expect_tlep):
    w = plep_d_witness(e1, e2)
    assert w.tlep is expect_tlep
    assert len(w.q1) == len(w.q2)
    r1, r2 = common_image_refinement(e1, e2)
    assert (w.q1, w.q2) == tuple(PrefixCode.make(e1.k, {y for _, y in r.rows}) for r in (r1, r2))
    for q in (w.q1, w.q2):  # built unchecked: they must pass the checks
        assert PrefixCode(q.k, q.words) == q
        assert len({len(word) for word in q.words}) == 1
    assert is_plep(w.b) and is_plep(w.b_prime)
    id1 = partial_identity(w.q1)
    id2 = partial_identity(w.q2)
    if expect_tlep:
        assert is_tlep(w.b) and is_tlep(w.b_prime)
        eta1 = eta_idempotent(w.q1, w.q1.words[0])
        eta2 = eta_idempotent(w.q2, w.q2.words[0])
        assert compose(w.b_prime, w.b) == eta1
        assert compose(w.b, w.b_prime) == eta2
        assert compose(compose(w.b, eta1), w.b_prime) == eta2
    else:
        assert compose(w.b_prime, w.b) == id1
        assert compose(w.b, w.b_prime) == id2
    # the idempotents sit in the right R-classes
    assert eq_R(e1, id1) and eq_R(e2, id2)
    return w


def test_witness_cross_check_survives_python_O(monkeypatch):
    """Refined tables whose image codes differ in size raise, with or
    without asserts."""
    monkeypatch.setattr(plep, "common_image_refinement", lambda e1, e2: (SWAP, identity_element(2)))
    with pytest.raises(CrossCheckFailed, match="extended image codes differ in size: 2 vs 1"):
        plep_d_witness(SWAP, SWAP)


def test_long_levels_are_refused_before_they_are_built():
    """Refinements, witness fillers and eta levels over 2^20 rows raise
    TooLarge first; long words in few rows still get their witness."""
    split = el(2, ("a", "a"), ("b" * 40, "b" * 40))   # a -> a would split 2^39 ways
    with pytest.raises(TooLarge):
        common_image_refinement(split, split)
    total = el(2, ("^", "a" * 40))                    # the filler would span 2^40 words
    assert len(common_image_refinement(total, total)[0].rows) == 1
    with pytest.raises(TooLarge):
        plep_d_witness(total, total)
    with pytest.raises(TooLarge):
        eta_idempotent(pc(2, "a" * 21), parse_word("a" * 21, 2))
    for i in (2 ** 20 + 1, 10 ** 30 + 1):
        with pytest.raises(TooLarge):
            plep_element_with_index(2, i)
    long_row = el(2, ("a" * 30, "b" * 30))
    w = plep_d_witness(long_row, long_row)
    assert not w.tlep and len(w.b.rows) == 1


def test_plep_witness_partial_case():
    e1 = partial_identity(pc(2, "aa", "ab", "ba"))
    # a cyclic shift on six level-3 words: injective, and no row family
    # merges, so the image code genuinely has six words (k-free part 3)
    six = ["aaa", "aab", "aba", "abb", "baa", "bab"]
    e2 = el(2, *zip(six, six[1:] + six[:1]))
    assert len(e2.rows) == 6 and d_index_plep(e2) == 3
    w = _check_witness(e1, e2, False)
    # e1's three images get one extra level to match e2's six
    assert len(w.q1) == 6 and len(w.q2) == 6
    assert {len(x) for x in w.q1.words} == {3}


def test_partial_identity_on_splittable_code_reduces_first():
    # the witness machinery always sees the merged normal form
    six = [parse_word(t, 2) for t in ("aaa", "aab", "aba", "abb", "baa", "bab")]
    e = partial_identity(PrefixCode.make(2, six))
    assert e == partial_identity(pc(2, "a", "ba"))
    w = plep_d_witness(e, partial_identity(pc(2, "aa", "ab", "ba")))
    assert len(w.q1) == len(w.q2) == 3


def test_plep_witness_tlep_case():
    e1 = plep_element_with_index(2, 3)
    e2 = eta_idempotent(pc(2, "aa", "ab", "bb"), parse_word("bb", 2))
    _check_witness(e1, e2, True)
    # a tlep paired with a non-total plep falls back to the partial witness
    e3 = partial_identity(pc(2, "aa", "ab", "ba"))
    _check_witness(e1, e3, False)


def test_plep_witness_index_mismatch():
    with pytest.raises(IndexMismatch):
        plep_d_witness(SWAP, plep_element_with_index(2, 3))
    with pytest.raises(ZeroElement):
        plep_d_witness(zero_element(2), SWAP)


def test_random_plep_indices_and_witnesses():
    rng = random.Random(20260819)
    built = 0
    for _ in range(120):
        k = rng.choice((2, 3))
        e1 = random_level_plep(rng, k, rng.random() < 0.5)
        e2 = random_level_plep(rng, k, rng.random() < 0.5)
        assert is_plep(e1) and is_plep(e2)
        if e1.is_zero or e2.is_zero:
            continue
        assert d_index_plep(e1) == image_code(e1).mu.num
        assert heights(e1).r.num == d_index_plep(e1)
        if d_index_plep(e1) != d_index_plep(e2):
            with pytest.raises(IndexMismatch):
                plep_d_witness(e1, e2)
            continue
        _check_witness(e1, e2, is_tlep(e1) and is_tlep(e2))
        r1, r2 = common_image_refinement(e1, e2)
        assert len({y for _, y in r1.rows}) == len({y for _, y in r2.rows})
        built += 1
    assert built > 15


def test_compositions_of_pleps_are_plep():
    rng = random.Random(7)
    for _ in range(60):
        k = rng.choice((2, 3))
        e = compose(random_level_plep(rng, k, False), random_level_plep(rng, k, False))
        assert is_plep(e)


def test_random_elements_rarely_plep_but_detected():
    rng = random.Random(99)
    seen_plep = seen_not = 0
    for _ in range(150):
        e = random_element(rng, 2)
        if is_plep(e):
            seen_plep += 1
            diffs = {len(y) - len(x) for x, y in e.reduced().rows}
            assert len(diffs) <= 1
        else:
            seen_not += 1
    assert seen_plep and seen_not
