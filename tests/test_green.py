"""Heights, Green preorders, D-index, chains, prescribed heights, contexts."""

import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from helpers import deep_rotation, random_element, reference_element_with_heights
from mk1 import green
from mk1.elements import (
    Mk1Element,
    apply,
    compose,
    format_table,
    identity_element,
    is_injective,
    partial_identity,
    zero_element,
)
from mk1.errors import CrossCheckFailed, IndexMismatch, Mk1Error, NotDistinct, OutOfRange
from mk1.green import (
    ExponentSum,
    dense_chain,
    d_index_M,
    element_with_heights,
    eq_D_M,
    eq_L,
    eq_R,
    format_height_report,
    heights,
    iter_dense_chain,
    leq_L,
    leq_R,
    section_inverse,
    separating_context,
)
from mk1.kary import kq, kq_one, kq_zero, parse_krational
from mk1.words import PrefixCode, parse_word


def el(k, *rows):
    return Mk1Element.make(k, [(parse_word(x, k), parse_word(y, k)) for x, y in rows])


PHI1 = el(2, ("aa", "a"), ("ab", "aa"), ("b", "aaa"))


def test_heights_worked():
    rep = heights(PHI1)
    assert rep.r == kq(2, 1, 1)
    assert rep.l == kq(2, 3, 2)
    assert rep.l_max == kq(2, 1, 2)
    assert rep.l_ave == ExponentSum(2, ((Fraction(8, 3), 1), (Fraction(3), 1),
                                        (Fraction(7, 2), 1)))
    assert rep.l_med == ExponentSum(2, ((Fraction(3), 2), (Fraction(7, 2), 1)))
    assert str(rep.l_ave) == "2^(-8/3) + 2^(-3) + 2^(-7/2)"
    assert str(rep.l_med) == "2*2^(-3) + 2^(-7/2)"
    assert format_height_report(rep).splitlines()[0] == "R 0.1"


def test_heights_partial_identity():
    e = partial_identity(PrefixCode.make(2, [(0, 0), (1,)]))
    rep = heights(e)
    assert rep.r == rep.l == rep.l_max == rep.l_ave == rep.l_med == kq(2, 3, 2)
    z = heights(zero_element(2))
    assert z.r == z.l == z.l_max == z.l_ave == z.l_med == kq_zero(2)


def test_height_sandwich_random(seed=31):
    # min/median/average/max representatives order the L-heights
    rng = random.Random(seed)
    for _ in range(200):
        rep = heights(random_element(rng, rng.choice([2, 3])))
        for smaller, larger in [(rep.l_max, rep.l_med), (rep.l_max, rep.l_ave),
                                (rep.l_med, rep.l), (rep.l_ave, rep.l)]:
            if isinstance(smaller, ExponentSum) or isinstance(larger, ExponentSum):
                continue
            assert smaller <= larger


def test_d_index():
    assert d_index_M(zero_element(3)) is None
    assert d_index_M(identity_element(2)) == 1
    assert d_index_M(PHI1) == 1
    assert d_index_M(partial_identity(PrefixCode.make(3, [(0,)]))) == 1
    assert d_index_M(partial_identity(PrefixCode.make(3, [(0,), (1,)]))) == 2
    assert d_index_M(identity_element(3)) == 1
    assert eq_D_M(partial_identity(PrefixCode.make(3, [(0,)])),
                  identity_element(3))
    assert not eq_D_M(partial_identity(PrefixCode.make(3, [(0,), (1,)])),
                      identity_element(3))
    assert eq_D_M(zero_element(2), zero_element(2))
    assert not eq_D_M(zero_element(2), identity_element(2))


def test_leq_R_basics():
    ida = partial_identity(PrefixCode.make(2, [(0,)]))
    idaa = partial_identity(PrefixCode.make(2, [(0, 0)]))
    assert leq_R(zero_element(2), idaa)
    assert leq_R(idaa, ida) and not leq_R(ida, idaa)
    assert eq_R(PHI1, partial_identity(PrefixCode.make(2, [(0,)])))  # image ideal a·A*
    assert eq_R(identity_element(2),
                partial_identity(PrefixCode.make(2, [(0,), (1, 0), (1, 1)])))


def test_leq_L_basics():
    collapse = el(2, ("a", "a"), ("b", "a"))
    ident = identity_element(2)
    assert leq_L(collapse, ident)
    assert not leq_L(ident, collapse)
    assert leq_L(zero_element(2), collapse)
    assert not leq_L(ident, zero_element(2))
    # restriction lowers the domain side of the L-order
    ida = partial_identity(PrefixCode.make(2, [(0,)]))
    assert leq_L(ida, ident) and not leq_L(ident, ida)
    assert eq_L(PHI1, PHI1)


def _status(e, w):
    v = apply(e, w)
    return v if isinstance(v, tuple) else None


def _leq_L_by_ends(f, g):
    """Independent check on sampled ends: f may only merge/forget, never
    exceed, what g determines."""
    from itertools import product
    k = f.k
    if f.is_zero:
        return True
    depth = max(len(x) for x, _ in f.rows) if f.rows else 0
    depth = max(depth, max((len(x) for x, _ in g.rows), default=0))
    from mk1.elements import part as part_
    # domain containment at full depth
    for w in product(range(k), repeat=depth):
        if _status(f, w) is not None and g.is_zero:
            return False
        if _status(f, w) is not None and _status(g, w) is None:
            return False
    if g.is_zero:
        return True
    # collapse containment: g-equal ends must be f-equal or jointly undefined
    tail = max((len(x) for x, _ in f.rows), default=0)
    for cls in part_(g).classes:
        for i, x1 in enumerate(cls):
            for x2 in cls[i + 1:]:
                for u in product(range(k), repeat=tail):
                    if _status(f, x1 + u) != _status(f, x2 + u):
                        return False
    return True


def test_leq_L_agrees_with_oracles(seed=2718):
    rng = random.Random(seed)
    agree_true = 0
    for _ in range(400):
        k = rng.choice([2, 3])
        f, g = random_element(rng, k, 2), random_element(rng, k, 2)
        if rng.random() < 0.4:
            f = compose(random_element(rng, k, 2), g)   # guaranteed f <=_L g
        got = leq_L(f, g)
        sec = section_inverse(g)
        assert got == (compose(compose(f, sec), g) == f.reduced())
        assert got == _leq_L_by_ends(f, g)
        agree_true += got
    assert agree_true > 100     # the sample genuinely exercises both answers


def test_leq_R_agrees_with_section_identity(seed=424):
    rng = random.Random(seed)
    hits = 0
    for _ in range(400):
        k = rng.choice([2, 3])
        f, g = random_element(rng, k, 2), random_element(rng, k, 2)
        if rng.random() < 0.4:
            f = compose(g, random_element(rng, k, 2))   # guaranteed f <=_R g
        got = leq_R(f, g)
        sec = section_inverse(g)
        assert got == (compose(g, compose(sec, f)) == f.reduced())
        if got:
            assert heights(f).r <= heights(g).r
            hits += 1
    assert hits > 100


def test_section_laws(seed=88):
    rng = random.Random(seed)
    for _ in range(200):
        g = random_element(rng, rng.choice([2, 3]))
        sec = section_inverse(g)
        assert compose(compose(g, sec), g) == g.reduced()
        assert compose(compose(sec, g), sec) == sec


def test_R_order_on_a_1500_level_table():
    """Deep image codes do not reach Python's recursion limit."""
    h, ident = deep_rotation(1500), identity_element(2)
    assert leq_R(ident, h) and leq_R(h, ident)
    assert eq_R(ident, h) and eq_R(h, ident)


def test_R_order_between_1500_level_tables_is_fast():
    """Containment by measure: two bisects per word and one slice per run."""
    f, g = deep_rotation(1500), deep_rotation(1500)
    started = time.perf_counter()
    assert leq_R(f, g) and leq_R(g, f)
    assert eq_R(f, g) and eq_R(g, f)
    assert time.perf_counter() - started < 1.0


def test_dense_chain():
    lo, hi = parse_krational(2, "0.01"), parse_krational(2, "0.11")
    chain = dense_chain(2, lo, hi, 20)
    assert len(chain) == 20
    hs = [heights(e).r for e in chain]
    assert all(a < b for a, b in zip(hs, hs[1:]))
    assert lo < hs[0] and hs[-1] < hi
    for a, b in zip(chain, chain[1:]):
        assert leq_R(a, b) and not leq_R(b, a)
        assert leq_L(a, b) and not leq_L(b, a)
    with pytest.raises(OutOfRange):
        dense_chain(2, hi, hi, 3)


def test_dense_chain_past_1_is_refused_before_the_first_element():
    """The largest measure, lo + (hi - lo)·count/k^t, is checked up front:
    the call raises before any element is asked for.  A largest measure of
    exactly 1 is the identity's code."""
    lo, hi = parse_krational(2, "0.1"), parse_krational(2, "10")
    with pytest.raises(OutOfRange, match="measures above 1 have no prefix code"):
        iter_dense_chain(2, lo, hi, 5)
    chain = dense_chain(2, kq_zero(2), hi, 4)
    assert [e.domain_code.mu for e in chain] == [kq(2, i, 2) for i in range(1, 5)]
    assert dense_chain(2, lo, hi, 0) == []


def test_element_with_heights():
    e = element_with_heights(2, parse_krational(2, "0.101"),
                             parse_krational(2, "0.0011"))
    rep = heights(e)
    assert rep.r == parse_krational(2, "0.101")
    assert rep.l == parse_krational(2, "0.0011")
    assert is_injective(e)
    assert element_with_heights(2, kq_zero(2), kq_zero(2)).is_zero
    with pytest.raises(IndexMismatch):
        element_with_heights(2, kq_zero(2), kq_one(2))
    with pytest.raises(IndexMismatch):
        element_with_heights(3, parse_krational(3, "0.1"), parse_krational(3, "0.2"))
    e5 = element_with_heights(5, parse_krational(5, "0.0031042"),
                              parse_krational(5, "0.2"))
    assert heights(e5).r == parse_krational(5, "0.0031042")
    assert heights(e5).l == parse_krational(5, "0.2")


def test_element_with_heights_random(seed=11):
    rng = random.Random(seed)
    for _ in range(60):
        k = rng.choice([2, 3, 5])
        a = kq(k, rng.randrange(1, k**5), 5)
        s = a.digit_sum_mod()
        while True:
            b = kq(k, rng.randrange(1, k**5), 5)
            if b.digit_sum_mod() == s:
                break
        e = element_with_heights(k, a, b)
        rep = heights(e)
        assert (rep.r, rep.l) == (a, b)


def height_pairs(k):
    """Strategy: (k, h_r, h_l) with heights in [0, 1] at depth at most 4 (3
    for k = 5): nonzero pairs with equal digit sums, pairs with a zero, and
    pairs drawn apart, which mostly mismatch."""
    depth = 4 if k < 5 else 3
    values = [kq(k, n, depth) for n in range(k ** depth + 1)]
    zero, nonzero = values[0], values[1:]
    return st.tuples(st.just(k), st.one_of(
        st.sampled_from(nonzero).flatmap(lambda a: st.tuples(st.just(a), st.sampled_from(
            [b for b in nonzero if b.digit_sum_mod() == a.digit_sum_mod()]))),
        st.sampled_from(values).flatmap(lambda h: st.sampled_from([(zero, h), (h, zero)])),
        st.tuples(st.sampled_from(values), st.sampled_from(values))))


def _outcome(build, k, h_r, h_l):
    """The printed table, or the error's class and message."""
    try:
        return format_table(build(k, h_r, h_l))
    except Mk1Error as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from((2, 3, 5)).flatmap(height_pairs))
def test_element_with_heights_matches_the_reference(args):
    k, (h_r, h_l) = args
    assert _outcome(element_with_heights, k, h_r, h_l) == \
        _outcome(reference_element_with_heights, k, h_r, h_l)


def test_d_index_M_cross_check_survives_python_O(monkeypatch):
    """An L-height whose digit sum misses the index from the image code
    raises, with or without asserts: here an offset walk giving the
    identity two fibers of length 1, so L = 2/3."""
    walk = [((a,), [0]) for a in (0, 1)]
    monkeypatch.setattr(green, "fiber_offsets", lambda e: iter(walk))
    with pytest.raises(CrossCheckFailed, match="L-height digit sum 2 differs from index 1"):
        d_index_M(identity_element(3))


def test_separating_context_cross_check_survives_python_O(monkeypatch):
    """Distinct tables whose union trie shows no difference raise."""
    monkeypatch.setattr(green, "trie_leaves", lambda k, tags: iter(()))
    with pytest.raises(CrossCheckFailed, match="agree at full depth"):
        separating_context(el(2, ("a", "a")), el(2, ("a", "b")))


def _check_separation(f, g):
    c1, c2 = separating_context(f, g)
    sf = compose(compose(c1, f), c2)
    sg = compose(compose(c1, g), c2)
    assert sf.is_zero != sg.is_zero
    survivor = sg if sf.is_zero else sf
    assert len(survivor.rows) == 1


def test_separating_context_cases():
    _check_separation(PHI1, zero_element(2))
    _check_separation(zero_element(2), PHI1)
    swap = el(2, ("a", "b"), ("b", "a"))
    _check_separation(PHI1, swap)                    # same domain, new values
    _check_separation(el(2, ("a", "a")), identity_element(2))   # domains differ
    _check_separation(el(2, ("a", "a")), el(2, ("a", "ab")))    # comparable values
    _check_separation(el(2, ("a", "ab")), el(2, ("a", "a")))
    with pytest.raises(NotDistinct):
        separating_context(PHI1, PHI1)
    z = zero_element(2)
    c1, c2 = separating_context(z, el(2, ("a", "b")))
    assert c1 == identity_element(2) and c2 == identity_element(2)


def test_separating_context_random(seed=99):
    rng = random.Random(seed)
    done = 0
    while done < 200:
        k = rng.choice([2, 3])
        f, g = random_element(rng, k, 2), random_element(rng, k, 2)
        if f.reduced() == g.reduced():
            continue
        _check_separation(f, g)
        done += 1


def test_element_with_heights_is_fast_on_1000_digits():
    """Each split replaces the last, longest word by its children at the
    end of the list, with no search and no check of the code."""
    h_r = parse_krational(2, "0." + "1" * 1000)
    started = time.perf_counter()
    e = element_with_heights(2, h_r, parse_krational(2, "0.1"))
    assert time.perf_counter() - started < 2.0
    assert len(e.rows) == 1000 and is_injective(e)
