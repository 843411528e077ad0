"""End-to-end acceptance gate: thirteen checks, exact arithmetic throughout.

Each test prints one ``criterion NN: PASS`` line (visible under ``pytest -s``)
and the time-sensitive ones assert a wall-clock budget.  Everything is seeded,
and every comparison is exact equality -- there is no tolerance anywhere.
"""

import random
import time
from itertools import product

import pytest

from helpers import (
    el,
    language,
    random_congruence,
    random_element,
    random_idempotent,
    random_level_plep,
    random_nonempty_code,
    random_word,
)
from mk1.circuits import (
    eval_generator_word,
    generator_length,
    length_bound_check,
    synthesize_partial_identity,
)
from mk1.congruence import (
    PrefixCodeCongruence,
    collision_measure,
    noncollision_measure,
    split_class,
)
from mk1.dfa import dfa_measure, height_report_via_dfa, trie_dfa
from mk1.elements import (
    Mk1Element,
    NoValue,
    apply,
    compose,
    identity_element,
    image_code,
    image_code_restriction,
    is_idempotent,
    is_injective,
    part,
    partial_identity,
    r2_normal_form,
    zero_element,
)
from mk1.errors import IndexMismatch, NotDistinct
from mk1.green import (
    d_index_M,
    dense_chain,
    element_with_heights,
    eq_L,
    eq_R,
    format_height_report,
    heights,
    leq_L,
    leq_R,
    separating_context,
)
from mk1.kary import kq, kq_one, kq_zero, parse_krational
from mk1.plep import (
    d_index_plep,
    eta_idempotent,
    is_plep,
    is_tlep,
    plep_d_witness,
    plep_element_with_index,
)
from mk1.reductions import (
    complete_to_length,
    count_forall_sat,
    covers_every_y,
    encode_formula,
    ensure_surjective,
    formula_from_truth_table,
    pad_decode,
    pad_encode,
    predicted_noncollision,
    recover_count,
)
from mk1.words import (
    PrefixCode,
    code_with_measure,
    ideal_ess_eq,
    ideal_ess_leq,
    mu,
    parse_word,
    replace_r1,
    replace_r2,
    word_key,
)


def _pass(n: int, started: float, limit: float | None = None) -> None:
    elapsed = time.perf_counter() - started
    if limit is not None:
        assert elapsed < limit, f"criterion {n:02d} took {elapsed:.1f}s (limit {limit:.0f}s)"
    print(f"criterion {n:02d}: PASS")


def raw(k, *rows):
    pairs = sorted(((parse_word(x, k), parse_word(y, k)) for x, y in rows),
                   key=lambda r: word_key(r[0]))
    return Mk1Element(k, tuple(pairs))


def level(k, m):
    return [tuple(w) for w in product(range(k), repeat=m)]


PHI1 = el(2, ("aa", "a"), ("ab", "aa"), ("b", "aaa"))


# -- 01: the worked table, split step by step ------------------------------------

def test_criterion_01():
    started = time.perf_counter()
    phi2 = raw(2, ("ab", "aa"), ("b", "aaa"), ("aaa", "aa"), ("aab", "ab"))
    phi3 = raw(2, ("ab", "aa"), ("b", "aaa"), ("aab", "ab"),
               ("aaaa", "aaa"), ("aaab", "aab"))
    phi4 = raw(2, ("b", "aaa"), ("aab", "ab"), ("aba", "aaa"), ("abb", "aab"),
               ("aaaa", "aaa"), ("aaab", "aab"))
    for t in (PHI1, phi2, phi3, phi4):
        assert image_code_restriction(t).rows == phi4.rows
    masses = [mu(2, {y for _, y in t.rows}) for t in (PHI1, phi2, phi3, phi4)]
    assert masses == [kq(2, 7, 3), kq(2, 5, 3), kq(2, 3, 2), kq(2, 1, 1)]
    assert phi4.reduced() == PHI1
    assert image_code(PHI1) == PrefixCode.make(2, [(0, 1), (0, 0, 0), (0, 0, 1)])
    assert format_height_report(heights(PHI1)) == (
        "R 0.1\n"
        "L 0.11\n"
        "Lmax 0.01\n"
        "Lave 2^(-8/3) + 2^(-3) + 2^(-7/2)\n"
        "Lmed 2*2^(-3) + 2^(-7/2)"
    )
    _pass(1, started, limit=1.0)


# -- 02: prefix codes of prescribed measure --------------------------------------

def test_criterion_02():
    started = time.perf_counter()
    h = parse_krational(5, "0.0031042")
    code = code_with_measure(5, h)
    expected = ["aaa", "aab", "aac", "aada",
                "aadbaa", "aadbab", "aadbac", "aadbad",
                "aadbaea", "aadbaeb"]
    assert code == PrefixCode.make(5, [parse_word(w, 5) for w in expected])
    assert len(code) == 10
    assert code.mu == h

    rng = random.Random(20260202)
    for _ in range(500):
        k = rng.choice((2, 3, 7))
        a = kq(k, rng.randrange(0, k**6 + 1), 6)
        pa = code_with_measure(k, a)
        assert pa.mu == a
        int_part, frac = a.digits()
        assert len(pa) == int_part + sum(frac)

    # strictly larger measures give strictly larger generated ideals
    for _ in range(200):
        k = rng.choice((2, 3, 7))
        a = kq(k, rng.randrange(0, k**6 + 1), 6)
        b = kq(k, rng.randrange(0, k**6 + 1), 6)
        pa, pb = code_with_measure(k, a), code_with_measure(k, b)
        if a == b:
            assert pa == pb
            continue
        lo, hi = (pa, pb) if a < b else (pb, pa)
        assert ideal_ess_leq(lo, hi)
        assert not ideal_ess_leq(hi, lo)
    _pass(2, started, limit=5.0)


# -- 03: replacement moves never change the measure -------------------------------

def test_criterion_03():
    started = time.perf_counter()
    rng = random.Random(333)
    for _ in range(1000):
        k = rng.choice((2, 3, 5))
        code = random_nonempty_code(rng, k, max_depth=3)
        start_code, m = code, code.mu
        for _ in range(6):
            stems = {w[:-1] for w in code.words if w}
            mergeable = sorted(
                (s for s in stems
                 if all(s + (a,) in code.words for a in range(k))),
                key=word_key)
            if mergeable and rng.random() < 0.5:
                code = replace_r2(code, mergeable[rng.randrange(len(mergeable))])
            else:
                code = replace_r1(code, code.words[rng.randrange(len(code.words))])
            assert code.mu == m
        form = r2_normal_form(code)
        assert form.mu == m
        assert ideal_ess_eq(form, code)
        assert r2_normal_form(start_code) == form  # same element, same normal form
        assert r2_normal_form(form) == form
    _pass(3, started)


# -- 04: composition laws and pointwise agreement ---------------------------------

def test_criterion_04():
    started = time.perf_counter()
    rng = random.Random(444)
    for _ in range(200):
        k = rng.choice((2, 3))
        f = random_element(rng, k)
        one, nil = identity_element(k), zero_element(k)
        assert compose(one, f) == f == compose(f, one)
        assert compose(nil, f).is_zero and compose(f, nil).is_zero

    for _ in range(1000):
        k = rng.choice((2, 3))
        f, g, h = (random_element(rng, k, max_depth=2) for _ in range(3))
        assert compose(compose(f, g), h) == compose(f, compose(g, h))

    for _ in range(200):
        k = rng.choice((2, 3))
        f, g = random_element(rng, k), random_element(rng, k)
        fg = compose(f, g)
        depth = max((len(x) for x, _ in g.rows), default=0) + \
            max((len(x) for x, _ in f.rows), default=0) + 2
        for _ in range(4):
            w = random_word(rng, k, depth)
            via_g = apply(g, w)
            expected = apply(f, via_g) if isinstance(via_g, tuple) else NoValue.UNDEFINED
            assert apply(fg, w) == expected
    _pass(4, started)


# -- 05: the one-sided orders, their heights, and a dense chain -------------------

def test_criterion_05():
    started = time.perf_counter()
    rng = random.Random(555)
    for k in (2, 3):
        pool = [random_element(rng, k) for _ in range(40)]
        pool += [zero_element(k), identity_element(k)]
        reports = [heights(e) for e in pool]
        for e in pool:
            assert leq_R(e, e) and leq_L(e, e)
            assert leq_R(zero_element(k), e) and leq_L(zero_element(k), e)
        for _ in range(400):
            i, j = rng.randrange(len(pool)), rng.randrange(len(pool))
            f, g = pool[i], pool[j]
            r_fg, r_gf = leq_R(f, g), leq_R(g, f)
            l_fg, l_gf = leq_L(f, g), leq_L(g, f)
            assert (r_fg and r_gf) == eq_R(f, g)
            assert (l_fg and l_gf) == eq_L(f, g)
            if r_fg:
                assert reports[i].r <= reports[j].r
            if l_fg:
                assert reports[i].l <= reports[j].l
        for _ in range(300):
            f, g, h = (pool[rng.randrange(len(pool))] for _ in range(3))
            if leq_R(f, g) and leq_R(g, h):
                assert leq_R(f, h)
            if leq_L(f, g) and leq_L(g, h):
                assert leq_L(f, h)

    lo, hi = parse_krational(2, "0.01"), parse_krational(2, "0.11")
    chain = dense_chain(2, lo, hi, 20)
    assert len(chain) == 20
    rs = [heights(e).r for e in chain]
    assert all(a < b for a, b in zip(rs, rs[1:]))
    assert lo < rs[0] and rs[-1] < hi
    for a, b in zip(chain, chain[1:]):
        assert leq_R(a, b) and not leq_R(b, a)
        assert leq_L(a, b) and not leq_L(b, a)
    _pass(5, started)


# -- 06: collision bookkeeping on congruences -------------------------------------

def test_criterion_06():
    started = time.perf_counter()
    rng = random.Random(666)
    for _ in range(1000):
        k = rng.choice((2, 3, 5))
        c = random_congruence(rng, k)
        noncoll = noncollision_measure(c)
        assert collision_measure(c) + noncoll == kq_one(k)

        refined = split_class(c, rng.randrange(len(c.classes)))
        assert noncollision_measure(refined) == noncoll
        assert len(refined.classes) == len(c.classes) + k - 1

        if len(c.classes) >= 2:
            i, j = rng.sample(range(len(c.classes)), 2)
            groups = [cls for t, cls in enumerate(c.classes) if t not in (i, j)]
            groups.append(c.classes[i] + c.classes[j])
            merged = PrefixCodeCongruence.make(c.code, groups)
            assert collision_measure(merged) > collision_measure(c)

    for _ in range(500):
        k = rng.choice((2, 3))
        rep = heights(random_idempotent(rng, k))
        assert rep.l_max <= rep.r <= rep.l
    _pass(6, started)


# -- 07: one index, measured three ways; elements with prescribed heights ----------

def test_criterion_07():
    started = time.perf_counter()
    rng = random.Random(777)
    nonzero = 0
    for _ in range(1000):
        k = rng.choice((2, 3, 5))
        e = random_element(rng, k)
        d = d_index_M(e)
        if e.is_zero:
            assert d is None
            continue
        nonzero += 1
        imc = image_code(e)
        assert d == (len(imc) - 1) % (k - 1) + 1
        assert d == imc.mu.digit_sum_mod()
        assert d == noncollision_measure(part(e)).digit_sum_mod()
        if is_plep(e):
            assert d_index_plep(e) % (k - 1) == d % (k - 1)
    assert nonzero >= 800

    for _ in range(50):
        k = rng.choice((2, 3, 5))
        a = kq(k, rng.randrange(1, k**5), 5)
        while True:
            b = kq(k, rng.randrange(1, k**5), 5)
            if b.digit_sum_mod() == a.digit_sum_mod():
                break
        e = element_with_heights(k, a, b)
        rep = heights(e)
        assert (rep.r, rep.l) == (a, b)
        assert is_injective(e)
        assert d_index_M(e) == a.digit_sum_mod()
    _pass(7, started)


# -- 08: the submonoid index classifies up to mutual division ---------------------

def _check_witness(e1, e2, expect_tlep):
    w = plep_d_witness(e1, e2)
    assert w.tlep is expect_tlep
    assert len(w.q1) == len(w.q2)
    assert is_plep(w.b) and is_plep(w.b_prime)
    id1, id2 = partial_identity(w.q1), partial_identity(w.q2)
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
    assert eq_R(e1, id1) and eq_R(e2, id2)


def test_criterion_08():
    started = time.perf_counter()
    for k in (2, 3, 5):
        for i in range(1, 51):
            if i % k == 0:
                continue
            e = plep_element_with_index(k, i)
            assert is_tlep(e) and is_idempotent(e)
            assert d_index_plep(e) == i

    rng = random.Random(888)
    witnessed = mismatched = 0
    for _ in range(200):
        k = rng.choice((2, 3))
        e1 = random_level_plep(rng, k, rng.random() < 0.5)
        e2 = random_level_plep(rng, k, rng.random() < 0.5)
        d1, d2 = d_index_plep(e1), d_index_plep(e2)
        if d1 == d2:
            _check_witness(e1, e2, is_tlep(e1) and is_tlep(e2))
            witnessed += 1
        else:
            with pytest.raises(IndexMismatch):
                plep_d_witness(e1, e2)
            mismatched += 1
    assert witnessed >= 20 and mismatched >= 20
    _pass(8, started)


# -- 09: generator programs that carve one hole -----------------------------------

def _hole_identity(k, s):
    words = [w for w in level(k, len(s)) if w != tuple(s)]
    return partial_identity(PrefixCode.make(k, words))


def test_criterion_09():
    started = time.perf_counter()
    for m in (1, 2, 3, 4):
        for s in level(2, m):
            word = synthesize_partial_identity(2, s)
            assert eval_generator_word(2, word) == _hole_identity(2, s)
            assert length_bound_check(2, word)
    for s in level(3, 2):
        word = synthesize_partial_identity(3, s)
        assert eval_generator_word(3, word) == _hole_identity(3, s)
        assert length_bound_check(3, word)
    # the program grows polynomially, not exponentially, in the target length
    lengths = [generator_length(synthesize_partial_identity(2, (0,) * m))
               for m in (1, 2, 4, 8)]
    assert lengths == sorted(lengths) and lengths[-1] <= 8 * 8 * 8
    _pass(9, started, limit=30.0)


# -- 10: fibers as automata --------------------------------------------------------

def test_criterion_10():
    started = time.perf_counter()
    rng = random.Random(101010)
    fibers = 0
    for _ in range(1000):
        k = rng.choice((2, 3))
        e = random_element(rng, k)
        p = part(e)
        total = kq_zero(k)
        for cls in p.classes:
            d = trie_dfa(PrefixCode.make(k, cls))
            accepted = language(d)
            assert accepted == list(cls)
            m = dfa_measure(d)
            assert m == mu(k, cls)
            assert len(accepted[0]) == min(map(len, cls))
            total = total + m
            fibers += 1
        assert total == p.code.mu
        assert height_report_via_dfa(e) == heights(e)
    assert fibers >= 1000
    _pass(10, started)


# -- 11: counting quantified assignments through a measure -------------------------

def test_criterion_11():
    started = time.perf_counter()
    histogram = {0: 0, 1: 0, 2: 0, 3: 0, 4: 0}
    surjective = 0
    for table in range(65536):
        f = formula_from_truth_table(2, 2, table)
        n_count = count_forall_sat(f)
        histogram[n_count] += 1
        if covers_every_y(f):
            surjective += 1
        else:
            f = ensure_surjective(f)
        e = encode_formula(f)
        noncoll = noncollision_measure(part(e))
        assert noncoll == predicted_noncollision(f.m, 2, n_count)
        assert recover_count(f.m, 2, noncoll) == n_count
    # each of the four input columns is independently all-true with odds 1/16
    assert histogram == {0: 50625, 1: 13500, 2: 1350, 3: 60, 4: 1}
    assert surjective == 50625
    _pass(11, started, limit=60.0)


# -- 12: any two distinct elements can be told apart by a context ------------------

def test_criterion_12():
    started = time.perf_counter()
    rng = random.Random(121212)
    for _ in range(1000):
        k = rng.choice((2, 3))
        f = random_element(rng, k)
        g = random_element(rng, k)
        while g == f:
            g = random_element(rng, k)
        c1, c2 = separating_context(f, g)
        sf = compose(compose(c1, f), c2)
        sg = compose(compose(c1, g), c2)
        assert sf.is_zero != sg.is_zero
        survivor = sg if sf.is_zero else sf
        assert len(survivor.rows) == 1
    with pytest.raises(NotDistinct):
        separating_context(PHI1, PHI1)
    _pass(12, started)


# -- 13: fixed-length packaging ----------------------------------------------------

def test_criterion_13():
    started = time.perf_counter()
    rng = random.Random(131313)
    for _ in range(500):
        k = rng.choice((2, 3, 5))
        w = random_word(rng, k, rng.randrange(0, 6))
        p = len(w) + rng.randrange(0, 3)
        u = pad_encode(k, w, p)
        assert len(u) == 2 * p
        assert pad_decode(k, u) == w

        code = random_nonempty_code(rng, k, max_depth=3)
        longest = max(len(x) for x in code.words)
        padded = PrefixCode.make(k, [pad_encode(k, x, longest) for x in code.words])
        assert len(padded) == len(code)
        assert {len(x) for x in padded.words} == {2 * longest}

        p2 = longest + rng.randrange(0, 2)
        full = complete_to_length(code, p2)
        assert {len(x) for x in full.words} == {p2} or not full.words
        assert full.mu == code.mu
        assert len(full) == code.mu.scale_pow(p2).as_integer()
    _pass(13, started)
