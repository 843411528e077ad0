"""Tables: reduction, composition, application, restrictions, text form."""

import random
import time

import pytest

from helpers import (
    is_partial_identity,
    nested_images,
    random_element,
    random_word,
    uniform_image_form,
)
from mk1.errors import (
    AlphabetMismatch,
    DomainNotPrefixCode,
    OutOfRange,
    ParseError,
    TooLarge,
)
from mk1 import elements
from mk1.kary import kq
from mk1.elements import (
    Mk1Element,
    NoValue,
    apply,
    compose,
    format_table,
    identity_element,
    image_code,
    image_code_restriction,
    is_idempotent,
    is_injective,
    parse_table,
    part,
    partial_identity,
    restrict_to_length,
    zero_element,
)
from mk1.reductions import complete_to_length
from mk1.words import (
    PrefixCode,
    check_cap,
    check_count,
    check_letter_count,
    mu,
    parse_word,
    word_key,
    words_of_length,
)


def el(k, *rows):
    return Mk1Element.make(k, [(parse_word(x, k), parse_word(y, k)) for x, y in rows])


def raw(k, *rows):
    pairs = sorted(((parse_word(x, k), parse_word(y, k)) for x, y in rows),
                   key=lambda r: (len(r[0]), r[0]))
    return Mk1Element(k, tuple(pairs))


PHI1 = el(2, ("aa", "a"), ("ab", "aa"), ("b", "aaa"))


def test_validation():
    with pytest.raises(DomainNotPrefixCode):
        Mk1Element(2, (((0,), (0,)), ((0, 1), (1,))))
    with pytest.raises(ValueError):
        Mk1Element(2, (((0, 1), (1,)), ((0, 0), (1,))))  # unsorted rows


def test_reduction():
    assert el(2, ("aa", "ba"), ("ab", "bb"), ("b", "a")) == \
        el(2, ("a", "b"), ("b", "a"))
    assert el(2, ("a", "a"), ("b", "b")) == identity_element(2)
    # images that do not track the split letters stay put
    e = el(2, ("a", "b"), ("b", "aa"))
    assert len(e.rows) == 2
    assert el(3, ("a", "ba"), ("b", "bb"), ("c", "bc")) == el(3, ("^", "b"))


def test_reduction_cascades():
    # {aaa->aa, aab->ab} merges to aa->a, which then merges with ab->b to a->^
    e = el(2, ("aaa", "aa"), ("aab", "ab"), ("ab", "b"), ("b", "b"))
    assert e == el(2, ("a", "^"), ("b", "b"))
    deep = el(2, ("aa", "baa"), ("ab", "bab"), ("ba", "bba"), ("bb", "bbb"))
    assert deep == el(2, ("^", "b"))


def test_zero_and_identity():
    z, i = zero_element(2), identity_element(2)
    assert z.is_zero and not i.is_zero
    f = PHI1
    assert compose(f, i) == f and compose(i, f) == f
    assert compose(f, z) == z and compose(z, f) == z
    with pytest.raises(AlphabetMismatch):
        compose(identity_element(2), identity_element(3))


def test_apply():
    f = PHI1
    assert apply(f, (0, 0)) == (0,)                 # aa -> a
    assert apply(f, (0, 0, 1, 0)) == (0, 1, 0)      # aaba -> aba
    assert apply(f, (1,)) == (0, 0, 0)              # b -> aaa
    assert apply(f, (0,)) is NoValue.NEED_LONGER
    assert apply(zero_element(2), ()) is NoValue.UNDEFINED
    g = el(2, ("aa", "b"))
    assert apply(g, (0, 1)) is NoValue.UNDEFINED
    assert apply(g, ()) is NoValue.NEED_LONGER


def test_apply_refuses_letters_outside_the_alphabet():
    """A letter past k, after the row that would rewrite the word, is refused
    and not carried into the image."""
    swap = el(2, ("a", "b"), ("b", "a"))
    for w in ((0, 7), (2,), (-1,), (1, 0, 2)):
        with pytest.raises(OutOfRange):
            apply(swap, w)
    assert apply(swap, (0, 1)) == (1, 1)


def test_compose_worked():
    swap = el(2, ("a", "b"), ("b", "a"))
    assert compose(PHI1, swap) == el(2, ("a", "aaa"), ("ba", "a"), ("bb", "aa"))
    assert compose(swap, PHI1) == el(2, ("aa", "b"), ("ab", "ba"), ("b", "baa"))
    assert compose(swap, swap) == identity_element(2)


def test_compose_drops_to_zero():
    f = el(2, ("a", "a"))          # defined on a·A* only
    g = el(2, ("a", "b"))          # lands in b·A*
    assert compose(f, g).is_zero


def test_image_code_restriction_chain():
    # One split at a time: always the row with the shortest image, breaking
    # ties by dictionary-least domain word.
    phi2 = raw(2, ("ab", "aa"), ("b", "aaa"), ("aaa", "aa"), ("aab", "ab"))
    phi3 = raw(2, ("ab", "aa"), ("b", "aaa"), ("aab", "ab"),
               ("aaaa", "aaa"), ("aaab", "aab"))
    phi4 = raw(2, ("b", "aaa"), ("aab", "ab"), ("aba", "aaa"), ("abb", "aab"),
               ("aaaa", "aaa"), ("aaab", "aab"))
    assert image_code_restriction(PHI1).rows == phi4.rows
    assert image_code_restriction(phi2).rows == phi4.rows
    assert image_code_restriction(phi3).rows == phi4.rows
    assert image_code_restriction(phi4).rows == phi4.rows
    # raw image-set masses along the chain shrink as splits remove overlap
    masses = [mu(2, {y for _, y in t.rows})
              for t in (PHI1, phi2, phi3, phi4)]
    assert masses == [kq(2, 7, 3), kq(2, 5, 3), kq(2, 3, 2), kq(2, 1, 1)]
    # the restricted table still denotes the same element
    assert phi4.reduced() == PHI1
    assert image_code(PHI1) == PrefixCode.make(2, [(0, 1), (0, 0, 0), (0, 0, 1)])


def test_restrict_to_length():
    r = restrict_to_length(PHI1, 2)
    assert r.rows == raw(2, ("aa", "a"), ("ab", "aa"),
                         ("ba", "aaaa"), ("bb", "aaab")).rows
    assert r.reduced() == PHI1
    u = uniform_image_form(PHI1)
    assert {len(y) for _, y in u.rows} == {3}
    assert u.reduced() == PHI1


def test_restrict_to_length_lists_each_depth_once(monkeypatch):
    """16 rows at three depths list three levels, and give the rows of
    splitting each row by its own listing, in canonical order."""
    dom = ([(0,) + w for w in words_of_length(2, 2)] + [(1, 0) + w for w in words_of_length(2, 2)]
           + [(1, 1) + w for w in words_of_length(2, 3)])
    e = Mk1Element.make(2, [(x, x[::-1][:2]) for x in dom])
    assert len(e.rows) == 16
    listed = []

    def counted(k, n):
        listed.append(n)
        return words_of_length(k, n)

    monkeypatch.setattr(elements, "words_of_length", counted)
    r = restrict_to_length(e, 6)
    assert sorted(listed) == [1, 2, 3]
    assert r.rows == tuple(sorted(((x + s, y + s) for x, y in e.rows
                                   for s in words_of_length(2, 6 - len(x))),
                                  key=lambda row: word_key(row[0])))


def test_level_splits_past_the_cap_are_refused_unbuilt():
    """2^40 rows would never be listed; the count comes first."""
    started = time.perf_counter()
    with pytest.raises(TooLarge):
        restrict_to_length(identity_element(2), 40)
    with pytest.raises(TooLarge):
        uniform_image_form(el(2, ("a", "^"), ("b", "a" * 40)))
    with pytest.raises(TooLarge):
        complete_to_length(PrefixCode.make(3, [(0,), (1, 1)]), 10 ** 6)
    assert time.perf_counter() - started < 1.0
    for k, depths in ((2, [20]), (2, [19, 19]), (3, [12, 0]), (1024, [2]), (2, [])):
        check_cap(k, depths, "at or below the cap")
    for k, depths in ((2, [20, 0]), (2, [10 ** 9]), (1025, [2]), (3, [12, 12])):
        with pytest.raises(TooLarge, match="^over it$"):
            check_cap(k, depths, "over it")
    check_count(1 << 20, "at the cap")
    with pytest.raises(TooLarge, match="^over it$"):
        check_count((1 << 20) + 1, "over it")


def test_image_code_restriction_past_the_cap_is_refused_unbuilt():
    """2,048 nested images split into 2,098,176 rows of about 1.4 G letters;
    the rows are counted on the fiber walk first."""
    e = nested_images(11)
    started = time.perf_counter()
    for split in (part, image_code_restriction):
        with pytest.raises(TooLarge, match="image-code restriction"):
            split(e)
    assert time.perf_counter() - started < 5.0


def test_image_code_restriction_past_the_letter_cap_is_refused_unbuilt():
    """1,024 nested images split into 524,800 rows, under the row cap, but
    their domain words hold about 185 M letters.  The cap of 2^25 letters
    still lets 512 nested images (about 24 M letters) be split."""
    e = nested_images(10)
    started = time.perf_counter()
    for split in (part, image_code_restriction):
        with pytest.raises(TooLarge, match="image-code restriction.*2\\^25 domain letters"):
            split(e)
    assert time.perf_counter() - started < 1.0
    check_letter_count(1 << 25, "at the cap")
    with pytest.raises(TooLarge, match="^over it$"):
        check_letter_count((1 << 25) + 1, "over it")


def test_injectivity_and_inverse():
    """An injective element's flipped table is its inverse."""
    swap = el(2, ("a", "b"), ("b", "a"))
    assert is_injective(swap)
    assert compose(swap, swap) == identity_element(2)
    inj = el(2, ("aa", "b"), ("ab", "aa"))
    assert is_injective(inj)
    flipped = Mk1Element.make(2, [(y, x) for x, y in inj.rows])
    assert compose(flipped, inj) == partial_identity(inj.domain_code)
    assert not is_injective(PHI1)   # b, aba, aaaa all land on aaa
    collapse = el(2, ("a", "a"), ("b", "a"))
    assert not is_injective(collapse)


def test_idempotents():
    assert is_idempotent(identity_element(2))
    assert is_idempotent(zero_element(2))
    assert is_idempotent(partial_identity(PrefixCode.make(2, [(0, 0), (1,)])))
    assert is_idempotent(el(2, ("a", "a"), ("b", "a")))
    assert not is_idempotent(el(2, ("a", "b"), ("b", "a")))
    assert is_partial_identity(partial_identity(PrefixCode.make(2, [(0,)])))
    assert not is_partial_identity(el(2, ("a", "b"), ("b", "a")))


def test_associativity_random(seed=1234):
    rng = random.Random(seed)
    for _ in range(300):
        k = rng.choice([2, 3])
        f, g, h = (random_element(rng, k) for _ in range(3))
        assert compose(compose(f, g), h) == compose(f, compose(g, h))


def test_apply_consistency_random(seed=555):
    rng = random.Random(seed)
    for _ in range(300):
        k = rng.choice([2, 3])
        f, g = random_element(rng, k), random_element(rng, k)
        fg = compose(f, g)
        depth = max((len(x) for x, _ in g.rows), default=0) + \
            max((len(x) for x, _ in f.rows), default=0) + 2
        w = random_word(rng, k, depth)
        via_g = apply(g, w)
        expected = apply(f, via_g) if isinstance(via_g, tuple) else NoValue.UNDEFINED
        assert apply(fg, w) == expected


def test_text_roundtrip():
    for e in (PHI1, zero_element(2), identity_element(3),
              el(5, ("a", "eed"), ("b", "^"))):
        assert parse_table(format_table(e)).reduced() == e
    text = "# a comment\nk 2\n\nb -> aaa\naa -> a\nab -> aa\n"
    assert parse_table(text).reduced() == PHI1
    with pytest.raises(ParseError):
        parse_table("aa -> a")          # missing header
    with pytest.raises(ParseError):
        parse_table("k 2\naa => a")
    with pytest.raises(ParseError):
        parse_table("k 2\na -> b\na -> a")
    with pytest.raises(DomainNotPrefixCode):
        parse_table("k 2\na -> b\naa -> a")
    assert format_table(PHI1) == "k 2\nb -> aaa\naa -> a\nab -> aa"
