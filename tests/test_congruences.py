"""Fiber partitions: collision measures, refinement, maximal coarsening."""

import random

import pytest

from helpers import class_of, random_congruence, reference_max_congruence
from mk1.congruence import (
    PrefixCodeCongruence,
    collision_measure,
    noncollision_measure,
    split_class,
)
from mk1.elements import Mk1Element, part
from mk1.errors import CrossCheckFailed, NotAClass
from mk1.kary import kq, kq_one, kq_zero
from mk1.words import PrefixCode, parse_word


def cong(k, *groups):
    parsed = [[parse_word(w, k) for w in g] for g in groups]
    code = PrefixCode.make(k, [w for g in parsed for w in g])
    return PrefixCodeCongruence.make(code, parsed)


def test_validation():
    c = cong(2, ["aa", "b"], ["ab"])
    assert c.min_reps() == ((1,), (0, 1))
    with pytest.raises(ValueError):
        PrefixCodeCongruence(PrefixCode.make(2, [(0,), (1,)]), (((0,),),))
    with pytest.raises(NotAClass):
        cong(2, ["a"], [])


def test_part_of_worked_table():
    phi1 = Mk1Element.make(2, [((0, 0), (0,)), ((0, 1), (0, 0)), ((1,), (0, 0, 0))])
    p = part(phi1)
    assert p.classes == (
        ((1,), (0, 1, 0), (0, 0, 0, 0)),   # fiber of image aaa
        ((0, 0, 1),),                      # fiber of image ab
        ((0, 1, 1), (0, 0, 0, 1)),         # fiber of image aab
    )
    fiber = class_of(p, (0, 1, 0))
    assert kq(2, 11, 4) == sum(
        (kq(2, 1, len(w)) for w in fiber), kq_zero(2))
    assert noncollision_measure(p) == kq(2, 3, 2)
    assert collision_measure(p) == kq(2, 1, 2)


def test_measures_simple():
    c = cong(2, ["aa", "ab"], ["b"])
    assert noncollision_measure(c) == kq(2, 3, 2)
    assert collision_measure(c) == kq(2, 1, 2)
    ident = cong(2, ["a"], ["b"])
    assert noncollision_measure(ident) == kq_one(2)
    assert collision_measure(ident) == kq_zero(2)
    # an undefined region counts toward collision
    hole = cong(2, ["aa"])
    assert collision_measure(hole) == kq(2, 3, 2)
    # bb in no class: uncovered plus non-representative mass is 0, while
    # 1 - noncollision is 1/4
    stray = PrefixCodeCongruence._trusted(PrefixCode.make(2, [(0,), (1, 0), (1, 1)]),
                                          (((0,),), ((1, 0),)))
    with pytest.raises(CrossCheckFailed):
        collision_measure(stray)


def test_split_class_keeps_measures(seed=11):
    rng = random.Random(seed)
    for _ in range(200):
        k = rng.choice([2, 3])
        c = random_congruence(rng, k)
        nc = noncollision_measure(c)
        for _ in range(4):
            c = split_class(c, rng.randrange(len(c.classes)))
            assert noncollision_measure(c) == nc
            assert collision_measure(c) == kq_one(k) - nc


def test_max_congruence_examples():
    """The reference coarsening, which ``reference_leq_L`` applies to g's fibers."""
    assert reference_max_congruence(cong(2, ["a"], ["b"])) == cong(2, ["^"])
    assert reference_max_congruence(cong(2, ["aa", "ba"], ["ab", "bb"])) == cong(2, ["a", "b"])
    # mixed last letters in a class block merging
    c = cong(2, ["aa", "ab"], ["b"])
    assert reference_max_congruence(c) == c
    # merging cascades
    assert reference_max_congruence(cong(2, ["aa"], ["ab"], ["ba"], ["bb"])) == cong(2, ["^"])
    assert reference_max_congruence(cong(2, ["^"])) == cong(2, ["^"])
    three = cong(3, ["aa", "ca"], ["ab", "cb"], ["ac", "cc"], ["b"])
    assert reference_max_congruence(three) == cong(3, ["a", "c"], ["b"])


def test_max_congruence_is_idempotent_and_measure_safe(seed=77):
    rng = random.Random(seed)
    for _ in range(300):
        k = rng.choice([2, 3])
        c = random_congruence(rng, k)
        m = reference_max_congruence(c)
        assert reference_max_congruence(m) == m
        assert noncollision_measure(m) == noncollision_measure(c)
        assert len(m.classes) <= len(c.classes)


def test_split_then_coarsen_recovers(seed=5):
    rng = random.Random(seed)
    for _ in range(100):
        k = rng.choice([2, 3])
        c = reference_max_congruence(random_congruence(rng, k))
        refined = c
        for _ in range(3):
            refined = split_class(refined, rng.randrange(len(refined.classes)))
        assert reference_max_congruence(refined) == c
