"""Exact k-ary rational arithmetic: canonical forms, digits, laws."""

import pytest
from hypothesis import given, strategies as st

from helpers import reference_digit_sum_mod
from mk1.errors import BaseMismatch, BaseTooSmall, NegativeResult, ParseError, ZeroValue
from mk1.kary import (
    KRational,
    format_krational,
    kq,
    kq_from_digits,
    kq_one,
    kq_zero,
    parse_krational,
)


def test_canonicalization():
    assert kq(2, 4, 3) == KRational(2, 1, 1)       # 4/8 = 1/2
    assert kq(2, 8, 2) == KRational(2, 2, 0)       # 8/4 = 2, integers keep exp 0
    assert kq(3, 0, 5) == KRational(3, 0, 0)
    assert kq(2, 3, -2) == KRational(2, 12, 0)     # 3 * 2**2
    assert kq(5, 2022, 7) == KRational(5, 2022, 7)  # already reduced


def test_direct_construction_rejects_noncanonical():
    with pytest.raises(ValueError):
        KRational(2, 4, 3)
    with pytest.raises(ValueError):
        KRational(2, 0, 1)
    with pytest.raises(ValueError):
        KRational(2, 1, -1)
    with pytest.raises(BaseTooSmall):
        KRational(1, 1, 0)


def test_digits():
    assert kq(2, 11, 3).digits() == (1, (0, 1, 1))   # 11/8 = 1.011
    assert kq(2, 1, 0).digits() == (1, ())
    assert kq(2, 0, 0).digits() == (0, ())
    assert kq(5, 2022, 7).digits() == (0, (0, 0, 3, 1, 0, 4, 2))
    assert kq(2, 5, 0).digits() == (5, ())


def test_digits_roundtrip():
    for x in [kq(2, 11, 3), kq(3, 7, 4), kq(7, 100, 3), kq(12, 145, 2)]:
        i, frac = x.digits()
        assert kq_from_digits(x.base, i, frac) == x


def test_digit_sum_mod():
    # base 2: the only nonzero residue is 1
    assert kq(2, 11, 3).digit_sum_mod() == 1
    assert kq(2, 1, 0).digit_sum_mod() == 1
    # base 5: 0.0031042 has digit sum 10 -> 2 mod 4
    assert kq(5, 2022, 7).digit_sum_mod() == 2
    assert kq(5, 2022, 7).digit_sum_mod() == 2022 % 4
    # integer part contributes too: 10.1 in base 2
    assert kq(2, 5, 1).digit_sum_mod() == 1
    assert kq_one(3).digit_sum_mod() == 1
    with pytest.raises(ZeroValue):
        kq_zero(2).digit_sum_mod()


@given(st.integers(2, 9), st.integers(0, 10**6), st.integers(0, 12))
def test_digit_sum_mod_is_num_residue(k, num, exp):
    x = kq(k, num, exp)
    if x.is_zero():
        return
    s = x.digit_sum_mod()
    assert 1 <= s <= k - 1
    assert s % (k - 1) == x.num % (k - 1)


@given(st.integers(2, 9), st.integers(1, 10**12), st.integers(0, 30))
def test_digit_sum_mod_matches_the_digit_walk(k, num, exp):
    x = kq(k, num, exp)
    assert x.digit_sum_mod() == reference_digit_sum_mod(x)


def test_arithmetic():
    half = kq(2, 1, 1)
    quarter = kq(2, 1, 2)
    assert half + quarter == kq(2, 3, 2)
    assert half - quarter == quarter
    assert half + half == kq_one(2)
    assert kq(3, 1, 1) + kq(3, 1, 1) + kq(3, 1, 1) == kq_one(3)
    with pytest.raises(NegativeResult):
        quarter - half
    with pytest.raises(BaseMismatch):
        half + kq(3, 1, 1)


def test_comparisons():
    assert kq(2, 1, 2) < kq(2, 1, 1) < kq(2, 1, 0) < kq(2, 3, 1)
    assert kq(2, 1, 1) <= kq(2, 2, 2)
    assert kq(2, 1, 1) == kq(2, 2, 2)
    assert not kq(2, 1, 1) < kq(2, 2, 2)


def test_scale_pow():
    x = kq(2, 3, 2)
    assert x.scale_pow(1) == kq(2, 3, 1)
    assert x.scale_pow(-2) == kq(2, 3, 4)
    assert x.scale_pow(2) == kq(2, 3, 0)
    assert kq_zero(2).scale_pow(5) == kq_zero(2)


def test_as_integer():
    assert kq(2, 6, 0).as_integer() == 6
    with pytest.raises(ValueError):
        kq(2, 1, 1).as_integer()


def test_format():
    assert str(kq(2, 3, 2)) == "0.11"
    assert str(kq(2, 5, 1)) == "10.1"
    assert str(kq(2, 0, 0)) == "0"
    assert str(kq(2, 2, 0)) == "10"
    assert str(kq(5, 2022, 7)) == "0.0031042"
    assert str(kq(12, 145, 2)) == "1.[0,1]"      # 145/144 = 1 + 1/144
    assert str(kq(16, 35, 0)) == "35"


def test_parse():
    for k, text in [(2, "0.11"), (2, "10.1"), (2, "0"), (2, "1"), (2, "10"),
                    (5, "0.0031042"), (12, "1.[0,1]"), (16, "35"), (16, "2.[15]")]:
        assert str(parse_krational(k, text)) == text
    with pytest.raises(ParseError):
        parse_krational(2, "0.12")      # digit out of range
    with pytest.raises(ParseError):
        parse_krational(2, "")
    # non-canonical digit strings are accepted and canonicalized
    assert parse_krational(2, "0.110") == kq(2, 3, 2)
    with pytest.raises(ParseError):
        parse_krational(12, "1.[0,12]")
    with pytest.raises(ParseError):
        parse_krational(2, "1.5e-1")


@given(st.integers(2, 14), st.integers(0, 10**9), st.integers(0, 20))
def test_format_parse_roundtrip(k, num, exp):
    x = kq(k, num, exp)
    assert parse_krational(k, format_krational(x)) == x


@given(st.integers(2, 9), st.integers(0, 10**6), st.integers(0, 10),
       st.integers(0, 10**6), st.integers(0, 10))
def test_add_sub_laws(k, n1, e1, n2, e2):
    x, y = kq(k, n1, e1), kq(k, n2, e2)
    assert x + y == y + x
    assert (x + y) - y == x
    big, small = (x, y) if x >= y else (y, x)
    assert small + (big - small) == big


@given(st.integers(2, 9), st.integers(0, 10**4), st.integers(0, 8), st.integers(-6, 6))
def test_scale_pow_law(k, num, exp, j):
    x = kq(k, num, exp)
    assert x.scale_pow(j).scale_pow(-j) == x
