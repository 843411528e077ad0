"""Exact k-ary rational arithmetic: canonical forms, digits, laws."""

import operator
import random
import time

import pytest
from hypothesis import example, given, strategies as st

from helpers import reference_digit_sum_mod, reference_kq, reference_parse_krational
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
    with pytest.raises(BaseTooSmall):
        kq(1, 1)
    with pytest.raises(NegativeResult):
        kq(2, -1)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (BaseTooSmall, NegativeResult) as exc:
        return type(exc).__name__


@given(st.sampled_from((1, 2, 3, 4, 10, 36)), st.integers(-3, 10 ** 6), st.integers(0, 80),
       st.integers(-5, 100))
@example(2, 1, 64, 64)   # the valuation and the exponent meet at a power of two
@example(4, 1, 63, 64)
@example(10, 7, 20, 19)
@example(36, 6, 5, 7)    # a factor of the base, not the base, is left
def test_kq_cancels_as_the_one_factor_at_a_time_loop(base, m, j, exp):
    """num = m·base**j: valuations up to 80 against exponents on either side
    of them, over prime and composite bases, and the refusals."""
    num = m * base ** j
    assert _outcome(kq, base, num, exp) == _outcome(reference_kq, base, num, exp)


def test_kq_cancels_many_factors_in_no_quadratic_time():
    """65,536 factors of 2 and 20,000 of 10: one division per factor took
    about 0.9 s and 0.3 s."""
    started = time.perf_counter()
    assert kq(2, 1 << 65536, 65536) == kq_one(2)
    assert kq(10, 7 * 10 ** 20000, 20000) == KRational(10, 7, 0)
    assert time.perf_counter() - started < 0.1


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
    with pytest.raises(NegativeResult):
        kq_from_digits(2, -1, (1,))


def _digit_by_digit(x):
    """The integer part and the fractional digits of ``x``, one divmod of
    the whole remainder per digit."""
    int_part, rem = divmod(x.num, x.base ** x.exp)
    frac = []
    for _ in range(x.exp):
        rem, d = divmod(rem, x.base)
        frac.append(d)
    return int_part, tuple(reversed(frac))


def test_digits_split_into_halves_match_the_digit_by_digit_loop():
    """Every split shape: 64 digits or fewer peel at once, 65 and more split,
    and uneven halves nest to any depth; the integer part rides along."""
    rng = random.Random(40)
    for k in (2, 3, 10, 36):
        for exp in [*range(0, 140), 255, 256, 257, 1000, 2049, *rng.sample(range(140, 3000), 20)]:
            x = kq(k, rng.randrange(k ** exp * rng.choice((1, 2, 1000))), exp)
            assert x.digits() == _digit_by_digit(x), (k, exp)


def test_digits_of_a_long_measure_take_no_quadratic_time():
    """131,000 binary digits, the longest argument the OS passes: one
    divmod per digit took about 2 s."""
    x = kq(2, (1 << 131000) - 1, 131000)
    started = time.perf_counter()
    assert x.digits() == (0, (1,) * 131000)
    assert time.perf_counter() - started < 0.5


def _fold(base, int_part, frac):
    """int_part.d1 ... dn by one multiply-add of the whole numerator per digit."""
    num = int_part
    for d in frac:
        num = num * base + d
    return kq(base, num, len(frac))


def test_digits_paired_by_halves_match_the_digit_by_digit_fold():
    """Every pairing shape: 0 and 1 digits, odd and even counts at each
    round, powers of two and one either side, trailing zeros, and integer
    parts of any size."""
    rng = random.Random(41)
    for k in (2, 3, 10, 36):
        for n in [*range(0, 70), 127, 128, 129, 1000, 1025, *rng.sample(range(70, 3000), 10)]:
            for int_part in (0, 1, rng.randrange(k ** 5), rng.randrange(k ** 40)):
                frac = [rng.randrange(k) for _ in range(n)]
                if n and rng.random() < 0.3:
                    zeros = rng.randint(1, n)
                    frac[n - zeros:] = [0] * zeros
                assert kq_from_digits(k, int_part, frac) == _fold(k, int_part, frac), (k, n)


def test_parsing_a_long_measure_takes_no_quadratic_time():
    """131,000 digits, the longest argument the OS passes: folding one digit
    at a time took about 1.9 s, and dividing out 131,000 trailing zeros one
    at a time about 4 s."""
    started = time.perf_counter()
    x = parse_krational(10, "0." + "7" * 131000)
    assert time.perf_counter() - started < 0.4
    assert (x.num, x.exp) == ((10 ** 131000 - 1) // 9 * 7, 131000)
    started = time.perf_counter()
    assert parse_krational(2, "0.1" + "0" * 131000) == kq(2, 1, 1)
    assert time.perf_counter() - started < 0.4


def test_integer_parts_of_any_length_read_and_print():
    """5,000 integer digits, more than int() and str() convert by default,
    read in bases 3, 10 and 12 and print back in base 12; an integer digit
    at or above k is still refused, with the same message."""
    for k, frac in ((3, ".1"), (10, ".1"), (12, ".[1]")):
        b = min(k, 10)
        int_part = 2 * (b ** 5000 - 1) // (b - 1)  # 5,000 twos in base b
        assert parse_krational(k, "2" * 5000 + frac) == kq(k, int_part * k + 1, 1), k
    x = kq(12, 7 * 10 ** 4999 * 144 + 13, 2)
    assert str(x) == "7" + "0" * 4999 + ".[1,1]"
    assert parse_krational(12, str(x)) == x
    for k, text in ((2, "12"), (3, "1" * 5000 + "3.1"), (10, "9" * 5000 + "a")):
        with pytest.raises(ParseError, match=f"^bad base-{k} rational: '"):
            parse_krational(k, text)


def test_printing_a_long_integer_part_takes_no_quadratic_time():
    """131,000 binary integer digits: one division of the whole integer part
    per digit took about 2 s."""
    started = time.perf_counter()
    assert str(kq(2, (1 << 131000) + 1, 1)) == "1" + "0" * 130999 + ".1"
    assert time.perf_counter() - started < 0.3


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
    assert kq(2, 1, 1) != kq(3, 1, 1) and kq(2, 1, 1) != (2, 1, 1)   # equality never raises
    assert len({kq(2, 1, 1), kq(3, 1, 1), kq(2, 2, 2)}) == 2
    assert kq(3, 2, 1) > kq(3, 1, 1) >= kq(3, 1, 1)
    assert repr(kq(2, 1, 1)) == "KRational(base=2, num=1, exp=1)"
    for op in (operator.lt, operator.le, operator.gt, operator.ge):
        with pytest.raises(BaseMismatch):
            op(kq(2, 1, 1), kq(3, 1, 1))
        with pytest.raises(TypeError):
            op(kq(2, 1, 1), 1)


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
    # only ASCII digits, and above base 10 only bare digits between the commas
    for k, text in [(11, "0.[+1]"), (11, "0.[ 1 ]"), (11, "1_0"), (11, "+0"),
                    (5, "\u0663"), (5, "0.\u0663"), (11, "\u0663"), (11, "0.[\u0663]")]:
        with pytest.raises(ParseError, match="^bad base-"):
            parse_krational(k, text)


_NUMERAL_CHARS = "0123456789.[],"
_DIGITS = st.text("0123456789", min_size=1, max_size=3)
# an integer part, a point and a fraction, bracketed or not
_NUMERALS = st.tuples(_DIGITS, st.lists(_DIGITS, max_size=3), st.booleans()).map(
    lambda t: t[0] + "." + (f"[{','.join(t[1])}]" if t[2] else "".join(t[1])))


@given(st.sampled_from([2, 5, 10, 11, 16]),
       _NUMERALS | st.text(_NUMERAL_CHARS, max_size=12)
       | st.text(_NUMERAL_CHARS + "+_ \u0663", max_size=12))
@example(2, "0.12")
@example(11, "1.5")
@example(11, "1.[0,10]")
@example(11, "0.[+1]")
@example(5, "12.")
@example(16, "3.[]")
def test_parse_matches_the_reference_on_ascii_numerals(k, text):
    """The one-path reader agrees with the two-branch reference, value or
    message, on text of digits, point, brackets and commas, and refuses
    any other text."""
    def read(parse):
        try:
            return parse(k, text)
        except ParseError as err:
            return str(err)
    if text.strip() and not set(text.strip()) <= set(_NUMERAL_CHARS):
        with pytest.raises(ParseError):
            parse_krational(k, text)
    else:
        assert read(parse_krational) == read(reference_parse_krational)


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
