"""Exact arithmetic over the k-ary rationals Z[1/k].

A value is stored as ``num * base**(-exp)`` with ``num, exp >= 0``.  The
canonical form keeps ``num`` coprime to ``base`` whenever ``exp > 0`` (so
7/8 in base 2 is ``(7, 3)``), stores zero as ``(0, 0)``, and leaves plain
integers with ``exp == 0``.  Everything is integer arithmetic; no floats.
Values print as base-k strings of ASCII digits (:func:`format_krational`),
and :func:`parse_krational` reads both shapes of that form by one path.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import total_ordering

from .errors import (BaseMismatch, BaseTooSmall, NegativeResult, NotCanonical, OutOfRange,
                     ParseError, ZeroValue)


@total_ordering
@dataclass(frozen=True, slots=True)
class KRational:
    """A non-negative element of Z[1/k], kept in canonical form.

    Use :func:`kq` to build values; the raw constructor rejects anything
    that is not already canonical.
    """

    base: int
    num: int
    exp: int

    def __post_init__(self):
        if self.base < 2:
            raise BaseTooSmall(f"base must be at least 2, got {self.base}")
        if self.num < 0 or self.exp < 0:
            raise NegativeResult("numerator and exponent must be non-negative")
        if self.num == 0 and self.exp != 0:
            raise NotCanonical("zero must be stored as (0, 0)")
        if self.exp > 0 and self.num % self.base == 0:
            raise NotCanonical("numerator not k-reduced; use kq()")

    # -- queries ------------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num == 0

    def digits(self) -> tuple[int, tuple[int, ...]]:
        """Integer part and fractional base-k digits (most significant first).

        The canonical form guarantees the digit list never ends in 0.  A
        block of n > 64 digits splits at k^(n//2) into its two halves, so
        each division works on a half, not on all the digits left; blocks
        of at most 64 digits are peeled one digit at a time.
        """
        k = self.base
        int_part, rem = divmod(self.num, k**self.exp)
        frac, blocks, powers = [], [(rem, self.exp)], {}  # the most significant block last
        while blocks:
            rem, n = blocks.pop()
            if n > 64:
                half = n // 2
                if half not in powers:
                    powers[half] = k**half
                high, low = divmod(rem, powers[half])
                blocks += ((low, half), (high, n - half))
                continue
            block = [0] * n
            for i in range(n - 1, -1, -1):
                rem, block[i] = divmod(rem, k)
            frac += block
        return int_part, tuple(frac)

    def digit_sum_mod(self) -> int:
        """Sum of all base-k digits, reduced into {1, ..., base-1}.

        The digits are those of ``num``, and a digit sum is congruent to its
        number modulo ``base - 1`` (casting out k-1's), which is what makes
        it usable as a D-class index.  Undefined for zero.
        """
        if self.is_zero():
            raise ZeroValue("digit sum index of zero is undefined")
        return (self.num - 1) % (self.base - 1) + 1

    def scale_pow(self, j: int) -> "KRational":
        """Exact multiplication by base**j (j may be negative)."""
        if self.num == 0:
            return self
        return kq(self.base, self.num, self.exp - j)

    def as_integer(self) -> int:
        """The value as an int, or raise if it has a fractional part."""
        if self.exp != 0:
            raise OutOfRange(f"{self} is not an integer")
        return self.num

    # -- arithmetic -----------------------------------------------------------

    def _aligned(self, other: "KRational") -> tuple[int, int, int]:
        """Both numerators over the common denominator base**e, and e."""
        if not isinstance(other, KRational):
            raise TypeError(f"expected KRational, got {type(other).__name__}")
        if self.base != other.base:
            raise BaseMismatch(f"cannot mix bases {self.base} and {other.base}")
        k, e = self.base, max(self.exp, other.exp)
        return self.num * k ** (e - self.exp), other.num * k ** (e - other.exp), e

    def __add__(self, other: "KRational") -> "KRational":
        a, b, e = self._aligned(other)
        return kq(self.base, a + b, e)

    def __sub__(self, other: "KRational") -> "KRational":
        a, b, e = self._aligned(other)
        if a < b:
            raise NegativeResult(f"{self} - {other} would be negative")
        return kq(self.base, a - b, e)

    def __lt__(self, other: "KRational") -> bool:
        a, b, _ = self._aligned(other)
        return a < b

    # -- text -----------------------------------------------------------------

    def __str__(self) -> str:
        return format_krational(self)


def kq(base: int, num: int, exp: int = 0) -> KRational:
    """Canonical k-ary rational num * base**(-exp).

    Common factors of ``base`` are cancelled until the exponent hits 0 or
    the numerator is no longer divisible by the base.  A negative ``exp``
    scales the numerator up instead.
    """
    if base < 2:
        raise BaseTooSmall(f"base must be at least 2, got {base}")
    if num < 0:
        raise NegativeResult("k-ary rationals here are non-negative")
    if num == 0:
        return KRational(base, 0, 0)
    if exp < 0:
        num *= base ** (-exp)
        exp = 0
    while exp > 0 and num % base == 0:
        num //= base
        exp -= 1
    return KRational(base, num, exp)


def kq_pow_sum(base: int, counts: dict[int, int]) -> KRational:
    """Sum of count * base**(-e) over a mapping {e: count}, as one integer
    over base**max(e): the Bernoulli measure of count words of each length e."""
    top = max(counts, default=0)
    return kq(base, sum(c * base ** (top - e) for e, c in counts.items()), top)


def kq_zero(base: int) -> KRational:
    return kq(base, 0)


def kq_one(base: int) -> KRational:
    return kq(base, 1)


def kq_from_digits(base: int, int_part: int, frac_digits) -> KRational:
    """Value int_part.d1 d2 ... dn in base k, trailing zeros dropped: blocks
    of equal width from the last digit pair up as hi·k^width + lo, which
    halves their count each round, so no product runs over all the digits."""
    frac_digits = tuple(frac_digits)
    if int_part < 0:
        raise NegativeResult("integer part must be non-negative")
    for d in frac_digits:
        if not 0 <= d < base:
            raise ParseError(f"digit {d} out of range for base {base}")
    n = len(frac_digits)
    while n and not frac_digits[n - 1]:  # else kq would divide out trailing zeros one at a time
        n -= 1
    blocks, power = [int_part, *frac_digits[:n]], base  # power = k^width
    while len(blocks) > 1:
        odd = len(blocks) % 2  # an odd count leaves the first block unpaired
        blocks[odd:] = [hi * power + lo for hi, lo in zip(blocks[odd::2], blocks[odd + 1::2])]
        power *= power
    return kq(base, blocks[0], n)


def format_krational(x: KRational) -> str:
    """Canonical text form.

    Bases up to 10 print base-k digit strings (``0.111`` for 7/8 in base 2);
    larger bases print the integer part in decimal and the fractional digits
    as a bracketed decimal list (``0.[10,0,3]``).
    """
    int_part, frac = x.digits()
    if x.base <= 10:
        ip = _int_to_base(int_part, x.base)
        if not frac:
            return ip
        return ip + "." + "".join(str(d) for d in frac)
    if not frac:
        return str(int_part)
    return f"{int_part}.[" + ",".join(str(d) for d in frac) + "]"


def parse_krational(base: int, text: str) -> KRational:
    """Inverse of :func:`format_krational` for the given base.

    One path for both forms: the text splits at its first point, and above
    base 10 a non-empty fraction must be ``[d,...]``, whose items are the
    digits.  Every piece is ASCII digits, and every digit is below k (the
    integer part is decimal above base 10).  Trailing zeros are dropped.
    """
    if base < 2:
        raise BaseTooSmall(f"base must be at least 2, got {base}")
    text = text.strip()
    if not text:
        raise ParseError("empty k-ary rational")
    ip_text, _, frac = text.partition(".")
    try:
        if base > 10 and frac:
            if frac[0] != "[" or frac[-1] != "]":
                raise ValueError
            frac = frac[1:-1].split(",")
        if not all(p.isascii() and p.isdigit() for p in (ip_text, *frac)):
            raise ValueError
        return kq_from_digits(base, int(ip_text, min(base, 10)), map(int, frac))
    except ValueError:  # the ParseError of a digit out of range is one too
        raise ParseError(f"bad base-{base} rational: {text!r}") from None


def _int_to_base(value: int, base: int) -> str:
    if value == 0:
        return "0"
    out = []
    while value:
        value, d = divmod(value, base)
        out.append(str(d))
    return "".join(reversed(out))

