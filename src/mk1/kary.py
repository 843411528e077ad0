"""Exact arithmetic over the k-ary rationals Z[1/k].

A value is stored as ``num * base**(-exp)`` with ``num, exp >= 0``.  The
canonical form keeps ``num`` coprime to ``base`` whenever ``exp > 0`` (so
7/8 in base 2 is ``(7, 3)``), stores zero as ``(0, 0)``, and leaves plain
integers with ``exp == 0``.  Everything is integer arithmetic; no floats.
Values print as base-k strings of ASCII digits (:func:`format_krational`),
and :func:`parse_krational` reads both shapes of that form by one path.
Integer parts and fractions alike turn into digits through :func:`_digits`
and back through :func:`_number`, so neither has a length limit.
:class:`Record` is the frozen value base of every value type in ``mk1``.
"""

from __future__ import annotations

from functools import total_ordering
from itertools import zip_longest
from operator import attrgetter

from .errors import (BaseMismatch, BaseTooSmall, NegativeResult, NotCanonical, OutOfRange,
                     ParseError, ZeroValue)

_new, _setattr = object.__new__, object.__setattr__  # looked up once, for the stores


class Record:
    """A frozen value.  Its fields are the ``__slots__`` of its class whose
    names do not start with ``_``: built by position or by name, compared
    (only within one class), hashed and shown in slot order.  The private
    slots are caches that start as None.  A class checks its fields in
    ``__post_init__``, which construction calls and :meth:`_trusted` skips."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = tuple(name for name in cls.__slots__ if name[0] != "_")
        cls._key = attrgetter(*cls._fields)  # the tuple of field values

    def __init__(self, *values, **named):
        fields = self._fields
        values += tuple([named.pop(name) for name in fields[len(values):] if name in named])
        if named or len(values) != len(fields):
            raise TypeError(f"{type(self).__name__} takes the fields {', '.join(fields)}")
        for name, value in zip_longest(self.__slots__, values):
            _setattr(self, name, value)
        if hasattr(self, "__post_init__"):
            self.__post_init__()

    @classmethod
    def _trusted(cls, *values):
        """An instance holding ``values`` in slot order, and None in each
        slot after them, built without ``__post_init__``."""
        obj = _new(cls)
        for name, value in zip_longest(cls.__slots__, values):
            _setattr(obj, name, value)
        return obj

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == other._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        shown = (f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({', '.join(shown)})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):  # copy and pickle rebuild through the checks
        return type(self), self._key(self)


@total_ordering
class KRational(Record):
    """A non-negative element of Z[1/k], kept in canonical form.

    Use :func:`kq` to build values; the raw constructor rejects anything
    that is not already canonical.
    """

    __slots__ = ("base", "num", "exp")

    # the hot constructor, equality and hash, spelled out: Record's generic ones take twice as long
    def __init__(self, base: int, num: int, exp: int):
        _setattr(self, "base", base)
        _setattr(self, "num", num)
        _setattr(self, "exp", exp)
        self.__post_init__()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.num == other.num and self.exp == other.exp and self.base == other.base
        return NotImplemented

    def __hash__(self):
        return hash((self.base, self.num, self.exp))

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
        """Integer part and fractional base-k digits (most significant first,
        by :func:`_digits`); the canonical form keeps the last digit nonzero."""
        int_part, rem = divmod(self.num, self.base**self.exp)
        return int_part, tuple(_digits(self.base, rem, self.exp))

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
    the numerator is no longer divisible by the base: base**t for t the
    smaller of exp and the base-adic valuation of num, found by squaring
    and taken out from the largest square down, in O(log t) divisions.  A
    negative ``exp`` scales the numerator up instead.
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
    if exp > 0 and num % base == 0:
        squares = []  # (base**n, n) for n = 1, 2, 4, ... while base**n divides num and n <= exp
        p, n = base, 1
        while n <= exp and num % p == 0:
            squares.append((p, n))
            p, n = p * p, n + n
        for p, n in reversed(squares):  # t < 2n for the largest n: t's bits, high to low
            if n <= exp and num % p == 0:
                num //= p
                exp -= n
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
    """Value int_part.d1 d2 ... dn in base k, trailing zeros dropped; the
    digits are checked and joined by :func:`_number`."""
    frac_digits = tuple(frac_digits)
    if int_part < 0:
        raise NegativeResult("integer part must be non-negative")
    n = len(frac_digits)
    while n and not frac_digits[n - 1]:  # else kq would divide out trailing zeros one at a time
        n -= 1
    high = int_part * base**n if int_part else 0  # a measure's 0 needs no k^n
    return kq(base, high + _number(base, frac_digits[:n]), n)


def format_krational(x: KRational) -> str:
    """Canonical text form.

    Bases up to 10 print base-k digit strings (``0.111`` for 7/8 in base 2);
    larger bases print the integer part in decimal and the fractional digits
    as a bracketed decimal list (``0.[10,0,3]``).  Both parts take their
    digits from :func:`_digits`, so an integer part of any length prints.
    """
    int_part, frac = x.digits()
    ip_base = min(x.base, 10)
    width = -(-int_part.bit_length() // (ip_base.bit_length() - 1))  # ip_base**width > int_part
    ip = "".join(map(str, _digits(ip_base, int_part, width))).lstrip("0") or "0"
    frac_text = "".join(map(str, frac)) if x.base <= 10 else "[" + ",".join(map(str, frac)) + "]"
    return ip + "." + frac_text if frac else ip


def parse_krational(base: int, text: str) -> KRational:
    """Inverse of :func:`format_krational` for the given base.

    One path for both forms: the text splits at its first point, and above
    base 10 a non-empty fraction must be ``[d,...]``, whose items are the
    digits.  Every piece is ASCII digits that :func:`_number` reads, and
    every digit is below k (the integer part and each item are decimal above
    base 10).  Trailing zeros are dropped.
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
        digits = (_number(10, map(int, p)) for p in frac) if base > 10 else map(int, frac)
        return kq_from_digits(base, _number(min(base, 10), map(int, ip_text)), digits)
    except ValueError:  # the ParseError of a digit out of range is one too
        raise ParseError(f"bad base-{base} rational: {text!r}") from None


def _digits(base: int, value: int, n: int) -> list[int]:
    """The n base-k digits of value < base**n, most significant first.  A block
    of n > 64 digits splits at k^(n//2) into its two halves, so each division
    works on a half, not on all the digits left; blocks of at most 64 digits
    are peeled one digit at a time."""
    out, blocks, powers = [], [(value, n)], {}  # the most significant block last
    while blocks:
        rem, n = blocks.pop()
        if n > 64:
            half = n // 2
            if half not in powers:
                powers[half] = base**half
            high, low = divmod(rem, powers[half])
            blocks += ((low, half), (high, n - half))
            continue
        block = [0] * n
        for i in range(n - 1, -1, -1):
            rem, block[i] = divmod(rem, base)
        out += block
    return out


def _number(base: int, digits) -> int:
    """The number whose base-k digits, most significant first, are ``digits``
    (each one checked).  Blocks of equal width from the last digit pair up as
    hi·k^width + lo, which halves their count each round, so no product runs
    over all the digits."""
    blocks, power = list(digits) or [0], base  # power = k^width
    for d in blocks:
        if not 0 <= d < base:
            raise ParseError(f"digit {d} out of range for base {base}")
    while len(blocks) > 1:
        odd = len(blocks) % 2  # an odd count leaves the first block unpaired
        blocks[odd:] = [hi * power + lo for hi, lo in zip(blocks[odd::2], blocks[odd + 1::2])]
        power *= power
    return blocks[0]
