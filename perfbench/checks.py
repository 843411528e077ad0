"""Reference computations the benchmark checks results against.

Each function here is written from the definitions, not from the mk1 code
path it checks, so a wrong answer from the library cannot agree with it by
sharing the same mistake.  Everything is exact: measures are Fractions.
"""

from __future__ import annotations

from fractions import Fraction


class CheckFailed(Exception):
    """An op returned a result that contradicts a reference check."""


def require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def ref_apply(rows, w):
    """Image of the word w under a table, or None where it is not defined.

    The caller passes words at least as long as every domain word, so the
    table either maps a prefix of w or is undefined on all of w·A*.
    """
    for x, y in rows:
        if w[: len(x)] == x:
            return y + w[len(x):]
    return None


def ref_apply_any(rows, w):
    """apply() on a word of any length: a word, 'undefined' or 'need-longer'."""
    value = ref_apply(rows, w)
    if value is not None:
        return value
    if any(len(x) > len(w) and x[: len(w)] == w for x, _ in rows):
        return "need-longer"
    return "undefined"


def ideal_measure(k: int, words) -> Fraction:
    """Measure of the union of the cylinders w·A^ω over the given words."""
    kept = []
    for w in sorted(set(words)):  # a prefix sorts right before its extensions
        if not kept or w[: len(kept[-1])] != kept[-1]:
            kept.append(w)
    return sum((Fraction(1, k ** len(w)) for w in kept), Fraction(0))


def r_height(k: int, rows) -> Fraction:
    return ideal_measure(k, [y for _, y in rows])


def is_injective_ref(k: int, rows) -> bool:
    """Injective iff the image cylinders are disjoint, i.e. their measures add."""
    images = [y for _, y in rows]
    return sum((Fraction(1, k ** len(y)) for y in images), Fraction(0)) == ideal_measure(k, images)


def digit_index(k: int, h: Fraction):
    """The D-index read from the base-k digit sum of a nonzero measure."""
    if h == 0:
        return None
    scale = 1
    for _ in range(h.denominator.bit_length() + 1):
        if (h * scale).denominator == 1:
            break
        scale *= k
    n = h * scale
    require(n.denominator == 1, f"measure {h} is not a base-{k} rational")
    n, total = n.numerator, 0  # h = n * k^-e, so h and n share their digits
    while n:
        n, d = divmod(n, k)
        total += d
    return (total - 1) % (k - 1) + 1


def one_hole_identity(k: int, s) -> tuple:
    """Reduced rows of the partial identity on A^|s| minus {s}.

    The reduced table keeps, for each position i, the siblings of s[i]
    below the prefix s[:i]; every other word of length |s| lies under one
    of them.
    """
    rows = [(s[:i] + (a,), s[:i] + (a,)) for i in range(len(s)) for a in range(k) if a != s[i]]
    return tuple(sorted(rows, key=lambda r: (len(r[0]), r[0])))


def truth_table_count(m: int, n: int, table: int) -> int:
    """|{y : B(x, y) = 1 for every x}| read straight off the bitmask.

    Bit i is the value at the i-th (y, x) pair with y varying slowest, so
    each y owns one block of 2^m consecutive bits.
    """
    block = (1 << (1 << m)) - 1
    return sum(1 for y in range(1 << n) if (table >> (y << m)) & block == block)
