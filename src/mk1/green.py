"""Height functions and Green-relation predicates for table elements.

Every element carries exact Bernoulli-measure heights.  On the image side,
the R-height is the measure of the prefix code generating the image ideal.
On the domain side the map's fiber partition yields a family of L-heights:
summing k**(-length) of one representative per fiber, where the
representative length is the class minimum (the plain L-height, equal to
1 - collision), the maximum, the average, or the median.  Averages and
medians can have fractional exponents, in which case the value is returned
symbolically as an :class:`ExponentSum` rather than rounded.  The fiber
lengths are read off :func:`~mk1.elements.fiber_offsets`: the fiber of an
image-code word z has the lengths |z| plus its rows' offsets |x| - |y|.
So neither the heights nor the D-index, whose L-height cross-check comes
from the same walk, build a fiber word, a row or the image-code
restriction.

The partial orders: f <=_R g iff the image ideal of f essentially sits
inside that of g; f <=_L g iff f = u∘g for some u, decided by one section s
of g with g∘s∘g = g (then u = f∘s), read off g's minimal image words with
no fiber partition.  The canonical section below (g∘ḡ∘g = g) certifies both
orders too, which the test-suite exploits.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Iterator, Sequence, Union

from .elements import (
    Mk1Element,
    compose,
    fiber_offsets,
    fibers,
    image_ideal,
    partial_identity,
)
from .errors import (
    AlphabetMismatch,
    BaseMismatch,
    CrossCheckFailed,
    IndexMismatch,
    NotDistinct,
    OutOfRange,
)
from .kary import KRational, kq, kq_pow_sum
from .words import Word, code_with_measure, ideal_ess_eq, ideal_ess_leq, trie_leaves


@dataclass(frozen=True, slots=True)
class ExponentSum:
    """Exact value sum(count * base**(-exp)) with fractional exponents."""

    base: int
    terms: tuple[tuple[Fraction, int], ...]   # (exponent, count), ascending

    def __str__(self) -> str:
        parts = []
        for e, c in self.terms:
            head = f"{c}*" if c != 1 else ""
            parts.append(f"{head}{self.base}^(-{e})")
        return " + ".join(parts)


Height = Union[KRational, ExponentSum]


def _rep_sum(k: int, exps: Iterable[tuple[int, int]]) -> Height:
    """Sum of k**(-n/d) over exponents given as (n, d) pairs, each distinct
    pair reduced by its gcd once: a KRational when every exponent is an
    integer, else an ExponentSum, its terms ordered by the integers
    n·(lcm/d)."""
    counts: dict[tuple[int, int], int] = {}
    for (n, d), c in Counter(exps).items():
        g = gcd(n, d)
        counts[n // g, d // g] = counts.get((n // g, d // g), 0) + c
    if all(d == 1 for _, d in counts):
        return kq_pow_sum(k, {n: c for (n, _), c in counts.items()})
    den = lcm(*(d for _, d in counts))
    terms = sorted(counts.items(), key=lambda term: term[0][0] * (den // term[0][1]))
    return ExponentSum(k, tuple([(Fraction(n, d), c) for (n, d), c in terms]))


@dataclass(frozen=True, slots=True)
class HeightReport:
    r: KRational
    l: KRational
    l_max: KRational
    l_ave: Height
    l_med: Height

    @classmethod
    def from_fibers(cls, k: int, r: KRational,
                    fibers: Iterable[tuple[int, Sequence[int]]]) -> "HeightReport":
        """The report of an element with R-height r and these fibers, each
        a pair (s, offsets) whose word lengths are s plus the sorted
        offsets: every L-height charges a fiber k**(-n) for its shortest,
        longest, average or median length n, so it reads each fiber once.
        The shortest words of distinct fibers are distinct, so L is the
        noncollision measure.  With no fibers every L-height is 0."""
        lo, hi, ave, med = [], [], [], []
        for n, ls in fibers:
            m = len(ls)
            lo.append(ls[0] + n)
            hi.append(ls[-1] + n)
            ave.append((sum(ls) + m * n, m))
            h = m // 2
            med.append((ls[h] + n, 1) if m % 2 else (ls[h - 1] + ls[h] + 2 * n, 2))
        return cls(r=r, l=kq_pow_sum(k, Counter(lo)), l_max=kq_pow_sum(k, Counter(hi)),
                   l_ave=_rep_sum(k, ave), l_med=_rep_sum(k, med))


def heights(e: Mk1Element) -> HeightReport:
    """All exact heights of e (zero element: everything is 0): R from the
    minimal image words, the L-heights from the offsets of the fiber walk."""
    return HeightReport.from_fibers(e.k, image_ideal(e).mu, (
        (len(z), sorted(offsets)) for z, offsets in fiber_offsets(e)))


def format_height_report(rep: HeightReport) -> str:
    return "\n".join(
        f"{name} {value}"
        for name, value in [("R", rep.r), ("L", rep.l), ("Lmax", rep.l_max),
                            ("Lave", rep.l_ave), ("Lmed", rep.l_med)]
    )


# -- the D-index -----------------------------------------------------------------

def d_index_M(e: Mk1Element):
    """Position of e's D-class among the k-1 nonzero ones; None for zero.

    Cross-checked three ways: from the number of minimal image words and
    from the digit sums of both heights, which always agree modulo k-1.
    The L-height is read off the offset walk, as in :func:`heights`: each
    fiber charges k**(-n) for its shortest length n, and no fiber word or
    restriction is built.
    """
    if e.is_zero:
        return None
    k = e.k
    ideal = image_ideal(e)
    idx = (len(ideal) - 1) % (k - 1) + 1
    l_height = kq_pow_sum(k, Counter(min(offsets) + len(z) for z, offsets in fiber_offsets(e)))
    for name, height in (("R", ideal.mu), ("L", l_height)):
        if height.digit_sum_mod() != idx:
            raise CrossCheckFailed(
                f"{name}-height digit sum {height.digit_sum_mod()} differs from index {idx}")
    return idx


def eq_D_M(f: Mk1Element, g: Mk1Element) -> bool:
    if f.k != g.k:
        raise AlphabetMismatch("different alphabets")
    return d_index_M(f) == d_index_M(g)


# -- Green preorders --------------------------------------------------------------

def leq_R(f: Mk1Element, g: Mk1Element) -> bool:
    """f <=_R g: does f's image ideal essentially sit inside g's?"""
    return ideal_ess_leq(image_ideal(f), image_ideal(g))


def leq_L(f: Mk1Element, g: Mk1Element) -> bool:
    """f <=_L g: is f = u∘g for some u?  If g∘s∘g = g, then f = u∘g gives
    f∘s∘g = u∘g = f, so u = f∘s will do whenever any u does; the section
    s = :func:`_l_section` of g has g∘s∘g = g."""
    if f.k != g.k:
        raise AlphabetMismatch("different alphabets")
    return compose(compose(f, _l_section(g)), g) == f.reduced()


def _l_section(g: Mk1Element) -> Mk1Element:
    """Each minimal image word y of g back to the domain word x_y of g's
    first row with image y.  Every image is y·v for a minimal y, and
    g(x_y·v·t) = y·v·t, so g∘s∘g = g."""
    back: dict[Word, Word] = {}
    for x, y in g.rows:
        back.setdefault(y, x)
    return Mk1Element._trusted(g.k, tuple((y, back[y]) for y in image_ideal(g).words))


def eq_R(f: Mk1Element, g: Mk1Element) -> bool:
    return ideal_ess_eq(image_ideal(f), image_ideal(g))


def eq_L(f: Mk1Element, g: Mk1Element) -> bool:
    return leq_L(f, g) and leq_L(g, f)


def section_inverse(e: Mk1Element) -> Mk1Element:
    """The canonical section ē: each image word maps back to the shortest
    (then dictionary-first) member of its fiber.  Satisfies e∘ē∘e = e and
    ē∘e∘ē = ē, so f <=_L g iff f∘ḡ∘g = f, and f <=_R g iff g∘ḡ∘f = f."""
    rows = []
    for z, path in fibers(e):  # the shortest members come from the least offset
        lo = min(len(x) - len(y) for x, y in path)
        rows.append((z, min(x + z[len(y):] for x, y in path if len(x) - len(y) == lo)))
    return Mk1Element._trusted_make(e.k, rows)


# -- chains and prescribed heights -------------------------------------------------

def dense_chain(k: int, lo: KRational, hi: KRational, count: int) -> list[Mk1Element]:
    """count idempotents strictly between lo and hi in both the R- and
    L-order, with strictly increasing heights.  Witnesses the density of the
    ordering: the canonical codes of intermediate measures are nested."""
    return list(iter_dense_chain(k, lo, hi, count))


def iter_dense_chain(k: int, lo: KRational, hi: KRational, count: int) -> Iterator[Mk1Element]:
    """:func:`dense_chain` one element at a time, in bounded memory: the i-th
    at measure (b + i·a)/k^e, for :func:`_chain_spacing`'s integers, which
    checks the arguments and the largest measure before the first element."""
    a, b, e = _chain_spacing(k, lo, hi, count)
    return (partial_identity(code_with_measure(k, kq(k, b + i * a, e)))
            for i in range(1, count + 1))


def _chain_spacing(k: int, lo: KRational, hi: KRational, count: int) -> tuple[int, int, int]:
    """The integers (a, b, e) with (b + i·a)/k^e = lo + i·(hi - lo)/k^t, i = 1..count,
    for the least k^t above count; OutOfRange if the last is above 1."""
    if lo.base != k or hi.base != k:
        raise BaseMismatch("measures must be in base k")
    if not lo < hi:
        raise OutOfRange("need lo < hi")
    if count < 0:
        raise OutOfRange(f"count must be at least 0, got {count}")
    diff, t = hi - lo, 0
    while k ** t <= count:
        t += 1
    e = max(lo.exp, diff.exp + t)
    a, b = diff.num * k ** (e - diff.exp - t), lo.num * k ** (e - lo.exp)
    if count and b + count * a > k ** e:  # the largest measure
        raise OutOfRange("measures above 1 have no prefix code")
    return a, b, e


def chain_uses_letter(k: int, lo: KRational, hi: KRational, count: int, letter: int) -> bool:
    """Whether a table of :func:`dense_chain` has a letter >= ``letter``, read
    off its measures N_i/k^e, N_i = b + i·a (:func:`_chain_spacing`).  The code
    of 0.d_1 d_2 ... uses the letters below each digit and each digit with a
    nonzero digit after it, so N_i's table has one iff N_i mod k^(p+1) >
    letter·k^p at some place p: one search per place for the least such i."""
    a, b, e = _chain_spacing(k, lo, hi, count)
    for p in range(e):
        m, low = k ** (p + 1), letter * k ** p + 1
        if low >= m:  # no residue below m exceeds letter·k^p
            continue
        first = (a + b) % m  # N_1 mod m; N_i mod m moves on by a
        x = 0 if first >= low else _least(a % m, m, low - first, m - 1 - first)
        if x is not None and x < count:
            return True
    return False


def _least(a: int, m: int, lo: int, hi: int) -> int | None:
    """The least x >= 0 with lo <= a·x mod m <= hi, for 1 <= lo <= hi < m,
    or None.  If no multiple of a lies in [lo, hi], the least x comes from
    the least y with m·y mod a in [-hi mod a, -lo mod a], a problem in
    (m mod a, a) with lower end >= 1 again: Euclid's steps, unwound at the end."""
    steps = []
    while True:
        a %= m
        if not a:
            return None
        x = -(-lo // a)
        if a * x <= hi:
            break
        steps.append((a, m, lo))
        a, m, lo, hi = m % a, a, -hi % a, -lo % a
    for a, m, lo in reversed(steps):
        x = -(-(lo + m * x) // a)
    return x


def element_with_heights(k: int, h_r: KRational, h_l: KRational) -> Mk1Element:
    """An injective element with R-height h_r and L-height h_l.

    Possible exactly when both are zero or both are nonzero with equal digit
    sums modulo k-1.  Then the canonical codes of the two heights are split,
    each at its last word in canonical order (a longest one, so its k children
    go last), until they are equally large, and zipped in that order into a
    bijection from the domain code onto the image code.
    """
    if h_r.base != k or h_l.base != k:
        raise BaseMismatch("heights must be in base k")
    if h_r.is_zero() != h_l.is_zero():
        raise IndexMismatch("zero height pairs only with zero height")
    if not h_r.is_zero() and h_r.digit_sum_mod() != h_l.digit_sum_mod():
        raise IndexMismatch(
            f"digit sums differ mod {k - 1}: "
            f"{h_r.digit_sum_mod()} vs {h_l.digit_sum_mod()}")
    image, domain = (list(code_with_measure(k, h).words) for h in (h_r, h_l))
    for short, other in ((image, domain), (domain, image)):
        while len(short) < len(other):
            short += [w + (a,) for w in [short.pop()] for a in range(k)]
    return Mk1Element._trusted_make(k, zip(domain, image))


# -- separating contexts -----------------------------------------------------------

def separating_context(f: Mk1Element, g: Mk1Element) -> tuple[Mk1Element, Mk1Element]:
    """Contexts (c1, c2) with exactly one of c1∘f∘c2, c1∘g∘c2 zero.

    The surviving sandwich is a single-row table.  Distinct elements always
    admit such a context: they differ on some end, and pinning that end down
    to a finite window kills exactly one of them.  The leaves of the union
    trie of the two domains (:func:`~mk1.words.trie_leaves`) find that window
    in O(rows × depth) steps, not k^depth.
    """
    if f.k != g.k:
        raise AlphabetMismatch("different alphabets")
    k = f.k
    f, g = f.reduced(), g.reduced()
    if f == g:
        raise NotDistinct("elements are equal")
    if f.is_zero or g.is_zero:
        survivor = g if f.is_zero else f
        if len(survivor.rows) == 1:
            return _pinned(k, ()), _pinned(k, ())
        x0 = survivor.rows[0][0]
        return _pinned(k, ()), _pinned(k, x0)
    tags: dict[Word, tuple] = {}  # each domain word with its rows, by side
    for side, e in enumerate((f, g)):
        for x, y in e.rows:
            tags[x] = tags.get(x, ()) + ((side, x, y),)
    depth = max(map(len, tags))
    diff_value = None
    # off every domain word's subtree neither side is defined, so leaves there are left out
    for p, path in trie_leaves(k, tags):
        w = p + (0,) * (depth - len(p))  # f and g each treat all of p's subtree alike
        fv, gv = ([y + w[len(x):] for s, x, y in path if s == side] for side in (0, 1))
        if bool(fv) != bool(gv):
            return _pinned(k, ()), _pinned(k, w)
        if fv != gv and diff_value is None:
            diff_value = (w, fv[0], gv[0])
    if diff_value is None:
        raise CrossCheckFailed("distinct reduced tables agree at full depth")
    x0, y0, y1 = diff_value
    short, long_ = (y0, y1) if len(y0) <= len(y1) else (y1, y0)
    if long_[: len(short)] != short:
        # prefix-incomparable values: pin f's value
        return _pinned(k, y0), _pinned(k, x0)
    # one value extends the other: step off the longer one just past the fork
    a = (long_[len(short)] + 1) % k
    y2 = short + (a,)
    return _pinned(k, y2), _pinned(k, x0)


def _pinned(k: int, w: Word) -> Mk1Element:
    """The one-row table w -> w, the identity for w = (), built unchecked
    from a word of checked tables."""
    return Mk1Element._trusted(k, ((w, w),))
