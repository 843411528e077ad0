"""Words over a k-letter alphabet and finite prefix codes.

Words are plain tuples of 0-based letter indices; the empty tuple is the
empty word.  Letters print as 'a', 'b', 'c', ... and the empty word prints
as '^'.  Python's tuple ordering coincides with the dictionary order used
throughout (a prefix precedes its extensions, otherwise the first differing
letter decides), and the canonical display order sorts by length first.

A :class:`PrefixCode` is a finite set of pairwise prefix-incomparable words
together with the alphabet size.  Its Bernoulli measure mu(P) = sum over
words of k**(-length) is exact (:class:`~mk1.kary.KRational`); a prefix code
is maximal iff the measure is 1.  The right ideal generated by P is P·A*,
and two ideals are essentially equal when they contain the same infinite
ends — decided by measure below: the code words extending w cover w·A^ω
exactly when their measure is k**(-|w|).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Iterable, Iterator, Sequence
from itertools import chain, product

from .errors import (
    AlphabetMismatch,
    BaseTooSmall,
    ChildrenMissing,
    NotCanonical,
    NotInCode,
    NotPrefixCode,
    OutOfRange,
    ParseError,
    TooLarge,
)
from .kary import KRational, Record, kq, kq_one

Word = tuple[int, ...]


def word_key(w: Word) -> tuple[int, Word]:
    """Sort key for the canonical (length, dictionary) display order."""
    return (len(w), w)


def words_of_length(k: int, n: int) -> Iterator[Word]:
    """Every word of length n over k letters, in dictionary order; a level of
    more than 2^20 words is refused with TooLarge at the call, unlisted."""
    check_cap(k, [n], f"a level of {n} letters over {k} letters has more than 2^20 words")
    return product(range(k), repeat=n)


def trie_leaves(k: int, tags: dict[Word, Sequence]) -> Iterator[tuple[Word, Sequence]]:
    """The leaves, in dictionary order, of the trie below the minimal words
    where each inner node has all k children, each with the tags of the
    words on its path (tuples, or lists, all alike) added up, shortest
    first.  The library's one trie walk: a word's extensions follow it at
    once in dictionary order, so one pointer into the sorted words tells if
    a node is a word and if it is inner, and a minimal word that nothing
    extends is a leaf at once.  The k child letters are listed once, by
    :func:`words_of_length`, at the first inner node: a walk with none
    costs nothing in k, and one with an inner node past 2^20 letters is
    refused with TooLarge.  Cost: one sort, one look per node and one path
    copy per word below another."""
    ws, i, n = sorted(tags), 0, len(tags)
    ws.append((-1,))  # after the last word; below the root it is no node and extends none
    children = None
    while i < n:
        p = ws[i]  # the first word left is minimal
        i += 1
        if i == n or ws[i][:len(p)] != p:
            yield p, tags[p]
            continue
        children = children or [*words_of_length(k, 1)][::-1]  # listed at the first inner node
        stack = [(p + a, tags[p]) for a in children]
        while stack:
            p, path = stack.pop()
            if ws[i] == p:
                path = path + tags[p]
                i += 1
            if ws[i][:len(p)] == p:  # the next word extends p
                stack += [(p + a, path) for a in children]
            else:
                yield p, path


def check_cap(k: int, depths: Iterable[int], message: str) -> None:
    """Raise TooLarge(message) when the rows or words to be built, k**d for
    each of the depths d, are more than 2^20."""
    check_count(sum(k ** min(d, 21) for d in depths), message)  # k >= 2, so k**21 is over the cap


def check_count(n: int, message: str) -> None:
    """Raise TooLarge(message) when n, the rows or words to be built, is more than 2^20."""
    if n > 1 << 20:
        raise TooLarge(message)


def check_letter_count(n: int, message: str) -> None:
    """Raise TooLarge(message) when n, the letters of the words to be built,
    is more than 2^25."""
    if n > 1 << 25:
        raise TooLarge(message)


def format_word(w: Word) -> str:
    if not w:
        return "^"
    if any(j >= 26 for j in w):
        raise OutOfRange("letter display supports alphabets up to 26 letters")
    return "".join(chr(ord("a") + j) for j in w)


_LETTERS = "abcdefghijklmnopqrstuvwxyz"
_INDICES = bytes.maketrans(_LETTERS.encode(), bytes(range(26)))


def parse_word(text: str, k: int) -> Word:
    text = text.strip()
    if text == "^":
        return ()
    if not text:
        raise ParseError("empty word text (use '^' for the empty word)")
    bad = text.strip(_LETTERS[:k])  # starts at the first letter outside the alphabet
    if bad:
        raise ParseError(f"letter {bad[0]!r} invalid for a {k}-letter alphabet")
    return tuple(text.encode().translate(_INDICES))


def parse_natural(digits: str) -> int:
    """The value of an ASCII decimal numeral of at most 18 digits: ``int``
    refuses numerals past 4300 digits, and no alphabet, variable count or
    index the library can work with comes near 10^18."""
    if not (digits.isascii() and digits.isdigit()):
        raise ParseError(f"expected a decimal number, got {digits!r}")
    if len(digits) > 18:
        raise ParseError(f"a number of {len(digits)} digits is out of reach")
    return int(digits)


def parse_header(line: str) -> int:
    """k >= 2 from a "k <int>" header line; "" stands for a missing header."""
    if not line:
        raise ParseError("missing 'k <int>' header")
    head = line.split()
    if len(head) != 2 or head[0] != "k" or not (head[1].isascii() and head[1].isdigit()):
        raise ParseError(f"expected 'k <int>' header, got {line!r}")
    k = parse_natural(head[1])
    if k < 2:
        raise ParseError("alphabet needs at least two letters")
    return k


def parse_code(text: str) -> PrefixCode:
    """A "k <int>" header, then one word per line; '#' starts a comment.
    Each word is checked once, here, and the code is built without its
    constructor's checks."""
    lines = [line for raw in text.splitlines() if (line := raw.split("#", 1)[0].strip())]
    if not lines:
        raise ParseError("empty code file")
    k = parse_header(lines[0])
    words = sorted({parse_word(line, k) for line in lines[1:]}, key=word_key)
    if not is_prefix_code(words):
        raise NotPrefixCode("not a prefix code")
    return PrefixCode._trusted(k, tuple(words))


def check_alphabet(k: int) -> None:
    """Raise BaseTooSmall unless k, an alphabet size, is an int of at least 2."""
    if type(k) is not int:
        raise BaseTooSmall(f"alphabet size must be an integer, got {k!r}")
    if k < 2:
        raise BaseTooSmall(f"alphabet size must be at least 2, got {k}")


def check_letters(k: int, words: Iterable[Word]) -> None:
    """Raise OutOfRange unless every letter of every word is in range(k)."""
    bad = [j for j in set(chain.from_iterable(words)) if not 0 <= j < k]
    if bad:
        raise OutOfRange(f"letter index {min(bad)} out of range for k={k}")


def is_prefix_code(words: Iterable[Word]) -> bool:
    """True iff no word is a proper prefix of another (duplicates rejected)."""
    ws = sorted(words)
    for u, v in zip(ws, ws[1:]):
        if v[:len(u)] == u:
            return False
    return True


class PrefixCode(Record):
    """A finite prefix code over a k-letter alphabet, canonically sorted;
    ``_trusted(k, words)`` takes words that are one already."""

    __slots__ = ("k", "words")

    def __post_init__(self):
        check_alphabet(self.k)
        check_letters(self.k, self.words)
        if list(self.words) != sorted(set(self.words), key=word_key):
            raise NotCanonical("words must be canonically sorted and distinct")
        if not is_prefix_code(self.words):
            raise NotPrefixCode("not a prefix code")

    @classmethod
    def make(cls, k: int, words: Iterable[Word]) -> "PrefixCode":
        return cls(k, tuple(sorted(set(map(tuple, words)), key=word_key)))

    def __iter__(self) -> Iterator[Word]:
        return iter(self.words)

    def __len__(self) -> int:
        return len(self.words)

    def __contains__(self, w) -> bool:
        w = tuple(w)
        i = bisect_left(self.words, word_key(w), key=word_key)
        return i < len(self.words) and self.words[i] == w

    @property
    def mu(self) -> KRational:
        return mu(self.k, self.words)

    def __str__(self) -> str:
        return "{" + ", ".join(format_word(w) for w in self.words) + "}"


def mu(k: int, words: Iterable[Word]) -> KRational:
    """Bernoulli measure of a finite set of words: sum of k**(-length).

    Input is treated as a set; duplicates do not count twice.
    """
    ws = set(map(tuple, words))
    top = max(map(len, ws), default=0)
    return kq(k, sum([k ** (top - len(w)) for w in ws]), top)


# -- essential containment by measure ------------------------------------------

def ideal_ess_leq(p1: PrefixCode, p2: PrefixCode) -> bool:
    """Essential containment of right ideals: ends(P1 A*) within ends(P2 A*).

    In dictionary order a code word that is a prefix of w sits just before
    w, and the code words extending w form one run from w on; the run covers
    w·A^ω iff its measure is k**(-|w|).  Each w costs two bisects and its own
    run, so the cost is linear in the codes after one sort.
    """
    if p1.k != p2.k:
        raise AlphabetMismatch("different alphabets")
    k = p2.k
    ws = sorted(p2.words)
    for w in p1.words:
        i = bisect_right(ws, w)
        if i and w[:len(u := ws[i - 1])] == u:
            continue
        if mu(k, ws[i:bisect_left(ws, w + (k,), i)]) != kq(k, 1, len(w)):
            return False
    return True


def ideal_ess_eq(p1: PrefixCode, p2: PrefixCode) -> bool:
    return ideal_ess_leq(p1, p2) and ideal_ess_leq(p2, p1)


# -- measure-preserving rewriting ---------------------------------------------

def replace_r1(code: PrefixCode, c: Word) -> PrefixCode:
    """Replace the code word c by its k children c·a, listed by
    :func:`words_of_length`. Preserves the measure."""
    c = tuple(c)
    if c not in code:
        raise NotInCode(f"{format_word(c)} is not in the code")
    rest = [w for w in code.words if w != c]
    rest.extend(c + a for a in words_of_length(code.k, 1))
    return PrefixCode._trusted(code.k, tuple(sorted(rest, key=word_key)))


def replace_r2(code: PrefixCode, c: Word) -> PrefixCode:
    """Inverse step: merge the full sibling family c·A back into c."""
    c = tuple(c)
    children = {c + a for a in words_of_length(code.k, 1)}
    if not children <= set(code.words):
        raise ChildrenMissing(f"code lacks the full sibling family of {format_word(c)}")
    rest = [w for w in code.words if w not in children]
    rest.append(c)
    return PrefixCode._trusted(code.k, tuple(sorted(rest, key=word_key)))


# -- codes of prescribed measure ------------------------------------------------

def code_with_measure(k: int, h: KRational) -> PrefixCode:
    """The canonical prefix code P_h with mu(P_h) = h, for 0 <= h <= 1.

    Reading h = 0.d1 d2 ... dn in base k, block i contributes the words
    p_i · {first d_i letters} where p_i is the length-(i-1) prefix built by
    appending, at step j, the letter with index d_j.  The code has exactly
    d1 + ... + dn words of 1·d1 + ... + n·dn letters, counted against the
    2^20 and 2^25 caps before any word is built; h = 0 gives the empty code
    and h = 1 gives {^}.
    Measures g < h yield nested ideals: P_g lies inside P_h · A*.  The
    words come out in canonical order, so the code is built unchecked.
    """
    if h.base != k:
        raise OutOfRange(f"measure is in base {h.base}, expected {k}")
    one = kq_one(k)
    if h > one:
        raise OutOfRange("measures above 1 have no prefix code")
    if h == one:
        return PrefixCode._trusted(k, ((),))
    _, frac = h.digits()
    check_count(sum(frac), "a code of this measure would have more than 2^20 words")
    check_letter_count(sum(i * d for i, d in enumerate(frac, 1)),
                       "a code of this measure would have more than 2^25 letters")
    # a block's prefix is the digits before it, so a zero digit costs no word or copy
    return PrefixCode._trusted(k, tuple([frac[:i] + (j,) for i, d in enumerate(frac)
                                         for j in range(d)]))
