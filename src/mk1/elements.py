"""Elements of the monoid M_{k,1} as finite tables.

A table is a finite list of rows x -> y where the left-hand words form a
prefix code and the right-hand words are arbitrary.  It denotes the partial
map sending x·t to y·t for every tail t — a morphism of right ideals of the
free monoid.  Tables denote the same monoid element exactly when they merge
to the same *reduced* form: whenever all k rows x·a -> y·a (one per letter a)
are present they collapse into the single row x -> y, and the merge pass
behind :meth:`Mk1Element.make` iterates this to its unique fixpoint;
:func:`r2_normal_form` is the domain of a code's reduced partial identity.
No other module reduces rows, or splits rows or code words to a level.

Equality on :class:`Mk1Element` is structural, so monoid equality is
structural equality of reduced elements; every public constructor here
except :func:`image_code_restriction` and :func:`restrict_to_length`
returns reduced tables.  The restrictions deliberately return equivalent
*split* tables, since their whole point is reshaping the rows; the
restriction's one builder is :func:`image_code_restriction`, which
:func:`part` calls when it must split.  Fibers have one source, one walk
of the image trie: :func:`fibers` tags each image with its rows, for the
restriction and the section, and :func:`fiber_offsets` with their offsets
|x| - |y|, for heights and the D-index, which read only lengths.

Inputs are checked once, where they enter: direct construction,
:meth:`Mk1Element.make` and :func:`parse_table`.  ``make`` sorts its rows
once, in dictionary order, checks them in one pass over adjacent pairs and
hands them to the merge pass; :func:`compose` sorts its distinct rows and
does the same.  :func:`apply` and f's side of :func:`compose` look words up
in one dictionary-ordered view per element, sorted on its first lookup.
Tables, codes and partitions that this module derives from a checked
element are valid and canonically ordered by construction, so they are
built without checks, and rows from checked values that need reducing go
through :meth:`Mk1Element._trusted_make`.

The empty table is the zero element (nowhere-defined map); {^ -> ^} is the
identity.
"""

from __future__ import annotations

import enum
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable, Iterator

from .congruence import PrefixCodeCongruence
from .errors import (
    AlphabetMismatch,
    BaseTooSmall,
    DomainNotPrefixCode,
    LengthTooSmall,
    NotCanonical,
    ParseError,
)
from .words import (
    PrefixCode,
    Word,
    _unchecked,
    check_cap,
    check_count,
    check_letter_count,
    check_letters,
    format_word,
    is_prefix_code,
    parse_header,
    parse_word,
    trie_leaves,
    word_key,
    words_of_length,
)

Row = tuple[Word, Word]


class NoValue(enum.Enum):
    """Non-word results of applying a table to a finite word."""

    UNDEFINED = "undefined"
    NEED_LONGER = "need-longer"


@dataclass(frozen=True, slots=True)
class Mk1Element:
    """A table over a k-letter alphabet, rows sorted by domain word.

    Direct construction validates but does not reduce; use :meth:`make` (or
    any higher-level constructor) to get the canonical reduced table.
    """

    k: int
    rows: tuple[Row, ...]
    _view: tuple | None = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.k < 2:
            raise BaseTooSmall("alphabet needs at least two letters")
        check_letters(self.k, (w for row in self.rows for w in row))
        doms = [x for x, _ in self.rows]
        if doms != sorted(set(doms), key=word_key):
            raise NotCanonical("rows must be sorted by domain word, without repeats")
        if not is_prefix_code(doms):
            raise DomainNotPrefixCode("domain words must form a prefix code")

    @classmethod
    def make(cls, k: int, rows: Iterable[Row]) -> "Mk1Element":
        """Canonical reduced element from an arbitrary (valid) row iterable.

        The constructor's checks, in its order, over one sort: the distinct
        rows (words may be any sequences) in dictionary order, where a
        repeated domain word sits next to its twin and a word next to its
        first extension, so one pass over adjacent pairs finds both.  The
        sorted rows then go straight to the merge pass, :func:`_merge_rows`.
        """
        if k < 2:
            raise BaseTooSmall("alphabet needs at least two letters")
        rows = sorted(dict.fromkeys((tuple(x), tuple(y)) for x, y in rows))
        check_letters(k, chain.from_iterable(rows))
        prefixed = False
        for (u, _), (v, _) in zip(rows, rows[1:]):
            if v[:len(u)] == u:
                if u == v:
                    raise NotCanonical("rows must be sorted by domain word, without repeats")
                prefixed = True
        if prefixed:
            raise DomainNotPrefixCode("domain words must form a prefix code")
        return cls._trusted(k, _merge_rows(k, rows))

    # _trusted(k, rows): rows sorted by domain word, whose domain words form a prefix code
    _trusted = classmethod(_unchecked)

    @classmethod
    def _trusted_make(cls, k: int, rows: Iterable[Row]) -> "Mk1Element":
        """``make`` unchecked: distinct tuple rows, domain words a prefix code."""
        return cls._trusted(k, _merge_rows(k, sorted(rows)))

    @property
    def is_zero(self) -> bool:
        return not self.rows

    @property
    def domain_code(self) -> PrefixCode:
        return PrefixCode._trusted(self.k, tuple([x for x, _ in self.rows]))

    @property
    def image_words(self) -> tuple[Word, ...]:
        """Right-hand words in row order (repeats preserved)."""
        return tuple([y for _, y in self.rows])

    def reduced(self) -> "Mk1Element":
        e = Mk1Element._trusted_make(self.k, self.rows)
        return self if e.rows == self.rows else e

    def __matmul__(self, other: "Mk1Element") -> "Mk1Element":
        return compose(self, other)

    def __str__(self) -> str:
        return format_table(self)


def _merge_rows(k: int, rows: Iterable[Row]) -> tuple[Row, ...]:
    """The reduced table of distinct tuple rows already in dictionary order,
    whose domain words form a prefix code.

    One stack pass: each row is pushed, and while the top k rows are
    p·a -> s·a for a = 0..k-1 they give way to p -> s.  Once the rows below
    each member have merged, a family's rows sit next to each other in that
    order, the last member on top, so each merge is made as soon as it can
    be.  The stack stays in dictionary order, and a stable sort by domain
    length gives the canonical order.
    """
    last, before = k - 1, k - 2
    stack: list[Row] = []
    for x, y in rows:
        # last letters before stems: comparing stems costs their length; the
        # row below x has a nonempty domain word, but its image may be empty
        while (x and y and x[-1] == y[-1] == last and len(stack) >= k - 1
               and stack[-1][1] and stack[-1][0][-1] == stack[-1][1][-1] == before):
            p, s = x[:-1], y[:-1]
            if any(stack[a - k + 1] != (p + (a,), s + (a,)) for a in range(k - 1)):
                break
            del stack[1 - k:]
            x, y = p, s
        stack.append((x, y))
    stack.sort(key=lambda row: len(row[0]))
    return tuple(stack)


def _domain_key(row: Row):
    return word_key(row[0])


def _by_word(e: Mk1Element) -> tuple[tuple[Word, ...], tuple[Word, ...]]:
    """e's domain words and images in dictionary order: sorted once, kept in e."""
    view = e._view
    if view is None:
        view = tuple(zip(*sorted(e.rows))) or ((), ())
        object.__setattr__(e, "_view", view)
    return view


# -- constructors ---------------------------------------------------------------

def zero_element(k: int) -> Mk1Element:
    return Mk1Element(k, ())


def identity_element(k: int) -> Mk1Element:
    return Mk1Element(k, (((), ()),))


def partial_identity(code: PrefixCode) -> Mk1Element:
    """The idempotent fixing code·A* pointwise and undefined elsewhere."""
    return Mk1Element._trusted_make(code.k, [(w, w) for w in code.words])


def r2_normal_form(code: PrefixCode) -> PrefixCode:
    """Merge sibling families until none remain (the minimal representative):
    the domain of the reduced partial identity on the code."""
    return partial_identity(code).domain_code


# -- applying and composing ------------------------------------------------------

def apply(e: Mk1Element, w: Word):
    """Value of the table map at w: a word, UNDEFINED, or NEED_LONGER.

    NEED_LONGER means w is a proper prefix of some domain word, so the map is
    defined on part of w·A* but w itself is too short to determine the value.
    Two bisects in e's dictionary-ordered view: the one domain word that can
    be a prefix of w sits at or before w, and the one that can extend it next.
    """
    w = tuple(w)
    if w and not (0 <= min(w) and max(w) < e.k):  # check_letters names the bad letter
        check_letters(e.k, (w,))
    ws, ys = _by_word(e)
    i = bisect_right(ws, w)
    if i and w[:len(x := ws[i - 1])] == x:
        return ys[i - 1] + w[len(x):]
    return NoValue.NEED_LONGER if i < len(ws) and ws[i][:len(w)] == w else NoValue.UNDEFINED


def compose(f: Mk1Element, g: Mk1Element) -> Mk1Element:
    """The element f∘g (g applied first), reduced.

    In dictionary order the domain word of f that is a prefix of an image y,
    if any, sits just before y, and the domain words w that extend y follow
    it as one slice, ending before y·k; each gives the row x·w[|y|:] -> f(w).
    A row whose image has neither leaves f's domain ideal and dies.  The
    rows are distinct, since g's domain is a prefix code, so one sort puts
    them in order for the merge pass behind :meth:`Mk1Element.make`.  Cost:
    two bisects per row of g in f's view (sorted on its first lookup), plus
    one row per matched domain word, then that sort and pass."""
    if f.k != g.k:
        raise AlphabetMismatch(f"cannot compose over {f.k} and {g.k} letters")
    k = f.k
    ws, ys = _by_word(f)
    out: list[Row] = []
    for x, y in g.rows:
        i = bisect_right(ws, y)
        if i and y[:len(w := ws[i - 1])] == w:
            out.append((x, ys[i - 1] + y[len(w):]))
        else:
            j = bisect_left(ws, y + (k,), i)
            out += [(x + w[len(y):], z) for w, z in zip(ws[i:j], ys[i:j])]
    out.sort()
    return Mk1Element._trusted(k, _merge_rows(k, out))


# -- canonical restrictions ------------------------------------------------------

def _rows_by_image(e: Mk1Element) -> dict[Word, list[Word]]:
    """Each image of e with the domain words of its rows, in row order: the
    groups come in the order of their first rows, each sorted."""
    groups: dict[Word, list[Word]] = {}
    for x, y in e.rows:
        groups.setdefault(y, []).append(x)
    return groups


def fibers(e: Mk1Element) -> Iterator[tuple[Word, list[Row]]]:
    """Each image-code word z of e, with the rows x -> y of e whose image y
    is a prefix of z: z's fiber is {x·z[|y|:]}, of lengths |x| - |y| + |z|.

    The leaves of the image trie, each image tagged with its rows
    (:func:`~mk1.words.trie_leaves`); no fiber word is built."""
    rows_of: dict[Word, list[Row]] = {}
    for row in e.rows:
        rows_of.setdefault(row[1], []).append(row)
    return trie_leaves(e.k, rows_of)


def fiber_offsets(e: Mk1Element) -> Iterator[tuple[Word, list[int]]]:
    """The :func:`fibers` walk with each image y tagged by the offsets
    |x| - |y| of its rows instead, in a list: z's fiber has the lengths
    |z| + offset, which is all that heights and length bounds read."""
    offsets: dict[Word, list[int]] = {}
    for x, y in e.rows:
        offsets.setdefault(y, []).append(len(x) - len(y))
    return trie_leaves(e.k, offsets)


def image_code_restriction(e: Mk1Element) -> Mk1Element:
    """Split rows until the image words form a prefix code (repeats allowed):
    the rows x·z[|y|:] -> z over the :func:`fibers` of e, sorted by domain,
    refused before any is built when there are more than 2^20 or their
    domain words have more than 2^25 letters, both counted on the walk.  The
    table denotes the same element but is not reduced; it is e when the
    images already form a prefix code."""
    if is_prefix_code(dict.fromkeys(e.image_words)):
        return e
    walk = list(fibers(e))
    check_count(sum(len(path) for _, path in walk),
                "the image-code restriction would have more than 2^20 rows")
    check_letter_count(sum(len(x) - len(y) + len(z) for z, path in walk for x, y in path),
                       "the image-code restriction would have more than 2^25 domain letters")
    rows = sorted([(x + z[len(y):], z) for z, path in walk for x, y in path], key=_domain_key)
    return Mk1Element._trusted(e.k, tuple(rows))


def image_code(e: Mk1Element) -> PrefixCode:
    """The prefix code generating the image ideal (empty for zero): the
    leaves of the image trie, which the walk gives in dictionary order, so
    a stable sort by length puts them in canonical order."""
    leaves = (z for z, _ in trie_leaves(e.k, dict.fromkeys(e.image_words, ())))
    return PrefixCode._trusted(e.k, tuple(sorted(leaves, key=len)))


def image_ideal(e: Mk1Element) -> PrefixCode:
    """The minimal image words, which generate the image ideal (empty for zero).

    In dictionary order every word between a word and its extension extends
    it too, so a word is minimal iff the last kept word is not its prefix;
    the kept words stay in that order, so a stable sort by length puts them
    in canonical order."""
    kept: list[Word] = []
    last = None
    for y in sorted(set(e.image_words)):
        if last is None or y[:len(last)] != last:
            kept.append(y)
            last = y
    return PrefixCode._trusted(e.k, tuple(sorted(kept, key=len)))


def part(e: Mk1Element) -> PrefixCodeCongruence:
    """The fiber partition of the image-code restriction of e.

    Classes group domain words with equal images; together with a common
    tail they are exactly the end pairs the map collapses.  The restriction
    is e itself when the images form a prefix code (φ_B's do for m, n >= 1),
    whose rows are grouped once, and :func:`image_code_restriction`'s table
    otherwise.  Its domain words grouped by image are canonical classes:
    each group is sorted, and the groups come in the order of their first
    words.
    """
    groups = _rows_by_image(e)
    if not is_prefix_code(groups):
        e = image_code_restriction(e)
        groups = _rows_by_image(e)
    return PrefixCodeCongruence._trusted(e.domain_code, tuple(map(tuple, groups.values())))


def restrict_to_length(e: Mk1Element, m: int) -> Mk1Element:
    """Split each row x -> y into the rows x·s -> y·s over the words s of
    length m - |x|, refused before any row past 2^20 is built.  Requires m at
    least the longest domain word; the result denotes the same element (not
    reduced).  The library's one splitter to a level, of rows and (through
    :func:`~mk1.reductions.complete_to_length`) of code words: each distinct
    depth is listed once, and in dictionary order a domain word's splits
    follow it at once, so the rows come out in order."""
    longest = max((len(x) for x, _ in e.rows), default=0)
    if m < longest:
        raise LengthTooSmall(f"cannot shorten domain words of length {longest} to {m}")
    depths = [m - len(x) for x, _ in e.rows]
    check_cap(e.k, depths, f"restricting to length {m} would give more than 2^20 rows")
    tails = {d: tuple(words_of_length(e.k, d)) for d in set(depths)}
    rows = [(x + s, y + s) for x, y in sorted(e.rows) for s in tails[m - len(x)]]
    return Mk1Element._trusted(e.k, tuple(rows))


# -- predicates ------------------------------------------------------------------

def is_injective(e: Mk1Element) -> bool:
    """True iff the images are distinct and pairwise prefix-incomparable."""
    return is_prefix_code(e.image_words)


def is_idempotent(e: Mk1Element) -> bool:
    e = e.reduced()
    return compose(e, e) == e


# -- text format -----------------------------------------------------------------

def format_table(e: Mk1Element) -> str:
    """Multi-line text form: a ``k`` header line, then one 'x -> y' row per line."""
    lines = [f"k {e.k}"]
    lines.extend(f"{format_word(x)} -> {format_word(y)}" for x, y in e.rows)
    return "\n".join(lines)


def parse_table(text: str) -> Mk1Element:
    """Parse the :func:`format_table` form.

    Blank lines and lines starting with '#' are ignored.  Rows need not be
    sorted; the element is validated but not reduced, so normal forms remain
    an explicit, observable step.  Each row is checked once, here, and the
    element is built without its constructor's checks.
    """
    lines = (line for line in map(str.strip, text.splitlines())
             if line and not line.startswith("#"))
    k = parse_header(next(lines, ""))
    rows: list[Row] = []
    for line in lines:
        if "->" not in line:
            raise ParseError(f"expected 'x -> y' row, got {line!r}")
        left, _, right = line.partition("->")
        rows.append((parse_word(left, k), parse_word(right, k)))
    rows.sort(key=_domain_key)
    doms = [x for x, _ in rows]
    if any(u == v for u, v in zip(doms, doms[1:])):  # equal words sort next to each other
        raise ParseError("repeated domain word")
    if not is_prefix_code(doms):
        raise DomainNotPrefixCode("domain words must form a prefix code")
    return Mk1Element._trusted(k, tuple(rows))
