"""The length-equality-preserving submonoids: predicates, indices, witnesses.

An element preserves length equality (is *plep*) when equally long inputs
get equally long outputs — for a table, when len(image) - len(domain word)
is the same in every row, a quantity invariant under splitting and merging.
Total plep elements (domain measure 1) form the *tlep* submonoid.  The zero
element counts as plep but not tlep.

Within these submonoids the D-class of a nonzero element is pinned down by
a single positive integer prime to k: the numerator of its R-height, the
measure of its image ideal.  :func:`plep_d_witness` makes the equivalence
concrete, producing a conjugating pair built from level-extended image
codes; :func:`plep_element_with_index` realizes any admissible index.
"""

from __future__ import annotations

from dataclasses import dataclass

from .elements import Mk1Element, Row, image_ideal, restrict_to_length
from .errors import (
    AlphabetMismatch,
    CrossCheckFailed,
    DivisibleIndex,
    IndexMismatch,
    NotFixedLength,
    NotPlep,
    OutOfRange,
    RepNotInCode,
    ZeroElement,
)
from .kary import kq_one
from .words import PrefixCode, Word, check_cap, words_of_length


def is_plep(e: Mk1Element) -> bool:
    return len({len(y) - len(x) for x, y in e.rows}) <= 1


def is_tlep(e: Mk1Element) -> bool:
    return is_plep(e) and e.domain_code.mu == kq_one(e.k)


def _require_plep(e: Mk1Element) -> None:
    if e.is_zero:
        raise ZeroElement("the zero element has no index")
    if not is_plep(e):
        raise NotPlep("element does not preserve length equality")


def d_index_plep(e: Mk1Element) -> int:
    """The numerator of the R-height, the measure of the image ideal."""
    _require_plep(e)
    return image_ideal(e).mu.num


def eq_D_plep(f: Mk1Element, g: Mk1Element) -> bool:
    if f.k != g.k:
        raise AlphabetMismatch("different alphabets")
    if f.is_zero or g.is_zero:
        return f.is_zero and g.is_zero
    return d_index_plep(f) == d_index_plep(g)


def eta_idempotent(q: PrefixCode, q0: Word) -> Mk1Element:
    """The total idempotent fixing the fixed-length code q and sending every
    other word of that length to the representative q0."""
    q0 = tuple(q0)
    if not q.words:
        raise NotFixedLength("need a nonempty fixed-length code")
    lengths = {len(w) for w in q.words}
    if len(lengths) != 1:
        raise NotFixedLength("code words must all have the same length")
    if q0 not in q:
        raise RepNotInCode("representative must belong to the code")
    return Mk1Element.make(q.k, [(w, w) for w in q.words] + _level_rest(q.k, q.words, q0))


def plep_element_with_index(k: int, i: int) -> Mk1Element:
    """A total plep idempotent whose D-index is i (i must be prime to k)."""
    if i < 1:
        raise OutOfRange("index must be positive")
    if i % k == 0:
        raise DivisibleIndex(f"index must not be divisible by {k}")
    n = 1
    while k ** n <= i:
        n += 1
    level = list(words_of_length(k, n))
    return Mk1Element.make(k, [(w, w) for w in level[:i]] + [(w, level[0]) for w in level[i:]])


def _level_rest(k: int, code: tuple[Word, ...], filler: Word) -> list[Row]:
    """The rows sending each word of the fixed-length code's level that is
    not in the code to filler."""
    members = set(code)
    return [(w, filler) for w in words_of_length(k, len(code[0])) if w not in members]


def common_image_refinement(e1: Mk1Element, e2: Mk1Element) -> tuple[Mk1Element, Mk1Element]:
    """Split two plep tables until their image codes are fixed-length and
    equally large.  Possible exactly when the D-indices agree; the two image
    word lengths still differ unless the R-heights were equal.  Each side is
    split once, both counted against the 2^20 cap before either is split."""
    if e1.k != e2.k:
        raise AlphabetMismatch("different alphabets")
    _require_plep(e1)
    _require_plep(e2)
    h1, h2 = image_ideal(e1).mu, image_ideal(e2).mu
    if h1.num != h2.num:
        raise IndexMismatch(f"D-indices differ: {h1.num} vs {h2.num}")
    # with images of length L the code has h·k^L = h.num·k^(L - h.exp) words
    big = max(max(len(y) for _, y in e.rows) - h.exp for e, h in ((e1, h1), (e2, h2)))
    sides = ((e1, h1.exp + big), (e2, h2.exp + big))
    for e, level in sides:  # a row's image y is split to length level
        check_cap(e.k, (level - len(y) for _, y in e.rows),
                  "the refined tables would have more than 2^20 rows")
    # and its domain word to level less the shift |y| - |x| all rows share
    r1, r2 = (restrict_to_length(e, level - len(e.rows[0][1]) + len(e.rows[0][0]))
              for e, level in sides)
    return r1, r2


@dataclass(frozen=True, slots=True)
class PlepWitness:
    """Conjugators realizing a D-equivalence between plep elements.

    q1 and q2 are the level-extended image codes of the two inputs; b maps
    q1 bijectively onto q2 (totally, with a constant filler, when both
    inputs are tlep) and b_prime is its partner the other way.  Composing
    b_prime∘b and b∘b_prime yields the canonical idempotents over q1 and q2
    respectively, linking the two elements inside the submonoid.
    """

    b: Mk1Element
    b_prime: Mk1Element
    q1: PrefixCode
    q2: PrefixCode
    tlep: bool


def plep_d_witness(e1: Mk1Element, e2: Mk1Element) -> PlepWitness:
    """Conjugators linking two plep elements of equal D-index.

    q1 and q2 are the image codes (:func:`~mk1.elements.image_ideal`) of the
    two tables of :func:`common_image_refinement`: every refined image has
    one length, so each code holds all of its table's distinct images, and
    b zips q1 onto q2 in canonical order."""
    r1, r2 = common_image_refinement(e1, e2)
    k = e1.k
    q1, q2 = image_ideal(r1), image_ideal(r2)
    if len(q1) != len(q2):
        raise CrossCheckFailed(f"extended image codes differ in size: {len(q1)} vs {len(q2)}")
    total = is_tlep(e1) and is_tlep(e2)
    rows_b, rows_bp = list(zip(q1, q2)), list(zip(q2, q1))
    if total:
        rows_b += _level_rest(k, q1.words, q2.words[0])
        rows_bp += _level_rest(k, q2.words, q1.words[0])
    return PlepWitness(
        b=Mk1Element.make(k, rows_b),
        b_prime=Mk1Element.make(k, rows_bp),
        q1=q1,
        q2=q2,
        tlep=total,
    )
