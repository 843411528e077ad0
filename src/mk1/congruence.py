"""Partitions of prefix codes and their collision measures.

A :class:`PrefixCodeCongruence` partitions a prefix code into classes.  When
the code is the domain of a table map and the classes are its fibers, the
partition describes exactly which pairs of infinite ends the map collapses:
ends c·t and c'·t are identified for c, c' in a common class and t an
arbitrary common tail.

Two exact quantities live here.  The *noncollision measure* sums k**(-length)
of one shortest representative per class; the *collision measure* is its
complement within 1 and also decomposes as (uncovered region) + (mass of the
non-representative words), which :func:`collision_measure` cross-checks.
"""

from __future__ import annotations

from collections.abc import Iterable

from .errors import CrossCheckFailed, NotAClass, NotCanonical
from .kary import KRational, Record, kq_one
from .words import PrefixCode, Word, format_word, mu, word_key, words_of_length


class PrefixCodeCongruence(Record):
    """A partition of ``code`` into classes; ``_trusted(code, classes)``
    takes canonical classes that partition it."""

    __slots__ = ("code", "classes")

    def __post_init__(self):
        seen: set[Word] = set()
        for cls in self.classes:
            if not cls:
                raise NotAClass("empty class")
            if list(cls) != sorted(cls, key=word_key):
                raise NotCanonical("class not canonically sorted")
            seen.update(cls)
        if sum(len(cls) for cls in self.classes) > len(seen):
            raise NotAClass("classes overlap")
        if seen != set(self.code.words):
            raise NotAClass("classes do not partition the code")
        if list(self.classes) != sorted(self.classes, key=lambda c: word_key(c[0])):
            raise NotCanonical("classes not sorted by leading representative")

    @classmethod
    def make(cls, code: PrefixCode, groups: Iterable[Iterable[Word]]) -> "PrefixCodeCongruence":
        sorted_groups = [tuple(sorted(map(tuple, g), key=word_key)) for g in groups]
        if any(not g for g in sorted_groups):
            raise NotAClass("empty class")
        canon = tuple(sorted(sorted_groups, key=lambda c: word_key(c[0])))
        return cls(code, canon)

    @property
    def k(self) -> int:
        return self.code.k

    def min_reps(self) -> tuple[Word, ...]:
        """The shortest (then dictionary-first) representative of each class."""
        return tuple(cls[0] for cls in self.classes)

    def __str__(self) -> str:
        parts = ("{" + ", ".join(format_word(w) for w in cls) + "}" for cls in self.classes)
        return " | ".join(parts)


def noncollision_measure(c: PrefixCodeCongruence) -> KRational:
    """Sum of k**(-length) over one shortest representative per class."""
    return mu(c.k, c.min_reps())


def collision_measure(c: PrefixCodeCongruence) -> KRational:
    """Total mass of collapsed-or-undefined ends: 1 - noncollision.

    Computed directly as mu(uncovered region) + sum over classes of the mass
    of everything except the shortest representative, then cross-checked
    against the complement form.
    """
    k = c.k
    direct = (kq_one(k) - c.code.mu) + mu(k, [w for cls in c.classes for w in cls[1:]])
    dual = kq_one(k) - noncollision_measure(c)
    if direct != dual:
        raise CrossCheckFailed(f"collision measure {direct} differs from 1 - noncollision {dual}")
    return direct


def split_class(c: PrefixCodeCongruence, index: int) -> PrefixCodeCongruence:
    """Refine one class into its k letter-children classes.

    The class {c1, ..., cr} becomes the k classes {c1·a, ..., cr·a}, one per
    letter a, the letters listed by :func:`~mk1.words.words_of_length`
    (TooLarge past 2^20).  The underlying code is refined accordingly, and
    the noncollision measure is unchanged.
    """
    k = c.k
    target = c.classes[index]
    groups = [cls for i, cls in enumerate(c.classes) if i != index]
    groups.extend(tuple(w + a for w in target) for a in words_of_length(k, 1))  # stays sorted
    words = tuple(sorted((w for cls in groups for w in cls), key=word_key))
    classes = tuple(sorted(groups, key=lambda cls: word_key(cls[0])))
    return PrefixCodeCongruence._trusted(PrefixCode._trusted(k, words), classes)
