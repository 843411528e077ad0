"""Exception hierarchy.

Domain errors derive from :class:`Mk1Error` and carry a stable reason code
(the class name) so the command-line front end can print a named diagnostic
and exit with status 2.  Malformed *textual* input is a :class:`ParseError`
instead, which the front end maps to exit status 1.  The errors the checked
constructors raise for malformed values also subclass ``ValueError``.
"""


class Mk1Error(Exception):
    """Base class for domain errors raised by this package."""

    @property
    def reason(self) -> str:
        return type(self).__name__


class ParseError(ValueError):
    """Malformed textual input (words, tables, rationals, formulas)."""


# -- exact k-ary arithmetic ------------------------------------------------

class BaseTooSmall(Mk1Error, ValueError):
    pass


class BaseMismatch(Mk1Error):
    pass


class NegativeResult(Mk1Error, ValueError):
    pass


class ZeroValue(Mk1Error):
    pass


class NotCanonical(Mk1Error, ValueError):
    pass


# -- words and prefix codes ------------------------------------------------

class OutOfRange(Mk1Error, ValueError):
    pass


class NotInCode(Mk1Error):
    pass


class ChildrenMissing(Mk1Error):
    pass


class NotPrefixCode(Mk1Error, ValueError):
    pass


# -- element tables ----------------------------------------------------------

class DomainNotPrefixCode(NotPrefixCode):
    pass


class LengthTooSmall(Mk1Error):
    pass


class AlphabetMismatch(Mk1Error):
    pass


# -- congruences and Green structure -----------------------------------------

class NotAClass(Mk1Error, ValueError):
    pass


class IndexMismatch(Mk1Error):
    pass


class NotDistinct(Mk1Error):
    pass


class ZeroElement(Mk1Error):
    pass


# -- length-equality-preserving submonoids ------------------------------------

class NotPlep(Mk1Error):
    pass


class NotFixedLength(Mk1Error):
    pass


class RepNotInCode(Mk1Error):
    pass


class DivisibleIndex(Mk1Error):
    pass


class UnknownGate(Mk1Error):
    pass


class EmptyTarget(Mk1Error):
    pass


# -- measure engine and reductions --------------------------------------------

class EmptyLanguage(Mk1Error):
    pass


class ArityMismatch(Mk1Error):
    pass


class NotSurjective(Mk1Error):
    pass


class TooLarge(Mk1Error):
    pass


class TooLong(Mk1Error):
    pass


# -- internal cross-checks ------------------------------------------------------

class CrossCheckFailed(Mk1Error):
    """Two independent computations of one exact quantity disagreed."""
