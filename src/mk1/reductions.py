"""Boolean ∀-counting encoded as exact collapse measures, plus padding maps.

Given a boolean formula B(x1..xm, y1..yn), the number N of y-assignments
with ∀x B(x,y) can be read off one table element φ_B over the binary
alphabet: the noncollision measure of φ_B equals

    2^-m - N * 2^-(n+m+2).

φ_B routes each "question" word 0·y·x to the answer letter B(x,y) followed
by y, and routes a spare 1·y·w branch (one letter longer) to 0·y so that
every answer word keeps a short preimage *except* when the answer 0 only
arises through the spare branch — which happens exactly when ∀x B(x,y)=1.
Counting is thereby reduced to computing one exact measure, and back.

Formulas are evaluated bit-parallel: each variable is one integer mask over
all 2^(m+n) assignments, so ``& | ^`` give the whole truth table at once.

The padding helpers at the bottom re-encode arbitrary words over a doubled
alphabet so that codes can be completed to a single fixed length without
changing their measure.
"""

from __future__ import annotations

import re
from functools import lru_cache
from operator import and_, or_

from .congruence import noncollision_measure
from .elements import Mk1Element, part, restrict_to_length
from .errors import (
    ArityMismatch,
    NotSurjective,
    OutOfRange,
    ParseError,
    TooLarge,
    TooLong,
)
from .kary import KRational, Record, kq
from .words import (
    PrefixCode,
    Word,
    check_letters,
    parse_natural,
    words_of_length,
)

Ast = tuple

_SIZE = {"not": 2, "and": 3, "or": 3}  # tuple length of each inner node
_CHECK = dict.fromkeys(_SIZE, lambda *operands: None)


def _fold(ast: Ast, leaf, ops: dict):
    """Fold ``ast`` bottom-up: ``leaf`` values a variable or constant node,
    ``ops[op]`` combines an inner node's operand values.  The only AST
    walker; it keeps its own stack, so depth is unlimited.  ``leaf`` judges
    every node that is not a well-formed inner node."""
    nodes = []
    todo = [ast]
    while todo:  # pre-order, right operand first: reversed, it is post-order
        node = todo.pop()
        nodes.append(node)
        size = _SIZE.get(node[0])
        if size is not None:
            if len(node) != size:
                raise ArityMismatch(f"{node[0]!r} takes {size - 1} operand(s)")
            todo.extend(node[1:])
    values = []
    for node in reversed(nodes):
        op = node[0]
        if op == "not":
            values[-1] = ops[op](values[-1])
        elif op in _SIZE:
            right = values.pop()
            values[-1] = ops[op](values[-1], right)
        else:
            values.append(leaf(node))
    return values[0]


def _wrap(operand: tuple[str, int], level: int) -> str:
    text, own = operand
    return f"({text})" if own < level else text


# (text, binding level) pairs; variables, constants and negations bind tightest
_FORMAT = {
    "not": lambda a: ("!" + _wrap(a, 3), 3),
    "and": lambda a, b: (f"{_wrap(a, 2)} & {_wrap(b, 2)}", 2),
    "or": lambda a, b: (f"{_wrap(a, 1)} | {_wrap(b, 1)}", 1),
}


class BooleanFormula(Record):
    """A formula over variables x1..xm and y1..yn.

    The ast is nested tuples: ('x', i) and ('y', i) with 1-based indices,
    ('not', a), ('and', a, b), ('or', a, b), ('const', 0 or 1).
    Formulas the library derives from truth tables carry their table in
    the ``_table`` cache: ``_trusted(m, n, ast, table)`` takes an ast the
    library built, and its truth table or None.
    """

    __slots__ = ("m", "n", "ast", "_table")

    def __post_init__(self):
        if self.m < 0 or self.n < 0:
            raise ArityMismatch("variable counts must be non-negative")
        _fold(self.ast, lambda node: _check_leaf(self.m, self.n, node), _CHECK)

    def __str__(self) -> str:
        return f"m={self.m} n={self.n} {_fold(self.ast, _format_leaf, _FORMAT)[0]}"


def _check_leaf(m: int, n: int, node) -> None:
    """Raise ArityMismatch unless ``node`` is 0, 1, one of x1..xm or y1..yn."""
    op = node[0]
    if len(node) != 2 or op not in ("x", "y", "const") or not isinstance(node[1], int):
        raise ArityMismatch(f"unknown node {op!r}")
    if op == "const":
        if node[1] not in (0, 1):
            raise ArityMismatch("constants are 0 or 1")
    else:
        bound = m if op == "x" else n
        if not 1 <= node[1] <= bound:
            raise ArityMismatch(f"{op}{node[1]} out of range (have {bound})")


def _format_leaf(node) -> tuple[str, int]:
    op, i = node
    return (str(i) if op == "const" else f"{op}{i}"), 3


_HEADER = re.compile(r"^\s*m=(\d+)\s+n=(\d+)\s+(.*)$", re.DOTALL)
_VAR = re.compile(r"[xy]\d+|[01()!&|]")
_BINDS = {"(": 0, "|": 1, "&": 2, "!": 3}
_NAMES = {"|": "or", "&": "and", "!": "not"}


def parse_formula(text: str) -> BooleanFormula:
    """Read "m=<int> n=<int> <expression>" with ! over & over |, where & and
    | nest to the left.  A shunting-yard: no recursion, no depth limit.
    Leaves are checked after the syntax, which is reported first."""
    header = _HEADER.match(text)
    if not header:
        raise ParseError("expected a header like 'm=2 n=1' before the formula")
    m, n = parse_natural(header.group(1)), parse_natural(header.group(2))
    body = header.group(3)
    tokens = _VAR.findall(body)
    if "".join(tokens) != "".join(body.split()):
        raise ParseError(f"unexpected characters in formula {body!r}")
    operands: list[Ast] = []
    leaves: list[Ast] = []
    pending: list[str] = []  # "(" and the operators still short of operands

    def close(level: int) -> None:
        while pending and _BINDS[pending[-1]] >= level:
            op = _NAMES[pending.pop()]
            k = 1 - _SIZE[op]  # minus the operand count
            operands[k:] = [(op, *operands[k:])]

    want_operand = True
    for i, t in enumerate(tokens):
        if want_operand and t in ("!", "("):
            pending.append(t)
        elif want_operand:
            if t in ("&", "|", ")"):
                raise ParseError(f"unexpected token {t!r}")
            leaves.append(("const", int(t)) if t in ("0", "1") else (t[0], parse_natural(t[1:])))
            operands.append(leaves[-1])
            want_operand = False
        elif t in ("&", "|"):
            close(_BINDS[t])
            pending.append(t)
            want_operand = True
        else:  # ")" or an operand where an operator belongs
            close(1)  # now pending ends in "(" exactly when one is open
            if t == ")" and pending:
                pending.pop()
            elif pending:
                raise ParseError("missing closing parenthesis")
            else:
                raise ParseError(f"trailing tokens after formula: {tokens[i:]}")
    if want_operand:
        raise ParseError("formula ended unexpectedly")
    close(1)
    if pending:
        raise ParseError("formula ended unexpectedly")
    for leaf in leaves:
        _check_leaf(m, n, leaf)
    return BooleanFormula._trusted(m, n, operands[0], None)


def _bitwise(ast: Ast, x, y, one: int) -> int:
    """Fold ``ast`` over values on which & | ^ act bit by bit: single bits
    (one = 1) or masks over many assignments (one = all ones)."""
    leaves = {"x": (None, *x), "y": (None, *y), "const": (0, one)}
    ops = {"not": lambda a: a ^ one, "and": and_, "or": or_}
    return _fold(ast, lambda node: leaves[node[0]][node[1]], ops)


def evaluate(f: BooleanFormula, x: tuple, y: tuple) -> int:
    if len(x) != f.m or len(y) != f.n:
        raise ArityMismatch(f"need {f.m} x-bits and {f.n} y-bits")
    return _bitwise(f.ast, x, y, 1)


def truth_table(f: BooleanFormula) -> int:
    """All 2^(m+n) values of ``f`` in one integer, capped at 24 variables: bit
    i is the value at the i-th (y, x) pair, y varying slowest, with each in
    ``words_of_length(2, ·)`` order.  Formulas built from truth tables return
    theirs; others are folded."""
    if f._table is not None:
        return f._table
    count = _check_variables(f.m + f.n)
    size = 1 << count
    # mask[p] has bit i set iff bit p of i is set; x1 and y1 are the high bits
    mask = [_repeat(((1 << (1 << p)) - 1) << (1 << p), 2 << p, size) for p in range(count)]
    return _bitwise(f.ast, mask[:f.m][::-1], mask[f.m:][::-1], (1 << size) - 1)


def _check_variables(count: int) -> int:
    """``count``, a truth table's variables, unless past the cap of 24."""
    if count > 24:
        raise TooLarge("brute force capped at 24 variables")
    return count


def _repeat(pattern: int, width: int, size: int) -> int:
    """A ``width``-bit pattern repeated to fill ``size`` bits, by doubling
    (width and size are powers of two)."""
    while width < size:
        pattern |= pattern << width
        width <<= 1
    return pattern


def _per_y(table: int, m: int, n: int, op) -> int:
    """Combine each y's block of 2^m consecutive table bits with ``op``:
    bit y·2^m of the result is the block's value, every other bit is 0."""
    for j in range(m):
        table = op(table, table >> (1 << j))
    return table & _repeat(1, 1 << m, 1 << (m + n))


def _covers(table: int, m: int, n: int) -> bool:
    return _per_y(table, m, n, or_).bit_count() == 1 << n


def count_forall_sat(f: BooleanFormula) -> int:
    """|{y : for every x, B(x,y)=1}|, read off the truth table."""
    return _per_y(truth_table(f), f.m, f.n, and_).bit_count()


def covers_every_y(f: BooleanFormula) -> bool:
    """Whether each y has at least one satisfying x (needed by φ_B)."""
    return _covers(truth_table(f), f.m, f.n)


def ensure_surjective(f: BooleanFormula) -> BooleanFormula:
    """Add a fresh x-variable OR-ed in: same ∀-count, every y coverable."""
    table = f._table
    if table is not None and f.m + f.n < 24:
        # x_{m+1} is the lowest bit of the x index: old bit i moves to bit
        # 2i, where x_{m+1} = 0, and every odd bit, where it is 1, is set
        size = 2 << (f.m + f.n)
        s = size >> 2
        while s:  # spread the bits apart, halves first
            table = (table | table << s) & _repeat((1 << s) - 1, 2 * s, size)
            s >>= 1
        table |= _repeat(0b10, 2, size)
    else:
        table = None  # left to truth_table, which folds or raises TooLarge
    return BooleanFormula._trusted(f.m + 1, f.n, ("or", ("x", f.m + 1), f.ast), table)


def _chain(op: str, nodes: tuple | list, empty: Ast) -> Ast:
    """The left-nested chain (op, (op, a, b), c)... of ``nodes``, or ``empty``."""
    chain = nodes[0] if nodes else empty
    for node in nodes[1:]:
        chain = (op, chain, node)
    return chain


def _literals(var: str, count: int) -> tuple:
    """For each assignment of ``var``1..``count`` in ``words_of_length(2,
    count)`` order, its literals; the 2·count literal nodes are built once
    and shared.  Past 20 variables the level refuses with TooLarge."""
    pairs = [(("not", (var, j)), (var, j)) for j in range(1, count + 1)]
    return tuple(tuple(pair[b] for pair, b in zip(pairs, values))
                 for values in words_of_length(2, count))


@lru_cache(maxsize=8)
def _minterm_literals(m: int, n: int) -> tuple[tuple, tuple]:
    """Each x-assignment's and-chain (a 1-tuple; () when m = 0) and each
    y-assignment's literals, which a minterm chains on: kept, like
    :func:`encoding_skeleton`, for the few small (m, n) shapes used last."""
    return tuple(xs and (_chain("and", xs, None),) for xs in _literals("x", m)), _literals("y", n)


def formula_from_truth_table(m: int, n: int, table: int) -> BooleanFormula:
    """The DNF whose truth table is the given bitmask.

    Bit i of ``table`` is the value at the i-th pair in the (y, x)
    enumeration by ``words_of_length(2, ·)``, y varying slowest.  Capped at
    24 variables, and at 20 x- or y-variables by the levels it lists.
    """
    if table < 0 or table >= 1 << (1 << _check_variables(m + n)):
        raise OutOfRange("truth table bitmask out of range")
    xs, ys = _cached(_minterm_literals, m, n)
    reverse = f"{table:b}"[::-1]  # reverse[i] is bit i: one pass finds the set bits
    minterms = []
    i = reverse.find("1")
    while i >= 0:
        y, x = divmod(i, 1 << m)
        minterms.append(_chain("and", xs[x] + ys[y], ("const", 1)))
        i = reverse.find("1", i + 1)
    return BooleanFormula._trusted(m, n, _chain("or", minterms, ("const", 0)), table)


# -- the counting element ---------------------------------------------------------

def encode_formula(f: BooleanFormula) -> Mk1Element:
    """The binary table element φ_B whose noncollision measure counts
    ∀-satisfied y's.  Raises NotSurjective when some y has no satisfying x
    (:func:`ensure_surjective` repairs that without changing the count), and
    TooLarge past m + n = 19, where its spares would pass 2^20 rows.

    For m, n >= 1 the rows are returned as built, for none of them merge:
    - two sibling question rows differ only in x's last letter, but both
      images end in y's last letter, so they are no family x·a -> y·a;
    - two sibling spare rows have the same image, so they are none either;
    - a parent can merge only after its children have, so nothing merges
      at any level;
    - the rows are in ``word_key`` order already: the questions, then the
      one letter longer spares, each in dictionary order.
    With m = 0 or n = 0 sibling question rows can merge, so they are reduced.
    """
    table = truth_table(f)
    if not _covers(table, f.m, f.n):
        raise NotSurjective("some y has no satisfying x; ensure_surjective first")
    questions, spares = _cached(encoding_skeleton, f.m, f.n)
    answers = f"{table:0{len(questions)}b}"[::-1]  # answers[i] is bit i
    rows = tuple([pair[a == "1"] for a, pair in zip(answers, questions)]) + spares
    e = Mk1Element._trusted(2, rows)
    return e if f.m and f.n else e.reduced()


@lru_cache(maxsize=8)
def encoding_skeleton(m: int, n: int):
    """Reusable rows for :func:`encode_formula`: each question 0·y·x's row
    answered 0 and 1, then the spares 1·y·w; kept for the few small (m, n)
    shapes used last.  The spares' level, listed first, caps m + n at 19."""
    spare_level = words_of_length(2, n + m + 1)
    questions = tuple(((w, w[:n + 1]), (w, (1,) + v[:n]))
                      for v in words_of_length(2, n + m) for w in [(0,) + v])
    spares = tuple(((1,) + v, (0,) + v[:n]) for v in spare_level)
    return questions, spares


def _cached(shape_cache, m: int, n: int):
    """``shape_cache(m, n)``, kept in the cache only for m + n <= 12: a larger
    shape is built anew by the same builder, so no cache holds it."""
    return shape_cache(m, n) if m + n <= 12 else shape_cache.__wrapped__(m, n)


def predicted_noncollision(m: int, n: int, count: int) -> KRational:
    """2^-m - count * 2^-(n+m+2), as one canonical binary rational."""
    if not 0 <= count <= 1 << n:
        raise OutOfRange(f"count must lie in [0, 2^{n}]")
    return kq(2, (1 << (n + 2)) - count, n + m + 2)


def recover_count(m: int, n: int, noncollision: KRational) -> int:
    """Invert :func:`predicted_noncollision`."""
    return (kq(2, 1, m) - noncollision).scale_pow(n + m + 2).as_integer()


def count_via_element(f: BooleanFormula) -> int:
    """The ∀-count read off the collapse structure of φ_B."""
    return recover_count(f.m, f.n, noncollision_measure(part(encode_formula(f))))


# -- measure-preserving padding ---------------------------------------------------

def pad_encode(k: int, w: Word, p: int) -> Word:
    """Double each letter with a marker and pad to length exactly 2p.

    Letter a becomes the pair (a, letter 1); padding pairs are (0, 0).
    The map is injective and prefix-free on equal-length blocks, so codes
    stay codes after encoding."""
    if 2 * len(w) > 2 * p:
        raise TooLong(f"word of length {len(w)} does not fit in {p} pairs")
    check_letters(k, (w,))
    out = []
    for a in w:
        out.extend((a, 1))
    out.extend((0, 0) * (p - len(w)))
    return tuple(out)


def pad_decode(k: int, u: Word) -> Word:
    if len(u) % 2:
        raise ParseError("padded words have even length")
    letters = []
    padding = False
    for i in range(0, len(u), 2):
        a, tag = u[i], u[i + 1]
        if tag == 1 and not padding:
            if not 0 <= a < k:
                raise ParseError(f"letter {a} outside alphabet of size {k}")
            letters.append(a)
        elif (a, tag) == (0, 0):
            padding = True
        else:
            raise ParseError(f"bad pair ({a},{tag}) at position {i}")
    return tuple(letters)


def complete_to_length(code: PrefixCode, p: int) -> PrefixCode:
    """Replace every word by all its length-p extensions: same measure,
    fixed length, k^p * measure many words.  The domain of the code's
    identity rows, unreduced, split by
    :func:`~mk1.elements.restrict_to_length`, which raises LengthTooSmall
    below the longest word and TooLarge past 2^20 words."""
    rows = tuple((w, w) for w in code.words)
    return restrict_to_length(Mk1Element._trusted(code.k, rows), p).domain_code
