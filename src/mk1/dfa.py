"""Minimal acyclic automata of prefix codes, as signature tables.

A trimmed acyclic automaton with one accepting state can only accept an
antichain of words — a comparable pair would force a path from the accept
state back to itself — so these automata are exactly compressed prefix
codes.  Each is a signature table: a state's signature is its (letter,
child id) pairs, children have smaller ids than parents and state 0
accepts, so one backward pass in id order computes the measure of a code,
and the length statistics of congruence classes, by dynamic programming on
the DAG instead of by walking word lists.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from .elements import Mk1Element, fibers
from .errors import EmptyLanguage
from .green import HeightReport
from .kary import KRational, kq, kq_zero
from .words import PrefixCode, Word, format_word


@dataclass(frozen=True, slots=True)
class Dfa:
    """A minimal acyclic automaton over k letters: ``sigs[q]`` is state q's
    (letter, child id) pairs in letter order, each child's id lower than
    q's; state 0 accepts and ``root`` starts."""

    k: int
    root: int
    sigs: tuple[tuple[tuple[int, int], ...], ...]

    @property
    def n_states(self) -> int:
        return len(self.sigs)


def trie_dfa(code: PrefixCode) -> Dfa:
    """The minimal acyclic automaton of a prefix code.

    The word trie merged bottom-up by signature (:func:`_hang`), all leaves
    into the single accept state (Revuz's minimisation of acyclic automata).
    Cost: one sort of the words, then linear in their total length.
    """
    if not code.words:
        raise EmptyLanguage("cannot build an automaton for the empty code")
    sigs = [()]
    root = _hang(((w, 0) for w in code.words), {(): 0}, sigs)
    return Dfa(code.k, root, tuple(sigs))


def _hang(pairs: Iterable[tuple[Word, int]], ids: dict[tuple, int], sigs: list[tuple]) -> int:
    """The state that reads each word of ``pairs``, a prefix code, into the
    state paired with it: the words' trie, each last letter going to its
    word's state, merged bottom-up into the signature table.

    ``ids`` maps a signature, a state's (letter, child id) pairs in letter
    order, to the state's id, and ``sigs`` lists the signatures by id; a
    new signature gets the next id, so children have smaller ids than
    parents.  In dictionary order, the depth at which each word parts from
    the next is where the trie branches; only the branching nodes on the
    current word's path stay open, on a stack, and the runs between them
    go in as chains (Daciuk et al.'s construction from sorted words)."""
    pairs = sorted(pairs)  # distinct words, so the states are never compared
    if len(pairs) == 1:
        return _chain(*pairs[0], ids, sigs)
    stack = [(0, [])]  # (depth, edges so far) of the open branching nodes
    for i, (w, child) in enumerate(pairs):
        parts = 0  # where w and the next word part; the root after the last word
        if i + 1 < len(pairs):
            nxt = pairs[i + 1][0]
            while w[parts] == nxt[parts]:
                parts += 1
        if parts > stack[-1][0]:
            stack.append((parts, []))
        below = len(w)
        while True:  # hang w's run on the deepest open node; close those below parts
            depth, edges = stack[-1]
            if below > depth + 1:
                child = _chain(w[depth + 1:below], child, ids, sigs)
            edges.append((w[depth], child))
            if depth == parts:
                break
            stack.pop()
            child, below = _state(tuple(edges), ids, sigs), depth
            if stack[-1][0] < parts:
                stack.append((parts, []))
    return _state(tuple(stack[0][1]), ids, sigs)


def _state(sig: tuple, ids: dict[tuple, int], sigs: list[tuple]) -> int:
    """The id of the state with this signature, new if need be: the one
    place that adds states to a signature table."""
    sid = ids.get(sig)
    if sid is None:
        sid = ids[sig] = len(sigs)
        sigs.append(sig)
    return sid


def _chain(w: Word, end: int, ids: dict[tuple, int], sigs: list[tuple]) -> int:
    """The state that reads the word w into the state end."""
    for a in reversed(w):
        end = _state(((a, end),), ids, sigs)
    return end


def dfa_measure(d: Dfa) -> KRational:
    """Measure of the accepted code, in one backward pass in id order."""
    return kq(d.k, *_weights(d.k, d.sigs)[d.root])


def _weights(k: int, sigs: Sequence[tuple]) -> list[tuple[int, int]]:
    """Each state's (num, exp), in id order: its words to state 0 weigh
    num * k**-exp, (1, 0) at state 0, and at a parent one more than its
    children's largest exponent over the sum of their numerators, each
    scaled to that exponent."""
    weights = [(1, 0)]
    for sig in sigs[1:]:
        kids = [weights[child] for _, child in sig]
        top = max(exp for _, exp in kids)
        weights.append((sum(num * k ** (top - exp) for num, exp in kids), top + 1))
    return weights


def height_report_via_dfa(e: Mk1Element) -> HeightReport:
    """The same report as :func:`mk1.green.heights`, with the R-height and
    each fiber's word lengths counted on automata.

    Every fiber's automaton goes into one signature table (:func:`_hang`),
    state 0 accepting.  A fiber of the :func:`~mk1.elements.fibers` walk, an
    image-code word z with its rows x -> y, gets z's suffix chain, whose
    state at |y| reads z[|y|:], and the trie of its x's, each x going to the
    chain state at its |y|.  Once all are hung, one backward pass counts
    each state's accepted words by length from its children's counts, so a
    fiber's lengths are the counts at its root and no fiber word is built.
    R is the measure of the image code's trie, in a table of its own."""
    ids: dict[tuple, int] = {(): 0}
    sigs: list[tuple] = [()]
    zs, roots = [], []
    for z, path in fibers(e):
        zs.append(z)
        at, q, top = {}, 0, len(z)  # z's suffix chain, from z's end down to the shortest y
        for low in sorted({len(y) for _, y in path}, reverse=True):
            q = at[low] = _chain(z[low:top], q, ids, sigs)
            top = low
        roots.append(_hang([(x, at[len(y)]) for x, y in path], ids, sigs))
    counts: list[tuple[int, dict[int, int]]] = [(0, {0: 1})]  # (shift, {length - shift: count})
    for sig in sigs[1:]:
        if len(sig) == 1:  # one child: its counts, one letter longer
            shift, by_length = counts[sig[0][1]]
            counts.append((shift + 1, by_length))
            continue
        by_length = {}
        for _, child in sig:
            shift, child_counts = counts[child]
            for n, c in child_counts.items():
                by_length[n + shift + 1] = by_length.get(n + shift + 1, 0) + c
        counts.append((0, by_length))
    lengths = [(shift, [n for n in sorted(by_length) for _ in range(by_length[n])])
               for shift, by_length in map(counts.__getitem__, roots)]
    r = kq_zero(e.k)  # zero has no image code
    if zs:
        image_sigs = [()]
        root = _hang([(z, 0) for z in zs], {(): 0}, image_sigs)
        r = kq(e.k, *_weights(e.k, image_sigs)[root])
    return HeightReport.from_fibers(e.k, r, lengths)


def format_dfa(d: Dfa) -> str:
    """The state count, start and accept state, then one line per edge, the
    states numbered breadth-first from the start with letters in order."""
    number = [None] * d.n_states
    number[d.root] = 0
    order = [d.root]
    edges = []
    for p, c in enumerate(order):
        for a, q in d.sigs[c]:
            if number[q] is None:
                number[q] = len(order)
                order.append(q)
            edges.append(f"{p} --{format_word((a,))}--> {number[q]}")
    return "\n".join([f"states: {d.n_states}", "start: 0", f"accept: {number[0]}", *edges])
