"""Minimal acyclic automata of prefix codes, as signature tables.

A trimmed acyclic automaton with one accepting state can only accept an
antichain of words — a comparable pair would force a path from the accept
state back to itself — so these automata are exactly compressed prefix
codes.  Each is a signature table: a state's signature is its edges,
children have smaller ids than parents and state 0 accepts, so one
backward pass in id order computes the measure of a code, and the length
statistics of congruence classes, by dynamic programming on the DAG
instead of by walking word lists.

One trie builder, :func:`_hang`, hangs sorted words as runs: an edge
(letter, tail, child) reads a letter and then the rest of its run, so a
node is made only where words part (a compacted acyclic automaton, as in
Blumer et al.).  :func:`trie_dfa` expands each node's edges into one state
per letter, the public :class:`Dfa`, which :func:`dfa_measure` measures;
:func:`height_report_via_dfa` keeps the run edges of its fibers' automata
as their signatures, so its cost grows with the nodes where words part,
plus one copy of the letters into tails, not with one state per letter.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass

from .elements import Mk1Element, fibers
from .errors import EmptyLanguage
from .green import HeightReport
from .kary import KRational, kq, kq_pow_sum
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

    The words' run trie (:func:`_hang`), each node's edges expanded into
    letter states and merged bottom-up by signature, all leaves into the
    single accept state (Revuz's minimisation of acyclic automata).
    Cost: one sort of the words, then linear in their total length.
    """
    if not code.words:
        raise EmptyLanguage("cannot build an automaton for the empty code")
    ids, sigs = {}, [()]

    def node(edges):
        return _state(tuple([(a, _chain(tail, child, ids, sigs) if tail else child)
                             for a, tail, child in edges]), ids, sigs)

    edges = _hang(((w, 0) for w in code.words), node)
    return Dfa(code.k, node(edges) if edges else 0, tuple(sigs))


def _hang(pairs: Iterable[tuple[Word, int]], node: Callable[[list], int]) -> list:
    """The edges of the root of the trie that reads each word of ``pairs``,
    a prefix code, into the node paired with it: the words' trie with its
    runs compressed, its other nodes built bottom-up through ``node``,
    which takes a node's edges and returns its id.

    An edge is (letter, tail, child): it reads the letter, then the rest of
    the run, up to the child: the next node where words part, or the node
    paired with the word.  The lone empty word gives no edges: its root is
    its own node, which must then be state 0, the one node without edges.
    In dictionary order, the depth at which each word parts from the next
    is where the trie branches; only the branching nodes on the current
    word's path stay open, on a stack, each closed by one ``node`` call
    once the words below it are hung (Daciuk et al.'s construction from
    sorted words).  So a node is made only where words part, and the cost
    is one sort, one look at each letter a word shares with the next and
    one copy of the other letters into tails."""
    pairs = sorted(pairs)  # distinct words, so the nodes are never compared
    if not pairs[0][0]:
        return []
    pairs.append(((-1,), 0))  # after the last word; no letter is -1, so they part at the root
    stack = [(0, [])]  # (depth, edges so far) of the open branching nodes
    for (w, child), (nxt, _) in zip(pairs, pairs[1:]):
        parts = 0  # where w and the next word part
        while w[parts] == nxt[parts]:
            parts += 1
        if parts > stack[-1][0]:
            stack.append((parts, []))
        below = len(w)
        while True:  # hang w's run on the deepest open node; close those below parts
            depth, edges = stack[-1]
            edges.append((w[depth], w[depth + 1:below], child))
            if depth == parts:
                break
            stack.pop()
            child, below = node(edges), depth
            if stack[-1][0] < parts:
                stack.append((parts, []))
    return stack[0][1]


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
    """Measure of the accepted code, in one backward pass in id order: a
    state's words weigh num * k**-exp, one more than the largest of its
    children's exponents, over the sum of their numerators, each scaled to
    that exponent; state 0 weighs (1, 0)."""
    k, weights = d.k, [(1, 0)]
    for sig in d.sigs[1:]:
        top = max(weights[q][1] for _, q in sig)
        weights.append((sum(weights[q][0] * k ** (top - weights[q][1]) for _, q in sig), top + 1))
    return kq(k, *weights[d.root])


def _count(edges: Sequence[tuple], counts: list[tuple]) -> tuple[int, dict[int, int]]:
    """(shift, {length - shift: count}) of the words of the node with these
    edges (letter, tail, child), from its children's counts, each shifted
    by its edge's letter and tail: a node with one child shares its dict."""
    if len(edges) == 1:
        _, tail, child = edges[0]
        shift, by_length = counts[child]
        return shift + 1 + len(tail), by_length
    by_length: dict[int, int] = {}
    for _, tail, child in edges:
        shift, child_counts = counts[child]
        shift += 1 + len(tail)
        for n, c in child_counts.items():
            by_length[n + shift] = by_length.get(n + shift, 0) + c
    return 0, by_length


def height_report_via_dfa(e: Mk1Element) -> HeightReport:
    """The same report as :func:`mk1.green.heights`, with the R-height and
    each fiber's word lengths counted on automata.

    Every fiber's automaton goes into one signature table of run edges
    (letter, tail, child) (:func:`_hang`), state 0 accepting.  A fiber of
    the :func:`~mk1.elements.fibers` walk, an image-code word z with its
    rows x -> y, gets z's suffix segments, one single-edge state
    (z[low], z[low + 1:top], q) between each two neighbouring lengths
    low < top among |z| and its rows' |y|, so the state at |y| reads
    z[|y|:], and the run trie of its x's, each x going to the segment state
    at its |y|.  Each state's words are counted by length from its
    children's counts once it is added (:func:`_count`), and a fiber's
    lengths are the counts of its root's edges, which no state keeps, so no
    fiber word is built.  The cost grows with the nodes where a fiber's x's
    part and the image lengths on each path, plus the letters of the tails.
    R is the measure of the image code, the walk's words z, summed from a
    count of their lengths."""
    ids, sigs = {}, [()]

    def node(edges):
        return _state(tuple(edges), ids, sigs)

    counts: list[tuple[int, dict[int, int]]] = [(0, {0: 1})]
    image_lengths, lengths = Counter(), []
    for z, path in fibers(e):
        image_lengths[len(z)] += 1
        pairs, q, top = [], 0, len(z)
        for x, y in reversed(path):  # longest y first: the segments from z's end down
            if len(y) < top:
                q = node([(z[len(y)], z[len(y) + 1:top], q)])
                top = len(y)
            pairs.append((x, q))
        edges = _hang(pairs, node)  # x = () only when z = y, so q = 0
        for sig in sigs[len(counts):]:
            counts.append(_count(sig, counts))
        shift, by_length = _count(edges, counts) if edges else counts[0]
        lengths.append((shift, [n for n in sorted(by_length) for _ in range(by_length[n])]))
    return HeightReport.from_fibers(e.k, kq_pow_sum(e.k, image_lengths), lengths)


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
