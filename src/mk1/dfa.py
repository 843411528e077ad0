"""Acyclic DFAs for prefix codes: minimal automata, measures, length stats.

A trimmed acyclic automaton with one accepting state can only accept an
antichain of words — a comparable pair would force a path from the accept
state back to itself — so these automata are exactly compressed prefix
codes.  They let the measure of a code, and the length statistics of
congruence classes, be computed by dynamic programming on the DAG instead
of by walking word lists.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from .elements import Mk1Element, fibers
from .errors import (
    BaseTooSmall,
    CyclicGraph,
    EmptyLanguage,
    NotCanonical,
    NotDeterministic,
    NotSingleAccept,
    NotTrimmed,
    OutOfRange,
)
from .green import HeightReport
from .kary import KRational, kq, kq_pow_sum, kq_zero
from .words import PrefixCode, Word, _unchecked, format_word, word_key


@dataclass(frozen=True, slots=True)
class AcyclicDfa:
    """A deterministic, acyclic, trimmed automaton with one accepting state.

    ``edges`` holds (state, letter, state) triples sorted by source state
    and letter.  Every state must be reachable from ``start`` and must
    reach ``accept``; the accept state therefore has no outgoing edges.
    """

    k: int
    n_states: int
    start: int
    accept: int
    edges: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        if self.k < 2:
            raise BaseTooSmall(f"alphabet size must be at least 2, got {self.k}")
        if self.n_states < 1:
            raise OutOfRange("need at least one state")
        for q in (self.start, self.accept):
            if not 0 <= q < self.n_states:
                raise OutOfRange(f"state {q} out of range")
        seen = set()
        for p, a, q in self.edges:
            if not (0 <= p < self.n_states and 0 <= q < self.n_states):
                raise OutOfRange(f"edge ({p},{a},{q}) leaves the state range")
            if not 0 <= a < self.k:
                raise OutOfRange(f"letter {a} outside alphabet of size {self.k}")
            if (p, a) in seen:
                raise NotDeterministic(f"two edges leave state {p} on letter {a}")
            seen.add((p, a))
        if self.edges != tuple(sorted(self.edges)):
            raise NotCanonical("edges must be sorted")
        _acyclic_order(self)
        # In a DAG every state is reached from a state without in-edges and
        # reaches one without out-edges, so degrees decide both closures.
        others = set(range(self.n_states))
        if {q for _, _, q in self.edges} != others - {self.start}:
            raise NotTrimmed("every state must be reachable from the start")
        if {p for p, _ in seen} != others - {self.accept}:
            raise NotTrimmed("every state must reach the accept state")

    @classmethod
    def make(cls, k, n_states, start, accepts, edges) -> "AcyclicDfa":
        accepts = sorted(set(accepts))
        if len(accepts) != 1:
            raise NotSingleAccept(f"need exactly one accept state, got {len(accepts)}")
        return cls(k, n_states, start, accepts[0], tuple(sorted(edges)))

    # _trusted(k, n_states, start, accept, edges): trimmed, acyclic, edges sorted
    _trusted = classmethod(_unchecked)


def _acyclic_order(d: AcyclicDfa) -> tuple[list[int], dict[int, list[int]]]:
    """States in a topological order (Kahn's algorithm), and the targets of
    each state's out-edges."""
    indeg = [0] * d.n_states
    outs: dict[int, list[int]] = {}
    for p, _, q in d.edges:
        indeg[q] += 1
        outs.setdefault(p, []).append(q)
    todo = [q for q in range(d.n_states) if indeg[q] == 0]
    order = []
    while todo:
        p = todo.pop()
        order.append(p)
        for q in outs.get(p, ()):
            indeg[q] -= 1
            if indeg[q] == 0:
                todo.append(q)
    if len(order) != d.n_states:
        raise CyclicGraph("the transition graph has a cycle")
    return order, outs


def trie_dfa(code: PrefixCode) -> AcyclicDfa:
    """The minimal acyclic automaton of a prefix code.

    The word trie merged bottom-up by signature (:func:`_hang`), all leaves
    into the single accept state (Revuz's minimisation of acyclic automata).
    States are numbered in breadth-first order from the start, letters in
    order, and edges come out in that order.  Cost: one sort of the words,
    then linear in their total length.
    """
    if not code.words:
        raise EmptyLanguage("cannot build an automaton for the empty code")
    sigs = [()]
    root = _hang(((w, 0) for w in code.words), {(): 0}, sigs)
    number = [None] * len(sigs)
    number[root] = 0
    order = [root]
    edges = []
    for p, c in enumerate(order):
        for a, d in sigs[c]:
            if number[d] is None:
                number[d] = len(order)
                order.append(d)
            edges.append((p, a, number[d]))
    return AcyclicDfa._trusted(code.k, len(order), 0, number[0], tuple(edges))


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
    """The id of the state with this signature, new if need be."""
    sid = ids.get(sig)
    if sid is None:
        sid = ids[sig] = len(sigs)
        sigs.append(sig)
    return sid


def _chain(w: Word, end: int, ids: dict[tuple, int], sigs: list[tuple]) -> int:
    """The state that reads the word w into the state end."""
    for a in reversed(w):
        sig = ((a, end),)
        end = ids.get(sig)
        if end is None:
            end = ids[sig] = len(sigs)
            sigs.append(sig)
    return end


def language(d: AcyclicDfa) -> list[Word]:
    """All accepted words, in canonical (length, then letters) order."""
    outs: dict[int, list[tuple[int, int]]] = {}
    for p, a, q in d.edges:
        outs.setdefault(p, []).append((a, q))
    words: list[Word] = []
    stack: list[tuple[int, Word]] = [(d.start, ())]
    while stack:
        state, w = stack.pop()
        if state == d.accept:
            words.append(w)
            continue
        for a, q in outs.get(state, ()):
            stack.append((q, w + (a,)))
    return sorted(words, key=word_key)


def dfa_measure(d: AcyclicDfa) -> KRational:
    """Measure of the accepted code, from its words counted by length."""
    return kq_pow_sum(d.k, counts_by_length(d))


def shortest_accepted(d: AcyclicDfa) -> int:
    return min(counts_by_length(d))


def min_rep_measure(d: AcyclicDfa) -> KRational:
    """k^(-n) for the shortest accepted word length n."""
    return kq(d.k, 1, shortest_accepted(d))


def counts_by_length(d: AcyclicDfa) -> dict[int, int]:
    """How many accepted words there are of each length."""
    order, outs = _acyclic_order(d)
    counts: list[dict[int, int]] = [{} for _ in range(d.n_states)]
    counts[d.start] = {0: 1}
    for p in order:
        for q in outs.get(p, ()):
            into = counts[q]
            for n, c in counts[p].items():
                into[n + 1] = into.get(n + 1, 0) + c
    return counts[d.accept]


def height_report_via_dfa(e: Mk1Element) -> HeightReport:
    """The same report as :func:`mk1.green.heights`, with the R-height and
    each fiber's word lengths counted on automata.

    Every state of the element's automata goes into one signature table
    (:func:`_hang`), state 0 accepting.  The image code's trie hangs on
    state 0.  A fiber of the :func:`~mk1.elements.fibers` walk, an image-code
    word z with its rows x -> y, gets z's suffix chain, whose state at |y|
    reads z[|y|:], and the trie of its x's, each x going to the chain state
    at its |y|.  Each new state counts its accepted words by length from its
    children's counts, so a fiber's lengths are the counts at its root and
    no fiber word is built."""
    ids: dict[tuple, int] = {(): 0}
    sigs: list[tuple] = [()]
    counts: list[tuple[int, dict[int, int]]] = [(0, {0: 1})]  # (shift, {length - shift: count})

    def accepted(root: int) -> dict[int, int]:
        """{length: count} of the words read from root.  New states get
        their counts first, in id order, so children before parents."""
        for sig in sigs[len(counts):]:
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
        shift, by_length = counts[root]
        return {n + shift: c for n, c in by_length.items()}

    zs, lengths = [], []
    for z, path in fibers(e):
        zs.append(z)
        at, q, top = {}, 0, len(z)  # z's suffix chain, from z's end down to the shortest y
        for low in sorted({len(y) for _, y in path}, reverse=True):
            q = at[low] = _chain(z[low:top], q, ids, sigs)
            top = low
        by_length = accepted(_hang([(x, at[len(y)]) for x, y in path], ids, sigs))
        lengths.append([n for n in sorted(by_length) for _ in range(by_length[n])])
    # zero has no image code
    r = kq_pow_sum(e.k, accepted(_hang([(z, 0) for z in zs], ids, sigs))) if zs else kq_zero(e.k)
    return HeightReport.from_fibers(e.k, r, lengths)


def format_dfa(d: AcyclicDfa) -> str:
    lines = [f"states: {d.n_states}", f"start: {d.start}", f"accept: {d.accept}"]
    lines.extend(
        f"{p} --{format_word((a,))}--> {q}" for p, a, q in d.edges
    )
    return "\n".join(lines)
