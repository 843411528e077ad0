"""Acyclic DFAs for prefix codes: minimal automata, measures, length stats.

A trimmed acyclic automaton with one accepting state can only accept an
antichain of words — a comparable pair would force a path from the accept
state back to itself — so these automata are exactly compressed prefix
codes.  They let the measure of a code, and the length statistics of
congruence classes, be computed by dynamic programming on the DAG instead
of by walking word lists.
"""

from __future__ import annotations

from collections import Counter
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

    Builds the word trie as nested dicts, then gives each node, children
    before parents, the id of its signature (its (letter, child id) pairs);
    nodes with equal signatures merge, and all leaves become the single
    accept state (Revuz's bottom-up minimisation of acyclic automata).
    States are numbered in breadth-first order from the start, letters in
    order, and edges come out in that order.  Cost: one sort of each node's
    letters, so linear in the total length of the code up to those sorts.
    """
    if not code.words:
        raise EmptyLanguage("cannot build an automaton for the empty code")
    k = code.k
    root: dict = {}
    nodes = [(None, None, root)]  # (parent, letter, node), parents first
    for w in code.words:
        node = root
        for a in w:
            child = node.get(a)
            if child is None:
                child = node[a] = {}
                nodes.append((node, a, child))
            node = child
    sig_ids: dict[tuple, int] = {}
    # Backwards through nodes, a node's children already stand as ids in it;
    # the node then stands in its parent as the id of its signature.
    for parent, a, node in reversed(nodes):
        sid = sig_ids.setdefault(tuple(sorted(node.items())), len(sig_ids))
        if parent is not None:
            parent[a] = sid
    sigs = list(sig_ids)
    number = [None] * len(sigs)
    number[sid] = 0  # the root came last
    order = [sid]
    edges = []
    for p, c in enumerate(order):
        for a, d in sigs[c]:
            if number[d] is None:
                number[d] = len(order)
                order.append(d)
            edges.append((p, a, number[d]))
    accept = number[sig_ids[()]]
    return AcyclicDfa._trusted(k, len(order), 0, accept, tuple(edges))


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
    """The same report as :func:`mk1.green.heights`, but with the R-height
    and each fiber's word lengths read off minimal automata of the image
    code and of each fiber, both from one :func:`~mk1.elements.fibers` walk."""
    k, zs, lengths = e.k, [], []
    for z, path in fibers(e):
        zs.append(z)
        fiber = PrefixCode._trusted(k, tuple(sorted((x + z[len(y):] for x, y in path), key=word_key)))
        lengths.append(sorted(Counter(counts_by_length(trie_dfa(fiber))).elements()))
    imc = PrefixCode._trusted(k, tuple(sorted(zs, key=word_key)))
    r = dfa_measure(trie_dfa(imc)) if zs else kq_zero(k)  # zero has no image code
    return HeightReport.from_fibers(k, r, lengths)


def format_dfa(d: AcyclicDfa) -> str:
    lines = [f"states: {d.n_states}", f"start: {d.start}", f"accept: {d.accept}"]
    lines.extend(
        f"{p} --{format_word((a,))}--> {q}" for p, a, q in d.edges
    )
    return "\n".join(lines)
