"""Seeded random generators, hypothesis strategies and reference
implementations shared across the test suite."""

import random
from collections import Counter, deque
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from hypothesis import strategies as st

from mk1.congruence import PrefixCodeCongruence, max_congruence, noncollision_measure
from mk1.circuits import eval_generator_word, gate_element, generator_length
from mk1.dfa import Dfa
from mk1.elements import (
    Mk1Element,
    NoValue,
    apply,
    compose,
    identity_element,
    image_code,
    image_code_restriction,
    image_ideal,
    part,
    restrict_to_length,
    single_row,
    zero_element,
)
from mk1.errors import (
    AlphabetMismatch,
    BaseMismatch,
    BaseTooSmall,
    CrossCheckFailed,
    IndexMismatch,
    LengthTooSmall,
    NotAClass,
    NotDistinct,
    NotInjective,
    ParseError,
)
from mk1.green import ExponentSum, HeightReport, _rep_sum
from mk1.kary import KRational, kq_from_digits, kq_pow_sum, kq_zero
from mk1.plep import _require_plep
from mk1.words import (
    PrefixCode,
    Word,
    check_cap,
    check_letters,
    code_with_measure,
    format_word,
    ideal_ess_leq,
    parse_word,
    word_key,
    words_of_length,
)


def words(k: int, max_size: int = 4, min_size: int = 0):
    """Strategy: words over k letters of length ``min_size`` to ``max_size``."""
    return st.lists(st.integers(0, k - 1), min_size=min_size, max_size=max_size).map(tuple)


def prefix_free(ws) -> list[Word]:
    """The words that have no shorter (or equal, earlier) word as a prefix."""
    code: list[Word] = []
    for x in sorted(ws, key=len):
        if not any(x[: len(d)] == d for d in code):
            code.append(x)
    return code


def tables(k: int):
    """Strategy: reduced tables over k letters whose images are prefixes of a
    few stems, so images often are proper prefixes of one another: fibers
    collect words of several lengths and restrictions split rows."""
    @st.composite
    def build(draw):
        # nonempty domain words, so that an empty one does not swallow the rest
        domain = prefix_free(draw(st.lists(words(k, min_size=1), max_size=12))) or [()]
        stems = draw(st.lists(words(k), min_size=1, max_size=3))
        images = sorted({s[:i] for s in stems for i in range(len(s) + 1)})
        return Mk1Element.make(k, [(x, draw(st.sampled_from(images))) for x in domain])

    return build()


def elements_over(k: int):
    """Strategy: the zero, the identity and :func:`tables` over k letters."""
    return st.one_of(st.just(zero_element(k)), st.just(identity_element(k)), tables(k))


elements = st.sampled_from((2, 3)).flatmap(elements_over)


def related_pairs(k: int):
    """Strategy: (side, f, g) over k letters, the zero and the identity
    included: f = g∘u (side "R", so f <=_R g), f = u∘g (side "L", so
    f <=_L g), or f drawn apart from g (side "")."""
    @st.composite
    def build(draw):
        g, u = draw(elements_over(k)), draw(elements_over(k))
        side = draw(st.sampled_from(("R", "L", "")))
        return side, {"R": compose(g, u), "L": compose(u, g), "": u}[side], g

    return build()


def el(k, *rows):
    """Shorthand: an element from (domain, image) word strings."""
    return Mk1Element.make(k, [(parse_word(x, k), parse_word(y, k)) for x, y in rows])


def random_code(rng: random.Random, k: int, max_depth: int = 4) -> PrefixCode:
    """A random prefix code, possibly empty, possibly with uncovered holes."""
    words: list[Word] = []

    def build(prefix: Word, depth: int):
        if depth >= max_depth:
            if rng.random() < 0.9:
                words.append(prefix)
            return
        r = rng.random()
        if r < 0.12 and prefix:
            return  # leave this subtree uncovered
        if r < 0.55:
            words.append(prefix)
            return
        for j in range(k):
            build(prefix + (j,), depth + 1)

    build((), 0)
    return PrefixCode.make(k, words)


def random_nonempty_code(rng: random.Random, k: int, max_depth: int = 4) -> PrefixCode:
    while True:
        code = random_code(rng, k, max_depth)
        if len(code):
            return code


def deep_code(n: int) -> list[Word]:
    """The maximal binary prefix code {0^i·1 : i < n} ∪ {0^n}, n levels deep."""
    return [(0,) * i + (1,) for i in range(n)] + [(0,) * n]


def deep_rotation(n: int) -> Mk1Element:
    """A bijection of deep_code(n) onto itself, shifting each word to the next."""
    code = deep_code(n)
    return Mk1Element.make(2, list(zip(code, code[1:] + code[:1])))


def nested_images(n: int) -> Mk1Element:
    """The table sending the i-th binary word of length n to 0^i: each image
    is a proper prefix of every later one."""
    return Mk1Element.make(2, [(w, (0,) * i) for i, w in enumerate(words_of_length(2, n))])


def random_word(rng: random.Random, k: int, length: int) -> Word:
    return tuple(rng.randrange(k) for _ in range(length))


def random_element(rng: random.Random, k: int, max_depth: int = 3,
                   p_zero: float = 0.1) -> Mk1Element:
    if rng.random() < p_zero:
        return zero_element(k)
    dom = random_nonempty_code(rng, k, max_depth)
    rows = [(x, random_word(rng, k, rng.randrange(0, 4))) for x in dom.words]
    return Mk1Element.make(k, rows)


def random_congruence(rng: random.Random, k: int):
    code = random_nonempty_code(rng, k, max_depth=3)
    groups: list[list] = []
    for w in code.words:
        if groups and rng.random() < 0.4:
            groups[rng.randrange(len(groups))].append(w)
        else:
            groups.append([w])
    return PrefixCodeCongruence.make(code, groups)


def random_level_plep(rng: random.Random, k: int, total: bool) -> Mk1Element:
    """A random plep element: level words into fixed-length images."""
    n = rng.randint(1, 3)
    level = [()]
    for _ in range(n):
        level = [w + (a,) for w in level for a in range(k)]
    size = rng.randint(1, len(level))
    dom = rng.sample(level, size)
    m = rng.randint(0, 2)
    images = [tuple(rng.randrange(k) for _ in range(m)) for _ in dom]
    e = Mk1Element.make(k, list(zip(sorted(dom), images)))
    if total and size < len(level):
        rest = [w for w in level if w not in set(dom)]
        rows = list(e.rows) + [(w, images[0]) for w in rest]
        e = Mk1Element.make(k, rows)
    return e


def plep_tables(k: int):
    """Strategy: plep tables over k letters (every image is a fixed number of
    letters longer or shorter than its domain word) whose images are
    prefixes of a few stems, so they often nest or coincide."""
    @st.composite
    def build(draw):
        domain = prefix_free(draw(st.lists(words(k, min_size=1), max_size=10))) or [()]
        shift = draw(st.integers(-min(map(len, domain)), 2))
        stems = draw(st.lists(st.lists(st.integers(0, k - 1), min_size=6, max_size=6),
                              min_size=1, max_size=3))
        rows = [(x, tuple(draw(st.sampled_from(stems))[: len(x) + shift])) for x in domain]
        return Mk1Element.make(k, rows)

    return build()


plep_pairs = st.sampled_from((2, 3)).flatmap(
    lambda k: st.tuples(plep_tables(k), plep_tables(k)))


def random_plep_pair(rng: random.Random, k: int) -> tuple[Mk1Element, Mk1Element]:
    """Two level plep tables shaped like the benchmark's plep pairs: level-n
    domains (all of the level when total), t distinct images of length n or
    n + 1, with equal k-free parts of t in about three pairs of four."""
    def k_free(t):
        while t % k == 0:
            t //= k
        return t

    def level_plep(n, shift, distinct, total):
        level = list(words_of_length(k, n))
        domain = level if total else rng.sample(level, rng.randint(distinct, len(level)))
        images = rng.sample(list(words_of_length(k, n + shift)), distinct)
        picks = images + [rng.choice(images) for _ in range(len(domain) - distinct)]
        rng.shuffle(picks)
        return Mk1Element.make(k, list(zip(domain, picks)))

    n1, n2 = (rng.randint(2, 5), rng.randint(2, 5)) if k == 2 else (rng.randint(1, 3), rng.randint(1, 3))
    s1, s2 = rng.randint(0, 1), rng.randint(0, 1)
    t1 = rng.randint(1, k ** n1)
    same = rng.random() < 0.75
    choices = [t for t in range(1, k ** n2 + 1) if (k_free(t) == k_free(t1)) == same] or [1]
    total = rng.random() < 0.3
    return level_plep(n1, s1, t1, total), level_plep(n2, s2, rng.choice(choices), total)


def random_idempotent(rng: random.Random, k: int, max_depth: int = 3) -> Mk1Element:
    """A random idempotent: fix a prefix code Q pointwise, and map words from
    the uncovered region into Q·A* (such a table squares to itself)."""
    from mk1.words import complement_code
    q = random_nonempty_code(rng, k, max_depth)
    rows = [(w, w) for w in q.words]
    for v in complement_code(q).words:
        if rng.random() < 0.6:
            target = q.words[rng.randrange(len(q.words))] + \
                random_word(rng, k, rng.randrange(0, 2))
            rows.append((v + random_word(rng, k, rng.randrange(0, 2)), target))
    return Mk1Element.make(k, rows)


def reference_image_code_restriction(e: Mk1Element) -> tuple:
    """Rows of the image-code restriction by the counter loop: a row is split
    while some *current* image properly extends its image, with a count of
    current images kept for every proper prefix."""
    ext: dict[Word, int] = {}  # proper prefix -> number of images extending it
    for _, y in e.rows:
        for i in range(len(y)):
            ext[y[:i]] = ext.get(y[:i], 0) + 1
    rows = []
    stack = list(e.rows)
    while stack:
        x, y = stack.pop()
        if not ext.get(y):
            rows.append((x, y))
            continue
        for i in range(len(y)):
            ext[y[:i]] -= 1
        for a in range(e.k):
            child = y + (a,)
            for i in range(len(child)):
                ext[child[:i]] = ext.get(child[:i], 0) + 1
            stack.append((x + (a,), child))
    return tuple(sorted(rows, key=lambda r: word_key(r[0])))


def reference_trie_leaves(k: int, tags: dict[Word, tuple]):
    """The trie walk as it was before its leaf shortcut and end marker:
    every node, a minimal word included, goes through the stack."""
    ws, i, stack = sorted(tags), 0, []
    while stack or i < len(ws):
        p, path = stack.pop() if stack else (ws[i], ())  # the first word left is minimal
        if i < len(ws) and ws[i] == p:
            path = path + tags[p]
            i += 1
        if i < len(ws) and ws[i][:len(p)] == p:  # the next word extends p
            stack += [(p + (a,), path) for a in reversed(range(k))]
        else:
            yield p, path


def heights_from_restriction(e: Mk1Element) -> tuple[HeightReport, object]:
    """The height report and the D-index from the explicit rows of the
    image-code restriction, grouped by image, with Fraction exponents
    spelled as (numerator, denominator) pairs only in the report: R is the
    measure of the restriction's distinct images, the image code."""
    k = e.k
    groups: dict[Word, list[int]] = {}
    for x, z in image_code_restriction(e).rows:
        groups.setdefault(z, []).append(len(x))
    lens = [sorted(ls) for ls in groups.values()]

    def charged(exps):
        counts = Counter(exps)
        if all(q.denominator == 1 for q in counts):
            return kq_pow_sum(k, {int(q): c for q, c in counts.items()})
        return ExponentSum(k, tuple(((q.numerator, q.denominator), c)
                                    for q, c in sorted(counts.items())))

    report = HeightReport(
        r=kq_pow_sum(k, Counter(len(z) for z in groups)),
        l=kq_pow_sum(k, Counter(ls[0] for ls in lens)),
        l_max=kq_pow_sum(k, Counter(ls[-1] for ls in lens)),
        l_ave=charged(Fraction(sum(ls), len(ls)) for ls in lens),
        l_med=charged(Fraction(ls[(len(ls) - 1) // 2] + ls[len(ls) // 2], 2) for ls in lens))
    return report, (None if e.is_zero else (len(groups) - 1) % (k - 1) + 1)


def reference_part(e: Mk1Element) -> PrefixCodeCongruence:
    """The fiber partition read off the counter-loop restriction: its rows
    grouped by image, built through the checking constructors.  The
    restriction comes sorted by domain word, so each group is sorted and the
    groups come in the order of their first words."""
    rows = reference_image_code_restriction(e)
    groups: dict[Word, list[Word]] = {}
    for x, z in rows:
        groups.setdefault(z, []).append(x)
    code = PrefixCode(e.k, tuple(x for x, _ in rows))
    return PrefixCodeCongruence(code, tuple(map(tuple, groups.values())))


def reference_length_bound_check(k: int, tokens: list[str], factor: int = 2) -> bool:
    """The length bound from the counter-loop restriction's rows: the
    shortest domain word of each image word."""
    e = eval_generator_word(k, tokens)
    bound = factor * generator_length(tokens)
    shortest: dict[Word, int] = {}
    for x, y in reference_image_code_restriction(e):
        if y not in shortest or len(x) < shortest[y]:
            shortest[y] = len(x)
    return all(n <= len(y) + bound for y, n in shortest.items())


def reference_eval_generator_word(k: int, tokens: list[str]) -> Mk1Element:
    """The program folded with one gate table built per token, repeats and all."""
    acc = identity_element(k)
    for token in tokens:
        acc = compose(acc, gate_element(k, token))
    return acc


def reference_ideal_ess_leq(p1: PrefixCode, p2: PrefixCode) -> bool:
    """Essential containment by a covering walk of P2's trie: each word of P1
    passes a code word, or ends at a node below which every inner node has
    all k children."""
    root: dict = {}
    for w in p2.words:
        node = root
        for j in w:
            node = node.setdefault(j, {})
        node[None] = True  # end marker

    def covers(w: Word) -> bool:
        node = root
        for j in w:
            if None in node:
                return True
            node = node.get(j)
            if node is None:
                return False
        stack = [node]  # the code words below w must form a maximal code
        while stack:
            node = stack.pop()
            if None not in node:
                if len(node) < p2.k:
                    return False
                stack.extend(node.values())
        return True

    return all(covers(w) for w in p1.words)


def reference_apply(e: Mk1Element, w: Word):
    """apply by scanning every row in order until a domain word is a prefix
    of w: NEED_LONGER if some domain word extends w, else UNDEFINED."""
    w = tuple(w)
    if w and not (0 <= min(w) and max(w) < e.k):
        check_letters(e.k, (w,))
    partial = False
    for x, y in e.rows:
        if w[: len(x)] == x:
            return y + w[len(x):]
        partial = partial or x[: len(w)] == w
    return NoValue.NEED_LONGER if partial else NoValue.UNDEFINED


def reference_compose(f: Mk1Element, g: Mk1Element) -> Mk1Element:
    """f∘g by scanning f's whole domain for every row of g: a row is split
    while some domain word of f properly extends its image."""
    k = f.k
    fdom = {x: y for x, y in f.rows}
    maxlen = max((len(x) for x in fdom), default=0)
    out = []
    stack = list(g.rows)
    while stack:
        x, y = stack.pop()
        hit = next((i for i in range(min(len(y), maxlen) + 1) if y[:i] in fdom), None)
        if hit is not None:
            out.append((x, fdom[y[:hit]] + y[hit:]))
        elif any(x2[: len(y)] == y for x2 in fdom):
            stack.extend((x + (a,), y + (a,)) for a in range(k))
    return Mk1Element.make(k, out)


def reference_separating_context(f: Mk1Element, g: Mk1Element):
    """Separating contexts by applying f and g to all k^depth words of the
    full depth, in dictionary order."""
    k = f.k
    f, g = f.reduced(), g.reduced()
    if f == g:
        raise NotDistinct("elements are equal")
    if f.is_zero or g.is_zero:
        survivor = g if f.is_zero else f
        if len(survivor.rows) == 1:
            return identity_element(k), identity_element(k)
        x0 = survivor.rows[0][0]
        return identity_element(k), single_row(k, x0, x0)
    depth = max(len(x) for e in (f, g) for x, _ in e.rows)
    diff_value = None
    for w in words_of_length(k, depth):
        # at full depth a word is either in a row's ideal or outside the domain
        fv, gv = ([y + w[len(x):] for x, y in e.rows if w[: len(x)] == x] for e in (f, g))
        if bool(fv) != bool(gv):
            return identity_element(k), single_row(k, w, w)
        if fv != gv and diff_value is None:
            diff_value = (w, fv[0], gv[0])
    if diff_value is None:
        raise CrossCheckFailed("distinct reduced tables agree at full depth")
    x0, y0, y1 = diff_value
    short, long_ = (y0, y1) if len(y0) <= len(y1) else (y1, y0)
    if long_[: len(short)] != short:
        return single_row(k, y0, y0), single_row(k, x0, x0)
    y2 = short + ((long_[len(short)] + 1) % k,)
    return single_row(k, y2, y2), single_row(k, x0, x0)


@dataclass(frozen=True)
class ReferenceDfa:
    """A deterministic, acyclic, trimmed automaton with one accepting state,
    as a checked edge list: what the library's signature tables are
    compared against.

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
            raise ValueError(f"alphabet size must be at least 2, got {self.k}")
        if self.n_states < 1:
            raise ValueError("need at least one state")
        for q in (self.start, self.accept):
            if not 0 <= q < self.n_states:
                raise ValueError(f"state {q} out of range")
        seen = set()
        for p, a, q in self.edges:
            if not (0 <= p < self.n_states and 0 <= q < self.n_states):
                raise ValueError(f"edge ({p},{a},{q}) leaves the state range")
            if not 0 <= a < self.k:
                raise ValueError(f"letter {a} outside alphabet of size {self.k}")
            if (p, a) in seen:
                raise ValueError(f"two edges leave state {p} on letter {a}")
            seen.add((p, a))
        if self.edges != tuple(sorted(self.edges)):
            raise ValueError("edges must be sorted")
        reference_acyclic_order(self)
        # In a DAG every state is reached from a state without in-edges and
        # reaches one without out-edges, so degrees decide both closures.
        others = set(range(self.n_states))
        if {q for _, _, q in self.edges} != others - {self.start}:
            raise ValueError("every state must be reachable from the start")
        if {p for p, _ in seen} != others - {self.accept}:
            raise ValueError("every state must reach the accept state")

    @classmethod
    def make(cls, k, n_states, start, accepts, edges) -> "ReferenceDfa":
        accepts = sorted(set(accepts))
        if len(accepts) != 1:
            raise ValueError(f"need exactly one accept state, got {len(accepts)}")
        return cls(k, n_states, start, accepts[0], tuple(sorted(edges)))


def reference_acyclic_order(d: ReferenceDfa) -> tuple[list[int], dict[int, list[int]]]:
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
        raise ValueError("the transition graph has a cycle")
    return order, outs


def reference_counts_by_length(d: ReferenceDfa) -> dict[int, int]:
    """How many accepted words there are of each length, counted forward
    from the start in topological order."""
    order, outs = reference_acyclic_order(d)
    counts: list[dict[int, int]] = [{} for _ in range(d.n_states)]
    counts[d.start] = {0: 1}
    for p in order:
        for q in outs.get(p, ()):
            into = counts[q]
            for n, c in counts[p].items():
                into[n + 1] = into.get(n + 1, 0) + c
    return counts[d.accept]


def reference_format_dfa(d: ReferenceDfa) -> str:
    """The edge list as ``mk1 dfa-mu --dump`` prints it."""
    lines = [f"states: {d.n_states}", f"start: {d.start}", f"accept: {d.accept}"]
    lines.extend(f"{p} --{format_word((a,))}--> {q}" for p, a, q in d.edges)
    return "\n".join(lines)


def language(d: Dfa) -> list[Word]:
    """The words the library's automaton reads from its root to state 0, in
    canonical (length, then letters) order."""
    found: list[Word] = []
    stack: list[tuple[int, Word]] = [(d.root, ())]
    while stack:
        q, w = stack.pop()
        if q == 0:
            found.append(w)
        stack.extend((child, w + (a,)) for a, child in d.sigs[q])
    return sorted(found, key=word_key)


def reference_trie_dfa(code: PrefixCode) -> ReferenceDfa:
    """The minimal automaton of a nonempty code from a trie keyed by word
    prefixes, merged deepest level first with sorted signatures, renumbered
    breadth-first and built through the checked constructor."""
    children: dict[Word, dict[int, Word]] = {(): {}}
    for w in code.words:
        for i in range(len(w)):
            children.setdefault(w[: i + 1], {})
            children[w[: i]].setdefault(w[i], w[: i + 1])
    cls: dict[Word, int] = {}
    sig_ids: dict[tuple, int] = {}
    for node in sorted(children, key=len, reverse=True):
        sig = tuple(sorted((a, cls[ch]) for a, ch in children[node].items()))
        if sig not in sig_ids:
            sig_ids[sig] = len(sig_ids)
        cls[node] = sig_ids[sig]
    out: dict[int, dict[int, int]] = {}
    for node, kids in children.items():
        out.setdefault(cls[node], {a: cls[ch] for a, ch in kids.items()})
    number = {cls[()]: 0}
    queue = deque([cls[()]])
    while queue:
        c = queue.popleft()
        for a in sorted(out[c]):
            d = out[c][a]
            if d not in number:
                number[d] = len(number)
                queue.append(d)
    edges = tuple(sorted(
        (number[c], a, number[d]) for c, kids in out.items() for a, d in kids.items()
    ))
    accept = number[cls[code.words[0]]]
    return ReferenceDfa(code.k, len(number), 0, accept, edges)


def _ratio(num: int, den: int) -> tuple[int, int]:
    """num/den as a gcd-reduced integer pair."""
    g = gcd(num, den)
    return num // g, den // g


def reference_heights(e: Mk1Element) -> HeightReport:
    """All heights of e summed inline from the fibers' word lists."""
    p = part(e)
    lens = [[len(w) for w in cls] for cls in p.classes]
    med = [
        (ls[len(ls) // 2], 1) if len(ls) % 2
        else _ratio(ls[len(ls) // 2 - 1] + ls[len(ls) // 2], 2)
        for ls in lens
    ]
    return HeightReport(
        r=image_ideal(e).mu,
        l=noncollision_measure(p),
        l_max=kq_pow_sum(p.k, Counter(ls[-1] for ls in lens)),
        l_ave=_rep_sum(p.k, [_ratio(sum(ls), len(ls)) for ls in lens]),
        l_med=_rep_sum(p.k, med),
    )


def _reference_length_stats(counts: dict[int, int]):
    """Shortest and longest length, and the average and median length as
    reduced (num, den) pairs, from the number of words of each length."""
    total = sum(counts.values())
    lengths = sorted(counts)
    ave = _ratio(sum(n * c for n, c in counts.items()), total)
    # Walk the sorted multiset to its middle element(s).
    wanted = [(total - 1) // 2, total // 2]
    mids = []
    seen = 0
    for n in lengths:
        seen += counts[n]
        while wanted and wanted[0] < seen:
            mids.append(n)
            wanted.pop(0)
    return lengths[0], lengths[-1], ave, _ratio(mids[0] + mids[1], 2)


def reference_height_report_via_dfa(e: Mk1Element) -> HeightReport:
    """The automaton report with its own length statistics per fiber."""
    if e.is_zero:
        zero = kq_zero(e.k)
        return HeightReport(zero, zero, zero, zero, zero)
    k = e.k
    imc, p = image_code(e), part(e)
    stats = [_reference_length_stats(reference_counts_by_length(
        reference_trie_dfa(PrefixCode._trusted(k, cls)))) for cls in p.classes]
    lo, hi, ave, med = zip(*stats)
    return HeightReport(r=kq_pow_sum(k, reference_counts_by_length(reference_trie_dfa(imc))),
                        l=kq_pow_sum(k, Counter(lo)),
                        l_max=kq_pow_sum(k, Counter(hi)), l_ave=_rep_sum(k, ave),
                        l_med=_rep_sum(k, med))


def reference_section_inverse(e: Mk1Element) -> Mk1Element:
    """The canonical section by applying e to the first word of each fiber."""
    rows = []
    for cls in part(e).classes:
        x = cls[0]
        y = apply(e, x)
        if not isinstance(y, tuple):
            raise CrossCheckFailed(f"fiber word {x} has no value: {y.value}")
        rows.append((y, x))
    return Mk1Element.make(e.k, rows)


def reference_make(k: int, rows) -> Mk1Element:
    """``Mk1Element.make`` by three sorts: a set of the rows sorted by
    domain word, checked by the constructor, then reduced."""
    canon = tuple(sorted({(tuple(x), tuple(y)) for x, y in rows}, key=lambda r: word_key(r[0])))
    return Mk1Element(k, canon).reduced()


def reference_reduce_rows(k: int, rows) -> tuple:
    """Reduction from a stack of parents sorted deepest last, each merge
    pushing its own parent back on top."""
    table = {tuple(x): tuple(y) for x, y in rows}
    stack = sorted({x[:-1] for x in table if x}, key=word_key)  # pop() takes deepest
    while stack:
        p = stack.pop()
        children = [p + (a,) for a in range(k)]
        if not all(c in table for c in children):
            continue
        images = [table[c] for c in children]
        stem = images[0][:-1] if images[0] else None
        if stem is None or any(y != stem + (a,) for a, y in enumerate(images)):
            continue
        for c in children:
            del table[c]
        table[p] = stem
        if p:
            stack.append(p[:-1])
    return tuple(sorted(table.items(), key=lambda r: word_key(r[0])))


def reference_r2_normal_form(code: PrefixCode) -> PrefixCode:
    """Sibling families merged by passes over the sorted parents, one pass
    per level, until a pass merges nothing."""
    ws = set(code.words)
    changed = True
    while changed:
        changed = False
        parents = {w[:-1] for w in ws if w}
        for p in sorted(parents, key=word_key):
            fam = {p + (j,) for j in range(code.k)}
            if fam <= ws:
                ws -= fam
                ws.add(p)
                changed = True
    return PrefixCode.make(code.k, ws)


def reference_max_congruence(c: PrefixCodeCongruence) -> PrefixCodeCongruence:
    """The coarsest congruence by scanning every class for a whole family
    and restarting the scan after each merge."""
    k = c.k
    classes = [frozenset(cls) for cls in c.classes]
    changed = True
    while changed:
        changed = False
        by_strip: dict[frozenset, dict[int, int]] = {}
        for i, cls in enumerate(classes):
            if any(not w for w in cls):
                continue
            lasts = {w[-1] for w in cls}
            if len(lasts) != 1:
                continue
            (a,) = lasts
            fam = by_strip.setdefault(frozenset(w[:-1] for w in cls), {})
            fam[a] = i
            if len(fam) == k:
                strip = frozenset(w[:-1] for w in cls)
                for j in sorted(fam.values(), reverse=True):
                    del classes[j]
                classes.append(strip)
                changed = True
                break
    code = PrefixCode.make(k, [w for cls in classes for w in cls])
    return PrefixCodeCongruence.make(code, classes)


def proper_prefixes(words) -> set[Word]:
    """Every proper prefix of the words: the inner nodes of their trie."""
    out: set[Word] = set()
    for w in words:
        for i in range(len(w) - 1, -1, -1):
            if w[:i] in out:
                break
            out.add(w[:i])
    return out


def reference_complement_code(code: PrefixCode) -> PrefixCode:
    """The complement as the children of inner trie nodes that are neither
    code words nor inner."""
    words = set(code.words)
    if not words:
        return PrefixCode.make(code.k, [()])
    inner = proper_prefixes(words)
    children = (p + (j,) for p in inner for j in range(code.k))
    return PrefixCode.make(code.k, [c for c in children if c not in words and c not in inner])


def reference_leq_R(f: Mk1Element, g: Mk1Element) -> bool:
    """f <=_R g on the image codes of the image-code restrictions."""
    if f.k != g.k:
        raise AlphabetMismatch("different alphabets")
    return ideal_ess_leq(image_code(f), image_code(g))


def reference_leq_L(f: Mk1Element, g: Mk1Element) -> bool:
    """f <=_L g on the fiber partitions: g's fibers coarsened as far as they
    go, then f's fibers refined until each word extends a coarse fiber word
    of g or leaves g's domain ideal, and each refined f-fiber, grouped by the
    tail past the g-fiber word, must take in whole g-fibers."""
    if f.k != g.k:
        raise AlphabetMismatch("different alphabets")
    if f.is_zero:
        return True
    if g.is_zero:
        return False
    pf, m = part(f), max_congruence(part(g))
    q_words = set(m.code.words)
    inner = proper_prefixes(q_words)
    m_class_of = {w: cls for cls in m.classes for w in cls}
    classes = list(pf.classes)
    while classes:
        cls = classes.pop()
        heads = [next((w[:i] for i in range(len(w) + 1) if w[:i] in q_words), None) for w in cls]
        if None in heads:   # some word of the class has no q-word above it
            if not all(w in inner for w, q in zip(cls, heads) if q is None):
                return False    # f is defined on ends outside g's domain ideal
            classes.extend(tuple(w + (a,) for w in cls) for a in range(pf.k))
            continue
        groups: dict[Word, set] = {}
        for w, q in zip(cls, heads):
            groups.setdefault(w[len(q):], set()).add(q)
        for qs in groups.values():
            for q in qs:
                if not set(m_class_of[q]) <= qs:
                    return False
    return True


def reference_is_injective(e: Mk1Element) -> bool:
    """Distinct images after the image-code restriction."""
    r = image_code_restriction(e)
    return len({y for _, y in r.rows}) == len(r.rows)


def reference_inverse_element(e: Mk1Element) -> Mk1Element:
    """The flipped image-code restriction of an injective element."""
    r = image_code_restriction(e)
    if len({y for _, y in r.rows}) != len(r.rows):
        raise NotInjective("element collapses distinct ends")
    return Mk1Element.make(e.k, ((y, x) for x, y in r.rows))


def reference_d_index_M(e: Mk1Element):
    """The D-index from the size of the restriction's image code."""
    return None if e.is_zero else (len(image_code(e)) - 1) % (e.k - 1) + 1


def is_partial_identity(e: Mk1Element) -> bool:
    return all(x == y for x, y in e.rows)


def class_of(c: PrefixCodeCongruence, w: Word) -> tuple[Word, ...]:
    """The class of ``c`` that holds the code word ``w``."""
    for cls in c.classes:
        if w in cls:
            return cls
    raise NotAClass("word not in any class")


def covered(w: Word, code: PrefixCode) -> bool:
    """True iff the end set of w·A* is contained in that of code·A*."""
    check_letters(code.k, (w,))
    return ideal_ess_leq(PrefixCode._trusted(code.k, (tuple(w),)), code)


def _corner_split(k: int, words: list[Word]) -> list[Word]:
    corner = max(words, key=word_key)
    rest = [w for w in words if w != corner]
    rest.extend(corner + (a,) for a in range(k))
    return rest


def reference_element_with_heights(k: int, h_r: KRational, h_l: KRational) -> Mk1Element:
    """The canonical codes of the two heights as word lists, each split at
    its longest (then dictionary-last) word until they are equally large,
    then both sorted canonically and zipped."""
    if h_r.base != k or h_l.base != k:
        raise BaseMismatch("heights must be in base k")
    if h_r.is_zero() or h_l.is_zero():
        if h_r.is_zero() and h_l.is_zero():
            return zero_element(k)
        raise IndexMismatch("zero height pairs only with zero height")
    if h_r.digit_sum_mod() != h_l.digit_sum_mod():
        raise IndexMismatch(
            f"digit sums differ mod {k - 1}: "
            f"{h_r.digit_sum_mod()} vs {h_l.digit_sum_mod()}")
    image = list(code_with_measure(k, h_r).words)
    domain = list(code_with_measure(k, h_l).words)
    while len(image) < len(domain):
        image = _corner_split(k, image)
    while len(domain) < len(image):
        domain = _corner_split(k, domain)
    domain.sort(key=word_key)
    image.sort(key=word_key)
    return Mk1Element.make(k, zip(domain, image))


def uniform_image_form(e: Mk1Element) -> Mk1Element:
    """Split rows until all image words share the maximal image length."""
    target = max((len(y) for _, y in e.rows), default=0)
    check_cap(e.k, [target - len(y) for _, y in e.rows],
              "the uniform image form would have more than 2^20 rows")
    rows = [(x + s, y + s) for x, y in e.rows for s in words_of_length(e.k, target - len(y))]
    return Mk1Element(e.k, tuple(sorted(rows, key=lambda r: word_key(r[0]))))


def reference_encoding_skeleton(m: int, n: int):
    """φ_B's question and spare rows as nested loops over y, then x or w."""
    questions = tuple(((w, (0,) + y), (w, (1,) + y))
                      for y in words_of_length(2, n)
                      for w in [(0,) + y + x for x in words_of_length(2, m)])
    spares = tuple(
        ((1,) + y + w, (0,) + y) for y in words_of_length(2, n) for w in words_of_length(2, m + 1)
    )
    return questions, spares


def reference_complete_to_length(code: PrefixCode, p: int) -> PrefixCode:
    """Every word's length-p extensions, listed word by word and sorted by
    ``PrefixCode.make``, with a length check and a cap of its own."""
    if any(len(w) > p for w in code.words):
        raise LengthTooSmall(f"code has words longer than {p}")
    check_cap(code.k, (p - len(w) for w in code.words),
              f"completing to length {p} would give more than 2^20 words")
    words = [w + t for w in code.words for t in words_of_length(code.k, p - len(w))]
    return PrefixCode.make(code.k, words)


def _uniform_image_code(e: Mk1Element) -> tuple[Mk1Element, int]:
    """The uniform image form of e's restriction, and its image-code size."""
    r = uniform_image_form(image_code_restriction(e))
    return r, len({y for _, y in r.rows})


def _k_free(k: int, n: int) -> tuple[int, int]:
    j = 0
    while n % k == 0:
        n //= k
        j += 1
    return n, j


def reference_common_image_refinement(e1: Mk1Element, e2: Mk1Element):
    """Both tables split to uniform image codes through the restriction, then
    compared and levelled by the k-free parts of the code sizes: two splits
    of each side, where the library splits each side once."""
    if e1.k != e2.k:
        raise AlphabetMismatch("different alphabets")
    _require_plep(e1)
    _require_plep(e2)
    k = e1.k
    r1, size1 = _uniform_image_code(e1)
    r2, size2 = _uniform_image_code(e2)
    n1, j1 = _k_free(k, size1)
    n2, j2 = _k_free(k, size2)
    if n1 != n2:
        raise IndexMismatch(f"D-indices differ: {n1} vs {n2}")
    big = max(j1, j2)
    r1 = restrict_to_length(r1, max(len(x) for x, _ in r1.rows) + (big - j1))
    r2 = restrict_to_length(r2, max(len(x) for x, _ in r2.rows) + (big - j2))
    return r1, r2


def reference_digit_sum_mod(x: KRational) -> int:
    """The digit sum of a nonzero value by walking its base-k digits."""
    int_part, frac = x.digits()
    total = sum(frac)
    while int_part:
        int_part, d = divmod(int_part, x.base)
        total += d
    if x.base == 2:
        return 1
    return (total - 1) % (x.base - 1) + 1


def reference_parse_krational(base: int, text: str) -> KRational:
    """The reader with one branch per text form: digit characters up to base
    10, ``int`` on the integer part and on each bracketed item above."""
    if base < 2:
        raise BaseTooSmall(f"base must be at least 2, got {base}")
    text = text.strip()
    if not text:
        raise ParseError("empty k-ary rational")
    ip_text, _, frac_text = text.partition(".")
    try:
        if base <= 10:
            if not ip_text.isdigit():
                raise ValueError
            int_part = int(ip_text, base)
            frac = tuple(int(c) for c in frac_text)
            if any(d >= base for d in frac):
                raise ValueError
        else:
            int_part = int(ip_text)
            if frac_text:
                if not (frac_text.startswith("[") and frac_text.endswith("]")):
                    raise ValueError
                frac = tuple(int(p) for p in frac_text[1:-1].split(","))
                if any(not 0 <= d < base for d in frac):
                    raise ValueError
            else:
                frac = ()
    except ValueError:
        raise ParseError(f"bad base-{base} rational: {text!r}") from None
    if int_part < 0:
        raise ParseError(f"bad base-{base} rational: {text!r}")
    return kq_from_digits(base, int_part, frac)
