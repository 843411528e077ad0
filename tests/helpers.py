"""Seeded random generators, hypothesis strategies and reference
implementations shared across the test suite."""

import random
from collections import deque

from hypothesis import strategies as st

from mk1.congruence import PrefixCodeCongruence
from mk1.dfa import AcyclicDfa
from mk1.elements import (
    Mk1Element,
    apply,
    identity_element,
    part,
    reduce_rows,
    single_row,
    zero_element,
)
from mk1.errors import CrossCheckFailed, NotDistinct
from mk1.words import PrefixCode, Word, parse_word, word_key, words_of_length


def words(k: int, max_size: int = 4):
    """Strategy: words over k letters of length at most ``max_size``."""
    return st.lists(st.integers(0, k - 1), max_size=max_size).map(tuple)


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
        domain = prefix_free(draw(st.lists(words(k), max_size=12)))
        stems = draw(st.lists(words(k), min_size=1, max_size=3))
        images = sorted({s[:i] for s in stems for i in range(len(s) + 1)})
        return Mk1Element.make(k, [(x, draw(st.sampled_from(images))) for x in domain])

    return build()


def elements_over(k: int):
    """Strategy: the zero, the identity and :func:`tables` over k letters."""
    return st.one_of(st.just(zero_element(k)), st.just(identity_element(k)), tables(k))


elements = st.sampled_from((2, 3)).flatmap(elements_over)


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


def random_maximal_code(rng: random.Random, k: int, max_depth: int = 4,
                        p_leaf: float = 0.5) -> PrefixCode:
    """A random maximal prefix code (measure exactly 1)."""
    words: list[Word] = []

    def build(prefix: Word, depth: int):
        if depth >= max_depth or rng.random() < p_leaf:
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
    return Mk1Element(k, reduce_rows(k, out))


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


def reference_trie_dfa(code: PrefixCode) -> AcyclicDfa:
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
    return AcyclicDfa(code.k, len(number), 0, accept, edges)


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
