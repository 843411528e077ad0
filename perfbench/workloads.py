"""The four seeded workloads of the mk1 benchmark.

A workload builds its inputs in ``setup(lib, seed, work)`` (``work`` is a
directory for any input files) and then yields ops from ``ops(state, seed,
in_process)``.  The runner times each op's ``run`` alone; the
op's ``check`` runs outside the timed interval, raises ``CheckFailed`` on a
wrong result and returns the canonical text of the result, which feeds the
output digest.

``lib`` is a namespace holding the mk1 modules (``lib.elements``,
``lib.green``, ...).  Ops look functions up through it at call time, so a
traced run sees every call through its wrappers.  Inputs and op choices
depend only on the seed, never on timing.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterator

from checks import (
    CheckFailed,
    digit_index,
    ideal_measure,
    is_injective_ref,
    one_hole_identity,
    r_height,
    ref_apply,
    ref_apply_any,
    require,
    truth_table_count,
)


@dataclass(frozen=True)
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], str]


@dataclass(frozen=True)
class Workload:
    """Why each workload exists is recorded in BENCHMARK.json."""

    name: str
    setup: Callable
    ops: Callable[..., Iterator[Op]]
    prefix_ops: int  # ops every run completes; they form the digest and the traced run
    budget_ops: int  # ops a run does unless its time runs out first


def _rng(name: str, seed: int, purpose: str) -> random.Random:
    return random.Random(f"mk1-bench:{name}:{seed}:{purpose}")


def _cycle(rng: random.Random, items):
    """Yield ``items`` forever, in a fresh shuffled order on every pass.

    Drawing through a cycle keeps every item's share exact over each pass,
    so runs with different seeds see the same mix and the same tail.
    """
    items = list(items)
    while True:
        rng.shuffle(items)
        yield from items


class _Picker:
    """One shuffled cycle per key: ``pick(key, items)`` draws the next item."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.cycles: dict = {}

    def __call__(self, key, items):
        if key not in self.cycles:
            self.cycles[key] = _cycle(self.rng, items)
        return next(self.cycles[key])


def _stratified_sizes(rng: random.Random, count: int, lo: int, hi: int) -> list[int]:
    """``count`` sizes log-uniform on [lo, hi], one from each of ``count``
    equal slices of the log range, so every seed sees the same size profile."""
    span = math.log(hi / lo)
    return [round(lo * math.exp(span * (i + rng.random()) / count)) for i in range(count)]


def random_rows(rng: random.Random, k: int, target: int, collide=0.3, partial=0.1):
    """Rows of a random table with about ``target`` domain words.

    The domain grows by splitting random leaves, never deeper than
    ceil(log_k(target)) + 3.  A share ``partial`` of the leaves is dropped,
    and a share ``collide`` of the rows reuses an earlier image word.
    """
    max_depth = math.ceil(math.log(max(target, 2), k)) + 3
    leaves: list[tuple] = [()]
    while len(leaves) < target:
        i = rng.randrange(len(leaves))
        w = leaves[i]
        if len(w) >= max_depth:
            continue
        leaves[i] = leaves[-1]
        leaves.pop()
        leaves.extend(w + (a,) for a in range(k))
    base = max(1, round(math.log(target, k)))
    rows, images = [], []
    for x in sorted(leaves):
        if rng.random() < partial:
            continue
        if images and rng.random() < collide:
            y = rng.choice(images)
        else:
            y = tuple(rng.randrange(k) for _ in range(rng.randint(max(1, base - 2), base + 2)))
        images.append(y)
        rows.append((x, y))
    return rows or [((), ())]


def _element_pool(lib, rng, per_k: int, lo: int, hi: int) -> dict[int, list]:
    make = lib.elements.Mk1Element.make
    return {k: [make(k, random_rows(rng, k, n)) for n in _stratified_sizes(rng, per_k, lo, hi)]
            for k in (2, 3)}


def _depth(e) -> int:
    return max((len(x) for x, _ in e.rows), default=0)


# -- forall_count -------------------------------------------------------------

def _forall_setup(lib, seed, work):
    rng = _rng("forall_count", seed, "inputs")
    small = list(range(1 << 16))  # every (2, 2) truth table, in a seeded order
    rng.shuffle(small)
    big_seen: set[int] = set()
    tables = []
    for t in small:
        if rng.random() < 0.15:
            b = rng.getrandbits(32)
            while b in big_seen:
                b = rng.getrandbits(32)
            big_seen.add(b)
            tables.append((3, 2, b))
        tables.append((2, 2, t))
    return {"lib": lib, "tables": tables}


def _forall_ops(state, seed, in_process=False):
    lib = state["lib"]
    r, c, el = lib.reductions, lib.congruence, lib.elements

    def pipeline(m, n, table):
        f = r.formula_from_truth_table(m, n, table)
        count = r.count_forall_sat(f)
        if not r.covers_every_y(f):
            f = r.ensure_surjective(f)
        noncoll = c.noncollision_measure(el.part(r.encode_formula(f)))
        return count, r.recover_count(f.m, n, noncoll), noncoll

    for m, n, table in state["tables"]:
        def check(result, m=m, n=n, table=table):
            count, recovered, noncoll = result
            want = truth_table_count(m, n, table)
            require(count == want, f"count_forall_sat gave {count}, truth table says {want}")
            require(recovered == want, f"recover_count gave {recovered}, truth table says {want}")
            return f"{m} {n} {table} {count} {noncoll}"

        yield Op("forall", lambda m=m, n=n, table=table: pipeline(m, n, table), check)


# -- table_queries ------------------------------------------------------------

_QUERY_MIX = {
    "heights": 22, "height_report_via_dfa": 6, "leq_R": 18, "eq_R": 8,
    "d_index_M": 16, "image_code": 16, "leq_L": 9, "eq_L": 5,
}


def _queries_setup(lib, seed, work):
    rng = _rng("table_queries", seed, "inputs")
    pool = _element_pool(lib, rng, 70, 16, 512)
    zero, one = lib.elements.zero_element, lib.elements.identity_element
    # A run makes 36 automaton reports per k: they cycle over every other
    # element, smallest to largest, so each run meets each of these once.
    sides = {(k, "dfa"): pool[k][::2] + [zero(k)] for k in pool}
    for k in (2, 3):
        sides[k, "small"] = [e for e in pool[k] if len(e.rows) <= 32]
        sides[k, "all"] = pool[k] + [zero(k), one(k)]
    return {"lib": lib, "sides": sides}


def _queries_ops(state, seed, in_process=False):
    lib, sides = state["lib"], state["sides"]
    g_, d_, el = lib.green, lib.dfa, lib.elements
    rng = _rng("table_queries", seed, "ops")
    pick = _Picker(rng)
    report = g_.format_height_report

    def cross_check(rep, other):
        require(report(rep) == report(other), "heights and height_report_via_dfa disagree")

    deck = [(kind, k) for kind, n in _QUERY_MIX.items() for k in (2, 3) for _ in range(n)]
    for kind, k in _cycle(rng, deck):
        side = sides[k, {"leq_L": "small", "eq_L": "small", "height_report_via_dfa": "dfa"}.get(kind, "all")]
        f, g = pick((kind, k, "f"), side), pick((kind, k, "g"), side)
        cross = rng.random() < 0.15
        rf = r_height(k, f.rows)
        if kind == "heights":
            def check(rep, f=f, rf=rf, cross=cross):
                require(_as_fraction(rep.r) == rf, "R-height differs from the image measure")
                if cross:
                    cross_check(rep, d_.height_report_via_dfa(f))
                return report(rep)
            yield Op(kind, lambda f=f: g_.heights(f), check)
        elif kind == "height_report_via_dfa":
            def check(rep, f=f, rf=rf, cross=cross):
                require(_as_fraction(rep.r) == rf, "R-height differs from the image measure")
                if cross:
                    cross_check(rep, g_.heights(f))
                return report(rep)
            yield Op(kind, lambda f=f: d_.height_report_via_dfa(f), check)
        elif kind in ("leq_R", "eq_R"):
            rg = r_height(k, g.rows)

            def check(v, f=f, g=g, rf=rf, rg=rg, kind=kind):
                if v:
                    require(rf <= rg, f"{kind} holds but R(f) > R(g)")
                if kind == "eq_R":
                    require(g_.eq_R(g, f) == v, "eq_R is not symmetric")
                    require(not v or rf == rg, "eq_R holds but the R-heights differ")
                return f"{kind} {v}"
            yield Op(kind, lambda f=f, g=g, fn=kind: getattr(g_, fn)(f, g), check)
        elif kind == "d_index_M":
            def check(v, rf=rf, k=k):
                require(v == digit_index(k, rf), f"d_index_M gave {v}")
                return f"d_index_M {v}"
            yield Op(kind, lambda f=f: g_.d_index_M(f), check)
        elif kind == "image_code":
            def check(v, f=f, rf=rf, k=k):
                injective, code = v
                require(injective == is_injective_ref(k, f.rows), "is_injective is wrong")
                require(ideal_measure(k, code.words) == rf, "image code measure is wrong")
                images = {y for _, y in f.rows}
                require(all(any(w[:i] in images for i in range(len(w) + 1)) for w in code.words),
                        "image code leaves the image ideal")
                return f"image_code {injective} {code}"
            yield Op(kind, lambda f=f: (el.is_injective(f), el.image_code(f)), check)
        else:  # leq_L / eq_L, checked against the section certificate f∘ḡ∘g = f
            def certificate(a, b):
                return el.compose(el.compose(a, g_.section_inverse(b)), b) == a

            def check(v, f=f, g=g, kind=kind):
                want = certificate(f, g) if kind == "leq_L" else (
                    certificate(f, g) and certificate(g, f))
                require(v == want, f"{kind} disagrees with the section certificate")
                return f"{kind} {v}"
            yield Op(kind, lambda f=f, g=g, fn=kind: getattr(g_, fn)(f, g), check)


def _as_fraction(h):
    return Fraction(h.num, h.base ** h.exp)


# -- table_algebra ------------------------------------------------------------

def _algebra_deck():
    """One pass of 603 (kind, k, size) ops.

    Each of six rounds runs separating contexts once per depth (4-13 for
    k=2, 3-8 for k=3) and programs once per target length (2-4 for k=2,
    2-3 for k=3).  Once per pass come three depth-14 contexts and three
    5-letter programs (both about 20-25 ms on the parent code, 1% of ops)
    and the three slowest programs (6 and 7 letters for k=2, 4 for k=3;
    0.5%).  The 99th percentile thus falls in the middle of one group of
    like ops, not at the edge of a gap between sizes, which keeps it
    steady from run to run.
    """
    round_ = []
    for k in (2, 3):
        round_ += [("compose", k, None)] * 12 + [("make", k, None)] * 10
        round_ += [("apply", k, None)] * 11 + [("plep_d_witness", k, None)] * 6
    round_ += [("separating_context", 2, d) for d in range(4, 14)]
    round_ += [("separating_context", 3, d) for d in range(3, 9)]
    round_ += [("synth_eval", 2, n) for n in range(2, 5)] + [("synth_eval", 3, n) for n in range(2, 4)]
    once = [("separating_context", 2, 14)] * 3 + [("synth_eval", 2, 5)] * 3
    once += [("synth_eval", 2, 6), ("synth_eval", 2, 7), ("synth_eval", 3, 4)]
    return 6 * round_ + once


def _algebra_setup(lib, seed, work):
    rng = _rng("table_algebra", seed, "inputs")
    return {"lib": lib, "pool": _element_pool(lib, rng, 20, 8, 128)}


def _split_rows(rng, k, rows, levels):
    """Split rows into their k children, each row with odds 1/2 per level."""
    for _ in range(levels):
        out = []
        for x, y in rows:
            if rng.random() < 0.5:
                out.extend((x + (a,), y + (a,)) for a in range(k))
            else:
                out.append((x, y))
        rows = out
    rng.shuffle(rows)
    return rows


def _separation_pair(lib, rng, k, depth):
    """Two total tables that differ in one image, one domain word at ``depth``."""
    leaves = [()]
    path = tuple(rng.randrange(k) for _ in range(depth))
    for i in range(depth):  # split along the path only: k*depth-(depth-1) rows
        node = path[:i]
        leaves.remove(node)
        leaves.extend(node + (a,) for a in range(k))
    rows = [(x, tuple(rng.randrange(k) for _ in range(rng.randint(1, 3)))) for x in leaves]
    make = lib.elements.Mk1Element.make
    f = make(k, rows)
    i = rng.randrange(len(rows))
    x, y = rows[i]
    rows[i] = (x, y + (rng.randrange(k),))
    g = make(k, rows)
    return f, g


def _level_plep(lib, rng, k, n, shift, distinct, total):
    """A plep table on level n with ``distinct`` image words of length n+shift."""
    level = [tuple(w) for w in _words(k, n)]
    domain = level if total else rng.sample(level, rng.randint(max(distinct, 1), len(level)))
    images = rng.sample(_words(k, n + shift), distinct)
    picks = images + [rng.choice(images) for _ in range(len(domain) - distinct)]
    rng.shuffle(picks)
    return lib.elements.Mk1Element.make(k, list(zip(domain, picks)))


def _words(k, n):
    out = [()]
    for _ in range(n):
        out = [w + (a,) for w in out for a in range(k)]
    return out


def _k_free(k, n):
    while n % k == 0:
        n //= k
    return n


def _plep_pair(lib, rng, k):
    n1, n2 = (rng.randint(2, 5), rng.randint(2, 5)) if k == 2 else (rng.randint(1, 3), rng.randint(1, 3))
    s1, s2 = rng.randint(0, 1), rng.randint(0, 1)
    cap1, cap2 = min(k ** n1, k ** (n1 + s1)), min(k ** n2, k ** (n2 + s2))
    t1 = rng.randint(1, cap1)
    if rng.random() < 0.25:  # indices differ: IndexMismatch is the answer
        choices = [t for t in range(1, cap2 + 1) if _k_free(k, t) != _k_free(k, t1)]
    else:
        choices = [t for t in range(1, cap2 + 1) if _k_free(k, t) == _k_free(k, t1)]
    if not choices:
        choices = [t1 if t1 <= cap2 else 1]
    t2 = rng.choice(choices)
    total = rng.random() < 0.3
    e1 = _level_plep(lib, rng, k, n1, s1, t1, total)
    e2 = _level_plep(lib, rng, k, n2, s2, t2, total)
    return k, e1, e2, _k_free(k, t1) == _k_free(k, t2)


def _algebra_ops(state, seed, in_process=False):
    lib, pool = state["lib"], state["pool"]
    el, g_, ci, pl = lib.elements, lib.green, lib.circuits, lib.plep
    errors = lib.errors
    rng = _rng("table_algebra", seed, "ops")
    pick = _Picker(rng)
    text = el.format_table
    for kind, k, size in _cycle(rng, _algebra_deck()):
        if kind == "compose":
            f, g = pick((kind, k, "f"), pool[k]), pick((kind, k, "g"), pool[k])
            length = _depth(g) + max(len(y) for _, y in g.rows) + _depth(f)
            words = [tuple(rng.randrange(k) for _ in range(length)) for _ in range(4)]

            def check(fg, f=f, g=g, words=words):
                for w in words:
                    u = ref_apply(g.rows, w)
                    want = None if u is None else ref_apply(f.rows, u)
                    require(ref_apply(fg.rows, w) == want, "apply(f∘g, w) != apply(f, apply(g, w))")
                return text(fg)
            yield Op(kind, lambda f=f, g=g: el.compose(f, g), check)
        elif kind == "make":
            e = pick((kind, k), pool[k])
            rows = _split_rows(rng, k, list(e.rows), rng.randint(1, 2))

            def check(out, e=e):
                require(out.rows == e.rows, "make did not reduce split rows to the reduced table")
                return text(out)
            yield Op(kind, lambda k=k, rows=rows: el.Mk1Element.make(k, rows), check)
        elif kind == "apply":
            e = pick((kind, k), pool[k])
            top = _depth(e) + 3
            words = [tuple(rng.randrange(k) for _ in range(rng.randint(0, top))) for _ in range(32)]

            def check(values, e=e, words=words):
                got = [v if isinstance(v, tuple) else v.value for v in values]
                require(got == [ref_apply_any(e.rows, w) for w in words], "apply is wrong")
                return repr(got)
            yield Op(kind, lambda e=e, words=words: [el.apply(e, w) for w in words], check)
        elif kind == "synth_eval":
            s = tuple(rng.randrange(k) for _ in range(size))

            def run(k=k, s=s):
                return ci.eval_generator_word(k, ci.synthesize_partial_identity(k, s))

            def check(out, k=k, s=s):
                require(out.rows == one_hole_identity(k, s), "program is not the one-hole identity")
                return text(out)
            yield Op(kind, run, check)
        elif kind == "separating_context":
            f, g = _separation_pair(lib, rng, k, size)

            def check(ctx, f=f, g=g):
                c1, c2 = ctx
                sf = el.compose(el.compose(c1, f), c2)
                sg = el.compose(el.compose(c1, g), c2)
                require(sf.is_zero != sg.is_zero, "context does not zero exactly one side")
                require(len((sg if sf.is_zero else sf).rows) == 1, "survivor is not one row")
                return text(c1) + "\n" + text(c2)
            yield Op(kind, lambda f=f, g=g: g_.separating_context(f, g), check)
        else:
            k, e1, e2, same = _plep_pair(lib, rng, k)

            def run(e1=e1, e2=e2):
                try:
                    return pl.plep_d_witness(e1, e2)
                except errors.IndexMismatch as exc:
                    return exc

            def check(w, e1=e1, e2=e2, same=same, k=k):
                if not same:
                    require(isinstance(w, errors.IndexMismatch), "expected IndexMismatch")
                    return f"IndexMismatch {w}"
                require(not isinstance(w, Exception), f"unexpected {w!r}")
                q1, q2 = w.q1.words, w.q2.words
                require(len(q1) == len(q2), "witness codes differ in size")
                require(ideal_measure(k, q1) == r_height(k, e1.rows), "q1 is not e1's image")
                require(ideal_measure(k, q2) == r_height(k, e2.rows), "q2 is not e2's image")
                there = [ref_apply(w.b.rows, u) for u in q1]
                require(sorted(there) == sorted(q2), "b does not map q1 onto q2")
                require([ref_apply(w.b_prime.rows, v) for v in there] == list(q1),
                        "b_prime does not undo b")
                return f"tlep {w.tlep}\n{text(w.b)}\n{text(w.b_prime)}"
            yield Op(kind, run, check)


# -- cli_session --------------------------------------------------------------

# One deck of 60 ops; a run's budget is two decks, so normalize, heights
# and dindex M each meet every one of the 8 table files exactly once a run.
_CLI_MIX = {
    "normalize": 4, "compose": 4, "measure": 3, "heights": 4, "heights --dfa": 3,
    "green": 6, "dindex M": 4, "dindex plep": 3, "chain": 3, "with-heights": 3,
    "synth-id": 3, "eval-gen": 3, "phi-b": 4, "count-forallsat": 4, "dfa-mu": 3,
    "witness-plep": 3, "separate": 3,
}
_RELATIONS = ("eqD-M", "eqD-plep", "eqL", "eqR", "leqL", "leqR")


def _cli_setup(lib, seed, workdir: Path):
    """Write the seeded input files the CLI ops read.

    Returns the file groups ops draw from (paths, or pairs of paths) and,
    per path, what the file holds for the checks.
    """
    rng = _rng("cli_session", seed, "inputs")
    el, r = lib.elements, lib.reductions
    text = el.format_table
    workdir.mkdir(parents=True, exist_ok=True)
    files: dict[str, list] = {}
    values: dict[str, object] = {}

    def put(group, name, body, value=None):
        path = str(workdir / name)
        Path(path).write_text(body + "\n", encoding="utf-8")
        files.setdefault(group, []).append(path)
        values[path] = value
        return path

    for i, n in enumerate(_stratified_sizes(rng, 8, 16, 256)):
        k = 2 + i % 2
        e = el.Mk1Element.make(k, random_rows(rng, k, n))
        split = el.Mk1Element(k, tuple(sorted(_split_rows(rng, k, list(e.rows), 1),
                                              key=lambda row: (len(row[0]), row[0]))))
        path = put("table", f"t{i}.tbl", text(split), e)
        if n <= 64:  # the automaton report costs up to 150 ms at 256 rows: keep it off the tail
            files.setdefault("table_dfa", []).append(path)
    for i, n in enumerate(_stratified_sizes(rng, 12, 4, 32)):
        k = 2 + i % 2
        put(f"small{k}", f"s{i}.tbl", text(el.Mk1Element.make(k, random_rows(rng, k, n))))
    for i in range(8):
        _, e1, e2, _ = _plep_pair(lib, rng, 2 + i % 2)
        files.setdefault("plep", []).append((put("plep_1", f"p{i}a.tbl", text(e1)),
                                             put("plep_2", f"p{i}b.tbl", text(e2))))
    for i in range(8):
        k = 2 + i % 2
        f, g = _separation_pair(lib, rng, k, rng.randint(4, 10) if k == 2 else rng.randint(3, 6))
        files.setdefault("sep", []).append((put("sep_1", f"sep{i}a.tbl", text(f)),
                                            put("sep_2", f"sep{i}b.tbl", text(g))))
    for i, n in enumerate(_stratified_sizes(rng, 10, 16, 256)):
        k = 2 + i % 2
        words = sorted({x for x, _ in random_rows(rng, k, n, partial=0.2)})
        code_text = "\n".join([f"k {k}"] + [lib.words.format_word(w) for w in words])
        put("code", f"c{i}.code", code_text, (k, words))
    for i in range(12):
        m = 3 if i % 4 == 0 else 2
        table = rng.getrandbits(1 << (m + 2))
        f = r.formula_from_truth_table(m, 2, table)
        put("formula", f"f{i}.txt", str(f), (m, 2, table, r.covers_every_y(f)))
    return {"lib": lib, "files": files, "values": values}


def _cli_argv(lib, rng, pick_from, files, kind):
    def pick(group):
        return pick_from(group, files[group])

    if kind in ("normalize", "heights", "heights --dfa", "dindex M"):
        path = pick("table_dfa" if kind == "heights --dfa" else "table")
        return [*kind.split(), path]
    if kind == "compose":
        k = rng.choice((2, 3))
        return ["compose", pick(f"small{k}"), pick(f"small{k}")]
    if kind in ("measure", "dfa-mu"):
        return [kind, pick("code")] + (["--dump"] if kind == "dfa-mu" and rng.random() < 0.5 else [])
    if kind == "green":
        rel = rng.choice(_RELATIONS)
        if rel == "eqD-plep":
            return ["green", rel, *pick("plep")]
        k = rng.choice((2, 3))
        return ["green", rel, pick(f"small{k}"), pick(f"small{k}")]
    if kind == "dindex plep":
        return ["dindex", "plep", pick("plep")[0]]
    if kind in ("witness-plep", "separate"):
        return [kind, *pick("plep" if kind == "witness-plep" else "sep")]
    if kind == "chain":
        k = rng.choice((2, 3, 5))
        lo, hi = sorted(rng.sample(range(k ** 3), 2))
        return ["chain", str(k), _digits(k, lo, 3), _digits(k, hi, 3), str(rng.randint(1, 6))]
    if kind == "with-heights":
        k = rng.choice((2, 3))
        while True:
            r_num, l_num = rng.randint(1, k ** 4), rng.randint(1, k ** 4)
            if k == 2 or (r_num - l_num) % (k - 1) == 0:
                break
        return ["with-heights", str(k), _digits(k, r_num, 4), _digits(k, l_num, 4)]
    if kind in ("synth-id", "eval-gen"):
        k = rng.choice((2, 3))
        s = tuple(rng.randrange(k) for _ in range(rng.randint(1, 4 if k == 2 else 3)))
        if kind == "eval-gen":
            return [kind, str(k), *lib.circuits.synthesize_partial_identity(k, s)]
        return [kind, str(k), lib.words.format_word(s)]
    formula = pick("formula")
    if kind == "phi-b":
        return ["phi-b", "--check", formula] if rng.random() < 0.5 else ["phi-b", formula]
    return ["count-forallsat", "--via-element", formula] if rng.random() < 0.5 else [
        "count-forallsat", formula]


def _digits(k, num, places):
    """num * k^-places in the CLI's digit-string form (may equal 1)."""
    if num == k ** places:
        return "1"
    digits = []
    for _ in range(places):
        num, d = divmod(num, k)
        digits.append(str(d))
    return "0." + "".join(reversed(digits)).rstrip("0") if any(d != "0" for d in digits) else "0"


def _cli_expected(lib, argv, values) -> tuple[int, str]:
    """Exit status and stdout the CLI must produce, worked out from the library."""
    el, g_, pl, r, d_, ci, kr = (lib.elements, lib.green, lib.plep, lib.reductions,
                                 lib.dfa, lib.circuits, lib.kary)
    errors = lib.errors
    read = lambda p: el.parse_table(Path(p).read_text(encoding="utf-8"))  # noqa: E731
    fmt = el.format_table
    cmd = argv[0]
    try:
        if cmd == "normalize":
            e = read(argv[1]).reduced()
            require(e == values[argv[1]], "normal form changed")
            out = fmt(e)
        elif cmd == "compose":
            out = fmt(el.compose(read(argv[1]), read(argv[2])))
        elif cmd in ("measure", "dfa-mu"):
            k, words = values[argv[1]]
            code = lib.words.PrefixCode.make(k, words)
            mu = d_.dfa_measure(d_.trie_dfa(code))
            require(_as_fraction(mu) == ideal_measure(k, words), "code measure is wrong")
            out = str(mu) if "--dump" not in argv else (
                d_.format_dfa(d_.trie_dfa(code)) + f"\nmu: {mu}")
        elif cmd == "heights":
            e = read(argv[-1])
            out = g_.format_height_report(g_.heights(e))
        elif cmd == "green":
            fns = {"leqR": g_.leq_R, "leqL": g_.leq_L, "eqR": g_.eq_R, "eqL": g_.eq_L,
                   "eqD-M": g_.eq_D_M, "eqD-plep": pl.eq_D_plep}
            out = "true" if fns[argv[1]](read(argv[2]), read(argv[3])) else "false"
        elif cmd == "dindex":
            e = read(argv[2])
            if argv[1] == "M":
                idx = g_.d_index_M(e)
                require(idx == digit_index(e.k, r_height(e.k, e.rows)), "d_index_M is wrong")
                out = "zero" if idx is None else str(idx)
            else:
                out = str(pl.d_index_plep(e))
        elif cmd == "chain":
            k = int(argv[1])
            chain = g_.dense_chain(k, kr.parse_krational(k, argv[2]),
                                   kr.parse_krational(k, argv[3]), int(argv[4]))
            out = "\n\n".join(fmt(e) for e in chain)
        elif cmd == "with-heights":
            k = int(argv[1])
            out = fmt(g_.element_with_heights(k, kr.parse_krational(k, argv[2]),
                                              kr.parse_krational(k, argv[3])))
        elif cmd == "synth-id":
            k = int(argv[1])
            out = " ".join(ci.synthesize_partial_identity(k, lib.words.parse_word(argv[2], k)))
        elif cmd == "eval-gen":
            e = ci.eval_generator_word(int(argv[1]), list(argv[2:]))
            require(all(x == y for x, y in e.rows), "program is not a partial identity")
            out = fmt(e)
        elif cmd in ("phi-b", "count-forallsat"):
            m, n, table, covers = values[argv[-1]]
            f = r.parse_formula(Path(argv[-1]).read_text(encoding="utf-8"))
            want = truth_table_count(m, n, table)
            if cmd == "count-forallsat":
                out = str(want)
            else:
                if not covers:
                    return 2, ""
                e = r.encode_formula(f)
                out = fmt(e)
                if "--check" in argv:
                    noncoll = lib.congruence.noncollision_measure(el.part(e))
                    require(r.recover_count(m, n, noncoll) == want, "recovered count is wrong")
                    out += (f"\nnoncollision {noncoll}\npredicted "
                            f"{r.predicted_noncollision(m, n, want)}\ncount {want}")
        elif cmd == "witness-plep":
            w = pl.plep_d_witness(read(argv[1]), read(argv[2]))
            out = f"tlep {'true' if w.tlep else 'false'}\n\n{fmt(w.b)}\n\n{fmt(w.b_prime)}"
        elif cmd == "separate":
            c1, c2 = g_.separating_context(read(argv[1]), read(argv[2]))
            out = f"{fmt(c1)}\n\n{fmt(c2)}"
        else:
            raise CheckFailed(f"no expectation for {cmd}")
    except errors.Mk1Error:
        return 2, ""
    return 0, out + "\n"


def _cli_ops(state, seed, in_process=False):
    lib, files, values = state["lib"], state["files"], state["values"]
    rng = _rng("cli_session", seed, "ops")
    pick = _Picker(rng)
    expected: dict[tuple, tuple[int, str]] = {}
    src = str(Path(lib.pkg.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src, PYTHONIOENCODING="utf-8")

    def in_subprocess(argv):
        done = subprocess.run([sys.executable, "-m", "mk1.cli", *argv], env=env,
                              capture_output=True, text=True, encoding="utf-8")
        return done.returncode, done.stdout, done.stderr

    def in_this_process(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = lib.cli.main(list(argv))
        return code, out.getvalue(), err.getvalue()

    call = in_this_process if in_process else in_subprocess
    deck = [kind for kind, n in _CLI_MIX.items() for _ in range(n)]
    for kind in _cycle(rng, deck):
        argv = tuple(_cli_argv(lib, rng, pick, files, kind))

        def check(result, argv=argv):
            code, out, err = result
            require("Traceback (most recent call last)" not in err, f"traceback from {argv}")
            require(code in (0, 1, 2), f"exit status {code} from {argv}")
            if argv not in expected:
                expected[argv] = _cli_expected(lib, argv, values)
            want_code, want_out = expected[argv]
            require(code == want_code, f"exit status {code}, expected {want_code}, from {argv}")
            if code == 0:
                require(out == want_out, f"output of {argv} differs from the library's")
            else:
                require(err.startswith("error "), f"no named error from {argv}")
            shown = [Path(a).name if os.sep in a else a for a in argv]
            return f"{' '.join(shown)}\nexit {code}\n{out}"

        yield Op(argv[0], lambda argv=argv: call(argv), check)


WORKLOADS = {
    w.name: w for w in (
        Workload("forall_count", _forall_setup, _forall_ops, 1000, 12000),
        Workload("table_queries", _queries_setup, _queries_ops, 1000, 1200),
        Workload("table_algebra", _algebra_setup, _algebra_ops, 1000, 8 * 603),
        Workload("cli_session", _cli_setup, _cli_ops, 100, 2 * sum(_CLI_MIX.values())),
    )
}
