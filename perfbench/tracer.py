"""Span recorder for the traced run of the mk1 benchmark.

``Tracer.install`` replaces every public function, classmethod and public
method of every mk1 module, plus each dataclass ``__post_init__``, with a
wrapper that records a span.  The wrapper is put into every mk1 module
namespace (and class) that holds the original, matched by identity, so
nested and cross-module calls are caught: ``green.heights`` -> ``part`` ->
``image_code_restriction`` -> ``Mk1Element.__post_init__``.  ``uninstall``
puts every original back.

A span's self time is its duration minus the time its child spans cover;
self times are added up per layer (the module that defines the function)
as spans close, so nothing needs to be stored to report them.  Whole spans
(name, start, end, parent, op id, input size) are kept in memory only for
the first ``keep_ops`` ops and written out at the end.
"""

from __future__ import annotations

import functools
import inspect
import math
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("kary", "words", "elements", "congruence", "green", "plep",
          "circuits", "dfa", "reductions", "cli")
VALIDATE_LAYERS = ("kary", "words", "elements", "congruence")

# function -> metric name of its growth slope (the sizes are chosen in _size)
SLOPES = {
    "green.leq_L": "green.leq_L.slope",
    "green.leq_R": "green.leq_R.slope",
    "green.heights": "green.heights.slope",
    "green.separating_context": "green.separating_context.slope",
    "dfa.height_report_via_dfa": "dfa.height_report_via_dfa.slope",
    "circuits.eval_generator_word": "circuits.eval_generator_word.slope",
    "elements.Mk1Element.make": "elements.make.slope",
    "elements.compose": "elements.compose.slope",
    "elements.image_code_restriction": "elements.image_code_restriction.slope",
}


def _rows(*elements) -> int:
    return sum(len(e.rows) for e in elements)


def _size(name, args):
    """Input size a slope is fitted against: rows, depth or target length."""
    if name == "green.separating_context":
        return max(len(x) for e in args[:2] for x, _ in e.rows)
    if name == "circuits.eval_generator_word":
        return args[1].count("fork")  # a synthesized program forks once per target letter
    if name == "elements.Mk1Element.make":
        return len(args[2])
    return _rows(*args[:2]) if name in ("green.leq_L", "green.leq_R", "elements.compose") \
        else _rows(args[0])


class Tracer:
    def __init__(self, keep_ops: int = 0):
        self.keep_ops = keep_ops
        self.enabled = False
        self.op_id = -1
        self.stack: list[list] = [[0.0, None]]  # per open span: [child time, span id]
        self.next_id = 0
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.calls: Counter = Counter()        # function -> calls
        self.inclusive_s: Counter = Counter()  # function -> time incl. children
        self.counts: Counter = Counter()       # named work counters
        self.samples = defaultdict(list)       # function -> [(size, seconds)]
        self.spans: list[tuple] = []
        self._patched: list[tuple] = []

    # -- installing -----------------------------------------------------------

    def install(self, lib) -> None:
        """Wrap the mk1 functions found in ``lib`` (a namespace of modules)."""
        modules = [lib.pkg] + [getattr(lib, name) for name in LAYERS]
        wrappers: dict[int, object] = {}
        for mod in modules[1:]:
            layer = mod.__name__.rpartition(".")[2]
            for attr, obj in list(vars(mod).items()):
                if inspect.isclass(obj):
                    if obj.__module__ == mod.__name__ and not attr.startswith("_"):
                        self._wrap_class(layer, obj)
                elif (not attr.startswith("_") and callable(obj)
                      and getattr(obj, "__module__", None) == mod.__name__):
                    wrappers[id(obj)] = (obj, self._wrapper(obj, f"{layer}.{attr}", layer))
        for mod in modules:  # every namespace holding an original gets its wrapper
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])

    def _wrap_class(self, layer, cls) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr == "__post_init__" or (not attr.startswith("_") and inspect.isfunction(raw)):
                new = self._wrapper(raw, f"{layer}.{cls.__name__}.{attr}", layer)
            elif isinstance(raw, classmethod) and not attr.startswith("_"):
                new = classmethod(self._wrapper(raw.__func__, f"{layer}.{cls.__name__}.{attr}", layer))
            else:
                continue
            self._patched.append((cls, attr, raw))
            setattr(cls, attr, new)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patched):
            setattr(holder, attr, original)
        self._patched.clear()

    # -- recording ------------------------------------------------------------

    def _wrapper(self, fn, name, layer):
        stack, calls, self_s = self.stack, self.calls, self.self_s
        inclusive, samples = self.inclusive_s, self.samples
        slope = name in SLOPES
        hook = _HOOKS.get(name, _count_formula if layer == "reductions" else None)
        is_make = name == "elements.Mk1Element.make"
        validate = name.endswith(".__post_init__")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            if is_make:  # count the rows, which may arrive as a one-shot iterable
                args = (args[0], args[1], list(args[2]))
            span_id = self.next_id
            self.next_id += 1
            frame = [0.0, span_id]
            parent = stack[-1][1]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                stack[-1][0] += duration
                self_s[layer] += duration - frame[0]
                calls[name] += 1
                inclusive[name] += duration
                if self.op_id < self.keep_ops:
                    size = _size(name, args) if slope else None
                    self.spans.append((span_id, parent, name, start, end, self.op_id, size))
            if slope:
                samples[name].append((_size(name, args), duration))
            if validate:
                self.counts[f"{layer}.validate_s"] += duration
            if hook is not None:
                hook(self.counts, args, result)
            return result

        return wrapper

    def run_op(self, op_id, thunk):
        """Call one op with recording on.

        Returns (result, seconds, seconds inside top-level spans, error).
        """
        self.op_id = op_id
        root = self.stack[0]
        root[0] = 0.0
        self.enabled = True
        start = perf_counter()
        try:
            return thunk(), perf_counter() - start, root[0], None
        except Exception as exc:  # the runner counts it as a failed op
            return None, perf_counter() - start, root[0], exc
        finally:
            self.enabled = False

    # -- reporting ------------------------------------------------------------

    def metrics(self, ops: int, bench_self_s: float) -> dict[str, float]:
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.self_s[layer]
            out[f"{layer}.calls"] = sum(c for n, c in self.calls.items() if n.startswith(layer + "."))
        for layer in VALIDATE_LAYERS:
            out[f"{layer}.validate_s"] = self.counts[f"{layer}.validate_s"]
        counts = self.counts
        out["reductions.formulas_built"] = counts["reductions.formulas_built"]
        out["elements.make.rows_in"] = counts["elements.make.rows_in"]
        out["elements.make.rows_out"] = counts["elements.make.rows_out"]
        out["elements.icr.calls_per_op"] = self.calls["elements.image_code_restriction"] / max(ops, 1)
        out["elements.icr.rows_out"] = counts["elements.icr.rows_out"]
        out_rows = counts["elements.compose.out_rows"]
        out["elements.compose.out_rows"] = out_rows
        out["elements.compose.us_per_out_row"] = (
            1e6 * self.inclusive_s["elements.compose"] / out_rows if out_rows else 0.0)
        out["dfa.states_built"] = counts["dfa.states_built"]
        for fn, metric in SLOPES.items():
            out[metric] = loglog_slope(self.samples.get(fn, ()))
        out["bench.self_s"] = bench_self_s
        return out


def loglog_slope(samples) -> float:
    """Least-squares slope of log(seconds) against log(size); 0 without spread."""
    pts = [(math.log(s), math.log(t)) for s, t in samples if s > 0 and t > 0]
    if len({x for x, _ in pts}) < 2:
        return 0.0
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sxx


def _count_make(counts, args, result):
    counts["elements.make.rows_in"] += len(args[2])
    counts["elements.make.rows_out"] += len(result.rows)


def _count_compose(counts, args, result):
    counts["elements.compose.out_rows"] += len(result.rows)


def _count_icr(counts, args, result):
    counts["elements.icr.rows_out"] += len(result.rows)


def _count_states(counts, args, result):
    counts["dfa.states_built"] += result.n_states


def _count_formula(counts, args, result):
    if type(result).__name__ == "BooleanFormula" and not any(a is result for a in args):
        counts["reductions.formulas_built"] += 1


_HOOKS = {
    "elements.Mk1Element.make": _count_make,
    "elements.compose": _count_compose,
    "elements.image_code_restriction": _count_icr,
    "dfa.trie_dfa": _count_states,
}
