#!/usr/bin/env python3
"""Run the mk1 benchmark.

    python3 perfbench/run.py --workload forall_count --seed 1 --seconds 25 --trace 0

runs one workload in this process: it sets up the seeded inputs several
times (reporting the median as ``setup_s``), then runs ops one at a time in a
closed loop until the workload's op budget is done or ``--seconds`` have
passed, but never before its fixed prefix of ops is done.  The budget takes
10-20 s on a 2-CPU x86 machine, inside the default ``--seconds``, so runs of
one seed normally do the same ops; that keeps figures that grow with the
work done, such as forall_count's memory, comparable.  Every op's result is
checked; the last line of output is one JSON object with ``correct``,
``attempted``, ``failed`` and the end-to-end ``metrics``.
Times are scaled to one machine speed by a reference loop timed between
ops (see ``Speedometer``); the raw times go to the run record.

With ``--trace 1`` it instead runs the workload's fixed prefix of ops twice:
untraced in a fresh child process, then traced here, and reports the
per-layer metrics.  Without ``--workload`` it runs every workload, each in a
fresh process, and prints a summary table.

The benchmark imports mk1 from the ``src`` directory next to it and from
nowhere else.  Each run writes a record under ``.perfbench/runs``.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

from checks import CheckFailed
from tracer import LAYERS, Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"  # run records, span files and the CLI input files

SETUP_REPEATS = 7
HARD_STOP_S = 140  # stop measuring even if the op prefix is unfinished
SPAN_OPS = 50      # ops whose whole spans the traced run writes out
REF_EVERY_S = 0.025  # time a reference loop at least this often between ops
REF_WINDOW_S = 1.0  # reference timings this close to an op give its machine speed
REF_NOMINAL_MS = 0.8  # the reference time that reported times are scaled to

END_TO_END = (("ops_per_s", "1/s"), ("op_p50_ms", "ms"), ("op_p99_ms", "ms"),
              ("peak_rss_mb", "MB"), ("setup_s", "s"))


class BenchError(Exception):
    """The benchmark cannot measure this checkout."""


def import_mk1():
    """Import mk1 afresh from SRC and return its modules as one namespace."""
    for name in [n for n in sys.modules if n == "mk1" or n.startswith("mk1.")]:
        del sys.modules[name]
    pkg = importlib.import_module("mk1")
    where = Path(pkg.__file__).resolve().parent
    if where != (SRC / "mk1").resolve():
        raise BenchError(f"imported mk1 from {where}, not from {SRC}")
    mods = {name: importlib.import_module(f"mk1.{name}") for name in LAYERS + ("errors",)}
    return SimpleNamespace(pkg=pkg, **mods)


def check_op(op, result, error):
    """Canonical text of an op's result, or (None, reason) if it failed."""
    if error is not None:
        return None, f"{op.kind}: {type(error).__name__}: {error}"
    try:
        return op.check(result), None
    except CheckFailed as exc:
        return None, f"{op.kind}: {exc}"
    except Exception as exc:  # a check that cannot even run counts as a failure
        return None, f"{op.kind}: check raised {type(exc).__name__}: {exc}"


class Speedometer:
    """Times a fixed pure-Python loop between ops: the machine's speed over time.

    A shared machine can run the same code 30-40% slower for tens of seconds
    at a time.  Every time the benchmark reports is multiplied by
    REF_NOMINAL_MS over the median reference time measured within
    REF_WINDOW_S of it, which cancels most of that drift; the raw times stay
    in the run record.  The loop touches no mk1 code, so a change to mk1
    moves the scaled times as much as the raw ones.
    """

    def __init__(self):
        self.at: list[float] = []
        self.ms: list[float] = []

    def tick(self, force=False):
        if force or not self.at or perf_counter() - self.at[-1] >= REF_EVERY_S:
            start = perf_counter()
            total = 0
            for i in range(10_000):
                total += i * i % 7
            end = perf_counter()
            self.at.append(end)
            self.ms.append(1e3 * (end - start))

    def scale(self, start, end) -> float:
        """Factor taking a time measured from start to end to nominal speed."""
        lo = bisect.bisect_left(self.at, start - REF_WINDOW_S)
        hi = bisect.bisect_right(self.at, end + REF_WINDOW_S)
        near = self.ms[lo:hi] or self.ms[max(lo - 1, 0):lo + 1]
        return REF_NOMINAL_MS / statistics.median(near)


class Loop:
    """Counts, digest and op times of one pass over a workload's ops."""

    def __init__(self, digest_ops):
        self.digest_ops = digest_ops
        self.digest = hashlib.sha256()
        self.attempted = self.failed = 0
        self.intervals: list[tuple] = []  # (end, seconds, passed) per op
        self.busy = 0.0                   # seconds inside ops, passed or not
        self.failures: list[str] = []
        self.kinds: dict[str, int] = {}
        self.speed = Speedometer()

    def record(self, op, seconds, result, error):
        end = perf_counter()
        self.attempted += 1
        self.busy += seconds
        self.kinds[op.kind] = self.kinds.get(op.kind, 0) + 1
        text, reason = check_op(op, result, error)
        self.intervals.append((end, seconds, reason is None))
        if reason is not None:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(reason)
            text = f"FAILED {reason}"
        if self.attempted <= self.digest_ops:
            self.digest.update(f"{self.attempted} {op.kind}\n{text}\n".encode())

    def figures(self, scaled=True):
        """(ops_per_s, sorted seconds of the passed ops), scaled to nominal speed or raw."""
        busy, passed = 0.0, []
        for end, seconds, ok in self.intervals:
            if scaled:
                seconds *= self.speed.scale(end - seconds, end)
            busy += seconds
            if ok:
                passed.append(seconds)
        return (len(passed) / busy if busy else 0.0), sorted(passed)


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024  # Linux reports KiB


def timed_pass(ops, loop, ops_limit, seconds=None, min_ops=0):
    """Run ops untraced, one at a time, into ``loop``.

    Stops after ``ops_limit`` ops, or once ``seconds`` have passed and at
    least ``min_ops`` ops are done.
    """
    start = perf_counter()
    loop.speed.tick(force=True)
    for op in ops:
        error = result = None
        t0 = perf_counter()
        try:
            result = op.run()
        except Exception as exc:  # counted as a failed op
            error = exc
        loop.record(op, perf_counter() - t0, result, error)
        loop.speed.tick()
        elapsed = perf_counter() - start
        if loop.attempted >= ops_limit or elapsed > HARD_STOP_S:
            break
        if seconds is not None and elapsed >= seconds and loop.attempted >= min_ops:
            break
    loop.speed.tick(force=True)
    return perf_counter() - start


def latency_ms(lat):
    """Median and 99th percentile of sorted op seconds, in ms."""
    lat = lat or [0.0]
    p99 = statistics.quantiles(lat, n=100, method="inclusive")[98] if len(lat) > 1 else lat[0]
    return 1e3 * statistics.median(lat), 1e3 * p99


def run_untraced(wl, seed, seconds, ops_limit, work):
    loop = Loop(ops_limit or wl.prefix_ops)
    speed = loop.speed
    setup_raw, setup_times = [], []
    for _ in range(SETUP_REPEATS):
        speed.tick(force=True)
        start = perf_counter()
        lib = import_mk1()
        state = wl.setup(lib, seed, work)
        end = perf_counter()
        speed.tick(force=True)
        setup_raw.append(end - start)
        setup_times.append((end - start) * speed.scale(start, end))
    gc.collect()
    if ops_limit is None:
        wall = timed_pass(wl.ops(state, seed), loop, wl.budget_ops, seconds, wl.prefix_ops)
    else:
        wall = timed_pass(wl.ops(state, seed), loop, ops_limit)
    rate, lat = loop.figures()
    p50, p99 = latency_ms(lat)
    metrics = {
        "ops_per_s": rate,
        "op_p50_ms": p50,
        "op_p99_ms": p99,
        "peak_rss_mb": peak_rss_mb(children=wl.name == "cli_session"),
        "setup_s": statistics.median(setup_times),
    }
    raw_rate, raw_lat = loop.figures(scaled=False)
    raw_p50, raw_p99 = latency_ms(raw_lat)
    extra = {"samples": len(lat), "wall_s": wall, "setup_runs_s": setup_times,
             "raw": {"ops_per_s": raw_rate, "op_p50_ms": raw_p50, "op_p99_ms": raw_p99,
                     "setup_s": statistics.median(setup_raw)},
             "reference_ms": {"samples": len(speed.ms), "median": statistics.median(speed.ms),
                              "min": min(speed.ms), "max": max(speed.ms)}}
    return loop, metrics, extra


def run_child_untraced(wl, seed, seconds, ops):
    """The same op prefix, untraced, in a fresh process: (ops_per_s, digest, ok)."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", wl.name,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0", "--ops", str(ops)]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=170)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchError(f"untraced child run failed: {done.stderr.strip()[-2000:]}")
    result = json.loads(lines[-1])
    digest = next(line.split()[1] for line in lines if line.startswith("output_digest "))
    return result["metrics"]["ops_per_s"]["value"], digest, result["correct"]


def cli_start_ms(repeats=7):
    """Median start-up of a bare interpreter, and of one that imports mk1.cli."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    bare, cli = [], []
    for _ in range(repeats):
        for code, out in (("pass", bare), ("import mk1.cli", cli)):
            t0 = perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, check=True)
            out.append(1e3 * (perf_counter() - t0))
    return statistics.median(bare), statistics.median(cli) - statistics.median(bare)


def traced_pass(wl, lib, state, seed, n, keep_ops=SPAN_OPS):
    """The first ``n`` ops with every mk1 call traced: (loop, tracer, bench self time)."""
    tracer = Tracer(keep_ops=keep_ops)
    loop = Loop(n)
    bench_self = 0.0
    gc.collect()
    tracer.install(lib)
    try:
        ops = wl.ops(state, seed, in_process=True)
        loop.speed.tick(force=True)
        for i, op in zip(range(n), ops):
            result, seconds, spanned, error = tracer.run_op(i, op.run)
            bench_self += seconds - spanned
            loop.record(op, seconds, result, error)
            loop.speed.tick()
        loop.speed.tick(force=True)
    finally:
        tracer.uninstall()
    return loop, tracer, bench_self


def run_traced(wl, seed, seconds, ops_limit, work):
    n = ops_limit or wl.prefix_ops
    plain_rate, plain_digest, plain_ok = run_child_untraced(wl, seed, seconds, n)
    lib = import_mk1()
    state = wl.setup(lib, seed, work)
    loop, tracer, bench_self = traced_pass(wl, lib, state, seed, n)
    metrics = tracer.metrics(loop.attempted, bench_self)
    if wl.name == "cli_session":
        metrics["cli.interp_ms"], metrics["cli.import_ms"] = cli_start_ms()
    else:
        metrics["cli.interp_ms"] = metrics["cli.import_ms"] = 0.0
    rate, lat = loop.figures()
    metrics["bench.trace_overhead"] = rate / plain_rate if plain_rate else 0.0
    accounted = sum(tracer.self_s.values()) + bench_self
    problems = []
    if abs(accounted - loop.busy) > 1e-6 * loop.busy + 1e-9:
        problems.append(f"layer self times add up to {accounted} s, not {loop.busy} s")
    if loop.digest.hexdigest() != plain_digest:
        problems.append("traced and untraced runs of this seed differ in output_digest")
    if not plain_ok:
        problems.append("the untraced child run failed its checks")
    extra = {"samples": len(lat), "untraced_ops_per_s": plain_rate,
             "accounted_s": accounted, "problems": problems, "spans": tracer.spans}
    return loop, metrics, extra


def git_commit():
    try:
        done = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    lines = done.stdout.split()
    if done.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def write_record(args, loop, metrics, extra, lib_path) -> Path:
    runs = STATE / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    stem = f"{time.strftime('%Y%m%dT%H%M%S')}-{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    spans = extra.pop("spans", None)
    if spans is not None:
        with open(runs / f"{stem}-spans.jsonl", "w", encoding="utf-8") as out:
            for span_id, parent, name, start, end, op_id, size in spans:
                out.write(json.dumps({"id": span_id, "parent": parent, "name": name,
                                      "start": start, "end": end, "op": op_id,
                                      "size": size}) + "\n")
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "ops_limit": args.ops,
        "python": platform.python_version(), "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(), "mk1_path": lib_path,
        "attempted": loop.attempted, "failed": loop.failed, "failures": loop.failures,
        "op_kinds": loop.kinds, "output_digest": loop.digest.hexdigest(),
        "metrics": metrics, **extra,
    }
    path = runs / f"{stem}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return path


def run_one(args) -> int:
    wl = WORKLOADS[args.workload]
    runner = run_traced if args.trace else run_untraced
    work = STATE / "work" / str(os.getpid())  # input files some workloads write
    try:
        loop, metrics, extra = runner(wl, args.seed, args.seconds, args.ops, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lib_path = str(Path(sys.modules["mk1"].__file__).resolve().parent)
    problems = extra.get("problems", [])
    record = write_record(args, loop, metrics, dict(extra), lib_path)
    print(f"workload {wl.name} seed {args.seed} trace {args.trace} mk1 {lib_path}")
    raw = extra.get("raw", {})
    for name, value in metrics.items():
        note = f"  (raw {raw[name]:.6f})" if name in raw else ""
        if name in ("op_p50_ms", "op_p99_ms"):
            note += f"  (of {extra['samples']} ops)"
        elif name == "setup_s":
            note += f"  (median of {SETUP_REPEATS} set-ups)"
        print(f"{name:34s} {value:14.6f} {unit(name)}{note}")
    print(f"{'fail_rate':34s} {loop.failed / max(loop.attempted, 1):14.6f} 1"
          f"  ({loop.failed} of {loop.attempted} ops)")
    for reason in loop.failures:
        print(f"failure: {reason}")
    for problem in problems:
        print(f"problem: {problem}")
    print(f"output_digest {loop.digest.hexdigest()} over the first "
          f"{min(loop.attempted, loop.digest_ops)} ops")
    print(f"record {record.relative_to(ROOT)}")
    correct = loop.failed == 0 and not problems and loop.attempted >= loop.digest_ops
    print(json.dumps({
        "correct": correct, "attempted": loop.attempted, "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit(name)} for name, value in metrics.items()},
    }))
    return 0


def unit(name: str) -> str:
    if name in dict(END_TO_END):
        return dict(END_TO_END)[name]
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith(".slope"):
        return "log/log"
    if name.endswith(".calls_per_op"):
        return "calls/op"
    if name.endswith(".us_per_out_row"):
        return "us/row"
    if name == "bench.trace_overhead":
        return "ratio"
    return "count"


def run_all(args) -> int:
    """Every workload in its own fresh process, then a summary table."""
    results, status = {}, 0
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.ops is not None:
            argv += ["--ops", str(args.ops)]
        done = subprocess.run(argv, capture_output=True, text=True)
        sys.stdout.write(done.stdout + "\n")
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            status = 1
            continue
        results[name] = json.loads(done.stdout.strip().splitlines()[-1])
        status |= not results[name]["correct"]
    if results:
        metrics = list(next(iter(results.values()))["metrics"])
        print(f"{'metric':34s}" + "".join(f"{n:>16s}" for n in results))
        for metric in metrics:
            cells = "".join(f"{r['metrics'][metric]['value']:16.4f}" for r in results.values())
            print(f"{metric:34s}{cells} {next(iter(results.values()))['metrics'][metric]['unit']}")
        print(f"{'fail_rate':34s}" + "".join(
            f"{r['failed'] / max(r['attempted'], 1):16.4f}" for r in results.values()) + " 1")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload; all of them when omitted")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ops", type=int, help="run exactly this many ops instead")
    args = parser.parse_args(argv)
    if not (SRC / "mk1" / "__init__.py").is_file():
        print(f"error: no mk1 package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload is not None and args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    try:
        return run_one(args) if args.workload else run_all(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
