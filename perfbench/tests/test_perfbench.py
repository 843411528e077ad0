"""Tests of the benchmark itself.

    python -m pytest perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

COUNT_METRICS = ("calls", "formulas_built", "rows_in", "rows_out", "calls_per_op",
                 "out_rows", "states_built")


def _set_up(name, seed, tmp_path):
    lib = run.import_mk1()
    return lib, WORKLOADS[name].setup(lib, seed, tmp_path)


@pytest.mark.parametrize("name, ops", [("forall_count", 40), ("table_queries", 30),
                                       ("table_algebra", 60), ("cli_session", 6)])
def test_traced_and_untraced_runs_agree_on_the_digest(name, ops, tmp_path):
    wl = WORKLOADS[name]
    lib, state = _set_up(name, 3, tmp_path)
    plain = run.Loop(ops)
    run.timed_pass(wl.ops(state, 3), plain, ops_limit=ops)
    lib, state = _set_up(name, 3, tmp_path)
    traced, tracer, _ = run.traced_pass(wl, lib, state, 3, ops)
    assert plain.failed == traced.failed == 0, plain.failures + traced.failures
    assert plain.attempted == traced.attempted == ops
    assert plain.digest.hexdigest() == traced.digest.hexdigest()
    assert sum(tracer.calls.values()) > 0


def _bindings(lib):
    """Every (holder, name) -> object the tracer may touch, by identity."""
    out = {}
    for mod in [lib.pkg] + [getattr(lib, layer) for layer in LAYERS]:
        for attr, obj in vars(mod).items():
            out[(mod.__name__, attr)] = obj
            if isinstance(obj, type) and obj.__module__.startswith("mk1"):
                for cattr, cobj in vars(obj).items():
                    out[(obj.__qualname__, cattr)] = cobj
    return out


def test_uninstall_restores_every_original(tmp_path):
    lib, _ = _set_up("table_queries", 1, tmp_path)
    before = _bindings(lib)
    tracer = Tracer()
    tracer.install(lib)
    during = _bindings(lib)
    assert during[("mk1.green", "heights")] is not before[("mk1.green", "heights")]
    assert during[("mk1.green", "part")] is not before[("mk1.green", "part")]
    tracer.uninstall()
    after = _bindings(lib)
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def _count_metrics(name, tmp_path):
    lib, state = _set_up(name, 5, tmp_path)
    loop, tracer, bench_self = run.traced_pass(WORKLOADS[name], lib, state, 5, 40)
    metrics = tracer.metrics(loop.attempted, bench_self)
    return {k: v for k, v in metrics.items() if k.rpartition(".")[2] in COUNT_METRICS}


@pytest.mark.parametrize("name", ["table_queries", "table_algebra", "forall_count"])
def test_counts_repeat_exactly(name, tmp_path):
    first = _count_metrics(name, tmp_path)
    assert first == _count_metrics(name, tmp_path)
    assert any(first.values())


def test_self_times_add_up_to_traced_op_time(tmp_path):
    lib, state = _set_up("table_algebra", 2, tmp_path)
    loop, tracer, bench_self = run.traced_pass(WORKLOADS["table_algebra"], lib, state, 2, 80)
    total = sum(tracer.self_s.values()) + bench_self
    assert total == pytest.approx(loop.busy, rel=1e-9)
    assert bench_self > 0


def test_heights_on_phi1_records_the_restriction_under_heights():
    lib = run.import_mk1()
    phi1 = lib.elements.Mk1Element.make(2, [((0, 0), (0,)), ((0, 1), (0, 0)), ((1,), (0, 0, 0))])
    tracer = Tracer(keep_ops=1)
    tracer.install(lib)
    try:
        report, _, _, error = tracer.run_op(0, lambda: lib.green.heights(phi1))
    finally:
        tracer.uninstall()
    assert error is None
    assert str(report.l) == "0.11"
    by_id = {span[0]: span for span in tracer.spans}

    def ancestors(span):
        while span[1] is not None:
            span = by_id[span[1]]
            yield span[2]

    icr = [s for s in tracer.spans if s[2] == "elements.image_code_restriction"]
    assert icr and all("green.heights" in ancestors(s) for s in icr)
    assert tracer.calls["elements.image_code_restriction"] == 2  # via part and image_code
    assert tracer.counts["elements.icr.rows_out"] == 2 * 6  # PHI1 splits into six rows


def test_refuses_a_checkout_without_src(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run([sys.executable, f"{BENCH.name}/run.py", "--workload", "forall_count",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert done.returncode != 0
    assert "correct" not in done.stdout


def test_benchmark_json_names_every_metric_the_runs_print():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    end_to_end = [m["name"] for m in spec["end_to_end"]]
    assert end_to_end == [name for name, _ in run.END_TO_END]
    assert "setup_s" in end_to_end
    tracer = Tracer()
    layer_metrics = set(tracer.metrics(1, 0.0)) | {
        "cli.interp_ms", "cli.import_ms", "bench.trace_overhead"}
    assert {m["name"] for m in spec["per_layer"]} == layer_metrics


def test_speedometer_scales_by_the_reference_times_near_an_op():
    speed = run.Speedometer()
    speed.at, speed.ms = [0.0, 10.0, 20.0], [0.8, 1.6, 0.4]
    nominal = run.REF_NOMINAL_MS
    assert speed.scale(9.9, 10.1) == pytest.approx(nominal / 1.6)
    assert speed.scale(50.0, 50.1) == pytest.approx(nominal / 0.4)  # none near: the last one
