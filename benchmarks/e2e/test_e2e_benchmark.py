"""Tests of the end-to-end benchmark's harness.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q``.  The
workloads are built at tiny sizes through their builders' own size
arguments.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import metrics
import reference
import run
import tracing
import workloads
from worker import run_round

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

TINY = {
    "battery": dict(ids=("fig1", "fig4", "table2")),
    "design_sweep": dict(
        models=("llama",), machines=("A100_80GB",), batch_choices=(1, 2),
        batches_per_pass=1,
    ),
    "fleet_day": dict(n_clients=40, duration_s=1800.0, servers=2),
    "fleet_control": dict(requests_per_day=300),
}
TINY_OPS = {
    "battery": 3, "design_sweep": 2, "fleet_day": 2, "fleet_control": 2,
}


# -- statistics ------------------------------------------------------------


@pytest.mark.parametrize(
    "n, expected",
    [
        (10, None),
        (40, (75.0, 30.25)),
        (100, (90.0, 90.1)),
        (144, (90.0, 129.7)),
        (1000, (99.0, 990.01)),
    ],
)
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, expected):
    samples = [float(value) for value in range(1, n + 1)]
    tail = metrics.tail_percentile(samples)
    if expected is None:
        assert tail is None
    else:
        assert tail[0] == expected[0]
        assert tail[1] == pytest.approx(expected[1])
        assert sum(value > tail[1] for value in samples) >= 10


def test_tail_of_tied_samples_has_nothing_beyond():
    assert metrics.tail_percentile([1.0] * 500) is None


def test_verdict_marks_spread_wider_than_bound_unresolved():
    def verdict(parent, change, better="lower"):
        return metrics.verdict(parent, change, better, 0.1)[0]

    wide = [1.0, 1.3, 0.8, 1.1]
    assert verdict(wide, [1.05, 0.9, 1.2, 1.0]) == "unresolved"
    # Every change run beats every parent run: resolved despite the spread.
    assert verdict(wide, [0.5, 0.6, 0.55, 0.7]) == "ok"
    tight = [1.0, 1.01, 0.99, 1.0]
    assert verdict(tight, [1.3, 1.31, 1.29, 1.3]) == "regression"
    assert verdict(tight, [1.3, 1.31, 1.29, 1.3], "higher") == "ok"


# -- tracing ---------------------------------------------------------------


def test_self_time_subtracts_nested_children():
    spans = [
        tracing.Span("op", 0.0, 10.0, None, 0),
        tracing.Span("a", 1.0, 6.0, 0, 0),
        tracing.Span("a", 2.0, 4.0, 1, 0),  # recursive call of a
        tracing.Span("b", 2.5, 3.0, 2, 0),
        tracing.Span("b", 7.0, 9.0, 0, 0),
    ]
    expected = [3.0, 3.0, 1.5, 0.5, 2.0]
    assert tracing.self_times(spans) == pytest.approx(expected)
    table = tracing.aggregate(spans)
    assert table["a"] == {"calls": 2, "total_s": 7.0, "self_s": 4.5}
    assert table["b"]["self_s"] == pytest.approx(2.5)
    assert sum(row["self_s"] for row in table.values()) == pytest.approx(10.0)


def test_tracer_records_parents_and_ops():
    tracer = tracing.Tracer()
    with tracer.span("outside"):
        pass
    for _ in range(2):
        with tracer.op():
            with tracer.span("x"):
                with tracer.span("y"):
                    pass
    spans = tracer.spans
    assert [span.name for span in spans] == ["op", "x", "y", "op", "x", "y"]
    assert [span.parent for span in spans] == [None, 0, 1, None, 3, 4]
    assert [span.op for span in spans] == [0, 0, 0, 1, 1, 1]


def _originals() -> dict[int, object]:
    originals = {}
    for traced in tracing.TRACED:
        original = tracing._resolve(traced)[2]
        originals[id(original)] = original
    return originals


def _bindings(targets: dict[int, object]) -> dict[tuple, object]:
    return {
        (module.__name__, name): value
        for module, name, value in tracing._module_bindings(targets)
    }


def test_uninstall_restores_every_binding_to_the_original():
    workloads.fleet_control(1, **TINY["fleet_control"])
    originals = _originals()
    before = _bindings(originals)
    assert len(before) > len(originals)  # re-exports bind them again
    classes = {
        traced: tracing._resolve(traced)[2]
        for traced in tracing.TRACED if "." in traced.qualname
    }
    tracer = tracing.Tracer()
    with tracer.installed():
        assert not _bindings(originals), "a binding escaped wrapping"
        for traced in classes:
            assert tracing._resolve(traced)[2].__wrapped__ is classes[traced]
        import repro.serving.fleet as fleet

        late = types.ModuleType("late_importer")
        late.simulate_fleet = fleet.simulate_fleet  # bound while installed
        sys.modules[late.__name__] = late
    try:
        late_binding = ("late_importer", "simulate_fleet")
        assert _bindings(originals) == {
            **before, late_binding: fleet.simulate_fleet,
        }
        for key, value in _bindings(originals).items():
            assert value is originals[id(value)], key
        for traced, original in classes.items():
            assert tracing._resolve(traced)[2] is original
        wrapped = {
            id(getattr(value, "__wrapped__", None))
            for module in list(sys.modules.values())
            for value in list(getattr(module, "__dict__", {}).values())
        }
        assert not wrapped & set(originals)
    finally:
        del sys.modules[late.__name__]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_and_untraced_runs_give_equal_digests(name):
    build = workloads.WORKLOADS[name]
    plain = run_round(build(3, **TINY[name]), op_count=TINY_OPS[name])
    tracer = tracing.Tracer()
    with tracer.installed():
        traced = run_round(
            build(3, **TINY[name]), op_count=TINY_OPS[name], tracer=tracer
        )
    assert len(plain["ops"]) == len(traced["ops"]) == TINY_OPS[name]
    assert all(not op[3] for op in plain["ops"] + traced["ops"])
    assert plain["digest"] == traced["digest"]
    assert traced["layers"]["op"]["calls"] == TINY_OPS[name]
    expected_span = {
        "battery": "experiments.table2",
        "design_sweep": "profiler.profile_model",
        "fleet_day": "serving.generate_traffic",
        "fleet_control": "obs.dumps_telemetry",
    }[name]
    assert traced["layers"][expected_span]["calls"] >= 1


def test_simulate_columnar_passes_engine_only_while_accepted(monkeypatch):
    import repro.serving.fleet as fleet

    calls = []

    def with_engine(requests, pools, *, engine="oracle"):
        calls.append(engine)

    def without_engine(requests, pools):
        calls.append(None)

    monkeypatch.setattr(fleet, "simulate_fleet", with_engine)
    workloads.simulate_columnar([], [])
    monkeypatch.setattr(fleet, "simulate_fleet", without_engine)
    workloads.simulate_columnar([], [])
    assert calls == ["columnar", None]


# -- the runner ------------------------------------------------------------


def test_scale_uses_the_windows_on_either_side():
    chunk = reference.NOMINAL_CHUNK_S
    # The host slowed from 1x to 3x between the windows around the
    # second piece of work and ran at 2x on average beside it.
    windows = [[10, 10 * chunk], [5, 5 * chunk], [5, 15 * chunk]]
    assert reference.nominal([1.0, 4.0], windows) == pytest.approx([1.0, 2.0])


def test_end_to_end_times_do_not_move_with_host_speed():
    def run_at(slowdown: float, pass_latency: bool = False) -> dict:
        window = [4, 4 * reference.NOMINAL_CHUNK_S * slowdown]
        rounds = [
            {
                "ops": [["a", 1.0 * slowdown, 10, []],
                        ["b", 3.0 * slowdown, 30, []]],
                "reference": [window] * 3,
                "rss_mb": 64.0,
                "pass_latency": pass_latency,
            }
        ]
        metrics = run.end_to_end(rounds, [0.2, 0.3, 0.1])
        return {name: metric["value"] for name, metric in metrics.items()}

    nominal = run_at(1.0)
    assert nominal == {
        "setup_s": pytest.approx(0.2),
        "op_p50_s": pytest.approx(2.0),
        "work_per_s": pytest.approx(10.0),
        "peak_rss_mb": 64.0,
    }
    assert run_at(1.7) == {
        name: pytest.approx(value) for name, value in nominal.items()
    }
    # A workload whose users wait for the whole pass reports the pass.
    assert run_at(1.7, pass_latency=True)["op_p50_s"] == pytest.approx(4.0)


def test_runner_refuses_uncached_simulator(monkeypatch, capsys):
    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    assert run.main(["--workload", "fleet_day", "--seconds", "1"]) == 2
    assert "REPRO_NO_CACHE" in capsys.readouterr().err


def test_runner_without_simulator_sources_fails_without_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "battery",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# -- BENCHMARK.json --------------------------------------------------------

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_benchmark_json_matches_the_runner():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(bench) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert bench["paths"] == ["benchmarks/e2e"]
    assert bench["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert isinstance(bench["run_seconds"], int)
    assert 1 <= bench["run_seconds"] <= 60
    assert bench["run_seconds"] == run.DEFAULT_SECONDS

    workload_names = [w["name"] for w in bench["workloads"]]
    assert 2 <= len(workload_names) <= 8
    assert workload_names == list(metrics.WORKLOAD_NAMES)
    assert workload_names == list(workloads.WORKLOADS)
    for workload in bench["workloads"]:
        assert set(workload) == {"name", "why"}
        assert 0 < len(workload["why"]) <= 200 and "\n" not in workload["why"]

    end_to_end = bench["end_to_end"]
    assert 1 <= len(end_to_end) <= 16
    assert {m["name"]: m["unit"] for m in end_to_end} == metrics.END_TO_END
    for metric in end_to_end:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in end_to_end if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in end_to_end)

    from repro.experiments.runner import EXPERIMENTS

    assert list(metrics.EXPERIMENT_IDS) == list(EXPERIMENTS)
    per_layer = bench["per_layer"]
    assert 1 <= len(per_layer) <= 128
    assert per_layer == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in metrics.LAYER_METRICS
    ]
    e2e_names = {m["name"] for m in end_to_end} | {metrics.FAILED_RATIO}
    for metric in metrics.LAYER_METRICS:
        if metric.name.startswith("trace."):
            assert metric.moves == ()  # the harness's own cost
            continue
        assert metric.moves, f"{metric.name} names no end-to-end metric"
        for moved, where in metric.moves:
            assert moved in e2e_names
            assert where and set(where) <= set(workload_names)

    names = workload_names + [m["name"] for m in end_to_end + per_layer]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for metric in end_to_end + per_layer:
        assert UNIT.fullmatch(metric["unit"])
        assert metric["better"] in ("lower", "higher")
