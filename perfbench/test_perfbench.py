"""Tests of the benchmark itself: smoke runs and wrapper hygiene.

Run from the repository root with ``python -m pytest perfbench``.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import layers  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def originals():
    return {(owner, attr): vars(owner)[attr] for owner, attr, _ in spans.wrap_targets()}


def assert_restored(before):
    for (owner, attr), fn in before.items():
        assert vars(owner)[attr] is fn, f"{owner.__name__}.{attr} is still wrapped"


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_emits_every_metric_and_passes_checks(workload, trace, tmp_path):
    result, lines = run.run_benchmark(workload, 5, 0.0, trace, tiny=True, root=tmp_path)
    assert result["correct"], lines
    assert result["failed"] == 0 and result["attempted"] > 0
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float)
        assert any(line.startswith(f"metric {m['name']} ") for line in lines)
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in declared)


def test_benchmark_json_matches_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == layers.per_layer_metrics()


def test_no_wrapper_leaks_from_a_traced_run_into_an_untraced_one(tmp_path, monkeypatch):
    before = originals()
    run.run_benchmark("trunk", 6, 0.0, True, tiny=True, root=tmp_path / "traced")
    assert_restored(before)
    wrapped = []
    real_wrap = spans.Tracer._wrap
    monkeypatch.setattr(spans.Tracer, "_wrap", lambda self, name, fn: (
        wrapped.append(name), real_wrap(self, name, fn))[1])
    result, _ = run.run_benchmark("trunk", 6, 0.0, False, tiny=True, root=tmp_path / "untraced")
    assert result["correct"]
    assert wrapped == []
    assert_restored(before)


def test_wrappers_are_restored_when_the_workload_raises():
    before = originals()
    tracer = spans.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed():
            tracer.begin_run("failing")
            spans.temporal.feature_names()
            raise RuntimeError("workload failed")
    assert_restored(before)
    assert [tracer.names[n] for n in tracer.name_id] == ["temporal.feature_names"]


def test_samples_are_scaled_by_the_reference_passes_around_them():
    class HalfSpeedReference:
        def __init__(self):
            self.times = {"cpu": [], "memory": []}

        def run(self):
            for kind, t in self.times.items():
                t.append(2 * run.REFERENCE_SECONDS[kind])

    runner = run.Runner(HalfSpeedReference())
    for _ in range(3):
        runner.timed("op", lambda: time.sleep(0.002))
    assert len(runner.reference.times["cpu"]) == 4  # one before the first call, one after each
    assert runner.ref_index["op"] == [1, 2, 3]
    for kind in ("cpu", "memory"):
        assert runner.scaled("op", kind) == pytest.approx([t / 2 for t in runner.times["op"]])
    assert run.Runner().scaled("op") == []


def test_self_times_partition_span_time():
    tracer = spans.Tracer()
    with tracer.installed():
        tracer.begin_run("nested")
        spans.temporal.temporal_feature_vector(np.full((30, spans.temporal.FRAME_DIM), 0.5))
    top = [i for i in range(len(tracer)) if tracer.parent[i] < 0]
    assert len(top) == 1 and len(tracer) > 1
    total_self = sum(tracer.self_time[i] for i in range(len(tracer)))
    assert total_self == pytest.approx(tracer.duration(top[0]), rel=1e-9, abs=1e-12)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ingest", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout == ""
