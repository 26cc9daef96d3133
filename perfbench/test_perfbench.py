"""Tests of the benchmark itself, at a tiny scene count.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

import run

run.import_program()

import spans  # noqa: E402
import workloads  # noqa: E402

TINY = 3


def _benchmark_json() -> dict:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _self_time_metrics() -> list[str]:
    return list(run.SELF_TIME.values())


def test_benchmark_json_names_every_metric_the_run_prints():
    spec = _benchmark_json()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", ["detect_skin", "train"])
def test_untraced_run_reports_every_end_to_end_metric(name, tmp_path):
    record = run.run(name, seed=3, seconds=0.01, trace=False, n_scenes=TINY, workdir=str(tmp_path))
    assert record["metrics"] == {
        k: {"value": record["metrics"][k]["value"], "unit": u} for k, u in run.END_TO_END.items()
    }
    assert all(m["value"] > 0 for m in record["metrics"].values())
    assert record["failed"] == 0, record["errors"]
    assert record["scene_samples"] >= TINY


@pytest.mark.parametrize("name", ["detect_skin", "train"])
def test_traced_run_reports_every_layer(name, tmp_path):
    record = run.run(name, seed=3, seconds=0.01, trace=True, n_scenes=TINY, workdir=str(tmp_path))
    metrics = {k: m["value"] for k, m in record["metrics"].items()}
    assert {k: m["unit"] for k, m in record["metrics"].items()} == run.PER_LAYER
    assert all(metrics[k] >= 0 for k in _self_time_metrics())
    for layer in workloads.REQUIRED_LAYERS[name]:
        assert metrics[run.SELF_TIME[layer]] > 0
    assert record["failed"] == 0, record["errors"]


def test_self_time_subtracts_only_direct_children():
    s = [
        spans.Span(1, "child", spans.LAYER, 1.0, 2.0, 0, None),
        spans.Span(2, "grandchild", spans.LAYER, 1.2, 1.7, 1, None),
        spans.Span(0, "parent", spans.LAYER, 0.0, 4.0, None, None),
        spans.Span(3, "scene", spans.PHASE, 5.0, 6.0, None, None),
    ]
    rep = spans.report(s, traced=7.0)
    assert rep.self_time == pytest.approx({"parent": 3.0, "child": 0.5, "grandchild": 0.5})
    assert rep.unattributed == pytest.approx(1.0 + 2.0)  # the phase, and 6..7 plus gaps
    assert rep.inclusive("grandchild", under="parent") == pytest.approx(0.5)


def test_missing_hook_target_fails_loudly():
    tracer = spans.Tracer()
    with pytest.raises(spans.TraceError, match="no_such_function"):
        tracer.install([spans.Hook("facedet.detect", "no_such_function", "x")])


def test_layer_without_calls_fails_loudly(tmp_path, monkeypatch):
    # a refactor that rebinds the name the pipeline calls hides merge from
    # the hook; the run must stop rather than report merge as 0 s
    import facedet.pipeline

    original = facedet.pipeline.merge_detections
    monkeypatch.setattr(facedet.pipeline, "merge_detections", lambda *a, **k: original(*a, **k))
    with pytest.raises(spans.TraceError, match="detect.merge"):
        run.run("detect_skin", seed=3, seconds=0.01, trace=True, n_scenes=TINY, workdir=str(tmp_path))


def test_hooks_are_removed_after_a_traced_run(tmp_path):
    import facedet.detect
    import facedet.pipeline

    before = facedet.pipeline.detect_faces
    run.run("detect_skin", seed=3, seconds=0.01, trace=True, n_scenes=TINY, workdir=str(tmp_path))
    assert facedet.pipeline.detect_faces is before
    assert not hasattr(facedet.detect.merge_detections, "__wrapped__")


def test_run_without_the_program_exits_nonzero(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "detect_skin", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
