"""Tests of the benchmark itself, at the tiny smoke size.

Run from the repository root: ``python3 -m pytest bench``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import run

if str(run.SRC) not in sys.path:
    sys.path.insert(0, str(run.SRC))  # as run.main does: tubekit from src/

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from tubekit import evaluation, geometry, linking, trimming  # noqa: E402
from tubekit.linking import Detection, LinkingParams  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _run(capsys, *argv: str) -> tuple[list[str], dict]:
    assert run.main(list(argv)) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def test_benchmark_json_matches_the_code():
    assert set(BENCHMARK) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == tracing.PER_LAYER_UNITS
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_smoke_prints_every_end_to_end_metric_with_its_unit(capsys, workload):
    text, result = _run(capsys, "--workload", workload, "--seed", "0", "--seconds", "0",
                        "--trace", "0", "--size", "tiny")
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 2
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END_UNITS
    for name, unit in [*run.END_TO_END_UNITS.items(), ("map_0.2", "ratio"), ("map_0.5", "ratio")]:
        assert any(line.split()[:1] == [name] and f" {unit}" in line for line in text), name
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_traced_smoke_prints_every_per_layer_metric_and_restores_tubekit(capsys, workload):
    originals = (geometry.iou, linking.iou, linking.extract_tubes, trimming.trim_tubes)
    text, result = _run(capsys, "--workload", workload, "--seed", "0", "--seconds", "0",
                        "--trace", "1", "--size", "tiny")
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == tracing.PER_LAYER_UNITS
    for name, unit in tracing.PER_LAYER_UNITS.items():
        assert any(line.startswith(f"{name} ") and line.endswith(f" {unit}") for line in text)
    assert (geometry.iou, linking.iou, linking.extract_tubes, trimming.trim_tubes) == originals


@pytest.fixture
def crowded_runner(tmp_path):
    workload = workloads.WORKLOADS["crowded-link"]
    inputs = workload.setup(0, "tiny", tmp_path)
    reference = json.loads(run.REFERENCE.read_text())["tiny"]["crowded-link"]["0"]
    return lambda ref: run.Runner(workload, inputs, reference if ref else None)


def test_unperturbed_iterations_pass(crowded_runner):
    runner = crowded_runner(True)
    runner.iterate()
    runner.iterate()
    assert (runner.attempted, runner.failed) == (2, 0)


def test_output_differing_from_reference_fails(crowded_runner, monkeypatch):
    real = trimming.trim_tubes
    monkeypatch.setattr(trimming, "trim_tubes", lambda *a, **k: real(*a, **k)[:-1])
    runner = crowded_runner(True)
    runner.iterate()
    assert (runner.attempted, runner.failed) == (1, 1)


def test_output_changing_between_iterations_fails(crowded_runner, monkeypatch):
    real = trimming.trim_tubes
    calls = []

    def drifting(*args, **kwargs):
        calls.append(1)
        out = real(*args, **kwargs)
        return out if len(calls) == 1 else out[:-1]

    monkeypatch.setattr(trimming, "trim_tubes", drifting)
    runner = crowded_runner(False)
    runner.iterate()
    runner.iterate()
    assert (runner.attempted, runner.failed) == (2, 1)


def test_box_outside_the_image_fails(crowded_runner, monkeypatch):
    real = trimming.trim_tubes

    def widened(*args, **kwargs):
        out = real(*args, **kwargs)
        tube = out[0]
        box = geometry.BoundingBox(tube.boxes[0].x1, tube.boxes[0].y1, 10_000.0, tube.boxes[0].y2)
        return [linking.ActionTube(tube.class_id, tube.start_frame, (box,) + tube.boxes[1:],
                                   tube.scores)] + out[1:]

    monkeypatch.setattr(trimming, "trim_tubes", widened)
    runner = crowded_runner(False)
    runner.iterate()
    assert (runner.attempted, runner.failed) == (1, 1)


def test_tracer_counts_come_from_call_arguments():
    def det(x: float, score: float = 0.5) -> Detection:
        return Detection(box=geometry.BoundingBox(x, 0.0, x + 10.0, 10.0), class_id=0, score=score)

    tracer = tracing.Tracer()
    tracer.install()
    try:
        linking.viterbi_link([[det(0), det(1)], [det(0), det(2), det(4)], [det(1)]],
                             LinkingParams())
        trimming.trim_interval([0.5, 0.2, 0.9, 0.1], 3.0)
        tube = linking.ActionTube(0, 0, (geometry.BoundingBox(0, 0, 5, 5),) * 3, (1.0,) * 3)
        other = linking.ActionTube(0, 2, (geometry.BoundingBox(0, 0, 5, 5),) * 4, (1.0,) * 4)
        evaluation.evaluate({"v": [tube]}, {"v": [other]}, (0.1, 0.2))
    finally:
        tracer.uninstall()
    m = tracer.summary(elapsed=1.0)
    assert m["linking.viterbi_calls"] == 1
    assert m["linking.edges"] == 2 * 3 + 3 * 1
    assert m["geometry.iou_calls"] == (2 * 3 + 3 * 1) + (3 + 1) + 2  # values, walk, tube IoU
    assert m["trimming.intervals"] == 4 * 5 // 2
    assert m["evaluation.tube_iou_calls"] == 2
    assert m["evaluation.frames_compared"] == 2 * 1
    assert m["evaluation.distinct_pair_ratio"] == 0.5
    assert linking.viterbi_link.__module__ == "tubekit.linking"
    assert not hasattr(linking.viterbi_link, "__wrapped__")


def test_self_time_subtracts_children():
    tracer = tracing.Tracer()
    tracer.spans = [
        ["evaluation.evaluate", 0.0, 10.0, -1],
        ["evaluation.match_tubes", 1.0, 4.0, 0],
        ["evaluation.tube_iou", 2.0, 3.0, 1],
        ["evaluation.match_tubes", 5.0, 6.0, 0],
    ]
    m = tracer.summary(elapsed=12.0)
    assert m["evaluation.evaluate_s"] == 10.0
    assert m["evaluation.self_s"] == 10.0
    assert m["evaluation.tube_iou_s"] == 1.0
    assert m["trace.unattributed_s"] == 2.0


def test_tail_needs_ten_samples_beyond_it():
    assert run.tail([1.0] * 10) is None
    pct, value = run.tail([float(i) for i in range(40)])
    assert (pct, value) == (75.0, 29.0)


def test_fails_without_the_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "crowded-link",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
