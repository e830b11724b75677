"""Acceptance gate: one test per release criterion.

Each test prints an ``ACCEPTANCE PASS`` line on success (capture is lifted
for the line so the checklist shows up in a plain pytest run); a failed
criterion fails its test the normal way.
"""

import itertools
import time

import numpy as np
import pytest

from tubekit.anticipation import (
    STRATEGY_LEARNED,
    STRATEGY_NON_MOTION,
    STRATEGY_NONE,
    anticipation_loss,
    anticipation_loss_grad,
)
from tubekit.cli import main
from tubekit.evaluation import (
    average_precision,
    evaluate,
    run_strategy_study,
    tube_iou,
)
from tubekit.formats import scene_spec_to_dict, write_json
from tubekit.geometry import BoundingBox
from tubekit.linking import (
    ActionTube,
    Detection,
    LinkingParams,
    linking_score,
    tube_link_scores,
    viterbi_link,
)
from tubekit.synthdata import (
    ActorSpec,
    NoiseModel,
    SceneSpec,
    cascade_recall_demo,
    drifting_scene_specs,
)
from tubekit.trimming import (
    PENALTY_ABSOLUTE,
    PENALTY_SIGNED,
    TrimmingParams,
    trim_tube,
)


def report(capsys, line: str) -> None:
    with capsys.disabled():
        print(f"ACCEPTANCE PASS: {line}", flush=True)


# ---------------------------------------------------------------------------
# 1. Viterbi linking is exact


def test_viterbi_matches_exhaustive_enumeration(capsys):
    rng = np.random.default_rng(1001)
    instances = []
    for _ in range(100):
        n_frames = int(rng.integers(1, 7))
        frames = []
        for _ in range(n_frames):
            dets = []
            for _ in range(int(rng.integers(1, 5))):
                x1 = float(rng.uniform(0, 80))
                y1 = float(rng.uniform(0, 80))
                dets.append(
                    Detection(
                        box=BoundingBox(
                            x1, y1, x1 + float(rng.uniform(4, 30)), y1 + float(rng.uniform(4, 30))
                        ),
                        class_id=0,
                        score=float(rng.integers(0, 11)) / 10.0,
                    )
                )
            frames.append(dets)
        params = LinkingParams(beta=float(rng.choice([0.0, 0.3, 0.7, 1.0])))
        instances.append((frames, params))

    elapsed = 0.0
    results = []
    for frames, params in instances:
        start = time.perf_counter()
        path, total = viterbi_link(frames, params)
        elapsed += time.perf_counter() - start
        results.append((path, total))

    for (frames, params), (path, total) in zip(instances, results):
        best = -float("inf")
        for candidate in itertools.product(*(range(len(f)) for f in frames)):
            if len(frames) == 1:
                value = frames[0][candidate[0]].score
            else:
                value = sum(
                    linking_score(
                        frames[t][candidate[t]], frames[t + 1][candidate[t + 1]], params
                    )
                    for t in range(len(frames) - 1)
                )
            if value > best:
                best = value
        assert abs(total - best) <= 1e-9
    assert elapsed < 1.0
    report(
        capsys,
        f"dynamic-programming link path equals exhaustive optimum on 100 instances "
        f"(solver time {elapsed * 1000:.1f} ms)"
    )


# ---------------------------------------------------------------------------
# 2. Temporal trimming is exact


def test_trimming_matches_brute_force(capsys):
    rng = np.random.default_rng(2002)

    def random_tube():
        length = int(rng.integers(2, 51))
        x = float(rng.uniform(0, 50))
        boxes = []
        for _ in range(length):
            x += float(rng.uniform(-3, 3))
            boxes.append(BoundingBox(x, 10, x + 20, 30))
        scores = tuple(float(rng.integers(0, 5)) / 4.0 for _ in range(length))
        return ActionTube(class_id=0, start_frame=0, boxes=tuple(boxes), scores=scores)

    checked = 0
    for _ in range(100):
        tube = random_tube()
        avg = float(rng.choice([1.0, 3.0, 10.0, 25.0, 60.0]))
        link_params = LinkingParams(beta=float(rng.choice([0.0, 0.5, 0.7, 1.0])))
        links = tube_link_scores(tube, link_params)
        for mode in (PENALTY_ABSOLUTE, PENALTY_SIGNED):
            params = TrimmingParams(avg_length={0: avg}, penalty_mode=mode)
            result = trim_tube(tube, params, link_params)

            best_iv = None
            best_obj = -float("inf")
            n = len(links)
            for s in range(n):
                for e in range(s + 1, n + 1):
                    span = e - s
                    dev = (span - avg) / avg
                    pen = abs(dev) if mode == PENALTY_ABSOLUTE else dev
                    obj = sum(links[s:e]) / span - pen
                    if obj > best_obj:
                        best_obj = obj
                        best_iv = (s, e)
            assert (result.start_offset, result.end_offset) == best_iv
            assert result.objective == best_obj  # identical floats, ties included
            checked += 1
    assert checked == 200
    report(
        capsys,
        "interval trimming equals O(n^2) brute force on 100 tubes x 2 penalty "
        "modes with exact tie-breaking"
    )


# ---------------------------------------------------------------------------
# 3. Link-score arithmetic


def test_link_score_reference_arithmetic(capsys):
    a = Detection(box=BoundingBox(0, 0, 10, 10), class_id=0, score=0.8)
    b = Detection(box=BoundingBox(0, 0, 10, 5), class_id=0, score=0.6)  # IoU 0.5
    assert linking_score(a, b, LinkingParams(beta=0.7)) == 0.77
    assert linking_score(a, b, LinkingParams(beta=0.0)) == 1.4
    assert linking_score(a, b, LinkingParams(beta=1.0)) == 0.5
    report(
        capsys,
        "link score reproduces 0.77 exactly for scores 0.8/0.6 at overlap 0.5, "
        "with both beta extremes"
    )


# ---------------------------------------------------------------------------
# 4. Training-loss gradient


def test_loss_gradient_matches_finite_differences(capsys):
    rng = np.random.default_rng(4004)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 9))
        target = rng.normal(0.0, 2.0, size=(n, 4))
        resid = rng.normal(0.0, 2.0, size=(n, 4))
        # keep residuals clear of both the kink at |x| = 1 (second derivative
        # jump) and zero (relative error unstable)
        resid = np.where(np.abs(np.abs(resid) - 1.0) < 0.05, resid + 0.3, resid)
        resid = np.where(np.abs(resid) < 0.05, resid + 0.3, resid)
        pred = target + resid
        positive = (rng.random(n) < 0.7).astype(float)
        if positive.sum() == 0:
            positive[0] = 1.0
        grad = anticipation_loss_grad(pred, target, positive)
        eps = 1e-6
        for i in range(n):
            for c in range(4):
                plus = pred.copy()
                plus[i, c] += eps
                minus = pred.copy()
                minus[i, c] -= eps
                fd = (
                    anticipation_loss(plus, target, positive)
                    - anticipation_loss(minus, target, positive)
                ) / (2.0 * eps)
                if abs(fd) < 1e-12:
                    assert abs(grad[i, c]) < 1e-12
                else:
                    rel = abs(grad[i, c] - fd) / abs(fd)
                    worst = max(worst, rel)
                    assert rel <= 1e-5
    report(
        capsys,
        f"analytic loss gradient matches central differences on 20 configurations "
        f"(worst relative error {worst:.2e})"
    )


# ---------------------------------------------------------------------------
# 5. Cascade localization gain


def test_cascade_recall_gain_at_tight_overlap(capsys):
    curves = cascade_recall_demo(num_boxes=1000, jitter_sigma=18.0, seed=0)
    one = curves["one_stage"]
    two = curves["two_stage"]
    for series in (one, two):
        ordered = [series[t] for t in sorted(series)]
        assert all(a >= b + -1e-12 for a, b in zip(ordered, ordered[1:]))
    gain = two[0.8] - one[0.8]
    assert gain >= 0.10
    report(
        capsys,
        f"second refinement stage lifts recall at IoU 0.8 by "
        f"{gain * 100:.1f} points (one stage {one[0.8]:.3f}, two stages {two[0.8]:.3f})"
    )


# ---------------------------------------------------------------------------
# 6. Noiseless end-to-end run


def test_noiseless_end_to_end_perfect_map(tmp_path, capsys):
    spec = SceneSpec(
        video_id="accept-e2e",
        width=320,
        height=240,
        num_frames=60,
        actors=(
            ActorSpec(
                class_id=0,
                entry_frame=0,
                exit_frame=59,
                box=BoundingBox(30, 90, 60, 120),
                velocity=(2.0, 0.5),
            ),
            ActorSpec(
                class_id=1,
                entry_frame=0,
                exit_frame=59,
                box=BoundingBox(260, 130, 290, 160),
                velocity=(-2.0, -0.5),
            ),
        ),
        noise=NoiseModel.noiseless(),
        seed=5,
    )
    spec_path = tmp_path / "scene.json"
    write_json(spec_path, scene_spec_to_dict(spec))
    out = tmp_path / "run"
    assert main(["simulate", str(spec_path), str(out)]) == 0
    assert main(["link", str(out / "dets.json"), str(out / "tubes.json")]) == 0
    assert (
        main(
            [
                "trim",
                str(out / "tubes.json"),
                str(out / "trimmed.json"),
                "--train-gt",
                str(out / "gt.json"),
            ]
        )
        == 0
    )
    csv_path = out / "eval.csv"
    assert (
        main(
            [
                "eval",
                str(out / "gt.json"),
                str(out / "trimmed.json"),
                "--deltas",
                "0.5",
                "--out",
                str(csv_path),
            ]
        )
        == 0
    )
    line = csv_path.read_text().strip().splitlines()[1]
    value = float(line.split(",")[1])
    assert value == 1.0  # exact
    report(
        capsys,
        "noiseless simulate -> link -> trim -> eval scores mAP 1.0 at overlap 0.5",
    )


# ---------------------------------------------------------------------------
# 7. Anticipation strategy ordering


def test_anticipation_strategy_ordering_on_drifting_fixture(capsys):
    start = time.perf_counter()
    specs = drifting_scene_specs(4)
    study = run_strategy_study(
        specs,
        strategies=(STRATEGY_NONE, STRATEGY_NON_MOTION, STRATEGY_LEARNED),
        gaps=(2, 8, 16),
        seeds=(0, 1, 2),
    )
    elapsed = time.perf_counter() - start
    delta = 0.2
    learned = study.cell(STRATEGY_LEARNED, 8).map_by_delta[delta]
    non_motion = study.cell(STRATEGY_NON_MOTION, 8).map_by_delta[delta]
    none = study.cell(STRATEGY_NONE, None).map_by_delta[delta]
    assert learned > non_motion > none
    assert elapsed < 300.0
    report(
        capsys,
        f"strategy study at overlap 0.2: learned(K=8)={learned:.3f} > "
        f"non-motion(K=8)={non_motion:.3f} > none={none:.3f} "
        f"({elapsed:.1f} s for the full 3x3x3 grid)"
    )


# ---------------------------------------------------------------------------
# 8. Metric invariants


def test_metric_invariants(capsys):
    rng = np.random.default_rng(9009)

    # average precision is invariant under monotone score rescaling
    scores = rng.permutation(np.linspace(0.05, 0.95, 15))
    flags = [(float(s), bool(rng.random() < 0.5)) for s in scores]
    base = average_precision(flags, 8)
    for mapping in (
        lambda s: 2.0 * s + 1.0,
        lambda s: s / 3.0,
        lambda s: s**3,
    ):
        mapped = [(mapping(s), f) for s, f in flags]
        assert average_precision(mapped, 8) == pytest.approx(base, abs=1e-12)

    # mAP is non-increasing in the overlap threshold for a fixed prediction set
    def tube(start, length, x, class_id, score):
        return ActionTube(
            class_id=class_id,
            start_frame=start,
            boxes=tuple(
                BoundingBox(x + t, 50, x + t + 25, 75) for t in range(length)
            ),
            scores=(score,) * length,
        )

    gts = {}
    preds = {}
    for v in range(3):
        vid = f"v{v}"
        gts[vid] = [
            tube(int(rng.integers(0, 8)), 15, float(rng.uniform(0, 150)), c, 1.0)
            for c in (0, 1)
        ]
        preds[vid] = [
            tube(
                g.start_frame + int(rng.integers(0, 5)),
                15,
                g.boxes[0].x1 + float(rng.uniform(0, 12)),
                g.class_id,
                float(rng.uniform(0.2, 0.95)),
            )
            for g in gts[vid]
        ]
    deltas = [0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9]
    by_delta = evaluate(preds, gts, deltas).map_by_delta
    series = [by_delta[d] for d in deltas]
    assert all(a >= b for a, b in zip(series, series[1:]))

    # spatio-temporal tube overlap is symmetric and bounded on random pairs
    def random_tube():
        return tube(
            int(rng.integers(0, 25)),
            int(rng.integers(1, 20)),
            float(rng.uniform(0, 120)),
            0,
            0.5,
        )

    for _ in range(1000):
        a, b = random_tube(), random_tube()
        v = tube_iou(a, b)
        assert v == tube_iou(b, a)
        assert 0.0 <= v <= 1.0
    report(
        capsys,
        "metric invariants hold: rank-invariant AP, threshold-monotone mAP, "
        "symmetric bounded tube overlap on 1000 pairs"
    )


# ---------------------------------------------------------------------------
# 9. CLI determinism


def test_cli_commands_are_byte_deterministic(tmp_path, capsys):
    spec = SceneSpec(
        video_id="accept-det",
        width=320,
        height=240,
        num_frames=36,
        actors=(
            ActorSpec(
                class_id=0,
                entry_frame=0,
                exit_frame=35,
                box=BoundingBox(30, 100, 55, 125),
                velocity=(2.0, 0.3),
            ),
            ActorSpec(
                class_id=1,
                entry_frame=0,
                exit_frame=35,
                box=BoundingBox(265, 120, 290, 145),
                velocity=(-2.0, -0.3),
            ),
        ),
        noise=NoiseModel(
            sigma_loc=1.5,
            miss_rate=0.05,
            fp_rate=0.5,
            tp_score_mean=0.9,
            tp_score_sigma=0.04,
            fp_score_mean=0.35,
            fp_score_sigma=0.08,
        ),
        seed=21,
    )
    spec_dir = tmp_path / "specs"
    spec_dir.mkdir()
    write_json(spec_dir / "scene.json", scene_spec_to_dict(spec))

    def run_all(tag):
        out = tmp_path / tag
        out.mkdir()
        assert main(["simulate", str(spec_dir / "scene.json"), str(out)]) == 0
        assert main(["link", str(out / "dets.json"), str(out / "tubes.json")]) == 0
        assert (
            main(
                [
                    "trim",
                    str(out / "tubes.json"),
                    str(out / "trimmed.json"),
                    "--train-gt",
                    str(out / "gt.json"),
                ]
            )
            == 0
        )
        assert (
            main(
                [
                    "eval",
                    str(out / "gt.json"),
                    str(out / "trimmed.json"),
                    "--out",
                    str(out / "eval.csv"),
                ]
            )
            == 0
        )
        assert (
            main(
                [
                    "proposal-recall",
                    str(out / "dets.json"),
                    str(out / "gt.json"),
                    "--out",
                    str(out / "recall.csv"),
                ]
            )
            == 0
        )
        assert (
            main(
                [
                    "proposal-recall",
                    "--cascade-demo",
                    "--num-boxes",
                    "200",
                    "--out",
                    str(out / "demo.csv"),
                ]
            )
            == 0
        )
        assert (
            main(
                [
                    "study",
                    str(spec_dir),
                    str(out / "study.csv"),
                    "--gaps",
                    "2",
                    "--seeds",
                    "0",
                ]
            )
            == 0
        )
        names = (
            "gt.json",
            "dets.json",
            "tubes.json",
            "trimmed.json",
            "eval.csv",
            "recall.csv",
            "demo.csv",
            "study.csv",
        )
        return {name: (out / name).read_bytes() for name in names}

    first = run_all("run-a")
    second = run_all("run-b")
    assert first == second
    report(
        capsys,
        "all seven CLI commands re-ran byte-identical "
        "(simulate, link, trim, eval, proposal-recall x2, study)"
    )
