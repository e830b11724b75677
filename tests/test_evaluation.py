import re
from pathlib import Path

import numpy as np
import pytest

from tubekit import evaluation
from tubekit.anticipation import AnticipationModel
from tubekit.geometry import BoundingBox
from tubekit.linking import ActionTube
from tubekit.evaluation import (
    EvalReport,
    average_precision,
    evaluate,
    match_tubes,
    mean_ap,
    run_detection_pass,
    run_strategy_study,
    tube_iou,
)
from tubekit.synthdata import (
    ConditionedDetector,
    ProposalOracle,
    drifting_scene_specs,
    generate_scene,
)


def straight_tube(start, length, x=0.0, y=0.0, size=20.0, class_id=0, score=0.5, step=0.0):
    boxes = tuple(
        BoundingBox(x + step * t, y, x + step * t + size, y + size) for t in range(length)
    )
    return ActionTube(
        class_id=class_id,
        start_frame=start,
        boxes=boxes,
        scores=(score,) * length,
    )


class TestTubeIoU:
    def test_identical(self):
        t = straight_tube(0, 10)
        assert tube_iou(t, t) == 1.0

    def test_temporally_disjoint(self):
        assert tube_iou(straight_tube(0, 5), straight_tube(10, 5)) == 0.0

    def test_spatially_disjoint(self):
        a = straight_tube(0, 5, x=0)
        b = straight_tube(0, 5, x=500)
        assert tube_iou(a, b) == 0.0

    def test_partial_temporal_overlap(self):
        # frames 0-9 vs 5-14: shared 5, union 15, perfect spatial overlap
        a = straight_tube(0, 10)
        b = straight_tube(5, 10)
        assert tube_iou(a, b) == pytest.approx(5.0 / 15.0)

    def test_product_of_temporal_and_spatial(self):
        a = straight_tube(0, 10, x=0)
        b = straight_tube(5, 10, x=10)  # half-width offset: spatial IoU 1/3
        assert tube_iou(a, b) == pytest.approx((5.0 / 15.0) * (1.0 / 3.0))

    def test_single_frame_tubes(self):
        a = straight_tube(3, 1)
        b = straight_tube(3, 1)
        assert tube_iou(a, b) == 1.0

    def test_symmetry_and_range_randomized(self):
        rng = np.random.default_rng(404)
        for _ in range(1000):
            a = straight_tube(
                int(rng.integers(0, 20)),
                int(rng.integers(1, 15)),
                x=float(rng.uniform(0, 60)),
                y=float(rng.uniform(0, 60)),
                size=float(rng.uniform(5, 30)),
                step=float(rng.uniform(-2, 2)),
            )
            b = straight_tube(
                int(rng.integers(0, 20)),
                int(rng.integers(1, 15)),
                x=float(rng.uniform(0, 60)),
                y=float(rng.uniform(0, 60)),
                size=float(rng.uniform(5, 30)),
                step=float(rng.uniform(-2, 2)),
            )
            v = tube_iou(a, b)
            assert v == tube_iou(b, a)
            assert 0.0 <= v <= 1.0


class TestMatchTubes:
    def test_simple_match(self):
        gt = [straight_tube(0, 10)]
        pred = [straight_tube(0, 10, score=0.9)]
        assert match_tubes(pred, gt, 0.5) == [0]

    def test_class_must_agree(self):
        gt = [straight_tube(0, 10, class_id=1)]
        pred = [straight_tube(0, 10, class_id=0, score=0.9)]
        assert match_tubes(pred, gt, 0.5) == [None]

    def test_each_gt_claimed_once(self):
        gt = [straight_tube(0, 10)]
        pred = [
            straight_tube(0, 10, score=0.9),
            straight_tube(0, 10, score=0.8),
        ]
        assert match_tubes(pred, gt, 0.5) == [0, None]

    def test_higher_score_claims_first_regardless_of_order(self):
        gt = [straight_tube(0, 10)]
        pred = [
            straight_tube(0, 10, score=0.2),
            straight_tube(0, 10, score=0.9),
        ]
        assert match_tubes(pred, gt, 0.5) == [None, 0]

    def test_threshold_gates_matching(self):
        gt = [straight_tube(0, 10)]
        pred = [straight_tube(5, 10, score=0.9)]  # overlap 1/3
        assert match_tubes(pred, gt, 0.5) == [None]
        assert match_tubes(pred, gt, 0.3) == [0]

    def test_best_overlap_wins(self):
        gt = [straight_tube(0, 10, x=0), straight_tube(0, 10, x=6)]
        pred = [straight_tube(0, 10, x=5, score=0.9)]
        assert match_tubes(pred, gt, 0.1) == [1]

    def test_delta_validation(self):
        with pytest.raises(ValueError):
            match_tubes([], [], 0.0)
        with pytest.raises(ValueError):
            match_tubes([], [], 1.0001)
        assert match_tubes([], [], 1.0) == []


@pytest.mark.parametrize("flag", [True, np.True_, False, np.False_])
def test_a_bool_delta_is_refused(flag):
    tube = straight_tube(0, 10)
    message = f"^delta must be a number, got {re.escape(repr(flag))}$"
    with pytest.raises(ValueError, match=message):
        match_tubes([tube], [tube], flag)
    for score in (evaluate, mean_ap):
        with pytest.raises(ValueError, match=message):
            score({"v": [tube]}, {"v": [tube]}, (flag,))
    with pytest.raises(ValueError, match=r"^study thresholds must be numbers, got \["):
        evaluation._check_study_deltas((0.05, 0.1, 0.2, 0.3, flag))


@pytest.mark.parametrize("delta", ["0.5", None, 1 + 0j])
def test_a_delta_that_is_not_a_number_is_refused_by_name(delta):
    tube = straight_tube(0, 10)
    message = f"^delta must be a number, got {re.escape(repr(delta))}$"
    with pytest.raises(ValueError, match=message):
        match_tubes([tube], [tube], delta)
    for score in (evaluate, mean_ap):
        with pytest.raises(ValueError, match=message):
            score({"v": [tube]}, {"v": [tube]}, (delta,))
    with pytest.raises(ValueError, match=message):
        evaluation._check_study_deltas((0.05, 0.1, 0.2, 0.3, delta))


def brute_force_ap(scored_flags, num_gt, grid=100_000):
    """Numeric area under the interpolated precision envelope (oracle)."""
    order = sorted(range(len(scored_flags)), key=lambda i: -scored_flags[i][0])
    flags = [scored_flags[i][1] for i in order]
    tp = fp = 0
    points = []  # (recall, precision)
    for f in flags:
        tp += 1 if f else 0
        fp += 0 if f else 1
        points.append((tp / num_gt, tp / (tp + fp)))
    area = 0.0
    for k in range(1, grid + 1):
        r = k / grid
        best = 0.0
        for rec, prec in points:
            if rec >= r and prec > best:
                best = prec
        area += best / grid
    return area


def reference_average_precision(scored_flags, num_ground_truth):
    """Average precision accumulated one true positive at a time (reference)."""
    if not scored_flags:
        return 0.0
    order = sorted(range(len(scored_flags)), key=lambda i: -scored_flags[i][0])
    flags = np.array([scored_flags[i][1] for i in order], dtype=np.float64)
    tp = np.cumsum(flags)
    fp = np.cumsum(1.0 - flags)
    recall = tp / num_ground_truth
    precision = tp / (tp + fp)
    envelope = np.maximum.accumulate(precision[::-1])[::-1]
    prev_recall = 0.0
    ap = 0.0
    for k in range(len(flags)):
        if flags[k]:
            ap += (recall[k] - prev_recall) * envelope[k]
            prev_recall = recall[k]
    return float(ap)


class TestAveragePrecision:
    def test_single_perfect_prediction(self):
        assert average_precision([(0.9, True)], 1) == 1.0

    def test_all_tp_ranked_above_fp(self):
        flags = [(0.9, True), (0.8, True), (0.1, False)]
        assert average_precision(flags, 2) == 1.0

    def test_no_predictions(self):
        assert average_precision([], 5) == 0.0

    def test_missed_gt_lowers_recall_ceiling(self):
        assert average_precision([(0.9, True)], 2) == pytest.approx(0.5)

    def test_fp_above_tp(self):
        # ranking: FP then TP -> precision at the TP is 1/2
        assert average_precision([(0.9, False), (0.8, True)], 1) == pytest.approx(0.5)

    def test_requires_ground_truth(self):
        with pytest.raises(ValueError):
            average_precision([(0.5, True)], 0)

    def test_matches_numeric_integration(self):
        rng = np.random.default_rng(13)
        for _ in range(15):
            n = int(rng.integers(1, 11))
            flags = [
                (float(rng.integers(0, 20)) / 19.0, bool(rng.random() < 0.5))
                for _ in range(n)
            ]
            num_tp = sum(1 for _, f in flags if f)
            num_gt = num_tp + int(rng.integers(0, 4))
            if num_gt == 0:
                num_gt = 1
            got = average_precision(flags, num_gt)
            want = brute_force_ap(flags, num_gt)
            assert got == pytest.approx(want, abs=2e-5)

    def test_matches_reference_bit_for_bit(self):
        rng = np.random.default_rng(29)
        cases = [([], 1), ([], 7)]
        for n in (1, 2, 5, 40, 300):
            scores = [float(s) for s in rng.random(n)]
            cases.append(([(s, False) for s in scores], 3))  # all false positives
            cases.append(([(s, True) for s in scores], n))  # all true positives
            cases.append(([(s, True) for s in scores], n + 4))
        for _ in range(2000):
            n = int(rng.integers(1, 60))
            # few distinct scores, so ties are common
            scores = rng.integers(0, int(rng.integers(1, 12)), size=n) / 11.0
            hits = rng.random(n) < rng.random()
            flags = [(float(s), bool(h)) for s, h in zip(scores, hits)]
            num_gt = int(hits.sum()) + int(rng.integers(0, 5)) or 1
            cases.append((flags, num_gt))
        for flags, num_gt in cases:
            got = average_precision(flags, num_gt)
            want = reference_average_precision(flags, num_gt)
            assert got.hex() == want.hex(), (flags, num_gt)

    def test_invariant_under_monotone_score_maps(self):
        rng = np.random.default_rng(3)
        # distinct scores so every monotone map preserves the full ranking
        scores = rng.permutation(np.linspace(0.05, 0.95, 12))
        flags = [(float(s), bool(rng.random() < 0.5)) for s in scores]
        base = average_precision(flags, 6)
        for a, b in [(2.0, 0.0), (0.5, 0.1), (10.0, -1.0)]:
            mapped = [(a * s + b, f) for s, f in flags]
            assert average_precision(mapped, 6) == pytest.approx(base, abs=1e-12)


class TestEvaluate:
    def test_perfect_predictions(self):
        gt = {"v": [straight_tube(0, 10, class_id=0), straight_tube(0, 10, x=100, class_id=1)]}
        pred = {
            "v": [
                straight_tube(0, 10, class_id=0, score=0.9),
                straight_tube(0, 10, x=100, class_id=1, score=0.8),
            ]
        }
        report = evaluate(pred, gt, [0.5])
        assert report.map_by_delta[0.5] == 1.0
        assert report.ap_by_delta[0.5] == {0: 1.0, 1: 1.0}

    def test_one_class_found_one_missed(self):
        gt = {
            "v": [
                straight_tube(0, 10, class_id=0),
                straight_tube(0, 10, x=100, class_id=1),
            ]
        }
        pred = {"v": [straight_tube(0, 10, class_id=0, score=0.9)]}
        report = evaluate(pred, gt, [0.5])
        assert report.ap_by_delta[0.5][0] == 1.0
        assert report.ap_by_delta[0.5][1] == 0.0
        assert report.map_by_delta[0.5] == pytest.approx(0.5)

    def test_map_non_increasing_in_delta(self):
        rng = np.random.default_rng(71)
        gt = {}
        pred = {}
        for v in range(3):
            vid = f"v{v}"
            gts = []
            preds = []
            for i in range(4):
                x = float(rng.uniform(0, 150))
                start = int(rng.integers(0, 10))
                gts.append(straight_tube(start, 12, x=x, class_id=i % 2))
                preds.append(
                    straight_tube(
                        start + int(rng.integers(0, 4)),
                        12,
                        x=x + float(rng.uniform(0, 10)),
                        class_id=i % 2,
                        score=float(rng.uniform(0.1, 0.9)),
                    )
                )
            gt[vid] = gts
            pred[vid] = preds
        deltas = [0.1, 0.2, 0.3, 0.5, 0.7, 0.9]
        report = evaluate(pred, gt, deltas)
        values = [report.map_by_delta[d] for d in deltas]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_matching_is_per_video(self):
        # a prediction in one video cannot claim ground truth in another
        gt = {
            "a": [straight_tube(0, 10)],
            "b": [straight_tube(0, 10)],
        }
        pred = {"a": [straight_tube(0, 10, score=0.9)], "b": []}
        report = evaluate(pred, gt, [0.5])
        # one of two ground truths found: AP = 0.5
        assert report.map_by_delta[0.5] == pytest.approx(0.5)

    def test_unknown_video_rejected(self):
        with pytest.raises(ValueError):
            evaluate({"ghost": []}, {"v": [straight_tube(0, 5)]}, [0.5])

    def test_repeated_delta_rejected(self):
        gt = {"v": [straight_tube(0, 10)]}
        match = r"deltas must not repeat, got \[0\.2, 0\.5, 0\.2\]"
        with pytest.raises(ValueError, match=match):
            evaluate(gt, gt, [0.2, 0.5, 0.2])

    def test_empty_ground_truth_rejected(self):
        with pytest.raises(ValueError):
            evaluate({"v": []}, {"v": []}, [0.5])

    def test_mean_ap_helper(self):
        gt = {"v": [straight_tube(0, 10)]}
        pred = {"v": [straight_tube(0, 10, score=0.9)]}
        assert mean_ap(pred, gt, [0.5]) == {0.5: 1.0}

    def test_prediction_for_class_without_gt_ignored(self):
        gt = {"v": [straight_tube(0, 10, class_id=0)]}
        pred = {
            "v": [
                straight_tube(0, 10, class_id=0, score=0.9),
                straight_tube(0, 10, x=100, class_id=9, score=0.9),
            ]
        }
        report = evaluate(pred, gt, [0.5])
        assert set(report.ap_by_delta[0.5]) == {0}
        assert report.map_by_delta[0.5] == 1.0


class TestStudyArguments:
    """Bad study arguments are rejected before any detection pass runs."""

    @pytest.fixture
    def no_passes(self, monkeypatch):
        def fail(*args, **kwargs):
            pytest.fail("the study ran a detection pass before checking its arguments")

        monkeypatch.setattr(evaluation, "run_detection_pass", fail)

    def test_missing_required_thresholds(self, no_passes):
        with pytest.raises(ValueError, match="must include thresholds"):
            run_strategy_study(drifting_scene_specs(1), deltas=(0.5,), seeds=(0,))

    def test_empty_strategy_list(self, no_passes):
        with pytest.raises(ValueError, match="at least one strategy"):
            run_strategy_study(drifting_scene_specs(1), strategies=[], seeds=(0,))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"strategies": ("none", "none")},
            {"strategies": ("none", "learned"), "gaps": (8, 8)},
            {"seeds": (0, 0)},
            {"deltas": (0.05, 0.1, 0.2, 0.3, 0.3)},
        ],
        ids=["strategies", "gaps", "seeds", "deltas"],
    )
    def test_repeated_value(self, no_passes, kwargs):
        kwargs = {"seeds": (0,), **kwargs}
        with pytest.raises(ValueError, match="must not repeat"):
            run_strategy_study(drifting_scene_specs(1), **kwargs)

    def test_bad_config_with_no_training_strategy(self, no_passes):
        # a study without "learned" never trains, but its config is still checked
        with pytest.raises(ValueError, match="^train_epochs must be at least 1, got -5$"):
            run_strategy_study(
                drifting_scene_specs(1),
                strategies=("none",),
                seeds=(0,),
                config=evaluation.StudyConfig(train_epochs=-5),
            )

    def test_threshold_out_of_range(self, no_passes):
        with pytest.raises(ValueError, match=r"must be in \(0, 1\], got \[1\.5\]"):
            run_strategy_study(
                drifting_scene_specs(1), deltas=(0.05, 0.1, 0.2, 0.3, 1.5), seeds=(0,)
            )


class TestStudyGapsAndSeeds:
    """An empty gap list, or a gap or seed that is not an integer of the right
    range, stops the study before any pass."""

    @pytest.fixture
    def passes(self, monkeypatch):
        calls = []
        real = evaluation.run_detection_pass

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(evaluation, "run_detection_pass", counted)
        return calls

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"gaps": (2.5,)}, "^gap must be an integer, got 2.5$"),
            ({"gaps": (True,)}, "^gap must be an integer, got True$"),
            ({"gaps": (8, np.float64(2.0))}, r"^gap must be an integer, got np\.float64\(2\.0\)$"),
            ({"gaps": (2, 0)}, "^gaps must be positive$"),
            ({"gaps": (-1,)}, "^gaps must be positive$"),
            ({"seeds": (True,)}, "^seed must be an integer, got True$"),
            ({"seeds": (0.5,)}, "^seed must be an integer, got 0.5$"),
            ({"seeds": (0, -1)}, "^seed must be non-negative$"),
            ({"gaps": ()}, "^study needs at least one gap$"),
        ],
        ids=[
            "gap-float", "gap-bool", "gap-numpy-float", "gap-zero", "gap-negative",
            "seed-bool", "seed-float", "seed-negative", "gaps-empty",
        ],
    )
    def test_rejected_before_any_pass(self, passes, kwargs, message):
        specs = drifting_scene_specs(1, num_frames=12)
        with pytest.raises(ValueError, match=message):
            run_strategy_study(specs, **{"seeds": (0,), **kwargs})
        assert passes == []

    def test_numpy_integers_run(self, passes):
        specs = drifting_scene_specs(1, num_frames=12)
        config = evaluation.StudyConfig(train_epochs=20)
        numpy_run = run_strategy_study(
            specs, gaps=(np.int64(2),), seeds=(np.int64(0),), config=config
        )
        assert len(passes) == 1 + 3  # the training pass, then none, non-motion and learned
        assert numpy_run.to_csv() == run_strategy_study(
            specs, gaps=(2,), seeds=(0,), config=config
        ).to_csv()


    def test_a_bool_threshold_is_rejected_before_any_pass(self, passes):
        specs = drifting_scene_specs(1, num_frames=12)
        with pytest.raises(ValueError, match=r"^study thresholds must be numbers, got \[True\]$"):
            run_strategy_study(specs, deltas=(0.05, 0.1, 0.2, 0.3, True), seeds=(0,))
        assert passes == []

    @pytest.mark.parametrize("gaps, bad", [((20,), 20), ((2, 25), 25), ((19, 20), 20)])
    @pytest.mark.parametrize(
        "strategies", [("none",), ("non-motion",), ("none", "non-motion", "learned")]
    )
    def test_a_gap_reaching_a_scene_end_is_rejected_before_any_pass(
        self, passes, gaps, bad, strategies
    ):
        # the second scene is the shorter one
        specs = [drifting_scene_specs(1, num_frames=30)[0]]
        specs.append(drifting_scene_specs(2, num_frames=20)[1])
        message = f"^gap {bad} must be below the 20 frames of scene 'drift-01'$"
        with pytest.raises(ValueError, match=message):
            run_strategy_study(specs, strategies=strategies, gaps=gaps, seeds=(0,))
        assert passes == []

    def test_the_last_gap_below_the_frame_count_runs(self, passes):
        specs = drifting_scene_specs(1, num_frames=12)
        report = run_strategy_study(
            specs, strategies=("none", "non-motion"), gaps=(11,), seeds=(0,)
        )
        assert len(passes) == 1 + 2  # the training pass, then none and non-motion
        assert [(row.strategy, row.gap) for row in report.rows] == [
            ("none", None), ("non-motion", 11)
        ]


class TestStudyConfig:
    @pytest.mark.parametrize(
        "epochs, message",
        [
            (0, "^train_epochs must be at least 1, got 0$"),
            (-1, "^train_epochs must be at least 1, got -1$"),
            (2.5, "^train_epochs must be an integer, got 2.5$"),
            (True, "^train_epochs must be an integer, got True$"),
        ],
    )
    def test_rejects_bad_epochs(self, epochs, message):
        with pytest.raises(ValueError, match=message):
            evaluation.StudyConfig(train_epochs=epochs)


class TestStudyConvergence:
    """The default cap on solver steps gives the study the answer of a cap
    twice as large.

    Four drifting scenes of 90 frames with base seed 67 are the
    ``study-drift`` benchmark's seed 15, whose fits took gradient descent
    longest to converge of the seeds measured. The solver reaches each
    fit's minimum in a few steps, far below either cap, so the two studies
    agree bit for bit; a fit stopped short of its minimum would differ.
    """

    def test_default_epochs_match_2000(self):
        specs = drifting_scene_specs(4, num_frames=90, base_seed=67)
        default = run_strategy_study(specs, seeds=(0,), config=evaluation.StudyConfig())
        longer = run_strategy_study(
            specs, seeds=(0,), config=evaluation.StudyConfig(train_epochs=2000)
        )

        def table(report):
            return [
                (row.strategy, row.gap, [row.map_by_delta[d].hex() for d in report.deltas])
                for row in report.rows
            ]

        assert table(default) == table(longer)
        assert default.to_csv() == longer.to_csv()


class TestBenchmarkStudySeeds:
    """The full-size ``study-drift`` study prints the CSV that
    ``bench/reference.json`` records, at seed 0 and at three seeds whose CSV
    moves when the anticipation fits stop short of their minimum: a cap of
    two solver steps per output moves 19, 30 and 54, a cap of three moves
    54, and dropping the reweighted fallback moves 19 and 54."""

    REFERENCE = Path(__file__).resolve().parents[1] / "bench" / "reference.json"

    @pytest.mark.parametrize("seed", [0, 19, 30, 54])
    def test_csv_matches_the_reference(self, seed):
        import hashlib
        import json

        expected = json.loads(self.REFERENCE.read_text())["full"]["study-drift"][str(seed)]
        specs = drifting_scene_specs(4, num_frames=90, base_seed=7 + 4 * seed)
        report = run_strategy_study(specs, seeds=(0,))
        assert hashlib.sha256(report.to_csv().encode()).hexdigest() == expected["sha256"]


class TestDetectionPassArguments:
    """A strategy name the pass cannot run is rejected before any proposal."""

    @pytest.mark.parametrize("anticipator", ["learned", "bogus"])
    def test_rejected_on_entry(self, monkeypatch, anticipator):
        # no frame reaches the gap, so only the entry check can raise
        scene = generate_scene(drifting_scene_specs(1, num_frames=6)[0])
        oracle = ProposalOracle(scene)

        def fail(frame_index):
            pytest.fail("the pass asked for proposals before checking its anticipator")

        monkeypatch.setattr(oracle, "propose", fail)
        with pytest.raises(ValueError, match=f"got '{anticipator}'"):
            run_detection_pass(scene, oracle, ConditionedDetector(scene), anticipator, gap=8)

    def test_model_gap_must_match_the_pass_gap(self, monkeypatch):
        scene = generate_scene(drifting_scene_specs(1, num_frames=12)[0])
        oracle = ProposalOracle(scene)
        model = AnticipationModel(
            weights=np.zeros((4, 6)),
            bias=np.zeros(4),
            gap=8,
            feature_mean=np.zeros(6),
            feature_scale=np.ones(6),
        )

        def fail(frame_index):
            pytest.fail("the pass asked for proposals before checking the model's gap")

        monkeypatch.setattr(oracle, "propose", fail)
        with pytest.raises(ValueError, match="trained for gap 8, the pass runs with gap 2$"):
            run_detection_pass(scene, oracle, ConditionedDetector(scene), model, gap=2)

    @pytest.mark.parametrize(
        "gap, message",
        [
            (2.5, "^gap must be an integer, got 2.5$"),
            (True, "^gap must be an integer, got True$"),
            (0, "^gap must be at least 1$"),
            (None, "^anticipating strategies need a positive gap$"),
        ],
    )
    def test_bad_gap_rejected_on_entry(self, monkeypatch, gap, message):
        scene = generate_scene(drifting_scene_specs(1, num_frames=12)[0])
        oracle = ProposalOracle(scene)
        proposals = []
        monkeypatch.setattr(oracle, "propose", proposals.append)
        with pytest.raises(ValueError, match=message):
            run_detection_pass(scene, oracle, ConditionedDetector(scene), "non-motion", gap)
        assert proposals == []


class TestStudyGolden:
    """The study's mAP table, bit for bit.

    The digest was recorded before the per-frame proposal and detector
    draws were kept across cells and before training shared one residual
    per epoch; any change to the study's random draws, float operations or
    cell order changes it.
    """

    DIGEST = "8df87376770f36dfe210ca69cd3b078a7aa4e60d35c2fb60139fa1956f44f284"

    def test_rows_match_recorded_digest(self):
        import hashlib

        report = run_strategy_study(
            drifting_scene_specs(1, num_frames=24),
            seeds=(0,),
            config=evaluation.StudyConfig(train_epochs=20),
        )
        h = hashlib.sha256()
        for row in report.rows:
            h.update(f"{row.strategy},{row.gap}".encode())
            for d in report.deltas:
                h.update(f",{d.hex()}={row.map_by_delta[d].hex()}".encode())
            h.update(b"\n")
        assert h.hexdigest() == self.DIGEST


class TestTwoSeedStudyGolden:
    """The study's mAP table over two seeds, bit for bit.

    Pins what a single seed cannot: the train and eval replicas of a
    non-zero seed and the averaging over seeds. Two addends commute, so the
    order of the seed sum is not pinned here. The digest was recorded
    before the replicas were built by one helper.
    """

    DIGEST = "9e868ae30cd5123a4a11d01969244e1a9845f70f6136b296dfbc93cda7adfb26"

    def test_rows_match_recorded_digest(self):
        import hashlib

        report = run_strategy_study(
            drifting_scene_specs(1, num_frames=24),
            seeds=(0, 1),
            config=evaluation.StudyConfig(train_epochs=20),
        )
        h = hashlib.sha256()
        for row in report.rows:
            h.update(f"{row.strategy},{row.gap}".encode())
            for d in report.deltas:
                h.update(f",{d.hex()}={row.map_by_delta[d].hex()}".encode())
            h.update(b"\n")
        assert h.hexdigest() == self.DIGEST
