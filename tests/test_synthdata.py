import math
import re
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

import tubekit.proposals as proposals
import tubekit.synthdata as synthdata
from tubekit.anticipation import (
    anticipate,
    augment_proposals,
    build_training_set,
    train_anticipation_model,
)
from tubekit.geometry import BoundingBox, box_from_center, clip_visible, iou, iou_matrix
from tubekit.linking import Detection, extract_tubes
from tubekit.proposals import cascade_refine, recall_at_iou
from tubekit.synthdata import (
    DEMO_RECALL_THRESHOLDS,
    ActorSpec,
    ConditionedDetector,
    NoiseModel,
    ProposalOracle,
    SceneSpec,
    _add_corner_noise,
    _clip01,
    cascade_recall_demo,
    drifting_scene_specs,
    generate_scene,
    halving_stage,
    render_detections,
)
from tubekit.trimming import TrimmingParams, avg_class_length, trim_tubes


_CALIBRATION = {
    "jitter_sigma": "_ORACLE_JITTER_SIGMA",
    "per_actor": "_ORACLE_PER_ACTOR",
    "clutter": "_ORACLE_CLUTTER",
    "regress_strength": "_DETECTOR_REGRESS_STRENGTH",
    "min_coverage": "_DETECTOR_MIN_COVERAGE",
}


@pytest.fixture
def calibrate(monkeypatch):
    """Set the emulators' calibration constants for one test, by short name."""

    def set_constants(**values):
        for name, value in values.items():
            monkeypatch.setattr(synthdata, _CALIBRATION[name], value)

    return set_constants


def simple_spec(**overrides):
    defaults = dict(
        video_id="t",
        width=200,
        height=200,
        num_frames=20,
        actors=(
            ActorSpec(
                class_id=0,
                entry_frame=0,
                exit_frame=19,
                box=BoundingBox(40, 40, 60, 60),
                velocity=(2.0, 0.0),
            ),
        ),
        noise=NoiseModel.noiseless(),
        seed=3,
    )
    defaults.update(overrides)
    return SceneSpec(**defaults)


class TestSceneGeneration:
    def test_constant_velocity_kinematics(self):
        scene = generate_scene(simple_spec())
        (tube,) = scene.tubes
        assert tube.start_frame == 0
        assert tube.length == 20
        for k, box in enumerate(tube.boxes):
            assert box.x1 == 40.0 + 2.0 * k
            assert box.x2 == 60.0 + 2.0 * k
            assert (box.y1, box.y2) == (40.0, 60.0)

    def test_motion_equals_center_displacement(self):
        scene = generate_scene(simple_spec())
        (motions,) = scene.motions
        assert all(m == (2.0, 0.0) for m in motions[1:])
        # the first frame borrows the following displacement
        assert motions[0] == motions[1]

    def test_single_frame_actor_gets_zero_motion(self):
        spec = simple_spec(
            actors=(
                ActorSpec(
                    class_id=0,
                    entry_frame=5,
                    exit_frame=5,
                    box=BoundingBox(40, 40, 60, 60),
                ),
            )
        )
        scene = generate_scene(spec)
        assert scene.tubes[0].length == 1
        assert scene.motions[0] == ((0.0, 0.0),)

    def test_tube_ends_when_actor_leaves_image(self):
        spec = simple_spec(
            width=100,
            actors=(
                ActorSpec(
                    class_id=0,
                    entry_frame=0,
                    exit_frame=19,
                    box=BoundingBox(80, 40, 96, 56),
                    velocity=(4.0, 0.0),
                ),
            ),
        )
        scene = generate_scene(spec)
        (tube,) = scene.tubes
        # x1 = 80 + 4k reaches the border at k = 5: five visible frames
        assert tube.length == 5
        assert tube.boxes[-1].x2 == 100.0  # clipped at the border

    def test_never_visible_actor_rejected(self):
        spec = simple_spec(
            width=100,
            actors=(
                ActorSpec(
                    class_id=0,
                    entry_frame=0,
                    exit_frame=5,
                    box=BoundingBox(300, 40, 320, 60),
                    velocity=(5.0, 0.0),
                ),
            ),
        )
        with pytest.raises(ValueError, match="actor 0"):
            generate_scene(spec)

    def test_generation_is_deterministic(self):
        spec = simple_spec(
            actors=(
                ActorSpec(
                    class_id=0,
                    entry_frame=0,
                    exit_frame=19,
                    box=BoundingBox(40, 40, 60, 60),
                    velocity=(2.0, 1.0),
                    velocity_sigma=0.5,
                ),
            )
        )
        a = generate_scene(spec)
        b = generate_scene(spec)
        assert a.tubes == b.tubes
        assert a.motions == b.motions

    def test_velocity_noise_perturbs_path(self):
        noisy_actor = ActorSpec(
            class_id=0,
            entry_frame=0,
            exit_frame=19,
            box=BoundingBox(40, 40, 60, 60),
            velocity=(2.0, 0.0),
            velocity_sigma=1.0,
        )
        scene = generate_scene(simple_spec(actors=(noisy_actor,)))
        xs = [b.x1 for b in scene.tubes[0].boxes]
        steps = np.diff(xs)
        assert steps.std() > 0.1  # actually noisy
        assert abs(steps.mean() - 2.0) < 1.0  # but still drifting right

    def test_frame_truth_alignment(self):
        spec = simple_spec(
            actors=(
                ActorSpec(
                    class_id=0,
                    entry_frame=0,
                    exit_frame=19,
                    box=BoundingBox(40, 40, 60, 60),
                    velocity=(2.0, 0.0),
                ),
                ActorSpec(
                    class_id=1,
                    entry_frame=10,
                    exit_frame=15,
                    box=BoundingBox(100, 100, 120, 120),
                ),
            )
        )
        scene = generate_scene(spec)
        assert len(scene.frame_truth(0)) == 1
        assert len(scene.frame_truth(12)) == 2
        assert len(scene.frame_truth(16)) == 1
        assert scene.classes == (0, 1)
        class_id, box, _ = scene.frame_truth(12)[1]
        assert class_id == 1
        assert box == BoundingBox(100, 100, 120, 120)

    @pytest.mark.parametrize("frame_index", [-1, 12, True, 1.5])
    def test_frame_truth_rejects_frames_outside_the_scene(self, frame_index):
        scene = generate_scene(drifting_scene_specs(1, num_frames=12)[0])
        with pytest.raises(ValueError, match="^frame_index must be"):
            scene.frame_truth(frame_index)

    def test_nan_velocity_sigma_rejected(self):
        with pytest.raises(ValueError, match="^velocity_sigma must be non-negative$"):
            ActorSpec(0, 0, 5, BoundingBox(0, 0, 10, 10), velocity_sigma=float("nan"))

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(velocity_sigma=float("inf")), "^velocity_sigma must be finite, got inf$"),
            (dict(velocity=(float("inf"), 0.0)), r"^velocity must be finite, got \(inf, 0\.0\)$"),
            (dict(velocity=(0.0, float("nan"))), r"^velocity must be finite, got \(0\.0, nan\)$"),
            (dict(velocity=(0.0, -float("inf"))), "^velocity must be finite"),
        ],
    )
    def test_non_finite_motion_rejected_at_construction(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            ActorSpec(0, 0, 5, BoundingBox(0, 0, 10, 10), **kwargs)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            simple_spec(num_frames=0)
        with pytest.raises(ValueError):
            simple_spec(actors=())
        with pytest.raises(ValueError):
            # actor outlives the scene
            simple_spec(num_frames=10)

    @pytest.mark.parametrize(
        "args, name",
        [
            ((0, 0.5, 3), "entry_frame"),
            ((0, 0, 3.0), "exit_frame"),
            ((0, False, 3), "entry_frame"),
            ((1.0, 0, 3), "class_id"),
            ((True, 0, 3), "class_id"),
            ((np.float64(0), 0, 3), "class_id"),
        ],
    )
    def test_non_integer_actor_fields_rejected(self, args, name):
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
            ActorSpec(*args, BoundingBox(0, 0, 10, 10))

    @pytest.mark.parametrize(
        "field, value",
        [
            ("num_frames", 20.0),
            ("num_frames", 2.5),
            ("num_frames", True),
            ("seed", 1.5),
            ("seed", True),
            ("seed", np.float64(3.0)),
            ("width", 100.5),
            ("width", True),
            ("height", 200.0),
            ("height", None),
        ],
    )
    def test_non_integer_scene_fields_rejected(self, field, value):
        message = f"^{field} must be an integer, got {re.escape(repr(value))}$"
        with pytest.raises(ValueError, match=message):
            simple_spec(**{field: value})

    def test_range_messages_unchanged(self):
        box = BoundingBox(0, 0, 10, 10)
        with pytest.raises(ValueError, match="^class_id must be non-negative$"):
            ActorSpec(-1, 0, 3, box)
        for entry, exit_ in ((-1, 3), (4, 3)):
            with pytest.raises(ValueError, match="^need 0 <= entry_frame <= exit_frame$"):
                ActorSpec(0, entry, exit_, box)
        with pytest.raises(ValueError, match="^need at least one frame$"):
            simple_spec(num_frames=0)
        with pytest.raises(ValueError, match="^seed must be non-negative$"):
            simple_spec(seed=-1)

    def test_numpy_integer_fields_accepted(self):
        noise = NoiseModel(sigma_loc=2.0, miss_rate=0.1, fp_rate=1.0)
        actor = ActorSpec(
            np.int64(0), np.int32(0), np.int64(19), BoundingBox(40, 40, 60, 60),
            velocity=(2.0, 0.0),
        )
        spec = simple_spec(actors=(actor,), num_frames=np.int64(20), seed=np.int64(3), noise=noise)
        expected = generate_scene(simple_spec(noise=noise))
        assert generate_scene(spec).tubes == expected.tubes
        assert render_detections(generate_scene(spec)) == render_detections(expected)

    @pytest.mark.parametrize(
        "velocity", [(1.0,), (1.0, 2.0, 3.0), (), (float("nan"),), 1.0, ((1.0, 2.0), (3.0, 4.0))]
    )
    def test_velocity_needs_two_components(self, velocity):
        message = f"^velocity must have two components, got {re.escape(str(velocity))}$"
        with pytest.raises(ValueError, match=message):
            ActorSpec(0, 0, 4, BoundingBox(0, 0, 10, 10), velocity=velocity)

    @pytest.mark.parametrize("field", ["width", "height"])
    def test_dimension_beyond_float_range_rejected(self, field):
        with pytest.raises(ValueError, match="^image dimensions must fit in a float$"):
            simple_spec(**{field: 10**400})
        with pytest.raises(ValueError, match="^image dimensions must be positive$"):
            simple_spec(**{field: -(10**400)})


class TestRenderDetections:
    def test_noiseless_reproduces_ground_truth(self):
        scene = generate_scene(simple_spec())
        frames = render_detections(scene)
        assert len(frames) == 20
        for t, fd in enumerate(frames):
            assert fd.frame_index == t
            assert len(fd.detections) == 1
            det = fd.detections[0]
            assert det.box == scene.tubes[0].boxes[t]
            assert det.score == 1.0
            assert det.class_id == 0
            assert det.motion == scene.motions[0][t]

    def test_rendering_is_deterministic(self):
        noise = NoiseModel(sigma_loc=2.0, miss_rate=0.1, fp_rate=1.0)
        scene = generate_scene(simple_spec(noise=noise))
        a = render_detections(scene)
        b = render_detections(scene)
        assert a == b

    def test_different_seeds_differ(self):
        noise = NoiseModel(sigma_loc=2.0, miss_rate=0.1, fp_rate=1.0)
        spec = simple_spec(noise=noise)
        a = render_detections(generate_scene(replace(spec, seed=1)))
        b = render_detections(generate_scene(replace(spec, seed=2)))
        assert a != b

    def test_certain_miss_leaves_only_false_positives(self):
        noise = NoiseModel(miss_rate=1.0, fp_rate=0.0)
        scene = generate_scene(simple_spec(noise=noise))
        frames = render_detections(scene)
        assert all(fd.detections == () for fd in frames)

    def test_miss_rate_monte_carlo(self):
        # one static actor over many frames: the empirical miss fraction
        # must sit near the configured rate
        miss = 0.2
        n_frames = 10_000
        spec = simple_spec(
            num_frames=n_frames,
            actors=(
                ActorSpec(
                    class_id=0,
                    entry_frame=0,
                    exit_frame=n_frames - 1,
                    box=BoundingBox(40, 40, 60, 60),
                ),
            ),
            noise=NoiseModel(sigma_loc=0.0, miss_rate=miss, fp_rate=0.0),
        )
        frames = render_detections(generate_scene(spec))
        observed = sum(1 for fd in frames if not fd.detections) / n_frames
        assert abs(observed - miss) < 0.02

    def test_false_positive_rate_monte_carlo(self):
        fp_rate = 2.0
        n_frames = 5_000
        spec = simple_spec(
            num_frames=n_frames,
            actors=(
                ActorSpec(
                    class_id=0,
                    entry_frame=0,
                    exit_frame=n_frames - 1,
                    box=BoundingBox(40, 40, 60, 60),
                ),
            ),
            noise=NoiseModel(sigma_loc=0.0, miss_rate=1.0, fp_rate=fp_rate),
        )
        frames = render_detections(generate_scene(spec))
        counts = [len(fd.detections) for fd in frames]
        assert abs(np.mean(counts) - fp_rate) < 0.1

    def test_scores_always_in_unit_interval(self):
        noise = NoiseModel(
            sigma_loc=3.0,
            miss_rate=0.1,
            fp_rate=2.0,
            tp_score_mean=0.95,
            tp_score_sigma=0.5,
            fp_score_mean=0.1,
            fp_score_sigma=0.5,
        )
        scene = generate_scene(simple_spec(noise=noise))
        for fd in render_detections(scene):
            for det in fd.detections:
                assert 0.0 <= det.score <= 1.0

    @pytest.mark.parametrize("name", ["sigma_loc", "tp_score_sigma", "fp_score_sigma", "fp_rate"])
    def test_nan_noise_setting_rejected(self, name):
        with pytest.raises(ValueError, match=f"^{name} must be non-negative$"):
            NoiseModel(**{name: float("nan")})

    @pytest.mark.parametrize("name", ["sigma_loc", "tp_score_sigma", "fp_score_sigma", "fp_rate"])
    def test_infinite_noise_setting_rejected(self, name):
        with pytest.raises(ValueError, match=f"^{name} must be finite, got inf$"):
            NoiseModel(**{name: float("inf")})
        with pytest.raises(ValueError, match=f"^{name} must be non-negative$"):
            NoiseModel(**{name: -float("inf")})

    def test_noise_model_validation(self):
        with pytest.raises(ValueError):
            NoiseModel(miss_rate=1.5)
        with pytest.raises(ValueError):
            NoiseModel(sigma_loc=-1.0)
        with pytest.raises(ValueError):
            NoiseModel(fp_rate=-0.1)
        with pytest.raises(ValueError):
            NoiseModel(tp_score_mean=1.2)


class TestProposalOracle:
    def test_counts_and_determinism(self, calibrate):
        calibrate(jitter_sigma=2.0, per_actor=3, clutter=2)
        scene = generate_scene(simple_spec())
        oracle = ProposalOracle(scene, seed=5)
        first = oracle.propose(4)
        assert len(first) == 5  # 1 actor * 3 + 2 clutter
        assert first == oracle.propose(4)

    def test_mutating_a_returned_list_leaves_later_calls_alone(self, calibrate):
        calibrate(jitter_sigma=2.0, per_actor=3, clutter=2)
        scene = generate_scene(simple_spec())
        oracle = ProposalOracle(scene, seed=5)
        first = oracle.propose(4)
        expected = list(first)
        first.append(BoundingBox(0, 0, 1, 1))
        assert oracle.propose(4) == expected
        second = oracle.propose(4)
        second.clear()
        assert oracle.propose(4) == expected
        assert oracle.propose(4) is not oracle.propose(4)

    def test_zero_jitter_copies_ground_truth(self, calibrate):
        calibrate(jitter_sigma=0.0, per_actor=2, clutter=0)
        scene = generate_scene(simple_spec())
        oracle = ProposalOracle(scene, seed=5)
        gt_box = scene.tubes[0].boxes[7]
        assert oracle.propose(7) == [gt_box, gt_box]

    def test_jittered_proposals_stay_near_truth(self, calibrate):
        calibrate(jitter_sigma=4.0, per_actor=10, clutter=0)
        scene = generate_scene(simple_spec())
        oracle = ProposalOracle(scene, seed=5)
        gt_box = scene.tubes[0].boxes[0]
        overlaps = [iou(p, gt_box) for p in oracle.propose(0)]
        assert min(overlaps) > 0.2
        assert max(overlaps) < 1.0

    def test_default_counts_are_three_per_actor_and_two_clutter(self, calibrate):
        # zero jitter keeps every copy; a clutter box centered on the image
        # always survives clipping
        calibrate(jitter_sigma=0.0)
        scene = generate_scene(simple_spec())
        oracle = ProposalOracle(scene, seed=5)
        gt_box = scene.tubes[0].boxes[6]
        proposals = oracle.propose(6)
        assert len(proposals) == 5
        assert proposals[:3] == [gt_box] * 3


class TestConditionedDetector:
    def make_scene(self, noise=None):
        return generate_scene(
            simple_spec(noise=noise if noise is not None else NoiseModel.noiseless())
        )

    def test_perfect_proposal_perfect_detection(self):
        scene = self.make_scene()
        det = ConditionedDetector(scene, seed=1)
        gt_box = scene.tubes[0].boxes[3]
        out = det.detect(3, [gt_box])
        assert len(out) == 1
        assert out[0].box == gt_box
        assert out[0].score == 1.0
        assert out[0].motion == scene.motions[0][3]

    def test_no_proposals_no_detections(self):
        scene = self.make_scene()
        det = ConditionedDetector(scene, seed=1)
        assert det.detect(3, []) == []

    def test_no_proposals_leaves_only_false_positives_at_zero_coverage_gate(
        self, calibrate
    ):
        # without a proposal nothing covers the truth, whatever the gate
        scene = self.make_scene(NoiseModel(sigma_loc=0.0, miss_rate=0.0, fp_rate=3.0))
        frames = range(scene.spec.num_frames)
        gated = ConditionedDetector(scene, seed=2)
        expected = [gated.detect(t, []) for t in frames]
        calibrate(min_coverage=0.0)
        ungated = ConditionedDetector(scene, seed=2)
        outputs = [ungated.detect(t, []) for t in frames]
        assert outputs == expected
        assert any(outputs)

    def test_frame_without_truth_skips_the_overlap_matrix(self, monkeypatch):
        # an actor entering late leaves early frames with proposals but no truth
        spec = simple_spec(
            actors=(
                ActorSpec(
                    class_id=0,
                    entry_frame=10,
                    exit_frame=19,
                    box=BoundingBox(40, 40, 60, 60),
                ),
            ),
            noise=NoiseModel(sigma_loc=0.0, miss_rate=0.0, fp_rate=3.0),
        )
        scene = generate_scene(spec)
        calls = []

        def counting_iou(a, b):
            calls.append((a, b))
            return iou(a, b)

        monkeypatch.setattr(synthdata, "iou", counting_iou)
        det = ConditionedDetector(scene, seed=2)
        proposal = BoundingBox(40, 40, 60, 60)
        early = [det.detect(t, [proposal]) for t in range(10)]
        assert calls == []
        assert early == [det.detect(t, []) for t in range(10)]
        assert any(early)
        det.detect(12, [proposal])
        assert len(calls) == 1

    def test_low_coverage_is_a_miss(self, calibrate):
        calibrate(min_coverage=0.45)
        scene = self.make_scene()
        det = ConditionedDetector(scene, seed=1)
        gt_box = scene.tubes[0].boxes[3]
        # a sliver of the actor: IoU well under the gate
        sliver = BoundingBox(gt_box.x1, gt_box.y1, gt_box.x1 + 2, gt_box.y1 + 2)
        assert det.detect(3, [sliver]) == []

    @pytest.mark.parametrize(
        "height, bottom",
        [(7, None), (8, 57.0), (9, 57.25)],
        ids=["iou-0.35-missed", "iou-0.40-kept", "iou-0.45-kept"],
    )
    def test_default_gate_and_pull(self, height, bottom):
        # the gate keeps coverage of 0.40 and more, and the kept proposal's
        # bottom moves three quarters of the way to the truth's (60)
        scene = self.make_scene()
        det = ConditionedDetector(scene, seed=1)
        gt_box = scene.tubes[0].boxes[0]  # (40, 40, 60, 60)
        strip = BoundingBox(gt_box.x1, gt_box.y1, gt_box.x2, gt_box.y1 + height)
        out = det.detect(0, [strip])
        if bottom is None:
            assert out == []
        else:
            assert [d.box for d in out] == [
                BoundingBox(gt_box.x1, gt_box.y1, gt_box.x2, bottom)
            ]

    def test_score_scales_with_coverage(self, calibrate):
        noise = NoiseModel(
            sigma_loc=0.0,
            miss_rate=0.0,
            fp_rate=0.0,
            tp_score_mean=0.9,
            tp_score_sigma=0.0,
        )
        scene = self.make_scene(noise)
        calibrate(regress_strength=0.0, min_coverage=0.3)
        det = ConditionedDetector(scene, seed=1)
        gt_box = scene.tubes[0].boxes[0]  # (40, 40, 60, 60)
        half = BoundingBox(gt_box.x1, gt_box.y1, gt_box.x2, gt_box.y1 + 10)  # IoU 0.5
        out = det.detect(0, [half])
        assert len(out) == 1
        assert out[0].score == pytest.approx(0.45)
        assert out[0].box == half  # regress_strength 0 keeps the proposal box

    def test_regression_pulls_proposal_toward_truth(self, calibrate):
        calibrate(regress_strength=0.5, min_coverage=0.3)
        scene = self.make_scene()
        det = ConditionedDetector(scene, seed=1)
        gt_box = scene.tubes[0].boxes[0]
        half = BoundingBox(gt_box.x1, gt_box.y1, gt_box.x2, gt_box.y1 + 10)
        out = det.detect(0, [half])
        assert len(out) == 1
        # halfway between the proposal's bottom (50) and the truth's (60)
        assert out[0].box == BoundingBox(gt_box.x1, gt_box.y1, gt_box.x2, 55.0)

    def test_picks_best_covering_proposal(self, calibrate):
        calibrate(regress_strength=0.0, min_coverage=0.3)
        scene = self.make_scene()
        det = ConditionedDetector(scene, seed=1)
        gt_box = scene.tubes[0].boxes[0]
        good = BoundingBox(gt_box.x1 + 1, gt_box.y1, gt_box.x2 + 1, gt_box.y2)
        bad = BoundingBox(gt_box.x1, gt_box.y1, gt_box.x2, gt_box.y1 + 11)
        out = det.detect(0, [bad, good])
        assert len(out) == 1
        assert out[0].box == good

    def test_detection_is_deterministic(self):
        noise = NoiseModel(sigma_loc=1.5, miss_rate=0.1, fp_rate=1.0)
        scene = self.make_scene(noise)
        det = ConditionedDetector(scene, seed=9)
        gt_box = scene.tubes[0].boxes[3]
        assert det.detect(3, [gt_box]) == det.detect(3, [gt_box])

    def test_reused_instance_matches_fresh_instances(self, calibrate):
        spec = drifting_scene_specs(1, num_frames=12)[0]
        noise = NoiseModel(sigma_loc=2.0, miss_rate=0.2, fp_rate=2.0)
        scene = generate_scene(replace(spec, noise=noise))

        def drawn(seed, **calibration):
            # the oracle reads its calibration when a frame is drawn
            calibrate(**calibration)
            oracle = ProposalOracle(scene, seed=seed)
            return [oracle.propose(t) for t in range(12)].__getitem__

        proposal_sets = [
            drawn(1, jitter_sigma=10.0),
            drawn(2, jitter_sigma=25.0, per_actor=2),
            lambda t: [box for _, box, _ in scene.frame_truth(t)],
            lambda t: [],
        ]
        rng = np.random.default_rng(0)
        frames = [int(t) for t in rng.permutation(12)] + [5, 0, 5, 11, 0]

        def hexed(dets):
            return [
                (
                    tuple(v.hex() for v in d.box.as_tuple()),
                    d.class_id,
                    d.score.hex(),
                    d.motion,
                )
                for d in dets
            ]

        reused = ConditionedDetector(scene, seed=4)
        for call, t in enumerate(frames):
            proposals = proposal_sets[call % len(proposal_sets)](t)
            fresh = ConditionedDetector(scene, seed=4)
            assert hexed(reused.detect(t, proposals)) == hexed(fresh.detect(t, proposals))


def reference_detect(detector, frame_index, proposals):
    """``ConditionedDetector.detect`` as it was written around one ``iou_matrix``
    of the truth rows against the proposals, ``argmax`` picking each row's
    proposal."""
    spec = detector.scene.spec
    noise = spec.noise
    truth, draws, false_positives = detector._draw(frame_index)
    if not (truth and proposals):
        return list(false_positives)
    sigma = noise.sigma_loc
    dets = []
    overlaps = iou_matrix([box for _, box, _ in truth], list(proposals))
    for row, (class_id, gt_box, motion) in enumerate(truth):
        coverage = float(overlaps[row].max())
        miss_draw, corner_noise, score_noise = draws[row]
        if coverage < synthdata._DETECTOR_MIN_COVERAGE:
            continue
        if noise.miss_rate > 0 and miss_draw < noise.miss_rate:
            continue
        prop = proposals[int(overlaps[row].argmax())]
        rho = synthdata._DETECTOR_REGRESS_STRENGTH
        blended = BoundingBox(
            prop.x1 + rho * (gt_box.x1 - prop.x1),
            prop.y1 + rho * (gt_box.y1 - prop.y1),
            prop.x2 + rho * (gt_box.x2 - prop.x2),
            prop.y2 + rho * (gt_box.y2 - prop.y2),
        )
        box = clip_visible(
            _add_corner_noise(blended, [c * sigma for c in corner_noise]),
            spec.width,
            spec.height,
        )
        if box is None:
            continue
        score = _clip01(noise.tp_score_mean * coverage + score_noise * noise.tp_score_sigma)
        dets.append(Detection(box=box, class_id=class_id, score=score, motion=motion))
    dets.extend(false_positives)
    return dets


def hexed_detections(dets):
    return [
        (
            tuple(float(v).hex() for v in d.box.as_tuple()),
            d.class_id,
            float(d.score).hex(),
            d.motion and tuple(float(v).hex() for v in d.motion),
        )
        for d in dets
    ]


class TestDetectMatchesMatrixReference:
    """``detect`` keeps the bits of the matrix-based body it replaced,
    including which of several equally covering proposals it regresses from."""

    def assert_matches(self, make_detector, frame_index, proposals):
        got = make_detector().detect(frame_index, proposals)
        want = reference_detect(make_detector(), frame_index, proposals)
        assert hexed_detections(got) == hexed_detections(want)
        return got

    def test_drifting_fixture_with_and_without_anticipation(self):
        gap = 4
        scene = generate_scene(drifting_scene_specs(1, num_frames=40)[0])
        spec = scene.spec
        size = dict(image_width=spec.width, image_height=spec.height)
        rendered = render_detections(scene)
        model = train_anticipation_model(
            build_training_set(
                [
                    (
                        [(d.box, d.motion) for d in rendered[t].detections],
                        [box for _, box, _ in scene.frame_truth(t + gap)],
                    )
                    for t in range(spec.num_frames - gap)
                ],
                **size,
            ),
            gap,
            epochs=20,
        )
        detected = 0
        for anticipator in ("none", "non-motion", model):
            oracle = ProposalOracle(scene, seed=2)
            detector = ConditionedDetector(scene, seed=3)
            reference = ConditionedDetector(scene, seed=3)
            frames = []
            for t in range(spec.num_frames):
                proposals = oracle.propose(t)
                if anticipator != "none" and t >= gap:
                    predicted = anticipate(
                        anticipator,
                        [(d.box, d.motion or (0.0, 0.0)) for d in frames[t - gap]],
                        **size,
                    )
                    proposals = augment_proposals(proposals, predicted)
                got = detector.detect(t, proposals)
                want = reference_detect(reference, t, proposals)
                assert hexed_detections(got) == hexed_detections(want), (anticipator, t)
                frames.append(got)
            detected += sum(map(len, frames))
        assert detected > 100

    def test_equal_coverage_takes_the_first_proposal(self, calibrate):
        calibrate(regress_strength=0.5)
        scene = generate_scene(simple_spec())
        gt_box = scene.tubes[0].boxes[0]  # (40, 40, 60, 60)
        left = BoundingBox(38, 40, 58, 60)
        right = BoundingBox(42, 40, 62, 60)
        above = BoundingBox(40, 38, 60, 58)
        far = BoundingBox(150, 150, 170, 170)
        assert iou(gt_box, left) == iou(gt_box, right) == iou(gt_box, above)

        def make():
            return ConditionedDetector(scene, seed=1)

        picked = []
        for proposals in (
            [left, right],
            [far, right, left, above],
            [above, left, far, right],
            [right, right, left],  # a duplicate of the best
            [far, left, left],
        ):
            (det,) = self.assert_matches(make, 0, proposals)
            first = next(p for p in proposals if p is not far)
            # noiseless: the box is the first best proposal pulled halfway to the truth
            assert det.box == BoundingBox(
                *(p + 0.5 * (g - p) for p, g in zip(first.as_tuple(), gt_box.as_tuple()))
            )
            picked.append(det.box)
        assert len(set(picked)) == 3

    def test_rows_below_min_coverage(self, calibrate):
        calibrate(min_coverage=0.5)
        actors = (
            ActorSpec(class_id=0, entry_frame=0, exit_frame=9, box=BoundingBox(20, 20, 50, 50)),
            ActorSpec(class_id=1, entry_frame=0, exit_frame=9, box=BoundingBox(120, 120, 150, 160)),
        )
        noise = NoiseModel(sigma_loc=1.0, miss_rate=0.0, fp_rate=0.0)
        scene = generate_scene(simple_spec(actors=actors, noise=noise))
        covering = BoundingBox(21, 19, 51, 49)
        sliver = BoundingBox(120, 120, 126, 126)

        def make():
            return ConditionedDetector(scene, seed=4)

        for t in range(10):
            dets = self.assert_matches(make, t, [sliver, covering])
            assert [d.class_id for d in dets] == [0]
            assert self.assert_matches(make, t, [sliver]) == []


class TestOneDetectorAcrossPasses:
    """A detector that remembers each frame's coverage answers every call of
    the study's passes, and of other lists in between, as a fresh one does."""

    def make_scene(self):
        # squares on the diagonal keep every truth box's x and y corners
        # equal, so a proposal and its transpose overlap it exactly equally
        actors = (
            ActorSpec(
                class_id=0,
                entry_frame=0,
                exit_frame=23,
                box=BoundingBox(40, 40, 92, 92),
                velocity=(1.0, 1.0),
            ),
            ActorSpec(
                class_id=1,
                entry_frame=0,
                exit_frame=23,
                box=BoundingBox(150, 150, 202, 202),
                velocity=(-1.0, -1.0),
            ),
        )
        noise = NoiseModel(sigma_loc=2.0, miss_rate=0.1, fp_rate=1.0)
        return generate_scene(
            simple_spec(width=240, height=240, num_frames=24, actors=actors, noise=noise)
        )

    def test_passes_and_other_lists_match_a_fresh_detector(self, monkeypatch):
        gap = 4
        scene = self.make_scene()
        spec = scene.spec
        size = dict(image_width=spec.width, image_height=spec.height)
        rendered = render_detections(scene)
        model = train_anticipation_model(
            build_training_set(
                [
                    (
                        [(d.box, d.motion) for d in rendered[t].detections],
                        [box for _, box, _ in scene.frame_truth(t + gap)],
                    )
                    for t in range(spec.num_frames - gap)
                ],
                **size,
            ),
            gap,
            epochs=20,
        )
        oracle = ProposalOracle(scene, seed=2)
        detector = ConditionedDetector(scene, seed=3)
        scored = []

        def counting_iou(a, b):
            scored.append(b)
            return iou(a, b)

        def check(t, proposals):
            scored.clear()
            got = detector.detect(t, proposals)
            want = reference_detect(ConditionedDetector(scene, seed=3), t, proposals)
            assert hexed_detections(got) == hexed_detections(want), t
            return got

        monkeypatch.setattr(synthdata, "iou", counting_iou)
        for anticipator in ("none", "non-motion", model):
            frames = []
            for t in range(spec.num_frames):
                drawn = oracle.propose(t)
                proposals = drawn
                if anticipator != "none" and t >= gap:
                    predicted = anticipate(
                        anticipator,
                        [(d.box, d.motion or (0.0, 0.0)) for d in frames[t - gap]],
                        **size,
                    )
                    proposals = augment_proposals(drawn, predicted)
                frames.append(check(t, proposals))
                # after the first pass only the anticipated boxes are scored
                rescored = proposals if anticipator == "none" else proposals[len(drawn):]
                assert scored == rescored * len(scene.frame_truth(t)), (anticipator, t)

        ties_decided = 0
        for t in range(spec.num_frames):
            rows = len(scene.frame_truth(t))
            gt_box = scene.frame_truth(t)[0][1]
            best = max(oracle.propose(t), key=lambda p: iou(gt_box, p))
            tie = BoundingBox(best.y1, best.x1, best.y2, best.x2)
            assert iou(gt_box, tie) == iou(gt_box, best)
            if tie == best:
                continue
            # an anticipated box tying the best oracle overlap: the oracle box wins
            oracle_first = hexed_detections(
                check(t, augment_proposals(oracle.propose(t), [tie]))
            )
            assert scored == [tie] * rows
            # a list not starting with the remembered boxes, where the tie wins
            tie_first_list = [tie] + oracle.propose(t)
            tie_first = hexed_detections(check(t, tie_first_list))
            assert scored == tie_first_list * rows
            # the oracle's list again is scored in full and remembered again
            check(t, oracle.propose(t))
            assert scored == oracle.propose(t) * rows
            again = check(t, augment_proposals(oracle.propose(t), [tie]))
            assert scored == [tie] * rows
            assert hexed_detections(again) == oracle_first
            ties_decided += oracle_first != tie_first
        assert ties_decided > 0


    def test_each_remembered_row_is_built_once(self, monkeypatch):
        gap = 4
        scene = self.make_scene()
        spec = scene.spec
        size = dict(image_width=spec.width, image_height=spec.height)
        rendered = render_detections(scene)
        model = train_anticipation_model(
            build_training_set(
                [
                    (
                        [(d.box, d.motion) for d in rendered[t].detections],
                        [box for _, box, _ in scene.frame_truth(t + gap)],
                    )
                    for t in range(spec.num_frames - gap)
                ],
                **size,
            ),
            gap,
            epochs=20,
        )
        oracle = ProposalOracle(scene, seed=2)
        detector = ConditionedDetector(scene, seed=3)
        for t in range(spec.num_frames):  # draw proposals and noise before counting
            detector.detect(t, [])
            oracle.propose(t)
        built = []

        def counting_clip_visible(box, width, height):
            built.append(box)
            return clip_visible(box, width, height)

        monkeypatch.setattr(synthdata, "clip_visible", counting_clip_visible)
        noise = spec.noise
        reused = anticipated = 0
        for anticipator in ("none", "non-motion", model):
            frames = []
            for t in range(spec.num_frames):
                drawn = oracle.propose(t)
                proposals = drawn
                if anticipator != "none" and t >= gap:
                    predicted = anticipate(
                        anticipator,
                        [(d.box, d.motion or (0.0, 0.0)) for d in frames[t - gap]],
                        **size,
                    )
                    proposals = augment_proposals(drawn, predicted)
                built.clear()
                frames.append(detector.detect(t, proposals))
                builds = len(built)
                want = reference_detect(ConditionedDetector(scene, seed=3), t, proposals)
                assert hexed_detections(frames[-1]) == hexed_detections(want)
                # rows passing the coverage and miss gates, and whether a
                # remembered proposal gives each its coverage
                expected = 0
                truth, draws, _ = detector._drawn[t]
                for (_, gt_box, _), (miss_draw, _, _) in zip(truth, draws):
                    overlaps = [iou(gt_box, p) for p in proposals]
                    coverage = max(overlaps)
                    if coverage < synthdata._DETECTOR_MIN_COVERAGE or miss_draw < noise.miss_rate:
                        continue
                    if anticipator == "none" or overlaps.index(coverage) >= len(drawn):
                        expected += 1
                        anticipated += anticipator != "none"
                    else:
                        reused += 1
                assert builds == expected, (anticipator, t)
        assert reused > 0 and anticipated > 0

    def test_a_list_not_starting_with_the_remembered_boxes_leaves_nothing_stale(self):
        scene = self.make_scene()
        oracle = ProposalOracle(scene, seed=2)
        detector = ConditionedDetector(scene, seed=3)

        def check(t, proposals):
            got = hexed_detections(detector.detect(t, proposals))
            want = reference_detect(ConditionedDetector(scene, seed=3), t, proposals)
            assert got == hexed_detections(want), t
            return got

        differed = 0
        for t in range(scene.spec.num_frames):
            gt_box = scene.frame_truth(t)[0][1]
            extra = [BoundingBox(gt_box.x1 + 1.0, gt_box.y1, gt_box.x2 + 1.0, gt_box.y2)]
            shifted = [
                BoundingBox(b.x1 + 6.0, b.y1 + 3.0, b.x2 + 6.0, b.y2 + 3.0)
                for b in oracle.propose(t)
            ]
            first = check(t, oracle.propose(t))
            differed += check(t, shifted) != first
            check(t, augment_proposals(shifted, extra))
            assert check(t, oracle.propose(t)) == first
            check(t, augment_proposals(oracle.propose(t), extra))
            check(t, oracle.propose(t)[1:])
            assert check(t, oracle.propose(t)) == first
        assert differed > 0


@pytest.mark.parametrize("cls", [ProposalOracle, ConditionedDetector])
def test_seed_checked_at_construction(cls):
    scene = generate_scene(simple_spec())
    with pytest.raises(ValueError, match="^seed must be non-negative$"):
        cls(scene, seed=-1)
    for value in (1.5, True, np.float64(2.0), None):
        message = f"^seed must be an integer, got {re.escape(repr(value))}$"
        with pytest.raises(ValueError, match=message):
            cls(scene, seed=value)


@pytest.mark.parametrize(
    "cls, name",
    [
        (ProposalOracle, "jitter_sigma"),
        (ProposalOracle, "per_actor"),
        (ProposalOracle, "clutter"),
        (ConditionedDetector, "regress_strength"),
        (ConditionedDetector, "min_coverage"),
    ],
)
def test_calibration_is_not_an_argument(cls, name):
    scene = generate_scene(simple_spec())
    with pytest.raises(TypeError, match=f"unexpected keyword argument '{name}'"):
        cls(scene, **{name: getattr(synthdata, _CALIBRATION[name])})


def test_numpy_integer_seed_accepted():
    scene = generate_scene(simple_spec(noise=NoiseModel(sigma_loc=2.0, fp_rate=2.0)))
    proposals = ProposalOracle(scene, seed=5).propose(4)
    assert ProposalOracle(scene, seed=np.int64(5)).propose(4) == proposals
    detections = ConditionedDetector(scene, seed=6).detect(4, proposals)
    assert ConditionedDetector(scene, seed=np.uint8(6)).detect(4, proposals) == detections


@pytest.mark.parametrize("call", ["propose", "detect"])
def test_frame_index_checked_before_any_lookup(call):
    scene = generate_scene(simple_spec(noise=NoiseModel(sigma_loc=2.0, fp_rate=2.0)))
    oracle = ProposalOracle(scene, seed=5)
    detector = ConditionedDetector(scene, seed=6)
    proposals = oracle.propose(1)

    def run(frame_index):
        if call == "propose":
            return oracle.propose(frame_index)
        return detector.detect(frame_index, proposals)

    # frame 1 is kept first, so a lookup before the check would answer True
    kept = run(1)
    assert run(np.int64(1)) == kept
    for value in (1.5, True, np.float64(1.0), None):
        message = f"^frame_index must be an integer, got {re.escape(repr(value))}$"
        with pytest.raises(ValueError, match=message):
            run(value)
    with pytest.raises(ValueError, match="^frame_index must be non-negative$"):
        run(-1)
    for value in (20, 100, np.int64(20)):
        message = f"^frame_index must be below the scene's 20 frames, got {value}$"
        with pytest.raises(ValueError, match=message):
            run(value)
    assert isinstance(run(19), list)
    assert set(oracle._drawn) | set(detector._drawn) <= {1, 19}


class TestDriftingFixture:
    @pytest.mark.parametrize("num_scenes", [2.5, 2.0, True, None])
    def test_non_integer_scene_count_rejected(self, num_scenes):
        message = f"^num_scenes must be an integer, got {re.escape(repr(num_scenes))}$"
        with pytest.raises(ValueError, match=message):
            drifting_scene_specs(num_scenes)
        with pytest.raises(ValueError, match="^need at least one scene$"):
            drifting_scene_specs(0)

    def test_shape_of_the_benchmark(self):
        specs = drifting_scene_specs(4)
        assert len(specs) == 4
        assert len({s.video_id for s in specs}) == 4
        assert len({s.seed for s in specs}) == 4
        for spec in specs:
            scene = generate_scene(spec)
            assert scene.classes == (0, 1)
            # both actors stay on screen long enough to be linkable
            assert all(tube.length >= 30 for tube in scene.tubes)

    def test_opposite_crossing_motion(self):
        spec = drifting_scene_specs(1)[0]
        scene = generate_scene(spec)
        start_by_class = {
            t.class_id: t.boxes[0].center[0] for t in scene.tubes
        }
        end_by_class = {t.class_id: t.boxes[-1].center[0] for t in scene.tubes}
        assert end_by_class[0] > start_by_class[0]  # class 0 drifts right
        assert end_by_class[1] < start_by_class[1]  # class 1 drifts left


class TestCascadeDemo:
    def test_halving_stage_behavior(self):
        gt = BoundingBox(100, 100, 160, 160)
        stage = halving_stage([gt])
        candidate = BoundingBox(92, 100, 152, 160)  # 8 px off in x
        delta = stage.regressor(candidate)
        from tubekit.geometry import decode_delta

        refined = decode_delta(candidate, delta)
        np.testing.assert_allclose(
            refined.as_tuple(), (96, 100, 156, 160), atol=1e-9
        )
        assert stage.scorer(gt) == pytest.approx(1.0)

    def test_demo_curves(self):
        curves = cascade_recall_demo(num_boxes=150, seed=0)
        one = curves["one_stage"]
        two = curves["two_stage"]
        thresholds = sorted(one)
        for series in (one, two):
            values = [series[t] for t in thresholds]
            assert all(0.0 <= v <= 1.0 for v in values)
            assert all(a >= b for a, b in zip(values, values[1:]))
        # the second stage pays off where localization must be tight
        assert two[0.8] > one[0.8]

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"num_boxes": 2.5}, "num_boxes must be an integer, got 2.5"),
            ({"num_boxes": True}, "num_boxes must be an integer, got True"),
            ({"num_boxes": 0}, "need at least one box"),
            ({"seed": -1}, "seed must be non-negative"),
            ({"seed": 1.5}, "seed must be an integer, got 1.5"),
        ],
    )
    def test_bad_count_and_seed_rejected_up_front(self, kwargs, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            cascade_recall_demo(**{"num_boxes": 4, **kwargs})

    @pytest.mark.parametrize("sigma", [-1.0, float("nan"), float("inf")])
    def test_bad_jitter_rejected_up_front(self, sigma):
        with pytest.raises(
            ValueError, match=f"^jitter_sigma must be finite and non-negative, got {sigma}$"
        ):
            cascade_recall_demo(num_boxes=4, jitter_sigma=sigma)


class TestCascadeDemoRefinesStageOneOnce:
    def test_each_stage_sees_every_box_once(self, monkeypatch):
        sizes, captured = [], {}
        refine, halving = proposals.refine_stage, synthdata.halving_stage

        def counting_refine(candidates, stage, **kwargs):
            sizes.append(len(candidates))
            captured.setdefault("first", (list(candidates), stage, kwargs))
            return refine(candidates, stage, **kwargs)

        def capturing_halving(ground_truths):
            captured["gts"] = list(ground_truths)
            return halving(ground_truths)

        monkeypatch.setattr(proposals, "refine_stage", counting_refine)
        monkeypatch.setattr(synthdata, "refine_stage", counting_refine)
        monkeypatch.setattr(synthdata, "halving_stage", capturing_halving)
        curves = cascade_recall_demo(num_boxes=150, seed=0)
        assert sizes == [150, 150]
        monkeypatch.undo()
        # the two-stage curve is the full cascade's, run from the anchors
        anchors, stage, image = captured["first"]
        cascade = cascade_refine(anchors, stage, stage, top_n=150, **image)
        want = recall_at_iou([b for b, _ in cascade], captured["gts"], DEMO_RECALL_THRESHOLDS)
        assert {t: r.hex() for t, r in curves["two_stage"].items()} == {
            t: r.hex() for t, r in want.items()
        }


def exact_nearest(centers, x, y):
    """The first index of the least squared distance, in exact arithmetic."""
    d2 = [
        (Fraction(cx) - Fraction(x)) ** 2 + (Fraction(cy) - Fraction(y)) ** 2
        for cx, cy in centers.tolist()
    ]
    return d2.index(min(d2))


@pytest.mark.filterwarnings("error")
class TestNearestCenter:
    """The halving stage regresses toward the truly nearest centre, with no
    overflow, wherever the box is."""

    GRID = np.array([[(i % 4 + 0.5) * 400.0, (i // 4 + 0.5) * 400.0] for i in range(12)])

    @pytest.mark.parametrize("distance", [1.0, 50.0, 1e3, 1e20, 1e154, 1e200, 1e300, 1.5e308])
    def test_matches_exact_arithmetic(self, distance):
        rng = np.random.default_rng(int(math.log10(distance)))
        for centers in (self.GRID, self.GRID + 1e12, self.GRID * 1e-6):
            nearest = synthdata._nearest_center(centers)
            middle = centers.mean(axis=0)
            for angle in rng.uniform(0.0, 2 * math.pi, size=60).tolist():
                x = float(middle[0] + distance * math.cos(angle))
                y = float(middle[1] + distance * math.sin(angle))
                assert nearest(x, y) == exact_nearest(centers, x, y), (x, y)

    def test_far_boxes_do_not_all_pick_the_first(self):
        nearest = synthdata._nearest_center(self.GRID)
        picks = {nearest(1e200 * math.cos(a), 1e200 * math.sin(a)) for a in np.linspace(0, 6, 24)}
        assert len(picks) > 2

    def test_one_center_and_equal_centers(self):
        assert synthdata._nearest_center(np.array([[5.0, 5.0]]))(1e300, -1e300) == 0
        assert synthdata._nearest_center(np.zeros((3, 2)))(1e-300, 4.0) == 0

    def test_demo_with_astronomical_jitter_runs_clean(self):
        curves = cascade_recall_demo(num_boxes=3, jitter_sigma=1e200, seed=0)
        for curve in curves.values():
            assert all(0.0 <= r <= 1.0 for r in curve.values())


class TestHalvingScorer:
    def test_matches_iou_matrix_bit_for_bit(self):
        rng = np.random.default_rng(11)

        def random_box():
            x, y = rng.uniform(0.0, 300.0, size=2).tolist()
            w, h = rng.uniform(0.0, 80.0, size=2).tolist()
            return BoundingBox(x, y, x + w, y + h)

        gts = [random_box() for _ in range(25)]
        scorer = halving_stage(gts).scorer
        boxes = [random_box() for _ in range(400)] + gts + [BoundingBox(5, 5, 5, 5)]
        for box in boxes:
            got = scorer(box)
            assert type(got) is float
            assert got.hex() == float(iou_matrix([box], gts).max()).hex()


def _assert_built_in_floats(label, values):
    bad = [(i, type(v).__name__) for i, v in enumerate(values) if type(v) is not float]
    assert not bad, f"{label}: values that are not built-in floats: {bad[:5]}"


def _assert_float_boxes(label, boxes):
    _assert_built_in_floats(label, [v for box in boxes for v in box.as_tuple()])


def _assert_float_detections(label, dets):
    _assert_float_boxes(label, [d.box for d in dets])
    _assert_built_in_floats(label + " scores", [d.score for d in dets])
    _assert_built_in_floats(label + " motions", [v for d in dets for v in d.motion])


class TestBuiltInFloats:
    """Every corner, score and motion the library draws is a built-in float.

    A numpy scalar that leaks into a box keeps its value but makes every
    later scalar operation on it (``iou``, ``tube_iou``, trimming, the JSON
    writer) run numpy scalar arithmetic.
    """

    def setup_method(self):
        self.scene = generate_scene(drifting_scene_specs(1, num_frames=24)[0])
        self.spec = self.scene.spec
        assert self.spec.noise.sigma_loc > 0

    def test_rendered_detections(self):
        frames = render_detections(self.scene)
        dets = [d for fd in frames for d in fd.detections]
        assert len(dets) > 20
        _assert_float_detections("render_detections", dets)

    def test_proposals_and_detections(self):
        oracle = ProposalOracle(self.scene, seed=2)
        detector = ConditionedDetector(self.scene, seed=3)
        proposals = [oracle.propose(t) for t in range(self.spec.num_frames)]
        _assert_float_boxes("propose", [b for props in proposals for b in props])
        dets = [
            d for t, props in enumerate(proposals) for d in detector.detect(t, props)
        ]
        assert len(dets) > 20
        _assert_float_detections("detect", dets)

    def test_anticipated_boxes(self):
        gap = 4
        frames = render_detections(self.scene)
        pairs = [
            (
                [(d.box, d.motion) for d in frames[t].detections],
                [box for _, box, _ in self.scene.frame_truth(t + gap)],
            )
            for t in range(self.spec.num_frames - gap)
        ]
        size = dict(image_width=self.spec.width, image_height=self.spec.height)
        model = train_anticipation_model(
            build_training_set(pairs, **size), gap, epochs=20
        )
        current = [(d.box, d.motion) for fd in frames for d in fd.detections]
        for label, strategy in (("non-motion", "non-motion"), ("model", model)):
            boxes = anticipate(strategy, current, **size)
            assert len(boxes) == len(current)
            _assert_float_boxes(f"anticipate {label}", boxes)

    def test_linked_and_trimmed_tubes(self):
        tubes = extract_tubes(render_detections(self.scene))
        trimmed = trim_tubes(tubes, TrimmingParams(avg_class_length(tubes)))
        assert tubes and trimmed
        for label, batch in (("extract_tubes", tubes), ("trim_tubes", trimmed)):
            _assert_float_boxes(label, [b for tube in batch for b in tube.boxes])
            _assert_built_in_floats(label, [s for tube in batch for s in tube.scores])


def hexed_box(box):
    """Each corner's type and bits."""
    return tuple((type(v), float(v).hex()) for v in box.as_tuple())


def reference_corner_noise(box, e):
    """``_add_corner_noise`` with each corner pair ordered by ``sorted``."""
    x1, x2 = sorted((box.x1 + e[0], box.x2 + e[2]))
    y1, y2 = sorted((box.y1 + e[1], box.y2 + e[3]))
    return BoundingBox(x1, y1, x2, y2)


def reference_trajectory(spec, actor_index):
    """``_actor_trajectory`` with two scalar velocity draws per step."""
    actor = spec.actors[actor_index]
    rng = np.random.default_rng([spec.seed, actor_index, synthdata._STREAM_TRAJECTORY])
    cx, cy = actor.box.center
    w, h = actor.box.width, actor.box.height
    visible = []
    for frame in range(actor.entry_frame, actor.exit_frame + 1):
        if frame > actor.entry_frame:
            vx, vy = actor.velocity
            if actor.velocity_sigma > 0:
                vx += rng.normal(0.0, actor.velocity_sigma)
                vy += rng.normal(0.0, actor.velocity_sigma)
            cx += vx
            cy += vy
        clipped = clip_visible(box_from_center(cx, cy, w, h), spec.width, spec.height)
        if clipped is not None:
            visible.append((frame, clipped))
        elif visible:
            break
    return visible


def reference_oracle_draw(oracle, frame_index):
    """``ProposalOracle._draw`` with one jitter draw per truth-box copy."""
    spec = oracle.scene.spec
    rng = np.random.default_rng([oracle.seed, frame_index, synthdata._STREAM_PROPOSALS])
    out = []
    for _, box, _ in oracle.scene.frame_truth(frame_index):
        for _ in range(synthdata._ORACLE_PER_ACTOR):
            jittered = synthdata._jitter_box(
                box, synthdata._ORACLE_JITTER_SIGMA, rng, spec.width, spec.height
            )
            if jittered is not None:
                out.append(jittered)
    for _ in range(synthdata._ORACLE_CLUTTER):
        box = synthdata._clutter_box(spec, rng)
        if box is not None:
            out.append(box)
    return out


class TestBatchedDrawsMatchPerRowDraws:
    """The batched draws and the swap give the bits of today's per-row formulas."""

    def test_corner_noise(self):
        rng = np.random.default_rng(8)
        boxes = [
            BoundingBox(-0.0, -0.0, 0.0, 0.0),
            BoundingBox(0.0, 0.0, 0.0, 0.0),
            BoundingBox(3, 4, 3, 9),
            BoundingBox(np.float64(1.5), np.float64(-2.0), np.float64(4.0), np.float64(7.5)),
            BoundingBox(10.0, 20.0, 30.0, 40.0),
        ]
        noises = [
            [-0.0, -0.0, 0.0, 0.0],
            [0.0, 0.0, -0.0, -0.0],
            [1.0, 1.0, -1.0, -1.0],
            [5.0, -3.0, -5.0, 3.0],
            [0, 0, 0, 0],
            list(np.array([25.0, -30.0, -25.0, 2.0])),
            *rng.normal(0.0, 20.0, size=(200, 4)).tolist(),
        ]
        for box in boxes:
            for e in noises:
                got = _add_corner_noise(box, e)
                assert hexed_box(got) == hexed_box(reference_corner_noise(box, e)), (box, e)

    def test_trajectories(self):
        specs = list(drifting_scene_specs(4, num_frames=60))
        actors = (
            ActorSpec(0, 0, 79, BoundingBox(40, 40, 60, 60), velocity=(-0.0, 2), velocity_sigma=0.0),
            ActorSpec(1, 3, 79, BoundingBox(100.5, 90.0, 150.0, 130.25), velocity_sigma=0.05),
            ActorSpec(0, 10, 70, BoundingBox(150, 10, 190, 50), (4.0, 1.0), velocity_sigma=3.0),
            ActorSpec(1, 79, 79, BoundingBox(0.0, 0.0, 20.0, 20.0), velocity_sigma=1.0),
        )
        specs.append(simple_spec(num_frames=80, actors=actors, seed=11))
        for spec in specs:
            for index in range(len(spec.actors)):
                got = synthdata._actor_trajectory(spec, index)
                expected = reference_trajectory(spec, index)
                assert [(f, hexed_box(b)) for f, b in got] == [
                    (f, hexed_box(b)) for f, b in expected
                ], (spec.video_id, index)

    @pytest.mark.parametrize(
        "calibration",
        [{}, {"jitter_sigma": 0.0}, {"per_actor": 1, "clutter": 0}, {"per_actor": 0}],
        ids=["default", "no-jitter", "one-copy", "no-copies"],
    )
    def test_oracle_proposals(self, calibrate, calibration):
        calibrate(**calibration)
        late_actor = ActorSpec(0, 6, 19, BoundingBox(150, 150, 195, 195), (2.0, 2.0))
        scenes = [generate_scene(s) for s in drifting_scene_specs(4, num_frames=40)]
        scenes.append(generate_scene(simple_spec(actors=(late_actor,))))
        for scene in scenes:
            for seed in (0, 1, 5, 9):
                oracle = ProposalOracle(scene, seed=seed)
                for t in range(scene.spec.num_frames):
                    got = [hexed_box(b) for b in oracle.propose(t)]
                    assert got == [hexed_box(b) for b in reference_oracle_draw(oracle, t)]


class TestNoiseStreamGolden:
    """The sampled boxes and scores of every noise channel, bit for bit.

    The digest was recorded before the samplers were shared between
    channels; any change to the order of random draws or of the float
    operations on them changes it.
    """

    DIGEST = "950a451a09dda1fa7658ce7fcea2d0ee8294bb2d2292766a4354e64b62fe1c0e"

    @staticmethod
    def _box(box):
        return tuple(float(v).hex() for v in box.as_tuple())

    @classmethod
    def _dets(cls, dets):
        return [
            (
                cls._box(d.box),
                d.class_id,
                float(d.score).hex(),
                d.motion and tuple(float(v).hex() for v in d.motion),
            )
            for d in dets
        ]

    def test_channels_match_recorded_digest(self, calibrate):
        import hashlib

        # the calibration the digest was recorded with
        calibrate(jitter_sigma=8.0, per_actor=6, clutter=4, min_coverage=0.45)
        scene = generate_scene(drifting_scene_specs(1)[0])
        oracle = ProposalOracle(scene, seed=5)
        detector = ConditionedDetector(scene, seed=6)
        records = []
        for fd in render_detections(scene):
            records.append(("render", fd.frame_index, self._dets(fd.detections)))
        for t in range(scene.spec.num_frames):
            proposals = oracle.propose(t)
            records.append(("propose", t, [self._box(b) for b in proposals]))
            records.append(("detect", t, self._dets(detector.detect(t, proposals))))
        curves = cascade_recall_demo(num_boxes=150, seed=0)
        for label in sorted(curves):
            records.append(
                (label, [(t, float(r).hex()) for t, r in sorted(curves[label].items())])
            )
        digest = hashlib.sha256(repr(records).encode()).hexdigest()
        assert digest == self.DIGEST
