import math
from dataclasses import replace

import numpy as np
import pytest

import tubekit.geometry as geometry
from tubekit.geometry import BoundingBox, BoxDelta, boxes_to_array, encode_delta, iou, iou_matrix
from tubekit.proposals import (
    AnchorConfig,
    ProposalStage,
    _assign_frames,
    assign_samples,
    best_iou_by_frame,
    cascade_refine,
    generate_anchors,
    recall_at_iou,
    refine_stage,
    sample_minibatch,
    single_stage_refine,
)

ZERO_DELTA = BoxDelta(0.0, 0.0, 0.0, 0.0)
IDENTITY_STAGE = ProposalStage(regressor=lambda b: ZERO_DELTA, scorer=lambda b: 0.5)


def test_anchor_grid_count():
    config = AnchorConfig(stride=16, scales=(128.0, 256.0, 512.0), ratios=(0.5, 1.0, 2.0))
    anchors = generate_anchors(64, 64, config)
    assert len(anchors) == 4 * 4 * 9  # 144


def test_anchor_grid_ceil_division():
    config = AnchorConfig(stride=16, scales=(32.0,), ratios=(1.0,))
    # 65 px needs 5 cells of stride 16
    assert len(generate_anchors(65, 16, config)) == 5


def test_first_anchor_center_and_shape():
    config = AnchorConfig(stride=16, scales=(128.0,), ratios=(1.0,))
    first = generate_anchors(64, 64, config)[0]
    assert first.center == (8.0, 8.0)
    assert first.width == pytest.approx(128.0)
    assert first.height == pytest.approx(128.0)
    # unclipped: extends outside the image
    assert first.x1 < 0


def test_anchor_aspect_ratios():
    config = AnchorConfig(stride=16, scales=(100.0,), ratios=(0.25, 4.0))
    quarter, quadruple = generate_anchors(16, 16, config)[:2]
    # h = s * sqrt(r), w = s / sqrt(r)
    assert quarter.height == pytest.approx(50.0)
    assert quarter.width == pytest.approx(200.0)
    assert quadruple.height == pytest.approx(200.0)
    assert quadruple.width == pytest.approx(50.0)
    # area is scale**2 for every ratio
    assert quarter.area == pytest.approx(100.0**2)


def test_anchor_ordering_scales_outer_ratios_inner():
    config = AnchorConfig(stride=16, scales=(64.0, 128.0), ratios=(1.0, 2.0))
    anchors = generate_anchors(16, 16, config)
    heights = [a.height for a in anchors[:4]]
    expected = [
        64.0,
        64.0 * math.sqrt(2.0),
        128.0,
        128.0 * math.sqrt(2.0),
    ]
    np.testing.assert_allclose(heights, expected)


@pytest.mark.parametrize(
    "config",
    [
        AnchorConfig(stride=16, scales=(128.0, 256.0, 512.0), ratios=(0.5, 1.0, 2.0)),
        AnchorConfig(stride=7, scales=(30, 45.5), ratios=(0.3, 1, 3, 7.25)),
        AnchorConfig(stride=32, scales=(1e-3, 1e6), ratios=(1e-4, 0.7, 1e4)),
    ],
)
def test_anchor_corners_match_the_numpy_sqrt_formula(config):
    width, height = 70, 45
    expected = []
    for iy in range(-(-height // config.stride)):
        cy = (iy + 0.5) * config.stride
        for ix in range(-(-width // config.stride)):
            cx = (ix + 0.5) * config.stride
            for scale in config.scales:
                for ratio in config.ratios:
                    h = scale * np.sqrt(ratio)
                    w = scale / np.sqrt(ratio)
                    expected.append((cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2))
    got = [a.as_tuple() for a in generate_anchors(width, height, config)]
    assert [tuple(v.hex() for v in box) for box in got] == [
        tuple(float(v).hex() for v in box) for box in expected
    ]


def test_anchor_config_validation():
    with pytest.raises(ValueError):
        AnchorConfig(stride=0)
    with pytest.raises(ValueError):
        AnchorConfig(scales=())
    with pytest.raises(ValueError):
        AnchorConfig(ratios=(1.0, -2.0))


def test_refine_stage_clips_and_drops():
    stage = ProposalStage(regressor=lambda b: BoxDelta(5.0, 0.0, 0.0, 0.0), scorer=lambda b: 1.0)
    # shifted fully outside -> clipped to zero area -> dropped
    out = refine_stage([BoundingBox(0, 0, 10, 10)], stage, image_width=20, image_height=20)
    assert out == []


def test_refine_stage_scores_refined_box():
    target = BoundingBox(5, 5, 15, 15)
    stage = ProposalStage(
        regressor=lambda b: encode_delta(b, target),
        scorer=lambda b: iou(b, target),
    )
    out = refine_stage([BoundingBox(0, 0, 10, 10)], stage, image_width=100, image_height=100)
    assert len(out) == 1
    box, score = out[0]
    assert score == pytest.approx(1.0)
    np.testing.assert_allclose(box.as_tuple(), target.as_tuple(), atol=1e-9)


def test_refine_stage_rejects_bad_score():
    stage = ProposalStage(regressor=lambda b: ZERO_DELTA, scorer=lambda b: 1.5)
    with pytest.raises(ValueError):
        refine_stage([BoundingBox(0, 0, 10, 10)], stage, image_width=20, image_height=20)


def test_cascade_with_identity_second_stage_matches_single():
    rng = np.random.default_rng(3)
    anchors = []
    for _ in range(40):
        x1, y1 = rng.uniform(0, 80, size=2)
        anchors.append(BoundingBox(x1, y1, x1 + rng.uniform(5, 30), y1 + rng.uniform(5, 30)))
    scorer = lambda b: min(1.0, b.area / 1000.0)
    stage = ProposalStage(regressor=lambda b: ZERO_DELTA, scorer=scorer)
    single = single_stage_refine(anchors, stage, image_width=100, image_height=100, top_n=10)
    double = cascade_refine(
        anchors, stage, stage, image_width=100, image_height=100, top_n=10
    )
    assert len(double) == len(single)
    # identical up to the center/size round-trip each refinement applies
    np.testing.assert_allclose(
        [b.as_tuple() for b, _ in double],
        [b.as_tuple() for b, _ in single],
        atol=1e-9,
    )
    np.testing.assert_allclose(
        [s for _, s in double], [s for _, s in single], atol=1e-9
    )


def test_cascade_reports_second_stage_scores():
    stage_a = ProposalStage(regressor=lambda b: ZERO_DELTA, scorer=lambda b: 0.2)
    stage_b = ProposalStage(regressor=lambda b: ZERO_DELTA, scorer=lambda b: 0.9)
    out = cascade_refine(
        [BoundingBox(0, 0, 10, 10)], stage_a, stage_b, image_width=20, image_height=20
    )
    assert [s for _, s in out] == [0.9]


def halving_regressor(target):
    def regress(box):
        cx, cy = box.center
        tx, ty = target.center
        mid = BoundingBox(
            (box.x1 + target.x1) / 2,
            (box.y1 + target.y1) / 2,
            (box.x2 + target.x2) / 2,
            (box.y2 + target.y2) / 2,
        )
        return encode_delta(box, mid)

    return regress


def test_each_stage_halves_the_corner_error():
    target = BoundingBox(40, 40, 80, 80)
    start = BoundingBox(32, 32, 72, 72)  # corner error 8 everywhere
    stage = ProposalStage(regressor=halving_regressor(target), scorer=lambda b: 0.5)
    once = single_stage_refine([start], stage, image_width=200, image_height=200)
    twice = cascade_refine([start], stage, stage, image_width=200, image_height=200)

    def err(box):
        return max(abs(a - b) for a, b in zip(box.as_tuple(), target.as_tuple()))

    assert err(start) == pytest.approx(8.0)
    assert err(once[0][0]) == pytest.approx(4.0, abs=1e-9)
    assert err(twice[0][0]) == pytest.approx(2.0, abs=1e-9)


class TestAssignSamples:
    def test_thresholds(self):
        gt = [BoundingBox(0, 0, 10, 10)]
        candidates = [
            BoundingBox(0, 0, 10, 10),  # IoU 1.0 -> positive
            BoundingBox(0, 0, 10, 5),  # IoU 0.5 -> ignored
            BoundingBox(50, 50, 60, 60),  # IoU 0.0 -> negative
        ]
        out = assign_samples(candidates, gt)
        assert out.labels.tolist() == [1, -1, 0]
        assert out.matched_gt[0] == 0
        assert out.max_iou[2] == 0.0

    def test_best_candidate_override(self):
        # nobody clears 0.7, but the best available candidate per gt is
        # promoted anyway
        gt = [BoundingBox(0, 0, 10, 10)]
        candidates = [BoundingBox(0, 0, 10, 5), BoundingBox(0, 0, 10, 4)]
        out = assign_samples(candidates, gt)
        assert out.labels.tolist() == [1, -1]
        assert out.matched_gt[0] == 0

    def test_override_keeps_ties(self):
        gt = [BoundingBox(0, 0, 10, 10)]
        half = BoundingBox(0, 0, 10, 5)
        out = assign_samples([half, half], gt)
        assert out.labels.tolist() == [1, 1]

    def test_override_skips_untouched_gt(self):
        gt = [BoundingBox(100, 100, 110, 110)]
        out = assign_samples([BoundingBox(0, 0, 10, 10)], gt)
        # zero overlap everywhere: nothing to promote
        assert out.labels.tolist() == [0]

    def test_empty_ground_truth(self):
        out = assign_samples([BoundingBox(0, 0, 10, 10)], [])
        assert out.labels.tolist() == [0]
        assert out.matched_gt.tolist() == [-1]

    def test_every_visible_gt_gets_a_positive(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            gts = []
            for _ in range(4):
                x1, y1 = rng.uniform(0, 60, size=2)
                gts.append(BoundingBox(x1, y1, x1 + rng.uniform(8, 30), y1 + rng.uniform(8, 30)))
            candidates = []
            for g in gts:
                jit = rng.normal(0, 6, size=4)
                x1 = min(g.x1 + jit[0], g.x2 + jit[2])
                x2 = max(g.x1 + jit[0], g.x2 + jit[2])
                y1 = min(g.y1 + jit[1], g.y2 + jit[3])
                y2 = max(g.y1 + jit[1], g.y2 + jit[3])
                candidates.append(BoundingBox(x1, y1, x2, y2))
            out = assign_samples(candidates, gts)
            for j, g in enumerate(gts):
                overlaps = [iou(c, g) for c in candidates]
                best = max(overlaps)
                if best > 0.0:
                    best_rows = [i for i, v in enumerate(overlaps) if v == best]
                    assert all(out.labels[i] == 1 for i in best_rows)


def reference_assign_samples(candidates, ground_truths):
    """The per-frame labelling: one IoU matrix per frame, then a loop forcing
    each ground truth's best candidates positive."""
    n = len(candidates)
    if not ground_truths:
        return (
            np.zeros(n, dtype=np.int8),
            np.full(n, -1, dtype=np.int64),
            np.zeros(n, dtype=np.float64),
        )
    ious = iou_matrix(candidates, ground_truths)
    max_iou = ious.max(axis=1)
    matched_gt = ious.argmax(axis=1).astype(np.int64)
    labels = np.full(n, -1, dtype=np.int8)
    labels[max_iou < 0.3] = 0
    labels[max_iou > 0.7] = 1
    if n:
        gt_best = ious.max(axis=0)
        for j in range(len(ground_truths)):
            if gt_best[j] <= 0.0:
                continue
            best_rows = np.nonzero(ious[:, j] == gt_best[j])[0]
            labels[best_rows] = 1
            matched_gt[best_rows] = j
    return labels, matched_gt, max_iou


def grid_box(rng):
    """A box on a coarse grid, so that equal overlaps and duplicates are common."""
    x1, y1 = rng.integers(0, 8, size=2) * 5.0
    w, h = rng.integers(1, 5, size=2) * 5.0
    return BoundingBox(float(x1), float(y1), float(x1 + w), float(y1 + h))


def hexed(arrays):
    return [(a.dtype.str, a.shape, a.tobytes()) for a in arrays]


class TestAssignFramesMatchesPerFrameReference:
    """Labelling every frame in one pass gives each frame's per-frame labels."""

    def assert_matches(self, frames):
        got = _assign_frames(
            boxes_to_array([c for cands, _ in frames for c in cands]),
            [len(cands) for cands, _ in frames],
            boxes_to_array([g for _, gts in frames for g in gts]),
            [len(gts) for _, gts in frames],
        )
        per_frame = [reference_assign_samples(cands, gts) for cands, gts in frames]
        per_frame.append(reference_assign_samples([], []))  # the dtypes of no frame
        want = [np.concatenate([p[k] for p in per_frame]) for k in range(3)]
        assert hexed(got) == hexed(want)
        for cands, gts in frames:
            one = assign_samples(cands, gts)
            assert hexed([one.labels, one.matched_gt, one.max_iou]) == hexed(
                reference_assign_samples(cands, gts)
            )

    @pytest.mark.parametrize("block", [None, 1, 3])
    def test_random_frames_of_unequal_sizes(self, monkeypatch, block):
        if block is not None:
            monkeypatch.setattr(geometry, "_EDGE_BLOCK", block)
        rng = np.random.default_rng(23)
        for _ in range(40):
            frames = []
            for _ in range(int(rng.integers(0, 7))):
                gts = [grid_box(rng) for _ in range(int(rng.integers(0, 4)))]
                cands = [grid_box(rng) for _ in range(int(rng.integers(0, 6)))]
                cands += [gts[int(i)] for i in rng.integers(0, len(gts), size=2)] if gts else []
                if cands:
                    cands.append(cands[int(rng.integers(0, len(cands)))])  # a duplicate
                frames.append(([cands[i] for i in rng.permutation(len(cands))], gts))
            self.assert_matches(frames)

    def test_duplicate_candidates_are_both_forced(self):
        gt = BoundingBox(0.0, 0.0, 10.0, 10.0)
        half = BoundingBox(0.0, 0.0, 10.0, 5.0)
        self.assert_matches([([half, BoundingBox(0.0, 0.0, 10.0, 4.0), half], [gt])])
        assert assign_samples([half, half], [gt]).labels.tolist() == [1, 1]

    def test_a_candidate_tied_best_for_two_ground_truths_takes_the_last(self):
        # the square overlaps both rectangles 0.5, more than any other candidate
        square = BoundingBox(0.0, 0.0, 10.0, 10.0)
        tall, wide = BoundingBox(0.0, 0.0, 10.0, 20.0), BoundingBox(0.0, 0.0, 20.0, 10.0)
        far = BoundingBox(50.0, 50.0, 60.0, 60.0)
        frames = [([far, square], [tall, wide]), ([square], [wide, tall])]
        self.assert_matches(frames)
        out = assign_samples([far, square], [tall, wide])
        assert out.labels.tolist() == [0, 1]
        assert out.matched_gt.tolist() == [0, 1]

    def test_frames_without_ground_truth_or_with_one_candidate(self):
        box = BoundingBox(0.0, 0.0, 10.0, 10.0)
        near = BoundingBox(2.0, 0.0, 12.0, 10.0)
        self.assert_matches(
            [([box, near], []), ([near], [box]), ([], [box]), ([box], []), ([box], [near, box])]
        )
        self.assert_matches([([box], [])])
        self.assert_matches([])

    def test_overlaps_on_the_thresholds_are_ignored(self):
        gt = BoundingBox(0.0, 0.0, 10.0, 10.0)
        cands = [BoundingBox(0.0, 0.0, 10.0, 3.0), BoundingBox(0.0, 0.0, 10.0, 7.0), gt]
        self.assert_matches([(cands, [gt])])
        assert assign_samples(cands, [gt]).labels.tolist() == [-1, -1, 1]

    def test_zero_overlap_everywhere(self):
        cands = [BoundingBox(0.0, 0.0, 10.0, 10.0), BoundingBox(20.0, 0.0, 30.0, 10.0)]
        gts = [BoundingBox(100.0, 100.0, 110.0, 110.0), BoundingBox(0.0, 50.0, 5.0, 60.0)]
        self.assert_matches([(cands, gts), (cands[:1], gts[:1])])
        out = assign_samples(cands, gts)
        assert out.labels.tolist() == [0, 0]
        assert out.matched_gt.tolist() == [0, 0]


def make_assignment(n_pos, n_neg, n_ignore=0):
    labels = np.array([1] * n_pos + [0] * n_neg + [-1] * n_ignore, dtype=np.int8)
    n = len(labels)
    from tubekit.proposals import SampleAssignment

    return SampleAssignment(
        labels=labels,
        matched_gt=np.zeros(n, dtype=np.int64),
        max_iou=np.zeros(n, dtype=np.float64),
    )


class TestMiniBatch:
    def test_plentiful_pools_split_evenly(self):
        rng = np.random.default_rng(0)
        batch = sample_minibatch(make_assignment(200, 200), rng)
        assert len(batch.positives) == 64
        assert len(batch.negatives) == 64
        assert batch.size == 128
        assert batch.ratio == 1.0

    def test_scarce_positives_shrink_negatives(self):
        rng = np.random.default_rng(0)
        batch = sample_minibatch(make_assignment(10, 1000), rng)
        assert len(batch.positives) == 10
        assert len(batch.negatives) == 10

    def test_empty_pool_gives_empty_batch(self):
        rng = np.random.default_rng(0)
        assert sample_minibatch(make_assignment(0, 50), rng).size == 0
        assert sample_minibatch(make_assignment(50, 0), rng).size == 0
        assert sample_minibatch(make_assignment(0, 0, 10), rng).size == 0

    def test_indices_sorted_unique_and_from_right_pools(self):
        rng = np.random.default_rng(9)
        assignment = make_assignment(40, 300, 25)
        batch = sample_minibatch(assignment, rng)
        for idx_list in (batch.positives, batch.negatives):
            assert list(idx_list) == sorted(set(int(i) for i in idx_list))
        assert all(assignment.labels[i] == 1 for i in batch.positives)
        assert all(assignment.labels[i] == 0 for i in batch.negatives)

    def test_ratio_window_respected_over_many_draws(self):
        rng = np.random.default_rng(1234)
        for _ in range(300):
            n_pos = int(rng.integers(0, 400))
            n_neg = int(rng.integers(0, 400))
            batch = sample_minibatch(make_assignment(n_pos, n_neg), rng)
            assert batch.size <= 128
            if batch.size:
                assert 0.8 <= batch.ratio <= 1.2

    def test_matches_the_parametrised_draw_at_the_fixed_protocol(self):
        # the draw as it was when size and ratio window were arguments,
        # evaluated at the values that are now fixed
        def reference(assignment, rng, max_size=128, ratio_low=0.8, ratio_high=1.2):
            pos_pool = np.nonzero(assignment.labels == 1)[0]
            neg_pool = np.nonzero(assignment.labels == 0)[0]
            empty = (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))
            if len(pos_pool) == 0 or len(neg_pool) == 0:
                return empty
            target_ratio = min(max(1.0, ratio_low), ratio_high)
            n_pos = min(len(pos_pool), max_size // 2)
            n_neg = min(len(neg_pool), max_size - n_pos, max(1, round(n_pos / target_ratio)))
            n_pos = min(n_pos, int(np.floor(ratio_high * n_neg)))
            if n_pos == 0:
                return empty
            if not ratio_low <= n_pos / n_neg <= ratio_high:
                return empty
            pos = rng.choice(pos_pool, size=n_pos, replace=False)
            neg = rng.choice(neg_pool, size=n_neg, replace=False)
            return np.sort(pos), np.sort(neg)

        shuffle = np.random.default_rng(5)
        for seed in (0, 1, 2):
            rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            for n_pos in range(91):
                for n_neg in range(91):
                    assignment = make_assignment(n_pos, n_neg, (n_pos + n_neg) % 7)
                    assignment = replace(assignment, labels=shuffle.permutation(assignment.labels))
                    batch = sample_minibatch(assignment, rng)
                    positives, negatives = reference(assignment, reference_rng)
                    assert np.array_equal(batch.positives, positives)
                    assert np.array_equal(batch.negatives, negatives)
            # both generators advanced through the same draws
            assert rng.integers(2**62) == reference_rng.integers(2**62)


class TestRecall:
    def test_exact_fractions(self):
        gts = [BoundingBox(0, 0, 10, 10), BoundingBox(100, 0, 110, 10)]
        proposals = [BoundingBox(0, 0, 10, 10), BoundingBox(100, 0, 110, 5)]
        out = recall_at_iou(proposals, gts, [0.4, 0.6, 0.95])
        assert out[0.4] == 1.0  # both covered at 0.4 (second has IoU 0.5)
        assert out[0.6] == 0.5
        assert out[0.95] == 0.5

    def test_empty_proposals(self):
        out = recall_at_iou([], [BoundingBox(0, 0, 1, 1)], [0.5, 0.8])
        assert out == {0.5: 0.0, 0.8: 0.0}

    def test_empty_ground_truth_rejected(self):
        with pytest.raises(ValueError):
            recall_at_iou([BoundingBox(0, 0, 1, 1)], [], [0.5])

    def test_non_increasing_in_threshold(self):
        rng = np.random.default_rng(21)
        gts = []
        proposals = []
        for _ in range(25):
            x1, y1 = rng.uniform(0, 200, size=2)
            gts.append(BoundingBox(x1, y1, x1 + 20, y1 + 20))
            corners = np.array([x1, y1, x1 + 20, y1 + 20]) + rng.normal(0, 4, size=4)
            proposals.append(
                BoundingBox(
                    min(corners[0], corners[2]),
                    min(corners[1], corners[3]),
                    max(corners[0], corners[2]),
                    max(corners[1], corners[3]),
                )
            )
        thresholds = [0.1 * k for k in range(1, 10)]
        out = recall_at_iou(proposals, gts, thresholds)
        values = [out[t] for t in thresholds]
        assert all(a >= b for a, b in zip(values, values[1:]))


class TestBestIouByFrameMatchesPerFrameReference:
    """Scoring every frame's pairs in one pass gives each ground truth the
    best overlap of a per-frame ``iou_matrix``."""

    @staticmethod
    def reference(proposals_by_frame, gts_by_frame):
        return np.concatenate([
            iou_matrix(proposals_by_frame.get(f, []), gts).max(axis=0, initial=-np.inf)
            for f, gts in gts_by_frame.items()
        ])

    @staticmethod
    def random_frames(rng, num_frames):
        proposals_by_frame, gts_by_frame = {}, {}
        for f in rng.permutation(num_frames).tolist():
            gts = [grid_box(rng) for _ in range(int(rng.integers(0, 6)))]
            props = [grid_box(rng) for _ in range(int(rng.integers(0, 40)))]
            props += gts[:1]  # an exact hit
            if gts:
                gts_by_frame[f] = gts
            if props and f % 7:  # every seventh frame has no proposals
                proposals_by_frame[f] = props
        return proposals_by_frame, gts_by_frame

    @pytest.mark.parametrize("block", [None, 1, 3])
    def test_random_frames(self, monkeypatch, block):
        if block is not None:
            monkeypatch.setattr(geometry, "_EDGE_BLOCK", block)
        rng = np.random.default_rng(31)
        props, gts = self.random_frames(rng, 120)
        pairs = sum(len(props.get(f, ())) * len(g) for f, g in gts.items())
        assert pairs > 4096  # more than one block at the default size
        assert set(props) - set(gts), "proposals on a frame without ground truth"
        assert set(gts) - set(props), "ground truth on a frame without proposals"
        got = best_iou_by_frame(props, gts)
        want = self.reference(props, gts)
        assert hexed([got]) == hexed([want])
        assert np.isneginf(got).sum() == sum(len(g) for f, g in gts.items() if f not in props)

    def test_no_proposals_at_all(self):
        gts = {4: [BoundingBox(0, 0, 1, 1)], 2: [BoundingBox(0, 0, 2, 2)] * 2}
        got = best_iou_by_frame({}, gts)
        assert hexed([got]) == hexed([self.reference({}, gts)])
        assert np.isneginf(got).all() and len(got) == 3

    def test_no_ground_truth(self):
        got = best_iou_by_frame({0: [BoundingBox(0, 0, 1, 1)]}, {})
        assert got.dtype == np.float64 and got.shape == (0,)
