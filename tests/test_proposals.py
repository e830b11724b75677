import numpy as np
import pytest

import tubekit.geometry as geometry
from tubekit.geometry import BoundingBox, BoxDelta, boxes_to_array, encode_delta, iou, iou_matrix
from tubekit.proposals import (
    NMS_THRESHOLD,
    ProposalStage,
    _assign_frames,
    best_iou_by_frame,
    cascade_refine,
    recall_at_iou,
    recall_curve,
    refine_stage,
    single_stage_refine,
)

ZERO_DELTA = BoxDelta(0.0, 0.0, 0.0, 0.0)
IDENTITY_STAGE = ProposalStage(regressor=lambda b: ZERO_DELTA, scorer=lambda b: 0.5)


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


@pytest.mark.parametrize("score", [float("nan"), -0.1, float.fromhex("0x1.0000000000001p+0")])
def test_refine_stage_names_the_bad_score(score):
    stage = ProposalStage(regressor=lambda b: ZERO_DELTA, scorer=lambda b: score)
    message = rf"^scorer returned {score}, expected a value in \[0, 1\]$"
    with pytest.raises(ValueError, match=message):
        refine_stage([BoundingBox(0, 0, 10, 10)], stage, image_width=20, image_height=20)


@pytest.mark.parametrize("score", [0.0, 1.0])
def test_refine_stage_accepts_the_closed_interval(score):
    stage = ProposalStage(regressor=lambda b: ZERO_DELTA, scorer=lambda b: score)
    out = refine_stage([BoundingBox(0, 0, 10, 10)], stage, image_width=20, image_height=20)
    assert out == [(BoundingBox(0, 0, 10, 10), score)]


def scored_by(scores):
    """An identity stage scoring each box by its entry in ``scores``."""
    return ProposalStage(regressor=lambda b: ZERO_DELTA, scorer=lambda b: scores[b])


@pytest.mark.parametrize("height, kept", [(7, 2), (8, 1)])
def test_single_stage_suppresses_only_above_the_nms_threshold(height, kept):
    # IoU with the first box is height / 10: 0.7 is NMS_THRESHOLD itself
    top, low = BoundingBox(0, 0, 10, 10), BoundingBox(0, 0, 10, height)
    assert iou(top, low) == height / 10
    assert (iou(top, low) > NMS_THRESHOLD) == (kept == 1)
    stage = scored_by({top: 0.9, low: 0.8})
    out = single_stage_refine([low, top], stage, image_width=20, image_height=20)
    assert out == [(top, 0.9), (low, 0.8)][:kept]


def test_single_stage_keeps_the_top_n_in_score_order():
    boxes = [BoundingBox(20 * k, 0, 20 * k + 10, 10) for k in range(6)]
    scores = [0.3, 0.9, 0.5, 0.9, 0.1, 0.7]  # disjoint boxes: NMS keeps all
    stage = scored_by(dict(zip(boxes, scores)))
    out = single_stage_refine(boxes, stage, image_width=200, image_height=20, top_n=4)
    # ties keep input order
    assert out == [(boxes[1], 0.9), (boxes[3], 0.9), (boxes[5], 0.7), (boxes[2], 0.5)]


def test_cascade_second_stage_refines_only_the_first_stage_survivors():
    boxes = [BoundingBox(20 * k, 0, 20 * k + 10, 10) for k in range(5)]
    boxes.append(BoundingBox(0, 0, 10, 9))  # IoU 0.9 with boxes[0], scored lower
    stage_a = scored_by(dict(zip(boxes, [0.2, 0.6, 0.4, 0.8, 0.1, 0.15])))
    seen = []

    def regressor(box):
        seen.append(box)
        return ZERO_DELTA

    stage_b = ProposalStage(regressor=regressor, scorer=lambda b: 0.5)
    cascade_refine(boxes, stage_a, stage_b, image_width=200, image_height=20, top_n=3)
    assert seen == [boxes[3], boxes[1], boxes[2]]
    seen.clear()
    cascade_refine(boxes, stage_a, stage_b, image_width=200, image_height=20)
    assert seen == [boxes[3], boxes[1], boxes[2], boxes[0], boxes[4]]


def test_cascade_sorts_by_the_second_stage_score_keeping_ties_in_first_stage_order():
    boxes = [BoundingBox(20 * k, 0, 20 * k + 10, 10) for k in range(4)]
    stage_a = scored_by(dict(zip(boxes, [0.9, 0.8, 0.7, 0.6])))
    stage_b = scored_by(dict(zip(boxes, [0.1, 0.5, 0.3, 0.5])))
    out = cascade_refine(boxes, stage_a, stage_b, image_width=200, image_height=20)
    assert out == [(boxes[1], 0.5), (boxes[3], 0.5), (boxes[2], 0.3), (boxes[0], 0.1)]


def test_cascade_drops_a_box_the_second_stage_pushes_off_the_image():
    boxes = [BoundingBox(0, 0, 10, 10), BoundingBox(20, 0, 30, 10)]
    stage_a = scored_by(dict(zip(boxes, [0.9, 0.8])))
    # a shift of 5 widths moves the first box to x >= 50, off a 40 px image
    push = {boxes[0]: BoxDelta(5.0, 0.0, 0.0, 0.0), boxes[1]: ZERO_DELTA}
    stage_b = ProposalStage(regressor=lambda b: push[b], scorer=lambda b: 0.4)
    out = cascade_refine(boxes, stage_a, stage_b, image_width=40, image_height=10)
    assert out == [(boxes[1], 0.4)]


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


def assign_one_frame(candidates, ground_truths):
    """``_assign_frames`` on one frame: (positive, matched_gt)."""
    return _assign_frames(
        boxes_to_array(candidates),
        [len(candidates)],
        boxes_to_array(ground_truths),
        [len(ground_truths)],
    )


class TestAssignOneFrame:
    def test_thresholds(self):
        gt = [BoundingBox(0, 0, 10, 10)]
        candidates = [
            BoundingBox(0, 0, 10, 10),  # IoU 1.0 -> positive
            BoundingBox(0, 0, 10, 5),  # IoU 0.5 -> not positive
            BoundingBox(50, 50, 60, 60),  # IoU 0.0 -> not positive
        ]
        positive, matched_gt = assign_one_frame(candidates, gt)
        assert positive.tolist() == [True, False, False]
        assert matched_gt.tolist() == [0, 0, 0]

    def test_best_candidate_override(self):
        # nobody clears 0.7, but the best available candidate per gt is
        # promoted anyway
        gt = [BoundingBox(0, 0, 10, 10)]
        candidates = [BoundingBox(0, 0, 10, 5), BoundingBox(0, 0, 10, 4)]
        positive, matched_gt = assign_one_frame(candidates, gt)
        assert positive.tolist() == [True, False]
        assert matched_gt[0] == 0

    def test_override_keeps_ties(self):
        gt = [BoundingBox(0, 0, 10, 10)]
        half = BoundingBox(0, 0, 10, 5)
        positive = assign_one_frame([half, half], gt)[0]
        assert positive.tolist() == [True, True]

    def test_override_skips_untouched_gt(self):
        gt = [BoundingBox(100, 100, 110, 110)]
        positive = assign_one_frame([BoundingBox(0, 0, 10, 10)], gt)[0]
        # zero overlap everywhere: nothing to promote
        assert positive.tolist() == [False]

    def test_empty_ground_truth(self):
        positive, matched_gt = assign_one_frame([BoundingBox(0, 0, 10, 10)], [])
        assert positive.tolist() == [False]
        assert matched_gt.tolist() == [-1]

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
            positive = assign_one_frame(candidates, gts)[0]
            for j, g in enumerate(gts):
                overlaps = [iou(c, g) for c in candidates]
                best = max(overlaps)
                if best > 0.0:
                    best_rows = [i for i, v in enumerate(overlaps) if v == best]
                    assert all(positive[i] for i in best_rows)


def reference_assign_samples(candidates, ground_truths):
    """The per-frame labelling: one IoU matrix per frame, then a loop forcing
    each ground truth's best candidates positive."""
    n = len(candidates)
    if not ground_truths:
        return np.zeros(n, dtype=bool), np.full(n, -1, dtype=np.int64)
    ious = iou_matrix(candidates, ground_truths)
    matched_gt = ious.argmax(axis=1).astype(np.int64)
    positive = ious.max(axis=1) > 0.7
    if n:
        gt_best = ious.max(axis=0)
        for j in range(len(ground_truths)):
            if gt_best[j] <= 0.0:
                continue
            best_rows = np.nonzero(ious[:, j] == gt_best[j])[0]
            positive[best_rows] = True
            matched_gt[best_rows] = j
    return positive, matched_gt


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
        want = [np.concatenate([p[k] for p in per_frame]) for k in range(2)]
        assert hexed(got) == hexed(want)
        for cands, gts in frames:
            assert hexed(assign_one_frame(cands, gts)) == hexed(
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
        assert assign_one_frame([half, half], [gt])[0].tolist() == [True, True]

    def test_a_candidate_tied_best_for_two_ground_truths_takes_the_last(self):
        # the square overlaps both rectangles 0.5, more than any other candidate
        square = BoundingBox(0.0, 0.0, 10.0, 10.0)
        tall, wide = BoundingBox(0.0, 0.0, 10.0, 20.0), BoundingBox(0.0, 0.0, 20.0, 10.0)
        far = BoundingBox(50.0, 50.0, 60.0, 60.0)
        frames = [([far, square], [tall, wide]), ([square], [wide, tall])]
        self.assert_matches(frames)
        positive, matched_gt = assign_one_frame([far, square], [tall, wide])
        assert positive.tolist() == [False, True]
        assert matched_gt.tolist() == [0, 1]

    def test_frames_without_ground_truth_or_with_one_candidate(self):
        box = BoundingBox(0.0, 0.0, 10.0, 10.0)
        near = BoundingBox(2.0, 0.0, 12.0, 10.0)
        self.assert_matches(
            [([box, near], []), ([near], [box]), ([], [box]), ([box], []), ([box], [near, box])]
        )
        self.assert_matches([([box], [])])
        self.assert_matches([])

    def test_an_overlap_on_the_threshold_is_not_positive(self):
        gt = BoundingBox(0.0, 0.0, 10.0, 10.0)
        cands = [BoundingBox(0.0, 0.0, 10.0, 3.0), BoundingBox(0.0, 0.0, 10.0, 7.0), gt]
        self.assert_matches([(cands, [gt])])
        assert assign_one_frame(cands, [gt])[0].tolist() == [False, False, True]

    def test_zero_overlap_everywhere(self):
        cands = [BoundingBox(0.0, 0.0, 10.0, 10.0), BoundingBox(20.0, 0.0, 30.0, 10.0)]
        gts = [BoundingBox(100.0, 100.0, 110.0, 110.0), BoundingBox(0.0, 50.0, 5.0, 60.0)]
        self.assert_matches([(cands, gts), (cands[:1], gts[:1])])
        positive, matched_gt = assign_one_frame(cands, gts)
        assert positive.tolist() == [False, False]
        assert matched_gt.tolist() == [0, 0]


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


class TestRecallCurve:
    def test_minus_inf_never_counts(self):
        best = np.array([-np.inf, 0.0, 0.5, 1.0])
        out = recall_curve(best, [0, 0.5, 1])
        assert out == {0.0: 0.75, 0.5: 0.5, 1.0: 0.25}
        assert all(type(key) is float and type(value) is float for key, value in out.items())

    @pytest.mark.parametrize("thresholds", [[0.5, 0.5], [-0.1], [1.5], [float("nan")]])
    def test_rejects_repeated_or_out_of_range_thresholds(self, thresholds):
        with pytest.raises(ValueError, match="^thresholds must be distinct and in \\[0, 1\\]"):
            recall_curve(np.array([0.5]), thresholds)


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
