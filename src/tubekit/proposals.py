"""Two-stage cascade box-proposal refinement, training labels and proposal recall.

A proposal stage is a pair of callables (a regressor producing box offsets
and a scorer producing objectness in ``[0, 1]``) applied to a set of
candidate boxes. The cascade runs one stage over the candidates,
suppresses duplicates, keeps the best few hundred, and refines those again
with a second stage; the second-stage scores are the ones reported.

Also provided: the IoU-based positive labelling of candidates against
ground-truth boxes that anticipation training uses, and each ground truth's
recall by its best proposal IoU.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Callable, Mapping, Sequence

import numpy as np

from .geometry import (
    BoundingBox,
    BoxDelta,
    _group_pairs,
    boxes_to_array,
    clip_visible,
    decode_delta,
    iou_matrix,
    nms,
)

Scorer = Callable[[BoundingBox], float]
Regressor = Callable[[BoundingBox], BoxDelta]

# IoU above which a refined box suppresses a lower-scored one
NMS_THRESHOLD = 0.7
# training labels: positive above POSITIVE_IOU
POSITIVE_IOU = 0.7


@dataclass(frozen=True)
class ProposalStage:
    """One refinement stage: regress each candidate, then score the result."""

    regressor: Regressor
    scorer: Scorer


def refine_stage(
    candidates: Sequence[BoundingBox],
    stage: ProposalStage,
    *,
    image_width: float,
    image_height: float,
) -> list[tuple[BoundingBox, float]]:
    """Regress, clip, and score candidates; drops boxes that collapse to zero area.

    The scorer sees the refined (clipped) box, not the input candidate.
    """
    out: list[tuple[BoundingBox, float]] = []
    for box in candidates:
        decoded = decode_delta(box, stage.regressor(box))
        refined = clip_visible(decoded, image_width, image_height)
        if refined is None:
            continue
        score = float(stage.scorer(refined))
        if not 0.0 <= score <= 1.0:
            raise ValueError(f"scorer returned {score}, expected a value in [0, 1]")
        out.append((refined, score))
    return out


def single_stage_refine(
    anchors: Sequence[BoundingBox],
    stage: ProposalStage,
    *,
    image_width: float,
    image_height: float,
    top_n: int = 300,
) -> list[tuple[BoundingBox, float]]:
    """One-pass baseline: refine, NMS at ``NMS_THRESHOLD``, keep the ``top_n`` best.

    Returns (box, score) pairs sorted by score descending.
    """
    scored = refine_stage(
        anchors, stage, image_width=image_width, image_height=image_height
    )
    kept = nms(scored, NMS_THRESHOLD)[:top_n]
    return [scored[i] for i in kept]


def cascade_refine(
    anchors: Sequence[BoundingBox],
    stage_a: ProposalStage,
    stage_b: ProposalStage,
    *,
    image_width: float,
    image_height: float,
    top_n: int = 300,
) -> list[tuple[BoundingBox, float]]:
    """Two-stage cascade: stage-a refine -> NMS -> top_n -> stage-b refine.

    Only the second stage's scores survive to the output, which is sorted by
    score descending.
    """
    first = single_stage_refine(
        anchors,
        stage_a,
        image_width=image_width,
        image_height=image_height,
        top_n=top_n,
    )
    second = refine_stage(
        [b for b, _ in first],
        stage_b,
        image_width=image_width,
        image_height=image_height,
    )
    second.sort(key=lambda pair: -pair[1])
    return second


def _assign_frames(
    candidates: np.ndarray,
    counts: Sequence[int],
    ground_truths: np.ndarray,
    gt_counts: Sequence[int],
) -> tuple[np.ndarray, np.ndarray]:
    """Positive labelling of candidates by IoU against ground truth, for
    several frames at once.

    Returns a bool mask of the positive candidates and each candidate's
    matched ground truth. A candidate whose best IoU is above
    ``POSITIVE_IOU`` (0.7) is positive, and each candidate is matched to the
    first ground truth of its highest IoU. Additionally, for every
    ground-truth box the candidate with the highest IoU is forced positive
    and matched to it (ties keep all tied candidates; a candidate forced by
    several is matched to the last) so that no ground truth goes unmatched
    even when all overlaps are low; a ground truth no candidate overlaps
    forces nothing. On a frame without ground truth, no candidate is
    positive and each is matched to -1.

    ``candidates`` (N, 4) holds the frames' rows one frame after another,
    ``counts[f]`` of them for frame ``f``, and each is labelled against its
    own frame's rows of ``ground_truths`` (M, 4), ``gt_counts[f]`` of them; a
    matched index counts within the frame. The (candidate, ground truth)
    pairs of all frames are scored in one pass (see
    :func:`geometry._group_pairs`).
    """
    widths, first_edge, src, local, dst, overlap = _group_pairs(
        candidates, counts, ground_truths, gt_counts
    )
    positive = np.zeros(len(widths), dtype=bool)
    matched_gt = np.full(len(widths), -1, dtype=np.int64)
    met = np.flatnonzero(widths)  # candidates of frames with ground truth
    if len(met):
        starts = first_edge[met]
        best = np.maximum.reduceat(overlap, starts)
        at_best = overlap == np.repeat(best, widths[met])
        matched_gt[met] = np.minimum.reduceat(np.where(at_best, local, len(src)), starts)
        positive[met] = best > POSITIVE_IOU
        gt_best = np.zeros(len(ground_truths))
        np.maximum.at(gt_best, dst, overlap)
        forcing = (overlap == gt_best[dst]) & (gt_best[dst] > 0.0)
        forced_by = np.maximum.reduceat(np.where(forcing, local, -1), starts)
        forced = met[forced_by >= 0]
        positive[forced] = True
        matched_gt[forced] = forced_by[forced_by >= 0]
    return positive, matched_gt


def recall_curve(best_iou: np.ndarray, thresholds: Sequence[float]) -> dict[float, float]:
    """Share of ``best_iou`` entries ``>= t`` for each distinct threshold ``t`` in ``[0, 1]``.

    ``best_iou`` holds each ground truth's best proposal IoU, ``-inf`` if it has none.
    """
    if len(set(thresholds)) != len(thresholds) or not all(0 <= t <= 1 for t in thresholds):
        raise ValueError(f"thresholds must be distinct and in [0, 1], got {list(thresholds)}")
    return {float(t): float(np.mean(best_iou >= t)) for t in thresholds}


def best_iou_by_frame(
    proposals_by_frame: Mapping[int, Sequence[BoundingBox]],
    gts_by_frame: Mapping[int, Sequence[BoundingBox]],
) -> np.ndarray:
    """Each ground truth's best IoU against its own frame's proposals, ``-inf``
    on a frame with none, in the order of ``gts_by_frame``'s frames and boxes.

    Every same-frame pair is scored in one pass (see
    :func:`geometry._group_pairs`).
    """
    props = [proposals_by_frame.get(f, ()) for f in gts_by_frame]
    gts = list(gts_by_frame.values())
    widths, first_edge, _, _, _, overlap = _group_pairs(
        boxes_to_array(list(chain.from_iterable(gts))),
        list(map(len, gts)),
        boxes_to_array(list(chain.from_iterable(props))),
        list(map(len, props)),
    )
    best = np.full(len(widths), -np.inf)
    met = np.flatnonzero(widths)  # ground truths of frames with proposals
    if len(met):
        best[met] = np.maximum.reduceat(overlap, first_edge[met])
    return best


def recall_at_iou(
    proposals: Sequence[BoundingBox],
    ground_truths: Sequence[BoundingBox],
    thresholds: Sequence[float],
) -> dict[float, float]:
    """Fraction of ground-truth boxes covered by some proposal at each IoU threshold.

    A ground truth counts as recalled at threshold ``t`` when its best
    proposal IoU is ``>= t``.

    Raises:
        ValueError: with an empty ground-truth set (recall is undefined).
    """
    if not ground_truths:
        raise ValueError("recall is undefined without ground-truth boxes")
    best = iou_matrix(proposals, ground_truths).max(axis=0, initial=-np.inf)
    return recall_curve(best, thresholds)
