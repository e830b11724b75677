"""Two-stage cascade box-proposal refinement and training-sample selection.

A proposal stage is a pair of callables (a regressor producing box offsets
and a scorer producing objectness in ``[0, 1]``) applied to a set of
candidate boxes. The cascade runs one stage over a dense anchor grid,
suppresses duplicates, keeps the best few hundred, and refines those again
with a second stage; the second-stage scores are the ones reported.

Also provided: IoU-based positive/negative assignment of candidates to
ground-truth boxes and the ratio-balanced mini-batch draw used when fitting
box regressors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .geometry import (
    _EDGE_BLOCK,
    BoundingBox,
    BoxDelta,
    _iou_arrays,
    box_from_center,
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
# training labels: positive above POSITIVE_IOU, negative below NEGATIVE_IOU
POSITIVE_IOU = 0.7
NEGATIVE_IOU = 0.3
# mini-batch draw: at most MINIBATCH_SIZE samples, at most
# MINIBATCH_MAX_RATIO positives per negative
MINIBATCH_SIZE = 128
MINIBATCH_MAX_RATIO = 1.2


@dataclass(frozen=True)
class AnchorConfig:
    """Dense anchor grid layout.

    One anchor per (cell, scale, ratio) combination. Anchor centers sit at
    ``(i + 0.5) * stride`` in each axis; for scale ``s`` and aspect ratio
    ``r`` the anchor is ``h = s * sqrt(r)`` tall and ``w = s / sqrt(r)``
    wide. Anchors are generated unclipped, so border anchors may extend
    outside the image.
    """

    stride: int = 16
    scales: tuple[float, ...] = (128.0, 256.0, 512.0)
    ratios: tuple[float, ...] = (0.5, 1.0, 2.0)

    def __post_init__(self) -> None:
        if self.stride <= 0:
            raise ValueError("stride must be positive")
        if not self.scales or any(s <= 0 for s in self.scales):
            raise ValueError("scales must be positive and non-empty")
        if not self.ratios or any(r <= 0 for r in self.ratios):
            raise ValueError("ratios must be positive and non-empty")


def generate_anchors(width: int, height: int, config: AnchorConfig) -> list[BoundingBox]:
    """Enumerate the anchor grid for an ``width x height`` image.

    Cells iterate row-major (y outer, x inner); within a cell, scales outer
    and ratios inner. Grid size per axis is ``ceil(extent / stride)``.
    """
    if width <= 0 or height <= 0:
        raise ValueError("image dimensions must be positive")
    nx = -(-width // config.stride)
    ny = -(-height // config.stride)
    anchors: list[BoundingBox] = []
    for iy in range(ny):
        cy = (iy + 0.5) * config.stride
        for ix in range(nx):
            cx = (ix + 0.5) * config.stride
            for scale in config.scales:
                for ratio in config.ratios:
                    h = scale * math.sqrt(ratio)
                    w = scale / math.sqrt(ratio)
                    anchors.append(box_from_center(cx, cy, w, h))
    return anchors


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


@dataclass(frozen=True)
class SampleAssignment:
    """Per-candidate training labels against a ground-truth set.

    ``labels[i]`` is 1 (positive), 0 (negative), or -1 (ignored).
    ``matched_gt[i]`` is the index of the highest-IoU ground-truth box for
    candidate ``i`` (meaningful whenever there is at least one ground truth),
    and ``max_iou[i]`` is that IoU.
    """

    labels: np.ndarray
    matched_gt: np.ndarray
    max_iou: np.ndarray

    def __post_init__(self) -> None:
        if not (len(self.labels) == len(self.matched_gt) == len(self.max_iou)):
            raise ValueError("assignment arrays must share one length")


def _assign_frames(
    candidates: np.ndarray,
    counts: Sequence[int],
    ground_truths: np.ndarray,
    gt_counts: Sequence[int],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each candidate's label, matched ground truth and best IoU by the rule of
    :func:`assign_samples`, for several frames at once.

    ``candidates`` (N, 4) holds the frames' rows one frame after another,
    ``counts[f]`` of them for frame ``f``, and each is labelled against its
    own frame's rows of ``ground_truths`` (M, 4), ``gt_counts[f]`` of them; a
    matched index counts within the frame. Every (candidate, ground truth)
    pair of a frame is one edge, and the edges of all frames go through the
    batch IoU kernel in one pass, in blocks of ``_EDGE_BLOCK``.
    """
    counts = np.asarray(counts, dtype=np.int64)
    gt_counts = np.asarray(gt_counts, dtype=np.int64)
    widths = np.repeat(gt_counts, counts)  # per candidate: its frame's ground truths
    first_edge = np.cumsum(widths) - widths  # edges are numbered row by row
    src = np.repeat(np.arange(len(widths)), widths)  # each edge's candidate
    local = np.arange(len(src)) - np.repeat(first_edge, widths)  # its frame's ground truth
    dst = np.repeat(np.cumsum(gt_counts) - gt_counts, counts)[src] + local  # and that row
    overlap = np.empty(len(src))
    for lo in range(0, len(src), _EDGE_BLOCK):
        a, b = src[lo : lo + _EDGE_BLOCK], dst[lo : lo + _EDGE_BLOCK]
        pairs = _iou_arrays(candidates[a, None], ground_truths[b, None])
        overlap[lo : lo + _EDGE_BLOCK] = pairs[:, 0, 0]
    labels = np.zeros(len(widths), dtype=np.int8)
    matched_gt = np.full(len(widths), -1, dtype=np.int64)
    max_iou = np.zeros(len(widths), dtype=np.float64)
    met = np.flatnonzero(widths)  # candidates of frames with ground truth
    if len(met):
        starts = first_edge[met]
        best = np.maximum.reduceat(overlap, starts)
        at_best = overlap == np.repeat(best, widths[met])
        max_iou[met] = best
        matched_gt[met] = np.minimum.reduceat(np.where(at_best, local, len(src)), starts)
        labels[met] = np.where(best > POSITIVE_IOU, 1, np.where(best < NEGATIVE_IOU, 0, -1))
        gt_best = np.zeros(len(ground_truths))
        np.maximum.at(gt_best, dst, overlap)
        forcing = (overlap == gt_best[dst]) & (gt_best[dst] > 0.0)
        forced_by = np.maximum.reduceat(np.where(forcing, local, -1), starts)
        forced = met[forced_by >= 0]
        labels[forced] = 1
        matched_gt[forced] = forced_by[forced_by >= 0]
    return labels, matched_gt, max_iou


def assign_samples(
    candidates: Sequence[BoundingBox],
    ground_truths: Sequence[BoundingBox],
) -> SampleAssignment:
    """Label candidates by IoU against ground truth.

    IoU above ``POSITIVE_IOU`` (0.7) is positive, below ``NEGATIVE_IOU``
    (0.3) negative, anything between is ignored (-1); each candidate is
    matched to the first ground truth of its highest IoU.
    Additionally, for every ground-truth box the candidate with the highest
    IoU is forced positive and matched to it (ties keep all tied
    candidates; a candidate forced by several is matched to the last) so
    that no ground truth goes unmatched even when all overlaps are low; a
    ground truth no candidate overlaps forces nothing. With an empty
    ground-truth set, every candidate is negative and matched to -1.

    This is the pass of :func:`_assign_frames` on one frame;
    ``anticipation.build_training_set`` runs it once over all its frames.
    """
    labels, matched_gt, max_iou = _assign_frames(
        boxes_to_array(candidates),
        [len(candidates)],
        boxes_to_array(ground_truths),
        [len(ground_truths)],
    )
    return SampleAssignment(labels=labels, matched_gt=matched_gt, max_iou=max_iou)


@dataclass(frozen=True)
class MiniBatch:
    """Indices drawn for one training step."""

    positives: np.ndarray
    negatives: np.ndarray

    @property
    def size(self) -> int:
        return len(self.positives) + len(self.negatives)

    @property
    def ratio(self) -> float:
        if len(self.negatives) == 0:
            return float("inf")
        return len(self.positives) / len(self.negatives)


def sample_minibatch(assignment: SampleAssignment, rng: np.random.Generator) -> MiniBatch:
    """Draw a ratio-balanced mini-batch from an assignment.

    Whenever both pools are non-empty the draw takes up to
    ``MINIBATCH_SIZE // 2`` (64) positives and as many negatives, then caps
    the positives at ``MINIBATCH_MAX_RATIO`` (1.2) per negative, so a batch
    holds at most 128 samples at a positive:negative ratio in [1, 1.2],
    inside the [0.8, 1.2] window. If either pool is empty no valid ratio
    exists and the batch is empty. Selection within each pool is uniform
    without replacement.
    """
    pos_pool = np.nonzero(assignment.labels == 1)[0]
    neg_pool = np.nonzero(assignment.labels == 0)[0]
    if len(pos_pool) == 0 or len(neg_pool) == 0:
        return MiniBatch(
            positives=np.zeros(0, dtype=np.int64), negatives=np.zeros(0, dtype=np.int64)
        )
    n_pos = min(len(pos_pool), MINIBATCH_SIZE // 2)
    n_neg = min(len(neg_pool), n_pos)
    # the negative pool may be small; cap positives so the ratio stays legal
    n_pos = min(n_pos, int(np.floor(MINIBATCH_MAX_RATIO * n_neg)))
    pos = rng.choice(pos_pool, size=n_pos, replace=False)
    neg = rng.choice(neg_pool, size=n_neg, replace=False)
    return MiniBatch(positives=np.sort(pos), negatives=np.sort(neg))


def recall_curve(best_iou: np.ndarray, thresholds: Sequence[float]) -> dict[float, float]:
    """Share of ``best_iou`` entries ``>= t`` for each distinct threshold ``t`` in ``[0, 1]``.

    ``best_iou`` holds each ground truth's best proposal IoU, ``-inf`` if it has none.
    """
    if len(set(thresholds)) != len(thresholds) or not all(0 <= t <= 1 for t in thresholds):
        raise ValueError(f"thresholds must be distinct and in [0, 1], got {list(thresholds)}")
    return {float(t): float(np.mean(best_iou >= t)) for t in thresholds}


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
