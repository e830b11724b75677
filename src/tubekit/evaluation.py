"""Tube-level detection metrics and the anticipation-strategy study harness.

A predicted tube matches a ground-truth tube of the same class when their
spatio-temporal overlap reaches a threshold ``delta``. Overlap is the
product of temporal IoU (shared frames over combined frame span, counting
frames inclusively) and the mean spatial box IoU across the shared frames.
Matching is greedy in score order, one ground truth per prediction; average
precision uses the all-points interpolated area under the precision/recall
curve, and mAP averages over the classes that actually have ground truth.

The study harness runs the full pipeline (proposals → anticipation →
detection → linking → trimming → evaluation) for each anticipation strategy
and gap over several seeds, producing a CSV-ready comparison table.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping, Optional, Sequence, Union

import numpy as np

from .anticipation import (
    DEFAULT_TRAIN_EPOCHS,
    STRATEGIES,
    STRATEGY_LEARNED,
    STRATEGY_NONE,
    AnticipationModel,
    TrainingSet,
    _anticipates,
    anticipate,
    augment_proposals,
    build_training_set,
    train_anticipation_model,
)
from .geometry import BoundingBox, Motion, _check_count, _check_integer, iou
from .linking import ActionTube, Detection, FrameDetections, extract_tubes
from .synthdata import ConditionedDetector, ProposalOracle, Scene, SceneSpec, generate_scene
from .trimming import TrimmingParams, avg_class_length, trim_tubes


def tube_iou(a: ActionTube, b: ActionTube) -> float:
    """Spatio-temporal overlap of two tubes.

    ``(shared frames / spanned frames) * mean spatial IoU on shared
    frames``, with frame counts inclusive of both endpoints. Tubes with no
    shared frames overlap 0.
    """
    inter_start = max(a.start_frame, b.start_frame)
    inter_end = min(a.end_frame, b.end_frame)
    shared = inter_end - inter_start + 1
    if shared <= 0:
        return 0.0
    union = a.length + b.length - shared
    # both tails start on the first shared frame; the shorter ends on the last
    pairs = zip(a.boxes[inter_start - a.start_frame :], b.boxes[inter_start - b.start_frame :])
    spatial = [iou(box_a, box_b) for box_a, box_b in pairs]
    return (shared / union) * float(np.mean(spatial))


def match_tubes(
    predictions: Sequence[ActionTube],
    ground_truths: Sequence[ActionTube],
    delta: float,
) -> list[Optional[int]]:
    """Greedily assign predictions to ground-truth tubes.

    Predictions are visited in descending score order (ties keep input
    order); each claims the unmatched same-class ground truth with the
    highest overlap, provided it reaches ``delta`` (ties prefer the lowest
    ground-truth index). Each ground truth matches at most once.

    Returns:
        Per prediction (in input order) the matched ground-truth index, or
        ``None`` for a false positive.
    """
    if not 0.0 < delta <= 1.0:
        raise ValueError(f"delta must be in (0, 1], got {delta}")
    order = sorted(range(len(predictions)), key=lambda i: -predictions[i].tube_score)
    matched_gt: set[int] = set()
    result: list[Optional[int]] = [None] * len(predictions)
    for i in order:
        pred = predictions[i]
        best_j: Optional[int] = None
        best_overlap = 0.0
        for j, gt in enumerate(ground_truths):
            if j in matched_gt or gt.class_id != pred.class_id:
                continue
            overlap = tube_iou(pred, gt)
            if overlap >= delta and overlap > best_overlap:
                best_overlap = overlap
                best_j = j
        if best_j is not None:
            matched_gt.add(best_j)
            result[i] = best_j
    return result


def average_precision(
    scored_flags: Sequence[tuple[float, bool]], num_ground_truth: int
) -> float:
    """All-points interpolated average precision.

    ``scored_flags`` holds one ``(score, is_true_positive)`` entry per
    prediction; entries are ranked by score descending (stable for ties).

    Raises:
        ValueError: when there is no ground truth (AP undefined).
    """
    if num_ground_truth <= 0:
        raise ValueError("average precision is undefined without ground truth")
    ranked = sorted(scored_flags, key=lambda entry: -entry[0])
    hit = np.array([flag for _, flag in ranked], dtype=bool)
    tp = np.cumsum(hit)
    recall = tp / num_ground_truth
    precision = tp / np.arange(1, len(hit) + 1)
    # precision envelope: best precision at any recall >= r
    envelope = np.maximum.accumulate(precision[::-1])[::-1]
    # one step per true positive, summed left to right (np.sum adds pairwise)
    steps = np.diff(recall[hit], prepend=0.0) * envelope[hit]
    return float(np.cumsum(np.append(0.0, steps))[-1])


@dataclass(frozen=True)
class EvalReport:
    """mAP per overlap threshold, with the per-class breakdown kept around."""

    map_by_delta: dict[float, float]
    ap_by_delta: dict[float, dict[int, float]]


def evaluate(
    predictions_by_video: Mapping[str, Sequence[ActionTube]],
    ground_truth_by_video: Mapping[str, Sequence[ActionTube]],
    deltas: Sequence[float],
) -> EvalReport:
    """Score predicted tubes against ground truth over several thresholds.

    Matching runs per video; the matched/unmatched flags are then pooled
    across videos and ranked globally by tube score to build each class's
    precision/recall curve. Classes that never occur in the ground truth are
    skipped (their predictions simply count for nothing); mAP is the
    unweighted mean over the remaining classes.

    Raises:
        ValueError: if the ground truth is empty, a prediction video id has
            no ground-truth entry, or a delta repeats.
    """
    if len(set(deltas)) != len(deltas):
        raise ValueError(f"deltas must not repeat, got {list(deltas)}")
    unknown = set(predictions_by_video) - set(ground_truth_by_video)
    if unknown:
        raise ValueError(f"predictions for unknown video(s): {sorted(unknown)}")
    gt_classes = sorted(
        {
            tube.class_id
            for tubes in ground_truth_by_video.values()
            for tube in tubes
        }
    )
    if not gt_classes:
        raise ValueError("no ground-truth tubes to evaluate against")
    # per class, each video's (predictions, ground truth) of that class
    by_class: dict[int, list] = {c: [] for c in gt_classes}
    for video_id, gts in ground_truth_by_video.items():
        preds = predictions_by_video.get(video_id, ())
        for c, videos in by_class.items():
            videos.append(tuple([t for t in ts if t.class_id == c] for ts in (preds, gts)))

    map_by_delta: dict[float, float] = {}
    ap_by_delta: dict[float, dict[int, float]] = {}
    for delta in deltas:
        ap_per_class: dict[int, float] = {}
        for class_id, videos in by_class.items():
            flags: list[tuple[float, bool]] = []
            for preds_c, gt_c in videos:
                matches = match_tubes(preds_c, gt_c, delta)
                flags.extend(
                    (pred.tube_score, m is not None)
                    for pred, m in zip(preds_c, matches)
                )
            ap_per_class[class_id] = average_precision(flags, sum(len(g) for _, g in videos))
        ap_by_delta[float(delta)] = ap_per_class
        map_by_delta[float(delta)] = float(np.mean(list(ap_per_class.values())))
    return EvalReport(map_by_delta=map_by_delta, ap_by_delta=ap_by_delta)


def mean_ap(
    predictions_by_video: Mapping[str, Sequence[ActionTube]],
    ground_truth_by_video: Mapping[str, Sequence[ActionTube]],
    deltas: Sequence[float],
) -> dict[float, float]:
    """mAP per threshold; see :func:`evaluate` for the protocol."""
    return evaluate(predictions_by_video, ground_truth_by_video, deltas).map_by_delta


# --------------------------------------------------------------------------
# strategy study harness
# --------------------------------------------------------------------------

REQUIRED_STUDY_DELTAS = (0.05, 0.1, 0.2, 0.3)
DEFAULT_STUDY_DELTAS = (0.05, 0.1, 0.2, 0.3, 0.4, 0.5)
DEFAULT_GAPS = (2, 8, 16)
DEFAULT_STUDY_SEEDS = (0, 1, 2)

# seed stream of each replica role
_REPLICA_STREAMS = {"train": 1, "eval": 2}


def _check_study_deltas(deltas: Sequence[float]) -> None:
    out_of_range = [d for d in deltas if not 0.0 < d <= 1.0]
    if out_of_range:
        raise ValueError(f"study thresholds must be in (0, 1], got {out_of_range}")
    missing = [d for d in REQUIRED_STUDY_DELTAS if d not in deltas]
    if missing:
        raise ValueError(f"study must include thresholds {missing}")


@dataclass(frozen=True)
class StudyRow:
    """Seed-averaged mAP per threshold for one (strategy, gap) cell."""

    strategy: str
    gap: Optional[int]
    map_by_delta: dict[float, float]


@dataclass(frozen=True)
class StudyReport:
    """Comparison table across anticipation strategies and gaps."""

    rows: tuple[StudyRow, ...]
    deltas: tuple[float, ...]

    def __post_init__(self) -> None:
        _check_study_deltas(self.deltas)

    def cell(self, strategy: str, gap: Optional[int]) -> StudyRow:
        for row in self.rows:
            if row.strategy == strategy and row.gap == gap:
                return row
        raise KeyError(f"no study row for ({strategy!r}, gap={gap})")

    def to_csv(self) -> str:
        lines = ["strategy,K,delta,mAP"]
        for row in self.rows:
            k = "" if row.gap is None else str(row.gap)
            for delta in self.deltas:
                lines.append(
                    f"{row.strategy},{k},{delta:g},{row.map_by_delta[delta]:.6f}"
                )
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class StudyConfig:
    """Anticipation training length shared by every study cell."""

    train_epochs: int = DEFAULT_TRAIN_EPOCHS

    def __post_init__(self) -> None:
        _check_integer("train_epochs", self.train_epochs)
        if self.train_epochs < 1:
            raise ValueError(f"train_epochs must be at least 1, got {self.train_epochs}")


def _mix_seed(*parts: int) -> int:
    out = 0
    for p in parts:
        out = (out * 1_000_003 + int(p) + 7) % (2**31 - 1)
    return out


def _boxes_and_motions(detections: Sequence[Detection]) -> list[tuple[BoundingBox, Motion]]:
    """Anticipation's input: each detection's box and motion, (0, 0) if it has none."""
    return [(d.box, d.motion or (0.0, 0.0)) for d in detections]


def run_detection_pass(
    scene: Scene,
    oracle: ProposalOracle,
    detector: ConditionedDetector,
    anticipator: Union[str, AnticipationModel] = STRATEGY_NONE,
    gap: Optional[int] = None,
) -> list[FrameDetections]:
    """Run proposals → (anticipation) → detection over every frame.

    ``anticipator`` is a trained model or the strategy name ``"none"`` or
    ``"non-motion"``; any other name, and a model trained for another
    ``gap``, is rejected before the pass. Unless it is ``"none"``, the pass
    feeds its own detections from ``t - gap`` through :func:`anticipate` for
    every ``t >= gap`` and appends the predicted boxes to frame ``t``'s
    proposals before detecting.
    """
    spec = scene.spec
    anticipating = _anticipates(anticipator)
    if anticipating:
        if gap is None:
            raise ValueError("anticipating strategies need a positive gap")
        _check_count("gap", gap, 1)
    if isinstance(anticipator, AnticipationModel) and anticipator.gap != gap:
        raise ValueError(
            f"the model was trained for gap {anticipator.gap}, the pass runs with gap {gap}"
        )
    frames: list[FrameDetections] = []
    for t in range(spec.num_frames):
        proposals = oracle.propose(t)
        if anticipating and t >= gap:
            predicted = anticipate(
                anticipator,
                _boxes_and_motions(frames[t - gap].detections),
                image_width=spec.width,
                image_height=spec.height,
            )
            proposals = augment_proposals(proposals, predicted)
        dets = detector.detect(t, proposals)
        frames.append(FrameDetections(frame_index=t, detections=tuple(dets)))
    return frames


def _concat_training_sets(sets: Sequence[TrainingSet]) -> TrainingSet:
    return TrainingSet(
        features=np.concatenate([s.features for s in sets]),
        targets=np.concatenate([s.targets for s in sets]),
        positive=np.concatenate([s.positive for s in sets]),
    )


def _training_set_for_gap(
    train_data: Sequence[tuple[Scene, Sequence[FrameDetections]]], gap: int
) -> TrainingSet:
    per_scene = []
    for scene, frames in train_data:
        spec = scene.spec
        pairs = []
        for t in range(spec.num_frames - gap):
            dets = frames[t].detections
            if not dets:
                continue
            future = [box for _, box, _ in scene.frame_truth(t + gap)]
            pairs.append((_boxes_and_motions(dets), future))
        per_scene.append(
            build_training_set(
                pairs, image_width=spec.width, image_height=spec.height
            )
        )
    return _concat_training_sets(per_scene)


def _pipeline_map(
    eval_items: Sequence[tuple[Scene, ProposalOracle, ConditionedDetector]],
    anticipator: Union[str, AnticipationModel],
    gap: Optional[int],
    trim_params: TrimmingParams,
    deltas: Sequence[float],
) -> dict[float, float]:
    preds: dict[str, list[ActionTube]] = {}
    gts: dict[str, list[ActionTube]] = {}
    for scene, oracle, detector in eval_items:
        frames = run_detection_pass(scene, oracle, detector, anticipator, gap)
        tubes = extract_tubes(frames)
        video_id = scene.spec.video_id
        preds[video_id] = trim_tubes(tubes, trim_params)
        gts[video_id] = list(scene.tubes)
    return mean_ap(preds, gts, deltas)


def _replica(
    spec: SceneSpec, seed: int, role: str
) -> tuple[Scene, ProposalOracle, ConditionedDetector]:
    """A study seed's reseeded ``role`` ("train"/"eval") scene, oracle and detector."""
    replica_spec = replace(
        spec,
        seed=_mix_seed(spec.seed, seed, _REPLICA_STREAMS[role]),
        video_id=f"{spec.video_id}@{role}{seed}",
    )
    scene = generate_scene(replica_spec)
    oracle = ProposalOracle(scene, seed=_mix_seed(replica_spec.seed, 3))
    detector = ConditionedDetector(scene, seed=_mix_seed(replica_spec.seed, 4))
    return scene, oracle, detector


def run_strategy_study(
    scene_specs: Sequence[SceneSpec],
    *,
    strategies: Sequence[str] = STRATEGIES,
    gaps: Sequence[int] = DEFAULT_GAPS,
    deltas: Sequence[float] = DEFAULT_STUDY_DELTAS,
    seeds: Sequence[int] = DEFAULT_STUDY_SEEDS,
    config: StudyConfig = StudyConfig(),
) -> StudyReport:
    """Compare anticipation strategies over reseeded scene replicas.

    For every seed, each base spec is re-instantiated twice with derived
    seeds: a training replica (supplying anticipation training data and the
    per-class average tube lengths for trimming) and an evaluation replica.
    All strategies share the same oracle and detector noise streams within a
    seed, so cells differ only in the proposals anticipation adds. Reported
    numbers are per-cell means over seeds.
    """
    if not scene_specs:
        raise ValueError("study needs at least one scene spec")
    if not seeds:
        raise ValueError("study needs at least one seed")
    if not strategies:
        raise ValueError("study needs at least one strategy")
    if not gaps:
        raise ValueError("study needs at least one gap")
    for s in strategies:
        if s not in STRATEGIES:
            raise ValueError(f"unknown strategy {s!r}")
    for gap in gaps:
        _check_integer("gap", gap)
    if any(g < 1 for g in gaps):
        raise ValueError("gaps must be positive")
    for seed in seeds:
        _check_count("seed", seed)
    named = {"strategies": strategies, "gaps": gaps, "thresholds": deltas, "seeds": seeds}
    for name, values in named.items():
        if len(set(values)) != len(values):
            raise ValueError(f"study {name} must not repeat, got {list(values)}")
    _check_study_deltas(deltas)

    cells: list[tuple[str, Optional[int]]] = []
    for strategy in strategies:
        if strategy == STRATEGY_NONE:
            cells.append((strategy, None))
        else:
            cells.extend((strategy, gap) for gap in gaps)
    sums: dict[tuple[str, Optional[int]], dict[float, float]] = {
        cell: {float(d): 0.0 for d in deltas} for cell in cells
    }

    for seed in seeds:
        train_data = []
        for spec in scene_specs:
            scene, oracle, detector = _replica(spec, seed, "train")
            train_data.append((scene, run_detection_pass(scene, oracle, detector)))
        eval_items = [_replica(spec, seed, "eval") for spec in scene_specs]
        lengths = avg_class_length([t for scene, _ in train_data for t in scene.tubes])
        trim_params = TrimmingParams(avg_length=lengths)
        models: dict[int, AnticipationModel] = {}
        if STRATEGY_LEARNED in strategies:
            for gap in gaps:
                models[gap] = train_anticipation_model(
                    _training_set_for_gap(train_data, gap), gap, epochs=config.train_epochs
                )
        for strategy, gap in cells:
            anticipator = models[gap] if strategy == STRATEGY_LEARNED else strategy
            result = _pipeline_map(eval_items, anticipator, gap, trim_params, deltas)
            for d, v in result.items():
                sums[(strategy, gap)][d] += v

    rows = tuple(
        StudyRow(
            strategy=strategy,
            gap=gap,
            map_by_delta={d: total / len(seeds) for d, total in sums[(strategy, gap)].items()},
        )
        for strategy, gap in cells
    )
    return StudyReport(rows=rows, deltas=tuple(float(d) for d in deltas))
