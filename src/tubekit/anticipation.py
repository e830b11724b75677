"""Box-motion anticipation: predict where a box will be a few frames ahead.

A small linear model maps a detection's normalized geometry and motion
descriptor to box-regression offsets targeting the matching object ``gap``
frames later. Predicted boxes are injected as extra proposal candidates so
the proposal stage keeps tracking objects that moved.

The training objective is a smooth L1 regression loss averaged over the
whole batch but accumulated only on positive samples; because the model is
linear the objective is convex and plain full-batch gradient descent
converges without any stochastic machinery.

Two trivial fallback strategies share the same entry point: ``"none"``
(anticipate nothing) and ``"non-motion"`` (assume zero motion across the
gap, i.e. repeat the current box).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .geometry import (
    MAX_SCALE_DELTA,
    BoundingBox,
    BoxDelta,
    Motion,
    _check_count,
    clip,
    decode_delta,
    encode_delta,
)
from .proposals import assign_samples

FEATURE_DIM = 6
# 1000 epochs is where the training loss has converged: on the
# ``study-drift`` benchmark's 64 reference seeds (four drifting scenes of 90
# frames), 1000 and 2000 epochs print the same study CSV, while 800 epochs
# already change it at two of them
DEFAULT_TRAIN_EPOCHS = 1000
# the gradient-descent step of every fit; the strategy study's calibration
_LEARNING_RATE = 0.2

STRATEGY_NONE = "none"
STRATEGY_NON_MOTION = "non-motion"
STRATEGY_LEARNED = "learned"
STRATEGIES = (STRATEGY_NONE, STRATEGY_NON_MOTION, STRATEGY_LEARNED)


def smooth_l1_grad(x):
    """Derivative of :func:`smooth_l1`: ``x`` for ``|x| < 1``, else ``sign(x)``."""
    return np.clip(x, -1.0, 1.0)


def smooth_l1(x):
    """Smooth L1: ``0.5 x**2`` for ``|x| < 1``, else ``|x| - 0.5``.

    Accepts scalars or arrays.
    """
    slope = smooth_l1_grad(x)
    return slope * (x - 0.5 * slope)


def _loss_grad(
    predictions: np.ndarray, targets: np.ndarray, positive: np.ndarray
) -> np.ndarray:
    """:func:`anticipation_loss_grad` of checked arguments."""
    return positive[:, None] / predictions.shape[0] * smooth_l1_grad(predictions - targets)


def _checked_loss_args(
    predictions: np.ndarray, targets: np.ndarray, positive: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The loss arguments as float arrays of shapes (N, 4), (N, 4) and (N,), N >= 1."""
    predictions = np.asarray(predictions, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    positive = np.asarray(positive, dtype=np.float64)
    n = predictions.shape[0]
    if n == 0:
        raise ValueError("loss is undefined on an empty batch")
    if predictions.shape != targets.shape or predictions.shape != (n, 4):
        raise ValueError("predictions and targets must both have shape (N, 4)")
    if positive.shape != (n,):
        raise ValueError("positive mask must have shape (N,)")
    return predictions, targets, positive


def anticipation_loss(
    predictions: np.ndarray, targets: np.ndarray, positive: np.ndarray
) -> float:
    """Batch regression loss.

    ``(1/N) * sum_i positive_i * sum_c smooth_l1(pred_ic - target_ic)``
    where ``N`` is the total number of rows (positives and negatives alike).
    Negative rows contribute nothing to the numerator but still count in the
    normalizer.
    """
    predictions, targets, positive = _checked_loss_args(predictions, targets, positive)
    value = smooth_l1(predictions - targets)
    return float((positive * value.sum(axis=1)).sum() / predictions.shape[0])


def anticipation_loss_grad(
    predictions: np.ndarray, targets: np.ndarray, positive: np.ndarray
) -> np.ndarray:
    """Gradient of :func:`anticipation_loss` with respect to ``predictions``.

    Row ``i`` is ``positive_i / N * smooth_l1_grad(pred_i - target_i)``.
    """
    return _loss_grad(*_checked_loss_args(predictions, targets, positive))


def feature_vector(
    box: BoundingBox, motion: Motion, image_width: float, image_height: float
) -> np.ndarray:
    """Six features describing a detection: normalized center, log size, motion.

    Raises:
        ValueError: for degenerate boxes (log size undefined).
    """
    if box.width <= 0.0 or box.height <= 0.0:
        raise ValueError("feature vector needs a box with positive size")
    if image_width <= 0 or image_height <= 0:
        raise ValueError("image dimensions must be positive")
    cx, cy = box.center
    return np.array(
        [
            cx / image_width,
            cy / image_height,
            math.log(box.width),
            math.log(box.height),
            float(motion[0]),
            float(motion[1]),
        ],
        dtype=np.float64,
    )


@dataclass(frozen=True)
class TrainingSet:
    """Flattened training rows for the anticipation model."""

    features: np.ndarray  # (N, 6) raw (unstandardized) features
    targets: np.ndarray  # (N, 4) encoded offsets; zero rows where not positive
    positive: np.ndarray  # (N,) bool

    def __post_init__(self) -> None:
        n = self.features.shape[0]
        if self.features.shape != (n, FEATURE_DIM):
            raise ValueError(f"features must be (N, {FEATURE_DIM})")
        if self.targets.shape != (n, 4) or self.positive.shape != (n,):
            raise ValueError("targets must be (N, 4) and positive (N,)")

    @property
    def num_positive(self) -> int:
        return int(self.positive.sum())


def build_training_set(
    frame_pairs: Sequence[
        tuple[Sequence[tuple[BoundingBox, Motion]], Sequence[BoundingBox]]
    ],
    *,
    image_width: float,
    image_height: float,
) -> TrainingSet:
    """Turn (detections-now, true-boxes-later) frame pairs into training rows.

    Each detection becomes one row; it is positive when IoU-matched to a
    future box (the usual thresholding plus a best-candidate override that
    keeps every future box matched to its highest-IoU detection, so slow
    overlap decay at long gaps cannot starve training of positives). The
    regression target for a positive row encodes the matched future box
    relative to the detection box.
    """
    feats: list[np.ndarray] = []
    targets: list[np.ndarray] = []
    positive: list[bool] = []
    for detections, future_boxes in frame_pairs:
        boxes = [b for b, _ in detections]
        assignment = assign_samples(boxes, list(future_boxes))
        for i, (box, motion) in enumerate(detections):
            if box.width <= 0.0 or box.height <= 0.0:
                continue
            feats.append(feature_vector(box, motion, image_width, image_height))
            if assignment.labels[i] == 1:
                matched = future_boxes[int(assignment.matched_gt[i])]
                targets.append(
                    np.array(encode_delta(box, matched).as_tuple(), dtype=np.float64)
                )
                positive.append(True)
            else:
                targets.append(np.zeros(4, dtype=np.float64))
                positive.append(False)
    return TrainingSet(
        features=np.array(feats, dtype=np.float64).reshape(-1, FEATURE_DIM),
        targets=np.array(targets, dtype=np.float64).reshape(-1, 4),
        positive=np.array(positive, dtype=bool),
    )


@dataclass(frozen=True)
class AnticipationModel:
    """Linear box-offset predictor over standardized features.

    ``offsets = weights @ standardize(features) + bias``; the scale
    components of the prediction are clamped so decoding can never
    overflow.
    """

    weights: np.ndarray  # (4, 6)
    bias: np.ndarray  # (4,)
    gap: int
    feature_mean: np.ndarray  # (6,)
    feature_scale: np.ndarray  # (6,)

    def __post_init__(self) -> None:
        if self.weights.shape != (4, FEATURE_DIM):
            raise ValueError(f"weights must be (4, {FEATURE_DIM})")
        if self.bias.shape != (4,):
            raise ValueError("bias must be (4,)")
        if self.feature_mean.shape != (FEATURE_DIM,) or self.feature_scale.shape != (
            FEATURE_DIM,
        ):
            raise ValueError(f"feature stats must be ({FEATURE_DIM},)")
        _check_count("gap", self.gap, 1)
        if np.any(self.feature_scale <= 0):
            raise ValueError("feature scales must be positive")

    def predict_delta(
        self, box: BoundingBox, motion: Motion, image_width: float, image_height: float
    ) -> BoxDelta:
        phi = feature_vector(box, motion, image_width, image_height)
        phi = (phi - self.feature_mean) / self.feature_scale
        tx, ty, tw, th = (self.weights @ phi + self.bias).tolist()
        bound = MAX_SCALE_DELTA
        return BoxDelta(tx, ty, min(max(tw, -bound), bound), min(max(th, -bound), bound))

    def predict_box(
        self, box: BoundingBox, motion: Motion, image_width: float, image_height: float
    ) -> BoundingBox:
        delta = self.predict_delta(box, motion, image_width, image_height)
        return clip(decode_delta(box, delta), image_width, image_height)


def train_anticipation_model(
    training_set: TrainingSet,
    gap: int,
    *,
    epochs: int = DEFAULT_TRAIN_EPOCHS,
) -> AnticipationModel:
    """Fit the linear predictor by ``epochs`` steps of full-batch gradient
    descent at the fixed rate ``_LEARNING_RATE``.

    Features are standardized with statistics from the training set
    (constant columns get unit scale). Weights start at zero; the problem is
    convex so no restarts or stochasticity are needed. No loss is recorded:
    :func:`anticipation_loss` gives it for any predictions.

    Raises:
        ValueError: when the training set has no positive rows or ``epochs``
            is not an integer of at least 1.
    """
    if training_set.num_positive == 0:
        raise ValueError("cannot train without positive samples")
    _check_count("epochs", epochs, 1)
    feats = training_set.features
    mean = feats.mean(axis=0)
    scale = feats.std(axis=0)
    scale = np.where(scale < 1e-8, 1.0, scale)
    phi = (feats - mean) / scale
    targets = training_set.targets
    positive = training_set.positive.astype(np.float64)

    weights = np.zeros((4, FEATURE_DIM))
    bias = np.zeros(4)
    for _ in range(epochs):
        grad_pred = _loss_grad(phi @ weights.T + bias, targets, positive)  # (N, 4)
        weights -= _LEARNING_RATE * grad_pred.T @ phi
        bias -= _LEARNING_RATE * grad_pred.sum(axis=0)
    return AnticipationModel(
        weights=weights, bias=bias, gap=gap, feature_mean=mean, feature_scale=scale
    )


def _anticipates(anticipator: Union[str, AnticipationModel]) -> bool:
    """Whether ``anticipator`` predicts any box; only a model, ``"none"`` or
    ``"non-motion"`` is accepted.

    A model is recognised by its type, so its arrays are never compared.
    """
    if isinstance(anticipator, AnticipationModel):
        return True
    if anticipator not in (STRATEGY_NONE, STRATEGY_NON_MOTION):
        raise ValueError(
            f"anticipator must be a model, {STRATEGY_NONE!r} or "
            f"{STRATEGY_NON_MOTION!r}, got {anticipator!r}"
        )
    return anticipator != STRATEGY_NONE


def anticipate(
    strategy: Union[str, AnticipationModel],
    detections: Sequence[tuple[BoundingBox, Motion]],
    *,
    image_width: float,
    image_height: float,
) -> list[BoundingBox]:
    """Predict future boxes for a set of detections.

    ``strategy`` is a trained :class:`AnticipationModel` or one of the
    strings ``"none"`` (returns no boxes) and ``"non-motion"`` (returns the
    current boxes unchanged, i.e. a zero-motion assumption). Degenerate
    boxes are skipped; outputs are clipped to the image.
    """
    if not _anticipates(strategy):
        return []
    kept = [(box, motion) for box, motion in detections if box.width > 0.0 and box.height > 0.0]
    if isinstance(strategy, str):  # "non-motion"
        return [clip(box, image_width, image_height) for box, _ in kept]
    return [
        strategy.predict_box(box, motion, image_width, image_height) for box, motion in kept
    ]


def augment_proposals(
    proposals: Sequence[BoundingBox], anticipated: Sequence[BoundingBox]
) -> list[BoundingBox]:
    """Append anticipated boxes to a proposal set, skipping exact duplicates.

    Existing proposals are kept untouched and in order; an anticipated box
    is added only if its corner tuple is not already present.
    """
    out = list(proposals)
    seen = {box.as_tuple() for box in proposals}
    for box in anticipated:
        key = box.as_tuple()
        if key in seen:
            continue
        seen.add(key)
        out.append(box)
    return out
