"""Box-motion anticipation: predict where a box will be a few frames ahead.

A small linear model maps a detection's normalized geometry and motion
descriptor to box-regression offsets targeting the matching object ``gap``
frames later. Predicted boxes are injected as extra proposal candidates so
the proposal stage keeps tracking objects that moved.

The training objective is a smooth L1 (Huber) regression loss averaged over
the whole batch but accumulated only on positive samples. The model is
linear and the loss is a sum over the four outputs, so each output's six
weights and bias are fitted on their own, to the minimum of a convex,
piecewise quadratic function. Each solver step is a Newton step on the
rows inside the quadratic zone (Huber, "Robust Estimation of a Location
Parameter", 1964), which lands on the minimum once that zone stops
changing, usually after two or three steps. Where the Newton point does not
lower the loss (no row in the zone, a rank-deficient zone, or a zone that
changes under the step), the step goes to the iteratively reweighted
least-squares point instead (Holland & Welsch, "Robust regression using
iteratively reweighted least-squares", 1977), which lowers the loss
everywhere but at the minimum. The solve stops when neither point lowers it.

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
    boxes_to_array,
    clip,
    decode_delta,
    encode_delta,
)
from .proposals import _assign_frames

FEATURE_DIM = 6
# the most solver steps per output; a study fit reaches the minimum in a few
# steps, so the cap bounds degenerate data rather than shaping the answer
DEFAULT_TRAIN_EPOCHS = 1000

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
    predictions, targets, positive = _checked_loss_args(predictions, targets, positive)
    return positive[:, None] / predictions.shape[0] * smooth_l1_grad(predictions - targets)


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


def _check_finite_arrays(**arrays: np.ndarray) -> None:
    """Reject the first named array holding a NaN or an infinity."""
    for name, values in arrays.items():
        if not np.isfinite(values).all():
            raise ValueError(f"{name} must be finite")


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
        _check_finite_arrays(features=self.features, targets=self.targets)
        if self.positive.dtype != np.bool_:
            raise ValueError(f"positive must be a boolean mask, got dtype {self.positive.dtype}")

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

    Each detection with a positive size becomes one row, in input order; it
    is positive when IoU-matched to a future box of its pair (the usual
    thresholding plus a best-candidate override that keeps every future box
    matched to its highest-IoU detection, so slow overlap decay at long gaps
    cannot starve training of positives). One pass of
    ``proposals._assign_frames``, which states the rule, labels every pair's
    detections, degenerate ones included, against that pair's future boxes.
    The regression target for a positive row encodes the matched future box
    relative to the detection box.
    """
    pairs = list(frame_pairs)
    rows = [(box, motion, future) for detections, future in pairs for box, motion in detections]
    labels, matched_gt, _ = _assign_frames(
        boxes_to_array([box for box, _, _ in rows]),
        [len(detections) for detections, _ in pairs],
        boxes_to_array([box for _, future in pairs for box in future]),
        [len(future) for _, future in pairs],
    )
    feats: list[np.ndarray] = []
    targets: list[tuple[float, float, float, float]] = []
    positive: list[bool] = []
    for (box, motion, future), label, j in zip(rows, labels.tolist(), matched_gt.tolist()):
        if box.width <= 0.0 or box.height <= 0.0:
            continue
        feats.append(feature_vector(box, motion, image_width, image_height))
        positive.append(label == 1)
        targets.append(encode_delta(box, future[j]).as_tuple() if label == 1 else (0.0,) * 4)
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
        _check_finite_arrays(
            weights=self.weights,
            bias=self.bias,
            feature_mean=self.feature_mean,
            feature_scale=self.feature_scale,
        )
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


def _fit_output(
    design: np.ndarray, targets: np.ndarray, positive: np.ndarray, max_steps: int
) -> np.ndarray:
    """Parameters minimizing ``sum(positive * smooth_l1(design @ params - targets))``.

    Starting from zero, each step moves to the Newton point, which weighs
    only the positive rows with residual inside ``(-1, 1)``, or, when that
    does not lower the loss, to the iteratively reweighted least-squares
    point, which weighs each positive row by ``1 / max(|residual|, 1)``.
    ``lstsq`` solves both 7 x 7 normal equations, so a rank-deficient one
    still gives a step. At most ``max_steps`` steps are taken; the solve
    stops earlier when neither point lowers the loss.
    """
    params = np.zeros(design.shape[1])
    residual = -targets
    loss = positive @ smooth_l1(residual)
    for _ in range(max_steps):
        grad = (positive * smooth_l1_grad(residual)) @ design
        magnitude = np.abs(residual)
        for weight in (positive * (magnitude < 1.0), positive / np.maximum(magnitude, 1.0)):
            trial = params - np.linalg.lstsq((design.T * weight) @ design, grad)[0]
            trial_residual = design @ trial - targets
            trial_loss = positive @ smooth_l1(trial_residual)
            if trial_loss < loss:
                break
        else:
            break
        params, residual, loss = trial, trial_residual, trial_loss
    return params


def train_anticipation_model(
    training_set: TrainingSet,
    gap: int,
    *,
    epochs: int = DEFAULT_TRAIN_EPOCHS,
) -> AnticipationModel:
    """Fit the linear predictor to the minimum of :func:`anticipation_loss`.

    Features are standardized with statistics from the training set
    (constant columns get unit scale). Each of the four outputs is solved
    by :func:`_fit_output` from zero weights in at most ``epochs`` steps;
    the problem is convex, so no restarts or stochasticity are needed. No
    loss is recorded: :func:`anticipation_loss` gives it for any
    predictions.

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
    # standardized features and a bias column, one row per sample: (N, 7)
    design = np.hstack([(feats - mean) / scale, np.ones((feats.shape[0], 1))])
    positive = training_set.positive.astype(np.float64)
    params = np.array(
        [_fit_output(design, column, positive, epochs) for column in training_set.targets.T]
    )
    return AnticipationModel(
        weights=params[:, :FEATURE_DIM],
        bias=params[:, FEATURE_DIM],
        gap=gap,
        feature_mean=mean,
        feature_scale=scale,
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
