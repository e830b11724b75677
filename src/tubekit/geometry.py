"""Axis-aligned bounding box arithmetic.

Boxes use the continuous ``(x1, y1, x2, y2)`` corner convention with
``area = (x2 - x1) * (y2 - y1)`` and no pixel-center correction. Regression
offsets follow the standard R-CNN parameterization: center shifts normalized
by the source box size plus log scale ratios.

Everything here is a pure function on immutable values, so all operations
are safe for unrestricted parallel use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral
from typing import Optional, Sequence

import numpy as np

# decode_delta rejects scale offsets beyond this bound instead of silently
# producing enormous boxes
MAX_SCALE_DELTA = 10.0

# a box's center displacement from the previous frame, (dx, dy)
Motion = tuple[float, float]

# box pairs per _iou_arrays call where link scoring and _edge_ious score a
# flat list of pairs: bounds the kernel's temporaries
_EDGE_BLOCK = 4096


def _check_integer(name: str, value) -> None:
    """Reject a count, frame number or seed that is not an integer (bools included)."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def _check_count(name: str, value, minimum: int = 0) -> None:
    """Reject a count, frame number, class id or seed that is not an integer >= ``minimum``."""
    _check_integer(name, value)
    if value < minimum:
        bound = "non-negative" if minimum == 0 else f"at least {minimum}"
        raise ValueError(f"{name} must be {bound}")


def _check_corners(x1, y1, x2, y2) -> None:
    """Reject a non-finite corner, naming the first, then inverted corners."""
    for name, value in (("x1", x1), ("y1", y1), ("x2", x2), ("y2", y2)):
        if not math.isfinite(value):
            raise ValueError(f"box coordinate {name} must be finite")
    if x2 < x1 or y2 < y1:
        raise ValueError(f"invalid box corners ({x1}, {y1}, {x2}, {y2})")


@dataclass(frozen=True, slots=True)
class BoundingBox:
    """Axis-aligned box with ``x2 >= x1`` and ``y2 >= y1``."""

    x1: float
    y1: float
    x2: float
    y2: float

    def __init__(self, x1: float, y1: float, x2: float, y2: float) -> None:
        # four finite built-in floats in order pass one comparison chain;
        # anything else (ints, numpy scalars, NaN, huge ints, strings) runs the
        # full checks, whose math.isfinite raises TypeError or OverflowError
        if not (
            type(x1) is type(y1) is type(x2) is type(y2) is float
            and -math.inf < x1 <= x2 < math.inf
            and -math.inf < y1 <= y2 < math.inf
        ):
            _check_corners(x1, y1, x2, y2)
        _set_x1(self, x1)
        _set_y1(self, y1)
        _set_x2(self, x2)
        _set_y2(self, y2)

    @property
    def width(self) -> float:
        return self.x2 - self.x1

    @property
    def height(self) -> float:
        return self.y2 - self.y1

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def center(self) -> tuple[float, float]:
        return (self.x1 + self.x2) / 2.0, (self.y1 + self.y2) / 2.0

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.x1, self.y1, self.x2, self.y2)


# the slot descriptors' setters write a frozen instance's fields once, in __init__
_set_x1 = BoundingBox.x1.__set__
_set_y1 = BoundingBox.y1.__set__
_set_x2 = BoundingBox.x2.__set__
_set_y2 = BoundingBox.y2.__set__


@dataclass(frozen=True)
class BoxDelta:
    """Box regression offsets.

    ``tx, ty`` are center shifts normalized by the source width/height and
    ``tw, th`` are log ratios of target size over source size.
    """

    tx: float
    ty: float
    tw: float
    th: float

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.tx, self.ty, self.tw, self.th)


def box_from_center(cx: float, cy: float, w: float, h: float) -> BoundingBox:
    """The ``w`` by ``h`` box centered on ``(cx, cy)``."""
    return BoundingBox(cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2)


def iou(a: BoundingBox, b: BoundingBox) -> float:
    """Intersection over union of two boxes.

    Returns 0.0 when the union has zero area (both boxes degenerate).
    """
    # the operations of max/min and ``area``, written out: this runs once
    # per Viterbi edge
    ax1, ay1, ax2, ay2 = a.x1, a.y1, a.x2, a.y2
    bx1, by1, bx2, by2 = b.x1, b.y1, b.x2, b.y2
    iw = (bx2 if bx2 < ax2 else ax2) - (bx1 if bx1 > ax1 else ax1)
    ih = (by2 if by2 < ay2 else ay2) - (by1 if by1 > ay1 else ay1)
    inter = (iw if iw > 0.0 else 0.0) * (ih if ih > 0.0 else 0.0)
    union = (ax2 - ax1) * (ay2 - ay1) + (bx2 - bx1) * (by2 - by1) - inter
    if union <= 0.0:
        return 0.0
    return inter / union


def boxes_to_array(boxes: Sequence[BoundingBox]) -> np.ndarray:
    """Stack boxes into an ``(N, 4)`` float array."""
    if not boxes:
        return np.zeros((0, 4), dtype=np.float64)
    return np.array([b.as_tuple() for b in boxes], dtype=np.float64)


def _iou_arrays(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """IoU of every row of ``a`` (..., N, 4) against every row of ``b`` (..., M, 4).

    Leading axes broadcast to (..., N, M). Entries with zero union area are 0.
    """
    lt = np.maximum(a[..., :, None, :2], b[..., None, :, :2])
    rb = np.minimum(a[..., :, None, 2:], b[..., None, :, 2:])
    wh = np.clip(rb - lt, 0.0, None)
    inter = wh[..., 0] * wh[..., 1]
    area_a = (a[..., 2] - a[..., 0]) * (a[..., 3] - a[..., 1])
    area_b = (b[..., 2] - b[..., 0]) * (b[..., 3] - b[..., 1])
    union = area_a[..., :, None] + area_b[..., None, :] - inter
    out = np.zeros_like(inter)
    np.divide(inter, union, out=out, where=union > 0)
    return out


def _edge_ious(a: np.ndarray, b: np.ndarray, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """IoU of ``a[src[k]]`` with ``b[dst[k]]`` for every edge ``k``, through the
    batch kernel in blocks of ``_EDGE_BLOCK`` edges."""
    out = np.empty(len(src))
    for lo in range(0, len(src), _EDGE_BLOCK):
        block = slice(lo, lo + _EDGE_BLOCK)
        out[block] = _iou_arrays(a[src[block], None], b[dst[block], None])[:, 0, 0]
    return out


def iou_matrix(boxes_a: Sequence[BoundingBox], boxes_b: Sequence[BoundingBox]) -> np.ndarray:
    """Pairwise IoU matrix of shape ``(len(boxes_a), len(boxes_b))``.

    Entries with zero union area are 0.
    """
    return _iou_arrays(boxes_to_array(boxes_a), boxes_to_array(boxes_b))


def encode_delta(source: BoundingBox, target: BoundingBox) -> BoxDelta:
    """Encode ``target`` relative to ``source``.

    ``tx = (tcx - scx) / sw``, ``ty = (tcy - scy) / sh``,
    ``tw = log(tw_ / sw)``, ``th = log(th_ / sh)``.

    Raises:
        ValueError: if either box has zero width or height (the log ratio
            and center normalization are undefined).
    """
    sw, sh = source.width, source.height
    if sw <= 0.0 or sh <= 0.0:
        raise ValueError("source box must have strictly positive size")
    tw_, th_ = target.width, target.height
    if tw_ <= 0.0 or th_ <= 0.0:
        raise ValueError("target box must have strictly positive size")
    scx, scy = source.center
    tcx, tcy = target.center
    return BoxDelta(
        (tcx - scx) / sw,
        (tcy - scy) / sh,
        math.log(tw_ / sw),
        math.log(th_ / sh),
    )


def decode_delta(source: BoundingBox, delta: BoxDelta) -> BoundingBox:
    """Apply regression offsets to ``source``; exact inverse of :func:`encode_delta`.

    Raises:
        ValueError: if the source is degenerate or ``|tw|``/``|th|`` exceeds
            ``MAX_SCALE_DELTA`` (exp overflow guard).
    """
    sw, sh = source.width, source.height
    if sw <= 0.0 or sh <= 0.0:
        raise ValueError("source box must have strictly positive size")
    if abs(delta.tw) > MAX_SCALE_DELTA or abs(delta.th) > MAX_SCALE_DELTA:
        raise ValueError(
            f"scale offset out of range (+-{MAX_SCALE_DELTA}): ({delta.tw}, {delta.th})"
        )
    scx, scy = source.center
    cx = scx + delta.tx * sw
    cy = scy + delta.ty * sh
    w = math.exp(delta.tw) * sw
    h = math.exp(delta.th) * sh
    return box_from_center(cx, cy, w, h)


def _clipped_corners(
    box: BoundingBox, width: float, height: float
) -> tuple[float, float, float, float]:
    """``box``'s corners clamped to ``[0, width] x [0, height]``.

    Each corner is ``min(max(v, 0.0), float(width))`` (or ``height``)
    written out, with the same ties and result types.
    """
    if width <= 0 or height <= 0:
        raise ValueError("image dimensions must be positive")
    w, h = float(width), float(height)
    x1, y1, x2, y2 = box.x1, box.y1, box.x2, box.y2
    x1 = 0.0 if 0.0 > x1 else x1
    y1 = 0.0 if 0.0 > y1 else y1
    x2 = 0.0 if 0.0 > x2 else x2
    y2 = 0.0 if 0.0 > y2 else y2
    return (
        w if w < x1 else x1,
        h if h < y1 else y1,
        w if w < x2 else x2,
        h if h < y2 else y2,
    )


def clip(box: BoundingBox, width: float, height: float) -> BoundingBox:
    """Clamp box corners to the image rectangle ``[0, width] x [0, height]``.

    A box fully outside becomes a zero-area box on the boundary.
    """
    return BoundingBox(*_clipped_corners(box, width, height))


def clip_visible(box: BoundingBox, width: float, height: float) -> Optional[BoundingBox]:
    """``box`` clipped to the image; None if nothing of it is left."""
    x1, y1, x2, y2 = _clipped_corners(box, width, height)
    if (x2 - x1) * (y2 - y1) > 0:
        return BoundingBox(x1, y1, x2, y2)
    return None


def nms(dets: Sequence[tuple[BoundingBox, float]], threshold: float) -> list[int]:
    """Greedy non-maximum suppression.

    Boxes are visited in descending score order (ties broken by original
    index); a box is suppressed when its IoU with an already kept box
    exceeds ``threshold``.

    Returns:
        Indices of kept entries, in descending score order.
    """
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"nms threshold must be in [0, 1], got {threshold}")
    boxes = boxes_to_array([b for b, _ in dets])
    scores = np.array([s for _, s in dets], dtype=np.float64)
    n = len(dets)
    # primary key: score descending; secondary: original index ascending
    order = np.lexsort((np.arange(n), -scores))
    suppressed = np.zeros(n, dtype=bool)
    kept: list[int] = []
    for idx in order:
        if suppressed[idx]:
            continue
        kept.append(int(idx))
        suppressed |= _iou_arrays(boxes[idx : idx + 1], boxes)[0] > threshold
    return kept
