"""Temporal trimming of action tubes.

Linked tubes span every frame their actor was detected on, which usually
overshoots the actual action interval. Trimming picks the sub-interval that
maximizes the mean link score minus a penalty for deviating from the
class's typical duration::

    objective(s, e) = mean(link[s .. e-1]) - penalty(e - s)

where ``s`` and ``e`` are frame offsets within the tube (frames ``s..e``
inclusive, ``e - s`` links) and the typical duration is likewise measured
in links. The penalty is ``|(e-s) - avg| / avg`` by default, or the signed
variant ``((e-s) - avg) / avg`` which rewards intervals shorter than
average. All O(n^2) intervals are scored exactly; ties prefer the earliest
start, then the earliest end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .linking import ActionTube, LinkingParams, tube_link_scores

PENALTY_ABSOLUTE = "absolute"
PENALTY_SIGNED = "signed"
PENALTY_MODES = (PENALTY_ABSOLUTE, PENALTY_SIGNED)

# starts scored per array pass in trim_interval; memory is O(block * n)
_TRIM_BLOCK = 64


@dataclass(frozen=True)
class TrimmingParams:
    """Per-class typical duration (in links) and the penalty flavor."""

    avg_length: Mapping[int, float]
    penalty_mode: str = PENALTY_ABSOLUTE

    def __post_init__(self) -> None:
        if self.penalty_mode not in PENALTY_MODES:
            raise ValueError(
                f"penalty_mode must be one of {PENALTY_MODES}, got {self.penalty_mode!r}"
            )
        for class_id, avg in self.avg_length.items():
            if not 0 < avg < math.inf:
                raise ValueError(
                    f"average length for class {class_id} must be finite and positive, "
                    f"got {avg}"
                )


def avg_class_length(tubes: Sequence[ActionTube]) -> dict[int, float]:
    """Mean tube duration per class, measured in links (frames minus one).

    Single-frame tubes contribute zero; a class whose tubes are all
    single-frame ends up with average 0, which :class:`TrimmingParams`
    rejects — such a class carries no usable duration signal.
    """
    sums: dict[int, float] = {}
    counts: dict[int, int] = {}
    for tube in tubes:
        sums[tube.class_id] = sums.get(tube.class_id, 0.0) + (tube.length - 1)
        counts[tube.class_id] = counts.get(tube.class_id, 0) + 1
    return {c: sums[c] / counts[c] for c in sums}


def _penalty(num_links: np.ndarray, avg: float, mode: str) -> np.ndarray:
    dev = (num_links - avg) / avg
    return abs(dev) if mode == PENALTY_ABSOLUTE else dev


def trim_interval(
    link_scores: Sequence[float], avg_links: float, penalty_mode: str = PENALTY_ABSOLUTE
) -> tuple[tuple[int, int], float]:
    """Best frame interval ``(s, e)`` for a list of per-link scores.

    The interval keeps frames ``s..e`` inclusive, i.e. links
    ``link_scores[s:e]``; every interval with at least one link is scored.

    Returns:
        ``((s, e), objective)`` with ties resolved toward the earliest
        start, then the earliest end.

    Raises:
        ValueError: on an empty or non-finite score list, or a non-finite or
            non-positive ``avg_links``.
    """
    n = len(link_scores)
    if n == 0:
        raise ValueError("need at least one link score to trim")
    if not 0 < avg_links < math.inf:
        raise ValueError("average length must be finite and positive")
    if penalty_mode not in PENALTY_MODES:
        raise ValueError(f"penalty_mode must be one of {PENALTY_MODES}")
    scores = np.asarray(link_scores, dtype=np.float64)
    if not np.isfinite(scores).all():
        raise ValueError("link scores must be finite")
    lengths = np.arange(1, n + 1)
    penalties = _penalty(lengths, avg_links, penalty_mode)
    # row s: the scores from start s on, zero-padded past the tube's end; a
    # row-wise cumsum adds each window left to right, as a running window sum
    # would
    windows = sliding_window_view(np.concatenate([scores, np.zeros(n - 1)]), n)
    # past_end[i, b + k]: the window of start b + i and k + 1 links runs past
    # the last link; masked after the sum, as -inf padding would turn a window
    # sum that overflowed to inf into NaN
    past_end = np.add.outer(np.arange(min(_TRIM_BLOCK, n)), np.arange(n)) >= n
    best_interval = (0, 1)
    best_obj = -float("inf")
    for b in range(0, n, _TRIM_BLOCK):
        # row i: the windows of start b + i, none longer than n - b links
        width = n - b
        objs = np.cumsum(windows[b : b + _TRIM_BLOCK, :width], axis=1)
        objs /= lengths[:width]
        objs -= penalties[:width]
        np.copyto(objs, -np.inf, where=past_end[: len(objs), b:])
        # the flat argmax is the earliest start, then the earliest end
        i, k = divmod(int(np.argmax(objs)), width)
        if objs[i, k] > best_obj:
            best_obj = objs[i, k]
            best_interval = (b + i, b + i + k + 1)
    return best_interval, float(best_obj)


def trim_tube(
    tube: ActionTube,
    params: TrimmingParams,
    link_params: LinkingParams = LinkingParams(),
) -> ActionTube:
    """Trim one tube to its best-scoring sub-interval.

    Link scores are recomputed from the tube's own boxes and scores using
    ``link_params``, and the tube keeps the frames of the interval that
    :func:`trim_interval` picks for them; its other fields are unchanged.

    Raises:
        ValueError: for single-frame tubes (no links to score) or when
            ``params`` lacks the tube's class.
    """
    if tube.length < 2:
        raise ValueError("cannot trim a single-frame tube; it has no links")
    if tube.class_id not in params.avg_length:
        raise ValueError(f"no average length configured for class {tube.class_id}")
    scores = tube_link_scores(tube, link_params)
    (s, e), _ = trim_interval(scores, params.avg_length[tube.class_id], params.penalty_mode)
    return replace(
        tube,
        start_frame=tube.start_frame + s,
        boxes=tube.boxes[s : e + 1],
        scores=tube.scores[s : e + 1],
    )


def trim_tubes(
    tubes: Sequence[ActionTube],
    params: TrimmingParams,
    link_params: LinkingParams = LinkingParams(),
) -> list[ActionTube]:
    """Trim a batch of tubes; single-frame tubes pass through untouched."""
    return [tube if tube.length < 2 else trim_tube(tube, params, link_params) for tube in tubes]
