"""Linking per-frame detections into action tubes.

Consecutive-frame detections of one class are chained by dynamic
programming. The weight of a link between detections ``a`` (frame t) and
``b`` (frame t+1) is::

    (1 - beta) * (score(a) + score(b)) + beta * iou(a, b)

so a path trades off detection confidence against spatial continuity;
``beta`` defaults to 0.7. The best path per run of frames is extracted, its
detections removed, and the process repeats until a score floor or a tube
cap is hit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import add
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .geometry import BoundingBox, _check_count, _group_pairs, boxes_to_array, iou

DEFAULT_MAX_TUBES_PER_CLASS = 10
DEFAULT_MIN_MEAN_LINK_SCORE = 0.1


def _check_detection(class_id, score) -> None:
    """Reject a bool (built-in or numpy) or out-of-range score, then a class id
    that is not a natural number."""
    if isinstance(score, (bool, np.bool_)):
        raise ValueError(f"detection score must be a number, got {score!r}")
    if not 0.0 <= score <= 1.0:
        raise ValueError(f"detection score must be in [0, 1], got {score}")
    _check_count("class_id", class_id)


@dataclass(frozen=True, slots=True)
class Detection:
    """A scored, classified box on a single frame.

    ``motion`` optionally carries the observed center displacement from the
    previous frame (used by anticipation, ignored by linking itself).
    """

    box: BoundingBox
    class_id: int
    score: float
    motion: Optional[tuple[float, float]] = None

    def __init__(
        self,
        box: BoundingBox,
        class_id: int,
        score: float,
        motion: Optional[tuple[float, float]] = None,
    ) -> None:
        # a built-in int class and float score in range pass one test; the
        # full checks run otherwise
        if not (
            type(class_id) is int
            and class_id >= 0
            and type(score) is float
            and 0.0 <= score <= 1.0
        ):
            _check_detection(class_id, score)
        _set_box(self, box)
        _set_class_id(self, class_id)
        _set_score(self, score)
        _set_motion(self, motion)


# the slot descriptors' setters write a frozen instance's fields once, in __init__
_set_box = Detection.box.__set__
_set_class_id = Detection.class_id.__set__
_set_score = Detection.score.__set__
_set_motion = Detection.motion.__set__


@dataclass(frozen=True)
class FrameDetections:
    """All detections on one frame."""

    frame_index: int
    detections: tuple[Detection, ...]

    def __post_init__(self) -> None:
        _check_count("frame_index", self.frame_index)


@dataclass(frozen=True)
class LinkingParams:
    """Weights for the link score; ``beta`` balances overlap vs confidence."""

    beta: float = 0.7

    def __post_init__(self) -> None:
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError(f"beta must be in [0, 1], got {self.beta}")


@dataclass(frozen=True)
class ActionTube:
    """A per-frame box sequence for one action instance.

    Covers the inclusive frame range ``[start_frame, end_frame]`` with one
    box and one score per frame.
    """

    class_id: int
    start_frame: int
    boxes: tuple[BoundingBox, ...]
    scores: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.boxes:
            raise ValueError("a tube needs at least one frame")
        if len(self.boxes) != len(self.scores):
            raise ValueError("boxes and scores must align one per frame")
        _check_count("start_frame", self.start_frame)
        _check_count("class_id", self.class_id)

    @property
    def end_frame(self) -> int:
        return self.start_frame + len(self.boxes) - 1

    @property
    def length(self) -> int:
        return len(self.boxes)

    @property
    def tube_score(self) -> float:
        return math.fsum(self.scores) / len(self.scores)


def tube_order(tube: ActionTube) -> tuple[int, int, float]:
    """Sort key of tube lists: class, then start frame, then score descending."""
    return (tube.class_id, tube.start_frame, -tube.tube_score)


def _link_score(score_a, score_b, overlap, beta: float):
    """The link score formula of the module docstring, on floats or on arrays."""
    return (1.0 - beta) * (score_a + score_b) + beta * overlap


def linking_score(a: Detection, b: Detection, params: LinkingParams) -> float:
    """Edge weight between same-class detections on consecutive frames.

    Raises:
        ValueError: when the detections disagree on class.
    """
    if a.class_id != b.class_id:
        raise ValueError(
            f"cannot link detections of different classes ({a.class_id} vs {b.class_id})"
        )
    return _link_score(a.score, b.score, iou(a.box, b.box), params.beta)


def tube_link_scores(tube: ActionTube, params: LinkingParams) -> list[float]:
    """Link score of each consecutive frame pair along a tube (length - 1 values)."""
    boxes, scores = tube.boxes, tube.scores
    return [
        _link_score(scores[i], scores[i + 1], iou(boxes[i], boxes[i + 1]), params.beta)
        for i in range(len(boxes) - 1)
    ]


def _best_path(
    frames: Sequence[Sequence[Detection]], row: Callable[[int, int], list[float]]
) -> tuple[list[int], float]:
    """:func:`viterbi_link`'s search; ``row(t, i)`` returns the link scores from
    ``frames[t][i]`` to each candidate of ``frames[t + 1]``."""
    n_frames = len(frames)
    if n_frames == 1:
        # no links; fall back to confidence, lowest index on ties (the first maximum)
        best = max(range(len(frames[0])), key=lambda i: frames[0][i].score)
        return [best], frames[0][best].score

    # value[t][j]: best achievable sum of link scores from frame t to the end,
    # starting at candidate j; filled back to front
    value: list[list[float]] = [[]] * (n_frames - 1) + [[0.0] * len(frames[-1])]
    for t in range(n_frames - 2, -1, -1):
        value[t] = [max(map(add, row(t, i), value[t + 1])) for i in range(len(frames[t]))]

    # walk forward, preferring the lowest index among optimal continuations
    # (max and index find the first maximum)
    start = value[0].index(max(value[0]))
    path = [start]
    for t in range(n_frames - 1):
        cands = list(map(add, row(t, path[-1]), value[t + 1]))
        path.append(cands.index(max(cands)))
    return path, value[0][start]


def viterbi_link(
    frames: Sequence[Sequence[Detection]], params: LinkingParams
) -> tuple[list[int], float]:
    """Best path through per-frame candidate lists.

    ``frames[t]`` holds the candidates for the t-th consecutive frame; every
    frame must offer at least one. The returned path maximizes the summed
    link score over consecutive pairs; among equally good paths the
    lexicographically smallest index sequence wins. The score of a
    single-frame path is the chosen detection's own score (there are no
    links to sum).

    Returns:
        ``(indices, total)`` where ``indices[t]`` selects from ``frames[t]``.
    """
    if not frames:
        raise ValueError("cannot link an empty frame sequence")
    for t, frame in enumerate(frames):
        if not frame:
            raise ValueError(f"frame {t} has no candidate detections")
    if len(frames) == 1 and len({det.class_id for det in frames[0]}) > 1:
        # no pairs: raise linking_score's error against the first detection
        for det in frames[0]:
            linking_score(frames[0][0], det, params)

    def row(t: int, i: int) -> list[float]:
        # linking_score raises on the first mismatched pair the search meets
        return [linking_score(frames[t][i], det, params) for det in frames[t + 1]]

    return _best_path(frames, row)


def _link_rows(remaining: dict[int, list[Detection]], beta: float) -> dict[int, list[list[float]]]:
    """``rows[f][i][j]``: the link score of ``remaining[f][i]`` to ``remaining[f + 1][j]``.

    Each consecutive-frame pair is scored once, in one pass (see
    :func:`geometry._group_pairs`).
    """
    frames = sorted(remaining)
    dets = [det for f in frames for det in remaining[f]]
    counts = [len(remaining[f]) for f in frames]
    boxes = boxes_to_array([det.box for det in dets])
    scores = np.array([det.score for det in dets], dtype=np.float64)
    # the detections on a frame after one of the class, in frame order: frame
    # f's other rows are frame f + 1's detections
    follows = np.repeat([f - 1 in remaining for f in frames], counts)
    widths, first, src, _, dst, overlap = _group_pairs(
        boxes, counts, boxes[follows], [len(remaining.get(f + 1, ())) for f in frames]
    )
    flat = _link_score(scores[src], scores[follows][dst], overlap, beta).tolist()
    rows = iter([flat[i : i + w] for i, w in zip(first.tolist(), widths.tolist())])
    return {f: [next(rows) for _ in remaining[f]] for f in frames}


def _runs(frame_indices: Iterable[int]) -> list[list[int]]:
    """Split sorted frame indices into maximal consecutive runs."""
    runs: list[list[int]] = []
    for idx in sorted(frame_indices):
        if runs and idx == runs[-1][-1] + 1:
            runs[-1].append(idx)
        else:
            runs.append([idx])
    return runs


def extract_tubes(
    video: Sequence[FrameDetections],
    params: LinkingParams = LinkingParams(),
    *,
    max_tubes_per_class: int = DEFAULT_MAX_TUBES_PER_CLASS,
    min_mean_link_score: float = DEFAULT_MIN_MEAN_LINK_SCORE,
) -> list[ActionTube]:
    """Iteratively pull the best tubes out of a video's detections.

    Per class, detections are grouped into maximal runs of consecutive
    frames (a frame with no detection of the class breaks the run). The
    best path over any run — ranked by mean per-link score so a strong long
    tube always beats stray single-frame noise — is extracted and its
    detections are removed; only the run it split is solved again. A class
    stops when no run is left, when the best remaining path drops below
    ``min_mean_link_score``, or when it has ``max_tubes_per_class`` tubes.

    Output is sorted by (class, start frame, score descending).
    """
    _check_count("max_tubes_per_class", max_tubes_per_class, 1)
    if math.isnan(min_mean_link_score):
        raise ValueError("min_mean_link_score must not be NaN")
    # class -> frame index -> that frame's detections of the class
    by_class: dict[int, dict[int, list[Detection]]] = {}
    seen_frames = set()
    for fd in video:
        if fd.frame_index in seen_frames:
            raise ValueError(f"duplicate frame_index {fd.frame_index}")
        seen_frames.add(fd.frame_index)
        for det in fd.detections:
            by_class.setdefault(det.class_id, {}).setdefault(fd.frame_index, []).append(det)

    tubes: list[ActionTube] = []
    for class_id, remaining in sorted(by_class.items()):
        links = _link_rows(remaining, params.beta)

        def solve(run: list[int]) -> tuple[float, int, list[int], list[int]]:
            path, total = _best_path([remaining[f] for f in run], lambda t, i: links[run[t]][i])
            mean_link = total if len(run) == 1 else total / (len(run) - 1)
            return -mean_link, run[0], run, path

        # one entry per unsolved run: (-mean link score, first frame, run, path)
        candidates = [solve(run) for run in _runs(remaining)]
        emitted = 0
        while candidates and emitted < max_tubes_per_class:
            # strongest path first; a class's runs are disjoint, so the first
            # frame settles ties
            best = min(candidates, key=lambda c: c[:2])
            neg_mean, _, run, path = best
            if -neg_mean < min_mean_link_score:
                break  # every remaining path is at least as weak
            candidates.remove(best)
            chosen = [remaining[f].pop(j) for f, j in zip(run, path)]
            for f, j in zip(run, path):  # the chosen leave their rows and columns too
                del links[f][j]
                for row in links.get(f - 1, ()):
                    del row[j]
            boxes = tuple(d.box for d in chosen)
            scores = tuple(d.score for d in chosen)
            tubes.append(ActionTube(class_id=class_id, start_frame=run[0], boxes=boxes, scores=scores))
            emitted += 1
            # only the run just split changes: re-solve its non-empty sub-runs
            candidates += map(solve, _runs(f for f in run if remaining[f]))
    tubes.sort(key=tube_order)
    return tubes
