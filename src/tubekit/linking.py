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

# links per linked frame pair (see _links_per_frame_pair) from which a class
# is solved on link-score arrays instead of Python row lists. On a 2-vCPU
# Xeon VM (CPython 3.11, NumPy 2.4) one backward step on a frame pair takes
# the lists about 0.6 us at 1 link, 2.4 us at 25 and 9.8 us at 169, and numpy
# a flat 2.3-2.9 us; whole extractions of one-class videos of 100 and 600
# frames, forward walks and removals included, cross between 30 and 36 links
_ARRAY_MIN_LINKS = 32


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


def _link_blocks(remaining: dict[int, list[Detection]], beta: float) -> dict[int, np.ndarray]:
    """Every consecutive-frame link score of a class, in frame order, as
    views of one flat array: ``blocks[f][i, j]`` links ``remaining[f][i]``
    to ``remaining[f + 1][j]``, and a frame with no successor has 0 columns.

    Each pair is scored once, in one pass (see :func:`geometry._group_pairs`).
    """
    frames = sorted(remaining)
    dets = [det for f in frames for det in remaining[f]]
    counts = [len(remaining[f]) for f in frames]
    widths = [len(remaining.get(f + 1, ())) for f in frames]
    boxes = boxes_to_array([det.box for det in dets])
    scores = np.array([det.score for det in dets], dtype=np.float64)
    # the detections on a frame after one of the class, in frame order: frame
    # f's other rows are frame f + 1's detections
    follows = np.repeat([f - 1 in remaining for f in frames], counts)
    _, _, src, _, dst, overlap = _group_pairs(boxes, counts, boxes[follows], widths)
    flat = _link_score(scores[src], scores[follows][dst], overlap, beta)
    blocks, pos = {}, 0
    for f, n, w in zip(frames, counts, widths):
        blocks[f] = flat[pos : pos + n * w].reshape(n, w)
        pos += n * w
    return blocks


def _links_per_frame_pair(blocks: dict[int, np.ndarray]) -> float:
    """A class's links per linked frame pair: the mean size of its
    :func:`_link_blocks` blocks that have a column (0 when none has)."""
    links = [block.size for block in blocks.values() if block.size]
    return sum(links) / len(links) if links else 0.0


class _LinkRows:
    """A class's link scores as Python row lists, solved by :func:`_best_path`.

    ``rows[f][i][j]`` links ``remaining[f][i]`` to ``remaining[f + 1][j]``; a
    taken detection leaves its frame's list, its row and its column.
    """

    def __init__(self, remaining: dict[int, list[Detection]], blocks: dict[int, np.ndarray]) -> None:
        self.remaining = remaining
        self.rows = {f: block.tolist() for f, block in blocks.items()}

    def solve(self, run: list[int]) -> tuple[list[int], float]:
        rows = self.rows
        return _best_path([self.remaining[f] for f in run], lambda t, i: rows[run[t]][i])

    def take(self, run: list[int], path: list[int]) -> tuple[list[Detection], list[int]]:
        """Remove ``path``'s detections from ``run``; return them, and the
        frames of ``run`` that still hold a detection."""
        for f, j in zip(run, path):
            del self.rows[f][j]
            for row in self.rows.get(f - 1, ()):
                del row[j]
        chosen = [self.remaining[f].pop(j) for f, j in zip(run, path)]
        return chosen, [f for f in run if self.remaining[f]]


class _LinkBlocks:
    """A class's link scores as the :func:`_link_blocks` arrays, solved by
    :func:`_best_block_path`.

    A taken detection keeps its place: its row becomes -inf, and so does its
    entry of its frame's offset vector, which holds 0.0 for each remaining
    detection. Only link scores are masked, never detection scores: at beta 1
    the score term is 0.0 * score, and 0.0 * -inf is NaN.
    """

    def __init__(self, remaining: dict[int, list[Detection]], blocks: dict[int, np.ndarray]) -> None:
        self.remaining = remaining
        self.blocks = blocks
        self.left = {f: len(dets) for f, dets in remaining.items()}  # detections not yet taken
        self.offsets = {f: np.zeros(len(dets)) for f, dets in remaining.items()}

    def solve(self, run: list[int]) -> tuple[list[int], float]:
        return _best_block_path(
            [self.remaining[f] for f in run],
            [self.blocks[f] for f in run[:-1]],
            [self.offsets[f] for f in run],
        )

    def take(self, run: list[int], path: list[int]) -> tuple[list[Detection], list[int]]:
        """Mask ``path``'s detections in ``run``; return them, and the frames
        of ``run`` that still hold a detection."""
        left = self.left
        for f, j in zip(run, path):
            self.offsets[f][j] = -math.inf
            self.blocks[f][j] = -math.inf
            left[f] -= 1
        chosen = [self.remaining[f][j] for f, j in zip(run, path)]
        return chosen, [f for f in run if left[f]]


def _best_block_path(
    frames: Sequence[Sequence[Detection]],
    blocks: Sequence[np.ndarray],
    offsets: Sequence[np.ndarray],
) -> tuple[list[int], float]:
    """:func:`_best_path` on link-score arrays, among remaining detections.

    ``blocks[t][i, j]`` is the link score of ``frames[t][i]`` to
    ``frames[t + 1][j]``, or -inf when ``frames[t][i]`` was taken;
    ``offsets[t][i]`` is 0.0 while ``frames[t][i]`` remains and -inf once it
    was taken. Each value is one float64 add followed by a max, and ``argmax``
    finds the first maximum, so path and total equal :func:`_best_path`'s on
    the remaining detections.
    """
    if not blocks:
        # no links; fall back to confidence, lowest index on ties
        best = int((np.array([det.score for det in frames[0]]) + offsets[0]).argmax())
        return [best], frames[0][best].score
    # value[i]: best sum of link scores from frame t to the end, starting at
    # frames[t][i], filled back to front from the last frame's offsets;
    # choices[t][i]: the first optimal continuation of frames[t][i], which is
    # where _best_path's forward walk goes from it
    value, choices = offsets[-1], []
    for block in reversed(blocks):
        sums = block + value
        choices.append(sums.argmax(axis=1))
        value = sums.max(axis=1)
    path = [int(value.argmax())]
    for choice in reversed(choices):
        path.append(int(choice[path[-1]]))
    return path, float(value[path[0]])


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
    detections are removed; only the run it split is solved again, and not
    even that once the class has its last allowed tube. A class stops when
    no run is left, when the best remaining path drops below
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
        blocks = _link_blocks(remaining, params.beta)
        storage = _LinkRows if _links_per_frame_pair(blocks) < _ARRAY_MIN_LINKS else _LinkBlocks
        links: _LinkRows | _LinkBlocks = storage(remaining, blocks)

        def solve(run: list[int]) -> tuple[float, int, list[int], list[int]]:
            path, total = links.solve(run)
            mean_link = total if len(run) == 1 else total / (len(run) - 1)
            return -mean_link, run[0], run, path

        # one entry per unsolved run: (-mean link score, first frame, run, path)
        candidates = [solve(run) for run in _runs(remaining)]
        emitted = 0
        while candidates:
            # strongest path first; a class's runs are disjoint, so the first
            # frame settles ties
            best = min(candidates, key=lambda c: c[:2])
            neg_mean, _, run, path = best
            if -neg_mean < min_mean_link_score:
                break  # every remaining path is at least as weak
            candidates.remove(best)
            chosen, kept = links.take(run, path)
            boxes = tuple(d.box for d in chosen)
            scores = tuple(d.score for d in chosen)
            tubes.append(ActionTube(class_id=class_id, start_frame=run[0], boxes=boxes, scores=scores))
            emitted += 1
            if emitted == max_tubes_per_class:
                break  # the class is done, so the run just split is not solved
            # only the run just split changes: re-solve its non-empty sub-runs
            candidates += map(solve, _runs(kept))
    tubes.sort(key=tube_order)
    return tubes
