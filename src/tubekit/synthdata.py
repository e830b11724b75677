"""Synthetic scenes and detection oracles.

Stands in for a real video detector: actors are rectangles moving with
(optionally noisy) constant velocity across an image, producing ground-truth
tubes plus per-frame motion descriptors. Two detection channels are
provided:

* :func:`render_detections` — unconditional noise channel: each visible
  ground-truth box is dropped with a miss rate or jittered, scored from a
  Gaussian, and mixed with Poisson false positives.
* :class:`ConditionedDetector` — proposal-conditioned channel: a ground
  truth is only detectable when some proposal covers it, and both the miss
  odds and the score degrade as coverage drops. This is what couples
  proposal quality (and hence anticipation) to downstream tube metrics.

All randomness flows through ``numpy`` generators seeded from the scene
seed plus the frame index, so each frame's output is independent of
evaluation order.

Nominal frame rate is 25 fps, making a gap of 8 frames roughly a third of
a second of lookahead; nothing computes with this — it is calibration
commentary only.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .geometry import (
    BoundingBox,
    Motion,
    _check_count,
    _check_integer,
    _iou_arrays,
    box_from_center,
    boxes_to_array,
    clip_visible,
    encode_delta,
    iou,
)
from .linking import ActionTube, Detection, FrameDetections
from .proposals import ProposalStage, recall_at_iou, refine_stage, single_stage_refine

# stream tags keeping the per-frame rng of each consumer distinct
_STREAM_TRAJECTORY = 3
_STREAM_RENDER = 11
_STREAM_PROPOSALS = 101
_STREAM_DETECTOR = 202

_MIN_FP_SIZE = 8.0

# the strategy study's calibration of ProposalOracle and ConditionedDetector
_ORACLE_JITTER_SIGMA = 15.0
_ORACLE_PER_ACTOR = 3
_ORACLE_CLUTTER = 2
_DETECTOR_REGRESS_STRENGTH = 0.75
_DETECTOR_MIN_COVERAGE = 0.40


def _check_finite(name: str, value: float) -> None:
    """Reject an infinite emulation setting before it reaches a random draw."""
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class ActorSpec:
    """One moving rectangle: class, lifetime, initial box, velocity."""

    class_id: int
    entry_frame: int
    exit_frame: int
    box: BoundingBox
    velocity: tuple[float, float] = (0.0, 0.0)
    velocity_sigma: float = 0.0

    def __post_init__(self) -> None:
        _check_count("class_id", self.class_id)
        _check_integer("entry_frame", self.entry_frame)
        _check_integer("exit_frame", self.exit_frame)
        if self.entry_frame < 0 or self.exit_frame < self.entry_frame:
            raise ValueError("need 0 <= entry_frame <= exit_frame")
        if not self.velocity_sigma >= 0:
            raise ValueError("velocity_sigma must be non-negative")
        _check_finite("velocity_sigma", self.velocity_sigma)
        if np.shape(self.velocity) != (2,):
            raise ValueError(f"velocity must have two components, got {self.velocity}")
        if not all(map(math.isfinite, self.velocity)):
            raise ValueError(f"velocity must be finite, got {self.velocity}")
        if self.box.area <= 0:
            raise ValueError("actor box must have positive area")


@dataclass(frozen=True)
class NoiseModel:
    """Detector noise knobs.

    ``sigma_loc`` jitters every box corner coordinate; true positives are
    dropped with ``miss_rate`` and scored from ``N(tp_score_mean,
    tp_score_sigma)`` clipped to [0, 1]; ``fp_rate`` is the Poisson mean of
    false positives per frame, scored from the FP distribution.
    """

    sigma_loc: float = 2.0
    miss_rate: float = 0.05
    fp_rate: float = 0.5
    tp_score_mean: float = 0.85
    tp_score_sigma: float = 0.05
    fp_score_mean: float = 0.3
    fp_score_sigma: float = 0.1

    def __post_init__(self) -> None:
        for name in ("sigma_loc", "tp_score_sigma", "fp_score_sigma", "fp_rate"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be non-negative")
            _check_finite(name, getattr(self, name))
        for name in ("miss_rate", "tp_score_mean", "fp_score_mean"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")

    @classmethod
    def noiseless(cls) -> "NoiseModel":
        return cls(
            sigma_loc=0.0,
            miss_rate=0.0,
            fp_rate=0.0,
            tp_score_mean=1.0,
            tp_score_sigma=0.0,
            fp_score_mean=0.0,
            fp_score_sigma=0.0,
        )


@dataclass(frozen=True)
class SceneSpec:
    """Full description of one synthetic video."""

    video_id: str
    width: int
    height: int
    num_frames: int
    actors: tuple[ActorSpec, ...]
    noise: NoiseModel = NoiseModel()
    seed: int = 0

    def __post_init__(self) -> None:
        _check_integer("width", self.width)
        _check_integer("height", self.height)
        if self.width <= 0 or self.height <= 0:
            raise ValueError("image dimensions must be positive")
        try:
            float(self.width), float(self.height)
        except OverflowError:
            raise ValueError("image dimensions must fit in a float") from None
        _check_integer("num_frames", self.num_frames)
        if self.num_frames < 1:
            raise ValueError("need at least one frame")
        if not self.actors:
            raise ValueError("scene needs at least one actor")
        _check_count("seed", self.seed)
        for actor in self.actors:
            if actor.exit_frame >= self.num_frames:
                raise ValueError(
                    f"actor exits at frame {actor.exit_frame}, scene has "
                    f"{self.num_frames} frames"
                )


@dataclass(frozen=True)
class Scene:
    """Generated ground truth: one tube and motion track per visible actor."""

    spec: SceneSpec
    tubes: tuple[ActionTube, ...]
    motions: tuple[tuple[Motion, ...], ...]  # aligned with tubes, per frame

    def __post_init__(self) -> None:
        if len(self.tubes) != len(self.motions):
            raise ValueError("tubes and motion tracks must align")

    @property
    def classes(self) -> tuple[int, ...]:
        return tuple(sorted({t.class_id for t in self.tubes}))

    def frame_truth(self, frame_index: int) -> list[tuple[int, BoundingBox, Motion]]:
        """(class_id, box, motion) for every tube covering the frame.

        Raises:
            ValueError: when ``frame_index`` is not an integer frame of the scene.
        """
        _check_frame(self, frame_index)
        out = []
        for tube, motions in zip(self.tubes, self.motions):
            if tube.start_frame <= frame_index <= tube.end_frame:
                offset = frame_index - tube.start_frame
                out.append((tube.class_id, tube.boxes[offset], motions[offset]))
        return out


def _actor_trajectory(
    spec: SceneSpec, actor_index: int
) -> list[tuple[int, BoundingBox]]:
    """Clipped per-frame boxes for the actor's first contiguous visible span."""
    actor = spec.actors[actor_index]
    rng = np.random.default_rng([spec.seed, actor_index, _STREAM_TRAJECTORY])
    cx, cy = actor.box.center
    w, h = actor.box.width, actor.box.height
    steps = actor.exit_frame - actor.entry_frame
    # one draw of every step's (x, y) noise, in the order of a scalar draw
    # per component; a zero sigma draws nothing and adds nothing
    noise = (
        rng.normal(0.0, actor.velocity_sigma, size=(steps, 2)).tolist()
        if actor.velocity_sigma > 0
        else None
    )
    visible: list[tuple[int, BoundingBox]] = []
    for frame in range(actor.entry_frame, actor.exit_frame + 1):
        if frame > actor.entry_frame:
            vx, vy = actor.velocity
            if noise is not None:
                ex, ey = noise[frame - actor.entry_frame - 1]
                vx += ex
                vy += ey
            cx += vx
            cy += vy
        clipped = clip_visible(box_from_center(cx, cy, w, h), spec.width, spec.height)
        if clipped is not None:
            visible.append((frame, clipped))
        elif visible:
            break  # keep only the first contiguous visible span
    return visible


def generate_scene(spec: SceneSpec) -> Scene:
    """Ground-truth tubes plus motion descriptors for a scene.

    Each actor yields one tube covering its first contiguous span of frames
    with positive on-screen area; boxes are clipped to the image and scored
    1.0. The motion descriptor at a frame is the actual clipped-box center
    displacement from the previous frame (the first frame borrows the
    following displacement so every frame carries the actor's motion;
    single-frame tubes get (0, 0)).

    Raises:
        ValueError: when an actor is never visible inside the image.
    """
    tubes: list[ActionTube] = []
    motions: list[tuple[Motion, ...]] = []
    for idx, actor in enumerate(spec.actors):
        track = _actor_trajectory(spec, idx)
        if not track:
            raise ValueError(
                f"actor {idx} (class {actor.class_id}) never appears inside the image"
            )
        boxes = [b for _, b in track]
        centers = [b.center for b in boxes]
        steps = [(x - px, y - py) for (px, py), (x, y) in zip(centers, centers[1:])]
        tubes.append(
            ActionTube(
                class_id=actor.class_id,
                start_frame=track[0][0],
                boxes=tuple(boxes),
                scores=tuple(1.0 for _ in boxes),
            )
        )
        motions.append(tuple((steps[:1] + steps) or [(0.0, 0.0)]))
    return Scene(spec=spec, tubes=tuple(tubes), motions=tuple(motions))


def _add_corner_noise(box: BoundingBox, e: Sequence[float]) -> BoundingBox:
    """``box`` with ``e`` added to ``(x1, y1, x2, y2)``, corners re-ordered."""
    x1, y1, x2, y2 = box.x1 + e[0], box.y1 + e[1], box.x2 + e[2], box.y2 + e[3]
    # the swaps of sorted((a, b)), which keeps a first unless b < a
    if x2 < x1:
        x1, x2 = x2, x1
    if y2 < y1:
        y1, y2 = y2, y1
    return BoundingBox(x1, y1, x2, y2)


def _check_frame(scene: Scene, frame_index: int) -> None:
    """Reject a frame index that is not an integer in ``[0, num_frames)``."""
    num_frames = scene.spec.num_frames
    # a built-in int in range passes one test; anything else runs the full checks
    if type(frame_index) is int and 0 <= frame_index < num_frames:
        return
    _check_count("frame_index", frame_index)
    if frame_index >= num_frames:
        raise ValueError(
            f"frame_index must be below the scene's {num_frames} frames, got {frame_index}"
        )


def _check_jitter(sigma: float) -> None:
    """Reject a corner-jitter ``sigma`` that is negative, NaN or infinite."""
    if not (math.isfinite(sigma) and sigma >= 0):
        raise ValueError(f"jitter_sigma must be finite and non-negative, got {sigma}")


def _jitter_box(
    box: BoundingBox, sigma: float, rng: np.random.Generator, width: float, height: float
) -> Optional[BoundingBox]:
    """Corner-jittered, order-repaired, clipped copy; None if it collapses."""
    if sigma > 0:
        box = _add_corner_noise(box, rng.normal(0.0, sigma, size=4).tolist())
    return clip_visible(box, width, height)


def _clutter_box(spec: SceneSpec, rng: np.random.Generator) -> Optional[BoundingBox]:
    """A uniformly placed box of log-uniform size, clipped; None if off-image."""
    cx = rng.uniform(0, spec.width)
    cy = rng.uniform(0, spec.height)
    max_size = max(_MIN_FP_SIZE + 1.0, min(spec.width, spec.height) / 2.0)
    w = math.exp(rng.uniform(math.log(_MIN_FP_SIZE), math.log(max_size)))
    h = math.exp(rng.uniform(math.log(_MIN_FP_SIZE), math.log(max_size)))
    return clip_visible(box_from_center(cx, cy, w, h), spec.width, spec.height)


def _clip01(x: float) -> float:
    return min(max(x, 0.0), 1.0)


def _false_positives(scene: Scene, rng: np.random.Generator) -> list[Detection]:
    noise = scene.spec.noise
    classes = scene.classes
    count = int(rng.poisson(noise.fp_rate))
    out: list[Detection] = []
    for _ in range(count):
        class_id = int(classes[rng.integers(0, len(classes))])
        box = _clutter_box(scene.spec, rng)
        if box is None:
            continue
        score = _clip01(rng.normal(noise.fp_score_mean, noise.fp_score_sigma))
        out.append(Detection(box=box, class_id=class_id, score=score, motion=(0.0, 0.0)))
    return out


def render_detections(scene: Scene) -> list[FrameDetections]:
    """Unconditional noisy detections for every frame of a scene.

    Per visible ground-truth box: dropped with the miss rate, otherwise
    corner-jittered, clipped, and scored; false positives arrive at a
    Poisson rate per frame with their own score model. With all noise at
    zero the output equals the ground truth with score 1.0. Deterministic
    given the scene's seed; another draw needs a spec with another seed.
    """
    spec = scene.spec
    noise = spec.noise
    frames: list[FrameDetections] = []
    for frame in range(spec.num_frames):
        rng = np.random.default_rng([spec.seed, frame, _STREAM_RENDER])
        dets: list[Detection] = []
        for class_id, box, motion in scene.frame_truth(frame):
            if noise.miss_rate > 0 and rng.uniform() < noise.miss_rate:
                continue
            jittered = _jitter_box(box, noise.sigma_loc, rng, spec.width, spec.height)
            if jittered is None:
                continue
            score = _clip01(rng.normal(noise.tp_score_mean, noise.tp_score_sigma))
            dets.append(
                Detection(box=jittered, class_id=class_id, score=score, motion=motion)
            )
        dets.extend(_false_positives(scene, rng))
        frames.append(FrameDetections(frame_index=frame, detections=tuple(dets)))
    return frames


class ProposalOracle:
    """Box proposals from jittered ground truth plus uniform clutter.

    Emulates a proposal stage's output quality without running one: each
    visible ground-truth box spawns ``_ORACLE_PER_ACTOR`` corner-jittered
    copies (``_ORACLE_JITTER_SIGMA`` px), and ``_ORACLE_CLUTTER`` background
    boxes are thrown in uniformly. Per-frame outputs are deterministic in
    (seed, frame), so each frame is drawn once and kept for later calls.
    """

    def __init__(self, scene: Scene, *, seed: int = 0) -> None:
        _check_count("seed", seed)
        self.scene = scene
        self.seed = seed
        self._drawn: dict[int, tuple[BoundingBox, ...]] = {}

    def propose(self, frame_index: int) -> list[BoundingBox]:
        """The frame's proposals, as a new list of the same box objects on
        every call.

        Raises:
            ValueError: when ``frame_index`` is not an integer frame of the scene.
        """
        _check_frame(self.scene, frame_index)
        drawn = self._drawn.get(frame_index)
        if drawn is None:
            drawn = self._drawn[frame_index] = self._draw(frame_index)
        return list(drawn)

    def _draw(self, frame_index: int) -> tuple[BoundingBox, ...]:
        spec = self.scene.spec
        rng = np.random.default_rng([self.seed, frame_index, _STREAM_PROPOSALS])
        copies = [
            box
            for _, box, _ in self.scene.frame_truth(frame_index)
            for _ in range(_ORACLE_PER_ACTOR)
        ]
        if _ORACLE_JITTER_SIGMA > 0:
            # one draw for every copy's corners, in the order of a draw per copy
            noise = rng.normal(0.0, _ORACLE_JITTER_SIGMA, size=(len(copies), 4))
            copies = list(map(_add_corner_noise, copies, noise.tolist()))
        clipped = (clip_visible(box, spec.width, spec.height) for box in copies)
        out = [box for box in clipped if box is not None]
        for _ in range(_ORACLE_CLUTTER):
            box = _clutter_box(spec, rng)
            if box is not None:
                out.append(box)
        return tuple(out)


def _best_overlaps(
    truth: Sequence[tuple[int, BoundingBox, Motion]],
    proposals: Sequence[BoundingBox],
    best: Sequence[tuple[float, int]],
    start: int,
) -> list[tuple[float, int]]:
    """Each row's ``(overlap, index)`` of ``best``, taken over by a proposal from
    ``proposals[start:]`` only with a strictly higher overlap, so ties go to
    the earliest proposal."""
    out = []
    for (_, gt_box, _), (coverage, index) in zip(truth, best):
        for k in range(start, len(proposals)):
            overlap = iou(gt_box, proposals[k])
            if overlap > coverage:
                coverage, index = float(overlap), k
        out.append((coverage, index))
    return out


class _DetectorFrame(NamedTuple):
    """The part of one frame's detection that no proposal set can change."""

    truth: tuple[tuple[int, BoundingBox, Motion], ...]
    draws: tuple[tuple[float, tuple[float, ...], float], ...]  # miss, corners, score
    false_positives: tuple[Detection, ...]


class ConditionedDetector:
    """Detections whose quality depends on how well proposals cover the truth.

    For each visible ground-truth box the detector looks up the
    best-overlapping proposal (its *coverage*). Coverage below
    ``_DETECTOR_MIN_COVERAGE`` is an automatic miss; otherwise the reported
    box is the best proposal pulled ``_DETECTOR_REGRESS_STRENGTH`` of the
    way toward the truth (imitating a regression head that can only refine
    what the proposals give it), jittered by the noise model, and the score
    is drawn with its mean scaled by coverage. False positives follow the
    noise model unchanged. Better proposals therefore mean fewer misses,
    tighter boxes, and higher scores — the lever the anticipation
    strategies compete on.

    Everything of a frame that does not depend on the proposals (its truth,
    its noise draws and its false positives) is drawn once and kept for
    later calls on the same frame. So is each truth row's best overlap with
    the proposal list of the frame's first call, the index of the first
    proposal reaching it, and the detection that row gave (or that it gave
    none): a later call whose list starts with those same box objects (as
    :meth:`ProposalOracle.propose` returns them, and ``augment_proposals``
    keeps them in front) scores only the boxes after them, and returns the
    kept detection of every row that none of them takes over. Any other list
    is scored in full and is remembered in their place.
    """

    def __init__(self, scene: Scene, *, seed: int = 0) -> None:
        _check_count("seed", seed)
        self.scene = scene
        self.seed = seed
        self._drawn: dict[int, _DetectorFrame] = {}
        # per frame: a proposal list and, per truth row, its best overlap
        # with that list and the index of the first proposal reaching it,
        # and the detection the row gave (None for none)
        self._covered: dict[
            int, tuple[tuple[BoundingBox, ...], list[tuple[float, int]], list]
        ] = {}

    def detect(
        self, frame_index: int, proposals: Sequence[BoundingBox]
    ) -> list[Detection]:
        """The frame's detections given its proposals.

        Raises:
            ValueError: when ``frame_index`` is not an integer frame of the scene.
        """
        _check_frame(self.scene, frame_index)
        drawn = self._drawn.get(frame_index)
        if drawn is None:
            drawn = self._drawn[frame_index] = self._draw(frame_index)
        truth, draws, false_positives = drawn
        if not (truth and proposals):
            return list(false_positives)
        # overlaps are never negative, so (0.0, 0) is the best of no proposal,
        # and a list overlapping nothing regresses from its first box
        fresh = ((), [(0.0, 0)] * len(truth), [None] * len(truth))
        known, best, kept = self._covered.get(frame_index, fresh)
        if not (len(known) <= len(proposals) and all(map(operator.is_, known, proposals))):
            known, best, kept = fresh
        start = len(known)
        best = _best_overlaps(truth, proposals, best, start)
        dets = [
            det if index < start else self._build(row, draw, coverage, proposals[index])
            for row, draw, (coverage, index), det in zip(truth, draws, best, kept)
        ]
        if not start:
            self._covered[frame_index] = (tuple(proposals), best, dets)
        return [det for det in dets if det is not None] + list(false_positives)

    def _build(self, row, draw, coverage: float, prop: BoundingBox) -> Optional[Detection]:
        """A truth row's detection regressed from its best proposal ``prop``,
        given the row's noise draws; None when the row is missed or its box
        leaves the image."""
        class_id, gt_box, motion = row
        miss_draw, corner_noise, score_noise = draw
        noise = self.scene.spec.noise
        if coverage < _DETECTOR_MIN_COVERAGE:
            return None
        if noise.miss_rate > 0 and miss_draw < noise.miss_rate:
            return None
        rho = _DETECTOR_REGRESS_STRENGTH
        blended = BoundingBox(
            prop.x1 + rho * (gt_box.x1 - prop.x1),
            prop.y1 + rho * (gt_box.y1 - prop.y1),
            prop.x2 + rho * (gt_box.x2 - prop.x2),
            prop.y2 + rho * (gt_box.y2 - prop.y2),
        )
        sigma = noise.sigma_loc
        box = clip_visible(
            _add_corner_noise(blended, [c * sigma for c in corner_noise]),
            self.scene.spec.width,
            self.scene.spec.height,
        )
        if box is None:
            return None
        score = _clip01(noise.tp_score_mean * coverage + score_noise * noise.tp_score_sigma)
        return Detection(box=box, class_id=class_id, score=score, motion=motion)

    def _draw(self, frame_index: int) -> _DetectorFrame:
        rng = np.random.default_rng([self.seed, frame_index, _STREAM_DETECTOR])
        truth = tuple(self.scene.frame_truth(frame_index))
        # every truth row takes its draws whatever its coverage turns out to
        # be, so that one actor's coverage cannot shift another actor's
        # noise stream
        draws = tuple(
            (
                rng.uniform(),
                tuple(rng.normal(0.0, 1.0, size=4).tolist()),
                rng.normal(0.0, 1.0),
            )
            for _ in truth
        )
        false_positives = _false_positives(self.scene, rng)
        return _DetectorFrame(truth, draws, tuple(false_positives))


def drifting_scene_specs(
    num_scenes: int = 4,
    *,
    num_frames: int = 90,
    base_seed: int = 7,
) -> list[SceneSpec]:
    """The standard drifting-scene benchmark fixture.

    Each scene holds two actors of different classes crossing the image in
    opposite directions at a steady drift (speed varies a little per scene),
    with moderate detector noise. Motion is fast enough that a multi-frame
    anticipation gap displaces boxes by a large fraction of their size —
    the regime where anticipation strategies separate. Images are 320x240.
    """
    _check_integer("num_scenes", num_scenes)
    if num_scenes < 1:
        raise ValueError("need at least one scene")
    noise = NoiseModel(
        sigma_loc=2.0,
        miss_rate=0.03,
        fp_rate=0.25,
        tp_score_mean=0.9,
        tp_score_sigma=0.04,
        fp_score_mean=0.35,
        fp_score_sigma=0.08,
    )
    specs = []
    size = 52.0
    for i in range(num_scenes):
        speed = 1.4 * (1.0 + 0.08 * (i % 3))
        vy, y_left, y_right = (0.85, 60, 180) if i % 2 == 0 else (-0.85, 180, 60)
        actors = tuple(
            ActorSpec(
                class_id=class_id,
                entry_frame=0,
                exit_frame=num_frames - 1,
                box=box_from_center(x, y, size, size),
                velocity=velocity,
                velocity_sigma=0.2,
            )
            for class_id, x, y, velocity in (
                (0, 40, y_left, (speed, vy)),
                (1, 280, y_right, (-speed, -vy)),
            )
        )
        specs.append(
            SceneSpec(
                video_id=f"drift-{i:02d}",
                width=320,
                height=240,
                num_frames=num_frames,
                actors=actors,
                noise=noise,
                seed=base_seed + i,
            )
        )
    return specs


def _nearest_center(centers: np.ndarray) -> Callable[[float, float], int]:
    """A function from a point ``(x, y)`` to the index of the row of
    ``centers`` (N, 2) nearest to it.

    With ``e`` a centre and ``q`` the point, both measured from the first
    centre, the squared distance is ``|e|^2 - 2 e.q + |q|^2``, so the nearest
    centre has the least ``|e|^2 - 2 e.q``. Unlike the distances themselves,
    which round to one value for a point far from every centre, that form
    keeps the centres apart; scaled by powers of two, which keeps its
    order, it cannot overflow.
    """
    origin = centers[0]
    offsets = centers - origin
    top = max(math.frexp(float(np.abs(offsets).max()))[1], 0)
    offsets *= math.ldexp(1.0, -top)  # every entry in (-1, 1)
    norms = (offsets * offsets).sum(axis=1)

    def nearest(x: float, y: float) -> int:
        q = np.array([x, y]) - origin
        exp = max(top, math.frexp(float(np.abs(q).max()))[1])
        q *= math.ldexp(-2.0, -exp)
        return int((norms * math.ldexp(1.0, top - exp) + offsets @ q).argmin())

    return nearest


def halving_stage(ground_truths: Sequence[BoundingBox]) -> ProposalStage:
    """Oracle refinement stage that halves a candidate's error.

    The regressor targets the box halfway (per corner) between the
    candidate and its nearest ground truth (by center distance); the scorer
    reports the refined box's best IoU against the ground truths. Two such
    stages quarter the initial error — the reference behavior for cascade
    experiments.
    """
    if not ground_truths:
        raise ValueError("oracle stage needs at least one ground-truth box")
    gt_array = boxes_to_array(ground_truths)
    # halves, as no sum of two corners can overflow
    nearest = _nearest_center(gt_array[:, :2] / 2 + gt_array[:, 2:] / 2)

    def regressor(box: BoundingBox):
        gt = ground_truths[nearest(box.x1 / 2 + box.x2 / 2, box.y1 / 2 + box.y2 / 2)]
        halfway = BoundingBox(
            (box.x1 + gt.x1) / 2,
            (box.y1 + gt.y1) / 2,
            (box.x2 + gt.x2) / 2,
            (box.y2 + gt.y2) / 2,
        )
        return encode_delta(box, halfway)

    def scorer(box: BoundingBox) -> float:
        return float(_iou_arrays(boxes_to_array([box]), gt_array).max())

    return ProposalStage(regressor=regressor, scorer=scorer)


DEMO_RECALL_THRESHOLDS = tuple(round(0.5 + 0.05 * i, 2) for i in range(10))
DEMO_NUM_BOXES = 1000
DEMO_JITTER_SIGMA = 18.0
DEMO_SEED = 0


def cascade_recall_demo(
    num_boxes: int = DEMO_NUM_BOXES,
    *,
    jitter_sigma: float = DEMO_JITTER_SIGMA,
    seed: int = DEMO_SEED,
    thresholds: Sequence[float] = DEMO_RECALL_THRESHOLDS,
) -> dict[str, dict[float, float]]:
    """Recall curves for one vs two error-halving refinement stages.

    ``num_boxes`` ground-truth boxes are scattered on a wide grid (far
    enough apart that suppression never couples them), each paired with one
    anchor whose corners are jittered by ``N(0, jitter_sigma)``. The same
    halving stage is applied once (single pass) and twice (cascade); each
    extra stage halves the remaining corner error, which shows up as a
    recall gain concentrated at the high-IoU end of the curve.

    Returns:
        ``{"one_stage": {threshold: recall}, "two_stage": {...}}``.
    """
    _check_integer("num_boxes", num_boxes)
    if num_boxes < 1:
        raise ValueError("need at least one box")
    _check_jitter(jitter_sigma)
    _check_count("seed", seed)
    rng = np.random.default_rng(seed)
    cell = 400.0
    cols = int(math.ceil(math.sqrt(num_boxes)))
    rows = int(math.ceil(num_boxes / cols))
    width = cols * cell
    height = rows * cell
    gts: list[BoundingBox] = []
    anchors: list[BoundingBox] = []
    for i in range(num_boxes):
        cx = (i % cols + 0.5) * cell
        cy = (i // cols + 0.5) * cell
        w = rng.uniform(40.0, 120.0)
        h = rng.uniform(40.0, 120.0)
        gt = box_from_center(cx, cy, w, h)
        gts.append(gt)
        anchors.append(
            _add_corner_noise(gt, rng.normal(0.0, jitter_sigma, size=4).tolist())
        )
    stage = halving_stage(gts)
    one = single_stage_refine(
        anchors, stage, image_width=width, image_height=height, top_n=num_boxes
    )
    # the one-stage result is the cascade's first stage; recall needs no order
    two = refine_stage([b for b, _ in one], stage, image_width=width, image_height=height)
    return {
        "one_stage": recall_at_iou([b for b, _ in one], gts, thresholds),
        "two_stage": recall_at_iou([b for b, _ in two], gts, thresholds),
    }
