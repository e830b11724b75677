"""Metamorphic tests: transformations of the input that must carry through
linking and evaluation exactly.

Each scene of the drifting fixture is rendered at every miss rate and
false-positive rate below. Tubes are compared bit for bit (class, start
frame, and every box corner and score as ``float.hex``), not only by mAP.
Scaling every coordinate by a power of two is exact: it multiplies each
intersection and union area by the scale's square, so every IoU keeps its
bits. The scales are 2 and 1/32, which shrinks the fixture's 52-pixel
actors below two units.
"""

import dataclasses
import functools

import numpy as np
import pytest

from tubekit.evaluation import evaluate
from tubekit.geometry import BoundingBox
from tubekit.linking import FrameDetections, extract_tubes
from tubekit.synthdata import drifting_scene_specs, generate_scene, render_detections

MISS_RATES = (0.0, 0.03)
FP_RATES = (0.0, 2.0)
DELTAS = (0.1, 0.3, 0.5, 0.75)
SCALES = (2.0, 2.0**-5)


@functools.cache
def fixture():
    """``(video id, ground-truth tubes, rendered frames)`` per scene and noise setting."""
    videos = []
    for spec in drifting_scene_specs(4):
        for miss in MISS_RATES:
            for fp in FP_RATES:
                noisy = dataclasses.replace(
                    spec,
                    video_id=f"{spec.video_id}-m{miss}-f{fp}",
                    noise=dataclasses.replace(spec.noise, miss_rate=miss, fp_rate=fp),
                )
                scene = generate_scene(noisy)
                videos.append((noisy.video_id, scene.tubes, render_detections(scene)))
    return tuple(videos)


@functools.cache
def linked():
    return tuple(extract_tubes(frames) for _, _, frames in fixture())


def tube_bits(tube):
    return (
        tube.class_id,
        tube.start_frame,
        tuple(tuple(map(float.hex, box.as_tuple())) for box in tube.boxes),
        tuple(map(float.hex, tube.scores)),
    )


def scaled_box(box, scale):
    return BoundingBox(*(scale * v for v in box.as_tuple()))


def scaled_tube(tube, scale):
    return dataclasses.replace(tube, boxes=tuple(scaled_box(b, scale) for b in tube.boxes))


def map_detections(frames, change):
    """``frames`` with each frame's detection list replaced by ``change(list)``."""
    return [
        FrameDetections(frame_index=fd.frame_index, detections=tuple(change(list(fd.detections))))
        for fd in frames
    ]


def test_the_fixture_has_misses_and_clutter():
    # two actors per frame: fewer detections is a miss, more is a false positive
    counts = [len(fd.detections) for _, _, frames in fixture() for fd in frames]
    assert min(counts) < 2 < max(counts)
    assert all(linked())


def test_extract_tubes_commutes_with_shuffling_each_frame(link_storage):
    rng = np.random.default_rng(0)

    def shuffled(dets):
        return [dets[k] for k in rng.permutation(len(dets))]

    moved = 0
    for (_, _, frames), tubes in zip(fixture(), linked()):
        shuffled_frames = map_detections(frames, shuffled)
        moved += shuffled_frames != frames
        assert list(map(tube_bits, extract_tubes(shuffled_frames))) == list(map(tube_bits, tubes))
    assert moved == len(fixture())


def test_extract_tubes_commutes_with_permuting_class_ids(link_storage):
    permutation = {0: 1, 1: 0}
    inverse = {new: old for old, new in permutation.items()}

    def relabelled(dets):
        return [dataclasses.replace(d, class_id=permutation[d.class_id]) for d in dets]

    for (_, _, frames), tubes in zip(fixture(), linked()):
        got = [
            dataclasses.replace(tube, class_id=inverse[tube.class_id])
            for tube in extract_tubes(map_detections(frames, relabelled))
        ]
        assert sorted(map(tube_bits, got)) == sorted(map(tube_bits, tubes))
        assert {t.class_id for t in tubes} == {0, 1}


@pytest.mark.parametrize("scale", SCALES)
def test_extract_tubes_commutes_with_a_power_of_two_scale(link_storage, scale):
    def scaled(dets):
        return [
            dataclasses.replace(
                d,
                box=scaled_box(d.box, scale),
                motion=d.motion and (scale * d.motion[0], scale * d.motion[1]),
            )
            for d in dets
        ]

    for (_, _, frames), tubes in zip(fixture(), linked()):
        got = extract_tubes(map_detections(frames, scaled))
        want = [scaled_tube(tube, scale) for tube in tubes]
        assert list(map(tube_bits, got)) == list(map(tube_bits, want))


def evaluated(renamed=lambda video_id: video_id, change=lambda tube: tube):
    """``evaluate`` of the linked fixture, each video id renamed and each tube
    changed, with every AP and mAP as ``float.hex``."""
    predictions, truth = {}, {}
    for (video_id, gts, _), tubes in zip(fixture(), linked()):
        predictions[renamed(video_id)] = [change(t) for t in tubes]
        truth[renamed(video_id)] = [change(t) for t in gts]
    report = evaluate(predictions, truth, DELTAS)
    return (
        {d: v.hex() for d, v in report.map_by_delta.items()},
        {d: {c: ap.hex() for c, ap in aps.items()} for d, aps in report.ap_by_delta.items()},
    )


def test_the_evaluated_fixture_is_neither_perfect_nor_empty():
    maps = [float.fromhex(v) for v in evaluated()[0].values()]
    assert 0.0 < min(maps) and max(maps) < 1.0


def test_evaluate_is_unchanged_by_renaming_videos():
    # the new ids sort in the reverse order of the old ones; the videos keep
    # their order, which settles tube scores tied across videos
    count = len(fixture())
    names = {video_id: f"v{count - k:02d}" for k, (video_id, _, _) in enumerate(fixture())}
    assert evaluated(names.get) == evaluated()


@pytest.mark.parametrize("scale", SCALES)
def test_evaluate_is_unchanged_by_a_power_of_two_scale(scale):
    assert evaluated(change=lambda tube: scaled_tube(tube, scale)) == evaluated()
