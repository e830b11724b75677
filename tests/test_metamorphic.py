"""Metamorphic tests: transformations of the input that must carry through
linking, trimming and evaluation exactly.

Each scene of the drifting fixture is rendered at every miss rate and
false-positive rate below. Tubes are compared bit for bit (class, start
frame, and every box corner and score as ``float.hex``), not only by mAP.
Scaling every coordinate by a power of two is exact: it multiplies each
intersection and union area by the scale's square, so every IoU keeps its
bits. The scales are 2 and 1/32, which shrinks the fixture's 52-pixel
actors below two units. Reversing time is exact too, as a link score is
symmetric in its two detections. Mirroring x -> W - x is not: W - x rounds,
so the mirrored tubes must keep their frames and scores exactly and their
box corners to a stated tolerance.
"""

import dataclasses
import functools

import numpy as np
import pytest

from tubekit.evaluation import evaluate
from tubekit.geometry import BoundingBox
from tubekit.linking import FrameDetections, extract_tubes
from tubekit.synthdata import drifting_scene_specs, generate_scene, render_detections
from tubekit.trimming import PENALTY_MODES, TrimmingParams, trim_tubes

MISS_RATES = (0.0, 0.03)
FP_RATES = (0.0, 2.0)
DELTAS = (0.1, 0.3, 0.5, 0.75)
SCALES = (2.0, 2.0**-5)
# the fixture's image width; every box corner lies in [0, WIDTH]
WIDTH = 320.0
# W - x rounds once, by at most half an ulp of a value below 512, and
# W - (W - x) is exact (Sterbenz), so a corner mirrored twice is within this
MIRROR_TOLERANCE = 2.0**-45
# distinct per-class lengths (links), so that a class mix-up changes the trim
AVG_LENGTH = {0: 30.0, 1: 55.0}


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


def test_extract_tubes_commutes_with_reversing_time(link_storage):
    for (_, _, frames), tubes in zip(fixture(), linked()):
        last = max(fd.frame_index for fd in frames)
        backwards = [
            FrameDetections(frame_index=last - fd.frame_index, detections=fd.detections)
            for fd in reversed(frames)
        ]
        want = [
            dataclasses.replace(
                tube,
                start_frame=last - tube.end_frame,
                boxes=tube.boxes[::-1],
                scores=tube.scores[::-1],
            )
            for tube in tubes
        ]
        # reversal moves start frames, and so the output order
        assert sorted(map(tube_bits, extract_tubes(backwards))) == sorted(map(tube_bits, want))


def test_extract_tubes_commutes_with_mirroring_x(link_storage):
    def mirrored_box(box):
        return BoundingBox(WIDTH - box.x2, box.y1, WIDTH - box.x1, box.y2)

    def mirrored(dets):
        return [
            dataclasses.replace(
                d, box=mirrored_box(d.box), motion=d.motion and (-d.motion[0], d.motion[1])
            )
            for d in dets
        ]

    for (_, _, frames), tubes in zip(fixture(), linked()):
        got = extract_tubes(map_detections(frames, mirrored))
        assert [(t.class_id, t.start_frame, t.scores) for t in got] == [
            (t.class_id, t.start_frame, t.scores) for t in tubes
        ]
        for tube, want in zip(got, tubes):
            corners = np.array([mirrored_box(box).as_tuple() for box in tube.boxes])
            expected = np.array([box.as_tuple() for box in want.boxes])
            assert np.abs(corners - expected).max() <= MIRROR_TOLERANCE


@functools.cache
def trimmed(mode):
    return tuple(trim_tubes(tubes, TrimmingParams(AVG_LENGTH, mode)) for tubes in linked())


def test_the_trimmed_fixture_is_cut():
    for mode in PENALTY_MODES:
        pairs = [pair for ts in zip(linked(), trimmed(mode)) for pair in zip(*ts)]
        assert all(cut.length <= tube.length for tube, cut in pairs)
        assert any(cut.length < tube.length for tube, cut in pairs)


@pytest.mark.parametrize("mode", PENALTY_MODES)
def test_trim_tubes_commutes_with_permuting_class_ids(mode):
    permutation = {0: 1, 1: 0}
    params = TrimmingParams({permutation[c]: v for c, v in AVG_LENGTH.items()}, mode)
    for tubes, want in zip(linked(), trimmed(mode)):
        relabelled = [dataclasses.replace(t, class_id=permutation[t.class_id]) for t in tubes]
        got = [
            dataclasses.replace(t, class_id=permutation[t.class_id])
            for t in trim_tubes(relabelled, params)
        ]
        assert list(map(tube_bits, got)) == list(map(tube_bits, want))


@pytest.mark.parametrize("mode", PENALTY_MODES)
@pytest.mark.parametrize("scale", SCALES)
def test_trim_tubes_commutes_with_a_power_of_two_scale(scale, mode):
    params = TrimmingParams(AVG_LENGTH, mode)
    for tubes, want in zip(linked(), trimmed(mode)):
        got = trim_tubes([scaled_tube(t, scale) for t in tubes], params)
        assert list(map(tube_bits, got)) == [tube_bits(scaled_tube(t, scale)) for t in want]


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
