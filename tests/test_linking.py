import ast
import copy
import dataclasses
import itertools
import pickle
import statistics
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from tubekit import geometry, linking
from tubekit.geometry import BoundingBox, iou_matrix
from tubekit.linking import (
    ActionTube,
    Detection,
    FrameDetections,
    LinkingParams,
    extract_tubes,
    linking_score,
    tube_link_scores,
    tube_order,
    viterbi_link,
)
from tubekit.synthdata import drifting_scene_specs, generate_scene, render_detections


def det(x1, y1, x2, y2, score, class_id=0):
    return Detection(box=BoundingBox(x1, y1, x2, y2), class_id=class_id, score=score)


def random_detection(rng, class_id=0):
    x1 = rng.uniform(0, 80)
    y1 = rng.uniform(0, 80)
    return Detection(
        box=BoundingBox(x1, y1, x1 + rng.uniform(4, 30), y1 + rng.uniform(4, 30)),
        class_id=class_id,
        score=float(rng.integers(0, 11)) / 10.0,
    )


class TestLinkingScore:
    def test_reference_value_is_exact(self):
        # scores 0.8 + 0.6, overlap exactly one half, beta 0.7:
        # 0.3 * 1.4 + 0.7 * 0.5 == 0.77 in binary floats
        a = det(0, 0, 10, 10, 0.8)
        b = det(0, 0, 10, 5, 0.6)
        params = LinkingParams(beta=0.7)
        assert linking_score(a, b, params) == 0.77

    def test_beta_zero_ignores_overlap(self):
        a = det(0, 0, 10, 10, 0.8)
        b = det(0, 0, 10, 5, 0.6)
        assert linking_score(a, b, LinkingParams(beta=0.0)) == 1.4

    def test_beta_one_ignores_confidence(self):
        a = det(0, 0, 10, 10, 0.8)
        b = det(0, 0, 10, 5, 0.6)
        assert linking_score(a, b, LinkingParams(beta=1.0)) == 0.5

    def test_class_mismatch_rejected(self):
        a = det(0, 0, 10, 10, 0.8, class_id=0)
        b = det(0, 0, 10, 10, 0.8, class_id=1)
        with pytest.raises(ValueError):
            linking_score(a, b, LinkingParams())

    def test_symmetric(self):
        a = det(0, 0, 10, 10, 0.9)
        b = det(5, 0, 15, 10, 0.4)
        params = LinkingParams(beta=0.3)
        assert linking_score(a, b, params) == linking_score(b, a, params)


class TestParams:
    def test_beta_range(self):
        LinkingParams(beta=0.0)
        LinkingParams(beta=1.0)
        with pytest.raises(ValueError):
            LinkingParams(beta=-0.1)
        with pytest.raises(ValueError):
            LinkingParams(beta=1.1)

    def test_detection_validation(self):
        with pytest.raises(ValueError):
            det(0, 0, 1, 1, 1.5)
        with pytest.raises(ValueError):
            det(0, 0, 1, 1, 0.5, class_id=-1)


class TestDetectionValue:
    BOX = BoundingBox(0.0, 0.0, 1.0, 1.0)

    @pytest.mark.parametrize(
        "class_id, score",
        [(0, 0.0), (3, 1.0), (2, 1), (1, 0), (4, np.float64(0.5)), (np.int64(5), 0.5)],
    )
    def test_accepted_values_are_kept_as_given(self, class_id, score):
        d = Detection(self.BOX, class_id, score)
        assert (d.box, d.class_id, d.score, d.motion) == (self.BOX, class_id, score, None)
        assert (type(d.class_id), type(d.score)) == (type(class_id), type(score))

    @pytest.mark.parametrize(
        "class_id, score, message",
        [
            (0, 1.5, "detection score must be in [0, 1], got 1.5"),
            (0, -0.0625, "detection score must be in [0, 1], got -0.0625"),
            (0, float("nan"), "detection score must be in [0, 1], got nan"),
            (-1, 2.0, "detection score must be in [0, 1], got 2.0"),
            (0, True, "detection score must be a number, got True"),
            (0, False, "detection score must be a number, got False"),
            (0, np.True_, "detection score must be a number, got np.True_"),
            (0, np.False_, "detection score must be a number, got np.False_"),
            (-1, 0.5, "class_id must be non-negative"),
            (1.5, 0.9, "class_id must be an integer, got 1.5"),
            (1.0, 0.9, "class_id must be an integer, got 1.0"),
            (True, 0.9, "class_id must be an integer, got True"),
            ("1", 0.9, "class_id must be an integer, got '1'"),
            (np.float64(2.0), 0.9, "class_id must be an integer, got np.float64(2.0)"),
        ],
    )
    def test_rejections_name_the_value(self, class_id, score, message):
        with pytest.raises(ValueError) as info:
            Detection(self.BOX, class_id, score)
        assert str(info.value) == message

    def test_frozen_and_slotted(self):
        d = Detection(self.BOX, 1, 0.5, (1.0, -1.0))
        with pytest.raises(dataclasses.FrozenInstanceError):
            d.score = 0.25
        with pytest.raises(dataclasses.FrozenInstanceError):
            d.motion = None
        assert not hasattr(d, "__dict__")
        assert d.score == 0.5 and d.motion == (1.0, -1.0)

    def test_replace_runs_the_checks(self):
        d = Detection(self.BOX, 1, 0.5)
        assert dataclasses.replace(d, score=0.25, motion=(0.0, 1.0)) == Detection(
            self.BOX, 1, 0.25, (0.0, 1.0)
        )
        with pytest.raises(ValueError, match="^class_id must be an integer, got 1.5$"):
            dataclasses.replace(d, class_id=1.5)

    def test_equality_hash_and_repr(self):
        d = Detection(self.BOX, 1, 0.5, (1.0, 2.0))
        assert d == Detection(box=self.BOX, class_id=1, score=0.5, motion=(1.0, 2.0))
        assert d != Detection(self.BOX, 1, 0.5)
        assert hash(d) == hash((self.BOX, 1, 0.5, (1.0, 2.0)))
        assert repr(d) == (
            "Detection(box=BoundingBox(x1=0.0, y1=0.0, x2=1.0, y2=1.0), "
            "class_id=1, score=0.5, motion=(1.0, 2.0))"
        )

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_copies_are_equal(self, protocol):
        d = Detection(self.BOX, 2, 0.75, (0.5, 0.5))
        assert copy.deepcopy(d) == d
        assert pickle.loads(pickle.dumps(d, protocol)) == d


class TestIntegerFields:
    """Frame numbers and class ids are integers: a bool or a float is refused up front."""

    @pytest.mark.parametrize("value", [True, 1.5, 2.0, np.float64(3.0)])
    def test_frame_index(self, value):
        with pytest.raises(ValueError, match=r"^frame_index must be an integer, got "):
            FrameDetections(value, ())

    @pytest.mark.parametrize("field", ["class_id", "start_frame"])
    @pytest.mark.parametrize("value", [True, False, 1.5, 2.0, np.float64(3.0)])
    def test_action_tube(self, field, value):
        fields = dict(class_id=0, start_frame=0, boxes=(BoundingBox(0, 0, 1, 1),), scores=(0.5,))
        fields[field] = value
        with pytest.raises(ValueError, match=rf"^{field} must be an integer, got "):
            ActionTube(**fields)

    def test_numpy_integers_accepted(self):
        frame = FrameDetections(np.int64(3), ())
        tube = ActionTube(np.int32(1), np.int64(2), (BoundingBox(0, 0, 1, 1),), (0.5,))
        assert (frame.frame_index, tube.class_id, tube.start_frame) == (3, 1, 2)


class TestActionTube:
    def test_basic_properties(self):
        tube = ActionTube(
            class_id=2,
            start_frame=5,
            boxes=(BoundingBox(0, 0, 1, 1), BoundingBox(1, 0, 2, 1)),
            scores=(0.4, 0.8),
        )
        assert tube.end_frame == 6
        assert tube.length == 2
        assert tube.tube_score == pytest.approx(0.6)

    def test_validation(self):
        with pytest.raises(ValueError):
            ActionTube(class_id=0, start_frame=0, boxes=(), scores=())
        with pytest.raises(ValueError):
            ActionTube(
                class_id=0,
                start_frame=0,
                boxes=(BoundingBox(0, 0, 1, 1),),
                scores=(0.5, 0.5),
            )

    def test_tube_score_is_fmean_bit_for_bit(self):
        # math.fsum over the length is what statistics.fmean computes
        rng = np.random.default_rng(17)
        box = BoundingBox(0, 0, 1, 1)
        for n in [1, 2, 3, 7, 100, 299, 300, *rng.integers(1, 301, size=40).tolist()]:
            scores = rng.uniform(0.0, 1.0, size=n)
            scores[rng.random(n) < 0.2] = rng.choice([0.0, 1.0, 0.1, 1e-300])
            scores = tuple(scores.tolist())
            tube = ActionTube(class_id=0, start_frame=0, boxes=(box,) * n, scores=scores)
            assert tube.tube_score.hex() == statistics.fmean(scores).hex()



def test_no_module_imports_statistics_fractions_or_decimal():
    imported = set()
    for path in Path(linking.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    assert "numpy" in imported
    assert not imported & {"statistics", "fractions", "decimal"}


def unused_imports(source):
    """``"line name"`` for each name ``source`` imports but never reads as a bare name."""
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used:
                    unused.append(f"{node.lineno} {name}")
    return unused


@pytest.mark.parametrize(
    "source, expected",
    [
        ("import math\n", ["1 math"]),
        ("import math\nx = math.pi\n", []),
        ("import numpy as np\nimport math\nx = np.pi\n", ["2 math"]),
        ("from .geometry import iou, nms\nx = iou\n", ["1 nms"]),
        ("from .geometry import iou as overlap\nx = iou\n", ["1 overlap"]),
        ("import os.path\nx = os.path.join\n", []),
        ("from __future__ import annotations\n", []),
        ("from typing import Sequence\ndef f(x: Sequence) -> None: ...\n", []),
        ("def f():\n    import math\n    return 1\n", ["2 math"]),
    ],
)
def test_unused_import_scan(source, expected):
    assert unused_imports(source) == expected


def test_no_module_imports_a_name_it_never_uses():
    unused = []
    for path in sorted(Path(linking.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue  # the package namespace imports what it re-exports
        unused += [f"{path.name}:{found}" for found in unused_imports(path.read_text())]
    assert unused == []


def private_definitions(tree):
    """``(line, name)`` for each name with one leading underscore that the
    module ``tree`` defines at its top level."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        else:
            targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
            names = [
                n.id
                for t in targets
                if t
                for n in ast.walk(t)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)
            ]
        found += [(node.lineno, n) for n in names if n.startswith("_") and not n.startswith("__")]
    return found


def unread_private_names(sources):
    """``"module:line name"`` for each top-level private name defined in one of
    ``sources`` (module name -> source) that none of them reads."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return [
        f"{module}:{line} {name}"
        for module, tree in trees.items()
        for line, name in private_definitions(tree)
        if name not in read
    ]


@pytest.mark.parametrize(
    "sources, expected",
    [
        ({"a": "def _f():\n    pass\n"}, ["a:1 _f"]),
        ({"a": "def _f():\n    pass\nx = _f()\n"}, []),
        ({"a": "class _C:\n    pass\n_LIMIT: int = 3\n"}, ["a:1 _C", "a:3 _LIMIT"]),
        ({"a": "_a, _b = 1, 2\nx = _a\n"}, ["a:1 _b"]),
        ({"a": "_x = 1\n_x = 2\n"}, ["a:1 _x", "a:2 _x"]),
        ({"a": "_t = {}\n_t[0] = 1\n"}, []),
        ({"a": "__all__ = []\ndef f():\n    _local = 1\n"}, []),
        ({"a": "_f = 1\n", "b": "from .a import _f\nx = _f\n"}, []),
        ({"a": "_f = 1\n", "b": "from . import a\nx = a._f\n"}, []),
        ({"a": "_f = 1\n", "b": "from .a import _f\n"}, ["a:1 _f"]),
    ],
)
def test_unread_private_name_scan(sources, expected):
    assert unread_private_names(sources) == expected


def test_every_private_module_name_is_read():
    sources = {
        path.stem: path.read_text()
        for path in sorted(Path(linking.__file__).parent.glob("*.py"))
    }
    assert any(private_definitions(ast.parse(source)) for source in sources.values())
    assert unread_private_names(sources) == []


def test_only_geometry_names_the_pair_block_size():
    # the pairs of a group are numbered and scored in blocks in one place
    named = []
    for path in sorted(Path(linking.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = [getattr(node, "id", None), getattr(node, "attr", None)]
            if isinstance(node, ast.ImportFrom):
                names += [alias.name for alias in node.names]
            if "_EDGE_BLOCK" in names:
                named.append(f"{path.name}:{node.lineno}")
    assert named and {n.split(":")[0] for n in named} == {"geometry.py"}


def path_score(frames, path, params):
    """Sum of link scores along an explicit path (oracle)."""
    if len(frames) == 1:
        return frames[0][path[0]].score
    total = 0.0
    for t in range(len(frames) - 1):
        total += linking_score(frames[t][path[t]], frames[t + 1][path[t + 1]], params)
    return total


def exhaustive_best(frames, params):
    """First-maximum over lexicographically ordered paths (oracle)."""
    best_path = None
    best = -float("inf")
    for path in itertools.product(*(range(len(f)) for f in frames)):
        total = path_score(frames, list(path), params)
        if total > best:
            best = total
            best_path = list(path)
    return best_path, best


class TestViterbi:
    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError):
            viterbi_link([], LinkingParams())
        with pytest.raises(ValueError):
            viterbi_link([[det(0, 0, 1, 1, 0.5)], []], LinkingParams())

    @pytest.mark.parametrize(
        "frames, message",
        [
            # the middle frame mixes classes; the backward pass meets the
            # class-1 candidate against frame 2 first
            (
                [
                    [det(0, 0, 10, 10, 0.9)],
                    [det(0, 0, 10, 10, 0.8), det(1, 1, 11, 11, 0.7, class_id=1)],
                    [det(1, 1, 11, 11, 0.5)],
                ],
                "cannot link detections of different classes (1 vs 0)",
            ),
            # adjacent frames of different classes
            (
                [
                    [det(0, 0, 10, 10, 0.9), det(1, 1, 11, 11, 0.2)],
                    [det(0, 0, 10, 10, 0.8, class_id=2)],
                ],
                "cannot link detections of different classes (0 vs 2)",
            ),
            # one frame has no links; its detections meet its first one
            (
                [[det(0, 0, 10, 10, 0.9, class_id=3), det(1, 1, 11, 11, 0.5, class_id=1)]],
                "cannot link detections of different classes (3 vs 1)",
            ),
        ],
    )
    def test_class_mismatch_message(self, frames, message):
        with pytest.raises(ValueError) as info:
            viterbi_link(frames, LinkingParams())
        assert str(info.value) == message

    def test_single_frame_picks_highest_score(self):
        frames = [[det(0, 0, 1, 1, 0.2), det(0, 0, 1, 1, 0.9), det(0, 0, 1, 1, 0.9)]]
        path, total = viterbi_link(frames, LinkingParams())
        assert path == [1]  # first of the tied best
        assert total == 0.9

    def test_single_candidate_per_frame(self):
        frames = [
            [det(0, 0, 10, 10, 0.8)],
            [det(0, 0, 10, 10, 0.6)],
            [det(0, 0, 10, 10, 0.7)],
        ]
        path, total = viterbi_link(frames, LinkingParams(beta=0.5))
        assert path == [0, 0, 0]
        assert total == pytest.approx(0.5 * (0.8 + 0.6) + 0.5 + 0.5 * (0.6 + 0.7) + 0.5)

    def test_prefers_continuity_over_confidence(self):
        # a strong but displaced detection loses to a weaker one that overlaps
        frames = [
            [det(0, 0, 10, 10, 0.5)],
            [det(60, 60, 70, 70, 1.0), det(1, 0, 11, 10, 0.55)],
        ]
        path, _ = viterbi_link(frames, LinkingParams(beta=0.9))
        assert path == [0, 1]

    def test_matches_exhaustive_search(self):
        rng = np.random.default_rng(2024)
        for _ in range(120):
            n_frames = int(rng.integers(1, 7))
            frames = [
                [random_detection(rng) for _ in range(int(rng.integers(1, 5)))]
                for _ in range(n_frames)
            ]
            params = LinkingParams(beta=float(rng.choice([0.0, 0.3, 0.7, 1.0])))
            path, total = viterbi_link(frames, params)
            oracle_path, oracle_total = exhaustive_best(frames, params)
            assert path == oracle_path
            assert total == pytest.approx(oracle_total, abs=1e-9)
            # the reported total is reproducible from the path itself
            assert path_score(frames, path, params) == pytest.approx(total, abs=1e-9)

    def test_quantised_ties_match_exhaustive_search(self):
        # quantised boxes and scores make ties; the frames reuse one pool of
        # detections, within a frame and across frames
        rng = np.random.default_rng(77)
        for _ in range(15):
            pool = [quantised_detection(rng) for _ in range(6)]
            params = LinkingParams(beta=float(rng.choice([0.0, 0.5, 0.7, 1.0])))
            for _ in range(8):
                frames = [
                    [pool[i] for i in rng.integers(0, len(pool), size=int(rng.integers(1, 4)))]
                    for _ in range(int(rng.integers(1, 6)))
                ]
                oracle_path, oracle_total = exhaustive_best(frames, params)
                path, total = viterbi_link(frames, params)
                assert path == oracle_path
                assert total == pytest.approx(oracle_total, abs=1e-9)

    def test_beta_one_is_scale_invariant_in_scores(self):
        rng = np.random.default_rng(8)
        frames = [
            [random_detection(rng) for _ in range(3)] for _ in range(5)
        ]
        params = LinkingParams(beta=1.0)
        path_a, _ = viterbi_link(frames, params)
        halved = [
            [
                Detection(box=d.box, class_id=d.class_id, score=d.score / 2)
                for d in frame
            ]
            for frame in frames
        ]
        path_b, _ = viterbi_link(halved, params)
        assert path_a == path_b

    def test_dominating_detection_always_chosen(self):
        # one candidate per frame strictly dominates on both score and overlap
        rng = np.random.default_rng(55)
        for _ in range(20):
            frames = []
            x = 10.0
            for _t in range(4):
                good = det(x, 10, x + 20, 30, 0.95)
                bad = det(x + 60, 60, x + 70, 70, 0.05)
                frame = [bad, good] if rng.random() < 0.5 else [good, bad]
                frames.append(frame)
                x += 2.0
            params = LinkingParams(beta=float(rng.uniform(0.1, 0.9)))
            path, _ = viterbi_link(frames, params)
            for t, j in enumerate(path):
                assert frames[t][j].score == 0.95


def frame(idx, *dets):
    return FrameDetections(frame_index=idx, detections=tuple(dets))


def quantised_detection(rng, class_id=0):
    """A detection on a coarse grid with a score in tenths, so links tie."""
    x1, y1 = (float(v) for v in rng.integers(0, 6, size=2) * 5)
    w, h = (float(v) for v in rng.integers(1, 4, size=2) * 5)
    score = float(rng.integers(0, 11)) / 10.0
    return Detection(box=BoundingBox(x1, y1, x1 + w, y1 + h), class_id=class_id, score=score)


def crowded_video(rng, num_frames=9, num_classes=3, per_frame=5):
    """Quantised multi-class frames with a gap, a detection repeated within
    a frame and one detection object shared by two consecutive frames."""
    frames = [
        [
            quantised_detection(rng, class_id=int(rng.integers(0, num_classes)))
            for _ in range(per_frame)
        ]
        for _ in range(num_frames)
    ]
    frames[1].append(frames[1][0])
    frames[3].append(frames[2][-1])
    gap = num_frames // 2  # a frame without detections splits every run
    return [frame(t, *dets) for t, dets in enumerate(frames) if t != gap]


def reference_extract(video, params, max_tubes_per_class=10, min_mean_link_score=0.1):
    """extract_tubes from scratch: every round re-solves every run uncached."""
    tubes = []
    for class_id in sorted({d.class_id for fd in video for d in fd.detections}):
        remaining = {}
        for fd in video:
            dets = [d for d in fd.detections if d.class_id == class_id]
            if dets:
                remaining[fd.frame_index] = dets
        emitted = 0
        while remaining and emitted < max_tubes_per_class:
            runs = []
            for f in sorted(remaining):
                if runs and f == runs[-1][-1] + 1:
                    runs[-1].append(f)
                else:
                    runs.append([f])
            solved = []
            for run in runs:
                path, total = viterbi_link([remaining[f] for f in run], params)
                mean = total if len(run) == 1 else total / (len(run) - 1)
                solved.append(((-mean, run[0], -len(run)), run, path))
            (neg_mean, _, _), run, path = min(solved, key=lambda s: s[0])
            if -neg_mean < min_mean_link_score:
                break
            chosen = [remaining[f].pop(path[t]) for t, f in enumerate(run)]
            for f in run:
                if not remaining[f]:
                    del remaining[f]
            tubes.append(ActionTube(
                class_id=class_id,
                start_frame=run[0],
                boxes=tuple(d.box for d in chosen),
                scores=tuple(d.score for d in chosen),
            ))
            emitted += 1
    tubes.sort(key=tube_order)
    return tubes


def incremental_solves(video, params, max_tubes_per_class, min_mean_link_score):
    """What an incremental extraction solves, and why each class stopped.

    Per class the initial runs are solved; after each tube but the class's
    last allowed one, only the run it came from is split, and its non-empty
    sub-runs are solved. A solve is recorded as the ids of each frame's
    remaining detections.
    """
    solves, exits = [], set()
    for class_id in sorted({d.class_id for fd in video for d in fd.detections}):
        remaining = {}
        for fd in video:
            dets = [d for d in fd.detections if d.class_id == class_id]
            if dets:
                remaining[fd.frame_index] = dets
        pool = []

        def solve(frames):
            for run in reference_runs(frames):
                solves.append(tuple(tuple(map(id, remaining[f])) for f in run))
                path, total = viterbi_link([remaining[f] for f in run], params)
                mean = total if len(run) == 1 else total / (len(run) - 1)
                pool.append((mean, run, path))

        solve(remaining)
        for emitted in range(1, max_tubes_per_class + 1):
            if not pool:
                exits.add("empty")
                break
            best = max(pool, key=lambda c: (c[0], -c[1][0]))
            mean, run, path = best
            if mean < min_mean_link_score:
                exits.add("floor")
                break
            pool.remove(best)
            for f, j in zip(run, path):
                remaining[f].pop(j)
            if emitted < max_tubes_per_class:
                solve([f for f in run if remaining[f]])
        else:
            exits.add("cap")
    return solves, exits


def spy_on_solves(monkeypatch, record):
    """Call ``record(frames)`` before every solve, on either storage, with the
    remaining detections of each frame of the run."""
    best_path, best_block_path = linking._best_path, linking._best_block_path

    def rows_spy(frames, row):
        record(frames)
        return best_path(frames, row)

    def blocks_spy(frames, blocks, offsets):
        record([
            [d for d, offset in zip(frame, frame_offsets) if offset == 0.0]
            for frame, frame_offsets in zip(frames, offsets)
        ])
        return best_block_path(frames, blocks, offsets)

    monkeypatch.setattr(linking, "_best_path", rows_spy)
    monkeypatch.setattr(linking, "_best_block_path", blocks_spy)


def by_class_and_frame(video):
    """``{class id: {frame index: that frame's detections of the class}}``."""
    out = {}
    for fd in video:
        for d in fd.detections:
            out.setdefault(d.class_id, {}).setdefault(fd.frame_index, []).append(d)
    return out


def reference_runs(frame_indices):
    runs = []
    for f in sorted(frame_indices):
        if runs and f == runs[-1][-1] + 1:
            runs[-1].append(f)
        else:
            runs.append([f])
    return runs


class TestExtractTubes:
    def test_two_parallel_actors_two_tubes(self):
        video = []
        for t in range(6):
            a = det(10 + 2 * t, 10, 30 + 2 * t, 30, 0.9, class_id=0)
            b = det(200 - 2 * t, 50, 220 - 2 * t, 70, 0.8, class_id=1)
            video.append(frame(t, a, b))
        tubes = extract_tubes(video)
        assert len(tubes) == 2
        by_class = {t.class_id: t for t in tubes}
        assert by_class[0].length == 6
        assert by_class[1].length == 6
        assert by_class[0].start_frame == 0
        # output ordering: class ascending
        assert [t.class_id for t in tubes] == [0, 1]

    def test_same_class_overlapping_actors(self):
        video = []
        for t in range(5):
            a = det(10 + 2 * t, 10, 30 + 2 * t, 30, 0.9)
            b = det(150, 100, 170, 120, 0.7)
            video.append(frame(t, a, b))
        tubes = extract_tubes(video)
        assert len(tubes) == 2
        assert all(t.length == 5 for t in tubes)
        # stronger tube first at equal class and start
        assert tubes[0].tube_score >= tubes[1].tube_score

    def test_detections_never_reused(self):
        rng = np.random.default_rng(31)
        video = []
        for t in range(8):
            dets = [random_detection(rng) for _ in range(3)]
            video.append(frame(t, *dets))
        tubes = extract_tubes(video, min_mean_link_score=-10.0)
        used = set()
        for tube in tubes:
            for offset, box in enumerate(tube.boxes):
                key = (tube.start_frame + offset, box.as_tuple())
                assert key not in used
                used.add(key)

    def test_gap_splits_runs(self):
        video = [
            frame(0, det(10, 10, 30, 30, 0.9)),
            frame(1, det(12, 10, 32, 30, 0.9)),
            # frame 2 has no detections
            frame(3, det(16, 10, 36, 30, 0.9)),
            frame(4, det(18, 10, 38, 30, 0.9)),
        ]
        tubes = extract_tubes(video)
        assert len(tubes) == 2
        assert (tubes[0].start_frame, tubes[0].end_frame) == (0, 1)
        assert (tubes[1].start_frame, tubes[1].end_frame) == (3, 4)

    def test_weak_paths_filtered(self):
        video = [frame(0, det(0, 0, 10, 10, 0.01)), frame(1, det(50, 50, 60, 60, 0.01))]
        # the only link: 0.3 * 0.02 + 0.7 * 0 = 0.006 < 0.1
        assert extract_tubes(video) == []

    def test_nan_score_floor_rejected(self):
        video = [frame(0, det(0, 0, 10, 10, 0.9)), frame(1, det(0, 0, 10, 10, 0.9))]
        with pytest.raises(ValueError, match="min_mean_link_score must not be NaN"):
            extract_tubes(video, min_mean_link_score=float("nan"))

    def test_infinite_score_floors(self):
        # +inf lets no path pass, -inf is no floor at all
        video = [frame(0, det(0, 0, 10, 10, 0.01)), frame(1, det(50, 50, 60, 60, 0.01))]
        assert extract_tubes(video, min_mean_link_score=float("inf")) == []
        assert len(extract_tubes(video, min_mean_link_score=-float("inf"))) == 1

    def test_tube_cap(self):
        video = []
        for t in range(4):
            dets = [det(i * 30.0, 10, i * 30.0 + 20, 30, 0.9) for i in range(5)]
            video.append(frame(t, *dets))
        tubes = extract_tubes(video, max_tubes_per_class=3)
        assert len(tubes) == 3

    def test_long_strong_run_beats_early_noise(self):
        # a stray high-score single-frame blip must not eat the cap before
        # the genuine long tube is extracted
        video = [frame(0, det(200, 200, 210, 210, 0.95))]
        for t in range(2, 12):
            video.append(frame(t, det(10 + t, 10, 30 + t, 30, 0.9)))
        tubes = extract_tubes(video, max_tubes_per_class=1)
        assert len(tubes) == 1
        assert tubes[0].length == 10
        assert tubes[0].start_frame == 2

    def test_duplicate_frame_index_rejected(self):
        video = [frame(0, det(0, 0, 1, 1, 0.5)), frame(0, det(0, 0, 1, 1, 0.5))]
        with pytest.raises(ValueError):
            extract_tubes(video)

    def test_extracted_scores_come_from_detections(self):
        video = [
            frame(0, det(10, 10, 30, 30, 0.9)),
            frame(1, det(12, 10, 32, 30, 0.7)),
        ]
        (tube,) = extract_tubes(video)
        assert tube.scores == (0.9, 0.7)
        assert tube.tube_score == pytest.approx(0.8)

    def test_link_scores_helper_matches_scalar(self):
        tube = ActionTube(
            class_id=0,
            start_frame=0,
            boxes=(BoundingBox(0, 0, 10, 10), BoundingBox(0, 0, 10, 5), BoundingBox(0, 0, 10, 10)),
            scores=(0.8, 0.6, 0.4),
        )
        params = LinkingParams(beta=0.7)
        values = tube_link_scores(tube, params)
        assert len(values) == 2
        assert values[0] == 0.77
        for i, value in enumerate(values):
            a = Detection(box=tube.boxes[i], class_id=0, score=tube.scores[i])
            b = Detection(box=tube.boxes[i + 1], class_id=0, score=tube.scores[i + 1])
            assert value == linking_score(a, b, params)

    @pytest.mark.parametrize("seed", range(6))
    def test_cached_extraction_matches_uncached_reference(self, link_storage, seed):
        # the extraction keeps each class's link scores between solves; the
        # reference re-scores every run in every round. At beta 1 the score
        # term is multiplied by 0.0, so no score may stand in for a removed
        # detection (0.0 * -inf is NaN)
        rng = np.random.default_rng(seed)
        for per_frame in range(1, 9):
            video = crowded_video(rng, per_frame=per_frame)
            for beta in (0.0, 0.5, 1.0):
                params = LinkingParams(beta=beta)
                for floor, cap in ((0.1, 10), (-float("inf"), 10), (0.1, 2)):
                    tubes = extract_tubes(
                        video, params, max_tubes_per_class=cap, min_mean_link_score=floor
                    )
                    expected = reference_extract(video, params, cap, floor)
                    assert [(t.class_id, t.start_frame, t.boxes, t.scores) for t in tubes] == [
                        (t.class_id, t.start_frame, t.boxes, t.scores) for t in expected
                    ]

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize(
        "cap, floor, stop",
        [(2, -float("inf"), "cap"), (100, 0.5, "floor"), (100, -float("inf"), "empty")],
    )
    def test_only_split_runs_are_solved_again(
        self, monkeypatch, link_storage, seed, cap, floor, stop
    ):
        video = crowded_video(np.random.default_rng(seed), num_frames=11, per_frame=6)
        params = LinkingParams()
        # the model solves through viterbi_link, so it runs before the spy
        expected, exits = incremental_solves(video, params, cap, floor)
        solves = []
        spy_on_solves(monkeypatch, lambda frames: solves.append(
            tuple(tuple(map(id, frame)) for frame in frames)
        ))
        extract_tubes(video, params, max_tubes_per_class=cap, min_mean_link_score=floor)
        assert stop in exits
        assert sorted(solves) == sorted(expected)

    @pytest.mark.parametrize("cap", [2.5, 2.0, float("nan"), float("inf"), True, "3"])
    def test_non_integer_tube_cap_rejected(self, cap):
        video = [frame(0, det(0, 0, 10, 10, 0.9)), frame(1, det(0, 0, 10, 10, 0.9))]
        with pytest.raises(ValueError, match="^max_tubes_per_class must be an integer, got "):
            extract_tubes(video, max_tubes_per_class=cap)

    def test_tube_cap_below_one_keeps_its_message(self):
        video = [frame(0, det(0, 0, 10, 10, 0.9))]
        for cap in (0, -1, np.int64(0)):
            with pytest.raises(ValueError, match="^max_tubes_per_class must be at least 1$"):
                extract_tubes(video, max_tubes_per_class=cap)
        assert len(extract_tubes(video, max_tubes_per_class=np.int64(1))) == 1

    def test_each_pair_is_scored_once(self, monkeypatch, link_storage):
        # every consecutive-frame pair of a class goes through the batch
        # kernel exactly once, however often its run is solved again
        scalar_calls, kernel_edges, offered = [], [], []
        kernel = geometry._iou_arrays

        def counting_kernel(a, b):
            out = kernel(a, b)
            kernel_edges.append(out.size)
            return out

        monkeypatch.setattr(linking, "iou", lambda a, b: scalar_calls.append((a, b)))
        monkeypatch.setattr(geometry, "_iou_arrays", counting_kernel)
        spy_on_solves(monkeypatch, lambda frames: offered.extend(
            len(f) * len(g) for f, g in zip(frames, frames[1:])
        ))
        video = crowded_video(np.random.default_rng(3), per_frame=4)
        tubes = extract_tubes(video, min_mean_link_score=-float("inf"))
        assert len(tubes) > 3
        counts = {}  # (class, frame) -> detections
        for fd in video:
            for d in fd.detections:
                counts[d.class_id, fd.frame_index] = counts.get((d.class_id, fd.frame_index), 0) + 1
        pairs = sum(n * counts.get((c, f + 1), 0) for (c, f), n in counts.items())
        assert scalar_calls == []
        assert sum(kernel_edges) == pairs
        assert sum(offered) > pairs  # re-solves offer pairs again

    def test_dense_and_sparse_classes_in_one_video(self, monkeypatch):
        # class 0 is dense enough for link-score arrays and class 1 sparse
        # enough for row lists; together they match the uncached reference
        rng = np.random.default_rng(11)
        video = [
            frame(
                t,
                *(quantised_detection(rng, class_id=0) for _ in range(13)),
                *(quantised_detection(rng, class_id=1) for _ in range(1 + t % 3)),
            )
            for t in range(10)
            if t != 6
        ]
        storages = {}
        for name in ("_LinkRows", "_LinkBlocks"):
            def record(remaining, *scores, storage=getattr(linking, name), name=name):
                storages[next(iter(remaining.values()))[0].class_id] = name
                return storage(remaining, *scores)

            monkeypatch.setattr(linking, name, record)
        for beta in (0.0, 0.5, 1.0):
            params = LinkingParams(beta=beta)
            for floor, cap in ((0.1, 10), (-float("inf"), 20)):
                tubes = extract_tubes(video, params, max_tubes_per_class=cap, min_mean_link_score=floor)
                expected = reference_extract(video, params, cap, floor)
                assert [(t.class_id, t.start_frame, t.boxes, t.scores) for t in tubes] == [
                    (t.class_id, t.start_frame, t.boxes, t.scores) for t in expected
                ]
                assert storages == {0: "_LinkBlocks", 1: "_LinkRows"}

    def test_block_size_does_not_change_gapped_tubes(self, monkeypatch):
        # every class misses frames inside its span, so the detections of
        # frame f + 1 are gathered from the middle of the class's stack, and
        # small blocks split the pairs of one frame
        video = [
            frame(fd.frame_index, *(d for d in fd.detections if (fd.frame_index + d.class_id) % 4))
            for fd in crowded_video(np.random.default_rng(7), num_frames=16, per_frame=12)
        ]
        for c in range(3):
            present = {fd.frame_index for fd in video for d in fd.detections if d.class_id == c}
            assert len(reference_runs(present)) >= 3
        params = LinkingParams()
        expected = [
            (t.class_id, t.start_frame, t.boxes, t.scores)
            for t in reference_extract(video, params, min_mean_link_score=-float("inf"))
        ]
        for block in (1, 5, None):
            if block is not None:
                monkeypatch.setattr(geometry, "_EDGE_BLOCK", block)
            tubes = extract_tubes(video, params, min_mean_link_score=-float("inf"))
            assert [(t.class_id, t.start_frame, t.boxes, t.scores) for t in tubes] == expected

    def test_one_wide_frame_keeps_memory_small(self):
        # 60 frames of one class, one of them 300 detections wide: scoring the
        # pairs frame by frame needs 600 edges, while padding every frame to
        # the widest would need 60 * 300 * 300 per temporary (about 40 MB)
        rng = np.random.default_rng(9)
        video = [
            frame(t, *(random_detection(rng) for _ in range(300 if t == 30 else 1)))
            for t in range(60)
        ]
        tracemalloc.start()
        try:
            tubes = extract_tubes(video)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert tubes
        assert peak < 5_000_000


def reference_link_blocks(remaining, beta):
    """``_link_blocks``' table from one ``iou_matrix`` per frame pair (oracle)."""
    blocks = {}
    for f in sorted(remaining):
        here, after = remaining[f], remaining.get(f + 1, [])
        blocks[f] = linking._link_score(
            np.array([d.score for d in here])[:, None],
            np.array([d.score for d in after], dtype=np.float64)[None, :],
            iou_matrix([d.box for d in here], [d.box for d in after]),
            beta,
        )
    return blocks


@pytest.mark.parametrize("block", [1, 3, None])
def test_link_blocks_equal_a_per_frame_pair_reference(monkeypatch, block):
    # every class misses frames inside its span, so some frames have no
    # successor and the detections of frame f + 1 are gathered from the middle
    # of the class's stack; small pair blocks split the pairs of one frame
    if block is not None:
        monkeypatch.setattr(geometry, "_EDGE_BLOCK", block)
    video = [
        frame(fd.frame_index, *(d for d in fd.detections if (fd.frame_index + d.class_id) % 4))
        for fd in crowded_video(np.random.default_rng(5), num_frames=12, per_frame=9)
    ]
    classes = by_class_and_frame(video)
    assert len(classes) == 3
    for remaining in classes.values():
        for beta in (0.0, 0.7, 1.0):
            blocks = linking._link_blocks(remaining, beta)
            want = reference_link_blocks(remaining, beta)
            assert list(blocks) == list(want) == sorted(remaining)
            for f, got in blocks.items():
                assert got.shape == want[f].shape == (len(remaining[f]), len(remaining.get(f + 1, ())))
                assert (got == want[f]).all()
            # one flat array holds every block
            assert len({id(got.base) for got in blocks.values()}) == 1
        assert any(got.shape[1] == 0 for got in blocks.values())
        assert len(reference_runs(remaining)) >= 2


def test_fixtures_fall_on_both_sides_of_the_array_threshold():
    # the drifting scenes' classes solve on row lists, a crowded video with
    # about 13 detections per class and frame on link-score arrays
    def links_per_frame_pair(remaining):
        return linking._links_per_frame_pair(linking._link_blocks(remaining, 0.7))

    a = det(0, 0, 1, 1, 0.5)
    assert links_per_frame_pair({0: [a, a], 1: [a, a, a], 3: [a]}) == 6.0
    assert links_per_frame_pair({0: [a], 2: [a]}) == 0.0
    for spec in drifting_scene_specs(4):
        for remaining in by_class_and_frame(render_detections(generate_scene(spec))).values():
            assert links_per_frame_pair(remaining) < linking._ARRAY_MIN_LINKS
    crowded = by_class_and_frame(crowded_video(np.random.default_rng(0), per_frame=39))
    assert len(crowded) == 3
    for remaining in crowded.values():
        assert links_per_frame_pair(remaining) >= linking._ARRAY_MIN_LINKS
