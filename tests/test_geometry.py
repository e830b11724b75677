import copy
import dataclasses
import math
import pickle
import sys
from fractions import Fraction

import numpy as np
import pytest

from tubekit import geometry
from tubekit.geometry import (
    MAX_SCALE_DELTA,
    BoundingBox,
    BoxDelta,
    _group_pairs,
    _iou_arrays,
    boxes_to_array,
    clip,
    clip_visible,
    decode_delta,
    encode_delta,
    iou,
    iou_matrix,
    nms,
)


def random_box(rng, lo=0.0, hi=100.0, min_size=1.0, max_size=40.0):
    x1 = rng.uniform(lo, hi)
    y1 = rng.uniform(lo, hi)
    return BoundingBox(
        x1, y1, x1 + rng.uniform(min_size, max_size), y1 + rng.uniform(min_size, max_size)
    )


def reference_iou(a, b):
    """The IoU as first written, through max/min and ``area`` (oracle)."""
    ix1 = max(a.x1, b.x1)
    iy1 = max(a.y1, b.y1)
    ix2 = min(a.x2, b.x2)
    iy2 = min(a.y2, b.y2)
    inter = max(0.0, ix2 - ix1) * max(0.0, iy2 - iy1)
    union = a.area + b.area - inter
    if union <= 0.0:
        return 0.0
    return inter / union


class TestBoundingBox:
    def test_properties(self):
        box = BoundingBox(1.0, 2.0, 5.0, 10.0)
        assert box.width == 4.0
        assert box.height == 8.0
        assert box.area == 32.0
        assert box.center == (3.0, 6.0)

    def test_zero_area_allowed(self):
        box = BoundingBox(3.0, 3.0, 3.0, 3.0)
        assert box.area == 0.0

    def test_inverted_corners_rejected(self):
        with pytest.raises(ValueError):
            BoundingBox(5.0, 0.0, 4.0, 10.0)
        with pytest.raises(ValueError):
            BoundingBox(0.0, 5.0, 10.0, 4.0)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            BoundingBox(0.0, 0.0, float("nan"), 10.0)
        with pytest.raises(ValueError):
            BoundingBox(0.0, float("inf"), 10.0, 10.0)

    @pytest.mark.parametrize(
        "corners, error, message",
        [
            ((math.nan, 0, 1, 1), ValueError, "box coordinate x1 must be finite"),
            ((0, math.nan, 1, 1), ValueError, "box coordinate y1 must be finite"),
            ((0, 0, math.inf, 1), ValueError, "box coordinate x2 must be finite"),
            ((-math.inf, 0, 1, 1), ValueError, "box coordinate x1 must be finite"),
            ((0, 0, 1, -math.inf), ValueError, "box coordinate y2 must be finite"),
            ((-math.inf, 0, math.inf, 1), ValueError, "box coordinate x1 must be finite"),
            ((2, 0, 1, 1), ValueError, "invalid box corners (2, 0, 1, 1)"),
            ((0, 2, 1, 1), ValueError, "invalid box corners (0, 2, 1, 1)"),
            ((0.5, 0.0, -0.5, 1.0), ValueError, "invalid box corners (0.5, 0.0, -0.5, 1.0)"),
            ((10**400, 0, 1, 1), OverflowError, "int too large to convert to float"),
            ((0, 0, 1, 10**400), OverflowError, "int too large to convert to float"),
            (("a", 0, 1, 1), TypeError, "must be real number, not str"),
            ((0, 0, 1, "b"), TypeError, "must be real number, not str"),
            ((0, 0, 1, None), TypeError, "must be real number, not NoneType"),
        ],
    )
    def test_rejection_type_and_message(self, corners, error, message):
        with pytest.raises(error) as info:
            BoundingBox(*corners)
        assert type(info.value) is error
        assert str(info.value) == message

    def test_extreme_finite_corners_accepted(self):
        big = float.fromhex("0x1.fffffffffffffp+1023")
        assert BoundingBox(-big, -big, big, big).x2 == big
        assert BoundingBox(-0.0, 0.0, 0.0, -0.0).area == 0.0
        assert BoundingBox(0, 0, 10**300, 1).x2 == 10**300


@dataclasses.dataclass(frozen=True)
class ReferenceBox:
    """BoundingBox as first written: a frozen dataclass checked in __post_init__ (oracle)."""

    x1: float
    y1: float
    x2: float
    y2: float

    def __post_init__(self) -> None:
        for name in ("x1", "y1", "x2", "y2"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"box coordinate {name} must be finite")
        if self.x2 < self.x1 or self.y2 < self.y1:
            raise ValueError(
                f"invalid box corners ({self.x1}, {self.y1}, {self.x2}, {self.y2})"
            )


_MAX = sys.float_info.max
# every kind of corner a caller can pass: the fast path takes only the first row
CORNER_VALUES = [
    0.0, 1.5, -2.25, 1e16,
    0, 3, -4, True, False,
    10**300, -(10**300), 10**400, -(10**400),
    -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, _MAX, -_MAX,
    math.nan, math.inf, -math.inf,
    np.float64(1.5), np.float64(math.nan), np.float64(-math.inf), np.int64(2),
    Fraction(1, 3), "a", None,
]


def typed_corners(box):
    return [(type(v), repr(v)) for v in (box.x1, box.y1, box.x2, box.y2)]


def construction_outcome(make, corners):
    """``make(*corners)``'s corners with their types, or its exception's type and message."""
    try:
        return typed_corners(make(*corners))
    except (ValueError, TypeError, OverflowError) as exc:
        return type(exc), str(exc)


class TestBoundingBoxConstruction:
    @pytest.mark.parametrize("position", range(4))
    @pytest.mark.parametrize("value", CORNER_VALUES, ids=repr)
    def test_one_corner_matches_reference(self, value, position):
        corners = [0.0, 0.0, 1.0, 1.0]
        corners[position] = value
        assert construction_outcome(BoundingBox, corners) == construction_outcome(
            ReferenceBox, corners
        )

    def test_random_corners_match_reference(self):
        rng = np.random.default_rng(3)
        for _ in range(3000):
            corners = [CORNER_VALUES[i] for i in rng.integers(0, len(CORNER_VALUES), 4)]
            assert construction_outcome(BoundingBox, corners) == construction_outcome(
                ReferenceBox, corners
            ), corners

    def test_random_float_corners_match_reference(self):
        rng = np.random.default_rng(4)
        for corners in rng.normal(0.0, 10.0, size=(3000, 4)).tolist():
            assert construction_outcome(BoundingBox, corners) == construction_outcome(
                ReferenceBox, corners
            ), corners

    def test_frozen(self):
        box = BoundingBox(0.0, 0.0, 1.0, 1.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            box.x1 = 0.5
        with pytest.raises(dataclasses.FrozenInstanceError):
            del box.y2
        assert box.as_tuple() == (0.0, 0.0, 1.0, 1.0)

    def test_replace_checks_the_new_corners(self):
        box = BoundingBox(0.0, 0.0, 1.0, 1.0)
        assert dataclasses.replace(box, x2=2.0) == BoundingBox(0.0, 0.0, 2.0, 1.0)
        with pytest.raises(ValueError, match=r"^invalid box corners \(0.0, 0.0, -1.0, 1.0\)$"):
            dataclasses.replace(box, x2=-1.0)

    def test_equality_hash_and_repr(self):
        box = BoundingBox(0.5, 1.0, 2.0, 3.0)
        assert box == BoundingBox(0.5, 1.0, 2.0, 3.0)
        assert box == BoundingBox(0.5, 1, 2, 3)
        assert box != BoundingBox(0.5, 1.0, 2.0, 3.5)
        assert hash(box) == hash((0.5, 1.0, 2.0, 3.0))
        assert repr(box) == "BoundingBox(x1=0.5, y1=1.0, x2=2.0, y2=3.0)"

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_copies_keep_fields_and_types(self, protocol):
        box = BoundingBox(np.float64(0.5), 1, Fraction(3, 2), 2.0)
        for copied in (copy.deepcopy(box), pickle.loads(pickle.dumps(box, protocol))):
            assert copied == box
            assert typed_corners(copied) == typed_corners(box)

    def test_instances_are_slotted(self):
        box = BoundingBox(0.0, 0.0, 1.0, 1.0)
        assert not hasattr(box, "__dict__")
        with pytest.raises((AttributeError, TypeError)):
            object.__setattr__(box, "label", "x")


class TestIoU:
    def test_identity(self):
        a = BoundingBox(0, 0, 10, 10)
        assert iou(a, a) == 1.0

    def test_disjoint(self):
        assert iou(BoundingBox(0, 0, 10, 10), BoundingBox(20, 20, 30, 30)) == 0.0

    def test_half_overlap(self):
        # intersection 5*10 = 50, union 100 + 100 - 50 = 150
        value = iou(BoundingBox(0, 0, 10, 10), BoundingBox(5, 0, 15, 10))
        assert value == pytest.approx(50.0 / 150.0)

    def test_degenerate_boxes(self):
        point = BoundingBox(5, 5, 5, 5)
        assert iou(point, point) == 0.0
        assert iou(point, BoundingBox(0, 0, 10, 10)) == 0.0

    def test_symmetry_and_range(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            a, b = random_box(rng), random_box(rng)
            ab, ba = iou(a, b), iou(b, a)
            assert ab == ba
            assert 0.0 <= ab <= 1.0

    def test_matrix_matches_scalar(self):
        rng = np.random.default_rng(5)
        special = [
            BoundingBox(10, 10, 10, 30),  # zero width
            BoundingBox(10, 10, 30, 10),  # zero height
            BoundingBox(0, 0, 0, 0),  # a point
            BoundingBox(10, 10, 30, 30),
            BoundingBox(30, 10, 50, 30),  # touches the previous box's edge
            BoundingBox(10, 10, 30, 30),  # identical to it
        ]
        boxes_a = [random_box(rng) for _ in range(7)] + special
        boxes_b = [random_box(rng) for _ in range(9)] + special
        mat = iou_matrix(boxes_a, boxes_b)
        assert mat.shape == (13, 15)
        for i, a in enumerate(boxes_a):
            for j, b in enumerate(boxes_b):
                assert mat[i, j] == iou(a, b)

    def test_batch_kernel_broadcasts_over_leading_axes(self):
        rng = np.random.default_rng(23)
        special = [
            BoundingBox(10, 10, 10, 30),  # zero width
            BoundingBox(0, 0, 0, 0),  # a point
            BoundingBox(10, 10, 30, 30),
            BoundingBox(30, 10, 50, 30),  # touches the previous box's edge
        ]
        groups_a = [[random_box(rng) for _ in range(5)] + special for _ in range(3)]
        groups_b = [special + [random_box(rng) for _ in range(6)] for _ in range(3)]
        a = np.stack([boxes_to_array(g) for g in groups_a])
        b = np.stack([boxes_to_array(g) for g in groups_b])
        stacked = _iou_arrays(a, b)
        assert stacked.shape == (3, 9, 10)
        for k in range(3):
            assert (stacked[k] == _iou_arrays(a[k], b[k])).all()
            for i, box_a in enumerate(groups_a[k]):
                for j, box_b in enumerate(groups_b[k]):
                    assert stacked[k, i, j] == iou(box_a, box_b)
        # one group against every group, and pair by pair (one box a side)
        assert (_iou_arrays(a[:1], b) == np.stack([_iou_arrays(a[0], g) for g in b])).all()
        pairwise = _iou_arrays(a[0][:, None], b[0][:9, None])
        assert pairwise.shape == (9, 1, 1)
        assert pairwise[:, 0, 0].tolist() == [
            iou(p, q) for p, q in zip(groups_a[0], groups_b[0][:9])
        ]

    def test_matches_reference_bit_for_bit(self):
        rng = np.random.default_rng(17)
        # half continuous, half on a coarse grid so that shared edges,
        # identical boxes and zero-area boxes come up often
        boxes = [random_box(rng, hi=60.0, min_size=0.0) for _ in range(10_000)]
        grid = rng.integers(0, 8, size=(10_000, 4)) * 2.5
        boxes += [
            BoundingBox(min(x1, x2), min(y1, y2), max(x1, x2), max(y1, y2))
            for x1, y1, x2, y2 in grid.tolist()
        ]
        special = [
            BoundingBox(-0.0, -0.0, 0.0, 0.0),
            BoundingBox(0.0, 0.0, -0.0, -0.0),
            BoundingBox(-0.0, 0.0, 5.0, 5.0),
            BoundingBox(0.0, -0.0, 5.0, 5.0),
            BoundingBox(5.0, 0.0, 10.0, 5.0),  # shares an edge with the two above
            BoundingBox(0, 0, 5, 5),  # integer corners
            BoundingBox(3, 2, 9, 7),
            BoundingBox(3, 2, 3, 7),  # zero width
            BoundingBox(0.1, 0.2, 0.30000000000000004, 0.7),
        ]
        pairs = list(zip(boxes[0::2], boxes[1::2]))
        pairs += [(a, b) for a in special for b in special]
        pairs += [(a, a) for a in boxes[:100]]
        for a, b in pairs:
            assert iou(a, b).hex() == float(reference_iou(a, b)).hex(), (a, b)

    def test_matrix_empty(self):
        assert iou_matrix([], [BoundingBox(0, 0, 1, 1)]).shape == (0, 1)
        assert iou_matrix([BoundingBox(0, 0, 1, 1)], []).shape == (1, 0)


def reference_group_pairs(groups, other_groups):
    """``_group_pairs``' six arrays, as lists, from one ``iou_matrix`` per group (oracle)."""
    widths, first, src, local, dst, overlap = [], [], [], [], [], []
    row = offset = 0
    for rows, others in zip(groups, other_groups):
        matrix = iou_matrix(rows, others)
        for i in range(len(rows)):
            widths.append(len(others))
            first.append(len(src))
            for j in range(len(others)):
                src.append(row)
                local.append(j)
                dst.append(offset + j)
                overlap.append(float(matrix[i, j]))
            row += 1
        offset += len(others)
    return widths, first, src, local, dst, overlap


class TestGroupPairs:
    @pytest.mark.parametrize("block", [None, 1, 3])
    def test_matches_per_group_iou_matrix(self, monkeypatch, block):
        if block is not None:
            monkeypatch.setattr(geometry, "_EDGE_BLOCK", block)
        rng = np.random.default_rng(43)
        no_rows = no_others = 0
        for _ in range(40):
            sizes = rng.integers(0, 5, size=(int(rng.integers(0, 6)), 2)).tolist()
            groups = [[random_box(rng) for _ in range(n)] for n, _ in sizes]
            # an odd count of other rows ends with an exact copy of the group's first row
            other_groups = [
                [random_box(rng) for _ in range(m)] + g[:1] * (m % 2)
                for g, (_, m) in zip(groups, sizes)
            ]
            no_rows += sum(not g for g in groups)
            no_others += sum(not g for g in other_groups)
            got = _group_pairs(
                boxes_to_array([b for g in groups for b in g]),
                [len(g) for g in groups],
                boxes_to_array([b for g in other_groups for b in g]),
                [len(g) for g in other_groups],
            )
            want = reference_group_pairs(groups, other_groups)
            assert [a.tolist() for a in got] == list(want)
            assert [a.dtype for a in got[:5]] == [np.int64] * 5
        assert no_rows > 5 and no_others > 5

    def test_no_groups(self):
        got = _group_pairs(np.zeros((0, 4)), [], np.zeros((0, 4)), [])
        assert [a.tolist() for a in got] == [[]] * 6


class TestEncodeDecode:
    def test_encode_identity(self):
        box = BoundingBox(3, 4, 13, 24)
        assert encode_delta(box, box) == BoxDelta(0.0, 0.0, 0.0, 0.0)

    def test_encode_shift(self):
        delta = encode_delta(BoundingBox(0, 0, 10, 10), BoundingBox(5, 5, 15, 15))
        assert delta == BoxDelta(0.5, 0.5, 0.0, 0.0)

    def test_encode_rejects_degenerate(self):
        flat = BoundingBox(0, 0, 10, 0)
        good = BoundingBox(0, 0, 10, 10)
        with pytest.raises(ValueError):
            encode_delta(flat, good)
        with pytest.raises(ValueError):
            encode_delta(good, flat)

    def test_decode_identity(self):
        box = BoundingBox(2, 3, 9, 8)
        assert decode_delta(box, BoxDelta(0, 0, 0, 0)) == box

    def test_decode_shift(self):
        out = decode_delta(BoundingBox(0, 0, 10, 10), BoxDelta(0.5, 0.5, 0.0, 0.0))
        np.testing.assert_allclose(out.as_tuple(), (5, 5, 15, 15), atol=1e-12)

    def test_decode_doubling(self):
        out = decode_delta(
            BoundingBox(0, 0, 10, 10), BoxDelta(0.0, 0.0, math.log(2), math.log(2))
        )
        np.testing.assert_allclose(out.as_tuple(), (-5, -5, 15, 15), atol=1e-12)

    def test_decode_overflow_guard(self):
        box = BoundingBox(0, 0, 10, 10)
        with pytest.raises(ValueError):
            decode_delta(box, BoxDelta(0, 0, MAX_SCALE_DELTA + 0.1, 0))
        with pytest.raises(ValueError):
            decode_delta(box, BoxDelta(0, 0, 0, -MAX_SCALE_DELTA - 0.1))

    def test_round_trip(self):
        rng = np.random.default_rng(42)
        worst = 0.0
        for _ in range(300):
            source = random_box(rng)
            target = random_box(rng)
            recovered = decode_delta(source, encode_delta(source, target))
            worst = max(
                worst,
                max(
                    abs(r - t)
                    for r, t in zip(recovered.as_tuple(), target.as_tuple())
                ),
            )
        assert worst < 1e-9


class TestClip:
    def test_clamp(self):
        out = clip(BoundingBox(-5, -5, 15, 15), 10, 10)
        assert out == BoundingBox(0, 0, 10, 10)

    def test_interior_untouched(self):
        box = BoundingBox(1, 1, 4, 4)
        assert clip(box, 10, 10) == box

    def test_fully_outside_collapses(self):
        out = clip(BoundingBox(20, 20, 30, 30), 10, 10)
        assert out.area == 0.0
        assert out == BoundingBox(10, 10, 10, 10)

    def test_bad_dims(self):
        with pytest.raises(ValueError):
            clip(BoundingBox(0, 0, 1, 1), 0, 10)


class TestClipVisible:
    def test_inside_unchanged(self):
        box = BoundingBox(1, 2, 4, 8)
        assert clip_visible(box, 10, 10) == box

    def test_partly_outside_clipped(self):
        assert clip_visible(BoundingBox(-5, 3, 15, 12), 10, 10) == BoundingBox(0, 3, 10, 10)

    def test_fully_outside_is_none(self):
        assert clip_visible(BoundingBox(20, 20, 30, 30), 10, 10) is None

    def test_zero_width_after_clipping_is_none(self):
        # tall enough to keep height inside, but it only touches the right edge
        assert clip_visible(BoundingBox(10, 2, 14, 8), 10, 10) is None


def reference_clip(box, width, height):
    """``clip`` as one ``min(max(...))`` per corner."""
    if width <= 0 or height <= 0:
        raise ValueError("image dimensions must be positive")
    return BoundingBox(
        min(max(box.x1, 0.0), float(width)),
        min(max(box.y1, 0.0), float(height)),
        min(max(box.x2, 0.0), float(width)),
        min(max(box.y2, 0.0), float(height)),
    )


def reference_clip_visible(box, width, height):
    clipped = reference_clip(box, width, height)
    return clipped if clipped.area > 0 else None


def typed_hex(box):
    """Each corner's type and bits; None stays None."""
    if box is None:
        return None
    return tuple((type(v), float(v).hex()) for v in box.as_tuple())


_CLIP_BOXES = [
    BoundingBox(-0.0, -0.0, 5.0, 5.0),
    BoundingBox(-0.0, 2.0, -0.0, 3.0),
    BoundingBox(-5.0, -5.0, 15.0, 15.0),
    BoundingBox(-5.0, 3.0, 15.0, 12.0),
    BoundingBox(10.0, 2.0, 14.0, 8.0),
    BoundingBox(0.0, 0.0, 10.0, 10.0),
    BoundingBox(3.0, 3.0, 3.0, 3.0),
    BoundingBox(10.0, 10.0, 10.0, 10.0),
    BoundingBox(20.0, 20.0, 30.0, 30.0),
    BoundingBox(-30.0, -30.0, -20.0, -20.0),
    BoundingBox(-3, 2, 12, 9),
    BoundingBox(0, 0, 10, 10),
    BoundingBox(np.float64(-1.5), np.float64(2.0), np.float64(11.0), np.float64(4.0)),
    BoundingBox(np.int64(-2), np.int64(0), np.int64(10), np.int64(10)),
]


class TestClipMatchesMinMaxFormula:
    @pytest.mark.parametrize("width, height", [(10, 10), (10.0, 7.5), (np.int64(10), 8)])
    def test_edge_boxes(self, width, height):
        for box in _CLIP_BOXES:
            assert typed_hex(clip(box, width, height)) == typed_hex(
                reference_clip(box, width, height)
            ), box
            assert typed_hex(clip_visible(box, width, height)) == typed_hex(
                reference_clip_visible(box, width, height)
            ), box

    def test_random_edge_straddling_boxes(self):
        rng = np.random.default_rng(4)
        for _ in range(500):
            box = random_box(rng, lo=-30.0, hi=110.0, min_size=0.0)
            assert typed_hex(clip(box, 100, 80)) == typed_hex(reference_clip(box, 100, 80))
            assert typed_hex(clip_visible(box, 100, 80)) == typed_hex(
                reference_clip_visible(box, 100, 80)
            )

    @pytest.mark.parametrize("width, height", [(0, 10), (10, -1), (0.0, 0.0)])
    def test_bad_dims_raise_the_same_error(self, width, height):
        box = BoundingBox(0.0, 0.0, 1.0, 1.0)
        for call in (clip, clip_visible):
            with pytest.raises(ValueError, match="^image dimensions must be positive$"):
                call(box, width, height)


def brute_force_nms(dets, threshold):
    order = sorted(range(len(dets)), key=lambda i: (-dets[i][1], i))
    kept = []
    for i in order:
        if all(iou(dets[i][0], dets[k][0]) <= threshold for k in kept):
            kept.append(i)
    return kept


class TestNms:
    def test_single_box(self):
        assert nms([(BoundingBox(0, 0, 10, 10), 0.5)], 0.5) == [0]

    def test_duplicate_suppressed(self):
        box = BoundingBox(0, 0, 10, 10)
        assert nms([(box, 0.9), (box, 0.8)], 0.5) == [0]
        # and the higher score wins regardless of input order
        assert nms([(box, 0.8), (box, 0.9)], 0.5) == [1]

    def test_equal_scores_keep_lower_index(self):
        box = BoundingBox(0, 0, 10, 10)
        assert nms([(box, 0.7), (box, 0.7)], 0.5) == [0]

    def test_threshold_one_keeps_everything_but_exact_duplicates(self):
        a = BoundingBox(0, 0, 10, 10)
        b = BoundingBox(1, 0, 11, 10)
        # IoU(a, b) < 1 so both survive threshold 1.0
        assert sorted(nms([(a, 0.9), (b, 0.8)], 1.0)) == [0, 1]

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            nms([(BoundingBox(0, 0, 1, 1), 0.5)], 1.5)

    def test_empty(self):
        assert nms([], 0.5) == []

    def test_matches_brute_force(self):
        rng = np.random.default_rng(123)
        for trial in range(100):
            n = int(rng.integers(1, 9))
            boxes = [random_box(rng, hi=30.0, max_size=25.0) for _ in range(n)]
            # quantized scores to exercise ties, occasional duplicated boxes
            scores = [float(rng.integers(0, 5)) / 4.0 for _ in range(n)]
            if n >= 2 and trial % 3 == 0:
                boxes[1] = boxes[0]
            dets = list(zip(boxes, scores))
            threshold = float(rng.choice([0.1, 0.3, 0.5, 0.7, 0.9]))
            assert nms(dets, threshold) == brute_force_nms(dets, threshold)

    def test_kept_invariants(self):
        rng = np.random.default_rng(7)
        boxes = [random_box(rng, hi=40.0) for _ in range(50)]
        scores = [float(rng.uniform(0, 1)) for _ in range(50)]
        dets = list(zip(boxes, scores))
        kept = nms(dets, 0.5)
        kept_scores = [scores[i] for i in kept]
        assert kept_scores == sorted(kept_scores, reverse=True)
        for i in kept:
            for j in kept:
                if i != j:
                    assert iou(boxes[i], boxes[j]) <= 0.5
