import inspect
import operator
import re

import numpy as np
import pytest

from tubekit.geometry import (
    MAX_SCALE_DELTA,
    BoundingBox,
    boxes_to_array,
    decode_delta,
    encode_delta,
    iou,
)
from tubekit.anticipation import (
    STRATEGY_LEARNED,
    STRATEGY_NON_MOTION,
    STRATEGY_NONE,
    DEFAULT_TRAIN_EPOCHS,
    AnticipationModel,
    anticipate,
    anticipation_loss,
    anticipation_loss_grad,
    augment_proposals,
    build_training_set,
    feature_vector,
    smooth_l1,
    smooth_l1_grad,
    train_anticipation_model,
)
from tubekit.evaluation import StudyConfig, _replica, run_detection_pass
from tubekit.proposals import _assign_frames
from tubekit.synthdata import drifting_scene_specs

W, H = 320.0, 240.0


def test_smooth_l1_values():
    assert smooth_l1(0.0) == 0.0
    assert smooth_l1(0.5) == pytest.approx(0.125)
    assert smooth_l1(-0.5) == pytest.approx(0.125)
    assert smooth_l1(2.0) == pytest.approx(1.5)
    assert smooth_l1(-2.0) == pytest.approx(1.5)


def test_smooth_l1_continuous_at_the_kink():
    eps = 1e-9
    assert smooth_l1(1.0 - eps) == pytest.approx(smooth_l1(1.0 + eps), abs=1e-8)
    assert smooth_l1_grad(1.0 - eps) == pytest.approx(smooth_l1_grad(1.0 + eps), abs=1e-8)


def test_smooth_l1_grad_values():
    assert smooth_l1_grad(0.3) == pytest.approx(0.3)
    assert smooth_l1_grad(-0.3) == pytest.approx(-0.3)
    assert smooth_l1_grad(5.0) == 1.0
    assert smooth_l1_grad(-5.0) == -1.0


@pytest.mark.parametrize("x", [-3.0, -0.6, 0.0, 0.4, 0.99, 2.5])
def test_smooth_l1_grad_matches_central_differences(x):
    eps = 1e-6
    fd = (smooth_l1(x + eps) - smooth_l1(x - eps)) / (2 * eps)
    assert smooth_l1_grad(x) == pytest.approx(fd, abs=1e-8)


def test_smooth_l1_grad_is_elementwise():
    x = np.array([[-2.0, -0.25], [0.5, 4.0]])
    assert smooth_l1_grad(x).tolist() == [[-1.0, -0.25], [0.5, 1.0]]


def test_loss_single_positive_row():
    pred = np.array([[0.5, 0.0, 0.0, 0.0], [3.0, 3.0, 3.0, 3.0]])
    target = np.zeros((2, 4))
    positive = np.array([1.0, 0.0])
    # only row 0 counts: smooth_l1(0.5) = 0.125, normalized by N=2
    assert anticipation_loss(pred, target, positive) == pytest.approx(0.0625)


def test_loss_zero_when_no_positives_or_no_residual():
    pred = np.ones((3, 4))
    assert anticipation_loss(pred, np.zeros((3, 4)), np.zeros(3)) == 0.0
    assert anticipation_loss(pred, pred.copy(), np.ones(3)) == 0.0


def test_loss_rejects_bad_shapes():
    with pytest.raises(ValueError):
        anticipation_loss(np.zeros((0, 4)), np.zeros((0, 4)), np.zeros(0))
    with pytest.raises(ValueError):
        anticipation_loss(np.zeros((2, 4)), np.zeros((3, 4)), np.zeros(2))
    with pytest.raises(ValueError):
        anticipation_loss(np.zeros((2, 4)), np.zeros((2, 4)), np.zeros(3))


@pytest.mark.parametrize("fn", [anticipation_loss, anticipation_loss_grad])
@pytest.mark.parametrize(
    "pred_shape, target_shape, mask_shape",
    [
        ((0, 4), (0, 4), (0,)),
        ((2, 4), (3, 4), (2,)),
        ((2, 4), (2, 4), (3,)),
        ((2, 3), (2, 3), (2,)),
        ((2, 4), (2, 4), (2, 1)),
    ],
)
def test_loss_and_grad_reject_the_same_shapes(fn, pred_shape, target_shape, mask_shape):
    with pytest.raises(ValueError):
        fn(np.zeros(pred_shape), np.ones(target_shape), np.ones(mask_shape))


def test_grad_matches_central_differences():
    rng = np.random.default_rng(99)
    for _ in range(5):
        n = int(rng.integers(2, 7))
        pred = rng.normal(0, 2, size=(n, 4))
        target = rng.normal(0, 2, size=(n, 4))
        # keep residuals away from the |x| = 1 kink where the second
        # derivative jumps and finite differences lose accuracy
        resid = pred - target
        mask = np.abs(np.abs(resid) - 1.0) < 0.05
        pred[mask] += 0.2
        positive = (rng.random(n) < 0.6).astype(float)
        grad = anticipation_loss_grad(pred, target, positive)
        eps = 1e-6
        for i in range(n):
            for c in range(4):
                plus = pred.copy()
                plus[i, c] += eps
                minus = pred.copy()
                minus[i, c] -= eps
                fd = (
                    anticipation_loss(plus, target, positive)
                    - anticipation_loss(minus, target, positive)
                ) / (2 * eps)
                assert grad[i, c] == pytest.approx(fd, abs=1e-7)


def test_feature_vector_layout():
    box = BoundingBox(10, 20, 30, 60)
    phi = feature_vector(box, (1.5, -2.0), W, H)
    np.testing.assert_allclose(
        phi,
        [20 / W, 40 / H, np.log(20.0), np.log(40.0), 1.5, -2.0],
    )


def test_feature_vector_rejects_degenerate():
    with pytest.raises(ValueError):
        feature_vector(BoundingBox(5, 5, 5, 10), (0, 0), W, H)
    with pytest.raises(ValueError):
        feature_vector(BoundingBox(0, 0, 10, 10), (0, 0), 0, H)


def drifting_rows(velocity, gap, n_frames=60, seed=0):
    """Detections moving at a constant velocity paired with their future boxes."""
    rng = np.random.default_rng(seed)
    pairs = []
    for t in range(n_frames - gap):
        dets = []
        futures = []
        for lane in range(3):
            x = 20.0 + velocity[0] * t + 2.0 * lane
            y = 40.0 + velocity[1] * t + 30.0 * lane
            jx, jy = rng.normal(0, 0.3, size=2)
            box = BoundingBox(x + jx, y + jy, x + jx + 24, y + jy + 24)
            dets.append((box, (float(velocity[0]), float(velocity[1]))))
            fx = x + velocity[0] * gap
            fy = y + velocity[1] * gap
            futures.append(BoundingBox(fx, fy, fx + 24, fy + 24))
        pairs.append((dets, futures))
    return pairs


def test_build_training_set_counts_and_targets():
    gap = 4
    pairs = drifting_rows((2.0, 0.0), gap)
    ts = build_training_set(pairs, image_width=W, image_height=H)
    assert ts.features.shape[1] == 6
    assert ts.features.shape[0] == sum(len(d) for d, _ in pairs)
    assert ts.num_positive > 0
    # positive targets reproduce the exact encoded offset to the matched box
    row = int(np.nonzero(ts.positive)[0][0])
    assert not np.allclose(ts.targets[row], 0.0) or ts.positive[row]


def assign_one_frame(candidates, ground_truths):
    """``_assign_frames`` on one frame: (positive, matched_gt)."""
    return _assign_frames(
        boxes_to_array(candidates),
        [len(candidates)],
        boxes_to_array(ground_truths),
        [len(ground_truths)],
    )


def reference_build_training_set(frame_pairs, *, image_width, image_height):
    """The per-row builder: one frame pair labelled at a time."""
    feats, targets, positive = [], [], []
    for detections, future_boxes in frame_pairs:
        is_positive, matched_gt = assign_one_frame([b for b, _ in detections], list(future_boxes))
        for i, (box, motion) in enumerate(detections):
            if box.width <= 0.0 or box.height <= 0.0:
                continue
            feats.append(feature_vector(box, motion, image_width, image_height))
            if is_positive[i]:
                matched = future_boxes[int(matched_gt[i])]
                targets.append(np.array(encode_delta(box, matched).as_tuple(), dtype=np.float64))
                positive.append(True)
            else:
                targets.append(np.zeros(4, dtype=np.float64))
                positive.append(False)
    return (
        np.array(feats, dtype=np.float64).reshape(-1, 6),
        np.array(targets, dtype=np.float64).reshape(-1, 4),
        np.array(positive, dtype=bool),
    )


def detection_pairs(scene, frames, gap):
    """(detections at t, true boxes at t + gap) for every frame t of a pass."""
    return [
        (
            [(d.box, d.motion) for d in frames[t].detections],
            [box for _, box, _ in scene.frame_truth(t + gap)],
        )
        for t in range(scene.spec.num_frames - gap)
    ]


@pytest.mark.parametrize("gap", [1, 8, 29])
def test_build_training_set_matches_the_per_row_builder(gap):
    spec = drifting_scene_specs(1, num_frames=30)[0]
    scene, oracle, detector = _replica(spec, 0, "train")
    pairs = detection_pairs(scene, run_detection_pass(scene, oracle, detector), gap)
    # a frame with no detections, and a degenerate box among a frame's detections
    pairs.insert(len(pairs) // 2, ([], pairs[0][1]))
    degenerate = (BoundingBox(30.0, 40.0, 30.0, 90.0), (1.0, 0.0))
    pairs[0] = (pairs[0][0][:1] + [degenerate] + pairs[0][0][1:], pairs[0][1])
    size = dict(image_width=spec.width, image_height=spec.height)
    got = build_training_set(pairs, **size)
    want = reference_build_training_set(pairs, **size)
    assert got.num_positive > 0
    for array, expected in zip((got.features, got.targets, got.positive), want):
        assert (array.dtype, array.shape, array.tobytes()) == (
            expected.dtype, expected.shape, expected.tobytes()
        )


def test_build_training_set_empty():
    ts = build_training_set([], image_width=W, image_height=H)
    assert ts.features.shape == (0, 6)
    assert ts.num_positive == 0


def test_training_requires_positives():
    ts = build_training_set(
        [([(BoundingBox(0, 0, 10, 10), (0.0, 0.0))], [BoundingBox(200, 200, 210, 210)])],
        image_width=W,
        image_height=H,
    )
    # the far-away future box still gets its best candidate promoted, so
    # build an explicitly positive-free set instead
    from tubekit.anticipation import TrainingSet

    empty_pos = TrainingSet(
        features=ts.features,
        targets=ts.targets,
        positive=np.zeros_like(ts.positive),
    )
    with pytest.raises(ValueError):
        train_anticipation_model(empty_pos, gap=4)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"epochs": True}, "^epochs must be an integer, got True$"),
        ({"epochs": 2.5}, "^epochs must be an integer, got 2.5$"),
        (
            {"epochs": np.float64(3.0)},
            f"^epochs must be an integer, got {re.escape(repr(np.float64(3.0)))}$",
        ),
        ({"epochs": None}, "^epochs must be an integer, got None$"),
        ({"epochs": 0}, "^epochs must be at least 1$"),
        ({"epochs": -3}, "^epochs must be at least 1$"),
    ],
    ids=[
        "epochs-bool", "epochs-float", "epochs-numpy-float",
        "epochs-none", "epochs-zero", "epochs-negative",
    ],
)
def test_training_rejects_bad_arguments(kwargs, message):
    ts = build_training_set(drifting_rows((2.0, 1.0), 8), image_width=W, image_height=H)
    with pytest.raises(ValueError, match=message):
        train_anticipation_model(ts, gap=8, **kwargs)


def test_learning_rate_is_not_an_argument():
    ts = build_training_set(drifting_rows((2.0, 1.0), 8), image_width=W, image_height=H)
    with pytest.raises(TypeError, match="unexpected keyword argument 'learning_rate'"):
        train_anticipation_model(ts, gap=8, learning_rate=0.2)


def training_loss(model, training_set):
    """:func:`anticipation_loss` of ``model``'s raw offsets on its training rows."""
    phi = (training_set.features - model.feature_mean) / model.feature_scale
    predictions = phi @ model.weights.T + model.bias
    return anticipation_loss(predictions, training_set.targets, training_set.positive)


def random_training_set(fixture):
    """Random rows of one of four kinds.

    ``constant-column``: 120 rows, a constant feature column (a zero column
    in every solver system). ``all-positive`` and ``one-positive``: 2,500
    rows, every row positive or only one; the one row makes every solver
    system rank one, and its targets start outside the quadratic zone of
    smooth L1 in three outputs and inside it in one. ``outside-zone``: 300
    rows whose positive targets are all at least 1 from zero, so the zero
    model leaves no row in the quadratic zone and its Newton system empty.
    """
    from tubekit.anticipation import TrainingSet

    if fixture == "constant-column":
        rng = np.random.default_rng(3)
        n = 120
        features = rng.normal(0.0, 2.0, size=(n, 6))
        features[:, 5] = 0.7  # a constant column takes the unit-scale branch
        positive = rng.uniform(size=n) < 0.6
    elif fixture == "outside-zone":
        rng = np.random.default_rng(8)
        n = 300
        features = rng.normal(0.0, 1.0, size=(n, 6))
        positive = rng.uniform(size=n) < 0.5
        magnitude = 1.0 + rng.exponential(1.5, size=(n, 4))
        targets = np.where(positive[:, None], rng.choice([-1.0, 1.0], size=(n, 4)) * magnitude, 0.0)
        return TrainingSet(features=features, targets=targets, positive=positive)
    else:
        rng = np.random.default_rng(5)
        n = 2500
        features = rng.normal(0.0, 2.0, size=(n, 6))
        positive = np.ones(n, dtype=bool)
        if fixture == "one-positive":
            positive[:] = False
            positive[n // 3] = True
    targets = np.where(positive[:, None], rng.normal(0.0, 1.5, size=(n, 4)), 0.0)
    return TrainingSet(features=features, targets=targets, positive=positive)


FIXTURES = ["constant-column", "all-positive", "one-positive", "outside-zone"]


def test_the_random_fixtures_start_where_their_names_say():
    one = random_training_set("one-positive")
    starts_outside = np.abs(one.targets[one.positive]) >= 1.0
    assert one.num_positive == 1 and 0 < starts_outside.sum() < 4
    outside = random_training_set("outside-zone")
    assert (np.abs(outside.targets[outside.positive]) >= 1.0).all()


def descent_losses(training_set, checkpoints, lr=0.2):
    """Training loss of full-batch gradient descent on the public loss and
    gradient, from zero weights at rate ``lr``, after each checkpoint's
    number of epochs."""
    features = training_set.features
    scale = features.std(axis=0)
    scale = np.where(scale < 1e-8, 1.0, scale)
    phi = (features - features.mean(axis=0)) / scale
    targets = training_set.targets
    mask = training_set.positive.astype(np.float64)
    weights = np.zeros((4, 6))
    bias = np.zeros(4)
    losses = {}
    for epoch in range(1, max(checkpoints) + 1):
        grad = anticipation_loss_grad(phi @ weights.T + bias, targets, mask)
        weights -= lr * grad.T @ phi
        bias -= lr * grad.sum(axis=0)
        if epoch in checkpoints:
            losses[epoch] = anticipation_loss(phi @ weights.T + bias, targets, mask)
    return losses


@pytest.mark.parametrize("fixture", FIXTURES)
def test_training_gradient_vanishes_at_the_fit(fixture):
    ts = random_training_set(fixture)
    model = train_anticipation_model(ts, gap=4)
    phi = (ts.features - model.feature_mean) / model.feature_scale
    grad = anticipation_loss_grad(phi @ model.weights.T + model.bias, ts.targets, ts.positive)
    assert np.abs(grad.T @ phi).max() <= 1e-9
    assert np.abs(grad.sum(axis=0)).max() <= 1e-9


def at_most(loss, bound):
    """``loss <= bound`` up to the rounding of a sum over the rows: the fit
    and a converged descent can meet the same minimum by different paths."""
    return loss <= bound + 16 * np.finfo(np.float64).eps * bound


@pytest.mark.parametrize("fixture", FIXTURES)
def test_training_loss_at_most_descent(fixture):
    ts = random_training_set(fixture)
    loss = training_loss(train_anticipation_model(ts, gap=4), ts)
    for epochs, descent in descent_losses(ts, {1000, 5000}).items():
        assert at_most(loss, descent), epochs


@pytest.mark.parametrize("fixture", FIXTURES)
def test_training_loss_non_increasing_in_the_step_cap(fixture):
    ts = random_training_set(fixture)
    losses = [
        training_loss(train_anticipation_model(ts, gap=4, epochs=epochs), ts)
        for epochs in (1, 2, 5, 1000)
    ]
    assert all(later <= earlier for earlier, later in zip(losses, losses[1:]))
    zero = anticipation_loss(np.zeros_like(ts.targets), ts.targets, ts.positive)
    assert losses[-1] < zero


@pytest.mark.parametrize("epochs", [1, 2])
def test_the_step_cap_bounds_the_steps_per_output(monkeypatch, epochs):
    """A step solves for the Newton point and at most once more for the
    fallback point, so ``epochs`` steps make at most ``2 * epochs`` solves
    per output."""
    ts = random_training_set("constant-column")
    solves = []
    lstsq = np.linalg.lstsq

    def counting_lstsq(*args, **kwargs):
        solves.append(None)
        return lstsq(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", counting_lstsq)
    capped = train_anticipation_model(ts, gap=4, epochs=epochs)
    assert 4 <= len(solves) <= 2 * epochs * 4
    solves.clear()
    converged = train_anticipation_model(ts, gap=4)
    assert len(solves) > 2 * epochs * 4
    assert training_loss(converged, ts) < training_loss(capped, ts)


def test_trained_model_learns_constant_velocity():
    gap = 8
    velocity = (2.0, 0.0)
    pairs = drifting_rows(velocity, gap)
    ts = build_training_set(pairs, image_width=W, image_height=H)
    model = train_anticipation_model(ts, gap=gap, epochs=2000)

    box = BoundingBox(50, 60, 74, 84)
    predicted = model.predict_box(box, velocity, W, H)
    true_future = BoundingBox(50 + 16, 60, 74 + 16, 84)
    # learned anticipation lands near the true future position...
    assert iou(predicted, true_future) > 0.8
    cx_pred = predicted.center[0]
    assert cx_pred == pytest.approx(box.center[0] + 16.0, abs=3.0)
    # ...and beats the zero-motion persistence assumption
    assert iou(predicted, true_future) > iou(box, true_future)


def test_zero_motion_data_trains_to_identity():
    pairs = drifting_rows((0.0, 0.0), 8)
    ts = build_training_set(pairs, image_width=W, image_height=H)
    model = train_anticipation_model(ts, gap=8, epochs=800)
    # probe inside the training distribution (static lanes near x ~ 20-48)
    box = BoundingBox(21, 55, 45, 79)
    delta = model.predict_delta(box, (0.0, 0.0), W, H)
    assert abs(delta.tx) < 0.05
    assert abs(delta.ty) < 0.05
    assert abs(delta.tw) < 0.05
    assert abs(delta.th) < 0.05


def test_predict_delta_is_clamped_against_overflow():
    model = AnticipationModel(
        weights=np.full((4, 6), 1e6),
        bias=np.full(4, 1e6),
        gap=2,
        feature_mean=np.zeros(6),
        feature_scale=np.ones(6),
    )
    box = BoundingBox(10, 10, 20, 20)
    delta = model.predict_delta(box, (0.0, 0.0), W, H)
    assert abs(delta.tw) <= 10.0
    assert abs(delta.th) <= 10.0
    # decoding must not raise even for an absurd model
    decode_delta(box, delta)
    predicted = model.predict_box(box, (0.0, 0.0), W, H)
    assert 0 <= predicted.x1 <= predicted.x2 <= W


def old_clip_delta(model, box, motion):
    """``predict_delta`` as it was written with ``np.clip`` on numpy scalars."""
    phi = feature_vector(box, motion, W, H)
    phi = (phi - model.feature_mean) / model.feature_scale
    raw = model.weights @ phi + model.bias
    bound = MAX_SCALE_DELTA
    return (
        float(raw[0]),
        float(raw[1]),
        float(np.clip(raw[2], -bound, bound)),
        float(np.clip(raw[3], -bound, bound)),
    )


def test_predict_delta_matches_the_np_clip_formula_bit_for_bit():
    gap = 8
    ts = build_training_set(drifting_rows((2.0, -1.0), gap), image_width=W, image_height=H)
    trained = train_anticipation_model(ts, gap=gap, epochs=50)
    rng = np.random.default_rng(4)
    models = [trained]
    # biases past the clamp on both sides, one exactly on it, and weights
    # that carry some rows across it
    for tw, th in ((25.0, -25.0), (-MAX_SCALE_DELTA, MAX_SCALE_DELTA), (9.5, -9.5)):
        models.append(
            AnticipationModel(
                weights=rng.normal(0.0, 2.0, size=(4, 6)),
                bias=np.array([0.3, -0.2, tw, th]),
                gap=gap,
                feature_mean=trained.feature_mean,
                feature_scale=trained.feature_scale,
            )
        )
    probes = []
    for _ in range(200):
        x, y = rng.uniform(0.0, 280.0, size=2).tolist()
        w, h = rng.uniform(1.0, 60.0, size=2).tolist()
        motion = tuple(rng.normal(0.0, 3.0, size=2).tolist())
        probes.append((BoundingBox(x, y, x + w, y + h), motion))
    clamped = 0
    for model in models:
        for box, motion in probes:
            delta = model.predict_delta(box, motion, W, H)
            got = delta.as_tuple()
            assert all(type(v) is float for v in got)
            assert [v.hex() for v in got] == [v.hex() for v in old_clip_delta(model, box, motion)]
            clamped += sum(abs(v) == MAX_SCALE_DELTA for v in got[2:])
    assert clamped > 200


def test_anticipate_none_and_non_motion():
    dets = [
        (BoundingBox(0, 0, 10, 10), (1.0, 0.0)),
        (BoundingBox(-5, 5, 15, 25), (0.0, 0.0)),
    ]
    assert anticipate(STRATEGY_NONE, dets, image_width=W, image_height=H) == []
    repeated = anticipate(STRATEGY_NON_MOTION, dets, image_width=W, image_height=H)
    assert repeated[0] == BoundingBox(0, 0, 10, 10)
    assert repeated[1] == BoundingBox(0, 5, 15, 25)  # clipped into the image


@pytest.mark.parametrize("learned", [False, True])
def test_anticipate_skips_degenerate_boxes(learned):
    gap = 4
    strategy = STRATEGY_NON_MOTION
    if learned:
        ts = build_training_set(drifting_rows((1.0, 0.0), gap), image_width=W, image_height=H)
        strategy = train_anticipation_model(ts, gap=gap, epochs=20)
    good = [(BoundingBox(10, 10, 30, 40), (1.0, 0.0)), (BoundingBox(50, 60, 70, 75), (0.0, 2.0))]
    degenerate = [
        (BoundingBox(10, 10, 10, 20), (0.0, 0.0)),  # zero width
        (BoundingBox(10, 10, 20, 10), (1.0, 0.0)),  # zero height
        (BoundingBox(5, 5, 5, 5), (0.0, 0.0)),  # a point
    ]
    mixed = [degenerate[0], good[0], degenerate[1], degenerate[2], good[1]]
    size = dict(image_width=W, image_height=H)
    assert anticipate(strategy, degenerate, **size) == []
    assert anticipate(strategy, mixed, **size) == anticipate(strategy, good, **size)
    assert len(anticipate(strategy, good, **size)) == 2


def test_anticipate_rejects_unknown_strategy():
    with pytest.raises(ValueError):
        anticipate("teleport", [], image_width=W, image_height=H)


@pytest.mark.parametrize("strategy", [STRATEGY_LEARNED, None])
def test_anticipate_names_the_accepted_anticipators(strategy):
    # "learned" names the study's strategy; anticipate itself needs the trained model
    message = f"^anticipator must be a model, 'none' or 'non-motion', got {strategy!r}$"
    with pytest.raises(ValueError, match=message):
        anticipate(strategy, [], image_width=W, image_height=H)


def test_anticipate_strategy_names_are_distinct():
    assert len({STRATEGY_NONE, STRATEGY_NON_MOTION, STRATEGY_LEARNED}) == 3


def test_augment_proposals_appends_everything_in_order():
    proposals = [BoundingBox(float(i), 0.0, i + 10.0, 10.0) for i in range(3)]
    novel = [BoundingBox(500.0, 0.0, 520.0, 20.0)]
    anticipated = [proposals[0], novel[0], novel[0]]
    merged = augment_proposals(proposals, anticipated)
    assert merged == proposals + anticipated
    assert all(map(operator.is_, merged, proposals + anticipated))


def hexed(dets):
    return [
        (
            tuple(map(float.hex, d.box.as_tuple())),
            d.class_id,
            d.score.hex(),
            d.motion and tuple(map(float.hex, d.motion)),
        )
        for d in dets
    ]


@pytest.mark.parametrize("anticipator", [STRATEGY_NONE, STRATEGY_NON_MOTION, STRATEGY_LEARNED])
def test_duplicate_proposals_leave_every_detection_unchanged(anticipator):
    # the detector takes a later proposal only on a strictly higher overlap,
    # and an equal box would build the same detection, so appending copies of
    # oracle and anticipated boxes changes nothing on any frame
    gap = 4
    spec = drifting_scene_specs(1, num_frames=30)[0]
    size = dict(image_width=spec.width, image_height=spec.height)
    if anticipator == STRATEGY_LEARNED:
        scene, oracle, detector = _replica(spec, 0, "train")
        pairs = detection_pairs(scene, run_detection_pass(scene, oracle, detector), gap)
        anticipator = train_anticipation_model(build_training_set(pairs, **size), gap)
    scene, oracle, detector = _replica(spec, 0, "eval")
    frames = run_detection_pass(scene, oracle, detector, anticipator, gap)
    for t, frame in enumerate(frames):
        proposals = oracle.propose(t)
        if anticipator != STRATEGY_NONE and t >= gap:
            predicted = anticipate(
                anticipator, [(d.box, d.motion) for d in frames[t - gap].detections], **size
            )
            assert predicted
            proposals = augment_proposals(proposals, predicted)
        doubled = augment_proposals(
            proposals, [BoundingBox(*box.as_tuple()) for box in reversed(proposals)]
        )
        # the pass's detector remembers ``proposals`` and scores only the copies;
        # a fresh one scores the whole list
        assert hexed(detector.detect(t, doubled)) == hexed(frame.detections), t
        fresh = _replica(spec, 0, "eval")[2]
        assert hexed(fresh.detect(t, doubled)) == hexed(frame.detections), t


def test_model_validation():
    with pytest.raises(ValueError):
        AnticipationModel(
            weights=np.zeros((4, 6)),
            bias=np.zeros(4),
            gap=0,
            feature_mean=np.zeros(6),
            feature_scale=np.ones(6),
        )
    with pytest.raises(ValueError):
        AnticipationModel(
            weights=np.zeros((4, 6)),
            bias=np.zeros(4),
            gap=2,
            feature_mean=np.zeros(6),
            feature_scale=np.zeros(6),
        )


@pytest.mark.parametrize("name", ["weights", "bias", "feature_mean", "feature_scale"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_model_refuses_non_finite_arrays(name, bad):
    arrays = dict(
        weights=np.zeros((4, 6)),
        bias=np.zeros(4),
        feature_mean=np.zeros(6),
        feature_scale=np.ones(6),
    )
    arrays[name][-1] = bad
    with pytest.raises(ValueError, match=f"^{name} must be finite$"):
        AnticipationModel(gap=2, **arrays)


@pytest.mark.parametrize(
    "name, shape, message",
    [
        ("weights", (4, 5), "weights must be (4, 6)"),
        ("bias", (3,), "bias must be (4,)"),
        ("feature_mean", (5,), "feature stats must be (6,)"),
        ("feature_scale", (6, 1), "feature stats must be (6,)"),
    ],
)
def test_model_refuses_misshapen_arrays(name, shape, message):
    arrays = dict(
        weights=np.zeros((4, 6)),
        bias=np.zeros(4),
        feature_mean=np.zeros(6),
        feature_scale=np.ones(6),
    )
    arrays[name] = np.ones(shape)
    with pytest.raises(ValueError) as info:
        AnticipationModel(gap=2, **arrays)
    assert str(info.value) == message


def training_arrays(n=5):
    rng = np.random.default_rng(2)
    return dict(
        features=rng.normal(size=(n, 6)),
        targets=rng.normal(size=(n, 4)),
        positive=np.arange(n) % 2 == 0,
    )


@pytest.mark.parametrize("name", ["features", "targets"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_training_set_refuses_non_finite_arrays(name, bad):
    from tubekit.anticipation import TrainingSet

    arrays = training_arrays()
    arrays[name][1, 2] = bad
    with pytest.raises(ValueError, match=f"^{name} must be finite$"):
        TrainingSet(**arrays)


@pytest.mark.parametrize(
    "name, shape, message",
    [
        ("features", (5, 5), "features must be (N, 6)"),
        ("targets", (5, 3), "targets must be (N, 4) and positive (N,)"),
        ("targets", (4, 4), "targets must be (N, 4) and positive (N,)"),
        ("positive", (4,), "targets must be (N, 4) and positive (N,)"),
    ],
)
def test_training_set_refuses_misshapen_arrays(name, shape, message):
    from tubekit.anticipation import TrainingSet

    arrays = training_arrays()
    arrays[name] = np.zeros(shape, dtype=arrays[name].dtype)
    with pytest.raises(ValueError) as info:
        TrainingSet(**arrays)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "mask", [np.array([2, 0, 1, 0, 1]), np.array([1.0, 0.0, 1.0, 0.0, 1.0])]
)
def test_training_set_refuses_a_mask_that_is_not_boolean(mask):
    from tubekit.anticipation import TrainingSet

    arrays = training_arrays()
    arrays["positive"] = mask
    message = f"^positive must be a boolean mask, got dtype {mask.dtype}$"
    with pytest.raises(ValueError, match=message):
        TrainingSet(**arrays)


@pytest.mark.parametrize(
    "gap, message",
    [
        (0, "^gap must be at least 1$"),
        (2.5, "^gap must be an integer, got 2.5$"),
        (True, "^gap must be an integer, got True$"),
    ],
)
def test_model_gap_is_a_positive_integer(gap, message):
    with pytest.raises(ValueError, match=message):
        AnticipationModel(
            weights=np.zeros((4, 6)),
            bias=np.zeros(4),
            gap=gap,
            feature_mean=np.zeros(6),
            feature_scale=np.ones(6),
        )


def test_default_training_length_is_the_study_default():
    assert DEFAULT_TRAIN_EPOCHS == 1000
    default = inspect.signature(train_anticipation_model).parameters["epochs"].default
    assert default == DEFAULT_TRAIN_EPOCHS == StudyConfig().train_epochs
