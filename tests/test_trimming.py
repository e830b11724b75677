import itertools
import math

import numpy as np
import pytest

from tubekit.geometry import BoundingBox
from tubekit.linking import ActionTube, LinkingParams
from tubekit.trimming import (
    PENALTY_ABSOLUTE,
    PENALTY_SIGNED,
    TrimmingParams,
    avg_class_length,
    trim_interval,
    trim_tube,
    trim_tubes,
)


def brute_force_trim(scores, avg, mode):
    """Score every interval with plain left-to-right sums (oracle)."""
    best = None
    best_obj = -float("inf")
    n = len(scores)
    for s in range(n):
        for e in range(s + 1, n + 1):
            links = e - s
            total = 0.0
            for score in scores[s:e]:
                total += score
            mean = total / links
            dev = (links - avg) / avg
            pen = abs(dev) if mode == PENALTY_ABSOLUTE else dev
            obj = mean - pen
            if obj > best_obj:
                best_obj = obj
                best = (s, e)
    return best, best_obj


def tube_of(scores, class_id=0, start=0):
    """A tube with perfectly overlapping unit boxes so link IoU is 1."""
    box = BoundingBox(0, 0, 10, 10)
    return ActionTube(
        class_id=class_id,
        start_frame=start,
        boxes=(box,) * len(scores),
        scores=tuple(scores),
    )


class TestAvgClassLength:
    def test_single_tube(self):
        # 11 frames -> 10 links
        assert avg_class_length([tube_of([0.5] * 11)]) == {0: 10.0}

    def test_mean_over_class(self):
        tubes = [tube_of([0.5] * 5), tube_of([0.5] * 9)]  # 4 and 8 links
        assert avg_class_length(tubes) == {0: 6.0}

    def test_classes_kept_separate(self):
        tubes = [tube_of([0.5] * 5, class_id=0), tube_of([0.5] * 3, class_id=7)]
        assert avg_class_length(tubes) == {0: 4.0, 7: 2.0}

    def test_single_frame_tubes_contribute_zero(self):
        out = avg_class_length([tube_of([0.5]), tube_of([0.5] * 5)])
        assert out == {0: 2.0}


class TestTrimmingParams:
    def test_rejects_non_positive_average(self):
        with pytest.raises(ValueError):
            TrimmingParams(avg_length={0: 0.0})
        with pytest.raises(ValueError):
            TrimmingParams(avg_length={0: -3.0})
        for avg in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite and positive"):
                TrimmingParams(avg_length={0: avg})

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            TrimmingParams(avg_length={0: 5.0}, penalty_mode="quadratic")


class TestTrimInterval:
    def test_strong_core_weak_ends(self):
        scores = [0.1, 0.9, 0.9, 0.9, 0.1]
        (s, e), obj = trim_interval(scores, 3.0)
        # frames 1..4 cover the three strong links exactly: mean 0.9, penalty 0
        assert (s, e) == (1, 4)
        assert obj == pytest.approx(0.9)

    def test_full_interval_objective(self):
        scores = [0.1, 0.9, 0.9, 0.9, 0.1]
        n = len(scores)
        mean = sum(scores) / n
        full_obj = mean - abs((n - 3.0) / 3.0)
        # the full tube scores lower than the trimmed core
        (_, _), obj = trim_interval(scores, 3.0)
        assert obj > full_obj

    def test_constant_scores_pick_typical_length(self):
        # with constant links the mean is flat, so the penalty decides:
        # closest achievable interval to the typical length wins
        (s, e), _ = trim_interval([0.5] * 20, 10.0)
        assert e - s == 10
        assert (s, e) == (0, 10)  # earliest among equals

    def test_constant_scores_average_longer_than_tube(self):
        (s, e), _ = trim_interval([0.5] * 4, 100.0)
        assert (s, e) == (0, 4)  # longest available interval

    def test_signed_mode_rewards_short_intervals(self):
        scores = [0.5] * 10
        (s, e), obj = trim_interval(scores, 5.0, PENALTY_SIGNED)
        # signed penalty is negative below the average: a single link at
        # the earliest start maximizes the bonus
        assert (s, e) == (0, 1)
        assert obj == pytest.approx(0.5 - (1 - 5.0) / 5.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            trim_interval([], 5.0)
        for avg in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite and positive"):
                trim_interval([0.5], avg)
        with pytest.raises(ValueError):
            trim_interval([0.5], 5.0, "nope")

    @pytest.mark.parametrize("mode", [PENALTY_ABSOLUTE, PENALTY_SIGNED])
    def test_matches_brute_force_exactly(self, mode):
        rng = np.random.default_rng(77)
        for _ in range(100):
            n = int(rng.integers(1, 50))
            # quantized scores produce plenty of exact ties
            scores = [float(rng.integers(0, 5)) / 4.0 for _ in range(n)]
            avg = float(rng.choice([1.0, 2.0, 5.0, 10.0, 40.0]))
            got_iv, got_obj = trim_interval(scores, avg, mode)
            want_iv, want_obj = brute_force_trim(scores, avg, mode)
            assert got_iv == want_iv
            assert got_obj == want_obj  # bit-identical, not just close

    @pytest.mark.parametrize("mode", [PENALTY_ABSOLUTE, PENALTY_SIGNED])
    def test_matches_brute_force_on_a_long_unquantized_tube(self, mode):
        # rounding differs between summation orders only on inexact sums
        scores = np.random.default_rng(5).uniform(0.0, 1.3, size=240).tolist()
        assert trim_interval(scores, 37.5, mode) == brute_force_trim(scores, 37.5, mode)

    @pytest.mark.parametrize("mode", [PENALTY_ABSOLUTE, PENALTY_SIGNED])
    def test_matches_brute_force_across_start_blocks(self, mode):
        # starts are scored in blocks: tubes around and past one block; with
        # scores at or below zero a window running past the last link would
        # score higher than any real one
        rng = np.random.default_rng(31)
        for n, high in itertools.product((63, 64, 65, 130), (1, 5)):
            scores = [float(rng.integers(-4, high)) / 4.0 for _ in range(n)]
            for avg in (3.0, 200.0):
                assert trim_interval(scores, avg, mode) == brute_force_trim(scores, avg, mode)

    @pytest.mark.parametrize("mode", [PENALTY_ABSOLUTE, PENALTY_SIGNED])
    def test_overflowing_window_sums(self, mode):
        # finite scores whose window sums overflow to inf: the first inf
        # window wins, and no window past the last link turns into NaN
        for scores in ([1e308] * 3, [1e308, 1e308, -1e308, 5.0] * 40):
            with np.errstate(over="ignore"):
                got = trim_interval(scores, 2.0, mode)
            assert got == brute_force_trim(scores, 2.0, mode) == ((0, 2), math.inf)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite_scores(self, bad):
        with pytest.raises(ValueError, match="finite"):
            trim_interval([1.0, 0.9, bad], 2.0)

    def test_tie_break_prefers_earliest(self):
        # two equally good windows; the earlier one must win
        (s, e), _ = trim_interval([0.9, 0.1, 0.9], 1.0)
        assert (s, e) == (0, 1)


class TestTrimTube:
    def test_offsets_and_frames(self):
        tube = tube_of([0.1, 0.9, 0.9, 0.9, 0.1], start=100)
        params = TrimmingParams(avg_length={0: 3.0})
        # beta 0 makes link scores depend on confidence only:
        # links = s_i + s_{i+1} = [1.0, 1.8, 1.8, 1.0]... avg 3 links
        result = trim_tube(tube, params, LinkingParams(beta=0.0))
        assert result.tube.start_frame == tube.start_frame + result.start_offset
        assert result.tube.length == result.end_offset - result.start_offset + 1
        assert result.tube.scores == tube.scores[result.start_offset : result.end_offset + 1]

    def test_perfect_overlap_drops_weak_head(self):
        tube = tube_of([0.1, 0.9, 0.9, 0.9, 0.9], start=10)
        params = TrimmingParams(avg_length={0: 3.0})
        # beta 0: links are [1.0, 1.8, 1.8, 1.8]; the three trailing links
        # hit the typical length penalty-free with the best mean
        result = trim_tube(tube, params, LinkingParams(beta=0.0))
        assert result.start_offset == 1
        assert result.end_offset == 4
        assert result.objective == pytest.approx(1.8)
        assert result.tube.start_frame == 11
        assert result.tube.scores == (0.9, 0.9, 0.9, 0.9)

    def test_single_frame_rejected(self):
        with pytest.raises(ValueError):
            trim_tube(tube_of([0.5]), TrimmingParams(avg_length={0: 3.0}))

    def test_missing_class_named_in_error(self):
        tube = tube_of([0.5, 0.5], class_id=4)
        with pytest.raises(ValueError, match="class 4"):
            trim_tube(tube, TrimmingParams(avg_length={0: 3.0}))

    def test_result_never_outscores_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            length = int(rng.integers(2, 12))
            scores = [float(rng.integers(1, 10)) / 10.0 for _ in range(length)]
            tube = tube_of(scores)
            params = TrimmingParams(avg_length={0: float(rng.integers(1, 8))})
            result = trim_tube(tube, params)
            assert result.tube.length >= 2 or result.tube.length == 1
            assert tube.start_frame <= result.tube.start_frame
            assert result.tube.end_frame <= tube.end_frame


class TestTrimTubes:
    def test_batch_passthrough_for_single_frames(self):
        single = tube_of([0.7])
        long = tube_of([0.1, 0.9, 0.9, 0.9, 0.1])
        params = TrimmingParams(avg_length={0: 3.0})
        out = trim_tubes([single, long], params, LinkingParams(beta=0.0))
        assert out[0] is single
        assert out[1].length < long.length

    def test_batch_preserves_order(self):
        tubes = [tube_of([0.5] * 6, class_id=c) for c in (2, 0, 1)]
        params = TrimmingParams(avg_length={0: 4.0, 1: 4.0, 2: 4.0})
        out = trim_tubes(tubes, params)
        assert [t.class_id for t in out] == [2, 0, 1]
