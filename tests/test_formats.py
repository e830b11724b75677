import copy
import dataclasses
import hashlib
import json
import sys

import numpy as np
import pytest

import tubekit.formats as formats
from tubekit.geometry import BoundingBox, iou, iou_matrix
from tubekit.linking import ActionTube, Detection, FrameDetections
from tubekit.synthdata import ActorSpec, NoiseModel, SceneSpec, generate_scene, render_detections
from tubekit.formats import (
    FORMAT_VERSION,
    SchemaError,
    detections_from_dict,
    detections_to_dict,
    load_detections,
    load_scene_spec,
    load_tubes,
    read_json,
    scene_spec_from_dict,
    scene_spec_to_dict,
    tubes_from_dict,
    tubes_to_dict,
    write_json,
)


def sample_spec():
    return SceneSpec(
        video_id="clip-1",
        width=320,
        height=240,
        num_frames=50,
        actors=(
            ActorSpec(
                class_id=0,
                entry_frame=0,
                exit_frame=49,
                box=BoundingBox(10, 10, 50, 50),
                velocity=(1.5, -0.5),
                velocity_sigma=0.25,
            ),
            ActorSpec(
                class_id=3,
                entry_frame=5,
                exit_frame=30,
                box=BoundingBox(100, 100, 140, 160),
            ),
        ),
        noise=NoiseModel(sigma_loc=1.0, miss_rate=0.1, fp_rate=0.4),
        seed=12,
    )


def sample_frames():
    return [
        FrameDetections(
            frame_index=0,
            detections=(
                Detection(
                    box=BoundingBox(1, 2, 11, 12),
                    class_id=0,
                    score=0.75,
                    motion=(1.0, -0.5),
                ),
                Detection(box=BoundingBox(5, 5, 25, 25), class_id=1, score=0.25),
            ),
        ),
        FrameDetections(frame_index=2, detections=()),
        FrameDetections(
            frame_index=5,
            detections=(
                Detection(box=BoundingBox(3, 2, 13, 12), class_id=0, score=0.5),
            ),
        ),
    ]


def sample_tubes():
    return {
        "clip-1": [
            ActionTube(
                class_id=0,
                start_frame=4,
                boxes=(BoundingBox(0, 0, 10, 10), BoundingBox(2, 0, 12, 10)),
                scores=(0.9, 0.7),
            )
        ],
        "clip-2": [
            ActionTube(
                class_id=1,
                start_frame=0,
                boxes=(BoundingBox(50, 50, 80, 90),),
                scores=(0.4,),
            )
        ],
    }


class TestSceneSpecIO:
    def test_round_trip(self, tmp_path):
        spec = sample_spec()
        path = tmp_path / "spec.json"
        write_json(path, scene_spec_to_dict(spec))
        assert load_scene_spec(path) == spec

    def test_velocity_defaults_to_zero(self):
        data = scene_spec_to_dict(sample_spec())
        del data["actors"][0]["velocity"]
        del data["actors"][0]["velocity_sigma"]
        spec = scene_spec_from_dict(data)
        assert spec.actors[0].velocity == (0.0, 0.0)
        assert spec.actors[0].velocity_sigma == 0.0

    def test_missing_field_names_path(self):
        data = scene_spec_to_dict(sample_spec())
        del data["actors"][1]["entry_frame"]
        with pytest.raises(SchemaError, match=r"\$\.actors\[1\]"):
            scene_spec_from_dict(data)

    def test_semantic_error_names_path(self):
        data = scene_spec_to_dict(sample_spec())
        data["actors"][0]["exit_frame"] = 500  # beyond num_frames
        with pytest.raises(SchemaError):
            scene_spec_from_dict(data)

    def test_wrong_version_rejected(self):
        data = scene_spec_to_dict(sample_spec())
        data["format_version"] = 99
        with pytest.raises(SchemaError, match="format_version"):
            scene_spec_from_dict(data)

    def test_bad_box_rejected(self):
        data = scene_spec_to_dict(sample_spec())
        data["actors"][0]["box"] = [10, 10, 50]
        with pytest.raises(SchemaError, match=r"actors\[0\]\.box"):
            scene_spec_from_dict(data)


class TestDetectionsIO:
    def test_round_trip(self, tmp_path):
        frames = sample_frames()
        path = tmp_path / "dets.json"
        write_json(path, detections_to_dict("vid-7", frames))
        video_id, loaded = load_detections(path)
        assert video_id == "vid-7"
        assert loaded == frames

    def test_motion_is_optional(self):
        data = detections_to_dict("v", sample_frames())
        assert "motion" in data["frames"][0]["detections"][0]
        assert "motion" not in data["frames"][0]["detections"][1]
        _, loaded = detections_from_dict(data)
        assert loaded[0].detections[0].motion == (1.0, -0.5)
        assert loaded[0].detections[1].motion is None

    def test_frame_indices_must_increase(self):
        data = detections_to_dict("v", sample_frames())
        data["frames"][1]["frame_index"] = 0
        with pytest.raises(SchemaError, match="strictly increasing"):
            detections_from_dict(data)

    def test_missing_score_names_exact_path(self):
        data = detections_to_dict("v", sample_frames())
        del data["frames"][0]["detections"][1]["score"]
        with pytest.raises(SchemaError, match=r"\$\.frames\[0\]\.detections\[1\]"):
            detections_from_dict(data)

    def test_score_out_of_range_surfaces_as_schema_error(self):
        data = detections_to_dict("v", sample_frames())
        data["frames"][0]["detections"][0]["score"] = 1.5
        with pytest.raises(SchemaError):
            detections_from_dict(data)

    def test_boolean_is_not_a_number(self):
        data = detections_to_dict("v", sample_frames())
        data["frames"][0]["detections"][0]["score"] = True
        with pytest.raises(SchemaError):
            detections_from_dict(data)

    def test_non_increasing_index_in_a_float_file(self):
        box = BoundingBox(1.0, 2.0, 11.0, 12.0)
        frames = [FrameDetections(t, (Detection(box, 0, 0.5, (1.0, 0.5)),)) for t in range(5)]
        data = detections_to_dict("v", frames)
        data["frames"][3]["frame_index"] = 2
        message = r"^\$\.frames\[3\]\.frame_index: frame indices must be strictly increasing$"
        with pytest.raises(SchemaError, match=message):
            detections_from_dict(data)

    @pytest.mark.parametrize("first", [0, 4])
    def test_negative_index_is_reported_as_negative(self, first):
        box = BoundingBox(1.0, 2.0, 11.0, 12.0)
        frames = [FrameDetections(t, (Detection(box, 0, 0.5, (1.0, 0.5)),)) for t in range(5)]
        data = detections_to_dict("v", frames)
        data["frames"][first]["frame_index"] = -3
        message = rf"^\$\.frames\[{first}\]\.frame_index: frame_index must be non-negative$"
        with pytest.raises(SchemaError, match=message):
            detections_from_dict(data)

    def test_minus_one_first_index_is_reported_as_negative(self):
        # -1 is also where the walk's ordering check starts from
        data = detections_to_dict("v", sample_frames())
        data["frames"][0]["frame_index"] = -1
        message = r"^\$\.frames\[0\]\.frame_index: frame_index must be non-negative$"
        with pytest.raises(SchemaError, match=message):
            detections_from_dict(data)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("score", "high", "score: expected a number, got str"),
            ("score", 1.5, "detection score must be in [0, 1], got 1.5"),
            ("class_id", -1, "class_id must be non-negative"),
            ("bbox", [11.0, 2.0, 1.0, 12.0], "bbox: invalid box corners (11.0, 2.0, 1.0, 12.0)"),
        ],
        ids=["score-string", "score-range", "class-negative", "bbox-inverted"],
    )
    def test_first_error_in_file_order_is_reported(self, field, value, message):
        box = BoundingBox(1.0, 2.0, 11.0, 12.0)
        frames = [FrameDetections(t, (Detection(box, 0, 0.5, (1.0, 0.5)),)) for t in range(5)]
        data = detections_to_dict("v", frames)
        data["frames"][2]["detections"][0][field] = value
        data["frames"][3]["frame_index"] = 2  # a later error the walk must not reach
        with pytest.raises(SchemaError) as caught:
            detections_from_dict(data)
        assert str(caught.value).startswith("$.frames[2].detections[0]")
        assert str(caught.value).endswith(message)

    def test_whole_file_pass_matches_the_walk(self, tmp_path, monkeypatch):
        spec_doc, dets_doc, _ = _long_documents()
        write_json(tmp_path / "dets.json", dets_doc)
        data = read_json(tmp_path / "dets.json")
        rendered = render_detections(generate_scene(scene_spec_from_dict(spec_doc)))
        plain = formats._plain_frames(data["frames"])
        assert plain == rendered
        assert detections_from_dict(data) == ("long", plain)
        monkeypatch.setattr(formats, "_plain_frames", lambda frames: None)
        assert detections_from_dict(data) == ("long", plain)

    def test_frames_serialized_in_order(self):
        frames = list(reversed(sample_frames()))
        data = detections_to_dict("v", frames)
        indices = [f["frame_index"] for f in data["frames"]]
        assert indices == sorted(indices)


class TestTubesIO:
    def test_round_trip(self, tmp_path):
        tubes = sample_tubes()
        path = tmp_path / "tubes.json"
        write_json(path, tubes_to_dict(tubes))
        loaded = load_tubes(path)
        assert set(loaded) == set(tubes)
        for vid in tubes:
            assert loaded[vid] == tubes[vid]

    def test_box_count_must_match_span(self):
        data = tubes_to_dict(sample_tubes())
        data["tubes"][0]["end"] += 3
        with pytest.raises(SchemaError, match="boxes"):
            tubes_from_dict(data)

    def test_missing_scores_rejected(self):
        data = tubes_to_dict(sample_tubes())
        del data["tubes"][0]["scores"]
        with pytest.raises(
            SchemaError, match=r"^\$\.tubes\[0\]: missing required field 'scores'$"
        ):
            tubes_from_dict(data)

    def test_score_list_length_checked(self):
        data = tubes_to_dict(sample_tubes())
        data["tubes"][0]["scores"] = [0.5]
        with pytest.raises(SchemaError, match="scores"):
            tubes_from_dict(data)

    def test_inverted_span_rejected(self):
        data = tubes_to_dict(sample_tubes())
        data["tubes"][0]["start"] = data["tubes"][0]["end"] + 5
        with pytest.raises(SchemaError):
            tubes_from_dict(data)

    def test_entries_sorted_by_video_then_class(self):
        data = tubes_to_dict(sample_tubes())
        vids = [t["video_id"] for t in data["tubes"]]
        assert vids == sorted(vids)


def _set_scene_velocity(data, value):
    data["actors"][0]["velocity"][1] = value


def _set_detection_score(data, value):
    data["frames"][0]["detections"][1]["score"] = value


def _set_detection_corner(data, value):
    data["frames"][0]["detections"][0]["bbox"][2] = value


def _set_tube_score(data, value):
    data["tubes"][0]["scores"][0] = value


class TestNonFiniteNumbers:
    """json reads NaN, Infinity and overflowing literals; every schema rejects them."""

    @pytest.mark.parametrize(
        "to_dict, setter, value, load, field",
        [
            (
                lambda: scene_spec_to_dict(sample_spec()),
                _set_scene_velocity,
                float("inf"),
                load_scene_spec,
                r"\.actors\[0\]\.velocity\[1\]: expected a finite number$",
            ),
            (
                lambda: detections_to_dict("v", sample_frames()),
                _set_detection_score,
                float("nan"),
                load_detections,
                r"\.frames\[0\]\.detections\[1\]\.score: expected a finite number$",
            ),
            (
                lambda: detections_to_dict("v", sample_frames()),
                _set_detection_corner,
                10**400,
                load_detections,
                r"\.frames\[0\]\.detections\[0\]\.bbox\[2\]: expected a finite number$",
            ),
            (
                lambda: tubes_to_dict(sample_tubes()),
                _set_tube_score,
                float("nan"),
                load_tubes,
                r"\.tubes\[0\]\.scores\[0\]: expected a finite number$",
            ),
        ],
        ids=["scene-spec-inf", "detections-nan", "detections-huge-int", "tubes-nan"],
    )
    def test_rejected_with_path(self, tmp_path, to_dict, setter, value, load, field):
        data = to_dict()
        setter(data, value)
        path = tmp_path / "file.json"
        write_json(path, data)
        with pytest.raises(SchemaError, match=field):
            load(path)


def _set_scene_field(keys, value):
    def setter(data):
        target = data
        for key in keys[:-1]:
            target = target[key]
        target[keys[-1]] = value

    return setter


def _set_first_motion(value):
    def setter(data):
        data["frames"][0]["detections"][0]["motion"] = value

    return setter


class TestOptionalFields:
    """Optional fields are checked at their own path when present."""

    @pytest.mark.parametrize(
        "to_dict, parse, setter, message",
        [
            (
                lambda: scene_spec_to_dict(sample_spec()),
                scene_spec_from_dict,
                _set_scene_field(("actors", 0, "velocity_sigma"), "0.5"),
                "$.actors[0].velocity_sigma: expected a number, got str",
            ),
            (
                lambda: scene_spec_to_dict(sample_spec()),
                scene_spec_from_dict,
                _set_scene_field(("seed",), 1.0),
                "$.seed: expected an integer, got float",
            ),
            (
                lambda: scene_spec_to_dict(sample_spec()),
                scene_spec_from_dict,
                _set_scene_field(("noise",), []),
                "$.noise: expected an object, got list",
            ),
            (
                lambda: scene_spec_to_dict(sample_spec()),
                scene_spec_from_dict,
                _set_scene_field(("noise", "sigma_loc"), "1"),
                "$.noise.sigma_loc: expected a number, got str",
            ),
            (
                lambda: scene_spec_to_dict(sample_spec()),
                scene_spec_from_dict,
                _set_scene_field(("actors", 0, "velocity"), [1.0, 2.0, 3.0]),
                "$.actors[0].velocity: expected [vx, vy]",
            ),
            (
                lambda: scene_spec_to_dict(sample_spec()),
                scene_spec_from_dict,
                _set_scene_field(("actors", 0, "velocity"), "fast"),
                "$.actors[0].velocity: expected an array, got str",
            ),
            (
                lambda: detections_to_dict("v", sample_frames()),
                detections_from_dict,
                _set_first_motion([1.0]),
                "$.frames[0].detections[0].motion: expected [dx, dy]",
            ),
        ],
        ids=[
            "velocity-sigma-type",
            "seed-type",
            "noise-type",
            "noise-field-type",
            "velocity-length",
            "velocity-type",
            "motion-length",
        ],
    )
    def test_message_names_exact_path(self, to_dict, parse, setter, message):
        data = to_dict()
        setter(data)
        with pytest.raises(SchemaError) as info:
            parse(data)
        assert str(info.value) == message


def _long_documents():
    """The three schemas at the size of the benchmark's long CLI chain: 10 actors, 600 frames."""
    actors = tuple(
        ActorSpec(
            class_id=i % 2,
            entry_frame=10 * i,
            exit_frame=499 + 10 * i,
            box=BoundingBox(20 + 60 * i, 40.5, 70 + 60 * i, 120.25),
            velocity=(0.05, -0.02),
            velocity_sigma=0.05,
        )
        for i in range(10)
    )
    noise = NoiseModel(sigma_loc=2.0, miss_rate=0.0, fp_rate=0.3)
    spec = SceneSpec("long", 640, 480, 600, actors, noise, seed=0)
    scene = generate_scene(spec)
    return (
        scene_spec_to_dict(spec),
        detections_to_dict(spec.video_id, render_detections(scene)),
        tubes_to_dict({spec.video_id: list(scene.tubes)}),
    )


# every kind of value json.dumps writes, in lists, dicts and tuples
_EDGE_DOCUMENT = {
    "non-finite": [float("nan"), float("inf"), float("-inf"), 0.5],
    "floats": [-0.0, 1e-05, 1e16, 5e-324, 0.1],
    "scalars": [10**30, True, False, None, float("-inf"), 3, -0.0],
    "strings": ["\u00e9 \u2603 \U0001f600", "tab\tnl\n\x00\x1f\x7f", '"q" \\ /', ""],
    "\u00fcn\u00efcode key": {"b": [], "a": {}, "c": [[], {}, [[]], {"x": {}}]},
    "tuple": (1.5, (2.5, "t")),
    "numpy": [np.float64(0.1), np.float64("nan"), 2.0],
    "numpy scalar": np.float64(-2.5),
    "empty": "",
}


def _no_fallback(*args, **kwargs):
    raise AssertionError("write_json handed the document to json.dumps")


class TestJsonPlumbing:
    @pytest.mark.parametrize(
        "document",
        [*_long_documents(), _EDGE_DOCUMENT],
        ids=["scene-spec", "detections", "tubes", "edge-values"],
    )
    def test_bytes_match_json_dumps(self, tmp_path, monkeypatch, document):
        expected = json.dumps(document, sort_keys=True, indent=2) + "\n"
        # the writer's own encoder must produce these, not its fallback
        monkeypatch.setattr(json, "dumps", _no_fallback)
        write_json(tmp_path / "out.json", document)
        assert (tmp_path / "out.json").read_bytes() == expected.encode()

    @pytest.mark.parametrize(
        "rows",
        [
            [[0.5, 1.0, 10.25, 12.0], [-0.0, 5e-324, 1e16, 0.1], [2.5, 3.5, 4.5, 5.5]],
            [[1.0, 2.0, 3.0, 4.0]],
            [[0.1], [0.2], [0.3]],
            [[1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0]],
            [[1.0, 2.0], [1.0, 2.0, 3.0, 4.0]],
            [[1.0, float("nan"), 3.0, 4.0], [1.0, 2.0, 3.0, 4.0]],
            [[1.0, 2.0, 3.0, float("inf")], [float("-inf"), 2.0, 3.0, 4.0]],
            [[1.0, 2.0, 3.0, 4.0], [1.0, 2, 3.0, 4.0]],
            [[1.0, 2.0, 3.0, 4.0], [1.0, True, 3.0, 4.0]],
            [[1.0, 2.0, 3.0, 4.0], [1.0, np.float64(0.1), 3.0, 4.0]],
            [[], [], []],
            [[], [1.0]],
            [(1.0, 2.0, 3.0, 4.0), (5.0, 6.0, 7.0, 8.0)],
            [[1.0, 2.0, 3.0, 4.0], (5.0, 6.0, 7.0, 8.0)],
            [[1.0, 2.0, 3.0, 4.0], {"x": 1.0}],
            [[1.0, 2.0], {"x": [3.0, 4.0]}, [5.0, 6.0]],
            [[[1.0, 2.0]], [[3.0, 4.0]]],
            [[1.0, "2.0"], [3.0, 4.0]],
        ],
        ids=[
            "uniform", "single-box", "one-column", "ragged-short-last",
            "ragged-short-first", "nan", "infinities", "int", "bool", "numpy-float",
            "empty-rows", "empty-and-full", "tuples", "list-and-tuple",
            "list-and-dict", "dict-between-lists", "nested-lists", "string",
        ],
    )
    def test_float_rows_match_json_dumps(self, tmp_path, monkeypatch, rows):
        document = {"boxes": rows, "nested": {"boxes": rows}, "outer": [rows, rows]}
        expected = json.dumps(document, sort_keys=True, indent=2) + "\n"
        monkeypatch.setattr(json, "dumps", _no_fallback)
        write_json(tmp_path / "out.json", document)
        assert (tmp_path / "out.json").read_bytes() == expected.encode()

    @pytest.mark.parametrize(
        "rows",
        [
            [
                {"bbox": [1.0, 2.0, 3.0, 4.0], "class_id": 0, "score": 0.5, "motion": [0.5, -0.0]},
                {"bbox": [5e-324, 2.5, 1e16, 4.0], "class_id": 12, "score": 0.1, "motion": [1.0, 2.0]},
            ],
            [{"a": 1.0}],
            [{"class_id": 10**30, "score": -0.0}, {"class_id": -3, "score": 1e-05}],
            [{"bbox": [1.0, 2.0], "score": 0.5, "motion": [1.0, 2.0]}, {"bbox": [1.0, 2.0], "score": 0.5}],
            [{"a": 1.0, "b": 2.0}, {"a": 1.0, "c": 2.0}],
            [{"class_id": 0, "score": 0.5}, {"class_id": True, "score": 0.5}],
            [{"class_id": 0, "score": 0.5}, {"class_id": 1.0, "score": 0.5}],
            [{"score": 0.5}, {"score": 1}],
            [{"score": 0.5}, {"score": float("nan")}],
            [{"score": float("inf")}, {"score": 0.5}],
            [{"score": 0.5}, {"score": float("-inf")}],
            [{"score": 0.5}, {"score": np.float64(0.1)}],
            [{"bbox": [1.0, np.float64(2.0)]}, {"bbox": [3.0, 4.0]}],
            [{}],
            [{}, {}],
            [{"a": {"b": 1.0}}, {"a": {"b": 2.0}}],
            [{"bbox": [1.0, 2.0]}, {"bbox": (3.0, 4.0)}],
            [{"bbox": (1.0, 2.0)}, {"bbox": (3.0, 4.0)}],
            [{"bbox": []}, {"bbox": []}],
            [{"bbox": [1.0, 2.0]}, {"bbox": [3.0]}],
            [{"bbox": [1.0, float("nan")]}, {"bbox": [3.0, 4.0]}],
            [{"bbox": [1.0, 2]}, {"bbox": [3.0, 4.0]}],
            [{"video_id": "v", "score": 0.5}],
            [{"100%": 1.0, "%r %s": 2, "%%": [3.0]}],
            [{"a": 1.0}, [1.0]],
            [{"a": 1.0}, None],
            [{"d": [{"a": 1.0}, {"a": 2.0}], "i": 0}, {"d": [], "i": 1}, {"d": [{"a": 3.0}], "i": 2}],
            [{"d": [], "i": 0}, {"d": [], "i": 1}],
            [{"d": [{"a": 1.0}], "i": 0}, {"d": [{"b": 2.0}], "i": 1}],
            [{"d": [{"a": 1.0}, {"b": 2.0}], "i": 0}],
            [{"d": [{"a": 1.0}], "i": 0}, {"d": [[1.0]], "i": 1}],
            [{"d": [{"e": [{"a": 1.0}, {"a": 2.0}]}, {"e": []}]}, {"d": [{"e": [{"a": 3.0}]}]}],
            [{"d": [{"a": 1.0, "m": [0.5, 1.5]}], "%": 0}, {"d": [{"a": 2.0, "m": [2.5, 3.5]}] * 3, "%": 1}],
        ],
        ids=[
            "detections", "one-row", "int-and-float-columns", "motion-on-some-rows",
            "mixed-key-sets", "bool-class", "int-float-class", "int-float-score", "nan",
            "inf", "minus-inf", "numpy-float", "numpy-in-list", "empty-dict", "empty-dicts",
            "nested-dict", "tuple-for-list", "tuples", "empty-lists", "ragged-lists",
            "nan-in-list", "int-in-list", "string-column", "percent-keys", "dict-and-list",
            "dict-and-null", "record-lists", "empty-record-lists", "record-lists-of-two-shapes",
            "two-shapes-in-one-list", "record-and-list", "nested-record-lists",
            "record-lists-with-arrays",
        ],
    )
    def test_records_match_json_dumps(self, tmp_path, monkeypatch, rows):
        document = {"rows": rows, "nested": {"rows": rows}, "outer": [rows, rows]}
        expected = json.dumps(document, sort_keys=True, indent=2) + "\n"
        monkeypatch.setattr(json, "dumps", _no_fallback)
        write_json(tmp_path / "out.json", document)
        assert (tmp_path / "out.json").read_bytes() == expected.encode()

    def test_keys_that_are_not_strings_match_json_dumps(self, tmp_path):
        document = {"b": {2: "two", 1: "one"}, "a": {1.5: None, True: 0}}
        write_json(tmp_path / "out.json", document)
        expected = json.dumps(document, sort_keys=True, indent=2) + "\n"
        assert (tmp_path / "out.json").read_text() == expected

    def test_unencodable_value_raises_json_type_error(self, tmp_path):
        with pytest.raises(TypeError, match="^Object of type set is not JSON serializable$"):
            write_json(tmp_path / "out.json", {"a": [1.0, {2, 3}]})
        assert not (tmp_path / "out.json").exists()

    def test_written_files_are_canonical(self, tmp_path):
        path = tmp_path / "out.json"
        write_json(path, {"b": 1, "a": 2, "format_version": FORMAT_VERSION})
        text = path.read_text()
        assert text.endswith("\n")
        keys = json.loads(text)
        assert list(keys) == sorted(keys)

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(SchemaError, match="cannot read"):
            read_json(tmp_path / "missing.json")

    def test_invalid_json_reports_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"a": 1,}')
        with pytest.raises(SchemaError, match="line 1"):
            read_json(path)

    def test_non_object_top_level(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(SchemaError, match="object"):
            read_json(path)

    def test_schema_error_is_a_value_error(self):
        assert issubclass(SchemaError, ValueError)


def _frames_document(counts, motion, seed=0):
    """A detection file with ``counts[f]`` detections on its f-th frame, and a
    ``motion`` on "all", "none" or "some" (every other) detections."""
    rng = np.random.default_rng(seed)
    frames = []
    for f, n in enumerate(counts):
        dets = []
        for k in range(n):
            x, y = rng.uniform(0.0, 600.0, size=2).tolist()
            w, h = rng.uniform(0.5, 80.0, size=2).tolist()
            moves = motion == "all" or (motion == "some" and k % 2 == 0)
            dets.append(Detection(
                BoundingBox(x, y, x + w, y + h),
                k % 3,
                float(rng.uniform()),
                tuple(rng.normal(0.0, 2.0, size=2).tolist()) if moves else None,
            ))
        frames.append(FrameDetections(3 * f + 1, tuple(dets)))
    return detections_to_dict("v", frames)


# frames of 0, 1 and many detections, alone and mixed
_FRAME_COUNTS = {
    "empty-frame": [0],
    "one-detection": [1],
    "one-frame": [9],
    "mixed": [0, 1, 7, 0, 3, 1],
    "many": np.random.default_rng(5).integers(0, 14, size=80).tolist(),
}


def _set(document, frame, det, key, value, index=None):
    target = document["frames"][frame]["detections"][det]
    if index is None:
        target[key] = value
    else:
        target[key][index] = value
    return document


class TestWholeDetectionFile:
    """A detection file's frames are written from one template with one ``%``
    when all its detections have one shape, and otherwise frame by frame;
    either way its bytes are those of ``json.dumps``."""

    @staticmethod
    def write(tmp_path, monkeypatch, document):
        expected = json.dumps(document, sort_keys=True, indent=2) + "\n"
        rows, calls = formats._rows, []

        def counting_rows(value, indent):
            calls.append(len(value))
            return rows(value, indent)

        monkeypatch.setattr(json, "dumps", _no_fallback)
        monkeypatch.setattr(formats, "_rows", counting_rows)
        write_json(tmp_path / "out.json", document)
        assert (tmp_path / "out.json").read_bytes() == expected.encode()
        return calls

    @pytest.mark.parametrize("counts", list(_FRAME_COUNTS.values()), ids=list(_FRAME_COUNTS))
    @pytest.mark.parametrize("motion", ["all", "none", "some"])
    def test_bytes_match_json_dumps(self, tmp_path, monkeypatch, counts, motion):
        document = _frames_document(counts, motion)
        calls = self.write(tmp_path, monkeypatch, document)
        one_shape = motion != "some" or max(counts) < 2
        if one_shape and sum(counts):
            assert calls == [len(counts)]  # the frames, at once
        if not one_shape:
            assert len(calls) > 1  # frame by frame

    @pytest.mark.parametrize(
        "edit",
        [
            lambda d: _set(d, 2, 3, "bbox", 300, index=2),
            lambda d: _set(d, 2, 0, "score", np.float64(0.25)),
            lambda d: _set(d, 4, 1, "bbox", np.float64(2.5), index=0),
            lambda d: _set(d, 2, 1, "class_id", 1.0),
            lambda d: _set(d, 2, 6, "motion", float("nan"), index=1),
            lambda d: _set(d, 4, 2, "bbox", float("inf"), index=3),
            lambda d: _set(d, 1, 0, "score", float("-inf")),
        ],
        ids=[
            "int-corner", "numpy-score", "numpy-corner", "float-class",
            "nan-motion", "inf-corner", "minus-inf-score",
        ],
    )
    def test_a_value_the_template_cannot_take_falls_back(self, tmp_path, monkeypatch, edit):
        document = edit(_frames_document(_FRAME_COUNTS["mixed"], "all"))
        calls = self.write(tmp_path, monkeypatch, document)
        assert len(calls) > 1

    def test_the_rendered_long_file_is_one_template(self, tmp_path, monkeypatch):
        document = _long_documents()[1]
        assert self.write(tmp_path, monkeypatch, document) == [600]


def _detection_file(class_id=2, score=0.5, frame_index=3):
    box = BoundingBox(1.0, 2.0, 11.0, 12.0)
    frames = [FrameDetections(frame_index, (Detection(box, class_id, score, (1.0, 0.5)),))]
    return detections_to_dict("clip", frames)


def _tube_file(class_id=1, start_frame=4, scores=(0.5, 0.25)):
    boxes = (BoundingBox(0, 0, 10, 10), BoundingBox(2, 0, 12, 10))
    return tubes_to_dict({"clip": [ActionTube(class_id, start_frame, boxes, scores)]})


def _spec_file(width=320):
    return scene_spec_to_dict(dataclasses.replace(sample_spec(), width=width))


class TestNumpyScalars:
    """A numpy scalar that a constructor accepts is written as the equal built-in value."""

    @pytest.mark.parametrize(
        "numpy_document, plain_document",
        [
            (_detection_file(class_id=np.int64(2)), _detection_file(class_id=2)),
            (_detection_file(score=np.float32(0.5)), _detection_file(score=0.5)),
            (_detection_file(score=np.float32(0.1)), _detection_file(score=float(np.float32(0.1)))),
            (_detection_file(frame_index=np.int64(3)), _detection_file(frame_index=3)),
            (_tube_file(class_id=np.int32(1)), _tube_file(class_id=1)),
            (_tube_file(start_frame=np.int64(4)), _tube_file(start_frame=4)),
            (
                _tube_file(scores=(np.float32(0.5), np.float32(0.25))),
                _tube_file(scores=(0.5, 0.25)),
            ),
            (_spec_file(width=np.int64(320)), _spec_file(width=320)),
        ],
        ids=[
            "detection-class-int64", "detection-score-float32", "detection-score-float32-inexact",
            "frame-index-int64", "tube-class-int32", "tube-start-int64", "tube-scores-float32",
            "spec-width-int64",
        ],
    )
    def test_written_as_the_built_in_value(self, tmp_path, numpy_document, plain_document):
        write_json(tmp_path / "numpy.json", numpy_document)
        write_json(tmp_path / "plain.json", plain_document)
        written = (tmp_path / "numpy.json").read_bytes()
        assert written == (tmp_path / "plain.json").read_bytes()
        assert written == (json.dumps(plain_document, sort_keys=True, indent=2) + "\n").encode()


# replacement values of the mutation check
_MUTATION_VALUES = (
    "x", 0, -1, 2, 0.5, -1.5, True, None,
    [], [0.0], [0.0, 1.0], [0.0, 1.0, 2.0], [0.0, 1.0, 2.0, 3.0], {"a": 1},
    float("nan"), float("inf"), float("-inf"), 10**400,
)
_DELETED = object()
# sha256 of all outcome lines of _mutation_outcomes: a changed error message,
# path, check order, exception type or parsed value changes it. Recorded after
# a negative frame index began to be reported as negative, not as out of order
_MUTATION_DIGEST = "2a7b95f914eb6d5c5abe5a9138a2eaee2563e1c9668d7125716e9f51b9bbb751"


def _containers(node, path=()):
    """(key path, container) of ``node`` and of every object and array nested in it."""
    yield path, node
    children = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in children:
        if isinstance(child, (dict, list)):
            yield from _containers(child, path + (key,))


def _mutations(base):
    """(label, edits) of every mutation of ``base``.

    Every field and array element is replaced by each of ``_MUTATION_VALUES``
    and every field is deleted. Every pair of fields of one object is set to
    None, and to an empty array, together: that pins the order in which the
    reader checks the type and the length of each field.
    """
    for path, node in _containers(base):
        is_object = isinstance(node, dict)
        for key in node if is_object else range(len(node)):
            for value in _MUTATION_VALUES + ((_DELETED,) if is_object else ()):
                label = "<deleted>" if value is _DELETED else repr(value)
                yield f"{path + (key,)} {label}", [(path + (key,), value)]
        if is_object:
            for i, first in enumerate(node):
                for second in list(node)[i + 1 :]:
                    for value in (None, []):
                        yield f"{path} {first}+{second} {value!r}", [
                            (path + (first,), value),
                            (path + (second,), value),
                        ]


def _edited(base, edits):
    data = copy.deepcopy(base)
    for keys, value in edits:
        target = data
        for key in keys[:-1]:
            target = target[key]
        if value is _DELETED:
            del target[keys[-1]]
        else:
            target[keys[-1]] = value
    return data


def _outcome(parse, data):
    try:
        return f"ok {parse(data)!r}"
    except Exception as exc:  # the exception type is part of the outcome
        return f"{type(exc).__name__}: {exc}"


def _mutation_outcomes():
    documents = (
        ("scene", scene_spec_to_dict(sample_spec()), scene_spec_from_dict),
        ("detections", detections_to_dict("v", sample_frames()), detections_from_dict),
        ("tubes", tubes_to_dict(sample_tubes()), tubes_from_dict),
    )
    for name, base, parse in documents:
        for label, edits in _mutations(base):
            yield f"{name} {label} -> {_outcome(parse, _edited(base, edits))}"


def test_mutated_files_keep_every_outcome():
    """Every mutation of the three file schemas keeps its outcome."""
    lines = list(_mutation_outcomes())
    assert len(lines) == 2430
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == _MUTATION_DIGEST


def test_whole_file_pass_keeps_every_outcome_of_the_walk(monkeypatch):
    """Every mutation of an all-float detection file, the shape the writer
    produces, reads or fails as the field walk alone reads it."""
    frames = [
        FrameDetections(
            0,
            (
                Detection(BoundingBox(1.0, 2.0, 11.0, 12.0), 0, 0.75, (1.0, -0.5)),
                Detection(BoundingBox(5.0, 5.0, 25.0, 25.0), 1, 0.25),
            ),
        ),
        FrameDetections(2, ()),
        FrameDetections(5, (Detection(BoundingBox(3.0, 2.0, 13.0, 12.0), 0, 0.5, (0.0, 2.0)),)),
    ]
    base = detections_to_dict("v", frames)
    cases = [_edited(base, edits) for _, edits in _mutations(base)]
    assert len(cases) == 818
    outcomes = [_outcome(detections_from_dict, data) for data in cases]
    monkeypatch.setattr(formats, "_plain_frames", lambda frames: None)
    assert [_outcome(detections_from_dict, data) for data in cases] == outcomes


# One all-float entry per schema: the shape every writer produces
_FLOAT_TUBE = {
    "video_id": "v", "class_id": 1, "start": 3, "end": 4, "tube_score": 0.5,
    "boxes": [[0.0, 1.0, 10.0, 11.0], [2.0, 1.5, 12.0, 11.5]], "scores": [0.0, 1.0],
}
_FLOAT_DETECTION = {"bbox": [1.0, 2.0, 11.0, 12.0], "class_id": 0, "score": 1.0, "motion": [1.0, -2.0]}
# valid variants of those entries, as (schema, field, value): numbers written
# as ints, a missing motion, an unknown extra key
_VARIANTS = (
    ("tubes", "boxes", [[0, 1, 10, 11], [2, 1.5, 12, 11.5]]),
    ("tubes", "scores", [0, 1]),
    ("tubes", "note", "extra"),
    ("detections", "bbox", [1, 2, 11, 12]),
    ("detections", "score", 1),
    ("detections", "motion", _DELETED),
    ("detections", "motion", [1, -2]),
    ("detections", "note", "extra"),
)
# sha256 of the repr of every parsed variant, as the path-precise walk alone
# parsed them
_VARIANTS_DIGEST = "0fc57dd8a6b9c695542c198c2f94729e1ac6a7f154bda68ea273316a19c858df"


def _parse_variant(schema, field=None, value=None):
    entry = copy.deepcopy(_FLOAT_TUBE if schema == "tubes" else _FLOAT_DETECTION)
    if value is _DELETED:
        del entry[field]
    elif field is not None:
        entry[field] = value
    if schema == "tubes":
        return tubes_from_dict({"format_version": FORMAT_VERSION, "tubes": [entry]})
    frames = [{"frame_index": 0, "detections": [entry]}]
    return detections_from_dict({"format_version": FORMAT_VERSION, "video_id": "v", "frames": frames})


@pytest.mark.parametrize(
    "schema, field, value", [v for v in _VARIANTS if v[2] is not _DELETED]
)
def test_variant_parses_to_the_float_document(schema, field, value):
    """Ints and unknown keys read as the floats they stand for."""
    assert _parse_variant(schema, field, value) == _parse_variant(schema)


def test_variants_keep_their_parsed_values():
    parsed = [repr(_parse_variant(*variant)) for variant in _VARIANTS]
    assert hashlib.sha256("\n".join(parsed).encode()).hexdigest() == _VARIANTS_DIGEST


HALF_MAX = sys.float_info.max / 2


@pytest.mark.filterwarnings("error")
def test_boxes_at_the_bound_are_read_and_scored_alike_by_both_kernels(tmp_path):
    # corners at +-HALF_MAX and areas of HALF_MAX: every sum and difference of
    # the kernels stays within the float range
    h = HALF_MAX
    boxes = [
        [-h, 0.0, h, 0.5],
        [-h, 0.0, h, 0.5],
        [0.0, 0.0, h, 0.5],
        [-h, -1.0, -h / 2, 0.0],
        [h / 2, 0.0, h, 1.0],
        [0.0, -h, 0.5, h],
        [-h, -h, -h, h],
    ]
    frames = [
        {"frame_index": 0, "detections": [{"bbox": b, "class_id": 0, "score": 0.5} for b in boxes]}
    ]
    path = tmp_path / "dets.json"
    write_json(path, {"format_version": 1, "video_id": "v", "frames": frames})
    read = [d.box for d in load_detections(path)[1][0].detections]
    assert [list(b.as_tuple()) for b in read] == boxes
    batch = iou_matrix(read, read)
    scalar = [[iou(a, b) for b in read] for a in read]
    assert batch.tolist() == scalar
    assert scalar[0][1] == 1.0 and scalar[0][2] == pytest.approx(0.5) and scalar[3][4] == 0.0


@pytest.mark.parametrize(
    "box",
    [
        [-np.nextafter(HALF_MAX, np.inf), 0.0, 0.0, 0.5],
        [0.0, -np.nextafter(HALF_MAX, np.inf), 0.5, 0.0],
        [0.0, 0.0, np.nextafter(HALF_MAX, np.inf), 0.5],
        [0.0, 0.0, 0.5, np.nextafter(HALF_MAX, np.inf)],
        [-HALF_MAX, 0.0, HALF_MAX, np.nextafter(0.5, 1.0)],
    ],
    ids=["x1", "y1", "x2", "y2", "area"],
)
def test_a_box_just_past_the_bound_is_refused(tmp_path, box):
    tube = {
        "video_id": "v", "class_id": 0, "start": 0, "end": 0, "tube_score": 0.5,
        "boxes": [[float(v) for v in box]], "scores": [0.5],
    }
    path = tmp_path / "tubes.json"
    write_json(path, {"format_version": 1, "tubes": [tube]})
    message = "box corners and area must not exceed 8.988465674311579e+307 in magnitude"
    with pytest.raises(SchemaError) as refused:
        load_tubes(path)
    assert str(refused.value) == f"{path}.tubes[0].boxes[0]: {message}"
