"""JSON file formats shared by the command-line tools.

Three schemas, all versioned with a ``format_version`` field:

* scene spec — input to ``simulate``; mirrors :class:`~.synthdata.SceneSpec`.
* detection file — per-frame scored boxes (``bbox``, ``class_id``,
  ``score``, optional ``motion``), frame indices strictly increasing.
* tube file — flat list of tubes (``video_id``, ``class_id``, ``start``,
  ``end``, ``tube_score``, per-frame ``boxes`` and ``scores``).

Writers are canonical: a file holds exactly the bytes of
``json.dumps(data, sort_keys=True, indent=2)`` and a newline (the tests
compare the two), so identical data produces identical bytes. A list of
equal-length lists of finite built-in floats, such as a tube's boxes, is
written with one row template of ``%r`` fields, filled in once for all rows.
Readers accept the shape the writers produce with one check for a tube's
boxes, one for its scores and one per detection. Anything else is walked
field by field, and only that walk reports errors, each naming the offending
field path.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import fields
from itertools import chain, starmap
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Any, Callable, NoReturn, Optional, Sequence, TypeVar, Union

import numpy as np

from .geometry import BoundingBox
from .linking import ActionTube, Detection, FrameDetections, tube_order
from .synthdata import ActorSpec, NoiseModel, SceneSpec

FORMAT_VERSION = 1

_NOISE_FIELDS = tuple(f.name for f in fields(NoiseModel))

T = TypeVar("T")


class SchemaError(ValueError):
    """A file does not conform to its declared schema."""


def _fail(path: str, message: str) -> NoReturn:
    raise SchemaError(f"{path}: {message}")


def _construct(path: str, make: Callable[..., T], *args: Any, **kwargs: Any) -> T:
    """``make(*args, **kwargs)``, with its ``ValueError`` reported at ``path``.

    Arguments are evaluated by the caller, so a ``SchemaError`` raised while
    reading them keeps its own, more precise path.
    """
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        _fail(path, str(exc))


_REQUIRED: Any = object()


def _field(
    obj: dict, key: str, path: str, read: Callable[[Any, str], T], default: Any = _REQUIRED
) -> T:
    """``read(obj[key], f"{path}.{key}")``; a key without a ``default`` is required."""
    if key not in obj and default is _REQUIRED:
        _fail(path, f"missing required field '{key}'")
    return read(obj.get(key, default), f"{path}.{key}")


def _number(value: Any, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(path, f"expected a number, got {type(value).__name__}")
    # json reads NaN, Infinity, 1e400 (as inf) and integers beyond the float range
    if not -sys.float_info.max <= value <= sys.float_info.max:
        _fail(path, "expected a finite number")
    return float(value)


def _integer(value: Any, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(path, f"expected an integer, got {type(value).__name__}")
    return value


def _string(value: Any, path: str) -> str:
    if not isinstance(value, str):
        _fail(path, f"expected a string, got {type(value).__name__}")
    return value


def _array(value: Any, path: str) -> list:
    if not isinstance(value, list):
        _fail(path, f"expected an array, got {type(value).__name__}")
    return value


def _object(value: Any, path: str) -> dict:
    if not isinstance(value, dict):
        _fail(path, f"expected an object, got {type(value).__name__}")
    return value


def _pair(value: Any, path: str, expected: str) -> tuple[float, float]:
    arr = _array(value, path)
    if len(arr) != 2:
        _fail(path, f"expected {expected}")
    return _number(arr[0], f"{path}[0]"), _number(arr[1], f"{path}[1]")


def _box(value: Any, path: str) -> BoundingBox:
    arr = _array(value, path)
    if len(arr) != 4:
        _fail(path, f"expected [x1, y1, x2, y2], got {len(arr)} values")
    coords = [_number(v, f"{path}[{i}]") for i, v in enumerate(arr)]
    return _construct(path, BoundingBox, *coords)


def _finite_floats(values: Sequence) -> bool:
    """Whether ``values`` holds at least one value, and only finite floats."""
    return set(map(type, values)) == {float} and all(map(math.isfinite, values))


def _boxes(value: list, path: str) -> list[BoundingBox]:
    """The boxes of the array ``value``: lists of four floats are built at once."""
    if (
        set(map(type, value)) == {list}
        and set(map(len, value)) == {4}
        and set(map(type, chain.from_iterable(value))) == {float}
    ):
        try:
            return list(starmap(BoundingBox, value))
        except ValueError:  # left to the walk below, which names the box
            pass
    return [_box(b, f"{path}[{k}]") for k, b in enumerate(value)]


def _numbers(value: list, path: str) -> list[float]:
    """The numbers of the array ``value``: finite floats are taken as they are."""
    if _finite_floats(value):
        return value
    return [_number(v, f"{path}[{k}]") for k, v in enumerate(value)]


def _check_version(data: dict, path: str) -> None:
    version = _field(data, "format_version", path, _integer)
    if version != FORMAT_VERSION:
        _fail(f"{path}.format_version", f"unsupported version {version}")


def _float_rows(value: list, indent: str) -> Optional[str]:
    """``value`` as :func:`_encode` writes it, or None if it is not float rows.

    Float rows are lists of one length k >= 1 holding only finite built-in
    floats, such as a tube's boxes. They are written with one row template
    of k ``%r`` fields, joined once per row; ``%r`` of a built-in float is
    ``float.__repr__``.
    """
    if set(map(type, value)) != {list} or len(set(map(len, value))) != 1:
        return None
    flat = list(chain.from_iterable(value))
    if not _finite_floats(flat):
        return None
    inner, row_inner = indent + "  ", indent + "    "
    row = f"[\n{row_inner}" + f",\n{row_inner}".join(["%r"] * len(value[0])) + f"\n{inner}]"
    rows = f",\n{inner}".join([row] * len(value)) % tuple(flat)
    return f"[\n{inner}{rows}\n{indent}]"


def _encode(value: Any, indent: str) -> str:
    """``value`` as ``json.dumps(..., sort_keys=True, indent=2)`` writes it at ``indent``.

    Types are tested in ``json.encoder``'s order. A numpy integer or floating
    scalar, which the constructors accept, is written as the equal built-in
    value. A key that is not a string and a value of any other type raise
    ``TypeError``.
    """
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if math.isfinite(value):
            return float.__repr__(value)
        return "NaN" if value != value else "Infinity" if value > 0 else "-Infinity"
    inner = indent + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        # the type test keeps other lists, such as a file's frames, off the row path
        if type(value[0]) is list:
            rows = _float_rows(value, indent)
            if rows is not None:
                return rows
        if _finite_floats(value):
            items = map(float.__repr__, value)
        else:
            items = [_encode(v, inner) for v in value]
        return f"[\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [
            f"{encode_basestring_ascii(k)}: {_encode(v, inner)}"
            for k, v in sorted(value.items())
        ]
        return f"{{\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}}}"
    if isinstance(value, np.integer):
        return int.__repr__(int(value))
    if isinstance(value, np.floating):
        return _encode(float(value), indent)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def write_json(path: Union[str, Path], data: dict) -> None:
    try:
        text = _encode(data, "")
    except (TypeError, RecursionError):
        # json.dumps writes keys that are not strings and raises its own error
        # for what it cannot encode, a cycle included
        text = json.dumps(data, sort_keys=True, indent=2)
    Path(path).write_text(text + "\n")


def read_json(path: Union[str, Path]) -> dict:
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise SchemaError(f"{path}: cannot read file ({exc})") from exc
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: not UTF-8 text at byte {exc.start}") from exc
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise SchemaError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError as exc:
        raise SchemaError(f"{path}: invalid JSON: nested too deeply") from exc
    if not isinstance(data, dict):
        raise SchemaError(f"{path}: top level must be a JSON object")
    return data


# --------------------------------------------------------------------------
# scene specs
# --------------------------------------------------------------------------

def scene_spec_from_dict(data: dict, path: str = "$") -> SceneSpec:
    _check_version(data, path)
    actors = []
    for i, actor_raw in enumerate(_field(data, "actors", path, _array)):
        apath = f"{path}.actors[{i}]"
        actor = _object(actor_raw, apath)
        velocity = _pair(actor.get("velocity", [0.0, 0.0]), f"{apath}.velocity", "[vx, vy]")
        actors.append(
            _construct(
                apath,
                ActorSpec,
                class_id=_field(actor, "class_id", apath, _integer),
                entry_frame=_field(actor, "entry_frame", apath, _integer),
                exit_frame=_field(actor, "exit_frame", apath, _integer),
                box=_field(actor, "box", apath, _box),
                velocity=velocity,
                velocity_sigma=_field(actor, "velocity_sigma", apath, _number, default=0.0),
            )
        )
    noise_raw = _field(data, "noise", path, _object, default={})
    noise_kwargs = {
        name: _field(noise_raw, name, f"{path}.noise", _number)
        for name in _NOISE_FIELDS
        if name in noise_raw
    }
    return _construct(
        path,
        SceneSpec,
        video_id=_field(data, "video_id", path, _string),
        width=_field(data, "width", path, _integer),
        height=_field(data, "height", path, _integer),
        num_frames=_field(data, "num_frames", path, _integer),
        actors=tuple(actors),
        noise=_construct(path, NoiseModel, **noise_kwargs),
        seed=_field(data, "seed", path, _integer, default=0),
    )


def scene_spec_to_dict(spec: SceneSpec) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "video_id": spec.video_id,
        "width": spec.width,
        "height": spec.height,
        "num_frames": spec.num_frames,
        "seed": spec.seed,
        "actors": [
            {
                "class_id": a.class_id,
                "entry_frame": a.entry_frame,
                "exit_frame": a.exit_frame,
                "box": list(a.box.as_tuple()),
                "velocity": list(a.velocity),
                "velocity_sigma": a.velocity_sigma,
            }
            for a in spec.actors
        ],
        "noise": {name: getattr(spec.noise, name) for name in _NOISE_FIELDS},
    }


def load_scene_spec(path: Union[str, Path]) -> SceneSpec:
    return scene_spec_from_dict(read_json(path), str(path))


# --------------------------------------------------------------------------
# detection files
# --------------------------------------------------------------------------

def detections_to_dict(video_id: str, frames: Sequence[FrameDetections]) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "video_id": video_id,
        "frames": [
            {
                "frame_index": fd.frame_index,
                "detections": [
                    {
                        "bbox": list(d.box.as_tuple()),
                        "class_id": d.class_id,
                        "score": d.score,
                        **({"motion": list(d.motion)} if d.motion is not None else {}),
                    }
                    for d in fd.detections
                ],
            }
            for fd in sorted(frames, key=lambda f: f.frame_index)
        ],
    }


_DETECTION_KEYS = {"bbox", "class_id", "score"}
_MOTION_KEYS = _DETECTION_KEYS | {"motion"}


def _plain_detection(det: Any) -> Optional[Detection]:
    """``det`` if it has exactly the fields and types the writer gives it, else None."""
    if type(det) is not dict:
        return None
    keys, motion = det.keys(), det.get("motion")
    if keys == _DETECTION_KEYS or (
        keys == _MOTION_KEYS
        and type(motion) is list
        and len(motion) == 2
        and _finite_floats(motion)
    ):
        bbox, class_id, score = det["bbox"], det["class_id"], det["score"]
        if (
            type(bbox) is list
            and len(bbox) == 4
            and _finite_floats(bbox)
            and type(class_id) is int
            and type(score) is float
        ):
            try:
                motion = None if motion is None else tuple(motion)
                return Detection(BoundingBox(*bbox), class_id, score, motion)
            except ValueError:  # left to _detection, which names the field
                pass
    return None


def _detection(value: Any, path: str) -> Detection:
    det = _object(value, path)
    motion = None
    if "motion" in det:
        motion = _pair(det["motion"], f"{path}.motion", "[dx, dy]")
    return _construct(
        path,
        Detection,
        box=_field(det, "bbox", path, _box),
        class_id=_field(det, "class_id", path, _integer),
        score=_field(det, "score", path, _number),
        motion=motion,
    )


def detections_from_dict(data: dict, path: str = "$") -> tuple[str, list[FrameDetections]]:
    _check_version(data, path)
    video_id = _field(data, "video_id", path, _string)
    frames: list[FrameDetections] = []
    previous_index = -1
    for i, frame_raw in enumerate(_field(data, "frames", path, _array)):
        fpath = f"{path}.frames[{i}]"
        frame = _object(frame_raw, fpath)
        index = _field(frame, "frame_index", fpath, _integer)
        if index <= previous_index:
            _fail(f"{fpath}.frame_index", "frame indices must be strictly increasing")
        previous_index = index
        dets = [
            _plain_detection(det) or _detection(det, f"{fpath}.detections[{j}]")
            for j, det in enumerate(_field(frame, "detections", fpath, _array))
        ]
        frames.append(FrameDetections(frame_index=index, detections=tuple(dets)))
    return video_id, frames


def load_detections(path: Union[str, Path]) -> tuple[str, list[FrameDetections]]:
    return detections_from_dict(read_json(path), str(path))


# --------------------------------------------------------------------------
# tube files
# --------------------------------------------------------------------------

def tubes_to_dict(tubes_by_video: dict[str, Sequence[ActionTube]]) -> dict:
    entries = []
    for video_id in sorted(tubes_by_video):
        for tube in sorted(tubes_by_video[video_id], key=tube_order):
            entries.append(
                {
                    "video_id": video_id,
                    "class_id": tube.class_id,
                    "start": tube.start_frame,
                    "end": tube.end_frame,
                    "tube_score": tube.tube_score,
                    "boxes": [list(b.as_tuple()) for b in tube.boxes],
                    "scores": list(tube.scores),
                }
            )
    return {"format_version": FORMAT_VERSION, "tubes": entries}


def tubes_from_dict(data: dict, path: str = "$") -> dict[str, list[ActionTube]]:
    _check_version(data, path)
    out: dict[str, list[ActionTube]] = {}
    for i, tube_raw in enumerate(_field(data, "tubes", path, _array)):
        tpath = f"{path}.tubes[{i}]"
        tube = _object(tube_raw, tpath)
        video_id = _field(tube, "video_id", tpath, _string)
        start = _field(tube, "start", tpath, _integer)
        end = _field(tube, "end", tpath, _integer)
        boxes = _boxes(_field(tube, "boxes", tpath, _array), f"{tpath}.boxes")
        if end < start:
            _fail(tpath, f"start {start} exceeds end {end}")
        if len(boxes) != end - start + 1:
            _fail(
                f"{tpath}.boxes",
                f"expected {end - start + 1} boxes for frames [{start}, {end}], "
                f"got {len(boxes)}",
            )
        _field(tube, "tube_score", tpath, _number)
        scores = _numbers(_field(tube, "scores", tpath, _array), f"{tpath}.scores")
        if len(scores) != len(boxes):
            _fail(f"{tpath}.scores", "one score per frame required")
        parsed = _construct(
            tpath,
            ActionTube,
            class_id=_field(tube, "class_id", tpath, _integer),
            start_frame=start,
            boxes=tuple(boxes),
            scores=tuple(scores),
        )
        out.setdefault(video_id, []).append(parsed)
    return out


def load_tubes(path: Union[str, Path]) -> dict[str, list[ActionTube]]:
    return tubes_from_dict(read_json(path), str(path))
