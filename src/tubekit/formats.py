"""JSON file formats shared by the command-line tools.

Three schemas, all versioned with a ``format_version`` field:

* scene spec — input to ``simulate``; mirrors :class:`~.synthdata.SceneSpec`.
* detection file — per-frame scored boxes (``bbox``, ``class_id``,
  ``score``, optional ``motion``), frame indices non-negative and strictly
  increasing.
* tube file — flat list of tubes (``video_id``, ``class_id``, ``start``,
  ``end``, ``tube_score``, per-frame ``boxes`` and ``scores``).

Writers are canonical: a file holds exactly the bytes of
``json.dumps(data, sort_keys=True, indent=2)`` and a newline (the tests
compare the two), so identical data produces identical bytes. A list of
records of one shape is written from one record template filled in once for
all rows: equal-length lists of finite built-in floats, such as a tube's
boxes, and dicts with the same string keys whose every column holds finite
built-in floats, built-in ints, float lists of one length or lists of such
dicts, such as a frame's detections. A detection file whose detections all
have one shape is thus one template and one ``%`` fill for all its frames.
Each column is checked once; ``%r`` of a built-in float or int is its
``__repr__``. Any other list is written value by value.

Readers accept the shape the writers produce with one check per column: a
tube's boxes, its scores, and each detection field across the whole file,
whose detections are built only after every check passes. Anything else is
walked field by field from the start, and only that walk reports errors, each
naming the offending field path, so the first error a file reports does not
depend on the checks before it.
"""

from __future__ import annotations

import json
import math
import operator
import sys
from dataclasses import fields
from itertools import accumulate, chain, islice, repeat, starmap
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Any, Callable, NoReturn, Optional, Sequence, TypeVar, Union

import numpy as np

from .geometry import BoundingBox, _check_count
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


_MISSING: Any = object()


def _field(
    obj: dict, key: str, path: str, read: Callable[[Any, str], T], default: Any = _MISSING
) -> T:
    """``read(obj[key], f"{path}.{key}")``; a key without a ``default`` is required."""
    if key not in obj and default is _MISSING:
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
    box = _construct(path, BoundingBox, *coords)
    if not _finite_area(*coords):
        _fail(path, "box area (x2 - x1) * (y2 - y1) must be finite")
    return box


def _finite_area(x1: float, y1: float, x2: float, y2: float) -> bool:
    """Whether the box's area is finite: both IoU kernels need it to agree."""
    return math.isfinite((x2 - x1) * (y2 - y1))


def _finite_floats(values: Sequence) -> bool:
    """Whether ``values`` holds at least one value, and only finite floats."""
    return set(map(type, values)) == {float} and all(map(math.isfinite, values))


def _plain_boxes(values: list) -> Optional[list[BoundingBox]]:
    """The boxes of ``values`` if each is a list of four built-in floats
    that make a box of finite area, else None."""
    if (
        set(map(type, values)) <= {list}
        and set(map(len, values)) <= {4}
        and set(map(type, chain.from_iterable(values))) <= {float}
        and all(starmap(_finite_area, values))
    ):
        try:
            return list(starmap(BoundingBox, values))
        except ValueError:  # left to the walk, which names the box
            pass
    return None


def _boxes(value: list, path: str) -> list[BoundingBox]:
    """The boxes of the array ``value``: lists of four floats are built at once."""
    return _plain_boxes(value) or [_box(b, f"{path}[{k}]") for k, b in enumerate(value)]


def _numbers(value: list, path: str) -> list[float]:
    """The numbers of the array ``value``: finite floats are taken as they are."""
    if _finite_floats(value):
        return value
    return [_number(v, f"{path}[{k}]") for k, v in enumerate(value)]


def _check_version(data: dict, path: str) -> None:
    version = _field(data, "format_version", path, _integer)
    if version != FORMAT_VERSION:
        _fail(f"{path}.format_version", f"unsupported version {version}")


def _bracketed(items: list[str], indent: str) -> str:
    """``items`` written as the elements of an array at ``indent``, as ``json.dumps`` does."""
    if not items:
        return "[]"
    inner = indent + "  "
    return f"[\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}]"


# one template or width for every row, or a list of one per row
_Template = Union[str, list[str]]
_Width = Union[int, list[int]]


def _column(values: list, indent: str) -> Optional[tuple[_Template, list, _Width]]:
    """The template of one field of every row, the values that fill it and
    how many each row takes, or None if ``values`` is not a column
    :func:`_records` writes.

    Finite built-in floats, or built-in ints (bools excluded), are one
    ``%r`` field per row: ``%r`` of either is its type's ``__repr__``. Lists
    of one length k >= 1 holding only finite built-in floats are k ``%r``
    fields per row, written as an array at ``indent``. Such a column has one
    template and width for all rows. Lists of records of one shape, such as
    the detections of every frame, have a template and width per row: the
    record template of :func:`_records`, built once, repeated once per record.
    """
    kinds = set(map(type, values))
    if kinds == {int} or _finite_floats(values):
        return "%r", values, 1
    if kinds != {list}:
        return None
    flat = list(chain.from_iterable(values))
    if len(set(map(len, values))) == 1 and _finite_floats(flat):
        width = len(values[0])
        return _bracketed(["%r"] * width, indent), flat, width
    made = flat and type(flat[0]) is dict and _records(flat, indent)
    if not made or type(made[0]) is not str:
        return None
    record, fill = made
    counts = list(map(len, values))
    by_count = {n: _bracketed([record] * n, indent) for n in set(counts)}
    width = len(fill) // len(flat)
    return [by_count[n] for n in counts], fill, [width * n for n in counts]


def _records(value: list, indent: str) -> Optional[tuple[_Template, list]]:
    """The row template of the array ``value`` at ``indent`` and the
    row-major values that fill it, or None if it is not rows of one shape.

    Rows of one shape are the lists of one column, such as a tube's boxes,
    or dicts with the same string keys (at least one) whose every key is a
    column, such as a frame's detections or a file's frames (see
    :func:`_column`). Each column is checked once. The template is one
    string for all rows, or one per row if a column's template varies.
    """
    inner = indent + "  "
    if type(value[0]) is list:
        made = _column(value, inner)
        return made and made[:2]
    if not (
        set(map(type, value)) == {dict}
        and all(map(value[0].keys().__eq__, map(dict.keys, value)))
        and set(map(type, value[0])) == {str}
    ):
        return None
    keys = sorted(value[0])
    at = inner + "  "
    made = [_column([row[k] for row in value], at) for k in keys]
    if None in made:
        return None
    templates, flats, widths = zip(*made)
    heads = [encode_basestring_ascii(k).replace("%", "%%") + ": " for k in keys]

    def row(parts: Sequence[str]) -> str:
        return f"{{\n{at}" + f",\n{at}".join(map(operator.add, heads, parts)) + f"\n{inner}}}"

    n = len(value)
    if set(map(type, widths)) == {int}:
        # the fill is row-major: each row's fields in template order
        row_width, offset = sum(widths), 0
        fill = [None] * (n * row_width)
        for flat, width in zip(flats, widths):
            for j in range(width):
                fill[offset + j :: row_width] = flat[j::width]
            offset += width
        return row(templates), fill
    # widths vary by row: each row's slice of every column in turn
    cuts = [
        list(accumulate(w if type(w) is list else repeat(w, n), initial=0)) for w in widths
    ]
    fill = list(chain.from_iterable(
        flat[c[i] : c[i + 1]] for i in range(n) for flat, c in zip(flats, cuts)
    ))
    per_row = (t if type(t) is list else repeat(t) for t in templates)
    return list(map(row, zip(*per_row))), fill


def _rows(value: list, indent: str) -> Optional[str]:
    """``value`` as :func:`_encode` writes it, or None if it is not rows of one
    shape: all rows are written from the templates of :func:`_records` with
    one ``%``."""
    made = _records(value, indent)
    if made is None:
        return None
    templates, fill = made
    if type(templates) is str:
        templates = [templates] * len(value)
    return _bracketed(templates, indent) % tuple(fill)


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
        if type(value[0]) in (list, dict):
            rows = _rows(value, indent)
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


def _plain_frames(frames: Any) -> Optional[list[FrameDetections]]:
    """The frames of ``frames`` if they have the shape the writer gives them, else None.

    The frame indices and the detection fields of the whole file are
    gathered as columns first, without raising; each column is checked
    once, and only then are the detections built. Any other shape, or a
    value a constructor refuses, gives None, and the walk in
    :func:`detections_from_dict` reads (and reports on) the file instead.
    """
    if type(frames) is not list or not set(map(type, frames)) <= {dict}:
        return None
    indices = list(map(dict.get, frames, repeat("frame_index")))
    groups = list(map(dict.get, frames, repeat("detections")))
    if not (
        set(map(type, indices)) <= {int}
        and all(map(operator.lt, [-1, *indices], indices))
        and set(map(type, groups)) <= {list}
    ):
        return None
    dets = list(chain.from_iterable(groups))
    if not set(map(type, dets)) <= {dict}:
        return None
    bboxes, class_ids, scores, motions = (
        list(map(dict.get, dets, repeat(key), repeat(_MISSING)))
        for key in ("bbox", "class_id", "score", "motion")
    )
    boxes = _plain_boxes(bboxes)
    given = [m for m in motions if m is not _MISSING]
    if not (
        boxes is not None
        and set(map(type, class_ids)) <= {int}
        and set(map(type, scores)) <= {float}
        and set(map(type, given)) <= {list}
        and set(map(len, given)) <= {2}
        and set(map(type, chain.from_iterable(given))) <= {float}
        and all(map(math.isfinite, chain.from_iterable(given)))
    ):
        return None
    motions = [None if m is _MISSING else tuple(m) for m in motions]
    try:  # Detection checks the class id and score ranges
        built = list(map(Detection, boxes, class_ids, scores, motions))
    except ValueError:
        return None
    in_order = iter(built)
    return [
        FrameDetections(index, tuple(islice(in_order, len(group))))
        for index, group in zip(indices, groups)
    ]


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
    plain = _plain_frames(data.get("frames"))
    if plain is not None:
        return video_id, plain
    frames: list[FrameDetections] = []
    previous_index = -1
    for i, frame_raw in enumerate(_field(data, "frames", path, _array)):
        fpath = f"{path}.frames[{i}]"
        frame = _object(frame_raw, fpath)
        index = _field(frame, "frame_index", fpath, _integer)
        _construct(f"{fpath}.frame_index", _check_count, "frame_index", index)
        if index <= previous_index:
            _fail(f"{fpath}.frame_index", "frame indices must be strictly increasing")
        previous_index = index
        dets = [
            _detection(det, f"{fpath}.detections[{j}]")
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
