"""Spans and counters recorded from outside ``tubekit``.

``Tracer.install`` replaces selected public functions of each ``tubekit``
module with wrappers, everywhere the package binds them (a function imported
into another module is patched under that module's name too, e.g.
``tubekit.linking.iou`` as well as ``tubekit.geometry.iou``), and
``Tracer.uninstall`` puts the originals back. A spanned call appends one
span ``[name, start, end, parent]`` to an in-memory list; a counted call only
bumps a counter, because those functions (scalar and matrix IoU) run up to
millions of times per iteration. Observers derive counts and ratios from the
arguments and results of wrapped calls, never from package internals.

Self time of a span is its duration minus the durations of its direct
children; calls are properly nested because the program is single-threaded,
so the children never overlap. Time spent in a counted-only function is part
of its caller's self time. Nothing in the program waits on a queue or lock,
so there is no wait time to record.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time
from collections import Counter, defaultdict

LAYERS = (
    "synthdata", "proposals", "geometry", "anticipation", "linking",
    "trimming", "evaluation", "formats", "cli",
)

# Public entry points that get a span, per defining module. ``Class.method``
# entries are patched on the class.
SPANNED = {
    "synthdata": (
        "generate_scene", "render_detections", "ProposalOracle.propose",
        "ConditionedDetector.detect", "cascade_recall_demo",
    ),
    "proposals": ("refine_stage", "single_stage_refine", "cascade_refine", "recall_at_iou"),
    "geometry": ("nms",),
    "anticipation": (
        "build_training_set", "train_anticipation_model", "anticipate", "augment_proposals",
    ),
    "linking": ("extract_tubes", "viterbi_link"),
    "trimming": ("avg_class_length", "trim_tubes", "trim_tube", "trim_interval"),
    "evaluation": (
        "run_strategy_study", "run_detection_pass", "mean_ap", "evaluate",
        "match_tubes", "average_precision", "tube_iou",
    ),
    "formats": (
        "read_json", "write_json", "load_scene_spec", "load_detections", "load_tubes",
        "scene_spec_from_dict", "detections_from_dict", "tubes_from_dict",
        "scene_spec_to_dict", "detections_to_dict", "tubes_to_dict",
    ),
    "cli": (
        "main", "cmd_simulate", "cmd_link", "cmd_trim", "cmd_eval", "cmd_proposal_recall",
    ),
}
COUNTED = {"geometry": ("iou", "iou_matrix")}

FORMATS_READ = {
    "formats." + n for n in (
        "read_json", "load_scene_spec", "load_detections", "load_tubes",
        "scene_spec_from_dict", "detections_from_dict", "tubes_from_dict",
    )
}
FORMATS_WRITE = {
    "formats." + n for n in ("write_json", "scene_spec_to_dict", "detections_to_dict", "tubes_to_dict")
}
CLI_COMMANDS = ("simulate", "link", "trim", "eval", "proposal_recall")

# Per-layer metrics and their units, in the order they are printed.
PER_LAYER_UNITS = {
    "synthdata.propose_s": "s",
    "synthdata.propose_calls": "count",
    "synthdata.propose_distinct_ratio": "ratio",
    "synthdata.detect_s": "s",
    "synthdata.detect_calls": "count",
    "synthdata.render_s": "s",
    "anticipation.train_s": "s",
    "anticipation.train_row_epochs": "count",
    "anticipation.anticipate_s": "s",
    "anticipation.anticipate_calls": "count",
    "anticipation.added_ratio": "ratio",
    "linking.extract_s": "s",
    "linking.viterbi_s": "s",
    "linking.viterbi_calls": "count",
    "linking.edges": "count",
    "linking.tubes_per_solve": "ratio",
    "geometry.iou_calls": "count",
    "geometry.iou_matrix_calls": "count",
    "trimming.trim_s": "s",
    "trimming.intervals": "count",
    "trimming.kept_frac": "ratio",
    "evaluation.evaluate_s": "s",
    "evaluation.tube_iou_s": "s",
    "evaluation.tube_iou_calls": "count",
    "evaluation.frames_compared": "count",
    "evaluation.distinct_pair_ratio": "ratio",
    "formats.read_s": "s",
    "formats.write_s": "s",
    "formats.bytes_read": "B",
    "formats.bytes_written": "B",
    "proposals.refine_s": "s",
    "proposals.refine_boxes": "count",
    "proposals.nms_s": "s",
    "proposals.nms_kept_ratio": "ratio",
    "proposals.recall_s": "s",
    **{f"cli.{c}{kind}": "s" for c in CLI_COMMANDS for kind in ("_s", "_self_s")},
    **{f"{layer}.{kind}": unit for layer in LAYERS for kind, unit in (("self_s", "s"), ("calls", "count"))},
    "trace.spans": "count",
    "trace.unattributed_s": "s",
    "trace.run_s": "s",
    "trace.untraced_run_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_ratio": "ratio",
}


def _ratio(num: float, den: float) -> float:
    """``num / den``, or 0 when the layer made no attempts."""
    return num / den if den else 0.0


class Tracer:
    """Records spans and counters while installed; see the module docstring."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._distinct: dict[str, set] = defaultdict(set)
        self._alive: list = []  # keeps objects whose id() is a key in _distinct
        self._patches: list[tuple[object, str, object]] = []
        self._observers = {
            "synthdata.ProposalOracle.propose": self._on_propose,
            "anticipation.train_anticipation_model": self._on_train,
            "anticipation.augment_proposals": self._on_augment,
            "linking.viterbi_link": self._on_viterbi,
            "linking.extract_tubes": self._on_extract,
            "trimming.trim_tubes": self._on_trim_tubes,
            "trimming.trim_interval": self._on_trim_interval,
            "evaluation.tube_iou": self._on_tube_iou,
            "formats.read_json": self._on_read_json,
            "formats.write_json": self._on_write_json,
            "geometry.nms": self._on_nms,
            "proposals.refine_stage": self._on_refine,
        }
        self._default_epochs = None

    # ------------------------------------------------------------------ patching

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [importlib.import_module("tubekit")] + [
            importlib.import_module(f"tubekit.{m}") for m in LAYERS
        ]
        for layer in LAYERS:
            module = importlib.import_module(f"tubekit.{layer}")
            for qualname in SPANNED.get(layer, ()):
                owner, _, attr = qualname.rpartition(".")
                name = f"{layer}.{qualname}"
                if owner:
                    cls = getattr(module, owner)
                    self._patch(cls, attr, self._spanned(name, cls.__dict__[attr]))
                else:
                    if name == "anticipation.train_anticipation_model":
                        params = inspect.signature(getattr(module, attr)).parameters
                        self._default_epochs = params["epochs"].default
                    self._patch_everywhere(modules, getattr(module, attr), self._spanned)
            for attr in COUNTED.get(layer, ()):
                self._patch_everywhere(modules, getattr(module, attr), self._counted)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def reset(self) -> None:
        self.spans = []
        self._stack.clear()
        self.counts.clear()
        self._distinct.clear()
        self._alive.clear()

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _patch_everywhere(self, modules, original, make) -> None:
        name = f"{original.__module__.rpartition('.')[2]}.{original.__qualname__}"
        wrapper = make(name, original)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attr, wrapper)

    def _spanned(self, name: str, fn):
        observe = self._observers.get(name)
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans = tracer.spans
            record = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts
        key = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # ----------------------------------------------------------------- observers

    # The observers read arguments positionally, as tubekit passes them.

    def _on_propose(self, args, kwargs, result) -> None:
        oracle, frame_index = args
        self._distinct["propose"].add((oracle.seed, frame_index))

    def _on_train(self, args, kwargs, result) -> None:
        epochs = kwargs.get("epochs", self._default_epochs)
        self.counts["train_row_epochs"] += args[0].features.shape[0] * epochs

    def _on_augment(self, args, kwargs, result) -> None:
        proposals, anticipated = args[0], args[1]
        self.counts["anticipated"] += len(anticipated)
        self.counts["added"] += len(result) - len(proposals)

    def _on_viterbi(self, args, kwargs, result) -> None:
        frames = args[0]
        self.counts["edges"] += sum(len(a) * len(b) for a, b in zip(frames, frames[1:]))

    def _on_extract(self, args, kwargs, result) -> None:
        self.counts["tubes_extracted"] += len(result)

    def _on_trim_tubes(self, args, kwargs, result) -> None:
        self.counts["frames_before_trim"] += sum(t.length for t in args[0])
        self.counts["frames_after_trim"] += sum(t.length for t in result)

    def _on_trim_interval(self, args, kwargs, result) -> None:
        n = len(args[0])
        self.counts["intervals"] += n * (n + 1) // 2

    def _on_tube_iou(self, args, kwargs, result) -> None:
        a, b = args
        shared = min(a.end_frame, b.end_frame) - max(a.start_frame, b.start_frame) + 1
        self.counts["frames_compared"] += max(0, shared)
        pairs = self._distinct["tube_iou"]
        key = (id(a), id(b))
        if key not in pairs:
            pairs.add(key)
            self._alive.append((a, b))

    def _on_read_json(self, args, kwargs, result) -> None:
        self.counts["bytes_read"] += os.path.getsize(args[0])

    def _on_write_json(self, args, kwargs, result) -> None:
        self.counts["bytes_written"] += os.path.getsize(args[0])

    def _on_nms(self, args, kwargs, result) -> None:
        self.counts["nms_in"] += len(args[0])
        self.counts["nms_kept"] += len(result)

    def _on_refine(self, args, kwargs, result) -> None:
        self.counts["refine_boxes"] += len(args[0])

    # ------------------------------------------------------------------- summary

    def summary(self, elapsed: float) -> dict[str, float]:
        """Per-layer metrics of the iteration recorded since the last reset."""
        spans = self.spans
        child = [0.0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        inclusive: Counter = Counter()
        own: Counter = Counter()
        calls: Counter = Counter()
        for i, (name, start, end, _) in enumerate(spans):
            inclusive[name] += end - start
            own[name] += end - start - child[i]
            calls[name] += 1
        layer_self: Counter = Counter()
        layer_calls: Counter = Counter()
        for name in calls:
            layer = name.partition(".")[0]
            layer_self[layer] += own[name]
            layer_calls[layer] += calls[name]
        c = self.counts
        layer_calls["geometry"] += c["geometry.iou.calls"] + c["geometry.iou_matrix.calls"]

        m = {
            "synthdata.propose_s": inclusive["synthdata.ProposalOracle.propose"],
            "synthdata.propose_calls": calls["synthdata.ProposalOracle.propose"],
            "synthdata.propose_distinct_ratio": _ratio(
                len(self._distinct["propose"]), calls["synthdata.ProposalOracle.propose"]
            ),
            "synthdata.detect_s": inclusive["synthdata.ConditionedDetector.detect"],
            "synthdata.detect_calls": calls["synthdata.ConditionedDetector.detect"],
            "synthdata.render_s": inclusive["synthdata.render_detections"],
            "anticipation.train_s": inclusive["anticipation.train_anticipation_model"],
            "anticipation.train_row_epochs": c["train_row_epochs"],
            "anticipation.anticipate_s": inclusive["anticipation.anticipate"],
            "anticipation.anticipate_calls": calls["anticipation.anticipate"],
            "anticipation.added_ratio": _ratio(c["added"], c["anticipated"]),
            "linking.extract_s": inclusive["linking.extract_tubes"],
            "linking.viterbi_s": inclusive["linking.viterbi_link"],
            "linking.viterbi_calls": calls["linking.viterbi_link"],
            "linking.edges": c["edges"],
            "linking.tubes_per_solve": _ratio(c["tubes_extracted"], calls["linking.viterbi_link"]),
            "geometry.iou_calls": c["geometry.iou.calls"],
            "geometry.iou_matrix_calls": c["geometry.iou_matrix.calls"],
            "trimming.trim_s": inclusive["trimming.trim_tubes"],
            "trimming.intervals": c["intervals"],
            "trimming.kept_frac": _ratio(c["frames_after_trim"], c["frames_before_trim"]),
            "evaluation.evaluate_s": inclusive["evaluation.evaluate"],
            "evaluation.tube_iou_s": inclusive["evaluation.tube_iou"],
            "evaluation.tube_iou_calls": calls["evaluation.tube_iou"],
            "evaluation.frames_compared": c["frames_compared"],
            "evaluation.distinct_pair_ratio": _ratio(
                len(self._distinct["tube_iou"]), calls["evaluation.tube_iou"]
            ),
            "formats.read_s": sum(own[n] for n in FORMATS_READ),
            "formats.write_s": sum(own[n] for n in FORMATS_WRITE),
            "formats.bytes_read": c["bytes_read"],
            "formats.bytes_written": c["bytes_written"],
            "proposals.refine_s": inclusive["proposals.refine_stage"],
            "proposals.refine_boxes": c["refine_boxes"],
            "proposals.nms_s": inclusive["geometry.nms"],
            "proposals.nms_kept_ratio": _ratio(c["nms_kept"], c["nms_in"]),
            "proposals.recall_s": inclusive["proposals.recall_at_iou"],
        }
        for command in CLI_COMMANDS:
            m[f"cli.{command}_s"] = inclusive[f"cli.cmd_{command}"]
            m[f"cli.{command}_self_s"] = own[f"cli.cmd_{command}"]
        for layer in LAYERS:
            m[f"{layer}.self_s"] = layer_self[layer]
            m[f"{layer}.calls"] = layer_calls[layer]
        m["trace.spans"] = len(spans)
        m["trace.unattributed_s"] = elapsed - sum(layer_self.values())
        return m

    def dump(self) -> list[dict]:
        """The recorded spans, times in seconds from the first span's start."""
        t0 = self.spans[0][1] if self.spans else 0.0
        return [
            {"name": n, "start": s - t0, "end": e - t0, "parent": p}
            for n, s, e, p in self.spans
        ]
