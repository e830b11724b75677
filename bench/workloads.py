"""Inputs, timed work and output checks for the benchmark's workloads.

Each workload builds its inputs from the benchmark seed in ``setup`` (not
timed as part of an iteration), runs one pipeline iteration through the
public ``tubekit`` API in ``run`` (timed), and reduces the outputs to a
fingerprint in ``fingerprint`` (not timed). ``check`` lists violated output
invariants; an empty list means the iteration's outputs are plausible.

Importing this module imports numpy and ``tubekit``, which is part of the
set-up time the benchmark reports.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from tubekit import cli, evaluation, formats, linking, synthdata, trimming
from tubekit.anticipation import STRATEGIES, STRATEGY_LEARNED
from tubekit.geometry import BoundingBox
from tubekit.linking import Detection, FrameDetections
from tubekit.synthdata import ActorSpec, NoiseModel, SceneSpec

DELTAS = evaluation.DEFAULT_STUDY_DELTAS
MAX_TUBES_PER_CLASS = 10
BETA = 0.7
HEADLINE_GAP = 8  # the paper's headline cell is ``learned``, K=8

# Sizes per workload. ``full`` is what the benchmark measures; ``tiny`` is a
# smoke size for the benchmark's own tests.
SIZES = {
    "full": {
        "study-drift": {"scenes": 4, "frames": 90, "study_seeds": (0,), "epochs": None},
        "crowded-link": {"actors": 30, "frames": 100, "false_positives": 20},
        "long-cli": {"actors": 10, "frames": 600, "demo_boxes": 200},
    },
    "tiny": {
        "study-drift": {"scenes": 1, "frames": 24, "study_seeds": (0,), "epochs": 20},
        "crowded-link": {"actors": 6, "frames": 12, "false_positives": 4},
        "long-cli": {"actors": 4, "frames": 24, "demo_boxes": 20},
    },
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _map_fields(map_by_delta) -> dict[str, float]:
    return {f"{float(d):g}": float(v) for d, v in map_by_delta.items()}


def _map_errors(maps: dict[str, float]) -> list[str]:
    missing = [f"{d:g}" for d in DELTAS if f"{d:g}" not in maps]
    out = [f"mAP missing for delta(s) {missing}"] if missing else []
    out += [f"mAP@{d} = {v} outside [0, 1]" for d, v in maps.items() if not 0.0 <= v <= 1.0]
    return out


def _tube_errors(tubes, width: float, height: float, num_frames: int, classes: int) -> list[str]:
    out = []
    if len(tubes) > MAX_TUBES_PER_CLASS * classes:
        out.append(f"{len(tubes)} tubes exceed {MAX_TUBES_PER_CLASS} x {classes} classes")
    for i, tube in enumerate(tubes):
        if tube.start_frame < 0 or tube.end_frame >= num_frames:
            out.append(f"tube {i} spans frames {tube.start_frame}..{tube.end_frame}")
        for box in tube.boxes:
            if not (0.0 <= box.x1 <= box.x2 <= width and 0.0 <= box.y1 <= box.y2 <= height):
                out.append(f"tube {i} has box {box.as_tuple()} outside the image")
                break
        if any(not 0.0 <= s <= 1.0 for s in tube.scores):
            out.append(f"tube {i} has a score outside [0, 1]")
    return out


# --------------------------------------------------------------------------
# study-drift: the paper's strategy study
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class StudyInputs:
    specs: tuple[SceneSpec, ...]
    seeds: tuple[int, ...]
    config: evaluation.StudyConfig


class StudyDrift:
    """``run_strategy_study`` on the drifting fixture, all strategies, gaps 2/8/16."""

    name = "study-drift"
    passes = 1 + 1 + 2 * len(evaluation.DEFAULT_GAPS)  # training pass + one per cell

    def setup(self, seed: int, size: str, workdir: Path) -> StudyInputs:
        s = SIZES[size][self.name]
        specs = synthdata.drifting_scene_specs(
            s["scenes"], num_frames=s["frames"], base_seed=7 + 4 * seed
        )
        config = evaluation.StudyConfig()
        if s["epochs"] is not None:
            config = evaluation.StudyConfig(train_epochs=s["epochs"])
        return StudyInputs(specs=tuple(specs), seeds=s["study_seeds"], config=config)

    def frames(self, inputs: StudyInputs) -> int:
        per_seed = sum(spec.num_frames for spec in inputs.specs)
        return len(inputs.seeds) * per_seed * self.passes

    def run(self, inputs: StudyInputs):
        return evaluation.run_strategy_study(
            inputs.specs,
            strategies=STRATEGIES,
            gaps=evaluation.DEFAULT_GAPS,
            deltas=DELTAS,
            seeds=inputs.seeds,
            config=inputs.config,
        )

    def fingerprint(self, inputs: StudyInputs, report) -> dict:
        headline = report.cell(STRATEGY_LEARNED, HEADLINE_GAP)
        return {
            "tubes": None,
            "map": _map_fields(headline.map_by_delta),
            "sha256": _sha256(report.to_csv()),
        }

    def check(self, inputs: StudyInputs, report, fp: dict) -> list[str]:
        out = _map_errors(fp["map"])
        expected_rows = 1 + 2 * len(evaluation.DEFAULT_GAPS)
        if len(report.rows) != expected_rows:
            out.append(f"study has {len(report.rows)} rows, expected {expected_rows}")
        for row in report.rows:
            out += [f"{row.strategy}/{row.gap}: {e}" for e in _map_errors(_map_fields(row.map_by_delta))]
        return out


# --------------------------------------------------------------------------
# crowded-link: wide, shallow linking plus trimming and evaluation
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class CrowdedInputs:
    spec: SceneSpec
    frames: tuple
    ground_truth: dict
    trim_params: trimming.TrimmingParams
    link_params: linking.LinkingParams


def crowded_spec(seed: int, num_actors: int, num_frames: int) -> SceneSpec:
    """Slow actors in 3 classes with staggered lifetimes on a 640x480 image.

    Lifetimes follow a fixed pattern and no detection is missed, so every
    frame holds the same number of true detections of each class for every
    seed; the seed moves and sizes the actors and drives the box noise.
    """
    rng = np.random.default_rng([seed, 1])
    actors = []
    for i in range(num_actors):
        life = int(num_frames * (0.5 + 0.3 * (i % 10) / 9))
        entry = (i * 37) % (num_frames - life + 1)
        w, h = rng.uniform(30.0, 70.0), rng.uniform(40.0, 90.0)
        cx, cy = rng.uniform(60.0, 580.0), rng.uniform(60.0, 420.0)
        actors.append(
            ActorSpec(
                class_id=i % 3,
                entry_frame=entry,
                exit_frame=entry + life - 1,
                box=BoundingBox(cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2),
                velocity=(float(rng.uniform(-0.3, 0.3)), float(rng.uniform(-0.3, 0.3))),
                velocity_sigma=0.05,
            )
        )
    noise = NoiseModel(
        sigma_loc=2.0, miss_rate=0.0, fp_rate=0.0, tp_score_mean=0.85, tp_score_sigma=0.05,
    )
    return SceneSpec(
        video_id=f"crowded-{seed}", width=640, height=480, num_frames=num_frames,
        actors=tuple(actors), noise=noise, seed=seed,
    )


def false_positives(seed: int, spec: SceneSpec, per_frame: int) -> list[tuple[Detection, ...]]:
    """Exactly ``per_frame`` clutter detections per frame, classes in rotation.

    Linking work grows with the square of the detections per class and
    frame; a fixed count (instead of the noise model's Poisson draw) keeps
    that work the same for every seed, which keeps the benchmark's timings
    comparable across seeds.
    """
    rng = np.random.default_rng([seed, 3])
    classes = sorted({a.class_id for a in spec.actors})
    out = []
    for frame in range(spec.num_frames):
        dets = []
        for j in range(per_frame):
            w, h = rng.uniform(8.0, 120.0, size=2)
            x = rng.uniform(0.0, spec.width - w)
            y = rng.uniform(0.0, spec.height - h)
            dets.append(Detection(
                box=BoundingBox(x, y, x + w, y + h),
                class_id=classes[(frame + j) % len(classes)],
                score=float(np.clip(rng.normal(0.3, 0.1), 0.0, 1.0)),
                motion=(0.0, 0.0),
            ))
        out.append(tuple(dets))
    return out


class CrowdedLink:
    """``extract_tubes`` -> ``trim_tubes`` -> ``evaluate`` on a crowded scene."""

    name = "crowded-link"

    def setup(self, seed: int, size: str, workdir: Path) -> CrowdedInputs:
        s = SIZES[size][self.name]
        spec = crowded_spec(seed, s["actors"], s["frames"])
        scene = synthdata.generate_scene(spec)
        clutter = false_positives(seed, spec, s["false_positives"])
        frames = tuple(
            FrameDetections(frame_index=f.frame_index, detections=f.detections + fps)
            for f, fps in zip(synthdata.render_detections(scene), clutter)
        )
        return CrowdedInputs(
            spec=spec,
            frames=frames,
            ground_truth={spec.video_id: list(scene.tubes)},
            trim_params=trimming.TrimmingParams(
                avg_length=trimming.avg_class_length(scene.tubes)
            ),
            link_params=linking.LinkingParams(beta=BETA),
        )

    def frames(self, inputs: CrowdedInputs) -> int:
        return inputs.spec.num_frames

    def run(self, inputs: CrowdedInputs):
        tubes = linking.extract_tubes(
            inputs.frames, inputs.link_params, max_tubes_per_class=MAX_TUBES_PER_CLASS
        )
        trimmed = trimming.trim_tubes(tubes, inputs.trim_params, inputs.link_params)
        report = evaluation.evaluate({inputs.spec.video_id: trimmed}, inputs.ground_truth, DELTAS)
        return trimmed, report

    def fingerprint(self, inputs: CrowdedInputs, output) -> dict:
        trimmed, report = output
        canonical = json.dumps(
            formats.tubes_to_dict({inputs.spec.video_id: trimmed}), sort_keys=True, indent=2
        )
        return {
            "tubes": len(trimmed),
            "map": _map_fields(report.map_by_delta),
            "sha256": _sha256(canonical),
        }

    def check(self, inputs: CrowdedInputs, output, fp: dict) -> list[str]:
        spec = inputs.spec
        classes = len({a.class_id for a in spec.actors})
        return _map_errors(fp["map"]) + _tube_errors(
            output[0], spec.width, spec.height, spec.num_frames, classes
        )


# --------------------------------------------------------------------------
# long-cli: the file-based CLI chain on a long, narrow scene
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class CliInputs:
    spec: SceneSpec
    workdir: Path
    steps: tuple[tuple[str, ...], ...]
    outputs: tuple[Path, ...]


def long_spec(seed: int, num_actors: int, num_frames: int) -> SceneSpec:
    """Near-static actors in 2 classes that live most of the video.

    Actors sit on a 5-column grid with seed-dependent size and offset;
    lifetimes follow a fixed pattern, so trimming work (quadratic in tube
    length) is the same for every seed.
    """
    rng = np.random.default_rng([seed, 2])
    actors = []
    for i in range(num_actors):
        life = int(num_frames * (0.80 + 0.15 * (i % 4) / 3))
        entry = (i * 13) % (num_frames - life + 1)
        w, h = rng.uniform(40.0, 80.0), rng.uniform(50.0, 100.0)
        cx = 64.0 + 128.0 * (i % 5) + rng.uniform(-10.0, 10.0)
        cy = 120.0 + 240.0 * ((i // 5) % 2) + rng.uniform(-10.0, 10.0)
        actors.append(
            ActorSpec(
                class_id=i % 2,
                entry_frame=entry,
                exit_frame=entry + life - 1,
                box=BoundingBox(cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2),
                velocity=(0.0, 0.0),
                velocity_sigma=0.05,
            )
        )
    noise = NoiseModel(
        sigma_loc=2.0, miss_rate=0.0, fp_rate=0.3, tp_score_mean=0.85,
        tp_score_sigma=0.05, fp_score_mean=0.3, fp_score_sigma=0.1,
    )
    return SceneSpec(
        video_id=f"long-{seed}", width=640, height=480, num_frames=num_frames,
        actors=tuple(actors), noise=noise, seed=seed,
    )


class LongCli:
    """``tubekit.cli.main`` in-process: simulate -> link -> trim -> eval -> recall."""

    name = "long-cli"

    def setup(self, seed: int, size: str, workdir: Path) -> CliInputs:
        s = SIZES[size][self.name]
        spec = long_spec(seed, s["actors"], s["frames"])
        w = Path(workdir)
        formats.write_json(w / "spec.json", formats.scene_spec_to_dict(spec))
        out = w / "out"
        steps = (
            ("simulate", str(w / "spec.json"), str(out)),
            ("link", str(out / "dets.json"), str(w / "tubes.json")),
            ("trim", str(w / "tubes.json"), str(w / "trimmed.json"), "--train-gt", str(out / "gt.json")),
            ("eval", str(out / "gt.json"), str(w / "trimmed.json"), "--out", str(w / "eval.csv")),
            ("proposal-recall", str(out / "dets.json"), str(out / "gt.json"), "--out", str(w / "recall.csv")),
            ("proposal-recall", "--cascade-demo", "--num-boxes", str(s["demo_boxes"]),
             "--seed", str(seed), "--out", str(w / "demo.csv")),
        )
        outputs = (
            out / "gt.json", out / "dets.json", w / "tubes.json", w / "trimmed.json",
            w / "eval.csv", w / "recall.csv", w / "demo.csv",
        )
        return CliInputs(spec=spec, workdir=w, steps=steps, outputs=outputs)

    def frames(self, inputs: CliInputs) -> int:
        return inputs.spec.num_frames

    def run(self, inputs: CliInputs) -> list[int]:
        for path in inputs.outputs:
            path.unlink(missing_ok=True)
        codes = []
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            for argv in inputs.steps:
                codes.append(cli.main(list(argv)))
                if codes[-1] != 0:
                    break
        return codes

    def fingerprint(self, inputs: CliInputs, codes) -> dict:
        if any(codes) or len(codes) != len(inputs.steps):
            return {"tubes": None, "map": {}, "sha256": None, "exit_codes": codes}
        digest = hashlib.sha256()
        for path in inputs.outputs:
            digest.update(path.read_bytes())
        trimmed = json.loads((inputs.workdir / "trimmed.json").read_text())
        rows = (inputs.workdir / "eval.csv").read_text().split()[1:]
        return {
            "tubes": len(trimmed["tubes"]),
            "map": {d: float(v) for d, v in (row.split(",") for row in rows)},
            "sha256": digest.hexdigest(),
        }

    def check(self, inputs: CliInputs, codes, fp: dict) -> list[str]:
        if fp["sha256"] is None:
            return [f"CLI steps exited with {codes}"]
        spec = inputs.spec
        tubes = formats.load_tubes(inputs.workdir / "trimmed.json").get(spec.video_id, [])
        classes = len({a.class_id for a in spec.actors})
        out = _map_errors(fp["map"])
        out += _tube_errors(tubes, spec.width, spec.height, spec.num_frames, classes)
        for name in ("recall.csv", "demo.csv"):
            for row in (inputs.workdir / name).read_text().split()[1:]:
                recall = float(row.split(",")[-1])
                if not 0.0 <= recall <= 1.0:
                    out.append(f"{name}: recall {recall} outside [0, 1]")
        return out


WORKLOADS = {w.name: w for w in (StudyDrift(), CrowdedLink(), LongCli())}
