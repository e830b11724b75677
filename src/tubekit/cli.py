"""Command-line pipeline tools.

Subcommands wire the library into reproducible file-based steps::

    tubekit simulate scene.json out/            # -> out/gt.json, out/dets.json
    tubekit link out/dets.json out/tubes.json
    tubekit trim out/tubes.json out/trimmed.json --train-gt out/gt.json
    tubekit eval out/gt.json out/trimmed.json
    tubekit proposal-recall --cascade-demo
    tubekit study specs/ study.csv

Every command is deterministic given its inputs and seed flags; re-running
writes byte-identical files. Exit codes: 0 success, 1 runtime failure,
2 usage or validation error, or an unreadable input or unwritable output.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path
from typing import Callable, Optional, Sequence, TypeVar

from . import evaluation, formats, linking, synthdata
from .anticipation import STRATEGIES, STRATEGY_LEARNED, STRATEGY_NONE, STRATEGY_NON_MOTION
from .geometry import BoundingBox
from .linking import LinkingParams, extract_tubes
from .proposals import best_iou_by_frame, recall_curve
from .synthdata import cascade_recall_demo, generate_scene, render_detections
from .trimming import (
    PENALTY_ABSOLUTE,
    PENALTY_MODES,
    TrimmingParams,
    avg_class_length,
    trim_tubes,
)

T = TypeVar("T")


def _joined(values: Sequence[object]) -> str:
    """A library default as the comma-separated text its flag takes."""
    return ",".join(str(v) for v in values)


def _parse_list(text: str, flag: str, convert: Callable[[str], T]) -> list[T]:
    try:
        values = [convert(part.strip()) for part in text.split(",") if part.strip()]
    except ValueError:
        raise formats.SchemaError(
            f"{flag}: expected comma-separated {convert.__name__} values, got {text!r}"
        )
    if not values:
        raise formats.SchemaError(f"{flag}: empty list")
    return values


def _write_text(text: str, out: Optional[str]) -> None:
    """Write ``text`` to the file ``out``, or to stdout when it is not set."""
    if out:
        Path(out).write_text(text)
        print(f"wrote {out}")
    else:
        sys.stdout.write(text)


def _parse_avg_len(text: str) -> dict[int, float]:
    table: dict[int, float] = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if ":" not in part:
            raise formats.SchemaError(
                f"--avg-len: expected 'class:length' entries, got {part!r}"
            )
        cls_text, len_text = part.split(":", 1)
        try:
            class_id, length = int(cls_text), float(len_text)
        except ValueError:
            raise formats.SchemaError(f"--avg-len: cannot parse entry {part!r}")
        if class_id in table:
            raise formats.SchemaError(f"--avg-len: class {class_id} appears twice")
        table[class_id] = length
    if not table:
        raise formats.SchemaError("--avg-len: empty table")
    return table


def cmd_simulate(args: argparse.Namespace) -> int:
    spec = formats.load_scene_spec(args.spec)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    scene = generate_scene(spec)
    frames = render_detections(scene)
    formats.write_json(
        out_dir / "gt.json", formats.tubes_to_dict({spec.video_id: list(scene.tubes)})
    )
    formats.write_json(
        out_dir / "dets.json", formats.detections_to_dict(spec.video_id, frames)
    )
    print(f"wrote {out_dir / 'gt.json'} and {out_dir / 'dets.json'}")
    return 0


def cmd_link(args: argparse.Namespace) -> int:
    video_id, frames = formats.load_detections(args.dets)
    params = LinkingParams(beta=args.beta)
    tubes = extract_tubes(
        frames,
        params,
        max_tubes_per_class=args.max_tubes,
        min_mean_link_score=args.min_score,
    )
    formats.write_json(args.out, formats.tubes_to_dict({video_id: tubes}))
    print(f"wrote {args.out} ({len(tubes)} tubes)")
    return 0


def cmd_trim(args: argparse.Namespace) -> int:
    if args.avg_len is not None and args.train_gt is not None:
        raise formats.SchemaError("--avg-len and --train-gt cannot both be given")
    tubes_by_video = formats.load_tubes(args.tubes)
    if args.avg_len is not None:
        lengths = _parse_avg_len(args.avg_len)
    elif args.train_gt is not None:
        train = [t for tubes in formats.load_tubes(args.train_gt).values() for t in tubes]
        lengths = avg_class_length(train)
    else:
        raise formats.SchemaError("one of --avg-len or --train-gt is required")
    present = {t.class_id for tubes in tubes_by_video.values() for t in tubes}
    missing = sorted(c for c in present if c not in lengths)
    if missing:
        raise formats.SchemaError(
            f"no average length available for class(es) {missing}"
        )
    params = TrimmingParams(avg_length=lengths, penalty_mode=args.mode)
    link_params = LinkingParams(beta=args.beta)
    n_single = sum(
        1 for tubes in tubes_by_video.values() for t in tubes if t.length < 2
    )
    if n_single:
        print(
            f"warning: {n_single} single-frame tube(s) passed through untrimmed",
            file=sys.stderr,
        )
    trimmed = {
        video_id: trim_tubes(tubes, params, link_params)
        for video_id, tubes in tubes_by_video.items()
    }
    formats.write_json(args.out, formats.tubes_to_dict(trimmed))
    print(f"wrote {args.out}")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    gts = formats.load_tubes(args.gt)
    preds = formats.load_tubes(args.pred)
    deltas = _parse_list(args.deltas, "--deltas", float)
    report = evaluation.evaluate(preds, gts, deltas)
    # every delta scores the same classes
    classes = sorted(report.ap_by_delta[float(deltas[0])]) if args.per_class else []
    lines = ["delta,mAP" + "".join(f",ap_{c}" for c in classes)]
    for delta in deltas:
        aps = report.ap_by_delta[float(delta)]
        per_class = "".join(f",{aps[c]:.6f}" for c in classes)
        lines.append(f"{delta:g},{report.map_by_delta[float(delta)]:.6f}{per_class}")
    _write_text("\n".join(lines) + "\n", args.out)
    return 0


def _emit_recall_rows(
    label: Optional[str], curve: dict[float, float], lines: list[str]
) -> None:
    prefix = f"{label}," if label is not None else ""
    for threshold in sorted(curve):
        lines.append(f"{prefix}{threshold:g},{curve[threshold]:.6f}")


def cmd_proposal_recall(args: argparse.Namespace) -> int:
    if args.cascade_demo and (args.proposals is not None or args.gt is not None):
        raise formats.SchemaError("PROPOSALS and GT cannot be given with --cascade-demo")
    thresholds = _parse_list(args.thresholds, "--thresholds", float)
    lines: list[str] = []
    if args.cascade_demo:
        curves = cascade_recall_demo(
            num_boxes=args.num_boxes, jitter_sigma=args.jitter, seed=args.seed,
            thresholds=thresholds,
        )
        lines.append("label,delta,recall")
        for label in ("one_stage", "two_stage"):
            _emit_recall_rows(label, curves[label], lines)
    else:
        if not args.proposals or not args.gt:
            raise formats.SchemaError(
                "PROPOSALS and GT arguments are required unless --cascade-demo is set"
            )
        video_id, frames = formats.load_detections(args.proposals)
        gt_by_video = formats.load_tubes(args.gt)
        if video_id not in gt_by_video:
            raise formats.SchemaError(
                f"ground truth has no tubes for video {video_id!r}"
            )
        props_by_frame = {
            fd.frame_index: [d.box for d in fd.detections] for fd in frames
        }
        gt_by_frame: dict[int, list[BoundingBox]] = {}
        for tube in gt_by_video[video_id]:
            for offset, box in enumerate(tube.boxes):
                gt_by_frame.setdefault(tube.start_frame + offset, []).append(box)
        best = best_iou_by_frame(props_by_frame, gt_by_frame)
        lines.append("delta,recall")
        _emit_recall_rows(None, recall_curve(best, thresholds), lines)
    _write_text("\n".join(lines) + "\n", args.out)
    return 0


def cmd_study(args: argparse.Namespace) -> int:
    spec_dir = Path(args.spec_dir)
    spec_paths = sorted(spec_dir.glob("*.json"))
    if not spec_paths:
        raise formats.SchemaError(f"no .json scene specs found in {spec_dir}")
    specs = [formats.load_scene_spec(p) for p in spec_paths]
    gaps = _parse_list(args.gaps, "--gaps", int)
    report = evaluation.run_strategy_study(
        specs,
        strategies=_parse_list(args.strategies, "--strategies", str),
        gaps=gaps,
        deltas=_parse_list(args.deltas, "--deltas", float),
        seeds=_parse_list(args.seeds, "--seeds", int),
    )
    _write_text(report.to_csv(), args.out)
    summary_delta = 0.2
    summary_gap = 8 if 8 in gaps else gaps[0]
    cells = [
        (f"learned(K={summary_gap})", STRATEGY_LEARNED, summary_gap),
        (f"non-motion(K={summary_gap})", STRATEGY_NON_MOTION, summary_gap),
        ("none", STRATEGY_NONE, None),
    ]
    found = []
    for label, strategy, gap in cells:
        try:
            found.append((label, report.cell(strategy, gap).map_by_delta[summary_delta]))
        except KeyError:
            pass
    if len(found) >= 2:
        ordered = all(a[1] > b[1] for a, b in zip(found, found[1:]))
        verdict = "strictly ordered" if ordered else "NOT strictly ordered"
        parts = [f"{label}={value:.4f}" for label, value in found]
        print(f"mAP@{summary_delta:g}: " + " > ".join(parts) + f" [{verdict}]")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``tubekit`` parser, built once; ``main`` runs ``cmd_<command>``."""
    parser = argparse.ArgumentParser(
        prog="tubekit",
        description="Synthetic action-tube detection pipeline tools.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate ground truth and noisy detections")
    p.add_argument("spec", help="scene spec JSON file")
    p.add_argument("out_dir", help="output directory for gt.json and dets.json")

    p = sub.add_parser("link", help="link per-frame detections into tubes")
    p.add_argument("dets", help="detection JSON file")
    p.add_argument("out", help="output tube JSON file")
    p.add_argument("--beta", type=float, default=LinkingParams().beta,
                   help="overlap weight in the link score (default %(default)s)")
    p.add_argument("--max-tubes", type=int, default=linking.DEFAULT_MAX_TUBES_PER_CLASS,
                   help="maximum tubes per class (default %(default)s)")
    p.add_argument("--min-score", type=float, default=linking.DEFAULT_MIN_MEAN_LINK_SCORE,
                   help="stop extraction below this mean per-link score (default %(default)s)")

    p = sub.add_parser("trim", help="trim tubes to their best temporal sub-range")
    p.add_argument("tubes", help="tube JSON file")
    p.add_argument("out", help="output tube JSON file")
    p.add_argument("--avg-len", default=None,
                   help="per-class average length table, e.g. '0:40,1:55' (links)")
    p.add_argument("--train-gt", default=None,
                   help="tube JSON file to compute average lengths from")
    p.add_argument("--mode", choices=PENALTY_MODES, default=PENALTY_ABSOLUTE,
                   help="length-drift penalty flavor (default %(default)s)")
    p.add_argument("--beta", type=float, default=LinkingParams().beta,
                   help="overlap weight for recomputing link scores (default %(default)s)")

    p = sub.add_parser("eval", help="score predicted tubes against ground truth")
    p.add_argument("gt", help="ground-truth tube JSON file")
    p.add_argument("pred", help="predicted tube JSON file")
    p.add_argument("--deltas", default=_joined(evaluation.DEFAULT_STUDY_DELTAS),
                   help="overlap thresholds (default %(default)s)")
    p.add_argument("--per-class", action="store_true",
                   help="append one AP column per class")
    p.add_argument("--out", default=None, help="write CSV here instead of stdout")

    p = sub.add_parser(
        "proposal-recall", help="recall-vs-IoU curve for a proposal set"
    )
    p.add_argument("proposals", nargs="?", default=None,
                   help="proposal boxes as a detection JSON file")
    p.add_argument("gt", nargs="?", default=None, help="ground-truth tube JSON file")
    p.add_argument("--thresholds", default=_joined(synthdata.DEMO_RECALL_THRESHOLDS),
                   help="comma-separated IoU thresholds (default %(default)s)")
    p.add_argument("--cascade-demo", action="store_true",
                   help="compare one- vs two-stage oracle refinement instead")
    p.add_argument("--num-boxes", type=int, default=synthdata.DEMO_NUM_BOXES,
                   help="boxes for the cascade demo (default %(default)s)")
    p.add_argument("--jitter", type=float, default=synthdata.DEMO_JITTER_SIGMA,
                   help="anchor corner jitter for the demo (default %(default)s)")
    p.add_argument("--seed", type=int, default=synthdata.DEMO_SEED,
                   help="demo rng seed (default %(default)s)")
    p.add_argument("--out", default=None, help="write CSV here instead of stdout")

    p = sub.add_parser("study", help="anticipation strategy comparison study")
    p.add_argument("spec_dir", help="directory of scene spec JSON files")
    p.add_argument("out", help="output CSV path")
    p.add_argument("--strategies", default=_joined(STRATEGIES),
                   help="comma-separated strategies (default %(default)s)")
    p.add_argument("--gaps", default=_joined(evaluation.DEFAULT_GAPS),
                   help="anticipation gaps in frames (default %(default)s)")
    p.add_argument("--seeds", default=_joined(evaluation.DEFAULT_STUDY_SEEDS),
                   help="seeds to average over (default %(default)s)")
    p.add_argument("--deltas", default=_joined(evaluation.DEFAULT_STUDY_DELTAS),
                   help="overlap thresholds (default %(default)s)")

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    # looked up on every call, so that a replaced module attribute cmd_* runs
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return command(args)
    except (ValueError, OSError) as exc:  # SchemaError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
