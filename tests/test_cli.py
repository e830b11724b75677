import json

import pytest

from tubekit import cli
from tubekit.cli import main
from tubekit.formats import (
    load_detections,
    load_tubes,
    scene_spec_to_dict,
    tubes_to_dict,
    write_json,
)
from tubekit.geometry import BoundingBox
from tubekit.linking import ActionTube
from tubekit.proposals import recall_at_iou
from tubekit.synthdata import ActorSpec, NoiseModel, SceneSpec


def clean_spec(num_frames=40, noise=None, seed=11, video_id="clip"):
    return SceneSpec(
        video_id=video_id,
        width=320,
        height=240,
        num_frames=num_frames,
        actors=(
            ActorSpec(
                class_id=0,
                entry_frame=0,
                exit_frame=num_frames - 1,
                box=BoundingBox(30, 100, 50, 120),
                velocity=(2.0, 0.0),
            ),
            ActorSpec(
                class_id=1,
                entry_frame=0,
                exit_frame=num_frames - 1,
                box=BoundingBox(270, 120, 290, 140),
                velocity=(-2.0, 0.5),
            ),
        ),
        noise=noise if noise is not None else NoiseModel.noiseless(),
        seed=seed,
    )


@pytest.fixture
def spec_file(tmp_path):
    path = tmp_path / "scene.json"
    write_json(path, scene_spec_to_dict(clean_spec()))
    return path


def test_simulate_writes_both_files(tmp_path, spec_file, capsys):
    out = tmp_path / "out"
    assert main(["simulate", str(spec_file), str(out)]) == 0
    assert (out / "gt.json").exists()
    assert (out / "dets.json").exists()
    gt = json.loads((out / "gt.json").read_text())
    dets = json.loads((out / "dets.json").read_text())
    assert gt["format_version"] == 1
    assert len(gt["tubes"]) == 2
    assert len(dets["frames"]) == 40


def test_noiseless_pipeline_reaches_perfect_map(tmp_path, spec_file, capsys):
    out = tmp_path / "out"
    assert main(["simulate", str(spec_file), str(out)]) == 0
    assert main(["link", str(out / "dets.json"), str(out / "tubes.json")]) == 0
    assert (
        main(
            [
                "trim",
                str(out / "tubes.json"),
                str(out / "trimmed.json"),
                "--train-gt",
                str(out / "gt.json"),
            ]
        )
        == 0
    )
    csv_path = out / "eval.csv"
    assert (
        main(
            [
                "eval",
                str(out / "gt.json"),
                str(out / "trimmed.json"),
                "--deltas",
                "0.5",
                "--out",
                str(csv_path),
            ]
        )
        == 0
    )
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "delta,mAP"
    delta, value = lines[1].split(",")
    assert delta == "0.5"
    assert float(value) == 1.0


def test_eval_to_stdout_with_per_class_columns(tmp_path, spec_file, capsys):
    out = tmp_path / "out"
    main(["simulate", str(spec_file), str(out)])
    main(["link", str(out / "dets.json"), str(out / "tubes.json")])
    capsys.readouterr()
    code = main(
        [
            "eval",
            str(out / "gt.json"),
            str(out / "tubes.json"),
            "--deltas",
            "0.2,0.5",
            "--per-class",
        ]
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "delta,mAP,ap_0,ap_1"
    assert len(lines) == 3
    for line in lines[1:]:
        cells = line.split(",")
        assert len(cells) == 4
        float(cells[1])


def _shifted_class_0(gt_path, out_path, dx):
    """The ground-truth tubes with every class-0 box moved ``dx`` to the right."""
    shifted = {
        video_id: [
            ActionTube(
                t.class_id,
                t.start_frame,
                tuple(
                    BoundingBox(b.x1 + dx, b.y1, b.x2 + dx, b.y2) if t.class_id == 0 else b
                    for b in t.boxes
                ),
                t.scores,
            )
            for t in tubes
        ]
        for video_id, tubes in load_tubes(gt_path).items()
    }
    write_json(out_path, tubes_to_dict(shifted))


@pytest.mark.parametrize(
    "pred, per_class, expected",
    [
        ("tubes.json", False, "delta,mAP\n0.2,1.000000\n0.5,1.000000\n"),
        (
            "tubes.json",
            True,
            "delta,mAP,ap_0,ap_1\n0.2,1.000000,1.000000,1.000000\n"
            "0.5,1.000000,1.000000,1.000000\n",
        ),
        # class 0 overlaps its ground truth by 1/3: a hit at 0.2, a miss at 0.5
        ("shifted.json", False, "delta,mAP\n0.2,1.000000\n0.5,0.500000\n"),
        (
            "shifted.json",
            True,
            "delta,mAP,ap_0,ap_1\n0.2,1.000000,1.000000,1.000000\n"
            "0.5,0.500000,0.000000,1.000000\n",
        ),
    ],
    ids=["plain", "per-class", "shifted-plain", "shifted-per-class"],
)
def test_eval_csv_bytes(tmp_path, spec_file, capsys, pred, per_class, expected):
    out = tmp_path / "out"
    main(["simulate", str(spec_file), str(out)])
    main(["link", str(out / "dets.json"), str(out / "tubes.json")])
    _shifted_class_0(out / "gt.json", out / "shifted.json", 10.0)
    capsys.readouterr()
    argv = ["eval", str(out / "gt.json"), str(out / pred), "--deltas", "0.2,0.5"]
    assert main(argv + ["--per-class"] * per_class) == 0
    assert capsys.readouterr().out == expected


def test_missing_spec_field_exits_2_and_names_it(tmp_path, capsys):
    data = scene_spec_to_dict(clean_spec())
    del data["width"]
    path = tmp_path / "broken.json"
    write_json(path, data)
    assert main(["simulate", str(path), str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "width" in err


@pytest.mark.parametrize("field", ["width", "height"])
def test_simulate_dimension_beyond_float_range_exits_2(tmp_path, capsys, field):
    data = scene_spec_to_dict(clean_spec())
    data[field] = 10**400
    path = tmp_path / "huge.json"
    write_json(path, data)
    assert main(["simulate", str(path), str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: {path}: image dimensions must fit in a float\n"


@pytest.mark.parametrize(
    "content, message",
    [
        (b'{"format_version": 1, "video_id": "\xff"}', "not UTF-8 text at byte 35"),
        (b"[" * 200000, "invalid JSON: nested too deeply"),
    ],
    ids=["not-utf8", "deep-nesting"],
)
def test_link_unreadable_json_exits_2_naming_the_file(tmp_path, capsys, content, message):
    path = tmp_path / "dets.json"
    path.write_bytes(content)
    assert main(["link", str(path), str(tmp_path / "tubes.json")]) == 2
    assert capsys.readouterr().err == f"error: {path}: {message}\n"


@pytest.mark.parametrize(
    "first, second, bad",
    [
        ([0.0, 0.0, 1e308, 1e308], [-1e308, -1e308, 1e308, 1e308], 0),
        ([0.0, 0.0, 10.0, 10.0], [-1e308, -1e308, 1e308, 1e308], 1),
        ([0.0, 0.0, 10.0, 10.0], [0.0, 0.0, 1e300, 1e300], 1),
    ],
    ids=["both-frames", "second-frame", "finite-sides"],
)
def test_link_refuses_a_box_whose_area_overflows(tmp_path, capsys, first, second, bad):
    # the two IoU kernels disagree on such boxes (NaN against 0.0), so the
    # reader stops them before linking warns or writes a tube
    frames = [
        {"frame_index": t, "detections": [{"bbox": box, "class_id": 0, "score": 0.9}]}
        for t, box in enumerate((first, second))
    ]
    path = tmp_path / "dets.json"
    write_json(path, {"format_version": 1, "video_id": "v", "frames": frames})
    assert main(["link", str(path), str(tmp_path / "tubes.json")]) == 2
    assert capsys.readouterr().err == (
        f"error: {path}.frames[{bad}].detections[0].bbox: "
        "box area (x2 - x1) * (y2 - y1) must be finite\n"
    )
    assert not (tmp_path / "tubes.json").exists()


def test_trim_refuses_a_tube_box_whose_area_overflows(tmp_path, capsys):
    tube = {
        "video_id": "v",
        "class_id": 0,
        "start": 0,
        "end": 1,
        "tube_score": 0.9,
        "boxes": [[0.0, 0.0, 10.0, 10.0], [-1e308, -1e308, 1e308, 1e308]],
        "scores": [0.9, 0.9],
    }
    path = tmp_path / "tubes.json"
    write_json(path, {"format_version": 1, "tubes": [tube]})
    assert main(["trim", str(path), str(tmp_path / "out.json"), "--avg-len", "0:1"]) == 2
    assert capsys.readouterr().err == (
        f"error: {path}.tubes[0].boxes[1]: box area (x2 - x1) * (y2 - y1) must be finite\n"
    )


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "first, second, bad",
    [
        ([0.0, 0.0, 1e154, 1e154], [0.0, 0.0, 1e154, 1e154], 0),
        ([-1e308, 0.0, -0.9e308, 1.0], [0.9e308, 0.0, 1e308, 1.0], 0),
        ([0.0, 0.0, 10.0, 10.0], [0.9e308, 0.0, 1e308, 1.0], 1),
    ],
    ids=["union-overflows", "corner-gap-overflows", "second-frame"],
)
def test_link_refuses_a_box_beyond_half_the_float_range(tmp_path, capsys, first, second, bad):
    # each box's area is finite, but two of them overflow a sum or a
    # difference of the IoU kernels
    frames = [
        {"frame_index": t, "detections": [{"bbox": box, "class_id": 0, "score": 0.9}]}
        for t, box in enumerate((first, second))
    ]
    path = tmp_path / "dets.json"
    write_json(path, {"format_version": 1, "video_id": "v", "frames": frames})
    assert main(["link", str(path), str(tmp_path / "tubes.json")]) == 2
    assert capsys.readouterr().err == (
        f"error: {path}.frames[{bad}].detections[0].bbox: "
        "box corners and area must not exceed 8.988465674311579e+307 in magnitude\n"
    )
    assert not (tmp_path / "tubes.json").exists()


def test_trim_refuses_both_length_sources(tmp_path, spec_file, capsys):
    out = tmp_path / "out"
    main(["simulate", str(spec_file), str(out)])
    main(["link", str(out / "dets.json"), str(out / "tubes.json")])
    capsys.readouterr()
    trimmed = tmp_path / "trimmed.json"
    argv = ["trim", str(out / "tubes.json"), str(trimmed), "--avg-len", "0:5,1:5"]
    assert main([*argv, "--train-gt", str(out / "gt.json")]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: --avg-len and --train-gt cannot both be given\n"
    assert captured.out == ""
    assert not trimmed.exists()


@pytest.mark.parametrize("files", [2, 1], ids=["proposals-and-gt", "proposals-only"])
def test_proposal_recall_refuses_files_with_the_cascade_demo(tmp_path, spec_file, capsys, files):
    out = tmp_path / "out"
    main(["simulate", str(spec_file), str(out)])
    capsys.readouterr()
    csv = tmp_path / "demo.csv"
    inputs = [str(out / "dets.json"), str(out / "gt.json")][:files]
    argv = ["proposal-recall", *inputs, "--cascade-demo", "--num-boxes", "4", "--out", str(csv)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: PROPOSALS and GT cannot be given with --cascade-demo\n"
    assert captured.out == ""
    assert not csv.exists()


def test_link_rejects_bad_beta(tmp_path, spec_file, capsys):
    out = tmp_path / "out"
    main(["simulate", str(spec_file), str(out)])
    code = main(
        ["link", str(out / "dets.json"), str(out / "tubes.json"), "--beta", "1.5"]
    )
    assert code == 2
    assert "beta" in capsys.readouterr().err


def test_link_nan_min_score_exits_2(tmp_path, spec_file, capsys):
    out = tmp_path / "out"
    main(["simulate", str(spec_file), str(out)])
    capsys.readouterr()
    code = main(["link", str(out / "dets.json"), str(out / "tubes.json"), "--min-score", "nan"])
    assert code == 2
    assert capsys.readouterr().err == "error: min_mean_link_score must not be NaN\n"
    assert not (out / "tubes.json").exists()


def test_link_infinite_min_score_keeps_its_meaning(tmp_path, spec_file, capsys):
    out = tmp_path / "out"
    main(["simulate", str(spec_file), str(out)])
    dets = str(out / "dets.json")
    assert main(["link", dets, str(out / "none.json"), "--min-score", "inf"]) == 0
    assert main(["link", dets, str(out / "all.json"), "--min-score=-inf"]) == 0
    assert load_tubes(out / "none.json") == {}
    assert sum(len(t) for t in load_tubes(out / "all.json").values()) == 2


def test_trim_needs_a_length_source(tmp_path, spec_file, capsys):
    out = tmp_path / "out"
    main(["simulate", str(spec_file), str(out)])
    main(["link", str(out / "dets.json"), str(out / "tubes.json")])
    code = main(["trim", str(out / "tubes.json"), str(out / "trimmed.json")])
    assert code == 2
    assert "avg-len" in capsys.readouterr().err


def test_trim_avg_len_table(tmp_path, spec_file, capsys):
    out = tmp_path / "out"
    main(["simulate", str(spec_file), str(out)])
    main(["link", str(out / "dets.json"), str(out / "tubes.json")])
    code = main(
        [
            "trim",
            str(out / "tubes.json"),
            str(out / "trimmed.json"),
            "--avg-len",
            "0:39,1:39",
        ]
    )
    assert code == 0
    assert (out / "trimmed.json").exists()


def test_trim_missing_class_exits_2_naming_it(tmp_path, spec_file, capsys):
    out = tmp_path / "out"
    main(["simulate", str(spec_file), str(out)])
    main(["link", str(out / "dets.json"), str(out / "tubes.json")])
    code = main(
        [
            "trim",
            str(out / "tubes.json"),
            str(out / "trimmed.json"),
            "--avg-len",
            "0:39",
        ]
    )
    assert code == 2
    assert "1" in capsys.readouterr().err  # class 1 has no average


def test_trim_single_frame_tube_warns_and_passes_through(tmp_path, capsys):
    tube_data = {
        "format_version": 1,
        "tubes": [
            {
                "video_id": "v",
                "class_id": 0,
                "start": 3,
                "end": 3,
                "tube_score": 0.8,
                "boxes": [[0, 0, 10, 10]],
                "scores": [0.8],
            }
        ],
    }
    path = tmp_path / "tubes.json"
    write_json(path, tube_data)
    out = tmp_path / "trimmed.json"
    code = main(["trim", str(path), str(out), "--avg-len", "0:5"])
    assert code == 0
    err = capsys.readouterr().err
    assert "single-frame" in err
    result = json.loads(out.read_text())
    assert len(result["tubes"]) == 1
    assert result["tubes"][0]["start"] == 3
    assert result["tubes"][0]["end"] == 3


def test_proposal_recall_files_mode(tmp_path, spec_file, capsys):
    out = tmp_path / "out"
    main(["simulate", str(spec_file), str(out)])
    capsys.readouterr()
    code = main(
        [
            "proposal-recall",
            str(out / "dets.json"),
            str(out / "gt.json"),
            "--thresholds",
            "0.5,0.7,0.9",
        ]
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "delta,recall"
    values = [float(line.split(",")[1]) for line in lines[1:]]
    assert len(values) == 3
    # noiseless detections cover the ground truth at every threshold
    assert values == [1.0, 1.0, 1.0]


def test_proposal_recall_requires_files_without_demo(capsys):
    assert main(["proposal-recall"]) == 2
    assert "cascade-demo" in capsys.readouterr().err


@pytest.mark.parametrize("jitter", ["-1", "nan", "inf"])
def test_proposal_recall_rejects_bad_jitter(jitter, capsys):
    code = main(["proposal-recall", "--cascade-demo", "--num-boxes", "4", f"--jitter={jitter}"])
    assert code == 2
    err = capsys.readouterr().err
    assert err == f"error: jitter_sigma must be finite and non-negative, got {float(jitter)}\n"


@pytest.mark.parametrize(
    "flag, message",
    [("--seed=-1", "seed must be non-negative"), ("--num-boxes=0", "need at least one box")],
)
def test_proposal_recall_cascade_demo_bad_seed_or_count_exits_2(flag, message, capsys):
    assert main(["proposal-recall", "--cascade-demo", "--num-boxes", "4", flag]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_proposal_recall_cascade_demo(tmp_path, capsys):
    code = main(["proposal-recall", "--cascade-demo", "--num-boxes", "120"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "label,delta,recall"
    labels = {line.split(",")[0] for line in lines[1:]}
    assert labels == {"one_stage", "two_stage"}
    assert len(lines) == 1 + 2 * 10  # default threshold grid


@pytest.mark.filterwarnings("error")
def test_proposal_recall_cascade_demo_with_astronomical_jitter(tmp_path, capsys):
    out = tmp_path / "demo.csv"
    argv = ["--cascade-demo", "--num-boxes", "3", "--jitter", "1e200", "--out", str(out)]
    assert main(["proposal-recall", *argv]) == 0
    assert capsys.readouterr().err == ""
    assert out.read_text().startswith("label,delta,recall\none_stage,0.5,")


def per_box_recall_csv(dets_path, gt_path, thresholds):
    """File-mode recall as one ``recall_at_iou`` call per ground-truth box (reference)."""
    video_id, frames = load_detections(dets_path)
    props_by_frame = {fd.frame_index: [d.box for d in fd.detections] for fd in frames}
    hits = {float(t): 0 for t in thresholds}
    total = 0
    for tube in load_tubes(gt_path)[video_id]:
        for offset, box in enumerate(tube.boxes):
            total += 1
            frame_props = props_by_frame.get(tube.start_frame + offset, [])
            if not frame_props:
                continue
            curve = recall_at_iou(frame_props, [box], thresholds)
            for t, covered in curve.items():
                hits[t] += int(covered > 0)
    rows = [f"{t:g},{hits[t] / total:.6f}" for t in sorted(hits)]
    return "delta,recall\n" + "\n".join(rows) + "\n"


def test_proposal_recall_files_mode_matches_per_box_reference(tmp_path, capsys):
    noisy = clean_spec(noise=NoiseModel(sigma_loc=2.0, miss_rate=0.2, fp_rate=1.0))
    spec_path = tmp_path / "noisy.json"
    write_json(spec_path, scene_spec_to_dict(noisy))
    out = tmp_path / "out"
    assert main(["simulate", str(spec_path), str(out)]) == 0
    dets = json.loads((out / "dets.json").read_text())
    # frame 5 goes missing from the proposal file and frame 8 loses its
    # detections; both actors span every frame, so each frame has two ground truths
    dets["frames"] = [f for f in dets["frames"] if f["frame_index"] != 5]
    next(f for f in dets["frames"] if f["frame_index"] == 8)["detections"] = []
    write_json(out / "dets.json", dets)
    thresholds = [0.0, 0.3, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0]
    csv = out / "recall.csv"
    code = main(
        [
            "proposal-recall",
            str(out / "dets.json"),
            str(out / "gt.json"),
            "--thresholds",
            ",".join(map(str, thresholds)),
            "--out",
            str(csv),
        ]
    )
    assert code == 0
    want = per_box_recall_csv(out / "dets.json", out / "gt.json", thresholds)
    assert csv.read_text() == want
    assert want.splitlines()[1] == "0,0.900000"  # frames 5, 8, 9 and 32 have no proposals


@pytest.mark.parametrize("thresholds", ["nan,0.5", "1.5", "-0.5", "0.5,0.5"])
@pytest.mark.parametrize("mode", ["files", "demo"])
def test_proposal_recall_bad_thresholds_exit_2(tmp_path, spec_file, capsys, thresholds, mode):
    if mode == "files":
        out = tmp_path / "out"
        main(["simulate", str(spec_file), str(out)])
        inputs = [str(out / "dets.json"), str(out / "gt.json")]
    else:
        inputs = ["--cascade-demo", "--num-boxes", "4"]
    capsys.readouterr()
    code = main(["proposal-recall", *inputs, f"--thresholds={thresholds}"])
    assert code == 2
    captured = capsys.readouterr()
    assert "distinct and in [0, 1]" in captured.err
    assert captured.out == ""


def test_outputs_are_byte_identical_across_runs(tmp_path, spec_file, capsys):
    noisy = clean_spec(noise=NoiseModel(sigma_loc=1.5, miss_rate=0.05, fp_rate=0.5))
    noisy_path = tmp_path / "noisy.json"
    write_json(noisy_path, scene_spec_to_dict(noisy))
    outputs = []
    for run in ("a", "b"):
        out = tmp_path / run
        main(["simulate", str(noisy_path), str(out)])
        main(["link", str(out / "dets.json"), str(out / "tubes.json")])
        main(
            [
                "trim",
                str(out / "tubes.json"),
                str(out / "trimmed.json"),
                "--train-gt",
                str(out / "gt.json"),
            ]
        )
        main(
            [
                "eval",
                str(out / "gt.json"),
                str(out / "trimmed.json"),
                "--out",
                str(out / "eval.csv"),
            ]
        )
        outputs.append(
            {
                name: (out / name).read_bytes()
                for name in ("gt.json", "dets.json", "tubes.json", "trimmed.json", "eval.csv")
            }
        )
    assert outputs[0] == outputs[1]


def test_study_tiny_run(tmp_path, capsys):
    spec_dir = tmp_path / "specs"
    spec_dir.mkdir()
    write_json(
        spec_dir / "scene.json",
        scene_spec_to_dict(
            clean_spec(
                num_frames=36,
                noise=NoiseModel(
                    sigma_loc=1.0,
                    miss_rate=0.02,
                    fp_rate=0.2,
                    tp_score_mean=0.9,
                    tp_score_sigma=0.04,
                    fp_score_mean=0.35,
                    fp_score_sigma=0.08,
                ),
            )
        ),
    )
    out = tmp_path / "study.csv"
    code = main(
        [
            "study",
            str(spec_dir),
            str(out),
            "--gaps",
            "2",
            "--seeds",
            "0",
        ]
    )
    assert code == 0
    captured = capsys.readouterr().out
    assert "mAP@0.2:" in captured
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "strategy,K,delta,mAP"
    # rows: none + (non-motion, learned) x 1 gap, each over 6 deltas
    assert len(lines) == 1 + 3 * 6
    none_rows = [l for l in lines[1:] if l.startswith("none,")]
    assert all(l.split(",")[1] == "" for l in none_rows)


def test_study_summary_skips_missing_cells(tmp_path, capsys):
    spec_dir = tmp_path / "specs"
    spec_dir.mkdir()
    write_json(spec_dir / "scene.json", scene_spec_to_dict(clean_spec(num_frames=12)))
    out = tmp_path / "study.csv"
    args = ["study", str(spec_dir), str(out), "--gaps", "2", "--seeds", "0"]
    assert main(args + ["--strategies", "none"]) == 0
    assert "mAP@" not in capsys.readouterr().out
    assert out.read_text().startswith("strategy,K,delta,mAP\n")
    assert main(args + ["--strategies", "none,learned"]) == 0
    summary = capsys.readouterr().out
    assert "learned(K=2)=" in summary and "none=" in summary
    assert "non-motion" not in summary


def test_study_without_summary_threshold_exits_2(tmp_path, capsys):
    # the summary threshold 0.2 is one the study always requires
    spec_dir = tmp_path / "specs"
    spec_dir.mkdir()
    write_json(spec_dir / "scene.json", scene_spec_to_dict(clean_spec()))
    out = tmp_path / "s.csv"
    assert main(["study", str(spec_dir), str(out), "--deltas", "0.5"]) == 2
    assert "study must include thresholds" in capsys.readouterr().err
    assert not out.exists()


def test_study_empty_spec_dir_exits_2(tmp_path, capsys):
    empty = tmp_path / "specs"
    empty.mkdir()
    assert main(["study", str(empty), str(tmp_path / "s.csv")]) == 2


def test_unknown_subcommand_is_a_usage_error(capsys):
    with pytest.raises(SystemExit):
        main(["defragment"])


def test_study_empty_strategy_list_exits_2(tmp_path, capsys):
    spec_dir = tmp_path / "specs"
    spec_dir.mkdir()
    write_json(spec_dir / "scene.json", scene_spec_to_dict(clean_spec()))
    out = tmp_path / "s.csv"
    assert main(["study", str(spec_dir), str(out), "--strategies", ""]) == 2
    assert "--strategies" in capsys.readouterr().err
    assert not out.exists()


def test_study_repeated_gap_exits_2(tmp_path, capsys):
    spec_dir = tmp_path / "specs"
    spec_dir.mkdir()
    write_json(spec_dir / "scene.json", scene_spec_to_dict(clean_spec()))
    out = tmp_path / "s.csv"
    assert main(["study", str(spec_dir), str(out), "--gaps", "8,8"]) == 2
    assert "gaps must not repeat" in capsys.readouterr().err
    assert not out.exists()


def test_study_negative_seed_exits_2(tmp_path, capsys):
    spec_dir = tmp_path / "specs"
    spec_dir.mkdir()
    write_json(spec_dir / "scene.json", scene_spec_to_dict(clean_spec()))
    out = tmp_path / "s.csv"
    assert main(["study", str(spec_dir), str(out), "--seeds", "-1"]) == 2
    assert capsys.readouterr().err == "error: seed must be non-negative\n"
    assert not out.exists()


def test_study_gap_reaching_the_scene_end_exits_2(tmp_path, capsys):
    spec_dir = tmp_path / "specs"
    spec_dir.mkdir()
    write_json(spec_dir / "scene.json", scene_spec_to_dict(clean_spec(num_frames=12)))
    out = tmp_path / "s.csv"
    assert main(["study", str(spec_dir), str(out), "--gaps", "2,12", "--seeds", "0"]) == 2
    assert capsys.readouterr().err == "error: gap 12 must be below the 12 frames of scene 'clip'\n"
    assert not out.exists()


def test_parser_is_built_once_and_commands_are_looked_up_per_call(monkeypatch):
    ran = []
    monkeypatch.setattr(cli, "cmd_eval", lambda args: ran.append((args.gt, args.pred)) or 0)
    cli.build_parser.cache_clear()
    assert main(["eval", "gt1.json", "pred1.json"]) == 0
    assert main(["eval", "gt2.json", "pred2.json"]) == 0
    assert ran == [("gt1.json", "pred1.json"), ("gt2.json", "pred2.json")]
    assert cli.build_parser.cache_info().misses == 1


def test_trim_non_finite_avg_len_exits_2(tmp_path, spec_file, capsys):
    out = tmp_path / "out"
    main(["simulate", str(spec_file), str(out)])
    main(["link", str(out / "dets.json"), str(out / "tubes.json")])
    trimmed = out / "trimmed.json"
    code = main(
        ["trim", str(out / "tubes.json"), str(trimmed), "--avg-len", "0:nan,1:39"]
    )
    assert code == 2
    assert "finite and positive" in capsys.readouterr().err
    assert not trimmed.exists()


def test_eval_non_finite_tube_score_exits_2(tmp_path, spec_file, capsys):
    out = tmp_path / "out"
    main(["simulate", str(spec_file), str(out)])
    pred = json.loads((out / "gt.json").read_text())
    pred["tubes"][0]["scores"][0] = float("nan")
    write_json(out / "pred.json", pred)
    capsys.readouterr()
    assert main(["eval", str(out / "gt.json"), str(out / "pred.json")]) == 2
    err = capsys.readouterr().err
    assert ".tubes[0].scores[0]: expected a finite number" in err


def test_eval_repeated_delta_exits_2(tmp_path, spec_file, capsys):
    out = tmp_path / "out"
    main(["simulate", str(spec_file), str(out)])
    capsys.readouterr()
    code = main(["eval", str(out / "gt.json"), str(out / "gt.json"), "--deltas", "0.2,0.2"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: deltas must not repeat, got [0.2, 0.2]\n"


def test_trim_repeated_avg_len_class_exits_2(tmp_path, spec_file, capsys):
    out = tmp_path / "out"
    main(["simulate", str(spec_file), str(out)])
    main(["link", str(out / "dets.json"), str(out / "tubes.json")])
    capsys.readouterr()
    trimmed = out / "trimmed.json"
    code = main(
        ["trim", str(out / "tubes.json"), str(trimmed), "--avg-len", "0:5,0:20,1:20"]
    )
    assert code == 2
    assert capsys.readouterr().err == "error: --avg-len: class 0 appears twice\n"
    assert not trimmed.exists()


def _assert_unwritable_reported(path, capsys):
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert str(path) in err
    assert "Traceback" not in err


def test_link_to_unwritable_path_exits_2(tmp_path, spec_file, capsys):
    out = tmp_path / "out"
    main(["simulate", str(spec_file), str(out)])
    target = tmp_path / "missing_dir" / "tubes.json"
    assert main(["link", str(out / "dets.json"), str(target)]) == 2
    _assert_unwritable_reported(target, capsys)


def test_eval_csv_to_unwritable_path_exits_2(tmp_path, spec_file, capsys):
    out = tmp_path / "out"
    main(["simulate", str(spec_file), str(out)])
    target = tmp_path / "missing_dir" / "eval.csv"
    code = main(
        ["eval", str(out / "gt.json"), str(out / "gt.json"), "--out", str(target)]
    )
    assert code == 2
    _assert_unwritable_reported(target, capsys)
