#!/usr/bin/env python3
"""tubekit benchmark: one workload per run, untraced or traced.

Run from the repository root::

    python3 bench/run.py --workload crowded-link --seed 0 --seconds 30 --trace 0

The run imports ``tubekit`` from ``src/`` next to this directory, builds the
workload's inputs from ``--seed``, runs one untimed warm-up iteration, then
repeats the workload for ``--seconds`` seconds in one process on one thread
(BLAS is pinned to one thread). Set-up and iteration times are scaled to a
fixed machine speed with the calibration loop in ``speed.py``; the
wall-clock medians are printed beside them. Every iteration's outputs are checked: an
iteration fails if it raises, a CLI step exits non-zero, an output invariant
is broken, or its fingerprint differs from ``reference.json`` (for the seeds
stored there) or else from the run's first iteration.

With ``--trace 0`` the run reports the end-to-end metrics. With ``--trace 1``
it alternates untraced and traced iterations and reports per-layer metrics
from the traced ones (see ``tracer.py``), plus the tracing overhead as the
difference of the two medians; the spans of the last traced iteration are
written to ``.bench_out/``.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. Exit code 0 on a completed run (even with failed iterations),
2 when the sources are missing or the arguments are invalid.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
REFERENCE = BENCH_DIR / "reference.json"

WORKLOAD_NAMES = ("study-drift", "crowded-link", "long-cli")
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# set-up is timed once in this process and again in fresh interpreters, so
# that the import cost is measured more than once; the median is reported
SETUP_SAMPLES = {"full": 5, "tiny": 2}

END_TO_END_UNITS = {"run_s": "s", "frames_per_s": "frames/s", "setup_s": "s", "peak_rss_mb": "MB"}
# printed and checked, but not in the JSON metrics: mAP is deterministic for
# a seed and varies from seed to seed by more than any timing bound
MAP_DELTAS = ("0.2", "0.5")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(SETUP_SAMPLES), default="full",
                        help="input size; 'tiny' is the smoke size for the tests")
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up, print its seconds and a calibration-loop sample, exit")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds < 0:
        parser.error("--seconds must be non-negative")
    return args


def tail(samples: list[float]) -> tuple[float, float] | None:
    """Highest percentile with at least ten samples above it, as (pct, value)."""
    n = len(samples)
    if n <= 10:
        return None
    return 100.0 * (n - 10) / n, sorted(samples)[n - 11]


def timed_setup(args, workdir: Path):
    start = time.perf_counter()
    import workloads  # imports numpy and tubekit: part of the set-up time

    import tubekit

    if not Path(tubekit.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"error: tubekit imported from {tubekit.__file__}, not {SRC}")
    workload = workloads.WORKLOADS[args.workload]
    inputs = workload.setup(args.seed, args.size, workdir)
    return time.perf_counter() - start, workload, inputs


def child_setup(args) -> tuple[float, float]:
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--setup-only",
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", "0", "--size", args.size,
    ]
    proc = subprocess.run(
        cmd, capture_output=True, text=True, timeout=120, cwd=ROOT,
        env={**os.environ, **BLAS_ENV},
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up in a fresh interpreter failed:\n{proc.stderr}")
    setup_s, loop_s = proc.stdout.split()[-2:]
    return float(setup_s), float(loop_s)


def load_reference(args) -> dict | None:
    table = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    return table.get(args.size, {}).get(args.workload, {}).get(str(args.seed))


class Runner:
    """Runs and checks iterations of one workload, counting failures."""

    def __init__(self, workload, inputs, reference: dict | None) -> None:
        self.workload = workload
        self.inputs = inputs
        self.reference = reference
        self.first: dict | None = None
        self.attempted = 0
        self.failed = 0

    def iterate(self, tracer=None) -> float:
        """One iteration; returns its wall time, tracer installed only while running."""
        self.attempted += 1
        if tracer is not None:
            tracer.reset()
            tracer.install()
        start = time.perf_counter()
        try:
            output = self.workload.run(self.inputs)
            crashed = None
        except Exception:  # an iteration that raises is counted, not fatal
            crashed = traceback.format_exc()
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
        errors = [crashed] if crashed else self.verify(output)
        if errors:
            self.failed += 1
            print(f"iteration {self.attempted} failed:", *errors[:5], sep="\n  ", file=sys.stderr)
        return elapsed

    def verify(self, output) -> list[str]:
        try:
            fp = self.workload.fingerprint(self.inputs, output)
            errors = self.workload.check(self.inputs, output, fp)
        except Exception:
            return [traceback.format_exc()]
        expected, source = self.reference, "reference.json"
        if expected is None:
            expected, source = self.first, "the first iteration"
        if expected is not None and fp != expected:
            errors.append(f"fingerprint {fp} differs from {source}: {expected}")
        if self.first is None and not errors:
            self.first = fp
        return errors


def emit(lines: list[str], runner: Runner, metrics: dict[str, tuple[float, str]]) -> None:
    for line in lines:
        print(line)
    print(json.dumps({
        "correct": runner.failed == 0 and runner.first is not None,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def measure(args, workdir: Path) -> int:
    setup_s, workload, inputs = timed_setup(args, workdir)
    import speed
    import tracer as tracing

    setups = [(setup_s, speed.sample())]
    setups += [child_setup(args) for _ in range(SETUP_SAMPLES[args.size] - 1)]
    runner = Runner(workload, inputs, load_reference(args))
    tracer = tracing.Tracer() if args.trace else None
    runner.iterate()  # warm-up: fills caches and fixes the fingerprint; not timed
    untraced: list[float] = []
    scaled: list[float] = []  # untraced times at the reference speed
    traced: list[float] = []
    summaries: list[dict] = []
    loops = [speed.sample()]
    deadline = time.perf_counter() + args.seconds
    while True:
        trace_this = tracer is not None and len(traced) < len(untraced)
        elapsed = runner.iterate(tracer if trace_this else None)
        loops.append(speed.sample())
        if trace_this:
            traced.append(elapsed)
            summaries.append(tracer.summary(elapsed))
        else:
            untraced.append(elapsed)
            scaled.append(elapsed * speed.REFERENCE_S / statistics.mean(loops[-2:]))
        if time.perf_counter() >= deadline and (tracer is None or traced):
            break

    header = (f"workload {args.workload}  seed {args.seed}  size {args.size}  "
              f"trace {args.trace}  iterations {runner.attempted} (1 warm-up)")
    fail_line = (f"fail_ratio {runner.failed / runner.attempted:.6g} "
                 f"({runner.failed} of {runner.attempted} iterations)")
    if tracer is None:
        speed_line = (f"speed: calibration loop median {statistics.median(loops):.6g} s, "
                      f"reference {speed.REFERENCE_S} s; run_s and setup_s are scaled to it")
        run_s = statistics.median(scaled)
        frames = workload.frames(inputs)
        maps = runner.first["map"] if runner.first else {}
        metrics = {
            "run_s": (run_s, "s"),
            "frames_per_s": (frames / run_s, "frames/s"),
            "setup_s": (statistics.median(s * speed.REFERENCE_S / k for s, k in setups), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        high = tail(scaled)
        notes = {
            "run_s": f"median of {len(untraced)} iterations; wall median "
                     f"{statistics.median(untraced):.6g} s",
            "frames_per_s": f"{frames} frames per iteration",
            "setup_s": f"median of {len(setups)} set-ups; wall median "
                       f"{statistics.median(s for s, _ in setups):.6g} s",
        }
        lines = [header, speed_line]
        for name, (value, unit) in metrics.items():
            lines.append(f"{name:<14} {value:.6g} {unit}  {notes.get(name, '')}".rstrip())
        for delta in MAP_DELTAS:
            value = maps.get(delta)
            lines.append(f"map_{delta:<10} {'n/a' if value is None else f'{value:.6g}'} ratio  "
                         f"tube mAP at delta {delta}, checked output")
        lines.append(
            f"run_s_tail     {high[1]:.6g} s  p{high[0]:.0f} of {len(untraced)} iterations"
            if high else
            f"run_s_tail     n/a  needs more than 10 iterations, had {len(untraced)}"
        )
        lines.append(fail_line)
        emit(lines, runner, metrics)
        return 0

    per_layer = {name: statistics.median(s[name] for s in summaries) for name in summaries[0]}
    traced_s, untraced_s = statistics.median(traced), statistics.median(untraced)
    per_layer["trace.run_s"] = traced_s
    per_layer["trace.untraced_run_s"] = untraced_s
    per_layer["trace.overhead_s"] = traced_s - untraced_s
    per_layer["trace.overhead_ratio"] = (traced_s - untraced_s) / untraced_s
    metrics = {n: (per_layer[n], u) for n, u in tracing.PER_LAYER_UNITS.items()}

    spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}-{args.size}.json"
    # the tracer still holds the spans of the last traced iteration
    spans_path.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                                      "spans": tracer.dump()}))
    lines = [header, f"traced iterations {len(traced)}, untraced {len(untraced)}; spans in {spans_path}",
             f"{'layer':<14}{'self_s':>10}{'share':>8}{'calls':>10}"]
    for layer in tracing.LAYERS:
        self_s = per_layer[f"{layer}.self_s"]
        lines.append(f"{layer:<14}{self_s:>10.4f}{self_s / traced_s:>8.1%}"
                     f"{per_layer[f'{layer}.calls']:>10.0f}")
    lines += [f"{name} {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    lines.append("wait time: none; the program is single-threaded and nothing waits on a queue")
    lines.append(fail_line)
    emit(lines, runner, metrics)
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "tubekit" / "__init__.py").is_file():
        print(f"error: no tubekit sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    try:
        if args.setup_only:
            setup_s = timed_setup(args, workdir)[0]
            import speed

            print(setup_s, speed.sample())
            return 0
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    os.environ.update(BLAS_ENV)  # before numpy is imported
    # on SIGTERM, unwind normally so the work directory is removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.exit(main())
