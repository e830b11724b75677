#!/usr/bin/env python3
"""Regenerate ``reference.json``: the expected output fingerprints.

Run from the repository root, on a commit whose outputs are known to be
right::

    python3 bench/make_reference.py            # full size, seeds 0..63; tiny, seed 0

Each entry holds the tube count, mAP per delta and a sha256 of the canonical
output for one (size, workload, seed). The benchmark fails every iteration
whose fingerprint differs, so only regenerate when the expected output is
meant to change.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

from run import BLAS_ENV, BENCH_DIR, OUT_DIR, SRC

os.environ.update(BLAS_ENV)  # before numpy is imported, as in the benchmark
sys.path.insert(0, str(SRC))

import workloads  # noqa: E402

SEEDS = {"full": range(64), "tiny": range(1)}


def main() -> int:
    table: dict = {}
    OUT_DIR.mkdir(exist_ok=True)
    for size, seeds in SEEDS.items():
        for name, workload in workloads.WORKLOADS.items():
            for seed in seeds:
                with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
                    inputs = workload.setup(seed, size, Path(tmp))
                    output = workload.run(inputs)
                    fp = workload.fingerprint(inputs, output)
                    errors = workload.check(inputs, output, fp)
                if errors:
                    print(f"{size} {name} seed {seed}: {errors}", file=sys.stderr)
                    return 1
                table.setdefault(size, {}).setdefault(name, {})[str(seed)] = fp
                print(size, name, seed, fp["map"].get("0.2"), fp["map"].get("0.5"), flush=True)
    (BENCH_DIR / "reference.json").write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
