"""How fast the machine runs right now, from a fixed calibration loop.

On small shared virtual machines the CPU speed changes in phases of tens of
seconds. On the 2-vCPU machine where this benchmark was defined, a fixed
loop ran about 40 % slower in a slow phase than in a fast one. The steal
time stayed near zero, and process CPU time slowed down just like wall
time. A 30 s run sees one or two phases, so raw medians of ``run_s`` varied
by 29 % (quartile spread) over ten runs. That is more than any bound the
benchmark may use.

The benchmark therefore times this loop next to every measurement and
reports ``measured * REFERENCE_S / loop``. That is the time the measurement
would take at the speed where the loop takes ``REFERENCE_S``: a time in
calibration-loop units, not in wall seconds. It equals the wall time only
while the loop takes ``REFERENCE_S``, and the loop is often slower. The loop
mixes what tubekit's hot paths do: frozen dataclass construction with
validation, attribute access and float arithmetic in Python loops, dict
and list traffic, and small numpy calls. It does not use tubekit, so no
change to tubekit can move it.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass

import numpy as np

# a fixed scale for run_s and setup_s, near the loop's fastest time on the
# machine where the baseline was recorded; in the recorded runs there, wall
# times were 1.1-2 times the scaled ones
REFERENCE_S = 0.009


@dataclass(frozen=True)
class _Box:
    x1: float
    y1: float
    x2: float
    y2: float

    def __post_init__(self) -> None:
        if self.x2 < self.x1 or self.y2 < self.y1:
            raise ValueError("corners out of order")

    @property
    def area(self) -> float:
        return (self.x2 - self.x1) * (self.y2 - self.y1)


def _overlap(a: _Box, b: _Box) -> float:
    ix = max(0.0, min(a.x2, b.x2) - max(a.x1, b.x1))
    iy = max(0.0, min(a.y2, b.y2) - max(a.y1, b.y1))
    inter = ix * iy
    union = a.area + b.area - inter
    return inter / union if union > 0 else 0.0


def _loop() -> float:
    rng = np.random.default_rng(0)
    centers = rng.uniform(0.0, 600.0, size=(150, 2)).tolist()
    sizes = rng.uniform(10.0, 80.0, size=(150, 2)).tolist()
    boxes = [_Box(x - w / 2, y - h / 2, x + w / 2, y + h / 2)
             for (x, y), (w, h) in zip(centers, sizes)]
    total = 0.0
    for a in boxes[:40]:
        for b in boxes:
            total += _overlap(a, b)
    buckets: dict[int, list[int]] = {}
    for i, box in enumerate(boxes):
        buckets.setdefault(int(box.x1) // 50, []).append(i)
    features = rng.normal(size=(64, 6))
    weights = np.zeros((4, 6))
    for _ in range(150):
        residual = np.clip(features @ weights.T - 1.0, -1.0, 1.0)
        weights -= 0.01 * (residual.T @ features)
        total += float(rng.normal())
    return total + len(buckets)


def sample() -> float:
    """Seconds per run of the calibration loop: the median of three runs."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        _loop()
        times.append(time.perf_counter() - start)
    return statistics.median(times)
