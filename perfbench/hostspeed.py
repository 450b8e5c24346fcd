"""Host-speed calibration of the benchmark's timings.

The benchmark runs on a few cores of a shared host whose speed changes from
minute to minute (other tenants, CPU frequency) by more than the regression
bounds, and such a change slows CPU time as much as wall time. So a run
times a fixed calibration loop between its units and scales each timing by
the reference loop time over the loop time it measured alongside:

    scaled = measured * reference_s / mean(loop samples)

A timing then reads in seconds of the reference host (``host_speed`` in
reference.json). A change of host speed slows the loop and the program
alike and cancels out; a change in the program does not, because the loop
is the benchmark's own code and calls nothing in voxlabel. The loop mixes
the kinds of work the program does: a slab-method ray cast of a 64x48
image against boxes, small matrix products, and voxel keys gathered into a
dict.

The loop runs in a process of its own, started by ``HostSpeed`` and warmed
up before its first sample, so the state the program leaves in the
benchmark's process (its heap, its caches) cannot change the loop's speed.
The benchmark's process waits while a sample runs. Run as a script, this
file is that process: for each line ``n`` on standard input it times ``n``
samples and prints ``wall_s cpu_s`` for each; it ends at end of input.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

import numpy as np

LOOPS_PER_SAMPLE = 8        # about 0.1 s on the reference host
WARM_UP_LOOPS = 16
# one sample per this many seconds of measured work, so about 5% of a run
SAMPLE_EVERY_S = 2.0

# The loop's inputs are fixed, so every sample does the same work.
_RNG = np.random.default_rng(20230221)
_DIRS = _RNG.normal(size=(48, 64, 3))
_MINS = _RNG.uniform(-5.0, 4.0, size=(24, 3))
_MAXS = _MINS + _RNG.uniform(0.2, 1.0, size=(24, 3))
_POINTS = _RNG.uniform(0.0, 4.0, size=(3000, 3))
_FEATS = _RNG.normal(size=(256, 64))
_WEIGHTS = _RNG.normal(size=(16, 64))


def _loop() -> int:
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = 1.0 / _DIRS
        t1 = _MINS[None, None] * inv[:, :, None, :]
        t2 = _MAXS[None, None] * inv[:, :, None, :]
    tnear = np.nanmax(np.minimum(t1, t2), axis=-1)
    tfar = np.nanmin(np.maximum(t1, t2), axis=-1)
    hit = (tfar >= tnear) & (tnear > 0.0)
    best = np.argmin(np.where(hit, tnear, np.inf), axis=-1)
    logits = _FEATS @ _WEIGHTS.T
    grad = (logits - logits.max(axis=1, keepdims=True)).T @ _FEATS
    keys = np.floor(_POINTS / 0.05).astype(np.int64)
    uniq, counts = np.unique(keys, axis=0, return_counts=True)
    voxels: dict = {}
    for key, count in zip(map(tuple, uniq.tolist()), counts.tolist()):
        voxels.setdefault(key, []).extend([count] * count)
    return int(best.sum()) + int(grad.shape[0]) + len(voxels)


def _serve():
    for _ in range(WARM_UP_LOOPS):
        _loop()
    print("ready", flush=True)
    for line in sys.stdin:
        for _ in range(int(line)):
            t, c = time.perf_counter(), time.process_time()
            for _ in range(LOOPS_PER_SAMPLE):
                _loop()
            print(time.perf_counter() - t, time.process_time() - c)
        sys.stdout.flush()


class HostSpeed:
    """A calibration process, the samples it returned and the scales they give.

    Use as a context manager: leaving it ends the process and waits for it.
    """

    def __init__(self, reference: dict):
        self.reference = reference     # {"wall_s": ..., "cpu_s": ...} per sample
        self.wall: list[float] = []
        self.cpu: list[float] = []
        self._proc = subprocess.Popen([sys.executable, __file__], text=True,
                                      stdin=subprocess.PIPE,
                                      stdout=subprocess.PIPE)
        if self._proc.stdout.readline().strip() != "ready":
            self.close()
            raise RuntimeError("calibration process did not start")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def close(self):
        self._proc.stdin.close()
        self._proc.wait()
        self._proc.stdout.close()

    def sample(self, after_s: float = 0.0):
        """Sample once per SAMPLE_EVERY_S of the `after_s` seconds of work
        just measured, and at least once."""
        n = max(1, round(after_s / SAMPLE_EVERY_S))
        self._proc.stdin.write(f"{n}\n")
        self._proc.stdin.flush()
        for _ in range(n):
            wall, cpu = map(float, self._proc.stdout.readline().split())
            self.wall.append(wall)
            self.cpu.append(cpu)

    def wall_scale(self, first: int = 0) -> float:
        """reference / mean wall time of the samples from index `first` on."""
        return self.reference["wall_s"] / statistics.fmean(self.wall[first:])

    def cpu_scale(self, first: int = 0) -> float:
        return self.reference["cpu_s"] / statistics.fmean(self.cpu[first:])


if __name__ == "__main__":
    _serve()
