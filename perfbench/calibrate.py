"""Calibration kernel: a fixed piece of work timed next to each command.

The host this benchmark was built on is shared, and its speed drifts by
tens of percent over minutes. The benchmark times this kernel right before
and right after each command process and scales the command's times by
REFERENCE_S over the kernel's time, which cancels most of that drift.

The kernel runs in a helper process of its own, so that it adds nothing to
the peak RSS of a command process:

    python3 calibrate.py    # one line in: time the kernel, one line out
"""

from __future__ import annotations

import sys
import time

# Seconds the kernel takes on the reference machine (a 2-vCPU Xeon VM).
REFERENCE_S = 0.03


def kernel_fn():
    """A Python loop over tiny numpy products, as in flaglab's Jacobi
    sweeps, plus a sort-based np.unique, as in its box counting. It shares
    no code with flaglab, so no change to flaglab changes its time."""
    import numpy as np

    a = np.arange(4, dtype=complex)
    m = np.ones((4, 4), dtype=complex)
    cells = (np.arange(5000)[:, None] * np.array([7919, 104729, 1299709, 15485863])) % 1000

    def kernel():
        s = 0.0
        for i in range(4000):
            s += abs(np.vdot(a, m @ a)) + i * 0.5
        for _ in range(4):
            s += len(np.unique(cells, axis=0))
        return s

    return kernel


def measure(kernel, rounds: int = 5) -> float:
    """Median seconds of the kernel over a few rounds."""
    times = []
    for _ in range(rounds):
        t = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t)
    return sorted(times)[rounds // 2]


def main() -> int:
    kernel = kernel_fn()
    kernel()  # warm-up: first-call page faults are not machine speed
    for _ in sys.stdin:
        print(repr(measure(kernel)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
