"""How steady is this machine? Time a fixed stdlib Fraction loop, repeatedly.

    python3 perfbench/noise.py --seconds 60

Prints the median and quartiles of the single timings, the medians of
one-second windows in order, the spread of the means of longer windows, and
how closely process CPU time follows wall time. Uses only the standard
library and runs on one core.
"""

from __future__ import annotations

import argparse
import statistics
import time
from fractions import Fraction


def work(n):
    acc = Fraction(0)
    for i in range(1, n):
        acc += Fraction(i % 97, (i % 89) + 1)
    return acc


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--seconds", type=float, default=60.0)
    p.add_argument("--size", type=int, default=40000, help="loop length")
    args = p.parse_args()
    samples = []  # (start, wall, cpu)
    t_start = time.perf_counter()
    while time.perf_counter() - t_start < args.seconds:
        t0, c0 = time.perf_counter(), time.process_time()
        work(args.size)
        samples.append((t0 - t_start, time.perf_counter() - t0, time.process_time() - c0))
    wall = [w for _, w, _ in samples]
    med, q1, q3, rel = spread(wall)
    print(f"{len(wall)} timings: median {med * 1e3:.1f} ms, quartiles "
          f"{q1 * 1e3:.1f}-{q3 * 1e3:.1f} ms, min {min(wall) * 1e3:.1f}, "
          f"max {max(wall) * 1e3:.1f}; spread {rel:.1%} of the median")
    cpu_ratio = sum(c for _, _, c in samples) / sum(wall)
    print(f"CPU time / wall time: {cpu_ratio:.3f}")
    for window in (1, 5, 10, 20):
        groups = {}
        for start, w, _ in samples:
            groups.setdefault(int(start // window), []).append(w)
        if window == 1:
            meds = [statistics.median(v) * 1e3 for _, v in sorted(groups.items())]
            print("1 s medians (ms):", " ".join(f"{m:.0f}" for m in meds))
            steps = [abs(b / a - 1) for a, b in zip(wall, wall[1:])]
            print(f"median change between consecutive timings: "
                  f"{statistics.median(steps):.1%}")
            continue
        means = [statistics.fmean(v) for _, v in sorted(groups.items())][:-1]
        if len(means) >= 4:
            med, q1, q3, rel = spread(means)
            print(f"{window:2d} s window means: {len(means)} windows, spread "
                  f"{rel:.1%} of the median, range {min(means) * 1e3:.1f}-"
                  f"{max(means) * 1e3:.1f} ms")


if __name__ == "__main__":
    main()
