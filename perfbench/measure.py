"""One run of one workload: timed rounds, set-up passes, or a traced round.

A run is made of whole rounds of the workload's fixed job list: at least
``MIN_ROUNDS`` of them, and more until the jobs have taken the requested
number of seconds. Rates and medians are taken over those whole rounds,
so no run ends in the middle of the list. Set-up passes run in fresh
processes, spread over the run; ``setup_s`` is their mean.

Times are reported in calibrated seconds. The speed of a shared machine
drifts by tens of percent over seconds and minutes, so two runs minutes
apart differ by more than any useful bound. A fixed reference loop of
stdlib Fraction arithmetic, the kind of work infrasolv does, therefore runs
between every two jobs, and each job's wall time is scaled by
``REF_NOMINAL_S`` over the mean of the reference timings just before and
just after it. A calibrated second is a wall second of a machine on which
the reference loop takes ``REF_NOMINAL_S``. The raw wall times are kept in
the result file.
"""

from __future__ import annotations

import math
import resource
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from layers import Tracer

RUN_PY = Path(__file__).resolve().parent / "run.py"
MIN_ROUNDS = {"ball": 1, "forms": 1, "commands": 2}
SETUP_SPAN_S = 1.0
MIN_SETUP_PASSES = 3
REF_LOOP = 3000
REF_NOMINAL_S = 0.010


def reference():
    """Wall time of the fixed reference loop."""
    t0 = perf_counter()
    acc = Fraction(0)
    for i in range(1, REF_LOOP):
        acc += Fraction(i % 97, (i % 89) + 1)
    return perf_counter() - t0


class Clock:
    """Wall time of each job, and the same time calibrated by the reference loop."""

    def __init__(self):
        reference()  # warm-up
        self.ref = reference()

    def refresh(self):
        self.ref = reference()

    def time(self, run):
        """(result, wall s, calibrated s) of ``run()``, which returns (wall s, result)."""
        wall, result = run()
        after = reference()
        calibrated = wall * REF_NOMINAL_S * 2 / (self.ref + after)
        self.ref = after
        return result, wall, calibrated


def setup_pass(workload, seed):
    """One fresh set-up pass in a new process; returns (wall s, calibrated s)."""
    proc = subprocess.run(
        [sys.executable, "-S", str(RUN_PY), "--setup-pass", "--workload", workload,
         "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up pass failed: {proc.stderr.strip()}")
    wall, calibrated = proc.stdout.strip().splitlines()[-1].split()
    return float(wall), float(calibrated)


def timed_setup(wl):
    """Body of a set-up pass: import infrasolv, then load every input.

    Returns the wall time and the calibrated time, from reference timings
    taken in this process just before and just after.
    """
    clock = Clock()

    def body():
        t0 = perf_counter()
        import infrasolv  # noqa: F401
        wl.load()
        return perf_counter() - t0, None

    _, wall, calibrated = clock.time(body)
    return wall, calibrated


class Tally:
    """Attempted and failed jobs, and the first output of every job."""

    def __init__(self, wl, inputs):
        self.wl = wl
        self.inputs = inputs
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.first = {}

    def run(self, name, fn):
        """Run one job; returns (seconds, result or None)."""
        self.attempted += 1
        t0 = perf_counter()
        try:
            result = fn()
        except Exception as exc:  # a job that raises is a failed job; keep going
            dt = perf_counter() - t0
            self.failed += 1
            print(f"FAILED {name}: {type(exc).__name__}: {exc}", file=sys.stderr)
            return dt, None
        return perf_counter() - t0, result

    def check(self, name, result):
        problems = self.wl.check(name, result, self.inputs)
        fp = self.wl.fingerprint(result)
        if self.first.setdefault(name, fp) != fp:
            problems.append("output differs from an earlier run of the same job")
        if problems:
            self.failed += 1
            self.wrong += 1
            print(f"WRONG {name}: {'; '.join(problems)}", file=sys.stderr)


def run_untraced(wl, seconds):
    """End-to-end metrics of one run, in calibrated seconds."""
    import infrasolv.cli  # noqa: F401  (every module, as a user's run has them)
    inputs = wl.load()
    jobs = wl.jobs(inputs)
    tally = Tally(wl, inputs)
    setups = [setup_pass(wl.name, wl.seed)]
    passes = max(MIN_SETUP_PASSES, math.ceil(SETUP_SPAN_S / setups[0][0]))
    clock = Clock()
    t_start = perf_counter()
    walls, durations, names = [], [], []
    wall_s = 0.0
    rounds = 0
    while True:
        for name, fn in jobs:
            # pass k of n runs once the jobs have taken k/n of the run
            if len(setups) < passes and wall_s * passes >= seconds * len(setups):
                setups.append(setup_pass(wl.name, wl.seed))
                clock.refresh()
            result, wall, calibrated = clock.time(lambda: tally.run(name, fn))
            walls.append(wall)
            durations.append(calibrated)
            names.append(name)
            wall_s += wall
            if result is not None:
                tally.check(name, result)
        rounds += 1
        if rounds >= MIN_ROUNDS[wl.name] and wall_s >= seconds:
            break
    while len(setups) < passes:
        setups.append(setup_pass(wl.name, wl.seed))
    metrics = {
        "setup_s": {"value": statistics.fmean(c for _, c in setups), "unit": "s"},
        "jobs_per_s": {"value": (tally.attempted - tally.failed) / sum(durations),
                       "unit": "1/s"},
        "job_s_p50": {"value": statistics.median(durations), "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
    }
    info = {"rounds": rounds, "jobs_per_round": len(jobs), "setup_passes": len(setups),
            "wall_setup_s": statistics.fmean(w for w, _ in setups),
            "wall_jobs_per_s": (tally.attempted - tally.failed) / wall_s,
            "wall_job_s_p50": statistics.median(walls), "wall_job_s": wall_s,
            "wall_run_s": perf_counter() - t_start,
            "setups": setups, "jobs": list(zip(names, walls, durations))}
    return tally, metrics, info


def run_traced(wl, seconds):
    """Per-layer metrics of one traced round, and the tracing overhead.

    One in-process set-up pass and the first traced round give every count
    and time. Each job runs untraced and then traced, back to back, so both
    runs of a job see the same speed phase of the machine; rounds go on
    until the jobs have taken ``seconds``. The overhead is the traced runs'
    time over the untraced runs' time. Both runs of a job must give the
    same output.
    """
    import infrasolv.cli  # noqa: F401  (wrap every binding, the CLI's too)
    inputs = wl.load()
    jobs = wl.jobs(inputs)
    tally = Tally(wl, inputs)
    first = tracer = Tracer()
    tracer.install()
    try:
        tracer.job = "setup"
        tracer.recording = True
        wl.load()
    finally:
        tracer.recording = False
        tracer.uninstall()
    plain_s = traced_s = 0.0
    rounds = 0
    while rounds < 1 or plain_s + traced_s < seconds:
        for name, fn in jobs:
            dt, result = tally.run(name, fn)
            plain_s += dt
            if result is not None:
                tally.check(name, result)
            tracer.install()
            try:
                tracer.job = name
                tracer.recording = True
                t0 = perf_counter()
                dt, result = tally.run(name, fn)
            finally:
                tracer.recording = False
                tracer.uninstall()
            tracer.spans.append((name, "job", 0, t0, dt))
            traced_s += dt
            if result is not None:
                tally.check(name, result)
        rounds += 1
        tracer = Tracer()  # later rounds only add to the overhead figures
    metrics = first.metrics()
    metrics["trace.overhead_pct"] = {"value": 100.0 * (traced_s / plain_s - 1.0),
                                     "unit": "%"}
    info = {"rounds": rounds, "untraced_s": plain_s, "traced_s": traced_s}
    return tally, metrics, info, first.dump()


def peak_rss_mb():
    """Peak resident size of this process (ru_maxrss is in KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
