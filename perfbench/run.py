"""Benchmark of infrasolv: three workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ball --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all
    python3 perfbench/run.py --workload forms --repeat 10 --save a.json
    python3 perfbench/run.py --compare a.json b.json

One run prints a summary, then as its last line one JSON object with the
keys correct, attempted, failed and metrics: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. Results and traces
are written under perfbench/out/. The package is imported from the
checkout's src/ directory; without it the command exits with code 2.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("ball", "forms", "commands")
DEFAULT_SEED = 1


def _use_checkout_source():
    """Import infrasolv from this checkout's src/ only; False if it is absent."""
    sys.path.insert(0, str(SRC))
    spec = importlib.util.find_spec("infrasolv")
    return spec is not None and spec.origin is not None and \
        Path(spec.origin).resolve().is_relative_to(SRC.resolve())


def _parser():
    p = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=None,
                   help="job time one run measures (default: run_seconds "
                        "of BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--repeat", type=int, default=0, metavar="N",
                   help="run the workload N times, seeds SEED..SEED+N-1, and "
                        "print the median and quartiles of each metric")
    p.add_argument("--save", metavar="FILE", help="with --repeat: write the values")
    p.add_argument("--compare", nargs=2, metavar=("A", "B"),
                   help="compare two files written by --repeat --save")
    p.add_argument("--setup-pass", action="store_true", help=argparse.SUPPRESS)
    return p


def _benchmark_json():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def _run_one(args):
    import measure
    from workloads import WORKLOADS
    wl = WORKLOADS[args.workload](args.seed)
    if args.setup_pass:
        print(*map(repr, measure.timed_setup(wl)))
        return 0
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        tally, metrics, info, trace = measure.run_traced(wl, args.seconds)
        with open(OUT / f"trace-{stem}.json", "w", encoding="utf-8") as fh:
            json.dump(trace, fh)
    else:
        tally, metrics, info = measure.run_untraced(wl, args.seconds)
    result = {"correct": tally.wrong == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    with open(OUT / f"result-{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "info": info, **result}, fh, indent=1)
    print(f"{args.workload} seed {args.seed}: " +
          ", ".join(f"{k} {v:.4g}" if isinstance(v, float) else f"{k} {v}"
                    for k, v in info.items() if not isinstance(v, list)))
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


def _child(workload, seed, seconds, trace):
    """Run one workload in its own process; returns its result object."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600, check=False)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd[1:])} exited {proc.returncode}")
    sys.stdout.write("".join(proc.stdout.splitlines(keepends=True)[:-1]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def _repeat(args, bench):
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    runs = []
    for i in range(args.repeat):
        runs.append(_child(args.workload, args.seed + i, args.seconds, args.trace))
    print(f"\n{args.workload}: {len(runs)} runs, seeds {args.seed}.."
          f"{args.seed + len(runs) - 1}, {args.seconds:g} s each")
    print(f"  {'metric':34s} {'median':>10s} {'q1':>10s} {'q3':>10s} "
          f"{'spread':>7s} {'bound':>6s}")
    table = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = _quartiles(values)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        table[name] = {"values": values, "median": med, "q1": q1, "q3": q3,
                       "spread": spread, "unit": runs[0]["metrics"][name]["unit"]}
        print(f"  {name:34s} {med:10.5g} {q1:10.5g} {q3:10.5g} {spread:7.1%} "
              + (f"{bound:6.2f}" if bound is not None else ""))
    summary = {"workload": args.workload, "seeds": [args.seed + i for i in range(len(runs))],
               "seconds": args.seconds, "trace": args.trace,
               "attempted": [r["attempted"] for r in runs],
               "failed": [r["failed"] for r in runs],
               "correct": all(r["correct"] for r in runs), "metrics": table}
    print(f"  attempted {sum(summary['attempted'])}, failed {sum(summary['failed'])}, "
          f"correct {summary['correct']}")
    if args.save:
        with open(args.save, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1)
    print(json.dumps({k: summary[k] for k in ("workload", "correct")} |
                     {"median": {n: t["median"] for n, t in table.items()}}))
    return 0 if summary["correct"] else 1


def _compare(paths, bench):
    """Median of B against median of A, for each metric, against its bound."""
    a, b = (json.load(open(p, encoding="utf-8")) for p in paths)
    spec = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    share = [sum(s["failed"]) / sum(s["attempted"]) for s in (a, b)]
    print(f"{a['workload']}: failed share {share[0]:.6g} vs {share[1]:.6g}")
    ok = share[0] == share[1]
    for name, ta in a["metrics"].items():
        tb = b["metrics"][name]
        m = spec.get(name, {})
        worse = tb["median"] / ta["median"] - 1.0 if ta["median"] else 0.0
        if m.get("better") == "higher":
            worse = -worse
        bound = m.get("bound")
        verdict = "" if bound is None else ("ok" if worse <= bound else "WORSE")
        ok = ok and verdict != "WORSE"
        print(f"  {name:34s} {ta['median']:10.5g} -> {tb['median']:10.5g} "
              f"worse by {worse:+7.1%} bound {bound} {verdict}")
    return 0 if ok else 1


def main(argv=None):
    args = _parser().parse_args(argv)
    if not _use_checkout_source():
        print(f"error: no infrasolv package under {SRC}", file=sys.stderr)
        return 2
    bench = _benchmark_json()
    if args.seconds is None:
        args.seconds = float(bench["run_seconds"])
    if args.compare:
        return _compare(args.compare, bench)
    if args.workload is None:
        print("error: --workload is required", file=sys.stderr)
        return 2
    if args.repeat:
        if args.workload == "all":
            print("error: --repeat takes one workload", file=sys.stderr)
            return 2
        return _repeat(args, bench)
    if args.workload == "all":
        results = {w: _child(w, args.seed, args.seconds, args.trace)
                   for w in WORKLOAD_NAMES}
        print(json.dumps(results))
        return 0 if all(r["correct"] and not r["failed"] for r in results.values()) else 1
    return _run_one(args)


if __name__ == "__main__":
    sys.exit(main())
