#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs the command in BENCHMARK.json once per seed on one workload and
prints, per end-to-end metric, the median and the interquartile range as
a share of the median (statistics.quantiles(values, n=4)), against a
third of the metric's declared bound.

    python3 perfbench/spread.py --workload faults_128 --seeds 1 2 3 4 5

Run it from the repository root. Pass --trace to check traced runs
(every per-layer metric present) instead; spreads are then not judged.

--save FILE writes the medians; --against FILE compares this set's
medians with a saved set and flags every metric that got worse by more
than its bound (the check that two sets of the same code agree).
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(cmd, workload, seed, seconds, trace):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    out = subprocess.run(args, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        sys.exit(f"seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        problems = [l for l in lines if l.startswith("CHECK FAILED")]
        sys.exit(f"seed {seed}: incorrect run\n" + "\n".join(problems))
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--save", help="write the medians to this JSON file")
    ap.add_argument("--against", help="compare medians with a saved set")
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    metrics = bench["per_layer" if args.trace else "end_to_end"]
    values = {m["name"]: [] for m in metrics}
    for seed in args.seeds:
        res = run_once(bench["command"], args.workload, seed,
                       bench["run_seconds"], args.trace)
        missing = set(values) - set(res["metrics"])
        if missing:
            sys.exit(f"seed {seed}: metrics missing: {sorted(missing)}")
        for name in values:
            values[name].append(res["metrics"][name]["value"])
        shown = " ".join(f"{n}={res['metrics'][n]['value']:.6g}" for n in values)
        print(f"seed {seed}: attempted {res['attempted']} failed {res['failed']} {shown}",
              flush=True)
    worst = 0.0
    medians = {}
    for m in metrics:
        v = values[m["name"]]
        med = statistics.median(v)
        medians[m["name"]] = med
        q1, _, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        if "bound" in m:
            limit = m["bound"] / 3
            flag = "" if spread < limit else "  <-- over a third of the bound"
            worst = max(worst, spread / limit)
            print(f"{m['name']:>36}  median {med:<14.6g} spread {spread:7.4f}  (bound/3 {limit:.4f}){flag}")
        else:
            print(f"{m['name']:>36}  median {med:<14.6g} spread {spread:7.4f}")
    if not args.trace:
        print(f"worst spread / (bound/3): {worst:.3f}")
    if args.save:
        with open(args.save, "w") as f:
            json.dump({"workload": args.workload, "seeds": args.seeds,
                       "medians": medians}, f, indent=1)
    if args.against:
        with open(args.against) as f:
            before = json.load(f)["medians"]
        for m in metrics:
            name = m["name"]
            if name not in before or "bound" not in m or not before[name]:
                continue
            change = medians[name] / before[name] - 1
            worse = change if m["better"] == "lower" else -change
            flag = "  <-- worse by more than the bound" if worse > m["bound"] else ""
            print(f"{name:>36}  median {before[name]:.6g} -> {medians[name]:.6g} "
                  f"({change:+.2%}, bound {m['bound']:.0%}){flag}")


if __name__ == "__main__":
    main()
