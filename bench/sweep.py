#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/sweep.py --workloads bound build small --seeds 1-10 --seconds 30

Runs bench/run.py once per (seed, workload), interleaving the workloads and
rotating their order from seed to seed so that slow drift of the machine
spreads over all of them.  For every metric it prints the median, the
quartiles and the quartile distance as a share of the median, next to the
metric's bound from BENCHMARK.json (flagged when the share exceeds a third
of the bound), and the same for the unscaled times.  Every run must report
`correct`.  Raw results go to .bench_out/sweep-trace<t>.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(spec):
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bounds = {m["name"]: m.get("bound") for m in json.load(fh)["end_to_end"]}
    results = {w: [] for w in args.workloads}
    ok = True
    for k, seed in enumerate(seed_list(args.seeds)):
        shift = k % len(args.workloads)
        for w in args.workloads[shift:] + args.workloads[:shift]:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                print("%s seed %d: exit %d\n%s" % (w, seed, proc.returncode,
                                                   proc.stderr[-2000:]))
                ok = False
                continue
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            res["seed"] = seed
            with open(os.path.join(ROOT, ".bench_out", "%s-seed%d-trace%d" % (
                    w, seed, args.trace), "result.json")) as fh:
                res["unscaled"] = json.load(fh)["unscaled"]
            results[w].append(res)
            ok = ok and res["correct"]
            print("%-9s seed %-3d correct=%s %s" % (
                w, seed, res["correct"], " ".join(
                    "%s=%.4g" % (m, v["value"]) for m, v in res["metrics"].items()
                    if args.trace == 0)), flush=True)

    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    with open(os.path.join(ROOT, ".bench_out", "sweep-trace%d.json" % args.trace),
              "w") as fh:
        json.dump(results, fh, indent=1)
    for w, runs in results.items():
        if not runs:
            continue
        print("\n%s (%d runs)" % (w, len(runs)))
        names = list(runs[0]["metrics"]) + ["unscaled." + k for k in runs[0]["unscaled"]]
        for name in names:
            if name.startswith("unscaled."):
                vals = [r["unscaled"][name[9:]] for r in runs]
            else:
                vals = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(vals)
            if len(vals) >= 2:
                q1, _, q3 = statistics.quantiles(vals, n=4)
            else:
                q1 = q3 = vals[0]
            share = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and share > bound / 3:
                flag = "  > bound/3"
            print("  %-32s median %-12.6g q1 %-12.6g q3 %-12.6g spread %6.1f%%%s%s" % (
                name, med, q1, q3, 100 * share,
                "" if bound is None else "  bound %.0f%%" % (100 * bound), flag))
    print("\nall correct" if ok else "\nSOME RUNS FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
