#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py --workload serve_open --seeds 1-10

Runs run.py once per seed (one after another), then prints, for each
end-to-end metric, the median and the distance between the first and
third quartile of its values as a share of the median (quartiles as
statistics.quantiles(values, n=4) gives them), next to the metric's
bound. Keeps every result line in --out (JSON lines) when given.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
import spec  # noqa: E402


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / abs(med) if med else float("inf")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    ap.add_argument("--out")
    args = ap.parse_args()

    results = []
    for seed in seeds_of(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds",
             str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, cwd=str(HERE.parent))
        last = proc.stdout.rstrip("\n").split("\n")[-1]
        if proc.returncode != 0 or not last.startswith("{"):
            sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
            print("seed %d: run failed (code %d)" % (seed, proc.returncode))
            return 1
        result = json.loads(last)
        results.append(result)
        print("seed %d: correct=%s attempted=%d failed=%d" % (
            seed, result["correct"], result["attempted"], result["failed"]),
            flush=True)
        if args.out:
            with open(args.out, "a") as f:
                f.write(json.dumps({"workload": args.workload, "seed": seed,
                                    "result": result}) + "\n")

    worst = 0.0
    for name, unit, _, bound in spec.END_TO_END:
        values = [r["metrics"][name]["value"] for r in results]
        med, s = spread(values)
        worst = max(worst, s / bound)
        print("%-22s median %12.6g %-4s spread %6.3f  bound %.3f%s" % (
            name, med, unit, s, bound,
            "" if s < bound / 3 else "  <-- wide"))
    print("widest spread / bound: %.2f" % worst)
    return 0


if __name__ == "__main__":
    sys.exit(main())
