"""Repeat one workload and print the run-to-run spread of each metric.

    python3 perfbench/spread.py --workload kron_table --runs 10 --seconds 35

Runs `run.py` once per seed (first-seed, first-seed + 1, ...), each in its
own process, one after another.  references.json covers seeds 0-20.  For every metric it prints the median, the
quartiles and the spread: the distance between the first and third quartile
as a share of the median.  A metric's regression bound must exceed its
spread.  The summary is also written to perfbench/_out/spread-<workload>.json.
"""

import argparse
import json
import os
import subprocess
import sys

import stats
from run import OUTDIR, ROOT

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args(argv)
    runs = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        proc = subprocess.run(
            [sys.executable, RUN, "--workload", args.workload, "--seed",
             str(seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace)], cwd=ROOT, capture_output=True, text=True,
            timeout=600)
        if proc.returncode != 0:
            print(proc.stdout, proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, **result})
        print(f"seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']} " +
              " ".join(f"{k}={v['value']:.5g}"
                       for k, v in result["metrics"].items()), flush=True)
    summary = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, mid, q3 = stats.quartiles(values)
        summary[name] = {"median": stats.median(values), "q1": q1, "q3": q3,
                         "spread": stats.spread(values), "values": values}
        print(f"{name:36s} median {summary[name]['median']:.6g}  "
              f"q1 {q1:.6g}  q3 {q3:.6g}  spread {summary[name]['spread']:.4f}")
    os.makedirs(OUTDIR, exist_ok=True)
    path = os.path.join(OUTDIR, f"spread-{args.workload}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seconds": args.seconds,
                   "runs": runs, "summary": summary}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
