"""One pass of a workload in a fresh process.

Sets up (imports the program, generates the seeded inputs and writes them),
runs the workload's job list once, checks every output and prints one JSON
line with the timings.  `run.py` starts one of these per pass.

    python3 perfbench/worker.py --workload kron_table --seed 1 --pass-index 0 \\
        --trace 0 --workdir perfbench/_work
"""

import argparse
import json
import os
import sys
import tempfile
from time import perf_counter

import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCES = os.path.join(HERE, "references.json")
FIXTURES = os.path.join(ROOT, "src", "quiver_dt", "fixtures")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pass-index", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args(argv)
    with open(REFERENCES, encoding="utf-8") as fh:
        references = json.load(fh)
    os.makedirs(args.workdir, exist_ok=True)

    with tempfile.TemporaryDirectory(dir=args.workdir) as tmp:
        before = workloads.probe()
        t0 = perf_counter()
        prog = workloads.load_program(ROOT)
        specs = workloads.make_jobs(args.workload, args.seed, FIXTURES,
                                    args.pass_index)
        paths = workloads.write_inputs(specs, tmp)
        setup_s = perf_counter() - t0
        setup_probe_s = (before + workloads.probe()) / 2
        tr = workloads.NO_TRACE
        if args.trace:
            tr = tracing.Tracer()
            workloads.install_counters(prog, tr)
        out = workloads.run_pass(prog, specs, paths, tmp, references, tr)
    out["setup_s"] = setup_s
    out["setup_probe_s"] = setup_probe_s
    out["traced"] = bool(args.trace)
    if args.trace:
        spans = tr.spans
        jobs = [s for s in spans if s["name"] == "job"]
        phases = [s for s in spans if s["parent"] is not None
                  and spans[s["parent"]]["name"] == "job"]
        # Self time per layer, per job, so that run.py can scale each job's
        # share by the probe time measured around that job.
        per_job = [dict() for _ in specs]
        for s, t in zip(spans, tracing.span_self_times(spans)):
            layers = per_job[s["job"]]
            layers[s["name"]] = layers.get(s["name"], 0.0) + t
        out["self_s_jobs"] = per_job
        out["job_span_s"] = sum(s["end"] - s["start"] for s in jobs)
        out["phase_s"] = sum(s["end"] - s["start"] for s in phases)
        out["spans"] = spans
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
