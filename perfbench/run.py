"""quiver_dt benchmark: one workload, one run.

    python3 perfbench/run.py --workload kron_table --seed 1 --seconds 35 --trace 0

Run from the root of a checkout.  Each pass is a fresh Python process
(`worker.py`) that sets up, runs the workload's fixed job list back to back
on one thread as one closed-loop client, and checks every output.  A run
makes a fixed number of passes, which --seconds sets (about --seconds long
on the baseline machine; see workloads.pass_count).  Human-readable lines come first; the
last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`.

Every end-to-end time is reported at the reference speed: the measured
seconds times REFERENCE_PROBE_S over the time of a fixed pure-Python probe
loop run in the same process right before and after (see
workloads.probe).  The host's speed drifts by more than half within a
minute, and this keeps that drift out of the comparison between commits;
the probe shares no code with the program.  The raw medians are printed too.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates traced and
untraced passes and reports the per-layer metrics: self time per layer from
spans around the public calls of each job, call counts from wrappers patched
in for the traced passes only, and the tracing overhead.  The spans are
written to perfbench/_out/.
"""

import argparse
import json
import os
import subprocess
import sys
from time import perf_counter

import stats
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKDIR = os.path.join(HERE, "_work")
OUTDIR = os.path.join(HERE, "_out")
# A run must end well within three minutes, whatever --seconds says.
HARD_LIMIT_S = 170.0
# Median probe time on the machine the baseline was measured on
# (baseline.json); times are scaled to a host that runs the probe this fast.
REFERENCE_PROBE_S = 0.016

# Per-layer metrics: times are self times summed over one pass, counts are
# per pass; both are medians over the traced passes.
LAYER_TIMES = {
    "invariants.semistable_s": "invariants.semistable",
    "invariants.sd_semistable_s": "invariants.sd_semistable",
    "torus.star_log_s": "torus.star_log",
    "torus.sd_sqrt_s": "torus.sd_sqrt",
    "invariants.table_s": "invariants.table",
    "cli.serialize_s": "cli.serialize",
    "wallcross.transform_s": "wallcross.transform",
    "wallcross.direct_s": "wallcross.direct",
    "oracle.calibrate_s": "oracle.calibrate",
    "oracle.verify_s": "oracle.verify",
    "invariants.scalar_s": "invariants.scalar",
    "motives.stack_s": "motives.stack",
}
LAYER_COUNTS = {
    "ratfunc.add.calls": "count",
    "ratfunc.mul.calls": "count",
    "cli.output_bytes": "bytes",
    "wallcross.coeff_U.calls": "count",
    "wallcross.coeff_Usd.calls": "count",
    "quiver.slope_value.calls": "count",
    "quiver.commutation_exponent.calls": "count",
    "quiver.sd_twist_exponent.calls": "count",
    "invariants.engine_requests": "count",
    "motives.stack_class.calls": "count",
}


def run_worker(workload: str, seed: int, pass_index: int, traced: bool,
               timeout: float) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
           "--pass-index", str(pass_index), "--trace", "1" if traced else "0",
           "--workdir", WORKDIR]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"pass process exited with {proc.returncode}:\n"
                           f"{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_passes(workload: str, seed: int, seconds: float, trace: bool):
    """The run's fixed number of passes (workloads.pass_count), one after
    another.  With tracing, traced and untraced passes alternate, a traced
    one first, each pair on the same inputs, in as many pairs as half the
    untraced passes."""
    count = workloads.pass_count(workload, seconds)
    if trace:
        plan = [(index, traced) for index in range((count + 1) // 2)
                for traced in (True, False)]
    else:
        plan = [(index, False) for index in range(count)]
    passes = []
    start = perf_counter()
    for index, traced in plan:
        left = HARD_LIMIT_S - (perf_counter() - start)
        passes.append(run_worker(workload, seed, index, traced,
                                 max(left, 1.0)))
    return passes


def scaled(seconds: float, probe_s: float) -> float:
    """Seconds at the reference speed."""
    return seconds * REFERENCE_PROBE_S / probe_s


def summary(passes, scale: bool) -> dict:
    """Medians over passes and jobs, scaled to the reference speed or raw."""
    walls, jobs = [], []
    for p in passes:
        times = [scaled(j["seconds"], j["probe_s"]) if scale else j["seconds"]
                 for j in p["jobs"]]
        walls.append(sum(times))
        jobs.extend(times)
    setups = [scaled(p["setup_s"], p["setup_probe_s"]) if scale
              else p["setup_s"] for p in passes]
    tail = stats.tail(jobs)
    return {"wall_s": stats.median(walls), "job_s.p50": stats.median(jobs),
            "job_s.tail": tail["value"], "setup_s": stats.median(setups),
            "tail": tail}


def end_to_end(plain) -> dict:
    """name: (value, unit, note); times at the reference speed."""
    values, raw = summary(plain, True), summary(plain, False)
    tail = values["tail"]
    notes = {
        "wall_s": f"median over {len(plain)} passes of the job list",
        "job_s.p50": f"median of {tail['n']} jobs",
        "job_s.tail": (f"p{tail['percentile']:.1f} of {tail['n']} jobs, "
                       f"{tail['beyond']} jobs beyond it"),
        "setup_s": f"median of {len(plain)} pass processes",
    }
    out = {name: (values[name], "s", f"{note}; raw {raw[name]:.6g} s")
           for name, note in notes.items()}
    out["peak_rss_mb"] = (stats.median([p["peak_rss_mb"] for p in plain]),
                          "MB", f"median of {len(plain)} pass processes")
    return out


def layer_seconds(p: dict, span: str) -> float:
    """Self time of one layer over a traced pass, at the reference speed."""
    return sum(scaled(layers.get(span, 0.0), job["probe_s"])
               for layers, job in zip(p["self_s_jobs"], p["jobs"]))


def per_layer(traced, plain) -> dict:
    out = {}
    for name, span in LAYER_TIMES.items():
        out[name] = (stats.median([layer_seconds(p, span) for p in traced]),
                     "s", "self time per pass at the reference speed")
    for name, unit in LAYER_COUNTS.items():
        out[name] = (stats.median([p["counts"].get(name, 0) for p in traced]),
                     unit, "per pass")
    calls = sum(p["counts"].get("wallcross.coeff_U.calls", 0) for p in traced)
    nonzero = sum(p["counts"].get("wallcross.coeff_U.nonzero", 0)
                  for p in traced)
    out["wallcross.coeff_U.useful"] = (nonzero / calls if calls else 0.0,
                                       "ratio",
                                       f"{nonzero} nonzero of {calls} calls")
    traced_wall = summary(traced, True)["wall_s"]
    plain_wall = summary(plain, True)["wall_s"]
    out["trace.overhead"] = (traced_wall / plain_wall, "ratio",
                             f"traced wall_s {traced_wall:.4f} s / "
                             f"untraced {plain_wall:.4f} s")
    return out


def write_trace(workload: str, seed: int, traced) -> str:
    os.makedirs(OUTDIR, exist_ok=True)
    path = os.path.join(OUTDIR, f"trace-{workload}-seed{seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump([{"pass": i, "spans": p["spans"]}
                   for i, p in enumerate(traced)], fh)
    return path


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="quiver_dt benchmark run")
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not workloads.program_present(ROOT):
        print(f"error: no quiver_dt sources under {ROOT}/src", file=sys.stderr)
        return 2
    try:
        passes = run_passes(args.workload, args.seed, args.seconds,
                            bool(args.trace))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    jobs = [j for p in passes for j in p["jobs"]]
    failed = [j for j in jobs if j["error"]]
    for j in failed[:20]:
        print(f"FAILED {j['name']}: {j['error']}")
    print(f"workload {args.workload}  seed {args.seed}  "
          f"passes {len(plain)} untraced, {len(traced)} traced")
    rate = len(failed) / len(jobs)
    print(f"  error_rate = {rate} ({len(failed)} failed of {len(jobs)} attempted)")
    metrics = per_layer(traced, plain) if traced else end_to_end(plain)
    for name, (value, unit, note) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}  ({note})")
    if traced:
        phase = sum(p["phase_s"] for p in traced)
        span = sum(p["job_span_s"] for p in traced)
        path = write_trace(args.workload, args.seed, traced)
        print(f"  phases cover {phase / span:.4f} of traced job time; "
              f"spans in {os.path.relpath(path, ROOT)}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(jobs),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
