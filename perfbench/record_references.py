"""Record the output digests the benchmark compares against.

    python3 perfbench/record_references.py

Runs every Kronecker job the workloads can generate (all fixtures, slope
scales and directions) and the suite_session job list of every pass of a
workloads.RUN_SECONDS run for the seeds in SUITE_SEEDS through the untraced path,
checks them, and writes perfbench/references.json: input digest -> output
sha256.  Record only on a
commit whose outputs are known good; the committed file was recorded on the
commit that introduced the benchmark.
"""

import json
import os
import sys
import tempfile

import workloads
from worker import FIXTURES, REFERENCES, ROOT

# Seed 0 and the seeds of two ten-run sets of spread.py (--first-seed 1
# and 11), at the run length in BENCHMARK.json.
SUITE_SEEDS = range(21)
SUITE_PASSES = workloads.pass_count("suite_session", workloads.RUN_SECONDS)


def all_specs():
    for name in workloads.KRON_FIXTURES:
        data = workloads.fixture(FIXTURES, name)
        for k in workloads.KRON_SCALES:
            yield workloads.dt_spec(name, data, k)
            for sign in (1, -1):
                yield workloads.wallcross_spec(name, data, k, sign)
    for seed in SUITE_SEEDS:
        for index in range(SUITE_PASSES):
            yield from workloads.make_jobs("suite_session", seed, FIXTURES,
                                           index)


def main() -> int:
    prog = workloads.load_program(ROOT)
    refs = {}
    workdir = os.path.join(os.path.dirname(REFERENCES), "_work")
    os.makedirs(workdir, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=workdir) as tmp:
        for spec in all_specs():
            prog.invariants.clear_cache()
            path, = workloads.write_inputs([spec], tmp)
            out = os.path.join(tmp, "out.json")
            result = workloads.run_job(prog, spec, path, out)
            problem, digest = workloads.check_output(prog, spec, result, out)
            if problem:
                print(f"error: {spec['name']}: {problem}", file=sys.stderr)
                return 1
            refs[workloads.reference_key(spec)] = digest
    with open(REFERENCES, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(refs)} references in {REFERENCES}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
