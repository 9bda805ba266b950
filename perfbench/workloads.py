"""Workload inputs, jobs and output checks.

A job is one `quiver-dt` call made in-process through `cli.main` with
`--output`, or one group of public library calls on one generated quiver.
Untraced jobs make exactly the calls a user makes.  A traced CLI job first
calls the layers below the command in dependency order, one span per layer,
so that they fill the engine caches, and then makes the same `cli.main`
call; spans around the names cli looks up time the rest.

Workloads (see BENCHMARK.json for why each was chosen):
  kron_table      `quiver-dt dt` on the six Kronecker fixtures at bound 9
  kron_wallcross  `quiver-dt wallcross` on the Kronecker fixtures at bound 5
  suite_session   library session over ten seeded quivers, suite-shaped
"""

import gc
import hashlib
import importlib
import json
import os
import random
import sys
from fractions import Fraction
from time import perf_counter
from types import SimpleNamespace
from typing import Dict, List, Optional

WORKLOADS = ("kron_table", "kron_wallcross", "suite_session")

KRON_FIXTURES = ("kronecker_mm_minus", "kronecker_mm_plus",
                 "kronecker_pm_minus", "kronecker_pm_plus",
                 "kronecker_pp_minus", "kronecker_pp_plus")
# Slopes i=k,j=-k for k > 0 all give the same stability condition, so every
# k costs the same; k varies the inputs (and the output bytes) with the seed.
KRON_SCALES = (1, 2, 3)
TABLE_BOUND = 9
WALLCROSS_BOUND = 5
# Fixtures crossed in the reverse direction per job list.  Reverse crosses
# are cheaper; an unequal split keeps the job-time median inside one group.
WALLCROSS_REVERSED = 3

# Vertex orbit shapes of the acceptance suite: F a fixed vertex, P a
# swapped pair.  Each session takes every shape the same number of times,
# so sessions from different seeds cost about the same.
SUITE_SHAPES = (("F",), ("F", "F"), ("P",), ("F", "F", "F"), ("P", "F"))
SUITE_PER_SHAPE = 2
SUITE_SLOPES = 3
SUITE_BOUND = 5
SUITE_VERIFY_BOUND = 4
SUITE_WALLCROSS_BOUND = 4

# Passes in a run of RUN_SECONDS: a run takes about that long on the
# machine the baseline was measured on.
RUN_SECONDS = 35
PASSES = {"kron_table": 7, "kron_wallcross": 9, "suite_session": 5}

# The layers the jobs call into or count; motives and torus are reached
# through invariants.
LAYER_MODULES = ("cli", "invariants", "oracle", "quiver", "ratfunc",
                 "wallcross")


def program_present(root: str) -> bool:
    return os.path.isfile(os.path.join(root, "src", "quiver_dt", "__init__.py"))


def load_program(root: str) -> SimpleNamespace:
    """Import the program's layer modules from the checkout's sources."""
    src = os.path.join(root, "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    return SimpleNamespace(**{
        name: importlib.import_module(f"quiver_dt.{name}")
        for name in LAYER_MODULES})


def pass_count(workload: str, seconds: float) -> int:
    """Passes in a run of the given length: fixed by the workload and the
    length, so a faster program runs the same job lists, only sooner, and
    the tail percentile is always taken over the same number of jobs."""
    return max(2, round(PASSES[workload] * seconds / RUN_SECONDS))


# -- inputs -------------------------------------------------------------------

def fixture(fixtures_dir: str, name: str) -> dict:
    with open(os.path.join(fixtures_dir, name + ".json"), encoding="utf-8") as fh:
        return json.load(fh)


def _kron_slope(k: int, sign: int) -> str:
    return f"i={sign * k},j={-sign * k}"


def dt_spec(name: str, quiver: dict, k: int, bound: int = TABLE_BOUND) -> dict:
    return {"kind": "dt", "name": name, "quiver": quiver,
            "slope": _kron_slope(k, 1), "bound": bound}


def wallcross_spec(name: str, quiver: dict, k: int, sign: int,
                   bound: int = WALLCROSS_BOUND) -> dict:
    return {"kind": "wallcross", "name": name, "quiver": quiver,
            "slope": _kron_slope(k, sign), "slope2": _kron_slope(k, -sign),
            "bound": bound}


def _suite_quiver(rng: random.Random, shape) -> dict:
    """One quiver by the acceptance-suite rules: orbits of vertices, then up
    to four edges added as swapped pairs or fixed edges s -> dual(s), with
    signs that satisfy the compatibility constraint by construction."""
    vertices, dual, vsign = [], {}, {}
    for kind in shape:
        if kind == "F":
            x = f"v{len(vertices)}"
            vertices.append(x)
            dual[x] = x
            vsign[x] = rng.choice([1, -1])
        else:
            x, y = f"v{len(vertices)}", f"v{len(vertices) + 1}"
            vertices.extend([x, y])
            dual[x], dual[y] = y, x
            vsign[x] = vsign[y] = rng.choice([1, -1])
    edges, einv, esign = [], {}, {}
    remaining = rng.randint(0, 4)
    while remaining > 0:
        if remaining >= 2 and rng.random() < 0.5:
            s, t = rng.choice(vertices), rng.choice(vertices)
            a, b = f"e{len(edges)}", f"e{len(edges) + 1}"
            edges.append({"name": a, "from": s, "to": t})
            edges.append({"name": b, "from": dual[t], "to": dual[s]})
            einv[a], einv[b] = b, a
            esign[a] = rng.choice([1, -1])
            esign[b] = vsign[s] * vsign[t] * esign[a]
            remaining -= 2
        else:
            s = rng.choice(vertices)
            a = f"e{len(edges)}"
            edges.append({"name": a, "from": s, "to": dual[s]})
            einv[a] = a
            esign[a] = rng.choice([1, -1])
            remaining -= 1
    return {"vertices": vertices, "edges": edges,
            "involution": {"vertices": dual, "edges": einv},
            "signs": {"vertices": vsign, "edges": esign}}


def _suite_slope(rng: random.Random, quiver: dict) -> Dict[str, str]:
    """Self-dual weights: w(dual x) = -w(x), so fixed vertices weigh 0."""
    weights = {x: "0" for x in quiver["vertices"]}
    for x, y in quiver["involution"]["vertices"].items():
        if x < y:
            r = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
            weights[x], weights[y] = str(r), str(-r)
    return weights


def session_spec(name: str, quiver: dict, slopes: List[dict]) -> dict:
    return {"kind": "session", "name": name, "quiver": quiver,
            "slopes": slopes, "bound": SUITE_BOUND,
            "verify_bound": SUITE_VERIFY_BOUND,
            "wallcross_bound": SUITE_WALLCROSS_BOUND}


def make_jobs(workload: str, seed: int, fixtures_dir: str,
              pass_index: int = 0) -> List[dict]:
    """The job list of one pass: a fixed number of jobs of fixed kinds,
    drawn from the seed and the pass index.  Suite quivers differ in cost, so
    each pass of a run draws new ones; a run then averages over the
    sessions of all its passes instead of repeating one."""
    rng = random.Random(f"{workload}:{seed}:{pass_index}")
    if workload == "kron_table":
        jobs = [dt_spec(n, fixture(fixtures_dir, n), rng.choice(KRON_SCALES))
                for n in KRON_FIXTURES]
    elif workload == "kron_wallcross":
        reverse = set(rng.sample(KRON_FIXTURES, WALLCROSS_REVERSED))
        jobs = []
        for n in KRON_FIXTURES:
            data = fixture(fixtures_dir, n)
            jobs.append(wallcross_spec(n, data, rng.choice(KRON_SCALES), 1))
            if n in reverse:
                jobs.append(wallcross_spec(n, data, rng.choice(KRON_SCALES), -1))
    elif workload == "suite_session":
        jobs = []
        for shape in SUITE_SHAPES * SUITE_PER_SHAPE:
            quiver = _suite_quiver(rng, shape)
            slopes = [_suite_slope(rng, quiver) for _ in range(SUITE_SLOPES)]
            jobs.append(session_spec(f"q{len(jobs)}", quiver, slopes))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(jobs)
    return jobs


def reference_key(spec: dict) -> str:
    """Digest of everything that determines a job's output."""
    text = json.dumps(spec, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# -- jobs ----------------------------------------------------------------------

class _NoTrace:
    """Stand-in tracer for the untraced run: nothing is recorded."""

    class _Null:
        def __enter__(self):
            return None

        def __exit__(self, *exc):
            return False

        def add(self, item):
            pass

    _null = _Null()
    requests = _null

    def span(self, name):
        return self._null


NO_TRACE = _NoTrace()


def _is_self_dual(prog, quiver, slope) -> bool:
    try:
        slope.validate_self_dual(quiver)
    except prog.quiver.ValidationError:
        return False
    return True


def _engine_phases(prog, tr, quiver, slope, bound: int) -> None:
    """The engine's layers for one (quiver, slope, bound), in dependency
    order, through the public invariants functions (traced run only)."""
    inv = prog.invariants
    tr.requests.add((id(quiver), slope.weights, bound))
    with tr.span("invariants.semistable"):
        for a in quiver.dim_vectors_up_to(bound):
            inv.semistable_integral(quiver, slope, a, bound=bound)
    sd = _is_self_dual(prog, quiver, slope)
    if sd:
        with tr.span("invariants.sd_semistable"):
            for th in quiver.sd_classes_up_to(bound):
                inv.sd_semistable_integral(quiver, slope, th, bound=bound)
    with tr.span("torus.star_log"):
        for value in inv.slope_values(quiver, slope, bound):
            inv.epsilon_element(quiver, slope, value, bound)
    if sd:
        with tr.span("torus.sd_sqrt"):
            inv.sd_epsilon_element(quiver, slope, bound)


def _cli_phases(prog, spec, path, tr) -> None:
    """The layers below a `quiver-dt dt` or `wallcross` call, run before the
    call itself in a traced job: load (the patched cli.load_quiver keeps the
    quiver, so cli.main gets the same object and the same engine cache),
    calibrate, and the engine phases for each slope."""
    cli = prog.cli
    quiver = cli.load_quiver(path)
    slopes = [cli.parse_slope(quiver, spec[key])
              for key in ("slope", "slope2") if key in spec]
    with tr.span("oracle.calibrate"):
        prog.oracle.calibrate_signs(quiver)
    for slope in slopes:
        _engine_phases(prog, tr, quiver, slope, spec["bound"])


def _session(prog, spec, path, tr) -> dict:
    """README-quickstart style session on one quiver: calibrate and verify,
    scalar invariants of every class with no bound argument, one table per
    slope, and one wall-crossing between the first two slopes."""
    inv, wc = prog.invariants, prog.wallcross
    traced = tr is not NO_TRACE
    bound, wbound = spec["bound"], spec["wallcross_bound"]
    with tr.span("cli.load"):
        with open(path, encoding="utf-8") as fh:
            quiver = prog.quiver.SelfDualQuiver.from_data(json.load(fh))
        slopes = [prog.quiver.Slope.from_dict(quiver, s) for s in spec["slopes"]]
    with tr.span("oracle.calibrate"):
        prog.oracle.calibrate_signs(quiver)
    with tr.span("oracle.verify"):
        verify = prog.oracle.verify_calibration(quiver, bound=spec["verify_bound"])
    scalar = []
    with tr.span("invariants.scalar"):
        for i, slope in enumerate(slopes):
            for a in quiver.dim_vectors_up_to(bound):
                scalar.append((i, "linear", a, inv.dt_num(quiver, slope, a)))
            for th in quiver.sd_classes_up_to(bound):
                scalar.append((i, "self-dual", th,
                               inv.sd_dt_mot(quiver, slope, th)))
    if traced:
        # With no bound argument a class is computed at bound max(1, |class|).
        for i, _, a, _ in scalar:
            tr.requests.add((id(quiver), slopes[i].weights, max(1, sum(a))))
    tables = []
    for slope in slopes:
        if traced:
            _engine_phases(prog, tr, quiver, slope, bound)
        with tr.span("invariants.table"):
            tables.append(inv.build_table(quiver, slope, bound))
    plus, minus = slopes[0], slopes[1]
    if traced:
        _engine_phases(prog, tr, quiver, plus, wbound)
        _engine_phases(prog, tr, quiver, minus, wbound)
    with tr.span("wallcross.direct"):
        source = wc.epsilon_table(quiver, plus, wbound)
        direct = wc.epsilon_table(quiver, minus, wbound)
    with tr.span("wallcross.transform"):
        crossed = wc.wallcross_epsilon(source, wc.SlopePair(quiver, plus, minus))
    with tr.span("wallcross.diff"):
        diff = wc.diff_tables(crossed, direct)
    return {"verify": verify, "scalar": scalar, "tables": tables,
            "crossed": crossed, "diff": diff}


def run_job(prog, spec: dict, path: str, out: str, tr=NO_TRACE):
    """Run one job; return its exit code (CLI jobs) or its results (session).
    A traced CLI job runs its lower layers first, then the same cli.main
    call as an untraced one."""
    kind = spec["kind"]
    if kind == "session":
        return _session(prog, spec, path, tr)
    if tr is not NO_TRACE:
        _cli_phases(prog, spec, path, tr)
    args = [kind, path, "--slope", spec["slope"], "--bound", str(spec["bound"]),
            "--output", out]
    if kind == "wallcross":
        args[4:4] = ["--slope2", spec["slope2"]]
    return prog.cli.main(args)


# -- checks --------------------------------------------------------------------

def _eps_rows(values) -> Optional[list]:
    if values is None:
        return None
    return [[list(a), str(v)] for a, v in sorted(values.items())]


def _session_digest(results: dict) -> str:
    crossed = results["crossed"]
    text = json.dumps({
        "verify": results["verify"],
        "scalar": [[i, side, list(c), str(v)]
                   for i, side, c, v in results["scalar"]],
        "tables": [t.to_data() for t in results["tables"]],
        "crossed": {"eps": _eps_rows(crossed.eps),
                    "sd_eps": _eps_rows(crossed.sd_eps)},
        "all_match": all(d["match"] for d in results["diff"]),
    }, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _check_session(prog, results: dict) -> Optional[str]:
    inv = prog.invariants
    if not all(inv.table_all_regular(t) for t in results["tables"]):
        return "table_all_regular is false"
    if not all(d["match"] for d in results["diff"]):
        return "wall-crossed table differs from the direct table"
    # Values must not depend on the bound they were computed at.
    for i, side, c, v in results["scalar"]:
        table = results["tables"][i]
        rows = table.rows if side == "linear" else table.sd_rows
        row = next(r for r in rows if r.dim_vector == c)
        want = row.dt_numeric if side == "linear" else row.dt_motivic
        if v != want:
            return f"scalar {side} invariant at {c} differs from the table"
    return None


def check_output(prog, spec: dict, result, out: str):
    """(problem or None, output digest) from the checks that hold for any
    input: exit code, regular tables, matching wall-crossing."""
    kind = spec["kind"]
    if kind == "session":
        return _check_session(prog, result), _session_digest(result)
    if result != prog.cli.EXIT_OK:
        return f"exit code {result}", None
    with open(out, "rb") as fh:
        raw = fh.read()
    data = json.loads(raw)
    if kind == "dt":
        table = prog.invariants.InvariantTable.from_data(data)
        ok = prog.invariants.table_all_regular(table)
        problem = None if ok else "table_all_regular is false"
    else:
        problem = None if data["all_match"] is True else "all_match is false"
    return problem, hashlib.sha256(raw).hexdigest()


def check_job(prog, spec: dict, result, out: str,
              references: Dict[str, str]) -> Optional[str]:
    """None if the job's output is correct, else what is wrong.  The digest
    comparison applies when the input has a reference recorded."""
    problem, digest = check_output(prog, spec, result, out)
    if problem:
        return problem
    want = references.get(reference_key(spec))
    if want is not None and want != digest:
        return f"output digest {digest[:12]} differs from reference {want[:12]}"
    return None


def write_inputs(specs: List[dict], workdir: str) -> List[str]:
    """Write each job's quiver as the JSON file the job loads."""
    paths = []
    for i, spec in enumerate(specs):
        path = os.path.join(workdir, f"in{i}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(spec["quiver"], fh)
        paths.append(path)
    return paths


PROBE_STEPS = 3000


def probe() -> float:
    """Seconds a fixed pure-Python loop of Fraction and dict work takes.

    The host's speed drifts by more than half over seconds to minutes (other
    tenants share the cores), and CPU time drifts with it.  Timing this loop
    next to each job measures that speed with code that shares nothing with
    the program.  The collector is off so that the program's heap does not
    change the loop's time."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        acc, seen = Fraction(0), {}
        for i in range(1, PROBE_STEPS):
            acc += Fraction(i % 7 + 1, i % 11 + 1) * Fraction(3, i % 5 + 2)
            seen[(i % 13, i % 17)] = acc
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def run_pass(prog, specs: List[dict], paths: List[str], workdir: str,
             references: Dict[str, str], tr=NO_TRACE) -> dict:
    """Run every job back to back, then check them.

    Returns per job its seconds, the probe time measured around it and its
    failure if any; the peak resident memory reached by the jobs and, when
    traced, the call counts, both read before the checks run."""
    outs = [os.path.join(workdir, f"out{i}.json") for i in range(len(specs))]
    traced = tr is not NO_TRACE
    jobs, results = [], []
    for i, spec in enumerate(specs):
        error = result = None
        if traced:
            tr.job, tr.requests, tr.loaded = i, set(), {}
        before = probe()
        t0 = perf_counter()
        try:
            if traced:
                with tr.span("job"):
                    result = run_job(prog, spec, paths[i], outs[i], tr)
            else:
                result = run_job(prog, spec, paths[i], outs[i])
        except Exception as exc:  # a failed job is counted, never fatal
            error = f"{type(exc).__name__}: {exc}"
        seconds = perf_counter() - t0
        probe_s = (before + probe()) / 2
        if traced:
            tr.counts["invariants.engine_requests"] += len(tr.requests)
            if spec["kind"] != "session" and os.path.exists(outs[i]):
                tr.counts["cli.output_bytes"] += os.path.getsize(outs[i])
        jobs.append({"name": spec["name"], "seconds": seconds,
                     "probe_s": probe_s, "error": error})
        results.append(result)
    peak_rss_mb = _peak_rss_mb()
    # The checks call counted functions too; keep their calls out.
    counts = dict(tr.counts) if traced else {}
    for i, spec in enumerate(specs):
        if jobs[i]["error"] is None:
            try:
                jobs[i]["error"] = check_job(prog, spec, results[i], outs[i],
                                             references)
            except Exception as exc:
                jobs[i]["error"] = f"check raised {type(exc).__name__}: {exc}"
    return {"jobs": jobs, "peak_rss_mb": peak_rss_mb, "counts": counts}


def _peak_rss_mb() -> float:
    import resource
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def install_counters(prog, tr) -> None:
    """Call counters and nested spans, patched where each name is looked up
    (traced run only)."""
    rf = prog.ratfunc.RatFunc
    for attr in ("__add__", "__radd__"):
        tr.count(rf, attr, "ratfunc.add.calls")
    for attr in ("__mul__", "__rmul__"):
        tr.count(rf, attr, "ratfunc.mul.calls")
    tr.count(prog.quiver.Slope, "value", "quiver.slope_value.calls")
    sdq = prog.quiver.SelfDualQuiver
    tr.count(sdq, "commutation_exponent", "quiver.commutation_exponent.calls")
    tr.count(sdq, "sd_twist_exponent", "quiver.sd_twist_exponent.calls")
    tr.count(prog.wallcross, "coeff_U", "wallcross.coeff_U.calls",
             "wallcross.coeff_U.nonzero")
    tr.count(prog.wallcross, "coeff_Usd", "wallcross.coeff_Usd.calls")
    # invariants imports the stack classes by name; oracle looks up
    # verify_calibration as a module global from calibrate_signs.
    tr.time(prog.invariants, "stack_class", "motives.stack",
            "motives.stack_class.calls")
    tr.time(prog.invariants, "sd_stack_class", "motives.stack")
    tr.time(prog.oracle, "verify_calibration", "oracle.verify")
    # cli imports its library functions by name.
    cli = prog.cli
    tr.time(cli, "build_table", "invariants.table")
    tr.time(cli, "epsilon_table", "wallcross.direct")
    tr.time(cli, "wallcross_epsilon", "wallcross.transform")
    tr.time(prog.invariants.InvariantTable, "to_json", "cli.serialize")
    for name in ("table_all_regular", "diff_tables", "_eps_table_data",
                 "_emit"):
        tr.time(cli, name, "cli.serialize")
    load = cli.load_quiver

    def load_once(path):
        # A traced job loads its file before cli.main does; both get the
        # same quiver object, since the engine cache is keyed by identity.
        if path not in tr.loaded:
            with tr.span("cli.load"):
                tr.loaded[path] = load(path)
        return tr.loaded[path]
    tr.patch(cli, "load_quiver", load_once)
