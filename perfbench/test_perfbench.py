"""Tests of the benchmark's own arithmetic and failure handling.

    python3 -m pytest perfbench/test_perfbench.py
"""

import hashlib
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from worker import FIXTURES, REFERENCES, ROOT  # noqa: E402


def test_tail_with_enough_samples_has_ten_beyond():
    xs = list(range(30, 0, -1))
    t = stats.tail(xs)
    assert t["beyond"] == 10 and t["n"] == 30
    assert t["value"] == 20
    assert abs(t["percentile"] - 100 * 20 / 30) < 1e-9
    assert sum(1 for x in xs if x > t["value"]) == 10


def test_tail_with_fewer_than_ten_beyond_falls_back_to_median():
    t = stats.tail([5, 1, 4, 2, 3])
    assert t == {"value": 3, "percentile": 50.0, "beyond": 2, "n": 5}
    # 19 samples: a percentile with 10 beyond would sit below the median.
    t = stats.tail(list(range(19)))
    assert t["percentile"] == 50.0 and t["value"] == 9 and t["beyond"] == 9


def test_tail_at_twenty_samples_is_the_lower_median():
    t = stats.tail(list(range(20)))
    assert t["percentile"] == 50.0 and t["value"] == 9 and t["beyond"] == 10


def _span(name, start, end, parent):
    return {"name": name, "start": start, "end": end, "parent": parent,
            "job": 0}


def test_self_time_of_nested_spans():
    spans = [_span("job", 0.0, 10.0, None),
             _span("a", 1.0, 4.0, 0),
             _span("b", 5.0, 9.0, 0),
             _span("c", 6.0, 8.0, 2),
             _span("a", 7.0, 7.5, 3)]
    got = tracing.self_times(spans)
    assert got == {"job": 10.0 - 3.0 - 4.0, "a": 3.0 + 0.5, "b": 4.0 - 2.0,
                   "c": 2.0 - 0.5}


def test_self_time_clips_overlapping_children():
    spans = [_span("p", 0.0, 4.0, None),
             _span("x", 1.0, 3.0, 0),
             _span("y", 2.0, 5.0, 0)]
    assert tracing.self_times(spans)["p"] == 4.0 - 3.0


def test_tracer_records_parents_and_merges_reentry():
    tr = tracing.Tracer()
    tr.job = 7
    with tr.span("job"):
        with tr.span("outer"):
            with tr.span("outer"):
                with tr.span("inner"):
                    pass
    names = [(s["name"], s["parent"], s["job"]) for s in tr.spans]
    assert names == [("job", None, 7), ("outer", 0, 7), ("inner", 1, 7)]
    assert all(s["end"] >= s["start"] for s in tr.spans)


def test_counters_count_calls_and_nonzero_results():
    class Owner:
        @staticmethod
        def f(x):
            return x

    tr = tracing.Tracer()
    tr.count(Owner, "f", "calls", "nonzero")
    tr.count(Owner, "missing", "never")
    for x in (0, 1, 2):
        Owner.f(x)
    assert tr.counts == {"calls": 3, "nonzero": 2}


def test_make_jobs_depends_only_on_seed_and_pass():
    for w in workloads.WORKLOADS:
        a = workloads.make_jobs(w, 3, FIXTURES, 1)
        assert a == workloads.make_jobs(w, 3, FIXTURES, 1)
        assert a != workloads.make_jobs(w, 4, FIXTURES, 1)
        assert a != workloads.make_jobs(w, 3, FIXTURES, 2)
        kinds = [j["kind"] for j in workloads.make_jobs(w, 4, FIXTURES, 2)]
        assert sorted(kinds) == sorted(j["kind"] for j in a)


def _small_pass(tmp_path, references, tr=workloads.NO_TRACE):
    prog = workloads.load_program(ROOT)
    data = workloads.fixture(FIXTURES, "kronecker_pm_plus")
    specs = [workloads.dt_spec("small", data, 1, bound=3)]
    paths = workloads.write_inputs(specs, str(tmp_path))
    return specs, workloads.run_pass(prog, specs, paths, str(tmp_path),
                                     references, tr)


def test_corrupted_reference_counts_as_failure(tmp_path):
    specs, good = _small_pass(tmp_path, {})
    assert good["jobs"][0]["error"] is None
    key = workloads.reference_key(specs[0])
    _, bad = _small_pass(tmp_path, {key: "0" * 64})
    error = bad["jobs"][0]["error"]
    assert error is not None and "differs from reference" in error


def test_traced_job_matches_untraced_output(tmp_path):
    prog = workloads.load_program(ROOT)
    data = workloads.fixture(FIXTURES, "kronecker_mm_minus")
    specs = [workloads.dt_spec("dt", data, 2, bound=3),
             workloads.wallcross_spec("wc", data, 1, -1, bound=3)]
    paths = workloads.write_inputs(specs, str(tmp_path))
    plain = workloads.run_pass(prog, specs, paths, str(tmp_path), {})
    assert [j["error"] for j in plain["jobs"]] == [None, None]
    refs, size = {}, 0
    for i, spec in enumerate(specs):
        with open(tmp_path / f"out{i}.json", "rb") as fh:
            raw = fh.read()
        refs[workloads.reference_key(spec)] = hashlib.sha256(raw).hexdigest()
        size += len(raw)
    tr = tracing.Tracer()
    workloads.install_counters(prog, tr)
    try:
        traced = workloads.run_pass(prog, specs, paths, str(tmp_path), refs,
                                    tr)
    finally:
        tr.restore()
    assert [j["error"] for j in traced["jobs"]] == [None, None]
    # dt asks for one engine; wallcross for one per slope.
    assert traced["counts"]["invariants.engine_requests"] == 3
    assert traced["counts"]["cli.output_bytes"] == size
    # The spans inside cli.main come from the names cli looks up.
    names = {s["name"] for s in tr.spans}
    assert {"cli.load", "invariants.table", "wallcross.direct",
            "wallcross.transform", "cli.serialize"} <= names
    # Every span lies inside a job span.
    assert all(s["parent"] is not None for s in tr.spans
               if s["name"] != "job")


def test_restore_undoes_every_patch():
    prog = workloads.load_program(ROOT)
    before = (prog.cli.build_table, prog.cli.load_quiver,
              vars(prog.invariants.InvariantTable)["to_json"],
              dict(vars(prog.ratfunc.RatFunc)))
    tr = tracing.Tracer()
    workloads.install_counters(prog, tr)
    assert prog.cli.build_table is not before[0]
    tr.restore()
    after = (prog.cli.build_table, prog.cli.load_quiver,
             vars(prog.invariants.InvariantTable)["to_json"],
             dict(vars(prog.ratfunc.RatFunc)))
    assert after == before


def test_pass_count_depends_only_on_run_length(monkeypatch):
    import run
    calls = []
    monkeypatch.setattr(run, "run_worker",
                        lambda w, seed, index, traced, timeout:
                        calls.append((index, traced)) or {})
    n = workloads.pass_count("kron_table", 35)
    assert len(run.run_passes("kron_table", 1, 35, False)) == n
    assert calls == [(i, False) for i in range(n)]
    calls.clear()
    run.run_passes("kron_table", 1, 35, True)
    pairs = (n + 1) // 2
    assert calls == [(i, t) for i in range(pairs) for t in (True, False)]


def test_references_cover_every_reachable_suite_job():
    import record_references
    with open(REFERENCES, encoding="utf-8") as fh:
        refs = json.load(fh)
    n = record_references.SUITE_PASSES
    for seed in record_references.SUITE_SEEDS:
        for index in range(n):
            for spec in workloads.make_jobs("suite_session", seed, FIXTURES,
                                            index):
                assert workloads.reference_key(spec) in refs
