"""Self-tests of the benchmark harness.  From the repository root:

    PYTHONPATH=src python3 -m pytest -q perfbench/selftest.py

The file is named so that the package's own test run does not collect it.
"""
from __future__ import annotations

import json
import os
import re
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import jobs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
from sympbw import polytope  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SETUPS = [{"seconds": 0.1, "calibration_s": [0.06]}]


def _benchmark() -> dict:
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        return json.load(fh)


def _job(name):
    return next(j for j in jobs.verify_jobs(7) if j.name == name)


def _pass(records, summary=None):
    p = {"jobs": records, "peak_rss_mb": 20.0, "patched": []}
    if summary is not None:
        p["spans"] = summary
    return p


def _record(name, seconds=1.0, cases=1):
    return {"name": name, "seconds": seconds, "cases": cases, "digest": "x",
            "error": None, "calibration_s": [0.06, 0.06]}


def _traced(job_list):
    """Run jobs under a freshly installed tracer; returns (records, summary)."""
    tracer = spans.Tracer()
    restore = tracer.install()
    try:
        records = worker.run_jobs(job_list(), worker.load_digests(), tracer)
    finally:
        restore()
    return records, tracer.summary()


def test_metric_names_are_well_formed_and_declared():
    bench = _benchmark()
    verify = [f"verify.{suite}" for suite in run.VERIFY_SUITES] + ["oracle.111"]
    passes = [_pass([_record(name) for name in verify])]
    e2e = run.end_to_end(SETUPS, passes)
    layer = run.per_layer(passes, [_pass(passes[0]["jobs"], {})])
    metrics = bench["end_to_end"] + bench["per_layer"]
    declared = {m["name"]: m["unit"] for m in metrics}
    assert len(declared) == len(metrics), "a metric is declared twice"
    printed = {name: unit for name, (_, unit) in {**e2e, **layer}.items()}
    assert printed == declared
    assert all(NAME.fullmatch(name) for name in printed)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert [j.name for j in jobs.verify_jobs(0)] == verify


def test_digest_catches_a_perturbed_output():
    job = _job("verify.partial")
    digests = worker.load_digests()
    assert worker.run_jobs([job], digests)[0]["error"] is None

    def perturbed():
        code, stdout = job.run()
        return code, stdout.replace("\n", "\n ", 1)  # still valid JSON

    [rec] = worker.run_jobs([jobs.Job(job.name, perturbed, job.check)], digests)
    assert "digest" in rec["error"]


def test_exception_and_zero_case_jobs_raise_fail_frac():
    def boom():
        raise RuntimeError("injected")

    job_list = [
        _job("verify.partial"),
        jobs.Job("boom", boom, lambda out: (1, ())),
        jobs.Job("empty", lambda: None, lambda out: (0, ())),
    ]
    records = worker.run_jobs(job_list, worker.load_digests())
    assert records[0]["error"] is None
    assert records[1]["error"] == "RuntimeError: injected"
    assert records[2]["error"] == "examined no cases"
    result = run.summarize(SETUPS, [_pass(records)], [], trace=False)
    assert (result["attempted"], result["failed"], result["correct"]) == (3, 2, False)


def test_seed_changes_inputs_but_no_deterministic_count():
    assert jobs.probe_points(1, 50) != jobs.probe_points(2, 50)
    counts = []
    for seed in (1, 2):
        records, summary = _traced(
            lambda: [_job_for_seed(seed), *jobs.probe_jobs(seed, size=300)])
        assert [r["error"] for r in records] == [None] * 5
        metrics = run.span_metrics(summary)
        counts.append({k: v for k, (v, unit) in metrics.items() if unit == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["polytope.contains.calls"] == 300


def _job_for_seed(seed):
    return next(j for j in jobs.verify_jobs(seed) if j.name == "verify.order")


def test_verify_seed_reaches_the_cli():
    outputs = [_job_for_seed(seed).run()[1] for seed in (1, 2)]
    assert '"seed": 1' in outputs[0] and '"seed": 2' in outputs[1]


def test_untraced_jobs_leave_sympbw_unpatched():
    original = polytope.contains
    worker.run_jobs([_job("verify.partial")], worker.load_digests())
    assert spans.patched() == [] and polytope.contains is original

    tracer = spans.Tracer()
    restore = tracer.install()
    try:
        assert polytope.contains is not original
        wrapped = spans.patched()
    finally:
        restore()
    assert "sympbw.oracle.enumerate_points" in wrapped
    assert "sympbw.linalg.IncrementalBasis.add" in wrapped
    assert spans.patched() == [] and polytope.contains is original


def test_untraced_pass_with_a_patch_fails():
    patched = _pass([_record("verify.partial")])
    patched["patched"] = ["sympbw.polytope.contains"]
    result = run.summarize(SETUPS, [patched], [], trace=False)
    assert not result["correct"] and result["failed"] == 1


def test_spans_nest_and_round_trip(tmp_path):
    tracer = spans.Tracer()
    restore = tracer.install()
    try:
        assert polytope.contains((1, 1, 1), (0,) * 9)
    finally:
        restore()
    summary = tracer.summary()
    outer, inner = summary["polytope.contains"], summary["polytope.inequalities"]
    assert outer["calls"] == inner["calls"] == 1 and outer["value"] == 1
    assert outer["self_ns"] == outer["total_ns"] - inner["total_ns"]
    path = tmp_path / "spans.bin"
    tracer.write(path)
    names, columns = spans.read_spans(path)
    assert names == tracer.names
    assert columns == tracer.columns
    assert columns["parent"][1] == 0  # inequalities ran inside contains


def test_count_drift_is_reported():
    records = [_record("graded.222", cases=7)]
    same = run.count_drift([_pass(records)] * 2, [])
    moved = run.count_drift([_pass(records), _pass([_record("graded.222", cases=8)])], [])
    assert same == [] and moved == ["graded.222 cases"]
    a = {"linalg.add": {"calls": 5, "total_ns": 9, "self_ns": 9, "value": 3}}
    b = {"linalg.add": {"calls": 6, "total_ns": 9, "self_ns": 9, "value": 3}}
    drift = run.count_drift([], [_pass(records, a), _pass(records, b)])
    assert "linalg.add.calls" in drift
