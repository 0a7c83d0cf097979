"""Benchmark of sympbw: three exact workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload verify|enumerate|ideal --seed N \\
        --seconds S --trace 0|1

Run from the root of a checkout.  Every pass of a workload runs in a fresh,
single-threaded interpreter (perfbench/worker.py) that imports ``sympbw`` from
``src/``; passes follow each other in a closed loop until the next one would
end after ``--seconds``.  Set-up is timed separately, in several fresh
interpreters that only import the package and build the rank tables.  Every
time is scaled to reference speed by a calibration loop timed in the same
interpreter (see README.md); metrics are medians over passes or samples.

With ``--trace 0`` the last line of standard output is one JSON object with the
end-to-end metrics; with ``--trace 1`` one untraced loop is followed by two
traced passes, and the object holds the per-layer metrics instead.  Lines
before it are a readable copy.  Exit status 0 means a result was printed,
whether or not every job passed; anything else means there is no result.
"""
from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("verify", "enumerate", "ideal")
# The suites of `sympbw verify` when the digests were recorded, in the order
# of cli.SUITES; a suite added later has no digest to meet, so it is not run.
VERIFY_SUITES = ("dimension", "character", "graded", "straightening", "order",
                 "partial", "peeling", "tensor", "basis")
SETUP_SAMPLES = 9
# Units of the per-layer metrics that are times, and so are scaled.
TIME_UNITS = ("s", "us")
# Seconds the calibration loop of worker.py takes at reference speed.  Every
# time reported is a time measured, multiplied by REFERENCE_S over the mean
# of the calibration times measured in the same interpreter next to it.
REFERENCE_S = 0.06
DEADLINE_S = 170  # a run must end within 180 seconds
OUT_DIR = os.path.join(".bench_build", "perfbench")


class BenchError(Exception):
    """The benchmark could not produce a result."""


class Spawner:
    """Starts worker interpreters, one at a time, within the run's deadline."""

    def __init__(self, workload: str, seed: int):
        self.base = [sys.executable, WORKER, "--workload", workload,
                     "--seed", str(seed)]
        self.env = dict(os.environ, PYTHONPATH=os.path.abspath("src"))
        self.deadline = time.monotonic() + DEADLINE_S

    def __call__(self, mode: str, *extra) -> tuple:
        """Run one worker; returns (its JSON result, the spawn time in ns)."""
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("out of time before the run could finish")
        started = time.monotonic_ns()
        try:
            proc = subprocess.run(
                self.base + ["--mode", mode, *extra], env=self.env, text=True,
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=timeout,
            )
        except subprocess.TimeoutExpired as err:
            raise BenchError(f"{mode} worker timed out") from err
        if proc.returncode != 0:
            raise BenchError(f"{mode} worker exited {proc.returncode}: "
                             f"{proc.stderr.strip()[-2000:]}")
        return json.loads(proc.stdout.splitlines()[-1]), started


def speed(calibration_s: list) -> float:
    """Factor from seconds measured to seconds at reference speed."""
    return REFERENCE_S / statistics.fmean(calibration_s)


def scaled_jobs(p) -> dict:
    """Job times of one pass, in seconds at reference speed."""
    return {j["name"]: j["seconds"] * speed(j["calibration_s"])
            for j in p["jobs"] if j["seconds"] is not None}


def pass_speed(p) -> float:
    return statistics.median(speed(j["calibration_s"]) for j in p["jobs"])


def job_median(passes, name: str) -> float:
    times = [t[name] for t in map(scaled_jobs, passes) if name in t]
    return statistics.median(times) if times else 0.0


def end_to_end(setups: list, passes: list) -> dict:
    scaled = [scaled_jobs(p) for p in passes]
    return {
        "setup_s": (statistics.median(s["seconds"] * speed(s["calibration_s"])
                                      for s in setups), "s"),
        "wall_s": (statistics.median(sum(t.values()) for t in scaled), "s"),
        "slowest_job_s": (statistics.median(max(t.values(), default=0.0)
                                            for t in scaled), "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
    }


def span_metrics(spans: dict) -> dict:
    def get(name, field):
        return spans.get(name, {}).get(field, 0)

    def self_s(name):
        return (get(name, "self_ns") / 1e9, "s")

    def calls(name):
        return (get(name, "calls"), "count")

    def ratio(name):
        n = get(name, "calls")
        return (get(name, "value") / n if n else 0.0, "ratio")

    contains_calls = get("polytope.contains", "calls")
    return {
        "rootsys.chevalley_realization.self_s": self_s("rootsys.chevalley_realization"),
        "dyck.enumerate_paths.self_s": self_s("dyck.enumerate_paths"),
        "dyck.paths": (get("dyck.enumerate_paths", "value"), "count"),
        "polytope.enumerate_points.self_s": self_s("polytope.enumerate_points"),
        "polytope.enumerate_points.calls": calls("polytope.enumerate_points"),
        "polytope.points": (get("polytope.enumerate_points", "value"), "count"),
        "polytope.inequalities": (get("polytope.inequalities", "value"), "count"),
        "polytope.inequalities.self_s": self_s("polytope.inequalities"),
        "polytope.graded_character.self_s": self_s("polytope.graded_character"),
        "polytope.freudenthal_multiplicities.self_s":
            self_s("polytope.freudenthal_multiplicities"),
        "polytope.freudenthal_weights":
            (get("polytope.freudenthal_multiplicities", "value"), "count"),
        "polytope.contains.self_s": self_s("polytope.contains"),
        "polytope.contains.calls": calls("polytope.contains"),
        "polytope.contains.us_per_call": (
            get("polytope.contains", "total_ns") / contains_calls / 1e3
            if contains_calls else 0.0, "us"),
        "polytope.contains.true_ratio": ratio("polytope.contains"),
        "decomp.peel_completely.self_s": self_s("decomp.peel_completely"),
        "decomp.peel.calls": calls("decomp.peel"),
        "decomp.fundamental_points.self_s": self_s("decomp.fundamental_points"),
        "grmod.ideal_generators.self_s": self_s("grmod.ideal_generators"),
        "grmod.closure_size": (get("grmod.ideal_generators", "value"), "count"),
        "grmod.quotient_graded_dims.self_s": self_s("grmod.quotient_graded_dims"),
        "grmod.quotient_cells": (get("grmod.quotient_graded_dims", "value"), "count"),
        "grmod.normal_form.self_s": self_s("grmod.normal_form"),
        "grmod.normal_form.calls": calls("grmod.normal_form"),
        "grmod.straightening_element.self_s": self_s("grmod.straightening_element"),
        "grmod.straightening_element.calls": calls("grmod.straightening_element"),
        "grmod.partial_op.calls": calls("grmod.partial_op"),
        "linalg.add.self_s": self_s("linalg.add"),
        "linalg.add.calls": calls("linalg.add"),
        "linalg.add.useful_ratio": ratio("linalg.add"),
        "linalg.rank": (get("linalg.add", "value"), "count"),
        "linalg.contains.self_s": self_s("linalg.contains"),
        "linalg.contains.calls": calls("linalg.contains"),
        "linalg.combination.self_s": self_s("linalg.combination"),
        "linalg.combination.calls": calls("linalg.combination"),
        "oracle.build_module.self_s": self_s("oracle.build_module"),
        "oracle.module_dim": (get("oracle.build_module", "value"), "count"),
        "oracle.apply_root_vector.self_s": self_s("oracle.apply_root_vector"),
        "oracle.apply_root_vector.calls": calls("oracle.apply_root_vector"),
        "oracle.graded_action.self_s": self_s("oracle.graded_action"),
        "oracle.tensor_cartan_dims.self_s": self_s("oracle.tensor_cartan_dims"),
        "oracle.monomial_rank.self_s": self_s("oracle.monomial_rank"),
    }


def per_layer(untraced: list, traced: list) -> dict:
    """Per-layer metrics from the traced passes (times: the median; counts:
    they repeat exactly), the job breakdown of the verify workload from the
    untraced passes, and the overhead of tracing."""
    each = [(span_metrics(p["spans"]), pass_speed(p)) for p in traced]
    metrics = {
        name: (statistics.median(m[name][0] * f for m, f in each)
               if unit in TIME_UNITS else value, unit)
        for name, (value, unit) in each[0][0].items()
    }
    for suite in VERIFY_SUITES:
        metrics[f"cli.verify.{suite}_s"] = (job_median(untraced, f"verify.{suite}"), "s")
    metrics["cli.oracle.111_s"] = (job_median(untraced, "oracle.111"), "s")
    walls = [statistics.median(sum(scaled_jobs(p).values()) for p in group)
             for group in (traced, untraced)]
    metrics["trace.overhead_frac"] = (walls[0] / walls[1] - 1, "ratio")
    return metrics


def count_drift(passes: list, traced: list) -> list:
    """Work counts that differ between passes of this run; all must repeat."""
    drift = []
    cases = {}
    for p in passes + traced:
        for j in p["jobs"]:
            if cases.setdefault(j["name"], j["cases"]) != j["cases"]:
                drift.append(f"{j['name']} cases")
    if traced:
        first = span_metrics(traced[0]["spans"])
        for p in traced[1:]:
            for name, (value, unit) in span_metrics(p["spans"]).items():
                if unit in ("count", "ratio") and value != first[name][0]:
                    drift.append(name)
    return sorted(set(drift))


def measure(args) -> tuple:
    spawn = Spawner(args.workload, args.seed)
    spawn("setup")  # untimed: fills the bytecode and file caches
    setups = []
    for _ in range(SETUP_SAMPLES):
        result, started = spawn("setup")
        setups.append({"seconds": (result["ready_ns"] - started) / 1e9,
                       "calibration_s": result["calibration_s"]})
    passes = []
    start = time.monotonic()
    while True:
        began = time.monotonic()
        passes.append(spawn("run")[0])
        last = time.monotonic() - began
        if time.monotonic() - start + last > args.seconds:
            break
    traced = []
    if args.trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        for tag in ("a", "b"):
            path = os.path.join(OUT_DIR, f"spans-{args.workload}-{tag}.bin")
            traced.append(spawn("trace", "--spans", path)[0])
    return setups, passes, traced


def summarize(setups: list, passes: list, traced: list, trace: bool) -> dict:
    """The result object; a job counts as failed if it failed in any pass or
    ran in an untraced pass that found span wrappers installed."""
    records = [j for p in passes + traced for j in p["jobs"]]
    failed = [j for j in records if j["error"]]
    failed += [j for p in passes if p["patched"] for j in p["jobs"] if not j["error"]]
    drift = count_drift(passes, traced)
    metrics = per_layer(passes, traced) if trace else end_to_end(setups, passes)
    return {
        "correct": not failed and not drift,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "sympbw", "__init__.py")):
        print("error: run from the root of a sympbw checkout (no src/sympbw here)",
              file=sys.stderr)
        return 2
    # SystemExit unwinds through subprocess.run, which kills and reaps the worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        setups, passes, traced = measure(args)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    for p in passes + traced:
        for j in p["jobs"]:
            if j["error"]:
                print(f"FAIL {j['name']}: {j['error']}", file=sys.stderr)
    for p in passes:
        if p["patched"]:
            print(f"FAIL untraced pass ran with spans on {p['patched']}", file=sys.stderr)
    for name in count_drift(passes, traced):
        print(f"DRIFT {name} differs between passes of one run", file=sys.stderr)
    result = summarize(setups, passes, traced, bool(args.trace))
    factors = [pass_speed(p) for p in passes]
    print(f"workload={args.workload} seed={args.seed} passes={len(passes)} "
          f"traced={len(traced)} speed factors {min(factors):.3f}..{max(factors):.3f}")
    print(f"fail_frac {result['failed'] / result['attempted']} ratio "
          f"({result['failed']} of {result['attempted']} jobs)")
    for name, metric in result["metrics"].items():
        print(f"{name} {metric['value']} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
