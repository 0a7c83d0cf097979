"""One pass of a workload in a fresh interpreter; prints one JSON line.

    python3 perfbench/worker.py --mode setup|run|trace --workload W --seed S
    python3 perfbench/worker.py --mode record

``setup`` imports ``sympbw`` and builds the workload's rank tables, then
prints the monotonic clock so that the parent can time the whole start-up,
and the times of a few calibration loops.  ``run`` does the set-up and then
the workload's jobs, untraced, with a calibration loop before each job and
after the last.  ``trace`` installs
the span recorder first, then does the same and adds the per-span summary;
its spans are written to ``--spans``.  ``record`` runs every job of
every workload once and rewrites ``digests.json`` from the outputs; use it
only when an output is meant to change.

``sympbw`` must come from ``src/`` of the current directory; run.py sets
``PYTHONPATH`` for that.
"""
from __future__ import annotations

import argparse
import hashlib
from fractions import Fraction
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS = os.path.join(HERE, "digests.json")
RECORD_SEED = 0
CALIBRATION_STEPS = 100000
SETUP_CALIBRATIONS = 4


def calibrate() -> float:
    """Seconds for a fixed loop of dict, tuple and Fraction work that does not
    touch sympbw; run.py divides every time by the loop's time next to it to
    cancel the speed changes of a shared host."""
    t0 = time.perf_counter()
    table = {}
    total = Fraction(0)
    for i in range(CALIBRATION_STEPS):
        key = (i % 97, i % 13, (i * 7) % 11)
        table[key] = table.get(key, 0) + i
        if i % 16 == 0:
            total += Fraction(i % 29 + 1, i % 31 + 1)
    return time.perf_counter() - t0


def run_jobs(jobs, digests: dict, tracer=None) -> list:
    """Run jobs in order; a job fails if it raises, mismatches, examines no
    case or produces an output whose digest differs from the record.  Each
    record carries the calibration times taken just before and after it.
    A job's output is released before the next calibration and job, so the
    peak memory of the pass is that of its largest job alone."""
    records = []
    before = calibrate()
    for k, job in enumerate(jobs, start=1):
        if tracer is not None:
            tracer.job = k
        rec = {"name": job.name, "seconds": None, "cases": 0, "digest": None,
               "error": None}
        try:
            t0 = time.perf_counter()
            out = job.run()
            rec["seconds"] = time.perf_counter() - t0
            rec["cases"], pieces = job.check(out)
            digest = hashlib.sha256()
            for piece in pieces:
                digest.update(piece.encode())
            rec["digest"] = digest.hexdigest()
        except Exception as err:  # a failing job is counted; the pass goes on
            rec["error"] = f"{type(err).__name__}: {err}"
        else:
            if rec["cases"] <= 0:
                rec["error"] = "examined no cases"
            elif rec["digest"] != digests.get(job.name):
                rec["error"] = f"output digest {rec['digest'][:12]} is not the recorded one"
        out = pieces = None
        after = calibrate()
        rec["calibration_s"] = [before, after]
        before = after
        records.append(rec)
    return records


def load_digests() -> dict:
    with open(DIGESTS) as fh:
        return json.load(fh)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _check_source() -> None:
    import sympbw

    src = os.path.join(os.getcwd(), "src")
    if not os.path.abspath(sympbw.__file__).startswith(src + os.sep):
        sys.exit(f"sympbw was imported from {sympbw.__file__}, not from {src}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("setup", "run", "trace", "record"),
                        required=True)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=RECORD_SEED)
    parser.add_argument("--spans", help="file for the spans of a traced pass")
    args = parser.parse_args(argv)

    import sympbw.cli  # noqa: F401  (every sympbw module, before any wrapping)
    import spans

    tracer = None
    if args.mode == "trace":
        tracer = spans.Tracer()
        tracer.install()

    import jobs

    _check_source()
    if args.mode == "record":
        digests = {}
        for workload in jobs.WORKLOADS:
            jobs.setup_tables(workload)
            for rec in run_jobs(jobs.JOBS[workload](RECORD_SEED), {}):
                if rec["digest"] is None:
                    sys.exit(f"{rec['name']}: {rec['error']}")
                digests[rec["name"]] = rec["digest"]
        with open(DIGESTS, "w") as fh:
            json.dump(digests, fh, indent=1, sort_keys=True)
            fh.write("\n")
        return 0

    if args.workload not in jobs.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(jobs.WORKLOADS)}")
    jobs.setup_tables(args.workload)
    if args.mode == "setup":
        ready = time.monotonic_ns()
        samples = [calibrate() for _ in range(SETUP_CALIBRATIONS)]
        print(json.dumps({"ready_ns": ready, "calibration_s": samples}))
        return 0

    job_list = jobs.JOBS[args.workload](args.seed)
    records = run_jobs(job_list, load_digests(), tracer)
    result = {"jobs": records, "peak_rss_mb": peak_rss_mb(), "patched": spans.patched()}
    if tracer is not None:
        result["spans"] = tracer.summary()
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
