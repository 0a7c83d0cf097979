"""The benchmark's three workloads as lists of jobs, each checked exactly.

A job has a timed part (``run``), which only calls into ``sympbw``, and an
untimed part (``check``), which tests the job's identity exactly and returns
the number of cases it examined together with a canonical text of the
output, in pieces.  The runner hashes the pieces one at a time, so that a
large output is never held twice, and compares the hash with the digest
recorded in ``digests.json``.

Every call goes through a module attribute (``polytope.contains``,
``cli.main``, ...), never through a name bound here at import time, so the
spans of the traced run see the calls.
"""
from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
import re
from typing import Callable, NamedTuple

from run import VERIFY_SUITES, WORKLOADS
from sympbw import cli, decomp, dyck, grmod, polytope, rootsys

# Ranks whose root tables, Dyck paths and matrix realizations each workload
# builds before its first job.
RANKS = {"verify": (1, 2, 3, 4, 5), "enumerate": (1, 2, 3, 4, 5, 6), "ideal": (3,)}

VERIFY_ARGS = ("--max-n", "3", "--max-weight", "2", "--format", "json")
ORACLE_LAMBDA = (1, 1, 1)
# Inputs are sized so that no job takes much more than a second: a job's
# time is scaled by calibrations taken around its pass, which follow the
# speed of a shared host only over a few seconds (see README.md).
ENUMERATE_POINTS = ((2, 2, 2), (1, 1, 1, 1), (0, 2, 0, 1), (0, 0, 0, 1, 1),
                    (0, 0, 0, 0, 0, 1), (1, 0, 0, 0, 0, 1))
FREUDENTHAL = ((2, 1, 1), (0, 1, 0, 1), (1, 1, 0, 1))
FUNDAMENTAL_MAX_N = 6
QUOTIENT = ((1, 0, 1), (0, 1, 1), (1, 1, 1), (0, 0, 2), (2, 0, 1))
NORMAL_FORM = ((1, 1, 1), (0, 1, 1))
PROBE_LAMBDA = (1, 1, 1)
PROBE_SIZE = 20000
PROBE_JOBS = 4


class JobFailure(Exception):
    """An identity did not hold, or an output was malformed."""


class Job(NamedTuple):
    name: str
    run: Callable[[], object]
    check: Callable[[object], tuple]  # output -> (cases, pieces of canonical text)


def _tag(lam) -> str:
    return "".join(str(m) for m in lam)


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise JobFailure(message)


def _repr_pieces(items):
    """The text of ``repr(list(items))``, piece by piece."""
    yield "["
    for k, item in enumerate(items):
        yield ", " + repr(item) if k else repr(item)
    yield "]"


def _table_text(table: dict):
    return _repr_pieces(sorted(table.items()))


def setup_tables(workload: str) -> None:
    """Build the rank tables that every CLI call of the workload pays for."""
    for n in RANKS[workload]:
        rootsys.positive_roots(n)
        dyck.enumerate_paths(n)
        rootsys.chevalley_realization(n)


# ---------------------------------------------------------------------------
# verify: one `sympbw verify` call per suite, then the filtration of the
# rank-3 module (1,1,1), which a weight-2 battery does not reach
# ---------------------------------------------------------------------------

def _weight_count(ranks, max_weight: int, lo: int) -> int:
    """Dominant weights of the given ranks with lo <= total <= max_weight."""
    return sum(
        1
        for n in ranks
        for lam in itertools.product(range(max_weight + 1), repeat=n)
        if lo <= sum(lam) <= max_weight
    )


def _verify_cases(check: dict) -> int:
    """Cases a verify check examined, counted from its reported parameters."""
    p = check["parameters"]
    name = check["name"]
    ranks = range(1, p.get("max_n", 0) + 1)
    if name == "dimension":
        return _weight_count(ranks, p["max_weight"], 0)
    if name in ("character", "graded-oracle", "graded-ideal", "straightening",
                "peeling"):
        return _weight_count(ranks, p["max_weight"], 1)
    if name == "order-laws":
        return p["triples"]
    if name == "partial-support":
        return sum(n * n * n for n in ranks)
    if name in ("fundamental-points", "binomial-identity"):
        return sum(ranks)
    if name == "tensor-cartan":
        return p["pairs"]
    if name == "ordered-basis":
        return _weight_count((p["n"],), p["max_weight"], 1)
    raise JobFailure(f"unknown verify check {name!r}")


_SEED_FIELD = re.compile(r'"seed": (-?\d+)')


def _call_cli(argv) -> tuple:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _verify_job(suite: str, seed: int) -> Job:
    argv = ["verify", "--suite", suite, *VERIFY_ARGS, "--seed", str(seed)]

    def check(result):
        code, stdout = result
        _expect(code == 0, f"exit code {code}")
        report = json.loads(stdout)
        _expect(report["failed"] == 0, f"{report['failed']} checks failed")
        _expect(report["passed"] == len(report["checks"]), "pass count mismatch")
        seeds = {int(m) for m in _SEED_FIELD.findall(stdout)}
        _expect(seeds == {seed}, f"stdout reports seeds {sorted(seeds)}, not {seed}")
        cases = sum(_verify_cases(c) for c in report["checks"])
        return cases, (_SEED_FIELD.sub('"seed": "SEED"', stdout),)

    return Job(f"verify.{suite}", lambda: _call_cli(argv), check)


def _oracle_job(lam) -> Job:
    argv = ["oracle", "--n", str(len(lam)), "--lambda", ",".join(map(str, lam)),
            "--filtration", "--format", "json"]

    def check(result):
        code, stdout = result
        _expect(code == 0, f"exit code {code}")
        report = json.loads(stdout)
        _expect(report["match"] and report["dimension"] == report["weyl"],
                "module dimension differs from Weyl")
        _expect(report["total"] == report["dimension"], "filtration total differs")
        return len(report["table"]), (stdout,)

    return Job(f"oracle.{_tag(lam)}", lambda: _call_cli(argv), check)


def verify_jobs(seed: int) -> list:
    return ([_verify_job(suite, seed) for suite in VERIFY_SUITES]
            + [_oracle_job(ORACLE_LAMBDA)])


# ---------------------------------------------------------------------------
# enumerate: lattice points and the classical oracles at ranks 3-6
# ---------------------------------------------------------------------------

def _points_job(lam) -> Job:
    def run():
        return polytope.enumerate_points(lam), polytope.weyl_dim(lam)

    def check(result):
        points, weyl = result
        _expect(len(points) == weyl, f"|S| = {len(points)} but Weyl gives {weyl}")
        return len(points), _repr_pieces(points)

    return Job(f"points.{_tag(lam)}", run, check)


def _graded_job(lam) -> Job:
    weyl = polytope.weyl_dim(lam)

    def check(graded):
        _expect(sum(graded.values()) == weyl, "graded character total is not Weyl's")
        return len(graded), _table_text(graded)

    return Job(f"graded.{_tag(lam)}", lambda: polytope.graded_character(lam), check)


def _freudenthal_job(lam) -> Job:
    def run():
        return polytope.character(lam), polytope.freudenthal_multiplicities(lam)

    def check(result):
        char, mult = result
        _expect(char == mult, "character differs from Freudenthal")
        return len(mult), _table_text(mult)

    return Job(f"freudenthal.{_tag(lam)}", run, check)


def _fundamental_job() -> Job:
    pairs = [(n, i) for n in range(1, FUNDAMENTAL_MAX_N + 1) for i in range(1, n + 1)]

    def run():
        out = []
        for n, i in pairs:
            omega = tuple(1 if k == i else 0 for k in range(1, n + 1))
            out.append((
                decomp.fundamental_points(n, i),
                polytope.enumerate_points(omega),
                decomp.binomial_identity_check(n, i),
            ))
        return out

    def check(result):
        for (n, i), (fund, points, binomial) in zip(pairs, result):
            _expect(fund == points, f"fundamental points differ at n={n}, i={i}")
            _expect(binomial, f"binomial identity fails at n={n}, i={i}")
        return len(pairs), (repr([len(points) for _, points, _ in result]),)

    return Job("fundamental", run, check)


def enumerate_jobs(seed: int) -> list:
    return ([_points_job(lam) for lam in ENUMERATE_POINTS]
            + [_graded_job(lam) for lam in ENUMERATE_POINTS]
            + [_freudenthal_job(lam) for lam in FREUDENTHAL]
            + [_fundamental_job()])


# ---------------------------------------------------------------------------
# ideal: the symmetric-algebra side at rank 3
# ---------------------------------------------------------------------------

def _quotient_job(lam) -> Job:
    def run():
        return grmod.quotient_graded_dims(lam), polytope.graded_character(lam)

    def check(result):
        quotient, graded = result
        _expect(quotient == graded, "quotient dimensions differ from the polytope")
        return len(graded), _table_text(quotient)

    return Job(f"quotient.{_tag(lam)}", run, check)


def _normal_form_job(lam) -> Job:
    n = len(lam)

    def run():
        out = []
        for path in dyck.enumerate_paths(n):
            for s in grmod.minimal_violations(lam, path):
                out.append(grmod.normal_form(grmod.SparsePolynomial.monomial(n, s), lam))
        return out

    inside, _ = _membership(lam)

    def check(result):
        for nf in result:
            for s in nf.terms:
                _expect(inside(s), f"normal form term {s} is outside S(λ)")
        return len(result), _repr_pieces(
            sorted((s, str(c)) for s, c in nf.terms.items()) for nf in result)

    return Job(f"normal_form.{_tag(lam)}", run, check)


def _membership(lam) -> tuple:
    """Membership in P(λ) evaluated straight from the path inequalities,
    built before the job starts; returns (predicate, inequality rows)."""
    idx = rootsys.root_index_map(len(lam))
    rows = [([idx[alpha] for alpha in ineq.path], ineq.bound)
            for ineq in polytope.inequalities(lam)]

    def inside(s) -> bool:
        return all(x >= 0 for x in s) and all(
            sum(s[i] for i in row) <= bound for row, bound in rows)

    return inside, rows


def probe_points(seed: int, size: int = PROBE_SIZE) -> list:
    """Points of S(λ) moved by ±1 in one coordinate, drawn from the seed.

    A coordinate at 0 only moves up: a negative coordinate would let
    ``contains`` answer before it reads the inequalities, and the work per
    call would then depend on the seed.
    """
    lam = PROBE_LAMBDA
    base = polytope.enumerate_points(lam)
    rng = random.Random(seed)
    out = []
    for _ in range(size):
        s = list(rng.choice(base))
        i = rng.randrange(len(s))
        s[i] += rng.choice((-1, 1)) if s[i] else 1
        out.append(tuple(s))
    return out


def probe_jobs(seed: int, size: int = PROBE_SIZE) -> list:
    """The probe in PROBE_JOBS equal parts, each checked on its own."""
    lam = PROBE_LAMBDA
    points = probe_points(seed, size)
    inside, rows = _membership(lam)
    step = -(-size // PROBE_JOBS)

    def part(chunk):
        def run():
            return [polytope.contains(lam, s) for s in chunk]

        def check(answers):
            expected = [inside(s) for s in chunk]
            _expect(answers == expected, "contains disagrees with the inequalities")
            hits = sum(expected)
            _expect(0 < hits < len(chunk), f"probe answers are all {bool(hits)}")
            return len(chunk), (repr(rows),)

        return run, check

    return [Job(f"probe.{_tag(lam)}.{k + 1}", *part(points[i:i + step]))
            for k, i in enumerate(range(0, size, step))]


def ideal_jobs(seed: int) -> list:
    return ([_quotient_job(lam) for lam in QUOTIENT]
            + [_normal_form_job(lam) for lam in NORMAL_FORM]
            + probe_jobs(seed))


JOBS = {"verify": verify_jobs, "enumerate": enumerate_jobs, "ideal": ideal_jobs}
