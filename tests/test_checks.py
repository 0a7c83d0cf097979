"""Tests for the verify check runner, driven by stub checks."""

from __future__ import annotations

import math

import pytest

from sympbw import checks, grmod, polytope
from sympbw.rootsys import row_slices, simple_root


def stub(*counts):
    """A check reporting one case per entry of counts, failing that many times."""
    def check(max_n, max_weight, seed):
        return {"max_n": max_n, "seed": seed}, iter(counts)

    return check


@pytest.fixture
def run_stubs(monkeypatch):
    def run(table):
        monkeypatch.setitem(checks.SUITES, "stub", table)
        return checks.run("stub", 2, 3, 5)

    return run


def test_check_without_cases_fails(run_stubs, capsys):
    (record,) = run_stubs({"empty": stub()})
    assert record == {
        "name": "empty", "parameters": {"max_n": 2, "seed": 5},
        "expected": 0, "actual": 0, "status": "fail",
    }
    assert capsys.readouterr().err == "empty: examined no cases\n"


def test_failure_counts_are_summed(run_stubs, capsys):
    (record,) = run_stubs({"broken": stub(0, 2, 0)})
    assert (record["actual"], record["status"]) == (2, "fail")
    (record,) = run_stubs({"flags": stub(False, True, True)})
    assert (record["actual"], record["status"]) == (2, "fail")
    assert type(record["actual"]) is int
    assert capsys.readouterr().err == ""


def test_all_zero_counts_pass(run_stubs, capsys):
    records = run_stubs({"first": stub(0), "second": stub(False, 0, 0)})
    assert [(r["name"], r["actual"], r["status"]) for r in records] == [
        ("first", 0, "pass"), ("second", 0, "pass"),
    ]
    assert capsys.readouterr().err == ""


def test_all_runs_every_suite_in_order(monkeypatch):
    calls = []

    def check(name):
        def run(max_n, max_weight, seed):
            calls.append(name)
            return {}, iter([0])
        return run

    suites = {"a": {"x": check("x"), "y": check("y")}, "b": {"z": check("z")}}
    monkeypatch.setattr(checks, "SUITES", suites)
    records = checks.run("all", 1, 1, 0)
    assert calls == [r["name"] for r in records] == ["x", "y", "z"]


@pytest.mark.parametrize("fault", ["dropped entry", "zero constant"])
def test_partial_support_catches_a_faulty_table(monkeypatch, fault):
    table = grmod._raising_table

    def faulty(n, beta):
        entries = list(table(n, beta))
        if n == 4 and beta == simple_root(2):
            pos, target, _ = entries.pop()
            if fault == "zero constant":
                entries.append((pos, target, 0))
        return tuple(entries)

    assert checks.run("partial", 4, 1, 0)[0]["status"] == "pass"
    monkeypatch.setattr(grmod, "_raising_table", faulty)
    (record,) = checks.run("partial", 4, 1, 0)
    assert (record["status"], record["actual"]) == ("fail", 1)


@pytest.mark.parametrize("fault", ["dropped weight", "doubled multiplicity"])
def test_character_catches_a_faulty_freudenthal_table(monkeypatch, fault):
    table = polytope.freudenthal_multiplicities

    def faulty(lam):
        mult = table(lam)
        if fault == "dropped weight":
            # the last entry is the lowest weight -lambda, never dominant here
            mult.popitem()
        else:
            mult[(0,) * len(lam)] *= 2
        return mult

    assert checks.run("character", 3, 2, 0)[0]["status"] == "pass"
    monkeypatch.setattr(polytope, "freudenthal_multiplicities", faulty)
    (record,) = checks.run("character", 3, 2, 0)
    # every one of the 16 weights with n <= 3 and 1 <= sum <= 2 is caught
    assert (record["status"], record["actual"]) == ("fail", 16)


def _faulty_compare(fault):
    """The lazy straightening comparison with one stage broken."""
    def compare(s, t):
        a, b = sum(s), sum(t)
        if a != b and fault != "ignores degree":
            return "less" if a > b else "greater"
        for rows in row_slices(math.isqrt(len(s))):
            a, b = sum(s[rows]), sum(t[rows])
            if a != b:
                if fault == "flips row sums":  # "less" for a larger first sum too
                    return "less"
                return "less" if (a < b) != (fault == "reverses row sums") else "greater"
        for a, b in zip(reversed(s), reversed(t)):
            if a != b:
                return "less" if a > b else "greater"
        return "equal"

    return compare


@pytest.mark.parametrize("fault", ["ignores degree", "flips row sums", "reverses row sums"])
@pytest.mark.parametrize("seed", [0, 1, 7])
def test_order_laws_catch_a_faulty_comparison(monkeypatch, fault, seed):
    # Reversing the row-sum stage both ways gives another monomial order,
    # which no law can tell apart; the hand pairs of ORDER_PAIRS catch it.
    assert checks.run("order", 4, 2, seed)[0]["actual"] == 0
    monkeypatch.setattr(grmod, "monomial_compare", _faulty_compare(fault))
    (record,) = checks.run("order", 4, 2, seed)
    assert record["status"] == "fail" and record["actual"] > 0
