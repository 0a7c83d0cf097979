"""Tests for the command-line front-end: payload schemas, formats, exit codes."""

from __future__ import annotations

import json
import os
import pathlib
import resource
import subprocess
import sys

import pytest

from sympbw import cli, grmod, polytope
from sympbw.polytope import weyl_dim


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, argv):
    code, out = run(capsys, argv)
    return code, json.loads(out)


def test_dim_payload_examples(capsys):
    code, payload = run_json(capsys, ["dim", "--n", "2", "--lambda", "1,1"])
    assert code == 0
    assert payload["schema"] == "sympbw/1"
    assert payload["count"] == 16
    assert payload["weyl"] == 16
    assert payload["match"] is True

    code, payload = run_json(capsys, ["dim", "--n", "2", "--lambda", "0,0"])
    assert code == 0
    assert (payload["count"], payload["weyl"], payload["match"]) == (1, 1, True)


def test_dim_counts_past_what_a_list_could_hold(capsys):
    for lam, count in (("2,2,2,2", 43046721), ("1,1,1,1,1", 33554432)):
        n = str(lam.count(",") + 1)
        code, payload = run_json(capsys, ["dim", "--n", n, "--lambda", lam])
        assert code == 0
        assert (payload["count"], payload["weyl"], payload["match"]) == (
            count, count, True,
        )


def test_points_past_the_listing_limit_exit_2(capsys):
    argv = ["points", "--n", "4", "--lambda", "2,2,2,2"]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: S(lambda) for lambda=(2, 2, 2, 2) has 43046721 points, "
        f"above the limit {polytope.POINT_LIMIT} for listing them\n"
    )
    code, payload = run_json(capsys, argv + ["--count-only"])
    assert (code, payload["count"]) == (0, 43046721)


def test_roots_reading_order(capsys):
    code, payload = run_json(capsys, ["roots", "--n", "2"])
    assert code == 0
    assert payload["count"] == 4
    triples = [(r["row"], r["col"], r["barred"]) for r in payload["roots"]]
    assert triples == [(1, 1, False), (1, 2, False), (1, 1, True), (2, 2, False)]
    assert [r["index"] for r in payload["roots"]] == [0, 1, 2, 3]


def test_paths_count_only(capsys):
    code, payload = run_json(capsys, ["paths", "--n", "3", "--count-only"])
    assert code == 0
    assert payload["count"] == 12


def test_paths_records_are_root_lists(capsys):
    code, payload = run_json(capsys, ["paths", "--n", "2"])
    assert code == 0
    assert payload["count"] == 4
    first = payload["paths"][0]
    assert first == [{"row": 1, "col": 1, "barred": False}]


def test_points_degrees(capsys):
    code, payload = run_json(capsys, ["points", "--n", "2", "--lambda", "1,0"])
    assert code == 0
    assert payload["count"] == 4
    assert sorted(r["deg"] for r in payload["points"]) == [0, 1, 1, 1]
    for r in payload["points"]:
        assert set(r) == {"s", "deg", "wt"}


def test_points_csv_layout(capsys):
    code, out = run(capsys, [
        "points", "--n", "2", "--lambda", "1,0", "--format", "csv",
    ])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "s1,s2,s3,s4,deg,wt1,wt2"
    assert len(lines) == 5
    assert lines[1] == "0,0,0,0,0,0,0"


def test_char_total(capsys):
    code, payload = run_json(capsys, ["char", "--n", "2", "--lambda", "1,1"])
    assert code == 0
    assert payload["total"] == weyl_dim((1, 1))
    assert sum(r["mult"] for r in payload["character"]) == payload["total"]


def test_graded_char_and_ideal_dims_agree(capsys):
    _, graded = run_json(capsys, ["graded-char", "--n", "2", "--lambda", "0,1"])
    _, ideal = run_json(capsys, ["ideal-dims", "--n", "2", "--lambda", "0,1"])
    assert graded["table"] == ideal["table"]
    assert graded["total"] == ideal["total"] == 5


def test_straighten_outside_polytope(capsys):
    code, payload = run_json(capsys, [
        "straighten", "--n", "2", "--lambda", "1,0", "--exponent", "1,1,0,0",
    ])
    assert code == 0
    assert payload["contained"] is False
    assert payload["path"] is not None
    assert payload["element"] == [{"s": [1, 1, 0, 0], "coeff": "-16"}]
    assert payload["normal_form"] == []


def test_straighten_inside_polytope(capsys):
    code, payload = run_json(capsys, [
        "straighten", "--n", "2", "--lambda", "1,0", "--exponent", "0,1,0,0",
    ])
    assert code == 0
    assert payload["contained"] is True
    assert payload["path"] is None
    assert payload["element"] is None
    assert payload["normal_form"] == [{"s": [0, 1, 0, 0], "coeff": "1"}]


def test_straighten_text_format(capsys):
    code, out = run(capsys, [
        "straighten", "--n", "2", "--lambda", "1,0", "--exponent", "1,1,0,0",
        "--format", "text",
    ])
    assert code == 0
    assert "contained=false" in out
    assert "normal_form: 0" in out


def test_straighten_computes_the_element_once(capsys):
    # the first normal-form step reuses the element the payload shows; the
    # cache starts cold, so an element built by an earlier test is not reused
    grmod._element.cache_clear()
    code, payload = run_json(capsys, [
        "straighten", "--n", "2", "--lambda", "1,0", "--exponent", "2,0,0,0",
    ])
    assert code == 0
    assert payload["contained"] is False
    assert grmod._element.cache_info().misses == 1


def test_oracle_summary_and_filtration(capsys):
    code, payload = run_json(capsys, ["oracle", "--n", "2", "--lambda", "0,1"])
    assert code == 0
    assert payload["dimension"] == 5
    assert payload["match"] is True

    code, payload = run_json(capsys, [
        "oracle", "--n", "2", "--lambda", "0,1", "--filtration",
    ])
    assert code == 0
    assert payload["total"] == 5
    assert sum(r["dim"] for r in payload["table"]) == 5


def test_tensor_total(capsys):
    code, payload = run_json(capsys, [
        "tensor", "--n", "2", "--lambda", "1,0", "--mu", "1,0",
    ])
    assert code == 0
    assert payload["total"] == weyl_dim((2, 0))
    assert payload["mu"] == [1, 0]


def test_verify_passes(capsys):
    code, payload = run_json(capsys, [
        "verify", "--suite", "dimension", "--max-n", "2", "--max-weight", "2",
    ])
    assert code == 0
    assert payload["failed"] == 0
    assert payload["passed"] >= 1
    assert all(c["status"] == "pass" for c in payload["checks"])


def test_verify_forced_failure_flips_exit(capsys, monkeypatch):
    # a wrong reference value for one weight must surface as a failed check
    monkeypatch.setattr(
        polytope, "weyl_dim", lambda lam: weyl_dim(lam) + (lam == (1, 1))
    )
    code, payload = run_json(capsys, [
        "verify", "--suite", "dimension", "--max-n", "2", "--max-weight", "2",
    ])
    assert code == 1
    assert payload["failed"] == 1
    failed = [c for c in payload["checks"] if c["status"] == "fail"]
    assert len(failed) == 1
    assert failed[0]["expected"] != failed[0]["actual"]


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["dim", "--n", "2", "--lambda", "1,1,1"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["no-such-command"])
    assert exc.value.code == 2
    for argv in (
        ["verify", "--max-n", "0"],
        ["verify", "--max-weight", "0"],
        ["verify", "--max-weight", "-1"],
        ["ideal-dims", "--n", "2", "--lambda", "1,1", "--max-degree", "-1"],
        ["ideal-dims", "--n", "2", "--lambda", "1,1", "--cap", "0"],
        ["oracle", "--n", "2", "--lambda", "1,1", "--cap", "0"],
        ["tensor", "--n", "2", "--lambda", "1,0", "--mu", "1,0", "--cap", "0"],
    ):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2, argv
    capsys.readouterr()


def test_verify_check_without_cases_fails(capsys):
    # at rank 1 there is no tensor pair and no rank-2 weight to examine
    for suite, name in (("tensor", "tensor-cartan"), ("basis", "ordered-basis")):
        code, payload = run_json(capsys, [
            "verify", "--suite", suite, "--max-n", "1", "--max-weight", "1",
        ])
        assert code == 1
        (check,) = payload["checks"]
        assert check["name"] == name
        assert check["status"] == "fail"
        assert check["expected"] == check["actual"] == 0
        assert "cases" not in check
    code, payload = run_json(capsys, [
        "verify", "--suite", "tensor", "--max-n", "2", "--max-weight", "1",
    ])
    assert code == 0
    assert payload["checks"][0]["status"] == "pass"


def test_bad_weight_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["dim", "--n", "0", "--lambda", ""])
    assert exc.value.code == 2
    capsys.readouterr()


def test_bad_exponent_and_mu_exit_two(capsys):
    straighten = ["straighten", "--n", "2", "--lambda", "1,0", "--exponent"]
    for argv, message in (
        (straighten + ["1,0,0"], "--exponent needs exactly 4 entries"),
        (straighten + ["1,0,-1,0"], "--exponent entries must be non-negative"),
        (straighten + ["1,0,x,0"], "--exponent must be comma-separated integers"),
        (["tensor", "--n", "2", "--lambda", "1,0", "--mu", "1,0,0"],
         "--mu needs exactly 2 entries"),
    ):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err, argv


def _cap_address_space():
    limit = 1 << 30
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def test_huge_rank_is_a_usage_error_before_any_allocation():
    # a rank of 10^9 must be refused by the length of --lambda, not by
    # building anything of that size; the address-space cap makes a
    # regression fail fast with a MemoryError instead of exhausting the host
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "sympbw.cli", "dim", "--n", "1000000000", "--lambda", "1"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(src)), preexec_fn=_cap_address_space,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert "--lambda needs exactly 1000000000 entries" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_huge_listings_are_refused_before_any_allocation():
    # roots and paths name the size of a listing above their limit and exit 2,
    # and so does dim at a rank whose path table is too long to list; the
    # address-space cap makes a regression fail fast, as above
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    for argv, message in (
        (["roots", "--n", "3000", "--format", "csv"],
         f"rank 3000 has 9000000 positive roots, above the limit {cli.ROOT_LIMIT}"),
        (["paths", "--n", "3000", "--count-only"], "rank 3000 has 9000000 positive roots"),
        (["paths", "--n", "16"],
         f"rank 16 has 214443152 Dyck paths, above the limit {cli.PATH_LIMIT}"),
        (["dim", "--n", "30", "--lambda", ",".join(["1"] * 30)],
         "rank 30 has 40815327564313110 Dyck paths, above the limit "
         f"{polytope.PATH_TABLE_LIMIT}"),
    ):
        proc = subprocess.run(
            [sys.executable, "-m", "sympbw.cli", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=60,
            env=dict(os.environ, PYTHONPATH=str(src)), preexec_fn=_cap_address_space,
        )
        assert proc.returncode == 2, (argv, proc.stderr)
        assert proc.stdout == ""
        assert proc.stderr.startswith(f"error: {message}"), (argv, proc.stderr)
        assert "Traceback" not in proc.stderr


def test_paths_count_only_lists_no_path(capsys, monkeypatch):
    def refuse(n):
        raise RuntimeError("listed the paths")

    monkeypatch.setattr(cli.dyck, "enumerate_paths", refuse)
    code, payload = run_json(capsys, ["paths", "--n", "16", "--count-only"])
    assert code == 0
    assert payload["count"] == 214443152
    code, out = run(capsys, ["paths", "--n", "2", "--count-only", "--format", "text"])
    assert (code, out) == (0, "count=4\n")


def test_library_error_exits_two(capsys):
    for argv, message in (
        (["oracle", "--n", "2", "--lambda", "1,1", "--cap", "2"], "exceeds cap"),
        (["ideal-dims", "--n", "2", "--lambda", "1,1", "--cap", "1"],
         "above the cap 1"),
    ):
        code = cli.main(argv)
        captured = capsys.readouterr()
        assert code == 2, argv
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert message in captured.err


def test_repeated_runs_are_byte_identical(capsys):
    # one parser serves every call, so a usage error between two runs must
    # leave nothing behind that changes the second
    assert cli.build_parser() is cli.build_parser()
    argv = ["graded-char", "--n", "2", "--lambda", "1,1"]
    first = run(capsys, argv)
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["graded-char", "--n", "2", "--lambda", "1,x", "--format", "text"])
    assert exit_info.value.code == 2
    assert capsys.readouterr().out == ""
    second = run(capsys, argv)
    assert first == second
    argv = [
        "verify", "--suite", "order", "--max-n", "2", "--max-weight", "2",
        "--seed", "7",
    ]
    assert run(capsys, argv) == run(capsys, argv)


def test_render_helpers_on_empty_table():
    assert cli.render_csv(["mu1", "mu2", "degree", "dim"], []) == \
        "mu1,mu2,degree,dim"
    rendered = cli.render_json({"schema": cli.SCHEMA, "table": []})
    assert json.loads(rendered)["table"] == []
    assert '"table": []' in rendered


def test_closed_stdout_exits_without_a_traceback():
    # the read end is closed before the process starts, so its first write
    # to stdout fails with EPIPE, as it does once `| head` has read enough
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from sympbw.cli import main; "
             "sys.exit(main())", "char", "--n", "2", "--lambda", "1,1",
             "--format", "text"],
            stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=60,
            env=dict(os.environ, PYTHONPATH=str(src)),
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert "BrokenPipeError" not in proc.stderr
