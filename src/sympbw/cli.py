"""Command-line front-end: structured reports over every library module.

Subcommands emit JSON (canonical: sorted keys, deterministic array orders),
CSV (tables flattened row-wise), or plain text on standard output; all
diagnostics go to standard error.  Exit codes: 0 success, 1 verification
failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from . import checks, dyck, grmod, oracle, polytope
from .checks import SUITES
from .rootsys import (
    is_simple_root,
    positive_roots,
    root_to_json,
    validate_weight,
    variable_key,
)

SCHEMA = "sympbw/1"


# ---------------------------------------------------------------------------
# parsing and rendering
# ---------------------------------------------------------------------------

def _parse_weight(parser: argparse.ArgumentParser, text: str, n: int) -> tuple:
    try:
        parts = tuple(int(x) for x in text.split(","))
    except ValueError:
        parser.error(f"--lambda/--mu must be comma-separated integers, got {text!r}")
    if len(parts) != n:
        parser.error(f"weight {text!r} needs exactly {n} entries for rank {n}")
    if any(x < 0 for x in parts):
        parser.error(f"weight entries must be non-negative, got {text!r}")
    return parts


def _parse_exponent(parser: argparse.ArgumentParser, text: str, n: int) -> tuple:
    try:
        parts = tuple(int(x) for x in text.split(","))
    except ValueError:
        parser.error(f"--exponent must be comma-separated integers, got {text!r}")
    if len(parts) != n * n:
        parser.error(
            f"--exponent needs {n * n} entries (triangle reading order) for rank {n}"
        )
    if any(x < 0 for x in parts):
        parser.error(f"exponent entries must be non-negative, got {text!r}")
    return parts


def _int_at_least(low: int):
    """An argparse type for integers no smaller than low."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in its error messages
    return parse


def render_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2)


def render_csv(columns: list, rows: list) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow(row)
    return buf.getvalue().rstrip("\n")


def _emit(args, payload: dict, columns: list, rows: list, text_lines: list) -> None:
    if args.format == "json":
        print(render_json(payload))
    elif args.format == "csv":
        print(render_csv(columns, rows))
    else:
        print("\n".join(text_lines))


def _term_list(poly) -> list:
    """Terms of a polynomial as JSON records, earliest in the order first."""
    n = poly.n
    terms = sorted(poly.terms, key=lambda s: grmod.order_key(s, n))
    return [{"s": list(s), "coeff": str(poly.terms[s])} for s in terms]


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def cmd_roots(args, parser) -> int:
    n = args.n
    roots = positive_roots(n)
    records = []
    for index, alpha in enumerate(roots):
        rec = root_to_json(alpha)
        rec["index"] = index
        rec["position"] = variable_key(alpha, n)[1]
        rec["simple"] = is_simple_root(alpha)
        records.append(rec)
    payload = {"schema": SCHEMA, "n": n, "count": len(records), "roots": records}
    columns = ["index", "row", "col", "barred", "position", "simple"]
    rows = [[r[c] for c in columns] for r in records]
    text = [f"{r['index']:3d}  {alpha}" for r, alpha in zip(records, roots)]
    _emit(args, payload, columns, rows, text)
    return 0


def cmd_paths(args, parser) -> int:
    n = args.n
    paths = dyck.enumerate_paths(n)
    if args.count_only:
        payload = {"schema": SCHEMA, "n": n, "count": len(paths)}
        _emit(args, payload, ["count"], [[len(paths)]], [f"count={len(paths)}"])
        return 0
    records = [[root_to_json(alpha) for alpha in path] for path in paths]
    payload = {"schema": SCHEMA, "n": n, "count": len(paths), "paths": records}
    columns = ["path", "step", "row", "col", "barred"]
    rows = [
        [p, t, rec["row"], rec["col"], rec["barred"]]
        for p, path in enumerate(records)
        for t, rec in enumerate(path)
    ]
    text = [" -> ".join(map(str, path)) for path in paths]
    _emit(args, payload, columns, rows, text)
    return 0


def cmd_points(args, parser) -> int:
    n, lam = args.n, args.lam
    points = polytope.enumerate_points(lam)
    if args.count_only:
        payload = {
            "schema": SCHEMA, "n": n, "lambda": list(lam), "count": len(points),
        }
        _emit(args, payload, ["count"], [[len(points)]], [f"count={len(points)}"])
        return 0
    records = [
        {
            "s": list(s),
            "deg": polytope.degree_of(s),
            "wt": list(polytope.weight_of(s, n)),
        }
        for s in points
    ]
    payload = {
        "schema": SCHEMA, "n": n, "lambda": list(lam),
        "count": len(points), "points": records,
    }
    columns = [f"s{i + 1}" for i in range(n * n)] + ["deg"] + [
        f"wt{i + 1}" for i in range(n)
    ]
    rows = [r["s"] + [r["deg"]] + r["wt"] for r in records]
    text = [
        f"s={tuple(r['s'])} deg={r['deg']} wt={tuple(r['wt'])}" for r in records
    ]
    _emit(args, payload, columns, rows, text)
    return 0


def cmd_dim(args, parser) -> int:
    lam = args.lam
    count = len(polytope.enumerate_points(lam))
    weyl = polytope.weyl_dim(lam)
    payload = {
        "schema": SCHEMA, "n": args.n, "lambda": list(lam),
        "count": count, "weyl": weyl, "match": count == weyl,
    }
    columns = ["count", "weyl", "match"]
    rows = [[count, weyl, str(count == weyl).lower()]]
    text = [f"count={count}", f"weyl={weyl}", f"match={str(count == weyl).lower()}"]
    _emit(args, payload, columns, rows, text)
    return 0


def _table_output(args, table: dict, extra: dict | None = None) -> None:
    n, lam = args.n, args.lam
    cells = sorted(table.items())
    records = [
        {"wt": list(wt), "deg": deg, "dim": count} for (wt, deg), count in cells
    ]
    payload = {
        "schema": SCHEMA, "n": n, "lambda": list(lam),
        "total": sum(table.values()), "table": records,
    }
    if extra:
        payload.update(extra)
    columns = [f"mu{i + 1}" for i in range(n)] + ["degree", "dim"]
    rows = [r["wt"] + [r["deg"], r["dim"]] for r in records]
    text = [
        f"wt={tuple(r['wt'])} deg={r['deg']} dim={r['dim']}" for r in records
    ] + [f"total={payload['total']}"]
    _emit(args, payload, columns, rows, text)


def cmd_char(args, parser) -> int:
    n, lam = args.n, args.lam
    char = polytope.character(lam)
    records = [
        {"wt": list(wt), "mult": mult} for wt, mult in sorted(char.items())
    ]
    payload = {
        "schema": SCHEMA, "n": n, "lambda": list(lam),
        "total": sum(char.values()), "character": records,
    }
    columns = [f"mu{i + 1}" for i in range(n)] + ["mult"]
    rows = [r["wt"] + [r["mult"]] for r in records]
    text = [f"wt={tuple(r['wt'])} mult={r['mult']}" for r in records]
    _emit(args, payload, columns, rows, text)
    return 0


def cmd_graded_char(args, parser) -> int:
    _table_output(args, polytope.graded_character(args.lam))
    return 0


def cmd_ideal_dims(args, parser) -> int:
    table = grmod.quotient_graded_dims(
        args.lam, max_degree=args.max_degree, cap=args.cap
    )
    _table_output(args, table)
    return 0


def cmd_straighten(args, parser) -> int:
    n, lam = args.n, args.lam
    s = _parse_exponent(parser, args.exponent, n)
    contained = polytope.contains(lam, s)
    payload = {
        "schema": SCHEMA, "n": n, "lambda": list(lam), "exponent": list(s),
        "contained": contained,
    }
    monomial = grmod.SparsePolynomial.monomial(n, s)
    if contained:
        payload["path"] = None
        payload["element"] = None
        payload["normal_form"] = _term_list(monomial)
    else:
        ineq, s1, _ = grmod.split_at_violation(lam, s)
        element, _ = grmod.straightening_element(lam, ineq.path, s1)
        payload["path"] = [root_to_json(alpha) for alpha in ineq.path]
        payload["element"] = _term_list(element)
        payload["normal_form"] = _term_list(grmod.normal_form(monomial, lam))
    columns = ["part", "coeff"] + [f"s{i + 1}" for i in range(n * n)]
    rows, text = [], [f"contained={str(contained).lower()}"]
    for part in ("element", "normal_form"):
        terms = payload[part]
        for term in terms or []:
            rows.append([part, term["coeff"]] + term["s"])
        if terms is None:
            shown = "n/a"
        else:
            shown = " + ".join(
                f"({t['coeff']})*f^{tuple(t['s'])}" for t in terms
            ) or "0"
        text.append(f"{part}: {shown}")
    _emit(args, payload, columns, rows, text)
    return 0


def cmd_oracle(args, parser) -> int:
    lam = args.lam
    space = oracle.build_module(lam, cap=args.cap)
    weyl = polytope.weyl_dim(lam)
    extra = {
        "dimension": space.dimension, "weyl": weyl,
        "match": space.dimension == weyl,
    }
    if args.filtration:
        table = oracle.pbw_filtration_dims(lam, space=space)
        _table_output(args, table, extra)
        return 0
    payload = {"schema": SCHEMA, "n": args.n, "lambda": list(lam)}
    payload.update(extra)
    columns = ["dimension", "weyl", "match"]
    rows = [[space.dimension, weyl, str(extra["match"]).lower()]]
    text = [f"{k}={str(extra[k]).lower()}" for k in columns]
    _emit(args, payload, columns, rows, text)
    return 0


def cmd_tensor(args, parser) -> int:
    table = oracle.tensor_cartan_dims(args.lam, args.mu, cap=args.cap)
    _table_output(args, table, {"mu": list(args.mu)})
    return 0


def cmd_verify(args, parser) -> int:
    if args.suite != "all" and args.suite not in SUITES:
        parser.error(
            f"unknown suite {args.suite!r}; choose from all, {', '.join(SUITES)}"
        )
    records = checks.run(args.suite, args.max_n, args.max_weight, args.seed)
    passed = sum(c["status"] == "pass" for c in records)
    payload = {
        "schema": SCHEMA, "suite": args.suite,
        "max_n": args.max_n, "max_weight": args.max_weight, "seed": args.seed,
        "passed": passed, "failed": len(records) - passed,
        "checks": records,
    }
    columns = ["name", "status", "expected", "actual", "parameters"]
    rows = [
        [c["name"], c["status"], c["expected"], c["actual"],
         json.dumps(c["parameters"], sort_keys=True)]
        for c in records
    ]
    text = [
        f"{c['status'].upper():4s} {c['name']}: expected {c['expected']}, "
        f"actual {c['actual']} {json.dumps(c['parameters'], sort_keys=True)}"
        for c in records
    ] + [f"{passed}/{len(records)} checks passed"]
    _emit(args, payload, columns, rows, text)
    return 0 if passed == len(records) else 1


# ---------------------------------------------------------------------------
# parser assembly
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sympbw",
        description=(
            "Exact computations for PBW-degenerate symplectic modules: "
            "polytope points, graded characters, straightening, and "
            "independent tensor-space cross-checks.  Weights are passed as "
            "--lambda m1,...,mn; multi-exponents in triangle reading order."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, rank=True, weight=True):
        p = sub.add_parser(name, help=help_text)
        p.add_argument(
            "--format", choices=("json", "csv", "text"), default="json",
            help="output format (default json)",
        )
        if rank:
            p.add_argument("--n", type=int, required=True, help="rank")
        if weight:
            p.add_argument("--lambda", dest="lam", required=True,
                           help="dominant weight m1,...,mn")
        return p

    p = add("roots", "positive roots in triangle reading order", weight=False)
    p.set_defaults(handler=cmd_roots)

    p = add("paths", "all symplectic Dyck paths", weight=False)
    p.add_argument("--count-only", action="store_true", help="emit only the count")
    p.set_defaults(handler=cmd_paths)

    p = add("points", "integral points of the path polytope")
    p.add_argument("--count-only", action="store_true", help="emit only the count")
    p.set_defaults(handler=cmd_points)

    p = add("dim", "point count against the Weyl dimension formula")
    p.set_defaults(handler=cmd_dim)

    p = add("char", "weight multiplicities of the point set")
    p.set_defaults(handler=cmd_char)

    p = add("graded-char", "points per (weight, degree) cell")
    p.set_defaults(handler=cmd_graded_char)

    p = add("ideal-dims", "graded dimensions of the polynomial ring modulo the ideal")
    p.add_argument("--max-degree", type=_int_at_least(0), default=None,
                   help="truncate the table at this total degree")
    p.add_argument("--cap", type=_int_at_least(1), default=200000,
                   help="abort if a cell needs more monomials than this")
    p.set_defaults(handler=cmd_ideal_dims)

    p = add("straighten", "straightening element and normal form of a monomial")
    p.add_argument("--exponent", required=True,
                   help="multi-exponent c1,...,c_{n*n} in triangle reading order")
    p.set_defaults(handler=cmd_straighten)

    p = add("oracle", "module dimension in the tensor-space realization")
    p.add_argument("--filtration", action="store_true",
                   help="also emit the graded filtration table")
    p.add_argument("--cap", type=_int_at_least(1), default=20000,
                   help="largest allowed ambient dimension")
    p.set_defaults(handler=cmd_oracle)

    p = add("tensor", "graded dimensions of a tensor-product Cartan component")
    p.add_argument("--mu", required=True, help="second dominant weight m1,...,mn")
    p.add_argument("--cap", type=_int_at_least(1), default=20000,
                   help="largest allowed ambient dimension")
    p.set_defaults(handler=cmd_tensor)

    p = add("verify", "cross-module verification battery", rank=False, weight=False)
    p.add_argument("--suite", default="all",
                   help="all or one of: " + ", ".join(SUITES))
    p.add_argument("--max-n", type=_int_at_least(1), default=2,
                   help="largest rank to test")
    p.add_argument("--max-weight", type=_int_at_least(1), default=3,
                   help="largest total weight to test")
    p.add_argument("--seed", type=int, default=20260821,
                   help="seed for randomized property sampling")
    p.set_defaults(handler=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    n = getattr(args, "n", None)
    if n is not None:
        try:
            validate_weight((0,) * n)
        except ValueError as err:
            parser.error(str(err))
        for name in ("lam", "mu"):
            if name in args:
                setattr(args, name, _parse_weight(parser, getattr(args, name), n))
    try:
        return args.handler(args, parser)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
