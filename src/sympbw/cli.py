"""Command-line front-end: structured reports over every library module.

Every subcommand builds one report: a JSON payload, plus either fields (the
names of scalar payload entries) or records (one dict per table row, keys in
column order).  JSON is the payload, canonical: sorted keys, deterministic
array orders.  CSV and text are derived from the report.  Fields give one CSV
row and one ``name=value`` text line each, bools lowercased.  Records give
one CSV row each, list values spread over columns and dict values written as
canonical JSON; their text lines keep each subcommand's own format.

All diagnostics go to standard error.  Usage errors, the rank and the
lengths of --lambda, --mu and --exponent included, exit 2 before anything is
allocated or computed, and so do roots and paths listings above ROOT_LIMIT
or PATH_LIMIT and every subcommand that needs the path table of a rank with
more than polytope.PATH_TABLE_LIMIT paths.  One parser (build_parser) serves
every main call of a process.  Exit codes: 0 success, 1 verification failure
or a reader that closed standard output early, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from functools import lru_cache

from . import checks, dyck, grmod, oracle, polytope
from .checks import SUITES
from .rootsys import (
    is_simple_root,
    positive_roots,
    root_to_json,
    validate_rank,
    variable_key,
)

SCHEMA = "sympbw/1"

# Largest listings that roots and paths print.  A report holds all its records
# at once, about 2 kB per root and 20 kB per path of rank 9 in JSON, so these
# keep one to a few hundred MB: roots up to rank 316, paths up to rank 9.
# paths --count-only walks the n^2 roots without listing a path, so it is
# bounded by ROOT_LIMIT alone.
ROOT_LIMIT = 100_000
PATH_LIMIT = 20_000


# ---------------------------------------------------------------------------
# parsing and rendering
# ---------------------------------------------------------------------------

def _parse_ints(parser: argparse.ArgumentParser, flag: str, text: str, length: int) -> tuple:
    """The value of flag: exactly length comma-separated non-negative ints."""
    try:
        parts = tuple(int(x) for x in text.split(","))
    except ValueError:
        parser.error(f"{flag} must be comma-separated integers, got {text!r}")
    if len(parts) != length:
        parser.error(f"{flag} needs exactly {length} entries, got {text!r}")
    if any(x < 0 for x in parts):
        parser.error(f"{flag} entries must be non-negative, got {text!r}")
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


def render_csv(columns: list, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow(row)
    return buf.getvalue().rstrip("\n")


def _scalar(value) -> str:
    return str(value).lower() if isinstance(value, bool) else str(value)


def _field_lines(payload: dict, names) -> list:
    """One ``name=value`` text line per named payload field."""
    return [f"{name}={_scalar(payload[name])}" for name in names]


def _csv_row(record: dict) -> list:
    """A record's values in order, lists spread out and dicts as canonical JSON."""
    row = []
    for value in record.values():
        if isinstance(value, list):
            row.extend(value)
        elif isinstance(value, dict):
            row.append(json.dumps(value, sort_keys=True))
        else:
            row.append(value)
    return row


def _report(args, payload: dict, columns: list, records=None, text=None) -> int:
    """Print a report in args.format and return the exit status 0.

    Without records, columns name scalar fields of the payload; with them,
    columns head the CSV rows of the records and text holds the text lines.
    Records and text may be generators: only the chosen format reads its own.
    """
    if records is None:
        records = [{name: _scalar(payload[name]) for name in columns}]
        text = _field_lines(payload, columns)
    if args.format == "json":
        print(render_json(payload))
    elif args.format == "csv":
        print(render_csv(columns, map(_csv_row, records)))
    else:
        print("\n".join(text))
    return 0


def _payload(args, **fields) -> dict:
    """A report's JSON: the schema, the rank and weight it was given, then fields."""
    payload = {"schema": SCHEMA, "n": args.n}
    if "lam" in args:
        payload["lambda"] = list(args.lam)
    payload.update(fields)
    return payload


def _numbered(prefix: str, count: int) -> list:
    return [f"{prefix}{i + 1}" for i in range(count)]


def _term_list(poly) -> list:
    """Terms of a polynomial as records, keys in CSV column order, earliest first."""
    n = poly.n
    terms = sorted(poly.terms, key=lambda s: grmod.order_key(s, n))
    return [{"coeff": str(poly.terms[s]), "s": list(s)} for s in terms]


def _term_text(terms) -> str:
    if terms is None:
        return "n/a"
    return " + ".join(f"({t['coeff']})*f^{tuple(t['s'])}" for t in terms) or "0"


def _check_size(what: str, size: int, limit: int, n: int) -> None:
    """Refuse, before anything is allocated, a listing above its limit."""
    if size > limit:
        raise ValueError(f"rank {n} has {size} {what}, above the limit {limit}")


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def cmd_roots(args) -> int:
    n = args.n
    _check_size("positive roots", n * n, ROOT_LIMIT, n)
    roots = positive_roots(n)
    records = [
        {"index": index, **root_to_json(alpha), "position": variable_key(alpha, n)[1],
         "simple": is_simple_root(alpha)}
        for index, alpha in enumerate(roots)
    ]
    text = [f"{index:3d}  {alpha}" for index, alpha in enumerate(roots)]
    columns = ["index", "row", "col", "barred", "position", "simple"]
    return _report(args, _payload(args, count=len(roots), roots=records), columns, records, text)


def cmd_paths(args) -> int:
    n = args.n
    _check_size("positive roots", n * n, ROOT_LIMIT, n)
    count = dyck.count_paths(n)
    if args.count_only:
        return _report(args, _payload(args, count=count), ["count"])
    _check_size("Dyck paths", count, PATH_LIMIT, n)
    paths = dyck.enumerate_paths(n)
    records = [[root_to_json(alpha) for alpha in path] for path in paths]
    # generators: each format builds only the rows it prints
    steps = (
        {"path": p, "step": t, **rec}
        for p, path in enumerate(records)
        for t, rec in enumerate(path)
    )
    text = (" -> ".join(map(str, path)) for path in paths)
    payload = _payload(args, count=len(paths), paths=records)
    return _report(args, payload, ["path", "step", "row", "col", "barred"], steps, text)


def cmd_points(args) -> int:
    n, lam = args.n, args.lam
    if args.count_only:
        return _report(args, _payload(args, count=polytope.point_count(lam)), ["count"])
    records = [
        {"s": list(s), "deg": polytope.degree_of(s), "wt": list(polytope.weight_of(s, n))}
        for s in polytope.enumerate_points(lam)
    ]
    columns = _numbered("s", n * n) + ["deg"] + _numbered("wt", n)
    text = [f"s={tuple(r['s'])} deg={r['deg']} wt={tuple(r['wt'])}" for r in records]
    payload = _payload(args, count=len(records), points=records)
    return _report(args, payload, columns, records, text)


def cmd_dim(args) -> int:
    count, weyl = polytope.point_count(args.lam), polytope.weyl_dim(args.lam)
    payload = _payload(args, count=count, weyl=weyl, match=count == weyl)
    return _report(args, payload, ["count", "weyl", "match"])


def _table_output(args, table: dict, **extra) -> int:
    records = [
        {"wt": list(wt), "deg": deg, "dim": count} for (wt, deg), count in sorted(table.items())
    ]
    payload = _payload(args, total=sum(table.values()), table=records, **extra)
    text = [f"wt={tuple(r['wt'])} deg={r['deg']} dim={r['dim']}" for r in records]
    columns = _numbered("mu", args.n) + ["degree", "dim"]
    return _report(args, payload, columns, records, text + _field_lines(payload, ["total"]))


def cmd_char(args) -> int:
    char = polytope.character(args.lam)
    records = [{"wt": list(wt), "mult": mult} for wt, mult in sorted(char.items())]
    payload = _payload(args, total=sum(char.values()), character=records)
    text = [f"wt={tuple(r['wt'])} mult={r['mult']}" for r in records]
    return _report(args, payload, _numbered("mu", args.n) + ["mult"], records, text)


def cmd_straighten(args) -> int:
    n, lam, s = args.n, args.lam, args.exponent
    contained = polytope.contains(lam, s)
    payload = _payload(args, exponent=list(s), contained=contained, path=None, element=None)
    monomial = grmod.SparsePolynomial.monomial(n, s)
    if contained:
        payload["normal_form"] = _term_list(monomial)
    else:
        path, element, first_step = grmod.straighten_step(monomial, s, lam)
        payload["path"] = [root_to_json(alpha) for alpha in path]
        payload["element"] = _term_list(element)
        payload["normal_form"] = _term_list(grmod.normal_form(first_step, lam))
    parts = ("element", "normal_form")
    records = [{"part": part, **term} for part in parts for term in payload[part] or ()]
    text = _field_lines(payload, ["contained"]) + [
        f"{part}: {_term_text(payload[part])}" for part in parts
    ]
    columns = ["part", "coeff"] + _numbered("s", n * n)
    return _report(args, payload, columns, records, text)


def cmd_oracle(args) -> int:
    lam = args.lam
    space = oracle.build_module(lam, cap=args.cap)
    weyl = polytope.weyl_dim(lam)
    summary = {"dimension": space.dimension, "weyl": weyl, "match": space.dimension == weyl}
    if args.filtration:
        return _table_output(args, oracle.pbw_filtration_dims(lam, space=space), **summary)
    return _report(args, _payload(args, **summary), list(summary))


def cmd_verify(args) -> int:
    records = checks.run(args.suite, args.max_n, args.max_weight, args.seed)
    passed = sum(c["status"] == "pass" for c in records)
    payload = {
        "schema": SCHEMA, "suite": args.suite,
        "max_n": args.max_n, "max_weight": args.max_weight, "seed": args.seed,
        "passed": passed, "failed": len(records) - passed,
        "checks": records,
    }
    text = [
        f"{c['status'].upper():4s} {c['name']}: expected {c['expected']}, "
        f"actual {c['actual']} {json.dumps(c['parameters'], sort_keys=True)}"
        for c in records
    ] + [f"{passed}/{len(records)} checks passed"]
    columns = ["name", "status", "expected", "actual", "parameters"]
    _report(args, payload, columns, records, text)
    return 0 if passed == len(records) else 1


# ---------------------------------------------------------------------------
# parser assembly
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on first use; main only reads it."""
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

    def add(name, help_text, handler, rank=True, weight=True):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
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

    add("roots", "positive roots in triangle reading order", cmd_roots, weight=False)
    p = add("paths", "all symplectic Dyck paths", cmd_paths, weight=False)
    p.add_argument("--count-only", action="store_true", help="emit only the count")
    p = add("points", "integral points of the path polytope", cmd_points)
    p.add_argument("--count-only", action="store_true", help="emit only the count")
    add("dim", "point count against the Weyl dimension formula", cmd_dim)
    add("char", "weight multiplicities of the point set", cmd_char)
    add("graded-char", "points per (weight, degree) cell",
        lambda args: _table_output(args, polytope.graded_character(args.lam)))

    p = add("ideal-dims", "graded dimensions of the polynomial ring modulo the ideal",
            lambda args: _table_output(args, grmod.quotient_graded_dims(
                args.lam, max_degree=args.max_degree, cap=args.cap)))
    p.add_argument("--max-degree", type=_int_at_least(0), default=None,
                   help="truncate the table at this total degree")
    p.add_argument("--cap", type=_int_at_least(1), default=200000,
                   help="abort if a cell keeps more monomials than this")

    p = add("straighten", "straightening element and normal form of a monomial",
            cmd_straighten)
    p.add_argument("--exponent", required=True,
                   help="multi-exponent c1,...,c_{n*n} in triangle reading order")

    p = add("oracle", "module dimension in the tensor-space realization", cmd_oracle)
    p.add_argument("--filtration", action="store_true",
                   help="also emit the graded filtration table")
    p.add_argument("--cap", type=_int_at_least(1), default=20000,
                   help="largest allowed ambient dimension")

    p = add("tensor", "graded dimensions of a tensor-product Cartan component",
            lambda args: _table_output(args, oracle.tensor_cartan_dims(
                args.lam, args.mu, cap=args.cap), mu=list(args.mu)))
    p.add_argument("--mu", required=True, help="second dominant weight m1,...,mn")
    p.add_argument("--cap", type=_int_at_least(1), default=20000,
                   help="largest allowed ambient dimension")

    p = add("verify", "cross-module verification battery", cmd_verify,
            rank=False, weight=False)
    p.add_argument("--suite", default="all",
                   help="all or one of: " + ", ".join(SUITES))
    p.add_argument("--max-n", type=_int_at_least(1), default=2,
                   help="largest rank to test")
    p.add_argument("--max-weight", type=_int_at_least(1), default=3,
                   help="largest total weight to test")
    p.add_argument("--seed", type=int, default=20260821,
                   help="seed for randomized property sampling")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if "n" in args:
        try:
            validate_rank(args.n)
        except ValueError as err:
            parser.error(str(err))
        for flag, name, length in (
            ("--lambda", "lam", args.n), ("--mu", "mu", args.n),
            ("--exponent", "exponent", args.n * args.n),
        ):
            if name in args:
                setattr(args, name, _parse_ints(parser, flag, getattr(args, name), length))
    if args.command == "verify" and args.suite not in ("all", *SUITES):
        parser.error(f"unknown suite {args.suite!r}; choose from all, {', '.join(SUITES)}")
    try:
        status = args.handler(args)
        sys.stdout.flush()
        return status
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader is gone (``| head``); send what is still buffered to
        # devnull so the flush at interpreter exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
