"""Command line front end.

Every invocation writes exactly one JSON document to standard output (the
character table can be requested as CSV instead); diagnostics go to standard
error.  Exit status: 0 success, 1 domain error, 2 guard exceeded, 64 usage
error, 70 internal inconsistency or verification mismatch (a library
defect, EX_SOFTWARE).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from fractions import Fraction
from typing import Any

from .characters import _partition_counts, character_table
from .errors import DomainError, GuardExceeded, InconsistencyError
from .genchar import (
    connection_coefficient,
    genchar,
    genchar_table2,
)
from .oracle import (
    VerificationError,
    extract_marked_coefficient,
    genchar_strahov,
    run_verify,
    z1_idempotent,
)
from .partitions import (
    decrement_part,
    enumerate_marked_partitions,
    enumerate_partitions,
    format_marked_partition,
    format_partition,
    parse_partition,
)
from .starcount import (
    StarClosedCase,
    star_count,
    star_count_by_cycle_count,
    star_count_class,
    star_count_closed,
)
from .tableaux import dimension, enumerate_syt, enumerate_syt_marked

USAGE_EXIT = 64
INCONSISTENCY_EXIT = 70

# most items `partitions` (counted as p(n)) and `tableaux` list; inputs at
# n <= 6 count at most 16, and 10^4 tableaux take about a second
LIST_MAX = 10_000


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse wants to sys.exit(2) on bad usage; route it to our own code
    def error(self, message: str) -> None:
        raise _UsageError(message)


def _emit(doc: dict[str, Any]) -> None:
    json.dump(doc, sys.stdout, indent=2)
    sys.stdout.write("\n")


def _shape_arg(text: str, n: int | None, name: str):
    shape = parse_partition(text)
    if n is not None and shape.n != n:
        raise DomainError(f"--{name} {text!r} is not a partition of {n}")
    return shape


def _cmd_partitions(args: argparse.Namespace) -> dict[str, Any]:
    if args.n < 0:
        raise DomainError("n must be nonnegative")
    # p(n) itself takes O(n^1.5) big-integer steps; past n = 1000 name a bound
    count = _partition_counts(args.n)[args.n] if args.n <= 1000 else None
    if count is None or count > LIST_MAX:
        shown = "> 10^31" if count is None else f"= {count}"
        raise GuardExceeded(
            f"p({args.n}) {shown} partitions exceed the listing limit {LIST_MAX}"
        )
    if args.marked:
        return {
            "n": args.n,
            "marked_partitions": [
                format_marked_partition(mp)
                for mp in enumerate_marked_partitions(args.n)
            ],
        }
    return {
        "n": args.n,
        "partitions": [format_partition(p) for p in enumerate_partitions(args.n)],
    }


def _cmd_tableaux(args: argparse.Namespace) -> dict[str, Any]:
    shape = _shape_arg(args.shape, None, "shape")
    label = f"shape {format_partition(shape)}"
    # the hook-length product needs n!, so a huge shape is refused on its size
    if shape.n > LIST_MAX:
        raise GuardExceeded(
            f"{label} has {shape.n} cells, past the listing limit {LIST_MAX}"
        )
    if args.mark is None:
        count = dimension(shape)
    else:
        # n ends a row of length i: the rest is a tableau of i_-(shape)
        count = dimension(decrement_part(shape, args.mark))
        label += f" marked at {args.mark}"
    if count > LIST_MAX:
        raise GuardExceeded(
            f"{label} has {count} standard tableaux, past the listing limit {LIST_MAX}"
        )
    if args.mark is None:
        tabs = enumerate_syt(shape)
    else:
        tabs = enumerate_syt_marked(shape, args.mark)
    doc: dict[str, Any] = {"shape": format_partition(shape)}
    if args.mark is not None:
        doc["mark"] = args.mark
    doc["count"] = len(tabs)
    doc["tableaux"] = [[list(row) for row in tab.rows] for tab in tabs]
    return doc


def _cmd_chartable(args: argparse.Namespace) -> dict[str, Any] | None:
    if args.n < 1:
        raise DomainError("n must be positive")
    table = character_table(args.n)
    labels = [format_partition(p) for p in enumerate_partitions(args.n)]
    if args.format == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow([""] + labels)
        for label, row in zip(labels, table):
            writer.writerow([label] + [str(v) for v in row])
        return None
    return {
        "n": args.n,
        "partitions": labels,
        "table": [[str(v) for v in row] for row in table],
    }


def _cmd_genchar(args: argparse.Namespace) -> dict[str, Any]:
    mu = _shape_arg(args.mu, args.n, "mu")
    lam = _shape_arg(args.lam, args.n, "lambda")
    if args.method == "table":
        value = genchar_table2(mu, args.j, lam, args.i)
    elif args.method == "strahov":
        value = genchar_strahov(mu, args.j, lam, args.i)
    elif args.method == "oracle":
        gamma = z1_idempotent(mu, args.j)
        value = Fraction(math.factorial(args.n), dimension(mu)) * (
            extract_marked_coefficient(gamma, lam, args.i)
        )
    else:
        value = genchar(mu, args.j, lam, args.i)
    return {"value": str(value), "method": args.method}


def _cmd_connection(args: argparse.Namespace) -> dict[str, Any]:
    lam = _shape_arg(args.lam, args.n, "lambda")
    mu = _shape_arg(args.mu, args.n, "mu")
    nu = _shape_arg(args.nu, args.n, "nu")
    value = connection_coefficient(lam, args.i, mu, args.j, nu, args.k)
    return {"value": str(value)}


def _cmd_starfact_count(args: argparse.Namespace) -> dict[str, Any]:
    lam = _shape_arg(args.lam, None, "lambda")
    return {"count": str(star_count(lam, args.i, args.r))}


def _cmd_starfact_class(args: argparse.Namespace) -> dict[str, Any]:
    lam = _shape_arg(args.lam, None, "lambda")
    return {"count": str(star_count_class(lam, args.r))}


def _cmd_starfact_cycles(args: argparse.Namespace) -> dict[str, Any]:
    return {"count": str(star_count_by_cycle_count(args.n, args.k, args.r))}


def _cmd_starfact_closed(args: argparse.Namespace) -> dict[str, Any]:
    case = StarClosedCase(args.case)
    return {"count": str(star_count_closed(case, args.n, args.r))}


def _cmd_oracle_verify(args: argparse.Namespace) -> dict[str, Any]:
    checks = run_verify(args.max_n)
    return {"status": "ok", "max_n": args.max_n, "checks": len(checks)}


def build_parser() -> _Parser:
    parser = _Parser(prog="nearcentral", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("partitions", help="list (marked) partitions of n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--marked", action="store_true")
    p.set_defaults(handler=_cmd_partitions)

    p = sub.add_parser("tableaux", help="list standard tableaux of a shape")
    p.add_argument("--shape", required=True)
    p.add_argument("--mark", type=int)
    p.set_defaults(handler=_cmd_tableaux)

    p = sub.add_parser("chartable", help="character table of S_n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(handler=_cmd_chartable)

    p = sub.add_parser("genchar", help="generalized character value")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mu", required=True)
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--i", type=int, required=True)
    p.add_argument(
        "--method",
        choices=["auto", "table", "strahov", "oracle"],
        default="auto",
    )
    p.set_defaults(handler=_cmd_genchar)

    p = sub.add_parser("connection", help="marked class product coefficient")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--mu", required=True)
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--nu", required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(handler=_cmd_connection)

    p = sub.add_parser("starfact", help="star factorization counts")
    starsub = p.add_subparsers(dest="starfact_command", required=True)

    q = starsub.add_parser("count", help="count for one marked cycle type")
    q.add_argument("--lambda", dest="lam", required=True)
    q.add_argument("--i", type=int, required=True)
    q.add_argument("--r", type=int, required=True)
    q.set_defaults(handler=_cmd_starfact_count)

    q = starsub.add_parser("class", help="count aggregated over a conjugacy class")
    q.add_argument("--lambda", dest="lam", required=True)
    q.add_argument("--r", type=int, required=True)
    q.set_defaults(handler=_cmd_starfact_class)

    q = starsub.add_parser("cycles", help="count aggregated by number of cycles")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--k", type=int, required=True)
    q.add_argument("--r", type=int, required=True)
    q.set_defaults(handler=_cmd_starfact_cycles)

    q = starsub.add_parser("closed", help="closed-form count for special shapes")
    q.add_argument(
        "--case",
        choices=[case.value for case in StarClosedCase],
        required=True,
    )
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--r", type=int, required=True)
    q.set_defaults(handler=_cmd_starfact_closed)

    p = sub.add_parser("oracle", help="brute-force verification")
    oraclesub = p.add_subparsers(dest="oracle_command", required=True)
    q = oraclesub.add_parser("verify", help="run the invariant suite")
    q.add_argument("--max-n", type=int, default=4)
    q.set_defaults(handler=_cmd_oracle_verify)

    return parser


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    try:
        doc = args.handler(args)
    except VerificationError as exc:
        print(f"verification mismatch in {exc.check}", file=sys.stderr)
        _emit(
            {
                "status": "mismatch",
                "check": exc.check,
                "lhs": exc.lhs,
                "rhs": exc.rhs,
            }
        )
        return INCONSISTENCY_EXIT
    except GuardExceeded as exc:
        print(f"guard exceeded: {exc}", file=sys.stderr)
        _emit({"status": "error", "error": str(exc)})
        return 2
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        _emit({"status": "error", "error": str(exc)})
        return 1
    except InconsistencyError as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        _emit({"status": "error", "error": str(exc)})
        return INCONSISTENCY_EXIT
    if doc is not None:
        _emit(doc)
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
