"""Command-line front end.

Four subcommands: ``epr-run`` executes the full scenario and prints the
contrast between the two semantics, ``valuate`` answers one proposition
for one state, ``lattice`` exposes the subspace operations for ad-hoc
queries, and ``paper-check`` prints the fixture audit. Each command returns
its JSON payload and its table text, and ``main`` alone writes one of
them. Identical invocations produce byte-identical bytes.

Exit codes: 0 success, 1 domain error (e.g. an impossible verification),
2 usage error (bad flags or unparseable input). Inputs whose dimensions
disagree with each other are usage errors too: a ``--state`` whose length
is not the proposition's dimension, ``--b`` in another ambient dimension
than ``--a``, and a ``--vector`` whose length is not ``--a``'s ambient
dimension. Every ','-separated entry is one scalar token and every
','-separated part of a nonempty ``--query`` one atom, so a blank one is a
usage error, and so are an empty ``--state`` and a query of more than
``MAX_QUERY_ATOMS`` atoms; a span's ';'-separated rows are read by
``lattice.parse_span``, the reader the fixture audit uses too.
"""

from __future__ import annotations

import argparse
import json
import string
import sys
from typing import Sequence

from .errors import ParseError, QgapError
from .fixtures import render_audit_table
from .lattice import Subspace, parse_span
from .linalg import StateVector
from .propositions import parse_atom, parse_proposition, compile_proposition, valuate
from .scalars import GaussianRational, parse_scalar
from .scenario import (
    MAX_QUERY_ATOMS,
    SEMANTICS,
    Axis,
    audit,
    render_report,
    report_to_dict,
    run_epr,
    singlet,
    standard_context,
)

def _parse_entries(text: str) -> tuple[GaussianRational, ...]:
    return tuple(parse_scalar(p) for p in text.split(","))


def _check_dim(flag: str, dim: int, expected: int, against: str) -> None:
    if dim != expected:
        raise ParseError(f"{flag} has dimension {dim}, but {against} has dimension {expected}")


def _parse_span(text: str) -> Subspace:
    """Span of the ';'-separated rows of ','-separated entries; a blank row is skipped."""
    return parse_span([chunk.split(",") for chunk in text.split(";") if chunk.strip(string.whitespace)])


def _parse_query(text: str):
    """Atoms of a ','-separated query: empty text is the empty query, a blank part is malformed."""
    parts = text.split(",") if text else []
    if len(parts) > MAX_QUERY_ATOMS:
        raise ParseError(f"query has {len(parts)} atoms, more than {MAX_QUERY_ATOMS}")
    return tuple(parse_atom(part) for part in parts)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qgap",
        description="Exact quantum-logic valuations with truth-value gaps for the spin singlet.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("epr-run", help="run the two-particle scenario and report both semantics")
    run.add_argument("--axis", choices=[a.value for a in Axis], default="z")
    run.add_argument(
        "--query",
        default="",
        help=f"comma-separated atoms, at most {MAX_QUERY_ATOMS}, e.g. B.z.down,B.x.up",
    )
    run.add_argument("--semantics", choices=tuple(SEMANTICS), default="both")
    run.add_argument("--output", choices=("table", "json"), default="table")

    val = sub.add_parser("valuate", help="valuate one proposition in a state (default: the singlet)")
    val.add_argument("--prop", required=True, help='e.g. "A.z.up & B.z.down ^ A.z.down & B.z.up"')
    val.add_argument(
        "--state",
        default=None,
        help="comma-separated rational entries, e.g. 0,1,0,0; "
        "a value starting with '-' needs the = form, e.g. --state=-1,1,0,0",
    )
    val.add_argument("--output", choices=("table", "json"), default="table")

    lat = sub.add_parser("lattice", help="subspace lattice queries on explicit spans")
    lat.add_argument("--op", choices=("meet", "join", "sum", "complement", "leq", "contains"), required=True)
    lat.add_argument(
        "--a",
        required=True,
        help="span: vectors separated by ';', entries by ','; "
        "a value starting with '-' needs the = form, e.g. --a=-1,0,0,0",
    )
    lat.add_argument(
        "--b",
        default=None,
        help="second span (meet/join/sum/leq); "
        "a value starting with '-' needs the = form, e.g. --b=-1,0,0,0",
    )
    lat.add_argument(
        "--vector",
        default=None,
        help="vector for the contains query; "
        "a value starting with '-' needs the = form, e.g. --vector=-1,0,0,0",
    )
    lat.add_argument("--output", choices=("table", "json"), default="table")

    chk = sub.add_parser("paper-check", help="audit the transcribed source displays")
    chk.add_argument("--output", choices=("table", "json"), default="table")

    return parser


def _cmd_epr_run(args: argparse.Namespace) -> tuple[object, str]:
    report = run_epr(Axis(args.axis), _parse_query(args.query))
    return report_to_dict(report, args.semantics), render_report(report, args.semantics)


def _cmd_valuate(args: argparse.Namespace) -> tuple[object, str]:
    prop = parse_proposition(args.prop)
    entries = None if args.state is None else _parse_entries(args.state)
    projector = compile_proposition(prop, standard_context())
    if entries is None:
        state = singlet(Axis.Z)
    else:
        _check_dim("--state", len(entries), projector.dim, "the proposition")
        state = StateVector(entries)
    value = valuate(state, projector)
    return {
        "proposition": str(prop),
        "state": [str(e) for e in state.entries],
        "valuation": value.value,
    }, f"{value.value}\n"


def _cmd_lattice(args: argparse.Namespace) -> tuple[object, str]:
    a = _parse_span(args.a)
    op = args.op
    if op in ("meet", "join", "sum", "leq") and args.b is None:
        raise ParseError(f"--op {op} needs --b")
    if op == "contains" and args.vector is None:
        raise ParseError("--op contains needs --vector")

    if op == "complement":
        result: object = a.orthocomplement()
    elif op == "contains":
        # Parsed as entries, not as a state: the zero vector lies in every span.
        entries = _parse_entries(args.vector)
        _check_dim("--vector", len(entries), a.ambient_dim, "--a")
        result = all(e.is_zero for e in entries) or a.contains(StateVector(entries))
    else:
        b = _parse_span(args.b)
        _check_dim("--b", b.ambient_dim, a.ambient_dim, "--a")
        result = {
            "meet": a.meet,
            "join": a.join,
            "sum": a.sum,
            "leq": a.leq,
        }[op](b)

    if isinstance(result, bool):
        text = "true" if result else "false"
        payload: object = result
    else:
        text = str(result)
        payload = [[str(e) for e in v.entries] for v in result.basis]
    return {"op": op, "result": payload}, f"{text}\n"


def _cmd_paper_check(args: argparse.Namespace) -> tuple[object, str]:
    results = audit()
    return {"fixtures": [r.to_dict() for r in results]}, render_audit_table(results)


_DISPATCH = {
    "epr-run": _cmd_epr_run,
    "valuate": _cmd_valuate,
    "lattice": _cmd_lattice,
    "paper-check": _cmd_paper_check,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        payload, text = _DISPATCH[args.command](args)
    except ParseError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except QgapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(json.dumps(payload, indent=2) + "\n" if args.output == "json" else text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
