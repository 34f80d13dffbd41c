"""Command-line surface.

Subcommands: check, enumerate-types, facets, lift, verify. Exit codes:
0 rationalizable / success, 2 input error (including failed verification),
3 not rationalizable, 4 enumeration cap exceeded. Reports go to stdout and
are byte-identical across runs. Every subcommand prints one ``elapsed`` line
on stderr, the wall-clock time of the whole command (none after an error).
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .errors import CapExceeded, RuhullError
from .facets import (
    MAX_FACET_COORDINATES,
    MAX_FACET_TYPES,
    check_facet_caps,
    enumerate_facets,
)
from .fileio import (
    lifted_instance_tree,
    load_instance,
    parse_json,
    run_check,
    run_verify,
)
from .model import type_bits

EXIT_OK = 0
EXIT_INPUT_ERROR = 2
EXIT_NOT_RATIONALIZABLE = 3
EXIT_CAP_EXCEEDED = 4


def _dump(tree: dict) -> str:
    return json.dumps(tree, indent=2, sort_keys=True) + "\n"


def _cmd_check(args) -> int:
    instance = load_instance(args.instance)
    report = run_check(instance, restricted=args.restricted_arsp)
    if args.format == "structured":
        sys.stdout.write(_dump(report.to_structured()))
    else:
        sys.stdout.write(report.to_text())
    return EXIT_OK if report.outcome.rationalizable else EXIT_NOT_RATIONALIZABLE


def _cmd_enumerate_types(args) -> int:
    instance = load_instance(args.instance)
    type_set = instance.type_set
    layout = instance.layout
    if args.format == "structured":
        tree = {
            "format": "ruhull-types-v1",
            "instance_digest": instance.digest,
            "count": len(type_set),
            "types": [list(type_bits(t, layout)) for t in type_set.types],
        }
        sys.stdout.write(_dump(tree))
    else:
        sys.stdout.write(f"{len(type_set)} admissible type(s)\n")
        for t in type_set.types:
            bits = "".join(map(str, type_bits(t, layout)))
            picks = " | ".join(layout.coordinate_labels[c] for c in t.chosen)
            sys.stdout.write(f"  {bits}  {picks}\n")
    return EXIT_OK


def _cmd_facets(args) -> int:
    instance = load_instance(args.instance)
    # The coordinates are known before the types are listed: refuse first.
    check_facet_caps(
        instance.layout.coordinate_count, None, args.max_coordinates, args.max_types
    )
    hrep = enumerate_facets(
        instance.type_set,
        max_coordinates=args.max_coordinates,
        max_types=args.max_types,
    )
    if args.format == "structured":
        tree = {
            "format": "ruhull-facets-v1",
            "instance_digest": instance.digest,
            "dimension": hrep.dimension,
            "equations": [
                {"coefficients": list(e.coefficients), "constant": e.constant}
                for e in hrep.equations
            ],
            "facets": [
                {"normal": list(f.normal), "offset": f.offset} for f in hrep.facets
            ],
        }
        sys.stdout.write(_dump(tree))
    else:
        sys.stdout.write(f"polytope dimension: {hrep.dimension}\n")
        sys.stdout.write(f"equations ({len(hrep.equations)}):\n")
        for e in hrep.equations:
            sys.stdout.write(f"  {list(e.coefficients)} == {e.constant}\n")
        sys.stdout.write(f"facets ({len(hrep.facets)}):\n")
        for f in hrep.facets:
            sys.stdout.write(f"  {list(f.normal)} <= {f.offset}\n")
    return EXIT_OK


def _cmd_lift(args) -> int:
    # The lifted instance is itself valid instance JSON, in either format.
    instance = load_instance(args.instance)
    sys.stdout.write(_dump(lifted_instance_tree(instance)))
    return EXIT_OK


def _cmd_verify(args) -> int:
    instance = load_instance(args.instance)
    with open(args.report, "rb") as fh:
        report = parse_json(fh.read(), args.report)
    ok, problems = run_verify(instance, report)
    if args.format == "structured":
        tree = {
            "format": "ruhull-verify-v1",
            "instance_digest": instance.digest,
            "verified": ok,
            "failures": problems,
        }
        sys.stdout.write(_dump(tree))
    else:
        sys.stdout.write(f"verified: {'true' if ok else 'false'}\n")
        for p in problems:
            sys.stdout.write(f"  {p}\n")
    return EXIT_OK if ok else EXIT_INPUT_ERROR


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ruhull",
        description=(
            "Exact rationalizability testing of stochastic choice data: "
            "mixture of admissible types, or a verifiable violating trial sequence."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("instance", help="path to an instance JSON file")
        p.add_argument(
            "--format",
            choices=("text", "structured"),
            default="text",
            help="output format (structured = stable JSON tree)",
        )

    p_check = sub.add_parser("check", help="decide rationalizability")
    add_common(p_check)
    p_check.add_argument(
        "--restricted-arsp",
        action="store_true",
        help="also decide the subset-query-restricted axiom on the lifted instance",
    )
    p_check.set_defaults(func=_cmd_check)

    p_types = sub.add_parser("enumerate-types", help="list the admissible type set")
    add_common(p_types)
    p_types.set_defaults(func=_cmd_enumerate_types)

    p_facets = sub.add_parser(
        "facets", help="halfspace description of the rationalizable polytope"
    )
    add_common(p_facets)
    p_facets.add_argument(
        "--max-coordinates",
        type=int,
        default=MAX_FACET_COORDINATES,
        help="override the coordinate-count cap",
    )
    p_facets.add_argument(
        "--max-types",
        type=int,
        default=MAX_FACET_TYPES,
        help="override the vertex-count cap",
    )
    p_facets.set_defaults(func=_cmd_facets)

    p_lift = sub.add_parser(
        "lift", help="print the power-set-lifted instance as plain instance JSON"
    )
    add_common(p_lift)
    p_lift.set_defaults(func=_cmd_lift)

    p_verify = sub.add_parser("verify", help="re-validate a check report exactly")
    p_verify.add_argument("instance", help="path to the instance JSON file")
    p_verify.add_argument("report", help="path to a structured check report")
    p_verify.add_argument(
        "--format", choices=("text", "structured"), default="text"
    )
    p_verify.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    start = time.monotonic()
    try:
        code = args.func(args)
    except CapExceeded as exc:
        print(f"error[{type(exc).__name__}]: {exc}", file=sys.stderr)
        return EXIT_CAP_EXCEEDED
    except OSError as exc:
        print(f"error[input]: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except RuhullError as exc:
        print(f"error[{type(exc).__name__}]: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    print(f"elapsed: {time.monotonic() - start:.6f}s", file=sys.stderr)
    return code


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
