"""Command-line front end.

``gkz analyze problem.json`` runs the full pipeline; the focused
subcommands run only the prefix they need, and ``volume`` and ``faces``
do not import it.  Exit codes: 0 on success, 2 when the fiber is
degenerate (the report is still emitted), 1 on input errors.  Reports are
deterministic; timings can be suppressed for byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import DegenerateFiber, GkzError, UnknownSubcommand
from .jsonio import (
    DEFAULT_WEIGHT_BOUND,
    GEOMETRY_SUBCOMMANDS,
    ProblemSpec,
    check_options,
    error_json,
    geometry_answer,
    parse_rational,
)

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_DEGENERATE = 2


class _Parser(argparse.ArgumentParser):
    # exit code 2 is reserved for degenerate fibers; usage errors are input
    # errors
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT_ERROR, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gkz",
        description=(
            "Exact rank certification for A-hypergeometric systems: polytope "
            "volume, Koszul cohomology and twisted de Rham reduction."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("spec", help="path to a problem JSON file")
        p.add_argument("--out", help="write the report to this file")
        p.add_argument(
            "--fiber", help="override the fiber, comma-separated rationals"
        )
        p.add_argument(
            "--gamma", help="override gamma, comma-separated rationals"
        )
        return p

    add("analyze", "run the full pipeline and emit a rank report").add_argument(
        "--no-timings", action="store_true", help="omit timings for stable bytes"
    )
    add("volume", "normalized volume of the Newton polytope")
    add("faces", "facets, face lattice summary and index sets")
    add("nondegenerate", "certify the fiber face by face")
    add("koszul", "Koszul cohomology scan at the certified truncation")
    add("derham", "top de Rham dimension, basis and connection matrices")
    add("gkz-ops", "emit the Euler and box operators")
    add("poincare", "check the top-cohomology series identity")
    fc = add("face-complex", "exactness of the facial complex by weight")
    fc.add_argument(
        "--weight-bound",
        type=int,
        default=None,
        help=f"largest scaled gauge to check (default {DEFAULT_WEIGHT_BOUND})",
    )
    return parser


def _load_spec(args) -> ProblemSpec:
    with open(args.spec, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    spec = ProblemSpec.from_json(data)
    if getattr(args, "fiber", None):
        spec.fiber = [parse_rational(tok) for tok in args.fiber.split(",")]
    if getattr(args, "gamma", None):
        spec.gamma = [parse_rational(tok) for tok in args.gamma.split(",")]
    if getattr(args, "weight_bound", None) is not None:
        spec.options["weight_bound"] = args.weight_bound
        check_options(spec.options)
    return spec


def _emit(payload: dict, out_path: str | None) -> None:
    text = json.dumps(payload, indent=2, ensure_ascii=False) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        spec = _load_spec(args)
    except (OSError, json.JSONDecodeError, ValueError, GkzError) as exc:
        _emit(error_json("input", exc), getattr(args, "out", None))
        return EXIT_INPUT_ERROR
    try:
        if args.command in GEOMETRY_SUBCOMMANDS:
            _emit(geometry_answer(args.command, spec), args.out)
            return EXIT_OK
        # the cohomology stack loads only for the subcommands that run it
        from .pipeline import run_analyze, run_subcommand

        if args.command == "analyze":
            report = run_analyze(spec, with_timings=not args.no_timings)
            _emit(report.to_json(), args.out)
            return EXIT_DEGENERATE if report.degenerate else EXIT_OK
        result = run_subcommand(args.command, spec)
        _emit(result, args.out)
        if args.command == "nondegenerate" and not result.get("overall", True):
            return EXIT_DEGENERATE
        return EXIT_OK
    except DegenerateFiber as exc:
        _emit(error_json(args.command, exc), getattr(args, "out", None))
        return EXIT_DEGENERATE
    except UnknownSubcommand as exc:
        _emit(error_json("dispatch", exc), getattr(args, "out", None))
        return EXIT_INPUT_ERROR
    except GkzError as exc:
        _emit(error_json(args.command, exc), getattr(args, "out", None))
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
