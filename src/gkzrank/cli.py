"""Command-line front end: ``gkz COMMAND SPEC [OPTIONS]``, parsed by hand.

``gkz analyze problem.json`` runs the full pipeline; the focused
subcommands run only the prefix they need, and ``volume`` and ``faces``
do not import it.  Exit codes: 0 on success, 2 when the fiber is
degenerate (the report is still emitted), 1 on usage and input errors.
Reports are deterministic; timings can be suppressed for stable bytes.
"""

from __future__ import annotations

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
USAGE = "usage: gkz {} SPEC [OPTIONS]\n"

# option -> (usage form, help); a switch's usage form is the option alone
OPTIONS = {
    "--out": ("--out FILE", "write the report to this file"),
    "--fiber": ("--fiber A1,A2,...", "override the fiber, comma-separated rationals"),
    "--gamma": ("--gamma G1,G2,...", "override gamma, comma-separated rationals"),
    "--no-timings": ("--no-timings", "omit timings for stable bytes"),
    "--weight-bound": ("--weight-bound N", "largest scaled gauge to check, an int "
                       f"(default {DEFAULT_WEIGHT_BOUND})"),
}
# command -> (help, the options it takes beside --out, --fiber and --gamma)
COMMANDS = {
    "analyze": ("run the full pipeline and emit a rank report", ("--no-timings",)),
    "volume": ("normalized volume of the Newton polytope", ()),
    "faces": ("facets, face lattice summary and index sets", ()),
    "nondegenerate": ("certify the fiber face by face", ()),
    "koszul": ("Koszul cohomology scan at the certified truncation", ()),
    "derham": ("top de Rham dimension, basis and connection matrices", ()),
    "gkz-ops": ("emit the Euler and box operators", ()),
    "poincare": ("check the top-cohomology series identity", ()),
    "face-complex": ("exactness of the facial complex by weight", ("--weight-bound",)),
}


def _help(command) -> str:
    if command is None:
        about = "Exact rank certification for A-hypergeometric systems."
        rows = [(name, what) for name, (what, _) in COMMANDS.items()]
    else:
        about, extra = COMMANDS[command]
        flags = ("--out", "--fiber", "--gamma") + extra
        rows = [("SPEC", "path to a problem JSON file")] + [OPTIONS[f] for f in flags]
    rows.append(("-h, --help", "show this help; after COMMAND, its options"))
    table = "".join(f"  {form:<22}{what}\n" for form, what in rows)
    return USAGE.format(command or "COMMAND") + f"\n{about}\n\n{table}"


def _parse(argv: list) -> dict:
    """``command``, ``spec`` and the options given (``--no-timings`` as
    ``no_timings``) in the words after ``gkz``.  ``-h`` or ``--help`` anywhere
    prints help and exits 0; a usage error exits 1, as 2 means degenerate."""
    command = argv[0] if argv and argv[0] in COMMANDS else None

    def fail(why):
        sys.stderr.write(USAGE.format(command or "COMMAND") + f"gkz: error: {why}\n")
        raise SystemExit(EXIT_INPUT_ERROR)

    if "-h" in argv or "--help" in argv:
        sys.stdout.write(_help(command))
        raise SystemExit(EXIT_OK)
    if command is None:
        fail(f"unknown command {argv[0]!r}" if argv else "no command given")
    flags = ("--out", "--fiber", "--gamma") + COMMANDS[command][1]
    args = {"command": command}
    specs, words = [], iter(argv[1:])
    for word in words:
        flag, eq, value = word.partition("=")
        key = flag[2:].replace("-", "_")
        if not word.startswith("-"):
            specs.append(word)
        elif flag not in flags or eq and OPTIONS[flag][0] == flag:
            fail(f"{command} takes no option {word!r}")
        elif OPTIONS[flag][0] == flag:
            args[key] = True
        else:
            args[key] = value if eq else next(words, "")
            if not args[key]:
                fail(f"{flag} needs a value")
    if len(specs) != 1:
        fail(f"expected one SPEC, got {specs or 'none'}")
    args["spec"] = specs[0]
    if "weight_bound" in args:
        try:
            args["weight_bound"] = int(args["weight_bound"])
        except ValueError:
            fail(f"--weight-bound takes an int, not {args['weight_bound']!r}")
    return args


def _load_spec(args: dict) -> ProblemSpec:
    with open(args["spec"], "r", encoding="utf-8") as fh:
        data = json.load(fh)
    spec = ProblemSpec.from_json(data)
    if "fiber" in args:
        spec.fiber = [parse_rational(tok) for tok in args["fiber"].split(",")]
    if "gamma" in args:
        spec.gamma = [parse_rational(tok) for tok in args["gamma"].split(",")]
    if "weight_bound" in args:
        spec.options["weight_bound"] = args["weight_bound"]
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
    args = _parse(sys.argv[1:] if argv is None else list(argv))
    command, out = args["command"], args.get("out")
    try:
        spec = _load_spec(args)
    except (OSError, json.JSONDecodeError, ValueError, GkzError) as exc:
        _emit(error_json("input", exc), out)
        return EXIT_INPUT_ERROR
    try:
        if command in GEOMETRY_SUBCOMMANDS:
            _emit(geometry_answer(command, spec), out)
            return EXIT_OK
        # the cohomology stack loads only for the subcommands that run it
        from .pipeline import run_analyze, run_subcommand

        if command == "analyze":
            report = run_analyze(spec, with_timings=not args.get("no_timings"))
            _emit(report.to_json(), out)
            return EXIT_DEGENERATE if report.degenerate else EXIT_OK
        result = run_subcommand(command, spec)
        _emit(result, out)
        if command == "nondegenerate" and not result.get("overall", True):
            return EXIT_DEGENERATE
        return EXIT_OK
    except DegenerateFiber as exc:
        _emit(error_json(command, exc), out)
        return EXIT_DEGENERATE
    except UnknownSubcommand as exc:
        _emit(error_json("dispatch", exc), out)
        return EXIT_INPUT_ERROR
    except GkzError as exc:
        _emit(error_json(command, exc), out)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
