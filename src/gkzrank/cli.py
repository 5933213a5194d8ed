"""Command-line front end: ``gkz COMMAND SPEC [OPTIONS]``, parsed by hand.

``gkz analyze problem.json`` runs the full pipeline; the focused
subcommands run only the prefix they need, and ``volume`` and ``faces``
do not import it.  Exit codes: 0 on success, 2 when the fiber is
degenerate (the report is still emitted), 1 on usage and input errors.
Reports are deterministic and streamed as they are encoded, never held
whole; timings can be suppressed for stable bytes.
"""

from __future__ import annotations

import errno
import json
import os
import sys

from .errors import DegenerateFiber, GkzError
from .jsonio import (
    DEFAULT_WEIGHT_BOUND,
    GEOMETRY_SUBCOMMANDS,
    ProblemSpec,
    error_json,
    geometry_answer,
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
    prints help and exits 0, or 1 when stdout cannot take it; a usage error
    exits 1, as 2 means degenerate."""
    command = argv[0] if argv and argv[0] in COMMANDS else None

    def fail(why):
        if sys.stderr is not None:  # None: fd 2 was closed at start
            sys.stderr.write(USAGE.format(command or "COMMAND") + f"gkz: error: {why}\n")
        raise SystemExit(EXIT_INPUT_ERROR)

    if "-h" in argv or "--help" in argv:
        raise SystemExit(_emit(_help(command), None, EXIT_OK))
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
    """The problem file with the overrides written over its fields, checked
    once by ``ProblemSpec.from_json``."""
    with open(args["spec"], "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if isinstance(data, dict):
        data.update((k, args[k].split(",")) for k in ("fiber", "gamma") if k in args)
        if "weight_bound" in args and isinstance(data.setdefault("options", {}), dict):
            data["options"]["weight_bound"] = args["weight_bound"]
    return ProblemSpec.from_json(data)


def _dump(payload: dict | str, fh) -> None:
    """Stream a report as JSON, or help as its text, and flush."""
    if isinstance(payload, str):
        fh.write(payload)
    else:
        json.dump(payload, fh, indent=2, ensure_ascii=False)
        fh.write("\n")
    fh.flush()


def _emit(payload: dict | str, out_path: str | None, code: int) -> int:
    """Stream the report to ``out_path``, or stdout (help too), and return
    ``code``; a failed write is an output error, on stdout for a path, else
    one line on stderr when stderr is open."""
    try:
        if not out_path:
            if sys.stdout is None:  # fd 1 was closed when Python started
                raise OSError(errno.EBADF, "stdout is closed")
            _dump(payload, sys.stdout)
            return code
        with open(out_path, "w", encoding="utf-8") as fh:
            _dump(payload, fh)
    except OSError as exc:
        if out_path:
            return _emit(error_json("output", exc), None, EXIT_INPUT_ERROR)
        if sys.stderr is not None:
            sys.stderr.write(f"gkz: error: output: {exc}\n")
        # stdout is flushed again at exit: send what is left to devnull.
        if sys.stdout is not None:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_INPUT_ERROR
    return code


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else list(argv))
    command, out = args["command"], args.get("out")
    try:
        spec = _load_spec(args)
    # a malformed file is a ValueError, one nested too deep a RecursionError
    except (OSError, ValueError, RecursionError, GkzError) as exc:
        return _emit(error_json("input", exc), out, EXIT_INPUT_ERROR)
    try:
        if command in GEOMETRY_SUBCOMMANDS:
            return _emit(geometry_answer(command, spec), out, EXIT_OK)
        # the cohomology stack loads only for the subcommands that run it
        from .pipeline import run_analyze, run_subcommand

        if command == "analyze":
            report = run_analyze(spec, with_timings=not args.get("no_timings"))
            code = EXIT_DEGENERATE if report.degenerate else EXIT_OK
            return _emit(report.to_json(), out, code)
        result = run_subcommand(command, spec)
        degenerate = command == "nondegenerate" and not result.get("overall", True)
        return _emit(result, out, EXIT_DEGENERATE if degenerate else EXIT_OK)
    except DegenerateFiber as exc:
        return _emit(error_json(command, exc), out, EXIT_DEGENERATE)
    except GkzError as exc:
        return _emit(error_json(command, exc), out, EXIT_INPUT_ERROR)


if __name__ == "__main__":
    # Nothing of gkz needs finalization: once the output is flushed, end the
    # process without the interpreter's teardown.
    code = main()
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:
            stream.flush()
    os._exit(code)
