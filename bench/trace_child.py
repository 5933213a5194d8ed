"""Run one problem through ``gkzrank.pipeline.run_analyze`` with its layers traced.

Usage::

    python3 bench/trace_child.py SRC_DIR PROBLEM_JSON PROBLEM_ID SUMMARY_JSON [--audit]

The report goes to standard output with the same JSON content as
``gkz analyze --no-timings``; the trace goes to SUMMARY_JSON.  The program
is traced from outside: each layer's public functions are replaced by
recording wrappers in every gkzrank module that bound them (``rank`` lives
in ``linalg`` but is called through ``homology.rank`` and ``derham.rank``),
and methods are replaced on their class.  Nothing under ``src/`` changes.

With ``--audit`` a profiler hook also counts every call of the original
functions, so a test can confirm that the wrappers saw every call site.
"""

from __future__ import annotations

import functools
import json
import math
import sys
from fractions import Fraction
from time import perf_counter

STAGE, KERNEL, COUNT = "stage", "kernel", "count"

# (metric prefix, module, attribute, kind).  A stage reports its time minus
# the stages nested in it, so a duplicate Kouchnirenko run inside the de Rham
# stage is charged to homology, not to derham.  A kernel reports inclusive
# time.  A count records calls only: these run tens of thousands of times and
# a span each would distort the run.
TARGETS = (
    ("lattice.polytope", "gkzrank.lattice", "validate_matrix", STAGE),
    ("lattice.polytope", "gkzrank.lattice", "NewtonPolytope.__init__", STAGE),
    ("lattice.normalize_gamma", "gkzrank.lattice", "normalize_gamma", STAGE),
    ("lattice.points", "gkzrank.lattice",
     "NewtonPolytope.lattice_points_with_gauge_at_most", KERNEL),
    ("lattice.gauge", "gkzrank.lattice", "NewtonPolytope.gauge", COUNT),
    ("rings.multiply", "gkzrank.rings", "ConeRing.multiply_monomials", COUNT),
    ("rings.poincare_series", "gkzrank.rings", "poincare_series", KERNEL),
    ("nondegeneracy", "gkzrank.nondegeneracy", "is_nondegenerate", STAGE),
    ("nondegeneracy.certify_face", "gkzrank.nondegeneracy", "certify_face", COUNT),
    ("homology.kouchnirenko", "gkzrank.homology", "verify_kouchnirenko", STAGE),
    ("homology.poincare_check", "gkzrank.homology", "poincare_identity_check", STAGE),
    ("homology.koszul", "gkzrank.homology", "GradedKoszulComplex.__init__", COUNT),
    ("linalg.rank", "gkzrank.linalg", "rank", KERNEL),
    ("linalg.solve", "gkzrank.linalg", "solve", KERNEL),
    ("linalg.span_add", "gkzrank.linalg", "RationalSpan.add", COUNT),
    ("derham.h_top", "gkzrank.derham", "h_top_dimension", STAGE),
    ("derham.connection", "gkzrank.derham", "connection_matrices", STAGE),
    ("derham.reduce", "gkzrank.derham", "ReductionBasis.reduce", COUNT),
    ("derham.twisted_differential", "gkzrank.derham", "twisted_differential", COUNT),
    ("operators", "gkzrank.operators", "euler_operators", STAGE),
    ("operators", "gkzrank.operators", "lattice_kernel", STAGE),
    ("operators", "gkzrank.operators", "render_euler", STAGE),
    ("operators", "gkzrank.operators", "render_box", STAGE),
)


def _points_box(sums, args, result):
    # The box lattice_points_with_gauge_at_most scans: the bounding box
    # scaled by the bound and widened to contain the origin.
    polytope, bound = args[0], Fraction(args[1])
    size = 1
    for lo, hi in polytope.bounding_box():
        lo_s = min(0, math.floor(lo * bound))
        hi_s = max(0, math.ceil(hi * bound))
        size *= hi_s - lo_s + 1
    sums["lattice.points_box"] += size
    sums["lattice.points_kept"] += len(result)


def _multiply_kept(sums, args, result):
    sums["rings.multiply_kept"] += result is not None


def _span_kept(sums, args, result):
    sums["linalg.span_kept"] += bool(result)


def _rank_nnz(sums, args, result):
    sums["linalg.rank_nnz"] += args[0].nnz()


def _koszul_labels(sums, args, result):
    sums["homology.koszul_labels"] += sum(len(b) for b in args[0].bases.values())


EXTRAS = {
    "lattice.points": _points_box,
    "rings.multiply": _multiply_kept,
    "linalg.span_add": _span_kept,
    "linalg.rank": _rank_nnz,
    "homology.koszul": _koszul_labels,
}


def metric_name(prefix, suffix):
    """``lattice.points`` + ``calls`` -> ``lattice.points_calls``; ``operators`` + ``s`` -> ``operators.s``."""
    return f"{prefix}{'_' if '.' in prefix else '.'}{suffix}"


class Tracer:
    """Span and counter recorders around the functions named in TARGETS."""

    def __init__(self):
        self.spans = []  # (prefix, kind, start, end, parent index or -1)
        self.stack = []
        self.calls = {}
        self.sums = {key: 0 for key in (
            "lattice.points_box", "lattice.points_kept", "rings.multiply_kept",
            "linalg.span_kept", "linalg.rank_nnz", "homology.koszul_labels",
        )}
        self.originals = {}
        self.missing = []

    def install(self):
        modules = [
            m for name, m in sys.modules.items()
            if name == "gkzrank" or name.startswith("gkzrank.")
        ]
        for prefix, modname, attr, kind in TARGETS:
            key = f"{modname}.{attr}"
            owner_name, _, name = attr.rpartition(".")
            owner = sys.modules.get(modname)
            if owner is not None and owner_name:
                owner = getattr(owner, owner_name, None)
            original = None if owner is None else vars(owner).get(name)
            if not callable(original):
                self.missing.append(key)
                continue
            self.originals[key] = original
            wrapper = self._wrap(prefix, key, kind, original)
            if owner_name:
                setattr(owner, name, wrapper)
                continue
            for module in modules:
                for bound_name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, bound_name, wrapper)

    def _wrap(self, prefix, key, kind, fn):
        calls, sums = self.calls, self.sums
        calls[key] = 0
        extra = EXTRAS.get(prefix)
        if kind == COUNT:
            def wrapper(*args, **kwargs):
                calls[key] += 1
                result = fn(*args, **kwargs)
                if extra is not None:
                    extra(sums, args, result)
                return result
        else:
            spans, stack = self.spans, self.stack

            def wrapper(*args, **kwargs):
                calls[key] += 1
                index = len(spans)
                spans.append(None)
                parent = stack[-1] if stack else -1
                stack.append(index)
                start = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = perf_counter()
                    stack.pop()
                    spans[index] = (prefix, kind, start, end, parent)
                if extra is not None:
                    extra(sums, args, result)
                return result
        return functools.update_wrapper(wrapper, fn)

    def totals(self):
        """Per-problem layer totals: times, call counts and the raw sums."""
        out = {}
        for prefix, modname, attr, kind in TARGETS:
            name = metric_name(prefix, "calls")
            out[name] = out.get(name, 0) + self.calls.get(f"{modname}.{attr}", 0)
            if kind != COUNT:
                out.setdefault(metric_name(prefix, "s"), 0.0)
        out.update(self.sums)
        nearest_stage = []
        nested_stage_time = [0.0] * len(self.spans)
        for prefix, kind, start, end, parent in self.spans:
            owner = parent
            if owner != -1 and self.spans[owner][1] != STAGE:
                owner = nearest_stage[owner]
            nearest_stage.append(owner)
            if kind == STAGE and owner != -1:
                nested_stage_time[owner] += end - start
        for i, (prefix, kind, start, end, parent) in enumerate(self.spans):
            own = end - start - (nested_stage_time[i] if kind == STAGE else 0.0)
            out[metric_name(prefix, "s")] += own
        return out


def main(argv):
    src, problem_path, problem_id, summary_path = argv[1:5]
    audit = "--audit" in argv[5:]
    sys.path.insert(0, src)
    t0 = perf_counter()
    import gkzrank  # noqa: F401  (timed: the import a fresh CLI process pays)

    import_s = perf_counter() - t0
    from gkzrank import pipeline

    tracer = Tracer()
    tracer.install()
    with open(problem_path, encoding="utf-8") as fh:
        spec = pipeline.ProblemSpec.from_json(json.load(fh))
    profiled = {}
    if audit:
        codes = {fn.__code__: key for key, fn in tracer.originals.items()}
        profiled = dict.fromkeys(tracer.originals, 0)

        def profile(frame, event, arg):
            if event == "call":
                key = codes.get(frame.f_code)
                if key is not None:
                    profiled[key] += 1

        sys.setprofile(profile)
    report = pipeline.run_analyze(spec, with_timings=False)
    t0 = perf_counter()
    payload = report.to_json()
    text = json.dumps(payload, indent=2, ensure_ascii=False) + "\n"
    emit_s = perf_counter() - t0
    sys.setprofile(None)
    totals = tracer.totals()
    totals["nondegeneracy.faces"] = len(payload["nondegeneracy"]["faces"])
    totals["cli.import_s"] = import_s
    totals["jsonio.emit_s"] = emit_s
    summary = {
        "problem": problem_id,
        "totals": totals,
        "calls": tracer.calls,
        "missing": tracer.missing,
        "spans": [
            {"name": p, "start": s, "end": e, "parent": parent, "problem": problem_id}
            for p, _, s, e, parent in tracer.spans
        ],
    }
    if audit:
        summary["audit"] = profiled
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh)
    sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
