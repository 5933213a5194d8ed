"""The gkzrank benchmark: ``gkz analyze --no-timings`` on one workload.

Usage::

    python3 bench/run.py --workload cohomology|derham|sweep --seed N \\
        --seconds T --trace 0|1

Run it from the root of a checkout; it runs the program from ``src/`` there.
Every problem runs in a fresh ``gkz`` process, one child at a time (a closed
loop with one client, as a user runs the CLI).  Fresh processes matter: in
one process the module-level caches would turn repeats into lookups.

With ``--trace 0`` the problems run in whole passes for about ``--seconds``
and the end-to-end metrics are reported.  With ``--trace 1`` each
problem runs once untraced and once under ``trace_child.py``, and the
per-layer metrics are reported.  Every report is checked (``check.py``).
The last line of standard output is one JSON object; the lines before it
give each metric with its unit and sample count.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

import check
import problems

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# No problem starts after HARD_STOP_S of measuring and none runs longer
# than PROBLEM_TIMEOUT_S, so a run ends within three minutes even on a
# program many times slower than today's.
PROBLEM_TIMEOUT_S = 60.0
HARD_STOP_S = 100.0
SETUP_EVERY_S = 2.0
# Times are reported in host-normalized seconds: a child's raw seconds times
# REF_NOMINAL_S over the mean time of a fixed pure-Python loop, timed before
# every child, over the REF_WINDOW loops on either side of the child and the
# one just before it.  On the 2-core host this was written on, the medians
# of 36-second windows of raw times moved by 30-60% within minutes while the
# code stayed the same, and the host switched between two speeds within
# seconds; the loops next to a child see the speed it ran at.
REF_ITERATIONS = 200_000
REF_NOMINAL_S = 0.010
REF_WINDOW = 2
GAUSS = {"matrix": [[1, 1, 1, 1], [0, 1, 0, 1], [0, 0, 1, 1]]}
GAUSS_VOLUME = 2

RATIOS = {
    "lattice.points_kept_ratio": ("lattice.points_kept", "lattice.points_box"),
    "rings.multiply_kept_ratio": ("rings.multiply_kept", "rings.multiply_calls"),
    "linalg.span_kept_ratio": ("linalg.span_kept", "linalg.span_add_calls"),
}


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    return env


class Child:
    """Outcome of one fresh process: wall seconds, exit code, peak RSS, output."""

    def __init__(self, argv, out_path, timeout=PROBLEM_TIMEOUT_S):
        err_path = out_path.with_suffix(".err")
        killed = threading.Event()
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = perf_counter()
            proc = subprocess.Popen(
                argv, stdout=out, stderr=err, cwd=ROOT, env=child_env()
            )
            timer = threading.Timer(timeout, lambda: (killed.set(), proc.kill()))
            timer.start()
            _, status, usage = os.wait4(proc.pid, 0)
            self.seconds = perf_counter() - start
            timer.cancel()
        self.timed_out = killed.is_set()
        self.exit_code = os.waitstatus_to_exitcode(status)
        proc.returncode = self.exit_code
        self.rss_mb = usage.ru_maxrss / 1024.0
        self.stdout = out_path.read_bytes()
        self.stderr = err_path.read_bytes()

    def failure(self):
        """Why the process itself failed (timeout or crash), else None."""
        if self.timed_out:
            return "timed out"
        if self.exit_code < 0 or self.exit_code == 1:
            tail = self.stderr.decode(errors="replace").strip().splitlines()[-1:]
            return f"exit {self.exit_code} {' '.join(tail)}".strip()
        return None


def gkz(*args):
    return [sys.executable, "-m", "gkzrank.cli", *map(str, args)]


def reference_loop_s():
    """Time of a fixed pure-Python loop: a gauge of the host's current speed."""
    start = perf_counter()
    total = 0
    for i in range(REF_ITERATIONS):
        total += i
    return perf_counter() - start


def pin_to_one_cpu():
    """Keep this process and its children on one CPU, so that the reference
    loop sees the same contention as the ``gkz`` children between its runs."""
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass


class Run:
    """One benchmark run: the problem files, the children and their checks."""

    def __init__(self, workload, seed, workdir):
        self.workload = workload
        self.problems, self.stats = problems.workload(workload, seed)
        random.Random(seed).shuffle(self.problems)
        with open(BENCH / "expected.json", encoding="utf-8") as fh:
            self.recorded = json.load(fh)
        self.workdir = workdir
        self.paths = {}
        for p in self.problems:
            path = workdir / f"{p['id']}.json"
            path.write_text(json.dumps(p["spec"]), encoding="utf-8")
            self.paths[p["id"]] = path
        self.attempted = 0
        self.failures = []
        self.peak_rss_mb = 0.0
        self.ref_loops = []
        self.raw_seconds = []
        self.first_report = {}

    def fail(self, what, reason):
        self.failures.append(f"{what}: {reason}")

    def child(self, argv, out_name):
        self.attempted += 1
        self.ref_loops.append(reference_loop_s())
        c = Child(argv, self.workdir / out_name)
        c.index = len(self.raw_seconds)
        self.raw_seconds.append(c.seconds)
        self.peak_rss_mb = max(self.peak_rss_mb, c.rss_mb)
        return c

    def normalized(self, index):
        """Seconds of child ``index`` at the speed where the loop takes
        REF_NOMINAL_S; call it once every child has run."""
        window = self.ref_loops[max(0, index - REF_WINDOW):index + REF_WINDOW + 1]
        return self.raw_seconds[index] * REF_NOMINAL_S / statistics.mean(window)

    def setup_sample(self):
        """One fresh ``gkz volume`` on the Gauss problem: the child's index,
        or None if it failed."""
        c = self.child(gkz("volume", self.workdir / "gauss.json"), "setup.out")
        reason = c.failure()
        if reason is None:
            try:
                volume = json.loads(c.stdout)["normalized_volume"]
            except (ValueError, KeyError, TypeError):
                volume = None
            if c.exit_code != 0 or volume != GAUSS_VOLUME:
                reason = f"exit {c.exit_code}, volume {volume}"
        if reason is not None:
            self.fail("setup", reason)
            return None
        return c.index

    def analyze(self, problem):
        """Run one ``gkz analyze``; returns the child.

        The first report of each problem is kept for ``check_reports``;
        later ones must be byte-identical to it.  The full check waits
        until the timing is done: run between samples, it made the sample
        after it up to 40% slower on a 2-core host.
        """
        pid = problem["id"]
        c = self.child(
            gkz("analyze", "--no-timings", self.paths[pid]), f"{pid}.out"
        )
        reason = c.failure()
        if reason is None:
            first = self.first_report.setdefault(pid, [c.exit_code, c.stdout, 0])
            if first[:2] == [c.exit_code, c.stdout]:
                first[2] += 1
            else:
                reason = "report differs from the first run of this problem"
        if reason is not None:
            self.fail(pid, reason)
        return c

    def check_reports(self):
        """Check each problem's report; every run that gave it fails with it."""
        for problem in self.problems:
            pid = problem["id"]
            if pid not in self.first_report:
                continue
            exit_code, stdout, runs = self.first_report[pid]
            errors = check.check_report(
                problem, exit_code, stdout, self.recorded.get(pid)
            )
            for _ in range(runs if errors else 0):
                self.fail(pid, "; ".join(errors))

    def past_hard_stop(self, start, problem):
        """Count a problem as failed, not run, once HARD_STOP_S has passed."""
        if perf_counter() - start <= HARD_STOP_S:
            return False
        self.attempted += 1
        self.fail(problem["id"], "not run: hard stop reached")
        return True

    def timed(self, seconds):
        """Whole passes over the problems for about ``seconds``.

        Whole passes keep every problem's share of the samples equal, so
        the pooled median does not depend on where a run happened to stop.
        A set-up sample runs every SETUP_EVERY_S between the problems, so
        the set-up samples meet the same host phases as the problems.
        Returns the child indices of the problems' samples and of the
        set-up samples.
        """
        times = {p["id"]: [] for p in self.problems}
        (self.workdir / "gauss.json").write_text(json.dumps(GAUSS), encoding="utf-8")
        self.setup_sample()  # writes the bytecode cache; not timed
        setup = []
        start = perf_counter()
        while True:
            pass_start = perf_counter()
            for problem in self.problems:
                if self.past_hard_stop(start, problem):
                    continue
                if len(setup) * SETUP_EVERY_S <= perf_counter() - start < seconds:
                    setup.append(self.setup_sample())
                times[problem["id"]].append(self.analyze(problem).index)
            now = perf_counter()
            if now - start + (now - pass_start) / 2 > seconds:
                return times, [x for x in setup if x is not None]

    def traced(self):
        """Each problem once untraced and once traced; per-layer totals."""
        totals = {}
        untraced = traced = 0.0
        spans = []
        start = perf_counter()
        for problem in self.problems:
            if self.past_hard_stop(start, problem):
                continue
            pid = problem["id"]
            plain = self.analyze(problem)
            summary_path = self.workdir / f"{pid}.trace.json"
            c = self.child(
                [sys.executable, str(BENCH / "trace_child.py"), str(SRC),
                 str(self.paths[pid]), pid, str(summary_path)],
                f"{pid}.traced.out",
            )
            reason = c.failure() or (f"exit {c.exit_code}" if c.exit_code else None)
            if reason is None:
                try:
                    same = json.loads(c.stdout) == json.loads(plain.stdout)
                except ValueError:
                    same = False
                if not same:
                    reason = "traced report differs from the untraced one"
            if reason is not None:
                self.fail(f"{pid} traced", reason)
                continue
            with open(summary_path, encoding="utf-8") as fh:
                summary = json.load(fh)
            if summary["missing"]:
                print(f"trace: not found {summary['missing']}")
            counts = summary["totals"]
            print(
                f"trace {pid}: homology.kouchnirenko_calls "
                f"{counts['homology.kouchnirenko_calls']}, "
                f"nondegeneracy.certify_face_calls "
                f"{counts['nondegeneracy.certify_face_calls']}, "
                f"nondegeneracy.faces {counts['nondegeneracy.faces']}"
            )
            for key, value in summary["totals"].items():
                totals[key] = totals.get(key, 0) + value
            spans.extend(summary["spans"])
            untraced += plain.seconds
            traced += c.seconds
        (self.workdir / "spans.json").write_text(json.dumps(spans), encoding="utf-8")
        totals["trace.overhead_frac"] = traced / untraced - 1.0 if untraced else 0.0
        return totals


def declared(kind):
    """The (name, unit) of each metric of ``kind`` that BENCHMARK.json lists."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return [(m["name"], m["unit"]) for m in json.load(fh)[kind]]


def time_metrics(workload, times, setup, seconds):
    """The time metrics of a run; ``seconds`` gives a child's time by index."""
    times = {pid: [seconds(i) for i in ts] for pid, ts in times.items() if ts}
    flat = sorted(t for ts in times.values() for t in ts)
    medians = {pid: statistics.median(ts) for pid, ts in times.items()}
    slowest = max(medians, key=medians.get)
    out = {
        "wall_s": (sum(medians.values()), f"{len(medians)} problems"),
        "problem_s.p50": (statistics.median(flat), f"{len(flat)} samples"),
        "max_problem_s": (
            medians[slowest], f"{len(times[slowest])} samples of {slowest}"
        ),
        "setup_s": (
            statistics.median(seconds(i) for i in setup) if setup else 0.0,
            f"{len(setup)} samples",
        ),
    }
    if workload == "sweep" and len(flat) >= 10:
        out["problem_s.p90"] = (
            statistics.quantiles(flat, n=10)[-1], f"{len(flat)} samples"
        )
    return out


def end_to_end(run, times, setup):
    """The declared end-to-end metrics and the printed extras of a timed run.

    Times are host-normalized (``Run.normalized``); the note keeps the raw
    value.
    """
    raw = time_metrics(run.workload, times, setup, run.raw_seconds.__getitem__)
    values = {
        name: (value, "s", f"{note}; raw {raw[name][0]:.4g} s")
        for name, (value, note) in time_metrics(
            run.workload, times, setup, run.normalized
        ).items()
    }
    values["peak_rss_mb"] = (run.peak_rss_mb, "MB", f"{run.attempted} processes")
    metrics = {}
    for name, unit in declared("end_to_end"):
        value, _, note = values.pop(name)
        metrics[name] = (value, unit, note)
    return metrics, values


def per_layer(totals):
    out = {}
    for name, unit in declared("per_layer"):
        if name in RATIOS:
            num, den = RATIOS[name]
            value = totals.get(num, 0) / totals[den] if totals.get(den) else 0.0
        else:
            value = totals.get(name, 0)
        out[name] = (value, unit, "1 traced pass")
    return out


def normalized(metrics, ref):
    """Scale every time by the run's mean loop time ``ref``, for the traced
    run; keep the raw value in the note."""
    out = {}
    for name, (value, unit, note) in metrics.items():
        if unit == "s":
            note = f"{note}; raw {value:.4g} s"
            value *= REF_NOMINAL_S / ref
        out[name] = (value, unit, note)
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=problems.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "gkzrank" / "cli.py").is_file():
        print(f"error: no gkzrank sources under {SRC}", file=sys.stderr)
        return 2
    workdir = WORK / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    pin_to_one_cpu()
    run = Run(args.workload, args.seed, workdir)
    if args.trace:
        metrics, extra = per_layer(run.traced()), {}
        metrics = normalized(metrics, statistics.mean(run.ref_loops))
    else:
        times, setup = run.timed(args.seconds)
        (workdir / "samples.json").write_text(json.dumps({
            "problems": times, "setup": setup,
            "raw_seconds": run.raw_seconds, "ref_loops": run.ref_loops,
        }), encoding="utf-8")
        metrics, extra = end_to_end(run, times, setup)
    run.check_reports()
    (metrics if args.trace else extra)["host.ref_loop_s"] = (
        statistics.mean(run.ref_loops), "s", f"mean of {len(run.ref_loops)}"
    )
    extra["failed_frac"] = (
        len(run.failures) / run.attempted, "ratio", f"{run.attempted} runs"
    )
    for key, value in run.stats.items():
        extra[f"generator.{key}"] = (value, "count", f"seed {args.seed}")
    for reason in run.failures:
        print(f"FAILED {reason}")
    for name, (value, unit, samples) in {**metrics, **extra}.items():
        print(f"{args.workload:<10} {name:<34} {value:>14.6g} {unit:<6} ({samples})")
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit, _) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
