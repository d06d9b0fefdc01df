"""Benchmark of the eqcert command line: analyze, certify, verify, contest, simulate.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload random-games --seed 1 --seconds 20 --trace 0

One closed-loop caller runs the workload's command lines through
`eqcert.cli.main` in this process, one after another, pass after pass, until
`--seconds` have passed.  Every command's decisions are compared with
`fingerprints.json`.  With `--trace 0` the last line of output holds the
end-to-end metrics; with `--trace 1` it holds the per-layer metrics of two
traced passes, whose exact counters must agree.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from collections import defaultdict
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import checks
import speed
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SETUPS = 15


def _setup(workload: str, variant: int, workdir: Path):
    """Import eqcert afresh and write the workload's inputs; returns (seconds, ops)."""
    for name in [n for n in sys.modules if n == "eqcert" or n.startswith("eqcert.")]:
        del sys.modules[name]
    start = time.perf_counter()
    importlib.import_module("eqcert.cli")
    ops = workloads.build(workload, variant, workdir)
    return time.perf_counter() - start, ops


class Runner:
    """Runs passes over the command lines and counts failed operations."""

    def __init__(self, ops, expected: dict):
        self.ops = [op for op in ops if op.timed]
        self.prepare = [op for op in ops if not op.timed]
        self.expected = expected
        self.cli = importlib.import_module("eqcert.cli")
        self.attempted = 0
        self.failed = 0
        self.tracer = None
        self.reference: list[float] = []

    def _fail(self, op, why: str) -> None:
        self.failed += 1
        if self.failed <= 10:
            print(f"FAILED {op.key}: {why}", file=sys.stderr)

    def run_prepare(self) -> None:
        """Run the untimed commands that write inputs for later ones, once."""
        for op in self.prepare:
            self._run(op)

    def run_pass(self) -> list[float]:
        """One pass; returns the wall seconds of each command.

        A machine-speed sample follows each command; the pass's mean time per
        reference call is appended to `self.reference`.
        """
        times, reference, calls = [], 0.0, 0
        for op in self.ops:
            times.append(self._run(op))
            seconds, n = speed.sample_after(times[-1])
            reference, calls = reference + seconds, calls + n
        self.reference.append(reference / calls)
        return times

    def _run(self, op) -> float:
        """Run one command and check it; returns its wall seconds."""
        if op.output:
            Path(op.output).unlink(missing_ok=True)
        sink = io.StringIO()
        with redirect_stdout(sink), redirect_stderr(sink):
            start = time.perf_counter()
            if self.tracer:
                self.tracer.kind = op.kind
                self.tracer.begin("cli")
            try:
                rc = self.cli.main(list(op.argv))
            except Exception as exc:  # a crash is a failed operation
                rc, error = None, repr(exc)
            finally:
                if self.tracer:
                    self.tracer.end()
            elapsed = time.perf_counter() - start
        self.attempted += 1
        if rc is None:
            self._fail(op, f"raised {error}")
            return elapsed
        try:
            fp = checks.fingerprint(op, rc)
        except (OSError, ValueError, KeyError) as exc:
            self._fail(op, f"unreadable output: {exc!r}")
            return elapsed
        if rc != checks.expected_rc(op, fp):
            self._fail(op, f"exit code {rc}: {sink.getvalue().strip()[-300:]}")
        elif fp != self.expected.get(op.key):
            self._fail(op, f"decisions {fp} differ from {self.expected.get(op.key)}")
        return elapsed

    def by_kind(self, passes: list[list[float]], combine) -> dict[str, float]:
        """Seconds per command kind: each command's times combined over passes, summed."""
        totals = dict.fromkeys(workloads.KINDS, 0.0)
        for op, samples in zip(self.ops, zip(*passes)):
            totals[op.kind] += combine(samples)
        return totals


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _end_to_end(setup_s: float, kinds: dict[str, float], rss_mb: float) -> dict:
    values = {
        "setup_s": (setup_s, "s"),
        "round_s": (sum(kinds.values()), "s"),
        "analyze_s": (kinds["analyze"], "s"),
        "certify_s": (kinds["certify"], "s"),
        "verify_s": (kinds["verify"], "s"),
        "peak_rss_mb": (rss_mb, "MiB"),
    }
    return {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _per_layer(snapshots, scale: float, untraced: dict[str, float],
               traced: dict[str, float], discretize_s: float) -> dict:
    """Per-layer metrics: times are the mean of the traced passes, times `scale`.

    `untraced` and `traced` give nominal seconds per command kind for the same
    commands.
    """
    def total(span):
        return scale * statistics.fmean(s["total"].get(span, 0.0) for s in snapshots)

    def self_time(span):
        return scale * statistics.fmean(s["self"].get(span, 0.0) for s in snapshots)

    snap = snapshots[-1]
    calls, counts, maxima = snap["calls"], snap["counts"], snap["maxima"]
    pivots = counts.get("lp.phase1_pivots", 0) + counts.get("lp.reopt_pivots", 0)
    values = {
        "lp.solvers": (counts.get("lp.solvers", 0), "count"),
        "lp.phase1_s": (total("lp.phase1"), "s"),
        "lp.phase1_pivots": (counts.get("lp.phase1_pivots", 0), "count"),
        "lp.artificials": (counts.get("lp.artificials", 0), "count"),
        "lp.reopt_calls": (calls.get("lp.reopt", 0), "count"),
        "lp.reopt_s": (total("lp.reopt"), "s"),
        "lp.reopt_pivots": (counts.get("lp.reopt_pivots", 0), "count"),
        "lp.pivot_ms": (_ratio(1000.0 * (total("lp.phase1") + total("lp.reopt")), pivots),
                        "ms"),
        "lp.max_entry_bits": (maxima.get("lp.max_entry_bits", 0), "bits"),
        "lp.max_tableau_cells": (maxima.get("lp.max_tableau_cells", 0), "count"),
        "polytopes.build_calls": (calls.get("polytopes.build", 0), "count"),
        "polytopes.build_s": (total("polytopes.build"), "s"),
        "polytopes.singleton_calls": (calls.get("polytopes.singleton", 0), "count"),
        "polytopes.singleton_s": (total("polytopes.singleton"), "s"),
        "polytopes.membership_calls": (calls.get("polytopes.membership", 0), "count"),
        "polytopes.membership_s": (total("polytopes.membership"), "s"),
        "zerosum.maximin_calls": (calls.get("zerosum.maximin", 0), "count"),
        "zerosum.maximin_s": (total("zerosum.maximin"), "s"),
        "zerosum.matrix_value_calls": (calls.get("zerosum.matrix_value", 0), "count"),
        "zerosum.matrix_value_s": (total("zerosum.matrix_value"), "s"),
        "certify.cce_calls": (calls.get("certify.cce", 0), "count"),
        "certify.cce_s": (total("certify.cce"), "s"),
        "certify.ircp_s": (total("certify.ircp"), "s"),
        "certify.classify_s": (total("certify.classify"), "s"),
        "certify.gue_s": (total("certify.gue"), "s"),
        "certify.verify_s": (total("certify.verify"), "s"),
        "report.build_self_s": (self_time("report.build"), "s"),
        "report.verify_self_s": (self_time("report.verify"), "s"),
        "cli.self_s": (self_time("cli"), "s"),
        "games.load_s": (total("games.load"), "s"),
        "contests.discretize_s": (scale * discretize_s, "s"),
        "contests.prop3_s": (total("contests.prop3"), "s"),
        "contests.band_s": (total("contests.band"), "s"),
        "dynamics.steps": (counts.get("dynamics.steps", 0), "count"),
        "dynamics.mw_steps_per_s": (_ratio(counts.get("dynamics.external_mw.steps", 0),
                                           self_time("dynamics.external_mw")), "1/s"),
        "dynamics.rm_steps_per_s": (_ratio(counts.get("dynamics.internal_rm.steps", 0),
                                           self_time("dynamics.internal_rm")), "1/s"),
        "dynamics.regret_s": (total("dynamics.regret"), "s"),
        "cli.contest_s": (untraced["contest"], "s"),
        "cli.simulate_s": (untraced["simulate"], "s"),
        "trace.round_overhead": (_ratio(sum(traced.values()), sum(untraced.values())),
                                 "ratio"),
    }
    for kind in ("analyze", "certify", "verify"):
        values[f"trace.{kind}_overhead"] = (_ratio(traced[kind], untraced[kind]), "ratio")
    return {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}


def _snapshot(tracer: tracing.Tracer) -> dict:
    return {"total": dict(tracer.total), "self": dict(tracer.self_time),
            "calls": dict(tracer.calls), "counts": dict(tracer.counts),
            "maxima": dict(tracer.maxima), "by_kind": dict(tracer.by_kind)}


def _layer_shares(snapshots) -> dict:
    """Share of each command kind's traced time spent in each span (inclusive).

    Spans nest (a maximin solves LPs), so the shares of one kind may sum past
    1.  `round` is the share of all commands together.
    """
    totals: dict = defaultdict(float)
    for snap in snapshots:
        for (kind, span), seconds in snap["by_kind"].items():
            totals[(kind, span)] += seconds
            totals[("round", span)] += seconds
    shares: dict = {}
    for (kind, span), seconds in sorted(totals.items()):
        whole = totals.get((kind, "cli"), 0.0)
        if span != "cli" and whole and seconds / whole >= 0.001:
            shares.setdefault(kind, {})[span] = round(seconds / whole, 3)
    return shares


def _timed_passes(runner: Runner, seconds: float, minimum: int = 1) -> list[list[float]]:
    passes = []
    start = time.perf_counter()
    while len(passes) < minimum or time.perf_counter() - start < seconds:
        passes.append(runner.run_pass())
    return passes


def _nominal(passes: list[list[float]], reference: list[float]) -> list[list[float]]:
    """Scale each pass's times to the nominal machine speed (see speed.py)."""
    return [[t * speed.NOMINAL_S / ref for t in times]
            for times, ref in zip(passes, reference)]


def _traced(runner: Runner, workload: str, variant: int, workdir: Path, seconds: float):
    """Untraced passes, then two traced passes whose exact counters must agree."""
    untraced = _timed_passes(runner, seconds / 2, minimum=2)
    untraced = _nominal(untraced, runner.reference[-len(untraced):])
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        workloads.build(workload, variant, workdir)
        discretize_s = tracer.total.get("contests.discretize", 0.0)
        runner.tracer = tracer
        snapshots, counters, traced = [], [], []
        for _ in range(2):
            tracer.reset()
            traced.append(runner.run_pass())
            snapshots.append(_snapshot(tracer))
            counters.append(tracer.exact_counters())
    finally:
        runner.tracer = None
        uninstall()
    reproducible = counters[0] == counters[1]
    if not reproducible:
        diff = {k: (counters[0].get(k), counters[1].get(k))
                for k in set(counters[0]) | set(counters[1])
                if counters[0].get(k) != counters[1].get(k)}
        print(f"COUNTERS DIFFER between traced passes: {diff}", file=sys.stderr)
    references = runner.reference[-len(traced):]
    scale = speed.NOMINAL_S / statistics.fmean(references)
    metrics = _per_layer(snapshots, scale, runner.by_kind(untraced, statistics.median),
                         runner.by_kind(_nominal(traced, references), statistics.fmean),
                         discretize_s)
    return metrics, reproducible, _layer_shares(snapshots)


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = ROOT / ".git" / name
        if path.is_file():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _metadata(args, variant: int, runner: Runner, passes: int, extra: dict) -> dict:
    affinity = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    return {"workload": args.workload, "seed": args.seed, "variant": variant,
            "trace": args.trace, "seconds": args.seconds, "commit": _git_commit(),
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "affinity": affinity, "setups": SETUPS, "ops_per_pass": len(runner.ops),
            "timed_passes": passes,
            "reference_call_s": statistics.median(runner.reference), **extra}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if hasattr(os, "sched_setaffinity"):
        # One CPU for the whole run: no migrations between CPUs mid-command.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    source = ROOT / "src"
    if not (source / "eqcert" / "__init__.py").is_file():
        print(f"error: no eqcert sources under {source}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(source))
    expected = checks.load_expected()[args.workload]
    variant = args.seed % workloads.POOL

    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        setups, wall_setups = [], []
        for _ in range(SETUPS):
            elapsed, ops = _setup(args.workload, variant, workdir)
            # A reference sample as long as the set-up, right after it.
            calls = max(speed.CALLS, round(elapsed / speed.NOMINAL_S))
            setups.append(elapsed * speed.NOMINAL_S * calls / speed.sample(calls))
            wall_setups.append(elapsed)
        runner = Runner(ops, expected)
        runner.run_prepare()
        # The collector should walk only what the commands allocate, as in a
        # process that runs one command, not the fingerprints and the module
        # copies left by the set-ups.
        gc.collect()
        gc.freeze()
        runner.run_pass()  # warm-up, checked but not timed
        # The peak creeps up by a fraction of a MiB with each further pass,
        # and the number of passes follows the machine's speed, so the peak
        # is read after a fixed amount of work.
        rss_mb = _peak_rss_mb()
        if args.trace:
            metrics, correct, shares = _traced(runner, args.workload, variant, workdir,
                                               args.seconds)
            passes, extra = 2, {"layer_shares": shares}
        else:
            timed = _timed_passes(runner, args.seconds)
            nominal = _nominal(timed, runner.reference[-len(timed):])
            metrics = _end_to_end(statistics.median(setups),
                                  runner.by_kind(nominal, statistics.median), rss_mb)
            correct, passes = True, len(timed)
            wall = runner.by_kind(timed, statistics.median)
            extra = {"wall_s": {"setup_s": statistics.median(wall_setups),
                                "round_s": sum(wall.values()),
                                **{f"{k}_s": wall[k] for k in ("analyze", "certify", "verify")}}}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(json.dumps({"meta": _metadata(args, variant, runner, passes, extra)}))
    print(json.dumps({"correct": correct and runner.failed == 0,
                      "attempted": runner.attempted, "failed": runner.failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
