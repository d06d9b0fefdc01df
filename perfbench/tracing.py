"""Per-layer spans and exact counters, recorded from outside the program.

`install` replaces public functions of the eqcert modules, and two methods
of `lp.PolytopeSolver`, with wrappers that open a span around each call.
A function is replaced in every eqcert module that holds it, so calls made
through `from .x import f` are traced as well.  `uninstall` puts the
originals back.

Exact counters are read after each wrapped call: pivots, artificials and
tableau size from the solver's standard form, steps and a hash of the
empirical distribution from each dynamics run.  With exact arithmetic these
repeat exactly from run to run.
"""

from __future__ import annotations

import hashlib
import sys
import time
from collections import Counter, defaultdict

# (module, function, span) for plain functions.  singleton_over_system is the
# common core of is_singleton and the direct calls from certify.
FUNCTION_SPANS = (
    ("games", "load_game", "games.load"),
    ("report", "build_report", "report.build"),
    ("report", "verify_report", "report.verify"),
    ("polytopes", "build_polytope", "polytopes.build"),
    ("polytopes", "singleton_over_system", "polytopes.singleton"),
    ("polytopes", "membership", "polytopes.membership"),
    ("zerosum", "maximin", "zerosum.maximin"),
    ("zerosum", "matrix_value", "zerosum.matrix_value"),
    ("certify", "certify_unique_ircp", "certify.ircp"),
    ("certify", "certify_unique_pure_cce", "certify.cce"),
    ("certify", "classify_unique_cce", "certify.classify"),
    ("certify", "is_gue", "certify.gue"),
    ("certify", "is_strict_fractional_gue", "certify.gue"),
    ("certify", "verify_certificate", "certify.verify"),
    ("certify", "verify_refutation", "certify.verify"),
    ("contests", "discretize", "contests.discretize"),
    ("contests", "verify_prop3", "contests.prop3"),
    ("contests", "ratio_band_check", "contests.band"),
    ("dynamics", "external_regret", "dynamics.regret"),
    ("dynamics", "internal_regret", "dynamics.regret"),
)


class Tracer:
    """Inclusive time, self time and call count per span name, plus counters."""

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.maxima: dict[str, int] = defaultdict(int)
        self.hashes: list[str] = []
        # Inclusive time per (command kind, span); the runner sets `kind`.
        self.kind: str | None = None
        self.by_kind: dict[tuple, float] = defaultdict(float)
        self._stack: list[list] = []

    def begin(self, name: str) -> None:
        self._stack.append([name, time.perf_counter(), 0.0])

    def end(self) -> None:
        name, start, children = self._stack.pop()
        duration = time.perf_counter() - start
        self.total[name] += duration
        self.self_time[name] += duration - children
        self.calls[name] += 1
        self.by_kind[(self.kind, name)] += duration
        if self._stack:
            self._stack[-1][2] += duration

    def record_form(self, form) -> None:
        """Tableau size and the largest entry's bit length, denominator included."""
        cells = len(form.rows) * (form.ncols + 1)
        self.maxima["lp.max_tableau_cells"] = max(self.maxima["lp.max_tableau_cells"], cells)
        bits = max((abs(v).bit_length() for row in form.rows for v in row), default=0)
        bits = max(bits, abs(form.det).bit_length())
        self.maxima["lp.max_entry_bits"] = max(self.maxima["lp.max_entry_bits"], bits)

    def exact_counters(self) -> dict:
        """Everything that must repeat exactly between two traced passes."""
        out = {f"{name}.calls": n for name, n in sorted(self.calls.items())}
        out.update(sorted(self.counts.items()))
        out.update(sorted(self.maxima.items()))
        out["dynamics.hashes"] = list(self.hashes)
        return out


def _eqcert_modules():
    return [m for name, m in sys.modules.items()
            if (name == "eqcert" or name.startswith("eqcert.")) and m is not None]


def _span_wrapper(tracer: Tracer, name: str, func):
    def wrapper(*args, **kwargs):
        tracer.begin(name)
        try:
            return func(*args, **kwargs)
        finally:
            tracer.end()
    wrapper.__wrapped__ = func
    return wrapper


def _dynamics_wrapper(tracer: Tracer, func):
    def run(game, algorithm, steps, seed, *args, **kwargs):
        tracer.begin(f"dynamics.{algorithm}")
        try:
            outcome = func(game, algorithm, steps, seed, *args, **kwargs)
        finally:
            tracer.end()
        tracer.counts["dynamics.steps"] += steps
        tracer.counts[f"dynamics.{algorithm}.steps"] += steps
        digest = hashlib.sha256(repr(sorted(outcome.empirical.weights.items())).encode())
        tracer.hashes.append(digest.hexdigest()[:16])
        return outcome
    run.__wrapped__ = func
    return run


def install(tracer: Tracer):
    """Wrap the eqcert layers; returns a function that restores the originals."""
    from eqcert import dynamics, lp

    modules = _eqcert_modules()
    undo = []

    def replace(original, wrapper):
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    undo.append((module, attr, original))

    for module_name, attr, span in FUNCTION_SPANS:
        original = getattr(sys.modules[f"eqcert.{module_name}"], attr)
        replace(original, _span_wrapper(tracer, span, original))
    replace(dynamics.run, _dynamics_wrapper(tracer, dynamics.run))

    solver = lp.PolytopeSolver
    init, optimize = solver.__init__, solver.optimize

    def traced_init(self, system):
        tracer.begin("lp.phase1")
        try:
            init(self, system)
        finally:
            tracer.end()
        form = self._form
        tracer.counts["lp.solvers"] += 1
        tracer.counts["lp.phase1_pivots"] += form.pivots_used
        tracer.counts["lp.artificials"] += len(form.artificials)
        tracer.record_form(form)

    def traced_optimize(self, objective, maximize):
        before = self._form.pivots_used
        tracer.begin("lp.reopt")
        try:
            return optimize(self, objective, maximize)
        finally:
            tracer.end()
            tracer.counts["lp.reopt_pivots"] += self._form.pivots_used - before
            tracer.record_form(self._form)

    solver.__init__, solver.optimize = traced_init, traced_optimize
    undo.append((solver, "__init__", init))
    undo.append((solver, "optimize", optimize))

    def uninstall():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall
