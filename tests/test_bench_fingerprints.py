"""The benchmark's decision fingerprints, replayed as a test.

For each workload of `perfbench/workloads.py`, variant 0's inputs are built
into a temporary directory and each command line runs once through
`eqcert.cli.main`: the untimed commands first, whose outputs later commands
read, then the timed ones, as a benchmark run orders them.  Every exit code
and every decision fingerprint (`perfbench/checks.py`) must equal the one
recorded in `perfbench/fingerprints.json`, and so must those of the analyze
--check-unique and certify commands run again with `zerosum.matrix_value`
made to raise, as certificate weights are uniform or come from a singleton
test's dual, and again with `polytopes.is_singleton` made to raise on an
IRCP polytope, as the IRCP decision reads the weight search
(`polytopes.GameAnalysis.weights`) instead.  The two modules are loaded by
file path under private names, so their bare names shadow no other module,
and nothing under `perfbench/` is written.

The reports that variant 0 writes also gate what `verify` may run: no
maximin LP on any workload, no LP at all where no claim needs one, and
otherwise one singleton test per strict fractional GUE flag whose profile
meets the unilateral guarantee and that uniform weights do not settle; one
membership check per distribution,
as each is written once, under `concepts`; and no CE, CCE or IRCP row
written (`polytopes.write_rows`).

Every `certify --json` refutation of variant 0 must re-check clean by
`certify.verify_refutation`, which no CLI command runs on such a bare file,
and every certificate by `certify.verify_certificate` with no LP solver built.
No analyze command whose report certifies a unique pure CCE builds a solver
on the CCE polytope's system, as the "cce" P(a*) weights decide that CCE.
No analyze, certify or verify command builds a `Game` beyond the one it
loads, and the 2x2 subgame of a unique_mixed_2x2 classification: every
question about a candidate profile a* reads the gain table at a*.
The pivots that variant 0's command lines take, summed per command kind,
and the bit length of the largest basis determinant any of their tableaux
ends at, must equal recorded values: exact arithmetic and a deterministic
pivot rule repeat them exactly, so any change to the LP path or its bit
growth shows there.

`perfbench/tracing.py` reads the standard form's attributes after phase 1
and after each `optimize`; a test runs it on CE, CCE and maximin systems, so
that a change to the tableau layout cannot silently break its counters.
Another test checks that every function it wraps by module and name still
exists.  The trajectories of the dynamics workload's simulate command lines,
which the fingerprints do not record, must equal recorded digests.
"""

import contextlib
import dataclasses
import hashlib
import importlib.util
import io
import json
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from eqcert import certify, cli, dynamics, games, generators, polytopes, report, zerosum
from eqcert.lp import PolytopeSolver, _StandardForm

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look a class's module up in sys.modules while it is built
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
checks = _load("checks")
tracing = _load("tracing")


def _in_run_order(ops) -> list:
    """Untimed commands first, as a benchmark run orders them."""
    return [op for op in ops if not op.timed] + [op for op in ops if op.timed]


def _run(ops) -> list:
    """Each command with its exit code, in run order."""
    runs = []
    for op in _in_run_order(ops):
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            runs.append((op, cli.main(list(op.argv))))
    return runs


def _mismatches(workload: str, runs) -> list:
    """The commands whose exit code or fingerprint differs from the recorded one."""
    expected = checks.load_expected()[workload]
    mismatches = []
    for op, rc in runs:
        fp = checks.fingerprint(op, rc)
        if rc != checks.expected_rc(op, fp) or fp != expected.get(op.key):
            mismatches.append((op.key, fp, expected.get(op.key)))
    return mismatches


@pytest.fixture(scope="module", params=workloads.WORKLOADS)
def variant_0(request, tmp_path_factory):
    """Each command of the workload's variant 0 with its exit code, in run order."""
    ops = workloads.build(request.param, 0, tmp_path_factory.mktemp(request.param))
    assert ops
    return request.param, _run(ops)


def test_variant_0_decisions_equal_recorded_fingerprints(variant_0):
    workload, runs = variant_0
    assert _mismatches(workload, runs) == []


def _verify_each_report(runs) -> list:
    """verify_report on every report that a verify command of the variant reads."""
    paths = [op.argv[1] for op, _ in runs if op.kind == "verify"]
    assert paths
    return [report.verify_report(report.load_report(Path(path).read_bytes()))
            for path in paths]


def _refuse(*args, **kwargs):
    raise RuntimeError("this must not be solved here")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_certificates_solve_no_comparison_game(workload, tmp_path, monkeypatch):
    # Every weight search tries uniform weights, then the P(a*) singleton
    # test, whose dual holds the weights, so analyze --check-unique and
    # certify decide alike without the zero-sum comparison game.
    monkeypatch.setattr(zerosum, "matrix_value", _refuse)
    ops = [op for op in workloads.build(workload, 0, tmp_path)
           if op.kind == "certify" or (op.kind == "analyze" and "--check-unique" in op.argv)]
    assert ops
    assert _mismatches(workload, _run(ops)) == []


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_no_command_runs_the_cold_ircp_test(workload, tmp_path, monkeypatch):
    # The IRCP decision reads the kept weight search, or builds its witnesses
    # with no LP; `is_singleton` on an IRCP spec is the tests' reference only.
    own_test = polytopes.is_singleton

    def refusing_ircp(spec, pure_ne=None):
        if spec.concept == "ircp":
            _refuse()
        return own_test(spec, pure_ne)

    monkeypatch.setattr(polytopes, "is_singleton", refusing_ircp)
    ops = [op for op in workloads.build(workload, 0, tmp_path)
           if op.kind in ("analyze", "certify")]
    assert ops
    assert _mismatches(workload, _run(ops)) == []


def test_verify_solves_no_maximin_lp(variant_0, monkeypatch):
    # The levels come from the reports' maximin certificates.
    monkeypatch.setattr(zerosum, "maximin", _refuse)
    assert all(problems == [] for problems in _verify_each_report(variant_0[1]))


@pytest.mark.parametrize("variant_0", ["random-games", "tullock-grid"], indirect=True)
def test_verify_builds_no_solver(variant_0, monkeypatch):
    # Every claim of these reports re-checks without an LP.  On the other
    # two workloads each strict fractional GUE flag whose profile meets the
    # unilateral guarantee still needs one singleton test.
    monkeypatch.setattr(PolytopeSolver, "__init__", _refuse)
    assert all(problems == [] for problems in _verify_each_report(variant_0[1]))


@pytest.mark.parametrize("variant_0", ["singleton-sweep", "dynamics"], indirect=True)
def test_verify_builds_one_solver_per_guaranteed_gue_flag(variant_0, monkeypatch):
    # The one LP-backed claim left is the strict fractional GUE flag, and it
    # is one singleton test when the profile meets the unilateral guarantee,
    # unless uniform weights on a symmetric game settle it.
    built = []
    real = PolytopeSolver.__init__

    def counting(self, system):
        built.append(system)
        real(self, system)

    monkeypatch.setattr(PolytopeSolver, "__init__", counting)
    paths = [op.argv[1] for op, _ in variant_0[1] if op.kind == "verify"]
    tested = settled = 0
    for path in paths:
        data = report.load_report(Path(path).read_bytes())
        game = games.game_from_dict(data["game"])
        symmetric = games.is_symmetric(game)
        uniform = (Fraction(1, game.num_players),) * game.num_players
        expected = 0
        for entry in data.get("gue", []):
            profile = tuple(entry["profile"])
            if not certify._unilateral_guarantee(game, profile):
                continue
            if symmetric and games._gain_slack(game, profile, uniform, "ircp") is not None:
                settled += 1
            else:
                expected += 1
        built.clear()
        assert report.verify_report(data) == []
        assert len(built) == expected, path
        tested += expected
    assert tested > 0 and settled > 0


# `polytopes.membership` calls that verifying every report of variant 0
# makes: one per distribution, as each is written once, under `concepts`.
MEMBERSHIP_CHECKS = {"random-games": 137, "singleton-sweep": 97, "tullock-grid": 6, "dynamics": 15}


def test_verify_checks_each_distribution_once(variant_0, monkeypatch):
    # A certificate holds weights or a reason, and the classification its
    # variant, plus a mixed variant's mixers, subgame and NE, which are no
    # joint distributions; every distribution sits under `concepts`.
    workload, runs = variant_0
    checked = []
    membership = polytopes.membership
    monkeypatch.setattr(polytopes, "membership",
                        lambda spec, mu: checked.append(mu) or membership(spec, mu))
    total = 0
    for path in [op.argv[1] for op, _ in runs if op.kind == "verify"]:
        data = report.load_report(Path(path).read_bytes())
        for entry in data.get("certificates", {}).values():
            assert set(entry) <= {"type", "concept", "a_star", "gamma", "slack", "reason"}
        assert set(data.get("classification", {})) <= {"variant", "mixers", "subgame", "ne"}
        written = sum(1 if entry["singleton"] else len(entry["witnesses"])
                      for entry in data.get("concepts", {}).values())
        checked.clear()
        assert report.verify_report(data) == []
        assert len(checked) == written, path
        total += written
    assert total == MEMBERSHIP_CHECKS[workload]


def test_verify_writes_no_polytope_row(variant_0, monkeypatch):
    # Membership reads the integer payoffs over each distribution's support,
    # and no claim that verify re-checks needs a CE, CCE or IRCP row.
    written = []
    monkeypatch.setattr(polytopes, "write_rows", lambda spec: written.append(spec) or _refuse())
    assert all(problems == [] for problems in _verify_each_report(variant_0[1]))
    assert written == []


# Refutations among variant 0's `certify --json` files.
CERTIFY_REFUTATIONS = {"random-games": 46, "singleton-sweep": 26, "tullock-grid": 2, "dynamics": 1}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_certify_refutations_recheck_clean(workload, tmp_path):
    # No CLI command re-checks the witnesses of a bare refutation file.
    ops = [op for op in workloads.build(workload, 0, tmp_path) if op.kind == "certify"]
    refutations = 0
    for op, _ in _run(ops):
        data = json.loads(Path(op.output).read_text())
        if "witnesses" in data:
            game = games.load_game(Path(op.argv[1]).read_bytes())
            assert certify.verify_refutation(game, data) == [], op.key
            refutations += 1
    assert refutations == CERTIFY_REFUTATIONS[workload]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_certify_certificates_verify_without_a_solver(workload, tmp_path, monkeypatch):
    # A bare certificate file carries no levels; its check is on the payoffs alone.
    ops = [op for op in workloads.build(workload, 0, tmp_path) if op.kind == "certify"]
    runs = _run(ops)
    monkeypatch.setattr(PolytopeSolver, "__init__", _refuse)
    certificates = 0
    for op, _ in runs:
        data = json.loads(Path(op.output).read_text())
        if "gamma" in data:
            game = games.load_game(Path(op.argv[1]).read_bytes())
            assert certify.verify_certificate(game, data) == [], op.key
            certificates += 1
    assert certificates > 0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_a_certified_cce_builds_no_cce_solver(workload, tmp_path, monkeypatch):
    # At a lone strict pure NE the "cce" P(a*) weights decide a one-point
    # CCE and are the certificate's weights, so no CCE LP runs.
    built = []
    init = PolytopeSolver.__init__

    def recording(self, system):
        built.append(dataclasses.replace(system, start=None))
        init(self, system)

    monkeypatch.setattr(PolytopeSolver, "__init__", recording)
    certified = 0
    for op in _in_run_order(workloads.build(workload, 0, tmp_path)):
        built.clear()
        _run([op])
        if op.kind != "analyze":
            continue
        data = json.loads(Path(op.output).read_text())
        if data["certificates"]["cce"]["type"] == "certificate":
            game = games.game_from_dict(data["game"])
            assert polytopes.build_polytope(game, "cce").system not in built, op.key
            certified += 1
    assert certified > 0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_commands_build_no_game_beyond_the_loaded_one(workload, tmp_path, monkeypatch):
    built = []
    post_init = games.Game.__post_init__
    monkeypatch.setattr(games.Game, "__post_init__",
                        lambda self: built.append(self) or post_init(self))
    subgames = 0
    for op in _in_run_order(workloads.build(workload, 0, tmp_path)):
        built.clear()
        _run([op])
        if op.kind not in ("analyze", "certify", "verify"):
            continue
        report_path = {"analyze": op.output, "verify": op.argv[1]}.get(op.kind)
        mixed = report_path is not None and json.loads(Path(report_path).read_text()).get(
            "classification", {}).get("variant") == certify.UNIQUE_MIXED_2X2
        assert len(built) == 1 + mixed, op.key
        assert all(game.shape == (2, 2) for game in built[1:]), op.key
        subgames += mixed
    assert subgames == {"singleton-sweep": 16}.get(workload, 0)


# Pivots of every LP that variant 0's command lines solve, summed per kind:
# `_StandardForm.pivots_used` over phase 1 and every re-optimization.
PIVOTS = {
    "random-games": {"analyze": 373, "certify": 199, "verify": 0},
    "singleton-sweep": {"analyze": 136, "certify": 134, "verify": 11},
    "tullock-grid": {"analyze": 0, "certify": 11, "verify": 0, "contest": 0},
    "dynamics": {"analyze": 37, "certify": 2, "verify": 2, "simulate": 0},
}

# The largest `_StandardForm.det.bit_length()` over the same LPs per kind,
# each read at the basis its last run left; 0 where a kind solves no LP.
MAX_DET_BITS = {
    "random-games": {"analyze": 18, "certify": 9, "verify": 0},
    "singleton-sweep": {"analyze": 10, "certify": 10, "verify": 3},
    "tullock-grid": {"analyze": 0, "certify": 120, "verify": 0, "contest": 0},
    "dynamics": {"analyze": 8, "certify": 1, "verify": 1, "simulate": 0},
}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_variant_0_pivots_per_command_kind(workload, tmp_path, monkeypatch):
    forms = []
    init = _StandardForm.__init__

    def recording(self, system):
        init(self, system)
        forms.append(self)

    monkeypatch.setattr(_StandardForm, "__init__", recording)
    pivots = Counter()
    det_bits = Counter()
    for op in _in_run_order(workloads.build(workload, 0, tmp_path)):
        forms.clear()
        _run([op])
        pivots[op.kind] += sum(form.pivots_used for form in forms)
        det_bits[op.kind] = max([det_bits[op.kind], *(form.det.bit_length() for form in forms)])
    assert dict(pivots) == PIVOTS[workload]
    assert dict(det_bits) == MAX_DET_BITS[workload]


def test_tracer_reads_every_standard_form(monkeypatch):
    # Every row holds ncols + 1 entries, as `Tracer.record_form` counts the
    # tableau's cells, and the record runs after each phase 1 and optimize.
    tracer = tracing.Tracer()
    record = tracer.record_form
    forms = []

    def checked(form):
        assert all(len(row) == form.ncols + 1 for row in form.rows)
        forms.append(form)
        record(form)

    monkeypatch.setattr(tracer, "record_form", checked)
    game = generators.random_game((3, 3), 5, high=1)
    uninstall = tracing.install(tracer)
    try:
        for concept in ("ce", "cce"):
            polytopes.is_singleton(polytopes.build_polytope(game, concept))
        # Matching pennies has no pure saddle point, so its maximin is an LP.
        zerosum.maximin(generators.matching_pennies(), 0)
    finally:
        uninstall()
    assert tracer.counts["lp.solvers"] >= 3 and tracer.calls["lp.reopt"] > 0
    assert len(forms) == tracer.counts["lp.solvers"] + tracer.calls["lp.reopt"]
    assert tracer.counts["lp.phase1_pivots"] + tracer.counts["lp.reopt_pivots"] > 0
    assert tracer.maxima["lp.max_tableau_cells"] > 0 and tracer.maxima["lp.max_entry_bits"] > 0


# sha256 of `repr(sorted(empirical.weights.items()))` and of
# `repr(final_strategies)` for each simulate command line of the dynamics
# workload's variant 0, whose fingerprints record only `certificate_profile`.
TRAJECTORIES = {
    "pd.external_mw-s0": (
        "b320a16d9fb7b5eae618a03358e37cca780a50dacb9549454f2aff2c46aff8ae",
        "f33463ce496eefa96995ad7965dce610d999f43399815e4aa838f3c5e93ee280"),
    "parking.external_mw-s1": (
        "5643aaf53abc911715e7bf83903626cee259233d584807bf47a9679cd5b4403a",
        "4b9c3343631f90b9c829a48b2dd0cb3a416709c2aaad712e82ec7379ad6f95c1"),
    "tullock16.external_mw-s2": (
        "6d605e12cecb0ce9997b6b8518a7d083c0445b93aafd0d7f88c09afb2eaeb2d5",
        "8c907ee06c978dc25f8b86bf467d37c4f870752033cae9e50d1bbec233827df7"),
    "rps.internal_rm-s3": (
        "2a887669bc84f4bf333b50d2f79f1d2b1f6b2d36b141205bf23f28733ca9eaf7",
        "11da1c5cea1530cb0202050594566071a2710373e68616ff4a1ca704ffa5479a"),
    "parking.internal_rm-s4": (
        "5cd3d7e888c85241683bc4c3a0630b88e5d3367eab6f0008730cfe3e75b2215c",
        "ebe050fd6fe25f97a010fbd82a621304ba9f823a3001282ae3942ebd0e0e4970"),
}


def test_dynamics_trajectories_equal_recorded_digests(tmp_path, monkeypatch):
    # The benchmark checks a simulate command only by its certificate
    # profile, so a changed trajectory would pass it unseen.
    outcomes = []
    run = dynamics.run

    def recording(*args, **kwargs):
        outcomes.append(run(*args, **kwargs))
        return outcomes[-1]

    monkeypatch.setattr(dynamics, "run", recording)
    ops = [op for op in _in_run_order(workloads.build("dynamics", 0, tmp_path))
           if op.kind == "simulate" or not op.timed]
    runs = _run(ops)
    assert [op.key for op, rc in runs if rc != 0] == []
    simulated = [op.key for op, _ in runs if op.kind == "simulate"]
    digests = {key: tuple(hashlib.sha256(repr(value).encode()).hexdigest()
                          for value in (sorted(outcome.empirical.weights.items()),
                                        outcome.final_strategies))
               for key, outcome in zip(simulated, outcomes, strict=True)}
    assert digests == TRAJECTORIES


def test_every_traced_function_exists():
    # `tracing.install` looks each span's function up by module and name; a
    # renamed or moved function would stop `perfbench/run.py --trace 1`.
    missing = [f"eqcert.{module}.{name}" for module, name, _ in tracing.FUNCTION_SPANS
               if not callable(getattr(importlib.import_module(f"eqcert.{module}"), name, None))]
    assert missing == []

