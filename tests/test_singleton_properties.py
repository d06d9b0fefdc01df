"""Property tests: singleton tests started from the pure Nash equilibria.

`GameAnalysis.singleton` refutes CE and CCE with no LP when a game has two
or more pure NE, and starts the CCE simplex at the point mass of the only
pure NE when there is one; its IRCP decision runs at most the P(a*) test,
started at delta(a*).  Its decisions must equal those of the cold-start
`singleton_over_system` on each concept's own system.  On the same games,
each uniqueness certifier must return a certificate exactly when the cold
singleton test finds a one-profile point.

`GameAnalysis.singleton` also decides down the inclusion chain CE <= CCE <=
IRCP: a singleton larger polytope settles the smaller ones with no LP.  In
any order of the concepts, each chained decision must equal the concept's
own `is_singleton` on a freshly built polytope.

`singleton_over_system` runs at most two LPs.  The per-coordinate test it
replaced, one LP outside the support and then one per support coordinate,
is kept here as the reference: on every system both must give the same
decision and point, and each witness pair must be two distinct members.
The systems include `polytopes.improvement_system` at any profile a*, whose
phase 1 is one crash pivot onto delta(a*).

Each of its LPs stops at the first pivot that leaves the phase-1 vertex x*
(`PolytopeSolver.step_off`).  The path it cuts short, both LPs run to their
optima by `PolytopeSolver.optimize`, is kept here as the second reference:
the decision, the point and its duals must be the reference's, a second
member must be a member other than x*, no test may take more pivots, and a
stop that left x* leaves no dual to read.
"""

import itertools
import random
from dataclasses import replace
from fractions import Fraction
from unittest import mock

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from eqcert import generators, polytopes  # noqa: E402
from eqcert.contests import ContestSpec, LinearCost, TullockRatio, discretize  # noqa: E402
from eqcert.certify import (  # noqa: E402
    UniquenessCertificate,
    certify_unique_ircp,
    certify_unique_pure_cce,
)
from eqcert.games import Game, JointDistribution  # noqa: E402
from eqcert.lp import (  # noqa: E402
    OPTIMAL,
    ConstraintSystem,
    LpError,
    PolytopeSolver,
    SolverInvariantError,
)
from eqcert.report import build_report  # noqa: E402

SHAPES = ((2, 2), (2, 3), (3, 3), (2, 2, 2))
NE_COUNTS = ("none", "one", "several")


def _ne_count(game: Game) -> str:
    count = len(polytopes.enumerate_pure_ne(game))
    return NE_COUNTS[min(count, 2)]


@st.composite
def _tied_game(draw):
    """A small integer game with 0, 1 or at least 2 pure NE, as drawn.

    Payoffs in [0, 2] or [0, 6] tie often, and ties make pure NE common, so
    games come from a seeded generator until one has the wanted count.
    """
    wanted = draw(st.sampled_from(NE_COUNTS))
    shape = draw(st.sampled_from(SHAPES))
    high = draw(st.sampled_from((2, 6)))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    size = 1
    for k in shape:
        size *= k
    actions = tuple(tuple(f"p{i}a{k}" for k in range(n)) for i, n in enumerate(shape))
    for _ in range(200):
        payoffs = tuple(tuple(Fraction(rng.randint(0, high)) for _ in range(size))
                        for _ in shape)
        game = Game(actions, payoffs)
        if _ne_count(game) == wanted:
            return game
    hypothesis.assume(False)


def _cold(game: Game, concept: str) -> polytopes.SingletonResult:
    return polytopes.singleton_over_system(game, polytopes.build_polytope(game, concept).system)


@hypothesis.settings(max_examples=120, deadline=None, derandomize=True, database=None)
@hypothesis.given(_tied_game())
def test_started_singleton_equals_cold_start(game):
    pure = [p for p, _ in polytopes.enumerate_pure_ne(game)]
    cold = {c: _cold(game, c) for c in polytopes.CONCEPTS}
    starts = []
    real = polytopes.singleton_over_system

    def recording(game, system, what="polytope"):
        starts.append((what, system))
        return real(game, system, what)

    analysis = polytopes.GameAnalysis(game)
    with mock.patch.object(polytopes, "singleton_over_system", recording):
        started = {c: analysis.singleton(c) for c in polytopes.CONCEPTS}
    for concept in polytopes.CONCEPTS:
        result, reference = started[concept], cold[concept]
        assert result.is_singleton == reference.is_singleton, concept
        assert result.point == reference.point, concept
        if not result.is_singleton:
            spec = analysis.polytope(concept)
            first, second = result.witnesses
            assert first != second
            assert all(polytopes.membership(spec, w).is_member for w in (first, second))
    # The IRCP decision runs at most the P(a*) test, and the CCE decision at
    # most that of the CCE reduction, each crash-started at a* and run at
    # most once per system; the IRCP polytope's own test never runs.
    p_tests = [system for what, system in starts if what == "P(a*)"]
    assert len(p_tests) == len(set(p_tests)) <= 2
    assert None not in [system.start for system in p_tests]
    starts = [(what, system.start) for what, system in starts if what != "P(a*)"]
    assert "ircp polytope" not in dict(starts)
    if len(pure) >= 2:
        assert starts == []
        for concept in ("ce", "cce"):
            assert started[concept].witnesses == (JointDistribution.point_mass(pure[0]),
                                                  JointDistribution.point_mass(pure[1]))
    else:
        # Each test runs at most once, and only CCE starts at the pure NE.
        assert len(starts) == len(dict(starts))
        cce_start = game.profile_index(pure[0]) if pure else None
        for what, start in starts:
            assert start == (cce_start if what == "cce polytope" else None), what


@hypothesis.settings(max_examples=120, deadline=None, derandomize=True, database=None)
@hypothesis.given(_tied_game())
def test_certificate_exactly_when_singleton_is_a_point_mass(game):
    for concept, certify in (("ircp", certify_unique_ircp), ("cce", certify_unique_pure_cce)):
        singleton = _cold(game, concept)
        point_mass = singleton.is_singleton and len(singleton.point.support()) == 1
        result = certify(game)
        assert isinstance(result, UniquenessCertificate) == point_mass, concept
        if point_mass:
            assert singleton.point == JointDistribution.point_mass(result.a_star), concept


def test_pure_ne_witnesses_are_rechecked():
    game = generators.random_game((8, 8), 1)  # three pure NE
    analysis = polytopes.GameAnalysis(game)
    rejected = polytopes.MembershipResult(False, ())
    with mock.patch.object(polytopes, "membership", lambda spec, mu: rejected):
        with pytest.raises(SolverInvariantError, match="membership re-check"):
            analysis.singleton("cce")


def test_chained_point_is_rechecked():
    game = generators.parking(3, 1, Fraction(1, 4), Fraction(3, 5))  # one-point IRCP
    analysis = polytopes.GameAnalysis(game)
    assert analysis.singleton("ircp").is_singleton
    rejected = polytopes.MembershipResult(False, ())
    with mock.patch.object(polytopes, "membership", lambda spec, mu: rejected):
        with pytest.raises(SolverInvariantError, match="membership re-check: cce "
                           "decision\\[0\\] is not a CCE member"):
            analysis.singleton("cce")


@pytest.mark.parametrize("concept", ["ce", "cce"])
def test_every_kept_decision_is_rechecked(concept):
    # RPS has no pure NE, so an LP finds both polytopes' witnesses; a
    # decision is kept only once its members pass the membership re-check.
    real = polytopes.membership

    def rejecting(spec, mu):
        if spec.concept == concept:
            return polytopes.MembershipResult(False, ())
        return real(spec, mu)

    rps = generators.rock_paper_scissors()
    with mock.patch.object(polytopes, "membership", rejecting):
        for run in (lambda: polytopes.GameAnalysis(rps).singleton("ce"),
                    lambda: build_report(rps)):
            with pytest.raises(SolverInvariantError,
                               match=f"membership re-check: {concept} decision"):
                run()


def test_start_column_must_be_a_member():
    pd = generators.prisoners_dilemma()
    system = polytopes.build_polytope(pd, "cce").system
    # (d, d) is the pure NE; (c, c) violates both players' defect rows.
    assert PolytopeSolver(replace(system, start=pd.profile_index((1, 1)))).feasible
    with pytest.raises(SolverInvariantError, match="violates a row"):
        PolytopeSolver(replace(system, start=pd.profile_index((0, 0))))


def test_start_column_is_checked():
    system = polytopes.build_polytope(generators.prisoners_dilemma(), "cce").system
    with pytest.raises(LpError, match="not a variable"):
        replace(system, start=4)
    no_artificial = replace(system, constraints=system.constraints[:-1], start=0)
    with pytest.raises(LpError, match="exactly one artificial"):
        PolytopeSolver(no_artificial)


def test_cce_phase1_is_one_pivot_from_the_pure_ne():
    game = generators.random_game((8, 8), 7)  # one strict pure NE
    (profile, strict), = polytopes.enumerate_pure_ne(game)
    assert strict
    system = polytopes.build_polytope(game, "cce").system
    solver = PolytopeSolver(replace(system, start=game.profile_index(profile)))
    assert solver._form.pivots_used == 1
    assert solver.feasible_point() == JointDistribution.point_mass(profile).as_vector(game)


def _per_coordinate_singleton(game: Game, system: ConstraintSystem) -> polytopes.SingletonResult:
    """The reference: the outside-support LP, then one LP per support coordinate."""
    solver = PolytopeSolver(system)
    assert solver.feasible
    base_point = solver.feasible_point()
    base = JointDistribution.from_vector(game, base_point)
    num = game.num_profiles
    support = {game.profile_index(p) for p in base.support()}
    outside = [Fraction(1) if k not in support else Fraction(0) for k in range(num)]
    if any(c != 0 for c in outside):
        outcome = solver.optimize(outside, maximize=True)
        assert outcome.status == OPTIMAL
        if outcome.value > 0:
            return polytopes.SingletonResult(
                None, (base, JointDistribution.from_vector(game, outcome.point)))
    for k in sorted(support):
        unit = [Fraction(0)] * num
        unit[k] = Fraction(1)
        outcome = solver.optimize(unit, maximize=True)
        assert outcome.status == OPTIMAL
        if outcome.value > base_point[k]:
            return polytopes.SingletonResult(
                None, (base, JointDistribution.from_vector(game, outcome.point)))
    return polytopes.SingletonResult(base, None)


@st.composite
def _small_game(draw):
    """A random integer game of one of SHAPES, or a `random_mp_type` game."""
    if draw(st.booleans()):
        return generators.random_mp_type(draw(st.integers(0, 10**6)))
    shape = draw(st.sampled_from(SHAPES))
    high = draw(st.sampled_from((1, 2, 3, 9)))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    size = 1
    for k in shape:
        size *= k
    actions = tuple(tuple(f"p{i}a{k}" for k in range(n)) for i, n in enumerate(shape))
    return Game(actions, tuple(
        tuple(Fraction(rng.randint(-high, high)) for _ in range(size)) for _ in shape))


@st.composite
def _game_and_system(draw):
    """A random integer or `random_mp_type` game, and one system over its profiles."""
    game = draw(_small_game())
    kind = draw(st.sampled_from(polytopes.CONCEPTS + ("gue",)))
    if kind == "gue":
        profile = game.profile_from_index(draw(st.integers(0, game.num_profiles - 1)))
        return game, polytopes.improvement_system(game, profile, "ircp")
    system = polytopes.build_polytope(game, kind).system
    pure = polytopes.enumerate_pure_ne(game)
    if kind == "cce" and len(pure) == 1 and draw(st.booleans()):
        system = replace(system, start=game.profile_index(pure[0][0]))
    return game, system


@hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
@hypothesis.given(_game_and_system())
def test_two_lp_singleton_equals_per_coordinate_reference(case):
    game, system = case
    result = polytopes.singleton_over_system(game, system)
    reference = _per_coordinate_singleton(game, system)
    assert result.is_singleton == reference.is_singleton
    assert result.point == reference.point
    if not result.is_singleton:
        first, second = result.witnesses
        assert first != second
        assert all(system.contains(w.as_vector(game)) for w in (first, second))


def _assert_chain_equals_own_tests(game, order):
    analysis = polytopes.GameAnalysis(game)
    chained = {c: analysis.singleton(c) for c in order}
    for concept, result in chained.items():
        spec = polytopes.build_polytope(game, concept)
        own = polytopes.is_singleton(spec)
        assert result.is_singleton == own.is_singleton, concept
        assert result.point == own.point, concept
        if not result.is_singleton:
            first, second = result.witnesses
            assert first != second
            assert all(polytopes.membership(spec, w).is_member for w in (first, second))


@hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
@hypothesis.given(_small_game(), st.permutations(polytopes.CONCEPTS))
def test_chained_decision_equals_own_test(game, order):
    _assert_chain_equals_own_tests(game, order)


# Random games rarely have a one-point IRCP; each of these does, so the
# chain settles CCE and CE from it.
@pytest.mark.parametrize("m", (3, 4))
@pytest.mark.parametrize("fee", ("11/20", "3/5", "7/10", "3/4"))
@pytest.mark.parametrize("order", (("ircp", "cce", "ce"), ("ce", "cce", "ircp")),
                         ids=("down", "up"))
def test_chained_decision_equals_own_test_on_parking(m, fee, order):
    game = generators.parking(m, 1, Fraction(1, 4), Fraction(fee))
    assert polytopes.is_singleton(polytopes.build_polytope(game, "ircp")).is_singleton
    _assert_chain_equals_own_tests(game, order)


def _run_to_optimum(game: Game, system: ConstraintSystem):
    """The reference: both LPs to their optima by `optimize`, and the pivots used."""
    solver = PolytopeSolver(system)
    assert solver.feasible
    base_point = solver.feasible_point()
    base = JointDistribution.from_vector(game, base_point)

    def second_member(objective):
        outcome = solver.optimize(objective, maximize=True)
        assert outcome.status == OPTIMAL
        if outcome.point == base_point:
            return None
        return JointDistribution.from_vector(game, outcome.point)

    outside = [Fraction(0) if x else Fraction(1) for x in base_point]
    other = second_member(outside) if any(outside) else None
    if other is None and len(base.support()) > 1:
        other = second_member(solver.pinning_objective())
    if other is not None:
        result = polytopes.SingletonResult(None, (base, other))
    else:
        result = polytopes.SingletonResult(base, None, solver.duals())
    return result, solver._form.pivots_used


def _assert_step_off_equals_run_to_optimum(game: Game, system: ConstraintSystem) -> None:
    solvers = []
    real = polytopes.PolytopeSolver

    def recording(system):
        solvers.append(real(system))
        return solvers[-1]

    with mock.patch.object(polytopes, "PolytopeSolver", recording):
        result = polytopes.singleton_over_system(game, system)
    (solver,) = solvers
    reference, reference_pivots = _run_to_optimum(game, system)
    assert result.is_singleton == reference.is_singleton
    assert result.point == reference.point
    assert result.duals == reference.duals
    assert solver._form.pivots_used <= reference_pivots
    if not result.is_singleton:
        base, second = result.witnesses
        assert base == reference.witnesses[0]
        assert second != base and system.contains(second.as_vector(game))
        with pytest.raises(LpError, match="duals need an optimum"):
            solver.duals()


def _singleton_systems(game: Game) -> list[ConstraintSystem]:
    """The CE and CCE systems, the CCE one also started at an only pure NE, and P(a*).

    P(a*) is taken over both gain tables at each pure NE and at the first
    and last profiles.
    """
    systems = [polytopes.build_polytope(game, c).system for c in ("ce", "cce")]
    pure = [p for p, _ in polytopes.enumerate_pure_ne(game)]
    if len(pure) == 1:
        systems.append(replace(systems[1], start=game.profile_index(pure[0])))
    profiles = {*pure, game.profile_from_index(0),
                game.profile_from_index(game.num_profiles - 1)}
    systems += [polytopes.improvement_system(game, a, concept)
                for a in sorted(profiles) for concept in ("ircp", "cce")]
    return systems


@st.composite
def _dominance_solvable_game(draw):
    """A random integer game of one of SHAPES in which each player has a strictly dominant action."""
    shape = draw(st.sampled_from(SHAPES))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    dominant = [rng.randrange(k) for k in shape]
    actions = tuple(tuple(f"p{i}a{k}" for k in range(n)) for i, n in enumerate(shape))
    profiles = list(itertools.product(*(range(k) for k in shape)))  # in index order
    return Game(actions, tuple(
        tuple(Fraction(rng.randint(-3, 3) + (7 if p[i] == dominant[i] else 0))
              for p in profiles)
        for i in range(len(shape))))


@hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
@hypothesis.given(st.one_of(_small_game(), _tied_game(), _dominance_solvable_game()))
def test_step_off_equals_run_to_optimum(game):
    for system in _singleton_systems(game):
        _assert_step_off_equals_run_to_optimum(game, system)


NAMED_GAMES = {
    **{f"parking-m{m}-t{fee}": (lambda m=m, fee=fee: generators.parking(
        m, 1, Fraction(1, 4), Fraction(fee)))
       for m in (3, 4, 5) for fee in ("11/20", "3/5", "7/10", "3/4")},
    "tullock8": lambda: discretize(
        ContestSpec(TullockRatio(1), (1, 1), (LinearCost(1), LinearCost(1))),
        [Fraction(k, 8) for k in range(1, 9)]),
    "rps": generators.rock_paper_scissors,
}


@pytest.mark.parametrize("name", NAMED_GAMES)
def test_step_off_equals_run_to_optimum_on_named_games(name):
    game = NAMED_GAMES[name]()
    for system in _singleton_systems(game):
        _assert_step_off_equals_run_to_optimum(game, system)
