"""Strict fractional GUE: one singleton test against the three-check definition.

`is_strict_fractional_gue` asks whether P(a*) = {mu : E_mu u >= u(a*)} is
the single point delta(a*), after the unilateral guarantee.  The definition
it replaced is kept here as the reference: the guarantee, an improvement LP
over all lotteries with value 0, and a singleton test at delta(a*) on the
lotteries that match u(a*) exactly.  Both must agree on every profile of
small integer games whose payoffs repeat often, and each hand-built example
below fails exactly the condition it names.

`is_gue`, the guarantee and pure Pareto optimality, compares the entries of
the IRCP gain table at a* with 0.  Its reference is the same two checks
over `Fraction` payoffs, on the same games put at per-player scales with
mixed denominators.
"""

import math
import random
from fractions import Fraction
from unittest import mock

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from eqcert import certify, generators, polytopes  # noqa: E402
from eqcert.games import Game, JointDistribution  # noqa: E402
from eqcert.lp import (  # noqa: E402
    EQUAL,
    GREATER_EQUAL,
    OPTIMAL,
    ConstraintSystem,
    LinearConstraint,
    PolytopeSolver,
)

SHAPES = ((2, 2), (2, 3), (3, 3), (2, 2, 2))


def _improvement_value(game: Game, a_star) -> Fraction:
    """max sum_i s_i over mu in the simplex and s >= 0 with E_mu u_i >= u_i(a*) + s_i."""
    n, num = game.num_players, game.num_profiles
    base = game.payoff_vector(a_star)
    rows = []
    for i in range(n):
        coeffs = list(game.payoffs[i]) + [Fraction(0)] * n
        coeffs[num + i] = Fraction(-1)
        rows.append(LinearConstraint(tuple(coeffs), GREATER_EQUAL, base[i]))
    rows.append(LinearConstraint(
        tuple([Fraction(1)] * num + [Fraction(0)] * n), EQUAL, Fraction(1)))
    objective = tuple([Fraction(0)] * num + [Fraction(1)] * n)
    outcome = PolytopeSolver(ConstraintSystem(num + n, tuple(rows))).optimize(
        objective, maximize=True)
    assert outcome.status == OPTIMAL
    return outcome.value


def _unique_in_utility(game: Game, a_star) -> bool:
    """delta(a*) is the only lottery mu with E_mu u = u(a*)."""
    base = game.payoff_vector(a_star)
    rows = [LinearConstraint(tuple(game.payoffs[i]), EQUAL, base[i])
            for i in range(game.num_players)]
    rows.append(LinearConstraint((Fraction(1),) * game.num_profiles, EQUAL, Fraction(1)))
    system = ConstraintSystem(game.num_profiles, tuple(rows))
    result = polytopes.singleton_over_system(game, system)
    return result.point == JointDistribution.point_mass(a_star)


def _reference(game: Game, a_star) -> bool:
    return (certify._unilateral_guarantee(game, a_star)
            and _improvement_value(game, a_star) == 0
            and _unique_in_utility(game, a_star))


@st.composite
def _narrow_game(draw):
    """An integer game of one of SHAPES with payoffs in a range of 2 or 3 values.

    Random payoffs rarely meet the guarantee, so in half the games each
    player i gets the top payoff whenever they play a_i* of a drawn profile
    a*, which meets it at a*; the top payoff then repeats at other profiles.
    """
    shape = draw(st.sampled_from(SHAPES))
    high = draw(st.sampled_from((1, 2)))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    actions = tuple(tuple(f"p{i}a{k}" for k in range(n)) for i, n in enumerate(shape))
    game = Game(actions, tuple(
        tuple(Fraction(rng.randint(0, high)) for _ in range(math.prod(shape)))
        for _ in shape))
    if draw(st.booleans()):
        a_star = tuple(rng.randrange(n) for n in shape)
        game = Game(actions, tuple(
            tuple(Fraction(high) if a[i] == a_star[i] else game.u(i, a)
                  for a in game.profiles())
            for i in range(len(shape))))
    return game


@hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
@hypothesis.given(_narrow_game())
def test_one_singleton_test_equals_the_three_checks(game):
    for profile in game.profiles():
        assert certify.is_strict_fractional_gue(game, profile) == _reference(game, profile)


def _reference_is_gue(game: Game, a_star) -> bool:
    """Each a*_i guarantees u_i(a*), and no profile Pareto-improves on u(a*)."""
    base = game.payoff_vector(a_star)
    guarantee = all(game.u(i, game.insert_action(i, a_star[i], others)) >= base[i]
                    for i in range(game.num_players) for others in game.opponent_profiles(i))
    improved = any(all(o >= b for o, b in zip(other, base))
                   and any(o > b for o, b in zip(other, base))
                   for other in map(game.payoff_vector, game.profiles()))
    return guarantee and not improved


@hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
@hypothesis.given(_narrow_game(), st.data())
def test_is_gue_equals_the_fraction_pareto_scan(game, data):
    scales = [Fraction(data.draw(st.integers(1, 9)), data.draw(st.integers(1, 9)))
              for _ in range(game.num_players)]
    shifts = [Fraction(data.draw(st.integers(-9, 9)), data.draw(st.integers(1, 9)))
              for _ in range(game.num_players)]
    scaled = Game(game.actions, tuple(tuple(s * x + t for x in row)
                                      for row, s, t in zip(game.payoffs, scales, shifts)))
    for g in (game, scaled):
        for profile in g.profiles():
            assert certify.is_gue(g, profile) == _reference_is_gue(g, profile)


def _game(*payoff_pairs) -> Game:
    """A 2x2 game from its four (u_0, u_1) payoff pairs in profile order."""
    actions = (("a0", "a1"), ("b0", "b1"))
    return Game(actions, tuple(tuple(Fraction(p[i]) for p in payoff_pairs)
                               for i in range(2)))


def test_table3_a_lottery_improves_on_a_star():
    game, a_star = generators.table3(), (0, 0)
    assert certify._unilateral_guarantee(game, a_star)
    assert _improvement_value(game, a_star) > 0
    assert not certify.is_strict_fractional_gue(game, a_star)


def test_only_the_improvement_lp_fails():
    # (1, 1) improves on a* = (0, 0); every other profile gains someone something,
    # so delta(a*) is the only lottery that pays (0, 0).
    game, a_star = _game((0, 0), (1, 0), (0, 1), (1, 1)), (0, 0)
    assert certify._unilateral_guarantee(game, a_star)
    assert _improvement_value(game, a_star) > 0
    assert _unique_in_utility(game, a_star)
    assert not certify.is_strict_fractional_gue(game, a_star)


def test_only_the_equal_utility_singleton_fails():
    # (1, 1) repeats u(a*) = (1, 1) and nothing pays both players more.
    game, a_star = _game((1, 1), (1, 0), (0, 1), (1, 1)), (0, 0)
    assert certify._unilateral_guarantee(game, a_star)
    assert _improvement_value(game, a_star) == 0
    assert not _unique_in_utility(game, a_star)
    assert not certify.is_strict_fractional_gue(game, a_star)


def test_only_the_guarantee_fails():
    # Cooperation is the only lottery that pays (2, 2) or more, but either
    # player's cooperation can be exploited.
    game, a_star = generators.prisoners_dilemma(), (0, 0)
    assert not certify._unilateral_guarantee(game, a_star)
    assert _improvement_value(game, a_star) == 0
    assert _unique_in_utility(game, a_star)
    assert not certify.is_strict_fractional_gue(game, a_star)


def _doubled_parking() -> Game:
    base = generators.parking(3, 1, Fraction(1, 4), Fraction(3, 5))
    return Game(base.actions, (base.payoffs[0], tuple(2 * x for x in base.payoffs[1])))


# At most one solver, whose phase 1 is one pivot from delta(a*).  Uniform
# weights settle symmetric parking with none.  Doubling one player's payoffs
# breaks the symmetry, and table3 is refuted, so both take the P(a*) test.
@pytest.mark.parametrize("game, a_star, expected, pivots", [
    (generators.parking(3, 1, Fraction(1, 4), Fraction(3, 5)), (0, 0), True, []),
    (_doubled_parking(), (0, 0), True, [1]),
    (generators.table3(), (0, 0), False, [1]),
], ids=["parking", "doubled-parking", "table3"])
def test_one_solver_and_one_phase1_pivot(game, a_star, expected, pivots):
    phase1_pivots = []
    real = PolytopeSolver.__init__

    def counting(self, system):
        real(self, system)
        phase1_pivots.append(self._form.pivots_used)

    with mock.patch.object(PolytopeSolver, "__init__", counting):
        assert certify.is_strict_fractional_gue(game, a_star) == expected
    assert phase1_pivots == pivots
