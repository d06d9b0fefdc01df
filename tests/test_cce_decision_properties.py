"""Property test: the CCE decision against the CCE polytope's own singleton test.

At a lone strict pure NE a*, `GameAnalysis.singleton("cce")` asks
`GameAnalysis.weights` about the "cce" P(a*), over the gains u_i(a) -
u_i(a_i*, a_-i) (`games.gain_rows`), unless an LP-free scan finds a
profile where every player gains weakly over a*_i; weights decide CCE =
{delta(a*)} with no CCE LP.  Every other case
goes to `is_singleton`.  The CCE polytope's own test is the reference, both
cold (`singleton_over_system` on the bare system) and started at the pure
NE (`is_singleton`): the decision must give the same flag and point, and
each witness pair must be two distinct CCE members.  At a lone strict pure
NE, the "cce" P(a*) test must be one point exactly when the decision is
delta(a*), whether or not the scan found a rival.
"""

import random
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from eqcert import generators, polytopes  # noqa: E402
from eqcert.contests import ContestSpec, LinearCost, TullockRatio, discretize  # noqa: E402
from eqcert.games import Game, JointDistribution, gain_rows  # noqa: E402

# Random and tied games: integer payoffs in [0, 2] tie often, into weak and
# several pure NE.
from test_ircp_decision_properties import SHAPES, _game  # noqa: E402


def _actions(shape) -> tuple:
    return tuple(tuple(f"p{i}a{k}" for k in range(n)) for i, n in enumerate(shape))


def _size(shape) -> int:
    size = 1
    for k in shape:
        size *= k
    return size


def _assert_decision_equals_own_test(game: Game) -> None:
    spec = polytopes.build_polytope(game, "cce")
    cold = polytopes.singleton_over_system(game, spec.system)
    started = polytopes.is_singleton(spec)
    analysis = polytopes.GameAnalysis(game)
    decided = analysis.singleton("cce")
    for reference in (cold, started):
        assert decided.is_singleton == reference.is_singleton
        assert decided.point == reference.point
    if not decided.is_singleton:
        first, second = decided.witnesses
        assert first != second
        assert all(polytopes.membership(spec, w).is_member for w in (first, second))
    pure = analysis.pure_ne()
    if len(pure) == 1 and pure[0][1]:
        a_star = pure[0][0]
        reduced = analysis.improvement(a_star, "cce")
        assert reduced.is_singleton == (decided.point == JointDistribution.point_mass(a_star))


@st.composite
def _dominant_game(draw):
    """A 3-player game in which each player has a dominant action, strict or weak.

    Against each opponent profile the dominant action pays the best of the
    player's drawn payoffs plus 0 or 1, so it may tie with another action.
    """
    shape = draw(st.sampled_from(((2, 2, 2), (3, 2, 2), (2, 3, 2), (2, 2, 3))))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    base = Game(_actions(shape), ((Fraction(0),) * _size(shape),) * 3)
    payoffs = []
    for i in range(3):
        table = [Fraction(0)] * base.num_profiles
        dominant = rng.randrange(shape[i])
        for others in base.opponent_profiles(i):
            values = [rng.randint(-3, 3) for _ in range(shape[i])]
            values[dominant] = max(values) + rng.randint(0, 1)
            for a, v in enumerate(values):
                table[base.profile_index(base.insert_action(i, a, others))] = Fraction(v)
        payoffs.append(tuple(table))
    return Game(base.actions, tuple(payoffs))


@st.composite
def _strict_and_weak_ne_game(draw):
    """A small integer game whose pure NE are one strict and one weak profile."""
    shape = draw(st.sampled_from(SHAPES))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    for _ in range(200):
        game = Game(_actions(shape), tuple(
            tuple(Fraction(rng.randint(0, 3)) for _ in range(_size(shape))) for _ in shape))
        if sorted(strict for _, strict in polytopes.enumerate_pure_ne(game)) == [False, True]:
            return game
    hypothesis.assume(False)


@hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
@hypothesis.given(_game())
def test_cce_decision_equals_own_test(game):
    _assert_decision_equals_own_test(game)


@hypothesis.settings(max_examples=100, deadline=None, derandomize=True, database=None)
@hypothesis.given(_dominant_game())
def test_cce_decision_equals_own_test_with_dominant_actions(game):
    _assert_decision_equals_own_test(game)


@hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
@hypothesis.given(_strict_and_weak_ne_game())
def test_cce_decision_equals_own_test_with_a_strict_and_a_weak_ne(game):
    _assert_decision_equals_own_test(game)


# The fee window of the parking game: refuted below t = 2c = 1/2, one point
# above it.
@pytest.mark.parametrize("m", (3, 4, 5))
@pytest.mark.parametrize("fee", ("2/5", "1/2", "11/20", "3/5", "7/10", "3/4", "4/5"))
def test_cce_decision_equals_own_test_on_parking(m, fee):
    _assert_decision_equals_own_test(generators.parking(m, 1, Fraction(1, 4), Fraction(fee)))


@pytest.mark.parametrize("size", range(4, 9))
@pytest.mark.parametrize("values", ((1, 1), (1, 2)))
def test_cce_decision_equals_own_test_on_tullock_grids(size, values):
    spec = ContestSpec(TullockRatio(1), values, (LinearCost(1), LinearCost(1)))
    _assert_decision_equals_own_test(
        discretize(spec, [Fraction(k, size) for k in range(1, size + 1)]))


# One strict pure NE, no rival for the scan, and yet a "cce" P(a*) test
# that finds a second member: the CCE LP decides.  The 4x5 and 4x4 games
# are among the fixed games of the benchmark's random-games workload.
NO_RIVAL_BUT_REFUTED = (((4, 5), 3), ((4, 4), 12), ((3, 3), 41), ((3, 3), 50),
                        ((2, 2, 2), 37), ((2, 3), 61))


@pytest.mark.parametrize("shape, seed", NO_RIVAL_BUT_REFUTED)
def test_cce_decision_equals_own_test_where_the_reduced_test_refutes(shape, seed):
    game = generators.random_game(shape, seed)
    (a_star, strict), = polytopes.enumerate_pure_ne(game)
    gains = zip(*gain_rows(game, a_star, "cce"))
    rivals = [k for k, column in enumerate(gains) if min(column) >= 0]
    assert strict and rivals == [game.profile_index(a_star)]
    reduced = polytopes.GameAnalysis(game).improvement(a_star, "cce")
    assert not reduced.is_singleton
    _assert_decision_equals_own_test(game)
