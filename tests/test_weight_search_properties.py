"""Property test: the weights that pin P(a*) to delta(a*).

`polytopes.GameAnalysis.weights` answers whether P(a*) = {mu : E_mu
delta_i >= 0 for all i} is delta(a*), over the gain table at a*
(`games.gain_rows`): delta_i(a) = u_i(a) - u_i(a*) ("ircp") or u_i(a) -
u_i(a_i*, a_-i) ("cce").  It tries uniform weights where the game, or its
"cce" gains, are symmetric, then reads them from the optimal dual of the
P(a*) singleton test the context keeps, and finds none where that test has
a second member.  The profile-vs-player comparison game
(`build_theorem1_auxiliary` in conftest) is the reference: weights with
every other profile's weighted gain negative exist exactly when its value
is negative, and no weights reach a larger slack than -value.  For "cce" it
is built on the CCE reduction v_i(a) = u_i(a) - u_i(a_i*, a_-i), a
strategic transform kept in conftest (`reference_reduction`).

`weights` is asked only where each a*_i guarantees u_i(a*), which makes
every dual weight positive.  That holds for the "cce" gains at any profile
a*, and in a game wherever the strict fractional GUE flag asks; there the
answer must be the P(a*) test's own.  Half the two-player square games are
symmetric, u_2(a, b) = u_1(b, a), so that uniform weights get tried.

The "cce" P(a*) test over the gain table stores row i as d_i v_i, a
positive multiple of the reduced game's IRCP row, and the standard form
divides both by their gcd, so it must make the reduced game's pivots and
find its witnesses, and its dual, scaled by the game's own payoff scales,
must give the reduced game's weights.
"""

import random
from fractions import Fraction
from unittest import mock

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from eqcert.certify import _unilateral_guarantee  # noqa: E402
from eqcert.polytopes import GameAnalysis, improvement_system, singleton_over_system  # noqa: E402
from eqcert.games import Game, JointDistribution, _gain_slack, _normalize  # noqa: E402
from eqcert.lp import _StandardForm  # noqa: E402
from eqcert.zerosum import matrix_value  # noqa: E402

from conftest import build_theorem1_auxiliary, reference_reduction  # noqa: E402

SHAPES = ((2, 2), (2, 3), (3, 3), (2, 2, 2))


@st.composite
def _game(draw):
    """A small game with payoffs p/q, p in [-3, 3] and q in 1..3, so ties occur.

    A drawn 2x2 or 3x3 game is made symmetric half the time.
    """
    shape = draw(st.sampled_from(SHAPES))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    size = 1
    for k in shape:
        size *= k
    actions = tuple(tuple(f"p{i}a{k}" for k in range(n)) for i, n in enumerate(shape))
    payoffs = tuple(tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                          for _ in range(size)) for _ in shape)
    if shape[0] == shape[-1] and len(shape) == 2 and draw(st.booleans()):
        n = shape[0]
        actions = (actions[0], actions[0])
        payoffs = (payoffs[0], tuple(payoffs[0][b * n + a] for a in range(n) for b in range(n)))
    return Game(actions, payoffs)


def _check_weights(analysis: GameAnalysis, a_star, concept: str) -> None:
    game = analysis.game if concept == "ircp" else reference_reduction(analysis.game, a_star)
    value, _, _ = matrix_value(build_theorem1_auxiliary(game, a_star))
    found = analysis.weights(a_star, concept)
    assert (found is not None) == (value < 0)
    if found is not None:
        gamma, slack = found
        assert all(g > 0 for g in gamma) and sum(gamma) == 1
        assert 0 < slack <= -value
        assert _gain_slack(analysis.game, a_star, gamma, concept) == slack
    else:
        first, second = analysis.improvement(a_star, concept).witnesses
        point = JointDistribution.point_mass(a_star)
        assert first == point and second != point
        assert improvement_system(analysis.game, a_star, concept).contains(
            second.as_vector(analysis.game))


@hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
@hypothesis.given(_game())
def test_dual_weights_exist_exactly_when_the_comparison_game_is_negative(game):
    analysis = GameAnalysis(game)
    for a_star in game.profiles():
        _check_weights(analysis, a_star, "cce")
        value, _, _ = matrix_value(build_theorem1_auxiliary(game, a_star))
        assert GameAnalysis(game).improvement(a_star, "ircp").is_singleton == (value < 0)
        if _unilateral_guarantee(game, a_star):
            _check_weights(analysis, a_star, "ircp")
            assert ((analysis.weights(a_star, "ircp") is not None)
                    == GameAnalysis(game).improvement(a_star, "ircp").is_singleton)


def _counting_pivots(test):
    """test() and the pivots of every standard form it builds."""
    forms = []
    init = _StandardForm.__init__

    def recording(self, system):
        init(self, system)
        forms.append(self)

    with mock.patch.object(_StandardForm, "__init__", recording):
        result = test()
    return result, sum(form.pivots_used for form in forms)


@hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
@hypothesis.given(_game())
def test_cce_p_a_star_equals_the_reduced_games_ircp_p_a_star(game):
    for a_star in game.profiles():
        reduced = reference_reduction(game, a_star)
        own, own_pivots = _counting_pivots(lambda: singleton_over_system(
            game, improvement_system(game, a_star, "cce")))
        ref, ref_pivots = _counting_pivots(lambda: singleton_over_system(
            reduced, improvement_system(reduced, a_star, "ircp")))
        assert (own.point, own.witnesses, own_pivots) == (ref.point, ref.witnesses, ref_pivots)
        if own.witnesses is not None:
            first, second = own.witnesses
            assert first == JointDistribution.point_mass(a_star) != second
        if own.is_singleton:
            assert (_normalize([y * d for y, d in zip(own.duals, game.payoff_scales)])
                    == _normalize([y * d for y, d in zip(ref.duals, reduced.payoff_scales)]))
        assert (GameAnalysis(game).weights(a_star, "cce")
                == GameAnalysis(reduced).weights(a_star, "ircp"))
