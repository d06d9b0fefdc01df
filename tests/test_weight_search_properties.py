"""Property test: certificate weights from the dual of the P(a*) singleton test.

`certify._search_weights` reads welfare weights from the optimal dual of
the LP that pins P(a*) = {mu : E_mu u >= u(a*)} to delta(a*), the test a
`GameAnalysis` keeps, and finds none where that test has a second member.  The profile-vs-player comparison game it
replaced (`build_theorem1_auxiliary` in conftest) is the reference: weights
with every other profile's weighted gain negative exist exactly when its
value is negative, and no weights reach a larger slack than -value.

`_search_weights` runs where a*_i is each player's only pure maximin action
and u(a*) is at the levels, which makes every weight positive.  That holds
in the CCE reduction v_i(a) = u_i(a) - u_i(a_i*, a_-i) at any profile a*,
and in a game at its security profile when it has one.  At any other
profile of a game a weight may be 0, so there only the singleton decision
is compared.
"""

import random
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from eqcert.certify import UniquenessCertificate, _search_weights  # noqa: E402
from eqcert.polytopes import GameAnalysis, improvement_system  # noqa: E402
from eqcert.games import Game, JointDistribution, cce_reduction  # noqa: E402
from eqcert.zerosum import matrix_value  # noqa: E402

from conftest import build_theorem1_auxiliary, unique_security_profile  # noqa: E402

SHAPES = ((2, 2), (2, 3), (3, 3), (2, 2, 2))


@st.composite
def _game(draw):
    """A small game with payoffs p/q, p in [-3, 3] and q in 1..3, so ties occur."""
    shape = draw(st.sampled_from(SHAPES))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    size = 1
    for k in shape:
        size *= k
    actions = tuple(tuple(f"p{i}a{k}" for k in range(n)) for i, n in enumerate(shape))
    payoffs = tuple(tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                          for _ in range(size)) for _ in shape)
    return Game(actions, payoffs)


def _check_weight_search(game: Game, a_star) -> None:
    value, _, _ = matrix_value(build_theorem1_auxiliary(game, a_star))
    analysis = GameAnalysis(game)
    found = _search_weights(analysis, game, a_star, "cce")
    assert isinstance(found, UniquenessCertificate) == (value < 0)
    if isinstance(found, UniquenessCertificate):
        assert all(g > 0 for g in found.gamma)
        assert 0 < found.slack <= -value
    else:
        assert found is None
        first, second = analysis.improvement(a_star).witnesses
        point = JointDistribution.point_mass(a_star)
        assert first == point and second != point
        assert improvement_system(game, a_star).contains(second.as_vector(game))


@hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
@hypothesis.given(_game())
def test_dual_weights_exist_exactly_when_the_comparison_game_is_negative(game):
    for a_star in game.profiles():
        _check_weight_search(cce_reduction(game, a_star), a_star)
        value, _, _ = matrix_value(build_theorem1_auxiliary(game, a_star))
        assert GameAnalysis(game).improvement(a_star).is_singleton == (value < 0)
    a_star = unique_security_profile(game)
    if a_star is not None:
        _check_weight_search(game, a_star)
