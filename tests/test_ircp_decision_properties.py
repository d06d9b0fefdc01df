"""Property test: the IRCP decision against the IRCP polytope's own singleton test.

`GameAnalysis.singleton("ircp")` solves no LP over the IRCP polytope.  It
builds two members with no LP where a player has no pure maximin action,
has several, or earns above its level at the profile a* of those actions,
and otherwise asks `GameAnalysis.weights` whether P(a*), the IRCP polytope
there, is delta(a*).
The cold singleton test of the IRCP polytope (`is_singleton`) is the
reference: both must give the same decision and the same point, and each
witness pair must be two distinct IRCP members.
"""

import random
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from eqcert import generators, polytopes  # noqa: E402
from eqcert.games import Game  # noqa: E402

SHAPES = ((2, 2), (2, 3), (3, 3), (2, 2, 2))


@st.composite
def _game(draw):
    """A small game with integer payoffs in [0, 2] or p/q ones, p in [-3, 3], q in 1..3.

    The integer games tie often, so players have several pure maximin
    actions; the others mostly have one, or none.
    """
    shape = draw(st.sampled_from(SHAPES))
    integer = draw(st.booleans())
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    size = 1
    for k in shape:
        size *= k

    def payoff() -> Fraction:
        if integer:
            return Fraction(rng.randint(0, 2))
        return Fraction(rng.randint(-3, 3), rng.randint(1, 3))

    actions = tuple(tuple(f"p{i}a{k}" for k in range(n)) for i, n in enumerate(shape))
    return Game(actions, tuple(tuple(payoff() for _ in range(size)) for _ in shape))


def _assert_decision_equals_cold_test(game: Game) -> None:
    spec = polytopes.build_polytope(game, "ircp")
    reference = polytopes.is_singleton(spec)
    decided = polytopes.GameAnalysis(game).singleton("ircp")
    assert decided.is_singleton == reference.is_singleton
    assert decided.point == reference.point
    if not decided.is_singleton:
        first, second = decided.witnesses
        assert first != second
        assert all(polytopes.membership(spec, w).is_member for w in (first, second))
        assert decided.reason


@hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
@hypothesis.given(_game())
def test_ircp_decision_equals_cold_singleton_test(game):
    _assert_decision_equals_cold_test(game)


# The fee window of the parking game: refuted below t = 2c = 1/2, one point
# above it.
@pytest.mark.parametrize("m", (3, 4, 5))
@pytest.mark.parametrize("fee", ("2/5", "1/2", "11/20", "3/5", "7/10", "3/4", "4/5"))
def test_ircp_decision_equals_cold_singleton_test_on_parking(m, fee):
    _assert_decision_equals_cold_test(generators.parking(m, 1, Fraction(1, 4), Fraction(fee)))
