"""Property test: the pure saddle point test of `zerosum.maximin` against its LP.

Where a player's payoffs have a pure saddle point, max_a min_c u(a, c) =
min_c max_a u(a, c), `maximin` reads the level off the integer payoffs and
solves no LP.  The LP `_row_lp` over the same integer rows is the
reference, and over the payoffs as `Fraction`s it must find the level
itself: at a saddle point the levels must agree
and the certificate must be the lowest-index action and opponent joint
action at that level; elsewhere the result must be the LP's, unchanged.
Every result must pass `check_maximin`.  Payoffs are drawn from few values,
so ties, several saddle actions and several saddle joint actions are
common.

The maximin layer, `maximin`, `check_maximin` and the unilateral
guarantee, reads each player's integer payoff matrix `Game.int_rows` and
nothing else: with `opponent_bases`, `gain_rows` and `Game.u` made to
raise once the matrix is cached, each gives what it gave before.
"""

import random
import sys
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from eqcert import generators  # noqa: E402
from eqcert.certify import _unilateral_guarantee  # noqa: E402
from eqcert.games import Game  # noqa: E402
from eqcert.zerosum import _row_lp, check_maximin, maximin  # noqa: E402

SHAPES = ((2, 2), (2, 3), (3, 2), (3, 3), (2, 2, 2), (3, 2, 2), (2, 3, 2))
UP_TO_FOUR_PLAYERS = SHAPES + ((2, 2, 2, 2), (3, 2, 2, 2), (2, 2, 3, 2))


@st.composite
def _game(draw, shapes=SHAPES):
    """A small game with integer payoffs in [0, 2] or p/q ones, p in [-2, 2], q in 1..3."""
    shape = draw(st.sampled_from(shapes))
    integer = draw(st.booleans())
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    size = 1
    for k in shape:
        size *= k

    def payoff() -> Fraction:
        if integer:
            return Fraction(rng.randint(0, 2))
        return Fraction(rng.randint(-2, 2), rng.randint(1, 3))

    actions = tuple(tuple(f"p{i}a{k}" for k in range(n)) for i, n in enumerate(shape))
    return Game(actions, tuple(tuple(payoff() for _ in range(size)) for _ in shape))


# Matching pennies has no pure saddle point and PD has one for each player,
# so both paths run whatever the draws.
@hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
@hypothesis.given(_game())
@hypothesis.example(generators.matching_pennies())
@hypothesis.example(generators.prisoners_dilemma())
def test_saddle_point_levels_equal_the_lp(game):
    for i in range(game.num_players):
        rows = game.int_rows[i]
        floors = [min(row) for row in rows]
        ceilings = [max(column) for column in zip(*rows)]
        value, strategy, punishment = _row_lp(rows)
        # Over the payoffs themselves the LP finds the same level.  Its rows
        # differ by the factor d_i, which scales the pivot entries the
        # entering rule compares, so its strategies may differ.
        d = game.payoff_scales[i]
        assert _row_lp([[Fraction(x, d) for x in row] for row in rows])[0] == value / d
        result = maximin(game, i)
        assert result.value == value / d
        assert check_maximin(game, i, result) == []
        if max(floors) == min(ceilings):
            assert result.strategy.weights == {floors.index(value): 1}
            assert result.punishment == {ceilings.index(value): 1}
        else:
            assert result.strategy.weights == {a: w for a, w in enumerate(strategy) if w}
            assert result.punishment == {c: w for c, w in enumerate(punishment) if w}


def _raise(*args, **kwargs):
    raise AssertionError("the maximin layer reads only `Game.int_rows`")


# Matching pennies and RPS have no pure saddle point and PD has one for
# each player, so both of maximin's paths run under the patch.
@hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
@hypothesis.given(_game(UP_TO_FOUR_PLAYERS))
@hypothesis.example(generators.matching_pennies())
@hypothesis.example(generators.rock_paper_scissors())
@hypothesis.example(generators.prisoners_dilemma())
def test_maximin_layer_reads_only_the_payoff_matrix(game):
    n = game.num_players
    results = [maximin(game, i) for i in range(n)]
    guarantees = [all(game.u(i, game.insert_action(i, a[i], others)) >= game.u(i, a)
                      for i in range(n) for others in game.opponent_profiles(i))
                  for a in game.profiles()]
    assert len(game.int_rows) == n
    with pytest.MonkeyPatch.context() as patch:
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "eqcert" and module is not None:
                for held in ("opponent_bases", "gain_rows"):
                    if hasattr(module, held):
                        patch.setattr(module, held, _raise)
        patch.setattr(Game, "u", _raise)
        for i, reference in enumerate(results):
            result = maximin(game, i)
            assert (result.value, result.strategy, result.punishment) == (
                reference.value, reference.strategy, reference.punishment)
            assert check_maximin(game, i, result) == []
        assert [_unilateral_guarantee(game, a) for a in game.profiles()] == guarantees
