"""Exact zero-sum matrix game solving.

Provides maximin values with both optimal strategies, and the exact check
of such a pair with no LP.  The welfare weights of a uniqueness
certificate come from uniform weights or a singleton test's dual instead
(`polytopes.GameAnalysis.weights`).

A pair of optimal strategies certifies a game's value v: the row strategy
guarantees at least v against every column, and the column strategy holds
every row to at most v.  Where the payoffs have a pure saddle point, max_r
min_c u(r, c) = min_c max_r u(r, c), that common number is v, and a pure
row and a pure column certify it (von Neumann's minimax theorem), so
`maximin` reads the level off the integer payoffs with no LP.  Otherwise
the game is one LP, `_row_lp`: the row player's guarantee, maximized, over
the same integer payoffs.  Its optimal dual is an optimal column strategy
(the punishment, in `maximin`), read from the final tableau
(`lp.PolytopeSolver.duals`), so neither side needs a second LP.
`matrix_value` solves a `MatrixGame` the same way, its payoffs scaled to
ints once, and re-checks both bounds exactly; `maximin` leaves that to
`check_maximin`, which a verifier runs on a serialized result in integer
arithmetic without any LP.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .games import (
    Game,
    MixedAction,
    _as_fraction_tuple,
    int_payoff_row,
    opponent_bases,
)
from .lp import (
    EQUAL,
    GREATER_EQUAL,
    OPTIMAL,
    ConstraintSystem,
    LinearConstraint,
    PolytopeSolver,
    SolverInvariantError,
)
from .rational import scaled_ints


class ZeroSumError(ValueError):
    """Malformed matrix game input."""


@dataclass(frozen=True)
class MatrixGame:
    """Zero-sum game; `payoff[r][c]` is what the column player pays the row player."""

    row_labels: tuple[str, ...]
    col_labels: tuple[str, ...]
    payoff: tuple[tuple[Fraction, ...], ...]
    row_keys: tuple = ()
    col_keys: tuple = ()

    def __post_init__(self):
        payoff = tuple(_as_fraction_tuple(row) for row in self.payoff)
        object.__setattr__(self, "payoff", payoff)
        if len(payoff) != len(self.row_labels) or not self.row_labels:
            raise ZeroSumError("need one payoff row per row label")
        for row in payoff:
            if len(row) != len(self.col_labels) or not self.col_labels:
                raise ZeroSumError("payoff width disagrees with column labels")


@dataclass(frozen=True)
class MaximinResult:
    """A player's security level with both halves of its certificate.

    `strategy` guarantees the player at least `value` against every joint
    action of the opponents; `punishment`, a correlated distribution over
    those joint actions (opponent profiles in `Game.opponent_profiles`
    form, zeros dropped), holds every reply of the player to at most
    `value`.
    """

    value: Fraction
    strategy: MixedAction
    punishment: Mapping[tuple[int, ...], Fraction]


def _row_lp(rows: Sequence[Sequence[int]]
            ) -> tuple[Fraction, tuple[Fraction, ...], tuple[Fraction, ...]]:
    """max z s.t. the mixed row strategy guarantees at least z against every column.

    `rows[r][c]` is the payoff times one positive scale D, as an int, so z
    is D times the value, and the strategies are optimal for the payoffs
    themselves: each LP row is D times the row over the payoffs, with the
    guarantee column scaled by 1/D, which moves no vertex and, at a given
    basis, no column row's dual.  The pivot rule compares entries that scale
    with the rows, so the optimal vertex reached may differ from that of the
    LP over the payoffs.  The free guarantee is split as z = z+ - z-, the
    last two columns.  Returns z, the optimal row strategy and an
    optimal column strategy.  The solver reads the dual of min -z, so
    column c's `>=` row has a dual y_c >= 0; the dual constraints of z+ and
    z- make the y_c sum to 1, and those of the row strategy's weights hold
    every row to at most z.
    """
    num_rows = len(rows)
    constraints = [LinearConstraint((*column, -1, 1), GREATER_EQUAL, Fraction(0))
                   for column in zip(*rows)]
    constraints.append(LinearConstraint((1,) * num_rows + (0, 0), EQUAL, Fraction(1)))
    solver = PolytopeSolver(ConstraintSystem(num_rows + 2, tuple(constraints)))
    outcome = solver.optimize((0,) * num_rows + (1, -1), maximize=True)
    if outcome.status != OPTIMAL:
        raise SolverInvariantError("matrix game value LP must be solvable")
    column = solver.duals()[:-1]
    return outcome.value, outcome.point[:num_rows], column


def matrix_value(mg: MatrixGame) -> tuple[Fraction, tuple[Fraction, ...], tuple[Fraction, ...]]:
    """Value plus one optimal strategy per side, from one LP.

    The payoffs are put over the lcm D of their denominators as ints once
    (`rational.scaled_ints`), and the value is `_row_lp`'s guarantee over D.
    Both strategies are re-checked exactly on those ints: the row strategy
    must guarantee at least D times the value against every column, and the
    column strategy, a distribution, must hold every row to at most it.
    """
    width = len(mg.col_labels)
    ints, denom = scaled_ints([x for row in mg.payoff for x in row])
    payoff = [ints[k:k + width] for k in range(0, len(ints), width)]
    scaled, row_strategy, col_strategy = _row_lp(payoff)
    rows = [(r, x) for r, x in enumerate(row_strategy) if x]
    cols = [(c, y) for c, y in enumerate(col_strategy) if y]
    if (sum(col_strategy) != 1 or any(y < 0 for y in col_strategy)
            or any(sum(x * payoff[r][c] for r, x in rows) < scaled for c in range(width))
            or any(sum(y * payoff_r[c] for c, y in cols) > scaled for payoff_r in payoff)):
        raise SolverInvariantError("minimax equality failed; simplex bug")
    return scaled / denom, row_strategy, col_strategy


def maximin(game: Game, player: int) -> MaximinResult:
    """Player's exact security level, a strategy attaining it, and the punishment.

    Both steps run over the player's integer payoffs `Game.int_payoffs`,
    one row per action (`games.int_payoff_row`).  First the pure saddle
    test: each action's pure guarantee (its least payoff) and each opponent
    joint action's best-reply payoff (the most any action gets against it).
    When the largest guarantee equals the least best-reply payoff, that
    number over d_i is the level, certified by the lowest-index action that
    guarantees it and the lowest-index joint action that holds every action
    to it, and no LP is solved.

    Otherwise one LP constraint per joint action of the opponents, over the
    same rows, whose guarantee over d_i is the level (`_row_lp`); the
    reported strategy is the deterministic vertex the simplex lands on, and
    the punishment is that LP's optimal dual, not re-checked here
    (`check_maximin` does that).
    """
    bases = opponent_bases(game, player)
    rows = [int_payoff_row(game, player, a, bases) for a in range(game.shape[player])]
    floors = [min(row) for row in rows]
    ceilings = [max(column) for column in zip(*rows)]
    level = max(floors)
    if level == min(ceilings):
        others = game.profile_from_index(bases[ceilings.index(level)])
        return MaximinResult(Fraction(level, game.payoff_scales[player]),
                             MixedAction.point_mass(player, floors.index(level)),
                             {others[:player] + others[player + 1:]: Fraction(1)})
    value, strategy, punishment = _row_lp(rows)
    weights = {a: w for a, w in enumerate(strategy) if w != 0}
    support = itertools.compress(game.opponent_profiles(player), punishment)
    return MaximinResult(value / game.payoff_scales[player], MixedAction(player, weights),
                         dict(zip(support, (w for w in punishment if w))))


def check_maximin(game: Game, player: int, result: MaximinResult) -> list[str]:
    """Both bounds of a maximin certificate, exactly, with no LP; returns problems.

    The strategy must guarantee at least `result.value` against every joint
    action of the opponents, and the punishment, a distribution, must hold
    every action of the player to at most it; together they pin the value.
    Both sums run over the player's integer payoffs `Game.int_payoffs`
    (payoffs times d_i) and over one support only, with the weights over a
    common denominator D: v <= sum_a x_a u(a, c) reads
    q * sum_a m_a U(a, c) >= p * D * d_i for v = p/q.
    """
    problems = []
    payoff, d = game.int_payoffs[player], game.payoff_scales[player]
    stride, value = game.strides[player], result.value
    strategy, punishment = result.strategy.weights, result.punishment
    if not all(0 <= a < game.shape[player] for a in strategy):
        return ["strategy names an action outside the game"]
    if not set(punishment) <= set(game.opponent_profiles(player)):
        return ["punishment names a joint action outside the game"]
    if any(w < 0 for w in punishment.values()) or sum(punishment.values()) != 1:
        return ["punishment is not a distribution"]
    weights, denom = scaled_ints(list(strategy.values()))
    mass = [(a * stride, m) for a, m in zip(strategy, weights)]
    for c, base in enumerate(opponent_bases(game, player)):
        total = sum(m * payoff[base + shift] for shift, m in mass)
        if total * value.denominator < value.numerator * denom * d:
            problems.append(f"strategy guarantees less than {value} against opponent "
                            f"joint action {c}")
            break
    weights, denom = scaled_ints(list(punishment.values()))
    mass = [(game.profile_index(game.insert_action(player, 0, opp)), m)
            for opp, m in zip(punishment, weights)]
    for a in range(game.shape[player]):
        shift = a * stride
        total = sum(m * payoff[base + shift] for base, m in mass)
        if total * value.denominator > value.numerator * denom * d:
            problems.append(f"punishment leaves action {a} more than {value}")
            break
    return problems
