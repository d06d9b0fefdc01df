"""Exact zero-sum matrix game solving.

Provides maximin values with both optimal strategies, a
strict-complementarity column strategy with maximal support, and the
profile-vs-deviation game whose optimal rows are the coarse correlated
equilibria, which the quasi-strictness certificate factors.  The welfare
weights of a uniqueness certificate come from uniform weights or a
singleton test's dual instead (`polytopes.GameAnalysis.weights`).

A pair of optimal strategies certifies a game's value v: the row strategy
guarantees at least v against every column, and the column strategy holds
every row to at most v.  Where the payoffs have a pure saddle point, max_r
min_c u(r, c) = min_c max_r u(r, c), that common number is v, and a pure
row and a pure column certify it (von Neumann's minimax theorem), so
`maximin` reads the level off the integer payoffs with no LP.  Otherwise
the game is one LP, `_row_lp`: the row player's guarantee, maximized.  Its
optimal dual is an optimal column strategy (the punishment, in `maximin`),
read from the final tableau (`lp.PolytopeSolver.duals`), so neither side
needs a second LP.  `matrix_value` re-checks both bounds exactly;
`maximin` leaves that to `check_maximin`, which a verifier runs on a
serialized result in integer arithmetic without any LP.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Mapping, Sequence

from .games import (
    Game,
    MixedAction,
    _as_fraction_tuple,
    deviation_gains,
    int_payoff_row,
    opponent_bases,
)
from .lp import (
    EQUAL,
    GREATER_EQUAL,
    LESS_EQUAL,
    OPTIMAL,
    ConstraintSystem,
    LinearConstraint,
    PolytopeSolver,
    SolverInvariantError,
)


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


def _row_lp(matrix: Sequence[Sequence[Fraction]]
            ) -> tuple[Fraction, tuple[Fraction, ...], tuple[Fraction, ...]]:
    """max z s.t. the mixed row strategy guarantees at least z against every column.

    The free guarantee is split as z = z+ - z-, the last two columns.
    Returns the value, the optimal row strategy and an optimal column
    strategy.  Column c's row is a `>=` row of a maximum, so its dual y_c
    is <= 0; the dual constraints of z+ and z- make the -y_c sum to 1, and
    those of the row strategy's weights hold every row to at most z.
    """
    num_rows = len(matrix)
    num_cols = len(matrix[0])
    rows = []
    for c in range(num_cols):
        coeffs = [matrix[r][c] for r in range(num_rows)] + [Fraction(-1), Fraction(1)]
        rows.append(LinearConstraint(tuple(coeffs), GREATER_EQUAL, Fraction(0)))
    rows.append(LinearConstraint(
        tuple([Fraction(1)] * num_rows + [Fraction(0)] * 2), EQUAL, Fraction(1)))
    system = ConstraintSystem(num_rows + 2, tuple(rows))
    objective = tuple([Fraction(0)] * num_rows + [Fraction(1), Fraction(-1)])
    solver = PolytopeSolver(system)
    outcome = solver.optimize(objective, maximize=True)
    if outcome.status != OPTIMAL:
        raise SolverInvariantError("matrix game value LP must be solvable")
    column = tuple(-y if y else y for y in solver.duals()[:num_cols])
    return outcome.value, outcome.point[:num_rows], column


def matrix_value(mg: MatrixGame) -> tuple[Fraction, tuple[Fraction, ...], tuple[Fraction, ...]]:
    """Value plus one optimal strategy per side, from one LP.

    Both strategies are re-checked exactly: the row strategy must guarantee
    at least the value against every column, and the column strategy, a
    distribution, must hold every row to at most the value.
    """
    value, row_strategy, col_strategy = _row_lp(mg.payoff)
    payoff = mg.payoff
    rows = [(r, x) for r, x in enumerate(row_strategy) if x]
    cols = [(c, y) for c, y in enumerate(col_strategy) if y]
    if (sum(col_strategy) != 1 or any(y < 0 for y in col_strategy)
            or any(sum(x * payoff[r][c] for r, x in rows) < value
                   for c in range(len(mg.col_labels)))
            or any(sum(y * payoff_r[c] for c, y in cols) > value for payoff_r in payoff)):
        raise SolverInvariantError("minimax equality failed; simplex bug")
    return value, row_strategy, col_strategy


def _payoff_matrix(game: Game, player: int) -> list[list[Fraction]]:
    """matrix[a][c] = u_player(a, c-th joint action in `opponent_profiles` order)."""
    stride, payoff = game.strides[player], game.payoffs[player]
    bases = opponent_bases(game, player)
    return [[payoff[base + a * stride] for base in bases] for a in range(game.shape[player])]


def maximin(game: Game, player: int) -> MaximinResult:
    """Player's exact security level, a strategy attaining it, and the punishment.

    First the pure saddle test, over the player's integer payoffs
    `Game.int_payoffs`: each action's pure guarantee (its least payoff) and
    each opponent joint action's best-reply payoff (the most any action
    gets against it).  When the largest guarantee equals the least
    best-reply payoff, that number over d_i is the level, certified by the
    lowest-index action that guarantees it and the lowest-index joint
    action that holds every action to it, and no LP is solved.

    Otherwise one LP constraint per joint action of the opponents; the
    reported strategy is the deterministic vertex the simplex lands on, and
    the punishment is that LP's optimal dual (see `_row_lp`), not re-checked
    here (`check_maximin` does that).  The rows stay over `Fraction`
    payoffs rather than `Game.int_payoffs`.  Each row holds the guarantee
    columns -1 and +1, which keep its gcd at 1, so a row scaled by the
    player's d_i could not be divided back down.  The standard form scales
    it only by the lcm of its own denominators, while d_i is the lcm over
    all of the player's payoffs: 47 bits on the 16x16 Tullock grid, whose
    payoff denominators have at most 9 bits.
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
    value, strategy, punishment = _row_lp(_payoff_matrix(game, player))
    weights = {a: w for a, w in enumerate(strategy) if w != 0}
    support = itertools.compress(game.opponent_profiles(player), punishment)
    return MaximinResult(value, MixedAction(player, weights),
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
    denom = lcm(*{w.denominator for w in strategy.values()})
    mass = [(a * stride, w.numerator * (denom // w.denominator)) for a, w in strategy.items()]
    for c, base in enumerate(opponent_bases(game, player)):
        total = sum(m * payoff[base + shift] for shift, m in mass)
        if total * value.denominator < value.numerator * denom * d:
            problems.append(f"strategy guarantees less than {value} against opponent "
                            f"joint action {c}")
            break
    denom = lcm(*{w.denominator for w in punishment.values()})
    mass = [(game.profile_index(game.insert_action(player, 0, opp)),
             w.numerator * (denom // w.denominator)) for opp, w in punishment.items()]
    for a in range(game.shape[player]):
        shift = a * stride
        total = sum(m * payoff[base + shift] for base, m in mass)
        if total * value.denominator > value.numerator * denom * d:
            problems.append(f"punishment leaves action {a} more than {value}")
            break
    return problems


def strict_complementary_strategy(mg: MatrixGame) -> MixedAction:
    """Optimal column strategy with maximal support.

    The support equals the set of columns that are best responses to every
    optimal row strategy: each column's weight is maximized over the optimal
    face, and the optimizers are averaged uniformly.
    """
    value, _, _ = matrix_value(mg)
    num_cols = len(mg.col_labels)
    rows = []
    for r in range(len(mg.row_labels)):
        coeffs = tuple(mg.payoff[r][c] for c in range(num_cols))
        rows.append(LinearConstraint(coeffs, LESS_EQUAL, value))
    rows.append(LinearConstraint((Fraction(1),) * num_cols, EQUAL, Fraction(1)))
    system = ConstraintSystem(num_cols, tuple(rows))
    solver = PolytopeSolver(system)
    if not solver.feasible:
        raise SolverInvariantError("optimal face of a matrix game cannot be empty")
    total = [Fraction(0)] * num_cols
    for c in range(num_cols):
        unit = [Fraction(0)] * num_cols
        unit[c] = Fraction(1)
        outcome = solver.optimize(unit, maximize=True)
        if outcome.status != OPTIMAL:
            raise SolverInvariantError("optimal face is bounded; optimize must succeed")
        for j in range(num_cols):
            total[j] += outcome.point[j]
    weights = {c: w / num_cols for c, w in enumerate(total) if w != 0}
    return MixedAction(1, weights)


def build_lemma3_auxiliary(game: Game) -> MatrixGame:
    """Profile-vs-deviation game whose optimal rows are exactly the CCEs.

    Rows are profiles b, columns are pairs (i, a_i); entry is
    u_i(b) - u_i(a_i, b_{-i}), `games.deviation_gains` over d_i.  A
    distribution over rows guarantees at least 0 iff it satisfies every
    coarse deviation constraint, so the game value is 0 whenever a CCE
    exists.
    """
    profiles = list(game.profiles())
    cols = [(i, a) for i in range(game.num_players) for a in range(game.shape[i])]
    columns = [[Fraction(g, game.payoff_scales[i]) for g in deviation_gains(game, i, a)]
               for i, a in cols]
    return MatrixGame(
        row_labels=tuple(game.profile_label(p) for p in profiles),
        col_labels=tuple(f"p{i}->{game.actions[i][a]}" for i, a in cols),
        payoff=tuple(zip(*columns)),
        row_keys=tuple(profiles),
        col_keys=tuple(cols),
    )
