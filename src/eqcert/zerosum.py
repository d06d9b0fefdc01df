"""Exact zero-sum matrix game solving.

Provides maximin values/strategies, the dual (punishment) side, a
strict-complementarity column strategy with maximal support, and the two
auxiliary zero-sum games that drive the uniqueness certificates: the
profile-vs-player game comparing welfare-weighted gains around a candidate
profile, and the profile-vs-deviation game whose value pins down coarse
correlated equilibria.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .games import Game, MixedAction, _as_fraction_tuple, deviation_gains
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
    value: Fraction
    strategy: MixedAction


def _row_lp(matrix: Sequence[Sequence[Fraction]]) -> tuple[Fraction, tuple[Fraction, ...]]:
    """max z s.t. the mixed row strategy guarantees at least z against every column.

    The free guarantee is split as z = z+ - z-, the last two columns.
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
    outcome = PolytopeSolver(system).optimize(objective, maximize=True)
    if outcome.status != OPTIMAL:
        raise SolverInvariantError("matrix game value LP must be solvable")
    return outcome.value, outcome.point[:num_rows]


def matrix_value(mg: MatrixGame) -> tuple[Fraction, tuple[Fraction, ...], tuple[Fraction, ...]]:
    """Value plus one optimal strategy per side; checks minimax equality exactly."""
    value, row_strategy = _row_lp(mg.payoff)
    transposed = [[-mg.payoff[r][c] for r in range(len(mg.row_labels))]
                  for c in range(len(mg.col_labels))]
    col_value, col_strategy = _row_lp(transposed)
    if col_value != -value:
        raise SolverInvariantError("minimax equality failed; simplex bug")
    return value, row_strategy, col_strategy


def _payoff_matrix(game: Game, player: int) -> list[list[Fraction]]:
    """matrix[a][c] = u_player(a, c-th joint action in `opponent_profiles` order)."""
    stride, size = game.strides[player], game.shape[player]
    payoff = game.payoffs[player]
    # Profile indices where the player plays action 0, in increasing order,
    # which is `opponent_profiles` order; action a adds a * stride.
    bases = [k for k in range(game.num_profiles) if (k // stride) % size == 0]
    return [[payoff[base + a * stride] for base in bases] for a in range(size)]


def maximin(game: Game, player: int) -> MaximinResult:
    """Player's exact security level and one strategy attaining it.

    One LP constraint per joint action of the opponents; the reported
    strategy is the deterministic vertex the simplex lands on.  The rows
    stay over `Fraction` payoffs rather than `Game.int_payoffs`.  Each row
    holds the guarantee columns -1 and +1, which keep its gcd at 1, so a
    row scaled by the player's d_i could not be divided back down.  The
    standard form scales it only by the lcm of its own denominators, while
    d_i is the lcm over all of the player's payoffs: 47 bits on the 16x16
    Tullock grid, whose payoff denominators have at most 9 bits.
    """
    value, strategy = _row_lp(_payoff_matrix(game, player))
    weights = {a: w for a, w in enumerate(strategy) if w != 0}
    return MaximinResult(value, MixedAction(player, weights))


def minimax_dual(game: Game, player: int) -> tuple[Fraction, dict[tuple[int, ...], Fraction]]:
    """The opponents' best correlated punishment against `player`.

    Returns the same value as `maximin` (checked exactly) together with a
    distribution over the opponents' joint actions that caps the player's
    best response at that value.
    """
    others = list(game.opponent_profiles(player))
    # Column side of the same matrix: minimize the row player's guarantee.
    matrix = [[-x for x in column] for column in zip(*_payoff_matrix(game, player))]
    neg_value, punishment = _row_lp(matrix)
    value = -neg_value
    if value != maximin(game, player).value:
        raise SolverInvariantError("dual punishment value must equal the maximin value")
    dist = {opp: w for opp, w in zip(others, punishment) if w != 0}
    return value, dist


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


def build_theorem1_auxiliary(game: Game, a_star: Sequence[int]) -> MatrixGame:
    """Profile-vs-player comparison game around a candidate profile.

    Rows are profiles other than a_star, columns are players; entry (a, i)
    is u_i(a) - u_i(a_star).  Its value is negative exactly when some
    positive welfare weights make every other profile strictly worse in
    aggregate, which is what a uniqueness certificate needs.
    """
    a_star = tuple(a_star)
    profiles = [p for p in game.profiles() if p != a_star]
    if not profiles:
        raise ZeroSumError("game has a single profile; comparison game is empty")
    base = game.payoff_vector(a_star)
    payoff = tuple(
        tuple(game.u(i, p) - base[i] for i in range(game.num_players))
        for p in profiles
    )
    return MatrixGame(
        row_labels=tuple(game.profile_label(p) for p in profiles),
        col_labels=tuple(f"p{i}" for i in range(game.num_players)),
        payoff=payoff,
        row_keys=tuple(profiles),
        col_keys=tuple(range(game.num_players)),
    )


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
