from fractions import Fraction
from typing import Sequence

import pytest

from eqcert.games import Game
from eqcert.rational import iroot
from eqcert.theory import strategic_transform
from eqcert.zerosum import MatrixGame, maximin


def F(x, y=None) -> Fraction:
    return Fraction(x) if y is None else Fraction(x, y)


def fraction_root(x: Fraction, k: int) -> Fraction | None:
    """Exact k-th root of x >= 0, or None when no rational root exists (reference)."""
    if x < 0:
        raise ValueError("fraction_root of a negative rational")
    num_root, num_exact = iroot(x.numerator, k)
    if not num_exact:
        return None
    den_root, den_exact = iroot(x.denominator, k)
    if not den_exact:
        return None
    return Fraction(num_root, den_root)


def fraction_power(x: Fraction, r: Fraction) -> Fraction | None:
    """Exact x**r for x > 0 and rational r, or None when irrational (reference).

    `contests.TullockRatio.at` takes the roots of t's numerator and
    denominator itself; tests compare it with power / (1 + power).
    """
    if x <= 0:
        raise ValueError("fraction_power requires a positive base")
    r = Fraction(r)
    if r == 0:
        return Fraction(1)
    if r < 0:
        inverse = fraction_power(x, -r)
        return None if inverse is None else 1 / inverse
    powered = x ** r.numerator
    return fraction_root(powered, r.denominator)


def build_theorem1_auxiliary(game: Game, a_star: Sequence[int]) -> MatrixGame:
    """Profile-vs-player comparison game around a candidate profile (reference).

    Rows are profiles other than a_star, columns are players; entry (a, i)
    is u_i(a) - u_i(a_star).  Its value is negative exactly when some
    nonnegative welfare weights make every other profile strictly worse in
    aggregate.  The library tries uniform weights on a symmetric game and
    then reads them from the dual of the P(a*) singleton test instead
    (`polytopes.GameAnalysis.weights`); tests compare the two.
    """
    a_star = tuple(a_star)
    profiles = [p for p in game.profiles() if p != a_star]
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


def reference_reduction(game: Game, a_star: Sequence[int]) -> Game:
    """v_i(a) = u_i(a) - u_i(a_i*, a_-i), as a strategic transform (reference).

    Its payoffs are the "cce" gains at a* (`games.gain_rows`) over d_i, and
    its P(a*) over u is the "cce" P(a*) of the game.
    """
    def beta(i):
        return lambda others: -game.u(i, game.insert_action(i, a_star[i], others))

    ones = [Fraction(1)] * game.num_players
    return strategic_transform(game, ones, [beta(i) for i in range(game.num_players)])


def unique_security_profile(g: Game):
    """The only candidate point for a singleton IRCP, when well defined.

    Each player needs exactly one pure action that guarantees the maximin
    level, and the profile of those actions must pay every player that level.
    """
    profile = []
    for i in range(g.num_players):
        level = maximin(g, i).value
        options = [a for a in range(g.shape[i])
                   if min(g.u(i, g.insert_action(i, a, o))
                          for o in g.opponent_profiles(i)) == level]
        if len(options) != 1:
            return None
        profile.append(options[0])
    a_star = tuple(profile)
    if any(g.u(i, a_star) != maximin(g, i).value for i in range(g.num_players)):
        return None
    return a_star


@pytest.fixture
def coordination() -> Game:
    # two strict pure NE on the diagonal
    return Game((("a", "b"), ("a", "b")),
                ((Fraction(2), Fraction(0), Fraction(0), Fraction(1)),
                 (Fraction(2), Fraction(0), Fraction(0), Fraction(1))),
                "coordination")


@pytest.fixture
def zero_game() -> Game:
    zeros = (Fraction(0),) * 4
    return Game((("a", "b"), ("a", "b")), (zeros, zeros), "zero")
