"""Named example games and seeded random game generators."""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Sequence

from .games import Game, GameFormatError


def prisoners_dilemma() -> Game:
    """Canonical prisoner's dilemma: (c,c)=(2,2), (d,d)=(1,1), sucker 0, temptation 3."""
    actions = (("c", "d"), ("c", "d"))
    u1 = (Fraction(2), Fraction(0), Fraction(3), Fraction(1))
    u2 = (Fraction(2), Fraction(3), Fraction(0), Fraction(1))
    return Game(actions, (u1, u2), "prisoners_dilemma")


def matching_pennies() -> Game:
    """Zero-sum 2x2: player 1 wins on a match, player 2 on a mismatch."""
    actions = (("H", "T"), ("H", "T"))
    u1 = (Fraction(1), Fraction(-1), Fraction(-1), Fraction(1))
    u2 = tuple(-x for x in u1)
    return Game(actions, (u1, u2), "matching_pennies")


def rock_paper_scissors() -> Game:
    """Standard symmetric zero-sum RPS with win 1, loss -1, tie 0."""
    labels = ("rock", "paper", "scissors")
    # beats[i] is the action that action i beats
    beats = {0: 2, 1: 0, 2: 1}
    u1 = []
    for a1 in range(3):
        for a2 in range(3):
            if a1 == a2:
                u1.append(Fraction(0))
            elif beats[a1] == a2:
                u1.append(Fraction(1))
            else:
                u1.append(Fraction(-1))
    u2 = tuple(-x for x in u1)
    return Game((labels, labels), (tuple(u1), u2), "rock_paper_scissors")


def parking(m: int, v, c, t) -> Game:
    """Two drivers choose to pay (cost c) or to gamble on one of m free spots.

    Targeting free spot i against a payer costs the expected towing fee t at
    rate 1; against a rival at the same spot the fee halves; against a rival
    at spot j it scales with the circular distance ((i-j) mod m)/m.
    """
    if m < 2:
        raise GameFormatError("parking needs at least two free spots")
    v, c, t = Fraction(v), Fraction(c), Fraction(t)
    labels = ("pay",) + tuple(f"l{i}" for i in range(1, m + 1))
    actions = (labels, labels)

    def payoff(mine: int, theirs: int) -> Fraction:
        # action 0 = pay, actions 1..m = free spots
        if mine == 0:
            return v - c
        if theirs == 0:
            return v - t
        if mine == theirs:
            return v - t / 2
        return v - t * Fraction((mine - theirs) % m, m)

    u1, u2 = [], []
    for a1 in range(m + 1):
        for a2 in range(m + 1):
            u1.append(payoff(a1, a2))
            u2.append(payoff(a2, a1))
    return Game(actions, (tuple(u1), tuple(u2)), f"parking(m={m},v={v},c={c},t={t})")


def mp_type(a, b, c, d, e, f, g, h) -> Game:
    """2x2 game of matching-pennies type.

    Payoffs (u1, u2) are ((a,e) (b,f) / (c,g) (d,h)) and must satisfy the
    strict cyclic best-reply pattern a>c, d>b, f>e, g>h, which forces a
    unique, fully mixed Nash equilibrium.
    """
    a, b, c, d = Fraction(a), Fraction(b), Fraction(c), Fraction(d)
    e, f, g, h = Fraction(e), Fraction(f), Fraction(g), Fraction(h)
    if not (a > c and d > b):
        raise GameFormatError("matching-pennies type needs a > c and d > b")
    if not (f > e and g > h):
        raise GameFormatError("matching-pennies type needs f > e and g > h")
    actions = (("x", "y"), ("x", "y"))
    u1 = (a, b, c, d)
    u2 = (e, f, g, h)
    return Game(actions, (u1, u2), "mp_type")


def table2() -> Game:
    """2x2 game with two pure equilibria whose hull is the whole IRCP set."""
    actions = (("a1", "b1"), ("a2", "b2"))
    u1 = (Fraction(1), Fraction(1), Fraction(0), Fraction(1))
    u2 = (Fraction(1), Fraction(0), Fraction(1), Fraction(1))
    return Game(actions, (u1, u2), "table2")


def table3() -> Game:
    """3x3 game with a strict NE that is not the unique CCE.

    The profile (a1,a2) is a strict pure NE, yet mixing (b1,b2) and (c1,c2)
    equally gives player 1 payoff 1/2 > 0, so the CCE and IRCP sets are not
    singletons.
    """
    actions = (("a1", "b1", "c1"), ("a2", "b2", "c2"))
    u1 = (Fraction(0), Fraction(0), Fraction(0),
          Fraction(-1), Fraction(2), Fraction(-1),
          Fraction(-1), Fraction(-1), Fraction(-1))
    u2 = (Fraction(0), Fraction(-1), Fraction(-1),
          Fraction(0), Fraction(-1), Fraction(-1),
          Fraction(0), Fraction(-1), Fraction(2))
    return Game(actions, (u1, u2), "table3")


def random_game(shape: Sequence[int], seed: int, low: int = -3, high: int = 3) -> Game:
    """Seeded game with uniform integer payoffs in [low, high]."""
    if low > high:
        raise ValueError(f"payoff range [{low}, {high}] is empty")
    rng = random.Random(seed)
    actions = tuple(tuple(f"a{i}_{k}" for k in range(size))
                    for i, size in enumerate(shape))
    total = 1
    for size in shape:
        total *= size
    payoffs = tuple(
        tuple(Fraction(rng.randint(low, high)) for _ in range(total))
        for _ in shape
    )
    return Game(actions, payoffs, f"random{tuple(shape)}#{seed}")


def random_mp_type(seed: int) -> Game:
    """Seeded random matching-pennies-type instance (strict inequalities by construction).

    Each payoff is an integer in [-5, 5].
    """
    rng = random.Random(seed)

    def ordered_pair() -> tuple[int, int]:
        lo, hi = sorted(rng.sample(range(-5, 6), 2))
        return lo, hi

    c, a = ordered_pair()
    b, d = ordered_pair()
    e, f = ordered_pair()
    h, g = ordered_pair()
    return mp_type(a, b, c, d, e, f, g, h)
