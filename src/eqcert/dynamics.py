"""Seeded no-regret dynamics for corroborating the polytope computations.

Multiplicative weights drives empirical play into the CCE polytope;
regret matching on conditional (action-pair) regrets drives it into the
CE polytope.  Weight updates run in floating point for speed, but the
empirical distribution is exact (integer play counts over steps) and all
reported regrets are computed from it in rational arithmetic, so polytope
membership of the outcome can be checked exactly.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .games import Game, JointDistribution

EXTERNAL_MW = "external_mw"
INTERNAL_RM = "internal_rm"
ALGORITHMS = (EXTERNAL_MW, INTERNAL_RM)


class DynamicsError(ValueError):
    """Bad inputs to a dynamics run."""


def external_regret(game: Game, i: int, mu: JointDistribution) -> Fraction:
    """max over fixed actions of the exact gain from committing ex ante."""
    best = None
    for dev in range(game.shape[i]):
        gain = Fraction(0)
        for profile, w in mu.weights.items():
            others = tuple(a for j, a in enumerate(profile) if j != i)
            gain += w * (game.u(i, game.insert_action(i, dev, others))
                         - game.u(i, profile))
        if best is None or gain > best:
            best = gain
    return best


def internal_regret(game: Game, i: int, mu: JointDistribution) -> Fraction:
    """max over recommendation swaps of the exact conditional gain."""
    best = Fraction(0)
    for rec in range(game.shape[i]):
        for dev in range(game.shape[i]):
            if dev == rec:
                continue
            gain = Fraction(0)
            for profile, w in mu.weights.items():
                if profile[i] != rec:
                    continue
                others = tuple(a for j, a in enumerate(profile) if j != i)
                gain += w * (game.u(i, game.insert_action(i, dev, others))
                             - game.u(i, profile))
            if gain > best:
                best = gain
    return best


@dataclass(frozen=True)
class DynamicsRun:
    game: Game
    algorithm: str
    steps: int
    seed: int
    learning_rate: float
    empirical: JointDistribution
    external_regrets: tuple[Fraction, ...]
    internal_regrets: tuple[Fraction, ...]
    final_strategies: tuple[tuple[float, ...], ...]

    @property
    def max_external_regret(self) -> Fraction:
        return max(self.external_regrets)

    @property
    def max_internal_regret(self) -> Fraction:
        return max(self.internal_regrets)


def _sample(weights: list[float], rng: random.Random) -> int:
    total = sum(weights)
    r = rng.random() * total
    acc = 0.0
    for a, w in enumerate(weights):
        acc += w
        if r < acc:
            return a
    return len(weights) - 1


def _stationary(positive: list[list[float]], k: int) -> list[float]:
    """Invariant distribution of the positive-regret transition matrix.

    Off-diagonal flow a -> b is proportional to the positive conditional
    regret of b against a; the invariant distribution does not depend on
    the inertia normalizer, so it is fixed at twice the largest row sum,
    which keeps every self-loop at probability >= 1/2 and makes the power
    iteration contract quickly.
    """
    mu = 2.0 * max(sum(row) for row in positive)
    dist = [1.0 / k] * k
    for _ in range(50):
        nxt = [0.0] * k
        for a in range(k):
            mass = dist[a]
            if mass == 0.0:
                continue
            row = positive[a]
            out = 0.0
            for b in range(k):
                if b != a and row[b] > 0.0:
                    flow = mass * row[b] / mu
                    nxt[b] += flow
                    out += flow
            nxt[a] += mass - out
        dist = nxt
    total = sum(dist)
    return [x / total for x in dist]


def run(game: Game, algorithm: str, steps: int, seed: int,
        learning_rate: float = 0.5) -> DynamicsRun:
    """Deterministic trajectory of simultaneous no-regret learners.

    external_mw: each player plays multiplicative weights over cumulative
    action payoffs against the realized opponent profiles, with step size
    learning_rate / (payoff_range * sqrt(t)).  internal_rm: each player
    plays the invariant distribution of the transition matrix whose flows
    are the positive conditional regrets, uniform while no regret is
    positive.
    """
    if algorithm not in ALGORITHMS:
        raise DynamicsError(f"unknown algorithm {algorithm!r}")
    if steps < 1:
        raise DynamicsError("steps must be at least 1")
    if not learning_rate > 0:
        raise DynamicsError("learning rate must be positive")

    n = game.num_players
    shape = game.shape
    rng = random.Random(seed)
    payoff = [[float(x) for x in game.payoffs[i]] for i in range(n)]
    ranges = [max(payoff[i]) - min(payoff[i]) if payoff[i] else 0.0 for i in range(n)]
    strides = game.strides

    # external: cumulative payoff of each fixed action vs realized play
    cumulative = [[0.0] * shape[i] for i in range(n)]
    # internal: conditional regret sums S[played][alternative], per player
    regret_sum = [[[0.0] * shape[i] for _ in range(shape[i])] for i in range(n)]

    counts: Counter = Counter()
    strategies: list[tuple[float, ...]] = [()] * n

    for t in range(1, steps + 1):
        profile = []
        for i in range(n):
            k = shape[i]
            if algorithm == EXTERNAL_MW:
                if ranges[i] == 0.0:
                    dist = [1.0] * k
                else:
                    eta = learning_rate / (ranges[i] * math.sqrt(t))
                    top = max(cumulative[i])
                    dist = [math.exp(eta * (c - top)) for c in cumulative[i]]
            else:
                if t == 1 or ranges[i] == 0.0:
                    dist = [1.0] * k
                else:
                    positive = [[max(r, 0.0) for r in row]
                                for row in regret_sum[i]]
                    if all(v == 0.0 for row in positive for v in row):
                        dist = [1.0] * k
                    else:
                        dist = _stationary(positive, k)
            strategies[i] = tuple(dist)
            profile.append(_sample(dist, rng))

        index = 0
        for i in range(n):
            index += profile[i] * strides[i]
        counts[tuple(profile)] += 1

        for i in range(n):
            realized = payoff[i][index]
            base = index - profile[i] * strides[i]
            row = regret_sum[i][profile[i]]
            for a in range(shape[i]):
                alt = payoff[i][base + a * strides[i]]
                cumulative[i][a] += alt
                row[a] += alt - realized

    empirical = JointDistribution(
        {p: Fraction(c, steps) for p, c in counts.items()})
    ext = tuple(external_regret(game, i, empirical) for i in range(n))
    internal = tuple(internal_regret(game, i, empirical) for i in range(n))
    return DynamicsRun(game, algorithm, steps, seed, learning_rate, empirical,
                       ext, internal, tuple(strategies))
