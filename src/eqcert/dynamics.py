"""Seeded no-regret dynamics for corroborating the polytope computations.

Multiplicative weights drives empirical play into the CCE polytope;
regret matching on conditional (action-pair) regrets drives it into the
CE polytope.  Each regret-matching step plays the stationary distribution
of one closed class of the positive-regret chain, solved directly rather
than approximated; one class is enough because any stationary
distribution keeps the internal-regret bound (Blum and Mansour, "From
external to internal regret", JMLR 2007).  Weight updates run in
floating point for speed, but the empirical distribution is exact
(integer play counts over steps) and all reported regrets are computed
from it in rational arithmetic, so polytope membership of the outcome can
be checked exactly.
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


def _deviation_gains(game: Game, i: int, mu: JointDistribution) -> list[list[Fraction]]:
    """gains[rec][dev] = sum of mu(a) * (u_i(dev, a_-i) - u_i(a)) over a with a_i = rec.

    Each support profile is visited once; its deviations are read through
    `Game.strides` rather than by rebuilding profiles.
    """
    k = game.shape[i]
    stride = game.strides[i]
    payoff = game.payoffs[i]
    gains = [[Fraction(0)] * k for _ in range(k)]
    for profile, w in mu.weights.items():
        index = game.profile_index(profile)
        rec = profile[i]
        realized = payoff[index]
        base = index - rec * stride
        row = gains[rec]
        for dev in range(k):
            if dev != rec:
                row[dev] += w * (payoff[base + dev * stride] - realized)
    return gains


def external_regret(game: Game, i: int, mu: JointDistribution) -> Fraction:
    """max over fixed actions of the exact gain from committing ex ante."""
    gains = _deviation_gains(game, i, mu)
    return max(sum(row[dev] for row in gains) for dev in range(game.shape[i]))


def internal_regret(game: Game, i: int, mu: JointDistribution) -> Fraction:
    """max over recommendation swaps of the exact conditional gain."""
    # gains[rec][rec] is 0, so the maximum is never negative
    return max(max(row) for row in _deviation_gains(game, i, mu))


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


def _closed_class(positive: list[list[float]], k: int) -> list[int]:
    """Sorted members of one closed communicating class, the same one every time.

    An action a lies in a closed class exactly when every action reachable
    from a (along positive entries) reaches a back; that class is then a's
    reachable set.  The class returned is that of the lowest such a.
    """
    reach: dict[int, set[int]] = {}

    def reachable(a: int) -> set[int]:
        if a not in reach:
            seen = {a}
            stack = [a]
            while stack:
                row = positive[stack.pop()]
                for b in range(k):
                    if row[b] > 0.0 and b not in seen:
                        seen.add(b)
                        stack.append(b)
            reach[a] = seen
        return reach[a]

    for a in range(k):
        members = reachable(a)
        if all(a in reachable(b) for b in members):
            return sorted(members)
    raise AssertionError("a finite chain has a closed class")


def _stationary(positive: list[list[float]], k: int) -> list[float]:
    """Invariant distribution of the positive-regret chain, solved directly.

    Off-diagonal flow a -> b is proportional to the positive conditional
    regret positive[a][b] of b against a; the inertia normalizer cancels
    out of q = qQ, so the balance equations are inflow = outflow,
    sum_a q_a positive[a][b] = q_b sum_c positive[b][c].  A reducible chain
    has one invariant distribution per closed class; this takes the class
    of `_closed_class`, solves its balance equations with one of them
    replaced by sum q = 1 (float Gaussian elimination with partial
    pivoting), and gives every other action zero weight.  Any invariant
    distribution keeps the internal-regret guarantee (Blum and Mansour,
    "From external to internal regret", JMLR 2007), so one class suffices.
    """
    members = _closed_class(positive, k)
    m = len(members)
    # row r: inflow minus outflow of members[r]; row 0 becomes sum q = 1
    system = []
    for r, b in enumerate(members):
        row = [positive[a][b] for a in members]
        row[r] = -sum(positive[b][c] for c in members if c != b)
        row.append(0.0)
        system.append(row)
    system[0] = [1.0] * (m + 1)
    for col in range(m):
        pivot = max(range(col, m), key=lambda r: abs(system[r][col]))
        system[col], system[pivot] = system[pivot], system[col]
        top = system[col]
        for r in range(col + 1, m):
            factor = system[r][col] / top[col]
            if factor != 0.0:
                system[r] = [x - factor * y for x, y in zip(system[r], top)]
    q = [0.0] * m
    for r in range(m - 1, -1, -1):
        row = system[r]
        q[r] = (row[m] - sum(row[c] * q[c] for c in range(r + 1, m))) / row[r]
    dist = [0.0] * k
    for a, mass in zip(members, q):
        dist[a] = mass
    return dist


def run(game: Game, algorithm: str, steps: int, seed: int,
        learning_rate: float = 0.5) -> DynamicsRun:
    """Deterministic trajectory of simultaneous no-regret learners.

    external_mw: each player plays multiplicative weights over cumulative
    action payoffs against the realized opponent profiles, with step size
    learning_rate / (payoff_range * sqrt(t)).  internal_rm: each player
    plays an invariant distribution of the chain whose flows are the
    positive conditional regrets, uniform while no regret is positive: the
    stationary distribution of one closed class, solved directly rather
    than approximated (see `_stationary`; one class suffices by Blum and
    Mansour).  Each learner keeps only the sums it reads: cumulative
    payoffs for external_mw, conditional regret sums for internal_rm.
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
    external = algorithm == EXTERNAL_MW

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
            if external:
                if ranges[i] == 0.0:
                    dist = [1.0] * k
                else:
                    eta = learning_rate / (ranges[i] * math.sqrt(t))
                    top = max(cumulative[i])
                    dist = [math.exp(eta * (c - top)) for c in cumulative[i]]
            else:
                # constant payoffs and t = 1 both leave every regret sum at 0.0
                positive = [[r if r > 0.0 else 0.0 for r in row] for row in regret_sum[i]]
                if any(any(row) for row in positive):
                    dist = _stationary(positive, k)
                else:
                    dist = [1.0] * k
            strategies[i] = tuple(dist)
            profile.append(_sample(dist, rng))

        index = 0
        for i in range(n):
            index += profile[i] * strides[i]
        counts[tuple(profile)] += 1

        for i in range(n):
            stride = strides[i]
            base = index - profile[i] * stride
            # player i's payoff for each own action against the realized opponents
            column = payoff[i][base:base + shape[i] * stride:stride]
            if external:
                row = cumulative[i]
                for a, alt in enumerate(column):
                    row[a] += alt
            else:
                realized = payoff[i][index]
                row = regret_sum[i][profile[i]]
                for a, alt in enumerate(column):
                    row[a] += alt - realized

    empirical = JointDistribution(
        {p: Fraction(c, steps) for p, c in counts.items()})
    ext = tuple(external_regret(game, i, empirical) for i in range(n))
    internal = tuple(internal_regret(game, i, empirical) for i in range(n))
    return DynamicsRun(game, algorithm, steps, seed, learning_rate, empirical,
                       ext, internal, tuple(strategies))
