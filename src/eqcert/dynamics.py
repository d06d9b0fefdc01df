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

from .games import Game, JointDistribution, gain_table, integer_weights

EXTERNAL_MW = "external_mw"
INTERNAL_RM = "internal_rm"
ALGORITHMS = (EXTERNAL_MW, INTERNAL_RM)


class DynamicsError(ValueError):
    """Bad inputs to a dynamics run."""


def _deviation_gains(game: Game, i: int, mu: JointDistribution) -> tuple[list[list[int]], int]:
    """Player i's `gain_table` over supp(mu), and the D d_i that the regrets divide it by.

    An entry [rec][dev] is minus the gain from playing dev whenever rec is played.
    """
    support, denom = integer_weights(game, mu)
    return gain_table(game, i, support), denom * game.payoff_scales[i]


def external_regret(game: Game, i: int, mu: JointDistribution,
                    gains: tuple[list[list[int]], int] | None = None) -> Fraction:
    """max over fixed actions of the exact gain from committing ex ante.

    `gains`, when given, is `_deviation_gains(game, i, mu)`, computed once by
    a caller that wants both regrets.
    """
    table, unit = gains or _deviation_gains(game, i, mu)
    return Fraction(-min(map(sum, zip(*table))), unit)


def internal_regret(game: Game, i: int, mu: JointDistribution,
                    gains: tuple[list[list[int]], int] | None = None) -> Fraction:
    """max over recommendation swaps of the exact conditional gain; `gains` as above."""
    table, unit = gains or _deviation_gains(game, i, mu)
    # the diagonal is 0, so the maximum is never negative
    return Fraction(-min(map(min, table)), unit)


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


def _stationary(positive: list[list[float]], members: list[int], k: int) -> list[float]:
    """Invariant distribution of the positive-regret chain, solved directly.

    Off-diagonal flow a -> b is proportional to the positive conditional
    regret positive[a][b] of b against a; the inertia normalizer cancels
    out of q = qQ, so the balance equations are inflow = outflow,
    sum_a q_a positive[a][b] = q_b sum_c positive[b][c].  A reducible chain
    has one invariant distribution per closed class; this takes `members`,
    the class `_closed_class` gives for the chain, solves its balance
    equations with one of them replaced by sum q = 1 (float Gaussian
    elimination with partial pivoting), and gives every other action zero
    weight.  Any invariant distribution keeps the internal-regret guarantee
    (Blum and Mansour, "From external to internal regret", JMLR 2007), so
    one class suffices.
    """
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
    payoffs for external_mw, conditional regret sums for internal_rm.  The
    closed class depends only on which regret sums are positive, so
    internal_rm keeps it per player and finds it again only when that
    pattern changes.
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

    # internal: each player's positive-regret pattern and its closed class
    classes: list[tuple[tuple[bool, ...], list[int]]] = [((), [])] * n

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
                pattern = tuple(r > 0.0 for row in positive for r in row)
                if any(pattern):
                    if classes[i][0] != pattern:
                        classes[i] = (pattern, _closed_class(positive, k))
                    dist = _stationary(positive, classes[i][1], k)
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
    gains = [_deviation_gains(game, i, empirical) for i in range(n)]
    ext = tuple(external_regret(game, i, empirical, gains[i]) for i in range(n))
    internal = tuple(internal_regret(game, i, empirical, gains[i]) for i in range(n))
    return DynamicsRun(game, algorithm, steps, seed, learning_rate, empirical,
                       ext, internal, tuple(strategies))
