"""Seeded no-regret dynamics for corroborating the polytope computations.

Multiplicative weights drives empirical play into the CCE polytope;
regret matching on conditional (action-pair) regrets drives it into the
CE polytope.  Each regret-matching step plays the stationary distribution
of one closed class of the positive-regret chain, solved directly rather
than approximated; one class is enough because any stationary
distribution keeps the internal-regret bound (Blum and Mansour, "From
external to internal regret", JMLR 2007).

Per step, a learner does work in its own actions only.  Each player reads
its payoffs against the realized opponents from a column table built once
per run; multiplicative weights adds that column to its cumulative
payoffs, and regret matching adds it, less the realized payoff, to the
regret sums of the played action alone, updating that row's positive part
and signs.  Play is counted per profile index.  Weights and regret sums
run in floating point, but they only pick the actions: the empirical
distribution is exact (integer play counts over steps) and all reported
regrets are computed from it in rational arithmetic, so polytope
membership of the outcome can be checked exactly.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from operator import add

from .games import Game, JointDistribution, gain_table, integer_weights, opponent_bases

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
    Mansour).  Each player samples its action by one `random()` draw times
    the float sum of its weights: the first action whose running sum of
    weights exceeds it, or the last action if none does.

    Each learner keeps only the sums it reads.  Before the first step, each
    player gets a column table: entry k is the player's float payoff for
    each own action against the opponents of profile k, one list shared by
    the profiles that differ only in the player's own action.  A step then
    adds the column of the realized profile to external_mw's cumulative
    payoffs, or, for internal_rm, adds it less the realized payoff to the
    regret sums of the played action only, and recomputes the positive
    part and signs of that one row.  The closed class depends only on which
    regret sums are positive, so internal_rm keeps it per player and drops
    it when a sign in the played row flips.  Play is counted per profile
    index, and profiles and strategy tuples are built once, after the last
    step.  Floats only pick the actions: the empirical distribution is the
    exact play counts, and the regrets are computed from it exactly.
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
    strides = game.strides
    external = algorithm == EXTERNAL_MW
    ranges = []
    # columns[i][k]: player i's payoff for each own action against profile k's opponents
    columns = []
    for i in range(n):
        try:
            payoff = [float(x) for x in game.payoffs[i]]
        except OverflowError as exc:
            raise DynamicsError(f"player {i}'s payoffs do not fit in a float: {exc}") from exc
        ranges.append(max(payoff) - min(payoff))
        stride, k = strides[i], shape[i]
        table = [None] * game.num_profiles
        for base in opponent_bases(game, i):
            column = payoff[base:base + k * stride:stride]
            table[base:base + k * stride:stride] = [column] * k
        columns.append(table)
    uniform = [[1.0] * k for k in shape]

    # external: cumulative payoff of each fixed action vs realized play
    cumulative = [[0.0] * k for k in shape]
    # internal: conditional regret sums S[played][alternative], their
    # positive parts and signs, how many are positive, and the kept class
    regret_sum = [[[0.0] * k for _ in range(k)] for k in shape]
    positive = [[[0.0] * k for _ in range(k)] for k in shape]
    pattern = [[[False] * k for _ in range(k)] for k in shape]
    positives = [0] * n
    members: list[list[int] | None] = [None] * n

    counts = [0] * game.num_profiles
    played = [0] * n
    strategies = list(uniform)

    for t in range(1, steps + 1):
        root = math.sqrt(t)
        index = 0
        for i in range(n):
            if external:
                if ranges[i] == 0.0:
                    dist = uniform[i]
                else:
                    eta = learning_rate / (ranges[i] * root)
                    row = cumulative[i]
                    top = max(row)
                    dist = [math.exp(eta * (c - top)) for c in row]
            elif positives[i]:
                if members[i] is None:
                    members[i] = _closed_class(positive[i], shape[i])
                dist = _stationary(positive[i], members[i], shape[i])
            else:
                # constant payoffs and t = 1 both leave every regret sum at 0.0
                dist = uniform[i]
            strategies[i] = dist
            # the first a with r below the running sum; past the end, the last action
            r = rng.random() * sum(dist)
            acc = 0.0
            for a, w in enumerate(dist):
                acc += w
                if r < acc:
                    break
            played[i] = a
            index += a * strides[i]
        counts[index] += 1

        for i in range(n):
            column = columns[i][index]
            if external:
                cumulative[i] = list(map(add, cumulative[i], column))
            else:
                a = played[i]
                realized = column[a]
                sums = [s + (alt - realized) for s, alt in zip(regret_sum[i][a], column)]
                regret_sum[i][a] = sums
                positive[i][a] = [s if s > 0.0 else 0.0 for s in sums]
                signs = [s > 0.0 for s in sums]
                before = pattern[i][a]
                if signs != before:
                    pattern[i][a] = signs
                    positives[i] += signs.count(True) - before.count(True)
                    members[i] = None

    empirical = JointDistribution(
        {game.profile_from_index(k): Fraction(c, steps) for k, c in enumerate(counts) if c})
    gains = [_deviation_gains(game, i, empirical) for i in range(n)]
    ext = tuple(external_regret(game, i, empirical, gains[i]) for i in range(n))
    internal = tuple(internal_regret(game, i, empirical, gains[i]) for i in range(n))
    return DynamicsRun(game, algorithm, steps, seed, learning_rate, empirical,
                       ext, internal, tuple(map(tuple, strategies)))
