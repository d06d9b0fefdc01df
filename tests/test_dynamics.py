"""Seeded learning runs and the exact regret accounting behind them."""

import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import F
from eqcert import dynamics
from eqcert.dynamics import (
    EXTERNAL_MW,
    INTERNAL_RM,
    DynamicsError,
    _closed_class,
    _stationary,
    external_regret,
    internal_regret,
    run,
)
from eqcert.games import Game, JointDistribution
from eqcert.generators import (
    matching_pennies,
    parking,
    prisoners_dilemma,
    random_game,
    rock_paper_scissors,
)
from eqcert.polytopes import build_polytope, membership


def _random_distribution(game, rng):
    raw = [rng.randrange(0, 10) for _ in range(game.num_profiles)]
    if sum(raw) == 0:
        raw[0] = 1
    total = sum(raw)
    weights = {}
    for index, mass in enumerate(raw):
        if mass:
            weights[game.profile_from_index(index)] = Fraction(mass, total)
    return JointDistribution(weights)


# -- exact regrets of fixed distributions ---------------------------------------


def test_external_regret_of_cooperation():
    pd = prisoners_dilemma()
    mu = JointDistribution.point_mass((0, 0))
    assert external_regret(pd, 0, mu) == 1
    assert external_regret(pd, 1, mu) == 1
    assert internal_regret(pd, 0, mu) == 1


def test_diagonal_rps_has_internal_but_no_external_regret():
    rps = rock_paper_scissors()
    diag = JointDistribution({(a, a): F(1, 3) for a in range(3)})
    for i in range(2):
        assert external_regret(rps, i, diag) == 0
        assert internal_regret(rps, i, diag) == F(1, 3)


def test_regrets_of_uniform_prisoners_dilemma():
    pd = prisoners_dilemma()
    uniform = JointDistribution({p: F(1, 4) for p in
                                 [(0, 0), (0, 1), (1, 0), (1, 1)]})
    assert external_regret(pd, 0, uniform) == F(1, 2)
    assert internal_regret(pd, 0, uniform) == F(1, 2)


def test_equilibrium_play_has_no_regret():
    pd = prisoners_dilemma()
    mp = matching_pennies()
    assert external_regret(pd, 0, JointDistribution.point_mass((1, 1))) == 0
    uniform = JointDistribution({p: F(1, 4) for p in
                                 [(0, 0), (0, 1), (1, 0), (1, 1)]})
    for i in range(2):
        assert external_regret(mp, i, uniform) == 0
        assert internal_regret(mp, i, uniform) == 0


def test_regret_signs_match_polytope_membership():
    rng = random.Random(20)
    games = [prisoners_dilemma(), matching_pennies(), rock_paper_scissors(),
             random_game((2, 3), seed=6), random_game((2, 2, 2), seed=7)]
    for game in games:
        cce = build_polytope(game, "cce")
        ce = build_polytope(game, "ce")
        for _ in range(10):
            mu = _random_distribution(game, rng)
            no_external = all(external_regret(game, i, mu) <= 0
                              for i in range(game.num_players))
            no_internal = all(internal_regret(game, i, mu) == 0
                              for i in range(game.num_players))
            assert membership(cce, mu).is_member == no_external
            assert membership(ce, mu).is_member == no_internal


def _reference_external_regret(game, i, mu):
    """External regret by rebuilding each deviation profile: the reference."""
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


def _reference_internal_regret(game, i, mu):
    """Internal regret by rebuilding each deviation profile: the reference."""
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


@pytest.mark.parametrize("shape", ((2, 2), (3, 4), (2, 3, 2)))
def test_strided_regrets_equal_profile_rebuilding_reference(shape):
    rng = random.Random(sum(shape))
    for game_seed in range(3):
        game = random_game(shape, seed=game_seed)
        for _ in range(8):
            mu = _random_distribution(game, rng)
            for i in range(game.num_players):
                assert external_regret(game, i, mu) == _reference_external_regret(game, i, mu)
                assert internal_regret(game, i, mu) == _reference_internal_regret(game, i, mu)


def test_run_builds_each_players_regret_table_once(monkeypatch):
    # Both regrets of a player read one table of deviation gains, and each
    # regret function still runs once per player.
    game = random_game((3, 2, 2), seed=4)
    expected = run(game, EXTERNAL_MW, 40, seed=2)
    built, called = [], []
    gains = dynamics._deviation_gains
    monkeypatch.setattr(dynamics, "_deviation_gains",
                        lambda g, i, mu: built.append(i) or gains(g, i, mu))
    for name in ("external_regret", "internal_regret"):
        real = getattr(dynamics, name)
        monkeypatch.setattr(dynamics, name,
                            lambda *args, real=real, name=name:
                            called.append(name) or real(*args))
    outcome = run(game, EXTERNAL_MW, 40, seed=2)
    assert built == [0, 1, 2]
    assert sorted(called) == ["external_regret"] * 3 + ["internal_regret"] * 3
    assert outcome.external_regrets == expected.external_regrets
    assert outcome.internal_regrets == expected.internal_regrets


# -- the regret-matching stationary distribution --------------------------------


def _assert_invariant(positive, q):
    k = len(q)
    assert all(x >= 0.0 for x in q)
    assert abs(sum(q) - 1.0) <= 1e-12
    for b in range(k):
        inflow = sum(q[a] * positive[a][b] for a in range(k) if a != b)
        outflow = q[b] * sum(positive[b][c] for c in range(k) if c != b)
        assert abs(inflow - outflow) <= 1e-12


def _stationary_of(positive, k):
    return _stationary(positive, _closed_class(positive, k), k)


def test_stationary_balances_random_regret_chains():
    rng = random.Random(12)
    for k in range(2, 7):
        for _ in range(40):
            regrets = [[0.0 if a == b else rng.uniform(-1.0, 1.0) for b in range(k)]
                       for a in range(k)]
            positive = [[max(r, 0.0) for r in row] for row in regrets]
            if not any(any(row) for row in positive):
                continue
            _assert_invariant(positive, _stationary_of(positive, k))


def test_stationary_puts_all_mass_on_an_absorbing_action():
    # every action flows into 2, which has no positive regret of its own
    positive = [[0.0, 0.5, 1.0, 0.0],
                [0.3, 0.0, 0.2, 0.0],
                [0.0, 0.0, 0.0, 0.0],
                [0.0, 0.0, 0.7, 0.0]]
    q = _stationary_of(positive, 4)
    assert q == [0.0, 0.0, 1.0, 0.0]
    _assert_invariant(positive, q)


def test_stationary_stays_inside_one_closed_class():
    # {1, 3} and {2, 4} are closed classes; 0 and 5 are transient
    positive = [[0.0, 0.4, 0.0, 0.0, 0.6, 0.0],
                [0.0, 0.0, 0.0, 0.9, 0.0, 0.0],
                [0.0, 0.0, 0.0, 0.0, 0.5, 0.0],
                [0.0, 0.2, 0.0, 0.0, 0.0, 0.0],
                [0.0, 0.0, 0.8, 0.0, 0.0, 0.0],
                [0.3, 0.0, 0.1, 0.0, 0.0, 0.0]]
    q = _stationary_of(positive, 6)
    support = {a for a, x in enumerate(q) if x > 0.0}
    assert support in ({1, 3}, {2, 4})
    _assert_invariant(positive, q)
    assert _stationary_of(positive, 6) == q


# 600 steps solve 1195, 1198 and 1198 stationary distributions; the closed
# class is searched for only when a player's positive-regret pattern changes.
@pytest.mark.parametrize("make_game, searches", [
    (rock_paper_scissors, 158),
    (lambda: parking(3, 1, Fraction(1, 4), Fraction(3, 5)), 8),
    (lambda: random_game((3, 3), seed=4), 3),
], ids=["rps", "parking", "random3x3"])
def test_kept_closed_class_equals_recomputing_it_every_step(monkeypatch, make_game,
                                                            searches):
    game = make_game()
    found = []
    real_class, real_stationary = dynamics._closed_class, dynamics._stationary

    def counting(positive, k):
        found.append(k)
        return real_class(positive, k)

    def recomputing(positive, members, k):
        return real_stationary(positive, real_class(positive, k), k)

    monkeypatch.setattr(dynamics, "_closed_class", counting)
    kept = run(game, INTERNAL_RM, 600, seed=3)
    assert len(found) == searches
    monkeypatch.setattr(dynamics, "_stationary", recomputing)
    reference = run(game, INTERNAL_RM, 600, seed=3)
    assert reference.empirical == kept.empirical
    assert reference.final_strategies == kept.final_strategies
    assert reference.internal_regrets == kept.internal_regrets
    assert reference.external_regrets == kept.external_regrets


# -- trajectory mechanics --------------------------------------------------------


def test_runs_are_deterministic():
    mp = matching_pennies()
    first = run(mp, EXTERNAL_MW, 300, seed=7, learning_rate=5.0)
    second = run(mp, EXTERNAL_MW, 300, seed=7, learning_rate=5.0)
    assert first.empirical.weights == second.empirical.weights
    assert first.final_strategies == second.final_strategies
    assert run(mp, EXTERNAL_MW, 100, seed=1).empirical.weights != \
        run(mp, EXTERNAL_MW, 100, seed=2).empirical.weights


def test_single_step_is_a_point_mass():
    result = run(prisoners_dilemma(), EXTERNAL_MW, 1, seed=3)
    assert sum(result.empirical.weights.values()) == 1
    assert list(result.empirical.weights.values()) == [F(1)]


def test_empirical_weights_are_play_counts():
    steps = 240
    result = run(rock_paper_scissors(), INTERNAL_RM, steps, seed=5)
    total = Fraction(0)
    for profile, weight in result.empirical.weights.items():
        assert (weight * steps).denominator == 1
        assert len(profile) == 2
        total += weight
    assert total == 1


def test_run_metadata_round_trip():
    game = prisoners_dilemma()
    result = run(game, INTERNAL_RM, 50, seed=9, learning_rate=2.0)
    assert result.game is game
    assert result.algorithm == INTERNAL_RM
    assert (result.steps, result.seed, result.learning_rate) == (50, 9, 2.0)
    assert len(result.external_regrets) == 2
    assert len(result.internal_regrets) == 2


def test_run_guards():
    mp = matching_pennies()
    with pytest.raises(DynamicsError):
        run(mp, "fictitious_play", 10, seed=0)
    with pytest.raises(DynamicsError):
        run(mp, EXTERNAL_MW, 0, seed=0)
    with pytest.raises(DynamicsError):
        run(mp, EXTERNAL_MW, 10, seed=0, learning_rate=0.0)


def test_constant_payoffs_leave_no_regret():
    flat = Game((("a", "b"), ("a", "b")), ((0, 0, 0, 0), (0, 0, 0, 0)), "flat")
    result = run(flat, EXTERNAL_MW, 400, seed=9)
    assert result.max_external_regret == 0
    assert result.max_internal_regret == 0
    assert result.final_strategies == ((1.0, 1.0), (1.0, 1.0))


# -- convergence behavior ---------------------------------------------------------


def test_multiplicative_weights_finds_dominant_play():
    pd = prisoners_dilemma()
    result = run(pd, EXTERNAL_MW, 2000, seed=11, learning_rate=5.0)
    assert result.empirical.weights.get((1, 1), F(0)) >= F(99, 100)
    assert result.max_external_regret <= F(1, 100)


def test_external_regret_shrinks_with_horizon():
    mp = matching_pennies()
    short = run(mp, EXTERNAL_MW, 250, seed=3, learning_rate=5.0)
    long = run(mp, EXTERNAL_MW, 4000, seed=3, learning_rate=5.0)
    assert long.max_external_regret < short.max_external_regret
    assert long.max_external_regret <= F(1, 20)


def test_regret_matching_approaches_correlated_play():
    rps = rock_paper_scissors()
    result = run(rps, INTERNAL_RM, 3000, seed=5)
    # bar: 2% of the payoff range (2) on every conditional regret
    assert result.max_internal_regret <= F(1, 25)


def test_three_player_multiplicative_weights_is_pinned():
    # multiplicative weights is a fixed sequence of float operations per
    # seed; a change in how payoffs are read must not move it by one bit
    game = random_game((2, 2, 2), seed=4)
    result = run(game, EXTERNAL_MW, 600, seed=2, learning_rate=5.0)
    assert result.empirical.weights == {
        (0, 1, 0): F(71, 120), (0, 1, 1): F(13, 100),
        (1, 1, 0): F(23, 100), (1, 1, 1): F(29, 600)}
    assert result.final_strategies == (
        (1.0, 0.17282640129777577),
        (1.300777301640997e-26, 1.0),
        (1.0, 0.30607655078707774))


def test_three_player_run():
    game = random_game((2, 2, 2), seed=4)
    result = run(game, EXTERNAL_MW, 600, seed=2, learning_rate=5.0)
    assert all(len(p) == 3 for p in result.empirical.weights)
    assert len(result.external_regrets) == 3
    assert result.max_external_regret <= F(1, 10)


# -- the step loop against a frozen copy of its earlier form ---------------------


def _frozen_sample(weights, rng):
    total = sum(weights)
    r = rng.random() * total
    acc = 0.0
    for a, w in enumerate(weights):
        acc += w
        if r < acc:
            return a
    return len(weights) - 1


def _frozen_run(game, algorithm, steps, seed, learning_rate):
    """`run`'s step loop before its column tables, kept verbatim as the oracle.

    It slices each payoff column out at every step, rebuilds every
    player's positive regrets and their sign pattern at every
    regret-matching step, and counts play in a `Counter` of profiles.
    Returns the empirical distribution and the final strategies.
    """
    n = game.num_players
    shape = game.shape
    rng = random.Random(seed)
    payoff = [[float(x) for x in game.payoffs[i]] for i in range(n)]
    ranges = [max(payoff[i]) - min(payoff[i]) if payoff[i] else 0.0 for i in range(n)]
    strides = game.strides
    external = algorithm == EXTERNAL_MW
    cumulative = [[0.0] * shape[i] for i in range(n)]
    regret_sum = [[[0.0] * shape[i] for _ in range(shape[i])] for i in range(n)]
    classes = [((), [])] * n
    counts = Counter()
    strategies = [()] * n

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
                positive = [[r if r > 0.0 else 0.0 for r in row] for row in regret_sum[i]]
                pattern = tuple(r > 0.0 for row in positive for r in row)
                if any(pattern):
                    if classes[i][0] != pattern:
                        classes[i] = (pattern, dynamics._closed_class(positive, k))
                    dist = dynamics._stationary(positive, classes[i][1], k)
                else:
                    dist = [1.0] * k
            strategies[i] = tuple(dist)
            profile.append(_frozen_sample(dist, rng))

        index = 0
        for i in range(n):
            index += profile[i] * strides[i]
        counts[tuple(profile)] += 1

        for i in range(n):
            stride = strides[i]
            base = index - profile[i] * stride
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

    empirical = JointDistribution({p: Fraction(c, steps) for p, c in counts.items()})
    return empirical, tuple(strategies)


SHAPES = ((2, 2), (2, 3), (3, 3), (4, 2), (3, 5), (2, 2, 2), (3, 2, 2), (3, 3, 3))


@st.composite
def _small_game(draw):
    """A 2- or 3-player game of small integers over 1, 3 or 10, which tie often.

    Thirds and tenths are inexact in floating point, so a reordered float
    sum shows; integers are exact and tie the cumulative payoffs.  One
    player may get constant payoffs, whose span 0.0 takes multiplicative
    weights' uniform branch and leaves every regret sum at 0.0.
    """
    shape = draw(st.sampled_from(SHAPES))
    size = math.prod(shape)
    denominator = draw(st.sampled_from((1, 3, 10)))
    payoffs = [draw(st.lists(st.integers(-3, 3), min_size=size, max_size=size))
               for _ in shape]
    flat = draw(st.sampled_from((None,) + tuple(range(len(shape)))))
    if flat is not None:
        payoffs[flat] = [draw(st.integers(-3, 3))] * size
    actions = tuple(tuple(f"a{k}" for k in range(m)) for m in shape)
    return Game(actions, tuple(tuple(Fraction(x, denominator) for x in row)
                               for row in payoffs))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_small_game(), st.sampled_from((EXTERNAL_MW, INTERNAL_RM)),
       st.integers(1, 300), st.integers(0, 2 ** 32 - 1),
       st.sampled_from((0.05, 0.5, 1.0, 5.0, 40.0)))
@example(rock_paper_scissors(), INTERNAL_RM, 300, 5, 0.5)
@example(matching_pennies(), EXTERNAL_MW, 300, 3, 5.0)
@example(Game((("a", "b"), ("a", "b")), ((0, 0, 0, 0), (1, 1, 1, 1))), INTERNAL_RM, 50, 1, 0.5)
def test_run_repeats_the_frozen_step_loop(game, algorithm, steps, seed, rate):
    outcome = run(game, algorithm, steps, seed, rate)
    empirical, strategies = _frozen_run(game, algorithm, steps, seed, rate)
    assert outcome.empirical == empirical
    assert outcome.final_strategies == strategies
    n = game.num_players
    assert outcome.external_regrets == tuple(external_regret(game, i, empirical)
                                             for i in range(n))
    assert outcome.internal_regrets == tuple(internal_regret(game, i, empirical)
                                             for i in range(n))
