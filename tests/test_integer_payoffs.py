"""Property tests: the integer payoff kernels against `Fraction` references.

`Game.int_payoffs` holds each player's payoffs times d_i, the lcm of that
player's denominators.  Six exact computations run on it: `write_rows`
writes every row over it, `membership` sums it over mu's support in
ints, `games.gain_rows` writes the gains at a* that `games._gain_slack`
weights for a uniqueness certificate, the profile-vs-deviation game
divides `games.deviation_gains` by d_i, and `games.is_symmetric` compares
it under player swaps (`games._swaps_fix`), as the weight search does the
"cce" gains.  Each must agree with the computation over `Fraction` payoffs that
it replaced, kept here as the reference, on small games whose payoffs are
not integers; both symmetry tests also on parking games and on symmetric
games and near misses.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from eqcert import generators, polytopes  # noqa: E402
from eqcert.games import (  # noqa: E402
    Game,
    JointDistribution,
    _gain_slack,
    _swaps_fix,
    _normalize,
    gain_rows,
    is_symmetric,
)
from eqcert.theory import build_lemma3_auxiliary  # noqa: E402

from conftest import reference_reduction  # noqa: E402
from test_polytopes import _reference_ce_row, _reference_cce_row  # noqa: E402

SHAPES = ((2, 2), (2, 3), (3, 2), (3, 3), (2, 2, 2))


def _ircp_deltas(game, a_star):
    base = game.payoff_vector(a_star)
    return {
        p: tuple(game.u(i, p) - base[i] for i in range(game.num_players))
        for p in game.profiles() if p != a_star
    }


def _weighted_slack(gamma, deltas):
    """min over a != a* of -sum_i gamma_i * delta_i(a); None if some sum >= 0."""
    slack = None
    for delta in deltas.values():
        weighted = sum((g * d for g, d in zip(gamma, delta)), Fraction(0))
        if weighted >= 0:
            return None
        margin = -weighted
        if slack is None or margin < slack:
            slack = margin
    return slack


def _reference_slack(game, a_star, gamma, concept):
    reference = game if concept == "ircp" else reference_reduction(game, a_star)
    return _weighted_slack(gamma, _ircp_deltas(reference, a_star))


@st.composite
def _fraction_game(draw):
    """A game of one of SHAPES with payoffs p/q, q in 1..12, and a profile a*.

    With `peak` drawn, a*_i gets a bonus larger than the payoff range wherever
    player i plays it, and a* a second one, so that a*_i is strictly
    dominant and a* is every player's strict maximum: then the weighted
    gains are negative for every positive gamma.
    """
    shape = draw(st.sampled_from(SHAPES))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    actions = tuple(tuple(f"p{i}a{k}" for k in range(n)) for i, n in enumerate(shape))
    size = 1
    for k in shape:
        size *= k
    payoffs = [[Fraction(rng.randint(-20, 20), rng.randint(1, 12)) for _ in range(size)]
               for _ in shape]
    game = Game(actions, tuple(map(tuple, payoffs)))
    a_star = game.profile_from_index(draw(st.integers(0, size - 1)))
    peak = draw(st.booleans())
    if peak:
        bonus = 41 + Fraction(1, draw(st.integers(2, 5)))
        for i in range(len(shape)):
            for k, profile in enumerate(game.profiles()):
                if profile[i] == a_star[i]:
                    payoffs[i][k] += bonus
                if profile == a_star:
                    payoffs[i][k] += bonus
        game = Game(actions, tuple(map(tuple, payoffs)))
    return game, a_star


@st.composite
def _gamma(draw, n):
    """Positive weights as drawn, or with a zero or negative entry."""
    low = draw(st.sampled_from((1, -2)))
    return tuple(Fraction(draw(st.integers(low, 9)), draw(st.integers(1, 7)))
                 for _ in range(n))


@hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
@hypothesis.given(_fraction_game(), st.data())
def test_gain_slack_equals_fraction_reference(case, data):
    game, a_star = case
    gamma = data.draw(_gamma(game.num_players))
    weightings = [gamma]
    if sum(gamma) > 0:
        weightings.append(_normalize(gamma))
    for concept in ("ircp", "cce"):
        for weights in weightings:
            assert (_gain_slack(game, a_star, weights, concept)
                    == _reference_slack(game, a_star, weights, concept))


@hypothesis.settings(max_examples=100, deadline=None, derandomize=True, database=None)
@hypothesis.given(_fraction_game())
def test_gain_rows_equal_the_fraction_gains(case):
    # Row i is d_i times u_i(a) - u_i(a*) ("ircp") or the strategic
    # transform's v_i(a) = u_i(a) - u_i(a_i*, a_-i) ("cce"), as ints.
    game, a_star = case
    base = game.payoff_vector(a_star)
    references = {
        "ircp": [[x - base[i] for x in row] for i, row in enumerate(game.payoffs)],
        "cce": [list(row) for row in reference_reduction(game, a_star).payoffs],
    }
    for concept, reference in references.items():
        rows = gain_rows(game, a_star, concept)
        assert all(type(g) is int for row in rows for g in row)
        assert [[Fraction(g, d) for g in row]
                for row, d in zip(rows, game.payoff_scales)] == reference


@hypothesis.settings(max_examples=100, deadline=None, derandomize=True, database=None)
@hypothesis.given(_fraction_game())
def test_lemma3_entries_equal_fraction_gains(case):
    game, _ = case
    aux = build_lemma3_auxiliary(game)
    columns = [_reference_cce_row(game, i, a) for i, a in aux.col_keys]
    assert aux.payoff == tuple(zip(*columns))


def _reference_rows(game, concept, analysis):
    """Each incentive row over `Fraction` payoffs, in `write_rows`' order."""
    rows = []
    for i, size in enumerate(game.shape):
        if concept == "ircp":
            rows.append((tuple(game.payoffs[i]), analysis.maximin(i).value))
        elif concept == "cce":
            rows += [(_reference_cce_row(game, i, dev), 0) for dev in range(size)]
        else:
            rows += [(_reference_ce_row(game, i, rec, dev), 0)
                     for rec in range(size) for dev in range(size) if rec != dev]
    return rows


@hypothesis.settings(max_examples=120, deadline=None, derandomize=True, database=None)
@hypothesis.given(_fraction_game(), st.sampled_from(polytopes.CONCEPTS))
def test_rows_are_positive_multiples_of_fraction_rows(case, concept):
    game, _ = case
    analysis = polytopes.GameAnalysis(game)
    spec = analysis.polytope(concept)
    reference = _reference_rows(game, concept, analysis)
    incentive = spec.system.constraints[:len(spec.incentive_info)]
    assert len(incentive) == len(reference)
    for row, info, (coeffs, rhs) in zip(incentive, spec.incentive_info, reference):
        # d_i times the payoff row, over the gcd g of those ints for CE and CCE
        d = game.payoff_scales[info.player]
        scaled = [d * c for c in coeffs]
        assert all(x.denominator == 1 for x in scaled)
        g = 1 if concept == "ircp" else math.gcd(*map(int, scaled)) or 1
        unit = Fraction(g, d)
        assert all(type(c) is int for c in row.coeffs)
        assert tuple(unit * c for c in row.coeffs) == coeffs
        assert unit * row.rhs == rhs
        if concept != "ircp":
            assert row.rhs == 0
            assert math.gcd(*row.coeffs) in (0, 1)  # primitive
    simplex = spec.system.constraints[-1]
    assert simplex.coeffs == (1,) * game.num_profiles
    assert all(type(c) is int for c in simplex.coeffs)


@st.composite
def _distribution(draw, game):
    """A point mass, or random weights on a random support."""
    num = game.num_profiles
    if draw(st.booleans()):
        return JointDistribution.point_mass(
            game.profile_from_index(draw(st.integers(0, num - 1))))
    support = draw(st.lists(st.integers(0, num - 1), min_size=1, max_size=num, unique=True))
    raw = [draw(st.integers(1, 9)) for _ in support]
    total = sum(raw)
    return JointDistribution({game.profile_from_index(k): Fraction(w, total)
                              for k, w in zip(support, raw)})


@hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
@hypothesis.given(_fraction_game(), st.sampled_from(polytopes.CONCEPTS), st.data())
def test_membership_equals_dense_fraction_loop(case, concept, data):
    game, _ = case
    mu = data.draw(_distribution(game))
    analysis = polytopes.GameAnalysis(game)
    spec = analysis.polytope(concept)
    vector = mu.as_vector(game)
    expected = []
    for info, (coeffs, rhs) in zip(spec.incentive_info,
                                   _reference_rows(game, concept, analysis)):
        lhs = sum((c * x for c, x in zip(coeffs, vector)), Fraction(0))
        if lhs < rhs:
            expected.append((info.label, rhs - lhs))
    result = polytopes.membership(spec, mu)
    assert result.is_member == (not expected)
    assert [(v.info.label, v.shortfall) for v in result.violations] == expected
    assert all(type(v.shortfall) is Fraction for v in result.violations)


@hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
@hypothesis.given(_fraction_game(), st.sampled_from(polytopes.CONCEPTS), st.data())
def test_violations_name_their_rows_and_write_none(case, concept, data):
    game, _ = case
    mu = data.draw(_distribution(game))
    spec = polytopes.GameAnalysis(game).polytope(concept)
    violations = polytopes.membership(spec, mu).violations
    assert "system" not in vars(spec)  # membership wrote no row
    names = iter(spec.incentive_info)
    assert all(v.info in names for v in violations)  # in row order


def _reference_is_symmetric(game):
    """The role-permutation definition, over every permutation and `Game.u`."""
    first = game.actions[0]
    if any(acts != first for acts in game.actions[1:]):
        return False
    n = game.num_players
    for pi in itertools.permutations(range(n)):
        for profile in game.profiles():
            permuted = [0] * n
            for j in range(n):
                permuted[pi[j]] = profile[j]
            if any(game.u(pi[i], permuted) != game.u(i, profile) for i in range(n)):
                return False
    return True


@st.composite
def _role_game(draw):
    """A parking game, or a 2- or 3-player game on one action set, and its kind.

    A "symmetric" game pays player i f(a_i, sorted a_-i); an "edited" one
    changes one payoff of it, by an integer or by 1/7, which also changes
    that player's payoff scale; a "relabeled" one renames one player's
    action; a "random" one draws every payoff.
    """
    kind = draw(st.sampled_from(("parking", "symmetric", "edited", "relabeled", "random")))
    if kind == "parking":
        return generators.parking(draw(st.integers(2, 4)), 1, Fraction(1, 4),
                                  Fraction(draw(st.integers(1, 9)), 10)), kind
    n, m = draw(st.integers(2, 3)), draw(st.integers(2, 3))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    values = {}

    def value(key):
        return values.setdefault(key, Fraction(rng.randint(-9, 9), rng.randint(1, 4)))

    profiles = list(itertools.product(range(m), repeat=n))
    payoffs = [[value((p[i], tuple(sorted(p[:i] + p[i + 1:])))) for p in profiles]
               for i in range(n)]
    actions = [tuple(f"a{k}" for k in range(m))] * n
    if kind == "edited":
        i, k = draw(st.integers(0, n - 1)), draw(st.integers(0, len(profiles) - 1))
        payoffs[i][k] += draw(st.sampled_from((Fraction(1), Fraction(1, 7))))
    elif kind == "relabeled":
        actions[-1] = actions[-1][:-1] + ("other",)
    elif kind == "random":
        payoffs = [[value(("random", i, k)) for k in range(len(profiles))] for i in range(n)]
    return Game(tuple(actions), tuple(map(tuple, payoffs))), kind


@hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
@hypothesis.given(_role_game())
def test_is_symmetric_equals_the_permutation_definition(case):
    game, kind = case
    expected = _reference_is_symmetric(game)
    assert is_symmetric(game) is expected
    if kind == "symmetric":
        assert expected
    elif kind in ("edited", "relabeled"):
        assert not expected


@hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
@hypothesis.given(_role_game(), st.data())
def test_cce_swap_test_equals_the_reduction_is_symmetric(case, data):
    # a* is a diagonal profile half the time, as the reduction of a
    # symmetric game can be symmetric only there.
    game, _ = case
    if data.draw(st.booleans()):
        a_star = (data.draw(st.integers(0, game.shape[0] - 1)),) * game.num_players
    else:
        a_star = game.profile_from_index(data.draw(st.integers(0, game.num_profiles - 1)))
    reduced = reference_reduction(game, a_star)
    expected = _reference_is_symmetric(reduced)
    assert is_symmetric(reduced) is expected
    assert _swaps_fix(game, gain_rows(game, a_star, "cce")) is expected
