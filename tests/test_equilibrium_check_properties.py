"""Property tests: the equilibrium checks against frozen copies of their `Fraction` code.

The NE and quasi-strictness checks (`certify._is_equilibrium`), the best
reply behind an IRCP refutation with no pure maximin action
(`polytopes._ircp_decision`), the matching-pennies-type test and the 2x2
NE solver now read the integer gain tables of `games`.  Each is compared
here with the code it replaced, which read `Game.u` profile by profile;
the copies below are that code, kept as it was.  The games tie often, so
tie-breaking and the degenerate 2x2 cases are exercised.  A last test makes
`Game.u` raise, so none of these checks may read it.
"""

import itertools
import random
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from eqcert import certify, generators, polytopes, theory  # noqa: E402
from eqcert.games import Game, JointDistribution, MixedAction, product_distribution  # noqa: E402
from eqcert.polytopes import Degenerate2x2Error, PolytopeError  # noqa: E402

from test_ircp_decision_properties import _game  # noqa: E402

# -- the replaced code, frozen -------------------------------------------------


def _frozen_deviation_payoffs(game, player, mixed):
    out = []
    others_mix = [m for j, m in enumerate(mixed) if j != player]
    others_support = [m.support() for m in others_mix]
    for action in range(game.shape[player]):
        total = Fraction(0)
        for combo in itertools.product(*others_support):
            w = Fraction(1)
            for m, a in zip(others_mix, combo):
                w *= m.prob(a)
            total += w * game.u(player, game.insert_action(player, action, combo))
        out.append(total)
    return out


def _frozen_is_equilibrium(game, nu, quasi_strict):
    if not nu.is_product(game):
        raise certify.CertificationError("expected a product distribution over profiles")
    mixed = [nu.marginal(game, i) for i in range(game.num_players)]
    for i in range(game.num_players):
        payoffs = _frozen_deviation_payoffs(game, i, mixed)
        expected = sum((w * game.u(i, profile) for profile, w in nu.weights.items()),
                       Fraction(0))
        support = set(mixed[i].support())
        for a, p in enumerate(payoffs):
            if p > expected or (quasi_strict and p == expected and a not in support):
                return False
    return True


def _frozen_best_reply(game, player, mixed):
    payoffs = _frozen_deviation_payoffs(game, player, mixed)
    return max(range(game.shape[player]), key=lambda a: (payoffs[a], -a))


def _frozen_is_matching_pennies_type(game):
    if game.shape != (2, 2):
        return False
    for swap1 in (False, True):
        for swap2 in (False, True):
            def at(i, r, c):
                rr = 1 - r if swap1 else r
                cc = 1 - c if swap2 else c
                return game.u(i, (rr, cc))
            if (at(0, 0, 0) > at(0, 1, 0) and at(0, 1, 1) > at(0, 0, 1)
                    and at(1, 0, 1) > at(1, 0, 0) and at(1, 1, 0) > at(1, 1, 1)):
                return True
    return False


def _frozen_mixed_ne_2x2(game):
    if game.shape != (2, 2):
        raise PolytopeError("closed-form NE solver only covers 2x2 games")
    u = game.u
    alpha1 = (u(0, (0, 0)) - u(0, (1, 0))) - (u(0, (0, 1)) - u(0, (1, 1)))
    beta1 = u(0, (1, 1)) - u(0, (0, 1))
    alpha2 = (u(1, (0, 0)) - u(1, (0, 1))) - (u(1, (1, 0)) - u(1, (1, 1)))
    beta2 = u(1, (1, 1)) - u(1, (1, 0))
    if (alpha1 == 0 and beta1 == 0) or (alpha2 == 0 and beta2 == 0):
        raise Degenerate2x2Error("a player is indifferent against every opponent mixture")
    for i, j in ((0, 1), (1, 0)):
        for x_j in range(2):
            a = u(i, game.insert_action(i, 0, (x_j,)))
            b = u(i, game.insert_action(i, 1, (x_j,)))
            if a == b:
                raise Degenerate2x2Error(
                    f"player {i} is indifferent against the pure action "
                    f"{game.actions[j][x_j]} of player {j}")
    ne = []
    for profile, _ in polytopes.enumerate_pure_ne(game):
        ne.append((MixedAction.point_mass(0, profile[0]),
                   MixedAction.point_mass(1, profile[1])))
    if alpha1 != 0 and alpha2 != 0:
        q = beta1 / alpha1
        p = beta2 / alpha2
        if 0 < p < 1 and 0 < q < 1:
            ne.append((MixedAction(0, {0: p, 1: 1 - p}),
                       MixedAction(1, {0: q, 1: 1 - q})))
    return ne


# -- games ----------------------------------------------------------------------


def _game_2x2(rng: random.Random) -> Game:
    """A 2x2 game: integers in [0, 2], which tie often, or p/q, p in [-3, 3], q in 1..3."""
    if rng.random() < 0.5:
        payoff = lambda: Fraction(rng.randint(0, 2))  # noqa: E731
    else:
        payoff = lambda: Fraction(rng.randint(-3, 3), rng.randint(1, 3))  # noqa: E731
    return Game((("r0", "r1"), ("c0", "c1")),
                tuple(tuple(payoff() for _ in range(4)) for _ in range(2)))


def _mix(rng: random.Random, player: int, size: int) -> MixedAction:
    """Weights in 0..2 per action, so supports vary and pure strategies occur."""
    raw = [rng.randint(0, 2) for _ in range(size)]
    if not any(raw):
        raw[rng.randrange(size)] = 1
    return MixedAction(player, {a: Fraction(w, sum(raw)) for a, w in enumerate(raw)})


# -- matching-pennies type and the 2x2 NE ---------------------------------------


def test_matching_pennies_type_equals_the_frozen_cycle_test():
    rng = random.Random(34)
    found = 0
    for _ in range(4000):
        game = _game_2x2(rng)
        expected = _frozen_is_matching_pennies_type(game)
        assert certify.is_matching_pennies_type(game) == expected
        found += expected
    assert found >= 100  # both answers are exercised
    for seed in range(50):
        assert certify.is_matching_pennies_type(generators.random_mp_type(seed))
    assert not certify.is_matching_pennies_type(generators.random_game((2, 3), 1))


def _ne_or_message(solver, game):
    try:
        return solver(game)
    except Degenerate2x2Error as exc:
        return f"degenerate: {exc}"


def test_mixed_ne_2x2_equals_the_frozen_indifference_solver():
    rng = random.Random(35)
    outcomes = set()
    for _ in range(2000):
        game = _game_2x2(rng)
        expected = _ne_or_message(_frozen_mixed_ne_2x2, game)
        assert _ne_or_message(polytopes.mixed_ne_2x2, game) == expected
        outcomes.add(expected if isinstance(expected, str)
                     else any(not pair[0].is_pure for pair in expected))
    # Each degenerate message, and lists with and without a mixed NE, occur.
    assert {True, False} <= outcomes
    assert len([o for o in outcomes if isinstance(o, str)]) == 5
    with pytest.raises(PolytopeError):
        polytopes.mixed_ne_2x2(generators.rock_paper_scissors())


# -- NE and quasi-strictness ----------------------------------------------------


def _products(game: Game, rng: random.Random) -> list[JointDistribution]:
    """Random products, the pure NE, the 2x2 mixed NE and the maximin strategies."""
    dists = [product_distribution(game, [_mix(rng, i, n) for i, n in enumerate(game.shape)])
             for _ in range(4)]
    dists += [JointDistribution.point_mass(p) for p, _ in polytopes.enumerate_pure_ne(game)]
    if game.shape == (2, 2):
        ne = _ne_or_message(polytopes.mixed_ne_2x2, game)
        dists += [] if isinstance(ne, str) else [product_distribution(game, pair)
                                                 for pair in ne]
    analysis = polytopes.GameAnalysis(game)
    dists.append(product_distribution(
        game, [analysis.maximin(i).strategy for i in range(game.num_players)]))
    return dists


@hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
@hypothesis.given(_game(), st.integers(0, 2**32 - 1))
def test_is_equilibrium_equals_the_frozen_best_response_check(game, seed):
    rng = random.Random(seed)
    for nu in _products(game, rng):
        for quasi_strict in (False, True):
            assert (certify._is_equilibrium(game, nu, quasi_strict)
                    == _frozen_is_equilibrium(game, nu, quasi_strict))
        assert theory.is_nash(game, nu) == _frozen_is_equilibrium(game, nu, False)
        assert certify.is_quasi_strict(game, nu) == _frozen_is_equilibrium(game, nu, True)


def test_is_equilibrium_covers_every_answer():
    # Over the same kind of games: NE that are quasi-strict, NE that are
    # not, and products that are no NE all occur.
    rng = random.Random(36)
    answers = set()
    for seed in range(200):
        game = generators.random_game(((2, 2), (2, 3), (2, 2, 2))[seed % 3], seed, 0, 2)
        for nu in _products(game, rng):
            answers.add((certify._is_equilibrium(game, nu, False),
                         certify._is_equilibrium(game, nu, True)))
    assert answers == {(False, False), (True, False), (True, True)}
    with pytest.raises(certify.CertificationError):
        certify.is_quasi_strict(generators.prisoners_dilemma(),
                                JointDistribution.uniform([(0, 0), (1, 1)]))


# -- the best reply of an IRCP refutation --------------------------------------


def _frozen_refutation(game: Game):
    """(i, the maximin strategies, the witnesses) of the frozen best reply; None if
    every player has a pure maximin action."""
    analysis = polytopes.GameAnalysis(game)
    for i in range(game.num_players):
        level = analysis.maximin(i).value
        if not any(min(game.u(i, game.insert_action(i, a, others))
                       for others in game.opponent_profiles(i)) == level
                   for a in range(game.shape[i])):
            nu = [analysis.maximin(j).strategy for j in range(game.num_players)]
            swapped = nu.copy()
            swapped[i] = MixedAction.point_mass(i, _frozen_best_reply(game, i, nu))
            return i, nu, (product_distribution(game, nu), product_distribution(game, swapped))
    return None


@hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
@hypothesis.given(_game())
def test_ircp_best_reply_equals_the_frozen_one(game):
    expected = _frozen_refutation(game)
    decided = polytopes.GameAnalysis(game).singleton("ircp")
    if expected is None:
        assert "no pure maximin action" not in (decided.reason or "")
    else:
        i, _, witnesses = expected
        assert decided.witnesses == witnesses
        assert decided.reason.startswith(f"player {i} has no pure maximin action")


def test_ircp_best_reply_breaks_ties_at_the_lowest_action():
    # Games with no pure maximin action whose best reply to the maximin
    # strategies ties, and ones where it does not, both occur.
    ties = {False: 0, True: 0}
    for seed in range(400):
        game = generators.random_game(((2, 2), (2, 3), (3, 3))[seed % 3], seed, 0, 2)
        expected = _frozen_refutation(game)
        if expected is None:
            continue
        i, nu, witnesses = expected
        assert polytopes.GameAnalysis(game).singleton("ircp").witnesses == witnesses
        payoffs = _frozen_deviation_payoffs(game, i, nu)
        ties[payoffs.count(max(payoffs)) > 1] += 1
    assert ties[False] and ties[True]


# -- no check reads Game.u -------------------------------------------------------


def test_equilibrium_checks_read_no_profile_payoff(monkeypatch):
    mp = generators.matching_pennies()
    half = MixedAction(0, {0: Fraction(1, 2), 1: Fraction(1, 2)})
    nu = product_distribution(mp, [half, MixedAction(1, half.weights)])
    pd = generators.prisoners_dilemma()

    def refuse(self, player, profile):
        raise AssertionError("Game.u was read")

    monkeypatch.setattr(Game, "u", refuse)
    assert certify.is_quasi_strict(mp, nu)
    assert theory.is_nash(mp, nu)
    assert not theory.is_nash(pd, JointDistribution.point_mass((0, 0)))
    assert certify.is_matching_pennies_type(mp)
    assert not certify.is_matching_pennies_type(pd)
    assert polytopes.mixed_ne_2x2(mp) == [(half, MixedAction(1, half.weights))]
    decided = polytopes.GameAnalysis(mp).singleton("ircp")  # no pure maximin action
    assert decided.reason.startswith("player 0 has no pure maximin action")
    assert decided.witnesses[0] == nu
