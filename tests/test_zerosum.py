"""Maximin levels, their dual punishments, and the auxiliary zero-sum games."""

import itertools
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from eqcert import generators
from eqcert.certify import UniquenessCertificate, certify_unique_ircp
from eqcert.games import Game, int_payoff_row, opponent_bases
from eqcert.lp import (
    EQUAL,
    GREATER_EQUAL,
    ConstraintSystem,
    LinearConstraint,
    PolytopeSolver,
)
from eqcert.theory import (
    build_lemma3_auxiliary,
    enumerate_vertices,
    strict_complementary_strategy,
)
from eqcert.zerosum import MatrixGame, ZeroSumError, check_maximin, matrix_value, maximin

from conftest import F, build_theorem1_auxiliary, unique_security_profile


def _mg(rows):
    payoff = tuple(tuple(F(x) for x in row) for row in rows)
    return MatrixGame(tuple(f"r{i}" for i in range(len(rows))),
                      tuple(f"c{j}" for j in range(len(rows[0]))),
                      payoff)


def test_matrix_game_validation():
    with pytest.raises(ZeroSumError):
        MatrixGame(("r",), ("c", "c2"), ((F(0),),))
    with pytest.raises(ZeroSumError):
        MatrixGame((), (), ())


def test_matrix_value_matching_pennies():
    value, row, col = matrix_value(_mg([[1, -1], [-1, 1]]))
    assert value == 0
    assert row == (F(1, 2), F(1, 2))
    assert col == (F(1, 2), F(1, 2))


def test_maximin_rps_is_zero_uniform():
    g = generators.rock_paper_scissors()
    for i in range(2):
        res = maximin(g, i)
        assert res.value == 0
        assert res.strategy.weights == {0: F(1, 3), 1: F(1, 3), 2: F(1, 3)}


def test_maximin_parking_pay():
    g = generators.parking(3, 1, F(1, 4), F(3, 5))
    for i in range(2):
        res = maximin(g, i)
        assert res.value == F(3, 4)  # v - c
        assert res.strategy.is_pure and res.strategy.support() == (0,)


def test_maximin_pd_defect():
    g = generators.prisoners_dilemma()
    for i in range(2):
        res = maximin(g, i)
        assert res.value == 1
        assert res.strategy.support() == (1,)


def test_maximin_three_player():
    g = generators.random_game((2, 2, 2), seed=3)
    for i in range(3):
        res = maximin(g, i)
        assert min(g.payoffs[i]) <= res.value <= max(g.payoffs[i])
        # one dual constraint per opposing joint action: 4 of them
        assert all(len(opp) == 2 for opp in res.punishment)
        assert check_maximin(g, i, res) == []


def _strictly_dominant_game():
    """Three players, each of whose action 1 beats action 0 by at least 1."""
    rng = random.Random(3)
    profiles = list(itertools.product(range(2), repeat=3))
    payoffs = tuple(tuple(F(3 * p[i] + rng.randint(0, 2)) for p in profiles)
                    for i in range(3))
    return Game((("a", "b"),) * 3, payoffs)


@pytest.mark.parametrize("game, solved", (
    (generators.prisoners_dilemma(), False),
    (generators.parking(3, 1, F(1, 4), F(3, 5)), False),
    (_strictly_dominant_game(), False),
    (generators.rock_paper_scissors(), True),
), ids=("pd", "parking", "dominant", "rps"))
def test_maximin_solves_an_lp_only_without_a_pure_saddle_point(game, solved, monkeypatch):
    # A dominant action guarantees what every best reply gets against the
    # joint action at which it pays least: a pure saddle point.  RPS has none.
    built = []
    init = PolytopeSolver.__init__
    monkeypatch.setattr(PolytopeSolver, "__init__",
                        lambda self, system: built.append(system) or init(self, system))
    for i in range(game.num_players):
        built.clear()
        result = maximin(game, i)
        assert len(built) == solved
        if not solved:
            assert result.strategy.is_pure and len(result.punishment) == 1
        assert check_maximin(game, i, result) == []


def test_minimax_dual_values_and_punishments():
    rps = generators.rock_paper_scissors()
    res = maximin(rps, 0)
    assert res.value == 0
    assert res.punishment == {(0,): F(1, 3), (1,): F(1, 3), (2,): F(1, 3)}

    mp = generators.matching_pennies()
    assert maximin(mp, 0).value == 0
    assert maximin(mp, 1).value == 0

    parking = generators.parking(3, 1, F(1, 4), F(3, 5))
    res = maximin(parking, 1)
    assert res.value == F(3, 4)
    assert sum(res.punishment.values()) == 1


def test_minimax_duality_random_sweep():
    for seed in range(12):
        g = generators.random_game((2, 3), seed=seed)
        for i in range(2):
            res = maximin(g, i)
            assert sum(res.punishment.values()) == 1
            assert all(w > 0 for w in res.punishment.values())
            # the maximin strategy guarantees the value against every column
            for opp in g.opponent_profiles(i):
                got = sum(w * g.u(i, g.insert_action(i, a, opp))
                          for a, w in res.strategy.weights.items())
                assert got >= res.value
            # the punishment caps every response at the value
            for a in range(g.shape[i]):
                got = sum(w * g.u(i, g.insert_action(i, a, opp))
                          for opp, w in res.punishment.items())
                assert got <= res.value
            assert check_maximin(g, i, res) == []


def test_check_maximin_flags_each_bound():
    g = generators.rock_paper_scissors()
    res = maximin(g, 0)
    assert check_maximin(g, 0, replace(res, value=F(1, 1000))) == [
        "strategy guarantees less than 1/1000 against opponent joint action 0"]
    assert check_maximin(g, 0, replace(res, value=F(-1, 1000))) == [
        "punishment leaves action 0 more than -1/1000"]
    skewed = {(0,): F(1, 2), (1,): F(1, 4), (2,): F(1, 4)}
    assert check_maximin(g, 0, replace(res, punishment=skewed)) == [
        "punishment leaves action 1 more than 0"]
    assert check_maximin(g, 0, replace(res, punishment={(3,): F(1)})) == [
        "punishment names a joint action outside the game"]
    assert check_maximin(g, 0, replace(res, punishment={(0,): F(1, 2)})) == [
        "punishment is not a distribution"]


def test_matrix_value_column_strategy_is_the_dual_of_the_row_lp():
    # Every mix of the two columns that puts at least 1/2 on column 1 holds
    # both rows to the value 1.  The row LP's dual, read from its final
    # tableau, is the pure column 1.  The transposed LP of the column side
    # lands on the pure column 1 as well, of the optimal mixes from (0, 1)
    # to (1/2, 1/2), and matrix_value checks its own.
    value, row, col = matrix_value(_mg([[2, 0], [1, 1]]))
    assert value == 1
    assert row == (F(0), F(1))
    assert col == (F(0), F(1))
    neg_value, transposed_vertex, _ = matrix_value(_mg([[-2, -1], [0, -1]]))
    assert neg_value == -1
    assert transposed_vertex == (F(0), F(1))


def test_strict_complementary_matching_pennies():
    sigma = strict_complementary_strategy(_mg([[1, -1], [-1, 1]]))
    assert sigma.weights == {0: F(1, 2), 1: F(1, 2)}


def test_strict_complementary_weak_column():
    # Row 2 is weakly dominated; only column 2 is a best response to every
    # optimal row strategy, so the maximal support is exactly {1}.
    sigma = strict_complementary_strategy(_mg([[0, 0], [1, 0]]))
    assert sigma.support() == (1,)
    # With the sign flipped every row strategy except pure row 1 is
    # suboptimal, both columns tie against it, and the support is full.
    sigma = strict_complementary_strategy(_mg([[0, 0], [-1, 0]]))
    assert sigma.support() == (0, 1)


def test_strict_complementary_dominant_row():
    sigma = strict_complementary_strategy(_mg([[5, 1], [0, 0]]))
    assert sigma.is_pure and sigma.support() == (1,)


def _best_response_to_all_optima(mg):
    """Columns tight at value against every optimal row strategy (oracle)."""
    value, _, _ = matrix_value(mg)
    nr, nc = len(mg.row_labels), len(mg.col_labels)
    rows = [LinearConstraint(tuple(mg.payoff[r][c] for r in range(nr)),
                             GREATER_EQUAL, value)
            for c in range(nc)]
    rows.append(LinearConstraint((Fraction(1),) * nr, EQUAL, Fraction(1)))
    system = ConstraintSystem(nr, tuple(rows))
    verts = enumerate_vertices(system)
    assert verts, "optimal row polytope cannot be empty"
    tight = []
    for c in range(nc):
        if all(sum(mg.payoff[r][c] * v[r] for r in range(nr)) == value
               for v in verts):
            tight.append(c)
    return tuple(tight)


def test_strict_complementary_support_matches_oracle():
    import random
    rng = random.Random(7)
    for _ in range(25):
        nr, nc = rng.randint(2, 4), rng.randint(2, 4)
        mg = _mg([[rng.randint(-2, 2) for _ in range(nc)] for _ in range(nr)])
        sigma = strict_complementary_strategy(mg)
        value, _, _ = matrix_value(mg)
        # optimality: no row beats the value against sigma
        for r in range(nr):
            got = sum(mg.payoff[r][c] * sigma.prob(c) for c in range(nc))
            assert got <= value
        assert sigma.support() == _best_response_to_all_optima(mg)


def test_theorem1_auxiliary_shape_and_entries():
    pd = generators.prisoners_dilemma()
    aux = build_theorem1_auxiliary(pd, (1, 1))
    assert len(aux.row_labels) == 3 and len(aux.col_labels) == 2
    cc = aux.row_keys.index((0, 0))
    assert aux.payoff[cc] == (F(1), F(1))
    # entry definition at a unilateral deviation row
    cd = aux.row_keys.index((0, 1))
    assert aux.payoff[cd][0] == pd.u(0, (0, 1)) - pd.u(0, (1, 1))
    value, _, _ = matrix_value(aux)
    assert value >= 0  # (c,c) hands the maximizer +1


def test_theorem1_auxiliary_parking_negative_value():
    g = generators.parking(3, 1, F(1, 4), F(3, 5))
    aux = build_theorem1_auxiliary(g, (0, 0))
    assert len(aux.row_labels) == 15 and len(aux.col_labels) == 2
    value, _, _ = matrix_value(aux)
    assert value < 0


def test_theorem1_value_sign_matches_ircp_certification():
    certified = refuted = 0
    for seed in range(40):
        g = generators.random_game((2, 2), seed=seed)
        result = certify_unique_ircp(g)
        if isinstance(result, UniquenessCertificate):
            certified += 1
            aux = build_theorem1_auxiliary(g, result.a_star)
            value, _, _ = matrix_value(aux)
            assert value < 0
        else:
            refuted += 1
            a_star = unique_security_profile(g)
            if a_star is not None:
                aux = build_theorem1_auxiliary(g, a_star)
                value, _, _ = matrix_value(aux)
                assert value >= 0
    assert certified and refuted


def test_lemma3_auxiliary_matching_pennies():
    mp = generators.matching_pennies()
    aux = build_lemma3_auxiliary(mp)
    assert len(aux.row_labels) == 4 and len(aux.col_labels) == 4
    value, row_opt, _ = matrix_value(aux)
    assert value == 0
    # the maximizer's optimal strategy is the unique CCE: uniform
    assert row_opt == (F(1, 4),) * 4


def test_lemma3_auxiliary_pd():
    aux = build_lemma3_auxiliary(generators.prisoners_dilemma())
    value, row_opt, _ = matrix_value(aux)
    assert value == 0
    dd = aux.row_keys.index((1, 1))
    assert row_opt[dd] == 1


def test_lemma3_entries_vanish_under_nash_indifference():
    # uniform RPS: each column (i, a_i) has zero expectation under the NE
    g = generators.rock_paper_scissors()
    aux = build_lemma3_auxiliary(g)
    for c in range(len(aux.col_labels)):
        total = sum(aux.payoff[r][c] for r in range(len(aux.row_labels)))
        assert total / 9 == 0


@pytest.mark.parametrize("shape", ((2, 2), (3, 4), (4, 3, 2), (2, 3, 2, 2)))
def test_stride_payoff_matrix_equals_profile_matrix(shape):
    # The rows of maximin's LP: d_i u_i(a, c) for each action a, over the
    # opponent joint actions c in `opponent_profiles` order.
    for seed, divisor in ((1, 1), (2, 6)):
        base = generators.random_game(shape, seed)
        game = Game(base.actions, tuple(tuple(x / divisor for x in row)
                                        for row in base.payoffs))
        for i in range(game.num_players):
            d = game.payoff_scales[i]
            reference = [[game.u(i, game.insert_action(i, a, opp)) * d
                          for opp in game.opponent_profiles(i)]
                         for a in range(game.shape[i])]
            bases = opponent_bases(game, i)
            assert [int_payoff_row(game, i, a, bases)
                    for a in range(game.shape[i])] == reference
