"""Game container, profile indexing, transforms, and serialization."""

from fractions import Fraction

import pytest

from eqcert import generators
from eqcert.games import (
    Game,
    GameFormatError,
    JointDistribution,
    MixedAction,
    affine_transform,
    cce_reduction,
    game_from_dict,
    game_to_dict,
    is_symmetric,
    load_game,
    product_distribution,
    save_game,
    strategic_transform,
    total_variation,
)


def test_profile_indexing_row_major():
    g = generators.rock_paper_scissors()
    assert g.shape == (3, 3)
    assert g.num_profiles == 9
    # player 1 moves slowest, player 2 fastest
    assert g.profile_index((0, 0)) == 0
    assert g.profile_index((0, 2)) == 2
    assert g.profile_index((2, 1)) == 7
    assert list(g.profiles()) == sorted(g.profiles())


@pytest.mark.parametrize("shape", ((2, 2), (3, 4), (4, 3, 2), (2, 3, 2, 2)))
def test_strides_give_profile_index(shape):
    game = generators.random_game(shape, 1)
    strides = game.strides
    assert strides[-1] == 1
    for profile in game.profiles():
        assert sum(a * s for a, s in zip(profile, strides)) == game.profile_index(profile)


def test_derived_attributes_stay_out_of_equality():
    import dataclasses
    pd = generators.prisoners_dilemma()
    again = Game(pd.actions, pd.payoffs, pd.name)
    assert again == pd and hash(again) == hash(pd)
    assert repr(again) == repr(pd) and "_shape" not in repr(pd)
    wider = dataclasses.replace(pd, actions=(("c", "d", "e"), ("c", "d")),
                                payoffs=((0,) * 6, (0,) * 6))
    assert (wider.shape, wider.num_profiles, wider.strides) == ((3, 2), 6, (2, 1))


def test_payoff_lookup_matches_matrix():
    pd = generators.prisoners_dilemma()
    assert pd.u(0, (0, 0)) == 2
    assert pd.u(0, (0, 1)) == 0
    assert pd.u(0, (1, 0)) == 3
    assert pd.u(1, (1, 0)) == 0
    assert pd.u(1, (1, 1)) == 1


def test_game_validation():
    with pytest.raises(GameFormatError):
        Game((("a",),), ((Fraction(0),),), "one player")
    with pytest.raises(GameFormatError):
        Game((("a", "b"), ("a", "b")),
             ((Fraction(0),) * 3, (Fraction(0),) * 4), "short row")


def test_insert_action_rebuilds_profiles():
    g = generators.rock_paper_scissors()
    # opponents of player 0 in a 2-player game: single coordinates
    assert g.insert_action(0, 2, (1,)) == (2, 1)
    assert g.insert_action(1, 0, (2,)) == (2, 0)
    three = generators.random_game((2, 2, 2), seed=0)
    assert three.insert_action(1, 1, (0, 1)) == (0, 1, 1)
    for player in range(three.num_players):
        for others in three.opponent_profiles(player):
            full = three.insert_action(player, 0, others)
            assert full[player] == 0
            assert len(full) == three.num_players


def test_affine_transform_rescales_per_player():
    pd = generators.prisoners_dilemma()
    g = affine_transform(pd, (Fraction(2), Fraction(1)),
                         (Fraction(-1), Fraction(5)))
    for p in pd.profiles():
        assert g.u(0, p) == 2 * pd.u(0, p) - 1
        assert g.u(1, p) == pd.u(1, p) + 5


def test_strategic_transform_shift_depends_on_others():
    pd = generators.prisoners_dilemma()
    g = strategic_transform(pd, (Fraction(1), Fraction(1)),
                            (lambda rest: Fraction(rest[0]),
                             lambda rest: Fraction(0)))
    assert g.u(0, (0, 1)) == pd.u(0, (0, 1)) + 1
    assert g.u(0, (1, 0)) == pd.u(0, (1, 0))
    assert g.u(1, (1, 0)) == pd.u(1, (1, 0))


def test_cce_reduction_zeroes_anchor_rows():
    pd = generators.prisoners_dilemma()
    reduced = cce_reduction(pd, (1, 1))
    for i in range(2):
        for p in reduced.profiles():
            if p[i] == 1:
                assert reduced.u(i, p) == 0
    # anchor profile is all zeros
    assert reduced.payoff_vector((1, 1)) == (Fraction(0), Fraction(0))


def test_symmetry_detection():
    assert is_symmetric(generators.rock_paper_scissors())
    assert is_symmetric(generators.prisoners_dilemma())
    assert not is_symmetric(generators.matching_pennies())


def test_mixed_action_drops_zeros():
    m = MixedAction(0, {0: Fraction(1, 2), 1: Fraction(0), 2: Fraction(1, 2)})
    assert m.support() == (0, 2)
    assert m.prob(1) == 0
    assert not m.is_pure
    assert MixedAction.point_mass(1, 2).is_pure


def test_mixed_action_must_sum_to_one():
    with pytest.raises(GameFormatError):
        MixedAction(0, {0: Fraction(1, 2)})


def test_joint_distribution_marginals_and_product():
    g = generators.matching_pennies()
    mu = product_distribution(
        g, (MixedAction(0, {0: Fraction(1, 4), 1: Fraction(3, 4)}),
            MixedAction(1, {0: Fraction(1, 2), 1: Fraction(1, 2)})))
    assert mu.prob((1, 0)) == Fraction(3, 8)
    assert mu.marginal(g, 0).prob(0) == Fraction(1, 4)
    assert mu.is_product(g)
    diag = JointDistribution.uniform([(0, 0), (1, 1)])
    assert not diag.is_product(g)


def test_expected_utility():
    pd = generators.prisoners_dilemma()
    mu = JointDistribution.uniform([(0, 0), (1, 1)])
    assert mu.expected_utility(pd, 0) == Fraction(3, 2)


def test_total_variation():
    a = JointDistribution.point_mass((0, 0))
    b = JointDistribution.uniform([(0, 0), (1, 1)])
    assert total_variation(a, b) == Fraction(1, 2)
    assert total_variation(a, a) == 0


def test_mix():
    a = JointDistribution.point_mass((0, 0))
    b = JointDistribution.point_mass((1, 1))
    m = a.mix(Fraction(1, 4), b)
    assert m.prob((0, 0)) == Fraction(1, 4)
    assert m.prob((1, 1)) == Fraction(3, 4)


def test_serialization_round_trip():
    for g in (generators.prisoners_dilemma(),
              generators.parking(3, 1, Fraction(1, 4), Fraction(3, 5)),
              generators.table3()):
        data = game_to_dict(g)
        back = game_from_dict(data)
        assert back == g
        assert load_game(save_game(g)) == g


def test_load_game_rejects_malformed():
    with pytest.raises(GameFormatError):
        load_game(b"{ not json")
    with pytest.raises(GameFormatError):
        load_game(b'{"actions": [["a"]], "payoffs": [["0"]]}')
