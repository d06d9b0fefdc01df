"""Game container, profile indexing, transforms, and serialization."""

from fractions import Fraction

import pytest

from eqcert import generators
from eqcert.certify import _unilateral_guarantee
from eqcert.games import (
    Game,
    GameFormatError,
    JointDistribution,
    MixedAction,
    gain_rows,
    game_from_dict,
    game_to_dict,
    integer_weights,
    is_symmetric,
    load_game,
    opponent_bases,
    product_distribution,
    save_game,
    total_variation,
)
from eqcert.rational import RationalFormatError, parse_rational
from eqcert.theory import affine_transform, strategic_transform


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


def test_random_game_rejects_an_empty_payoff_range():
    assert set(generators.random_game((2, 2), 1, 2, 2).payoffs[0]) == {Fraction(2)}
    with pytest.raises(ValueError, match=r"payoff range \[3, 1\] is empty"):
        generators.random_game((2, 2), 1, 3, 1)


def test_derived_attributes_stay_out_of_equality():
    import dataclasses
    pd = generators.prisoners_dilemma()
    again = Game(pd.actions, pd.payoffs, pd.name)
    assert again == pd and hash(again) == hash(pd)
    assert repr(again) == repr(pd) and "_shape" not in repr(pd)
    wider = dataclasses.replace(pd, actions=(("c", "d", "e"), ("c", "d")),
                                payoffs=((0,) * 6, (0,) * 6))
    assert (wider.shape, wider.num_profiles, wider.strides) == ((3, 2), 6, (2, 1))


def test_games_from_fractions_ints_and_strings_are_equal():
    actions = (("a", "b"), ("a", "b"))
    third = Fraction(1, 3)
    from_fractions = Game(actions, ((third, Fraction(2), Fraction(-1), Fraction(0)),
                                    (Fraction(5), Fraction(1, 2), Fraction(7, 4), Fraction(1))))
    from_mixed = Game(actions, (("1/3", 2, -1, "0"), (5, "0.5", "7/4", 1)))
    assert from_fractions == from_mixed and hash(from_fractions) == hash(from_mixed)
    assert all(type(x) is Fraction for row in from_mixed.payoffs for x in row)
    # A Fraction payoff is kept as it is, not wrapped again.
    assert from_fractions.payoffs[0][0] is third
    assert JointDistribution({(0, 0): third, (1, 1): Fraction(2, 3)}).weights[(0, 0)] is third
    assert MixedAction(0, {0: third, 1: Fraction(2, 3)}).weights[0] is third
    assert JointDistribution({(0, 0): "1/3", (1, 1): Fraction(2, 3)}) == JointDistribution(
        {(0, 0): third, (1, 1): Fraction(2, 3)})
    from eqcert.zerosum import MatrixGame
    matrix = MatrixGame(("r",), ("c", "d"), ((third, 1),))
    assert matrix.payoff[0][0] is third and matrix.payoff == ((third, Fraction(1)),)
    assert MatrixGame(("r",), ("c", "d"), (("1/3", "1"),)) == matrix


def test_integer_payoffs_scale_each_player_by_the_lcm_of_its_denominators():
    game = Game((("a", "b"), ("a", "b")),
                (("1/3", "1/2", -1, "5/6"), (2, 4, 6, 8)))
    assert game.payoff_scales == (6, 1)
    assert game.int_payoffs == ((2, 3, -6, 5), (2, 4, 6, 8))
    assert all(type(t) is int for row in game.int_payoffs for t in row)
    # Computed on first use and kept out of equality, like the strides.
    assert game == Game(game.actions, game.payoffs) and "int_payoffs" not in repr(game)


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


def test_unilateral_guarantee_reads_integer_payoffs_at_the_opponent_bases(monkeypatch):
    # a* meets the guarantee when each a*_i pays i at least u_i(a*) against
    # every opponent profile; it is read off `Game.int_rows` in ints.
    games = [generators.random_game(shape, seed, high=high)
             for shape in ((2, 2), (3, 4), (2, 3, 2)) for seed in (1, 2) for high in (1, 3)]
    games.append(generators.parking(3, 1, Fraction(1, 4), Fraction(3, 5)))
    expected = [[all(g.u(i, g.insert_action(i, a[i], others)) >= g.u(i, a)
                     for i in range(g.num_players) for others in g.opponent_profiles(i))
                 for a in g.profiles()] for g in games]
    assert any(map(any, expected)) and not all(map(all, expected))
    for g in games:
        for i in range(g.num_players):
            assert opponent_bases(g, i) == [g.profile_index(g.insert_action(i, 0, others))
                                            for others in g.opponent_profiles(i)]
    monkeypatch.setattr(Game, "u", None)
    for g, flags in zip(games, expected):
        assert [_unilateral_guarantee(g, a) for a in g.profiles()] == flags
        for i in range(g.num_players):
            for a in (-1, g.shape[i]):
                with pytest.raises(GameFormatError):
                    _unilateral_guarantee(g, (0,) * i + (a,) + (0,) * (g.num_players - i - 1))


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


def test_cce_gain_rows_vanish_where_a_player_plays_a_star():
    pd = generators.prisoners_dilemma()
    cce, ircp = gain_rows(pd, (1, 1), "cce"), gain_rows(pd, (1, 1), "ircp")
    for i in range(2):
        for k, p in enumerate(pd.profiles()):
            if p[i] == 1:
                assert cce[i][k] == 0
            assert ircp[i][k] == (pd.u(i, p) - pd.u(i, (1, 1))) * pd.payoff_scales[i]
    # both tables vanish at a*
    assert [row[pd.profile_index((1, 1))] for row in cce + ircp] == [0, 0, 0, 0]


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
    # The expected payoff, summed over the integer weights and payoffs.
    pd = generators.prisoners_dilemma()
    mu = JointDistribution.uniform([(0, 0), (1, 1)])
    support, denom = integer_weights(pd, mu)
    total = sum(m * pd.int_payoffs[0][k] for k, m in support)
    assert Fraction(total, denom * pd.payoff_scales[0]) == Fraction(3, 2)


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
    # players must be a JSON int, and payoffs a list of lists: "00" is no row.
    for players, payoffs in (('"1"', '[["0", "0"]]'), ("true", '[["0", "0"]]'),
                             ("1.0", '[["0", "0"]]'), ("1", "5"), ("1", "[5, 6]"),
                             ("1", '["00"]'), ("1", '{"0": ["0", "0"]}')):
        text = f'{{"players": {players}, "actions": [["a", "b"]], "payoffs": {payoffs}}}'
        with pytest.raises(GameFormatError, match="players must be an int|payoffs must be"):
            load_game(text)
    assert load_game('{"players": 1, "actions": [["a", "b"]], "payoffs": [["0", "0"]]}')


def _read_one_by_one(data: dict) -> Game:
    """A reference reader: every payoff through `parse_rational`, no string read once."""
    try:
        payoffs = tuple(tuple(parse_rational(x) for x in row) for row in data["payoffs"])
    except RationalFormatError as exc:
        raise GameFormatError(str(exc)) from exc
    return Game(tuple(tuple(a) for a in data["actions"]), payoffs)


@pytest.mark.parametrize("pair", [
    ["1", True], [True, "1"], [1, 1.0], [1.0, 1], ["1", 1], [1, "1"], ["1", "1.0"],
    ["1", "x"], ["x", 1.0], [1.0, "x"], [" 1 ", "1"], ["2/2", "1"], ["", "1"],
    ["1/0", "1"], ["1", None],
])
def test_payoff_strings_read_once_keep_the_json_type_rules(pair):
    # Each distinct string is parsed once per file; an int, float or boolean
    # that equals an earlier string's value is still read, or refused, alone.
    data = {"players": 2, "actions": [["a", "b"], ["c", "d"]],
            "payoffs": [pair + pair, pair[::-1] + pair]}
    try:
        expected = _read_one_by_one(data)
    except GameFormatError as exc:
        with pytest.raises(GameFormatError) as raised:
            game_from_dict(data)
        assert str(raised.value) == str(exc)
    else:
        assert game_from_dict(data) == expected


def test_equal_payoff_strings_read_as_one_value():
    data = {"players": 2, "actions": [["a", "b"], ["c", "d"]],
            "payoffs": [[" 1 ", "1", "2/2", "1.0"], ["1", "1", "-3/6", "-0.5"]]}
    game = game_from_dict(data)
    assert game.payoffs == ((Fraction(1),) * 4, (1, 1, Fraction(-1, 2), Fraction(-1, 2)))
    assert all(type(x) is Fraction for row in game.payoffs for x in row)
    data["payoffs"][1][3] = "1/2x"
    with pytest.raises(GameFormatError, match="'1/2x'"):
        game_from_dict(data)
