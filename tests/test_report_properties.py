"""Property test: report decisions are invariant under payoff maps and relabelling.

The CE, CCE and IRCP polytopes of a game do not change under a positive
affine map of each player's payoffs, and an action relabelling or a
reordering of the players permutes their coordinates.  So the decisions a
report makes (singleton flags and points, certificate or refutation with its
profile, the classification variant) must follow.  Every report must also
pass its own verification.
"""

import itertools
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from eqcert.games import Game, affine_transform  # noqa: E402
from eqcert.generators import parking  # noqa: E402
from eqcert.report import build_report, verify_report  # noqa: E402

SHAPES = ((2, 2), (2, 3), (3, 3), (2, 2, 2))


def _draw_game(draw, shapes) -> Game:
    """A random integer game of one of `shapes`."""
    shape = draw(st.sampled_from(shapes))
    size = 1
    for k in shape:
        size *= k
    payoffs = [draw(st.lists(st.integers(-3, 3), min_size=size, max_size=size))
               for _ in shape]
    actions = tuple(tuple(f"p{i}a{k}" for k in range(n)) for i, n in enumerate(shape))
    return Game(actions, tuple(tuple(Fraction(x) for x in row) for row in payoffs))


@st.composite
def _game_and_maps(draw):
    """A random integer game, a positive affine map per player, and relabellings."""
    game = _draw_game(draw, SHAPES)
    shape = game.shape
    scale = [Fraction(draw(st.integers(1, 5)), draw(st.integers(1, 3))) for _ in shape]
    shift = [Fraction(draw(st.integers(-4, 4))) for _ in shape]
    perms = [tuple(draw(st.permutations(range(n)))) for n in shape]
    return game, scale, shift, perms


def _relabel(game: Game, perms) -> Game:
    """Action a of player i becomes action perms[i][a]."""
    payoffs = [[Fraction(0)] * game.num_profiles for _ in range(game.num_players)]
    for profile in game.profiles():
        image = game.profile_index(tuple(perms[i][a] for i, a in enumerate(profile)))
        for i in range(game.num_players):
            payoffs[i][image] = game.u(i, profile)
    actions = tuple(tuple(acts[perms[i].index(k)] for k in range(len(acts)))
                    for i, acts in enumerate(game.actions))
    return Game(actions, tuple(tuple(row) for row in payoffs), game.name)


def _original_profile(profile, order) -> tuple:
    """The profile of the original game that a reordered game's `profile` is."""
    original = [0] * len(profile)
    for j, a in enumerate(profile):
        original[order[j]] = a
    return tuple(original)


def _reorder_players(game: Game, order) -> Game:
    """Player j of the new game is player order[j] of `game`."""
    actions = tuple(game.actions[i] for i in order)
    profiles = list(itertools.product(*(range(len(acts)) for acts in actions)))
    payoffs = tuple(tuple(game.u(i, _original_profile(b, order)) for b in profiles)
                    for i in order)
    return Game(actions, payoffs, game.name)


def _decisions(game: Game, report: dict, perms=None, order=None) -> dict:
    """The report's decisions, with profiles mapped back through `perms`
    (an action relabelling) or `order` (a reordering of the players)."""
    def back(profile):
        if perms is not None:
            return tuple(perms[i].index(a) for i, a in enumerate(profile))
        if order is not None:
            return _original_profile(profile, order)
        return tuple(profile)

    def point(dist):
        return {back(game.profile_from_index(int(k))): w for k, w in dist.items()}

    out = {}
    for concept, entry in report["concepts"].items():
        out[concept] = (entry["singleton"], point(entry["point"]) if entry["singleton"]
                        else None)
    for key, entry in report["certificates"].items():
        out[f"certificate.{key}"] = (entry["type"], back(entry["a_star"])
                                     if entry["type"] == "certificate" else None)
    out["classification"] = report["classification"]["variant"]
    return out


def _analyze(game: Game) -> dict:
    report = build_report(game, ("ne", "ce", "cce", "ircp"), check_unique=True)
    assert verify_report(report) == []
    return report


# Random games almost never have a one-point IRCP, so the parking game (whose
# IRCP is certified at fee 3/5) is added by hand.
@hypothesis.settings(max_examples=150, deadline=None, derandomize=True,
                     suppress_health_check=list(hypothesis.HealthCheck))
@hypothesis.given(_game_and_maps())
@hypothesis.example((parking(3, 1, Fraction(1, 4), Fraction(3, 5)),
                     [Fraction(2), Fraction(1, 3)], [Fraction(1), Fraction(-2)],
                     [(3, 0, 2, 1), (1, 2, 3, 0)]))
def test_decisions_survive_affine_maps_and_relabelling(case):
    game, scale, shift, perms = case
    decisions = _decisions(game, _analyze(game))
    mapped = affine_transform(game, scale, shift)
    assert _decisions(mapped, _analyze(mapped)) == decisions
    relabelled = _relabel(game, perms)
    assert _decisions(relabelled, _analyze(relabelled), perms) == decisions


@st.composite
def _game_and_order(draw):
    """A random integer game and a reordering of its players that moves one."""
    game = _draw_game(draw, ((2, 3), (3, 2, 2), (2, 2, 3)))
    identity = tuple(range(game.num_players))
    order = tuple(draw(st.permutations(identity).filter(lambda p: tuple(p) != identity)))
    return game, order


# Profile indices are computed from per-player strides, so a player's
# position must not change any decision.
@hypothesis.settings(max_examples=100, deadline=None, derandomize=True,
                     suppress_health_check=list(hypothesis.HealthCheck))
@hypothesis.given(_game_and_order())
@hypothesis.example((parking(3, 1, Fraction(1, 4), Fraction(3, 5)), (1, 0)))
def test_decisions_survive_reordering_players(case):
    game, order = case
    decisions = _decisions(game, _analyze(game))
    reordered = _reorder_players(game, order)
    assert _decisions(reordered, _analyze(reordered), order=order) == decisions


def _respelled(dist: dict) -> dict:
    """The same distribution, each key zero-padded and each weight p/q written 2p/2q."""
    weights = {key: Fraction(text) for key, text in dist.items()}
    return {"0" + key: f"{2 * w.numerator}/{2 * w.denominator}" for key, w in weights.items()}


def _witness_pairs(report: dict):
    """Each entry holding a witness pair, with the line `verify` gives for one point twice."""
    same = "are the same distribution"
    for concept, entry in report["concepts"].items():
        if not entry["singleton"]:
            where = f"concepts.{concept}.witnesses"
            yield entry, f"{where}[0] and {where}[1] {same}"
    for key, entry in report["certificates"].items():
        if entry["type"] == "refutation" and len(entry["witnesses"]) == 2:
            yield entry, f"certificates.{key}: witnesses[0] and witnesses[1] {same}"
    if report["classification"]["variant"] == "not_unique":
        where = "classification.witnesses"
        yield report["classification"], f"{where}[0] and {where}[1] {same}"


# A forged refutation: each witness pair [w, w'] becomes w and w re-spelled.
# Witnesses are compared as distributions, so `verify` names every pair.
@hypothesis.settings(max_examples=40, deadline=None, derandomize=True,
                     suppress_health_check=list(hypothesis.HealthCheck))
@hypothesis.given(st.composite(lambda draw: _draw_game(draw, SHAPES[:3]))())
def test_one_point_written_twice_is_no_witness_pair(game):
    report = _analyze(game)
    expected = []
    for entry, line in _witness_pairs(report):
        first = entry["witnesses"][0]
        entry["witnesses"] = [first, _respelled(first)]
        expected.append(line)
    hypothesis.assume(expected)
    assert verify_report(report) == expected
