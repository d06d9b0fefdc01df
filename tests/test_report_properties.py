"""Property test: report decisions are invariant under payoff maps and relabelling.

The CE, CCE and IRCP polytopes of a game do not change under a positive
affine map of each player's payoffs, and an action relabelling permutes their
coordinates.  So the decisions a report makes (singleton flags and points,
certificate or refutation with its profile, the classification variant) must
follow.  Every report must also pass its own verification.
"""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from eqcert.games import Game, affine_transform  # noqa: E402
from eqcert.generators import parking  # noqa: E402
from eqcert.report import build_report, verify_report  # noqa: E402

SHAPES = ((2, 2), (2, 3), (3, 3), (2, 2, 2))


@st.composite
def _game_and_maps(draw):
    """A random integer game, a positive affine map per player, and relabellings."""
    shape = draw(st.sampled_from(SHAPES))
    size = 1
    for k in shape:
        size *= k
    payoffs = [draw(st.lists(st.integers(-3, 3), min_size=size, max_size=size))
               for _ in shape]
    actions = tuple(tuple(f"p{i}a{k}" for k in range(n)) for i, n in enumerate(shape))
    game = Game(actions, tuple(tuple(Fraction(x) for x in row) for row in payoffs))
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


def _decisions(game: Game, report: dict, perms=None) -> dict:
    """The report's decisions, with profiles mapped back through `perms`."""
    def back(profile):
        if perms is None:
            return tuple(profile)
        return tuple(perms[i].index(a) for i, a in enumerate(profile))

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
