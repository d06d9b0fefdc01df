"""Property test: the LP-free certificate check against the level-based rule.

`certify.verify_certificate` checks positive weights, the recomputed slack
and, for IRCP, that each a*_i guarantees u_i(a*); it solves no LP.  The rule
it replaced is the reference, computed here: the same weights and slack,
and then, for IRCP, maximin levels (`zerosum.maximin`) equal to u(a*), or,
for CCE, a* a strict pure NE (`polytopes.enumerate_pure_ne`).  Both must
call a certificate valid on exactly the same inputs.

The certificates are the solver's, with one field edited: a* moved, or one
weight changed and the slack recomputed where the gains stay negative.  A
weight-first certificate is added as well, put at the profile where drawn
positive weights have the largest weighted welfare, so that negative gains
without the guarantee, and without the levels, come up too.
"""

import random
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from eqcert import zerosum  # noqa: E402
from eqcert.certify import (  # noqa: E402
    UniquenessCertificate,
    certificate_to_dict,
    certify_unique_ircp,
    certify_unique_pure_cce,
    verify_certificate,
)
from eqcert.games import Game, _gain_slack  # noqa: E402
from eqcert.generators import parking  # noqa: E402
from eqcert.lp import PolytopeSolver  # noqa: E402
from eqcert.polytopes import enumerate_pure_ne  # noqa: E402
from eqcert.rational import format_rational, parse_rational  # noqa: E402

SHAPES = ((2, 2), (2, 3), (3, 3), (2, 2, 2))


def _level_rule(game: Game, data: dict) -> bool:
    """The check before it dropped the levels: valid or not."""
    concept, a_star = data["concept"], tuple(data["a_star"])
    gamma = [parse_rational(g) for g in data["gamma"]]
    slack = parse_rational(data["slack"])
    if any(g <= 0 for g in gamma) or slack <= 0:
        return False
    if _gain_slack(game, a_star, gamma, concept) != slack:
        return False
    if concept == "ircp":
        return all(zerosum.maximin(game, i).value == game.u(i, a_star)
                   for i in range(game.num_players))
    return dict(enumerate_pure_ne(game)).get(a_star, False)


def _with_slack(game: Game, data: dict) -> dict:
    """`data` with its slack recomputed, where the weighted gains are negative."""
    gamma = [parse_rational(g) for g in data["gamma"]]
    slack = _gain_slack(game, tuple(data["a_star"]), gamma, data["concept"])
    return data if slack is None else dict(data, slack=format_rational(slack))


@st.composite
def _game(draw) -> Game:
    """A small random game with ties, or a parking game with each player's
    payoffs scaled apart, where IRCP and CCE certificates are common."""
    if draw(st.booleans()):
        base = parking(draw(st.integers(2, 4)), 1, Fraction(draw(st.sampled_from((1, 2, 3))), 4),
                       Fraction(draw(st.sampled_from((1, 3, 5, 10))), 5))
        return Game(base.actions, tuple(tuple(draw(st.integers(1, 3)) * x for x in row)
                                        for row in base.payoffs))
    shape = draw(st.sampled_from(SHAPES))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    size = 1
    for k in shape:
        size *= k
    actions = tuple(tuple(f"p{i}a{k}" for k in range(n)) for i, n in enumerate(shape))
    return Game(actions, tuple(tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                                     for _ in range(size)) for _ in shape))


@st.composite
def _game_and_certificates(draw):
    """A game and certificates for it: the solver's, edited, and weight-first."""
    game = draw(_game())
    shape = game.shape
    profiles = list(game.profiles())
    certificates = []
    for certify in (certify_unique_ircp, certify_unique_pure_cce):
        result = certify(game)
        if not isinstance(result, UniquenessCertificate):
            continue
        data = certificate_to_dict(result)
        certificates.append(data)
        moved = list(draw(st.sampled_from(profiles)))
        certificates.append(_with_slack(game, dict(data, a_star=moved)))
        gamma = list(data["gamma"])
        gamma[draw(st.integers(0, len(shape) - 1))] = format_rational(
            Fraction(draw(st.integers(-1, 5)), draw(st.integers(1, 4))))
        certificates.append(_with_slack(game, dict(data, gamma=gamma)))
    weights = [Fraction(draw(st.integers(1, 5)), draw(st.integers(1, 3))) for _ in shape]
    welfare = {p: sum(w * x for w, x in zip(weights, game.payoff_vector(p))) for p in profiles}
    top = max(profiles, key=welfare.get)
    for concept in ("ircp", "cce"):
        certificates.append(_with_slack(game, {
            "concept": concept, "a_star": list(top),
            "gamma": [format_rational(w) for w in weights], "slack": "1"}))
    return game, certificates


def _refuse(self, system):
    raise AssertionError("the certificate check built an LP")


@hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
@hypothesis.given(_game_and_certificates())
def test_certificate_check_agrees_with_the_level_rule(case):
    game, certificates = case
    verdicts = [verify_certificate(game, data) == [] for data in certificates]
    assert verdicts == [_level_rule(game, data) for data in certificates]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(PolytopeSolver, "__init__", _refuse)
        again = [verify_certificate(game, data) == [] for data in certificates]
    assert again == verdicts
