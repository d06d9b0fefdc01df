"""Property test: a pure CCE certificate without a second game analysis.

At a strict pure NE a*, every security level of the reduced game
v_i(a) = u_i(a) - u_i(a_i*, a_-i) is 0 and a_i* is each player's only
maximin action, so `certify_unique_pure_cce` asks only
`GameAnalysis.weights` whether that game's P(a*), the "cce" P(a*) of the
game, is delta(a*).  The full IRCP certification of the reduced game, a
strategic transform kept in conftest (`reference_reduction`), is the
reference: both must certify alike, with the same weights, and `weights`
must find none where the reference refutes.

A bare `certify_unique_pure_cce` and a report's `certificates.cce` read
the same CCE decision, so they agree on the type, profile and reason.
"""

import random
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from eqcert import generators, polytopes  # noqa: E402
from eqcert.certify import (  # noqa: E402
    Refutation,
    UniquenessCertificate,
    certify_unique_ircp,
    certify_unique_pure_cce,
)
from eqcert.games import Game  # noqa: E402
from eqcert.report import build_report  # noqa: E402

from conftest import reference_reduction  # noqa: E402

SHAPES = ((2, 2), (2, 3), (3, 3), (2, 2, 2))


@st.composite
def _one_strict_ne_game(draw):
    """A small game with exactly one strict pure NE, and that NE.

    Payoffs are p/q with p in [-3, 3] and q in 1..3; games come from a
    seeded generator until one has a single strict pure NE.
    """
    shape = draw(st.sampled_from(SHAPES))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    size = 1
    for k in shape:
        size *= k
    actions = tuple(tuple(f"p{i}a{k}" for k in range(n)) for i, n in enumerate(shape))
    for _ in range(200):
        payoffs = tuple(tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                              for _ in range(size)) for _ in shape)
        game = Game(actions, payoffs)
        strict = [p for p, s in polytopes.enumerate_pure_ne(game) if s]
        if len(strict) == 1:
            return game, strict[0]
    hypothesis.assume(False)


@hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
@hypothesis.given(_one_strict_ne_game())
def test_cce_certificate_equals_reduced_ircp_decision(case):
    game, a_star = case
    reduced = reference_reduction(game, a_star)
    reference = certify_unique_ircp(reduced)
    found = polytopes.GameAnalysis(game).weights(a_star, "cce")
    result = certify_unique_pure_cce(game)
    decided = polytopes.GameAnalysis(game)
    decided.singleton("cce")
    assert certify_unique_pure_cce(decided) == result
    if isinstance(reference, UniquenessCertificate):
        assert reference.a_star == a_star
        assert found == (reference.gamma, reference.slack)
        assert isinstance(result, UniquenessCertificate) and result.concept == "cce"
        assert (result.a_star, result.gamma, result.slack) == (a_star, *found)
    else:
        assert isinstance(result, Refutation)
        assert found is None


@hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
@hypothesis.given(st.builds(generators.random_game, st.sampled_from(SHAPES),
                            st.integers(0, 2**32 - 1)))
@hypothesis.example(generators.random_game((4, 4), 15))  # two strict pure NE
@hypothesis.example(generators.random_game((2, 2, 2), 1008))  # two strict pure NE
@hypothesis.example(generators.matching_pennies())  # a mixed singleton
def test_bare_certification_agrees_with_the_report(game):
    bare = certify_unique_pure_cce(game)
    if isinstance(bare, UniquenessCertificate):
        expected = ("certificate", list(bare.a_star), None)
    else:
        expected = ("refutation", None, bare.reason)
    entry = build_report(game, check_unique=True)["certificates"]["cce"]
    assert (entry["type"], entry.get("a_star"), entry.get("reason")) == expected
