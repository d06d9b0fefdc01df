"""Uniqueness certificates, refutations, and the classification of a unique CCE.

A uniqueness certificate for a profile a* consists of positive welfare
weights gamma such that the gamma-weighted gains sum_i gamma_i delta_i(a)
are strictly negative at every other profile a.  For IRCP uniqueness and
strict fractional GUE the gain is delta_i(a) = u_i(a) - u_i(a*); for a
unique pure CCE it is u_i(a) - u_i(a_i*, a_{-i}), the gain over switching
to a_i*.  Both are one integer gain table (`games.gain_rows`), and such
weights pin P(a*) = {mu : E_mu delta_i >= 0 for all i} to delta(a*).  One
kept search finds them, `polytopes.GameAnalysis.weights`, which decides
those questions too, so a certificate is only (concept, a*, gamma, slack);
refutations carry explicit polytope members that anyone can re-check.  At
a strict NE a*, a pure CCE certificate needs no maximin LP: the CCE gain
is 0 wherever player i plays a_i*, and every other mix of i's loses
against a*_{-i}.  The weighted gains of a certificate are summed over the
gain table in ints (`games._gain_slack`), and the slack is reported as a
`Fraction`; the unilateral guarantee and the pure-Pareto GUE flag compare
the table's entries with 0.  The solver's re-check and
`verify_certificate` are one call on the game's payoffs alone, with no
maximin level and no LP (`_certificate_problems`).  The questions about a
distribution read integer tables as well: a product is an NE, or a
quasi-strict one, by the column sums of the gain table over its
support (`_is_equilibrium`), and a 2x2 game is of matching-pennies type
exactly when it has no pure NE.  Each question is decided once, by the
context (`polytopes.GameAnalysis.singleton`, which re-checks the members it
keeps), and `_decision` only converts that decision, for
`certify_unique_ircp`, `certify_unique_pure_cce` and `classify_unique_cce`
alike.

Certificates and refutations are written and read here; their witnesses take
the JSON form of `games` and are re-checked by `polytopes.membership_problems`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import games, polytopes
from .games import (
    Game,
    JointDistribution,
    MixedAction,
    Profile,
    _gain_slack,
    gain_rows,
    is_symmetric,
)
from .lp import SolverInvariantError
from .rational import format_rational


class CertificationError(ValueError):
    """Bad inputs to a certification operation."""


# -- certificates and refutations --------------------------------------------


@dataclass(frozen=True)
class UniquenessCertificate:
    concept: str  # "ircp" | "cce"
    a_star: Profile
    gamma: tuple[Fraction, ...]
    slack: Fraction


@dataclass(frozen=True)
class Refutation:
    concept: str
    reason: str
    witnesses: tuple[JointDistribution, ...]  # two members, or one mixed CCE


def _certificate_problems(game: Game, concept: str, a_star: Profile,
                          gamma: Sequence[Fraction], slack: Fraction) -> list[str]:
    """What keeps gamma from putting `game` in enforcement form at a*; no LP runs.

    Weights and slack must be positive, the slack `games._gain_slack`'s.
    For "ircp" each a*_i must guarantee u_i(a*) (`_unilateral_guarantee`),
    so every IRCP member pays i at least u_i(a*) and negative gains leave
    only delta(a*).  A negative "cce" gain gamma_i (u_i(a_i, a*_-i) -
    u_i(a*)) already makes a* a strict NE.
    """
    problems = []
    if any(g <= 0 for g in gamma):
        problems.append("gamma must be strictly positive")
    if slack <= 0:
        problems.append("slack must be strictly positive")
    recomputed = _gain_slack(game, a_star, gamma, concept)
    if recomputed is None:
        problems.append("weighted gains are not strictly negative everywhere")
    elif recomputed != slack:
        problems.append(
            f"slack mismatch: certificate says {slack}, recomputation gives {recomputed}")
    if concept == "ircp" and not _unilateral_guarantee(game, a_star):
        problems.append("some player's action at the certified profile does not "
                        "guarantee the certified payoff")
    return problems


def _certificate(game: Game, concept: str, a_star: Profile,
                 gamma: tuple[Fraction, ...], slack: Fraction) -> UniquenessCertificate:
    """The certificate, re-checked by the call `verify_certificate` makes."""
    problems = _certificate_problems(game, concept, a_star, gamma, slack)
    if problems:
        raise SolverInvariantError(f"certificate re-check: {'; '.join(problems)}")
    return UniquenessCertificate(concept, tuple(a_star), gamma, slack)


def _decision(analysis: polytopes.GameAnalysis,
              concept: str) -> UniquenessCertificate | Refutation:
    """The context's decision for `concept` (`GameAnalysis.singleton`), converted.

    A point mass delta(a*) becomes a certificate from the kept weights
    (`GameAnalysis.weights`); a pure singleton with none raises.  Otherwise
    the decision's members refute, with an IRCP decision's reason or the
    one `CCE_REFUTATION_REASONS` gives the CCE variant.
    """
    singleton = analysis.singleton(concept)
    if singleton.is_singleton and len(singleton.point.support()) == 1:
        [a_star] = singleton.point.support()
        found = analysis.weights(a_star, concept)
        if found is None:
            raise SolverInvariantError(
                f"pure singleton {concept.upper()} must admit a uniqueness certificate")
        return _certificate(analysis.game, concept, a_star, *found)
    if concept == "ircp":
        return Refutation("ircp", singleton.reason, singleton.witnesses)
    variant = UNIQUE_MIXED_2X2 if singleton.is_singleton else NOT_UNIQUE
    return Refutation("cce", CCE_REFUTATION_REASONS[variant],
                      singleton.witnesses or (singleton.point,))


def certify_unique_ircp(game: Game | polytopes.GameAnalysis
                        ) -> UniquenessCertificate | Refutation:
    """Certify or refute that the IRCP polytope is one point (`_decision`)."""
    return _decision(polytopes.analysis_of(game), "ircp")


def certify_unique_pure_cce(game: Game | polytopes.GameAnalysis
                            ) -> UniquenessCertificate | Refutation:
    """Certify or refute that the CCE polytope is a single pure profile (`_decision`)."""
    return _decision(polytopes.analysis_of(game), "cce")


# -- classification ----------------------------------------------------------


UNIQUE_PURE = "unique_pure"
UNIQUE_MIXED_2X2 = "unique_mixed_2x2"
NOT_UNIQUE = "not_unique"
# Why a unique pure CCE is refuted, by the variant that refutes it.
CCE_REFUTATION_REASONS = {
    NOT_UNIQUE: "the polytope holds two distinct members",
    UNIQUE_MIXED_2X2: "the unique coarse correlated equilibrium is mixed",
}


@dataclass(frozen=True)
class CceClassification:
    variant: str
    decision: UniquenessCertificate | Refutation  # `_decision`'s, for every variant
    point: JointDistribution | None = None
    mixers: tuple[int, int] | None = None
    subgame: Game | None = None
    ne: tuple[MixedAction, ...] | None = None


def is_matching_pennies_type(game: Game) -> bool:
    """True iff the game is 2x2 with no pure NE (`polytopes.enumerate_pure_ne`).

    Under some relabeling that is the strict cyclic pattern, which forces a
    unique, fully mixed equilibrium.  A cycle has no pure NE.  Conversely, a
    tie of player 1's against column c gives one: (r, c) if c is player 2's
    best reply to some row r, else the other column, strictly dominant, with
    player 1's best reply to it; so does a tie of player 2's.  Strict best
    replies with no pure NE must cycle.
    """
    return game.shape == (2, 2) and not polytopes.enumerate_pure_ne(game)


def _induced_2x2(game: Game, mu: JointDistribution) -> tuple[tuple[int, int], Game] | None:
    """Subgame spanned by the two mixing players' supports, others fixed.

    None unless exactly two players mix, each over two actions.
    """
    marginals = [mu.marginal(game, i) for i in range(game.num_players)]
    mixers = [i for i, m in enumerate(marginals) if not m.is_pure]
    if len(mixers) != 2 or any(len(marginals[i].support()) != 2 for i in mixers):
        return None
    i, j = mixers
    supp_i, supp_j = marginals[i].support(), marginals[j].support()
    fixed = [m.support()[0] for m in marginals]
    actions = (tuple(game.actions[i][a] for a in supp_i),
               tuple(game.actions[j][a] for a in supp_j))
    u1, u2 = [], []
    for a in supp_i:
        for b in supp_j:
            profile = list(fixed)
            profile[i], profile[j] = a, b
            u1.append(game.u(i, profile))
            u2.append(game.u(j, profile))
    name = f"{game.name}|p{i},p{j}" if game.name else None
    return (i, j), Game(actions, (tuple(u1), tuple(u2)), name)


def classify_unique_cce(game: Game | polytopes.GameAnalysis) -> CceClassification:
    """Decide singleton-ness of the CCE polytope and name what the point is.

    A singleton is either a pure profile backed by a uniqueness certificate
    or a product where exactly two players mix over two actions and the
    induced 2x2 subgame shows the strict cyclic pattern; any other shape
    signals a solver bug and raises rather than degrades.  Given a
    `GameAnalysis`, the singleton test is the context's.
    """
    analysis = polytopes.analysis_of(game)
    game = analysis.game
    decision = _decision(analysis, "cce")
    if isinstance(decision, UniquenessCertificate):
        return CceClassification(UNIQUE_PURE, decision,
                                 point=JointDistribution.point_mass(decision.a_star))
    mu = analysis.singleton("cce").point
    if mu is None:
        return CceClassification(NOT_UNIQUE, decision)
    if not mu.is_product(game):
        raise SolverInvariantError("mixed singleton CCE must be a product distribution")
    if is_symmetric(game):
        raise SolverInvariantError(
            "a symmetric game cannot have a mixed singleton CCE")
    if not is_quasi_strict(game, mu):
        raise SolverInvariantError("a singleton CCE must be a quasi-strict NE")
    induced = _induced_2x2(game, mu)
    if induced is None or not is_matching_pennies_type(induced[1]):
        raise SolverInvariantError("a mixed singleton CCE must span a 2x2 subgame "
                                   "with the strict cyclic pattern")
    mixers, subgame = induced
    ne = (mu.marginal(game, mixers[0]), mu.marginal(game, mixers[1]))
    pairs = [pair for pair in polytopes.mixed_ne_2x2(subgame)
             if not pair[0].is_pure and not pair[1].is_pure]
    if len(pairs) != 1 or any(
            pairs[0][k].prob(s) != ne[k].prob(a)
            for k in (0, 1) for s, a in enumerate(ne[k].support())):
        raise SolverInvariantError(
            "singleton point disagrees with the subgame's mixed equilibrium")
    return CceClassification(UNIQUE_MIXED_2X2, decision, point=mu, mixers=mixers,
                             subgame=subgame, ne=ne)


# -- quasi-strictness --------------------------------------------------------


def _require_product(game: Game, nu: JointDistribution) -> list[MixedAction]:
    if not nu.is_product(game):
        raise CertificationError("expected a product distribution over profiles")
    return [nu.marginal(game, i) for i in range(game.num_players)]


def _is_equilibrium(game: Game, nu: JointDistribution, quasi_strict: bool) -> bool:
    """Whether the product nu is an NE, or a quasi-strict one, by `games.gain_column_sums`.

    Player i's sum at d is D d_i (E_nu u_i - E u_i(d, nu_-i)): each sum
    must be >= 0, and > 0 off i's support if quasi-strict.
    """
    mixed = _require_product(game, nu)
    support, _ = games.integer_weights(game, nu)
    for i, m in enumerate(mixed):
        sums = games.gain_column_sums(game, i, support)
        if any(t < 0 or (quasi_strict and t == 0 and d not in m.weights)
               for d, t in enumerate(sums)):
            return False
    return True


def is_quasi_strict(game: Game, nu: JointDistribution) -> bool:
    """NE where every action outside the support loses strictly."""
    return _is_equilibrium(game, nu, quasi_strict=True)


# -- guaranteed-utility efficiency --------------------------------------------


def _unilateral_guarantee(game: Game, a_star: Profile) -> bool:
    """Whether each a*_i guarantees u_i(a*): i's IRCP gain is >= 0 wherever i plays a*_i."""
    rows = gain_rows(game, a_star, "ircp")
    return all(min(row[base + a * game.strides[i]] for base in games.opponent_bases(game, i))
               >= 0 for i, (a, row) in enumerate(zip(a_star, rows)))


def is_gue(game: Game, a_star: Sequence[int]) -> bool:
    """Pareto optimal among pure profiles plus the unilateral guarantee.

    Both read the IRCP gain table at a* (`games.gain_rows`): no column may
    be >= 0 in every entry with one entry > 0.
    """
    a_star = tuple(a_star)
    return _unilateral_guarantee(game, a_star) and not any(
        min(column) >= 0 and max(column) > 0
        for column in zip(*gain_rows(game, a_star, "ircp")))


def is_strict_fractional_gue(game: Game | polytopes.GameAnalysis,
                             a_star: Sequence[int]) -> bool:
    """Pareto optimal among lotteries, uniquely so in utilities, plus the guarantee.

    Beyond the unilateral guarantee, the lottery conditions are one
    singleton test: P(a*) = {mu : E_mu u >= u(a*)}
    (`polytopes.improvement_system`) must be {delta(a*)}.  That is the same
    as the two conditions it replaces, no lottery Pareto-improves on a*,
    and delta(a*) is the only lottery with E_mu u = u(a*).  If P(a*) =
    {delta(a*)}, an improving lottery would be a second member of P(a*),
    and so would a second lottery matching u(a*).  Conversely, if both
    conditions hold and mu is in P(a*), then E_mu u = u(a*), since anything
    higher improves on a*, and so mu = delta(a*).  The answer is the
    context's kept weight search (`GameAnalysis.weights`), which needs the
    guarantee tested first.
    """
    analysis = polytopes.analysis_of(game)
    a_star = tuple(a_star)
    if not _unilateral_guarantee(analysis.game, a_star):
        return False
    return analysis.weights(a_star, "ircp") is not None


# -- serialization ------------------------------------------------------------


def certificate_to_dict(cert: UniquenessCertificate) -> dict:
    return {
        "concept": cert.concept,
        "a_star": list(cert.a_star),
        "gamma": [format_rational(g) for g in cert.gamma],
        "slack": format_rational(cert.slack),
    }


def refutation_to_dict(game: Game, ref: Refutation) -> dict:
    return {
        "concept": ref.concept,
        "reason": ref.reason,
        "witnesses": [games.distribution_to_dict(game, w) for w in ref.witnesses],
    }


def verify_certificate(game: Game, data: dict) -> list[str]:
    """Re-check a serialized certificate against a game; returns problems found.

    After parsing, the check is the solver's own (`_certificate_problems`).
    """
    concept = data.get("concept")
    if concept not in ("ircp", "cce"):
        return [f"unknown certificate concept {concept!r}"]
    try:
        a_star = games.profile_from_json(data["a_star"])
        game.profile_index(a_star)  # rejects a profile outside the game
        gamma = games.rationals_from_json(data["gamma"], "gamma")
        slack = games.rational_from_json(data["slack"], "slack")
    except Exception as exc:  # malformed fields
        return [f"unreadable certificate: {exc}"]
    if len(gamma) != game.num_players:
        return ["gamma length disagrees with the player count"]
    return _certificate_problems(game, concept, a_star, gamma, slack)


def verify_refutation(game: Game | polytopes.GameAnalysis, data: dict) -> list[str]:
    """Re-check a serialized refutation; witnesses must be genuine members.

    Given a `GameAnalysis`, the polytope is the context's.
    """
    analysis = polytopes.analysis_of(game)
    game = analysis.game
    concept = data.get("concept")
    if concept not in ("ircp", "cce"):
        return [f"unknown refutation concept {concept!r}"]
    try:
        witnesses = [games.distribution_from_dict(game, w, f"witnesses[{idx}]")
                     for idx, w in enumerate(data["witnesses"])]
    except Exception as exc:
        return [f"unreadable witnesses: {exc}"]
    problems = polytopes.membership_problems(analysis.polytope(concept), witnesses,
                                             "witnesses")
    if len(witnesses) == 1:
        if concept != "cce":
            problems.append("single-witness refutations only apply to the CCE concept")
        elif len(witnesses[0].support()) == 1:
            problems.append("a lone pure witness cannot refute pure uniqueness")
    elif len(witnesses) != 2:
        problems.append("refutations carry one or two witnesses")
    return problems
