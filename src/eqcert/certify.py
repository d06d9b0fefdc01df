"""Uniqueness certificates, refutations, and structure tests.

A uniqueness certificate for a profile a* consists of positive welfare
weights gamma such that the gamma-weighted payoff gains relative to a*
are strictly negative at every other profile (for IRCP uniqueness, gains
are measured against a* itself; for unique pure CCE, against unilateral
switches to a_i*).  Such weights pin P(a*) = {mu : E_mu u >= u(a*)} to
delta(a*): over the game for IRCP and strict fractional GUE, over v_i(a) =
u_i(a) - u_i(a_i*, a_{-i}) (`games.cce_reduction`) for a pure CCE.  One
kept search finds them, `polytopes.GameAnalysis.weights`, which decides
those questions too, so a certificate is only (concept, a*, gamma, slack);
refutations carry explicit polytope members that anyone can re-check.  At
a strict NE a*, a pure CCE certificate needs no maximin LP: each level of
v is 0, as a_i* gets 0 against every a_{-i} and every other mix loses
against a*_{-i}.  The weighted gains of a certificate are summed over the
players' integer payoffs (`games._gain_slack`), and the slack is reported
as a `Fraction`.  The solver's re-check and `verify_certificate` are one
call on the game's payoffs alone, with no maximin level and no LP
(`_certificate_problems`).  The CCE question is decided once
(`_cce_decision`), and `certify_unique_pure_cce` and `classify_unique_cce`
convert that decision.

Certificates and refutations are written and read here; their witnesses take
the JSON form of `games` and are re-checked by `polytopes.membership_problems`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import games, polytopes, zerosum
from .games import (
    Game,
    JointDistribution,
    MixedAction,
    Profile,
    _gain_slack,
    _normalize,
    is_symmetric,
    product_distribution,
)
from .lp import (
    EQUAL,
    MAX_VERTEX_VARS,
    ConstraintSystem,
    LinearConstraint,
    PolytopeSolver,
    SolverInvariantError,
    enumerate_vertices,
)
from .rational import format_rational, parse_rational


class CertificationError(ValueError):
    """Bad inputs to a certification operation."""


# -- enforcement-form checks -------------------------------------------------


@dataclass(frozen=True)
class EnforcementCheck:
    """Condition-by-condition test of the self-enforcing normal form.

    A game is in enforcement form at a* when every player gets zero at a*,
    no unilateral opponent change pushes a player below zero, and total
    payoff is strictly negative everywhere else.
    """

    a_star: Profile | None
    zero_at_star: bool
    unilateral_guarantee: bool
    welfare_negative_elsewhere: bool

    @property
    def holds(self) -> bool:
        return (self.a_star is not None and self.zero_at_star
                and self.unilateral_guarantee and self.welfare_negative_elsewhere)


def check_enforcement(game: Game) -> EnforcementCheck:
    """Locate the self-enforcing profile, if any.

    At most one profile can qualify: the welfare condition makes every
    other profile strictly welfare-negative, while a qualifying profile has
    welfare zero.  Candidates are scanned in lexicographic order and the
    first full match is returned; with no match, the first all-zero-payoff
    profile (if any) is reported with its failing conditions.
    """
    first_zero: EnforcementCheck | None = None
    for profile in game.profiles():
        if any(x != 0 for x in game.payoff_vector(profile)):
            continue
        guarantee = all(games.pure_guarantee(game, i, profile[i]) >= 0
                        for i in range(game.num_players))
        negative = all(sum(game.payoff_vector(p), Fraction(0)) < 0
                       for p in game.profiles() if p != profile)
        check = EnforcementCheck(profile, True, guarantee, negative)
        if check.holds:
            return check
        first_zero = first_zero or check
    return first_zero or EnforcementCheck(None, False, False, False)


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


def certify_unique_ircp(game: Game | polytopes.GameAnalysis
                        ) -> UniquenessCertificate | Refutation:
    """Certify or refute that the IRCP polytope is one point.

    Converts the context's IRCP decision (`GameAnalysis.singleton`):
    witnesses into a refutation with the decision's reason, the point
    delta(a*) into the weights that decided it (`GameAnalysis.weights`).
    """
    analysis = polytopes.analysis_of(game)
    singleton = analysis.singleton("ircp")
    if not singleton.is_singleton:
        return Refutation("ircp", singleton.reason, singleton.witnesses)
    [a_star] = singleton.point.support()
    return _certificate(analysis.game, "ircp", a_star, *analysis.weights(a_star, "ircp"))


def _cce_decision(analysis: polytopes.GameAnalysis,
                  gamma_hint: Sequence[Fraction] | None = None
                  ) -> UniquenessCertificate | polytopes.SingletonResult:
    """The one CCE decision: a certificate at a*, or the CCE singleton test.

    A unique pure CCE sits at a strict pure NE a*, where its weights pin
    the reduced P(a*) (see the module docstring).  So at the context's CCE
    candidate, the lone strict pure NE with no rival (no LP), weights are
    sought first, unless the context holds a CCE decision other than
    delta(a*): `gamma_hint` (ignored unless positive and one per player),
    then `GameAnalysis.weights`, which the context's CCE decision reads
    too.  A rival leaves no weights to find.  Otherwise that decision
    stands: two members, or a mixed point.  A pure point there is one the
    weights must have certified, so it raises.
    """
    game, a_star = analysis.game, analysis.cce_candidate()
    if a_star is not None:
        kept = analysis.kept_singleton("cce")
        if kept is None or kept.point == JointDistribution.point_mass(a_star):
            found = None
            if gamma_hint is not None and len(gamma_hint) == game.num_players and all(
                    Fraction(g) > 0 for g in gamma_hint):
                gamma = _normalize(gamma_hint)
                slack = _gain_slack(game, a_star, gamma, "cce")
                found = None if slack is None else (gamma, slack)
            found = found or analysis.weights(a_star, "cce")
            if found is not None:
                return _certificate(game, "cce", a_star, *found)
    singleton = analysis.singleton("cce")
    if singleton.is_singleton and len(singleton.point.support()) == 1:
        raise SolverInvariantError("pure singleton CCE must admit a uniqueness certificate")
    return singleton


def certify_unique_pure_cce(game: Game | polytopes.GameAnalysis,
                            gamma_hint: Sequence[Fraction] | None = None
                            ) -> UniquenessCertificate | Refutation:
    """Certify or refute that the CCE polytope is a single pure profile.

    Converts the CCE decision (`_cce_decision`): a certificate as it is,
    two members or the single mixed CCE into a refutation with the reason
    `CCE_REFUTATION_REASONS` gives its variant, re-checked against the CCE
    polytope unless `polytopes.is_singleton` did (two pure NE).  Given a
    `GameAnalysis`, the pure NE, the polytope, its singleton test and
    decision are the context's.
    """
    analysis = polytopes.analysis_of(game)
    decision = _cce_decision(analysis, gamma_hint)
    if isinstance(decision, UniquenessCertificate):
        return decision
    variant = UNIQUE_MIXED_2X2 if decision.is_singleton else NOT_UNIQUE
    refutation = Refutation("cce", CCE_REFUTATION_REASONS[variant],
                            decision.witnesses or (decision.point,))
    if len(analysis.pure_ne()) < 2:  # `is_singleton` re-checked pure-NE witnesses
        polytopes.recheck_members(analysis.polytope("cce"), refutation.witnesses,
                                  "refutation witness")
    return refutation


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
    point: JointDistribution | None = None
    certificate: UniquenessCertificate | None = None
    mixers: tuple[int, int] | None = None
    subgame: Game | None = None
    ne: tuple[MixedAction, ...] | None = None


def is_matching_pennies_type(game: Game) -> bool:
    """True iff some per-player relabeling shows the strict cyclic pattern
    that forces a unique, fully mixed equilibrium in a 2x2 game."""
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
    decision = _cce_decision(analysis)
    if isinstance(decision, UniquenessCertificate):
        return CceClassification(UNIQUE_PURE, certificate=decision,
                                 point=JointDistribution.point_mass(decision.a_star))
    if not decision.is_singleton:
        return CceClassification(NOT_UNIQUE)
    mu = decision.point
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
    return CceClassification(UNIQUE_MIXED_2X2, point=mu, mixers=mixers,
                             subgame=subgame, ne=ne)


# -- quasi-strictness and extremality ----------------------------------------


def _require_product(game: Game, nu: JointDistribution) -> list[MixedAction]:
    if not nu.is_product(game):
        raise CertificationError("expected a product distribution over profiles")
    return [nu.marginal(game, i) for i in range(game.num_players)]


def _is_equilibrium(game: Game, nu: JointDistribution, quasi_strict: bool) -> bool:
    mixed = _require_product(game, nu)
    for i in range(game.num_players):
        payoffs = games.deviation_payoffs(game, i, mixed)
        expected = nu.expected_utility(game, i)
        support = set(mixed[i].support())
        for a, p in enumerate(payoffs):
            if p > expected or (quasi_strict and p == expected and a not in support):
                return False
    return True


def is_nash(game: Game, nu: JointDistribution) -> bool:
    """Exact best-response check for a product distribution."""
    return _is_equilibrium(game, nu, quasi_strict=False)


def is_quasi_strict(game: Game, nu: JointDistribution) -> bool:
    """NE where every action outside the support loses strictly."""
    return _is_equilibrium(game, nu, quasi_strict=True)


@dataclass(frozen=True)
class QuasiStrictCertificate:
    eta: tuple[Fraction, ...]
    sigma: tuple[MixedAction, ...]


def quasi_strictness_certificate(game: Game, mu: JointDistribution) -> QuasiStrictCertificate:
    """Factor a strict-complementary strategy of the profile-vs-deviation game.

    For a unique CCE mu, the maximal-support optimal column strategy tau
    factors as tau(i, a_i) = eta(i) * sigma_i(a_i) with every eta(i) > 0 and
    sigma equal to mu's marginals, which exhibits mu as a quasi-strict NE.
    Factorization failure means mu is not a unique CCE.
    """
    aux = zerosum.build_lemma3_auxiliary(game)
    tau = zerosum.strict_complementary_strategy(aux)
    eta = [Fraction(0)] * game.num_players
    per_player: list[dict[int, Fraction]] = [dict() for _ in range(game.num_players)]
    for col, (i, a) in enumerate(aux.col_keys):
        w = tau.prob(col)
        if w > 0:
            eta[i] += w
            per_player[i][a] = w
    if any(e == 0 for e in eta):
        raise CertificationError(
            "factorization failed: some player never appears in the "
            "strict-complementary strategy; mu cannot be a unique CCE")
    sigma = tuple(
        MixedAction(i, {a: w / eta[i] for a, w in per_player[i].items()})
        for i in range(game.num_players)
    )
    for i in range(game.num_players):
        if sigma[i].weights != mu.marginal(game, i).weights:
            raise CertificationError(
                "factorization failed: recovered strategies disagree with mu; "
                "mu cannot be a unique CCE")
    if product_distribution(game, sigma) != mu:
        raise CertificationError(
            "factorization failed: mu is not the product of the recovered strategies")
    return QuasiStrictCertificate(tuple(eta), sigma)


def combinatorics_bound(support_sizes: Sequence[int]) -> bool:
    """Support-count test for the mixing players of an extreme NE.

    Takes the support sizes of the mixing players only (each >= 2) and
    tests product <= 1 + sum; only {2,2} and {2,3} survive with two or
    more mixers, which pins the shapes an extreme quasi-strict NE can have.
    """
    if any(k < 2 for k in support_sizes):
        raise CertificationError("support sizes of mixing players are at least 2")
    product = 1
    for k in support_sizes:
        product *= k
    return product <= 1 + sum(support_sizes)


@dataclass(frozen=True)
class ExtremeNeReport:
    support_sizes: tuple[int, ...]
    predicted_extreme: bool
    measured_extreme: bool


def classify_extreme_ne(game: Game, nu: JointDistribution) -> ExtremeNeReport:
    """Compare the shape rule for extremality against the rank computation.

    The shape rule: a quasi-strict NE is extreme in the CCE polytope iff it
    is pure or exactly two players mix, each over two actions.
    """
    if not is_quasi_strict(game, nu):
        raise CertificationError("extremality classification needs a quasi-strict NE")
    mixed = _require_product(game, nu)
    sizes = tuple(len(m.support()) for m in mixed)
    mixing = [k for k in sizes if k >= 2]
    predicted = len(mixing) == 0 or (len(mixing) == 2 and all(k == 2 for k in mixing))
    spec = polytopes.build_polytope(game, "cce")
    measured = polytopes.is_extreme_point(spec, nu)
    return ExtremeNeReport(sizes, predicted, measured)


# -- hull comparison ----------------------------------------------------------


HULL_EQUAL = "equal"
HULL_PROPER_SUBSET = "proper_subset"
HULL_INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class HullComparison:
    status: str
    witness: JointDistribution | None = None


def conv_ne_vs_ircp(game: Game, ne_list: Sequence[JointDistribution]) -> HullComparison:
    """Is the convex hull of the given equilibria the whole IRCP polytope?

    Every IRCP vertex is tested for hull membership by a small feasibility
    LP; the first vertex outside the hull is returned as a witness.  Games
    with more profiles than `lp.MAX_VERTEX_VARS` are declared inconclusive
    because the vertex oracle is combinatorial.
    """
    for nu in ne_list:
        if not is_nash(game, nu):
            raise CertificationError("conv_ne_vs_ircp expects Nash equilibria")
    spec = polytopes.build_polytope(game, "ircp")
    for nu in ne_list:
        if not polytopes.membership(spec, nu).is_member:
            raise SolverInvariantError("an equilibrium fell outside the IRCP polytope")
    if game.num_profiles > MAX_VERTEX_VARS:
        return HullComparison(HULL_INCONCLUSIVE)
    vertices = enumerate_vertices(spec.system)
    ne_vectors = [nu.as_vector(game) for nu in ne_list]
    for vertex in vertices:
        rows = []
        for k in range(game.num_profiles):
            coeffs = tuple(vec[k] for vec in ne_vectors)
            rows.append(LinearConstraint(coeffs, EQUAL, vertex[k]))
        rows.append(LinearConstraint((Fraction(1),) * len(ne_list), EQUAL, Fraction(1)))
        system = ConstraintSystem(len(ne_list), tuple(rows))
        if not PolytopeSolver(system).feasible:
            return HullComparison(
                HULL_PROPER_SUBSET,
                JointDistribution.from_vector(game, vertex))
    return HullComparison(HULL_EQUAL)


# -- guaranteed-utility efficiency --------------------------------------------


def _unilateral_guarantee(game: Game, a_star: Profile) -> bool:
    game.profile_index(a_star)  # rejects a profile outside the game
    return all(games.pure_guarantee(game, i, a_star[i]) >= game.u(i, a_star)
               for i in range(game.num_players))


def is_gue(game: Game, a_star: Sequence[int]) -> bool:
    """Pareto optimal among pure profiles plus the unilateral guarantee."""
    a_star = tuple(a_star)
    if not _unilateral_guarantee(game, a_star):
        return False
    base = game.payoff_vector(a_star)
    for profile in game.profiles():
        if profile == a_star:
            continue
        other = game.payoff_vector(profile)
        if all(o >= b for o, b in zip(other, base)) and any(
                o > b for o, b in zip(other, base)):
            return False
    return True


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
        gamma = [parse_rational(g) for g in data["gamma"]]
        slack = parse_rational(data["slack"])
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
