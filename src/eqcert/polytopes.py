"""Equilibrium polytopes over the joint-distribution simplex.

Correlated equilibria (CE), coarse correlated equilibria (CCE), and
individually rational correlated profiles (IRCP) are each a finite list of
linear incentive rows over profile probabilities.  This module builds those
systems, decides membership with exact violation reports, and decides
singleton-ness with explicit witnesses.
`GameAnalysis` holds these results for one game while one call runs, so a
report and its certificates solve each polytope, P(a*) and maximin LP once,
and a verification solves no maximin LP at all.

Every incentive row is linear in one player's payoffs, so a positive scale
per player changes no polytope.  All of it runs on the integer payoffs
`Game.int_payoffs`, each player's payoffs times d_i, the lcm of their
denominators.  `membership` sums them over a distribution's support and
writes no row.  The rows are written only when an LP reads them
(`PolytopeSpec.system`), each a positive multiple of the row over
`Fraction` payoffs.  The standard form divides every row by the gcd of its
integer entries (see `lp`), so both give it the same tableau row and the
same pinning objective, and the simplex makes the same pivots and finds
the same points.  A security level behind the IRCP rows is read off the
integer payoffs where the player's payoffs have a pure saddle point, and
elsewhere from a maximin LP over the same integer payoffs
(`zerosum.maximin`).

The IRCP polytope can be one point only at delta(a*), a*_i player i's
only pure maximin action, where u(a*) is at the levels; it is then P(a*)
= {mu : E_mu delta_i >= 0} over the gains delta_i(a) = u_i(a) - u_i(a*)
(`games.gain_rows`, `improvement_system`).  Whether P(a*) is delta(a*) is
asked once per (concept, a*) by `GameAnalysis.weights`: uniform weights
where every swap of players fixes the game or its gains, else the dual of
the P(a*) test, whose simplex starts at delta(a*) in one pivot.  The IRCP
decision (`_ircp_decision`) asks it there, as the GUE flag and
certificates do, and elsewhere builds two members with no LP.

`GameAnalysis.singleton` decides the other polytopes down the inclusion
chain NE <= CE <= CCE <= IRCP.  CE is never empty (Hart and Schmeidler,
"Existence of correlated equilibria", Math. OR 1989), so when a larger
polytope is one point {x}, every smaller one is {x} as well.  CCE <= IRCP
because a CCE pays player i at least max_d E u_i(d, mu_-i), which is at
least the correlated minmax, and the correlated minmax equals the maximin
level by LP duality.  A CE decision therefore first decides CCE: the CCE
system has sum_i n_i incentive rows against sum_i n_i (n_i - 1) for CE, and
its simplex starts at the pure NE.  A CCE decision uses an IRCP decision
only when one is already kept, as in a report, which decides IRCP, CCE and
CE in that order.  A point taken from the larger polytope runs no LP.
Whichever branch decides, `GameAnalysis.singleton` re-checks the point or
witnesses by exact membership (`membership_problems`, as `verify` does)
before it keeps them, and a failed re-check raises `SolverInvariantError`;
`certify` only converts kept decisions.

With no larger singleton kept, a CCE decision at a lone strict pure NE a*
first asks `GameAnalysis.weights` about P(a*) over the "cce" gains
delta_i(a) = u_i(a) - u_i(a*_i, a_-i), whose weights `certify` reads for
the certificate: CCE = {delta(a*)} exactly when it is one point.  A rival,
b != a* where every player gains weakly over a*_i, makes delta(b) a second
member and skips the question (`GameAnalysis.cce_candidate`); no weights
leave the decision to the CCE LP.

Singleton tests start from the pure Nash equilibria, whose point masses lie
in all three polytopes.  Two of them refute singleton-ness with no LP.  One
of them starts the CCE simplex at its point mass, which satisfies every CCE
row, so phase 1 is a single pivot.  CE keeps the cold start: the point mass
makes every CE row with another recommendation tight, and on random games
a crash there moves the pivots of a whole report both ways (8x8 seed 7:
69 -> 81, seed 9: 179 -> 130; 10x10 seed 9: 269 -> 433).

From its phase-1 vertex x*, a singleton test runs at most two LPs
(`singleton_over_system`): the mass outside supp(x*), which settles a point
mass on its own, and then, for a larger support, the sum of the columns
nonbasic at the basis of x* (`lp.PolytopeSolver.pinning_objective`).  Each
LP stops at its first pivot that leaves x* (`lp.PolytopeSolver.step_off`),
whose point is the second member of a refutation; only a singleton runs
its last LP to the optimum, at x*.  Each decision thus rests on at most two
LPs instead of one per support coordinate.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from . import games, zerosum
from .games import Game, JointDistribution, MixedAction, Profile, deviation_gains
from .lp import (
    EQUAL,
    GREATER_EQUAL,
    ConstraintSystem,
    LinearConstraint,
    PolytopeSolver,
    SolverInvariantError,
)

CONCEPTS = ("ce", "cce", "ircp")
# The next larger polytope in NE <= CE <= CCE <= IRCP.
_LARGER = {"ce": "cce", "cce": "ircp"}


class PolytopeError(ValueError):
    """Bad inputs to a polytope operation."""


@dataclass(frozen=True)
class IncentiveInfo:
    """Provenance of one incentive row: who deviates, from what, to what."""

    kind: str
    player: int
    recommended: int | None
    deviation: int | None
    label: str


@dataclass(frozen=True)
class PolytopeSpec:
    """One concept's polytope: the game, the concept and, for IRCP, the security levels.

    `system`, the incentive rows (named by `incentive_info`) then the
    simplex row, is written on first read (`write_rows`); `membership`
    reads no row.
    """

    game: Game
    concept: str
    levels: tuple[Fraction, ...] | None = None

    @cached_property
    def system(self) -> ConstraintSystem:
        return write_rows(self)

    @cached_property
    def incentive_info(self) -> tuple[IncentiveInfo, ...]:
        game, concept = self.game, self.concept
        return tuple(_info(game, concept, i, rec, dev) for i, size in enumerate(game.shape)
                     for rec in (range(size) if concept == "ce" else (None,))
                     for dev in (range(size) if concept != "ircp" else (None,))
                     if rec is None or dev != rec)


@dataclass(frozen=True)
class Violation:
    """A row that mu fails, and by how much, in payoff units."""

    info: IncentiveInfo
    shortfall: Fraction


@dataclass(frozen=True)
class MembershipResult:
    is_member: bool
    violations: tuple[Violation, ...]


@dataclass(frozen=True)
class SingletonResult:
    """Either the unique member, or two distinct members as witnesses.

    `duals`, one per system row, is the dual of the LP that pinned the point
    (`singleton_over_system`), as `PolytopeSolver.duals` reads it: that of
    min -c.x for the maximized objective c, >= 0 on a `>=` row.  It is None
    for witnesses, for a point taken down the inclusion chain, whose dual
    belongs to another system's rows, and for an IRCP or CCE point decided
    at a*, whose certificate is the context's weights
    (`GameAnalysis.weights`).
    `reason` says why an IRCP decision holds its witnesses, else None.
    """

    point: JointDistribution | None
    witnesses: tuple[JointDistribution, JointDistribution] | None
    duals: tuple[Fraction, ...] | None = None
    reason: str | None = None

    @property
    def is_singleton(self) -> bool:
        return self.point is not None


def _ce_row(game: Game, player: int, recommended: int, deviation: int) -> list[int]:
    """d_i (u_i(a) - u_i(deviation, a_-i)) where a_i is `recommended`, 0 elsewhere."""
    stride, size = game.strides[player], game.shape[player]
    payoff = game.int_payoffs[player]
    shift = (deviation - recommended) * stride
    return [payoff[k] - payoff[k + shift] if (k // stride) % size == recommended
            else 0 for k in range(game.num_profiles)]


def _info(game: Game, concept: str, player: int, rec: int | None,
          dev: int | None) -> IncentiveInfo:
    acts = game.actions[player]
    label = (f"{concept}:p{player}" + (f":{acts[rec]}" if rec is not None else "")
             + (f"->{acts[dev]}" if dev is not None else ""))
    return IncentiveInfo(concept, player, rec, dev, label)


class GameAnalysis:
    """Results about one game, each computed on first use and then kept.

    It holds each player's maximin result, each concept's polytope and
    singleton decision, each P(a*) singleton test and weight search, and
    the pure-NE list.  A context lives for one call (one report, one
    verification) and is then dropped; nothing is shared across calls.
    Each result comes from the module function that computes it
    (`zerosum.maximin`, `build_polytope`, `is_singleton`,
    `singleton_over_system`, `enumerate_pure_ne`), but for four: the
    weights are `weights`'s, the IRCP decision is `_ircp_decision`'s, a
    singleton taken down the inclusion chain has no duals, and a CCE point
    may be pinned by the "cce" P(a*) weights.  `singleton` re-checks every
    decision by exact membership before it keeps it.  And a verifier may pass
    `levels`, maximin results it has checked from their certificates
    (`zerosum.check_maximin`): the context then keeps those and never
    solves a maximin LP, and asking it for a player's result that `levels`
    lacks raises `PolytopeError`.
    """

    def __init__(self, game: Game,
                 levels: Sequence[zerosum.MaximinResult] | None = None):
        self.game = game
        self._maximin: dict[int, zerosum.MaximinResult] = dict(enumerate(levels or ()))
        self._solves_maximin = levels is None
        self._polytopes: dict[str, PolytopeSpec] = {}
        self._singletons: dict[str, SingletonResult] = {}
        self._improvements: dict[ConstraintSystem, SingletonResult] = {}
        self._weights: dict[tuple[str, Profile], tuple | None] = {}
        self._pure_ne: list[tuple[Profile, bool]] | None = None

    def maximin(self, player: int) -> zerosum.MaximinResult:
        if player not in self._maximin:
            if not self._solves_maximin:
                raise PolytopeError(f"no certified maximin level for player {player}")
            self._maximin[player] = zerosum.maximin(self.game, player)
        return self._maximin[player]

    def polytope(self, concept: str) -> PolytopeSpec:
        if concept not in self._polytopes:
            self._polytopes[concept] = build_polytope(self, concept)
        return self._polytopes[concept]

    def singleton(self, concept: str) -> SingletonResult:
        """The concept's singleton decision, taken down the inclusion chain, re-checked.

        The IRCP decision is `_ircp_decision`'s.  A CE decision first decides
        CCE, the cheaper test (see the module docstring).  When the kept
        decision of the next larger concept is a singleton {x}, this one is
        {x} too, with no LP.  Otherwise a CCE decision is delta(a*) where
        `weights` pins the "cce" P(a*) at the CCE candidate a*, and
        `is_singleton` decides the rest.  Whichever branch decides, its point
        or witnesses are re-checked by exact membership in this concept's
        polytope (`membership_problems`) before the decision is kept.
        """
        if concept not in self._singletons:
            if concept == "ce":
                self.singleton("cce")
            larger = self._singletons.get(_LARGER.get(concept))
            spec = self.polytope(concept)
            if concept == "ircp":
                result = _ircp_decision(self)
            elif larger is not None and larger.is_singleton:
                result = replace(larger, duals=None)
            elif (concept == "cce" and (a_star := self.cce_candidate()) is not None
                  and self.weights(a_star, "cce") is not None):
                result = SingletonResult(JointDistribution.point_mass(a_star), None)
            else:
                result = is_singleton(spec, self.pure_ne())
            problems = membership_problems(spec, result.witnesses or (result.point,),
                                           f"{concept} decision")
            if problems:
                raise SolverInvariantError(f"membership re-check: {'; '.join(problems)}")
            self._singletons[concept] = result
        return self._singletons[concept]

    def cce_candidate(self) -> Profile | None:
        """The lone strict pure NE a*, unless a rival refutes it; runs no LP.

        A rival is b != a* where every player gains weakly over a*_i, a
        column of the "cce" gain table at a* (`games.gain_rows`) with no
        negative entry: delta(b) is a second member of the "cce" P(a*).
        Any other pure NE is a rival.  Only a candidate can be the unique
        CCE's profile.
        """
        strict = [p for p, is_strict in self.pure_ne() if is_strict]
        if len(strict) != 1:
            return None
        [a_star] = strict
        gains = zip(*games.gain_rows(self.game, a_star, "cce"))
        if sum(min(column) >= 0 for column in gains) > 1:  # a* and a rival
            return None
        return a_star

    def improvement(self, a_star: Profile, concept: str) -> SingletonResult:
        """The singleton test of the concept's P(a*) (`improvement_system`), kept per system.

        The "ircp" and "cce" systems at a* are one where each a_i* pays a
        constant, as paying does in parking, and then share one test.
        """
        system = improvement_system(self.game, a_star, concept)
        if system not in self._improvements:
            self._improvements[system] = singleton_over_system(self.game, system, "P(a*)")
        return self._improvements[system]

    def weights(self, a_star: Profile, concept: str
                ) -> tuple[tuple[Fraction, ...], Fraction] | None:
        """Positive weights, summing to 1, that pin P(a*) to delta(a*), and their slack.

        P(a*) is over the concept's gains at a* (`games.gain_rows`), where
        each a*_i must guarantee gain 0, as it always does for "cce".
        Uniform weights are tried first where every swap of players fixes
        the game ("ircp") or its "cce" gains (`games._swaps_fix`), then
        gamma_i ~ y_i d_i from the dual y of the kept P(a*) test
        (`improvement`); there are none when that test finds a second
        member.  Each dual weight is positive: with gamma_i = 0, the weighted
        gain is >= 0 where i alone leaves a*, as each other j gains at least
        0.  The slack is `games._gain_slack`'s, the certificate check's.
        """
        key = (concept, tuple(a_star))
        if key in self._weights:
            return self._weights[key]
        game, found = self.game, None
        if games._swaps_fix(game, game.int_payoffs if concept == "ircp"
                            else games.gain_rows(game, a_star, concept)):
            uniform = (Fraction(1, game.num_players),) * game.num_players
            slack = games._gain_slack(game, a_star, uniform, concept)
            found = None if slack is None else (uniform, slack)
        if found is None and (test := self.improvement(a_star, concept)).is_singleton:
            gamma = games._normalize([y * d for y, d in zip(test.duals, game.payoff_scales)])
            slack = games._gain_slack(game, a_star, gamma, concept)
            if slack is None or any(g <= 0 for g in gamma):
                raise SolverInvariantError("the P(a*) dual gave a boundary weight or a gain >= 0")
            found = (gamma, slack)
        self._weights[key] = found
        return found

    def pure_ne(self) -> list[tuple[Profile, bool]]:
        if self._pure_ne is None:
            self._pure_ne = enumerate_pure_ne(self.game)
        return self._pure_ne


def analysis_of(game: Game | GameAnalysis) -> GameAnalysis:
    """The context passed in, or a fresh one for a bare game."""
    return game if isinstance(game, GameAnalysis) else GameAnalysis(game)


def build_polytope(game: Game | GameAnalysis, concept: str) -> PolytopeSpec:
    """One concept's `PolytopeSpec`, no row written; IRCP levels from the context's maximin."""
    if concept not in CONCEPTS:
        raise PolytopeError(f"unknown concept {concept!r}; pick one of {CONCEPTS}")
    analysis = analysis_of(game)
    game = analysis.game
    levels = (tuple(analysis.maximin(i).value for i in range(game.num_players))
              if concept == "ircp" else None)
    return PolytopeSpec(game, concept, levels)


def write_rows(spec: PolytopeSpec) -> ConstraintSystem:
    """The constraint system of `spec`, in ints, which need no scaling in the tableau.

    A CE or CCE row of player i is d_i times its payoff gains; an IRCP row
    is (d_i u_i, d_i v_i) at level v_i, its right side a `Fraction`.
    """
    game = spec.game
    rows = []
    for info in spec.incentive_info:
        i, rec, dev = info.player, info.recommended, info.deviation
        if spec.concept == "ircp":
            rows.append(LinearConstraint(game.int_payoffs[i], GREATER_EQUAL,
                                         game.payoff_scales[i] * spec.levels[i]))
        else:
            gains = deviation_gains(game, i, dev) if rec is None else _ce_row(game, i, rec, dev)
            rows.append(LinearConstraint(gains, GREATER_EQUAL, Fraction(0)))
    rows.append(LinearConstraint((1,) * game.num_profiles, EQUAL, Fraction(1)))
    return ConstraintSystem(game.num_profiles, tuple(rows))


def membership(spec: PolytopeSpec, mu: JointDistribution) -> MembershipResult:
    """Exact membership; each violation reports the offending row and shortfall.

    Decided from `Game.int_payoffs` over supp(mu), with no row written: with
    mu's weights m_k over one denominator D (`games.integer_weights`), a CE
    row holds when its entry of `games.gain_table` is >= 0, a CCE row when
    that table's column sum is (`games.gain_column_sums`, which builds no
    table), and an IRCP row when sum_k m_k d_i u_i(a_k) >=
    d_i v_i D.  Violations come in row order, shortfalls in payoff units.
    """
    game, concept = spec.game, spec.concept
    support, denom = games.integer_weights(game, mu)
    violations = []
    for i, scale in enumerate(game.payoff_scales):
        unit = denom * scale  # each row sum below is over unit
        if concept == "ircp":
            level = spec.levels[i]
            lhs = sum(m * game.int_payoffs[i][k] for k, m in support)
            sums = [(lhs * level.denominator - level.numerator * unit, None, None)]
            unit *= level.denominator
        elif concept == "cce":
            sums = [(t, None, dev)
                    for dev, t in enumerate(games.gain_column_sums(game, i, support))]
        else:
            sums = [(t, rec, dev) for rec, row in enumerate(games.gain_table(game, i, support))
                    for dev, t in enumerate(row)]
        violations += (Violation(_info(game, concept, i, rec, dev), Fraction(-t, unit))
                       for t, rec, dev in sums if t < 0)
    return MembershipResult(not violations, tuple(violations))


def membership_problems(spec: PolytopeSpec, dists: Sequence[JointDistribution],
                        label: str) -> list[str]:
    """Problem lines for claimed members: each non-member, and a pair of equal ones.

    Parsed distributions are compared, so one point in two spellings is no
    pair.  The solver's re-check of its own witnesses and `verify` both use it.
    """
    problems = [f"{label}[{idx}] is not a {spec.concept.upper()} member"
                for idx, mu in enumerate(dists) if not membership(spec, mu).is_member]
    if len(dists) == 2 and dists[0] == dists[1]:
        problems.append(f"{label}[0] and {label}[1] are the same distribution")
    return problems


def singleton_over_system(game: Game, system: ConstraintSystem,
                          what: str = "polytope") -> SingletonResult:
    """Singleton decision with constructive witnesses, in at most two LPs.

    Phase 1 gives a vertex x*.  The first LP maximizes the mass outside
    supp(x*).  When x* is its optimum, every coordinate outside the support
    is identically 0, so a point mass x* is the only member: the simplex row
    fixes its lone coordinate.  For a larger support the second LP
    maximizes `PolytopeSolver.pinning_objective` at the basis of x*, whose
    maximum equals its value at x* exactly when x* is the only member.
    Each LP runs by `PolytopeSolver.step_off`, which stops at the first
    pivot that leaves x*: a refutation needs a second member, not an
    optimum, and the point there is one.  A singleton carries the dual of
    the last LP (`PolytopeSolver.duals`), which reached its optimum at x*:
    the dual of min -c.x for that LP's objective c, >= 0 on a `>=` row.
    The system's variables must be joint-distribution coordinates over
    `game`, which its rows force to sum to 1.
    """
    solver = PolytopeSolver(system)
    if not solver.feasible:
        raise SolverInvariantError(f"{what} is unexpectedly empty")
    base_point = solver.feasible_point()
    base = JointDistribution.from_vector(game, base_point)
    outside = [0 if x else 1 for x in base_point]
    other = None
    if any(outside):
        other = solver.step_off(outside)
    if other is None and len(base.support()) > 1:
        other = solver.step_off(solver.pinning_objective())
    if other is not None:
        return SingletonResult(None, (base, JointDistribution.from_vector(game, other)))
    return SingletonResult(base, None, solver.duals())


def is_singleton(spec: PolytopeSpec,
                 pure_ne: Sequence[tuple[Profile, bool]] | None = None) -> SingletonResult:
    """Singleton decision for a solution-concept polytope, started from the pure NE.

    This is one concept's own test; `GameAnalysis.singleton` calls it only
    when no larger polytope of the inclusion chain is already known to be
    one point (see the module docstring), and re-checks what it returns.
    With two or more pure NE, the point masses of the first two are the
    witnesses, and no LP runs.  With exactly one, a, the CCE test starts
    its simplex at delta(a) (`ConstraintSystem.start`); CE and IRCP start
    cold; on an IRCP spec it is only the tests' reference for
    `_ircp_decision`.  The LPs are `singleton_over_system`'s.  `pure_ne` is
    the `enumerate_pure_ne` list of the game, computed here when not given.
    """
    game = spec.game
    if pure_ne is None:
        pure_ne = enumerate_pure_ne(game)
    if len(pure_ne) >= 2:
        return SingletonResult(None, (JointDistribution.point_mass(pure_ne[0][0]),
                                      JointDistribution.point_mass(pure_ne[1][0])))
    system = spec.system
    if pure_ne and spec.concept == "cce":
        system = replace(system, start=game.profile_index(pure_ne[0][0]))
    return singleton_over_system(game, system, f"{spec.concept} polytope")


def improvement_system(game: Game, a_star: Sequence[int], concept: str) -> ConstraintSystem:
    """P(a*) = {mu : E_mu delta_i >= 0 for all i}, crash-started at delta(a*).

    Row i is the concept's gains d_i delta_i at a* (`games.gain_rows`), 0 at
    a*, so each row starts on its slack and the simplex row is the only one
    on an artificial.  delta(a*) needs only the outside-support LP, max
    sum_{a != a*} mu(a) = 0, whose dual y has sum_i y_i d_i delta_i(a) <= -1
    at each a != a*.
    """
    rows = [LinearConstraint(row, GREATER_EQUAL, Fraction(0))
            for row in games.gain_rows(game, a_star, concept)]
    rows.append(LinearConstraint((1,) * game.num_profiles, EQUAL, Fraction(1)))
    return ConstraintSystem(game.num_profiles, tuple(rows), start=game.profile_index(a_star))


def _ircp_decision(analysis: GameAnalysis) -> SingletonResult:
    """The IRCP decision at the context's security levels, before its re-check.

    A singleton IRCP is delta(a*), a*_i player i's only pure maximin action,
    with u(a*) at the levels; the IRCP polytope is then P(a*), and
    `GameAnalysis.weights` decides it, with the P(a*) test's witnesses when
    there are none.  Otherwise two members are built with no LP.
    """
    game = analysis.game
    n = game.num_players
    levels = [analysis.maximin(i).value for i in range(n)]
    options = []
    for i, level in enumerate(levels):  # a pure maximin action's least int payoff is d_i v_i
        floor = level * game.payoff_scales[i]
        options.append([a for a, row in enumerate(game.int_rows[i]) if min(row) == floor])
    for i in range(n):
        if not options[i]:
            # The maximin strategies, and i's best reply to the others' (the least, and
            # first, column sum of i's gain table), clear the levels.
            nu = [analysis.maximin(j).strategy for j in range(n)]
            product = games.product_distribution(game, nu)
            sums = games.gain_column_sums(game, i, games.integer_weights(game, product)[0])
            swapped = nu.copy()
            swapped[i] = MixedAction.point_mass(i, sums.index(min(sums)))
            return SingletonResult(None, (product, games.product_distribution(game, swapped)),
                                   reason=f"player {i} has no pure maximin action, so no "
                                   "single profile can pin the polytope")
    a_star = tuple(opts[0] for opts in options)
    star = JointDistribution.point_mass(a_star)
    for i in range(n):
        if len(options[i]) > 1:
            alt = game.insert_action(i, options[i][1], a_star[:i] + a_star[i + 1:])
            return SingletonResult(None, (star, JointDistribution.point_mass(alt)),
                                   reason=f"player {i} has several pure maximin actions; "
                                   "swapping them gives distinct point-mass members")
    for i in range(n):
        if game.u(i, a_star) > levels[i]:
            # Mix a little of a deviation into i's action; all still clear the levels.
            dev = game.insert_action(i, 0 if a_star[i] else 1, a_star[:i] + a_star[i + 1:])
            gap, dev_gap = game.u(i, a_star) - levels[i], game.u(i, a_star) - game.u(i, dev)
            eps = Fraction(1, 2) if dev_gap <= gap else gap / (2 * dev_gap)
            return SingletonResult(
                None, (star, JointDistribution({a_star: 1 - eps, dev: eps})),
                reason=f"player {i} earns strictly above the security level at the "
                "candidate profile, leaving room for a second member")
    if analysis.weights(a_star, "ircp") is not None:
        return SingletonResult(star, None)
    return replace(analysis.improvement(a_star, "ircp"), reason="a second distribution pays "
                   "every player at least the candidate profile's payoffs")


def enumerate_pure_ne(game: Game) -> list[tuple[Profile, bool]]:
    """All pure Nash equilibria with a strictness flag, in lexicographic order.

    Profiles are visited in index order.  Player i's payoffs against a_-i
    at the profile with index k sit every strides[i] entries from
    k - a_i * strides[i], so one slice of `Game.int_payoffs` holds the
    profile's payoff and every deviation's: it is an NE for i when none is
    larger, strictly when the profile's payoff occurs once.
    """
    players = [(game.int_payoffs[i], game.strides[i], game.shape[i])
               for i in range(game.num_players)]
    results = []
    for k, profile in enumerate(game.profiles()):
        strict = True
        for (payoff, stride, size), action in zip(players, profile):
            first = k - action * stride
            column = payoff[first:first + size * stride:stride]
            base = payoff[k]
            if max(column) > base:
                break
            strict = strict and column.count(base) == 1
        else:
            results.append((profile, strict))
    return results


class Degenerate2x2Error(ValueError):
    """The 2x2 game has ties that allow non-isolated equilibrium components."""


def mixed_ne_2x2(game: Game) -> list[tuple[MixedAction, MixedAction]]:
    """Complete NE list of a nondegenerate 2x2 game, exactly.

    Pure equilibria come from enumeration; the fully mixed one from the
    indifference equations over the int gains g_c = d_1 (u_1(0, c) - u_1(1, c))
    and h_r = d_2 (u_2(r, 0) - u_2(r, 1)) (`games.deviation_gains`).  Games
    in which a player is exactly indifferent against one of the opponent's
    pure actions (some g_c or h_r is 0) can carry equilibrium segments, and
    are reported as degenerate rather than silently truncated to a finite list.
    """
    if game.shape != (2, 2):
        raise PolytopeError("closed-form NE solver only covers 2x2 games")
    gains = (games.deviation_gains(game, 0, 1)[:2], games.deviation_gains(game, 1, 1)[::2])
    if [0, 0] in gains:
        raise Degenerate2x2Error("a player is indifferent against every opponent mixture")
    for i, j in ((0, 1), (1, 0)):
        for x_j in range(2):
            if gains[i][x_j] == 0:
                raise Degenerate2x2Error(
                    f"player {i} is indifferent against the pure action "
                    f"{game.actions[j][x_j]} of player {j}")
    ne: list[tuple[MixedAction, MixedAction]] = []
    for profile, _ in enumerate_pure_ne(game):
        ne.append((MixedAction.point_mass(0, profile[0]),
                   MixedAction.point_mass(1, profile[1])))
    (g0, g1), (h0, h1) = gains
    if g0 != g1 and h0 != h1:
        q = Fraction(g1, g1 - g0)  # player 2's weight on action 0
        p = Fraction(h1, h1 - h0)  # player 1's weight on action 0
        if 0 < p < 1 and 0 < q < 1:
            ne.append((MixedAction(0, {0: p, 1: 1 - p}),
                       MixedAction(1, {0: q, 1: 1 - q})))
    return ne
