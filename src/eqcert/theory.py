"""The paper's structural results, checked on concrete games; no command runs them.

These functions reproduce the theory behind the decisions, for the demos
and the tests: the enforcement form that a certificate's weights give a
game, affine and strategic transforms, exact vertex enumeration, coordinate
bounds, extreme points and the support bound that they obey, the
quasi-strictness factorization of a unique CCE by a strict-complementary
strategy of the profile-vs-deviation game, the shape rule for extreme
quasi-strict NE, and the comparison of conv(NE) with the IRCP polytope.

This module may import the solver modules; none of them, and no command,
imports it, so the CLI never loads it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from . import certify, games
from .certify import CertificationError, _is_equilibrium, _require_product, is_quasi_strict
from .games import (
    Game,
    GameFormatError,
    JointDistribution,
    MixedAction,
    Profile,
    _as_fraction_tuple,
    deviation_gains,
    product_distribution,
)
from .lp import (
    EQUAL,
    LESS_EQUAL,
    OPTIMAL,
    UNBOUNDED,
    ConstraintSystem,
    LinearConstraint,
    PolytopeSolver,
    SolverInvariantError,
)
from .polytopes import PolytopeError, PolytopeSpec, build_polytope, membership
from .zerosum import MatrixGame, matrix_value

# -- payoff transforms ---------------------------------------------------------


def affine_transform(game: Game, gamma: Sequence[Fraction], beta: Sequence[Fraction],
                     name: str | None = None) -> Game:
    """Positive per-player rescale plus constant shift: v_i = gamma_i * u_i + beta_i."""
    gamma = _as_fraction_tuple(gamma)
    beta = _as_fraction_tuple(beta)
    if len(gamma) != game.num_players or len(beta) != game.num_players:
        raise GameFormatError("need one gamma and one beta per player")
    if any(g <= 0 for g in gamma):
        raise GameFormatError("affine transform weights must be positive")
    payoffs = tuple(
        tuple(gamma[i] * x + beta[i] for x in game.payoffs[i])
        for i in range(game.num_players)
    )
    return Game(game.actions, payoffs, name or game.name)


def strategic_transform(game: Game, gamma: Sequence[Fraction],
                        beta: Sequence[Callable[[tuple[int, ...]], Fraction]],
                        name: str | None = None) -> Game:
    """v_i(a) = gamma_i * u_i(a) + beta_i(a_{-i}); best replies are unchanged.

    Each beta_i maps the opponents' joint action (player order, without i)
    to a rational offset.
    """
    gamma = _as_fraction_tuple(gamma)
    if len(gamma) != game.num_players or len(beta) != game.num_players:
        raise GameFormatError("need one gamma and one beta per player")
    if any(g <= 0 for g in gamma):
        raise GameFormatError("strategic transform weights must be positive")
    payoffs = []
    for i in range(game.num_players):
        row = [Fraction(0)] * game.num_profiles
        for profile in game.profiles():
            others = tuple(a for j, a in enumerate(profile) if j != i)
            k = game.profile_index(profile)
            row[k] = gamma[i] * game.payoffs[i][k] + Fraction(beta[i](others))
        payoffs.append(tuple(row))
    return Game(game.actions, tuple(payoffs), name or game.name)


# -- vertex enumeration ----------------------------------------------------


def _echelon_add(state: list[tuple[int, tuple[Fraction, ...], Fraction]],
                 row: Sequence[int | Fraction], rhs: Fraction) -> tuple[str, tuple]:
    """Reduce (row, rhs) against an echelon state; classify the result.

    Rows may hold ints; the elimination factor is an exact `Fraction` even
    when both of its entries are ints.
    """
    row = list(row)
    for pivot_col, prow, prhs in state:
        factor = row[pivot_col]
        if factor == 0:
            continue
        scale = Fraction(factor) / prow[pivot_col]
        for c in range(pivot_col, len(row)):
            row[c] -= scale * prow[c]
        rhs -= scale * prhs
    for c, v in enumerate(row):
        if v != 0:
            return "independent", (c, tuple(row), rhs)
    if rhs != 0:
        return "inconsistent", ()
    return "dependent", ()


def _solve_echelon(state: list[tuple[int, tuple[Fraction, ...], Fraction]],
                   num_vars: int) -> tuple[Fraction, ...]:
    x = [Fraction(0)] * num_vars
    for pivot_col, row, rhs in sorted(state, key=lambda item: -item[0]):
        total = rhs
        for c in range(pivot_col + 1, num_vars):
            total -= row[c] * x[c]
        x[pivot_col] = total / row[pivot_col]
    return tuple(x)



class VertexEnumerationError(ValueError):
    """Vertex enumeration was asked for an unbounded or oversized region."""


MAX_VERTEX_VARS = 12  # the most variables `enumerate_vertices` takes


def enumerate_vertices(system: ConstraintSystem) -> list[tuple[Fraction, ...]]:
    """All vertices of a bounded polyhedron, exactly.

    Enumerates full-rank subsets of tight constraints, so the cost is
    combinatorial in the constraint count; refuse anything above
    `MAX_VERTEX_VARS` variables.  Raises on unbounded regions; [] if infeasible.
    """
    n = system.num_vars
    if n > MAX_VERTEX_VARS:
        raise VertexEnumerationError(f"{n} variables exceeds the cap of {MAX_VERTEX_VARS}")

    solver = PolytopeSolver(system)
    if not solver.feasible:
        return []
    for j in range(n):
        unit = [Fraction(0)] * n
        unit[j] = Fraction(1)
        for maximize in (True, False):
            if solver.optimize(unit, maximize).status == UNBOUNDED:
                raise VertexEnumerationError("region is unbounded; vertices are not exhaustive")

    eqs: list[tuple[tuple[Fraction, ...], Fraction]] = []
    ineqs: list[tuple[tuple[Fraction, ...], Fraction]] = []  # normalized to <=
    for row in system.constraints:
        if row.relation == EQUAL:
            eqs.append((row.coeffs, row.rhs))
        elif row.relation == LESS_EQUAL:
            ineqs.append((row.coeffs, row.rhs))
        else:
            ineqs.append((tuple(-c for c in row.coeffs), -row.rhs))
    for j in range(n):
        unit = [Fraction(0)] * n
        unit[j] = Fraction(-1)
        ineqs.append((tuple(unit), Fraction(0)))  # x_j >= 0

    state: list[tuple[int, tuple[Fraction, ...], Fraction]] = []
    for coeffs, rhs in eqs:
        kind, payload = _echelon_add(state, coeffs, rhs)
        if kind == "independent":
            state.append(payload)
        elif kind == "inconsistent":
            return []

    found: set[tuple[Fraction, ...]] = set()

    def dfs(start: int, state: list, depth_needed: int) -> None:
        if depth_needed == 0:
            x = _solve_echelon(state, n)
            if system.contains(x):
                found.add(x)
            return
        for idx in range(start, len(ineqs) - depth_needed + 1):
            coeffs, rhs = ineqs[idx]
            kind, payload = _echelon_add(state, coeffs, rhs)
            if kind == "independent":
                state.append(payload)
                dfs(idx + 1, state, depth_needed - 1)
                state.pop()

    dfs(0, state, n - len(state))
    return sorted(found)


# -- polytope geometry ---------------------------------------------------------


@dataclass(frozen=True)
class WinklerReport:
    support_size: int
    active_incentive_rank: int
    bound_holds: bool


def coordinate_bounds(spec: PolytopeSpec, profile: Sequence[int]) -> tuple[Fraction, Fraction]:
    """Exact min and max probability the polytope allows on one profile."""
    solver = PolytopeSolver(spec.system)
    if not solver.feasible:
        raise SolverInvariantError(f"{spec.concept} polytope is unexpectedly empty")
    k = spec.game.profile_index(profile)
    unit = [Fraction(0)] * spec.game.num_profiles
    unit[k] = Fraction(1)
    low = solver.optimize(unit, maximize=False)
    high = solver.optimize(unit, maximize=True)
    if low.status != OPTIMAL or high.status != OPTIMAL:
        raise SolverInvariantError("coordinate bound LP failed on a bounded polytope")
    return low.value, high.value


def _active_rows(spec: PolytopeSpec, vector: Sequence[Fraction]) -> list[tuple[Fraction, ...]]:
    rows: list[tuple[Fraction, ...]] = []
    for row in spec.system.constraints:
        if row.relation == EQUAL or row.evaluate(vector) == row.rhs:
            rows.append(row.coeffs)
    num = len(vector)
    for k, x in enumerate(vector):
        if x == 0:
            unit = [Fraction(0)] * num
            unit[k] = Fraction(1)
            rows.append(tuple(unit))
    return rows


def _rank(rows: list[tuple[Fraction, ...]]) -> int:
    state: list = []
    for row in rows:
        kind, payload = _echelon_add(state, row, Fraction(0))
        if kind == "independent":
            state.append(payload)
    return len(state)


def is_extreme_point(spec: PolytopeSpec, mu: JointDistribution) -> bool:
    """True iff the rows active at mu have full column rank."""
    if not membership(spec, mu).is_member:
        raise PolytopeError("mu is not a member of the polytope")
    vector = mu.as_vector(spec.game)
    return _rank(_active_rows(spec, vector)) == spec.game.num_profiles


def winkler_support_bound(spec: PolytopeSpec, mu: JointDistribution) -> WinklerReport:
    """Support bound for extreme points: |supp(mu)| <= k + 1.

    k counts linearly independent incentive rows active at mu; the simplex
    itself contributes the +1.  Requires mu to be an extreme point.
    """
    if not is_extreme_point(spec, mu):
        raise PolytopeError("support bound applies to extreme points only")
    vector = mu.as_vector(spec.game)
    k = _rank([row.coeffs for row in spec.system.constraints[:-1]  # the incentive rows
               if row.evaluate(vector) == row.rhs])
    support_size = len(mu.support())
    return WinklerReport(support_size, k, support_size <= k + 1)


# -- the profile-vs-deviation game ---------------------------------------------


def strict_complementary_strategy(mg: MatrixGame) -> MixedAction:
    """Optimal column strategy with maximal support.

    The support equals the set of columns that are best responses to every
    optimal row strategy: each column's weight is maximized over the optimal
    face, and the optimizers are averaged uniformly.
    """
    value, _, _ = matrix_value(mg)
    num_cols = len(mg.col_labels)
    rows = []
    for r in range(len(mg.row_labels)):
        coeffs = tuple(mg.payoff[r][c] for c in range(num_cols))
        rows.append(LinearConstraint(coeffs, LESS_EQUAL, value))
    rows.append(LinearConstraint((Fraction(1),) * num_cols, EQUAL, Fraction(1)))
    system = ConstraintSystem(num_cols, tuple(rows))
    solver = PolytopeSolver(system)
    if not solver.feasible:
        raise SolverInvariantError("optimal face of a matrix game cannot be empty")
    total = [Fraction(0)] * num_cols
    for c in range(num_cols):
        unit = [Fraction(0)] * num_cols
        unit[c] = Fraction(1)
        outcome = solver.optimize(unit, maximize=True)
        if outcome.status != OPTIMAL:
            raise SolverInvariantError("optimal face is bounded; optimize must succeed")
        for j in range(num_cols):
            total[j] += outcome.point[j]
    weights = {c: w / num_cols for c, w in enumerate(total) if w != 0}
    return MixedAction(1, weights)


def build_lemma3_auxiliary(game: Game) -> MatrixGame:
    """Profile-vs-deviation game whose optimal rows are exactly the CCEs.

    Rows are profiles b, columns are pairs (i, a_i); entry is
    u_i(b) - u_i(a_i, b_{-i}), `games.deviation_gains` over d_i.  A
    distribution over rows guarantees at least 0 iff it satisfies every
    coarse deviation constraint, so the game value is 0 whenever a CCE
    exists.
    """
    profiles = list(game.profiles())
    cols = [(i, a) for i in range(game.num_players) for a in range(game.shape[i])]
    columns = [[Fraction(g, game.payoff_scales[i]) for g in deviation_gains(game, i, a)]
               for i, a in cols]
    return MatrixGame(
        row_labels=tuple(game.profile_label(p) for p in profiles),
        col_labels=tuple(f"p{i}->{game.actions[i][a]}" for i, a in cols),
        payoff=tuple(zip(*columns)),
        row_keys=tuple(profiles),
        col_keys=tuple(cols),
    )


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
        negative = games._gain_slack(game, profile, (1,) * game.num_players, "ircp") is not None
        check = EnforcementCheck(profile, True, certify._unilateral_guarantee(game, profile),
                                 negative)
        if check.holds:
            return check
        first_zero = first_zero or check
    return first_zero or EnforcementCheck(None, False, False, False)


# -- quasi-strictness and extremality ----------------------------------------


def is_nash(game: Game, nu: JointDistribution) -> bool:
    """Exact best-response check for a product distribution."""
    return _is_equilibrium(game, nu, quasi_strict=False)


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
    aux = build_lemma3_auxiliary(game)
    tau = strict_complementary_strategy(aux)
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
    spec = build_polytope(game, "cce")
    measured = is_extreme_point(spec, nu)
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
    with more profiles than `MAX_VERTEX_VARS` are declared inconclusive
    because the vertex oracle is combinatorial.
    """
    for nu in ne_list:
        if not is_nash(game, nu):
            raise CertificationError("conv_ne_vs_ircp expects Nash equilibria")
    spec = build_polytope(game, "ircp")
    for nu in ne_list:
        if not membership(spec, nu).is_member:
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
