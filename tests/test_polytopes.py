"""Solution-concept polytopes: builders, membership, singletons, extremality."""

import dataclasses
import itertools
import random
from fractions import Fraction

import pytest

from eqcert import generators, polytopes, zerosum
from eqcert.contests import ContestSpec, LinearCost, TullockRatio, discretize
from eqcert.games import (
    Game,
    JointDistribution,
    MixedAction,
    deviation_gains,
    product_distribution,
)
from eqcert.lp import (
    EQUAL,
    GREATER_EQUAL,
    ConstraintSystem,
    LinearConstraint,
    PolytopeSolver,
)
from eqcert.polytopes import (
    Degenerate2x2Error,
    GameAnalysis,
    PolytopeError,
    _ce_row,
    build_polytope,
    enumerate_pure_ne,
    improvement_system,
    is_singleton,
    membership,
    mixed_ne_2x2,
)
from eqcert.theory import (
    _echelon_add,
    affine_transform,
    coordinate_bounds,
    enumerate_vertices,
    is_extreme_point,
    strategic_transform,
    winkler_support_bound,
)

from conftest import F


def _uniform_product(game):
    mixes = [MixedAction(i, {a: Fraction(1, game.shape[i])
                             for a in range(game.shape[i])})
             for i in range(game.num_players)]
    return product_distribution(game, mixes)


def _rps_diagonal():
    return JointDistribution({(0, 0): F(1, 3), (1, 1): F(1, 3), (2, 2): F(1, 3)})


def test_incentive_row_counts():
    rps = generators.rock_paper_scissors()
    assert len(build_polytope(rps, "cce").incentive_info) == 6
    assert len(build_polytope(rps, "ce").incentive_info) == 12
    ircp = build_polytope(rps, "ircp")
    assert len(ircp.incentive_info) == 2
    assert [row.rhs for row in ircp.system.constraints[:2]] == [F(0), F(0)]
    with pytest.raises(PolytopeError):
        build_polytope(rps, "nash")


def test_rps_diagonal_uniform_is_cce_not_ce():
    rps = generators.rock_paper_scissors()
    mu = _rps_diagonal()
    assert membership(build_polytope(rps, "cce"), mu).is_member
    result = membership(build_polytope(rps, "ce"), mu)
    assert not result.is_member
    # conditioned on any recommendation, deviating one step up gains 1
    assert all(v.shortfall > 0 for v in result.violations)


def test_rps_antidiagonal_pair_is_ircp_not_cce():
    rps = generators.rock_paper_scissors()
    mu = JointDistribution({(0, 1): F(1, 2), (1, 0): F(1, 2)})
    assert membership(build_polytope(rps, "ircp"), mu).is_member
    assert not membership(build_polytope(rps, "cce"), mu).is_member


def test_nash_equilibria_belong_to_every_polytope():
    for g in (generators.matching_pennies(), generators.prisoners_dilemma(),
              generators.rock_paper_scissors()):
        if g.shape == (2, 2):
            profiles = [product_distribution(g, pair)
                        for pair in mixed_ne_2x2(g)]
        else:
            profiles = [_uniform_product(g)]
        for mu in profiles:
            for concept in ("ce", "cce", "ircp"):
                assert membership(build_polytope(g, concept), mu).is_member


def test_membership_reports_pd_cooperation_violations():
    pd = generators.prisoners_dilemma()
    spec = build_polytope(pd, "cce")
    result = membership(spec, JointDistribution.point_mass((0, 0)))
    assert not result.is_member
    assert len(result.violations) == 2
    for v in result.violations:
        assert v.shortfall == 1  # defecting against c pays 3 instead of 2
        assert v.info.deviation == 1
    assert membership(build_polytope(pd, "ircp"),
                      JointDistribution.point_mass((0, 0))).is_member


def test_membership_uniform_matching_pennies():
    mp = generators.matching_pennies()
    assert membership(build_polytope(mp, "cce"), _uniform_product(mp)).is_member


def test_coordinate_bounds_matching_pennies():
    spec = build_polytope(generators.matching_pennies(), "cce")
    for p in spec.game.profiles():
        assert coordinate_bounds(spec, p) == (F(1, 4), F(1, 4))


def test_coordinate_bounds_pd_collapses_to_defection():
    spec = build_polytope(generators.prisoners_dilemma(), "cce")
    assert coordinate_bounds(spec, (1, 1)) == (F(1), F(1))
    assert coordinate_bounds(spec, (0, 0)) == (F(0), F(0))


def test_coordinate_bounds_table2_off_diagonal_zero():
    spec = build_polytope(generators.table2(), "ircp")
    assert coordinate_bounds(spec, (0, 1)) == (F(0), F(0))


def test_singleton_matching_pennies_cce():
    res = is_singleton(build_polytope(generators.matching_pennies(), "cce"))
    assert res.is_singleton
    assert res.point.weights == {p: F(1, 4) for p in
                                 generators.matching_pennies().profiles()}


def test_singleton_rps_cce_refuted_with_two_members():
    spec = build_polytope(generators.rock_paper_scissors(), "cce")
    res = is_singleton(spec)
    assert not res.is_singleton
    a, b = res.witnesses
    assert a != b
    assert membership(spec, a).is_member and membership(spec, b).is_member


def test_singleton_parking_ircp():
    g = generators.parking(3, 1, F(1, 4), F(3, 5))
    res = is_singleton(build_polytope(g, "ircp"))
    assert res.is_singleton
    assert res.point.weights == {(0, 0): F(1)}


SINGLETON_LP_GAMES = {
    "tullock8": lambda: discretize(
        ContestSpec(TullockRatio(1), (1, 1), (LinearCost(1), LinearCost(1))),
        [Fraction(k, 8) for k in range(1, 9)]),
    "parking": lambda: generators.parking(3, 1, Fraction(1, 4), Fraction(3, 5)),
    "mp_type0": lambda: generators.random_mp_type(0),
    "rps": generators.rock_paper_scissors,
}


# Each polytope is one point.  The first four are point masses, settled by
# the outside-support LP alone; the others have supports of 4, 4 and 9
# profiles (the RPS CE is uniform), so no outside LP runs and one
# nonbasic-sum LP pins the point.  Each LP is one `step_off` call that
# reaches its optimum at the point.
@pytest.mark.parametrize("name, concept, support", [
    ("tullock8", "cce", 1),
    ("parking", "ce", 1),
    ("parking", "cce", 1),
    ("parking", "ircp", 1),
    ("mp_type0", "ce", 4),
    ("mp_type0", "cce", 4),
    ("rps", "ce", 9),
])
def test_singleton_test_runs_one_lp(monkeypatch, name, concept, support):
    analysis = GameAnalysis(SINGLETON_LP_GAMES[name]())
    analysis.polytope(concept)  # the IRCP rows' maximin LPs run here
    calls = []
    step_off = PolytopeSolver.step_off

    def counting(self, objective):
        calls.append(objective)
        return step_off(self, objective)

    monkeypatch.setattr(PolytopeSolver, "step_off", counting)
    # The concept's own test, not the chained decision, which may run the
    # CCE test first or none at all.
    result = is_singleton(analysis.polytope(concept), analysis.pure_ne())
    assert result.is_singleton and len(result.point.support()) == support
    assert len(calls) == 1
    # The point carries that LP's dual y, >= 0 on the `>=` rows: the dual of
    # min -c.x, so sum_r y_r a_r <= -c and sum_r y_r b_r = -max c.x.
    rows, (objective,) = analysis.polytope(concept).system.constraints, calls
    y = result.duals
    assert len(y) == len(rows)
    assert all(y_r >= 0 for y_r, row in zip(y, rows) if row.relation == ">=")
    assert all(sum(y_r * row.coeffs[j] for y_r, row in zip(y, rows)) <= -c
               for j, c in enumerate(objective))
    value = sum(c * x for c, x in zip(objective, result.point.as_vector(analysis.game)))
    assert sum(y_r * row.rhs for y_r, row in zip(y, rows)) == -value


def test_a_singleton_taken_down_the_chain_carries_no_duals(monkeypatch):
    # Parking's CCE is one point, decided at its strict NE (pay, pay) by the
    # weights that pin the P(a*) of its CCE gains: uniform ones, or with
    # one player's payoffs doubled, the dual of that P(a*) test.  The point
    # carries no LP duals, as its certificate is the context's weights, and
    # it settles CE with no LP.
    base = SINGLETON_LP_GAMES["parking"]()
    doubled = Game(base.actions, (base.payoffs[0], tuple(2 * x for x in base.payoffs[1])))
    tested = []
    real = polytopes.singleton_over_system
    monkeypatch.setattr(polytopes, "singleton_over_system",
                        lambda g, system, what="polytope":
                        tested.append(system) or real(g, system, what))
    for game, tests in ((base, []), (doubled, [(0, 0)])):
        tested.clear()
        analysis = GameAnalysis(game)
        cce = analysis.singleton("cce")
        assert cce.point == JointDistribution.point_mass((0, 0)) and cce.duals is None
        assert analysis.weights((0, 0), "cce") is not None
        assert tested == [improvement_system(game, a, "cce") for a in tests]
        ce = analysis.singleton("ce")
        assert ce.point == cce.point and ce.duals is None


def test_extreme_points():
    pd = generators.prisoners_dilemma()
    assert is_extreme_point(build_polytope(pd, "cce"),
                            JointDistribution.point_mass((1, 1)))
    mp = generators.matching_pennies()
    assert is_extreme_point(build_polytope(mp, "cce"), _uniform_product(mp))
    rps = generators.rock_paper_scissors()
    assert not is_extreme_point(build_polytope(rps, "ircp"),
                                _uniform_product(rps))
    with pytest.raises(PolytopeError):
        is_extreme_point(build_polytope(pd, "cce"),
                         JointDistribution.point_mass((0, 0)))


def test_rps_uniform_decomposes_inside_ircp():
    # direct witness for non-extremality: nu +- eps*(delta_rr - delta_pp)
    rps = generators.rock_paper_scissors()
    spec = build_polytope(rps, "ircp")
    nu = _uniform_product(rps).weights
    eps = F(1, 18)
    up = dict(nu)
    up[(0, 0)] += eps
    up[(1, 1)] -= eps
    down = dict(nu)
    down[(0, 0)] -= eps
    down[(1, 1)] += eps
    for w in (up, down):
        assert membership(spec, JointDistribution(w)).is_member


def test_winkler_bound_point_mass():
    pd = generators.prisoners_dilemma()
    report = winkler_support_bound(build_polytope(pd, "cce"),
                                   JointDistribution.point_mass((1, 1)))
    assert report.support_size == 1
    assert report.bound_holds


def test_winkler_bound_matching_pennies_ne():
    mp = generators.matching_pennies()
    report = winkler_support_bound(build_polytope(mp, "cce"),
                                   _uniform_product(mp))
    assert report.support_size == 4
    assert report.active_incentive_rank >= 3
    assert report.bound_holds


def test_winkler_bound_rejects_non_extreme():
    rps = generators.rock_paper_scissors()
    with pytest.raises(PolytopeError):
        winkler_support_bound(build_polytope(rps, "ircp"),
                              _uniform_product(rps))


def test_winkler_bound_on_every_rps_cce_vertex():
    rps = generators.rock_paper_scissors()
    spec = build_polytope(rps, "cce")
    for vert in enumerate_vertices(spec.system):
        mu = JointDistribution.from_vector(rps, vert)
        assert winkler_support_bound(spec, mu).bound_holds


def _fraction_spec(spec):
    """The same polytope with every incentive row back in payoff units, over Fractions.

    Every incentive row of player i is d_i times its payoff row, so its unit
    is 1 / d_i.  The copy's `system`, a cached property, is set before
    anything reads it.
    """
    game = spec.game
    rows = []
    for row, info in zip(spec.system.constraints, spec.incentive_info):
        unit = Fraction(1, game.payoff_scales[info.player])
        rows.append(LinearConstraint(tuple(unit * c for c in row.coeffs), row.relation,
                                     unit * row.rhs))
    simplex = spec.system.constraints[-1]
    rows.append(LinearConstraint(tuple(map(Fraction, simplex.coeffs)), EQUAL, simplex.rhs))
    reference = dataclasses.replace(spec)
    vars(reference)["system"] = ConstraintSystem(spec.system.num_vars, tuple(rows))
    return reference


def _no_float(value):
    if isinstance(value, (tuple, list)):
        return all(_no_float(v) for v in value)
    return not isinstance(value, float)


def test_echelon_add_is_exact_on_int_rows():
    state = []
    for row in ((2, 3, 1), (3, 1, 4)):
        kind, payload = _echelon_add(state, row, Fraction(0))
        assert kind == "independent"
        state.append(payload)
    _, reduced, _ = state[1]
    assert reduced == (0, Fraction(-7, 2), Fraction(5, 2))
    assert _no_float(reduced)
    assert _echelon_add(state, (5, 4, 5), Fraction(0))[0] == "dependent"


@pytest.mark.parametrize("concept", ("ce", "cce", "ircp"))
def test_extreme_point_checks_are_exact_on_integer_rows(concept):
    # Parking's polytopes are the point delta(0, 0); RPS's CE is the uniform
    # product.  The other RPS vertices come from enumeration, which over the
    # 12 CE rows takes minutes and is left out.
    parking = generators.parking(3, 1, F(1, 4), F(3, 5))
    rps = generators.rock_paper_scissors()
    cases = [(parking, [JointDistribution.point_mass((0, 0))]),
             (rps, [_uniform_product(rps)] if concept == "ce" else [])]
    for game, members in cases:
        spec = build_polytope(game, concept)
        reference = _fraction_spec(spec)
        if not members:
            vertices = enumerate_vertices(spec.system)
            assert vertices == enumerate_vertices(reference.system)
            assert all(type(x) is Fraction for vertex in vertices for x in vertex)
            members = [JointDistribution.from_vector(game, v) for v in vertices[:5]]
            members.append(members[0].mix(F(1, 2), members[-1]))
        for mu in members:
            extreme = is_extreme_point(spec, mu)
            assert extreme is is_extreme_point(reference, mu)
            if extreme:
                report = winkler_support_bound(spec, mu)
                assert report == winkler_support_bound(reference, mu)
                assert _no_float(dataclasses.astuple(report))
        assert any(is_extreme_point(spec, mu) for mu in members)


def test_enumerate_pure_ne():
    assert enumerate_pure_ne(generators.prisoners_dilemma()) == [((1, 1), True)]
    assert enumerate_pure_ne(generators.matching_pennies()) == []
    # (a1,a2) is strict (each deviation drops 1 to 0); (b1,b2) ties both ways
    assert enumerate_pure_ne(generators.table2()) == [
        ((0, 0), True), ((1, 1), False)]


def test_mixed_ne_2x2_matching_pennies():
    (pair,) = mixed_ne_2x2(generators.matching_pennies())
    assert pair[0].weights == {0: F(1, 2), 1: F(1, 2)}
    assert pair[1].weights == {0: F(1, 2), 1: F(1, 2)}


def test_mixed_ne_2x2_pd_and_coordination(coordination):
    (pair,) = mixed_ne_2x2(generators.prisoners_dilemma())
    assert pair[0].is_pure and pair[0].support() == (1,)
    assert pair[1].is_pure and pair[1].support() == (1,)
    ne = mixed_ne_2x2(coordination)
    assert len(ne) == 3
    mixed = [p for p in ne if not p[0].is_pure]
    assert len(mixed) == 1


def test_mixed_ne_2x2_mp_type_family():
    for seed in range(6):
        g = generators.random_mp_type(seed=seed)
        ne = mixed_ne_2x2(g)
        assert len(ne) == 1
        p1, p2 = ne[0]
        assert not p1.is_pure and not p2.is_pure
        # indifference: both actions of each player pay the same
        for i, mix in ((0, p2), (1, p1)):
            payoffs = []
            for a in range(2):
                total = sum(
                    w * g.u(i, g.insert_action(i, a, (b,)))
                    for b, w in mix.weights.items())
                payoffs.append(total)
            assert payoffs[0] == payoffs[1]


def test_mixed_ne_2x2_guards(zero_game):
    with pytest.raises(Degenerate2x2Error):
        mixed_ne_2x2(zero_game)
    with pytest.raises(PolytopeError):
        mixed_ne_2x2(generators.rock_paper_scissors())


def _random_distribution(game, rng):
    raw = [rng.randint(0, 4) for _ in range(game.num_profiles)]
    if sum(raw) == 0:
        raw[0] = 1
    total = sum(raw)
    weights = {p: Fraction(x, total)
               for p, x in zip(game.profiles(), raw) if x}
    return JointDistribution(weights)


def test_inclusion_chain_on_random_games():
    rng = random.Random(11)
    shapes = [(2, 2), (2, 3), (2, 2, 2), (2, 2), (2, 3), (2, 2, 2), (3, 3)]
    for trial, shape in enumerate(shapes):
        g = generators.random_game(shape, seed=trial)
        specs = {c: build_polytope(g, c) for c in ("ce", "cce", "ircp")}
        if shape != (3, 3):
            # CE vertex enumeration on 3x3 is combinatorially heavy; the
            # random-point chain below still covers that shape.
            for v in enumerate_vertices(specs["ce"].system):
                mu = JointDistribution.from_vector(g, v)
                assert membership(specs["cce"], mu).is_member
        for v in enumerate_vertices(specs["cce"].system):
            mu = JointDistribution.from_vector(g, v)
            assert membership(specs["ircp"], mu).is_member
        # random points obey the chain as well
        for _ in range(5):
            mu = _random_distribution(g, rng)
            if membership(specs["ce"], mu).is_member:
                assert membership(specs["cce"], mu).is_member
            if membership(specs["cce"], mu).is_member:
                assert membership(specs["ircp"], mu).is_member


def test_product_cce_members_are_nash():
    grid = [F(0), F(1, 4), F(1, 2), F(3, 4), F(1)]
    for seed in range(6):
        g = generators.random_game((2, 2), seed=seed + 100)
        spec = build_polytope(g, "cce")
        for p, q in itertools.product(grid, repeat=2):
            mixes = (MixedAction(0, {0: p, 1: 1 - p}),
                     MixedAction(1, {0: q, 1: 1 - q}))
            mu = product_distribution(g, mixes)
            if not membership(spec, mu).is_member:
                continue
            # best-response check: no pure deviation beats the profile
            for i, mix in enumerate(mixes):
                expected = sum(w * g.u(i, prof) for prof, w in mu.weights.items())
                for a in range(2):
                    other = mixes[1 - i]
                    dev = sum(w * g.u(i, g.insert_action(i, a, (b,)))
                              for b, w in other.weights.items())
                    assert dev <= expected


def test_two_action_games_ce_equals_cce():
    for seed in range(4):
        for shape in ((2, 2), (2, 2, 2)):
            g = generators.random_game(shape, seed=seed + 40)
            ce = build_polytope(g, "ce")
            cce = build_polytope(g, "cce")
            for v in enumerate_vertices(ce.system):
                assert membership(cce, JointDistribution.from_vector(g, v)).is_member
            for v in enumerate_vertices(cce.system):
                assert membership(ce, JointDistribution.from_vector(g, v)).is_member


def test_singleton_agrees_with_vertex_oracle():
    cases = [generators.matching_pennies(), generators.prisoners_dilemma(),
             generators.table2()]
    cases += [generators.random_game((2, 2), seed=s) for s in range(6)]
    cases += [generators.random_game((2, 2, 2), seed=s) for s in range(2)]
    for g in cases:
        for concept in ("ce", "cce", "ircp"):
            spec = build_polytope(g, concept)
            verts = enumerate_vertices(spec.system)
            assert is_singleton(spec).is_singleton == (len(verts) == 1)


def test_cce_membership_invariant_under_strategic_transform():
    rng = random.Random(5)
    for seed in range(5):
        g = generators.random_game((2, 2), seed=seed + 60)
        offsets = [{opp: Fraction(rng.randint(-3, 3))
                    for opp in g.opponent_profiles(i)} for i in range(2)]
        h = strategic_transform(
            g, (Fraction(2), Fraction(3)),
            tuple((lambda opp, i=i: offsets[i][opp]) for i in range(2)))
        for concept in ("ce", "cce"):
            spec_g = build_polytope(g, concept)
            spec_h = build_polytope(h, concept)
            for _ in range(6):
                mu = _random_distribution(g, rng)
                assert (membership(spec_g, mu).is_member
                        == membership(spec_h, mu).is_member)


def test_ircp_membership_invariant_under_affine_transform():
    rng = random.Random(6)
    for seed in range(5):
        g = generators.random_game((2, 2), seed=seed + 70)
        h = affine_transform(g, (Fraction(3), Fraction(1, 2)),
                             (Fraction(-2), Fraction(5)))
        spec_g = build_polytope(g, "ircp")
        spec_h = build_polytope(h, "ircp")
        for _ in range(8):
            mu = _random_distribution(g, rng)
            assert (membership(spec_g, mu).is_member
                    == membership(spec_h, mu).is_member)


def test_cce_equals_ircp_under_all_strategic_transforms():
    # a non-CCE point is expelled from IRCP by zeroing the gainful deviation
    rng = random.Random(9)
    for seed in range(6):
        g = generators.random_game((2, 2), seed=seed + 80)
        cce = build_polytope(g, "cce")
        for _ in range(6):
            mu = _random_distribution(g, rng)
            result = membership(cce, mu)
            if result.is_member:
                continue
            worst = max(result.violations, key=lambda v: v.shortfall)
            i, dev = worst.info.player, worst.info.deviation
            beta = [lambda opp: Fraction(0), lambda opp: Fraction(0)]
            beta[i] = lambda opp, i=i, dev=dev: -g.u(
                i, g.insert_action(i, dev, opp))
            h = strategic_transform(g, (Fraction(1), Fraction(1)), tuple(beta))
            assert not membership(build_polytope(h, "ircp"), mu).is_member


def _float_coordinate_ranges(system):
    """Per-coordinate (min, max) over the system in floating point, via scipy."""
    from scipy.optimize import linprog
    a_ub, b_ub, a_eq, b_eq = [], [], [], []
    for row in system.constraints:
        coeffs = [float(c) for c in row.coeffs]
        if row.relation == EQUAL:
            a_eq.append(coeffs)
            b_eq.append(float(row.rhs))
        elif row.relation == GREATER_EQUAL:
            a_ub.append([-c for c in coeffs])
            b_ub.append(-float(row.rhs))
        else:
            a_ub.append(coeffs)
            b_ub.append(float(row.rhs))
    ranges = []
    for k in range(system.num_vars):
        unit = [0.0] * system.num_vars
        unit[k] = 1.0
        bounds = []
        for sign in (1.0, -1.0):
            res = linprog([sign * c for c in unit], A_ub=a_ub, b_ub=b_ub,
                          A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
            assert res.status == 0
            bounds.append(sign * res.fun)
        ranges.append(tuple(bounds))
    return ranges


def test_singleton_decisions_match_scipy_above_vertex_cap():
    # 16 to 27 profiles: beyond enumerate_vertices' 12-variable cap, so the
    # exact decision is checked against a floating-point LP instead.  Only
    # clear float answers are compared: a coordinate range wider than 1e-7
    # (not a singleton) or every range narrower than 1e-9 (a singleton).
    pytest.importorskip("scipy")
    games = ([generators.random_game((4, 4), seed) for seed in range(1, 6)]
             + [generators.random_game((5, 5), seed) for seed in range(1, 4)]
             + [generators.random_game((3, 3, 3), seed) for seed in range(1, 4)])
    compared = {True: 0, False: 0}
    for game in games:
        for concept in ("ce", "cce"):
            spec = build_polytope(game, concept)
            exact = is_singleton(spec)
            ranges = _float_coordinate_ranges(spec.system)
            spread = max(high - low for low, high in ranges)
            if spread > 1e-7:
                assert not exact.is_singleton, (game.name, concept)
            elif spread < 1e-9:
                assert exact.is_singleton, (game.name, concept)
                vector = exact.point.as_vector(game)
                assert all(abs(float(x) - low) < 1e-7
                           for x, (low, _) in zip(vector, ranges))
            else:
                continue
            compared[exact.is_singleton] += 1
    assert compared[True] >= 1 and compared[False] >= 20


# -- incentive rows from index strides ------------------------------------------

STRIDE_SHAPES = ((2, 2), (3, 4), (4, 3, 2), (2, 3, 2, 2))


def _reference_cce_row(game, player, deviation):
    """The row built from profiles, one `profile_index` per cell."""
    coeffs = [Fraction(0)] * game.num_profiles
    for profile in game.profiles():
        others = tuple(a for j, a in enumerate(profile) if j != player)
        gain = game.u(player, profile) - game.u(
            player, game.insert_action(player, deviation, others))
        coeffs[game.profile_index(profile)] = gain
    return tuple(coeffs)


def _reference_ce_row(game, player, recommended, deviation):
    coeffs = [Fraction(0)] * game.num_profiles
    for others in game.opponent_profiles(player):
        profile = game.insert_action(player, recommended, others)
        gain = game.u(player, profile) - game.u(
            player, game.insert_action(player, deviation, others))
        coeffs[game.profile_index(profile)] = gain
    return tuple(coeffs)


def _positive_multiple(row, reference):
    """True iff row is an int vector equal to c * reference for a rational c > 0."""
    if any(type(v) is not int for v in row) or len(row) != len(reference):
        return False
    pivot = next((k for k, r in enumerate(reference) if r), None)
    if pivot is None:
        return not any(row)
    c = Fraction(row[pivot]) / reference[pivot]
    return c > 0 and all(v == c * r for v, r in zip(row, reference))


@pytest.mark.parametrize("shape", STRIDE_SHAPES)
def test_stride_rows_equal_profile_rows(shape):
    """Each stride-built row equals the profile-built row up to a positive factor."""
    # Non-integer payoffs, so that each player's integer scale d_i exceeds 1.
    for seed in (1, 2):
        base = generators.random_game(shape, seed)
        game = affine_transform(base, [F(1, 3 + i) for i in range(len(shape))],
                                [F(1, 2)] * len(shape))
        for i, size in enumerate(shape):
            for dev in range(size):
                assert _positive_multiple(deviation_gains(game, i, dev),
                                          _reference_cce_row(game, i, dev))
                for rec in range(size):
                    if rec != dev:
                        assert _positive_multiple(_ce_row(game, i, rec, dev),
                                                  _reference_ce_row(game, i, rec, dev))


def _reference_pure_ne(game):
    """The pure-NE loop over profiles, one `game.u` call per deviation."""
    results = []
    for profile in game.profiles():
        is_ne = True
        strict = True
        for i in range(game.num_players):
            base = game.u(i, profile)
            others = tuple(a for j, a in enumerate(profile) if j != i)
            for dev in range(game.shape[i]):
                if dev == profile[i]:
                    continue
                alt = game.u(i, game.insert_action(i, dev, others))
                if alt > base:
                    is_ne = False
                    break
                if alt == base:
                    strict = False
            if not is_ne:
                break
        if is_ne:
            results.append((profile, strict))
    return results


def test_stride_pure_ne_equal_profile_loop():
    # `enumerate_pure_ne` compares integer payoffs, the reference `Fraction`
    # ones.  Random games, then integer games with payoffs in {0, 1},
    # {0, 1, 2} or {-3, ..., 1}, whose ties make weak equilibria common, then
    # parking games, whose payoffs are rational.
    games = [generators.random_game(shape, seed)
             for shape in ((2, 2), (3, 4), (2, 3, 2)) for seed in range(1, 9)]
    games += [generators.random_game(shape, seed, low=low, high=high)
              for shape in ((2, 2), (3, 4), (2, 3, 2)) for seed in range(1, 9)
              for low, high in ((0, 1), (0, 2), (-3, 1))]
    games += [generators.parking(m, 1, F(1, 4), F(fee))
              for m in (3, 4) for fee in ("2/5", "1/2", "3/5", "3/4")]
    flags = set()
    for game in games:
        found = enumerate_pure_ne(game)
        assert found == _reference_pure_ne(game), game.name
        flags.update(strict for _, strict in found)
    assert flags == {True, False}


def _float_maximin(matrix):
    """max z over mixed rows x with x . column >= z for every column, via scipy."""
    from scipy.optimize import linprog
    rows, cols = len(matrix), len(matrix[0])
    a_ub = [[-float(matrix[r][c]) for r in range(rows)] + [1.0] for c in range(cols)]
    res = linprog([0.0] * rows + [-1.0], A_ub=a_ub, b_ub=[0.0] * cols,
                  A_eq=[[1.0] * rows + [0.0]], b_eq=[1.0],
                  bounds=[(0, None)] * rows + [(None, None)], method="highs")
    assert res.status == 0
    return -res.fun


def test_maximin_and_ircp_decisions_match_scipy_above_3x3x3():
    # 36 and 48 profiles.  Maximin levels must agree to float precision; the
    # IRCP singleton decision is compared under the margin rule of the test
    # above.
    pytest.importorskip("scipy")
    games = [generators.random_game(shape, seed)
             for shape in ((4, 3, 3), (4, 4, 3)) for seed in (1, 2, 3)]
    compared = 0
    for game in games:
        for i in range(game.num_players):
            matrix = [[game.u(i, game.insert_action(i, a, opp))
                       for opp in game.opponent_profiles(i)] for a in range(game.shape[i])]
            assert abs(float(zerosum.maximin(game, i).value) - _float_maximin(matrix)) < 1e-7
        spec = build_polytope(game, "ircp")
        exact = is_singleton(spec)
        ranges = _float_coordinate_ranges(spec.system)
        spread = max(high - low for low, high in ranges)
        if spread > 1e-7:
            assert not exact.is_singleton, game.name
        elif spread < 1e-9:
            assert exact.is_singleton, game.name
            vector = exact.point.as_vector(game)
            assert all(abs(float(x) - low) < 1e-7 for x, (low, _) in zip(vector, ranges))
        else:
            continue
        compared += 1
    assert compared >= 4
