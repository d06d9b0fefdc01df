"""Twelve-point acceptance gate.

Each test covers one numbered criterion and prints a single PASS or FAIL
line (run with `pytest tests/test_acceptance.py -s` to see them inline).
All checks are exact unless the criterion itself is statistical; the
dynamics thresholds come from the registered pilot file in tests/data/.
"""

import functools
import json
import random
from fractions import Fraction
from pathlib import Path

from conftest import F
from eqcert import generators
from eqcert.certify import (
    UNIQUE_MIXED_2X2,
    UNIQUE_PURE,
    Refutation,
    UniquenessCertificate,
    certificate_to_dict,
    certify_unique_ircp,
    certify_unique_pure_cce,
    classify_unique_cce,
    is_gue,
    is_quasi_strict,
    is_strict_fractional_gue,
    verify_certificate,
)
from eqcert.contests import (
    ContestSpec,
    LinearCost,
    PowerCost,
    TullockRatio,
    band_functions,
    discretize_and_certify,
    ratio_band_check,
    tullock_equilibrium,
    tullock_term_certificate,
    verify_prop3,
)
from eqcert.dynamics import EXTERNAL_MW, INTERNAL_RM, run
from eqcert.games import (
    Game,
    JointDistribution,
    _gain_slack,
    is_symmetric,
    product_distribution,
    total_variation,
)
from eqcert.polytopes import (
    Degenerate2x2Error,
    build_polytope,
    enumerate_pure_ne,
    is_singleton,
    membership,
    mixed_ne_2x2,
)
from eqcert.theory import (
    HULL_EQUAL,
    HULL_PROPER_SUBSET,
    classify_extreme_ne,
    conv_ne_vs_ircp,
    is_extreme_point,
)

PILOT = Path(__file__).parent / "data" / "dynamics_pilot.json"


def criterion(number, label):
    def wrap(fn):
        @functools.wraps(fn)
        def inner():
            try:
                fn()
            except BaseException:
                print(f"criterion {number:2d} FAIL - {label}")
                raise
            print(f"criterion {number:2d} PASS - {label}")
        return inner
    return wrap


def _uniform_product(game):
    total = game.num_profiles
    return JointDistribution({p: Fraction(1, total) for p in game.profiles()})


def _is_pure(mu):
    return len(mu.weights) == 1


@criterion(1, "rock-paper-scissors polytope separations")
def test_criterion_01_rps_separations():
    rps = generators.rock_paper_scissors()
    ce = build_polytope(rps, "ce")
    cce = build_polytope(rps, "cce")
    ircp = build_polytope(rps, "ircp")

    singleton = is_singleton(ce)
    assert singleton.is_singleton
    assert singleton.point.weights == _uniform_product(rps).weights

    diagonal = JointDistribution({(a, a): F(1, 3) for a in range(3)})
    assert membership(cce, diagonal).is_member
    assert not membership(ce, diagonal).is_member

    swap = JointDistribution({(0, 1): F(1, 2), (1, 0): F(1, 2)})
    assert membership(ircp, swap).is_member
    assert not membership(cce, swap).is_member


@criterion(2, "parking-fee window against the polytope oracle")
def test_criterion_02_parking_window():
    certifying = [F(11, 20), F(3, 5), F(7, 10), F(3, 4)]
    refuting = [F(2, 5), F(1, 2)]
    above_window = [F(4, 5)]
    for t in certifying + refuting + above_window:
        game = generators.parking(3, 1, F(1, 4), t)
        result = certify_unique_ircp(game)
        oracle = is_singleton(build_polytope(game, "ircp"))
        assert isinstance(result, UniquenessCertificate) == oracle.is_singleton
        if t in certifying:
            assert result.a_star == (0, 0)
        if t in refuting:
            assert isinstance(result, Refutation)
            first, second = result.witnesses[0], result.witnesses[1]
            assert first.weights != second.weights
            spec = build_polytope(game, "ircp")
            assert membership(spec, first).is_member
            assert membership(spec, second).is_member


@criterion(3, "prisoners-dilemma classification and IRCP refutation")
def test_criterion_03_prisoners_dilemma():
    pd = generators.prisoners_dilemma()
    cls = classify_unique_cce(pd)
    assert cls.variant == UNIQUE_PURE
    assert cls.point == JointDistribution.point_mass((1, 1))
    result = certify_unique_ircp(pd)
    assert isinstance(result, Refutation)
    assert any(w.weights == {(0, 0): F(1)} for w in result.witnesses)


@criterion(4, "matching-pennies-type sweep, 200 seeds")
def test_criterion_04_mp_type_sweep():
    for seed in range(200):
        game = generators.random_mp_type(seed)
        cls = classify_unique_cce(game)
        assert cls.variant == UNIQUE_MIXED_2X2

        # closed form from the two indifference conditions
        u0 = [[game.u(0, (a, b)) for b in range(2)] for a in range(2)]
        u1 = [[game.u(1, (a, b)) for b in range(2)] for a in range(2)]
        x = Fraction(u1[1][1] - u1[1][0],
                     u1[0][0] - u1[0][1] - u1[1][0] + u1[1][1])
        y = Fraction(u0[1][1] - u0[0][1],
                     u0[0][0] - u0[0][1] - u0[1][0] + u0[1][1])
        m0, m1 = cls.ne
        assert (m0.prob(0), m1.prob(0)) == (x, y)
        assert cls.point.marginal(game, 0).weights == m0.weights
        assert cls.point.marginal(game, 1).weights == m1.weights

        assert is_quasi_strict(game, cls.point)
        assert is_extreme_point(build_polytope(game, "cce"), cls.point)


@criterion(5, "equivalence sweep on 1000 random games")
def test_criterion_05_equivalence_sweep():
    pool = [((2, 2), 400), ((2, 3), 200), ((3, 3), 150),
            ((2, 2, 2), 150), ((2, 2, 3), 60), ((3, 3, 3), 40)]
    seen = {"ircp_cert": 0, "ircp_refuted": 0, "cce_cert": 0, "cce_refuted": 0}
    seed = 0
    for shape, count in pool:
        for _ in range(count):
            game = generators.random_game(shape, seed=seed)
            seed += 1

            ircp_result = certify_unique_ircp(game)
            ircp_singleton = is_singleton(build_polytope(game, "ircp"))
            certified = isinstance(ircp_result, UniquenessCertificate)
            assert certified == ircp_singleton.is_singleton
            seen["ircp_cert" if certified else "ircp_refuted"] += 1
            if certified:
                # a singleton IRCP is the point mass at a strict pure NE
                a_star = ircp_result.a_star
                assert ircp_singleton.point.weights == {a_star: F(1)}
                assert (a_star, True) in enumerate_pure_ne(game)

            cce_result = certify_unique_pure_cce(game)
            cce_singleton = is_singleton(build_polytope(game, "cce"))
            pure_single = cce_singleton.is_singleton and _is_pure(cce_singleton.point)
            certified = isinstance(cce_result, UniquenessCertificate)
            assert certified == pure_single
            seen["cce_cert" if certified else "cce_refuted"] += 1

            if cce_singleton.is_singleton:
                point = cce_singleton.point
                assert is_quasi_strict(game, point)
                cls = classify_unique_cce(game)
                if _is_pure(point):
                    assert cls.variant == UNIQUE_PURE
                else:
                    assert cls.variant == UNIQUE_MIXED_2X2
                    assert len(cls.mixers) == 2
                    for i in cls.mixers:
                        assert len(point.marginal(game, i).weights) == 2
                    assert not is_symmetric(game)

            if game.shape == (2, 2):
                try:
                    pairs = mixed_ne_2x2(game)
                except Degenerate2x2Error:
                    pairs = []
                for pair in pairs:
                    nu = product_distribution(game, pair)
                    if any(not m.is_pure for m in pair) and is_quasi_strict(game, nu):
                        report = classify_extreme_ne(game, nu)
                        assert report.predicted_extreme == report.measured_extreme
    assert all(count > 0 for count in seen.values()), seen


@criterion(6, "tullock grid certificate and closed-form sign analysis")
def test_criterion_06_tullock_grid():
    spec = ContestSpec(TullockRatio(1), (1, 1), (LinearCost(1), LinearCost(1)))
    grid = [F(k, 16) for k in range(1, 17)]
    game, result = discretize_and_certify(spec, (F(1, 4), F(1, 4)), grid)
    assert isinstance(result, UniquenessCertificate)
    assert result.a_star == (3, 3)
    assert game.actions[0][3] == "1/4" and game.actions[1][3] == "1/4"
    assert result.gamma == (F(1, 2), F(1, 2))  # normalized (1, 1)
    assert verify_certificate(game, certificate_to_dict(result)) == []

    cert = tullock_term_certificate()
    assert cert.quadratic == (F(-1, 4), F(2), F(-4))
    assert cert.leading < 0 and cert.root == F(1, 4)

    for r in (F(1, 2), F(1), F(3, 2), F(2)):
        modified = ContestSpec(TullockRatio(r), (1, 1),
                               (LinearCost(1), LinearCost(1)))
        a_star = tullock_equilibrium(r)
        assert a_star == (r / 4, r / 4)
        square_grid = [a_star[0] * F(k * k, 4) for k in range(1, 5)]
        assert verify_prop3(modified, a_star, square_grid).ok


@criterion(7, "share band acceptance on a 1000-point grid")
def test_criterion_07_ratio_band():
    grid = [F(k, 1001) for k in range(1, 1001)]
    assert ratio_band_check(TullockRatio(1), F(1, 4), grid)

    upper, lower = band_functions(F(1, 4))
    probes = [F(1, 10), F(1, 8), F(1, 6), F(1, 5), F(1, 4), F(1, 3), F(2, 5),
              F(1, 2), F(3, 5), F(2, 3), F(3, 4), F(4, 5), F(9, 10), F(1),
              F(10, 9), F(5, 4), F(3, 2), F(2), F(3), F(10)]
    assert len(probes) == 20
    c = F(1, 4)
    for t in probes:
        if t <= 1:
            assert upper.at(t) == F(1, 2) - c + c * t
            assert lower.at(t) == max(F(0), F(1, 2) + c - c / t)
        else:
            assert upper.at(t) == F(1, 2) + c - c / t
            assert lower.at(t) == min(F(1), F(1, 2) - c + c * t)
    assert upper.at(F(1, 3)) == F(1, 3) and lower.at(F(1, 3)) == 0
    assert upper.at(F(1)) == lower.at(F(1)) == F(1, 2)
    assert upper.at(F(3)) == F(2, 3) and lower.at(F(3)) == 1


@criterion(8, "five asymmetric contests certify with gamma = 1/v")
def test_criterion_08_contest_family():
    eighths = [F(k, 8) for k in range(1, 9)]
    families = [
        (ContestSpec(TullockRatio(1), (2, 1),
                     (PowerCost(1, 2), LinearCost(F(1, 2)))),
         (F(1, 2), F(1, 2)), eighths),
        (ContestSpec(TullockRatio(1), (3, 1),
                     (LinearCost(F(3, 2)), PowerCost(F(1, 2), 2))),
         (F(1, 2), F(1, 2)), eighths),
        (ContestSpec(TullockRatio(1), (2, 1),
                     (LinearCost(F(8, 9)), PowerCost(F(16, 9), 2))),
         (F(1, 2), F(1, 4)),
         ([F(k, 8) for k in range(1, 9)], [F(k, 16) for k in range(1, 9)])),
        (ContestSpec(TullockRatio(2), (2, 1),
                     (PowerCost(2, 2), PowerCost(1, 2))),
         (F(1, 2), F(1, 2)), eighths),
        (ContestSpec(TullockRatio(F(1, 2)), (2, 3),
                     (PowerCost(2, 2), PowerCost(3, 2))),
         (F(1, 4), F(1, 4)), [F(k * k, 64) for k in range(1, 9)]),
    ]
    for spec, a_star, grids in families:
        assert spec.values[0] != spec.values[1]
        assert any(isinstance(cost, PowerCost) for cost in spec.costs)
        report = verify_prop3(spec, a_star, grids)
        assert report.ok
        game, result = discretize_and_certify(spec, a_star, grids)
        assert isinstance(result, UniquenessCertificate)
        weights = spec.proof_weights()
        assert result.gamma[0] * weights[1] == result.gamma[1] * weights[0]
        assert verify_certificate(game, certificate_to_dict(result)) == []


@criterion(9, "lottery-dominance flags and the 200-game cross-check")
def test_criterion_09_gue_and_lemma5():
    g = generators.table3()
    assert is_gue(g, (0, 0))
    assert not is_strict_fractional_gue(g, (0, 0))
    mu = JointDistribution({(1, 1): F(1, 2), (2, 2): F(1, 2)})
    for concept in ("cce", "ircp"):
        spec = build_polytope(g, concept)
        assert not is_singleton(spec).is_singleton
        assert membership(spec, mu).is_member

    seed = 5000
    for shape, count in [((2, 2), 150), ((2, 3), 50)]:
        for _ in range(count):
            game = generators.random_game(shape, seed=seed)
            seed += 1
            result = certify_unique_ircp(game)
            star = result.a_star if isinstance(result, UniquenessCertificate) else None
            for profile in game.profiles():
                assert is_strict_fractional_gue(game, profile) == (profile == star)


@criterion(10, "equilibrium hull versus the IRCP polytope")
def test_criterion_10_hulls():
    table2 = generators.table2()
    ne = [JointDistribution.point_mass((0, 0)),
          JointDistribution.point_mass((1, 1))]
    assert conv_ne_vs_ircp(table2, ne).status == HULL_EQUAL

    pd = generators.prisoners_dilemma()
    res = conv_ne_vs_ircp(pd, [JointDistribution.point_mass((1, 1))])
    assert res.status == HULL_PROPER_SUBSET
    assert membership(build_polytope(pd, "ircp"), res.witness).is_member

    flat = Game((("a", "b"), ("a", "b")), ((0, 0, 0, 0), (0, 0, 0, 0)), "flat")
    all_pure = [JointDistribution.point_mass(p) for p in flat.profiles()]
    assert conv_ne_vs_ircp(flat, all_pure).status == HULL_EQUAL


@criterion(11, "certificates survive slack-bounded perturbations")
def test_criterion_11_openness():
    games = [generators.prisoners_dilemma()]
    for t in (F(11, 20), F(3, 5), F(7, 10), F(3, 4), F(4, 5)):
        games.append(generators.parking(3, 1, F(1, 4), t))
    spec = ContestSpec(TullockRatio(1), (1, 1), (LinearCost(1), LinearCost(1)))
    for size in (4, 8):
        grid = [F(k, 2 * size) for k in range(1, size + 1)]
        games.append(discretize_and_certify(spec, (F(1, 4), F(1, 4)), grid)[0])

    seed = 9000
    while len(games) < 50:
        candidate = generators.random_game((2, 2), seed=seed)
        seed += 1
        if isinstance(certify_unique_pure_cce(candidate), UniquenessCertificate):
            games.append(candidate)

    rng = random.Random(2026)
    for game in games:
        cert = certify_unique_pure_cce(game)
        assert isinstance(cert, UniquenessCertificate)
        radius = cert.slack / (2 * game.num_players * max(cert.gamma))
        perturbed_payoffs = tuple(
            tuple(u + Fraction(rng.randint(-9, 9), 10) * radius for u in row)
            for row in game.payoffs)
        perturbed = Game(game.actions, perturbed_payoffs, game.name)
        assert _gain_slack(perturbed, cert.a_star, cert.gamma, "cce") is not None
        again = certify_unique_pure_cce(perturbed)
        assert isinstance(again, UniquenessCertificate)
        assert again.a_star == cert.a_star


@criterion(12, "no-regret runs stay inside the registered thresholds")
def test_criterion_12_dynamics():
    pilot = json.loads(PILOT.read_text())
    steps = pilot["settings"]["steps"]
    seeds = pilot["settings"]["seeds"]
    rate = float(Fraction(pilot["settings"]["learning_rate"]))
    tv_bar = Fraction(pilot["thresholds"]["tv_to_certified_point"])
    ext_share = Fraction(pilot["thresholds"]["external_regret_over_range"])
    int_share = Fraction(pilot["thresholds"]["internal_regret_over_range"])

    spec = ContestSpec(TullockRatio(1), (1, 1), (LinearCost(1), LinearCost(1)))
    grid = [F(k, 16) for k in range(1, 17)]
    tullock_game, tullock_cert = discretize_and_certify(
        spec, (F(1, 4), F(1, 4)), grid, "tullock 16x16")
    board = {
        "pd": (generators.prisoners_dilemma(), (1, 1)),
        "parking_t_3_5": (generators.parking(3, 1, F(1, 4), F(3, 5)), (0, 0)),
        "tullock_grid_16": (tullock_game, tullock_cert.a_star),
    }

    for name, entry in pilot["external"].items():
        game, target = board[name]
        assert tuple(entry["target"]) == target
        payoff_range = max(max(p) - min(p) for p in game.payoffs)
        assert Fraction(entry["payoff_range"]) == payoff_range
        point = JointDistribution.point_mass(target)
        for seed in seeds:
            out = run(game, EXTERNAL_MW, steps, seed, rate)
            assert total_variation(out.empirical, point) <= tv_bar
            assert out.max_external_regret <= ext_share * payoff_range

    rps = generators.rock_paper_scissors()
    rps_range = max(max(p) - min(p) for p in rps.payoffs)
    assert Fraction(pilot["internal"]["rps"]["payoff_range"]) == rps_range
    for seed in seeds:
        out = run(rps, INTERNAL_RM, steps, seed)
        assert out.max_internal_regret <= int_share * rps_range
