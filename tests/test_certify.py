"""Uniqueness certificates, refutations, classifications, and GUE checks."""

import random
from dataclasses import replace
from fractions import Fraction

import pytest

from eqcert import certify, generators, polytopes, zerosum
from eqcert.certify import (
    CertificationError,
    NOT_UNIQUE,
    Refutation,
    UNIQUE_MIXED_2X2,
    UNIQUE_PURE,
    UniquenessCertificate,
    certificate_to_dict,
    certify_unique_ircp,
    certify_unique_pure_cce,
    classify_unique_cce,
    is_gue,
    is_matching_pennies_type,
    is_quasi_strict,
    is_strict_fractional_gue,
    refutation_to_dict,
    verify_certificate,
    verify_refutation,
)
from eqcert.games import (
    Game,
    JointDistribution,
    MixedAction,
    _gain_slack,
    distribution_from_dict,
    distribution_to_dict,
    product_distribution,
)
from eqcert.polytopes import SolverInvariantError, build_polytope, membership, mixed_ne_2x2
from eqcert.theory import (
    HULL_EQUAL,
    HULL_INCONCLUSIVE,
    HULL_PROPER_SUBSET,
    affine_transform,
    check_enforcement,
    classify_extreme_ne,
    combinatorics_bound,
    conv_ne_vs_ircp,
    is_nash,
    quasi_strictness_certificate,
)

from conftest import F, reference_reduction
from test_report import _doubled_parking, _tullock8


def _parking(t):
    return generators.parking(3, 1, F(1, 4), F(t))


def _enforcement_form(game, cert):
    """The game the certificate's weights put in enforcement form at a*."""
    if cert.concept == "cce":
        game = reference_reduction(game, cert.a_star)
    return affine_transform(game, cert.gamma,
                            [-g * game.u(i, cert.a_star) for i, g in enumerate(cert.gamma)])


def _uniform_product(game):
    mixes = [MixedAction(i, {a: Fraction(1, game.shape[i])
                             for a in range(game.shape[i])})
             for i in range(game.num_players)]
    return product_distribution(game, mixes)


# -- enforcement form ---------------------------------------------------------


def test_enforcement_check_on_shifted_parking():
    g = affine_transform(_parking("3/5"), (F(1), F(1)), (F(-3, 4), F(-3, 4)))
    check = check_enforcement(g)
    assert check.holds
    assert check.a_star == (0, 0)


def test_enforcement_check_rejects_shifted_pd():
    g = affine_transform(generators.prisoners_dilemma(),
                         (F(1), F(1)), (F(-1), F(-1)))
    check = check_enforcement(g)
    assert not check.holds
    assert check.a_star == (1, 1)
    assert check.zero_at_star and check.unilateral_guarantee
    assert not check.welfare_negative_elsewhere  # (c,c) sums to +2


def test_enforcement_check_zero_game(zero_game):
    check = check_enforcement(zero_game)
    assert not check.holds
    assert not check.welfare_negative_elsewhere


def test_enforcement_check_without_zero_profile():
    check = check_enforcement(generators.prisoners_dilemma())
    assert check.a_star is None and not check.holds


# -- unique IRCP --------------------------------------------------------------


def test_ircp_certificates_across_towing_fees():
    slacks = {"11/20": F(1, 40), "3/5": F(1, 20), "7/10": F(1, 10),
              "3/4": F(1, 8), "4/5": F(3, 20)}
    for t, expected_slack in slacks.items():
        game = _parking(t)
        cert = certify_unique_ircp(game)
        assert isinstance(cert, UniquenessCertificate)
        assert cert.concept == "ircp"
        assert cert.a_star == (0, 0)
        assert cert.gamma == (F(1, 2), F(1, 2))
        assert cert.slack == expected_slack
        inner = check_enforcement(_enforcement_form(game, cert))
        assert inner.holds and inner.a_star == (0, 0)


def test_ircp_refuted_for_cheap_towing():
    for t in ("2/5", "1/2"):
        result = certify_unique_ircp(_parking(t))
        assert isinstance(result, Refutation)
        a, b = result.witnesses
        assert a != b
        spec = build_polytope(_parking(t), "ircp")
        assert membership(spec, a).is_member
        assert membership(spec, b).is_member
    # the first free spot pair beats paying outright when t < 2c
    spec = build_polytope(_parking("2/5"), "ircp")
    assert membership(spec, JointDistribution.point_mass((1, 1))).is_member


def test_ircp_refuted_for_pd():
    result = certify_unique_ircp(generators.prisoners_dilemma())
    assert isinstance(result, Refutation)
    assert result.witnesses == (JointDistribution.point_mass((1, 1)),
                                JointDistribution.point_mass((0, 0)))


def test_ircp_refuted_without_pure_maximin_action():
    result = certify_unique_ircp(generators.matching_pennies())
    assert isinstance(result, Refutation)
    assert "no pure maximin action" in result.reason


def test_ircp_refuted_with_tied_maximin_actions(zero_game):
    result = certify_unique_ircp(zero_game)
    assert isinstance(result, Refutation)
    assert "several pure maximin actions" in result.reason


def test_ircp_refuted_when_profile_beats_security_level():
    # unique pure maximin actions, but a* pays player 1 above the level
    g = Game((("x", "y"), ("l", "r")),
             ((F(5), F(1), F(0), F(0)), (F(5), F(0), F(1), F(0))),
             "slack_at_star")
    result = certify_unique_ircp(g)
    assert isinstance(result, Refutation)
    assert "above the security level" in result.reason
    a, b = result.witnesses
    spec = build_polytope(g, "ircp")
    assert membership(spec, a).is_member and membership(spec, b).is_member


# -- unique pure CCE ----------------------------------------------------------


def test_cce_certificate_pd():
    pd = generators.prisoners_dilemma()
    cert = certify_unique_pure_cce(pd)
    assert isinstance(cert, UniquenessCertificate)
    assert cert.concept == "cce"
    assert cert.a_star == (1, 1)
    assert cert.gamma == (F(1, 2), F(1, 2))
    assert cert.slack == F(1, 2)
    assert check_enforcement(_enforcement_form(pd, cert)).holds


def test_cce_certificate_parking():
    cert = certify_unique_pure_cce(_parking("3/5"))
    assert isinstance(cert, UniquenessCertificate)
    assert cert.a_star == (0, 0)


def test_cce_refuted_rps():
    result = certify_unique_pure_cce(generators.rock_paper_scissors())
    assert isinstance(result, Refutation)
    assert len(result.witnesses) == 2
    spec = build_polytope(generators.rock_paper_scissors(), "cce")
    for w in result.witnesses:
        assert membership(spec, w).is_member


def test_cce_refuted_mixed_singleton():
    result = certify_unique_pure_cce(generators.matching_pennies())
    assert isinstance(result, Refutation)
    assert len(result.witnesses) == 1
    (mu,) = result.witnesses
    assert mu.weights == {p: F(1, 4)
                          for p in generators.matching_pennies().profiles()}


def test_cce_refuted_two_strict_equilibria(coordination):
    result = certify_unique_pure_cce(coordination)
    assert isinstance(result, Refutation)
    assert result.witnesses == (JointDistribution.point_mass((0, 0)),
                                JointDistribution.point_mass((1, 1)))


def _reject_every_point(monkeypatch):
    rejected = polytopes.MembershipResult(False, ())
    monkeypatch.setattr(polytopes, "membership", lambda spec, mu: rejected)


def test_ircp_refutation_is_rechecked(monkeypatch):
    _reject_every_point(monkeypatch)
    with pytest.raises(SolverInvariantError, match="membership re-check"):
        certify_unique_ircp(generators.prisoners_dilemma())


def test_cce_refutations_are_rechecked(monkeypatch, coordination):
    _reject_every_point(monkeypatch)
    for game in (generators.rock_paper_scissors(), coordination):
        with pytest.raises(SolverInvariantError, match="membership re-check"):
            certify_unique_pure_cce(game)


@pytest.mark.parametrize("make", [
    lambda: generators.random_game((4, 4), 15),  # three pure NE, two of them strict
    generators.rock_paper_scissors,  # no pure NE: the CCE LP finds the witnesses
    generators.matching_pennies,  # one mixed CCE
])
def test_cce_refutation_checks_each_witness_once(monkeypatch, make):
    # `is_singleton` re-checks the point masses of two pure NE, and the
    # refutation re-checks only members that an LP found.
    game = make()
    checked = []
    real = polytopes.membership
    monkeypatch.setattr(polytopes, "membership",
                        lambda spec, mu: checked.append(mu) or real(spec, mu))
    result = certify_unique_pure_cce(game)
    assert isinstance(result, Refutation)
    assert checked == list(result.witnesses)


@pytest.mark.parametrize("shape, seed", [((4, 4), 13), ((4, 4), 14), ((4, 4), 16),
                                         ((3, 3), 3)])
def test_cce_refutation_at_a_rival_runs_no_p_a_star_test(monkeypatch, shape, seed):
    # One strict pure NE a*, and a rival b != a* where every player gains
    # weakly over a*_i: no positive weights make sum_i gamma_i v_i(b)
    # negative, so the CCE LP alone decides.
    game = generators.random_game(shape, seed)
    analysis = polytopes.GameAnalysis(game)
    assert [strict for _, strict in analysis.pure_ne()].count(True) == 1
    assert analysis.cce_candidate() is None
    tests = []
    real = polytopes.singleton_over_system
    monkeypatch.setattr(polytopes, "singleton_over_system",
                        lambda g, system, what="polytope":
                        tests.append(what) or real(g, system, what))
    result = certify_unique_pure_cce(analysis)
    assert isinstance(result, Refutation)
    assert tests == ["cce polytope"]


def test_ircp_certificate_rejects_a_corrupted_kept_dual(monkeypatch):
    # Doubling one player's payoffs breaks parking's symmetry, so the weights
    # come from the dual of the kept P(a*) test; a zero there is rejected.
    game = _doubled_parking()
    cert = certify_unique_ircp(game)
    assert isinstance(cert, UniquenessCertificate) and cert.a_star == (0, 0)
    real = polytopes.singleton_over_system

    def zero_first_dual(game, system, what="polytope"):
        result = real(game, system, what)
        return replace(result, duals=(F(0),) + result.duals[1:])

    monkeypatch.setattr(polytopes, "singleton_over_system", zero_first_dual)
    analysis = polytopes.GameAnalysis(game)
    assert analysis.improvement((0, 0), "ircp").duals[0] == 0
    for run in (lambda: analysis.weights((0, 0), "ircp"),
                lambda: certify_unique_ircp(polytopes.GameAnalysis(game))):
        with pytest.raises(SolverInvariantError, match="P\\(a\\*\\) dual gave a boundary weight"):
            run()


@pytest.mark.parametrize("run, make_game", [
    (certify_unique_ircp, lambda: _parking("3/5")),
    (certify_unique_ircp, _doubled_parking),
    (certify_unique_pure_cce, generators.prisoners_dilemma),
    (certify_unique_pure_cce, _doubled_parking),
], ids=("ircp-parking", "ircp-doubled-parking", "cce-pd", "cce-doubled-parking"))
def test_solver_and_verifier_run_one_certificate_check(monkeypatch, run, make_game):
    # The solver re-checks its certificate with the call `verify_certificate`
    # makes: the same game, concept, profile, weights and slack.
    game, checks = make_game(), []
    real = certify._certificate_problems

    def recording(game, concept, a_star, gamma, slack):
        checks.append((game, concept, tuple(a_star), tuple(gamma), slack))
        return real(game, concept, a_star, gamma, slack)

    monkeypatch.setattr(certify, "_certificate_problems", recording)
    result = run(game)
    assert verify_certificate(game, certificate_to_dict(result)) == []
    assert len(checks) == 2 and checks[0] == checks[1]


def test_cce_refuted_table3_despite_strict_ne():
    g = generators.table3()
    result = certify_unique_pure_cce(g)
    assert isinstance(result, Refutation)
    spec = build_polytope(g, "cce")
    for w in result.witnesses:
        assert membership(spec, w).is_member


def test_cce_reduction_identity():
    # certifying G at a* is the same question as IRCP uniqueness of G'
    for g in (generators.prisoners_dilemma(), _parking("3/5")):
        cert = certify_unique_pure_cce(g)
        reduced = reference_reduction(g, cert.a_star)
        inner = certify_unique_ircp(reduced)
        assert isinstance(inner, UniquenessCertificate)
        assert inner.a_star == cert.a_star
        assert inner.gamma == cert.gamma
        assert inner.slack == cert.slack


@pytest.mark.parametrize("make_game", (generators.prisoners_dilemma,
                                       lambda: _parking("3/5"), _tullock8),
                         ids=("pd", "parking", "tullock8"))
def test_cce_certificate_solves_no_maximin(monkeypatch, make_game):
    # Every security level of the reduced game is 0 at the strict NE, so
    # certifying its unique pure CCE needs no maximin LP.
    solved = []
    maximin = zerosum.maximin
    monkeypatch.setattr(zerosum, "maximin",
                        lambda game, player: solved.append(player) or maximin(game, player))
    assert isinstance(certify_unique_pure_cce(make_game()), UniquenessCertificate)
    assert solved == []


# -- classification -----------------------------------------------------------


def test_classify_pd_unique_pure():
    res = classify_unique_cce(generators.prisoners_dilemma())
    assert res.variant == UNIQUE_PURE
    assert res.point == JointDistribution.point_mass((1, 1))
    assert isinstance(res.decision, UniquenessCertificate) and res.decision.a_star == (1, 1)


def test_classify_mp_type_games():
    for seed in range(5):
        g = generators.random_mp_type(seed=seed)
        res = classify_unique_cce(g)
        assert res.variant == UNIQUE_MIXED_2X2
        assert res.mixers == (0, 1)
        assert is_matching_pennies_type(res.subgame)
        (pair,) = [p for p in mixed_ne_2x2(g) if not p[0].is_pure]
        assert res.ne[0].weights == pair[0].weights
        assert res.ne[1].weights == pair[1].weights


def test_classify_rps_not_unique():
    # The witnesses are the context's CCE decision; a report writes them once,
    # under concepts.cce.
    analysis = polytopes.GameAnalysis(generators.rock_paper_scissors())
    res = classify_unique_cce(analysis)
    assert res.variant == NOT_UNIQUE
    assert res.point is None and isinstance(res.decision, Refutation)
    assert len(analysis.singleton("cce").witnesses) == 2


def test_classify_symmetric_singletons_are_pure():
    # symmetrize random payoffs; a symmetric game cannot have a mixed
    # singleton CCE
    for seed in range(8):
        rng = random.Random(seed + 300)
        size = rng.choice((2, 3))
        u1 = [Fraction(rng.randint(-3, 3)) for _ in range(size * size)]
        u2 = [u1[b * size + a] for a in range(size) for b in range(size)]
        labels = tuple(f"s{k}" for k in range(size))
        g = Game((labels, labels), (tuple(u1), tuple(u2)), f"sym{seed}")
        res = classify_unique_cce(g)
        if res.variant != NOT_UNIQUE:
            assert res.variant == UNIQUE_PURE


# -- quasi-strictness ---------------------------------------------------------


def test_quasi_strict_matching_pennies():
    mp = generators.matching_pennies()
    assert is_quasi_strict(mp, _uniform_product(mp))


def test_quasi_strict_table2():
    g = generators.table2()
    # (a1,a2) is strict, so quasi-strict; (b1,b2) ties against deviations
    assert is_quasi_strict(g, JointDistribution.point_mass((0, 0)))
    assert not is_quasi_strict(g, JointDistribution.point_mass((1, 1)))


def test_quasi_strict_rejects_non_product():
    g = generators.matching_pennies()
    correlated = JointDistribution({(0, 0): F(1, 2), (1, 1): F(1, 2)})
    with pytest.raises(CertificationError):
        is_quasi_strict(g, correlated)


def test_quasi_strict_false_for_non_nash():
    pd = generators.prisoners_dilemma()
    assert not is_quasi_strict(pd, JointDistribution.point_mass((0, 0)))


def test_quasi_strictness_certificate_matching_pennies():
    mp = generators.matching_pennies()
    cert = quasi_strictness_certificate(mp, _uniform_product(mp))
    assert cert.eta == (F(1, 2), F(1, 2))
    for i in range(2):
        assert cert.sigma[i].weights == {0: F(1, 2), 1: F(1, 2)}


def test_quasi_strictness_certificate_pd():
    pd = generators.prisoners_dilemma()
    cert = quasi_strictness_certificate(pd, JointDistribution.point_mass((1, 1)))
    assert all(e > 0 for e in cert.eta)
    for i in range(2):
        assert cert.sigma[i].is_pure and cert.sigma[i].support() == (1,)


def test_quasi_strictness_certificate_error_paths():
    # factorization-vs-input mismatches are surfaced, not papered over
    pd = generators.prisoners_dilemma()
    with pytest.raises(CertificationError):
        quasi_strictness_certificate(pd, JointDistribution.point_mass((0, 0)))
    rps = generators.rock_paper_scissors()
    diagonal = JointDistribution(
        {(0, 0): F(1, 3), (1, 1): F(1, 3), (2, 2): F(1, 3)})
    with pytest.raises(CertificationError):
        quasi_strictness_certificate(rps, diagonal)


# -- matching-pennies pattern and support combinatorics ------------------------


def test_is_matching_pennies_type():
    assert is_matching_pennies_type(generators.matching_pennies())
    assert not is_matching_pennies_type(generators.prisoners_dilemma())
    assert not is_matching_pennies_type(generators.rock_paper_scissors())
    degenerate = Game((("u", "d"), ("l", "r")),
                      ((F(1), F(0), F(1), F(1)), (F(0), F(1), F(1), F(0))),
                      "tied_corner")
    assert not is_matching_pennies_type(degenerate)
    for seed in range(5):
        assert is_matching_pennies_type(generators.random_mp_type(seed=seed))


def test_combinatorics_bound():
    assert combinatorics_bound([2, 2])        # 4 <= 5
    assert combinatorics_bound([2, 3])        # 6 <= 6
    assert not combinatorics_bound([2, 2, 2])  # 8 > 7
    assert not combinatorics_bound([3, 3])     # 9 > 7
    assert combinatorics_bound([5])
    with pytest.raises(CertificationError):
        combinatorics_bound([1, 2])


# -- extreme NE classification --------------------------------------------------


def test_classify_extreme_ne_pure_and_2x2():
    pd = generators.prisoners_dilemma()
    report = classify_extreme_ne(pd, JointDistribution.point_mass((1, 1)))
    assert report.predicted_extreme and report.measured_extreme
    mp = generators.matching_pennies()
    report = classify_extreme_ne(mp, _uniform_product(mp))
    assert report.support_sizes == (2, 2)
    assert report.predicted_extreme and report.measured_extreme


def test_classify_extreme_ne_2x3_support():
    # player 2 indifferent across three columns at p=(1/2,1/2); player 1
    # indifferent when the first two columns carry equal weight
    g = Game((("T", "B"), ("l", "m", "r")),
             ((F(1), F(0), F(0), F(0), F(1), F(0)),
              (F(1), F(0), F(1, 2), F(0), F(1), F(1, 2))),
             "wide_support")
    nu = product_distribution(g, (
        MixedAction(0, {0: F(1, 2), 1: F(1, 2)}),
        MixedAction(1, {0: F(1, 3), 1: F(1, 3), 2: F(1, 3)})))
    assert is_nash(g, nu)
    report = classify_extreme_ne(g, nu)
    assert report.support_sizes == (2, 3)
    assert not report.predicted_extreme
    assert not report.measured_extreme


def test_classify_extreme_ne_rejects_non_quasi_strict():
    g = generators.table2()
    with pytest.raises(CertificationError):
        classify_extreme_ne(g, JointDistribution.point_mass((1, 1)))


# -- hull comparison ------------------------------------------------------------


def test_hull_table2_equal():
    g = generators.table2()
    ne = [JointDistribution.point_mass((0, 0)),
          JointDistribution.point_mass((1, 1))]
    assert conv_ne_vs_ircp(g, ne).status == HULL_EQUAL


def test_hull_pd_proper_subset():
    pd = generators.prisoners_dilemma()
    res = conv_ne_vs_ircp(pd, [JointDistribution.point_mass((1, 1))])
    assert res.status == HULL_PROPER_SUBSET
    assert res.witness != JointDistribution.point_mass((1, 1))
    assert membership(build_polytope(pd, "ircp"), res.witness).is_member


def test_hull_zero_game_equal(zero_game):
    ne = [JointDistribution.point_mass(p) for p in zero_game.profiles()]
    assert conv_ne_vs_ircp(zero_game, ne).status == HULL_EQUAL


def test_hull_inconclusive_beyond_oracle_size():
    from eqcert.polytopes import enumerate_pure_ne
    g = generators.random_game((4, 4), seed=1)
    ne_list = [JointDistribution.point_mass(p)
               for p, _ in enumerate_pure_ne(g)]
    if not ne_list:
        pytest.skip("seed produced no pure NE")
    assert conv_ne_vs_ircp(g, ne_list).status == HULL_INCONCLUSIVE


def test_hull_rejects_non_equilibria():
    pd = generators.prisoners_dilemma()
    with pytest.raises(CertificationError):
        conv_ne_vs_ircp(pd, [JointDistribution.point_mass((0, 0))])


# -- guaranteed-utility efficiency ----------------------------------------------


def test_gue_table3():
    g = generators.table3()
    assert is_gue(g, (0, 0))
    assert not is_gue(g, (1, 1))  # u1(b1,a2) = -1 breaks the guarantee
    assert not is_strict_fractional_gue(g, (0, 0))  # the (1/2,1/2) lottery


def test_gue_pd():
    pd = generators.prisoners_dilemma()
    assert not is_gue(pd, (1, 1))
    assert not is_strict_fractional_gue(pd, (1, 1))


def test_gue_parking():
    g = _parking("3/5")
    assert is_gue(g, (0, 0))
    assert is_strict_fractional_gue(g, (0, 0))


def test_strict_fractional_gue_matches_unique_ircp():
    # both directions of the equivalence on a seeded sweep
    for seed in range(15):
        g = generators.random_game((2, 2), seed=seed + 500)
        result = certify_unique_ircp(g)
        certified_at = (result.a_star
                        if isinstance(result, UniquenessCertificate) else None)
        for p in g.profiles():
            assert is_strict_fractional_gue(g, p) == (p == certified_at)


# -- openness of certified uniqueness -------------------------------------------


def _perturbed(game, rng, radius):
    payoffs = tuple(
        tuple(x + Fraction(rng.randint(-9, 9), 10) * radius for x in row)
        for row in game.payoffs
    )
    return Game(game.actions, payoffs, f"{game.name}+noise")


def test_certificates_survive_small_perturbations():
    for g in (generators.prisoners_dilemma(), _parking("3/5")):
        cert = certify_unique_pure_cce(g)
        n = g.num_players
        radius = cert.slack / (2 * n * max(cert.gamma))
        rng = random.Random(42)
        for _ in range(5):
            noisy = _perturbed(g, rng, radius)
            assert _gain_slack(noisy, cert.a_star, cert.gamma, "cce") is not None
            again = certify_unique_pure_cce(noisy)
            assert isinstance(again, UniquenessCertificate)
            assert again.a_star == cert.a_star


# -- serialization ---------------------------------------------------------------


def test_distribution_round_trip():
    g = generators.rock_paper_scissors()
    mu = JointDistribution({(0, 1): F(1, 3), (2, 2): F(2, 3)})
    assert distribution_to_dict(g, mu) == {"1": "1/3", "8": "2/3"}
    assert distribution_from_dict(g, distribution_to_dict(g, mu), "mu") == mu


def test_verify_certificate_round_trip():
    pd = generators.prisoners_dilemma()
    cert = certify_unique_pure_cce(pd)
    data = certificate_to_dict(cert)
    assert verify_certificate(pd, data) == []

    g = _parking("3/5")
    data = certificate_to_dict(certify_unique_ircp(g))
    assert verify_certificate(g, data) == []


def test_verify_certificate_flags_corruption():
    pd = generators.prisoners_dilemma()
    data = certificate_to_dict(certify_unique_pure_cce(pd))

    wrong_slack = dict(data, slack="1/3")
    assert any("slack mismatch" in p for p in verify_certificate(pd, wrong_slack))

    bad_gamma = dict(data, gamma=["-1/2", "3/2"])
    assert any("positive" in p for p in verify_certificate(pd, bad_gamma))

    bad_concept = dict(data, concept="nash")
    assert verify_certificate(pd, bad_concept)

    moved = dict(data, a_star=[0, 0])
    assert verify_certificate(pd, moved)

    short = dict(data, gamma=["1/2"])
    assert verify_certificate(pd, short) == [
        "gamma length disagrees with the player count"]


def test_verify_certificate_checks_security_levels():
    g = _parking("3/5")
    data = certificate_to_dict(certify_unique_ircp(g))
    moved = dict(data, a_star=[1, 1])
    assert any("security level" in p or "not strictly negative" in p
               for p in verify_certificate(g, moved))


def test_verify_refutation_round_trip():
    pd = generators.prisoners_dilemma()
    ref = certify_unique_ircp(pd)
    data = refutation_to_dict(pd, ref)
    assert verify_refutation(pd, data) == []

    mp = generators.matching_pennies()
    ref = certify_unique_pure_cce(mp)
    data = refutation_to_dict(mp, ref)
    assert verify_refutation(mp, data) == []


def test_verify_refutation_flags_corruption():
    pd = generators.prisoners_dilemma()
    data = refutation_to_dict(pd, certify_unique_ircp(pd))

    twin = dict(data, witnesses=[data["witnesses"][0], data["witnesses"][0]])
    assert verify_refutation(pd, twin) == [
        "witnesses[0] and witnesses[1] are the same distribution"]

    # delta at (c,d) leaves player 1 below the security level
    cd = str(pd.profile_index((0, 1)))
    non_member = dict(data, witnesses=[data["witnesses"][0], {cd: "1"}])
    assert any("member" in p for p in verify_refutation(pd, non_member))

    lone_ircp = dict(data, witnesses=[data["witnesses"][0]])
    assert any("single-witness" in p for p in verify_refutation(pd, lone_ircp))

    bad_concept = dict(data, concept="nash")
    assert verify_refutation(pd, bad_concept)

    mp = generators.matching_pennies()
    mixed = refutation_to_dict(mp, certify_unique_pure_cce(mp))
    pure_witness = dict(mixed, witnesses=[{"0": "1"}])
    problems = verify_refutation(mp, pure_witness)
    assert problems  # a lone pure witness proves nothing


# -- cross-concept sanity ---------------------------------------------------------


def test_theorem_equivalences_on_random_sweep():
    from eqcert.polytopes import is_singleton
    seen_cert = seen_refute = False
    for seed in range(25):
        g = generators.random_game((2, 2), seed=seed + 900)
        ircp_result = certify_unique_ircp(g)
        ircp_single = is_singleton(build_polytope(g, "ircp"))
        assert isinstance(ircp_result, UniquenessCertificate) == ircp_single.is_singleton
        cce_result = certify_unique_pure_cce(g)
        cce_single = is_singleton(build_polytope(g, "cce"))
        pure_single = (cce_single.is_singleton
                       and len(cce_single.point.support()) == 1)
        assert isinstance(cce_result, UniquenessCertificate) == pure_single
        if isinstance(cce_result, UniquenessCertificate):
            seen_cert = True
        else:
            seen_refute = True
        # singleton CCE (pure or mixed) is a quasi-strict NE
        if cce_single.is_singleton:
            assert is_quasi_strict(g, cce_single.point)
    assert seen_cert and seen_refute
