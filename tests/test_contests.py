"""Analytic contest checks: shares, potentials, bands, discretization."""

from dataclasses import replace
from fractions import Fraction

import pytest

from conftest import F
from eqcert import contests
from eqcert.certify import (UniquenessCertificate, certificate_to_dict,
                            verify_certificate)
from eqcert.contests import (
    BandLower,
    BandUpper,
    ContestSpec,
    CournotSpec,
    EvaluationDomainError,
    LinearCost,
    MixRatio,
    PowerCost,
    TullockRatio,
    band_functions,
    contest_from_dict,
    contest_to_dict,
    contest_utility,
    cost_from_dict,
    cost_to_dict,
    discretize,
    discretize_and_certify,
    load_contest,
    load_grid,
    local_potential,
    ratio_band_check,
    save_contest,
    success_from_dict,
    success_to_dict,
    tullock_equilibrium,
    tullock_term,
    tullock_term_certificate,
    verify_prop3,
)
from eqcert.games import Game
from eqcert.polytopes import build_polytope, is_singleton


def standard_tullock(r=1) -> ContestSpec:
    return ContestSpec(TullockRatio(r), (1, 1), (LinearCost(1), LinearCost(1)))


# -- share functions -----------------------------------------------------------


def test_tullock_share_values():
    f = TullockRatio(1)
    assert f.at(F(1)) == F(1, 2)
    assert f.at(F(1, 3)) == F(1, 4)
    assert TullockRatio(2).at(F(1, 2)) == F(1, 5)
    assert TullockRatio(F(1, 2)).at(F(4, 9)) == F(2, 5)
    # a pair not in lowest terms is reduced before its roots are taken
    assert TullockRatio(F(1, 2)).share(8, 18) == (2, 5)


def test_share_identity_on_rational_grid():
    # f(t) + f(1/t) = 1; for r = 1/2 keep t a square so t^r stays rational
    for r, ts in ((F(1), [F(k, 7) for k in range(1, 7)]),
                  (F(2), [F(k, 5) for k in range(1, 5)]),
                  (F(1, 2), [F(k * k, 16) for k in range(1, 4)])):
        f = TullockRatio(r)
        for t in ts:
            assert f.at(t) + f.at(1 / t) == 1


def test_tullock_share_domain():
    f = TullockRatio(1)
    with pytest.raises(EvaluationDomainError):
        f.at(F(0))
    with pytest.raises(EvaluationDomainError):
        f.at(F(-1, 2))
    with pytest.raises(EvaluationDomainError):
        TullockRatio(F(1, 2)).at(F(1, 2))  # sqrt(1/2) is irrational
    with pytest.raises(EvaluationDomainError, match="^1/2\\^1/2 is not rational$"):
        TullockRatio(F(1, 2)).share(4, 8)
    with pytest.raises(EvaluationDomainError):
        TullockRatio(0)
    with pytest.raises(EvaluationDomainError):
        TullockRatio(-1)


def test_band_envelope_values():
    upper, lower = band_functions(F(1, 4))
    assert upper.at(F(1, 3)) == F(1, 3)
    assert lower.at(F(1, 3)) == F(0)
    assert upper.at(F(1)) == F(1, 2)
    assert lower.at(F(1)) == F(1, 2)
    assert upper.at(F(3)) == F(2, 3)
    assert lower.at(F(3)) == F(1)


def test_band_envelopes_satisfy_share_identity():
    upper, lower = band_functions(F(1, 4))
    # clipping is symmetric, so the identity survives it
    for t in [F(1, 5), F(1, 3), F(1, 2), F(4, 5), F(1)]:
        assert upper.at(t) + upper.at(1 / t) == 1
        assert lower.at(t) + lower.at(1 / t) == 1


def test_band_parameter_range():
    for bad in (F(0), F(3, 5), F(-1, 4)):
        with pytest.raises(EvaluationDomainError):
            BandUpper(bad)
        with pytest.raises(EvaluationDomainError):
            BandLower(bad)
    assert BandUpper(F(1, 2)).at(F(1, 2)) == F(1, 4)


def test_mix_ratio():
    upper, lower = band_functions(F(1, 4))
    mid = MixRatio(F(1, 2), (upper, lower))
    assert mid.at(F(1, 3)) == F(1, 6)
    assert mid.at(F(1)) == F(1, 2)
    skew = MixRatio(F(1, 4), (upper, lower))
    assert skew.at(F(1, 3)) == F(1, 4) * F(1, 3)
    with pytest.raises(EvaluationDomainError):
        MixRatio(F(3, 2), (upper, lower))
    with pytest.raises(EvaluationDomainError):
        MixRatio(F(1, 2), (upper,))


# -- cost functions and utilities ----------------------------------------------


def test_cost_functions():
    assert LinearCost(F(3, 2)).at(F(1, 2)) == F(3, 4)
    assert PowerCost(2, 2).at(F(3, 4)) == F(9, 8)
    assert PowerCost(F(1, 2), 3).at(F(2)) == F(4)
    with pytest.raises(EvaluationDomainError):
        LinearCost(-1)
    with pytest.raises(EvaluationDomainError):
        PowerCost(-1, 2)
    with pytest.raises(EvaluationDomainError):
        PowerCost(1, 0)


def test_contest_utility_at_tullock_equilibrium():
    spec = standard_tullock()
    assert contest_utility(spec, 0, (F(1, 4), F(1, 4))) == F(1, 4)
    assert contest_utility(spec, 1, (F(1, 4), F(1, 4))) == F(1, 4)


def test_contest_utility_orientation():
    # the ratio argument is a1/a2 and the share goes to player 0
    spec = standard_tullock()
    a = (F(1, 2), F(1, 4))
    assert contest_utility(spec, 0, a) == F(2, 3) - F(1, 2)
    assert contest_utility(spec, 1, a) == F(1, 3) - F(1, 4)


def test_contest_utility_guards():
    spec = standard_tullock()
    with pytest.raises(EvaluationDomainError):
        contest_utility(spec, 2, (F(1, 4), F(1, 4)))
    with pytest.raises(EvaluationDomainError):
        contest_utility(spec, 0, (F(0), F(1, 4)))
    with pytest.raises(EvaluationDomainError):
        ContestSpec(TullockRatio(1), (0, 1), (LinearCost(1), LinearCost(1)))
    with pytest.raises(EvaluationDomainError):
        ContestSpec(TullockRatio(1), (1, 1), (LinearCost(1),))


def test_contest_proof_weights():
    spec = ContestSpec(TullockRatio(1), (2, 1), (LinearCost(1), LinearCost(1)))
    assert spec.proof_weights() == (F(1, 2), F(1))
    assert standard_tullock().proof_weights() == (F(1), F(1))


def test_cournot_spec():
    cournot = CournotSpec(1, 1, (PowerCost(F(1, 2), 2), PowerCost(F(1, 2), 2)))
    assert contest_utility(cournot, 0, (F(1, 4), F(1, 4))) == F(3, 32)
    assert contest_utility(cournot, 0, (F(0), F(1, 4))) == F(0)
    assert cournot.proof_weights() == (F(1), F(1))
    with pytest.raises(EvaluationDomainError):
        contest_utility(cournot, 0, (F(-1, 4), F(1, 4)))
    with pytest.raises(EvaluationDomainError):
        CournotSpec(1, 0, (LinearCost(1), LinearCost(1)))


# -- the local potential and the r = 1 closed form ------------------------------


def test_local_potential_zero_at_anchor():
    spec = standard_tullock()
    a_star = (F(1, 4), F(1, 4))
    assert local_potential(spec, a_star, a_star, (F(1), F(1))) == 0


def test_local_potential_example_value():
    spec = standard_tullock()
    a_star = (F(1, 4), F(1, 4))
    gamma = (F(1), F(1))
    assert local_potential(spec, a_star, (F(1, 8), F(1, 8)), gamma) == F(-1, 12)
    assert local_potential(spec, a_star, (F(1, 8), F(1, 4)), gamma) == F(-1, 24)


def test_local_potential_unilateral_is_weighted_gain():
    spec = ContestSpec(TullockRatio(1), (2, 1), (LinearCost(1), LinearCost(1)))
    a_star = (F(4, 9), F(2, 9))
    gamma = spec.proof_weights()
    for x in [F(1, 9), F(1, 3), F(2, 3)]:
        gain = contest_utility(spec, 0, (x, a_star[1])) - contest_utility(spec, 0, a_star)
        assert local_potential(spec, a_star, (x, a_star[1]), gamma) == gamma[0] * gain


def test_potential_splits_into_tullock_terms():
    spec = standard_tullock()
    a_star = (F(1, 4), F(1, 4))
    gamma = (F(1), F(1))
    grid = [F(k, 12) for k in range(1, 13)]
    for x in grid:
        for y in grid:
            split = tullock_term(x) + tullock_term(y)
            assert local_potential(spec, a_star, (x, y), gamma) == split


def test_tullock_term_sign():
    for k in range(1, 81):
        x = F(k, 40)
        value = tullock_term(x)
        if x == F(1, 4):
            assert value == 0
        else:
            assert value < 0
    with pytest.raises(EvaluationDomainError):
        tullock_term(F(0))


def test_tullock_term_certificate():
    cert = tullock_term_certificate()
    assert cert.quadratic == (F(-1, 4), F(2), F(-4))
    assert cert.leading == F(-4)
    assert cert.root == F(1, 4)
    c0, c1, c2 = cert.quadratic
    for k in range(1, 20):
        x = F(k, 8)
        assert tullock_term(x) * (1 + 4 * x) == c0 + c1 * x + c2 * x * x
        assert c0 + c1 * x + c2 * x * x == cert.leading * (x - cert.root) ** 2


def test_tullock_equilibrium_closed_form():
    assert tullock_equilibrium(1) == (F(1, 4), F(1, 4))
    assert tullock_equilibrium(2) == (F(1, 2), F(1, 2))
    assert tullock_equilibrium(F(1, 2)) == (F(1, 8), F(1, 8))
    with pytest.raises(EvaluationDomainError):
        tullock_equilibrium(F(5, 2))
    with pytest.raises(EvaluationDomainError):
        tullock_equilibrium(0)


# -- grid verification of the potential argument --------------------------------


def test_prop3_standard_tullock():
    spec = standard_tullock()
    grid = [F(k, 16) for k in range(1, 17)]
    report = verify_prop3(spec, (F(1, 4), F(1, 4)), grid)
    assert report.ok
    assert report.gamma == (F(1), F(1))
    assert report.grids == (tuple(grid), tuple(grid))
    assert report.strict_ne_violations == ()
    assert report.potential_violations == ()


def test_prop3_across_exponents():
    # square grids keep t^r rational for half-integer r
    for r in (F(1, 2), F(1), F(3, 2), F(2)):
        spec = standard_tullock(r)
        a_star = tullock_equilibrium(r)
        grid = [a_star[0] * F(k * k, 4) for k in range(1, 5)]
        report = verify_prop3(spec, a_star, grid)
        assert report.ok, f"r={r}: {report.strict_ne_violations} {report.potential_violations}"


def test_prop3_asymmetric_values():
    spec = ContestSpec(TullockRatio(1), (2, 1), (LinearCost(1), LinearCost(1)))
    grids = ([F(k, 9) for k in range(1, 9)], [F(k, 18) for k in range(1, 9)])
    report = verify_prop3(spec, (F(4, 9), F(2, 9)), grids)
    assert report.ok
    assert report.gamma == (F(1, 2), F(1))


def test_prop3_gamma_override():
    spec = standard_tullock()
    grid = [F(k, 8) for k in range(1, 9)]
    report = verify_prop3(spec, (F(1, 4), F(1, 4)), grid, gamma=(F(2), F(2)))
    assert report.ok
    assert report.gamma == (F(2), F(2))


def test_prop3_reports_violations_at_wrong_anchor():
    spec = standard_tullock()
    grid = [F(k, 8) for k in range(1, 9)]
    report = verify_prop3(spec, (F(1, 8), F(1, 8)), grid)
    assert not report.ok
    assert (0, F(1, 4), F(1, 24)) in report.strict_ne_violations
    assert all(gain >= 0 for _, _, gain in report.strict_ne_violations)
    assert ((F(1, 4), F(1, 4)), F(1, 12)) in report.potential_violations


def test_prop3_anchor_must_lie_on_grid():
    spec = standard_tullock()
    grid = [F(k, 8) for k in range(1, 9)]
    with pytest.raises(EvaluationDomainError):
        verify_prop3(spec, (F(1, 3), F(1, 3)), grid)


def test_prop3_and_certify_refuse_a_float_anchor_or_gamma():
    # 0.25 and 0.5 are exact binary fractions, so `Fraction` would take them.
    spec = standard_tullock()
    grid = [F(1, 8), F(1, 4), F(3, 8)]
    assert verify_prop3(spec, ("1/4", "1/4"), grid, gamma=("1/2", "1/2")).ok
    for anchor, gamma in (((0.25, 0.25), None), ((F(1, 4), F(1, 4)), (0.5, 0.5)),
                          ((True, F(1, 4)), None)):
        with pytest.raises(EvaluationDomainError):
            verify_prop3(spec, anchor, grid, gamma=gamma)
    with pytest.raises(EvaluationDomainError, match="anchor profile must be two "
                       "rationals: refusing float 0.25"):
        discretize_and_certify(spec, (0.25, 0.25), grid)
    with pytest.raises(EvaluationDomainError, match="anchor profile must be two rationals"):
        verify_prop3(spec, (F(1, 4),), grid)


def test_prop3_rejects_gamma_that_is_not_two_positive_weights():
    spec = standard_tullock()
    grid = [F(1, 8), F(1, 4), F(3, 8)]
    for gamma in ((F(1),), (F(1), F(2), F(3)), (F(0), F(1)), (F(1), F(-1, 2)),
                  ("x", F(1))):
        with pytest.raises(EvaluationDomainError, match="two positive rationals"):
            verify_prop3(spec, (F(1, 4), F(1, 4)), grid, gamma=gamma)


def test_prop3_on_a_one_effort_grid():
    report = verify_prop3(standard_tullock(), (F(1, 4), F(1, 4)), [F(1, 4)])
    assert report.ok
    assert report.grids == ((F(1, 4),), (F(1, 4),))


class _CountingShare:
    """Wraps a share function and counts its `share` calls."""

    def __init__(self, f):
        self.f = f
        self.calls = 0

    def share(self, p, q):
        self.calls += 1
        return self.f.share(p, q)


def test_grid_checks_evaluate_each_utility_once():
    # one share per grid profile serves both players' utilities
    grids = ([F(k, 8) for k in range(1, 6)], [F(k, 16) for k in range(1, 8)])
    for anchor, r in (((F(1, 4), F(1, 4)), 1), ((F(3, 8), F(1, 16)), 2)):
        spec = standard_tullock(r)
        counting = _CountingShare(spec.success)
        verify_prop3(replace(spec, success=counting), anchor, grids)
        assert counting.calls == 5 * 7
        counting = _CountingShare(spec.success)
        discretize(replace(spec, success=counting), grids)
        assert counting.calls == 5 * 7
    # f(1), then f(t) and f(1/t) at each ratio
    ratios = [F(k, 32) for k in range(1, 32)]
    counting = _CountingShare(TullockRatio(1))
    assert ratio_band_check(counting, F(1, 4), ratios)
    assert counting.calls == 2 * len(ratios) + 1


def test_grid_checks_build_no_game(monkeypatch):
    # a one-effort grid is valid here, and a Game needs two actions per player
    def refuse(*args, **kwargs):
        raise AssertionError("a grid check built a Game")

    monkeypatch.setattr(Game, "__post_init__", refuse)
    monkeypatch.setattr(contests, "discretize", refuse)
    grid = [F(k, 8) for k in range(1, 9)]
    assert verify_prop3(standard_tullock(), (F(1, 4), F(1, 4)), grid).ok
    assert not verify_prop3(standard_tullock(), (F(1, 8), F(1, 8)), grid).ok
    assert ratio_band_check(TullockRatio(1), F(1, 4), grid[:-1])


def test_normalize_grids_matches_sorted_set():
    mixed = [F(3, 4), 1, F(1, 6), "1/3", F(2, 6), 0, F(5, 12), 1, F(3, 4), "-1/2"]
    reference = tuple(sorted({Fraction(x) for x in mixed}))
    assert contests._normalize_grids(mixed) == (reference, reference)
    other = [F(7, 9), F(1, 9), F(2, 3), F(1, 9), 2]
    assert contests._normalize_grids((mixed, other)) == (
        reference, tuple(sorted({Fraction(x) for x in other})))
    assert contests._normalize_grids([F(1, 2), F(2, 4)]) == ((F(1, 2),), (F(1, 2),))
    with pytest.raises(EvaluationDomainError):
        contests._normalize_grids(([F(1)], []))


def test_grids_refuse_floats():
    # A two-entry float grid is one grid, not a pair of per-player grids, and
    # no float is read as its binary fraction.
    spec = standard_tullock()
    with pytest.raises(EvaluationDomainError, match="refusing float 0.1"):
        verify_prop3(spec, (F(1, 10), F(1, 10)), [0.1, 0.2])
    for grid in ([0.25, 0.5, 0.125], [F(1, 4), 0.5], ([F(1, 4)], [0.5]), [True, F(1, 2)]):
        with pytest.raises(EvaluationDomainError):
            contests._normalize_grids(grid)
        with pytest.raises(EvaluationDomainError):
            discretize(spec, grid)
    with pytest.raises(EvaluationDomainError, match="two lists"):
        contests._normalize_grids(([F(1, 4)], [F(1, 2)], [F(3, 4)]))
    assert contests._normalize_grids(((F(1, 2), "1/4"), [1])) == (
        (F(1, 4), F(1, 2)), (F(1),))


# -- the admissible band ---------------------------------------------------------


def test_band_check_accepts_tullock():
    grid = [F(k, 32) for k in range(1, 32)]
    assert ratio_band_check(TullockRatio(1), F(1, 4), grid)


def test_band_check_accepts_interior_mix():
    mid = MixRatio(F(1, 2), band_functions(F(1, 4)))
    grid = [F(k, 32) for k in range(1, 32)]
    assert ratio_band_check(mid, F(1, 4), grid)


def test_band_check_rejects_envelopes():
    # the band is open: its own boundary functions sit on the edge
    upper, lower = band_functions(F(1, 4))
    grid = [F(k, 32) for k in range(1, 32)]
    assert not ratio_band_check(upper, F(1, 4), grid)
    assert not ratio_band_check(lower, F(1, 4), grid)


def test_band_check_rejects_too_wide_parameter():
    grid = [F(k, 8) for k in range(1, 8)]
    assert not ratio_band_check(TullockRatio(1), F(1, 2), grid)


def test_band_check_requires_share_identity():
    class ConstantShare:
        def share(self, p, q):
            return 2, 3

    class SkewShare:
        def share(self, p, q):
            return (1, 2) if p == q else (2, 5)

    grid = [F(k, 8) for k in range(1, 8)]
    assert not ratio_band_check(ConstantShare(), F(1, 4), grid)
    assert not ratio_band_check(SkewShare(), F(1, 4), grid)


def test_band_check_guards():
    grid = [F(1, 2)]
    with pytest.raises(EvaluationDomainError):
        ratio_band_check(TullockRatio(1), F(0), grid)
    with pytest.raises(EvaluationDomainError):
        ratio_band_check(TullockRatio(1), F(3, 5), grid)
    with pytest.raises(EvaluationDomainError):
        ratio_band_check(TullockRatio(1), F(1, 4), [F(1)])
    with pytest.raises(EvaluationDomainError):
        ratio_band_check(TullockRatio(1), F(1, 4), [F(3, 2)])


# -- discretization and certification --------------------------------------------


def test_discretize_builds_grid_game():
    spec = standard_tullock()
    grid = [F(1, 8), F(1, 4), F(3, 8), F(1, 2)]
    game = discretize(spec, grid)
    assert game.shape == (4, 4)
    assert game.actions == (("1/8", "1/4", "3/8", "1/2"),) * 2
    assert game.name == "contest 4x4"
    assert game.u(0, (1, 1)) == F(1, 4)
    assert game.u(1, (1, 1)) == F(1, 4)
    assert game.u(0, (0, 0)) == F(3, 8)
    assert game.u(0, (3, 0)) == contest_utility(spec, 0, (F(1, 2), F(1, 8)))


def test_discretize_and_certify_tullock_grid():
    spec = standard_tullock()
    grid = [F(1, 8), F(1, 4), F(3, 8), F(1, 2)]
    game, result = discretize_and_certify(spec, (F(1, 4), F(1, 4)), grid, "tullock 4x4")
    assert game.name == "tullock 4x4"
    assert isinstance(result, UniquenessCertificate)
    assert result.concept == "cce"
    assert result.a_star == (1, 1)
    assert result.gamma == (F(1, 2), F(1, 2))
    assert result.slack == F(1, 80)
    assert verify_certificate(game, certificate_to_dict(result)) == []
    singleton = is_singleton(build_polytope(game, "cce"))
    assert singleton.is_singleton
    assert singleton.point.as_vector(game)[game.profile_index((1, 1))] == 1


def test_discretize_and_certify_asymmetric_grids():
    spec = ContestSpec(TullockRatio(1), (2, 1),
                       (LinearCost(F(8, 9)), PowerCost(F(16, 9), 2)))
    grids = ([F(k, 8) for k in range(1, 9)], [F(k, 16) for k in range(1, 9)])
    assert verify_prop3(spec, (F(1, 2), F(1, 4)), grids).ok
    game, result = discretize_and_certify(spec, (F(1, 2), F(1, 4)), grids)
    assert isinstance(result, UniquenessCertificate)
    assert result.a_star == (3, 3)
    assert verify_certificate(game, certificate_to_dict(result)) == []


def test_discretize_and_certify_cournot():
    cournot = CournotSpec(1, 1, (PowerCost(F(1, 2), 2), PowerCost(F(1, 2), 2)))
    grid = [F(k, 8) for k in range(0, 5)]
    assert verify_prop3(cournot, (F(1, 4), F(1, 4)), grid).ok
    game, result = discretize_and_certify(cournot, (F(1, 4), F(1, 4)), grid)
    assert isinstance(result, UniquenessCertificate)
    assert result.a_star == (2, 2)
    assert verify_certificate(game, certificate_to_dict(result)) == []


def test_discretize_anchor_must_lie_on_grid():
    spec = standard_tullock()
    with pytest.raises(EvaluationDomainError):
        discretize_and_certify(spec, (F(1, 3), F(1, 3)), [F(1, 8), F(1, 4)])


# -- serialization ----------------------------------------------------------------


def test_contest_round_trip():
    spec = ContestSpec(TullockRatio(F(3, 2)), (2, 1),
                       (LinearCost(F(8, 9)), PowerCost(F(16, 9), 2)))
    assert contest_from_dict(contest_to_dict(spec)) == spec
    assert load_contest(save_contest(spec)) == spec


def test_success_round_trip_nested_mix():
    mix = MixRatio(F(1, 3), (BandUpper(F(1, 4)), TullockRatio(2)))
    assert success_from_dict(success_to_dict(mix)) == mix
    lower = BandLower(F(1, 2))
    assert success_from_dict(success_to_dict(lower)) == lower


def test_success_from_dict_unwraps_ratio_kind():
    data = {"kind": "ratio", "f": {"kind": "tullock", "r": "2"}}
    assert success_from_dict(data) == TullockRatio(2)


def test_cost_round_trip():
    for cost in (LinearCost(F(3, 2)), PowerCost(F(1, 2), 3)):
        assert cost_from_dict(cost_to_dict(cost)) == cost


def test_serialization_rejects_unknown_kinds():
    with pytest.raises(EvaluationDomainError):
        success_from_dict({"kind": "logit", "scale": "1"})
    with pytest.raises(EvaluationDomainError):
        success_to_dict(LinearCost(1))
    with pytest.raises(EvaluationDomainError):
        cost_from_dict({"kind": "cubic"})
    # A descriptor that is no object, or an exponent that is no JSON int.
    for success in ("tullock", ["tullock"], {"kind": "mix", "alpha": "1/2", "components": ["x"]}):
        with pytest.raises(EvaluationDomainError, match="share function must be a JSON object"):
            success_from_dict(success)
    for exponent in ("x", "2", 2.7, 2.0, True, None):
        with pytest.raises(EvaluationDomainError, match="exponent must be a JSON int"):
            cost_from_dict({"kind": "power", "coefficient": "1", "exponent": exponent})
    assert cost_from_dict({"kind": "power", "coefficient": "1", "exponent": 2}) == PowerCost(1, 2)
    with pytest.raises(EvaluationDomainError, match="cost function must be a JSON object"):
        cost_from_dict("linear")
    tullock = {"kind": "tullock", "r": "1"}
    linear = {"kind": "linear", "slope": "1"}
    for values, costs in (("12", [linear, linear]), (["1", "1"], {"0": linear, "1": linear})):
        with pytest.raises(EvaluationDomainError, match="values and costs must be JSON lists"):
            contest_from_dict({"success": tullock, "values": values, "costs": costs})
    with pytest.raises(EvaluationDomainError):
        contest_from_dict({"success": {"kind": "tullock", "r": "1"}})
    with pytest.raises(EvaluationDomainError):
        load_contest(b"not json at all")


def test_load_grid_forms():
    assert load_grid(b'["1/8", "1/4"]') == ((F(1, 8), F(1, 4)),) * 2
    assert load_grid('[["1/8"], ["1/16", "1/8"]]') == ((F(1, 8),), (F(1, 16), F(1, 8)))
    assert load_grid('{"grid": ["1/2", "1/4", "1/2"]}') == ((F(1, 4), F(1, 2)),) * 2
    assert load_grid('{"grids": [["1"], ["2"]]}') == ((F(1),), (F(2),))


def test_load_grid_rejects_malformed_input():
    with pytest.raises(EvaluationDomainError):
        load_grid(b"[]")
    with pytest.raises(EvaluationDomainError):
        load_grid('[["1"], ["2"], ["3"]]')
    with pytest.raises(EvaluationDomainError):
        load_grid("{broken")
    with pytest.raises(EvaluationDomainError):
        load_grid('{"other": 1}')
