"""Property test: the integer grid checks against their pointwise Fraction forms.

`verify_prop3` evaluates one utility table, scales it to ints and decides
every strict-NE gain and every sign of Phi by integer comparison;
`ratio_band_check` decides the band with integer cross-products; and
`TullockRatio.at` takes integer roots of t's numerator and denominator.
The references are the forms they replaced: gains through `spec.utility`,
Phi through `local_potential`, the band as a chain of Fraction
inequalities, and the share as power / (1 + power) from `fraction_power`
in conftest.
"""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from eqcert.contests import (  # noqa: E402
    BandLower,
    BandUpper,
    ContestSpec,
    CournotSpec,
    EvaluationDomainError,
    LinearCost,
    MixRatio,
    PowerCost,
    TullockRatio,
    local_potential,
    ratio_band_check,
    verify_prop3,
)

from conftest import fraction_power  # noqa: E402

SETTINGS = hypothesis.settings(max_examples=200, deadline=None, derandomize=True,
                               database=None)
EXPONENTS = (Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2))


def _positive(draw, top=6):
    return Fraction(draw(st.integers(1, top)), draw(st.integers(1, top)))


def _cost(draw):
    if draw(st.booleans()):
        return LinearCost(Fraction(draw(st.integers(0, 4)), draw(st.integers(1, 4))))
    return PowerCost(Fraction(draw(st.integers(0, 4)), draw(st.integers(1, 4))),
                     draw(st.integers(1, 3)))


@st.composite
def _grid_check(draw):
    """(spec, a_star, grids, gamma): 1 to 6 efforts per player, anchor on the grid."""
    per_player = draw(st.booleans())
    sizes = (draw(st.integers(1, 6)), draw(st.integers(1, 6)))
    if draw(st.booleans()):
        spec = CournotSpec(_positive(draw), _positive(draw), (_cost(draw), _cost(draw)))
        scale = draw(st.integers(1, 12))
        points = [[Fraction(draw(st.integers(0, 2 * scale)), scale)
                   for _ in range(size)] for size in sizes]
    else:
        r = draw(st.sampled_from(EXPONENTS))
        if draw(st.booleans()):
            # unit values and costs; the grid s k^2 with s = r/16 holds r/4 at k = 2
            spec = ContestSpec(TullockRatio(r), (1, 1), (LinearCost(1), LinearCost(1)))
            base = r / 16
        else:
            spec = ContestSpec(TullockRatio(r), (_positive(draw), _positive(draw)),
                               (_cost(draw), _cost(draw)))
            base = _positive(draw, 16) / 16
        # square multiples of one base keep every ratio a square, so t^r is rational
        points = [[base * draw(st.integers(1, 7)) ** 2 for _ in range(size)]
                  for size in sizes]
    if not per_player:
        points[1] = points[0]
    anchor = (draw(st.sampled_from(points[0])), draw(st.sampled_from(points[1])))
    grids = (points[0], points[1]) if per_player else points[0]
    gamma = None if draw(st.booleans()) else (_positive(draw), _positive(draw))
    return spec, anchor, grids, gamma


def _reference_prop3(spec, a_star, grids, gamma):
    """verify_prop3's fields, evaluated pointwise in Fractions."""
    if isinstance(grids, tuple):
        grid1, grid2 = (tuple(sorted(set(g))) for g in grids)
    else:
        grid1 = grid2 = tuple(sorted(set(grids)))
    gamma = spec.proof_weights() if gamma is None else gamma
    base = (spec.utility(0, a_star), spec.utility(1, a_star))
    ne_violations = []
    for i, grid in enumerate((grid1, grid2)):
        for x in grid:
            if x == a_star[i]:
                continue
            profile = (x, a_star[1]) if i == 0 else (a_star[0], x)
            gain = spec.utility(i, profile) - base[i]
            if gain >= 0:
                ne_violations.append((i, x, gain))
    potential_violations = []
    for x in grid1:
        for y in grid2:
            if (x, y) != a_star:
                value = local_potential(spec, a_star, (x, y), gamma)
                if value >= 0:
                    potential_violations.append(((x, y), value))
    return (tuple(a_star), tuple(gamma), (grid1, grid2),
            tuple(ne_violations), tuple(potential_violations))


@SETTINGS
@hypothesis.given(_grid_check())
def test_prop3_equals_the_pointwise_reference(case):
    spec, a_star, grids, gamma = case
    report = verify_prop3(spec, a_star, grids, gamma)
    got = (report.a_star, report.gamma, report.grids,
           report.strict_ne_violations, report.potential_violations)
    assert got == _reference_prop3(spec, a_star, grids, gamma)


class _ConstantShare:
    def at(self, t):
        return Fraction(2, 3)


class _SkewShare:
    def at(self, t):
        return Fraction(1, 2) if Fraction(t) == 1 else Fraction(2, 5)


def _band_parameter(draw):
    den = draw(st.integers(2, 12))
    return Fraction(draw(st.integers(1, den // 2)), den)


@st.composite
def _share(draw, depth=0):
    """A share function and whether it needs square ratios to stay rational."""
    kind = draw(st.sampled_from(
        ("tullock", "upper", "lower", "constant", "skew") + (("mix",) if depth == 0 else ())))
    if kind == "tullock":
        r = draw(st.sampled_from(EXPONENTS))
        return TullockRatio(r), r.denominator != 1
    if kind == "upper":
        return BandUpper(_band_parameter(draw)), False
    if kind == "lower":
        return BandLower(_band_parameter(draw)), False
    if kind == "constant":
        return _ConstantShare(), False
    if kind == "skew":
        return _SkewShare(), False
    (f, f_square), (g, g_square) = draw(_share(depth + 1)), draw(_share(depth + 1))
    alpha = Fraction(draw(st.integers(0, 4)), 4)
    return MixRatio(alpha, (f, g)), f_square or g_square


def _reference_band(f, c, grid):
    if f.at(Fraction(1)) != Fraction(1, 2):
        return False
    for t in grid:
        value = f.at(t)
        if f.at(1 / t) != 1 - value:
            return False
        if not Fraction(1, 2) + c * (1 - 1 / t) < value < Fraction(1, 2) - c * (1 - t):
            return False
    return True


@SETTINGS
@hypothesis.given(_share(), st.data())
def test_band_check_equals_the_fraction_formula(share, data):
    f, square = share
    c = data.draw(st.sampled_from((Fraction(1, 4), Fraction(1, 2))) | st.builds(
        lambda k, d: Fraction(min(k, d // 2), d), st.integers(1, 6), st.integers(2, 12)))
    ratios = []
    for _ in range(data.draw(st.integers(1, 8))):
        q = data.draw(st.integers(2, 30))
        t = Fraction(data.draw(st.integers(1, q - 1)), q)
        ratios.append(t * t if square else t)
    assert ratio_band_check(f, c, ratios) == _reference_band(f, c, ratios)


@SETTINGS
@hypothesis.given(st.integers(1, 60), st.integers(1, 60), st.sampled_from((1, 2, 3)),
                  st.sampled_from((Fraction(1, 2), Fraction(1), Fraction(3, 2),
                                   Fraction(2), Fraction(1, 3), Fraction(2, 3),
                                   Fraction(5, 2), Fraction(3))))
def test_tullock_share_equals_the_fraction_power_reference(p, q, power, r):
    # t = (p/q)^power makes some roots exact and leaves others irrational
    t = Fraction(p, q) ** power
    expected = fraction_power(t, r)
    if expected is None:
        with pytest.raises(EvaluationDomainError, match="is not rational"):
            TullockRatio(r).at(t)
    else:
        assert TullockRatio(r).at(t) == expected / (1 + expected)
