"""Two-player contests with exact rational evaluation.

Success shares are ratio-based: player 1's share is f(a_1/a_2) for a
share function f with f(t) + f(1/t) = 1, which covers Tullock contests
t^r/(1+t^r) and the admissible band around them.  Utilities are
u_i(a) = v_i p_i(a) - c_i(a_i).  Everything evaluates exactly on rational
grids or raises EvaluationDomainError; discretized grid games feed the
uniqueness certification pipeline with the proof weights 1/v_i.

A grid check evaluates each player's utility once per grid profile.  The
Proposition 3 check scales each player's utilities to ints by their lcm
denominator and decides every strict-NE gain and every sign of the local
potential by integer comparison; the band check decides its two strict
inequalities with integer cross-products.  A Fraction is built only for a
reported violation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence

from .certify import Refutation, UniquenessCertificate, _certificate, certify_unique_pure_cce
from .games import Game, _gain_slack, _normalize, read_json
from .rational import (
    RationalFormatError,
    format_rational,
    iroot,
    parse_rational,
    scaled_ints,
)


class EvaluationDomainError(ValueError):
    """Evaluation requested outside the exactly-evaluable domain."""


# -- cost functions ------------------------------------------------------------


@dataclass(frozen=True)
class LinearCost:
    slope: Fraction

    def __post_init__(self):
        object.__setattr__(self, "slope", Fraction(self.slope))
        if self.slope < 0:
            raise EvaluationDomainError("cost slope must be nonnegative")

    def at(self, x: Fraction) -> Fraction:
        return self.slope * x


@dataclass(frozen=True)
class PowerCost:
    coefficient: Fraction
    exponent: int

    def __post_init__(self):
        object.__setattr__(self, "coefficient", Fraction(self.coefficient))
        if self.coefficient < 0:
            raise EvaluationDomainError("cost coefficient must be nonnegative")
        if not isinstance(self.exponent, int) or self.exponent < 1:
            raise EvaluationDomainError("cost exponent must be an integer >= 1")

    def at(self, x: Fraction) -> Fraction:
        return self.coefficient * x ** self.exponent


# -- share functions -----------------------------------------------------------


@dataclass(frozen=True)
class TullockRatio:
    """f(t) = t^r / (1 + t^r); exact whenever t^r is rational."""

    r: Fraction

    def __post_init__(self):
        object.__setattr__(self, "r", Fraction(self.r))
        if self.r <= 0:
            raise EvaluationDomainError("tullock exponent must be positive")

    def at(self, t: Fraction) -> Fraction:
        """P / (P + Q) with P/Q = t^r; p^m/q^m is in lowest terms, so t^r is
        rational exactly when both n-th roots are integers (t = p/q, r = m/n)."""
        if t <= 0:
            raise EvaluationDomainError("share functions take positive ratios")
        m, n = self.r.numerator, self.r.denominator
        p_root, p_exact = iroot(t.numerator ** m, n)
        q_root, q_exact = iroot(t.denominator ** m, n)
        if not (p_exact and q_exact):
            raise EvaluationDomainError(
                f"{format_rational(t)}^{format_rational(self.r)} is not rational")
        return Fraction(p_root, p_root + q_root)


@dataclass(frozen=True)
class BandUpper:
    """Upper envelope of the admissible band: equality on the right edge."""

    c: Fraction

    def __post_init__(self):
        object.__setattr__(self, "c", Fraction(self.c))
        if not 0 < self.c <= Fraction(1, 2):
            raise EvaluationDomainError("band parameter must lie in (0, 1/2]")

    def at(self, t: Fraction) -> Fraction:
        if t <= 0:
            raise EvaluationDomainError("share functions take positive ratios")
        if t <= 1:
            return Fraction(1, 2) - self.c + self.c * t
        return Fraction(1, 2) + self.c - self.c / t


@dataclass(frozen=True)
class BandLower:
    """Lower envelope: equality on the left edge, clipped to [0, 1]."""

    c: Fraction

    def __post_init__(self):
        object.__setattr__(self, "c", Fraction(self.c))
        if not 0 < self.c <= Fraction(1, 2):
            raise EvaluationDomainError("band parameter must lie in (0, 1/2]")

    def at(self, t: Fraction) -> Fraction:
        if t <= 0:
            raise EvaluationDomainError("share functions take positive ratios")
        if t <= 1:
            return max(Fraction(0), Fraction(1, 2) + self.c - self.c / t)
        return min(Fraction(1), Fraction(1, 2) - self.c + self.c * t)


@dataclass(frozen=True)
class MixRatio:
    """alpha-mix of two share functions; stays a share function."""

    alpha: Fraction
    components: tuple

    def __post_init__(self):
        object.__setattr__(self, "alpha", Fraction(self.alpha))
        object.__setattr__(self, "components", tuple(self.components))
        if not 0 <= self.alpha <= 1:
            raise EvaluationDomainError("mix weight must lie in [0, 1]")
        if len(self.components) != 2:
            raise EvaluationDomainError("mix takes exactly two components")

    def at(self, t: Fraction) -> Fraction:
        f, g = self.components
        return self.alpha * f.at(t) + (1 - self.alpha) * g.at(t)


# -- contest specifications ----------------------------------------------------


@dataclass(frozen=True)
class ContestSpec:
    success: object
    values: tuple[Fraction, Fraction]
    costs: tuple

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(Fraction(v) for v in self.values))
        object.__setattr__(self, "costs", tuple(self.costs))
        if len(self.values) != 2 or len(self.costs) != 2:
            raise EvaluationDomainError("contests have exactly two players")
        if any(v <= 0 for v in self.values):
            raise EvaluationDomainError("prize values must be positive")

    def utility(self, i: int, a: Sequence[Fraction]) -> Fraction:
        a1, a2 = Fraction(a[0]), Fraction(a[1])
        if a1 <= 0 or a2 <= 0:
            raise EvaluationDomainError("contest efforts must be positive")
        share1 = self.success.at(a1 / a2)
        share = share1 if i == 0 else 1 - share1
        effort = a1 if i == 0 else a2
        return self.values[i] * share - self.costs[i].at(effort)

    def proof_weights(self) -> tuple[Fraction, Fraction]:
        return (1 / self.values[0], 1 / self.values[1])


@dataclass(frozen=True)
class CournotSpec:
    """Linear-demand duopoly u_i = a_i (alpha - beta (a_1 + a_2)) - c_i(a_i)."""

    alpha: Fraction
    beta: Fraction
    costs: tuple

    def __post_init__(self):
        object.__setattr__(self, "alpha", Fraction(self.alpha))
        object.__setattr__(self, "beta", Fraction(self.beta))
        object.__setattr__(self, "costs", tuple(self.costs))
        if self.beta <= 0:
            raise EvaluationDomainError("demand slope must be positive")
        if len(self.costs) != 2:
            raise EvaluationDomainError("contests have exactly two players")

    def utility(self, i: int, a: Sequence[Fraction]) -> Fraction:
        a1, a2 = Fraction(a[0]), Fraction(a[1])
        if a1 < 0 or a2 < 0:
            raise EvaluationDomainError("quantities must be nonnegative")
        own = a1 if i == 0 else a2
        return own * (self.alpha - self.beta * (a1 + a2)) - self.costs[i].at(own)

    def proof_weights(self) -> tuple[Fraction, Fraction]:
        return (Fraction(1), Fraction(1))


def contest_utility(spec, i: int, a: Sequence[Fraction]) -> Fraction:
    """Exact utility of player i at effort pair a."""
    if i not in (0, 1):
        raise EvaluationDomainError("player index must be 0 or 1")
    return spec.utility(i, a)


def local_potential(spec, a_star: Sequence[Fraction], a: Sequence[Fraction],
                    gamma: Sequence[Fraction]) -> Fraction:
    """Phi(a) = sum_i gamma_i (u_i(a) - u_i(a_i*, a_-i)); zero at a = a*.

    The pointwise form: verify_prop3 gets the same values from one integer
    utility table.
    """
    a_star = tuple(Fraction(x) for x in a_star)
    a = tuple(Fraction(x) for x in a)
    total = Fraction(0)
    for i in range(2):
        unilateral = (a_star[0], a[1]) if i == 0 else (a[0], a_star[1])
        total += Fraction(gamma[i]) * (spec.utility(i, a) - spec.utility(i, unilateral))
    return total


# -- the standard Tullock closed form -----------------------------------------


def tullock_equilibrium(r: Fraction) -> tuple[Fraction, Fraction]:
    """Strict NE (r/4, r/4) of the unit-value, unit-cost Tullock contest."""
    r = Fraction(r)
    if not 0 < r <= 2:
        raise EvaluationDomainError("closed-form equilibrium needs r in (0, 2]")
    return (r / 4, r / 4)


def tullock_term(x: Fraction) -> Fraction:
    """One summand of the r=1 potential: 3/4 - x - 1/(1+4x), maximized at 1/4."""
    x = Fraction(x)
    if x <= 0:
        raise EvaluationDomainError("the term is evaluated at positive efforts")
    return Fraction(3, 4) - x - 1 / (1 + 4 * x)


@dataclass(frozen=True)
class TullockTermCertificate:
    quadratic: tuple[Fraction, Fraction, Fraction]  # c0 + c1 x + c2 x^2
    leading: Fraction
    root: Fraction


def tullock_term_certificate() -> TullockTermCertificate:
    """Exact sign analysis: (3/4 - x - 1/(1+4x)) (1+4x) = -4 (x - 1/4)^2.

    Expands the left side symbolically and factors the quadratic; a zero
    discriminant and negative leading coefficient prove the term is <= 0
    with equality only at x = 1/4.
    """
    # (3/4 - x)(1 + 4x) - 1, coefficients in ascending degree
    lin = (Fraction(3, 4), Fraction(-1))
    fac = (Fraction(1), Fraction(4))
    quad = [Fraction(0)] * 3
    for i, p in enumerate(lin):
        for j, q in enumerate(fac):
            quad[i + j] += p * q
    quad[0] -= 1
    c0, c1, c2 = quad
    if c1 * c1 - 4 * c0 * c2 != 0 or c2 >= 0:
        raise EvaluationDomainError("the quadratic lost its double root")
    root = -c1 / (2 * c2)
    if (c2, -2 * c2 * root, c2 * root * root) != (c2, c1, c0):
        raise EvaluationDomainError("factored form disagrees with the expansion")
    return TullockTermCertificate((c0, c1, c2), c2, root)


# -- Proposition 3 grid verification -------------------------------------------


@dataclass(frozen=True)
class Prop3Report:
    a_star: tuple[Fraction, Fraction]
    gamma: tuple[Fraction, Fraction]
    grids: tuple[tuple[Fraction, ...], tuple[Fraction, ...]]
    # (player, deviation effort, payoff gain >= 0)
    strict_ne_violations: tuple[tuple[int, Fraction, Fraction], ...]
    # (effort profile, potential value >= 0)
    potential_violations: tuple[tuple[tuple[Fraction, Fraction], Fraction], ...]

    @property
    def ok(self) -> bool:
        return not self.strict_ne_violations and not self.potential_violations


def _sorted_grid(grid) -> tuple[Fraction, ...]:
    """Distinct efforts of one grid in increasing order.

    Duplicates are found by (numerator, denominator) and the order by the
    int key x * D, D the lcm of the grid's denominators.
    """
    efforts = {}
    for x in grid:
        try:
            x = parse_rational(x)
        except RationalFormatError as exc:
            raise EvaluationDomainError(str(exc)) from None
        efforts.setdefault((x.numerator, x.denominator), x)
    if not efforts:
        raise EvaluationDomainError("effort grids must be nonempty")
    scale = lcm(*(d for _, d in efforts))
    return tuple(sorted(efforts.values(),
                        key=lambda x: x.numerator * (scale // x.denominator)))


def _normalize_grids(grids) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """Per-player grids if grids[0] is a list or tuple; else one grid for both."""
    if grids and isinstance(grids[0], (list, tuple)):
        if len(grids) != 2 or not isinstance(grids[1], (list, tuple)):
            raise EvaluationDomainError("per-player grids come as two lists")
        return _sorted_grid(grids[0]), _sorted_grid(grids[1])
    grid = _sorted_grid(grids)
    return grid, grid


def _utility_table(spec, grid1: Sequence[Fraction], grid2: Sequence[Fraction]
                   ) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """Both players' utilities at every grid profile, grid1's effort slowest."""
    u1, u2 = [], []
    for x in grid1:
        for y in grid2:
            u1.append(spec.utility(0, (x, y)))
            u2.append(spec.utility(1, (x, y)))
    return tuple(u1), tuple(u2)


def _pair(values, expected: str) -> tuple[Fraction, Fraction]:
    """Two rationals read with `parse_rational`, so a float is refused."""
    try:
        pair = tuple(parse_rational(x) for x in values)
    except (TypeError, RationalFormatError) as exc:
        raise EvaluationDomainError(f"{expected}: {exc}") from None
    if len(pair) != 2:
        raise EvaluationDomainError(expected)
    return pair


def verify_prop3(spec, a_star: Sequence[Fraction], grids,
                 gamma: Sequence[Fraction] | None = None) -> Prop3Report:
    """Strict-NE inequalities plus Phi < 0 on a grid, with the proof weights.

    An empty violation list is a complete uniqueness proof for the induced
    grid game and necessary-condition sampling for the continuum claim.
    With u_i = U_i / d_i over ints U_i and W_i = gamma_i / d_i = w_i / den,
    Phi * den = w_1 dU_1 + w_2 dU_2, so every sign is an int comparison.
    """
    grid1, grid2 = _normalize_grids(grids)
    a_star = _pair(a_star, "the anchor profile must be two rationals")
    try:
        i_star, j_star = grid1.index(a_star[0]), grid2.index(a_star[1])
    except ValueError:
        raise EvaluationDomainError("the anchor profile must lie on the grid") from None
    gamma = _pair(spec.proof_weights() if gamma is None else gamma,
                  "gamma must be two positive rationals")
    if any(g <= 0 for g in gamma):
        raise EvaluationDomainError("gamma must be two positive rationals")

    table1, table2 = _utility_table(spec, grid1, grid2)
    (u1, d1), (u2, d2) = scaled_ints(table1), scaled_ints(table2)
    n2 = len(grid2)
    star = i_star * n2 + j_star

    ne_violations = []
    for i, x in enumerate(grid1):
        gain = u1[i * n2 + j_star] - u1[star]
        if gain >= 0 and i != i_star:
            ne_violations.append((0, x, Fraction(gain, d1)))
    for j, y in enumerate(grid2):
        gain = u2[i_star * n2 + j] - u2[star]
        if gain >= 0 and j != j_star:
            ne_violations.append((1, y, Fraction(gain, d2)))

    (w1, w2), den = scaled_ints([gamma[0] / d1, gamma[1] / d2])
    anchor_row = u1[i_star * n2:(i_star + 1) * n2]  # u_1(a_1*, y)
    potential_violations = []
    for i, x in enumerate(grid1):
        row = i * n2
        anchor_column = u2[row + j_star]  # u_2(x, a_2*)
        for j, y in enumerate(grid2):
            scaled = (w1 * (u1[row + j] - anchor_row[j])
                      + w2 * (u2[row + j] - anchor_column))
            if scaled >= 0 and row + j != star:
                potential_violations.append(((x, y), Fraction(scaled, den)))

    return Prop3Report(a_star, gamma, (grid1, grid2),
                       tuple(ne_violations), tuple(potential_violations))


# -- the admissible band (Eq. 5) ----------------------------------------------


def band_functions(c: Fraction) -> tuple[BandUpper, BandLower]:
    """Envelope pair of the band that makes (c, c) a strict NE."""
    return BandUpper(c), BandLower(c)


def ratio_band_check(f, c: Fraction, grid: Sequence[Fraction]) -> bool:
    """Strict band inequalities at every grid ratio t in (0, 1).

    Also requires f(1) = 1/2 and the share identity f(t) + f(1/t) = 1 at
    the grid points.  Envelope functions themselves fail: the band is open.
    With t = p/q, c = cn/cd and f(t) = a/b, the band
    1/2 + c (1 - 1/t) < f(t) < 1/2 - c (1 - t) reads
    (b - 2a) cd p < 2b cn (q - p) < (b - 2a) cd q.
    """
    c = Fraction(c)
    if not 0 < c <= Fraction(1, 2):
        raise EvaluationDomainError("band parameter must lie in (0, 1/2]")
    if f.at(Fraction(1)) != Fraction(1, 2):
        return False
    cn, cd = c.numerator, c.denominator
    for t in grid:
        t = Fraction(t)
        p, q = t.numerator, t.denominator
        if not 0 < p < q:
            raise EvaluationDomainError("band grid ratios must lie in (0, 1)")
        value = f.at(t)
        if f.at(Fraction(q, p)) != 1 - value:
            return False
        a, b = value.numerator, value.denominator
        gap = (b - 2 * a) * cd
        width = 2 * b * cn * (q - p)
        if not gap * p < width < gap * q:
            return False
    return True


# -- discretization ------------------------------------------------------------


def discretize(spec, grids, name: str | None = None) -> Game:
    """Finite game with payoffs contest_utility at all grid profiles."""
    grid1, grid2 = _normalize_grids(grids)
    actions = (tuple(format_rational(x) for x in grid1),
               tuple(format_rational(x) for x in grid2))
    return Game(actions, _utility_table(spec, grid1, grid2),
                name or f"contest {len(grid1)}x{len(grid2)}")


def discretize_and_certify(spec, a_star: Sequence[Fraction], grids,
                           name: str | None = None
                           ) -> tuple[Game, UniquenessCertificate | Refutation]:
    """Grid game plus its unique-CCE decision, tried first with the proof weights.

    The normalized proof weights certify the anchor when its weighted "cce"
    gains are negative elsewhere (`games._gain_slack`), and the anchor is
    then the unique CCE; otherwise `certify_unique_pure_cce` decides.
    """
    grid1, grid2 = _normalize_grids(grids)
    a_star = _pair(a_star, "the anchor profile must be two rationals")
    if a_star[0] not in grid1 or a_star[1] not in grid2:
        raise EvaluationDomainError("the anchor profile must lie on the grid")
    game = discretize(spec, (grid1, grid2), name)
    anchor = (grid1.index(a_star[0]), grid2.index(a_star[1]))
    gamma = _normalize(spec.proof_weights())
    slack = _gain_slack(game, anchor, gamma, "cce")
    if slack is None:
        return game, certify_unique_pure_cce(game)
    return game, _certificate(game, "cce", anchor, gamma, slack)


# -- serialization -------------------------------------------------------------


def success_to_dict(f) -> dict:
    if isinstance(f, TullockRatio):
        return {"kind": "tullock", "r": format_rational(f.r)}
    if isinstance(f, BandUpper):
        return {"kind": "band_upper", "c": format_rational(f.c)}
    if isinstance(f, BandLower):
        return {"kind": "band_lower", "c": format_rational(f.c)}
    if isinstance(f, MixRatio):
        return {"kind": "mix", "alpha": format_rational(f.alpha),
                "components": [success_to_dict(g) for g in f.components]}
    raise EvaluationDomainError(f"unknown share function {type(f).__name__}")


def _descriptor(data, what: str) -> dict:
    if not isinstance(data, dict):
        raise EvaluationDomainError(f"{what} must be a JSON object, got {json.dumps(data)}")
    return data


def success_from_dict(data: dict):
    kind = _descriptor(data, "a share function").get("kind")
    if kind == "tullock":
        return TullockRatio(parse_rational(data["r"]))
    if kind == "band_upper":
        return BandUpper(parse_rational(data["c"]))
    if kind == "band_lower":
        return BandLower(parse_rational(data["c"]))
    if kind == "mix":
        components = tuple(success_from_dict(d) for d in data["components"])
        return MixRatio(parse_rational(data["alpha"]), components)
    if kind == "ratio":
        # generic wrapper around a named share descriptor
        return success_from_dict(data["f"])
    raise EvaluationDomainError(f"unknown share function kind {kind!r}")


def cost_to_dict(cost) -> dict:
    if isinstance(cost, LinearCost):
        return {"kind": "linear", "slope": format_rational(cost.slope)}
    if isinstance(cost, PowerCost):
        return {"kind": "power", "coefficient": format_rational(cost.coefficient),
                "exponent": cost.exponent}
    raise EvaluationDomainError(f"unknown cost function {type(cost).__name__}")


def cost_from_dict(data: dict):
    kind = _descriptor(data, "a cost function").get("kind")
    if kind == "linear":
        return LinearCost(parse_rational(data["slope"]))
    if kind == "power":
        exponent = data["exponent"]
        if type(exponent) is not int:
            raise EvaluationDomainError(f"cost exponent must be a JSON int, got {json.dumps(exponent)}")
        return PowerCost(parse_rational(data["coefficient"]), exponent)
    raise EvaluationDomainError(f"unknown cost function kind {kind!r}")


def contest_to_dict(spec: ContestSpec) -> dict:
    return {
        "success": success_to_dict(spec.success),
        "values": [format_rational(v) for v in spec.values],
        "costs": [cost_to_dict(c) for c in spec.costs],
    }


def contest_from_dict(data: dict) -> ContestSpec:
    try:
        if not isinstance(data["values"], list) or not isinstance(data["costs"], list):
            raise EvaluationDomainError("contest values and costs must be JSON lists")
        return ContestSpec(
            success_from_dict(data["success"]),
            tuple(parse_rational(v) for v in data["values"]),
            tuple(cost_from_dict(c) for c in data["costs"]),
        )
    except (KeyError, TypeError) as exc:
        raise EvaluationDomainError(f"malformed contest descriptor: {exc}") from exc


def save_contest(spec: ContestSpec) -> bytes:
    return json.dumps(contest_to_dict(spec), indent=2).encode("utf-8")


def load_contest(data: bytes | str) -> ContestSpec:
    what = "invalid contest JSON"
    try:
        return contest_from_dict(read_json(data, EvaluationDomainError, what))
    except RecursionError as exc:  # parsed, but nested too deeply to convert
        raise EvaluationDomainError(f"{what}: {exc}") from exc


def load_grid(data: bytes | str):
    """Grid file: a list of rationals, or a pair of per-player lists."""
    raw = read_json(data, EvaluationDomainError, "invalid grid JSON")
    if isinstance(raw, dict):
        raw = raw.get("grids", raw.get("grid"))
    if not isinstance(raw, list) or not raw:
        raise EvaluationDomainError("grid file must hold a nonempty list")
    return _normalize_grids(raw)
