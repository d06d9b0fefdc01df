"""Property tests of the exact simplex.

Brute-force vertices on CE-shaped systems, the condensed per-row-scale
dictionary against a dense common-denominator reference tableau, pivot by
pivot, and the optimal duals read from the final tableau against LP
duality.
"""

import itertools
import math
from dataclasses import replace
from fractions import Fraction
from unittest import mock

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from eqcert import generators, zerosum  # noqa: E402
from eqcert.lp import (  # noqa: E402
    EQUAL,
    GREATER_EQUAL,
    INFEASIBLE,
    LESS_EQUAL,
    OPTIMAL,
    ConstraintSystem,
    LinearConstraint,
    PolytopeSolver,
    UNBOUNDED,
    _StandardForm,
)
from eqcert.polytopes import build_polytope, enumerate_pure_ne  # noqa: E402
from eqcert.theory import _echelon_add, _solve_echelon  # noqa: E402

_coeff = st.integers(min_value=-3, max_value=3)


@st.composite
def _homogeneous_system(draw):
    """Rows a.x >= 0 plus the simplex row sum x = 1, with an objective."""
    n = draw(st.integers(min_value=2, max_value=4))
    rows = [LinearConstraint(tuple(Fraction(c) for c in coeffs), GREATER_EQUAL, Fraction(0))
            for coeffs in draw(st.lists(st.lists(_coeff, min_size=n, max_size=n),
                                        max_size=5))]
    rows.append(LinearConstraint((Fraction(1),) * n, EQUAL, Fraction(1)))
    objective = tuple(Fraction(c) for c in draw(st.lists(_coeff, min_size=n, max_size=n)))
    return ConstraintSystem(n, tuple(rows)), objective


def _vertices(system):
    """Every feasible point where n independent constraints (x_j >= 0 included) are tight.

    The region lies in the simplex, so it is empty exactly when this is.
    No LP is involved, unlike enumerate_vertices' feasibility probe.
    """
    n = system.num_vars
    rows = [(row.coeffs, row.rhs) for row in system.constraints]
    rows += [(tuple(Fraction(int(j == k)) for j in range(n)), Fraction(0)) for k in range(n)]
    found = set()
    for subset in itertools.combinations(rows, n):
        state = []
        for coeffs, rhs in subset:
            kind, payload = _echelon_add(state, coeffs, rhs)
            if kind != "independent":
                break
            state.append(payload)
        else:
            point = _solve_echelon(state, n)
            if system.contains(point):
                found.add(point)
    return found


@hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
@hypothesis.given(_homogeneous_system())
def test_homogeneous_rows_match_brute_force_vertices(case):
    # Zero right-hand-side rows start on their slack; feasibility and the
    # optimum must still agree with exhaustive vertex search.
    system, objective = case
    verts = _vertices(system)
    out = PolytopeSolver(system).optimize(objective, maximize=True)
    if not verts:
        assert out.status == INFEASIBLE
        return
    assert out.status == OPTIMAL
    assert system.contains(out.point)
    assert out.value == max(sum(c * v for c, v in zip(objective, vert)) for vert in verts)


# -- the condensed dictionary against the dense tableau ---------------------------


class _DenseForm:
    """The tableau over every column, with one common denominator `det`.

    Columns are [y | slacks | artificials], numbered as the library numbers
    its variables.  Each row is scaled to ints and divided by their gcd, as
    the library does.  A pivot rewrites every row, basic columns included, at
    the new determinant.  After phase 1 the `==` rows' artificial columns
    stay, unpriced, and the other artificial columns are deleted.  The pivot
    rules are the library's, written over `Fraction` ratios: of the columns
    with a negative reduced cost, the one whose first minimum-ratio row holds
    the smallest entry, then the lowest column, ratio-test ties
    to the lexicographically least row of [b | B0^-1] over the run's start
    basis B0, a crash pivot at the system's start column, and the phase-1
    drive-out of zero-level artificials.
    """

    def __init__(self, system):
        self.system = system
        self.num_y = n = system.num_vars
        normalized = []
        for row in system.constraints:
            denom = math.lcm(row.rhs.denominator,
                             *(Fraction(c).denominator for c in row.coeffs))
            ints, b, rel = [int(c * denom) for c in row.coeffs], int(row.rhs * denom), row.relation
            content = math.gcd(b, *ints) or 1
            ints, b = [v // content for v in ints], b // content
            if b < 0 or (b == 0 and rel == GREATER_EQUAL):
                ints, b = [-v for v in ints], -b
                rel = {LESS_EQUAL: GREATER_EQUAL, GREATER_EQUAL: LESS_EQUAL, EQUAL: EQUAL}[rel]
            normalized.append((ints, rel, b))
        self.live = n + sum(rel != EQUAL for _, rel, _ in normalized)
        self.ncols = self.live + sum(rel != LESS_EQUAL for _, rel, _ in normalized)
        self.priced = self.ncols
        self.rows, self.basis, self.artificials, self.equality_artificials = [], [], [], []
        slack, art = n, self.live
        for ints, rel, b in normalized:
            row = ints + [0] * (self.ncols - n) + [b]
            if rel != EQUAL:
                row[slack] = 1 if rel == LESS_EQUAL else -1
                if rel == LESS_EQUAL:
                    self.basis.append(slack)
                slack += 1
            if rel != LESS_EQUAL:
                row[art] = 1
                self.basis.append(art)
                self.artificials.append(art)
                if rel == EQUAL:
                    self.equality_artificials.append(art)
                art += 1
            self.rows.append(row)
        self.det = 1
        self.z = [0] * (self.ncols + 1)
        self.pivots_used = 0
        self.trail = []

    def _pivot(self, p, q):
        self.pivots_used += 1
        det, prow = self.det, self.rows[p]
        pval = prow[q]
        assert pval > 0
        for r, row in enumerate(self.rows + [self.z]):
            if r != p:
                factor = row[q]
                cells = [divmod(v * pval - factor * w, det) for v, w in zip(row, prow)]
                assert all(rem == 0 for _, rem in cells)
                row[:] = [quotient for quotient, _ in cells]
        self.basis[p] = q
        self.det = pval
        self.trail.append(self.snapshot())

    def _load_objective(self, cost):
        denom = math.lcm(*(c.denominator for c in cost))
        ints = [c.numerator * (denom // c.denominator) for c in cost]
        ints += [0] * (self.ncols - len(cost))
        z = [v * self.det for v in ints] + [0]
        for row, bvar in zip(self.rows, self.basis):
            z = [v - ints[bvar] * w for v, w in zip(z, row)]
        self.z = z

    def _minimize(self):
        start = list(self.basis)
        while True:
            negative = [j for j in range(self.priced) if self.z[j] < 0]
            if not negative:
                return OPTIMAL
            choices = []
            for q in negative:
                ratios = [(Fraction(row[-1], row[q]), r)
                          for r, row in enumerate(self.rows) if row[q] > 0]
                if not ratios:
                    return UNBOUNDED
                ratio, first = min(ratios)
                choices.append((self.rows[first][q], q, ratio))
            _, q, ratio = min(choices)
            tied = [r for r, row in enumerate(self.rows)
                    if row[q] > 0 and Fraction(row[-1], row[q]) == ratio]
            leaving = min(tied, key=lambda r: [Fraction(self.rows[r][v], self.rows[r][q])
                                               for v in start])
            self._pivot(leaving, q)

    def phase1(self):
        if self.system.start is not None:
            (art,) = self.artificials
            self._pivot(self.basis.index(art), self.system.start)
        if not self.artificials:
            return True
        self._load_objective([Fraction(int(j in self.artificials)) for j in range(self.ncols)])
        assert self._minimize() == OPTIMAL
        basic_artificials = [r for r, bvar in enumerate(self.basis) if bvar in self.artificials]
        if any(self.rows[r][-1] > 0 for r in basic_artificials):
            return False
        for r in basic_artificials:
            row = self.rows[r]
            entering = next((j for j in range(self.live) if row[j]), None)
            if entering is None:
                continue
            if row[entering] < 0:
                # The row's artificial a is 0: negate the row and write -a
                # for a, which keeps a's own entry.
                row[:] = [v if j == self.basis[r] else -v for j, v in enumerate(row)]
            self._pivot(r, entering)
        kept = [r for r, bvar in enumerate(self.basis) if bvar not in self.artificials]
        dropped = set(self.basis) & set(self.artificials)  # basic in a redundant row
        columns = [*range(self.live), *(a for a in self.equality_artificials if a not in dropped), -1]
        self.rows = [[self.rows[r][j] for j in columns] for r in kept]
        self.basis = [self.basis[r] for r in kept]
        self.priced, self.ncols = self.live, len(columns) - 1
        self.z = [0] * (self.ncols + 1)
        return True

    def optimize(self, cost):
        self._load_objective(cost)
        return self._minimize()

    def point(self):
        values = [Fraction(0)] * self.num_y
        for row, bvar in zip(self.rows, self.basis):
            if bvar < self.num_y:
                values[bvar] = Fraction(row[-1], self.det)
        return tuple(values)

    def snapshot(self):
        return (tuple(self.basis), self.pivots_used, self.det,
                [list(row) for row in self.rows], list(self.z))


class _CondensedForm(_StandardForm):
    """The library's tableau, expanded to every column at `det` after each pivot."""

    def __init__(self, system):
        super().__init__(system)
        self.trail = []
        self.phase1_done = False

    def _pivot(self, p, s):
        super()._pivot(p, s)
        self.trail.append(self.snapshot())

    def phase1(self):
        feasible = super().phase1()
        self.phase1_done = True
        return feasible

    def snapshot(self):
        # Slots and basic variables partition the variables still in play:
        # every one of them during phase 1.  After it the artificials left
        # are `==` rows' artificials, each nonbasic in a slot after the
        # priced ones.
        live = self.num_y + self.num_slack
        in_play = sorted(self.cols + self.basis)
        if self.phase1_done:
            assert in_play[:live] == list(range(live))
            assert set(in_play[live:]) <= set(self.dual_cols)
            assert sorted(self.cols[self.npriced:]) == in_play[live:]
        else:
            assert in_play == list(range(self.num_labels))
        position = {label: k for k, label in enumerate(in_play)}
        det = self.det
        dense = []
        for r, (row, scale) in enumerate(zip(self.rows + [self.z], self.scales, strict=True)):
            # row * det / scale must be the common-denominator row exactly
            assert scale > 0 and all(v * det % scale == 0 for v in row)
            full = [0] * len(in_play) + [row[-1] * det // scale]
            for label, v in zip(self.cols, row):
                full[position[label]] = v * det // scale
            if r < len(self.basis):
                full[position[self.basis[r]]] = det
            dense.append(full)
        return tuple(self.basis), self.pivots_used, det, dense[:-1], dense[-1]


def _assert_same_run(system, costs):
    """Phase 1, then each cost in turn, warm-started: same pivots and tableaux."""
    runs = []
    for form in (_CondensedForm(system), _DenseForm(system)):
        feasible = form.phase1()
        outcomes = []
        if feasible:
            for cost in costs:
                status = form.optimize(cost)
                outcomes.append((status, form.point() if status == OPTIMAL else None))
        runs.append((form, feasible, outcomes))
    (condensed, *result), (reference, *expected) = runs
    assert result == expected
    assert len(condensed.trail) == len(reference.trail) == condensed.pivots_used
    for got, want in zip(condensed.trail, reference.trail):
        assert got == want


@st.composite
def _mixed_system(draw):
    """A few `>=` and `==` rows with right-hand sides of either sign, and costs."""
    n = draw(st.integers(min_value=2, max_value=5))
    rows = []
    for _ in range(draw(st.integers(min_value=1, max_value=5))):
        coeffs = tuple(Fraction(c) for c in draw(st.lists(_coeff, min_size=n, max_size=n)))
        relation = draw(st.sampled_from((GREATER_EQUAL, EQUAL)))
        rows.append(LinearConstraint(coeffs, relation, Fraction(draw(_coeff))))
    costs = [tuple(Fraction(c) for c in draw(st.lists(_coeff, min_size=n, max_size=n)))
             for _ in range(draw(st.integers(min_value=1, max_value=3)))]
    return ConstraintSystem(n, tuple(rows)), costs


def _unit_costs(n):
    """Maximize, then minimize, each coordinate: a singleton test's objectives."""
    costs = []
    for k in range(n):
        for sign in (-1, 1):
            costs.append(tuple(Fraction(sign if j == k else 0) for j in range(n)))
    return costs


def _row_lp_system(matrix):
    """The system `zerosum._row_lp` solves for `matrix`, taken from the call."""
    systems = []

    class Capture(PolytopeSolver):
        def __init__(self, system):
            systems.append(system)
            super().__init__(system)

    with mock.patch.object(zerosum, "PolytopeSolver", Capture):
        zerosum._row_lp(matrix)
    (system,) = systems
    return system


# -2 x1 - x2 >= -1 and 2 x1 + 2 x2 >= 2: phase 1 leaves the second row's
# artificial basic at level 0, and the least variable with a nonzero entry in
# its row, x1, no longer sits in the row's first slot.
_DRIVE_OUT_BY_VARIABLE = (
    ConstraintSystem(2, (
        LinearConstraint((Fraction(-2), Fraction(-1)), GREATER_EQUAL, Fraction(-1)),
        LinearConstraint((Fraction(2), Fraction(2)), GREATER_EQUAL, Fraction(2)))),
    [(Fraction(1), Fraction(0)), (Fraction(0), Fraction(-1))])


@hypothesis.settings(max_examples=80, deadline=None, derandomize=True, database=None)
@hypothesis.given(_mixed_system())
@hypothesis.example(_DRIVE_OUT_BY_VARIABLE)
def test_scaled_tableau_equals_reference_on_mixed_systems(case):
    system, costs = case
    _assert_same_run(system, costs)


@hypothesis.settings(max_examples=30, deadline=None, derandomize=True, database=None)
@hypothesis.given(st.sampled_from(((3, 3), (2, 2, 2))), st.integers(0, 10**6),
                  st.sampled_from((1, 3)), st.sampled_from(("ce", "cce")))
def test_scaled_tableau_equals_reference_on_game_polytopes(shape, seed, high, concept):
    # Payoffs in [-3, high]; with high = 1 ties are common.  A CCE system of
    # a game with exactly one pure NE also runs from its crash start.
    game = generators.random_game(shape, seed, high=high)
    system = build_polytope(game, concept).system
    costs = _unit_costs(system.num_vars)
    _assert_same_run(system, costs)
    pure_ne = enumerate_pure_ne(game)
    if concept == "cce" and len(pure_ne) == 1:
        _assert_same_run(replace(system, start=game.profile_index(pure_ne[0][0])), costs)


@hypothesis.settings(max_examples=30, deadline=None, derandomize=True, database=None)
@hypothesis.given(st.integers(2, 3).flatmap(
    lambda rows: st.lists(st.lists(_coeff, min_size=rows, max_size=rows),
                          min_size=2, max_size=4)))
def test_scaled_tableau_equals_reference_on_maximin_lps(columns):
    matrix = [[Fraction(columns[c][r]) for c in range(len(columns))]
              for r in range(len(columns[0]))]
    system = _row_lp_system(matrix)
    n = system.num_vars
    guarantee = tuple(Fraction(0) for _ in range(n - 2)) + (Fraction(-1), Fraction(1))
    _assert_same_run(system, [guarantee] + _unit_costs(n))


# -- optimal duals from the final tableau -----------------------------------------

_fraction = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))


@st.composite
def _bounded_feasible_system(draw):
    """Rows of every relation through a known point x0 >= 0, inside sum x <= B.

    Row 0 is a `>=` row with a negative right-hand side, which the standard
    form negates; the last row before the box repeats an `==` row times a
    negative factor, so phase 1 finds it redundant and drops it.
    """
    n = draw(st.integers(min_value=2, max_value=4))
    x0 = [Fraction(draw(st.integers(0, 3)), draw(st.integers(1, 2))) for _ in range(n)]

    def through_x0(coeffs, relation, gap):
        level = sum(c * x for c, x in zip(coeffs, x0))
        rhs = {LESS_EQUAL: level + gap, GREATER_EQUAL: level - gap, EQUAL: level}[relation]
        return LinearConstraint(tuple(coeffs), relation, rhs)

    gap = st.integers(0, 2).map(Fraction)
    rows = [through_x0([Fraction(-1)] * n, GREATER_EQUAL, draw(gap) + 1)]
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        coeffs = draw(st.lists(_fraction, min_size=n, max_size=n))
        relation = draw(st.sampled_from((LESS_EQUAL, GREATER_EQUAL, EQUAL)))
        rows.append(through_x0(coeffs, relation, draw(gap)))
    equality = through_x0(draw(st.lists(_fraction, min_size=n, max_size=n).filter(any)),
                          EQUAL, Fraction(0))
    factor = draw(st.sampled_from((Fraction(-3, 2), Fraction(-1), Fraction(-2, 3))))
    rows += [equality, LinearConstraint(tuple(c * factor for c in equality.coeffs),
                                        EQUAL, equality.rhs * factor)]
    rows.append(through_x0([Fraction(1)] * n, LESS_EQUAL, draw(gap)))
    costs = [tuple(draw(st.lists(_fraction, min_size=n, max_size=n)))
             for _ in range(draw(st.integers(min_value=1, max_value=3)))]
    return ConstraintSystem(n, tuple(rows)), costs


# The second row is negated to a nonnegative right-hand side, 4 x1 + 9 x2 = 18,
# as is the third, its repeat.  Phase 1 leaves the second row's artificial
# basic at level 0 with a negative entry for x1, so the drive-out negates the
# row and flips that artificial's sign.  The row's dual is nonzero at every
# optimum but the first cost's minimum.
_DRIVE_OUT_NEGATES_AN_EQUALITY = (
    ConstraintSystem(2, (
        LinearConstraint((Fraction(-1), Fraction(-1)), GREATER_EQUAL, Fraction(-4)),
        LinearConstraint((Fraction(-2, 3), Fraction(-3, 2)), EQUAL, Fraction(-3)),
        LinearConstraint((Fraction(4, 9), Fraction(1)), EQUAL, Fraction(2)),
        LinearConstraint((Fraction(1), Fraction(1)), LESS_EQUAL, Fraction(2)))),
    [(Fraction(1), Fraction(0)), (Fraction(2, 3), Fraction(-1))])


@hypothesis.settings(max_examples=120, deadline=None, derandomize=True, database=None)
@hypothesis.given(_bounded_feasible_system())
@hypothesis.example(_DRIVE_OUT_NEGATES_AN_EQUALITY)
def test_tableau_duals_are_optimal_duals(case):
    # The duals are those of min c.x, with c the cost, or minus the cost of
    # a maximum: y >= 0 on `>=` rows, y <= 0 on `<=` rows, y^T A <= c, and
    # b^T y equals that minimum (strong duality, exactly).
    system, costs = case
    solver = PolytopeSolver(system)
    assert solver.feasible
    assert len(solver._form.rows) < len(system.constraints)  # the repeated row is dropped
    rows = system.constraints
    for cost in costs:
        for maximize in (False, True):
            out = solver.optimize(cost, maximize)
            assert out.status == OPTIMAL
            y = solver.duals()
            minimized = [-c for c in cost] if maximize else cost
            assert len(y) == len(rows)
            for row, y_r in zip(rows, y):
                if row.relation == GREATER_EQUAL:
                    assert y_r >= 0
                elif row.relation == LESS_EQUAL:
                    assert y_r <= 0
            for j, c in enumerate(minimized):
                assert sum(y_r * row.coeffs[j] for row, y_r in zip(rows, y)) <= c
            minimum = -out.value if maximize else out.value
            assert sum(row.rhs * y_r for row, y_r in zip(rows, y)) == minimum
