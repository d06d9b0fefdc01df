"""Exact simplex and vertex enumeration."""

import math
import random
from dataclasses import replace

import pytest

from eqcert import contests, generators
from eqcert.lp import (
    EQUAL,
    GREATER_EQUAL,
    INFEASIBLE,
    LESS_EQUAL,
    OPTIMAL,
    PIVOT_LIMIT_ENV,
    UNBOUNDED,
    ConstraintSystem,
    LinearConstraint,
    LpError,
    PivotLimitExceeded,
    PolytopeSolver,
    SolverInvariantError,
    _StandardForm,
)
from eqcert.games import Game
from eqcert.polytopes import build_polytope, singleton_over_system
from eqcert.theory import VertexEnumerationError, enumerate_vertices

from conftest import F


def _system(num_vars, rows):
    return ConstraintSystem(num_vars, tuple(
        LinearConstraint(tuple(F(c) for c in cs), rel, F(r)) for cs, rel, r in rows))


def _lp(num_vars, objective, rows, maximize=True):
    """Optimum of `objective` over the nonnegative solutions of `rows`."""
    solver = PolytopeSolver(_system(num_vars, rows))
    return solver.optimize(tuple(F(c) for c in objective), maximize)


def test_one_variable_box():
    out = _lp(1, [1], [([1], LESS_EQUAL, 3)])
    assert out.status == OPTIMAL
    assert out.value == 3
    assert out.point == (F(3),)


def test_two_variable_budget():
    out = _lp(2, [1, 1], [([1, 1], LESS_EQUAL, 1)])
    assert out.status == OPTIMAL and out.value == 1
    assert sum(out.point) == 1


def test_unbounded_ray():
    assert _lp(1, [1], []).status == UNBOUNDED


def test_infeasible():
    out = _lp(1, [1], [([1], LESS_EQUAL, -1)])
    assert out.status == INFEASIBLE
    assert out.value is None and out.point is None


def test_minimization_and_equality_rows():
    out = _lp(2, [2, 3], [([1, 1], EQUAL, 4), ([1, 0], GREATER_EQUAL, 1)],
              maximize=False)
    assert out.status == OPTIMAL
    assert out.value == 2 * 4 + 1 * 0  # all mass on the cheap variable
    assert out.point == (F(4), F(0))


def test_free_variable_guarantee_lp():
    # max z with z <= each weighted column payoff, weights on a simplex; the
    # free z is split as z+ - z- over the last two columns.
    # An intermediate pivot meets a row whose pivot-column entry is zero.
    # With one common denominator, skipping that row's rescale once broke
    # integer-pivot divisibility; with per-row scales the row keeps its own
    # scale, so skipping it is sound.
    rows = [
        ([3, 5, -1, 1], GREATER_EQUAL, 0),
        ([0, 1, -1, 1], GREATER_EQUAL, 0),
        ([1, 1, 0, 0], EQUAL, 1),
    ]
    out = _lp(4, [0, 0, 1, -1], rows)
    assert out.status == OPTIMAL
    assert out.value == 1
    assert out.point[:2] == (F(0), F(1))
    assert out.point[2] - out.point[3] == 1


def test_fractional_optimum_is_exact():
    # max x+y s.t. 3x+y <= 1, x+3y <= 1: optimum at x=y=1/4.
    out = _lp(2, [1, 1], [([3, 1], LESS_EQUAL, 1), ([1, 3], LESS_EQUAL, 1)])
    assert out.value == F(1, 2)
    assert out.point == (F(1, 4), F(1, 4))


def test_reported_point_satisfies_constraints_exactly():
    system = _system(3, [([1, 1, 1], LESS_EQUAL, 10),
                         ([1, -1, 0], GREATER_EQUAL, -3),
                         ([0, 1, 2], EQUAL, 4)])
    out = PolytopeSolver(system).optimize((F(2), F(-1), F(1)), maximize=True)
    assert out.status == OPTIMAL
    assert system.contains(out.point)
    # Every variable is nonnegative, so a negative coordinate is outside.
    assert not system.contains((F(-1), F(2), F(1)))
    assert _system(1, []).contains((F(0),))
    assert not _system(1, []).contains((F(-1, 2),))


def test_width_validation():
    with pytest.raises(LpError):
        _lp(2, [1], [([1, 1], LESS_EQUAL, 1)])
    with pytest.raises(LpError):
        _system(2, [([1], LESS_EQUAL, 1)])
    with pytest.raises(LpError):
        LinearConstraint((F(1),), "<", F(0))


def test_determinism():
    args = (4, [1, 2, 3, 4],
            [([1, 1, 1, 1], LESS_EQUAL, 2),
             ([1, 0, 0, 1], GREATER_EQUAL, 1),
             ([0, 1, 1, 0], LESS_EQUAL, 1)])
    first = _lp(*args)
    for _ in range(3):
        again = _lp(*args)
        assert again == first


def test_polytope_solver_warm_start_agrees_with_fresh_solves():
    system = ConstraintSystem(3, (
        LinearConstraint((F(1), F(1), F(1)), LESS_EQUAL, F(1)),
        LinearConstraint((F(1), F(-1), F(0)), LESS_EQUAL, F(1, 2)),
    ))
    solver = PolytopeSolver(system)
    assert solver.feasible
    assert system.contains(solver.feasible_point())
    objectives = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (-1, 2, 0)]
    for obj in objectives:
        warm = solver.optimize(tuple(F(c) for c in obj), maximize=True)
        fresh = PolytopeSolver(system).optimize(tuple(F(c) for c in obj), True)
        assert warm.status == fresh.status == OPTIMAL
        assert warm.value == fresh.value


def test_vertices_of_simplex():
    system = ConstraintSystem(3, (
        LinearConstraint((F(1), F(1), F(1)), EQUAL, F(1)),))
    verts = enumerate_vertices(system)
    assert sorted(verts) == [
        (F(0), F(0), F(1)), (F(0), F(1), F(0)), (F(1), F(0), F(0))]


def test_vertices_of_unit_square():
    system = _system(2, [([1, 0], LESS_EQUAL, 1), ([0, 1], LESS_EQUAL, 1)])
    verts = enumerate_vertices(system)
    assert sorted(verts) == [
        (F(0), F(0)), (F(0), F(1)), (F(1), F(0)), (F(1), F(1))]


def test_vertices_deduplicated_on_degenerate_corner():
    # Three constraints meet at (0,0); the corner must be listed once.
    system = ConstraintSystem(2, (
        LinearConstraint((F(1), F(1)), LESS_EQUAL, F(1)),
        LinearConstraint((F(1), F(2)), GREATER_EQUAL, F(0)),
    ))
    verts = enumerate_vertices(system)
    assert sorted(verts) == [(F(0), F(0)), (F(0), F(1)), (F(1), F(0))]


def test_matching_pennies_cce_polytope_is_a_point():
    spec = build_polytope(generators.matching_pennies(), "cce")
    verts = enumerate_vertices(spec.system)
    assert verts == [(F(1, 4), F(1, 4), F(1, 4), F(1, 4))]


def test_vertex_enumeration_guards():
    with pytest.raises(VertexEnumerationError):
        enumerate_vertices(ConstraintSystem(13, ()))
    with pytest.raises(VertexEnumerationError):
        enumerate_vertices(ConstraintSystem(2, ()))  # unbounded quadrant
    infeasible = ConstraintSystem(1, (
        LinearConstraint((F(1),), LESS_EQUAL, F(-1)),))
    assert enumerate_vertices(infeasible) == []


def _random_bounded_lp(rng):
    n = rng.randint(2, 4)
    rows = [LinearConstraint((F(1),) * n, LESS_EQUAL, F(rng.randint(1, 5)))]
    for _ in range(rng.randint(1, 4)):
        coeffs = tuple(F(rng.randint(-3, 3)) for _ in range(n))
        rhs = F(rng.randint(0, 6))  # keeps the origin feasible
        rows.append(LinearConstraint(coeffs, LESS_EQUAL, rhs))
    objective = tuple(F(rng.randint(-4, 4)) for _ in range(n))
    return ConstraintSystem(n, tuple(rows)), objective


def test_solve_matches_vertex_oracle_on_random_lps():
    rng = random.Random(20260819)
    for _ in range(60):
        system, objective = _random_bounded_lp(rng)
        out = PolytopeSolver(system).optimize(objective, maximize=True)
        assert out.status == OPTIMAL
        assert system.contains(out.point)
        verts = enumerate_vertices(system)
        best = max(sum(c * v for c, v in zip(objective, vert))
                   for vert in verts)
        assert out.value == best


def test_pivot_limit_env(monkeypatch):
    monkeypatch.setenv(PIVOT_LIMIT_ENV, "1")
    args = (3, [1, 2, 3], [([1, 1, 1], LESS_EQUAL, 3), ([1, 0, 1], LESS_EQUAL, 2)])
    with pytest.raises(PivotLimitExceeded):
        _lp(*args)
    monkeypatch.delenv(PIVOT_LIMIT_ENV)
    assert _lp(*args).status == OPTIMAL


# -- termination under degeneracy ---------------------------------------------------

# min c.x over rows with right-hand side 0 but one, on which a simplex without
# an anti-cycling rule can cycle: Beale's LP as Chvatal writes it, Kuhn's,
# and Chvatal's own example written from the second tableau of its cycle.
# Each with its optimum and the optimal point.  The standard form scales each
# row to coprime ints, and with it the row's slack, which moves the most
# negative reduced cost: there Beale's and Kuhn's LPs do not cycle under
# Dantzig's column, and only "chvatal", whose rows are coprime ints already,
# does, with ratio-test ties to the first row.
_CYCLING_LPS = {
    "chvatal": ([-53, -41, 204, 20],
                [([-11, -5, 18, 2], LESS_EQUAL, 0),
                 ([4, 2, -8, -1], LESS_EQUAL, 0),
                 ([11, 5, -18, -2], LESS_EQUAL, 1)],
                F(-1), (F(0), F(1), F(0), F(2))),
    "beale": ([F(-3, 4), 150, F(-1, 50), 6],
              [([F(1, 4), -60, F(-1, 25), 9], LESS_EQUAL, 0),
               ([F(1, 2), -90, F(-1, 50), 3], LESS_EQUAL, 0),
               ([0, 0, 1, 0], LESS_EQUAL, 1)],
              F(-1, 20), (F(1, 25), F(0), F(1), F(0))),
    "kuhn": ([-2, -3, 1, 12],
             [([-2, -9, 1, 9], LESS_EQUAL, 0),
              ([F(1, 3), 1, F(-1, 3), -2], LESS_EQUAL, 0),
              ([2, 3, -1, -12], LESS_EQUAL, 2)],
             F(-2), (F(2), F(0), F(2), F(0))),
}


def _tullock_8x8():
    spec = contests.ContestSpec(contests.TullockRatio(1), (1, 1),
                                (contests.LinearCost(1), contests.LinearCost(1)))
    return contests.discretize(spec, [F(k, 8) for k in range(1, 9)])


# Degenerate game systems: every incentive row has right-hand side 0.  Each
# with its concept and whether that polytope is one point.
_DEGENERATE_GAMES = {
    "rps-ce": (generators.rock_paper_scissors, "ce", True),
    "parking-m5-ce": (lambda: generators.parking(5, 1, F(1, 4), F(3, 4)), "ce", True),
    "tullock-8x8-cce": (_tullock_8x8, "cce", True),
    "all-ties-ce": (lambda: Game((("a", "b", "c", "d"),) * 2, ((F(0),) * 16,) * 2), "ce", False),
}


def _dantzig_min(form, lex=True):
    """Minimize with Dantzig's column and the library's ratio test.

    The entering slot is the one with the most negative reduced cost, ties
    to the lower variable, and it is the only candidate the ratio test sees.
    A ratio tie goes to `_lex_row`, or with `lex` false to the first tied
    row.  Returns the bases visited, the start basis included, and stops
    at an optimum or when a basis repeats.
    """
    start = list(form.basis)
    visited = [frozenset(form.basis)]
    while True:
        z = form.z
        slots = [s for s in range(form.npriced) if z[s] < 0]
        if not slots:
            return visited
        entering = min(slots, key=lambda s: (z[s], form.cols[s]))
        (first,), (num,), (den,), (tied,) = form._ratio_tests([entering])
        assert first >= 0
        leaving = form._lex_row(entering, num, den, start) if tied and lex else first
        form._pivot(leaving, entering)
        visited.append(frozenset(form.basis))
        if visited[-1] in visited[:-1]:
            return visited


def _dantzig_run(system, cost, lex=True):
    form = _StandardForm(system)
    assert form.phase1()
    form._load_objective(cost)
    return form, _dantzig_min(form, lex)


def _assert_dantzig_lex_reaches(system, cost, value):
    """Dantzig's column with the lex tie-break repeats no basis and ends at `value`."""
    form, visited = _dantzig_run(system, cost)
    assert len(set(visited)) == len(visited)
    assert sum(c * x for c, x in zip(cost, form.point())) == value


@pytest.mark.parametrize("name", sorted(_CYCLING_LPS))
def test_cycling_lps_reach_their_optimum(name, monkeypatch):
    monkeypatch.setenv(PIVOT_LIMIT_ENV, "50")
    cost, rows, value, point = _CYCLING_LPS[name]
    out = _lp(4, cost, rows, maximize=False)
    assert (out.status, out.value, out.point) == (OPTIMAL, value, point)
    _assert_dantzig_lex_reaches(_system(4, rows), [F(c) for c in cost], value)


def test_lex_tie_break_stops_a_cycle(monkeypatch):
    # On "chvatal" Dantzig's column with ties to the first row returns to its
    # start basis after six pivots; the lex tie-break, fed the same columns,
    # reaches the optimum.
    monkeypatch.setenv(PIVOT_LIMIT_ENV, "50")
    cost, rows, value, _ = _CYCLING_LPS["chvatal"]
    system, cost = _system(4, rows), [F(c) for c in cost]
    _, visited = _dantzig_run(system, cost, lex=False)
    assert len(visited) == 7 and visited[-1] == visited[0]
    _assert_dantzig_lex_reaches(system, cost, value)


@pytest.mark.parametrize("name", sorted(_DEGENERATE_GAMES))
def test_degenerate_game_systems_terminate(name, monkeypatch):
    # A cold phase 1 and the singleton test's LPs, then every coordinate's
    # maximum from the warm basis, each under the pivot cap; and Dantzig's
    # column with the lex tie-break on the first coordinates.
    monkeypatch.setenv(PIVOT_LIMIT_ENV, "500")
    make, concept, singleton = _DEGENERATE_GAMES[name]
    game = make()
    system = replace(build_polytope(game, concept).system, start=None)
    assert singleton_over_system(game, system).is_singleton == singleton
    solver = PolytopeSolver(system)
    n = system.num_vars
    for j in range(n):
        unit = [F(int(k == j)) for k in range(n)]
        out = solver.optimize(unit, maximize=True)
        assert out.status == OPTIMAL and system.contains(out.point)
        if j < 4:
            _assert_dantzig_lex_reaches(system, [-c for c in unit], -out.value)


def test_lex_tie_left_at_the_end_raises():
    # Two equal rows tie at ratio 0 in x1's slot.  Their start slacks set
    # them apart; with no start column left to compare, the tie remains.
    form = _StandardForm(_system(2, [([1, -1], LESS_EQUAL, 0)] * 2))
    assert form._lex_row(0, 0, 1, list(form.basis)) == 1
    with pytest.raises(SolverInvariantError, match="lexicographic"):
        form._lex_row(0, 0, 1, [])


# -- integer pivot ----------------------------------------------------------------


def _two_row_form():
    # Rows x1 + x2 + s1 = 3 and 2 x1 + s2 = 5, both written at det = 1.  The
    # slacks are basic, so each row stores the columns of x1 and x2 and the
    # right-hand side.
    form = _StandardForm(_system(2, [([1, 1], LESS_EQUAL, 3), ([2, 0], LESS_EQUAL, 5)]))
    assert form.rows == [[1, 1, 3], [2, 0, 5]]
    assert form.cols == [0, 1] and form.basis == [2, 3]
    assert form.det == 1 and form.scales == [1, 1, 1]
    return form


@pytest.mark.parametrize("column, other_entry", [(0, 2), (1, 0)])
def test_pivot_detects_lost_divisibility(column, other_entry):
    # Pivoting on row 0 divides each updated row by that row's own scale; a
    # scale of 2 on row 1 (which integer pivoting never produces here)
    # leaves odd entries undivisible.  Column 0 updates row 1 through its
    # nonzero entry 2, and its right-hand side becomes (5 - 2 * 3) / 2, so
    # the pivot must raise.  Column 1 meets row 1's zero entry, so row 1 is
    # left untouched, same object and same (corrupt) scale, and nothing
    # reads it; s1 leaves the basis and takes x2's slot.
    form = _two_row_form()
    assert form.rows[1][column] == other_entry
    form.scales[1] = 2
    if other_entry:
        with pytest.raises(SolverInvariantError, match="exact divisibility"):
            form._pivot(0, column)
        return
    row = form.rows[1]
    form._pivot(0, column)
    assert form.rows[1] is row and row == [2, 0, 5]
    assert form.scales == [1, 2, 1] and form.det == 1
    assert form.cols == [0, 2] and form.basis == [1, 3]


def test_pivot_detects_lost_divisibility_in_a_lagging_pivot_row():
    # A pivot row whose scale differs from det is first brought to det as
    # row * det / scale.  A scale of 2 against det 3 leaves odd entries
    # undivisible, so the pivot raises before it touches any other row.
    form = _two_row_form()
    form.det = 3
    form.scales[0] = 2
    with pytest.raises(SolverInvariantError, match="exact divisibility"):
        form._pivot(0, 0)
    assert form.rows[1] == [2, 0, 5] and form.scales[1:] == [1, 1]


def test_pivot_detects_lost_divisibility_in_the_leaving_column():
    # Rows x1 + 2 x2 + s1 = 4 and x1 + s2 = 2.  Pivoting x1 into row 0 moves
    # s1 into slot 0, where row 1's new entry is -factor * det / scale.  With
    # row 1's scale corrupted to 2 that is -1/2, while its other entries,
    # (0 - 2) / 2 and (2 - 4) / 2, stay integers: the row check must catch
    # the one cell that only the leaving column occupies.
    form = _StandardForm(_system(2, [([1, 2], LESS_EQUAL, 4), ([1, 0], LESS_EQUAL, 2)]))
    assert form.rows == [[1, 2, 4], [1, 0, 2]] and form.cols == [0, 1]
    form.scales[1] = 2
    with pytest.raises(SolverInvariantError, match="exact divisibility"):
        form._pivot(0, 0)


# -- phase-1 starting basis -------------------------------------------------------


def test_zero_rhs_rows_start_on_their_slack():
    # Every CE incentive row reads a.x >= 0; only the simplex row needs an
    # artificial in phase 1.
    spec = build_polytope(generators.random_game((4, 4), seed=3), "ce")
    solver = PolytopeSolver(spec.system)
    assert solver.feasible
    assert len(solver._form.artificials) == 1
    assert spec.system.contains(solver.feasible_point())
    # The maximin LP of matching pennies as zerosum._row_lp writes it: one
    # `>= 0` row per column, the guarantee split as z+ - z- in the last two
    # columns, and the simplex row.
    rows = [([1, -1, -1, 1], GREATER_EQUAL, 0),
            ([-1, 1, -1, 1], GREATER_EQUAL, 0),
            ([1, 1, 0, 0], EQUAL, 1)]
    solver = PolytopeSolver(_system(4, rows))
    assert len(solver._form.artificials) == 1
    out = solver.optimize((F(0), F(0), F(1), F(-1)), maximize=True)
    assert out.status == OPTIMAL and out.value == 0
    assert out.point[:2] == (F(1, 2), F(1, 2))


def test_homogeneous_rows_with_simplex_row_can_be_infeasible():
    # -x1 >= 0 and -x2 >= 0 start on their slacks; the simplex row's
    # artificial cannot leave, so phase 1 must still report infeasibility.
    solver = PolytopeSolver(_system(2, [([-1, 0], GREATER_EQUAL, 0),
                                        ([0, -1], GREATER_EQUAL, 0),
                                        ([1, 1], EQUAL, 1)]))
    assert solver.feasible is False
    assert solver.feasible_point() is None


def test_homogeneous_row_bounds_the_optimum():
    out = _lp(2, [0, 1], [([1, -1], GREATER_EQUAL, 0), ([1, 1], EQUAL, 1)])
    assert out.status == OPTIMAL
    assert out.value == F(1, 2)
    assert out.point == (F(1, 2), F(1, 2))


# -- pinning objective ------------------------------------------------------------

# Each system lives on the simplex x1 + x2 = 1 and adds one row of the kind
# named.  A segment case has a second member; a point case has only (1, 0).
# Minimizing x1 first ends a segment case at a vertex where the added row is
# tight and its slack nonbasic, so a wrong sign on that row reads the
# segment as a point.
PINNING_CASES = {
    # -x1 <= -1/2: negated by the standard form to x1 >= 1/2.
    "le-negative-rhs": ([([-1, 0], LESS_EQUAL, F(-1, 2))],
                        [([-1, 0], LESS_EQUAL, -1)]),
    # x1 - x2 >= 0: negated to -x1 + x2 <= 0, basic on its slack.
    "ge-zero-rhs": ([([1, -1], GREATER_EQUAL, 0)],
                    [([0, -1], GREATER_EQUAL, 0)]),
    # x1 >= 1/2: a surplus plus an artificial.
    "ge-positive-rhs": ([([1, 0], GREATER_EQUAL, F(1, 2))],
                        [([1, 0], GREATER_EQUAL, 1)]),
    # 2 x1 + 2 x2 = 2 repeats the simplex row; phase 1 drops it.
    "eq-redundant": ([([2, 2], EQUAL, 2), ([1, -1], GREATER_EQUAL, 0)],
                     [([2, 2], EQUAL, 2), ([0, 1], LESS_EQUAL, 0)]),
}


def _pinning_solver(extra_rows):
    system = _system(2, [([1, 1], EQUAL, 1)] + extra_rows)
    solver = PolytopeSolver(system)
    assert solver.feasible
    if extra_rows[0][1] == EQUAL:
        assert len(solver._form.rows) == len(system.constraints) - 1
    return system, solver


def _nonbasic_sum(system, basis, point):
    """Sum of the nonbasic columns at `point`, each slack in its standard-form row's units.

    The standard form writes a row as its coprime integer multiple: the row
    times the lcm D of its denominators, over the gcd g of those ints.  Its
    slack is then D / g times the slack of the row as written.
    """
    total = sum((x for j, x in enumerate(point) if j not in basis), F(0))
    slack = system.num_vars
    for row in system.constraints:
        if row.relation == EQUAL:
            continue
        if slack not in basis:
            entries = [F(v) for v in row.coeffs + (row.rhs,)]
            denom = math.lcm(*(v.denominator for v in entries))
            weight = F(denom, math.gcd(*(int(v * denom) for v in entries)))
            lhs = row.evaluate(point)
            total += weight * (lhs - row.rhs if row.relation == GREATER_EQUAL
                               else row.rhs - lhs)
        slack += 1
    return total


def _check_pinning(system, solver, members):
    vertex = solver.feasible_point()
    basis = set(solver._form.basis)
    objective = solver.pinning_objective()
    at_vertex = sum(c * x for c, x in zip(objective, vertex))
    for point in members:
        assert system.contains(point)
        value = sum(c * x for c, x in zip(objective, point))
        assert value - at_vertex == _nonbasic_sum(system, basis, point)
    out = solver.optimize(objective, maximize=True)
    assert out.status == OPTIMAL
    return vertex, at_vertex, out


@pytest.mark.parametrize("case", sorted(PINNING_CASES))
def test_pinning_objective_rises_on_a_segment(case):
    rows = PINNING_CASES[case][0]
    system, solver = _pinning_solver(rows)
    assert solver.optimize((F(1), F(0)), maximize=False).point == (F(1, 2), F(1, 2))
    slack = system.num_vars + sum(row.relation != EQUAL for row in system.constraints) - 1
    assert slack not in solver._form.basis
    vertex, at_vertex, out = _check_pinning(
        system, solver, [(F(1, 2), F(1, 2)), (F(3, 4), F(1, 4)), (F(1), F(0))])
    assert vertex == (F(1, 2), F(1, 2))
    assert out.value > at_vertex and out.point == (F(1), F(0))


@pytest.mark.parametrize("case", sorted(PINNING_CASES))
def test_pinning_objective_is_flat_on_a_point(case):
    system, solver = _pinning_solver(PINNING_CASES[case][1])
    vertex, at_vertex, out = _check_pinning(system, solver, [(F(1), F(0))])
    assert vertex == (F(1), F(0))
    assert out.value == at_vertex and out.point == vertex


@pytest.mark.parametrize("concept", ("ce", "cce", "ircp"))
def test_pinning_objective_is_over_the_ints_on_int_rows(concept):
    # Polytope rows are written over integer payoffs, so the objective is
    # built from ints alone, and it adds at least one nonbasic slack's row.
    game = generators.random_game((3, 3), 4)
    solver = PolytopeSolver(build_polytope(game, concept).system)
    objective = solver.pinning_objective()
    assert all(type(c) is int for c in objective)
    assert any(c not in (0, 1) for c in objective)


def test_pinning_objective_needs_a_feasible_system():
    solver = PolytopeSolver(_system(1, [([1], LESS_EQUAL, -1)]))
    with pytest.raises(LpError, match="no basis"):
        solver.pinning_objective()
