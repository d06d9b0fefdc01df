"""Property test: the exact simplex against brute-force vertices on CE-shaped systems."""

import itertools
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from eqcert.lp import (  # noqa: E402
    EQUAL,
    GREATER_EQUAL,
    INFEASIBLE,
    OPTIMAL,
    ConstraintSystem,
    LinearConstraint,
    PolytopeSolver,
    _echelon_add,
    _solve_echelon,
)

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
