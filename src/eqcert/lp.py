"""Exact linear programming over the rationals.

The solver is a two-phase primal simplex with one pivot rule for phase 1
and every later minimization (`_StandardForm._minimize`).  The working
tableau is kept in integer form, each row with its own positive denominator
(integer pivoting, see the last paragraph), so every pivot is exact integer
arithmetic; results are reported as `Fraction`s.  Each row is stored
divided by the gcd of its integer entries, so a positive multiple of a
system row changes no pivot, no point and no pinning objective.  The
leaving row is the minimum ratio, with ties broken lexicographically by
the rows of [b | B0^-1] over the basis B0 at the start of the run
(Dantzig, Orden and Wolfe 1955), which terminates whatever improving
column enters.  That frees the entering choice: of the columns with a
negative reduced cost, the one whose first minimum-ratio row holds the
smallest entry at the current basis determinant.  That entry becomes the
next determinant, so the determinant, and with it every entry, stays
small (Edmonds 1967, Bareiss 1968).  Every tie breaks by row or variable
order, so every answer is a deterministic function of the input.
Most LPs here are highly degenerate: every CE and CCE incentive row has
right-hand side 0.  On random 8x8 and 10x10 games a whole report takes
69-269 pivots under this rule where Bland's rule took 278-17,846, whose
largest determinant reached 121 bits against 50 here.

Phase 1 starts each row on its slack wherever it can.  A row is negated so
that its right-hand side is nonnegative, and a `>=` row with right-hand side
0 is negated to `<=`, so it starts basic on its slack at level 0.  Every CE
and CCE incentive row and every row of a maximin LP has that form.  Only
`==` rows and `>=` rows with a positive right-hand side keep an artificial
variable: the simplex row `sum x = 1`, and IRCP rows at a positive maximin
level.  Phase 1 of a CE, CCE or maximin LP then drives out one artificial
instead of one per incentive row.

Every variable is nonnegative, since the LPs here are over probability
weights.  A caller that needs a free variable splits it into two
nonnegative columns itself, x = x+ - x- (see `zerosum._row_lp`).

A caller that knows a vertex e_j of a system with one artificial, such as
the simplex row of a CE or CCE system, sets `start = j` on the
`ConstraintSystem`.  Phase 1 then begins with one crash pivot of x_j into the
artificial's row, which gives the basis of e_j, and ends there.  A negative
right-hand side after that pivot means e_j violates a row, and raises
`SolverInvariantError`.  The CCE singleton test starts this way at the point
mass of the game's only pure Nash equilibrium (see `polytopes.is_singleton`),
and the P(a*) test behind GUE flags and certificate weights at delta(a*)
(`polytopes.GameAnalysis.weights`).

`PolytopeSolver` factors the phase-1 work out of repeated optimization over
one feasible system; a singleton test re-optimizes several objectives
against the same basis.  `optimize` runs to an optimum.
`step_off` maximizes only until the basic point first moves, at the first
nondegenerate pivot: no other pivot improves the objective, so the point
there beats the start point and differs from it, and a path with no such
pivot ends at an optimum at the start point.  A singleton test needs no
more (`polytopes.singleton_over_system`).

`PolytopeSolver.pinning_objective` tells whether the current basic point x*
is the system's only member.  The basis matrix is invertible, so every
solution of the standard form, slacks included, is fixed by the values of
its nonbasic columns; x* is the one where they are all 0.  Each column is
nonnegative, so the sum of the nonbasic columns is 0 at x* and positive at
every other member, and x* is the only member exactly when that sum's
maximum over the system is its value at x*.  Dropped redundant `==` rows
do not change the solution set.  The sum is written over the system's
variables: a slack is b - a.x on a `<=` row a.x <= b and a.x - b on a `>=`
row, in the row's original relation whatever negation the standard form
applied, times the positive factor by which the standard form scaled the
row.  So each nonbasic slack adds that factor times a_r on a `>=` row and
times -a_r on a `<=` row, and the constants are left out: the sum of the
standard form's own nonbasic columns, as the tableau holds them.

`PolytopeSolver.duals` reads the optimal row duals of the last optimum
reached, by `optimize` or by a `step_off` that never moved, from the final
tableau, with no further LP.  Every row has a column of its own: its slack,
or on an `==` row its artificial, which phase 1 keeps after the priced
slots, so it is never priced and never enters.  That column's reduced cost
is minus the row's simplex multiplier times the column's sign in the
standard form, so the multiplier is read from `z` at its scale, and is 0
when the column is basic, as it is on a redundant row that phase 1 dropped.
The standard form keeps each row's factor: the row's integer scale, negated
when the row was negated.  Multiplying by it undoes both, and gives the
dual of the system row as written.  The duals are those of the minimum the
tableau reached, which for a maximum is the minimum of minus the objective:
each is >= 0 on a `>=` row and <= 0 on a `<=` row.

The tableau is a dictionary (as in lrs, Avis 2000): each row, and the
reduced-cost row, stores only the nonbasic columns and the right-hand side.
Outside its own row a basic column is 0, and in it the row's scale, so
nothing is lost.  Slot s of every row holds the column of variable
`cols[s]`.  A pivot on row p and slot s swaps the entering variable
`cols[s]` with the leaving `basis[p]`: the leaving column takes the slot
the entering one held, and its new entries are written there by the same
row update.  The pivot rule breaks its ties by variable, not by slot, and
reads the columns of the start basis wherever they are, so the pivots are
those of the full tableau.

Each row carries its own positive scale: the basis determinant at which
the row was last written, so the row holds its true entries times that
scale.  A pivot leaves a row whose entering-column entry is 0 untouched,
since its true entries do not change, and writes every other row at the new
determinant.  The pivot row is first brought to the current determinant if
it lags.  Each of these integer divisions is exact: its quotient is the row
at a basis determinant, which is integral by Cramer's rule (fraction-free
pivoting, Edmonds 1967, Bareiss 1968).  The pivot checks this once per row
instead of once per cell: the row's undivided entries must sum to the
divisor times the sum of the quotients.  The check is exact because the
divisor is positive, so every floor remainder lies in [0, divisor) and the
remainders sum to 0 only if each is 0.  A failed check raises
`SolverInvariantError`.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Sequence

from .rational import scaled_ints

LESS_EQUAL = "<="
EQUAL = "=="
GREATER_EQUAL = ">="
_RELATIONS = (LESS_EQUAL, EQUAL, GREATER_EQUAL)

PIVOT_LIMIT_ENV = "EQCERT_LP_PIVOT_LIMIT"


class LpError(ValueError):
    """Malformed linear program input."""


class PivotLimitExceeded(RuntimeError):
    """The simplex hit the iteration cap from EQCERT_LP_PIVOT_LIMIT."""


class SolverInvariantError(RuntimeError):
    """An internal consistency check failed; results cannot be trusted."""


def pivot_limit() -> int:
    """The pivot cap that EQCERT_LP_PIVOT_LIMIT sets; 0 (the default) means none."""
    text = os.environ.get(PIVOT_LIMIT_ENV, "").strip() or "0"
    if not text.isdecimal():
        raise LpError(f"{PIVOT_LIMIT_ENV} must be a nonnegative integer, got {text!r}")
    return int(text)


@dataclass(frozen=True)
class LinearConstraint:
    """coeffs . x (relation) rhs.

    `int` and `Fraction` coefficients are kept as they are, and any other
    value is converted to a `Fraction`; `rhs` is a `Fraction`.  Integer rows
    need no scaling in the standard form: `polytopes.write_rows` writes
    each incentive row over the player's integer payoffs.
    """

    coeffs: tuple[int | Fraction, ...]
    relation: str
    rhs: Fraction

    def __post_init__(self):
        if self.relation not in _RELATIONS:
            raise LpError(f"unknown relation {self.relation!r}")
        object.__setattr__(self, "coeffs", tuple(
            c if type(c) is int or type(c) is Fraction else Fraction(c)
            for c in self.coeffs))
        if type(self.rhs) is not Fraction:
            object.__setattr__(self, "rhs", Fraction(self.rhs))

    def evaluate(self, point: Sequence[Fraction]) -> Fraction:
        return sum((c * x for c, x in zip(self.coeffs, point) if x and c), Fraction(0))

    def satisfied_by(self, point: Sequence[Fraction]) -> bool:
        lhs = self.evaluate(point)
        if self.relation == LESS_EQUAL:
            return lhs <= self.rhs
        if self.relation == GREATER_EQUAL:
            return lhs >= self.rhs
        return lhs == self.rhs


@dataclass(frozen=True)
class ConstraintSystem:
    """Linear constraints over `num_vars` variables, every one of them >= 0.

    `start`, when set, is a variable j whose unit vector e_j the caller
    knows to satisfy every row; the solver then starts phase 1 at e_j.  The
    system must have exactly one row that starts on an artificial (see the
    module docstring).
    """

    num_vars: int
    constraints: tuple[LinearConstraint, ...]
    start: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "constraints", tuple(self.constraints))
        for row in self.constraints:
            if len(row.coeffs) != self.num_vars:
                raise LpError("constraint width disagrees with num_vars")
        if self.start is not None and not 0 <= self.start < self.num_vars:
            raise LpError(f"start column {self.start} is not a variable")

    def contains(self, point: Sequence[Fraction]) -> bool:
        if len(point) != self.num_vars or any(x < 0 for x in point):
            return False
        return all(row.satisfied_by(point) for row in self.constraints)


OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
MOVED = "moved"  # a stopped run left the start point (`PolytopeSolver.step_off`)


@dataclass(frozen=True)
class LpOutcome:
    status: str
    value: Fraction | None = None
    point: tuple[Fraction, ...] | None = None


class _StandardForm:
    """min c.y, T y = b, y >= 0 over an integer dictionary with per-row scales.

    Rows are scaled to integers, divided by the gcd of their entries and
    negated so that b >= 0, so any positive multiple of a row gives the same
    tableau row.  A `<=` row starts basic on its slack.  A `>=` row with
    b = 0 is negated to `<=` too: the origin satisfies it, so its slack is a
    feasible start at level 0.  Only `==` rows and `>=` rows with b > 0
    start on an artificial for phase 1.

    Variables are numbered [y | slacks | artificials].  Row r has basic
    variable `basis[r]`, and every row stores `ncols` slots and then its
    right-hand side: slot s holds the column of nonbasic variable `cols[s]`.
    A pivot swaps `basis[p]` and `cols[s]`, so the leaving variable takes
    the entering one's slot.  An artificial keeps its slot when it leaves
    the basis.  At its end phase 1 moves the `==` rows' artificials after
    the other slots and drops the other artificials' slots; only the first
    `npriced` slots are priced.  System row r's dual is read from the
    column of variable `dual_cols[r]`, whose entry in the standard form is
    `signs[dual_cols[r]]` in row r and 0 elsewhere.

    `det` is the current basis determinant.  `rows[r]` holds row r's true
    entries times `scales[r]`, the basis determinant at which that row was
    last written, and the reduced-cost row `z` holds its entries times
    `scales[-1]`.  Every scale is positive, so signs and ratios within a row
    read the same at any scale; only `point()`, the rows that an objective
    combines, and the pivot rule's comparison of pivot entries across rows
    need the scale itself.
    """

    def __init__(self, system: ConstraintSystem):
        self.system = system
        self.pivot_limit = pivot_limit()
        self.pivots_used = 0
        self.num_y = system.num_vars

        # Normalize signs, scale to integers, number the variables as
        # [y vars | slacks/surpluses | artificials].
        m = len(system.constraints)
        self.num_slack = sum(1 for row in system.constraints if row.relation != EQUAL)
        slack_base = self.num_y
        art_base = self.num_y + self.num_slack
        scaled: list[tuple[list[int], str, int]] = []
        # Row r of the standard form is row_factors[r] / row_contents[r]
        # times system row r: scaled to ints, then divided by their gcd.
        self.row_factors: list[int] = []
        self.row_contents: list[int] = []
        for row in system.constraints:
            rel, rhs = row.relation, row.rhs
            ints, denom = scaled_ints(row.coeffs, rhs.denominator)
            b = rhs.numerator * (denom // rhs.denominator)
            content = gcd(b, *ints) or 1
            if content > 1:
                ints = [v // content for v in ints]
                b //= content
            if b < 0 or (b == 0 and rel == GREATER_EQUAL):
                ints = [-v for v in ints]
                b = -b
                denom = -denom
                rel = {LESS_EQUAL: GREATER_EQUAL, GREATER_EQUAL: LESS_EQUAL, EQUAL: EQUAL}[rel]
            scaled.append((ints, rel, b))
            self.row_factors.append(denom)
            self.row_contents.append(content)

        self.rows: list[list[int]] = []
        self.basis: list[int] = []
        # Slot s of every row holds the column of variable cols[s]; the y
        # variables and the surpluses of `>=` rows start nonbasic.
        self.cols: list[int] = list(range(self.num_y))
        self.det = 1
        self.artificials: list[int] = []
        # Per system row: its slack, or its artificial on an `==` row.
        self.dual_cols: list[int] = []
        # Per slack or artificial: its column's entry in its own row (+1 on
        # a slack of a `<=` row, -1 on a surplus, +1 on an artificial until
        # phase 1 negates the row it is basic in).
        self.signs: dict[int, int] = {}
        self.cost_scale = 1
        slack_idx = slack_base
        art_idx = art_base
        num_surplus = sum(1 for _, rel, _ in scaled if rel == GREATER_EQUAL)
        for ints, rel, b in scaled:
            row = ints + [0] * num_surplus + [b]
            if rel == LESS_EQUAL:
                self.basis.append(slack_idx)
                self.dual_cols.append(slack_idx)
                self.signs[slack_idx] = 1
                slack_idx += 1
            elif rel == GREATER_EQUAL:
                row[len(self.cols)] = -1
                self.cols.append(slack_idx)
                self.dual_cols.append(slack_idx)
                self.signs[slack_idx] = -1
                slack_idx += 1
            else:
                self.dual_cols.append(art_idx)
            if rel != LESS_EQUAL:
                self.basis.append(art_idx)
                self.artificials.append(art_idx)
                self.signs[art_idx] = 1
                art_idx += 1
            self.rows.append(row)
        self.num_labels = art_idx  # variables, artificials included
        self.ncols = self.npriced = len(self.cols)
        self.z: list[int] = [0] * (self.ncols + 1)
        self.scales: list[int] = [1] * (m + 1)

    # -- tableau mechanics ------------------------------------------------

    def _at_det(self, r: int) -> list[int]:
        """Row r at the current `det`, rewritten in place if its scale lags.

        The quotient v * det / scale is the row at the current basis
        determinant, integral by Cramer's rule, so each floor division is
        exact; a remainder means the tableau is corrupt.  The check runs
        once per row: with scale > 0 every floor remainder lies in
        [0, scale), so det * sum(row) equals scale times the quotients' sum
        only if every remainder is 0.
        """
        row, scale, det = self.rows[r], self.scales[r], self.det
        if scale != det:
            row_total = det * sum(row)
            row[:] = [v * det // scale for v in row]
            if row_total != scale * sum(row):
                raise SolverInvariantError("integer pivot lost exact divisibility")
            self.scales[r] = det
        return row

    def _pivot(self, p: int, s: int) -> None:
        """Integer pivot on row p and slot s: row <- (pval * row - factor * prow) / scale.

        The pivot row is brought to the current `det` first, so pval is the
        new basis determinant.  The entering variable cols[s] becomes basic
        in row p and the leaving variable basis[p] takes slot s.  Its column
        was det in row p and 0 in every other row, so prow[s] is set to det
        and the other rows' slot s to 0 before the update writes the
        leaving column's new entries there.  A row whose slot-s entry is 0
        keeps its true entries, so it is left as it is, scale and all.
        Every other row r, the reduced-cost row included, is rewritten at
        the new determinant as (pval * row - factor * prow) / scales[r],
        with factor its raw entry in slot s.  That quotient is integral by
        Cramer's rule, so the division is exact; a remainder means the
        tableau is corrupt.  The check runs once per row, as in `_at_det`:
        the undivided sum pval * sum(row) - factor * sum(prow), taken before
        the row is overwritten, must equal scales[r] times the quotients'
        sum.  The pivot row's entries are unchanged and it takes scale pval
        too.
        """
        if self.pivot_limit and self.pivots_used >= self.pivot_limit:
            raise PivotLimitExceeded(
                f"simplex exceeded {self.pivot_limit} pivots ({PIVOT_LIMIT_ENV})"
            )
        self.pivots_used += 1
        scales = self.scales
        prow = self._at_det(p)
        pval = prow[s]
        if pval <= 0:
            raise SolverInvariantError("pivot entry must be positive")
        prow[s] = self.det
        psum = sum(prow)
        for r, row in enumerate(itertools.chain(self.rows, (self.z,))):
            factor = row[s]
            if factor == 0 or r == p:
                continue
            row[s] = 0
            scale = scales[r]
            row_total = pval * sum(row) - factor * psum
            row[:] = [(v * pval - factor * w) // scale for v, w in zip(row, prow)]
            if row_total != scale * sum(row):
                raise SolverInvariantError("integer pivot lost exact divisibility")
            scales[r] = pval
        scales[p] = pval
        self.basis[p], self.cols[s] = self.cols[s], self.basis[p]
        self.det = pval

    def _load_objective(self, cost: Sequence[int | Fraction]) -> None:
        """Reduced-cost row for `cost`, indexed by variable, at the current basis.

        The row is written at the current `det`; only the rows whose basic
        variable has a nonzero cost are read, and those are brought to `det`.
        The costs are first scaled to ints by `cost_scale`, the lcm of their
        denominators, which does not move the optimum; `z` then holds the
        reduced costs times `cost_scale` at its scale.
        """
        ints, self.cost_scale = scaled_ints(cost)
        ints += [0] * (self.num_labels - len(cost))
        det = self.det
        z = [ints[label] * det for label in self.cols] + [0]
        for r, bvar in enumerate(self.basis):
            cb = ints[bvar]
            if cb:
                z = [v - cb * w for v, w in zip(z, self._at_det(r))]
        self.z = z
        self.scales[-1] = det

    def _minimize(self, stop_on_move: bool = False) -> str:
        """Minimize the loaded objective from the current feasible basis.

        Every priced slot with a negative reduced cost is a candidate.  The
        entering one is the candidate whose first minimum-ratio row, the
        lowest such row, holds the smallest pivot entry at `det`, ties to
        the lower variable.  That entry is the next basis determinant, so
        the choice holds the determinant, and every entry, down.  The
        leaving row is the lexicographic minimum (`_lex_row`) among the rows
        at the minimum ratio, which no entering choice can make cycle.  With
        `stop_on_move` it returns MOVED right after the first nondegenerate
        pivot, one whose minimum ratio is positive: the only kind that moves
        the basic point, and the only kind that lowers the objective.  A
        candidate with no positive entry makes the objective unbounded.
        """
        scales, cols, priced = self.scales, self.cols, self.npriced
        start = list(self.basis)
        while True:
            z = self.z
            slots = [s for s in range(priced) if z[s] < 0]
            if not slots:
                return OPTIMAL
            first, nums, dens, tied = self._ratio_tests(slots)
            if min(first) < 0:
                return UNBOUNDED
            # The entry at `det` is dens[k] * det / scales[first[k]].
            pick = 0
            for k in range(1, len(slots)):
                here = dens[k] * scales[first[pick]]
                there = dens[pick] * scales[first[k]]
                if here < there or (here == there and cols[slots[k]] < cols[slots[pick]]):
                    pick = k
            entering = slots[pick]
            leaving = first[pick]
            if tied[pick]:
                leaving = self._lex_row(entering, nums[pick], dens[pick], start)
            self._pivot(leaving, entering)
            if stop_on_move and nums[pick] > 0:
                return MOVED

    def _ratio_tests(self, slots: list[int]
                     ) -> tuple[list[int], list[int], list[int], list[bool]]:
        """The ratio test of each slot in `slots`, in one pass over the rows.

        For slot k: its first minimum-ratio row (-1 where no entry is
        positive), that row's right-hand side and entry, whose quotient is
        the minimum ratio, and whether a later row may tie it.  No ratio is
        below 0, so a slot whose ratio reaches 0 is settled, and the later
        rows skip it: its flag is set, for `_lex_row` to find the ties.
        With every slot settled the pass stops.
        """
        rhs = self.ncols
        count = len(slots)
        first = [-1] * count
        nums = [0] * count
        dens = [0] * count
        tied = [False] * count
        active = list(enumerate(slots))
        for r, row in enumerate(self.rows):
            num = row[rhs]
            settled = False
            for k, s in active:
                coeff = row[s]
                if coeff <= 0:
                    continue
                if first[k] < 0 or num * dens[k] < nums[k] * coeff:
                    first[k], nums[k], dens[k], tied[k] = r, num, coeff, not num
                    settled = settled or not num
                elif num * dens[k] == nums[k] * coeff:
                    tied[k] = True
            if settled:
                active = [(k, s) for k, s in active if not tied[k] or nums[k]]
                if not active:
                    break
        return first, nums, dens, tied

    def _lex_row(self, entering: int, num: int, den: int, start: list[int]) -> int:
        """The lexicographically least row at the minimum ratio num / den in slot `entering`.

        Row r's key is its right-hand side and then its entries in the
        columns of the run's start basis `start`, in start-row order, all
        divided by its entry in the entering slot.  A start variable's
        column is its slot where it is nonbasic, and where it is basic, the
        row's scale in its own row and 0 in the others.  These are the rows
        of [b | B0^-1] in the current tableau, B0 the start basis; at the
        start they form [b | I] times positive scales, so every key is
        lexicographically positive, a pivot on the least keeps them so, and
        the objective over the perturbed right-hand side b + B0 (e, e^2,
        ...) falls at every pivot.  No basis repeats within a run
        (Dantzig, Orden and Wolfe, Pacific J. Math. 1955).  The keys of two
        rows never tie, since [b | B0^-1] has independent rows; a tie left
        at the end means the tableau is corrupt, and raises.
        """
        rows, rhs = self.rows, self.ncols
        tied = [r for r, row in enumerate(rows)
                if row[entering] > 0 and row[rhs] * den == num * row[entering]]
        if len(tied) == 1:
            return tied[0]
        slot_of = {label: s for s, label in enumerate(self.cols)}
        row_of = {label: r for r, label in enumerate(self.basis)}
        for label in start:
            if len(tied) == 1:
                break
            s = slot_of.get(label)
            if s is None:
                # Basic: the row's own scale there, 0 in every other row.
                basic_in = row_of[label]
                if basic_in in tied:
                    tied.remove(basic_in)
                continue
            best = None
            for r in tied:
                entry, coeff = rows[r][s], rows[r][entering]
                if best is None or entry * best[1] < best[0] * coeff:
                    best, keep = (entry, coeff), [r]
                elif entry * best[1] == best[0] * coeff:
                    keep.append(r)
            tied = keep
        if len(tied) != 1:
            raise SolverInvariantError("two rows tie in the lexicographic ratio test")
        return tied[0]

    # -- phases -----------------------------------------------------------

    def _crash(self, column: int) -> None:
        """Pivot `column` into the only artificial's row: the basis of e_column.

        That basis is feasible exactly when e_column satisfies every other
        row.  A negative right-hand side after the pivot means it does not,
        and raises.
        """
        if len(self.artificials) != 1:
            raise LpError("a start column needs a system with exactly one artificial row")
        self._pivot(self.basis.index(self.artificials[0]), self.cols.index(column))
        rhs = self.ncols
        if any(row[rhs] < 0 for row in self.rows):
            raise SolverInvariantError(
                f"start column {column}'s unit vector violates a row of the system")

    def phase1(self) -> bool:
        """Find a feasible basis; returns False when the system is infeasible.

        With a start column set on the system, one crash pivot replaces the
        artificial before the phase-1 objective is loaded.
        """
        if self.system.start is not None:
            self._crash(self.system.start)
        if self.artificials:
            cost = [0] * self.num_labels
            for a in self.artificials:
                cost[a] = 1
            self._load_objective(cost)
            status = self._minimize()
            if status != OPTIMAL:
                raise SolverInvariantError("phase 1 cannot be unbounded")
            art_set = set(self.artificials)
            for r, bvar in enumerate(self.basis):
                if bvar in art_set and self.rows[r][self.ncols] > 0:
                    return False
            # Drive zero-level artificials out of the basis, each on the least
            # non-artificial variable with a nonzero entry in its row.  Where
            # that entry is negative the row is negated, which substitutes -a
            # for its artificial a, so the sign of a's column flips.  A row
            # with no such entry is redundant and is dropped.
            live = self.num_y + self.num_slack
            drop_rows = []
            for r, a in enumerate(self.basis):
                if a not in art_set:
                    continue
                row = self.rows[r]
                entries = [(label, s) for s, label in enumerate(self.cols)
                           if label < live and row[s] != 0]
                if not entries:
                    drop_rows.append(r)
                    continue
                entering = min(entries)[1]
                if row[entering] < 0:
                    self.rows[r] = [-v for v in row]
                    self.signs[a] = -self.signs[a]
                self._pivot(r, entering)
            for r in reversed(drop_rows):
                del self.rows[r]
                del self.basis[r]
                del self.scales[r]
            # Keep the `==` rows' artificials after the priced slots, and drop
            # the other artificials' slots.
            kept = set(self.dual_cols)
            order = [s for s, label in enumerate(self.cols) if label < live]
            self.npriced = len(order)
            order += [s for s, label in enumerate(self.cols) if label >= live and label in kept]
            self.cols = [self.cols[s] for s in order]
            self.rows = [[row[s] for s in order] + [row[-1]] for row in self.rows]
            self.ncols = len(self.cols)
            self.z = [0] * (self.ncols + 1)
        return True

    # -- solution readout ---------------------------------------------------

    def point(self) -> tuple[Fraction, ...]:
        """Values of the system's variables at the current basis."""
        values = [Fraction(0)] * self.num_y
        rhs = self.ncols
        for row, bvar, scale in zip(self.rows, self.basis, self.scales):
            if bvar < self.num_y:
                values[bvar] = Fraction(row[rhs], scale)
        return tuple(values)

    def duals(self) -> list[Fraction]:
        """Optimal duals y of the last minimization run to its optimum, one per system row.

        Standard-form row r is f_r / g_r times system row r, where f_r =
        `row_factors[r]` is the row's integer scale, negative when the row
        was negated, and g_r = `row_contents[r]` the gcd it was divided by.
        Its simplex multiplier pi_r is read from the reduced cost of its own
        column c = `dual_cols[r]`, whose only entry s_r = `signs[c]` sits in
        row r: that cost is 0 - pi_r s_r, held in `z` at c's slot times
        `cost_scale` at `scales[-1]`, and 0 when c is basic.  So y_r = pi_r
        f_r / g_r = -s_r f_r z[c] / (g_r scales[-1] cost_scale).
        """
        z = dict(zip(self.cols, self.z))  # by variable; a basic one is absent
        scale = self.scales[-1] * self.cost_scale
        return [Fraction(-self.signs[c] * factor * z[c], content * scale) if z.get(c)
                else Fraction(0)
                for c, factor, content in zip(self.dual_cols, self.row_factors,
                                              self.row_contents)]


class PolytopeSolver:
    """Re-optimizes many objectives over one constraint system, exactly.

    Phase 1 runs once at construction; each `optimize` or `step_off` call
    warm-starts from the basis the previous one left, and `duals` reads the
    dual of the last optimum reached.
    """

    def __init__(self, system: ConstraintSystem):
        self.system = system
        self._form = _StandardForm(system)
        self.feasible = self._form.phase1()
        self._optimal = False  # whether the last call reached an optimum

    def feasible_point(self) -> tuple[Fraction, ...] | None:
        if not self.feasible:
            return None
        return self._form.point()

    def _check_width(self, objective: Sequence[Fraction]) -> None:
        if len(objective) != self.system.num_vars:
            raise LpError("objective width disagrees with num_vars")

    def optimize(self, objective: Sequence[int | Fraction], maximize: bool) -> LpOutcome:
        if not self.feasible:
            return LpOutcome(INFEASIBLE)
        self._check_width(objective)
        self._optimal = False
        self._form._load_objective([-c for c in objective] if maximize else objective)
        if self._form._minimize() == UNBOUNDED:
            return LpOutcome(UNBOUNDED)
        self._optimal = True
        point = self._form.point()
        value = sum((c * x for c, x in zip(objective, point) if x and c), Fraction(0))
        return LpOutcome(OPTIMAL, value, point)

    def step_off(self, objective: Sequence[int | Fraction]) -> tuple[Fraction, ...] | None:
        """Maximize `objective` from the current basis until the basic point moves.

        The pivot rule's path stops at its first nondegenerate pivot (see
        `_StandardForm._minimize`), and the point there is returned: a
        member at which the objective is larger than at the start point x*,
        so a member other than x*.  Its pivots are a prefix of those of
        `optimize(objective, maximize=True)`.  When that path reaches an
        optimum with no such pivot, x* is optimal, the method returns None,
        and only then may `duals` be read.  The system must be bounded, as
        a polytope is: an unbounded objective raises `SolverInvariantError`.
        The objective's entries may be ints or `Fraction`s.
        """
        if not self.feasible:
            raise LpError("an infeasible system has no basis")
        self._check_width(objective)
        self._optimal = False
        self._form._load_objective([-c for c in objective])
        status = self._form._minimize(stop_on_move=True)
        if status == UNBOUNDED:
            raise SolverInvariantError("step_off met an unbounded objective")
        if status == MOVED:
            return self._form.point()
        self._optimal = True
        return None

    def duals(self) -> tuple[Fraction, ...]:
        """Optimal dual of the last optimum reached, one multiplier y_r per system row.

        It is the dual of the minimum the tableau reached, min c.x, where c
        is the objective of a minimization and minus the objective of a
        maximization.  y_r is the rate at which that minimum moves with row
        r's right-hand side, so sum_r b_r y_r equals it.  y_r >= 0 on a `>=`
        row, y_r <= 0 on a `<=` row, y_r is free on an `==` row, and sum_r
        y_r a_rj <= c_j for every variable j.  It is read from the final
        tableau with no further LP (see `_StandardForm.duals`).
        """
        if not self._optimal:
            raise LpError("duals need an optimum: an optimal `optimize`, or a "
                          "`step_off` that returned None")
        return tuple(self._form.duals())

    def pinning_objective(self) -> tuple[int, ...]:
        """The sum of the nonbasic columns at the current basis, over the system's variables.

        It is 1 on each nonbasic variable, plus w_r a_r for each `>=` row r
        whose slack is nonbasic and -w_r a_r for each such `<=` row, w_r =
        |f_r| / g_r the positive factor by which the standard form scales row
        r (see `_StandardForm.duals`).  Each w_r a_r is the standard form's
        integer row, so the objective is over the ints.  Its maximum over the
        system equals its value at the current basic point exactly when that
        point is the only member (see the module docstring).
        """
        if not self.feasible:
            raise LpError("an infeasible system has no basis")
        form = self._form
        basic = set(form.basis)
        objective = [0 if j in basic else 1 for j in range(form.num_y)]
        for row, col, factor, content in zip(self.system.constraints, form.dual_cols,
                                             form.row_factors, form.row_contents):
            if row.relation != EQUAL and col not in basic:
                weight = abs(factor) if row.relation == GREATER_EQUAL else -abs(factor)
                for j, c in enumerate(row.coeffs):
                    if c:
                        objective[j] += weight * c // content
        return tuple(objective)
