"""Tour of the four solution-concept polytopes on rock-paper-scissors.

Every computation below is exact: payoffs, distributions, and polytope
constraints all live in rational arithmetic, so "member" and "not a
member" are theorems about the game, not numerical verdicts.
"""

from fractions import Fraction

from eqcert.generators import rock_paper_scissors
from eqcert.games import JointDistribution
from eqcert.polytopes import build_polytope, is_singleton, membership
from eqcert.theory import coordinate_bounds

rps = rock_paper_scissors()
print(f"game: {rps.name}, shape {rps.shape}")
print()

# The four concepts are nested: NE products sit inside CE, CE inside CCE,
# CCE inside the individually-rational set (here called IRCP).
ce = build_polytope(rps, "ce")
cce = build_polytope(rps, "cce")
ircp = build_polytope(rps, "ircp")
print(f"CE incentive rows: {len(ce.incentive_info)}, "
      f"CCE: {len(cce.incentive_info)}, IRCP: {len(ircp.incentive_info)}")

# The CE polytope of this game collapses to a single point: the uniform
# product distribution, which is also its unique NE.
result = is_singleton(ce)
print(f"CE singleton: {result.is_singleton}")
uniform = {p: w for p, w in result.point.weights.items()}
print(f"  the point puts weight {uniform[(0, 0)]} on every profile")
print()

# A correlation device that always makes the two players tie is a CCE
# (neither player gains by abandoning the device for a fixed action) but
# not a CE (a player told "rock" profits by playing paper instead).
diagonal = JointDistribution({(a, a): Fraction(1, 3) for a in range(3)})
print("diagonal device (always tie):")
print(f"  CCE member: {membership(cce, diagonal).is_member}")
verdict = membership(ce, diagonal)
print(f"  CE member:  {verdict.is_member}")
worst = max(verdict.violations, key=lambda v: v.shortfall)
print(f"  worst CE violation: {worst.info.label}, shortfall {worst.shortfall}")
print()

# Go one level coarser: a device mixing (rock, paper) and (paper, rock)
# leaves both players at their security level, so it is individually
# rational, yet committing to scissors beats following it.
swap = JointDistribution({(0, 1): Fraction(1, 2), (1, 0): Fraction(1, 2)})
print("swap device (one player always one step behind):")
print(f"  IRCP member: {membership(ircp, swap).is_member}")
print(f"  CCE member:  {membership(cce, swap).is_member}")
print()

# Exact coordinate ranges over a polytope: how much weight can any single
# profile carry across all correlated equilibria?
lo, hi = coordinate_bounds(ce, (0, 0))
print(f"CE weight range on (rock, rock): [{lo}, {hi}]")
lo, hi = coordinate_bounds(cce, (0, 0))
print(f"CCE weight range on (rock, rock): [{lo}, {hi}]")
