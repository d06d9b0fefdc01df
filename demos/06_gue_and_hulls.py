"""Guaranteed-utility efficiency and the span of the Nash equilibria.

Uniqueness of the individually rational correlated profile is equivalent
to a welfare property of the target profile: it must Pareto-dominate
every lottery that respects the unilateral guarantees, strictly so in
utility space.  The pure-profile version of that property is necessary
but not sufficient, and this script walks through a game separating the
two.  It closes with hull comparisons: when do the Nash equilibria
already span the whole IRCP polytope?
"""

from fractions import Fraction

from eqcert import generators
from eqcert.certify import (
    certify_unique_ircp,
    is_gue,
    is_strict_fractional_gue,
)
from eqcert.games import Game, JointDistribution
from eqcert.polytopes import build_polytope, membership
from eqcert.theory import HULL_EQUAL, conv_ne_vs_ircp

F = Fraction

game = generators.table3()
print(f"{game.name}: pure against fractional efficiency")
for profile in game.profiles():
    flags = (is_gue(game, profile), is_strict_fractional_gue(game, profile))
    if any(flags):
        print(f"  {game.profile_label(profile)}: gue={flags[0]}, "
              f"strict fractional gue={flags[1]}")

# The separating lottery: (b1,b2) favors player 0 and (c1,c2) favors
# player 1, so neither pure profile dominates (a1,a2) on its own, but
# their even mix hands both players 1/2 instead of 0.
mu = JointDistribution({(1, 1): F(1, 2), (2, 2): F(1, 2)})
for i in range(2):
    expected = sum(w * game.u(i, p) for p, w in mu.weights.items())
    print(f"  player {i}: u(a1,a2) = {game.u(i, (0, 0))}, "
          f"lottery value = {expected}")
print(f"  lottery in IRCP: {membership(build_polytope(game, 'ircp'), mu).is_member}")
print(f"  certify_unique_ircp outcome: "
      f"{type(certify_unique_ircp(game)).__name__}")
print()

# The fractional flag tracks uniqueness profile by profile: it holds
# exactly at a certified target and nowhere in a refuted game.
parking = generators.parking(3, 1, F(1, 4), F(3, 5))
cert = certify_unique_ircp(parking)
holds = [p for p in parking.profiles() if is_strict_fractional_gue(parking, p)]
print(f"{parking.name}: certificate at {parking.profile_label(cert.a_star)}")
print(f"  strict fractional gue holds at "
      f"{[parking.profile_label(p) for p in holds]} "
      f"and fails at the other {parking.num_profiles - len(holds)} profiles")

pd = generators.prisoners_dilemma()
holds = [p for p in pd.profiles() if is_strict_fractional_gue(pd, p)]
print(f"{pd.name}: IRCP uniqueness is refuted (mutual cooperation is also "
      f"individually rational)")
print(f"  profiles where strict fractional gue holds: "
      f"{[pd.profile_label(p) for p in holds]}")
print()

print("hull comparisons: conv(NE) against the IRCP polytope")
table2 = generators.table2()
ne = [JointDistribution.point_mass((0, 0)), JointDistribution.point_mass((1, 1))]
res = conv_ne_vs_ircp(table2, ne)
print(f"  {table2.name}, two pure NE: {res.status}")

res = conv_ne_vs_ircp(pd, [JointDistribution.point_mass((1, 1))])
print(f"  {pd.name}, its unique NE: {res.status}")
print(f"    witness outside the hull: "
      f"{ {pd.profile_label(p): str(w) for p, w in res.witness.weights.items()} }")
print(f"    witness in IRCP: "
      f"{membership(build_polytope(pd, 'ircp'), res.witness).is_member}")

flat = Game((("a", "b"), ("a", "b")), ((0, 0, 0, 0), (0, 0, 0, 0)), "flat 2x2")
all_pure = [JointDistribution.point_mass(p) for p in flat.profiles()]
res = conv_ne_vs_ircp(flat, all_pure)
print(f"  {flat.name}, all four pure NE: {res.status}")
assert res.status == HULL_EQUAL
