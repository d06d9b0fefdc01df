"""What a game with a unique coarse correlated equilibrium can look like.

There are exactly two possibilities: a strict pure outcome, or a fully
mixed 2x2 cycle of matching-pennies type between two players while
everyone else stays pure.  classify_unique_cce decides which, and the
byproducts (quasi-strictness, extremality, support bounds) are checked
here as well.
"""

from eqcert.certify import (
    NOT_UNIQUE,
    UNIQUE_MIXED_2X2,
    UNIQUE_PURE,
    classify_unique_cce,
    is_quasi_strict,
)
from eqcert.generators import (
    matching_pennies,
    prisoners_dilemma,
    random_mp_type,
    rock_paper_scissors,
)
from eqcert.polytopes import build_polytope
from eqcert.theory import (
    combinatorics_bound,
    is_extreme_point,
    quasi_strictness_certificate,
    winkler_support_bound,
)

for game in (prisoners_dilemma(), matching_pennies(), random_mp_type(seed=8),
             rock_paper_scissors()):
    cls = classify_unique_cce(game)
    print(f"{game.name}: {cls.variant}")
    if cls.variant == UNIQUE_PURE:
        print(f"  point mass on {game.profile_label(cls.decision.a_star)}, "
              f"certificate slack {cls.decision.slack}")
    elif cls.variant == UNIQUE_MIXED_2X2:
        parts = []
        for mix in cls.ne:
            labels = game.actions[mix.player]
            parts.append("(" + ", ".join(
                f"{labels[a]}: {w}" for a, w in sorted(mix.weights.items())) + ")")
        print(f"  mixers {cls.mixers}, NE weights {' x '.join(parts)}")
    else:
        assert cls.variant == NOT_UNIQUE
        print("  the CCE polytope holds two distinct members")
    print()

# Uniqueness forces structure.  The mixed variant is always quasi-strict
# (every unused action loses strictly) and always an extreme point of the
# CCE polytope; the support obeys a product <= 1 + sum bound.
game = random_mp_type(seed=8)
cls = classify_unique_cce(game)
point = cls.point
print(f"quasi-strict: {is_quasi_strict(game, point)}")
qs = quasi_strictness_certificate(game, point)
print(f"  factorization eta = {tuple(str(e) for e in qs.eta)}")
print(f"extreme point of CCE polytope: "
      f"{is_extreme_point(build_polytope(game, 'cce'), point)}")
report = winkler_support_bound(build_polytope(game, "cce"), point)
print(f"support {report.support_size} vs active-constraint rank "
      f"{report.active_incentive_rank}: bound holds = {report.bound_holds}")
print(f"support-size combinatorics for (2, 2): {combinatorics_bound([2, 2])}, "
      f"for (2, 2, 2): {combinatorics_bound([2, 2, 2])}")
