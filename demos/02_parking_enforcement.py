"""A parking game where uniqueness of equilibrium is a design target.

Two drivers each either pay the legal fee c for a spot worth v, or gamble
on one of m free spots, facing an expected towing fee t that shrinks with
the circular distance to the rival's spot.  Once t clears 2c the honest
outcome (pay, pay) is the ONLY individually rational correlated play, and
the toolkit emits a machine-checkable certificate of that fact; below the
threshold it produces two distinct equilibria as a refutation.
"""

from fractions import Fraction

from eqcert.certify import (
    Refutation,
    UniquenessCertificate,
    certify_unique_ircp,
)
from eqcert.generators import parking
from eqcert.theory import affine_transform, check_enforcement

M, V, C = 3, Fraction(1), Fraction(1, 4)
print(f"free spots m={M}, spot value v={V}, legal fee c={C}")
print(f"uniqueness threshold for the towing fee: t > 2c = {2 * C}")
print()

for t in (Fraction(2, 5), Fraction(1, 2), Fraction(11, 20), Fraction(3, 5),
          Fraction(7, 10), Fraction(3, 4), Fraction(4, 5)):
    game = parking(M, V, C, t)
    result = certify_unique_ircp(game)
    if isinstance(result, UniquenessCertificate):
        print(f"t = {t}: certificate at {game.profile_label(result.a_star)}, "
              f"gamma = {tuple(str(g) for g in result.gamma)}, "
              f"slack = {result.slack}")
    else:
        assert isinstance(result, Refutation)
        print(f"t = {t}: refuted ({result.reason}); "
              f"{len(result.witnesses)} equilibria returned as witnesses")
print()

# What the certificate actually is: welfare weights gamma that turn the
# game into "enforcement form" -- zero total payoff at the target, a
# guarantee against unilateral moves, and strictly negative weighted
# welfare everywhere else.  That structure is checkable line by line.
game = parking(M, V, C, Fraction(3, 5))
cert = certify_unique_ircp(game)
transformed = affine_transform(game, cert.gamma,
                               [-g * game.u(i, cert.a_star) for i, g in enumerate(cert.gamma)])
check = check_enforcement(transformed)
print(f"transformed game at t = 3/5 is in enforcement form: {check.holds}")
print(f"  zero at target:            {check.zero_at_star}")
print(f"  unilateral guarantee:      {check.unilateral_guarantee}")
print(f"  welfare negative elsewhere: {check.welfare_negative_elsewhere}")
