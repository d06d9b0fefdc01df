"""Equilibrium polytopes and uniqueness certificates in exact arithmetic.

The package computes Nash, correlated, coarse correlated, and
individual-rationality polytopes of finite games over the rationals,
decides whether each is a single point, and produces machine-checkable
certificates (welfare weights turning the game into an enforcement form)
or refutations (pairs of distinct members) for uniqueness claims.
"""

__version__ = "0.1.0"
