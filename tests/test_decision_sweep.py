"""The decisions of a fixed sweep of random games, pinned by one digest.

`report.build_report(game, check_unique=True)` runs on `random_game(shape,
seed, low, high)` for ten shapes from 2x2 to 5x5 and from 2x2x2 to 3x3x3,
three payoff ranges and seeds 1-15: 450 games.  Every report must verify
clean, and the SHA-256 of what each one decides must equal the recorded
one: per concept, whether the polytope is one point and that point, and
the type of the CCE certificate.  The witnesses of a refutation are left
out, since any two distinct members refute; a change to the LP path may
move them but must not move a decision or a singleton point.
"""

import hashlib

from eqcert import generators, report

SHAPES = ((2, 2), (2, 3), (3, 3), (3, 4), (4, 4), (4, 5), (5, 5), (2, 2, 2), (2, 2, 3), (3, 3, 3))
RANGES = ((-3, 3), (-1, 1), (0, 2))
SEEDS = range(1, 16)

DIGEST = "36494d9b103020c0417e930f6f54536c2dee0a60f00cdee087608cbf270c8ec6"


def test_decision_sweep_digest():
    decisions = []
    for shape in SHAPES:
        for low, high in RANGES:
            for seed in SEEDS:
                data = report.build_report(generators.random_game(shape, seed, low, high),
                                           check_unique=True)
                assert report.verify_report(data) == [], (shape, low, high, seed)
                decisions.append([(concept, entry["singleton"], entry.get("point"))
                                  for concept, entry in data["concepts"].items()])
                decisions.append(data["certificates"]["cce"]["type"])
    assert len(decisions) == 2 * 450
    assert hashlib.sha256(repr(decisions).encode()).hexdigest() == DIGEST
