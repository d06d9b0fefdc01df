"""Workload inputs for the eqcert benchmark.

Each workload turns a variant number into game, contest and grid files and a
list of command lines for `eqcert.cli.main`.  The variant is the run's seed
modulo POOL, so every input the benchmark can produce has a recorded decision
fingerprint in `fingerprints.json`.

This module imports eqcert only inside `build`, because set-up time includes
the import.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction as F
from pathlib import Path

WORKLOADS = ("random-games", "singleton-sweep", "tullock-grid", "dynamics")
UNSEEDED = ("tullock-grid",)
POOL = 32
KINDS = ("analyze", "certify", "verify", "contest", "simulate")


@dataclass(frozen=True)
class Op:
    """One `eqcert` command line; `key` names its entry in the fingerprints.

    An untimed command runs once, before the first pass, to write an input
    that timed commands read; it is checked like the others.
    """

    key: str
    kind: str
    argv: tuple[str, ...]
    output: str | None = None
    timed: bool = True


class _Inputs:
    """Writes input files and collects the command lines that read them."""

    def __init__(self, workdir: Path):
        self.dir = workdir
        self.out = workdir / "out"
        self.out.mkdir(parents=True, exist_ok=True)
        self.ops: list[Op] = []

    def write(self, name: str, data: bytes) -> str:
        path = self.dir / name
        path.write_bytes(data)
        return str(path)

    def game(self, name: str, game) -> str:
        from eqcert.games import save_game
        return self.write(f"{name}.json", save_game(game))

    def op(self, key: str, kind: str, *args: str, output: bool = True,
           timed: bool = True) -> str | None:
        out = str(self.out / f"{key}.json") if output else None
        argv = (kind, *args) + (("--json", out) if out else ())
        self.ops.append(Op(key, kind, argv, out, timed))
        return out

    def analyze_all(self, name: str, path: str, concepts: str = "ne,ce,cce,ircp") -> None:
        """analyze --check-unique, verify its report, certify both concepts."""
        report = self.op(f"{name}.analyze", "analyze", path, "--concepts", concepts,
                         "--check-unique")
        self.op(f"{name}.verify", "verify", report, output=False)
        self.certify(name, path, "ircp")
        self.certify(name, path, "cce")

    def certify(self, name: str, path: str, concept: str) -> str:
        return self.op(f"{name}.certify-{concept}", "certify", path, "--concept", concept)


def dominant_game(shape: tuple[int, ...], seed: int):
    """Random integer game in which every player has a strictly dominant action."""
    from eqcert.games import Game
    rng = random.Random(seed)
    dominant = [rng.randrange(k) for k in shape]
    profiles = [()]
    for k in shape:
        profiles = [p + (a,) for p in profiles for a in range(k)]
    payoffs = tuple(
        tuple(F(rng.randint(-3, 3) + (7 if p[i] == dominant[i] else 0)) for p in profiles)
        for i in range(len(shape)))
    actions = tuple(tuple(f"a{i}_{k}" for k in range(size)) for i, size in enumerate(shape))
    return Game(actions, payoffs, f"dominant{shape}#{seed}")


def _random_games(inp: _Inputs, variant: int) -> None:
    # The cost of a game varies with its payoffs by half or more, so the
    # costliest games are the same for every seed and the seed draws the
    # small ones: with the 4x4 games drawn as well, the work of a pass varied
    # by 9% (quartile spread over the 32 variants) from the games alone.  A
    # 5x5 game takes 0.2 to 0.5 s depending on its payoffs, and 6x6 and
    # larger take seconds each, so they are left out.
    from eqcert import generators
    fixed = [((4, 5), 4), ((3, 3, 3), 2), ((4, 4), 10)]
    seeded = [((3, 3), 6), ((2, 2, 2), 2)]
    for plan, base in ((fixed, 0), (seeded, 1000 * (variant + 1))):
        seed = base
        for shape, count in plan:
            for _ in range(count):
                seed += 1
                name = f"random-{'x'.join(map(str, shape))}-s{seed}"
                inp.analyze_all(name, inp.game(name, generators.random_game(shape, seed)))


def _singleton_sweep(inp: _Inputs, variant: int) -> None:
    from eqcert import generators
    # Towing fees across the window where the parking IRCP is one point.  The
    # sweep is fixed, since its cost depends on the fee; the seed varies the
    # cheap games below.
    for m, fees in ((3, ("11/20", "3/5", "7/10", "3/4")), (4, ("11/20", "3/5", "7/10", "3/4")),
                    (5, ("3/5", "3/4"))):
        for fee in fees:
            name = f"parking-m{m}-t{fee.replace('/', '_')}"
            game = generators.parking(m, 1, F(1, 4), F(fee))
            inp.analyze_all(name, inp.game(name, game))
    for name, game in (("pd", generators.prisoners_dilemma()),
                       ("table2", generators.table2()),
                       ("table3", generators.table3())):
        inp.analyze_all(name, inp.game(name, game))
    for k in range(8):
        seed = 1000 * variant + k
        name = f"mp_type-s{seed}"
        inp.analyze_all(name, inp.game(name, generators.random_mp_type(seed)))
    for k, shape in enumerate(((2, 2, 2), (2, 2, 2), (2, 2, 2), (3, 2, 2), (3, 2, 2))):
        seed = 1000 * variant + 10 + k
        name = f"dominant-{'x'.join(map(str, shape))}-s{seed}"
        inp.analyze_all(name, inp.game(name, dominant_game(shape, seed)))


def _contest(inp: _Inputs, name: str, spec, grids) -> tuple[str, str]:
    from eqcert import contests
    from eqcert.rational import format_rational
    spec_path = inp.write(f"{name}.contest.json", contests.save_contest(spec))
    if isinstance(grids[0], list):
        raw = [[format_rational(x) for x in g] for g in grids]
    else:
        raw = [format_rational(x) for x in grids]
    grid_path = inp.write(f"{name}.grid.json", json.dumps(raw).encode())
    return spec_path, grid_path


def _tullock16(inp: _Inputs):
    from eqcert import contests
    from eqcert.contests import ContestSpec, LinearCost, TullockRatio
    spec = ContestSpec(TullockRatio(1), (1, 1), (LinearCost(1), LinearCost(1)))
    grid = [F(k, 16) for k in range(1, 17)]
    spec_path, grid_path = _contest(inp, "tullock16", spec, grid)
    game = inp.game("tullock16", contests.discretize(spec, grid, "tullock 16x16"))
    return spec_path, grid_path, game


def _tullock_grid(inp: _Inputs, variant: int) -> None:
    # Contest games are fixed by the paper's criteria; the seed does not
    # change them.  The 16x16 grid and the criterion-8 contests get certify
    # only: their analyze takes about 10 s and 1.1 to 1.4 s each.
    from eqcert import contests
    from eqcert.contests import ContestSpec, LinearCost, PowerCost, TullockRatio
    tullock = ContestSpec(TullockRatio(1), (1, 1), (LinearCost(1), LinearCost(1)))
    grid8 = [F(k, 8) for k in range(1, 9)]
    inp.analyze_all("tullock8", inp.game("tullock8", contests.discretize(tullock, grid8)),
                    "ne,cce,ircp")
    grid12 = [F(k, 12) for k in range(1, 13)]
    report = inp.op("tullock12.analyze", "analyze",
                    inp.game("tullock12", contests.discretize(tullock, grid12)),
                    "--concepts", "ne,cce,ircp", "--check-unique")
    inp.op("tullock12.verify", "verify", report, output=False)
    spec16, grid16, game16 = _tullock16(inp)
    inp.certify("tullock16", game16, "cce")
    inp.certify("tullock16", game16, "ircp")
    inp.op("tullock16.prop3", "contest", spec16, "--grid", grid16, "--prop3",
           "--a-star", "1/4,1/4")
    # The criterion-8 contests: asymmetric values, power costs, r = 2 and 1/2.
    variants = [
        ("values21", ContestSpec(TullockRatio(1), (2, 1),
                                 (PowerCost(1, 2), LinearCost(F(1, 2)))),
         "1/2,1/2", grid8),
        ("r2", ContestSpec(TullockRatio(2), (2, 1), (PowerCost(2, 2), PowerCost(1, 2))),
         "1/2,1/2", grid8),
        ("r1_2", ContestSpec(TullockRatio(F(1, 2)), (2, 3),
                             (PowerCost(2, 2), PowerCost(3, 2))),
         "1/4,1/4", [F(k * k, 64) for k in range(1, 9)]),
    ]
    for name, spec, a_star, grid in variants:
        spec_path, grid_path = _contest(inp, name, spec, grid)
        game = inp.game(name, contests.discretize(spec, grid))
        inp.certify(name, game, "cce")
        inp.op(f"{name}.prop3", "contest", spec_path, "--grid", grid_path, "--prop3",
               "--a-star", a_star)
    band_path, ratio_path = _contest(inp, "band", tullock,
                                     [F(k, 1001) for k in range(1, 1001)])
    inp.op("band.check", "contest", band_path, "--grid", ratio_path, "--band",
           "--c", "1/4")


def _dynamics(inp: _Inputs, variant: int) -> None:
    # Steps are fixed; the seed moves only the sampling of the learners.  The
    # certificates that simulate reads are written once, untimed, so that the
    # pass times only the small analyze, certify and verify commands that the
    # end-to-end metrics need besides simulate.
    from eqcert import generators
    _, _, game16 = _tullock16(inp)
    board = {
        "pd": inp.game("pd", generators.prisoners_dilemma()),
        "parking": inp.game("parking", generators.parking(3, 1, F(1, 4), F(3, 5))),
        "rps": inp.game("rps", generators.rock_paper_scissors()),
        "tullock16": game16,
    }
    certs = {name: inp.op(f"{name}.prepare-cce", "certify", board[name], "--concept", "cce",
                          timed=False)
             for name in ("pd", "parking", "tullock16")}
    # Parking with four spots gives analyze and verify, and with five spots
    # certify, enough work here to time steadily.
    board_m4 = inp.game("parking-m4", generators.parking(4, 1, F(1, 4), F(3, 5)))
    for name in ("pd", "parking", "rps", "parking-m4"):
        path = board_m4 if name == "parking-m4" else board[name]
        report = inp.op(f"{name}.analyze", "analyze", path, "--check-unique")
        inp.op(f"{name}.verify", "verify", report, output=False)
        if name != "rps":
            inp.certify(name, path, "ircp")
            inp.certify(name, path, "cce")
    board_m5 = inp.game("parking-m5", generators.parking(5, 1, F(1, 4), F(3, 4)))
    inp.certify("parking-m5", board_m5, "ircp")
    inp.certify("parking-m5", board_m5, "cce")
    runs = [("external_mw", "pd", 20000), ("external_mw", "parking", 20000),
            ("external_mw", "tullock16", 20000), ("internal_rm", "rps", 2000),
            ("internal_rm", "parking", 1000)]
    for k, (algo, name, steps) in enumerate(runs):
        seed = 100 * variant + k
        args = [board[name], "--algo", algo, "--steps", str(steps), "--seed", str(seed),
                "--rate", "5"]
        if name in certs:
            args += ["--certificate", certs[name]]
        inp.op(f"{name}.{algo}-s{seed}", "simulate", *args)


_BUILDERS = {
    "random-games": _random_games,
    "singleton-sweep": _singleton_sweep,
    "tullock-grid": _tullock_grid,
    "dynamics": _dynamics,
}


def build(workload: str, variant: int, workdir: Path) -> list[Op]:
    """Write the workload's input files under `workdir`; return its command lines."""
    inp = _Inputs(workdir)
    _BUILDERS[workload](inp, variant)
    return inp.ops
