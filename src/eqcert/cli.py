"""Command-line front end.

Subcommands: analyze, certify, generate, contest, simulate, verify.
Exit codes are a stable contract: 0 = success / certificate / check passed,
1 = refuted / check failed / verification problems, 2 = input error,
3 = the exact solver gave up (pivot limit from EQCERT_LP_PIVOT_LIMIT) or
failed an internal consistency check, so no answer was reached.  `main` is
the one place that maps errors to codes: `CliError`, `RationalFormatError`,
`contests.EvaluationDomainError`, `dynamics.DynamicsError` and
`report.ReportError` to 2, `PivotLimitExceeded` and `SolverInvariantError`
to 3.  A command raises `CliError` itself only to add text, or for a type the
library also raises on its own misuse: `LpError` (an EQCERT_LP_PIVOT_LIMIT
that is not a nonnegative integer), `GameFormatError` and `ValueError`.

`main` builds a subcommand's parser, or the full one, on its first call that
needs it and keeps it for the rest of the process, so repeated calls in one
process parse with no rebuild; importing this module builds none.  A parser
holds no state of a call: each parse makes a fresh `Namespace`, and help and
usage errors look up `sys.stdout`, `sys.stderr` and the terminal width when
they print.  Nothing a command computes is kept across calls.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import certify, contests, dynamics, games, generators, report
from .games import (
    Game,
    GameFormatError,
    JointDistribution,
    load_game,
    save_game,
    total_variation,
)
from .lp import LpError, PivotLimitExceeded, SolverInvariantError, pivot_limit
from .rational import RationalFormatError, format_rational, parse_rational


class CliError(Exception):
    """User-facing input problem; maps to exit code 2."""


def _read_bytes(path: str) -> bytes:
    try:
        with open(path, "rb") as handle:
            return handle.read()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
        return
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text if text.endswith("\n") else text + "\n")
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}") from exc


def _load_game_file(path: str) -> Game:
    try:
        return load_game(_read_bytes(path))
    except GameFormatError as exc:
        raise CliError(f"{path}: {exc}") from exc


def _check_pivot_limit() -> None:
    try:
        pivot_limit()
    except LpError as exc:
        raise CliError(str(exc)) from exc


def _parse_profile(text: str, game: Game) -> tuple[int, ...]:
    try:
        profile = tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise CliError(f"profile must be comma-separated indices: {text!r}") from exc
    if len(profile) != game.num_players:
        raise CliError(f"profile needs {game.num_players} coordinates")
    for i, a in enumerate(profile):
        if not 0 <= a < game.shape[i]:
            raise CliError(f"action index {a} out of range for player {i}")
    return profile


def _parse_rationals(text: str) -> list[Fraction]:
    return [parse_rational(part.strip()) for part in text.split(",")]


def _profile_label(game: Game, profile) -> str:
    return "(" + ", ".join(game.actions[i][a] for i, a in enumerate(profile)) + ")"


# -- analyze --------------------------------------------------------------------


def cmd_analyze(args: argparse.Namespace) -> int:
    game = _load_game_file(args.game)
    concepts = tuple(c.strip() for c in args.concepts.split(",") if c.strip())
    if not concepts:
        raise CliError(f"--concepts names no concept, got {args.concepts!r}; "
                       f"pick from {','.join(report.ALL_CONCEPTS)}")
    data = report.build_report(game, concepts, check_unique=args.check_unique)

    print(f"game: {game.name or args.game}  shape {'x'.join(map(str, game.shape))}")
    print("maximin: " + ", ".join(data["maximin"]))
    if "ne" in data:
        pure = data["ne"]["pure"]
        if pure:
            shown = ", ".join(
                _profile_label(game, e["profile"]) + (" strict" if e["strict"] else "")
                for e in pure)
            print(f"pure NE: {shown}")
        else:
            print("pure NE: none")
    for concept, entry in data.get("concepts", {}).items():
        status = "singleton" if entry["singleton"] else "not a singleton"
        print(f"{concept.upper()}: {status}")
    if "classification" in data:
        print(f"unique-CCE classification: {data['classification']['variant']}")
    for key, entry in data.get("certificates", {}).items():
        if entry["type"] == "certificate":
            print(f"{key.upper()} uniqueness: certified at "
                  f"{_profile_label(game, entry['a_star'])}, "
                  f"gamma = ({', '.join(entry['gamma'])}), slack = {entry['slack']}")
        else:
            print(f"{key.upper()} uniqueness: refuted ({entry['reason']})")
    if args.json:
        _write_text(args.json, report.save_report(data).decode("utf-8"))
    return 0


# -- certify --------------------------------------------------------------------


def cmd_certify(args: argparse.Namespace) -> int:
    game = _load_game_file(args.game)
    target = _parse_profile(args.target, game) if args.target else None
    if args.concept == "ircp":
        result = certify.certify_unique_ircp(game)
    else:
        result = certify.certify_unique_pure_cce(game)

    if isinstance(result, certify.UniquenessCertificate):
        payload = certify.certificate_to_dict(result)
        if args.json:
            _write_text(args.json, json.dumps(payload, indent=2))
        print(f"certificate: unique {args.concept.upper()} at "
              f"{_profile_label(game, result.a_star)}")
        print(f"gamma = ({', '.join(payload['gamma'])}), slack = {payload['slack']}")
        if target is not None and target != result.a_star:
            print(f"target {_profile_label(game, target)} is not the certified "
                  "profile", file=sys.stderr)
            return 1
        return 0

    payload = certify.refutation_to_dict(game, result)
    if args.json:
        _write_text(args.json, json.dumps(payload, indent=2))
    print(f"refuted: {result.reason}")
    for idx, witness in enumerate(payload["witnesses"]):
        parts = ", ".join(f"{p}: {w}" for p, w in witness.items())
        print(f"witness {idx}: {{{parts}}}")
    return 1


# -- generate -------------------------------------------------------------------


def cmd_generate(args: argparse.Namespace) -> int:
    family = args.family
    try:
        if family == "pd":
            game = generators.prisoners_dilemma()
        elif family == "matching_pennies":
            game = generators.matching_pennies()
        elif family == "rps":
            game = generators.rock_paper_scissors()
        elif family == "parking":
            game = generators.parking(args.m, parse_rational(args.v),
                                      parse_rational(args.c), parse_rational(args.t))
        elif family == "table2":
            game = generators.table2()
        elif family == "table3":
            game = generators.table3()
        elif family == "mp_type":
            if args.params:
                values = _parse_rationals(args.params)
                if len(values) != 8:
                    raise CliError("--params needs eight payoff entries")
                game = generators.mp_type(*values)
            elif args.seed is not None:
                game = generators.random_mp_type(args.seed)
            else:
                raise CliError("mp_type needs --params or --seed")
        elif family == "random":
            if args.seed is None:
                raise CliError("random games need --seed")
            try:
                shape = tuple(int(part) for part in args.shape.split(","))
            except ValueError as exc:
                raise CliError("--shape must be comma-separated action counts, "
                               f"got {args.shape!r}") from exc
            if args.low > args.high:
                raise CliError(f"--low {args.low} is above --high {args.high}")
            game = generators.random_game(shape, args.seed, args.low, args.high)
        else:
            raise CliError(f"unknown family {family!r}")
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    _write_text(args.out, save_game(game).decode("utf-8"))
    return 0


# -- contest --------------------------------------------------------------------


def cmd_contest(args: argparse.Namespace) -> int:
    spec = contests.load_contest(_read_bytes(args.spec))
    grids = contests.load_grid(_read_bytes(args.grid))

    if args.prop3:
        if not args.a_star:
            raise CliError("--prop3 needs --a-star")
        anchor = _parse_rationals(args.a_star)
        if len(anchor) != 2:
            raise CliError("--a-star needs two efforts")
        gamma = _parse_rationals(args.gamma) if args.gamma is not None else None
        if gamma is not None and (len(gamma) != 2 or any(g <= 0 for g in gamma)):
            raise CliError("--gamma needs two positive weights")
        result = contests.verify_prop3(spec, anchor, grids, gamma=gamma)
        payload = {
            "mode": "prop3",
            "ok": result.ok,
            "a_star": [format_rational(x) for x in result.a_star],
            "gamma": [format_rational(g) for g in result.gamma],
            "strict_ne_violations": [
                {"player": i, "effort": format_rational(x), "gain": format_rational(g)}
                for i, x, g in result.strict_ne_violations],
            "potential_violations": [
                {"profile": [format_rational(x) for x in p],
                 "value": format_rational(v)}
                for p, v in result.potential_violations],
        }
        if args.json:
            _write_text(args.json, json.dumps(payload, indent=2))
        if result.ok:
            print("prop3 check: passed (strict NE on grid, potential negative off it)")
            return 0
        print(f"prop3 check: failed ({len(result.strict_ne_violations)} NE, "
              f"{len(result.potential_violations)} potential violations)")
        return 1

    # --band: the parser takes exactly one of --prop3 and --band.
    try:
        c = parse_rational(args.c)
    except RationalFormatError as exc:
        raise CliError(f"--c: {exc}") from exc
    # one grid, or two equal ones, is its own sorted union
    flat = grids[0] if grids[0] == grids[1] else contests._sorted_grid(grids[0] + grids[1])
    ok = contests.ratio_band_check(spec.success, c, flat)
    payload = {"mode": "band", "ok": ok, "c": format_rational(c), "points": len(flat)}
    if args.json:
        _write_text(args.json, json.dumps(payload, indent=2))
    print(f"band check at c = {format_rational(c)}: "
          f"{'passed' if ok else 'failed'} on {len(flat)} ratios")
    return 0 if ok else 1


# -- simulate -------------------------------------------------------------------


def cmd_simulate(args: argparse.Namespace) -> int:
    game = _load_game_file(args.game)
    rate = parse_rational(args.rate)
    try:
        learning_rate = float(rate)
    except OverflowError as exc:
        raise CliError(f"--rate {args.rate} is too large: {exc}") from exc
    if rate > 0 and learning_rate == 0:
        raise CliError(f"--rate {args.rate} is too small: it rounds to 0.0 as a float")

    a_star = None
    if args.certificate:
        # A bad certificate is an input error: reject it before any step runs.
        where = f"{args.certificate}: unreadable certificate"
        cert = games.read_json(_read_bytes(args.certificate), CliError, where)
        try:
            a_star = games.profile_from_json(cert["a_star"])
        except (KeyError, TypeError, ValueError) as exc:
            raise CliError(f"{where}: {exc}") from exc
        problems = certify.verify_certificate(game, cert)
        if problems:
            raise CliError(f"{args.certificate}: {problems[0]}")

    outcome = dynamics.run(game, args.algo, args.steps, args.seed,
                           learning_rate=learning_rate)

    payload: dict = {
        "algorithm": outcome.algorithm,
        "steps": outcome.steps,
        "seed": outcome.seed,
        "learning_rate": format_rational(rate),
        "empirical": games.distribution_to_dict(game, outcome.empirical),
        "external_regret": [format_rational(r) for r in outcome.external_regrets],
        "internal_regret": [format_rational(r) for r in outcome.internal_regrets],
    }
    print(f"{outcome.algorithm}: {outcome.steps} steps, seed {outcome.seed}")
    print(f"max external regret: {float(outcome.max_external_regret):.6f}")
    print(f"max internal regret: {float(outcome.max_internal_regret):.6f}")

    if a_star is not None:
        target = JointDistribution.point_mass(a_star)
        tv = total_variation(outcome.empirical, target)
        payload["certificate_profile"] = list(a_star)
        payload["tv_to_certificate"] = format_rational(tv)
        print(f"total variation to certified profile "
              f"{_profile_label(game, a_star)}: {float(tv):.6f}")

    if args.json:
        _write_text(args.json, json.dumps(payload, indent=2))
    return 0


# -- verify ---------------------------------------------------------------------


def cmd_verify(args: argparse.Namespace) -> int:
    data = report.load_report(_read_bytes(args.report))
    problems = report.verify_report(data)
    if problems:
        for problem in problems:
            print(problem)
        return 1
    print("report verified: all embedded objects re-check")
    return 0


# -- parser ---------------------------------------------------------------------


def _analyze_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("game", help="game JSON file")
    p.add_argument("--concepts", default="ne,ce,cce,ircp",
                   help="comma list from ne,ce,cce,ircp")
    p.add_argument("--check-unique", action="store_true",
                   help="also run certification, classification, and GUE flags")
    p.add_argument("--json", metavar="OUT", help="write the full report here")
    p.set_defaults(func=cmd_analyze)


def _certify_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("game", help="game JSON file")
    p.add_argument("--concept", choices=("ircp", "cce"), required=True)
    p.add_argument("--target", metavar="I,J,...",
                   help="expected profile; mismatch exits 1")
    p.add_argument("--json", metavar="OUT", help="write the proof object here")
    p.set_defaults(func=cmd_certify)


def _generate_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("family", choices=("pd", "matching_pennies", "rps", "parking",
                                      "table2", "table3", "mp_type", "random"))
    p.add_argument("--m", type=int, default=3, help="parking: number of spots")
    p.add_argument("--v", default="1", help="parking: value of a spot")
    p.add_argument("--c", default="1/4", help="parking: fee for paying")
    p.add_argument("--t", default="3/5", help="parking: expected towing fee")
    p.add_argument("--params", help="mp_type: eight payoffs a,b,c,d,e,f,g,h")
    p.add_argument("--seed", type=int, help="mp_type/random: RNG seed")
    p.add_argument("--shape", default="2,2", help="random: actions per player")
    p.add_argument("--low", type=int, default=-3, help="random: payoff lower bound")
    p.add_argument("--high", type=int, default=3, help="random: payoff upper bound")
    p.add_argument("--out", metavar="FILE", help="output path (default stdout)")
    p.set_defaults(func=cmd_generate)


def _contest_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("spec", help="contest JSON file")
    p.add_argument("--grid", required=True, help="grid JSON file")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--prop3", action="store_true",
                      help="strict-NE and potential-sign check on the grid")
    mode.add_argument("--band", action="store_true",
                      help="admissible-band check of the share function")
    p.add_argument("--a-star", dest="a_star", metavar="X,Y",
                   help="prop3: anchor efforts")
    p.add_argument("--gamma", metavar="G1,G2", help="prop3: override the weights")
    p.add_argument("--c", default="1/4", help="band: band parameter")
    p.add_argument("--json", metavar="OUT", help="write the check result here")
    p.set_defaults(func=cmd_contest)


def _simulate_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("game", help="game JSON file")
    p.add_argument("--algo", choices=dynamics.ALGORITHMS, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--rate", default="1/2", help="learning-rate scale")
    p.add_argument("--certificate", metavar="FILE",
                   help="certificate JSON; reports TV distance to its profile")
    p.add_argument("--json", metavar="OUT", help="write the run summary here")
    p.set_defaults(func=cmd_simulate)


def _verify_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("report", help="report JSON file")
    p.set_defaults(func=cmd_verify)


# name -> (help line, function adding its arguments), in the order of `eqcert -h`.
SUBCOMMANDS = {
    "analyze": ("polytope and uniqueness analysis", _analyze_args),
    "certify": ("uniqueness certificate or refutation", _certify_args),
    "generate": ("write a named example game", _generate_args),
    "contest": ("grid checks for ratio-form contests", _contest_args),
    "simulate": ("no-regret dynamics on a game", _simulate_args),
    "verify": ("re-check a report's embedded objects", _verify_args),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The command-line parser; given a subcommand's name, only its subparser.

    A parser for one subcommand parses that subcommand's arguments, prints
    its help and reports its usage errors exactly as the full parser does:
    its top-level usage line still names every subcommand.
    """
    parser = argparse.ArgumentParser(
        prog="eqcert",
        description="Equilibrium polytopes and uniqueness certificates "
                    "for finite games, in exact arithmetic.")
    # The full parser's usage line lists the choices itself; a one-subcommand
    # parser gets the same text as its metavar.
    metavar = None if command is None else "{" + ",".join(SUBCOMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, (help_line, add_args) in SUBCOMMANDS.items():
        if command in (None, name):
            add_args(sub.add_parser(name, help=help_line))
    return parser


# Parsers that `main` has built, by subcommand name; None keys the full parser.
# Each holds the `cmd_*` function it was built with (`set_defaults(func=...)`).
_PARSERS: dict[str | None, argparse.ArgumentParser] = {}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # Only the named subcommand's parser; anything else gets the full one.
    command = argv[0] if argv and argv[0] in SUBCOMMANDS else None
    parser = _PARSERS.get(command)
    if parser is None:
        parser = _PARSERS[command] = build_parser(command)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        _check_pivot_limit()
        return args.func(args)
    except (CliError, RationalFormatError, contests.EvaluationDomainError,
            dynamics.DynamicsError, report.ReportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (PivotLimitExceeded, SolverInvariantError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
