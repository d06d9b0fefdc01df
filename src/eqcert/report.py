"""Analysis reports: every claim travels with a re-checkable object.

A report embeds the game it talks about, so the verifier can re-derive
everything from the report file alone: witnesses are re-tested for
membership, certificates re-checked against the payoffs, pure-NE lists
recomputed, GUE flags re-evaluated.  Distributions, mixed actions and
profiles take the one JSON form of `games` both ways, and witnesses are
compared as parsed distributions (`polytopes.membership_problems`), so one
point written twice, in any spelling, is no pair.

`build_report` and `verify_report` each make one `polytopes.GameAnalysis`
per call, so their sections and certificates share every polytope,
singleton test and maximin LP they compute; nothing is kept across calls.

Report format, version 3.  `maximin` lists each player's security level.
`maximin_certificates[i]` certifies level i with two exact distributions:
`strategy`, player i's maximin strategy keyed by action index, and
`punishment`, the opponents' correlated punishment keyed by the index of
their joint action in `Game.opponent_profiles(i)` order (the opponents'
actions in player order, the last varying fastest), the column index of
`Game.int_rows[i]`: the in-memory form is the on-disk form.  `verify_report`
checks both bounds of each certificate exactly (`zerosum.check_maximin`)
and takes the levels from there, so it solves no maximin LP; it rejects a
report of another version.  `run` holds what differs between two runs on
the same game, today `timing_ms`; `verify_report` ignores it, and every
other key is a deterministic function of the game and the options.

`concepts.<c>` is the only place a joint distribution is written:
`{"singleton": true, "point": ...}` or `{"singleton": false, "witnesses":
[two members]}`.  The sections that rest on it refer to it by key.
`certificates.<c>` (c is ircp or cce), written from the decision for c
(`certify.certify_unique_ircp`, or for cce the `decision` that
`certify.classify_unique_cce` converts once for both sections), holds `type`
and `concept`, which is c, and then `a_star`, `gamma` and `slack` for a
certificate, which needs `concepts.<c>` to be the singleton delta(a*), or
`reason` for a refutation, which needs it to hold two witnesses or, for
cce, a mixed point.  `classification` holds its `variant`: `not_unique`
needs two CCE witnesses, `unique_pure` a point mass with a
`certificates.cce` certificate at its profile, and `unique_mixed_2x2` a
mixed point, from which `verify_report` recomputes the variant's
`mixers`, `subgame` and `ne`.  A key that `verify_report` does not read
is a problem at the top level (`run` aside), in `game`, `ne`,
`ne.mixed_2x2` and `classification`, in each mixed action of
`ne.mixed_2x2.equilibria` and `classification.ne`, and in each entry of
`maximin_certificates`, `concepts`, `certificates` and `gue`; so is a
singleton claim that the recomputed pure NE or another concept rules out
(`_agreement_problems`).  Each distribution is read and membership-checked
once.
"""

from __future__ import annotations

import contextlib
import json
import time
from fractions import Fraction

from . import certify, games, polytopes, zerosum
from .games import Game, GameFormatError, JointDistribution, MixedAction, Profile
from .lp import PivotLimitExceeded, SolverInvariantError
from .polytopes import Degenerate2x2Error
from .rational import format_rational

REPORT_VERSION = 3
ALL_CONCEPTS = ("ne", "ce", "cce", "ircp")
# The keys `verify_report` reads at the top level and in an entry, by its
# kind; any other key is a claim it would not check, and so a problem.
_CONCEPT_KEYS = {True: {"singleton", "point"}, False: {"singleton", "witnesses"}}
_CERTIFICATE_KEYS = {"certificate": {"type", "concept", "a_star", "gamma", "slack"},
                     "refutation": {"type", "concept", "reason"}}
_CLASSIFICATION_KEYS = {certify.NOT_UNIQUE: {"variant"}, certify.UNIQUE_PURE: {"variant"},
                        certify.UNIQUE_MIXED_2X2: {"variant", "mixers", "subgame", "ne"}}
_TOP_KEYS = {"report_version", "game", "maximin", "maximin_certificates", "ne", "concepts",
             "certificates", "classification", "gue", "run"}
# What `games.game_from_dict` and `games.mixed_from_dict` read.
_GAME_KEYS = {"players", "actions", "payoffs", "name"}
_MIXED_KEYS = {"player", "weights"}


class ReportError(ValueError):
    """Malformed report input."""


def _maximin_to_dict(result: zerosum.MaximinResult) -> dict:
    return {"strategy": games.weights_to_dict(result.strategy.weights),
            "punishment": games.weights_to_dict(result.punishment)}


def _maximin_from_dict(game: Game, player: int, level: Fraction,
                       data) -> zerosum.MaximinResult:
    """Read as written; `zerosum.check_maximin` checks the punishment's sign and sum."""
    if not isinstance(data, dict):
        raise ReportError(f"expected an object, got {type(data).__name__}")
    size = game.shape[player]
    strategy = games.weights_from_dict(data.get("strategy"), size, "strategy")
    punishment = games.weights_from_dict(data.get("punishment"), game.num_profiles // size,
                                         "punishment")
    return zerosum.MaximinResult(level, MixedAction(player, strategy), punishment)


def _certification_to_dict(result: certify.UniquenessCertificate | certify.Refutation) -> dict:
    """A certificate, or a refutation's reason: `concepts` holds the refuting members."""
    if isinstance(result, certify.UniquenessCertificate):
        return {"type": "certificate", **certify.certificate_to_dict(result)}
    return {"type": "refutation", "concept": result.concept, "reason": result.reason}


def _classification_to_dict(cls: certify.CceClassification) -> dict:
    out: dict = {"variant": cls.variant}
    if cls.variant == certify.UNIQUE_MIXED_2X2:
        out["mixers"] = list(cls.mixers)
        out["subgame"] = games.game_to_dict(cls.subgame)
        out["ne"] = [games.mixed_to_dict(m) for m in cls.ne]
    return out


def _mixed_2x2(game: Game) -> list | str | None:
    """The NE of a 2x2 game (`polytopes.mixed_ne_2x2`) or "degenerate"; None if not 2x2."""
    if game.shape != (2, 2):
        return None
    try:
        return polytopes.mixed_ne_2x2(game)
    except Degenerate2x2Error:
        return "degenerate"


def build_report(game: Game, concepts=ALL_CONCEPTS, check_unique: bool = False) -> dict:
    """Analyze the game and assemble the full machine-readable report."""
    unknown = [c for c in concepts if c not in ALL_CONCEPTS]
    if unknown:
        raise ReportError(f"unknown concepts: {', '.join(unknown)}")
    report: dict = {"report_version": REPORT_VERSION, "game": games.game_to_dict(game)}
    timing: dict = {}
    started = time.perf_counter()
    analysis = polytopes.GameAnalysis(game)

    levels = [analysis.maximin(i) for i in range(game.num_players)]
    report["maximin"] = [format_rational(result.value) for result in levels]
    report["maximin_certificates"] = [_maximin_to_dict(result) for result in levels]

    if "ne" in concepts:
        t0 = time.perf_counter()
        pure = [{"profile": list(p), "strict": strict}
                for p, strict in analysis.pure_ne()]
        section: dict = {"pure": pure}
        pairs = _mixed_2x2(game)
        if pairs == "degenerate":
            section["mixed_2x2"] = {"status": "degenerate"}
        elif pairs is not None:
            section["mixed_2x2"] = {
                "status": "ok",
                "equilibria": [[games.mixed_to_dict(a), games.mixed_to_dict(b)]
                               for a, b in pairs],
            }
        report["ne"] = section
        timing["ne"] = time.perf_counter() - t0

    # Decided from the largest polytope down, so that a singleton settles
    # every smaller concept with no LP (`GameAnalysis.singleton`).
    polytope_results: dict = {}
    for concept in ("ircp", "cce", "ce"):
        if concept not in concepts:
            continue
        t0 = time.perf_counter()
        singleton = analysis.singleton(concept)
        entry: dict = {"singleton": singleton.is_singleton}
        if singleton.is_singleton:
            entry["point"] = games.distribution_to_dict(game, singleton.point)
        else:
            entry["witnesses"] = [games.distribution_to_dict(game, w)
                                  for w in singleton.witnesses]
        polytope_results[concept] = entry
        timing[concept] = time.perf_counter() - t0
    if polytope_results:
        report["concepts"] = {c: polytope_results[c] for c in ("ce", "cce", "ircp")
                              if c in polytope_results}

    if check_unique:
        t0 = time.perf_counter()
        certificates: dict = {}
        if "ircp" in concepts:
            certificates["ircp"] = _certification_to_dict(certify.certify_unique_ircp(analysis))
        if "cce" in concepts:
            classification = certify.classify_unique_cce(analysis)
            certificates["cce"] = _certification_to_dict(classification.decision)
            report["classification"] = _classification_to_dict(classification)
        report["certificates"] = certificates

        candidates = [p for p, strict in analysis.pure_ne() if strict]
        candidates += [tuple(entry["a_star"]) for entry in certificates.values()
                       if entry["type"] == "certificate"]
        report["gue"] = [{
            "profile": list(profile),
            "gue": certify.is_gue(game, profile),
            "strict_fractional_gue": certify.is_strict_fractional_gue(analysis, profile),
        } for profile in dict.fromkeys(candidates)]
        timing["certification"] = time.perf_counter() - t0

    timing["total"] = time.perf_counter() - started
    report["run"] = {"timing_ms": {k: round(v * 1000.0, 3) for k, v in timing.items()}}
    return report


def save_report(report: dict) -> bytes:
    return json.dumps(report, indent=2).encode("utf-8")


def load_report(data: bytes | str) -> dict:
    raw = games.read_json(data, ReportError, "invalid report JSON")
    if not isinstance(raw, dict) or "game" not in raw:
        raise ReportError("report must be an object embedding its game")
    return raw


@contextlib.contextmanager
def _section(key: str, problems: list):
    """Report a section that cannot be read (wrong JSON type, missing field) as a problem."""
    try:
        yield
    except (PivotLimitExceeded, SolverInvariantError):
        raise  # the solver gave up: no verdict on this section
    except Exception as exc:
        problems.append(f"{key} unreadable: {type(exc).__name__}: {exc}")


def _verified_levels(game: Game, report: dict,
                     problems: list) -> list[zerosum.MaximinResult] | None:
    """The claimed maximin levels with their certificates, if every one checks."""
    claimed = games.rationals_from_json(report["maximin"], "maximin")
    if len(claimed) != game.num_players:
        problems.append(f"maximin lists {len(claimed)} levels for "
                        f"{game.num_players} players")
        return None
    certificates = report.get("maximin_certificates")
    if not isinstance(certificates, list) or len(certificates) != game.num_players:
        problems.append("maximin levels need one certificate per player "
                        "in maximin_certificates")
        return None
    results = []
    for i, (level, data) in enumerate(zip(claimed, certificates)):
        where = f"maximin_certificates[{i}]"
        try:
            result = _maximin_from_dict(game, i, level, data)
        except ValueError as exc:
            problems.append(f"{where} unreadable: {exc}")
            continue
        found = zerosum.check_maximin(game, i, result)
        problems.extend(f"{where}: {problem}"
                        for problem in found + _unread_keys(data, {"strategy", "punishment"}))
        if not found:
            results.append(result)
    return results if len(results) == game.num_players else None


def _pure_ne_from_json(data) -> list[tuple[Profile, bool]] | None:
    """`ne.pure` read by JSON type, as 1 == True == 1.0 in Python; None unless well-formed."""
    if type(data) is not list or any(type(e) is not dict or set(e) != {"profile", "strict"}
                                     or type(e["strict"]) is not bool for e in data):
        return None
    return [(games.profile_from_json(e["profile"], f"ne.pure[{k}].profile"), e["strict"])
            for k, e in enumerate(data)]


def _unread_keys(entry: dict, read: set) -> list[str]:
    """A problem line naming the keys of `entry` outside `read`: claims nothing checks."""
    extra = sorted(set(entry) - read)
    return [f"unread keys {', '.join(map(repr, extra))}"] if extra else []


def _agreement_problems(pure_ne: list, decided: dict) -> list[str]:
    """Singleton claims that the pure NE or the other concepts rule out, with no LP.

    Each pure NE's point mass lies in CE <= CCE <= IRCP.  So with two pure
    NE no concept is one point, and with one, a, every singleton is delta(a),
    which leaves no mixed CCE point for a `unique_mixed_2x2` classification.
    Two members of a smaller polytope lie in every larger one, so a refuted
    concept refutes every larger one, and every singleton claim names one
    point.  `decided` is `verify_report`'s: each concept's point, or None.
    """
    points = [(c, mu) for c, mu in decided.items() if mu is not None]
    if len(pure_ne) >= 2:
        return [f"concepts.{c} claims a singleton, but the game has {len(pure_ne)} pure NE"
                for c, _ in points]
    if pure_ne:
        named = "the one pure NE's point mass"
        target = JointDistribution.point_mass(pure_ne[0][0])
    elif points:
        named, target = f"concepts.{points[0][0]}.point", points[0][1]
    problems = []
    for concept, mu in points:
        if mu != target:
            problems.append(f"concepts.{concept}.point is not {named}")
        refuted = [c for c in polytopes.CONCEPTS[:polytopes.CONCEPTS.index(concept)]
                   if c in decided and decided[c] is None]
        if refuted:
            problems.append(f"concepts.{concept} claims a singleton, but "
                            f"concepts.{refuted[0]} holds two members")
    return problems


def _classification_problems(game: Game, cls: dict, decided: dict,
                             certified: dict) -> list[str]:
    """What the classification claims that `concepts.cce` and `certificates.cce` do not back.

    `decided` and `certified` are `verify_report`'s: each concept's point (None
    for a witness pair) and each certificate's profile, once checked.  The
    mixers, subgame and NE of a `unique_mixed_2x2` variant are recomputed from
    the point.
    """
    variant = cls.get("variant")
    if variant not in _CLASSIFICATION_KEYS:
        return [f"unknown variant {variant!r}"]
    problems = _unread_keys(cls, _CLASSIFICATION_KEYS[variant])
    if "cce" not in decided:
        return problems + ["concepts.cce is missing or unreadable"]
    mu = decided["cce"]
    if variant == certify.NOT_UNIQUE:
        return problems + ([] if mu is None else
                           ["not_unique, but concepts.cce claims a singleton"])
    if mu is None:
        return problems + [f"{variant}, but concepts.cce holds two witnesses"]
    if variant == certify.UNIQUE_PURE:
        support = mu.support()
        if len(support) != 1 or certified.get("cce") != support[0]:
            problems.append("unique_pure needs concepts.cce at a point mass and a checked "
                            "certificates.cce certificate at its profile")
        return problems
    induced = certify._induced_2x2(game, mu) if mu.is_product(game) else None
    if induced is None:
        return problems + ["concepts.cce.point is not a product in which two players "
                           "mix over two actions each"]
    mixers, subgame = induced
    if (games.profile_from_json(cls["mixers"], "mixers") != mixers
            or cls["subgame"] != games.game_to_dict(subgame)):
        problems.append("mixers or subgame disagree with concepts.cce.point")
    if not certify.is_matching_pennies_type(subgame):
        problems.append("subgame lacks the strict cyclic pattern")
    marginals = [mu.marginal(game, i) for i in mixers]
    claimed = [games.mixed_from_dict(game, m, f"ne[{k}]") for k, m in enumerate(cls["ne"])]
    problems.extend(f"ne[{k}]: {problem}" for k, m in enumerate(cls["ne"])
                    for problem in _unread_keys(m, _MIXED_KEYS))
    if marginals != claimed:
        problems.append("stated NE disagrees with the marginals of concepts.cce.point")
    return problems


def verify_report(report: dict) -> list[str]:
    """Re-check everything checkable in a report; empty list means clean.

    No maximin LP runs: the IRCP checks use the levels of the report's
    maximin certificates once both bounds of every one hold, and an IRCP
    claim without such levels is a problem.
    """
    problems: list[str] = []
    try:
        game = games.game_from_dict(report["game"])
    except (KeyError, GameFormatError) as exc:
        return [f"embedded game unreadable: {exc}"]
    version = report.get("report_version")
    if type(version) is not int or version != REPORT_VERSION:
        return [f"report_version {json.dumps(version)} is not {REPORT_VERSION}; "
                "run analyze again"]

    problems.extend(_unread_keys(report, _TOP_KEYS))
    problems.extend(f"game: {problem}" for problem in _unread_keys(report["game"], _GAME_KEYS))
    levels = None
    if "maximin" in report:
        with _section("maximin", problems):
            levels = _verified_levels(game, report, problems)
    analysis = polytopes.GameAnalysis(game, levels or ())
    pure_ne = analysis.pure_ne()

    def uncertified(what: str, concept) -> bool:
        """An IRCP claim with no certified levels to check it against."""
        if concept != "ircp" or levels is not None:
            return False
        problems.append(f"{what}: no certified maximin levels to check an IRCP claim")
        return True

    if "ne" in report:
        with _section("ne", problems):
            if _pure_ne_from_json(report["ne"].get("pure")) != pure_ne:
                problems.append("pure NE list does not match a recomputation")
            # Read back into `_mixed_2x2`'s form; anything else is no match.
            claimed = report["ne"].get("mixed_2x2")
            if isinstance(claimed, dict):
                problems.extend(f"ne.mixed_2x2: {problem}"
                                for problem in _unread_keys(claimed, {"status", "equilibria"}))
            if claimed == {"status": "degenerate"}:
                claimed = "degenerate"
            elif isinstance(claimed, dict) and claimed.get("status") == "ok":
                equilibria = claimed["equilibria"]
                claimed = [tuple(games.mixed_from_dict(game, m, f"mixed_2x2.equilibria[{k}]")
                                 for m in pair) for k, pair in enumerate(equilibria)]
                problems.extend(f"ne.mixed_2x2.equilibria[{k}][{j}]: {problem}"
                                for k, pair in enumerate(equilibria) for j, m in enumerate(pair)
                                for problem in _unread_keys(m, _MIXED_KEYS))
            if claimed != _mixed_2x2(game):
                problems.append("ne.mixed_2x2 does not match a recomputation")
            problems.extend(f"ne: {problem}"
                            for problem in _unread_keys(report["ne"], {"pure", "mixed_2x2"}))

    # Each entry of `concepts`, `certificates` and `gue` has its own section,
    # so one that cannot be read hides no problem in the entries after it.
    # Every distribution is written once, under `concepts`, and read and
    # membership-checked once here: `decided` keeps each concept's point, or
    # None for a witness pair, and the certificates and the classification
    # are checked against it.
    decided: dict[str, JointDistribution | None] = {}
    with _section("concepts", problems):
        for concept, entry in report.get("concepts", {}).items():
            where = f"concepts.{concept}"
            with _section(where, problems):
                if uncertified(where, concept):
                    continue
                spec = analysis.polytope(concept)
                singleton = entry.get("singleton")
                if type(singleton) is not bool:
                    problems.append(f"{where}: singleton must be a boolean, "
                                    f"got {json.dumps(singleton)}")
                    continue
                problems.extend(f"{where}: {problem}"
                                for problem in _unread_keys(entry, _CONCEPT_KEYS[singleton]))
                if singleton:
                    if "point" not in entry:
                        problems.append(f"{where} claims a singleton but has no point")
                        continue
                    dists = [entry["point"]]
                    where += ".point"
                else:
                    dists = entry.get("witnesses", [])
                    if len(dists) != 2:
                        problems.append(f"{where} needs two distinct witnesses")
                    where += ".witnesses"
                parsed = [games.distribution_from_dict(game, data, f"{where}[{idx}]")
                          for idx, data in enumerate(dists)]
                problems.extend(polytopes.membership_problems(spec, parsed, where))
                decided[concept] = parsed[0] if singleton else None
    problems.extend(_agreement_problems(pure_ne, decided))

    certified: dict[str, Profile] = {}
    with _section("certificates", problems):
        for key, entry in report.get("certificates", {}).items():
            where = f"certificates.{key}"
            with _section(where, problems):
                kind, concept = entry.get("type"), entry.get("concept")
                if kind not in _CERTIFICATE_KEYS:
                    problems.append(f"{where}: unknown type {json.dumps(kind)}")
                    continue
                problems.extend(f"{where}: {problem}"
                                for problem in _unread_keys(entry, _CERTIFICATE_KEYS[kind]))
                if key not in ("ircp", "cce"):
                    problems.append(f"{where}: only ircp and cce uniqueness is certified")
                    continue
                if concept != key:
                    problems.append(f"{where}: concept {json.dumps(concept)} is not its key")
                    continue
                if uncertified(where, key):
                    continue
                if key not in decided:
                    problems.append(f"{where}: concepts.{key} is missing or unreadable")
                    continue
                if kind == "certificate":
                    found = certify.verify_certificate(game, entry)
                    problems.extend(f"{where}: {problem}" for problem in found)
                    if found:
                        continue
                    a_star = games.profile_from_json(entry["a_star"])
                    if decided[key] != JointDistribution.point_mass(a_star):
                        problems.append(f"{where}: concepts.{key} is not the singleton "
                                        f"at the certified profile {a_star}")
                    else:
                        certified[key] = a_star
                else:
                    if type(entry.get("reason")) is not str:
                        problems.append(f"{where}: reason must be a string")
                    point = decided[key]
                    if point is not None and (key != "cce" or len(point.support()) == 1):
                        problems.append(f"{where}: concepts.{key} claims a singleton the "
                                        "refutation denies")

    if "classification" in report:
        with _section("classification", problems):
            problems.extend(f"classification: {problem}" for problem in _classification_problems(
                game, report["classification"], decided, certified))

    with _section("gue", problems):
        for idx, entry in enumerate(report.get("gue", [])):
            with _section(f"gue[{idx}]", problems):
                # JSON null, 0 or "1" must not stand in for a flag.
                flags = (entry["gue"], entry["strict_fractional_gue"])
                problems.extend(f"gue[{idx}]: {problem}" for problem in _unread_keys(
                    entry, {"profile", "gue", "strict_fractional_gue"}))
                try:
                    profile = games.profile_from_json(entry["profile"])
                except ValueError as exc:
                    problems.append(f"gue[{idx}]: {exc}")
                    continue
                if any(type(flag) is not bool for flag in flags):
                    problems.append(
                        f"gue[{idx}]: flags must be booleans, got {json.dumps(flags)}")
                else:
                    if certify.is_gue(game, profile) != flags[0]:
                        problems.append(f"gue[{idx}]: pure-Pareto flag does not re-verify")
                    if certify.is_strict_fractional_gue(analysis, profile) != flags[1]:
                        problems.append(
                            f"gue[{idx}]: lottery-Pareto flag does not re-verify")

    return problems
