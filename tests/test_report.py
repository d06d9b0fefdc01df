"""Report assembly and the re-verification of everything it embeds."""

import copy
from collections import Counter
from fractions import Fraction

import pytest

from eqcert import certify, games, polytopes, zerosum
from eqcert.contests import ContestSpec, LinearCost, TullockRatio, discretize
from eqcert.games import Game, MixedAction, game_to_dict
from eqcert.generators import (
    matching_pennies,
    parking,
    prisoners_dilemma,
    random_game,
    random_mp_type,
    rock_paper_scissors,
)
from eqcert.lp import PolytopeSolver
from eqcert.report import (
    ReportError,
    build_report,
    load_report,
    save_report,
    verify_report,
)


def full_pd_report():
    return build_report(prisoners_dilemma(), ("ne", "ce", "cce", "ircp"),
                        check_unique=True)


def test_report_sections_for_prisoners_dilemma():
    data = full_pd_report()
    assert data["report_version"] == 3
    assert data["maximin"] == ["1", "1"]
    # Defect guarantees 1, and the opponent's defection holds both actions to 1.
    assert data["maximin_certificates"] == [
        {"strategy": {"1": "1"}, "punishment": {"1": "1"}}] * 2
    assert data["ne"]["pure"] == [{"profile": [1, 1], "strict": True}]
    assert data["ne"]["mixed_2x2"]["status"] == "ok"
    assert data["concepts"]["cce"]["singleton"] is True
    assert data["concepts"]["ircp"]["singleton"] is False
    assert len(data["concepts"]["ircp"]["witnesses"]) == 2
    # Each distribution is written once, under `concepts`: the certificate
    # section holds weights or a reason, and the classification its variant.
    assert data["certificates"] == {
        "ircp": {"type": "refutation", "concept": "ircp",
                 "reason": "a second distribution pays every player at least the "
                 "candidate profile's payoffs"},
        "cce": {"type": "certificate", "concept": "cce", "a_star": [1, 1],
                "gamma": ["1/2", "1/2"], "slack": "1/2"}}
    assert data["classification"] == {"variant": "unique_pure"}
    assert data["gue"] == [
        {"profile": [1, 1], "gue": False, "strict_fractional_gue": False}]
    assert list(data["run"]) == ["timing_ms"]
    assert "total" in data["run"]["timing_ms"]
    assert "timing_ms" not in data


def test_two_runs_differ_only_in_the_run_block():
    first, second = full_pd_report(), full_pd_report()
    assert first.pop("run") != {} and second.pop("run") != {}
    assert save_report(first) == save_report(second)


def test_clean_reports_verify():
    assert verify_report(full_pd_report()) == []
    rps = build_report(rock_paper_scissors(), ("ne", "cce"))
    assert len(rps["concepts"]["cce"]["witnesses"]) == 2
    assert verify_report(rps) == []
    mixed = build_report(random_mp_type(seed=2), ("ne", "cce"), check_unique=True)
    assert mixed["classification"]["variant"] == "unique_mixed_2x2"
    assert verify_report(mixed) == []


def test_verify_builds_the_cce_polytope_once(monkeypatch):
    # PD is unique_pure: the CCE polytope is named by concepts.cce and by the
    # classification, and is built once for both.
    from eqcert import polytopes

    data = full_pd_report()
    assert data["classification"]["variant"] == "unique_pure"
    built = []
    real = polytopes.build_polytope

    def counting(game, concept):
        built.append(concept)
        return real(game, concept)

    monkeypatch.setattr(polytopes, "build_polytope", counting)
    assert verify_report(data) == []
    assert built.count("cce") == 1 and built.count("ce") == 1


def _tullock8():
    spec = ContestSpec(TullockRatio(1), (1, 1), (LinearCost(1), LinearCost(1)))
    return discretize(spec, [Fraction(k, 8) for k in range(1, 9)])


def _count_work(monkeypatch) -> dict:
    """Count polytope builds and singleton tests per concept, maximin per (game, player)."""
    calls = {"build": Counter(), "singleton": Counter(), "maximin": Counter()}
    build = polytopes.build_polytope
    singleton = polytopes.singleton_over_system
    maximin = zerosum.maximin

    def counting_build(game, concept):
        calls["build"][concept] += 1
        return build(game, concept)

    def counting_singleton(game, system, what="polytope"):
        calls["singleton"][what] += 1
        return singleton(game, system, what)

    def counting_maximin(game, player):
        calls["maximin"][(game, player)] += 1
        return maximin(game, player)

    monkeypatch.setattr(polytopes, "build_polytope", counting_build)
    monkeypatch.setattr(polytopes, "singleton_over_system", counting_singleton)
    monkeypatch.setattr(zerosum, "maximin", counting_maximin)
    return calls


# Parking m = 3 at fee 3/5 takes the IRCP certificate path; RPS has no strict
# NE, so its CCE refutation is decided by the singleton test; the Tullock 8x8
# grid has a unique pure CCE and a refuted IRCP.
WORK_GAMES = {
    "parking": (lambda: parking(3, 1, Fraction(1, 4), Fraction(3, 5)),
                ("ne", "ce", "cce", "ircp")),
    "rps": (rock_paper_scissors, ("ne", "ce", "cce", "ircp")),
    "tullock8": (_tullock8, ("ne", "cce", "ircp")),
}


@pytest.fixture(scope="module", params=sorted(WORK_GAMES))
def work_counts(request):
    """Calls made by analyze --check-unique and by verifying its report."""
    make_game, concepts = WORK_GAMES[request.param]
    game = make_game()
    with pytest.MonkeyPatch.context() as mp:
        calls = _count_work(mp)
        data = build_report(game, concepts, check_unique=True)
        analyze = copy.deepcopy(calls)
        for counter in calls.values():
            counter.clear()
        assert verify_report(data) == []
    polytope_concepts = [c for c in concepts if c != "ne"]
    return game, polytope_concepts, analyze, calls


def test_analyze_and_verify_build_each_polytope_once(work_counts):
    _, concepts, analyze, verify = work_counts
    assert analyze["build"] == Counter({c: 1 for c in concepts})
    assert verify["build"] == Counter({c: 1 for c in concepts})


# The singleton tests analyze runs.  Parking's IRCP is one point, decided at
# (pay, pay) by uniform weights, which its GUE flag reads too, and it settles
# CCE and CE down the inclusion chain.  The IRCP decisions of RPS (no pure
# maximin action) and of the Tullock 8x8 grid (a* pays above the level) run
# no LP; RPS has no singleton above CE.  The grid's CCE is one point, decided
# at its strict pure NE by uniform weights on its symmetric CCE gains,
# which are the CCE certificate too, and it asks for no CE.
SINGLETON_TESTS = {
    "parking": {},
    "rps": {"cce polytope": 1, "ce polytope": 1},
    "tullock8": {},
}


def test_analyze_runs_each_singleton_test_once(request, work_counts):
    # verify runs no polytope's test, only the P(a*) test of a GUE flag.
    _, _, analyze, verify = work_counts
    assert analyze["singleton"] == SINGLETON_TESTS[request.node.callspec.params["work_counts"]]
    assert set(verify["singleton"]) <= {"P(a*)"}


def _record_solvers(monkeypatch) -> list:
    """The system of every `PolytopeSolver` built from now on."""
    solved = []
    init = PolytopeSolver.__init__

    def recording(self, system, *args, **kwargs):
        solved.append(system)
        return init(self, system, *args, **kwargs)

    monkeypatch.setattr(PolytopeSolver, "__init__", recording)
    return solved


def test_singleton_ircp_builds_no_ce_or_cce_solver(monkeypatch):
    # Parking's IRCP is one point, decided at (pay, pay) by uniform weights,
    # or with one player's payoffs doubled by the P(a*) test there: no
    # solver beside the maximin LPs, or one, and none for a polytope's system.
    solved = _record_solvers(monkeypatch)
    for game, tests in ((parking(3, 1, Fraction(1, 4), Fraction(3, 5)), 0),
                        (_doubled_parking(), 1)):
        solved.clear()
        data = build_report(game, ("ne", "ce", "cce", "ircp"), check_unique=True)
        assert all(data["concepts"][c]["singleton"] for c in ("ce", "cce", "ircp"))
        for concept in ("ce", "cce", "ircp"):
            assert polytopes.build_polytope(game, concept).system not in solved
        assert solved.count(polytopes.improvement_system(game, (0, 0), "ircp")) == tests


# Games whose IRCP decision takes each path: a certificate from uniform
# weights (parking) or from the P(a*) dual (doubled parking, whose CCE
# gains at (pay, pay) give the same P(a*) system), no pure maximin action
# (RPS, a random 3x3 game, an mp_type game), several (the zero game), a*
# above the level (Tullock 8x8), and a second member of P(a*) (PD).
def _doubled_parking():
    base = parking(3, 1, Fraction(1, 4), Fraction(3, 5))
    return Game(base.actions, (base.payoffs[0], tuple(2 * x for x in base.payoffs[1])))


IRCP_PATH_GAMES = {
    "parking": lambda: parking(3, 1, Fraction(1, 4), Fraction(3, 5)),
    "doubled-parking": _doubled_parking,
    "rps": rock_paper_scissors,
    "zero": lambda: Game((("a", "b"), ("a", "b")), ((Fraction(0),) * 4,) * 2),
    "tullock8": _tullock8,
    "pd": prisoners_dilemma,
    "random-3x3": lambda: random_game((3, 3), 7),
    "mp_type": lambda: random_mp_type(3),
}


@pytest.mark.parametrize("name", sorted(IRCP_PATH_GAMES))
def test_ircp_polytope_reaches_no_solver_and_no_system_is_solved_twice(name, monkeypatch):
    game = IRCP_PATH_GAMES[name]()
    ircp = polytopes.build_polytope(game, "ircp").system
    solved = _record_solvers(monkeypatch)
    tested = []
    singleton = polytopes.singleton_over_system

    def recording(game, system, what="polytope"):
        tested.append(system)
        return singleton(game, system, what)

    monkeypatch.setattr(polytopes, "singleton_over_system", recording)
    for run in (lambda: build_report(game, ("ne", "ce", "cce", "ircp"), check_unique=True),
                lambda: certify.certify_unique_ircp(game)):
        solved.clear()
        tested.clear()
        run()
        assert ircp not in solved
        assert len(set(tested)) == len(tested)


@pytest.mark.parametrize("m", (3, 4, 5))
def test_symmetric_parking_certifies_and_verifies_with_no_solver(monkeypatch, m):
    # Parking's levels sit at pure saddle points, and uniform weights pin
    # P(a*) at (pay, pay) over the IRCP gains and over the CCE gains.
    game = parking(m, 1, Fraction(1, 4), Fraction(3, 5))
    data = build_report(game, check_unique=True)
    solved = _record_solvers(monkeypatch)
    assert isinstance(certify.certify_unique_ircp(game), certify.UniquenessCertificate)
    assert isinstance(certify.certify_unique_pure_cce(game), certify.UniquenessCertificate)
    assert certify.is_strict_fractional_gue(game, (0, 0))
    assert verify_report(data) == []
    assert solved == []


def test_doubled_parking_certifies_its_ircp_with_one_p_a_star_solver(monkeypatch):
    # Doubling one player's payoffs breaks the symmetry: the weights come
    # from the dual of the P(a*) test, and its levels from pure saddle points.
    game = _doubled_parking()
    solved = _record_solvers(monkeypatch)
    assert isinstance(certify.certify_unique_ircp(game), certify.UniquenessCertificate)
    assert solved == [polytopes.improvement_system(game, (0, 0), "ircp")]


def test_ce_alone_runs_the_cce_test_unreported(monkeypatch):
    calls = _count_work(monkeypatch)
    data = build_report(_tullock8(), ("ce",))
    # Uniform weights pin the reduced P(a*) at the NE of the symmetric grid.
    assert calls["singleton"] == Counter()
    assert list(data["concepts"]) == ["ce"]
    assert data["concepts"]["ce"]["point"] == {"9": "1"}  # both players bid 1/4
    assert verify_report(data) == []


def test_analyze_and_verify_solve_each_maximin_once(work_counts):
    # analyze solves each player's maximin LP once; verify solves none and
    # reads the levels from the report's maximin certificates.
    game, _, analyze, verify = work_counts
    assert all(n == 1 for n in analyze["maximin"].values()), analyze["maximin"]
    assert {(game, i) for i in range(game.num_players)} <= set(analyze["maximin"])
    assert not verify["maximin"]


@pytest.mark.parametrize("seed", (1, 3))
def test_cce_certification_reuses_the_cce_decision(monkeypatch, seed):
    # One strict NE and a CCE polytope that is not one point: the report has
    # decided CCE before it certifies, so no P(a*) test of the reduced game
    # can help, and no singleton test runs inside the certification.
    game = random_game((4, 5), seed)
    inside, solved = [], []
    classify, singleton = certify.classify_unique_cce, polytopes.singleton_over_system

    def tracking(*args, **kwargs):
        inside.append(True)
        try:
            return classify(*args, **kwargs)
        finally:
            inside.pop()

    def counting(*args, **kwargs):
        solved.append(bool(inside))
        return singleton(*args, **kwargs)

    monkeypatch.setattr(certify, "classify_unique_cce", tracking)
    monkeypatch.setattr(polytopes, "singleton_over_system", counting)
    data = build_report(game, ("ne", "ce", "cce", "ircp"), check_unique=True)
    assert [p["strict"] for p in data["ne"]["pure"]].count(True) == 1
    assert data["concepts"]["cce"]["singleton"] is False
    assert data["certificates"]["cce"]["type"] == "refutation"
    assert True not in solved
    assert verify_report(data) == []


def test_save_load_round_trip():
    data = full_pd_report()
    assert verify_report(load_report(save_report(data))) == []
    with pytest.raises(ReportError):
        load_report(b"{broken")
    with pytest.raises(ReportError):
        load_report(b'{"no_game": true}')
    with pytest.raises(ReportError):
        build_report(prisoners_dilemma(), ("cce", "nash_bargaining"))


def test_verify_flags_tampered_maximin():
    data = full_pd_report()
    data["maximin"] = ["0", "1"]
    assert any("maximin" in p for p in verify_report(data))


def test_verify_flags_tampered_pure_ne():
    data = full_pd_report()
    data["ne"]["pure"][0]["strict"] = False
    assert any("pure NE" in p for p in verify_report(data))


@pytest.mark.parametrize("field, value, expected", [
    ("strict", 1, "pure NE list does not match a recomputation"),
    ("profile", [1.0, 1], "ne unreadable: GameFormatError: ne.pure[0].profile must be a "
                          "list of ints, got [1.0, 1]"),
], ids=["strict-int", "profile-float"])
def test_verify_reads_pure_ne_by_json_type(field, value, expected):
    # Python's 1 == True == 1.0 made each edit match the recomputed list.
    data = full_pd_report()
    data["ne"]["pure"][0][field] = value
    assert verify_report(data) == [expected]


def test_verify_flags_singleton_point_off_polytope():
    data = full_pd_report()
    point = data["concepts"]["cce"]["point"]
    point.clear()
    point["0"] = "1"
    assert any("concepts.cce.point" in p for p in verify_report(data))


def test_verify_flags_singleton_without_point():
    data = full_pd_report()
    del data["concepts"]["cce"]["point"]
    problems = verify_report(data)
    assert "concepts.cce claims a singleton but has no point" in problems


def test_verify_flags_unreadable_maximin():
    data = full_pd_report()
    data["maximin"] = ["x", "1"]
    problems = verify_report(data)
    assert any(p.startswith("maximin unreadable") for p in problems)


# The certificates and the classification refer to `concepts`, and the
# classification's unique_pure variant to the CCE certificate, so a section
# that cannot be read leaves each claim that rests on it unbacked too.
UNBACKED = {
    "ircp": "certificates.ircp: concepts.ircp is missing or unreadable",
    "cce": "certificates.cce: concepts.cce is missing or unreadable",
    "classification": "classification: concepts.cce is missing or unreadable",
    "pure": "classification: unique_pure needs concepts.cce at a point mass and a checked "
            "certificates.cce certificate at its profile",
}
# With no certified maximin level, the IRCP claims cannot be checked.
UNCERTIFIED = [f"{section}.ircp: no certified maximin levels to check an IRCP claim"
               for section in ("concepts", "certificates")]


@pytest.mark.parametrize("section, value, expected", [
    ("concepts", [],
     ["concepts unreadable: AttributeError: 'list' object has no attribute 'items'",
      UNBACKED["ircp"], UNBACKED["cce"], UNBACKED["classification"]]),
    ("concepts", {"cce": "x"},
     ["concepts.cce unreadable: AttributeError: 'str' object has no attribute 'get'",
      UNBACKED["ircp"], UNBACKED["cce"], UNBACKED["classification"]]),
    ("concepts", {"xyz": {"singleton": True, "point": {"0": "1"}}},
     ["concepts.xyz unreadable: PolytopeError: unknown concept 'xyz'; "
      "pick one of ('ce', 'cce', 'ircp')",
      UNBACKED["ircp"], UNBACKED["cce"], UNBACKED["classification"]]),
    ("ne", [], ["ne unreadable: AttributeError: 'list' object has no attribute 'get'"]),
    ("report_version", 3.0, ["report_version 3.0 is not 3; run analyze again"]),
    ("maximin", "11",
     ['maximin unreadable: GameFormatError: maximin must be a list of rational strings, '
      'got "11"', *UNCERTIFIED]),
    ("maximin", [1, 1],
     ["maximin unreadable: GameFormatError: maximin must be a list of rational strings, "
      "got [1, 1]",
      *UNCERTIFIED]),
    ("certificates", {"cce": "x"},
     ["certificates.cce unreadable: AttributeError: 'str' object has no attribute 'get'",
      UNBACKED["pure"]]),
    # A v2 classification: its point is a copy that v3 no longer reads.
    ("classification", {"variant": "unique_pure", "point": {"3": "1"}},
     ["classification: unread keys 'point'"]),
], ids=["concepts-list", "concept-entry-str", "concept-unknown", "ne-list",
        "version-float", "maximin-string", "maximin-ints",
        "certificate-str", "classification-no-certificate"])
def test_verify_flags_malformed_section(section, value, expected):
    data = full_pd_report()
    data[section] = value
    assert verify_report(data) == expected


# Where an added key lands, by a path into PD's full report, and the problem
# it must raise: `verify_report` reads no such key, so it checks no such claim.
UNREAD_KEY_CASES = {
    "top-level": ((), "unread keys 'claims_unique_ce'"),
    "ne": (("ne",), "ne: unread keys 'claims_unique_ce'"),
    "ne-mixed-2x2": (("ne", "mixed_2x2"), "ne.mixed_2x2: unread keys 'claims_unique_ce'"),
    "maximin-certificate": (("maximin_certificates", 0),
                            "maximin_certificates[0]: unread keys 'claims_unique_ce'"),
    "gue-entry": (("gue", 0), "gue[0]: unread keys 'claims_unique_ce'"),
    "game": (("game",), "game: unread keys 'claims_unique_ce'"),
    "ne-mixed-action": (("ne", "mixed_2x2", "equilibria", 0, 0),
                        "ne.mixed_2x2.equilibria[0][0]: unread keys 'claims_unique_ce'"),
}


@pytest.mark.parametrize("case", sorted(UNREAD_KEY_CASES))
def test_verify_flags_an_unread_key_in_every_section(case):
    path, expected = UNREAD_KEY_CASES[case]
    data = full_pd_report()
    assert verify_report(data) == []
    entry = data
    for step in path:
        entry = entry[step]
    entry["claims_unique_ce"] = True
    assert verify_report(data) == [expected]


def test_verify_reads_past_an_unreadable_entry():
    # The first entry of `concepts` and of `certificates` cannot be read; the
    # forgeries in the entries after them are still named.
    data = full_pd_report()
    data["concepts"]["ce"] = "x"
    data["concepts"]["cce"]["point"] = {"0": "1"}
    data["certificates"] = {"ircp": "x", "cce": dict(data["certificates"]["cce"], slack="7")}
    problems = verify_report(data)
    assert problems[:4] == [
        "concepts.ce unreadable: AttributeError: 'str' object has no attribute 'get'",
        "concepts.cce.point[0] is not a CCE member",
        "concepts.cce.point is not the one pure NE's point mass",
        "certificates.ircp unreadable: AttributeError: 'str' object has no attribute 'get'"]
    assert problems[4].startswith("certificates.cce: slack mismatch")
    assert problems[5:] == [UNBACKED["pure"]]


def test_verify_flags_degenerate_witness_pair():
    data = build_report(rock_paper_scissors(), ("cce",))
    data["concepts"]["cce"]["witnesses"] = [data["concepts"]["cce"]["witnesses"][0]] * 2
    assert verify_report(data) == [
        "concepts.cce.witnesses[0] and concepts.cce.witnesses[1] are the same distribution"]


# One point written twice, in two spellings: a zero-padded key, and a weight
# not in lowest terms.  Witnesses are compared as parsed distributions.
RESPELLED_PAIRS = ([{"3": "1"}, {"03": "1"}], [{"3": "1"}, {"3": "2/2"}])


@pytest.mark.parametrize("pair", RESPELLED_PAIRS, ids=["zero-padded", "unreduced"])
def test_verify_flags_one_point_written_twice_as_witnesses(pair):
    # PD's CE and CCE are the one point delta(d, d), at profile index 3.  A
    # pair is written only under `concepts`; the classification refers to it.
    data = full_pd_report()
    data["concepts"]["cce"] = {"singleton": False, "witnesses": copy.deepcopy(pair)}
    data["concepts"]["ce"] = {"singleton": False, "witnesses": copy.deepcopy(pair)}
    data["classification"] = {"variant": "not_unique"}
    assert verify_report(data) == [
        f"{where}.witnesses[0] and {where}.witnesses[1] are the same distribution"
        for where in ("concepts.ce", "concepts.cce")] + [
        "certificates.cce: concepts.cce is not the singleton at the certified profile (1, 1)"]


def test_verify_exits_1_on_a_parking_report_whose_points_are_written_twice(
        tmp_path, capsys):
    # Parking m = 3 at fee 3/5: IRCP, CCE and CE are one certified point.
    from eqcert.cli import main

    data = build_report(parking(3, 1, Fraction(1, 4), Fraction(3, 5)),
                        ("ne", "ce", "cce", "ircp"), check_unique=True)
    assert data["certificates"]["ircp"]["type"] == "certificate"
    for concept, entry in data["concepts"].items():
        [(key, weight)] = entry.pop("point").items()
        entry.update(singleton=False, witnesses=[{key: weight}, {"0" + key: "2/2"}])
    path = tmp_path / "forged.json"
    path.write_bytes(save_report(data))
    assert main(["verify", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out.splitlines() == [
        f"concepts.{c}.witnesses[0] and concepts.{c}.witnesses[1] are the same distribution"
        for c in ("ce", "cce", "ircp")] + [
        f"certificates.{c}: concepts.{c} is not the singleton at the certified profile (0, 0)"
        for c in ("ircp", "cce")] + [
        "classification: unique_pure, but concepts.cce holds two witnesses"]
    assert err == ""


def test_verify_rejects_a_mixed_action_player_that_is_no_json_int():
    data = build_report(random_mp_type(8), ("ne", "cce"), check_unique=True)
    assert data["classification"]["variant"] == "unique_mixed_2x2"
    assert verify_report(data) == []
    for player, shown in ((0.5, "0.5"), (True, "true"), ("0", '"0"'), (7, "7")):
        forged = copy.deepcopy(data)
        forged["classification"]["ne"][0]["player"] = player
        assert verify_report(forged) == [
            f"classification unreadable: GameFormatError: ne[0] player {shown} is not "
            "a player of the game"]


def test_verify_rejects_a_json_number_weight_in_a_point():
    data = full_pd_report()
    data["concepts"]["cce"]["point"] = {"3": 1}
    assert verify_report(data) == [
        "concepts.cce unreadable: GameFormatError: concepts.cce.point[0] weight 1 "
        "is not a rational string", UNBACKED["cce"], UNBACKED["classification"]]


def test_verify_flags_tampered_certificate():
    data = full_pd_report()
    data["certificates"]["cce"]["slack"] = "7"
    assert any(p.startswith("certificates.cce") for p in verify_report(data))


def test_verify_flags_an_unread_key_in_a_classification_mixed_action():
    data = build_report(random_mp_type(8), ("ne", "cce"), check_unique=True)
    assert data["classification"]["variant"] == "unique_mixed_2x2"
    data["classification"]["ne"][1]["claims_unique_ce"] = True
    assert verify_report(data) == ["classification: ne[1]: unread keys 'claims_unique_ce'"]


def test_verify_flags_tampered_classification():
    mixed = build_report(random_mp_type(seed=2), ("ne", "cce"), check_unique=True)
    broken = copy.deepcopy(mixed)
    broken["classification"]["ne"][0]["weights"] = ["1", "0"]
    assert any("classification" in p for p in verify_report(broken))
    renamed = copy.deepcopy(mixed)
    renamed["classification"]["variant"] = "mystery"
    assert any("unknown variant" in p for p in verify_report(renamed))


def test_verify_recomputes_the_classification_subgame():
    data = build_report(matching_pennies(), ("ne", "cce"), check_unique=True)
    assert data["classification"]["mixers"] == [0, 1]
    data["classification"]["subgame"] = game_to_dict(random_mp_type(7))
    assert verify_report(data) == [
        "classification: mixers or subgame disagree with concepts.cce.point"]


@pytest.mark.parametrize("point", ({"0": "1"}, {"0": "1/2", "3": "1/2"}))
def test_verify_flags_a_classification_point_that_is_no_two_mixer_product(point):
    # A pure point, and one whose marginals both mix but which is no product;
    # the classification reads its point from concepts.cce.
    data = build_report(matching_pennies(), ("ne", "cce"), check_unique=True)
    data["concepts"]["cce"]["point"] = point
    assert ("classification: concepts.cce.point is not a product in which two players "
            "mix over two actions each") in verify_report(data)


def test_verify_flags_tampered_gue_flag():
    data = full_pd_report()
    data["gue"][0]["gue"] = True
    assert any(p.startswith("gue[0]") for p in verify_report(data))


def test_verify_names_a_gue_profile_outside_the_game():
    data = full_pd_report()
    data["gue"][0]["profile"] = [5, 5]
    assert any("(5, 5) out of range" in p for p in verify_report(data))


def test_degenerate_2x2_mixed_section():
    from eqcert.games import Game
    flat = Game((("a", "b"), ("a", "b")), ((0, 0, 0, 0), (0, 0, 0, 0)), "flat")
    data = build_report(flat, ("ne",))
    assert data["ne"]["mixed_2x2"]["status"] == "degenerate"
    assert verify_report(data) == []


def test_matching_pennies_report():
    data = build_report(matching_pennies(), ("ne", "ce", "cce", "ircp"),
                        check_unique=True)
    assert data["ne"]["pure"] == []
    assert data["concepts"]["cce"]["singleton"] is True
    assert data["classification"]["variant"] == "unique_mixed_2x2"
    assert verify_report(data) == []


MIXED_2X2_FORGERIES = {
    # (C, C) is no Nash equilibrium of PD.
    "not an equilibrium": (prisoners_dilemma, {"status": "ok", "equilibria": [
        [{"player": 0, "weights": {"0": "1"}}, {"player": 1, "weights": {"0": "1"}}]]}),
    "missing one": (matching_pennies, {"status": "ok", "equilibria": []}),
    "not degenerate": (prisoners_dilemma, {"status": "degenerate"}),
    "degenerate": (lambda: Game((("a", "b"), ("a", "b")), ((0,) * 4, (0,) * 4)),
                   {"status": "ok", "equilibria": []}),
    "not 2x2": (rock_paper_scissors, {"status": "degenerate"}),
}


@pytest.mark.parametrize("forgery", sorted(MIXED_2X2_FORGERIES))
def test_verify_recomputes_the_mixed_2x2_equilibria(forgery):
    make_game, section = MIXED_2X2_FORGERIES[forgery]
    data = build_report(make_game(), ("ne",))
    assert verify_report(data) == []
    data["ne"]["mixed_2x2"] = section
    assert verify_report(data) == ["ne.mixed_2x2 does not match a recomputation"]


def test_verify_reads_mixed_2x2_equilibria_in_any_spelling():
    data = build_report(prisoners_dilemma(), ("ne",))
    [[first, second]] = data["ne"]["mixed_2x2"]["equilibria"]
    first["weights"] = {"0": "0", "1": "2/2"}
    assert verify_report(data) == []
    first["player"] = True
    assert verify_report(data) == [
        "ne unreadable: GameFormatError: mixed_2x2.equilibria[0] player true is not "
        "a player of the game"]


def test_verify_reads_classification_mixers_as_json_ints():
    data = build_report(random_mp_type(8), ("ne", "cce"), check_unique=True)
    assert data["classification"]["mixers"] == [0, 1]
    data["classification"]["mixers"] = [False, True]
    assert verify_report(data) == [
        "classification unreadable: GameFormatError: mixers must be a list of ints, "
        "got [false, true]"]


# Forgeries that verified clean while sections were never compared.  Each
# edits a report in place; the games they need follow.
def coordination() -> Game:
    """Both players get 2 at (a, a), 1 at (b, b) and 0 elsewhere: two strict pure NE."""
    return Game((("a", "b"), ("a", "b")), ((Fraction(2), Fraction(0), Fraction(0),
                                            Fraction(1)),) * 2, "coordination")


def pennies_and_x() -> Game:
    """Matching pennies on H, T; -5 to both where exactly one plays x; (10, 10) at (x, x)."""
    u0 = (1, -1, -5, -1, 1, -5, -5, -5, 10)
    u1 = (-1, 1, -5, 1, -1, -5, -5, -5, 10)
    return Game((("H", "T", "x"),) * 2, (tuple(map(Fraction, u0)), tuple(map(Fraction, u1))),
                "pennies_and_x")


def every_concept_at(key: str):
    """Claim every concept a singleton at the point mass on profile index `key`."""
    def forge(report: dict) -> None:
        for concept in report["concepts"]:
            report["concepts"][concept] = {"singleton": True, "point": {key: "1"}}
    return forge


def forge_mixed_classification(report: dict) -> None:
    """Claim the matching-pennies product as the unique CE and CCE, classified with the
    subgame, mixers and NE recomputed from it, and refute a unique pure CCE."""
    game = games.game_from_dict(report["game"])
    half = {0: Fraction(1, 2), 1: Fraction(1, 2)}
    mu = games.product_distribution(game, [MixedAction(0, half), MixedAction(1, half)])
    mixers, subgame = certify._induced_2x2(game, mu)
    for concept in ("ce", "cce"):
        report["concepts"][concept] = {"singleton": True,
                                       "point": games.distribution_to_dict(game, mu)}
    report["certificates"]["cce"] = {
        "type": "refutation", "concept": "cce",
        "reason": "the unique coarse correlated equilibrium is mixed"}
    report["classification"] = {
        "variant": "unique_mixed_2x2", "mixers": list(mixers),
        "subgame": game_to_dict(subgame),
        "ne": [games.mixed_to_dict(mu.marginal(game, i)) for i in mixers]}


def ircp_singleton_at(point: dict):
    """Claim IRCP a singleton at `point`, an IRCP member."""
    def forge(report: dict) -> None:
        report["concepts"]["ircp"] = {"singleton": True, "point": point}
    return forge


def file_cce_certificate_as_ircp(report: dict) -> None:
    """Prisoner's dilemma: file the CCE certificate at (d, d) as IRCP's, and claim
    IRCP the singleton at it."""
    report["certificates"]["ircp"] = copy.deepcopy(report["certificates"]["cce"])
    report["concepts"]["ircp"] = {"singleton": True, "point": {"3": "1"}}


TWO_NE = [f"concepts.{c} claims a singleton, but the game has 2 pure NE"
          for c in ("ce", "cce", "ircp")]
COORDINATION_CHECKED = TWO_NE + [
    "certificates.ircp: concepts.ircp claims a singleton the refutation denies",
    "certificates.cce: concepts.cce claims a singleton the refutation denies",
    "classification: not_unique, but concepts.cce claims a singleton"]
FORGERIES = {
    "pd-key-swap": (prisoners_dilemma, True, file_cce_certificate_as_ircp,
                    ['certificates.ircp: concept "cce" is not its key']),
    "coordination-0": (coordination, False, every_concept_at("0"), TWO_NE),
    "coordination-3": (coordination, False, every_concept_at("3"), TWO_NE),
    "coordination-0-check-unique": (coordination, True, every_concept_at("0"),
                                    COORDINATION_CHECKED),
    "coordination-3-check-unique": (coordination, True, every_concept_at("3"),
                                    COORDINATION_CHECKED),
    "pennies-and-x": (pennies_and_x, True, forge_mixed_classification, [
        f"concepts.{c}.point is not the one pure NE's point mass" for c in ("ce", "cce")]),
    # No pure NE, and CE is the uniform point in both games.  Rock-paper-
    # scissors' CCE holds two members, so IRCP is no singleton.  In matching
    # pennies, a singleton IRCP could only be the CE point.
    "rps-ircp": (rock_paper_scissors, False,
                 ircp_singleton_at({str(k): "1/9" for k in range(9)}), [
                     "concepts.ircp claims a singleton, but concepts.cce holds two members"]),
    "pennies-ircp": (matching_pennies, False, ircp_singleton_at({"0": "1/2", "1": "1/2"}), [
        "concepts.ircp.point is not concepts.ce.point"]),
}


@pytest.mark.parametrize("forgery", sorted(FORGERIES))
def test_verify_exits_1_on_sections_that_contradict_each_other(forgery, tmp_path, capsys):
    from eqcert.cli import main

    make_game, check_unique, forge, expected = FORGERIES[forgery]
    data = build_report(make_game(), check_unique=check_unique)
    assert verify_report(data) == []
    forge(data)
    path = tmp_path / "forged.json"
    path.write_bytes(save_report(data))
    assert main(["verify", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out.splitlines() == expected
    assert err == ""
