"""Report assembly and the re-verification of everything it embeds."""

import copy
from collections import Counter
from fractions import Fraction

import pytest

from eqcert import certify, polytopes, zerosum
from eqcert.contests import ContestSpec, LinearCost, TullockRatio, discretize
from eqcert.games import Game, game_to_dict
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
    assert data["report_version"] == 2
    assert data["maximin"] == ["1", "1"]
    # Defect guarantees 1, and the opponent's defection holds both actions to 1.
    assert data["maximin_certificates"] == [
        {"strategy": {"1": "1"}, "punishment": {"1": "1"}}] * 2
    assert data["ne"]["pure"] == [{"profile": [1, 1], "strict": True}]
    assert data["ne"]["mixed_2x2"]["status"] == "ok"
    assert data["concepts"]["cce"]["singleton"] is True
    assert data["concepts"]["ircp"]["singleton"] is False
    assert len(data["concepts"]["ircp"]["witnesses"]) == 2
    assert data["certificates"]["cce"]["type"] == "certificate"
    assert data["certificates"]["ircp"]["type"] == "refutation"
    assert data["classification"]["variant"] == "unique_pure"
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


# The singleton tests analyze runs.  Parking's IRCP is one point, decided by
# the P(a*) test at (pay, pay) that its GUE flag reads too, and it settles
# CCE and CE down the inclusion chain.  The IRCP decisions of RPS (no pure
# maximin action) and of the Tullock 8x8 grid (a* pays above the level) run
# no LP; RPS has no singleton above CE, and the grid's CCE is one point and
# it asks for no CE.
SINGLETON_TESTS = {
    "parking": {"P(a*)": 1},
    "rps": {"cce polytope": 1, "ce polytope": 1},
    "tullock8": {"cce polytope": 1},
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
    # Parking's IRCP is one point, decided by the P(a*) test at (pay, pay):
    # one solver beside the maximin LPs, and none for a polytope's system.
    game = parking(3, 1, Fraction(1, 4), Fraction(3, 5))
    solved = _record_solvers(monkeypatch)
    data = build_report(game, ("ne", "ce", "cce", "ircp"), check_unique=True)
    assert all(data["concepts"][c]["singleton"] for c in ("ce", "cce", "ircp"))
    for concept in ("ce", "cce", "ircp"):
        assert polytopes.build_polytope(game, concept).system not in solved
    assert solved.count(polytopes.improvement_system(game, (0, 0))) == 1


# Games whose IRCP decision takes each path: a certificate from uniform
# weights (parking) or from the P(a*) dual (doubled parking, whose CCE
# reduction at (pay, pay) has the same P(a*) system), no pure maximin action
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


def test_ce_alone_runs_the_cce_test_unreported(monkeypatch):
    calls = _count_work(monkeypatch)
    data = build_report(_tullock8(), ("ce",))
    assert calls["singleton"] == Counter({"cce polytope": 1})
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
    certify_cce, singleton = certify.certify_unique_pure_cce, polytopes.singleton_over_system

    def tracking(*args, **kwargs):
        inside.append(True)
        try:
            return certify_cce(*args, **kwargs)
        finally:
            inside.pop()

    def counting(*args, **kwargs):
        solved.append(bool(inside))
        return singleton(*args, **kwargs)

    monkeypatch.setattr(certify, "certify_unique_pure_cce", tracking)
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


@pytest.mark.parametrize("section, value, expected", [
    ("concepts", [],
     "concepts unreadable: AttributeError: 'list' object has no attribute 'items'"),
    ("concepts", {"cce": "x"},
     "concepts.cce unreadable: AttributeError: 'str' object has no attribute 'get'"),
    ("concepts", {"xyz": {"singleton": True, "point": {"0": "1"}}},
     "concepts.xyz unreadable: PolytopeError: unknown concept 'xyz'; "
     "pick one of ('ce', 'cce', 'ircp')"),
    ("ne", [], "ne unreadable: AttributeError: 'list' object has no attribute 'get'"),
    ("certificates", {"cce": "x"},
     "certificates.cce unreadable: AttributeError: 'str' object has no attribute 'get'"),
    ("classification", {"variant": "unique_pure", "point": {"3": "1"}},
     "classification unreadable: KeyError: 'certificate'"),
], ids=["concepts-list", "concept-entry-str", "concept-unknown", "ne-list",
        "certificate-str", "classification-no-certificate"])
def test_verify_flags_malformed_section(section, value, expected):
    data = full_pd_report()
    data[section] = value
    assert verify_report(data) == [expected]


def test_verify_reads_past_an_unreadable_entry():
    # The first entry of `concepts` and of `certificates` cannot be read; the
    # forgeries in the entries after them are still named.
    data = full_pd_report()
    data["concepts"]["ce"] = "x"
    data["concepts"]["cce"]["point"] = {"0": "1"}
    data["certificates"] = {"ircp": "x", "cce": dict(data["certificates"]["cce"], slack="7")}
    problems = verify_report(data)
    assert problems[:3] == [
        "concepts.ce unreadable: AttributeError: 'str' object has no attribute 'get'",
        "concepts.cce.point[0] is not a CCE member",
        "certificates.ircp unreadable: AttributeError: 'str' object has no attribute 'get'"]
    assert problems[3].startswith("certificates.cce: ") and len(problems) == 4


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
    # PD's CE and CCE are the one point delta(d, d), at profile index 3.
    data = full_pd_report()
    data["concepts"]["cce"] = {"singleton": False, "witnesses": copy.deepcopy(pair)}
    data["concepts"]["ce"] = {"singleton": False, "witnesses": copy.deepcopy(pair)}
    data["classification"] = {"variant": "not_unique", "witnesses": copy.deepcopy(pair)}
    assert verify_report(data) == [
        f"{where}.witnesses[0] and {where}.witnesses[1] are the same distribution"
        for where in ("concepts.ce", "concepts.cce", "classification")]


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
        for c in ("ce", "cce", "ircp")]
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
        "is not a rational string"]


def test_verify_flags_tampered_certificate():
    data = full_pd_report()
    data["certificates"]["cce"]["slack"] = "7"
    assert any(p.startswith("certificates.cce") for p in verify_report(data))


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
        "classification: mixers or subgame disagree with the point"]


@pytest.mark.parametrize("point", ({"0": "1"}, {"0": "1/2", "3": "1/2"}))
def test_verify_flags_a_classification_point_that_is_no_two_mixer_product(point):
    # A pure point, and one whose marginals both mix but which is no product.
    data = build_report(matching_pennies(), ("ne", "cce"), check_unique=True)
    data["classification"]["point"] = point
    assert ("classification: point is not a product in which two players mix over "
            "two actions each") in verify_report(data)


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
