"""Report assembly and the re-verification of everything it embeds."""

import copy

import pytest

from eqcert.generators import (
    matching_pennies,
    prisoners_dilemma,
    random_mp_type,
    rock_paper_scissors,
)
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
    assert data["report_version"] == 1
    assert data["maximin"] == ["1", "1"]
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
    assert "total" in data["timing_ms"]


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
    # classification, and is built once for both.  (The IRCP refutation is
    # re-checked by certify.verify_refutation, which builds its own.)
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
     "concepts unreadable: AttributeError: 'str' object has no attribute 'get'"),
    ("concepts", {"xyz": {"singleton": True, "point": {"0": "1"}}},
     "concepts unreadable: PolytopeError: unknown concept 'xyz'; "
     "pick one of ('ce', 'cce', 'ircp')"),
    ("ne", [], "ne unreadable: AttributeError: 'list' object has no attribute 'get'"),
    ("certificates", {"cce": "x"},
     "certificates unreadable: AttributeError: 'str' object has no attribute 'get'"),
    ("classification", {"variant": "unique_pure", "point": {"3": "1"}},
     "classification unreadable: KeyError: 'certificate'"),
], ids=["concepts-list", "concept-entry-str", "concept-unknown", "ne-list",
        "certificate-str", "classification-no-certificate"])
def test_verify_flags_malformed_section(section, value, expected):
    data = full_pd_report()
    data[section] = value
    assert verify_report(data) == [expected]


def test_verify_flags_degenerate_witness_pair():
    data = build_report(rock_paper_scissors(), ("cce",))
    data["concepts"]["cce"]["witnesses"] = [data["concepts"]["cce"]["witnesses"][0]] * 2
    assert any("two distinct witnesses" in p for p in verify_report(data))


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


def test_verify_flags_tampered_gue_flag():
    data = full_pd_report()
    data["gue"][0]["gue"] = True
    assert any(p.startswith("gue[0]") for p in verify_report(data))


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
