"""End-to-end coverage of the command-line interface and its exit codes."""

import ast
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from eqcert import cli, dynamics
from eqcert.certify import verify_certificate
from eqcert.cli import SUBCOMMANDS, build_parser, main
from eqcert.contests import (
    ContestSpec,
    LinearCost,
    PowerCost,
    TullockRatio,
    save_contest,
)
from eqcert.games import load_game
from eqcert.generators import parking, prisoners_dilemma
from eqcert.lp import PIVOT_LIMIT_ENV, PolytopeSolver
from eqcert.polytopes import SolverInvariantError
from eqcert.report import build_report, load_report, save_report, verify_report


def _generate(tmp_path, name, *args):
    path = tmp_path / name
    assert main(["generate", *args, "--out", str(path)]) == 0
    return path


def _write_tullock(tmp_path):
    spec = ContestSpec(TullockRatio(1), (1, 1), (LinearCost(1), LinearCost(1)))
    spec_path = tmp_path / "tullock.json"
    spec_path.write_bytes(save_contest(spec))
    grid_path = tmp_path / "grid.json"
    grid_path.write_text(json.dumps([f"{k}/8" for k in range(1, 9)]))
    return spec_path, grid_path


# -- generate ---------------------------------------------------------------------


def test_generate_named_families(tmp_path):
    path = _generate(tmp_path, "pd.json", "pd")
    game = load_game(path.read_bytes())
    reference = prisoners_dilemma()
    assert game.actions == reference.actions
    assert game.payoffs == reference.payoffs

    path = _generate(tmp_path, "parking.json", "parking")
    game = load_game(path.read_bytes())
    assert game.payoffs == parking(3, 1, "1/4", "3/5").payoffs

    path = _generate(tmp_path, "random.json", "random", "--shape", "2,3",
                     "--seed", "5")
    assert load_game(path.read_bytes()).shape == (2, 3)

    path = _generate(tmp_path, "mp.json", "mp_type", "--seed", "3")
    assert load_game(path.read_bytes()).shape == (2, 2)

    path = _generate(tmp_path, "mp2.json", "mp_type", "--params",
                     "2,0,1,3,1,3,2,0")
    assert load_game(path.read_bytes()).shape == (2, 2)


def test_generate_writes_to_stdout(capsys):
    assert main(["generate", "rps"]) == 0
    game = load_game(capsys.readouterr().out)
    assert game.shape == (3, 3)


def test_generate_input_errors(tmp_path, capsys):
    out = str(tmp_path / "g.json")
    assert main(["generate", "random", "--out", out]) == 2
    assert main(["generate", "mp_type", "--out", out]) == 2
    assert main(["generate", "mp_type", "--params", "1,2,3", "--out", out]) == 2
    assert main(["generate", "parking", "--t", "0.3333...", "--out", out]) == 2
    capsys.readouterr()
    for args, message in (
            (["--low", "3", "--high", "1"], "error: --low 3 is above --high 1"),
            (["--shape", "a,2"],
             "error: --shape must be comma-separated action counts, got 'a,2'")):
        assert main(["generate", "random", "--seed", "1", *args, "--out", out]) == 2
        assert capsys.readouterr().err.strip() == message
    assert not (tmp_path / "g.json").exists()


# -- analyze ----------------------------------------------------------------------


def test_analyze_full_report(tmp_path, capsys):
    game_path = _generate(tmp_path, "pd.json", "pd")
    report_path = tmp_path / "report.json"
    code = main(["analyze", str(game_path), "--check-unique",
                 "--json", str(report_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "pure NE: (d, d) strict" in out
    assert "CCE: singleton" in out
    assert "CCE uniqueness: certified at (d, d)" in out
    assert "IRCP uniqueness: refuted" in out
    data = load_report(report_path.read_bytes())
    assert verify_report(data) == []


def test_analyze_subset_of_concepts(tmp_path, capsys):
    game_path = _generate(tmp_path, "rps.json", "rps")
    assert main(["analyze", str(game_path), "--concepts", "ne,cce"]) == 0
    out = capsys.readouterr().out
    assert "pure NE: none" in out
    assert "CCE: not a singleton" in out


def test_analyze_input_errors(tmp_path, capsys):
    game_path = _generate(tmp_path, "pd.json", "pd")
    assert main(["analyze", str(tmp_path / "missing.json")]) == 2
    assert main(["analyze", str(game_path), "--concepts", "cce,quantal"]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{]")
    assert main(["analyze", str(bad)]) == 2
    capsys.readouterr()
    for named in ("", ",", " , "):
        assert main(["analyze", str(game_path), "--concepts", named]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: --concepts names no concept, got {named!r}; "
                                "pick from ne,ce,cce,ircp\n")


# -- certify ----------------------------------------------------------------------


def test_certify_certificate_path(tmp_path, capsys):
    game_path = _generate(tmp_path, "pd.json", "pd")
    cert_path = tmp_path / "cert.json"
    code = main(["certify", str(game_path), "--concept", "cce",
                 "--json", str(cert_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "certificate: unique CCE at (d, d)" in out
    payload = json.loads(cert_path.read_text())
    assert verify_certificate(load_game(game_path.read_bytes()), payload) == []


def test_certify_refutation_path(tmp_path, capsys):
    game_path = _generate(tmp_path, "rps.json", "rps")
    ref_path = tmp_path / "ref.json"
    code = main(["certify", str(game_path), "--concept", "cce",
                 "--json", str(ref_path)])
    out = capsys.readouterr().out
    assert code == 1
    assert "refuted:" in out
    assert "witness 0:" in out
    payload = json.loads(ref_path.read_text())
    assert payload["concept"] == "cce"
    assert len(payload["witnesses"]) == 2


def test_certify_target_comparison(tmp_path, capsys):
    game_path = _generate(tmp_path, "pd.json", "pd")
    assert main(["certify", str(game_path), "--concept", "cce",
                 "--target", "1,1"]) == 0
    assert main(["certify", str(game_path), "--concept", "cce",
                 "--target", "0,0"]) == 1
    capsys.readouterr()
    assert main(["certify", str(game_path), "--concept", "cce",
                 "--target", "5,5"]) == 2
    assert main(["certify", str(game_path), "--concept", "cce",
                 "--target", "a,b"]) == 2


def test_certify_ircp_on_parking(tmp_path, capsys):
    game_path = _generate(tmp_path, "park.json", "parking", "--t", "3/4")
    assert main(["certify", str(game_path), "--concept", "ircp"]) == 0
    assert "unique IRCP at (pay, pay)" in capsys.readouterr().out


# -- contest ----------------------------------------------------------------------


def test_contest_prop3_pass_and_fail(tmp_path, capsys):
    spec_path, grid_path = _write_tullock(tmp_path)
    out_path = tmp_path / "prop3.json"
    code = main(["contest", str(spec_path), "--grid", str(grid_path),
                 "--prop3", "--a-star", "1/4,1/4", "--json", str(out_path)])
    assert code == 0
    assert "prop3 check: passed" in capsys.readouterr().out
    payload = json.loads(out_path.read_text())
    assert payload["ok"] is True
    assert payload["gamma"] == ["1", "1"]

    code = main(["contest", str(spec_path), "--grid", str(grid_path),
                 "--prop3", "--a-star", "1/8,1/8"])
    assert code == 1
    assert "prop3 check: failed" in capsys.readouterr().out


def test_contest_prop3_rejects_a_bad_gamma(tmp_path, capsys):
    spec_path, _ = _write_tullock(tmp_path)
    grid_path = tmp_path / "grid3.json"
    grid_path.write_text(json.dumps(["1/8", "1/4", "3/8"]))
    for gamma in ("1", "1,2,3", "0,1", "1,-1/2"):
        assert main(["contest", str(spec_path), "--grid", str(grid_path),
                     "--prop3", "--a-star", "1/4,1/4", "--gamma", gamma]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --gamma needs two positive weights\n"
    assert main(["contest", str(spec_path), "--grid", str(grid_path),
                 "--prop3", "--a-star", "1/4,1/4", "--gamma", ""]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_contest_prop3_on_a_one_effort_grid(tmp_path, capsys):
    spec_path, _ = _write_tullock(tmp_path)
    grid_path = tmp_path / "grid1.json"
    grid_path.write_text(json.dumps(["1/4"]))
    assert main(["contest", str(spec_path), "--grid", str(grid_path),
                 "--prop3", "--a-star", "1/4,1/4"]) == 0
    assert "prop3 check: passed" in capsys.readouterr().out


def test_contest_band_checks(tmp_path, capsys):
    spec_path, _ = _write_tullock(tmp_path)
    ratio_path = tmp_path / "ratios.json"
    ratio_path.write_text(json.dumps([f"{k}/8" for k in range(1, 8)]))
    assert main(["contest", str(spec_path), "--grid", str(ratio_path),
                 "--band", "--c", "1/4"]) == 0
    assert "band check at c = 1/4: passed" in capsys.readouterr().out
    assert main(["contest", str(spec_path), "--grid", str(ratio_path),
                 "--band", "--c", "1/2"]) == 1


@pytest.mark.parametrize("kind, changes", [
    ("game", {"payoffs": 5}),
    ("game", {"payoffs": [5, 6]}),
    ("game", {"players": True}),
    ("game", {"actions": [[1, None]]}),
    ("contest", {"exponent": "x"}),
    ("contest", {"exponent": 2.7}),
    ("contest", {"exponent": True}),
    ("contest", {"success": "tullock"}),
    ("game", {"payoffs": [["1e5000", "1"]]}),
    ("game", {"bytes": b"\xff\xfe{}"}),
    ("game", {"bytes": b"[" * 200000 + b"]" * 200000}),
    ("contest", {"bytes": b"\xff\xfe{}"}),
    ("contest", {"bytes": b"[" * 200000 + b"]" * 200000}),
], ids=("payoffs-int", "payoffs-flat", "players-bool", "actions-not-str", "exponent-str",
        "exponent-float", "exponent-bool", "success-str", "payoff-digits", "game-not-utf8", "game-nested",
        "contest-not-utf8", "contest-nested"))
def test_malformed_game_and_contest_files_exit_2(kind, changes, tmp_path, capsys):
    # A malformed field is an input error: exit 2 and one `error:` line.  The
    # file without that change is read and checked.  A file that is not
    # UTF-8, or nests too deeply to parse, is read in every place a command
    # reads a file of its kind.
    if kind == "game":
        data = {"players": 1, "actions": [["a", "b"]], "payoffs": [["0", "1"]]}
        argv = ["analyze"]
    else:
        spec = ContestSpec(TullockRatio(1), (1, 1), (PowerCost(1, 2), PowerCost(1, 2)))
        data = json.loads(save_contest(spec))
        ratio_path = tmp_path / "ratios.json"
        ratio_path.write_text(json.dumps([f"{k}/8" for k in range(1, 8)]))
        argv = ["contest", "--grid", str(ratio_path), "--band", "--c", "1/4"]
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(data))
    assert main([argv[0], str(path), *argv[1:]]) == 0
    bad = tmp_path / "bad.json"
    runs = [[argv[0], str(bad), *argv[1:]]]
    if "bytes" in changes:
        bad.write_bytes(changes["bytes"])
        simulate = ["--algo", "external_mw", "--steps", "1", "--seed", "1"]
        runs += ([["certify", str(bad), "--concept", "cce"], ["verify", str(bad)],
                  ["simulate", str(bad), *simulate],
                  ["simulate", str(path), *simulate, "--certificate", str(bad)]]
                 if kind == "game" else [[argv[0], str(path), *argv[1:2], str(bad), *argv[3:]]])
    else:
        if "exponent" in changes:
            data["costs"][1]["exponent"] = changes["exponent"]
        else:
            data.update(changes)
        bad.write_text(json.dumps(data))
    for run in runs:
        capsys.readouterr()
        assert main(run) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("field", ("success", "costs"))
def test_contest_file_nested_too_deep_to_convert_exits_2(field, tmp_path, capsys):
    # A file can parse and still nest too deeply to convert: a `mix` share
    # function recurses once per level, and a bad cost's message prints the
    # list it got.  Where that window of depths lies moves with the caller's
    # stack, so the depth grows until the parse itself refuses the file, and
    # every depth on the way exits 2 with one `error:` line.
    spec = ContestSpec(TullockRatio(1), (1, 1), (PowerCost(1, 2), PowerCost(1, 2)))
    data = json.loads(save_contest(spec))
    data[field] = "@"
    template = json.dumps(data)
    _, grid_path = _write_tullock(tmp_path)
    path = tmp_path / "nested.json"
    leaf = '{"kind": "tullock", "r": "1"}' if field == "success" else "[]"
    nested, converted_too_deep = leaf, False
    for _ in range(2000):
        if field == "success":
            nested = f'{{"kind": "mix", "alpha": "1/2", "components": [{nested}, {leaf}]}}'
        else:
            nested = f"[{nested}]"
        path.write_text(template.replace('"@"', nested))
        assert main(["contest", str(path), "--grid", str(grid_path), "--prop3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        if "while decoding" in captured.err:
            break
        converted_too_deep |= captured.err.startswith(
            "error: invalid contest JSON: maximum recursion depth exceeded")
    else:
        pytest.fail("the parse never refused the nesting")
    assert converted_too_deep


def test_contest_input_errors(tmp_path):
    spec_path, grid_path = _write_tullock(tmp_path)
    assert main(["contest", str(spec_path), "--grid", str(grid_path)]) == 2
    assert main(["contest", str(spec_path), "--grid", str(grid_path),
                 "--prop3"]) == 2
    assert main(["contest", str(spec_path), "--grid", str(grid_path),
                 "--prop3", "--a-star", "1/3,1/3"]) == 2
    assert main(["contest", str(spec_path), "--grid", str(grid_path),
                 "--band", "--c", "1/4"]) == 2  # grid holds t = 1
    broken = tmp_path / "broken.json"
    broken.write_text("[")
    assert main(["contest", str(broken), "--grid", str(grid_path),
                 "--prop3", "--a-star", "1/4,1/4"]) == 2


def test_contest_prop3_and_band_together_is_a_usage_error(tmp_path, capsys):
    # Each alone runs (see above); together, neither check runs.
    spec_path, grid_path = _write_tullock(tmp_path)
    assert main(["contest", str(spec_path), "--grid", str(grid_path),
                 "--prop3", "--a-star", "1/4,1/4", "--band", "--c", "1/4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --band: not allowed with argument --prop3" in captured.err


def test_contest_band_rejects_unreadable_c(tmp_path, capsys):
    spec_path, _ = _write_tullock(tmp_path)
    ratio_path = tmp_path / "ratios.json"
    ratio_path.write_text(json.dumps([f"{k}/8" for k in range(1, 8)]))
    assert main(["contest", str(spec_path), "--grid", str(ratio_path),
                 "--band", "--c", "abc"]) == 2
    assert capsys.readouterr().err.startswith("error: --c:")


def test_contest_unparsable_rational_in_files_exits_2(tmp_path, capsys):
    spec_path, grid_path = _write_tullock(tmp_path)
    bad_grid = tmp_path / "bad_grid.json"
    bad_grid.write_text(json.dumps(["abc"]))
    assert main(["contest", str(spec_path), "--grid", str(bad_grid),
                 "--prop3", "--a-star", "1/4,1/4"]) == 2
    spec = json.loads(spec_path.read_text())
    spec["success"]["r"] = "x"
    bad_spec = tmp_path / "bad_spec.json"
    bad_spec.write_text(json.dumps(spec))
    assert main(["contest", str(bad_spec), "--grid", str(grid_path),
                 "--prop3", "--a-star", "1/4,1/4"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and all(line.startswith("error: ") for line in err)


# -- simulate ---------------------------------------------------------------------


def test_simulate_run_and_certificate_distance(tmp_path, capsys):
    game_path = _generate(tmp_path, "pd.json", "pd")
    cert_path = tmp_path / "cert.json"
    main(["certify", str(game_path), "--concept", "cce", "--json", str(cert_path)])
    capsys.readouterr()

    out_path = tmp_path / "run.json"
    code = main(["simulate", str(game_path), "--algo", "external_mw",
                 "--steps", "400", "--seed", "11", "--rate", "5",
                 "--certificate", str(cert_path), "--json", str(out_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "max external regret" in out
    assert "total variation to certified profile (d, d)" in out
    payload = json.loads(out_path.read_text())
    assert payload["steps"] == 400
    assert float(payload["tv_to_certificate"].split("/")[0]) >= 0


@pytest.mark.parametrize("m", (3, 4, 5))
def test_ircp_certificate_file_checks_without_a_solver(tmp_path, capsys, monkeypatch, m):
    # A bare certificate file carries no maximin levels, and needs none.
    game_path = _generate(tmp_path, "parking.json", "parking", "--m", str(m))
    cert_path = tmp_path / "cert.json"
    assert main(["certify", str(game_path), "--concept", "ircp",
                 "--json", str(cert_path)]) == 0

    def refuse(self, system):
        raise AssertionError("an LP was built to check a certificate")

    monkeypatch.setattr(PolytopeSolver, "__init__", refuse)
    payload = json.loads(cert_path.read_text())
    assert verify_certificate(load_game(game_path.read_bytes()), payload) == []
    assert main(["simulate", str(game_path), "--algo", "external_mw", "--steps", "20",
                 "--seed", "1", "--certificate", str(cert_path)]) == 0
    assert "total variation to certified profile (pay, pay)" in capsys.readouterr().out


def test_simulate_internal_rm(tmp_path, capsys):
    game_path = _generate(tmp_path, "rps.json", "rps")
    assert main(["simulate", str(game_path), "--algo", "internal_rm",
                 "--steps", "200", "--seed", "4"]) == 0
    assert "internal_rm: 200 steps" in capsys.readouterr().out


def test_simulate_input_errors(tmp_path, capsys):
    game_path = _generate(tmp_path, "pd.json", "pd")
    assert main(["simulate", str(game_path), "--algo", "external_mw",
                 "--steps", "0", "--seed", "1"]) == 2
    assert main(["simulate", str(game_path), "--algo", "gradient",
                 "--steps", "10", "--seed", "1"]) == 2
    capsys.readouterr()
    assert main(["simulate", str(game_path), "--algo", "external_mw",
                 "--steps", "10", "--seed", "1", "--rate", "1e400"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --rate 1e400 is too large") and err.count("\n") == 1
    assert main(["simulate", str(game_path), "--algo", "external_mw",
                 "--steps", "10", "--seed", "1", "--rate", "1e-400"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --rate 1e-400 is too small: ") and err.count("\n") == 1
    bad_cert = tmp_path / "bad.json"
    for text in ('{"no": "a_star"}',
                 '{"concept": "cce", "a_star": [5, 0], "gamma": ["1/2", "1/2"], '
                 '"slack": "1"}'):
        bad_cert.write_text(text)
        assert main(["simulate", str(game_path), "--algo", "external_mw",
                     "--steps", "10", "--seed", "1",
                     "--certificate", str(bad_cert)]) == 2
    assert capsys.readouterr().err.endswith("profile (5, 0) out of range\n")
    # The other commands read such a payoff exactly; the dynamics need floats.
    data = json.loads(game_path.read_text())
    data["payoffs"][1][0] = "1e400"
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps(data))
    assert main(["simulate", str(huge), "--algo", "external_mw", "--steps", "10",
                 "--seed", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: player 1's payoffs do not fit in a float: ")
    assert captured.err.count("\n") == 1


def test_simulate_rejects_a_bad_certificate_before_running(tmp_path, capsys, monkeypatch):
    game_path = _generate(tmp_path, "pd.json", "pd")
    bad_cert = tmp_path / "bad.json"
    bad_cert.write_text('{"concept": "cce", "a_star": [1, 1], "gamma": ["1/2", "1/2"], '
                        '"slack": "1"}')

    def refuse(*args, **kwargs):
        raise AssertionError("dynamics ran before the certificate was checked")

    monkeypatch.setattr(dynamics, "run", refuse)
    assert main(["simulate", str(game_path), "--algo", "external_mw",
                 "--steps", "10", "--seed", "1", "--certificate", str(bad_cert)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {bad_cert}: ")


# -- verify -----------------------------------------------------------------------


def test_verify_round_trip(tmp_path, capsys):
    game_path = _generate(tmp_path, "pd.json", "pd")
    report_path = tmp_path / "report.json"
    main(["analyze", str(game_path), "--check-unique", "--json", str(report_path)])
    capsys.readouterr()
    assert main(["verify", str(report_path)]) == 0
    assert "report verified" in capsys.readouterr().out


def test_verify_detects_tampering(tmp_path, capsys):
    game_path = _generate(tmp_path, "pd.json", "pd")
    report_path = tmp_path / "report.json"
    main(["analyze", str(game_path), "--json", str(report_path)])
    capsys.readouterr()
    data = json.loads(report_path.read_text())
    data["maximin"] = ["0", "0"]
    report_path.write_text(json.dumps(data))
    assert main(["verify", str(report_path)]) == 1
    assert "maximin" in capsys.readouterr().out
    garbage = tmp_path / "garbage.json"
    garbage.write_text("[1, 2]")
    assert main(["verify", str(garbage)]) == 2


# -- input errors -----------------------------------------------------------------


# One row per input error that a library module raises and `main` reports.
@pytest.mark.parametrize("argv, err", [
    (["analyze", "pd.json", "--concepts", "cce,quantal"],
     "error: unknown concepts: quantal\n"),
    (["contest", "logit.json", "--grid", "grid.json", "--band"],
     "error: unknown share function kind 'logit'\n"),
    (["contest", "tullock.json", "--grid", "x_grid.json", "--band"],
     "error: cannot parse 'x' as a rational\n"),
    (["contest", "tullock.json", "--grid", "grid.json", "--prop3", "--a-star", "1/3,1/3"],
     "error: the anchor profile must lie on the grid\n"),
    (["contest", "tullock.json", "--grid", "grid.json", "--prop3", "--a-star", "x,1/3"],
     "error: cannot parse 'x' as a rational\n"),
    (["contest", "tullock.json", "--grid", "grid.json", "--band"],
     "error: band grid ratios must lie in (0, 1)\n"),
    (["simulate", "pd.json", "--algo", "external_mw", "--steps", "0", "--seed", "1"],
     "error: steps must be at least 1\n"),
    (["simulate", "pd.json", "--algo", "external_mw", "--steps", "10", "--seed", "1",
      "--rate", "abc"],
     "error: cannot parse 'abc' as a rational\n"),
    (["verify", "truncated.json"],
     "error: invalid report JSON: Expecting value: line 1 column 14 (char 13)\n"),
], ids=("unknown-concept", "unknown-share", "grid-entry", "anchor-off-grid",
        "anchor-unparsable", "band-grid-holds-1", "steps-0", "rate-unparsable",
        "truncated-report"))
def test_input_error_messages(argv, err, tmp_path, capsys):
    _generate(tmp_path, "pd.json", "pd")
    spec_path, _ = _write_tullock(tmp_path)
    data = json.loads(spec_path.read_text())
    data["success"] = {"kind": "logit"}
    (tmp_path / "logit.json").write_text(json.dumps(data))
    (tmp_path / "x_grid.json").write_text(json.dumps(["1/8", "x"]))
    (tmp_path / "truncated.json").write_text('{"maximin": [')
    assert main([str(tmp_path / a) if a.endswith(".json") else a for a in argv]) == 2
    assert capsys.readouterr() == ("", err)


# -- solver failures ----------------------------------------------------------------


def test_pivot_limit_exits_3(tmp_path, capsys, monkeypatch):
    # PD's levels sit at pure saddle points and uniform weights certify its
    # CCE, so its LPs stay within 2 pivots; rock-paper-scissors has no pure
    # saddle point, and its maximin LPs take more.
    rps_path = _generate(tmp_path, "rps.json", "rps")
    monkeypatch.setenv(PIVOT_LIMIT_ENV, "2")
    assert main(["analyze", str(rps_path)]) == 3
    assert main(["certify", str(rps_path), "--concept", "ircp"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: simplex exceeded 2 pivots")
    assert "Traceback" not in err


def test_pivot_limit_must_be_a_nonnegative_integer(tmp_path, capsys, monkeypatch):
    game_path = _generate(tmp_path, "pd.json", "pd")
    for value in ("abc", "-1", "1.5"):
        monkeypatch.setenv(PIVOT_LIMIT_ENV, value)
        assert main(["analyze", str(game_path)]) == 2
        err = capsys.readouterr().err
        assert err == (f"error: {PIVOT_LIMIT_ENV} must be a nonnegative integer, "
                       f"got {value!r}\n")
    for value in ("0", ""):
        monkeypatch.setenv(PIVOT_LIMIT_ENV, value)  # no cap
        assert main(["certify", str(game_path), "--concept", "cce"]) == 0
    monkeypatch.delenv(PIVOT_LIMIT_ENV)
    assert main(["certify", str(game_path), "--concept", "cce"]) == 0


def _set(path, value):
    """Set data[path[0]]...[path[-1]] = value on a copy of a report."""
    def forge(data):
        target = data
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
    return forge


# Rock-paper-scissors: each maximin level is 0, certified by the uniform
# strategy and the uniform punishment.
MAXIMIN_FORGERIES = {
    "punishment-weight": (
        _set(("maximin_certificates", 0, "punishment"), {"0": "1/2", "1": "1/4", "2": "1/4"}),
        "maximin_certificates[0]: punishment leaves action 1 more than 0"),
    "strategy-weight": (
        _set(("maximin_certificates", 1, "strategy"), {"0": "1/2", "1": "1/4", "2": "1/4"}),
        "maximin_certificates[1]: strategy guarantees less than 0 against "
        "opponent joint action 1"),
    "level-up": (
        _set(("maximin", 0), "1/1000"),
        "maximin_certificates[0]: strategy guarantees less than 1/1000 against "
        "opponent joint action 0"),
    "level-down": (
        _set(("maximin", 1), "-1/1000"),
        "maximin_certificates[1]: punishment leaves action 0 more than -1/1000"),
    "sum": (
        _set(("maximin_certificates", 0, "strategy"), {"0": "1/3", "1": "1/3"}),
        "maximin_certificates[0] unreadable: mixed action weights must sum to 1"),
    "negative": (
        _set(("maximin_certificates", 0, "punishment"), {"0": "-1/3", "1": "2/3", "2": "2/3"}),
        "maximin_certificates[0]: punishment is not a distribution"),
    "key-range": (
        _set(("maximin_certificates", 1, "punishment"), {"3": "1"}),
        "maximin_certificates[1] unreadable: punishment key '3' is not an index below 3"),
    "json-type": (
        _set(("maximin_certificates", 0, "strategy", "0"), 1),
        "maximin_certificates[0] unreadable: strategy weight 1 is not a rational string"),
    "list-type": (
        _set(("maximin_certificates",), {"0": {}}),
        "maximin levels need one certificate per player in maximin_certificates"),
    "version-1": (
        _set(("report_version",), 1),
        "report_version 1 is not 3; run analyze again"),
    "no-maximin": (
        lambda data: data.pop("maximin"),
        "concepts.ircp: no certified maximin levels to check an IRCP claim"),
}


@pytest.mark.parametrize("forgery", sorted(MAXIMIN_FORGERIES))
def test_verify_rejects_a_forged_maximin_certificate(tmp_path, capsys, forgery):
    from eqcert.generators import rock_paper_scissors

    forge, first_problem = MAXIMIN_FORGERIES[forgery]
    data = build_report(rock_paper_scissors(), ("ne", "cce", "ircp"))
    assert data["maximin_certificates"][0] == {
        "strategy": {"0": "1/3", "1": "1/3", "2": "1/3"},
        "punishment": {"0": "1/3", "1": "1/3", "2": "1/3"}}
    forge(data)
    report_path = tmp_path / "report.json"
    report_path.write_bytes(save_report(data))
    assert main(["verify", str(report_path)]) == 1
    out, err = capsys.readouterr()
    assert out.splitlines()[0] == first_problem
    assert err == ""


# Prisoner's dilemma: the one flagged profile is (1, 1), and both flags are false.
GUE_FORGERIES = {
    "flag-null": (_set(("gue", 0, "strict_fractional_gue"), None),
                  "gue[0]: flags must be booleans, got [false, null]"),
    "flag-zero": (_set(("gue", 0, "gue"), 0),
                  "gue[0]: flags must be booleans, got [0, false]"),
    "profile-strings": (_set(("gue", 0, "profile"), ["1", "1"]),
                        'gue[0]: profile must be a list of ints, got ["1", "1"]'),
    "profile-booleans": (_set(("gue", 0, "profile"), [True, True]),
                         "gue[0]: profile must be a list of ints, got [true, true]"),
}


@pytest.mark.parametrize("forgery", sorted(GUE_FORGERIES))
def test_verify_rejects_a_forged_gue_entry(tmp_path, capsys, forgery):
    forge, problem = GUE_FORGERIES[forgery]
    data = build_report(prisoners_dilemma(), ("ne",), check_unique=True)
    assert data["gue"] == [
        {"profile": [1, 1], "gue": False, "strict_fractional_gue": False}]
    forge(data)
    report_path = tmp_path / "report.json"
    report_path.write_bytes(save_report(data))
    assert main(["verify", str(report_path)]) == 1
    out, err = capsys.readouterr()
    assert out.splitlines() == [problem]
    assert err == ""


# Prisoner's dilemma: the CCE certificate is at (d, d), profile [1, 1], and
# the unique_pure classification rests on it.
A_STAR_FORGERIES = {"floats": [1.0, 1.9], "strings": ["1", "1"], "booleans": [True, True]}


@pytest.mark.parametrize("forgery", sorted(A_STAR_FORGERIES))
def test_verify_rejects_a_certificate_profile_that_is_not_ints(tmp_path, capsys, forgery):
    a_star = A_STAR_FORGERIES[forgery]
    data = build_report(prisoners_dilemma(), ("ne", "cce"), check_unique=True)
    certificate = data["certificates"]["cce"]
    assert certificate["a_star"] == [1, 1]
    certificate["a_star"] = a_star
    report_path = tmp_path / "report.json"
    report_path.write_bytes(save_report(data))
    assert main(["verify", str(report_path)]) == 1
    out, err = capsys.readouterr()
    problem = f"unreadable certificate: profile must be a list of ints, got {json.dumps(a_star)}"
    assert out.splitlines() == [
        f"certificates.cce: {problem}",
        "classification: unique_pure needs concepts.cce at a point mass and a checked "
        "certificates.cce certificate at its profile"]
    assert err == ""


@pytest.mark.parametrize("forgery", sorted(A_STAR_FORGERIES))
def test_simulate_rejects_a_certificate_profile_that_is_not_ints(tmp_path, capsys, forgery):
    game_path = _generate(tmp_path, "pd.json", "pd")
    cert_path = tmp_path / "cert.json"
    assert main(["certify", str(game_path), "--concept", "cce", "--json", str(cert_path)]) == 0
    cert = json.loads(cert_path.read_text())
    assert cert["a_star"] == [1, 1]
    cert["a_star"] = A_STAR_FORGERIES[forgery]
    cert_path.write_text(json.dumps(cert))
    capsys.readouterr()
    assert main(["simulate", str(game_path), "--algo", "external_mw", "--steps", "10",
                 "--seed", "1", "--certificate", str(cert_path)]) == 2
    assert capsys.readouterr().err.startswith(
        f"error: {cert_path}: unreadable certificate: profile must be a list of ints")


# Prisoner's dilemma: weights (1, 1) have slack 1 at (d, d).  Each forgery
# spells them in a form other than a list of rational strings with a
# rational string slack, and verified clean while `parse_rational` read a
# string's characters or an object's keys as weights.
GAMMA_FORGERIES = {
    "gamma-string": ({"gamma": "11", "slack": "1"},
                     'gamma must be a list of rational strings, got "11"'),
    "gamma-object": ({"gamma": {"1": "x", "1 ": "y"}, "slack": "1"},
                     'gamma must be a list of rational strings, got {"1": "x", "1 ": "y"}'),
    "slack-number": ({"gamma": ["1", "1"], "slack": 1},
                     "slack must be a rational string, got 1"),
}


@pytest.mark.parametrize("forgery", sorted(GAMMA_FORGERIES))
def test_verify_reads_certificate_weights_only_as_rational_strings(tmp_path, capsys, forgery):
    fields, problem = GAMMA_FORGERIES[forgery]
    data = build_report(prisoners_dilemma(), ("ne", "cce"), check_unique=True)
    data["certificates"]["cce"].update(fields)
    report_path = tmp_path / "report.json"
    report_path.write_bytes(save_report(data))
    assert main(["verify", str(report_path)]) == 1
    out, err = capsys.readouterr()
    assert out.splitlines() == [
        f"certificates.cce: unreadable certificate: {problem}",
        "classification: unique_pure needs concepts.cce at a point mass and a checked "
        "certificates.cce certificate at its profile"]
    assert err == ""


@pytest.mark.parametrize("forgery", sorted(GAMMA_FORGERIES))
def test_simulate_reads_certificate_weights_only_as_rational_strings(tmp_path, capsys,
                                                                     forgery):
    fields, problem = GAMMA_FORGERIES[forgery]
    game_path = _generate(tmp_path, "pd.json", "pd")
    cert_path = tmp_path / "cert.json"
    assert main(["certify", str(game_path), "--concept", "cce", "--json", str(cert_path)]) == 0
    cert = json.loads(cert_path.read_text())
    cert.update(fields)
    cert_path.write_text(json.dumps(cert))
    capsys.readouterr()
    assert main(["simulate", str(game_path), "--algo", "external_mw", "--steps", "10",
                 "--seed", "1", "--certificate", str(cert_path)]) == 2
    assert capsys.readouterr().err == (
        f"error: {cert_path}: unreadable certificate: {problem}\n")


def test_verify_names_every_bad_gue_entry(tmp_path, capsys):
    # An entry that cannot be read must not hide a forged flag after it.
    data = build_report(parking(3, 1, "1/4", "3/5"), ("ne",), check_unique=True)
    assert data["gue"] == [{"profile": [0, 0], "gue": True, "strict_fractional_gue": True}]
    data["gue"] = [{"profile": [9, 9], "gue": False, "strict_fractional_gue": False},
                   dict(data["gue"][0], strict_fractional_gue=False)]
    report_path = tmp_path / "report.json"
    report_path.write_bytes(save_report(data))
    assert main(["verify", str(report_path)]) == 1
    out, err = capsys.readouterr()
    assert out.splitlines() == [
        "gue[0] unreadable: GameFormatError: profile (9, 9) out of range",
        "gue[1]: lottery-Pareto flag does not re-verify"]
    assert err == ""


def test_verify_under_pivot_limit_exits_3_not_1(tmp_path, capsys, monkeypatch):
    # The solver giving up is no verdict on the report: a gue entry whose
    # re-check hits the limit must not be listed as a problem.
    data = build_report(prisoners_dilemma(), ("ne",), check_unique=True)
    data = {"report_version": data["report_version"], "game": data["game"],
            "gue": data["gue"]}
    report_path = tmp_path / "report.json"
    report_path.write_bytes(save_report(data))
    assert main(["verify", str(report_path)]) == 0
    monkeypatch.setenv(PIVOT_LIMIT_ENV, "1")
    capsys.readouterr()
    assert main(["verify", str(report_path)]) == 3
    assert capsys.readouterr().err.startswith("error: ")


def test_solver_invariant_error_exits_3(tmp_path, capsys, monkeypatch):
    from eqcert import report

    def broken(*args, **kwargs):
        raise SolverInvariantError("cce polytope is unexpectedly empty")

    monkeypatch.setattr(report, "build_report", broken)
    game_path = _generate(tmp_path, "pd.json", "pd")
    assert main(["analyze", str(game_path)]) == 3
    assert capsys.readouterr().err == "error: cce polytope is unexpectedly empty\n"


def test_failed_chain_recheck_exits_3(tmp_path, capsys, monkeypatch):
    from eqcert import polytopes

    # Parking's IRCP is one point; the CCE polytope rejects it here.
    real = polytopes.membership

    def rejecting(spec, mu):
        if spec.concept == "cce":
            return polytopes.MembershipResult(False, ())
        return real(spec, mu)

    monkeypatch.setattr(polytopes, "membership", rejecting)
    game_path = _generate(tmp_path, "parking.json", "parking")
    assert main(["analyze", str(game_path)]) == 3
    assert capsys.readouterr().err == (
        "error: membership re-check: cce decision[0] is not a CCE member\n")


def test_phase1_failure_exits_3(tmp_path, capsys, monkeypatch):
    from eqcert import lp

    # A phase 1 that reports unbounded breaks a solver invariant.
    monkeypatch.setattr(lp._StandardForm, "_minimize", lambda self: lp.UNBOUNDED)
    game_path = _generate(tmp_path, "pd.json", "pd")
    assert main(["analyze", str(game_path)]) == 3
    assert capsys.readouterr().err == "error: phase 1 cannot be unbounded\n"


# -- parser-level behavior ----------------------------------------------------------


def test_parser_exit_codes(capsys):
    assert main([]) == 2
    assert main(["frobnicate"]) == 2
    assert main(["--help"]) == 0
    capsys.readouterr()


def _parse_with(parser, argv, capsys):
    """Exit code, stdout and stderr of parsing argv, as `main` maps them."""
    try:
        parser.parse_args(argv)
        code = None
    except SystemExit as exc:
        code = 0 if exc.code in (0, None) else 2
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("command", list(SUBCOMMANDS))
def test_one_subcommand_parser_prints_what_the_full_parser_prints(command, capsys,
                                                                   monkeypatch):
    monkeypatch.setattr(cli, "_PARSERS", {})
    full = build_parser()
    for rest in (["--help"], [], ["--bogus"], ["x", "y", "z", "w"], ["x", "--json"],
                 ["x", "--steps", "many", "--seed", "1", "--algo", "nope"],
                 ["random", "--seed", "one"]):
        argv = [command, *rest]
        code, out, err = _parse_with(full, argv, capsys)
        assert code is not None, argv
        # The first call builds the subcommand's parser, the second reuses it.
        for _ in range(2):
            assert main(argv) == code, argv
            assert capsys.readouterr() == (out, err), argv


def _every_parser_argv(tmp_path) -> list[list[str]]:
    """Valid command lines of every subcommand, usage errors and help requests."""
    game = str(_generate(tmp_path, "pd.json", "pd"))
    spec, grid = (str(path) for path in _write_tullock(tmp_path))
    report_path = str(tmp_path / "report.json")
    return [
        ["analyze", game, "--check-unique", "--json", report_path],
        ["certify", game, "--concept", "cce", "--target", "1,1"],
        ["certify", game, "--concept", "ircp"],
        ["verify", report_path],
        ["generate", "random", "--shape", "2,3", "--seed", "4"],
        ["contest", spec, "--grid", grid, "--prop3", "--a-star", "1/4,1/4"],
        ["simulate", game, "--algo", "external_mw", "--steps", "20", "--seed", "1"],
        ["certify", game, "--concept", "ne"], ["contest", spec, "--grid", grid],
        ["simulate", game], ["verify"], ["frobnicate"], [],
        ["--help"], ["analyze", "--help"], ["generate", "--help"],
    ]


def test_repeated_calls_print_alike(tmp_path, capsys, monkeypatch):
    # A kept parser holds nothing of a call: each command prints and exits
    # alike on its first call and after usage errors in between.
    monkeypatch.setattr(cli, "_PARSERS", {})
    commands = _every_parser_argv(tmp_path)
    first = [(main(argv), capsys.readouterr()) for argv in commands]
    assert [code for code, _ in first[:7]] == [0, 0, 1, 0, 0, 0, 0]  # PD's IRCP: refuted
    assert all(code == 2 for code, _ in first[7:13])
    for argv, seen in zip(commands, first):
        for bad in (["certify", commands[1][1]], ["analyze", "--bogus"]):
            assert main(bad) == 2
        capsys.readouterr()
        assert (main(argv), capsys.readouterr()) == seen, argv


def test_main_builds_each_parser_once(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "_PARSERS", {})
    built = Counter()
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser",
                        lambda command=None: built.update([command]) or build(command))
    commands = _every_parser_argv(tmp_path)
    for _ in range(3):
        for argv in commands:
            main(argv)
    capsys.readouterr()
    assert built == Counter([None, *SUBCOMMANDS])


def _src_env() -> dict:
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def test_importing_the_cli_builds_no_parser():
    # A parser built at import would add to the start-up of every process.
    script = "\n".join([
        "import argparse",
        "built = []",
        "init = argparse.ArgumentParser.__init__",
        "def counting(self, *args, **kwargs):",
        "    built.append(self)",
        "    init(self, *args, **kwargs)",
        "argparse.ArgumentParser.__init__ = counting",
        "import eqcert.cli",
        "print(len(built))",
        "eqcert.cli.main(['--help'])",
        "print(len(built) > 0)",
    ])
    done = subprocess.run([sys.executable, "-c", script], env=_src_env(),
                          capture_output=True, timeout=60)
    assert done.returncode == 0, done.stderr.decode()
    assert done.stdout.decode().splitlines()[0] == "0"
    assert done.stdout.decode().splitlines()[-1] == "True"


def _theory_names() -> list[str]:
    """Every name that `eqcert.theory` defines at top level."""
    path = Path(__file__).resolve().parent.parent / "src" / "eqcert" / "theory.py"
    names = []
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names += [target.id for target in node.targets]
    return names


def test_commands_load_no_theory(tmp_path):
    # One of each subcommand in a fresh process: none may load
    # `eqcert.theory`, and no module it loads may define a name of it.
    game, report_path, cert_path = (str(tmp_path / name)
                                    for name in ("parking.json", "report.json", "cert.json"))
    spec, grid = (str(path) for path in _write_tullock(tmp_path))
    ratios = tmp_path / "ratios.json"
    ratios.write_text(json.dumps([f"{k}/8" for k in range(1, 8)]))
    commands = [
        ["generate", "parking", "--out", game],
        ["analyze", game, "--check-unique", "--json", report_path],
        ["certify", game, "--concept", "ircp"],
        ["certify", game, "--concept", "cce", "--json", cert_path],
        ["verify", report_path],
        ["contest", spec, "--grid", grid, "--prop3", "--a-star", "1/4,1/4"],
        ["contest", spec, "--grid", str(ratios), "--band", "--c", "1/4"],
        ["simulate", game, "--algo", "external_mw", "--steps", "20", "--seed", "1",
         "--certificate", cert_path],
    ]
    names = _theory_names()
    assert "conv_ne_vs_ircp" in names and "HULL_EQUAL" in names
    script = "\n".join([
        "import contextlib, io, json, sys",
        "from eqcert.cli import main",
        "commands, names = json.loads(sys.argv[1])",
        "with contextlib.redirect_stdout(io.StringIO()):",
        "    codes = [main(argv) for argv in commands]",
        "loaded = {key: module for key, module in sys.modules.items()",
        "          if key == 'eqcert' or key.startswith('eqcert.')}",
        "defined = [f'{key}.{name}' for key, module in sorted(loaded.items())",
        "           for name in names if hasattr(module, name)]",
        "print(json.dumps([codes, sorted(loaded), defined]))",
    ])
    done = subprocess.run([sys.executable, "-c", script, json.dumps([commands, names])],
                          env=_src_env(), capture_output=True, timeout=120)
    assert done.returncode == 0, done.stderr.decode()
    codes, loaded, defined = json.loads(done.stdout)
    assert codes == [0] * len(commands)
    assert "eqcert.cli" in loaded and "eqcert.theory" not in loaded
    assert defined == []
