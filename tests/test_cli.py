"""Command-line behavior: outputs, formats, exit codes, determinism."""

import hashlib
import json
import os
import re
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

import wvg.cli as cli_mod
import wvg.manipulation as manipulation_mod
import wvg.verify as verify_mod
from wvg.cli import main
from wvg.errors import InvalidConfigError
from wvg.exact import TABLE_BITS_LIMIT
from wvg.manipulation import CANDIDATE_LIMIT
from wvg.verify import FixtureResult

from _engines import refuse_enumeration, route_to_enumeration


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestIndexCommand:
    def test_exact_json(self, capsys):
        code, out, err = run_cli(
            capsys, "index", "--game", "6;2,2,2", "--kind", "shapley", "--format", "json"
        )
        assert code == 0 and err == ""
        obj = json.loads(out)
        assert obj["engine"] == "exact"
        assert [v["numerator"] for v in obj["values"]] == [1, 1, 1]
        assert [v["denominator"] for v in obj["values"]] == [3, 3, 3]

    def test_text_format(self, capsys):
        code, out, _ = run_cli(capsys, "index", "--game", "6;2,2,2", "--format", "text")
        assert code == 0
        assert "player 0: 1/3" in out

    def test_banzhaf(self, capsys):
        code, out, _ = run_cli(capsys, "index", "--game", "5;2,1,1,1,1", "--kind", "banzhaf")
        obj = json.loads(out)
        assert obj["values"][0]["numerator"] == 5
        assert obj["values"][0]["denominator"] == 17

    def test_invalid_game_is_domain_error(self, capsys):
        code, out, err = run_cli(capsys, "index", "--game", "0;1,2")
        assert code == 1
        assert "quota >= 1 violated" in err
        assert out == ""

    def test_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "index")
        assert code == 2

    def test_unreadable_file_is_domain_error(self, capsys):
        code, _, err = run_cli(capsys, "index", "--game", "/nonexistent/game.txt")
        assert code == 1 and "error" in err

    def test_game_files(self, capsys, tmp_path):
        text = tmp_path / "g.txt"
        text.write_text("6\n2 2 2\n")
        code, out, _ = run_cli(capsys, "index", "--game", str(text))
        assert code == 0 and json.loads(out)["values"][0]["denominator"] == 3
        as_json = tmp_path / "g.json"
        as_json.write_text('{"quota": 6, "weights": [2, 2, 2]}')
        code, out2, _ = run_cli(capsys, "index", "--game", str(as_json))
        assert code == 0 and out2 == out

    def test_mc_engine_reports_samples(self, capsys):
        code, out, _ = run_cli(
            capsys, "index", "--game", "6;2,2,2", "--engine", "mc",
            "--epsilon", "0.05", "--delta", "0.1", "--seed", "3",
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["engine"] == "monte_carlo"
        assert all(v["samples_used"] > 0 for v in obj["values"])


class TestScanCommand:
    def test_scan_reports_beneficial_split(self, capsys):
        code, out, _ = run_cli(
            capsys, "scan", "--game", "5;2,1,1,1,1", "--player", "0", "--kind", "banzhaf"
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["beneficial"] == 1
        assert obj["best"]["parts"] == [1, 1]
        assert obj["best"]["classification"] == "beneficial"

    def test_scan_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "scan", "--game", "6;2,2,2", "--player", "2", "--format", "csv"
        )
        assert code == 0
        assert out.splitlines()[0] == "player,j,before,after,class"

    def test_scan_k_way(self, capsys):
        code, out, _ = run_cli(
            capsys, "scan", "--game", "6;5,5", "--player", "1", "--k", "5"
        )
        obj = json.loads(out)
        assert obj["total_splits"] == 1
        assert obj["reports"][0]["classification"] == "harmful"

    # a 12-player game whose weight-280 player has 6,533 three-way splits
    TWELVE = "1300;280,210,190,205,230,170,185,200,220,195,215,180"

    # sha256 of the output as it was when every format built the JSON object
    @pytest.mark.parametrize(
        "kind, fmt, digest",
        [
            ("shapley", "json", "6b8e179f7f6ea60df4ef7aaec8a68e7287f6bc503d6240ceef0d73dde144fb73"),
            ("shapley", "text", "cd78a651ac17ba4fb2c75eb08e4088029fa93e667fa4a3c4ec5d4a435100fd8d"),
            ("banzhaf", "json", "2464dfe0e36cc428b491e5476d8f77ccff9ef4c088b7e8a2eb03f52f6b8fdfa9"),
            ("banzhaf", "text", "34d34156dfc313cb52c9115c214a0a6460927d0be2dfd9a242dcd742ab486675"),
        ],
    )
    def test_three_way_scan_output_is_pinned(self, capsys, kind, fmt, digest):
        code, out, err = run_cli(
            capsys, "scan", "--game", self.TWELVE, "--player", "0", "--k", "3",
            "--kind", kind, "--format", fmt,
        )
        assert code == 0 and err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("fmt", ["text", "csv"])
    def test_text_and_csv_build_no_report_objects(self, capsys, monkeypatch, fmt):
        def refuse(*args):
            raise AssertionError(f"--format {fmt} built a JSON object")

        monkeypatch.setattr(cli_mod, "_scan_obj", refuse)
        monkeypatch.setattr(cli_mod, "_split_report_obj", refuse)
        code, out, err = run_cli(
            capsys, "scan", "--game", self.TWELVE, "--player", "0", "--k", "3", "--format", fmt
        )
        assert code == 0 and out and err == ""

    def test_k_way_refuses_monte_carlo(self, capsys):
        code, out, err = run_cli(
            capsys, "scan", "--game", "6;5,5", "--player", "1", "--k", "3",
            "--engine", "mc", "--samples", "100", "--seed", "3",
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: --engine mc")
        assert len(err.splitlines()) == 1


class TestOtherCommands:
    def test_find_split(self, capsys):
        code, out, _ = run_cli(
            capsys, "find-split", "--game", "6;2,2,2", "--player", "2",
            "--epsilon", "0.02", "--delta", "0.01", "--seed", "4",
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["found"] is True and obj["parts"] == [1, 1]

    def test_merge(self, capsys):
        code, out, _ = run_cli(
            capsys, "merge", "--game", "8;2,2,2,2", "--coalition", "2,3"
        )
        obj = json.loads(out)
        assert obj["beneficial"] is False

    def test_annex(self, capsys):
        code, out, _ = run_cli(
            capsys, "annex", "--game", "11;6,5,1,1,1,1,1", "--annexer", "0",
            "--coalition", "2", "--kind", "banzhaf",
        )
        obj = json.loads(out)
        assert obj["beneficial"] is False
        assert obj["after"]["numerator"] == 17 and obj["after"]["denominator"] == 36

    def test_probe(self, capsys):
        code, out, _ = run_cli(
            capsys, "probe-monotonicity", "--game", "9;3,3,2,1,1,1",
            "--annexer", "0", "--kind", "banzhaf",
        )
        obj = json.loads(out)
        assert [0, 1, 2] in obj["witnesses"]

    def test_bounds(self, capsys):
        code, out, _ = run_cli(
            capsys, "bounds", "--game", "10;2,2,2,2,2", "--player", "4", "--parts", "1,1"
        )
        obj = json.loads(out)
        assert obj["shapley_ratio"]["numerator"] == 5
        assert obj["shapley_ratio"]["denominator"] == 3
        assert obj["count_after_pair"] == 2 * obj["count_before"]

    def test_gadget(self, capsys):
        code, out, _ = run_cli(
            capsys, "gadget", "--variant", "ss_split", "--instance", "1,1"
        )
        obj = json.loads(out)
        assert obj["game"] == {"quota": 11, "weights": [8, 8, 1, 2]}
        assert obj["designated_players"] == [3]

    def test_experiment_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "experiment", "--mu", "10", "--sigmas", "3", "--players", "3:5",
            "--games-per-cell", "4", "--seed", "1", "--format", "csv",
        )
        assert code == 0
        assert out.splitlines()[0] == (
            "sigma,n_players,games,frac_with_beneficial,mean_beneficial_fraction"
        )

    def test_experiment_refuses_empty_sigma_set(self, capsys):
        code, out, err = run_cli(capsys, "experiment", "--sigmas", ",")
        assert code == 1
        assert out == ""
        assert err.startswith("error:")
        assert len(err.splitlines()) == 1


class TestRefusedInputs:
    """Input a command cannot honour exits 1 with one line, never a traceback
    or an output that silently ignores part of the request."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("experiment", "--mu", "inf"),
            ("experiment", "--sigmas", "nan"),
            ("experiment", "--sigmas", "1e308", "--games-per-cell", "1", "--players", "5:5"),
            ("experiment", "--margin", "1/2"),
            ("scan", "--game", "5;2,2,2", "--player", "0", "--margin", "1/2"),
            ("scan", "--game", "6;5,5", "--player", "1", "--k", "3", "--margin", "1/2"),
            ("verify", "--trials", "0"),
            ("verify", "--trials", "-3"),
        ],
        ids=" ".join,
    )
    def test_one_error_line(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("error:")
        assert len(err.splitlines()) == 1 and "Traceback" not in err

    @pytest.mark.parametrize(
        "argv, name",
        [
            (("experiment", "--engine", "mc", "--epsilon", "nan"), "epsilon"),
            (("experiment", "--engine", "mc", "--epsilon", "abc"), "epsilon"),
            (("experiment", "--engine", "mc", "--delta", "2"), "delta"),
            (("experiment", "--engine", "mc", "--epsilon", "1/0"), "epsilon"),
            (("experiment", "--engine", "mc", "--delta", "1/0"), "delta"),
            (("experiment", "--engine", "mc", "--epsilon", "1e-200"), "epsilon"),
            (("experiment", "--engine", "mc", "--delta", "1e-400"), "delta"),
            (("experiment", "--mu", "1e308"), "weight_mean"),
            (("experiment", "--mu", "1e300", "--sigmas", "1"), "weight_mean"),
            (("experiment", "--sigmas", "5,1e300"), "sigma"),
            (("experiment", "--sigmas", "abc"), "sigma"),
            (("experiment", "--sigmas", "5,x"), "sigma"),
            (("experiment", "--engine", "mc", "--margin=-1/100"), "margin"),
            (("experiment", "--engine", "mc", "--margin", "abc"), "malformed margin"),
        ],
        ids=lambda v: " ".join(v) if isinstance(v, tuple) else v,
    )
    def test_error_names_the_parameter(self, capsys, argv, name):
        code, out, err = run_cli(capsys, *argv, "--games-per-cell", "1", "--players", "5:5")
        assert code == 1 and out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert name in err and len(err) < 100

    @pytest.mark.parametrize(
        "argv, name",
        [
            (("scan", "--engine", "mc", "--margin", "-1"), "margin"),
            (("find-split", "--margin", "-1"), "margin"),
            (("find-split", "--margin=-1/1000"), "margin"),
            (("scan", "--engine", "mc", "--margin", "abc"), "malformed margin"),
            (("find-split", "--margin", "abc"), "malformed margin"),
            (("find-split", "--margin", "1/0"), "malformed margin"),
        ],
        ids=lambda v: " ".join(v) if isinstance(v, tuple) else v,
    )
    def test_margin_refusal_names_margin(self, capsys, argv, name):
        # A margin below 0 would class almost every sampled split as beneficial.
        base = ("--game", "7;3,3,2,2", "--player", "0", "--samples", "10")
        code, out, err = run_cli(capsys, *argv, *base)
        assert code == 1 and out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert name in err and len(err) < 100

    @pytest.mark.parametrize(
        "argv, name",
        [
            (("index", "--engine", "mc", "--epsilon", "1/0"), "epsilon"),
            (("index", "--engine", "mc", "--delta", "1/0"), "delta"),
            (("scan", "--engine", "mc", "--player", "0", "--epsilon", "1/0"), "epsilon"),
            (("scan", "--engine", "mc", "--player", "0", "--delta", "1/0"), "delta"),
            (("find-split", "--player", "0", "--epsilon", "1/0"), "epsilon"),
            (("find-split", "--player", "0", "--delta", "1/0"), "delta"),
            (("index", "--engine", "mc", "--epsilon", "1e-200"), "epsilon"),
            (("index", "--engine", "mc", "--epsilon", "1e-160"), "epsilon"),
            (("index", "--engine", "mc", "--delta", "1e-400"), "delta"),
            (("scan", "--engine", "mc", "--player", "0", "--epsilon", "1e-200"), "epsilon"),
            (("scan", "--engine", "mc", "--player", "0", "--delta", "1e-400"), "delta"),
            (("find-split", "--player", "0", "--epsilon", "1e-160"), "epsilon"),
            (("find-split", "--player", "0", "--delta", "1e-400"), "delta"),
        ],
        ids=lambda v: " ".join(v) if isinstance(v, tuple) else v,
    )
    def test_zero_denominator_probability_names_it(self, capsys, argv, name):
        # Fraction("1/0") raises ZeroDivisionError, not ValueError; so does a float
        # sample count ln(2/delta) / (2 epsilon^2) whose epsilon or delta underflows.
        code, out, err = run_cli(capsys, *argv, "--game", "6;2,2,2")
        assert code == 1 and out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert name in err and len(err) < 100

    @pytest.mark.parametrize(
        "argv, name",
        [
            (("index", "--kind", "banzhaf", "--epsilon", "1/0"), "epsilon"),
            (("index", "--delta", "abc"), "delta"),
            (("index", "--samples", "0"), "sample_count_override"),
            (("index", "--engine", "mc", "--samples", "-5"), "sample_count_override"),
            (("scan", "--player", "0", "--delta", "abc", "--samples", "-5"), "delta"),
            (("scan", "--player", "0", "--samples", "-5"), "sample_count_override"),
            (("scan", "--player", "0", "--k", "3", "--epsilon", "2"), "epsilon"),
            (("find-split", "--player", "0", "--samples", "0"), "sample_count_override"),
        ],
        ids=lambda v: " ".join(v) if isinstance(v, tuple) else v,
    )
    def test_sampling_flags_refused_under_any_engine(self, capsys, argv, name):
        # the exact engine samples nothing, yet a malformed flag is not ignored
        code, out, err = run_cli(capsys, *argv, "--game", "6;3,3")
        assert code == 1 and out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert name in err and len(err) < 100

    @pytest.mark.parametrize("option", ["--samples", "--threads"])
    def test_experiment_refuses_sampling_options(self, capsys, option):
        # experiment derives its sample count from epsilon and delta and never read these.
        code, out, err = run_cli(capsys, "experiment", "--engine", "mc", option, "3")
        assert code == 2 and out == ""
        assert option in err

    @pytest.mark.parametrize("players", ["5:x", "5:6:7", "x", ":6"])
    def test_malformed_player_range_names_players(self, capsys, players):
        code, out, err = run_cli(capsys, "experiment", "--games-per-cell", "1", "--players", players)
        assert code == 1 and out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert "players" in err and len(err) < 100


SRC = Path(__file__).resolve().parents[1] / "src"
# four players near 2 * 10^11 at quota 4 * 10^11: every counting table is terabytes
HUGE = "400000000000;200000000001,200000000003,200000000005,200000000007"
HUGE_13 = "1000000000000;" + ",".join(["100000000000"] * 12 + ["100000000001"])


def _run_capped(*args):
    """Run the CLI in a child process limited to 1 GiB of address space, so a
    table or candidate list built before the size check fails the test
    instead of filling memory."""

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run(
        [sys.executable, "-m", "wvg", *args],
        capture_output=True, text=True, env=env, preexec_fn=cap, timeout=60,
    )


class TestTableLimit:
    """A game whose counting table exceeds ``TABLE_BITS_LIMIT`` is refused before
    any table or candidate is built; enumeration still answers up to its limit."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("merge", "--game", HUGE, "--coalition", "0,1"),
            ("annex", "--game", HUGE, "--annexer", "0", "--coalition", "1"),
            ("probe-monotonicity", "--game", HUGE, "--annexer", "0"),
            ("bounds", "--game", HUGE, "--player", "0", "--parts", "100000000000,100000000001"),
            ("scan", "--game", HUGE, "--player", "0"),
            ("scan", "--game", HUGE, "--player", "0", "--k", "3"),
            ("index", "--game", HUGE_13),
            ("index", "--game", HUGE_13, "--kind", "banzhaf"),
        ],
        ids=lambda argv: " ".join(a for a in argv if a not in ("--game", HUGE, HUGE_13)),
    )
    def test_refused_with_one_line_naming_the_limit(self, argv):
        done = _run_capped(*argv)
        assert done.returncode == 1 and done.stdout == ""
        assert done.stderr.startswith("error:") and len(done.stderr.splitlines()) == 1
        assert re.search(r"\(\d+ bits\)", done.stderr)
        assert f"TABLE_BITS_LIMIT = {TABLE_BITS_LIMIT}" in done.stderr
        assert "out of memory" not in done.stderr

    @pytest.mark.parametrize("kind", ["shapley", "banzhaf"])
    def test_huge_quota_is_enumerated_up_to_twelve_players(self, capsys, kind):
        code, out, _ = run_cli(capsys, "index", "--game", HUGE, "--kind", kind)
        assert code == 0
        values = json.loads(out)["values"]
        assert [(v["numerator"], v["denominator"]) for v in values] == [(1, 4)] * 4


class TestCandidateLimit:
    """A split scan over ``CANDIDATE_LIMIT`` candidates is refused after its
    table is built and before its candidates are, whatever the engine."""

    @pytest.mark.parametrize("extra", [("--k", "2"), ("--k", "3"), ("--engine", "mc")])
    def test_refused_with_one_line_naming_the_limit(self, extra):
        start = time.perf_counter()
        done = _run_capped("scan", "--game", "5;1000000000,3", "--player", "0", *extra)
        assert time.perf_counter() - start < 5
        assert done.returncode == 1 and done.stdout == ""
        assert done.stderr.startswith("error:") and len(done.stderr.splitlines()) == 1
        assert "weight-1000000000" in done.stderr
        assert f"CANDIDATE_LIMIT = {CANDIDATE_LIMIT}" in done.stderr
        assert "out of memory" not in done.stderr


TWELVE = "1100;141,143,233,85,193,87,255,210,268,175,220,186"


class TestTableEngine:
    """With every game read from its table and enumeration refused, the exact
    answers on games of 1-12 players are byte for byte those of enumeration."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("index", "--game", "3;5"),
            ("index", "--game", "5;2,1,1,1,1", "--kind", "banzhaf"),
            ("index", "--game", TWELVE, "--format", "text"),
            ("index", "--game", TWELVE, "--kind", "banzhaf"),
            ("bounds", "--game", "10;2,2,2,2,2", "--player", "4", "--parts", "1,1"),
            ("bounds", "--game", TWELVE, "--player", "8", "--parts", "100,168"),
            ("verify", "--suite", "fixtures"),
            ("verify", "--suite", "bounds", "--trials", "40", "--seed", "7"),
        ],
        ids=" ".join,
    )
    def test_table_answers_as_enumeration_did(self, capsys, monkeypatch, argv):
        with pytest.MonkeyPatch.context() as mp:
            route_to_enumeration(mp)
            enumerated = run_cli(capsys, *argv)
        assert enumerated[0] == 0 and "FAIL" not in enumerated[1]
        refuse_enumeration(monkeypatch)
        assert run_cli(capsys, *argv) == enumerated


class TestVerifyCommand:
    def test_fresh_build_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--trials", "25", "--seed", "2")
        assert code == 0
        assert "FAIL" not in out

    def test_suite_selection(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "bounds", "--trials", "40", "--seed", "7"
        )
        assert code == 0
        assert "bounds-hold-on-40-random-trials" in out

    def test_library_refuses_no_trials(self):
        with pytest.raises(InvalidConfigError, match="trials"):
            verify_mod.run("oracle", trials=0)

    def test_corrupted_fixture_fails(self, capsys, monkeypatch):
        def broken():
            return FixtureResult("fixtures", "deliberately-broken", False, "injected")

        monkeypatch.setattr(verify_mod, "_FIXTURES", verify_mod._FIXTURES + (broken,))
        code, out, _ = run_cli(capsys, "verify", "--suite", "fixtures")
        assert code == 1
        assert "FAIL" in out and "deliberately-broken" in out

    def test_crashing_suite_check_is_a_failed_row(self, capsys, monkeypatch):
        def raising(*args):
            raise ValueError("injected")

        monkeypatch.setattr(manipulation_mod, "bloc_value", raising)
        code, out, err = run_cli(capsys, "verify", "--trials", "3", "--seed", "2")
        assert code == 1 and err == ""
        rows = out.splitlines()
        assert rows[-1].endswith("checks passed") and not rows[-1].startswith(f"{len(rows) - 1}/")
        oracle = [r for r in rows if r.startswith("FAIL  oracle")]
        bounds = [r for r in rows if r.startswith("FAIL  bounds")]
        assert len(oracle) == 1 and "merge-annex-match-enumeration" in oracle[0]
        assert len(bounds) == 1 and "annex-never-hurts-shapley" in bounds[0]
        named = re.compile(r"\[\d+; [\d, ]+\]: raised ValueError\('injected'\)$")
        assert all(named.search(r) for r in oracle + bounds)


class TestResourceExits:
    @pytest.mark.parametrize(
        "exc, code, message",
        [(MemoryError, 1, "error: out of memory"), (KeyboardInterrupt, 130, "interrupted")],
    )
    def test_one_line_diagnostic_without_traceback(self, capsys, monkeypatch, exc, code, message):
        def handler(args):
            raise exc()

        monkeypatch.setitem(cli_mod._HANDLERS, "index", handler)
        got, out, err = run_cli(capsys, "index", "--game", "6;2,2,2")
        assert got == code and out == ""
        assert err.startswith(message)
        assert len(err.splitlines()) == 1 and "Traceback" not in err


class TestParserReuse:
    """One parser serves every ``main`` call of a process."""

    def test_parser_is_built_once(self):
        assert cli_mod.build_parser() is cli_mod.build_parser()

    def test_consecutive_calls_share_no_values(self, monkeypatch):
        seen = []
        for name in ("index", "scan"):
            monkeypatch.setitem(cli_mod._HANDLERS, name, lambda args: seen.append(args) or 0)
        assert main([
            "index", "--game", "6;2,2,2", "--kind", "banzhaf", "--engine", "mc",
            "--seed", "9", "--samples", "50", "--threads", "3", "--format", "text",
        ]) == 0
        assert main(["scan", "--game", "7;3,2,2", "--player", "1", "--k", "3", "--margin", "0.1"]) == 0
        assert main(["index", "--game", "6;2,2,2"]) == 0
        mc_defaults = {"epsilon": "0.01", "delta": "0.01", "seed": 0, "samples": None, "threads": 1}
        assert [vars(args) for args in seen] == [
            {
                "command": "index", "game": "6;2,2,2", "kind": "banzhaf", "engine": "mc",
                **mc_defaults, "seed": 9, "samples": 50, "threads": 3, "format": "text",
            },
            {
                "command": "scan", "game": "7;3,2,2", "player": 1, "kind": "shapley", "k": 3,
                "engine": "exact", "margin": "0.1", **mc_defaults, "format": "json",
            },
            {
                "command": "index", "game": "6;2,2,2", "kind": "shapley", "engine": "exact",
                **mc_defaults, "format": "json",
            },
        ]
        assert len({id(args) for args in seen}) == 3

    def test_usage_errors_and_help_keep_their_exit_codes(self, capsys):
        for _ in range(2):
            assert main(["index"]) == 2
            assert main(["index", "--game", "6;2,2,2", "--format", "yaml"]) == 2
            assert main(["--help"]) == 0
            assert main(["scan", "--help"]) == 0
            assert main(["index", "--game", "6;2,2,2", "--format", "text"]) == 0
        captured = capsys.readouterr()
        assert captured.out.count("usage: wvg [-h]") == 2
        assert captured.out.count("usage: wvg scan [-h]") == 2
        assert captured.out.count("player 0: 1/3") == 2
        assert captured.err.count("usage: wvg index") == 4


class TestDeterminism:
    def test_repeat_invocations_byte_identical(self, capsys):
        args = (
            "index", "--game", "6;2,2,2", "--engine", "mc",
            "--epsilon", "0.05", "--delta", "0.1", "--seed", "12",
        )
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    def test_thread_count_does_not_change_output(self, capsys):
        # the bench's Monte-Carlo replay appends --threads 1 to these commands
        for argv in (
            ("scan", "--engine", "mc", "--kind", "banzhaf"),
            ("scan", "--engine", "mc"),
            ("find-split",),
        ):
            base = (
                *argv, "--game", "7;3,2,2,1,1", "--player", "0",
                "--epsilon", "0.1", "--delta", "0.1", "--seed", "5",
            )
            code, one, _ = run_cli(capsys, *base, "--threads", "1")
            assert code == 0 and one
            assert run_cli(capsys, *base, "--threads", "4") == (0, one, "")

    def test_experiment_seeded(self, capsys):
        args = (
            "experiment", "--mu", "10", "--sigmas", "3,5", "--players", "3:5",
            "--games-per-cell", "3", "--seed", "21", "--format", "json",
        )
        _, a, _ = run_cli(capsys, *args)
        _, b, _ = run_cli(capsys, *args)
        assert a == b
