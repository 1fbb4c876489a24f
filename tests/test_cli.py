"""Command-line behavior: outputs, formats, exit codes, determinism."""

import json

import pytest

import wvg.cli as cli_mod
import wvg.verify as verify_mod
from wvg.cli import main
from wvg.verify import FixtureResult


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

    def test_corrupted_fixture_fails(self, capsys, monkeypatch):
        def broken():
            return FixtureResult("fixtures", "deliberately-broken", False, "injected")

        monkeypatch.setattr(verify_mod, "_FIXTURES", verify_mod._FIXTURES + (broken,))
        code, out, _ = run_cli(capsys, "verify", "--suite", "fixtures")
        assert code == 1
        assert "FAIL" in out and "deliberately-broken" in out


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


class TestThreadDefaults:
    def test_env_var_sets_default(self, monkeypatch):
        from wvg.cli import build_parser

        monkeypatch.setenv("WVG_THREADS", "3")
        args = build_parser().parse_args(["index", "--game", "6;2,2,2"])
        assert args.threads == 3
        monkeypatch.setenv("WVG_THREADS", "not-a-number")
        args = build_parser().parse_args(["index", "--game", "6;2,2,2"])
        assert args.threads == 1


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
        base = (
            "index", "--game", "7;3,2,2,1,1", "--engine", "mc", "--kind", "banzhaf",
            "--epsilon", "0.03", "--delta", "0.1", "--seed", "5",
        )
        _, one, _ = run_cli(capsys, *base, "--threads", "1")
        _, four, _ = run_cli(capsys, *base, "--threads", "4")
        assert one == four

    def test_experiment_seeded(self, capsys):
        args = (
            "experiment", "--mu", "10", "--sigmas", "3,5", "--players", "3:5",
            "--games-per-cell", "3", "--seed", "21", "--format", "json",
        )
        _, a, _ = run_cli(capsys, *args)
        _, b, _ = run_cli(capsys, *args)
        assert a == b
