"""Random-game generation, the experiment runner, and stats export."""

import dataclasses
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings

from wvg import (
    Engine,
    ExperimentConfig,
    Game,
    IndexKind,
    InvalidConfigError,
    ResourceLimitError,
    SplitSpec,
    banzhaf_counts_dp_vector,
    export_stats,
    generate_game,
    normalize_banzhaf,
    run_experiment,
    scan_game,
    scan_two_way_splits,
    shapley_dp_vector,
    stats_from_json,
)
from wvg import manipulation
from wvg.exact import TABLE_BITS_LIMIT
from wvg.experiments import HISTOGRAM_BINS, histogram_bin, round_half_away
from wvg.game import apply_split

from _oracles import banzhaf_by_subsets, random_game, shapley_by_subsets
from _strategies import edge_games

SH = IndexKind.SHAPLEY_SHUBIK
BZ = IndexKind.BANZHAF


TINY = ExperimentConfig(
    weight_mean=12.0,
    weight_sigma_set=(3.0, 6.0),
    player_range=(3, 6),
    games_per_cell=8,
    seed=5,
)


class TestRounding:
    def test_half_away_from_zero(self):
        assert round_half_away(2.5) == 3
        assert round_half_away(3.5) == 4
        assert round_half_away(-2.5) == -3
        assert round_half_away(0.4) == 0
        assert round_half_away(-0.5) == -1


class TestGeneration:
    def test_deterministic_per_seed(self):
        a = generate_game(TINY, random.Random(7), 3.0)
        b = generate_game(TINY, random.Random(7), 3.0)
        assert a == b

    def test_respects_player_range_and_validity(self):
        rng = random.Random(0)
        for _ in range(300):
            game = generate_game(TINY, rng, 6.0)
            assert 3 <= game.num_players <= 6
            assert all(w >= 1 for w in game.weights)
            assert 1 <= game.quota <= game.total_weight()

    def test_unanimity_mode(self):
        config = ExperimentConfig(
            weight_mean=12.0, weight_sigma_set=(3.0,), player_range=(3, 6),
            games_per_cell=4, unanimity_quota=True,
        )
        rng = random.Random(1)
        for _ in range(50):
            game = generate_game(config, rng, 3.0)
            assert game.is_unanimity()

    def test_weight_mean_tracks_mu(self):
        config = ExperimentConfig(
            weight_mean=200.0, weight_sigma_set=(50.0,), player_range=(5, 24),
            games_per_cell=1,
        )
        rng = random.Random(123)
        draws = []
        while len(draws) < 10_000:
            draws.extend(generate_game(config, rng, 50.0).weights)
        mean = sum(draws) / len(draws)
        assert abs(mean - 200.0) < 5.0


class TestScanGame:
    def test_no_beneficial_anywhere(self):
        record = scan_game(Game(5, (2, 2, 2)), SH)
        assert not record.has_beneficial
        assert record.beneficial_fraction == 0

    def test_all_beneficial(self):
        record = scan_game(Game(6, (2, 2, 2)), SH)
        assert record.has_beneficial
        assert record.beneficial_fraction == 1

    def test_counts_partition(self):
        record = scan_game(Game(17, (9, 4, 3, 2)), BZ)
        for s in record.scans:
            assert s.beneficial + s.harmful + s.neutral == s.total_splits

    @pytest.mark.parametrize("kind", [SH, BZ])
    def test_shared_table_matches_per_player_scans_and_oracle(self, kind):
        oracle = shapley_by_subsets if kind is SH else banzhaf_by_subsets
        rng = random.Random(41)
        for _ in range(20):
            game = random_game(rng, max_players=8, max_weight=12)
            record = scan_game(game, kind)
            assert record.scans == tuple(
                scan_two_way_splits(game, p, kind) for p in range(game.num_players)
            )
            before = oracle(game)
            for p, scan in enumerate(record.scans):
                w = game.weights[p]
                rest = tuple(x for i, x in enumerate(game.weights) if i != p)
                for report in scan.reports:
                    j = report.spec.parts[0]
                    after = oracle(Game(game.quota, rest + (j, w - j)))
                    assert report.payoff_before == before[p]
                    assert report.payoff_after_total == after[-1] + after[-2]

    @given(edge_games())
    @settings(max_examples=40, deadline=None)
    @example(Game(1, (1, 1, 3)))
    @example(Game(12, (4, 4, 4)))
    @example(Game(5, (7, 2, 2, 1)))
    @example(Game(6, (6, 6, 6, 6, 6, 6, 6, 6, 6, 6)))
    def test_banzhaf_game_table_matches_single_player_scans_and_oracle(self, game):
        record = scan_game(game, BZ)
        assert record.scans == tuple(
            scan_two_way_splits(game, p, BZ) for p in range(game.num_players)
        )
        before = banzhaf_by_subsets(game)
        for p, scan in enumerate(record.scans):
            w = game.weights[p]
            assert scan.total_splits == w // 2
            rest = tuple(x for i, x in enumerate(game.weights) if i != p)
            for report in scan.reports:
                j = report.spec.parts[0]
                after = banzhaf_by_subsets(Game(game.quota, rest + (j, w - j)))
                assert report.payoff_before == before[p]
                assert report.payoff_after_total == after[-1] + after[-2]

    def test_shared_table_matches_rebuilt_games_beyond_enumeration(self):
        rng = random.Random(43)
        weights = tuple(rng.randint(1, 14) for _ in range(18))
        game = Game(sum(weights) // 2 + 3, weights)
        sh_before = shapley_dp_vector(game)
        bz_before = normalize_banzhaf(banzhaf_counts_dp_vector(game))
        for kind, before, engine in (
            (SH, sh_before, shapley_dp_vector),
            (BZ, bz_before, lambda g: normalize_banzhaf(banzhaf_counts_dp_vector(g))),
        ):
            for p, scan in enumerate(scan_game(game, kind).scans):
                for report in scan.reports:
                    outcome = apply_split(game, SplitSpec(p, report.spec.parts))
                    vec = engine(outcome.game)
                    assert report.payoff_before == before[p]
                    assert report.payoff_after_total == sum(vec[i] for i in outcome.new_players)


class TestRunner:
    def test_reproducible(self):
        assert run_experiment(TINY) == run_experiment(TINY)

    def test_stats_consistency(self):
        stats = run_experiment(TINY)
        assert stats.games_total == 16
        assert sum(stats.histogram) == stats.games_total
        assert len(stats.histogram) == HISTOGRAM_BINS
        assert sum(c.games for c in stats.cells) == stats.games_total
        assert (
            stats.splits_beneficial + stats.splits_harmful + stats.splits_neutral
            == stats.splits_total
        )
        assert 0 <= stats.frac_games_with_beneficial <= 1
        assert 0 <= stats.overall_beneficial_fraction <= 1

    @pytest.mark.parametrize("kind", [SH, BZ])
    def test_exact_study_builds_no_report(self, monkeypatch, kind):
        # The study reads counts only: no SplitSpec or SplitReport per candidate.
        config = dataclasses.replace(TINY, kind=kind)
        expected = run_experiment(config)
        assert expected.splits_total > 0

        def refuse(*args, **kwargs):
            raise AssertionError("the exact study built a per-candidate object")

        for name in ("SplitReport", "SplitSpec"):
            monkeypatch.setattr(manipulation, name, refuse)
        assert run_experiment(config) == expected

    def test_exact_mode_ignores_epsilon_delta(self):
        a = run_experiment(TINY)
        b = run_experiment(
            dataclasses.replace(TINY, epsilon=Fraction(1, 7), delta=Fraction(1, 9))
        )
        assert a == b

    def test_unanimity_control_hits_every_game(self):
        config = ExperimentConfig(
            weight_mean=12.0, weight_sigma_set=(3.0,), player_range=(3, 6),
            games_per_cell=10, seed=9, unanimity_quota=True,
        )
        stats = run_experiment(config)
        assert stats.frac_games_with_beneficial == 1

    def test_monte_carlo_engine(self):
        config = ExperimentConfig(
            weight_mean=8.0,
            weight_sigma_set=(2.0,),
            player_range=(3, 4),
            games_per_cell=2,
            epsilon=Fraction(1, 10),
            delta=Fraction(1, 10),
            seed=2,
            engine=Engine.MONTE_CARLO,
            kind=BZ,
        )
        stats = run_experiment(config)
        assert stats.engine is Engine.MONTE_CARLO
        assert stats.games_total == 2
        assert run_experiment(config) == stats

    def test_quota_ceiling(self):
        # five players of mean weight 2^40, quota their total weight: no table holds it
        config = ExperimentConfig(
            weight_mean=2.0**40, weight_sigma_set=(5.0,), player_range=(5, 5),
            games_per_cell=1, unanimity_quota=True, seed=1,
        )
        with pytest.raises(ResourceLimitError, match=f"TABLE_BITS_LIMIT = {TABLE_BITS_LIMIT}"):
            run_experiment(config)

    def test_quota_whose_table_fits_runs(self):
        # quota 299,995: refused by the study's old quota ceiling of 100,000, yet
        # its table is 299,995 * 6 slots of 8 bits, far below the bit limit
        config = ExperimentConfig(
            weight_mean=60000.0, weight_sigma_set=(5.0,), player_range=(5, 5),
            games_per_cell=1, unanimity_quota=True,
        )
        stats = run_experiment(config)
        assert stats.games_total == 1

    def test_faithful_preset_shape(self):
        config = ExperimentConfig.faithful(seed=3, kind=BZ)
        assert config.weight_mean == 200.0
        assert config.weight_sigma_set == tuple(float(s) for s in range(5, 55, 5))
        assert config.player_range == (5, 24)
        assert config.engine is Engine.MONTE_CARLO
        assert config.kind is BZ

    def test_config_validation(self):
        with pytest.raises(InvalidConfigError):
            ExperimentConfig(player_range=(1, 4))
        with pytest.raises(InvalidConfigError):
            ExperimentConfig(games_per_cell=0)
        with pytest.raises(InvalidConfigError):
            ExperimentConfig(weight_sigma_set=(0.0,))

    def test_empty_sigma_set_rejected(self):
        with pytest.raises(InvalidConfigError, match="sigma"):
            ExperimentConfig(weight_sigma_set=())

    @pytest.mark.parametrize(
        "fields",
        [
            {"weight_mean": math.inf},
            {"weight_mean": math.nan},
            {"weight_sigma_set": (5.0, math.inf)},
            {"weight_sigma_set": (math.nan,)},
        ],
        ids=str,
    )
    def test_non_finite_parameters_rejected(self, fields):
        with pytest.raises(InvalidConfigError, match="finite"):
            ExperimentConfig(**fields)

    @pytest.mark.parametrize(
        "fields, name",
        [
            ({"weight_mean": 2.0**53}, "weight_mean"),
            ({"weight_sigma_set": (5.0, 1e300)}, "sigma"),
            ({"epsilon": "nan"}, "epsilon"),
            ({"delta": Fraction(2)}, "delta"),
        ],
        ids=str,
    )
    def test_out_of_range_parameters_named(self, fields, name):
        with pytest.raises(InvalidConfigError, match=name):
            ExperimentConfig(**fields)

    def test_probabilities_parsed_to_fractions(self):
        config = ExperimentConfig(epsilon="0.01", delta="1/1000")
        assert (config.epsilon, config.delta) == (Fraction(1, 100), Fraction(1, 1000))

    def test_margin_needs_the_monte_carlo_engine(self):
        with pytest.raises(InvalidConfigError, match="margin"):
            ExperimentConfig(beneficial_margin=Fraction(1, 2))
        config = ExperimentConfig(beneficial_margin=Fraction(1, 2), engine=Engine.MONTE_CARLO)
        assert config.beneficial_margin == Fraction(1, 2)

    def test_negative_margin_refused(self):
        with pytest.raises(InvalidConfigError, match="beneficial_margin"):
            ExperimentConfig(beneficial_margin=Fraction(-1, 100), engine=Engine.MONTE_CARLO)
        config = ExperimentConfig(beneficial_margin="0", engine=Engine.MONTE_CARLO)
        assert config.beneficial_margin == 0


class TestExport:
    def test_csv_schema(self):
        stats = run_experiment(TINY)
        csv = export_stats(stats, "csv")
        lines = csv.strip().splitlines()
        assert lines[0] == "sigma,n_players,games,frac_with_beneficial,mean_beneficial_fraction"
        assert len(lines) == 1 + len(stats.cells)

    def test_json_round_trip_is_identical(self):
        stats = run_experiment(TINY)
        text = export_stats(stats, "json")
        assert stats_from_json(text) == stats

    def test_json_series_and_histogram_shape(self):
        stats = run_experiment(TINY)
        obj = json.loads(export_stats(stats, "json"))
        assert obj["histogram"]["bin_width"] == 0.005
        assert len(obj["histogram"]["counts"]) == HISTOGRAM_BINS
        assert {s["sigma"] for s in obj["series"]["proportion_vs_sigma"]} == {3.0, 6.0}
        assert all("frac_with_beneficial" in s for s in obj["series"]["proportion_vs_players"])

    def test_unknown_format(self):
        with pytest.raises(InvalidConfigError):
            export_stats(run_experiment(TINY), "xml")

    def test_histogram_binning(self):
        assert histogram_bin(Fraction(0)) == 0
        assert histogram_bin(Fraction(1, 300)) == 0  # anything below 0.5% lands in bin 0
        assert histogram_bin(Fraction(1, 200)) == 1
        assert histogram_bin(Fraction(1, 2)) == 100
        assert histogram_bin(Fraction(1)) == HISTOGRAM_BINS - 1
