"""Random-game generation, the experiment runner, and stats export."""

import json
import random
from fractions import Fraction

import pytest

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
from wvg.experiments import HISTOGRAM_BINS, histogram_bin, round_half_away
from wvg.game import apply_split

from _oracles import banzhaf_by_subsets, random_game, shapley_by_subsets

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

    def test_exact_mode_ignores_epsilon_delta(self):
        import dataclasses

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
        config = ExperimentConfig(
            weight_mean=50.0, weight_sigma_set=(5.0,), player_range=(5, 8),
            games_per_cell=2, dp_quota_ceiling=10, seed=1,
        )
        with pytest.raises(ResourceLimitError):
            run_experiment(config)

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
