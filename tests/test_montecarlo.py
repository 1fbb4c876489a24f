"""Sampling estimators: sample counts, determinism, the error contract and the
samplers' draws, which match a plain shuffle or bit loop on the same seeds."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wvg import (
    DegenerateNormalizationError,
    Game,
    InvalidConfigError,
    McConfig,
    banzhaf_counts_enumerate,
    banzhaf_mc,
    banzhaf_raw_mc,
    normalize_banzhaf,
    sample_size,
    shapley_enumerate,
    shapley_mc,
)
from wvg.montecarlo import _shuffles

from _oracles import banzhaf_raw_mc_hits, shapley_mc_hits


class TestSampleSize:
    def test_pinned_values(self):
        # high-precision evaluation of ceil(ln(2/delta) / (2 eps^2))
        assert abs(sample_size(Fraction(1, 1000), Fraction(1, 100000)) - 6_103_037) <= 1
        assert sample_size(Fraction(1, 100), Fraction(1, 100)) == 26_492
        assert sample_size(Fraction(1, 50), Fraction(1, 20)) == 4_612

    def test_exact_integer_boundary(self):
        # delta = 2/e^2 makes the logarithm cancel to exactly 2
        assert sample_size(0.5, 2 / math.e**2) == 4

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidConfigError):
            sample_size(0, 0.5)
        with pytest.raises(InvalidConfigError):
            sample_size(0.5, 1)
        with pytest.raises(InvalidConfigError):
            McConfig(Fraction(3, 2), Fraction(1, 2))

    @pytest.mark.parametrize(
        "epsilon, delta, name",
        [
            ("1e-200", "0.01", "epsilon"),  # epsilon^2 underflows to 0
            ("1e-160", "0.01", "epsilon"),  # the count overflows to inf
            ("0.1", "1e-400", "delta"),  # delta underflows to 0
            ("0.1", "5e-324", "delta"),  # 2 / delta overflows to inf
        ],
    )
    def test_rejects_a_count_that_is_not_a_finite_float(self, epsilon, delta, name):
        with pytest.raises(InvalidConfigError, match=f"^{name} is too small"):
            sample_size(epsilon, delta)

    def test_config_samples(self):
        cfg = McConfig("0.01", "0.01", seed=5)
        assert cfg.samples() == 26_492
        assert McConfig("0.01", "0.01", sample_count_override=100).samples() == 100


class TestDeterminism:
    def test_same_seed_same_estimate(self):
        game = Game(6, (2, 2, 2))
        cfg = McConfig("0.05", "0.1", seed=42)
        a = shapley_mc(game, 0, cfg)
        b = shapley_mc(game, 0, cfg)
        assert a == b

    def test_different_seeds_differ(self):
        game = Game(7, (3, 2, 2, 1, 1))
        a = shapley_mc(game, 0, McConfig("0.05", "0.1", seed=1))
        b = shapley_mc(game, 0, McConfig("0.05", "0.1", seed=2))
        assert a.value != b.value  # would be astonishing otherwise


class TestEstimates:
    def test_value_is_hits_over_samples(self):
        est = shapley_mc(Game(6, (2, 2, 2)), 0, McConfig("0.1", "0.1", seed=0))
        assert 0 <= est.value <= 1
        assert (est.value * est.samples_used).denominator == 1

    def test_dummy_player_estimates_exactly_zero(self):
        game = Game(4, (4, 1, 1))  # player 0 is a dictator, the rest are dummies
        cfg = McConfig("0.05", "0.05", seed=3)
        assert shapley_mc(game, 1, cfg).value == 0
        assert banzhaf_raw_mc(game, 2, cfg).value == 0

    def test_single_player_game_is_exact(self):
        game = Game(3, (3,))
        cfg = McConfig("0.1", "0.1", seed=0, sample_count_override=50)
        assert shapley_mc(game, 0, cfg).value == 1
        assert banzhaf_mc(game, cfg).values == (Fraction(1),)

    def test_normalized_vector_sums_to_one(self):
        game = Game(5, (2, 1, 1, 1, 1))
        vec = banzhaf_mc(game, McConfig("0.05", "0.1", seed=11))
        assert sum(vec.values) == 1
        assert all(0 <= v <= 1 for v in vec.values)

    def test_degenerate_normalization(self):
        # every player critical only when all 19 others show up: one sample
        # per player will miss for almost every seed
        game = Game(20, (1,) * 20)
        cfg = McConfig("0.5", "0.5", seed=1, sample_count_override=1)
        with pytest.raises(DegenerateNormalizationError):
            banzhaf_mc(game, cfg)

    def test_json_reports_contract_parameters(self):
        est = shapley_mc(Game(6, (2, 2, 2)), 0, McConfig("0.1", "0.2", seed=0))
        obj = est.to_json_obj()
        assert obj["samples_used"] == est.samples_used
        assert obj["epsilon"] == "1/10"
        assert obj["delta"] == "1/5"


class TestErrorContract:
    def test_shapley_within_epsilon_for_most_seeds(self):
        game = Game(6, (2, 2, 2))
        exact = shapley_enumerate(game)[0]
        eps = Fraction(1, 20)
        misses = sum(
            abs(shapley_mc(game, 0, McConfig(eps, Fraction(1, 10), seed=s)).value - exact) > eps
            for s in range(100)
        )
        assert misses <= 10 + 6  # delta plus a binomial allowance

    def test_banzhaf_raw_within_epsilon_for_most_seeds(self):
        game = Game(5, (2, 1, 1, 1, 1))
        exact_raw = Fraction(banzhaf_counts_enumerate(game)[0], 2 ** 4)
        eps = Fraction(1, 20)
        misses = sum(
            abs(banzhaf_raw_mc(game, 0, McConfig(eps, Fraction(1, 10), seed=s)).value - exact_raw)
            > eps
            for s in range(100)
        )
        assert misses <= 10 + 6

    def test_normalized_banzhaf_derived_bound(self):
        # when every raw estimate lands within eps, each normalized value is
        # within 2 * eps * n / s of the exact index, s being the true raw sum
        game = Game(5, (2, 1, 1, 1, 1))
        counts = banzhaf_counts_enumerate(game)
        exact_raw = [Fraction(c, 2 ** 4) for c in counts.counts]
        exact_norm = normalize_banzhaf(counts)
        s = sum(exact_raw)
        n = game.num_players
        eps = Fraction(1, 100)
        cfg = McConfig(eps, Fraction(1, 10), seed=7)
        raws = [banzhaf_raw_mc(game, i, cfg) for i in range(n)]
        assert all(abs(r.value - e) <= eps for r, e in zip(raws, exact_raw))
        vec = banzhaf_mc(game, cfg)
        for i in range(n):
            assert abs(vec[i] - exact_norm[i]) <= 2 * eps * n / s


def _game_for(weights, quota_rule, rng):
    total = sum(weights)
    quota = {"one": 1, "total": total, "random": rng.randint(1, total)}[quota_rule]
    return Game(quota, tuple(weights))


def _assert_reference_estimates(game, player, seed, samples):
    cfg = McConfig("0.1", "0.1", seed=seed, sample_count_override=samples)
    shapley, banzhaf = shapley_mc(game, player, cfg), banzhaf_raw_mc(game, player, cfg)
    assert shapley.value == Fraction(shapley_mc_hits(game, player, seed, samples), samples)
    assert banzhaf.value == Fraction(banzhaf_raw_mc_hits(game, player, seed, samples), samples)
    assert shapley.samples_used == banzhaf.samples_used == samples


class TestSameStream:
    """The samplers make exactly the draws of a ``random.shuffle`` per
    ordering and one ``getrandbits(n - 1)`` per coalition, so every seeded
    estimate equals the reference loops' in ``tests/_oracles.py``."""

    @pytest.mark.parametrize("n", range(31))
    def test_shuffles_match_random_shuffle(self, n):
        for seed in range(25):
            ours, theirs = random.Random(seed), random.Random(seed)
            got = [order[:] for order in _shuffles(list(range(n)), ours.getrandbits, 6)]
            expected = []
            items = list(range(n))
            for _ in range(6):
                theirs.shuffle(items)
                expected.append(items[:])
            assert got == expected
            assert ours.getstate() == theirs.getstate()  # the same number of draws

    # n - 1 coalition bits: 0, 7, 8, 9, 16, 17 and 24 (one to four table bytes)
    @pytest.mark.parametrize("n", [1, 8, 9, 10, 17, 18, 25])
    @pytest.mark.parametrize("quota_rule", ["one", "total", "random"])
    def test_estimates_match_the_reference_loops(self, n, quota_rule):
        rng = random.Random(n)
        game = _game_for([rng.randint(1, 40) for _ in range(n)], quota_rule, rng)
        for player in {0, n // 2, n - 1}:
            _assert_reference_estimates(game, player, seed=n, samples=4096 + 37)

    @pytest.mark.parametrize(
        "game, player",
        [
            (Game(20, (10, 10, 10, 1)), 3),  # a dummy player
            (Game(20, (10,) * 9 + (1,)), 9),  # a dummy beside nine table bits
            (Game(12, (12, 3, 4, 5, 1, 2, 3, 4, 5, 6)), 0),  # the quota alone
            (Game(7, (30,) + (2,) * 16), 0),  # heavier than the quota, 16 bits
        ],
    )
    def test_dummy_and_heavy_players(self, game, player):
        _assert_reference_estimates(game, player, seed=7, samples=999)

    @settings(max_examples=40, deadline=None)
    @given(
        weights=st.lists(st.integers(1, 60), min_size=1, max_size=25),
        quota_rule=st.sampled_from(["one", "total", "random"]),
        data=st.data(),
        seed=st.integers(0, 2**64 - 1),
        samples=st.one_of(st.integers(1, 300), st.integers(4090, 4200)),
    )
    def test_estimates_match_the_reference_loops_property(self, weights, quota_rule, data, seed, samples):
        game = _game_for(weights, quota_rule, random.Random(seed))
        player = data.draw(st.integers(0, len(weights) - 1))
        _assert_reference_estimates(game, player, seed, samples)
