"""Exact engines: worked examples, oracle equivalence, and index axioms."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wvg import (
    CriticalCounts,
    Game,
    IndexKind,
    SizeLimitError,
    WvgError,
    banzhaf_counts_dp,
    banzhaf_counts_dp_vector,
    banzhaf_counts_enumerate,
    index,
    normalize_banzhaf,
    shapley_dp,
    shapley_dp_vector,
    shapley_enumerate,
    shapley_pivot_table,
)
from wvg.exact import (
    fraction_to_decimal,
    remove_weight_rows,
    subset_size_weight_counts,
    window_prefix_sums,
)

from _oracles import (
    banzhaf_counts_by_subsets,
    random_game,
    shapley_by_permutations,
    shapley_by_subsets,
)

SH = IndexKind.SHAPLEY_SHUBIK
BZ = IndexKind.BANZHAF

games = st.builds(
    lambda weights, q: Game(1 + q % sum(weights), tuple(weights)),
    st.lists(st.integers(1, 9), min_size=1, max_size=7),
    st.integers(0, 10_000),
)


class TestWorkedExamples:
    def test_three_twos_unanimity(self):
        vec = shapley_enumerate(Game(6, (2, 2, 2)))
        assert vec.values == (Fraction(1, 3),) * 3

    def test_heavy_plus_ones(self):
        game = Game(5, (2, 1, 1, 1, 1))
        assert shapley_enumerate(game)[0] == Fraction(2, 5)
        assert banzhaf_counts_enumerate(game).counts == (5, 3, 3, 3, 3)

    def test_single_heavy_among_ones(self):
        assert shapley_enumerate(Game(6, (5, 1, 1, 1, 1, 1)))[0] == Fraction(5, 6)

    def test_seven_player_annexation_source(self):
        game = Game(11, (6, 5, 1, 1, 1, 1, 1))
        counts = banzhaf_counts_enumerate(game)
        assert counts.counts == (33, 31, 1, 1, 1, 1, 1)
        vec = normalize_banzhaf(counts)
        assert vec[0] == Fraction(33, 69)
        assert fraction_to_decimal(vec[0]).startswith("0.47826")

    def test_merged_game_counts(self):
        counts = banzhaf_counts_dp_vector(Game(9, (2, 1, 1, 1, 6)))
        assert counts.counts == (6, 2, 2, 2, 8)
        assert normalize_banzhaf(counts)[4] == Fraction(8, 20)

    def test_ones_with_double_player(self):
        game = Game(4, (1, 1, 1, 1, 2))
        assert banzhaf_counts_dp(game, 4) == 10
        assert all(banzhaf_counts_dp(game, i) == 4 for i in range(4))
        assert normalize_banzhaf(banzhaf_counts_dp_vector(game))[4] == Fraction(5, 13)

    def test_equal_weight_unanimity_family(self):
        for n in range(2, 9):
            vec = shapley_dp_vector(Game(2 * n, (2,) * n))
            assert vec.values == (Fraction(1, n),) * n

    def test_dispatcher_examples(self):
        assert index(Game(4, (2, 2, 2)), SH).values == (Fraction(1, 3),) * 3
        vec = index(Game(4, (2, 2, 1, 1)), BZ)
        assert vec[2] == vec[3] == Fraction(1, 6)
        # unanimity forces uniformity for either kind
        assert index(Game(10, (4, 3, 3)), BZ).values == (Fraction(1, 3),) * 3


class TestNormalization:
    def test_example(self):
        vec = normalize_banzhaf(CriticalCounts((5, 3, 3, 3, 3)))
        assert vec.values == (
            Fraction(5, 17),
            Fraction(3, 17),
            Fraction(3, 17),
            Fraction(3, 17),
            Fraction(3, 17),
        )

    def test_single_non_dummy(self):
        assert normalize_banzhaf(CriticalCounts((7, 0, 0))).values == (1, 0, 0)

    def test_all_zero_rejected(self):
        with pytest.raises(WvgError, match="zero"):
            normalize_banzhaf(CriticalCounts((0, 0, 0)))


class TestEnumerationLimit:
    def test_oversized_game_refused(self):
        game = Game(14, (1,) * 14)
        with pytest.raises(SizeLimitError, match="dynamic-programming"):
            shapley_enumerate(game)
        with pytest.raises(SizeLimitError):
            banzhaf_counts_enumerate(game)
        # the dispatcher routes it to the DP instead
        assert index(game, SH).values == (Fraction(1, 14),) * 14


class TestPermutationFormAgreement:
    """The subset-size weighting must equal literal permutation counting."""

    @pytest.mark.parametrize("n", range(2, 8))
    def test_random_game_each_size(self, n):
        rng = random.Random(100 + n)
        for _ in range(3):
            game = random_game(rng, max_players=n, max_weight=9, min_players=n)
            by_perm = shapley_by_permutations(game)
            by_sub = shapley_by_subsets(game)
            assert by_perm == by_sub
            assert shapley_enumerate(game).values == tuple(by_perm)

    def test_eight_players_once(self):
        game = Game(9, (3, 3, 2, 2, 1, 1, 1, 4))
        assert shapley_enumerate(game).values == tuple(shapley_by_permutations(game))


class TestOracleEquivalence:
    @given(games)
    @settings(max_examples=80, deadline=None)
    def test_dp_equals_enumeration(self, game):
        assert shapley_dp_vector(game) == shapley_enumerate(game)
        assert banzhaf_counts_dp_vector(game) == banzhaf_counts_enumerate(game)

    @given(games)
    @settings(max_examples=40, deadline=None)
    def test_against_naive_oracles(self, game):
        assert list(shapley_enumerate(game).values) == shapley_by_subsets(game)
        assert list(banzhaf_counts_enumerate(game).counts) == banzhaf_counts_by_subsets(game)

    def test_pivot_table_reproduces_value(self):
        game = Game(5, (2, 1, 1, 1, 1))
        table = shapley_pivot_table(game, 0)
        assert table.counts_by_size == (0, 0, 0, 4, 1)
        assert table.value() == shapley_dp(game, 0) == Fraction(2, 5)

    def test_larger_games_up_to_the_enumeration_limit(self):
        rng = random.Random(31)
        for _ in range(30):
            game = random_game(rng, max_players=12, max_weight=30, min_players=10)
            assert shapley_dp_vector(game) == shapley_enumerate(game)
            assert banzhaf_counts_dp_vector(game) == banzhaf_counts_enumerate(game)


class TestCountingTables:
    @given(games)
    @settings(max_examples=80, deadline=None)
    def test_remove_weight_rows_inverts_adding_a_player(self, game):
        q = game.quota
        rows = subset_size_weight_counts(game.weights, q)
        for p, w in enumerate(game.weights):
            others = [x for i, x in enumerate(game.weights) if i != p]
            removed = list(remove_weight_rows(rows, w, q))
            expected = subset_size_weight_counts(others, q)
            assert len(removed) == len(expected)
            assert [r[:q] for r in removed] == [r[:q] for r in expected]

    @given(st.lists(st.integers(0, 50), min_size=1, max_size=30), st.data())
    @settings(max_examples=80, deadline=None)
    def test_window_prefix_sums(self, vec, data):
        hi = data.draw(st.integers(0, len(vec) - 1))
        lo = data.draw(st.integers(-40, hi))
        expected = [sum(vec[:x + 1]) if x >= 0 else 0 for x in range(lo, hi + 1)]
        assert window_prefix_sums(vec, lo, hi) == expected


class TestIndexAxioms:
    @given(games, st.sampled_from([SH, BZ]))
    @settings(max_examples=60, deadline=None)
    def test_normalized_and_bounded(self, game, kind):
        vec = index(game, kind)
        assert sum(vec.values) == 1
        assert all(0 <= v <= 1 for v in vec.values)

    @given(games, st.sampled_from([SH, BZ]))
    @settings(max_examples=60, deadline=None)
    def test_symmetry(self, game, kind):
        vec = index(game, kind)
        for i in range(game.num_players):
            for j in range(game.num_players):
                if game.weights[i] == game.weights[j]:
                    assert vec[i] == vec[j]

    @given(games)
    @settings(max_examples=60, deadline=None)
    def test_dummy_agreement(self, game):
        sh = index(game, SH)
        counts = banzhaf_counts_dp_vector(game)
        for i in range(game.num_players):
            assert (sh[i] == 0) == (counts[i] == 0)

    @given(games, st.integers(2, 5), st.sampled_from([SH, BZ]))
    @settings(max_examples=60, deadline=None)
    def test_scale_invariance(self, game, c, kind):
        scaled = Game(c * game.quota, tuple(c * w for w in game.weights))
        assert index(scaled, kind) == index(game, kind)

    @given(games, st.sampled_from([SH, BZ]))
    @settings(max_examples=40, deadline=None)
    def test_veto_uniformity(self, game, kind):
        unanimity = Game(game.total_weight(), game.weights)
        n = game.num_players
        assert index(unanimity, kind).values == (Fraction(1, n),) * n


class TestSerialization:
    def test_json_fields_exact_and_display(self):
        vec = index(Game(5, (2, 1, 1, 1, 1)), BZ)
        entries = vec.to_json_obj()
        assert entries[0] == {
            "player": 0,
            "numerator": 5,
            "denominator": 17,
            "decimal": fraction_to_decimal(Fraction(5, 17)),
        }
        assert fraction_to_decimal(Fraction(1, 3)) == "0.333333333333333"

    def test_decimal_is_fifteen_significant_digits(self):
        assert fraction_to_decimal(Fraction(2, 3)) == "0.666666666666667"
        assert fraction_to_decimal(Fraction(1, 1)) == "1"
