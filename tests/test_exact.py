"""Exact engines: worked examples, oracle equivalence, and index axioms."""

import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wvg import (
    DEFAULT_ENUMERATION_LIMIT,
    CriticalCounts,
    Game,
    IndexKind,
    ResourceLimitError,
    SplitSpec,
    WvgError,
    apply_merge,
    banzhaf_counts_dp_vector,
    banzhaf_counts_enumerate,
    check_split_bounds,
    critical_counts,
    high_quota_split_recommendation,
    index,
    normalize_banzhaf,
    shapley_dp_vector,
    shapley_enumerate,
)
from wvg import exact
from wvg.exact import (
    bloc_value,
    fraction_to_decimal,
    game_table,
    remove_weight,
    subset_size_weight_counts,
    subset_weight_counts,
    tail,
    window_count,
    without,
)

from _engines import refuse_enumeration, route_to_enumeration
from _oracles import (
    banzhaf_by_subsets,
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
        counts = banzhaf_counts_dp_vector(game)
        assert counts[4] == 10
        assert all(counts[i] == 4 for i in range(4))
        assert normalize_banzhaf(counts)[4] == Fraction(5, 13)

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
        with pytest.raises(ResourceLimitError, match="dynamic-programming"):
            shapley_enumerate(game)
        with pytest.raises(ResourceLimitError):
            banzhaf_counts_enumerate(game)
        # past the enumeration limit, index reads the game's counting table
        assert index(game, SH).values == (Fraction(1, 14),) * 14


@st.composite
def games_up_to_the_limit(draw):
    """1-12 players of weight 1..30 (quota 1, the largest weight, the total or
    random), one player and, for weight 2 or more, a two-way split of it."""
    weights = draw(st.lists(st.integers(1, 30), min_size=1, max_size=DEFAULT_ENUMERATION_LIMIT))
    quota = draw(st.sampled_from((1, max(weights), sum(weights))) | st.integers(1, sum(weights)))
    player = draw(st.integers(0, len(weights) - 1))
    w = weights[player]
    spec = SplitSpec(player, (j := draw(st.integers(1, w // 2)), w - j)) if w >= 2 else None
    return Game(quota, tuple(weights)), player, spec


def _table_sizes(game):
    """Bits of the tables ``index`` builds: the size table, then the count vector."""
    builds = (subset_size_weight_counts, subset_weight_counts)
    tables = [build(game.weights, game.quota) for build in builds]
    return [t.cap * t.stride * t.bits for t in tables]


class TestEngineChoice:
    """``index`` and ``critical_counts`` read the game's counting table, except
    for a game of up to the enumeration limit whose table holds more than
    ``TABLE_BITS_PER_COALITION`` bits per coalition: that game is enumerated."""

    @staticmethod
    def answers(game, player, spec):
        return (
            index(game, SH),
            index(game, BZ),
            critical_counts(game),
            spec and check_split_bounds(game, player, spec),
            high_quota_split_recommendation(game, player),
        )

    @given(games_up_to_the_limit())
    @settings(max_examples=60, deadline=None)
    @example((Game(18, (5, 5, 5, 5, 4)), 4, SplitSpec(4, (2, 2))))  # a recommended split
    @example((Game(3, (5,)), 0, SplitSpec(0, (2, 3))))
    def test_table_and_enumeration_answer_alike(self, case):
        with pytest.MonkeyPatch.context() as mp:
            route_to_enumeration(mp)
            enumerated = self.answers(*case)
        assert self.answers(*case) == enumerated
        with pytest.MonkeyPatch.context() as mp:
            refuse_enumeration(mp)
            assert self.answers(*case) == enumerated
        game = case[0]
        assert list(enumerated[0].values) == shapley_by_subsets(game)
        assert list(enumerated[2].counts) == banzhaf_counts_by_subsets(game)

    def test_a_recommended_split_reads_the_count(self):
        assert high_quota_split_recommendation(Game(18, (5, 5, 5, 5, 4)), 4) == SplitSpec(4, (2, 2))

    @given(games_up_to_the_limit())
    @settings(max_examples=40, deadline=None)
    def test_enumerated_above_the_bits_per_coalition(self, case):
        game = case[0]
        n = game.num_players
        expected = [index(game, SH), critical_counts(game), index(game, BZ)]
        enumerated, pivots = [], exact._enumerated_pivots

        def counted(g):
            enumerated.append(g)
            return pivots(g)

        def reads(sh_per_coalition, bz_per_coalition):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(exact, "_enumerated_pivots", counted)
                mp.setattr(exact, "TABLE_BITS_PER_COALITION", sh_per_coalition)
                got = [index(game, SH)]
                mp.setattr(exact, "TABLE_BITS_PER_COALITION", bz_per_coalition)
                return got + [critical_counts(game), index(game, BZ)]

        sh_bits, bz_bits = _table_sizes(game)
        assert reads(sh_bits >> n, bz_bits >> n) == expected
        assert enumerated == []
        assert reads((sh_bits >> n) - 1, (bz_bits >> n) - 1) == expected
        assert enumerated == [game] * 3

    def test_large_weights_are_enumerated(self, monkeypatch):
        """Five players whose tables fit but hold over 10^6 bits per coalition:
        enumeration is far cheaper than the table."""
        game = Game(2_000_000, (1_000_000, 900_000, 800_000, 700_000, 600_000))
        expected = [shapley_by_subsets(game), banzhaf_counts_by_subsets(game)]
        assert max(_table_sizes(game)) <= exact.TABLE_BITS_LIMIT
        monkeypatch.setattr(exact, "shapley_dp_vector", None)
        monkeypatch.setattr(exact, "banzhaf_counts_dp_vector", None)
        assert [list(index(game, SH).values), list(critical_counts(game).counts)] == expected

    def test_every_refused_table_up_to_the_limit_is_enumerated(self):
        refused = exact.TABLE_BITS_LIMIT + 1
        assert refused >> DEFAULT_ENUMERATION_LIMIT > exact.TABLE_BITS_PER_COALITION

    def test_a_refused_table_past_the_limit_stands(self, monkeypatch):
        game = Game(20, (3,) * 12 + (4,))
        assert game.num_players == DEFAULT_ENUMERATION_LIMIT + 1
        sh_bits, bz_bits = _table_sizes(game)
        for bits, reads in ((sh_bits, [lambda: index(game, SH)]),
                            (bz_bits, [lambda: critical_counts(game), lambda: index(game, BZ)])):
            monkeypatch.setattr(exact, "TABLE_BITS_LIMIT", bits - 1)
            for read in reads:
                with pytest.raises(ResourceLimitError, match=f"TABLE_BITS_LIMIT = {bits - 1}"):
                    read()


class TestTableLimit:
    """Every counting table is checked against ``TABLE_BITS_LIMIT`` where it is allocated."""

    @pytest.mark.parametrize("kind", [SH, BZ])
    def test_limit_admits_a_table_of_exactly_its_size(self, monkeypatch, kind):
        game = Game(7, (3, 2, 2, 1, 1))
        table = game_table(game, kind)
        first = table if kind is SH else table[0]
        size = first.cap * first.stride * first.bits
        monkeypatch.setattr(exact, "TABLE_BITS_LIMIT", size)
        assert game_table(game, kind) == table
        monkeypatch.setattr(exact, "TABLE_BITS_LIMIT", size - 1)
        with pytest.raises(ResourceLimitError) as refused:
            game_table(game, kind)
        assert f"({size} bits)" in str(refused.value)
        assert f"TABLE_BITS_LIMIT = {size - 1}" in str(refused.value)

    def test_huge_quota_past_the_enumeration_limit_is_refused(self):
        # 13 players of weight 10^11: a table of 10^12 cells, which no memory holds
        game = Game(10**12, (10**11,) * 12 + (10**11 + 1,))
        for kind in (SH, BZ):
            with pytest.raises(ResourceLimitError, match="TABLE_BITS_LIMIT"):
                index(game, kind)


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
        table = subset_size_weight_counts(game.weights, game.quota)
        # sizes 0..5; no size-5 coalition of the four others exists
        pivots = window_count(remove_weight(table, 2), 2)
        assert pivots == [0, 0, 0, 4, 1, 0]
        assert bloc_value(game, [0], SH, table) == Fraction(2, 5)
        # the bloc {0, 1} of weight 3: sizes 1..2 of the three other 1s reach [2, 4]
        bloc_table = remove_weight(remove_weight(table, 2), 1)
        assert window_count(bloc_table, 3) == [0, 0, 3, 1, 0, 0]
        merged = apply_merge(game, [0, 1])
        assert bloc_value(game, [0, 1], SH, table) == Fraction(1, 2)
        assert shapley_by_subsets(merged.game)[merged.merged_player] == Fraction(1, 2)

    def test_larger_games_up_to_the_enumeration_limit(self):
        rng = random.Random(31)
        for _ in range(30):
            game = random_game(rng, max_players=12, max_weight=30, min_players=10)
            assert shapley_dp_vector(game) == shapley_enumerate(game)
            assert banzhaf_counts_dp_vector(game) == banzhaf_counts_enumerate(game)


@st.composite
def games_above_the_limit(draw):
    """13-14 players of weight 1..9 (quota 1, the largest weight, the total or
    random) and a nonempty set of players."""
    weights = draw(st.lists(st.integers(1, 9), min_size=13, max_size=14))
    quota = draw(st.sampled_from((1, max(weights), sum(weights))) | st.integers(1, sum(weights)))
    players = draw(st.sets(st.integers(0, len(weights) - 1), min_size=1))
    return Game(quota, tuple(weights)), players


class TestNamedPlayerValues:
    @given(games_above_the_limit())
    @settings(max_examples=20, deadline=None)
    def test_match_the_vector_and_the_oracle(self, case):
        game, players = case
        assert game.num_players > DEFAULT_ENUMERATION_LIMIT
        table = game_table(game, SH)
        values = {p: bloc_value(game, [p], SH, table) for p in players}
        vector = shapley_dp_vector(game)
        oracle = shapley_by_subsets(game)
        assert values == {p: vector[p] for p in players}
        assert values == {p: oracle[p] for p in players}

    @given(games_above_the_limit(), st.sampled_from([SH, BZ]))
    @settings(max_examples=10, deadline=None)
    def test_bloc_matches_the_oracle_on_the_merged_game(self, case, kind):
        game, players = case
        merged = apply_merge(game, players)
        oracle = shapley_by_subsets if kind is SH else banzhaf_by_subsets
        value = bloc_value(game, players, kind, game_table(game, kind))
        assert value == oracle(merged.game)[merged.merged_player]


weight_lists = st.lists(st.integers(1, 12), max_size=7)


def size_rows(table):
    """rows[k][x] of a size-by-weight table, read over its full width."""
    cells = tail(table, table.cap)
    return [list(cells[k :: table.stride]) for k in range(table.stride)]


def vectors(pair):
    """Both vectors of a Banzhaf pair, read over their full width."""
    return [list(tail(v, v.cap)) for v in pair]


def subset_vectors(weights, cap):
    """A and B by brute force: subsets with weight at most x, and their summed sizes."""
    subsets = [c for r in range(len(weights) + 1) for c in combinations(weights, r)]
    return [
        [sum(sum(c) <= x for c in subsets) for x in range(cap)],
        [sum(len(c) for c in subsets if sum(c) <= x) for x in range(cap)],
    ]


class TestCountingTables:
    @given(weight_lists, st.integers(1, 30))
    @example([1, 3, 5], 1)
    @example([4, 9, 2], 4)
    @settings(max_examples=80, deadline=None)
    def test_builders_count_subsets_up_to_each_weight(self, weights, cap):
        subsets = [
            [weights[i] for i in range(len(weights)) if mask >> i & 1]
            for mask in range(1 << len(weights))
        ]
        flat = list(tail(subset_weight_counts(weights, cap), cap))
        rows = size_rows(subset_size_weight_counts(weights, cap))
        assert flat == [sum(sum(s) <= x for s in subsets) for x in range(cap)]
        assert rows == [
            [sum(len(s) == k and sum(s) <= x for s in subsets) for x in range(cap)]
            for k in range(len(weights) + 1)
        ]

    @given(weight_lists, st.integers(1, 12), st.integers(1, 30))
    @example([4, 2], 9, 4)
    @settings(max_examples=80, deadline=None)
    def test_remove_weight_inverts_adding_a_player(self, others, w, cap):
        vec = subset_weight_counts(others + [w], cap)
        rebuilt = subset_weight_counts(others, cap)
        assert list(tail(remove_weight(vec, w), cap)) == list(tail(rebuilt, cap))

    @given(games)
    @settings(max_examples=80, deadline=None)
    def test_size_table_removal_inverts_adding_a_player(self, game):
        q = game.quota
        table = subset_size_weight_counts(game.weights, q)
        zero = [0] * q
        for p, w in enumerate(game.weights):
            others = [x for i, x in enumerate(game.weights) if i != p]
            rebuilt = size_rows(subset_size_weight_counts(others, q))
            assert size_rows(remove_weight(table, w)) == rebuilt + [zero]
        first, *rest = game.weights
        if rest:
            # chained, in either order
            remaining = size_rows(subset_size_weight_counts(rest[1:], q)) + [zero, zero]
            assert size_rows(remove_weight(remove_weight(table, first), rest[0])) == remaining
            assert size_rows(remove_weight(remove_weight(table, rest[0]), first)) == remaining

    @given(games)
    @settings(max_examples=80, deadline=None)
    def test_chained_removals_in_either_order_leave_the_other_players(self, game):
        first, *rest = game.weights
        if not rest:
            return
        table = game_table(game, BZ)
        assert vectors(without(table, [first])) == subset_vectors(rest, game.quota)
        remaining = subset_vectors(rest[1:], game.quota)
        for order in ([first, rest[0]], [rest[0], first]):
            assert vectors(without(table, order)) == remaining

    def test_windows_reaching_below_weight_zero(self):
        table = subset_weight_counts([2, 3], 4)  # plain counts 1, 0, 1, 1
        assert list(tail(table, 4)) == [1, 1, 2, 3]
        assert list(tail(table, 3)) == [1, 2, 3]
        assert list(tail(table, 6)) == [0, 0, 1, 1, 2, 3]
        assert window_count(table, 2) == [2]  # weights 2 and 3
        assert window_count(table, 4) == [3]  # weights 0 .. 3
        assert window_count(table, 7) == [3]
        sized = subset_size_weight_counts([2, 3], 4)  # sizes 0, 1, 2 at each weight
        assert list(tail(sized, 6)) == [0] * 6 + [1, 0, 0] * 2 + [1, 1, 0, 1, 2, 0]
        assert window_count(sized, 2) == [0, 2, 0]
        assert window_count(sized, 7) == [1, 2, 0]


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
