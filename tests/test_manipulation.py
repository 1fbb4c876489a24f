"""Split scans, merges, annexations, bound checks, and gadget constructions."""

import pickle
import random
from collections.abc import Sequence
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wvg import (
    Classification,
    Engine,
    GadgetVariant,
    Game,
    IndexKind,
    InvalidConfigError,
    InvalidMergeError,
    InvalidSplitError,
    McConfig,
    ResourceLimitError,
    SplitSpec,
    annex_benefit,
    annex_monotonicity_probe,
    apply_merge,
    apply_split,
    check_split_bounds,
    find_split_approx,
    high_quota_split_recommendation,
    merge_benefit,
    reduction_gadget,
    scan_game,
    scan_k_way_splits,
    scan_two_way_splits,
    unanimity_split_recommendation,
)
from wvg import exact, manipulation
from wvg.exact import game_table

from _oracles import banzhaf_by_subsets, banzhaf_counts_by_subsets, shapley_by_subsets
from _strategies import edge_games, mean_200_games

SH = IndexKind.SHAPLEY_SHUBIK
BZ = IndexKind.BANZHAF

games = st.builds(
    lambda weights, q: Game(1 + q % sum(weights), tuple(weights)),
    st.lists(st.integers(1, 9), min_size=2, max_size=7),
    st.integers(0, 10_000),
)


@st.composite
def k_way_cases(draw):
    """A game of up to 7 players (quota 1, the largest weight, the total or random) and a player."""
    weights = draw(st.lists(st.integers(1, 9), min_size=1, max_size=7))
    quota = draw(st.sampled_from((1, max(weights), sum(weights))) | st.integers(1, sum(weights)))
    return Game(quota, tuple(weights)), draw(st.integers(0, len(weights) - 1))


class TestTwoWayScan:
    def test_unanimity_gain(self):
        for kind in (SH, BZ):
            summary = scan_two_way_splits(Game(6, (2, 2, 2)), 2, kind)
            assert summary.total_splits == summary.beneficial == 1
            report = summary.reports[0]
            assert report.spec.parts == (1, 1)
            assert report.gain_ratio == Fraction(3, 2)
            assert summary.best == report

    def test_tight_quota_loss(self):
        sh = scan_two_way_splits(Game(5, (2, 2, 2)), 2, SH)
        bz = scan_two_way_splits(Game(5, (2, 2, 2)), 2, BZ)
        assert sh.harmful == 1 and sh.reports[0].gain_ratio == Fraction(1, 2)
        assert bz.harmful == 1 and bz.reports[0].gain_ratio == Fraction(3, 4)

    def test_opposite_classifications(self):
        game = Game(5, (2, 1, 1, 1, 1))
        sh = scan_two_way_splits(game, 0, SH).reports[0]
        bz = scan_two_way_splits(game, 0, BZ).reports[0]
        assert (sh.payoff_before, sh.payoff_after_total) == (Fraction(2, 5), Fraction(1, 3))
        assert (bz.payoff_before, bz.payoff_after_total) == (Fraction(5, 17), Fraction(1, 3))
        assert sh.classification is Classification.HARMFUL
        assert bz.classification is Classification.BENEFICIAL

    def test_weight_one_player_has_no_candidates(self):
        summary = scan_two_way_splits(Game(3, (1, 2)), 0, SH)
        assert summary.total_splits == 0
        assert summary.best is None

    def test_counts_partition_total(self):
        summary = scan_two_way_splits(Game(17, (9, 4, 3, 2)), 0, SH)
        assert summary.total_splits == 4
        assert summary.beneficial + summary.harmful + summary.neutral == 4

    def test_best_maximizes_after_total(self):
        summary = scan_two_way_splits(Game(17, (9, 4, 3, 2)), 0, BZ)
        assert summary.best.payoff_after_total == max(
            r.payoff_after_total for r in summary.reports
        )

    def test_dummy_splits_stay_worthless(self):
        game = Game(4, (4, 2))  # player 1 is a dummy
        summary = scan_two_way_splits(game, 1, SH)
        assert summary.neutral == summary.total_splits == 1
        report = summary.reports[0]
        assert report.payoff_before == report.payoff_after_total == 0
        assert report.gain_ratio is None

    def test_csv_rows(self):
        csv = scan_two_way_splits(Game(6, (2, 2, 2)), 2, SH).to_csv()
        lines = csv.strip().splitlines()
        assert lines[0] == "player,j,before,after,class"
        assert lines[1] == "2,1+1,1/3,1/2,beneficial"

    @given(games, st.data(), st.sampled_from([SH, BZ]))
    @settings(max_examples=40, deadline=None)
    def test_agrees_with_naive_oracle(self, game, data, kind):
        player = data.draw(st.integers(0, game.num_players - 1))
        oracle = shapley_by_subsets if kind is SH else banzhaf_by_subsets
        before = oracle(game)[player]
        summary = scan_two_way_splits(game, player, kind)
        w = game.weights[player]
        assert summary.total_splits == w // 2
        for report in summary.reports:
            j = report.spec.parts[0]
            split = Game(
                game.quota,
                tuple(x for i, x in enumerate(game.weights) if i != player) + (j, w - j),
            )
            vals = oracle(split)
            assert report.payoff_before == before
            assert report.payoff_after_total == vals[-1] + vals[-2]


class TestBanzhafTableWork:
    """The Banzhaf table is built for the whole game without removals, and a
    player scan takes the player out of its two vectors: two removals."""

    GAMES = [
        Game(1, (3,)),
        Game(17, (9, 4, 3, 2)),
        Game(40, (12, 12, 7, 5, 5, 3, 1)),
        Game(9, (8, 8, 1, 2)),
    ]

    @staticmethod
    def _count_removals(monkeypatch):
        calls = []
        original = exact.remove_weight

        def counting(*args):
            calls.append(args[1])
            return original(*args)

        monkeypatch.setattr(exact, "remove_weight", counting)
        return calls

    @pytest.mark.parametrize("game", GAMES, ids=str)
    def test_game_scan_removes_each_player_twice(self, monkeypatch, game):
        calls = self._count_removals(monkeypatch)
        table = game_table(game, BZ)
        assert calls == []
        for player, w in enumerate(game.weights):
            scan_two_way_splits(game, player, BZ, table=table)
            assert calls == [w, w]
            calls.clear()

    @pytest.mark.parametrize("game", GAMES, ids=str)
    def test_single_player_scan_builds_one_profile(self, monkeypatch, game):
        calls = self._count_removals(monkeypatch)
        for player in range(game.num_players):
            calls.clear()
            scan_two_way_splits(game, player, BZ)
            assert len(calls) == 2


@st.composite
def banzhaf_games(draw):
    """Games of 1-8 players, weights 1-20, quota 1, the largest weight, the total or random."""
    weights = draw(st.lists(st.integers(1, 20), min_size=1, max_size=8))
    quota = draw(st.sampled_from((1, max(weights), sum(weights))) | st.integers(1, sum(weights)))
    return Game(quota, tuple(weights))


@given(banzhaf_games())
@settings(max_examples=150, deadline=None)
@example(Game(1, (3,)))
@example(Game(5, (7, 2, 5)))
def test_banzhaf_table_counts_every_swing(game):
    """A counts and B sums the sizes of the subsets up to each weight; n A(q-1) - 2 B(q-1)
    is the total swing count."""
    a, b = game_table(game, BZ)
    q = game.quota
    vec = exact.subset_weight_counts(game.weights, q)
    assert list(exact.tail(a, q)) == list(exact.tail(vec, q))
    subsets = [
        sub for r in range(game.num_players + 1) for sub in combinations(game.weights, r)
    ]
    assert list(exact.tail(a, q)) == [sum(sum(sub) <= x for sub in subsets) for x in range(q)]
    assert list(exact.tail(b, q)) == [
        sum(len(sub) for sub in subsets if sum(sub) <= x) for x in range(q)
    ]
    [top_a], [top_b] = exact.tail(a, 1), exact.tail(b, 1)
    assert game.num_players * top_a - 2 * top_b == sum(banzhaf_counts_by_subsets(game))


GAME_16 = Game(70, (12, 11, 10, 9, 9, 8, 8, 7, 7, 6, 5, 5, 4, 3, 2, 1))


class TestShapleyTablesPerQuery:
    """A Shapley-Shubik query builds one size-by-weight table of the game and
    no merged or split game's table, never one per player or per target."""

    GAME = GAME_16

    @pytest.fixture
    def tables(self, monkeypatch):
        sizes = []
        original = exact.subset_size_weight_counts

        def counting(weights, cap):
            sizes.append(len(weights))
            return original(weights, cap)

        monkeypatch.setattr(exact, "subset_size_weight_counts", counting)
        return sizes

    def test_merge_of_three(self, tables):
        merge_benefit(self.GAME, {0, 5, 9}, SH)
        assert tables == [16]

    def test_split_bounds(self, tables):
        check_split_bounds(self.GAME, 3, SplitSpec(3, (5, 4)))
        assert tables == [16]

    def test_annex(self, tables):
        annex_benefit(self.GAME, 0, {4, 7}, SH)
        assert tables == [16]

    def test_probe(self, tables):
        assert annex_monotonicity_probe(self.GAME, 2, SH) == []
        assert tables == [16]


class TestBanzhafTablesPerQuery:
    """A Banzhaf merge, annexation or probe builds one (A, B) table of the
    game and no count vector of any game."""

    GAME = GAME_16

    @pytest.fixture
    def tables(self, monkeypatch):
        kinds = []
        original = manipulation.game_table

        def counting(game, kind):
            kinds.append((game, kind))
            return original(game, kind)

        def refused(*args):
            raise AssertionError("a count vector was built")

        monkeypatch.setattr(manipulation, "game_table", counting)
        monkeypatch.setattr(exact, "subset_weight_counts", refused)
        monkeypatch.setattr(exact, "banzhaf_counts_enumerate", refused)
        return kinds

    def test_merge_of_three(self, tables):
        merge_benefit(self.GAME, {0, 5, 9}, BZ)
        assert tables == [(self.GAME, BZ)]

    def test_annex(self, tables):
        annex_benefit(self.GAME, 0, {4, 7}, BZ)
        assert tables == [(self.GAME, BZ)]

    def test_probe(self, tables):
        annex_monotonicity_probe(self.GAME, 2, BZ)
        assert tables == [(self.GAME, BZ)]


@st.composite
def bloc_cases(draw):
    """A game of up to 8 players (quota 1, the largest weight, the total or
    random), a bloc of at least two players and an annexer with a nonempty
    coalition of others."""
    weights = draw(st.lists(st.integers(1, 9), min_size=2, max_size=8))
    quota = draw(st.sampled_from((1, max(weights), sum(weights))) | st.integers(1, sum(weights)))
    n = len(weights)
    bloc = draw(st.sets(st.integers(0, n - 1), min_size=2))
    annexer = draw(st.integers(0, n - 1))
    others = st.integers(0, n - 1).filter(lambda p: p != annexer)
    return Game(quota, tuple(weights)), bloc, annexer, draw(st.sets(others, min_size=1))


@given(bloc_cases(), st.sampled_from([SH, BZ]))
@settings(max_examples=120, deadline=None)
@example((Game(3, (1, 1, 1)), {0, 1, 2}, 0, {1, 2}), SH)  # every player merged
@example((Game(3, (1, 1, 1)), {0, 1, 2}, 0, {1, 2}), BZ)
@example((Game(4, (3, 3, 1, 1)), {0, 1}, 2, {0, 3}), SH)  # blocs heavier than the quota
@example((Game(4, (3, 3, 1, 1)), {0, 1}, 2, {0, 3}), BZ)
@example((Game(1, (2, 5, 1)), {1, 2}, 1, {0}), BZ)
def test_blocs_match_the_oracle_on_merged_games(case, kind):
    """Merge, annex and probe values equal the oracle on ``apply_merge``'d games."""
    game, bloc, annexer, annexed = case
    oracle = shapley_by_subsets if kind is SH else banzhaf_by_subsets

    def merged_value(members):
        outcome = apply_merge(game, members)
        return oracle(outcome.game)[outcome.merged_player]

    values = oracle(game)
    merge = merge_benefit(game, bloc, kind)
    assert merge.payoff_before_total == sum(values[p] for p in bloc)
    assert merge.payoff_after == merged_value(bloc)
    annex = annex_benefit(game, annexer, annexed, kind)
    assert annex.payoff_before == values[annexer]
    assert annex.payoff_after == merged_value(annexed | {annexer})
    after = {j: merged_value({annexer, j}) for j in range(game.num_players) if j != annexer}
    assert annex_monotonicity_probe(game, annexer, kind) == [
        (annexer, j, k)
        for j in sorted(after)
        for k in sorted(after)
        if game.weights[j] > game.weights[k] and after[j] < after[k]
    ]


class TestKWayScan:
    def test_two_heavy_two_way_truth(self):
        # direct enumeration: the remaining heavy player is pivotal in 4 of 6
        # orderings, so both two-way splits land at 1/3 total, a 2/3 ratio
        summary = scan_k_way_splits(Game(6, (5, 5)), 1, 2, SH)
        assert summary.total_splits == 2
        assert summary.harmful == 2
        assert {r.spec.parts for r in summary.reports} == {(4, 1), (3, 2)}
        assert all(r.gain_ratio == Fraction(2, 3) for r in summary.reports)

    def test_five_way_collapse(self):
        summary = scan_k_way_splits(Game(6, (5, 5)), 1, 5, SH)
        assert summary.total_splits == 1
        report = summary.reports[0]
        assert report.spec.parts == (1, 1, 1, 1, 1)
        assert report.payoff_after_total == Fraction(1, 6)
        assert report.gain_ratio == Fraction(1, 3)
        assert report.classification is Classification.HARMFUL

    def test_n_way_exponential_loss(self):
        summary = scan_k_way_splits(Game(7, (6, 6)), 1, 6, SH)
        report = summary.reports[0]
        assert report.payoff_before == Fraction(1, 2)
        assert report.payoff_after_total == Fraction(1, 7)
        assert report.gain_ratio == Fraction(2, 7)

    @pytest.mark.parametrize("kind", [SH, BZ], ids=["shapley", "banzhaf"])
    def test_matches_two_way_scanner_at_k2(self, kind):
        game = Game(17, (9, 4, 3, 2))
        two = scan_two_way_splits(game, 0, kind)
        kway = scan_k_way_splits(game, 0, 2, kind)
        assert {(r.spec.parts if r.spec.parts[0] >= r.spec.parts[1] else r.spec.parts[::-1],
                 r.payoff_after_total) for r in two.reports} == {
            (r.spec.parts, r.payoff_after_total) for r in kway.reports
        }

    @given(k_way_cases(), st.sampled_from([2, 3, 4]), st.sampled_from([SH, BZ]))
    @example((Game(6, (5, 5)), 1), 3, SH)
    @example((Game(9, (8, 8, 1, 2)), 3), 2, BZ)
    @example((Game(23, (9, 7, 7)), 0), 4, BZ)
    @example((Game(1, (4, 1, 9)), 2), 4, SH)
    @settings(max_examples=30, deadline=None)
    def test_agrees_with_split_game_oracle(self, case, k, kind):
        game, player = case
        oracle = shapley_by_subsets if kind is SH else banzhaf_by_subsets
        summary = scan_k_way_splits(game, player, k, kind)
        before = oracle(game)[player]
        w = game.weights[player]
        assert all(sum(r.spec.parts) == w and len(r.spec.parts) == k for r in summary.reports)
        for report in summary.reports:
            outcome = apply_split(game, report.spec)
            vals = oracle(outcome.game)
            assert report.payoff_before == before
            assert report.payoff_after_total == sum(vals[p] for p in outcome.new_players)

    @pytest.mark.parametrize("kind", [SH, BZ], ids=["shapley", "banzhaf"])
    def test_never_rebuilds_the_game(self, monkeypatch, kind):
        calls = []
        # exact values come from the game table alone: no index, no merged game
        assert not hasattr(manipulation, "index") and not hasattr(manipulation, "apply_merge")
        for name in ("apply_split", "critical_counts"):
            monkeypatch.setattr(manipulation, name, lambda *args, _name=name: calls.append(_name))
        summary = scan_k_way_splits(Game(40, (12, 12, 7, 5, 5, 3, 1)), 0, 3, kind)
        assert summary.total_splits == 12
        assert calls == []

    def test_small_weight_yields_nothing(self):
        assert scan_k_way_splits(Game(3, (2, 2)), 0, 3, SH).total_splits == 0

    def test_k_guard(self):
        with pytest.raises(InvalidSplitError):
            scan_k_way_splits(Game(6, (5, 5)), 1, 7, SH)
        with pytest.raises(InvalidSplitError):
            scan_k_way_splits(Game(6, (5, 5)), 1, 1, SH)


@st.composite
def scan_cases(draw):
    """An edge-case game or a study-like mean-200 game of at most 10 players, and a player."""
    game = draw(edge_games() | mean_200_games())
    return game, draw(st.integers(0, game.num_players - 1))


def _expected_class(before, after, margin=0):
    if after > before + margin:
        return Classification.BENEFICIAL
    return Classification.HARMFUL if after < before - margin else Classification.NEUTRAL


def _check_folds(summary):
    """Assert that the summary's counts, total and best fold from its
    materialized reports; return the reports and the best index."""
    reports = list(summary.reports)
    classes = [r.classification for r in reports]
    best = None
    for i, r in enumerate(reports):
        if best is None or r.payoff_after_total > reports[best].payoff_after_total:
            best = i
    assert (summary.total_splits, summary.beneficial, summary.harmful, summary.neutral) == (
        len(reports),
        classes.count(Classification.BENEFICIAL),
        classes.count(Classification.HARMFUL),
        classes.count(Classification.NEUTRAL),
    )
    assert summary.best_index == best
    assert summary.best == (None if best is None else reports[best])
    return reports, best


@given(scan_cases(), st.sampled_from([2, 3]), st.sampled_from([SH, BZ]))
@example((Game(3, (1, 2)), 0), 2, SH)  # weight 1: no candidates
@example((Game(3, (1, 2)), 0), 3, BZ)
@example((Game(4, (4, 2)), 1), 2, BZ)  # a dummy: eta_p = 0
@example((Game(6, (6, 3)), 1), 3, SH)
@example((Game(5, (9, 2, 2)), 0), 2, SH)  # heavier than the quota
@example((Game(5, (9, 2, 2)), 0), 3, BZ)
@settings(max_examples=30, deadline=None)
def test_exact_scan_folds_from_its_reports_and_matches_the_oracle(case, k, kind):
    """Counts, total and best, classified on integers, equal a fold over the
    materialized reports, and the reports match enumeration of the split
    game (all of them up to 6, else the first, best, middle and last)."""
    game, player = case
    if k == 2:
        summary = scan_two_way_splits(game, player, kind)
    else:
        summary = scan_k_way_splits(game, player, k, kind)
    reports, best = _check_folds(summary)
    oracle = shapley_by_subsets if kind is SH else banzhaf_by_subsets
    before = oracle(game)[player]
    if len(reports) > 6:
        reports = [reports[0], reports[best], reports[len(reports) // 2], reports[-1]]
    for report in reports:
        outcome = apply_split(game, report.spec)
        after = sum(oracle(outcome.game)[p] for p in outcome.new_players)
        assert (report.payoff_before, report.payoff_after_total) == (before, after)
        assert report.classification is _expected_class(before, after)


@pytest.mark.parametrize(
    "nums, dens, best",
    [
        ([10**17, 10**17 + 1], [3 * 10**17, 3 * 10**17 + 2], 1),  # one float apart: exact
        ([10**17 + 1, 10**17], [3 * 10**17 + 2, 3 * 10**17], 0),
        ([1, 2, 5, 2], [3, 6, 16, 6], 0),  # exact ties: the first
        ([0, 0, 0], [4, 5, 6], 0),
        ([1, 3, 2], [4, 5, 6], 1),
    ],
)
def test_first_max_ratio_is_exact(nums, dens, best):
    assert manipulation._first_max_ratio(nums, dens) == best


B, H, N = Classification.BENEFICIAL, Classification.HARMFUL, Classification.NEUTRAL


@pytest.mark.parametrize(
    "before, margin, den, nums, classes",
    [
        # bounds 11/42 and 17/42 on the grid: equal is neutral, one step out is not
        (Fraction(1, 3), Fraction(1, 14), 42, [10, 11, 14, 17, 18], [H, N, N, N, B]),
        # bounds 9/30 and 11/30: only the lower one is on the grid of tenths
        (Fraction(1, 3), Fraction(1, 30), 10, [2, 3, 4, 3], [H, N, B, N]),
        # bounds 11/30 and 13/30: neither is on the grid
        (Fraction(2, 5), Fraction(1, 30), 10, [3, 4, 5, 4], [H, N, B, N]),
        (Fraction(1, 3), None, 3, [0, 1, 2, 1], [H, N, B, N]),
        (Fraction(1, 3), 0, 3, [0, 1, 2, 1], [H, N, B, N]),
        (Fraction(0), None, 5, [0, 0, 1], [N, N, B]),
    ],
)
@pytest.mark.parametrize("per_candidate", [False, True], ids=["one den", "den per candidate"])
def test_summary_classifies_on_the_bounds(before, margin, den, nums, classes, per_candidate):
    """A total equal to before + margin or before - margin is neutral, one
    just outside is beneficial or harmful, and margin None and 0 agree, with
    one denominator or with one unreduced denominator per candidate."""
    if per_candidate:
        nums, den = [x * (i + 2) for i, x in enumerate(nums)], [den * (i + 2) for i in range(len(nums))]
    candidates = [(i + 1, 1) for i in range(len(nums))]
    summary = manipulation._summary(3, SH, Engine.EXACT, candidates, before, nums, den, margin)
    assert [r.classification for r in summary.reports] == classes
    assert (summary.beneficial, summary.harmful, summary.neutral) == tuple(map(classes.count, (B, H, N)))
    assert summary.best_index == classes.index(B)
    assert all(r.payoff_before == before and r.margin == margin for r in summary.reports)
    assert [r.spec for r in summary.reports] == [SplitSpec(3, parts) for parts in candidates]


class TestSplitReports:
    """A scan's ``reports``, for both engines: a read-only sequence whose
    entries are built when read, supporting what the CLI, ``verify`` and the
    bench use."""

    GAME = Game(17, (9, 4, 3, 2))

    @staticmethod
    def _check_sequence(reports, listed):
        assert isinstance(reports, Sequence) and not isinstance(reports, tuple)
        assert len(reports) == len(listed) > 2
        assert [reports[i] for i in range(len(listed))] == listed
        assert reports[-1] == listed[-1] and reports[-len(listed)] == listed[0]
        for i in (len(listed), -len(listed) - 1):
            with pytest.raises(IndexError):
                reports[i]
        assert reports[1:3] == tuple(listed[1:3])
        assert reports[::-2] == tuple(listed[::-2])
        assert reports[len(listed):] == ()
        assert reports == tuple(listed) and tuple(listed) == reports
        assert reports != tuple(listed[:-1]) and reports != listed
        assert hash(reports) == hash(tuple(listed))
        assert pickle.loads(pickle.dumps(reports)) == reports
        assert random.Random(5).choice(reports) == random.Random(5).choice(listed)
        with pytest.raises(TypeError):
            reports[0] = listed[0]

    @pytest.mark.parametrize("kind", [SH, BZ], ids=["shapley", "banzhaf"])
    def test_two_way_reports(self, kind):
        scan = scan_two_way_splits(self.GAME, 0, kind)
        listed = list(scan.reports)
        assert [r.spec.parts for r in listed] == [(1, 8), (2, 7), (3, 6), (4, 5)]  # j ascending
        self._check_sequence(scan.reports, listed)
        assert scan == scan_two_way_splits(self.GAME, 0, kind) == scan_game(self.GAME, kind).scans[0]
        assert pickle.loads(pickle.dumps(scan)) == scan

    @pytest.mark.parametrize("kind", [SH, BZ], ids=["shapley", "banzhaf"])
    def test_k_way_reports(self, kind):
        scan = scan_k_way_splits(self.GAME, 0, 3, kind)
        listed = list(scan.reports)
        assert [r.spec.parts for r in listed] == [  # manipulation._partitions_into order
            (7, 1, 1), (6, 2, 1), (5, 3, 1), (5, 2, 2), (4, 4, 1), (4, 3, 2), (3, 3, 3)
        ]
        self._check_sequence(scan.reports, listed)
        assert scan == scan_k_way_splits(self.GAME, 0, 3, kind)
        assert scan != scan_k_way_splits(self.GAME, 1, 3, kind)
        assert pickle.loads(pickle.dumps(scan)) == scan

    @pytest.mark.parametrize("kind", [SH, BZ], ids=["shapley", "banzhaf"])
    def test_monte_carlo_reports(self, kind):
        cfg = McConfig("0.05", "0.05", seed=3, sample_count_override=40)
        scan = scan_two_way_splits(self.GAME, 0, kind, engine=Engine.MONTE_CARLO, mc_config=cfg)
        listed, _ = _check_folds(scan)
        assert [r.spec.parts for r in listed] == [(1, 8), (2, 7), (3, 6), (4, 5)]
        assert all(r.engine is Engine.MONTE_CARLO and r.margin == Fraction(1, 10) for r in listed)
        assert [r.classification for r in listed] == [
            _expected_class(r.payoff_before, r.payoff_after_total, r.margin) for r in listed
        ]
        self._check_sequence(scan.reports, listed)
        assert scan == scan_two_way_splits(
            self.GAME, 0, kind, engine=Engine.MONTE_CARLO, mc_config=cfg
        )
        assert pickle.loads(pickle.dumps(scan)) == scan


    @pytest.mark.parametrize("kind", [SH, BZ], ids=["shapley", "banzhaf"])
    def test_reading_reports_validates_nothing_again(self, kind, monkeypatch):
        scan = scan_k_way_splits(self.GAME, 0, 3, kind)
        bounds_calls = []
        bounds = manipulation._bounds
        monkeypatch.setattr(manipulation, "_bounds", lambda *a: bounds_calls.append(a) or bounds(*a))

        def refuse(spec):
            raise AssertionError("a read report validated its parts again")

        monkeypatch.setattr(SplitSpec, "__post_init__", refuse)
        listed = list(scan.reports) + list(scan.reports)
        assert bounds_calls == []  # the bounds were computed once, with the scan
        monkeypatch.undo()
        specs = [SplitSpec(0, r.spec.parts) for r in listed]
        assert [r.spec for r in listed] == specs
        assert [hash(r.spec) for r in listed] == list(map(hash, specs))
        assert all(type(r.spec.parts) is tuple for r in listed)
        with pytest.raises(InvalidSplitError):
            SplitSpec(0, (3, 0))  # user-built specs are still checked


class TestFindSplitApprox:
    def test_finds_clear_gain(self):
        spec = find_split_approx(Game(6, (2, 2, 2)), 2, "0.02", "0.01", seed=4)
        assert spec == SplitSpec(2, (1, 1))

    def test_dummy_never_accepted(self):
        game, (player,) = reduction_gadget((1, 2), GadgetVariant.BI_SPLIT)
        assert find_split_approx(game, player, "0.05", "0.05", kind=BZ, seed=1) is None

    def test_neutral_split_rejected_by_margin(self):
        assert find_split_approx(Game(4, (2, 2, 2)), 2, "0.02", "0.01", seed=2) is None

    def test_negative_margin_refused(self):
        # With high < low nearly every candidate would pass as "beneficial".
        with pytest.raises(InvalidConfigError, match="margin"):
            find_split_approx(Game(7, (3, 3, 2, 2)), 0, "0.05", "0.05", margin=-1)

    def test_deterministic(self):
        a = find_split_approx(Game(6, (2, 2, 2)), 2, "0.05", "0.05", seed=11)
        b = find_split_approx(Game(6, (2, 2, 2)), 2, "0.05", "0.05", seed=11)
        assert a == b


class TestMerge:
    def test_unanimity_merge_never_helps(self):
        game = Game(8, (2, 2, 2, 2))
        for kind in (SH, BZ):
            report = merge_benefit(game, {2, 3}, kind)
            assert report.payoff_before_total == Fraction(1, 2)
            assert report.payoff_after == Fraction(1, 3)
            assert not report.beneficial

    def test_gadget_yes_instance_helps_both_kinds(self):
        game, players = reduction_gadget((1, 1), GadgetVariant.MERGE)
        sh = merge_benefit(game, players, SH)
        bz = merge_benefit(game, players, BZ)
        assert sh.beneficial and bz.beneficial
        assert (sh.payoff_before_total, sh.payoff_after) == (Fraction(4, 15), Fraction(1, 3))
        assert (bz.payoff_before_total, bz.payoff_after) == (Fraction(2, 7), Fraction(1, 3))

    def test_merging_dummies_stays_zero(self):
        game = Game(4, (4, 1, 1))
        report = merge_benefit(game, {1, 2}, BZ)
        assert report.payoff_before_total == report.payoff_after == 0
        assert not report.beneficial

    def test_needs_two_players(self):
        with pytest.raises(InvalidMergeError):
            merge_benefit(Game(4, (2, 2)), {0}, SH)


class TestAnnex:
    def test_banzhaf_annexation_can_hurt(self):
        game = Game(11, (6, 5, 1, 1, 1, 1, 1))
        report = annex_benefit(game, 0, {2}, BZ)
        assert report.payoff_before == Fraction(33, 69)
        assert report.payoff_after == Fraction(17, 36)
        assert not report.beneficial

    def test_shapley_annexation_never_hurts_here(self):
        game = Game(11, (6, 5, 1, 1, 1, 1, 1))
        report = annex_benefit(game, 0, {2}, SH)
        assert report.payoff_after >= report.payoff_before
        assert report.payoff_before == Fraction(11, 21)
        assert report.payoff_after == Fraction(8, 15)

    def test_unanimity_annexation_always_helps(self):
        game = Game(8, (2, 2, 2, 2))
        report = annex_benefit(game, 0, {1, 2}, SH)
        assert report.payoff_before == Fraction(1, 4)
        assert report.payoff_after == Fraction(1, 2)
        assert report.beneficial

    def test_annexer_outside_coalition(self):
        with pytest.raises(InvalidMergeError):
            annex_benefit(Game(4, (2, 2)), 0, {0, 1}, SH)


class TestMonotonicityProbe:
    def test_witness_found(self):
        game = Game(9, (3, 3, 2, 1, 1, 1))
        witnesses = annex_monotonicity_probe(game, 0, BZ)
        assert (0, 1, 2) in witnesses

    def test_shapley_probe_always_empty(self):
        game = Game(9, (3, 3, 2, 1, 1, 1))
        assert annex_monotonicity_probe(game, 0, SH) == []

    def test_equal_weights_trivially_empty(self):
        assert annex_monotonicity_probe(Game(5, (2, 2, 2)), 1, BZ) == []


class TestSplitBounds:
    def test_gain_cap_attained(self):
        report = check_split_bounds(Game(10, (2,) * 5), 4, SplitSpec(4, (1, 1)))
        assert report.shapley_ratio == Fraction(10, 6)

    def test_loss_cap_attained(self):
        report = check_split_bounds(Game(9, (2,) * 5), 4, SplitSpec(4, (1, 1)))
        assert report.shapley_ratio == Fraction(1, 3)

    def test_dictator_even_split_counts(self):
        game = Game(12, (1,) * 7 + (16,))
        report = check_split_bounds(game, 7, SplitSpec(7, (8, 8)))
        assert report.banzhaf_before == 1
        assert report.count_before == 128
        assert report.count_after_pair == 256
        assert Fraction(1, 8) <= report.banzhaf_ratio < 1

    def test_requires_two_parts(self):
        with pytest.raises(InvalidSplitError):
            check_split_bounds(Game(6, (5, 5)), 1, SplitSpec(1, (1, 1, 3)))

    @given(games, st.data())
    @settings(max_examples=60, deadline=None)
    def test_random_splits_never_violate(self, game, data):
        player = data.draw(st.integers(0, game.num_players - 1))
        w = game.weights[player]
        if w < 2:
            return
        j = data.draw(st.integers(1, w // 2))
        report = check_split_bounds(game, player, SplitSpec(player, (j, w - j)))
        assert report.count_after_pair == 2 * report.count_before


class TestRecommendations:
    def test_unanimity_cases(self):
        assert unanimity_split_recommendation(Game(6, (2, 2, 2))) == SplitSpec(0, (1, 1))
        assert unanimity_split_recommendation(Game(5, (2, 2, 2))) is None
        rec = unanimity_split_recommendation(Game(10, (4, 3, 3)))
        assert rec == SplitSpec(0, (2, 2))
        report = [
            r for r in scan_two_way_splits(Game(10, (4, 3, 3)), 0, SH).reports
            if r.spec == rec
        ][0]
        assert report.classification is Classification.BENEFICIAL
        assert report.gain_ratio == Fraction(3, 2)  # 2n/(n+1) at n=3

    def test_single_player_excluded(self):
        assert unanimity_split_recommendation(Game(4, (4,))) is None

    def test_high_quota_case(self):
        game = Game(65, (10, 10, 10, 10, 10, 10, 7))
        rec = high_quota_split_recommendation(game, 6)
        assert rec == SplitSpec(6, (4, 3))
        report = [
            r for r in scan_two_way_splits(game, 6, SH).reports
            if set(r.spec.parts) == {3, 4}
        ][0]
        assert report.classification is Classification.BENEFICIAL

    def test_high_quota_rejects_plain_games(self):
        assert high_quota_split_recommendation(Game(6, (2, 2, 2)), 0) is None

    def test_high_quota_rejects_non_pivotal_player(self):
        # quota reachable only with multiples of 10; the light player never helps
        game = Game(60, (10, 10, 10, 10, 10, 10, 7))
        assert high_quota_split_recommendation(game, 6) is None


class TestReductionGadgets:
    def test_constructed_games(self):
        game, players = reduction_gadget((1, 1), GadgetVariant.BI_SPLIT)
        assert game == Game(9, (8, 8, 1, 2)) and players == (3,)
        game, players = reduction_gadget((1, 1), GadgetVariant.SS_SPLIT)
        assert game == Game(11, (8, 8, 1, 2)) and players == (3,)
        game, players = reduction_gadget((1, 1), GadgetVariant.MERGE)
        assert game == Game(10, (8, 8, 1, 1, 1)) and players == (3, 4)
        game, players = reduction_gadget((1, 1), GadgetVariant.ANNEX)
        assert game == Game(10, (8, 8, 1, 1)) and players == (3, 2)

    def test_yes_instance_outcomes(self):
        game, (player,) = reduction_gadget((1, 1), GadgetVariant.SS_SPLIT)
        assert scan_two_way_splits(game, player, SH).beneficial == 1
        game, (annexer, target) = reduction_gadget((1, 1), GadgetVariant.ANNEX)
        report = annex_benefit(game, annexer, {target}, BZ)
        assert report.beneficial
        assert report.payoff_after == 2 * report.payoff_before

    def test_bi_split_yes_instance_gains(self):
        # [9; 8, 8, 1, 2]: the weight-1 player and the manipulator each have
        # count x = 2 and the base players 4; after the (1,1) split the
        # identities and the weight-1 player keep 2 and the base players
        # have 8, so the total goes from 2/12 to 4/22
        game, (player,) = reduction_gadget((1, 1), GadgetVariant.BI_SPLIT)
        summary = scan_two_way_splits(game, player, BZ)
        assert summary.total_splits == summary.beneficial == 1
        report = summary.reports[0]
        assert report.spec.parts == (1, 1)
        assert report.payoff_before == Fraction(1, 6)
        assert report.payoff_after_total == Fraction(2, 11)
        assert report.gain_ratio == Fraction(12, 11)

    def test_bi_split_no_instance_has_zero_payoffs(self):
        game, (player,) = reduction_gadget((1, 2), GadgetVariant.BI_SPLIT)
        summary = scan_two_way_splits(game, player, BZ)
        assert summary.total_splits == summary.neutral == 1
        report = summary.reports[0]
        assert report.payoff_before == report.payoff_after_total == 0

    def test_no_instance_leaves_dummies(self):
        game, (player,) = reduction_gadget((1, 2), GadgetVariant.SS_SPLIT)
        summary = scan_two_way_splits(game, player, SH)
        assert summary.beneficial == 0
        assert all(r.payoff_before == 0 and r.payoff_after_total == 0 for r in summary.reports)
        game, pair = reduction_gadget((1, 2), GadgetVariant.MERGE)
        assert not merge_benefit(game, pair, SH).beneficial
        assert not merge_benefit(game, pair, BZ).beneficial

    def test_rejects_bad_instances(self):
        with pytest.raises(InvalidSplitError):
            reduction_gadget((), GadgetVariant.MERGE)
        with pytest.raises(InvalidSplitError):
            reduction_gadget((1, 0), GadgetVariant.MERGE)


class TestMonteCarloScan:
    def test_deterministic_and_margin_classified(self):
        game = Game(6, (2, 2, 2))
        cfg = McConfig("0.02", "0.05", seed=8)
        a = scan_two_way_splits(game, 2, SH, engine=Engine.MONTE_CARLO, mc_config=cfg)
        b = scan_two_way_splits(game, 2, SH, engine=Engine.MONTE_CARLO, mc_config=cfg)
        assert a == b
        assert a.engine is Engine.MONTE_CARLO
        assert a.reports[0].margin == 2 * Fraction("0.02")
        assert a.beneficial == 1  # true gain 1/6 clears the 2 eps margin

    def test_neutral_state_respects_margin(self):
        game = Game(4, (2, 2, 2))
        cfg = McConfig("0.02", "0.05", seed=8)
        summary = scan_two_way_splits(game, 2, SH, engine=Engine.MONTE_CARLO, mc_config=cfg)
        assert summary.neutral == 1

    @pytest.mark.parametrize("margin", [-1, Fraction(-1, 1000), "-0.5"])
    def test_negative_margin_refused(self, margin):
        cfg = McConfig("0.05", "0.05", sample_count_override=10)
        with pytest.raises(InvalidConfigError, match="margin"):
            scan_two_way_splits(
                Game(7, (3, 3, 2, 2)), 0, SH, engine=Engine.MONTE_CARLO, mc_config=cfg, margin=margin
            )

    def test_zero_margin_accepted(self):
        cfg = McConfig("0.05", "0.05", sample_count_override=10)
        summary = scan_two_way_splits(
            Game(7, (3, 3, 2, 2)), 0, BZ, engine=Engine.MONTE_CARLO, mc_config=cfg, margin=0
        )
        assert summary.reports[0].margin == 0


class TestCandidateLimit:
    """A scan of more than ``CANDIDATE_LIMIT`` candidates is refused, and one
    of exactly that many is not."""

    GAME = Game(7, (9, 3, 2))  # player 0: 4 two-way and 7 three-way candidates

    @pytest.mark.parametrize("kind", [SH, BZ])
    @pytest.mark.parametrize("engine", [Engine.EXACT, Engine.MONTE_CARLO])
    def test_two_way_limit_admits_exactly_its_count(self, monkeypatch, kind, engine):
        cfg = McConfig("0.05", "0.05", sample_count_override=10)

        def scan():
            return scan_two_way_splits(self.GAME, 0, kind, engine, cfg)

        def sampled(*args):
            raise AssertionError("a refused scan drew samples")

        summary = scan()
        assert summary.total_splits == 4
        monkeypatch.setattr(manipulation, "CANDIDATE_LIMIT", 4)
        assert scan() == summary
        monkeypatch.setattr(manipulation, "CANDIDATE_LIMIT", 3)
        for sampler in ("shapley_mc", "banzhaf_mc"):
            monkeypatch.setattr(manipulation, sampler, sampled)
        with pytest.raises(ResourceLimitError) as refused:
            scan()
        assert "weight-9 player into 2 parts gives at least 4 candidates" in str(refused.value)
        assert "CANDIDATE_LIMIT = 3" in str(refused.value)

    @pytest.mark.parametrize("kind", [SH, BZ])
    def test_k_way_limit_builds_at_most_one_more(self, monkeypatch, kind):
        summary = scan_k_way_splits(self.GAME, 0, 3, kind)
        assert summary.total_splits == 7
        drawn, partitions = [], manipulation._partitions_into

        def counted(total, k, max_part):
            for parts in partitions(total, k, max_part):
                if k == 3:  # the scan's own partitions, not the recursion's
                    drawn.append(parts)
                yield parts

        monkeypatch.setattr(manipulation, "_partitions_into", counted)
        monkeypatch.setattr(manipulation, "CANDIDATE_LIMIT", 7)
        assert scan_k_way_splits(self.GAME, 0, 3, kind) == summary
        monkeypatch.setattr(manipulation, "CANDIDATE_LIMIT", 6)
        drawn.clear()
        with pytest.raises(ResourceLimitError) as refused:
            scan_k_way_splits(self.GAME, 0, 3, kind)
        assert len(drawn) == 7
        assert "weight-9 player into 3 parts gives at least 7 candidates" in str(refused.value)
        assert "CANDIDATE_LIMIT = 6" in str(refused.value)

    def test_heavy_player_over_a_small_table(self, monkeypatch):
        monkeypatch.setattr(manipulation, "CANDIDATE_LIMIT", 1000)
        game = Game(5, (10**9, 3))
        with pytest.raises(ResourceLimitError, match="gives at least 500000000 candidates"):
            scan_two_way_splits(game, 0, SH)
        with pytest.raises(ResourceLimitError, match="gives at least 1001 candidates"):
            scan_k_way_splits(game, 0, 2, BZ)


class TestScanInvariance:
    @given(games, st.data(), st.sampled_from([SH, BZ]))
    @settings(max_examples=30, deadline=None)
    def test_counts_ignore_positions_of_others(self, game, data, kind):
        player = data.draw(st.integers(0, game.num_players - 1))
        others = [w for i, w in enumerate(game.weights) if i != player]
        rng = random.Random(data.draw(st.integers(0, 2**20)))
        rng.shuffle(others)
        permuted = Game(game.quota, (game.weights[player],) + tuple(others))
        a = scan_two_way_splits(game, player, kind)
        b = scan_two_way_splits(permuted, 0, kind)
        assert (a.total_splits, a.beneficial, a.harmful, a.neutral) == (
            b.total_splits,
            b.beneficial,
            b.harmful,
            b.neutral,
        )
