"""Counting tables on both sides of every slot-width switch, against a naive list DP.

A table's slots are as many whole bytes as its largest possible cell needs:
C(n, n // 2) for the size-by-weight table, 2^n for the count vector and
n 2^(n-1) for the Banzhaf (A, B) pair. A slot of 1, 2, 4 or 8 bytes is read
as one array item, 3 or 5..7 bytes are padded to the next item, and wider
slots are read one by one. Player counts on both sides of each switch up to
9 bytes are tested: the size table switches at 10/11, 18/19, 26/27, ...,
67/68, the vector at 7/8, 15/16, ..., 63/64 and the pair at 6/7, 13/14,
20/21, ..., 66/67. All-ones games and games of weights 1..3 at quota
ceil(n/2), and all-ones games at the total weight (every subset but one
counted, every size class full), drive cells to their largest values.
"""

from itertools import accumulate

import pytest

from wvg import Game, IndexKind, apply_merge, apply_split
from wvg.exact import (
    banzhaf_counts_dp_vector,
    bloc_value,
    game_table,
    shapley_dp_vector,
    subset_weight_counts,
    tail,
)
from wvg.manipulation import scan_two_way_splits

from _oracles import banzhaf_by_dp, pivots_by_dp, shapley_by_dp, subsets_by_dp

SH = IndexKind.SHAPLEY_SHUBIK
BZ = IndexKind.BANZHAF
ORACLE = {SH: shapley_by_dp, BZ: banzhaf_by_dp}

SWITCHES = {
    "size": (10, 18, 26, 34, 43, 51, 59, 67),
    "vector": (7, 15, 23, 31, 39, 47, 55, 63),
    "pair": (6, 13, 20, 28, 35, 43, 51, 59, 66),
}
PLAYERS = sorted({m for last in SWITCHES.values() for n in last for m in (n, n + 1)})


def _games(n):
    yield Game(-(-n // 2), (1,) * n)
    yield Game(n, (1,) * n)
    yield Game(-(-n // 2), tuple(1 + i % 3 for i in range(n)))


GAMES = [game for n in PLAYERS for game in _games(n)]


def _id(game):
    shape = "ones" if set(game.weights) == {1} else "1to3"
    return f"n{game.num_players}-{shape}-q{game.quota}"


@pytest.mark.parametrize("game", GAMES, ids=_id)
def test_whole_tables(game):
    """Every cell of the game's tables, read over the full width, where they are largest."""
    q = game.quota
    rows = [list(accumulate(row)) for row in subsets_by_dp(game.weights, q)]
    sized = game_table(game, SH)
    cells = tail(sized, q)
    assert [list(cells[k :: sized.stride]) for k in range(sized.stride)] == rows
    counts = [sum(column) for column in zip(*rows)]
    assert list(tail(subset_weight_counts(game.weights, q), q)) == counts
    a, b = game_table(game, BZ)
    assert list(tail(a, q)) == counts
    assert list(tail(b, q)) == [sum(k * c for k, c in enumerate(col)) for col in zip(*rows)]


@pytest.mark.parametrize("game", GAMES, ids=_id)
def test_index_vectors(game):
    pivots = pivots_by_dp(game)
    assert list(banzhaf_counts_dp_vector(game).counts) == [sum(p) for p in pivots]
    assert list(shapley_dp_vector(game).values) == shapley_by_dp(game)


@pytest.mark.parametrize("game", GAMES, ids=_id)
def test_bloc_of_two(game):
    merged = apply_merge(game, [0, 1])
    for kind, oracle in ORACLE.items():
        expected = oracle(merged.game)[merged.merged_player]
        assert bloc_value(game, [0, 1], kind, game_table(game, kind)) == expected


@pytest.mark.parametrize("game", [g for g in GAMES if 3 in g.weights], ids=_id)
def test_two_way_scan_of_a_weight_three_player(game):
    player = game.weights.index(3)
    for kind, oracle in ORACLE.items():
        [report] = scan_two_way_splits(game, player, kind).reports
        outcome = apply_split(game, report.spec)
        after = oracle(outcome.game)
        assert report.payoff_before == oracle(game)[player]
        assert report.payoff_after_total == sum(after[p] for p in outcome.new_players)
