"""Exact power indices: subset enumeration for small games, counting DP beyond.

Both engines return exact rationals and must agree bit for bit. All counting
uses unbounded Python integers; criticality counts reach 2**n, so fixed-width
arithmetic is never acceptable in this module.

The DP builds one counting table per game (``game_table``): entry x counts
the coalitions of all players (per size, for Shapley-Shubik) with weight at
most x, for x below the quota q. Each player, or bloc of players merged into
one, whose value is asked for is taken back out of that table by
deconvolution, which gives the same counts over the other players.
Criticality of a player with weight w only asks whether a coalition weight
lies in the window [q - w, q - 1], so its count is two lookups
(``window_count``) and memory stays O(q) per size class.
"""

from __future__ import annotations

import decimal
from collections.abc import Iterator
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import pairwise
from math import factorial

from .errors import SizeLimitError, WvgError
from .game import Game

DEFAULT_ENUMERATION_LIMIT = 12


class IndexKind(str, Enum):
    SHAPLEY_SHUBIK = "shapley_shubik"
    BANZHAF = "banzhaf_normalized"


def fraction_to_decimal(value: Fraction, digits: int = 15) -> str:
    """Render a rational to ``digits`` significant figures, display only."""
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        d = decimal.Decimal(value.numerator) / decimal.Decimal(value.denominator)
    return str(d)


def fraction_json_obj(value: Fraction) -> dict:
    return {
        "numerator": value.numerator,
        "denominator": value.denominator,
        "decimal": fraction_to_decimal(value),
    }


@dataclass(frozen=True)
class IndexVector:
    """Per-player index values; exact rationals that sum to exactly 1."""

    kind: IndexKind
    values: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(Fraction(v) for v in self.values))
        if sum(self.values) != 1:
            raise WvgError(f"index values must sum to 1 exactly (got {sum(self.values)})")
        if any(v < 0 or v > 1 for v in self.values):
            raise WvgError("index values must lie in [0, 1]")

    def __getitem__(self, player: int) -> Fraction:
        return self.values[player]

    def __len__(self) -> int:
        return len(self.values)

    def to_json_obj(self) -> list[dict]:
        return [{"player": i, **fraction_json_obj(v)} for i, v in enumerate(self.values)]


@dataclass(frozen=True)
class CriticalCounts:
    """Per-player counts of coalitions the player is critical for."""

    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "counts", tuple(self.counts))

    def __getitem__(self, player: int) -> int:
        return self.counts[player]

    def total(self) -> int:
        return sum(self.counts)


def shapley_value_from_pivots(counts_by_size, num_players: int) -> Fraction:
    n = num_players
    num = sum(c * factorial(k) * factorial(n - 1 - k) for k, c in enumerate(counts_by_size))
    return Fraction(num, factorial(n))


# --- counting tables --------------------------------------------------------
#
# Every exact query builds one table per game (``game_table``), takes players
# out of it by deconvolution and reads windows of it, instead of rebuilding a
# table per player, per merged bloc or per candidate split. Tables are
# cumulative: with c the plain counts, entry x holds c[0] + ... + c[x], the
# coefficient of z^x in prod(1 + z^w_i) / (1 - z). Adding and removing a
# weight commute with that prefix sum, so they keep the plain-count
# recurrences, and every window of the plain counts is a difference of two
# entries.

def subset_weight_counts(weights, cap: int) -> list[int]:
    """vec[x] = number of subsets of ``weights`` with total weight at most x, x < ``cap``."""
    vec = [1] * cap
    for w in weights:
        if w < cap:
            vec[w:] = [a + b for a, b in zip(vec[w:], vec)]
    return vec


def remove_weight(vec, w: int) -> list[int]:
    """Take one player of weight ``w`` out of a table: ``out[x] = vec[x] - out[x - w]``."""
    out = list(vec)
    for x in range(w, len(out)):
        out[x] -= out[x - w]
    return out


def remove_weight_rows(rows, w: int) -> Iterator[list[int]]:
    """Invert one player of weight ``w`` out of a ``subset_size_weight_counts`` table.

    The size-by-weight form of ``remove_weight``:
    ``out[k][x] = rows[k][x] - out[k-1][x-w]``. ``rows`` may be any iterable,
    such as another removal: rows are yielded one fewer, in order of size k,
    as they are known (the first is ``rows``' own), so a chain of removals
    never holds a second table.
    """
    cur = None
    for row, _ in pairwise(rows):
        cur = row if cur is None else row[:w] + [a - b for a, b in zip(row[w:], cur)]
        yield cur


def subset_size_weight_counts(weights, cap: int) -> list[list[int]]:
    """rows[k][x] = number of size-k subsets of ``weights`` with weight at most x, x < ``cap``."""
    rows = [[1] * cap] + [[0] * cap for _ in weights]
    for idx, w in enumerate(weights):
        if w >= cap:
            continue
        for k in range(idx, -1, -1):
            row, tgt = rows[k], rows[k + 1]
            tgt[w:] = [a + b for a, b in zip(tgt[w:], row)]
    return rows


def tail(table, width: int) -> list[int]:
    """The last ``width`` >= 1 entries of a cumulative table, as [P(q-width), ..., P(q-1)].

    P(x) = 0 below weight 0, so a window reaching below it is zero-padded.
    """
    return [0] * (width - len(table)) + table[-width:]


def window_count(table, w: int) -> int:
    """Coalitions a weight-``w`` player is critical for: P(q-1) - P(q-w-1)."""
    return table[-1] - (table[-w - 1] if w < len(table) else 0)


# Banzhaf reads two cumulative vectors: A counts the subsets and B sums their
# sizes. A player's count is the winning coalitions with it minus those
# without it, so over m players a winning S counts 2|S| - m. That sum is 0
# over all subsets, so m players' total at quota q' is the sum of m - 2|S|
# over the losing S: m A(q'-1) - 2 B(q'-1). Adding a weight w maps (A, B) to
# (A(1 + u), B + u(B + A)) with u = z^w; ``remove_weight_pair`` inverts it.
#
# A bloc M of weight W merged into one player leaves N = n - |M| + 1 players.
# With M taken out of the table, the bloc is critical for the coalitions in
# [q - W, q - 1]. For Banzhaf the other N - 1 players' total is their total
# at quota q (coalitions without the bloc) plus at quota q - W (with it).

def game_table(game: Game, kind: IndexKind | str):
    """The one counting table every exact query of ``game`` reads: for
    Shapley-Shubik ``subset_size_weight_counts``, for Banzhaf ``(A, B)``."""
    if IndexKind(kind) is IndexKind.SHAPLEY_SHUBIK:
        return subset_size_weight_counts(game.weights, game.quota)
    a, b = [1] * game.quota, [0] * game.quota
    for w in game.weights:
        if w < game.quota:
            b[w:] = [u + v + c for u, v, c in zip(b[w:], b, a)]
            a[w:] = [u + v for u, v in zip(a[w:], a)]
    return a, b


def remove_weight_pair(table, w: int) -> tuple[list[int], list[int]]:
    """Take one player of weight ``w`` out of a Banzhaf ``(A, B)`` table."""
    a, b = table
    a_p = remove_weight(a, w)
    return a_p, remove_weight(b[:w] + [x - y for x, y in zip(b[w:], a_p)], w)


def bloc_value(game: Game, members, kind: IndexKind | str, table) -> Fraction:
    """The merged player's index in ``apply_merge(game, members)``, read from
    ``table`` (``game_table(game, kind)``) with the members taken out."""
    kind = IndexKind(kind)
    weights = [game.weights[p] for p in members]
    merged, players = sum(weights), game.num_players - len(weights) + 1
    if kind is IndexKind.SHAPLEY_SHUBIK:
        for w in weights:
            table = remove_weight_rows(table, w)
        return shapley_value_from_pivots([window_count(r, merged) for r in table], players)
    for w in weights:
        table = remove_weight_pair(table, w)
    a, b = table
    eta = window_count(a, merged)
    others = (players - 1) * (2 * a[-1] - eta) - 2 * (2 * b[-1] - window_count(b, merged))
    return Fraction(eta, eta + others)


# ``prefix_sums`` and ``window_sum`` are unused by the package; they stay
# because perfbench/spans.py traces both by name.

def prefix_sums(vec) -> list[int]:
    out = [0] * len(vec)
    acc = 0
    for i, v in enumerate(vec):
        acc += v
        out[i] = acc
    return out


def window_sum(pref, lo: int, hi: int) -> int:
    """Sum of the underlying vector over [lo, hi], clamped to valid indices."""
    if hi >= len(pref):
        hi = len(pref) - 1
    if lo < 0:
        lo = 0
    if lo > hi:
        return 0
    return pref[hi] - (pref[lo - 1] if lo else 0)


def criticality_window(quota: int, weight: int) -> tuple[int, int]:
    """Coalition weights for which a player of ``weight`` is critical."""
    return max(0, quota - weight), quota - 1


# --- enumeration engine -----------------------------------------------------

def _check_limit(game: Game) -> None:
    limit = DEFAULT_ENUMERATION_LIMIT
    if game.num_players > limit:
        raise SizeLimitError(
            f"{game.num_players} players exceeds the enumeration limit {limit}; "
            "use the dynamic-programming engine"
        )


def _mask_weights(weights) -> list[int]:
    n = len(weights)
    ws = [0] * (1 << n)
    for mask in range(1, 1 << n):
        low = mask & -mask
        ws[mask] = ws[mask ^ low] + weights[low.bit_length() - 1]
    return ws


def _enumerated_pivots(game: Game) -> list[list[int]]:
    """Entry [i][k]: the size-k coalitions of the other players that player i is critical for."""
    _check_limit(game)
    n = game.num_players
    ws = _mask_weights(game.weights)
    full = (1 << n) - 1
    out = []
    for i in range(n):
        lo, hi = criticality_window(game.quota, game.weights[i])
        rest = full ^ (1 << i)
        pivots = [0] * n
        sub = rest
        while True:
            if lo <= ws[sub] <= hi:
                pivots[sub.bit_count()] += 1
            if sub == 0:
                break
            sub = (sub - 1) & rest
        out.append(pivots)
    return out


def shapley_enumerate(game: Game) -> IndexVector:
    """Exact Shapley-Shubik indices over all coalitions of every other player.

    Uses the subset-size formulation of the permutation average: a coalition S
    of size k for which the player is critical accounts for k!(n-1-k)!
    orderings out of n!.
    """
    values = (shapley_value_from_pivots(p, game.num_players) for p in _enumerated_pivots(game))
    return IndexVector(IndexKind.SHAPLEY_SHUBIK, tuple(values))


def banzhaf_counts_enumerate(game: Game) -> CriticalCounts:
    return CriticalCounts(tuple(sum(p) for p in _enumerated_pivots(game)))


# --- dynamic-programming engine ---------------------------------------------

def shapley_dp_vector(game: Game) -> IndexVector:
    """Every player's Shapley-Shubik index: one O(n^2 * q) table for quota q,
    then each player's singleton bloc taken out of it in O(n * q)."""
    kind = IndexKind.SHAPLEY_SHUBIK
    table = game_table(game, kind)
    values = (bloc_value(game, [p], kind, table) for p in range(game.num_players))
    return IndexVector(kind, tuple(values))


def banzhaf_counts_dp_vector(game: Game) -> CriticalCounts:
    """Every player's critical-coalition count: one O(n * q) table, one O(q) removal each."""
    vec = subset_weight_counts(game.weights, game.quota)
    return CriticalCounts(tuple(window_count(remove_weight(vec, w), w) for w in game.weights))


def normalize_banzhaf(counts: CriticalCounts) -> IndexVector:
    total = counts.total()
    if total < 1:
        raise WvgError(
            "all criticality counts are zero, which no valid game can produce"
        )
    return IndexVector(
        IndexKind.BANZHAF, tuple(Fraction(c, total) for c in counts.counts)
    )


# --- dispatcher --------------------------------------------------------------

def critical_counts(game: Game) -> CriticalCounts:
    if game.num_players <= DEFAULT_ENUMERATION_LIMIT:
        return banzhaf_counts_enumerate(game)
    return banzhaf_counts_dp_vector(game)


def index(game: Game, kind: IndexKind | str) -> IndexVector:
    """Exact index of every player; enumeration up to the limit, DP above it.

    Both engines agree exactly; up to the limit enumeration is faster for
    Shapley-Shubik. Above it each kind builds one counting table for the
    game and takes every player out of it once (``shapley_dp_vector``,
    ``banzhaf_counts_dp_vector``).
    """
    kind = IndexKind(kind)
    if kind is IndexKind.SHAPLEY_SHUBIK:
        if game.num_players <= DEFAULT_ENUMERATION_LIMIT:
            return shapley_enumerate(game)
        return shapley_dp_vector(game)
    return normalize_banzhaf(critical_counts(game))
