"""Exact power indices: subset enumeration for small games, counting DP beyond.

Both engines return exact rationals and must agree bit for bit. All counting
uses unbounded Python integers; criticality counts reach 2**n, so fixed-width
arithmetic is never acceptable in this module.

The DP state for a target player is the number of coalitions of the remaining
players per (size, weight), with every weight at or above the quota collapsed
into one saturating bucket. Criticality of a player with weight w only asks
whether a coalition weight lies in the window [quota - w, quota - 1], so the
bucket loses nothing and memory stays O(quota) per size class.
"""

from __future__ import annotations

import decimal
from collections.abc import Iterator
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import accumulate
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


@dataclass(frozen=True)
class ShapleyPivotTable:
    """For one player, how many critical coalitions exist per coalition size."""

    player: int
    num_players: int
    counts_by_size: tuple[int, ...]

    def value(self) -> Fraction:
        return shapley_value_from_pivots(self.counts_by_size, self.num_players)


def shapley_value_from_pivots(counts_by_size, num_players: int) -> Fraction:
    n = num_players
    num = sum(c * factorial(k) * factorial(n - 1 - k) for k, c in enumerate(counts_by_size))
    return Fraction(num, factorial(n))


# --- counting tables --------------------------------------------------------
#
# These are shared with the manipulation scans, which build one table per
# game, take players out of it by deconvolution and read windows of it,
# instead of rebuilding a table per player or per candidate split.

def subset_weight_counts(weights, cap: int) -> list[int]:
    """vec[x] = number of subsets of ``weights`` with total weight x.

    Index ``cap`` is a saturating bucket holding every subset of weight >= cap;
    entries below ``cap`` are exact.
    """
    vec = [0] * (cap + 1)
    vec[0] = 1
    for w in weights:
        add_weight_inplace(vec, w, cap)
    return vec


def add_weight_inplace(vec: list[int], w: int, cap: int) -> None:
    if w >= cap:
        vec[cap] += sum(vec)
        return
    lim = cap - w
    sat = sum(vec[lim:])
    vec[w:cap] = [a + b for a, b in zip(vec[w:cap], vec[:lim])]
    if sat:
        vec[cap] += sat


def remove_weight(vec, w: int, cap: int) -> list[int]:
    """Invert ``add_weight_inplace`` below the bucket.

    Returns counts over the multiset without one player of weight ``w``; only
    entries below ``cap`` are meaningful (the bucket is not recoverable).
    """
    out = [0] * (cap + 1)
    for x in range(cap):
        out[x] = vec[x] - (out[x - w] if x >= w else 0)
    return out


def remove_weight_rows(rows, w: int, cap: int) -> Iterator[list[int]]:
    """Invert one player of weight ``w`` out of a ``subset_size_weight_counts`` table.

    The size-by-weight form of ``remove_weight``: below the bucket,
    ``out[k][x] = rows[k][x] - out[k-1][x-w]``. Yields one row fewer than
    ``rows``, in order of size k, each as soon as it is known, so a caller
    that reads them in turn holds one derived row, not a second table. Every
    bucket entry is 0 because it is not recoverable.
    """
    prev = None
    for row in rows[:-1]:
        if prev is None or w >= cap:
            cur = row[:cap]
        else:
            cur = row[:w] + [a - b for a, b in zip(row[w:cap], prev)]
        cur.append(0)
        yield cur
        prev = cur


def subset_size_weight_counts(weights, cap: int) -> list[list[int]]:
    """rows[k][x] = number of size-k subsets of ``weights`` with weight x.

    Same saturating bucket convention as ``subset_weight_counts``.
    """
    m = len(weights)
    rows = [[0] * (cap + 1) for _ in range(m + 1)]
    rows[0][0] = 1
    for idx, w in enumerate(weights):
        for k in range(idx, -1, -1):
            row = rows[k]
            tgt = rows[k + 1]
            if w >= cap:
                s = sum(row)
                if s:
                    tgt[cap] += s
                continue
            lim = cap - w
            sat = sum(row[lim:])
            tgt[w:cap] = [a + b for a, b in zip(tgt[w:cap], row[:lim])]
            if sat:
                tgt[cap] += sat
    return rows


# ``prefix_sums`` and ``window_sum`` are unused by the package; they stay
# because perfbench/spans.py traces both by name.

def prefix_sums(vec) -> list[int]:
    out = [0] * len(vec)
    acc = 0
    for i, v in enumerate(vec):
        acc += v
        out[i] = acc
    return out


def window_prefix_sums(vec, lo: int, hi: int) -> list[int]:
    """[P(lo), ..., P(hi)] for the prefix sums P of ``vec``, with P(x) = 0 for x < 0.

    Costs one C-level sum below the window plus O(hi - lo) Python additions,
    so a caller that only looks inside a window never prefix-sums the table.
    Requires ``lo <= hi`` and ``0 <= hi < len(vec)``.
    """
    start = max(lo, 0)
    head = sum(vec[:start + 1])
    return [0] * (start - lo) + list(accumulate(vec[start + 1:hi + 1], initial=head))


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

def _check_limit(game: Game, limit: int) -> None:
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


def shapley_enumerate(game: Game, limit: int = DEFAULT_ENUMERATION_LIMIT) -> IndexVector:
    """Exact Shapley-Shubik indices over all coalitions of every other player.

    Uses the subset-size formulation of the permutation average: a coalition S
    of size k for which the player is critical accounts for k!(n-1-k)!
    orderings out of n!.
    """
    _check_limit(game, limit)
    n = game.num_players
    ws = _mask_weights(game.weights)
    full = (1 << n) - 1
    quota = game.quota
    values = []
    for i in range(n):
        lo, hi = criticality_window(quota, game.weights[i])
        rest = full ^ (1 << i)
        pivots = [0] * n
        sub = rest
        while True:
            if lo <= ws[sub] <= hi:
                pivots[sub.bit_count()] += 1
            if sub == 0:
                break
            sub = (sub - 1) & rest
        values.append(shapley_value_from_pivots(pivots, n))
    return IndexVector(IndexKind.SHAPLEY_SHUBIK, tuple(values))


def banzhaf_counts_enumerate(game: Game, limit: int = DEFAULT_ENUMERATION_LIMIT) -> CriticalCounts:
    _check_limit(game, limit)
    n = game.num_players
    ws = _mask_weights(game.weights)
    full = (1 << n) - 1
    quota = game.quota
    counts = []
    for i in range(n):
        lo, hi = criticality_window(quota, game.weights[i])
        rest = full ^ (1 << i)
        c = 0
        sub = rest
        while True:
            if lo <= ws[sub] <= hi:
                c += 1
            if sub == 0:
                break
            sub = (sub - 1) & rest
        counts.append(c)
    return CriticalCounts(tuple(counts))


# --- dynamic-programming engine ---------------------------------------------

def shapley_pivot_table(game: Game, player: int) -> ShapleyPivotTable:
    """Count critical coalitions per size for one player, in O(n^2 * quota)."""
    n = game.num_players
    others = [w for i, w in enumerate(game.weights) if i != player]
    rows = subset_size_weight_counts(others, game.quota)
    lo, hi = criticality_window(game.quota, game.weights[player])
    pivots = tuple(sum(rows[k][lo:hi + 1]) for k in range(n))
    return ShapleyPivotTable(player, n, pivots)


def shapley_dp(game: Game, player: int) -> Fraction:
    return shapley_pivot_table(game, player).value()


def banzhaf_counts_dp(game: Game, player: int) -> int:
    """Critical-coalition count for one player, in O(n * quota)."""
    others = [w for i, w in enumerate(game.weights) if i != player]
    vec = subset_weight_counts(others, game.quota)
    lo, hi = criticality_window(game.quota, game.weights[player])
    return sum(vec[lo:hi + 1])


def shapley_dp_vector(game: Game) -> IndexVector:
    """Every player's Shapley-Shubik index from one counting table per game.

    The size-by-weight table over all n players is built once; each player is
    then removed from it by deconvolution (``remove_weight_rows``) in O(n * q)
    instead of a fresh O(n^2 * q) build, so the whole vector costs O(n^2 * q)
    for quota q.
    """
    n = game.num_players
    cap = game.quota
    rows = subset_size_weight_counts(game.weights, cap)
    values = []
    for w in game.weights:
        lo, hi = criticality_window(cap, w)
        pivots = [sum(r[lo:hi + 1]) for r in remove_weight_rows(rows, w, cap)]
        values.append(shapley_value_from_pivots(pivots, n))
    return IndexVector(IndexKind.SHAPLEY_SHUBIK, tuple(values))


def critical_counts_from_table(vec, weights, cap: int) -> tuple[int, ...]:
    """Every player's critical-coalition count from the full ``subset_weight_counts``."""
    counts = []
    for w in weights:
        without = remove_weight(vec, w, cap)
        lo, hi = criticality_window(cap, w)
        counts.append(sum(without[lo:hi + 1]))
    return tuple(counts)


def banzhaf_counts_dp_vector(game: Game) -> CriticalCounts:
    # One full table, then one O(quota) removal per player.
    vec = subset_weight_counts(game.weights, game.quota)
    return CriticalCounts(critical_counts_from_table(vec, game.weights, game.quota))


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

def critical_counts(game: Game, enumeration_limit: int = DEFAULT_ENUMERATION_LIMIT) -> CriticalCounts:
    if game.num_players <= enumeration_limit:
        return banzhaf_counts_enumerate(game, enumeration_limit)
    return banzhaf_counts_dp_vector(game)


def index(
    game: Game,
    kind: IndexKind | str,
    enumeration_limit: int = DEFAULT_ENUMERATION_LIMIT,
) -> IndexVector:
    """Exact index of every player; enumeration below the limit, DP above.

    The result is identical whichever engine runs.
    """
    kind = IndexKind(kind)
    if kind is IndexKind.SHAPLEY_SHUBIK:
        if game.num_players <= enumeration_limit:
            return shapley_enumerate(game, enumeration_limit)
        return shapley_dp_vector(game)
    return normalize_banzhaf(critical_counts(game, enumeration_limit))
