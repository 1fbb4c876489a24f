"""Exact power indices: counting DP, or subset enumeration where it costs less.

Both engines return exact rationals and must agree bit for bit. All counting
uses unbounded Python integers; criticality counts reach 2**n, so no fixed
width is assumed: a counting table's slot width grows with its player count.

The DP builds one counting table per game (``game_table``): cell x counts
the coalitions of all players (per size, for Shapley-Shubik) with weight at
most x, for x below the quota q. The table is one int, each cell a slot of
it (``PackedTable``), so building it, and taking a player back out, are a few
shifts, adds and masks over the whole table instead of a loop over cells.
Each player, or bloc of players merged into one, whose value is asked for is
taken back out of that table by deconvolution, which gives the same counts
over the other players. Criticality of a player with weight w only asks
whether a coalition weight lies in the window [q - w, q - 1], so its count is
two reads (``window_count``) and memory stays O(q) slots per size class.

Enumeration costs n 2^n steps whatever the weights, the DP about n passes
over its table's bits. So a game of up to ``DEFAULT_ENUMERATION_LIMIT``
players whose table holds over ``TABLE_BITS_PER_COALITION`` bits per
coalition is enumerated, and every other game counted on its table. A table
over ``TABLE_BITS_LIMIT`` bits raises ``ResourceLimitError``; up to
``DEFAULT_ENUMERATION_LIMIT`` players every such table is over that cost.
"""

from __future__ import annotations

import decimal
import sys
from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import comb, factorial
from operator import sub

from .errors import ResourceLimitError, WvgError
from .game import Game

DEFAULT_ENUMERATION_LIMIT = 12
# The most bits (cap * stride * slot bits) any one counting table may hold: 16 MiB.
TABLE_BITS_LIMIT = 1 << 27
# Above this many table bits per coalition of its players, enumerating a game
# is faster than its table (measured on 2-12 players of weight 3 to 3 * 10^5).
TABLE_BITS_PER_COALITION = 64


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
# cumulative: with c the plain counts, cell x holds c[0] + ... + c[x], the
# coefficient of z^x in prod(1 + z^w_i) / (1 - z) (of y^k z^x in
# prod(1 + y z^w_i) / (1 - z) for the size-by-weight table). Adding and
# removing a weight commute with that prefix sum, so every window of the
# plain counts is a difference of two cells.
#
# A table is packed into one int (Kronecker substitution): cell (k, x) is slot
# x * stride + k, with stride n + 1 for the size-by-weight table and 1 for a
# vector. Multiplying by u = y z^w (z^w in a vector) is a left shift by
# w * stride + 1 (w) slots, so adding a player is one shift, add and mask, and
# taking one out multiplies by (1 + u)^-1 = (1 - u)(1 + u^2)(1 + u^4)...,
# about log2(q / w) such steps. Packing is a ring homomorphism from the
# truncated polynomials onto the integers modulo 2^(bits * slots), and every
# true cell lies in [0, 2^bits), so the result is exact even though
# intermediate values wrap. A slot is as many whole bytes as the largest true
# cell needs.

# Array type codes by item size in bytes; a slot is read as the narrowest
# item that holds it.
_TYPECODES = {array(code).itemsize: code for code in "QLIHB"}
_ITEM_SIZES = sorted(_TYPECODES)


@dataclass(frozen=True)
class PackedTable:
    """A cumulative counting table in one int: cell (k, x) is slot x * stride + k.

    ``cap`` weights x = 0 .. cap - 1 of ``stride`` slots each, ``bits`` bits
    per slot, lowest slot first. A stride above 1 makes it a size-by-weight
    table, whose cell (k, x) counts size-k subsets; with stride 1 it is a
    vector (a size table of no players is the vector of its size-0 cells).
    """

    value: int
    bits: int
    stride: int
    cap: int


def _slot_bits(largest: int) -> int:
    """Slot width in whole bytes holding every value up to ``largest``."""
    return -(-largest.bit_length() // 8) * 8


def _mask(table: PackedTable) -> int:
    return (1 << table.cap * table.stride * table.bits) - 1


def _empty(cap: int, stride: int, bits: int) -> PackedTable:
    """The cumulative table of no players: slot x * stride is 1 for every x.
    Every table is allocated here, so this is the one table size check."""
    if cap * stride * bits > TABLE_BITS_LIMIT:
        raise ResourceLimitError(
            f"a counting table for quota {cap} needs {cap * stride} slots of {bits} bits "
            f"({cap * stride * bits} bits), above TABLE_BITS_LIMIT = {TABLE_BITS_LIMIT}"
        )
    weight = (1).to_bytes(bits // 8, "little") + bytes((stride - 1) * bits // 8)
    return PackedTable(int.from_bytes(weight * cap, "little"), bits, stride, cap)


def _shift(table: PackedTable, w: int) -> int:
    """Bits a cell moves when a weight-``w`` player joins: w weights, plus one size."""
    return (w * table.stride + (table.stride > 1)) * table.bits


def _add_weights(table: PackedTable, weights) -> PackedTable:
    v, mask = table.value, _mask(table)
    for w in weights:
        if w < table.cap:
            v = (v + (v << _shift(table, w))) & mask
    return PackedTable(v, table.bits, table.stride, table.cap)


def subset_weight_counts(weights, cap: int) -> PackedTable:
    """Slot x: subsets of ``weights`` with weight at most x, x < ``cap``; at most 2^n."""
    return _add_weights(_empty(cap, 1, _slot_bits(1 << len(weights))), weights)


def subset_size_weight_counts(weights, cap: int) -> PackedTable:
    """Cell (k, x): size-k subsets of ``weights`` with weight at most x, x < ``cap``.

    A size-k count is at most C(n, k) <= C(n, n // 2).
    """
    n = len(weights)
    return _add_weights(_empty(cap, n + 1, _slot_bits(comb(n, n // 2))), weights)


def remove_weight(table: PackedTable, w: int) -> PackedTable:
    """Take one player of weight ``w`` out of a table: divide by 1 + u, u its
    shift, as (1 + u^2)(1 + u^4)...(1 - u) up to the table's top slot.

    Each step shifts only the bits that stay below the top, so no temporary
    outgrows the table, and one mask at the end drops the carries above it.
    """
    s, mask = _shift(table, w), _mask(table)
    size = mask.bit_length()
    if s >= size:  # a player of weight cap or more never entered the table
        return table
    v, t = table.value, 2 * s
    while t < size:
        v += (v & (1 << size - t) - 1) << t
        t *= 2
    v -= (v & (1 << size - s) - 1) << s
    return PackedTable(v & mask, table.bits, table.stride, table.cap)


def without(table, weights):
    """A ``game_table`` of either kind with players of ``weights`` taken out.

    A Banzhaf player of weight w leaves A_p = A / (1 + u) and
    B_p = (B - u A_p) / (1 + u), u = z^w: two removals.
    """
    for w in weights:
        if isinstance(table, PackedTable):
            table = remove_weight(table, w)
        else:
            a, b = table
            a = remove_weight(a, w)
            b = PackedTable((b.value - (a.value << _shift(a, w))) & _mask(b), a.bits, 1, a.cap)
            table = a, remove_weight(b, w)
    return table


def slots(table: PackedTable, lo: int, hi: int) -> Sequence[int]:
    """The slots of weights lo <= x < hi <= cap, weight-major; weights below 0 read 0.

    One shift and one ``int.to_bytes``, then an ``array`` of the narrowest
    item that holds a slot, each slot's bytes padded to the item size
    (``int.from_bytes`` per slot beyond 8 bytes). Bytes are little-endian;
    a big-endian host swaps each item.
    """
    start, stop = max(lo, 0), max(hi, 0)
    per_weight = table.stride * table.bits
    v = table.value >> start * per_weight
    if stop < table.cap:
        v &= (1 << (stop - start) * per_weight) - 1
    cell = table.bits // 8
    data = bytes((min(hi, 0) - min(lo, 0)) * table.stride * cell)
    data += v.to_bytes((stop - start) * table.stride * cell, "little")
    item = next((size for size in _ITEM_SIZES if size >= cell), None)
    if item is None:
        return [int.from_bytes(data[i:i + cell], "little") for i in range(0, len(data), cell)]
    if item > cell:
        wide = bytearray(len(data) // cell * item)
        for i in range(cell):
            wide[i::item] = data[i::cell]
        data = wide
    out = array(_TYPECODES[item], data)
    if sys.byteorder == "big":
        out.byteswap()
    return out


def tail(table: PackedTable, width: int) -> Sequence[int]:
    """The slots of the last ``width`` >= 1 weights, x = q - width .. q - 1, for
    cap q: P(q - width), ..., P(q - 1), each ``stride`` slots long."""
    return slots(table, table.cap - width, table.cap)


def window_count(table: PackedTable, w: int) -> list[int]:
    """Per size (one entry for a vector), the coalitions a weight-``w``
    player is critical for: P(q - 1) - P(q - w - 1)."""
    q = table.cap
    return list(map(sub, tail(table, 1), slots(table, q - w - 1, q - w)))


# Banzhaf reads two cumulative vectors: A counts the subsets and B sums their
# sizes. A player's count is the winning coalitions with it minus those
# without it, so over m players a winning S counts 2|S| - m. That sum is 0
# over all subsets, so m players' total at quota q' is the sum of m - 2|S|
# over the losing S: m A(q'-1) - 2 B(q'-1). Adding a weight w maps (A, B) to
# (A(1 + u), B + u(B + A)) with u = z^w; ``without`` inverts it. A is at most
# 2^n and B at most n 2^(n-1), so B sets the slot width of both.
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
    n = game.num_players
    a = _empty(game.quota, 1, _slot_bits(max(1 << n, n << n >> 1)))
    av, bv, mask = a.value, 0, _mask(a)
    for w in game.weights:
        if w < game.quota:
            s = _shift(a, w)
            bv = (bv + ((bv + av) << s)) & mask
            av = (av + (av << s)) & mask
    return PackedTable(av, a.bits, 1, a.cap), PackedTable(bv, a.bits, 1, a.cap)


def top(table: PackedTable) -> int:
    """P(q - 1) of a vector."""
    return table.value >> (table.cap - 1) * table.bits


def bloc_value(game: Game, members, kind: IndexKind | str, table) -> Fraction:
    """The merged player's index in ``apply_merge(game, members)``, read from
    ``table`` (``game_table(game, kind)``) with the members taken out."""
    kind = IndexKind(kind)
    weights = [game.weights[p] for p in members]
    merged, players = sum(weights), game.num_players - len(weights) + 1
    table = without(table, weights)
    if kind is IndexKind.SHAPLEY_SHUBIK:
        return shapley_value_from_pivots(window_count(table, merged)[:players], players)
    a, b = table
    [eta] = window_count(a, merged)
    others = (players - 1) * (2 * top(a) - eta) - 2 * (2 * top(b) - window_count(b, merged)[0])
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


# --- enumeration engine -----------------------------------------------------

def _mask_weights(weights) -> list[int]:
    n = len(weights)
    ws = [0] * (1 << n)
    for mask in range(1, 1 << n):
        low = mask & -mask
        ws[mask] = ws[mask ^ low] + weights[low.bit_length() - 1]
    return ws


def _enumerated_pivots(game: Game) -> list[list[int]]:
    """Entry [i][k]: the size-k coalitions of the other players that player i is critical for."""
    n, limit = game.num_players, DEFAULT_ENUMERATION_LIMIT
    if n > limit:
        raise ResourceLimitError(
            f"{n} players exceeds the enumeration limit {limit}; use the dynamic-programming engine"
        )
    ws = _mask_weights(game.weights)
    full = (1 << n) - 1
    out = []
    for i in range(n):
        # the coalition weights for which player i is critical
        lo, hi = game.quota - game.weights[i], game.quota - 1
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
    """Every player's Shapley-Shubik index: one table of (n + 1) q slots for
    quota q, then each player's singleton bloc taken out of it in about
    log2(q / w) packed steps (see the comment above ``PackedTable``)."""
    kind = IndexKind.SHAPLEY_SHUBIK
    table = game_table(game, kind)
    values = (bloc_value(game, [p], kind, table) for p in range(game.num_players))
    return IndexVector(kind, tuple(values))


def banzhaf_counts_dp_vector(game: Game) -> CriticalCounts:
    """Every player's critical-coalition count: one vector of q slots, one removal each."""
    vec = subset_weight_counts(game.weights, game.quota)
    return CriticalCounts(tuple(window_count(remove_weight(vec, w), w)[0] for w in game.weights))


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

def _enumerates(game: Game, stride: int, largest: int) -> bool:
    """Whether ``game`` is enumerated rather than counted on its table of
    quota * ``stride`` slots holding counts up to ``largest``."""
    n, bits = game.num_players, game.quota * stride * _slot_bits(largest)
    return n <= DEFAULT_ENUMERATION_LIMIT and bits >> n > TABLE_BITS_PER_COALITION


def critical_counts(game: Game) -> CriticalCounts:
    """Every player's critical-coalition count; engines as for ``index``."""
    if _enumerates(game, 1, 1 << game.num_players):  # ``subset_weight_counts``
        return banzhaf_counts_enumerate(game)
    return banzhaf_counts_dp_vector(game)


def index(game: Game, kind: IndexKind | str) -> IndexVector:
    """Exact index of every player: from the game's table, or enumerated (``_enumerates``)."""
    if IndexKind(kind) is IndexKind.BANZHAF:
        return normalize_banzhaf(critical_counts(game))
    n = game.num_players
    if _enumerates(game, n + 1, comb(n, n // 2)):  # ``subset_size_weight_counts``
        return shapley_enumerate(game)
    return shapley_dp_vector(game)
