"""Seeded Monte-Carlo estimation of both power indices.

Each raw estimate carries the Hoeffding contract: with probability at least
1 - delta it lies within epsilon of the exact value, for a sample count of
ceil(ln(2/delta) / (2 epsilon^2)). Normalizing Banzhaf estimates divides by a
sum of n estimates, so the normalized values only carry a derived bound: if
every raw estimate is within epsilon and the true raw sum is s, each
normalized value is within 2 * epsilon * n / s after union-bounding delta
over the n queries.

Sampling runs on one thread, in fixed-size blocks whose generators derive
from (seed, context, block index), and dummy players estimate to exactly zero.
The samplers make their block generator's draws directly, exactly as
``random.shuffle`` and ``getrandbits`` would: ``shapley_mc`` shuffles with
CPython's own rejection draws (``getrandbits((i + 1).bit_length())`` until
the result is below i + 1, for i = n - 1 .. 1), and ``banzhaf_raw_mc`` reads
one ``getrandbits(n - 1)`` coalition a byte at a time from tables of weight
sums built once per call, so every seeded estimate is the one a plain
shuffle-and-walk or bit-by-bit loop would give.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from operator import and_

from .errors import DegenerateNormalizationError, InvalidConfigError
from .exact import IndexKind, IndexVector, fraction_json_obj
from .game import Game

KIND_SHAPLEY = "shapley_shubik"
KIND_BANZHAF_RAW = "banzhaf_raw"

_BLOCK = 4096


def derive_seed(*parts: object) -> int:
    """Stable 64-bit seed from any printable context, independent of hash randomization."""
    text = ":".join(str(p) for p in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def _as_probability(value, name: str) -> Fraction:
    try:
        frac = Fraction(value)
    except (TypeError, ValueError, ZeroDivisionError):
        raise InvalidConfigError(f"{name} must be a number in (0, 1), got {value!r}") from None
    if not 0 < frac < 1:
        raise InvalidConfigError(f"{name} must lie strictly in (0, 1), got {value!r}")
    return frac


def _as_margin(value, name: str = "margin") -> Fraction:
    margin = Fraction(value)
    if margin < 0:
        raise InvalidConfigError(f"{name} must be at least 0, got {value}")
    return margin


def sample_size(epsilon, delta) -> int:
    """Samples needed for the (epsilon, delta) guarantee: ceil(ln(2/delta)/(2 eps^2))."""
    eps = _as_probability(epsilon, "epsilon")
    dlt = _as_probability(delta, "delta")
    # A tiny epsilon or delta underflows these floats; refuse it rather than divide by 0.
    d, e = float(dlt), 2.0 * float(eps) ** 2
    log_term = math.log(2.0 / d) if d else math.inf
    t = log_term / e if e else math.inf
    if math.isinf(t):
        name = "delta" if math.isinf(log_term) else "epsilon"
        raise InvalidConfigError(f"{name} is too small: ln(2/delta) / (2 epsilon^2) is not finite")
    # Nudge before the ceiling so exact integers survive float roundoff.
    return max(1, math.ceil(t - abs(t) * 1e-12))


@dataclass(frozen=True)
class McConfig:
    epsilon: Fraction
    delta: Fraction
    seed: int = 0
    sample_count_override: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "epsilon", _as_probability(self.epsilon, "epsilon"))
        object.__setattr__(self, "delta", _as_probability(self.delta, "delta"))
        if self.sample_count_override is not None and self.sample_count_override < 1:
            raise InvalidConfigError(
                f"sample_count_override must be positive, got {self.sample_count_override}"
            )

    def samples(self) -> int:
        if self.sample_count_override is not None:
            return self.sample_count_override
        return sample_size(self.epsilon, self.delta)


@dataclass(frozen=True)
class McEstimate:
    value: Fraction
    samples_used: int
    kind: str
    epsilon: Fraction
    delta: Fraction

    def to_json_obj(self) -> dict:
        return {
            "kind": self.kind,
            **fraction_json_obj(self.value),
            "samples_used": self.samples_used,
            "epsilon": str(self.epsilon),
            "delta": str(self.delta),
        }


def _run_blocks(total: int, block_fn) -> int:
    """Sum block_fn(block_index, count) over the partitioned sample space."""
    blocks = range((total + _BLOCK - 1) // _BLOCK)
    return sum(block_fn(b, min(_BLOCK, total - b * _BLOCK)) for b in blocks)


def _shuffles(items: list, getrandbits, count: int):
    """Shuffle ``items`` in place ``count`` times, yielding it after each.

    Makes exactly ``random.shuffle``'s draws: for i = n - 1 .. 1 it swaps
    item i with item j = ``_randbelow(i + 1)``, which draws
    ``getrandbits(k)``, k = (i + 1).bit_length(), until it is below i + 1.
    """
    steps = [(i, (i + 1).bit_length(), i + 1) for i in range(len(items) - 1, 0, -1)]
    for _ in range(count):
        for i, k, bound in steps:
            j = getrandbits(k)
            while j >= bound:
                j = getrandbits(k)
            items[i], items[j] = items[j], items[i]
        yield items


def shapley_mc(game: Game, player: int, config: McConfig, workers: int | None = None) -> McEstimate:
    """Fraction of sampled player orderings where ``player`` is critical
    for the set of its predecessors. ``workers`` is unused; perfbench passes it."""
    weights = game.weights
    quota = game.quota
    need = quota - weights[player]
    total = config.samples()
    # an ordering holds the players' weights, None standing for the player
    start = [None if p == player else w for p, w in enumerate(weights)]

    def block(b: int, count: int) -> int:
        rng = random.Random(derive_seed("shapley_mc", config.seed, player, b))
        hits = 0
        for order in _shuffles(start[:], rng.getrandbits, count):
            acc = 0
            for w in order:
                if w is None:
                    if acc >= need:
                        hits += 1
                    break
                acc += w
                if acc >= quota:
                    break
        return hits

    hits = _run_blocks(total, block)
    return McEstimate(Fraction(hits, total), total, KIND_SHAPLEY, config.epsilon, config.delta)


def _byte_tables(weights: list[int]) -> list[list[int]]:
    """Per 8 weights, the 256 (fewer for the last) sums of their subsets,
    entry x summing the weights at the set bits of x; one empty-sum table
    when there are no weights."""
    tables = []
    for first in range(0, max(len(weights), 1), 8):
        table = [0]
        for w in weights[first:first + 8]:
            table += [s + w for s in table]
        tables.append(table)
    return tables


def banzhaf_raw_mc(game: Game, player: int, config: McConfig, workers: int | None = None) -> McEstimate:
    """Estimate of the probability that a uniform coalition of the other
    players is one the player is critical for. ``workers`` is unused, as above.

    Bit i of a sample's ``getrandbits(n - 1)`` puts the i-th other player in
    the coalition; its weight is the sum of one table entry per byte."""
    quota = game.quota
    lo = quota - game.weights[player]
    others = [w for i, w in enumerate(game.weights) if i != player]
    bits = len(others)
    size = (bits + 7) // 8
    tables = _byte_tables(others)
    total = config.samples()

    def block(b: int, count: int) -> int:
        getrandbits = random.Random(derive_seed("banzhaf_mc", config.seed, player, b)).getrandbits
        if len(tables) == 1:  # at most 8 other players: the draw is the index
            table = tables[0]
            sums = [table[getrandbits(bits)] for _ in range(count)]
        else:
            sums = [
                sum(map(list.__getitem__, tables, getrandbits(bits).to_bytes(size, "little")))
                for _ in range(count)
            ]
        return sum(map(and_, map(lo.__le__, sums), map(quota.__gt__, sums)))  # lo <= sum < quota

    hits = _run_blocks(total, block)
    return McEstimate(Fraction(hits, total), total, KIND_BANZHAF_RAW, config.epsilon, config.delta)


def banzhaf_mc(game: Game, config: McConfig) -> IndexVector:
    """Normalized Banzhaf estimates for every player.

    Raw per-player estimates each satisfy the (epsilon, delta) contract; the
    normalization step carries only the looser derived bound described in the
    module docstring.
    """
    raws = [banzhaf_raw_mc(game, i, config) for i in range(game.num_players)]
    total = sum(est.value for est in raws)
    if total == 0:
        raise DegenerateNormalizationError(
            "every raw Banzhaf estimate was zero; increase the sample count "
            "or use the exact engine"
        )
    return IndexVector(IndexKind.BANZHAF, tuple(est.value / total for est in raws))
