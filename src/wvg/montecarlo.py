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
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from fractions import Fraction

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


def shapley_mc(game: Game, player: int, config: McConfig, workers: int | None = None) -> McEstimate:
    """Fraction of sampled player orderings where ``player`` is critical
    for the set of its predecessors. ``workers`` is unused; perfbench passes it."""
    n = game.num_players
    weights = game.weights
    quota = game.quota
    wp = weights[player]
    total = config.samples()

    def block(b: int, count: int) -> int:
        rng = random.Random(derive_seed("shapley_mc", config.seed, player, b))
        order = list(range(n))
        shuffle = rng.shuffle
        hits = 0
        for _ in range(count):
            shuffle(order)
            acc = 0
            for p in order:
                if p == player:
                    if acc + wp >= quota:
                        hits += 1
                    break
                acc += weights[p]
                if acc >= quota:
                    break
        return hits

    hits = _run_blocks(total, block)
    return McEstimate(Fraction(hits, total), total, KIND_SHAPLEY, config.epsilon, config.delta)


def banzhaf_raw_mc(game: Game, player: int, config: McConfig, workers: int | None = None) -> McEstimate:
    """Estimate of the probability that a uniform coalition of the other
    players is one the player is critical for. ``workers`` is unused, as above."""
    quota = game.quota
    wp = game.weights[player]
    others = [w for i, w in enumerate(game.weights) if i != player]
    bits = len(others)
    lo = quota - wp
    total = config.samples()

    def block(b: int, count: int) -> int:
        rng = random.Random(derive_seed("banzhaf_mc", config.seed, player, b))
        getrandbits = rng.getrandbits
        hits = 0
        for _ in range(count):
            if bits:
                mask = getrandbits(bits)
                acc = 0
                for w in others:
                    if mask & 1:
                        acc += w
                    mask >>= 1
            else:
                acc = 0
            if lo <= acc < quota:
                hits += 1
        return hits

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
