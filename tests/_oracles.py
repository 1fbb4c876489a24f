"""Brute-force reference implementations, kept deliberately naive.

These never share code with the package: Shapley values walk literal
permutations (or the subset-size form for slightly larger games), Banzhaf
counts enumerate raw subsets. Games too large to enumerate use a plain
list count DP (``subsets_by_dp``), run per player (``pivots_by_dp``). The
samplers' reference loops (``shapley_mc_hits``, ``banzhaf_raw_mc_hits``)
shuffle and sum bit by bit from the package's seed scheme. Tests compare
engine output against these.
"""

import hashlib
import random
from fractions import Fraction
from itertools import combinations, permutations
from math import factorial

from wvg import Game


def shapley_by_permutations(game: Game) -> list[Fraction]:
    n = game.num_players
    counts = [0] * n
    for perm in permutations(range(n)):
        acc = 0
        for p in perm:
            if acc < game.quota <= acc + game.weights[p]:
                counts[p] += 1
                break
            acc += game.weights[p]
    return [Fraction(c, factorial(n)) for c in counts]


def shapley_by_subsets(game: Game) -> list[Fraction]:
    n = game.num_players
    out = []
    for i in range(n):
        others = [j for j in range(n) if j != i]
        num = 0
        for r in range(n):
            for sub in combinations(others, r):
                s = sum(game.weights[j] for j in sub)
                if s < game.quota <= s + game.weights[i]:
                    num += factorial(r) * factorial(n - 1 - r)
        out.append(Fraction(num, factorial(n)))
    return out


def banzhaf_counts_by_subsets(game: Game) -> list[int]:
    n = game.num_players
    counts = [0] * n
    for i in range(n):
        others = [j for j in range(n) if j != i]
        for r in range(n):
            for sub in combinations(others, r):
                s = sum(game.weights[j] for j in sub)
                if s < game.quota <= s + game.weights[i]:
                    counts[i] += 1
    return counts


def banzhaf_by_subsets(game: Game) -> list[Fraction]:
    counts = banzhaf_counts_by_subsets(game)
    total = sum(counts)
    return [Fraction(c, total) for c in counts]


def subsets_by_dp(weights, cap: int) -> list[list[int]]:
    """rows[k][x]: size-k subsets of ``weights`` of weight exactly x, x < ``cap``,
    by a plain count DP."""
    rows = [[1] + [0] * (cap - 1)] + [[0] * cap for _ in weights]
    for count, w in enumerate(weights):
        for k in range(count + 1, 0, -1):
            rows[k] = rows[k][:w] + [a + b for a, b in zip(rows[k][w:], rows[k - 1])]
    return rows


def pivots_by_dp(game: Game) -> list[list[int]]:
    """Entry [i][k]: size-k coalitions of the other players that player i is
    critical for, from ``subsets_by_dp`` over each player's others below the
    quota (players of equal weight share one run)."""
    q = game.quota
    by_weight = {}
    for i, own in enumerate(game.weights):
        if own not in by_weight:
            rows = subsets_by_dp(game.weights[:i] + game.weights[i + 1 :], q)
            by_weight[own] = [sum(row[max(0, q - own) :]) for row in rows]
    return [by_weight[w] for w in game.weights]


def shapley_by_dp(game: Game) -> list[Fraction]:
    n = game.num_players
    orderings = [factorial(k) * factorial(n - 1 - k) for k in range(n)]
    return [
        Fraction(sum(c * o for c, o in zip(p, orderings)), factorial(n)) for p in pivots_by_dp(game)
    ]


def banzhaf_by_dp(game: Game) -> list[Fraction]:
    counts = [sum(p) for p in pivots_by_dp(game)]
    return [Fraction(c, sum(counts)) for c in counts]


def partition_decider(values) -> bool:
    """Can the multiset be split into two halves of equal sum?"""
    total = sum(values)
    if total % 2:
        return False
    reachable = {0}
    for v in values:
        reachable |= {r + v for r in reachable}
    return total // 2 in reachable


def random_game(rng: random.Random, max_players: int, max_weight: int, min_players: int = 2) -> Game:
    n = rng.randint(min_players, max_players)
    weights = tuple(rng.randint(1, max_weight) for _ in range(n))
    return Game(rng.randint(1, sum(weights)), weights)


# The samplers as they were written before they made their generator's draws
# directly: a ``random.shuffle`` and a walk per ordering, a bit-by-bit sum
# per coalition. Same seeds and 4096-sample blocks, so every estimate must
# match the package's exactly; each returns the number of hits.


def _sampler_seed(*parts: object) -> int:
    text = ":".join(str(p) for p in parts)
    return int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest()[:8], "big")


def _sampler_blocks(total: int, block) -> int:
    return sum(block(b, min(4096, total - b * 4096)) for b in range((total + 4095) // 4096))


def shapley_mc_hits(game: Game, player: int, seed: int, total: int) -> int:
    n, weights, quota = game.num_players, game.weights, game.quota

    def block(b, count):
        rng = random.Random(_sampler_seed("shapley_mc", seed, player, b))
        order = list(range(n))
        hits = 0
        for _ in range(count):
            rng.shuffle(order)
            acc = 0
            for p in order:
                if p == player:
                    if acc + weights[p] >= quota:
                        hits += 1
                    break
                acc += weights[p]
                if acc >= quota:
                    break
        return hits

    return _sampler_blocks(total, block)


def banzhaf_raw_mc_hits(game: Game, player: int, seed: int, total: int) -> int:
    quota, wp = game.quota, game.weights[player]
    others = [w for i, w in enumerate(game.weights) if i != player]

    def block(b, count):
        rng = random.Random(_sampler_seed("banzhaf_mc", seed, player, b))
        hits = 0
        for _ in range(count):
            mask = rng.getrandbits(len(others)) if others else 0
            acc = 0
            for w in others:
                if mask & 1:
                    acc += w
                mask >>= 1
            if acc < quota <= acc + wp:
                hits += 1
        return hits

    return _sampler_blocks(total, block)
