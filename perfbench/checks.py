"""Output checks for every timed call; a failed check counts as a failed operation.

At the pinned seed each output's SHA-256 must equal the pinned digest. At any
other seed, exact answers are recomputed on a path the optimised layers do
not share: subset enumeration for games of at most 12 players, and beyond
that this file's own per-player counting DP. Monte-Carlo answers must equal
the same call at one worker, byte for byte.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from math import factorial

from wvg import (
    Game,
    SplitSpec,
    apply_merge,
    apply_split,
    banzhaf_counts_enumerate,
    shapley_enumerate,
)

ENUMERATION_MAX = 12


def digest(text: str) -> str:
    """SHA-256 of the canonical JSON form of one output."""
    canonical = json.dumps(json.loads(text), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def frac(obj: dict) -> Fraction:
    return Fraction(obj["numerator"], obj["denominator"])


# --- reference values --------------------------------------------------------

def _size_rows(weights, quota):
    """rows[k][x]: size-k subsets of ``weights`` with weight x, for x < quota."""
    rows = [[0] * quota for _ in range(len(weights) + 1)]
    rows[0][0] = 1
    for count, w in enumerate(weights):
        if w >= quota:
            continue
        for k in range(count, -1, -1):
            src, dst = rows[k], rows[k + 1]
            dst[w:] = [a + b for a, b in zip(dst[w:], src[: quota - w])]
    return rows


def _critical_counts(weights, quota) -> list[int]:
    """Coalitions each player is critical for, from one table below the quota.

    Removing a player of weight w inverts its addition exactly below the
    quota: without[x] = vec[x] - without[x - w].
    """
    vec = [0] * quota
    vec[0] = 1
    for w in weights:
        if w < quota:
            vec[w:] = [a + b for a, b in zip(vec[w:], vec[: quota - w])]
    counts = []
    for w in weights:
        without = vec[:]
        for x in range(w, quota):
            without[x] -= without[x - w]
        counts.append(sum(without[max(0, quota - w):]))
    return counts


def _shapley_ref(weights, quota, player) -> Fraction:
    n = len(weights)
    others = [w for i, w in enumerate(weights) if i != player]
    rows = _size_rows(others, quota)
    lo = max(0, quota - weights[player])
    num = sum(sum(rows[k][lo:]) * factorial(k) * factorial(n - 1 - k) for k in range(n))
    return Fraction(num, factorial(n))


def critical_counts(game: Game) -> list[int]:
    if game.num_players <= ENUMERATION_MAX:
        return list(banzhaf_counts_enumerate(game).counts)
    return _critical_counts(game.weights, game.quota)


def values(game: Game, kind: str, players) -> dict[int, Fraction]:
    """Exact index values of ``players`` on the reference path."""
    if kind == "banzhaf":
        counts = critical_counts(game)
        total = sum(counts)
        return {p: Fraction(counts[p], total) for p in players}
    if game.num_players <= ENUMERATION_MAX:
        vec = shapley_enumerate(game).values
        return {p: vec[p] for p in players}
    return {p: _shapley_ref(game.weights, game.quota, p) for p in players}


def split_values(game: Game, kind: str, player: int, parts) -> tuple[Fraction, Fraction]:
    """(payoff before, summed payoff of the identities after) for one split."""
    before = values(game, kind, [player])[player]
    outcome = apply_split(game, SplitSpec(player, tuple(parts)))
    after = values(outcome.game, kind, outcome.new_players)
    return before, sum(after.values())


def classify(before: Fraction, after: Fraction) -> str:
    if after > before:
        return "beneficial"
    if after < before:
        return "harmful"
    return "neutral"


def partitions(total: int, k: int, largest: int | None = None) -> int:
    """Number of partitions of ``total`` into exactly ``k`` positive parts."""
    largest = total if largest is None else largest
    if k == 1:
        return int(1 <= total <= largest)
    return sum(
        partitions(total - first, k - 1, first)
        for first in range(min(largest, total - k + 1), 0, -1)
        if first * k >= total
    )


# --- query checks -------------------------------------------------------------

def _check_scan(game, kind, obj, rng, k) -> bool:
    player = obj["player"]
    w = game.weights[player]
    expected = w // 2 if k == 2 else partitions(w, k)
    reports = obj["reports"]
    if obj["total_splits"] != expected or len(reports) != expected:
        return False
    classes = [r["classification"] for r in reports]
    if [obj["beneficial"], obj["harmful"], obj["neutral"]] != [
        classes.count(c) for c in ("beneficial", "harmful", "neutral")
    ]:
        return False
    for r in rng.sample(reports, min(1, len(reports))):
        if sum(r["parts"]) != w:
            return False
        before, after = split_values(game, kind, player, r["parts"])
        if (frac(r["before"]), frac(r["after_total"]), r["classification"]) != (
            before, after, classify(before, after)
        ):
            return False
    return True


def check_exact_query(op, out: str, rng: random.Random) -> bool:
    """Recompute an exact query's answer on the reference path."""
    obj = json.loads(out)
    game = Game(op.game[0], op.game[1])
    command, kind = op.argv[0], op.kind
    n = game.num_players
    if command == "index":
        got = [frac(v) for v in obj["values"]]
        players = range(n) if kind == "banzhaf" or n <= ENUMERATION_MAX else rng.sample(range(n), 2)
        ref = values(game, kind, players)
        return len(got) == n and sum(got) == 1 and all(got[p] == ref[p] for p in players)
    if command == "scan":
        k = int(op.argv[op.argv.index("--k") + 1]) if "--k" in op.argv else 2
        return _check_scan(game, kind, obj, rng, k)
    if command == "merge":
        members = obj["coalition"]
        ref = values(game, kind, members)
        outcome = apply_merge(game, members)
        after = values(outcome.game, kind, [outcome.merged_player])[outcome.merged_player]
        before = sum(ref.values())
        return (frac(obj["before_total"]), frac(obj["after"]), obj["beneficial"]) == (
            before, after, after > before
        )
    if command == "annex":
        annexer = obj["annexer"]
        before = values(game, kind, [annexer])[annexer]
        outcome = apply_merge(game, [annexer, *obj["annexed"]])
        after = values(outcome.game, kind, [outcome.merged_player])[outcome.merged_player]
        return (frac(obj["before"]), frac(obj["after"]), obj["beneficial"]) == (
            before, after, after > before
        )
    if command == "probe-monotonicity":
        annexer = obj["annexer"]
        after = {}
        for j in range(n):
            if j != annexer:
                outcome = apply_merge(game, [annexer, j])
                after[j] = values(outcome.game, kind, [outcome.merged_player])[outcome.merged_player]
        witnesses = [
            [annexer, j, k]
            for j in sorted(after)
            for k in sorted(after)
            if game.weights[j] > game.weights[k] and after[j] < after[k]
        ]
        return obj["witnesses"] == witnesses
    if command == "bounds":
        player = int(op.argv[op.argv.index("--player") + 1])
        parts = obj["parts"]
        sh = split_values(game, "shapley", player, parts)
        counts = critical_counts(game)
        outcome = apply_split(game, SplitSpec(player, tuple(parts)))
        counts_after = critical_counts(outcome.game)
        a, b = outcome.new_players
        bz = (Fraction(counts[player], sum(counts)),
              Fraction(counts_after[a] + counts_after[b], sum(counts_after)))
        return (
            (frac(obj["shapley_before"]), frac(obj["shapley_after"])) == sh
            and (frac(obj["banzhaf_before"]), frac(obj["banzhaf_after"])) == bz
            and obj["count_before"] == counts[player]
            and obj["count_after_pair"] == counts_after[a] + counts_after[b]
        )
    raise ValueError(f"no check for command {command!r}")


# --- study checks -------------------------------------------------------------

def check_study_totals(out: str, records, kind: str) -> bool:
    """The printed totals must fold exactly from the scanned games."""
    obj = json.loads(out)
    totals = obj["totals"]
    scans = [s for r in records for s in r.scans]
    frac_sum = sum((r.beneficial_fraction for r in records), Fraction(0))
    return (
        obj["kind"] == ("shapley_shubik" if kind == "shapley" else "banzhaf_normalized")
        and totals["games_total"] == len(records)
        and totals["games_with_beneficial"] == sum(r.has_beneficial for r in records)
        and totals["splits_total"] == sum(s.total_splits for s in scans)
        and totals["splits_beneficial"] == sum(s.beneficial for s in scans)
        and totals["splits_harmful"] == sum(s.harmful for s in scans)
        and totals["splits_neutral"] == sum(s.neutral for s in scans)
        and Fraction(totals["sum_beneficial_fraction"]) == frac_sum
    )


def sample_split(record, rng: random.Random):
    """One (game, player, parts, before, after, class) from a scanned game, or None."""
    scans = [s for s in record.scans if s.reports]
    if not scans:
        return None
    scan = rng.choice(scans)
    r = rng.choice(scan.reports)
    return (record.game, scan.player, r.spec.parts, r.payoff_before,
            r.payoff_after_total, r.classification.value)


def check_split_sample(sample, kind: str) -> bool:
    game, player, parts, before, after, cls = sample
    ref_before, ref_after = split_values(game, kind, player, parts)
    return (before, after, cls) == (ref_before, ref_after, classify(ref_before, ref_after))
