"""Search and classification of false-name manipulations.

Covers exhaustive integer split scans (two-way and k-way), the randomized
split finder, merge and annexation benefit checks, bound verification for
two-way splits, special-case split recommendations, and the PARTITION-based
instance generators.

Two-way scans do not rebuild an index table per candidate split. One counting
table per game (``two_way_table``) is shared by every player's scan; each
player is removed from it by deconvolution, and one O(n * w) pass over the
player's weight-w criticality window builds a profile of prefix sums. Each
candidate then costs O(1) lookups into that profile, because a split
identity's critical coalitions are exactly the base-table coalitions in its
criticality window, with or without the partner identity shifting the window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction
from typing import Iterable

from .errors import BoundViolationError, InvalidMergeError, InvalidSplitError
from .exact import (
    DEFAULT_ENUMERATION_LIMIT,
    IndexKind,
    criticality_window,
    critical_counts,
    critical_counts_from_table,
    index,
    remove_weight,
    remove_weight_rows,
    shapley_dp,
    shapley_value_from_pivots,
    subset_size_weight_counts,
    subset_weight_counts,
    window_prefix_sums,
)
from .game import Game, SplitSpec, apply_merge, apply_split, validate_coalition
from .montecarlo import McConfig, banzhaf_mc, derive_seed, shapley_mc


class Engine(str, Enum):
    EXACT = "exact"
    MONTE_CARLO = "monte_carlo"


class Classification(str, Enum):
    BENEFICIAL = "beneficial"
    HARMFUL = "harmful"
    NEUTRAL = "neutral"


@dataclass(frozen=True)
class SplitReport:
    spec: SplitSpec
    payoff_before: Fraction
    payoff_after_total: Fraction
    gain_ratio: Fraction | None
    classification: Classification
    engine: Engine
    margin: Fraction | None = None


@dataclass(frozen=True)
class ScanSummary:
    player: int
    kind: IndexKind
    engine: Engine
    total_splits: int
    beneficial: int
    harmful: int
    neutral: int
    best: SplitReport | None
    reports: tuple[SplitReport, ...]

    def to_csv(self) -> str:
        lines = ["player,j,before,after,class"]
        for r in self.reports:
            j = "+".join(str(p) for p in r.spec.parts)
            lines.append(
                f"{self.player},{j},{r.payoff_before},{r.payoff_after_total},"
                f"{r.classification.value}"
            )
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class MergeReport:
    coalition: tuple[int, ...]
    kind: IndexKind
    payoff_before_total: Fraction
    payoff_after: Fraction
    beneficial: bool


@dataclass(frozen=True)
class AnnexReport:
    annexer: int
    annexed: tuple[int, ...]
    kind: IndexKind
    payoff_before: Fraction
    payoff_after: Fraction
    beneficial: bool


@dataclass(frozen=True)
class BoundReport:
    """Measured two-way split effects against the proven caps."""

    spec: SplitSpec
    num_players: int
    shapley_before: Fraction
    shapley_after: Fraction
    shapley_ratio: Fraction | None
    banzhaf_before: Fraction
    banzhaf_after: Fraction
    banzhaf_ratio: Fraction | None
    count_before: int
    count_after_pair: int


class GadgetVariant(str, Enum):
    BI_SPLIT = "bi_split"
    SS_SPLIT = "ss_split"
    MERGE = "merge"
    ANNEX = "annex"


def _player_values(game: Game, players, kind: IndexKind) -> dict[int, Fraction]:
    """Index values for just the named players.

    Shapley values above the enumeration limit come from per-player DP runs;
    Banzhaf always needs the full count vector for its denominator.
    """
    if kind is IndexKind.SHAPLEY_SHUBIK and game.num_players > DEFAULT_ENUMERATION_LIMIT:
        return {p: shapley_dp(game, p) for p in players}
    vec = index(game, kind)
    return {p: vec[p] for p in players}


def _classify(before: Fraction, after: Fraction, margin: Fraction) -> Classification:
    if after > before + margin:
        return Classification.BENEFICIAL
    if after < before - margin:
        return Classification.HARMFUL
    return Classification.NEUTRAL


def _check_player(game: Game, player: int) -> None:
    if not 0 <= player < game.num_players:
        raise InvalidSplitError(
            f"player {player} out of range for a {game.num_players}-player game"
        )


# --- exact two-way candidate values ------------------------------------------

def two_way_table(game: Game, kind: IndexKind | str):
    """The counting table every exact two-way scan of ``game`` reads.

    Shapley-Shubik: ``subset_size_weight_counts`` over all players. Banzhaf:
    ``subset_weight_counts`` over all players, paired with every player's
    critical-coalition count. Build it once per game and hand it to each
    player's ``scan_two_way_splits(..., table=...)``.
    """
    if IndexKind(kind) is IndexKind.SHAPLEY_SHUBIK:
        return subset_size_weight_counts(game.weights, game.quota)
    vec = subset_weight_counts(game.weights, game.quota)
    return vec, critical_counts_from_table(vec, game.weights, game.quota)


def _two_way_shapley_values(game: Game, player: int, table):
    """Return the baseline value and an O(1) after-total function.

    With P_k the prefix sums of row k of the table without the player, and
    F1(x) = sum_k k!(n-k)! P_k(x), F2(x) = sum_k (k+1)!(n-k-1)! P_k(x), the
    split (own, partner) of weight w contributes, over (n+1)!,
    F1(q-1) - F1(q-1-own) + F2(q-1-partner) - F2(q-w-1): the identity's
    coalitions without the partner, then with it. F1 and F2 are only needed
    on [q-w-1, q-1], stored at offset x - (q-w-1).
    """
    n = game.num_players
    quota = game.quota
    w = game.weights[player]
    fact = [math.factorial(i) for i in range(n + 2)]
    f1 = [0] * (w + 1)
    f2 = [0] * (w + 1)
    pivots = []
    for k, row in enumerate(remove_weight_rows(table, w, quota)):
        pref = window_prefix_sums(row, quota - w - 1, quota - 1)
        pivots.append(pref[w] - pref[0])
        c1 = fact[k] * fact[n - k]
        c2 = fact[k + 1] * fact[n - k - 1]
        f1 = [f + c1 * p for f, p in zip(f1, pref)]
        f2 = [f + c2 * p for f, p in zip(f2, pref)]
    before = shapley_value_from_pivots(pivots, n)
    # Summed over both orders of (own, partner) = (j, w - j):
    # num(j) = 2 * (F1(q-1) - F2(q-w-1)) + G(j) + G(w-j), with G = F2 - F1.
    base = 2 * (f1[w] - f2[0])
    g = [b - a for a, b in zip(f1, f2)]
    full_denominator = fact[n + 1]

    def after_total(j: int) -> Fraction:
        return Fraction(base + g[j] + g[w - j], full_denominator)

    return before, after_total


def _two_way_banzhaf_values(game: Game, player: int, table):
    """Same shape as the Shapley variant, for normalized Banzhaf values.

    The identities' counts always sum to twice the player's count eta_p.
    Every other player i's count after the split (a, b) is its count in the
    game without i and the manipulator, over the window [q-w_i, q-1] shifted
    down by each of 0, a, b and w. H(s) sums those windows over i for one
    shift s, so a candidate's total is 2 * eta_p + H(0) + H(a) + H(b) + H(w).
    """
    quota = game.quota
    w = game.weights[player]
    vec_full, etas = table
    eta = etas[player]
    before = Fraction(eta, sum(etas))

    vec_rest = remove_weight(vec_full, w, quota)
    h = [0] * (w + 1)
    for i, wi in enumerate(game.weights):
        if i == player:
            continue
        # P over [q-wi-1-w, q-1], so H(s) += P(q-1-s) - P(q-wi-1-s) reads
        # pref[wi+w-s] - pref[w-s].
        without = remove_weight(vec_rest, wi, quota)
        pref = window_prefix_sums(without, quota - wi - 1 - w, quota - 1)
        h = [x + up - down for x, up, down in zip(h, reversed(pref), reversed(pref[:w + 1]))]

    def after_total(j: int) -> Fraction:
        return Fraction(2 * eta, 2 * eta + h[0] + h[j] + h[w - j] + h[w])

    return before, after_total


def _summarize(player, kind, engine, reports) -> ScanSummary:
    counts = {c: 0 for c in Classification}
    best = None
    for r in reports:
        counts[r.classification] += 1
        if best is None or r.payoff_after_total > best.payoff_after_total:
            best = r
    return ScanSummary(
        player=player,
        kind=kind,
        engine=engine,
        total_splits=len(reports),
        beneficial=counts[Classification.BENEFICIAL],
        harmful=counts[Classification.HARMFUL],
        neutral=counts[Classification.NEUTRAL],
        best=best,
        reports=tuple(reports),
    )


def _report(spec, before, after, engine, margin) -> SplitReport:
    effective = margin if margin is not None else Fraction(0)
    return SplitReport(
        spec=spec,
        payoff_before=before,
        payoff_after_total=after,
        gain_ratio=(after / before) if before > 0 else None,
        classification=_classify(before, after, effective),
        engine=engine,
        margin=margin,
    )


def scan_two_way_splits(
    game: Game,
    player: int,
    kind: IndexKind | str,
    engine: Engine | str = Engine.EXACT,
    mc_config: McConfig | None = None,
    margin: Fraction | None = None,
    workers: int | None = None,
    *,
    table=None,
) -> ScanSummary:
    """Evaluate every unordered integer split (j, w - j), j = 1 .. floor(w/2).

    A weight-1 player has no candidates and yields an empty summary. The exact
    engine classifies by strict rational comparison; the Monte-Carlo engine
    uses ``margin`` (default twice the configured epsilon). ``table``, if
    given, must be ``two_way_table(game, kind)``; scanning several players of
    one game with it builds the table once instead of once per player. The
    results are identical either way.
    """
    kind = IndexKind(kind)
    engine = Engine(engine)
    _check_player(game, player)
    w = game.weights[player]
    candidates = range(1, w // 2 + 1)
    if engine is Engine.MONTE_CARLO:
        return _scan_two_way_mc(game, player, kind, candidates, mc_config, margin, workers)

    if table is None:
        table = two_way_table(game, kind)
    if kind is IndexKind.SHAPLEY_SHUBIK:
        before, after_total = _two_way_shapley_values(game, player, table)
    else:
        before, after_total = _two_way_banzhaf_values(game, player, table)
    reports = [
        _report(SplitSpec(player, (j, w - j)), before, after_total(j), engine, None)
        for j in candidates
    ]
    return _summarize(player, kind, engine, reports)


def _mc_value(game, player, kind, config, workers) -> Fraction:
    if kind is IndexKind.SHAPLEY_SHUBIK:
        return shapley_mc(game, player, config, workers).value
    return banzhaf_mc(game, config, workers)[player]


def _mc_split_total(outcome, kind, cfg, workers) -> Fraction:
    """Estimated total index of a two-way split's new identities.

    Shapley estimates the two identities separately, the second at seed + 1;
    Banzhaf sums one estimated vector.
    """
    if kind is IndexKind.SHAPLEY_SHUBIK:
        a, b = outcome.new_players
        return (
            shapley_mc(outcome.game, a, cfg, workers).value
            + shapley_mc(outcome.game, b, replace(cfg, seed=cfg.seed + 1), workers).value
        )
    vec = banzhaf_mc(outcome.game, cfg, workers)
    return sum(vec[p] for p in outcome.new_players)


def _scan_two_way_mc(game, player, kind, candidates, mc_config, margin, workers) -> ScanSummary:
    if mc_config is None:
        mc_config = McConfig(Fraction(1, 100), Fraction(1, 100))
    if margin is None:
        margin = 2 * mc_config.epsilon
    margin = Fraction(margin)
    base_cfg = replace(mc_config, seed=derive_seed(mc_config.seed, "baseline", player))
    before = _mc_value(game, player, kind, base_cfg, workers)
    reports = []
    w = game.weights[player]
    for j in candidates:
        spec = SplitSpec(player, (j, w - j))
        cfg = replace(mc_config, seed=derive_seed(mc_config.seed, "split", player, j))
        after = _mc_split_total(apply_split(game, spec), kind, cfg, workers)
        reports.append(_report(spec, before, after, Engine.MONTE_CARLO, margin))
    return _summarize(player, kind, Engine.MONTE_CARLO, reports)


def _partitions_into(total: int, k: int, max_part: int):
    """Nonincreasing integer partitions of ``total`` into exactly ``k`` parts."""
    if k == 1:
        if 1 <= total <= max_part:
            yield (total,)
        return
    smallest_first = -(-total // k)  # ceil
    for first in range(min(total - (k - 1), max_part), smallest_first - 1, -1):
        for rest in _partitions_into(total - first, k - 1, first):
            yield (first,) + rest


MAX_KWAY = 6


def scan_k_way_splits(
    game: Game, player: int, k: int, kind: IndexKind | str
) -> ScanSummary:
    """Exact scan over unordered integer partitions of the weight into k parts.

    Identities are interchangeable, so multiset partitions cover every
    distinct outcome.
    """
    kind = IndexKind(kind)
    _check_player(game, player)
    if not 2 <= k <= MAX_KWAY:
        raise InvalidSplitError(f"k must be between 2 and {MAX_KWAY} (got {k})")
    w = game.weights[player]
    before = index(game, kind)[player]
    reports = []
    for parts in _partitions_into(w, k, w):
        spec = SplitSpec(player, parts)
        outcome = apply_split(game, spec)
        vec = index(outcome.game, kind)
        after = sum(vec[p] for p in outcome.new_players)
        reports.append(_report(spec, before, Fraction(after), Engine.EXACT, None))
    return _summarize(player, kind, Engine.EXACT, reports)


def find_split_approx(
    game: Game,
    player: int,
    epsilon,
    delta,
    kind: IndexKind | str = IndexKind.SHAPLEY_SHUBIK,
    seed: int = 0,
    margin: Fraction | None = None,
    workers: int | None = None,
    sample_count_override: int | None = None,
) -> SplitSpec | None:
    """Randomized two-way split finder.

    Estimates the baseline once, then each candidate split's two identities,
    and accepts the first candidate whose estimated total exceeds the baseline
    by more than the margin (default 3 * epsilon). With probability at least
    1 - 3 * delta per comparison, an accepted split is genuinely beneficial,
    and any split beneficial by more than twice the margin is accepted.
    """
    kind = IndexKind(kind)
    _check_player(game, player)
    config = McConfig(epsilon, delta, seed=seed, sample_count_override=sample_count_override)
    if margin is None:
        margin = 3 * config.epsilon
    margin = Fraction(margin)
    base_cfg = replace(config, seed=derive_seed(seed, "findsplit-base", player))
    baseline = _mc_value(game, player, kind, base_cfg, workers)
    w = game.weights[player]
    for j in range(1, w // 2 + 1):
        spec = SplitSpec(player, (j, w - j))
        cfg = replace(config, seed=derive_seed(seed, "findsplit", player, j))
        if _mc_split_total(apply_split(game, spec), kind, cfg, workers) > baseline + margin:
            return spec
    return None


def merge_benefit(game: Game, coalition: Iterable[int], kind: IndexKind | str) -> MergeReport:
    """Compare a would-be bloc's merged index against its members' sum."""
    kind = IndexKind(kind)
    members = validate_coalition(game, coalition)
    if len(members) < 2:
        raise InvalidMergeError("a merge needs at least two players")
    values = _player_values(game, members, kind)
    before = sum(values.values())
    outcome = apply_merge(game, members)
    after = _player_values(outcome.game, [outcome.merged_player], kind)[outcome.merged_player]
    return MergeReport(
        coalition=tuple(sorted(members)),
        kind=kind,
        payoff_before_total=Fraction(before),
        payoff_after=after,
        beneficial=after > before,
    )


def annex_benefit(
    game: Game, annexer: int, coalition: Iterable[int], kind: IndexKind | str
) -> AnnexReport:
    """Compare the annexer's merged index against its original index."""
    kind = IndexKind(kind)
    _check_player(game, annexer)
    members = validate_coalition(game, coalition)
    if annexer in members:
        raise InvalidMergeError(f"annexer {annexer} is a member of the annexed coalition")
    if not members:
        raise InvalidMergeError("nothing to annex")
    before = _player_values(game, [annexer], kind)[annexer]
    outcome = apply_merge(game, members | {annexer})
    after = _player_values(outcome.game, [outcome.merged_player], kind)[outcome.merged_player]
    return AnnexReport(
        annexer=annexer,
        annexed=tuple(sorted(members)),
        kind=kind,
        payoff_before=before,
        payoff_after=after,
        beneficial=after > before,
    )


def annex_monotonicity_probe(
    game: Game, annexer: int, kind: IndexKind | str = IndexKind.BANZHAF
) -> list[tuple[int, int, int]]:
    """Find non-monotone single-player annexations.

    Returns every triple (annexer, j, k) with w_j > w_k where annexing the
    heavier player j yields a strictly smaller index than annexing k. For the
    Shapley-Shubik kind the result is always empty.
    """
    kind = IndexKind(kind)
    _check_player(game, annexer)
    after = {}
    for j in range(game.num_players):
        if j == annexer:
            continue
        outcome = apply_merge(game, {annexer, j})
        after[j] = _player_values(outcome.game, [outcome.merged_player], kind)[
            outcome.merged_player
        ]
    witnesses = []
    targets = sorted(after)
    for j in targets:
        for k in targets:
            if game.weights[j] > game.weights[k] and after[j] < after[k]:
                witnesses.append((annexer, j, k))
    return witnesses


def check_split_bounds(game: Game, player: int, spec: SplitSpec) -> BoundReport:
    """Measure a two-way split against the proven caps and count identity.

    Verifies, exactly: the Shapley total moves by a factor within
    [2/(n+1), 2n/(n+1)]; the Banzhaf total by a factor within [1/n, 2]; the
    two identities' criticality counts sum to exactly twice the original
    count; and a zero payoff stays zero. Any failure raises
    BoundViolationError, which indicates a bug, never an expected outcome.
    """
    _check_player(game, player)
    if spec.player != player or len(spec.parts) != 2:
        raise InvalidSplitError("bound checks apply to two-part splits of the given player")
    n = game.num_players
    outcome = apply_split(game, spec)
    a, b = outcome.new_players

    sh_before = _player_values(game, [player], IndexKind.SHAPLEY_SHUBIK)[player]
    sh_vec = _player_values(outcome.game, [a, b], IndexKind.SHAPLEY_SHUBIK)
    sh_after = sh_vec[a] + sh_vec[b]

    counts = critical_counts(game)
    counts_after = critical_counts(outcome.game)
    eta_before = counts[player]
    eta_pair = counts_after[a] + counts_after[b]
    bz_before = Fraction(eta_before, counts.total())
    bz_after = Fraction(eta_pair, counts_after.total())

    if eta_pair != 2 * eta_before:
        raise BoundViolationError(
            f"criticality count identity failed: {eta_pair} != 2 * {eta_before} "
            f"for {game} split {spec.parts}"
        )
    sh_ratio = None
    bz_ratio = None
    if sh_before == 0:
        if sh_after != 0:
            raise BoundViolationError(f"zero Shapley payoff became {sh_after} for {game}")
    else:
        sh_ratio = sh_after / sh_before
        if not Fraction(2, n + 1) <= sh_ratio <= Fraction(2 * n, n + 1):
            raise BoundViolationError(
                f"Shapley ratio {sh_ratio} outside [2/{n + 1}, {2 * n}/{n + 1}] for {game}"
            )
    if bz_before == 0:
        if bz_after != 0:
            raise BoundViolationError(f"zero Banzhaf payoff became {bz_after} for {game}")
    else:
        bz_ratio = bz_after / bz_before
        if not Fraction(1, n) <= bz_ratio <= 2:
            raise BoundViolationError(
                f"Banzhaf ratio {bz_ratio} outside [1/{n}, 2] for {game}"
            )
    return BoundReport(
        spec=spec,
        num_players=n,
        shapley_before=sh_before,
        shapley_after=sh_after,
        shapley_ratio=sh_ratio,
        banzhaf_before=bz_before,
        banzhaf_after=bz_after,
        banzhaf_ratio=bz_ratio,
        count_before=eta_before,
        count_after_pair=eta_pair,
    )


def unanimity_split_recommendation(game: Game) -> SplitSpec | None:
    """A guaranteed-beneficial split when the quota forces full attendance.

    If w(N) - s < quota <= w(N) for s = min(min weight, floor(max weight / 2)),
    every winning coalition needs all players both before and after splitting
    the heaviest player near-evenly, so that split multiplies its payoff by
    2n/(n+1). Returns the split, or None when the condition fails.
    """
    n = game.num_players
    if n < 2:
        return None
    w_max = max(game.weights)
    s = min(min(game.weights), w_max // 2)
    if s <= 0:
        return None
    total = game.total_weight()
    if not total - s < game.quota <= total:
        return None
    player = game.weights.index(w_max)
    return SplitSpec(player, (w_max // 2, w_max - w_max // 2))


def _divisors_desc(value: int) -> list[int]:
    small, large = [], []
    d = 1
    while d * d <= value:
        if value % d == 0:
            small.append(d)
            if d != value // d:
                large.append(value // d)
        d += 1
    return sorted(small + large, reverse=True)


def high_quota_split_recommendation(game: Game, player: int) -> SplitSpec | None:
    """A guaranteed-beneficial Shapley split for a light player among
    multiples of a common step.

    All other weights must be multiples of some A, the quota of the form
    A*T + b with 0 < b < A and T >= 1, the player's weight strictly between b
    and min(2b - 1, A), every winning coalition bigger than half the table
    (checked via quota > sum of the ceil(n/2) largest other weights), and the
    player critical for at least one coalition. When all of that holds the
    split (b - 1, w - b + 1) strictly gains. Returns None otherwise.
    """
    _check_player(game, player)
    n = game.num_players
    if n < 2:
        return None
    w = game.weights[player]
    others = [x for i, x in enumerate(game.weights) if i != player]
    g = math.gcd(*others)
    top = sorted(others, reverse=True)
    half = (n + 1) // 2
    for step in _divisors_desc(g):
        if step < 2:
            break
        t, b = divmod(game.quota, step)
        if t < 1 or b == 0:
            continue
        if not b < w < min(2 * b - 1, step):
            continue
        if game.quota <= sum(top[:half]):
            continue
        if critical_counts(game)[player] < 1:
            return None
        return SplitSpec(player, (b - 1, w - b + 1))
    return None


def reduction_gadget(
    instance: Iterable[int], variant: GadgetVariant | str
) -> tuple[Game, tuple[int, ...]]:
    """Build the PARTITION-instance game for one manipulation problem.

    Returns the game plus the designated players: the manipulator for the
    split variants, the two-player coalition for the merge variant, and
    (annexer, annexed) for the annex variant. Instance weights map to players
    of weight 8*a_i. On a no-instance the designated players are dummies, so
    nothing helps them. On a yes-instance the ss_split, merge, and annex
    manipulations are strictly beneficial; the bi_split variant's only split
    comes out exactly neutral, so it does not separate yes from no.
    """
    variant = GadgetVariant(variant)
    values = tuple(instance)
    if not values:
        raise InvalidSplitError("instance must be a nonempty multiset of positive integers")
    if any(not isinstance(a, int) or isinstance(a, bool) or a < 1 for a in values):
        raise InvalidSplitError("instance weights must be positive integers")
    total = sum(values)
    base = tuple(8 * a for a in values)
    k = len(values)
    if variant is GadgetVariant.BI_SPLIT:
        return Game(4 * total + 2, base + (2,)), (k,)
    if variant is GadgetVariant.SS_SPLIT:
        return Game(4 * total + 3, base + (1, 2)), (k + 1,)
    if variant is GadgetVariant.MERGE:
        return Game(4 * total + 2, base + (1, 1, 1)), (k + 1, k + 2)
    return Game(4 * total + 2, base + (1, 1)), (k + 1, k)
