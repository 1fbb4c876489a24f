"""Search and classification of false-name manipulations.

Covers exhaustive integer split scans (two-way and k-way), the randomized
split finder, merge and annexation benefit checks, bound verification for
two-way splits, special-case split recommendations, and the PARTITION-based
instance generators.

Every exact query reads one counting table per game (``exact.game_table``)
and builds no split or merged game. Split scans, two-way and k-way alike,
take the player out of the table by deconvolution and score all of its
candidates at once as integer columns: per subset of a split's parts, one
column of subset sums read into the player's window profiles (see the
comment above ``_sum_columns``). The Monte-Carlo two-way scan estimates each
candidate's after-total as a fraction. Either way one function
(``_summary``) classifies every candidate on integer numerators and
denominators, and each ``SplitReport`` is built only when read
(``SplitReports``); only the Monte-Carlo engine applies a margin. Merges,
annexations and the monotonicity probe take each bloc's members out of the
table and read the window of their combined weight (``exact.bloc_value``).
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction
from itertools import islice
from operator import add, eq, gt, lt, mul, sub, truediv

from .errors import BoundViolationError, InvalidMergeError, InvalidSplitError, ResourceLimitError
from .exact import (
    IndexKind,
    bloc_value,
    critical_counts,
    game_table,
    shapley_value_from_pivots,
    tail,
    top,
    without,
)
from .game import Game, SplitSpec, apply_split, validate_coalition
from .montecarlo import McConfig, _as_margin, banzhaf_mc, derive_seed, shapley_mc

# The most candidates one split scan may hold; an exact candidate costs about 0.5 KB.
CANDIDATE_LIMIT = 1 << 20


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
    classification: Classification
    engine: Engine
    margin: Fraction | None = None

    @property
    def gain_ratio(self) -> Fraction | None:
        """``payoff_after_total / payoff_before``; None when the payoff before is 0."""
        return self.payoff_after_total / self.payoff_before if self.payoff_before > 0 else None


@dataclass(frozen=True)
class ScanSummary:
    """One player's split candidates: counts per classification, the first
    candidate with the largest after-total (``best_index``, None without
    candidates) and every candidate's report.

    Both engines build it in ``_summary``, which classifies every candidate
    on integers and keeps ``reports`` as a read-only ``SplitReports``: each
    ``SplitReport`` is built, and classified the same way, when it is read.
    """

    player: int
    kind: IndexKind
    engine: Engine
    total_splits: int
    beneficial: int
    harmful: int
    neutral: int
    best_index: int | None
    reports: Sequence[SplitReport]

    @property
    def best(self) -> SplitReport | None:
        """The first report with the largest after-total, or None without candidates."""
        return None if self.best_index is None else self.reports[self.best_index]

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


def _check_player(game: Game, player: int) -> None:
    if not 0 <= player < game.num_players:
        raise InvalidSplitError(
            f"player {player} out of range for a {game.num_players}-player game"
        )


def _check_candidates(w: int, k: int, count: int) -> None:
    """Refuse a scan of at least ``count`` k-part splits of a weight-``w``
    player above ``CANDIDATE_LIMIT``."""
    if count > CANDIDATE_LIMIT:
        raise ResourceLimitError(
            f"splitting a weight-{w} player into {k} parts gives at least {count} "
            f"candidates, above CANDIDATE_LIMIT = {CANDIDATE_LIMIT}"
        )


# --- exact split values ------------------------------------------------------
# One engine scores every split of a weight-w player into k parts at once. An
# identity of part a is critical for a coalition of other players T plus a
# set U of its partner identities exactly when w(T) lies in
# [q - a - sum(U), q - 1 - sum(U)]. With V = U + {a} and P the (cumulative)
# table without the player, the identities' critical coalitions number
# the sum over nonempty V and a in V of P(q-1-sum(V)+a) - P(q-1-sum(V)): one
# lookup per subset U of the parts, weighted k - |U| (U = V - {a}, once per a
# outside U) and -|U| (U = V). Shapley-Shubik weights a coalition by its size,
# so there P becomes F_t, a weighted sum of the table's size classes with
# t = |V| - 1. Lookups lie in [q-w-1, q-1], so each profile is read from the
# table's last w + 1 weights, reversed to be indexed by sum(U).
#
# Banzhaf also needs the n - 1 other players' total count at quota
# q' = q - sum(U). For m players that is m A(q'-1) - 2 B(q'-1), read from the
# game's (A, B) table with the player taken out (see ``exact.game_table``):
# two removals per player, none per pair.
#
# Candidates are scored as integer columns, never one at a time: per subset
# mask of the parts, one column of subset sums over all candidates
# (``_sum_columns``) and one ``map`` read of that size's profile. The empty
# and the full mask sum to 0 and w for every candidate, so they add a
# constant read once.

def _sum_columns(candidates, k: int) -> list:
    """Entry m, 0 < m < 2^k - 1: per candidate (a k-tuple of parts), the sum
    of the parts whose bit is set in m."""
    parts = list(zip(*candidates)) or [()] * k
    sums = [None] * ((1 << k) - 1)
    for m in range(1, len(sums)):
        low = m & -m
        part = parts[low.bit_length() - 1]
        sums[m] = part if m == low else list(map(add, sums[m ^ low], part))
    return sums


def _add_reads(column, profile, sums, u: int) -> list:
    """``column`` plus ``profile`` read at the sums of every mask of ``u`` parts."""
    for m in range(1, len(sums)):
        if m.bit_count() == u:
            column = list(map(add, column, map(profile.__getitem__, sums[m])))
    return column


def _shapley_scores(game: Game, player: int, k: int, candidates, table):
    """Return the baseline value, each candidate's after-total numerator and
    their common denominator N!, N = n + k - 1 players after the split.

    With P_s the size-s cells of the table without the player and
    c_t(s) = (s+t)!(N-1-s-t)!, a subset U of the parts, |U| = u, adds
    sum_s e_u(s) P_s(q-1-sum(U)) with e_u = (k - u) c_u - u c_(u-1)
    (c_-1 = c_k = 0). Sizes 0 and k are read only at sums 0 and w, so only
    sizes 1 .. k - 1 need a profile over the whole window.
    """
    n, w = game.num_players, game.weights[player]
    total_players = n + k - 1
    fact = [math.factorial(i) for i in range(total_players + 1)]
    window = tail(without(table, [w]), w + 1)
    # sizes 0 .. n - 1 of P; entry s at x = q - 1 - s
    columns = [window[i:i + n] for i in range(0, len(window), table.stride)][::-1]
    pivots = list(map(sub, columns[0], columns[w]))
    c = [[fact[s + t] * fact[total_players - 1 - s - t] for s in range(n)] for t in range(k)]
    ends = k * sum(map(mul, c[0], columns[0])) - k * sum(map(mul, c[k - 1], columns[w]))
    sums = _sum_columns(candidates, k)
    numerators = [ends] * len(candidates)
    for u in range(1, k):
        e = [(k - u) * x - u * y for x, y in zip(c[u], c[u - 1])]
        numerators = _add_reads(numerators, [sum(map(mul, e, col)) for col in columns], sums, u)
    return shapley_value_from_pivots(pivots, n), numerators, fact[total_players]


def _banzhaf_scores(game: Game, player: int, k: int, candidates, table):
    """Return the baseline value, each candidate's count for its identities
    and its split game's total count (the after-total is their ratio).

    With A_p, B_p the table without the player, a subset U of the parts adds
    (k - 2|U|) A_p(q-1-sum(U)) to the identities' count and
    H(sum(U)) = (n-1) A_p(q-1-sum(U)) - 2 B_p(q-1-sum(U)) to the other
    players' counts: their total at quota q - sum(U), since each player's
    count is the winning coalitions with it minus those without it (see the
    comment above ``exact.game_table``). The empty and the full mask give the
    identities k eta_p. The baseline is eta_p over the game's total
    n A(q-1) - 2 B(q-1).
    """
    a, b = table
    n, w = game.num_players, game.weights[player]
    a_p, b_p = without(table, [w])
    window = tail(a_p, w + 1)[::-1]
    h = list(map(sub, map((n - 1).__mul__, window), map((2).__mul__, tail(b_p, w + 1)[::-1])))
    eta = window[0] - window[w]
    sums = _sum_columns(candidates, k)
    own = [k * eta] * len(candidates)
    totals = [k * eta + h[0] + h[w]] * len(candidates)
    for u in range(1, k):
        c = k - 2 * u
        if c:
            own = _add_reads(own, [c * x for x in window], sums, u)
        totals = _add_reads(totals, [c * x + y for x, y in zip(window, h)] if c else h, sums, u)
    return Fraction(eta, n * top(a) - 2 * top(b)), own, totals


def _first_max_ratio(nums, dens) -> int:
    """Index of the first maximum of nums[i] / dens[i], dens positive, on integers.

    Starts at the first maximum of the correctly rounded quotients (rounding
    keeps order, so it ties the exact maximum), moves to the first candidate
    strictly above it while there is one, then takes the first equal to it.
    """
    quotients = list(map(truediv, nums, dens))
    best = quotients.index(max(quotients))
    while True:
        left = list(map(dens[best].__mul__, nums))
        right = list(map(nums[best].__mul__, dens))
        above = list(map(gt, left, right))
        if True not in above:
            return list(map(eq, left, right)).index(True)
        best = above.index(True)


def _bounds(before: Fraction, margin: Fraction | None) -> tuple[int, int, int, int]:
    """``before + margin`` and ``before - margin`` as numerator, denominator,
    numerator, denominator; ``before`` twice when ``margin`` is None or 0."""
    high, low = (before, before) if not margin else (before + margin, before - margin)
    return high.numerator, high.denominator, low.numerator, low.denominator


def _summary(player, kind, engine, candidates, before, nums, dens, margin=None) -> ScanSummary:
    """The one constructor of ``ScanSummary``, for both engines.

    Candidate i (``candidates[i]``, a part tuple) has after-total
    ``nums[i] / dens[i]``, where ``dens`` is one positive int for every
    candidate or one per candidate. It is beneficial above
    ``before + margin``, harmful below ``before - margin`` (strict
    comparison with ``before`` when ``margin`` is None) and neutral otherwise,
    counted on integers; ``best_index`` is the first largest after-total.
    """
    hp, hq, lp, lq = _bounds(before, margin)
    if isinstance(dens, int):
        # an integer exceeds a/b iff it exceeds floor(a/b), is below it iff below ceil(a/b)
        high, low = hp * dens // hq, -(-lp * dens // lq)
        beneficial = sum(map(high.__lt__, nums))
        harmful = sum(map(low.__gt__, nums))
        best = nums.index(max(nums)) if nums else None
    else:
        after, bound = list(map(hq.__mul__, nums)), list(map(hp.__mul__, dens))
        beneficial = sum(map(gt, after, bound))
        if margin:
            after, bound = list(map(lq.__mul__, nums)), list(map(lp.__mul__, dens))
        harmful = sum(map(lt, after, bound))
        best = _first_max_ratio(nums, dens) if nums else None
    return ScanSummary(
        player=player,
        kind=kind,
        engine=engine,
        total_splits=len(nums),
        beneficial=beneficial,
        harmful=harmful,
        neutral=len(nums) - beneficial - harmful,
        best_index=best,
        reports=SplitReports(player, engine, candidates, before, nums, dens, margin),
    )


class SplitReports(Sequence):
    """A scan's reports, each built from the scan's integer columns when it
    is read.

    Entry i reports ``candidates[i]`` with after-total ``nums[i] / dens[i]``
    against ``before``, classified as ``_summary`` counts it: by integer
    cross-multiplication with ``before +- margin``. Read-only; compares equal
    to another ``SplitReports`` or a tuple holding the same reports.
    """

    __slots__ = ("player", "engine", "candidates", "before", "nums", "dens", "margin", "bounds")

    def __init__(self, player, engine, candidates, before, nums, dens, margin) -> None:
        self.player, self.engine, self.candidates = player, engine, candidates
        self.before, self.nums, self.dens, self.margin = before, nums, dens, margin
        self.bounds = _bounds(before, margin)

    def __len__(self) -> int:
        return len(self.nums)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(map(self.__getitem__, range(*i.indices(len(self)))))
        num = self.nums[i]
        den = self.dens if isinstance(self.dens, int) else self.dens[i]
        hp, hq, lp, lq = self.bounds
        if num * hq > hp * den:
            classification = Classification.BENEFICIAL
        elif num * lq < lp * den:
            classification = Classification.HARMFUL
        else:
            classification = Classification.NEUTRAL
        # the scan generated the parts, so they are not validated again
        spec = SplitSpec._unchecked(self.player, self.candidates[i])
        after = Fraction(num, den)
        return SplitReport(spec, self.before, after, classification, self.engine, self.margin)

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, (SplitReports, tuple)):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({tuple(self)!r})"


def _scan_exact(game: Game, player: int, kind: IndexKind, k: int, candidates, table):
    """Score and classify every k-part split in ``candidates`` (a list of part
    tuples) on integers against ``table``, ``game_table(game, kind)``."""
    scores = _shapley_scores if kind is IndexKind.SHAPLEY_SHUBIK else _banzhaf_scores
    return _summary(player, kind, Engine.EXACT, candidates, *scores(game, player, k, candidates, table))


def scan_two_way_splits(
    game: Game,
    player: int,
    kind: IndexKind | str,
    engine: Engine | str = Engine.EXACT,
    mc_config: McConfig | None = None,
    margin: Fraction | None = None,
    *,
    table=None,
) -> ScanSummary:
    """Evaluate every unordered integer split (j, w - j), j = 1 .. floor(w/2).

    A weight-1 player has no candidates and yields an empty summary. The exact
    engine classifies by strict comparison; the Monte-Carlo engine uses
    ``margin`` (default twice the configured epsilon; a negative margin is
    refused) and samples on one thread. Both classify on integers and build
    each report only when it is read. ``table``, if given, must be
    ``game_table(game, kind)``; scanning several players of one game with it
    builds the table once instead of once per player. The results are
    identical either way. More than ``CANDIDATE_LIMIT`` candidates raise
    ``ResourceLimitError``, after the exact table and before any sample.
    """
    kind = IndexKind(kind)
    engine = Engine(engine)
    _check_player(game, player)
    w = game.weights[player]
    if engine is Engine.MONTE_CARLO:
        _check_candidates(w, 2, w // 2)
        config = mc_config or McConfig(Fraction(1, 100), Fraction(1, 100))
        margin = _as_margin(2 * config.epsilon if margin is None else margin)
        totals = _mc_after_totals(game, player, kind, config, "baseline", "split")
        before, scored = next(totals), list(totals)
        nums = [after.numerator for _, after in scored]
        dens = [after.denominator for _, after in scored]
        return _summary(player, kind, engine, [p for p, _ in scored], before, nums, dens, margin)
    # the table first: a game too large for one is refused before any candidate
    table = table or game_table(game, kind)
    _check_candidates(w, 2, w // 2)
    # the pairs (j, w - j), j ascending, built without a Python step per pair
    pairs = list(zip(range(1, w // 2 + 1), range(w - 1, (w - 1) // 2, -1)))
    return _scan_exact(game, player, kind, 2, pairs, table)


def _mc_after_totals(game, player, kind, config, base_tag, split_tag):
    """Yield the estimated baseline, then ``(parts, after-total)`` for every
    two-way split (j, w - j), j ascending, each sampled only when asked for.

    The baseline is seeded with ``base_tag`` and split j with ``split_tag``
    and j. Shapley-Shubik estimates each identity separately, the second at
    seed + 1; Banzhaf sums one estimated vector.
    """

    def estimate(g, players, *context):
        cfg = replace(config, seed=derive_seed(config.seed, *context))
        if kind is IndexKind.SHAPLEY_SHUBIK:
            return sum(
                shapley_mc(g, p, replace(cfg, seed=cfg.seed + i)).value
                for i, p in enumerate(players)
            )
        vec = banzhaf_mc(g, cfg)
        return sum(vec[p] for p in players)

    yield estimate(game, [player], base_tag, player)
    w = game.weights[player]
    for j in range(1, w // 2 + 1):
        outcome = apply_split(game, SplitSpec(player, (j, w - j)))
        yield (j, w - j), estimate(outcome.game, outcome.new_players, split_tag, player, j)


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
    distinct outcome. One counting table scores every partition on the exact
    two-way scan's engine, with no split game built. More than
    ``CANDIDATE_LIMIT`` partitions raise ``ResourceLimitError``, after the
    table and with at most one partition past the limit built.
    """
    kind = IndexKind(kind)
    _check_player(game, player)
    if not 2 <= k <= MAX_KWAY:
        raise InvalidSplitError(f"k must be between 2 and {MAX_KWAY} (got {k})")
    table = game_table(game, kind)
    w = game.weights[player]
    partitions = list(islice(_partitions_into(w, k, w), CANDIDATE_LIMIT + 1))
    _check_candidates(w, k, len(partitions))
    return _scan_exact(game, player, kind, k, partitions, table)


def find_split_approx(
    game: Game,
    player: int,
    epsilon,
    delta,
    kind: IndexKind | str = IndexKind.SHAPLEY_SHUBIK,
    seed: int = 0,
    margin: Fraction | None = None,
    sample_count_override: int | None = None,
) -> SplitSpec | None:
    """Randomized two-way split finder.

    Estimates the baseline once, then each candidate split's two identities,
    and accepts the first candidate whose estimated total exceeds the baseline
    by more than the margin (default 3 * epsilon; a negative margin is
    refused). With probability at least 1 - 3 * delta per comparison, an
    accepted split is genuinely beneficial, and any split beneficial by more
    than twice the margin is accepted. Sampling runs on one thread.
    """
    kind = IndexKind(kind)
    _check_player(game, player)
    config = McConfig(epsilon, delta, seed=seed, sample_count_override=sample_count_override)
    margin = _as_margin(3 * config.epsilon if margin is None else margin)
    totals = _mc_after_totals(game, player, kind, config, "findsplit-base", "findsplit")
    bar = next(totals) + margin
    return next((SplitSpec(player, parts) for parts, after in totals if after > bar), None)


def merge_benefit(game: Game, coalition: Iterable[int], kind: IndexKind | str) -> MergeReport:
    """Compare a would-be bloc's merged index against its members' sum."""
    kind = IndexKind(kind)
    members = validate_coalition(game, coalition)
    if len(members) < 2:
        raise InvalidMergeError("a merge needs at least two players")
    table = game_table(game, kind)
    before = sum(bloc_value(game, [p], kind, table) for p in members)
    after = bloc_value(game, members, kind, table)
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
    table = game_table(game, kind)
    before = bloc_value(game, [annexer], kind, table)
    after = bloc_value(game, members | {annexer}, kind, table)
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
    heavier player j yields a strictly smaller index than annexing k. Every
    bloc {annexer, j} is read from one counting table of the game, however
    many targets there are. For the Shapley-Shubik kind the result is always
    empty.
    """
    kind = IndexKind(kind)
    _check_player(game, annexer)
    table = game_table(game, kind)
    after = {
        j: bloc_value(game, [annexer, j], kind, table)
        for j in range(game.num_players)
        if j != annexer
    }
    return [
        (annexer, j, k)
        for j in after
        for k in after
        if game.weights[j] > game.weights[k] and after[j] < after[k]
    ]


def _bounded_ratio(name: str, before, after, low, high, game: Game) -> Fraction | None:
    """``after / before`` in [low, high] (numerator, denominator pairs), or None for 0 / 0."""
    if before == 0:
        if after != 0:
            raise BoundViolationError(f"zero {name} payoff became {after} for {game}")
        return None
    ratio = after / before
    if not Fraction(*low) <= ratio <= Fraction(*high):
        raise BoundViolationError(
            f"{name} ratio {ratio} outside [{low[0]}/{low[1]}, {high[0]}/{high[1]}] for {game}"
        )
    return ratio


def check_split_bounds(game: Game, player: int, spec: SplitSpec) -> BoundReport:
    """Measure a two-way split against the proven caps and count identity.

    Verifies, exactly: the Shapley total moves by a factor within
    [2/(n+1), 2n/(n+1)]; the Banzhaf total by a factor within [1/n, 2]; the
    two identities' criticality counts sum to exactly twice the original
    count; and a zero payoff stays zero. Any failure raises
    BoundViolationError, which indicates a bug, never an expected outcome.
    The Shapley values come from the game's one counting table, as in a split
    scan. The Banzhaf counts come from ``critical_counts`` of the game and of
    the split game, counted separately and neither of them from the scans'
    (A, B) pair, but on one engine for most games, so the identity does not
    check one engine against another: the ``oracle`` suite of ``wvg verify``
    and tests such as ``test_dp_equals_enumeration`` do that.
    """
    _check_player(game, player)
    if spec.player != player or len(spec.parts) != 2:
        raise InvalidSplitError("bound checks apply to two-part splits of the given player")
    n = game.num_players
    outcome = apply_split(game, spec)

    table = game_table(game, IndexKind.SHAPLEY_SHUBIK)
    sh_before, [numerator], denominator = _shapley_scores(game, player, 2, [spec.parts], table)
    sh_after = Fraction(numerator, denominator)

    counts = critical_counts(game)
    counts_after = critical_counts(outcome.game)
    eta_before = counts[player]
    eta_pair = sum(counts_after[p] for p in outcome.new_players)
    bz_before = Fraction(eta_before, counts.total())
    bz_after = Fraction(eta_pair, counts_after.total())

    if eta_pair != 2 * eta_before:
        raise BoundViolationError(
            f"criticality count identity failed: {eta_pair} != 2 * {eta_before} "
            f"for {game} split {spec.parts}"
        )
    sh_ratio = _bounded_ratio("Shapley", sh_before, sh_after, (2, n + 1), (2 * n, n + 1), game)
    bz_ratio = _bounded_ratio("Banzhaf", bz_before, bz_after, (1, n), (2, 1), game)
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
    small = [d for d in range(1, math.isqrt(value) + 1) if value % d == 0]
    return sorted({*small, *(value // d for d in small)}, reverse=True)


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
    nothing helps them. On a yes-instance every variant's manipulation is
    strictly beneficial. For bi_split, [4T+1; 8a_1, ..., 8a_k, 1, 2] with T
    the instance sum: with x the number of base coalitions of instance sum
    T/2, the weight-1 player and the manipulator each have count x, and base
    player i has 4A_i (A_i counts base coalitions without i whose instance
    sum lies in [T/2 - a_i + 1, T/2]). After the (1,1) split both identities
    and the weight-1 player keep x while each base count doubles, so the
    split's gain ratio is (4x + 2A)/(3x + 2A) with A = sum of 4A_i, above 1
    exactly when x > 0.
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
        return Game(4 * total + 1, base + (1, 2)), (k + 1,)
    if variant is GadgetVariant.SS_SPLIT:
        return Game(4 * total + 3, base + (1, 2)), (k + 1,)
    if variant is GadgetVariant.MERGE:
        return Game(4 * total + 2, base + (1, 1, 1)), (k + 1, k + 2)
    return Game(4 * total + 2, base + (1, 1)), (k + 1, k)
