"""Built-in fixture table and randomized invariant suites.

The fixture table pins the worked examples this package is expected to
reproduce, with expected values verified by independent enumeration. The
randomized suites re-check the structural guarantees (engine agreement,
split bounds, annexation monotonicity) on seeded random games.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .errors import InvalidConfigError
from .exact import (
    IndexKind,
    banzhaf_counts_enumerate,
    banzhaf_counts_dp_vector,
    critical_counts,
    index,
    normalize_banzhaf,
    shapley_dp_vector,
    shapley_enumerate,
)
from .game import Game, SplitSpec, apply_merge, apply_split
from .manipulation import (
    Classification,
    GadgetVariant,
    annex_benefit,
    annex_monotonicity_probe,
    check_split_bounds,
    merge_benefit,
    reduction_gadget,
    scan_k_way_splits,
    scan_two_way_splits,
    unanimity_split_recommendation,
    high_quota_split_recommendation,
)
from .montecarlo import sample_size

SH = IndexKind.SHAPLEY_SHUBIK
BZ = IndexKind.BANZHAF


@dataclass(frozen=True)
class FixtureResult:
    suite: str
    name: str
    passed: bool
    detail: str = ""


def _check(name: str, ok: bool, detail: str = "") -> FixtureResult:
    return FixtureResult("fixtures", name, ok, "" if ok else detail)


def _gain(game: Game, player: int, kind: IndexKind) -> Fraction | None:
    summary = scan_two_way_splits(game, player, kind)
    return summary.reports[0].gain_ratio if summary.reports else None


def _fx_unanimity_three_twos() -> FixtureResult:
    game = Game(6, (2, 2, 2))
    ok = all(
        _gain(game, 2, kind) == Fraction(3, 2)
        and scan_two_way_splits(game, 2, kind).beneficial == 1
        for kind in (SH, BZ)
    )
    return _check("split-[6;2,2,2]-gains-3/2-both-kinds", ok, "expected gain 3/2")


def _fx_three_twos_quota5() -> FixtureResult:
    game = Game(5, (2, 2, 2))
    sh, bz = _gain(game, 2, SH), _gain(game, 2, BZ)
    ok = sh == Fraction(1, 2) and bz == Fraction(3, 4)
    return _check("split-[5;2,2,2]-loses", ok, f"got shapley {sh}, banzhaf {bz}")


def _fx_three_twos_quota4() -> FixtureResult:
    game = Game(4, (2, 2, 2))
    ok = all(
        scan_two_way_splits(game, 2, kind).reports[0].classification
        is Classification.NEUTRAL
        for kind in (SH, BZ)
    )
    return _check("split-[4;2,2,2]-neutral", ok, "expected neutral")


def _fx_opposite_classifications() -> FixtureResult:
    game = Game(5, (2, 1, 1, 1, 1))
    sh = scan_two_way_splits(game, 0, SH).reports[0]
    bz = scan_two_way_splits(game, 0, BZ).reports[0]
    ok = (
        sh.payoff_before == Fraction(2, 5)
        and bz.payoff_before == Fraction(5, 17)
        and sh.payoff_after_total == Fraction(1, 3)
        and bz.payoff_after_total == Fraction(1, 3)
        and sh.classification is Classification.HARMFUL
        and bz.classification is Classification.BENEFICIAL
    )
    return _check(
        "split-[5;2,1,1,1,1]-opposite-classifications",
        ok,
        f"shapley {sh.payoff_before}->{sh.payoff_after_total}, "
        f"banzhaf {bz.payoff_before}->{bz.payoff_after_total}",
    )


def _fx_bloc_paradox() -> FixtureResult:
    game = Game(11, (6, 5, 1, 1, 1, 1, 1))
    counts = critical_counts(game)
    bz = annex_benefit(game, 0, {2}, BZ)
    sh = annex_benefit(game, 0, {2}, SH)
    ok = (
        counts.counts == (33, 31, 1, 1, 1, 1, 1)
        and bz.payoff_before == Fraction(33, 69)
        and bz.payoff_after == Fraction(17, 36)
        and not bz.beneficial
        and sh.payoff_after >= sh.payoff_before
    )
    return _check(
        "annexation-can-hurt-banzhaf",
        ok,
        f"counts {counts.counts}, banzhaf {bz.payoff_before}->{bz.payoff_after}",
    )


def _fx_annex_non_monotonicity() -> FixtureResult:
    game = Game(9, (3, 3, 2, 1, 1, 1))
    heavier = annex_benefit(game, 0, {1}, BZ)
    lighter = annex_benefit(game, 0, {2}, BZ)
    witnesses = annex_monotonicity_probe(game, 0, BZ)
    ok = (
        heavier.payoff_after == Fraction(8, 20)
        and lighter.payoff_after == Fraction(7, 17)
        and (0, 1, 2) in witnesses
        and annex_monotonicity_probe(game, 0, SH) == []
    )
    return _check(
        "annexing-lighter-player-can-beat-heavier",
        ok,
        f"values {heavier.payoff_after} vs {lighter.payoff_after}, witnesses {witnesses}",
    )


def _fx_two_heavy_two_way() -> FixtureResult:
    # Both two-way splits of [6;5,5] compute to ratio 2/3, harmful: the
    # remaining heavy player is pivotal in 4 of 6 orderings of the split game.
    game = Game(6, (5, 5))
    summary = scan_two_way_splits(game, 1, SH)
    ok = (
        summary.total_splits == 2
        and summary.harmful == 2
        and all(r.gain_ratio == Fraction(2, 3) for r in summary.reports)
    )
    kway = scan_k_way_splits(game, 1, 2, SH)
    ok = ok and kway.total_splits == 2 and kway.harmful == 2
    return _check(
        "split-[6;5,5]-two-way-ratio-2/3",
        ok,
        f"got {[(r.spec.parts, r.gain_ratio) for r in summary.reports]}",
    )


def _fx_two_heavy_five_way() -> FixtureResult:
    game = Game(6, (5, 5))
    summary = scan_k_way_splits(game, 1, 5, SH)
    report = summary.reports[0]
    ok = (
        summary.total_splits == 1
        and report.classification is Classification.HARMFUL
        and report.payoff_after_total == Fraction(1, 6)
        and report.gain_ratio == Fraction(1, 3)
    )
    return _check("split-[6;5,5]-five-way-ratio-1/3", ok, f"got {report.gain_ratio}")


def _fx_n_way_loss() -> FixtureResult:
    game = Game(7, (6, 6))
    summary = scan_k_way_splits(game, 1, 6, SH)
    report = summary.reports[0]
    ok = report.gain_ratio == Fraction(2, 7) and report.classification is Classification.HARMFUL
    return _check("split-[7;6,6]-six-way-loss-factor-7/2", ok, f"got {report.gain_ratio}")


def _fx_gain_cap_instances() -> FixtureResult:
    for n in range(3, 9):
        report = check_split_bounds(Game(2 * n, (2,) * n), n - 1, SplitSpec(n - 1, (1, 1)))
        if report.shapley_ratio != Fraction(2 * n, n + 1):
            return _check(
                "equal-weights-gain-cap", False, f"n={n} ratio {report.shapley_ratio}"
            )
    return _check("equal-weights-gain-cap", True)


def _fx_loss_cap_instances() -> FixtureResult:
    for n in range(3, 9):
        report = check_split_bounds(Game(2 * n - 1, (2,) * n), n - 1, SplitSpec(n - 1, (1, 1)))
        if report.shapley_ratio != Fraction(2, n + 1):
            return _check(
                "equal-weights-loss-cap", False, f"n={n} ratio {report.shapley_ratio}"
            )
    return _check("equal-weights-loss-cap", True)


def _fx_banzhaf_cap_counts() -> FixtureResult:
    from math import comb

    for n in range(5, 11):
        game = Game(n - 1, (1,) * (n - 1) + (2,))
        counts = critical_counts(game)
        expect_last = n - 1 + comb(n - 1, 2)
        expect_rest = 1 + comb(n - 2, 2)
        beta = normalize_banzhaf(counts)[n - 1]
        if (
            counts[n - 1] != expect_last
            or counts[0] != expect_rest
            or beta != Fraction(n, n * n - 4 * n + 8)
        ):
            return _check("ones-plus-two-counts", False, f"n={n} counts {counts.counts}")
    return _check("ones-plus-two-counts", True)


def _fx_heavy_singleton_split() -> FixtureResult:
    # [3k; 1 x (2k-1), 4k] at k=4: the heavy player's (2k, 2k) split leaves
    # each identity critical for 2^(n-1) coalitions and each unit player
    # critical for 2*C(2k-2, k-1).
    from math import comb

    k = 4
    game = Game(3 * k, (1,) * (2 * k - 1) + (4 * k,))
    player = 2 * k - 1
    report = check_split_bounds(game, player, SplitSpec(player, (2 * k, 2 * k)))
    split_counts = critical_counts(
        Game(3 * k, (1,) * (2 * k - 1) + (2 * k, 2 * k))
    )
    ok = (
        report.banzhaf_before == 1
        and split_counts[2 * k - 1] == 2 ** (2 * k - 1)
        and split_counts[2 * k] == 2 ** (2 * k - 1)
        and split_counts[0] == 2 * comb(2 * k - 2, k - 1)
        and report.count_after_pair == 2 * report.count_before
        and report.banzhaf_ratio is not None
        and Fraction(1, 2 * k) <= report.banzhaf_ratio < 1
    )
    return _check("dictator-even-split-counts", ok, f"ratio {report.banzhaf_ratio}")


def _fx_gadget_no_instance() -> FixtureResult:
    instance = (1, 2)
    for variant in GadgetVariant:
        game, players = reduction_gadget(instance, variant)
        if variant in (GadgetVariant.BI_SPLIT, GadgetVariant.SS_SPLIT):
            kind = BZ if variant is GadgetVariant.BI_SPLIT else SH
            if scan_two_way_splits(game, players[0], kind).beneficial:
                return _check("gadget-no-instance", False, f"{variant} found a split")
        elif variant is GadgetVariant.MERGE:
            if merge_benefit(game, players, SH).beneficial or merge_benefit(game, players, BZ).beneficial:
                return _check("gadget-no-instance", False, "merge benefited")
        else:
            if annex_benefit(game, players[0], {players[1]}, BZ).beneficial:
                return _check("gadget-no-instance", False, "annex benefited")
    return _check("gadget-no-instance", True)


def _fx_gadget_yes_instance() -> FixtureResult:
    instance = (1, 1)
    game, players = reduction_gadget(instance, GadgetVariant.SS_SPLIT)
    ss_ok = scan_two_way_splits(game, players[0], SH).beneficial == 1
    game, players = reduction_gadget(instance, GadgetVariant.MERGE)
    merge_ok = (
        merge_benefit(game, players, SH).beneficial
        and merge_benefit(game, players, BZ).beneficial
    )
    game, players = reduction_gadget(instance, GadgetVariant.ANNEX)
    annex_ok = annex_benefit(game, players[0], {players[1]}, BZ).beneficial
    # The bi_split identities keep count x, like the weight-1 player, while
    # every base player's count doubles, so the (1,1) split gains.
    game, players = reduction_gadget(instance, GadgetVariant.BI_SPLIT)
    bi = scan_two_way_splits(game, players[0], BZ)
    bi_ok = bi.beneficial == 1
    ok = ss_ok and merge_ok and annex_ok and bi_ok
    return _check(
        "gadget-yes-instance",
        ok,
        f"ss={ss_ok} merge={merge_ok} annex={annex_ok} bi={bi_ok}",
    )


def _fx_unanimity_recommendation() -> FixtureResult:
    cases = [
        (Game(6, (2, 2, 2)), SplitSpec(0, (1, 1))),
        (Game(5, (2, 2, 2)), None),
        (Game(10, (4, 3, 3)), SplitSpec(0, (2, 2))),
    ]
    for game, expect in cases:
        got = unanimity_split_recommendation(game)
        if got != expect:
            return _check("unanimity-recommendation", False, f"{game}: {got} != {expect}")
        if got is not None:
            summary = scan_two_way_splits(game, got.player, SH)
            match = [r for r in summary.reports if r.spec == got]
            if not match or match[0].classification is not Classification.BENEFICIAL:
                return _check("unanimity-recommendation", False, f"{game}: not beneficial")
    return _check("unanimity-recommendation", True)


def _fx_high_quota_recommendation() -> FixtureResult:
    game = Game(65, (10, 10, 10, 10, 10, 10, 7))
    got = high_quota_split_recommendation(game, 6)
    if got != SplitSpec(6, (4, 3)):
        return _check("high-quota-recommendation", False, f"got {got}")
    summary = scan_two_way_splits(game, 6, SH)
    match = [r for r in summary.reports if set(r.spec.parts) == {4, 3}]
    ok = bool(match) and match[0].classification is Classification.BENEFICIAL
    if high_quota_split_recommendation(Game(6, (2, 2, 2)), 0) is not None:
        ok = False
    return _check("high-quota-recommendation", ok, "recommended split not beneficial")


def _fx_sample_size_pins() -> FixtureResult:
    ok = (
        abs(sample_size(Fraction(1, 1000), Fraction(1, 100000)) - 6103037) <= 1
        and sample_size(Fraction(1, 100), Fraction(1, 100)) == 26492
        and sample_size(0.5, 2 / 2.718281828459045**2) == 4
    )
    return _check("sample-size-pins", ok, "sample counts drifted")


_FIXTURES: tuple[Callable[[], FixtureResult], ...] = (
    _fx_unanimity_three_twos,
    _fx_three_twos_quota5,
    _fx_three_twos_quota4,
    _fx_opposite_classifications,
    _fx_bloc_paradox,
    _fx_annex_non_monotonicity,
    _fx_two_heavy_two_way,
    _fx_two_heavy_five_way,
    _fx_n_way_loss,
    _fx_gain_cap_instances,
    _fx_loss_cap_instances,
    _fx_banzhaf_cap_counts,
    _fx_heavy_singleton_split,
    _fx_gadget_no_instance,
    _fx_gadget_yes_instance,
    _fx_unanimity_recommendation,
    _fx_high_quota_recommendation,
    _fx_sample_size_pins,
)


def run_fixtures(fixtures=None) -> list[FixtureResult]:
    out = []
    for fx in fixtures if fixtures is not None else _FIXTURES:
        try:
            out.append(fx())
        except Exception as exc:  # a crashed fixture is a failed fixture
            out.append(FixtureResult("fixtures", fx.__name__, False, f"raised {exc!r}"))
    return out


def _random_game(rng: random.Random, max_players: int = 8, max_weight: int = 12) -> Game:
    n = rng.randint(2, max_players)
    weights = tuple(rng.randint(1, max_weight) for _ in range(n))
    return Game(rng.randint(1, sum(weights)), weights)


def _enumerated(game: Game, kind: IndexKind):
    if kind is SH:
        return shapley_enumerate(game)
    return normalize_banzhaf(banzhaf_counts_enumerate(game))


def _crashed(suite: str, check: str, game: Game, exc: Exception) -> list[FixtureResult]:
    """A check that raised is a failed check, as a crashed fixture is."""
    return [FixtureResult(suite, check, False, f"{game}: raised {exc!r}")]


def run_oracle_suite(trials: int, seed: int) -> list[FixtureResult]:
    """DP against enumeration, normalization/symmetry/dummy/scaling, three-way
    splits, and merges and annexations against enumeration of the merged game."""
    rng = random.Random(seed)
    for t in range(trials):
        game = _random_game(rng)
        check = "dp-matches-enumeration"
        try:
            sh_enum = shapley_enumerate(game)
            sh_dp = shapley_dp_vector(game)
            if sh_enum != sh_dp:
                return [FixtureResult("oracle", check, False, f"{game} shapley")]
            bz_enum = banzhaf_counts_enumerate(game)
            bz_dp = banzhaf_counts_dp_vector(game)
            if bz_enum != bz_dp:
                return [FixtureResult("oracle", check, False, f"{game} banzhaf")]
            check = "normalization"
            for vec in (sh_enum, normalize_banzhaf(bz_enum)):
                if sum(vec.values) != 1:
                    return [FixtureResult("oracle", check, False, str(game))]
                for i in range(game.num_players):
                    for j in range(i + 1, game.num_players):
                        if game.weights[i] == game.weights[j] and vec[i] != vec[j]:
                            return [FixtureResult("oracle", "symmetry", False, str(game))]
            for i in range(game.num_players):
                if (bz_enum[i] == 0) != (sh_enum[i] == 0):
                    return [FixtureResult("oracle", "dummy-agreement", False, str(game))]
            check = "scale-invariance"
            c = rng.randint(2, 3)
            scaled = Game(c * game.quota, tuple(c * w for w in game.weights))
            if index(scaled, SH) != sh_enum or index(scaled, BZ) != normalize_banzhaf(bz_enum):
                return [FixtureResult("oracle", check, False, str(game))]
            player = rng.randrange(game.num_players)
            # the player merges with, or annexes, every second other player
            annexed = [p for p in range(game.num_players) if p != player][::2]
            merged = apply_merge(game, [player, *annexed])
            for kind, vec in ((SH, sh_enum), (BZ, normalize_banzhaf(bz_enum))):
                check = "k-way-matches-enumeration"
                before = vec[player]
                for report in scan_k_way_splits(game, player, 3, kind).reports:
                    split = apply_split(game, report.spec)
                    split_vec = _enumerated(split.game, kind)
                    after = sum(split_vec[p] for p in split.new_players)
                    if (report.payoff_before, report.payoff_after_total) != (before, after):
                        return [FixtureResult("oracle", check, False, str(game))]
                check = "merge-annex-match-enumeration"
                after = _enumerated(merged.game, kind)[merged.merged_player]
                merge = merge_benefit(game, [player, *annexed], kind)
                annex = annex_benefit(game, player, annexed, kind)
                got = (
                    merge.payoff_before_total, merge.payoff_after,
                    annex.payoff_before, annex.payoff_after,
                )
                if got != (before + sum(vec[p] for p in annexed), after, before, after):
                    return [FixtureResult("oracle", check, False, str(game))]
        except Exception as exc:
            return _crashed("oracle", check, game, exc)
    return [FixtureResult("oracle", f"engines-agree-on-{trials}-random-games", True)]


def run_bounds_suite(trials: int, seed: int) -> list[FixtureResult]:
    """Split bounds, the count identity, and the annexation guarantees."""
    rng = random.Random(seed)
    worst_high = None
    worst_low = None
    for t in range(trials):
        game = _random_game(rng)
        player = rng.randrange(game.num_players)
        w = game.weights[player]
        if w >= 2:
            j = rng.randint(1, w // 2)
            try:
                report = check_split_bounds(game, player, SplitSpec(player, (j, w - j)))
            except Exception as exc:
                return [FixtureResult("bounds", "split-bounds", False, f"{game}: {exc}")]
            if report.banzhaf_ratio is not None:
                scaled = report.banzhaf_ratio * game.num_players
                if worst_low is None or scaled < worst_low:
                    worst_low = scaled
            if report.shapley_ratio is not None:
                rel = report.shapley_ratio * Fraction(game.num_players + 1, 2 * game.num_players)
                if worst_high is None or rel > worst_high:
                    worst_high = rel
        # annexation guarantees
        others = [p for p in range(game.num_players) if p != player]
        if not others:
            continue
        size = rng.randint(1, len(others))
        coalition = rng.sample(others, size)
        check = "annex-never-hurts-shapley"
        try:
            sh = annex_benefit(game, player, coalition, SH)
            if sh.payoff_after < sh.payoff_before:
                return [FixtureResult("bounds", check, False, str(game))]
            if len(others) >= 2:
                a, b = rng.sample(others, 2)
                if game.weights[a] < game.weights[b]:
                    a, b = b, a
                check = "annex-monotone-shapley"
                va = annex_benefit(game, player, [a], SH).payoff_after
                vb = annex_benefit(game, player, [b], SH).payoff_after
                if va < vb:
                    return [FixtureResult("bounds", check, False, str(game))]
                check = "annex-banzhaf-half"
                bz = annex_benefit(game, player, [a], BZ)
                if 2 * bz.payoff_after < bz.payoff_before:
                    return [FixtureResult("bounds", check, False, str(game))]
                if game.weights[player] <= game.weights[a] and bz.payoff_after < bz.payoff_before:
                    return [FixtureResult("bounds", "annex-banzhaf-upward", False, str(game))]
        except Exception as exc:
            return _crashed("bounds", check, game, exc)
    detail = (
        f"worst n*banzhaf-ratio {worst_low}; "
        f"worst shapley ratio over cap fraction {worst_high}"
    )
    return [FixtureResult("bounds", f"bounds-hold-on-{trials}-random-trials", True, detail)]


SUITES = ("fixtures", "oracle", "bounds")


def run(suite: str = "all", trials: int = 200, seed: int = 0) -> list[FixtureResult]:
    if trials < 1:
        raise InvalidConfigError(f"trials must be at least 1 (got {trials})")
    results = []
    if suite in ("all", "fixtures"):
        results.extend(run_fixtures())
    if suite in ("all", "oracle"):
        results.extend(run_oracle_suite(trials, seed))
    if suite in ("all", "bounds"):
        results.extend(run_bounds_suite(trials, seed))
    return results
