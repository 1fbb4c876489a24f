"""Acceptance gate: one test per criterion, each printing a pass/fail line.

The two ``*_as_specified`` checks pin claims stated for the package. The
two-way splits of [6;5,5] are checked against permutation enumeration in
tests/_oracles.py: each split is harmful at ratio 2/3, and 4/3 is the gain
of the player who does not split. The bi_split check asks that a beneficial
Banzhaf split exists exactly on PARTITION yes-instances, which the gadget
[4T+1; 8a_1, ..., 8a_k, 1, 2] gives. Each check's docstring carries its
analysis.
"""

import random
import time
from fractions import Fraction
from math import comb

import pytest

from wvg import (
    Classification,
    ExperimentConfig,
    Game,
    GadgetVariant,
    IndexKind,
    McConfig,
    SplitSpec,
    annex_benefit,
    annex_monotonicity_probe,
    apply_split,
    banzhaf_counts_dp_vector,
    banzhaf_counts_enumerate,
    check_split_bounds,
    critical_counts,
    merge_benefit,
    normalize_banzhaf,
    reduction_gadget,
    run_experiment,
    sample_size,
    scan_k_way_splits,
    scan_two_way_splits,
    shapley_dp_vector,
    shapley_enumerate,
    shapley_mc,
)
from wvg.cli import main as cli_main

from _oracles import partition_decider, shapley_by_permutations

SH = IndexKind.SHAPLEY_SHUBIK
BZ = IndexKind.BANZHAF


def report(line: str) -> None:
    print(f"ACCEPTANCE {line}")


# --- criterion 1: worked-example fixture table -------------------------------

def test_criterion_1_worked_examples():
    t0 = time.time()

    # advantageous split: gain factor exactly 3/2 for both indices
    for kind in (SH, BZ):
        summary = scan_two_way_splits(Game(6, (2, 2, 2)), 2, kind)
        assert summary.reports[0].gain_ratio == Fraction(3, 2)
        assert summary.reports[0].classification is Classification.BENEFICIAL

    # disadvantageous split: loss factor 2 (Shapley) and 4/3 (Banzhaf)
    sh = scan_two_way_splits(Game(5, (2, 2, 2)), 2, SH).reports[0]
    bz = scan_two_way_splits(Game(5, (2, 2, 2)), 2, BZ).reports[0]
    assert sh.gain_ratio == Fraction(1, 2) and sh.classification is Classification.HARMFUL
    assert bz.gain_ratio == Fraction(3, 4) and bz.classification is Classification.HARMFUL

    # neutral split, both indices
    for kind in (SH, BZ):
        assert (
            scan_two_way_splits(Game(4, (2, 2, 2)), 2, kind).reports[0].classification
            is Classification.NEUTRAL
        )

    # opposite classifications on the same split
    game = Game(5, (2, 1, 1, 1, 1))
    sh = scan_two_way_splits(game, 0, SH).reports[0]
    bz = scan_two_way_splits(game, 0, BZ).reports[0]
    assert sh.payoff_before == Fraction(2, 5)
    assert bz.payoff_before == Fraction(5, 17)
    assert sh.payoff_after_total == bz.payoff_after_total == Fraction(1, 3)
    assert sh.classification is Classification.HARMFUL
    assert bz.classification is Classification.BENEFICIAL

    # annexation that hurts the Banzhaf index but never the Shapley index
    game = Game(11, (6, 5, 1, 1, 1, 1, 1))
    bz = annex_benefit(game, 0, {2}, BZ)
    assert bz.payoff_before == Fraction(33, 69)
    assert bz.payoff_after == Fraction(17, 36)
    assert not bz.beneficial
    sh = annex_benefit(game, 0, {2}, SH)
    assert sh.payoff_after >= sh.payoff_before

    # annexing a lighter player can beat annexing a heavier one
    game = Game(9, (3, 3, 2, 1, 1, 1))
    assert annex_benefit(game, 0, {1}, BZ).payoff_after == Fraction(8, 20)
    assert annex_benefit(game, 0, {2}, BZ).payoff_after == Fraction(7, 17)
    assert (0, 1, 2) in annex_monotonicity_probe(game, 0, BZ)

    # five-way split of [6;5,5] collapses to 1/6 total, ratio 1/3
    five = scan_k_way_splits(Game(6, (5, 5)), 1, 5, SH).reports[0]
    assert five.payoff_after_total == Fraction(1, 6)
    assert five.gain_ratio == Fraction(1, 3)
    assert five.classification is Classification.HARMFUL

    # [7;6,6]: the six-way split loses a factor of exactly 7/2
    six = scan_k_way_splits(Game(7, (6, 6)), 1, 6, SH).reports[0]
    assert six.gain_ratio == Fraction(2, 7)

    elapsed = time.time() - t0
    assert elapsed < 1.0, f"fixture table took {elapsed:.2f}s"
    report(f"PASS criterion 1: worked examples ({elapsed * 1000:.0f} ms)")


def test_criterion_1_two_heavy_two_way_splits_as_specified():
    """Two-way splits of player 1 in [6;5,5]: each is harmful, ratio 2/3.

    In [6;5,a,b] with a + b = 5 the remaining heavy player is pivotal in 4
    of the 3! orderings, so the two identities share 1/3 against a prior
    payoff of 1/2: ratio 2/3. A gain of 4/3 does occur, but for the player
    who does not split: its value goes from 1/2 to 2/3.
    """
    game = Game(6, (5, 5))
    summary = scan_two_way_splits(game, 1, SH)
    assert summary.total_splits == 2
    assert {r.spec.parts for r in summary.reports} == {(1, 4), (2, 3)}
    before = shapley_by_permutations(game)
    assert before == [Fraction(1, 2), Fraction(1, 2)]
    for r in summary.reports:
        assert r.payoff_before == Fraction(1, 2)
        assert r.payoff_after_total == Fraction(1, 3)
        assert r.gain_ratio == Fraction(2, 3)
        assert r.classification is Classification.HARMFUL
        after = shapley_by_permutations(apply_split(game, r.spec).game)
        assert after == [Fraction(2, 3), Fraction(1, 6), Fraction(1, 6)]
        assert sum(after[1:]) == r.payoff_after_total
        assert after[0] / before[0] == Fraction(4, 3)
    report(
        "PASS criterion 1: two-way splits of [6;5,5] are harmful at ratio 2/3; "
        "the non-splitter gains 4/3"
    )


# --- criterion 2: oracle equivalence ------------------------------------------

def test_criterion_2_engine_equivalence_on_1000_games():
    rng = random.Random(20260809)
    t0 = time.time()
    for _ in range(1000):
        n = rng.randint(2, 10)
        weights = tuple(rng.randint(1, 25) for _ in range(n))
        game = Game(rng.randint(1, sum(weights)), weights)
        assert shapley_dp_vector(game) == shapley_enumerate(game)
        assert banzhaf_counts_dp_vector(game) == banzhaf_counts_enumerate(game)
    elapsed = time.time() - t0
    assert elapsed < 60.0, f"oracle equivalence took {elapsed:.1f}s"
    report(f"PASS criterion 2: DP equals enumeration on 1000 games ({elapsed:.1f} s)")


# --- criterion 3: bound suite -------------------------------------------------

def test_criterion_3_split_bounds_and_annex_guarantees():
    rng = random.Random(333)
    t0 = time.time()
    pairs = 0
    while pairs < 2000:
        n = rng.randint(2, 12)
        weights = tuple(rng.randint(1, 15) for _ in range(n))
        game = Game(rng.randint(1, sum(weights)), weights)
        player = rng.randrange(n)
        w = weights[player]
        if w < 2:
            continue
        j = rng.randint(1, w // 2)
        # raises BoundViolationError on any failed bound; zero tolerated
        result = check_split_bounds(game, player, SplitSpec(player, (j, w - j)))
        assert result.count_after_pair == 2 * result.count_before
        pairs += 1

    annexations = 0
    while annexations < 1000:
        n = rng.randint(3, 9)
        weights = tuple(rng.randint(1, 12) for _ in range(n))
        game = Game(rng.randint(1, sum(weights)), weights)
        i = rng.randrange(n)
        others = [p for p in range(n) if p != i]
        coalition = rng.sample(others, rng.randint(1, len(others)))
        sh = annex_benefit(game, i, coalition, SH)
        assert sh.payoff_after >= sh.payoff_before
        a, b = rng.sample(others, 2)
        if game.weights[a] < game.weights[b]:
            a, b = b, a
        va = annex_benefit(game, i, [a], SH).payoff_after
        vb = annex_benefit(game, i, [b], SH).payoff_after
        assert va >= vb
        bz = annex_benefit(game, i, [a], BZ)
        assert 2 * bz.payoff_after >= bz.payoff_before
        if game.weights[i] <= game.weights[a]:
            assert bz.payoff_after >= bz.payoff_before
        annexations += 1
    elapsed = time.time() - t0
    report(
        "PASS criterion 3: 2000 split pairs and 1000 annexations, "
        f"zero violations ({elapsed:.1f} s)"
    )


# --- criterion 4: tight instances ---------------------------------------------

def test_criterion_4_tight_instances():
    for n in range(3, 9):
        gain = check_split_bounds(Game(2 * n, (2,) * n), n - 1, SplitSpec(n - 1, (1, 1)))
        assert gain.shapley_ratio == Fraction(2 * n, n + 1)
        loss = check_split_bounds(Game(2 * n - 1, (2,) * n), n - 1, SplitSpec(n - 1, (1, 1)))
        assert loss.shapley_ratio == Fraction(2, n + 1)
    for n in range(5, 11):
        game = Game(n - 1, (1,) * (n - 1) + (2,))
        counts = critical_counts(game)
        assert counts[n - 1] == n - 1 + comb(n - 1, 2)
        assert counts[0] == 1 + comb(n - 2, 2)
        assert normalize_banzhaf(counts)[n - 1] == Fraction(n, n * n - 4 * n + 8)
    report("PASS criterion 4: tight instances hit their exact ratios")


# --- criterion 5: reduction gadgets -------------------------------------------

def _gadget_instances(count: int, seed: int):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        k = rng.randint(1, 12)
        out.append(tuple(rng.randint(1, 20) for _ in range(k)))
    return out


GADGET_INSTANCES = _gadget_instances(50, 555)


def test_criterion_5_gadget_ss_split():
    t0 = time.time()
    for instance in GADGET_INSTANCES:
        expected = partition_decider(instance)
        game, (player,) = reduction_gadget(instance, GadgetVariant.SS_SPLIT)
        got = scan_two_way_splits(game, player, SH).beneficial > 0
        assert got == expected, f"instance {instance}: engine {got}, decider {expected}"
    elapsed = time.time() - t0
    assert elapsed < 120.0
    report(f"PASS criterion 5 (ss_split): 50 instances agree ({elapsed:.1f} s)")


def test_criterion_5_gadget_merge():
    t0 = time.time()
    for instance in GADGET_INSTANCES:
        expected = partition_decider(instance)
        game, players = reduction_gadget(instance, GadgetVariant.MERGE)
        assert merge_benefit(game, players, SH).beneficial == expected
        assert merge_benefit(game, players, BZ).beneficial == expected
    elapsed = time.time() - t0
    assert elapsed < 120.0
    report(f"PASS criterion 5 (merge): 50 instances agree, both kinds ({elapsed:.1f} s)")


def test_criterion_5_gadget_annex():
    t0 = time.time()
    for instance in GADGET_INSTANCES:
        expected = partition_decider(instance)
        game, (annexer, target) = reduction_gadget(instance, GadgetVariant.ANNEX)
        assert annex_benefit(game, annexer, {target}, BZ).beneficial == expected
    elapsed = time.time() - t0
    assert elapsed < 120.0
    report(f"PASS criterion 5 (annex): 50 instances agree ({elapsed:.1f} s)")


def test_criterion_5_gadget_bi_split_as_specified():
    """bi_split decision equivalence.

    The gadget [4T+1; 8a_1, ..., 8a_k, 1, 2] splits its weight-2 player.
    With x the number of base coalitions of instance sum T/2, both (1,1)
    identities and the weight-1 player keep criticality count x while every
    base player's count doubles, so with A the base players' summed count
    the gain ratio is (4x + 2A)/(3x + 2A): above 1 exactly when x > 0, that
    is, on yes-instances. Without the weight-1 player
    ([4T+2; 8a_1, ..., 8a_k, 2]) the split would be exactly neutral on every
    instance, and this check would fail on every yes-instance.
    """
    mismatches = []
    for instance in GADGET_INSTANCES:
        expected = partition_decider(instance)
        game, (player,) = reduction_gadget(instance, GadgetVariant.BI_SPLIT)
        summary = scan_two_way_splits(game, player, BZ)
        got = summary.beneficial > 0
        if got != expected:
            assert summary.neutral == summary.total_splits, "expected exact neutrality"
            mismatches.append(instance)
    if mismatches:
        report(
            f"FAIL criterion 5 (bi_split): {len(mismatches)} of {len(GADGET_INSTANCES)} "
            "instances disagree with the decider; every mismatch is a yes-instance "
            "whose split is exactly neutral"
        )
    assert not mismatches, (
        f"bi_split gadget cannot certify yes-instances (exactly neutral splits) on "
        f"{len(mismatches)} of {len(GADGET_INSTANCES)} instances, e.g. {mismatches[0]}"
    )


# --- criterion 6: Monte-Carlo contract ----------------------------------------

def test_criterion_6_sampling_contract():
    t0 = time.time()
    game = Game(5, (2, 1, 1, 1, 1))
    exact = Fraction(2, 5)
    eps = Fraction(1, 50)
    misses = 0
    for seed in range(400):
        est = shapley_mc(game, 0, McConfig(eps, Fraction(1, 20), seed=seed))
        assert est.samples_used == 4612
        misses += abs(est.value - exact) > eps
    assert misses / 400 <= 0.05 + 0.03, f"miss rate {misses / 400}"

    # pinned by high-precision evaluation of ceil(ln(2/delta) / (2 eps^2))
    assert abs(sample_size(Fraction(1, 1000), Fraction(1, 100000)) - 6_103_037) <= 1
    elapsed = time.time() - t0
    report(
        f"PASS criterion 6: {misses}/400 runs outside epsilon (limit 32); "
        f"sample pins hold ({elapsed:.1f} s)"
    )


# --- criterion 7: scaled empirical study ---------------------------------------

def test_criterion_7_scaled_study():
    t0 = time.time()
    fractions = {}
    for kind in (SH, BZ):
        stats = run_experiment(ExperimentConfig(games_per_cell=100, seed=2026, kind=kind))
        assert stats.games_total == 300
        assert stats.frac_games_with_beneficial >= Fraction(3, 4), (
            f"{kind.value}: {float(stats.frac_games_with_beneficial):.4f}"
        )
        assert stats.overall_beneficial_fraction <= Fraction(11, 20), (
            f"{kind.value}: {float(stats.overall_beneficial_fraction):.4f}"
        )
        fractions[kind.value] = (
            float(stats.frac_games_with_beneficial),
            float(stats.overall_beneficial_fraction),
        )
        control = run_experiment(
            ExperimentConfig(
                games_per_cell=10, seed=2026, kind=kind, unanimity_quota=True
            )
        )
        assert control.frac_games_with_beneficial == 1
    elapsed = time.time() - t0
    assert elapsed < 600.0, f"scaled study took {elapsed:.0f}s"
    report(
        "PASS criterion 7: "
        + "; ".join(
            f"{k}: with-beneficial {a:.3f} (>=0.75), split fraction {b:.3f} (<=0.55)"
            for k, (a, b) in fractions.items()
        )
        + f"; unanimity controls exactly 1.0 ({elapsed:.0f} s)"
    )


# --- criterion 8: determinism ---------------------------------------------------

def _cli_bytes(capsys, *args) -> str:
    code = cli_main(list(args))
    out = capsys.readouterr().out
    assert code in (0, 1)
    return f"{code}\n{out}"


@pytest.mark.parametrize(
    "args",
    [
        ("index", "--game", "7;3,2,2,1,1", "--engine", "mc", "--epsilon", "0.03",
         "--delta", "0.1", "--seed", "11"),
        ("index", "--game", "7;3,2,2,1,1", "--engine", "mc", "--kind", "banzhaf",
         "--epsilon", "0.03", "--delta", "0.1", "--seed", "11"),
        ("find-split", "--game", "6;2,2,2", "--player", "2", "--epsilon", "0.02",
         "--delta", "0.05", "--seed", "11"),
        ("scan", "--game", "6;2,2,2", "--player", "2", "--engine", "mc",
         "--epsilon", "0.05", "--delta", "0.1", "--seed", "11"),
        ("experiment", "--mu", "12", "--sigmas", "3,6", "--players", "3:6",
         "--games-per-cell", "5", "--seed", "11"),
        ("verify", "--suite", "bounds", "--trials", "60", "--seed", "7"),
    ],
    ids=["mc-index", "mc-banzhaf", "find-split", "mc-scan", "experiment", "verify"],
)
def test_criterion_8_identical_runs(capsys, args):
    first = _cli_bytes(capsys, *args)
    second = _cli_bytes(capsys, *args)
    assert first == second


def test_criterion_8_worker_count_invariance(capsys):
    base = (
        "index", "--game", "7;3,2,2,1,1", "--engine", "mc", "--epsilon", "0.02",
        "--delta", "0.05", "--seed", "13",
    )
    runs = {_cli_bytes(capsys, *base, "--threads", str(t)) for t in (1, 2, 4)}
    assert len(runs) == 1
    report("PASS criterion 8: byte-identical output across repeats and worker counts")
