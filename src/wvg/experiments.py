"""Random-game generation and beneficial-split statistics at configurable scale.

Games are generated per (sigma, index) cell from seeds derived with the same
scheme the samplers use, so a run is reproducible bit for bit regardless of
how the work is scheduled. Every player of every game is scanned over all of
its two-way integer splits; aggregates are grouped by (sigma, player count).
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import InvalidConfigError
from .exact import IndexKind, game_table
from .game import Game
from .manipulation import Engine, ScanSummary, scan_two_way_splits
from .montecarlo import McConfig, _as_margin, _as_probability, derive_seed

HISTOGRAM_BINS = 200
BIN_WIDTH = Fraction(1, HISTOGRAM_BINS)


@dataclass(frozen=True)
class ExperimentConfig:
    weight_mean: float = 50.0
    weight_sigma_set: tuple[float, ...] = (5.0, 15.0, 25.0)
    player_range: tuple[int, int] = (5, 12)
    games_per_cell: int = 100
    epsilon: Fraction = Fraction(1, 1000)
    delta: Fraction = Fraction(1, 100000)
    beneficial_margin: Fraction | None = None
    seed: int = 0
    engine: Engine = Engine.EXACT
    kind: IndexKind = IndexKind.SHAPLEY_SHUBIK
    unanimity_quota: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "weight_sigma_set", tuple(self.weight_sigma_set))
        object.__setattr__(self, "epsilon", _as_probability(self.epsilon, "epsilon"))
        object.__setattr__(self, "delta", _as_probability(self.delta, "delta"))
        object.__setattr__(self, "engine", Engine(self.engine))
        object.__setattr__(self, "kind", IndexKind(self.kind))
        lo, hi = self.player_range
        if lo < 2 or hi < lo:
            raise InvalidConfigError(f"player range must satisfy 2 <= min <= max, got {self.player_range}")
        if self.games_per_cell < 1:
            raise InvalidConfigError("games_per_cell must be at least 1")
        if not self.weight_sigma_set:
            raise InvalidConfigError("weight_sigma_set must name at least one sigma")
        # Weights are drawn as floats and rounded; above 2**53 a float skips integers.
        sigmas = [("sigma", s) for s in self.weight_sigma_set]
        for name, x in [("weight_mean", self.weight_mean), *sigmas]:
            if not 0 < x < 2**53:
                raise InvalidConfigError(
                    f"{name} must be positive, finite and below 2**53, got {x}"
                )
        if self.beneficial_margin is not None:
            if self.engine is Engine.EXACT:
                raise InvalidConfigError("beneficial_margin applies to the Monte-Carlo engine only")
            margin = _as_margin(self.beneficial_margin, "beneficial_margin")
            object.__setattr__(self, "beneficial_margin", margin)

    @classmethod
    def faithful(cls, seed: int = 0, kind: IndexKind = IndexKind.SHAPLEY_SHUBIK) -> "ExperimentConfig":
        """The full-scale protocol settings (slow; meant for cluster runs)."""
        return cls(
            weight_mean=200.0,
            weight_sigma_set=tuple(float(s) for s in range(5, 55, 5)),
            player_range=(5, 24),
            games_per_cell=1000,
            epsilon=Fraction(1, 1000),
            delta=Fraction(1, 100000),
            seed=seed,
            engine=Engine.MONTE_CARLO,
            kind=kind,
        )


@dataclass(frozen=True)
class GameRecord:
    game: Game
    scans: tuple[ScanSummary, ...]
    has_beneficial: bool
    beneficial_fraction: Fraction


@dataclass(frozen=True)
class CellStats:
    sigma: float
    n_players: int
    games: int
    frac_with_beneficial: Fraction
    mean_beneficial_fraction: Fraction


@dataclass(frozen=True)
class ExperimentStats:
    kind: IndexKind
    engine: Engine
    cells: tuple[CellStats, ...]
    histogram: tuple[int, ...]
    games_total: int
    games_with_beneficial: int
    splits_total: int
    splits_beneficial: int
    splits_harmful: int
    splits_neutral: int
    sum_beneficial_fraction: Fraction

    @property
    def frac_games_with_beneficial(self) -> Fraction:
        return Fraction(self.games_with_beneficial, self.games_total)

    @property
    def mean_beneficial_fraction(self) -> Fraction:
        return self.sum_beneficial_fraction / self.games_total

    @property
    def overall_beneficial_fraction(self) -> Fraction:
        if self.splits_total == 0:
            return Fraction(0)
        return Fraction(self.splits_beneficial, self.splits_total)


def round_half_away(x: float) -> int:
    return int(math.copysign(math.floor(abs(x) + 0.5), x))


def generate_game(config: ExperimentConfig, rng: random.Random, sigma: float) -> Game:
    """Draw one game: uniform player count, normal weights, uniform quota.

    Weights round half away from zero and redraw until positive; the quota is
    clamped into [1, total weight].
    """
    lo, hi = config.player_range
    n = rng.randint(lo, hi)
    weights = []
    for _ in range(n):
        w = 0
        while w < 1:
            w = round_half_away(rng.normalvariate(config.weight_mean, sigma))
        weights.append(w)
    total = sum(weights)
    if config.unanimity_quota:
        quota = total
    else:
        quota = min(max(round_half_away(rng.uniform(0.0, total)), 1), total)
    return Game(quota, tuple(weights))


def scan_game(
    game: Game,
    kind: IndexKind,
    engine: Engine = Engine.EXACT,
    mc_config: McConfig | None = None,
    margin: Fraction | None = None,
) -> GameRecord:
    """Scan all two-way splits of every player and fold them into one record.

    The exact engine builds one counting table for the game and shares it
    across every player's scan.
    """
    table = game_table(game, kind) if Engine(engine) is Engine.EXACT else None
    scans = tuple(
        scan_two_way_splits(
            game, p, kind, engine=engine, mc_config=mc_config, margin=margin, table=table
        )
        for p in range(game.num_players)
    )
    beneficial = sum(s.beneficial for s in scans)
    total = sum(s.total_splits for s in scans)
    return GameRecord(
        game=game,
        scans=scans,
        has_beneficial=beneficial > 0,
        beneficial_fraction=Fraction(beneficial, total) if total else Fraction(0),
    )


def histogram_bin(fraction: Fraction) -> int:
    return min(int(fraction * HISTOGRAM_BINS), HISTOGRAM_BINS - 1)


def run_experiment(config: ExperimentConfig) -> ExperimentStats:
    # (sigma, players) -> [games, games with a beneficial split, sum of beneficial fractions]
    per_cell: dict[tuple[float, int], list] = {}
    histogram = [0] * HISTOGRAM_BINS
    splits = {"beneficial": 0, "harmful": 0, "neutral": 0, "total": 0}
    for sigma in config.weight_sigma_set:
        for g in range(config.games_per_cell):
            rng = random.Random(derive_seed("experiment-gen", config.seed, sigma, g))
            game = generate_game(config, rng, sigma)
            mc_config = None
            if config.engine is Engine.MONTE_CARLO:
                mc_config = McConfig(
                    config.epsilon,
                    config.delta,
                    seed=derive_seed("experiment-mc", config.seed, sigma, g),
                )
            record = scan_game(
                game, config.kind, config.engine, mc_config, config.beneficial_margin
            )
            cell = per_cell.setdefault((sigma, game.num_players), [0, 0, Fraction(0)])
            cell[0] += 1
            cell[1] += record.has_beneficial
            cell[2] += record.beneficial_fraction
            histogram[histogram_bin(record.beneficial_fraction)] += 1
            for s in record.scans:
                splits["beneficial"] += s.beneficial
                splits["harmful"] += s.harmful
                splits["neutral"] += s.neutral
                splits["total"] += s.total_splits
    cells = [
        CellStats(
            sigma=sigma,
            n_players=n,
            games=games,
            frac_with_beneficial=Fraction(with_beneficial, games),
            mean_beneficial_fraction=frac_total / games,
        )
        for (sigma, n), (games, with_beneficial, frac_total) in sorted(per_cell.items())
    ]
    return ExperimentStats(
        kind=config.kind,
        engine=config.engine,
        cells=tuple(cells),
        histogram=tuple(histogram),
        games_total=sum(c[0] for c in per_cell.values()),
        games_with_beneficial=sum(c[1] for c in per_cell.values()),
        splits_total=splits["total"],
        splits_beneficial=splits["beneficial"],
        splits_harmful=splits["harmful"],
        splits_neutral=splits["neutral"],
        sum_beneficial_fraction=sum((c[2] for c in per_cell.values()), Fraction(0)),
    )


# --- export / import ---------------------------------------------------------

def _frac_str(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def stats_to_json_obj(stats: ExperimentStats) -> dict:
    by_sigma: dict[float, list[CellStats]] = {}
    by_n: dict[int, list[CellStats]] = {}
    for c in stats.cells:
        by_sigma.setdefault(c.sigma, []).append(c)
        by_n.setdefault(c.n_players, []).append(c)

    def series(groups: dict, key_name: str) -> list[dict]:
        out = []
        for key in sorted(groups):
            cells = groups[key]
            games = sum(c.games for c in cells)
            with_ben = sum(c.frac_with_beneficial * c.games for c in cells)
            out.append(
                {
                    key_name: key,
                    "games": games,
                    "frac_with_beneficial": float(with_ben / games),
                }
            )
        return out

    return {
        "kind": stats.kind.value,
        "engine": stats.engine.value,
        "cells": [
            {
                "sigma": c.sigma,
                "n_players": c.n_players,
                "games": c.games,
                "frac_with_beneficial": _frac_str(c.frac_with_beneficial),
                "mean_beneficial_fraction": _frac_str(c.mean_beneficial_fraction),
            }
            for c in stats.cells
        ],
        "histogram": {"bin_width": float(BIN_WIDTH), "counts": list(stats.histogram)},
        "totals": {
            "games_total": stats.games_total,
            "games_with_beneficial": stats.games_with_beneficial,
            "splits_total": stats.splits_total,
            "splits_beneficial": stats.splits_beneficial,
            "splits_harmful": stats.splits_harmful,
            "splits_neutral": stats.splits_neutral,
            "sum_beneficial_fraction": _frac_str(stats.sum_beneficial_fraction),
        },
        "series": {
            "proportion_vs_sigma": series(by_sigma, "sigma"),
            "proportion_vs_players": series(by_n, "n_players"),
        },
    }


def stats_from_json_obj(obj: dict) -> ExperimentStats:
    totals = obj["totals"]
    return ExperimentStats(
        kind=IndexKind(obj["kind"]),
        engine=Engine(obj["engine"]),
        cells=tuple(
            CellStats(
                sigma=c["sigma"],
                n_players=c["n_players"],
                games=c["games"],
                frac_with_beneficial=Fraction(c["frac_with_beneficial"]),
                mean_beneficial_fraction=Fraction(c["mean_beneficial_fraction"]),
            )
            for c in obj["cells"]
        ),
        histogram=tuple(obj["histogram"]["counts"]),
        games_total=totals["games_total"],
        games_with_beneficial=totals["games_with_beneficial"],
        splits_total=totals["splits_total"],
        splits_beneficial=totals["splits_beneficial"],
        splits_harmful=totals["splits_harmful"],
        splits_neutral=totals["splits_neutral"],
        sum_beneficial_fraction=Fraction(totals["sum_beneficial_fraction"]),
    )


def stats_to_csv(stats: ExperimentStats) -> str:
    lines = ["sigma,n_players,games,frac_with_beneficial,mean_beneficial_fraction"]
    for c in stats.cells:
        lines.append(
            f"{c.sigma},{c.n_players},{c.games},"
            f"{float(c.frac_with_beneficial):.6f},{float(c.mean_beneficial_fraction):.6f}"
        )
    return "\n".join(lines) + "\n"


def export_stats(stats: ExperimentStats, fmt: str) -> str:
    if fmt == "csv":
        return stats_to_csv(stats)
    if fmt == "json":
        return json.dumps(stats_to_json_obj(stats), indent=2) + "\n"
    raise InvalidConfigError(f"unknown export format {fmt!r} (expected 'csv' or 'json')")


def stats_from_json(text: str) -> ExperimentStats:
    return stats_from_json_obj(json.loads(text))
