"""Seeded inputs for each workload, as cycles of `wvg` command lines.

A run repeats whole cycles, so every run sees the same mix of operations
whatever its speed. Cycle ``c`` of seed ``s`` is a pure function of (s, c):
the same seed always gives the same command lines, and the program sees
only those command lines.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from itertools import count

from wvg import ExperimentConfig, derive_seed, generate_game

SHAPLEY = "shapley"
BANZHAF = "banzhaf"
KINDS = (SHAPLEY, BANZHAF)

GRID_MU = 200
GRID_SIGMAS = (5, 25, 50)
GRID_PLAYERS = tuple(range(5, 25))
GRID_QUOTA_STRATA = len(GRID_PLAYERS) * len(GRID_SIGMAS)
QUERY_MU = 200
QUERY_SIGMAS = (25, 50)
QUOTA_BANDS = 5


@dataclass(frozen=True)
class Op:
    """One closed-loop call: ``wvg.cli.main(argv)``.

    ``cls`` is "study" (a `wvg experiment` run), "exact" or "mc" (a single-game
    query). ``kind`` is the index kind, or None for `bounds`, which computes
    both. ``game`` is (quota, weights) for queries and None for studies.
    """

    argv: tuple[str, ...]
    cls: str
    kind: str | None
    game: tuple[int, tuple[int, ...]] | None = None


def derive(*parts: object) -> int:
    text = ":".join(str(p) for p in parts)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


def _grid_seed(seed: int, cycle: int, n: int, s: int) -> int:
    """An `experiment --seed` whose one game has its quota in its stratum.

    A game's cost grows with its quota, which the program draws uniformly
    over [0, total weight]; one 24-player Shapley game takes 0.3 to 1.8 s.
    Left to chance, a handful of such games would set a run's throughput,
    and which games sit near the median latency. So the quota fraction is
    stratified into one equal band per (sigma, player count) of a cycle:
    every cycle visits every band once, each player count gets three bands a
    third of the range apart, and the assignment shifts from cycle to cycle.
    The seed is the first candidate whose game falls in its band. Uniform
    over the bands, this is still the grid's quota distribution. The game is
    predicted with the program's own generator and seed scheme, which seeded
    outputs already pin.
    """
    sigma = float(GRID_SIGMAS[s])
    cell = s * len(GRID_PLAYERS) + GRID_PLAYERS.index(n)
    band = (23 * cell + 7 * cycle) % GRID_QUOTA_STRATA
    config = ExperimentConfig(
        weight_mean=float(GRID_MU), weight_sigma_set=(sigma,), player_range=(n, n)
    )
    for attempt in count():
        run_seed = derive("study-grid", seed, cycle, n, s, attempt) % 2**31
        rng = random.Random(derive_seed("experiment-gen", run_seed, sigma, 0))
        game = generate_game(config, rng, sigma)
        if int(GRID_QUOTA_STRATA * game.quota / game.total_weight()) == band:
            return run_seed


def study_grid_cycle(seed: int, cycle: int) -> list[Op]:
    """One game per (sigma, player count, kind), a whole sigma at a time."""
    ops = []
    for s, sigma in enumerate(GRID_SIGMAS):
        for n in GRID_PLAYERS:
            run_seed = _grid_seed(seed, cycle, n, s)
            for kind in KINDS:
                argv = (
                    "experiment", "--mu", str(GRID_MU), "--sigmas", str(sigma),
                    "--players", f"{n}:{n}", "--games-per-cell", "1",
                    "--kind", kind, "--engine", "exact", "--seed", str(run_seed),
                )
                ops.append(Op(argv, "study", kind))
    return ops


def study_default_cycle(seed: int, cycle: int) -> list[Op]:
    """The CLI's default `wvg experiment`, once per kind."""
    run_seed = derive("study-default", seed, cycle) % 2**31
    return [
        Op(("experiment", "--kind", kind, "--seed", str(run_seed)), "study", kind)
        for kind in KINDS
    ]


def _stratum(lo: int, hi: int, cycle: int, t: int, step: int) -> int:
    """A value of [lo, hi] that visits every value evenly over the cycles.

    ``step`` is coprime to every range it is used with. Player counts, light
    weights and quota bands are stratified this way, because one query's
    cost grows steeply with each of them; the seed still draws everything
    else.
    """
    return lo + (step * cycle + 3 * t) % (hi - lo + 1)


def _draw_game(rng: random.Random, n: int, band: int, light: int | None = None):
    """Normal weights (mean QUERY_MU); quota in one of QUOTA_BANDS bands of 30..70%.

    With ``light``, player 0 instead gets that weight: a small holder among
    large ones, so that scans over its splits stay short. Quotas near the
    extremes make critical coalitions so rare that a sampled Banzhaf vector
    can come out all zero, which the program rightly refuses.
    """
    sigma = rng.choice(QUERY_SIGMAS)
    weights = []
    for _ in range(n):
        w = 0
        while w < 1:
            w = round(rng.gauss(QUERY_MU, sigma))
        weights.append(w)
    if light is not None:
        weights[0] = light
    total = sum(weights)
    share = 0.3 + 0.4 * (band + rng.random()) / QUOTA_BANDS
    return max(1, round(share * total)), tuple(weights)


def _inline(game) -> str:
    quota, weights = game
    return f"{quota};{','.join(map(str, weights))}"


# (label, cls, kind, player-count range, light target range, extra argv)
# The extra argv may name "{p}" (target player) and "{c}" (a coalition).
QUERY_TEMPLATES = (
    ("index-enum", "exact", SHAPLEY, (8, 12), None, ("index",)),
    ("index-enum", "exact", BANZHAF, (8, 12), None, ("index",)),
    ("index-dp", "exact", SHAPLEY, (13, 24), None, ("index",)),
    ("index-dp", "exact", BANZHAF, (13, 24), None, ("index",)),
    ("scan2", "exact", SHAPLEY, (8, 24), None, ("scan", "--player", "{p}")),
    ("scan2", "exact", BANZHAF, (8, 24), None, ("scan", "--player", "{p}")),
    ("scan3", "exact", SHAPLEY, (8, 10), (9, 15), ("scan", "--player", "0", "--k", "3")),
    ("scan3", "exact", BANZHAF, (8, 10), (9, 15), ("scan", "--player", "0", "--k", "3")),
    ("merge", "exact", SHAPLEY, (8, 24), None, ("merge", "--coalition", "{c}")),
    ("merge", "exact", BANZHAF, (8, 24), None, ("merge", "--coalition", "{c}")),
    ("annex", "exact", SHAPLEY, (8, 24), None, ("annex", "--annexer", "{p}", "--coalition", "{c}")),
    ("annex", "exact", BANZHAF, (8, 24), None, ("annex", "--annexer", "{p}", "--coalition", "{c}")),
    ("probe", "exact", BANZHAF, (8, 16), None, ("probe-monotonicity", "--annexer", "{p}")),
    ("bounds", "exact", None, (8, 24), None, ("bounds", "--player", "{p}", "--parts", "{parts}")),
    ("index-mc", "mc", SHAPLEY, (8, 10), None, ("index", "--engine", "mc", "--samples", "5000")),
    ("index-mc", "mc", BANZHAF, (8, 10), None, ("index", "--engine", "mc", "--samples", "5000")),
    ("find-split", "mc", SHAPLEY, (8, 24), (4, 12), ("find-split", "--player", "0", "--samples", "400")),
    ("find-split", "mc", BANZHAF, (8, 16), (4, 12), ("find-split", "--player", "0", "--samples", "200")),
    ("scan-mc", "mc", SHAPLEY, (8, 24), (4, 12), ("scan", "--player", "0", "--engine", "mc", "--samples", "400")),
    ("scan-mc", "mc", BANZHAF, (8, 16), (4, 12), ("scan", "--player", "0", "--engine", "mc", "--samples", "200")),
)


def queries_cycle(seed: int, cycle: int) -> list[Op]:
    """One query per template, each on a freshly drawn game."""
    ops = []
    for t, (label, cls, kind, (lo, hi), light, extra) in enumerate(QUERY_TEMPLATES):
        rng = random.Random(derive("queries", seed, cycle, t))
        n = _stratum(lo, hi, cycle, t, 7)
        band = _stratum(0, QUOTA_BANDS - 1, cycle, t, 3)
        weight = None if light is None else _stratum(*light, cycle, t, 5)
        game = _draw_game(rng, n, band, weight)
        n = len(game[1])
        p = rng.randrange(n)
        others = [i for i in range(n) if i != p]
        coalition = sorted(rng.sample(others, rng.randint(1, 2)))
        if label == "merge":
            coalition = sorted(rng.sample(range(n), rng.randint(2, 3)))
        w = game[1][p]
        j = rng.randint(1, max(1, w // 2))
        fill = {
            "{p}": str(p),
            "{c}": ",".join(map(str, coalition)),
            "{parts}": f"{w - j},{j}" if w > 1 else "1",
        }
        argv = [fill.get(a, a) for a in extra]
        argv += ["--game", _inline(game)]
        if kind is not None:
            argv += ["--kind", kind]
        if cls == "mc":
            argv += ["--seed", str(derive("queries-mc", seed, cycle, t) % 2**31)]
        ops.append(Op(tuple(argv), cls, kind, game))
    return ops


CYCLES = {
    "study-grid": study_grid_cycle,
    "study-default": study_default_cycle,
    "queries": queries_cycle,
}
