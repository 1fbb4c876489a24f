"""Command-line front end.

Every subcommand prints its report to stdout (JSON by default) and
diagnostics to stderr. Exit status: 0 on success, 1 on a domain error such
as an invalid game, 2 on a usage error. Seeded commands produce
byte-identical output for identical invocations; sampling runs on one
thread, so ``--threads`` changes nothing.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import replace
from fractions import Fraction

from .errors import InvalidConfigError, WvgError
from .exact import IndexKind, fraction_json_obj, fraction_to_decimal, index
from .game import Game, SplitSpec, load_game, parse_inline_game
from .manipulation import (
    AnnexReport,
    BoundReport,
    Engine,
    GadgetVariant,
    MergeReport,
    ScanSummary,
    SplitReport,
    annex_benefit,
    annex_monotonicity_probe,
    check_split_bounds,
    find_split_approx,
    merge_benefit,
    reduction_gadget,
    scan_k_way_splits,
    scan_two_way_splits,
)
from .montecarlo import McConfig, banzhaf_mc, derive_seed, shapley_mc
from .experiments import ExperimentConfig, export_stats, run_experiment
from .verify import SUITES, run as run_verify

_KINDS = {
    "shapley": IndexKind.SHAPLEY_SHUBIK,
    "shapley_shubik": IndexKind.SHAPLEY_SHUBIK,
    "banzhaf": IndexKind.BANZHAF,
    "banzhaf_normalized": IndexKind.BANZHAF,
}


def _frac_text(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator} (≈ {fraction_to_decimal(f)})"


def _resolve_game(source: str) -> Game:
    if ";" in source:
        return parse_inline_game(source)
    return load_game(source)


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _emit(obj: dict, fmt: str, text_renderer) -> None:
    if fmt == "json":
        print(json.dumps(obj, indent=2))
    else:
        print(text_renderer())


def _split_report_obj(r: SplitReport) -> dict:
    return {
        "parts": list(r.spec.parts),
        "before": fraction_json_obj(r.payoff_before),
        "after_total": fraction_json_obj(r.payoff_after_total),
        "gain_ratio": fraction_json_obj(r.gain_ratio) if r.gain_ratio is not None else None,
        "classification": r.classification.value,
        "margin": str(r.margin) if r.margin is not None else None,
    }


def _scan_obj(s: ScanSummary) -> dict:
    return {
        "player": s.player,
        "kind": s.kind.value,
        "engine": s.engine.value,
        "total_splits": s.total_splits,
        "beneficial": s.beneficial,
        "harmful": s.harmful,
        "neutral": s.neutral,
        "best": _split_report_obj(s.best) if s.best else None,
        "reports": [_split_report_obj(r) for r in s.reports],
    }


def _game_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--game", required=True, help="inline 'q;w1,w2,...' or a file path")


def _kind_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("--kind", choices=sorted(_KINDS), default="shapley")


def _mc_args(p: argparse.ArgumentParser, sampling: bool = True) -> None:
    p.add_argument("--epsilon", default="0.01")
    p.add_argument("--delta", default="0.01")
    p.add_argument("--seed", type=int, default=0)
    if sampling:
        p.add_argument("--samples", type=int, default=None, help="override the sample count")
        p.add_argument("--threads", type=int, default=1, help="no effect; sampling runs on one thread")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``wvg`` parser, built once per process: ``parse_args`` returns a
    new namespace on every call and leaves the parser as it was."""
    parser = argparse.ArgumentParser(
        prog="wvg",
        description="Power indices and false-name manipulation analysis "
        "for weighted voting games.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("index", help="exact or sampled power indices")
    _game_args(p)
    _kind_arg(p)
    p.add_argument("--engine", choices=["exact", "mc"], default="exact")
    _mc_args(p)
    p.add_argument("--format", choices=["json", "text"], default="json")

    p = sub.add_parser("scan", help="classify all integer splits of one player")
    _game_args(p)
    p.add_argument("--player", type=int, required=True)
    _kind_arg(p)
    p.add_argument("--k", type=int, default=2, help="number of identities")
    p.add_argument("--engine", choices=["exact", "mc"], default="exact")
    p.add_argument("--margin", default=None, help="classification margin (mc engine)")
    _mc_args(p)
    p.add_argument("--format", choices=["json", "csv", "text"], default="json")

    p = sub.add_parser("find-split", help="randomized beneficial-split search")
    _game_args(p)
    p.add_argument("--player", type=int, required=True)
    _kind_arg(p)
    p.add_argument("--margin", default=None)
    _mc_args(p)
    p.add_argument("--format", choices=["json", "text"], default="json")

    p = sub.add_parser("merge", help="does a coalition gain by fusing into one player")
    _game_args(p)
    p.add_argument("--coalition", type=_int_list, required=True)
    _kind_arg(p)
    p.add_argument("--format", choices=["json", "text"], default="json")

    p = sub.add_parser("annex", help="does a player gain by absorbing a coalition")
    _game_args(p)
    p.add_argument("--annexer", type=int, required=True)
    p.add_argument("--coalition", type=_int_list, required=True)
    _kind_arg(p)
    p.add_argument("--format", choices=["json", "text"], default="json")

    p = sub.add_parser(
        "probe-monotonicity", help="find annexations where a lighter target beats a heavier one"
    )
    _game_args(p)
    p.add_argument("--annexer", type=int, required=True)
    _kind_arg(p)
    p.add_argument("--format", choices=["json", "text"], default="json")

    p = sub.add_parser("bounds", help="measure one two-way split against the proven caps")
    _game_args(p)
    p.add_argument("--player", type=int, required=True)
    p.add_argument("--parts", type=_int_list, required=True, help="e.g. 3,2")
    p.add_argument("--format", choices=["json", "text"], default="json")

    p = sub.add_parser("gadget", help="emit a PARTITION-instance game")
    p.add_argument("--variant", choices=[v.value for v in GadgetVariant], required=True)
    p.add_argument("--instance", type=_int_list, required=True, help="e.g. 1,2,3")
    p.add_argument("--format", choices=["json", "text"], default="json")

    p = sub.add_parser("experiment", help="random-game beneficial-split statistics")
    p.add_argument("--mu", type=float, default=50.0)
    p.add_argument("--sigmas", default="5,15,25")
    p.add_argument("--players", default="5:12", help="inclusive range min:max")
    p.add_argument("--games-per-cell", type=int, default=100)
    _kind_arg(p)
    p.add_argument("--engine", choices=["exact", "mc"], default="exact")
    p.add_argument("--unanimity", action="store_true", help="force quota = total weight")
    p.add_argument("--margin", default=None)
    _mc_args(p, sampling=False)
    p.add_argument("--format", choices=["json", "csv"], default="json")

    p = sub.add_parser("verify", help="run the built-in fixtures and invariant suites")
    p.add_argument("--suite", choices=("all",) + SUITES, default="all")
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)

    return parser


def _cmd_index(args) -> int:
    game = _resolve_game(args.game)
    kind = _KINDS[args.kind]
    cfg = _mc_config(args)
    if args.engine == "exact":
        vec = index(game, kind)
        obj = {
            "command": "index",
            "kind": kind.value,
            "engine": "exact",
            "values": vec.to_json_obj(),
        }
        _emit(
            obj,
            args.format,
            lambda: "\n".join(
                f"player {i}: {_frac_text(v)}" for i, v in enumerate(vec.values)
            ),
        )
        return 0
    if kind is IndexKind.SHAPLEY_SHUBIK:
        estimates = [
            shapley_mc(game, i, replace(cfg, seed=derive_seed(cfg.seed, "cli-index", i)))
            for i in range(game.num_players)
        ]
        obj = {
            "command": "index",
            "kind": kind.value,
            "engine": "monte_carlo",
            "values": [{"player": i, **est.to_json_obj()} for i, est in enumerate(estimates)],
        }
        _emit(
            obj,
            args.format,
            lambda: "\n".join(
                f"player {i}: {_frac_text(e.value)} [{e.samples_used} samples]"
                for i, e in enumerate(estimates)
            ),
        )
        return 0
    vec = banzhaf_mc(game, cfg)
    obj = {
        "command": "index",
        "kind": kind.value,
        "engine": "monte_carlo",
        "samples_per_player": cfg.samples(),
        "epsilon": str(cfg.epsilon),
        "delta": str(cfg.delta),
        "values": vec.to_json_obj(),
    }
    _emit(
        obj,
        args.format,
        lambda: "\n".join(f"player {i}: {_frac_text(v)}" for i, v in enumerate(vec.values)),
    )
    return 0


def _cmd_scan(args) -> int:
    game = _resolve_game(args.game)
    kind = _KINDS[args.kind]
    margin = _margin(args)
    cfg = _mc_config(args)
    engine = Engine.EXACT if args.engine == "exact" else Engine.MONTE_CARLO
    if args.k != 2 and engine is Engine.MONTE_CARLO:
        raise InvalidConfigError(
            f"--engine mc scans two-way splits only; --k {args.k} needs --engine exact"
        )
    if margin is not None and engine is Engine.EXACT:
        raise InvalidConfigError("--margin applies to --engine mc only")
    if args.k == 2:
        summary = scan_two_way_splits(
            game, args.player, kind, engine=engine, mc_config=cfg, margin=margin
        )
    else:
        summary = scan_k_way_splits(game, args.player, args.k, kind)
    # only JSON lists every report, so only JSON builds their objects
    if args.format == "csv":
        sys.stdout.write(summary.to_csv())
    elif args.format == "text":
        best = summary.best
        print(
            f"player {summary.player}: {summary.total_splits} splits, "
            f"{summary.beneficial} beneficial, {summary.harmful} harmful, "
            f"{summary.neutral} neutral"
            + (
                f"\nbest: parts {best.spec.parts} after {_frac_text(best.payoff_after_total)}"
                if best
                else ""
            )
        )
    else:
        print(json.dumps({"command": "scan", **_scan_obj(summary)}, indent=2))
    return 0


def _cmd_find_split(args) -> int:
    game = _resolve_game(args.game)
    kind = _KINDS[args.kind]
    cfg = _mc_config(args)
    spec = find_split_approx(
        game,
        args.player,
        cfg.epsilon,
        cfg.delta,
        kind=kind,
        seed=cfg.seed,
        margin=_margin(args),
        sample_count_override=cfg.sample_count_override,
    )
    obj = {
        "command": "find-split",
        "player": args.player,
        "kind": kind.value,
        "found": spec is not None,
        "parts": list(spec.parts) if spec else None,
    }
    _emit(
        obj,
        args.format,
        lambda: f"yes: split into {spec.parts}" if spec else "no beneficial split found",
    )
    return 0


def _merge_obj(r: MergeReport) -> dict:
    return {
        "coalition": list(r.coalition),
        "kind": r.kind.value,
        "before_total": fraction_json_obj(r.payoff_before_total),
        "after": fraction_json_obj(r.payoff_after),
        "beneficial": r.beneficial,
    }


def _cmd_merge(args) -> int:
    game = _resolve_game(args.game)
    report = merge_benefit(game, args.coalition, _KINDS[args.kind])
    _emit(
        {"command": "merge", **_merge_obj(report)},
        args.format,
        lambda: (
            f"coalition {report.coalition}: {_frac_text(report.payoff_before_total)} -> "
            f"{_frac_text(report.payoff_after)} "
            f"({'beneficial' if report.beneficial else 'not beneficial'})"
        ),
    )
    return 0


def _annex_obj(r: AnnexReport) -> dict:
    return {
        "annexer": r.annexer,
        "annexed": list(r.annexed),
        "kind": r.kind.value,
        "before": fraction_json_obj(r.payoff_before),
        "after": fraction_json_obj(r.payoff_after),
        "beneficial": r.beneficial,
    }


def _cmd_annex(args) -> int:
    game = _resolve_game(args.game)
    report = annex_benefit(game, args.annexer, args.coalition, _KINDS[args.kind])
    _emit(
        {"command": "annex", **_annex_obj(report)},
        args.format,
        lambda: (
            f"annexer {report.annexer} absorbing {report.annexed}: "
            f"{_frac_text(report.payoff_before)} -> {_frac_text(report.payoff_after)} "
            f"({'beneficial' if report.beneficial else 'not beneficial'})"
        ),
    )
    return 0


def _cmd_probe(args) -> int:
    game = _resolve_game(args.game)
    witnesses = annex_monotonicity_probe(game, args.annexer, _KINDS[args.kind])
    obj = {
        "command": "probe-monotonicity",
        "annexer": args.annexer,
        "kind": _KINDS[args.kind].value,
        "witnesses": [list(w) for w in witnesses],
    }
    _emit(
        obj,
        args.format,
        lambda: (
            "\n".join(
                f"annexing player {j} (weight {game.weights[j]}) yields less than "
                f"annexing player {k} (weight {game.weights[k]})"
                for _, j, k in witnesses
            )
            or "no non-monotone annexations"
        ),
    )
    return 0


def _bounds_obj(r: BoundReport) -> dict:
    return {
        "parts": list(r.spec.parts),
        "num_players": r.num_players,
        "shapley_before": fraction_json_obj(r.shapley_before),
        "shapley_after": fraction_json_obj(r.shapley_after),
        "shapley_ratio": fraction_json_obj(r.shapley_ratio) if r.shapley_ratio is not None else None,
        "banzhaf_before": fraction_json_obj(r.banzhaf_before),
        "banzhaf_after": fraction_json_obj(r.banzhaf_after),
        "banzhaf_ratio": fraction_json_obj(r.banzhaf_ratio) if r.banzhaf_ratio is not None else None,
        "count_before": r.count_before,
        "count_after_pair": r.count_after_pair,
    }


def _cmd_bounds(args) -> int:
    game = _resolve_game(args.game)
    report = check_split_bounds(game, args.player, SplitSpec(args.player, args.parts))
    _emit(
        {"command": "bounds", **_bounds_obj(report)},
        args.format,
        lambda: (
            f"shapley {_frac_text(report.shapley_before)} -> {_frac_text(report.shapley_after)}\n"
            f"banzhaf {_frac_text(report.banzhaf_before)} -> {_frac_text(report.banzhaf_after)}\n"
            f"counts {report.count_before} -> {report.count_after_pair} (pair)"
        ),
    )
    return 0


def _cmd_gadget(args) -> int:
    game, players = reduction_gadget(args.instance, GadgetVariant(args.variant))
    obj = {
        "command": "gadget",
        "variant": args.variant,
        "instance": list(args.instance),
        "game": {"quota": game.quota, "weights": list(game.weights)},
        "inline": f"{game.quota};{','.join(str(w) for w in game.weights)}",
        "designated_players": list(players),
    }
    _emit(obj, args.format, lambda: f"{game}  designated players {players}")
    return 0


def _parsed(parse, text: str, name: str):
    try:
        return parse(text)
    except (ValueError, ZeroDivisionError):
        raise InvalidConfigError(f"malformed {name}: {text!r}") from None


def _margin(args) -> Fraction | None:
    return None if args.margin is None else _parsed(Fraction, args.margin, "margin")


def _mc_config(args) -> McConfig:
    """The sampling flags as a validated ``McConfig``, refused whatever the engine."""
    return McConfig(args.epsilon, args.delta, seed=args.seed, sample_count_override=args.samples)


def _player_range(text: str) -> tuple[int, int]:
    lo, _, hi = text.partition(":")
    return int(lo), int(hi or lo)


def _cmd_experiment(args) -> int:
    config = ExperimentConfig(
        weight_mean=args.mu,
        weight_sigma_set=tuple(_parsed(float, s, "sigma") for s in args.sigmas.split(",") if s.strip()),
        player_range=_parsed(_player_range, args.players, "players (expected min:max)"),
        games_per_cell=args.games_per_cell,
        epsilon=args.epsilon,
        delta=args.delta,
        beneficial_margin=_margin(args),
        seed=args.seed,
        engine=Engine.EXACT if args.engine == "exact" else Engine.MONTE_CARLO,
        kind=_KINDS[args.kind],
        unanimity_quota=args.unanimity,
    )
    stats = run_experiment(config)
    sys.stdout.write(export_stats(stats, args.format))
    return 0


def _cmd_verify(args) -> int:
    results = run_verify(args.suite, trials=args.trials, seed=args.seed)
    width = max(len(r.name) for r in results)
    failed = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        line = f"{status}  {r.suite:<8} {r.name:<{width}}"
        if r.detail:
            line += f"  {r.detail}"
        print(line)
        failed += not r.passed
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 0 if failed == 0 else 1


_HANDLERS = {
    "index": _cmd_index,
    "scan": _cmd_scan,
    "find-split": _cmd_find_split,
    "merge": _cmd_merge,
    "annex": _cmd_annex,
    "probe-monotonicity": _cmd_probe,
    "bounds": _cmd_bounds,
    "gadget": _cmd_gadget,
    "experiment": _cmd_experiment,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _HANDLERS[args.command](args)
    except WvgError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
