"""Command-line interface.

Subcommands cover the full workflow: ingest raw edge lists, generate
synthetic streams, score a stream under a model, fit weights and interval
partitions, locate changepoints, compare nested fits, and compute graph
statistics.  Machine-readable results go to stdout (or --out); cleaning
reports go to stderr.  Failures print ``error (<category>): <msg>``
to stderr and exit nonzero.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import __version__, likelihood
from .errors import CheckpointError, GrowthFitError
from .estimation import (
    DEFAULT_WEIGHT_STEP,
    FitResult,
    changepoint_grid,
    compare_interval_fits,
    default_alpha_grid,
    fit_changepoint,
    fit_degree_exponent,
    fit_intervals,
    scan_interval_counts,
)
from .generate import GrowthRecipe, grow
from .likelihood import DEFAULT_ORDERING_SAMPLES, build_choice_cache, build_dp_trace, score_stream
from .models import model_similarity
from .modelspec import parse_component, parse_model_spec
from .netstats import stats_series, write_stats_csv
from .stream import (
    extract_operation_schedule,
    ingest_edge_file,
    load_stream,
    read_op_schedule,
    stream_edge_records,
    summarize_stream,
    write_edge_file,
    write_op_schedule,
    write_star_stream,
)


def _emit(args, payload: str) -> None:
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload if payload.endswith("\n") else payload + "\n")
    else:
        print(payload)


def _parse_alpha_grid(text: str) -> np.ndarray:
    try:
        start, stop, step = (float(f) for f in text.split(":"))
    except ValueError:
        raise GrowthFitError(f"bad grid {text!r}, expected START:STOP:STEP") from None
    if not all(map(math.isfinite, (start, stop, step))):
        raise GrowthFitError(f"bad grid {text!r}: START, STOP and STEP must be finite")
    if step <= 0 or stop < start:
        raise GrowthFitError(f"bad grid {text!r}")
    # points up to STOP, the quotient's rounding forgiven, and none past it
    count = math.floor((stop - start) / step + 1e-9)
    points = np.round(start + np.arange(count + 1) * step, 12)
    return np.where(points > stop, stop, points)


def _parse_t_grid(text: str) -> np.ndarray:
    try:
        lo, hi, points = text.split(":")
        return changepoint_grid(float(lo), float(hi), int(points))
    except ValueError:
        raise GrowthFitError(
            f"bad changepoint grid {text!r}, expected LO:HI:POINTS"
        ) from None


def _load(args):
    return load_stream(args.data)


def _trace(args):
    """The one replay of the command's stream, at its --seed and --ordering-samples."""
    return build_dp_trace(_load(args), seed=args.seed, ordering_samples=args.ordering_samples)


def _cache(args):
    """The choice cache of the command's --components, on its one replay."""
    comps = [parse_component(part) for part in args.components.split(",")]
    return build_choice_cache(_trace(args), comps)


def _cmd_ingest(args) -> int:
    stream, report = ingest_edge_file(args.data)
    print(report, file=sys.stderr)
    if args.out:
        write_star_stream(args.out, stream)
    if args.schedule_out:
        write_op_schedule(args.schedule_out, extract_operation_schedule(stream))
    payload = {"cleaning": report.to_dict(), "stream": summarize_stream(stream).to_dict()}
    print(json.dumps(payload, indent=2))
    return 0


def _cmd_generate(args) -> int:
    if args.recipe:
        with open(args.recipe, "r", encoding="utf-8") as fh:
            recipe = GrowthRecipe.from_json(fh.read())
    elif args.model:
        recipe = GrowthRecipe.constant(
            args.model,
            increments=args.increments,
            new_targets=args.new_targets,
            internal_prob=args.internal_prob,
            internal_targets=args.internal_targets,
            seed_clique=args.seed_clique,
        )
    else:
        raise GrowthFitError("generate needs --recipe or --model")
    op_schedule = read_op_schedule(args.op_schedule) if args.op_schedule else None
    stream = grow(recipe, seed=args.seed, op_schedule=op_schedule)
    if args.format == "edges":
        write_edge_file(args.out, stream_edge_records(stream))
    else:
        write_star_stream(args.out, stream)
    print(json.dumps(summarize_stream(stream).to_dict(), indent=2))
    return 0


def _cmd_score(args) -> int:
    if args.fit:
        with open(args.fit, "r", encoding="utf-8") as fh:
            schedule = FitResult.from_json(fh.read()).schedule()
    elif args.model:
        schedule = parse_model_spec(args.model)
    else:
        raise GrowthFitError("score needs --model or --fit")
    summary, _ = score_stream(_trace(args), schedule)
    _emit(args, json.dumps(summary.to_dict(), indent=2))
    return 0


def _cmd_fit(args) -> int:
    if args.components:
        _emit(args, fit_intervals(_cache(args), 1, step=args.step).to_json())
        return 0
    grid = _parse_alpha_grid(args.grid_alpha) if args.grid_alpha else default_alpha_grid()
    fit = fit_degree_exponent(_trace(args), grid=grid)
    payload = {
        "alpha": fit.value,
        "logL": fit.loglik,
        "logL_rand": fit.loglik_rand,
        "c0": fit.c0,
        "choices": fit.total_choices,
    }
    _emit(args, json.dumps(payload, indent=2))
    return 0


def _cmd_fit_intervals(args) -> int:
    result = fit_intervals(_cache(args), args.intervals, mode=args.interval_mode, step=args.step)
    _emit(args, result.to_json())
    return 0


def _cmd_fit_changepoint(args) -> int:
    grid = _parse_t_grid(args.changepoint_grid) if args.changepoint_grid else None
    pre, post = parse_model_spec(args.model_pre), parse_model_spec(args.model_post)
    trace = _trace(args)
    # the per-increment log-probabilities that score_stream wraps in IncrementScores
    logp_pre, logp_post = (likelihood._score(trace, m, 0)[0] for m in (pre, post))
    fit = fit_changepoint(logp_pre, logp_post, trace.timestamps, grid=grid)
    payload = {
        "t_hat": fit.t_hat,
        "logL": fit.loglik,
        "model_pre": args.model_pre,
        "model_post": args.model_post,
        "grid_points": len(fit.grid),
    }
    _emit(args, json.dumps(payload, indent=2))
    return 0


def _cmd_scan_j(args) -> int:
    fits = scan_interval_counts(_cache(args), args.jmin, args.jmax, args.interval_mode, args.step)
    lines = ["J,logL,c0"]
    for j, fit in zip(range(args.jmin, args.jmax + 1), fits):
        lines.append(f"{j},{fit.loglik:.6f},{fit.c0:.9f}")
    _emit(args, "\n".join(lines))
    return 0


def _cmd_wilks(args) -> int:
    if args.fit0 and args.fit1:
        with open(args.fit0, "r", encoding="utf-8") as fh:
            fit0 = FitResult.from_json(fh.read())
        with open(args.fit1, "r", encoding="utf-8") as fh:
            fit1 = FitResult.from_json(fh.read())
    else:
        if not (args.data and args.components):
            raise GrowthFitError("wilks needs --fit0/--fit1 or --data with --components")
        cache = _cache(args)
        fit0 = fit_intervals(cache, args.j0, mode=args.interval_mode, step=args.step)
        fit1 = fit_intervals(cache, args.j1, mode=args.interval_mode, step=args.step)
    report = compare_interval_fits(fit0, fit1)
    _emit(args, json.dumps(report.to_dict(), indent=2))
    return 0


def _cmd_stats(args) -> int:
    stream = _load(args)
    checkpoints = None
    if args.checkpoints:
        try:
            checkpoints = [int(c) for c in args.checkpoints.split(",")]
        except ValueError:
            raise CheckpointError(
                f"checkpoints {args.checkpoints!r} are not comma-separated integers"
            ) from None
    rows = stats_series(stream, checkpoints=checkpoints)
    if args.out:
        write_stats_csv(args.out, rows)
    else:
        for row in rows:
            print(json.dumps(row.to_dict()))
    return 0


def _cmd_similarity(args) -> int:
    stream = _load(args)
    graph = stream.final_graph()
    m1 = parse_model_spec(args.model)
    m2 = parse_model_spec(args.model2)
    sigma = model_similarity(m1, m2, graph)
    payload = {
        "model": args.model,
        "model2": args.model2,
        "nodes": graph.num_nodes,
        "similarity": sigma,
    }
    _emit(args, json.dumps(payload, indent=2))
    return 0


def _add_common(p: argparse.ArgumentParser, data_required: bool = True, step: bool = False) -> None:
    if data_required:
        p.add_argument("--data", required=True, help="input stream file (edge list or star stream)")
    p.add_argument("--seed", type=int, default=0, help="RNG seed (ordering samples etc.)")
    p.add_argument(
        "--ordering-samples",
        type=int,
        default=DEFAULT_ORDERING_SAMPLES,
        help="orderings drawn per increment when exact enumeration is too large",
    )
    p.add_argument("--out", default=None, help="write the result here instead of stdout")
    if step:
        p.add_argument(
            "--step", type=float, default=DEFAULT_WEIGHT_STEP, help="weight-grid resolution"
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="growthfit",
        description="Fit time-varying attachment mixtures to growing networks.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="clean an edge list and write a star stream")
    p.add_argument("--data", required=True)
    p.add_argument("--out", default=None, help="star-stream output path")
    p.add_argument("--schedule-out", default=None, help="op-schedule output path")
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("generate", help="grow a synthetic stream from a recipe")
    p.add_argument("--recipe", default=None, help="recipe JSON path")
    p.add_argument("--model", default=None, help="single-interval mixture spec")
    p.add_argument("--increments", type=int, default=1000)
    p.add_argument("--new-targets", type=int, default=3)
    p.add_argument("--internal-prob", type=float, default=0.0)
    p.add_argument("--internal-targets", type=int, default=2)
    p.add_argument("--seed-clique", type=int, default=0)
    p.add_argument("--op-schedule", default=None, help="replay star shapes from this file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=["star-stream", "edges"], default="star-stream")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("score", help="log-likelihood of a stream under a model")
    _add_common(p)
    p.add_argument("--model", default=None, help="mixture spec, e.g. '0.3*BA + 0.7*RAND'")
    p.add_argument("--fit", default=None, help="re-score under a saved fit JSON")
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser("fit", help="fit mixture weights (or a degree exponent)")
    _add_common(p, step=True)
    p.add_argument("--components", default=None, help="comma-separated components")
    p.add_argument("--grid-alpha", default=None, help="START:STOP:STEP exponent grid, up to STOP")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("fit-intervals", help="piecewise mixture fit with J intervals")
    _add_common(p, step=True)
    p.add_argument("--components", required=True)
    p.add_argument("--intervals", type=int, default=1)
    p.add_argument("--interval-mode", choices=["count", "time"], default="count")
    p.set_defaults(func=_cmd_fit_intervals)

    p = sub.add_parser("fit-changepoint", help="best switch time between two models")
    _add_common(p)
    p.add_argument("--model-pre", required=True)
    p.add_argument("--model-post", required=True)
    p.add_argument("--changepoint-grid", default=None, help="LO:HI:POINTS candidate times")
    p.set_defaults(func=_cmd_fit_changepoint)

    p = sub.add_parser("scan-j", help="fit at every interval count in a range")
    _add_common(p, step=True)
    p.add_argument("--components", required=True)
    p.add_argument("--jmin", type=int, default=1)
    p.add_argument("--jmax", type=int, default=8)
    p.add_argument("--interval-mode", choices=["count", "time"], default="count")
    p.set_defaults(func=_cmd_scan_j)

    p = sub.add_parser("wilks", help="likelihood-ratio test between nested interval fits")
    _add_common(p, data_required=False, step=True)
    p.add_argument("--data", default=None)
    p.add_argument("--components", default=None)
    p.add_argument("--j0", type=int, default=1)
    p.add_argument("--j1", type=int, default=2)
    p.add_argument("--interval-mode", choices=["count", "time"], default="count")
    p.add_argument("--fit0", default=None, help="saved fit JSON for the null")
    p.add_argument("--fit1", default=None, help="saved fit JSON for the alternative")
    p.set_defaults(func=_cmd_wilks)

    p = sub.add_parser("stats", help="degree/clustering/assortativity series")
    p.add_argument("--data", required=True)
    p.add_argument("--checkpoints", default=None, help="comma-separated increment counts")
    p.add_argument("--out", default=None, help="CSV output path")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("similarity", help="cosine similarity of two models on a graph")
    p.add_argument("--data", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--model2", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_similarity)

    return parser


def _option_strings(parser: argparse.ArgumentParser) -> tuple[set[str], set[str]]:
    """(every option string, those that take one value) of a parser and its subcommands."""
    every: set[str] = set()
    valued: set[str] = set()
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                sub_every, sub_valued = _option_strings(sub)
                every |= sub_every
                valued |= sub_valued
        every.update(action.option_strings)
        if action.nargs is None:
            valued.update(action.option_strings)
    return every, valued


def _attach_dash_values(parser: argparse.ArgumentParser, argv: list[str]) -> list[str]:
    """Write ``--option -5,10`` as ``--option=-5,10``.

    argparse takes a value that starts with '-' and is not a plain number for
    an option, and reports the option's value as missing.  A token after an
    option that takes one value is its value unless it is itself an option.
    """
    every, valued = _option_strings(parser)
    out: list[str] = []
    for token in argv:
        dashed = token.startswith("-") and not token.startswith("--") and token not in every
        if dashed and out and out[-1] in valued:
            out[-1] = f"{out[-1]}={token}"
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(_attach_dash_values(parser, argv))
    try:
        return args.func(args)
    except GrowthFitError as exc:
        print(f"error ({type(exc).__name__}): {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error (io): {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
