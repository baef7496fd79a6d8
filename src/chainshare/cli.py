"""Batch command line: scenario files in, allocation and weighting reports out.

Subcommands: shapley, allocate, ahp weights, ahp synthesize, sample,
validate. Exit codes: 0 success, 1 validation or domain failure,
2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from . import __version__, report
from .adjust import MODES, adjusted_shapley
from .ahp import METHODS, synthesize_factors
from .errors import ChainshareError
from .game import shapley_exact, validate_game
from .report import FORMATS, ReportDocument, render
from .sampling import DEFAULT_CHUNK_SIZE, SamplingPlan, sample_shapley
from .scenario import load_scenario, resolve_factors, scenario_game, scenario_hierarchy


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("scenario", help="path to a scenario file")
    common.add_argument("--format", choices=FORMATS, default="table", help="output format (default: table)")
    common.add_argument("--output", metavar="PATH", help="write the report to PATH instead of stdout")

    parser = argparse.ArgumentParser(
        prog="chainshare",
        description="Profit allocation for value-chain coalitions: exact Shapley payoffs, "
        "influence-factor adjustment, pairwise-comparison weighting, and Monte Carlo estimation.",
    )
    parser.add_argument("--version", action="version", version=f"chainshare {__version__}")
    commands = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    commands.add_parser("shapley", parents=[common], help="exact classical allocation")

    allocate = commands.add_parser(
        "allocate", parents=[common], help="classical plus factor-adjusted allocation"
    )
    allocate.add_argument(
        "--mode", choices=MODES, default=None,
        help="adjustment variant (default: the scenario's mode, else eq3)",
    )
    allocate.add_argument(
        "--normalize", action="store_true",
        help="rescale the factors to sum to exactly 1 before adjusting",
    )

    ahp = commands.add_parser("ahp", help="pairwise-comparison weighting commands")
    ahp_commands = ahp.add_subparsers(dest="ahp_command", required=True, metavar="SUBCOMMAND")
    weights = ahp_commands.add_parser("weights", parents=[common], help="criteria weights and consistency")
    weights.add_argument("--method", choices=METHODS, default=METHODS[0],
                         help="weight extraction method (default: power iteration)")
    ahp_commands.add_parser(
        "synthesize", parents=[common],
        help="per-player influence factors from the scenario's hierarchy",
    )

    sample = commands.add_parser("sample", parents=[common], help="seeded Monte Carlo estimate")
    sample.add_argument("--permutations", type=int, default=10_000, metavar="M",
                        help="number of sampled permutations (default: 10000)")
    sample.add_argument("--seed", type=int, default=0, help="64-bit RNG seed (default: 0)")
    sample.add_argument("--chunk-size", type=int, default=DEFAULT_CHUNK_SIZE, metavar="K",
                        help=f"permutations per deterministic chunk (default: {DEFAULT_CHUNK_SIZE})")
    sample.add_argument("--workers", type=int, default=1,
                        help="accepted and ignored, at least 1: chunks are counted on one thread (default: 1)")

    validate = commands.add_parser("validate", parents=[common], help="superadditivity diagnostics")
    validate.add_argument("--strict", action="store_true",
                          help="exit 1 when any superadditivity violation is found")

    return parser


def _shapley(sf, args) -> ReportDocument:
    return ReportDocument("shapley", sf.players, (report.classical(sf.players, shapley_exact(scenario_game(sf))),))


def _allocate(sf, args) -> ReportDocument:
    game = scenario_game(sf)
    factors = resolve_factors(sf, normalize=args.normalize or None)
    if factors is None:
        raise ChainshareError("scenario carries no adjustment factors; add a 'factors' map or an 'ahp' section")
    adjusted = adjusted_shapley(game, factors, args.mode or sf.mode or MODES[0])
    return ReportDocument("allocate", sf.players, (
        report.classical(sf.players, adjusted.base), report.adjusted(sf.players, adjusted)), csv=1)


def _ahp_weights(sf, args) -> ReportDocument:
    return ReportDocument("ahp-weights", sf.players, (report.weights(scenario_hierarchy(sf, method=args.method)),))


def _ahp_synthesize(sf, args) -> ReportDocument:
    hierarchy = scenario_hierarchy(sf)
    return ReportDocument("ahp-synthesize", sf.players, (
        report.factors(sf.players, synthesize_factors(hierarchy)), report.weights(hierarchy)))


def _sample(sf, args) -> ReportDocument:
    game = scenario_game(sf)
    plan = SamplingPlan(permutations=args.permutations, seed=args.seed, chunk_size=args.chunk_size)
    estimates = sample_shapley(game, game.player_set, plan, workers=args.workers)
    return ReportDocument("sample", sf.players, (report.sampled(sf.players, estimates),))


def _validate(sf, args) -> ReportDocument:
    validation = validate_game(scenario_game(sf))
    return ReportDocument("validate", sf.players, (report.violations(validation),), ok=validation.ok)


# Command -> the function that runs it and lists its report's sections. Each calls the library through
# this module's names at call time, so a name substituted here (as chainbench/spans.py does) is used.
COMMANDS = {
    "shapley": _shapley,
    "allocate": _allocate,
    "ahp-weights": _ahp_weights,
    "ahp-synthesize": _ahp_synthesize,
    "sample": _sample,
    "validate": _validate,
}


@functools.lru_cache(maxsize=1)
def _parser(build) -> argparse.ArgumentParser:
    """The parser from ``build``, made once: building costs far more than a parse.

    Keyed on the builder, so a substituted ``build_parser`` is used, and
    ``build_parser()`` itself still returns a new parser that a caller may change.
    """
    return build()


def main(argv: list[str] | None = None) -> int:
    parser = _parser(build_parser)
    args = parser.parse_args(argv)
    if args.command == "sample" and args.workers < 1:
        parser.error(f"argument --workers: must be at least 1, got {args.workers}")
    kind = f"ahp-{args.ahp_command}" if args.command == "ahp" else args.command
    try:
        doc = COMMANDS[kind](load_scenario(args.scenario), args)
        text = render(doc, args.format)
        if args.output:
            Path(args.output).write_text(text, encoding="utf-8", newline="")
        else:
            sys.stdout.write(text)
    except (ChainshareError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 1 if args.command == "validate" and args.strict and not doc.ok else 0


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
