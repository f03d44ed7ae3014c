"""Command line entry point.

Exit codes: 0 success, 2 configuration or argument error, 3 runtime failure
inside the pipeline, 4 comparison beyond tolerance.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

from .config import load_config
from .errors import ConfigError, FpfkitError
from .runner import compare_command, grid_command, run_command

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3
EXIT_COMPARISON = 4

log = logging.getLogger("fpfkit")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fpfkit",
        description="Failure probability surfaces by iterative density estimation.",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run the full pipeline from a config file")
    run_p.add_argument("--config", required=True, type=Path, help="YAML config file")
    run_p.add_argument("--output", required=True, type=Path, help="output directory")
    run_p.add_argument("--seed", type=int, default=None, help="override the config seed")

    grid_p = sub.add_parser("grid", help="brute-force oracle over the design grid")
    grid_p.add_argument("--config", required=True, type=Path, help="YAML config file")
    grid_p.add_argument("--output", required=True, type=Path, help="output directory")
    grid_p.add_argument("--seed", type=int, default=None, help="override the config seed")
    grid_p.add_argument("--resolution", type=int, default=None,
                        help="grid points per design axis")
    grid_p.add_argument("--per-point", type=int, default=None,
                        help="samples per grid point")
    grid_p.add_argument("--threads", type=int, default=1,
                        help="worker threads over grid points")

    cmp_p = sub.add_parser("compare", help="compare a run against an oracle grid")
    cmp_p.add_argument("--run", required=True, type=Path, help="run output directory")
    cmp_p.add_argument("--oracle", required=True, type=Path,
                       help="oracle.csv path, or a grid output directory")
    cmp_p.add_argument("--output", required=True, type=Path, help="output directory")
    return parser


def _load(args) -> tuple:
    config = load_config(args.config)
    if args.seed is not None:
        if args.seed < 0:
            raise ConfigError(f"--seed must be >= 0, got {args.seed}")
        config = config.with_seed(args.seed)
    return config, args.config.resolve().parent


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        if args.command == "run":
            config, base = _load(args)
            manifest = run_command(config, args.output, base)
            log.info(
                "run complete: pf=%.6g, %d iterations, %d evaluations",
                manifest["chain"]["pf"],
                manifest["chain"]["n_iterations"],
                manifest["evaluations"]["total"],
            )
        elif args.command == "grid":
            config, base = _load(args)
            if args.threads < 1:
                raise ConfigError("--threads must be at least 1")
            manifest = grid_command(
                config, args.output, base,
                resolution=args.resolution,
                n_per_point=args.per_point,
                workers=args.threads,
            )
            log.info(
                "grid complete: %d evaluations", manifest["evaluations"]["total"]
            )
        elif args.command == "compare":
            passed, summary = compare_command(args.run, args.oracle, args.output)
            print(json.dumps(summary, indent=2, sort_keys=True))
            if not passed:
                log.error(
                    "comparison failed: %.1f%% of judged points within tolerance",
                    100.0 * summary["fraction_within"],
                )
                return EXIT_COMPARISON
            log.info(
                "comparison passed: %.1f%% of judged points within tolerance",
                100.0 * summary["fraction_within"],
            )
        else:  # pragma: no cover - argparse enforces the choices
            return EXIT_CONFIG
    except ConfigError as exc:
        log.error("configuration error: %s", exc)
        return EXIT_CONFIG
    except (FpfkitError, AssertionError, RuntimeError, ValueError) as exc:
        log.error("runtime failure: %s", exc)
        return EXIT_RUNTIME
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
