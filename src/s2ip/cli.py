"""Command-line entry point: ``s2ip <command> --config <path> [--seed N]
[--out DIR]``. Exits 0 on success; a configuration error prints a diagnostic
and exits 2, a runtime error prints one and exits 1."""

from __future__ import annotations

import argparse
import sys
import warnings

import numpy as np

from .config import ConfigError, RunConfig, parse_config
from .harness import COMMANDS, HarnessError, run


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="s2ip",
        description="Train and evaluate a prompt-enhanced forecaster over a "
                    "frozen miniature transformer.")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", default=None,
                        help="key=value configuration file (defaults apply "
                             "when omitted)")
    parser.add_argument("--seed", type=int, default=None,
                        help="overrides train.seed from the config")
    parser.add_argument("--out", default="s2ip_out",
                        help="output directory for artifacts")
    parser.add_argument("--checkpoint", default=None,
                        help="checkpoint path for evaluate/forecast/"
                             "export-embeddings (default: <out>/model.ckpt)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = parse_config(args.config) if args.config else RunConfig()
    except ConfigError as exc:
        print(f"error: invalid configuration: {exc}", file=sys.stderr)
        return 2
    if args.seed is not None and args.seed < 0:
        print(f"error: invalid configuration: --seed must be >= 0, got "
              f"{args.seed}", file=sys.stderr)
        return 2
    seed = args.seed if args.seed is not None else config["train.seed"]
    try:
        # a refusal prints one line: NumPy's warnings are noise, and the
        # run's own (a split too short for one window) are dropped, since a
        # refusal about a split names its row count itself
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"), \
                warnings.catch_warnings(record=True) as caught:
            artifacts = run(args.command, config, seed, args.out,
                            args.checkpoint)
    except ConfigError as exc:
        print(f"error: invalid configuration: {exc}", file=sys.stderr)
        return 2
    except (HarnessError, ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for w in caught:
        warnings.showwarning(w.message, w.category, w.filename, w.lineno)
    for path in artifacts:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
