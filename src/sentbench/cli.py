"""Command line interface.

Verbs:
  eval      run the method x task evaluation matrix from a config
  sweep     run the matrix once per vector dimensionality and plot the trend
  embed     export sentence vectors for one task/method pair as TSV
  validate  dry-run a config: schema plus referenced-file checks

Exit codes: 0 success, 1 validation/config error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .errors import ConfigError, ParseError
from .report import format_value
from . import runner


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", required=True, help="path to the JSON run config")
    p.add_argument("--out", help="output directory (overrides config)")
    p.add_argument("--format", help="comma-separated output formats: csv,json,md,svg")
    p.add_argument("--seed", type=int, help="run seed (overrides config)")
    p.add_argument("--workers", type=int, default=1, help="parallel cells (default 1)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sentbench", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="run the evaluation matrix")
    _add_common(p_eval)

    p_sweep = sub.add_parser("sweep", help="run a dimensionality sweep")
    _add_common(p_sweep)
    p_sweep.add_argument("--dims", required=True, help="comma-separated dims, e.g. 100,300,500,800")

    p_embed = sub.add_parser("embed", help="export sentence vectors")
    p_embed.add_argument("--config", required=True)
    p_embed.add_argument("--task", required=True, help="task name from the config")
    p_embed.add_argument("--method", required=True, help="method name from the config")
    p_embed.add_argument("--out", required=True, help="output TSV file")
    p_embed.add_argument("--seed", type=int)

    p_val = sub.add_parser("validate", help="check a config without running it")
    p_val.add_argument("--config", required=True)
    return parser


def _load(args) -> runner.RunConfig:
    cfg = runner.load_config(args.config)
    if getattr(args, "out", None):
        cfg = replace(cfg, output_dir=args.out)
    if getattr(args, "format", None):
        cfg = replace(cfg, formats=tuple(args.format.split(",")))
    if getattr(args, "seed", None) is not None:
        cfg = replace(cfg, seed=args.seed)
    return cfg


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _load(args)
        problems = runner.validate_config(cfg) if args.command in ("validate", "eval") else []
        for p in problems:
            print(f"error: {p}", file=sys.stderr)
        if problems:
            return 1
        if args.command == "validate":
            print("config ok")
            return 0
        if args.command == "eval":
            (matrix,) = runner.run_and_write(cfg, workers=args.workers)
            for m in matrix.methods:
                for t in matrix.tasks:
                    print(f"{m}\t{t}\t{format_value(matrix.get(m, t))}")
            return 0
        if args.command == "sweep":
            try:
                dims = [int(d) for d in args.dims.split(",") if d]
            except ValueError:
                raise ConfigError(f"bad --dims value {args.dims!r}") from None
            runner.dim_sweep(cfg, dims, workers=args.workers)
            print(f"wrote {len(dims)} matrices to {cfg.output_dir}")
            return 0
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:  # embed
            n = runner.export_sentence_vectors(cfg, args.task, args.method, fh)
        print(f"wrote {n} sentence vectors to {args.out}")
        return 0
    except (ConfigError, ParseError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
