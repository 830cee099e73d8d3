"""Command line interface.

Verbs:
  eval      run the method x task evaluation matrix from a config
  sweep     run the matrix once per vector dimensionality and plot the trend
  embed     export sentence vectors for one task/method pair as TSV
  validate  check a config as `eval` runs it, without running a cell: build
            its cells through `runner.plan`, as `eval` does, which makes the
            combination and input-file checks (a `{dim}` lexicon template
            fails) and then loads every task: it generates the synthetic ones
            and parses and splits the task files; no vector or frequency file
            is read

Every verb checks the config's schema as it loads it, and takes its cells
from `runner.plan`, which makes the output-dir, combination and input-file
checks before it loads a task; `sweep` makes them for all of its dims before
the first. The output dir must not be empty, and its nearest existing
ancestor, itself included, must be a directory: `--out` of `eval` and
`sweep` is checked by that rule (`runner.output_dir_problem`) before the
config loads, and the error names the flag; `embed --out` names a file in
a directory that exists. Only `sweep` draws plots, so `eval --format svg`
is refused before any task loads; a config's `output.formats` may list
`svg` under every verb.

On Linux, importing this module sets OPENBLAS_NUM_THREADS=1 before the
package imports NumPy, so OpenBLAS loads with one thread and forked workers
inherit it: `--workers` alone sets how many CPUs a run keeps busy. A
process that loaded NumPy before it imported this module keeps its BLAS
threads.

Exit codes: 0 success, 1 validation/config error, 2 runtime error. Every
flag fault (a bad value, an unknown or missing flag, no verb) exits 1 with
one error line and no usage block. `--seed`, `--workers` and each `--dims`
element are plain decimal integers: ASCII digits after an optional `-`. A
failed cell keeps the class of its fault and names the cell, so it counts
the same at any worker count. A missing, unreadable, non-UTF-8 or
malformed input file, the config included, exits 1 with one error line
that names the file, and so does a config that gives a key twice in one
object, or a task file whose split annotations cover every item but mark no
train or no test item. A task its kind cannot score (a classification task
of one label, a relatedness task whose test split holds fewer than 2
different scores) exits 1 with one error line that names the task, at
`validate` too. Output files are written whole or not at all.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

# OpenBLAS reads this once, when it loads, so it is set before .report imports NumPy.
# It is set, not defaulted: the thread count changes the last bits of SIF's M.T @ M.
if sys.platform == "linux":
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

from .errors import ConfigError, ParseError
from .report import format_value
from . import runner


class _Parser(argparse.ArgumentParser):
    def __init__(self, **kwargs):
        """Flags are given in full, in the parser and in each subparser."""
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message: str):
        """A flag fault is a ConfigError, so `main` exits 1 with one line."""
        raise ConfigError(message.removeprefix("argument "))


def _integer(text: str) -> int:
    """``text`` as a plain decimal integer: ASCII digits after an optional
    ``-``. `int` alone also reads ``1_0``, ``+1``, `` 1`` and other
    scripts' digits."""
    digits = text.removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    return int(text)


def _dims(text: str) -> list[int]:
    try:
        return [_integer(d) for d in text.split(",")]
    except argparse.ArgumentTypeError:
        raise argparse.ArgumentTypeError(
            f"not a comma-separated list of integers: {text!r}") from None


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", required=True, help="path to the JSON run config")
    p.add_argument("--out", help="output directory (overrides config)")
    p.add_argument("--format", help="comma-separated output formats: csv,json,md; sweep also svg")
    p.add_argument("--seed", type=_integer, help="run seed (overrides config)")
    p.add_argument("--workers", type=_integer, default=1,
                   help="processes that run cells, this one included (default 1)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="sentbench", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="run the evaluation matrix")
    _add_common(p_eval)

    p_sweep = sub.add_parser("sweep", help="run a dimensionality sweep")
    _add_common(p_sweep)
    p_sweep.add_argument("--dims", required=True, type=_dims,
                         help="comma-separated dims, e.g. 100,300,500,800")

    p_embed = sub.add_parser("embed", help="export sentence vectors")
    p_embed.add_argument("--config", required=True)
    p_embed.add_argument("--task", required=True, help="task name from the config")
    p_embed.add_argument("--method", required=True, help="method name from the config")
    p_embed.add_argument("--out", required=True, help="output TSV file")
    p_embed.add_argument("--seed", type=_integer)

    p_val = sub.add_parser("validate", help="check a config without running it")
    p_val.add_argument("--config", required=True)
    return parser


def _load(args) -> runner.RunConfig:
    # before any task loads, so no result is computed for nowhere; a flag given as "" is a
    # value, checked like any other, not the flag left out
    out = getattr(args, "out", None)
    if args.command == "embed" and out:  # embed's --out is a file, in a directory that exists
        if os.path.isdir(out):
            raise ConfigError(f"--out: is a directory: {out}")
        if not os.path.isdir(parent := os.path.dirname(out) or "."):
            fault = "not a directory" if os.path.exists(parent) else "no such directory"
            raise ConfigError(f"--out: {fault}: {parent}")
    elif out is not None and (problem := runner.output_dir_problem(out)):
        raise ConfigError(f"--out: {problem}")
    cfg = runner.load_config(args.config)
    if out is not None and args.command != "embed":
        cfg = replace(cfg, output_dir=out)
    if getattr(args, "format", None) is not None:
        formats = tuple(args.format.split(","))
        for f in formats:  # checked here, so that the error names the flag, not a config key
            if f not in runner.FORMATS:
                raise ConfigError(f"--format: unknown format {f!r}")
            if f == "svg" and args.command == "eval":  # a plot is drawn over a sweep's dims
                raise ConfigError("--format: svg is only written by sweep")
        cfg = replace(cfg, formats=formats)
    if getattr(args, "seed", None) is not None:
        cfg = replace(cfg, seed=args.seed)
    if getattr(args, "workers", 1) < 1:
        raise ConfigError("--workers must be at least 1")
    return cfg


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        cfg = _load(args)
        if args.command == "validate":
            runner.plan(cfg, None, runner.Inputs())  # every check a run makes before its first cell
            print("config ok")
            return 0
        if args.command == "eval":
            (matrix,) = runner.run_and_write(cfg, workers=args.workers)
            for m in matrix.methods:
                for t in matrix.tasks:
                    print(f"{m}\t{t}\t{format_value(matrix.get(m, t))}")
            return 0
        if args.command == "sweep":
            runner.dim_sweep(cfg, args.dims, workers=args.workers)
            print(f"wrote {len(args.dims)} matrices to {cfg.output_dir}")
            return 0
        n = runner.export_sentence_vectors(cfg, args.task, args.method, args.out)  # embed
        print(f"wrote {n} sentence vectors to {args.out}")
        return 0
    except (ConfigError, ParseError) as exc:
        for line in str(exc).splitlines():  # a config check lists one problem per line
            print(f"error: {line}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
