"""Evaluation orchestration: run method x task matrices and dimensionality
sweeps from a declarative JSON config, writing tables, plots and metadata.

The config schema and the sentence-vector TSV keying are documented in
README.md, sections "Run configuration" and "File formats".
"""

from __future__ import annotations

import inspect
import json
import os
import threading
import zlib
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, replace
from typing import Sequence

import numpy as np

from . import aggregate, probe, tasks as tasks_mod
from .errors import ConfigError, ParseError
from .lexicon import (
    FrequencyTable,
    VectorTable,
    load_frequency_table,
    load_sentence_vector_table,
    load_word_vectors,
    random_table,
    save_sentence_vector_table,
)
from .metrics import EvalResult, accuracy, pearson
from .report import ResultMatrix, line_plot_svg, matrix_to_csv, matrix_to_json, matrix_to_markdown

TASK_KINDS = ("classification", "entailment", "relatedness")
STRATEGY_NAMES = ("mean", "sif", "mean_max")
FORMATS = ("csv", "json", "md", "svg")
RELATEDNESS_BINS = 5


@dataclass(frozen=True)
class TaskSpec:
    name: str
    kind: str = "classification"
    path: str | None = None
    synthetic: dict | None = None
    label_set: Sequence[str] | None = None

    def __post_init__(self):
        if self.kind not in TASK_KINDS:
            raise ConfigError(f"task {self.name!r}: unknown kind {self.kind!r}")
        if (self.path is None) == (self.synthetic is None):
            raise ConfigError(f"task {self.name!r}: exactly one of path/synthetic required")
        labels = self.label_set
        if labels is not None and not (
            self.kind == "classification" and self.path is not None
            and isinstance(labels, (list, tuple)) and all(isinstance(x, str) for x in labels)
        ):
            raise ConfigError(f"task {self.name!r}: label_set must be a list of strings "
                              "on a file classification task")
        keys = inspect.signature(_generator(self.kind)).parameters
        unknown = sorted(set(self.synthetic or ()) - set(keys))
        if unknown:
            raise ConfigError(
                f"task {self.name!r}: unknown synthetic key(s): {', '.join(unknown)}"
            )


@dataclass(frozen=True)
class MethodSpec:
    name: str
    strategy: str = "mean"
    lexicon: str | None = None  # "random", a path, or a path template with {dim}
    sentence_vectors: str | None = None
    dim: int | None = None  # random-lexicon dimensionality; a sweep overrides it
    sif_a: float = aggregate.DEFAULT_SIF_A
    frequencies: str | None = None
    normalize: bool = True

    def __post_init__(self):
        if (self.lexicon is None) == (self.sentence_vectors is None):
            raise ConfigError(
                f"method {self.name!r}: exactly one of lexicon/sentence_vectors required"
            )
        if self.lexicon is not None and self.strategy not in STRATEGY_NAMES:
            raise ConfigError(f"method {self.name!r}: unknown strategy {self.strategy!r}")
        if self.lexicon == "random" and (self.dim is None or self.dim <= 0):
            raise ConfigError(f"method {self.name!r}: random lexicon needs a positive dim")
        if self.lexicon != "random" and self.dim is not None:
            raise ConfigError(f"method {self.name!r}: dim is only for the random lexicon")


@dataclass(frozen=True)
class RunConfig:
    tasks: tuple[TaskSpec, ...]
    methods: tuple[MethodSpec, ...]
    probe: probe.ProbeConfig = probe.ProbeConfig()
    output_dir: str = "out"
    formats: tuple[str, ...] = ("csv", "json", "md")
    seed: int = 0
    split_ratios: tuple[float, float, float] = tasks_mod.DEFAULT_RATIOS

    def __post_init__(self):
        object.__setattr__(self, "formats", tuple(self.formats))
        object.__setattr__(self, "split_ratios", tuple(self.split_ratios))
        if not self.tasks:
            raise ConfigError("config needs at least one task")
        if not self.methods:
            raise ConfigError("config needs at least one method")
        names = [t.name for t in self.tasks]
        if len(set(names)) != len(names):
            raise ConfigError("duplicate task names")
        names = [m.name for m in self.methods]
        if len(set(names)) != len(names):
            raise ConfigError("duplicate method names")
        for f in self.formats:
            if f not in FORMATS:
                raise ConfigError(f"unknown output format {f!r}")


_OUTPUT_FIELDS = {"dir": "output_dir", "formats": "formats"}  # "output" key -> RunConfig field


def parse_config(data: dict) -> RunConfig:
    """Build a validated RunConfig from a decoded JSON document. An omitted
    key takes its dataclass default; an unknown key is an error."""
    if not isinstance(data, dict):
        raise ConfigError("config root must be an object")
    try:
        output = data.get("output", {})
        known = {"tasks", "methods", "probe", "output", "seed", "split_ratios"}
        unknown = sorted(set(data) - known)
        unknown += sorted(f"output.{k}" for k in set(output) - set(_OUTPUT_FIELDS))
        if unknown:
            raise ConfigError(f"unknown config key(s): {', '.join(unknown)}")
        return RunConfig(
            tasks=tuple(TaskSpec(**t) for t in data.get("tasks", ())),
            methods=tuple(MethodSpec(**m) for m in data.get("methods", ())),
            probe=probe.ProbeConfig(**data.get("probe", {})),
            **{k: data[k] for k in ("seed", "split_ratios") if k in data},
            **{_OUTPUT_FIELDS[k]: v for k, v in output.items()},
        )
    except (TypeError, ValueError, AttributeError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"malformed config: {exc}") from exc


def load_config(path: str) -> RunConfig:
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return parse_config(data)


def stable_seed(base: int, *labels: str) -> int:
    """Deterministic per-cell seed derived from the run seed and string labels.
    Labels are joined with ``|`` after escaping ``\\`` and ``|``, so distinct
    label tuples hash distinct strings."""
    escaped = (label.replace("\\", "\\\\").replace("|", "\\|") for label in labels)
    h = zlib.crc32("|".join(escaped).encode("utf-8"))
    return (base * 1_000_003 + h) % (2**31)


def _generator(kind: str):
    """The synthetic generator of a task kind. Its keyword parameters, with
    their defaults, are the keys a ``synthetic`` block may set."""
    if kind == "classification":
        return tasks_mod.synthetic_classification
    return tasks_mod.synthetic_relatedness


def load_task(spec: TaskSpec, cfg: RunConfig, dim: int | None = None):
    """Resolve a task spec to (task, lexicon-or-None). Synthetic tasks carry
    their own generated lexicon and are parametric in the vector dim, which a
    sweep overrides; file tasks have no lexicon. A task whose generator or
    split rejects its parameters is a config error naming the task."""
    try:
        if spec.synthetic is not None:
            dims = {} if dim is None else {"dim": dim}
            task, table = _generator(spec.kind)(**{"seed": cfg.seed, **spec.synthetic, **dims})
            return replace(task, name=spec.name), table
        with open(spec.path, encoding="utf-8") as fh:
            if spec.kind == "classification":
                task = tasks_mod.load_classification_tsv(fh, spec.label_set, name=spec.name)
            else:
                task = tasks_mod.load_sick_tsv(fh, name=spec.name)
        covered = sum(len(v) for v in task.splits.values())
        if covered < len(task.labels) or not task.splits.get("test"):
            task = tasks_mod.split(task, cfg.split_ratios, seed=stable_seed(cfg.seed, spec.name))
        return task, None
    except ParseError:
        raise
    except (TypeError, ValueError) as exc:  # e.g. "items": "200", or too few items to split
        raise ConfigError(f"task {spec.name!r}: {exc}") from exc


class Inputs:
    """The parse cache of one run. Each input file is parsed on first use, by
    the first cell that needs it, and kept for every later cell and dim; a
    file task is loaded once for all dims. Word vectors are kept for one dim:
    ``run_matrix`` calls ``next_dim`` first, so a sweep holds one dim's table
    at a time."""

    def __init__(self):
        self._lock = threading.Lock()  # held while parsing, so a file is never parsed twice
        self._parsed = {}
        self._tasks = {}

    def read(self, path: str, loader):
        with self._lock:
            if (path, loader) not in self._parsed:
                with open(path, encoding="utf-8") as fh:
                    self._parsed[path, loader] = loader(fh)
            return self._parsed[path, loader]

    def task(self, spec: TaskSpec, cfg: RunConfig, dim: int | None):
        """``load_task(spec, cfg, dim)``. Only synthetic tasks depend on the dim."""
        if spec.path is None:
            return load_task(spec, cfg, dim)
        if spec.name not in self._tasks:
            self._tasks[spec.name] = load_task(spec, cfg)
        return self._tasks[spec.name]

    def next_dim(self) -> None:
        """Drop the word vectors. Called before a dim's cells start, so no
        other thread reads the cache."""
        self._parsed = {k: v for k, v in self._parsed.items() if k[1] is not load_word_vectors}


def _lexicon_path(method: MethodSpec, dim: int | None) -> str | None:
    """The word-vector file a method reads at ``dim``: its lexicon path with
    ``{dim}`` filled in, or None when it reads none."""
    if method.lexicon in (None, "random", "synthetic"):
        return None
    if dim is None and "{dim}" in method.lexicon:
        raise ConfigError(f"method {method.name!r}: lexicon template needs a sweep dim")
    return method.lexicon.format(dim=dim) if "{dim}" in method.lexicon else method.lexicon


def _resolve_lexicon(
    method: MethodSpec, task, synthetic_table, cfg: RunConfig, dim: int | None, inputs: Inputs
) -> VectorTable:
    if method.lexicon == "random":
        d = dim if dim is not None else method.dim
        return random_table(
            task.vocabulary(), d, seed=stable_seed(cfg.seed, "random-lexicon", method.name)
        )
    if method.lexicon == "synthetic":
        if synthetic_table is None:
            raise ConfigError(
                f"method {method.name!r}: lexicon 'synthetic' only works with synthetic tasks"
            )
        return synthetic_table
    return inputs.read(_lexicon_path(method, dim), load_word_vectors)


def _frequencies_for(method: MethodSpec, task, inputs: Inputs):
    """SIF word probabilities: from the configured file, else estimated from
    the task's training-split tokens."""
    if method.frequencies is not None:
        return inputs.read(method.frequencies, load_frequency_table)
    train = task.rows(task.splits.get("train", range(len(task.labels))))
    counts = Counter(t for r in train for t in task.sentences[r])
    return FrequencyTable(counts=counts, total=max(1, sum(counts.values())))


def _strategy_for(method: MethodSpec, task, inputs: Inputs) -> aggregate.AggregationStrategy:
    if method.strategy == "mean":
        return aggregate.Mean()
    if method.strategy == "mean_max":
        return aggregate.MeanMaxConcat()
    return aggregate.Sif(freq=_frequencies_for(method, task, inputs), a=method.sif_a)


def sentence_matrix(
    task,
    method: MethodSpec,
    cfg: RunConfig,
    synthetic_table: VectorTable | None = None,
    dim: int | None = None,
    inputs: Inputs | None = None,
) -> np.ndarray:
    """Sentence vectors for every sentence of the task, in corpus order.
    Input files are parsed through ``inputs``, a fresh cache by default."""
    inputs = inputs or Inputs()
    if method.sentence_vectors is not None:
        table = inputs.read(method.sentence_vectors, load_sentence_vector_table)
        try:
            return table.vectors[[table.row[sid] for sid in task.sentence_ids()]]
        except KeyError as exc:
            raise ConfigError(
                f"method {method.name!r}: sentence id {exc.args[0]!r} missing from "
                f"{method.sentence_vectors}"
            ) from None
    lex = _resolve_lexicon(method, task, synthetic_table, cfg, dim, inputs)
    strat = _strategy_for(method, task, inputs)
    fit_rows = None
    if isinstance(strat, aggregate.Sif):
        if not task.splits.get("train"):
            raise ConfigError(f"task {task.name!r}: SIF needs a train split to fit on")
        fit_rows = task.rows(task.splits["train"])
    return aggregate.embed_corpus(
        task.sentences, lex, strat, fit_rows=fit_rows, normalize_tokens=method.normalize
    )


def run_task(
    task,
    method: MethodSpec,
    cfg: RunConfig,
    kind: str,
    synthetic_table: VectorTable | None = None,
    dim: int | None = None,
    inputs: Inputs | None = None,
) -> EvalResult:
    """Embed, train the probe on the train split and evaluate on the test
    split. Classification and entailment report the accuracy of predicted
    labels; relatedness reports the Pearson correlation of predicted vs gold
    scores. Pair tasks are probed on ``|u - v| ++ u * v`` of their A and B
    sentence vectors."""
    train_idx = task.splits.get("train", [])
    test_idx = task.splits.get("test", [])
    if not train_idx:
        raise ValueError(f"task {task.name!r} has an empty train split")
    if not test_idx:
        raise ValueError(f"task {task.name!r} has an empty test split")
    S = sentence_matrix(task, method, cfg, synthetic_table, dim, inputs)
    probe_cfg = replace(cfg.probe, seed=stable_seed(cfg.seed, method.name, task.name))
    X = S if task.pair_ids is None else probe.pair_features(*np.split(S, 2))
    if kind == "relatedness":
        gold = np.array(task.scores)
        model = probe.train_relatedness(X[train_idx], gold[train_idx], RELATEDNESS_BINS, probe_cfg)
        probs = probe.predict_proba(model, X[test_idx])
        preds = [probe.distribution_to_score(p) for p in probs]
        value = pearson(preds, gold[test_idx])
    else:
        labels = np.array([task.label_set.index(lab) for lab in task.labels])
        model = probe.train_classifier(
            X[train_idx], labels[train_idx], len(task.label_set), probe_cfg
        )
        probs = probe.predict_proba(model, X[test_idx])
        preds = probs.argmax(axis=1)
        value = accuracy(list(preds), list(labels[test_idx]))
    return EvalResult(
        task_name=task.name, method_name=method.name, measure=_measure_for(kind),
        value=value, n=len(test_idx),
    )


def _measure_for(kind: str) -> str:
    return "pearson" if kind == "relatedness" else "accuracy"


def run_matrix(
    cfg: RunConfig, workers: int = 1, dim: int | None = None, inputs: Inputs | None = None
) -> ResultMatrix:
    """Evaluate every method on every task. Cells are independent and may run
    in parallel; results do not depend on the worker count. Tasks and input
    files come from ``inputs``, the run's parse cache (a fresh one by
    default). Any cell failure aborts the whole run with an error naming the
    cell."""
    inputs = inputs or Inputs()
    inputs.next_dim()
    loaded = [(spec, *inputs.task(spec, cfg, dim)) for spec in cfg.tasks]
    cells_in = [
        (method, spec, task, table)
        for method in cfg.methods
        for spec, task, table in loaded
    ]

    def compute(args):
        method, spec, task, table = args
        try:
            return run_task(task, method, cfg, spec.kind, table, dim, inputs)
        except Exception as exc:
            raise RuntimeError(
                f"cell (method={method.name!r}, task={spec.name!r}) failed: {exc}"
            ) from exc

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(compute, cells_in))
    else:
        results = [compute(c) for c in cells_in]
    cells = {(r.method_name, r.task_name): r for r in results}
    return ResultMatrix(
        methods=tuple(m.name for m in cfg.methods),
        tasks=tuple(t.name for t in cfg.tasks),
        cells=cells,
    )


def run_metadata(cfg: RunConfig, dims: Sequence[int] | None = None) -> dict:
    meta = {
        "seed": cfg.seed,
        "split_ratios": list(cfg.split_ratios),
        "probe": {k: v for k, v in asdict(cfg.probe).items() if k != "seed"},
        "methods": [
            {
                "name": m.name,
                "strategy": m.strategy if m.lexicon is not None else "precomputed",
                "lexicon": m.lexicon,
                "sentence_vectors": m.sentence_vectors,
                "dim": m.dim,
                "sif_a": m.sif_a if m.strategy == "sif" else None,
                "normalize": m.normalize,
            }
            for m in cfg.methods
        ],
        "tasks": [{"name": t.name, "kind": t.kind} for t in cfg.tasks],
    }
    if dims is not None:
        meta["dims"] = list(dims)
    return meta


def run_and_write(
    cfg: RunConfig, dims: Sequence[int] | None = None, workers: int = 1
) -> list[ResultMatrix]:
    """Check the run with `check_config`, then run the matrix once per dim,
    or once with no dim for `eval`, through one parse cache, and write
    ``results{suffix}.{csv,json,md}`` (suffix ``-dim<d>``, empty for `eval`),
    a per-task SVG plot of score vs dim when dims are given, and
    ``run-metadata.json``."""
    check_config(cfg, dims)
    runs = [None] if dims is None else list(dims)
    inputs = Inputs()
    matrices = [run_matrix(cfg, workers, d, inputs) for d in runs]
    renderers = {"csv": matrix_to_csv, "json": matrix_to_json, "md": matrix_to_markdown}
    os.makedirs(cfg.output_dir, exist_ok=True)

    def emit(name: str, content: str):
        with open(os.path.join(cfg.output_dir, name), "w", encoding="utf-8", newline="\n") as fh:
            fh.write(content)

    for matrix, d in zip(matrices, runs):
        suffix = "" if d is None else f"-dim{d}"
        for fmt, render in renderers.items():
            if fmt in cfg.formats:
                emit(f"results{suffix}.{fmt}", render(matrix))
    if dims and "svg" in cfg.formats:
        for spec in cfg.tasks:
            series = {
                m.name: [mx.get(m.name, spec.name).value for mx in matrices] for m in cfg.methods
            }
            emit(f"{spec.name}.svg", line_plot_svg(
                list(dims), series, title=spec.name, ylabel=_measure_for(spec.kind)))
    emit("run-metadata.json", json.dumps(run_metadata(cfg, dims), indent=2) + "\n")
    return matrices


def dim_sweep(cfg: RunConfig, dims: Sequence[int], workers: int = 1) -> list[ResultMatrix]:
    """The `sweep` verb: `run_and_write` over ``dims``. Methods must be
    parametric in the dim: random lexicons or lexicon path templates
    containing ``{dim}``."""
    return run_and_write(cfg, dims, workers)


def export_sentence_vectors(
    cfg: RunConfig, task_name: str, method_name: str, out: str | os.PathLike
) -> int:
    """The `embed` verb: write the sentence vectors of one task under one
    method as a sentence-vector TSV at ``out``. The file is opened only once
    the vectors are computed, so a config or input error leaves it as it
    was. Returns the number of rows written."""
    spec = next((t for t in cfg.tasks if t.name == task_name), None)
    if spec is None:
        raise ConfigError(f"no task named {task_name!r}")
    method = next((m for m in cfg.methods if m.name == method_name), None)
    if method is None:
        raise ConfigError(f"no method named {method_name!r}")
    check_config(replace(cfg, tasks=(spec,), methods=(method,)))
    task, table = load_task(spec, cfg)
    S = sentence_matrix(task, method, cfg, table)
    with open(out, "w", encoding="utf-8", newline="\n") as fh:
        save_sentence_vector_table(VectorTable(task.sentence_ids(), S), fh)
    return S.shape[0]


def validate_config(cfg: RunConfig, dims: Sequence[int] | None = None) -> list[str]:
    """The `validate` verb, and the check every verb makes before it loads a
    task: the problems of a run at each of ``dims``, or at no dim for `eval`
    and `embed`. Each problem and each missing file is reported once. An
    empty list means the run can start."""
    problems = []
    if dims is not None:
        if not dims:
            problems.append("sweep needs at least one dim")
        problems += [f"sweep dim {d} is given {n} times" for d, n in Counter(dims).items() if n > 1]
        problems += [f"sweep dim {d} is not positive" for d in dict.fromkeys(dims) if d <= 0]
        for m in cfg.methods:
            if m.lexicon not in ("random", "synthetic") and "{dim}" not in (m.lexicon or ""):
                problems.append(
                    f"method {m.name!r}: sweep needs a parametric lexicon "
                    "(random, synthetic, or a path template with {dim})"
                )
    file_tasks = [t.name for t in cfg.tasks if t.path is not None]
    # path -> a reader to name, so each missing file is reported once
    reads = {t.path: f"task {t.name!r}: file not found" for t in cfg.tasks}
    for m in cfg.methods:
        if m.lexicon == "synthetic" and file_tasks:
            problems.append(
                f"method {m.name!r}: lexicon 'synthetic' only works with synthetic tasks, "
                f"not file task(s) {', '.join(map(repr, file_tasks))}"
            )
        for d in [None] if dims is None else dims:
            try:
                reads.setdefault(_lexicon_path(m, d), f"method {m.name!r}: lexicon file not found")
            except ConfigError as exc:
                problems.append(str(exc))
        for path in (m.sentence_vectors, m.frequencies):
            reads.setdefault(path, f"method {m.name!r}: file not found")
    return problems + [
        f"{reader}: {path}" for path, reader in reads.items()
        if path is not None and not os.path.exists(path)
    ]


def check_config(cfg: RunConfig, dims: Sequence[int] | None = None) -> None:
    """Raise one ConfigError listing every problem `validate_config` finds,
    one per line."""
    problems = validate_config(cfg, dims)
    if problems:
        raise ConfigError("\n".join(problems))
