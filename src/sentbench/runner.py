"""Evaluation orchestration: run method x task matrices and dimensionality
sweeps from a declarative JSON config, writing tables, plots and metadata.

The config schema and the sentence-vector TSV keying are documented in
README.md, sections "Run configuration" and "File formats".
"""

from __future__ import annotations

import json
import os
import threading
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, replace
from typing import IO, Sequence

import numpy as np

from . import aggregate, probe, tasks as tasks_mod
from .errors import ConfigError
from .lexicon import (
    FrequencyTable,
    SentenceVectorTable,
    WordVectorTable,
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


@dataclass(frozen=True)
class MethodSpec:
    name: str
    strategy: str = "mean"
    lexicon: str | None = None  # "random", a path, or a path template with {dim}
    sentence_vectors: str | None = None
    dim: int | None = None  # random-lexicon dimensionality
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
    """Deterministic per-cell seed derived from the run seed and string labels."""
    h = zlib.crc32("|".join(labels).encode("utf-8"))
    return (base * 1_000_003 + h) % (2**31)


def load_task(spec: TaskSpec, cfg: RunConfig, dim: int | None = None):
    """Resolve a task spec to (task object, lexicon-or-None). Synthetic tasks
    carry their own generated lexicon and are parametric in the vector dim,
    which a sweep overrides; file tasks have no lexicon."""
    if spec.synthetic is not None:
        syn = spec.synthetic
        d = dim if dim is not None else syn.get("dim", 16)
        if spec.kind == "classification":
            task, table = tasks_mod.synthetic_classification(
                K=syn.get("classes", 2),
                n=syn.get("items", 200),
                vocab_per_class=syn.get("vocab_per_class", 20),
                seed=syn.get("seed", cfg.seed),
                dim=d,
            )
        else:
            task, table = tasks_mod.synthetic_relatedness(
                n=syn.get("pairs", 300), d=d, seed=syn.get("seed", cfg.seed)
            )
        task = replace(task, name=spec.name)
        return task, table
    with open(spec.path, encoding="utf-8") as fh:
        if spec.kind == "classification":
            task = tasks_mod.load_classification_tsv(fh, label_set=spec.label_set, name=spec.name)
        else:
            task = replace(tasks_mod.load_sick_tsv(fh), name=spec.name)
    covered = sum(len(v) for v in task.splits.values())
    if covered < len(task.items) or not task.splits.get("test"):
        task = tasks_mod.split(task, cfg.split_ratios, seed=stable_seed(cfg.seed, spec.name))
    return task, None


def _read(path: str, loader):
    """Parse one input file with ``loader``. ``run_matrix`` passes cells a
    cached version of this, so each file is parsed once per run."""
    with open(path, encoding="utf-8") as fh:
        return loader(fh)


def _resolve_lexicon(
    method: MethodSpec, task, synthetic_table, cfg: RunConfig, dim: int | None, read
) -> WordVectorTable:
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
    path = method.lexicon
    if "{dim}" in path:
        if dim is None:
            raise ConfigError(f"method {method.name!r}: lexicon template needs a sweep dim")
        path = path.format(dim=dim)
    if not os.path.exists(path):
        if dim is not None:
            raise ConfigError(f"method {method.name!r}: no lexicon for dim {dim}: {path}")
        raise ConfigError(f"method {method.name!r}: lexicon file not found: {path}")
    return read(path, load_word_vectors)


def _frequencies_for(method: MethodSpec, task, read):
    """SIF word probabilities: from the configured file, else estimated from
    the task's training-split tokens."""
    if method.frequencies is not None:
        return read(method.frequencies, load_frequency_table)
    counts: dict[str, int] = {}
    train = task.splits.get("train", range(len(task.items)))
    for i in train:
        item = task.items[i]
        toks = item.tokens_a + item.tokens_b if isinstance(item, tasks_mod.PairItem) else item[0]
        for t in toks:
            counts[t] = counts.get(t, 0) + 1
    return FrequencyTable(counts=counts, total=max(1, sum(counts.values())))


def _strategy_for(method: MethodSpec, task, read) -> aggregate.AggregationStrategy:
    if method.strategy == "mean":
        return aggregate.Mean()
    if method.strategy == "mean_max":
        return aggregate.MeanMaxConcat()
    return aggregate.Sif(freq=_frequencies_for(method, task, read), a=method.sif_a)


def _sentence_ids(task) -> list[str]:
    if isinstance(task, tasks_mod.PairTask):
        return [f"{it.id}_A" for it in task.items] + [f"{it.id}_B" for it in task.items]
    return [str(i) for i in range(len(task.items))]


def _corpus_sentences(task) -> list[tuple[str, ...]]:
    if isinstance(task, tasks_mod.PairTask):
        return [it.tokens_a for it in task.items] + [it.tokens_b for it in task.items]
    return [toks for toks, _ in task.items]


def sentence_matrix(
    task,
    method: MethodSpec,
    cfg: RunConfig,
    synthetic_table: WordVectorTable | None = None,
    dim: int | None = None,
    read=_read,
) -> np.ndarray:
    """Sentence vectors for every sentence of the task, in corpus order (for
    pair tasks: all A sentences then all B sentences). ``read(path, loader)``
    parses an input file."""
    sentences = _corpus_sentences(task)
    if method.sentence_vectors is not None:
        table = read(method.sentence_vectors, load_sentence_vector_table)
        rows = []
        for sid in _sentence_ids(task):
            vec = table.entries.get(sid)
            if vec is None:
                raise ConfigError(
                    f"method {method.name!r}: sentence id {sid!r} missing from {method.sentence_vectors}"
                )
            rows.append(vec)
        return np.stack(rows)
    lex = _resolve_lexicon(method, task, synthetic_table, cfg, dim, read)
    strat = _strategy_for(method, task, read)
    fit_rows = None
    if isinstance(strat, aggregate.Sif):
        train = list(task.splits.get("train", []))
        if not train:
            raise ConfigError(f"task {task.name!r}: SIF needs a train split to fit on")
        if isinstance(task, tasks_mod.PairTask):
            n = len(task.items)
            fit_rows = train + [i + n for i in train]
        else:
            fit_rows = train
    return aggregate.embed_corpus(
        sentences, lex, strat, fit_rows=fit_rows, normalize_tokens=method.normalize
    )


def run_task(
    task,
    method: MethodSpec,
    cfg: RunConfig,
    kind: str,
    synthetic_table: WordVectorTable | None = None,
    dim: int | None = None,
    read=_read,
) -> EvalResult:
    """Embed, train the probe on the train split and evaluate on the test
    split. Classification and entailment report accuracy; relatedness reports
    the Pearson correlation of predicted vs gold scores."""
    train_idx = task.splits.get("train", [])
    test_idx = task.splits.get("test", [])
    if not train_idx:
        raise ValueError(f"task {task.name!r} has an empty train split")
    if not test_idx:
        raise ValueError(f"task {task.name!r} has an empty test split")
    S = sentence_matrix(task, method, cfg, synthetic_table, dim, read)
    probe_cfg = replace(cfg.probe, seed=stable_seed(cfg.seed, method.name, task.name))
    if isinstance(task, tasks_mod.PairTask):
        n = len(task.items)
        X = probe.pair_features(S[:n], S[n:])
    else:
        X = S
    if kind == "relatedness":
        gold = np.array([it.relatedness for it in task.items])
        model = probe.train_relatedness(X[train_idx], gold[train_idx], RELATEDNESS_BINS, probe_cfg)
        probs = probe.predict_proba(model, X[test_idx])
        preds = [probe.distribution_to_score(p) for p in probs]
        value = pearson(preds, gold[test_idx])
    else:
        if kind == "entailment":
            label_set = list(tasks_mod.ENTAILMENT_LABELS)
            labels = np.array([label_set.index(it.entailment) for it in task.items])
        else:
            label_set = list(task.label_set)
            labels = np.array([label_set.index(lab) for _, lab in task.items])
        model = probe.train_classifier(X[train_idx], labels[train_idx], len(label_set), probe_cfg)
        probs = probe.predict_proba(model, X[test_idx])
        preds = probs.argmax(axis=1)
        value = accuracy(list(preds), list(labels[test_idx]))
    return EvalResult(
        task_name=task.name, method_name=method.name, measure=_measure_for(kind),
        value=value, n=len(test_idx),
    )


def _measure_for(kind: str) -> str:
    return "pearson" if kind == "relatedness" else "accuracy"


def run_matrix(cfg: RunConfig, workers: int = 1, dim: int | None = None) -> ResultMatrix:
    """Evaluate every method on every task. Cells are independent and may run
    in parallel; results do not depend on the worker count. Each input file
    is parsed once, by the first cell that needs it. Any cell failure aborts
    the whole run with an error naming the cell."""
    loaded = [(spec, *load_task(spec, cfg, dim)) for spec in cfg.tasks]
    lock, parsed = threading.Lock(), {}

    def read(path, loader):
        with lock:  # held while parsing, so a file is never parsed twice
            if (path, loader) not in parsed:
                parsed[path, loader] = _read(path, loader)
            return parsed[path, loader]

    cells_in = [
        (method, spec, task, table)
        for method in cfg.methods
        for spec, task, table in loaded
    ]

    def compute(args):
        method, spec, task, table = args
        try:
            return run_task(task, method, cfg, spec.kind, table, dim, read)
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
    """Run the matrix once per dim, or once with no dim for `eval`, then write
    ``results{suffix}.{csv,json,md}`` (suffix ``-dim<d>``, empty for `eval`),
    a per-task SVG plot of score vs dim when dims are given, and
    ``run-metadata.json``."""
    runs = list(dims) if dims else [None]
    matrices = [run_matrix(cfg, workers=workers, dim=d) for d in runs]
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
    if not dims:
        raise ConfigError("sweep needs at least one dim")
    for m in cfg.methods:
        if m.sentence_vectors is not None:
            raise ConfigError(f"method {m.name!r}: precomputed vectors cannot sweep dims")
        if m.lexicon not in ("random", "synthetic") and "{dim}" not in (m.lexicon or ""):
            raise ConfigError(
                f"method {m.name!r}: sweep needs a parametric lexicon "
                "(random, synthetic, or a path template with {dim})"
            )
    return run_and_write(cfg, dims, workers)


def export_sentence_vectors(
    cfg: RunConfig, task_name: str, method_name: str, stream: IO[str]
) -> int:
    """The `embed` verb: write the sentence vectors of one task under one
    method as a sentence-vector TSV. Returns the number of rows written."""
    spec = next((t for t in cfg.tasks if t.name == task_name), None)
    if spec is None:
        raise ConfigError(f"no task named {task_name!r}")
    method = next((m for m in cfg.methods if m.name == method_name), None)
    if method is None:
        raise ConfigError(f"no method named {method_name!r}")
    task, table = load_task(spec, cfg)
    S = sentence_matrix(task, method, cfg, table)
    entries = dict(zip(_sentence_ids(task), S))
    save_sentence_vector_table(SentenceVectorTable(dim=S.shape[1], entries=entries), stream)
    return S.shape[0]


def validate_config(cfg: RunConfig) -> list[str]:
    """The `validate` verb: dry-run checks. Returns a list of problems (empty
    when the config is runnable)."""
    problems = []
    for t in cfg.tasks:
        if t.path is not None and not os.path.exists(t.path):
            problems.append(f"task {t.name!r}: file not found: {t.path}")
    for m in cfg.methods:
        for path in (m.sentence_vectors, m.frequencies):
            if path is not None and not os.path.exists(path):
                problems.append(f"method {m.name!r}: file not found: {path}")
        if (
            m.lexicon is not None
            and m.lexicon not in ("random", "synthetic")
            and "{dim}" not in m.lexicon
            and not os.path.exists(m.lexicon)
        ):
            problems.append(f"method {m.name!r}: lexicon file not found: {m.lexicon}")
    return problems
