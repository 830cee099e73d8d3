"""Evaluation orchestration: run method x task matrices and dimensionality
sweeps from a declarative JSON config, writing tables, plots and metadata.

The config schema and the sentence-vector TSV keying are documented in
README.md, sections "Run configuration" and "File formats".
"""

from __future__ import annotations

import json
import os
import pickle
import signal
import stat
import sys
import zlib
from collections import Counter
from contextlib import suppress
from dataclasses import MISSING, asdict, dataclass, fields, replace
from typing import Sequence

import numpy as np

from . import aggregate, probe, tasks as tasks_mod
from .errors import ConfigError, ParseError, check_types, type_hints
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


@dataclass(frozen=True)
class TaskSpec:
    name: str
    kind: str = "classification"
    path: str | None = None
    synthetic: dict | None = None
    label_set: tuple[str, ...] | None = None

    def __post_init__(self):
        if "/" in self.name or "\0" in self.name:  # it names the task's SVG plot file
            raise ConfigError(f"task {self.name!r}: a task name may not hold '/' or NUL")
        if self.kind not in TASK_KINDS:
            raise ConfigError(f"task {self.name!r}: unknown kind {self.kind!r}")
        if (self.path is None) == (self.synthetic is None):
            raise ConfigError(f"task {self.name!r}: exactly one of path/synthetic required")
        if self.label_set is not None and (self.kind != "classification" or self.path is None):
            raise ConfigError(
                f"task {self.name!r}: label_set is only for file classification tasks")
        if self.label_set is not None and len(set(self.label_set)) != len(self.label_set):
            raise ConfigError(f"task {self.name!r}: label_set contains duplicates")
        if self.synthetic is not None:
            hints = {k: v for k, v in type_hints(_generator(self.kind)).items() if k != "return"}
            check_types(f"task {self.name!r}", self.synthetic, hints, "synthetic")


@dataclass(frozen=True)
class MethodSpec:
    name: str
    strategy: str | None = None  # lexicon methods only, where it defaults to "mean"
    lexicon: str | None = None  # "random", a path, or a path template with {dim}
    sentence_vectors: str | None = None
    dim: int | None = None  # random-lexicon dimensionality; a sweep overrides it
    sif_a: float = None  # sif methods only, default DEFAULT_SIF_A; the hint rejects JSON null
    frequencies: str | None = None
    normalize: bool | None = None  # lexicon methods only, where it defaults to True

    def __post_init__(self):
        if (self.lexicon is None) == (self.sentence_vectors is None):
            raise ConfigError(
                f"method {self.name!r}: exactly one of lexicon/sentence_vectors required"
            )
        if self.strategy not in (None, *STRATEGY_NAMES):
            raise ConfigError(f"method {self.name!r}: unknown strategy {self.strategy!r}")
        if self.lexicon is not None:  # a lexicon method's defaults
            object.__setattr__(self, "strategy", self.strategy or "mean")
            object.__setattr__(self, "normalize", self.normalize is None or self.normalize)
        if self.lexicon == "random" and (self.dim is None or self.dim <= 0):
            raise ConfigError(f"method {self.name!r}: random lexicon needs a positive dim")
        if self.lexicon != "random" and self.dim is not None:
            raise ConfigError(f"method {self.name!r}: dim is only for the random lexicon")
        if self.sif_a is not None and self.sif_a <= 0:
            raise ConfigError(
                f"method {self.name!r}: sif_a must be a positive number, not {self.sif_a!r}")
        for key in ("frequencies", "sif_a"):
            if getattr(self, key) is not None and self.kind != "sif":
                raise ConfigError(f"method {self.name!r}: {key} is only for sif methods, "
                                  f"not strategy {self.kind!r}")
        if self.kind == "sif" and self.sif_a is None:
            object.__setattr__(self, "sif_a", aggregate.DEFAULT_SIF_A)
        for key in ("strategy", "normalize"):
            if self.sentence_vectors is not None and getattr(self, key) is not None:
                raise ConfigError(f"method {self.name!r}: {key} is only for lexicon methods")

    @property
    def kind(self) -> str:
        """The strategy that embeds this method's sentences, or "precomputed"."""
        return self.strategy if self.lexicon is not None else "precomputed"


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
        if min(self.split_ratios) < 0 or abs(sum(self.split_ratios) - 1.0) > 1e-9:
            raise ConfigError("config: split_ratios must be nonnegative and sum to 1, "
                              f"not {self.split_ratios}")
        object.__setattr__(self, "formats", tuple(self.formats))
        object.__setattr__(self, "split_ratios", tuple(self.split_ratios))
        for key, specs in (("tasks", self.tasks), ("methods", self.methods)):
            if not specs:
                raise ConfigError(f"config: {key}: needs at least one")
            names = [spec.name for spec in specs]
            for name in names:
                if names.count(name) > 1:
                    raise ConfigError(f"config: {key}: duplicate name {name!r}")
        for f in self.formats:
            if f not in FORMATS:
                raise ConfigError(f"config: output.formats: unknown format {f!r}")


_OUTPUT_KEYS = {"output_dir": "output.dir", "formats": "output.formats"}  # field -> key


def parse_config(data) -> RunConfig:
    """Build a validated RunConfig from a decoded JSON document. Every block,
    the top level included, is checked by `_build`; ``output`` is flattened
    into the top level first, each key as ``output.<key>``, and
    ``output_dir`` or ``formats`` outside it read as unknown. ``split_ratios``
    is only for a config with a file task."""
    values = dict(_object("config", data))
    output = _object("output", values.pop("output", {}))
    for key in set(values) & set(_OUTPUT_KEYS):
        values[f"{key} (outside output)"] = values.pop(key)
    values |= {f"output.{k}": v for k, v in output.items()}
    for key, what, cls in (("tasks", "task", TaskSpec), ("methods", "method", MethodSpec)):
        if isinstance(values.get(key), list):  # else `_build` reports its type
            values[key] = tuple(_build(what, cls, block) for block in values[key])
    if "probe" in values:
        values["probe"] = _build("probe", probe.ProbeConfig, values["probe"])
    cfg = _build("config", RunConfig, values, _OUTPUT_KEYS)
    if "split_ratios" in values and all(t.path is None for t in cfg.tasks):
        raise ConfigError("config: split_ratios is only for file tasks, not synthetic ones")
    return cfg


def _object(owner: str, value) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{owner}: must be an object, not {value!r}")
    return value


def _build(what: str, cls, values, keys: dict[str, str] | None = None):
    """``cls(**values)`` once ``values`` is found to be an object whose keys
    are all fields of ``cls``, that holds every field without a default, and
    whose values have their annotated types: the one check of a config
    block's shape, keys and types. ``keys`` maps a field to the key that
    stands for it in ``values`` where the two differ. Errors name keys as
    ``values`` does, and the block as ``what``, with its name when it has
    one, as in "task 't'"."""
    keys = {f.name: f.name for f in fields(cls)} | (keys or {})
    named = "name" in _object(what, values) and "name" in type_hints(cls)
    owner = f"{what} {values['name']!r}" if named else what
    check_types(owner, values, {keys[f]: hint for f, hint in type_hints(cls).items()})
    missing = [keys[f.name] for f in fields(cls) if keys[f.name] not in values
               and f.default is MISSING]
    if missing:
        raise ConfigError(f"{owner}: missing key(s): {', '.join(missing)}")
    return cls(**{f: values[key] for f, key in keys.items() if key in values})


def read_input(path: str, loader, *args):
    """``loader(stream, *args)`` on the input file at ``path``, decoded as
    UTF-8 with a leading byte-order mark dropped: the one place an input file
    is opened. A malformed, non-UTF-8, missing or unreadable file is a
    ParseError that names it once."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            return loader(fh, *args)
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 (byte {exc.object[exc.start]:#04x})") from exc
    except (ParseError, json.JSONDecodeError, OSError) as exc:  # json.load reads the config
        # an OSError's strerror, as its str() repeats the path
        raise ParseError(f"{path}: {getattr(exc, 'strerror', None) or exc}") from exc


def _unique_keys(pairs: list[tuple]) -> dict:
    """A decoded JSON object's (key, value) pairs as a dict: a key given
    twice is a ParseError, where ``json.load`` keeps the last value."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ParseError(f"duplicate key {key!r}")
        obj[key] = value
    return obj


def load_config(path: str) -> RunConfig:
    return parse_config(read_input(path, lambda fh: json.load(fh, object_pairs_hook=_unique_keys)))


def stable_seed(base: int, *labels: str) -> int:
    """Deterministic per-cell seed derived from the run seed and string labels.
    Labels are joined with ``|`` after escaping ``\\`` and ``|``, so distinct
    label tuples hash distinct strings."""
    escaped = (label.replace("\\", "\\\\").replace("|", "\\|") for label in labels)
    h = zlib.crc32("|".join(escaped).encode("utf-8"))
    return (base * 1_000_003 + h) % (2**31)


def _generator(kind: str):
    """The synthetic generator of a task kind. Its keyword parameters, with
    their annotated types and defaults, are the keys a ``synthetic`` block
    may set."""
    if kind == "classification":
        return tasks_mod.synthetic_classification
    return tasks_mod.synthetic_relatedness


def load_task(spec: TaskSpec, cfg: RunConfig, dim: int | None = None, inputs: Inputs | None = None):
    """Resolve a task spec to (task, lexicon-or-None), the task named after
    the spec: the one place a task gets its name. Synthetic tasks carry
    their own generated lexicon and are parametric in the vector dim, which a
    sweep overrides. File tasks have no lexicon; their file is parsed through
    ``inputs``, the run's parse cache (a fresh one by default), keyed by
    path, loader and label set but not by task, so every task that reads a
    file shares one parse. Split annotations that cover every item are used
    as given and must hold train and test items; a task with fewer gets its
    own seeded split of that parse, from its name, on every call. This is
    the one place a split is checked: every task it returns has train and
    test items. A task whose generator, split or annotations reject its
    parameters is a config error naming the task."""
    try:
        table = None
        if spec.synthetic is not None:  # generated with a split of every item
            dims = {} if dim is None else {"dim": dim}
            task, table = _generator(spec.kind)(**{"seed": cfg.seed, **spec.synthetic, **dims})
        elif spec.kind == "classification":
            label_set = None if spec.label_set is None else tuple(spec.label_set)
            task = (inputs or Inputs()).read(spec.path, tasks_mod.load_classification_tsv, label_set)
        else:
            task = (inputs or Inputs()).read(spec.path, tasks_mod.load_sick_tsv)
        if sum(map(len, task.splits.values())) < len(task.labels):
            task = tasks_mod.split(task, cfg.split_ratios, seed=stable_seed(cfg.seed, spec.name))
        elif missing := " or ".join(s for s in ("train", "test") if not task.splits.get(s)):
            raise ValueError(f"{spec.path}: its split annotations cover every item "
                             f"but mark no {missing} item")
        return replace(task, name=spec.name), table
    except ParseError:
        raise
    except ValueError as exc:  # e.g. "classes": 1, or too few items to split
        raise ConfigError(f"task {spec.name!r}: {exc}") from exc


class Inputs:
    """The parse cache of one run. Each input file is parsed once per loader
    and loader arguments, and kept for every later cell and dim: task files
    by ``load_task`` before a dim's first cell, a method's files by
    `_method_tables`, in the first cell that needs them, or before the fork
    when ``run_matrix`` forks workers, so that they share them. A file that
    fails to parse keeps its error, and every read of it raises that error.
    No key holds a task's name, so a pair file that a relatedness and an
    entailment task read is parsed once. A word-vector file that some
    methods read unit-normalised and others raw, and a classification file
    read under two label sets, are parsed once under each key. Word vectors
    are kept for one dim: ``run_matrix`` calls ``next_dim`` first, so a
    sweep holds one dim's table at a time."""

    def __init__(self):
        self._parsed = {}

    def read(self, *key):
        """``read_input(path, loader, *args)`` for ``key`` = (path, loader, *args),
        parsed on the first call and kept, or its error kept and raised."""
        if key not in self._parsed:
            self._parsed[key] = _attempt(read_input, *key)
        if isinstance(self._parsed[key], Exception):
            raise self._parsed[key]
        return self._parsed[key]

    def next_dim(self) -> None:
        """Drop the word vectors. Called before a dim's cells start."""
        self._parsed = {k: v for k, v in self._parsed.items() if k[1] is not load_word_vectors}


def _lexicon_path(method: MethodSpec, dim: int | None) -> str | None:
    """The word-vector file a method reads at ``dim``: its lexicon path with
    ``{dim}`` filled in, or None when it reads none. A template at no dim
    reads none: `plan` rejects it."""
    if method.lexicon in (None, "random", "synthetic") or (
            dim is None and "{dim}" in method.lexicon):
        return None
    return method.lexicon.replace("{dim}", str(dim))


def _method_inputs(m: MethodSpec, dims: Sequence[int | None]) -> list[tuple]:
    """(field, path, loader, *loader arguments) of each input file method
    ``m`` reads at ``dims``, keyed by the field of ``m`` that names the file:
    its ``lexicon`` word vectors at each dim, unit-normalised as they are
    parsed when ``m.normalize``, then its ``sentence_vectors`` and word
    ``frequencies``. The one list of a method's files: `validate_config`
    checks it, and `_method_tables` is its one reader. Loaders are looked up
    on each call, so a replaced module global is the one that parses."""
    files = [("lexicon", _lexicon_path(m, d), load_word_vectors, m.normalize) for d in dims] + [
        ("sentence_vectors", m.sentence_vectors, load_sentence_vector_table),
        ("frequencies", m.frequencies, load_frequency_table)]
    return [(field, *read) for field, *read in files if read[0] is not None]


def _method_tables(m: MethodSpec, dim: int | None, inputs: Inputs) -> dict:
    """The parsed files of `_method_inputs` for method ``m`` at ``dim``, by
    field, read through ``inputs``: the only code that parses a method's
    files."""
    return {field: inputs.read(*read) for field, *read in _method_inputs(m, [dim])}


def _strategy_for(method: MethodSpec, task, tables: dict) -> aggregate.AggregationStrategy:
    """The pooling of a lexicon method. SIF word probabilities come from the
    configured file, else from the tokens of the task's train split."""
    if method.strategy != "sif":
        return aggregate.Mean() if method.strategy == "mean" else aggregate.MeanMaxConcat()
    freq = tables.get("frequencies")
    if freq is None:
        counts = Counter(t for r in task.rows(task.splits["train"]) for t in task.sentences[r])
        freq = FrequencyTable(counts=counts, total=max(1, sum(counts.values())))
    return aggregate.Sif(freq=freq, a=method.sif_a)


def sentence_matrix(
    task,
    method: MethodSpec,
    cfg: RunConfig,
    synthetic_table: VectorTable | None = None,
    dim: int | None = None,
    inputs: Inputs | None = None,
) -> np.ndarray:
    """Sentence vectors for every sentence of the task, in corpus order.
    Input files are parsed through ``inputs``, a fresh cache by default. The
    word vectors of a lexicon method are drawn at random over the task's
    vocabulary, are ``synthetic_table``, generated with the task, or are
    read from its lexicon file."""
    tables = _method_tables(method, dim, inputs or Inputs())
    if method.sentence_vectors is not None:
        table = tables["sentence_vectors"]
        try:
            return table.vectors[[table.row[sid] for sid in task.sentence_ids()]]
        except KeyError as exc:
            raise ConfigError(
                f"method {method.name!r}: sentence id {exc.args[0]!r} missing from "
                f"{method.sentence_vectors}"
            ) from None
    if method.lexicon == "random":
        lex = random_table(task.vocabulary(), dim if dim is not None else method.dim,
                           seed=stable_seed(cfg.seed, "random-lexicon", method.name))
    else:
        lex = synthetic_table if method.lexicon == "synthetic" else tables["lexicon"]
    strat = _strategy_for(method, task, tables)
    normalize = method.normalize and "lexicon" not in tables  # a file is normalised as parsed
    try:
        return aggregate.embed_corpus(task.sentences, lex, strat, task.rows(task.splits["train"]),
                                      normalize_tokens=normalize)
    except ParseError as exc:  # a used word has the zero vector
        raise ParseError(f"{_lexicon_path(method, dim)}: {exc}") from exc
    except ConfigError as exc:  # no token of the train split is in the lexicon
        lexicon = _lexicon_path(method, dim) or method.lexicon
        raise ConfigError(f"method {method.name!r}: lexicon {lexicon} holds no word "
                          f"of task {task.name!r} in its train split") from exc


def run_task(cell: tuple, cfg: RunConfig, dim: int | None = None,
             inputs: Inputs | None = None) -> EvalResult:
    """Run one `plan` record, ``cell`` = (method, task spec, task, synthetic
    table or None), at ``dim``, its input files parsed through ``inputs``.
    Embed, train the probe on the train rows of the task's feature matrix,
    which it reads in place rather than as a copied split, and evaluate on
    the test split. Classification and entailment report the accuracy of
    predicted labels; relatedness reports the Pearson correlation of
    predicted vs gold scores. Pair tasks are probed on ``|u - v| ++ u * v``
    of their A and B sentence vectors."""
    method, spec, task, table = cell
    rows, test = task.splits["train"], task.splits["test"]
    seed = stable_seed(cfg.seed, method.name, task.name)
    S = sentence_matrix(task, method, cfg, table, dim, inputs)
    X = S if task.pair_ids is None else probe.pair_features(*np.split(S, 2))
    if spec.kind == "relatedness":
        gold = np.array(task.scores)
        model = probe.train_relatedness(X, gold, tasks_mod.MAX_SCORE, cfg.probe,
                                        rows=rows, seed=seed)
        predicted = [probe.distribution_to_score(p) for p in probe.predict_proba(model, X[test])]
        measure, value = "pearson", pearson(predicted, gold[test])
    else:
        gold = np.array([task.label_set.index(lab) for lab in task.labels])
        model = probe.train_classifier(X, gold, len(task.label_set), cfg.probe,
                                       rows=rows, seed=seed)
        predicted = probe.predict_proba(model, X[test]).argmax(axis=1)
        measure, value = "accuracy", accuracy(list(predicted), list(gold[test]))
    return EvalResult(task_name=task.name, method_name=method.name, measure=measure, value=value,
                      n=len(test))


def plan(cfg: RunConfig, dim: int | None, inputs: Inputs) -> list[tuple]:
    """The cells of ``cfg`` at ``dim``: one (method, task spec, task,
    synthetic table or None) record per cell, in method-major order, every
    task loaded once through ``inputs``. The one place a run's cells are
    built, so the one gate before a run's first cell: before any task loads,
    `check_config` raises every problem `validate_config` finds at ``dim``,
    and each task it loads must pass `_check_scorable`. `embed`, which
    scores no cell, makes the same checks but the kind rules."""
    check_config(cfg, None if dim is None else [dim])
    loaded = [(spec, *load_task(spec, cfg, dim, inputs)) for spec in cfg.tasks]
    for spec, task, _ in loaded:
        _check_scorable(spec, task)
    return [(method, *cell) for method in cfg.methods for cell in loaded]


def _check_scorable(spec: TaskSpec, task) -> None:
    """The kind rules, the one place a task is checked against the measure
    its cells report: a classification task needs at least 2 labels, and a
    relatedness task's test split 2 different scores, since Pearson's r is
    undefined on fewer. A task that breaks one is a config error naming it."""
    test = task.splits["test"]
    if spec.kind == "classification" and len(task.label_set) < 2:
        problem = (f"every item is labelled {task.label_set[0]!r}: "
                   "classification needs at least 2 labels")
    elif spec.kind == "relatedness" and len({task.scores[i] for i in test}) < 2:
        problem = (f"the {len(test)} item(s) of its test split all score "
                   f"{task.scores[test[0]]}: Pearson's r needs 2 different scores")
    else:
        return
    raise ConfigError(f"task {spec.name!r}: {problem}")


def run_matrix(
    cfg: RunConfig, workers: int = 1, dim: int | None = None, inputs: Inputs | None = None
) -> ResultMatrix:
    """Evaluate every method on every task. Cells are independent, and one
    loop, `_forked`, runs them at every worker count: in ``workers``
    processes on Linux, and in this process alone at one worker, for a
    single cell or off Linux. Results do not depend on the worker count.
    The cells come from `plan`, which first checks the run at ``dim``, so a
    missing input file is a ConfigError before any task loads; tasks and
    input files come from ``inputs``, the run's parse cache (a fresh one by
    default). A method's files are
    parsed by the first cell that needs them, or before the fork when there
    is one, so that no worker parses. Any cell failure aborts the whole run
    with an error naming the cell, the one of the lowest index in
    method-major order: a ConfigError or ParseError as its own class,
    anything else as a RuntimeError. Fewer than one worker is a
    ValueError."""
    if workers < 1:
        raise ValueError(f"workers must be at least 1, not {workers}")
    inputs = inputs or Inputs()
    inputs.next_dim()
    cells_in = plan(cfg, dim, inputs)
    names = [f"cell (method={m.name!r}, task={spec.name!r}) failed" for m, spec, *_ in cells_in]

    def compute(i):
        try:
            return run_task(cells_in[i], cfg, dim, inputs)
        except Exception as exc:
            cls = type(exc) if isinstance(exc, (ConfigError, ParseError)) else RuntimeError
            raise cls(f"{names[i]}: {exc}") from exc

    # no fork off Linux: Windows has no fork, and macOS libraries may not survive one
    workers = min(workers, len(cells_in)) if sys.platform == "linux" else 1
    if workers > 1:  # parsed before the fork, so every worker shares them
        for method in cfg.methods:  # a failed read is kept for the first cell that meets it
            _attempt(_method_tables, method, dim, inputs)
    results = _forked(compute, names, workers)
    cells = {(r.method_name, r.task_name): r for r in results}
    return ResultMatrix(
        methods=tuple(m.name for m in cfg.methods),
        tasks=tuple(t.name for t in cfg.tasks),
        cells=cells,
    )


def _attempt(fn, *args):
    """``fn(*args)``, or the exception it raised."""
    try:
        return fn(*args)
    except Exception as exc:
        return exc


def _stride(compute, k: int, n: int, workers: int):
    """(i, ``compute(i)`` or its exception) for cells i = k, k + workers, …
    below ``n``, up to and including the first exception."""
    for i in range(k, n, workers):
        yield i, (record := _attempt(compute, i))
        if isinstance(record, Exception):
            return


def _forked(compute, names: list[str], workers: int) -> list:
    """``[compute(i) for i, _ in enumerate(names)]`` in ``workers`` processes:
    this one and ``workers - 1`` forked children, so none at one worker.
    Worker k runs its `_stride`, cells k, k + workers, …, and stops at its
    first failed cell. Each child pickles one (i, result or exception) record
    per cell it ran into its own pipe and exits. Once this process's stride
    ends, the children are read in turn, each only while it owes a cell
    below the lowest failed one so far, and then killed: a later cell cannot
    change the error. The exception of the lowest index is raised, since
    every cell left unread or skipped by a stopped stride comes after a
    failure. A cell that no record reports otherwise, because its worker
    died, is a RuntimeError under its name in ``names``. Every child is
    reaped before this returns or raises."""
    records, children = {}, []
    try:
        for k in range(1, workers):
            r, w = os.pipe()
            if (pid := os.fork()) == 0:  # the child: it never returns
                try:
                    for record in _stride(compute, k, len(names), workers):
                        os.write(w, pickle.dumps(record))
                finally:
                    os._exit(0)
            os.close(w)
            children.append((pid, open(r, "rb")))
        records.update(_stride(compute, 0, len(names), workers))
        lowest = min((i for i, r in records.items() if isinstance(r, Exception)),
                     default=len(names))
        for k, (pid, pipe) in enumerate(children, 1):
            with pipe, suppress(EOFError, pickle.UnpicklingError):  # the end, or a cut record
                for _ in range(k, lowest, workers):  # the cells it owes below `lowest`
                    i, record = pickle.load(pipe)
                    records[i] = record
                    if isinstance(record, Exception):
                        lowest = i
            os.kill(pid, signal.SIGKILL)
    finally:
        for pid, _ in children:
            os.kill(pid, signal.SIGKILL)  # a no-op unless this process raised early
            os.waitpid(pid, 0)
    for i, name in enumerate(names):
        records.setdefault(i, RuntimeError(f"{name}: its worker process died before reporting it"))
        if isinstance(records[i], Exception):
            raise records[i]
    return [records[i] for i in range(len(names))]


def run_metadata(cfg: RunConfig, dims: Sequence[int] | None = None) -> dict:
    meta = {
        "seed": cfg.seed,
        "split_ratios": list(cfg.split_ratios),
        "probe": asdict(cfg.probe),
        "methods": [asdict(m) | {"strategy": m.kind} for m in cfg.methods],
        "tasks": [asdict(t) for t in cfg.tasks],
    }
    if dims is not None:
        meta["dims"] = list(dims)
    return meta


def run_and_write(
    cfg: RunConfig, dims: Sequence[int] | None = None, workers: int = 1
) -> list[ResultMatrix]:
    """Check a sweep at all its dims with `check_config` (`plan` checks each
    run at its own dim), then run the matrix once per dim, or once with no
    dim for `eval`, through one parse cache, and write
    ``results{suffix}.{csv,json,md}`` (suffix ``-dim<d>``, empty for `eval`),
    a per-task SVG plot of score vs dim when dims are given, and
    ``run-metadata.json``, each whole or not at all (`_write_file`)."""
    if dims is not None:  # dim 3's missing file fails before dim 1 runs
        check_config(cfg, dims)
    runs = [None] if dims is None else list(dims)
    inputs = Inputs()
    matrices = [run_matrix(cfg, workers, d, inputs) for d in runs]
    renderers = {"csv": matrix_to_csv, "json": matrix_to_json, "md": matrix_to_markdown}
    os.makedirs(cfg.output_dir, exist_ok=True)

    def emit(name: str, content: str):
        _write_file(os.path.join(cfg.output_dir, name), lambda fh: fh.write(content))

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
            measure = matrices[0].get(cfg.methods[0].name, spec.name).measure
            emit(f"{spec.name}.svg",
                 line_plot_svg(list(dims), series, title=spec.name, ylabel=measure))
    emit("run-metadata.json", json.dumps(run_metadata(cfg, dims), indent=2) + "\n")
    return matrices


def dim_sweep(cfg: RunConfig, dims: Sequence[int], workers: int = 1) -> list[ResultMatrix]:
    """The `sweep` verb: `run_and_write` over ``dims``. Methods must be
    parametric in the dim: random or synthetic lexicons, or lexicon path
    templates containing ``{dim}``."""
    return run_and_write(cfg, dims, workers)


def export_sentence_vectors(
    cfg: RunConfig, task_name: str, method_name: str, out: str | os.PathLike
) -> int:
    """The `embed` verb: write the sentence vectors of one task under one
    method as a sentence-vector TSV at ``out``, through `_write_file`, once
    the vectors are computed, so a config, input or write error leaves it as
    it was. Returns the number of rows written."""
    spec = next((t for t in cfg.tasks if t.name == task_name), None)
    if spec is None:
        raise ConfigError(f"no task named {task_name!r}")
    method = next((m for m in cfg.methods if m.name == method_name), None)
    if method is None:
        raise ConfigError(f"no method named {method_name!r}")
    cfg = replace(cfg, tasks=(spec,), methods=(method,))
    check_config(cfg)
    task, table = load_task(spec, cfg)
    S = sentence_matrix(task, method, cfg, table)
    _write_file(out, lambda fh: save_sentence_vector_table(VectorTable(task.sentence_ids(), S), fh))
    return S.shape[0]


def _write_file(path: str | os.PathLike, write) -> None:
    """Call ``write`` on a UTF-8 text stream with LF line ends that becomes
    the file at ``path`` only once it is whole: the stream is a temporary
    file in the same directory, which ``os.replace`` renames onto ``path``.
    So a failed write leaves the file that was there, and at most a stray
    temporary file if the process dies. A path that names something other
    than a regular file, such as a pipe or a symbolic link (``/dev/stdout``
    is one), is written in place, through the link to its target."""
    path = os.fspath(path)
    head, name = os.path.split(path)
    tmp = os.path.join(head, f".{name}.{os.getpid()}.tmp")
    with suppress(OSError):  # lstat: a link is written through, not replaced
        if not stat.S_ISREG(os.lstat(path).st_mode):
            tmp = path
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            write(fh)
        if tmp != path:
            os.replace(tmp, path)
    finally:
        if tmp != path:
            with suppress(FileNotFoundError):  # gone once it is renamed
                os.remove(tmp)


def output_dir_problem(path: str) -> str | None:
    """Why `os.makedirs` cannot make ``path`` a run's output dir, or None:
    the path is empty, or its nearest existing ancestor, the path itself
    included, is not a directory."""
    if not path:
        return "the path is empty"
    while not os.path.lexists(path):
        path = os.path.dirname(path) or "."
    return None if os.path.isdir(path) else f"not a directory: {path}"


def validate_config(cfg: RunConfig, dims: Sequence[int] | None = None) -> list[str]:
    """Every rule a run can break before its first cell, at each of ``dims``,
    or at no dim for `eval` and `embed`: the sweep's dims, the output dir
    (`output_dir_problem`, named ``output.dir``), the rules on which inputs
    a cell may combine (the ``"synthetic"`` lexicon needs synthetic tasks,
    and a lexicon template needs a sweep dim), and its input files.
    `plan` raises them at its dim before any task loads, and `run_and_write`
    at all of a sweep's dims first. Each problem and each missing file is
    reported once. An empty list means the run can start."""
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
    if problem := output_dir_problem(cfg.output_dir):
        problems.append(f"output.dir: {problem}")
    file_tasks = ", ".join(repr(t.name) for t in cfg.tasks if t.path is not None)
    for m in cfg.methods:
        if m.lexicon == "synthetic" and file_tasks:
            problems.append(f"method {m.name!r}: lexicon 'synthetic' only works with synthetic "
                            f"tasks, not file task(s) {file_tasks}")
        if dims is None and "{dim}" in (m.lexicon or ""):
            problems.append(f"method {m.name!r}: lexicon template needs a sweep dim")
    # path -> a reader to name, so each missing file is reported once
    reads = {t.path: f"task {t.name!r}: file not found" for t in cfg.tasks}
    for m in cfg.methods:
        for field, path, *_ in _method_inputs(m, [None] if dims is None else dims):
            what = "lexicon file" if field == "lexicon" else "file"
            reads.setdefault(path, f"method {m.name!r}: {what} not found")
    return problems + [
        f"{reader}: {path}" for path, reader in reads.items()
        if path is not None and not os.path.isfile(path)
    ]


def check_config(cfg: RunConfig, dims: Sequence[int] | None = None) -> None:
    """Raise one ConfigError listing every problem `validate_config` finds,
    one per line: the gate that `plan` keeps at its dim, `run_and_write`
    at every dim of a sweep before the first, and `embed` before its task
    loads."""
    problems = validate_config(cfg, dims)
    if problems:
        raise ConfigError("\n".join(problems))
