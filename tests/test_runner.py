import gc
import json
import os
import re
import signal
import stat
import subprocess
import sys
import tempfile
import threading
import time
import warnings
import weakref
import xml.etree.ElementTree as ET
import zlib
from dataclasses import fields, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sentbench import aggregate, cli, lexicon, runner, tasks
from sentbench import errors
from sentbench.aggregate import DEFAULT_SIF_A
from sentbench.errors import ConfigError, DegenerateInputError, ParseError, ProbeDivergedError
from sentbench.lexicon import (
    load_frequency_table,
    load_sentence_vector_table,
    load_word_vectors,
)
from sentbench.metrics import EvalResult, majority_baseline
import oracles
from oracles import components, serialize_word_vectors
from sentbench.runner import (
    MethodSpec,
    RunConfig,
    TaskSpec,
    dim_sweep,
    export_sentence_vectors,
    load_config,
    load_task,
    parse_config,
    run_matrix,
    run_task,
    sentence_matrix,
    stable_seed,
    validate_config,
)

TESTS_DIR = os.path.dirname(os.path.abspath(__file__))
SYN_CLS = {"classes": 2, "items": 120, "vocab_per_class": 10, "seed": 3, "dim": 8}
SYN_REL = {"pairs": 120, "dim": 8, "seed": 5}


def base_config(**overrides):
    doc = {
        "seed": 11,
        "tasks": [{"name": "cls", "kind": "classification", "synthetic": dict(SYN_CLS)}],
        "methods": [{"name": "clustered-mean", "strategy": "mean", "lexicon": "synthetic"}],
        "output": {"dir": "out", "formats": ["csv", "json", "md"]},
    }
    doc.update(overrides)
    return parse_config(doc)


PAIR_HEADER = "pair_ID\tsentence_A\tsentence_B\trelatedness_score\tentailment_judgment"
FILE_KEYS = ("path", "lexicon", "frequencies")


@st.composite
def file_runs(draw):
    """A small run that reads every input from a file: a classification and
    a pair task over the words w0, w1, …, a word-vector file that holds each
    word once, a frequency file, and 1–3 methods that read them. Returns the
    files as {name: lines} and the config document, which names them by
    file name."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    words = [f"w{i}" for i in range(draw(st.integers(4, 10)))]
    dim = draw(st.integers(2, 5))

    def sentence():
        return " ".join(rng.choice(words, rng.integers(1, 5)))

    files = {
        "cls.tsv": [f"{('pos', 'neg')[i % 2]}\t{sentence()}"
                    for i in range(draw(st.integers(20, 40)))],
        "pairs.tsv": [PAIR_HEADER] + [
            f"p{i}\t{sentence()}\t{sentence()}\t{rng.uniform(1, 5)!r}\tNEUTRAL"
            for i in range(draw(st.integers(40, 60)))],
        "v.txt": [f"{w} {components(rng.standard_normal(dim))}" for w in words],
        "freq.txt": [f"{w} {rng.integers(1, 100)}" for w in words],
    }
    methods = {
        "mean": {"lexicon": "v.txt"},
        "sif": {"strategy": "sif", "lexicon": "v.txt", "frequencies": "freq.txt"},
        "mean-max": {"strategy": "mean_max", "lexicon": "v.txt", "normalize": False},
    }
    names = draw(st.lists(st.sampled_from(sorted(methods)), min_size=1, unique=True))
    doc = {"seed": draw(st.integers(0, 99)),
           "tasks": [{"name": "cls", "kind": "classification", "path": "cls.tsv"},
                     {"name": "rel", "kind": "relatedness", "path": "pairs.tsv"}],
           "methods": [{"name": name, **methods[name]} for name in names],
           "probe": {"hidden_units": 8, "epochs": 2, "batch_size": 16}}
    return files, doc


@st.composite
def synthetic_runs(draw):
    """A run of one synthetic task of any kind and 1–3 lexicon methods that
    read the task's generated lexicon or a random one, as a config."""
    kind = draw(st.sampled_from(runner.TASK_KINDS))
    size = {"items": 60} if kind == "classification" else {"pairs": 60}
    synthetic = {**size, "dim": draw(st.integers(2, 6)), "seed": draw(st.integers(0, 99))}
    methods = draw(st.lists(st.tuples(
        st.sampled_from(runner.STRATEGY_NAMES), st.sampled_from(["synthetic", "random"]),
        st.booleans()), min_size=1, max_size=3))
    return base_config(
        seed=draw(st.integers(0, 99)),
        tasks=[{"name": "t", "kind": kind, "synthetic": synthetic}],
        methods=[{"name": f"m{i}", "strategy": strategy, "lexicon": lexicon, "normalize": normalize,
                  **({"dim": 5} if lexicon == "random" else {})}
                 for i, (strategy, lexicon, normalize) in enumerate(methods)],
        probe={"hidden_units": 8, "epochs": 2, "batch_size": 16})


def write_run(root, files, doc, newline="\n", bom=False) -> RunConfig:
    """Write a `file_runs` run and its config under ``root``, each file with
    the given line ending and optional byte-order mark, and load the
    config."""
    def at(block):
        return {k: os.path.join(root, v) if k in FILE_KEYS else v for k, v in block.items()}

    doc = {**doc, "tasks": [at(t) for t in doc["tasks"]], "methods": [at(m) for m in doc["methods"]]}
    files = {**files, "cfg.json": json.dumps(doc, indent=1).splitlines()}
    for name, lines in files.items():
        with open(os.path.join(root, name), "w", encoding="utf-8", newline="") as fh:
            fh.write("\ufeff" * bom + "".join(line + newline for line in lines))
    return load_config(os.path.join(root, "cfg.json"))


def outcome(cfg: RunConfig, workers: int = 1) -> dict | str:
    """Each cell's EvalResult.value (results.* round them to 6 places), or
    the error of a run whose probe collapsed on a drawn task."""
    try:
        return {key: cell.value for key, cell in run_matrix(cfg, workers).cells.items()}
    except RuntimeError as exc:
        return str(exc)


def no_cell(*args, **kwargs):
    raise AssertionError("a task was loaded or a cell ran before the config was checked")


class TestParseConfig:
    def test_minimal(self):
        cfg = base_config()
        assert cfg.seed == 11
        assert cfg.tasks[0].kind == "classification"
        assert cfg.methods[0].strategy == "mean"

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            base_config(tasks=[{"name": "t", "kind": "regression", "synthetic": SYN_CLS}])

    def test_task_needs_path_or_synthetic(self):
        with pytest.raises(ConfigError):
            base_config(tasks=[{"name": "t", "kind": "classification"}])

    def test_method_needs_lexicon_or_vectors(self):
        with pytest.raises(ConfigError):
            base_config(methods=[{"name": "m"}])

    def test_random_lexicon_needs_dim(self):
        with pytest.raises(ConfigError):
            base_config(methods=[{"name": "m", "lexicon": "random"}])

    @pytest.mark.parametrize("method", [
        {"lexicon": "v.txt", "dim": 300},
        {"lexicon": "v{dim}.txt", "dim": 300},
        {"lexicon": "synthetic", "dim": 8},
        {"sentence_vectors": "s.tsv", "dim": 8},
    ])
    def test_dim_only_with_random_lexicon(self, method):
        with pytest.raises(ConfigError, match="'m': dim is only for the random lexicon"):
            base_config(methods=[{"name": "m", **method}])

    def test_duplicate_method_names(self):
        with pytest.raises(ConfigError, match="^config: methods: duplicate name 'm'$"):
            base_config(methods=[
                {"name": "m", "lexicon": "synthetic"},
                {"name": "n", "lexicon": "synthetic"},
                {"name": "m", "lexicon": "synthetic"},
            ])

    def test_duplicate_task_names(self):
        with pytest.raises(ConfigError, match="^config: tasks: duplicate name 't'$"):
            base_config(tasks=[{"name": "t", "synthetic": {}}, {"name": "t", "synthetic": {}}])

    @pytest.mark.parametrize("strategy", ["sif", "mean"])
    def test_strategy_only_on_lexicon_methods(self, strategy):
        with pytest.raises(ConfigError, match="^method 'p': strategy is only for lexicon methods$"):
            base_config(methods=[{"name": "p", "sentence_vectors": "v.tsv", "strategy": strategy}])

    def test_unknown_format(self):
        with pytest.raises(ConfigError, match="^config: output.formats: unknown format 'xlsx'$"):
            base_config(output={"dir": "out", "formats": ["csv", "xlsx"]})

    def test_empty_tasks(self):
        with pytest.raises(ConfigError, match="^config: tasks: needs at least one$"):
            base_config(tasks=[])

    def test_bad_probe_field(self):
        with pytest.raises(ConfigError):
            base_config(probe={"bogus_field": 1})

    def test_unknown_method_key(self):
        with pytest.raises(ConfigError, match="stratgey"):
            base_config(methods=[{"name": "m", "lexicon": "synthetic", "stratgey": "sif"}])

    def test_unknown_task_key(self):
        with pytest.raises(ConfigError, match="synthetc"):
            base_config(tasks=[{"name": "t", "synthetic": SYN_CLS, "synthetc": SYN_CLS}])

    @pytest.mark.parametrize("overrides, message", [
        ({"tasks": [{"name": "t", "synthetic": {}, "synthetc": {}, "knd": "x"}]},
         "task 't': unknown key(s): knd, synthetc"),
        ({"methods": [{"name": "m", "lexicon": "synthetic", "stratgey": "sif"}]},
         "method 'm': unknown key(s): stratgey"),
        ({"probe": {"seed": 1}}, "probe: unknown key(s): seed"),
    ], ids=["task", "method", "probe"])
    def test_unknown_key_reads_the_same_in_every_block(self, overrides, message):
        with pytest.raises(ConfigError) as info:
            base_config(**overrides)
        assert str(info.value) == message

    def test_type_hints_resolved_once_per_class(self):
        base_config()
        misses = errors.type_hints.cache_info().misses
        cfg = base_config()
        replace(cfg.probe, epochs=3)
        assert errors.type_hints.cache_info().misses == misses

    @pytest.mark.parametrize("name", ["../escape", "a/b", "/", "nul\0byte"])
    def test_task_name_must_be_a_file_name(self, name):
        with pytest.raises(ConfigError) as info:
            base_config(tasks=[{"name": name, "synthetic": {}}])
        assert str(info.value) == f"task {name!r}: a task name may not hold '/' or NUL"

    @pytest.mark.parametrize("kind, synthetic, bad", [
        ("relatedness", {"items": 50, "itmes": 7}, "items, itmes"),
        ("entailment", {"pairs": 50, "classes": 3}, "classes"),
        ("classification", {"classes": 2, "pairs": 50}, "pairs"),
    ])
    def test_unknown_synthetic_key(self, kind, synthetic, bad):
        with pytest.raises(ConfigError, match=f"unknown synthetic key\\(s\\): {bad}$"):
            base_config(tasks=[{"name": "t", "kind": kind, "synthetic": synthetic}])

    @pytest.mark.parametrize("task", [
        {"kind": "relatedness", "path": "p.tsv", "label_set": ["a", "b"]},
        {"kind": "entailment", "path": "p.tsv", "label_set": ["entailment", "neutral"]},
        {"kind": "classification", "synthetic": SYN_CLS, "label_set": ["c0", "c1"]},
        {"kind": "entailment", "synthetic": SYN_REL, "label_set": ["x"]},
        {"kind": "classification", "path": "c.tsv", "label_set": "ab"},
        {"kind": "classification", "path": "c.tsv", "label_set": ["pos", 1]},
        {"kind": "classification", "path": "c.tsv", "label_set": {"pos": 1}},
    ])
    def test_label_set_only_as_strings_on_a_file_classification_task(self, task):
        with pytest.raises(ConfigError, match="task 't': label_set"):
            base_config(tasks=[{"name": "t", **task}])

    def test_label_set_on_a_file_classification_task(self, tmp_path):
        p = tmp_path / "c.tsv"
        p.write_text("\n".join(f"{'pos' if i % 2 else 'neg'}\tw{i}" for i in range(20)),
                     encoding="utf-8")
        cfg = base_config(tasks=[{"name": "t", "path": str(p), "label_set": ["pos", "neg", "mid"]}])
        task, _ = load_task(cfg.tasks[0], cfg)
        assert task.label_set == ("pos", "neg", "mid")

    @pytest.mark.parametrize("sif_a", [-1, 0, 0.0, -1e-9, "0.001", None, True, [1e-3],
                                       float("nan"), float("inf")])
    @pytest.mark.parametrize("strategy", ["sif", "mean"])
    def test_sif_a_must_be_a_positive_number(self, sif_a, strategy):
        method = {"name": "s", "strategy": strategy, "lexicon": "synthetic", "sif_a": sif_a}
        shown = "a positive number" if sif_a in (-1, 0, -1e-9) else "a number"  # else a wrong type
        with pytest.raises(ConfigError, match=f"^method 's': sif_a must be {shown}, not "):
            base_config(methods=[method])

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ConfigError, match="^task 't': label_set contains duplicates$"):
            base_config(tasks=[{"name": "t", "path": "c.tsv", "label_set": ["a", "b", "a"]}])

    @pytest.mark.parametrize("method, kind", [
        ({"lexicon": "synthetic"}, "mean"),
        ({"strategy": "mean_max", "lexicon": "v.txt"}, "mean_max"),
        ({"sentence_vectors": "s.tsv"}, "precomputed"),
    ])
    def test_sif_a_only_on_sif_methods(self, method, kind):
        with pytest.raises(ConfigError) as info:
            base_config(methods=[{"name": "m", "sif_a": 0.01, **method}])
        assert str(info.value) == (
            f"method 'm': sif_a is only for sif methods, not strategy {kind!r}")

    def test_sif_a_defaults_on_sif_methods_only(self):
        cfg = base_config(methods=[{"name": "s", "strategy": "sif", "lexicon": "synthetic"},
                                   {"name": "m", "lexicon": "synthetic"}])
        assert [m.sif_a for m in cfg.methods] == [DEFAULT_SIF_A, None]

    @pytest.mark.parametrize("sif_a", [1e-3, 1, 10.0])
    def test_positive_sif_a_accepted(self, sif_a):
        cfg = base_config(methods=[
            {"name": "s", "strategy": "sif", "lexicon": "synthetic", "sif_a": sif_a}])
        assert cfg.methods[0].sif_a == sif_a

    @pytest.mark.parametrize("method", [
        {"lexicon": "synthetic"},
        {"strategy": "mean_max", "lexicon": "v.txt"},
        {"sentence_vectors": "s.tsv"},
        {"strategy": "sif", "sentence_vectors": "s.tsv"},
    ])
    def test_frequencies_only_on_sif_methods(self, method):
        with pytest.raises(ConfigError, match="method 'm': frequencies is only for sif methods"):
            base_config(methods=[{"name": "m", "frequencies": "f.txt", **method}])

    @pytest.mark.parametrize("method", [
        {"lexicon": "synthetic"},
        {"sentence_vectors": "s.tsv"},
    ], ids=["lexicon", "sentence-vectors"])
    def test_unknown_strategy_rejected_on_every_method(self, method):
        with pytest.raises(ConfigError, match="method 'm': unknown strategy 'bogus'"):
            base_config(methods=[{"name": "m", "strategy": "bogus", **method}])

    @pytest.mark.parametrize("learning_rate", [float("nan"), float("inf"), -float("inf"), 0, -0.1])
    def test_learning_rate_must_be_positive_and_finite(self, learning_rate):
        shown = "a positive number" if learning_rate in (0, -0.1) else "a number"  # else not finite
        with pytest.raises(ConfigError, match=f"^probe: learning_rate must be {shown}, not "):
            base_config(probe={"learning_rate": learning_rate})

    def test_split_ratios_only_with_a_file_task(self):
        tasks = [{"name": "f", "path": "c.tsv"}, {"name": "s", "synthetic": {}}]
        assert base_config(tasks=tasks, split_ratios=[0.6, 0.2, 0.2]).split_ratios == (
            0.6, 0.2, 0.2)
        with pytest.raises(ConfigError, match="^config: split_ratios is only for file tasks"):
            base_config(tasks=tasks[1:], split_ratios=[0.6, 0.2, 0.2])
        embed_one = replace(base_config(tasks=tasks, split_ratios=[0.6, 0.2, 0.2]),
                            tasks=(TaskSpec("s", synthetic={}),))
        assert embed_one.split_ratios == (0.6, 0.2, 0.2)

    @pytest.mark.parametrize("normalize", [True, False])
    def test_normalize_only_on_lexicon_methods(self, normalize):
        with pytest.raises(ConfigError, match="^method 'm': normalize is only for lexicon"):
            base_config(methods=[{"name": "m", "sentence_vectors": "s.tsv",
                                  "normalize": normalize}])
        cfg = base_config(methods=[{"name": "pre", "sentence_vectors": "s.tsv"},
                                   {"name": "lex", "lexicon": "synthetic"}])
        assert [m.normalize for m in cfg.methods] == [None, True]

    def test_every_documented_synthetic_key_accepted(self):
        cfg = base_config(tasks=[
            {"name": "c", "synthetic": dict(SYN_CLS)},
            {"name": "r", "kind": "relatedness", "synthetic": dict(SYN_REL)},
            {"name": "e", "kind": "entailment", "synthetic": dict(SYN_REL)},
        ])
        assert len(cfg.tasks) == 3

    @pytest.mark.parametrize("overrides", [
        {"sed": 3},
        {"output": {"dir": "out", "format": ["csv"]}},
        {"output_dir": "out"},
        {"formats": ["csv"]},
    ])
    def test_unknown_top_level_and_output_keys(self, overrides):
        (key,) = overrides
        unknown = {"sed": "sed", "output": "output.format"}.get(key, f"{key} (outside output)")
        with pytest.raises(ConfigError) as info:
            base_config(**overrides)
        assert str(info.value) == f"config: unknown key(s): {unknown}"

    @pytest.mark.parametrize("doc, message", [
        ([], "config: must be an object, not []"),
        ({"tasks": [{"name": "t", "synthetic": {}}]}, "config: missing key(s): methods"),
        ({}, "config: missing key(s): tasks, methods"),
        ({"tasks": {"name": "t"}, "methods": []},
         "config: tasks must be an array of objects, not {'name': 't'}"),
        ({"tasks": [{"synthetic": {}, "knd": 1}], "methods": []}, "task: unknown key(s): knd"),
    ], ids=["root-list", "no-methods", "empty", "tasks-object", "unknown-before-missing"])
    def test_block_shape_and_missing_keys(self, doc, message):
        with pytest.raises(ConfigError) as info:
            parse_config(doc)
        assert str(info.value) == message

    def test_omitted_keys_take_dataclass_defaults(self):
        cfg = parse_config({
            "tasks": [{"name": "t", "synthetic": SYN_CLS}],
            "methods": [{"name": "m", "lexicon": "synthetic"}],
        })
        assert cfg.tasks[0] == TaskSpec(name="t", synthetic=SYN_CLS)
        assert cfg.methods[0] == MethodSpec(name="m", lexicon="synthetic")
        assert cfg == RunConfig(tasks=cfg.tasks, methods=cfg.methods)


class TestStableSeed:
    def test_deterministic_and_label_sensitive(self):
        assert stable_seed(5, "a", "b") == stable_seed(5, "a", "b")
        assert stable_seed(5, "a", "b") != stable_seed(5, "a", "c")
        assert stable_seed(5, "a") != stable_seed(6, "a")

    def test_range(self):
        for base in (0, 1, 2**20):
            assert 0 <= stable_seed(base, "x") < 2**31

    def test_separator_in_a_label_does_not_collide(self):
        tuples = [
            ("a|b", "c"), ("a", "b|c"), ("a", "b", "c"), ("a|b|c",),
            ("a\\", "b"), ("a\\|b",), ("a", "\\b"), ("a\\\\", "b"), ("a\\", "|b"),
        ]
        assert len({stable_seed(0, *labels) for labels in tuples}) == len(tuples)

    def test_plain_labels_hash_their_joined_text(self):
        # names without a backslash or `|` keep the seeds, and so the results, they always had
        expected = (7 * 1_000_003 + zlib.crc32(b"clustered-mean|synthetic-relatedness")) % 2**31
        assert stable_seed(7, "clustered-mean", "synthetic-relatedness") == expected


class TestLoadTask:
    def test_synthetic_carries_lexicon(self):
        cfg = base_config()
        task, table = load_task(cfg.tasks[0], cfg)
        assert table is not None and table.dim == 8
        assert task.name == "cls"
        assert task.splits["test"]

    def test_dim_override(self):
        cfg = base_config()
        _, table = load_task(cfg.tasks[0], cfg, dim=32)
        assert table.dim == 32

    def test_file_task_auto_split(self, tmp_path):
        p = tmp_path / "cls.tsv"
        rows = [f"{'pos' if i % 2 else 'neg'}\tword{i} word{(i * 7) % 20}" for i in range(40)]
        p.write_text("\n".join(rows), encoding="utf-8")
        cfg = base_config(tasks=[{"name": "file-cls", "kind": "classification", "path": str(p)}])
        task, table = load_task(cfg.tasks[0], cfg)
        assert table is None
        assert sum(len(v) for v in task.splits.values()) == 40

    def test_file_task_split_deterministic_per_seed(self, tmp_path):
        p = tmp_path / "cls.tsv"
        p.write_text("\n".join(f"a\tw{i}" for i in range(30)), encoding="utf-8")
        cfg = base_config(tasks=[{"name": "t", "kind": "classification", "path": str(p)}])
        t1, _ = load_task(cfg.tasks[0], cfg)
        t2, _ = load_task(cfg.tasks[0], cfg)
        assert t1.splits == t2.splits

    def test_split_failure_is_a_config_error_naming_the_task(self, tmp_path):
        p = tmp_path / "tiny.tsv"
        p.write_text("\n".join(f"a\tw{i}" for i in range(5)), encoding="utf-8")
        cfg = base_config(tasks=[
            {"name": "tiny-file", "path": str(p)},
            {"name": "tiny-synthetic", "synthetic": {"classes": 2, "items": 4}},
        ])
        for spec in cfg.tasks:
            with pytest.raises(ConfigError, match=f"task '{spec.name}': .* test split empty"):
                load_task(spec, cfg)

    @pytest.mark.parametrize("synthetic", [{"items": "200"}, {"classes": 1}, {"dim": 2.5}])
    def test_bad_synthetic_value_is_a_config_error(self, synthetic):
        with pytest.raises(ConfigError, match="task 'odd': "):  # a wrong type fails at parse
            cfg = base_config(tasks=[{"name": "odd", "synthetic": synthetic}])
            load_task(cfg.tasks[0], cfg)

    def test_synthetic_defaults_live_on_the_generators(self):
        cfg = base_config(tasks=[
            {"name": "c", "synthetic": {}},
            {"name": "r", "kind": "relatedness", "synthetic": {}},
        ])
        (cls, cls_table), (rel, rel_table) = (load_task(spec, cfg) for spec in cfg.tasks)
        assert len(cls.labels) == 200 and cls.label_set == ("c0", "c1")
        assert len(cls_table.keys) == 2 * 20 and cls_table.dim == 16
        assert len(rel.labels) == 300 and rel_table.dim == 16
        assert cls == replace(tasks.synthetic_classification(seed=11)[0], name="c")


class TestPlan:
    """`runner.plan` is the one builder of a run's cells."""

    def test_cells_in_method_major_order_with_the_loaded_tasks(self, tmp_path):
        p = tmp_path / "cls.tsv"
        p.write_text("".join(f"{'ab'[i % 2]}\tw{i % 3}\n" for i in range(40)), encoding="utf-8")
        cfg = base_config(
            tasks=[{"name": "file", "path": str(p)},
                   {"name": "rel", "kind": "relatedness", "synthetic": dict(SYN_REL)}],
            methods=[{"name": "a", "lexicon": "random", "dim": 4},
                     {"name": "b", "lexicon": "random", "dim": 4}])
        for dim in (None, 16):
            cells = runner.plan(cfg, dim, runner.Inputs())
            assert [(m.name, spec.name) for m, spec, _, _ in cells] == [
                ("a", "file"), ("a", "rel"), ("b", "file"), ("b", "rel")]
            assert [m for m, *_ in cells] == [cfg.methods[0]] * 2 + [cfg.methods[1]] * 2
            for _, spec, task, table in cells:
                want_task, want_table = load_task(spec, cfg, dim)
                assert spec in cfg.tasks and task == want_task
                if want_table is None:
                    assert table is None
                else:
                    assert table.keys == want_table.keys
                    assert np.array_equal(table.vectors, want_table.vectors)
            assert cells[0][2] is cells[2][2]  # each task is loaded once, for every method
            assert cells[1][3].dim == (SYN_REL["dim"] if dim is None else dim)

    def test_combination_problems_raised_together_before_a_task_loads(self, monkeypatch):
        """`plan` raises exactly the problems `validate_config` lists at its
        dim, before any task loads."""
        cfg = base_config(
            tasks=[{"name": "cls", "synthetic": dict(SYN_CLS)}, {"name": "f", "path": "f.tsv"}],
            methods=[{"name": "s", "lexicon": "synthetic"}, {"name": "ok", "lexicon": "v.txt"},
                     {"name": "t", "lexicon": "v{dim}.txt"}])
        for module, name in [(runner, "load_task"), (tasks, "load_classification_tsv"),
                             (tasks, "synthetic_classification")]:
            monkeypatch.setattr(module, name, no_cell)
        synthetic = "method 's': lexicon 'synthetic' only works with synthetic tasks, " \
                    "not file task(s) 'f'"
        template = "method 't': lexicon template needs a sweep dim"
        for dim, dims in [(None, None), (8, [8])]:  # a sweep dim fills the template
            with pytest.raises(ConfigError) as info:
                runner.plan(cfg, dim, runner.Inputs())
            assert str(info.value).splitlines() == validate_config(cfg, dims)
        assert validate_config(cfg)[:2] == [synthetic, template]
        assert validate_config(cfg, [8])[:2] == [
            "method 'ok': sweep needs a parametric lexicon "
            "(random, synthetic, or a path template with {dim})", synthetic]
        assert "task 'f': file not found: f.tsv" in validate_config(cfg, [8])


class TestByteOrderMark:
    """An input file that starts with a UTF-8 byte-order mark parses as the
    same file without one, through each place that opens an input: the
    config, task files and the run's parse cache."""

    PAIRS = ("pair_ID\tsentence_A\tsentence_B\trelatedness_score\tentailment_judgment\n"
             + "".join(f"p{i}\ta w{i}\tb w{i % 4}\t{1 + i % 5}.0\tNEUTRAL\n" for i in range(20)))

    @staticmethod
    def write_both(tmp_path, name, text):
        plain, marked = tmp_path / name, tmp_path / f"bom-{name}"
        plain.write_bytes(text.encode("utf-8"))
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        return str(plain), str(marked)

    @pytest.mark.parametrize("kind, text", [
        ("classification", "".join(f"{('pos', 'neg')[i % 2]}\tw{i} w{i % 3}\n" for i in range(20))),
        ("relatedness", PAIRS),
    ], ids=["classification-tsv", "pair-tsv"])
    def test_task_file(self, tmp_path, kind, text):
        cfg = base_config()
        plain, marked = self.write_both(tmp_path, "t.tsv", text)
        tasks_read = [load_task(TaskSpec("t", kind, path=path), cfg)[0] for path in (plain, marked)]
        assert tasks_read[1] == tasks_read[0]
        assert "\ufeffpos" not in tasks_read[1].label_set

    @pytest.mark.parametrize("loader, text, keys", [
        (load_word_vectors, "a 1 0\nb 0 1\n", ("a", "b")),
        (load_word_vectors, "2 2\na 1 0\nb 0 1\n", ("a", "b")),
        (load_sentence_vector_table, "0\t1 0\n1\t0 1\n", ("0", "1")),
    ], ids=["word-vectors", "word-vectors-with-header", "sentence-vectors"])
    def test_vector_file(self, tmp_path, loader, text, keys):
        plain, marked = self.write_both(tmp_path, "v.txt", text)
        inputs = runner.Inputs()
        tables = [inputs.read(path, loader) for path in (plain, marked)]
        assert tables[1].keys == tables[0].keys == keys
        assert np.array_equal(tables[1].vectors, tables[0].vectors)

    def test_frequency_file(self, tmp_path):
        plain, marked = self.write_both(tmp_path, "f.txt", "#total 10\na 3\nb 2\n")
        inputs = runner.Inputs()
        tables = [inputs.read(path, load_frequency_table) for path in (plain, marked)]
        assert tables[1] == tables[0]
        assert tables[0].total == 10 and tables[0].counts == {"a": 3, "b": 2}

    def test_config_file(self, tmp_path, capsys):
        doc = {"tasks": [{"name": "t", "synthetic": dict(SYN_CLS)}],
               "methods": [{"name": "m", "lexicon": "synthetic"}]}
        plain, marked = self.write_both(tmp_path, "cfg.json", json.dumps(doc))
        assert load_config(marked) == load_config(plain)
        assert cli.main(["validate", "--config", marked]) == 0
        assert capsys.readouterr().out == "config ok\n"


class TestSplitRule:
    """`load_task` alone decides whether a task file's split is usable. Split
    annotations that cover every item are used as given and must mark train
    and test items; a file with fewer annotations gets the seeded split.
    `eval` at any worker count and `embed` under any method agree."""

    N = 40
    SEMEVAL = {"train": "TRAIN", "dev": "TRIAL", "test": "TEST"}

    def write(self, tmp_path, kind, marks):
        """A task file of N items, item i marked ``marks[i % len(marks)]``
        ("" for no annotation, classification files only)."""
        mark = [marks[i % len(marks)] for i in range(self.N)]
        if kind == "classification":
            text = "".join(f"{'ab'[i % 2]}\tw{i % 3} w{i % 5}" + (f"\t{m}" if m else "") + "\n"
                           for i, m in enumerate(mark))
        else:
            text = TestByteOrderMark.PAIRS.splitlines(keepends=True)[0].replace(
                "\n", "\tSemEval_set\n") + "".join(
                f"p{i}\ta w{i % 3}\tb w{i % 4}\t{1 + i % 5}.0\tNEUTRAL\t{self.SEMEVAL[m]}\n"
                for i, m in enumerate(mark))
        path = tmp_path / "t.tsv"
        path.write_text(text, encoding="utf-8")
        return path

    def run_verbs(self, tmp_path, capsys, kind, task_file):
        """(exit code, stderr) of `eval` at 1 and 2 workers and of `embed`
        under a mean and a SIF method, by run."""
        doc = {"tasks": [{"name": "t", "kind": kind, "path": str(task_file)}],
               "methods": [{"name": "mean", "lexicon": "random", "dim": 4},
                           {"name": "sif", "strategy": "sif", "lexicon": "random", "dim": 4}]}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc), encoding="utf-8")
        runs = {f"eval-w{w}": ["eval", "--workers", w, "--out", str(tmp_path / f"out-w{w}")]
                for w in ("1", "2")}
        runs |= {f"embed-{m}": ["embed", "--task", "t", "--method", m,
                                "--out", str(tmp_path / f"{m}.tsv")] for m in ("mean", "sif")}
        results = {}
        for run, (verb, *args) in runs.items():
            rc = cli.main([verb, "--config", str(cfg_path), *args])
            results[run] = rc, capsys.readouterr().err
        return results

    def cell_counts(self, tmp_path):
        """The test count of each cell of both `eval` runs."""
        return {cell["n"] for w in ("1", "2")
                for cell in json.loads((tmp_path / f"out-w{w}" / "results.json").read_text())["results"]}

    @pytest.mark.parametrize("kind", ["classification", "relatedness"])
    @pytest.mark.parametrize("marks, missing", [
        (["test", "dev"], "train"), (["train", "dev"], "test"), (["dev"], "train or test"),
    ], ids=["no-train", "no-test", "dev-only"])
    def test_annotations_without_train_or_test_exit_1(self, tmp_path, capsys, kind, marks, missing):
        task_file = self.write(tmp_path, kind, marks)
        message = (f"error: task 't': {task_file}: its split annotations cover every item "
                   f"but mark no {missing} item")
        for run, (rc, err) in self.run_verbs(tmp_path, capsys, kind, task_file).items():
            assert (rc, err.splitlines()) == (1, [message]), run
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "t.tsv"]
        cfg = load_config(str(tmp_path / "cfg.json"))
        with pytest.raises(ConfigError, match=f"mark no {missing} item"):
            load_task(cfg.tasks[0], cfg)

    @pytest.mark.parametrize("kind", ["classification", "relatedness"])
    def test_complete_annotations_used_as_given(self, tmp_path, capsys, kind):
        marks = ["train", "train", "dev", "test"]
        task_file = self.write(tmp_path, kind, marks)
        for run, result in self.run_verbs(tmp_path, capsys, kind, task_file).items():
            assert result == (0, ""), run
        assert self.cell_counts(tmp_path) == {self.N // 4}
        cfg = load_config(str(tmp_path / "cfg.json"))
        task, _ = load_task(cfg.tasks[0], cfg)
        assert task.splits == {m: [i for i in range(self.N) if marks[i % 4] == m]
                               for m in ("train", "dev", "test")}
        res = run_task((cfg.methods[1], cfg.tasks[0], task, None), cfg)
        assert res.n == self.N // 4

    def test_partial_annotations_get_the_seeded_split(self, tmp_path, capsys):
        task_file = self.write(tmp_path, "classification", ["train", "test", ""])
        for run, result in self.run_verbs(tmp_path, capsys, "classification", task_file).items():
            assert result == (0, ""), run
        assert self.cell_counts(tmp_path) == {round(self.N * 0.1)}
        cfg = load_config(str(tmp_path / "cfg.json"))
        parsed = runner.read_input(str(task_file), tasks.load_classification_tsv, None)
        seeded = tasks.split(parsed, cfg.split_ratios, seed=stable_seed(cfg.seed, "t"))
        assert load_task(cfg.tasks[0], cfg)[0] == replace(seeded, name="t")


class TestSharedParse:
    """A task file is parsed once per run, however many tasks read it: the
    loaders take no task name, so the parse cache keys a file by path, loader
    and label set. `load_task` names each task after its spec and gives it
    its own seeded split of the shared parse."""

    @staticmethod
    def count_parses(monkeypatch, log):
        """Make both task loaders append the loader and file of each parse
        to the file ``log``, so that a forked worker's parses count too."""
        def counting(loader):
            def load(stream, *args):
                with open(log, "a", encoding="utf-8") as fh:
                    fh.write(f"{loader.__name__}\t{stream.name}\n")
                return loader(stream, *args)
            return load

        for loader in (tasks.load_classification_tsv, tasks.load_sick_tsv):
            monkeypatch.setattr(tasks, loader.__name__, counting(loader))

    @staticmethod
    def classification_file(tmp_path):
        path = tmp_path / "cls.tsv"
        path.write_text("".join(f"{'ab'[i % 2]}\tw{i % 7} w{i % 5}\n" for i in range(40)),
                        encoding="utf-8")
        return path

    @pytest.mark.parametrize("workers", [1, 2])
    def test_pair_file_parsed_once_for_relatedness_and_entailment(self, tmp_path, monkeypatch,
                                                                   workers):
        pairs = tmp_path / "pairs.tsv"
        judgments = tasks.ENTAILMENT_LABELS
        pairs.write_text(PAIR_HEADER + "\n" + "".join(
            f"p{i}\ta w{i % 7}\tb w{i % 5}\t{1 + i * 7 % 40 / 10}\t{judgments[i % 3]}\n"
            for i in range(60)), encoding="utf-8")
        cfg = base_config(tasks=[{"name": "rel", "kind": "relatedness", "path": str(pairs)},
                                 {"name": "ent", "kind": "entailment", "path": str(pairs)}],
                          methods=[{"name": "rand", "lexicon": "random", "dim": 4}])
        log = tmp_path / "parses.log"
        self.count_parses(monkeypatch, log)
        matrix = run_matrix(cfg, workers=workers)
        assert [matrix.get("rand", t).measure for t in ("rel", "ent")] == ["pearson", "accuracy"]
        assert log.read_text(encoding="utf-8").splitlines() == [f"load_sick_tsv\t{pairs}"]

    def test_classification_tasks_over_one_file_keep_their_names_and_splits(self, tmp_path,
                                                                              monkeypatch):
        path = self.classification_file(tmp_path)
        parsed = runner.read_input(str(path), tasks.load_classification_tsv, None)
        cfg = base_config(tasks=[{"name": name, "path": str(path)} for name in ("one", "two")],
                          methods=[{"name": "rand", "lexicon": "random", "dim": 4}])
        log = tmp_path / "parses.log"
        self.count_parses(monkeypatch, log)
        cells = runner.plan(cfg, None, runner.Inputs())
        assert log.read_text(encoding="utf-8").splitlines() == [
            f"load_classification_tsv\t{path}"]
        for (_, spec, task, _), name in zip(cells, ("one", "two"), strict=True):
            seeded = tasks.split(parsed, cfg.split_ratios, seed=stable_seed(cfg.seed, name))
            assert (spec.name, task) == (name, replace(seeded, name=name))
        assert cells[0][2].splits != cells[1][2].splits  # a split is not kept with the parse

    def test_each_label_set_parses_the_file_once(self, tmp_path, monkeypatch):
        path = self.classification_file(tmp_path)
        label_sets = {"ab": ["a", "b"], "ba": ["b", "a"], "ab-again": ["a", "b"]}
        cfg = base_config(tasks=[{"name": name, "path": str(path), "label_set": labels}
                                 for name, labels in label_sets.items()],
                          methods=[{"name": "rand", "lexicon": "random", "dim": 4}])
        log = tmp_path / "parses.log"
        self.count_parses(monkeypatch, log)
        cells = runner.plan(cfg, None, runner.Inputs())
        assert log.read_text(encoding="utf-8").splitlines() == [
            f"load_classification_tsv\t{path}"] * 2
        assert [task.label_set for _, _, task, _ in cells] == [("a", "b"), ("b", "a"), ("a", "b")]


class TestKindRule:
    """`plan` refuses, after `load_task`'s split rule, a task its kind cannot
    score: a classification task of one label, and a relatedness task whose
    test split holds fewer than 2 different scores, Pearson's r being
    undefined there. So `validate` exits 1 with one error line naming the
    task, where `eval` used to fail in its cells with exit 2. `embed` scores
    nothing and still writes such a task's vectors."""

    PAIR_HEADER = ("pair_ID\tsentence_A\tsentence_B\trelatedness_score\tentailment_judgment"
                   "\tSemEval_set\n")

    def pairs(self, tmp_path, test_scores):
        """A pair file of 20 TRAIN pairs and one TEST pair per test score."""
        rows = [f"p{i}\ta w{i}\tb w{i % 4}\t{1 + i % 5}.0\tNEUTRAL\tTRAIN\n" for i in range(20)]
        rows += [f"q{i}\ta w{i}\tb w{i}\t{y}\tNEUTRAL\tTEST\n" for i, y in enumerate(test_scores)]
        path = tmp_path / "pairs.tsv"
        path.write_text(self.PAIR_HEADER + "".join(rows), encoding="utf-8")
        return {"path": str(path)}

    def outcome(self, tmp_path, capsys, kind, task, verb="validate"):
        doc = {"tasks": [{"name": "t", "kind": kind, **task}],
               "methods": [{"name": "m", "lexicon": "random", "dim": 4}],
               "output": {"dir": str(tmp_path / "out")}}
        (tmp_path / "cfg.json").write_text(json.dumps(doc), encoding="utf-8")
        embed = ["--task", "t", "--method", "m", "--out", str(tmp_path / "v.tsv")]
        rc = cli.main([verb, "--config", str(tmp_path / "cfg.json"),
                       *(embed if verb == "embed" else [])])
        return rc, capsys.readouterr().err

    @pytest.mark.parametrize("label_set", [None, ["a"]])
    def test_one_label_classification_exit_1(self, tmp_path, capsys, label_set):
        path = tmp_path / "cls.tsv"
        path.write_text("".join(f"a\tw{i} w{i % 3}\n" for i in range(40)), encoding="utf-8")
        task = {"path": str(path), "label_set": label_set}
        message = ("error: task 't': every item is labelled 'a': "
                   "classification needs at least 2 labels\n")
        for verb in ("validate", "eval"):
            assert self.outcome(tmp_path, capsys, "classification", task, verb) == (1, message)
        assert not (tmp_path / "out").exists()
        assert self.outcome(tmp_path, capsys, "classification", task, "embed") == (0, "")
        assert (tmp_path / "v.tsv").read_text(encoding="utf-8").count("\n") == 40
        # a second label in the label set is enough, though no item carries it
        task["label_set"] = ["a", "b"]
        assert self.outcome(tmp_path, capsys, "classification", task) == (0, "")

    @pytest.mark.parametrize("test_scores, shown", [
        (["4.0", "4.0"], "the 2 item(s) of its test split all score 4.0"),
        (["2.5"], "the 1 item(s) of its test split all score 2.5"),
    ], ids=["one-score", "one-item"])
    def test_relatedness_file_test_split_pearson_cannot_score_exit_1(
            self, tmp_path, capsys, test_scores, shown):
        task = self.pairs(tmp_path, test_scores)
        message = f"error: task 't': {shown}: Pearson's r needs 2 different scores\n"
        for verb in ("validate", "eval"):
            assert self.outcome(tmp_path, capsys, "relatedness", task, verb) == (1, message)
        assert not (tmp_path / "out").exists()
        assert self.outcome(tmp_path, capsys, "relatedness", task, "embed") == (0, "")
        rows = 2 * (20 + len(test_scores))  # an A and a B sentence per pair
        assert (tmp_path / "v.tsv").read_text(encoding="utf-8").count("\n") == rows
        # entailment is scored by accuracy, which needs no spread of scores
        assert self.outcome(tmp_path, capsys, "entailment", task) == (0, "")
        task = self.pairs(tmp_path, [*test_scores, "1.5"])
        assert self.outcome(tmp_path, capsys, "relatedness", task) == (0, "")


class TestRunTask:
    def test_clustered_classification_learns(self):
        cfg = base_config()
        task, table = load_task(cfg.tasks[0], cfg)
        res = run_task((cfg.methods[0], cfg.tasks[0], task, table), cfg)
        assert res.measure == "accuracy"
        assert res.n == len(task.splits["test"])
        assert res.value >= 0.9

    def test_random_lexicon_stays_near_majority(self):
        cfg = base_config(
            seed=2024,
            methods=[{"name": "random-mean", "lexicon": "random", "dim": 8}],
        )
        task, table = load_task(cfg.tasks[0], cfg)
        res = run_task((cfg.methods[0], cfg.tasks[0], task, table), cfg)
        test_labels = [task.labels[i] for i in task.splits["test"]]
        assert abs(res.value - majority_baseline(test_labels)) <= 0.25

    def test_relatedness_reports_pearson(self):
        cfg = base_config(
            tasks=[{"name": "rel", "kind": "relatedness", "synthetic": dict(SYN_REL)}]
        )
        task, table = load_task(cfg.tasks[0], cfg)
        res = run_task((cfg.methods[0], cfg.tasks[0], task, table), cfg)
        assert res.measure == "pearson"
        assert -1.0 <= res.value <= 1.0

    def test_entailment_uses_fixed_label_order(self):
        cfg = base_config(
            tasks=[{"name": "ent", "kind": "entailment", "synthetic": dict(SYN_REL)}]
        )
        task, table = load_task(cfg.tasks[0], cfg)
        res = run_task((cfg.methods[0], cfg.tasks[0], task, table), cfg)
        assert res.measure == "accuracy"

    @pytest.mark.parametrize("kind, synthetic, train", [
        ("classification", SYN_CLS, "train_classifier"),
        ("entailment", SYN_REL, "train_classifier"),
        ("relatedness", SYN_REL, "train_relatedness"),
    ], ids=["classification", "entailment", "relatedness"])
    def test_probe_trains_on_the_whole_feature_matrix(self, monkeypatch, kind, synthetic, train):
        cfg = base_config(tasks=[{"name": "t", "kind": kind, "synthetic": dict(synthetic)}])
        task, table = load_task(cfg.tasks[0], cfg)
        n = len(task.labels)
        seen, fit = [], getattr(runner.probe, train)

        def spy(X, targets, K, probe_cfg, *, rows, seed):
            seen.append((X.shape, len(targets), list(rows), seed))
            return fit(X, targets, K, probe_cfg, rows=rows, seed=seed)

        monkeypatch.setattr(runner.probe, train, spy)
        run_task((cfg.methods[0], cfg.tasks[0], task, table), cfg)
        width = 8 if task.pair_ids is None else 16
        seed = stable_seed(cfg.seed, cfg.methods[0].name, "t")
        assert seen == [((n, width), n, list(task.splits["train"]), seed)]


class TestRunMatrix:
    @settings(max_examples=15)
    @given(run=file_runs(), workers=st.integers(2, 4))
    def test_shape_and_workers_equivalence(self, run, workers):
        files, doc = run
        with tempfile.TemporaryDirectory() as root:
            cfg = write_run(root, files, doc)
            expected = outcome(cfg)
            assert outcome(cfg, workers) == expected
        assert isinstance(expected, str) or len(expected) == 2 * len(doc["methods"])

    @settings(max_examples=40)
    @given(run=file_runs(), data=st.data())
    def test_vector_file_rewrites_keep_values(self, run, data):
        """Unused words, later duplicates of used words, a `count dim`
        header, a permutation that keeps each word's first line first, and
        CRLF or a byte-order mark on every file leave every value as it is."""
        files, doc = run
        lines = list(files["v.txt"])
        dim = len(lines[0].split()) - 1

        def numbers():
            return " ".join(map(repr, data.draw(st.lists(
                st.floats(-10, 10), min_size=dim, max_size=dim))))

        for i in range(data.draw(st.integers(0, 3), label="unused words")):
            lines.insert(data.draw(st.integers(0, len(lines))), f"u{i} {numbers()}")
        for _ in range(data.draw(st.integers(0, 3), label="duplicates")):
            first = data.draw(st.integers(0, len(lines) - 1))
            word = lines[first].split()[0]
            lines.insert(data.draw(st.integers(first + 1, len(lines))), f"{word} {numbers()}")
        if data.draw(st.booleans(), label="permute"):
            by_word = {}
            for line in lines:
                by_word.setdefault(line.split()[0], []).append(line)
            own = {word: iter(group) for word, group in by_word.items()}
            lines = [next(own[line.split()[0]]) for line in data.draw(st.permutations(lines))]
        if data.draw(st.booleans(), label="header"):
            lines.insert(0, f"{len(lines)} {dim}")
        newline = data.draw(st.sampled_from(["\n", "\r\n"]), label="newline")
        bom = data.draw(st.booleans(), label="bom")
        with tempfile.TemporaryDirectory() as a, tempfile.TemporaryDirectory() as b:
            expected = outcome(write_run(a, files, doc))
            assert outcome(write_run(b, {**files, "v.txt": lines}, doc, newline, bom)) == expected

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_each_vector_file_parsed_once(self, tmp_path, monkeypatch, workers):
        lex = tmp_path / "vectors.txt"
        cfg = base_config(
            tasks=[
                {"name": "cls", "kind": "classification", "synthetic": dict(SYN_CLS)},
                {"name": "rel", "kind": "relatedness", "synthetic": dict(SYN_REL)},
            ],
            methods=[
                {"name": "file-mean", "lexicon": str(lex)},
                {"name": "file-sif", "strategy": "sif", "lexicon": str(lex)},
            ],
        )
        with open(lex, "w", encoding="utf-8") as fh:
            for spec in cfg.tasks:
                serialize_word_vectors(load_task(spec, cfg)[1], fh, header=False)
        calls, pid = [], os.getpid()

        def counting_load(stream, *args, **kwargs):
            assert os.getpid() == pid, "parsed in a worker process"
            calls.append(stream.name)
            return load_word_vectors(stream, *args, **kwargs)

        monkeypatch.setattr(runner, "load_word_vectors", counting_load)
        matrix = run_matrix(cfg, workers=workers)
        assert len(matrix.cells) == 4
        assert calls == [str(lex)]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_normalising_file_lexicon_normalised_once_per_run(self, tmp_path, monkeypatch, workers):
        """The file is parsed once per ``normalize`` value, and the
        normalising parse is the run's only `unit_rows` call: no cell, in this
        process or a worker, normalises the table again."""
        lex = tmp_path / "vectors.txt"
        cfg = base_config(
            tasks=[
                {"name": "cls", "kind": "classification", "synthetic": dict(SYN_CLS)},
                {"name": "rel", "kind": "relatedness", "synthetic": dict(SYN_REL)},
            ],
            methods=[
                {"name": "file-mean", "lexicon": str(lex)},
                {"name": "file-sif", "strategy": "sif", "lexicon": str(lex)},
                {"name": "file-raw", "strategy": "mean_max", "lexicon": str(lex),
                 "normalize": False},
            ],
        )
        with open(lex, "w", encoding="utf-8") as fh:
            for spec in cfg.tasks:
                serialize_word_vectors(load_task(spec, cfg)[1], fh, header=False)
        parses, normalised, pid, unit_rows = [], [], os.getpid(), lexicon.unit_rows

        def counting_load(stream, *args):
            parses.append(args)
            return load_word_vectors(stream, *args)

        def counting_unit_rows(E):
            assert os.getpid() == pid, "normalised in a worker process"
            normalised.append(E.shape)
            return unit_rows(E)

        monkeypatch.setattr(runner, "load_word_vectors", counting_load)
        for module in (lexicon, aggregate):
            monkeypatch.setattr(module, "unit_rows", counting_unit_rows)
        matrix = run_matrix(cfg, workers=workers)
        assert len(matrix.cells) == 6
        assert sorted(parses) == [(False,), (True,)]
        assert len(normalised) == 1

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_shared_frequency_and_sentence_vector_files_parsed_once(
        self, tmp_path, monkeypatch, workers
    ):
        cfg = base_config()
        vecs, freqs = tmp_path / "vecs.tsv", tmp_path / "freq.txt"
        export_sentence_vectors(cfg, "cls", "clustered-mean", vecs)
        freqs.write_text("w0_0 5\nw1_0 3\n#total 100\n", encoding="utf-8")
        sif = {"strategy": "sif", "lexicon": "synthetic", "frequencies": str(freqs)}
        cfg = base_config(
            tasks=[
                {"name": "cls", "synthetic": dict(SYN_CLS)},
                {"name": "cls-again", "synthetic": dict(SYN_CLS, seed=4)},
            ],
            methods=[
                {"name": "sif-a", **sif},
                {"name": "sif-b", **sif, "sif_a": 0.01},
                {"name": "pre", "sentence_vectors": str(vecs)},
            ],
        )
        calls, pid = [], os.getpid()

        def counting(loader):
            def load(stream, *args, **kwargs):
                assert os.getpid() == pid, "parsed in a worker process"
                calls.append((loader.__name__, stream.name))
                return loader(stream, *args, **kwargs)
            return load

        for loader in (load_frequency_table, load_sentence_vector_table):
            monkeypatch.setattr(runner, loader.__name__, counting(loader))
        matrix = run_matrix(cfg, workers=workers)
        assert len(matrix.cells) == 6
        assert sorted(calls) == [
            ("load_frequency_table", str(freqs)),
            ("load_sentence_vector_table", str(vecs)),
        ]

    def test_pre_fork_read_parses_each_file_once_in_the_main_process(self, tmp_path, monkeypatch):
        freqs = tmp_path / "freq.txt"
        freqs.write_text("w0_0 5\nw1_0 3\n", encoding="utf-8")
        cfg = base_config(methods=[
            {"name": f"sif-{i}", "strategy": "sif", "lexicon": "synthetic",
             "frequencies": str(freqs), "sif_a": 10.0 ** -i}
            for i in range(1, 9)
        ])
        calls, pid = [], os.getpid()

        def counting_load(stream):
            assert os.getpid() == pid, "parsed in a worker process"
            calls.append(stream.name)
            return load_frequency_table(stream)

        monkeypatch.setattr(runner, "load_frequency_table", counting_load)
        matrix = run_matrix(cfg, workers=8)
        assert len(matrix.cells) == 8
        assert calls == [str(freqs)]
        assert matrix.cells == run_matrix(cfg).cells

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_failed_read_kept_as_its_error(self, tmp_path, monkeypatch, workers):
        freqs = tmp_path / "freq.txt"
        freqs.write_text("w0_0 5\nw1_0 x\n", encoding="utf-8")
        cfg = base_config(methods=[
            {"name": "mean", "lexicon": "synthetic"},
            *({"name": f"sif-{i}", "strategy": "sif", "lexicon": "synthetic",
               "frequencies": str(freqs)} for i in range(3)),
        ])
        calls, pid = [], os.getpid()

        def counting_load(stream):
            assert os.getpid() == pid, "parsed in a worker process"
            calls.append(stream.name)
            return load_frequency_table(stream)

        monkeypatch.setattr(runner, "load_frequency_table", counting_load)
        with pytest.raises(ParseError) as info:
            run_matrix(cfg, workers=workers)
        assert str(info.value).startswith(
            f"cell (method='sif-0', task='cls') failed: {freqs}: line 2: ")
        assert calls == [str(freqs)]

    @staticmethod
    def small_matrix(methods, tasks):
        """A config of ``methods`` x ``tasks`` cheap cells, m0..., t0..."""
        return base_config(
            tasks=[{"name": f"t{j}", "synthetic": dict(SYN_CLS, items=20)} for j in range(tasks)],
            methods=[{"name": f"m{i}", "lexicon": "synthetic"} for i in range(methods)])

    @pytest.mark.parametrize("workers, methods, platform", [
        (1, 3, "linux"), (4, 1, "linux"), (4, 3, "darwin"),
    ], ids=["one-worker", "one-cell", "off-linux"])
    def test_no_fork_without_a_second_worker(self, monkeypatch, workers, methods, platform):
        def no_fork():
            raise AssertionError("forked")

        cfg = self.small_matrix(methods, 1)
        monkeypatch.setattr(runner.os, "fork", no_fork)
        monkeypatch.setattr(runner.sys, "platform", platform)
        matrix = run_matrix(cfg, workers=workers)
        monkeypatch.undo()
        assert len(matrix.cells) == methods
        assert matrix.cells == run_matrix(cfg, workers=2).cells

    @pytest.mark.parametrize("workers", [0, -1])
    def test_worker_count_below_one_refused_before_the_plan(self, monkeypatch, workers):
        monkeypatch.setattr(runner, "plan", no_cell)
        with pytest.raises(ValueError, match=f"^workers must be at least 1, not {workers}$"):
            run_matrix(self.small_matrix(2, 1), workers=workers)

    def test_a_worker_stops_at_its_first_failed_cell(self, tmp_path, monkeypatch):
        log = tmp_path / "calls.txt"

        def run_task(cell, *args):
            method, _, task, _ = cell
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(f"{os.getpid()} {method.name} {task.name}\n")
            if (method.name, task.name) == ("m0", "t0"):
                raise ConfigError("fault")
            if (method.name, task.name) == ("m0", "t1"):  # outlasts the failure of cell 0
                time.sleep(10)
            return EvalResult(task.name, method.name, "accuracy", 0.5, 1)

        monkeypatch.setattr(runner, "run_task", run_task)
        with pytest.raises(ConfigError, match=r"^cell \(method='m0', task='t0'\) failed: fault$"):
            run_matrix(self.small_matrix(2, 2), workers=2)
        calls = {}
        for line in log.read_text(encoding="utf-8").splitlines():
            pid, cell = line.split(" ", 1)
            calls.setdefault(int(pid) == os.getpid(), []).append(cell)
        # cells in order (m0, t0), (m0, t1), (m1, t0), (m1, t1): the main
        # process's stride is 0, 2 and the forked worker's 1, 3. Once cell 0
        # has failed, the worker owes no cell below it and is killed in cell 1.
        assert calls[True] == ["m0 t0"]
        assert "m1 t1" not in calls.get(False, [])

    @settings(max_examples=40)
    @given(methods=st.integers(1, 3), tasks=st.integers(1, 3), workers=st.integers(1, 4),
           data=st.data())
    def test_lowest_failing_cell_wins(self, methods, tasks, workers, data):
        n = methods * tasks
        failing = data.draw(st.dictionaries(
            st.integers(0, n - 1), st.sampled_from([ConfigError, ParseError, RuntimeError])))
        cfg = self.small_matrix(methods, tasks)

        def run_task(cell, *args):
            method, _, task, _ = cell
            i = int(method.name[1:]) * tasks + int(task.name[1:])
            if i in failing:
                raise failing[i](f"fault {i}")
            return EvalResult(task.name, method.name, "accuracy", i / n, 1)

        with mock.patch.object(runner, "run_task", run_task):
            if not failing:
                assert run_matrix(cfg, workers).cells == run_matrix(cfg, 1).cells
                return
            with pytest.raises(Exception) as info:
                run_matrix(cfg, workers)
        first = min(failing)
        assert type(info.value) is failing[first]
        method, task = divmod(first, tasks)
        assert str(info.value) == f"cell (method='m{method}', task='t{task}') failed: fault {first}"

    def test_cell_failure_names_cell(self, tmp_path):
        malformed = tmp_path / "bad.txt"
        malformed.write_text("w0_0 1 0\nw0_1 x 1\n", encoding="utf-8")
        cfg = base_config(
            methods=[{"name": "broken", "lexicon": str(malformed)}],
        )
        with pytest.raises(ParseError, match="cell \\(method='broken', task='cls'\\) failed") as info:
            run_matrix(cfg)
        assert f"{malformed}: line 2: " in str(info.value)

    @pytest.mark.parametrize("dim", [None, 8])
    def test_missing_input_file_refused_before_any_task_loads(self, tmp_path, monkeypatch, dim):
        """A library call of `run_matrix` meets the checks `validate` makes:
        a missing file is a ConfigError naming it, not a ParseError from the
        first cell that reads it."""
        missing = tmp_path / "v{dim}.txt" if dim else tmp_path / "nope.txt"
        cfg = base_config(methods=[{"name": "m", "lexicon": str(missing)}])
        monkeypatch.setattr(runner, "load_task", no_cell)
        with pytest.raises(ConfigError) as info:
            run_matrix(cfg, dim=dim)
        path = str(missing).replace("{dim}", str(dim))
        assert str(info.value) == f"method 'm': lexicon file not found: {path}"


class TestCellOracle:
    """Every cell against `oracles.cell_matrix` and `oracles.run_cell`, which
    build it from README's definitions, one sentence and one pair at a time,
    without `runner`."""

    @staticmethod
    def value(run, *args):
        try:
            return run(*args)
        except DegenerateInputError as exc:  # a probe that predicts one score on a drawn task
            return repr(exc)

    def check(self, cfg):
        for cell in runner.plan(cfg, None, runner.Inputs()):
            method, spec, task, table = cell
            want_task, S = oracles.cell_matrix(cfg, method, spec)
            assert task.splits == want_task.splits
            got = sentence_matrix(task, method, cfg, table)
            assert got.shape == S.shape
            assert np.allclose(got, S, rtol=0, atol=1e-12)
            with mock.patch.object(runner, "sentence_matrix", lambda *args: S):
                got = self.value(lambda: run_task(cell, cfg).value)
            assert got == self.value(oracles.run_cell, cfg, method, spec)

    @settings(max_examples=12, deadline=None)
    @given(run=file_runs())
    def test_file_runs(self, run):
        with tempfile.TemporaryDirectory() as root:
            self.check(write_run(root, *run))

    @settings(max_examples=12, deadline=None)
    @given(cfg=synthetic_runs())
    def test_synthetic_runs(self, cfg):
        self.check(cfg)


class TestSifAndSentenceVectors:
    def test_sif_runs_end_to_end(self):
        cfg = base_config(
            methods=[{"name": "clustered-sif", "strategy": "sif", "lexicon": "synthetic",
                      "sif_a": 0.001}],
        )
        task, table = load_task(cfg.tasks[0], cfg)
        res = run_task((cfg.methods[0], cfg.tasks[0], task, table), cfg)
        assert 0.0 <= res.value <= 1.0

    @settings(max_examples=15)
    @given(run=file_runs())
    def test_precomputed_vectors_reproduce_lexicon_method(self, run):
        """`embed` each (task, method), then `eval` a method of the same name
        that reads that file as its sentence vectors: the same sentence
        matrix and the same value."""
        files, doc = run
        with tempfile.TemporaryDirectory() as root:
            cfg = write_run(root, files, doc)
            for spec in cfg.tasks:
                task, _ = load_task(spec, cfg)
                methods = []
                for m in cfg.methods:
                    out = os.path.join(root, f"{spec.name}-{m.name}.tsv")
                    assert export_sentence_vectors(cfg, spec.name, m.name, out) == len(task.sentence_ids())
                    methods.append(MethodSpec(m.name, sentence_vectors=out))
                    assert np.array_equal(sentence_matrix(task, methods[-1], cfg),
                                          sentence_matrix(task, m, cfg))
                one_task = replace(cfg, tasks=(spec,))
                assert outcome(replace(one_task, methods=tuple(methods))) == outcome(one_task)

    def test_missing_sentence_id_rejected(self, tmp_path):
        out = tmp_path / "short.tsv"
        out.write_text("0\t1 0 0 0 0 0 0 0\n", encoding="utf-8")
        cfg = base_config(methods=[{"name": "pre", "sentence_vectors": str(out)}])
        task, _ = load_task(cfg.tasks[0], cfg)
        with pytest.raises(ConfigError, match="missing"):
            sentence_matrix(task, cfg.methods[0], cfg)

    def test_pair_task_ids_use_ab_suffixes(self, tmp_path):
        cfg = base_config(
            tasks=[{"name": "rel", "kind": "relatedness", "synthetic": dict(SYN_REL)}]
        )
        out = tmp_path / "pairs.tsv"
        n = export_sentence_vectors(cfg, "rel", "clustered-mean", out)
        assert n == 240
        table = load_sentence_vector_table(open(out, encoding="utf-8"))
        assert "p0000_A" in table.row and "p0000_B" in table.row


class TestSweep:
    def test_sweep_requires_parametric_lexicon(self, tmp_path):
        lex = tmp_path / "fixed.txt"
        lex.write_text("w 1 0\n", encoding="utf-8")
        cfg = base_config(methods=[{"name": "fixed", "lexicon": str(lex)}])
        with pytest.raises(ConfigError, match="parametric"):
            dim_sweep(cfg, [4, 8])

    def test_sweep_rejects_empty_dims(self):
        with pytest.raises(ConfigError):
            dim_sweep(base_config(), [])

    def test_file_task_loaded_once_per_sweep(self, tmp_path, monkeypatch):
        p = tmp_path / "cls.tsv"
        p.write_text("\n".join(f"{'ab'[i % 2]}\tw{i % 7} w{i % 5}" for i in range(40)),
                     encoding="utf-8")
        cfg = base_config(
            tasks=[{"name": "file-cls", "path": str(p)}],
            methods=[{"name": "rand", "lexicon": "random", "dim": 4}],
            output={"dir": str(tmp_path / "out"), "formats": ["csv"]},
        )
        calls = []

        def counting_load(stream, *args, **kwargs):
            calls.append(stream.name)
            return load_classification_tsv(stream, *args, **kwargs)

        load_classification_tsv = tasks.load_classification_tsv
        monkeypatch.setattr(tasks, "load_classification_tsv", counting_load)
        matrices = dim_sweep(cfg, [4, 8, 16])
        assert len(matrices) == 3
        assert calls == [str(p)]

    def test_file_tasks_parsed_once_in_a_threaded_sweep(self, tmp_path, monkeypatch):
        cls, pairs = tmp_path / "cls.tsv", tmp_path / "pairs.tsv"
        cls.write_text("".join(f"{'ab'[i % 2]}\tw{i % 7} w{i % 5}\n" for i in range(40)),
                       encoding="utf-8")
        pairs.write_text(TestByteOrderMark.PAIRS, encoding="utf-8")
        cfg = base_config(
            tasks=[{"name": "cls", "path": str(cls)},
                   {"name": "pairs", "kind": "entailment", "path": str(pairs)}],
            methods=[{"name": "rand", "lexicon": "random", "dim": 4},
                     {"name": "rand-max", "strategy": "mean_max", "lexicon": "random", "dim": 4}],
            output={"dir": str(tmp_path / "out"), "formats": ["csv"]},
        )
        calls = []

        def counting(loader):
            def load(stream, *args):
                calls.append((loader.__name__, stream.name))
                return loader(stream, *args)
            return load

        for loader in (tasks.load_classification_tsv, tasks.load_sick_tsv):
            monkeypatch.setattr(tasks, loader.__name__, counting(loader))
        assert len(dim_sweep(cfg, [4, 8, 16], workers=2)) == 3
        assert sorted(calls) == [("load_classification_tsv", str(cls)),
                                 ("load_sick_tsv", str(pairs))]

    def write_dim_files(self, tmp_path, cfg, dims):
        for d in dims:
            with open(tmp_path / f"v{d}.txt", "w", encoding="utf-8") as fh:
                serialize_word_vectors(load_task(cfg.tasks[0], cfg, d)[1], fh, header=False)

    def test_missing_dim_file_fails_before_first_cell(self, tmp_path, monkeypatch):
        cfg = base_config(
            methods=[{"name": "file", "lexicon": str(tmp_path / "v{dim}.txt")}],
            output={"dir": str(tmp_path / "out")},
        )
        self.write_dim_files(tmp_path, cfg, [4, 8])
        monkeypatch.setattr(runner, "run_task", no_cell)
        with pytest.raises(ConfigError) as info:
            dim_sweep(cfg, [4, 8, 300])
        assert str(info.value) == f"method 'file': lexicon file not found: {tmp_path}/v300.txt"
        assert not os.path.exists(cfg.output_dir)

    def test_input_files_parsed_once_per_sweep(self, tmp_path, monkeypatch):
        freqs = tmp_path / "freq.txt"
        freqs.write_text("w0_0 5\nw1_0 3\n", encoding="utf-8")
        lex = str(tmp_path / "v{dim}.txt")
        cfg = base_config(
            methods=[
                {"name": "file-mean", "lexicon": lex},
                {"name": "file-sif", "strategy": "sif", "lexicon": lex,
                 "frequencies": str(freqs)},
            ],
            output={"dir": str(tmp_path / "out"), "formats": ["csv"]},
        )
        self.write_dim_files(tmp_path, cfg, [4, 8, 16])
        calls, tables, live = [], [], []

        def counting(loader):
            def load(stream, *args, **kwargs):
                calls.append(stream.name)
                if loader is load_word_vectors:  # one dim's word vectors at a time
                    gc.collect()
                    live.append(sum(ref() is not None for ref in tables))
                result = loader(stream, *args, **kwargs)
                tables.append(weakref.ref(result))
                return result
            return load

        for loader in (load_word_vectors, load_frequency_table):
            monkeypatch.setattr(runner, loader.__name__, counting(loader))
        assert len(dim_sweep(cfg, [4, 8, 16])) == 3
        assert sorted(calls) == sorted([str(freqs)] + [lex.format(dim=d) for d in (4, 8, 16)])
        assert live[1:] == [1, 1]  # only the frequency table outlives its dim

    def test_sweep_writes_per_dim_outputs_and_svg(self, tmp_path):
        cfg = base_config(
            output={"dir": str(tmp_path / "out"), "formats": ["csv", "svg"]},
        )
        matrices = dim_sweep(cfg, [4, 8])
        assert len(matrices) == 2
        files = os.listdir(cfg.output_dir)
        assert "results-dim4.csv" in files and "results-dim8.csv" in files
        assert "cls.svg" in files
        meta = json.load(open(os.path.join(cfg.output_dir, "run-metadata.json")))
        assert meta["dims"] == [4, 8]


class TestInputErrors:
    """Every kind of input file fails the same way: exit 1 and one error
    line that names the file, whether a line is malformed or a byte is not
    UTF-8, and whichever thread parses it."""

    IDS = [str(i) for i in range(20)] + [f"p{i}_{side}" for side in "AB" for i in range(20)]
    FILES = {
        "cls.tsv": "".join(f"{'ab'[i % 2]}\tw{i % 3} w{i % 5}\n" for i in range(20)),
        "pairs.tsv": TestByteOrderMark.PAIRS,
        "v.txt": "".join(f"w{i} {1 + i % 2} {1 + i % 3}\n" for i in range(5)),
        "s.tsv": "".join(f"{sid}\t{i % 3} {i % 2}\n" for i, sid in enumerate(IDS)),
        "f.txt": "#total 20\nw0 3\nw1 2\n",
    }
    MALFORMED = {
        "cfg.json": ("{\n\"tasks\": [,]\n}\n", "Expecting value: line 2 column 11"),
        "cls.tsv": ("a\tw0\nb\tw1\ttrain\textra\n", "line 2: too many columns (4)"),
        "pairs.tsv": (TestByteOrderMark.PAIRS.replace("\t3.0\t", "\tx\t", 1),
                      "line 4: non-numeric relatedness score"),
        "v.txt": ("w0 1 0\nw1 1 0 3\n", "line 2: expected 2 components, found 3"),
        "s.tsv": ("0\t1 0\n1\t1\n", "line 2: expected 2 components, found 1"),
        "f.txt": ("#total 20\nw0 3\nw1 21\n", "line 3: count 21 for 'w1' exceeds #total 20"),
    }

    def write_inputs(self, tmp_path):
        for name, text in self.FILES.items():
            (tmp_path / name).write_text(text, encoding="utf-8")
        doc = {
            "tasks": [{"name": "cls", "path": str(tmp_path / "cls.tsv")},
                      {"name": "pairs", "kind": "entailment", "path": str(tmp_path / "pairs.tsv")}],
            "methods": [{"name": "sif", "strategy": "sif", "lexicon": str(tmp_path / "v.txt"),
                         "frequencies": str(tmp_path / "f.txt")},
                        {"name": "pre", "sentence_vectors": str(tmp_path / "s.tsv")}],
            "output": {"dir": str(tmp_path / "out"), "formats": ["csv"]},
        }
        (tmp_path / "cfg.json").write_text(json.dumps(doc, indent=1), encoding="utf-8")
        return tmp_path / "cfg.json"

    def test_the_inputs_run(self, tmp_path, capsys):
        assert cli.main(["eval", "--config", str(self.write_inputs(tmp_path))]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("fault", ["malformed", "not-utf-8"])
    @pytest.mark.parametrize("name", list(MALFORMED))
    def test_bad_input_file_exit_1_naming_it(self, tmp_path, capsys, name, fault, workers):
        cfg_path = self.write_inputs(tmp_path)
        bad = tmp_path / name
        if fault == "malformed":
            text, message = self.MALFORMED[name]
            bad.write_text(text, encoding="utf-8")
        else:
            first, rest = bad.read_bytes().split(b"\n", 1)
            bad.write_bytes(first + b"\n\xe9" + rest)
            message = "not UTF-8 (byte 0xe9)"
        assert cli.main(["eval", "--config", str(cfg_path), "--workers", workers]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: ") and line.count(str(bad)) == 1
        assert f"{bad}: {message}" in line


class TestRunMetadata:
    def test_label_set_recorded_on_the_task_that_sets_it(self, tmp_path):
        p = tmp_path / "c.tsv"
        p.write_text("".join(f"{'ab'[i % 2]}\tw{i}\n" for i in range(20)), encoding="utf-8")
        cfg = base_config(tasks=[
            {"name": "file", "path": str(p), "label_set": ["b", "a"]},
            {"name": "file-plain", "path": str(p)},
            {"name": "cls", "synthetic": dict(SYN_CLS)},
            {"name": "rel", "kind": "relatedness", "synthetic": dict(SYN_REL)},
        ])
        file = {"kind": "classification", "path": str(p), "synthetic": None}
        assert runner.run_metadata(cfg)["tasks"] == [
            {"name": "file", **file, "label_set": ["b", "a"]},
            {"name": "file-plain", **file, "label_set": None},
            {"name": "cls", "kind": "classification", "path": None, "synthetic": SYN_CLS,
             "label_set": None},
            {"name": "rel", "kind": "relatedness", "path": None, "synthetic": SYN_REL,
             "label_set": None},
        ]

    def test_every_spec_key_recorded(self):
        """Each method and task is recorded with every key of its spec, so
        runs that differ only in a frequency file or a synthetic count write
        different metadata."""
        cfg = base_config(methods=[{"name": "s", "strategy": "sif", "lexicon": "synthetic",
                                    "frequencies": "f.txt"}])
        meta = runner.run_metadata(cfg)
        assert [list(m) for m in meta["methods"]] == [[f.name for f in fields(MethodSpec)]]
        assert [list(t) for t in meta["tasks"]] == [[f.name for f in fields(TaskSpec)]]
        assert (meta["methods"][0]["frequencies"], meta["tasks"][0]["synthetic"]) == (
            "f.txt", SYN_CLS)
        for changed in (
            base_config(methods=[{"name": "s", "strategy": "sif", "lexicon": "synthetic",
                                  "frequencies": "g.txt"}]),
            replace(cfg, tasks=(TaskSpec("cls", synthetic={**SYN_CLS, "items": 240}),)),
        ):
            assert runner.run_metadata(changed) != meta

    def test_label_set_order_shows_in_the_written_metadata(self, tmp_path):
        p = tmp_path / "c.tsv"
        p.write_text("".join(f"{'abc'[i % 3]}\tw{i % 5}\n" for i in range(30)),
                     encoding="utf-8")
        written = []
        for labels in (["a", "b", "c"], ["c", "a", "b"]):
            out = tmp_path / "-".join(labels)
            cfg = base_config(
                tasks=[{"name": "t", "path": str(p), "label_set": labels}],
                methods=[{"name": "m", "lexicon": "random", "dim": 4}],
                output={"dir": str(out), "formats": ["csv"]},
            )
            runner.run_and_write(cfg)
            written.append(json.loads((out / "run-metadata.json").read_text(encoding="utf-8")))
        assert [meta["tasks"][0]["label_set"] for meta in written] == [
            ["a", "b", "c"], ["c", "a", "b"]]


    def test_sif_a_only_on_methods_that_embed_with_sif(self):
        cfg = base_config(methods=[
            {"name": "pre", "sentence_vectors": "s.tsv"},
            {"name": "sif", "strategy": "sif", "lexicon": "synthetic", "sif_a": 0.01},
            {"name": "mean", "lexicon": "synthetic"},
            {"name": "raw", "lexicon": "synthetic", "normalize": False},
        ])
        assert [(m["strategy"], m["sif_a"], m["normalize"])
                for m in runner.run_metadata(cfg)["methods"]] == [
            ("precomputed", None, None), ("sif", 0.01, True), ("mean", None, True),
            ("mean", None, False)]


class TestValidate:
    def test_clean_config(self):
        assert validate_config(base_config()) == []

    @pytest.mark.parametrize("path, problem", [
        ("", "the path is empty"),
        ("afile", "not a directory: {afile}"),
        ("afile/sub/deeper", "not a directory: {afile}"),
        ("new/sub", None),
        (".", None),
    ])
    def test_output_dir_must_be_makeable(self, tmp_path, monkeypatch, path, problem):
        """The nearest existing ancestor of the output dir, the dir itself
        included, is a directory, so the run can make it."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "afile").write_text("", encoding="utf-8")
        cfg = base_config(output={"dir": path})
        want = [] if problem is None else [f"output.dir: {problem.format(afile='afile')}"]
        assert validate_config(cfg) == want

    def test_reports_all_missing_files(self, tmp_path):
        cfg = base_config(
            tasks=[{"name": "t", "kind": "classification", "path": str(tmp_path / "no.tsv")}],
            methods=[{"name": "m", "lexicon": str(tmp_path / "no.txt")}],
        )
        problems = validate_config(cfg)
        assert len(problems) == 2

    def test_sweep_plan_reports_each_problem_once(self, tmp_path):
        lex = str(tmp_path / "v{dim}.txt")
        freqs = str(tmp_path / "no-freq.txt")
        cfg = base_config(
            tasks=[{"name": "t", "path": str(tmp_path / "no.tsv")}],
            methods=[
                {"name": "a", "strategy": "sif", "lexicon": lex, "frequencies": freqs},
                {"name": "b", "strategy": "sif", "lexicon": lex, "frequencies": freqs},
                {"name": "pre", "sentence_vectors": str(tmp_path / "no.tsv")},
            ],
        )
        assert validate_config(cfg, [8, 4, 8, 0]) == [
            "sweep dim 8 is given 2 times",
            "sweep dim 0 is not positive",
            "method 'pre': sweep needs a parametric lexicon "
            "(random, synthetic, or a path template with {dim})",
            f"task 't': file not found: {tmp_path}/no.tsv",
            f"method 'a': lexicon file not found: {tmp_path}/v8.txt",
            f"method 'a': lexicon file not found: {tmp_path}/v4.txt",
            f"method 'a': lexicon file not found: {tmp_path}/v0.txt",
            f"method 'a': file not found: {freqs}",
        ]

    @pytest.mark.parametrize("dims", [None, [4], [4, 8, 16]])
    def test_a_run_checks_the_config_once_per_dim(self, tmp_path, monkeypatch, dims):
        """`plan` checks each run at its dim; a sweep is also checked at all
        its dims once, before its first dim runs."""
        calls = []

        def counting(cfg, dims=None):
            calls.append(dims)
            return validate_config(cfg, dims)

        monkeypatch.setattr(runner, "validate_config", counting)
        cfg = base_config(output={"dir": str(tmp_path / "out"), "formats": ["csv"]})
        runner.run_and_write(cfg, dims)
        assert calls == ([None] if dims is None else [dims, *([d] for d in dims)])


class TestCli:
    def write_config(self, tmp_path, out_dir, **extra):
        doc = {
            "seed": 11,
            "tasks": [{"name": "cls", "kind": "classification", "synthetic": dict(SYN_CLS)}],
            "methods": [{"name": "clustered-mean", "lexicon": "synthetic"}],
            "output": {"dir": str(out_dir), "formats": ["csv", "json", "md"]},
            **extra,
        }
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(doc), encoding="utf-8")
        return p

    def test_eval_writes_outputs(self, tmp_path, capsys):
        cfg_path = self.write_config(tmp_path, tmp_path / "out")
        assert cli.main(["eval", "--config", str(cfg_path)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("clustered-mean\tcls\t")
        for name in ("results.csv", "results.json", "results.md", "run-metadata.json"):
            assert (tmp_path / "out" / name).exists()

    def test_eval_rerun_byte_identical(self, tmp_path):
        # the second run writes over every file of the first, run-metadata.json included
        out = tmp_path / "out"
        cfg_path = self.write_config(tmp_path, out)
        assert cli.main(["eval", "--config", str(cfg_path), "--workers", "1"]) == 0
        first = {f.name: f.read_bytes() for f in out.iterdir()}
        assert sorted(first) == ["results.csv", "results.json", "results.md",
                                 "run-metadata.json"]
        assert cli.main(["eval", "--config", str(cfg_path), "--workers", "4"]) == 0
        assert {f.name: f.read_bytes() for f in out.iterdir()} == first

    def test_seed_and_format_flags_override_the_config(self, tmp_path, capsys):
        flagged = self.write_config(tmp_path, tmp_path / "flagged")
        assert cli.main(["eval", "--config", str(flagged), "--seed", "7", "--format", "csv"]) == 0
        assert sorted(os.listdir(tmp_path / "flagged")) == ["results.csv", "run-metadata.json"]
        keyed = self.write_config(tmp_path, tmp_path / "keyed", seed=7)
        assert cli.main(["eval", "--config", str(keyed)]) == 0
        for name in ("results.csv", "run-metadata.json"):
            assert (tmp_path / "flagged" / name).read_bytes() == \
                (tmp_path / "keyed" / name).read_bytes(), name

    def test_validate_ok(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)  # the bundled configs write to a relative dir
        bundled = os.path.join(os.path.dirname(TESTS_DIR), "configs")
        for cfg_path in (self.write_config(tmp_path, tmp_path / "out"),
                         os.path.join(bundled, "synthetic-eval.json"),
                         os.path.join(bundled, "synthetic-sweep.json")):
            assert cli.main(["validate", "--config", str(cfg_path)]) == 0, cfg_path
            assert "config ok" in capsys.readouterr().out, cfg_path
        assert os.listdir(tmp_path) == ["cfg.json"]

    def test_validate_missing_file_exit_1(self, tmp_path, capsys):
        doc = {
            "tasks": [{"name": "t", "kind": "classification", "path": "does-not-exist.tsv"}],
            "methods": [{"name": "m", "lexicon": "synthetic"}],
        }
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc), encoding="utf-8")
        assert cli.main(["validate", "--config", str(p)]) == 1
        assert "file not found" in capsys.readouterr().err

    def test_validate_reports_unknown_synthetic_key(self, tmp_path, capsys):
        doc = {
            "tasks": [{"name": "t", "kind": "relatedness", "synthetic": {"itmes": 7}}],
            "methods": [{"name": "m", "lexicon": "synthetic"}],
        }
        p = tmp_path / "typo.json"
        p.write_text(json.dumps(doc), encoding="utf-8")
        assert cli.main(["validate", "--config", str(p)]) == 1
        assert "unknown synthetic key(s): itmes" in capsys.readouterr().err

    def test_validate_reports_label_set_on_a_pair_task(self, tmp_path, capsys):
        doc = {
            "tasks": [{"name": "t", "kind": "entailment", "synthetic": {}, "label_set": ["x"]}],
            "methods": [{"name": "m", "lexicon": "synthetic"}],
        }
        p = tmp_path / "labels.json"
        p.write_text(json.dumps(doc), encoding="utf-8")
        assert cli.main(["validate", "--config", str(p)]) == 1
        assert "task 't': label_set" in capsys.readouterr().err

    def test_malformed_json_exit_1(self, tmp_path, capsys):
        p = tmp_path / "broken.json"
        p.write_text("{not json", encoding="utf-8")
        assert cli.main(["eval", "--config", str(p)]) == 1

    @pytest.mark.parametrize("text, key", [
        ('{"seed": 1, "seed": 2, "tasks": [{"name": "c", "synthetic": {}}],'
         ' "methods": [{"name": "m", "lexicon": "synthetic"}]}', "seed"),
        ('{"tasks": [{"name": "c", "synthetic": {"items": 200, "items": 100}}],'
         ' "methods": [{"name": "m", "lexicon": "synthetic"}]}', "items"),
        ('{"tasks": [{"name": "c", "synthetic": {}}],'
         ' "methods": [{"name": "m", "lexicon": "random", "dim": 4, "dim": 8}]}', "dim"),
    ], ids=["top-level", "synthetic", "method"])
    def test_duplicate_key_exit_1(self, tmp_path, capsys, monkeypatch, text, key):
        """``json.load`` alone would keep the last value without a word."""
        monkeypatch.chdir(tmp_path)  # the default output directory is "out"
        (tmp_path / "cfg.json").write_text(text, encoding="utf-8")
        for verb in ("validate", "eval"):
            assert cli.main([verb, "--config", "cfg.json"]) == 1, verb
            assert capsys.readouterr().err == f"error: cfg.json: duplicate key {key!r}\n", verb
        assert not (tmp_path / "out").exists()
        # a decoded dict holds each key once, and `parse_config` takes it as before
        assert isinstance(parse_config(json.loads(text)), RunConfig)

    @pytest.mark.skipif(sys.platform != "linux", reason="a file size limit that write() reports")
    @pytest.mark.parametrize("verb", ["eval", "embed"])
    def test_failed_write_leaves_the_previous_file(self, tmp_path, verb):
        """A write that fails part way, here at a 64-byte file size limit,
        leaves each output file as the previous run wrote it, whole, and
        leaves no temporary file behind."""
        cfg_path = self.write_config(tmp_path, tmp_path / "out")
        (tmp_path / "out").mkdir()
        args = {"eval": ["eval"],
                "embed": ["embed", "--task", "cls", "--method", "clustered-mean",
                          "--out", str(tmp_path / "out" / "v.tsv")]}[verb]
        assert cli.main([*args, "--config", str(cfg_path)]) == 0
        before = {f.name: f.read_bytes() for f in (tmp_path / "out").iterdir()}
        script = ("import resource, signal, sys\n"
                  "signal.signal(signal.SIGXFSZ, signal.SIG_IGN)\n"
                  "resource.setrlimit(resource.RLIMIT_FSIZE, (64, 64))\n"
                  "from sentbench import cli\n"
                  "sys.exit(cli.main(sys.argv[1:]))\n")
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        run = subprocess.run([sys.executable, "-c", script, *args, "--config", str(cfg_path),
                              "--seed", "12"], env=dict(os.environ, PYTHONPATH=src),
                             capture_output=True, text=True)
        assert run.returncode == 2 and run.stderr.startswith("runtime error: "), run.stderr
        assert {f.name: f.read_bytes() for f in (tmp_path / "out").iterdir()} == before
        assert max(map(len, before.values())) > 64

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    def test_embed_writes_a_named_pipe_in_place(self, tmp_path, capsys):
        """Only a regular file is replaced by a renamed temporary file: a pipe,
        as ``/dev/stdout`` may be, is written as it is."""
        cfg_path = self.write_config(tmp_path, tmp_path / "out")
        fifo = tmp_path / "v.fifo"
        os.mkfifo(fifo)
        read = []
        reader = threading.Thread(target=lambda: read.append(fifo.read_bytes()), daemon=True)
        reader.start()
        rc = cli.main(["embed", "--config", str(cfg_path), "--task", "cls",
                       "--method", "clustered-mean", "--out", str(fifo)])
        reader.join(timeout=30)
        assert rc == 0 and not reader.is_alive()
        assert read[0].count(b"\n") == SYN_CLS["items"]
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert sorted(os.listdir(tmp_path)) == ["cfg.json", "v.fifo"]

    @pytest.mark.skipif(not hasattr(os, "symlink"), reason="no symbolic links")
    def test_embed_writes_through_a_symlink(self, tmp_path):
        """A symbolic link, as ``/dev/stdout`` is, stays a link: its target,
        here in another directory, is written in place, and no temporary
        file is left in either directory."""
        cfg_path = self.write_config(tmp_path, tmp_path / "out")
        (tmp_path / "links").mkdir()
        (tmp_path / "files").mkdir()
        target, link = tmp_path / "files" / "v.tsv", tmp_path / "links" / "v.tsv"
        target.write_text("old\n", encoding="utf-8")
        link.symlink_to(target)
        rc = cli.main(["embed", "--config", str(cfg_path), "--task", "cls",
                       "--method", "clustered-mean", "--out", str(link)])
        assert rc == 0 and link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_bytes().count(b"\n") == SYN_CLS["items"]
        assert os.listdir(tmp_path / "links") == os.listdir(tmp_path / "files") == ["v.tsv"]

    def test_missing_config_exit_1(self, tmp_path):
        assert cli.main(["eval", "--config", str(tmp_path / "nope.json")]) == 1

    def test_sweep_and_embed(self, tmp_path, capsys):
        cfg_path = self.write_config(tmp_path, tmp_path / "out")
        assert cli.main(["sweep", "--config", str(cfg_path), "--dims", "4,8"]) == 0
        assert (tmp_path / "out" / "results-dim4.csv").exists()
        # a one-dim plot: its x range is one value, whose point sits at the centre
        assert cli.main(["sweep", "--config", str(cfg_path), "--dims", "16",
                         "--format", "svg", "--out", str(tmp_path / "one")]) == 0
        svg = ET.parse(tmp_path / "one" / "cls.svg").getroot()
        assert [c.get("cx") for c in svg.iter("{http://www.w3.org/2000/svg}circle")] == ["255.0"]
        vec_path = tmp_path / "vecs.tsv"
        assert cli.main([
            "embed", "--config", str(cfg_path),
            "--task", "cls", "--method", "clustered-mean", "--out", str(vec_path),
        ]) == 0
        assert load_sentence_vector_table(open(vec_path, encoding="utf-8")).dim == 8

    def test_bad_dims_exit_1(self, tmp_path, capsys):
        cfg_path = self.write_config(tmp_path, tmp_path / "out")
        for dims in ("4,x", "4,", "4,,16", ""):  # an empty element is no dim, as in --format
            assert cli.main(["sweep", "--config", str(cfg_path), "--dims", dims]) == 1
            assert capsys.readouterr().err == (
                f"error: --dims: not a comma-separated list of integers: {dims!r}\n"), dims
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("dims, message", [
        ("4,4", "error: sweep dim 4 is given 2 times"),
        ("4,-4", "error: sweep dim -4 is not positive"),
        ("0", "error: sweep dim 0 is not positive"),
    ])
    def test_repeated_or_non_positive_dim_exit_1(self, tmp_path, capsys, dims, message):
        cfg_path = self.write_config(tmp_path, tmp_path / "out")
        assert cli.main(["sweep", "--config", str(cfg_path), "--dims", dims]) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_eval_reports_each_problem_on_its_own_line(self, tmp_path, capsys):
        doc = {"tasks": [{"name": "t", "path": str(tmp_path / "no.tsv")}],
               "methods": [{"name": "m", "lexicon": str(tmp_path / "no.txt")}]}
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(doc), encoding="utf-8")
        assert cli.main(["eval", "--config", str(p)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: task 't': file not found: {tmp_path}/no.tsv",
            f"error: method 'm': lexicon file not found: {tmp_path}/no.txt",
        ]

    def run_file_task(self, tmp_path, capsys, verb, method, rows=40, args=()):
        task_file = tmp_path / "cls.tsv"
        task_file.write_text("".join(f"{'ab'[i % 2]}\tw{i % 3}\n" for i in range(rows)),
                             encoding="utf-8")
        doc = {"tasks": [{"name": "file-cls", "path": str(task_file)}],
               "methods": [{"name": "m", **method}],
               "output": {"dir": str(tmp_path / "out")}}
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(doc), encoding="utf-8")
        rc = cli.main([verb, "--config", str(p), *args])
        return rc, capsys.readouterr().err

    def test_synthetic_lexicon_with_file_task_exit_1(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(runner, "load_task", no_cell)
        message = ("method 'm': lexicon 'synthetic' only works with synthetic tasks, "
                   "not file task(s) 'file-cls'")
        embed = ["--task", "file-cls", "--method", "m", "--out", str(tmp_path / "v.tsv")]
        for verb, args in [("validate", []), ("eval", []), ("embed", embed)]:
            rc, err = self.run_file_task(tmp_path, capsys, verb, {"lexicon": "synthetic"},
                                         args=args)
            assert (rc, err) == (1, f"error: {message}\n"), verb
        assert not (tmp_path / "out").exists() and not (tmp_path / "v.tsv").exists()
        # a library call meets the rule in `plan`, before a task loads, not in a cell
        cfg = base_config(tasks=[{"name": "file-cls", "path": str(tmp_path / "cls.tsv")}],
                          methods=[{"name": "m", "lexicon": "synthetic"}])
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            run_matrix(cfg)

    def test_dim_template_under_eval_exit_1(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(tasks, "load_classification_tsv", no_cell)
        embed = ["--task", "file-cls", "--method", "m", "--out", str(tmp_path / "v.tsv")]
        for verb, args in [("eval", []), ("validate", []), ("embed", embed)]:
            rc, err = self.run_file_task(tmp_path, capsys, verb, {"lexicon": "v{dim}.txt"},
                                         args=args)
            assert rc == 1, verb
            assert err == "error: method 'm': lexicon template needs a sweep dim\n", verb

    def test_unknown_format_flag_names_the_flag(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(runner, "load_task", no_cell)
        for value, unknown in [("csv,xlsx", "xlsx"), ("", "")]:  # an empty value is a value
            for verb, args in [("eval", []), ("sweep", ["--dims", "4"])]:
                rc, err = self.run_file_task(tmp_path, capsys, verb,
                                             {"lexicon": "random", "dim": 4},
                                             args=["--format", value, *args])
                assert (rc, err) == (1, f"error: --format: unknown format {unknown!r}\n"), verb
        assert not (tmp_path / "out").exists()

    def test_svg_format_flag_is_refused_by_eval(self, tmp_path, capsys, monkeypatch):
        # only sweep draws plots, so eval would write none of them
        monkeypatch.setattr(runner, "load_task", no_cell)
        for value in ["svg", "csv,svg"]:
            rc, err = self.run_file_task(tmp_path, capsys, "eval", {"lexicon": "random", "dim": 4},
                                         args=["--format", value])
            assert (rc, err) == (1, "error: --format: svg is only written by sweep\n"), value
        assert not (tmp_path / "out").exists()

    def test_svg_in_config_formats_runs_under_eval_and_validate(self, tmp_path, capsys):
        # one config serves every verb: eval and validate accept svg in output.formats
        doc = {"tasks": [{"name": "cls", "synthetic": dict(SYN_CLS)}],
               "methods": [{"name": "m", "lexicon": "random", "dim": 4}],
               "output": {"dir": str(tmp_path / "out"), "formats": ["csv", "svg"]}}
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(doc), encoding="utf-8")
        for verb in ("validate", "eval"):
            assert cli.main([verb, "--config", str(p)]) == 0, verb
        assert capsys.readouterr().err == ""
        assert sorted(os.listdir(tmp_path / "out")) == ["results.csv", "run-metadata.json"]

    def test_sif_frequency_file_with_whitespace_only_lines(self, tmp_path, capsys):
        lex, freqs = tmp_path / "v.txt", tmp_path / "freq.txt"
        lex.write_text("w0 1 0\nw1 0 1\nw2 1 1\n", encoding="utf-8")
        freqs.write_text("   \nw0 5\n\t\nw1 3\n", encoding="utf-8")
        method = {"strategy": "sif", "lexicon": str(lex), "frequencies": str(freqs)}
        rc, err = self.run_file_task(tmp_path, capsys, "eval", method)
        assert (rc, err) == (0, "")

    @pytest.mark.parametrize("method, message", [
        ({"strategy": "sif", "lexicon": "random", "dim": 4, "sif_a": -1},
         "error: method 'm': sif_a must be a positive number, not -1\n"),
        ({"strategy": "sif", "lexicon": "random", "dim": 4, "sif_a": "1e-3"},
         "error: method 'm': sif_a must be a number, not '1e-3'\n"),
        ({"lexicon": "random", "dim": 4, "frequencies": "freq.txt"},
         "error: method 'm': frequencies is only for sif methods, not strategy 'mean'\n"),
        ({"lexicon": "random", "dim": 4, "sif_a": 0.01},
         "error: method 'm': sif_a is only for sif methods, not strategy 'mean'\n"),
    ], ids=["negative-sif_a", "string-sif_a", "frequencies-on-mean", "sif_a-on-mean"])
    def test_sif_option_errors_exit_1_before_a_task_loads(
        self, tmp_path, capsys, monkeypatch, method, message
    ):
        monkeypatch.setattr(runner, "load_task", no_cell)
        embed = ["--task", "file-cls", "--method", "m", "--out", str(tmp_path / "v.tsv")]
        for verb, args in [("validate", []), ("eval", []), ("sweep", ["--dims", "4"]),
                           ("embed", embed)]:
            rc, err = self.run_file_task(tmp_path, capsys, verb, method, args=args)
            assert (rc, err) == (1, message), verb
        assert not (tmp_path / "out").exists() and not (tmp_path / "v.tsv").exists()

    @pytest.mark.parametrize("learning_rate", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_learning_rate_exit_1_before_a_task_loads(
        self, tmp_path, capsys, monkeypatch, learning_rate
    ):
        monkeypatch.setattr(runner, "load_task", no_cell)
        cfg_path = self.write_config(tmp_path, tmp_path / "out",
                                     probe={"learning_rate": learning_rate})
        for verb in ("validate", "eval"):
            assert cli.main([verb, "--config", str(cfg_path)]) == 1, verb
            assert capsys.readouterr().err == (
                f"error: probe: learning_rate must be a number, not {learning_rate!r}\n"), verb
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("extra, message", [
        ({"methods": [{"name": "m", "lexicon": "random", "dim": 4.5}]},
         "method 'm': dim must be an integer or null, not 4.5"),
        ({"probe": {"epochs": 1.5}}, "probe: epochs must be an integer, not 1.5"),
        ({"methods": [{"name": 7, "lexicon": "synthetic"}]}, "method 7: name must be a string, not 7"),
        ({"seed": "1"}, "config: seed must be an integer, not '1'"),
        ({"methods": [{"name": "m", "lexicon": "synthetic", "normalize": "no"}]},
         "method 'm': normalize must be a boolean or null, not 'no'"),
        ({"probe": {"hidden_units": True}}, "probe: hidden_units must be an integer, not True"),
        ({"split_ratios": [0.8, 0.2], "tasks": [{"name": "t", "path": "t.tsv"}]},
         "config: split_ratios must be an array of 3 numbers, not [0.8, 0.2]"),
        ({"tasks": [{"name": "t", "path": 0}]}, "task 't': path must be a string or null, not 0"),
        ({"output": {"formats": "csv"}},
         "config: output.formats must be an array of strings, not 'csv'"),
        ({"output": {"dir": 3}}, "config: output.dir must be a string, not 3"),
        ({"tasks": [{"name": "t", "synthetic": {"items": "200"}}]},
         "task 't': synthetic items must be an integer, not '200'"),
        ({"tasks": [{"name": "t", "path": TESTS_DIR}],
          "methods": [{"name": "m", "lexicon": "random", "dim": 4}]},
         f"task 't': file not found: {TESTS_DIR}"),
        ({"split_ratios": [0.8, 0.1, 0.1]},
         "config: split_ratios is only for file tasks, not synthetic ones"),
        ({"methods": [{"name": "m", "sentence_vectors": "s.tsv", "normalize": False}]},
         "method 'm': normalize is only for lexicon methods"),
        ({"methods": [{"name": "m", "sentence_vectors": "s.tsv", "strategy": "sif"}]},
         "method 'm': strategy is only for lexicon methods"),
        ({"split_ratios": [0.5, 0.5, 0.5], "tasks": [{"name": "t", "path": "t.tsv"}]},
         "config: split_ratios must be nonnegative and sum to 1, not [0.5, 0.5, 0.5]"),
        ({"split_ratios": [1.5, -0.5, 0], "tasks": [{"name": "t", "path": "t.tsv"}]},
         "config: split_ratios must be nonnegative and sum to 1, not [1.5, -0.5, 0]"),
        ({"probe": {"seed": 1}}, "probe: unknown key(s): seed"),
        ({"probe": {"name": 3}}, "probe: unknown key(s): name"),
        ({"name": "run"}, "config: unknown key(s): name"),
        ({"probe": {"epochs": 0}}, "probe: hidden_units, epochs and batch_size must be positive"),
    ], ids=["float-dim", "float-epochs", "int-name", "string-seed", "string-normalize",
            "bool-hidden_units", "short-split_ratios", "int-path", "string-formats", "int-dir",
            "string-synthetic-items", "directory-path", "synthetic-split_ratios",
            "precomputed-normalize", "precomputed-strategy", "split_ratios-sum",
            "negative-split_ratios", "probe-seed", "probe-name", "top-level-name",
            "zero-epochs"])
    def test_bad_config_value_exit_1_before_a_task_loads(
        self, tmp_path, capsys, monkeypatch, extra, message
    ):
        monkeypatch.setattr(runner, "load_task", no_cell)
        out = tmp_path / "out"
        doc = {
            "tasks": [{"name": "cls", "synthetic": dict(SYN_CLS)}],
            "methods": [{"name": "m", "lexicon": "synthetic"}],
            **extra,
            "output": {"dir": str(out), **extra.get("output", {})},
        }
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(doc), encoding="utf-8")
        for verb in ("validate", "eval"):
            assert cli.main([verb, "--config", str(p)]) == 1, verb
            assert capsys.readouterr().err == f"error: {message}\n", verb
        assert not list(tmp_path.glob("out/results.*"))

    @pytest.mark.parametrize("extra, message", [
        ({"tasks": ["t"]}, "task: must be an object, not 't'"),
        ({"tasks": [{"synthetic": {}}]}, "task: missing key(s): name"),
        ({"methods": [{"lexicon": "synthetic"}]}, "method: missing key(s): name"),
        ({"probe": None}, "probe: must be an object, not None"),
        ({"output": []}, "output: must be an object, not []"),
        ({"sed": 1}, "config: unknown key(s): sed"),
        ({"output": {"format": ["csv"]}}, "config: unknown key(s): output.format"),
        ({"methods": "m"}, "config: methods must be an array of objects, not 'm'"),
    ], ids=["string-task", "nameless-task", "nameless-method", "null-probe",
            "list-output", "unknown-top-level", "unknown-output", "string-methods"])
    def test_malformed_block_exit_1_naming_it(self, tmp_path, capsys, monkeypatch, extra,
                                              message):
        monkeypatch.setattr(runner, "load_task", no_cell)
        monkeypatch.chdir(tmp_path)  # the default output directory is "out"
        doc = {"tasks": [{"name": "cls", "synthetic": dict(SYN_CLS)}],
               "methods": [{"name": "m", "lexicon": "synthetic"}], **extra}
        (tmp_path / "cfg.json").write_text(json.dumps(doc), encoding="utf-8")
        for verb in ("validate", "eval"):
            assert cli.main([verb, "--config", "cfg.json"]) == 1, verb
            assert capsys.readouterr().err == f"error: {message}\n", verb
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("extra, message", [
        ({"seed": -1}, "task 'cls': expected non-negative integer"),
        ({"tasks": [{"name": "cls", "synthetic": {"items": 4}}]},
         "task 'cls': ratios (0.8, 0.1, 0.1) leave the test split empty for 4 items"),
        ({"tasks": [{"name": "cls", "kind": "relatedness", "synthetic": {"pairs": 10}}]},
         "task 'cls': the 1 item(s) of its test split all score 1.3: "
         "Pearson's r needs 2 different scores"),
    ], ids=["negative-seed", "too-few-items", "too-few-pairs"])
    def test_validate_loads_every_task(self, tmp_path, capsys, extra, message):
        doc = {"tasks": [{"name": "cls", "synthetic": {}}],
               "methods": [{"name": "m", "lexicon": "synthetic"}], **extra}
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(doc), encoding="utf-8")
        for verb in ("validate", "eval"):
            assert cli.main([verb, "--config", str(p)]) == 1, verb
            assert capsys.readouterr().err == f"error: {message}\n", verb

    def test_validate_runs_no_cell_and_reads_no_vectors(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(runner, "run_task", no_cell)
        monkeypatch.setattr(runner, "sentence_matrix", no_cell)
        monkeypatch.setattr(runner, "load_word_vectors", no_cell)
        lex = tmp_path / "v.txt"
        lex.write_text("w0 1 0\n", encoding="utf-8")
        rc, err = self.run_file_task(tmp_path, capsys, "validate", {"lexicon": str(lex)})
        assert (rc, err) == (0, "")
        rc, err = self.run_file_task(tmp_path, capsys, "validate", {"lexicon": str(lex)}, rows=5)
        assert rc == 1
        assert err == "error: task 'file-cls': ratios (0.8, 0.1, 0.1) leave the test split empty " \
                      "for 5 items\n"

    @pytest.mark.parametrize("template", ["v-{dim}-{x}.txt", "v{dim}}.txt", "v{{dim}}.txt"])
    def test_lexicon_template_with_other_braces(self, tmp_path, capsys, template):
        lex = tmp_path / template.replace("{dim}", "4")
        lex.write_text("".join(f"w{i} {i} 1 0 1\n" for i in range(3)), encoding="utf-8")
        sweep = ["--dims", "4", "--out", str(tmp_path / "out")]
        method = {"lexicon": str(tmp_path / template)}
        rc, err = self.run_file_task(tmp_path, capsys, "sweep", method, args=sweep)
        assert (rc, err) == (0, "")
        lex.unlink()
        rc, err = self.run_file_task(tmp_path, capsys, "sweep", method, args=sweep)
        assert (rc, err) == (1, f"error: method 'm': lexicon file not found: {lex}\n")

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_exit_1(self, tmp_path, capsys, workers):
        cfg_path = self.write_config(tmp_path, tmp_path / "out")
        for argv in (["eval"], ["sweep", "--dims", "4"]):
            assert cli.main([*argv, "--config", str(cfg_path), "--workers", workers]) == 1
            assert capsys.readouterr().err == "error: --workers must be at least 1\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text, message", [
        ("w0 1 x\n", "line 1: non-numeric"),
        ("3 2\nw0 1 0\n", "header announces 3"),
    ])
    def test_malformed_word_vector_file_exit_1(self, tmp_path, capsys, text, message):
        lex = tmp_path / "v.txt"
        lex.write_text(text, encoding="utf-8")
        rc, err = self.run_file_task(tmp_path, capsys, "eval", {"lexicon": str(lex)})
        assert rc == 1
        assert "cell (method='m', task='file-cls')" in err and message in err

    @pytest.mark.parametrize("method", [
        {"lexicon": "v{dim}.txt"},  # a config error
        {"lexicon": "bad.txt"},  # a malformed word-vector file
    ])
    def test_embed_error_leaves_out_file_untouched(self, tmp_path, capsys, method):
        (tmp_path / "bad.txt").write_text("w0 1 0\nw1 1 x\n", encoding="utf-8")
        out = tmp_path / "v.tsv"
        out.write_text("keep me\n", encoding="utf-8")
        method = {"lexicon": str(tmp_path / method["lexicon"])}
        embed = ["--task", "file-cls", "--method", "m", "--out", str(out)]
        rc, err = self.run_file_task(tmp_path, capsys, "embed", method, args=embed)
        assert rc == 1 and err.startswith("error: ")
        assert out.read_text(encoding="utf-8") == "keep me\n"

    def test_task_too_small_to_split_exit_1(self, tmp_path, capsys):
        rc, err = self.run_file_task(tmp_path, capsys, "eval", {"lexicon": "random", "dim": 4},
                                     rows=5)
        assert rc == 1
        assert "error: task 'file-cls': ratios (0.8, 0.1, 0.1) leave the test split empty" in err

    def test_runtime_failure_in_a_cell_still_exit_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(runner.probe, "train_classifier", self.diverge)
        rc, err = self.run_file_task(tmp_path, capsys, "eval", {"lexicon": "random", "dim": 4})
        assert rc == 2
        assert "runtime error: cell (method='m', task='file-cls')" in err

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("fault", ["config", "input", "runtime"])
    def test_cell_fault_exit_code_at_any_worker_count(
        self, tmp_path, capsys, monkeypatch, fault, workers
    ):
        vectors = tmp_path / "s.tsv"  # sentence ids 0-19 of the task's 40
        vectors.write_text("".join(f"{i}\t1 {i % 3}\n" for i in range(20)), encoding="utf-8")
        lex = tmp_path / "v.txt"
        lex.write_text("w0 1 0\nw1 1 x\n", encoding="utf-8")
        method, rc, message = {
            "config": ({"sentence_vectors": str(vectors)}, 1,
                       f"error: {{cell}}method 'm': sentence id '20' missing from {vectors}"),
            "input": ({"lexicon": str(lex)}, 1, f"error: {{cell}}{lex}: line 2: non-numeric"),
            "runtime": ({"lexicon": "random", "dim": 4}, 2,
                        "runtime error: {cell}probe loss is not finite"),
        }[fault]
        monkeypatch.setattr(runner.probe, "train_classifier", self.diverge)
        result = self.run_file_task(tmp_path, capsys, "eval", method, args=["--workers", workers])
        assert result[0] == rc
        (line,) = result[1].splitlines()
        assert line.startswith(message.format(cell="cell (method='m', task='file-cls') failed: "))

    @pytest.mark.parametrize("kind", ["entailment", "relatedness"])
    def test_non_finite_test_row_features_exit_2(self, tmp_path, capsys, kind):
        """Only the test rows' ``u * v`` overflow: the cell fails as a
        non-finite train row does, not with a score from NaN features."""
        pairs = tmp_path / "pairs.tsv"
        rows = ["pair_ID\tsentence_A\tsentence_B\trelatedness_score\tentailment_judgment"
                "\tSemEval_set"]
        vectors = []
        for i in range(40):
            split = "TRAIN" if i < 30 else "TRIAL" if i < 35 else "TEST"
            rows.append(f"{i}\ta b\tb c\t{1 + i % 5}\t{tasks.ENTAILMENT_LABELS[i % 3]}\t{split}")
            value = "1e200" if split == "TEST" else f"{i % 7}"
            vectors += [f"{i}_A\t{value} 1 {i % 3}\n", f"{i}_B\t{value} 0 1\n"]
        pairs.write_text("\n".join(rows) + "\n", encoding="utf-8")
        (tmp_path / "s.tsv").write_text("".join(vectors), encoding="utf-8")
        doc = {"tasks": [{"name": "p", "kind": kind, "path": str(pairs)}],
               "methods": [{"name": "pre", "sentence_vectors": str(tmp_path / "s.tsv")}],
               "output": {"dir": str(tmp_path / "out")}}
        (tmp_path / "cfg.json").write_text(json.dumps(doc), encoding="utf-8")
        with np.errstate(over="ignore"):
            rc = cli.main(["eval", "--config", str(tmp_path / "cfg.json")])
        assert (rc, capsys.readouterr().err) == (
            2, "runtime error: cell (method='pre', task='p') failed: non-finite features\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("kind", ["entailment", "relatedness"])
    def test_overflowing_pair_features_print_one_line(self, tmp_path, capsys, kind):
        """The ``u * v`` overflow of the TEST rows raises no NumPy warning, so
        the one error line is all that stderr holds."""
        pairs = tmp_path / "pairs.tsv"
        rows = [f"{PAIR_HEADER}\tSemEval_set"]
        vectors = []
        for i in range(40):
            split = "TRAIN" if i < 30 else "TRIAL" if i < 35 else "TEST"
            rows.append(f"{i}\ta b\tb c\t{1 + i % 5}\t{tasks.ENTAILMENT_LABELS[i % 3]}\t{split}")
            value = "1e200" if split == "TEST" else f"{i % 7}"
            vectors += [f"{i}_A\t{value} 1\n", f"{i}_B\t{value} 0\n"]
        pairs.write_text("\n".join(rows) + "\n", encoding="utf-8")
        (tmp_path / "s.tsv").write_text("".join(vectors), encoding="utf-8")
        doc = {"tasks": [{"name": "p", "kind": kind, "path": str(pairs)}],
               "methods": [{"name": "pre", "sentence_vectors": str(tmp_path / "s.tsv")}]}
        (tmp_path / "cfg.json").write_text(json.dumps(doc), encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = cli.main(["eval", "--config", str(tmp_path / "cfg.json"),
                           "--out", str(tmp_path / "out")])
        assert (rc, capsys.readouterr().err) == (
            2, "runtime error: cell (method='pre', task='p') failed: non-finite features\n")

    @pytest.mark.parametrize("out", ["nodir/x.tsv", "afile/x.tsv", "dir", ""])
    def test_embed_out_checked_before_any_task_loads(self, tmp_path, capsys, monkeypatch, out):
        (tmp_path / "dir").mkdir()
        (tmp_path / "afile").write_text("", encoding="utf-8")
        monkeypatch.setattr(runner, "load_task", no_cell)
        path = str(tmp_path / out) if out else ""
        fault = {"dir": f"is a directory: {path}",
                 "nodir/x.tsv": f"no such directory: {tmp_path / 'nodir'}",
                 "afile/x.tsv": f"not a directory: {tmp_path / 'afile'}",
                 "": "the path is empty"}[out]
        verbs = [("embed", ["--task", "file-cls", "--method", "m"])]
        if not out:  # every verb with --out refuses an empty one, not only embed
            verbs += [("eval", []), ("sweep", ["--dims", "4"])]
        for verb, args in verbs:
            rc, err = self.run_file_task(tmp_path, capsys, verb, {"lexicon": "random", "dim": 4},
                                         args=[*args, "--out", path])
            assert (rc, err) == (1, f"error: --out: {fault}\n"), verb
        assert sorted(p.name for p in tmp_path.iterdir()) == ["afile", "cfg.json", "cls.tsv", "dir"]
        assert not any((tmp_path / "dir").iterdir())
        assert (tmp_path / "afile").read_text(encoding="utf-8") == ""

    @pytest.mark.parametrize("flag, path, fault", [
        ("--out", "afile", "not a directory: {afile}"),
        ("--out", "afile/sub", "not a directory: {afile}"),
        ("output.dir", "", "the path is empty"),
        ("output.dir", "afile", "not a directory: {afile}"),
        ("output.dir", "afile/sub", "not a directory: {afile}"),
    ])
    def test_output_dir_checked_before_any_task_loads(self, tmp_path, capsys, monkeypatch,
                                                      flag, path, fault):
        """An output dir that cannot be made, from the flag or the config key,
        exits 1 before any task loads, not 2 once every cell has run."""
        (tmp_path / "afile").write_text("kept\n", encoding="utf-8")
        (tmp_path / "cls.tsv").write_text("a\tw0\n", encoding="utf-8")
        monkeypatch.setattr(runner, "load_task", no_cell)
        out = str(tmp_path / path) if path else ""
        doc = {"tasks": [{"name": "file-cls", "path": str(tmp_path / "cls.tsv")}],
               "methods": [{"name": "m", "lexicon": "random", "dim": 4}]}
        if flag == "output.dir":
            doc["output"] = {"dir": out}
        (tmp_path / "cfg.json").write_text(json.dumps(doc), encoding="utf-8")
        verbs = [["eval"], ["sweep", "--dims", "4"]]
        if flag == "output.dir":  # a config that `eval` refuses is refused by every verb
            verbs += [["validate"], ["embed", "--task", "file-cls", "--method", "m",
                                     "--out", str(tmp_path / "e.tsv")]]
        for verb in verbs:
            flags = ["--out", out] if flag == "--out" else []
            rc = cli.main([*verb, "--config", str(tmp_path / "cfg.json"), *flags])
            assert (rc, capsys.readouterr().err) == (
                1, f"error: {flag}: {fault.format(afile=tmp_path / 'afile')}\n"), verb
        assert sorted(p.name for p in tmp_path.iterdir()) == ["afile", "cfg.json", "cls.tsv"]
        assert (tmp_path / "afile").read_text(encoding="utf-8") == "kept\n"

    @staticmethod
    def diverge(*args, **kwargs):
        raise ProbeDivergedError("probe loss is not finite")

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_used_zero_word_vector_exit_1_naming_file_and_word(self, tmp_path, capsys, workers):
        lex = tmp_path / "v.txt"
        lex.write_text("w0 1 0\nw1 0 0\nw2 1 1\n", encoding="utf-8")
        fault = f"{lex}: cannot normalize the zero vector of word 'w1'"
        rc, err = self.run_file_task(tmp_path, capsys, "eval", {"lexicon": str(lex)},
                                     args=["--workers", workers])
        assert (rc, err) == (1, f"error: cell (method='m', task='file-cls') failed: {fault}\n")
        embed = ["--task", "file-cls", "--method", "m", "--out", str(tmp_path / "e.tsv")]
        rc, err = self.run_file_task(tmp_path, capsys, "embed", {"lexicon": str(lex)}, args=embed)
        assert (rc, err) == (1, f"error: {fault}\n")
        assert not (tmp_path / "out").exists() and not (tmp_path / "e.tsv").exists()

    @pytest.mark.parametrize("strategy", ["mean", "sif", "mean_max"])
    def test_lexicon_with_none_of_the_task_words_exit_1(self, tmp_path, capsys, strategy):
        lex = tmp_path / "v.txt"
        lex.write_text("zz 1 0\nyy 0 1\n", encoding="utf-8")
        method = {"strategy": strategy, "lexicon": str(lex)}
        fault = f"method 'm': lexicon {lex} holds no word of task 'file-cls' in its train split"
        for workers in ("1", "2"):
            rc, err = self.run_file_task(tmp_path, capsys, "eval", method,
                                         args=["--workers", workers])
            assert (rc, err) == (1, f"error: cell (method='m', task='file-cls') failed: {fault}\n")
        embed = ["--task", "file-cls", "--method", "m", "--out", str(tmp_path / "e.tsv")]
        rc, err = self.run_file_task(tmp_path, capsys, "embed", method, args=embed)
        assert (rc, err) == (1, f"error: {fault}\n")
        assert not (tmp_path / "out").exists() and not (tmp_path / "e.tsv").exists()

    @pytest.mark.parametrize("strategy", ["mean", "sif", "mean_max"])
    def test_lexicon_with_none_of_the_train_words_exit_1(self, tmp_path, capsys, strategy):
        task_file, lex = tmp_path / "cls.tsv", tmp_path / "v.txt"
        train = [f"{'ab'[i % 2]}\tx{i % 2}\ttrain\n" for i in range(30)]
        held_out = [f"{'ab'[i % 2]}\tw{i % 2}\t{('dev', 'test')[i % 2]}\n" for i in range(10)]
        task_file.write_text("".join(train + held_out), encoding="utf-8")
        lex.write_text("w0 1 0\nw1 0 1\n", encoding="utf-8")
        doc = {"tasks": [{"name": "t", "path": str(task_file)}],
               "methods": [{"name": "r", "lexicon": "random", "dim": 4},
                           {"name": "m", "strategy": strategy, "lexicon": str(lex)}],
               "output": {"dir": str(tmp_path / "out")}}
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(doc), encoding="utf-8")
        fault = f"method 'm': lexicon {lex} holds no word of task 't' in its train split"
        for workers in ("1", "2"):  # at 2 the cell runs in the forked worker
            rc = cli.main(["eval", "--config", str(p), "--workers", workers])
            assert (rc, capsys.readouterr().err) == (
                1, f"error: cell (method='m', task='t') failed: {fault}\n"), workers
        embed = ["--task", "t", "--method", "m", "--out", str(tmp_path / "e.tsv")]
        assert cli.main(["embed", "--config", str(p), *embed]) == 1
        assert capsys.readouterr().err == f"error: {fault}\n"
        assert not (tmp_path / "out").exists() and not (tmp_path / "e.tsv").exists()

    def run_cells(self, tmp_path, capsys, method_b, workers):
        """(exit code, stderr) of `eval` at each worker count on a 2 x 2
        matrix: cells (a, rel), (a, file-cls), (b, rel), (b, file-cls) in
        that order, with the keys of method b given by ``method_b``."""
        task_file = tmp_path / "cls.tsv"
        task_file.write_text("".join(f"{'ab'[i % 2]}\tw{i % 3}\n" for i in range(40)),
                             encoding="utf-8")
        doc = {"tasks": [{"name": "rel", "kind": "relatedness", "synthetic": dict(SYN_REL)},
                         {"name": "file-cls", "path": str(task_file)}],
               "methods": [{"name": "a", "lexicon": "random", "dim": 4}, {"name": "b", **method_b}]}
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(doc), encoding="utf-8")
        results = {}
        for w in workers:
            out = ["--out", str(tmp_path / f"out-w{w}")]
            results[w] = cli.main(["eval", "--config", str(p), "--workers", w, *out]), \
                capsys.readouterr().err
        return results

    @pytest.mark.parametrize("fault, rc, line", [
        ("config", 1, "error: cell (method='b', task='rel') failed: method 'b': sentence id "),
        ("input", 1, "error: cell (method='b', task='rel') failed: {dir}/bad.txt: line 2: "
                     "non-numeric"),
        ("coverage", 1, "error: cell (method='b', task='rel') failed: method 'b': lexicon "
                        "{dir}/none.txt holds no word of task 'rel'"),
        ("runtime", 2, "runtime error: cell (method='a', task='file-cls') failed: "
                       "probe loss is not finite"),
        ("runtime-before-input", 2, "runtime error: cell (method='a', task='file-cls') failed: "
                                    "probe loss is not finite"),
    ])
    def test_lowest_cell_fault_wins_at_any_worker_count(
        self, tmp_path, capsys, monkeypatch, fault, rc, line
    ):
        (tmp_path / "s.tsv").write_text("".join(f"{i}\t1 {i % 3}\n" for i in range(40)),
                                        encoding="utf-8")
        (tmp_path / "bad.txt").write_text("w0 1 0\nw1 1 x\n", encoding="utf-8")
        (tmp_path / "none.txt").write_text("zz 1 0\nyy 0 1\n", encoding="utf-8")
        method = {"config": {"sentence_vectors": str(tmp_path / "s.tsv")},
                  "input": {"lexicon": str(tmp_path / "bad.txt")},
                  "coverage": {"lexicon": str(tmp_path / "none.txt")},
                  "runtime": {"lexicon": "random", "dim": 4},
                  "runtime-before-input": {"lexicon": str(tmp_path / "bad.txt")}}[fault]
        if fault.startswith("runtime"):
            monkeypatch.setattr(runner.probe, "train_classifier", self.diverge)
        results = self.run_cells(tmp_path, capsys, method, ["1", "2", "4"])
        assert len(set(results.values())) == 1, results
        code, err = results["1"]
        assert code == rc
        (first,) = err.splitlines()
        assert first.startswith(line.format(dir=tmp_path))
        assert not (tmp_path / "out-w1").exists()

    def test_killed_worker_exit_2_naming_its_cell(self, tmp_path, capsys, monkeypatch):
        pid, real = os.getpid(), runner.run_task

        def run_task(*args, **kwargs):
            if os.getpid() != pid:
                os.kill(os.getpid(), signal.SIGKILL)
            return real(*args, **kwargs)

        monkeypatch.setattr(runner, "run_task", run_task)
        results = self.run_cells(tmp_path, capsys, {"lexicon": "random", "dim": 4}, ["2", "1"])
        assert results["2"] == (2, "runtime error: cell (method='a', task='file-cls') failed: "
                                   "its worker process died before reporting it\n")
        assert results["1"] == (0, "")
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_workers_reaped_when_the_main_process_raises(self, tmp_path, capsys, monkeypatch):
        class Abort(BaseException):
            pass

        pid = os.getpid()

        def run_task(*args, **kwargs):
            if os.getpid() == pid:
                raise Abort
            time.sleep(30)  # killed, not waited for

        monkeypatch.setattr(runner, "run_task", run_task)
        start = time.monotonic()
        with pytest.raises(Abort):
            self.run_cells(tmp_path, capsys, {"lexicon": "random", "dim": 4}, ["4"])
        assert time.monotonic() - start < 10
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("text, normalize", [
        ("w0 1 0\nw1 0 1\nw2 1 1\nunused 0 0\n", True),
        ("w0 1 0\nw1 0 0\nw2 1 1\n", False),
    ], ids=["unused-zero-vector", "no-normalization"])
    def test_zero_word_vector_runs_when_never_normalised(self, tmp_path, capsys, text, normalize):
        lex = tmp_path / "v.txt"
        lex.write_text(text, encoding="utf-8")
        method = {"lexicon": str(lex), "normalize": normalize}
        assert self.run_file_task(tmp_path, capsys, "eval", method) == (0, "")

    def test_task_name_that_is_not_a_file_name_exit_1_writing_nothing(self, tmp_path, capsys):
        doc = {"tasks": [{"name": "../escape", "synthetic": {}}],
               "methods": [{"name": "m", "lexicon": "random", "dim": 4}],
               "output": {"dir": str(tmp_path / "out"), "formats": ["csv", "svg"]}}
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(doc), encoding="utf-8")
        for verb, args in [("validate", []), ("sweep", ["--dims", "4,8"])]:
            assert cli.main([verb, "--config", str(p), *args]) == 1, verb
            assert capsys.readouterr().err == (
                "error: task '../escape': a task name may not hold '/' or NUL\n"), verb
        assert sorted(os.listdir(tmp_path)) == ["cfg.json"]

    def test_unknown_task_for_embed_exit_1(self, tmp_path):
        cfg_path = self.write_config(tmp_path, tmp_path / "out")
        rc = cli.main([
            "embed", "--config", str(cfg_path),
            "--task", "zzz", "--method", "clustered-mean",
            "--out", str(tmp_path / "v.tsv"),
        ])
        assert rc == 1

    def test_unknown_method_for_embed_exit_1(self, tmp_path, capsys):
        cfg_path = self.write_config(tmp_path, tmp_path / "out")
        out = tmp_path / "v.tsv"
        rc = cli.main(["embed", "--config", str(cfg_path), "--task", "cls", "--method", "nope",
                       "--out", str(out)])
        assert (rc, capsys.readouterr().err) == (1, "error: no method named 'nope'\n")
        assert not out.exists()


class TestBlasThreads:
    """The CLI runs NumPy's OpenBLAS on one thread per process."""

    # run under OPENBLAS_NUM_THREADS=2: import the CLI, then NumPy, and print
    # this process's thread count and, when NumPy loaded an OpenBLAS, its own
    THREADS = """
import ctypes, os
import sentbench.cli, numpy
with open("/proc/self/maps", encoding="utf-8", errors="surrogateescape") as fh:
    paths = sorted({line.split(maxsplit=5)[-1].rstrip() for line in fh if "openblas" in line})
getters = [getattr(lib, name) for lib in map(ctypes.CDLL, paths)
           for name in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads64_", "openblas_get_num_threads")
           if hasattr(lib, name)]
print(len(os.listdir("/proc/self/task")), getters[0]() if getters else None)
"""

    @pytest.mark.skipif(sys.platform != "linux", reason="the CLI pins OpenBLAS on Linux only")
    def test_cli_import_loads_one_blas_thread(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="2")
        out = subprocess.run([sys.executable, "-c", self.THREADS], env=env, check=True,
                             capture_output=True, text=True).stdout.split()
        if out[1] == "None":
            pytest.skip("NumPy has loaded no OpenBLAS")
        assert out == ["1", "1"]  # no second thread was ever started

    def test_embed_bytes_do_not_depend_on_blas_threads(self, tmp_path):
        # SIF's M.T @ M at d = 300 is large enough for OpenBLAS to split
        # across threads, which changes its last bits
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "tasks": [{"name": "cls", "synthetic": {"items": 2000}}],
            "methods": [{"name": "sif", "strategy": "sif", "lexicon": "random", "dim": 300}]}))
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        vectors = []
        for threads in ("1", "2"):
            out = tmp_path / f"v{threads}.tsv"
            env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
            subprocess.run([sys.executable, "-m", "sentbench.cli", "embed", "--config",
                            str(config), "--task", "cls", "--method", "sif", "--out", str(out)],
                           env=env, check=True, capture_output=True)
            vectors.append(out.read_bytes())
        assert vectors[0] == vectors[1]
