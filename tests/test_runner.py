import gc
import json
import os
import sys
import weakref
import zlib
from dataclasses import replace

import numpy as np
import pytest

from sentbench import cli, runner, tasks
from sentbench.errors import ConfigError, ProbeDivergedError
from sentbench.lexicon import (
    load_frequency_table,
    load_sentence_vector_table,
    load_word_vectors,
)
from sentbench.metrics import majority_baseline
from oracles import serialize_word_vectors
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
        with pytest.raises(ConfigError):
            base_config(methods=[
                {"name": "m", "lexicon": "synthetic"},
                {"name": "m", "lexicon": "synthetic"},
            ])

    def test_unknown_format(self):
        with pytest.raises(ConfigError):
            base_config(output={"dir": "out", "formats": ["xlsx"]})

    def test_empty_tasks(self):
        with pytest.raises(ConfigError):
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
    ])
    def test_unknown_top_level_and_output_keys(self, overrides):
        with pytest.raises(ConfigError, match="unknown config key"):
            base_config(**overrides)

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
        cfg = base_config(tasks=[{"name": "odd", "synthetic": synthetic}])
        with pytest.raises(ConfigError, match="task 'odd': "):
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


class TestRunTask:
    def test_clustered_classification_learns(self):
        cfg = base_config()
        task, table = load_task(cfg.tasks[0], cfg)
        res = run_task(task, cfg.methods[0], cfg, "classification", table)
        assert res.measure == "accuracy"
        assert res.n == len(task.splits["test"])
        assert res.value >= 0.9

    def test_random_lexicon_stays_near_majority(self):
        cfg = base_config(
            seed=2024,
            methods=[{"name": "random-mean", "lexicon": "random", "dim": 8}],
        )
        task, table = load_task(cfg.tasks[0], cfg)
        res = run_task(task, cfg.methods[0], cfg, "classification", table)
        test_labels = [task.labels[i] for i in task.splits["test"]]
        assert abs(res.value - majority_baseline(test_labels)) <= 0.25

    def test_relatedness_reports_pearson(self):
        cfg = base_config(
            tasks=[{"name": "rel", "kind": "relatedness", "synthetic": dict(SYN_REL)}]
        )
        task, table = load_task(cfg.tasks[0], cfg)
        res = run_task(task, cfg.methods[0], cfg, "relatedness", table)
        assert res.measure == "pearson"
        assert -1.0 <= res.value <= 1.0

    def test_entailment_uses_fixed_label_order(self):
        cfg = base_config(
            tasks=[{"name": "ent", "kind": "entailment", "synthetic": dict(SYN_REL)}]
        )
        task, table = load_task(cfg.tasks[0], cfg)
        res = run_task(task, cfg.methods[0], cfg, "entailment", table)
        assert res.measure == "accuracy"


class TestRunMatrix:
    def test_shape_and_workers_equivalence(self):
        cfg = base_config(
            tasks=[
                {"name": "cls", "kind": "classification", "synthetic": dict(SYN_CLS)},
                {"name": "rel", "kind": "relatedness", "synthetic": dict(SYN_REL)},
            ],
            methods=[
                {"name": "clustered-mean", "lexicon": "synthetic"},
                {"name": "clustered-maxpool", "strategy": "mean_max", "lexicon": "synthetic"},
            ],
        )
        m1 = run_matrix(cfg, workers=1)
        m4 = run_matrix(cfg, workers=4)
        assert len(m1.cells) == 4
        for key in m1.cells:
            assert m1.cells[key].value == m4.cells[key].value

    @pytest.mark.parametrize("workers", [1, 2])
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
        calls = []

        def counting_load(stream, *args, **kwargs):
            calls.append(stream.name)
            return load_word_vectors(stream, *args, **kwargs)

        monkeypatch.setattr(runner, "load_word_vectors", counting_load)
        matrix = run_matrix(cfg, workers=workers)
        assert len(matrix.cells) == 4
        assert calls == [str(lex)]

    @pytest.mark.parametrize("workers", [1, 2])
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
        calls = []

        def counting(loader):
            def load(stream, *args, **kwargs):
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

    def test_parse_cache_under_thread_contention(self, tmp_path, monkeypatch):
        freqs = tmp_path / "freq.txt"
        freqs.write_text("w0_0 5\nw1_0 3\n", encoding="utf-8")
        cfg = base_config(methods=[
            {"name": f"sif-{i}", "strategy": "sif", "lexicon": "synthetic",
             "frequencies": str(freqs), "sif_a": 10.0 ** -i}
            for i in range(1, 9)
        ])
        calls = []

        def counting_load(stream):
            calls.append(stream.name)
            return load_frequency_table(stream)

        monkeypatch.setattr(runner, "load_frequency_table", counting_load)
        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            matrix = run_matrix(cfg, workers=8)
        finally:
            sys.setswitchinterval(old_interval)
        assert len(matrix.cells) == 8
        assert calls == [str(freqs)]

    def test_cell_failure_names_cell(self, tmp_path):
        missing = str(tmp_path / "nope.txt")
        cfg = base_config(
            methods=[{"name": "broken", "lexicon": missing}],
        )
        with pytest.raises(RuntimeError, match="method='broken'"):
            run_matrix(cfg)


class TestSifAndSentenceVectors:
    def test_sif_runs_end_to_end(self):
        cfg = base_config(
            methods=[{"name": "clustered-sif", "strategy": "sif", "lexicon": "synthetic",
                      "sif_a": 0.001}],
        )
        task, table = load_task(cfg.tasks[0], cfg)
        res = run_task(task, cfg.methods[0], cfg, "classification", table)
        assert 0.0 <= res.value <= 1.0

    def test_precomputed_vectors_reproduce_lexicon_method(self, tmp_path):
        cfg = base_config()
        out = tmp_path / "vecs.tsv"
        n = export_sentence_vectors(cfg, "cls", "clustered-mean", out)
        assert n == 120
        table = load_sentence_vector_table(open(out, encoding="utf-8"))
        assert table.dim == 8

        cfg2 = base_config(
            methods=[{"name": "precomputed", "sentence_vectors": str(out)}],
        )
        task, syn_table = load_task(cfg.tasks[0], cfg)
        direct = sentence_matrix(task, cfg.methods[0], cfg, syn_table)
        via_file = sentence_matrix(task, cfg2.methods[0], cfg2)
        assert np.array_equal(direct, via_file)

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


class TestValidate:
    def test_clean_config(self):
        assert validate_config(base_config()) == []

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
                {"name": "a", "lexicon": lex, "frequencies": freqs},
                {"name": "b", "lexicon": lex, "frequencies": freqs},
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


class TestCli:
    def write_config(self, tmp_path, out_dir):
        doc = {
            "seed": 11,
            "tasks": [{"name": "cls", "kind": "classification", "synthetic": dict(SYN_CLS)}],
            "methods": [{"name": "clustered-mean", "lexicon": "synthetic"}],
            "output": {"dir": str(out_dir), "formats": ["csv", "json", "md"]},
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
        cfg_path = self.write_config(tmp_path, tmp_path / "out")
        assert cli.main(["eval", "--config", str(cfg_path)]) == 0
        first = (tmp_path / "out" / "results.csv").read_bytes()
        assert cli.main(["eval", "--config", str(cfg_path), "--workers", "4"]) == 0
        assert (tmp_path / "out" / "results.csv").read_bytes() == first

    def test_validate_ok(self, tmp_path, capsys):
        cfg_path = self.write_config(tmp_path, tmp_path / "out")
        assert cli.main(["validate", "--config", str(cfg_path)]) == 0
        assert "config ok" in capsys.readouterr().out

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

    def test_missing_config_exit_1(self, tmp_path):
        assert cli.main(["eval", "--config", str(tmp_path / "nope.json")]) == 1

    def test_sweep_and_embed(self, tmp_path, capsys):
        cfg_path = self.write_config(tmp_path, tmp_path / "out")
        assert cli.main(["sweep", "--config", str(cfg_path), "--dims", "4,8"]) == 0
        assert (tmp_path / "out" / "results-dim4.csv").exists()
        vec_path = tmp_path / "vecs.tsv"
        assert cli.main([
            "embed", "--config", str(cfg_path),
            "--task", "cls", "--method", "clustered-mean", "--out", str(vec_path),
        ]) == 0
        assert load_sentence_vector_table(open(vec_path, encoding="utf-8")).dim == 8

    def test_bad_dims_exit_1(self, tmp_path):
        cfg_path = self.write_config(tmp_path, tmp_path / "out")
        assert cli.main(["sweep", "--config", str(cfg_path), "--dims", "4,x"]) == 1

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

    def test_synthetic_lexicon_with_file_task_exit_1(self, tmp_path, capsys):
        rc, err = self.run_file_task(tmp_path, capsys, "validate", {"lexicon": "synthetic"})
        assert rc == 1
        assert "error: method 'm': lexicon 'synthetic' only works with synthetic tasks" in err
        assert "'file-cls'" in err
        cfg = base_config(tasks=[{"name": "file-cls", "path": str(tmp_path / "cls.tsv")}],
                          methods=[{"name": "m", "lexicon": "synthetic"}])
        with pytest.raises(RuntimeError, match="method='m'") as info:
            run_matrix(cfg)
        assert isinstance(info.value.__cause__, ConfigError)

    def test_dim_template_under_eval_exit_1(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(tasks, "load_classification_tsv", no_cell)
        embed = ["--task", "file-cls", "--method", "m", "--out", str(tmp_path / "v.tsv")]
        for verb, args in [("eval", []), ("validate", []), ("embed", embed)]:
            rc, err = self.run_file_task(tmp_path, capsys, verb, {"lexicon": "v{dim}.txt"},
                                         args=args)
            assert rc == 1, verb
            assert err == "error: method 'm': lexicon template needs a sweep dim\n", verb

    def test_sif_frequency_file_with_whitespace_only_lines(self, tmp_path, capsys):
        lex, freqs = tmp_path / "v.txt", tmp_path / "freq.txt"
        lex.write_text("w0 1 0\nw1 0 1\nw2 1 1\n", encoding="utf-8")
        freqs.write_text("   \nw0 5\n\t\nw1 3\n", encoding="utf-8")
        method = {"strategy": "sif", "lexicon": str(lex), "frequencies": str(freqs)}
        rc, err = self.run_file_task(tmp_path, capsys, "eval", method)
        assert (rc, err) == (0, "")

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
        def diverge(*args, **kwargs):
            raise ProbeDivergedError("probe loss is not finite")

        monkeypatch.setattr(runner.probe, "train_classifier", diverge)
        rc, err = self.run_file_task(tmp_path, capsys, "eval", {"lexicon": "random", "dim": 4})
        assert rc == 2
        assert "runtime error: cell (method='m', task='file-cls')" in err

    def test_unknown_task_for_embed_exit_1(self, tmp_path):
        cfg_path = self.write_config(tmp_path, tmp_path / "out")
        rc = cli.main([
            "embed", "--config", str(cfg_path),
            "--task", "zzz", "--method", "clustered-mean",
            "--out", str(tmp_path / "v.tsv"),
        ])
        assert rc == 1
