"""Acceptance suite: one test per release criterion, each printing a single
PASS/FAIL line. Criteria 1-7 are self-contained; criterion 8 needs
user-supplied word vectors and task files (see README) and is skipped when
those assets are absent."""

import json
import os
import sys
import time

import numpy as np
import pytest

from sentbench import cli, probe
from sentbench.aggregate import (
    Mean,
    MeanMaxConcat,
    Sif,
    embed_corpus,
    fit_common_component,
    mean_max_concat,
    max_pool,
    mean_pool,
    output_dim,
    remove_common_component,
    sif_weight,
    sif_weighted_mean,
)
from sentbench.errors import DegenerateInputError
from sentbench.lexicon import FrequencyTable, VectorTable, random_table
from sentbench.metrics import accuracy, majority_baseline, pearson
from sentbench.runner import dim_sweep, load_config, load_task, sentence_matrix
from sentbench.tasks import synthetic_classification, synthetic_relatedness

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")
EVAL_CONFIG = os.path.join(CONFIG_DIR, "synthetic-eval.json")
SWEEP_CONFIG = os.path.join(CONFIG_DIR, "synthetic-sweep.json")
USER_ASSETS_CONFIG = os.environ.get("SENTBENCH_ASSETS_CONFIG", "")


@pytest.fixture
def criterion(request):
    """Prints one PASS/FAIL line per criterion, even when the assertion fails."""
    outcome = {"ok": False}
    yield outcome
    name = request.node.name.removeprefix("test_").replace("_", " ")
    line = f"[{'PASS' if outcome['ok'] else 'FAIL'}] {name}"
    capman = request.config.pluginmanager.getplugin("capturemanager")
    if capman is not None:
        with capman.global_and_fixture_disabled():
            print(line, flush=True)
    else:
        print(line, file=sys.stderr, flush=True)


def test_1_aggregation_oracles(criterion):
    start = time.monotonic()
    rng = np.random.default_rng(2024)
    for _ in range(100):
        n = int(rng.integers(1, 9))
        d = int(rng.integers(1, 9))
        M = rng.standard_normal((n, d))
        w, V = np.linalg.eigh(M.T @ M)
        oracle = V[:, np.argmax(w)]
        assert abs(fit_common_component(M) @ oracle) >= 1 - 1e-6

        c = fit_common_component(M)
        v = rng.standard_normal(d)
        assert abs(remove_common_component(v, c) @ c) <= 1e-9 * max(1.0, float(np.linalg.norm(v)))

        vs = [rng.standard_normal(d) for _ in range(int(rng.integers(1, 6)))]
        assert np.array_equal(
            mean_max_concat(vs), np.concatenate([mean_pool(vs), max_pool(vs)])
        )
    assert time.monotonic() - start < 5.0
    criterion["ok"] = True


def test_2_sif_formulas(criterion):
    for a in (1e-3, 0.1, 0.5):
        assert sif_weight(a, 0.0) == 1.0
        assert sif_weight(a, a) == 0.5

    freq = FrequencyTable(counts={"a": 1, "b": 1, "c": 1}, total=6)
    vs = [np.array([1.0, 2.0]), np.array([-0.5, 0.25]), np.array([3.0, -1.0])]
    out = sif_weighted_mean(["a", "b", "c"], vs, Sif(freq=freq, a=0.2))
    w = sif_weight(0.2, 1 / 6)
    assert np.abs(out - w * mean_pool(vs)).max() < 1e-12

    rng = np.random.default_rng(7)
    direction = rng.standard_normal(5)
    table = VectorTable(
        [f"w{i}" for i in range(4)], [float(i + 1) * direction for i in range(4)]
    )
    corpus = [("w0", "w1"), ("w2",), ("w1", "w3"), ("w0",)]
    strat = Sif(freq=FrequencyTable(counts={f"w{i}": 1 for i in range(4)}, total=8))
    out = embed_corpus(corpus, table, strat, fit_rows=[0, 1, 2, 3])
    assert np.abs(out).max() < 1e-9
    criterion["ok"] = True


def test_3_probe_numerics(criterion):
    rng = np.random.default_rng(99)
    for trial in range(20):
        d = int(rng.integers(2, 7))
        hidden = int(rng.integers(2, 6))
        k = int(rng.integers(2, 5))
        n = int(rng.integers(1, 6))
        model = probe.Probe(
            W1=rng.standard_normal((d, hidden)),
            b1=rng.standard_normal(hidden),
            W2=rng.standard_normal((hidden, k)),
            b2=rng.standard_normal(k),
            out_kind="classifier",
        )
        X = rng.standard_normal((n, d))
        T = probe.softmax(rng.standard_normal((n, k)))
        loss_fn = probe.cross_entropy_loss if trial % 2 == 0 else probe.kl_loss
        analytic = probe.loss_gradients(model, X, T)
        step = 1e-5
        for arr, a_grad in zip((model.W1, model.b1, model.W2, model.b2), analytic):
            g = np.zeros_like(arr)
            it = np.nditer(arr, flags=["multi_index"])
            while not it.finished:
                idx = it.multi_index
                orig = arr[idx]
                arr[idx] = orig + step
                hi = loss_fn(model, X, T)
                arr[idx] = orig - step
                lo = loss_fn(model, X, T)
                arr[idx] = orig
                g[idx] = (hi - lo) / (2 * step)
                it.iternext()
            denom = max(np.abs(g).max(), np.abs(a_grad).max(), 1e-8)
            assert np.abs(a_grad - g).max() / denom < 1e-4

    for y in np.arange(1.0, 5.0 + 1e-9, 0.01):
        y = round(float(y), 2)
        back = probe.distribution_to_score(probe.score_to_distribution(y, 5))
        assert abs(back - y) <= 1e-12
    criterion["ok"] = True


def test_4_synthetic_classification_end_to_end(criterion):
    start = time.monotonic()
    task, table = synthetic_classification(2, 200, 20, 3)
    sentences = task.sentences
    labels = np.array([task.label_set.index(lab) for lab in task.labels])
    train, test = task.splits["train"], task.splits["test"]

    X = embed_corpus(sentences, table, Mean())
    model = probe.train_classifier(X[train], labels[train], 2, probe.ProbeConfig())
    preds = probe.predict_proba(model, X[test]).argmax(axis=1)
    clustered_acc = accuracy(list(preds), list(labels[test]))
    assert clustered_acc >= 0.95

    rand = random_table(task.vocabulary(), 16, seed=3)
    Xr = embed_corpus(sentences, rand, Mean())
    model_r = probe.train_classifier(Xr[train], labels[train], 2, probe.ProbeConfig())
    preds_r = probe.predict_proba(model_r, Xr[test]).argmax(axis=1)
    random_acc = accuracy(list(preds_r), list(labels[test]))
    baseline = majority_baseline([task.labels[i] for i in test])
    assert abs(random_acc - baseline) <= 0.1
    assert time.monotonic() - start < 30.0
    criterion["ok"] = True


def test_5_synthetic_relatedness_end_to_end(criterion):
    start = time.monotonic()
    task, table = synthetic_relatedness(300, 16, 5)
    n = len(task.labels)
    sentences = task.sentences
    S = embed_corpus(sentences, table, Mean())
    X = np.stack([probe.pair_features(S[i], S[i + n]) for i in range(n)])
    gold = np.array(task.scores)
    train, test = task.splits["train"], task.splits["test"]
    model = probe.train_relatedness(X[train], gold[train], 5, probe.ProbeConfig())
    preds = [probe.distribution_to_score(p) for p in probe.predict_proba(model, X[test])]
    assert pearson(preds, gold[test]) >= 0.8

    with pytest.raises(DegenerateInputError):
        pearson([3.0] * len(test), gold[test])
    assert time.monotonic() - start < 30.0
    criterion["ok"] = True


def test_6_determinism_across_worker_counts(criterion, tmp_path):
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert cli.main(["eval", "--config", EVAL_CONFIG, "--out", str(out1)]) == 0
    assert cli.main(["eval", "--config", EVAL_CONFIG, "--out", str(out2), "--workers", "4"]) == 0
    assert (out1 / "results.csv").read_bytes() == (out2 / "results.csv").read_bytes()
    assert (out1 / "results.json").read_bytes() == (out2 / "results.json").read_bytes()
    criterion["ok"] = True


def test_7_dimensionality_trend(criterion, tmp_path):
    from dataclasses import replace

    cfg = load_config(SWEEP_CONFIG)
    cfg = replace(cfg, output_dir=str(tmp_path / "sweep"))
    dims = [4, 16, 64]
    matrices = dim_sweep(cfg, dims)
    task_name = cfg.tasks[0].name
    acc_by_dim = [m.get("clustered-mean", task_name).value for m in matrices]
    assert acc_by_dim[-1] >= acc_by_dim[0]

    for d, _ in zip(dims, matrices):
        task, table = load_task(cfg.tasks[0], cfg, dim=d)
        mm_method = next(m for m in cfg.methods if m.strategy == "mean_max")
        S = sentence_matrix(task, mm_method, cfg, table, dim=d)
        assert S.shape[1] == 2 * d
    assert output_dim(MeanMaxConcat(), 16) == 32
    criterion["ok"] = True


@pytest.mark.skipif(
    not (USER_ASSETS_CONFIG and os.path.exists(USER_ASSETS_CONFIG)),
    reason="needs user-supplied word vectors and task files; "
    "set SENTBENCH_ASSETS_CONFIG to a run config referencing them (see README)",
)
def test_8_conditional_reproduction(criterion, tmp_path):
    out = tmp_path / "real"
    assert cli.main(["eval", "--config", USER_ASSETS_CONFIG, "--out", str(out)]) == 0
    doc = json.loads((out / "results.json").read_text(encoding="utf-8"))
    cfg = load_config(USER_ASSETS_CONFIG)
    assert len(doc["results"]) == len(cfg.tasks) * len(cfg.methods)
    for cell in doc["results"]:
        if cell["measure"] == "accuracy":
            assert 0.0 <= cell["value"] <= 1.0
        else:
            assert -1.0 <= cell["value"] <= 1.0
    criterion["ok"] = True
