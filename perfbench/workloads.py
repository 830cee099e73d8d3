"""Workload inputs for the sentbench benchmark.

Every input is generated from the workload seed; the program under test sees
only the files and the JSON config written here. Each workload is a list of
CLI invocations ("steps") that together make one sample.

File workloads use a 5k x 300 word-vector file, 5k classification sentences
and 1.2k sentence pairs, below the 20k-d300 scale, so that one sample takes
four to seven seconds and a 35-second run holds five or more of them.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

VOCAB = 5_000
DIM = 300
CLS_SENTENCES = 5_000
CLS_CLASSES = 4
PAIRS = 1_200
OOV_SHARE = 0.2
ZIPF_S = 1.1

SWEEP_DIMS = (16, 64, 256)
SWEEP_WORKERS = 2
SYN_CLASSES = 4
SYN_ITEMS = 3_000
SYN_VOCAB_PER_CLASS = 50
SYN_PAIRS = 1_000


@dataclass
class Step:
    """One CLI invocation. ``outputs`` names the result files that must be
    byte-identical across samples of a run; ``cells`` and ``sentences`` are
    what the invocation is expected to produce."""

    argv: list[str]
    workers: int
    cells: int
    sentences: int
    outputs: list[str] = field(default_factory=list)


@dataclass
class Workload:
    steps: list[Step]
    data: dict  # facts the correctness checks need


def _word(i: int) -> str:
    return f"w{i:05d}"


def _zipf_ids(rng: np.random.Generator, size: int) -> np.ndarray:
    p = np.arange(1, VOCAB + 1, dtype=np.float64) ** -ZIPF_S
    return rng.choice(VOCAB, size=size, p=p / p.sum())


def _sentences(rng: np.random.Generator, n: int) -> list[list[str]]:
    """``n`` token lists of 5-25 Zipf-drawn in-vocabulary words; about
    OOV_SHARE of them carry one out-of-vocabulary token."""
    lengths = rng.integers(5, 26, size=n)
    ids = _zipf_ids(rng, int(lengths.sum()))
    oov = rng.random(n) < OOV_SHARE
    out, start = [], 0
    for i, length in enumerate(lengths):
        toks = [_word(j) for j in ids[start : start + length]]
        start += length
        if oov[i]:
            toks[int(rng.integers(0, length))] = f"oov{i}"
        out.append(toks)
    return out


def _write_vectors(path: str, rng: np.random.Generator) -> np.ndarray:
    vecs = np.round(rng.standard_normal((VOCAB, DIM)), 6)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{VOCAB} {DIM}\n")
        row_fmt = " ".join(["%.6f"] * DIM)
        for i, row in enumerate(vecs):
            fh.write(f"{_word(i)} {row_fmt % tuple(row)}\n")
    return vecs


def _write_classification(path: str, rng: np.random.Generator) -> list[list[str]]:
    sents = _sentences(rng, CLS_SENTENCES)
    labels = rng.integers(0, CLS_CLASSES, size=CLS_SENTENCES)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for toks, label in zip(sents, labels):
            fh.write(f"c{label}\t{' '.join(toks)}\n")
    return sents


def _write_pairs(path: str, rng: np.random.Generator) -> None:
    """SICK-format pairs. Sentence B keeps a share of A's tokens that grows
    with the gold relatedness, so relatedness is learnable."""
    sents = _sentences(rng, PAIRS)
    scores = np.round(rng.uniform(1.0, 5.0, size=PAIRS), 1)
    sets = rng.choice(["TRAIN", "TRIAL", "TEST"], size=PAIRS, p=[0.8, 0.1, 0.1])
    fresh = _zipf_ids(rng, PAIRS * 25)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("pair_ID\tsentence_A\tsentence_B\trelatedness_score"
                 "\tentailment_judgment\tSemEval_set\n")
        for i, (a, score) in enumerate(zip(sents, scores)):
            keep = (score - 1.0) / 4.0
            b = [
                tok if rng.random() < keep else _word(fresh[i * 25 + j])
                for j, tok in enumerate(a)
            ]
            label = "ENTAILMENT" if keep >= 0.7 else "CONTRADICTION" if keep <= 0.2 else "NEUTRAL"
            fh.write(f"{i}\t{' '.join(a)}\t{' '.join(b)}\t{score:.1f}\t{label}\t{sets[i]}\n")


def _write_config(path: str, seed: int, tasks: list, methods: list, formats: list) -> None:
    """A config without a probe block, so the probe trains with the program's
    defaults, as the bundled configs do."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(
            {"seed": seed, "tasks": tasks, "methods": methods,
             "output": {"dir": "out", "formats": formats}},
            fh, indent=1,
        )


def _file_methods(vectors: str) -> list[dict]:
    return [
        {"name": "mean", "strategy": "mean", "lexicon": vectors},
        {"name": "sif", "strategy": "sif", "lexicon": vectors},
        {"name": "mean_max", "strategy": "mean_max", "lexicon": vectors},
    ]


def eval_file(work: str, seed: int) -> Workload:
    rng = np.random.default_rng([seed, 1])
    vectors, cls, pairs, cfg = "vectors.txt", "cls.tsv", "pairs.tsv", "eval.json"
    _write_vectors(os.path.join(work, vectors), rng)
    _write_classification(os.path.join(work, cls), rng)
    _write_pairs(os.path.join(work, pairs), rng)
    tasks = [
        {"name": "cls", "kind": "classification", "path": cls},
        {"name": "relatedness", "kind": "relatedness", "path": pairs},
    ]
    methods = _file_methods(vectors)
    _write_config(os.path.join(work, cfg), seed, tasks, methods, ["csv", "json", "md"])
    per_method = CLS_SENTENCES + 2 * PAIRS
    step = Step(
        argv=["eval", "--config", cfg, "--workers", "1"], workers=1,
        cells=len(tasks) * len(methods), sentences=len(methods) * per_method,
        outputs=["results.csv", "results.json"],
    )
    return Workload([step], {})


def sweep_synthetic(work: str, seed: int) -> Workload:
    cfg = "sweep.json"
    tasks = [
        {"name": "syn-cls", "kind": "classification",
         "synthetic": {"classes": SYN_CLASSES, "items": SYN_ITEMS,
                       "vocab_per_class": SYN_VOCAB_PER_CLASS, "seed": seed}},
        {"name": "syn-ent", "kind": "entailment",
         "synthetic": {"pairs": SYN_PAIRS, "seed": seed + 1}},
    ]
    methods = [
        {"name": "mean", "strategy": "mean", "lexicon": "synthetic"},
        {"name": "sif", "strategy": "sif", "lexicon": "synthetic"},
        {"name": "mean_max", "strategy": "mean_max", "lexicon": "synthetic"},
        {"name": "random", "strategy": "mean", "lexicon": "random", "dim": SWEEP_DIMS[0]},
    ]
    _write_config(os.path.join(work, cfg), seed, tasks, methods, ["csv", "json", "md", "svg"])
    dims = ",".join(str(d) for d in SWEEP_DIMS)
    outputs = [f"results-dim{d}.{ext}" for d in SWEEP_DIMS for ext in ("csv", "json")]
    outputs += [f"{t['name']}.svg" for t in tasks]
    step = Step(
        argv=["sweep", "--config", cfg, "--dims", dims, "--workers", str(SWEEP_WORKERS)],
        workers=SWEEP_WORKERS, cells=len(SWEEP_DIMS) * len(tasks) * len(methods),
        sentences=len(SWEEP_DIMS) * len(methods) * (SYN_ITEMS + 2 * SYN_PAIRS),
        outputs=outputs,
    )
    # The same sweep on one worker must give the same bytes.
    serial = Step(argv=step.argv[:-1] + ["1"], workers=1, cells=step.cells,
                  sentences=step.sentences, outputs=outputs)
    return Workload([step], {"serial": serial})


def embed_roundtrip(work: str, seed: int) -> Workload:
    rng = np.random.default_rng([seed, 3])
    vecs = _write_vectors(os.path.join(work, "vectors.txt"), rng)
    sents = _write_classification(os.path.join(work, "cls.tsv"), rng)
    exported, embed_cfg, read_cfg = "out/cls-mean.tsv", "embed.json", "read.json"
    cls_task = [{"name": "cls", "kind": "classification", "path": "cls.tsv"}]
    _write_config(os.path.join(work, embed_cfg), seed, cls_task,
                  _file_methods("vectors.txt")[:1], ["csv"])
    _write_config(os.path.join(work, read_cfg), seed, cls_task,
                  [{"name": "readback", "sentence_vectors": exported}],
                  ["csv", "json", "md"])
    steps = [
        Step(argv=["embed", "--config", embed_cfg, "--task", "cls", "--method", "mean",
                   "--out", exported], workers=1, cells=1, sentences=CLS_SENTENCES,
             outputs=[os.path.basename(exported)]),
        Step(argv=["eval", "--config", read_cfg, "--workers", "1"], workers=1, cells=1,
             sentences=CLS_SENTENCES, outputs=["results.csv", "results.json"]),
    ]
    return Workload(steps, {"exported": exported, "vectors": vecs, "sentences": sents})


WORKLOADS = {
    "eval-file": eval_file,
    "sweep-synthetic": sweep_synthetic,
    "embed-roundtrip": embed_roundtrip,
}
