"""Reference implementations the tests compare the program against.

They do one float, one line or one character at a time, the plain way, so
that a faster path in ``sentbench`` can be checked for equal bytes, values
and errors.
"""

from __future__ import annotations

import unicodedata
import zlib
from array import array
from collections import Counter
from typing import IO, Sequence

import numpy as np

from sentbench import aggregate, tasks
from sentbench.errors import ParseError
from sentbench.lexicon import (
    FrequencyTable, VectorTable, _fields, _is_int, load_frequency_table, random_table)
from sentbench.metrics import accuracy, pearson
from sentbench.probe import Probe, ProbeConfig
from sentbench.tasks import ENTAILMENT_LABELS, Task, split


def components(vec: np.ndarray) -> str:
    """One float at a time, 17 significant digits: lossless."""
    return " ".join(format(x, ".17g") for x in vec)


def serialize_word_vectors(table: VectorTable, stream: IO[str], header: bool = True) -> None:
    """Write the table in the word-vector text format."""
    if header:
        stream.write(f"{len(table.keys)} {table.dim}\n")
    for word, vec in zip(table.keys, table.vectors):
        stream.write(f"{word} {components(vec)}\n")


def save_sentence_vectors(table: VectorTable, stream: IO[str]) -> None:
    """The sentence-vector TSV, formatted one float at a time."""
    for sid, vec in zip(table.keys, table.vectors):
        stream.write(f"{sid}\t{components(vec)}\n")


def normalize(v: np.ndarray) -> np.ndarray:
    """Scale to unit Euclidean length; rejects the zero vector. The vector is
    first scaled by an exact power of two so its norm neither overflows nor
    underflows."""
    v = np.asarray(v, dtype=np.float64)
    peak = np.abs(v).max(initial=0.0)
    if peak == 0.0:
        raise ValueError("cannot normalize the zero vector")
    v = np.ldexp(v, -np.frexp(peak)[1])
    return v / np.linalg.norm(v)


def sentence_token_vectors(
    table: VectorTable, tokens: Sequence[str], do_normalize: bool = True
) -> list[np.ndarray]:
    """In-order vectors for the in-vocabulary tokens of a sentence.

    Out-of-vocabulary tokens are skipped; an all-OOV sentence yields an empty
    list. With ``do_normalize`` each vector is scaled to unit length so every
    word contributes equally to a mean.
    """
    vecs = [table.vectors[table.row[tok]] for tok in tokens if tok in table.row]
    return [normalize(v) for v in vecs] if do_normalize else vecs


def _append_floats(flat: array, parts: Sequence[str], lineno: int) -> None:
    if not parts:
        raise ParseError("missing vector components", lineno)
    try:
        flat.extend(map(float, parts))
    except ValueError:
        raise ParseError("non-numeric vector component", lineno) from None


def _table(keys: list[str], flat: array, dim: int, lines: list[int], duplicates: int = 0):
    vectors = np.frombuffer(flat, dtype=np.float64).reshape(len(keys), dim)
    finite = np.isfinite(vectors).all(axis=1)
    if not finite.all():
        raise ParseError("non-finite vector component", lines[int(finite.argmin())])
    return VectorTable(keys, vectors, duplicates)


def load_word_vectors_by_line(stream: IO[str]) -> VectorTable:
    """The word-vector parser with one ``float()`` per token and every check
    made line by line."""
    dim, count = None, None
    words: list[str] = []
    seen: set[str] = set()
    flat, lines = array("d"), []
    duplicates = 0
    for lineno, raw in enumerate(stream, start=1):
        parts = _fields(raw)
        if not parts:
            continue
        if lineno == 1 and len(parts) == 2 and all(_is_int(p) for p in parts):
            header_dim = int(parts[1])
            if header_dim <= 0:
                raise ParseError("header dimension must be positive", lineno)
            count, dim = int(parts[0]), header_dim
            continue
        word, comps = parts[0], parts[1:]
        if dim is None:
            dim = len(comps)
        if len(comps) != dim:
            raise ParseError(f"expected {dim} components, found {len(comps)}", lineno)
        if word in seen:
            duplicates += 1
            continue
        _append_floats(flat, comps, lineno)
        seen.add(word)
        words.append(word)
        lines.append(lineno)
    if not words:
        raise ParseError("no word vectors found in input")
    if count is not None and count != len(words) + duplicates:
        raise ParseError(f"header announces {count} vectors, found {len(words) + duplicates}")
    return _table(words, flat, dim, lines, duplicates)


def load_sentence_vectors_by_line(stream: IO[str]) -> VectorTable:
    """The sentence-vector parser with one ``float()`` per token and every
    check made line by line."""
    ids: list[str] = []
    seen: set[str] = set()
    flat, lines = array("d"), []
    dim: int | None = None
    for lineno, raw in enumerate(stream, start=1):
        line = raw.rstrip("\r\n")
        if not line:
            continue
        if "\t" not in line:
            raise ParseError("expected `id<TAB>components`", lineno)
        sid, rest = line.split("\t", 1)
        comps = _fields(rest)
        if dim is None:
            dim = len(comps)
        elif len(comps) != dim:
            raise ParseError(f"expected {dim} components, found {len(comps)}", lineno)
        if sid in seen:
            raise ParseError(f"duplicate sentence id {sid!r}", lineno)
        _append_floats(flat, comps, lineno)
        seen.add(sid)
        ids.append(sid)
        lines.append(lineno)
    if dim is None:
        raise ParseError("no sentence vectors found in input")
    return _table(ids, flat, dim, lines)


def loss_gradients(probe: Probe, X: np.ndarray, targets: np.ndarray):
    """The gradients of the mean cross-entropy w.r.t. W1, b1, W2 and b2,
    each a fresh array: the forward pass, then the backward pass, one
    expression per quantity."""
    h = np.tanh(X @ probe.W1 + probe.b1)
    z = h @ probe.W2 + probe.b2
    e = np.exp(z - z.max(axis=1, keepdims=True))
    delta_out = (e / e.sum(axis=1, keepdims=True) - targets) / X.shape[0]
    gW2 = h.T @ delta_out
    gb2 = delta_out.sum(axis=0)
    delta_h = (delta_out @ probe.W2.T) * (1.0 - h * h)
    gW1 = X.T @ delta_h
    gb1 = delta_h.sum(axis=0)
    return gW1, gb1, gW2, gb2


def train_probe(
    X: np.ndarray, rows: np.ndarray, targets: np.ndarray, out_kind: str, cfg: ProbeConfig,
    seed: int,
) -> Probe:
    """Mini-batch SGD one parameter array at a time: four separately drawn
    arrays, this module's ``loss_gradients`` on each gathered batch, then ``p -= lr * g``
    for each array. ``targets[i]`` belongs to ``X[rows[i]]``."""
    d, hidden, out = X.shape[1], cfg.hidden_units, targets.shape[1]
    rng = np.random.default_rng(seed)
    lim1 = np.sqrt(6.0 / (d + hidden))
    lim2 = np.sqrt(6.0 / (hidden + out))
    probe = Probe(
        W1=rng.uniform(-lim1, lim1, size=(d, hidden)),
        b1=np.zeros(hidden),
        W2=rng.uniform(-lim2, lim2, size=(hidden, out)),
        b2=np.zeros(out),
        out_kind=out_kind,
    )
    rng = np.random.default_rng(seed + 1)
    params = (probe.W1, probe.b1, probe.W2, probe.b2)
    for _ in range(cfg.epochs):
        order = rng.permutation(len(rows))
        for start in range(0, len(rows), cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            for p, g in zip(params, loss_gradients(probe, X[rows[idx]], targets[idx])):
                p -= cfg.learning_rate * g
    return probe


def tokenize(text: str) -> list[str]:
    """The tokenizer with one category lookup per character of every token:
    a token is dropped when each of its characters is in a P or S category."""
    text = unicodedata.normalize("NFC", text).lower()
    return [
        tok for tok in text.split()
        if not all(unicodedata.category(ch).startswith(("P", "S")) for ch in tok)
    ]


def synthetic_classification(
    classes: int = 2, items: int = 200, vocab_per_class: int = 20, seed: int = 0, dim: int = 16
) -> tuple[Task, VectorTable]:
    """The classification generator drawing each sentence with
    ``rng.choice`` over the list of its class's words."""
    rng = np.random.default_rng(seed)
    centroids = rng.standard_normal((classes, dim))
    centroids = 3.0 * centroids / np.linalg.norm(centroids, axis=1, keepdims=True)
    class_words = [[f"w{k}_{j}" for j in range(vocab_per_class)] for k in range(classes)]
    vectors = np.repeat(centroids, vocab_per_class, axis=0)
    vectors += 0.3 * rng.standard_normal(vectors.shape)
    sentences, labels = [], []
    for i in range(items):
        k = i % classes
        length = int(rng.integers(3, 9))
        sentences.append(tuple(rng.choice(class_words[k], size=length, replace=True).tolist()))
        labels.append(f"c{k}")
    label_set = tuple(f"c{k}" for k in range(classes))
    task = Task("synthetic-classification", tuple(sentences), tuple(labels), label_set)
    table = VectorTable([w for words in class_words for w in words], vectors)
    return split(task, seed=seed), table


def synthetic_relatedness(
    pairs: int = 300, dim: int = 16, seed: int = 0
) -> tuple[Task, VectorTable]:
    """The pair generator drawing each sentence with ``rng.choice`` over a
    list of words."""
    rng = np.random.default_rng(seed)
    vocab = [f"t{j}" for j in range(60)]
    half = len(vocab) // 2
    axis = rng.standard_normal(dim)
    axis /= np.linalg.norm(axis)
    vectors = np.repeat([axis, -axis], half, axis=0) + 0.05 * rng.standard_normal((len(vocab), dim))
    clusters = (vocab[:half], vocab[half:])
    k = 8
    sentences_a, sentences_b, scores, labels = [], [], [], []
    for i in range(pairs):
        own, other = clusters if i % 2 == 0 else clusters[::-1]
        tokens_a = rng.choice(own, size=k, replace=False).tolist()
        target = rng.uniform(0.0, 1.0)
        m = round(target * 2 * k / (1 + target))
        shared = rng.choice(tokens_a, size=m, replace=False).tolist()
        fresh = rng.choice(other, size=k - m, replace=False).tolist()
        jaccard = m / (2 * k - m)
        sentences_a.append(tuple(tokens_a))
        sentences_b.append(tuple(shared + fresh))
        scores.append(round(1.0 + 4.0 * jaccard, 1))
        if jaccard >= 0.7:
            labels.append("entailment")
        elif jaccard <= 0.1:
            labels.append("contradiction")
        else:
            labels.append("neutral")
    task = Task(
        "synthetic-relatedness", tuple(sentences_a + sentences_b), tuple(labels),
        ENTAILMENT_LABELS, pair_ids=tuple(f"p{i:04d}" for i in range(pairs)), scores=tuple(scores),
    )
    return split(task, seed=seed), VectorTable(vocab, vectors)


def cell_seed(base: int, *labels: str) -> int:
    """The seed of a cell's draws: the run seed and the labels, joined by
    ``|`` once each ``\\`` and ``|`` in them is escaped."""
    text = "|".join(label.replace("\\", "\\\\").replace("|", "\\|") for label in labels)
    return (base * 1_000_003 + zlib.crc32(text.encode("utf-8"))) % 2**31


def cell_matrix(cfg, method, spec) -> tuple[Task, np.ndarray]:
    """The task of a lexicon method's cell, as README defines it, and its
    sentence matrix, pooled one sentence at a time."""
    if spec.synthetic is not None:
        gen = synthetic_classification if spec.kind == "classification" else synthetic_relatedness
        task, table = gen(**{"seed": cfg.seed, **spec.synthetic})
    else:
        with open(spec.path, encoding="utf-8") as fh:
            task = (tasks.load_sick_tsv(fh) if spec.kind != "classification" else
                    tasks.load_classification_tsv(fh, spec.label_set))
        if sum(map(len, task.splits.values())) < len(task.labels):
            task = split(task, cfg.split_ratios, seed=cell_seed(cfg.seed, spec.name))
    corpus_train = task.rows(task.splits["train"])
    if method.lexicon == "random":
        table = random_table(task.vocabulary(), method.dim,
                             cell_seed(cfg.seed, "random-lexicon", method.name))
    elif method.lexicon != "synthetic":
        with open(method.lexicon, encoding="utf-8") as fh:
            table = load_word_vectors_by_line(fh)
    if method.strategy == "sif" and method.frequencies is not None:
        with open(method.frequencies, encoding="utf-8") as fh:
            freq = load_frequency_table(fh)
    else:  # the tokens of the train split, out-of-vocabulary ones included
        counts = Counter(tok for r in corpus_train for tok in task.sentences[r])
        freq = FrequencyTable(counts, sum(counts.values()))
    rows = []
    for tokens in task.sentences:
        known = [tok for tok in tokens if tok in table.row]
        vs = sentence_token_vectors(table, tokens, method.normalize)
        if method.strategy == "sif":
            pooled = aggregate.sif_weighted_mean(known, vs, aggregate.Sif(freq, method.sif_a)) \
                if vs else np.zeros(table.dim)
        elif method.strategy == "mean":
            pooled = aggregate.mean_pool(vs, table.dim)
        else:
            pooled = aggregate.mean_max_concat(vs, table.dim)
        rows.append(pooled)
    S = np.array(rows)
    if method.strategy == "sif":
        c = aggregate.fit_common_component(S[corpus_train])
        S = np.array([aggregate.remove_common_component(v, c) for v in S])
    return task, S


def run_cell(cfg, method, spec) -> float:
    """The value of the cell of `cell_matrix`: its probe trained on the pair
    features of the train items, one pair at a time, by `train_probe`, and
    scored on the test items."""
    task, S = cell_matrix(cfg, method, spec)
    train, test = np.array(task.splits["train"]), task.splits["test"]
    n = len(task.labels)
    X = S if task.pair_ids is None else np.array(
        [np.concatenate([np.abs(S[i] - S[n + i]), S[i] * S[n + i]]) for i in range(n)])
    if spec.kind == "relatedness":  # 5 bins, each score's mass on the two around it
        gold = np.array(task.scores)
        targets = np.zeros((len(train), 5))
        for t, y in zip(targets, gold[train]):
            lo = int(np.floor(y))
            if lo == 5:
                t[4] = 1.0
            else:
                t[lo - 1], t[lo] = lo - y + 1.0, y - lo
    else:  # one-hot, in `label_set` order
        gold = np.array([task.label_set.index(lab) for lab in task.labels])
        targets = np.eye(len(task.label_set))[gold[train]]
    out_kind = "distribution" if spec.kind == "relatedness" else "classifier"
    probe = train_probe(X, train, targets, out_kind, cfg.probe,
                        cell_seed(cfg.seed, method.name, spec.name))
    z = np.tanh(X[test] @ probe.W1 + probe.b1) @ probe.W2 + probe.b2
    z = np.exp(z - z.max(axis=1, keepdims=True))
    probs = z / z.sum(axis=1, keepdims=True)
    if spec.kind == "relatedness":  # the expected bin
        return pearson([float(np.arange(1, 6) @ p) for p in probs], gold[test])
    return accuracy([int(np.argmax(p)) for p in probs], gold[test].tolist())
