"""Task datasets: loading, validation, splitting and synthetic generation.

File formats (UTF-8, LF or CRLF):
  classification TSV  ``label<TAB>sentence[<TAB>train|dev|test]``
  pair TSV            header, then columns pair_ID, sentence_A, sentence_B,
                      relatedness_score, entailment_judgment and optionally
                      SemEval_set (TRAIN/TRIAL/TEST mapping to train/dev/test)
"""

from __future__ import annotations

import unicodedata
from dataclasses import dataclass, field, replace
from typing import IO, Sequence

import numpy as np

from .errors import ParseError
from .lexicon import VectorTable, tokenize

SPLIT_NAMES = ("train", "dev", "test")
ENTAILMENT_LABELS = ("entailment", "neutral", "contradiction")
DEFAULT_RATIOS = (0.8, 0.1, 0.1)


@dataclass(frozen=True)
class ClassificationTask:
    name: str
    label_set: tuple[str, ...]
    items: tuple[tuple[tuple[str, ...], str], ...]  # (tokens, label)
    splits: dict[str, list[int]] = field(default_factory=dict)

    def __post_init__(self):
        labels = set(self.label_set)
        if len(labels) != len(self.label_set):
            raise ValueError("label_set contains duplicates")
        for toks, label in self.items:
            if label not in labels:
                raise ValueError(f"item label {label!r} not in label_set")
        _check_splits(self.splits, len(self.items))

    def vocabulary(self) -> list[str]:
        seen: dict[str, None] = {}
        for toks, _ in self.items:
            for t in toks:
                seen.setdefault(t)
        return list(seen)


@dataclass(frozen=True)
class PairItem:
    id: str
    tokens_a: tuple[str, ...]
    tokens_b: tuple[str, ...]
    relatedness: float
    entailment: str

    def __post_init__(self):
        if not 1.0 <= self.relatedness <= 5.0:
            raise ValueError(f"relatedness {self.relatedness} outside [1, 5]")
        if self.entailment not in ENTAILMENT_LABELS:
            raise ValueError(f"unknown entailment label {self.entailment!r}")


@dataclass(frozen=True)
class PairTask:
    name: str
    items: tuple[PairItem, ...]
    splits: dict[str, list[int]] = field(default_factory=dict)

    def __post_init__(self):
        ids = [it.id for it in self.items]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate pair ids")
        _check_splits(self.splits, len(self.items))

    def vocabulary(self) -> list[str]:
        seen: dict[str, None] = {}
        for it in self.items:
            for t in it.tokens_a + it.tokens_b:
                seen.setdefault(t)
        return list(seen)


def _check_splits(splits: dict[str, list[int]], n: int) -> None:
    if not splits:
        return
    seen: set[int] = set()
    for split_name, idxs in splits.items():
        if split_name not in SPLIT_NAMES:
            raise ValueError(f"unknown split {split_name!r}")
        for i in idxs:
            if not 0 <= i < n:
                raise ValueError(f"split index {i} out of range")
            if i in seen:
                raise ValueError(f"index {i} appears in two splits")
            seen.add(i)


def _nfc(text: str) -> str:
    return unicodedata.normalize("NFC", text)


def load_classification_tsv(
    stream: IO[str], label_set: Sequence[str] | None = None, name: str = "task"
) -> ClassificationTask:
    """Parse ``label<TAB>sentence`` lines with an optional split column.

    Without a label_set the labels are collected in order of first appearance.
    Rows without a split column stay unassigned, pending :func:`split`.
    """
    known = list(label_set) if label_set is not None else None
    seen_labels: dict[str, None] = {}
    items: list[tuple[tuple[str, ...], str]] = []
    splits: dict[str, list[int]] = {}
    for lineno, raw in enumerate(stream, start=1):
        line = raw.rstrip("\r\n")
        if not line:
            continue
        cols = line.split("\t")
        if len(cols) < 2:
            raise ParseError("expected `label<TAB>sentence`", lineno)
        if len(cols) > 3:
            raise ParseError(f"too many columns ({len(cols)})", lineno)
        label = _nfc(cols[0])
        if known is not None and label not in known:
            raise ParseError(f"unknown label {label!r}", lineno)
        seen_labels.setdefault(label)
        if len(cols) == 3:
            if cols[2] not in SPLIT_NAMES:
                raise ParseError(f"unknown split {cols[2]!r}", lineno)
            splits.setdefault(cols[2], []).append(len(items))
        items.append((tuple(tokenize(cols[1])), label))
    if not items:
        raise ParseError("no rows in classification file")
    final_labels = tuple(known) if known is not None else tuple(seen_labels)
    return ClassificationTask(name=name, label_set=final_labels, items=tuple(items), splits=splits)


_SEMEVAL_SPLITS = {"TRAIN": "train", "TRIAL": "dev", "TEST": "test"}
_PAIR_COLUMNS = ("pair_ID", "sentence_A", "sentence_B", "relatedness_score", "entailment_judgment")


def load_sick_tsv(stream: IO[str], name: str = "sick") -> PairTask:
    """Parse the sentence-pair TSV with a named-column header."""
    header_line = stream.readline()
    if not header_line:
        raise ParseError("empty pair file")
    header = header_line.rstrip("\r\n").split("\t")
    col: dict[str, int] = {c: i for i, c in enumerate(header)}
    for needed in _PAIR_COLUMNS:
        if needed not in col:
            raise ParseError(f"missing column {needed!r}", 1)
    has_split = "SemEval_set" in col
    items: list[PairItem] = []
    splits: dict[str, list[int]] = {}
    ids: set[str] = set()
    for lineno, raw in enumerate(stream, start=2):
        line = raw.rstrip("\r\n")
        if not line:
            continue
        cols = line.split("\t")
        if len(cols) < len(header):
            raise ParseError(f"expected {len(header)} columns, found {len(cols)}", lineno)
        pid = cols[col["pair_ID"]]
        if pid in ids:
            raise ParseError(f"duplicate pair_ID {pid!r}", lineno)
        ids.add(pid)
        try:
            score = float(cols[col["relatedness_score"]])
        except ValueError:
            raise ParseError("non-numeric relatedness score", lineno) from None
        if not 1.0 <= score <= 5.0:
            raise ParseError(f"relatedness {score} outside [1, 5]", lineno)
        entailment = cols[col["entailment_judgment"]].lower()
        if entailment not in ENTAILMENT_LABELS:
            raise ParseError(f"unknown entailment label {cols[col['entailment_judgment']]!r}", lineno)
        if has_split:
            raw_split = cols[col["SemEval_set"]]
            if raw_split not in _SEMEVAL_SPLITS:
                raise ParseError(f"unknown SemEval_set {raw_split!r}", lineno)
            splits.setdefault(_SEMEVAL_SPLITS[raw_split], []).append(len(items))
        items.append(
            PairItem(
                id=pid,
                tokens_a=tuple(tokenize(cols[col["sentence_A"]])),
                tokens_b=tuple(tokenize(cols[col["sentence_B"]])),
                relatedness=score,
                entailment=entailment,
            )
        )
    if not items:
        raise ParseError("no rows in pair file")
    return PairTask(name=name, items=tuple(items), splits=splits)


def split(task, ratios: tuple[float, float, float] = DEFAULT_RATIOS, seed: int = 0):
    """Assign train/dev/test splits by a seeded shuffle and contiguous
    partition. Sizes of dev and test round to nearest; the remainder goes to
    train. Returns a copy of the task; the input is untouched."""
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError("ratios must sum to 1")
    if any(r < 0 for r in ratios):
        raise ValueError("ratios must be nonnegative")
    n = len(task.items)
    if n < 3:
        raise ValueError("need at least 3 items to split")
    n_dev = round(n * ratios[1])
    n_test = round(n * ratios[2])
    n_train = n - n_dev - n_test
    if n_train < 1:
        raise ValueError(f"ratios {tuple(ratios)} leave the train split empty for {n} items")
    order = np.random.default_rng(seed).permutation(n)
    splits = {
        "train": [int(i) for i in order[:n_train]],
        "dev": [int(i) for i in order[n_train : n_train + n_dev]],
        "test": [int(i) for i in order[n_train + n_dev :]],
    }
    return replace(task, splits=splits)


def synthetic_classification(
    K: int, n: int, vocab_per_class: int, seed: int, dim: int = 16
) -> tuple[ClassificationTask, VectorTable]:
    """Desk-scale classification oracle: each class owns a disjoint word set
    clustered tightly around its own centroid, so mean pooling separates the
    classes by construction. Splits use the default ratios and the same seed."""
    if K < 2 or n < K:
        raise ValueError("need K >= 2 and n >= K")
    rng = np.random.default_rng(seed)
    centroids = rng.standard_normal((K, dim))
    centroids = 3.0 * centroids / np.linalg.norm(centroids, axis=1, keepdims=True)
    class_words = [[f"w{k}_{j}" for j in range(vocab_per_class)] for k in range(K)]
    vectors = np.repeat(centroids, vocab_per_class, axis=0)
    vectors += 0.3 * rng.standard_normal(vectors.shape)
    items = []
    for i in range(n):
        k = i % K
        length = int(rng.integers(3, 9))
        toks = tuple(rng.choice(class_words[k], size=length, replace=True))
        items.append((toks, f"c{k}"))
    task = ClassificationTask(
        name="synthetic-classification",
        label_set=tuple(f"c{k}" for k in range(K)),
        items=tuple(items),
    )
    table = VectorTable([w for words in class_words for w in words], vectors)
    return split(task, seed=seed), table


def synthetic_relatedness(n: int, d: int, seed: int) -> tuple[PairTask, VectorTable]:
    """Desk-scale relatedness oracle over a shared random lexicon. Gold
    relatedness is 1 + 4 * (token Jaccard overlap), rounded to 0.1; entailment
    labels come from overlap thresholds (>= 0.7 entailment, <= 0.1
    contradiction, neutral otherwise)."""
    if n < 10:
        raise ValueError("need at least 10 pairs")
    rng = np.random.default_rng(seed)
    # Two word clusters on opposite ends of one semantic axis. Non-shared
    # words come from the opposite cluster, so the pair features vary almost
    # purely with the token overlap and stay learnable by the default probe.
    vocab = [f"t{j}" for j in range(60)]
    half = len(vocab) // 2
    axis = rng.standard_normal(d)
    axis /= np.linalg.norm(axis)
    vectors = np.repeat([axis, -axis], half, axis=0) + 0.05 * rng.standard_normal((len(vocab), d))
    clusters = (vocab[:half], vocab[half:])
    k = 8  # tokens per sentence
    items = []
    for i in range(n):
        own, other = clusters if i % 2 == 0 else clusters[::-1]
        tokens_a = list(rng.choice(own, size=k, replace=False))
        target = rng.uniform(0.0, 1.0)
        m = round(target * 2 * k / (1 + target))
        shared = list(rng.choice(tokens_a, size=m, replace=False))
        fresh = list(rng.choice(other, size=k - m, replace=False))
        tokens_b = shared + fresh
        jaccard = m / (2 * k - m)
        if jaccard >= 0.7:
            label = "entailment"
        elif jaccard <= 0.1:
            label = "contradiction"
        else:
            label = "neutral"
        items.append(
            PairItem(
                id=f"p{i:04d}",
                tokens_a=tuple(tokens_a),
                tokens_b=tuple(tokens_b),
                relatedness=round(1.0 + 4.0 * jaccard, 1),
                entailment=label,
            )
        )
    task = PairTask(name="synthetic-relatedness", items=tuple(items))
    return split(task, seed=seed), VectorTable(vocab, vectors)
