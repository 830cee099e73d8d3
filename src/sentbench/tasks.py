"""Task datasets: loading, validation, splitting and synthetic generation.

Every task is one ``Task``: its sentences in corpus order and one gold label
per item, plus a relatedness score per pair for pair tasks. A task of n pairs
holds 2n sentences: the n A sentences, then the n B sentences, so pair i owns
rows i and n + i, with sentence ids ``<pair_ID>_A`` and ``<pair_ID>_B``.

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
MAX_SCORE = 5  # relatedness runs from 1 to MAX_SCORE; its probe has one bin per point


@dataclass(frozen=True)
class Task:
    """One task of any kind: one gold label per item, plus a relatedness
    score per pair for pair tasks.

    ``sentences`` holds every sentence once, in corpus order. A pair task
    (``pair_ids`` set) holds its n A sentences, then its n B sentences, so
    item i owns rows i and n + i; ``rows`` states that layout for the rest of
    the program. A pair task's labels are its entailment judgments.

    The loaders check the rules a file can break, each at its line: every
    label is in ``label_set``, every score in [1, MAX_SCORE], pair ids are
    unique and split names known. ``TaskSpec`` keeps ``label_set`` free of
    duplicates. A task built in code must meet these rules itself; the
    constructor checks only the layout: one or two sentences, one score and
    one pair id per item, and split indices in range, each in one split.
    """

    name: str
    sentences: tuple[tuple[str, ...], ...]
    labels: tuple[str, ...]
    label_set: tuple[str, ...]
    pair_ids: tuple[str, ...] | None = None
    scores: tuple[float, ...] | None = None
    splits: dict[str, list[int]] = field(default_factory=dict)

    def __post_init__(self):
        n = len(self.labels)
        per_item = 1 if self.pair_ids is None else 2
        if len(self.sentences) != per_item * n:
            raise ValueError(f"{n} items need {per_item * n} sentences, not {len(self.sentences)}")
        if self.pair_ids is not None and len(self.pair_ids) != n:
            raise ValueError(f"expected {n} pair ids, found {len(self.pair_ids)}")
        if self.scores is not None and len(self.scores) != n:
            raise ValueError(f"expected {n} scores, found {len(self.scores)}")
        _check_splits(self.splits, n)

    def rows(self, items: Sequence[int]) -> list[int]:
        """Corpus rows of the given items, in order: for a pair task, the A
        rows of all of them, then their B rows."""
        items = list(items)
        if self.pair_ids is None:
            return items
        return items + [i + len(self.labels) for i in items]

    def sentence_ids(self) -> list[str]:
        """One id per corpus row, as keyed in a sentence-vector TSV: the row
        number, or ``<pair_ID>_A`` then ``<pair_ID>_B``."""
        if self.pair_ids is None:
            return [str(i) for i in range(len(self.sentences))]
        return [f"{pid}_{side}" for side in "AB" for pid in self.pair_ids]

    def vocabulary(self) -> list[str]:
        """Distinct tokens in order of first use, item by item (a pair's A
        sentence before its B sentence). ``random_table`` draws one row per
        word in this order, so random-lexicon results depend on it."""
        rows = (r for i in range(len(self.labels)) for r in self.rows([i]))
        return list(dict.fromkeys(t for r in rows for t in self.sentences[r]))


def _check_splits(splits: dict[str, list[int]], n: int) -> None:
    seen: set[int] = set()
    for idxs in splits.values():
        for i in idxs:
            if not 0 <= i < n:
                raise ValueError(f"split index {i} out of range")
            if i in seen:
                raise ValueError(f"index {i} appears in two splits")
            seen.add(i)


def _rows(lines: IO[str], start: int = 1):
    """(line number, tab-split columns) of each non-empty line, its LF or
    CRLF dropped, numbered from ``start``."""
    for lineno, raw in enumerate(lines, start):
        line = raw.rstrip("\r\n")
        if line:
            yield lineno, line.split("\t")


def load_classification_tsv(stream: IO[str], label_set: Sequence[str] | None = None) -> Task:
    """Parse ``label<TAB>sentence`` lines with an optional split column into
    a task named ``"task"``; a run names it after its spec.

    Without a label_set the labels are collected in order of first appearance.
    Rows without a split column stay unassigned, pending :func:`split`.
    """
    known = list(label_set) if label_set is not None else None
    sentences: list[tuple[str, ...]] = []
    labels: list[str] = []
    splits: dict[str, list[int]] = {}
    for lineno, cols in _rows(stream):
        if len(cols) < 2:
            raise ParseError("expected `label<TAB>sentence`", lineno)
        if len(cols) > 3:
            raise ParseError(f"too many columns ({len(cols)})", lineno)
        label = unicodedata.normalize("NFC", cols[0])
        if known is not None and label not in known:
            raise ParseError(f"unknown label {label!r}", lineno)
        if len(cols) == 3:
            if cols[2] not in SPLIT_NAMES:
                raise ParseError(f"unknown split {cols[2]!r}", lineno)
            splits.setdefault(cols[2], []).append(len(labels))
        sentences.append(tuple(tokenize(cols[1])))
        labels.append(label)
    if not labels:
        raise ParseError("no rows in classification file")
    final_labels = tuple(known) if known is not None else tuple(dict.fromkeys(labels))
    return Task("task", tuple(sentences), tuple(labels), final_labels, splits=splits)


_SEMEVAL_SPLITS = {"TRAIN": "train", "TRIAL": "dev", "TEST": "test"}
_PAIR_COLUMNS = ("pair_ID", "sentence_A", "sentence_B", "relatedness_score", "entailment_judgment")


def load_sick_tsv(stream: IO[str]) -> Task:
    """Parse the sentence-pair TSV with a named-column header into a task
    named ``"sick"``; a run names it after its spec, and scores it as a
    relatedness or an entailment task from one parse."""
    header_line = stream.readline()
    if not header_line:
        raise ParseError("empty pair file")
    header = header_line.rstrip("\r\n").split("\t")
    col: dict[str, int] = {c: i for i, c in enumerate(header)}
    for needed in _PAIR_COLUMNS:
        if needed not in col:
            raise ParseError(f"missing column {needed!r}", 1)
    has_split = "SemEval_set" in col
    ids: dict[str, None] = {}
    sentences_a: list[tuple[str, ...]] = []
    sentences_b: list[tuple[str, ...]] = []
    scores: list[float] = []
    labels: list[str] = []
    splits: dict[str, list[int]] = {}
    for lineno, cols in _rows(stream, start=2):
        if len(cols) < len(header):
            raise ParseError(f"expected {len(header)} columns, found {len(cols)}", lineno)
        pid = cols[col["pair_ID"]]
        if pid in ids:
            raise ParseError(f"duplicate pair_ID {pid!r}", lineno)
        ids[pid] = None
        try:
            score = float(cols[col["relatedness_score"]])
        except ValueError:
            raise ParseError("non-numeric relatedness score", lineno) from None
        if not 1.0 <= score <= MAX_SCORE:
            raise ParseError(f"relatedness {score} outside [1, {MAX_SCORE}]", lineno)
        entailment = cols[col["entailment_judgment"]].lower()
        if entailment not in ENTAILMENT_LABELS:
            raise ParseError(f"unknown entailment label {cols[col['entailment_judgment']]!r}", lineno)
        if has_split:
            raw_split = cols[col["SemEval_set"]]
            if raw_split not in _SEMEVAL_SPLITS:
                raise ParseError(f"unknown SemEval_set {raw_split!r}", lineno)
            splits.setdefault(_SEMEVAL_SPLITS[raw_split], []).append(len(labels))
        sentences_a.append(tuple(tokenize(cols[col["sentence_A"]])))
        sentences_b.append(tuple(tokenize(cols[col["sentence_B"]])))
        scores.append(score)
        labels.append(entailment)
    if not labels:
        raise ParseError("no rows in pair file")
    return Task("sick", tuple(sentences_a + sentences_b), tuple(labels),
                ENTAILMENT_LABELS, pair_ids=tuple(ids), scores=tuple(scores), splits=splits)


def split(task, ratios: tuple[float, float, float] = DEFAULT_RATIOS, seed: int = 0):
    """Assign train/dev/test splits by a seeded shuffle and contiguous
    partition. Sizes of dev and test round to nearest; the remainder goes to
    train; ratios that leave train or test empty are an error. The ratios
    must be nonnegative and sum to 1, as ``RunConfig`` checks. Returns a copy
    of the task; the input is untouched."""
    n = len(task.labels)
    if n < 3:
        raise ValueError("need at least 3 items to split")
    n_dev = round(n * ratios[1])
    n_test = round(n * ratios[2])
    n_train = n - n_dev - n_test
    for name, size in (("train", n_train), ("test", n_test)):
        if size < 1:
            raise ValueError(f"ratios {tuple(ratios)} leave the {name} split empty for {n} items")
    order = np.random.default_rng(seed).permutation(n)
    splits = {
        "train": [int(i) for i in order[:n_train]],
        "dev": [int(i) for i in order[n_train : n_train + n_dev]],
        "test": [int(i) for i in order[n_train + n_dev :]],
    }
    return replace(task, splits=splits)


def _pick(rng: np.random.Generator, words: list[str], size: int, replace=False) -> list[str]:
    """``rng.choice(words, size, replace)`` as a list, without turning ``words``
    into an array on every call. With replacement it draws through
    ``rng.integers``, which gives the indices and generator state ``choice``
    gives, without its per-call overhead; ``TestGeneratorsMatchListDraws``
    fails on a NumPy where the two streams differ."""
    n = len(words)
    draw = rng.integers(0, n, size) if replace else rng.choice(n, size=size, replace=False)
    return [words[j] for j in draw.tolist()]


def synthetic_classification(
    classes: int = 2, items: int = 200, vocab_per_class: int = 20, seed: int = 0, dim: int = 16
) -> tuple[Task, VectorTable]:
    """Desk-scale classification oracle: each class owns a disjoint word set
    clustered tightly around its own centroid, so mean pooling separates the
    classes by construction. Splits use the default ratios and the same seed.
    The keyword parameters are the keys of a config's ``synthetic`` block."""
    if classes < 2 or items < classes:
        raise ValueError("need classes >= 2 and items >= classes")
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
        sentences.append(tuple(_pick(rng, class_words[k], length, replace=True)))
        labels.append(f"c{k}")
    label_set = tuple(f"c{k}" for k in range(classes))
    task = Task("synthetic-classification", tuple(sentences), tuple(labels), label_set)
    table = VectorTable([w for words in class_words for w in words], vectors)
    return split(task, seed=seed), table


def synthetic_relatedness(
    pairs: int = 300, dim: int = 16, seed: int = 0
) -> tuple[Task, VectorTable]:
    """Desk-scale relatedness oracle over a shared random lexicon. Gold
    relatedness is 1 + 4 * (token Jaccard overlap), rounded to 0.1; entailment
    labels come from overlap thresholds (>= 0.7 entailment, <= 0.1
    contradiction, neutral otherwise). The keyword parameters are the keys of
    a config's ``synthetic`` block."""
    if pairs < 10:
        raise ValueError("need at least 10 pairs")
    rng = np.random.default_rng(seed)
    # Two word clusters on opposite ends of one semantic axis. Non-shared
    # words come from the opposite cluster, so the pair features vary almost
    # purely with the token overlap and stay learnable by the default probe.
    vocab = [f"t{j}" for j in range(60)]
    half = len(vocab) // 2
    axis = rng.standard_normal(dim)
    axis /= np.linalg.norm(axis)
    vectors = np.repeat([axis, -axis], half, axis=0) + 0.05 * rng.standard_normal((len(vocab), dim))
    clusters = (vocab[:half], vocab[half:])
    k = 8  # tokens per sentence
    sentences_a, sentences_b, scores, labels = [], [], [], []
    for i in range(pairs):
        own, other = clusters if i % 2 == 0 else clusters[::-1]
        tokens_a = _pick(rng, own, k)
        target = rng.uniform(0.0, 1.0)
        m = round(target * 2 * k / (1 + target))
        shared = _pick(rng, tokens_a, m)
        fresh = _pick(rng, other, k - m)
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
