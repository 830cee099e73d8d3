"""Reference implementations the tests compare the program against.

They do one float, one line or one character at a time, the plain way, so
that a faster path in ``sentbench`` can be checked for equal bytes, values
and errors.
"""

from __future__ import annotations

import unicodedata
from array import array
from typing import IO, Sequence

import numpy as np

from sentbench.errors import ParseError
from sentbench.lexicon import VectorTable, _fields, _is_int
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


def load_word_vectors_by_line(stream: IO[str], expected_dim: int | None = None) -> VectorTable:
    """The word-vector parser with one ``float()`` per token and every check
    made line by line."""
    dim, count = expected_dim, None
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
            if expected_dim is not None and header_dim != expected_dim:
                raise ParseError(
                    f"header dim {header_dim} != expected dim {expected_dim}", lineno
                )
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


def tokenize(text: str, lowercase: bool = True) -> list[str]:
    """The tokenizer with one category lookup per character of every token:
    a token is dropped when each of its characters is in a P or S category."""
    text = unicodedata.normalize("NFC", text)
    if lowercase:
        text = text.lower()
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
