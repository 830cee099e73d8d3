"""Word vector, word frequency and sentence vector tables. Word vectors and
sentence vectors share one in-memory type, ``VectorTable``.

File formats (all UTF-8, LF or CRLF):
  word vectors     ``word v1 v2 ... vd`` per line, optional ``count dim`` header
  frequencies      ``word count`` per line, optional ``#total N`` first line
  sentence vectors ``id<TAB>v1 v2 ... vd`` per line
"""

from __future__ import annotations

import unicodedata
from array import array
from dataclasses import dataclass, field
from typing import IO, Iterable, Sequence

import numpy as np

from .errors import ParseError

_PUNCT_CATEGORIES = ("P", "S")


@dataclass(frozen=True, eq=False)
class VectorTable:
    """Word or sentence-id vectors: ``keys[i]`` owns row i of ``vectors``, one
    read-only (n, d) float64 matrix, and ``row`` maps each key to its row."""

    keys: tuple[str, ...]
    vectors: np.ndarray
    duplicates: int = 0  # duplicate lines dropped during load (first wins)
    row: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self):
        keys = tuple(self.keys)
        vectors = np.asarray(self.vectors, dtype=np.float64).view()
        if vectors.ndim != 2 or len(vectors) != len(keys):
            raise ValueError("vectors must be a matrix with one row per key")
        if vectors.shape[1] <= 0:
            raise ValueError("dim must be positive")
        if not np.isfinite(vectors).all():
            raise ValueError("vectors must be finite")
        row = {key: i for i, key in enumerate(keys)}
        if len(row) != len(keys):
            raise ValueError("keys must be unique")
        vectors.flags.writeable = False
        object.__setattr__(self, "keys", keys)
        object.__setattr__(self, "vectors", vectors)
        object.__setattr__(self, "row", row)

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]


@dataclass(frozen=True)
class FrequencyTable:
    """Corpus word counts with the total corpus token count.

    ``total`` may exceed the sum of counts (the counts can cover only a
    vocabulary subset of the corpus) but never falls below any single count.
    """

    counts: dict[str, int]
    total: int

    def __post_init__(self):
        if self.total <= 0:
            raise ValueError("total must be positive")
        for word, c in self.counts.items():
            if c < 0:
                raise ValueError(f"negative count for {word!r}")
            if c > self.total:
                raise ValueError(f"count for {word!r} exceeds total")


def _fields(raw: str) -> list[str]:
    """Space-separated fields of a line. Trailing whitespace and runs of
    spaces, as in word2vec text files, yield no empty fields."""
    parts = raw.rstrip().split(" ")
    return [p for p in parts if p] if "" in parts else parts


def _append_floats(flat: array, parts: Sequence[str], lineno: int) -> None:
    if not parts:
        raise ParseError("missing vector components", lineno)
    try:
        flat.extend(map(float, parts))
    except ValueError:
        raise ParseError("non-numeric vector component", lineno) from None


def _parsed_table(
    keys: list[str], flat: array, dim: int, lines: list[int], duplicates: int = 0
) -> VectorTable:
    """The parsed components viewed as one (n, d) matrix, without a copy. A
    non-finite component is an error naming its line."""
    vectors = np.frombuffer(flat, dtype=np.float64).reshape(len(keys), dim)
    finite = np.isfinite(vectors).all(axis=1)
    if not finite.all():
        raise ParseError("non-finite vector component", lines[int(finite.argmin())])
    return VectorTable(keys, vectors, duplicates)


def _components(vec: np.ndarray) -> str:
    return " ".join(format(x, ".17g") for x in vec)  # 17 significant digits: lossless


def _is_int(tok: str) -> bool:
    try:
        int(tok)
        return True
    except ValueError:
        return False


def load_word_vectors(stream: IO[str], expected_dim: int | None = None) -> VectorTable:
    """Parse word2vec-style text vectors. Fields are separated by one or more
    spaces; trailing whitespace is ignored.

    A first line consisting of exactly two integer tokens is treated as a
    ``count dim`` header, and the file must then hold ``count`` vector lines
    (dropped duplicates included), so a truncated file is an error. Otherwise
    the dimensionality is ``expected_dim`` or the token count of the first
    data line. Duplicate words keep the first occurrence; the number of
    dropped duplicates is recorded on the table.
    """
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
    return _parsed_table(words, flat, dim, lines, duplicates)


def serialize_word_vectors(table: VectorTable, stream: IO[str], header: bool = True) -> None:
    """Write the table in the same text format."""
    if header:
        stream.write(f"{len(table.keys)} {table.dim}\n")
    for word, vec in zip(table.keys, table.vectors):
        stream.write(f"{word} {_components(vec)}\n")


def load_frequency_table(stream: IO[str]) -> FrequencyTable:
    """Parse ``word count`` lines; an optional first ``#total N`` line overrides
    the total, which otherwise is the sum of counts."""
    counts: dict[str, int] = {}
    total_override: int | None = None
    for lineno, raw in enumerate(stream, start=1):
        line = raw.rstrip("\r\n")
        if not line:
            continue
        parts = line.split()
        if lineno == 1 and parts[0] == "#total":
            if len(parts) != 2 or not _is_int(parts[1]):
                raise ParseError("malformed #total line", lineno)
            total_override = int(parts[1])
            continue
        if len(parts) != 2:
            raise ParseError("expected `word count`", lineno)
        word, count_tok = parts
        if not _is_int(count_tok):
            raise ParseError(f"non-integer count {count_tok!r}", lineno)
        count = int(count_tok)
        if count < 0:
            raise ParseError(f"negative count for {word!r}", lineno)
        counts[word] = count
    total = total_override if total_override is not None else sum(counts.values())
    if total <= 0:
        raise ParseError("frequency table has no tokens")
    return FrequencyTable(counts=counts, total=total)


def unigram_probability(ft: FrequencyTable, word: str) -> float:
    """Corpus probability of a word; unknown words have probability 0."""
    return ft.counts.get(word, 0) / ft.total


def random_table(vocab: Iterable[str], dim: int, seed: int) -> VectorTable:
    """Baseline lexicon: one standard Gaussian vector per word, deterministic in
    (vocab, dim, seed)."""
    words = tuple(vocab)
    if not words:
        raise ValueError("vocab must be non-empty")
    return VectorTable(words, np.random.default_rng(seed).standard_normal((len(words), dim)))


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


def load_sentence_vector_table(stream: IO[str]) -> VectorTable:
    """Parse ``id<TAB>v1 v2 ... vd`` lines. Duplicate ids and inconsistent
    dimensions are errors."""
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
    return _parsed_table(ids, flat, dim, lines)


def save_sentence_vector_table(table: VectorTable, stream: IO[str]) -> None:
    for sid, vec in zip(table.keys, table.vectors):
        stream.write(f"{sid}\t{_components(vec)}\n")


def _is_punct_only(token: str) -> bool:
    return all(unicodedata.category(ch).startswith(_PUNCT_CATEGORIES) for ch in token)


def tokenize(text: str, lowercase: bool = True) -> list[str]:
    """Whitespace tokenizer: NFC-normalize, split on Unicode whitespace, drop
    punctuation-only tokens, optionally lowercase."""
    text = unicodedata.normalize("NFC", text)
    if lowercase:
        text = text.lower()
    return [tok for tok in text.split() if tok and not _is_punct_only(tok)]
