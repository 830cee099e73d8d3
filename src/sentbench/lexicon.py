"""Word vector, word frequency and sentence vector tables.

File formats (all UTF-8, LF or CRLF):
  word vectors     ``word v1 v2 ... vd`` per line, optional ``count dim`` header
  frequencies      ``word count`` per line, optional ``#total N`` first line
  sentence vectors ``id<TAB>v1 v2 ... vd`` per line
"""

from __future__ import annotations

import unicodedata
from dataclasses import dataclass, field
from typing import IO, Iterable, Sequence

import numpy as np

from .errors import ParseError

_PUNCT_CATEGORIES = ("P", "S")


@dataclass(frozen=True)
class WordVectorTable:
    """Immutable word -> d-dimensional vector lookup."""

    dim: int
    entries: dict[str, np.ndarray]
    duplicates: int = 0  # duplicate lines dropped during load (first wins)

    def __post_init__(self):
        if self.dim <= 0:
            raise ValueError("dim must be positive")
        for word, vec in self.entries.items():
            if vec.shape != (self.dim,):
                raise ValueError(f"vector for {word!r} has wrong length")
            if not np.all(np.isfinite(vec)):
                raise ValueError(f"vector for {word!r} is not finite")

    def __contains__(self, word: str) -> bool:
        return word in self.entries

    def __len__(self) -> int:
        return len(self.entries)

    def get(self, word: str) -> np.ndarray | None:
        return self.entries.get(word)


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


@dataclass(frozen=True)
class SentenceVectorTable:
    """Precomputed sentence vectors keyed by sentence id."""

    dim: int
    entries: dict[str, np.ndarray]

    def __post_init__(self):
        for sid, vec in self.entries.items():
            if vec.shape != (self.dim,):
                raise ValueError(f"vector for id {sid!r} has wrong length")
            if not np.all(np.isfinite(vec)):
                raise ValueError(f"vector for id {sid!r} is not finite")

    def __len__(self) -> int:
        return len(self.entries)


def _fields(raw: str) -> list[str]:
    """Space-separated fields of a line. Trailing whitespace and runs of
    spaces, as in word2vec text files, yield no empty fields."""
    parts = raw.rstrip().split(" ")
    return [p for p in parts if p] if "" in parts else parts


def _parse_floats(parts: Sequence[str], lineno: int) -> np.ndarray:
    if not parts:
        raise ParseError("missing vector components", lineno)
    try:
        vec = np.array([float(p) for p in parts], dtype=np.float64)
    except ValueError:
        raise ParseError("non-numeric vector component", lineno) from None
    if not np.all(np.isfinite(vec)):
        raise ParseError("non-finite vector component", lineno)
    return vec


def _is_int(tok: str) -> bool:
    try:
        int(tok)
        return True
    except ValueError:
        return False


def load_word_vectors(stream: IO[str], expected_dim: int | None = None) -> WordVectorTable:
    """Parse word2vec-style text vectors. Fields are separated by one or more
    spaces; trailing whitespace is ignored.

    A first line consisting of exactly two integer tokens is treated as a
    ``count dim`` header. Otherwise the dimensionality is ``expected_dim`` or
    the token count of the first data line. Duplicate words keep the first
    occurrence; the number of dropped duplicates is recorded on the table.
    """
    dim = expected_dim
    entries: dict[str, np.ndarray] = {}
    duplicates = 0
    first_data_seen = False
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
            dim = header_dim
            continue
        word, comps = parts[0], parts[1:]
        if dim is None:
            dim = len(comps)
        if len(comps) != dim:
            raise ParseError(f"expected {dim} components, found {len(comps)}", lineno)
        if word in entries:
            duplicates += 1
            continue
        entries[word] = _parse_floats(comps, lineno)
        first_data_seen = True
    if not first_data_seen:
        raise ParseError("no word vectors found in input")
    return WordVectorTable(dim=dim, entries=entries, duplicates=duplicates)


def serialize_word_vectors(table: WordVectorTable, stream: IO[str], header: bool = True) -> None:
    """Write the table in the same text format (17 significant digits, lossless)."""
    if header:
        stream.write(f"{len(table.entries)} {table.dim}\n")
    for word, vec in table.entries.items():
        comps = " ".join(format(x, ".17g") for x in vec)
        stream.write(f"{word} {comps}\n")


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


def random_table(vocab: Iterable[str], dim: int, seed: int) -> WordVectorTable:
    """Baseline lexicon: one standard Gaussian vector per word, deterministic in
    (vocab, dim, seed)."""
    words = list(vocab)
    if not words:
        raise ValueError("vocab must be non-empty")
    if len(set(words)) != len(words):
        raise ValueError("vocab words must be unique")
    if dim <= 0:
        raise ValueError("dim must be positive")
    rng = np.random.default_rng(seed)
    entries = {w: rng.standard_normal(dim) for w in words}
    return WordVectorTable(dim=dim, entries=entries)


def normalize(v: np.ndarray) -> np.ndarray:
    """Scale to unit Euclidean length; rejects the zero vector."""
    v = np.asarray(v, dtype=np.float64)
    norm = np.linalg.norm(v)
    if norm == 0.0:
        raise ValueError("cannot normalize the zero vector")
    return v / norm


def sentence_token_vectors(
    table: WordVectorTable, tokens: Sequence[str], do_normalize: bool = True
) -> list[np.ndarray]:
    """In-order vectors for the in-vocabulary tokens of a sentence.

    Out-of-vocabulary tokens are skipped; an all-OOV sentence yields an empty
    list. With ``do_normalize`` each vector is scaled to unit length so every
    word contributes equally to a mean.
    """
    out = []
    for tok in tokens:
        vec = table.entries.get(tok)
        if vec is None:
            continue
        out.append(normalize(vec) if do_normalize else vec)
    return out


def load_sentence_vector_table(stream: IO[str]) -> SentenceVectorTable:
    """Parse ``id<TAB>v1 v2 ... vd`` lines. Duplicate ids and inconsistent
    dimensions are errors."""
    entries: dict[str, np.ndarray] = {}
    dim: int | None = None
    for lineno, raw in enumerate(stream, start=1):
        line = raw.rstrip("\r\n")
        if not line:
            continue
        if "\t" not in line:
            raise ParseError("expected `id<TAB>components`", lineno)
        sid, rest = line.split("\t", 1)
        vec = _parse_floats(_fields(rest), lineno)
        if dim is None:
            dim = len(vec)
        elif len(vec) != dim:
            raise ParseError(f"expected {dim} components, found {len(vec)}", lineno)
        if sid in entries:
            raise ParseError(f"duplicate sentence id {sid!r}", lineno)
        entries[sid] = vec
    if dim is None:
        raise ParseError("no sentence vectors found in input")
    return SentenceVectorTable(dim=dim, entries=entries)


def save_sentence_vector_table(table: SentenceVectorTable, stream: IO[str]) -> None:
    for sid, vec in table.entries.items():
        comps = " ".join(format(x, ".17g") for x in vec)
        stream.write(f"{sid}\t{comps}\n")


def _is_punct_only(token: str) -> bool:
    return all(unicodedata.category(ch).startswith(_PUNCT_CATEGORIES) for ch in token)


def tokenize(text: str, lowercase: bool = True) -> list[str]:
    """Whitespace tokenizer: NFC-normalize, split on Unicode whitespace, drop
    punctuation-only tokens, optionally lowercase."""
    text = unicodedata.normalize("NFC", text)
    if lowercase:
        text = text.lower()
    return [tok for tok in text.split() if tok and not _is_punct_only(tok)]
