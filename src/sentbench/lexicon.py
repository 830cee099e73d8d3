"""Word vector, word frequency and sentence vector tables. Word vectors and
sentence vectors share one in-memory type, ``VectorTable``.

File formats (all UTF-8, LF or CRLF):
  word vectors     ``word v1 v2 ... vd`` per line, optional ``count dim`` header
  frequencies      ``word count`` per line, optional ``#total N`` first line
  sentence vectors ``id<TAB>v1 v2 ... vd`` per line

``save_sentence_vector_table`` writes each component with 17 significant
digits (``%.17g``), so every float64 reads back bit for bit. Both vector
parsers read the numbers of up to ``_BLOCK`` lines at a time in one
``np.loadtxt`` call. A block that does not parse that way is parsed again
line by line, so an error still names its line, and the values are always
those ``float()`` gives per token.
"""

from __future__ import annotations

import itertools
import unicodedata
from array import array
from dataclasses import dataclass, field
from typing import IO, Callable, Iterable

import numpy as np

from .errors import ParseError

_PUNCT_CATEGORIES = ("P", "S")
_BLOCK = 128  # lines per np.loadtxt call: bounds the memory a block holds
_LOADTXT_ONLY_SPACES = "\x1c\x1d\x1e\x1f"  # loadtxt strips them around a number, float() does not


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


def _block_rows(parts: list[tuple[str, str, str]], dim: int) -> np.ndarray | None:
    """The components of a block of lines, each split by ``str.partition``
    into key, separator and rest, parsed in one call into a (len(parts), dim)
    matrix equal bit for bit to ``float()`` per token. None when a line has
    no key or no separator, or its rest is not exactly ``dim`` numbers
    separated by single spaces."""
    rests = [rest.rstrip() for _, _, rest in parts]
    if not all(key and gap for key, gap, _ in parts) or "" in rests:
        return None  # loadtxt would skip an empty line, with a warning
    if any(c in rest for rest in rests for c in _LOADTXT_ONLY_SPACES):
        return None
    try:
        rows = np.loadtxt(rests, dtype=np.float64, ndmin=2, comments=None, delimiter=" ")
    except ValueError:
        return None
    return rows if rows.shape == (len(rests), dim) else None


def _vector_table(
    stream: Iterable[str],
    strip: Callable[[str], str],
    dim: int | None,
    sep: str,
    split: Callable[[str, int], list[str]],
    kind: str,
    count: int | None = None,
) -> VectorTable:
    """The ``kind`` ("word" or "sentence") vectors of a stream's lines, read
    ``_BLOCK`` non-blank ``strip``ped lines at a time.

    ``split`` gives a line's key and component fields, or raises the line's
    ParseError. In a block, ``line.partition(sep)`` splits off each key and
    one ``_block_rows`` call parses the numbers. A block that does not parse
    that way goes through ``split``, ``float()`` and the checks one line at a
    time, so the first error names its line. A duplicate word is dropped and
    counted; a duplicate sentence id is an error. ``count`` is the number of
    lines a header announced. A non-finite component is an error naming its
    line."""
    keys: list[str] = []
    seen: set[str] = set()
    flat, lines, duplicates = array("d"), [], 0
    numbered = ((lineno, strip(raw)) for lineno, raw in enumerate(stream, start=1))
    # only the key and the components of a line are held, not the line too
    split_lines = ((lineno, line.partition(sep)) for lineno, line in numbered if line)
    while block := list(itertools.islice(split_lines, _BLOCK)):
        if dim is None:
            dim = len(split("".join(block[0][1]), block[0][0])) - 1
        fresh: dict[str, int] = {}  # new key -> index of its first line
        for i, (_, (key, _, _)) in enumerate(block):
            if key not in seen:
                fresh.setdefault(key, i)
        rows = None
        if kind == "word" or len(fresh) == len(block):  # else a duplicate id to name
            rows = _block_rows([parts for _, parts in block], dim)
        if rows is not None:
            flat.frombytes(rows[list(fresh.values())].tobytes())
            seen.update(fresh)
            keys += fresh
            lines += [block[i][0] for i in fresh.values()]
            duplicates += len(block) - len(fresh)
            continue
        for lineno, parts in block:
            key, *comps = split("".join(parts), lineno)
            if len(comps) != dim:
                raise ParseError(f"expected {dim} components, found {len(comps)}", lineno)
            if key in seen and kind == "sentence":
                raise ParseError(f"duplicate sentence id {key!r}", lineno)
            if key in seen:
                duplicates += 1
                continue
            if not comps:
                raise ParseError("missing vector components", lineno)
            try:
                flat.extend(map(float, comps))
            except ValueError:
                raise ParseError("non-numeric vector component", lineno) from None
            seen.add(key)
            keys.append(key)
            lines.append(lineno)
    if not keys:
        raise ParseError(f"no {kind} vectors found in input")
    if count is not None and count != len(keys) + duplicates:
        raise ParseError(f"header announces {count} vectors, found {len(keys) + duplicates}")
    vectors = np.frombuffer(flat, dtype=np.float64).reshape(len(keys), dim)  # no copy
    finite = np.isfinite(vectors).all(axis=1)
    if not finite.all():
        raise ParseError("non-finite vector component", lines[int(finite.argmin())])
    return VectorTable(keys, vectors, duplicates)


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
    rest = iter(stream)
    first = next(rest, "")
    parts = _fields(first)
    if len(parts) == 2 and all(_is_int(p) for p in parts):
        header_dim = int(parts[1])
        if header_dim <= 0:
            raise ParseError("header dimension must be positive", 1)
        if expected_dim is not None and header_dim != expected_dim:
            raise ParseError(f"header dim {header_dim} != expected dim {expected_dim}", 1)
        count, dim, first = int(parts[0]), header_dim, ""  # a blank line 1 keeps the numbering
    lines = itertools.chain([first], rest)
    return _vector_table(lines, str.rstrip, dim, " ", lambda line, _: _fields(line), "word", count)


def load_frequency_table(stream: IO[str]) -> FrequencyTable:
    """Parse ``word count`` lines; an optional first ``#total N`` line overrides
    the total, which otherwise is the sum of counts."""
    counts: dict[str, int] = {}
    total_override: int | None = None
    for lineno, raw in enumerate(stream, start=1):
        parts = raw.split()
        if not parts:  # an empty or whitespace-only line
            continue
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


def _sentence_fields(line: str, lineno: int) -> list[str]:
    if "\t" not in line:
        raise ParseError("expected `id<TAB>components`", lineno)
    sid, rest = line.split("\t", 1)
    return [sid, *_fields(rest)]


def load_sentence_vector_table(stream: IO[str]) -> VectorTable:
    """Parse ``id<TAB>v1 v2 ... vd`` lines. Duplicate ids and inconsistent
    dimensions are errors."""
    return _vector_table(
        stream, lambda raw: raw.rstrip("\r\n"), None, "\t", _sentence_fields, "sentence"
    )


def save_sentence_vector_table(table: VectorTable, stream: IO[str]) -> None:
    """Write ``id<TAB>v1 v2 ... vd`` lines, each component with 17
    significant digits (lossless). One ``%`` call formats a whole row."""
    row = "%s\t" + " ".join(["%.17g"] * table.dim) + "\n"
    for sid, vec in zip(table.keys, table.vectors):
        stream.write(row % (sid, *vec.tolist()))


def _is_punct_only(token: str) -> bool:
    return all(unicodedata.category(ch).startswith(_PUNCT_CATEGORIES) for ch in token)


def tokenize(text: str, lowercase: bool = True) -> list[str]:
    """Whitespace tokenizer: NFC-normalize, split on Unicode whitespace, drop
    punctuation-only tokens, optionally lowercase. An ``isalnum`` token is kept
    without a category lookup: no alphanumeric character is in a P or S
    category."""
    text = unicodedata.normalize("NFC", text)
    if lowercase:
        text = text.lower()
    return [tok for tok in text.split() if tok.isalnum() or not _is_punct_only(tok)]
