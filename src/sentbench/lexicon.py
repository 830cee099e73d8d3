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
those ``float()`` gives per token. Either way a block's kept rows are
checked, and normalised when asked, before they join the table.
"""

from __future__ import annotations

import itertools
import sys
import unicodedata
from array import array
from dataclasses import dataclass, field
from typing import IO, Callable, Iterable

import numpy as np

from .errors import ParseError

_PUNCT_CATEGORIES = ("P", "S")
_BLOCK = 128  # lines per np.loadtxt call: bounds the memory a block holds
BLOCK_FLOATS = 2**17  # float64 values (1 MB) per temporary row block, here and in `aggregate`
_LOADTXT_ONLY_SPACES = "\x1c\x1d\x1e\x1f"  # loadtxt strips them around a number, float() does not


@dataclass(frozen=True, eq=False)
class VectorTable:
    """Word or sentence-id vectors: ``keys[i]`` owns row i of ``vectors``, one
    read-only (n, d) float64 matrix, and ``row`` maps each key to its row.

    The vector loaders check that every component is finite and name the
    line of the first that is not; word vectors loaded unit-normalised hold
    NaN only in the row of an all-zero vector. A table built in code must
    hold finite vectors itself; the constructor checks only the shape and
    that keys are unique."""

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
    ``load_frequency_table`` checks that, that no count is negative and that
    the total is positive, and names the line at fault. A table built in
    code is not checked: it must meet the same rules, so that every word
    probability lies in [0, 1].
    """

    counts: dict[str, int]
    total: int


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


def _line_rows(block: list, dim: int, kind: str, fresh: dict[str, int]) -> np.ndarray:
    """The rows of a block's ``fresh`` lines (new key -> index of its first
    line), one ``float()`` per token, after every line's checks, made in
    line order so that the first error names its line. Any other line is a
    duplicate: an error for a sentence id, and for a word dropped unparsed."""
    flat = array("d")
    for i, (lineno, (key, gap, rest)) in enumerate(block):
        if not gap and kind == "sentence":
            raise ParseError("expected `id<TAB>components`", lineno)
        comps = _fields(rest)
        if len(comps) != dim:
            raise ParseError(f"expected {dim} components, found {len(comps)}", lineno)
        if fresh.get(key) != i:
            if kind == "sentence":
                raise ParseError(f"duplicate sentence id {key!r}", lineno)
            continue
        if not comps:
            raise ParseError("missing vector components", lineno)
        try:
            flat.extend(map(float, comps))
        except ValueError:
            raise ParseError("non-numeric vector component", lineno) from None
    return np.frombuffer(flat).reshape(len(fresh), dim)


def _vector_table(
    stream: Iterable[str],
    strip: Callable[[str], str],
    dim: int | None,
    sep: str,
    kind: str,
    count: int | None = None,
    unit: bool = False,
) -> VectorTable:
    """The ``kind`` ("word" or "sentence") vectors of a stream's lines, read
    ``_BLOCK`` non-blank ``strip``ped lines at a time.

    ``line.partition(sep)`` splits each line once, into its key, the
    separator and the rest, whose `_fields` are the components. In a block,
    one ``_block_rows`` call parses the numbers of every rest. A block that
    does not parse that way goes through `_fields`, ``float()`` and the
    checks one line at a time, so the first error names its line; a dropped
    duplicate word is not parsed. A sentence line needs its separator; a
    word line without one has no components. A duplicate word is dropped
    and counted; a duplicate sentence id is an error. ``count`` is the
    number of lines a header announced.

    Either way, one tail keeps the block's fresh rows: it checks them for
    non-finite components, divides them by their norms with `unit_rows`
    when ``unit`` is set, and appends them, so no pass over the whole table
    follows. A non-finite component is an error naming the line of the
    first such row, raised after the header count is checked."""
    keys: list[str] = []
    seen: set[str] = set()
    flat, duplicates, non_finite = array("d"), 0, None  # line of the first non-finite row
    numbered = ((lineno, strip(raw)) for lineno, raw in enumerate(stream, start=1))
    # only the key and the components of a line are held, not the line too
    split_lines = ((lineno, line.partition(sep)) for lineno, line in numbered if line)
    while block := list(itertools.islice(split_lines, _BLOCK)):
        if dim is None:
            dim = len(_fields(block[0][1][2]))
        fresh: dict[str, int] = {}  # new key -> index of its first line
        for i, (_, (key, _, _)) in enumerate(block):
            if key not in seen:
                fresh.setdefault(key, i)
        picked = list(fresh.values())
        rows = None
        if kind == "word" or len(picked) == len(block):  # else a duplicate id to name
            rows = _block_rows([parts for _, parts in block], dim)
        rows = _line_rows(block, dim, kind, fresh) if rows is None else rows[picked]
        if non_finite is None and not np.isfinite(rows).all():
            non_finite = block[picked[np.isfinite(rows).all(axis=1).argmin()]][0]
        flat.frombytes((unit_rows(rows) if unit else rows).tobytes())
        seen.update(fresh)
        keys += fresh
        duplicates += len(block) - len(picked)
    if not keys:
        raise ParseError(f"no {kind} vectors found in input")
    if count is not None and count != len(keys) + duplicates:
        raise ParseError(f"header announces {count} vectors, found {len(keys) + duplicates}")
    if non_finite is not None:
        raise ParseError("non-finite vector component", non_finite)
    return VectorTable(keys, np.frombuffer(flat).reshape(len(keys), dim), duplicates)  # no copy


def unit_rows(E: np.ndarray) -> np.ndarray:
    """Divide each row of the writable float64 matrix ``E`` by its Euclidean
    norm, in place, and return ``E``. A row whose squares under- or overflow
    is first scaled by an exact power of two, so it normalises like any
    other; an all-zero row becomes NaN, which `aggregate.embed_corpus`
    reports when a sentence uses it. Norms are taken over blocks of about
    ``BLOCK_FLOATS`` values, so the squares they sum never fill a second
    (V, d) array; each row reduces alone, so its norm has the same bits
    either way."""
    k = max(1, BLOCK_FLOATS // E.shape[1])
    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.empty((len(E), 1))
        for s in range(0, len(E), k):
            norms[s : s + k] = np.linalg.norm(E[s : s + k], axis=1, keepdims=True)
        extreme = (norms[:, 0] < 1e-150) | (norms[:, 0] == np.inf)
        if extreme.any():  # squares under- or overflow: scale by an exact power of two first
            peak = np.abs(E[extreme]).max(axis=1, keepdims=True)
            E[extreme] = np.ldexp(E[extreme], -np.frexp(peak)[1])
            norms[extreme] = np.linalg.norm(E[extreme], axis=1, keepdims=True)
        E /= norms
    return E


def _is_int(tok: str) -> bool:
    try:
        int(tok)
        return True
    except ValueError:
        return False


def load_word_vectors(stream: IO[str], unit: bool = False) -> VectorTable:
    """Parse word2vec-style text vectors. Fields are separated by one or more
    spaces; trailing whitespace is ignored. With ``unit`` every row is
    divided by its norm (`unit_rows`) one block at a time, as it joins the
    table, so the run holds one unit-normalised copy of the file's vectors
    and no pass over the whole table follows; an all-zero row becomes NaN.
    Errors are those of a line-by-line parse: a malformed line first, then
    a header count that does not match, then the first non-finite row.

    A first line consisting of exactly two integer tokens is treated as a
    ``count dim`` header, and the file must then hold ``count`` vector lines
    (dropped duplicates included), so a truncated file is an error. Otherwise
    the dimensionality is the token count of the first data line. Duplicate
    words keep the first occurrence; the number of dropped duplicates is
    recorded on the table.
    """
    dim, count = None, None
    rest = iter(stream)
    first = next(rest, "")
    parts = _fields(first)
    if len(parts) == 2 and all(_is_int(p) for p in parts):
        header_dim = int(parts[1])
        if header_dim <= 0:
            raise ParseError("header dimension must be positive", 1)
        count, dim, first = int(parts[0]), header_dim, ""  # a blank line 1 keeps the numbering
    lines = itertools.chain([first], rest)
    # leading spaces go before the partition, as `_fields` drops them
    return _vector_table(lines, lambda raw: raw.rstrip().lstrip(" "), dim, " ", "word", count, unit)


def load_frequency_table(stream: IO[str]) -> FrequencyTable:
    """Parse ``word count`` lines; an optional first ``#total N`` line overrides
    the total, which otherwise is the sum of counts. A duplicate word, a
    negative count, a count above ``#total`` and a total that is not
    positive are errors."""
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
        if word in counts:
            raise ParseError(f"duplicate word {word!r}", lineno)
        if not _is_int(count_tok):
            raise ParseError(f"non-integer count {count_tok!r}", lineno)
        count = int(count_tok)
        if count < 0:
            raise ParseError(f"negative count for {word!r}", lineno)
        if total_override is not None and count > total_override:
            raise ParseError(f"count {count} for {word!r} exceeds #total {total_override}", lineno)
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


def load_sentence_vector_table(stream: IO[str]) -> VectorTable:
    """Parse ``id<TAB>v1 v2 ... vd`` lines. Duplicate ids and inconsistent
    dimensions are errors."""
    return _vector_table(stream, lambda raw: raw.rstrip("\r\n"), None, "\t", "sentence")


def save_sentence_vector_table(table: VectorTable, stream: IO[str]) -> None:
    """Write ``id<TAB>v1 v2 ... vd`` lines, each component with 17
    significant digits (lossless). One ``%`` call formats a whole row."""
    row = "%s\t" + " ".join(["%.17g"] * table.dim) + "\n"
    for sid, vec in zip(table.keys, table.vectors):
        stream.write(row % (sid, *vec.tolist()))


def _is_punct_only(token: str) -> bool:
    return all(unicodedata.category(ch).startswith(_PUNCT_CATEGORIES) for ch in token)


def tokenize(text: str) -> list[str]:
    """Whitespace tokenizer: NFC-normalize, lowercase, split on Unicode
    whitespace, drop punctuation-only tokens. An ``isalnum`` token is kept
    without a category lookup: no alphanumeric character is in a P or S
    category. Tokens are interned, so a corpus holds one string per word
    type."""
    text = unicodedata.normalize("NFC", text).lower()
    return [sys.intern(tok) for tok in text.split() if tok.isalnum() or not _is_punct_only(tok)]
