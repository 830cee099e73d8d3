"""Bag-of-words aggregation of token vectors into sentence vectors.

Three strategies: plain mean, frequency-weighted mean with common-component
removal (SIF), and mean concatenated with componentwise max. ``embed_corpus``
runs all three on one path: a (V, d) vocabulary matrix, unit-normalised and
SIF-weighted per row once, whose rows are pooled for all sentences of one
in-vocabulary length at a time, in blocks of about ``BLOCK_FLOATS`` values.
The per-sentence functions (``mean_pool``, ``mean_max_concat``,
``sif_weighted_mean``) are the reference definitions; its rows are bitwise
equal to theirs.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, repeat
from typing import Sequence, Union

import numpy as np

from .errors import ConfigError, ParseError
from .lexicon import BLOCK_FLOATS, FrequencyTable, VectorTable, unigram_probability, unit_rows

DEFAULT_SIF_A = 1e-3


@dataclass(frozen=True)
class Mean:
    """Arithmetic mean of token vectors."""


@dataclass(frozen=True)
class MeanMaxConcat:
    """Mean pooling concatenated with componentwise max pooling (2d output)."""


@dataclass(frozen=True)
class Sif:
    """Weighted mean with weights a/(a+p(w)) plus common-component removal.

    ``a`` must be positive, as ``MethodSpec`` checks for ``sif_a``. The
    common component is not part of the strategy: ``embed_corpus`` fits it
    on its fit rows and removes it from every row.
    """

    freq: FrequencyTable
    a: float = DEFAULT_SIF_A


AggregationStrategy = Union[Mean, Sif, MeanMaxConcat]


def output_dim(strategy: AggregationStrategy, d: int) -> int:
    return 2 * d if isinstance(strategy, MeanMaxConcat) else d


def _stack(vs: Sequence[np.ndarray], dim: int | None):
    if len(vs) == 0:
        if dim is None:
            raise ValueError("empty sequence needs an explicit dim")
        return None
    if len({np.shape(v) for v in vs}) != 1 or np.ndim(vs[0]) != 1:
        raise ValueError("items must be vectors of one dim")  # NumPy would refuse ragged ones first
    arr = np.asarray(vs, dtype=np.float64)
    if dim is not None and arr.shape[1] != dim:
        raise ValueError(f"vectors have dim {arr.shape[1]}, expected {dim}")
    return arr


def mean_pool(vs: Sequence[np.ndarray], dim: int | None = None) -> np.ndarray:
    """Componentwise average; an empty sequence yields the zero vector."""
    arr = _stack(vs, dim)
    if arr is None:
        return np.zeros(dim)
    return arr.mean(axis=0)


def max_pool(vs: Sequence[np.ndarray], dim: int | None = None) -> np.ndarray:
    """Componentwise maximum; an empty sequence yields the zero vector."""
    arr = _stack(vs, dim)
    if arr is None:
        return np.zeros(dim)
    return arr.max(axis=0)


def mean_max_concat(vs: Sequence[np.ndarray], dim: int | None = None) -> np.ndarray:
    """Mean pooling followed by max pooling, concatenated (length 2d)."""
    return np.concatenate([mean_pool(vs, dim), max_pool(vs, dim)])


def sif_weight(a: float, p: float) -> float:
    """Smooth inverse-frequency weight a/(a+p), in (0, 1] for a > 0 and a
    probability p. Neither is checked here: ``MethodSpec`` checks ``sif_a``,
    and a `FrequencyTable`'s rules keep every word probability in [0, 1]."""
    return a / (a + p)


def sif_weighted_mean(
    tokens: Sequence[str], vs: Sequence[np.ndarray], strat: Sif
) -> np.ndarray:
    """Weighted arithmetic mean (1/n) sum_i w(p(token_i)) * v_i, before
    common-component removal, which needs a corpus: `embed_corpus` fits the
    component and `remove_common_component` subtracts it. Empty input is an
    error, as it gives no dim."""
    if len(tokens) != len(vs):
        raise ValueError("tokens and vectors must have equal length")
    arr = _stack(vs, None)
    weights = np.array(
        [sif_weight(strat.a, unigram_probability(strat.freq, tok)) for tok in tokens]
    )
    return (weights[:, None] * arr).sum(axis=0) / len(vs)


def fit_common_component(M: np.ndarray) -> np.ndarray:
    """First right singular direction of the uncentred matrix M (n x d): the
    top eigenvector of M^T M. The sign is fixed so the first nonzero
    coordinate is positive; the result is unit length."""
    M = np.asarray(M, dtype=np.float64)
    if M.ndim != 2 or M.shape[0] < 1:
        raise ValueError("need a matrix with at least one row")
    if not np.any(M):
        raise ValueError("all-zero matrix has no principal direction")
    x = np.linalg.eigh(M.T @ M)[1][:, -1]
    nonzero = np.nonzero(np.abs(x) > 1e-12)[0]
    if nonzero.size and x[nonzero[0]] < 0:
        x = -x
    return x / np.linalg.norm(x)


def remove_common_component(v: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Subtract the projection of v onto the unit direction c."""
    v = np.asarray(v, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    if v.shape != c.shape:
        raise ValueError("dimension mismatch")
    if abs(np.linalg.norm(c) - 1.0) > 1e-9:
        raise ValueError("c must be a unit vector")
    return v - (v @ c) * c


def embed_corpus(
    sentences: Sequence[Sequence[str]],
    table: VectorTable,
    strat: AggregationStrategy,
    fit_rows: Sequence[int] | None = None,
    normalize_tokens: bool = True,
) -> np.ndarray:
    """One sentence vector per token sequence, stacked as rows.

    Each sentence pools the rows of its in-vocabulary tokens in the table's
    (V, d) matrix. With ``normalize_tokens`` they are the rows of a copy
    normalised once by `unit_rows`; without it they are the table's own rows,
    which are not copied, so a table loaded by ``load_word_vectors(stream,
    unit=True)`` is pooled unit-normalised in place. For SIF the rows pooled
    are those rows scaled by their word weights. Sentences with the same
    number L of such tokens are pooled together, as (k, L, d) blocks of at
    most ``BLOCK_FLOATS`` values (one sentence if L * d alone exceeds it). A
    reduction over axis 1 of a block adds each sentence's rows in the order
    ``mean_pool`` and ``max_pool`` do, so every row is bitwise equal to
    theirs; a sentence with no in-vocabulary token is a zero row, and
    ``fit_rows`` (every row when it is None) with no such token at all are a
    ConfigError, as a probe or a SIF fit on them would see only zero rows. A
    used word whose row is not finite, an all-zero vector that was
    normalised, is a ParseError naming the first such word in corpus order;
    other non-finite output, sums of huge unnormalised rows, is a
    ValueError. For SIF the common component is fitted on ``fit_rows`` only
    (typically the training split) and removed from every row, so held-out
    rows never influence the fit.
    """
    if not isinstance(strat, (Mean, Sif, MeanMaxConcat)):
        raise TypeError(f"unknown strategy {strat!r}")
    if isinstance(strat, Sif) and (fit_rows is None or len(fit_rows) == 0):
        raise ValueError("SIF aggregation needs non-empty fit_rows")
    d, row = table.dim, table.row
    # Allocate the result before the normalised copy, so freeing the copy
    # leaves free memory above the result rather than a hole below it that
    # the allocator keeps resident (about 10 MB of peak RSS at 5k x 300).
    out = np.zeros((len(sentences), output_dim(strat, d)))
    E = unit_rows(table.vectors.copy()) if normalize_tokens else table.vectors
    if isinstance(strat, Sif):
        weights = np.array([[sif_weight(strat.a, unigram_probability(strat.freq, w))] for w in row])
        E = np.multiply(E, weights, out=E if normalize_tokens else None)  # never the table
    counts = np.fromiter(map(len, sentences), dtype=np.intp, count=len(sentences))
    ids = np.fromiter(map(row.get, chain.from_iterable(sentences), repeat(-1)), dtype=np.intp)
    known = ids >= 0  # -1 marks an out-of-vocabulary token
    lengths = np.bincount(np.repeat(np.arange(counts.size), counts)[known], minlength=counts.size)
    ids, starts = ids[known], np.cumsum(lengths) - lengths
    fit = np.arange(counts.size) if fit_rows is None else np.asarray(fit_rows, dtype=np.intp)
    if not np.isin(fit, np.flatnonzero(lengths)).any():  # isin: indexing fails on an empty corpus
        raise ConfigError("no token of the fit rows is in the vector table")
    for L in np.unique(lengths[lengths > 0]).tolist():
        members = np.flatnonzero(lengths == L)
        idx = ids[starts[members, None] + np.arange(L)]  # (m, L) row ids, in token order
        k = max(1, BLOCK_FLOATS // (L * d))
        for s in range(0, len(members), k):
            block, part = E[idx[s : s + k]], members[s : s + k]
            out[part, :d] = block.mean(axis=1)
            if isinstance(strat, MeanMaxConcat):
                out[part, d:] = block.max(axis=1)
            del block  # before the next gather: one block alive at a time
    if not np.all(np.isfinite(out)):
        used = ids[~np.isfinite(E).all(axis=1)[ids]]  # a normalised zero row is NaN
        if used.size:
            raise ParseError(f"cannot normalize the zero vector of word {table.keys[used[0]]!r}")
        raise ValueError("pooled sentence vectors overflow float64")  # sums of huge rows
    if isinstance(strat, Sif):
        c = fit_common_component(out[fit])
        out -= np.outer(out @ c, c)
    return out
