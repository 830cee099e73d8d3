"""Shallow downstream probes: a softmax classifier and a relatedness
distribution regressor, both input -> tanh hidden layer -> softmax output.

Training is plain mini-batch SGD with a fixed learning rate and seeded
per-epoch shuffling, so results are bit-reproducible for a given seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, ProbeDivergedError

_CHECK_FLOATS = 2**17  # float64 values per block of the non-finite check (1 MB)


@dataclass(frozen=True)
class ProbeConfig:
    hidden_units: int = 50
    epochs: int = 10
    learning_rate: float = 0.01
    batch_size: int = 64

    def __post_init__(self):
        if min(self.hidden_units, self.epochs, self.batch_size) <= 0:
            raise ConfigError("probe: hidden_units, epochs and batch_size must be positive")
        if self.learning_rate <= 0:
            raise ConfigError(
                f"probe: learning_rate must be a positive number, not {self.learning_rate!r}")


@dataclass
class Probe:
    """Trained network parameters. ``out_kind`` distinguishes class prediction
    from distribution regression; the forward pass is identical."""

    W1: np.ndarray  # input_dim x hidden
    b1: np.ndarray
    W2: np.ndarray  # hidden x out
    b2: np.ndarray
    out_kind: str  # "classifier" | "distribution"

    @property
    def input_dim(self) -> int:
        return self.W1.shape[0]


def softmax(z: np.ndarray) -> np.ndarray:
    """Row-wise softmax, stable under large logits."""
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def pair_features(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Symmetric sentence-pair features: |u-v| concatenated with u*v
    (componentwise), length 2d. Rows of two (n, d) matrices give (n, 2d)."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise ValueError("dimension mismatch")
    with np.errstate(over="ignore", invalid="ignore"):  # the probe names non-finite features
        return np.concatenate([np.abs(u - v), u * v], axis=-1)


def score_to_distribution(y: float, K: int) -> np.ndarray:
    """Spread a score y in [1, K] over the two adjacent integer bins so that
    the distribution's expected bin index equals y."""
    if not 1.0 <= y <= K:
        raise ValueError(f"score {y} outside [1, {K}]")
    p = np.zeros(K)
    lo = int(np.floor(y))
    if lo == K:
        p[K - 1] = 1.0
        return p
    p[lo - 1] = lo - y + 1.0
    p[lo] = y - lo
    return p


def distribution_to_score(p: np.ndarray) -> float:
    """Expected bin index sum_i i*p_i of a probability vector over bins 1..K."""
    p = np.asarray(p, dtype=np.float64)
    if abs(p.sum() - 1.0) > 1e-6:
        raise ValueError("p is not normalized")
    return float(np.arange(1, len(p) + 1) @ p)


def _forward(probe: Probe, X: np.ndarray):
    h = np.tanh(X @ probe.W1 + probe.b1)
    return h, softmax(h @ probe.W2 + probe.b2)


def predict_proba(probe: Probe, X: np.ndarray) -> np.ndarray:
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if X.shape[1] != probe.input_dim:
        raise ValueError(f"feature dim {X.shape[1]} != probe input {probe.input_dim}")
    if not np.isfinite(X).all():  # `_train` checks only the train rows
        raise ValueError("non-finite features")
    return _forward(probe, X)[1]


def _mean_target_log(targets: np.ndarray, p: np.ndarray) -> float:
    """Row mean of sum_k targets_k * log p_k, with 0 * log 0 = 0."""
    return float((targets * np.log(p + 1e-300)).sum(axis=1).mean())


def cross_entropy_loss(probe: Probe, X: np.ndarray, targets: np.ndarray) -> float:
    """Mean cross-entropy -E[log p(target)] against one-hot or soft targets."""
    return -_mean_target_log(targets, predict_proba(probe, X))


def kl_loss(probe: Probe, X: np.ndarray, targets: np.ndarray) -> float:
    """Mean KL(target || predicted): the cross-entropy plus the mean target
    negative entropy, a constant in the parameters."""
    return cross_entropy_loss(probe, X, targets) + _mean_target_log(targets, targets)


def loss_gradients(probe: Probe, X: np.ndarray, targets: np.ndarray, out=None):
    """Analytic gradients of the mean cross-entropy (equivalently KL, same
    gradient) w.r.t. all four parameter arrays, written into ``out``, four
    arrays shaped like W1, b1, W2 and b2, when it is given. The forward
    pass's fresh arrays become the output error and hidden delta in place."""
    X = np.atleast_2d(X)
    h, delta = _forward(probe, X)  # the probabilities, then the output error
    delta -= targets
    delta /= len(X)
    gW1, gb1, gW2, gb2 = (None,) * 4 if out is None else out
    gW2 = np.matmul(h.T, delta, out=gW2)
    gb2 = delta.sum(axis=0, out=gb2)
    dh = delta @ probe.W2.T
    dh *= np.subtract(1.0, np.square(h, out=h), out=h)
    return np.matmul(X.T, dh, out=gW1), dh.sum(axis=0, out=gb1), gW2, gb2


def _views(flat: np.ndarray, input_dim: int, hidden: int, out: int):
    """W1, b1, W2 and b2 as views of one flat vector, in that order."""
    W1, b1, W2, b2 = np.split(flat, np.cumsum([input_dim * hidden, hidden, hidden * out]))
    return W1.reshape(input_dim, hidden), b1, W2.reshape(hidden, out), b2


def _init_probe(input_dim: int, hidden: int, out: int, out_kind: str, seed: int):
    """A probe with seeded uniform weights and zero biases, and the flat
    vector its four parameter arrays are views of."""
    rng = np.random.default_rng(seed)
    lim1 = np.sqrt(6.0 / (input_dim + hidden))
    lim2 = np.sqrt(6.0 / (hidden + out))
    flat = np.zeros((input_dim + 1 + out) * hidden + out)
    W1, b1, W2, b2 = _views(flat, input_dim, hidden, out)
    W1[...] = rng.uniform(-lim1, lim1, size=W1.shape)
    W2[...] = rng.uniform(-lim2, lim2, size=W2.shape)
    return Probe(W1, b1, W2, b2, out_kind), flat


def _train_rows(X, K: int, n_targets: int, rows, what: str, unit: str):
    """``X`` as a 2-D float64 array and its train rows as an index array, all
    rows by default, once the checks both trainers share pass: first that
    ``K``, the number of ``unit`` (classes or bins), is at least 2, then that
    the ``what`` (labels or scores), ``n_targets`` of them, are indexed like
    ``X``, then the rows."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if K < 2:
        raise ValueError(f"need at least 2 {unit}")
    if len(X) != n_targets or n_targets < 1:
        raise ValueError(f"features and {what} must have equal nonzero length")
    rows = np.arange(len(X)) if rows is None else np.asarray(rows)
    if rows.ndim != 1 or rows.size == 0 or rows.dtype.kind not in "iu":
        raise ValueError("rows must be a non-empty 1-D array of row indices")
    if rows.min() < 0 or rows.max() >= len(X):
        raise ValueError(f"rows outside [0, {len(X)})")
    return X, rows


def _train(
    X: np.ndarray, rows: np.ndarray, targets: np.ndarray, out_kind: str, cfg: ProbeConfig, seed: int
) -> Probe:
    """SGD on ``X[rows]`` without copying it: each mini-batch gathers its own
    rows, and ``targets[i]`` belongs to ``X[rows[i]]``. ``seed`` draws the
    initial weights and ``seed + 1`` the per-epoch shuffles."""
    block = max(1, _CHECK_FLOATS // max(1, X.shape[1]))
    for start in range(0, len(rows), block):
        if not np.isfinite(X[rows[start : start + block]]).all():
            raise ValueError("non-finite features")
    probe, flat = _init_probe(X.shape[1], cfg.hidden_units, targets.shape[1], out_kind, seed)
    grad = np.empty_like(flat)  # the gradients, laid out like the parameters
    views = _views(grad, *probe.W1.shape, len(probe.b2))
    rng = np.random.default_rng(seed + 1)
    n = len(rows)
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        epoch_rows, epoch_targets = rows[order], targets[order]
        for start in range(0, n, cfg.batch_size):
            # p -= lr * g on each array, made as one step on the flat vector: the same
            # operations, so the parameters stay bitwise those of the per-array loop
            batch = slice(start, start + cfg.batch_size)
            loss_gradients(probe, X[epoch_rows[batch]], epoch_targets[batch], out=views)
            grad *= cfg.learning_rate
            flat -= grad
        if not np.isfinite(flat).all():
            raise ProbeDivergedError(
                f"probe parameters became non-finite in epoch {epoch + 1}; "
                f"lower the learning rate (now {cfg.learning_rate})"
            )
    return probe


def train_classifier(
    X: np.ndarray, labels: Sequence[int], K: int, cfg: ProbeConfig,
    *, rows: Sequence[int] | None = None, seed: int = 0,
) -> Probe:
    """Fit the softmax classifier on integer class labels in [0, K), on the
    ``rows`` of ``X`` (all rows by default). ``labels`` are indexed like
    ``X``; the result equals training on ``X[rows]``, ``labels[rows]``."""
    labels = np.asarray(labels, dtype=int)
    X, rows = _train_rows(X, K, len(labels), rows, "labels", "classes")
    labels = labels[rows]
    if labels.min() < 0 or labels.max() >= K:
        raise ValueError("labels outside [0, K)")
    return _train(X, rows, np.eye(K)[labels], "classifier", cfg, seed)


def train_relatedness(
    X: np.ndarray, scores: Sequence[float], K: int, cfg: ProbeConfig,
    *, rows: Sequence[int] | None = None, seed: int = 0,
) -> Probe:
    """Fit the distribution regressor on real scores in [1, K], minimizing KL
    divergence to the binned score distributions, on the ``rows`` of ``X``
    (all rows by default). ``scores`` are indexed like ``X``."""
    scores = np.asarray(scores, dtype=np.float64)
    X, rows = _train_rows(X, K, len(scores), rows, "scores", "bins")
    targets = np.stack([score_to_distribution(y, K) for y in scores[rows]])
    return _train(X, rows, targets, "distribution", cfg, seed)
