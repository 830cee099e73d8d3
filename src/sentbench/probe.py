"""Shallow downstream probes: a softmax classifier and a relatedness
distribution regressor, both input -> tanh hidden layer -> softmax output.

Training is plain mini-batch SGD with a fixed learning rate and seeded
per-epoch shuffling, so results are bit-reproducible for a given seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import IO, Sequence

import numpy as np

from .errors import ProbeDivergedError

PROBE_FORMAT_VERSION = 1


@dataclass(frozen=True)
class ProbeConfig:
    hidden_units: int = 50
    epochs: int = 10
    seed: int = 0
    learning_rate: float = 0.01
    batch_size: int = 64

    def __post_init__(self):
        if min(self.hidden_units, self.epochs, self.batch_size) <= 0:
            raise ValueError("hidden_units, epochs and batch_size must be positive")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")


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

    @property
    def output_dim(self) -> int:
        return self.W2.shape[1]


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


def loss_gradients(probe: Probe, X: np.ndarray, targets: np.ndarray):
    """Analytic gradients of the mean cross-entropy (equivalently KL, same
    gradient) w.r.t. all four parameter arrays."""
    X = np.atleast_2d(X)
    n = X.shape[0]
    h, probs = _forward(probe, X)
    delta_out = (probs - targets) / n
    gW2 = h.T @ delta_out
    gb2 = delta_out.sum(axis=0)
    delta_h = (delta_out @ probe.W2.T) * (1.0 - h * h)
    gW1 = X.T @ delta_h
    gb1 = delta_h.sum(axis=0)
    return gW1, gb1, gW2, gb2


def _init_probe(input_dim: int, hidden: int, out: int, out_kind: str, seed: int) -> Probe:
    rng = np.random.default_rng(seed)
    lim1 = np.sqrt(6.0 / (input_dim + hidden))
    lim2 = np.sqrt(6.0 / (hidden + out))
    return Probe(
        W1=rng.uniform(-lim1, lim1, size=(input_dim, hidden)),
        b1=np.zeros(hidden),
        W2=rng.uniform(-lim2, lim2, size=(hidden, out)),
        b2=np.zeros(out),
        out_kind=out_kind,
    )


def _train(X: np.ndarray, targets: np.ndarray, out_kind: str, cfg: ProbeConfig) -> Probe:
    X = np.asarray(X, dtype=np.float64)
    if not np.all(np.isfinite(X)):
        raise ValueError("non-finite features")
    probe = _init_probe(X.shape[1], cfg.hidden_units, targets.shape[1], out_kind, cfg.seed)
    rng = np.random.default_rng(cfg.seed + 1)
    n = X.shape[0]
    params = (probe.W1, probe.b1, probe.W2, probe.b2)
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            for p, g in zip(params, loss_gradients(probe, X[idx], targets[idx])):
                p -= cfg.learning_rate * g
        if not all(np.isfinite(p).all() for p in params):
            raise ProbeDivergedError(
                f"probe parameters became non-finite in epoch {epoch + 1}; "
                f"lower the learning rate (now {cfg.learning_rate})"
            )
    return probe


def train_classifier(
    X: np.ndarray, labels: Sequence[int], K: int, cfg: ProbeConfig
) -> Probe:
    """Fit the softmax classifier on integer class labels in [0, K)."""
    labels = np.asarray(labels, dtype=int)
    if K < 2:
        raise ValueError("need at least 2 classes")
    if len(labels) != np.atleast_2d(X).shape[0] or len(labels) < 1:
        raise ValueError("features and labels must have equal nonzero length")
    if labels.min() < 0 or labels.max() >= K:
        raise ValueError("labels outside [0, K)")
    targets = np.eye(K)[labels]
    return _train(X, targets, "classifier", cfg)


def predict_class(probe: Probe, x: np.ndarray) -> int:
    """Most probable class; ties break toward the lowest index."""
    return int(np.argmax(predict_proba(probe, np.atleast_2d(x))[0]))


def train_relatedness(
    X: np.ndarray, scores: Sequence[float], K: int, cfg: ProbeConfig
) -> Probe:
    """Fit the distribution regressor on real scores in [1, K], minimizing KL
    divergence to the binned score distributions."""
    scores = np.asarray(scores, dtype=np.float64)
    if K < 2:
        raise ValueError("need at least 2 bins")
    if len(scores) != np.atleast_2d(X).shape[0] or len(scores) < 1:
        raise ValueError("features and scores must have equal nonzero length")
    targets = np.stack([score_to_distribution(y, K) for y in scores])
    return _train(X, targets, "distribution", cfg)


def predict_score(probe: Probe, x: np.ndarray) -> float:
    """Expected score under the predicted distribution, in [1, K]."""
    if probe.out_kind != "distribution":
        raise ValueError("probe is not a distribution regressor")
    return distribution_to_score(predict_proba(probe, np.atleast_2d(x))[0])


def save_probe(probe: Probe, stream: IO[str]) -> None:
    """Serialize to versioned JSON: dims plus row-major parameter arrays."""
    json.dump(
        {
            "version": PROBE_FORMAT_VERSION,
            "out_kind": probe.out_kind,
            "input_dim": probe.input_dim,
            "hidden_units": probe.W1.shape[1],
            "output_dim": probe.output_dim,
            "W1": probe.W1.ravel().tolist(),
            "b1": probe.b1.tolist(),
            "W2": probe.W2.ravel().tolist(),
            "b2": probe.b2.tolist(),
        },
        stream,
    )


def load_probe(stream: IO[str]) -> Probe:
    data = json.load(stream)
    if data.get("version") != PROBE_FORMAT_VERSION:
        raise ValueError(f"unsupported probe format version {data.get('version')!r}")
    d, h, k = data["input_dim"], data["hidden_units"], data["output_dim"]
    return Probe(
        W1=np.array(data["W1"]).reshape(d, h),
        b1=np.array(data["b1"]),
        W2=np.array(data["W2"]).reshape(h, k),
        b2=np.array(data["b2"]),
        out_kind=data["out_kind"],
    )
