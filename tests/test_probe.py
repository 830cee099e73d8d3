import tracemalloc

import numpy as np
import pytest

import oracles
from sentbench import probe as probe_mod
from sentbench.errors import ProbeDivergedError
from sentbench.probe import (
    Probe,
    ProbeConfig,
    cross_entropy_loss,
    distribution_to_score,
    kl_loss,
    loss_gradients,
    pair_features,
    predict_proba,
    score_to_distribution,
    softmax,
    train_classifier,
    train_relatedness,
)


def random_probe(rng, d, hidden, k, out_kind="classifier"):
    return Probe(
        W1=rng.standard_normal((d, hidden)),
        b1=rng.standard_normal(hidden),
        W2=rng.standard_normal((hidden, k)),
        b2=rng.standard_normal(k),
        out_kind=out_kind,
    )


def bits(arrays):
    return [a.view(np.uint64).tolist() for a in arrays]


def numeric_gradients(loss_fn, probe, X, T, step=1e-5):
    """Central finite differences over every parameter array."""
    grads = []
    for arr in (probe.W1, probe.b1, probe.W2, probe.b2):
        g = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            orig = arr[idx]
            arr[idx] = orig + step
            hi = loss_fn(probe, X, T)
            arr[idx] = orig - step
            lo = loss_fn(probe, X, T)
            arr[idx] = orig
            g[idx] = (hi - lo) / (2 * step)
            it.iternext()
        grads.append(g)
    return grads


class TestPairFeatures:
    def test_basic(self):
        assert np.allclose(pair_features(np.array([1.0, 0]), np.array([0, 1.0])), [1, 1, 0, 0])

    def test_identical_pair(self):
        assert np.allclose(pair_features(np.array([2.0, 3.0]), np.array([2.0, 3.0])), [0, 0, 4, 9])

    def test_symmetry(self):
        u, v = np.array([0.3, -1.2, 2.0]), np.array([1.1, 0.4, -0.5])
        assert np.array_equal(pair_features(u, v), pair_features(v, u))

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            pair_features(np.array([1.0]), np.array([1.0, 2.0]))

    def test_matrices_give_one_row_per_pair(self):
        rng = np.random.default_rng(5)
        U, V = rng.standard_normal((4, 3)), rng.standard_normal((4, 3))
        expected = np.stack([pair_features(u, v) for u, v in zip(U, V)])
        assert np.array_equal(pair_features(U, V), expected)


class TestScoreDistribution:
    def test_derived_example(self):
        p = score_to_distribution(3.6, 5)
        assert np.allclose(p, [0, 0, 0.4, 0.6, 0], atol=1e-12)
        assert p.sum() == pytest.approx(1.0, abs=1e-12)
        assert (np.arange(1, 6) @ p) == pytest.approx(3.6, abs=1e-12)

    def test_upper_boundary(self):
        assert np.array_equal(score_to_distribution(5.0, 5), [0, 0, 0, 0, 1])

    def test_lower_boundary(self):
        assert np.array_equal(score_to_distribution(1.0, 5), [1, 0, 0, 0, 0])

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            score_to_distribution(0.5, 5)
        with pytest.raises(ValueError):
            score_to_distribution(5.1, 5)

    def test_expected_value_readout(self):
        assert distribution_to_score(np.array([0, 0, 0.4, 0.6, 0])) == pytest.approx(3.6)
        assert distribution_to_score(np.array([1.0, 0, 0, 0, 0])) == 1.0
        assert distribution_to_score(np.full(5, 0.2)) == pytest.approx(3.0)

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError):
            distribution_to_score(np.array([0.5, 0.4]))

    def test_roundtrip_grid(self):
        for y in np.arange(1.0, 5.0 + 1e-9, 0.01):
            y = round(float(y), 2)
            assert distribution_to_score(score_to_distribution(y, 5)) == pytest.approx(y, abs=1e-12)


class TestGradients:
    def test_kl_is_cross_entropy_minus_target_entropy(self):
        rng = np.random.default_rng(3)
        model = random_probe(rng, 4, 5, 3, "distribution")
        X = rng.standard_normal((7, 4))
        targets = rng.dirichlet(np.ones(3), size=7)
        targets[0] = [0.0, 1.0, 0.0]
        entropy = -np.mean([sum(t * np.log(t) for t in row if t > 0) for row in targets])
        assert kl_loss(model, X, targets) == pytest.approx(
            cross_entropy_loss(model, X, targets) - entropy, abs=1e-12)
        assert kl_loss(model, X, targets) >= 0.0

    @pytest.mark.parametrize("loss_fn", [cross_entropy_loss, kl_loss])
    def test_matches_finite_differences(self, loss_fn):
        rng = np.random.default_rng(123)
        for _ in range(5):
            d = int(rng.integers(2, 9))
            hidden = int(rng.integers(2, 6))
            k = int(rng.integers(2, 5))
            n = int(rng.integers(1, 7))
            probe = random_probe(rng, d, hidden, k)
            X = rng.standard_normal((n, d))
            T = softmax(rng.standard_normal((n, k)))
            analytic = loss_gradients(probe, X, T)
            numeric = numeric_gradients(loss_fn, probe, X, T)
            for a, g in zip(analytic, numeric):
                denom = max(np.abs(g).max(), np.abs(a).max(), 1e-8)
                assert np.abs(a - g).max() / denom < 1e-4

    @pytest.mark.parametrize("width", [1, 16, 300, 600])
    @pytest.mark.parametrize("n", [1, 37])
    def test_bitwise_equal_to_the_plain_gradient(self, width, n):
        """With and without ``out``, the gradient that training steps through
        has the bits of the plain one, against one-hot and soft targets."""
        rng = np.random.default_rng(width + n)
        model = random_probe(rng, width, 50, 3)
        model.W1 /= np.sqrt(width)  # so that tanh does not saturate
        X = rng.standard_normal((n, width))
        out = probe_mod._views(np.full((width + 1 + 3) * 50 + 3, np.nan), width, 50, 3)
        for T in (np.eye(3)[rng.integers(0, 3, n)], softmax(rng.standard_normal((n, 3)))):
            expected = bits(oracles.loss_gradients(model, X, T))
            assert bits(loss_gradients(model, X, T)) == expected
            written = loss_gradients(model, X, T, out=out)
            assert all(w is o for w, o in zip(written, out))
            assert bits(out) == expected

    def test_full_batch_loss_non_increasing(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((40, 6))
        labels = (X[:, 0] > 0).astype(int)
        targets = np.eye(2)[labels]
        losses = []
        for epochs in range(1, 11):
            cfg = ProbeConfig(epochs=epochs, learning_rate=1e-3, batch_size=40)
            model = train_classifier(X, labels, 2, cfg, seed=9)
            losses.append(cross_entropy_loss(model, X, targets))
        assert all(a >= b - 1e-12 for a, b in zip(losses, losses[1:]))


class TestClassifier:
    def test_separable_clusters(self):
        rng = np.random.default_rng(0)
        mu = rng.standard_normal(10)
        mu /= np.linalg.norm(mu)
        X = np.vstack(
            [2 * mu + 0.5 * rng.standard_normal((100, 10)),
             -2 * mu + 0.5 * rng.standard_normal((100, 10))]
        )
        y = np.array([0] * 100 + [1] * 100)
        model = train_classifier(X, y, 2, ProbeConfig())
        acc = (predict_proba(model, X).argmax(axis=1) == y).mean()
        assert acc >= 0.95

    def test_constant_features_stay_at_chance(self):
        X = np.ones((200, 6))
        y = np.array([0, 1] * 100)
        model = train_classifier(X, y, 2, ProbeConfig())
        acc = (predict_proba(model, X).argmax(axis=1) == y).mean()
        assert abs(acc - 0.5) <= 0.1

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((60, 5))
        y = (X[:, 1] > 0).astype(int)
        m1 = train_classifier(X, y, 2, ProbeConfig(), seed=4)
        m2 = train_classifier(X, y, 2, ProbeConfig(), seed=4)
        assert np.array_equal(predict_proba(m1, X), predict_proba(m2, X))

    def test_k_below_two_rejected(self):
        with pytest.raises(ValueError):
            train_classifier(np.ones((3, 2)), [0, 0, 0], 1, ProbeConfig())

    def test_non_finite_features_rejected(self):
        X = np.ones((3, 2))
        X[0, 0] = np.nan
        with pytest.raises(ValueError):
            train_classifier(X, [0, 1, 0], 2, ProbeConfig())

    def test_diverged_training_raises(self):
        rng = np.random.default_rng(0)
        X = 1e3 * rng.standard_normal((64, 4))
        y = np.array([0, 1] * 32)
        with np.errstate(all="ignore"), pytest.raises(ProbeDivergedError, match="non-finite"):
            train_classifier(X, y, 2, ProbeConfig(learning_rate=1e308))

    def test_softmax_rows_are_distributions(self):
        rng = np.random.default_rng(8)
        model = random_probe(rng, 4, 3, 5)
        probs = predict_proba(model, rng.standard_normal((20, 4)) * 50)
        assert np.all(probs >= 0)
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-9)

    def test_logit_scaling_keeps_argmax(self):
        rng = np.random.default_rng(6)
        model = random_probe(rng, 3, 4, 4)
        x = rng.standard_normal(3)
        before = predict_proba(model, x).argmax()
        model.W2 = model.W2 * 7.0
        model.b2 = model.b2 * 7.0
        assert predict_proba(model, x).argmax() == before
        # argmax, with ties broken toward the lowest class, is how run_task reads a class
        model = Probe(
            W1=np.zeros((2, 2)), b1=np.zeros(2),
            W2=np.zeros((2, 3)), b2=np.array([0.1, 2.3, 0.1]),
            out_kind="classifier",
        )
        assert predict_proba(model, np.zeros(2)).argmax() == 1
        model.b2 = np.array([1.0, 0.0, 1.0])  # tie between 0 and 2
        assert predict_proba(model, np.zeros(2)).argmax() == 0


class TestRelatedness:
    def test_linearly_encoded_scores(self):
        rng = np.random.default_rng(1)
        scores = rng.uniform(1, 5, 300)
        signal = ((scores - 3) / 2)[:, None]
        X = np.hstack([np.tile(signal, (1, 8)), 0.1 * rng.standard_normal((300, 4))])
        model = train_relatedness(X, scores, 5, ProbeConfig())
        preds = [distribution_to_score(p) for p in predict_proba(model, X)]
        r = np.corrcoef(preds, scores)[0, 1]
        assert r >= 0.95

    def test_constant_target_convergence(self):
        rng = np.random.default_rng(2)
        X = 0.3 * rng.standard_normal((1000, 8))
        model = train_relatedness(X, np.full(1000, 3.0), 5, ProbeConfig())
        preds = np.array([distribution_to_score(p) for p in predict_proba(model, X)])
        assert np.abs(preds - 3.0).max() <= 0.2

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((50, 4))
        scores = rng.uniform(1, 5, 50)
        m1 = train_relatedness(X, scores, 5, ProbeConfig(), seed=11)
        m2 = train_relatedness(X, scores, 5, ProbeConfig(), seed=11)
        assert np.array_equal(predict_proba(m1, X), predict_proba(m2, X))

    def test_saturating_logits_hit_boundary_bin(self):
        model = Probe(
            W1=np.zeros((2, 2)), b1=np.zeros(2),
            W2=np.zeros((2, 5)), b2=np.array([0.0, 0, 0, 0, 50.0]),
            out_kind="distribution",
        )
        (p,) = predict_proba(model, np.zeros(2))
        assert distribution_to_score(p) == pytest.approx(5.0, abs=1e-9)
        # every read-out lies in [1, K], however large the inputs
        rng = np.random.default_rng(4)
        model = random_probe(rng, 3, 4, 5, out_kind="distribution")
        for p in predict_proba(model, rng.standard_normal((10, 3)) * 10):
            assert 1.0 <= distribution_to_score(p) <= 5.0



def params(model):
    return [p.tobytes() for p in (model.W1, model.b1, model.W2, model.b2)]


class TestTrainRows:
    """Training on ``rows`` of X is training on the copy ``X[rows]``."""

    @pytest.fixture
    def data(self):
        rng = np.random.default_rng(21)
        X = rng.standard_normal((150, 7))
        labels = rng.integers(0, 3, 150)
        scores = rng.uniform(1, 5, 150)
        return X, labels, scores

    @pytest.mark.parametrize("rows", [
        np.random.default_rng(4).permutation(150)[:117],  # unsorted, several batches
        [149, 3, 77, 3, 0],  # a repeated row
        [42],
        range(150),
        None,  # the default: every row
    ], ids=["unsorted", "repeated", "single-row", "all", "default"])
    def test_equals_training_on_the_copied_rows(self, data, rows):
        X, labels, scores = data
        r = np.arange(150) if rows is None else np.asarray(rows)
        cfg = ProbeConfig(epochs=3, batch_size=16)
        assert params(train_classifier(X, labels, 3, cfg, rows=rows, seed=6)) == params(
            train_classifier(X[r], labels[r], 3, cfg, seed=6))
        assert params(train_relatedness(X, scores, 5, cfg, rows=rows, seed=6)) == params(
            train_relatedness(X[r], scores[r], 5, cfg, seed=6))

    @pytest.mark.parametrize("rows", [
        [], np.array([], dtype=int), [0, 150], [-1, 2], [[0, 1]], [0.0, 1.0], [True, False],
    ], ids=["empty", "empty-int", "past-end", "negative", "2-d", "float", "bool"])
    @pytest.mark.parametrize("train", ["classifier", "relatedness"])
    def test_bad_rows_rejected(self, data, rows, train):
        X, labels, scores = data
        with pytest.raises(ValueError, match="rows"):
            if train == "classifier":
                train_classifier(X, labels, 3, ProbeConfig(), rows=rows)
            else:
                train_relatedness(X, scores, 5, ProbeConfig(), rows=rows)

    def test_targets_must_be_indexed_like_x(self, data):
        X, labels, scores = data
        with pytest.raises(ValueError, match="features and labels"):
            train_classifier(X, labels[:100], 3, ProbeConfig(), rows=range(100))
        with pytest.raises(ValueError, match="features and scores"):
            train_relatedness(X[:100], scores, 5, ProbeConfig(), rows=range(100))

    def test_only_the_train_rows_are_checked(self, data):
        X, labels, scores = data
        X, labels, scores = X.copy(), labels.copy(), scores.copy()
        X[5, 3], labels[6], scores[7] = np.nan, 9, 99.0  # none of them a train row
        rows = [r for r in range(150) if r not in (5, 6, 7)]
        cfg = ProbeConfig(epochs=1)
        train_classifier(X, labels, 3, cfg, rows=rows)
        train_relatedness(X, scores, 5, cfg, rows=rows)
        with pytest.raises(ValueError, match="labels outside"):
            train_classifier(X, labels, 3, cfg, rows=rows + [6])
        with pytest.raises(ValueError, match="outside"):
            train_relatedness(X, scores, 5, cfg, rows=rows + [7])

    @pytest.mark.parametrize("batch_size", [1, 7, 20, 64, 2**17])  # 150 batches down to one
    def test_non_finite_train_row_found_in_any_block(self, data, batch_size):
        X, labels, _ = data
        rows = list(range(150))[::-1]
        for bad in range(150):  # every train row, so the first, a middle and the last batch
            Xb = X.copy()
            Xb[bad, 6] = np.inf
            with pytest.raises(ValueError, match="non-finite features"):
                train_classifier(Xb, labels, 3, ProbeConfig(batch_size=batch_size), rows=rows)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_predicted_row_rejected(self, data, bad):
        X, labels, _ = data
        model = train_classifier(X, labels, 3, ProbeConfig(epochs=1))
        Xb = X[:10].copy()
        Xb[9, 0] = bad
        with pytest.raises(ValueError, match="non-finite features"):
            predict_proba(model, Xb)

    def test_predicted_rows_of_another_dim_rejected(self, data):
        X, labels, _ = data
        model = train_classifier(X, labels, 3, ProbeConfig(epochs=1))
        with pytest.raises(ValueError, match="^feature dim 6 != probe input 7$"):
            predict_proba(model, X[:10, :6])

    def test_train_rows_are_not_copied(self):
        X = np.random.default_rng(0).standard_normal((4000, 600))
        rows = np.random.default_rng(1).permutation(4000)[:3200]
        labels = np.arange(4000) % 2
        tracemalloc.start()
        try:
            train_classifier(X, labels, 2, ProbeConfig(epochs=1), rows=rows)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < X[rows].nbytes / 2


class TestMatchesPerArraySgd:
    """The step on one flat parameter vector gives bitwise the parameters of
    the per-array loop: ``loss_gradients``, then ``p -= lr * g`` per array."""

    @pytest.mark.parametrize("width", [1, 16, 300, 600])
    @pytest.mark.parametrize("batch_size, epochs", [(16, 3), (64, 1), (500, 3)],
                             ids=["short-last-batch", "one-epoch", "batch-above-rows"])
    def test_bit_identical_parameters(self, width, batch_size, epochs):
        rng = np.random.default_rng(width)
        X = rng.standard_normal((130, width))
        rows = rng.integers(0, 130, 117)  # unsorted, with repeats; 117 % 16 and 117 % 64 != 0
        assert len(set(rows.tolist())) < len(rows)
        labels, scores = rng.integers(0, 3, 130), rng.uniform(1, 5, 130)
        cfg = ProbeConfig(epochs=epochs, batch_size=batch_size, learning_rate=0.1)
        one_hot = np.eye(3)[labels[rows]]
        assert params(train_classifier(X, labels, 3, cfg, rows=rows, seed=width)) == params(
            oracles.train_probe(X, rows, one_hot, "classifier", cfg, width))
        dists = np.stack([score_to_distribution(y, 5) for y in scores[rows]])
        assert params(train_relatedness(X, scores, 5, cfg, rows=rows, seed=width)) == params(
            oracles.train_probe(X, rows, dists, "distribution", cfg, width))

    def test_parameters_share_one_vector(self):
        rng = np.random.default_rng(1)
        model = train_classifier(rng.standard_normal((20, 6)), np.arange(20) % 3, 3, ProbeConfig())
        arrays = (model.W1, model.b1, model.W2, model.b2)
        base = model.W1.base
        assert all(a.base is base for a in arrays)
        assert base.nbytes == sum(a.nbytes for a in arrays)
