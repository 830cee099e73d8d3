import numpy as np
import pytest
from hypothesis import given, strategies as st

from sentbench.errors import DegenerateInputError
from sentbench.metrics import EvalResult, accuracy, majority_baseline, pearson


class TestAccuracy:
    def test_all_correct(self):
        assert accuracy([1, 2, 3], [1, 2, 3]) == 1.0

    def test_half_correct(self):
        assert accuracy([1, 1, 0, 0], [1, 1, 1, 1]) == 0.5

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            accuracy([], [])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            accuracy([1], [1, 2])

    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=20),
           st.randoms())
    def test_joint_permutation_equivariance(self, pairs, rnd):
        pred = [p for p, _ in pairs]
        gold = [g for _, g in pairs]
        shuffled = list(pairs)
        rnd.shuffle(shuffled)
        assert accuracy([p for p, _ in shuffled], [g for _, g in shuffled]) == accuracy(pred, gold)


class TestPearson:
    def test_exact_linear(self):
        assert pearson([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0, abs=1e-12)

    def test_anticorrelated(self):
        assert pearson([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0, abs=1e-12)

    def test_zero_variance_rejected(self):
        with pytest.raises(DegenerateInputError):
            pearson([1, 2, 3], [5, 5, 5])

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            pearson([1.0], [2.0])
        with pytest.raises(ValueError, match="equal length"):
            pearson([1.0, 2.0], [2.0, 3.0, 4.0])

    def test_self_correlation(self):
        x = [0.5, 1.5, -2.0, 3.0]
        assert pearson(x, x) == pytest.approx(1.0, abs=1e-12)
        assert pearson(x, [-v for v in x]) == pytest.approx(-1.0, abs=1e-12)

    @given(st.lists(st.integers(-1000, 1000), min_size=3, max_size=15, unique=True),
           st.floats(0.1, 10), st.floats(-50, 50))
    def test_positive_affine_invariance(self, xs, alpha, beta):
        xs = [float(x) for x in xs]
        ys = list(np.linspace(-1, 1, len(xs)))
        r1 = pearson(xs, ys)
        r2 = pearson([alpha * x + beta for x in xs], ys)
        assert r1 == pytest.approx(r2, abs=1e-9)


class TestMajorityBaseline:
    def test_two_of_three(self):
        assert majority_baseline(["a", "a", "b"]) == pytest.approx(2 / 3)

    def test_unanimous(self):
        assert majority_baseline(["a", "a", "a"]) == 1.0

    def test_even_split(self):
        assert majority_baseline(["a", "b"]) == 0.5

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            majority_baseline([])


class TestEvalResult:
    def test_range_validation(self):
        with pytest.raises(ValueError):
            EvalResult("t", "m", "accuracy", 1.2, 10)
        with pytest.raises(ValueError):
            EvalResult("t", "m", "pearson", -1.5, 10)
        with pytest.raises(ValueError):
            EvalResult("t", "m", "accuracy", 0.5, 0)
