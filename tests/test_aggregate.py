import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from sentbench.aggregate import (
    BLOCK_FLOATS,
    Mean,
    MeanMaxConcat,
    Sif,
    embed_corpus,
    fit_common_component,
    max_pool,
    mean_max_concat,
    mean_pool,
    remove_common_component,
    sif_weight,
    sif_weighted_mean,
)
from sentbench.errors import ConfigError, ParseError
from sentbench.lexicon import FrequencyTable, VectorTable, random_table
from oracles import sentence_token_vectors


def table_of(entries):
    """A VectorTable from a word -> vector dict."""
    return VectorTable(list(entries), list(entries.values()))


def top_eig_oracle(M):
    """Dense eigendecomposition of M^T M, top eigenvector."""
    w, V = np.linalg.eigh(M.T @ M)
    return V[:, np.argmax(w)]


class TestPooling:
    def test_mean(self):
        assert np.allclose(mean_pool([np.array([1.0, 0]), np.array([0, 1.0])]), [0.5, 0.5])

    def test_mean_identity(self):
        assert np.allclose(mean_pool([np.array([2.0, 3.0])]), [2, 3])

    def test_mean_empty_policy(self):
        assert np.array_equal(mean_pool([], dim=2), [0, 0])

    def test_max(self):
        assert np.allclose(max_pool([np.array([1.0, 0]), np.array([0, 1.0])]), [1, 1])

    def test_max_identity_negative(self):
        assert np.allclose(max_pool([np.array([-1.0, -2.0])]), [-1, -2])

    def test_max_empty_policy(self):
        assert np.array_equal(max_pool([], dim=2), [0, 0])

    def test_concat(self):
        vs = [np.array([1.0, 0]), np.array([0, 1.0])]
        assert np.allclose(mean_max_concat(vs), [0.5, 0.5, 1, 1])

    def test_concat_single(self):
        assert np.allclose(mean_max_concat([np.array([1.0, 1.0])]), [1, 1, 1, 1])

    def test_concat_empty(self):
        assert np.array_equal(mean_max_concat([], dim=1), [0, 0])

    def test_mixed_dims_rejected(self):
        for vs in ([np.array([1.0]), np.array([1.0, 2.0])], [1.0, 2.0]):  # numbers are no vectors
            with pytest.raises(ValueError, match="^items must be vectors of one dim$"):
                mean_pool(vs)
        with pytest.raises(ValueError, match="^vectors have dim 2, expected 3$"):
            mean_pool([np.array([1.0, 2.0])], dim=3)

    @given(st.lists(st.lists(st.floats(-100, 100), min_size=3, max_size=3), min_size=1, max_size=6),
           st.randoms())
    def test_order_invariance(self, rows, rnd):
        vs = [np.array(r) for r in rows]
        shuffled = list(vs)
        rnd.shuffle(shuffled)
        assert np.allclose(mean_pool(shuffled), mean_pool(vs), atol=1e-9)
        assert np.array_equal(max_pool(shuffled), max_pool(vs))
        assert np.allclose(mean_max_concat(shuffled), mean_max_concat(vs), atol=1e-9)

    @given(st.lists(st.lists(st.floats(-100, 100), min_size=2, max_size=2), min_size=1, max_size=6))
    def test_concat_is_exactly_its_parts(self, rows):
        vs = [np.array(r) for r in rows]
        assert np.array_equal(
            mean_max_concat(vs), np.concatenate([mean_pool(vs), max_pool(vs)])
        )


class TestSifWeight:
    def test_unseen_word_gets_full_weight(self):
        assert sif_weight(0.001, 0.0) == 1.0

    def test_midpoint(self):
        assert sif_weight(0.001, 0.001) == 0.5

    def test_formula_value(self):
        assert sif_weight(0.5, 1.0) == pytest.approx(1 / 3, abs=1e-15)

    def test_strictly_decreasing(self):
        ps = np.linspace(0, 1, 50)
        ws = [sif_weight(0.01, p) for p in ps]
        assert all(a > b for a, b in zip(ws, ws[1:]))


class TestSifWeightedMean:
    FREQ = FrequencyTable(counts={"common": 2, "rare": 0}, total=4)

    def test_derived_weighted_mean(self):
        # a=0.5: p(unknown)=0 -> w=1; p(common)=0.5 -> w=0.5
        strat = Sif(freq=self.FREQ, a=0.5)
        out = sif_weighted_mean(
            ["unknown", "common"], [np.array([1.0, 0]), np.array([0, 1.0])], strat
        )
        assert np.allclose(out, [0.5, 0.25], atol=1e-15)

    def test_uniform_probabilities_scale_mean(self):
        strat = Sif(freq=FrequencyTable(counts={"a": 1, "b": 1}, total=4), a=0.1)
        vs = [np.array([1.0, 2.0]), np.array([3.0, -1.0])]
        out = sif_weighted_mean(["a", "b"], vs, strat)
        w = sif_weight(0.1, 0.25)
        assert np.allclose(out, w * mean_pool(vs), atol=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            sif_weighted_mean(["a"], [], Sif(freq=self.FREQ))

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError, match="empty sequence"):
            sif_weighted_mean([], [], Sif(freq=self.FREQ))

    @given(st.randoms())
    def test_order_invariance(self, rnd):
        strat = Sif(freq=FrequencyTable(counts={"a": 1, "b": 2, "c": 3}, total=10), a=0.05)
        tokens = ["a", "b", "c", "b"]
        vs = [np.array([1.0, 0]), np.array([0, 2.0]), np.array([1.0, 1.0]), np.array([-1.0, 0.5])]
        ref = sif_weighted_mean(tokens, vs, strat)
        order = list(range(4))
        rnd.shuffle(order)
        out = sif_weighted_mean([tokens[i] for i in order], [vs[i] for i in order], strat)
        assert np.allclose(out, ref, atol=1e-12)


class TestFitCommonComponent:
    def test_rank_one(self):
        M = np.tile([1.0, 0.0], (5, 1))
        assert np.allclose(fit_common_component(M), [1, 0], atol=1e-9)

    def test_sign_fix_on_symmetric_rank_one(self):
        M = np.array([[1.0, 0.0], [-1.0, 0.0]])
        assert np.allclose(fit_common_component(M), [1, 0], atol=1e-9)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(11)
        M = rng.standard_normal((6, 4))
        c = fit_common_component(M)
        assert abs(c @ top_eig_oracle(M)) >= 1 - 1e-6

    def test_all_zero_matrix_rejected(self):
        with pytest.raises(ValueError):
            fit_common_component(np.zeros((3, 2)))
        with pytest.raises(ValueError, match="at least one row"):
            fit_common_component(np.zeros((0, 2)))

    def test_matches_dense_oracle_at_scale(self):
        # a small eigengap, as in real sentence matrices, where an iterative
        # method stops short of the true direction
        M = np.random.default_rng(0).standard_normal((4000, 300))
        assert abs(fit_common_component(M) @ top_eig_oracle(M)) >= 1 - 1e-9

    def test_oracle_agreement_small_matrices(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(1, 9))
            d = int(rng.integers(1, 9))
            M = rng.standard_normal((n, d))
            assert abs(fit_common_component(M) @ top_eig_oracle(M)) >= 1 - 1e-6


class TestRemoveCommonComponent:
    def test_basic(self):
        assert np.allclose(remove_common_component(np.array([1.0, 1.0]), np.array([1.0, 0.0])), [0, 1])

    def test_orthogonal_unchanged(self):
        v = np.array([0.0, 2.0])
        assert np.allclose(remove_common_component(v, np.array([1.0, 0.0])), v)

    def test_parallel_goes_to_zero(self):
        c = np.array([0.6, 0.8])
        assert np.allclose(remove_common_component(c, c), [0, 0], atol=1e-12)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            remove_common_component(np.array([1.0, 2.0, 3.0]), np.array([1.0, 0.0]))

    def test_non_unit_component_rejected(self):
        with pytest.raises(ValueError):
            remove_common_component(np.array([1.0, 1.0]), np.array([2.0, 0.0]))

    @given(st.lists(st.floats(-50, 50), min_size=3, max_size=3),
           st.lists(st.floats(-1, 1), min_size=3, max_size=3))
    def test_orthogonality_and_contraction(self, vc, cc):
        v = np.array(vc)
        c = np.array(cc)
        if np.linalg.norm(c) < 1e-6:
            return
        c = c / np.linalg.norm(c)
        out = remove_common_component(v, c)
        assert abs(out @ c) <= 1e-9 * max(1.0, np.linalg.norm(v))
        assert np.linalg.norm(out) <= np.linalg.norm(v) + 1e-12


class TestEmbedCorpus:
    TABLE = table_of({"a": np.array([1.0, 0.0]), "b": np.array([0.0, 1.0])})

    def test_mean_composition(self):
        out = embed_corpus([("a", "b"), ("a",)], self.TABLE, Mean())
        assert np.allclose(out, [[0.5, 0.5], [1, 0]])

    def test_mean_max_width(self):
        out = embed_corpus([("a", "b")], self.TABLE, MeanMaxConcat())
        assert out.shape == (1, 4)

    def test_all_oov_row_is_zero(self):
        out = embed_corpus([("zzz",), ("a",)], self.TABLE, Mean())
        assert np.array_equal(out[0], [0, 0])

    @pytest.mark.parametrize("sents", [[("zzz",)], [(), ("x", "y")], [], [("zzz",), ("a",)]])
    def test_corpus_with_no_table_word_rejected(self, sents):
        freq = FrequencyTable(counts={"a": 1}, total=2)
        for strat in (Mean(), MeanMaxConcat(), Sif(freq=freq)):
            with pytest.raises(ConfigError, match="no token of the fit rows is in the vector table"):
                embed_corpus(sents, self.TABLE, strat, fit_rows=[0])

    def test_sif_rank_one_corpus_collapses(self):
        table = table_of({"x": np.array([1.0, 2.0, 2.0])})
        strat = Sif(freq=FrequencyTable(counts={"x": 1}, total=2))
        out = embed_corpus([("x",), ("x", "x"), ("x",)], table, strat, fit_rows=[0, 1, 2])
        assert np.abs(out).max() < 1e-9

    def test_zero_vector_rejected_only_when_used(self):
        table = table_of({"a": np.array([1.0, 0.0]), "z": np.zeros(2)})
        assert np.allclose(embed_corpus([("a",)], table, Mean()), [[1, 0]])
        assert np.array_equal(embed_corpus([("z",)], table, Mean(), normalize_tokens=False), [[0, 0]])
        with pytest.raises(ValueError, match="zero vector"):
            embed_corpus([("a", "z")], table, MeanMaxConcat())

    def test_used_zero_vector_named_by_its_first_word_in_corpus_order(self):
        table = table_of({"a": np.ones(2), "y": np.zeros(2), "z": np.zeros(2)})
        with pytest.raises(ParseError) as info:
            embed_corpus([("a",), ("a", "z", "y"), ("y",)], table, Mean())
        assert str(info.value) == "cannot normalize the zero vector of word 'z'"

    def test_unnormalised_sums_past_float64_range_rejected(self):
        table = table_of({"big": np.full(2, 1e308), "z": np.zeros(2)})
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="overflow") as info:
            embed_corpus([("z",), ("big", "big")], table, Mean(), normalize_tokens=False)
        assert not isinstance(info.value, ParseError)

    def test_rows_whose_squares_under_or_overflow(self):
        table = table_of({
            "huge": np.array([3e200, 4e200]),
            "small": np.array([3e-170, 4e-170]),
            "least": np.array([5e-324, 0.0]),
            "mixed": np.array([1e200, 5e-324]),
        })
        out = embed_corpus([("huge",), ("small",), ("least",), ("mixed",)], table, Mean())
        assert np.allclose(out, [[0.6, 0.8], [0.6, 0.8], [1, 0], [1, 0]], rtol=0, atol=1e-15)
        with pytest.raises(ValueError, match="zero vector"):
            embed_corpus([("huge", "z")], table_of({"huge": np.ones(2), "z": np.zeros(2)}), Mean())

    def test_table_matrix_left_unchanged(self):
        table = random_table([f"w{i}" for i in range(12)], 5, seed=2)
        before = table.vectors.copy()
        sents = [("w0", "w3", "w3"), ("w1", "oov"), (), ("w2", "w5", "w7", "w11")]
        freq = FrequencyTable(counts={f"w{i}": i for i in range(12)}, total=100)
        for strat in (Mean(), MeanMaxConcat(), Sif(freq=freq, a=0.01)):
            for normalize in (True, False):
                first = embed_corpus(sents, table, strat, [0, 1, 3], normalize_tokens=normalize)
                again = embed_corpus(sents, table, strat, [0, 1, 3], normalize_tokens=normalize)
                assert np.array_equal(first, again)
        assert np.array_equal(table.vectors, before)
        with pytest.raises(ValueError, match="read-only"):
            table.vectors[0, 0] = 1.0

    def test_sif_requires_fit_rows(self):
        strat = Sif(freq=FrequencyTable(counts={"a": 1}, total=2))
        with pytest.raises(ValueError):
            embed_corpus([("a",)], self.TABLE, strat)
        with pytest.raises(TypeError, match="unknown strategy"):  # not a strategy at all
            embed_corpus([("a",)], self.TABLE, "sif", [0])

    def test_sif_component_fitted_on_train_only(self):
        rng = np.random.default_rng(3)
        words = {f"w{i}": rng.standard_normal(4) for i in range(10)}
        table = table_of(words)
        sents = [tuple(rng.choice(list(words), 3)) for _ in range(8)]
        strat = Sif(freq=FrequencyTable(counts={w: 1 for w in words}, total=20))
        out_a = embed_corpus(sents, table, strat, fit_rows=[0, 1, 2, 3])
        out_b = embed_corpus(sents[:4] + [("w0", "w1")], table, strat, fit_rows=[0, 1, 2, 3])
        # changing a held-out row must not change the fitted rows
        assert np.allclose(out_a[:4], out_b[:4], atol=1e-12)


VOCAB = ("a", "b", "c", "d", "e")
vectors = st.lists(
    st.floats(-10, 10).filter(lambda x: abs(x) > 1e-3), min_size=3, max_size=3
).map(np.array)
# OOV words ("x", "y") make empty and all-OOV sentences likely
sentences = st.lists(
    st.lists(st.sampled_from(VOCAB + ("x", "y")), max_size=6).map(tuple), min_size=1, max_size=8
)


class TestEmbedCorpusMatchesOracles:
    @given(st.lists(vectors, min_size=len(VOCAB), max_size=len(VOCAB)), sentences,
           st.sampled_from([(Mean(), mean_pool), (MeanMaxConcat(), mean_max_concat)]),
           st.booleans())
    def test_pooling_strategies(self, vecs, sents, strat_and_oracle, normalize):
        strat, oracle = strat_and_oracle
        table = VectorTable(VOCAB, vecs)
        if not any(t in table.row for s in sents for t in s):
            with pytest.raises(ConfigError):
                embed_corpus(sents, table, strat, normalize_tokens=normalize)
            return
        out = embed_corpus(sents, table, strat, normalize_tokens=normalize)
        expected = [oracle(sentence_token_vectors(table, s, normalize), 3) for s in sents]
        assert out.shape == (len(sents), len(expected[0]))
        assert np.abs(out - np.array(expected)).max() <= 1e-12

    @pytest.mark.parametrize("normalize", [True, False])
    def test_sif_matches_weighted_mean_and_removal(self, normalize):
        rng = np.random.default_rng(8)
        shared = 3.0 * rng.standard_normal(6)  # a dominant common direction
        words = {f"w{i}": shared + rng.standard_normal(6) for i in range(30)}
        table = table_of(words)
        freq = FrequencyTable(counts={f"w{i}": i for i in range(30)}, total=500)
        sents = [tuple(rng.choice(list(words), int(rng.integers(1, 8)))) for _ in range(60)]
        sents[5] = ()
        sents[9] = ("oov", "oov")
        strat = Sif(freq=freq, a=0.01)
        fit_rows = list(range(40))
        out = embed_corpus(sents, table, strat, fit_rows=fit_rows, normalize_tokens=normalize)

        unfitted = np.array([
            sif_weighted_mean(
                [t for t in s if t in table.row],
                sentence_token_vectors(table, s, normalize),
                strat,
            ) if any(t in table.row for t in s) else np.zeros(6)
            for s in sents
        ])
        w, _ = np.linalg.eigh(unfitted[fit_rows].T @ unfitted[fit_rows])
        assert w[-1] > 2 * w[-2]  # a clear eigengap, so the direction is well defined
        c = top_eig_oracle(unfitted[fit_rows])
        expected = np.array([remove_common_component(v, c) for v in unfitted])
        assert np.abs(out - expected).max() <= 1e-12


def pooled_reference(sents, table, strat, fit_rows, normalize):
    """``embed_corpus`` one sentence at a time through the per-sentence
    references, with the matrix's rows normalised as ``embed_corpus`` does and
    the same common-component removal."""
    E = table.vectors
    if normalize:
        E = E / np.linalg.norm(E, axis=1, keepdims=True)
    rows = []
    for s in sents:
        toks = [t for t in s if t in table.row]
        vs = E[[table.row[t] for t in toks]]
        if isinstance(strat, Sif):
            rows.append(sif_weighted_mean(toks, vs, strat) if toks else np.zeros(table.dim))
        else:
            pool = mean_max_concat if isinstance(strat, MeanMaxConcat) else mean_pool
            rows.append(pool(vs, table.dim))
    ref = np.array(rows)
    if isinstance(strat, Sif):
        c = fit_common_component(ref[fit_rows])
        ref -= np.outer(ref @ c, c)
    return ref


def bucketed_corpus(d, seed=0):
    """Sentences of in-vocabulary length 0 (empty and all-OOV), 1, 4 and
    many, with OOV tokens among them. At d = 512 the length-4 bucket spans
    three blocks and each long sentence exceeds ``BLOCK_FLOATS`` alone."""
    rng = np.random.default_rng(seed)
    words = [f"w{i}" for i in range(40)]
    table = VectorTable(words, rng.standard_normal((len(words), d)))
    draw = lambda n: rng.choice(words, n).tolist()
    per_block = max(1, BLOCK_FLOATS // (4 * 512))
    long_len = BLOCK_FLOATS // 512 + 1
    sents = [(), ("oov",), ("oov", "x")] + [tuple(draw(1)) for _ in range(10)]
    sents += [tuple(draw(4) + ["oov"] * (i % 2)) for i in range(2 * per_block + 3)]
    sents += [tuple(draw(long_len)), tuple(draw(long_len - 1) + ["oov"] + draw(1))]
    sents += [tuple(draw(int(rng.integers(2, 12)))) for _ in range(30)]
    order = rng.permutation(len(sents))
    return [sents[i] for i in order], table


class TestEmbedCorpusBitwise:
    @pytest.mark.parametrize("d", [1, 16, 512])
    @pytest.mark.parametrize("kind", ["mean", "mean_max", "sif"])
    @pytest.mark.parametrize("normalize", [True, False])
    def test_rows_equal_per_sentence_references(self, d, kind, normalize):
        sents, table = bucketed_corpus(d)
        freq = FrequencyTable(counts={w: i for i, w in enumerate(table.keys)}, total=900)
        strat = {"mean": Mean(), "mean_max": MeanMaxConcat(), "sif": Sif(freq=freq, a=0.01)}[kind]
        fit_rows = list(range(0, len(sents), 2))
        out = embed_corpus(sents, table, strat, fit_rows, normalize_tokens=normalize)
        ref = pooled_reference(sents, table, strat, fit_rows, normalize)
        assert out.shape == ref.shape
        assert out.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("strat", [Mean(), MeanMaxConcat()])
    def test_used_zero_vector_raises_from_a_later_block(self, strat):
        sents, table = bucketed_corpus(512)
        table = VectorTable(table.keys + ("z",), np.vstack([table.vectors, np.zeros(512)]))
        sents = sents + [("w0", "w1", "w2", "z")]
        with pytest.raises(ValueError, match="zero vector"):
            embed_corpus(sents, table, strat)

    @pytest.mark.parametrize("strat", [
        Mean(), MeanMaxConcat(),
        Sif(freq=FrequencyTable(counts={f"w{i}": i for i in range(40)}, total=900), a=0.01)])
    def test_blocks_bounded_by_bytes(self, strat, monkeypatch):
        # 26 MB of gathered rows in all, mostly 20 sentences that each exceed
        # the cap alone. One block is alive at a time, of at most one of them;
        # SIF scales each block in place rather than weighting a table.
        d, long_len = 512, BLOCK_FLOATS // 512 + 44
        sents, table = bucketed_corpus(d)
        rng = np.random.default_rng(1)
        sents += [tuple(rng.choice(table.keys, long_len).tolist()) for _ in range(20)]
        fit = list(range(len(sents))) if isinstance(strat, Sif) else None
        embed_corpus(sents, table, strat, fit)  # warm-up outside the traced call
        # SIF's own sentence-sized arrays, out[fit] and then the component's
        # outer product, are each the size of out here. A fixed component
        # stands in for the fit, whose (d, d) arrays are not the pooling's.
        monkeypatch.setattr("sentbench.aggregate.fit_common_component", lambda M: np.eye(1, d)[0])
        sif_bytes = len(sents) * d * 8 if fit else 0
        tracemalloc.start()
        try:
            out = embed_corpus(sents, table, strat, fit)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        largest_block = max(BLOCK_FLOATS, long_len * d) * 8
        assert peak - out.nbytes - table.vectors.nbytes - sif_bytes < largest_block + 2**19
        # Pooled without normalising, the table is not copied at all: 1000
        # unused words make it larger than the bound.
        unused = tuple(f"u{i}" for i in range(1000))
        table = VectorTable(table.keys + unused,
                            np.vstack([table.vectors, rng.standard_normal((len(unused), d))]))
        tracemalloc.start()
        try:
            out = embed_corpus(sents, table, strat, fit, normalize_tokens=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - out.nbytes - sif_bytes < largest_block + 2**19 < table.vectors.nbytes
