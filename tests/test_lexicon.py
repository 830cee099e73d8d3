import io

import numpy as np
import pytest
from hypothesis import given, strategies as st

from sentbench.errors import ParseError
from sentbench.lexicon import (
    FrequencyTable,
    WordVectorTable,
    load_frequency_table,
    load_sentence_vector_table,
    load_word_vectors,
    normalize,
    random_table,
    sentence_token_vectors,
    serialize_word_vectors,
    tokenize,
    unigram_probability,
)


class TestLoadWordVectors:
    def test_header_file(self):
        table = load_word_vectors(io.StringIO("2 3\nkot 1 0 0\npies 0 1 0"))
        assert table.dim == 3
        assert len(table) == 2
        assert np.allclose(table.get("kot"), [1, 0, 0])

    def test_headerless_glove_style(self):
        table = load_word_vectors(io.StringIO("kot 1 0 0\npies 0 1 0"))
        assert table.dim == 3 and len(table) == 2

    def test_dimension_mismatch_names_line(self):
        with pytest.raises(ParseError, match="line 2"):
            load_word_vectors(io.StringIO("kot 1 0\npies 0 1 0"))

    def test_non_numeric_component(self):
        with pytest.raises(ParseError):
            load_word_vectors(io.StringIO("kot 1 abc 0"))

    def test_empty_input(self):
        with pytest.raises(ParseError):
            load_word_vectors(io.StringIO(""))

    def test_duplicates_keep_first(self):
        table = load_word_vectors(io.StringIO("kot 1 0\nkot 0 1"))
        assert np.allclose(table.get("kot"), [1, 0])
        assert table.duplicates == 1

    def test_expected_dim_enforced(self):
        with pytest.raises(ParseError):
            load_word_vectors(io.StringIO("kot 1 0 0"), expected_dim=2)

    def test_crlf_accepted(self):
        table = load_word_vectors(io.StringIO("kot 1 0\r\npies 0 1\r\n"))
        assert len(table) == 2

    def test_word2vec_trailing_space_and_space_runs(self):
        table = load_word_vectors(io.StringIO("2 3 \nkot 1 0 0 \npies  0 1   0\t\r\n"))
        assert table.dim == 3 and len(table) == 2
        assert np.array_equal(table.get("kot"), [1, 0, 0])
        assert np.array_equal(table.get("pies"), [0, 1, 0])

    def test_header_with_trailing_space_still_checked(self):
        with pytest.raises(ParseError, match="header dim 3"):
            load_word_vectors(io.StringIO("2 3 \nkot 1 0 0 \n"), expected_dim=2)

    def test_serialize_roundtrip_identity(self):
        rng = np.random.default_rng(4)
        table = WordVectorTable(dim=5, entries={f"w{i}": rng.standard_normal(5) for i in range(7)})
        buf = io.StringIO()
        serialize_word_vectors(table, buf)
        back = load_word_vectors(io.StringIO(buf.getvalue()))
        assert back.dim == table.dim
        assert set(back.entries) == set(table.entries)
        for w in table.entries:
            assert np.array_equal(back.get(w), table.get(w))


class TestFrequencyTable:
    def test_basic(self):
        ft = load_frequency_table(io.StringIO("a 3\nb 1"))
        assert ft.counts == {"a": 3, "b": 1} and ft.total == 4

    def test_total_override(self):
        ft = load_frequency_table(io.StringIO("#total 100\na 3"))
        assert ft.total == 100

    def test_negative_count(self):
        with pytest.raises(ParseError):
            load_frequency_table(io.StringIO("a -1"))

    def test_non_integer_count(self):
        with pytest.raises(ParseError):
            load_frequency_table(io.StringIO("a 1.5"))

    def test_unigram_probability(self):
        ft = FrequencyTable(counts={"a": 3, "b": 1}, total=4)
        assert unigram_probability(ft, "a") == 0.75
        assert unigram_probability(ft, "zzz") == 0.0
        assert unigram_probability(FrequencyTable(counts={"a": 4}, total=4), "a") == 1.0

    def test_probabilities_sum_below_one(self):
        ft = FrequencyTable(counts={"a": 2, "b": 3, "c": 1}, total=10)
        assert sum(unigram_probability(ft, w) for w in ft.counts) <= 1.0


class TestRandomTable:
    def test_deterministic(self):
        t1 = random_table(["a", "b"], 4, seed=7)
        t2 = random_table(["a", "b"], 4, seed=7)
        for w in ("a", "b"):
            assert np.array_equal(t1.get(w), t2.get(w))

    def test_seed_changes_vectors(self):
        t1 = random_table(["a"], 4, seed=7)
        t2 = random_table(["a"], 4, seed=8)
        assert not np.array_equal(t1.get("a"), t2.get("a"))

    def test_empty_vocab_rejected(self):
        with pytest.raises(ValueError):
            random_table([], 4, seed=7)

    def test_zero_dim_rejected(self):
        with pytest.raises(ValueError):
            random_table(["a"], 0, seed=7)


class TestNormalize:
    def test_three_four_five(self):
        assert np.allclose(normalize(np.array([3.0, 4.0])), [0.6, 0.8])

    def test_identity_on_unit(self):
        assert np.allclose(normalize(np.array([0.0, 1.0])), [0, 1])

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            normalize(np.zeros(2))

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=8))
    def test_idempotent(self, comps):
        v = np.array(comps)
        if np.linalg.norm(v) == 0:
            return
        once = normalize(v)
        assert np.linalg.norm(once) == pytest.approx(1.0, abs=1e-9)
        assert np.allclose(normalize(once), once, atol=1e-12)


class TestSentenceTokenVectors:
    TABLE = WordVectorTable(dim=2, entries={"kot": np.array([3.0, 4.0])})

    def test_normalized_lookup(self):
        vs = sentence_token_vectors(self.TABLE, ["kot"], do_normalize=True)
        assert np.allclose(vs, [[0.6, 0.8]])

    def test_oov_skipped(self):
        assert sentence_token_vectors(self.TABLE, ["pies"]) == []

    def test_repeats_kept_in_order(self):
        vs = sentence_token_vectors(self.TABLE, ["kot", "pies", "kot"], do_normalize=False)
        assert len(vs) == 2
        assert np.array_equal(vs[0], vs[1])


class TestSentenceVectorTable:
    def test_load(self):
        table = load_sentence_vector_table(io.StringIO("s1\t1 0\ns2\t0 1"))
        assert table.dim == 2 and len(table) == 2

    def test_trailing_space_and_space_runs(self):
        table = load_sentence_vector_table(io.StringIO("s1\t1  0 \ns2\t0 1\t\n"))
        assert table.dim == 2
        assert np.array_equal(table.entries["s1"], [1, 0])

    def test_missing_components(self):
        with pytest.raises(ParseError, match="line 1"):
            load_sentence_vector_table(io.StringIO("s1\t \n"))

    def test_duplicate_id(self):
        with pytest.raises(ParseError, match="duplicate"):
            load_sentence_vector_table(io.StringIO("s1\t1 0\ns1\t0 1"))

    def test_dim_error_names_line(self):
        with pytest.raises(ParseError, match="line 2"):
            load_sentence_vector_table(io.StringIO("s1\t1 0\ns2\t1"))


class TestTokenize:
    def test_lowercase_and_split(self):
        assert tokenize("Dobry  Hotel") == ["dobry", "hotel"]

    def test_punctuation_only_tokens_dropped(self):
        assert tokenize("tak , nie !") == ["tak", "nie"]

    def test_lowercase_off(self):
        assert tokenize("Dobry hotel", lowercase=False) == ["Dobry", "hotel"]

    def test_polish_diacritics_nfc(self):
        # combining-acute input must compare equal to the composed form
        assert tokenize("zły") == ["zły"]
        assert tokenize("łódka") == ["łódka"]
