import io
import os
import sys
import tempfile
import unicodedata
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from sentbench import lexicon
from sentbench.errors import ParseError
from sentbench.lexicon import (
    FrequencyTable,
    VectorTable,
    load_frequency_table,
    load_sentence_vector_table,
    load_word_vectors,
    random_table,
    save_sentence_vector_table,
    tokenize,
    unigram_probability,
)
from oracles import (
    load_sentence_vectors_by_line,
    load_word_vectors_by_line,
    normalize,
    save_sentence_vectors,
    sentence_token_vectors,
    serialize_word_vectors,
    tokenize as tokenize_by_category,
)


class TestVectorTable:
    def test_rows_follow_keys(self):
        table = VectorTable(["b", "a"], [[1.0, 2.0], [3.0, 4.0]])
        assert table.keys == ("b", "a") and table.dim == 2
        assert table.row == {"b": 0, "a": 1}
        assert np.array_equal(table.vectors[table.row["a"]], [3, 4])

    @pytest.mark.parametrize("keys, vectors, message", [
        (["a", "b"], [[1.0]], "one row per key"),
        (["a"], [1.0], "one row per key"),
        (["a"], np.zeros((1, 0)), "dim must be positive"),
        (["a", "a"], [[1.0], [2.0]], "unique"),
        (["a"], [[np.nan]], "finite"),
        (["a"], [[np.inf]], "finite"),
    ])
    def test_rejects_malformed_input(self, keys, vectors, message):
        with pytest.raises(ValueError, match=message):
            VectorTable(keys, vectors)


class TestLoadWordVectors:
    def test_header_file(self):
        table = load_word_vectors(io.StringIO("2 3\nkot 1 0 0\npies 0 1 0"))
        assert table.dim == 3
        assert table.keys == ("kot", "pies")
        assert np.allclose(table.vectors[table.row["kot"]], [1, 0, 0])

    def test_headerless_glove_style(self):
        table = load_word_vectors(io.StringIO("kot 1 0 0\npies 0 1 0"))
        assert table.dim == 3 and len(table.keys) == 2

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
        assert table.keys == ("kot",)
        assert np.allclose(table.vectors, [[1, 0]])
        assert table.duplicates == 1

    def test_expected_dim_enforced(self):
        with pytest.raises(ParseError):
            load_word_vectors(io.StringIO("kot 1 0 0"), expected_dim=2)

    def test_crlf_accepted(self):
        table = load_word_vectors(io.StringIO("kot 1 0\r\npies 0 1\r\n"))
        assert len(table.keys) == 2

    def test_word2vec_trailing_space_and_space_runs(self):
        table = load_word_vectors(io.StringIO("2 3 \nkot 1 0 0 \npies  0 1   0\t\r\n"))
        assert table.keys == ("kot", "pies")
        assert np.array_equal(table.vectors, [[1, 0, 0], [0, 1, 0]])

    @pytest.mark.parametrize("bad", ["inf", "-inf", "nan", "1e999"])
    def test_non_finite_component_names_line(self, bad):
        with pytest.raises(ParseError, match="line 3: non-finite"):
            load_word_vectors(io.StringIO(f"2 2\nkot 1 0\npies 0 {bad}\n"))

    def test_header_with_trailing_space_still_checked(self):
        with pytest.raises(ParseError, match="header dim 3"):
            load_word_vectors(io.StringIO("2 3 \nkot 1 0 0 \n"), expected_dim=2)

    @pytest.mark.parametrize("text, found", [
        ("3 2\na 1 0\n", 1),  # truncated file
        ("1 2\na 1 0\nb 0 1\n", 2),
        ("3 2\na 1 0\n\nb 0 1\n", 2),  # blank lines are not vectors
    ])
    def test_header_count_checked(self, text, found):
        expected = text.split()[0]
        with pytest.raises(ParseError, match=f"header announces {expected} vectors, found {found}"):
            load_word_vectors(io.StringIO(text))

    def test_header_count_includes_dropped_duplicates(self):
        table = load_word_vectors(io.StringIO("3 2\na 1 0\nb 0 1\na 1 1\n"))
        assert table.keys == ("a", "b") and table.duplicates == 1
        with pytest.raises(ParseError, match="header announces 2 vectors, found 3"):
            load_word_vectors(io.StringIO("2 2\na 1 0\nb 0 1\na 1 1\n"))

    def test_serialize_roundtrip_identity(self):
        rng = np.random.default_rng(4)
        table = VectorTable([f"w{i}" for i in range(7)], rng.standard_normal((7, 5)))
        buf = io.StringIO()
        serialize_word_vectors(table, buf)
        back = load_word_vectors(io.StringIO(buf.getvalue()))
        assert back.keys == table.keys
        assert np.array_equal(back.vectors, table.vectors)


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

    @pytest.mark.parametrize("text", ["   \na 3\n\t \nb 1\n", "a 3\nb 1\n \r\n"])
    def test_whitespace_only_lines_skipped(self, text):
        assert load_frequency_table(io.StringIO(text)) == load_frequency_table(
            io.StringIO("a 3\nb 1\n"))

    def test_total_only_on_first_line(self):
        ft = load_frequency_table(io.StringIO("  \n#total 100\na 3\n"))
        assert ft.counts == {"#total": 100, "a": 3} and ft.total == 103

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
        assert t1.keys == t2.keys == ("a", "b")
        assert np.array_equal(t1.vectors, t2.vectors)

    def test_seed_changes_vectors(self):
        t1 = random_table(["a"], 4, seed=7)
        t2 = random_table(["a"], 4, seed=8)
        assert not np.array_equal(t1.vectors, t2.vectors)

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

    @pytest.mark.parametrize("x", [1e200, 1.7e308, 1e-170, 5.465066115431133e-160, 5e-324])
    def test_norm_outside_the_squarable_range(self, x):
        assert np.array_equal(normalize(np.array([x, -0.0])), [1.0, 0.0])

    @pytest.mark.parametrize("scale", [1e200, 1e-170])
    def test_three_four_five_at_extreme_scales(self, scale):
        out = normalize(np.array([3.0, 4.0]) * scale)
        assert np.allclose(out, [0.6, 0.8], rtol=0, atol=1e-15)

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=8))
    def test_idempotent(self, comps):
        v = np.array(comps)
        if not np.any(v):
            return
        once = normalize(v)
        assert np.linalg.norm(once) == pytest.approx(1.0, abs=1e-9)
        assert np.allclose(normalize(once), once, atol=1e-12)


class TestSentenceTokenVectors:
    TABLE = VectorTable(["kot"], [[3.0, 4.0]])

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
        assert table.dim == 2 and table.keys == ("s1", "s2")

    def test_trailing_space_and_space_runs(self):
        table = load_sentence_vector_table(io.StringIO("s1\t1  0 \ns2\t0 1\t\n"))
        assert table.dim == 2
        assert np.array_equal(table.vectors, [[1, 0], [0, 1]])

    def test_missing_components(self):
        with pytest.raises(ParseError, match="line 1"):
            load_sentence_vector_table(io.StringIO("s1\t \n"))

    def test_non_finite_component_names_line(self):
        with pytest.raises(ParseError, match="line 2: non-finite"):
            load_sentence_vector_table(io.StringIO("s1\t1 0\ns2\tnan 1\n"))

    def test_duplicate_id(self):
        with pytest.raises(ParseError, match="duplicate"):
            load_sentence_vector_table(io.StringIO("s1\t1 0\ns1\t0 1"))

    def test_dim_error_names_line(self):
        with pytest.raises(ParseError, match="line 2"):
            load_sentence_vector_table(io.StringIO("s1\t1 0\ns2\t1"))


FINITE = st.floats(allow_nan=False, allow_infinity=False)  # subnormals included
# The documented key formats: words hold no whitespace; ids hold no TAB, CR or LF.
# Lone surrogates cannot be written as UTF-8.
WORDS = st.text(st.characters(blacklist_categories=("Cs",)).filter(lambda c: not c.isspace()),
                min_size=1)
IDS = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\t\r\n"))


@st.composite
def tables(draw, keys, values=FINITE):
    names = draw(st.lists(keys, min_size=1, max_size=6, unique=True))
    d = draw(st.integers(1, 5))
    rows = draw(st.lists(st.lists(values, min_size=d, max_size=d),
                         min_size=len(names), max_size=len(names)))
    return VectorTable(names, rows)


def file_roundtrip(table, save, load):
    """Write with ``save`` and read back with ``load`` through a UTF-8 file,
    opened as the CLI opens its files."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "vectors.txt")
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            save(table, fh)
        with open(path, encoding="utf-8") as fh:
            return load(fh)


class TestVectorFileRoundTrip:
    @given(tables(WORDS))
    def test_word_vectors_with_header(self, table):
        back = file_roundtrip(table, serialize_word_vectors, load_word_vectors)
        assert back.keys == table.keys
        assert np.array_equal(back.vectors, table.vectors)

    @given(tables(IDS))
    def test_sentence_vectors(self, table):
        back = file_roundtrip(table, save_sentence_vector_table, load_sentence_vector_table)
        assert back.keys == table.keys
        assert np.array_equal(back.vectors, table.vectors)


EXTREMES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 2.225073858507201e-308,
            1e308, -1e308, 1.7976931348623157e308, -1.7976931348623157e308, 1 / 3, 0.1]
EDGE_FLOATS = st.one_of(FINITE, st.sampled_from(EXTREMES))
FORMATS = {"repr": repr, "%.17g": "%.17g".__mod__, "%.6f": "%.6f".__mod__, "%E": "%E".__mod__}


def outcome(load, text, **kwargs):
    """What ``load`` makes of ``text``: the table as keys, vector bytes and
    dropped duplicates, or the ParseError as message and line. No warning
    may escape the parser."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            table = load(io.StringIO(text), **kwargs)
        except ParseError as exc:
            return str(exc), exc.line
    return table.keys, table.vectors.tobytes(), table.duplicates


class TestSentenceVectorWriter:
    @given(tables(IDS | st.just("a%sb%%"), EDGE_FLOATS))
    def test_bytes_equal_the_per_float_writer(self, table):
        fast, slow = io.StringIO(), io.StringIO()
        save_sentence_vector_table(table, fast)
        save_sentence_vectors(table, slow)
        assert fast.getvalue() == slow.getvalue()

    def test_extremes_written_as_before(self):
        table = VectorTable(["x"], [EXTREMES])
        buf = io.StringIO()
        save_sentence_vector_table(table, buf)
        assert buf.getvalue() == "x\t" + " ".join(format(x, ".17g") for x in EXTREMES) + "\n"
        assert load_sentence_vector_table(io.StringIO(buf.getvalue())).vectors.tobytes() == (
            table.vectors.tobytes()
        )


class TestBlockParser:
    """The block path against ``float()`` per token and against the
    line-by-line parser in ``oracles``."""

    @given(st.lists(st.lists(EDGE_FLOATS, min_size=3, max_size=3), min_size=1, max_size=30),
           st.sampled_from(sorted(FORMATS)))
    def test_block_equals_float_per_token(self, rows, fmt):
        rests = [" ".join(FORMATS[fmt](x) for x in row) for row in rows]
        got = lexicon._block_rows([("key", "\t", rest) for rest in rests], 3)
        assert got is not None
        want = np.array([[float(tok) for tok in rest.split(" ")] for rest in rests])
        assert got.tobytes() == want.tobytes()

    @given(st.lists(st.lists(EDGE_FLOATS, min_size=2, max_size=2), min_size=1, max_size=12),
           st.sampled_from(sorted(FORMATS)), st.integers(1, 4))
    def test_loaders_equal_line_parser_across_blocks(self, rows, fmt, block):
        lines = [" ".join(FORMATS[fmt](x) for x in row) for row in rows]
        words = "".join(f"w{i % 5} {line}\n" for i, line in enumerate(lines))
        sents = "".join(f"s{i}\t{line}\n" for i, line in enumerate(lines))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lexicon, "_BLOCK", block)
            assert outcome(load_word_vectors, words) == outcome(load_word_vectors_by_line, words)
            assert outcome(load_sentence_vector_table, sents) == outcome(
                load_sentence_vectors_by_line, sents
            )

    @pytest.mark.parametrize("text", [
        "a 1 0\r\nb 0 1\r\n",  # CRLF
        "a 1 0 \nb 0 1 \n",  # word2vec trailing space
        "a  1   0\nb 0  1\n",  # runs of spaces
        "a 1 \t0\nb 0\t 1\n",  # tabs beside spaces
        "a 1_0 2\n",  # an underscore float() reads
        " a 1 0\n",  # a leading space
        "a 1 0\na 0 x\n",  # a duplicate word is not parsed
        "a \x1c1 0\n",  # loadtxt strips \x1c around a number, float() does not
        "a ١ 0\n",  # a non-ASCII digit float() reads
    ])
    def test_accepted_and_rejected_inputs_as_before(self, text):
        for block in (1, 2, lexicon._BLOCK):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(lexicon, "_BLOCK", block)
                assert outcome(load_word_vectors, text) == outcome(load_word_vectors_by_line, text)
                sents = text.replace(" ", "\t", 1)
                assert outcome(load_sentence_vector_table, sents) == outcome(
                    load_sentence_vectors_by_line, sents
                )

    @given(st.lists(st.tuples(st.sampled_from(["a", "b", "", " c", "1"]),
                              st.sampled_from([" ", "  ", "\t", " \t"]),
                              st.lists(st.sampled_from(["1", "-0", "2.5e-3", "1_0", "x", "nan",
                                                        "inf", "\x1c1", "", " "]), max_size=3),
                              st.sampled_from(["\n", "\r\n", " \n", "\t\n"])),
                    max_size=8),
           st.sampled_from(["", "2 2\n", "3 1\n", "0 2\n"]), st.integers(1, 3))
    def test_any_small_file_parses_as_before(self, lines, header, block):
        words = header + "".join(k + sep + " ".join(c) + end for k, sep, c, end in lines)
        sents = "".join(k + "\t" + " ".join(c) + end for k, _, c, end in lines)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lexicon, "_BLOCK", block)
            assert outcome(load_word_vectors, words) == outcome(load_word_vectors_by_line, words)
            assert outcome(load_word_vectors, words, expected_dim=2) == outcome(
                load_word_vectors_by_line, words, expected_dim=2
            )
            assert outcome(load_sentence_vector_table, sents) == outcome(
                load_sentence_vectors_by_line, sents
            )

    def test_numbers_parsed_in_bounded_blocks(self, monkeypatch):
        calls = []
        loadtxt = np.loadtxt

        def counting_loadtxt(rests, *args, **kwargs):
            calls.append(len(rests))
            return loadtxt(rests, *args, **kwargs)

        monkeypatch.setattr(np, "loadtxt", counting_loadtxt)
        text = "".join(f"s{i}\t{i} 1\n" for i in range(2500))
        assert load_sentence_vector_table(io.StringIO(text)).vectors.shape == (2500, 2)
        block = lexicon._BLOCK
        assert block <= 1024 and calls == [block] * (2500 // block) + [2500 % block]


def long_file(kind, bad=None, lines=1600, at=1500):
    """A valid ``kind`` vector file of ``lines`` lines, three components each,
    with line ``at`` replaced by ``bad`` (key and components)."""
    key, sep = ("w", " ") if kind == "word" else ("s", "\t")
    rows = [f"{key}{i}{sep}{i} 0.5 -1" for i in range(1, lines + 1)]
    if bad is not None:
        rows[at - 1] = bad.replace(" ", sep, 1)
    return "".join(row + "\n" for row in rows)


class TestErrorsPastTheFirstBlock:
    @pytest.mark.parametrize("kind, bad, message", [
        ("word", "w1500 1 x -1", "line 1500: non-numeric vector component"),
        ("word", "w1500 1 0", "line 1500: expected 3 components, found 2"),
        ("word", "w1500 1 inf -1", "line 1500: non-finite vector component"),
        ("word", "w1500 1 0 -1 2", "line 1500: expected 3 components, found 4"),
        ("sentence", "s1500 1 x -1", "line 1500: non-numeric vector component"),
        ("sentence", "s1500 1 0", "line 1500: expected 3 components, found 2"),
        ("sentence", "s1500 nan 0 -1", "line 1500: non-finite vector component"),
        ("sentence", "s7 1 0 -1", "line 1500: duplicate sentence id 's7'"),
        ("sentence", "s1500", "line 1500: expected `id<TAB>components`"),
    ])
    def test_error_names_its_line(self, kind, bad, message):
        text = long_file(kind, bad)
        load, oracle = ((load_word_vectors, load_word_vectors_by_line) if kind == "word"
                        else (load_sentence_vector_table, load_sentence_vectors_by_line))
        assert outcome(load, text) == outcome(oracle, text) == (message, 1500)

    def test_short_header(self):
        text = "1601 3\n" + long_file("word")
        assert outcome(load_word_vectors, text) == outcome(load_word_vectors_by_line, text) == (
            "header announces 1601 vectors, found 1600", None
        )

    @pytest.mark.parametrize("first, later, message", [
        ((1100, "s1100 1 0"), (1200, "s3 1 0 -1"), "line 1100: expected 3 components, found 2"),
        ((1400, "s1400 1 x -1"), (1500, "s3 1 0 -1"), "line 1400: non-numeric vector component"),
        ((1100, "s3 1 0 -1"), (1200, "s1200 1 0"), "line 1100: duplicate sentence id 's3'"),
    ])
    def test_first_error_in_line_order(self, first, later, message):
        """Two faults in one block: the earlier line is named, whichever
        check finds it."""
        rows = long_file("sentence").splitlines()
        for at, bad in (first, later):
            rows[at - 1] = bad.replace(" ", "\t", 1)
        text = "\n".join(rows) + "\n"
        assert outcome(load_sentence_vector_table, text) == (message, first[0])
        assert outcome(load_sentence_vectors_by_line, text) == (message, first[0])

    def test_duplicate_words_past_the_first_block_dropped(self):
        text = long_file("word", "w3 9 9 9")
        table = load_word_vectors(io.StringIO(text))
        assert table.duplicates == 1 and len(table.keys) == 1599
        assert table.vectors[table.row["w3"]].tolist() == [3.0, 0.5, -1.0]
        assert outcome(load_word_vectors, text) == outcome(load_word_vectors_by_line, text)


TOKEN_SAMPLES = (
    "e.g.", "don't", "$5", "—", "...", "\U0001f642", "\U0001f44d\U0001f3fd", "«»", "(a)",
    "1,000", "x²", "ǅ", "İ", "STRASSE", "Łódź", "e\u0301", "\u0301", "a\u200db", "\u200d",
    "_",
)
# Letters of every case, digits and numerals, marks, punctuation, symbols
# (emoji among them), spaces and format characters such as ZWJ.
TOKEN_CHARS = st.characters(categories=("L", "M", "N", "P", "S", "Zs", "Cf"))
SPACES = (" ", "  ", "\t", "\xa0", "\u2003", "\u3000", "\n")


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

    def test_no_alphanumeric_character_is_punctuation_or_symbol(self):
        # tokenize keeps an isalnum token without looking up its categories
        wrong = [
            f"U+{cp:04X}" for cp in range(sys.maxunicode + 1)
            if chr(cp).isalnum() and unicodedata.category(chr(cp))[0] in "PS"
        ]
        assert wrong == []

    @given(
        st.lists(st.tuples(
            st.one_of(st.sampled_from(TOKEN_SAMPLES), st.text(TOKEN_CHARS, max_size=5)),
            st.sampled_from(SPACES),
        ), max_size=12),
        st.booleans(),
    )
    def test_matches_category_oracle(self, parts, lowercase):
        text = "".join(tok + gap for tok, gap in parts)
        assert tokenize(text, lowercase) == tokenize_by_category(text, lowercase)

