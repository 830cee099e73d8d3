import io

import numpy as np
import pytest

import oracles
from sentbench.errors import ParseError
from sentbench.tasks import (
    ENTAILMENT_LABELS,
    Task,
    load_classification_tsv,
    load_sick_tsv,
    split,
    synthetic_classification,
    synthetic_relatedness,
)

SICK_HEADER = "pair_ID\tsentence_A\tsentence_B\trelatedness_score\tentailment_judgment"


class TestClassificationLoader:
    def test_basic(self):
        task = load_classification_tsv(io.StringIO("pos\tdobry hotel\nneg\tslaby hotel"))
        assert task.label_set == ("pos", "neg")
        assert task.sentences == (("dobry", "hotel"), ("slaby", "hotel"))
        assert task.labels == ("pos", "neg")

    def test_equal_tokens_are_one_object(self):
        task = load_classification_tsv(io.StringIO("pos\tdobry Hotel\nneg\tslaby hotel"))
        assert task.sentences[0][1] is task.sentences[1][1]
        sick = load_sick_tsv(io.StringIO(f"{SICK_HEADER}\n1\tdobry hotel\tslaby HOTEL\t3\tNEUTRAL"))
        assert sick.sentences[0][1] is sick.sentences[1][1]

    def test_labels_in_first_appearance_order(self):
        task = load_classification_tsv(io.StringIO("b\tx\na\ty\nb\tz"))
        assert task.label_set == ("b", "a")

    def test_explicit_label_set_enforced(self):
        with pytest.raises(ParseError, match="line 2"):
            load_classification_tsv(io.StringIO("pos\tx\nzzz\ty"), label_set=["pos", "neg"])

    def test_split_column(self):
        task = load_classification_tsv(
            io.StringIO("pos\ta\ttrain\nneg\tb\tdev\npos\tc\ttest")
        )
        assert task.splits == {"train": [0], "dev": [1], "test": [2]}

    def test_bad_split_name(self):
        with pytest.raises(ParseError, match="line 1"):
            load_classification_tsv(io.StringIO("pos\ta\tvalidation"))

    def test_missing_column(self):
        with pytest.raises(ParseError, match="line 2"):
            load_classification_tsv(io.StringIO("pos\ta\njustonecolumn"))

    def test_too_many_columns(self):
        with pytest.raises(ParseError):
            load_classification_tsv(io.StringIO("pos\ta\ttrain\textra"))

    def test_empty_file(self):
        with pytest.raises(ParseError):
            load_classification_tsv(io.StringIO(""))

    def test_blank_lines_skipped(self):
        task = load_classification_tsv(io.StringIO("pos\ta\n\nneg\tb\n"))
        assert len(task.labels) == 2

    def test_vocabulary_order_and_uniqueness(self):
        task = load_classification_tsv(io.StringIO("pos\tb a b\nneg\ta c"))
        assert task.vocabulary() == ["b", "a", "c"]


class TestPairLoader:
    def test_basic(self):
        text = SICK_HEADER + "\n1\tkot spi\tpies biega\t3.5\tNEUTRAL\n"
        task = load_sick_tsv(io.StringIO(text))
        assert task.pair_ids == ("1",)
        assert task.sentences == (("kot", "spi"), ("pies", "biega"))
        assert task.scores == (3.5,)
        assert task.labels == ("neutral",)
        assert task.label_set == ENTAILMENT_LABELS

    def test_extra_columns_ignored(self):
        text = "extra\t" + SICK_HEADER + "\nx\t1\ta\tb\t2.0\tNEUTRAL\n"
        task = load_sick_tsv(io.StringIO(text))
        assert task.pair_ids == ("1",)

    def test_semeval_split_mapping(self):
        text = (
            SICK_HEADER + "\tSemEval_set\n"
            "1\ta\tb\t2.0\tNEUTRAL\tTRAIN\n"
            "2\ta\tb\t2.0\tNEUTRAL\tTRIAL\n"
            "3\ta\tb\t2.0\tNEUTRAL\tTEST\n"
        )
        task = load_sick_tsv(io.StringIO(text))
        assert task.splits == {"train": [0], "dev": [1], "test": [2]}

    def test_missing_required_column(self):
        with pytest.raises(ParseError, match="relatedness_score"):
            load_sick_tsv(io.StringIO("pair_ID\tsentence_A\tsentence_B\tentailment_judgment\n"))

    def test_duplicate_id(self):
        text = SICK_HEADER + "\n1\ta\tb\t2.0\tNEUTRAL\n1\ta\tb\t2.0\tNEUTRAL\n"
        with pytest.raises(ParseError, match="line 3"):
            load_sick_tsv(io.StringIO(text))

    def test_score_out_of_range(self):
        text = SICK_HEADER + "\n1\ta\tb\t5.5\tNEUTRAL\n"
        with pytest.raises(ParseError, match="line 2"):
            load_sick_tsv(io.StringIO(text))

    @pytest.mark.parametrize("score", ["0.5", "5.5", "nan", "inf"])
    def test_score_outside_range_names_its_line(self, score):
        text = SICK_HEADER + f"\n1\ta\tb\t2.0\tNEUTRAL\n2\ta\tb\t{score}\tNEUTRAL\n"
        with pytest.raises(ParseError, match=f"^line 3: relatedness {score} outside \\[1, 5\\]$"):
            load_sick_tsv(io.StringIO(text))

    def test_unknown_semeval_set_names_its_line(self):
        text = (SICK_HEADER + "\tSemEval_set\n"
                "1\ta\tb\t2.0\tNEUTRAL\tTRAIN\n2\ta\tb\t2.0\tNEUTRAL\tDEV\n")
        with pytest.raises(ParseError, match="^line 3: unknown SemEval_set 'DEV'$"):
            load_sick_tsv(io.StringIO(text))

    def test_short_row_names_its_line(self):
        text = SICK_HEADER + "\n1\ta\tb\t2.0\tNEUTRAL\n2\ta\tb\t2.0\n"
        with pytest.raises(ParseError, match="^line 3: expected 5 columns, found 4$"):
            load_sick_tsv(io.StringIO(text))

    @pytest.mark.parametrize("rest", ["", "\n", "\n\n\r\n"])
    def test_header_without_rows(self, rest):
        with pytest.raises(ParseError, match="^no rows in pair file$"):
            load_sick_tsv(io.StringIO(SICK_HEADER + rest))

    def test_non_numeric_score(self):
        text = SICK_HEADER + "\n1\ta\tb\thigh\tNEUTRAL\n"
        with pytest.raises(ParseError):
            load_sick_tsv(io.StringIO(text))

    def test_unknown_entailment_label(self):
        text = SICK_HEADER + "\n1\ta\tb\t2.0\tMAYBE\n"
        with pytest.raises(ParseError):
            load_sick_tsv(io.StringIO(text))

    def test_empty_file(self):
        with pytest.raises(ParseError):
            load_sick_tsv(io.StringIO(""))

    def test_vocabulary_covers_both_sides(self):
        text = SICK_HEADER + "\n1\tkot spi\tpies biega\t3.0\tNEUTRAL\n"
        assert load_sick_tsv(io.StringIO(text)).vocabulary() == ["kot", "spi", "pies", "biega"]


def pair_task(sentences_a, sentences_b, **fields):
    n = len(sentences_a)
    defaults = {
        "labels": ("neutral",) * n, "pair_ids": tuple(f"p{i}" for i in range(n)),
        "scores": (3.0,) * n,
    }
    return Task("pairs", tuple(sentences_a) + tuple(sentences_b),
                label_set=ENTAILMENT_LABELS, **{**defaults, **fields})


class TestDataclassValidation:
    def test_overlapping_splits_rejected(self):
        with pytest.raises(ValueError, match="two splits"):
            Task("t", (("x",), ("y",)), ("a", "a"), ("a",), splits={"train": [0], "test": [0]})
        for i in (-1, 2):  # an index that is no item's
            with pytest.raises(ValueError, match=f"^split index {i} out of range$"):
                Task("t", (("x",), ("y",)), ("a", "a"), ("a",), splits={"train": [0], "test": [i]})

    @pytest.mark.parametrize("sentences, labels, pair_ids", [
        ((("x",),), ("a", "a"), None),
        ((("x",), ("y",), ("z",)), ("a", "a"), None),
        ((("x",), ("y",), ("z",)), ("a",), ("p0",)),
        ((("x",),), ("a",), ("p0",)),
    ])
    def test_sentence_count_mismatch(self, sentences, labels, pair_ids):
        label_set = ("a",)
        with pytest.raises(ValueError, match="items need"):
            Task("t", sentences, labels, label_set, pair_ids=pair_ids)

    def test_one_score_and_pair_id_per_item(self):
        with pytest.raises(ValueError, match="expected 1 scores"):
            pair_task([("a",)], [("b",)], scores=(3.0, 3.0))
        with pytest.raises(ValueError, match="pair ids"):
            pair_task([("a",)], [("b",)], pair_ids=("1", "2"))


class TestTaskLayout:
    def test_classification_rows_are_items(self):
        task = Task("t", (("x",), ("y",), ("z",)), ("a",) * 3, ("a",))
        assert task.rows([2, 0]) == [2, 0]
        assert task.rows(range(3)) == [0, 1, 2]
        assert task.sentence_ids() == ["0", "1", "2"]

    def test_pair_rows_are_a_rows_then_b_rows(self):
        task = pair_task([("a",), ("b",), ("c",)], [("d",), ("e",), ("f",)])
        assert task.rows([2, 0]) == [2, 0, 5, 3]
        assert [task.sentences[r] for r in task.rows([1])] == [("b",), ("e",)]
        assert task.sentence_ids() == ["p0_A", "p1_A", "p2_A", "p0_B", "p1_B", "p2_B"]

    def test_pair_vocabulary_goes_item_by_item(self):
        # A0, B0, A1, B1: not all A sentences first, which would give a b c d e
        task = pair_task([("a", "b"), ("c",)], [("d",), ("a", "e")])
        assert task.vocabulary() == ["a", "b", "d", "c", "e"]

    def test_loaded_pairs_use_the_layout(self):
        text = SICK_HEADER + "\n7\tkot spi\tpies\t3.0\tNEUTRAL\n8\tryba\tkot\t4.0\tENTAILMENT\n"
        task = load_sick_tsv(io.StringIO(text))
        assert task.sentences == (("kot", "spi"), ("ryba",), ("pies",), ("kot",))
        assert task.sentence_ids() == ["7_A", "8_A", "7_B", "8_B"]
        assert task.labels == ("neutral", "entailment")


class TestSplit:
    def _task(self, n):
        return Task("t", tuple((f"w{i}",) for i in range(n)), ("a",) * n, ("a",))

    def test_partition(self):
        out = split(self._task(100), seed=3)
        all_idx = sorted(out.splits["train"] + out.splits["dev"] + out.splits["test"])
        assert all_idx == list(range(100))

    def test_default_ratios(self):
        out = split(self._task(100), seed=3)
        assert len(out.splits["train"]) == 80
        assert len(out.splits["dev"]) == 10
        assert len(out.splits["test"]) == 10

    def test_deterministic(self):
        assert split(self._task(50), seed=7).splits == split(self._task(50), seed=7).splits

    def test_seed_changes_assignment(self):
        assert split(self._task(50), seed=7).splits != split(self._task(50), seed=8).splits

    def test_input_untouched(self):
        task = self._task(10)
        split(task, seed=0)
        assert task.splits == {}

    def test_too_few_items(self):
        with pytest.raises(ValueError):
            split(self._task(2))

    @pytest.mark.parametrize("n, ratios", [(3, (0.0, 0.5, 0.5)), (10, (0.0, 0.5, 0.5))])
    def test_ratios_leaving_train_empty(self, n, ratios):
        with pytest.raises(ValueError, match="train split empty"):
            split(self._task(n), ratios=ratios)


    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_ratios_leaving_test_empty(self, n):
        # default ratios round the test split of 5 or fewer items to 0
        with pytest.raises(ValueError, match="test split empty"):
            split(self._task(n))
        assert split(self._task(6)).splits["test"]


class TestSyntheticClassification:
    def test_shapes_and_labels(self):
        task, table = synthetic_classification(3, 30, 5, seed=1, dim=8)
        assert task.label_set == ("c0", "c1", "c2")
        assert len(task.labels) == len(task.sentences) == 30
        assert table.dim == 8
        assert len(table.keys) == 15

    def test_class_word_sets_disjoint(self):
        task, table = synthetic_classification(2, 20, 4, seed=1)
        for toks, label in zip(task.sentences, task.labels):
            k = label[1:]
            assert all(t.startswith(f"w{k}_") for t in toks)

    def test_balanced_labels(self):
        task, _ = synthetic_classification(2, 20, 4, seed=1)
        labels = list(task.labels)
        assert labels.count("c0") == labels.count("c1") == 10

    def test_deterministic(self):
        t1, tab1 = synthetic_classification(2, 20, 4, seed=5)
        t2, tab2 = synthetic_classification(2, 20, 4, seed=5)
        assert t1 == t2
        assert tab1.keys == tab2.keys
        assert np.array_equal(tab1.vectors, tab2.vectors)

    def test_splits_assigned(self):
        task, _ = synthetic_classification(2, 100, 4, seed=5)
        assert sum(len(v) for v in task.splits.values()) == 100

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            synthetic_classification(1, 20, 4, seed=0)
        with pytest.raises(ValueError):
            synthetic_classification(3, 2, 4, seed=0)


class TestSyntheticRelatedness:
    def test_shapes(self):
        task, table = synthetic_relatedness(50, 12, seed=2)
        assert len(task.labels) == len(task.pair_ids) == len(task.scores) == 50
        assert len(task.sentences) == 100
        assert table.dim == 12
        assert len(table.keys) == 60

    def test_scores_consistent_with_overlap(self):
        task, _ = synthetic_relatedness(200, 8, seed=4)
        for i, (score, label) in enumerate(zip(task.scores, task.labels)):
            a, b = (set(task.sentences[r]) for r in task.rows([i]))
            jac = len(a & b) / len(a | b)
            assert score == pytest.approx(round(1 + 4 * jac, 1))
            if jac >= 0.7:
                assert label == "entailment"
            elif jac <= 0.1:
                assert label == "contradiction"
            else:
                assert label == "neutral"

    def test_sentence_lengths_fixed(self):
        task, _ = synthetic_relatedness(50, 8, seed=4)
        for tokens_a in task.sentences[:50]:
            assert len(tokens_a) == 8
            assert len(set(tokens_a)) == 8  # sampled without replacement

    def test_label_diversity(self):
        task, _ = synthetic_relatedness(300, 8, seed=4)
        assert set(task.labels) == {
            "entailment", "neutral", "contradiction"
        }

    def test_deterministic(self):
        t1, _ = synthetic_relatedness(40, 8, seed=9)
        t2, _ = synthetic_relatedness(40, 8, seed=9)
        assert t1 == t2

    def test_too_few_pairs(self):
        with pytest.raises(ValueError):
            synthetic_relatedness(5, 8, seed=0)


@pytest.mark.parametrize("make", [
    lambda: synthetic_classification(4, 200, 10, seed=3),
    lambda: synthetic_relatedness(100, 8, seed=3),
])
def test_synthetic_tokens_are_plain_str(make):
    task, _ = make()
    assert {type(tok) for toks in task.sentences for tok in toks} == {str}


def assert_same_generated(got, want):
    """Bitwise-equal generated tasks and lexicons."""
    (task, table), (ref, ref_table) = got, want
    assert task.sentences == ref.sentences
    assert task.labels == ref.labels and task.label_set == ref.label_set
    assert task.pair_ids == ref.pair_ids
    if ref.scores is not None:
        assert np.array(task.scores).tobytes() == np.array(ref.scores).tobytes()
    assert task.splits == ref.splits
    assert task == ref
    assert table.keys == ref_table.keys
    assert table.vectors.tobytes() == ref_table.vectors.tobytes()


# The sweep-synthetic benchmark shapes: 4 classes x 3000 items x 50 words per
# class, and 1000 pairs, at each of its dims.
@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("dim", [16, 64, 256])
class TestGeneratorsMatchListDraws:
    def test_classification(self, dim, seed):
        assert_same_generated(
            synthetic_classification(4, 3000, 50, seed=seed, dim=dim),
            oracles.synthetic_classification(4, 3000, 50, seed=seed, dim=dim),
        )

    def test_relatedness(self, dim, seed):
        assert_same_generated(
            synthetic_relatedness(1000, dim=dim, seed=seed),
            oracles.synthetic_relatedness(1000, dim=dim, seed=seed),
        )
