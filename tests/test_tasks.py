import io

import numpy as np
import pytest

from sentbench.errors import ParseError
from sentbench.tasks import (
    ClassificationTask,
    PairItem,
    PairTask,
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
        assert task.items[0] == (("dobry", "hotel"), "pos")

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
        assert len(task.items) == 2

    def test_vocabulary_order_and_uniqueness(self):
        task = load_classification_tsv(io.StringIO("pos\tb a b\nneg\ta c"))
        assert task.vocabulary() == ["b", "a", "c"]


class TestPairLoader:
    def test_basic(self):
        text = SICK_HEADER + "\n1\tkot spi\tpies biega\t3.5\tNEUTRAL\n"
        task = load_sick_tsv(io.StringIO(text))
        item = task.items[0]
        assert item.id == "1"
        assert item.tokens_a == ("kot", "spi")
        assert item.relatedness == 3.5
        assert item.entailment == "neutral"

    def test_extra_columns_ignored(self):
        text = "extra\t" + SICK_HEADER + "\nx\t1\ta\tb\t2.0\tNEUTRAL\n"
        task = load_sick_tsv(io.StringIO(text))
        assert task.items[0].id == "1"

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


class TestDataclassValidation:
    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            ClassificationTask("t", ("a", "a"), ((("x",), "a"),))

    def test_item_label_outside_set(self):
        with pytest.raises(ValueError):
            ClassificationTask("t", ("a",), ((("x",), "b"),))

    def test_overlapping_splits_rejected(self):
        with pytest.raises(ValueError):
            ClassificationTask(
                "t", ("a",), ((("x",), "a"), (("y",), "a")),
                splits={"train": [0], "test": [0]},
            )

    def test_relatedness_range(self):
        with pytest.raises(ValueError):
            PairItem("1", ("a",), ("b",), 0.5, "neutral")

    def test_duplicate_pair_ids(self):
        item = PairItem("1", ("a",), ("b",), 3.0, "neutral")
        with pytest.raises(ValueError):
            PairTask("t", (item, item))


class TestSplit:
    def _task(self, n):
        items = tuple(((f"w{i}",), "a") for i in range(n))
        return ClassificationTask("t", ("a",), items)

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

    def test_bad_ratios(self):
        with pytest.raises(ValueError):
            split(self._task(10), ratios=(0.5, 0.2, 0.2))

    def test_too_few_items(self):
        with pytest.raises(ValueError):
            split(self._task(2))

    @pytest.mark.parametrize("n, ratios", [(3, (0.0, 0.5, 0.5)), (10, (0.0, 0.5, 0.5))])
    def test_ratios_leaving_train_empty(self, n, ratios):
        with pytest.raises(ValueError, match="train split empty"):
            split(self._task(n), ratios=ratios)


class TestSyntheticClassification:
    def test_shapes_and_labels(self):
        task, table = synthetic_classification(3, 30, 5, seed=1, dim=8)
        assert task.label_set == ("c0", "c1", "c2")
        assert len(task.items) == 30
        assert table.dim == 8
        assert len(table) == 15

    def test_class_word_sets_disjoint(self):
        task, table = synthetic_classification(2, 20, 4, seed=1)
        for toks, label in task.items:
            k = label[1:]
            assert all(t.startswith(f"w{k}_") for t in toks)

    def test_balanced_labels(self):
        task, _ = synthetic_classification(2, 20, 4, seed=1)
        labels = [lab for _, lab in task.items]
        assert labels.count("c0") == labels.count("c1") == 10

    def test_deterministic(self):
        t1, tab1 = synthetic_classification(2, 20, 4, seed=5)
        t2, tab2 = synthetic_classification(2, 20, 4, seed=5)
        assert t1.items == t2.items and t1.splits == t2.splits
        for w in tab1.entries:
            assert np.array_equal(tab1.get(w), tab2.get(w))

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
        assert len(task.items) == 50
        assert table.dim == 12
        assert len(table) == 60

    def test_scores_consistent_with_overlap(self):
        task, _ = synthetic_relatedness(200, 8, seed=4)
        for it in task.items:
            inter = len(set(it.tokens_a) & set(it.tokens_b))
            union = len(set(it.tokens_a) | set(it.tokens_b))
            jac = inter / union
            assert it.relatedness == pytest.approx(round(1 + 4 * jac, 1))
            if jac >= 0.7:
                assert it.entailment == "entailment"
            elif jac <= 0.1:
                assert it.entailment == "contradiction"
            else:
                assert it.entailment == "neutral"

    def test_sentence_lengths_fixed(self):
        task, _ = synthetic_relatedness(50, 8, seed=4)
        for it in task.items:
            assert len(it.tokens_a) == 8
            assert len(set(it.tokens_a)) == 8  # sampled without replacement

    def test_label_diversity(self):
        task, _ = synthetic_relatedness(300, 8, seed=4)
        assert {it.entailment for it in task.items} == {
            "entailment", "neutral", "contradiction"
        }

    def test_deterministic(self):
        t1, _ = synthetic_relatedness(40, 8, seed=9)
        t2, _ = synthetic_relatedness(40, 8, seed=9)
        assert t1.items == t2.items

    def test_too_few_pairs(self):
        with pytest.raises(ValueError):
            synthetic_relatedness(5, 8, seed=0)
