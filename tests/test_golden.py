"""Bundled `eval` and `sweep` results, and `eval` results on the file tasks
written by ``write_file_tasks``, are byte-identical to the committed files
under ``tests/golden/``.

A change that alters result bytes on purpose regenerates those files with the
commands below (the last after ``write_file_tasks(<dir>)``) and shows the diff
in CHANGES.md:

    sentbench eval --config configs/synthetic-eval.json --out <dir>
    sentbench sweep --config configs/synthetic-sweep.json --dims 4,16,64 --out <dir>
    sentbench eval --config <dir>/config.json --out tests/golden/file-tasks
"""

import json
import unicodedata
from pathlib import Path

import numpy as np
import pytest

from sentbench import cli

GOLDEN = Path(__file__).parent / "golden"
CONFIGS = Path(__file__).parent.parent / "configs"


def assert_matches_golden(out: Path, names: list[str], golden: Path = GOLDEN) -> None:
    for name in names:
        assert (out / name).read_bytes() == (golden / name).read_bytes(), name


@pytest.mark.parametrize("workers", ["1", "4"])
def test_eval(tmp_path, capsys, workers):
    argv = ["eval", "--config", str(CONFIGS / "synthetic-eval.json"), "--out", str(tmp_path),
            "--workers", workers]
    assert cli.main(argv) == 0
    assert_matches_golden(tmp_path, ["results.csv", "results.json"])


@pytest.mark.parametrize("workers", ["1", "4"])
def test_sweep(tmp_path, capsys, workers):
    argv = ["sweep", "--config", str(CONFIGS / "synthetic-sweep.json"), "--dims", "4,16,64",
            "--out", str(tmp_path), "--workers", workers]
    assert cli.main(argv) == 0
    assert_matches_golden(
        tmp_path, [f"results-dim{d}.{ext}" for d in (4, 16, 64) for ext in ("csv", "json")]
    )


# Words as the task files spell them: mixed case, decomposed (NFD) accents,
# and tokens that mix letters or digits with punctuation and symbols.
FILE_WORDS = (
    "Hotel", "hotel", "cafe\u0301", "CAFE\u0301", "zo\u0308e", "nai\u0308ve", "naïve",
    "ŁÓDKA", "łódka", "Zły", "e.g.", "don't", "$5", "(room)", "x²", "ǅungla",
    "STRASSE", "ΣΟΦΙΑ", "пиво", "東京", "n\u0303", "a\u0301b\u0301c\u0301",
)
# Tokens made only of punctuation and symbols.
FILE_PUNCT = (
    ",", "!", "...", "—", "«", "»", "€", "\U0001f642", "+", "(", ")", "¿", "%", "$",
    "\U0001f642\U0001f642", "-—-",
)
GAPS = (" ", "  ", "\xa0", "\u3000", " \u2003")


def write_file_tasks(root: Path, seed: int = 11) -> Path:
    """Write a seeded classification TSV, pair TSV and word-vector file, all
    with CRLF line endings, and an `eval` config over them; return the
    config path.

    The vector file holds a vector for every punctuation and symbol token
    too, and the `random` lexicon draws one row per task word in order, so a
    token kept or dropped wrongly changes the results."""
    rng = np.random.default_rng(seed)
    words = dict.fromkeys(unicodedata.normalize("NFC", w).lower() for w in FILE_WORDS)
    with open(root / "vectors.txt", "w", encoding="utf-8", newline="") as fh:
        for key in [*words, *FILE_PUNCT, "Hotel"]:
            fh.write(key + " " + " ".join(f"{x:.6f}" for x in rng.standard_normal(6)) + "\r\n")

    def sentence(pool) -> str:
        toks = [str(t) for t in rng.choice(pool, size=int(rng.integers(3, 8)))]
        for _ in range(int(rng.integers(0, 3))):
            toks.insert(int(rng.integers(0, len(toks) + 1)), str(rng.choice(FILE_PUNCT)))
        gaps = rng.choice(GAPS, size=len(toks) - 1)
        return toks[0] + "".join(g + t for g, t in zip(gaps, toks[1:]))

    labels = ("pos", "ne\u0301g", "mixed")
    with open(root / "cls.tsv", "w", encoding="utf-8", newline="") as fh:
        for i in range(150):
            k = i % len(labels)
            fh.write(f"{labels[k]}\t{sentence(FILE_WORDS[k * 6 : k * 6 + 9])}\r\n")

    judgments = ("ENTAILMENT", "Neutral", "contradiction")
    with open(root / "pairs.tsv", "w", encoding="utf-8", newline="") as fh:
        fh.write("pair_ID\tsentence_A\tsentence_B\trelatedness_score\tentailment_judgment\r\n")
        for i in range(100):
            a = sentence(FILE_WORDS)
            b = a if i % 3 == 0 else sentence(FILE_WORDS)
            score = round(float(rng.uniform(1.0, 5.0)), 1)
            fh.write(f"{i + 1}\t{a}\t{b}\t{score}\t{judgments[i % 3]}\r\n")

    lexicon = str(root / "vectors.txt")
    config = {
        "seed": 7,
        "probe": {"hidden_units": 16, "epochs": 20, "learning_rate": 0.05, "batch_size": 16},
        "tasks": [
            {"name": "cls", "kind": "classification", "path": str(root / "cls.tsv")},
            {"name": "rel", "kind": "relatedness", "path": str(root / "pairs.tsv")},
            {"name": "ent", "kind": "entailment", "path": str(root / "pairs.tsv")},
        ],
        "methods": [
            {"name": "file-mean", "strategy": "mean", "lexicon": lexicon},
            {"name": "file-sif", "strategy": "sif", "lexicon": lexicon},
            {"name": "file-maxpool", "strategy": "mean_max", "lexicon": lexicon},
            {"name": "random-mean", "strategy": "mean", "lexicon": "random", "dim": 8},
        ],
        "output": {"formats": ["csv", "json"]},
    }
    path = root / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    return path


@pytest.mark.parametrize("workers", ["1", "4"])
def test_eval_file_tasks(tmp_path, capsys, workers):
    argv = ["eval", "--config", str(write_file_tasks(tmp_path)), "--out", str(tmp_path / "out"),
            "--workers", workers]
    assert cli.main(argv) == 0
    assert_matches_golden(tmp_path / "out", ["results.csv", "results.json"], GOLDEN / "file-tasks")
