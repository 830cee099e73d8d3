"""Bundled `eval` and `sweep` results are byte-identical to the committed files
under ``tests/golden/``.

A change that alters result bytes on purpose regenerates those files with the
commands below and shows the diff in CHANGES.md:

    sentbench eval --config configs/synthetic-eval.json --out <dir>
    sentbench sweep --config configs/synthetic-sweep.json --dims 4,16,64 --out <dir>
"""

from pathlib import Path

import pytest

from sentbench import cli

GOLDEN = Path(__file__).parent / "golden"
CONFIGS = Path(__file__).parent.parent / "configs"


def assert_matches_golden(out: Path, names: list[str]) -> None:
    for name in names:
        assert (out / name).read_bytes() == (GOLDEN / name).read_bytes(), name


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
