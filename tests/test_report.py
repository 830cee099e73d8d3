import csv
import io
import json
import xml.etree.ElementTree as ET

import pytest
from hypothesis import given, strategies as st

from sentbench.metrics import EvalResult
from sentbench.report import (
    ResultMatrix,
    format_value,
    line_plot_svg,
    matrix_to_csv,
    matrix_to_json,
    matrix_to_markdown,
)


def small_matrix():
    cells = {
        ("m1", "t1"): EvalResult("t1", "m1", "accuracy", 0.789, 100),
        ("m1", "t2"): EvalResult("t2", "m1", "pearson", 0.6934, 50),
        ("m2", "t1"): EvalResult("t1", "m2", "accuracy", 0.5, 100),
        ("m2", "t2"): EvalResult("t2", "m2", "pearson", -0.25, 50),
    }
    return ResultMatrix(methods=("m1", "m2"), tasks=("t1", "t2"), cells=cells)


# Any name a JSON config can hold and a UTF-8 file can store (no lone surrogates),
# drawn often from the characters that CSV and JSON treat specially.
NAMES = st.text(st.sampled_from(',"\r\n\t\\ x') | st.characters(blacklist_categories=("Cs",)))


@st.composite
def matrices(draw):
    methods = draw(st.lists(NAMES, min_size=1, max_size=3, unique=True))
    tasks = draw(st.lists(NAMES, min_size=1, max_size=3, unique=True))
    cells = {}
    for m in methods:
        for t in tasks:
            measure = draw(st.sampled_from(["accuracy", "pearson"]))
            lo = 0.0 if measure == "accuracy" else -1.0
            value = draw(st.floats(lo, 1.0))
            cells[m, t] = EvalResult(t, m, measure, value, draw(st.integers(1, 10**6)))
    return ResultMatrix(methods=tuple(methods), tasks=tuple(tasks), cells=cells)


def expected_rows(matrix):
    return [
        (m, t, matrix.get(m, t).measure, matrix.get(m, t).value, matrix.get(m, t).n)
        for m in matrix.methods for t in matrix.tasks
    ]


class TestRoundTrip:
    @given(matrices())
    def test_csv_reads_back(self, matrix):
        rows = list(csv.reader(io.StringIO(matrix_to_csv(matrix), newline="")))
        assert rows[0] == ["method", "task", "measure", "value", "n"]
        back = [(m, t, measure, float(v), int(n)) for m, t, measure, v, n in rows[1:]]
        assert back == [
            (m, t, measure, float(f"{value:.6f}"), n)
            for m, t, measure, value, n in expected_rows(matrix)
        ]

    @given(matrices())
    def test_json_reads_back(self, matrix):
        doc = json.loads(matrix_to_json(matrix))
        back = [(c["method"], c["task"], c["measure"], c["value"], c["n"]) for c in doc["results"]]
        assert back == [
            (m, t, measure, round(value, 6), n) for m, t, measure, value, n in expected_rows(matrix)
        ]


class TestResultMatrix:
    def test_missing_cell_rejected(self):
        with pytest.raises(ValueError, match="missing cell"):
            ResultMatrix(methods=("m1",), tasks=("t1",), cells={})

    def test_get(self):
        assert small_matrix().get("m1", "t2").value == 0.6934


class TestFormatValue:
    def test_accuracy_as_percentage(self):
        assert format_value(EvalResult("t", "m", "accuracy", 0.789, 10)) == "78.90"

    def test_pearson_three_decimals(self):
        assert format_value(EvalResult("t", "m", "pearson", 0.69345, 10)) == "0.693"


class TestCsv:
    def test_layout(self):
        lines = matrix_to_csv(small_matrix()).splitlines()
        assert lines[0] == "method,task,measure,value,n"
        assert lines[1] == "m1,t1,accuracy,0.789000,100"
        assert len(lines) == 5

    def test_deterministic(self):
        assert matrix_to_csv(small_matrix()) == matrix_to_csv(small_matrix())

    def test_names_with_commas_and_quotes_are_quoted(self):
        cells = {("a,b", 't"x'): EvalResult('t"x', "a,b", "accuracy", 0.5, 4)}
        text = matrix_to_csv(ResultMatrix(methods=("a,b",), tasks=('t"x',), cells=cells))
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[1] == ["a,b", 't"x', "accuracy", "0.500000", "4"]
        assert all(len(r) == 5 for r in rows)


class TestJson:
    def test_roundtrip_values(self):
        doc = json.loads(matrix_to_json(small_matrix()))
        by_key = {(c["method"], c["task"]): c for c in doc["results"]}
        assert by_key[("m2", "t2")]["value"] == -0.25
        assert by_key[("m1", "t1")]["measure"] == "accuracy"
        assert len(doc["results"]) == 4


class TestMarkdown:
    def test_grid(self):
        lines = matrix_to_markdown(small_matrix()).splitlines()
        assert lines[0] == "| Method | t1 | t2 |"
        assert lines[2] == "| m1 | 78.90 | 0.693 |"

    def test_values_roundtrip_at_displayed_precision(self):
        md = matrix_to_markdown(small_matrix())
        row = [c.strip() for c in md.splitlines()[2].split("|")[1:-1]]
        assert float(row[1]) == pytest.approx(78.90)
        assert float(row[2]) == pytest.approx(0.693)

    def test_pipes_in_names_are_escaped(self):
        """A pipe is escaped and a line break written as ``<br>``, so the table
        keeps one line per row and two cells per line for any name."""
        for method, task, header, row in [
            ("m|1", "t|x", r"| Method | t\|x |", r"| m\|1 | 50.00 |"),
            ("m|\n1", "t\nx", "| Method | t<br>x |", r"| m\|<br>1 | 50.00 |"),
            ("m\r\n1", "t\rx\r", "| Method | t<br>x<br> |", "| m<br>1 | 50.00 |"),
        ]:
            cells = {(method, task): EvalResult(task, method, "accuracy", 0.5, 4)}
            md = matrix_to_markdown(ResultMatrix(methods=(method,), tasks=(task,), cells=cells))
            # Markdown ends a line at \n, \r or \r\n
            assert md.replace("\r", "\n").split("\n") == [header, "|---|---|", row, ""]
            unescaped = lambda line: len(line.replace(r"\|", "").split("|")) - 2
            assert unescaped(header) == unescaped(row) == 2


class TestSvg:
    SERIES = {"m1": [0.5, 0.7, 0.9], "m2": [0.4, 0.4, 0.5]}

    def test_well_formed_and_self_contained(self):
        svg = line_plot_svg([4, 16, 64], self.SERIES, title="demo")
        assert svg.startswith("<svg ")
        assert svg.rstrip().endswith("</svg>")
        assert "http" not in svg.replace("http://www.w3.org/2000/svg", "")
        assert svg.count("<polyline") == 2

    def test_legend_names_present(self):
        svg = line_plot_svg([4, 16, 64], self.SERIES, title="demo")
        assert ">m1</text>" in svg and ">m2</text>" in svg

    def test_deterministic(self):
        a = line_plot_svg([4, 16], {"m": [0.1, 0.2]}, title="x")
        b = line_plot_svg([4, 16], {"m": [0.1, 0.2]}, title="x")
        assert a == b

    def test_markup_in_labels_is_escaped(self):
        svg = line_plot_svg([4, 16], {'m<1> & "q"': [0.1, 0.2]}, title='a<b & "c"',
                            xlabel="x<y", ylabel="&score")
        texts = [el.text for el in ET.fromstring(svg).iter("{http://www.w3.org/2000/svg}text")]
        for label in ('a<b & "c"', "x<y", "&score", 'm<1> & "q"'):
            assert label in texts

    def test_flat_series_does_not_crash(self):
        svg = line_plot_svg([1, 2], {"m": [0.5, 0.5]}, title="flat")
        assert "<polyline" in svg
