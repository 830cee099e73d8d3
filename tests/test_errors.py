import math
from dataclasses import dataclass
from typing import Sequence

import pytest

from sentbench.errors import ConfigError, check_types


@dataclass(frozen=True)
class Inner:
    x: int = 0


HINTS = {
    "dim": int | None,
    "seed": int,
    "rate": float,
    "flag": bool,
    "name": str,
    "block": dict | None,
    "formats": tuple[str, ...],
    "ratios": tuple[float, float, float],
    "labels": Sequence[str] | None,
    "inner": Inner,
}


def check(**values):
    check_types("owner 'o'", values, HINTS)


def rejected(key, value, shown):
    with pytest.raises(ConfigError) as info:
        check(**{key: value})
    assert str(info.value) == f"owner 'o': {key} must be {shown}, not {value!r}"


class TestCheckTypes:
    def test_every_annotation_accepts_its_json_type(self):
        check(dim=4, seed=0, rate=0.5, flag=False, name="n", block={"a": 1},
              formats=["csv", "md"], ratios=[0.8, 0.1, 0.1], labels=("a", "b"), inner=Inner())

    def test_optional_takes_none_or_the_type(self):
        check(dim=None, block=None, labels=None)
        check(dim=3, block={}, labels=[])
        rejected("dim", 4.5, "int | None")
        rejected("dim", "3", "int | None")
        rejected("block", [], "dict | None")

    def test_fixed_length_tuple(self):
        check(ratios=(1, 0, 0))
        rejected("ratios", [0.8, 0.2], "tuple[float, float, float]")
        rejected("ratios", [0.8, 0.1, 0.05, 0.05], "tuple[float, float, float]")
        rejected("ratios", [0.8, 0.1, "0.1"], "tuple[float, float, float]")
        rejected("ratios", 0.8, "tuple[float, float, float]")

    def test_variable_length_tuple(self):
        check(formats=[])
        rejected("formats", ["csv", 1], "tuple[str, ...]")
        rejected("formats", "csv", "tuple[str, ...]")

    def test_a_string_is_not_a_sequence_of_strings(self):
        rejected("labels", "ab", "Sequence[str] | None")
        rejected("labels", ["a", 1], "Sequence[str] | None")
        rejected("labels", {"a": 1}, "Sequence[str] | None")

    def test_a_bool_is_not_an_int_and_an_int_is_not_a_bool(self):
        rejected("seed", True, "int")
        rejected("dim", False, "int | None")
        rejected("rate", True, "float")
        rejected("flag", 1, "bool")
        rejected("flag", "no", "bool")

    def test_an_int_is_a_float_and_stays_an_int(self):
        values = {"rate": 1}
        check_types("owner", values, HINTS)
        assert type(values["rate"]) is int

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_numbers_are_finite(self, value):
        rejected("rate", value, "float")
        rejected("ratios", [value, 0.5, 0.5], "tuple[float, float, float]")

    def test_a_nested_dataclass_is_an_instance_not_a_dict(self):
        rejected("inner", {"x": 0}, "Inner")

    def test_unknown_keys_are_reported_together(self):
        with pytest.raises(ConfigError, match=r"^owner: unknown synthetic key\(s\): itmes, zz$"):
            check_types("owner", {"zz": 1, "dim": 2, "itmes": 3}, HINTS, "synthetic")

    def test_section_names_the_key(self):
        with pytest.raises(ConfigError, match=r"^task 't': synthetic items must be int, not '2'$"):
            check_types("task 't'", {"items": "2"}, {"items": int}, "synthetic")
