import math
from dataclasses import dataclass

import pytest

from sentbench import tasks
from sentbench.errors import ConfigError, _shown, check_types, type_hints
from sentbench.probe import ProbeConfig
from sentbench.runner import MethodSpec, RunConfig, TaskSpec


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
    "labels": tuple[str, ...] | None,
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
        rejected("dim", 4.5, "an integer or null")
        rejected("dim", "3", "an integer or null")
        rejected("block", [], "an object or null")

    def test_fixed_length_tuple(self):
        check(ratios=(1, 0, 0))
        rejected("ratios", [0.8, 0.2], "an array of 3 numbers")
        rejected("ratios", [0.8, 0.1, 0.05, 0.05], "an array of 3 numbers")
        rejected("ratios", [0.8, 0.1, "0.1"], "an array of 3 numbers")
        rejected("ratios", 0.8, "an array of 3 numbers")

    def test_variable_length_tuple(self):
        check(formats=[])
        rejected("formats", ["csv", 1], "an array of strings")
        rejected("formats", "csv", "an array of strings")

    def test_a_string_is_not_a_sequence_of_strings(self):
        rejected("labels", "ab", "an array of strings or null")
        rejected("labels", ["a", 1], "an array of strings or null")
        rejected("labels", {"a": 1}, "an array of strings or null")

    def test_a_bool_is_not_an_int_and_an_int_is_not_a_bool(self):
        rejected("seed", True, "an integer")
        rejected("dim", False, "an integer or null")
        rejected("rate", True, "a number")
        rejected("flag", 1, "a boolean")
        rejected("flag", "no", "a boolean")

    def test_an_int_is_a_float_and_stays_an_int(self):
        values = {"rate": 1}
        check_types("owner", values, HINTS)
        assert type(values["rate"]) is int

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_numbers_are_finite(self, value):
        rejected("rate", value, "a number")
        rejected("ratios", [value, 0.5, 0.5], "an array of 3 numbers")

    def test_a_nested_dataclass_is_an_instance_not_a_dict(self):
        rejected("inner", {"x": 0}, "an object")

    def test_unknown_keys_are_reported_together(self):
        with pytest.raises(ConfigError, match=r"^owner: unknown synthetic key\(s\): itmes, zz$"):
            check_types("owner", {"zz": 1, "dim": 2, "itmes": 3}, HINTS, "synthetic")

    def test_section_names_the_key(self):
        with pytest.raises(ConfigError,
                           match=r"^task 't': synthetic items must be an integer, not '2'$"):
            check_types("task 't'", {"items": "2"}, {"items": int}, "synthetic")


CONFIG_HINTS = [(f"{owner.__name__}.{key}", hint)
                for owner in (TaskSpec, MethodSpec, RunConfig, ProbeConfig,
                              tasks.synthetic_classification, tasks.synthetic_relatedness)
                for key, hint in type_hints(owner).items() if key != "return"]


@pytest.mark.parametrize("hint", [hint for _, hint in CONFIG_HINTS],
                         ids=[key for key, _ in CONFIG_HINTS])
def test_no_config_message_shows_an_annotation(hint):
    """A config error names the JSON type a key takes, in the words README
    uses, never the Python annotation behind it."""
    shown = _shown(hint)
    for python in ("[", "|", "...", "None", "tuple", "Spec", "Config"):
        assert python not in shown, shown
