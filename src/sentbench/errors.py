"""Shared exception types, and the type check of a config block's values:
`runner._build` runs it on every block it builds, and `runner.TaskSpec` on
its ``synthetic`` block."""

import math
from dataclasses import is_dataclass
from functools import cache
from types import UnionType
from typing import Union, get_args, get_origin, get_type_hints


class ParseError(ValueError):
    """Malformed input file. Carries the 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class DegenerateInputError(ValueError):
    """An input sequence has no variance, so the requested statistic is undefined."""


class ConfigError(ValueError):
    """Invalid run configuration."""


class ProbeDivergedError(ArithmeticError):
    """Probe training drove the parameters to inf or NaN."""


def check_types(owner: str, values: dict, hints: dict, section: str = "") -> None:
    """Raise a ConfigError naming ``owner`` and the key unless every key of
    ``values`` has a hint and every value has the JSON type its hint names. A
    bool is not a number, a float may be given as an int and is kept as
    given, and numbers are finite. A tuple hint takes a list or a tuple,
    never a string. The message names the JSON type, as in "dim must be an
    integer or null, not 4.5". ``section`` names the block the keys belong
    to, as in "unknown synthetic key(s)"."""
    label = f"{section} " if section else ""
    unknown = sorted(set(values) - set(hints))
    if unknown:
        raise ConfigError(f"{owner}: unknown {label}key(s): {', '.join(unknown)}")
    for key, value in values.items():
        if not _conforms(value, hints[key]):
            raise ConfigError(f"{owner}: {label}{key} must be {_shown(hints[key])}, not {value!r}")


type_hints = cache(get_type_hints)  # resolved once per class; callers must not change the dict


def _conforms(value, hint) -> bool:
    """Whether ``value``, decoded from JSON, has the type ``hint`` names."""
    origin, args = get_origin(hint), get_args(hint)
    if origin in (Union, UnionType):
        return any(_conforms(value, arg) for arg in args)
    if origin is tuple:
        if not isinstance(value, (list, tuple)):
            return False
        if args[-1] is Ellipsis:
            args = args[:1] * len(value)
        return len(value) == len(args) and all(map(_conforms, value, args))
    if hint in (int, float):  # a bool is not a number; NaN fails both comparisons
        numeric = isinstance(value, (int, hint)) and not isinstance(value, bool)
        return numeric and -math.inf < value < math.inf
    return isinstance(value, hint)


_JSON_TYPES = {str: "a string", int: "an integer", float: "a number", bool: "a boolean",
               type(None): "null", dict: "an object"}


def _shown(hint) -> str:
    """The JSON type ``hint`` names: ``int | None`` is "an integer or null",
    ``tuple[str, ...]`` "an array of strings", ``tuple[float, float, float]``
    "an array of 3 numbers" (a fixed-length tuple holds one type), and a
    config dataclass "an object"."""
    origin, args = get_origin(hint), get_args(hint)
    if origin in (Union, UnionType):
        return " or ".join(map(_shown, args))
    if origin is tuple:
        count = "" if args[-1] is Ellipsis else f"{len(args)} "
        return f"an array of {count}{_shown(args[0]).split(' ', 1)[1]}s"
    return "an object" if is_dataclass(hint) else _JSON_TYPES[hint]
