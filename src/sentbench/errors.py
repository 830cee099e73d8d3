"""Shared exception types."""


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
