"""Exception types shared across the package, and the rules of every input
file: what numbers a config, region, table or covariate file may hold, and
that a CSV header names each column once."""
import math


class MetrosimError(Exception):
    """Base class for all package errors."""


class ParseError(MetrosimError):
    """A file or config did not match its schema. Message names the offending key."""


class ValidationError(MetrosimError):
    """Structurally parseable input violated a domain invariant."""


class ConfigError(MetrosimError):
    """Scenario configuration is unusable (bad key, bad type, bad range)."""


class InvariantViolation(MetrosimError):
    """A simulation invariant failed mid-run.

    Carries the month and invariant name so batch reports can locate the failure.
    """

    def __init__(self, month: int, invariant: str, detail: str = ""):
        self.month = month
        self.invariant = invariant
        self.detail = detail
        msg = f"month {month}: invariant '{invariant}' violated"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


def finite(value, path: str, error: type[MetrosimError] = ConfigError) -> float:
    """float(value), rejecting NaN and +-Infinity: they slip past every range check.
    ``value`` is a number or a CSV cell's text (raising ValueError if no number)."""
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise error(f"{path}: expected a finite number, got {value!r}")
    return number


def number(value, path: str, error: type[MetrosimError] = ConfigError) -> float:
    """A JSON number as a float: an int or a float, never a bool, and finite."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise error(f"{path}: expected number, got {value!r}")
    return finite(value, path, error)


def count(value, path: str, error: type[MetrosimError] = ConfigError) -> int:
    """A JSON integer, never a bool (nor a float with no fraction)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise error(f"{path}: expected integer, got {value!r}")
    return value


def columns(header, what: str, error: type[MetrosimError]) -> list[str]:
    """A CSV file's column names, rejecting a repeated one: ``csv.DictReader``
    would keep only the last cell of the name. ``header`` is None for an
    empty file."""
    names = list(header or ())
    for i, name in enumerate(names):
        if name in names[:i]:
            raise error(f"{what} repeats column {name!r}")
    return names
