"""Error types shared across the package, which the CLI maps to exit codes, and
the finite-number check of the input parsers."""
import math


class ParseError(ValueError):
    """Unparseable space/weight/sequence input (CLI exit code 2)."""


class InputFileError(OSError):
    """Input file missing or unreadable (CLI exit code 2)."""


class FeasibilityError(RuntimeError):
    """Enumeration cap exceeded or construction infeasible (CLI exit code 3)."""


class NumericError(ArithmeticError):
    """Numeric range or convergence failure (CLI exit code 4)."""


def finite(value, name):
    """value as a finite float; anything else is a ParseError naming it."""
    try:
        x = float(value)
    except (TypeError, ValueError):
        x = math.nan
    if not math.isfinite(x):
        raise ParseError(f"{name} must be a finite number, got {value!r}")
    return x
