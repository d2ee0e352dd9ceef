"""Error types shared across the package; the CLI maps them to exit codes."""


class ParseError(ValueError):
    """Unparseable space/weight/sequence input (CLI exit code 2)."""


class InputFileError(OSError):
    """Input file missing or unreadable (CLI exit code 2)."""


class FeasibilityError(RuntimeError):
    """Enumeration cap exceeded or construction infeasible (CLI exit code 3)."""


class NumericError(ArithmeticError):
    """Numeric range or convergence failure (CLI exit code 4)."""
