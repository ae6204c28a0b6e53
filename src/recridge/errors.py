"""Exception types shared across the package.

The CLI maps these onto exit codes: input problems (validation, shapes,
parsing, protocol misuse) exit 1, numerical failures exit 2.
"""


class RecridgeError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(RecridgeError, ValueError):
    """Invalid argument value: non-finite entries, bad enum, out-of-range scalar."""


class ShapeError(RecridgeError, ValueError):
    """Matrix dimensions do not conform for the requested operation."""


class ProtocolError(RecridgeError):
    """Class-incremental bookkeeping violated (duplicate or unsorted class ids, no class yet)."""


class ParseError(RecridgeError, ValueError):
    """A file could not be parsed. Carries the offending path and line number."""

    def __init__(self, path, lineno, message):
        super().__init__(f"{path}:{lineno}: {message}")
        self.path = str(path)
        self.lineno = lineno


class NumericalError(RecridgeError, ArithmeticError):
    """Base class for runtime numerical failures."""


class NotPositiveDefiniteError(NumericalError):
    """Symmetric factorization hit a non-positive pivot."""

    def __init__(self, pivot, message=None):
        super().__init__(message or f"matrix is not positive definite (pivot {pivot})")
        self.pivot = pivot

