"""Exception hierarchy shared by all popmax modules."""

from __future__ import annotations


class PopmaxError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(PopmaxError):
    """Malformed input text. Carries a 1-based line and column."""

    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class InputError(PopmaxError):
    """An input file or stream could not be read as UTF-8 text."""


class ValidationError(PopmaxError):
    """Structurally well-formed input that violates an instance invariant."""


class NotMaximumError(PopmaxError):
    """A maximum matching was required but the given one admits an augmenting
    path; `path` is the one `is_maximum` found."""

    def __init__(self, message: str, path=None):
        super().__init__(message)
        self.path = path


class NotStableError(PopmaxError):
    """A stable matching was required but the given one has a blocking edge."""


class NotPopularError(PopmaxError):
    """A verified popular max-matching was required; `witness` is the
    improving alternating cycle or path found against the matching."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class CertificateError(PopmaxError):
    """A dual certificate failed verification; `violations` lists the failed checks."""

    def __init__(self, message: str, violations: list[str] | None = None):
        super().__init__(message)
        self.violations = violations or []


class BoundExceededError(PopmaxError):
    """An exhaustive routine was asked to run past its configured size bound."""


class UnsupportedClauseError(PopmaxError):
    """A CNF clause shape the gadget construction does not cover."""


class InternalError(PopmaxError):
    """Bug sentinel: a condition the underlying theory guarantees cannot happen."""
