"""Exception hierarchy; every error carries the CLI exit code it maps to, and
a `hint`, empty by default, that the CLI prints as "error: <message>; <hint>"."""


class BalanceGateError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 1
    hint = ""


class ValidationError(BalanceGateError):
    """Invalid user input: layouts, expressions, spec files, polynomials."""

    exit_code = 2


class ExpressionError(ValidationError):
    """Malformed or out-of-range ANF expression text."""


class UnverifiedPolynomialError(ValidationError):
    """Polynomial degree is above the verification bound and was not trusted."""

    hint = "pass --trust-poly to proceed"


class MissingPolynomialError(ValidationError):
    """A register length has no built-in polynomial and none was pinned."""

    hint = "supply one explicitly"


class ResourceLimitError(BalanceGateError):
    """A configured guard (sum size, expansion size, step budget) was hit."""

    exit_code = 4


class DisagreementError(BalanceGateError):
    """Independently computed ones counts disagree; indicates an engine bug."""

    exit_code = 5


class InternalCheckError(BalanceGateError):
    """A mandatory self-check failed; indicates a bug, not bad input."""

    exit_code = 1
