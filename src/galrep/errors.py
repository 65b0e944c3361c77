"""Exception hierarchy shared by all galrep modules.

``InputError``, ``UsageError`` and ``BudgetExceeded`` are ``CodedError``s:
each carries a machine-readable ``code`` so the CLI can emit a stable error
JSON.  They distinguish invalid input, misuse of the API and configured
limits; ``InternalCheckError`` marks a violated internal guarantee, always a
bug.
"""

from __future__ import annotations


class GalrepError(Exception):
    """Base class for all errors raised by this package."""


class CodedError(GalrepError):
    """An error with a machine-readable ``code`` and its ``message``."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code
        self.message = message


class InputError(CodedError):
    """Invalid user input (bad polynomial, bad prime, parse failure)."""


class UsageError(CodedError):
    """API called outside its contract (e.g. mixed conductors)."""


class BudgetExceeded(CodedError):
    """A configured enumeration or degree budget would be exceeded."""

    def __init__(self, message: str):
        super().__init__("budget_exceeded", message)


class InternalCheckError(GalrepError):
    """A runtime self-check failed; indicates an implementation bug."""
