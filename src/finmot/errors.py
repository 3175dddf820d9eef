"""Shared exception types."""


class SizeCapError(RuntimeError):
    """A computation would exceed a configured size bound."""


class ModelFileError(ValueError):
    """A motive model description file failed to parse."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class InvariantError(AssertionError):
    """An identity the calculus guarantees failed to hold exactly.

    Raised instead of ``assert`` so the check survives ``python -O``; the
    message names the witness (the values or objects that disagree).
    """
