"""Exception types shared across the package."""

from __future__ import annotations


class LodrecError(Exception):
    """Base class for all package-specific errors."""


class ParseError(LodrecError):
    """A file could not be parsed. Carries the source path and line number."""

    def __init__(self, path, line_no: int, message: str):
        self.path = str(path)
        self.line_no = line_no
        self.message = message
        super().__init__(f"{self.path}:{line_no}: {message}")


class DuplicateIdError(LodrecError):
    """Two records share an identifier that must be unique."""


class UnknownIdError(LodrecError):
    """A video id was requested that is not present in the index."""


class EvaluationError(LodrecError):
    """A statistical precondition does not hold (e.g. zero column total)."""
