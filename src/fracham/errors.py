"""Exception types shared across the package.

Every error raised on purpose by fracham derives from :class:`FrachamError`,
so callers can catch one type at the CLI boundary and map it to an exit code.
"""

from __future__ import annotations


class FrachamError(Exception):
    """Base class for all errors raised deliberately by this package."""


class DomainError(FrachamError):
    """A mathematical precondition on an input is violated.

    Examples: a fractional order outside (0, 1), a non-finite sample array,
    an exponent below the admissible range.
    """


class ConfigError(FrachamError):
    """A configuration file or CLI override is malformed or inconsistent."""


class GeometryError(FrachamError):
    """The mountain-pass geometry could not be certified.

    Raised when no valid ray endpoint `e` with negative energy can be
    constructed within the doubling cap, or when the certified radius/level
    pair degenerates.
    """


class ConvergenceError(FrachamError):
    """A solve exhausted its budget or failed its residual check."""


class EmbeddingViolation(FrachamError):
    """A sampled function violated a certified embedding inequality.

    Carries the offending sample so the failure can be reproduced; see
    :attr:`sample` and :attr:`detail`.
    """

    def __init__(self, message: str, sample=None, detail=None):
        super().__init__(message)
        self.sample = sample
        self.detail = detail or {}


class MonotonicityError(FrachamError):
    """A quantity required to decrease along a parameter sweep increased.

    Carries the two offending records in :attr:`detail` for serialization.
    """

    def __init__(self, message: str, detail=None):
        super().__init__(message)
        self.detail = detail or {}
