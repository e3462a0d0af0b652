"""Uniform grids and sampled functions.

Two grid kinds are used throughout the package:

* :class:`RealLineGrid` -- a uniform grid ``t_j = -R + j h`` (``j = 0..N-1``,
  ``h = 2R/N``) on a symmetric truncation ``[-R, R)`` of the real line.  The
  right endpoint is identified with the left one: the grid represents the
  ``2R``-periodic extension of the sampled function, which is what makes FFT
  diagonalization of translation-invariant operators exact.  Quadrature is the
  uniform-weight sum ``h * sum(u_j)``, i.e. the trapezoid rule on the periodic
  extension.
* :class:`IntervalGrid` -- a uniform grid including both endpoints of a
  bounded interval ``[a, b]``, with classical trapezoid quadrature weights.

Both are frozen dataclasses whose fields are their whole identity (equality,
hashing and ``dataclasses.asdict`` see only the fields).  Their derived
arrays -- nodes, frequencies, quadrature weights -- are read-only
``functools.cached_property`` values, computed once per grid object.

Functions are sampled as :class:`GridFunction` objects: immutable wrappers
around a ``(num_points, num_components)`` float array.
"""

from __future__ import annotations

import dataclasses
import functools

import numpy as np

from .errors import DomainError

__all__ = [
    "RealLineGrid",
    "IntervalGrid",
    "GridFunction",
]


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclasses.dataclass(frozen=True)
class RealLineGrid:
    """Uniform periodic grid on ``[-halfwidth, halfwidth)``.

    ``num_points`` must be a power of two (the spectral operators lean on FFTs
    of this exact length) and at least 4.
    """

    halfwidth: float
    num_points: int

    def __post_init__(self):
        if not np.isfinite(self.halfwidth) or self.halfwidth <= 0:
            raise DomainError(f"halfwidth must be positive and finite, got {self.halfwidth}")
        if not _is_power_of_two(self.num_points) or self.num_points < 4:
            raise DomainError(
                f"num_points must be a power of two >= 4, got {self.num_points}"
            )

    @property
    def spacing(self) -> float:
        return 2.0 * self.halfwidth / self.num_points

    @functools.cached_property
    def nodes(self) -> np.ndarray:
        return _frozen(-self.halfwidth + self.spacing * np.arange(self.num_points))

    @functools.cached_property
    def angular_frequencies(self) -> np.ndarray:
        """Angular frequencies of the full FFT basis, in fft ordering."""
        return _frozen(2.0 * np.pi * np.fft.fftfreq(self.num_points, d=self.spacing))

    @functools.cached_property
    def rfft_frequencies(self) -> np.ndarray:
        """Angular frequencies of the real-FFT basis (nonnegative half)."""
        return _frozen(2.0 * np.pi * np.fft.rfftfreq(self.num_points, d=self.spacing))

    @functools.cached_property
    def rfft_parseval_weights(self) -> np.ndarray:
        """Multiplicities making ``sum(w * |rfft(u)|**2) == sum(|fft(u)|**2)``.

        rfft keeps one of each conjugate pair; interior bins count twice,
        the DC and (even-length) Nyquist bins once.
        """
        w = np.full(self.num_points // 2 + 1, 2.0)
        w[0] = w[-1] = 1.0
        return _frozen(w)

    def integrate(self, values: np.ndarray) -> float:
        """Quadrature ``h * sum(values)`` over every axis of ``values``.

        The leading axis must have length ``num_points``; any trailing
        component axes are summed as well, so passing ``u * v`` with shape
        ``(N, n)`` yields the integrated Euclidean dot product.
        """
        values = np.asarray(values)
        if values.shape[0] != self.num_points:
            raise DomainError(
                f"leading axis has length {values.shape[0]}, expected {self.num_points}"
            )
        return float(self.spacing * values.sum())


@dataclasses.dataclass(frozen=True)
class IntervalGrid:
    """Uniform grid on ``[lower, upper]`` including both endpoints."""

    lower: float
    upper: float
    num_points: int

    def __post_init__(self):
        if not (np.isfinite(self.lower) and np.isfinite(self.upper)):
            raise DomainError("interval endpoints must be finite")
        if self.upper <= self.lower:
            raise DomainError(f"need lower < upper, got [{self.lower}, {self.upper}]")
        if self.num_points < 3:
            raise DomainError(f"num_points must be >= 3, got {self.num_points}")

    @property
    def spacing(self) -> float:
        return (self.upper - self.lower) / (self.num_points - 1)

    @functools.cached_property
    def nodes(self) -> np.ndarray:
        return _frozen(np.linspace(self.lower, self.upper, self.num_points))

    @functools.cached_property
    def trapezoid_weights(self) -> np.ndarray:
        w = np.full(self.num_points, self.spacing)
        w[0] = w[-1] = 0.5 * self.spacing
        return _frozen(w)

    def integrate(self, values: np.ndarray) -> float:
        """Trapezoid quadrature; trailing component axes are summed."""
        values = np.asarray(values)
        if values.shape[0] != self.num_points:
            raise DomainError(
                f"leading axis has length {values.shape[0]}, expected {self.num_points}"
            )
        w = self.trapezoid_weights
        if values.ndim > 1:
            values = values.reshape(values.shape[0], -1).sum(axis=1)
        return float(np.dot(w, values))


def _normalize_values(values, num_points: int) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2 or arr.shape[0] != num_points or arr.shape[1] < 1:
        raise DomainError(
            f"values must have shape ({num_points},) or ({num_points}, n), got {arr.shape}"
        )
    if not np.all(np.isfinite(arr)):
        raise DomainError("values contain non-finite entries")
    return _frozen(np.ascontiguousarray(arr))


@dataclasses.dataclass(frozen=True, eq=False)
class GridFunction:
    """Immutable sampled function on a grid.

    ``values`` is stored as a read-only ``(num_points, num_components)``
    float64 array regardless of the input shape; scalar functions may be
    constructed from 1-D arrays.
    """

    grid: RealLineGrid | IntervalGrid
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _normalize_values(self.values, self.grid.num_points))

    @property
    def num_components(self) -> int:
        return self.values.shape[1]

    def euclidean_magnitude(self) -> np.ndarray:
        """Pointwise Euclidean norm ``|u(t_j)|`` over components."""
        return np.sqrt(np.sum(self.values**2, axis=1))

