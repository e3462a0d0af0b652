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

    @property
    def nodes(self) -> np.ndarray:
        return _line_nodes(self)

    @property
    def angular_frequencies(self) -> np.ndarray:
        """Angular frequencies of the full FFT basis, in fft ordering."""
        return _line_omega(self)

    @property
    def rfft_frequencies(self) -> np.ndarray:
        """Angular frequencies of the real-FFT basis (nonnegative half)."""
        return _line_omega_r(self)

    @property
    def rfft_parseval_weights(self) -> np.ndarray:
        """Multiplicities making ``sum(w * |rfft(u)|**2) == sum(|fft(u)|**2)``."""
        return _line_parweights(self)

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


@functools.lru_cache(maxsize=None)
def _line_nodes(grid: RealLineGrid) -> np.ndarray:
    t = -grid.halfwidth + grid.spacing * np.arange(grid.num_points)
    t.setflags(write=False)
    return t


@functools.lru_cache(maxsize=None)
def _line_omega(grid: RealLineGrid) -> np.ndarray:
    w = 2.0 * np.pi * np.fft.fftfreq(grid.num_points, d=grid.spacing)
    w.setflags(write=False)
    return w


@functools.lru_cache(maxsize=None)
def _line_omega_r(grid: RealLineGrid) -> np.ndarray:
    w = 2.0 * np.pi * np.fft.rfftfreq(grid.num_points, d=grid.spacing)
    w.setflags(write=False)
    return w


@functools.lru_cache(maxsize=None)
def _line_parweights(grid: RealLineGrid) -> np.ndarray:
    # rfft keeps one of each conjugate pair; interior bins count twice,
    # the DC and (even-length) Nyquist bins once.
    m = grid.num_points // 2 + 1
    w = np.full(m, 2.0)
    w[0] = 1.0
    w[-1] = 1.0
    w.setflags(write=False)
    return w


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

    @property
    def nodes(self) -> np.ndarray:
        return _interval_nodes(self)

    @property
    def trapezoid_weights(self) -> np.ndarray:
        return _interval_weights(self)

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


@functools.lru_cache(maxsize=None)
def _interval_nodes(grid: IntervalGrid) -> np.ndarray:
    t = np.linspace(grid.lower, grid.upper, grid.num_points)
    t.setflags(write=False)
    return t


@functools.lru_cache(maxsize=None)
def _interval_weights(grid: IntervalGrid) -> np.ndarray:
    w = np.full(grid.num_points, grid.spacing)
    w[0] = 0.5 * grid.spacing
    w[-1] = 0.5 * grid.spacing
    w.setflags(write=False)
    return w


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
    arr = np.ascontiguousarray(arr)
    arr.setflags(write=False)
    return arr


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

    @property
    def scalar(self) -> np.ndarray:
        """The single component of a scalar function, as a 1-D view."""
        if self.num_components != 1:
            raise DomainError(f"function has {self.num_components} components, not 1")
        return self.values[:, 0]

    def euclidean_magnitude(self) -> np.ndarray:
        """Pointwise Euclidean norm ``|u(t_j)|`` over components."""
        return np.sqrt(np.sum(self.values**2, axis=1))

    @classmethod
    def zeros(cls, grid, num_components: int = 1) -> "GridFunction":
        return cls(grid, np.zeros((grid.num_points, num_components)))
