"""Discrete fractional-derivative operators.

Transform convention (fixed here, reconciled by every oracle in the test
suite): the continuous Fourier transform is unitary in angular frequency,

    u_hat(w) = (2 pi)^(-1/2) * integral u(t) exp(-i w t) dt,

so Parseval reads ``integral |u|^2 dt = integral |u_hat|^2 dw``.  On a
:class:`~fracham.grids.RealLineGrid` with ``N`` points and spacing ``h`` the
matching discrete statement is

    h * sum_j |u_j|^2 = (h / N) * sum_k |U_k|^2,      U = fft(u),

and every frequency-side sum below carries that ``h/N`` weight.

Two operator families are provided.  On the truncated line, the left-sided
derivative of order ``alpha`` acts as the Fourier multiplier ``(i w)^alpha``
(principal branch, ``w = 0`` mapped to 0); the grid represents the periodic
extension, so the multiplier application is exact for the represented
function.  On a bounded interval, the left Riemann-Liouville derivative with
zero left boundary value is discretized by the standard Grunwald-Letnikov
weights, giving a lower-triangular Toeplitz matrix that is first-order
accurate.  Every real-line quadratic form takes its multiplier from the one
cache, ``_form_multipliers``.
"""

from __future__ import annotations

import functools
import warnings

import numpy as np

from .errors import DomainError
from .grids import GridFunction, IntervalGrid, RealLineGrid

__all__ = [
    "BoundaryDecayWarning",
    "liouville_weyl_left",
    "quadratic_form_alpha",
    "gl_matrix",
]


class BoundaryDecayWarning(UserWarning):
    """A real-line input does not decay near the truncation boundary."""


# check_boundary_decay warns above this boundary-to-peak ratio.
_DECAY_FRACTION = 1e-3


def _check_order(alpha: float) -> float:
    if not (0.0 < alpha < 1.0):
        raise DomainError(f"fractional order must lie in (0, 1), got {alpha}")
    return float(alpha)


@functools.lru_cache(maxsize=None)
def _form_multipliers(grid: RealLineGrid, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Symbol ``|w_k|^(2 alpha)`` on the rfft frequencies, bare and Parseval-weighted."""
    m = np.abs(grid.rfft_frequencies) ** (2.0 * alpha)
    weighted = grid.rfft_parseval_weights * m
    m.setflags(write=False)
    weighted.setflags(write=False)
    return m, weighted


def _spectral_form(grid: RealLineGrid, alpha: float, u: np.ndarray):
    """Parseval-weighted form ``h/N sum_k |w_k|^(2 alpha) |U_k|^2``.

    ``u`` holds grid values along axis -2 and components along axis -1; any
    leading axes are a batch, and one value is returned per batch entry.
    Every real-line quadratic form in the package is this one kernel.
    """
    uc = np.fft.rfft(u, axis=-2)
    return _coefficient_form(grid, alpha, uc, uc)


def _coefficient_form(grid: RealLineGrid, alpha: float, uc: np.ndarray, vc: np.ndarray):
    """The reduction of :func:`_spectral_form` on given rfft coefficients."""
    _, weighted = _form_multipliers(grid, alpha)
    dot = uc.real * vc.real + uc.imag * vc.imag
    return grid.spacing / grid.num_points * np.sum(weighted[:, None] * dot, axis=(-2, -1))


def _require_line(u: GridFunction) -> RealLineGrid:
    if not isinstance(u.grid, RealLineGrid):
        raise DomainError("operator is defined on real-line grid functions")
    return u.grid


def _edge_to_peak(values: np.ndarray) -> float:
    """Largest boundary magnitude over the peak magnitude (0 for zero input)."""
    peak = float(np.max(np.abs(values)))
    if peak == 0.0:
        return 0.0
    edge = float(max(np.max(np.abs(values[0])), np.max(np.abs(values[-1]))))
    return edge / peak


def check_boundary_decay(u: GridFunction) -> float:
    """Warn when the boundary magnitude exceeds ``_DECAY_FRACTION`` of the peak.

    Returns the observed boundary-to-peak ratio.  The real-line operators are
    exact for the periodic extension; a function that is still large at the
    truncation boundary is one whose line interpretation the grid does not
    capture, which this guard makes visible without forbidding.
    """
    grid = _require_line(u)
    ratio = _edge_to_peak(u.values)
    if ratio > _DECAY_FRACTION:
        warnings.warn(
            f"boundary magnitude is {ratio:.2e} of the peak (threshold {_DECAY_FRACTION:.0e}); "
            f"halfwidth {grid.halfwidth} may truncate this function",
            BoundaryDecayWarning,
            stacklevel=3,
        )
    return ratio


def liouville_weyl_left(u: GridFunction, alpha: float) -> GridFunction:
    """Left-sided fractional derivative of order ``alpha`` on the line.

    Implemented as the inverse transform of ``(i w)^alpha * u_hat``, applied
    componentwise, with the principal branch ``(i w)^alpha = |w|^alpha
    exp(i alpha pi / 2)`` on the nonnegative rfft frequencies.  The zero
    frequency is annihilated.
    """
    grid = _require_line(u)
    alpha = _check_order(alpha)
    check_boundary_decay(u)
    mult = np.abs(grid.rfft_frequencies) ** alpha * np.exp(1j * alpha * np.pi / 2.0)
    coeff = np.fft.rfft(u.values, axis=0)
    out = np.fft.irfft(mult[:, None] * coeff, n=grid.num_points, axis=0)
    return GridFunction(grid, out)


def quadratic_form_alpha(u: GridFunction, alpha: float) -> float:
    """Frequency-side energy ``sum_k |w_k|^(2 alpha) |u_hat_k|^2``.

    Carries the discrete Parseval weight, so the value equals the squared
    ``L^2`` norm of :func:`liouville_weyl_left` applied to ``u``.
    """
    grid = _require_line(u)
    return float(_spectral_form(grid, _check_order(alpha), u.values))


def _binomial_series(order: float, count: int) -> np.ndarray:
    """First ``count`` coefficients of ``(1 - z)^order``: ``w_j = w_{j-1} (j - 1 - order)/j``."""
    k = np.arange(1, count)
    return np.concatenate([[1.0], np.cumprod((k - order - 1.0) / k)])


def _gl_toeplitz(order: float, count: int, scale: float) -> np.ndarray:
    """``scale`` times the ``count x count`` lower-triangular Toeplitz matrix of ``(1 - z)^order``.

    Such matrices multiply as truncated power series, so the matrix of
    order ``-alpha`` inverts the one of order ``alpha`` exactly (Lubich,
    SIAM J. Math. Anal. 17, 1986; Podlubny, Fract. Calc. Appl. Anal. 3, 2000).
    """
    # Row i of the reversed windows of the zero-padded series is w_i, ..., w_0, 0, ..., 0.
    padded = np.concatenate([np.zeros(count - 1), _binomial_series(order, count)])
    return np.lib.stride_tricks.sliding_window_view(padded, count)[:, ::-1] * scale


@functools.lru_cache(maxsize=None)
def gl_matrix(grid: IntervalGrid, alpha: float) -> np.ndarray:
    """Dense lower-triangular GL derivative matrix ``B`` on all nodes.

    ``(B u)_i = h^(-alpha) sum_{j<=i} w_j u_{i-j}`` discretizes the left
    Riemann-Liouville derivative of a function vanishing at the left endpoint.
    """
    b = _gl_toeplitz(_check_order(alpha), grid.num_points, grid.spacing ** (-alpha))
    b.setflags(write=False)
    return b
