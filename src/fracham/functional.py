"""Energy functionals on the line and the interval, with gradient machinery.

The line functional is

    I(u) = 1/2 ||u||_X^2 - integral W(t, u)
         = 1/2 [ |u|_alpha^2 + lambda * integral (L u, u) ] - integral W(t, u),

and the interval (Dirichlet) functional drops the potential term and replaces
the spectral derivative by the lower-triangular interval operator:

    J(u) = 1/2 h ||B u||^2 - integral W(t, u).

Every integral uses the grid's own quadrature rule, so algebraic identities
between the pieces (in particular the defect identity
``I(u) - 1/2 I'(u)u = integral H``) hold to round-off rather than to
quadrature accuracy.

A descent method needs a metric representative of the derivative.  Two are
provided on the line: the base-norm representative (diagonal in frequency,
multiplier ``1 + |w|^(2 alpha)``) and the weighted-norm representative, an
exact solve against ``A = F* |w|^(2 alpha) F + lambda diag(L)``.  The shipped
potentials equal their grid maximum outside a bounded well, so per component
``A`` is an operator diagonal in frequency minus a correction of rank ``k``,
the number of well nodes; the Woodbury identity turns ``A^-1`` into two FFT
solves and one cached ``k x k`` Cholesky solve (the capacitance-matrix
method), and every solve checks its residual with one application of ``A``.
The interval representative solves against the cached stiffness Cholesky
factor.
"""

from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np
import scipy.linalg

from .errors import ConvergenceError, DomainError
from .fracops import (
    gl_matrix,
    interval_stiffness,
    interval_stiffness_cholesky,
)
from .grids import GridFunction, IntervalGrid, RealLineGrid
from .problem import (
    NonlinearitySpec,
    PotentialSpec,
    grad_w_values,
    h_values,
    hessian_w_action,
    w_values,
    weight_values,
)
from .spaces import inner_x_lambda

__all__ = [
    "ProblemSpec",
    "IntervalProblemSpec",
    "energy",
    "derivative_action",
    "gradient_rep",
    "h_identity",
    "bvp_energy",
    "bvp_derivative_action",
    "bvp_gradient_rep",
    "bvp_h_identity",
]

METRICS = ("h-alpha", "x-alpha-lambda")


@dataclasses.dataclass(frozen=True)
class ProblemSpec:
    """One instance of the line problem: order, parameter, families, grid."""

    alpha: float
    lam: float
    potential: PotentialSpec
    nonlinearity: NonlinearitySpec
    grid: RealLineGrid
    n: int = 1

    def __post_init__(self):
        if not (0.5 < self.alpha < 1.0):
            raise DomainError(f"alpha must lie in (1/2, 1), got {self.alpha}")
        if not (self.lam > 0.0 and math.isfinite(self.lam)):
            raise DomainError(f"lambda must be positive and finite, got {self.lam}")
        if self.n < 1:
            raise DomainError(f"need at least one component, got n={self.n}")

    def with_lambda(self, lam: float) -> "ProblemSpec":
        return dataclasses.replace(self, lam=lam)

    def potential_diagonal(self) -> np.ndarray:
        return _potential_diag(self)

    def weight(self) -> np.ndarray:
        return _weight_vals(self)


@functools.lru_cache(maxsize=None)
def _potential_diag(spec: ProblemSpec) -> np.ndarray:
    d = spec.potential.diagonal(spec.grid.nodes, spec.n)
    d.setflags(write=False)
    return d


@functools.lru_cache(maxsize=None)
def _weight_vals(spec: ProblemSpec) -> np.ndarray:
    g = weight_values(spec.nonlinearity, spec.grid.nodes)
    g.setflags(write=False)
    return g


@functools.lru_cache(maxsize=None)
def _qf_multiplier(grid: RealLineGrid, alpha: float) -> np.ndarray:
    m = np.abs(grid.rfft_frequencies) ** (2.0 * alpha)
    m.setflags(write=False)
    return m


def _check_on_grid(u: GridFunction, spec) -> np.ndarray:
    if u.grid != spec.grid:
        raise DomainError("function does not live on the spec's grid")
    if u.num_components != spec.n:
        raise DomainError(
            f"function has {u.num_components} components, spec expects {spec.n}"
        )
    return u.values


# ---------------------------------------------------------------------------
# Raw-array kernels (solver-facing; shapes (N, n) or batched (B, N, n)).
# ---------------------------------------------------------------------------


def _energy_raw(vals: np.ndarray, spec: ProblemSpec) -> float:
    grid = spec.grid
    coeff = np.fft.rfft(vals, axis=0)
    m = _qf_multiplier(grid, spec.alpha)
    parw = grid.rfft_parseval_weights
    qf = grid.spacing / grid.num_points * float(
        np.sum((parw * m)[:, None] * (coeff.real**2 + coeff.imag**2))
    )
    ldiag = _potential_diag(spec)
    pot = grid.spacing * float(np.sum(ldiag * vals**2))
    wint = grid.spacing * float(np.sum(w_values(spec.nonlinearity, grid.nodes, vals)))
    return 0.5 * (qf + spec.lam * pot) - wint


def _energy_batch(vals: np.ndarray, spec: ProblemSpec) -> np.ndarray:
    """Energies of a stack of candidates, shape (B, N, n) -> (B,)."""
    grid = spec.grid
    coeff = np.fft.rfft(vals, axis=1)
    m = _qf_multiplier(grid, spec.alpha)
    parw = grid.rfft_parseval_weights
    qf = grid.spacing / grid.num_points * np.sum(
        (parw * m)[None, :, None] * (coeff.real**2 + coeff.imag**2), axis=(1, 2)
    )
    ldiag = _potential_diag(spec)
    pot = grid.spacing * np.sum(ldiag[None] * vals**2, axis=(1, 2))
    wint = grid.spacing * np.sum(w_values(spec.nonlinearity, grid.nodes, vals), axis=1)
    return 0.5 * (qf + spec.lam * pot) - wint


def _xnormsq_raw(vals: np.ndarray, spec: ProblemSpec) -> float:
    grid = spec.grid
    coeff = np.fft.rfft(vals, axis=0)
    m = _qf_multiplier(grid, spec.alpha)
    parw = grid.rfft_parseval_weights
    qf = grid.spacing / grid.num_points * float(
        np.sum((parw * m)[:, None] * (coeff.real**2 + coeff.imag**2))
    )
    pot = grid.spacing * float(np.sum(_potential_diag(spec) * vals**2))
    return qf + spec.lam * pot


def _apply_metric(x: np.ndarray, spec: ProblemSpec) -> np.ndarray:
    """The weighted metric ``A x = F* |w|^(2 alpha) F x + lambda L x``."""
    grid = spec.grid
    m = _qf_multiplier(grid, spec.alpha)
    frac = np.fft.irfft(m[:, None] * np.fft.rfft(x, axis=0), n=grid.num_points, axis=0)
    return frac + spec.lam * _potential_diag(spec) * x


def _dI_field(vals: np.ndarray, spec: ProblemSpec) -> np.ndarray:
    """Pointwise derivative field: the L2 representative of I'(u)."""
    return _apply_metric(vals, spec) - grad_w_values(spec.nonlinearity, spec.grid.nodes, vals)


def _grad_h_raw(vals: np.ndarray, spec: ProblemSpec) -> tuple[np.ndarray, float]:
    """Base-metric representative: diagonal frequency solve."""
    grid = spec.grid
    m = _qf_multiplier(grid, spec.alpha)
    r = spec.lam * _potential_diag(spec) * vals - grad_w_values(
        spec.nonlinearity, grid.nodes, vals
    )
    ghat = (m[:, None] * np.fft.rfft(vals, axis=0) + np.fft.rfft(r, axis=0)) / (
        1.0 + m[:, None]
    )
    g = np.fft.irfft(ghat, n=grid.num_points, axis=0)
    parw = grid.rfft_parseval_weights
    nsq = grid.spacing / grid.num_points * float(
        np.sum((parw * (1.0 + m))[:, None] * (ghat.real**2 + ghat.imag**2))
    )
    return g, math.sqrt(max(nsq, 0.0))


@dataclasses.dataclass(frozen=True, eq=False)
class _MetricFactor:
    """Exact inverse of the weighted metric, one well correction per component.

    With ``top`` the grid maximum of component ``c`` of ``L``, the metric is
    ``A_c = S_c - Q_c Q_c^T``: ``S_c`` is diagonal in frequency with symbol
    ``|w|^(2 alpha) + lambda * top``, and ``Q_c`` holds the unit columns of
    the well nodes ``{L_c < top}`` scaled by ``q = sqrt(lambda (top - L_c))``.
    The Woodbury identity gives

        A_c^-1 = S_c^-1 (I + Q_c K_c^-1 Q_c^T S_c^-1),   K_c = I - Q_c^T S_c^-1 Q_c,

    where ``K_c`` is the ``k x k`` capacitance matrix, SPD because ``A_c`` is.
    Set-up costs ``O(k^3)``; an empty well (``k = 0``) leaves ``A_c = S_c``.
    """

    symbol: np.ndarray  # (N//2 + 1, n)
    wells: tuple[tuple[np.ndarray, np.ndarray, tuple], ...]  # (nodes, q, cho) per component

    def _fft_solve(self, x: np.ndarray) -> np.ndarray:
        return np.fft.irfft(np.fft.rfft(x, axis=0) / self.symbol, n=x.shape[0], axis=0)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        y = self._fft_solve(rhs)
        lifted = rhs.astype(np.float64)  # a copy; LinearOperator probes with int8
        for c, (idx, q, cho) in enumerate(self.wells):
            lifted[idx, c] += q * scipy.linalg.cho_solve(cho, q * y[idx, c])
        return self._fft_solve(lifted)


@functools.lru_cache(maxsize=None)
def _metric_factor(spec: ProblemSpec) -> _MetricFactor:
    ldiag = _potential_diag(spec)
    top = np.max(ldiag, axis=0)
    if np.any(top <= 0.0):
        raise DomainError(
            "the potential vanishes on the whole grid, so the weighted metric is "
            "singular; widen the box past the well"
        )
    symbol = _qf_multiplier(spec.grid, spec.alpha)[:, None] + spec.lam * top[None, :]
    kernels = np.fft.irfft(1.0 / symbol, n=spec.grid.num_points, axis=0)
    wells = []
    for c in range(spec.n):
        idx = np.flatnonzero(ldiag[:, c] < top[c])
        q = np.sqrt(spec.lam * (top[c] - ldiag[idx, c]))
        kc = kernels[(idx[:, None] - idx[None, :]) % spec.grid.num_points, c]
        cap = np.eye(idx.size) - q[:, None] * kc * q[None, :]
        wells.append((idx, q, scipy.linalg.cho_factor(cap, lower=True)))
    symbol.setflags(write=False)
    return _MetricFactor(symbol=symbol, wells=tuple(wells))


def _solve_metric(rhs: np.ndarray, spec: ProblemSpec) -> np.ndarray:
    """Solve ``A g = rhs`` with the cached factor, checking the residual."""
    factor = _metric_factor(spec)
    g = factor.solve(rhs)
    res = float(np.linalg.norm(_apply_metric(g, spec) - rhs))
    bnorm = float(np.linalg.norm(rhs))
    if not res <= 1e-10 * bnorm:
        k = "/".join(str(idx.size) for idx, _, _ in factor.wells)
        raise ConvergenceError(
            f"metric solve at lambda={spec.lam:g} with well size k={k} "
            f"failed its residual check: residual {res:.3e}, "
            f"relative {res / max(bnorm, 1e-300):.3e} > 1e-10"
        )
    return g


def _grad_x_raw(vals: np.ndarray, spec: ProblemSpec) -> tuple[np.ndarray, float]:
    """Weighted-metric representative: exact capacitance-matrix metric solve."""
    rhs = _dI_field(vals, spec)
    g = _solve_metric(rhs, spec)
    nsq = spec.grid.spacing * float(np.sum(g * rhs))
    return g, math.sqrt(max(nsq, 0.0))


def _hess_matvec(vals: np.ndarray, spec: ProblemSpec):
    """Closure applying the second derivative of the energy at ``vals``."""
    nodes = spec.grid.nodes
    shape = vals.shape

    def matvec(x: np.ndarray) -> np.ndarray:
        xv = x.reshape(shape)
        nl = hessian_w_action(spec.nonlinearity, nodes, vals, xv)
        return (_apply_metric(xv, spec) - nl).ravel()

    return matvec


# ---------------------------------------------------------------------------
# Public line API.
# ---------------------------------------------------------------------------


def energy(u: GridFunction, spec: ProblemSpec) -> float:
    """Value of the line functional at ``u``."""
    return _energy_raw(_check_on_grid(u, spec), spec)


def derivative_action(u: GridFunction, v: GridFunction, spec: ProblemSpec) -> float:
    """Directional derivative ``I'(u)v``, assembled from the bilinear form."""
    uv = _check_on_grid(u, spec)
    vv = _check_on_grid(v, spec)
    nl = spec.grid.integrate(grad_w_values(spec.nonlinearity, spec.grid.nodes, uv) * vv)
    return inner_x_lambda(u, v, spec) - nl


def gradient_rep(u: GridFunction, spec: ProblemSpec, metric: str = "h-alpha") -> GridFunction:
    """Metric representative ``g`` with ``<g, v>_metric = I'(u)v`` for all v."""
    vals = _check_on_grid(u, spec)
    if metric == "h-alpha":
        g, _ = _grad_h_raw(vals, spec)
    elif metric == "x-alpha-lambda":
        g, _ = _grad_x_raw(vals, spec)
    else:
        raise DomainError(f"unknown metric {metric!r}; choose from {METRICS}")
    return GridFunction(spec.grid, g)


def h_identity(u: GridFunction, spec: ProblemSpec) -> tuple[float, float, float]:
    """Defect identity: ``I(u) - 1/2 I'(u)u`` against the integral of ``H``."""
    vals = _check_on_grid(u, spec)
    lhs = energy(u, spec) - 0.5 * derivative_action(u, u, spec)
    rhs = spec.grid.integrate(h_values(spec.nonlinearity, spec.grid.nodes, vals))
    return lhs, rhs, abs(lhs - rhs)


# ---------------------------------------------------------------------------
# Interval (Dirichlet) functional.
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class IntervalProblemSpec:
    """The Dirichlet problem on a bounded interval (no potential term)."""

    alpha: float
    nonlinearity: NonlinearitySpec
    grid: IntervalGrid
    n: int = 1

    def __post_init__(self):
        if not (0.5 < self.alpha < 1.0):
            raise DomainError(f"alpha must lie in (1/2, 1), got {self.alpha}")
        if self.n < 1:
            raise DomainError(f"need at least one component, got n={self.n}")


def _check_dirichlet(u: GridFunction, spec: IntervalProblemSpec) -> np.ndarray:
    if u.grid != spec.grid:
        raise DomainError("function does not live on the spec's interval grid")
    if u.num_components != spec.n:
        raise DomainError(
            f"function has {u.num_components} components, spec expects {spec.n}"
        )
    if np.any(u.values[0] != 0.0) or np.any(u.values[-1] != 0.0):
        raise DomainError("interval functions must vanish exactly at both endpoints")
    return u.values


def _ienergy_raw(vals: np.ndarray, spec: IntervalProblemSpec) -> float:
    b = gl_matrix(spec.grid, spec.alpha)
    d = b @ vals
    qf = spec.grid.spacing * float(np.sum(d**2))
    wint = spec.grid.integrate(w_values(spec.nonlinearity, spec.grid.nodes, vals))
    return 0.5 * qf - wint


def _ienergy_batch(vals: np.ndarray, spec: IntervalProblemSpec) -> np.ndarray:
    b = gl_matrix(spec.grid, spec.alpha)
    d = np.einsum("ij,bjc->bic", b, vals)
    qf = spec.grid.spacing * np.sum(d**2, axis=(1, 2))
    cw = spec.grid.trapezoid_weights
    wint = np.sum(cw[None, :] * w_values(spec.nonlinearity, spec.grid.nodes, vals), axis=1)
    return 0.5 * qf - wint


def _ipartials(vals: np.ndarray, spec: IntervalProblemSpec) -> np.ndarray:
    """Gradient of the discrete energy in the raw node coordinates.

    Boundary rows are zeroed: boundary values are not degrees of freedom.
    """
    b = gl_matrix(spec.grid, spec.alpha)
    cw = spec.grid.trapezoid_weights
    p = spec.grid.spacing * (b.T @ (b @ vals)) - cw[:, None] * grad_w_values(
        spec.nonlinearity, spec.grid.nodes, vals
    )
    p[0] = 0.0
    p[-1] = 0.0
    return p


def _igrad_raw(vals: np.ndarray, spec: IntervalProblemSpec) -> tuple[np.ndarray, float]:
    """Stiffness-metric representative via the cached Cholesky factor."""
    p = _ipartials(vals, spec)
    cho = interval_stiffness_cholesky(spec.grid, spec.alpha)
    g = np.zeros_like(vals)
    g[1:-1] = scipy.linalg.cho_solve(cho, p[1:-1])
    nsq = float(np.sum(g[1:-1] * p[1:-1]))
    return g, math.sqrt(max(nsq, 0.0))


def _ixnormsq_raw(vals: np.ndarray, spec: IntervalProblemSpec) -> float:
    b = gl_matrix(spec.grid, spec.alpha)
    d = b @ vals
    return spec.grid.spacing * float(np.sum(d**2))


def _ihess_dense(vals: np.ndarray, spec: IntervalProblemSpec) -> np.ndarray:
    """Dense interior Hessian: stiffness minus the weighted local blocks."""
    m_int = spec.grid.num_points - 2
    n = spec.n
    a = np.asarray(interval_stiffness(spec.grid, spec.alpha))
    h_full = np.kron(a, np.eye(n))
    cw = spec.grid.trapezoid_weights
    nodes = spec.grid.nodes
    basis = np.eye(n)
    blocks = np.stack(
        [hessian_w_action(spec.nonlinearity, nodes, vals, np.tile(basis[k], (len(nodes), 1)))
         for k in range(n)],
        axis=-1,
    )  # (M, n, n): column k holds d(grad W)/du_k
    for i in range(m_int):
        sl = slice(i * n, (i + 1) * n)
        h_full[sl, sl] -= cw[i + 1] * blocks[i + 1]
    return 0.5 * (h_full + h_full.T)


def bvp_energy(u: GridFunction, spec: IntervalProblemSpec) -> float:
    """Interval functional ``1/2 h ||B u||^2 - integral W`` (Dirichlet input)."""
    return _ienergy_raw(_check_dirichlet(u, spec), spec)


def bvp_derivative_action(u: GridFunction, v: GridFunction, spec: IntervalProblemSpec) -> float:
    uv = _check_dirichlet(u, spec)
    vv = _check_dirichlet(v, spec)
    b = gl_matrix(spec.grid, spec.alpha)
    bil = spec.grid.spacing * float(np.sum((b @ uv) * (b @ vv)))
    nl = spec.grid.integrate(grad_w_values(spec.nonlinearity, spec.grid.nodes, uv) * vv)
    return bil - nl


def bvp_gradient_rep(u: GridFunction, spec: IntervalProblemSpec) -> GridFunction:
    g, _ = _igrad_raw(_check_dirichlet(u, spec), spec)
    return GridFunction(spec.grid, g)


def bvp_h_identity(u: GridFunction, spec: IntervalProblemSpec) -> tuple[float, float, float]:
    vals = _check_dirichlet(u, spec)
    lhs = bvp_energy(u, spec) - 0.5 * bvp_derivative_action(u, u, spec)
    rhs = spec.grid.integrate(h_values(spec.nonlinearity, spec.grid.nodes, vals))
    return lhs, rhs, abs(lhs - rhs)
