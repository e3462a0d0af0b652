"""Energy functionals on the line and the interval, and the operator layer.

The line functional is ``I(u) = 1/2 ||u||_X^2 - integral W(t, u)``; the
interval (Dirichlet) functional is ``J(u) = 1/2 h ||B u||^2 - integral
W(t, u)``.  Every integral uses the grid's own quadrature, so identities
between the pieces (the defect identity ``I(u) - 1/2 I'(u)u = integral H``)
hold to round-off.  The README's overview gives the full account of the
operators, their metric solves and the Newton step.

Each spec owns one operator, cached by :func:`_operator`.
:class:`_OperatorBase` writes the functional once over the primitives a
domain supplies: ``transform`` and ``transformed_form`` (the batched
bilinear form from values and transforms), ``quadrature``, ``dofs``,
``apply_metric`` and ``factor_solve`` (``g = A^-1 rhs`` unchecked, with
``A g``) on the degrees of freedom with ``solve_context``, ``metric_bound``
(an upper bound on the metric's 2-norm), and ``quad`` and ``pairing`` (the
``grad W`` weights in the residual and the scale of ``I'(u)v``).
"""

from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np

from .errors import ConvergenceError, DomainError
from .fracops import _coefficient_form, _form_multipliers, _gl_toeplitz, gl_matrix
from .grids import GridFunction, IntervalGrid, RealLineGrid
from .problem import (
    NonlinearitySpec,
    PotentialSpec,
    _hessian_operator,
    _segment_power_rows,
    _weighted_grad_w,
    _weighted_slope,
    _weighted_w,
    h_values,
    weight_values,
)

__all__ = [
    "ProblemSpec",
    "IntervalProblemSpec",
    "energy",
    "derivative_action",
    "gradient_rep",
    "h_identity",
    "bvp_energy",
    "bvp_derivative_action",
    "bvp_h_identity",
]


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
        self.potential.check_components(self.n)

    def with_lambda(self, lam: float) -> "ProblemSpec":
        return dataclasses.replace(self, lam=lam)

    def well_interval(self, num_points: int) -> "IntervalProblemSpec":
        """The Dirichlet problem on the well ``[-varrho, varrho]``, same order, ``W`` and ``n``."""
        grid = IntervalGrid(-self.potential.varrho, self.potential.varrho, num_points)
        return IntervalProblemSpec(self.alpha, self.nonlinearity, grid, self.n)


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


def _values(u: GridFunction, spec) -> np.ndarray:
    """The values of ``u`` after checking it against ``spec``'s grid and boundary rule."""
    if u.grid != spec.grid:
        raise DomainError("function does not live on the spec's grid")
    if u.num_components != spec.n:
        raise DomainError(
            f"function has {u.num_components} components, spec expects {spec.n}"
        )
    interval = isinstance(spec, IntervalProblemSpec)
    if interval and (np.any(u.values[0] != 0.0) or np.any(u.values[-1] != 0.0)):
        raise DomainError("interval functions must vanish exactly at both endpoints")
    return u.values


# ---------------------------------------------------------------------------
# The operator layer (solver-facing; values of shape (N, n), stacks (B, N, n)).
# ---------------------------------------------------------------------------


# Machine epsilon.
_EPS = float(np.finfo(np.float64).eps)
# Every stack of candidates holds fewer float64 values than this (128 KiB),
# below glibc's default mmap threshold: a larger temporary is mapped fresh on
# each allocation and its pages are faulted in one by one.
_STACK_VALUES = 2**14


def _stack_rows(row_values: int) -> int:
    """Rows of ``row_values`` float64 values each that a stack may hold (at least one)."""
    return max(1, (_STACK_VALUES - 1) // row_values)


def _chunks(count: int, row_values: int) -> list[slice]:
    """Consecutive slices of ``range(count)``, each of at most ``_stack_rows(row_values)`` rows."""
    rows = _stack_rows(row_values)
    return [slice(i, min(i + rows, count)) for i in range(0, count, rows)]


@functools.lru_cache(maxsize=None)
def _operator(spec):
    """The cached operator of a line or interval spec."""
    if isinstance(spec, ProblemSpec):
        return _LineOperator(spec)
    return _IntervalOperator(spec)


class _OperatorBase:
    """The functional of one spec over its domain's primitives (see the module docstring)."""

    def __init__(self, spec):
        self.spec = spec
        self.weight = weight_values(spec.nonlinearity, spec.grid.nodes)
        self.weight.setflags(write=False)

    def form(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """The bilinear form of the quadratic part, one value per row of a stack."""
        ut = self.transform(u)
        return self.transformed_form(u, ut, v, ut if v is u else self.transform(v))

    def xnormsq(self, vals: np.ndarray) -> np.ndarray:
        return self.form(vals, vals)

    def energies(self, vals: np.ndarray) -> np.ndarray:
        """Energies of a stack."""
        return 0.5 * self.xnormsq(vals) - self.wint(vals)

    def energy(self, vals: np.ndarray) -> float:
        return float(self.energies(vals))

    def wint(self, vals: np.ndarray) -> np.ndarray:
        """The quadrature of ``W(t, u)`` on the whole grid, one value per candidate."""
        return self.quadrature(_weighted_w(self.spec.nonlinearity, self.weight, vals))

    def wslope(self, vals: np.ndarray, d: np.ndarray) -> np.ndarray:
        """The quadrature of ``grad W(t, u) . d``: the derivative of ``wint`` along ``d``."""
        return self.quadrature(_weighted_slope(self.spec.nonlinearity, self.weight, vals, d))

    def wint_bernstein(self, a: np.ndarray, b: np.ndarray) -> list | None:
        """``I_k`` with ``wint((1 - th) a + th b) = sum_k I_k th^k (1 - th)^(p - k)``, or ``None``.

        One whole-grid reduction per row of ``_segment_power_rows``.
        """
        rows = _segment_power_rows(self.spec.nonlinearity, self.weight, a, b)
        return None if rows is None else [float(self.quadrature(r)) for r in rows]

    def residual(self, vals: np.ndarray) -> np.ndarray:
        """The metric applied to ``u`` minus ``quad * grad W``; zero off the degrees of freedom."""
        d = self.dofs
        grad = _weighted_grad_w(self.spec.nonlinearity, self.weight[d], vals[d])
        r = np.zeros_like(vals)
        r[d] = self.apply_metric(vals[d]) - self.quad * grad
        return r

    def gradient(self, vals: np.ndarray) -> tuple[np.ndarray, float]:
        """Metric representative of ``I'(u)`` and its norm in the metric."""
        d = self.dofs
        r = self.residual(vals)
        g = np.zeros_like(vals)
        g[d] = self.solve_and_apply_metric(r[d])[0]
        nsq = self.pairing * float(np.sum(g[d] * r[d]))
        return g, math.sqrt(max(nsq, 0.0))

    def solve_and_apply_metric(self, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``g = A^-1 rhs`` from the domain's ``factor_solve``, and the product ``A g``.

        The residual ``A g - rhs`` is checked with the product ``factor_solve``
        hands back, which applies the operator's own ``A``, and a caller that
        needs ``A g`` takes it from here.  A relative residual above ``1e-12``
        gets one step of iterative refinement with the same factor (on the
        line the capacitance matrix's condition number grows like ``lambda``,
        so past about ``lambda = 1e5``); above ``1e-10`` after it the solve fails.
        """
        g, ag = self.factor_solve(rhs)
        r = ag - rhs
        res = float(np.linalg.norm(r))
        bnorm = float(np.linalg.norm(rhs))
        if res > 1e-12 * bnorm:
            dg, adg = self.factor_solve(r)
            g, ag = g - dg, ag - adg
            res = float(np.linalg.norm(ag - rhs))
        if not res <= 1e-10 * bnorm:
            raise ConvergenceError(
                f"metric solve {self.solve_context()} failed its residual check: "
                f"residual {res:.3e}, relative {res / max(bnorm, 1e-300):.3e} > 1e-10"
            )
        return g, ag

    def newton_step(self, vals: np.ndarray, r: np.ndarray, rtol: float) -> tuple[np.ndarray | None, list]:
        """Solve ``I''(u) d = -r`` on the degrees of freedom by MINRES to tolerance ``rtol``.

        Returns the step, ``None`` when MINRES fails, and MINRES's Lanczos tridiagonal.
        Preconditioned by ``solve_and_apply_metric``, the Hessian ``I - A^-1 quad
        W''(u)`` does not depend on ``lambda``, and the Hessian action takes the
        checked product ``A g`` (see the README).
        """
        d = self.dofs
        u = vals[d]
        w2 = _hessian_operator(self.spec.nonlinearity, self.weight[d], u)

        def hess(v: np.ndarray, av: np.ndarray) -> np.ndarray:
            return av - self.quad * w2(v)

        step, info, tridiagonal = _minres(hess, self.solve_and_apply_metric, -r[d], rtol, 5 * u.size)
        if info != 0:
            return None, tridiagonal
        out = np.zeros_like(vals)
        out[d] = step
        return out, tridiagonal


def _minres(hess, precond, rhs: np.ndarray, rtol: float, maxiter: int):
    """Preconditioned MINRES for a symmetric ``H x = rhs`` from ``x = 0``, on arrays of any shape.

    Paige & Saunders (SIAM J. Numer. Anal. 12, 1975), ported from scipy as
    the README says, for ``rtol >= 2**-53``.  ``precond(r)`` returns ``y = M r``
    for the SPD preconditioner ``M`` and ``P y`` for a linear map ``P``;
    ``hess(v, pv)`` returns ``H v`` given ``pv = P v``.  Returns ``(x, info,
    tridiagonal)``: ``info`` is ``maxiter`` when the iteration limit stopped
    the solve, else 0, and step ``k`` appends the row ``(alfa_k, beta_k+1)`` of
    the Lanczos tridiagonal of ``M H``.
    """
    x = np.zeros_like(rhs)
    r1 = rhs
    y, py = precond(r1)
    beta1 = float(np.vdot(r1, y))
    if beta1 < 0.0:
        raise ValueError("indefinite preconditioner")
    if beta1 == 0.0:
        return x, 0, []
    beta1 = math.sqrt(beta1)
    oldb, beta, dbar, epsln, phibar = 0.0, beta1, 0.0, 0.0, beta1
    rhs1, rhs2, tnorm2 = beta1, 0.0, 0.0
    gmax, gmin = 0.0, float(np.finfo(np.float64).max)
    cs, sn = -1.0, 0.0
    w = np.zeros_like(rhs)
    w2 = np.zeros_like(rhs)
    r2 = r1
    istop, itn, tridiagonal = 0, 0, []
    while itn < maxiter:
        itn += 1
        # The next Lanczos vector and its preconditioned successor.
        s = 1.0 / beta
        v = s * y
        y = hess(v, s * py)
        if itn >= 2:
            y = y - (beta / oldb) * r1
        alfa = float(np.vdot(v, y))
        y = y - (alfa / beta) * r2
        r1 = r2
        r2 = y
        y, py = precond(r2)
        oldb = beta
        beta = float(np.vdot(r2, y))
        if beta < 0.0:
            raise ValueError("non-symmetric matrix")
        beta = math.sqrt(beta)
        tridiagonal.append((alfa, beta))
        tnorm2 += alfa**2 + oldb**2 + beta**2
        if itn == 1 and beta / beta1 <= 10.0 * _EPS:
            istop = -1  # H is a multiple of the preconditioner's inverse
        # Apply the previous rotation, then compute the next one.
        oldeps = epsln
        delta = cs * dbar + sn * alfa
        gbar = sn * dbar - cs * alfa
        epsln = sn * beta
        dbar = -cs * beta
        root = math.sqrt(gbar * gbar + dbar * dbar)
        gamma = max(math.sqrt(gbar * gbar + beta * beta), _EPS)
        cs = gbar / gamma
        sn = beta / gamma
        phi = cs * phibar
        phibar = sn * phibar
        # Update x.
        w1, w2 = w2, w
        w = (v - oldeps * w1 - delta * w2) * (1.0 / gamma)
        x = x + phi * w
        gmax = max(gmax, gamma)
        gmin = min(gmin, gamma)
        z = rhs1 / gamma
        rhs1 = rhs2 - delta * z
        rhs2 = -epsln * z
        # Estimate the norms and test for convergence.
        anorm = math.sqrt(tnorm2)
        ynorm = float(np.linalg.norm(x))
        test1 = math.inf if ynorm == 0.0 or anorm == 0.0 else phibar / (anorm * ynorm)
        test2 = math.inf if anorm == 0.0 else root / anorm
        if istop == 0:
            if itn >= maxiter:
                istop = 6
            if gmax / gmin >= 0.1 / _EPS:
                istop = 4
            if anorm * ynorm * _EPS >= beta1:
                istop = 3
            if test2 <= rtol:
                istop = 2
            if test1 <= rtol:
                istop = 1
        if istop != 0:
            break
    return x, (maxiter if istop == 6 else 0), tridiagonal


def _inverse_cholesky(m: np.ndarray) -> np.ndarray:
    """``L^-1`` for the lower Cholesky factor ``L`` of the SPD matrix ``m``.

    The inverse of a lower-triangular matrix is lower triangular, so the
    round-off an LU inverse leaves above the diagonal is dropped.
    """
    return np.tril(np.linalg.inv(np.linalg.cholesky(m)))


def _cholesky_solve(linv: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """``m^-1 rhs = L^-T (L^-1 rhs)`` from ``linv = _inverse_cholesky(m)``: two matrix products."""
    return linv.T @ (linv @ rhs)


class _LineOperator(_OperatorBase):
    """The line functional of one :class:`ProblemSpec` and its weighted metric."""

    metric = "x-alpha-lambda"
    dofs = slice(None)
    quad = 1.0

    def __init__(self, spec: ProblemSpec):
        super().__init__(spec)
        self.pairing = spec.grid.spacing
        self.multiplier, _ = _form_multipliers(spec.grid, spec.alpha)
        self.ldiag = spec.potential.diagonal(spec.grid.nodes, spec.n)
        self.ldiag.setflags(write=False)
        self.lam_ldiag = spec.lam * self.ldiag
        self.lam_ldiag.setflags(write=False)
        # One irfft of a 2-row stack gives g and A g's spectral part when the
        # pair fits a stack; at n = 2 two calls measured faster.
        self.paired = _stack_rows(spec.grid.num_points * spec.n) >= 2
        # The symbol's maximum plus the diagonal potential's bounds |A|_2.
        self.metric_bound = float(np.max(self.multiplier) + spec.lam * np.max(self.ldiag))

    def quadrature(self, rows: np.ndarray) -> np.ndarray:
        """``h`` times the sum of each row of nodal values."""
        return self.spec.grid.spacing * np.sum(rows, axis=-1)

    def transform(self, x: np.ndarray) -> np.ndarray:
        """The rfft coefficients of a vector or of each row of a stack."""
        return np.fft.rfft(x, axis=-2)

    def form_parts(
        self, u: np.ndarray, uc: np.ndarray, v: np.ndarray, vc: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """The spectral part of ``<u, v>_X`` and the potential part ``(L u, v)``."""
        spec = self.spec
        pot = spec.grid.spacing * np.sum(self.ldiag * (u * v), axis=(-2, -1))
        return _coefficient_form(spec.grid, spec.alpha, uc, vc), pot

    def transformed_form(
        self, u: np.ndarray, uc: np.ndarray, v: np.ndarray, vc: np.ndarray
    ) -> np.ndarray:
        """The weighted inner product ``<u, v>_X``: spectral part plus ``lambda (L u, v)``."""
        spectral, pot = self.form_parts(u, uc, v, vc)
        return spectral + self.spec.lam * pot

    def apply_metric(self, x: np.ndarray) -> np.ndarray:
        """The weighted metric ``A x = F* |w|^(2 alpha) F x + lambda L x``."""
        n = self.spec.grid.num_points
        coeff = self.multiplier[:, None] * np.fft.rfft(x, axis=0)
        return np.fft.irfft(coeff, n=n, axis=0) + self.lam_ldiag * x

    @functools.cached_property
    def factor(self) -> tuple[np.ndarray, tuple]:
        """The README's Woodbury inverse of the weighted metric, one well correction per component.

        With ``top`` the maximum of ``L_c``, ``A_c = S_c - Q_c Q_c^T``: ``S_c``
        has the symbol ``|w|^(2 alpha) + lambda top`` and ``Q_c`` holds the
        unit columns of the well nodes ``{L_c < top}`` scaled by ``q``.
        Returns the symbols and, per component, the nodes, ``q`` and the
        inverse Cholesky factor of the capacitance matrix ``I - Q_c^T S_c^-1
        Q_c``, SPD because ``A_c`` is.
        """
        spec = self.spec
        top = np.max(self.ldiag, axis=0)
        if np.any(top <= 0.0):
            raise DomainError(
                "the potential vanishes on the whole grid, so the weighted metric is "
                "singular; widen the box past the well"
            )
        symbol = self.multiplier[:, None] + spec.lam * top[None, :]
        kernels = np.fft.irfft(1.0 / symbol, n=spec.grid.num_points, axis=0)
        wells = []
        for c in range(spec.n):
            idx = np.flatnonzero(self.ldiag[:, c] < top[c])
            q = np.sqrt(spec.lam * (top[c] - self.ldiag[idx, c]))
            kc = kernels[(idx[:, None] - idx[None, :]) % spec.grid.num_points, c]
            cap = np.eye(idx.size) - q[:, None] * kc * q[None, :]
            wells.append((idx, q, _inverse_cholesky(cap)))
        symbol.setflags(write=False)
        return symbol, tuple(wells)

    def factor_solve(self, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``g = A^-1 rhs`` by the cached Woodbury ``factor``, unchecked, and ``A g``.

        Both come from the solve's spectrum ``G``: ``g = F* G`` and ``A g =
        F* |w|^(2 alpha) G + lambda L g``, so ``g`` is not transformed again.
        """
        symbol, wells = self.factor
        n = rhs.shape[0]
        y = np.fft.irfft(np.fft.rfft(rhs, axis=0) / symbol, n=n, axis=0)
        lifted = rhs.copy()  # the well correction adds into it in place
        for c, (idx, q, linv) in enumerate(wells):
            lifted[idx, c] += q * _cholesky_solve(linv, q * y[idx, c])
        spectrum = np.fft.rfft(lifted, axis=0) / symbol
        coeff = self.multiplier[:, None] * spectrum
        if self.paired:
            g, frac = np.fft.irfft(np.stack((spectrum, coeff)), n=n, axis=1)
        else:
            g = np.fft.irfft(spectrum, n=n, axis=0)
            frac = np.fft.irfft(coeff, n=n, axis=0)
        return g, frac + self.lam_ldiag * g

    def solve_context(self) -> str:
        _, wells = self.factor
        k = "/".join(str(idx.size) for idx, _, _ in wells)
        return f"at lambda={self.spec.lam:g} with well size k={k}"


class _IntervalOperator(_OperatorBase):
    """The Dirichlet functional of one :class:`IntervalProblemSpec`; the endpoints are not dofs."""

    metric = "interval-stiffness"
    dofs = slice(1, -1)
    pairing = 1.0

    def __init__(self, spec: IntervalProblemSpec):
        super().__init__(spec)
        grid = spec.grid
        h = grid.spacing
        self.b = gl_matrix(grid, spec.alpha)
        # The README's closed form: (T^T T + r r^T)^-1 = T^-1 T^-T - c c^T
        # with T = B[1:-1, 1:-1] and r = B[-1, 1:-1].
        self.tinv = _gl_toeplitz(-spec.alpha, grid.num_points - 2, h**spec.alpha)
        r = self.b[-1, 1:-1]
        mr = self.tinv @ (self.tinv.T @ r)
        self.c = (mr / math.sqrt(1.0 + float(r @ mr)))[:, None]
        # ||B'||_2^2 <= ||B'||_1 ||B'||_inf for B' = B[:, 1:-1], so h times
        # that product bounds the 2-norm of the stiffness h B'^T B'.
        bd = np.abs(self.b[:, 1:-1])
        self.metric_bound = h * float(np.max(np.sum(bd, axis=0)) * np.max(np.sum(bd, axis=1)))
        # The interior trapezoid weights, each exactly h.
        self.quad = h

    def quadrature(self, rows: np.ndarray) -> np.ndarray:
        """The trapezoid rule on each row of nodal values."""
        # Per-row dot products: the arithmetic of IntervalGrid.integrate.
        return np.vecdot(rows, self.spec.grid.trapezoid_weights)

    def transform(self, x: np.ndarray) -> np.ndarray:
        """``B x`` for a vector or each row of a stack."""
        return self.b @ x

    def transformed_form(
        self, u: np.ndarray, bu: np.ndarray, v: np.ndarray, bv: np.ndarray
    ) -> np.ndarray:
        """The stiffness pairing ``h (B u) . (B v)``."""
        return self.spec.grid.spacing * np.sum(bu * bv, axis=(-2, -1))

    def apply_metric(self, x: np.ndarray) -> np.ndarray:
        """The stiffness ``h B^T B x`` on the interior nodes, from two GL matvecs."""
        b = self.b[:, 1:-1]
        return self.spec.grid.spacing * (b.T @ (b @ x))

    def factor_solve(self, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``g = A^-1 rhs = (T^-1 (T^-T rhs) - c (c^T rhs)) / h`` unchecked, and ``A g``."""
        tinv, c = self.tinv, self.c
        g = (tinv @ (tinv.T @ rhs) - c * (c.T @ rhs)) / self.spec.grid.spacing
        return g, self.apply_metric(g)

    def solve_context(self) -> str:
        return f"on the interval with {self.spec.grid.num_points - 2} interior nodes"


# ---------------------------------------------------------------------------
# Public API: each function takes a line or an interval spec.
# ---------------------------------------------------------------------------


def energy(u: GridFunction, spec) -> float:
    """Value of the functional at ``u``: ``I`` on the line, ``J`` on the interval."""
    return _operator(spec).energy(_values(u, spec))


def derivative_action(u: GridFunction, v: GridFunction, spec) -> float:
    """Directional derivative ``I'(u)v = form(u, v) - wslope(u, v)``."""
    uv = _values(u, spec)
    vv = _values(v, spec)
    op = _operator(spec)
    return float(op.form(uv, vv) - op.wslope(uv, vv))


def gradient_rep(u: GridFunction, spec) -> GridFunction:
    """Metric representative ``g``: ``form(g, v) = I'(u)v`` for all admissible v."""
    g, _ = _operator(spec).gradient(_values(u, spec))
    return GridFunction(spec.grid, g)


def _identity_terms(vals: np.ndarray, spec) -> tuple[float, float, float, float]:
    """``Q = ||u||_X^2``, ``S = (grad W(u), u)``, and from them both sides of ``h_identity``."""
    op = _operator(spec)
    q = float(op.xnormsq(vals))
    s = float(op.wslope(vals, vals))
    lhs = float(0.5 * q - op.wint(vals)) - 0.5 * (q - s)
    rhs = spec.grid.integrate(h_values(spec.nonlinearity, spec.grid.nodes, vals))
    return q, s, lhs, rhs


def h_identity(u: GridFunction, spec) -> tuple[float, float, float]:
    """Defect identity: ``I(u) - 1/2 I'(u)u`` against the integral of ``H``."""
    _, _, lhs, rhs = _identity_terms(_values(u, spec), spec)
    return lhs, rhs, abs(lhs - rhs)


# The interval names of the same functions.
bvp_energy = energy
bvp_derivative_action = derivative_action
bvp_h_identity = h_identity
