"""Energy functionals on the line and the interval, and the operator layer.

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

Each spec owns one operator, built on first use and cached:
:class:`_LineOperator` for a :class:`ProblemSpec` and
:class:`_IntervalOperator` for an :class:`IntervalProblemSpec`, both returned
by :func:`_operator`.  An operator holds everything that depends only on the
spec (the potential diagonal, the Fourier symbol and the metric factor on the
line; the GL matrix and the stiffness Cholesky factor on the interval; on
both, the weight values ``g(t)`` of ``W``, so ``weight_values`` runs once per
spec) and offers the same methods on both domains: ``energies`` and
``xnormsq`` on a stack of candidates (one value per row, bit for bit the
value of that row on its own), ``energy`` and ``xnorm`` on one candidate,
the bilinear ``form`` (``form(u, u)`` is ``xnormsq(u)`` to round-off), the
metric ``gradient``, the stationarity ``residual`` and a ``newton_step``.
The public functions below and the solver in :mod:`fracham.mpa` evaluate
everything through them; the line quadratic form is
:func:`fracham.fracops._spectral_form`.

The public functions (``energy``, ``derivative_action``, ``gradient_rep``,
``h_identity``) take either spec and reach the domain only through its
operator; an interval argument must vanish exactly at both endpoints.  The
``bvp_*`` names are the same functions.

Line searches use three more methods.  ``wint`` is the batched ``W``
integral (the one ``energies`` subtracts), ``wslope(u, d)`` the batched
integral of ``grad W(t, u) . d`` with the same quadrature (the derivative of
``wint`` along ``d``), and ``segment_forms(a, b)`` returns the three
reductions ``Q(a)``, ``B(a, b)``, ``Q(b)`` of the quadratic part ``Q`` (the
spectral form plus ``lambda`` times the potential term on the line,
``h (Ba).(Bb)`` on the interval).  The base class writes it as
``form(a, a), form(a, b), form(b, b)``, which the interval uses as is; the
line operator shares one rfft of the stacked pair among the three.  Along
the segment from ``a`` to ``b`` the quadratic part is exactly
``(1-th)^2 Q(a) + 2 th (1-th) B(a, b) + th^2 Q(b)``, so a segment costs
those three reductions plus one ``W`` integral per coarse trial point and
one ``W`` slope per step of the root search for the crest, with no
transform.  The expansion only steers the search: the crest value the
solver reports is re-evaluated directly with ``energy`` (see
:func:`fracham.mpa._measure_segment`).

The descent metric on the line is the weighted norm: the gradient is an exact
solve against ``A = F* |w|^(2 alpha) F + lambda diag(L)``.  The shipped
potentials equal their grid maximum outside a bounded well, so per component
``A`` is an operator diagonal in frequency minus a correction of rank ``k``,
the number of well nodes; the Woodbury identity turns ``A^-1`` into two FFT
solves and one cached ``k x k`` Cholesky solve (the capacitance-matrix
method), and every solve checks its residual with one application of ``A``.
The interval metric is the stiffness ``h B^T B``, solved with its cached
Cholesky factor.
"""

from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np
import scipy.linalg
import scipy.sparse.linalg

from .errors import ConvergenceError, DomainError
from .fracops import (
    _coefficient_form,
    _form_multipliers,
    _spectral_form,
    gl_matrix,
    interval_stiffness,
)
from .grids import GridFunction, IntervalGrid, RealLineGrid
from .problem import (
    NonlinearitySpec,
    PotentialSpec,
    _weighted_grad_w,
    _weighted_hessian_action,
    _weighted_slope,
    _weighted_w,
    grad_w_values,
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

    def with_lambda(self, lam: float) -> "ProblemSpec":
        return dataclasses.replace(self, lam=lam)


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
    dirichlet = _operator(spec).dirichlet
    if dirichlet and (np.any(u.values[0] != 0.0) or np.any(u.values[-1] != 0.0)):
        raise DomainError("interval functions must vanish exactly at both endpoints")
    return u.values


# ---------------------------------------------------------------------------
# The operator layer (solver-facing; values of shape (N, n), stacks (B, N, n)).
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _operator(spec):
    """The cached operator of a line or interval spec."""
    if isinstance(spec, ProblemSpec):
        return _LineOperator(spec)
    return _IntervalOperator(spec)


class _OperatorBase:
    def __init__(self, spec):
        self.spec = spec
        self.weight = weight_values(spec.nonlinearity, spec.grid.nodes)
        self.weight.setflags(write=False)

    def energies(self, vals: np.ndarray) -> np.ndarray:
        return 0.5 * self.xnormsq(vals) - self.wint(vals)

    def energy(self, vals: np.ndarray) -> float:
        return float(self.energies(vals))

    def xnorm(self, vals: np.ndarray) -> float:
        return math.sqrt(max(float(self.xnormsq(vals)), 0.0))

    def segment_forms(self, a: np.ndarray, b: np.ndarray) -> tuple[float, float, float]:
        """``Q(a)``, ``B(a, b)``, ``Q(b)`` of the quadratic part ``Q``, from ``form``."""
        return self.form(a, a), self.form(a, b), self.form(b, b)


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


class _LineOperator(_OperatorBase):
    """The line functional of one :class:`ProblemSpec` and its weighted metric."""

    metric = "x-alpha-lambda"
    dirichlet = False
    newton_steps = 12
    newton_tol = 1e-13

    def __init__(self, spec: ProblemSpec):
        super().__init__(spec)
        self.multiplier, _ = _form_multipliers(spec.grid, spec.alpha)
        self.ldiag = spec.potential.diagonal(spec.grid.nodes, spec.n)
        self.ldiag.setflags(write=False)

    def wint(self, vals: np.ndarray) -> np.ndarray:
        """The integral of ``W(t, u)``, one value per candidate."""
        spec = self.spec
        return spec.grid.spacing * np.sum(_weighted_w(spec.nonlinearity, self.weight, vals), axis=-1)

    def wslope(self, vals: np.ndarray, d: np.ndarray) -> np.ndarray:
        """The integral of ``grad W(t, u) . d``: the derivative of ``wint`` along ``d``."""
        spec = self.spec
        slope = _weighted_slope(spec.nonlinearity, self.weight, vals, d)
        return spec.grid.spacing * np.sum(slope, axis=-1)

    def xnormsq(self, vals: np.ndarray) -> np.ndarray:
        spec = self.spec
        qf = _spectral_form(spec.grid, spec.alpha, vals)
        pot = spec.grid.spacing * np.sum(self.ldiag * vals**2, axis=(-2, -1))
        return qf + spec.lam * pot

    def form(self, u: np.ndarray, v: np.ndarray) -> float:
        """The weighted inner product ``<u, v>_X``: spectral part plus ``lambda (L u, v)``."""
        spec = self.spec
        frac = float(_spectral_form(spec.grid, spec.alpha, u, v))
        pot = spec.grid.integrate(self.ldiag * u * v)
        return frac + spec.lam * pot

    def segment_forms(self, a: np.ndarray, b: np.ndarray) -> tuple[float, float, float]:
        """The base triple from one pair transform instead of three form calls."""
        spec = self.spec
        h = spec.grid.spacing
        ac, bc = np.fft.rfft(np.stack([a, b]), axis=-2)

        def form(u, uc, v, vc):
            pot = h * np.sum(self.ldiag * u * v)
            return float(_coefficient_form(spec.grid, spec.alpha, uc, vc) + spec.lam * pot)

        return form(a, ac, a, ac), form(a, ac, b, bc), form(b, bc, b, bc)

    def apply_metric(self, x: np.ndarray) -> np.ndarray:
        """The weighted metric ``A x = F* |w|^(2 alpha) F x + lambda L x``."""
        n = self.spec.grid.num_points
        coeff = self.multiplier[:, None] * np.fft.rfft(x, axis=0)
        return np.fft.irfft(coeff, n=n, axis=0) + self.spec.lam * self.ldiag * x

    def residual(self, vals: np.ndarray) -> np.ndarray:
        """Pointwise derivative field: the L2 representative of I'(u)."""
        spec = self.spec
        return self.apply_metric(vals) - _weighted_grad_w(spec.nonlinearity, self.weight, vals)

    @functools.cached_property
    def factor(self) -> _MetricFactor:
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
            wells.append((idx, q, scipy.linalg.cho_factor(cap, lower=True)))
        symbol.setflags(write=False)
        return _MetricFactor(symbol=symbol, wells=tuple(wells))

    def solve_metric(self, rhs: np.ndarray) -> np.ndarray:
        """Solve ``A g = rhs`` with the cached factor, checking the residual.

        The capacitance matrix's condition number grows like ``lambda``, so
        past about ``lambda = 1e5`` a relative residual above ``1e-12`` gets
        one step of iterative refinement with the same factor before the
        ``1e-10`` check.
        """
        g = self.factor.solve(rhs)
        r = self.apply_metric(g) - rhs
        res = float(np.linalg.norm(r))
        bnorm = float(np.linalg.norm(rhs))
        if res > 1e-12 * bnorm:
            g = g - self.factor.solve(r)
            res = float(np.linalg.norm(self.apply_metric(g) - rhs))
        if not res <= 1e-10 * bnorm:
            k = "/".join(str(idx.size) for idx, _, _ in self.factor.wells)
            raise ConvergenceError(
                f"metric solve at lambda={self.spec.lam:g} with well size k={k} "
                f"failed its residual check: residual {res:.3e}, "
                f"relative {res / max(bnorm, 1e-300):.3e} > 1e-10"
            )
        return g

    def gradient(self, vals: np.ndarray) -> tuple[np.ndarray, float]:
        """Weighted-metric representative of I'(u) and its weighted norm."""
        rhs = self.residual(vals)
        g = self.solve_metric(rhs)
        nsq = self.spec.grid.spacing * float(np.sum(g * rhs))
        return g, math.sqrt(max(nsq, 0.0))

    def newton_step(self, vals: np.ndarray, r: np.ndarray) -> np.ndarray | None:
        """Solve ``I''(u) d = -r`` by MINRES; ``None`` when MINRES fails.

        MINRES is preconditioned with the exact inverse of the weighted metric
        ``A``, so the preconditioned Hessian ``I - A^-1 W''(u)`` does not
        depend on ``lambda`` and the iteration count stays small at every
        parameter.
        """
        spec = self.spec
        shape = vals.shape
        size = vals.size

        def hess(x: np.ndarray) -> np.ndarray:
            xv = x.reshape(shape)
            nl = _weighted_hessian_action(spec.nonlinearity, self.weight, vals, xv)
            return (self.apply_metric(xv) - nl).ravel()

        def precond(x: np.ndarray) -> np.ndarray:
            return self.solve_metric(x.reshape(shape)).ravel()

        op = scipy.sparse.linalg.LinearOperator((size, size), matvec=hess)
        pre = scipy.sparse.linalg.LinearOperator((size, size), matvec=precond)
        d, info = scipy.sparse.linalg.minres(op, -r.ravel(), rtol=1e-11, M=pre)
        return d.reshape(shape) if info == 0 else None


class _IntervalOperator(_OperatorBase):
    """The Dirichlet functional of one :class:`IntervalProblemSpec`.

    Boundary values are not degrees of freedom: the residual's boundary rows
    are zero and the metric and Newton solves act on the interior nodes.
    """

    metric = "interval-stiffness"
    dirichlet = True
    newton_steps = 20
    newton_tol = 1e-14

    def __init__(self, spec: IntervalProblemSpec):
        super().__init__(spec)
        self.b = gl_matrix(spec.grid, spec.alpha)
        self.cho = scipy.linalg.cho_factor(np.array(interval_stiffness(spec.grid, spec.alpha)))

    def wint(self, vals: np.ndarray) -> np.ndarray:
        """The trapezoid integral of ``W(t, u)``, one value per candidate."""
        wv = _weighted_w(self.spec.nonlinearity, self.weight, vals)
        # Per-row dot products: the arithmetic of IntervalGrid.integrate.
        return np.vecdot(wv, self.spec.grid.trapezoid_weights)

    def wslope(self, vals: np.ndarray, d: np.ndarray) -> np.ndarray:
        """The trapezoid integral of ``grad W(t, u) . d``, one value per candidate."""
        slope = _weighted_slope(self.spec.nonlinearity, self.weight, vals, d)
        return np.vecdot(slope, self.spec.grid.trapezoid_weights)

    def xnormsq(self, vals: np.ndarray) -> np.ndarray:
        return self.spec.grid.spacing * np.sum((self.b @ vals) ** 2, axis=(-2, -1))

    def form(self, u: np.ndarray, v: np.ndarray) -> float:
        """The stiffness pairing ``h (B u) . (B v)``."""
        return self.spec.grid.spacing * float(np.sum((self.b @ u) * (self.b @ v)))

    def residual(self, vals: np.ndarray) -> np.ndarray:
        """Gradient of the discrete energy in the raw node coordinates."""
        spec = self.spec
        cw = spec.grid.trapezoid_weights
        p = spec.grid.spacing * (self.b.T @ (self.b @ vals)) - cw[:, None] * _weighted_grad_w(
            spec.nonlinearity, self.weight, vals
        )
        p[0] = 0.0
        p[-1] = 0.0
        return p

    def gradient(self, vals: np.ndarray) -> tuple[np.ndarray, float]:
        """Stiffness-metric representative via the cached Cholesky factor."""
        p = self.residual(vals)
        g = np.zeros_like(vals)
        g[1:-1] = scipy.linalg.cho_solve(self.cho, p[1:-1])
        nsq = float(np.sum(g[1:-1] * p[1:-1]))
        return g, math.sqrt(max(nsq, 0.0))

    def _hessian(self, vals: np.ndarray) -> np.ndarray:
        """Dense interior Hessian: stiffness minus the weighted local blocks."""
        spec = self.spec
        n = spec.n
        h_full = np.kron(np.asarray(interval_stiffness(spec.grid, spec.alpha)), np.eye(n))
        cw = spec.grid.trapezoid_weights
        basis = np.eye(n)
        blocks = np.stack(
            [_weighted_hessian_action(
                spec.nonlinearity, self.weight, vals, np.tile(basis[k], (len(vals), 1)))
             for k in range(n)],
            axis=-1,
        )  # (M, n, n): column k holds d(grad W)/du_k
        for i in range(spec.grid.num_points - 2):
            sl = slice(i * n, (i + 1) * n)
            h_full[sl, sl] -= cw[i + 1] * blocks[i + 1]
        return 0.5 * (h_full + h_full.T)

    def newton_step(self, vals: np.ndarray, r: np.ndarray) -> np.ndarray | None:
        """Solve the dense interior Newton system; ``None`` when it is singular."""
        try:
            d_int = scipy.linalg.solve(self._hessian(vals), -r[1:-1].ravel(), assume_a="sym")
        except scipy.linalg.LinAlgError:
            return None
        d = np.zeros_like(vals)
        d[1:-1] = d_int.reshape(vals[1:-1].shape)
        return d


# ---------------------------------------------------------------------------
# Public API: each function takes a line or an interval spec.
# ---------------------------------------------------------------------------


def energy(u: GridFunction, spec) -> float:
    """Value of the functional at ``u``: ``I`` on the line, ``J`` on the interval."""
    return _operator(spec).energy(_values(u, spec))


def derivative_action(u: GridFunction, v: GridFunction, spec) -> float:
    """Directional derivative ``I'(u)v``, assembled from the bilinear form."""
    uv = _values(u, spec)
    vv = _values(v, spec)
    nl = spec.grid.integrate(grad_w_values(spec.nonlinearity, spec.grid.nodes, uv) * vv)
    return _operator(spec).form(uv, vv) - nl


def gradient_rep(u: GridFunction, spec) -> GridFunction:
    """Metric representative ``g``: ``form(g, v) = I'(u)v`` for all admissible v."""
    g, _ = _operator(spec).gradient(_values(u, spec))
    return GridFunction(spec.grid, g)


def h_identity(u: GridFunction, spec) -> tuple[float, float, float]:
    """Defect identity: ``I(u) - 1/2 I'(u)u`` against the integral of ``H``."""
    vals = _values(u, spec)
    lhs = energy(u, spec) - 0.5 * derivative_action(u, u, spec)
    rhs = spec.grid.integrate(h_values(spec.nonlinearity, spec.grid.nodes, vals))
    return lhs, rhs, abs(lhs - rhs)


# The interval names of the same functions.
bvp_energy = energy
bvp_derivative_action = derivative_action
bvp_h_identity = h_identity
