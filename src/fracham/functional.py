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

Each spec owns one operator, built on first use and cached by
:func:`_operator`: :class:`_LineOperator` for a :class:`ProblemSpec`,
:class:`_IntervalOperator` for an :class:`IntervalProblemSpec`.  It holds
what depends only on the spec, on both domains the weight values ``g(t)`` of
``W``.  :class:`_OperatorBase` writes the functional once; a domain supplies
only these primitives:

* ``form(u, v)``, the batched bilinear form of the quadratic part: the
  spectral form (:func:`fracham.fracops._spectral_form`) plus
  ``lambda (L u, v)`` on the line, ``h (Bu).(Bv)`` on the interval;
* ``quadrature(rows)``, the grid's quadrature of each row of nodal values:
  ``h`` times the sum on the line, the trapezoid rule on the interval;
* ``dofs``, the nodes that are degrees of freedom: all of them on the line,
  the interior ones on the interval;
* ``apply_metric`` and ``solve_metric`` on the degrees of freedom: on the
  line ``A = F* |w|^(2 alpha) F + lambda diag(L)``, solved exactly below; on
  the interval the stiffness ``h B^T B``, solved by its cached Cholesky factor;
* ``metric_bound``, an upper bound on the 2-norm of ``A`` on the degrees of
  freedom: ``max |w|^(2 alpha) + lambda max L`` on the line, the largest
  absolute row sum of the stiffness on the interval;
* ``quad``, the weights of ``grad W`` in the residual (one on the line, the
  trapezoid weights on the interval), and ``pairing``, the scale in
  ``I'(u)v = pairing * sum(residual(u) * v)`` (``h`` and one).

From them the base class builds ``wint(u)`` and ``wslope(u, d)``, the
batched ``W`` integral and its derivative along ``d``;
``xnormsq(u) = form(u, u)``; ``energies`` (one value per row of a stack,
bit for bit that row on its own), ``energy`` and ``xnorm``; the stationarity
``residual``, the metric ``gradient`` and ``newton_step``, MINRES on the
degrees of freedom preconditioned by ``solve_metric``, which also reports
its iteration count.  The public functions (``energy``,
``derivative_action``, ``gradient_rep``, ``h_identity``; the ``bvp_*``
names are the same functions) take either spec and reach the domain only
through its operator; an interval argument must vanish exactly at both
endpoints.

``segment_forms(a, b)`` returns ``Q(a)``, ``B(a, b)``, ``Q(b)`` of the
quadratic part ``Q``; the line shares one rfft of the stacked pair among the
three.  Along the segment from ``a`` to ``b``, ``Q`` is exactly
``(1-th)^2 Q(a) + 2 th (1-th) B(a, b) + th^2 Q(b)``, so a segment costs those
three reductions plus one ``wint`` per coarse trial point and one ``wslope``
per step of the root search for the crest, with no transform.  The crest
value the solver reports is re-evaluated with ``energy`` (see
:func:`fracham.mpa._measure_segment`).  ``wint``, ``wslope`` and
``energies`` take a ``span`` of nodes off which ``u`` is exactly ``+0.0``:
``W`` and its slope are evaluated on the span only and the rest of each row
is filled with exact zeros, so the quadrature sums the same row and the
result keeps every bit.

The shipped potentials equal their grid maximum outside a bounded well, so
per component the line metric ``A`` is an operator diagonal in frequency
minus a correction of rank ``k``, the number of well nodes; the Woodbury
identity turns ``A^-1`` into two FFT solves and one cached ``k x k`` Cholesky
solve (the capacitance-matrix method), and every solve checks its residual
with one application of ``A``.
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


# The span of every node: evaluations on it take the whole-grid path, with no copy.
_ALL = slice(None)


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

    def xnormsq(self, vals: np.ndarray) -> np.ndarray:
        return self.form(vals, vals)

    def energies(self, vals: np.ndarray, span: slice = _ALL) -> np.ndarray:
        """Energies of a stack; ``W`` is integrated from the nodes ``span`` (see ``wint``)."""
        return 0.5 * self.xnormsq(vals) - self.wint(vals[..., span, :], span)

    def energy(self, vals: np.ndarray, span: slice = _ALL) -> float:
        return float(self.energies(vals, span))

    def wint(self, vals: np.ndarray, span: slice = _ALL) -> np.ndarray:
        """The quadrature of ``W(t, u)``, one value per candidate.

        ``vals`` holds ``u`` on the nodes ``span``.  Off them ``u`` must be
        exactly ``+0.0``, where ``W`` is exactly zero and is not evaluated.
        """
        w = _weighted_w(self.spec.nonlinearity, self.weight[span], vals)
        return self.quadrature(self._full_rows(w, span))

    def wslope(self, vals: np.ndarray, d: np.ndarray, span: slice = _ALL) -> np.ndarray:
        """The quadrature of ``grad W(t, u) . d``: the derivative of ``wint`` along ``d``.

        ``vals`` and ``d`` hold ``u`` and ``d`` on the nodes ``span``, as in ``wint``.
        """
        slope = _weighted_slope(self.spec.nonlinearity, self.weight[span], vals, d)
        return self.quadrature(self._full_rows(slope, span))

    def _full_rows(self, part: np.ndarray, span: slice) -> np.ndarray:
        """Whole-grid rows holding ``part`` on ``span`` and exact zeros elsewhere.

        ``quadrature`` then reduces the same rows as a whole-grid evaluation
        would, in the same order, so the span changes no bit of the result.
        """
        num = self.spec.grid.num_points
        if part.shape[-1] == num:
            return part
        rows = np.zeros(part.shape[:-1] + (num,))
        rows[..., span] = part
        return rows

    def xnorm(self, vals: np.ndarray) -> float:
        return math.sqrt(max(float(self.xnormsq(vals)), 0.0))

    def segment_forms(self, a: np.ndarray, b: np.ndarray) -> tuple[float, float, float]:
        """``Q(a)``, ``B(a, b)``, ``Q(b)`` of the quadratic part ``Q``, from ``form``."""
        return self.form(a, a), self.form(a, b), self.form(b, b)

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
        g[d] = self.solve_metric(r[d])
        nsq = self.pairing * float(np.sum(g[d] * r[d]))
        return g, math.sqrt(max(nsq, 0.0))

    def newton_step(self, vals: np.ndarray, r: np.ndarray) -> tuple[np.ndarray | None, int]:
        """Solve ``I''(u) d = -r`` on the degrees of freedom by MINRES.

        Returns the step, ``None`` when MINRES fails, and its iteration count.

        MINRES is preconditioned with the exact inverse of the metric ``A``,
        so the preconditioned Hessian ``I - A^-1 W''(u)`` does not depend on
        ``lambda`` and the iteration count stays small at every parameter.
        """
        d = self.dofs
        u = vals[d]
        weight = self.weight[d]
        shape, size = u.shape, u.size

        def hess(x: np.ndarray) -> np.ndarray:
            xv = x.reshape(shape)
            nl = _weighted_hessian_action(self.spec.nonlinearity, weight, u, xv)
            return (self.apply_metric(xv) - self.quad * nl).ravel()

        def precond(x: np.ndarray) -> np.ndarray:
            return self.solve_metric(x.reshape(shape)).ravel()

        # An explicit dtype spares scipy's probe, one matvec on an int8 zero vector each.
        op = scipy.sparse.linalg.LinearOperator((size, size), matvec=hess, dtype=np.float64)
        pre = scipy.sparse.linalg.LinearOperator((size, size), matvec=precond, dtype=np.float64)
        iterations = []
        step, info = scipy.sparse.linalg.minres(
            op, -r[d].ravel(), rtol=1e-11, M=pre, callback=lambda xk: iterations.append(1)
        )
        if info != 0:
            return None, len(iterations)
        out = np.zeros_like(vals)
        out[d] = step.reshape(shape)
        return out, len(iterations)


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
        lifted = rhs.copy()  # the well correction adds into it in place
        for c, (idx, q, cho) in enumerate(self.wells):
            lifted[idx, c] += q * scipy.linalg.cho_solve(cho, q * y[idx, c])
        return self._fft_solve(lifted)


class _LineOperator(_OperatorBase):
    """The line functional of one :class:`ProblemSpec` and its weighted metric."""

    metric = "x-alpha-lambda"
    dofs = slice(None)
    quad = 1.0
    newton_steps = 12
    newton_tol = 1e-13

    def __init__(self, spec: ProblemSpec):
        super().__init__(spec)
        self.pairing = spec.grid.spacing
        self.multiplier, _ = _form_multipliers(spec.grid, spec.alpha)
        self.ldiag = spec.potential.diagonal(spec.grid.nodes, spec.n)
        self.ldiag.setflags(write=False)
        # The symbol's maximum plus the diagonal potential's bounds |A|_2.
        self.metric_bound = float(np.max(self.multiplier) + spec.lam * np.max(self.ldiag))

    def quadrature(self, rows: np.ndarray) -> np.ndarray:
        """``h`` times the sum of each row of nodal values."""
        return self.spec.grid.spacing * np.sum(rows, axis=-1)

    def form(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """The weighted inner product ``<u, v>_X``: spectral part plus ``lambda (L u, v)``."""
        spec = self.spec
        frac = _spectral_form(spec.grid, spec.alpha, u, None if v is u else v)
        pot = spec.grid.spacing * np.sum(self.ldiag * (u * v), axis=(-2, -1))
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


class _IntervalOperator(_OperatorBase):
    """The Dirichlet functional of one :class:`IntervalProblemSpec`; the endpoints are not dofs."""

    metric = "interval-stiffness"
    dofs = slice(1, -1)
    pairing = 1.0
    newton_steps = 20
    newton_tol = 1e-14

    def __init__(self, spec: IntervalProblemSpec):
        super().__init__(spec)
        self.b = gl_matrix(spec.grid, spec.alpha)
        stiffness = interval_stiffness(spec.grid, spec.alpha)
        self.cho = scipy.linalg.cho_factor(np.array(stiffness))
        # The largest absolute row sum bounds the 2-norm of the symmetric stiffness.
        self.metric_bound = float(np.max(np.sum(np.abs(stiffness), axis=1)))
        self.quad = spec.grid.trapezoid_weights[1:-1, None]

    def quadrature(self, rows: np.ndarray) -> np.ndarray:
        """The trapezoid rule on each row of nodal values."""
        # Per-row dot products: the arithmetic of IntervalGrid.integrate.
        return np.vecdot(rows, self.spec.grid.trapezoid_weights)

    def form(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """The stiffness pairing ``h (B u) . (B v)``."""
        bu = self.b @ u
        bv = bu if v is u else self.b @ v
        return self.spec.grid.spacing * np.sum(bu * bv, axis=(-2, -1))

    def apply_metric(self, x: np.ndarray) -> np.ndarray:
        """The stiffness ``h B^T B x`` on the interior nodes, from two GL matvecs."""
        b = self.b[:, 1:-1]
        return self.spec.grid.spacing * (b.T @ (b @ x))

    def solve_metric(self, rhs: np.ndarray) -> np.ndarray:
        return scipy.linalg.cho_solve(self.cho, rhs)


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
