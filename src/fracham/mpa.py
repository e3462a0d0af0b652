"""Mountain-pass geometry and the path-deformation min-max solver.

The solver realizes the min-max level

    c = inf over paths from 0 to e  of  max along the path of I

on a discrete polyline.  The reported level is the measured maximum over the
whole piecewise-linear path (node energies plus per-segment interior maxima,
each segment scanned coarsely and refined by golden section), so it is an
honest upper bound for the min-max value on that polyline, not just the best
node energy.  Each iteration:

1. selects the crest: if a segment's interior maximum exceeds every node
   energy, that interior point is inserted as a new node (converting an
   already-counted maximum into a node cannot raise the level);
2. computes the metric gradient at the crest node and stops when the
   weighted residual ``(1 + ||u||_X) ||I'(u)|| <= tol``;
3. otherwise descends that single node by a backtracking step, accepted only
   if the energy decreases (Armijo) and the re-measured adjacent segments
   keep the path maximum from rising above the current level.

Near convergence the crest node is polished by a damped Newton iteration on
the stationarity equation (matrix-free on the line, dense on the interval);
the polish is accepted only if it lands at most negligibly above the current
level and away from zero, so it refines the same critical point rather than
escaping the path structure.

The geometry pieces mirror the variational skeleton: ``estimate_rho_eta``
turns the small-sphere lower bound into explicit ``(rho, eta)``;
``construct_e`` builds the far endpoint ``sigma0 * psi`` from a bump
supported where the potential vanishes (which makes the construction
independent of the potential parameter); ``ctilde_bound`` maximizes the
energy along the ray through ``psi``, an upper bound for the level that no
admissible parameter value can push past.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import scipy.linalg
import scipy.sparse.linalg

from .errors import ConfigError, ConvergenceError, DomainError, GeometryError
from .functional import (
    IntervalProblemSpec,
    ProblemSpec,
    _dI_field,
    _energy_batch,
    _energy_raw,
    _grad_h_raw,
    _grad_x_raw,
    _hess_matvec,
    _ienergy_batch,
    _ienergy_raw,
    _igrad_raw,
    _ihess_dense,
    _ipartials,
    _solve_metric,
    _xnormsq_raw,
    _ixnormsq_raw,
)
from .grids import GridFunction
from .problem import calibrate_growth_constant, w_values
from .spaces import EmbeddingConstants, estimate_embedding_constants

__all__ = [
    "MpaConfig",
    "MountainPassSetup",
    "PathState",
    "SolveResult",
    "estimate_rho_eta",
    "construct_e",
    "ctilde_bound",
    "mpa_solve",
    "bvp_solve",
]

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclasses.dataclass(frozen=True)
class MpaConfig:
    """Solver knobs; defaults match the shipped problem sizes."""

    path_nodes: int = 21
    tol: float = 1e-6
    max_iters: int = 400
    step_rule: str = "armijo"
    metric: str = "x-alpha-lambda"
    polish: bool = True
    polish_trigger: float = 3e-2
    max_path_nodes: int = 81
    armijo_c1: float = 1e-4
    step_floor: float = 1e-12
    restarts: int = 0
    seed: int = 20260816

    def __post_init__(self):
        if self.path_nodes < 3:
            raise ConfigError(
                f"a path needs at least 3 nodes (two frozen endpoints plus one "
                f"movable interior node), got {self.path_nodes}"
            )
        if self.max_path_nodes < self.path_nodes:
            raise ConfigError("max_path_nodes must be >= path_nodes")
        if self.step_rule != "armijo":
            raise ConfigError(f"unknown step rule {self.step_rule!r}")
        if self.metric not in ("h-alpha", "x-alpha-lambda"):
            raise ConfigError(f"unknown metric {self.metric!r}")
        if not (0 < self.tol < 1):
            raise ConfigError(f"tol must lie in (0, 1), got {self.tol}")
        if self.restarts < 0:
            raise ConfigError("restarts must be nonnegative")


@dataclasses.dataclass(frozen=True, eq=False)
class MountainPassSetup:
    """Certified geometry for one problem instance."""

    psi: GridFunction
    tau: float
    sigma0: float
    e: GridFunction
    rho: float
    eta: float
    epsilon_c: float
    c_eps: float
    growth_p: float


@dataclasses.dataclass(eq=False)
class PathState:
    """Snapshot of the polyline for introspection and tests."""

    nodes: list[np.ndarray]
    energies: list[float]
    argmax: int

    def level(self) -> float:
        return max(self.energies)


@dataclasses.dataclass(frozen=True, eq=False)
class SolveResult:
    """Outcome of a min-max solve."""

    u: GridFunction
    level: float
    residual: float
    residual_weighted: float
    iterations: int
    converged: bool
    metric: str
    norm_x: float
    trace: tuple[tuple[float, float, float], ...]
    diagnostics: dict

    def to_dict(self, include_values: bool = True) -> dict:
        grid = self.u.grid
        out = {
            "converged": self.converged,
            "level": self.level,
            "residual": self.residual,
            "residual_weighted": self.residual_weighted,
            "iterations": self.iterations,
            "metric": self.metric,
            "norm_x": self.norm_x,
            "num_components": self.u.num_components,
            "grid": dataclasses.asdict(grid),
            "grid_kind": type(grid).__name__,
            "diagnostics": self.diagnostics,
            "trace_columns": ["level", "residual", "residual_weighted"],
            "trace": [list(row) for row in self.trace],
        }
        if include_values:
            out["values"] = self.u.values.tolist()
        return out


# ---------------------------------------------------------------------------
# Geometry.
# ---------------------------------------------------------------------------


def estimate_rho_eta(
    spec: ProblemSpec,
    epsilon_c: float,
    c_eps: float,
    p: float,
    constants: EmbeddingConstants | None = None,
) -> tuple[float, float]:
    """Small-sphere radius and level floor from the quadratic lower bound.

    The energy on the sphere of radius ``rho`` in the weighted norm is at
    least ``rho^2 * bracket(rho)`` with

        bracket(rho) = 1/2 (1 - eps/Theta) - (C_eps / p) kappa_p^p rho^(p-2);

    the largest log-grid radius with a positive bracket is returned together
    with its floor ``eta``.
    """
    if constants is None:
        constants = estimate_embedding_constants(spec.grid, spec.alpha, spec.potential)
    theta = constants.theta
    if not (0.0 < epsilon_c < theta):
        raise GeometryError(
            f"need 0 < epsilon_c < theta = {theta:.6g}, got epsilon_c = {epsilon_c}"
        )
    if p <= 2.0:
        raise GeometryError(f"growth exponent must exceed 2, got {p}")
    kpp = 1.0 / (theta ** (p / 2.0) * constants.meas_lc ** ((p - 2.0) / 2.0))
    radii = np.logspace(-6, 3, 1801)
    bracket = 0.5 * (1.0 - epsilon_c / theta) - (c_eps / p) * kpp * radii ** (p - 2.0)
    positive = bracket > 0.0
    if not np.any(positive):
        raise GeometryError(
            f"no positive sphere bound found; bracket at rho = {radii[0]:.3g} "
            f"is {bracket[0]:.6g}"
        )
    i = int(np.max(np.nonzero(positive)[0]))
    rho = float(radii[i])
    eta = float(rho**2 * bracket[i])
    return rho, eta


def _bump_profile(t: np.ndarray, center: float, tau: float) -> np.ndarray:
    s = np.clip(1.0 - ((t - center) / tau) ** 2, 0.0, None)
    return s**3


def construct_e(
    spec: ProblemSpec,
    tau: float | None = None,
    constants: EmbeddingConstants | None = None,
    epsilon_c: float | None = None,
    c_eps: float | None = None,
) -> MountainPassSetup:
    """Build the far endpoint ``e = sigma0 psi`` and certify the geometry.

    ``psi`` is the polynomial bump ``(1 - (t/tau)^2)^3`` in the first
    component, supported strictly inside the potential's zero interval, so
    the potential term of the energy vanishes identically along the ray and
    the doubling scan for ``sigma0`` cannot depend on the parameter.
    """
    varrho = spec.potential.varrho
    if tau is None:
        tau = 0.75 * varrho
    if not (0.0 < tau < varrho):
        raise GeometryError(f"need 0 < tau < varrho = {varrho}, got tau = {tau}")
    if constants is None:
        constants = estimate_embedding_constants(spec.grid, spec.alpha, spec.potential)
    if epsilon_c is None:
        epsilon_c = 0.5 * constants.theta
    pg = spec.nonlinearity.growth_exponent
    if pg <= 2.0:
        raise GeometryError(
            "nonlinearity is not superquadratic; no mountain-pass geometry exists"
        )
    if c_eps is None:
        c_eps = calibrate_growth_constant(spec.nonlinearity, epsilon_c)
    rho, eta = estimate_rho_eta(spec, epsilon_c, c_eps, pg, constants)

    vals = np.zeros((spec.grid.num_points, spec.n))
    vals[:, 0] = _bump_profile(spec.grid.nodes, 0.0, tau)
    psi = GridFunction(spec.grid, vals)
    pd = spec.potential_diagonal()
    if np.any(pd * psi.values != 0.0):
        raise GeometryError("bump support leaks outside the potential's zero set")

    sigma = 1.0
    while True:
        evals = sigma * psi.values
        en = _energy_raw(evals, spec)
        nx = math.sqrt(_xnormsq_raw(evals, spec))
        if en < 0.0 and nx > rho:
            break
        sigma *= 2.0
        if sigma > 2.0**60:
            raise GeometryError(
                "no negative-energy endpoint within the doubling cap; the "
                "nonlinearity is too weak on this grid"
            )
    e = GridFunction(spec.grid, sigma * psi.values)
    return MountainPassSetup(
        psi=psi,
        tau=tau,
        sigma0=sigma,
        e=e,
        rho=rho,
        eta=eta,
        epsilon_c=epsilon_c,
        c_eps=c_eps,
        growth_p=pg,
    )


def ctilde_bound(setup: MountainPassSetup, spec: ProblemSpec) -> float:
    """Maximum of the energy along the ray ``sigma * psi``, refined.

    Because the bump avoids the potential's support, the value is the same
    for every parameter value; it upper-bounds the solver level.
    """
    psi = setup.psi.values
    qf = _xnormsq_raw(psi, spec)
    grid = spec.grid
    nodes = grid.nodes
    nl = spec.nonlinearity

    def ray_energy(sigma: float) -> float:
        wint = grid.spacing * float(np.sum(w_values(nl, nodes, sigma * psi)))
        return 0.5 * sigma**2 * qf - wint

    sigmas = np.linspace(0.0, setup.sigma0, 2049)[1:]
    energies = np.array([ray_energy(s) for s in sigmas])
    i = int(np.argmax(energies))
    lo = sigmas[max(i - 1, 0)]
    hi = sigmas[min(i + 1, len(sigmas) - 1)]
    best = float(energies[i])
    x1 = hi - _GOLDEN * (hi - lo)
    x2 = lo + _GOLDEN * (hi - lo)
    f1, f2 = ray_energy(x1), ray_energy(x2)
    for _ in range(60):
        if f1 >= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _GOLDEN * (hi - lo)
            f1 = ray_energy(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _GOLDEN * (hi - lo)
            f2 = ray_energy(x2)
        best = max(best, f1, f2)
    return best


# ---------------------------------------------------------------------------
# Functional adapters: one spectral (line), one dense (interval).
# ---------------------------------------------------------------------------


class _LineAdapter:
    kind = "line"

    def __init__(self, spec: ProblemSpec, config: MpaConfig):
        self.spec = spec
        self.config = config

    def energy(self, vals: np.ndarray) -> float:
        return _energy_raw(vals, self.spec)

    def energy_batch(self, stack: np.ndarray) -> np.ndarray:
        return _energy_batch(stack, self.spec)

    def grad(self, vals: np.ndarray) -> tuple[np.ndarray, float]:
        if self.config.metric == "h-alpha":
            return _grad_h_raw(vals, self.spec)
        return _grad_x_raw(vals, self.spec)

    def xnorm(self, vals: np.ndarray) -> float:
        return math.sqrt(max(_xnormsq_raw(vals, self.spec), 0.0))

    def newton(self, vals: np.ndarray, max_steps: int = 12) -> tuple[np.ndarray, bool]:
        """Damped Newton polish of ``I'(u) = 0``, each step solved by MINRES.

        MINRES is preconditioned with the exact inverse of the weighted metric
        ``A`` (the capacitance-matrix solve of ``functional``), so the
        preconditioned Hessian ``I - A^-1 W''(u)`` does not depend on
        ``lambda`` and the iteration count stays small at every parameter.
        """
        spec = self.spec
        shape = vals.shape
        size = vals.size

        def precond(x: np.ndarray) -> np.ndarray:
            return _solve_metric(x.reshape(shape), spec).ravel()

        pre = scipy.sparse.linalg.LinearOperator((size, size), matvec=precond)
        v = vals.copy()
        r = _dI_field(v, spec)
        rn = float(np.linalg.norm(r))
        improved_any = False
        for _ in range(max_steps):
            op = scipy.sparse.linalg.LinearOperator(
                (size, size), matvec=_hess_matvec(v, spec)
            )
            d, info = scipy.sparse.linalg.minres(op, -r.ravel(), rtol=1e-11, M=pre)
            if info != 0:
                return v, improved_any
            d = d.reshape(shape)
            t = 1.0
            stepped = False
            while t >= 1.0 / 64.0:
                cand = v + t * d
                rc = _dI_field(cand, spec)
                rcn = float(np.linalg.norm(rc))
                if rcn < (1.0 - 0.25 * t) * rn:
                    v, r, rn = cand, rc, rcn
                    stepped = True
                    improved_any = True
                    break
                t *= 0.5
            if not stepped:
                return v, improved_any
            if rn <= 1e-13 * (1.0 + float(np.linalg.norm(v))):
                break
        return v, improved_any


class _IntervalAdapter:
    kind = "interval"

    def __init__(self, spec: IntervalProblemSpec, config: MpaConfig):
        self.spec = spec
        self.config = config

    def energy(self, vals: np.ndarray) -> float:
        return _ienergy_raw(vals, self.spec)

    def energy_batch(self, stack: np.ndarray) -> np.ndarray:
        return _ienergy_batch(stack, self.spec)

    def grad(self, vals: np.ndarray) -> tuple[np.ndarray, float]:
        return _igrad_raw(vals, self.spec)

    def xnorm(self, vals: np.ndarray) -> float:
        return math.sqrt(max(_ixnormsq_raw(vals, self.spec), 0.0))

    def newton(self, vals: np.ndarray, max_steps: int = 20) -> tuple[np.ndarray, bool]:
        spec = self.spec
        v = vals.copy()
        p = _ipartials(v, spec)
        rn = float(np.linalg.norm(p))
        improved_any = False
        for _ in range(max_steps):
            hess = _ihess_dense(v, spec)
            try:
                d_int = scipy.linalg.solve(hess, -p[1:-1].ravel(), assume_a="sym")
            except scipy.linalg.LinAlgError:
                return v, improved_any
            d = np.zeros_like(v)
            d[1:-1] = d_int.reshape(v[1:-1].shape)
            t = 1.0
            stepped = False
            while t >= 1.0 / 64.0:
                cand = v + t * d
                pc = _ipartials(cand, spec)
                pcn = float(np.linalg.norm(pc))
                if pcn < (1.0 - 0.25 * t) * rn:
                    v, p, rn = cand, pc, pcn
                    stepped = True
                    improved_any = True
                    break
                t *= 0.5
            if not stepped:
                return v, improved_any
            if rn <= 1e-14 * (1.0 + float(np.linalg.norm(v))):
                break
        return v, improved_any


# ---------------------------------------------------------------------------
# The path engine.
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class _Segment:
    theta: float
    value: float


def _measure_segment(adapter, a: np.ndarray, b: np.ndarray, coarse: int = 15) -> _Segment:
    """Maximum of the energy along the straight segment from a to b.

    Batched coarse scan of the interior, then golden-section refinement of
    the best coarse cell.  Every reported value is an actually evaluated
    energy, so the measurement never overstates the true maximum.
    """
    thetas = np.linspace(0.0, 1.0, coarse + 2)[1:-1]
    stack = (1.0 - thetas)[:, None, None] * a[None] + thetas[:, None, None] * b[None]
    energies = adapter.energy_batch(stack)
    i = int(np.argmax(energies))
    best_theta = float(thetas[i])
    best_value = float(energies[i])
    span = thetas[1] - thetas[0]
    lo = max(0.0, best_theta - span)
    hi = min(1.0, best_theta + span)

    def seg_energy(th: float) -> float:
        return adapter.energy((1.0 - th) * a + th * b)

    x1 = hi - _GOLDEN * (hi - lo)
    x2 = lo + _GOLDEN * (hi - lo)
    f1, f2 = seg_energy(x1), seg_energy(x2)
    for _ in range(36):
        if f1 >= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _GOLDEN * (hi - lo)
            f1 = seg_energy(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _GOLDEN * (hi - lo)
            f2 = seg_energy(x2)
        if f1 > best_value:
            best_value, best_theta = f1, x1
        if f2 > best_value:
            best_value, best_theta = f2, x2
    return _Segment(theta=best_theta, value=best_value)


class _PathEngine:
    """Mutable polyline with measured segment maxima and a single-writer step."""

    def __init__(self, adapter, nodes: list[np.ndarray], config: MpaConfig):
        self.adapter = adapter
        self.config = config
        self.nodes = nodes
        self.energies = [adapter.energy(x) for x in nodes]
        self.segments = [
            _measure_segment(adapter, nodes[k], nodes[k + 1]) for k in range(len(nodes) - 1)
        ]
        self.counters = {
            "inserted": 0,
            "pruned": 0,
            "step_rejections": 0,
            "guard_rejections": 0,
            "polish_accepted": 0,
            "polish_rejected": 0,
        }

    def level(self) -> float:
        seg_max = max(s.value for s in self.segments)
        return max(max(self.energies), seg_max)

    def node_argmax(self) -> int:
        return int(np.argmax(self.energies))

    def _remeasure_around(self, k: int):
        if k - 1 >= 0:
            self.segments[k - 1] = _measure_segment(
                self.adapter, self.nodes[k - 1], self.nodes[k]
            )
        if k < len(self.segments):
            self.segments[k] = _measure_segment(
                self.adapter, self.nodes[k], self.nodes[k + 1]
            )

    def insert(self, j: int) -> int:
        """Materialize segment ``j``'s measured crest as a node; returns its index."""
        th = self.segments[j].theta
        new = (1.0 - th) * self.nodes[j] + th * self.nodes[j + 1]
        self.nodes.insert(j + 1, new)
        self.energies.insert(j + 1, self.adapter.energy(new))
        self.segments.pop(j)
        self.segments.insert(
            j, _measure_segment(self.adapter, self.nodes[j], self.nodes[j + 1])
        )
        self.segments.insert(
            j + 1, _measure_segment(self.adapter, self.nodes[j + 1], self.nodes[j + 2])
        )
        self.counters["inserted"] += 1
        return j + 1

    def try_prune(self, protected: set[int]) -> bool:
        """Drop one low node whose removal keeps the path maximum in check."""
        level = self.level()
        order = sorted(
            (k for k in range(1, len(self.nodes) - 1) if k not in protected),
            key=lambda k: self.energies[k],
        )
        for k in order:
            bridge = _measure_segment(self.adapter, self.nodes[k - 1], self.nodes[k + 1])
            if max(bridge.value, self.energies[k - 1], self.energies[k + 1]) <= level:
                self.nodes.pop(k)
                self.energies.pop(k)
                self.segments.pop(k)
                self.segments[k - 1] = bridge
                self.counters["pruned"] += 1
                return True
        return False

    def refine_to_crest(self):
        """Insert segment crests until no interior exceeds the node maximum."""
        while len(self.nodes) < self.config.max_path_nodes:
            j = int(np.argmax([s.value for s in self.segments]))
            if self.segments[j].value <= max(self.energies):
                return
            self.insert(j)

    def replace_node(self, k: int, new_vals: np.ndarray, new_energy: float, guard_level: float) -> bool:
        """Single-writer update of node ``k`` guarded by the path maximum.

        The update is committed only if the re-measured adjacent segments keep
        the polyline maximum at or below ``guard_level``.
        """
        old_node = self.nodes[k]
        old_energy = self.energies[k]
        old_left = self.segments[k - 1] if k - 1 >= 0 else None
        old_right = self.segments[k] if k < len(self.segments) else None
        self.nodes[k] = new_vals
        self.energies[k] = new_energy
        self._remeasure_around(k)
        if self.level() <= guard_level:
            return True
        self.nodes[k] = old_node
        self.energies[k] = old_energy
        if old_left is not None:
            self.segments[k - 1] = old_left
        if old_right is not None:
            self.segments[k] = old_right
        self.counters["guard_rejections"] += 1
        return False


def _run_path(adapter, e_vals: np.ndarray, config: MpaConfig, initial_nodes=None):
    """One full min-max run; returns the raw ingredients of a SolveResult."""
    if initial_nodes is None:
        k = config.path_nodes
        weights = np.linspace(0.0, 1.0, k)
        nodes = [w * e_vals for w in weights]
    else:
        nodes = [np.array(x, dtype=np.float64) for x in initial_nodes]
    nodes[0] = np.zeros_like(e_vals)
    nodes[-1] = e_vals.copy()
    frozen_zero = nodes[0].copy()
    frozen_e = nodes[-1].copy()

    engine = _PathEngine(adapter, nodes, config)
    engine.refine_to_crest()
    e_xnorm = adapter.xnorm(e_vals)
    cap_norm = 0.5 * max(1.0, e_xnorm)

    trace: list[tuple[float, float, float]] = []
    converged = False
    stagnation = 0
    reason = "max_iters"
    iterations = 0
    work = engine.node_argmax()

    for it in range(1, config.max_iters + 1):
        iterations = it
        # Crest selection: segments first, then nodes (smallest index on ties).
        seg_values = [s.value for s in engine.segments]
        jseg = int(np.argmax(seg_values))
        work = engine.node_argmax()
        if seg_values[jseg] > engine.energies[work]:
            if len(engine.nodes) >= config.max_path_nodes:
                protected = {0, len(engine.nodes) - 1, jseg, jseg + 1}
                if engine.try_prune(protected):
                    seg_values = [s.value for s in engine.segments]
                    jseg = int(np.argmax(seg_values))
            if len(engine.nodes) < config.max_path_nodes and seg_values[jseg] > max(
                engine.energies
            ):
                work = engine.insert(jseg)
            else:
                work = engine.node_argmax()

        u = engine.nodes[work]
        g, gnorm = adapter.grad(u)
        xnorm_u = adapter.xnorm(u)
        rw = (1.0 + xnorm_u) * gnorm
        level = engine.level()
        trace.append((level, gnorm, rw))

        if rw <= config.tol:
            converged = True
            reason = "tolerance"
            break

        # Newton endgame: refine the crest node in place when already close.
        if config.polish and rw <= config.polish_trigger * (1.0 + abs(level)):
            polished, ok = adapter.newton(u)
            if ok:
                ep = adapter.energy(polished)
                slack = 1e-9 * (1.0 + abs(level))
                nontrivial = adapter.xnorm(polished) > 1e-8 * max(1.0, e_xnorm)
                if ep <= level + slack and nontrivial and engine.replace_node(
                    work, polished, ep, level + slack
                ):
                    engine.counters["polish_accepted"] += 1
                    stagnation = 0
                    continue
            engine.counters["polish_rejected"] += 1

        # Backtracking descent on the single crest node.
        g_xnorm = adapter.xnorm(g)
        step = 1.0 if g_xnorm == 0.0 else min(1.0, cap_norm / g_xnorm)
        accepted = False
        while step >= config.step_floor:
            cand = u - step * g
            ec = adapter.energy(cand)
            if ec <= engine.energies[work] - config.armijo_c1 * step * gnorm**2:
                if engine.replace_node(work, cand, ec, level):
                    accepted = True
                    break
            else:
                engine.counters["step_rejections"] += 1
            step *= 0.5
        if accepted:
            stagnation = 0
        else:
            stagnation += 1
            if stagnation >= 3:
                reason = "stagnation"
                break

    if not np.array_equal(engine.nodes[0], frozen_zero) or not np.array_equal(
        engine.nodes[-1], frozen_e
    ):
        raise ConvergenceError("path endpoints moved; single-writer contract broken")

    work = engine.node_argmax()
    u = engine.nodes[work]
    g, gnorm = adapter.grad(u)
    xnorm_u = adapter.xnorm(u)
    rw = (1.0 + xnorm_u) * gnorm
    level = engine.energies[work]
    diagnostics = {
        "reason": reason,
        "path_nodes_final": len(engine.nodes),
        "polyline_level": engine.level(),
        "counters": engine.counters,
        "crest_index": work,
    }
    return u, level, gnorm, rw, xnorm_u, iterations, converged, tuple(trace), diagnostics


def _result_from_run(grid, run, metric: str) -> SolveResult:
    u, level, gnorm, rw, xnorm_u, iterations, converged, trace, diagnostics = run
    if converged and level <= 0.0:
        raise ConvergenceError(
            f"converged to a nonpositive level {level:.6g}; the path collapsed "
            "through the barrier, which contradicts the certified geometry"
        )
    return SolveResult(
        u=GridFunction(grid, u),
        level=level,
        residual=gnorm,
        residual_weighted=rw,
        iterations=iterations,
        converged=converged,
        metric=metric,
        norm_x=xnorm_u,
        trace=trace,
        diagnostics=diagnostics,
    )


def _warm_nodes(e_vals: np.ndarray, guess: np.ndarray, count: int) -> list[np.ndarray]:
    """Polyline through a previous solution: 0 -> guess -> e."""
    half = max(count // 2, 2)
    first = [w * guess for w in np.linspace(0.0, 1.0, half + 1)]
    second = [
        guess + w * (e_vals - guess) for w in np.linspace(0.0, 1.0, count - half)[1:]
    ]
    return first + second


def mpa_solve(
    spec: ProblemSpec,
    setup: MountainPassSetup,
    config: MpaConfig | None = None,
    initial_guess: GridFunction | None = None,
) -> SolveResult:
    """Min-max solve on the line; see the module docstring for the algorithm."""
    if config is None:
        config = MpaConfig()
    if setup.e.grid != spec.grid:
        raise DomainError("setup endpoint does not live on the spec's grid")
    adapter = _LineAdapter(spec, config)
    e_vals = setup.e.values
    initial = None
    if initial_guess is not None:
        if initial_guess.grid != spec.grid:
            raise DomainError("initial guess does not live on the spec's grid")
        initial = _warm_nodes(e_vals, initial_guess.values, config.path_nodes)

    runs = [_run_path(adapter, e_vals, config, initial_nodes=initial)]
    if config.restarts > 0:
        rng = np.random.default_rng(config.seed)
        weights = np.linspace(0.0, 1.0, config.path_nodes)
        for _ in range(config.restarts):
            wiggle = rng.normal(scale=0.05, size=config.path_nodes)
            nodes = [
                (w + wg * w * (1.0 - w)) * e_vals for w, wg in zip(weights, wiggle)
            ]
            runs.append(_run_path(adapter, e_vals, config, initial_nodes=nodes))

    def rank(run):
        _, level, _, _, _, _, converged, _, _ = run
        return (0 if converged else 1, level)

    best = min(runs, key=rank)
    return _result_from_run(spec.grid, best, config.metric)


def bvp_solve(
    spec: IntervalProblemSpec,
    config: MpaConfig | None = None,
    initial_guess: GridFunction | None = None,
) -> SolveResult:
    """Min-max solve of the Dirichlet interval problem.

    The far endpoint is built by the same doubling scan on an interior bump;
    Dirichlet values stay exactly zero because every path node is a linear
    combination of functions that vanish at the endpoints.
    """
    if config is None:
        config = MpaConfig(metric="h-alpha")
    grid = spec.grid
    center = 0.5 * (grid.lower + grid.upper)
    tau = 0.375 * (grid.upper - grid.lower)
    vals = np.zeros((grid.num_points, spec.n))
    vals[:, 0] = _bump_profile(grid.nodes, center, tau)
    vals[0] = 0.0
    vals[-1] = 0.0
    adapter = _IntervalAdapter(spec, config)
    sigma = 1.0
    while adapter.energy(sigma * vals) >= 0.0:
        sigma *= 2.0
        if sigma > 2.0**60:
            raise GeometryError(
                "no negative-energy endpoint within the doubling cap on the interval"
            )
    e_vals = sigma * vals
    initial = None
    if initial_guess is not None:
        if initial_guess.grid != grid:
            raise DomainError("initial guess does not live on the interval grid")
        initial = _warm_nodes(e_vals, initial_guess.values, config.path_nodes)
    run = _run_path(adapter, e_vals, config, initial_nodes=initial)
    return _result_from_run(grid, run, "interval-stiffness")
