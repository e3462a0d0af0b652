"""Mountain-pass geometry and the path-deformation min-max solver.

The solver realizes ``c = inf over paths from 0 to e of max along the path
of I`` on a polyline whose endpoints ``0`` and ``e`` are frozen.  The
README's overview gives the full account of the geometry, the segment
measurement, the Newton polish and the reported node.  Each iteration:

1. selects the crest: a segment maximum above every node energy is
   inserted as a node; otherwise the highest interior node;
2. stops when the crest's weighted residual ``(1 + ||u||_X) ||I'(u)||`` is
   at most ``tol``;
3. stops with reason ``stagnation`` once the path maximum at the start of
   an iteration has set no new low for three iterations in a row;
4. otherwise polishes the crest by damped Newton (MINRES steps to
   Eisenstat-Walker forcing tolerances) once that residual is small, or
   descends it by an Armijo backtracking step; either is kept only if the
   re-measured adjacent segments keep the path maximum from rising.

A solve is one run, from the start that :func:`_run_path` builds; no node
ever leaves the path.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .errors import ConfigError, ConvergenceError, GeometryError
from .fracops import _edge_to_peak
from .functional import _EPS, IntervalProblemSpec, ProblemSpec, _chunks, _operator, _values
from .grids import GridFunction
from .problem import calibrate_growth_constant
from .spaces import EmbeddingConstants

__all__ = [
    "MpaConfig",
    "MountainPassSetup",
    "SolveResult",
    "estimate_rho_eta",
    "construct_e",
    "ctilde_bound",
    "mpa_solve",
    "bvp_solve",
]

# A segment's coarse scan evaluates this many interior points.
_COARSE = 15
# Crest root searches stop at this relative bracket width, or after
# _ROOT_ITERS evaluations; a segment crest this close to an end is that end.
_ROOT_TOL = 1e-9
_ROOT_ITERS = 60
# The Newton polish starts once the weighted residual is below this fraction
# of 1 + |level|.  Its stop rule on either domain: a tolerance, and a step
# count that is only a backstop (see _newton_polish).
_POLISH_TRIGGER = 3e-2
_NEWTON_TOL = 1e-14
_NEWTON_STEPS = 20
# Forcing terms (Eisenstat & Walker, 1996) of the polish's MINRES solves.
_FORCING = 1e-2
_FORCING_FLOOR = 1e-11
# Ritz values this close relative to the largest are equal (see _hessian_spectrum).
_GHOST_TOL = 1e-12
# Armijo sufficient-decrease constant and the smallest step tried.
_ARMIJO_C1 = 1e-4
_STEP_FLOOR = 1e-12


@dataclasses.dataclass(frozen=True)
class MpaConfig:
    """Solver knobs; defaults match the shipped problem sizes.

    ``path_nodes`` counts the straight path of a cold start that declines
    the Newton start; the default is ``0 -> e/2 -> e``.
    """

    path_nodes: int = 3
    tol: float = 1e-6
    max_iters: int = 400

    def __post_init__(self):
        if self.path_nodes < 3:
            raise ConfigError(
                f"a path needs at least 3 nodes (two frozen endpoints plus one "
                f"movable interior node), got {self.path_nodes}"
            )
        if not (0 < self.tol < 1):
            raise ConfigError(f"tol must lie in (0, 1), got {self.tol}")
        if self.max_iters < 1:
            raise ConfigError(f"max_iters must be at least 1, got {self.max_iters}")


@dataclasses.dataclass(frozen=True, eq=False)
class MountainPassSetup:
    """Certified geometry for one problem instance.

    ``ctilde`` is :func:`ctilde_bound`'s value, the energy of the crest node ``crest_theta * e``.
    """

    psi: GridFunction
    tau: float
    sigma0: float
    e: GridFunction
    rho: float
    eta: float
    epsilon_c: float
    c_eps: float
    ctilde: float
    crest_theta: float

    @property
    def level_bracket(self) -> tuple[float, float]:
        """``[eta, ctilde]`` widened by the tolerances a converged line level is held to."""
        return self.eta - 1e-8, self.ctilde + 1e-6 * (1.0 + abs(self.ctilde))

    def certificates(self) -> dict:
        """The certificate fields that ``bound``, ``solve`` and ``sweep`` all report."""
        return {"ctilde": self.ctilde, "rho": self.rho, "eta": self.eta, "sigma0": self.sigma0}


# The names of the three entries of each ``SolveResult.trace`` row.
_TRACE_COLUMNS = ("level", "residual", "residual_weighted")
# The well reference's solver settings: bvp_solve's default and the bvp table's.
_WELL_CONFIG = MpaConfig(tol=1e-8)


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

    def summary(self) -> dict:
        """Every field :meth:`to_dict` writes except the trace and the values."""
        grid = self.u.grid
        return {
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
        }

    def to_dict(self) -> dict:
        return {
            **self.summary(),
            "trace_columns": list(_TRACE_COLUMNS),
            "trace": [list(row) for row in self.trace],
            "values": self.u.values,
        }


# ---------------------------------------------------------------------------
# Numerical helpers shared by both domains.
# ---------------------------------------------------------------------------


def _illinois_root(f, x0: float, x1: float, f0: float, f1: float) -> float:
    """Root of ``f`` between ``x0`` and ``x1``, where ``f0`` and ``f1`` differ in sign.

    Regula falsi with the Illinois modification: an end kept twice in a row
    has its value halved, so both ends of the bracket move.  Stops once the
    bracket is narrower than ``_ROOT_TOL`` relative to ``1 + |x|``, when the
    secant point hits an end in floating point, or after ``_ROOT_ITERS``
    evaluations, and returns the last point evaluated (``x0`` if none).
    """
    x = x0
    moved = None  # the end replaced by the previous step
    for _ in range(_ROOT_ITERS):
        secant = (x0 * f1 - x1 * f0) / (f1 - f0)
        if not min(x0, x1) < secant < max(x0, x1):
            break
        x = secant
        fx = f(x)
        if fx == 0.0:
            break
        if (fx > 0.0) == (f0 > 0.0):
            x0, f0 = x, fx
            if moved == 0:
                f1 *= 0.5
            moved = 0
        else:
            x1, f1 = x, fx
            if moved == 1:
                f0 *= 0.5
            moved = 1
        if abs(x1 - x0) <= _ROOT_TOL * (1.0 + abs(x)):
            break
    return x


def _slope_crest(slope, best: float, left: float, right: float) -> float:
    """Crest next to the best point of a coarse scan, from the sign of ``slope``.

    The sign of the slope at ``best`` names the rising side.  If the slope
    changes sign between ``best`` and the neighbour on that side, the root
    is returned; otherwise the neighbour itself, for the caller to judge.
    A neighbour at a segment end where the slope is exactly zero, as at the
    zero node, shows no sign: the README's halving towards that end applies.
    """
    s = slope(best)
    if s == 0.0:
        return best
    nb = right if s > 0.0 else left
    snb = slope(nb)
    if snb == 0.0 and nb in (0.0, 1.0):
        end = nb
        while True:
            nb = 0.5 * (best + end)
            snb = slope(nb)
            if snb == 0.0 or (snb > 0.0) != (s > 0.0) or abs(nb - end) <= _ROOT_TOL:
                break
            best, s = nb, snb
    if snb == 0.0 or (snb > 0.0) == (s > 0.0):
        return nb
    return _illinois_root(slope, best, nb, s, snb)


def _doubling_scan(op, node: _Node, failure: str, rho: float = 0.0) -> tuple[float, _Node]:
    """Least ``sigma = 2^k <= 2^60`` with ``I(sigma x) < 0``, ``||sigma x||_X > rho``, and its node; ``x = node.x``."""
    sigma, trial = 1.0, node
    while not (trial.energy < 0.0 and trial.xnorm > rho):
        sigma *= 2.0
        if sigma > 2.0**60:
            raise GeometryError(failure)
        trial = _node(op, sigma * node.x)
    return sigma, trial


def _stationarity(op, node: _Node) -> tuple[float, float, np.ndarray]:
    """Weighted residual ``(1 + ||u||_X) ||g||_X``, ``||g||_X`` and ``g``, the metric representative of ``I'(u)``."""
    g, gnorm = op.gradient(node.x)
    return (1.0 + node.xnorm) * gnorm, gnorm, g


def _newton_polish(op, vals: np.ndarray, counters: dict) -> tuple[np.ndarray, bool, list]:
    """Damped Newton on ``op.residual(u) = 0`` with backtracking, forced and stopped (README).

    Returns the iterate, whether any step was taken and the Lanczos
    tridiagonal of the last MINRES run.
    """
    v = vals.copy()
    r = op.residual(v)
    rn = r0 = float(np.linalg.norm(r))
    improved_any = False
    for _ in range(_NEWTON_STEPS):
        d, tridiagonal = op.newton_step(v, r, max(_FORCING_FLOOR, _FORCING * rn / r0))
        counters["minres_iterations"] += len(tridiagonal)
        if d is None:
            return v, improved_any, tridiagonal
        for t in (0.5**i for i in range(7)):
            cand = v + t * d
            rc = op.residual(cand)
            rcn = float(np.linalg.norm(rc))
            if rcn < (1.0 - 0.25 * t) * rn:
                v, r, rn = cand, rc, rcn
                improved_any = True
                counters["newton_steps"] += 1
                break
        else:
            return v, improved_any, tridiagonal
        vn = float(np.linalg.norm(v))
        if rn <= max(_NEWTON_TOL * (1.0 + vn), _EPS * op.metric_bound * vn):
            break
    return v, improved_any, tridiagonal


def _hessian_spectrum(tridiagonal: list) -> np.ndarray | None:
    """Ritz values ``nu`` of ``(quad W''(u), A)``, descending, from a MINRES run's tridiagonal ``T``.

    ``T``'s eigenvalues ``mu`` approximate those of ``I - A^-1 quad W''(u)``, so ``nu = 1 - mu``;
    ghosts go by the Cullum-Willoughby test (README).  ``None`` below 3 rows or 2 values.
    """
    if len(tridiagonal) < 3:
        return None
    alfa, beta = np.array(tridiagonal).T
    t = np.diag(alfa) + np.diag(beta[:-1], 1) + np.diag(beta[:-1], -1)
    mu, hat = np.linalg.eigvalsh(t), np.linalg.eigvalsh(t[1:, 1:])
    tol = _GHOST_TOL * np.max(np.abs(mu))
    copy = np.r_[False, np.diff(mu) <= tol]  # equal to the value before it
    ghost = ~copy & ~np.r_[copy[1:], False] & np.any(np.abs(mu[:, None] - hat) <= tol, axis=1)
    mu = mu[~copy & ~ghost]
    return 1.0 - mu if mu.size > 1 else None


def _newton_start(op, x: np.ndarray, e: _Node, counters: dict) -> tuple[list | None, dict]:
    """The interior nodes ``u, sigma u`` of a start on the Newton-polished ``x``, or ``None``.

    The gate is the README's.  Also returns the diagnostics that say why.
    """
    v, improved, tridiagonal = _newton_polish(op, x, counters)
    nu = _hessian_spectrum(tridiagonal)
    index = None if nu is None else int(np.sum(nu > 1.0))
    why = ("no Newton step lowered the residual" if not improved
           else "the polished point is trivial" if not (u := _node(op, v)).xnorm > 1e-8 * max(1.0, e.xnorm)
           else "too few Ritz values" if nu is None
           else f"Morse index {index}" if index != 1 else None)
    if why is None:
        try:
            sigma_u = _doubling_scan(op, u, "")[1]
        except GeometryError:
            why = "no negative energy on the ray"
    if why is not None:
        return None, {"newton_start": f"declined: {why}",
                      **dict.fromkeys(("morse_index", "nu_top", "hessian_gap"))}
    return [u, sigma_u], {"newton_start": "taken", "morse_index": index,
                          "nu_top": nu[:2].tolist(), "hessian_gap": float(1.0 - nu[1])}


# ---------------------------------------------------------------------------
# Geometry.
# ---------------------------------------------------------------------------


def estimate_rho_eta(
    epsilon_c: float, c_eps: float, p: float, constants: EmbeddingConstants
) -> tuple[float, float]:
    """Small-sphere radius and level floor from the quadratic lower bound.

    The energy on the sphere of radius ``rho`` in the weighted norm is at
    least ``rho^2 * bracket(rho)`` with

        bracket(rho) = 1/2 (1 - eps/Theta) - (C_eps / p) kappa_p^p rho^(p-2);

    the largest log-grid radius with a positive bracket is returned together
    with its floor ``eta``.
    """
    theta = constants.theta
    if not (0.0 < epsilon_c < theta):
        raise GeometryError(
            f"need 0 < epsilon_c < theta = {theta:.6g}, got epsilon_c = {epsilon_c}"
        )
    if p <= 2.0:
        raise GeometryError(f"growth exponent must exceed 2, got {p}")
    kpp = 1.0 / constants.kappa_neg_power(p)
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


def _bump(spec, center: float, tau: float) -> np.ndarray:
    """Values of ``(1 - ((t - center)/tau)^2)^3``, clipped at zero, in the first component."""
    vals = np.zeros((spec.grid.num_points, spec.n))
    vals[:, 0] = np.clip(1.0 - ((spec.grid.nodes - center) / tau) ** 2, 0.0, None) ** 3
    return vals


def construct_e(
    spec: ProblemSpec, constants: EmbeddingConstants, tau: float | None = None
) -> MountainPassSetup:
    """Build the far endpoint ``e = sigma0 psi``, certify the geometry and measure ``ctilde``.

    ``psi`` is the polynomial bump ``(1 - (t/tau)^2)^3`` in the first
    component, supported strictly inside the potential's zero interval, so
    the potential term of the energy vanishes identically along the ray and
    neither the doubling scan for ``sigma0`` nor ``ctilde`` can depend on
    the parameter.  The sphere bound takes ``epsilon_c = theta / 2`` and the
    growth constant calibrated for it.  It holds only from ``constants.lambda_floor``
    on, so a lower ``spec.lam`` raises :class:`DomainError` before any work.
    """
    constants.check_lambda(spec.lam)
    varrho = spec.potential.varrho
    if tau is None:
        tau = 0.75 * varrho
    if not (0.0 < tau < varrho):
        raise GeometryError(f"need 0 < tau < varrho = {varrho}, got tau = {tau}")
    epsilon_c = 0.5 * constants.theta
    c_eps = calibrate_growth_constant(spec.nonlinearity, epsilon_c)
    rho, eta = estimate_rho_eta(epsilon_c, c_eps, spec.nonlinearity.growth_exponent, constants)

    psi = GridFunction(spec.grid, _bump(spec, 0.0, tau))
    op = _operator(spec)
    if np.any(op.ldiag * psi.values != 0.0):
        raise GeometryError("bump support leaks outside the potential's zero set")

    sigma, e, crest = _far_endpoint(op, psi.values, "no negative-energy endpoint within the "
                                    "doubling cap; the nonlinearity is too weak on this grid", rho)
    return MountainPassSetup(
        psi=psi,
        tau=tau,
        sigma0=sigma,
        e=GridFunction(spec.grid, e.x),
        rho=rho,
        eta=eta,
        epsilon_c=epsilon_c,
        c_eps=c_eps,
        ctilde=crest.value,
        crest_theta=crest.theta,
    )


def _far_endpoint(op, bump: np.ndarray, message: str, rho: float = 0.0) -> tuple[float, _Node, _Segment]:
    """``sigma``, the node of ``e = sigma bump`` and the crest of ``0 -> e``; the scan fails with ``message``."""
    sigma, e = _doubling_scan(op, _node(op, bump), message, rho)
    return sigma, e, _straight_path_crest(op, e)


def _straight_path_crest(op, e: _Node) -> _Segment:
    """The crest of the segment from ``0`` to the node ``e``, measured as any path segment is."""
    return _measure_segment(op, e.zero(), e)


def ctilde_bound(setup: MountainPassSetup, spec: ProblemSpec) -> float:
    """Maximum of the energy on the straight path from ``0`` to ``e = sigma0 psi``.

    That path is admissible, so its maximum upper-bounds the min-max level.
    The bump avoids the potential's support, so the value is the same for
    every parameter value; :func:`construct_e` stores it as ``setup.ctilde``.
    """
    op = _operator(spec)
    return _straight_path_crest(op, _node(op, setup.e.values)).value


# ---------------------------------------------------------------------------
# The path engine.
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True, eq=False)
class _Node:
    """One evaluated path point: a path node, or a crest or candidate that may become one.

    ``x`` holds its values, ``coeffs`` its ``op.transform``, ``q`` its
    quadratic part ``Q(x) = ||x||_X^2``.
    """

    x: np.ndarray
    coeffs: np.ndarray
    q: float
    energy: float

    @property
    def xnorm(self) -> float:
        return math.sqrt(max(self.q, 0.0))

    def zero(self) -> _Node:
        """The node of ``0`` shaped as this one, known without a transform or a ``W`` row."""
        return _Node(np.zeros_like(self.x), np.zeros_like(self.coeffs), 0.0, 0.0)


def _node(op, x: np.ndarray) -> _Node:
    """The node of ``x``, from one transform; its energy is the bits of ``op.energy(x)``."""
    coeffs = op.transform(x)
    q = float(op.transformed_form(x, coeffs, x, coeffs))
    return _Node(x, coeffs, q, float(0.5 * q - op.wint(x)))


@dataclasses.dataclass(frozen=True)
class _Segment:
    theta: float
    node: _Node

    @property
    def value(self) -> float:
        return self.node.energy


def _segment_energies(op, a: np.ndarray, b: np.ndarray, forms, thetas: np.ndarray) -> np.ndarray:
    """Energies at ``(1 - th) a + th b`` from ``forms``, the segment's ``Q(a)``, ``B(a, b)``, ``Q(b)``."""
    qa, qab, qb = forms
    s = 1.0 - thetas
    wint = [op.wint(s[c, None, None] * a + thetas[c, None, None] * b)
            for c in _chunks(len(thetas), a.size)]
    quad = s * s * qa + 2.0 * thetas * s * qab + thetas * thetas * qb
    return 0.5 * quad - np.concatenate(wint)


def _bernstein(coeffs: list[float], th, slope: bool = False):
    """``sum_k coeffs[k] th^k (1 - th)^(deg - k)``, added in order of ``k``, or its ``th``-slope."""
    deg = len(coeffs) - 1
    if slope:
        coeffs, deg = [(k + 1) * coeffs[k + 1] - (deg - k) * coeffs[k] for k in range(deg)], deg - 1
    return sum(c * th**k * (1.0 - th) ** (deg - k) for k, c in enumerate(coeffs))


def _measure_segment(op, a: _Node, b: _Node) -> _Segment:
    """Maximum of the energy along the straight segment from node ``a`` to node ``b``.

    The README's overview gives the full account: the expansion, the
    polynomial of ``W``, the coarse scan and the crest search.  A crest
    within ``_ROOT_TOL`` of an end is that end node, at ``th`` moved inward
    by ``_ROOT_TOL``: one ulp of excess would make the engine insert a
    duplicate of the node.  Any other crest is a node of its own.
    """
    forms = (a.q, float(op.transformed_form(a.x, a.coeffs, b.x, b.coeffs)), b.q)
    qa, qab, qb = forms
    poly = op.wint_bernstein(a.x, b.x)
    d = b.x - a.x

    def wslope(th: float) -> float:
        if poly is None:
            return float(op.wslope((1.0 - th) * a.x + th * b.x, d))
        return float(_bernstein(poly, th, slope=True))

    def slope(th: float) -> float:
        return -(1.0 - th) * qa + (1.0 - 2.0 * th) * qab + th * qb - wslope(th)

    thetas = np.linspace(0.0, 1.0, _COARSE + 2)[1:-1]
    if poly is None:
        energies = _segment_energies(op, a.x, b.x, forms, thetas)
    else:
        energies = 0.5 * _bernstein([qa, 2.0 * qab, qb], thetas) - _bernstein(poly, thetas)
    best = float(thetas[int(np.argmax(energies))])
    cell = thetas[1] - thetas[0]
    lo = max(0.0, best - cell)
    hi = min(1.0, best + cell)
    theta = _slope_crest(slope, best, lo, hi)
    if theta in (lo, hi) and 0.0 < theta < 1.0:  # no root before an interior neighbour
        theta = best
    if theta <= _ROOT_TOL:
        return _Segment(_ROOT_TOL, a)
    if theta >= 1.0 - _ROOT_TOL:
        return _Segment(1.0 - _ROOT_TOL, b)
    return _Segment(theta, _node(op, (1.0 - theta) * a.x + theta * b.x))


class _PathEngine:
    """Polyline of immutable :class:`_Node` records with measured segment maxima.

    Nodes enter through ``insert``, ``splice`` and ``replace_node`` only,
    none leaves, and the two endpoints never change.
    """

    def __init__(self, op, nodes: list[_Node]):
        self.op = op
        self.nodes = list(nodes)
        self.counters = dict.fromkeys((
            "inserted", "step_rejections", "guard_rejections", "polish_accepted", "polish_rejected",
            "newton_steps", "minres_iterations", "segments"), 0)
        self.segments = [self._measure(k, k + 1) for k in range(len(nodes) - 1)]

    @property
    def energies(self) -> list[float]:
        return [node.energy for node in self.nodes]

    def _measure(self, i: int, j: int) -> _Segment:
        """The segment from node ``i`` to node ``j``; counted."""
        seg = _measure_segment(self.op, self.nodes[i], self.nodes[j])
        self.counters["segments"] += 1
        return seg

    def level(self) -> float:
        return max(max(self.energies), max(s.value for s in self.segments))

    def insert(self, j: int) -> int:
        """Insert segment ``j``'s measured crest node; returns its index.

        A crest is inserted only when its value exceeds every node energy, so
        never a crest clamped to an end node, which is that node itself.
        """
        self.nodes.insert(j + 1, self.segments[j].node)
        self.segments[j : j + 1] = [self._measure(j, j + 1), self._measure(j + 1, j + 2)]
        self.counters["inserted"] += 1
        return j + 1

    def splice(self, j: int, nodes: list[_Node], limit: float) -> int | None:
        """Put ``nodes`` after node ``j`` unless one of the new segments rises above ``limit``.

        Returns the offset from ``j`` of the first, in path order, that rose, else ``None``.
        """
        old, self.nodes, new = self.nodes, [*self.nodes[: j + 1], *nodes, *self.nodes[j + 1 :]], []
        for k in range(len(nodes) + 1):
            new.append(self._measure(j + k, j + k + 1))
            if new[-1].value > limit:
                self.nodes = old
                return k
        self.segments[j : j + 1] = new
        return None

    def crest(self) -> int:
        """The interior node to work on.

        The top segment's crest is inserted as a node if it lies above every
        node energy; otherwise the highest interior node is chosen (smallest
        index on ties, for segments too).  The frozen endpoints are never chosen.
        """
        j = int(np.argmax([s.value for s in self.segments]))
        if self.segments[j].value > max(self.energies):
            return self.insert(j)
        return 1 + int(np.argmax(self.energies[1:-1]))

    def replace_node(self, k: int, node: _Node, guard_level: float) -> bool:
        """Single-writer update of interior node ``k`` to ``node``, guarded by the path maximum.

        The update is committed only if the re-measured adjacent segments keep
        the polyline maximum at or below ``guard_level``.
        """
        old = self.nodes[k], self.segments[k - 1 : k + 1]
        self.nodes[k] = node
        self.segments[k - 1 : k + 1] = [self._measure(k - 1, k), self._measure(k, k + 1)]
        if self.level() <= guard_level:
            return True
        self.nodes[k], self.segments[k - 1 : k + 1] = old
        self.counters["guard_rejections"] += 1
        return False


def _run_path(op, e: _Node, config: MpaConfig, x: np.ndarray, warm: bool) -> SolveResult:
    """One full min-max run from ``0`` to the node ``e`` on the operator ``op``.

    Newton first polishes ``x``: a warm start's guess, or the crest of
    ``0 -> e``, which the caller measured.  A start that :func:`_newton_start`
    takes runs on ``0 -> u -> sigma u -> e``, any other on ``0 -> x -> e``
    when ``warm``, else on ``config.path_nodes`` straight nodes.  A taken
    start whose ``sigma u -> e`` rises above ``I(u)`` is first closed in the
    negative-energy cone: ``R sigma u, R e`` go before ``e`` (README).
    """
    counters = {"newton_steps": 0, "minres_iterations": 0}
    inner, start = _newton_start(op, x, e, counters)
    if inner is None:
        inner = [_node(op, v) for v in ([x] if warm else [
            w * e.x for w in np.linspace(0.0, 1.0, config.path_nodes)[1:-1]])]
    engine = _PathEngine(op, [e.zero(), *inner, e])
    engine.counters.update(counters)
    if start["newton_start"] == "taken" and engine.segments[2].value > inner[0].energy:
        for r in 2.0 ** np.arange(1, 61):
            if engine.splice(2, [_node(op, r * n.x) for n in (inner[1], e)], inner[0].energy) != 1:
                break  # spliced, or a ray segment rose, as it does for every larger r
    cap_norm = 0.5 * max(1.0, e.xnorm)

    trace: list[tuple[float, float, float]] = []
    converged = False
    reason = "max_iters"
    best, since_best = math.inf, 0  # the lowest level so far; iterations since it was set

    for iterations in range(1, config.max_iters + 1):
        work = engine.crest()
        node = engine.nodes[work]
        rw, gnorm, g = check = _stationarity(op, node)
        level = engine.level()
        trace.append((level, gnorm, rw))

        if rw <= config.tol:
            converged = True
            reason = "tolerance"
            break
        if level < best:
            best, since_best = level, 0
        else:
            since_best += 1
            if since_best >= 3:
                reason = "stagnation"
                break

        # Newton endgame: refine the crest node in place when already close.
        if rw <= _POLISH_TRIGGER * (1.0 + abs(level)):
            vals, ok, _ = _newton_polish(op, node.x, engine.counters)
            if ok:
                polished = _node(op, vals)
                slack = 1e-9 * (1.0 + abs(level))
                nontrivial = polished.xnorm > 1e-8 * max(1.0, e.xnorm)
                if polished.energy <= level + slack and nontrivial and engine.replace_node(
                    work, polished, level + slack
                ):
                    engine.counters["polish_accepted"] += 1
                    continue
            engine.counters["polish_rejected"] += 1

        # Backtracking descent on the single crest node.
        step = min(1.0, cap_norm / gnorm)  # gnorm > 0: a zero gradient met the tolerance
        while step >= _STEP_FLOOR:
            cand = _node(op, node.x - step * g)
            if cand.energy <= engine.nodes[work].energy - _ARMIJO_C1 * step * gnorm**2:
                if engine.replace_node(work, cand, level):
                    break
            else:
                engine.counters["step_rejections"] += 1
            step *= 0.5

    if np.any(engine.nodes[0].x) or engine.nodes[-1] is not e:
        raise ConvergenceError("path endpoints moved; single-writer contract broken")

    # Converged: the node checked last, the path maximum; else the best residual among ties.
    energies = engine.energies
    top = max(energies[1:-1])
    tied = [work] if converged else [k for k in range(1, len(energies) - 1)
                                     if energies[k] >= top - 1e-12 * (1.0 + abs(top))]
    # The node the last iteration checked keeps its check while it is on the path.
    checks = {k: check if engine.nodes[k] is node else _stationarity(op, engine.nodes[k])
              for k in tied}
    work = min(tied, key=lambda k: checks[k][0])
    rw, gnorm, _ = checks[work]
    return SolveResult(
        u=GridFunction(op.spec.grid, engine.nodes[work].x),
        level=energies[work],
        residual=gnorm,
        residual_weighted=rw,
        iterations=iterations,
        converged=converged,
        metric=op.metric,
        norm_x=engine.nodes[work].xnorm,
        trace=tuple(trace),
        diagnostics={
            "reason": reason,
            "path_nodes_final": len(engine.nodes),
            "polyline_level": engine.level(),
            "counters": engine.counters,
            "crest_index": work,
            **start,
        },
    )


def _check_level(run: SolveResult, lo: float, hi: float, where: str) -> SolveResult:
    """``run`` itself, unless it converged to a level outside ``[lo, hi]``."""
    if run.converged and not lo <= run.level <= hi:
        raise ConvergenceError(
            f"converged level {run.level:.9g} {where} lies outside the certified "
            f"bracket [{lo:.9g}, {hi:.9g}]; the path left the admissible class or "
            "collapsed through the barrier"
        )
    return run


def mpa_solve(
    spec: ProblemSpec,
    setup: MountainPassSetup,
    config: MpaConfig | None = None,
    initial_guess: GridFunction | None = None,
) -> SolveResult:
    """Min-max solve on the line; see the module docstring for the algorithm.

    A cold solve starts at ``setup.crest_theta * e``, the crest of ``0 -> e`` (:func:`construct_e`).
    """
    if config is None:
        config = MpaConfig()
    e, warm = _values(setup.e, spec), initial_guess is not None
    x = _values(initial_guess, spec) if warm else setup.crest_theta * e
    op = _operator(spec)
    run = _run_path(op, _node(op, e), config, x, warm)
    run = _check_level(run, *setup.level_bracket, f"at lambda={spec.lam:g}")
    # Box truncation: solutions decay only algebraically, so record how much
    # of the peak is left at the edge of the truncated line.
    diagnostics = {**run.diagnostics, "edge_to_peak": _edge_to_peak(run.u.values)}
    return dataclasses.replace(run, diagnostics=diagnostics)


def bvp_solve(spec: IntervalProblemSpec, config: MpaConfig | None = None) -> SolveResult:
    """Min-max solve of the Dirichlet interval problem, from the straight path.

    The far endpoint is built by the same doubling scan on a bump centred in
    the interval, of half-width three eighths of its length, which is exactly
    zero at both endpoints; Dirichlet values stay exactly zero because every
    path node is a linear combination of functions that vanish there.
    Without a ``config`` it takes the well reference's settings, ``tol`` 1e-8.
    """
    if config is None:
        config = _WELL_CONFIG
    grid = spec.grid
    vals = _bump(spec, 0.5 * (grid.lower + grid.upper), 0.375 * (grid.upper - grid.lower))
    op = _operator(spec)
    _, e, crest = _far_endpoint(
        op, vals, "no negative-energy endpoint within the doubling cap on the interval")
    run = _run_path(op, e, config, crest.node.x, False)
    return _check_level(run, np.nextafter(0.0, 1.0), np.inf, "on the interval")  # a positive level
