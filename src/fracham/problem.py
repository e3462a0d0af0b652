"""Concrete potential and nonlinearity families, with assumption validators.

Potentials are scalar profiles ``l(t)`` promoted to diagonal matrices.  The
shipped family is a capped squared distance to a well ``[-varrho, varrho]``:

    l(t) = min(cap, (dist(t, [-varrho, varrho]) / delta)^2),

which vanishes exactly on the closed well, is continuous and nonnegative, and
has the closed-form sublevel set ``{l < c} = (-varrho - delta sqrt(c),
varrho + delta sqrt(c))`` whenever ``c < cap``.

Nonlinearities are radial in ``u``: ``W(t, u) = g(t) * w(|u|)`` with a
strictly positive bounded weight ``g``.  Two families ship:

* ``pure_power``: ``w(r) = r^p`` with ``p > 2``;
* ``oscillatory``: ``w(r) = r^p + (p-2) r^(p-eps) sin^2(r^eps / eps)``,
  superquadratic but with an oscillating lower-order term that makes the
  classical monotonicity-type conditions fail while the weaker defect
  inequality (the ``(|grad W| / |u|)^sigma <= C0 * H`` bound with
  ``sigma = (p - eps)/(p - 2)``) still holds.

The defect function ``H(t, u) = (1/2) <grad W, u> - W`` is computed literally
from the gradient and value, so identities built on it hold to round-off.

Validators check the structural hypotheses numerically on documented sample
grids.  Asymptotic statements (vanishing slope at zero, superquadratic
growth) cannot be proved by sampling; their checks verify monotone trends
across decades and are labeled "consistent" rather than "proved".
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .errors import DomainError

__all__ = [
    "PotentialSpec",
    "NonlinearitySpec",
    "default_potential",
    "default_nonlinearity",
    "validate_potential",
    "weight_values",
    "w_values",
    "grad_w_values",
    "h_values",
    "calibrate_growth_constant",
    "validate_nonlinearity",
]

_SEED = 20260816  # the verifiers' default seed, and the config's


@dataclasses.dataclass(frozen=True)
class PotentialSpec:
    """Capped squared-distance potential profile.

    ``kind`` selects the matrix structure: ``scalar`` means ``l(t) * I``;
    ``diagonal`` scales component ``i`` by ``diag_scales[i] >= 1`` so the
    lower bound ``(L(t)u, u) >= l(t) |u|^2`` is kept.
    """

    varrho: float
    delta: float
    cap: float
    c: float
    kind: str = "scalar"
    diag_scales: tuple[float, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "diag_scales", tuple(self.diag_scales))  # a config gives a list
        if not (self.varrho > 0 and self.delta > 0 and self.cap > 0):
            raise DomainError("varrho, delta and cap must all be positive")
        if not (0.0 < self.c < self.cap):
            raise DomainError(
                f"threshold c must lie in (0, cap) so the sublevel set is bounded; "
                f"got c={self.c}, cap={self.cap}"
            )
        if self.kind not in ("scalar", "diagonal"):
            raise DomainError(f"unknown potential kind {self.kind!r}")
        if self.kind == "diagonal":
            if not self.diag_scales:
                raise DomainError("diagonal kind requires diag_scales")
            if any(s < 1.0 for s in self.diag_scales):
                raise DomainError("diag_scales must all be >= 1 to preserve the lower bound")
        elif self.diag_scales:
            raise DomainError(f"diag_scales is read only by the diagonal kind, not {self.kind!r}")

    def check_components(self, n: int):
        """Raise unless the potential acts on ``n`` components."""
        if self.kind == "diagonal" and len(self.diag_scales) != n:
            raise DomainError(
                f"diag_scales has {len(self.diag_scales)} entries for n={n} components"
            )

    def profile(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=np.float64)
        dist = np.maximum(np.abs(t) - self.varrho, 0.0)
        return np.minimum(self.cap, (dist / self.delta) ** 2)

    def sublevel_measure(self) -> float:
        """Lebesgue measure of ``{t : l(t) < c}``, in closed form."""
        return 2.0 * self.varrho + 2.0 * self.delta * math.sqrt(self.c)

    def diagonal(self, t, n: int) -> np.ndarray:
        """Profile as per-component diagonal values, shape ``(len(t), n)``."""
        self.check_components(n)
        base = self.profile(t)[:, None]
        if self.kind == "scalar":
            return np.repeat(base, n, axis=1)
        return base * np.asarray(self.diag_scales)[None, :]


# validate_potential samples the profile at this many points on [-20, 20].
_CHECK_HALFWIDTH = 20.0
_CHECK_POINTS = 20001


def default_potential() -> PotentialSpec:
    return PotentialSpec(varrho=0.4, delta=0.05, cap=6.0, c=1.5)


def validate_potential(spec: PotentialSpec, c_infinity: float) -> dict:
    """Numeric checks of the potential hypotheses.

    Verifies nonnegativity on a fine grid, exact vanishing on the closed
    well, a nonempty finite zero interval, the sublevel measure (closed
    form cross-checked by quadrature of the indicator), and the smallness
    condition ``meas{l<c} < 1/c_infinity^2``, reported as ``admissible``.
    """
    t = np.linspace(-_CHECK_HALFWIDTH, _CHECK_HALFWIDTH, _CHECK_POINTS)
    vals = spec.profile(t)
    nonneg = bool(np.all(vals >= 0.0))
    inside = np.linspace(-spec.varrho, spec.varrho, 101)
    zero_on_well = bool(np.all(spec.profile(inside) == 0.0))
    just_outside = spec.varrho + spec.delta * np.array([1e-6, 1e-3, 1.0])
    positive_outside = bool(np.all(spec.profile(just_outside) > 0.0)) and bool(
        np.all(spec.profile(-just_outside) > 0.0)
    )
    meas_closed = spec.sublevel_measure()
    h = t[1] - t[0]
    meas_quad = float(h * np.sum(vals < spec.c))
    meas_consistent = abs(meas_quad - meas_closed) <= 4.0 * h
    bound = 1.0 / c_infinity**2
    admissible = bool(meas_closed < bound)
    passed = nonneg and zero_on_well and positive_outside and meas_consistent and admissible
    return {
        "nonnegative": nonneg,
        "zero_on_well": zero_on_well,
        "zero_set_is_finite_interval": positive_outside,
        "meas_lc_closed_form": meas_closed,
        "meas_lc_quadrature": meas_quad,
        "meas_consistent": meas_consistent,
        "admissible": admissible,
        "smallness_bound": bound,
        "passed": bool(passed),
    }


@dataclasses.dataclass(frozen=True)
class NonlinearitySpec:
    """Radial superquadratic nonlinearity with a bounded positive weight.

    ``c0`` and ``radius`` parametrize the defect inequality checked by the
    validator; ``p = 2`` is accepted at construction so the validators can
    exhibit its failure, but anything below 2 is rejected outright.
    """

    kind: str
    p: float
    epsilon: float = 0.0
    weight_base: float = 1.0
    weight_amp: float = 0.0
    weight_freq: float = 0.0
    c0: float | None = None
    radius: float = 1.0

    def __post_init__(self):
        if self.kind not in ("pure_power", "oscillatory"):
            raise DomainError(f"unknown nonlinearity kind {self.kind!r}")
        if self.p < 2.0:
            raise DomainError(f"exponent p must be >= 2, got {self.p}")
        if self.kind == "oscillatory":
            if not (0.0 < self.epsilon < self.p - 2.0):
                raise DomainError(
                    f"oscillatory family needs 0 < epsilon < p - 2, got "
                    f"epsilon={self.epsilon}, p={self.p}"
                )
        elif self.epsilon != 0.0:
            raise DomainError(f"epsilon is read only by the oscillatory family, not {self.kind!r}")
        if self.weight_base - abs(self.weight_amp) <= 0.0:
            raise DomainError("weight must stay strictly positive: need base > |amp|")
        if self.radius <= 0.0:
            raise DomainError("radius must be positive")

    @property
    def resolved_sigma(self) -> float:
        """The defect exponent; ``p/(p-2)`` would fail at the oscillatory family's troughs."""
        if self.p == 2.0:
            return math.inf
        if self.kind == "oscillatory":
            return (self.p - self.epsilon) / (self.p - 2.0)
        return self.p / (self.p - 2.0)

    @property
    def growth_exponent(self) -> float:
        """The exponent ``2 sigma/(sigma - 1)`` used by the geometry bounds."""
        s = self.resolved_sigma
        if math.isinf(s):
            return 2.0
        return 2.0 * s / (s - 1.0)

    @property
    def weight_min(self) -> float:
        return self.weight_base - abs(self.weight_amp)

    @property
    def weight_max(self) -> float:
        return self.weight_base + abs(self.weight_amp)


def default_nonlinearity() -> NonlinearitySpec:
    return NonlinearitySpec(kind="pure_power", p=4.0, c0=20.0, radius=1.0)


def default_oscillatory() -> NonlinearitySpec:
    return NonlinearitySpec(kind="oscillatory", p=3.0, epsilon=0.5, c0=160.0, radius=1.0)


def weight_values(spec: NonlinearitySpec, t) -> np.ndarray:
    t = np.asarray(t, dtype=np.float64)
    return spec.weight_base + spec.weight_amp * np.cos(spec.weight_freq * t)


def _power(mag: np.ndarray, p: float) -> np.ndarray:
    """``mag ** p`` for ``mag >= 0`` and ``p > 0``, with the entries that underflow set to ``0.0``.

    Below ``2**(-1080/p)`` the exact power is under 1/64 of the smallest subnormal, so
    ``pow`` returns ``+0.0`` there, by a slow path.  NaN and inf keep their ``**``.
    """
    if not p > 0.0:
        raise DomainError(f"_power needs an exponent above 0, got {p}")
    keep = ~(mag < 2.0 ** (-1080.0 / p))
    if keep.all():
        return mag**p
    return np.power(mag, p, out=np.zeros_like(mag), where=keep)


def _radial_value(spec: NonlinearitySpec, r: np.ndarray) -> np.ndarray:
    """Unweighted radial profile ``w(r)``."""
    p, e = spec.p, spec.epsilon
    rp = _power(r, p)
    if spec.kind == "pure_power":
        return rp
    return rp + (p - 2.0) * _power(r, p - e) * np.sin(r**e / e) ** 2


def _segment_power_rows(spec: NonlinearitySpec, g: np.ndarray, A: np.ndarray, B: np.ndarray):
    """Rows ``g s_k``, ``W(t, (1 - th) A + th B) = sum_k g s_k th^k (1 - th)^(p - k)``, or ``None``.

    ``|u|^2`` is quadratic in ``th``, so only a pure power with even ``p`` is a polynomial.
    """
    if spec.kind != "pure_power" or spec.p % 2.0 != 0.0:
        return None
    q = (_rowdot(A, A), 2.0 * _rowdot(A, B), _rowdot(B, B))
    rows = [g]
    for _ in range(int(spec.p) // 2):  # times |u|^2, coefficient by coefficient
        rows = [sum(rows[k - j] * q[j] for j in range(3) if 0 <= k - j < len(rows))
                for k in range(len(rows) + 2)]
    return rows


def _radial_slope_factor(spec: NonlinearitySpec, r: np.ndarray) -> np.ndarray:
    """``w'(r)/r``, the factor multiplying ``u`` in the gradient.

    All exponents appearing here are nonnegative for the admissible parameter
    ranges, so the formulas extend continuously to ``r = 0``.
    """
    p = spec.p
    rp = r ** (p - 2.0)
    if spec.kind == "pure_power":
        return p * rp
    e = spec.epsilon
    theta = r**e / e
    s2 = np.sin(theta) ** 2
    sin2t = np.sin(2.0 * theta)
    return p * rp + (p - 2.0) * ((p - e) * r ** (p - e - 2.0) * s2 + rp * sin2t)


def _radial_second(spec: NonlinearitySpec, r: np.ndarray) -> np.ndarray:
    """``w''(r)``."""
    p = spec.p
    rp = r ** (p - 2.0)
    if spec.kind == "pure_power":
        return p * (p - 1.0) * rp
    e = spec.epsilon
    theta = r**e / e
    s2 = np.sin(theta) ** 2
    sin2t = np.sin(2.0 * theta)
    cos2t = np.cos(2.0 * theta)
    return p * (p - 1.0) * rp + (p - 2.0) * (
        (p - e) * (p - e - 1.0) * r ** (p - e - 2.0) * s2
        + (p - e) * rp * sin2t
        + (p - 1.0) * rp * sin2t
        + 2.0 * r ** (p - 2.0 + e) * cos2t
    )


def _rowdot(U: np.ndarray, V: np.ndarray) -> np.ndarray:
    """``(u, v)`` over the trailing axis, accumulated one component at a time.

    For fewer than eight components this adds in the order of
    ``np.sum(U * V, axis=-1)``, so it gives the same bits, without that
    strided reduction over a short trailing axis.
    """
    acc = U[..., 0] * V[..., 0]
    for k in range(1, U.shape[-1]):
        acc += U[..., k] * V[..., k]
    return acc


def _magnitude(U: np.ndarray) -> np.ndarray:
    return np.sqrt(_rowdot(U, U))


# The ``_weighted_*`` kernels take the weight values ``g(t)`` themselves, so a
# caller that evaluates on one grid many times computes them once; the public
# functions below compute them per call and give the same bits.  They are
# pointwise, so a caller may pass any run of nodes with its weights and get
# those nodes' values bit for bit, as the interval's residual does on its
# degrees of freedom; the operators' ``wint``/``wslope`` take the whole grid.


def _weighted_w(spec: NonlinearitySpec, g: np.ndarray, U: np.ndarray) -> np.ndarray:
    return g * _radial_value(spec, _magnitude(U))


def _weighted_grad_w(spec: NonlinearitySpec, g: np.ndarray, U: np.ndarray) -> np.ndarray:
    factor = g * _radial_slope_factor(spec, _magnitude(U))
    return factor[..., None] * U


def _weighted_slope(spec: NonlinearitySpec, g: np.ndarray, U: np.ndarray, D: np.ndarray) -> np.ndarray:
    """``(grad W(t, u), d)`` pointwise: the derivative of ``W`` along ``D``."""
    return g * _radial_slope_factor(spec, _magnitude(U)) * _rowdot(U, D)


def _hessian_operator(spec: NonlinearitySpec, g: np.ndarray, U: np.ndarray):
    """``V -> W''(u) V``, with every term that depends on ``u`` alone computed once.

    For radial ``W``, the Hessian is ``(w'/r) I + (w'' - w'/r) uu^T/r^2``;
    the rank-one coefficient vanishes at ``r = 0`` for superquadratic
    families, so the origin is handled by masking.
    """
    r = _magnitude(U)
    factor = g * _radial_slope_factor(spec, r)
    mask = r > 0.0
    coeff = (np.where(mask, (g * _radial_second(spec, r) - factor) / np.where(mask, r, 1.0) ** 2,
                      0.0) if np.any(mask) else None)

    def action(V: np.ndarray) -> np.ndarray:
        out = factor[..., None] * V
        if coeff is not None:
            out = out + (coeff * _rowdot(U, V))[..., None] * U
        return out

    return action


def w_values(spec: NonlinearitySpec, t, U: np.ndarray) -> np.ndarray:
    """Vectorized ``W(t, u)`` for ``U`` of shape ``(..., n)``."""
    return _weighted_w(spec, weight_values(spec, t), U)


def grad_w_values(spec: NonlinearitySpec, t, U: np.ndarray) -> np.ndarray:
    """Vectorized gradient ``(w'(|u|)/|u|) g(t) u``, shape ``(..., n)``."""
    return _weighted_grad_w(spec, weight_values(spec, t), U)


def h_values(spec: NonlinearitySpec, t, U: np.ndarray) -> np.ndarray:
    """Defect ``H = (1/2) <grad W, u> - W``, computed literally."""
    g = grad_w_values(spec, t, U)
    return 0.5 * np.sum(g * U, axis=-1) - w_values(spec, t, U)


def calibrate_growth_constant(spec: NonlinearitySpec, eps: float) -> float:
    """Smallest observed ``C_eps`` with ``|grad W| <= eps |u| + C_eps |u|^(pg-1)``.

    ``pg`` is the family's growth exponent; the maximization runs over a wide
    log grid of radii at the worst-case weight value.
    """
    if eps <= 0.0:
        raise DomainError("eps must be positive")
    pg = spec.growth_exponent
    r = np.logspace(-8, 3, 1200)
    slope = spec.weight_max * _radial_slope_factor(spec, r) * r
    num = slope - eps * r
    c = np.max(num / r ** (pg - 1.0))
    return float(max(c, 0.0))


def _decade_trend(r: np.ndarray, vals: np.ndarray, increasing: bool) -> tuple[bool, dict]:
    """Whether per-decade extrema of ``vals`` trend monotonically; ``r`` ascends."""
    decades = np.floor(np.log10(r)).astype(int)
    starts = np.flatnonzero(np.diff(decades, prepend=decades[0] - 1))
    keys = decades[starts]
    marks = np.maximum.reduceat(vals, starts).tolist()
    diffs = np.diff(marks)
    ok = bool(np.all(diffs > 0)) if increasing else bool(np.all(diffs < 0))
    return ok, {"decades": [int(k) for k in keys], "marks": marks}


def validate_nonlinearity(
    spec: NonlinearitySpec,
    sample_budget: int = 20000,
    seed: int = _SEED,
) -> dict:
    """Numeric checks of the nonlinearity hypotheses.

    Checks, on documented grids and ``sample_budget`` random points:
    vanishing relative slope at zero, nonnegativity of ``W`` and ``H``,
    superquadratic growth, and the defect inequality with its configured
    constants (the tightest observed constant is reported next to the
    configured one).  Growth constants ``C_eps`` for eps in {0.1, 0.01} are
    calibrated and reported.  A ``sample_budget`` below 1 raises :class:`DomainError`.
    """
    if sample_budget < 1:
        raise DomainError(f"need at least one sample, got {sample_budget}")
    rng = np.random.default_rng(seed)
    checks: dict[str, dict] = {}

    # Small-amplitude slope: |grad W|/|u| must decay toward zero radius.
    r_small = np.logspace(-6, -1, 101)
    slope_ratio = spec.weight_max * _radial_slope_factor(spec, r_small)
    trend_ok, trend = _decade_trend(r_small, slope_ratio, increasing=True)
    vanish_ok = bool(slope_ratio[0] <= 1e-3 * max(slope_ratio[-1], 1e-300))
    checks["small_slope_vanishes"] = {
        "passed": trend_ok and vanish_ok,
        "consistent_with": "grad W = o(|u|) near u = 0",
        "trend": trend,
        "witness": None if trend_ok and vanish_ok else {"r": float(r_small[0]), "ratio": float(slope_ratio[0])},
    }

    # Sign conditions on random (t, u) pairs.
    n_dim = int(rng.integers(1, 3))
    radii = 10.0 ** rng.uniform(-6, 3, size=sample_budget)
    dirs = rng.normal(size=(sample_budget, n_dim))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    U = radii[:, None] * dirs
    tpts = rng.uniform(-20.0, 20.0, size=sample_budget)
    signs = (("w_nonnegative", w_values(spec, tpts, U)), ("h_nonnegative", h_values(spec, tpts, U)))
    for name, vals in signs:
        scale = float(max(np.max(np.abs(vals)), 1.0))
        ok = bool(np.min(vals) >= -1e-12 * scale)
        i = int(np.argmin(vals))
        checks[name] = {
            "passed": ok,
            "min_value": float(np.min(vals)),
            "witness": None if ok else {"t": float(tpts[i]), "u": U[i].tolist()},
        }

    # Superquadratic growth: W/|u|^2 must climb across decades.  Both grids
    # beyond the radius end three decades past it, and at 1e3 at the least.
    r_end = 3.0 + math.log10(max(spec.radius, 1.0))
    r_big = np.logspace(math.log10(max(spec.radius, 1e-3)), r_end, 301)
    growth = spec.weight_min * _radial_value(spec, r_big) / r_big**2
    g_trend_ok, g_trend = _decade_trend(r_big, growth, increasing=True)
    g_ratio_ok = bool(growth[-1] >= 100.0 * max(growth[0], 1e-300))
    checks["superquadratic_growth"] = {
        "passed": g_trend_ok and g_ratio_ok,
        "consistent_with": "W/|u|^2 -> infinity",
        "trend": g_trend,
        "witness": None
        if g_trend_ok and g_ratio_ok
        else {"r_head": float(r_big[0]), "r_tail": float(r_big[-1]), "ratio": float(growth[-1] / max(growth[0], 1e-300))},
    }

    # Defect inequality beyond the configured radius.
    sigma = spec.resolved_sigma
    if math.isinf(sigma):
        checks["defect_inequality"] = {
            "passed": False,
            "observed_c0": None,
            "configured_c0": spec.c0,
            "witness": {"reason": "H vanishes identically at p = 2; no finite constant exists"},
        }
    else:
        r_def = np.logspace(math.log10(spec.radius), r_end, 400)
        slope = _radial_slope_factor(spec, r_def) * r_def
        hvals = 0.5 * slope * r_def - _radial_value(spec, r_def)
        ratio = spec.weight_max ** (sigma - 1.0) * slope**sigma / (hvals * r_def**sigma)
        observed = float(np.max(ratio))
        i_worst = int(np.argmax(ratio))
        ok = spec.c0 is not None and spec.c0 >= observed
        checks["defect_inequality"] = {
            "passed": bool(ok),
            "observed_c0": observed,
            "configured_c0": spec.c0,
            "sigma": sigma,
            "witness": None if ok else {"r": float(r_def[i_worst]), "ratio": observed},
        }

    c_eps = {str(e): calibrate_growth_constant(spec, e) for e in (0.1, 0.01)}
    return {
        "family": spec.kind,
        "p": spec.p,
        "sigma": None if math.isinf(sigma) else sigma,
        "growth_exponent": spec.growth_exponent,
        "checks": checks,
        "c_epsilon": c_eps,
        "passed": all(c["passed"] for c in checks.values()),
    }
