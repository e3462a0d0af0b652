"""Norms, weighted inner products, and embedding-constant machinery.

The solution space on the truncated line carries two norms: the base norm

    ||u||_alpha^2 = ||u||_L2^2 + quadratic_form_alpha(u),

and the potential-weighted norm

    ||u||_{X}^2 = quadratic_form_alpha(u) + lambda * integral (L(t) u, u) dt.

A chain of inequalities connects them once the potential's sublevel set
``{l < c}`` is small against the sup-embedding constant ``C_inf`` (the best
constant in ``sup |u| <= C_inf ||u||_alpha``):

* ``sup |u| <= C_inf ||u||_alpha``                                (sup bound)
* ``||u||_L2^2 <= (1/Theta) ||u||_X^2``        for lambda >= lambda_floor
* ``||u||_alpha^2 <= (1 + 1/Theta) ||u||_X^2``           (norm equivalence)
* ``||u||_Lp^p <= kappa_p^p ||u||_X^p``                        (p >= 2)

where ``Theta = (1 - C_inf^2 m)/(C_inf^2 m)``, ``m = meas{l < c}``, and
``lambda_floor = 1/(c C_inf^2 m)``.  :class:`EmbeddingConstants` packages the
numbers; :func:`verify_embeddings` stress-tests every inequality on randomized
samples and fails loudly with the offending sample if one breaks.

``C_inf`` is the grid-sharp constant, which :func:`extremal_profile` attains
(see :func:`c_infinity_grid_sharp`); random samples only test the derived
inequalities, in :func:`verify_embeddings`.  The stress test, like the
campaign's random fields, draws a chunk of samples at a time through
:func:`_fill_samples` (see the README's ``verify`` section).
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .errors import DomainError, EmbeddingViolation
from .fracops import _check_order, _coefficient_form, _form_multipliers, _spectral_form
from .functional import ProblemSpec, _chunks, _operator, _values
from .grids import GridFunction, IntervalGrid, RealLineGrid
from .problem import _SEED, _power

__all__ = [
    "EmbeddingConstants",
    "norm_h_alpha",
    "inner_x_lambda",
    "norm_x_lambda",
    "c_infinity_grid_sharp",
    "extremal_profile",
    "estimate_embedding_constants",
    "verify_embeddings",
    "sample_line_function",
    "sample_interval_function",
]

# EmbeddingConstants.to_dict reports kappa_p for these exponents.
_KAPPA_EXPONENTS = (3.0, 4.0)
# verify_embeddings fails an inequality whose ratio exceeds 1 + _TOLERANCE.
_TOLERANCE = 1e-8
# Nodes of the well reference and of the interval checks of verification.
_WELL_POINTS = 257
_SAFETY = 1.1  # the default factor on the grid-sharp C_inf, here and in the config
# Sample families of each domain (see _fill_samples).
_FAMILIES = {RealLineGrid: 3, IntervalGrid: 2}
# A Gaussian exp(-d^2 / (2 w^2)) is exactly 0.0 in float64 once its exponent
# is below -746, that is past w * sqrt(1492) from its centre.
_GAUSS_REACH = math.sqrt(1492.0)


def _h_alpha_sq(grid: RealLineGrid, alpha: float, vals: np.ndarray) -> np.ndarray:
    """``||u||_alpha^2 = h sum u^2 + |u|_alpha^2`` of ``(N, n)`` values, or of each in a stack."""
    return grid.spacing * np.sum(vals**2, axis=(-2, -1)) + _spectral_form(grid, alpha, vals)


def norm_h_alpha(u: GridFunction, alpha: float) -> float:
    """Base fractional Sobolev norm ``sqrt(||u||_L2^2 + |u|_alpha^2)``."""
    if not isinstance(u.grid, RealLineGrid):
        raise DomainError("norm_h_alpha is defined on real-line grid functions")
    return math.sqrt(_h_alpha_sq(u.grid, _check_order(alpha), u.values))


def inner_x_lambda(u: GridFunction, v: GridFunction, spec: ProblemSpec) -> float:
    """Weighted inner product: fractional part plus ``lambda (L u, v)``."""
    return _operator(spec).form(_values(u, spec), _values(v, spec))


def norm_x_lambda(u: GridFunction, spec: ProblemSpec) -> float:
    return math.sqrt(max(inner_x_lambda(u, u, spec), 0.0))


def c_infinity_grid_sharp(grid: RealLineGrid, alpha: float) -> float:
    """Sharp discrete sup-embedding constant on this grid.

    Cauchy-Schwarz on the discrete Parseval pairing is tight, so the best
    constant in ``max_j |u(t_j)| <= C ||u||_alpha`` over grid functions is
    exactly ``sqrt(sum_k (1 + |w_k|^(2 alpha))^-1 / (N h))``.
    """
    m, _ = _form_multipliers(grid, alpha)
    s = float(np.sum(grid.rfft_parseval_weights / (1.0 + m)))
    return math.sqrt(s / (grid.num_points * grid.spacing))


def extremal_profile(grid: RealLineGrid, alpha: float) -> GridFunction:
    """Grid function achieving :func:`c_infinity_grid_sharp`, peak at center."""
    w = grid.angular_frequencies
    prof = np.fft.ifft(1.0 / (1.0 + np.abs(w) ** (2.0 * alpha))).real
    prof = np.roll(prof, grid.num_points // 2)
    return GridFunction(grid, prof)


def _support(grid: RealLineGrid, c: float, reach: float) -> slice:
    """Nodes with ``|t - c| < reach``, padded by two nodes on each side."""
    h = grid.spacing
    lo = max(math.floor((c - reach + grid.halfwidth) / h) - 2, 0)
    hi = min(math.ceil((c + reach + grid.halfwidth) / h) + 3, grid.num_points)
    return slice(lo, hi)


def _fill_samples(grid, rng: np.random.Generator, slots) -> None:
    """Write a random sample into each ``(row, family)`` of the list ``slots``, in order.

    ``row`` is a writable view of ``grid.num_points`` values; a ``None``
    family is first drawn uniformly from the grid's ``_FAMILIES``, and a
    family outside them raises :class:`DomainError` before any other draw.
    On the line, family 0 mixes 1-3 Gaussians, family 1 mixes 1-3 compactly
    supported polynomial bumps and family 2 is a random band-limited field,
    one ``irfft`` of its own spectrum.  Each bump is evaluated only on the
    nodes where it can be nonzero: outside them the full-grid formula adds
    an exact ``0.0``.  On an interval, family 0 sums 1-4 sine modes and
    family 1 is a Gaussian under ``s (1 - s)``.  Every row is the bits of a
    one-slot loop.
    """
    t = grid.nodes
    families = _FAMILIES[type(grid)]
    line = isinstance(grid, RealLineGrid)
    if line:
        freq = np.abs(grid.rfft_frequencies)
    else:
        s = (t - grid.lower) / (grid.upper - grid.lower)
    for row, family in slots:
        family = int(rng.integers(0, families)) if family is None else family
        if family not in range(families):
            raise DomainError(f"unknown sample family {family}")
        if not line:
            if family == 0:
                row[:] = 0.0
                for mode in range(1, int(rng.integers(1, 5)) + 1):
                    row += rng.normal() * np.sin(np.pi * mode * s)
                row[0] = row[-1] = 0.0
            else:
                c, wdt = rng.uniform(0.2, 0.8), rng.uniform(0.05, 0.4)
                row[:] = s * (1.0 - s) * np.exp(-((s - c) ** 2) / (2.0 * wdt**2)) * rng.normal()
        elif family < 2:
            row[:] = 0.0
            for _ in range(int(rng.integers(1, 4))):
                c = rng.uniform(-0.5 * grid.halfwidth, 0.5 * grid.halfwidth)
                if family == 0:
                    wdt = math.exp(rng.uniform(math.log(0.05), math.log(2.0)))
                    win = _support(grid, c, _GAUSS_REACH * wdt)
                    row[win] += rng.normal() * np.exp(-((t[win] - c) ** 2) / (2.0 * wdt**2))
                else:
                    wdt = math.exp(rng.uniform(math.log(0.1), math.log(3.0)))
                    win = _support(grid, c, wdt)
                    bump = np.maximum(1.0 - ((t[win] - c) / wdt) ** 2, 0.0)
                    row[win] += rng.normal() * bump**3
        else:
            # freq ascends, so the band |w| <= wmax is a prefix of the spectrum.
            nk = int(np.searchsorted(freq, math.exp(rng.uniform(0.0, math.log(50.0))), "right"))
            coeff = np.zeros(freq.size, dtype=np.complex128)
            coeff[:nk] = rng.normal(size=nk) + 1j * rng.normal(size=nk)
            coeff[0] = coeff[0].real
            row[:] = np.fft.irfft(coeff, n=grid.num_points)


def sample_line_function(grid: RealLineGrid, rng: np.random.Generator, family: int) -> np.ndarray:
    """One random scalar sample of line family 0, 1 or 2: one slot of :func:`_fill_samples`."""
    vals = np.empty(grid.num_points)
    _fill_samples(grid, rng, [(vals, family)])
    return vals


def sample_interval_function(
    grid: IntervalGrid, rng: np.random.Generator, family: int
) -> np.ndarray:
    """Random Dirichlet sample on an interval grid (exact zero endpoints)."""
    vals = np.empty(grid.num_points)
    _fill_samples(grid, rng, [(vals, family)])
    return vals


@dataclasses.dataclass(frozen=True)
class EmbeddingConstants:
    """Embedding constants for one (grid, alpha, potential) triple.

    ``c_infinity`` is the gated (safety-inflated) constant used by every
    downstream formula; the raw grid-sharp constant and the safety factor are
    kept alongside so reports can show the margin.  ``theta``,
    ``lambda_floor`` and ``kappa(p)`` are derived from the stored fields.
    Construction fails when the sublevel-measure smallness condition
    ``meas{l<c} < 1/c_infinity^2`` does not hold.
    """

    alpha: float
    c_infinity: float
    c_infinity_raw: float
    safety: float
    meas_lc: float
    c_level: float

    def __post_init__(self):
        if self.c_infinity <= 0 or self.meas_lc <= 0 or self.c_level <= 0:
            raise DomainError("embedding constants must be positive")
        if self.c_infinity**2 * self.meas_lc >= 1.0:
            raise DomainError(
                f"potential is inadmissible: meas{{l<c}} = {self.meas_lc:.6g} but the "
                f"gated embedding constant requires < {1.0 / self.c_infinity**2:.6g}"
            )

    @property
    def theta(self) -> float:
        csq_m = self.c_infinity**2 * self.meas_lc
        return (1.0 - csq_m) / csq_m

    @property
    def lambda_floor(self) -> float:
        return 1.0 / (self.c_level * self.c_infinity**2 * self.meas_lc)

    def kappa_neg_power(self, p: float) -> float:
        """``kappa_p^-p = Theta^{p/2} m^{(p-2)/2}``."""
        return self.theta ** (p / 2.0) * self.meas_lc ** ((p - 2.0) / 2.0)

    def kappa(self, p: float) -> float:
        """Closed-form ``kappa_p``, the ``-1/p`` power of :meth:`kappa_neg_power`."""
        if p < 2:
            raise DomainError(f"kappa_p is defined for p >= 2, got {p}")
        return self.kappa_neg_power(p) ** (-1.0 / p)

    def check_lambda(self, lam: float):
        """Raise :class:`DomainError` if ``lam`` lies below ``lambda_floor`` (to 1e-12 relative)."""
        if lam < self.lambda_floor * (1.0 - 1e-12):
            raise DomainError(
                f"lambda = {lam} is below the admissibility floor {self.lambda_floor:.6g}; "
                "the weighted-norm inequalities are only certified above it"
            )

    def to_dict(self) -> dict:
        return {
            **dataclasses.asdict(self),
            "theta": self.theta,
            "lambda_floor": self.lambda_floor,
            "kappa": {str(p): self.kappa(p) for p in _KAPPA_EXPONENTS},
            "estimated": True,
        }


def estimate_embedding_constants(
    grid: RealLineGrid,
    alpha: float,
    potential,
    safety: float = _SAFETY,
) -> EmbeddingConstants:
    """Grid-sharp ``C_inf`` and the constants built on it.

    The raw constant is the ratio ``max|u| / ||u||_alpha`` on
    :func:`extremal_profile` (one inverse FFT and one norm): a value a grid
    function attains, which the closed form :func:`c_infinity_grid_sharp`
    matches to one ulp.  ``potential`` is a
    :class:`~fracham.problem.PotentialSpec`; its closed-form sublevel measure
    feeds the smallness condition.  The stored ``c_infinity`` is
    ``safety * raw`` so the derived ``theta``, ``kappa_p`` and
    ``lambda_floor`` are all conservative; a ``safety`` below 1 would not be.
    """
    if not safety >= 1.0:
        raise DomainError(f"embedding safety factor must be at least 1, got {safety}")
    prof = extremal_profile(grid, alpha)
    raw = float(np.max(np.abs(prof.values))) / norm_h_alpha(prof, alpha)
    return EmbeddingConstants(
        alpha=alpha,
        c_infinity=safety * raw,
        c_infinity_raw=raw,
        safety=safety,
        meas_lc=potential.sublevel_measure(),
        c_level=potential.c,
    )


def _interval_ratios(
    alpha: float, p: float, u_vals: np.ndarray, du: np.ndarray, grid: IntervalGrid
) -> tuple[tuple[str, float], ...]:
    """``(name, ratio)`` of the two interval embedding inequalities at one p.

    ``du`` is the GL derivative ``B u`` of ``u_vals``, shared by every ``p``.
    """
    length = grid.upper - grid.lower
    dlp = grid.integrate(np.abs(du) ** p) ** (1.0 / p)
    if dlp == 0.0:
        return ("interval_lp_gl", 0.0), ("interval_sup_gl", 0.0)
    ulp = grid.integrate(np.abs(u_vals) ** p) ** (1.0 / p)
    q = p / (p - 1.0)
    lp_bound = length**alpha / math.gamma(alpha + 1.0) * dlp
    sup_bound = (
        length ** (alpha - 1.0 / p)
        / (math.gamma(alpha) * ((alpha - 1.0) * q + 1.0) ** (1.0 / q))
        * dlp
    )
    sup = float(np.max(np.abs(u_vals))) / sup_bound
    return ("interval_lp_gl", ulp / lp_bound), ("interval_sup_gl", sup)


def _line_ratios(row: tuple[float, ...], constants: EmbeddingConstants, p: float):
    """``(name, ratio)`` of each line inequality that applies to one sample, in report order.

    ``row`` is the sample's ``sup|u|``, ``||u||_L2^2``, ``||u||_Lp^p``,
    ``|u|_alpha^2`` and ``||u||_X^2`` from :func:`_line_stats`.  The ratios
    are taken in scalar Python arithmetic: numpy's vector ``**`` can differ
    from Python's ``float ** float`` in the last bit.
    """
    sup, l2sq, lppow, frac, xnormsq = row
    na = math.sqrt(l2sq + frac)
    if na == 0.0:
        return
    nx = math.sqrt(max(xnormsq, 0.0))
    yield "sup_le_cinf_norm_alpha", sup / (constants.c_infinity * na)
    if nx > 0.0:
        yield "l2sq_le_inv_theta_xnormsq", l2sq * constants.theta / nx**2
        yield "alphasq_le_equiv_xnormsq", na**2 / ((1.0 + 1.0 / constants.theta) * nx**2)
        yield "lp_le_kappa_xnorm", lppow / (1.0 / constants.kappa_neg_power(p) * nx**p)
    if sup > 0.0 and l2sq > 0.0:
        yield "interp_lp_le_sup_l2", lppow / (sup ** (p - 2.0) * l2sq)


def _line_stats(block: np.ndarray, spec: ProblemSpec, p: float) -> tuple[np.ndarray, ...]:
    """Per-row ``sup|u|``, ``||u||_L2^2``, ``||u||_Lp^p``, ``|u|_alpha^2``, ``||u||_X^2``.

    ``block`` stacks scalar line samples; each row is lifted into component
    0 of an ``spec.n``-component field, whose one operator transform serves
    both forms, and ``||u||_X^2`` is the operator's form of that lift.  At
    ``n = 1`` the lift is a view of ``block`` and the spectral part of that
    form is ``|u|_alpha^2`` itself, taken once.  Each result is the same bits
    as on one sample (README).
    """
    op = _operator(spec)
    grid = spec.grid
    h = grid.spacing
    mag = np.abs(block)
    lifted = block[..., None]
    if spec.n > 1:
        lifted = np.concatenate([lifted, np.zeros(block.shape + (spec.n - 1,))], axis=-1)
    coeffs = op.transform(lifted)
    spectral, pot = op.form_parts(lifted, coeffs, lifted, coeffs)
    first = coeffs[..., :1]
    return (
        np.max(mag, axis=-1),
        h * np.sum(block * block, axis=-1),
        h * np.sum(_power(mag, p), axis=-1),
        spectral if spec.n == 1 else _coefficient_form(grid, spec.alpha, first, first),
        spectral + spec.lam * pot,
    )


def verify_embeddings(
    samples: int,
    spec: ProblemSpec,
    constants: EmbeddingConstants,
    seed: int = _SEED,
) -> dict:
    """Stress-test the whole inequality chain on randomized samples.

    Draws ``samples`` scalar functions (split across the three line families,
    plus interval Dirichlet samples for the bounded-domain inequalities) and
    evaluates both sides of every inequality.  The weighted norm takes each
    line sample as component 0 of an ``spec.n``-component field, so the
    potential term counts it once, with the first component's scale.
    Returns a report of worst-case ratios, with an entry for each inequality
    from the first sample it applies to; raises :class:`EmbeddingViolation`
    carrying the offending sample if any ratio exceeds ``1 + _TOLERANCE``,
    and :class:`DomainError` for ``samples < 1``.
    """
    if samples < 1:
        raise DomainError(f"need at least one sample, got {samples}")
    constants.check_lambda(spec.lam)
    rng = np.random.default_rng(seed)
    grid = spec.grid
    p = 4.0
    worst: dict[str, dict] = {}

    def record(ratios, sid: str, sample_vals, sample_grid):
        for name, ratio in ratios:
            entry = worst.get(name) or worst.setdefault(
                name, {"name": name, "worst_ratio": 0.0, "argmax_sample_id": None, "samples": 0}
            )
            entry["samples"] += 1
            if ratio > entry["worst_ratio"]:
                entry["worst_ratio"] = ratio
                entry["argmax_sample_id"] = sid
            if ratio > 1.0 + _TOLERANCE:
                raise EmbeddingViolation(
                    f"inequality {name} violated: ratio {ratio:.12g} at sample {sid}",
                    sample=GridFunction(sample_grid, sample_vals),
                    detail={"name": name, "ratio": ratio, "sample_id": sid, "seed": seed},
                )

    line_families, interval_families = _FAMILIES[RealLineGrid], _FAMILIES[IntervalGrid]
    for chunk in _chunks(samples, grid.num_points * spec.n):
        ids = range(samples)[chunk]
        block = np.empty((len(ids), grid.num_points))
        _fill_samples(grid, rng, [(row, i % line_families) for row, i in zip(block, ids)])
        rows = zip(*(s.tolist() for s in _line_stats(block, spec, p)))
        for i, vals, row in zip(ids, block, rows):
            record(_line_ratios(row, constants, p), f"line/{i % line_families}/{i}", vals, grid)

    ispec = spec.well_interval(_WELL_POINTS)
    igrid = ispec.grid
    op = _operator(ispec)
    count = max(samples // 4, 1)
    for chunk in _chunks(count, igrid.num_points):
        ids = range(count)[chunk]
        block = np.empty((len(ids), igrid.num_points))
        _fill_samples(igrid, rng, [(row, i % interval_families) for row, i in zip(block, ids)])
        for i, vals in zip(ids, block):
            du = op.transform(vals)
            for pp in (2.0, p):
                ratios = _interval_ratios(spec.alpha, pp, vals, du, igrid)
                record(ratios, f"interval/{i % interval_families}/{i}/p{pp}", vals, igrid)

    return {
        "inequalities": worst,
        "lambda": spec.lam,
        "lambda_floor": constants.lambda_floor,
        "seed": seed,
        "passed": True,
    }
