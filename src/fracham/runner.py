"""Experiment orchestration: concentration sweeps, verification campaigns, I/O.

The sweep is the package's headline experiment: solve the Dirichlet interval
problem once, then solve the line problem along an ascending ladder of
parameter values (warm-starting each run from the previous solution), and
record how the solution's mass localizes on the well and how far it sits from
the interval solution.  Both observables are required to decrease strictly
across converged records; the magnitudes themselves are reported, never
asserted against invented targets.
"""

from __future__ import annotations

import dataclasses
import datetime
import hashlib
import json
import math
import os

import numpy as np

from .errors import (
    ConfigError,
    ConvergenceError,
    DomainError,
    EmbeddingViolation,
    MonotonicityError,
)
from .functional import IntervalProblemSpec, ProblemSpec, _chunks, _identity_terms, _operator
from .grids import GridFunction, IntervalGrid, RealLineGrid
from .mpa import _TRACE_COLUMNS, MpaConfig, SolveResult, bvp_solve, construct_e, mpa_solve
from .problem import _SEED, validate_nonlinearity, validate_potential
from .spaces import (
    _WELL_POINTS,
    EmbeddingConstants,
    _fill_samples,
    _h_alpha_sq,
    norm_h_alpha,
    verify_embeddings,
)

__all__ = [
    "SweepReport",
    "tail_mass_ratio",
    "embed_interval_solution",
    "dist_h_alpha",
    "bvp_el_residual",
    "lambda_sweep",
    "run_verification_campaign",
    "write_solve_outputs",
    "write_report",
    "canonical_json",
    "payload_hash",
]


# ---------------------------------------------------------------------------
# Canonical serialization.
# ---------------------------------------------------------------------------


def _json_default(obj):
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def canonical_json(payload) -> str:
    """Deterministic JSON: sorted keys, fixed indentation, finite floats only.

    ``indent`` selects json's pure-Python encoder, so a nonempty float64 array of 1 or 2
    dimensions in nested dicts is written by the C encoder and re-indented by ``str.replace``.
    """
    arrays = {}

    def lift(obj, depth: int):
        if isinstance(obj, dict):
            return {k: lift(v, depth + 1) for k, v in obj.items()}
        if not isinstance(obj, np.ndarray) or obj.dtype != np.float64 or not obj.size or obj.ndim > 2:
            return obj
        outer, row, item = ("\n" + "  " * (depth + k) for k in range(3))
        sep = "," + (row if obj.ndim == 1 else item)
        text = json.dumps(obj.tolist(), allow_nan=False, separators=(sep, ":"))[1:-1]
        if obj.ndim == 2:  # no float's text holds a bracket
            rows = text[1:-1].replace("]" + sep + "[", row + "]," + row + "[" + item)
            text = "[" + item + rows + row + "]"
        arrays[json.dumps(mark := f"\0ndarray{len(arrays)}")] = "[" + row + text + outer + "]"
        return mark

    options = dict(sort_keys=True, indent=2, allow_nan=False, default=_json_default)
    text = json.dumps(lift(payload, 0), **options)
    if any(text.count(mark) != 1 for mark in arrays):  # a payload string spells a mark
        return json.dumps(payload, **options) + "\n"
    for mark, rendered in arrays.items():
        text = text.replace(mark, rendered)
    return text + "\n"


def payload_hash(payload) -> str:
    """Short content hash of a JSON-serializable payload."""
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()[:16]


def _timestamp() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")


# ---------------------------------------------------------------------------
# Concentration observables.
# ---------------------------------------------------------------------------


def tail_mass_ratio(u: GridFunction, varrho: float) -> float:
    """Fraction of the squared L2 mass lying outside ``[-varrho, varrho]``."""
    if not isinstance(u.grid, RealLineGrid):
        raise DomainError("tail_mass_ratio expects a real-line grid function")
    if varrho <= 0:
        raise DomainError(f"varrho must be positive, got {varrho}")
    density = np.sum(u.values**2, axis=1)
    total = float(np.sum(density))
    if total == 0.0:
        raise DomainError("tail mass ratio is undefined for the zero function")
    outside = float(np.sum(density[np.abs(u.grid.nodes) > varrho]))
    return min(max(outside / total, 0.0), 1.0)


def embed_interval_solution(u: GridFunction, line_grid: RealLineGrid) -> GridFunction:
    """Zero-extend an interval grid function onto a real-line grid.

    Values are aligned by linear interpolation between interval nodes and are
    exactly zero outside the interval; the alignment error is O(h).
    """
    if not isinstance(u.grid, IntervalGrid):
        raise DomainError("embed_interval_solution expects an interval grid function")
    src_t = u.grid.nodes
    dst_t = line_grid.nodes
    cols = [
        np.interp(dst_t, src_t, u.values[:, j], left=0.0, right=0.0)
        for j in range(u.num_components)
    ]
    return GridFunction(line_grid, np.stack(cols, axis=1))


def dist_h_alpha(u: GridFunction, u_interval: GridFunction, alpha: float) -> float:
    """Base-norm distance between a line function and an embedded interval one."""
    emb = embed_interval_solution(u_interval, u.grid)
    if emb.num_components != u.num_components:
        raise DomainError("component counts differ")
    return norm_h_alpha(GridFunction(u.grid, u.values - emb.values), alpha)


def bvp_el_residual(u: GridFunction, spec: IntervalProblemSpec) -> float:
    """Euclidean norm of the discrete stationarity residual at interior nodes."""
    return float(np.linalg.norm(_operator(spec).residual(u.values)))


# ---------------------------------------------------------------------------
# The sweep.
# ---------------------------------------------------------------------------


@dataclasses.dataclass(eq=False)
class SweepReport:
    """Everything one concentration sweep produced."""

    records: list[dict]
    bvp_reference: SolveResult
    bvp_el_residual: float
    ctilde: float
    rho: float
    eta: float
    sigma0: float
    lambda_floor: float
    alignment_error: float
    observed_admissible_lambda: float | None

    def to_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}
        out["bvp_reference"] = self.bvp_reference.to_dict()
        return out


def _c6_record(u: GridFunction, spec: ProblemSpec) -> dict:
    """Both sides of ``||u||_X^2 = (grad W, u)``, and ``h_identity``'s gap from the same terms."""
    lhs, rhs, defect, integral_h = _identity_terms(u.values, spec)
    gap = abs(lhs - rhs)
    tol = 1e-6 * (1.0 + lhs)
    return {"c6_lhs": lhs, "c6_rhs": rhs, "c6_gap": gap, "c6_tol": tol, "c6_ok": gap <= tol,
            "identity_gap": abs(defect - integral_h)}


def lambda_sweep(
    base_spec: ProblemSpec,
    lambdas,
    constants: EmbeddingConstants,
    mpa_config: MpaConfig | None = None,
    bvp_points: int = _WELL_POINTS,
    bvp_config: MpaConfig | None = None,
    cold: bool = False,
) -> SweepReport:
    """Solve along an ascending parameter ladder and track concentration.

    The interval reference is solved once; each line run is warm-started from
    the previous converged solution unless ``cold``; a ``None`` config is the
    solver's own default.  :func:`construct_e` checks the lowest rung, so the
    whole ladder, against the lambda floor.  :func:`mpa_solve` holds each
    converged level to the setup's ``level_bracket``, and both concentration
    observables must decrease strictly across converged records.
    """
    lambdas = [float(x) for x in lambdas]
    if len(lambdas) == 0:
        raise ConfigError("lambda ladder is empty")
    if any(b <= a for a, b in zip(lambdas, lambdas[1:])):
        raise ConfigError(f"lambda ladder must be strictly increasing, got {lambdas}")

    setup = construct_e(base_spec.with_lambda(lambdas[0]), constants=constants)

    ispec = base_spec.well_interval(bvp_points)
    bvp_ref = bvp_solve(ispec, bvp_config)
    bvp_el = bvp_el_residual(bvp_ref.u, ispec)

    records: list[dict] = []
    prev_u: GridFunction | None = None
    for lam in lambdas:
        spec = base_spec.with_lambda(lam)
        guess = None if cold else prev_u
        result = mpa_solve(spec, setup, mpa_config, initial_guess=guess)
        record = {
            "lambda": lam,
            **result.summary(),
            "tail_mass_ratio": tail_mass_ratio(result.u, base_spec.potential.varrho),
            "dist_to_bvp_h_alpha": dist_h_alpha(result.u, bvp_ref.u, base_spec.alpha),
            **_c6_record(result.u, spec),
        }
        record["identity_ok"] = record["identity_gap"] <= 1e-6 * (1.0 + abs(result.level))
        if result.converged:
            prev_u = result.u
        records.append(record)

    if not any(r["converged"] for r in records):
        raise ConvergenceError("no ladder value converged; sweep has no usable records")

    converged = [r for r in records if r["converged"]]
    for prev, cur in zip(converged, converged[1:]):
        for key, description in (
            ("tail_mass_ratio", "tail mass ratio"),
            ("dist_to_bvp_h_alpha", "distance to the interval solution"),
        ):
            if not (cur[key] < prev[key]):
                raise MonotonicityError(
                    f"{description} failed to decrease strictly",
                    detail={"previous": prev, "current": cur},
                )

    observed = next((r["lambda"] for r in converged if r["c6_ok"] and r["identity_ok"]), None)

    return SweepReport(
        **setup.certificates(),
        records=records,
        bvp_reference=bvp_ref,
        bvp_el_residual=bvp_el,
        lambda_floor=constants.lambda_floor,
        alignment_error=max(base_spec.grid.spacing, ispec.grid.spacing),
        observed_admissible_lambda=observed,
    )


# ---------------------------------------------------------------------------
# Verification campaign.
# ---------------------------------------------------------------------------

DEFAULT_BUDGETS = {
    "embedding_samples": 1000,
    "nonlinearity_samples": 20000,
    "derivative_checks": 50,
    "sphere_samples": 200,
}
# Random fields per domain in the defect-identity spot check.
_IDENTITY_CHECKS = 5


def _random_fields(spec, rng: np.random.Generator, rows: int, stacks: int = 1) -> list:
    """``stacks`` stacks of ``rows`` random fields, each component of a drawn sample family.

    Row ``j`` of every stack is drawn before row ``j + 1`` of any, so the
    fields are those of a one-field loop that draws ``stacks`` at a time.
    """
    out = [np.empty((rows, spec.grid.num_points, spec.n)) for _ in range(stacks)]
    slots = [(f[j, :, c], None) for j in range(rows) for f in out for c in range(spec.n)]
    _fill_samples(spec.grid, rng, slots)
    return out


def _unit_fields(spec, stack: np.ndarray) -> np.ndarray:
    """Each row of a stack of random fields scaled to a unit norm.

    On the line the norm is ``||u||_alpha`` (:func:`norm_h_alpha`, with its
    sums), and a zero row is left as it is; on the interval it is the peak
    magnitude, floored at ``1e-12``.  Every row gets the bits it would get
    on its own.
    """
    if isinstance(spec, ProblemSpec):
        nrm = np.sqrt(_h_alpha_sq(spec.grid, spec.alpha, stack))
        return stack / np.where(nrm == 0.0, 1.0, nrm)[:, None, None]
    return stack / np.maximum(np.max(np.abs(stack), axis=(-2, -1)), 1e-12)[:, None, None]


def _fd_action_errors(spec, count: int, rng: np.random.Generator) -> dict:
    """Central finite differences of the energy against derivative_action.

    Each error is relative as the README's ``verify`` section says; the
    difference quotient carries the round-off of the quadratic term
    although it cancels in the result.  The pairs are batched as there.
    """
    op = _operator(spec)
    eps = 1e-5
    worst = 0.0
    for chunk in _chunks(count, spec.grid.num_points * spec.n):
        fields = _random_fields(spec, rng, chunk.stop - chunk.start, 2)
        u, v = (_unit_fields(spec, f) for f in fields)
        ut, vt = op.transform(u), op.transform(v)
        act = op.transformed_form(u, ut, v, vt) - op.wslope(u, v)
        fd = (op.energies(u + eps * v) - op.energies(u - eps * v)) / (2.0 * eps)
        quad = op.transformed_form(u, ut, u, ut) + op.transformed_form(v, vt, v, vt)
        for err in np.abs(fd - act) / (1.0 + np.abs(act) + 1e-4 * quad):
            worst = max(worst, float(err))
    return {"count": count, "worst_rel_err": worst, "passed": worst <= 1e-6}


def _identity_spot_checks(
    spec: ProblemSpec, ispec: IntervalProblemSpec, rng: np.random.Generator
) -> dict:
    """Defect-identity gaps relative to ``1 + |lhs| + 1e-4 ||u||_X^2``, as in the FD check."""
    worst = 0.0
    for _ in range(_IDENTITY_CHECKS):
        line = _unit_fields(spec, _random_fields(spec, rng, 1)[0])[0]
        interval = _random_fields(ispec, rng, 1)[0][0]
        for sp, vals in ((spec, line), (ispec, interval)):
            q, _, lhs, rhs = _identity_terms(vals, sp)
            worst = max(worst, abs(lhs - rhs) / (1.0 + abs(lhs) + 1e-4 * q))
    return {"count": _IDENTITY_CHECKS, "worst_rel_gap": worst, "passed": worst <= 1e-10}


def _geometry_checks(
    spec: ProblemSpec,
    constants: EmbeddingConstants,
    count: int,
    rng: np.random.Generator,
) -> dict:
    """The mountain-pass geometry: sphere floor, negative endpoint, falling ray, fixed ``sigma0``.

    The sphere fields are batched as the README's ``verify`` section says;
    a zero field is skipped.
    """
    setup = construct_e(spec, constants=constants)
    op = _operator(spec)
    floor_min = math.inf
    for chunk in _chunks(count, spec.grid.num_points * spec.n):
        fields = _random_fields(spec, rng, chunk.stop - chunk.start)[0]
        nx = np.sqrt(np.maximum(op.xnormsq(fields), 0.0))
        keep = nx != 0.0
        for value in op.energies((setup.rho / nx[keep])[:, None, None] * fields[keep]):
            floor_min = min(floor_min, float(value))
    sphere_ok = floor_min >= setup.level_bracket[0]
    endpoint_ok = op.energy(setup.e.values) < 0.0
    ray = [op.energy(s * setup.sigma0 * setup.psi.values) for s in (1.0, 2.0, 4.0)]
    trend_ok = ray[0] > ray[1] > ray[2]
    other = construct_e(spec.with_lambda(1000.0 * spec.lam), constants=constants)
    sigma_invariant = other.sigma0 == setup.sigma0
    passed = sphere_ok and endpoint_ok and trend_ok and sigma_invariant
    return {
        "sphere_samples": count,
        "sphere_min_energy": floor_min,
        "eta": setup.eta,
        "rho": setup.rho,
        "sigma0": setup.sigma0,
        "sphere_ok": sphere_ok,
        "endpoint_energy_negative": endpoint_ok,
        "ray_energies": ray,
        "ray_decreasing": trend_ok,
        "sigma0_parameter_invariant": sigma_invariant,
        "passed": passed,
    }


def run_verification_campaign(
    spec: ProblemSpec,
    constants: EmbeddingConstants,
    budgets: dict | None = None,
    seed: int = _SEED,
) -> dict:
    """Run every verifier the package ships and aggregate one report.

    ``constants`` are the embedding constants the run certifies against, as
    :func:`~fracham.spaces.estimate_embedding_constants` returns them.
    ``budgets`` caps each section's sample count and must not be negative; a
    zero budget skips its section, so an all-zero campaign passes trivially.
    """
    merged = dict(DEFAULT_BUDGETS)
    merged.update(budgets or {})
    unknown = set(merged) - set(DEFAULT_BUDGETS)
    if unknown:
        raise ConfigError(f"unknown budget keys: {sorted(unknown)}")
    negative = {key: count for key, count in merged.items() if count < 0}
    if negative:
        raise ConfigError(f"budgets must not be negative, got {negative}")
    sections: dict[str, dict] = {}

    if merged["embedding_samples"] > 0:
        try:
            sections["embeddings"] = verify_embeddings(
                merged["embedding_samples"], spec, constants=constants, seed=seed
            )
        except EmbeddingViolation as exc:
            sections["embeddings"] = {"passed": False, "violation": str(exc), "detail": exc.detail}
        sections["potential"] = validate_potential(
            spec.potential, c_infinity=constants.c_infinity
        )

    if merged["nonlinearity_samples"] > 0:
        sections["nonlinearity"] = validate_nonlinearity(
            spec.nonlinearity, sample_budget=merged["nonlinearity_samples"], seed=seed
        )

    if merged["derivative_checks"] > 0:
        rng = np.random.default_rng(seed)
        ispec = spec.well_interval(_WELL_POINTS)
        fd_line = _fd_action_errors(spec, merged["derivative_checks"], rng)
        fd_int = _fd_action_errors(ispec, merged["derivative_checks"], rng)
        ident = _identity_spot_checks(spec, ispec, rng)
        sections["functional"] = {
            "derivative_line": fd_line,
            "derivative_interval": fd_int,
            "defect_identity": ident,
            "passed": fd_line["passed"] and fd_int["passed"] and ident["passed"],
        }

    if merged["sphere_samples"] > 0:
        rng = np.random.default_rng(seed + 1)
        sections["geometry"] = _geometry_checks(
            spec, constants, merged["sphere_samples"], rng
        )

    passed = all(s.get("passed", False) for s in sections.values()) if sections else True
    return {"seed": seed, "budgets": merged, "sections": sections, "passed": passed}


# ---------------------------------------------------------------------------
# Persistence.
# ---------------------------------------------------------------------------


def _write_text(path: str, text: str):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _write_csv(path: str, columns: dict[str, list]) -> str:
    """Write equal-length columns of numbers as CSV, each by ``repr``, so a float round-trips."""
    rows = zip(*(map(repr, column) for column in columns.values()))
    _write_text(path, "\n".join([",".join(columns), *map(",".join, rows)]) + "\n")
    return path


def write_solve_outputs(outdir: str, result: SolveResult, extras: dict) -> dict:
    """Write result.json, u.csv, trace.csv into a run directory."""
    result_path = write_report(outdir, "result.json",
                               {**result.to_dict(), **extras, "generated_at": _timestamp()})
    u_path = _write_csv(os.path.join(outdir, "u.csv"), {
        "t": result.u.grid.nodes.tolist(),
        "abs_u": result.u.euclidean_magnitude().tolist(),
    })
    trace = np.reshape(np.asarray(result.trace, dtype=float), (-1, len(_TRACE_COLUMNS)))
    trace_path = _write_csv(os.path.join(outdir, "trace.csv"), {
        "iteration": list(range(1, len(trace) + 1)),
        **dict(zip(_TRACE_COLUMNS, trace.T.tolist())),
    })
    return {"result": result_path, "u": u_path, "trace": trace_path}


def write_report(outdir: str, name: str, payload: dict) -> str:
    """Write one canonical-JSON report file; returns its path."""
    os.makedirs(outdir, exist_ok=True)
    path = os.path.join(outdir, name)
    _write_text(path, canonical_json(payload))
    return path


def write_sweep_csv(outdir: str, report: SweepReport) -> str:
    """Columnar summary of a sweep's records."""
    os.makedirs(outdir, exist_ok=True)
    cols = [
        "lambda",
        "level",
        "residual",
        "residual_weighted",
        "converged",
        "iterations",
        "tail_mass_ratio",
        "dist_to_bvp_h_alpha",
        "c6_gap",
    ]
    columns = {c: [rec[c] for rec in report.records] for c in cols}
    columns["converged"] = [int(flag) for flag in columns["converged"]]  # 1 or 0
    return _write_csv(os.path.join(outdir, "sweep.csv"), columns)
