"""Certified barrier geometry and the polyline min-max solver."""

import ast
import dataclasses
import inspect
import json
import math
import pathlib
import warnings

import numpy as np
import pytest

from fracham import (
    GridFunction,
    IntervalGrid,
    IntervalProblemSpec,
    MpaConfig,
    ProblemSpec,
    RealLineGrid,
    bvp_solve,
    construct_e,
    ctilde_bound,
    default_nonlinearity,
    default_potential,
    energy,
    estimate_embedding_constants,
    estimate_rho_eta,
    h_identity,
    mpa_solve,
    norm_x_lambda,
    quadratic_form_alpha,
)
from fracham import functional, mpa
from fracham.cli import main
from fracham.errors import ConfigError, DomainError, GeometryError
from fracham.fracops import BoundaryDecayWarning, check_boundary_decay
from fracham.problem import (
    NonlinearitySpec,
    PotentialSpec,
    _hessian_operator,
    _weighted_slope,
    _weighted_w,
    default_oscillatory,
    w_values,
    weight_values,
)
from fracham.runner import _c6_record
from fracham.spaces import sample_interval_function


def _decline_newton_start(monkeypatch):
    """Force every run onto the path: ``mpa._newton_start`` declines before any polish."""
    declined = {"newton_start": "declined: forced",
                **dict.fromkeys(("morse_index", "nu_top", "hessian_gap"))}
    monkeypatch.setattr(mpa, "_newton_start", lambda op, x, e, counters: (None, declined))


def test_config_validation():
    with pytest.raises(ConfigError):
        MpaConfig(path_nodes=2)
    with pytest.raises(ConfigError):
        MpaConfig(tol=0.0)
    with pytest.raises(ConfigError):
        MpaConfig(tol=1.0)
    fields = [f.name for f in dataclasses.fields(MpaConfig)]
    assert fields == ["path_nodes", "tol", "max_iters"]


def test_sphere_radius_and_floor_closed_form(spec10, constants):
    """Constants chosen so the sphere bracket collapses to 1/4 - rho^2."""
    theta, meas = constants.theta, constants.meas_lc
    eps = 0.5 * theta
    c_eps = 4.0 * theta * theta * meas
    rho, eta = estimate_rho_eta(eps, c_eps, 4.0, constants=constants)
    radii = np.logspace(-6, 3, 1801)
    bracket = 0.25 - radii**2
    expected_rho = float(radii[bracket > 0.0][-1])
    assert rho == expected_rho
    assert eta == float(expected_rho**2 * (0.25 - expected_rho**2))
    assert 0.0 < rho < 0.5 and eta > 0.0


def test_sphere_bound_error_paths(spec10, constants):
    theta = constants.theta
    with pytest.raises(GeometryError):
        estimate_rho_eta(theta, 1.0, 4.0, constants=constants)
    with pytest.raises(GeometryError):
        estimate_rho_eta(2.0 * theta, 1.0, 4.0, constants=constants)
    with pytest.raises(GeometryError):
        estimate_rho_eta(0.5 * theta, 1.0, 2.0, constants=constants)
    with pytest.raises(GeometryError):
        estimate_rho_eta(0.5 * theta, 1e30, 4.0, constants=constants)


def test_endpoint_construction_invariants(setup, spec10, ctilde):
    diag = functional._operator(spec10).ldiag
    assert np.all(diag * setup.psi.values == 0.0)
    assert setup.tau == 0.75 * spec10.potential.varrho
    assert setup.sigma0 == 4.0
    assert np.array_equal(setup.e.values, setup.sigma0 * setup.psi.values)
    assert norm_x_lambda(setup.e, spec10) > setup.rho
    assert energy(setup.e, spec10) < 0.0
    assert 0.0 < setup.eta <= ctilde


def test_endpoint_support_width_validation(spec10, constants):
    for tau in (0.0, -0.2, 0.4, 0.7):
        with pytest.raises(GeometryError):
            construct_e(spec10, tau=tau, constants=constants)


def test_construct_e_refuses_a_lambda_below_the_floor(spec10, constants):
    """The geometry certificate rests on inequalities that hold only above the floor."""
    low = spec10.with_lambda(0.5 * constants.lambda_floor)
    with pytest.raises(DomainError, match="below the admissibility floor"):
        construct_e(low, constants=constants)


def test_geometry_is_parameter_invariant(spec10, constants):
    low = construct_e(spec10.with_lambda(1.0), constants=constants)
    high = construct_e(spec10.with_lambda(1000.0), constants=constants)
    assert low.sigma0 == high.sigma0
    assert np.array_equal(low.e.values, high.e.values)
    assert low.rho == high.rho and low.eta == high.eta


def test_barrier_bound_closed_form(setup, spec10, ctilde):
    """For the quartic family the ray maximum is Q^2 / (16 integral W(psi))."""
    q = quadratic_form_alpha(setup.psi, spec10.alpha)
    intw = spec10.grid.integrate(
        w_values(spec10.nonlinearity, spec10.grid.nodes, setup.psi.values)
    )
    assert abs(ctilde - q * q / (16.0 * intw)) < 1e-9 * ctilde


def test_barrier_bound_scales_inversely_with_weight(setup, spec10, constants, ctilde):
    heavier = NonlinearitySpec(kind="pure_power", p=4.0, weight_base=2.0, c0=20.0, radius=1.0)
    spec2 = dataclasses.replace(spec10, nonlinearity=heavier)
    setup2 = construct_e(spec2, constants=constants)
    ctilde2 = ctilde_bound(setup2, spec2)
    assert abs(ctilde2 - 0.5 * ctilde) < 1e-6 * ctilde


def test_default_solve_certificates(default_solve, setup, ctilde):
    res = default_solve
    assert res.converged is True
    assert res.metric == "x-alpha-lambda"
    assert res.residual_weighted <= 1e-6
    assert abs(res.residual_weighted - (1.0 + res.norm_x) * res.residual) < 1e-15
    assert 0.0 < res.level <= ctilde
    assert res.level >= setup.eta
    assert res.iterations == len(res.trace)
    levels = [row[0] for row in res.trace]
    for earlier, later in zip(levels, levels[1:]):
        assert later <= earlier + 1e-9 * (1.0 + abs(earlier))
    diag = res.diagnostics
    assert diag["reason"] == "tolerance"
    assert diag["polyline_level"] >= res.level - 1e-12
    assert diag["path_nodes_final"] >= 3
    counters = diag["counters"]
    for key in ("inserted", "step_rejections", "guard_rejections",
                "polish_accepted", "polish_rejected", "newton_steps", "minres_iterations"):
        assert counters[key] >= 0
    assert counters["segments"] > 0


def _solve_vector_spec(line_grid, potential):
    """The solve-vector family: n=2, a diagonal potential, a weighted oscillatory ``W``."""
    return ProblemSpec(
        alpha=0.75, lam=1.0, n=2, grid=line_grid,
        potential=dataclasses.replace(potential, kind="diagonal", diag_scales=(1.0, 2.0)),
        nonlinearity=NonlinearitySpec(kind="oscillatory", p=3.0, epsilon=0.5, c0=160.0,
                                      weight_amp=0.3, weight_freq=2.0),
    )


def test_solve_vector_family_is_a_scalar_solve(potential):
    """The solve-vector family's second component stays exactly zero.

    ``construct_e`` puts its bump in component 0.  For radial ``W`` and a
    diagonal ``L`` that component's subspace is invariant under the metric
    gradient, the metric solve and the Newton step, so the solve is the
    ``n = 1`` solve with component 0's potential: same iterations, same
    level to round-off.
    """
    grid = RealLineGrid(20.0, 1024)
    vector = _solve_vector_spec(grid, potential)
    scalar = dataclasses.replace(vector, n=1, potential=potential)
    constants = estimate_embedding_constants(grid, 0.75, potential)
    runs = [mpa_solve(spec, construct_e(spec, constants=constants)) for spec in (vector, scalar)]
    assert all(run.converged for run in runs)
    assert np.array_equal(runs[0].u.values[:, 1], np.zeros(grid.num_points))
    assert runs[0].iterations == runs[1].iterations
    assert abs(runs[0].level - runs[1].level) <= 4.0 * np.finfo(float).eps * runs[1].level


def test_mixed_endpoint_runs_a_coupled_vector_solve(potential):
    """An ``n = 2`` solve from an endpoint in both components converges.

    The endpoint is ``construct_e``'s bump rotated by 0.6 rad into
    component 1; the potential term vanishes on the bump, so its energy is
    still negative.  No component's subspace holds the path, so the metric
    solves and Newton steps act on both components.  With scales (1, 2)
    the cheaper component 0 wins: component 1 decays towards zero and the
    level is the scalar solve's.
    """
    grid = RealLineGrid(20.0, 1024)
    scalar = ProblemSpec(alpha=0.75, lam=1.0, potential=potential,
                         nonlinearity=default_nonlinearity(), grid=grid)
    vector = dataclasses.replace(
        scalar, n=2,
        potential=dataclasses.replace(potential, kind="diagonal", diag_scales=(1.0, 2.0)),
    )
    constants = estimate_embedding_constants(grid, 0.75, potential)
    setup = construct_e(vector, constants=constants)
    bump = setup.e.values[:, 0]
    mixed = np.stack([np.cos(0.6) * bump, np.sin(0.6) * bump], axis=1)
    assert energy(GridFunction(grid, mixed), vector) < 0.0
    run = mpa_solve(vector, dataclasses.replace(setup, e=GridFunction(grid, mixed)))
    assert run.converged
    assert np.any(run.u.values[:, 1] != 0.0)
    assert run.diagnostics["counters"]["newton_steps"] >= 1
    c6 = _c6_record(run.u, vector)
    assert c6["c6_ok"], c6
    _, _, gap = h_identity(run.u, vector)
    assert gap <= 1e-6 * (1.0 + abs(run.level)) and c6["identity_gap"] == gap
    reference = mpa_solve(scalar, construct_e(scalar, constants=constants))
    assert abs(run.level - reference.level) <= 1e-9 * reference.level


def test_mixed_endpoint_oscillatory_solve_stops_when_the_level_stalls(potential):
    """A run whose path maximum stops falling ends early with reason ``stagnation``.

    On the solve-vector family with ``construct_e``'s endpoint rotated by
    0.6 rad into component 1, started on 21 straight nodes, the path
    maximum sets its last new low within the first 30 iterations, while
    accepted Newton polishes keep moving a node below it.  The run stops
    three iterations later instead of using all ``max_iters``, and its path
    grows by at most one node per iteration.  The default three-node start
    converges instead (``test_mixed_endpoint_oscillatory_solves_agree``).
    """
    grid = RealLineGrid(20.0, 1024)
    spec = _solve_vector_spec(grid, potential)
    setup = construct_e(spec, constants=estimate_embedding_constants(grid, 0.75, potential))
    bump = setup.e.values[:, 0]
    mixed = np.stack([np.cos(0.6) * bump, np.sin(0.6) * bump], axis=1)
    config = MpaConfig(path_nodes=21)
    run = mpa_solve(spec, dataclasses.replace(setup, e=GridFunction(grid, mixed)), config)
    diag = run.diagnostics
    assert diag["reason"] == "stagnation" and not run.converged
    assert run.iterations <= 40
    assert diag["path_nodes_final"] <= config.path_nodes + run.iterations
    assert run.level <= diag["polyline_level"]


def test_mixed_endpoint_oscillatory_solves_agree(potential):
    """From the default start, the solve-vector family converges at every endpoint rotation.

    ``construct_e``'s endpoint rotated by 0.3, 0.6, 1.0 and 1.4 rad into
    component 1 (7, 16, 43 and 86 iterations): every run converges, reports
    its own ``polyline_level``, and all four levels agree within 1e-12.
    """
    grid = RealLineGrid(20.0, 1024)
    spec = _solve_vector_spec(grid, potential)
    setup = construct_e(spec, constants=estimate_embedding_constants(grid, 0.75, potential))
    bump = setup.e.values[:, 0]
    levels = []
    for angle in (0.3, 0.6, 1.0, 1.4):
        mixed = np.stack([np.cos(angle) * bump, np.sin(angle) * bump], axis=1)
        run = mpa_solve(spec, dataclasses.replace(setup, e=GridFunction(grid, mixed)))
        assert run.converged, angle
        assert run.level == run.diagnostics["polyline_level"], angle
        levels.append(run.level)
    assert max(levels) - min(levels) <= 1e-12 * min(levels), levels


def test_newton_minres_iterations_do_not_grow_with_lambda(
    spec10, setup, interval_spec, monkeypatch
):
    """The metric-preconditioned path polish needs few MINRES steps at any lambda and on the interval."""
    _decline_newton_start(monkeypatch)
    minres = functional._minres
    solves = []

    def counted(*args, **kwargs):
        x, info, tridiagonal = minres(*args, **kwargs)
        solves.append((len(tridiagonal), info))
        return x, info, tridiagonal

    monkeypatch.setattr(functional, "_minres", counted)
    runs = [lambda lam=lam: mpa_solve(spec10.with_lambda(lam), setup) for lam in (1.0, 1e4)]
    runs += [lambda n=n: bvp_solve(dataclasses.replace(interval_spec, n=n), MpaConfig(tol=1e-8))
             for n in (1, 2)]
    for run in runs:
        solves.clear()
        res = run()
        assert res.converged is True
        counters = res.diagnostics["counters"]
        assert counters["polish_accepted"] >= 1
        assert solves and all(info == 0 and steps <= 30 for steps, info in solves), solves
        assert counters["minres_iterations"] == sum(steps for steps, _ in solves)
        assert counters["newton_steps"] <= len(solves)


@pytest.mark.parametrize("domain", ["line", "interval"])
def test_newton_step_applies_the_metric_once_per_krylov_step(domain, default_solve, spec10,
                                                            bvp_result, interval_spec, monkeypatch):
    """Each MINRES step's Hessian action reuses the product of the checked metric solve.

    One metric solve per Lanczos vector, plus the first; the Hessian action
    applies no metric of its own.  On the interval each solve is checked
    with one ``apply_metric``.  On the line at n = 1 a checked solve makes
    4 FFT calls and no ``apply_metric``: the Woodbury solve's 3, and one
    ``irfft`` of a 2-row stack for ``g`` and ``A g`` (6 while the check
    transformed ``g`` again).
    """
    spec, res = (spec10, default_solve) if domain == "line" else (interval_spec, bvp_result)
    op = functional._operator(spec)
    applied, ffts = [], []
    original = op.apply_metric

    def counted(x):
        applied.append(x.dtype)
        return original(x)

    monkeypatch.setattr(op, "apply_metric", counted)
    for name in ("rfft", "irfft"):
        fft = getattr(np.fft, name)

        def counted_fft(*args, _fft=fft, **kwargs):
            ffts.append(1)
            return _fft(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted_fft)
    u = res.u.values
    r = op.residual(u)
    applied.clear()
    ffts.clear()
    step, tridiagonal = op.newton_step(u, r, mpa._FORCING_FLOOR)
    assert step is not None and len(tridiagonal) > 0
    if domain == "line":
        assert not applied and len(ffts) == 4 * (len(tridiagonal) + 1)
    else:
        assert 0 < len(applied) <= len(tridiagonal) + 2
        assert set(applied) == {np.dtype(np.float64)}


def test_no_polish_relies_on_its_step_cap(spec10, setup, line_grid, potential, interval_spec,
                                          monkeypatch):
    """Every Newton polish stops at its tolerance or round-off floor within 5 steps.

    The floor is ``eps * metric_bound * |u|``, the error of evaluating the
    residual; the step cap (``mpa._NEWTON_STEPS``) is only a backstop.  Cases: the
    default solve, a cold ``lambda = 1000`` solve, a warm ladder to 1e6, the
    solve-vector family, ``alpha`` 0.51 and 0.99, and the interval at n = 1, 2, each
    with the Newton start declined, so that every polish is the path's.
    """
    _decline_newton_start(monkeypatch)
    polish = mpa._newton_polish
    polishes = []

    def recorded(op, vals, counters):
        before = counters["newton_steps"]
        v, ok, tridiagonal = polish(op, vals, counters)
        vn = float(np.linalg.norm(v))
        bound = max(mpa._NEWTON_TOL * (1.0 + vn), np.finfo(np.float64).eps * op.metric_bound * vn)
        polishes.append((ok, counters["newton_steps"] - before,
                         float(np.linalg.norm(op.residual(v))), bound))
        return v, ok, tridiagonal

    monkeypatch.setattr(mpa, "_newton_polish", recorded)

    def solved(spec, lams=(10.0,)):
        constants = estimate_embedding_constants(line_grid, spec.alpha, spec.potential)
        spec_setup = construct_e(spec, constants=constants)
        guess = None
        for lam in lams:
            guess = mpa_solve(spec.with_lambda(lam), spec_setup, initial_guess=guess).u

    mpa_solve(spec10, setup)
    mpa_solve(spec10.with_lambda(1000.0), setup)
    solved(spec10, [10.0**k for k in range(7)])
    solved(_solve_vector_spec(line_grid, potential), [1.0])
    solved(dataclasses.replace(spec10, alpha=0.51, potential=PotentialSpec(0.2, 0.02, 6.0, 1.5)))
    solved(dataclasses.replace(spec10, alpha=0.99))
    for n in (1, 2):
        bvp_solve(dataclasses.replace(interval_spec, n=n), MpaConfig(tol=1e-8))
    assert len(polishes) >= 15
    for ok, steps, rn, bound in polishes:
        assert ok and 1 <= steps <= 5 and rn <= bound, polishes


def test_reported_crest_is_the_checked_node_or_the_best_tie(spec10, setup, interval_spec,
                                                            monkeypatch):
    """A converged run reports the node it checked last; a stopped run, the best residual of ties.

    The default interval solve and the ``lambda = 1000`` line solve end with
    several nodes that hold the crest to round-off.  Converged, each reports
    the node whose check stopped it, at exactly its ``polyline_level``.  At
    an unreachable ``tol`` both stop on ``stagnation`` and report, of the
    nodes tied with the top energy, the smallest weighted residual.  Ties
    must occur both ways.  The Newton start is declined, so the runs walk the path.
    """
    _decline_newton_start(monkeypatch)
    engines, checked = [], []
    stationarity = mpa._stationarity

    class Recorded(mpa._PathEngine):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            engines.append(self)

    def recorded(op, node):
        checked.append(node)
        return stationarity(op, node)

    monkeypatch.setattr(mpa, "_PathEngine", Recorded)
    monkeypatch.setattr(mpa, "_stationarity", recorded)
    line = spec10.with_lambda(1000.0)
    cases = [(interval_spec, 1e-8, lambda config: bvp_solve(interval_spec, config)),
             (line, 1e-6, lambda config: mpa_solve(line, setup, config))]
    ties = {True: 0, False: 0}
    for spec, tol, solve in cases:
        for config in (MpaConfig(tol=tol), MpaConfig(tol=1e-30)):
            res = solve(config)
            last = checked[-1]
            engine, op = engines[-1], functional._operator(spec)
            crest = res.diagnostics["crest_index"]
            node = engine.nodes[crest]
            interior = engine.nodes[1:-1]
            top = max(n.energy for n in interior)
            tied = [k for k, n in enumerate(interior, 1)
                    if n.energy >= top - 1e-12 * (1.0 + abs(top))]
            assert res.converged is (config.tol == tol)
            if res.converged:
                assert last is node
                assert res.residual_weighted == res.trace[-1][2] <= tol
                assert res.level == res.diagnostics["polyline_level"]
            else:
                assert res.diagnostics["reason"] == "stagnation"
                weighted = {k: stationarity(op, engine.nodes[k])[0] for k in tied}
                assert crest == min(tied, key=weighted.get)
                assert res.residual_weighted == weighted[crest]
            assert res.level == node.energy
            assert np.array_equal(res.u.values, node.x)
            ties[res.converged] += len(tied) > 1
    assert all(ties.values()), ties


def _coarse_line(potential, nonlinearity, lam):
    """The line problem on a 1024-point grid and its far endpoint."""
    grid = RealLineGrid(20.0, 1024)
    spec = ProblemSpec(alpha=0.75, lam=lam, potential=potential, nonlinearity=nonlinearity,
                       grid=grid)
    return spec, construct_e(spec, constants=estimate_embedding_constants(grid, 0.75, potential))


@pytest.mark.parametrize("nonlinearity", [default_nonlinearity(), default_oscillatory()],
                         ids=["pure_power", "oscillatory"])
def test_solver_never_works_on_a_frozen_endpoint(potential, nonlinearity, monkeypatch):
    """Straight paths of 3, 4 or 5 nodes converge at the default start's level on an interior node.

    The path grows a node wherever a segment rises above every node, so
    the crest is always a node it can work on; a converged endpoint, with
    the zero node's residual of exactly 0, would report a level outside
    the bracket.  The reference takes the Newton start; the runs decline it,
    or each would converge on that start whatever ``path_nodes`` is.
    """
    cases = [_coarse_line(potential, nonlinearity, lam) for lam in (1.0, 10.0, 100.0)]
    references = [mpa_solve(spec, setup).level for spec, setup in cases]
    _decline_newton_start(monkeypatch)
    for (spec, setup), reference in zip(cases, references):
        lo, hi = setup.level_bracket
        for path_nodes in (3, 4, 5):
            res = mpa_solve(spec, setup, MpaConfig(path_nodes=path_nodes))
            diag = res.diagnostics
            assert res.converged, (spec.lam, path_nodes)
            assert diag["newton_start"] == "declined: forced"
            assert lo <= res.level <= hi
            assert abs(res.level - reference) <= 1e-12 * abs(reference)
            assert diag["polyline_level"] == res.level
            assert 0 < diag["crest_index"] < diag["path_nodes_final"] - 1


def test_segment_from_zero_keeps_its_first_cell_crest(potential):
    """A crest in the first coarse cell of a segment from ``0`` is found, not clamped to ``0``.

    ``E'(0) = 0`` exactly at the zero node, so its slope names no rising
    side.  On ``0 -> 16 e`` the ray's crest lies at ``th`` near 0.035,
    below ``1/16``; reporting the end's energy 0 there would put the
    segment below ``eta``, which every path from ``0`` to ``e`` must cross.
    """
    spec, setup = _coarse_line(potential, default_nonlinearity(), 10.0)
    op = functional._operator(spec)
    e = setup.e.values
    seg = mpa._measure_segment(op, mpa._node(op, np.zeros_like(e)), mpa._node(op, 16.0 * e))
    assert 0.03 < seg.theta < 1.0 / 16.0
    assert abs(seg.value - setup.ctilde) <= 1e-12


def test_guard_rejections_leave_the_path_exactly_as_it_was(spec10, setup, monkeypatch):
    """A rejected ``replace_node`` restores the node and both adjacent segments.

    The warm ``lambda = 10`` rung of the default sweep, with the Newton
    start declined, has a guard rejection; the path maximum never rises
    past the polish slack.
    """
    _decline_newton_start(monkeypatch)
    start = mpa_solve(spec10.with_lambda(1.0), setup)
    replace = mpa._PathEngine.replace_node
    rejected = []

    def checked(self, k, *args):
        nodes, segments = list(self.nodes), list(self.segments)
        values = [(s.theta, s.value) for s in segments]
        ok = replace(self, k, *args)
        if not ok:
            assert len(self.nodes) == len(nodes) and all(x is y for x, y in zip(self.nodes, nodes))
            assert len(self.segments) == len(segments)
            assert all(x is y for x, y in zip(self.segments, segments))
            assert [(s.theta, s.value) for s in self.segments] == values
            rejected.append(k)
        return ok

    monkeypatch.setattr(mpa._PathEngine, "replace_node", checked)
    res = mpa_solve(spec10, setup, initial_guess=start.u)
    assert len(rejected) == res.diagnostics["counters"]["guard_rejections"] > 0
    assert res.converged
    levels = [row[0] for row in res.trace]
    for earlier, later in zip(levels, levels[1:]):
        assert later <= earlier + 1e-9 * (1.0 + abs(earlier))


def test_armijo_rejections_stagnate_on_an_unchanged_path(potential, monkeypatch):
    """With an unreachable sufficient decrease every step is rejected before the guard."""
    _decline_newton_start(monkeypatch)
    spec, setup = _coarse_line(potential, default_nonlinearity(), 10.0)
    monkeypatch.setattr(mpa, "_ARMIJO_C1", 1e6)
    res = mpa_solve(spec, setup)
    counters = res.diagnostics["counters"]
    assert not res.converged and res.diagnostics["reason"] == "stagnation"
    assert res.iterations == 4  # the first row sets the low; three failed descents follow
    assert counters["step_rejections"] > 0 == counters["guard_rejections"]
    assert len({row[0] for row in res.trace}) == 1


def test_solution_satisfies_defect_identity(default_solve, spec10):
    lhs, _, gap = h_identity(default_solve.u, spec10)
    assert gap <= 1e-6 * (1.0 + abs(lhs))


@pytest.mark.parametrize("config", [MpaConfig(), MpaConfig(path_nodes=21)],
                         ids=["default", "21_nodes"])
def test_warm_start_reuses_the_solution(spec10, setup, default_solve, config, monkeypatch):
    """A declined warm start begins on ``0 -> guess -> e`` whatever ``path_nodes`` is."""
    _decline_newton_start(monkeypatch)
    starts = _recorded_starts(monkeypatch)
    warm = mpa_solve(spec10, setup, config, initial_guess=default_solve.u)
    [nodes] = starts
    assert len(nodes) == 3 and not np.any(nodes[0])
    assert np.array_equal(nodes[1], default_solve.u.values)
    assert np.array_equal(nodes[2], setup.e.values)
    assert warm.converged is True
    assert warm.iterations <= 2
    assert abs(warm.level - default_solve.level) <= 1e-12 * abs(default_solve.level)


# ---------------------------------------------------------------------------
# The Newton start and its Morse-index gate.
# ---------------------------------------------------------------------------


def _recorded_starts(monkeypatch) -> list:
    """The node values each ``_PathEngine`` of the following runs starts from."""
    starts = []

    class Recorded(mpa._PathEngine):
        def __init__(self, op, nodes):
            starts.append([node.x for node in nodes])
            super().__init__(op, nodes)

    monkeypatch.setattr(mpa, "_PathEngine", Recorded)
    return starts


def _dense_nu(op, u: np.ndarray) -> np.ndarray:
    """Every ``nu`` of the pencil ``(quad W''(u), A)`` on the dofs, descending, by a dense ``eigh``."""
    from scipy.linalg import eigh

    d = op.dofs
    ud = u[d]
    basis = np.eye(ud.size).reshape(ud.size, *ud.shape)
    metric = np.stack([op.apply_metric(v).ravel() for v in basis], axis=1)
    action = _hessian_operator(op.spec.nonlinearity, op.weight[d], ud)
    hess = np.stack([action(v).ravel() for v in basis], axis=1)
    pencil = (op.quad * 0.5 * (hess + hess.T), 0.5 * (metric + metric.T))
    return eigh(*pencil, eigvals_only=True)[::-1]


@pytest.mark.parametrize("case", ["line-n1", "line-n2", "interval"])
def test_ritz_values_match_a_dense_pencil(case, potential):
    """The top two Ritz ``nu`` of a polish's last MINRES run match a dense ``eigh`` within 1e-6.

    The starts are not symmetric under ``t -> -t``, so the Krylov space
    reaches every direction (README).  Line: ``N = 256`` on ``[-10, 10)``,
    the crest of ``0 -> e`` tilted by ``1 + t/2``; at ``n = 2`` (scales 1
    and 2) component 1 starts at 5% of component 0 times ``1 - t``, and
    Lanczos repeats the top value, which the ghost test drops.  Interval:
    the crest of ``0 -> e`` on 65 nodes of the well.
    """
    if case == "interval":
        spec = IntervalProblemSpec(alpha=0.75, nonlinearity=default_nonlinearity(),
                                   grid=IntervalGrid(-0.4, 0.4, 65))
        op = functional._operator(spec)
        vals = mpa._bump(spec, 0.0, 0.3)
        e = mpa._doubling_scan(op, mpa._node(op, vals), "no endpoint")[1].x
    else:
        n = int(case[-1])
        grid = RealLineGrid(10.0, 256)
        spec = ProblemSpec(alpha=0.75, lam=10.0, nonlinearity=default_nonlinearity(), grid=grid,
                           n=n, potential=potential if n == 1 else dataclasses.replace(
                               potential, kind="diagonal", diag_scales=(1.0, 2.0)))
        op = functional._operator(spec)
        e = construct_e(spec, constants=estimate_embedding_constants(grid, 0.75, potential)).e.values
    x = _measure(op, np.zeros_like(e), e).node.x.copy()
    if case != "interval":
        t = spec.grid.nodes
        if n == 2:
            x[:, 1] = 0.05 * x[:, 0] * (1.0 - t)
        x[:, 0] *= 1.0 + 0.5 * t
    u, improved, tridiagonal = mpa._newton_polish(op, x, {"newton_steps": 0, "minres_iterations": 0})
    nu = mpa._hessian_spectrum(tridiagonal)
    dense = _dense_nu(op, u)
    assert improved and len(tridiagonal) >= 3
    assert np.max(np.abs(nu[:2] - dense[:2])) <= 1e-6, (nu[:3], dense[:3])
    assert mpa._hessian_spectrum(tridiagonal[:2]) is None
    if case == "line-n2":
        alfa, beta = np.array(tridiagonal).T
        raw = 1.0 - np.linalg.eigvalsh(np.diag(alfa) + np.diag(beta[:-1], 1) + np.diag(beta[:-1], -1))
        assert np.sum(raw > 2.9) == 2 and np.sum(nu > 2.9) == 1


def test_default_runs_take_the_newton_start(default_solve, sweep_report):
    """Every default run takes the Newton start at Morse index 1 and converges at once.

    The default ``lambda = 10`` solve, every rung of the default sweep and
    the ``bvp`` reference converge at iteration 1 on ``0 -> u -> sigma u ->
    e``, with ``polyline_level == level``.  For the pure power ``W''(u) u =
    (p - 1) grad W(u)``, so at a critical point ``nu_1 = p - 1 = 3``.
    """
    runs = [default_solve.summary(), *sweep_report.records, sweep_report.bvp_reference.summary()]
    for run in runs:
        diag = run["diagnostics"]
        assert diag["newton_start"] == "taken" and diag["morse_index"] == 1
        assert run["converged"] and run["iterations"] == 1
        assert run["level"] == diag["polyline_level"]
        assert abs(diag["nu_top"][0] - 3.0) <= 1e-6
        assert diag["hessian_gap"] == 1.0 - diag["nu_top"][1] > 0.0
    assert default_solve.diagnostics["counters"]["segments"] == 3


@pytest.mark.parametrize("lam, level", [(1.0, 0.03249614753046362), (10.0, 0.10451575300438692)])
def test_a_rising_far_segment_closes_in_the_cone(line_grid, potential, monkeypatch, lam, level):
    """The solve-vector family's cold solve closes ``sigma u -> e`` in the cone and ends at once.

    On the default grid its ``sigma u -> e`` peaks far above ``I(u)`` (4.2648
    at ``lambda = 1``, 2.5531 at 10).  The path becomes ``0 -> u -> sigma u
    -> 2 sigma u -> 2 e -> e``: the start's 3 segments and 3 new ones, which
    only ``R = 2`` gives, as a rejected ``R`` measures at least 2 more.  The
    run converges at ``u`` at iteration 1 with the level and the ``u`` bits of
    the run that inserts the crest of ``sigma u -> e`` instead.
    """
    spec = _solve_vector_spec(line_grid, potential).with_lambda(lam)
    setup = construct_e(spec, constants=estimate_embedding_constants(
        line_grid, spec.alpha, spec.potential))
    run = mpa_solve(spec, setup)
    diag = run.diagnostics
    assert diag["newton_start"] == "taken" and run.converged and run.iterations == 1
    counters = diag["counters"]
    assert (counters["inserted"], counters["segments"], diag["path_nodes_final"]) == (0, 6, 6)
    assert run.level == diag["polyline_level"] == level
    monkeypatch.setattr(mpa._PathEngine, "splice", lambda self, j, nodes, limit: 0)
    inserting = mpa_solve(spec, setup)
    assert inserting.iterations == 2 and inserting.diagnostics["counters"]["inserted"] == 1
    assert inserting.level == level and inserting.u.values.tobytes() == run.u.values.tobytes()


@pytest.mark.parametrize("family", ["pure_power", "oscillatory"])
def test_mixed_endpoint_newton_starts_decline_with_index_two(potential, family):
    """From a mixed endpoint Newton finds a point of Morse index 2, and the start is declined.

    ``construct_e``'s endpoint rotated by 0.6 rad into component 1 on
    ``N = 1024``: Newton from the crest of ``0 -> e`` lands on a critical
    point that is not a mountain pass (levels 0.5098 and 0.0508).  The run
    declines it, walks the path as before and reaches the scalar level.
    """
    grid = RealLineGrid(20.0, 1024)
    if family == "pure_power":
        scalar = ProblemSpec(alpha=0.75, lam=1.0, potential=potential,
                             nonlinearity=default_nonlinearity(), grid=grid)
        spec = dataclasses.replace(scalar, n=2, potential=dataclasses.replace(
            potential, kind="diagonal", diag_scales=(1.0, 2.0)))
    else:
        spec = _solve_vector_spec(grid, potential)
        scalar = dataclasses.replace(spec, n=1, potential=potential)
    constants = estimate_embedding_constants(grid, 0.75, potential)
    setup = construct_e(spec, constants=constants)
    bump = setup.e.values[:, 0]
    mixed = np.stack([np.cos(0.6) * bump, np.sin(0.6) * bump], axis=1)
    run = mpa_solve(spec, dataclasses.replace(setup, e=GridFunction(grid, mixed)))
    diag = run.diagnostics
    assert diag["newton_start"] == "declined: Morse index 2"
    assert diag["morse_index"] is diag["nu_top"] is diag["hessian_gap"] is None
    assert run.converged and run.iterations > 1
    reference = mpa_solve(scalar, construct_e(scalar, constants=constants))
    assert reference.diagnostics["newton_start"] == "taken"
    assert abs(run.level - reference.level) <= 1e-9 * reference.level


def test_a_declined_start_is_todays_path(interval_spec, spec10, setup, monkeypatch):
    """A declined start begins on the straight nodes and reproduces the path runs bit for bit.

    Pinned from the runs before the Newton start: the default ``bvp``
    (inserted 6, crest 1, 9 nodes, 11 iterations, 34 segments, level
    1.2062236961337052) and the cold ``lambda = 10`` solve (6, 1, 9, 10
    iterations, 32 segments, 0.7553496640932224), both from ``0 -> e/2 -> e``.
    Since the metric check reads ``A g`` from the solve's spectrum, the
    solve's nodes 1 and 2 end one ulp apart (0.7553496640932221 and
    0.7553496640932222, against ...224 and ...221), so its crest is node 2.
    """
    _decline_newton_start(monkeypatch)
    starts = _recorded_starts(monkeypatch)
    runs = [(bvp_solve(interval_spec, MpaConfig(tol=1e-8)), (6, 1, 9, 11, 34), 1.2062236961337052),
            (mpa_solve(spec10, setup), (6, 2, 9, 10, 32), 0.7553496640932222)]
    for nodes, (res, path, level) in zip(starts, runs):
        diag = res.diagnostics
        e = nodes[-1]
        assert len(nodes) == 3 and not np.any(nodes[0]) and np.array_equal(nodes[1], 0.5 * e)
        assert (diag["counters"]["inserted"], diag["crest_index"], diag["path_nodes_final"],
                res.iterations, diag["counters"]["segments"]) == path
        assert res.converged and res.level == diag["polyline_level"] == level
        assert diag["newton_start"] == "declined: forced" and diag["morse_index"] is None


def test_a_failed_far_point_scan_declines_the_start(spec10, setup, default_solve, monkeypatch):
    """A ``GeometryError`` from the doubling scan for ``sigma u`` declines the start; it does not raise."""

    def failing(*args):
        raise GeometryError("no negative-energy point")

    monkeypatch.setattr(mpa, "_doubling_scan", failing)
    res = mpa_solve(spec10, setup)
    assert res.diagnostics["newton_start"] == "declined: no negative energy on the ray"
    assert res.converged and res.iterations > 1
    assert abs(res.level - default_solve.level) <= 1e-12 * default_solve.level


def test_a_warm_newton_start_polishes_the_guess(spec10, setup, default_solve, monkeypatch):
    """A taken warm start begins on ``0 -> u -> sigma u -> e``, ``u`` the polished guess.

    The guess is the ``lambda = 1`` solution; at ``lambda = 10`` the run
    converges at iteration 1 on ``u``, with ``sigma`` a power of two.
    """
    guess = mpa_solve(spec10.with_lambda(1.0), setup).u
    starts = _recorded_starts(monkeypatch)
    warm = mpa_solve(spec10, setup, initial_guess=guess)
    [nodes] = starts
    assert len(nodes) == 4 and not np.any(nodes[0])
    assert np.array_equal(nodes[3], setup.e.values)
    assert not np.array_equal(nodes[1], guess.values)
    sigma = float(np.max(nodes[2]) / np.max(nodes[1]))
    assert sigma >= 2.0 and math.log2(sigma).is_integer()
    assert np.array_equal(nodes[2], sigma * nodes[1])
    assert warm.diagnostics["newton_start"] == "taken"
    assert warm.converged and warm.iterations == 1
    assert np.array_equal(warm.u.values, nodes[1])
    assert abs(warm.level - default_solve.level) <= 1e-14 * default_solve.level


def test_each_nonzero_point_is_evaluated_once(spec10, setup, interval_spec, monkeypatch):
    """Within one solve ``_node`` never sees the bits of a nonzero point it has already evaluated.

    The far endpoint's scan, the crest of ``0 -> e`` and the Newton start
    hand the path engine their nodes.  Cases: a cold and a warm ``lambda =
    10`` solve, both taking the Newton start, and ``bvp_solve``, which builds
    its own ``e`` (2, 2 and 4 points were evaluated twice while the engine
    took values).
    """
    guess = mpa_solve(spec10.with_lambda(1.0), setup).u
    seen = []
    node = mpa._node

    def recorded(op, x):
        if np.any(x):
            seen.append(x.tobytes())
        return node(op, x)

    monkeypatch.setattr(mpa, "_node", recorded)
    for solve in (lambda: mpa_solve(spec10, setup),
                  lambda: mpa_solve(spec10, setup, initial_guess=guess),
                  lambda: bvp_solve(interval_spec)):
        seen.clear()
        res = solve()
        assert res.converged and res.diagnostics["newton_start"] == "taken"
        assert len(seen) >= 3 and len(set(seen)) == len(seen)


def test_oscillatory_weight_raises_the_barrier(osc_spec, osc_solve):
    osc_setup, res = osc_solve
    assert osc_setup.sigma0 == 8.0
    assert res.converged is True
    assert 0.0 < res.level <= ctilde_bound(osc_setup, osc_spec)
    lhs, _, gap = h_identity(res.u, osc_spec)
    assert gap <= 1e-6 * (1.0 + abs(res.level))


def test_solver_grid_mismatch_is_rejected(spec10, setup):
    """A setup or a warm guess off the spec's grid, or with another component count, is rejected."""
    coarse = RealLineGrid(20.0, 1024)
    other_spec = dataclasses.replace(spec10, grid=coarse)
    with pytest.raises(DomainError):
        mpa_solve(other_spec, setup)
    with pytest.raises(DomainError):
        mpa_solve(spec10, setup, initial_guess=GridFunction(coarse, np.zeros(1024)))
    two = np.pad(setup.e.values, ((0, 0), (0, 1)))  # the endpoint with a zero second component
    pair = dataclasses.replace(setup, e=GridFunction(spec10.grid, two))
    with pytest.raises(DomainError, match="components"):
        mpa_solve(spec10, pair)
    with pytest.raises(DomainError, match="components"):
        mpa_solve(dataclasses.replace(spec10, n=2), pair, initial_guess=setup.e)


def test_interval_solve_keeps_dirichlet_data(bvp_result, interval_spec):
    res = bvp_result
    assert res.converged is True
    assert res.metric == "interval-stiffness"
    assert res.residual_weighted <= 1e-8
    assert res.level > 0.0
    assert np.all(res.u.values[0] == 0.0) and np.all(res.u.values[-1] == 0.0)


# ---------------------------------------------------------------------------
# Line searches on the segment expansion, the ctilde ray, the FFT budget.
# ---------------------------------------------------------------------------


_OSC_WEIGHTED = dataclasses.replace(default_oscillatory(), weight_amp=0.3, weight_freq=2.0)


def _segment_problem(domain, n, nonlinearity):
    """A spec of the given domain and two candidate points of moderate energy."""
    rng = np.random.default_rng(7 + n)
    if domain == "line":
        grid = RealLineGrid(20.0, 1024)
        potential = default_potential()
        if n == 2:
            potential = dataclasses.replace(potential, kind="diagonal", diag_scales=(1.0, 2.0))
        spec = ProblemSpec(alpha=0.75, lam=10.0, potential=potential,
                           nonlinearity=nonlinearity, grid=grid, n=n)
        t = grid.nodes

        def field():
            cols = [rng.uniform(0.5, 1.5) * np.exp(-((t - rng.uniform(-1, 1)) ** 2))
                    for _ in range(n)]
            return np.stack(cols, axis=1)
    else:
        spec = IntervalProblemSpec(alpha=0.75, nonlinearity=nonlinearity,
                                   grid=IntervalGrid(-0.4, 0.4, 129), n=n)

        def field():
            return np.stack([sample_interval_function(spec.grid, rng, 1) for _ in range(n)],
                            axis=1)
    op = functional._operator(spec)
    return op, field(), 2.0 * field()


def _measure(op, a, b):
    """``_measure_segment`` between the nodes of ``a`` and ``b``, as ``ctilde_bound`` takes them."""
    return mpa._measure_segment(op, mpa._node(op, a), mpa._node(op, b))


@pytest.mark.parametrize("nonlinearity", [default_nonlinearity(), _OSC_WEIGHTED],
                         ids=["pure_power", "oscillatory"])
@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("domain", ["line", "interval"])
def test_segment_expansion_matches_direct_energies(domain, n, nonlinearity):
    """Three reductions reproduce every energy on the segment; the crest is evaluated."""
    op, a, b = _segment_problem(domain, n, nonlinearity)
    thetas = np.linspace(0.0, 1.0, 41)
    stack = (1.0 - thetas)[:, None, None] * a[None] + thetas[:, None, None] * b[None]
    direct = op.energies(stack)
    at, bt = op.transform(a), op.transform(b)
    forms = tuple(float(op.transformed_form(x, xt, y, yt))
                  for x, xt, y, yt in ((a, at, a, at), (a, at, b, bt), (b, bt, b, bt)))
    expanded = mpa._segment_energies(op, a, b, forms, thetas)
    assert np.max(np.abs(expanded - direct)) <= 1e-12 * np.max(np.abs(direct))
    # The scan integrates W over row chunks of the stack; each row keeps its bits.
    s = 1.0 - thetas
    quad = s * s * forms[0] + 2.0 * thetas * s * forms[1] + thetas * thetas * forms[2]
    assert np.array_equal(expanded, 0.5 * quad - op.wint(stack))
    seg = _measure(op, a, b)
    assert 0.0 < seg.theta < 1.0
    # A crest at an end node reports that node's own energy; any other crest
    # the energy of the point the path engine would insert.
    ends = {mpa._ROOT_TOL: a, 1.0 - mpa._ROOT_TOL: b}
    crest = ends.get(seg.theta, (1.0 - seg.theta) * a + seg.theta * b)
    assert seg.value == op.energy(crest)
    assert seg.value >= np.max(direct[1:-1]) - 1e-12 * np.max(np.abs(direct))


@pytest.mark.parametrize("p", [4.0, 6.0])
@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("domain", ["line", "interval"])
def test_w_along_a_segment_is_its_bernstein_polynomial(domain, n, p):
    """For an even pure power, ``wint`` and ``wslope`` along a segment are one polynomial.

    ``sum_k I_k th^k (1 - th)^(p - k)`` and its derivative match the
    sampled ``wint`` and ``wslope`` within 1e-13 of ``int g (|a| + |b|)^p``,
    which bounds every term.  ``p = 3`` and the oscillatory family have no
    polynomial.
    """
    nonlinearity = NonlinearitySpec(kind="pure_power", p=p, weight_amp=0.3, weight_freq=2.0)
    op, a, b = _segment_problem(domain, n, nonlinearity)
    for x, y in ((a, b), (b, -0.5 * a), (np.zeros_like(a), b)):
        coeffs = op.wint_bernstein(x, y)
        assert len(coeffs) == int(p) + 1
        mags = np.linalg.norm(x, axis=1) + np.linalg.norm(y, axis=1)
        scale = float(op.wint(mags[:, None]))
        for th in (0.0, 0.3, 0.7, 1.0):
            u = (1.0 - th) * x + th * y
            assert abs(mpa._bernstein(coeffs, th) - op.wint(u)) <= 1e-13 * scale
            slope = mpa._bernstein(coeffs, th, slope=True)
            assert abs(slope - op.wslope(u, y - x)) <= 1e-13 * scale
    for other in (dataclasses.replace(nonlinearity, p=3.0), _OSC_WEIGHTED):
        op, a, b = _segment_problem(domain, n, other)
        assert op.wint_bernstein(a, b) is None


@pytest.mark.parametrize("nonlinearity", [default_nonlinearity(), _OSC_WEIGHTED],
                         ids=["pure_power", "oscillatory"])
@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("domain", ["line", "interval"])
def test_wslope_is_the_derivative_of_wint(domain, n, nonlinearity):
    """``wslope(u, d)`` is ``d/ds wint(u + s d)`` at ``s = 0``, one row per candidate."""
    op, a, b = _segment_problem(domain, n, nonlinearity)
    d = b - a
    step = 1e-5
    central = (op.wint(a + step * d) - op.wint(a - step * d)) / (2.0 * step)
    slope = float(op.wslope(a, d))
    assert abs(slope - central) <= 1e-8 * abs(slope)
    stack = np.stack([a, b, 0.5 * (a + b)])
    rows = op.wslope(stack, d)
    assert rows.shape == (3,)
    assert all(r == op.wslope(x, d) for r, x in zip(rows, stack))


def _segment_cases(grid, n):
    """Segment ends ``(a, b)``: zero to bump, bump to bump, bump to full support,
    full to full, and bumps touching either edge of the box."""
    t = grid.nodes
    width = 0.05 * (t[-1] - t[0])

    def bump(center, scale=1.0):
        # Adding +0.0 turns the -0.0 of a negative scale into +0.0 off the support.
        cols = [(1.0 + 0.5 * k) * scale * np.clip(1.0 - ((t - center - 0.3 * k * width) / width) ** 2,
                                                  0.0, None) ** 3 + 0.0 for k in range(n)]
        return np.stack(cols, axis=1)

    def full(scale):
        cols = [scale * (1.0 + 0.2 * k) * (1.5 + np.cos(3.0 * t / width + k)) for k in range(n)]
        return np.stack(cols, axis=1)

    mid = 0.5 * (t[0] + t[-1])
    zero = np.zeros((grid.num_points, n))
    return {
        "zero-bump": (zero, bump(mid, 2.0)),
        "bump-bump": (bump(mid - width), bump(mid + 0.5 * width, -1.5)),
        "bump-full": (bump(mid, 1.5), full(0.3)),
        "full-full": (full(0.2), -full(0.4)),
        "edge-bump": (bump(t[0]), bump(t[0] + width, 0.7)),
        "bump-edge": (bump(t[-1] - 0.5 * width, 1.2), bump(t[-1])),
    }


@pytest.mark.parametrize("nonlinearity", [
    default_nonlinearity(),
    NonlinearitySpec(kind="pure_power", p=2.0),
    _OSC_WEIGHTED,
], ids=["p4", "p2", "oscillatory"])
@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("domain", ["line", "interval"])
def test_span_restricted_w_matches_the_whole_grid(domain, n, nonlinearity):
    """``wint``/``wslope`` of a stack of segment points give the pointwise oracle's bits.

    The oracle evaluates ``W`` and its slope on every node and reduces with
    the domain's quadrature; single points give the bits of their stack
    row.  ``p = 2`` has ``w'(r)/r = 2`` at ``r = 0``.
    """
    if domain == "line":
        grid = RealLineGrid(20.0, 1024)
        spec = ProblemSpec(alpha=0.75, lam=10.0, potential=default_potential(),
                           nonlinearity=nonlinearity, grid=grid, n=n)

        def reduce(rows):
            return grid.spacing * np.sum(rows, axis=-1)
    else:
        grid = IntervalGrid(-0.4, 0.4, 129)
        spec = IntervalProblemSpec(alpha=0.75, nonlinearity=nonlinearity, grid=grid, n=n)

        def reduce(rows):
            return np.vecdot(rows, grid.trapezoid_weights)
    op = functional._operator(spec)
    weight = weight_values(nonlinearity, grid.nodes)
    thetas = np.array([0.0, 0.125, 0.5, 0.8, 1.0])
    for name, (a, b) in _segment_cases(grid, n).items():
        d = b - a
        stack = (1.0 - thetas)[:, None, None] * a + thetas[:, None, None] * b
        whole_w = reduce(_weighted_w(nonlinearity, weight, stack))
        whole_slope = reduce(_weighted_slope(nonlinearity, weight, stack, d))
        assert np.array_equal(op.wint(stack), whole_w), name
        assert np.array_equal(op.wslope(stack, d), whole_slope), name
        energies = op.energies(stack)
        for u, w_ref, e_ref in zip(stack, whole_w, energies):
            assert op.wint(u) == w_ref, name
            assert op.energy(u) == e_ref, name


@pytest.mark.parametrize("nonlinearity", [default_nonlinearity(), _OSC_WEIGHTED],
                         ids=["pure_power", "oscillatory"])
@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("domain", ["line", "interval"])
def test_measured_crest_is_a_root_of_the_slope(domain, n, nonlinearity):
    """On a segment from 0 past the barrier the crest is interior and the energy flat there."""
    op, a, _ = _segment_problem(domain, n, nonlinearity)
    b = mpa._doubling_scan(op, mpa._node(op, a), "no negative energy")[1].x
    zero = np.zeros_like(a)
    seg = _measure(op, zero, b)
    assert 0.01 < seg.theta < 0.99
    assert seg.value == op.energy((1.0 - seg.theta) * zero + seg.theta * b)
    step = 1e-5
    ends = op.energies(np.stack([(seg.theta - step) * b, (seg.theta + step) * b]))
    central = (ends[1] - ends[0]) / (2.0 * step)
    # The slope's scale along this segment: the drop from the crest to e.
    assert abs(central) <= 1e-7 * (seg.value - op.energy(b))
    assert seg.value >= op.energies(np.linspace(0.0, 1.0, 65)[:, None, None] * b).max()


def _recorded_segments(monkeypatch, solve):
    """Run ``solve()``; return its result and every ``_measure_segment`` call with its outcome."""
    calls = []
    measure = mpa._measure_segment

    def recorded(op, a, b):
        seg = measure(op, a, b)
        calls.append((op, a, b, seg))
        return seg

    monkeypatch.setattr(mpa, "_measure_segment", recorded)
    try:
        return solve(), calls
    finally:
        monkeypatch.setattr(mpa, "_measure_segment", measure)


def _case_solve(case, spec10, setup, line_grid, potential, interval_spec):
    """A solve to record segments from: the default line solve, an ``n = 2`` one, or ``bvp``."""
    if case == "line":
        return lambda: mpa_solve(spec10, setup)
    if case == "bvp":
        return lambda: bvp_solve(interval_spec, MpaConfig(tol=1e-8))
    if case == "line-n2-diagonal":
        spec = dataclasses.replace(spec10, n=2, potential=dataclasses.replace(
            potential, kind="diagonal", diag_scales=(1.0, 2.0)))
    else:
        spec = _solve_vector_spec(line_grid, potential)
    setup2 = construct_e(spec, constants=estimate_embedding_constants(
        line_grid, spec.alpha, spec.potential))
    return lambda: mpa_solve(spec, setup2)


@pytest.mark.parametrize("case", ["line", "line-n2-oscillatory", "bvp"])
def test_node_records_leave_every_segment_bit_for_bit(case, spec10, setup, line_grid, potential,
                                                      interval_spec, monkeypatch):
    """A segment measured between stored nodes equals one between freshly computed nodes.

    The oracle transforms both ends, takes the three cross forms and
    evaluates the energies itself; every ``theta`` and ``value`` agrees bit
    for bit.
    """
    solve = _case_solve(case, spec10, setup, line_grid, potential, interval_spec)
    res, calls = _recorded_segments(monkeypatch, solve)
    assert res.converged
    assert calls
    for op, a, b, seg in calls:
        x, y = a.x, b.x
        xt, yt = op.transform(x), op.transform(y)
        qs = (float(op.transformed_form(x, xt, x, xt)), float(op.transformed_form(y, yt, y, yt)))
        energies = (op.energy(x), op.energy(y))
        assert (a.energy, b.energy) == energies
        assert (a.q, b.q) == qs
        assert op.transformed_form(x, a.coeffs, y, b.coeffs) == op.transformed_form(x, xt, y, yt)
        fresh = [mpa._Node(x=v, coeffs=vt, q=q, energy=e)
                 for v, vt, q, e in zip((x, y), (xt, yt), qs, energies)]
        again = mpa._measure_segment(op, *fresh)
        assert (again.theta, again.value) == (seg.theta, seg.value)


@pytest.mark.parametrize("case", ["line", "line-n2-oscillatory", "bvp"])
def test_a_solve_measures_the_crest_of_0_to_e_once(case, spec10, setup, line_grid, potential,
                                                   interval_spec, monkeypatch):
    """A cold line solve measures only its path's segments; ``construct_e`` measured the crest.

    ``bvp_solve`` has no setup, so it measures the crest of its own ``0 -> e``
    once before the path's segments.
    """
    solve = _case_solve(case, spec10, setup, line_grid, potential, interval_spec)
    res, calls = _recorded_segments(monkeypatch, solve)
    assert res.converged
    assert len(calls) == res.diagnostics["counters"]["segments"] + (case == "bvp")


def test_the_cold_start_is_the_crest_node_of_0_to_e(spec10, setup, line_grid, potential):
    """``setup.crest_theta * e`` is the crest node of ``0 -> e`` to the last bit, signs of zero too.

    Cases: the default problem and the solve-vector family.
    """
    vector = _solve_vector_spec(line_grid, potential)
    vector_setup = construct_e(vector, constants=estimate_embedding_constants(
        line_grid, vector.alpha, vector.potential))
    for spec, s in ((spec10, setup), (vector, vector_setup)):
        op = functional._operator(spec)
        crest = mpa._straight_path_crest(op, mpa._node(op, s.e.values))
        assert (crest.theta, crest.value) == (s.crest_theta, s.ctilde)
        assert 0.0 < s.crest_theta < 1.0
        assert (s.crest_theta * s.e.values).tobytes() == crest.node.x.tobytes()


def test_certificate_is_off_for_oscillatory(osc_spec, osc_solve, spec10, setup):
    """No segment is certified monotone without a scan, for either family.

    The convex default ``W`` had such a certificate; it skipped no segment
    once runs started on a Newton-polished point, and is gone.  Past the
    crest of the straight path the energy falls toward ``e``, and the scan
    reports that segment's first end exactly, for both families.
    """
    osc_setup, res = osc_solve
    assert res.converged
    for spec, e in ((spec10, setup.e.values), (osc_spec, osc_setup.e.values)):
        op = functional._operator(spec)
        a = 0.95 * e
        seg = _measure(op, a, e)
        assert (seg.theta, seg.value) == (mpa._ROOT_TOL, op.energy(a))


def test_straight_path_crest_is_scanned(spec10, setup, ctilde):
    """The segment ``0 -> e`` rises and then falls; the scan finds its interior crest, ``ctilde``."""
    op = functional._operator(spec10)
    e = setup.e.values
    zero = np.zeros_like(e)
    seg = _measure(op, zero, e)
    assert 0.01 < seg.theta < 0.99
    assert seg.value == ctilde


def test_flat_segments_are_scanned(bvp_result, interval_spec):
    """Next to a critical point the energy is flat to round-off, and a scan still measures it.

    Short segments from the ``bvp`` crest in random directions report the
    energy of their crest node, within round-off of the higher end.
    """
    op = functional._operator(interval_spec)
    u = bvp_result.u.values
    rng = np.random.default_rng(0)
    for scale in (1e-6, 1e-8, 1e-10):
        for _ in range(4):
            v = np.zeros_like(u)
            v[1:-1] = rng.normal(size=(u.shape[0] - 2, u.shape[1]))
            b = u + scale * (np.linalg.norm(u) / np.linalg.norm(v)) * v
            for x, y in ((u, b), (b, u)):
                seg = _measure(op, x, y)
                top = max(op.energy(x), op.energy(y))
                assert seg.value == op.energy((1.0 - seg.theta) * x + seg.theta * y) or (
                    seg.theta in (mpa._ROOT_TOL, 1.0 - mpa._ROOT_TOL))
                assert abs(seg.value - top) <= 1e-14 * (1.0 + abs(top))


def test_default_sweep_scan_budget(sweep_report):
    """A default sweep measures at most 16 segments, 10% above the 15 it takes.

    Every run starts on ``0 -> u -> sigma u -> e`` and converges at once:
    three segments each (118 from the three-node start, 194 from 21 nodes).
    """
    runs = [rec["diagnostics"]["counters"] for rec in sweep_report.records]
    runs.append(sweep_report.bvp_reference.diagnostics["counters"])
    assert 0 < sum(c["segments"] for c in runs) <= 16


def test_default_sweep_newton_budget(sweep_report):
    """A default sweep's polishes take at most 140 MINRES iterations, and warm rungs 5, 4, 4 steps.

    The budget is 10% above the 128 it takes (118 from the three-node path
    start, 151 from 21 nodes with MINRES at a fixed tolerance); every
    iteration is now the Newton start's.  The cold first rung takes 7 Newton
    steps and the ``bvp`` reference 6; warm rungs took 3 each on the path.
    """
    runs = [rec["diagnostics"]["counters"] for rec in sweep_report.records]
    runs.append(sweep_report.bvp_reference.diagnostics["counters"])
    assert 0 < sum(c["minres_iterations"] for c in runs) <= 140
    assert [c["newton_steps"] for c in runs[1:-1]] == [5, 4, 4]


def test_initial_ray_refines_in_a_few_inserts(spec10, setup):
    """Inserting a measured crest gives the node its exact value, so ``crest()`` stops inserting."""
    config = MpaConfig()
    e = setup.e.values
    nodes = [w * e for w in np.linspace(0.0, 1.0, config.path_nodes)]
    op = functional._operator(spec10)
    engine = mpa._PathEngine(op, [mpa._node(op, x) for x in nodes])
    inserted = -1
    while engine.counters["inserted"] > inserted:
        inserted = engine.counters["inserted"]
        engine.crest()
    assert engine.counters["inserted"] <= 4
    assert max(s.value for s in engine.segments) <= max(node.energy for node in engine.nodes)


def _scalar_ray_bound(setup, spec):
    """The ray maximum from direct single energies at 2048 points up to ``sigma0``.

    The best point is refined to a root of the ray slope
    ``sigma ||psi||_X^2 - int grad W(sigma psi) . psi``.
    """
    op = functional._operator(spec)
    psi = setup.psi.values
    qf = float(op.xnormsq(psi))
    sigmas = np.linspace(0.0, setup.sigma0, 2049)[1:]
    energies = np.array([op.energy(s * psi) for s in sigmas])
    i = int(np.argmax(energies))
    lo, hi = sigmas[max(i - 1, 0)], sigmas[min(i + 1, len(sigmas) - 1)]
    sigma = mpa._slope_crest(lambda s: s * qf - float(op.wslope(s * psi, psi)),
                             sigmas[i], lo, hi)
    return max(float(energies[i]), op.energy(sigma * psi))


def test_batched_ray_matches_scalar_loop(spec10, line_grid, potential):
    """The measured straight path agrees with the direct ray scan, and ``setup.ctilde`` is its bits.

    Cases: the default problem, the oscillatory family with n=2, the
    solve-vector family (diagonal potential, weighted oscillatory ``W``) and
    ``alpha = 0.51`` on a narrower admissible well.
    """
    vector = _solve_vector_spec(line_grid, potential)
    cases = [
        spec10,
        ProblemSpec(alpha=0.75, lam=10.0, potential=potential,
                    nonlinearity=default_oscillatory(), grid=line_grid, n=2),
        vector,
        dataclasses.replace(spec10, alpha=0.51, potential=PotentialSpec(0.2, 0.02, 6.0, 1.5)),
    ]
    for spec in cases:
        constants = estimate_embedding_constants(line_grid, spec.alpha, spec.potential)
        setup = construct_e(spec, constants=constants)
        reference = _scalar_ray_bound(setup, spec)
        assert abs(ctilde_bound(setup, spec) - reference) <= 1e-13 * reference, spec
        assert setup.ctilde == ctilde_bound(setup, spec), spec


def test_default_solve_fft_budget(spec10, setup, monkeypatch):
    """Line searches run no transform, and crests come from slope roots.

    A default solve stays within 163 FFT calls, 10% above the 148 it makes
    from the Newton start (212 while each checked metric solve transformed
    its ``g`` again; 217 while the path engine evaluated ``u``,
    ``sigma u`` and ``e`` again; 220 while it re-measured the crest of
    ``0 -> e`` that ``construct_e`` had measured; 352 from the three-node
    path start; 389 from the 21-node cold start with MINRES at a fixed
    tolerance; 397 before the tie rule reused the last iteration's check,
    466 before each crest, descent and polish candidate was evaluated once
    as the node it becomes; 536 before path nodes kept their transforms and
    each MINRES step reused its metric solve's product), and within 21 ``W``
    rows, 10% above the 19 it makes: 4 ``wint`` rows of node energies
    (``0``, ``u``, ``sigma u``, ``e``) plus the ``p + 1 = 5`` rows of each
    of 3 ``wint_bernstein`` reductions, one per segment of the start (21
    while the engine evaluated ``u`` and ``sigma u`` again; 29 with the
    crest of ``0 -> e`` measured again; 180 from the three-node start, 396
    from the 21-node start).  Before
    segments took the polynomial of ``W`` they sampled it in 710 rows,
    under a budget of 2000.
    """
    calls, rows = [], []
    for name in ("rfft", "irfft"):
        original = getattr(np.fft, name)

        def counted(*args, _original=original, **kwargs):
            calls.append(1)
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    for name in ("wint", "wslope", "wint_bernstein"):
        original = getattr(functional._LineOperator, name)

        def counted_rows(self, vals, *args, _original=original, _name=name):
            out = _original(self, vals, *args)
            if _name == "wint_bernstein":
                rows.append(len(out))
            else:
                rows.append(1 if vals.ndim == 2 else len(vals))
            return out

        monkeypatch.setattr(functional._LineOperator, name, counted_rows)
    res = mpa_solve(spec10, setup)
    assert res.converged is True
    assert 0 < len(calls) <= 163
    assert 0 < sum(rows) <= 21


def _energy_call_scopes() -> set[str]:
    """Dotted scopes in ``mpa.py`` that call a method named ``energy`` or ``energies``."""
    found = set()

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                    and child.func.attr in ("energy", "energies")):
                found.add(scope)
            walk(child, inner)

    walk(ast.parse(pathlib.Path(mpa.__file__).read_text(encoding="utf-8")), "")
    return found


def test_a_path_point_has_one_evaluator():
    """``_node(op, x)`` alone evaluates a path point or a doubling-scan trial in ``mpa``.

    Every crest, descent candidate and polished point becomes a node once,
    and every later use reads that node, so no second evaluation has to
    reproduce its energy bit for bit.
    """
    assert _energy_call_scopes() == set()
    assert list(inspect.signature(mpa._node).parameters) == ["op", "x"]


def test_edge_to_peak_is_recorded_without_warning(default_solve, sweep_report, tmp_path, capsys):
    assert 0.0 < default_solve.diagnostics["edge_to_peak"] < 1e-3
    assert all(0.0 < rec["diagnostics"]["edge_to_peak"] < 1e-3 for rec in sweep_report.records)
    out = tmp_path / "run"
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"embedding": {"samples": 200}}), encoding="utf-8")
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert "BoundaryDecayWarning" not in captured.out + captured.err
    payload = json.loads((out / "result.json").read_text(encoding="utf-8"))
    assert 0.0 < payload["diagnostics"]["edge_to_peak"] < 1e-3


def test_edge_to_peak_on_a_narrow_box_is_silent(potential, nonlin, constants):
    """A box that truncates the solution reports a large ratio and warns nowhere."""
    spec = ProblemSpec(alpha=0.75, lam=10.0, potential=potential, nonlinearity=nonlin,
                       grid=RealLineGrid(1.5, 256))
    setup = construct_e(spec, constants=constants)
    with warnings.catch_warnings():
        warnings.simplefilter("error", BoundaryDecayWarning)
        res = mpa_solve(spec, setup)
    ratio = res.diagnostics["edge_to_peak"]
    assert ratio > 1e-3
    with pytest.warns(BoundaryDecayWarning):
        assert check_boundary_decay(res.u) == ratio
