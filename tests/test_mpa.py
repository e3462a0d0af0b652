"""Certified barrier geometry and the polyline min-max solver."""

import dataclasses

import numpy as np
import pytest
import scipy.sparse.linalg

from fracham import (
    ConfigError,
    DomainError,
    GeometryError,
    GridFunction,
    IntervalGrid,
    IntervalProblemSpec,
    MpaConfig,
    NonlinearitySpec,
    RealLineGrid,
    bvp_solve,
    construct_e,
    ctilde_bound,
    energy,
    estimate_rho_eta,
    h_identity,
    mpa_solve,
    norm_x_lambda,
    quadratic_form_alpha,
)
from fracham.problem import w_values


def test_config_validation():
    with pytest.raises(ConfigError):
        MpaConfig(path_nodes=2)
    with pytest.raises(ConfigError):
        MpaConfig(path_nodes=21, max_path_nodes=5)
    with pytest.raises(ConfigError):
        MpaConfig(tol=0.0)
    with pytest.raises(ConfigError):
        MpaConfig(tol=1.0)
    with pytest.raises(ConfigError):
        MpaConfig(restarts=-1)


def test_sphere_radius_and_floor_closed_form(spec10, constants):
    """Constants chosen so the sphere bracket collapses to 1/4 - rho^2."""
    theta, meas = constants.theta, constants.meas_lc
    eps = 0.5 * theta
    c_eps = 4.0 * theta * theta * meas
    rho, eta = estimate_rho_eta(spec10, eps, c_eps, 4.0, constants=constants)
    radii = np.logspace(-6, 3, 1801)
    bracket = 0.25 - radii**2
    expected_rho = float(radii[bracket > 0.0][-1])
    assert rho == expected_rho
    assert eta == float(expected_rho**2 * (0.25 - expected_rho**2))
    assert 0.0 < rho < 0.5 and eta > 0.0


def test_sphere_bound_error_paths(spec10, constants):
    theta = constants.theta
    with pytest.raises(GeometryError):
        estimate_rho_eta(spec10, theta, 1.0, 4.0, constants=constants)
    with pytest.raises(GeometryError):
        estimate_rho_eta(spec10, 2.0 * theta, 1.0, 4.0, constants=constants)
    with pytest.raises(GeometryError):
        estimate_rho_eta(spec10, 0.5 * theta, 1.0, 2.0, constants=constants)
    with pytest.raises(GeometryError):
        estimate_rho_eta(spec10, 0.5 * theta, 1e30, 4.0, constants=constants)


def test_endpoint_construction_invariants(setup, spec10, ctilde):
    diag = spec10.potential_diagonal()
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
    for key in ("inserted", "pruned", "step_rejections", "guard_rejections",
                "polish_accepted", "polish_rejected"):
        assert counters[key] >= 0


def test_newton_minres_iterations_do_not_grow_with_lambda(spec10, setup, monkeypatch):
    """The metric-preconditioned polish needs few MINRES steps at any lambda."""
    minres = scipy.sparse.linalg.minres
    solves = []

    def counted(*args, **kwargs):
        steps = []
        x, info = minres(*args, callback=lambda xk: steps.append(1), **kwargs)
        solves.append((len(steps), info))
        return x, info

    monkeypatch.setattr(scipy.sparse.linalg, "minres", counted)
    for lam in (1.0, 1e4):
        solves.clear()
        res = mpa_solve(spec10.with_lambda(lam), setup)
        assert res.converged is True
        assert res.diagnostics["counters"]["polish_accepted"] >= 1
        assert solves and all(info == 0 and steps <= 30 for steps, info in solves), solves


def test_solution_satisfies_defect_identity(default_solve, spec10):
    lhs, _, gap = h_identity(default_solve.u, spec10)
    assert gap <= 1e-6 * (1.0 + abs(lhs))


def test_warm_start_reuses_the_solution(spec10, setup, default_solve):
    warm = mpa_solve(spec10, setup, initial_guess=default_solve.u)
    assert warm.converged is True
    assert warm.iterations <= default_solve.iterations
    assert abs(warm.level - default_solve.level) < 1e-6 * default_solve.level


def test_restart_reaches_the_same_level(spec10, setup, default_solve):
    res = mpa_solve(spec10, setup, MpaConfig(restarts=1))
    assert res.converged is True
    assert abs(res.level - default_solve.level) < 1e-6 * default_solve.level


def test_oscillatory_weight_raises_the_barrier(osc_spec, osc_solve):
    osc_setup, res = osc_solve
    assert osc_setup.sigma0 == 8.0
    assert res.converged is True
    assert 0.0 < res.level <= ctilde_bound(osc_setup, osc_spec)
    lhs, _, gap = h_identity(res.u, osc_spec)
    assert gap <= 1e-6 * (1.0 + abs(res.level))


def test_solver_grid_mismatch_is_rejected(spec10, setup):
    coarse = RealLineGrid(20.0, 1024)
    other_spec = dataclasses.replace(spec10, grid=coarse)
    with pytest.raises(DomainError):
        mpa_solve(other_spec, setup)
    with pytest.raises(DomainError):
        mpa_solve(spec10, setup, initial_guess=GridFunction.zeros(coarse))


def test_interval_solve_keeps_dirichlet_data(bvp_result, interval_spec):
    res = bvp_result
    assert res.converged is True
    assert res.metric == "interval-stiffness"
    assert res.residual_weighted <= 1e-8
    assert res.level > 0.0
    assert np.all(res.u.values[0] == 0.0) and np.all(res.u.values[-1] == 0.0)


def test_interval_solver_rejects_foreign_guess(interval_spec):
    stranger = GridFunction(IntervalGrid(-0.4, 0.4, 33), np.zeros(33))
    with pytest.raises(DomainError):
        bvp_solve(interval_spec, initial_guess=stranger)
