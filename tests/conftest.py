"""Shared fixtures: the default problem instance, solved once per session.

The expensive objects (embedding constants, geometry, the default solve, the
interval reference, the four-rung sweep) are session-scoped so every test
module reuses the same computation.  ``interval_stiffness`` gives the dense
matrix that the interval operator's matrix-free products are tested against.
"""

import functools
import re

import numpy as np
import pytest

from fracham import (
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
    estimate_embedding_constants,
    lambda_sweep,
    mpa_solve,
)
from fracham.fracops import gl_matrix
from fracham.problem import default_oscillatory

SEED = 20260816


@pytest.fixture(scope="session")
def line_grid():
    return RealLineGrid(halfwidth=20.0, num_points=4096)


@pytest.fixture(scope="session")
def potential():
    return default_potential()


@pytest.fixture(scope="session")
def nonlin():
    return default_nonlinearity()


@pytest.fixture(scope="session")
def spec10(line_grid, potential, nonlin):
    return ProblemSpec(
        alpha=0.75, lam=10.0, potential=potential, nonlinearity=nonlin, grid=line_grid
    )


@pytest.fixture(scope="session")
def constants(line_grid, potential):
    return estimate_embedding_constants(line_grid, 0.75, potential)


@pytest.fixture(scope="session")
def setup(spec10, constants):
    return construct_e(spec10, constants=constants)


@pytest.fixture(scope="session")
def ctilde(setup, spec10):
    return float(ctilde_bound(setup, spec10))


@pytest.fixture(scope="session")
def default_solve(spec10, setup):
    return mpa_solve(spec10, setup)


@pytest.fixture(scope="session")
def interval_grid(potential):
    return IntervalGrid(-potential.varrho, potential.varrho, 257)


@pytest.fixture(scope="session")
def interval_spec(interval_grid, nonlin):
    return IntervalProblemSpec(alpha=0.75, nonlinearity=nonlin, grid=interval_grid)


@pytest.fixture(scope="session")
def bvp_result(interval_spec):
    return bvp_solve(interval_spec, MpaConfig(tol=1e-8))


@pytest.fixture(scope="session")
def osc_spec(line_grid, potential):
    return ProblemSpec(
        alpha=0.75,
        lam=10.0,
        potential=potential,
        nonlinearity=default_oscillatory(),
        grid=line_grid,
    )


@pytest.fixture(scope="session")
def osc_solve(osc_spec, constants):
    osc_setup = construct_e(osc_spec, constants=constants)
    return osc_setup, mpa_solve(osc_spec, osc_setup)


@pytest.fixture(scope="session")
def sweep_report(spec10, constants):
    return lambda_sweep(spec10, [1.0, 10.0, 100.0, 1000.0], constants=constants)


@functools.lru_cache(maxsize=None)
def _interval_stiffness(grid: IntervalGrid, alpha: float) -> np.ndarray:
    """Interior block of the composed operator matrix ``h * B^T B``.

    For Dirichlet functions the full quadratic form ``u^T (h B^T B) u`` equals
    ``h * ||B u||^2``, the discrete squared ``L^2`` norm of the GL derivative;
    restricting to interior degrees of freedom folds in the boundary
    conditions.  The block is symmetric positive definite.

    No solver path forms this matrix: the interval operator applies it as two
    GL matvecs and inverts it in closed form.  This is the dense reference
    the tests compare against.
    """
    b = gl_matrix(grid, alpha)
    a = grid.spacing * (b.T @ b)
    a = a[1:-1, 1:-1].copy()
    a = 0.5 * (a + a.T)
    a.setflags(write=False)
    return a


@pytest.fixture(scope="session")
def interval_stiffness():
    """The dense reference ``(grid, alpha) -> h B^T B`` on the interior nodes."""
    return _interval_stiffness


_CRITERION_ID = re.compile(r"test_acceptance\.py::test_criterion_(\d+)")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Print one PASS/FAIL line per acceptance criterion test."""
    outcomes = {}
    for category, flag in (
        ("passed", "PASS"),
        ("failed", "FAIL"),
        ("error", "FAIL"),
        ("skipped", "FAIL"),
    ):
        for report in terminalreporter.stats.get(category, []):
            match = _CRITERION_ID.search(getattr(report, "nodeid", "") or "")
            if match is None:
                continue
            k = int(match.group(1))
            if flag == "FAIL" or k not in outcomes:
                outcomes[k] = flag
    if not outcomes:
        return
    terminalreporter.section("acceptance criteria")
    for k in sorted(outcomes):
        terminalreporter.write_line(f"CRITERION {k}: {outcomes[k]}")
