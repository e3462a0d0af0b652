"""Property tests over the problem's edge inputs.

Hypothesis draws the order ``alpha`` in (0.51, 0.99), the line size N from
256 to 4096, ``n`` in {1, 2}, the potential kind, the nonlinearity family
and ``lambda`` up to 1e8.  The properties: the quadratic form is the
energy of the derivative, the metric solve meets its residual bound, the
metric gradient has its defining property, the defect identity holds, and
Dirichlet zeros are exact.  The examples are derandomized, so every run
checks the same cases, and no example database is written.
"""

import dataclasses

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fracham import (
    GridFunction,
    IntervalGrid,
    IntervalProblemSpec,
    ProblemSpec,
    RealLineGrid,
    default_nonlinearity,
    default_potential,
    derivative_action,
    gradient_rep,
    h_identity,
    liouville_weyl_left,
    quadratic_form_alpha,
)
from fracham import functional, mpa
from fracham.problem import default_oscillatory
from fracham.spaces import sample_interval_function

PROPERTY = settings(deadline=None, max_examples=25, derandomize=True, database=None)

alphas = st.floats(0.51, 0.99)
sizes = st.sampled_from([256, 512, 1024, 2048, 4096])
components = st.sampled_from([1, 2])
lambdas = st.floats(0.0, 8.0).map(lambda e: 10.0**e)
families = st.sampled_from([default_nonlinearity(), default_oscillatory()])
seeds = st.integers(0, 2**32 - 1)


def _line_field(grid, n, rng):
    """Random trig polynomials under a Gaussian envelope, one per component."""
    t = grid.nodes
    cols = []
    for _ in range(n):
        k = rng.uniform(0.3, 2.0, size=3)
        a, b = rng.normal(size=(2, 3))
        wave = a @ np.cos(np.outer(k, t)) + b @ np.sin(np.outer(k, t))
        cols.append(wave * np.exp(-((t - rng.uniform(-2, 2)) ** 2) / 8.0))
    return np.stack(cols, axis=1)


def _interval_field(grid, n, rng):
    return np.stack([sample_interval_function(grid, rng, k % 2) for k in range(n)], axis=1)


def _line_spec(alpha, lam, size, nonlinearity, n=1, scales=None):
    potential = default_potential()
    if scales is not None:
        potential = dataclasses.replace(potential, kind="diagonal", diag_scales=scales)
    return ProblemSpec(alpha=alpha, lam=lam, potential=potential, nonlinearity=nonlinearity,
                       grid=RealLineGrid(20.0, size), n=n)


# The extremes, checked on every run besides the drawn examples.
EDGE_LINE_SPECS = [
    _line_spec(0.51, 1e8, 4096, default_oscillatory(), n=2, scales=(1.0, 4.0)),
    _line_spec(0.99, 1e8, 4096, default_nonlinearity()),
]


@st.composite
def line_specs(draw):
    n = draw(components)
    scales = None
    if draw(st.booleans()):
        scales = tuple(draw(st.floats(1.0, 4.0)) for _ in range(n))
    return _line_spec(draw(alphas), draw(lambdas), draw(sizes), draw(families), n, scales)


@st.composite
def interval_specs(draw):
    grid = IntervalGrid(-0.4, 0.4, draw(st.sampled_from([33, 65, 129])))
    return IntervalProblemSpec(alpha=draw(alphas), nonlinearity=draw(families), grid=grid,
                               n=draw(components))


@PROPERTY
@given(alpha=alphas, size=sizes, n=components, seed=seeds)
@example(alpha=0.51, size=4096, n=2, seed=5)
@example(alpha=0.99, size=4096, n=1, seed=6)
def test_quadratic_form_is_the_derivative_energy(alpha, size, n, seed):
    grid = RealLineGrid(20.0, size)
    u = GridFunction(grid, _line_field(grid, n, np.random.default_rng(seed)))
    qf = quadratic_form_alpha(u, alpha)
    l2 = grid.integrate(liouville_weyl_left(u, alpha).values ** 2)
    assert abs(qf - l2) <= 1e-12 * qf


@PROPERTY
@given(spec=line_specs(), seed=seeds)
@example(spec=EDGE_LINE_SPECS[0], seed=1)
@example(spec=EDGE_LINE_SPECS[1], seed=2)
def test_metric_solve_residual(spec, seed):
    op = functional._operator(spec)
    rhs = np.random.default_rng(seed).normal(size=(spec.grid.num_points, spec.n))
    g, _ = op.solve_and_apply_metric(rhs)
    m = np.abs(spec.grid.rfft_frequencies) ** (2.0 * spec.alpha)
    frac = np.fft.irfft(m[:, None] * np.fft.rfft(g, axis=0), n=spec.grid.num_points, axis=0)
    applied = frac + spec.lam * op.ldiag * g
    assert np.linalg.norm(applied - rhs) <= 1e-10 * np.linalg.norm(rhs)


@PROPERTY
@given(spec=st.one_of(line_specs(), interval_specs()), seed=seeds)
@example(spec=EDGE_LINE_SPECS[0], seed=3)
@example(spec=EDGE_LINE_SPECS[1], seed=4)
def test_gradient_defining_property(spec, seed):
    """``form(g, v) = I'(u)v`` for the metric gradient ``g`` on both domains."""
    rng = np.random.default_rng(seed)
    field = _line_field if isinstance(spec, ProblemSpec) else _interval_field
    u = GridFunction(spec.grid, field(spec.grid, spec.n, rng))
    g = gradient_rep(u, spec)
    for _ in range(3):
        v = GridFunction(spec.grid, field(spec.grid, spec.n, rng))
        action = derivative_action(u, v, spec)
        assert abs(functional._operator(spec).form(g.values, v.values) - action) <= 1e-8 * (
            1.0 + abs(action)
        )


@PROPERTY
@given(spec=st.one_of(line_specs(), interval_specs()), seed=seeds)
def test_defect_identity(spec, seed):
    """``I(u) - 1/2 I'(u)u`` equals the integral of ``H`` to round-off on both domains.

    The quadratic part cancels on the left, so the round-off scales with it:
    ``||u||_X^2`` reaches 1e10 at ``lambda`` = 1e8 while ``I(u)`` stays O(1).
    """
    field = _line_field if isinstance(spec, ProblemSpec) else _interval_field
    u = GridFunction(spec.grid, field(spec.grid, spec.n, np.random.default_rng(seed)))
    _, _, gap = h_identity(u, spec)
    assert gap <= 1e-12 * (1.0 + float(functional._operator(spec).xnormsq(u.values)))


@PROPERTY
@given(spec=interval_specs(), seed=seeds)
def test_dirichlet_zeros_are_exact(spec, seed):
    op = functional._operator(spec)
    u = _interval_field(spec.grid, spec.n, np.random.default_rng(seed))
    r = op.residual(u)
    g, _ = op.gradient(u)
    d, _ = op.newton_step(u, r, mpa._FORCING_FLOOR)
    for out in (r, g) + (() if d is None else (d,)):
        assert np.all(out[0] == 0.0) and np.all(out[-1] == 0.0)
