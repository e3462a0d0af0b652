"""Energy functionals, derivatives, metric representatives, and identities."""

import dataclasses
import math

import numpy as np
import pytest

from fracham import (
    GridFunction,
    IntervalGrid,
    IntervalProblemSpec,
    ProblemSpec,
    RealLineGrid,
    bvp_derivative_action,
    bvp_energy,
    bvp_h_identity,
    default_nonlinearity,
    default_potential,
    derivative_action,
    energy,
    gradient_rep,
    h_identity,
    norm_x_lambda,
    quadratic_form_alpha,
)
from fracham import functional, mpa
from fracham.errors import ConvergenceError, DomainError
from fracham.fracops import gl_matrix
from fracham.problem import (
    PotentialSpec,
    _hessian_operator,
    _magnitude,
    _rowdot,
    default_oscillatory,
    grad_w_values,
    w_values,
    weight_values,
)
from fracham.spaces import inner_x_lambda, sample_interval_function


def _decaying_field(grid, rng):
    """Random trig polynomial under a Gaussian envelope, so it decays at the box edge."""
    t = grid.nodes
    out = np.zeros_like(t)
    for _ in range(4):
        a, b, k = rng.normal(), rng.normal(), rng.uniform(0.3, 2.0)
        out += a * np.cos(k * t) + b * np.sin(k * t)
    return GridFunction(grid, out * np.exp(-(t * t) / 18.0))


def _interval_field(spec, rng):
    return GridFunction(spec.grid, sample_interval_function(spec.grid, rng, 1))


def test_problem_spec_validation(line_grid, potential, nonlin):
    for alpha in (0.5, 1.0, 1.3, 0.2):
        with pytest.raises(DomainError):
            ProblemSpec(alpha=alpha, lam=10.0, potential=potential,
                        nonlinearity=nonlin, grid=line_grid)
    for lam in (0.0, -2.0, math.inf):
        with pytest.raises(DomainError):
            ProblemSpec(alpha=0.75, lam=lam, potential=potential,
                        nonlinearity=nonlin, grid=line_grid)
    with pytest.raises(DomainError):
        ProblemSpec(alpha=0.75, lam=10.0, potential=potential,
                    nonlinearity=nonlin, grid=line_grid, n=0)
    ig = IntervalGrid(-0.4, 0.4, 65)
    with pytest.raises(DomainError):
        IntervalProblemSpec(alpha=0.4, nonlinearity=nonlin, grid=ig)
    with pytest.raises(DomainError):
        IntervalProblemSpec(alpha=0.75, nonlinearity=nonlin, grid=ig, n=0)


def test_problem_spec_rejects_a_diag_scales_count_other_than_n(spec10):
    """A diagonal potential needs one scale per component when the spec is built, not later."""
    potential = dataclasses.replace(spec10.potential, kind="diagonal", diag_scales=(1.0, 2.0))
    for n in (1, 3):
        with pytest.raises(DomainError, match=f"diag_scales has 2 entries for n={n} components"):
            dataclasses.replace(spec10, potential=potential, n=n)
    assert dataclasses.replace(spec10, potential=potential, n=2).potential.diag_scales == (1.0, 2.0)


def test_with_lambda_changes_only_the_parameter(spec10):
    moved = spec10.with_lambda(250.0)
    assert moved.lam == 250.0
    assert moved.grid is spec10.grid
    assert moved.alpha == spec10.alpha and moved.potential == spec10.potential


def test_energy_assembles_norm_and_nonlinearity(spec10):
    rng = np.random.default_rng(20260816)
    u = _decaying_field(spec10.grid, rng)
    val = energy(u, spec10)
    intw = spec10.grid.integrate(
        w_values(spec10.nonlinearity, spec10.grid.nodes, u.values)
    )
    expected = 0.5 * norm_x_lambda(u, spec10) ** 2 - intw
    assert abs(val - expected) < 1e-12 * (1.0 + abs(val))


def test_energy_on_the_well_ignores_the_parameter(setup, spec10):
    psi = setup.psi
    intw = spec10.grid.integrate(
        w_values(spec10.nonlinearity, spec10.grid.nodes, psi.values)
    )
    closed = 0.5 * quadratic_form_alpha(psi, spec10.alpha) - intw
    val = energy(psi, spec10)
    assert abs(val - closed) < 1e-12 * (1.0 + abs(val))
    assert energy(psi, spec10.with_lambda(1.0)) == val
    assert energy(psi, spec10.with_lambda(1000.0)) == val


def test_derivative_matches_finite_differences(spec10, interval_spec):
    rng = np.random.default_rng(20260816)
    step = 1e-4
    for _ in range(5):
        u = _decaying_field(spec10.grid, rng)
        v = _decaying_field(spec10.grid, rng)
        action = derivative_action(u, v, spec10)
        up = GridFunction(spec10.grid, u.values + step * v.values)
        dn = GridFunction(spec10.grid, u.values - step * v.values)
        fd = (energy(up, spec10) - energy(dn, spec10)) / (2.0 * step)
        assert abs(action - fd) < 1e-6 * (1.0 + abs(fd))
    for _ in range(5):
        u = _interval_field(interval_spec, rng)
        v = _interval_field(interval_spec, rng)
        action = bvp_derivative_action(u, v, interval_spec)
        up = GridFunction(interval_spec.grid, u.values + step * v.values)
        dn = GridFunction(interval_spec.grid, u.values - step * v.values)
        fd = (bvp_energy(up, interval_spec) - bvp_energy(dn, interval_spec)) / (2.0 * step)
        assert abs(action - fd) < 1e-6 * (1.0 + abs(fd))


def test_gradient_defining_property_weighted_metric(spec10):
    rng = np.random.default_rng(3)
    for spec in (spec10, spec10.with_lambda(1e4)):
        u = _decaying_field(spec.grid, rng)
        g = gradient_rep(u, spec)
        for _ in range(10):
            v = _decaying_field(spec.grid, rng)
            lhs = inner_x_lambda(g, v, spec)
            rhs = derivative_action(u, v, spec)
            assert abs(lhs - rhs) < 1e-8 * (1.0 + abs(rhs))


def test_defect_identity_on_random_fields(spec10):
    rng = np.random.default_rng(5)
    for _ in range(5):
        u = _decaying_field(spec10.grid, rng)
        lhs, rhs, gap = h_identity(u, spec10)
        assert gap <= 1e-10 * (1.0 + abs(lhs))
        assert rhs >= -1e-12


def test_gradient_steps_downhill(spec10):
    rng = np.random.default_rng(6)
    u = _decaying_field(spec10.grid, rng)
    base = energy(u, spec10)
    g = gradient_rep(u, spec10)
    scale = 1e-3 / (1.0 + norm_x_lambda(g, spec10))
    trial = GridFunction(spec10.grid, u.values - scale * g.values)
    assert energy(trial, spec10) < base


def _metric_residual(spec, seed=11):
    """Relative residual of the metric solve, against a direct FFT matvec."""
    grid = spec.grid
    rhs = np.random.default_rng(seed).normal(size=(grid.num_points, spec.n))
    g, _ = functional._operator(spec).solve_and_apply_metric(rhs)
    m = np.abs(grid.rfft_frequencies) ** (2.0 * spec.alpha)
    frac = np.fft.irfft(m[:, None] * np.fft.rfft(g, axis=0), n=grid.num_points, axis=0)
    applied = frac + spec.lam * functional._operator(spec).ldiag * g
    return float(np.linalg.norm(applied - rhs) / np.linalg.norm(rhs))


def test_metric_solve_residual(spec10):
    vector = dataclasses.replace(
        spec10,
        n=2,
        potential=dataclasses.replace(spec10.potential, kind="diagonal", diag_scales=(1.0, 2.0)),
    )
    for spec in (spec10, vector):
        for lam in (1.0, 100.0, 1e4, 1e6, 1e8):
            assert _metric_residual(spec.with_lambda(lam)) <= 1e-12


def test_chunks_tile_the_count_under_the_stack_budget():
    """Chunks cover ``range(count)`` in order, and each stack stays under the budget."""
    budget = functional._STACK_VALUES
    for n in (1, 2):
        row_values = 4096 * n
        for count in (1, 2, 3, 4, 5, 7, 200):
            chunks = functional._chunks(count, row_values)
            assert [i for c in chunks for i in range(count)[c]] == list(range(count))
            assert all(0 < (c.stop - c.start) * row_values < budget for c in chunks)
    assert [c.stop - c.start for c in functional._chunks(7, 4096)] == [3, 3, 1]
    assert functional._chunks(0, 4096) == []
    assert functional._chunks(3, budget + 1) == [slice(0, 1), slice(1, 2), slice(2, 3)]


def test_metric_solve_edge_cases(spec10):
    # A box too narrow for the potential to reach its cap: the top is the
    # grid maximum, and every other node joins the well correction.
    narrow = dataclasses.replace(spec10, grid=RealLineGrid(0.5, 256))
    assert np.max(functional._operator(narrow).ldiag) < narrow.potential.cap
    assert _metric_residual(narrow) <= 1e-12

    # A potential flat on the grid leaves an empty well: A is the FFT symbol.
    @dataclasses.dataclass(frozen=True)
    class FlatPotential(PotentialSpec):
        def profile(self, t):
            return np.full(np.shape(t), self.cap)

    flat = dataclasses.replace(spec10, potential=FlatPotential(0.4, 0.05, 6.0, 1.5))
    _, wells = functional._operator(flat).factor
    assert all(idx.size == 0 for idx, _, _ in wells)
    assert _metric_residual(flat) <= 1e-12

    # A box inside the well, where the potential vanishes: A is singular.
    inside = dataclasses.replace(spec10, grid=RealLineGrid(0.3, 64))
    with pytest.raises(DomainError):
        gradient_rep(GridFunction(inside.grid, np.zeros(64)), inside)


def test_metric_solve_checks_its_residual(spec10, monkeypatch):
    spec = spec10.with_lambda(100.0)
    stale = functional._operator(spec10.with_lambda(1.0)).factor
    monkeypatch.setattr(functional._operator(spec), "factor", stale)
    u = _decaying_field(spec.grid, np.random.default_rng(12))
    with pytest.raises(ConvergenceError, match=r"lambda=100 with well size k=107.*residual"):
        gradient_rep(u, spec)


def test_interval_metric_solve_checks_its_residual(interval_spec, interval_stiffness, monkeypatch):
    """The interval's stiffness solve is checked like the line's, and hands back ``A g``."""
    op = functional._operator(interval_spec)
    rhs = np.random.default_rng(3).normal(size=(interval_spec.grid.num_points - 2, 1))
    g, ag = op.solve_and_apply_metric(rhs)
    stiffness = interval_stiffness(interval_spec.grid, interval_spec.alpha)
    assert np.linalg.norm(stiffness @ g - rhs) <= 1e-12 * np.linalg.norm(rhs)
    assert np.array_equal(ag, op.apply_metric(g))
    monkeypatch.setattr(op, "tinv", 0.5 * op.tinv)
    with pytest.raises(ConvergenceError, match=r"interval with 255 interior nodes.*residual"):
        op.solve_and_apply_metric(rhs)


# Orders near both ends of (1/2, 1), on a coarse, the default and a fine well grid.
_CLOSED_FORM_CASES = [(alpha, m) for alpha in (0.51, 0.75, 0.99) for m in (9, 257, 1025)]


def _well_spec(alpha, num_points):
    varrho = default_potential().varrho
    grid = IntervalGrid(-varrho, varrho, num_points)
    return IntervalProblemSpec(alpha=alpha, nonlinearity=default_nonlinearity(), grid=grid)


@pytest.mark.parametrize("alpha, num_points", _CLOSED_FORM_CASES)
def test_closed_form_interval_solve_matches_dense(alpha, num_points, interval_stiffness):
    """The closed-form stiffness inverse agrees with a dense solve of ``h B^T B``.

    Both solves leave a small residual in the dense matrix; they differ by
    at most what the condition number allows (1.6e-10 at ``alpha = 0.99``,
    ``m = 1025``, where it is 3.8e5).
    """
    spec = _well_spec(alpha, num_points)
    stiffness = interval_stiffness(spec.grid, alpha)
    rhs = np.random.default_rng(4).normal(size=(num_points - 2, 2))
    g, _ = functional._operator(spec).solve_and_apply_metric(rhs)
    assert np.linalg.norm(stiffness @ g - rhs) <= 1e-10 * np.linalg.norm(rhs)
    dense = np.linalg.solve(stiffness, rhs)
    gap = np.linalg.norm(g - dense) / np.linalg.norm(dense)
    assert gap <= 1e-14 * np.linalg.cond(stiffness)


@pytest.mark.parametrize("maxiter", [3, None])
@pytest.mark.parametrize("shape", [(60,), (30, 2)])
def test_minres_matches_scipy(shape, maxiter):
    """The in-package MINRES takes scipy's steps on a symmetric indefinite system.

    With ``H v`` applied whole it matches scipy's iteration count, ``info``
    and ``x``.  Split as in ``newton_step``, ``H v = P v - N v`` with ``P v``
    scaled from the product the SPD preconditioner hands back, it moves at
    round-off, which can shift the stop by a step; it still solves the
    system.
    """
    from scipy.sparse.linalg import minres as scipy_minres

    rng = np.random.default_rng(8)
    size = math.prod(shape)
    q, _ = np.linalg.qr(rng.normal(size=(size, size)))
    spd = (q * rng.uniform(1.0, 50.0, size)) @ q.T
    sym = rng.normal(size=(size, size))
    sym = 0.5 * (sym + sym.T)
    hmat = spd - sym
    assert np.min(np.linalg.eigvalsh(hmat)) < 0.0 < np.max(np.linalg.eigvalsh(hmat))
    pinv = np.linalg.inv(spd)
    rhs = rng.normal(size=size)
    limit = 5 * size if maxiter is None else maxiter

    def precond(r):
        y = (pinv @ r.ravel()).reshape(shape)
        return y, (spd @ y.ravel()).reshape(shape)

    def whole(v, pv):
        return (hmat @ v.ravel()).reshape(shape)

    def split(v, pv):
        return pv - (sym @ v.ravel()).reshape(shape)

    steps = []
    expected, info = scipy_minres(hmat, rhs, rtol=1e-11, maxiter=maxiter, M=pinv,
                                  callback=lambda xk: steps.append(1))
    x, ours, tridiagonal = functional._minres(whole, precond, rhs.reshape(shape), 1e-11, limit)
    assert x.shape == shape
    assert (ours, len(tridiagonal)) == (info, len(steps))
    assert (info == 0) == (maxiter is None)
    assert np.linalg.norm(x.ravel() - expected) <= 1e-12 * np.linalg.norm(expected)
    if maxiter is None:
        x, ours, _ = functional._minres(split, precond, rhs.reshape(shape), 1e-11, limit)
        assert ours == 0
        assert np.linalg.norm(hmat @ x.ravel() - rhs) <= 1e-9 * np.linalg.norm(rhs)


def test_metric_bound_is_an_upper_bound(spec10, interval_spec, interval_stiffness):
    """``metric_bound`` bounds the metric's 2-norm, and the top Fourier mode nearly attains it.

    The Newton polish stops at ``eps * metric_bound * |u|``, so the bound
    must be honest and not loose by more than a factor of two on the line.
    """
    rng = np.random.default_rng(5)
    num = spec10.grid.num_points
    for lam in (1.0, 1e4):
        for n in (1, 2):
            op = functional._operator(dataclasses.replace(spec10, lam=lam, n=n))
            top = np.tile((-1.0) ** np.arange(num)[:, None], (1, n))
            for x in [rng.normal(size=(num, n)) for _ in range(5)] + [top]:
                ax = np.linalg.norm(op.apply_metric(x))
                assert ax <= op.metric_bound * np.linalg.norm(x)
            assert np.linalg.norm(op.apply_metric(top)) >= 0.5 * op.metric_bound * np.linalg.norm(top)
    for alpha, num_points in _CLOSED_FORM_CASES:
        spec = _well_spec(alpha, num_points)
        stiffness = interval_stiffness(spec.grid, alpha)
        assert np.linalg.norm(stiffness, 2) <= functional._operator(spec).metric_bound


@pytest.mark.parametrize(
    "n, potential, nonlinearity",
    [
        (1, default_potential(), default_nonlinearity()),
        (
            2,
            dataclasses.replace(default_potential(), kind="diagonal", diag_scales=(1.0, 2.0)),
            dataclasses.replace(default_oscillatory(), weight_amp=0.3, weight_freq=2.0),
        ),
    ],
    ids=["n1-scalar-pure_power", "n2-diagonal-oscillatory"],
)
def test_operator_layer(n, potential, nonlinearity, interval_stiffness):
    """Batched rows match single evaluations bit for bit; forms and gradients agree.

    The operator's cached weight gives the bits of the per-call ``W`` kernels.
    """
    rng = np.random.default_rng(13)
    grid = RealLineGrid(20.0, 1024)
    spec = ProblemSpec(alpha=0.75, lam=10.0, potential=potential,
                       nonlinearity=nonlinearity, grid=grid, n=n)
    ispec = IntervalProblemSpec(alpha=0.75, nonlinearity=nonlinearity,
                                grid=IntervalGrid(-0.4, 0.4, 129), n=n)

    def line_field():
        return GridFunction(grid, np.stack(
            [_decaying_field(grid, rng).values[:, 0] for _ in range(n)], axis=1))

    def interval_field():
        return GridFunction(ispec.grid, np.stack(
            [sample_interval_function(ispec.grid, rng, 1) for _ in range(n)], axis=1))

    for sp, field in ((spec, line_field), (ispec, interval_field)):
        op = functional._operator(sp)
        stack = np.stack([field().values for _ in range(6)])
        energies, normsq = op.energies(stack), op.xnormsq(stack)
        for row, e, q in zip(stack, energies, normsq):
            assert e == op.energy(row)
            assert q == op.xnormsq(row)

    u = line_field()
    lhs = inner_x_lambda(u, u, spec)
    pot = grid.integrate(functional._operator(spec).ldiag * u.values**2)
    rhs = quadratic_form_alpha(u, spec.alpha) + spec.lam * pot
    assert abs(lhs - rhs) <= 1e-13 * abs(rhs)

    g = gradient_rep(u, spec)
    for _ in range(5):
        v = line_field()
        action = derivative_action(u, v, spec)
        assert abs(inner_x_lambda(g, v, spec) - action) < 1e-8 * (1.0 + abs(action))

    u = interval_field()
    g = gradient_rep(u, ispec)
    b = gl_matrix(ispec.grid, ispec.alpha)
    for _ in range(5):
        v = interval_field()
        action = bvp_derivative_action(u, v, ispec)
        metric = ispec.grid.spacing * float(np.sum((b @ g.values) * (b @ v.values)))
        assert abs(metric - action) < 1e-10 * (1.0 + abs(action))

    # The interval Newton step solves the dense interior system
    # (h B^T B - diag(c W''(u))) d = -r, assembled here block by block.
    iop = functional._operator(ispec)
    u = u.values
    r = iop.residual(u)
    d, _ = iop.newton_step(u, r, mpa._FORCING_FLOOR)
    columns = [np.tile(np.eye(n)[k], (len(u), 1)) for k in range(n)]
    action = _hessian_operator(nonlinearity, iop.weight, u)
    blocks = np.stack([action(c) for c in columns], axis=-1)
    hess = np.kron(np.asarray(interval_stiffness(ispec.grid, ispec.alpha)), np.eye(n))
    cw = ispec.grid.trapezoid_weights
    for i in range(ispec.grid.num_points - 2):
        hess[i * n:(i + 1) * n, i * n:(i + 1) * n] -= cw[i + 1] * blocks[i + 1]
    rhs = -r[1:-1].ravel()
    assert d is not None and np.all(d[0] == 0.0) and np.all(d[-1] == 0.0)
    assert np.linalg.norm(hess @ d[1:-1].ravel() - rhs) <= 1e-9 * np.linalg.norm(rhs)

    u, v = line_field().values, line_field().values
    t = grid.nodes
    op = functional._operator(spec)
    assert op.wint(u) == grid.spacing * np.sum(w_values(nonlinearity, t, u))
    assert np.array_equal(op.residual(u), op.apply_metric(u) - grad_w_values(nonlinearity, t, u))
    assert np.array_equal(op.weight, weight_values(nonlinearity, t))


@pytest.mark.parametrize("n", [1, 2, 3, 7])
def test_magnitude_matches_strided_sum(n):
    """The per-component accumulation gives the bits of ``np.sum`` over the last axis.

    The pairing of two different arrays gives the same values (an exact zero
    may differ in sign).
    """
    rng = np.random.default_rng(20 + n)
    for shape in ((257, n), (5, 64, n)):
        u = rng.normal(size=shape) * 10.0 ** rng.uniform(-8, 3, size=shape)
        v = rng.normal(size=shape) * 10.0 ** rng.uniform(-8, 3, size=shape)
        v[..., 0][::5] = 0.0
        assert np.array_equal(_magnitude(u), np.sqrt(np.sum(u**2, -1)))
        assert np.array_equal(_rowdot(u, v), np.sum(u * v, -1))


def test_interval_boundary_enforcement(interval_spec):
    bad = GridFunction(interval_spec.grid, np.ones(interval_spec.grid.num_points))
    with pytest.raises(DomainError):
        bvp_energy(bad, interval_spec)
    other = GridFunction(IntervalGrid(-0.4, 0.4, 33), np.zeros(33))
    with pytest.raises(DomainError):
        bvp_energy(other, interval_spec)
    good = _interval_field(interval_spec, np.random.default_rng(10))
    with pytest.raises(DomainError, match="vanish exactly"):
        derivative_action(good, bad, interval_spec)
    with pytest.raises(DomainError, match="vanish exactly"):
        gradient_rep(bad, interval_spec)


def test_interval_gradient_defining_property(interval_spec):
    rng = np.random.default_rng(8)
    u = _interval_field(interval_spec, rng)
    g = gradient_rep(u, interval_spec)
    b = gl_matrix(interval_spec.grid, interval_spec.alpha)
    h = interval_spec.grid.spacing
    for _ in range(5):
        v = _interval_field(interval_spec, rng)
        lhs = h * float(np.sum((b @ g.values) * (b @ v.values)))
        rhs = bvp_derivative_action(u, v, interval_spec)
        assert abs(lhs - rhs) < 1e-10 * (1.0 + abs(rhs))


def test_interval_defect_identity(interval_spec):
    rng = np.random.default_rng(9)
    u = _interval_field(interval_spec, rng)
    lhs, rhs, gap = bvp_h_identity(u, interval_spec)
    assert gap <= 1e-10 * (1.0 + abs(lhs))


def test_cross_domain_quadratic_forms(line_grid, interval_stiffness):
    """Restricting to the interval loses energy; refinement recovers it from below."""
    alpha = 0.75
    tau = 0.25

    def bump(x):
        out = np.zeros_like(x)
        inside = np.abs(x) < tau
        out[inside] = np.exp(-1.0 / (1.0 - (x[inside] / tau) ** 2))
        return out

    qf_line = quadratic_form_alpha(GridFunction(line_grid, bump(line_grid.nodes)), alpha)
    previous = -np.inf
    for num_points in (257, 513, 1025, 2049):
        ig = IntervalGrid(-0.4, 0.4, num_points)
        vals = bump(ig.nodes)
        vals[0] = vals[-1] = 0.0
        interior = vals[1:-1]
        a = np.asarray(interval_stiffness(ig, alpha))
        qf_int = float(interior @ (a @ interior))
        assert qf_int < qf_line
        assert (qf_line - qf_int) / qf_line < 0.01
        assert qf_int > previous
        previous = qf_int
