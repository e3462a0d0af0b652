"""Fractional derivative operators against closed forms and each other."""

import ast
import math
import pathlib
import warnings

import numpy as np
import pytest

from fracham import (
    GridFunction,
    IntervalGrid,
    RealLineGrid,
    liouville_weyl_left,
    quadratic_form_alpha,
)
from fracham import fracops
from fracham.errors import DomainError
from fracham.fracops import BoundaryDecayWarning, check_boundary_decay, gl_matrix
from fracham.spaces import norm_h_alpha

# Independently computed reference values for the left-sided derivative of
# u(t) = exp(-t^2 / 2) at order alpha = 0.6 on the 4096-point grid of
# halfwidth 20: the half-line definition was integrated by adaptive
# quadrature with a substitution flattening the endpoint singularity, plus
# the periodic images of the truncation window summed in closed form through
# a tail zeta series.  Agreement certifies both the multiplier convention
# and the periodization the grid imposes.
ORACLE_ALPHA = 0.6
ORACLE_INDEX = [1741, 1818, 1894, 1971, 2048, 2099, 2150, 2227, 2304, 2381]
ORACLE_VALUES = [
    1.730369333732901e-02,
    1.286886349256187e-01,
    4.252745574433283e-01,
    7.094743261748919e-01,
    4.710868727981835e-01,
    6.438175674596329e-02,
    -2.770762155921492e-01,
    -4.000159654915476e-01,
    -2.613247204286105e-01,
    -1.457320778422160e-01,
]


def _gaussian(grid):
    t = grid.nodes
    return GridFunction(grid, np.exp(-t * t / 2.0))


def test_left_derivative_matches_quadrature_reference(line_grid):
    d = liouville_weyl_left(_gaussian(line_grid), ORACLE_ALPHA)
    got = d.values[ORACLE_INDEX, 0]
    rel = np.abs(got - np.array(ORACLE_VALUES)) / np.abs(ORACLE_VALUES)
    assert float(np.max(rel)) < 1e-8


def test_order_validation():
    g = RealLineGrid(20.0, 64)
    u = _gaussian(g)
    for bad in (0.0, 1.0, 1.2, -0.3):
        with pytest.raises(DomainError):
            liouville_weyl_left(u, bad)
        with pytest.raises(DomainError):
            quadratic_form_alpha(u, bad)
    ig = IntervalGrid(0.0, 1.0, 9)
    for bad in (0.0, 1.0, 1.2, -0.3, 1.5):
        with pytest.raises(DomainError):
            gl_matrix(ig, bad)
    with pytest.raises(DomainError):
        liouville_weyl_left(GridFunction(ig, np.zeros(9)), 0.5)


def test_composition_of_orders(line_grid):
    """Applying orders 0.3 then 0.4 equals one application of order 0.7."""
    u = _gaussian(line_grid)
    with warnings.catch_warnings():
        # the intermediate field decays only algebraically, which trips the
        # boundary guard; the composition identity itself is spectral and exact
        warnings.simplefilter("ignore", BoundaryDecayWarning)
        two_step = liouville_weyl_left(liouville_weyl_left(u, 0.3), 0.4)
    one_step = liouville_weyl_left(u, 0.7)
    scale = float(np.max(np.abs(one_step.values)))
    assert float(np.max(np.abs(two_step.values - one_step.values))) < 1e-10 * scale


def test_linearity_and_shift_equivariance(line_grid):
    rng = np.random.default_rng(20260816)
    t = line_grid.nodes
    a = np.exp(-t * t / 2.0)
    b = np.exp(-((t - 1.0) ** 2))
    alpha = 0.75
    da = liouville_weyl_left(GridFunction(line_grid, a), alpha).values
    db = liouville_weyl_left(GridFunction(line_grid, b), alpha).values
    c1, c2 = rng.normal(), rng.normal()
    dc = liouville_weyl_left(GridFunction(line_grid, c1 * a + c2 * b), alpha).values
    assert float(np.max(np.abs(dc - c1 * da - c2 * db))) < 1e-12 * float(
        np.max(np.abs(dc)) + 1.0
    )
    # cyclic shifts commute with the multiplier exactly on the periodic grid
    k = 137
    shifted = liouville_weyl_left(GridFunction(line_grid, np.roll(a, k)), alpha).values
    assert float(np.max(np.abs(shifted - np.roll(da, k, axis=0)))) < 1e-12


def test_quadratic_form_gaussian_closed_form(line_grid):
    """Frequency energy of exp(-t^2/2) equals Gamma(alpha + 1/2).

    The frequency grid has a kink of the symbol at zero, so the rule is
    accurate to O(spacing^(1 + 2 alpha)) rather than spectrally; the
    tolerance reflects that.
    """
    u = _gaussian(line_grid)
    for alpha in (0.6, 0.75):
        qf = quadratic_form_alpha(u, alpha)
        exact = math.gamma(alpha + 0.5)
        assert abs(qf - exact) / exact < 5e-3
    nh = norm_h_alpha(u, 0.75)
    exact_nh = math.sqrt(math.sqrt(math.pi) + math.gamma(1.25))
    assert abs(nh - exact_nh) / exact_nh < 1e-3


def test_quadratic_form_is_derivative_l2_energy(line_grid):
    u = _gaussian(line_grid)
    alpha = 0.75
    d = liouville_weyl_left(u, alpha)
    l2 = line_grid.integrate(d.values**2)
    qf = quadratic_form_alpha(u, alpha)
    assert abs(qf - l2) / qf < 1e-12


def _gl_weights(alpha: float, count: int) -> np.ndarray:
    """The first ``count`` GL weights: the first column of ``gl_matrix`` times ``h^alpha = 1``."""
    grid = IntervalGrid(0.0, count - 1.0, count)
    return gl_matrix(grid, alpha)[:, 0] * grid.spacing**alpha


def test_gl_weights_closed_form():
    alpha = 0.5
    w = _gl_weights(alpha, 6)
    assert w[0] == 1.0
    expected = [1.0, -0.5, -0.125, -0.0625, -0.0390625, -0.02734375]
    assert np.max(np.abs(w - np.array(expected))) < 1e-14
    # alternating binomial form: w_j = (-1)^j C(alpha, j)
    from scipy.special import binom

    alpha = 0.73
    w = _gl_weights(alpha, 40)
    j = np.arange(40)
    ref = (-1.0) ** j * binom(alpha, j)
    assert float(np.max(np.abs(w - ref))) < 1e-12


def test_gl_matrix_structure():
    ig = IntervalGrid(0.0, 1.0, 33)
    alpha = 0.6
    b = gl_matrix(ig, alpha)
    assert np.all(np.triu(b, 1) == 0.0)
    assert np.allclose(np.diag(b), ig.spacing ** (-alpha))


@pytest.mark.parametrize("count", [1, 2, 255, 257, 1025])
def test_gl_toeplitz_matches_the_gathered_lag_matrix(count):
    """The strided build leaves every bit of ``tril(w[|i - j|]) * scale``, C-contiguous.

    Orders ``alpha`` and ``-alpha`` at the scales ``gl_matrix`` and the
    interval operator's ``T^-1`` use.
    """
    lag = np.arange(count)
    for order, scale in ((0.75, 3.0**0.75), (-0.75, 0.01**0.75)):
        w = fracops._binomial_series(order, count)
        reference = np.tril(w[np.abs(lag[:, None] - lag[None, :])]) * scale
        built = fracops._gl_toeplitz(order, count, scale)
        assert built.flags.c_contiguous and built.shape == (count, count)
        assert built.tobytes() == reference.tobytes()


def test_grunwald_power_function_closed_form():
    """First-order accuracy against Gamma-ratio derivatives of t^2."""
    alpha, nu = 0.5, 2.0
    ig = IntervalGrid(0.0, 1.0, 513)
    s = ig.nodes
    d = gl_matrix(ig, alpha) @ s**nu
    exact = math.gamma(nu + 1.0) / math.gamma(nu + 1.0 - alpha) * s ** (nu - alpha)
    win = slice(513 // 8, 512)
    rel = float(np.max(np.abs(d[win] - exact[win]))) / float(np.max(np.abs(exact[win])))
    assert rel < 5e-2


def test_three_node_stiffness_closed_form(interval_stiffness):
    """One interior degree of freedom: the block is h^(1-2a) (1 + a^2)."""
    ig = IntervalGrid(0.0, 1.0, 3)
    for alpha in (0.55, 0.75, 0.9):
        a = interval_stiffness(ig, alpha)
        assert a.shape == (1, 1)
        expected = ig.spacing ** (1.0 - 2.0 * alpha) * (1.0 + alpha**2)
        assert abs(a[0, 0] - expected) / expected < 1e-13


def test_interval_stiffness_is_spd(interval_stiffness):
    ig = IntervalGrid(-0.4, 0.4, 65)
    a = interval_stiffness(ig, 0.75)
    assert np.max(np.abs(a - a.T)) == 0.0
    eigs = np.linalg.eigvalsh(np.array(a))
    assert float(np.min(eigs)) > 0.0


def test_boundary_decay_guard(line_grid):
    flat = GridFunction(line_grid, np.ones(line_grid.num_points))
    with pytest.warns(BoundaryDecayWarning):
        ratio = check_boundary_decay(flat)
    assert ratio == 1.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert check_boundary_decay(_gaussian(line_grid)) < 1e-10
        assert check_boundary_decay(GridFunction(line_grid, np.zeros(line_grid.num_points))) == 0.0


def _gl_matrix_references() -> set[tuple[str, str]]:
    """``(module, scope)`` of every ``gl_matrix`` name in the package source.

    A scope is the dotted path of the enclosing classes and functions, the
    definition's own name for the ``def``, and ``<import>`` for an import.
    """
    found = set()
    src = pathlib.Path(fracops.__file__).resolve().parent

    def walk(node, module, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
                if child.name == "gl_matrix":
                    found.add((module, inner))
            hit = (
                (isinstance(child, ast.Name) and child.id == "gl_matrix")
                or (isinstance(child, ast.Attribute) and child.attr == "gl_matrix")
                or (isinstance(child, ast.alias) and child.name == "gl_matrix")
            )
            if hit:
                found.add((module, "<import>" if isinstance(child, ast.alias) else scope))
            walk(child, module, inner)

    for path in sorted(src.glob("*.py")):
        walk(ast.parse(path.read_text(encoding="utf-8")), path.stem, "")
    return found


def test_gl_matrix_has_one_runtime_owner():
    """Only the interval operator applies ``B`` at run time."""
    assert _gl_matrix_references() == {
        ("fracops", "gl_matrix"),
        ("functional", "<import>"),
        ("functional", "_IntervalOperator.__init__"),
    }
