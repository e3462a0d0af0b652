"""Potential and nonlinearity families, their hypotheses, and validators."""

import dataclasses
import math

import numpy as np
import pytest

from fracham import problem, validate_nonlinearity, validate_potential
from fracham.errors import DomainError
from fracham.problem import (
    NonlinearitySpec,
    PotentialSpec,
    _decade_trend,
    _hessian_operator,
    _radial_second,
    _radial_slope_factor,
    calibrate_growth_constant,
    default_oscillatory,
    grad_w_values,
    h_values,
    w_values,
    weight_values,
)


@pytest.fixture(scope="module")
def osc_nonlin():
    return default_oscillatory()


def test_default_potential_profile(potential):
    t_in = np.linspace(-potential.varrho, potential.varrho, 401)
    assert np.all(potential.profile(t_in) == 0.0)
    t_mid = np.array([0.45, -0.55, 0.6])
    expected = np.minimum(potential.cap, ((np.abs(t_mid) - 0.4) / 0.05) ** 2)
    assert np.allclose(potential.profile(t_mid), expected, rtol=0, atol=1e-15)
    assert np.all(potential.profile(np.array([3.0, -8.0, 19.0])) == potential.cap)
    meas = 2.0 * 0.4 + 2.0 * 0.05 * math.sqrt(1.5)
    assert abs(potential.sublevel_measure() - meas) < 1e-15
    diag = potential.diagonal(np.array([0.5]), 2)
    assert diag.shape == (1, 2)
    assert diag[0, 0] == diag[0, 1]
    assert abs(diag[0, 0] - potential.profile(np.array([0.5]))[0]) < 1e-15


def test_potential_spec_validation():
    with pytest.raises(DomainError):
        PotentialSpec(varrho=0.0, delta=0.05, cap=6.0, c=1.5)
    with pytest.raises(DomainError):
        PotentialSpec(varrho=0.4, delta=-0.01, cap=6.0, c=1.5)
    with pytest.raises(DomainError):
        PotentialSpec(varrho=0.4, delta=0.05, cap=6.0, c=6.0)  # threshold not below cap
    with pytest.raises(DomainError):
        PotentialSpec(varrho=0.4, delta=0.05, cap=6.0, c=1.5, kind="banded")
    with pytest.raises(DomainError):
        PotentialSpec(varrho=0.4, delta=0.05, cap=6.0, c=1.5, kind="diagonal")
    with pytest.raises(DomainError):
        PotentialSpec(
            varrho=0.4, delta=0.05, cap=6.0, c=1.5, kind="diagonal", diag_scales=(0.5, 2.0)
        )
    good = PotentialSpec(
        varrho=0.4, delta=0.05, cap=6.0, c=1.5, kind="diagonal", diag_scales=(1.0, 2.5)
    )
    with pytest.raises(DomainError):
        good.diagonal(np.array([0.0]), 3)


def test_a_key_the_kind_does_not_read_is_rejected():
    """Scales on a scalar potential, or ``epsilon`` on a pure power, would be dropped silently."""
    with pytest.raises(DomainError, match="diag_scales is read only by the diagonal kind"):
        PotentialSpec(varrho=0.4, delta=0.05, cap=6.0, c=1.5, diag_scales=(3.0,))
    with pytest.raises(DomainError, match="epsilon is read only by the oscillatory family"):
        NonlinearitySpec(kind="pure_power", p=4.0, epsilon=0.5)
    assert NonlinearitySpec(kind="pure_power", p=4.0, epsilon=0.0).epsilon == 0.0


def test_diagonal_potential_scales_components():
    spec = PotentialSpec(
        varrho=0.4, delta=0.05, cap=6.0, c=1.5, kind="diagonal", diag_scales=(1.0, 2.5)
    )
    t = np.array([0.0, 0.5, 2.0])
    diag = spec.diagonal(t, 2)
    assert diag.shape == (3, 2)
    base = spec.profile(t)
    assert np.allclose(diag[:, 0], base) and np.allclose(diag[:, 1], 2.5 * base)


def test_validate_potential_default_passes(potential, constants):
    report = validate_potential(potential, c_infinity=constants.c_infinity)
    assert report["passed"] is True
    assert report["nonnegative"] and report["zero_on_well"]
    assert report["zero_set_is_finite_interval"]
    assert report["meas_consistent"]
    assert report["admissible"] is True
    assert abs(report["meas_lc_closed_form"] - potential.sublevel_measure()) < 1e-15


def test_admissibility_flips_with_sup_constant():
    """A well of length 3 sits on either side of the smallness bound."""
    wide = PotentialSpec(varrho=1.4, delta=0.1, cap=6.0, c=1.0)
    assert wide.sublevel_measure() == 3.0
    ok = validate_potential(wide, c_infinity=0.5)
    assert ok["admissible"] is True and ok["passed"] is True
    assert abs(ok["smallness_bound"] - 4.0) < 1e-15
    bad = validate_potential(wide, c_infinity=0.6)
    assert bad["admissible"] is False and bad["passed"] is False


def test_weight_profile_and_bounds():
    spec = NonlinearitySpec(
        kind="pure_power", p=4.0, weight_base=2.0, weight_amp=0.5, weight_freq=3.0,
        c0=20.0, radius=1.0,
    )
    t = np.linspace(-5.0, 5.0, 101)
    assert np.allclose(weight_values(spec, t), 2.0 + 0.5 * np.cos(3.0 * t))
    assert spec.weight_min == 1.5 and spec.weight_max == 2.5
    with pytest.raises(DomainError):
        NonlinearitySpec(kind="pure_power", p=4.0, weight_base=1.0, weight_amp=1.0)


def test_nonlinearity_spec_validation():
    with pytest.raises(DomainError):
        NonlinearitySpec(kind="cubic_spline", p=4.0)
    with pytest.raises(DomainError):
        NonlinearitySpec(kind="pure_power", p=1.5)
    with pytest.raises(DomainError):
        NonlinearitySpec(kind="oscillatory", p=3.0, epsilon=0.0)
    with pytest.raises(DomainError):
        NonlinearitySpec(kind="oscillatory", p=3.0, epsilon=1.5)
    with pytest.raises(DomainError):
        NonlinearitySpec(kind="pure_power", p=4.0, radius=0.0)


def test_gradient_matches_finite_differences(nonlin, osc_nonlin):
    rng = np.random.default_rng(20260816)
    step = 1e-6
    for spec in (nonlin, osc_nonlin):
        for _ in range(8):
            t = float(rng.uniform(-3.0, 3.0))
            u = rng.normal(scale=1.5, size=2)
            grad = grad_w_values(spec, t, u)
            assert grad.shape == (2,)
            for j in range(2):
                up, dn = u.copy(), u.copy()
                up[j] += step
                dn[j] -= step
                fd = (float(w_values(spec, t, up)) - float(w_values(spec, t, dn))) / (2.0 * step)
                assert abs(grad[j] - fd) < 1e-6 * (1.0 + abs(fd))
                # column j of the Hessian against differences of the gradient
                hfd = (grad_w_values(spec, t, up) - grad_w_values(spec, t, dn)) / (2.0 * step)
                hess = _hessian_operator(spec, weight_values(spec, t), u)(np.eye(2)[j])
                assert np.max(np.abs(hess - hfd)) < 1e-6 * (1.0 + np.max(np.abs(hfd)))


def test_radial_kernels_share_one_power(nonlin, osc_nonlin):
    """``r^(p-2)``, computed once per kernel, leaves every bit of the written-out formulas."""
    rng = np.random.default_rng(4)
    r = np.concatenate([[0.0, 1e-300, 1e-8, 1.0], rng.exponential(2.0, 4000)])
    wide = NonlinearitySpec(kind="oscillatory", p=3.5, epsilon=0.25, c0=500.0)
    for spec in (nonlin, osc_nonlin, wide, NonlinearitySpec(kind="pure_power", p=3.0)):
        p, e = spec.p, spec.epsilon
        if spec.kind == "pure_power":
            slope = p * r ** (p - 2.0)
            second = p * (p - 1.0) * r ** (p - 2.0)
        else:
            theta = r**e / e
            s2, sin2t, cos2t = np.sin(theta) ** 2, np.sin(2.0 * theta), np.cos(2.0 * theta)
            slope = p * r ** (p - 2.0) + (p - 2.0) * (
                (p - e) * r ** (p - e - 2.0) * s2 + r ** (p - 2.0) * sin2t
            )
            second = p * (p - 1.0) * r ** (p - 2.0) + (p - 2.0) * (
                (p - e) * (p - e - 1.0) * r ** (p - e - 2.0) * s2
                + (p - e) * r ** (p - 2.0) * sin2t
                + (p - 1.0) * r ** (p - 2.0) * sin2t
                + 2.0 * r ** (p - 2.0 + e) * cos2t
            )
        assert np.array_equal(_radial_slope_factor(spec, r), slope)
        assert np.array_equal(_radial_second(spec, r), second)


def test_defect_term_definition_and_pure_power_identity(nonlin, osc_nonlin):
    rng = np.random.default_rng(7)
    for spec in (nonlin, osc_nonlin):
        for _ in range(12):
            t = float(rng.uniform(-2.0, 2.0))
            u = rng.normal(scale=2.0, size=2)
            w = float(w_values(spec, t, u))
            h = float(h_values(spec, t, u))
            pairing = float(np.dot(grad_w_values(spec, t, u), u))
            assert abs(pairing - 2.0 * w - 2.0 * h) < 1e-12 * (1.0 + abs(pairing))
            if spec.kind == "pure_power":
                assert abs(h - (spec.p / 2.0 - 1.0) * w) < 1e-12 * (1.0 + abs(w))


def test_sigma_and_growth_exponent(nonlin, osc_nonlin):
    assert nonlin.resolved_sigma == 2.0
    assert nonlin.growth_exponent == 4.0
    assert osc_nonlin.resolved_sigma == 2.5
    assert abs(osc_nonlin.growth_exponent - 10.0 / 3.0) < 1e-15
    flat = NonlinearitySpec(kind="pure_power", p=2.0, c0=20.0)
    assert math.isinf(flat.resolved_sigma) and flat.growth_exponent == 2.0


def test_validator_passes_shipped_families(nonlin, osc_nonlin):
    for spec in (nonlin, osc_nonlin):
        report = validate_nonlinearity(spec, sample_budget=4000, seed=11)
        assert report["passed"] is True
        assert all(entry["passed"] for entry in report["checks"].values())
        assert report["family"] == spec.kind
        assert report["growth_exponent"] == spec.growth_exponent


@pytest.mark.parametrize("budget", [0, -1])
def test_validator_rejects_a_budget_below_one(nonlin, budget):
    """A budget below 1 raises ``DomainError``, not numpy's empty-reduction or negative-size error."""
    with pytest.raises(DomainError, match="at least one sample"):
        validate_nonlinearity(nonlin, sample_budget=budget)


@pytest.mark.parametrize("radius", [500.0, 2000.0])
def test_validator_passes_a_large_defect_radius(nonlin, osc_nonlin, radius):
    """The growth and defect grids run three decades past a radius above 1, not to a fixed 1e3."""
    for spec in (nonlin, osc_nonlin):
        report = validate_nonlinearity(dataclasses.replace(spec, radius=radius), sample_budget=500)
        assert all(entry["passed"] for entry in report["checks"].values()), spec.kind
        assert report["checks"]["superquadratic_growth"]["trend"]["decades"][-1] == 3 + int(
            math.log10(radius))


def test_growth_constant_calibration(nonlin, osc_nonlin):
    c_pure = calibrate_growth_constant(nonlin, 0.1)
    assert math.isclose(c_pure, 4.0, rel_tol=1e-5)
    c1 = calibrate_growth_constant(osc_nonlin, 0.1)
    c2 = calibrate_growth_constant(osc_nonlin, 0.01)
    assert math.isclose(c1, 12.357858351508037, rel_tol=1e-6)
    assert math.isclose(c2, 16.276196504742448, rel_tol=1e-6)
    assert c2 >= c1  # shrinking the linear allowance costs a larger constant
    # the calibrated constant actually dominates the slope on a wide radius grid
    r = np.logspace(-8, 3, 1200)
    for spec, eps, c in ((nonlin, 0.1, c_pure), (osc_nonlin, 0.1, c1)):
        slope = np.array([np.linalg.norm(grad_w_values(spec, 0.0, np.array([ri]))) for ri in r[::40]])
        bound = eps * r[::40] + c * r[::40] ** (spec.growth_exponent - 1.0)
        assert np.all(slope <= bound * (1.0 + 1e-9))
    with pytest.raises(DomainError):
        calibrate_growth_constant(nonlin, 0.0)


def test_quadratic_exponent_has_no_defect_constant():
    flat = NonlinearitySpec(kind="pure_power", p=2.0, c0=20.0, radius=1.0)
    report = validate_nonlinearity(flat, sample_budget=500, seed=2)
    assert report["passed"] is False
    defect = report["checks"]["defect_inequality"]
    assert defect["passed"] is False
    assert "no finite constant" in defect["witness"]["reason"]
    assert report["sigma"] is None


def test_decade_trend_matches_a_per_decade_loop():
    """Runs of equal decades on ascending radii give each decade's maximum, as masking each does."""
    rng = np.random.default_rng(3)
    for r in (np.logspace(-6, -1, 101), np.logspace(-2.5, 3, 301)):
        vals = rng.standard_normal(r.size)
        decades = np.floor(np.log10(r)).astype(int)
        keys = sorted(set(decades.tolist()))
        marks = [float(np.max(vals[decades == k])) for k in keys]
        for increasing in (True, False):
            ok, trend = _decade_trend(r, vals, increasing)
            assert trend == {"decades": keys, "marks": marks}
            diffs = np.diff(marks)
            assert ok == bool(np.all(diffs > 0) if increasing else np.all(diffs < 0))


@pytest.mark.parametrize(
    "name, check, other",
    [("w_values", "w_nonnegative", "h_nonnegative"), ("h_values", "h_nonnegative", "w_nonnegative")],
)
def test_a_negative_sample_fails_its_sign_check(nonlin, monkeypatch, name, check, other):
    """One negative ``W`` or ``H`` value fails its check, with that sample's ``t`` and ``u`` as witness.

    ``H`` is computed from ``W``, so a negative ``W`` makes that ``H`` large
    and its check still passes.
    """
    original = getattr(problem, name)
    spoiled_at = {}

    def spoiled(spec, t, U):
        out = original(spec, t, U).copy()
        out[7] = -1.0 - np.max(np.abs(out))
        spoiled_at.update(t=float(t[7]), u=U[7].tolist(), value=float(out[7]))
        return out

    monkeypatch.setattr(problem, name, spoiled)
    report = validate_nonlinearity(nonlin, sample_budget=500, seed=4)
    entry = report["checks"][check]
    assert report["passed"] is False and entry["passed"] is False
    assert entry["witness"] == {"t": spoiled_at["t"], "u": spoiled_at["u"]}
    assert entry["min_value"] == spoiled_at["value"]
    assert report["checks"][other]["passed"] is True
