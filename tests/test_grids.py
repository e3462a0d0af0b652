"""Grids, quadrature, sampled functions, spectra."""

import math

import numpy as np
import pytest

from fracham import (
    GridFunction,
    IntervalGrid,
    RealLineGrid,
)
from fracham.errors import DomainError


def test_line_grid_rejects_bad_sizes():
    with pytest.raises(DomainError):
        RealLineGrid(20.0, 1000)
    with pytest.raises(DomainError):
        RealLineGrid(20.0, 2)
    with pytest.raises(DomainError):
        RealLineGrid(-1.0, 4096)
    with pytest.raises(DomainError):
        RealLineGrid(float("inf"), 4096)


def test_line_grid_layout():
    g = RealLineGrid(20.0, 4096)
    t = g.nodes
    assert t[0] == -20.0
    assert abs(t[-1] - (20.0 - g.spacing)) < 1e-14
    assert abs(g.spacing - 40.0 / 4096) < 1e-18
    # frequency sets: full fft ordering and the rfft half
    assert g.angular_frequencies.shape == (4096,)
    assert g.rfft_frequencies.shape == (2049,)
    assert g.rfft_frequencies[0] == 0.0
    parw = g.rfft_parseval_weights
    assert parw[0] == 1.0 and parw[-1] == 1.0
    assert np.all(parw[1:-1] == 2.0)


def test_line_quadrature_examples():
    g = RealLineGrid(20.0, 4096)
    t = g.nodes
    assert abs(g.integrate(np.ones(g.num_points)) - 40.0) < 1e-12
    # periodic trapezoid is spectrally accurate for smooth decaying functions
    assert abs(g.integrate(np.exp(-t * t)) - math.sqrt(math.pi)) < 1e-12
    assert abs(g.integrate(np.exp(-t * t) * t * t) - 0.5 * math.sqrt(math.pi)) < 1e-12
    odd = t * np.exp(-t * t)
    assert abs(g.integrate(odd)) < 1e-13
    with pytest.raises(DomainError):
        g.integrate(np.ones(17))


def test_grid_function_normalizes_shape_and_is_read_only():
    g = RealLineGrid(20.0, 64)
    u = GridFunction(g, np.sin(g.nodes))
    assert u.values.shape == (64, 1)
    assert u.num_components == 1
    with pytest.raises(ValueError):
        u.values[0, 0] = 1.0
    two = GridFunction(g, np.stack([np.sin(g.nodes), np.cos(g.nodes)], axis=1))
    assert two.num_components == 2
    mag = two.euclidean_magnitude()
    assert np.allclose(mag, 1.0, atol=1e-14)


def test_grid_function_rejects_bad_values():
    g = RealLineGrid(20.0, 64)
    with pytest.raises(DomainError):
        GridFunction(g, np.ones(65))
    bad = np.ones(64)
    bad[3] = np.nan
    with pytest.raises(DomainError):
        GridFunction(g, bad)
    bad[3] = np.inf
    with pytest.raises(DomainError):
        GridFunction(g, bad)


def test_interval_grid_layout_and_weights():
    ig = IntervalGrid(-0.4, 0.4, 257)
    assert ig.nodes[0] == -0.4 and ig.nodes[-1] == 0.4
    w = ig.trapezoid_weights
    assert abs(float(np.sum(w)) - 0.8) < 1e-14
    assert w[0] == 0.5 * ig.spacing and w[-1] == 0.5 * ig.spacing
    # trapezoid rule is exact for affine integrands
    s = ig.nodes
    assert abs(ig.integrate(2.0 * s + 1.0) - 0.8) < 1e-14
    with pytest.raises(DomainError):
        IntervalGrid(0.0, 1.0, 2)
    with pytest.raises(DomainError):
        IntervalGrid(1.0, 0.0, 9)
