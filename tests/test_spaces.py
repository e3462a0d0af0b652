"""Norms, embedding constants, and the randomized inequality verifier."""

import dataclasses
import math

import numpy as np
import pytest

from fracham import (
    GridFunction,
    IntervalGrid,
    RealLineGrid,
    estimate_embedding_constants,
    norm_x_lambda,
    quadratic_form_alpha,
    verify_embeddings,
)
from fracham import problem, spaces
from fracham.errors import DomainError, EmbeddingViolation
from fracham.fracops import gl_matrix
from fracham.functional import _stack_rows
from fracham.problem import PotentialSpec
from fracham.spaces import (
    EmbeddingConstants,
    c_infinity_grid_sharp,
    extremal_profile,
    inner_x_lambda,
    norm_h_alpha,
    sample_interval_function,
    sample_line_function,
)


@pytest.mark.parametrize("num_points", [256, 4096])
@pytest.mark.parametrize("alpha", [0.51, 0.75, 0.99])
def test_extremal_profile_attains_grid_sharp_constant(alpha, num_points):
    grid = RealLineGrid(20.0, num_points)
    prof = extremal_profile(grid, alpha)
    ratio = float(np.max(np.abs(prof.values))) / norm_h_alpha(prof, alpha)
    sharp = c_infinity_grid_sharp(grid, alpha)
    assert abs(ratio - sharp) / sharp < 1e-12


def test_estimator_returns_grid_sharp_for_any_budget(line_grid, potential):
    """No sample of any family beats the extremal profile the constants use."""
    alpha = 0.75
    sharp = c_infinity_grid_sharp(line_grid, alpha)
    constants = estimate_embedding_constants(line_grid, alpha, potential)
    assert abs(constants.c_infinity_raw - sharp) / sharp < 1e-12
    for samples, seed in ((30, 1), (300, 99)):
        rng = np.random.default_rng(seed)
        for i in range(samples):
            u = GridFunction(line_grid, sample_line_function(line_grid, rng, i % 3))
            ratio = float(np.max(np.abs(u.values))) / norm_h_alpha(u, alpha)
            assert ratio <= sharp * (1.0 + 1e-12), (seed, i)


def test_embedding_constants_internal_relations(constants, potential):
    csq_m = constants.c_infinity**2 * constants.meas_lc
    assert csq_m < 1.0
    assert abs(constants.theta - (1.0 - csq_m) / csq_m) < 1e-12 * constants.theta
    floor = 1.0 / (potential.c * csq_m)
    assert abs(constants.lambda_floor - floor) < 1e-12 * floor
    assert abs(constants.c_infinity - constants.safety * constants.c_infinity_raw) < 1e-15
    assert abs(constants.meas_lc - potential.sublevel_measure()) < 1e-15
    for p in (3.0, 4.0):
        k = constants.kappa(p)
        product = k**p * constants.theta ** (p / 2.0) * constants.meas_lc ** ((p - 2.0) / 2.0)
        assert abs(product - 1.0) < 1e-12


def test_safety_below_one_is_rejected(line_grid, potential):
    """A safety factor below 1 would put ``C_inf`` under what the extremal profile attains."""
    with pytest.raises(DomainError, match="at least 1"):
        estimate_embedding_constants(line_grid, 0.75, potential, safety=0.99)


def test_wide_well_is_rejected(line_grid):
    wide = PotentialSpec(varrho=5.0, delta=0.05, cap=6.0, c=1.5)
    with pytest.raises(DomainError):
        estimate_embedding_constants(line_grid, 0.75, wide)


def test_weighted_inner_product_axioms(spec10):
    grid = spec10.grid
    rng = np.random.default_rng(20260816)
    u = GridFunction(grid, sample_line_function(grid, rng, 0))
    v = GridFunction(grid, sample_line_function(grid, rng, 1))
    w = GridFunction(grid, sample_line_function(grid, rng, 0))
    uv = inner_x_lambda(u, v, spec10)
    assert abs(uv - inner_x_lambda(v, u, spec10)) < 1e-12 * (1.0 + abs(uv))
    lin = inner_x_lambda(GridFunction(grid, 2.0 * u.values + w.values), v, spec10)
    assert abs(lin - 2.0 * uv - inner_x_lambda(w, v, spec10)) < 1e-10 * (1.0 + abs(lin))
    nu, nv = norm_x_lambda(u, spec10), norm_x_lambda(v, spec10)
    ns = norm_x_lambda(GridFunction(grid, u.values + v.values), spec10)
    assert ns <= nu + nv + 1e-12 * (nu + nv)
    assert abs(norm_x_lambda(GridFunction(grid, -3.0 * u.values), spec10) - 3.0 * nu) < 1e-10 * nu


def test_weighted_norm_grows_with_parameter(spec10):
    grid = spec10.grid
    t = grid.nodes
    u = GridFunction(grid, np.exp(-((t - 1.0) ** 2)))  # overlaps the positive set
    norms = [norm_x_lambda(u, spec10.with_lambda(lam)) for lam in (1.0, 10.0, 100.0)]
    assert norms[0] < norms[1] < norms[2]


def test_weighted_norm_reduces_on_the_well(setup, spec10):
    """A field supported where the potential vanishes sees no parameter term."""
    psi = setup.psi
    nsq = norm_x_lambda(psi, spec10) ** 2
    qf = quadratic_form_alpha(psi, spec10.alpha)
    assert abs(nsq - qf) < 1e-12 * qf
    assert norm_x_lambda(psi, spec10.with_lambda(1000.0)) == norm_x_lambda(psi, spec10)


def test_verify_embeddings_small_budget(spec10, constants):
    report = verify_embeddings(60, spec10, constants=constants, seed=3)
    assert report["passed"] is True
    for name, entry in report["inequalities"].items():
        assert entry["worst_ratio"] <= 1.0 + 1e-8, name
        assert entry["samples"] > 0, name


def test_verify_embeddings_counts_the_potential_once_for_vectors(spec10, constants):
    """With scales (1, 2) an n=2 spec reports what n=1 does: samples sit in component 0."""
    vector = dataclasses.replace(
        spec10,
        n=2,
        potential=dataclasses.replace(spec10.potential, kind="diagonal", diag_scales=(1.0, 2.0)),
    )
    scalar = verify_embeddings(60, spec10, constants=constants, seed=3)["inequalities"]
    lifted = verify_embeddings(60, vector, constants=constants, seed=3)["inequalities"]
    for name, entry in scalar.items():
        other = lifted[name]
        assert other["samples"] == entry["samples"]
        assert other["argmax_sample_id"] == entry["argmax_sample_id"]
        assert other["worst_ratio"] == pytest.approx(entry["worst_ratio"], rel=1e-12, abs=0.0)


@pytest.mark.parametrize("samples", [0, -1])
def test_verify_embeddings_rejects_a_count_below_one(spec10, constants, samples):
    """Fewer than one sample raises; it does not quietly run one line and one interval sample."""
    with pytest.raises(DomainError, match="at least one sample"):
        verify_embeddings(samples, spec10, constants=constants)


def test_verify_embeddings_rejects_parameter_below_floor(spec10, constants):
    low = spec10.with_lambda(0.5 * constants.lambda_floor)
    with pytest.raises(DomainError):
        verify_embeddings(10, low, constants=constants)


def test_verify_embeddings_flags_a_false_constant(spec10, constants):
    """An understated sup constant must surface as a violation with a sample.

    The violation names the sample a one-at-a-time loop fails at; with the
    milder understatement that sample lies past the first chunk, off a
    chunk's first row.
    """
    for factor, samples in ((0.2, 50), (0.73, 121)):
        fake = _understated(constants, factor)
        spec = spec10.with_lambda(fake.lambda_floor)
        with pytest.raises(EmbeddingViolation) as err:
            verify_embeddings(samples, spec, constants=fake, seed=3)
        assert err.value.detail["ratio"] > 1.0
        assert err.value.sample is not None
        _, hit = _reference_embeddings(samples, spec, fake, seed=3)
        assert (err.value.detail["name"], err.value.detail["sample_id"]) == hit
    index = int(hit[1].split("/")[2])
    rows = _stack_rows(spec10.grid.num_points * spec10.n)
    assert index > rows and index % rows != 0


def test_interval_samples_vanish_at_endpoints():
    ig = IntervalGrid(-0.4, 0.4, 257)
    rng = np.random.default_rng(20260816)
    for fam in (0, 1):
        for _ in range(5):
            vals = sample_interval_function(ig, rng, fam)
            assert vals[0] == 0.0 and vals[-1] == 0.0


def test_norm_domain_checks(line_grid, spec10):
    ig = IntervalGrid(0.0, 1.0, 17)
    with pytest.raises(DomainError):
        norm_h_alpha(GridFunction(ig, np.zeros(17)), 0.75)
    other = RealLineGrid(10.0, 64)
    with pytest.raises(DomainError):
        inner_x_lambda(
            GridFunction(other, np.zeros(64)), GridFunction(other, np.zeros(64)), spec10
        )
    with pytest.raises(DomainError):
        sample_line_function(line_grid, np.random.default_rng(0), 7)


def _full_grid_bumps(grid, rng, family, drawn):
    """Families 0 and 1 of :func:`sample_line_function`, each bump on every node."""
    t = grid.nodes
    r = grid.halfwidth
    k = int(rng.integers(1, 4))
    vals = np.zeros_like(t)
    for _ in range(k):
        c = rng.uniform(-0.5 * r, 0.5 * r)
        if family == 0:
            wdt = math.exp(rng.uniform(math.log(0.05), math.log(2.0)))
            vals += rng.normal() * np.exp(-((t - c) ** 2) / (2.0 * wdt**2))
            reach = math.sqrt(1492.0) * wdt
        else:
            wdt = math.exp(rng.uniform(math.log(0.1), math.log(3.0)))
            s = np.clip(1.0 - ((t - c) / wdt) ** 2, 0.0, None)
            vals += rng.normal() * s**3
            reach = wdt
        drawn.append((c, wdt, reach))
    return vals


@pytest.mark.parametrize(
    "grid",
    [RealLineGrid(20.0, 4096), RealLineGrid(1.0, 256), RealLineGrid(40.0, 64), RealLineGrid(7.3, 1024)],
    ids=["default", "narrow-box", "coarse", "odd-halfwidth"],
)
def test_windowed_bumps_match_the_full_grid_formula(grid):
    """Bumps evaluated on their support only are the full-grid values, bit for bit."""
    seed = 20260816
    fast, oracle = np.random.default_rng(seed), np.random.default_rng(seed)
    drawn = []
    for i in range(300):
        fam = i % 2
        got = sample_line_function(grid, fast, fam)
        want = _full_grid_bumps(grid, oracle, fam, drawn)
        assert got.tobytes() == want.tobytes(), (i, fam)
    assert fast.bit_generator.state == oracle.bit_generator.state
    r, h = grid.halfwidth, grid.spacing
    assert any(c - reach < -r for c, _, reach in drawn)
    assert any(c + reach > r for c, _, reach in drawn)
    if h > 0.05:
        assert any(wdt < h for _, wdt, _ in drawn)


def _one_sample(grid, rng, family):
    """One sample by each family's own full-grid formula; a band-limited one by its own ``irfft``."""
    if isinstance(grid, IntervalGrid):
        s = (grid.nodes - grid.lower) / (grid.upper - grid.lower)
        if family == 1:
            c, wdt = rng.uniform(0.2, 0.8), rng.uniform(0.05, 0.4)
            return s * (1.0 - s) * np.exp(-((s - c) ** 2) / (2.0 * wdt**2)) * rng.normal()
        vals = np.zeros_like(s)
        for mode in range(1, int(rng.integers(1, 5)) + 1):
            vals += rng.normal() * np.sin(np.pi * mode * s)
        vals[0] = vals[-1] = 0.0
        return vals
    if family < 2:
        return _full_grid_bumps(grid, rng, family, [])
    w = grid.rfft_frequencies
    keep = np.abs(w) <= math.exp(rng.uniform(0.0, math.log(50.0)))
    coeff = np.zeros(w.shape, dtype=np.complex128)
    nk = int(keep.sum())
    coeff[keep] = rng.normal(size=nk) + 1j * rng.normal(size=nk)
    coeff[0] = coeff[0].real
    return np.fft.irfft(coeff, n=grid.num_points)


def test_chunk_sampler_matches_a_one_sample_loop(line_grid, interval_grid):
    """Every row the chunk sampler fills is the bits of a one-sample loop, RNG state included.

    Chunks of 1-4 rows in the ``i % 3`` family order of ``verify_embeddings``,
    then chunks of 1-4 drawn-family fields at ``n = 1`` and ``n = 2`` on the
    line and on an interval, laid out as the campaign lays them out.  Some
    chunks hold four or more band-limited rows, each its own ``irfft``.
    """
    fast, slow = np.random.default_rng(20261020), np.random.default_rng(20261020)
    first = 0
    for rows in (1, 2, 3, 4, 4, 3, 2, 1):
        block = np.empty((rows, line_grid.num_points))
        slots = [(row, (first + j) % 3) for j, row in enumerate(block)]
        spaces._fill_samples(line_grid, fast, slots)
        for j, row in enumerate(block):
            assert row.tobytes() == _one_sample(line_grid, slow, (first + j) % 3).tobytes()
        first += rows
    band_limited = []
    for grid, families in ((line_grid, 3), (interval_grid, 2)):
        for n in (1, 2):
            for rows in (1, 2, 3, 4) * 3:
                fields = np.empty((rows, grid.num_points, n))
                slots = [(fields[j, :, c], None) for j in range(rows) for c in range(n)]
                spaces._fill_samples(grid, fast, slots)
                drawn = []
                for row, _ in slots:
                    drawn.append(int(slow.integers(0, families)))
                    assert row.tobytes() == _one_sample(grid, slow, drawn[-1]).tobytes()
                if families == 3:
                    band_limited.append(drawn.count(2))
    assert fast.bit_generator.state == slow.bit_generator.state
    assert max(band_limited) > 3 and sum(k >= 2 for k in band_limited) >= 3


def test_a_family_outside_the_domain_table_raises(line_grid, interval_grid):
    """Each domain samples only the families of ``spaces._FAMILIES``, drawn or given.

    A family outside the table raises before the generator moves; a ``None``
    family is drawn from the table, and every family in it turns up.
    """
    assert spaces._FAMILIES == {RealLineGrid: 3, IntervalGrid: 2}
    cases = ((interval_grid, sample_interval_function, (2, 7, -1)),
             (line_grid, sample_line_function, (3, -1)))
    for grid, sample, bad in cases:
        rng = np.random.default_rng(20261021)
        state = rng.bit_generator.state
        for family in bad:
            with pytest.raises(DomainError, match="unknown sample family"):
                sample(grid, rng, family)
            assert rng.bit_generator.state == state
        families = spaces._FAMILIES[type(grid)]
        fast, slow = np.random.default_rng(7), np.random.default_rng(7)
        seen = set()
        for _ in range(30):
            row = np.empty(grid.num_points)
            spaces._fill_samples(grid, fast, [(row, None)])
            family = int(slow.integers(0, families))
            assert row.tobytes() == _one_sample(grid, slow, family).tobytes()
            seen.add(family)
        assert seen == set(range(families))


def _understated(constants, factor):
    fake_c = factor * constants.c_infinity
    return EmbeddingConstants(
        alpha=constants.alpha,
        c_infinity=fake_c,
        c_infinity_raw=fake_c / constants.safety,
        safety=constants.safety,
        meas_lc=constants.meas_lc,
        c_level=constants.c_level,
    )


def _reference_embeddings(samples, spec, constants, seed):
    """One sample at a time, through the public norms, with the GL matvec per exponent.

    Returns the worst-ratio entries and the first violation ``(name, id)``,
    or ``None``.  Each line sample is component 0 of an ``spec.n`` field.
    """
    rng = np.random.default_rng(seed)
    grid, alpha, p = spec.grid, spec.alpha, 4.0
    worst = {}

    def record(name, ratio, sid):
        entry = worst.setdefault(
            name, {"name": name, "worst_ratio": 0.0, "argmax_sample_id": None, "samples": 0}
        )
        entry["samples"] += 1
        if ratio > entry["worst_ratio"]:
            entry["worst_ratio"], entry["argmax_sample_id"] = ratio, sid
        return (name, sid) if ratio > 1.0 + 1e-8 else None

    def line_ratios(vals):
        na = norm_h_alpha(GridFunction(grid, vals), alpha)
        if na == 0.0:
            return
        lifted = np.zeros((grid.num_points, spec.n))
        lifted[:, 0] = vals
        nx = norm_x_lambda(GridFunction(grid, lifted), spec)
        sup = float(np.max(np.abs(vals)))
        l2sq = grid.integrate(vals**2)
        lppow = grid.integrate(np.abs(vals) ** p)
        yield "sup_le_cinf_norm_alpha", sup / (constants.c_infinity * na)
        if nx > 0.0:
            yield "l2sq_le_inv_theta_xnormsq", l2sq * constants.theta / nx**2
            yield "alphasq_le_equiv_xnormsq", na**2 / ((1.0 + 1.0 / constants.theta) * nx**2)
            yield "lp_le_kappa_xnorm", lppow / (1.0 / constants.kappa_neg_power(p) * nx**p)
        if sup > 0.0 and l2sq > 0.0:
            yield "interp_lp_le_sup_l2", lppow / (sup ** (p - 2.0) * l2sq)

    for i in range(max(samples, 1)):
        vals = sample_line_function(grid, rng, i % 3)
        sid = f"line/{i % 3}/{i}"
        for name, ratio in line_ratios(vals):
            if (hit := record(name, ratio, sid)) is not None:
                return worst, hit

    igrid = spec.well_interval(257).grid
    length = igrid.upper - igrid.lower
    for i in range(max(samples // 4, 1)):
        vals = sample_interval_function(igrid, rng, i % 2)
        sid = f"interval/{i % 2}/{i}"
        for pp in (2.0, p):
            dlp = igrid.integrate(np.abs(gl_matrix(igrid, alpha) @ vals) ** pp) ** (1.0 / pp)
            lp = sup = 0.0
            if dlp != 0.0:
                q = pp / (pp - 1.0)
                ulp = igrid.integrate(np.abs(vals) ** pp) ** (1.0 / pp)
                lp = ulp / (length**alpha / math.gamma(alpha + 1.0) * dlp)
                sup_bound = (
                    length ** (alpha - 1.0 / pp)
                    / (math.gamma(alpha) * ((alpha - 1.0) * q + 1.0) ** (1.0 / q))
                    * dlp
                )
                sup = float(np.max(np.abs(vals))) / sup_bound
            for name, ratio in (("interval_lp_gl", lp), ("interval_sup_gl", sup)):
                if (hit := record(name, ratio, f"{sid}/p{pp}")) is not None:
                    return worst, hit
    return worst, None


def test_chunked_embeddings_match_a_per_sample_loop(spec10, constants):
    """Worst ratios and argmax ids are exact, for n = 1 and n = 2, off the chunk size."""
    samples = 61
    assert samples % _stack_rows(spec10.grid.num_points * spec10.n) != 0
    vector = dataclasses.replace(
        spec10,
        n=2,
        potential=dataclasses.replace(spec10.potential, kind="diagonal", diag_scales=(1.0, 2.0)),
    )
    for spec in (spec10, vector):
        for seed in (3, 20260816):
            want, hit = _reference_embeddings(samples, spec, constants, seed)
            assert hit is None
            got = verify_embeddings(samples, spec, constants=constants, seed=seed)["inequalities"]
            assert got == want, (spec.n, seed)


def test_underflowing_powers_are_zero():
    """``_power`` skips only entries whose ``pow`` is exactly ``0.0``; NaN and inf pass through.

    The exponents are ``verify``'s 2 and 4 and those of ``_radial_value``:
    ``p`` and ``p - epsilon`` of the default pure power and oscillatory families.
    """
    rng = np.random.default_rng(5)
    for p in (2.0, 2.5, 3.0, 4.0):
        below = 2.0 ** (-1080.0 / p) * rng.uniform(0.0, 1.0, 10_000)
        assert np.all(below**p == 0.0) and not np.any(np.signbit(below**p))
        mixed = np.concatenate([below, np.abs(rng.normal(size=1000)), [0.0, 1e-300, 1e-80],
                                [np.nan, np.inf]])
        got = problem._power(mixed, p)
        assert got.tobytes() == (mixed**p).tobytes()
        assert np.isnan(got[-2]) and got[-1] == np.inf
        assert problem._power(mixed.reshape(5, -1), p).tobytes() == got.tobytes()
        clean = np.concatenate([mixed[10_000:11_000], mixed[-3:]])  # no entry underflows
        assert not np.any(clean < 2.0 ** (-1080.0 / p))
        assert problem._power(clean, p).tobytes() == (clean**p).tobytes()
    for p in (0.0, -1.0, np.nan):
        with pytest.raises(DomainError, match="exponent above 0"):
            problem._power(mixed, p)
