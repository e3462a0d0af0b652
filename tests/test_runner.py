"""Concentration observables, sweeps, campaign aggregation, and persistence."""

import dataclasses
import json
import math
import pathlib
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracham import (
    GridFunction,
    IntervalGrid,
    RealLineGrid,
    bvp_el_residual,
    bvp_solve,
    construct_e,
    derivative_action,
    dist_h_alpha,
    energy,
    estimate_embedding_constants,
    lambda_sweep,
    mpa_solve,
    run_verification_campaign,
    tail_mass_ratio,
)
from fracham import functional, mpa, runner, spaces
from fracham.cli import main
from fracham.errors import ConfigError, ConvergenceError, DomainError, MonotonicityError
from fracham.functional import ProblemSpec, _operator, _stack_rows, h_identity
from fracham.problem import NonlinearitySpec, default_oscillatory
from fracham.runner import (
    canonical_json,
    embed_interval_solution,
    payload_hash,
    write_report,
    write_solve_outputs,
    write_sweep_csv,
)
from fracham.spaces import norm_h_alpha, sample_interval_function, sample_line_function
from test_mpa import _solve_vector_spec


def test_tail_mass_ratio_constructed_cases(line_grid):
    t = line_grid.nodes
    inside = GridFunction(line_grid, np.where(np.abs(t) <= 0.3, 1.0, 0.0))
    assert tail_mass_ratio(inside, 0.4) == 0.0
    outside = GridFunction(line_grid, np.where(np.abs(t) > 2.0, 1.0, 0.0))
    assert tail_mass_ratio(outside, 0.4) == 1.0
    split = np.zeros_like(t)
    split[np.argmin(np.abs(t))] = 1.0  # node at the origin, inside the well
    split[np.argmin(np.abs(t - 10.0))] = 1.0  # node far outside
    assert tail_mass_ratio(GridFunction(line_grid, split), 0.4) == 0.5


def test_tail_mass_ratio_rejects_bad_input(line_grid):
    with pytest.raises(DomainError):
        tail_mass_ratio(GridFunction(line_grid, np.zeros(line_grid.num_points)), 0.4)
    with pytest.raises(DomainError):
        tail_mass_ratio(GridFunction(line_grid, np.ones(line_grid.num_points)), 0.0)
    ig = IntervalGrid(-0.4, 0.4, 17)
    with pytest.raises(DomainError):
        tail_mass_ratio(GridFunction(ig, np.ones(17)), 0.4)


def test_embed_interval_solution_zero_extends(line_grid):
    ig = IntervalGrid(-0.4, 0.4, 257)
    x = ig.nodes
    vals = np.stack(
        [(x + 0.4) * (0.4 - x), np.sin(np.pi * (x + 0.4) / 0.8)], axis=1
    )
    vals[0] = 0.0
    vals[-1] = 0.0
    u = GridFunction(ig, vals)
    emb = embed_interval_solution(u, line_grid)
    assert emb.num_components == 2
    t = line_grid.nodes
    far = np.abs(t) > 0.4
    assert np.all(emb.values[far] == 0.0)
    near = np.abs(t) < 0.39
    exact0 = (t[near] + 0.4) * (0.4 - t[near])
    exact1 = np.sin(np.pi * (t[near] + 0.4) / 0.8)
    assert np.max(np.abs(emb.values[near, 0] - exact0)) < 1e-4
    assert np.max(np.abs(emb.values[near, 1] - exact1)) < 1e-4
    with pytest.raises(DomainError):
        embed_interval_solution(emb, line_grid)  # already a line function


def test_distance_to_own_embedding_is_zero(line_grid):
    ig = IntervalGrid(-0.4, 0.4, 257)
    rng = np.random.default_rng(20260816)
    u = GridFunction(ig, sample_interval_function(ig, rng, 0))
    line_copy = embed_interval_solution(u, line_grid)
    assert dist_h_alpha(line_copy, u, 0.75) == 0.0


def test_el_residual_separates_solutions_from_noise(bvp_result, interval_spec):
    at_solution = bvp_el_residual(bvp_result.u, interval_spec)
    assert at_solution <= 1e-10
    rng = np.random.default_rng(1)
    noise = GridFunction(
        interval_spec.grid, sample_interval_function(interval_spec.grid, rng, 1)
    )
    assert bvp_el_residual(noise, interval_spec) > 1e-3


def test_canonical_json_handles_numpy_scalars():
    payload = {
        "a": np.float64(1.5),
        "b": np.int64(3),
        "c": np.bool_(True),
        "d": np.arange(3),
    }
    text = canonical_json(payload)
    back = json.loads(text)
    assert back == {"a": 1.5, "b": 3, "c": True, "d": [0, 1, 2]}
    assert text.endswith("\n")
    with pytest.raises(ValueError):
        canonical_json({"bad": math.nan})
    with pytest.raises(TypeError):
        canonical_json({"bad": {1, 2}})


_EDGE_FLOATS = [-0.0, 5e-324, -5e-324, 2.2e-308, 1e300, -1e300, 1e-300, -1e-300]


@st.composite
def _array_payloads(draw):
    """A float64 array of shape ``(N,)``, ``(N, 1)`` or ``(N, 2)``, inside 0 to 3 dicts."""
    n = draw(st.integers(0, 6))
    shape = draw(st.sampled_from([(n,), (n, 1), (n, 2)]))
    floats = st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False))
    arr = np.array(draw(st.lists(floats, min_size=math.prod(shape), max_size=math.prod(shape))),
                   dtype=np.float64).reshape(shape)
    payload, plain = arr, arr.tolist()
    for _ in range(draw(st.integers(0, 3))):
        key = draw(st.text(max_size=3))
        other = key + draw(st.sampled_from(["", "a", "~"])) + "!"
        sibling = draw(st.one_of(st.none(), st.floats(allow_nan=False), st.lists(st.integers())))
        payload, plain = {key: payload, other: sibling}, {other: sibling, key: plain}
    return payload, plain


@settings(deadline=None, max_examples=100, derandomize=True, database=None)
@given(_array_payloads())
def test_canonical_json_writes_float_arrays_as_the_python_encoder_does(case):
    """The C-rendered arrays come out byte for byte as ``indent=2`` writes their lists."""
    payload, plain = case
    expected = json.dumps(plain, sort_keys=True, indent=2, allow_nan=False) + "\n"
    assert canonical_json(payload) == expected


def test_canonical_json_keeps_integer_arrays_and_rejects_non_finite_arrays():
    for ints in (np.arange(3), np.arange(6).reshape(3, 2)):
        assert canonical_json({"d": ints}) == canonical_json({"d": ints.tolist()})
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            canonical_json({"a": {"values": np.array([[1.0, bad], [2.0, 3.0]])}})


def test_payload_hash_is_order_invariant():
    h1 = payload_hash({"x": 1, "y": [2.0, 3.0]})
    h2 = payload_hash({"y": [2.0, 3.0], "x": 1})
    assert h1 == h2
    assert len(h1) == 16 and all(ch in "0123456789abcdef" for ch in h1)
    assert payload_hash({"x": 1, "y": [2.0, 3.5]}) != h1


def test_write_solve_outputs(tmp_path, default_solve):
    paths = write_solve_outputs(str(tmp_path), default_solve, extras={"marker": 7})
    payload = json.loads(pathlib.Path(paths["result"]).read_text(encoding="utf-8"))
    assert payload["marker"] == 7
    assert "generated_at" in payload
    assert payload["level"] == default_solve.level
    assert payload["trace_columns"] == ["level", "residual", "residual_weighted"]

    u_lines = pathlib.Path(paths["u"]).read_text(encoding="utf-8").splitlines()
    assert u_lines[0] == "t,abs_u"
    assert len(u_lines) == 1 + default_solve.u.grid.num_points
    t0, v0 = u_lines[1].split(",")
    assert float(t0) == default_solve.u.grid.nodes[0]
    assert float(v0) == float(default_solve.u.euclidean_magnitude()[0])

    trace_lines = pathlib.Path(paths["trace"]).read_text(encoding="utf-8").splitlines()
    assert trace_lines[0] == "iteration,level,residual,residual_weighted"
    assert len(trace_lines) == 1 + len(default_solve.trace)
    first = trace_lines[1].split(",")
    assert first[0] == "1"
    assert float(first[1]) == default_solve.trace[0][0]


def test_write_report_canonical(tmp_path):
    path = write_report(str(tmp_path), "report.json", {"b": 2, "a": 1})
    text = pathlib.Path(path).read_text(encoding="utf-8")
    assert text.index('"a"') < text.index('"b"')  # keys are sorted
    assert json.loads(text) == {"a": 1, "b": 2}


def test_write_sweep_csv(tmp_path, sweep_report):
    path = write_sweep_csv(str(tmp_path), sweep_report)
    lines = pathlib.Path(path).read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    assert header == [
        "lambda", "level", "residual", "residual_weighted", "converged",
        "iterations", "tail_mass_ratio", "dist_to_bvp_h_alpha", "c6_gap",
    ]
    assert len(lines) == 1 + len(sweep_report.records)
    for line, rec in zip(lines[1:], sweep_report.records):
        cells = line.split(",")
        assert cells[4] in ("0", "1")
        assert float(cells[0]) == rec["lambda"]
        assert float(cells[1]) == rec["level"]  # repr floats roundtrip exactly
        assert float(cells[6]) == rec["tail_mass_ratio"]


@pytest.mark.parametrize("end", ["above", "below"])
def test_converged_level_outside_the_bracket_raises(
    end, spec10, setup, constants, default_solve, bvp_result, interval_spec, monkeypatch, capsys
):
    """A converged line level outside ``setup.level_bracket`` stops every line solve.

    ``_run_path`` returns a converged run at ``2 ctilde`` or ``eta / 2``.
    ``mpa_solve``, the sweep and ``fracham solve`` report the same error;
    ``bvp_solve`` still rejects a converged level of 0.
    """
    level = 2.0 * setup.ctilde if end == "above" else 0.5 * setup.eta
    monkeypatch.setattr(mpa, "_run_path", lambda *args: dataclasses.replace(default_solve, level=level))
    with pytest.raises(ConvergenceError, match="certified bracket") as raised:
        mpa_solve(spec10, setup)
    message = str(raised.value)
    lo, hi = setup.level_bracket
    assert "lambda=10 " in message and f"[{lo:.9g}, {hi:.9g}]" in message
    monkeypatch.setattr(runner, "bvp_solve", lambda *args: bvp_result)
    with pytest.raises(ConvergenceError) as raised:
        lambda_sweep(spec10, [10.0], constants=constants)
    assert str(raised.value) == message
    assert main(["solve", "--lambda", "10"]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    monkeypatch.setattr(mpa, "_run_path", lambda *args: dataclasses.replace(bvp_result, level=0.0))
    with pytest.raises(ConvergenceError, match="on the interval lies outside the certified bracket"):
        bvp_solve(interval_spec)


def _patch_two_rungs(monkeypatch, setup, default_solve, bvp_result, tails, dists, converged=(True, True)):
    """Make ``lambda_sweep`` on a 2-rung ladder reuse the session's solves and report given observables."""
    results = iter([dataclasses.replace(default_solve, converged=flag) for flag in converged])
    monkeypatch.setattr(runner, "construct_e", lambda *args, **kwargs: setup)
    monkeypatch.setattr(runner, "bvp_solve", lambda *args: bvp_result)
    monkeypatch.setattr(runner, "mpa_solve", lambda *args, **kwargs: next(results))
    for name, values in (("tail_mass_ratio", iter(tails)), ("dist_h_alpha", iter(dists))):
        monkeypatch.setattr(runner, name, lambda *args, values=values: next(values))


@pytest.mark.parametrize(
    "tails, dists, message",
    [
        ((0.1, 0.2), (0.2, 0.1), "tail mass ratio failed to decrease strictly"),
        ((0.2, 0.1), (0.1, 0.2), "distance to the interval solution failed to decrease strictly"),
        ((0.1, 0.2), (0.1, 0.2), "tail mass ratio failed to decrease strictly"),
    ],
    ids=["tail", "distance", "both"],
)
def test_sweep_observable_that_rises_raises(
    tails, dists, message, spec10, setup, constants, default_solve, bvp_result, monkeypatch
):
    """Each observable must fall strictly between converged rungs; the tail is checked first."""
    _patch_two_rungs(monkeypatch, setup, default_solve, bvp_result, tails, dists)
    with pytest.raises(MonotonicityError) as raised:
        lambda_sweep(spec10, [10.0, 100.0], constants=constants)
    assert str(raised.value) == message
    detail = raised.value.detail
    assert set(detail) == {"previous", "current"}
    for key, rung in (("previous", 0), ("current", 1)):
        record = detail[key]
        assert record["lambda"] == (10.0, 100.0)[rung]
        assert (record["tail_mass_ratio"], record["dist_to_bvp_h_alpha"]) == (tails[rung], dists[rung])


@pytest.mark.parametrize(
    "spoils, converged, observed",
    [
        (({}, {}), (True, True), 10.0),
        (({"c6_ok": False}, {"c6_ok": False}), (True, True), None),
        (({"identity_gap": math.inf}, {"identity_gap": math.inf}), (True, True), None),
        (({"identity_gap": math.inf}, {"c6_ok": True}), (True, True), 100.0),
        (({}, {"c6_ok": True}), (False, True), 100.0),
    ],
    ids=["both-pass", "c6-fails", "identity-fails", "second-passes", "second-converged"],
)
def test_observed_admissible_lambda_is_the_first_passing_rung(
    spoils, converged, observed, spec10, setup, constants, default_solve, bvp_result, monkeypatch
):
    """The first converged record that passes ``c6_ok`` and ``identity_ok``, or ``None``.

    Both rungs reuse the solve at 10, so the second passes ``c6`` only when
    its record says so.
    """
    _patch_two_rungs(monkeypatch, setup, default_solve, bvp_result, (0.2, 0.1), (0.2, 0.1), converged)
    c6_record, spoiled = runner._c6_record, iter(spoils)
    monkeypatch.setattr(runner, "_c6_record", lambda *args: {**c6_record(*args), **next(spoiled)})
    report = lambda_sweep(spec10, [10.0, 100.0], constants=constants)
    assert [r["converged"] for r in report.records] == list(converged)
    assert report.observed_admissible_lambda == observed


def test_sweep_report_structure(sweep_report, constants, ctilde):
    recs = sweep_report.records
    assert [r["lambda"] for r in recs] == [1.0, 10.0, 100.0, 1000.0]
    assert all(r["converged"] for r in recs)
    for r in recs:
        assert sweep_report.eta - 1e-9 <= r["level"] <= sweep_report.ctilde + 1e-9
        assert r["identity_ok"] and r["c6_ok"]
        counters = r["diagnostics"]["counters"]
        assert counters["newton_steps"] >= 0 and counters["inserted"] >= 0
    assert sweep_report.observed_admissible_lambda == 1.0
    assert sweep_report.lambda_floor == constants.lambda_floor
    assert abs(sweep_report.ctilde - ctilde) < 1e-12 * ctilde
    assert sweep_report.bvp_el_residual <= 1e-10
    assert sweep_report.alignment_error <= 0.01
    payload = sweep_report.to_dict()
    decoded = json.loads(canonical_json(payload))
    assert decoded["rho"] == sweep_report.rho
    assert [r["diagnostics"]["counters"] for r in decoded["records"]] == [
        r["diagnostics"]["counters"] for r in recs]


def test_degenerate_ladder_matches_direct_solve(spec10, constants, default_solve, bvp_result):
    rep = lambda_sweep(spec10, [10.0], constants=constants)
    assert len(rep.records) == 1
    rec = rep.records[0]
    assert rec["level"] == default_solve.level
    assert rec["iterations"] == default_solve.iterations
    assert rec["residual"] == default_solve.residual
    assert rec["diagnostics"]["counters"] == default_solve.diagnostics["counters"]
    assert rec["diagnostics"] == default_solve.diagnostics
    assert rec.keys().isdisjoint({"values", "trace", "trace_columns"})
    assert rec["identity_gap"] == h_identity(default_solve.u, spec10)[2]
    assert rep.bvp_reference.level == bvp_result.level


def test_warm_and_cold_ladders_agree(spec10, constants, sweep_report, potential):
    """Warm and cold rungs converge to the same levels.

    Both start from a Newton-polished point.  A warm rung need not measure
    fewer segments: on the solve-vector family the warm ``lambda = 1000``
    rung's ray ``u -> sigma u`` rises, and the run inserts nodes
    (``test_a_rising_ray_is_left_to_the_path``).  Covers the default family
    and the solve-vector family on ``N = 1024``.
    """
    grid = RealLineGrid(20.0, 1024)
    vector = _solve_vector_spec(grid, potential)
    vector_constants = estimate_embedding_constants(grid, vector.alpha, vector.potential)
    lams = [1.0, 10.0, 100.0, 1000.0]
    pairs = [(sweep_report, lambda_sweep(spec10, lams, constants=constants, cold=True))]
    pairs.append(tuple(lambda_sweep(vector, lams, constants=vector_constants, cold=cold)
                       for cold in (False, True)))
    for warm, cold in pairs:
        assert [r["lambda"] for r in warm.records] == [r["lambda"] for r in cold.records] == lams
        for w, c in zip(warm.records, cold.records):
            assert w["converged"] and c["converged"]
            assert abs(w["level"] - c["level"]) <= 1e-13 * abs(c["level"])


def test_a_rising_ray_is_left_to_the_path(line_grid, potential, monkeypatch):
    """The solve-vector family's warm ``lambda = 1000`` rung inserts nodes and reaches the cold level.

    Newton polishes the warm guess onto another critical point (``I(u)`` =
    0.31487 on the default grid) whose ray ``u -> sigma u`` peaks above the
    mountain-pass level (0.36111).  Its ``sigma u -> e`` does not rise, so
    the cone does not apply and no node is spliced: the path alone inserts
    past ``u``.  The rungs at ``lambda = 1`` and 10 close in the cone.
    """
    starts = {}

    class Recorded(mpa._PathEngine):
        def __init__(self, op, nodes):
            super().__init__(op, nodes)
            if isinstance(op.spec, ProblemSpec):
                starts[op.spec.lam] = self.energies, [s.value for s in self.segments]

    monkeypatch.setattr(mpa, "_PathEngine", Recorded)
    spec = _solve_vector_spec(line_grid, potential)
    constants = estimate_embedding_constants(line_grid, spec.alpha, spec.potential)
    warm = lambda_sweep(spec, [1.0, 10.0, 100.0, 1000.0], constants=constants)
    energies, segments = starts[1000.0]
    assert segments[1] > energies[1] >= segments[2]
    rungs = {r["lambda"]: r for r in warm.records}
    for lam in (1.0, 10.0):
        assert rungs[lam]["iterations"] == 1 and rungs[lam]["diagnostics"]["path_nodes_final"] == 6
    rung = rungs[1000.0]
    inserted = rung["diagnostics"]["counters"]["inserted"]
    assert rung["diagnostics"]["newton_start"] == "taken" and inserted > 0
    assert rung["diagnostics"]["path_nodes_final"] == 4 + inserted
    lam = spec.with_lambda(1000.0)
    cold = mpa_solve(lam, construct_e(lam, constants=constants))
    assert rung["converged"] and abs(rung["level"] - cold.level) <= 1e-13 * cold.level


def test_ladder_validation(spec10, constants):
    with pytest.raises(ConfigError):
        lambda_sweep(spec10, [], constants=constants)
    with pytest.raises(ConfigError):
        lambda_sweep(spec10, [10.0, 10.0], constants=constants)
    with pytest.raises(ConfigError):
        lambda_sweep(spec10, [100.0, 10.0], constants=constants)
    with pytest.raises(DomainError):
        lambda_sweep(spec10, [0.5], constants=constants)


def test_campaign_zero_budget_is_trivially_passing(spec10, constants):
    report = run_verification_campaign(
        spec10,
        constants,
        budgets={
            "embedding_samples": 0,
            "nonlinearity_samples": 0,
            "derivative_checks": 0,
            "sphere_samples": 0,
        },
    )
    assert report["passed"] is True
    assert report["sections"] == {}


def test_campaign_rejects_unknown_budget_key(spec10, constants):
    with pytest.raises(ConfigError):
        run_verification_campaign(spec10, constants, budgets={"bogus_samples": 3})


def test_campaign_rejects_a_negative_budget(spec10, constants):
    with pytest.raises(ConfigError, match="'sphere_samples': -3"):
        run_verification_campaign(spec10, constants, budgets={"sphere_samples": -3})


def test_campaign_flags_quadratic_nonlinearity(spec10, constants):
    flat = NonlinearitySpec(kind="pure_power", p=2.0, c0=20.0, radius=1.0)
    spec = dataclasses.replace(spec10, nonlinearity=flat)
    report = run_verification_campaign(
        spec,
        constants,
        budgets={
            "embedding_samples": 0,
            "nonlinearity_samples": 2000,
            "derivative_checks": 0,
            "sphere_samples": 0,
        },
    )
    assert report["passed"] is False
    assert set(report["sections"]) == {"nonlinearity"}
    assert report["sections"]["nonlinearity"]["checks"]["defect_inequality"]["passed"] is False


def test_campaign_reports_an_embedding_violation_and_runs_on(spec10, constants):
    """An understated ``C_inf`` fails the embeddings section with its violation, not the campaign."""
    understated = dataclasses.replace(constants, c_infinity=0.5 * constants.c_infinity_raw)
    budgets = {"embedding_samples": 30, "nonlinearity_samples": 200,
               "derivative_checks": 2, "sphere_samples": 4}
    report = run_verification_campaign(spec10, understated, budgets=budgets)
    embeddings = report["sections"]["embeddings"]
    assert embeddings["passed"] is False
    assert embeddings["violation"].startswith("inequality sup_le_cinf_norm_alpha violated")
    assert embeddings["detail"]["name"] == "sup_le_cinf_norm_alpha"
    assert embeddings["detail"]["ratio"] > 1.0
    assert set(report["sections"]) == {
        "embeddings", "potential", "nonlinearity", "functional", "geometry"}
    assert report["sections"]["nonlinearity"]["passed"] is True
    assert report["passed"] is False


def test_campaign_full_default_passes(spec10, constants):
    report = run_verification_campaign(
        spec10,
        constants,
        budgets={
            "embedding_samples": 200,
            "nonlinearity_samples": 2000,
            "derivative_checks": 5,
            "sphere_samples": 20,
        },
    )
    assert report["passed"] is True
    assert set(report["sections"]) == {
        "embeddings", "potential", "nonlinearity", "functional", "geometry",
    }
    for name, section in report["sections"].items():
        assert section["passed"], name
    # the aggregate must serialize without any numpy leakage
    round_trip = json.loads(canonical_json(report))
    assert round_trip["passed"] is True


def _one_field(spec, rng):
    """One random field, one component at a time: its family is drawn, then its sample."""
    line = isinstance(spec, ProblemSpec)
    sample, families = (sample_line_function, 3) if line else (sample_interval_function, 2)
    cols = [sample(spec.grid, rng, int(rng.integers(0, families))) for _ in range(spec.n)]
    return np.stack(cols, axis=1)


def _oracle_field(spec, rng):
    """One random field, unit-scaled as the checks scale it, one at a time."""
    vals = _one_field(spec, rng)
    if isinstance(spec, ProblemSpec):
        nrm = norm_h_alpha(GridFunction(spec.grid, vals), spec.alpha)
        return vals if nrm == 0.0 else vals / nrm
    return vals / max(float(np.max(np.abs(vals))), 1e-12)


def _oracle_fd(spec, count, rng):
    """The FD check one pair at a time, through the public functional."""
    grid, op, eps = spec.grid, _operator(spec), 1e-5
    worst = 0.0
    for _ in range(count):
        uv = _oracle_field(spec, rng)
        vv = _oracle_field(spec, rng)
        act = derivative_action(GridFunction(grid, uv), GridFunction(grid, vv), spec)
        fd = (
            energy(GridFunction(grid, uv + eps * vv), spec)
            - energy(GridFunction(grid, uv - eps * vv), spec)
        ) / (2.0 * eps)
        scale = 1.0 + abs(act) + 1e-4 * float(op.xnormsq(uv) + op.xnormsq(vv))
        worst = max(worst, abs(fd - act) / scale)
    return worst


def _oracle_sphere(spec, constants, count, rng):
    """The sphere floor one field at a time, skipping a zero field."""
    setup = construct_e(spec, constants=constants)
    op = _operator(spec)
    floor_min = math.inf
    for _ in range(count):
        vals = _one_field(spec, rng)
        nx = math.sqrt(max(float(op.xnormsq(vals)), 0.0))
        if nx == 0.0:
            continue
        floor_min = min(floor_min, op.energy((setup.rho / nx) * vals))
    return floor_min


def _vector_oscillatory(spec10):
    return dataclasses.replace(
        spec10,
        n=2,
        potential=dataclasses.replace(spec10.potential, kind="diagonal", diag_scales=(1.0, 2.0)),
        nonlinearity=default_oscillatory(),
    )


def test_batched_fd_check_matches_a_per_pair_loop(spec10):
    """Worst error and the RNG state afterwards are the bits of a one-pair loop.

    Cases: the line with n = 1 and with n = 2 (diagonal potential,
    oscillatory ``W``), and the interval with n = 1 and 2; the counts are
    not multiples of the chunk size where it exceeds one row.
    """
    ispec = spec10.well_interval(257)
    cases = [(spec10, 7), (_vector_oscillatory(spec10), 4),
             (ispec, 70), (dataclasses.replace(ispec, n=2), 70)]
    for spec, count in cases:
        rows = _stack_rows(spec.grid.num_points * spec.n)
        assert rows == 1 or (count > rows and count % rows != 0)
        got_rng, want_rng = np.random.default_rng(5), np.random.default_rng(5)
        got = runner._fd_action_errors(spec, count, got_rng)
        want = _oracle_fd(spec, count, want_rng)
        assert got["worst_rel_err"] == want and want > 0.0, (spec.n, count)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state


def test_batched_sphere_check_matches_a_per_field_loop(spec10, constants, monkeypatch):
    """Sphere floor and RNG state are the bits of a one-field loop; a zero field is skipped.

    The sampler's seam, which the check and the one-field loop both draw
    through, replaces the fifth field drawn by zeros after its draw.
    Dividing by its zero norm would warn, and warnings are errors here.
    """
    draw = spaces._fill_samples
    drawn = []

    def fifth_is_zero(grid, rng, slots):
        draw(grid, rng, slots)
        for row, _ in slots:
            drawn.append(row)
            if 4 * n < len(drawn) <= 5 * n:  # a component of the fifth field
                row[:] = 0.0

    monkeypatch.setattr(spaces, "_fill_samples", fifth_is_zero)
    monkeypatch.setattr(runner, "_fill_samples", fifth_is_zero)
    for spec, count in ((spec10, 8), (_vector_oscillatory(spec10), 5)):
        n = spec.n
        rows = _stack_rows(spec.grid.num_points * n)
        assert rows == 1 or count % rows != 0
        drawn.clear()
        got_rng, want_rng = np.random.default_rng(9), np.random.default_rng(9)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = runner._geometry_checks(spec, constants, count, got_rng)
        assert len(drawn) == count * n
        drawn.clear()
        want = _oracle_sphere(spec, constants, count, want_rng)
        assert len(drawn) == count * n
        assert got["sphere_min_energy"] == want and math.isfinite(want), spec.n
        assert got_rng.bit_generator.state == want_rng.bit_generator.state




@pytest.mark.parametrize("vector", [False, True], ids=["n1", "n2-oscillatory"])
def test_campaign_is_invariant_to_the_chunk_size(spec10, constants, monkeypatch, vector):
    """The whole report is the same bytes whether chunks hold fewer or more rows.

    At ``N = 4096`` and ``n = 1`` a budget of 2^13, 2^14 or 2^15 values
    makes chunks of 1, 3 or 7 rows, and as many band-limited spectra per
    ``irfft``; at ``n = 2`` chunks of 1, 1 or 3 fields.
    """
    spec = _vector_oscillatory(spec10) if vector else spec10
    budgets = {"embedding_samples": 61, "nonlinearity_samples": 2000,
               "derivative_checks": 7, "sphere_samples": 20}
    reports = []
    for values in (2**13, 2**14, 2**15):
        monkeypatch.setattr(functional, "_STACK_VALUES", values)
        reports.append(canonical_json(run_verification_campaign(spec, constants, budgets, seed=3)))
    assert _stack_rows(spec.grid.num_points * spec.n) == (3 if vector else 7)
    assert json.loads(reports[0])["passed"] is True
    assert reports[0] == reports[1] == reports[2]
def test_default_campaign_stacks_stay_under_the_budget(spec10, constants, monkeypatch):
    """Every stack the default campaign builds stays under 128 KiB, transforms included.

    Records the arrays handed to ``_line_stats`` and to the operator's stack
    methods, their results, and every FFT's output.  Above glibc's mmap
    threshold a temporary is mapped and faulted in fresh on each allocation.
    """
    limit = 8 * functional._STACK_VALUES
    assert limit == 128 * 1024
    sizes = []

    def recording(fn):
        def wrapped(*args, **kwargs):
            out = fn(*args, **kwargs)
            sizes.extend(a.nbytes for a in (*args, out) if isinstance(a, np.ndarray))
            return out
        return wrapped

    monkeypatch.setattr(spaces, "_line_stats", recording(spaces._line_stats))
    for name in ("form", "xnormsq", "energies", "wint", "wslope"):
        monkeypatch.setattr(functional._OperatorBase, name,
                            recording(getattr(functional._OperatorBase, name)))
    for cls in (functional._LineOperator, functional._IntervalOperator):
        for name in ("transform", "transformed_form"):
            monkeypatch.setattr(cls, name, recording(getattr(cls, name)))
    for name in ("fft", "ifft", "rfft", "irfft"):
        monkeypatch.setattr(np.fft, name, recording(getattr(np.fft, name)))
    report = run_verification_campaign(spec10, constants)
    assert report["passed"] is True
    assert len(sizes) > 1000
    assert max(sizes) < limit
