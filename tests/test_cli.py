"""End-to-end command-line runs, in process, against temp run directories."""

import copy
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import fracham
from fracham import (
    IntervalGrid,
    IntervalProblemSpec,
    MpaConfig,
    RealLineGrid,
    bvp_solve,
    cli,
    config,
    construct_e,
    functional,
    mpa_solve,
    runner,
    spaces,
)
from fracham.cli import main
from fracham.config import (
    DEFAULT_CONFIG,
    build_grid,
    build_mpa_config,
    build_nonlinearity,
    build_potential,
    config_hash,
    load_config,
    merge_config,
)
from fracham.problem import (
    NonlinearitySpec,
    PotentialSpec,
    default_nonlinearity,
    default_potential,
)
from fracham.runner import bvp_el_residual, write_solve_outputs


def _write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def _read_json(path):
    return json.loads(pathlib.Path(path).read_text(encoding="utf-8"))


@pytest.fixture()
def fast_config(tmp_path):
    """A coarser grid keeps single-command runs quick."""
    return _write_config(tmp_path, {"grid": {"num_points": 1024}})


def test_no_command_prints_usage(capsys):
    assert main([]) == 2
    assert "usage" in capsys.readouterr().err.lower()


def test_unknown_subcommand(capsys):
    assert main(["transmogrify"]) == 2
    capsys.readouterr()


def test_missing_config_file(tmp_path, capsys):
    assert main(["bound", "--config", str(tmp_path / "nope.json")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "usage" in err


@pytest.mark.parametrize("text, message", [
    ("{not json", "is not valid JSON"),
    ("[1, 2]", "config file must contain a JSON object"),
    ('{"grid": 5}', "config key 'grid' must be a table"),
], ids=["not-json", "array", "scalar-table"])
def test_malformed_config_file_exits_two(tmp_path, capsys, text, message):
    path = tmp_path / "config.json"
    path.write_text(text, encoding="utf-8")
    assert main(["bound", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: ") and message in captured.err


def test_null_defect_constant_fails_only_the_nonlinearity_check(tmp_path, capsys):
    """``c0`` may be null: the config loads and ``bound`` runs, but no defect inequality is certified."""
    cfg = _write_config(tmp_path, {"problem": {"nonlinearity": {"c0": None}}})
    assert main(["bound", "--config", cfg]) == 0
    capsys.readouterr()
    assert main(["verify", "--config", cfg]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if "FAIL" in line] == [
        "verify: nonlinearity: FAIL", "verify: overall: FAIL"]


def test_unknown_config_key(tmp_path, capsys):
    cfg = _write_config(tmp_path, {"probelm": {"alpha": 0.75}})
    assert main(["bound", "--config", cfg]) == 2
    assert "unknown config key" in capsys.readouterr().err


@pytest.mark.parametrize(
    "override, key",
    [
        ({"mpa": {"path_nodes": "abc"}}, "mpa.path_nodes"),
        ({"grid": {"num_points": None}}, "grid.num_points"),
        ({"embedding": {"samples": "abc"}}, "embedding.samples"),
        ({"grid": {"num_points": 1024.9}}, "grid.num_points"),
        ({"embedding": {"samples": 1000.5}}, "embedding.samples"),
        ({"problem": {"lambda": float("nan")}}, "problem.lambda"),
        ({"sweep": {"lambdas": [1.0, float("inf")]}}, "sweep.lambdas"),
        ({"grid": {"halfwidth": 10**400}}, "grid.halfwidth"),
        ({"seed": -4}, "seed"),
        ({"grid": {"num_points": 1000}}, "grid"),
        ({"problem": {"alpha": 0.3}}, "problem"),
        ({"problem": {"n": 0}}, "problem"),
        ({"problem": {"potential": {"kind": "bogus"}}}, "problem.potential"),
        (["solve", "--lambda", "nan"], "problem.lambda"),
        (["sweep", "--lambdas", "1,inf"], "sweep.lambdas"),
        (["verify", "--seed", "-1"], "seed"),
        ({"embedding": {"safety": 0.5}}, "embedding.safety"),
        ({"embedding": {"safety": 0}}, "embedding.safety"),
        ({"embedding": {"safety": -1}}, "embedding.safety"),
        (["verify", "--config", {"verify": {"embedding_samples": -1, "sphere_samples": -3}}],
         "embedding_samples"),
        (["solve", "--config", {"mpa": {"max_iters": 0}}], "mpa"),
        (["solve", "--config", {"mpa": {"max_iters": -3}}], "mpa"),
        (["bvp", "--config", {"bvp": {"tol": 0}}], "bvp"),
        ({"problem": {"potential": {"diag_scales": [3.0]}}}, "problem.potential"),
        ({"problem": {"nonlinearity": {"epsilon": 0.5}}}, "problem.nonlinearity"),
        (["bvp", "--config", {"problem": {"potential": {"diag_scales": [3.0]}}}],
         "problem.potential"),
        (["bvp", "--config", {"problem": {"nonlinearity": {"epsilon": 0.5}}}],
         "problem.nonlinearity"),
        ({"mpa": {"max_path_nodes": "abc"}}, "mpa.max_path_nodes"),
    ],
)
def test_malformed_config_value_exits_two(tmp_path, capsys, override, key):
    """``override`` is the content of a config file for ``bound``, or a command line.

    A table in a command line stands for a config file holding it.
    """
    argv = override if isinstance(override, list) else ["bound", "--config", override]
    argv = [_write_config(tmp_path, arg) if isinstance(arg, dict) else arg for arg in argv]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "config error" in err and repr(key) in err


def _numeric_leaves(table, path=()):
    for key, value in table.items():
        if isinstance(value, dict):
            yield from _numeric_leaves(value, path + (key,))
        elif isinstance(value, (int, float, list)) and not isinstance(value, bool):
            yield path + (key,)


def test_nonfinite_or_negative_leaf_never_raises(tmp_path, capsys):
    """Each numeric leaf set to NaN, inf or -1 (a list to a list of it) exits, never raises.

    A non-finite value is a configuration error.  ``bound`` may accept -1 in
    a table it does not read (``mpa``, ``bvp``, ``sweep``, ``verify``) or
    where -1 is legal (``weight_freq``), so that case may also exit 0.  A key
    the chosen kind does not read (a pure power's ``epsilon``, a scalar
    potential's ``diag_scales``) is rejected, so -1 there exits 2.
    """
    for path in _numeric_leaves(DEFAULT_CONFIG):
        default = DEFAULT_CONFIG
        for key in path:
            default = default[key]
        for bad in (float("nan"), float("inf"), -1):
            doc = node = {}
            for key in path[:-1]:
                node = node.setdefault(key, {})
            node[path[-1]] = [bad] if isinstance(default, list) else bad
            code = main(["bound", "--config", _write_config(tmp_path, doc)])
            assert code in ((0, 1, 2) if bad == -1 else (2,)), (path, bad)
            capsys.readouterr()


def test_integral_float_is_accepted_for_an_integer_key():
    merged = merge_config(DEFAULT_CONFIG, {"grid": {"num_points": 4096.0}})
    assert build_grid(merged).num_points == 4096


def test_unknown_metric_is_rejected(tmp_path, capsys):
    cases = (
        ("metric", "h-alpha", "x-alpha-lambda"),
        ("step_rule", "wolfe", "armijo"),
        ("restarts", 1, 0),
        ("polish", False, True),
    )
    for key, value, legal in cases:
        cfg = _write_config(tmp_path, {"mpa": {key: value}})
        assert main(["solve", "--config", cfg]) == 2
        assert f"mpa.{key} must be {legal!r}, got {value!r}" in capsys.readouterr().err


def _bound_bytes_match_default(tmp_path, capsys, payload):
    """A document with ``payload`` loads as the defaults and writes the default ``bound.json``."""
    cfg = _write_config(tmp_path, payload)
    assert load_config(cfg) == DEFAULT_CONFIG
    assert main(["bound", "--config", cfg, "--out", str(tmp_path / "set")]) == 0
    assert main(["bound", "--out", str(tmp_path / "default")]) == 0
    capsys.readouterr()
    set_bytes = (tmp_path / "set" / "bound.json").read_bytes()
    assert set_bytes == (tmp_path / "default" / "bound.json").read_bytes()


def test_single_value_keys_at_their_defaults_change_nothing(tmp_path, capsys):
    """The four single-value retired ``mpa`` keys at their v1 value change nothing, hash included."""
    _bound_bytes_match_default(tmp_path, capsys, {
        "mpa": {"step_rule": "armijo", "metric": "x-alpha-lambda", "polish": True, "restarts": 0},
    })


def test_embedding_samples_is_inert(tmp_path, capsys):
    """The retired ``embedding.samples`` is dropped on load: same ``bound.json``, hash included."""
    _bound_bytes_match_default(tmp_path, capsys, {"embedding": {"samples": 30}})


def test_max_path_nodes_is_inert(tmp_path, capsys):
    """The retired node cap ``mpa.max_path_nodes`` loads any integer and drops it, hash included."""
    _bound_bytes_match_default(tmp_path, capsys, {"mpa": {"max_path_nodes": 5}})


@pytest.mark.parametrize("path, builder, cls", [
    (("grid",), build_grid, RealLineGrid),
    (("problem", "potential"), build_potential, PotentialSpec),
    (("problem", "nonlinearity"), build_nonlinearity, NonlinearitySpec),
    (("mpa",), build_mpa_config, MpaConfig),
], ids=["grid", "potential", "nonlinearity", "mpa"])
def test_each_config_table_is_what_its_builder_passes(monkeypatch, path, builder, cls):
    """A default key that its builder does not pass to the dataclass would change nothing."""
    passed = []

    class Recorded(cls):
        def __init__(self, **kwargs):
            passed.append(kwargs)
            super().__init__(**kwargs)

    monkeypatch.setattr(config, cls.__name__, Recorded)
    table = DEFAULT_CONFIG
    for key in path:
        table = table[key]
    builder(copy.deepcopy(DEFAULT_CONFIG))
    assert len(passed) == 1 and passed[0] == table


def test_default_config_builds_the_library_default_problem():
    """The default config's problem tables are the library's default problem, no other."""
    assert build_potential(DEFAULT_CONFIG) == default_potential()
    assert build_nonlinearity(DEFAULT_CONFIG) == default_nonlinearity()


def test_box_inside_the_potential_ramp_is_rejected(tmp_path, capsys, monkeypatch):
    """A box where L never reaches its cap exits 2 before any metric factor is built."""

    def unbuilt(self):
        raise AssertionError("the metric factor was built")

    monkeypatch.setattr(functional._LineOperator, "factor", property(unbuilt))
    cfg = _write_config(tmp_path, {"grid": {"halfwidth": 0.5}})
    assert main(["solve", "--config", cfg]) == 2
    assert "varrho + delta*sqrt(cap) = 0.522474" in capsys.readouterr().err


def test_bad_lambdas_argument(fast_config, capsys):
    assert main(["sweep", "--config", fast_config, "--lambdas", "a,b"]) == 2
    assert "config error" in capsys.readouterr().err


def test_empty_lambdas_argument_is_an_empty_ladder(fast_config, capsys):
    """``--lambdas`` only parses; the ladder's own check rejects an empty one."""
    assert main(["sweep", "--config", fast_config, "--lambdas", ","]) == 2
    assert "config error: lambda ladder is empty" in capsys.readouterr().err


def test_bvp_rejects_a_box_inside_the_potential_ramp(tmp_path, capsys):
    """``bvp`` builds its well from the line problem, so a bad line config exits 2 as in ``bound``."""
    cfg = _write_config(tmp_path, {"grid": {"halfwidth": 0.5}})
    assert main(["bound", "--config", cfg]) == 2
    bound_err = capsys.readouterr().err
    assert main(["bvp", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == bound_err


def test_bad_bvp_points_stop_sweep_before_any_solve(tmp_path, capsys, monkeypatch):
    """``sweep`` and ``bvp`` take their well through one step, which names the ``bvp`` table."""
    monkeypatch.setattr(cli, "lambda_sweep", lambda *a, **k: pytest.fail("the sweep ran"))
    monkeypatch.setattr(cli, "bvp_solve", lambda *a, **k: pytest.fail("the bvp ran"))
    cfg = _write_config(tmp_path, {"bvp": {"num_points": 2}})
    for command in ("sweep", "bvp"):
        assert main([command, "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "config error: config table 'bvp': num_points must be >= 3, got 2" in captured.err


def test_default_bvp_solves_the_default_well(tmp_path, capsys):
    """Default ``bvp`` writes the bytes of a solve on ``[-varrho, varrho]`` with 257 nodes."""
    assert main(["bvp", "--out", str(tmp_path / "cli")]) == 0
    ispec = IntervalProblemSpec(0.75, default_nonlinearity(), IntervalGrid(-0.4, 0.4, 257))
    result = bvp_solve(ispec, MpaConfig(tol=1e-8, max_iters=400))
    extras = {"alpha": 0.75, "el_residual": bvp_el_residual(result.u, ispec),
              "config_hash": config_hash(DEFAULT_CONFIG)}
    write_solve_outputs(str(tmp_path / "ref"), result, extras=extras)
    for name in ("result.json", "u.csv", "trace.csv"):
        got, want = ((tmp_path / d / name).read_text(encoding="utf-8") for d in ("cli", "ref"))
        if name == "result.json":
            got, want = (json.loads(text) for text in (got, want))
            got.pop("generated_at"), want.pop("generated_at")
        assert got == want, name


def test_verify_honours_embedding_safety(tmp_path, capsys):
    """``embedding.safety`` gates ``verify`` as it gates ``bound``: both exit 1, one message."""
    cfg = _write_config(tmp_path, {"embedding": {"safety": 1.3}})
    assert main(["bound", "--config", cfg]) == 1
    bound_err = capsys.readouterr().err
    assert "potential is inadmissible" in bound_err and "< 0.805726" in bound_err
    assert main(["verify", "--config", cfg]) == 1
    assert capsys.readouterr().err == bound_err


def test_bvp_honours_embedding_safety(tmp_path, capsys):
    """``bvp`` builds the line problem's embedding constants, so it exits 1 as ``bound`` does."""
    cfg = _write_config(tmp_path, {"embedding": {"safety": 1.3}})
    assert main(["bound", "--config", cfg]) == 1
    bound_err = capsys.readouterr().err
    assert "potential is inadmissible" in bound_err
    assert main(["bvp", "--config", cfg]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == bound_err


def test_verify_identities_pass_at_large_lambda(tmp_path, capsys):
    """The derivative and defect checks scale with the quadratic term that cancels in them."""
    budgets = {"embedding_samples": 0, "nonlinearity_samples": 0,
               "derivative_checks": 50, "sphere_samples": 0}
    cfg = _write_config(tmp_path, {"problem": {"lambda": 1e6}, "verify": budgets})
    assert main(["verify", "--config", cfg]) == 0
    assert "verify: functional: pass" in capsys.readouterr().out


def test_solve_below_floor_exits_one(fast_config, capsys):
    assert main(["solve", "--config", fast_config, "--lambda", "0.5"]) == 1
    assert "below the admissibility floor" in capsys.readouterr().err


def test_bound_below_floor_exits_one(tmp_path, capsys):
    """``bound`` writes no ``rho``/``eta`` where the inequalities behind them fail."""
    cfg = _write_config(tmp_path, {"problem": {"lambda": 0.5}})
    out = tmp_path / "run"
    assert main(["bound", "--config", cfg, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "below the admissibility floor" in captured.err
    assert out.is_dir() and list(out.iterdir()) == []


def test_geometry_only_verify_below_floor_exits_one(tmp_path, capsys):
    """With no embedding samples, the geometry section's ``construct_e`` checks the floor."""
    budgets = {"embedding_samples": 0, "nonlinearity_samples": 0,
               "derivative_checks": 0, "sphere_samples": 5}
    cfg = _write_config(tmp_path, {"problem": {"lambda": 0.5}, "verify": budgets})
    out = tmp_path / "run"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert "verify: geometry" not in captured.out
    assert "below the admissibility floor" in captured.err
    assert out.is_dir() and list(out.iterdir()) == []


@pytest.mark.parametrize("command", ["solve", "bvp", "sweep", "verify", "bound"])
@pytest.mark.parametrize("where", ["file", "under-file"])
def test_unusable_out_exits_two_before_the_run(tmp_path, capsys, command, where):
    """An ``--out`` that is a file, or lies under one, is a usage error found before any work."""
    taken = tmp_path / "taken"
    taken.write_text("", encoding="utf-8")
    out = taken if where == "file" else taken / "sub"
    assert main([command, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "config error" in captured.err and "--out" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("command", ["bound", "solve", "verify", "sweep", "bvp"])
def test_diag_scales_count_other_than_n_exits_two(tmp_path, capsys, command):
    """Two scales for one component are a ``problem`` table error, found before any line work."""
    potential = {"kind": "diagonal", "diag_scales": [1.0, 2.0]}
    cfg = _write_config(tmp_path, {"problem": {"potential": potential}})
    assert main([command, "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "config table 'problem': diag_scales has 2 entries for n=1 components" in captured.err
    assert "Traceback" not in captured.err


def test_failed_run_leaves_its_out_directory_empty(fast_config, tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["solve", "--config", fast_config, "--lambda", "0.5", "--out", str(out)]) == 1
    assert "below the admissibility floor" in capsys.readouterr().err
    assert out.is_dir() and list(out.iterdir()) == []


def test_solve_writes_run_directory(fast_config, tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["solve", "--config", fast_config, "--lambda", "12.5",
                 "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "solve: lambda=12.5 converged=True" in stdout
    payload = _read_json(out / "result.json")
    assert payload["converged"] is True
    assert payload["lambda"] == 12.5
    for key in ("rho", "eta", "sigma0", "ctilde", "lambda_floor", "config_hash", "constants"):
        assert key in payload
    u_lines = (out / "u.csv").read_text(encoding="utf-8").splitlines()
    assert u_lines[0] == "t,abs_u"
    assert len(u_lines) == 1 + 1024
    trace_lines = (out / "trace.csv").read_text(encoding="utf-8").splitlines()
    assert trace_lines[0] == "iteration,level,residual,residual_weighted"
    assert len(trace_lines) == 1 + payload["iterations"]


def test_bvp_reports_stationarity(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["bvp", "--out", str(out)]) == 0
    assert "bvp: converged=True" in capsys.readouterr().out
    payload = _read_json(out / "result.json")
    assert payload["converged"] is True
    assert payload["el_residual"] <= 1e-6
    assert payload["grid_kind"] == "IntervalGrid"


def test_sweep_writes_report_and_csv(tmp_path, capsys):
    cfg = _write_config(
        tmp_path, {"embedding": {"samples": 1000}, "sweep": {"lambdas": [1.0, 10.0]}}
    )
    out = tmp_path / "run"
    assert main(["sweep", "--config", cfg, "--lambdas", "1,10", "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "sweep: lambda=1 converged=True" in stdout
    assert "sweep: lambda=10 converged=True" in stdout
    assert "observed_admissible_lambda=1.0" in stdout
    payload = _read_json(out / "report.json")
    assert [rec["lambda"] for rec in payload["records"]] == [1.0, 10.0]
    assert payload["records"][0]["tail_mass_ratio"] > payload["records"][1]["tail_mass_ratio"]
    assert "values" in payload["bvp_reference"]
    assert payload["config_hash"] == config_hash(load_config(cfg))
    csv_lines = (out / "sweep.csv").read_text(encoding="utf-8").splitlines()
    assert len(csv_lines) == 3


def test_cold_sweep_starts_every_rung_without_a_guess(tmp_path, capsys, spec10, constants,
                                                    sweep_report):
    """``--cold`` and ``sweep.cold`` run each rung as a solve with no guess, bit for bit.

    The warm-started ladder reaches the same levels to 1e-12 relative.
    """
    cfg = _write_config(tmp_path, {"sweep": {"lambdas": [1.0, 10.0], "cold": True}})
    reports = []
    for argv in (["--config", cfg], ["--lambdas", "1,10", "--cold"]):
        out = tmp_path / f"run{len(reports)}"
        assert main(["sweep", *argv, "--out", str(out)]) == 0
        reports.append((out / "report.json").read_bytes())
    capsys.readouterr()
    assert reports[0] == reports[1]
    setup = construct_e(spec10.with_lambda(1.0), constants=constants)
    warm = {rec["lambda"]: rec["level"] for rec in sweep_report.records}
    records = json.loads(reports[0])["records"]
    assert [rec["lambda"] for rec in records] == [1.0, 10.0]
    for rec in records:
        assert rec["level"] == mpa_solve(spec10.with_lambda(rec["lambda"]), setup).level
        assert rec["level"] == pytest.approx(warm[rec["lambda"]], rel=1e-12, abs=0.0)


def test_sweep_with_an_unconverged_rung_exits_one(tmp_path, capsys):
    """Both files are still written, and the failing rung says so."""
    cfg = _write_config(tmp_path, {"grid": {"num_points": 1024}, "mpa": {"max_iters": 21}})
    out = tmp_path / "run"
    assert main(["sweep", "--config", cfg, "--lambdas", "1,10000", "--out", str(out)]) == 1
    assert "sweep: lambda=10000 converged=False" in capsys.readouterr().out
    payload = _read_json(out / "report.json")
    assert [rec["converged"] for rec in payload["records"]] == [True, False]
    assert len((out / "sweep.csv").read_text(encoding="utf-8").splitlines()) == 3


def test_verify_campaign_passes(tmp_path, capsys):
    cfg = _write_config(
        tmp_path,
        {
            "verify": {
                "embedding_samples": 60,
                "nonlinearity_samples": 2000,
                "derivative_checks": 5,
                "sphere_samples": 20,
            }
        },
    )
    out = tmp_path / "run"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "verify: overall: pass" in stdout
    assert "verify: embeddings: pass" in stdout
    payload = _read_json(out / "report.json")
    assert payload["passed"] is True
    assert payload["budgets"]["embedding_samples"] == 60


def test_bound_matches_library_geometry(tmp_path, capsys, setup, ctilde, constants):
    cfg = _write_config(tmp_path, {"embedding": {"samples": 1000}})
    out = tmp_path / "run"
    assert main(["bound", "--config", cfg, "--out", str(out)]) == 0
    assert "bound: ctilde=" in capsys.readouterr().out
    payload = _read_json(out / "bound.json")
    assert abs(payload["ctilde"] - ctilde) <= 1e-12 * ctilde
    assert payload["rho"] == setup.rho
    assert payload["eta"] == setup.eta
    assert payload["sigma0"] == setup.sigma0
    assert payload["constants"]["lambda_floor"] == constants.lambda_floor


def test_commands_report_the_same_certificates(tmp_path, capsys):
    """``bound``, ``solve`` and ``sweep`` write one setup's ``ctilde``, ``rho``, ``eta``, ``sigma0``."""
    runs = {"bound.json": ["bound"], "result.json": ["solve", "--lambda", "10"],
            "report.json": ["sweep", "--lambdas", "1,10"]}
    found = []
    for name, argv in runs.items():
        out = tmp_path / name.split(".")[0]
        assert main([*argv, "--out", str(out)]) == 0
        payload = _read_json(out / name)
        found.append({key: payload[key] for key in ("ctilde", "rho", "eta", "sigma0")})
    capsys.readouterr()
    assert found[0] == found[1] == found[2]


def test_bound_draws_no_samples_and_few_ffts(tmp_path, capsys, monkeypatch):
    """``bound`` takes C_inf from the extremal profile: no random draw, a few FFTs.

    Draws are counted at the one sampler, ``_fill_samples``, under the names
    ``spaces`` and ``runner`` call it by; a small ``verify`` is seen drawing
    through both.
    """
    draws, ffts = [], []
    original_draw = spaces._fill_samples
    for module in (spaces, runner):

        def counted_draw(*args, _module=module.__name__, **kwargs):
            draws.append(_module)
            return original_draw(*args, **kwargs)

        monkeypatch.setattr(module, "_fill_samples", counted_draw)
    for name in ("fft", "ifft", "rfft", "irfft"):
        original = getattr(np.fft, name)

        def counted(*args, _original=original, **kwargs):
            ffts.append(1)
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    assert main(["bound", "--out", str(tmp_path / "run")]) == 0
    capsys.readouterr()
    assert len(draws) == 0
    assert 0 < len(ffts) <= 20
    budgets = {"embedding_samples": 4, "nonlinearity_samples": 0,
               "derivative_checks": 1, "sphere_samples": 0}
    cfg = _write_config(tmp_path, {"verify": budgets})
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "verify")]) == 0
    capsys.readouterr()
    assert set(draws) == {"fracham.spaces", "fracham.runner"}


def test_verify_fft_budget(tmp_path, capsys, monkeypatch):
    """``verify`` transforms its samples and fields in chunks: far fewer FFTs than samples.

    The default campaign makes 1,045 calls (593 ``rfft``, 451 ``irfft``, one
    ``ifft``), and the bound leaves about 5% over that.  The embedding check
    makes 667 of them: one ``rfft`` per 3-row chunk and one ``irfft`` per
    band-limited sample.  One transform per embedding sample would add about
    666, two about 1,666.  The finite-difference and sphere checks make 376,
    their field draws included, one ``irfft`` per band-limited field.  One
    field at a time they made 928.
    """
    ffts = []
    for name in ("fft", "ifft", "rfft", "irfft"):
        original = getattr(np.fft, name)

        def counted(*args, _original=original, **kwargs):
            ffts.append(1)
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    assert main(["verify", "--out", str(tmp_path / "run")]) == 0
    capsys.readouterr()
    assert 0 < len(ffts) <= 1_100


def _package_env():
    src = str(pathlib.Path(fracham.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def test_cli_import_leaves_out_scipy_optimize():
    """``scipy.optimize`` costs start-up time and memory the CLI never needs."""
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, fracham.cli; print('scipy.optimize' in sys.modules)"],
        capture_output=True, text=True, env=_package_env(), timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_cli_import_loads_no_scipy(tmp_path):
    """The runtime is numpy-only, and nothing it runs loads ``numpy.ma``.

    Importing the CLI, and a fresh ``verify`` or ``solve`` run, each end with
    no scipy module and no ``numpy.ma`` in ``sys.modules``.
    """
    cfg = _write_config(tmp_path, {
        "grid": {"num_points": 1024},
        "verify": {"embedding_samples": 20, "nonlinearity_samples": 200,
                   "derivative_checks": 2, "sphere_samples": 4},
    })
    probe = ("import sys; from fracham.cli import main; "
             "code = main(sys.argv[1:]) if sys.argv[1:] else 0; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy' "
             "or m.split('.')[:2] == ['numpy', 'ma'])); sys.exit(code)")
    for argv in ([], ["verify", "--config", cfg], ["solve", "--config", cfg]):
        proc = subprocess.run(
            [sys.executable, "-c", probe, *argv],
            capture_output=True, text=True, env=_package_env(), timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]", (argv, proc.stdout)


def test_bvp_bits_do_not_depend_on_the_blas_thread_count(tmp_path):
    """The interval's metric solve uses no LAPACK factor, so BLAS threading moves no bit."""
    results = []
    for threads in ("1", "2"):
        env = dict(_package_env(), OPENBLAS_NUM_THREADS=threads)
        out = tmp_path / threads
        proc = subprocess.run(
            [sys.executable, "-m", "fracham", "bvp", "--out", str(out)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        payload = json.loads((out / "result.json").read_text(encoding="utf-8"))
        payload.pop("generated_at")
        results.append(payload)
    assert results[0] == results[1]


def test_module_entry_point_prints_help():
    env = _package_env()
    proc = subprocess.run(
        [sys.executable, "-m", "fracham", "--help"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "usage" in proc.stdout.lower()
    for command in ("solve", "bvp", "sweep", "verify", "bound"):
        assert command in proc.stdout
