"""Tests of the benchmark itself: the gate, the counters, the contract.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/tests

They start real ``fracham`` CLI workers, so they take about a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import run  # noqa: E402

SEED = 20260816


@pytest.fixture
def workdir(request):
    path = os.path.join(run.TMP, f"test-{os.getpid()}-{request.node.name}")
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(run.TMP, exist_ok=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _pass(workload, workdir, name, trace=False):
    return run.run_pass(
        workload,
        SEED,
        trace,
        os.path.join(workdir, name),
        run._load_refs(),
        time.monotonic() + 170,
        [run.calibrate()],
    )


def _rewrite(path, edit):
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    edit(payload)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def test_gate_accepts_real_output_and_rejects_corrupted_output(workdir):
    rec = _pass("solve-vector", workdir, "p")
    assert rec["ok"], rec["problems"]
    outdirs = [os.path.join(workdir, "p", "out0")]
    result = os.path.join(outdirs[0], "result.json")
    refs = run._load_refs()
    pristine = open(result, encoding="utf-8").read()

    corruptions = {
        "level": lambda p: p.update(level=p["level"] * (1.0 + 1e-5)),
        "converged": lambda p: p.update(converged=False),
        "residual": lambda p: p.update(residual_weighted=1e-3),
        "missing": lambda p: p.pop("level"),
    }
    for what, edit in corruptions.items():
        with open(result, "w", encoding="utf-8") as fh:
            fh.write(pristine)
        _rewrite(result, edit)
        assert run.gate("solve-vector", outdirs, refs), what

    os.remove(result)
    assert run.gate("solve-vector", outdirs, refs)


def test_gate_rejects_failed_verification_and_wrong_certificate(workdir):
    rec = _pass("certify", workdir, "p")
    assert rec["ok"], rec["problems"]
    outdirs = [os.path.join(workdir, "p", f"out{k}") for k in range(2)]
    refs = run._load_refs()
    _rewrite(os.path.join(outdirs[1], "report.json"), lambda p: p.update(passed=False))
    assert run.gate("certify", outdirs, refs) == ["verify did not pass"]
    _rewrite(os.path.join(outdirs[1], "report.json"), lambda p: p.update(passed=True))
    _rewrite(os.path.join(outdirs[0], "bound.json"), lambda p: p.update(ctilde=p["ctilde"] * 1.01))
    problems = run.gate("certify", outdirs, refs)
    assert len(problems) == 1 and problems[0].startswith("ctilde")


def test_gate_rejects_a_sweep_rung_that_did_not_converge(workdir):
    refs = run._load_refs()
    out = os.path.join(workdir, "out0")
    os.makedirs(out)
    records = [
        {"lambda": float(lam), "level": level, "converged": True, "residual_weighted": 1e-7}
        for lam, level in refs["sweep"]["levels"].items()
    ]
    bvp = {"level": refs["sweep"]["bvp_level"], "converged": True, "residual_weighted": 1e-9}
    report = {"records": records, "bvp_reference": bvp}
    with open(os.path.join(out, "report.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    open(os.path.join(out, "sweep.csv"), "w").close()
    assert run.gate("sweep", [out], refs) == []
    records[-1]["converged"] = False
    with open(os.path.join(out, "report.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    assert run.gate("sweep", [out], refs) == ["lambda=1000: not converged"]


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_deterministic_counters_repeat_exactly(workload, workdir):
    first = run.layer_metrics(_pass(workload, workdir, "a", trace=True))
    second = run.layer_metrics(_pass(workload, workdir, "b", trace=True))
    for name in run.DETERMINISTIC:
        assert first[name][0] == second[name][0], name
    assert first["fft.calls"][0] > 0
    assert first["functional.energy.calls"][0] > 0


def test_metric_lists_match_benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == run.END_TO_END
    empty = {"calls": [{"trace": {"spans": {}, "counts": {}, "span_count": 0}}], "write_bytes": 0}
    layers = [(k, v[1]) for k, v in run.layer_metrics(empty).items()]
    layers += [("trace.wall_s", "s"), ("trace.untraced_wall_s", "s"), ("trace.overhead_s", "s")]
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == layers
    assert sorted(w["name"] for w in bench["workloads"]) == sorted(run.WORKLOADS)


def test_refuses_to_run_without_sources(workdir):
    os.makedirs(workdir)
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), workdir)
    shutil.copytree(run.HERE, os.path.join(workdir, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=workdir, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
