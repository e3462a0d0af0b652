"""Benchmark entry point: real ``fracham`` CLI calls, one fresh worker per call.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sweep --seed 7 --seconds 36 --trace 0

Workloads (see README.md for why each was chosen):

- ``sweep``         ``fracham sweep`` with the default ladder {1, 10, 100, 1000}
- ``solve-vector``  ``fracham solve --lambda 1`` on a two-component problem
                    with a diagonal potential and the oscillatory nonlinearity
- ``certify``       ``fracham bound`` then ``fracham verify``

The loop is closed: one worker at a time, each a fresh ``python3`` process
(``worker.py``) with BLAS/OpenMP threads pinned to 1, importing fracham from
the checkout's ``src`` and writing ``--out`` into a temporary directory under
``.perfbench_tmp/``.  A pass runs every call of the workload once; passes
repeat until ``--seconds`` have elapsed.  Every pass goes through the
correctness gate (exit codes, convergence, residuals, reference levels from
``references.json``, the verification verdict); a failed pass counts in
``failed`` and is left out of the medians.

The coordinating process and the workers share one pinned CPU, and a fixed
calibration runs before the first worker and after each one; the end-to-end
times are each worker's measured seconds scaled to the reference speed of
that calibration (``CAL_REF_S``), because this VM's speed drifts by up to
1.7x over minutes.

``--trace 0`` reports the end-to-end metrics (medians over passes);
``--trace 1`` alternates untraced and traced passes and reports the per-layer
metrics of the traced ones plus the tracing overhead.  Every metric is printed
by name with its unit; the last line is one JSON object.  A per-pass record
and the spans of the last traced pass go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TMP = os.path.join(ROOT, ".perfbench_tmp")
OUT = os.path.join(ROOT, ".perfbench_out")
HARD_LIMIT_S = 170.0  # a run must end within 180 s
SETUP_PROBES = 3  # import-only workers per untraced run, for setup_s
# Seconds that calibrate() takes at the reference machine speed, about the
# median of its wall time on the 2-vCPU Xeon VM described in README.md.  The
# ``*_ref_s`` metrics are measured seconds scaled to this speed.
CAL_REF_S = 0.30
CAL_UNITS = 20
CAL_CG_ITERS = 40
CAL_STREAM_SWEEPS = 4
CAL_LOOP = 20000

THREAD_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}

# The solve-vector override: vector shapes, a per-component potential, a
# t-dependent weight, a cold start, and a small randomized C_inf budget.
SOLVE_VECTOR_CONFIG = {
    "problem": {
        "n": 2,
        "potential": {"kind": "diagonal", "diag_scales": [1.0, 2.0]},
        "nonlinearity": {
            "kind": "oscillatory",
            "p": 3.0,
            "epsilon": 0.5,
            "c0": 160.0,
            "weight_amp": 0.3,
            "weight_freq": 2.0,
        },
    },
    "embedding": {"samples": 30},
}

# Each workload is a list of CLI calls; "{config}" is the solve-vector file.
WORKLOADS = {
    "sweep": [["sweep"]],
    "solve-vector": [["solve", "--lambda", "1", "--config", "{config}"]],
    "certify": [["bound"], ["verify"]],
}

END_TO_END = [("wall_ref_s", "s"), ("setup_s", "s"), ("cpu_ref_s", "s"), ("peak_rss_mb", "MB")]

LADDER = ("1", "10", "100", "1000")
PATH_COUNTERS = (
    "inserted",
    "pruned",
    "step_rejections",
    "guard_rejections",
    "polish_accepted",
    "polish_rejected",
)
# Counters that depend only on the code and the seed; two traced passes must
# give the same values.
DETERMINISTIC = (
    ["fft.calls", "fft.points", "functional.energy.calls", "krylov.cg.iters"]
    + ["krylov.minres.iters", "mpa.iterations"]
    + [f"mpa.path.{c}" for c in PATH_COUNTERS]
)


# ---------------------------------------------------------------------------
# Correctness gate.
# ---------------------------------------------------------------------------


def _load_json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _close(value, ref, rel: float) -> bool:
    return abs(value - ref) <= rel * abs(ref)


def reported(workload: str, outdirs: list[str]) -> dict:
    """The numbers the gate compares with ``references.json``."""
    if workload == "sweep":
        rep = _load_json(os.path.join(outdirs[0], "report.json"))
        return {
            "levels": {f"{r['lambda']:g}": r["level"] for r in rep["records"]},
            "bvp_level": rep["bvp_reference"]["level"],
        }
    if workload == "solve-vector":
        return {"level": _load_json(os.path.join(outdirs[0], "result.json"))["level"]}
    bound = _load_json(os.path.join(outdirs[0], "bound.json"))
    out = {k: bound[k] for k in ("ctilde", "rho", "eta", "sigma0")}
    out["lambda_floor"] = bound["constants"]["lambda_floor"]
    return out


def gate(workload: str, outdirs: list[str], refs: dict) -> list[str]:
    """Problems found in one pass's CLI outputs; empty means the pass is correct."""
    tol = refs["mpa_tol"]
    rel = refs["rel_tol"]
    problems: list[str] = []
    try:
        if workload == "sweep":
            rep = _load_json(os.path.join(outdirs[0], "report.json"))
            solves = [(f"lambda={r['lambda']:g}", r, tol) for r in rep["records"]]
            solves.append(("bvp", rep["bvp_reference"], refs["bvp_tol"]))
            if not os.path.exists(os.path.join(outdirs[0], "sweep.csv")):
                problems.append("sweep.csv missing")
        elif workload == "solve-vector":
            res = _load_json(os.path.join(outdirs[0], "result.json"))
            solves = [("solve", res, tol)]
        else:
            solves = []
            if _load_json(os.path.join(outdirs[1], "report.json"))["passed"] is not True:
                problems.append("verify did not pass")
        for what, res, limit in solves:
            if res["converged"] is not True:
                problems.append(f"{what}: not converged")
            if not res["residual_weighted"] <= limit:
                problems.append(f"{what}: residual_weighted {res['residual_weighted']:.3e} > {limit:g}")
        got = reported(workload, outdirs)
        want = refs[workload]
        if workload == "sweep":
            got = dict(got.pop("levels"), bvp=got["bvp_level"])
            want = dict(want["levels"], bvp=want["bvp_level"])
        for key, ref in want.items():
            if key not in got:
                problems.append(f"{key}: missing from the output")
            elif not _close(got[key], ref, rel):
                problems.append(f"{key}: {got[key]!r} differs from reference {ref!r}")
    except (OSError, KeyError, TypeError, ValueError, IndexError) as exc:
        problems.append(f"unreadable output: {type(exc).__name__}: {exc}")
    return problems


# ---------------------------------------------------------------------------
# Machine speed.
# ---------------------------------------------------------------------------


def calibrate() -> tuple[float, float]:
    """Wall and CPU seconds this process takes for a fixed piece of work.

    The work is mixed like the solver's: Krylov iterations, streaming array
    arithmetic and interpreter loops, about a third of the time each.  numpy
    and scipy are imported here, after ``main()`` has pinned the BLAS threads
    to 1; a second BLAS thread spinning on the same CPU would skew the timing.
    """
    import numpy as np
    import scipy.sparse
    import scipy.sparse.linalg

    n = 20000
    lap = scipy.sparse.diags([-1.0, 2.01, -1.0], [-1, 0, 1], shape=(n, n), format="csr")
    rhs = np.ones(n)
    a = np.linspace(0.0, 1.0, 1_000_000)
    b = a.copy()

    def unit() -> float:
        x, _ = scipy.sparse.linalg.cg(lap, rhs, maxiter=CAL_CG_ITERS)
        for _ in range(CAL_STREAM_SWEEPS):
            np.add(a, b, out=b)
            np.multiply(b, 0.5, out=b)
        table: dict[int, int] = {}
        s = 0
        for i in range(CAL_LOOP):
            s += i * i % 7
            table[i & 255] = s
        return float(x[0] + b[0]) + s

    t0, c0 = time.perf_counter(), time.process_time()
    for _ in range(CAL_UNITS):
        unit()
    return time.perf_counter() - t0, time.process_time() - c0


def speed_scale(before: tuple[float, float], after: tuple[float, float]) -> tuple[float, float]:
    """Factors that turn measured wall and CPU seconds into reference seconds.

    The machine's speed drifts by up to 1.7x within seconds and minutes, so
    every worker is scaled by the calibrations run just before and just after
    it.
    """
    wall = 0.5 * (before[0] + after[0])
    cpu = 0.5 * (before[1] + after[1])
    return CAL_REF_S / wall, CAL_REF_S / cpu


# ---------------------------------------------------------------------------
# Workers.
# ---------------------------------------------------------------------------


def _worker_env() -> dict:
    env = dict(os.environ, **THREAD_PINS, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def spawn(workdir: str, tag: str, argv: list[str], trace: bool, deadline: float, cals: list) -> dict:
    """Run one worker to completion; returns its outcome plus rusage figures.

    ``cals`` holds the calibrations so far, the last one taken just before
    this worker; one more is appended after it, and the outcome carries the
    speed scale of the two.
    """
    req = {
        "argv": argv,
        "src": SRC,
        "trace": trace,
        "outcome": os.path.join(workdir, f"{tag}.outcome.json"),
        "spans": os.path.join(workdir, f"{tag}.spans.json"),
    }
    req_path = os.path.join(workdir, f"{tag}.request.json")
    with open(req_path, "w", encoding="utf-8") as fh:
        json.dump(req, fh)
    with open(os.path.join(workdir, f"{tag}.log"), "w", encoding="utf-8") as log:
        spawned = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py"), req_path],
            cwd=ROOT,
            env=_worker_env(),
            stdout=log,
            stderr=subprocess.STDOUT,
        )
        timer = threading.Timer(max(deadline - spawned, 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    try:
        outcome = _load_json(req["outcome"])
    except (OSError, ValueError):
        outcome = {"ready": None, "exit": None, "wall_s": None, "error": "no outcome written"}
    outcome["returncode"] = proc.returncode
    outcome["setup_s"] = None if outcome["ready"] is None else outcome["ready"] - spawned
    outcome["cpu_s"] = usage.ru_utime + usage.ru_stime
    outcome["rss_mb"] = usage.ru_maxrss / 1024.0  # Linux reports KiB
    outcome["spans_path"] = req["spans"]
    cals.append(calibrate())
    outcome["wall_scale"], outcome["cpu_scale"] = speed_scale(cals[-2], cals[-1])
    return outcome


def _dir_bytes(path: str) -> int:
    total = 0
    for base, _, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(base, f)) for f in files)
    return total


def run_pass(
    workload: str, seed: int, trace: bool, workdir: str, refs: dict, deadline: float, cals: list
) -> dict:
    """Every CLI call of ``workload`` once, each in a fresh worker, then the gate."""
    os.makedirs(workdir)
    config = os.path.join(workdir, "solve-vector.json")
    with open(config, "w", encoding="utf-8") as fh:
        json.dump(SOLVE_VECTOR_CONFIG, fh)
    outdirs, calls, problems = [], [], []
    for k, call in enumerate(WORKLOADS[workload]):
        out = os.path.join(workdir, f"out{k}")
        argv = [a.format(config=config) for a in call] + ["--seed", str(seed), "--out", out]
        res = spawn(workdir, f"call{k}", argv, trace, deadline, cals)
        outdirs.append(out)
        calls.append(res)
        if res["error"] is not None:
            problems.append(f"{call[0]}: {res['error'].strip().splitlines()[-1]}")
        elif res["returncode"] != 0 or res["exit"] != 0:
            problems.append(f"{call[0]}: exit code {res['returncode']}")
    if not problems:
        problems = gate(workload, outdirs, refs)
    return {
        "trace": trace,
        "ok": not problems,
        "problems": problems,
        "wall_s": sum(c["wall_s"] or 0.0 for c in calls),
        "wall_ref_s": sum((c["wall_s"] or 0.0) * c["wall_scale"] for c in calls),
        "cpu_s": sum(c["cpu_s"] for c in calls),
        "cpu_ref_s": sum(c["cpu_s"] * c["cpu_scale"] for c in calls),
        "peak_rss_mb": max(c["rss_mb"] for c in calls),
        "setup_s": [c["setup_s"] * c["wall_scale"] for c in calls if c["setup_s"] is not None],
        "write_bytes": sum(_dir_bytes(d) for d in outdirs if os.path.isdir(d)),
        "calls": calls,
        "env": calls[-1].get("env"),
    }


# ---------------------------------------------------------------------------
# Per-layer metrics from the merged span summaries of one traced pass.
# ---------------------------------------------------------------------------


def _merge(summaries: list[dict]) -> tuple[dict, dict, int]:
    spans: dict[str, dict] = {}
    counts: dict[str, int] = {}
    n = 0
    for s in summaries:
        n += s["span_count"]
        for name, entry in s["spans"].items():
            acc = spans.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key in acc:
                acc[key] += entry[key]
        for name, value in s["counts"].items():
            counts[name] = counts.get(name, 0) + value
    return spans, counts, n


def layer_metrics(pass_rec: dict) -> dict:
    """``{name: (value, unit)}`` for every per-layer metric of one traced pass."""
    spans, counts, n_spans = _merge([c["trace"] for c in pass_rec["calls"]])

    def get(name, key):
        return spans.get(name, {}).get(key, 0)

    def group(prefix, key):
        return sum(e[key] for name, e in spans.items() if name.startswith(prefix))

    def count(name):
        return counts.get(name, 0)

    polish_ok = count("mpa.path.polish_accepted")
    polish_tried = polish_ok + count("mpa.path.polish_rejected")
    step_ok = count("mpa.replace_node.accepted") - polish_ok
    step_tried = step_ok + count("mpa.path.step_rejections") + count("mpa.path.guard_rejections")
    m = {
        "cli.sweep.s": (get("cli.sweep", "total_s"), "s"),
        "cli.solve.s": (get("cli.solve", "total_s"), "s"),
        "cli.bound.s": (get("cli.bound", "total_s"), "s"),
        "cli.verify.s": (get("cli.verify", "total_s"), "s"),
        "cli.self_s": (group("cli.", "self_s"), "s"),
        "runner.sweep.self_s": (get("runner.sweep", "self_s"), "s"),
        "runner.observables.s": (get("runner.observables", "total_s"), "s"),
        "runner.verify.self_s": (get("runner.verify", "self_s"), "s"),
        "runner.write.s": (get("runner.write", "total_s"), "s"),
        "runner.write.bytes": (pass_rec["write_bytes"], "bytes"),
        "mpa.solve.calls": (group("mpa.solve.", "calls"), "count"),
        "mpa.solve.s": (group("mpa.solve.", "total_s"), "s"),
    }
    for lam in LADDER:
        m[f"mpa.solve.lam{lam}.s"] = (get(f"mpa.solve.lam{lam}", "total_s"), "s")
    m.update(
        {
            "mpa.iterations": (count("mpa.iterations"), "count"),
            "mpa.segment.calls": (get("mpa.segment", "calls"), "count"),
            "mpa.segment.self_s": (get("mpa.segment", "self_s"), "s"),
            "mpa.newton.calls": (get("mpa.newton", "calls"), "count"),
            "mpa.newton.self_s": (get("mpa.newton", "self_s"), "s"),
            "mpa.polish_accept_ratio": (polish_ok / polish_tried if polish_tried else 0.0, "ratio"),
            "mpa.polish_attempted": (polish_tried, "count"),
            "mpa.step_accept_ratio": (step_ok / step_tried if step_tried else 0.0, "ratio"),
            "mpa.step_attempted": (step_tried, "count"),
            "mpa.ctilde.s": (get("mpa.ctilde", "total_s"), "s"),
            "mpa.construct_e.s": (get("mpa.construct_e", "total_s"), "s"),
            "mpa.bvp.s": (get("mpa.bvp", "total_s"), "s"),
        }
    )
    for c in PATH_COUNTERS:
        m[f"mpa.path.{c}"] = (count(f"mpa.path.{c}"), "count")
    m.update(
        {
            "functional.energy.calls": (count("functional.energy.candidates"), "count"),
            "functional.energy.self_s": (get("functional.energy", "self_s"), "s"),
            "functional.metric_solve.calls": (get("functional.metric_solve", "calls"), "count"),
            "functional.metric_solve.self_s": (get("functional.metric_solve", "self_s"), "s"),
            "functional.hess_matvec.calls": (get("functional.hess_matvec", "calls"), "count"),
            "functional.field.self_s": (get("functional.field", "self_s"), "s"),
            "functional.interval.self_s": (get("functional.interval", "self_s"), "s"),
            "problem.w.calls": (get("problem.w", "calls"), "count"),
            "problem.w.points": (count("problem.w.points"), "count"),
            "problem.w.s": (get("problem.w", "total_s"), "s"),
            "spaces.embedding.s": (get("spaces.embedding", "total_s"), "s"),
            "spaces.norm.calls": (get("spaces.norm", "calls"), "count"),
            "spaces.verify.s": (get("spaces.verify", "total_s"), "s"),
            "fracops.s": (get("fracops", "total_s"), "s"),
            "fft.calls": (get("fft", "calls"), "count"),
            "fft.points": (count("fft.points"), "count"),
            "fft.s": (get("fft", "total_s"), "s"),
            "krylov.calls": (get("krylov", "calls"), "count"),
            "krylov.cg.iters": (count("krylov.cg.iters"), "count"),
            "krylov.minres.iters": (count("krylov.minres.iters"), "count"),
            "krylov.s": (get("krylov", "total_s"), "s"),
            "krylov.fail": (count("krylov.fail"), "count"),
            "dense.calls": (get("dense", "calls"), "count"),
            "dense.s": (get("dense", "total_s"), "s"),
            "trace.spans": (n_spans, "count"),
        }
    )
    return m


# ---------------------------------------------------------------------------
# The run.
# ---------------------------------------------------------------------------


def _git_sha() -> str:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() or "unknown"


def measure(workload: str, seed: int, seconds: float, trace: bool, workdir: str, refs: dict) -> dict:
    """Repeat passes for ``seconds``; returns the pass records and set-up samples.

    A calibration runs first and after every worker, so each worker is scaled
    by the machine speed measured just around it.
    """
    started = time.monotonic()
    deadline = started + HARD_LIMIT_S
    stop = started + seconds
    setups: list[float] = []
    passes: list[dict] = []
    cals = [calibrate()]
    if not trace:
        for k in range(SETUP_PROBES):
            probe = spawn(workdir, f"probe{k}", [], False, deadline, cals)
            if probe["setup_s"] is not None:
                setups.append(probe["setup_s"] * probe["wall_scale"])
    # Untraced runs start passes until the time is up.  Traced runs measure
    # (untraced, traced) pairs and start a pair only if one more fits.
    pair_s = None
    while True:
        now = time.monotonic()
        if trace and passes and now + pair_s > stop:
            break
        if not trace and passes and now >= stop:
            break
        for traced in (False, True) if trace else (False,):
            rec = run_pass(
                workload, seed, traced, os.path.join(workdir, f"pass{len(passes)}"), refs, deadline, cals
            )
            passes.append(rec)
            if not traced:
                setups.extend(rec["setup_s"])
        pair_s = time.monotonic() - now
    return {
        "passes": passes,
        "setups": setups,
        "calibrations": cals,
        "elapsed_s": time.monotonic() - started,
    }


def summarize(result: dict, trace: bool) -> tuple[dict, list[str]]:
    """Metrics ``{name: (value, unit, samples)}`` and the problems found."""
    passes = result["passes"]
    good = [p for p in passes if p["ok"]]
    problems = [f"pass {i}: {msg}" for i, p in enumerate(passes) for msg in p["problems"]]
    if not good:
        return {}, problems
    metrics: dict[str, tuple] = {}
    if not trace:
        for name, unit in END_TO_END:
            samples = result["setups"] if name == "setup_s" else [p[name] for p in good]
            metrics[name] = (statistics.median(samples), unit, len(samples))
        return metrics, problems
    traced = [p for p in good if p["trace"]]
    plain = [p for p in good if not p["trace"]]
    if not traced or not plain:
        return {}, problems + ["no traced/untraced pair passed the gate"]
    per_pass = [layer_metrics(p) for p in traced]
    for name, (_, unit) in per_pass[0].items():
        values = [pm[name][0] for pm in per_pass]
        # median_low reports a measured pass, so counts stay whole numbers.
        metrics[name] = (statistics.median_low(values), unit, len(values))
    for name in DETERMINISTIC:
        values = {pm[name][0] for pm in per_pass}
        if len(values) > 1:
            problems.append(f"{name} differs between traced passes: {sorted(values)}")
    # Measured seconds, like the spans: these are per-layer figures.
    wall = statistics.median([p["wall_s"] for p in traced])
    plain_wall = statistics.median([p["wall_s"] for p in plain])
    metrics["trace.wall_s"] = (wall, "s", len(traced))
    metrics["trace.untraced_wall_s"] = (plain_wall, "s", len(plain))
    metrics["trace.overhead_s"] = (wall - plain_wall, "s", len(traced))
    return metrics, problems


def _load_refs() -> dict:
    return _load_json(os.path.join(HERE, "references.json"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "fracham", "cli.py")):
        print(f"error: no fracham sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    refs = _load_refs()
    trace = bool(args.trace)
    # The vCPUs of a shared host change speed independently of each other, so
    # the calibrations and the workers (which inherit this) share one CPU.
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    os.environ.update(THREAD_PINS)
    os.makedirs(TMP, exist_ok=True)
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=TMP)
    try:
        result = measure(args.workload, args.seed, args.seconds, trace, workdir, refs)
        metrics, problems = summarize(result, trace)
        passes = result["passes"]
        tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        for k, call in enumerate(next((p["calls"] for p in reversed(passes) if p["trace"]), [])):
            if os.path.exists(call["spans_path"]):
                shutil.copyfile(call["spans_path"], os.path.join(OUT, f"{tag}-call{k}.spans.json"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    absent = sorted({a for p in passes for c in p["calls"] for a in c.get("absent", [])})
    env = next((p["env"] for p in passes if p["env"]), {}) or {}
    env = dict(
        env,
        nproc=os.cpu_count(),
        pinned_cpu=cpu,
        threads=",".join(f"{k}={v}" for k, v in THREAD_PINS.items()),
        git=_git_sha(),
    )
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env,
        "elapsed_s": result["elapsed_s"],
        "setup_samples": result["setups"],
        "calibrations": result["calibrations"],
        "passes": [{k: v for k, v in p.items() if k != "calls"} for p in passes],
        "metrics": {k: {"value": v[0], "unit": v[1], "samples": v[2]} for k, v in metrics.items()},
        "problems": problems,
        "absent_targets": absent,
    }
    with open(os.path.join(OUT, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace} "
          f"elapsed_s={result['elapsed_s']:.1f}")
    for msg in problems:
        print(f"FAIL {msg}")
    for target in absent:
        print(f"absent {target} (its spans read 0)")
    failed = sum(1 for p in passes if not p["ok"])
    print(f"fail_ratio {failed}/{len(passes)} passes")
    cal = statistics.median(c[0] for c in result["calibrations"])
    print(f"calibration {cal:.4g} s, median of {len(result['calibrations'])} (reference {CAL_REF_S:g} s)")
    good = [p for p in passes if p["ok"] and not p["trace"]]
    if good:
        wall = statistics.median(p["wall_s"] for p in good)
        cpu = statistics.median(p["cpu_s"] for p in good)
        print(f"measured, unscaled: wall_s {wall:.6g} s, cpu_s {cpu:.6g} s (median of {len(good)})")
    for name, (value, unit, samples) in metrics.items():
        print(f"{name} {value:.6g} {unit} (median of {samples})")
    if not metrics:
        print("error: no pass produced metrics", file=sys.stderr)
        return 1
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": len(passes),
                "failed": failed,
                "metrics": {k: {"value": v[0], "unit": v[1]} for k, v in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
