"""In-memory span recorder and the layer map it is installed with.

The recorder wraps, from outside, the functions each ``fracham`` layer is
built from, plus the numerical kernels they call (``numpy.fft``,
``scipy.sparse.linalg.cg``/``minres`` and the dense ``scipy.linalg``
solvers).  Each wrapped call becomes one span with a name, a start, an end
and the span that was open when it began.  Spans stay in memory until the
traced call returns; :meth:`Recorder.summary` then derives, per span name,
the call count, the total time (outermost spans of that name only, so a
layer that calls itself is not counted twice) and the self time (duration
minus the time covered by child spans).

A target is wrapped by object identity: every ``fracham`` module attribute,
module-level dict value and class attribute that *is* the target object is
replaced, so a function imported under the same name into several modules
(``_energy_raw`` lives in ``functional``, ``mpa`` and ``runner``) is traced
wherever it is called from.  A target that no longer exists is reported as
absent instead of failing the run.
"""

from __future__ import annotations

import collections
import functools
import importlib
import sys
import time
from array import array

__all__ = ["Recorder", "LAYER_TARGETS", "KERNEL_TARGETS", "install"]


class Recorder:
    """Span store plus exact counters, for one single-threaded process."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.nested = array("b")  # 1 when an enclosing span has the same name
        self.counts: collections.Counter = collections.Counter()
        self._stack: list[int] = []
        self._depth: collections.Counter = collections.Counter()

    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.nested.append(1 if self._depth[name] else 0)
        self._depth[name] += 1
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        return idx

    def close(self, idx: int):
        self.end[idx] = time.perf_counter()
        self._stack.pop()
        self._depth[self.names[self.name_id[idx]]] -= 1

    def active(self, prefix: str) -> bool:
        """True when an open span's name starts with ``prefix``."""
        return any(self.names[self.name_id[i]].startswith(prefix) for i in self._stack)

    def wrap(self, target, name, label=None, count=None, on_result=None):
        """Return a traced stand-in for ``target``.

        ``label(args, kwargs)`` names the span per call (default ``name``);
        ``count(args, kwargs)`` yields ``(counter, amount)`` pairs added before
        the call; ``on_result(recorder, args, kwargs, result)`` may inspect or
        replace the return value.
        """

        @functools.wraps(target)
        def traced(*args, **kwargs):
            if count is not None:
                for key, amount in count(args, kwargs):
                    self.counts[key] += amount
            idx = self.open(label(args, kwargs) if label else name)
            try:
                result = target(*args, **kwargs)
            finally:
                self.close(idx)
            if on_result is not None:
                result = on_result(self, args, kwargs, result)
            return result

        return traced

    def summary(self) -> dict:
        """Per-name ``calls``/``total_s``/``self_s`` plus the exact counters."""
        n = len(self.start)
        spans = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names}
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        for i in range(n):
            dur = self.end[i] - self.start[i]
            entry = spans[self.names[self.name_id[i]]]
            entry["calls"] += 1
            entry["self_s"] += dur - child[i]
            if not self.nested[i]:
                entry["total_s"] += dur
        return {"spans": spans, "counts": dict(self.counts), "span_count": n}

    def dump(self) -> dict:
        """Every span as parallel columns, for writing out after the run."""
        return {
            "names": list(self.names),
            "name_id": self.name_id.tolist(),
            "parent": self.parent.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
        }


# ---------------------------------------------------------------------------
# What to wrap.  Each entry: (module, qualified attribute, span name, options).
# ---------------------------------------------------------------------------


def _lam_label(args, kwargs):
    spec = args[0] if args else kwargs["spec"]
    return f"mpa.solve.lam{spec.lam:g}"


def _rows(args, kwargs):
    yield "functional.energy.candidates", args[0].shape[0] if args[0].ndim == 3 else 1


def _points(args, kwargs):
    u = args[2] if len(args) > 2 else kwargs["U"]
    yield "problem.w.points", int(getattr(u, "size", 1))


def _collect_solve(rec, args, kwargs, result):
    rec.counts["mpa.iterations"] += int(result.iterations)
    for key, value in result.diagnostics.get("counters", {}).items():
        rec.counts[f"mpa.path.{key}"] += int(value)
    return result


def _collect_replace(rec, args, kwargs, accepted):
    if accepted and rec.active("mpa.solve."):
        rec.counts["mpa.replace_node.accepted"] += 1
    return accepted


def _trace_matvec(rec, args, kwargs, matvec):
    return rec.wrap(matvec, "functional.hess_matvec")


LAYER_TARGETS = [
    ("fracham.cli", "_cmd_solve", "cli.solve", {}),
    ("fracham.cli", "_cmd_sweep", "cli.sweep", {}),
    ("fracham.cli", "_cmd_verify", "cli.verify", {}),
    ("fracham.cli", "_cmd_bound", "cli.bound", {}),
    ("fracham.runner", "lambda_sweep", "runner.sweep", {}),
    ("fracham.runner", "run_verification_campaign", "runner.verify", {}),
    ("fracham.runner", "tail_mass_ratio", "runner.observables", {}),
    ("fracham.runner", "dist_h_alpha", "runner.observables", {}),
    ("fracham.runner", "bvp_el_residual", "runner.observables", {}),
    ("fracham.runner", "_c6_record", "runner.observables", {}),
    ("fracham.functional", "h_identity", "runner.observables", {}),
    ("fracham.runner", "write_solve_outputs", "runner.write", {}),
    ("fracham.runner", "write_report", "runner.write", {}),
    ("fracham.runner", "write_sweep_csv", "runner.write", {}),
    ("fracham.mpa", "mpa_solve", "mpa.solve", {"label": _lam_label, "on_result": _collect_solve}),
    ("fracham.mpa", "bvp_solve", "mpa.bvp", {}),
    ("fracham.mpa", "construct_e", "mpa.construct_e", {}),
    ("fracham.mpa", "ctilde_bound", "mpa.ctilde", {}),
    ("fracham.mpa", "_measure_segment", "mpa.segment", {}),
    ("fracham.mpa", "_LineAdapter.newton", "mpa.newton", {}),
    ("fracham.mpa", "_IntervalAdapter.newton", "mpa.newton", {}),
    ("fracham.mpa", "_PathEngine.replace_node", "mpa.replace_node", {"on_result": _collect_replace}),
    ("fracham.functional", "_energy_raw", "functional.energy", {"count": _rows}),
    ("fracham.functional", "_energy_batch", "functional.energy", {"count": _rows}),
    ("fracham.functional", "_ienergy_raw", "functional.energy", {"count": _rows}),
    ("fracham.functional", "_ienergy_batch", "functional.energy", {"count": _rows}),
    ("fracham.functional", "_grad_x_raw", "functional.metric_solve", {}),
    ("fracham.functional", "_grad_h_raw", "functional.metric_solve", {}),
    ("fracham.functional", "_igrad_raw", "functional.metric_solve", {}),
    ("fracham.functional", "_hess_matvec", "functional.hess_setup", {"on_result": _trace_matvec}),
    ("fracham.functional", "_dI_field", "functional.field", {}),
    ("fracham.functional", "_xnormsq_raw", "functional.field", {}),
    ("fracham.functional", "_ipartials", "functional.interval", {}),
    ("fracham.functional", "_ixnormsq_raw", "functional.interval", {}),
    ("fracham.functional", "_ihess_dense", "functional.interval", {}),
    ("fracham.problem", "w_values", "problem.w", {"count": _points}),
    ("fracham.problem", "grad_w_values", "problem.w", {"count": _points}),
    ("fracham.problem", "hessian_w_action", "problem.w", {"count": _points}),
    ("fracham.spaces", "estimate_embedding_constants", "spaces.embedding", {}),
    ("fracham.spaces", "norm_h_alpha", "spaces.norm", {}),
    ("fracham.spaces", "verify_embeddings", "spaces.verify", {}),
    ("fracham.fracops", "quadratic_form_alpha", "fracops", {}),
    ("fracham.fracops", "liouville_weyl_left", "fracops", {}),
    ("fracham.fracops", "grunwald_left_rl", "fracops", {}),
    ("fracham.fracops", "gl_matrix", "fracops", {}),
    ("fracham.fracops", "interval_stiffness", "fracops", {}),
    ("fracham.fracops", "interval_stiffness_cholesky", "fracops", {}),
]


def _fft_points(inverse_real: bool):
    """``fft.points`` grows by transform length times columns.

    The transform length is the real signal length: the input length, or for
    ``irfft`` the output length ``n`` (default ``2 (m - 1)``).
    """

    def count(args, kwargs):
        a = args[0]
        n = args[1] if len(args) > 1 else kwargs.get("n")
        axis = args[2] if len(args) > 2 else kwargs.get("axis", -1)
        shape = getattr(a, "shape", ())
        if not shape:
            return
        m = shape[axis]
        columns = 1
        for d in shape:
            columns *= d
        columns //= max(m, 1)
        if n is None:
            n = 2 * (m - 1) if inverse_real else m
        yield "fft.points", int(n) * columns

    return count


def _krylov(kind):
    """Count iterations through the solver's own callback; count info != 0."""

    def wrap(rec, target):
        def traced(*args, **kwargs):
            user_cb = kwargs.get("callback")

            def callback(xk):
                rec.counts[f"krylov.{kind}.iters"] += 1
                if user_cb is not None:
                    user_cb(xk)

            kwargs["callback"] = callback
            idx = rec.open("krylov")
            try:
                x, info = target(*args, **kwargs)
            finally:
                rec.close(idx)
            if info != 0:
                rec.counts["krylov.fail"] += 1
            return x, info

        return functools.wraps(target)(traced)

    return wrap


# Kernels are patched on their public module, which is where fracham looks
# them up at call time (``np.fft.rfft``, ``scipy.sparse.linalg.cg``, ...).
KERNEL_TARGETS = [
    ("numpy.fft", "rfft", "fft", {"count": _fft_points(False)}),
    ("numpy.fft", "fft", "fft", {"count": _fft_points(False)}),
    ("numpy.fft", "ifft", "fft", {"count": _fft_points(False)}),
    ("numpy.fft", "irfft", "fft", {"count": _fft_points(True)}),
    ("scipy.sparse.linalg", "cg", "krylov", {"custom": _krylov("cg")}),
    ("scipy.sparse.linalg", "minres", "krylov", {"custom": _krylov("minres")}),
    ("scipy.linalg", "solve", "dense", {}),
    ("scipy.linalg", "cho_solve", "dense", {}),
    ("scipy.linalg", "cho_factor", "dense", {}),
]


def _resolve(module_name: str, qualname: str):
    try:
        obj = importlib.import_module(module_name)
    except ImportError:
        return None
    for part in qualname.split("."):
        obj = getattr(obj, part, None)
        if obj is None:
            return None
    return obj


def _rebind(target, replacement, restore: list) -> int:
    """Replace ``target`` by identity in every loaded fracham namespace."""
    hits = 0
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "fracham" or mod_name.startswith("fracham.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is target:
                setattr(mod, attr, replacement)
                restore.append((setattr, mod, attr, target))
                hits += 1
            elif isinstance(value, dict) and not attr.startswith("__"):
                for key, item in list(value.items()):
                    if item is target:
                        value[key] = replacement
                        restore.append((dict.__setitem__, value, key, target))
                        hits += 1
            elif isinstance(value, type) and value.__module__ == mod_name:
                for cattr, cvalue in list(vars(value).items()):
                    if cvalue is target:
                        setattr(value, cattr, replacement)
                        restore.append((setattr, value, cattr, target))
                        hits += 1
    return hits


def install(rec: Recorder):
    """Wrap every target; returns ``(absent, restore)``.

    ``absent`` lists the targets that could not be found; calling
    ``restore()`` puts every original object back.
    """
    undo: list = []
    absent: list[str] = []
    for module_name, qualname, name, opts in LAYER_TARGETS:
        target = _resolve(module_name, qualname)
        if target is None:
            absent.append(f"{module_name}.{qualname}")
            continue
        traced = rec.wrap(
            target,
            name,
            label=opts.get("label"),
            count=opts.get("count"),
            on_result=opts.get("on_result"),
        )
        if _rebind(target, traced, undo) == 0:
            absent.append(f"{module_name}.{qualname}")
    for module_name, attr, name, opts in KERNEL_TARGETS:
        module = sys.modules.get(module_name) or importlib.import_module(module_name)
        target = getattr(module, attr, None)
        if target is None:
            absent.append(f"{module_name}.{attr}")
            continue
        if "custom" in opts:
            traced = opts["custom"](rec, target)
        else:
            traced = rec.wrap(target, name, count=opts.get("count"))
        setattr(module, attr, traced)
        undo.append((setattr, module, attr, target))

    def restore():
        for fn, owner, key, original in reversed(undo):
            fn(owner, key, original)

    return absent, restore
