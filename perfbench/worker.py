"""One fresh-process ``fracham`` CLI call, timed from the inside.

Usage (``run.py`` starts it; it is not meant to be run by hand):

    python3 perfbench/worker.py REQUEST.json

The request names the CLI arguments, the file to write the outcome to, the
checkout's ``src`` directory fracham must be imported from, whether to trace,
and where to write the spans.  ``argv`` may be empty: the worker then only
imports, which is how ``run.py`` samples set-up time on its own.

The outcome records ``ready`` (``time.monotonic()`` once numpy, scipy and
fracham are imported and ``main()`` can be called), ``wall_s`` (entering
``main()`` to its return, including the ``--out`` writes) and the exit code.
The process exits with the CLI's exit code, or 3 when fracham was imported
from outside the checkout or the call raised.
"""

from __future__ import annotations

import json
import os
import sys
import time
import traceback


def _environment() -> dict:
    import numpy
    import scipy

    blas = "unknown"
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name', '?')} {deps.get('version', '?')}"
    except (KeyError, TypeError, ValueError):
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
    }


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        req = json.load(fh)
    src = os.path.realpath(req["src"])

    import numpy  # noqa: F401  (set-up cost a CLI user pays)
    import scipy.linalg  # noqa: F401
    import scipy.sparse.linalg  # noqa: F401

    import fracham
    from fracham.cli import main as cli_main

    ready = time.monotonic()
    outcome = {"ready": ready, "exit": None, "wall_s": None, "error": None}
    if not os.path.realpath(fracham.__file__).startswith(src + os.sep):
        outcome["error"] = f"fracham imported from {fracham.__file__}, not from {src}"
        argv = []
    else:
        argv = req["argv"]

    rec = restore = None
    if argv and req.get("trace"):
        import tracer

        rec = tracer.Recorder()
        outcome["absent"], restore = tracer.install(rec)

    if argv:
        t0 = time.monotonic()
        try:
            outcome["exit"] = cli_main(argv)
        except Exception:  # the pass fails; run.py reports it
            outcome["error"] = traceback.format_exc()
        outcome["wall_s"] = time.monotonic() - t0

    if rec is not None:
        restore()
        outcome["trace"] = rec.summary()
        with open(req["spans"], "w", encoding="utf-8") as fh:
            json.dump(rec.dump(), fh)
    outcome["env"] = _environment()
    with open(req["outcome"], "w", encoding="utf-8") as fh:
        json.dump(outcome, fh)
    if outcome["error"] is not None:
        return 3
    return 0 if outcome["exit"] is None else int(outcome["exit"])


if __name__ == "__main__":
    sys.exit(main())
