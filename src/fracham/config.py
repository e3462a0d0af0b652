"""Declarative run configuration: schema, defaults, loading, builders.

One JSON document drives the CLI.  Every key has a default, so a config file
only lists overrides; unknown keys are rejected rather than ignored, because
a silently dropped override is the worst failure mode a config system can
have.  The schema is versioned through ``schema_version``.
"""

from __future__ import annotations

import copy
import json
import math

from .errors import ConfigError
from .functional import IntervalProblemSpec, ProblemSpec
from .grids import IntervalGrid, RealLineGrid
from .mpa import MpaConfig
from .problem import NonlinearitySpec, PotentialSpec
from .runner import DEFAULT_BUDGETS, payload_hash

__all__ = [
    "SCHEMA_VERSION",
    "DEFAULT_CONFIG",
    "load_config",
    "merge_config",
    "config_hash",
    "build_grid",
    "build_potential",
    "build_nonlinearity",
    "build_problem_spec",
    "build_interval_spec",
    "build_mpa_config",
    "build_bvp_config",
]

SCHEMA_VERSION = 1

DEFAULT_CONFIG: dict = {
    "schema_version": SCHEMA_VERSION,
    "seed": 20260816,
    "grid": {
        "halfwidth": 20.0,
        "num_points": 4096,
    },
    "problem": {
        "alpha": 0.75,
        "lambda": 10.0,
        "n": 1,
        "potential": {
            "kind": "scalar",
            "varrho": 0.4,
            "delta": 0.05,
            "cap": 6.0,
            "c": 1.5,
            "diag_scales": [],
        },
        "nonlinearity": {
            "kind": "pure_power",
            "p": 4.0,
            "epsilon": 0.0,
            "weight_base": 1.0,
            "weight_amp": 0.0,
            "weight_freq": 0.0,
            "c0": 20.0,
            "radius": 1.0,
        },
    },
    "embedding": {
        "samples": 10000,
        "safety": 1.1,
    },
    "mpa": {
        "path_nodes": 21,
        "tol": 1e-6,
        "max_iters": 400,
        "step_rule": "armijo",
        "metric": "x-alpha-lambda",
        "polish": True,
        "max_path_nodes": 81,
        "restarts": 0,
    },
    "bvp": {
        "num_points": 257,
        "tol": 1e-8,
        "max_iters": 400,
    },
    "sweep": {
        "lambdas": [1.0, 10.0, 100.0, 1000.0],
        "cold": False,
    },
    "verify": dict(DEFAULT_BUDGETS),
}


# The one leaf that may be null: a nonlinearity with no configured defect constant.
_NULLABLE = frozenset({"problem.nonlinearity.c0"})


def _kind(value) -> str | None:
    """JSON kind of a config leaf, as named in error messages."""
    if isinstance(value, list):
        return "a list of numbers" if all(_kind(x) == "a number" for x in value) else None
    return {bool: "a boolean", int: "a number", float: "a number", str: "a string"}.get(type(value))


def merge_config(base: dict, override: dict, path: str = "") -> dict:
    """Merge an override onto defaults; reject unknown keys and leaves of the wrong JSON kind.

    A key whose default is an integer also rejects a non-integral number;
    an integral float such as ``4096.0`` is accepted.
    """
    out = copy.deepcopy(base)
    for key, value in override.items():
        where = f"{path}.{key}" if path else key
        if key not in base:
            raise ConfigError(f"unknown config key {where!r}")
        if isinstance(base[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"config key {where!r} must be a table")
            out[key] = merge_config(base[key], value, where)
        elif _kind(value) != _kind(base[key]) and not (value is None and where in _NULLABLE):
            raise ConfigError(f"config key {where!r} must be {_kind(base[key])}, got {value!r}")
        elif type(base[key]) is int and isinstance(value, float) and not value.is_integer():
            raise ConfigError(f"config key {where!r} must be an integer, got {value!r}")
        else:
            out[key] = copy.deepcopy(value)
    return out


def load_config(path: str | None = None) -> dict:
    """Effective configuration: defaults overlaid with one optional JSON file."""
    if path is None:
        return copy.deepcopy(DEFAULT_CONFIG)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            user = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(user, dict):
        raise ConfigError("config file must contain a JSON object")
    merged = merge_config(DEFAULT_CONFIG, user)
    if merged["schema_version"] != SCHEMA_VERSION:
        raise ConfigError(
            f"unsupported schema_version {merged['schema_version']}; "
            f"this build reads version {SCHEMA_VERSION}"
        )
    return merged


def config_hash(cfg: dict) -> str:
    """Content hash of the effective configuration."""
    return payload_hash(cfg)


def build_grid(cfg: dict) -> RealLineGrid:
    g = cfg["grid"]
    return RealLineGrid(halfwidth=float(g["halfwidth"]), num_points=int(g["num_points"]))


def build_potential(cfg: dict) -> PotentialSpec:
    p = cfg["problem"]["potential"]
    return PotentialSpec(
        varrho=float(p["varrho"]),
        delta=float(p["delta"]),
        cap=float(p["cap"]),
        c=float(p["c"]),
        kind=str(p["kind"]),
        diag_scales=tuple(float(x) for x in p["diag_scales"]),
    )


def build_nonlinearity(cfg: dict) -> NonlinearitySpec:
    w = cfg["problem"]["nonlinearity"]
    return NonlinearitySpec(
        kind=str(w["kind"]),
        p=float(w["p"]),
        epsilon=float(w["epsilon"]),
        weight_base=float(w["weight_base"]),
        weight_amp=float(w["weight_amp"]),
        weight_freq=float(w["weight_freq"]),
        c0=float(w["c0"]) if w["c0"] is not None else None,
        radius=float(w["radius"]),
    )


def build_problem_spec(cfg: dict) -> ProblemSpec:
    prob = cfg["problem"]
    potential = build_potential(cfg)
    grid = build_grid(cfg)
    # The potential reaches its cap at |t| = varrho + delta sqrt(cap).  On a
    # narrower box nearly every node joins the metric's well correction, a
    # dense (N-1) x (N-1) Cholesky factorization.
    edge = potential.varrho + potential.delta * math.sqrt(potential.cap)
    if grid.halfwidth <= edge:
        raise ConfigError(
            f"grid.halfwidth = {grid.halfwidth:g} must exceed "
            f"varrho + delta*sqrt(cap) = {edge:g}, where the potential reaches its cap"
        )
    return ProblemSpec(
        alpha=float(prob["alpha"]),
        lam=float(prob["lambda"]),
        potential=potential,
        nonlinearity=build_nonlinearity(cfg),
        grid=grid,
        n=int(prob["n"]),
    )


def build_interval_spec(cfg: dict) -> IntervalProblemSpec:
    varrho = float(cfg["problem"]["potential"]["varrho"])
    grid = IntervalGrid(-varrho, varrho, int(cfg["bvp"]["num_points"]))
    return IntervalProblemSpec(
        alpha=float(cfg["problem"]["alpha"]),
        nonlinearity=build_nonlinearity(cfg),
        grid=grid,
        n=int(cfg["problem"]["n"]),
    )


def build_mpa_config(cfg: dict) -> MpaConfig:
    m = cfg["mpa"]
    # Schema v1 keeps these four keys; each has exactly one legal value.
    single = (("step_rule", "armijo"), ("metric", "x-alpha-lambda"),
              ("restarts", 0), ("polish", True))
    for key, legal in single:
        if m[key] != legal:
            raise ConfigError(f"mpa.{key} must be {legal!r}, got {m[key]!r}")
    return MpaConfig(
        path_nodes=int(m["path_nodes"]),
        tol=float(m["tol"]),
        max_iters=int(m["max_iters"]),
        max_path_nodes=int(m["max_path_nodes"]),
    )


def build_bvp_config(cfg: dict) -> MpaConfig:
    b = cfg["bvp"]
    return MpaConfig(tol=float(b["tol"]), max_iters=int(b["max_iters"]))
