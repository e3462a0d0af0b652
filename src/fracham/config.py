"""Declarative run configuration: schema, defaults, loading, builders.

One JSON document drives the CLI.  Every key has a default, so a config file
only lists overrides; unknown keys are rejected rather than ignored, because
a silently dropped override is the worst failure mode a config system can
have.  The schema is versioned through ``schema_version``.  The keys of a
table that configures a dataclass are fields of it, passed by name.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import math
import sys

from .errors import ConfigError, DomainError
from .functional import IntervalProblemSpec, ProblemSpec
from .grids import RealLineGrid
from .mpa import _WELL_CONFIG, MpaConfig
from .problem import (_SEED, NonlinearitySpec, PotentialSpec, default_nonlinearity,
                       default_potential)
from .runner import DEFAULT_BUDGETS, payload_hash
from .spaces import _SAFETY, _WELL_POINTS

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
    "seed": _SEED,
    "grid": {
        "halfwidth": 20.0,
        "num_points": 4096,
    },
    "problem": {
        "alpha": 0.75,
        "lambda": 10.0,
        "n": 1,
        # The library's default problem.
        "potential": {**dataclasses.asdict(default_potential()), "diag_scales": []},
        "nonlinearity": dataclasses.asdict(default_nonlinearity()),
    },
    "embedding": {"safety": _SAFETY},
    "mpa": dataclasses.asdict(MpaConfig()),
    "bvp": {"num_points": _WELL_POINTS, "tol": _WELL_CONFIG.tol,
            "max_iters": _WELL_CONFIG.max_iters},
    "sweep": {
        "lambdas": [1.0, 10.0, 100.0, 1000.0],
        "cold": False,
    },
    "verify": dict(DEFAULT_BUDGETS),
}


# The one leaf that may be null: a nonlinearity with no configured defect constant.
_NULLABLE = frozenset({"problem.nonlinearity.c0"})

# Schema v1 keys that change nothing.  A document may still set each to a
# value v1 accepted (any integer for the two counts, the one value shown for
# the others); the merge checks it and drops it.
_RETIRED = {
    "embedding.samples": 10000,
    "mpa.max_path_nodes": 81,
    "mpa.step_rule": "armijo",
    "mpa.metric": "x-alpha-lambda",
    "mpa.polish": True,
    "mpa.restarts": 0,
}
_RETIRED_COUNTS = frozenset({"embedding.samples", "mpa.max_path_nodes"})


def _kind(value) -> str | None:
    """JSON kind of a config leaf, as named in error messages."""
    if isinstance(value, list):
        return "a list of numbers" if all(_kind(x) == "a number" for x in value) else None
    return {bool: "a boolean", int: "a number", float: "a number", str: "a string"}.get(type(value))


def _leaf(where: str, default, value):
    """``value`` checked against the JSON kind of ``default`` and given its numeric type."""
    if value is None and where in _NULLABLE:
        return None
    if _kind(value) != _kind(default):
        raise ConfigError(f"config key {where!r} must be {_kind(default)}, got {value!r}")
    if isinstance(value, str):
        return value
    # NaN fails the comparison; so do infinities and integers past the float range.
    numbers = value if isinstance(value, list) else [value]
    if not all(abs(x) <= sys.float_info.max for x in numbers):
        raise ConfigError(f"config key {where!r} must be finite, got {value!r}")
    if where == "seed" and value < 0:  # numpy's generators reject a negative seed
        raise ConfigError(f"config key {where!r} must not be negative, got {value!r}")
    if where == "embedding.safety" and value < 1:  # below 1, C_inf undercuts what a profile attains
        raise ConfigError(f"config key {where!r} must be at least 1, got {value!r}")
    if type(default) is int:
        if isinstance(value, float) and not value.is_integer():
            raise ConfigError(f"config key {where!r} must be an integer, got {value!r}")
        return int(value)
    if type(default) is float:
        return float(value)
    if isinstance(default, list):
        return [float(x) for x in value]
    return value


def merge_config(base: dict, override: dict, path: str = "") -> dict:
    """Merge an override onto defaults; reject unknown keys and leaves of the wrong JSON kind.

    Each numeric leaf must be finite, ``seed`` nonnegative and
    ``embedding.safety`` at least 1.  Each takes its default's type once: an
    integer key rejects a non-integral number and reads an integral float
    such as ``4096.0`` as an integer, and a float key reads an integer as a
    float.  A retired v1 key is checked against what v1 accepted and dropped.
    """
    out = copy.deepcopy(base)
    for key, value in override.items():
        where = f"{path}.{key}" if path else key
        if where in _RETIRED:
            legal = _RETIRED[where]
            if _leaf(where, legal, value) != legal and where not in _RETIRED_COUNTS:
                raise ConfigError(f"{where} must be {legal!r}, got {value!r}")
        elif key not in base:
            raise ConfigError(f"unknown config key {where!r}")
        elif isinstance(base[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"config key {where!r} must be a table")
            out[key] = merge_config(base[key], value, where)
        else:
            out[key] = _leaf(where, base[key], value)
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


def _build(cls, where: str, table: dict, **given):
    """``cls`` from the entries of ``table`` that name its fields, then ``given``.

    A ``DomainError`` or ``ConfigError`` from the constructor is re-raised naming the table.
    """
    names = {field.name for field in dataclasses.fields(cls)}
    try:
        return cls(**{**{key: value for key, value in table.items() if key in names}, **given})
    except (DomainError, ConfigError) as exc:
        raise ConfigError(f"config table {where!r}: {exc}") from exc


def build_grid(cfg: dict) -> RealLineGrid:
    return _build(RealLineGrid, "grid", cfg["grid"])


def build_potential(cfg: dict) -> PotentialSpec:
    return _build(PotentialSpec, "problem.potential", cfg["problem"]["potential"])


def build_nonlinearity(cfg: dict) -> NonlinearitySpec:
    return _build(NonlinearitySpec, "problem.nonlinearity", cfg["problem"]["nonlinearity"])


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
    return _build(ProblemSpec, "problem", prob, lam=prob["lambda"], potential=potential,
                  nonlinearity=build_nonlinearity(cfg), grid=grid)


def build_interval_spec(cfg: dict, spec: ProblemSpec) -> IntervalProblemSpec:
    """The well problem of the line problem ``spec``, on ``bvp.num_points`` nodes."""
    try:
        return spec.well_interval(cfg["bvp"]["num_points"])
    except DomainError as exc:
        raise ConfigError(f"config table 'bvp': {exc}") from exc


def build_mpa_config(cfg: dict) -> MpaConfig:
    return _build(MpaConfig, "mpa", cfg["mpa"])


def build_bvp_config(cfg: dict) -> MpaConfig:
    return _build(MpaConfig, "bvp", cfg["bvp"])
