"""Command-line entry point.

Five subcommands cover the workflows the library supports:

- ``solve``  one line problem at one parameter value
- ``bvp``    the Dirichlet interval problem
- ``sweep``  the concentration study over an ascending parameter ladder
- ``verify`` the full verification campaign (embeddings, families, identities)
- ``bound``  geometry certificates only (rho, eta, sigma0, level bound)

Exit codes: 0 on success, 1 when a run fails a mathematical check or does not
converge, 2 on configuration or usage errors.
"""

from __future__ import annotations

import argparse
import os
import sys

from .config import (
    build_bvp_config,
    build_interval_spec,
    build_mpa_config,
    build_problem_spec,
    config_hash,
    load_config,
    merge_config,
)
from .errors import ConfigError, FrachamError
from .mpa import bvp_solve, construct_e, mpa_solve
from .runner import (
    bvp_el_residual,
    lambda_sweep,
    run_verification_campaign,
    write_report,
    write_solve_outputs,
    write_sweep_csv,
)
from .spaces import estimate_embedding_constants

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracham",
        description="Variational solver for fractional Hamiltonian systems on the line",
    )
    sub = parser.add_subparsers(dest="command")

    def common(sp):
        sp.add_argument("--config", default=None, help="JSON config file (overrides defaults)")
        sp.add_argument("--seed", type=int, default=None, help="seed overriding the config")
        sp.add_argument("--out", default=None, help="run directory for JSON/CSV outputs")

    sp = sub.add_parser("solve", help="solve the line problem at one parameter value")
    common(sp)
    sp.add_argument("--lambda", dest="lam", type=float, default=None,
                    help="parameter value (defaults to the config's problem.lambda)")

    sp = sub.add_parser("bvp", help="solve the Dirichlet interval problem")
    common(sp)

    sp = sub.add_parser("sweep", help="concentration study over an ascending ladder")
    common(sp)
    sp.add_argument("--lambdas", default=None,
                    help="comma-separated ascending parameter values")
    sp.add_argument("--cold", action="store_true",
                    help="disable warm-starting between ladder runs")

    sp = sub.add_parser("verify", help="run the verification campaign")
    common(sp)

    sp = sub.add_parser("bound", help="report geometry certificates and the level bound")
    common(sp)

    return parser


def _load(args, **flags):
    """The effective config, its hash, the line problem's spec and its embedding constants.

    ``flags`` maps a config table to the command-line values for its keys,
    ``None`` leaving a key alone.  They and ``--seed`` are merged with the
    checks a config file's keys get, and the hash covers them.
    """
    given = {table: {k: v for k, v in values.items() if v is not None}
             for table, values in flags.items()}
    if args.seed is not None:
        given["seed"] = args.seed
    cfg = merge_config(load_config(args.config), given)
    chash = config_hash(cfg)
    spec = build_problem_spec(cfg)
    constants = estimate_embedding_constants(
        spec.grid, spec.alpha, spec.potential, safety=cfg["embedding"]["safety"]
    )
    return cfg, chash, spec, constants


def _certificates(spec, constants, chash: str):
    """The setup from ``construct_e`` and the certificate fields ``solve`` and ``bound`` share."""
    setup = construct_e(spec, constants=constants)
    return setup, {**setup.certificates(), "constants": constants.to_dict(), "config_hash": chash}


def _cmd_solve(args) -> int:
    cfg, chash, spec, constants = _load(args, problem={"lambda": args.lam})
    mpa_config = build_mpa_config(cfg)
    setup, certificates = _certificates(spec, constants, chash)
    result = mpa_solve(spec, setup, mpa_config)
    print(
        f"solve: lambda={spec.lam:g} converged={result.converged} "
        f"level={result.level:.9g} residual_weighted={result.residual_weighted:.3e} "
        f"iterations={result.iterations}"
    )
    if args.out:
        write_solve_outputs(
            args.out,
            result,
            extras={
                "lambda": spec.lam,
                "alpha": spec.alpha,
                "lambda_floor": constants.lambda_floor,
                **certificates,
            },
        )
    return 0 if result.converged else 1


def _cmd_bvp(args) -> int:
    cfg, chash, spec, _ = _load(args)
    ispec = build_interval_spec(cfg, spec)
    result = bvp_solve(ispec, build_bvp_config(cfg))
    el = bvp_el_residual(result.u, ispec)
    print(
        f"bvp: converged={result.converged} level={result.level:.9g} "
        f"el_residual={el:.3e} iterations={result.iterations}"
    )
    if args.out:
        write_solve_outputs(
            args.out,
            result,
            extras={
                "alpha": ispec.alpha,
                "el_residual": el,
                "config_hash": chash,
            },
        )
    return 0 if result.converged else 1


def _parse_lambdas(text: str) -> list[float]:
    try:
        return [float(x) for x in text.split(",") if x.strip()]
    except ValueError as exc:
        raise ConfigError(f"cannot parse --lambdas {text!r}: {exc}") from exc


def _cmd_sweep(args) -> int:
    lambdas = None if args.lambdas is None else _parse_lambdas(args.lambdas)
    cfg, chash, spec, constants = _load(
        args, sweep={"lambdas": lambdas, "cold": args.cold or None}
    )
    build_interval_spec(cfg, spec)  # a bad bvp table exits 2 before any solve
    report = lambda_sweep(
        spec,
        cfg["sweep"]["lambdas"],
        mpa_config=build_mpa_config(cfg),
        bvp_points=cfg["bvp"]["num_points"],
        bvp_config=build_bvp_config(cfg),
        cold=cfg["sweep"]["cold"],
        constants=constants,
    )
    for rec in report.records:
        print(
            f"sweep: lambda={rec['lambda']:g} converged={rec['converged']} "
            f"level={rec['level']:.9g} tail={rec['tail_mass_ratio']:.3e} "
            f"dist={rec['dist_to_bvp_h_alpha']:.3e}"
        )
    print(
        f"sweep: ctilde={report.ctilde:.9g} "
        f"observed_admissible_lambda={report.observed_admissible_lambda}"
    )
    if args.out:
        write_report(args.out, "report.json", {**report.to_dict(), "config_hash": chash})
        write_sweep_csv(args.out, report)
    return 0 if all(rec["converged"] for rec in report.records) else 1


def _cmd_verify(args) -> int:
    cfg, _, spec, constants = _load(args)
    report = run_verification_campaign(
        spec, constants, budgets=dict(cfg["verify"]), seed=cfg["seed"]
    )
    for name, section in report["sections"].items():
        print(f"verify: {name}: {'pass' if section.get('passed') else 'FAIL'}")
    print(f"verify: overall: {'pass' if report['passed'] else 'FAIL'}")
    if args.out:
        write_report(args.out, "report.json", report)
    return 0 if report["passed"] else 1


def _cmd_bound(args) -> int:
    _, chash, spec, constants = _load(args)
    setup, certificates = _certificates(spec, constants, chash)
    print(
        f"bound: ctilde={certificates['ctilde']:.9g} rho={setup.rho:.6g} eta={setup.eta:.6g} "
        f"sigma0={setup.sigma0:g} lambda_floor={constants.lambda_floor:.6g}"
    )
    if args.out:
        write_report(
            args.out,
            "bound.json",
            {**certificates, "tau": setup.tau, "epsilon_c": setup.epsilon_c, "c_eps": setup.c_eps},
        )
    return 0


_COMMANDS = {
    "solve": _cmd_solve,
    "bvp": _cmd_bvp,
    "sweep": _cmd_sweep,
    "verify": _cmd_verify,
    "bound": _cmd_bound,
}


def _make_out(out: str | None):
    """Create the run directory up front, so an unusable ``--out`` stops the run before any work."""
    if not out:
        return
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"--out {out!r} cannot be a run directory: {exc.strerror or exc}") from exc


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        _make_out(args.out)
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        print("run 'fracham --help' for usage", file=sys.stderr)
        return 2
    except FrachamError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
