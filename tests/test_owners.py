"""One owner per shared decision, checked on the package source.

Each decision here was once written in two places that drifted apart: the
well problem, the underflow-safe power, ``kappa_p``, the ladder rule, a
sweep record's solve fields, the certificate block, the starting path of a
solve, cold or warm, the lambda floor's check, the well reference's solver
settings and the shared defaults (the verifiers' seed, the node count of
the well and the safety factor on ``C_inf``).  The path engine's one
remover of nodes is gone too, and stays gone; one method inserts nodes and
one rule stops a run early.  The polynomial of ``W`` along a segment is
built in one place and read in one, and ``W`` is sampled along a segment
only where it has no such polynomial.  A line solve's setup measures the
crest of ``0 -> e`` once, and the solve starts from that record; both
domains build their far endpoint ``e`` in one place, and MINRES hands back
its Lanczos record rather than filling one it is given.  The path engine
takes the nodes its caller evaluated, so each point of a solve is evaluated
once, by the code that makes it.  Each domain's count of random sample
families is written once, in a table the sampler and ``verify`` read.
"""

import ast
import pathlib

import pytest

import fracham
from fracham import bvp_solve, functional, mpa
from fracham.config import DEFAULT_CONFIG, build_bvp_config

SRC = pathlib.Path(fracham.__file__).resolve().parent


def _scopes(match) -> set[tuple[str, str]]:
    """``(module, scope)`` of every node of the package source that ``match`` accepts.

    A scope is the dotted path of the enclosing classes and functions, empty
    at module level.
    """
    found = set()

    def walk(node, module, scope):
        for child in ast.iter_child_nodes(node):
            if match(child):
                found.add((module, scope))
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            walk(child, module, inner)

    for path in sorted(SRC.glob("*.py")):
        walk(ast.parse(path.read_text(encoding="utf-8")), path.stem, "")
    return found


def _function(module: str, name: str) -> ast.FunctionDef:
    tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
    return next(node for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and node.name == name)


def _named(node, name: str) -> bool:
    return (isinstance(node, ast.Name) and node.id == name) or (
        isinstance(node, ast.Attribute) and node.attr == name)


def test_the_well_problem_is_built_only_from_the_line_problem():
    """``bvp``, ``sweep`` and ``verify`` all take the well from ``ProblemSpec.well_interval``.

    A class counts as built where a call other than ``isinstance`` names
    it, as the callee or as an argument (a builder that calls the class it
    is given).
    """
    for cls in ("IntervalProblemSpec", "IntervalGrid"):
        calls = _scopes(lambda node: isinstance(node, ast.Call)
                        and not _named(node.func, "isinstance")
                        and any(_named(part, cls) for part in (node.func, *node.args)))
        assert calls == {("functional", "ProblemSpec.well_interval")}, cls


def test_the_underflow_safe_power_is_defined_once():
    defs = _scopes(lambda node: isinstance(node, ast.FunctionDef) and node.name == "_power")
    assert defs == {("problem", "")}


def test_every_starting_path_is_built_in_run_path():
    """The straight cold path and the warm ``0 -> guess -> e`` are built in one place."""
    calls = _scopes(lambda node: isinstance(node, ast.Call) and _named(node.func, "_PathEngine"))
    assert calls == {("mpa", "_run_path")}


def test_the_crest_of_0_to_e_has_two_measurers():
    """Only ``_far_endpoint`` and ``ctilde_bound`` measure the crest of ``0 -> e``.

    ``construct_e`` records it once per setup, for ``ctilde`` and a cold line
    start; ``bvp_solve``, which has no setup, takes it from the same builder.
    Every other segment is measured by the path engine, so ``_run_path``
    measures none itself.
    """
    crests = _scopes(lambda node: isinstance(node, ast.Call)
                     and _named(node.func, "_straight_path_crest"))
    assert crests == {("mpa", "_far_endpoint"), ("mpa", "ctilde_bound")}
    measures = _scopes(lambda node: isinstance(node, ast.Call)
                       and _named(node.func, "_measure_segment"))
    assert measures == {("mpa", "_straight_path_crest"), ("mpa", "_PathEngine._measure")}


def test_both_domains_build_the_far_endpoint_in_one_place():
    """The doubling scan for ``e`` runs only in ``_far_endpoint``; the other scan is ``sigma u``'s."""
    scans = _scopes(lambda node: isinstance(node, ast.Call) and _named(node.func, "_doubling_scan"))
    assert scans == {("mpa", "_far_endpoint"), ("mpa", "_newton_start")}
    builders = _scopes(lambda node: isinstance(node, ast.Call) and _named(node.func, "_far_endpoint"))
    assert builders == {("mpa", "construct_e"), ("mpa", "bvp_solve")}


def test_minres_returns_its_lanczos_record():
    """No function in ``functional`` takes a ``tridiagonal`` to fill: MINRES returns it."""
    params = _scopes(lambda node: isinstance(node, ast.arg) and node.arg == "tridiagonal")
    assert ("mpa", "_hessian_spectrum") in params  # the matcher sees parameters
    assert {scope for module, scope in params if module == "functional"} == set()


def test_the_path_engine_evaluates_no_point():
    """``_PathEngine.__init__`` calls no ``_node``, and no ``||x||_X`` is computed apart from a node.

    ``_OperatorBase`` has no ``xnorm`` and nothing in the package calls one:
    a norm is read off a point's node, or off the gradient check's ``||g||_X``.
    """
    evaluations = _scopes(lambda node: isinstance(node, ast.Call) and _named(node.func, "_node"))
    assert ("mpa", "_run_path") in evaluations  # the matcher sees the calls
    assert ("mpa", "_PathEngine.__init__") not in evaluations
    assert _scopes(lambda node: isinstance(node, ast.Call) and _named(node.func, "xnorm")) == set()
    assert not hasattr(functional._OperatorBase, "xnorm")


def _removes_a_node(node) -> bool:
    """A ``del`` of ``nodes`` or an item of it, or a ``pop``, ``remove`` or ``clear`` on it."""
    if isinstance(node, ast.Delete):
        return any(_named(target, "nodes") or (isinstance(target, ast.Subscript)
                                                and _named(target.value, "nodes"))
                   for target in node.targets)
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in {"pop", "remove", "clear"} and _named(node.func.value, "nodes"))


def test_no_node_leaves_the_path():
    """Nothing in ``mpa`` takes a node off ``_PathEngine.nodes``.

    Nodes only enter, at most one per iteration, so a path holds at most its
    starting nodes plus one per iteration.
    """
    assert {scope for module, scope in _scopes(_removes_a_node) if module == "mpa"} == set()


def test_one_inserter_and_one_stop_rule():
    """Only ``crest`` inserts a node, and only ``_run_path`` stops a run for stagnation.

    So a path grows by at most one node per iteration, and a run ends early
    for one reason: its path maximum set no new low for three iterations.
    """
    inserts = _scopes(lambda node: isinstance(node, ast.Call) and _named(node.func, "insert")
                      and not _named(node.func.value, "nodes"))  # not the list's own insert
    assert inserts == {("mpa", "_PathEngine.crest")}
    stagnation = _scopes(lambda node: isinstance(node, ast.Assign)
                         and isinstance(node.value, ast.Constant)
                         and node.value.value == "stagnation")
    assert stagnation == {("mpa", "_run_path")}


def test_kappa_p_is_written_once():
    """``estimate_rho_eta`` takes ``kappa_p^-p`` from the constants, not from its own formula.

    ``verify``'s ``_line_ratios`` reads the same value, so it checks the
    ``kappa_p^p`` of the geometry certificate bit for bit.
    """
    body = _function("mpa", "estimate_rho_eta")
    powers = [node for node in ast.walk(body)
              if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
              and _named(node.left, "theta")]
    assert powers == []
    assert any(_named(node, "kappa_neg_power") for node in ast.walk(body))
    callees = {node.func.attr for node in ast.walk(_function("spaces", "_line_ratios"))
               if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)}
    assert "kappa_neg_power" in callees and "kappa" not in callees


def test_the_sample_family_counts_are_written_once():
    """``spaces._FAMILIES`` owns each domain's count of sample families.

    The sampler's drawn-family rule and range check, and ``verify``'s family
    cycles, read it; no ``%`` and no ``integers(0, ...)`` takes a literal
    count.
    """
    tables = _scopes(lambda node: isinstance(node, ast.Assign)
                     and any(_named(target, "_FAMILIES") for target in node.targets))
    assert tables == {("spaces", "")}
    readers = _scopes(lambda node: isinstance(node, ast.Subscript) and _named(node.value, "_FAMILIES"))
    assert readers == {("spaces", "_fill_samples"), ("spaces", "verify_embeddings")}

    def literal_int(node):
        return isinstance(node, ast.Constant) and type(node.value) is int

    cycles = _scopes(lambda node: isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod)
                     and literal_int(node.right))
    draws = _scopes(lambda node: isinstance(node, ast.Call) and _named(node.func, "integers")
                    and len(node.args) == 2 and literal_int(node.args[0])
                    and node.args[0].value == 0 and literal_int(node.args[1]))
    assert cycles == set() and draws == set()


def _attributes_of_call(body: ast.FunctionDef, callee: str) -> set[str]:
    """Attributes read in ``body`` off the names bound to the value of a call to ``callee``."""
    bound = {target.id for node in ast.walk(body) if isinstance(node, ast.Assign)
             and isinstance(node.value, ast.Call) and _named(node.value.func, callee)
             for target in node.targets if isinstance(target, ast.Name)}
    assert bound, callee
    return {node.attr for node in ast.walk(body) if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id in bound}


def test_sweep_records_take_the_solve_summary():
    """A sweep record copies no ``SolveResult`` field by name; ``summary`` owns them."""
    reads = _attributes_of_call(_function("runner", "lambda_sweep"), "mpa_solve")
    assert "summary" in reads and reads <= {"u", "converged", "level", "summary"}


@pytest.mark.parametrize("module, name", [("cli", "_certificates"), ("runner", "lambda_sweep")])
def test_certificates_come_from_the_setup(module, name):
    """The certificate block is ``MountainPassSetup.certificates``, not four names."""
    reads = _attributes_of_call(_function(module, name), "construct_e")
    assert "certificates" in reads
    assert reads.isdisjoint({"ctilde", "rho", "eta", "sigma0"})


def test_parse_lambdas_raises_only_on_a_parse_error():
    """The ladder rule (non-empty, strictly increasing) belongs to ``lambda_sweep``."""
    body = _function("cli", "_parse_lambdas")
    raises = [node for node in ast.walk(body) if isinstance(node, ast.Raise)]
    handled = [node for handler in ast.walk(body) if isinstance(handler, ast.ExceptHandler)
               for node in ast.walk(handler) if isinstance(node, ast.Raise)]
    assert len(raises) == 1 and raises == handled


def test_the_lambda_floor_is_checked_where_the_certificate_is_made():
    """``construct_e`` builds the certificate; ``verify_embeddings`` certifies without one.

    Every other path (``solve``, ``bound``, ``sweep``, the geometry section
    of ``verify``) reaches the check through ``construct_e``.
    """
    calls = _scopes(lambda node: isinstance(node, ast.Call) and _named(node.func, "check_lambda"))
    assert calls == {("mpa", "construct_e"), ("spaces", "verify_embeddings")}


def test_lambda_sweep_leaves_the_solver_defaults_to_the_solvers():
    body = _function("runner", "lambda_sweep")
    assert not any(isinstance(node, ast.Call) and _named(node.func, "MpaConfig")
                   for node in ast.walk(body))
    assigned = {target.id for node in ast.walk(body) if isinstance(node, ast.Assign)
                for target in node.targets if isinstance(target, ast.Name)}
    assert assigned.isdisjoint({"mpa_config", "bvp_config", "bvp_points"})


class _Stop(Exception):
    pass


def test_the_bvp_table_defaults_to_the_well_reference(monkeypatch, interval_spec):
    """``bvp_solve`` without a config runs with the settings of the default ``bvp`` table."""
    seen = []

    def capture(op, e_vals, config, x, warm):
        seen.append(config)
        raise _Stop

    monkeypatch.setattr(mpa, "_run_path", capture)
    with pytest.raises(_Stop):
        bvp_solve(interval_spec)
    assert seen == [build_bvp_config(DEFAULT_CONFIG)]


@pytest.mark.parametrize("value, owner", [(257, "spaces"), (20260816, "problem"), (1.1, "spaces")])
def test_each_shared_default_is_written_once(value, owner):
    """The well's node count, the verifiers' seed and the safety factor on ``C_inf``."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += [path.stem for node in ast.walk(tree) if isinstance(node, ast.Constant)
                  and type(node.value) is type(value) and node.value == value]
    assert found == [owner]


def test_the_segment_polynomial_of_w_has_one_builder_and_one_reader():
    """``problem._segment_power_rows`` builds the rows, ``wint_bernstein`` alone reduces them.

    Only ``mpa._measure_segment`` asks for the reduction.
    """
    defs = _scopes(lambda node: isinstance(node, ast.FunctionDef)
                   and node.name == "_segment_power_rows")
    assert defs == {("problem", "")}
    builds = _scopes(lambda node: isinstance(node, ast.Call)
                     and _named(node.func, "_segment_power_rows"))
    assert builds == {("functional", "_OperatorBase.wint_bernstein")}
    reads = _scopes(lambda node: isinstance(node, ast.Call) and _named(node.func, "wint_bernstein"))
    assert reads == {("mpa", "_measure_segment")}


def _calls(roots, name: str) -> list[ast.Call]:
    """Calls in ``roots`` of the function ``name`` or, for ``op.name``, of the operator method."""
    module, _, attr = name.rpartition(".")
    return [node for root in roots for node in ast.walk(root)
            if isinstance(node, ast.Call) and _named(node.func, attr)
            and (not module or (isinstance(node.func, ast.Attribute)
                                and _named(node.func.value, module)))]


def test_w_is_sampled_along_a_segment_only_without_a_polynomial():
    """In ``mpa``, ``_segment_energies`` and ``op.wslope`` run only where the polynomial is ``None``.

    Each such call sits in ``_measure_segment`` under an ``if`` that tests
    the name bound to ``op.wint_bernstein``'s result against ``None``, so a
    ``W`` with a polynomial is never sampled along a segment.
    """
    body = _function("mpa", "_measure_segment")
    reduced = {target.id for node in ast.walk(body) if isinstance(node, ast.Assign)
               and isinstance(node.value, ast.Call) and _named(node.value.func, "wint_bernstein")
               for target in node.targets if isinstance(target, ast.Name)}
    branches = [node.body for node in ast.walk(body) if isinstance(node, ast.If)
                and isinstance(node.test, ast.Compare) and isinstance(node.test.ops[0], ast.Is)
                and any(_named(node.test.left, name) for name in reduced)
                and isinstance(node.test.comparators[0], ast.Constant)
                and node.test.comparators[0].value is None]
    assert branches
    mpa_tree = ast.parse((SRC / "mpa.py").read_text(encoding="utf-8"))
    for name in ("_segment_energies", "op.wslope"):
        sampled = _calls([stmt for branch in branches for stmt in branch], name)
        assert sampled and len(sampled) == len(_calls([mpa_tree], name)), name
